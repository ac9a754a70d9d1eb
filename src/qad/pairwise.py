"""Multivariate front end: pairwise dependence matrices, influence scores,
and directed dependency networks.

Columns are compared pairwise on pairwise-complete rows.  Each ordered entry
q[f][j] is the dependence of column j on column f; the asymmetry matrix
a[f][j] = q[f][j] - q[j][f] is antisymmetric by construction.  Per-pair
permutation seeds are derived from the global seed and the sorted column
names, so results do not depend on column order, row order, or scheduling.

Importing this module loads numpy only: the Pearson and Spearman baselines are
computed with numpy, the sign test of ``influence_summary`` in integers, scipy
is imported only by its signed-rank test and networkx by ``build_network``, so
every command but ``qad network`` runs without either, and ``qad network``
without scipy unless ``--influence-test signrank`` asks for it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .copula import PseudoObservations, _max_ranks, _ranked
from .errors import _THRESHOLDS, DataError, _check_count, _check_range
from .estimator import QadOptions, _compute_with_boards
from .tables import DataTable

__all__ = [
    "FilterReport",
    "PairwiseResult",
    "InfluenceSummary",
    "DependencyNetwork",
    "Correlations",
    "filter_columns",
    "pairwise_qad",
    "influence_summary",
    "build_network",
    "baseline_correlations",
]


@dataclass(frozen=True)
class FilterReport:
    """Names and most-frequent-value proportions of the dropped columns."""

    dropped: tuple[tuple[str, float], ...]
    threshold: float


def filter_columns(
    table: DataTable,
    max_single_value_prop: float = 0.25,
    min_unique_prop: float | None = None,
):
    """Drop columns whose most frequent value occupies >= the given share of rows.

    Columns with no observed values are dropped as well; ``min_unique_prop``
    optionally drops columns whose share of distinct values is too small.
    Returns the filtered table and a report of dropped columns.
    ``max_single_value_prop`` must lie in (0, 1], the range of ``--filter-ties``,
    and ``min_unique_prop``, if given, in [0, 1].
    """
    for name, value in (("max_single_value_prop", max_single_value_prop),
                        ("min_unique_prop", min_unique_prop)):
        if value is not None:
            _check_range(name, value, *_THRESHOLDS[name])
    keep, dropped = [], []
    n_rows = table.n_rows
    for idx, name in enumerate(table.names):
        col = table.values[:, idx]
        observed = col[~np.isnan(col)]
        if observed.size == 0:
            dropped.append((name, 1.0))
            continue
        _, counts = np.unique(observed, return_counts=True)
        prop = counts.max() / n_rows
        few_unique = min_unique_prop is not None and counts.size / n_rows < min_unique_prop
        if prop >= max_single_value_prop or few_unique:
            dropped.append((name, float(prop)))
        else:
            keep.append(idx)
    if not keep:
        raise DataError("all columns dropped by the tie filter")
    filtered = DataTable(
        tuple(table.names[i] for i in keep), table.values[:, keep].copy()
    )
    return filtered, FilterReport(tuple(dropped), max_single_value_prop)


@dataclass(frozen=True)
class PairwiseResult:
    """Dependence, asymmetry, and significance matrices over all column pairs.

    q[f][j] is the dependence of column j on column f.  Diagonals are NaN.
    p-matrices are all-NaN when the run used no permutations.
    """

    variables: tuple[str, ...]
    q: np.ndarray
    p_q: np.ndarray
    asymmetry: np.ndarray
    p_asymmetry: np.ndarray
    n_used: np.ndarray
    permutations: int
    warnings: tuple[str, ...] = field(default=())

    @property
    def k(self) -> int:
        return len(self.variables)

    def has_p_values(self) -> bool:
        return self.permutations > 0


def _pair_seed(seed: int, name_a: str, name_b: str) -> int:
    """Deterministic per-pair seed from the global seed and sorted names."""
    key = "\x1f".join(sorted((name_a, name_b))).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int(seed) ^ int.from_bytes(digest[:8], "big")


def _complete_rows(xs: np.ndarray, ys: np.ndarray):
    """The rows of a column pair that count: those with neither value missing."""
    complete = ~(np.isnan(xs) | np.isnan(ys))
    return xs[complete], ys[complete]


def _canonical_pair(xs: np.ndarray, ys: np.ndarray) -> PseudoObservations:
    """The finite rows of a pair ranked once, in the order of their rank pairs,
    so results ignore the table's row order: rows sorted by x, then by y, up
    to rows with equal rank pairs, which are interchangeable."""
    ru, tu = _max_ranks(xs)
    rv, tv = _max_ranks(ys)
    order = np.argsort(ru * (xs.size + 1) + rv)
    return _ranked(ru[order], tu[order], rv[order], tv[order])


def pairwise_qad(
    table: DataTable, opts: QadOptions = QadOptions(), threads: int = 1
) -> PairwiseResult:
    """Dependence estimation over every unordered column pair.

    Rows with a missing value in either column of a pair are excluded for
    that pair only.  Pairs with fewer than 2 complete rows, or with an
    infinite value in a complete row, yield NaN cells and a warning naming
    the pair and the reason rather than an error.  Pairs run one after
    another; ``threads``, like ``opts.threads``, is checked but starts no
    thread.
    """
    _check_count("threads", threads)
    k = table.n_columns
    if k < 2:
        raise DataError("need at least 2 columns")
    q, p_q, asym, p_asym, n_used = (np.full((k, k), np.nan) for _ in range(5))
    warnings = []

    for f, j in itertools.combinations(range(k), 2):
        # canonical orientation and row order: results must not depend on
        # the table's column or row arrangement, including p-values
        if table.names[j] < table.names[f]:
            f, j = j, f
        xs, ys = _complete_rows(table.values[:, f], table.values[:, j])
        n_used[f, j] = n_used[j, f] = xs.size
        skip = None
        if xs.size < 2:
            skip = "fewer than 2 complete rows"
        elif np.isinf(xs).any() or np.isinf(ys).any():
            skip = "non-finite values"
        if skip:
            warnings.append(f"pair ({table.names[f]}, {table.names[j]}): {skip}")
            continue
        pair_seed = _pair_seed(opts.seed, table.names[f], table.names[j])
        result = _compute_with_boards(_canonical_pair(xs, ys), replace(opts, seed=pair_seed))[0]
        q[f, j] = result.q_xy
        q[j, f] = result.q_yx
        asym[f, j] = result.asymmetry
        asym[j, f] = -result.asymmetry
        if result.p_q_xy is not None:
            p_q[f, j] = result.p_q_xy
            p_q[j, f] = result.p_q_yx
            p_asym[f, j] = p_asym[j, f] = result.p_asymmetry

    return PairwiseResult(
        variables=table.names,
        q=q,
        p_q=p_q,
        asymmetry=asym,
        p_asymmetry=p_asym,
        n_used=n_used,
        permutations=opts.permutations,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class InfluenceSummary:
    """Per-variable summary of the influence values I_f^j = q[f][j] - q[j][f].

    ``mean_influence_given`` averages q[f][j] over partners j (how well f
    predicts the others); ``mean_influence_received`` averages q[j][f].
    ``p_median_positive`` tests median(I_f) > 0.
    """

    variables: tuple[str, ...]
    median_influence: np.ndarray
    q25_influence: np.ndarray
    q75_influence: np.ndarray
    mean_influence_given: np.ndarray
    mean_influence_received: np.ndarray
    p_median_positive: np.ndarray
    method: str


def _sign_test_greater(values: np.ndarray) -> float:
    """Exact one-sided sign test for median > 0 (zeros discarded): the binomial
    tail P(K >= k_pos), K ~ Bin(n, 1/2), summed in integers."""
    nonzero = values[values != 0]
    if nonzero.size == 0:
        return 1.0
    n = nonzero.size
    k_pos = int((nonzero > 0).sum())
    return sum(math.comb(n, i) for i in range(k_pos, n + 1)) / 2**n


def _signrank_greater(values: np.ndarray) -> float:
    nonzero = values[values != 0]
    if nonzero.size == 0:
        return 1.0
    from scipy import stats

    return float(stats.wilcoxon(nonzero, alternative="greater").pvalue)


def influence_summary(pw: PairwiseResult, method: str = "sign") -> InfluenceSummary:
    """Median/quartile influence per variable plus a median-positivity test.

    ``method`` selects the significance test: "sign" (exact sign test,
    distribution-free default) or "signrank" (Wilcoxon signed-rank).
    """
    if method not in ("sign", "signrank"):
        raise ValueError("method must be 'sign' or 'signrank'")
    test = _sign_test_greater if method == "sign" else _signrank_greater
    k = pw.k
    med, q25, q75, given, received, p_pos = (np.full(k, np.nan) for _ in range(6))
    for f in range(k):
        influences = np.delete(pw.asymmetry[f], f)
        influences = influences[~np.isnan(influences)]
        if influences.size:
            q25[f], med[f], q75[f] = np.percentile(influences, [25, 50, 75])
            p_pos[f] = test(influences)
        row = np.delete(pw.q[f], f)
        col = np.delete(pw.q[:, f], f)
        if np.any(~np.isnan(row)):
            given[f] = np.nanmean(row)
        if np.any(~np.isnan(col)):
            received[f] = np.nanmean(col)
    return InfluenceSummary(
        variables=pw.variables,
        median_influence=med,
        q25_influence=q25,
        q75_influence=q75,
        mean_influence_given=given,
        mean_influence_received=received,
        p_median_positive=p_pos,
        method=method,
    )


@dataclass(frozen=True)
class DependencyNetwork:
    """Thresholded directed dependence graph with node centrality metrics."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (source, target, q-weight)
    degree: dict
    betweenness: dict
    hub_score: dict
    q_threshold: float
    alpha: float


def _hub_scores(weights: np.ndarray, tol: float = 1e-10, max_iter: int = 10000):
    """Principal eigenvector of W W^T by power iteration, scaled to max 1.  W >= 0,
    so (W W^T x)_i >= (W W^T)_ii x_i > 0 on W's nonzero rows: no norm is 0."""
    k = weights.shape[0]
    m = weights @ weights.T
    if not m.any():
        return np.zeros(k)
    x = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        nxt = m @ x
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - x)) < tol:
            x = nxt
            break
        x = nxt
    return x / x.max()


def _graph(nodes, edges):
    """A DiGraph over ``nodes`` whose (source, target, weight) ``edges`` carry only weight."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_weighted_edges_from(edges)
    return graph


def build_network(
    pw: PairwiseResult, q_threshold: float = 0.325, alpha: float = 0.05
) -> DependencyNetwork:
    """Keep edges f -> j with q[f][j] >= q_threshold and p_q[f][j] < alpha.

    Node metrics: degree = in+out edge count, betweenness over shortest paths
    with edge length 1/weight, hub score from the principal eigenvector of
    the weighted adjacency product A A^T (power iteration, max-normalized).
    ``q_threshold`` must lie in [0, 1] and ``alpha`` in (0, 1], as the CLI's
    flags do.
    """
    for name, value in (("q_threshold", q_threshold), ("alpha", alpha)):
        _check_range(name, value, *_THRESHOLDS[name])
    if not pw.has_p_values():
        raise DataError("network construction needs p-values; run with permutations")
    import networkx as nx

    names = pw.variables
    # NaN compares false, so cells without an estimate drop out; row-major order
    keep = (pw.q >= q_threshold) & (pw.p_q < alpha) & ~np.eye(pw.k, dtype=bool)
    edges = tuple((names[f], names[j], float(pw.q[f, j])) for f, j in zip(*np.nonzero(keep)))
    graph = _graph(names, edges)
    betweenness = nx.betweenness_centrality(
        graph, normalized=False, weight=lambda u, v, d: 1.0 / d["weight"]
    )
    return DependencyNetwork(
        nodes=names,
        edges=edges,
        degree={name: graph.degree(name) for name in names},
        betweenness={n: float(betweenness[n]) for n in names},
        hub_score={n: float(h) for n, h in zip(names, _hub_scores(np.where(keep, pw.q, 0.0)))},
        q_threshold=q_threshold,
        alpha=alpha,
    )


@dataclass(frozen=True)
class Correlations:
    """Classical pairwise-complete correlation baselines."""

    variables: tuple[str, ...]
    pearson_r: np.ndarray
    r_squared: np.ndarray
    spearman_rho: np.ndarray


def _pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Pearson r of two finite, non-constant vectors, computed as scipy's
    ``pearsonr`` does: each centred vector is scaled by its largest magnitude
    before its norm is taken, r is clipped to [-1, 1] and is exactly +-1 at n = 2."""

    def unit(v):
        centred = v - v.mean()
        top = np.abs(centred).max()
        return centred / (top * np.linalg.norm(centred / top))

    r = min(max(float(np.dot(unit(xs), unit(ys))), -1.0), 1.0)
    return float(round(r)) if xs.size == 2 else r


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties given the mean of the ranks they span."""
    ranks, ties = _max_ranks(values)
    return ranks - (ties - 1) / 2.0


def baseline_correlations(table: DataTable) -> Correlations:
    """Pearson r, r^2 and Spearman rho over all column pairs.

    Pairwise-complete; a pair with a zero-variance margin, or with an
    infinite value in a complete row, yields NaN.
    """
    k = table.n_columns
    r = np.full((k, k), np.nan)
    rho = np.full((k, k), np.nan)
    for f in range(k):
        for j in range(f + 1, k):
            xs, ys = _complete_rows(table.values[:, f], table.values[:, j])
            cols = np.stack((xs, ys))
            if xs.size < 2 or not np.isfinite(cols).all() or np.ptp(cols, axis=1).min() == 0:
                continue
            r[f, j] = r[j, f] = _pearson(xs, ys)
            rho[f, j] = rho[j, f] = _pearson(_average_ranks(xs), _average_ranks(ys))
    return Correlations(table.names, r, r * r, rho)
