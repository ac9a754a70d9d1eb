"""Directional dependence estimation with permutation-based significance.

The estimator ranks the sample once into pseudo-observations, builds one
empirical copula, and aggregates it and its coordinate exchange onto
checkerboards at the resolution ``floor(sqrt(min unique count))``.  It reports
q(X, Y) = zeta1 of the first board, q(Y, X) = zeta1 of the second (the board
of the swapped sample, bit for bit), their mean, the asymmetry
a = q(X, Y) - q(Y, X), and permutation p-values for dependence and for
symmetry of the dependence.  The permutation tests reuse the same ranks.

Randomness is drawn from numpy's seeded PCG64 generator.  Replicate b of
test stream t uses ``SeedSequence(entropy=seed, spawn_key=(t, b))`` (t = 0 for
the dependence test, t = 1 for the asymmetry test), which makes results
reproducible and independent of evaluation order.  The contract is unchanged;
``_replicate_rngs`` computes the states in blocks.  Replicates are evaluated in
chunks, split among workers: one bincount builds a chunk's boards and zeta1
runs on the stack, with the same arithmetic per board as a single estimate.
Both skip only work whose result is known exactly (bincount entries of weight
+0.0, the root formula on cells without a sign change), so no float changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .copula import (
    _AS_IS,
    MAX_RESOLUTION,
    BivariateSample,
    PseudoObservations,
    _boards_from_ranks,
    _fit_boards,
    _permuted_boards,
    _sample_is_its_copula,
    _zeta1_stack,
    pseudo_observations,
    zeta1,
)
from ._workers import _map, usable_cpus
from .errors import DegenerateInputError, _check_count

__all__ = [
    "QadOptions",
    "QadResult",
    "resolution_rule",
    "qad_compute",
    "permutation_test_dependence",
    "permutation_test_asymmetry",
]

DEPENDENCE_STREAM = 0
ASYMMETRY_STREAM = 1

#: Sample elements per chunk of permutation replicates (16 replicates at
#: n = 1000).  A chunk's boards come from one bincount over (replicate, cell);
#: larger chunks raise peak memory and measured no faster.
CHUNK_ELEMENTS = 1 << 14

#: Replicates seeded per ``_replicate_rngs`` pass, O(SEED_BLOCK) memory for any
#: B; a pass per 16-replicate chunk measured slower than seeding one by one.
SEED_BLOCK = 4096

#: The most replicates of one test: b enters the spawn key as one 32-bit word.
MAX_PERMUTATIONS = (1 << 32) - 1

#: glibc's malloc serves every block above its mmap threshold (128 KiB at
#: start) from fresh pages and returns the heap top to the system once more
#: than twice that threshold is free, so the temporaries of each estimate and
#: each replicate chunk page-fault anew (about 1000 minor faults per
#: ``qad_compute`` at n = 10k, B = 0, and 78000 at n = 1000, B = 999).
#: Freeing one mapped block raises the mmap threshold to its size and the trim
#: threshold to twice that; a block of this size brings both counts to about
#: zero.  At n = 100k the temporaries outgrow it and nothing changes.
HEAP_HINT_BYTES = 1 << 22

#: Sample sizes below this draw a warning: the rule gives at most three strips.
MIN_N_WARNING = 16


@dataclass(frozen=True)
class QadOptions:
    """Estimation settings.

    permutations = 0 skips the significance tests (at most MAX_PERMUTATIONS);
    every field is an int or numpy integer.  ``resolution_override`` replaces
    the default resolution rule (research use only).  ``threads`` caps the
    worker processes a call forks (Linux only); results do not depend on it.
    """

    permutations: int = 0
    seed: int = 0
    resolution_override: int | None = None
    threads: int = 1

    def __post_init__(self):
        _check_count("permutations", self.permutations, 0, MAX_PERMUTATIONS)
        _check_count("seed", self.seed, 0)
        if self.resolution_override is not None:
            _check_count("resolution override", self.resolution_override)
        _check_count("threads", self.threads)


@dataclass(frozen=True)
class QadResult:
    """Directional dependence estimates for one sample.

    q_xy is the dependence of Y on X, q_yx the dependence of X on Y; the
    asymmetry is q_xy - q_yx.  p-values are None when permutations were 0.
    """

    q_xy: float
    q_yx: float
    mean_dependence: float
    asymmetry: float
    p_q_xy: float | None
    p_q_yx: float | None
    p_asymmetry: float | None
    n: int
    n_unique_x: int
    n_unique_y: int
    resolution: int
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        """The fields in declaration order for JSON serialization; the
        p-values, the only fields that can be None, are omitted if absent."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["warnings"] = list(self.warnings)
        return {key: value for key, value in out.items() if value is not None}


def resolution_rule(n: int, n_unique_x: int, n_unique_y: int) -> int:
    """Checkerboard resolution: floor(sqrt(smaller unique-value count)).

    For tie-free data this is floor(sqrt(n)).  Constant margins give N = 1.
    """
    _check_count("n", n)
    smaller = min(_check_count("n_unique_x", n_unique_x), _check_count("n_unique_y", n_unique_y))
    return max(1, math.isqrt(smaller))


def _prepare(sample, resolution=None):
    """(pobs, N) of ``_resolve`` for the sample ranked once."""
    return _resolve(pseudo_observations(sample), resolution)


def _resolve(pobs, resolution=None):
    """(pobs, N): ``pobs``, of 2 or more rows, and the resolution, the rule's
    unless ``resolution`` overrides it; an override must lie in [1, ``MAX_RESOLUTION``].

    An untouched ``HEAP_HINT_BYTES`` block is allocated and freed: with glibc
    this costs one mmap/munmap pair the first time and no page fault; other
    allocators just free it.
    """
    if resolution is not None:
        _check_count("resolution override", resolution)
    if pobs.n < 2:
        raise DegenerateInputError("need at least 2 observations")
    n, N = pobs.n, resolution
    if N is None:
        N = resolution_rule(n, pobs.n_unique_u, pobs.n_unique_v)
    elif N > MAX_RESOLUTION:
        raise ValueError(
            f"resolution {N} is too large for n = {n}: the board would "
            f"hold {N * N} cells, above the limit of {MAX_RESOLUTION**2}"
        )
    np.empty(HEAP_HINT_BYTES, dtype=np.uint8)
    return pobs, N


def _replicate_rngs(seed: int, stream: int, replicates: range):
    """Yield, for each b in ``replicates``, one reused Generator in the state of
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(stream, b)))``.

    b is the last entropy word, so the pool of ``SeedSequence(seed,
    spawn_key=(stream,))`` has mixed in the others; uint64 arrays mix in
    ``hashmix(b)`` and run ``generate_state`` for SEED_BLOCK replicates at a
    time, and PCG64 takes its state from those words by two 128-bit LCG steps.
    """

    def column(init, mult, steps):  # hash constants init * mult^k mod 2^32 of steps k
        return np.array([[init * pow(mult, k, 1 << 32) % (1 << 32)] for k in steps], np.uint64)

    pool = np.random.SeedSequence(seed, spawn_key=(stream,)).pool.astype(np.uint64)[:, None]
    # four hash steps per earlier word: seed's 32-bit words, at least four, and stream
    first = 4 * (max(4, (int(seed).bit_length() + 31) // 32) + 1)
    h = column(0x43B0D7E5, 0x931E8875, range(first, first + 5))
    g = column(0x8B51F9DD, 0x58F38DED, range(9))
    rng = np.random.Generator(np.random.PCG64())
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for start in range(0, len(replicates), SEED_BLOCK):
        block = replicates[start : start + SEED_BLOCK]
        x = np.arange(block.start, block.stop, block.step, dtype=np.uint64)
        x = (x ^ h[:4]) * h[1:] & 0xFFFFFFFF  # hashmix(b), once into each pool word
        x = (0xCA01F9DD * pool - 0x4973F715 * (x ^ x >> 16)) & 0xFFFFFFFF  # mix
        x = ((x ^ x >> 16)[[0, 1, 2, 3, 0, 1, 2, 3]] ^ g[:8]) * g[1:] & 0xFFFFFFFF
        x ^= x >> 16  # the eight words of generate_state
        for s_hi, s_lo, i_hi, i_lo in (x[0::2] | x[1::2] << 32).T.tolist():
            # pcg64_set_seed: inc = 2i + 1, state = (inc + s) * multiplier + inc mod 2^128
            inc = (i_hi << 65 | i_lo << 1 | 1) % (1 << 128)
            s = (inc + (s_hi << 64 | s_lo)) * 0x2360ED051FC65DA44385DF649FCCF645 + inc
            state["state"] = {"state": s % (1 << 128), "inc": inc}
            rng.bit_generator.state = state
            yield rng


def _q_pairs(boards: np.ndarray) -> np.ndarray:
    """(q_xy, q_yx) of each board in a (C, N, N) stack; q_yx from the transposes,
    copied contiguous so that zeta1's cumulative sums run along memory."""
    transposes = np.ascontiguousarray(boards.transpose(0, 2, 1))
    return np.stack([_zeta1_stack(boards), _zeta1_stack(transposes)], axis=1)


def _replicate_chunks(B: int, n: int, resolution: int):
    """Replicate index ranges, each holding about CHUNK_ELEMENTS sample elements
    (or board cells, when the board is larger than the sample)."""
    size = max(1, CHUNK_ELEMENTS // max(n, resolution * resolution))
    return [range(start, min(start + size, B)) for start in range(0, B, size)]


def _p_value(exceedances, B: int) -> float:
    return (1 + int(exceedances)) / (B + 1)


def _observed_pairs(pobs, resolution):
    """(q_xy, q_yx) of the sample as the permutation statistics score it.

    The replicates build their boards from per-element masses, so the
    observed statistic does too: it is the dependence null's board of the
    unpermuted sample.  The reported q uses the distinct-pair masses of
    ``_fit_boards``; with ties in both margins the two agree to rounding but
    not always bitwise.  With a tie-free margin every pair is distinct, the
    empirical copula is the sample itself with masses 1/n, and
    ``_fit_boards``'s board_xy is this board bit for bit, so ``qad_compute``
    scores that board instead of calling this.
    """
    return _q_pairs(_permuted_boards(pobs, resolution)(_AS_IS))[0]


def _null(pobs, N, B, seed, stream, draw, boards, threads):
    """(B, 2) replicate (q_xy, q_yx) pairs of one test: replicate b draws
    ``draw(rng)`` from its own generator of ``stream``, and ``boards`` builds
    the boards of each chunk's stacked draws.  W workers take contiguous groups
    of chunks, W at most ``threads`` and the full chunks (B // the first's size)."""
    chunks = _replicate_chunks(B, pobs.n, N)
    W = min(threads, B // len(chunks[0]), usable_cpus())

    def group(g):
        part = chunks[g * len(chunks) // W : (g + 1) * len(chunks) // W]
        rngs = _replicate_rngs(seed, stream, range(part[0].start, part[-1].stop))
        # one Generator is reused, so each replicate draws before the next yield
        stacks = (np.stack([draw(next(rngs)) for _ in c]) for c in part)
        return np.concatenate([_q_pairs(boards(stack)) for stack in stacks])

    return np.concatenate(_map(group, range(W), W))


def _dependence_null(pobs, N, B, seed, threads=1):
    """(B, 2) replicate (q_xy, q_yx) pairs of the dependence test.

    Replicate b pairs the x side with the y side permuted by its own stream;
    ``_permuted_boards`` prepares both sides once for every replicate.
    """
    n = pobs.n
    boards = _permuted_boards(pobs, N)
    return _null(pobs, N, B, seed, DEPENDENCE_STREAM, lambda r: r.permutation(n), boards, threads)


def _stack_max_ranks(values: np.ndarray, n: int):
    """Row-wise max-ranks (R, t) of a (C, n) stack of integers in 1..n."""
    C = values.shape[0]
    keys = values + np.arange(C)[:, None] * (n + 1)
    counts = np.bincount(keys.ravel(), minlength=C * (n + 1)).reshape(C, n + 1)
    ends = np.cumsum(counts, axis=1)
    return ends.ravel()[keys], counts.ravel()[keys]


def _asymmetry_null(pobs, N, B, seed, threads=1):
    """(B, 2) replicate (q_xy, q_yx) pairs of the asymmetry test.

    Replicate b swaps the integer max-ranks of a random subset of pairs and
    re-ranks each margin by counting; the ranks are integers in 1..n, so this
    gives the same (R, t) as ranking the normalized floats.
    """
    n, ru, rv = pobs.n, pobs.ranks_u, pobs.ranks_v

    def boards(swap):
        su = ru + swap * (rv - ru)
        rub, tub = _stack_max_ranks(su, n)
        rvb, tvb = _stack_max_ranks((ru + rv) - su, n)
        return _boards_from_ranks(rub, tub, rvb, tvb, n, N)

    return _null(pobs, N, B, seed, ASYMMETRY_STREAM, lambda r: r.random(n) < 0.5, boards, threads)


def _dependence_p(observed, null):
    ge_xy, ge_yx = (null >= observed).sum(axis=0)
    return _p_value(ge_xy, len(null)), _p_value(ge_yx, len(null))


def _asymmetry_p(observed, null) -> float:
    a_obs = abs(observed[0] - observed[1])
    return _p_value((np.abs(null[:, 0] - null[:, 1]) >= a_obs).sum(), len(null))


def _permutation_test(null, p_value, sample, permutations, seed, resolution, threads):
    """``p_value(observed pairs, null(pobs, N, permutations, seed, threads))`` of one test."""
    _check_count("permutations", permutations, 1, MAX_PERMUTATIONS)
    QadOptions(permutations, seed, resolution, threads)
    pobs, N = _prepare(sample, resolution)
    return p_value(_observed_pairs(pobs, N), null(pobs, N, permutations, seed, threads))


def permutation_test_dependence(
    sample: BivariateSample,
    permutations: int,
    seed: int,
    resolution: int | None = None,
    threads: int = 1,
):
    """Permutation p-values for the two directional dependence estimates.

    Each replicate shuffles the y-sequence uniformly at random (breaking the
    pairing while preserving both margins) and recomputes the estimates at the
    same resolution; p = (1 + #{q_b >= q_observed}) / (B + 1) per direction.
    ``threads`` worker processes share the replicates (see ``QadOptions``).
    """
    return _permutation_test(
        _dependence_null, _dependence_p, sample, permutations, seed, resolution, threads
    )


def permutation_test_asymmetry(
    sample: BivariateSample,
    permutations: int,
    seed: int,
    resolution: int | None = None,
    threads: int = 1,
) -> float:
    """Permutation p-value for the hypothesis of symmetric dependence.

    Both margins are first rank-normalized to pseudo-observations, then each
    replicate swaps every pair's coordinates independently with probability
    1/2 and recomputes |a| at the same resolution; under exchangeability of
    the rank pair this randomization is the natural null for symmetry.
    p = (1 + #{|a_b| >= |a_observed|}) / (B + 1); ``threads`` as in ``QadOptions``.
    """
    return _permutation_test(
        _asymmetry_null, _asymmetry_p, sample, permutations, seed, resolution, threads
    )


def qad_compute(sample: BivariateSample, opts: QadOptions = QadOptions()) -> QadResult:
    """Full estimation pipeline for one sample.

    Ranks the sample once, fits both directions' checkerboards from one
    empirical copula, evaluates zeta1 on each, and attaches permutation
    p-values, from the same ranks, when requested.
    """
    return _compute_with_boards(pseudo_observations(sample), opts)[0]


def _compute_with_boards(pobs: PseudoObservations, opts: QadOptions):
    """``qad_compute`` of the sample ranked as ``pobs``, plus the boards it
    fitted: (QadResult, (board_xy, board_yx))."""
    warnings = []
    pobs, resolution = _resolve(pobs, opts.resolution_override)
    n = pobs.n
    if resolution > n:
        warnings.append(
            f"resolution {resolution} exceeds the sample size {n}: the board is not "
            "aggregated and q is biased toward 1 even under independence"
        )
    if n < MIN_N_WARNING:
        warnings.append(f"sample size {n} below recommended minimum ({MIN_N_WARNING})")
    if pobs.n_unique_u == 1:
        warnings.append("x is constant; dependence is 0 in both directions")
    if pobs.n_unique_v == 1:
        warnings.append("y is constant; dependence is 0 in both directions")

    board_xy, board_yx = _fit_boards(pobs, resolution)
    q_xy = zeta1(board_xy)
    q_yx = zeta1(board_yx)

    p_q_xy = p_q_yx = p_asym = None
    if opts.permutations > 0:
        if _sample_is_its_copula(pobs):
            observed = _q_pairs(board_xy.mass[None])[0]
        else:
            observed = _observed_pairs(pobs, resolution)
        null_args = (pobs, resolution, opts.permutations, opts.seed, opts.threads)
        p_q_xy, p_q_yx = _dependence_p(observed, _dependence_null(*null_args))
        p_asym = _asymmetry_p(observed, _asymmetry_null(*null_args))

    return QadResult(
        q_xy=q_xy,
        q_yx=q_yx,
        mean_dependence=(q_xy + q_yx) / 2,
        asymmetry=q_xy - q_yx,
        p_q_xy=p_q_xy,
        p_q_yx=p_q_yx,
        p_asymmetry=p_asym,
        n=n,
        n_unique_x=pobs.n_unique_u,
        n_unique_y=pobs.n_unique_v,
        resolution=resolution,
        warnings=tuple(warnings),
    ), (board_xy, board_yx)
