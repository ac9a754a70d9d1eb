"""The batched replicate seeding keeps numpy's seeding contract.

Replicate b of test stream t draws from
``default_rng(SeedSequence(entropy=seed, spawn_key=(t, b)))``.
``estimator._replicate_rngs`` computes those generator states for a block of
replicates at once; every yielded state must give the reference's draws, for
any seed, both streams and any index range up to 2^32 - 1, across the block
boundaries, and both nulls, which take the generators chunk by chunk, must
equal the nulls drawn from the reference generators.  If numpy ever changes
its seeding, this fails alongside the SHA-256 pins of tests/test_replicates.py.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_replicate_rng
from qad import BivariateSample, estimator
from qad.estimator import (
    ASYMMETRY_STREAM,
    DEPENDENCE_STREAM,
    MAX_PERMUTATIONS,
    SEED_BLOCK,
    _asymmetry_null,
    _dependence_null,
    _prepare,
    _replicate_chunks,
    _replicate_rngs,
)

STREAMS = st.sampled_from([DEPENDENCE_STREAM, ASYMMETRY_STREAM])
# one to eight 32-bit entropy words, below, at and beyond the pool of four: a
# bit length drawn first reaches every word count, and its edges, evenly
SEEDS = st.one_of(
    st.integers(1, 256).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
    st.sampled_from([0, 1, 7000, 2**31 + 5, 2**32 - 1, 2**32, 2**64, 2**70 + 3, 2**128, 2**200 + 99]),
)


def _draws(rng, n):
    return rng.permutation(n).tolist(), rng.random(n).tolist()


def _assert_reference(seed, stream, replicates, n):
    got = [_draws(rng, n) for rng in _replicate_rngs(seed, stream, replicates)]
    assert got == [_draws(reference_replicate_rng(seed, stream, b), n) for b in replicates]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=SEEDS,
    stream=STREAMS,
    start=st.one_of(st.integers(0, 40), st.integers(0, MAX_PERMUTATIONS - 1)),
    count=st.integers(0, 20),
    block=st.integers(1, 8),
    n=st.integers(1, 40),
)
def test_replicate_rngs_equal_numpy_seeding(seed, stream, start, count, block, n):
    # a small block makes every range of a few replicates cross block boundaries
    replicates = range(start, min(start + count, MAX_PERMUTATIONS + 1))
    with mock.patch.object(estimator, "SEED_BLOCK", block):
        _assert_reference(seed, stream, replicates, n)


def test_replicate_rngs_cross_the_real_block_boundary():
    _assert_reference(2**70 + 3, ASYMMETRY_STREAM, range(SEED_BLOCK + 3), 5)


def test_largest_replicate_index_and_numpy_integer_seed():
    last = range(MAX_PERMUTATIONS - 2, MAX_PERMUTATIONS + 1)
    _assert_reference(np.int64(3), DEPENDENCE_STREAM, last, 30)
    assert [_draws(rng, 30) for rng in _replicate_rngs(np.uint64(3), 0, last)] == [
        _draws(rng, 30) for rng in _replicate_rngs(3, 0, last)
    ]


@pytest.mark.parametrize("null", [_dependence_null, _asymmetry_null])
def test_nulls_across_chunks_draw_the_reference_streams(null):
    rng = np.random.default_rng(4)
    x = rng.random(1000)
    pobs, N = _prepare(BivariateSample(x, np.round(x + rng.normal(0, 0.3, 1000), 1)))
    B, seed = 40, 2**64 + 11
    assert len(_replicate_chunks(B, pobs.n, N)) == 3

    def reference(seed, stream, replicates):
        return (reference_replicate_rng(seed, stream, b) for b in replicates)

    with mock.patch.object(estimator, "_replicate_rngs", reference):
        expected = null(pobs, N, B, seed)
    assert np.array_equal(null(pobs, N, B, seed), expected)
