"""Property test of the block finder of the KL report; skipped where
Hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from qx import qec_core as qc


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=12),
    extra=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_of_a_permuted_block_diagonal_matrix(sizes, extra, seed):
    # each block is a random tree, so it is connected however sparse (a
    # path needs many pointer jumps), plus a fraction ``extra`` of its other
    # entries; the matrix is Hermitian and its rows are then permuted
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    h = np.zeros((n, n), dtype=complex)
    starts = np.cumsum([0] + sizes)
    for lo, hi in zip(starts, starts[1:]):
        for node in range(lo + 1, hi):
            parent = rng.integers(lo, node)
            h[node, parent] = rng.normal() + 1j * rng.normal() or 1.0
        h[lo:hi, lo:hi] += rng.normal(size=(hi - lo, hi - lo)) * (rng.random((hi - lo, hi - lo)) < extra)
    h = h + h.conj().T
    perm = rng.permutation(n)
    h = h[np.ix_(perm, perm)]
    groups = qc._blocks(*np.nonzero(h), n)
    # the positions that held block [lo, hi) before the permutation
    where = np.argsort(perm)
    want = {frozenset(where[lo:hi].tolist()) for lo, hi in zip(starts, starts[1:])}
    got = [row.tolist() for idx in groups for row in idx]
    assert {frozenset(row) for row in got} == want
    assert all(row == sorted(row) for row in got) and sum(map(len, got)) == n
    assert sorted(idx.shape[1] for idx in groups) == sorted(set(sizes))
