"""Property test of the Taylor exponential of su_algebra against the eigh
reference; skipped where Hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qx.su_algebra import expi_hermitian

# spectral norms of the drawn matrices: exact zeros, tiny ones and 0..50
NORMS = st.one_of(
    st.just(0.0),
    st.floats(1e-300, 1e-6),
    st.floats(0.0, 50.0),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    norms=st.lists(NORMS, min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_expi_hermitian_property(n, norms, seed, data):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(len(norms), n, n)) + 1j * rng.normal(size=(len(norms), n, n))
    h = m + m.conj().transpose(0, 2, 1)
    scale = np.linalg.norm(h, 2, axis=(1, 2))
    h *= (np.array(norms) / np.where(scale > 0, scale, 1.0))[:, None, None]
    u = expi_hermitian(h)
    want = oracles.expi_reference(h)
    norm = np.linalg.norm(h, 2, axis=(1, 2))
    assert (np.abs(u - want).max(axis=(1, 2)) <= 1e-13 * np.maximum(1.0, norm)).all()
    gram = u.conj().transpose(0, 2, 1) @ u - np.eye(n)
    assert np.linalg.norm(gram, 2, axis=(1, 2)).max() <= 1e-13
    # a matrix has the same bits alone as anywhere inside any stack
    i = data.draw(st.integers(0, len(norms) - 1), label="matrix")
    alone = expi_hermitian(h[i])
    assert np.array_equal(u[i], alone)
    others = rng.normal(size=(data.draw(st.integers(0, 9), label="others"), n, n))
    at = data.draw(st.integers(0, len(others)), label="position")
    stack = np.concatenate([others[:at] + others[:at].transpose(0, 2, 1), h[i : i + 1],
                            others[at:] + others[at:].transpose(0, 2, 1)])
    assert np.array_equal(expi_hermitian(stack)[at], alone)
