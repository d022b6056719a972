"""Property version of the chunk-invariance test of quasi_universality;
skipped where Hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from test_quasi_universality import assert_chunk_invariant


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    length=st.integers(1, 200),
    explicit=st.booleans(),
    error_dist=st.sampled_from(["uniform", "gaussian"]),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_simulation_chunk_invariance_property(d, length, explicit, error_dist, seed, data):
    chunk = data.draw(st.integers(1, length), label="chunk")
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_chunk_invariant(monkeypatch, chunk, d, length, explicit, error_dist, seed)
