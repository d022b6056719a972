"""Property test of the canonical completion's remainder; skipped where
Hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from qx import qec_core as qc

EPS = np.finfo(float).eps

# overshoots of the top above one, in units of the snap bound 64 n eps or
# absolute: inside the bound, at it, just past it, the 1e-13..1e-10 band,
# and clearly damped or undamped tops
RELATIVE = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 8.0])
ABSOLUTE = st.one_of(
    st.floats(1e-13, 1e-10),
    st.floats(-1e-10, -1e-13),
    st.floats(1e-6, 0.5),
    st.floats(-0.5, -1e-6),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    relative=st.booleans(),
    data=st.data(),
)
def test_completion_remainder_is_never_negative(n, relative, data):
    bound = 64 * n * EPS
    if relative:
        top = 1.0 + data.draw(RELATIVE, label="top over bound") * bound
        top = data.draw(st.sampled_from([np.nextafter(top, 0.0), top, np.nextafter(top, 2.0)]))
    else:
        top = 1.0 + data.draw(ABSOLUTE, label="overshoot")
    rest = data.draw(
        st.lists(st.floats(1e-12, 1.0), min_size=n - 1, max_size=n - 1), label="rest"
    )
    s = np.array([top] + [min(x * top, top) for x in rest])
    damping, remainder = qc._completion_remainder(s)
    assert remainder.min() >= 0.0
    assert (damping == 1.0) == (s.max() <= 1.0 + bound)
    assert np.abs(damping**2 * s + remainder - 1.0).max() <= 2 * bound


def test_completion_remainder_in_the_old_window():
    # an overshoot of 1e-11 is far above rounding: it damps, and no
    # remainder is negative
    damping, remainder = qc._completion_remainder(np.array([1.0 + 1e-11, 0.5]))
    assert damping < 1.0
    assert remainder.min() >= 0.0
