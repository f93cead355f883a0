import math

import pytest
from hypothesis import given, strategies as st

from juliazeta.errors import BranchPointError
from juliazeta.intervals import Disk, Interval

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite, finite)
def test_shift_encloses_true_values(a, b, c):
    lo, hi = min(a, b), max(a, b)
    iv = Interval(lo, hi).shift(c)
    assert lo + c >= iv.lo and hi + c <= iv.hi


@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_sqrt_encloses_true_values(a, b):
    lo, hi = min(a, b), max(a, b)
    iv = Interval(lo, hi).sqrt()
    assert iv.lo <= math.sqrt(lo) and math.sqrt(hi) <= iv.hi


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_disk_sqrt_shift_contains_samples():
    d = Disk(2.0 + 0.5j, 0.4)
    img = d.sqrt_shift(-6.0, 0)
    for k in range(24):
        z = d.center + d.radius * 0.999 * complex(math.cos(k), math.sin(k))
        w = (z + 6.0) ** 0.5
        assert abs(w - img.center) <= img.radius


def test_disk_branch_point_detection():
    with pytest.raises(BranchPointError):
        Disk(0.0j, 2.0).sqrt_shift(1.0, 0)      # encloses z = 1
    with pytest.raises(BranchPointError):
        Disk(-3.0 + 0.1j, 0.5).sqrt_shift(0.0, 0)  # straddles the cut
