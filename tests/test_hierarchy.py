"""The resolution ladder's degrees-of-freedom law, ``planner.relative_dof``."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlmckit.planner import relative_dof


def test_relative_dof_ladder():
    assert relative_dof(1) == 1.0
    assert relative_dof(2) == 0.125
    assert relative_dof(3) == 1.0 / 64.0
    assert relative_dof(4) == 1.0 / 512.0


@given(st.integers(min_value=1, max_value=100))
def test_relative_dof_exact_power_of_two(level):
    # 8^-(l-1) is a power of two: exactly representable, so the float must
    # match the rational value with no rounding at all.
    assert Fraction(relative_dof(level)) == Fraction(1, 8 ** (level - 1))


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
def test_level_validation(bad):
    with pytest.raises(ValueError):
        relative_dof(bad)
