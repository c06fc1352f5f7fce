import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncglab.scalars import (
    INF,
    cmp_k_sqrt_alpha,
    cost_ratio,
    floor_div_sqrt,
    format_rational,
    parse_rational,
    sqrt_exact,
)


def test_parse_and_format_roundtrip():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(INF) == "inf"
    assert format_rational(-INF) == "-inf"


def test_cost_ratio_is_defined_at_zero_costs():
    assert cost_ratio(Fraction(6), Fraction(4)) == Fraction(3, 2)
    assert cost_ratio(Fraction(0), Fraction(0)) == 1
    assert cost_ratio(Fraction(2), Fraction(0)) == INF
    assert cost_ratio(INF, INF) == 1


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1.5.2", None, 2.5])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(16)) == 4
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(Fraction(2)) is None
    assert sqrt_exact(Fraction(1, 3)) is None
    assert sqrt_exact(Fraction(0)) == 0


@given(
    m=st.integers(min_value=0, max_value=10**6),
    p=st.integers(min_value=1, max_value=10**6),
    q=st.integers(min_value=1, max_value=10**4),
)
@settings(derandomize=True)
def test_floor_div_sqrt_is_exact_floor(m, p, q):
    alpha = Fraction(p, q)
    t = floor_div_sqrt(m, alpha)
    assert t * t * alpha <= m * m
    assert (t + 1) * (t + 1) * alpha > m * m


def test_sqrt_comparisons_match_floats_away_from_ties():
    alpha = Fraction(7, 3)
    for x, k, y in [(Fraction(5), 2, Fraction(1)), (Fraction(1, 7), 3, Fraction(2))]:
        sign = cmp_k_sqrt_alpha(x, k, alpha, y)
        approx = float(x) - k * math.sqrt(float(alpha)) * float(y)
        assert sign == (1 if approx > 0 else -1)


def test_sqrt_comparisons_exact_at_ties():
    # x = 2*sqrt(9)*y exactly, no tolerance involved
    assert cmp_k_sqrt_alpha(Fraction(6), 2, Fraction(9), Fraction(1)) == 0
    assert cmp_k_sqrt_alpha(INF, 2, Fraction(9), Fraction(1)) == 1
    # sqrt(9)*2 = 6*1 exactly, and sqrt(4)*3 exceeds 5*1
    assert cmp_k_sqrt_alpha(Fraction(6), 1, Fraction(9), Fraction(2)) == 0
    assert cmp_k_sqrt_alpha(Fraction(5), 1, Fraction(4), Fraction(3)) == -1
