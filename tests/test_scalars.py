from fractions import Fraction

import pytest

from ncglab.scalars import (
    INF,
    cost_ratio,
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
