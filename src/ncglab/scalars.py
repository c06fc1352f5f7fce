"""Scalar conventions: exact non-negative rationals plus one infinity.

Finite quantities are ``fractions.Fraction``; ``math.inf`` is the single
infinite value, used for distances in disconnected networks. Fractions and
``inf`` mix transparently in sums and comparisons, which gives exactly the
absorption and domination behaviour the cost model needs.

Square roots never appear as inexact values: ``sqrt_exact`` returns the
root of a rational only when it is itself rational, and the fixtures that
need ``sqrt(alpha)`` refuse any other alpha with ``AlphaNotSquare``.
"""

from fractions import Fraction
from math import inf, isinf, isqrt

INF = inf


def is_inf(x) -> bool:
    return isinstance(x, float) and isinf(x)


def cost_ratio(num, den):
    """``num / den`` for costs, defined where the quotient is not.

    Equal sides give 1, including two zero costs; a zero denominator below
    the numerator gives ``inf``.
    """
    if num == den:
        return Fraction(1)
    if den == 0:
        return INF
    return num / den


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` or integer shorthand into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {text!r}") from exc
    raise ValueError(f"not a rational: {text!r}")


def format_rational(x) -> str:
    """Inverse of parse_rational; infinities serialize as '[-]inf'."""
    if is_inf(x):
        return "inf" if x > 0 else "-inf"
    f = Fraction(x)
    return str(f)


def sqrt_exact(x: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None
