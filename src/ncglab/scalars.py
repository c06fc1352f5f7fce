"""Scalar conventions: exact non-negative rationals plus one infinity.

Finite quantities are ``fractions.Fraction``; ``math.inf`` is the single
infinite value, used for distances in disconnected networks. Fractions and
``inf`` mix transparently in sums and comparisons, which gives exactly the
absorption and domination behaviour the cost model needs.

Every outside value (a library argument or a file field) passes one rule
here, which raises ``LabInputError`` naming it: ``parse_rational`` takes a
``Fraction``, an ``int`` or a ``"p/q"`` or decimal string, never a float
(its binary value is not the number meant) or a bool; ``parse_alpha`` a
positive rational; ``parse_int`` an ``int``, not a bool, at least ``least``;
``parse_bool`` a bool, never a string; ``parse_list`` a list or a tuple,
never a string.

Square roots never appear as inexact values: ``sqrt_exact`` returns the
root of a rational only when it is itself rational, and the fixtures that
need ``sqrt(alpha)`` refuse any other alpha with ``AlphaNotSquare``.
"""

from fractions import Fraction
from math import inf, isinf, isqrt

from .errors import LabInputError

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


def parse_rational(x, what="value") -> Fraction:
    if isinstance(x, Fraction):
        return x
    if is_int(x):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise LabInputError(f"{what} must be an exact rational ('p/q', decimal or int): {x!r}")


def parse_alpha(x) -> Fraction:
    alpha = parse_rational(x, "alpha")
    if alpha <= 0:
        raise LabInputError(f"alpha must be positive, got {alpha}")
    return alpha


def is_int(x) -> bool:
    return type(x) is int  # not isinstance: a bool is an int


def parse_int(x, what, least=None) -> int:
    if not is_int(x) or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise LabInputError(f"{what} must be an int{bound}: {x!r}")
    return x


def parse_bool(x, what) -> bool:
    if type(x) is not bool:  # bool() would read the string "false" as true
        raise LabInputError(f"{what} must be a JSON boolean: {x!r}")
    return x


def parse_list(x, what):
    if not isinstance(x, (list, tuple)):  # a string would be iterated per character
        raise LabInputError(f"{what} must be a list: {x!r}")
    return x


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
