"""Seeded random instance models.

All models are deterministic functions of (n, model parameters, seed); the
edge price alpha is attached afterwards and never consumes randomness.

  * uniform: independent symmetric weights on a 1/64 grid in [lo, hi],
    generally not metric;
  * euclidean: integer grid points with L1 (taxicab) distances, which are
    exact rationals and always metric (true Euclidean lengths would be
    irrational);
  * tree: metric closure of a random spanning tree with integer weights.
"""

import random
from fractions import Fraction

from .errors import LabInputError
from .model import Instance, metric_closure, validate_host

MODELS = ("uniform", "euclidean", "tree")
_GRID = 64  # denominator of the uniform model's weight grid


def random_instance(
    n: int,
    model: str,
    seed: int,
    alpha,
    lo=Fraction(1),
    hi=Fraction(10),
    box: int = 32,
    weight_lo: int = 1,
    weight_hi: int = 10,
) -> Instance:
    if n < 2:
        raise LabInputError(f"need n >= 2, got {n}")
    rng = random.Random(f"{model}:{n}:{seed}")
    if model == "uniform":
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi:
            raise LabInputError("need 0 <= lo <= hi")
        lo_ticks, hi_ticks = int(lo * _GRID), int(hi * _GRID)
        w = [[Fraction(0)] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                w[u][v] = w[v][u] = Fraction(rng.randint(lo_ticks, hi_ticks), _GRID)
        host = validate_host(w)
    elif model == "euclidean":
        points = [(rng.randint(0, box), rng.randint(0, box)) for _ in range(n)]
        w = [
            [
                Fraction(abs(points[u][0] - points[v][0]) + abs(points[u][1] - points[v][1]))
                for v in range(n)
            ]
            for u in range(n)
        ]
        host = validate_host(w)
    elif model == "tree":
        edges = [
            (i, rng.randrange(i), Fraction(rng.randint(weight_lo, weight_hi)))
            for i in range(1, n)
        ]
        host = metric_closure(n, edges)
    else:
        raise LabInputError(f"unknown model {model!r}; know {MODELS}")
    return Instance(host=host, alpha=Fraction(alpha))
