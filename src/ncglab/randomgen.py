"""Seeded random instance models.

All models are deterministic functions of (model, n, seed); the
edge price alpha is attached afterwards and never consumes randomness.

  * uniform: independent symmetric weights on a 1/64 grid in [1, 10],
    generally not metric;
  * euclidean: integer grid points in [0, 32]^2 with L1 (taxicab)
    distances, which are exact rationals and always metric (true
    Euclidean lengths would be irrational);
  * tree: metric closure of a random spanning tree with integer weights
    in [1, 10].
"""

import random
from fractions import Fraction

from .errors import LabInputError
from .model import Instance, metric_closure, validate_host
from .scalars import parse_int

MODELS = ("uniform", "euclidean", "tree")
_GRID = 64  # denominator of the uniform model's weight grid
UNIFORM_WEIGHTS = (1, 10)  # uniform model's weight range
EUCLIDEAN_BOX = 32  # euclidean model's coordinate range is [0, EUCLIDEAN_BOX]
TREE_WEIGHTS = (1, 10)  # tree model's integer edge-weight range


def random_instance(n: int, model: str, seed: int, alpha) -> Instance:
    parse_int(n, "random instance n", least=2)
    rng = random.Random(f"{model}:{n}:{parse_int(seed, 'random instance seed')}")
    if model == "uniform":
        lo_ticks, hi_ticks = (x * _GRID for x in UNIFORM_WEIGHTS)
        w = [[Fraction(0)] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                w[u][v] = w[v][u] = Fraction(rng.randint(lo_ticks, hi_ticks), _GRID)
        host = validate_host(w)
    elif model == "euclidean":
        box = EUCLIDEAN_BOX
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
            (i, rng.randrange(i), Fraction(rng.randint(*TREE_WEIGHTS)))
            for i in range(1, n)
        ]
        host = metric_closure(n, edges)
    else:
        raise LabInputError(f"unknown model {model!r}; know {MODELS}")
    return Instance(host=host, alpha=alpha)
