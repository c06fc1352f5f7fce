"""Exception hierarchy shared across the package.

``LabInputError`` covers everything a caller handed us that cannot be
processed (maps to CLI exit code 3). ``BoundViolation`` signals that a
mathematically guaranteed inequality failed on concrete data, which is
always a bug somewhere and aborts sweeps (CLI exit code 4).
"""


class LabError(Exception):
    pass


class LabInputError(LabError, ValueError):
    pass


class AsymmetricWeight(LabInputError):
    def __init__(self, u, v):
        super().__init__(f"weights[{u}][{v}] != weights[{v}][{u}]")
        self.pair = (u, v)


class NegativeWeight(LabInputError):
    def __init__(self, u, v):
        super().__init__(f"weights[{u}][{v}] is negative")
        self.pair = (u, v)


class NonzeroDiagonal(LabInputError):
    def __init__(self, u):
        super().__init__(f"weights[{u}][{u}] is not zero")
        self.node = u


class HostTooSmall(LabInputError):
    def __init__(self, n):
        super().__init__(f"host graph needs at least 2 nodes, got {n}")
        self.n = n


class DisconnectedSeed(LabInputError):
    """Seed graph of a metric closure does not span all nodes."""


class DisconnectedNetwork(LabError):
    """Operation requires a connected network."""


class InstanceTooLarge(LabInputError):
    def __init__(self, n, limit, what="exhaustive enumeration"):
        super().__init__(f"n={n} exceeds the {what} limit of {limit}")
        self.n = n
        self.limit = limit


class NotProvenOptimal(LabInputError):
    """A check that needs a proven optimum got a heuristic one."""


class AlphaNotSquare(LabInputError):
    """Edge price parameter must be a perfect square for exact square roots."""


class MoveError(LabInputError):
    pass


class RemovalNotPresent(MoveError):
    pass


class RemovalOutsideCoalition(MoveError):
    pass


class AdditionAlreadyPresent(MoveError):
    pass


class AdditionOutsideCoalition(MoveError):
    pass


class InconclusiveSearch(LabError):
    """A checker ran out of budget before finding a move or proving none exists."""

    def __init__(self, frontier):
        super().__init__(f"search inconclusive: {frontier}")
        self.frontier = frontier


class BoundViolation(LabError):
    """A proven inequality failed on concrete data.

    Carries a diagnostic payload (dict) so the CLI can dump a
    reproducible bundle before exiting with code 4.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
