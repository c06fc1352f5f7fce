"""Core model: hosts, instances, networks, distances and the cost function.

Hosts, instances and networks check their own fields when made, so there
is one way to make each and it is the checked one. All values are
immutable after construction and every operation is a pure
function of its inputs: nothing is cached on a host or a network, so equal
values stay equal, with equal hashes, whatever has been computed from them.
Everything here is safe to evaluate concurrently over disjoint inputs.

Conventions baked in here:
  * weights are non-negative exact rationals; zero weights between distinct
    nodes are allowed, so metric checks accept pseudometrics;
  * disconnection is a value (infinite distance / infinite social cost),
    never an exception, except where a tree is structurally required;
  * shortest-path ties break toward the smallest-index predecessor
    settled earlier, so derived trees and witnesses are deterministic.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .errors import (
    AsymmetricWeight,
    DisconnectedNetwork,
    DisconnectedSeed,
    HostTooSmall,
    LabInputError,
    NegativeWeight,
    NonzeroDiagonal,
)
from .scalars import INF, is_inf, is_int, parse_alpha, parse_int, parse_list, parse_rational


def parse_edge(pair):
    """One outside edge: a list or tuple of two int node ids, as a tuple."""
    if len(parse_list(pair, "edge")) != 2:
        raise LabInputError(f"edge must be a pair of node ids: {pair!r}")
    return parse_int(pair[0], "node id"), parse_int(pair[1], "node id")


@dataclass(frozen=True)
class HostGraph:
    """Complete weighted graph on nodes 0..n-1, fixed by its weights.

    Whether the weights are metric is not stored: ``is_metric`` decides it
    from the weights on every call.
    """

    n: int
    weights: tuple

    def __post_init__(self):
        """Read the weights into tuples of ``Fraction``s and refuse any
        matrix that is not n-by-n, zero on the diagonal, symmetric and
        non-negative."""
        n = parse_int(self.n, "host n")
        if n < 2:
            raise HostTooSmall(n)
        if len(parse_list(self.weights, "host weights")) != n:
            raise LabInputError(f"host weights have {len(self.weights)} rows, expected {n}")
        rows = []
        for u, row in enumerate(self.weights):
            if len(parse_list(row, "host weights row")) != n:
                raise LabInputError(f"row {u} has length {len(row)}, expected {n}")
            rows.append(tuple(parse_rational(w, "host weight") for w in row))
        for u in range(n):
            if rows[u][u] != 0:
                raise NonzeroDiagonal(u)
            for v in range(u + 1, n):
                if rows[u][v] != rows[v][u]:
                    raise AsymmetricWeight(u, v)
                if rows[u][v] < 0:
                    raise NegativeWeight(u, v)
        object.__setattr__(self, "weights", tuple(rows))

    def weight(self, u: int, v: int) -> Fraction:
        return self.weights[u][v]


@dataclass(frozen=True)
class Instance:
    host: HostGraph
    alpha: Fraction

    def __post_init__(self):
        if not isinstance(self.host, HostGraph):
            raise LabInputError(f"instance host must be a HostGraph: {self.host!r}")
        object.__setattr__(self, "alpha", parse_alpha(self.alpha))

    @property
    def n(self) -> int:
        return self.host.n


@dataclass(frozen=True)
class Network:
    """Subgraph of a complete host: a canonical sorted tuple of (u, v) pairs.

    Canonical form (u < v, lexicographically sorted, no duplicates) makes
    equality, hashing and fingerprinting exact. The constructor refuses
    any other form; ``from_pairs`` makes it from pairs in any order.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        n = parse_int(self.n, "network n", least=2)
        if not isinstance(self.edges, tuple):  # a list would not hash
            raise LabInputError(f"network edges must be a tuple of pairs: {self.edges!r}")
        last = ()  # every pair sorts after the empty tuple
        for edge in self.edges:
            if not (isinstance(edge, tuple) and len(edge) == 2):
                raise LabInputError(f"edge must be a pair of node ids: {edge!r}")
            u, v = parse_int(edge[0], "node id"), parse_int(edge[1], "node id")
            if u == v:
                raise LabInputError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise LabInputError(f"edge ({u},{v}) outside node range 0..{n - 1}")
            if u > v:
                raise LabInputError(f"edge ({u},{v}) must list its smaller node first")
            if edge <= last:
                raise LabInputError(f"edges must strictly increase: {edge} after {last}")
            last = edge

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Network":
        canon = set()
        for pair in pairs:
            u, v = parse_edge(pair)
            canon.add((u, v) if u < v else (v, u))
        return cls(n=n, edges=tuple(sorted(canon)))

    @classmethod
    def empty(cls, n: int) -> "Network":
        return cls(n=n, edges=())

    @classmethod
    def complete(cls, n: int) -> "Network":
        return cls.from_pairs(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


@dataclass(frozen=True)
class DistanceMatrix:
    dist: tuple
    connected: bool

    def row_sum(self, u: int):
        return sum(self.dist[u])


@dataclass(frozen=True)
class CostBreakdown:
    edge_costs: tuple
    distance_costs: tuple
    totals: tuple
    social_total: object

    @property
    def connected(self) -> bool:
        return not is_inf(self.social_total)


@dataclass(frozen=True)
class MetricReport:
    is_metric: bool
    violation: tuple = None  # (u, z, v) with w(u,v) > w(u,z) + w(z,v)
    slack: Fraction = None


def validate_host(weights) -> HostGraph:
    """Build a HostGraph from a square matrix; the host checks the matrix."""
    return HostGraph(n=len(parse_list(weights, "host weights")), weights=weights)


def is_metric(host: HostGraph) -> MetricReport:
    """All-triples triangle inequality check (pseudometric: zeros allowed).

    Reports the lexicographically smallest violating ordered triple
    (u, z, v), i.e. the first w(u,v) > w(u,z) + w(z,v). Pure: the host is
    not touched, so each call decides the verdict afresh.
    """
    n, w = host.n, host.weights
    for u in range(n):
        for z in range(n):
            if z == u:
                continue
            wu_z = w[u][z]
            row_z = w[z]
            row_u = w[u]
            for v in range(n):
                if v == u or v == z:
                    continue
                if row_u[v] > wu_z + row_z[v]:
                    return MetricReport(
                        is_metric=False,
                        violation=(u, z, v),
                        slack=row_u[v] - wu_z - row_z[v],
                    )
    return MetricReport(is_metric=True)


def _dijkstra(n: int, adj, source: int):
    """Exact single-source shortest paths; adj[u] yields (v, weight).

    Returns ``(dist, parent)``. A node's parent is the smallest-index
    neighbour settled before it on a shortest path to it (None if none)."""
    dist = [INF] * n
    dist[source] = Fraction(0)
    parent = [None] * n
    seen = [False] * n
    heap = [(Fraction(0), source)]
    while heap:
        d, u = heappop(heap)
        if seen[u]:
            continue
        seen[u] = True
        for v, w in adj[u]:
            if seen[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v], parent[v] = nd, u
                heappush(heap, (nd, v))
            elif nd == dist[v]:
                parent[v] = min(parent[v], u)
    return dist, parent


def _weighted_adjacency(net: Network, host: HostGraph):
    adj = [[] for _ in range(net.n)]
    for u, v in net.edges:
        w = host.weights[u][v]
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _require_same_nodes(host, net):
    """Raise ``LabInputError`` unless the network lives on the nodes of
    ``host``, a host or an instance."""
    if net.n != host.n:
        raise LabInputError("network and host disagree on node count")


def shortest_distances(net: Network, host: HostGraph) -> DistanceMatrix:
    """Exact all-pairs shortest paths of the network; inf marks unreachable."""
    _require_same_nodes(host, net)
    adj = _weighted_adjacency(net, host)
    rows = tuple(tuple(_dijkstra(net.n, adj, s)[0]) for s in range(net.n))
    connected = all(not is_inf(d) for row in rows for d in row)
    return DistanceMatrix(dist=rows, connected=connected)


def metric_closure(n: int, weighted_edges) -> HostGraph:
    """Host whose weights are the shortest-path distances of a seed graph.

    The closure of any connected non-negative seed satisfies the triangle
    inequality (distances between distinct nodes may be zero). Every seed
    edge must join two of the nodes 0..n-1; the host checks the rest.
    """
    adj = [[] for _ in range(parse_int(n, "host n"))]
    for u, v, w in parse_list(weighted_edges, "seed edges"):
        if not all(is_int(x) and 0 <= x < n for x in (u, v)):
            raise LabInputError(f"seed edge ({u!r}, {v!r}) leaves nodes 0..{n - 1}")
        w = parse_rational(w, "seed edge weight")
        if w < 0:
            raise NegativeWeight(u, v)
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for s in range(n):
        dist = _dijkstra(n, adj, s)[0]
        if any(is_inf(d) for d in dist):
            raise DisconnectedSeed(f"seed graph does not reach all nodes from {s}")
        rows.append(tuple(dist))
    return HostGraph(n=n, weights=tuple(rows))


def cost_report(inst: Instance, net: Network) -> CostBreakdown:
    """Per-agent and social cost of a network under the bilateral model.

    Each agent pays alpha times the weight of every incident edge (both
    endpoints pay) plus the sum of its shortest-path distances to all
    nodes; the social total is the sum over agents, equivalently
    2*alpha*w(E) + total distance cost.
    """
    host, alpha = inst.host, inst.alpha
    dm = shortest_distances(net, host)
    inc = [Fraction(0)] * net.n
    for u, v in net.edges:
        inc[u] += host.weights[u][v]
        inc[v] += host.weights[u][v]
    edge_costs = [alpha * w for w in inc]
    distance_costs = [dm.row_sum(u) for u in range(net.n)]
    totals = [e + d for e, d in zip(edge_costs, distance_costs)]
    social = sum(totals)
    return CostBreakdown(
        edge_costs=tuple(edge_costs),
        distance_costs=tuple(distance_costs),
        totals=tuple(totals),
        social_total=social,
    )


def star_social_cost(n: int, alpha: Fraction, total_weight: Fraction) -> Fraction:
    """Closed form for the social cost of any star: (2n - 2 + 2*alpha) * w(E).

    Independent cross-check for cost_report on stars.
    """
    if parse_int(n, "star n") < 2:
        raise HostTooSmall(n)
    alpha = parse_alpha(alpha)
    total_weight = parse_rational(total_weight, "star total_weight")
    if total_weight < 0:
        raise LabInputError(f"star total_weight must be non-negative, got {total_weight}")
    return (2 * n - 2 + 2 * alpha) * total_weight


def spanner_stretch(net: Network, host: HostGraph):
    """max over host links of d_net(u,v) / w(u,v), which is the worst
    stretch over all pairs, d_net / d_host (spanner lemma, Peleg &
    Schäffer, J. Graph Theory 1989): a pair's host shortest path is a
    chain of links, each stretched by at most R, and d_host <= w on every
    link. A zero-weight link needs network distance zero, else the
    stretch is infinite, as it is for a disconnected network.
    """
    return _stretch(shortest_distances(net, host).dist, host)


def _stretch(d_net, host: HostGraph):
    """``spanner_stretch`` read off the network's distance matrix."""
    worst = Fraction(0)
    for u in range(host.n):
        for v in range(u + 1, host.n):
            w, dg = host.weights[u][v], d_net[u][v]
            if is_inf(dg) or (dg and not w):
                return INF
            if w:
                worst = max(worst, dg / w)
    return worst


def shortest_path_tree(net: Network, host: HostGraph, z: int) -> Network:
    """Tree T within the network preserving all distances from z: every
    node joined to its parent in the one ``_dijkstra`` run from z, which
    settles the parent first, so T is a tree across zero-weight links too.
    """
    _require_same_nodes(host, net)
    if not 0 <= parse_int(z, "root") < net.n:
        raise LabInputError(f"root {z} outside nodes 0..{net.n - 1}")
    dist, parent = _dijkstra(net.n, _weighted_adjacency(net, host), z)
    if any(is_inf(d) for d in dist):
        raise DisconnectedNetwork(f"no spanning tree from {z}: network disconnected")
    return Network.from_pairs(net.n, ((u, parent[u]) for u in range(net.n) if u != z))
