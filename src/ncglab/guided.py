"""Proof-guided coalition moves for metric instances.

Partitions the agents by the weight of their edge to an anchor node (the
node with the smallest total weight to everyone) and emits up to two large
coalition moves that are worth trying when a network's distances are badly
stretched relative to that anchor's weight sum:

  * the tree move: when every near-anchor agent is far from the rest of
    the near set, the whole near set wires itself into an almost complete
    k-ary tree;
  * the matching move: mid-range agents far from the near set's hub each
    buy one edge toward agents clustered around the hub, at most two new
    edges per hub-cluster agent.

All threshold comparisons of the form x >= k*sqrt(alpha)*y are decided on
squares and the tree arity floor(3n/sqrt(alpha)) - 1 by integer search, so
exact arithmetic is preserved. The gates are the constructions'
multipliers of sqrt(alpha), calibrated for asymptotics. Every emitted
move has been replayed and strictly improves every coalition member;
callers get no unvetted moves.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphaTooSmall, HostNotMetric
from .model import Instance, Network, is_metric, shortest_distances
from .scalars import cmp_k_sqrt_alpha, floor_div_sqrt
from .stability import BSE, Move, is_improving

# Multipliers on sqrt(alpha) in the move-emission gates, read at call time.
TREE_GATE = 13  # min per-agent distance inside the near set
HUB_RADIUS = 52  # (over n) radius of the hub cluster
STRETCH_GATE = 88  # per-agent distance-to-hub vs anchor weight


@dataclass(frozen=True)
class GuidedPartition:
    anchor: int
    anchor_weight_sum: Fraction
    near: tuple  # w(u, anchor) <= (2/n) * sum
    mid: tuple
    far: tuple  # w(u, anchor) > (2/sqrt(alpha)) * sum
    hub: int
    hub_cluster: tuple  # near agents within (HUB_RADIUS*sqrt(alpha)/n) * sum of hub
    stretched_mid: tuple  # mid agents at distance >= STRETCH_GATE*sqrt(alpha)*w(.,anchor)


def _partition(inst: Instance, dist) -> GuidedPartition:
    n = inst.n
    w = inst.host.weights
    alpha = inst.alpha
    sums = [sum(w[u][v] for v in range(n)) for u in range(n)]
    anchor = min(range(n), key=lambda u: (sums[u], u))
    total = sums[anchor]
    near, mid, far = [], [], []
    for u in range(n):
        if n * w[u][anchor] <= 2 * total:
            near.append(u)
        elif cmp_k_sqrt_alpha(2 * total, 1, alpha, w[u][anchor]) < 0:
            far.append(u)
        else:
            mid.append(u)

    def dist_to_set(u, nodes):
        return sum(dist[u][v] for v in nodes)

    hub = min(near, key=lambda u: (dist_to_set(u, near), u))
    hub_cluster = tuple(
        u
        for u in near
        if cmp_k_sqrt_alpha(n * dist[hub][u], HUB_RADIUS, alpha, total) <= 0
    )
    stretched = tuple(
        v
        for v in mid
        if cmp_k_sqrt_alpha(dist[hub][v], STRETCH_GATE, alpha, w[v][anchor]) >= 0
    )
    return GuidedPartition(
        anchor=anchor,
        anchor_weight_sum=total,
        near=tuple(near),
        mid=tuple(mid),
        far=tuple(far),
        hub=hub,
        hub_cluster=hub_cluster,
        stretched_mid=stretched,
    )


def _distances(inst: Instance, net: Network):
    """The network's distance matrix, once the guided preconditions hold."""
    if not is_metric(inst.host).is_metric:
        raise HostNotMetric("guided moves need a verified-metric host")
    if inst.alpha <= 1:
        raise AlphaTooSmall("guided moves need alpha > 1")
    return shortest_distances(net, inst.host).dist


def guided_partition(inst: Instance, net: Network) -> GuidedPartition:
    return _partition(inst, _distances(inst, net))


def _tree_move(inst, net, part, dist):
    """Near agents wire an almost complete k-ary tree, k = floor(3n/sqrt(a)) - 1."""
    alpha = inst.alpha
    total = part.anchor_weight_sum
    arity = floor_div_sqrt(3 * inst.n, alpha) - 1
    if arity < 2 or len(part.near) < 2:
        return None
    for u in part.near:
        d = sum(dist[u][v] for v in part.near)
        if cmp_k_sqrt_alpha(d, TREE_GATE, alpha, total) <= 0:
            return None  # someone is already close to the near set
    order = sorted(part.near)
    root = order[0]
    layout = [root] + [u for u in order if u != root]
    eset = frozenset(net.edges)
    adds = []
    for i in range(1, len(layout)):
        parent = layout[(i - 1) // arity]
        e = (min(parent, layout[i]), max(parent, layout[i]))
        if e not in eset:
            adds.append(e)
    if not adds:
        return None
    return Move.make(part.near, additions=adds, concept=BSE)


def _matching_move(inst, net, part):
    """Each stretched mid agent buys one edge into the hub cluster."""
    cluster = sorted(part.hub_cluster)
    stretched = sorted(part.stretched_mid)
    if not cluster or not stretched or len(stretched) > 2 * len(cluster):
        return None
    eset = frozenset(net.edges)
    adds = []
    used = set()
    for i, v in enumerate(stretched):
        partner = cluster[i // 2]
        e = (min(v, partner), max(v, partner))
        if e in eset:
            continue
        adds.append(e)
        used.add(v)
        used.add(partner)
    if not adds:
        return None
    return Move.make(sorted(used), additions=adds, concept=BSE)


def guided_bse_candidates(inst: Instance, net: Network):
    """Replay-validated guided moves, possibly empty.

    Raises HostNotMetric / AlphaTooSmall when the preconditions fail.
    """
    dist = _distances(inst, net)
    part = _partition(inst, dist)
    out = []
    for move in (_tree_move(inst, net, part, dist), _matching_move(inst, net, part)):
        if move is not None and is_improving(inst, net, move):
            out.append(move)
    return out
