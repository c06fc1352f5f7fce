"""Moves, verdicts and the stability checkers for the three cooperation levels.

Pairwise stability (ps): no agent profits from deleting one of its edges,
and no pair profits from jointly adding the edge between them. Neighborhood
equilibrium (bne): no single agent can profit by simultaneously deleting
any subset of its edges and opening edges to partners who each strictly
profit from their one new edge. Strong equilibrium (bse): no coalition can
jointly delete incident edges and add edges inside the coalition so that
every member strictly profits.

The coalition search is exhaustive modulo prunes that only ever discard
moves proven non-improving, so a Stable verdict certifies exhaustion:

  * dead agents: an agent whose current cost is at most the universal
    lower bound (zero edge spend plus full-host distances) can never
    strictly improve in any reachable network, hence never joins an
    improving coalition;
  * per-addition-set bounds: with the addition set A fixed, every
    candidate result is a subgraph of G+A, so distances are bounded below
    by those of G+A while edge savings are bounded by the weight of all
    currently incident edges for a mover and are zero for a partner (see
    below); a member whose optimistic gain is still non-positive rules out
    every removal subset under this A;
  * coalition bounds, for coalitions of two or more movers: every move
    of the movers gives a subgraph of G plus all their addable edges, and
    a member pays at least 0 for additions, so a mover whose per-set
    bound is non-positive there, with no addition paid, rules out every
    addition set at once; each set it skips would have failed its own
    bound, its affordability or the change cap, none of which counts a
    move. A lone mover has no coalition bound: its per-set bounds rule
    out the same sets, and its partners' bounds below do the rest;
  * partner bounds, for a lone mover u: a partner v adds exactly one
    edge, uv, and pays W(u,v) for it, and its distances in G + A only
    shrink as A grows, so its per-set bound never falls as A grows. So
    a partner whose bound hi_v in G plus every addable edge of u is not
    positive fails the per-set test of every set holding it, and its
    pair leaves u's addable list (after the change cap is noted over
    the whole list), which keeps the order of the other sets; and a
    partner whose bound lo_v with uv alone is positive passes the test
    of every set holding it;
  * unaffordable addition sets: a set some member cannot afford, or one
    over the change cap, stays so in every superset, and all masks from
    M up to M + lowbit(M) are supersets of M, so the search steps past
    them in one go;
  * active coalitions: both searches are one joint search over movers,
    who may remove any incident edge, and partners, the other endpoints
    of their additions, who remove nothing and pay only for their own new
    edges; bne is the joint search with one mover, bse the one whose
    additions stay inside the mover set. A bse move leaving some mover
    untouched is the same move under the smaller coalition, which was
    enumerated earlier (coalitions are visited by increasing size, then
    lexicographically), so only moves touching every mover are evaluated;
    partners are touched by their additions, and a lone bne mover by
    every non-empty move;
  * the best-response bound: a bne or bse search that keeps only moves
    beating the largest gain yielded so far (``_run_checker`` with
    ``largest_gain``; ``best``, starting at 0) does not price a move
    (A, R) whose gain bound is at most ``best``. Each member's distances
    in G + A - R are no shorter than in G + A, and its edge savings are
    p times the weight of the removed edges at it, so the coalition's
    total gain is at most the members' summed per-set bounds without
    their removal term plus p * sum_{e in R} W(e) * (movers at e). Such a
    move cannot be the first move of the largest gain;
  * bulk counts: with ``best`` set, an addition set whose summed per-set
    bound is at most ``best`` holds no move to price, so its moves are
    counted at once, without walking its removal sets. Their number
    depends only on the movers its additions touch and, under a change
    cap, on how many additions it has. For a lone mover whose partners
    in the set all have a positive lo_v, u's exact bound plus their hi_v
    caps the set bound, so such a set passes its per-set test, and may
    be counted, with no partner's distances summed.

The moves the other prunes skip never count against the move budget and
cannot change which witness is found first, because only non-improving
moves are pruned. A move the best-response bound skips, or counts in
bulk, does count, as a priced one would: a bulk count that reaches
``max_moves`` stops the search exactly where counting one by one would.
So ``moves_evaluated``, the budget cut, the frontier and the first move of
the largest gain are those of the search without them. First-found
searches, bare ``_Search.moves`` iteration and ps leave ``best`` None and
yield every improving move; they count nothing in bulk, and their bne
agents still drop dead partners.

A search with one mover u, every ps agent, every bne agent and every bse
singleton, is priced from distance rows (``_MoverPricing``), while larger
coalitions price each move on an engine state of its network. A ps
removal is u's move alone, and a ps addition uv is u's move with the
single partner v.
Both give the same scaled integers, so verdicts, witnesses and gains
do not depend on which one ran. A move of u alone changes only edges at
u, and with non-negative weights (zero-weight links included) a
shortest path from u can be taken simple, so it leaves u once. Two
identities follow, with P the partners and A the added edges:

  (a) in G + A, ``d(u,.) = min(d_G(u,.), min_{v in P} W(u,v) + d_G(v,.))``
      and, for any other node v, ``d(v,.) = min(d_G(v,.), d(v,u) + d(u,.))``,
      since a path that uses an added edge passes through u;
  (b) in G + A - R, ``d(u,.) = min_y W(u,y) + d_{G-u}(y,.)`` over the
      neighbours y that u keeps and its partners, with u's own entry 0,
      and ``d(v,.) = min(d_{G-u}(v,.), d(v,u) + d(u,.))``, since the
      network away from u is G - u.

The addition bounds read (a) from G's rows; each move reads (b) from
the rows of G - u. G - u is an ordinary engine state keyed by G's edges
that avoid u, so the checks of one engine, such as the ps, bne and bse
checks of one enumeration candidate, share its rows and count its
Dijkstra runs.

One more sound prune discards whole networks before any search: the ps
prefilter (``ps_prefilter``) that candidate enumeration runs along its
walk over connected subgraphs. A network it refutes from its own and its
parent's distance rows (a pair stretched beyond (p+q)/q = alpha + 1
times its host weight, or an endpoint of the last added edge that
strictly gains by deleting it) has an improving ps move. It is then
neither ps-, bne- nor bse-stable, since both stronger concepts admit
every ps move, and it is never handed to a checker. The walk carries one
stretch flag: distances only fall down the walk, so only a stretched
parent's child can be stretched, and only it is tested again.

Witnesses are deterministic: the first improving move in the documented
canonical enumeration order (for ps this is the lexicographically smallest
violating move).

Per-agent setup for these prunes (incident weight, current cost,
distance sum, spend cap) is lazy: ps prepares agent u before its removals
and a partner v only when the pair check reaches it, while bne and bse
prepare every agent up front.
An agent's setup depends only on the network, so it is the same whenever
it runs, and it evaluates no move. Verdicts, witnesses and
``moves_evaluated`` are therefore those of eager setup, while the many
networks refuted by an early ps move skip most distance rows.
"""

from dataclasses import dataclass, fields
from functools import partial
from itertools import combinations

from .engine import CostEngine, canonical_edges
from .errors import (
    AdditionAlreadyPresent,
    AdditionOutsideCoalition,
    LabInputError,
    MoveError,
    RemovalNotPresent,
    RemovalOutsideCoalition,
)
from .model import Instance, Network, _require_same_nodes
from .optimum import _all_pairs
from .scalars import INF, is_inf, parse_int

PS = "ps"
BNE = "bne"
BSE = "bse"
CONCEPTS = (PS, BNE, BSE)

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"


def require_concept(concept):
    """Raise ``LabInputError`` unless the concept is one of ``CONCEPTS``."""
    if concept not in CONCEPTS:
        raise LabInputError(f"unknown concept {concept!r}; know {CONCEPTS}")


def _pair(e):
    a, b = e
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Move:
    """A joint strategy change: coalition, removed edges, added edges.

    Removed edges need at least one endpoint in the coalition (removal is
    unilateral); added edges need both endpoints in the coalition (adding
    is bilateral and both pay).
    """

    coalition: tuple
    removals: tuple
    additions: tuple
    concept: str

    @classmethod
    def make(cls, coalition, removals=(), additions=(), concept=BSE):
        return cls(
            coalition=tuple(sorted(coalition)),
            removals=tuple(sorted(_pair(e) for e in removals)),
            additions=tuple(sorted(_pair(e) for e in additions)),
            concept=concept,
        )


@dataclass(frozen=True)
class Budget:
    """Caps for a checker's search; a search a cap cuts short, with no
    witness found, is Inconclusive. Each cap binds only for the concepts
    whose search reads it:

      max_coalition: bse
      max_changes: bne, bse
      max_moves: ps, bne, bse

    A search ignores the caps it does not read: a ps witness may add an
    edge for two agents under ``max_coalition=0`` or ``max_changes=0``,
    and a bne witness may have partners beyond ``max_coalition``.
    ``max_moves`` counts a move that the best-response bound skips
    unpriced, or counts in bulk with its addition set, as it counts a
    priced one, and cuts a bulk count where counting one by one would
    (see the module docstring).
    """

    max_coalition: int = None
    max_changes: int = None  # |removals| + |additions| per move
    max_moves: int = None  # evaluated candidate moves

    def __post_init__(self):
        for field in fields(self):
            cap = getattr(self, field.name)
            if cap is not None:
                parse_int(cap, f"budget {field.name}", least=0)


_UNLIMITED = Budget()  # shared by unbudgeted searches, validated once


def require_budget(budget):
    """Raise ``LabInputError`` unless the budget is None or a ``Budget``."""
    if budget is not None and not isinstance(budget, Budget):
        raise LabInputError(f"budget must be a Budget or None: {budget!r}")


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Move = None
    moves_evaluated: int = 0
    frontier: str = None  # what was left unexplored when inconclusive

    @property
    def stable(self):
        return self.status == STABLE

    @property
    def unstable(self):
        return self.status == UNSTABLE

    @property
    def inconclusive(self):
        return self.status == INCONCLUSIVE


def _check_shape(move: Move):
    """Raise ``MoveError`` unless the move has the shape of a deviation: a
    non-empty coalition with no member twice, every addition inside it,
    every removal touching it, no self-loop and no edge listed twice.
    Presence in a network is ``apply_move``'s to check."""
    members = frozenset(move.coalition)
    if not members:  # would improve every member vacuously
        raise MoveError("move coalition is empty")
    if len(members) != len(move.coalition):
        raise MoveError(f"move coalition lists a member twice: {move.coalition}")
    for edges in (move.removals, move.additions):
        if len(set(edges)) != len(edges):
            raise MoveError(f"move lists an edge twice: {edges}")
        if any(u == v for u, v in edges):
            raise MoveError(f"move has a self-loop: {edges}")
    for e in move.additions:
        if e[0] not in members or e[1] not in members:
            raise AdditionOutsideCoalition(f"addition {e} not inside coalition")
    for e in move.removals:
        if e[0] not in members and e[1] not in members:
            raise RemovalOutsideCoalition(f"removal {e} has no endpoint in coalition")


def apply_move(net: Network, move: Move) -> Network:
    """Return the network after the move; the input is untouched."""
    _check_shape(move)
    if not all(0 <= m < net.n for m in move.coalition):  # bounds every edge too
        raise MoveError(f"coalition {move.coalition} leaves nodes 0..{net.n - 1}")
    present = frozenset(net.edges)
    edges = set(present)
    for e in move.removals:
        if e not in edges:
            raise RemovalNotPresent(f"removal {e} not in network")
        edges.discard(e)
    for e in move.additions:
        if e in present:
            raise AdditionAlreadyPresent(f"addition {e} already in network")
        edges.add(e)
    return Network(n=net.n, edges=canonical_edges(edges))


def _cost_delta(engine, old, new):
    """Exact ``new - old`` of two scaled costs: inf if new is, else -inf if old is."""
    if is_inf(new):
        return INF
    if is_inf(old):
        return -INF
    return engine.to_cost(new - old)


def _deltas(engine, net, move):
    """Exact per-member cost deltas (after minus before) of applying a
    move, priced on the given engine. The one pricing of a move: the
    public functions below all read it."""
    after = apply_move(net, move).edges
    return tuple(
        (m, _cost_delta(engine, engine.member_cost(net.edges, m), engine.member_cost(after, m)))
        for m in move.coalition
    )


def move_deltas(inst: Instance, net: Network, move: Move):
    """Exact per-member cost deltas (after minus before) of applying a move."""
    _require_same_nodes(inst, net)
    return _deltas(CostEngine(inst), net, move)


def is_improving(inst: Instance, net: Network, move: Move):
    """True iff the move strictly improves every coalition member: every
    delta is negative."""
    _require_same_nodes(inst, net)
    return all(delta < 0 for _, delta in _deltas(CostEngine(inst), net, move))


class _BudgetStop(Exception):
    pass


class _Search:
    """Shared state for one checker invocation over one network.

    ``rem_inc``, ``base``, ``base_dist`` and ``spend_cap`` hold None for
    an agent until ``_prepare`` fills them, which each move generator does
    before its first read. Preparing depends only on the network and
    counts no move, so witnesses and ``moves_evaluated`` match eager setup
    (see the module docstring).
    """

    def __init__(self, inst, net, budget, engine):
        _require_same_nodes(inst, net)
        require_budget(budget)
        self.engine = engine
        self.budget = budget or _UNLIMITED
        self.gkey = net.edges
        self.eset = frozenset(net.edges)
        n = inst.n
        self.rem_inc = [None] * n
        self.base = [None] * n
        self.base_dist = [None] * n
        self.spend_cap = [None] * n
        self.evaluated = 0
        self.frontier = None  # set by the first budget cut
        # the largest gain yielded so far when bne and bse yield only moves
        # that beat it (``_run_checker`` with ``largest_gain``), else None
        self.best = None

    def _prepare(self, u):
        """Fill agent u's incident weight, base cost, distance sum and spend cap."""
        if self.base[u] is not None:
            return
        eng = self.engine
        self.rem_inc[u] = inc = eng.incident_weight(self.gkey, u)
        d_g = eng.dist_sum(self.gkey, u)
        self.base[u] = eng.p * inc + eng.q * d_g
        self.base_dist[u] = d_g
        # spend_cap[u] is base[u] less the universal lower bound: u is dead
        # (see module doc) iff it is <= 0, and it strictly bounds what u can
        # pay for additions in any improving move (infinite while u is
        # disconnected), so an added edge neither endpoint can afford is
        # filtered out before subset enumeration
        self.spend_cap[u] = eng.p * inc + eng.q * (d_g - eng.host_dist_sum(u))

    def _prepare_all(self):
        for u in range(self.engine.n):
            self._prepare(u)

    def _affordable(self, u, v):
        # false for a dead endpoint too: the price is never negative
        price = self.engine.p * self.engine.W[u][v]
        return price < self.spend_cap[u] and price < self.spend_cap[v]

    def _note_skip(self, what):
        if self.frontier is None:
            self.frontier = what

    def _count_eval(self, moves=1):
        """Count ``moves`` moves against ``max_moves``, or stop the search
        where counting them one by one would reach the cap. Every move that
        passes the per-set tests counts, whether it is then priced, skipped
        by the best-response bound or counted with its whole addition set."""
        cap = self.budget.max_moves
        if cap is not None and self.evaluated + moves > cap:
            self.evaluated = cap
            self._note_skip(f"move budget {cap} exhausted")
            raise _BudgetStop()
        self.evaluated += moves

    def _gain_bound(self, m, d_plus, added_inc, removable_inc):
        """Optimistic gain of member m for any removal set under fixed A.

        ``d_plus`` is m's distance sum in G + A. ``removable_inc`` is the
        weight m may still shed: all its incident edges for a mover, zero
        for a partner. None means m provably cannot improve under this A;
        an infinite bound is vacuous (current cost infinite, candidate
        finite).
        """
        eng = self.engine
        if is_inf(d_plus):
            return None  # still disconnected with every addition in place
        return (
            eng.p * removable_inc
            - eng.p * added_inc
            + eng.q * (self.base_dist[m] - d_plus)
        )

    def _bound_allows(self, bound):
        return bound is not None and bound > 0

    def _partner_alive(self, hi):
        """False if a partner whose bound in G plus every addable edge is
        ``hi`` fails the per-set test of every addition set holding it."""
        return self._bound_allows(hi)

    def _partner_sure(self, lo):
        """True if a partner whose bound with its own edge alone is ``lo``
        passes the per-set test of every addition set holding it."""
        return self._bound_allows(lo)

    def _set_bound(self, added_inc, plus_sum, bit):
        """The members' summed ``_gain_bound`` under a fixed addition set,
        or None if some member's own bound rules the set out."""
        total = 0
        for m, inc in added_inc.items():
            bound = self._gain_bound(m, plus_sum(m), inc, self.rem_inc[m] if m in bit else 0)
            if not self._bound_allows(bound):
                return None
            total += bound
        return total

    def _may_beat_best(self, bound):
        """False if a move whose total gain is at most ``bound`` cannot
        beat the best move found so far."""
        return bound > self.best

    def _counts_in_bulk(self, bound):
        """True if an addition set whose moves gain at most ``bound`` is
        counted in bulk: none of its moves can beat the best so far."""
        return not self._may_beat_best(bound)

    # -- pairwise stability -------------------------------------------------

    def ps_moves(self):
        """Improving ps moves: per agent u, its removals by increasing edge,
        then its pairs with v > u by increasing v, all priced by one
        ``_MoverPricing``."""
        eng = self.engine
        n = eng.n
        for u in range(n):
            self._prepare(u)
            if self.spend_cap[u] <= 0:
                continue  # dead: neither u's removals nor its pairs can improve
            pairs = [(u, v) for v in range(u + 1, n) if (u, v) not in self.eset]
            one = _MoverPricing(self, u, pairs)
            for i, y in enumerate(one.nbrs):  # u's edges in sorted order
                self._count_eval()
                gain = one.gain({u: 0}, 0, 1 << i)
                if gain is not None:
                    yield Move.make((u,), removals=((u, y),), concept=PS), gain
            for k, (_, v) in enumerate(pairs):
                self._prepare(v)
                if not self._affordable(u, v):
                    continue
                self._count_eval()
                w = eng.W[u][v]
                gain = one.gain({u: w, v: w}, 1 << k, 0)
                if gain is not None:
                    yield Move.make((u, v), additions=((u, v),), concept=PS), gain

    # -- neighborhood and strong equilibrium ----------------------------------

    def bne_moves(self):
        eset = self.eset
        n = self.engine.n
        self._prepare_all()
        for u in range(n):
            if self.spend_cap[u] <= 0:
                continue
            addable = sorted(
                _pair((u, v))
                for v in range(n)
                if v != u
                and _pair((u, v)) not in eset
                and self._affordable(u, v)
            )
            yield from self._joint_moves((u,), addable, BNE, f"agent {u}")

    def bse_moves(self):
        eset = self.eset
        self._prepare_all()
        candidates = [u for u in range(self.engine.n) if self.spend_cap[u] > 0]
        cap_size = self.budget.max_coalition
        if cap_size is not None and cap_size < len(candidates):
            self._note_skip(f"coalitions larger than {cap_size} unexplored")
        top = len(candidates) if cap_size is None else min(len(candidates), cap_size)
        for size in range(1, top + 1):
            for gamma in combinations(candidates, size):
                addable = [
                    (a, b)
                    for a, b in combinations(gamma, 2)
                    if (a, b) not in eset and self._affordable(a, b)
                ]
                yield from self._joint_moves(gamma, addable, BSE, f"coalition {gamma}")

    def _coalition_hopeless(self, movers, addable):
        """True if some mover has no positive gain bound in G + ``addable``.

        Every move of the movers yields a subgraph of G + ``addable``, and
        a member pays at least 0 for its additions, so this bound is at
        least each addition set's bound for that mover.
        """
        plus_sum = partial(self.engine.dist_sum, canonical_edges(self.eset.union(addable)))
        return any(
            not self._bound_allows(self._gain_bound(m, plus_sum(m), 0, self.rem_inc[m]))
            for m in movers
        )

    def _live_additions(self, u, addable):
        """For lone mover u: a ``_MoverPricing`` over the pairs of
        ``addable`` whose partner passes the per-set test of some addition
        set, those pairs, each one's partner bound hi (in G plus every pair
        of ``addable``), and the mask of the pairs whose partner bound lo
        (with its own edge alone) is not positive. Only a best-response
        search reads lo; any other gets mask 0. See the module docstring's
        partner bounds."""
        one = _MoverPricing(self, u, addable)
        W = self.engine.W
        in_all = one.plus_sums((1 << len(addable)) - 1)
        hi = [self._gain_bound(v, in_all(v), W[u][v], 0) for v in one.partner_of]
        live = [i for i, bound in enumerate(hi) if self._partner_alive(bound)]
        if len(live) < len(addable):
            addable = [addable[i] for i in live]
            hi = [hi[i] for i in live]
            one = _MoverPricing(self, u, addable)
        weak = 0
        if self.best is not None:
            for i, v in enumerate(one.partner_of):
                lo = self._gain_bound(v, one.plus_sums(1 << i)(v), W[u][v], 0)
                if not self._partner_sure(lo):
                    weak |= 1 << i
        return one, addable, hi, weak

    @staticmethod
    def _past_supersets(mask):
        """The next addition mask after every superset of ``mask`` that
        lies above it: all masks in [mask, mask + lowbit(mask)) contain it.
        Only a non-empty mask is ever refused, so the step is positive."""
        return mask + (mask & -mask)

    def _joint_moves(self, movers, addable, concept, who):
        """Improving moves of the movers, with partners, in canonical order.

        Movers may remove any incident edge and add edges from ``addable``
        (sorted, each with a mover endpoint); every other endpoint of an
        addition joins as a partner that removes nothing and pays only for
        its own additions. Addition sets go by increasing mask over
        ``addable``, then removal sets by increasing mask over the movers'
        sorted incident edges; only moves touching every mover count.

        Three prunes skip addition sets without changing which moves are
        counted (see the module docstring): the coalition bound returns
        before any mask when some mover cannot gain even in G + ``addable``
        (only tried for two or more movers with two or more addable pairs:
        with one pair, that pair's per-set bound already prices
        G + ``addable``); a lone mover drops, after the change cap is
        noted, each pair whose partner's bound in G + ``addable`` is not
        positive; and a mask refused for its affordability or the change
        cap skips its supersets above it. A lone mover's bounds and moves
        are priced by the ``_MoverPricing`` built for it, a coalition's on
        an engine state of each network (see the module docstring).

        With ``best`` set, a counted move whose gain bound is at most
        ``best`` is not priced, and only a move that beats ``best`` is
        yielded and raises it. A set whose bound is at most ``best`` is
        counted in bulk, by ``count_in_bulk``; a lone mover's set whose
        partners are all sure to pass needs only u's exact bound and the
        partners' hi for that, and no partner sum.
        """
        eng = self.engine
        cap = self.budget.max_changes
        bit = {m: 1 << i for i, m in enumerate(movers)}
        full_cov = (1 << len(movers)) - 1
        removable = [e for e in self.gkey if e[0] in bit or e[1] in bit]
        if cap is not None and len(removable) + len(addable) > cap:
            self._note_skip(f"{who}: moves beyond {cap} changes")
        bounded = self.best is not None
        one = None
        if len(movers) == 1:
            u = movers[0]
            one, addable, hi, weak = self._live_additions(u, addable)
        elif len(addable) >= 2 and self._coalition_hopeless(movers, addable):
            return
        eset = self.eset
        rem_cov = [bit.get(a, 0) | bit.get(b, 0) for a, b in removable]
        # what the movers stop paying for each removed edge, once per mover
        # at it; removing them all sheds every mover's incident weight, the
        # removal term of their per-set bounds
        shed = [eng.p * eng.W[a][b] * c.bit_count() for (a, b), c in zip(removable, rem_cov)]
        shed_all = sum(shed)
        add_cov = [bit.get(a, 0) | bit.get(b, 0) for a, b in addable]

        def removal_sets(a_cov, n_adds):
            """(r_mask, removals, weight shed) of each removal set counted
            with an addition set of ``n_adds`` edges covering ``a_cov``."""
            for r_mask in range(1 << len(removable)):
                cov = a_cov
                rems = []
                shed_r = 0
                for i in range(len(removable)):
                    if r_mask >> i & 1:
                        cov |= rem_cov[i]
                        rems.append(removable[i])
                        shed_r += shed[i]
                if cov != full_cov:
                    continue  # empty, or an untouched mover: searched earlier
                if cap is not None and len(rems) + n_adds > cap:
                    continue
                yield r_mask, rems, shed_r

        per_set = {}  # (a_cov, additions if capped) -> moves counted per set

        def count_in_bulk(a_cov, n_adds):
            key = (a_cov, n_adds if cap is not None else 0)
            if key not in per_set:
                per_set[key] = sum(1 for _ in removal_sets(a_cov, n_adds))
            self._count_eval(per_set[key])

        a_mask, a_end = 0, 1 << len(addable)
        while a_mask < a_end:
            mask = a_mask
            a_mask += 1
            adds = []
            a_cov = 0
            for i in range(len(addable)):
                if mask >> i & 1:
                    adds.append(addable[i])
                    a_cov |= add_cov[i]
            if cap is not None and len(adds) > cap:
                a_mask = self._past_supersets(mask)
                continue
            # members, movers first: what each pays for its additions
            added_inc = dict.fromkeys(movers, 0)
            for a, b in adds:
                w = eng.W[a][b]
                added_inc[a] = added_inc.get(a, 0) + w
                added_inc[b] = added_inc.get(b, 0) + w
            # cheap affordability sum per member before any Dijkstra
            if any(
                inc and eng.p * inc >= self.spend_cap[m] for m, inc in added_inc.items()
            ):
                a_mask = self._past_supersets(mask)
                continue
            if one is None:
                plus_set = eset | set(adds)
                plus_sum = partial(eng.dist_sum, canonical_edges(plus_set))
            else:
                plus_sum = one.plus_sums(mask)
                if bounded and not mask & weak:
                    # every partner here passes; u's bound, exact, decides,
                    # and the partners' hi cap their share of the set bound
                    u_bound = self._gain_bound(u, plus_sum(u), added_inc[u], self.rem_inc[u])
                    if not self._bound_allows(u_bound):
                        continue
                    if self._counts_in_bulk(
                        u_bound + sum(h for i, h in enumerate(hi) if mask >> i & 1)
                    ):
                        count_in_bulk(a_cov, len(adds))
                        continue
            set_bound = self._set_bound(added_inc, plus_sum, bit)
            if set_bound is None:
                continue
            if bounded and self._counts_in_bulk(set_bound):
                count_in_bulk(a_cov, len(adds))
                continue
            for r_mask, rems, shed_r in removal_sets(a_cov, len(adds)):
                self._count_eval()
                if bounded and not self._may_beat_best(set_bound - shed_all + shed_r):
                    continue
                if one is not None:
                    gain = one.gain(added_inc, mask, r_mask)
                else:
                    gain = self._state_gain(canonical_edges(plus_set - set(rems)), added_inc)
                if gain is None:
                    continue
                if bounded:
                    if gain <= self.best:
                        continue
                    self.best = gain
                yield Move.make(added_inc, rems, adds, concept=concept), gain

    def _state_gain(self, key, members):
        """The members' total strict gain in ``key``'s network, priced on
        its engine state, or None unless every member strictly gains.
        Summed only past the strict test, so never ``inf - inf``."""
        gain = 0
        for m in members:
            cost = self.engine.member_cost(key, m)
            if cost >= self.base[m]:
                return None
            gain += self.base[m] - cost
        return gain

    def moves(self, concept):
        """Improving moves in canonical order, each as ``(move, gain)``:
        ``gain`` is the coalition's total strict improvement in scaled
        units, the sum over members of base cost less new cost, from the
        costs the search compared (``inf`` for a member whose base cost
        is). A cut budget ends the iteration early. With ``best`` set (bne
        and bse under ``largest_gain``), only the moves that beat every
        earlier one."""
        gen = {PS: self.ps_moves, BNE: self.bne_moves, BSE: self.bse_moves}[concept]
        try:
            yield from gen()
        except _BudgetStop:
            return


class _MoverPricing:
    """Prices the moves of one mover u from the rows of G and of G - u.

    Every such move changes only edges at u (additions to partners,
    removals of u's own edges), so the engine's ``mover_rows`` identities
    apply: G + A is G plus links at u, and G + A - R is G - u plus the
    links u keeps, to its unremoved neighbours and its partners. A move
    names A by ``a_mask``, a bit per pair of ``addable``, and R by
    ``r_mask``, a bit per neighbour in ``nbrs``. The bounds read G's rows,
    every move G - u's, and no move builds a state. G - u is an ordinary
    engine state, looked up on the first priced move, so the searches of
    one engine share its rows.
    """

    __slots__ = (
        "engine", "gkey", "rem_inc", "base", "base_dist", "u",
        "partner_of", "nbrs", "kept_all", "g", "h",
    )

    def __init__(self, search, u, addable):
        self.engine = search.engine
        self.gkey = search.gkey
        self.rem_inc, self.base, self.base_dist = search.rem_inc, search.base, search.base_dist
        self.u = u
        self.partner_of = [a if b == u else b for a, b in addable]  # per addition bit
        # u's neighbours by increasing index, as the sorted key lists its
        # edges: removal bit i drops the link to nbrs[i]
        self.nbrs = [y for y, _ in self.engine.state(self.gkey).adj[u]]
        self.kept_all = (1 << len(self.nbrs)) - 1
        self.g = None  # over G, links to the partners; built by the first bound
        self.h = None  # over G - u, links to nbrs then partners; by the first move

    def plus_sums(self, a_mask):
        """A function giving each member's distance sum in G + A, where A
        is the additions of ``a_mask``."""
        if not a_mask:  # G itself, and u the only member
            return self.base_dist.__getitem__
        u, g = self.u, self.g
        if g is None:
            g = self.g = self.engine.mover_rows(self.gkey, u, self.partner_of)
        ru = g.row(a_mask)
        return lambda m: sum(ru) if m == u else g.sum_through(m, ru)

    def gain(self, added_inc, a_mask, r_mask):
        """The members' total strict gain from G plus the additions of
        ``a_mask`` less the removals of ``r_mask``, or None unless every
        member (u, then the partners, the keys of ``added_inc``) strictly
        gains. A partner is priced only once u gains, and gains are summed
        only past the strict test, so never ``inf - inf``."""
        u, eng = self.u, self.engine
        links = (self.kept_all ^ r_mask) | a_mask << len(self.nbrs)
        if not links:
            return None  # u keeps no edge: it reaches no one, at cost inf
        h = self.h
        if h is None:
            minus_u = tuple(e for e in self.gkey if u not in e)
            h = self.h = eng.mover_rows(minus_u, u, self.nbrs + self.partner_of)
        base = self.base
        cost = h.member_cost(links)
        if cost >= base[u]:
            return None
        gain = base[u] - cost
        if len(added_inc) > 1:
            ru = h.row(links)
            for v, inc in added_inc.items():  # u, then the partners
                if v == u:
                    continue
                cost = eng.p * (self.rem_inc[v] + inc) + eng.q * h.sum_through(v, ru)
                if cost >= base[v]:
                    return None
                gain += base[v] - cost
        return gain


# -- ps refutation along the candidate walk -----------------------------------


def ps_prefilter(engine: CostEngine):
    """Root state and step for an ``optimum.connected_subgraphs`` walk
    that carries every node's exact distance rows and refutes pairwise
    stability from them, before any ``_Search`` is built.

    A node's state is ``(rows, sums, stretched, spend, refuted)``: its
    all-pairs distance rows (ints or ``inf``), their sums, the flag that
    some pair has ``q*d(x,y) > (p+q)*W(x,y)``, its edge spend, and
    ``_refutes_ps``'s answer for the node. The step adds the node's pair
    to its parent's rows by ``engine.rows_after_add`` and re-sums only
    the rows that changed. Distances only fall down the walk, so only a
    stretched node's child can be stretched, and it is tested again. The
    step never returns None, so the walk still reaches every subset.
    """
    n, q, W = engine.n, engine.q, engine.W
    pairs = _all_pairs(n)
    limits = [(x, y, (engine.p + q) * W[x][y]) for x, y in pairs]

    def is_stretched(rows):
        for x, y, limit in limits:
            if q * rows[x][y] > limit:
                return True
        return False

    rows = [[0 if y == x else INF for y in range(n)] for x in range(n)]
    root = (rows, [sum(r) for r in rows], is_stretched(rows), 0, False)

    def step(parent, j):
        rows, before, stretched, spend, _ = parent
        u, v = pairs[j]
        child = engine.rows_after_add(rows, u, v)
        after = [s if rx is old else sum(rx) for s, rx, old in zip(before, child, rows)]
        stretched = stretched and is_stretched(child)
        refuted = _refutes_ps(engine, u, v, before, after, stretched)
        return child, after, stretched, spend + W[u][v], refuted

    return root, step


def _refutes_ps(engine, u, v, before, after, stretched):
    """True only if the connected network S, reached by adding edge uv to
    S - uv, is not pairwise stable: some ps move strictly improves.

    ``before`` and ``after`` are the row sums of S - uv and of S, and
    ``stretched`` is S's stretch flag (see ``ps_prefilter``): some pair
    of S is stretched. Each test is the checker's own ps condition:

      * stretch: a pair x, y with ``q*d_S(x,y) > (p+q)*W(x,y)`` is not an
        edge (an edge has d_S <= W), and adding it saves each endpoint at
        least ``q*(d_S(x,y) - W(x,y)) > p*W(x,y)``, its price;
      * removal: an endpoint a of uv with
        ``q*(sum d_{S-uv}(a) - sum d_S(a)) < p*W(u,v)`` strictly gains by
        deleting uv. Tested only where a's sum before is finite, so
        ``inf - inf`` never occurs; an a it skips cannot gain, as the
        removal leaves it disconnected.
    """
    if stretched:
        return True
    price = engine.p * engine.W[u][v]
    return any(
        before[a] < INF and engine.q * (before[a] - after[a]) < price for a in (u, v)
    )


def _run_checker(inst, net, concept, budget, engine, largest_gain=False):
    """The one search of every checker and of both dynamics policies.

    The witness is the first improving move, or with ``largest_gain`` the
    first of those with the largest total gain, which walks the search to
    its end; bne and bse then price only the moves whose gain bound beats
    the best found so far (the module docstring's best-response bound).
    A move found is Unstable even if the budget cut the search short; no
    move with a cut is Inconclusive; otherwise Stable.
    """
    search = _Search(inst, net, budget, engine)
    if largest_gain and concept != PS:
        search.best = 0  # bne and bse yield only moves that beat every earlier one
    moves = search.moves(concept)
    if largest_gain:
        found = max(moves, key=lambda move_gain: move_gain[1], default=None)
    else:
        found = next(moves, None)
    if found is not None:
        return Verdict(
            status=UNSTABLE,
            witness=found[0],
            moves_evaluated=search.evaluated,
        )
    if search.frontier is not None:
        return Verdict(
            status=INCONCLUSIVE,
            moves_evaluated=search.evaluated,
            frontier=search.frontier,
        )
    return Verdict(status=STABLE, moves_evaluated=search.evaluated)


def is_pairwise_stable(inst: Instance, net: Network):
    """Exhaustive single-deletion / single-addition check; unbudgeted, so
    always conclusive. ``check(..., PS, budget=...)`` caps the same search."""
    return _run_checker(inst, net, PS, None, CostEngine(inst))


def is_bne(inst: Instance, net: Network, budget: Budget = None):
    return _run_checker(inst, net, BNE, budget, CostEngine(inst))


def is_bse(inst: Instance, net: Network, budget: Budget = None):
    return _run_checker(inst, net, BSE, budget, CostEngine(inst))


def check(inst: Instance, net: Network, concept: str, budget: Budget = None):
    require_concept(concept)
    return _run_checker(inst, net, concept, budget, CostEngine(inst))


def best_single_removal(inst: Instance, net: Network, u: int):
    """Cheapest single incident removal for u: (edge, exact cost delta),
    the minimum over u's single-removal moves.

    Returns None when u is isolated; the delta is infinite when every
    single removal disconnects u. Ties break toward the smallest edge.
    """
    _require_same_nodes(inst, net)
    if not 0 <= parse_int(u, "agent") < net.n:
        raise LabInputError(f"agent {u} outside nodes 0..{net.n - 1}")
    engine = CostEngine(inst)
    removals = (
        (e, _deltas(engine, net, Move.make((u,), removals=(e,)))[0][1])
        for e in sorted(e for e in net.edges if u in e)
    )
    return min(removals, key=lambda found: found[1], default=None)
