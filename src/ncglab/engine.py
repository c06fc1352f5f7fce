"""Internal cost evaluator used by the checkers and enumerators.

The engine multiplies all host weights by the lcm of their denominators
and alpha by its denominator, turning every cost comparison into integer
arithmetic: with alpha = p/q and weight scale L, the scaled cost of agent
u is  p * L*w(u, inc) + q * L*d(u, V)  and equals (q*L) times the real
cost, so all orderings are preserved and converting back to Fractions is
exact. Infinite distances stay ``math.inf`` and absorb sums/comparisons.
Strict improvement is plain ``new < old``: scaled costs are ints or
``inf``, so ``inf`` improves on nothing and any finite cost on ``inf``.

Memoized, and nothing else: per network state (keyed by canonical edge
tuple), each source's distance row and its sum, both computed the first
time they are read, because coalition enumeration revisits the same
candidate networks many times through different coalitions; per engine,
the full host's distance rows and their sums, which every dead-agent and
spend-cap bound reads. ``forget`` drops a state its caller will not read
again. A state's rows may also be filled from another state's:
``fill_after_remove`` fills the rows of a network minus one edge from the
network's own. Each cost method looks its state up once per
call. No public entry point takes an engine: each builds its own, so the
memo lives exactly as long as that one call.

Two one-edge kernels turn exact rows into exact rows. ``rows_after_add``
relaxes every row against an endpoint's old row. ``rows_after_remove``,
its decremental twin (after Ramalingam and Reps, J. Algorithms 1996),
runs one Dijkstra from an endpoint without the edge: if the other
endpoint is out of reach the edge was a bridge, and every row is the old
one with ``inf`` across the cut; otherwise only the sources whose
shortest paths may use the edge are run again. The plain second rule
alone re-runs almost every row of a near-tree network, where most edges
are bridges. Both kernels return each row they leave unchanged as the
same object, so its cached sum carries over: ``social_after_add`` and
``fill_after_remove`` reuse it.

A third kernel, ``mover_rows``, prices the networks that differ from one
network R only in links at one agent u (``_MoverRows``). A shortest path
from u leaves u once, through an edge of R or one link, so u's row is
the elementwise min of its row in R and each link's ``W(u,y) + d_R(y,.)``,
and any other node's row is its row in R or a path through u. The
stability search reads it with R = G for the addition bounds of a lone
mover and with R = G - u for each of its moves, a ps removal or pair
included, so no move of one agent builds a state or runs a Dijkstra of
its own.
"""

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

from .scalars import INF, is_inf


def canonical_edges(pairs) -> tuple:
    return tuple(sorted(pairs))


class _NetState:
    __slots__ = ("adj", "rows", "sums")

    def __init__(self, n, adj):
        self.adj = adj
        self.rows = [None] * n
        self.sums = [None] * n


class _MoverRows:
    """Agent u's distance rows and costs in the networks R + L, where R is
    one engine state's network and L a set of links at u, taken from a
    fixed list ``links`` and named by a bit mask over it.

    With non-negative weights a shortest path from u can be taken simple,
    so it leaves u once: its first step is an edge of R at u or one link
    uy, and the rest runs in R. Hence u's row in R + L is the elementwise
    min of u's row in R and, per link y, ``W(u,y) + d_R(y,.)``; zero
    weights change nothing, and a node no step reaches stays ``inf``. A
    path from another node v that uses a link passes through u, so v's
    row is ``min(d_R(v,.), d(v,u) + d(u,.))`` with u's row in R + L
    (``sum_through``). No Dijkstra runs on R + L: R's rows are read
    through ``_row``, so they fill R's memo and count as its runs.

    Each mask's row is one min of the mask less its lowest link with that
    link's shifted row, both kept, so masks that share links share work.
    """

    __slots__ = ("engine", "st", "u", "links", "w", "shifted", "alone", "memo")

    def __init__(self, engine, st, u, links):
        self.engine = engine
        self.st = st
        self.u = u
        self.links = links
        self.w = [engine.W[u][y] for y in links]
        self.shifted = [None] * len(links)  # W(u,y) + d_R(y,.), u's own entry 0
        # with no edge at u in R, u's row there is 0 at u and inf elsewhere,
        # and a single link's row is its shifted row
        self.alone = not st.adj[u]
        if self.alone:
            row = [INF] * engine.n
            row[u] = 0
        else:
            row = engine._row(st, u)
        self.memo = {0: (row, sum(w for _, w in st.adj[u]))}  # link mask -> u's row, spend

    def _linked(self, mask):
        got = self.memo.get(mask)
        if got is None:
            low = mask & -mask
            i = low.bit_length() - 1
            shifted = self.shifted[i]
            if shifted is None:
                u = self.u
                shifted = [self.w[i] + a for a in self.engine._row(self.st, self.links[i])]
                shifted[u] = 0
                self.shifted[i] = shifted
            rest = mask ^ low
            if rest or not self.alone:
                row, spend = self._linked(rest)
                got = (list(map(min, row, shifted)), spend + self.w[i])
            else:
                got = (shifted, self.w[i])
            self.memo[mask] = got
        return got

    def row(self, mask):
        """u's distance row in R plus the links of ``mask``."""
        return self._linked(mask)[0]

    def member_cost(self, mask):
        """u's scaled cost in R plus the links of ``mask``, as ``member_cost``."""
        row, spend = self._linked(mask)
        return self.engine.p * spend + self.engine.q * sum(row)

    def sum_through(self, v, ru):
        """v's distance sum in R plus some links, from u's row ``ru`` there."""
        c = ru[v]
        return sum(a if a <= c + b else c + b for a, b in zip(self.engine._row(self.st, v), ru))


class CostEngine:
    def __init__(self, inst):
        self.n = inst.n
        w = inst.host.weights
        scale = lcm(*(x.denominator for row in w for x in row))
        self.p = inst.alpha.numerator
        self.q = inst.alpha.denominator
        self.unit = self.q * scale
        self.W = [[x.numerator * (scale // x.denominator) for x in row] for row in w]
        self._states = {}
        self._host_sums = None

    # -- network state ----------------------------------------------------

    def state(self, key: tuple) -> _NetState:
        st = self._states.get(key)
        if st is None:
            adj = [[] for _ in range(self.n)]
            W = self.W
            for u, v in key:
                adj[u].append((v, W[u][v]))
                adj[v].append((u, W[u][v]))
            st = _NetState(self.n, adj)
            self._states[key] = st
        return st

    def forget(self, key: tuple):
        self._states.pop(key, None)

    def _dijkstra(self, adj, source):
        dist = [INF] * self.n
        dist[source] = 0
        heap = [(0, source)]
        pop, push = heappop, heappush
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
        return dist

    def _row(self, st: _NetState, u: int):
        r = st.rows[u]
        if r is None:
            r = st.rows[u] = self._dijkstra(st.adj, u)
        return r

    def _sum(self, st: _NetState, u: int):
        s = st.sums[u]
        if s is None:
            s = st.sums[u] = sum(self._row(st, u))
        return s

    def _filled(self, st: _NetState):
        """The state's ``rows`` and ``sums`` lists, every entry filled."""
        sums = st.sums
        for u in range(self.n):
            if sums[u] is None:
                sums[u] = sum(self._row(st, u))
        return st.rows, sums

    def row(self, key: tuple, u: int):
        return self._row(self.state(key), u)

    def dist_sum(self, key: tuple, u: int):
        return self._sum(self.state(key), u)

    # -- host lower bounds --------------------------------------------------

    def host_dist_sum(self, u: int):
        """Distance sum of u in the full host: a lower bound on any subgraph's."""
        if self._host_sums is None:
            n, W = self.n, self.W
            adj = [[(y, W[x][y]) for y in range(n) if y != x] for x in range(n)]
            self._host_sums = [sum(self._dijkstra(adj, x)) for x in range(n)]
        return self._host_sums[u]

    # -- costs (scaled) -----------------------------------------------------

    def incident_weight(self, key: tuple, u: int):
        st = self.state(key)
        return sum(w for _, w in st.adj[u])

    def member_cost(self, key: tuple, u: int):
        st = self.state(key)
        return self.p * sum(w for _, w in st.adj[u]) + self.q * self._sum(st, u)

    def social_cost(self, key: tuple):
        W = self.W
        st = self.state(key)
        edge_part = sum(W[u][v] for u, v in key)
        dist_part = sum(self._sum(st, u) for u in range(self.n))
        return 2 * self.p * edge_part + self.q * dist_part

    def to_cost(self, scaled):
        """Scaled value back to an exact Fraction (or inf)."""
        if is_inf(scaled):
            return INF
        return Fraction(scaled, self.unit)

    # -- incremental helpers ----------------------------------------------------

    def row_after_add(self, key: tuple, u: int, v: int):
        """Distance row of u in the network plus edge {u,v}.

        With a single new edge incident to u, any shortest path from u
        uses it at most once and only as the first step, so relaxing
        against v's old row is exact. Does not materialize the new state.
        """
        st = self.state(key)
        ru = self._row(st, u)
        rv = self._row(st, v)
        w = self.W[u][v]
        return [a if a <= w + b else w + b for a, b in zip(ru, rv)]

    def mover_rows(self, key: tuple, u: int, links) -> _MoverRows:
        """u's rows in ``key``'s network plus subsets of the links from u
        to ``links`` (``_MoverRows``)."""
        return _MoverRows(self, self.state(key), u, links)

    def rows_after_add(self, rows, u, v):
        """All distance rows after adding edge {u,v} of weight w, from the
        exact rows before it (ints or ``inf``).

        A shortest path from x in the new network uses the new edge at
        most once, as x...u->v or as x...v->u. The first can shorten
        x's row only if d(x,u) + w < d(x,v): otherwise every path through
        u->v is no shorter than the old path to v continued the same way.
        Likewise the second needs d(x,v) + w < d(x,u). The two conditions
        exclude each other (adding them gives 2w < 0), so a changed row
        takes one ``min(d, d(x,u) + w + d(v,.))`` pass against v's old
        row, or the mirror pass against u's. Every other row is returned
        as the same list object, unchanged and uncopied, so callers can
        tell the changed rows by identity. Rows are picked by comparison
        only, so ``inf`` stays exact: a source that reaches neither
        endpoint fails both tests.
        """
        w = self.W[u][v]
        ru = rows[u]
        rv = rows[v]
        out = []
        for rx in rows:
            via_u = rx[u] + w
            if via_u < rx[v]:
                rx = [a if a <= via_u + b else via_u + b for a, b in zip(rx, rv)]
            else:
                via_v = rx[v] + w
                if via_v < rx[u]:
                    rx = [a if a <= via_v + b else via_v + b for a, b in zip(rx, ru)]
            out.append(rx)
        return out

    def social_after_add(self, key: tuple, u: int, v: int, spend):
        """Social cost of the network plus edge {u,v}, by ``rows_after_add``
        from the network's rows; each unchanged row keeps its cached sum.
        ``spend`` is the network's total edge weight."""
        rows, sums = self._filled(self.state(key))
        dist_part = 0
        for rx, old, s in zip(self.rows_after_add(rows, u, v), rows, sums):
            dist_part += s if rx is old else sum(rx)
        return 2 * self.p * (spend + self.W[u][v]) + self.q * dist_part

    def rows_after_remove(self, rows, adj, u, v):
        """All distance rows after removing edge {u,v} of weight w, from the
        exact rows before it; ``adj`` is the adjacency without the edge.

        One Dijkstra run from u over ``adj`` decides between two rules.

        Bridge rule: v is out of u's reach, so uv was the only link
        between u's side (where u's new row is finite) and v's side (the
        rest of their old component). A path between two nodes of one
        side that used uv would have to cross the cut twice, over the one
        edge uv, so it is no simple path: every distance within a side
        stays, and the new row of a node on either side is its old row
        with ``inf`` on the other side. No other Dijkstra runs.

        Affected-row rule: otherwise only a source x with a shortest path
        through uv can change, and such a path reaches u or v first, so
        ``d(x,v) == d(x,u) + w`` or ``d(x,u) == d(x,v) + w``. Those rows
        are run again over ``adj`` (u's is the one already run); a source
        that reaches neither endpoint keeps its row. Every row that no
        rule changes is returned as the same list object, as in
        ``rows_after_add``.
        """
        ru = self._dijkstra(adj, u)
        if ru[v] == INF:
            old = rows[u]
            near = [a != INF for a in ru]
            far = [a != INF and not c for a, c in zip(old, near)]
            out = []
            for x, rx in enumerate(rows):
                if rx[u] != INF:
                    cut = far if near[x] else near
                    rx = [INF if c else a for a, c in zip(rx, cut)]
                out.append(rx)
            return out
        w = self.W[u][v]
        out = []
        for x, rx in enumerate(rows):
            du, dv = rx[u], rx[v]
            if du != INF and (dv == du + w or du == dv + w):
                rx = ru if x == u else self._dijkstra(adj, x)
            out.append(rx)
        return out

    def fill_after_remove(self, key: tuple, smaller: tuple, u: int, v: int):
        """Distance rows of ``smaller``, the network minus edge {u,v}, by
        ``rows_after_remove`` from the network's rows. They fill the smaller
        state's empty rows, and each row the removal leaves unchanged
        keeps the network's cached sum."""
        st = self.state(smaller)
        if None not in st.rows:
            return st.rows
        rows, sums = self._filled(self.state(key))
        new = self.rows_after_remove(rows, st.adj, u, v)
        for x, rx in enumerate(new):
            if st.rows[x] is None:
                st.rows[x] = rx
                if rx is rows[x]:
                    st.sums[x] = sums[x]
        return new
