"""The engine's one-edge add and removal kernels against pricing the
changed network afresh, and the engine's absence from the public
signatures."""

import inspect
import random
from fractions import Fraction as F

import ncglab as L
from ncglab.engine import CostEngine, canonical_edges
from ncglab.scalars import is_inf

ALPHAS = (F(1, 4), F(1), F(2), F(7))


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def instances():
    for n in range(2, 9):
        for model in L.MODELS:
            for k, alpha in enumerate(ALPHAS):
                yield L.random_instance(n, model, 10 * n + k, alpha)
    for n in range(3, 9):
        for alpha in ALPHAS:
            yield L.generate("zero_cluster", n, alpha).instance


def keys(n, rng):
    """Seeded edge sets from empty to complete, many of them disconnected."""
    pairs = all_pairs(n)
    yield ()
    for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        yield canonical_edges(e for e in pairs if rng.random() < density)
    yield canonical_edges(pairs[:-1])  # complete but for one pair
    yield canonical_edges(pairs)  # complete: no pair left to add


class TestAddKernels:
    def test_match_the_network_with_the_edge(self):
        rng = random.Random(8)
        checked = disconnected = zero_links = 0
        for inst in instances():
            engine = CostEngine(inst)
            zero_links += any(engine.W[u][v] == 0 for u, v in all_pairs(inst.n))
            for key in keys(inst.n, rng):
                disconnected += is_inf(engine.social_cost(key))
                for u, v in all_pairs(inst.n):
                    if (u, v) in key:
                        continue
                    bigger = canonical_edges(key + ((u, v),))
                    spend = sum(engine.W[a][b] for a, b in key)
                    assert engine.social_after_add(key, u, v, spend) == engine.social_cost(bigger)
                    assert engine.row_after_add(key, u, v) == engine.row(bigger, u)
                    assert engine.row_after_add(key, v, u) == engine.row(bigger, v)
                    checked += 1
        assert checked > 7_000
        assert disconnected > 400
        assert zero_links >= 24


class TestRemoveKernel:
    def test_matches_the_network_without_the_edge(self, monkeypatch):
        runs = []
        dijkstra = CostEngine._dijkstra

        def counted(self, adj, source):
            runs.append(source)
            return dijkstra(self, adj, source)

        monkeypatch.setattr(CostEngine, "_dijkstra", counted)
        rng = random.Random(8)
        checked = bridges = split_keys = zero_links = kept = 0
        for inst in instances():
            n = inst.n
            engine = CostEngine(inst)
            seeded = CostEngine(inst)
            for key in keys(n, rng):
                rows = [engine.row(key, x) for x in range(n)]
                connected = not is_inf(engine.social_cost(key))
                for u, v in key:
                    w = engine.W[u][v]
                    smaller = tuple(e for e in key if e != (u, v))
                    runs.clear()
                    out = engine.rows_after_remove(rows, engine.state(smaller).adj, u, v)
                    ran = len(runs)
                    assert out == [engine.row(smaller, x) for x in range(n)]
                    # a row from which no shortest path uses uv comes back as
                    # the same object; so does a row that reaches neither end
                    for rx, new in zip(rows, out):
                        if is_inf(rx[u]) or (rx[v] < rx[u] + w and rx[u] < rx[v] + w):
                            assert new is rx
                            kept += 1
                    if is_inf(out[u][v]):
                        assert ran == 1  # the bridge rule runs u's row only
                        bridges += 1
                    elif not connected:
                        split_keys += 1
                    zero_links += w == 0
                    seeded.fill_after_remove(key, smaller, u, v)
                    assert seeded.social_cost(smaller) == engine.social_cost(smaller)
                    checked += 1
        assert checked > 8_000
        assert bridges > 900
        assert split_keys > 200
        assert zero_links > 1_000
        assert kept > 20_000


class TestMoverKernel:
    def test_rows_with_links_at_one_agent_match_fresh_states(self, monkeypatch):
        # R = G with links to u's non-neighbours prices G + A; R = G - u with
        # links to any other nodes prices every move of u alone
        runs = []
        dijkstra = CostEngine._dijkstra

        def recorded(self, adj, source):
            runs.append(adj)
            return dijkstra(self, adj, source)

        rng = random.Random(8)
        checked = infinite = zero_links = 0
        for inst in instances():
            n = inst.n
            if n > 6:
                continue
            engine = CostEngine(inst)
            for key in keys(n, rng):
                for u in range(n):
                    nbrs = [a if b == u else b for a, b in key if u in (a, b)]
                    others = [v for v in range(n) if v != u and v not in nbrs]
                    minus_u = tuple(e for e in key if u not in e)
                    for base, links in ((key, others), (minus_u, nbrs + others)):
                        monkeypatch.setattr(CostEngine, "_dijkstra", recorded)
                        rows = engine.mover_rows(base, u, links)
                        got = []
                        for mask in range(1 << len(links)):
                            ru = rows.row(mask)
                            sums = [rows.sum_through(v, ru) for v in range(n) if v != u]
                            got.append((ru, rows.member_cost(mask), sums))
                        monkeypatch.setattr(CostEngine, "_dijkstra", dijkstra)
                        # every Dijkstra the kernel ran was one of R's rows
                        assert all(adj is engine.state(base).adj for adj in runs)
                        runs.clear()
                        for mask, (ru, cost, sums) in enumerate(got):
                            linked = [y for i, y in enumerate(links) if mask >> i & 1]
                            net = canonical_edges(base + tuple((min(u, y), max(u, y)) for y in linked))
                            assert ru == engine.row(net, u)
                            assert cost == engine.member_cost(net, u)
                            assert sums == [engine.dist_sum(net, v) for v in range(n) if v != u]
                            infinite += is_inf(cost)
                            zero_links += any(engine.W[u][y] == 0 for y in linked)
                            checked += 1
        assert checked > 80_000
        assert infinite > 30_000
        assert zero_links > 12_000


def test_no_public_call_takes_an_engine():
    # an engine holds one instance's weights and alpha; handed to a call on
    # another instance it gave that instance's answers, so each call builds
    # its own
    for name in L.__all__:
        obj = getattr(L, name)
        if callable(obj) and not isinstance(obj, type):
            assert "engine" not in inspect.signature(obj).parameters, name
