"""Traced mode: wraps ncglab's cross-module call sites from outside.

``Tracer.install`` replaces functions and methods with wrappers; the
library's source is never changed. Two kinds of wrapper exist:

  * spans, around the coarse boundaries between modules (enumeration,
    checker runs, ``_Search`` setup, optima, dynamics, model reports).
    Each span records its id, its parent's id, its name, start and end,
    and the time spent in engine or model-kernel calls made directly
    inside it. Spans stay in memory and are written out at the end.
  * counters, around the hot engine methods and the two Dijkstra
    kernels, which run up to millions of times per call. They count
    every call and time only the outermost one, so that the traced run
    stays within a few times the untraced one.

A span's self time is its duration minus its child spans and minus the
kernel time made directly inside it.

A function that other modules imported by name is replaced under every
name that refers to it in the package, so the wrapper runs whichever
module makes the call.
"""

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import ncglab
from ncglab import engine as engine_mod
from ncglab import stability

# Engine methods counted per call; ``state`` and ``_dijkstra`` are
# handled on their own below.
ENGINE_COUNTED = (
    "member_cost",
    "dist_sum",
    "incident_weight",
    "host_dist_sum",
    "social_cost",
    "social_after_add",
    "row",
    "row_after_add",
)

# Every per-layer metric, with its unit.
LAYER_METRICS = {
    "engine.dijkstra.calls": "count",
    "engine.dijkstra.self_s": "s",
    "engine.state.calls": "count",
    "engine.state.built": "count",
    "engine.state.hit_ratio": "ratio",
    "engine.cache.states_max": "count",
    "engine.member_cost.calls": "count",
    "engine.dist_sum.calls": "count",
    "engine.incident_weight.calls": "count",
    "engine.host_dist_sum.calls": "count",
    "engine.social_cost.calls": "count",
    "engine.social_after_add.calls": "count",
    "engine.self_s": "s",
    "stability.search_setup.calls": "count",
    "stability.search_setup.s": "s",
    "stability.check_s.ps": "s",
    "stability.check_s.bne": "s",
    "stability.check_s.bse": "s",
    "stability.check.calls": "count",
    "stability.unstable_ratio": "ratio",
    "stability.moves_evaluated": "count",
    "stability.move_deltas.calls": "count",
    "stability.move_deltas.s": "s",
    "harness.enumerate.s": "s",
    "harness.walk_self_s": "s",
    "harness.candidates": "count",
    "harness.checks_per_candidate": "ratio",
    "optimum.brute_force.self_s": "s",
    "optimum.eval_ratio": "ratio",
    "optimum.heuristic.s": "s",
    "model.dijkstra.calls": "count",
    "model.dijkstra.s": "s",
    "model.cost_report.calls": "count",
    "model.spanner_stretch.calls": "count",
    "dynamics.steps": "count",
    "dynamics.find_move.calls": "count",
    "dynamics.find_move.s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, kernel time inside)
        self.counts = Counter()
        self.times = defaultdict(float)
        self._stack = []  # open spans: [id, kernel time inside]
        self._next_id = 0
        self._depth = 0  # > 0 while inside a counted kernel call
        self._engines = []  # engines built during the current root call
        self._undo = []
        self._t0 = perf_counter()

    # -- installing ------------------------------------------------------------

    def _replace_function(self, module, attr, wrapped_of):
        original = getattr(module, attr)
        wrapped = wrapped_of(original)
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "ncglab"]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def _replace_method(self, cls, attr, wrapped_of):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped_of(original))

    def install(self):
        fn, span = self._replace_function, self._span
        h, o, d, m = ncglab.harness, ncglab.optimum, ncglab.dynamics, ncglab.model
        fn(h, "enumerate_stable", span("harness.enumerate", after=self._after_enumerate))
        # every checker entry point (check, is_bse, ...) goes through _run_checker
        fn(stability, "_run_checker", span(self._check_name, after=self._after_check))
        fn(stability, "move_deltas", span("stability.move_deltas"))
        self._replace_method(stability._Search, "__init__", span("stability.search_setup"))
        fn(o, "brute_force_opt", span("optimum.brute_force", self._before_opt, self._after_opt))
        fn(o, "heuristic_opt", span("optimum.heuristic"))
        fn(d, "run_dynamics", span("dynamics.run", after=self._after_dynamics))
        fn(d, "find_improving_move", span("dynamics.find_move"))
        fn(m, "cost_report", span("model.cost_report"))
        fn(m, "spanner_stretch", span("model.spanner_stretch"))
        fn(m, "_dijkstra", self._kernel("model.dijkstra", "model.dijkstra.s"))
        cls, engine_s = engine_mod.CostEngine, "engine.self_s"
        self._replace_method(cls, "__init__", self._register_engine)
        self._replace_method(cls, "state", self._kernel("engine.state", engine_s, built=True))
        self._replace_method(cls, "_dijkstra", self._kernel("engine.dijkstra", engine_s, leaf=True))
        for name in ENGINE_COUNTED:
            self._replace_method(cls, name, self._kernel(f"engine.{name}", engine_s))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name, before=None, after=None):
        def wrapped_of(original):
            def wrapper(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = self._stack[-1][0] if self._stack else None
                frame = [sid, 0.0]
                token = before(args, kwargs) if before else None
                self._stack.append(frame)
                start = perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    label = name(args) if callable(name) else name
                    self.spans.append((sid, parent, label, start, end, frame[1]))
                if after:
                    after(args, out, token)
                return out

            return wrapper

        return wrapped_of

    def _kernel(self, name, layer_key, leaf=False, built=False):
        """Count every call; time the outermost one (and every leaf call)."""
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"
        counts, times = self.counts, self.times

        def wrapped_of(original):
            def wrapper(*args, **kwargs):
                counts[calls_key] += 1
                if built and args[1] not in args[0]._states:
                    counts["engine.state.built"] += 1
                outer = not self._depth
                if not (outer or leaf):
                    return original(*args, **kwargs)
                self._depth += 1
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = perf_counter() - start
                    self._depth -= 1
                    if leaf:
                        times[self_key] += dt
                    if outer:
                        times[layer_key] += dt
                        if self._stack:
                            self._stack[-1][1] += dt

            return wrapper

        return wrapped_of

    def _register_engine(self, original):
        def wrapper(eng, *args, **kwargs):
            original(eng, *args, **kwargs)
            self._engines.append(eng)

        return wrapper

    @staticmethod
    def _check_name(args):
        return f"stability.check.{args[2]}"

    def _after_check(self, args, verdict, token):
        self.counts["stability.unstable"] += verdict.unstable
        self.counts["stability.moves_evaluated"] += verdict.moves_evaluated

    def _after_enumerate(self, args, result, token):
        self.counts["harness.candidates"] += result.checked

    def _before_opt(self, args, kwargs):
        return self.counts["engine.social_cost.calls"]

    def _after_opt(self, args, result, social_before):
        n = args[0].n
        self.counts["optimum.masks"] += 1 << (n * (n - 1) // 2)
        self.counts["optimum.evals"] += self.counts["engine.social_cost.calls"] - social_before

    def _after_dynamics(self, args, trace, token):
        self.counts["dynamics.steps"] += len(trace.steps)

    # -- root calls ----------------------------------------------------------------

    @contextmanager
    def root(self, kind):
        """Span one public call made by the benchmark; track its engines."""
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, None, f"call.{kind}", start, end, frame[1]))
            sizes = [len(eng._states) for eng in self._engines]
            self.counts["engine.cache.states_max"] = max(
                [self.counts["engine.cache.states_max"], *sizes]
            )
            self._engines.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric except ``trace.overhead_ratio``."""
        counts, times = self.counts, self.times
        child = defaultdict(float)
        for sid, parent, name, start, end, kernel in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = Counter()  # inclusive seconds per span name
        calls = Counter()
        self_s = Counter()
        enumerate_ids = set()
        checks_in_enumerate = 0
        for sid, parent, name, start, end, kernel in self.spans:
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child[sid] - kernel
            if name == "harness.enumerate":
                enumerate_ids.add(sid)
        for sid, parent, name, *_ in self.spans:
            if name.startswith("stability.check.") and parent in enumerate_ids:
                checks_in_enumerate += 1
        checks = sum(calls[f"stability.check.{c}"] for c in ncglab.CONCEPTS)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "engine.state.hit_ratio": ratio(
                counts["engine.state.calls"] - counts["engine.state.built"],
                counts["engine.state.calls"],
            ),
            "stability.search_setup.calls": calls["stability.search_setup"],
            "stability.search_setup.s": total["stability.search_setup"],
            "stability.check.calls": checks,
            "stability.unstable_ratio": ratio(counts["stability.unstable"], checks),
            "stability.move_deltas.calls": calls["stability.move_deltas"],
            "stability.move_deltas.s": total["stability.move_deltas"],
            "harness.enumerate.s": total["harness.enumerate"],
            "harness.walk_self_s": self_s["harness.enumerate"],
            "harness.checks_per_candidate": ratio(
                checks_in_enumerate, counts["harness.candidates"]
            ),
            "optimum.brute_force.self_s": self_s["optimum.brute_force"],
            "optimum.eval_ratio": ratio(counts["optimum.evals"], counts["optimum.masks"]),
            "optimum.heuristic.s": total["optimum.heuristic"],
            "model.dijkstra.s": times["model.dijkstra.s"],
            "model.cost_report.calls": calls["model.cost_report"],
            "model.spanner_stretch.calls": calls["model.spanner_stretch"],
            "dynamics.find_move.calls": calls["dynamics.find_move"],
            "dynamics.find_move.s": total["dynamics.find_move"],
        }
        for concept in ncglab.CONCEPTS:
            out[f"stability.check_s.{concept}"] = total[f"stability.check.{concept}"]
        for name in LAYER_METRICS:
            if name not in out and name != "trace.overhead_ratio":
                out[name] = times[name] if name.endswith("_s") else counts[name]
        return out

    def write_spans(self, path):
        """Spans as tab-separated lines: id, parent, name, start, end, kernel s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\tkernel_s\n")
            for sid, parent, name, start, end, kernel in self.spans:
                f.write(
                    f"{sid}\t{'' if parent is None else parent}\t{name}\t"
                    f"{start - self._t0:.6f}\t{end - self._t0:.6f}\t{kernel:.6f}\n"
                )
