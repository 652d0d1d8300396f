"""Per-layer tracing for the traced run, installed from outside the program.

Wrappers replace the public functions of lefttail's layers in every
lefttail module that bound them (``cli`` and ``oracles`` import
``finite_n_bound`` by name, for instance), so calls between layers are
seen too.  Coarse calls (an operation, a search, one inequality claim, a
CLI subcommand) record a span with its parent; scalar kernels, called
tens of thousands of times a round, only add to a call count and a time
total, which keeps the trace small.  Spans stay in memory and are written out at the end.

End-to-end numbers never come from a traced run: the wrappers cost time
(about a microsecond per kernel call), and the README records how much.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import subprocess
import sys
import time
import tracemalloc

from checks import CLAIMS

BOUND_KERNELS = ("finite_n_bound", "limit_bound", "exponential_bound", "hoeffding_bound", "bentkus_bound")
SUBCOMMANDS = ("bound", "compare", "verify", "solve-r")

#: Every per-layer metric with its unit, in the order BENCHMARK.json lists
#: them.  Counts are per round; times are per call, point or sample.
PER_LAYER = (
    *((f"bounds.{k}.us_per_call", "us") for k in BOUND_KERNELS),
    ("bounds.calls", "count"),
    ("bounds.solve_decay_rate.calls", "count"),
    *((f"inequalities.{c}.{m}", u) for c in CLAIMS for m, u in (("ns_per_point", "ns"), ("points", "count"))),
    ("oracles.maximize_bernoulli_tail.s", "s"),
    ("oracles.maximize_bernoulli_tail.points", "count"),
    ("oracles.maximize_bernoulli_tail.peak_traced_mb", "MB"),
    ("oracles.bernoulli_tail.calls", "count"),
    ("oracles.bernoulli_tail.us_per_call", "us"),
    ("oracles.maximize_two_point.s", "s"),
    ("oracles.maximize_two_point.points", "count"),
    ("oracles.maximize_two_point.ns_per_point", "ns"),
    ("oracles.monte_carlo_tail.ns_per_sample", "ns"),
    ("oracles.monte_carlo_tail.peak_traced_mb", "MB"),
    ("oracles.two_point_tail.ns_per_outcome", "ns"),
    ("extremal.verify_tightness.us_per_call", "us"),
    ("cli.import_ms", "ms"),
    *((f"cli.main.{s}.ms", "ms") for s in SUBCOMMANDS),
)


class Tracer:
    """Spans, call counts, time totals, work counts and memory peaks.

    ``memory`` turns on tracemalloc around the calls that allocate the
    most; it is set only for a warm-up round whose timings are discarded,
    because tracemalloc slows every allocation.
    """

    def __init__(self) -> None:
        self.memory = False
        self.peaks: dict[str, int] = {}
        self.patched: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.work: dict[str, int] = {}

    def _add(self, name: str, ns: int) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.ns[name] = self.ns.get(name, 0) + ns

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        record = [name, time.perf_counter_ns(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        track = memory and self.memory
        if track:
            tracemalloc.start()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
            self._add(name, record[2] - record[1])
            if track:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, time.perf_counter_ns() - t0)

        return wrapper

    def spanned(self, name, fn, work_of=None, memory: bool = False):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments, and ``work_of(out, *args)`` counts the work done."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name, memory):
                out = fn(*args, **kwargs)
            if work_of is not None:
                self.work[span_name] = self.work.get(span_name, 0) + work_of(out, *args, **kwargs)
            return out

        return wrapper

    def install(self) -> None:
        """Replace each traced function in every lefttail module that holds it."""
        import lefttail.bounds as bounds
        import lefttail.cli as cli
        import lefttail.extremal as extremal
        import lefttail.inequalities as inequalities
        import lefttail.oracles as oracles

        wrappers = {}
        for k in (*BOUND_KERNELS, "solve_decay_rate"):
            wrappers[getattr(bounds, k)] = self.leaf(f"bounds.{k}", getattr(bounds, k))
        wrappers[oracles.bernoulli_tail] = self.leaf("oracles.bernoulli_tail", oracles.bernoulli_tail)
        wrappers[extremal.verify_tightness] = self.leaf("extremal.verify_tightness", extremal.verify_tightness)
        wrappers[oracles.maximize_bernoulli_tail] = self.spanned(
            "oracles.maximize_bernoulli_tail",
            oracles.maximize_bernoulli_tail,
            lambda out, *a, **k: out.points_evaluated,
            memory=True,
        )
        wrappers[oracles.maximize_two_point] = self.spanned(
            "oracles.maximize_two_point", oracles.maximize_two_point, lambda out, *a, **k: out.points_evaluated
        )
        wrappers[oracles.monte_carlo_tail] = self.spanned(
            "oracles.monte_carlo_tail",
            oracles.monte_carlo_tail,
            lambda out, specs, trials, seed: trials * len(specs),
            memory=True,
        )
        wrappers[oracles.two_point_tail] = self.spanned(
            "oracles.two_point_tail", oracles.two_point_tail, lambda out, summands: 2 ** len(summands)
        )
        wrappers[inequalities.run_grid_check] = self.spanned(
            lambda claim, *a, **k: f"inequalities.{claim}",
            inequalities.run_grid_check,
            lambda out, *a, **k: out.points_checked,
        )
        wrappers[cli.main] = self.spanned(lambda argv, *a, **k: f"cli.main.{argv[0]}", cli.main)

        by_id = {id(f): w for f, w in wrappers.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "lefttail" and not modname.startswith("lefttail."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    setattr(module, attr, by_id[id(value)])
                    self.patched.append(f"{modname}.{attr}")

    def metrics(self, rounds: int, import_ms: float) -> dict:
        """Per-layer metrics; a layer the workload never ran reads 0."""
        calls, ns, work = self.calls, self.ns, self.work

        def per_call(name: str, unit_ns: float) -> float:
            return ns.get(name, 0) / calls[name] / unit_ns if calls.get(name) else 0.0

        def per_work(name: str) -> float:
            return ns.get(name, 0) / work[name] if work.get(name) else 0.0

        values = {f"bounds.{k}.us_per_call": per_call(f"bounds.{k}", 1e3) for k in BOUND_KERNELS}
        values["bounds.calls"] = sum(calls.get(f"bounds.{k}", 0) for k in BOUND_KERNELS) / rounds
        values["bounds.solve_decay_rate.calls"] = calls.get("bounds.solve_decay_rate", 0) / rounds
        for c in CLAIMS:
            values[f"inequalities.{c}.ns_per_point"] = per_work(f"inequalities.{c}")
            values[f"inequalities.{c}.points"] = work.get(f"inequalities.{c}", 0) / rounds
        for name in ("oracles.maximize_bernoulli_tail", "oracles.maximize_two_point"):
            values[f"{name}.s"] = per_call(name, 1e9)
            values[f"{name}.points"] = work.get(name, 0) / rounds
        values["oracles.maximize_bernoulli_tail.peak_traced_mb"] = self.peaks.get("oracles.maximize_bernoulli_tail", 0) / 2**20
        values["oracles.bernoulli_tail.calls"] = calls.get("oracles.bernoulli_tail", 0) / rounds
        values["oracles.bernoulli_tail.us_per_call"] = per_call("oracles.bernoulli_tail", 1e3)
        values["oracles.maximize_two_point.ns_per_point"] = per_work("oracles.maximize_two_point")
        values["oracles.monte_carlo_tail.ns_per_sample"] = per_work("oracles.monte_carlo_tail")
        values["oracles.monte_carlo_tail.peak_traced_mb"] = self.peaks.get("oracles.monte_carlo_tail", 0) / 2**20
        values["oracles.two_point_tail.ns_per_outcome"] = per_work("oracles.two_point_tail")
        values["extremal.verify_tightness.us_per_call"] = per_call("extremal.verify_tightness", 1e3)
        values["cli.import_ms"] = import_ms
        for s in SUBCOMMANDS:
            values[f"cli.main.{s}.ms"] = per_call(f"cli.main.{s}", 1e6)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def summary(self) -> dict:
        """Spans plus, per name, calls, total and self time (seconds)."""
        self_ns = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_ns):
            self_ns[name] = self_ns.get(name, 0) + (end - start) - children
        return {
            "patched": self.patched,
            "layers": {
                # a name without spans is a leaf: all of its time is its own
                name: {
                    "calls": self.calls[name],
                    "total_s": self.ns[name] / 1e9,
                    "self_s": self_ns.get(name, self.ns[name]) / 1e9,
                }
                for name in sorted(self.calls)
            },
            "work": self.work,
            "peak_traced_bytes": self.peaks,
            "spans": self.spans,
        }


def import_ms(probes: int = 5) -> float:
    """Median time for a fresh interpreter to import lefttail.cli, minus a
    bare interpreter's, in ms.  Probes alternate so drift hits both."""

    def timed(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return time.perf_counter() - t0

    bare, loaded = [], []
    for _ in range(probes):
        bare.append(timed("pass"))
        loaded.append(timed("import lefttail.cli"))
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3
