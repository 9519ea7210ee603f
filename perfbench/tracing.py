"""Spans and counters around the public entry points of each mlmckit module.

The tracer wraps functions and methods from the benchmark's side, by
replacing module attributes and class methods for the duration of a
``with tracer.installed():`` block and restoring them afterwards.  Nothing
inside ``src/`` knows it is being traced.  A name is patched where it is
looked up: ``executor.counter_seeds`` rather than ``_bits.counter_seeds``,
because the executor imported the name.

Spans are kept in memory and written out once, at the end of a traced run
(:meth:`Tracer.write`).  A span opened on a worker thread with no open
span of its own is a child of the innermost span open on the main thread,
so the executor's thread pool still nests under ``executor.run_mlmc``.
"""

import contextlib
import json
import os
import threading
import time
from collections import Counter, defaultdict

LEVELS = range(1, 8)  # every level any workload runs (S3 on TwoScale reaches 7)

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [
        ("bits.counter_seeds.calls", "count"),
        ("bits.counter_seeds.s", "s"),
        ("bits.normal_lanes.calls", "count"),
        ("bits.normal_lanes.s", "s"),
        ("bits.normal_lanes.normals", "count"),
        ("bits.normal_lanes.ns_per_normal", "ns"),
    ]
    + [
        (f"models.{name}.l{n}", unit)
        for n in LEVELS
        for name, unit in (
            ("solves", "count"),
            ("evaluate_many.calls", "count"),
            ("evaluate_many.s", "s"),
            ("s_per_solve", "s"),
            ("cost_ratio", "ratio"),
        )
    ]
    + [
        ("executor.pilot.s", "s"),
        ("executor.run_mlmc.s", "s"),
        ("executor.run_mlmc.self_s", "s"),
        ("executor.run_classical_mc.s", "s"),
        ("executor.run_classical_mc.self_s", "s"),
        ("stats.values", "count"),
        ("stats.mc_mean.calls", "count"),
        ("stats.mc_mean.s", "s"),
        ("stats.unbiased_variance.calls", "count"),
        ("stats.unbiased_variance.s", "s"),
        ("planner.plan.s", "s"),
        ("planner.L", "count"),
        ("planner.M_L", "count"),
        ("planner.relative_load", "solves"),
        ("planner.load_ratio", "ratio"),
        ("cli.pilot.s", "s"),
        ("cli.run.s", "s"),
        ("cli.report.s", "s"),
        ("cli.json.bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Records spans ``(id, name, start, end, parent)`` and named counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.mlmc_plan = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, *args)`` may add counters."""
        if callable(name):
            name_of = name
        else:
            def name_of(*args, **kwargs):
                return name

        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                parent = stack[-1] if stack else (
                    self._main_stack[-1] if self._main_stack else None
                )
                span_id = len(self.spans)
                self.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans[span_id] = (span_id, name_of(*args, **kwargs), start, end, parent)
            if after is not None:
                with self._lock:
                    after(result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point; restore the originals on exit."""
        from mlmckit import cli, executor, models, planner

        count = self.counts

        def normals(result, *args, **kwargs):
            count["bits.normal_lanes.normals"] += result.size

        def solves(result, model, level, seeds):
            count[f"models.solves.l{level}"] += len(seeds)

        def values(result, vals):
            count["stats.values"] += len(vals)

        def json_bytes(result, path, obj):
            count["cli.json.bytes"] += os.path.getsize(path)

        def keep_plan(plan, *args, **kwargs):
            if plan.strategy.value != "ClassicalMC":
                self.mlmc_plan = plan

        def per_level(model, level, seeds):
            return f"models.evaluate_many.l{level}"

        fns = [
            (executor, "counter_seeds", "bits.counter_seeds", None),
            (models, "normal_lanes", "bits.normal_lanes", normals),
            (executor, "mc_mean", "stats.mc_mean", values),
            (executor, "unbiased_variance", "stats.unbiased_variance", None),
            (planner, "plan_for_strategy", "planner.plan", keep_plan),
            (cli, "plan_for_strategy", "planner.plan", keep_plan),
            (cli, "cmd_pilot", "cli.pilot", None),
            (cli, "cmd_run", "cli.run", None),
            (cli, "cmd_report", "cli.report", None),
            (cli, "_write_json", "cli.json", json_bytes),
        ]
        for mod in (executor, cli):
            fns += [
                (mod, "pilot_estimate_parameters", "executor.pilot", None),
                (mod, "run_mlmc", "executor.run_mlmc", None),
                (mod, "run_classical_mc", "executor.run_classical_mc", None),
            ]
        for cls in (models.GBMModel, models.TwoScaleModel):
            fns.append((cls, "evaluate_many", per_level, solves))

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in fns]
        try:
            for owner, attr, name, after in fns:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], after))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path):
        """The spans as a JSON list of {id, name, start, end, parent}, times in seconds."""
        keys = ("id", "name", "start", "end", "parent")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)

    def metrics(self):
        """Every per-layer metric of the spans recorded so far; 0 where unused."""
        busy = defaultdict(float)
        calls = Counter()
        children = defaultdict(list)
        for span_id, name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                children[parent].append((start, end))

        def self_time(name):
            return sum(
                (end - start) - _covered(children[span_id], start, end)
                for span_id, n, start, end, _ in self.spans
                if n == name
            )

        out = {
            "bits.counter_seeds.calls": calls["bits.counter_seeds"],
            "bits.counter_seeds.s": busy["bits.counter_seeds"],
            "bits.normal_lanes.calls": calls["bits.normal_lanes"],
            "bits.normal_lanes.s": busy["bits.normal_lanes"],
            "bits.normal_lanes.normals": self.counts["bits.normal_lanes.normals"],
            "bits.normal_lanes.ns_per_normal": _ratio(
                busy["bits.normal_lanes"] * 1e9, self.counts["bits.normal_lanes.normals"]
            ),
            "executor.pilot.s": busy["executor.pilot"],
            "executor.run_mlmc.s": busy["executor.run_mlmc"],
            "executor.run_mlmc.self_s": self_time("executor.run_mlmc"),
            "executor.run_classical_mc.s": busy["executor.run_classical_mc"],
            "executor.run_classical_mc.self_s": self_time("executor.run_classical_mc"),
            "stats.values": self.counts["stats.values"],
            "stats.mc_mean.calls": calls["stats.mc_mean"],
            "stats.mc_mean.s": busy["stats.mc_mean"],
            "stats.unbiased_variance.calls": calls["stats.unbiased_variance"],
            "stats.unbiased_variance.s": busy["stats.unbiased_variance"],
            "planner.plan.s": busy["planner.plan"],
            "cli.pilot.s": busy["cli.pilot"],
            "cli.run.s": busy["cli.run"],
            "cli.report.s": busy["cli.report"],
            "cli.json.bytes": self.counts["cli.json.bytes"],
        }
        per_solve = {}
        for n in LEVELS:
            name = f"models.evaluate_many.l{n}"
            solved = self.counts[f"models.solves.l{n}"]
            per_solve[n] = _ratio(busy[name], solved)
            out[f"models.solves.l{n}"] = solved
            out[f"models.evaluate_many.calls.l{n}"] = calls[name]
            out[f"models.evaluate_many.s.l{n}"] = busy[name]
            out[f"models.s_per_solve.l{n}"] = per_solve[n]
        for n in LEVELS:
            out[f"models.cost_ratio.l{n}"] = _ratio(per_solve[n], per_solve[1])

        plan = self.mlmc_plan
        out["planner.L"] = plan.L if plan else 0
        out["planner.M_L"] = plan.M[-1] if plan else 0
        out["planner.relative_load"] = plan.relative_load if plan else 0.0
        # The run's measured cost in level-1 solves, over what the planner
        # predicted in the same unit from cost_hint.
        out["planner.load_ratio"] = _ratio(
            _ratio(busy["executor.run_mlmc"], per_solve[1]), out["planner.relative_load"]
        )
        return out


def _ratio(a, b):
    return a / b if b else 0.0


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
