"""Spans around the calls into sklab's layers, recorded from outside the program.

A traced run replaces public functions in the namespaces their callers use
with wrappers that record ``(name, start, end, pid)``.  Clocks are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans from forked pool
workers share one time base.  A worker keeps its spans in memory and
appends them to ``spans-<pid>.jsonl`` in the output directory at the end
of each trial; the main process reads those files once the window is over.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import statistics
import time

# (module, attribute, span name): every call site of a layer goes through
# exactly one of these bindings
WRAPS = [
    ("sklab.cli", "run_experiment", "experiment_harness.run_experiment"),
    ("sklab.cli", "maximize_sphere_theory", "cli.maximize_sphere_theory"),
    ("sklab.cli", "tap_threshold", "cli.tap_threshold"),
    ("sklab.experiment_harness", "_run_trial", "experiment_harness.trial"),
    ("sklab.experiment_harness", "sample_spectral_model", "rmt_core.sample"),
    ("sklab.experiment_harness", "solve_sphere", "reduction_solver.solve_sphere"),
    ("sklab.experiment_harness", "solve_ball", "reduction_solver.solve_ball"),
    ("sklab.experiment_harness", "compute_statistics", "fluctuation_lab.stats"),
    ("sklab.experiment_harness", "residual_sphere", "fluctuation_lab.residual"),
    ("sklab.experiment_harness", "residual_ball", "fluctuation_lab.residual"),
    ("sklab.experiment_harness", "aggregate", "fluctuation_lab.aggregate"),
    ("sklab.experiment_harness", "emit", "experiment_harness.emit"),
    ("sklab.experiment_harness", "theory_sidecar", "theory_engine.sidecar"),
    ("sklab.experiment_harness", "maximize_ball_theory", "theory_engine.maximize_ball"),
    ("sklab.reduction_solver", "inner_max", "reduction_solver.inner_max"),
    ("sklab.rmt_core", "sample_spectral_model", "rmt_core.sample"),
    ("sklab.fluctuation_lab", "compute_statistics", "fluctuation_lab.stats"),
    ("sklab.fluctuation_lab", "aggregate", "fluctuation_lab.aggregate"),
]

#: layer spans directly inside a trial; the rest of a trial is harness time
TRIAL_CHILDREN = {
    "rmt_core.sample",
    "reduction_solver.solve_sphere",
    "reduction_solver.solve_ball",
    "fluctuation_lab.stats",
    "fluctuation_lab.residual",
}

PER_LAYER = [
    ("rmt_core.sample_ms_p50", "ms", "lower"),
    ("rmt_core.sample_busy_s", "s", "lower"),
    ("reduction_solver.solve_sphere_ms_p50", "ms", "lower"),
    ("reduction_solver.solve_ball_ms_p50", "ms", "lower"),
    ("reduction_solver.inner_max_calls_per_solve", "count", "lower"),
    ("reduction_solver.ball_gap_max", "value/n", "lower"),
    ("fluctuation_lab.stats_ms_p50", "ms", "lower"),
    ("fluctuation_lab.residual_us_p50", "us", "lower"),
    ("fluctuation_lab.aggregate_ms", "ms", "lower"),
    ("theory_engine.sidecar_ms_p50", "ms", "lower"),
    ("theory_engine.maximize_ball_ms_p50", "ms", "lower"),
    ("theory_engine.phase_row_ms_p50", "ms", "lower"),
    ("experiment_harness.self_ms_per_trial", "ms", "lower"),
    ("experiment_harness.slot_idle_s", "s", "lower"),
    ("experiment_harness.soft_timeouts", "count", "lower"),
    ("experiment_harness.emit_ms", "ms", "lower"),
    ("experiment_harness.output_bytes", "bytes", "lower"),
    ("cli.phase_s", "s", "lower"),
    ("traced.ops_per_s", "ops/s", "higher"),
]


class Tracer:
    """Records spans in memory; pool workers flush theirs after every trial."""

    def __init__(self, outdir: str) -> None:
        self.outdir = outdir
        self.main_pid = self._owner = os.getpid()
        self.spans: list[tuple[str, float, float, int]] = []

    def install(self) -> None:
        for module, attr, name in WRAPS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))

    def _wrap(self, fn, name: str):
        flush = name == "experiment_harness.trial"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._owner:
                # a forked worker starts with a copy of its parent's spans
                self._owner = os.getpid()
                self.spans.clear()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, time.perf_counter(), os.getpid()))
                if flush and os.getpid() != self.main_pid:
                    self._flush_worker()

        return wrapper

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the benchmark itself (a CLI invocation)."""
        self.spans.append((name, start, end, os.getpid()))

    def _flush_worker(self) -> None:
        path = os.path.join(self.outdir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans.clear()

    def collect(self) -> list[tuple[str, float, float, int]]:
        """All spans of the run: the main process's and every worker's."""
        out = list(self.spans)
        for path in glob.glob(os.path.join(self.outdir, "spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                out.extend(tuple(json.loads(line)) for line in fh)
        return out


def _durations(spans, name: str) -> list[float]:
    return [e - s for n, s, e, _ in spans if n == name]


def _p50(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def per_layer(spans, slots: int, output_bytes: list[int], gap_max: float,
              timeouts: int, ops_per_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer the workload never calls reads 0."""
    by_pid: dict[int, list] = {}
    for sp in spans:
        by_pid.setdefault(sp[3], []).append(sp)

    solves = len(_durations(spans, "reduction_solver.solve_sphere")) + len(
        _durations(spans, "reduction_solver.solve_ball"))
    inner_calls = len(_durations(spans, "reduction_solver.inner_max"))

    trials = [sp for sp in spans if sp[0] == "experiment_harness.trial"]
    self_s = []
    for name, start, end, pid in trials:
        inside = sum(e - s for n, s, e, _ in by_pid[pid]
                     if n in TRIAL_CHILDREN and start <= s and e <= end)
        self_s.append((end - start) - inside)

    idle = []
    for name, start, end, _ in spans:
        if name != "experiment_harness.run_experiment":
            continue
        covered = sum(e - s for n, s, e, _ in trials if start <= s and e <= end)
        idle.append(slots * (end - start) - covered)

    # one phase row is the theory work the CLI does for it: the sphere
    # maximizer followed by the TAP threshold, in the same process
    rows = []
    main = sorted(by_pid.get(os.getpid(), []), key=lambda sp: sp[1])
    pending = None
    for name, start, end, _ in main:
        if name == "cli.maximize_sphere_theory":
            pending = start
        elif name == "cli.tap_threshold" and pending is not None:
            rows.append(end - pending)
            pending = None

    aggregate = _durations(spans, "fluctuation_lab.aggregate")
    return {
        "rmt_core.sample_ms_p50": _p50(_durations(spans, "rmt_core.sample"), 1e3),
        "rmt_core.sample_busy_s": sum(_durations(spans, "rmt_core.sample"), 0.0),
        "reduction_solver.solve_sphere_ms_p50": _p50(
            _durations(spans, "reduction_solver.solve_sphere"), 1e3),
        "reduction_solver.solve_ball_ms_p50": _p50(
            _durations(spans, "reduction_solver.solve_ball"), 1e3),
        "reduction_solver.inner_max_calls_per_solve": inner_calls / solves if solves else 0.0,
        "reduction_solver.ball_gap_max": gap_max,
        "fluctuation_lab.stats_ms_p50": _p50(_durations(spans, "fluctuation_lab.stats"), 1e3),
        "fluctuation_lab.residual_us_p50": _p50(
            _durations(spans, "fluctuation_lab.residual"), 1e6),
        "fluctuation_lab.aggregate_ms": _p50(aggregate, 1e3),
        "theory_engine.sidecar_ms_p50": _p50(_durations(spans, "theory_engine.sidecar"), 1e3),
        "theory_engine.maximize_ball_ms_p50": _p50(
            _durations(spans, "theory_engine.maximize_ball"), 1e3),
        "theory_engine.phase_row_ms_p50": _p50(rows, 1e3),
        "experiment_harness.self_ms_per_trial": (
            sum(self_s) / len(self_s) * 1e3 if self_s else 0.0),
        "experiment_harness.slot_idle_s": sum(idle) / len(idle) if idle else 0.0,
        "experiment_harness.soft_timeouts": float(timeouts),
        "experiment_harness.emit_ms": _p50(_durations(spans, "experiment_harness.emit"), 1e3),
        "experiment_harness.output_bytes": (
            sum(output_bytes) / len(output_bytes) if output_bytes else 0.0),
        "cli.phase_s": _p50(_durations(spans, "cli.phase"), 1.0),
        "traced.ops_per_s": ops_per_s,
    }
