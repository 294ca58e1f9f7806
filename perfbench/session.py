"""One benchmark session: a fresh process that sets up sklab and runs a workload.

``run.py`` starts it from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/session.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --outdir DIR --spawned-at T [--setup-only]

Set-up is everything from process start (``--spawned-at``, a
``time.monotonic`` reading taken by the parent just before the spawn) to
the first timed operation: the imports, the theory sidecar and a first
call of the workload's sampler or maximizer.  The window then runs whole
rounds of operations until less than half a typical round of ``--seconds``
is left; outputs are checked after it.  The last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import reference as ref
from reference import Verdict
from spans import Tracer, per_layer


def _cli(argv: list[str]) -> None:
    from sklab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sklab {argv[0]} exited with {code}")


class Workload:
    """What every workload reports besides its verdicts: the worker slots of
    its campaigns, bytes each campaign wrote, ball shortfalls, and rows the
    soft timeout invalidated."""

    slots = 1

    def __init__(self, seed: int, outdir: str) -> None:
        self.seed, self.outdir = seed, outdir
        self.output_bytes: list[int] = []
        self.gaps: list[float] = []
        self.timeouts = 0

    def finish(self) -> None:
        """Work that closes the window after the last round."""


class Campaign(Workload):
    """``sklab simulate`` campaigns; one operation is one trial.

    Each campaign gets its master seed from the benchmark seed and the
    campaign index.  The spike is ``h x`` with ``beta = 1``.
    """

    beta = 1.0

    def __init__(self, seed: int, outdir: str, model: str, n: int, trials: int,
                 h: float, parallelism: int, fmt: str) -> None:
        super().__init__(seed, outdir)
        self.model, self.n, self.trials, self.h = model, n, trials, h
        self.slots, self.fmt = parallelism, fmt
        self.campaigns: list[tuple[int, str, bool]] = []

    def setup(self) -> None:
        from sklab import experiment_harness as eh, rmt_core
        from sklab.theory_engine import RadialSpec, SpikeSpec

        eh.theory_sidecar(eh.ExperimentConfig(
            model=self.model, n=self.n, trials=self.trials, master_seed=0,
            beta=self.beta, spike=SpikeSpec.monomial(self.h, 1),
            radial=RadialSpec.tap(self.beta) if self.model == "ball" else None,
        ))
        rmt_core.sample_spectral_model(self.n, seed=ref.mix64(self.seed, -1),
                                       mode="invariance")

    def _paths(self, base: str) -> list[str]:
        if self.fmt == "csv":
            return [base + ".csv", base + ".summary.json"]
        return [base + ".json"]

    def round(self, index: int, tracer) -> int:
        master = ref.mix64(self.seed, index)
        base = os.path.join(self.outdir, f"{self.model}-{index}")
        ok = False
        try:
            _cli(["simulate", "--model", self.model, "--n", str(self.n),
                  "--trials", str(self.trials), "--seed", str(master),
                  "--beta", repr(self.beta), "--spike", f"monomial:1:{self.h!r}",
                  "--parallelism", str(self.slots), "--format", self.fmt,
                  "--output", base])
            ok = True
            self.output_bytes.append(sum(os.path.getsize(p) for p in self._paths(base)))
        except Exception as err:  # a crashed campaign fails all its trials
            print(f"campaign {index} raised {err!r}", file=sys.stderr)
        self.campaigns.append((master, base, ok))
        return self.trials

    def _rows(self, base: str) -> tuple[list[dict], int]:
        if self.fmt == "csv":
            rows = ref.read_csv_records(base + ".csv")
            with open(base + ".summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)["summary"]
        else:
            with open(base + ".json", encoding="utf-8") as fh:
                doc = json.load(fh)
            rows, summary = doc["records"], doc["summary"]
        return rows, summary["valid_count"]

    @staticmethod
    def _soft_timeout(rows: list[dict], i: int) -> bool:
        """Whether ``run_experiment`` marked row ``i`` invalid only for being slow.

        Its rule: with more than five trials, a trial slower than ten times
        the median of the first five is invalid.  Such a row keeps its values.
        """
        row = rows[i]
        if i < 5 or row["valid"] in (True, "true") or row["U_N"] in (None, ""):
            return False
        limit = 10.0 * statistics.median(float(r["wall_time_ms"]) for r in rows[:5])
        return float(row["wall_time_ms"]) > limit

    def check(self) -> list[Verdict]:
        out = []
        for master, base, ok in self.campaigns:
            if not ok:
                out.extend(Verdict(failed=True) for _ in range(self.trials))
                continue
            rows, valid_count = self._rows(base)
            verdicts = []
            for i in range(self.trials):
                if i < len(rows) and self._soft_timeout(rows, i):
                    # validity that depends on machine load is not a failure;
                    # the row's values are still checked
                    self.timeouts += 1
                    valid_count += 1
                    rows[i] = dict(rows[i], valid=True)
                if i >= len(rows):
                    verdicts.append(Verdict(wrong=[f"{base}: trial {i} missing"]))
                elif self.model == "sphere":
                    verdicts.append(ref.check_sphere_trial(rows[i], master, i, self.n,
                                                           self.beta, self.h))
                else:
                    v, gap = ref.check_ball_trial(rows[i], master, i, self.n,
                                                  self.beta, self.h)
                    verdicts.append(v)
                    if gap is not None:
                        self.gaps.append(gap)
            if valid_count != sum(not v.failed for v in verdicts):
                verdicts[0].mismatch(f"{base}: summary valid_count {valid_count}")
            out.extend(verdicts)
        return out


class Spectral(Workload):
    """Draws at n = 2000 evaluated at the sphere campaign's dual point.

    One operation is one draw: ``sample_spectral_model`` in invariance mode,
    then ``compute_statistics``.  ``aggregate`` runs once over the run's
    draws, inside the window.
    """

    n, h, beta = 2000, 1.5, 1.0

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        a2 = self.h**2 / (self.h**2 + 2.0 * self.beta**2)
        # l_hat = (2 - a^2)/sqrt(2(1 - a^2)) of the degree-1 sphere maximizer
        self.l = (2.0 - a2) / math.sqrt(2.0 * (1.0 - a2))
        self.draws: list[tuple[int, object, object]] = []
        self.failed = 0
        self.agg = None

    def setup(self) -> None:
        from sklab import fluctuation_lab, rmt_core
        from sklab.theory_engine import SpikeSpec, fluct_params_sphere

        self.params = fluct_params_sphere(SpikeSpec.monomial(self.h, 1), self.beta)
        sample = rmt_core.sample_spectral_model(self.n, seed=ref.mix64(self.seed, -1),
                                                mode="invariance")
        fluctuation_lab.compute_statistics(sample, self.l)

    def round(self, index: int, tracer) -> int:
        from sklab import fluctuation_lab, rmt_core

        seed = ref.mix64(self.seed, index)
        try:
            sample = rmt_core.sample_spectral_model(self.n, seed=seed, mode="invariance")
            stats = fluctuation_lab.compute_statistics(sample, self.l)
        except Exception as err:
            print(f"draw {index} raised {err!r}", file=sys.stderr)
            self.failed += 1
            return 1
        self.draws.append((seed, sample, stats))
        return 1

    def finish(self) -> None:
        from sklab import fluctuation_lab

        if len(self.draws) >= 2:
            self.agg = fluctuation_lab.aggregate([d[2] for d in self.draws], self.params)

    def check(self) -> list[Verdict]:
        theta = ref.classical_locations(self.n)
        out = [ref.check_draw(sample, stats, seed, self.l, theta)
               for seed, sample, stats in self.draws]
        stats = [d[2] for d in self.draws]
        run_level = []
        if self.agg is None:
            run_level.append("fewer than two draws to aggregate")
        else:
            run_level += ref.check_aggregate(self.agg, stats, self.params)
            run_level += ref.check_lambda_band(np.array([s.Lambda for s in stats]), self.l)
        for v in out:  # a run-level fault fails every draw it covers
            v.wrong.extend(run_level)
        return out + [Verdict(failed=True) for _ in range(self.failed)]


class TheoryGrid(Workload):
    """``sklab phase`` over k = 1..4 plus both theory sidecars at every point.

    A round draws the h and beta ranges from the seed; each degree gets a
    4 x 4 grid, so a round is 64 operations (one per point: its phase row
    and its sphere and TAP-ball sidecars).  The ranges put points on both
    sides of every phase boundary the grid crosses.
    """

    steps = 4

    def __init__(self, seed: int, outdir: str) -> None:
        super().__init__(seed, outdir)
        self.points: list[tuple] = []
        self.phase_files: list[tuple[int, str, np.ndarray, np.ndarray]] = []
        self.failed = 0

    @staticmethod
    def _sidecars(k: int, h: float, beta: float) -> tuple[dict, dict]:
        from sklab import experiment_harness as eh
        from sklab.theory_engine import RadialSpec, SpikeSpec

        spike = SpikeSpec.monomial(h, k)
        common = dict(n=2, trials=1, master_seed=0, beta=beta, spike=spike)
        sphere = eh.theory_sidecar(eh.ExperimentConfig(model="sphere", **common))
        ball = eh.theory_sidecar(eh.ExperimentConfig(
            model="ball", radial=RadialSpec.tap(beta), **common))
        return sphere, ball

    def setup(self) -> None:
        self._sidecars(3, 1.3, 0.7)

    def round(self, index: int, tracer) -> int:
        rng = np.random.default_rng([self.seed, index])
        h_lo, h_hi = rng.uniform(0.3, 0.45), rng.uniform(2.0, 2.5)
        b_lo, b_hi = rng.uniform(0.2, 0.35), rng.uniform(1.5, 2.0)
        hs = np.linspace(h_lo, h_hi, self.steps)
        bs = np.linspace(b_lo, b_hi, self.steps)
        for k in range(1, 5):
            path = os.path.join(self.outdir, f"phase-{index}-{k}.csv")
            start = time.perf_counter()
            try:
                _cli(["phase", "--k", str(k), "--h-min", repr(h_lo), "--h-max", repr(h_hi),
                      "--h-steps", str(self.steps), "--beta-min", repr(b_lo),
                      "--beta-max", repr(b_hi), "--beta-steps", str(self.steps),
                      "--output", path])
            except Exception as err:
                print(f"phase k={k} raised {err!r}", file=sys.stderr)
                self.failed += self.steps * self.steps
                continue
            if tracer is not None:
                tracer.span("cli.phase", start, time.perf_counter())
            self.phase_files.append((k, path, hs, bs))
            for h in hs:
                for beta in bs:
                    try:
                        sphere, ball = self._sidecars(k, float(h), float(beta))
                    except Exception as err:
                        print(f"sidecar k={k} h={h} beta={beta} raised {err!r}",
                              file=sys.stderr)
                        self.failed += 1
                        continue
                    self.points.append((k, float(h), float(beta), sphere, ball))
        return 4 * self.steps * self.steps

    def check(self) -> list[Verdict]:
        rows: dict[tuple, dict] = {}
        for k, path, hs, bs in self.phase_files:
            csv_rows = ref.read_csv_records(path)
            grid = [(float(h), float(b)) for h in hs for b in bs]
            if len(csv_rows) != len(grid):
                raise RuntimeError(f"{path}: {len(csv_rows)} rows for {len(grid)} points")
            for (h, b), row in zip(grid, csv_rows):
                rows[(k, h, b)] = row
        out = []
        for k, h, beta, sphere, ball in self.points:
            v = ref.check_theory_point(k, h, beta, sphere, ball)
            row = rows.get((k, h, beta))
            if row is None:
                v.mismatch(f"k={k} h={h} beta={beta}: no phase row")
            else:
                v.wrong.extend(ref.check_phase_row(k, h, beta, row))
            out.append(v)
        return out + [Verdict(failed=True) for _ in range(self.failed)]


WORKLOADS = {
    "sphere-campaign": lambda seed, out: Campaign(seed, out, "sphere", 1000, 4, 1.5, 1, "csv"),
    "ball-campaign": lambda seed, out: Campaign(seed, out, "ball", 500, 8, 1.0, 2, "json"),
    "spectral-law": Spectral,
    "theory-grid": TheoryGrid,
}


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and its reaped children, and their peak RSS in MB."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import sklab

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(sklab.__file__), src]) != src:
        raise SystemExit(f"sklab imported from {sklab.__file__}, not from {src}")
    import sklab.cli  # noqa: F401  the entry point, imported as part of set-up

    workload = WORKLOADS[args.workload](args.seed, args.outdir)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(args.outdir)
        tracer.install()
    # rounds run until less than half a typical round is left; the rates are
    # medians over rounds, so one stalled round does not move them
    rounds: list[tuple[int, float, float]] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        ops = workload.round(len(rounds), tracer)
        t1 = time.perf_counter()
        rounds.append((ops, t1 - t0, _usage()[0] - cpu0))
        typical = statistics.median(r[1] for r in rounds)
        if deadline - t1 < typical / 2:
            break
    workload.finish()
    _, peak_mb = _usage()
    ops = sum(r[0] for r in rounds)
    ops_per_s = statistics.median(r[0] / r[1] for r in rounds)

    verdicts = workload.check()
    if len(verdicts) != ops:
        raise SystemExit(f"{len(verdicts)} verdicts for {ops} operations")
    wrong = [w for v in verdicts for w in v.wrong]
    for line in wrong[:20]:
        print("MISMATCH " + line, file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "cpu_s_per_op": statistics.median(r[2] / r[0] for r in rounds),
        "peak_rss_mb": peak_mb,
        "attempted": ops,
        "failed": sum(v.failed or bool(v.wrong) for v in verdicts),
        "wrong": len(wrong),
    }
    if tracer is not None:
        result["layers"] = per_layer(
            tracer.collect(), workload.slots, workload.output_bytes,
            max(workload.gaps, default=0.0), workload.timeouts, ops_per_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
