"""sklab benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It compiles ``src/`` (the program's
build), then starts fresh sessions (``session.py``) with ``PYTHONPATH=src``
and ``SKLAB_THREADS`` unset; BLAS threading is left as the environment has
it.  With ``--trace 0`` two set-up-only sessions and the measuring session
give three set-up times, whose median is ``setup_s``; the measuring session
gives the other end-to-end metrics.  With ``--trace 1`` one traced session
gives the per-layer metrics.  Every metric is printed as ``name value unit``
and the last line is the JSON result.  Outputs go to ``.perfbench_out/``
in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 2
SESSION_TIMEOUT_S = 150.0


def run_session(args, outdir: str, env: dict, setup_only: bool, timeout: float) -> dict:
    """Start one session and wait for it; its last stdout line is its result."""
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", outdir, "--spawned-at", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session and its pool workers
        proc.communicate()
        raise SystemExit(f"session of {args.workload} did not end within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"session of {args.workload} failed with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sklab", "__init__.py")):
        print(f"no sklab sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(src, quiet=1):
        print("compiling src/ failed", file=sys.stderr)
        return 2

    outdir = os.path.join(root, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(outdir, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.pop("SKLAB_THREADS", None)
    env["PYTHONPATH"] = src
    env["TMPDIR"] = os.path.join(outdir, "tmp")
    started = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_session(args, outdir, env, True, 60.0)["setup_s"])
        budget = SESSION_TIMEOUT_S - (time.monotonic() - started)
        res = run_session(args, outdir, env, False, budget)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(outdir))
        except OSError:  # another run still uses it
            pass

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        setups.append(res["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["ops_per_s"],
            "cpu_s_per_op": res["cpu_s_per_op"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
