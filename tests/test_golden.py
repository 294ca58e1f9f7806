"""Golden records: campaign, theory and phase outputs pinned in ``tests/golden/``.

Each case runs the public entry point ``sklab.cli.main`` and compares what it
writes with the committed file: structure, key and column order, flags,
strings and integers exactly, floats to 1e-12 relative, and ``wall_time_ms``
not at all.  A change that alters an output on purpose regenerates the set
and says why::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import pytest

from sklab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12
SKIPPED = "wall_time_ms"

#: the commands that write the campaign and phase files; ``{out}`` is the directory
COMMANDS = [
    ["simulate", "--model", "sphere", "--n", "200", "--trials", "6", "--seed", "11",
     "--beta", "1", "--spike", "monomial:1:1.5", "--output", "{out}/sphere", "--format", "csv"],
    ["simulate", "--model", "ball", "--n", "200", "--trials", "6", "--seed", "29",
     "--beta", "1", "--spike", "monomial:1:1", "--output", "{out}/ball", "--format", "json",
     "--parallelism", "2"],
    # at beta = 0.5 the Plefka interval starts at r = 0
    ["simulate", "--model", "ball", "--n", "200", "--trials", "6", "--seed", "29",
     "--beta", "0.5", "--spike", "monomial:1:1", "--output", "{out}/ball_beta05",
     "--format", "json", "--parallelism", "2"],
    # a non-monomial spike takes the numeric limit paths
    ["simulate", "--model", "ball", "--n", "200", "--trials", "6", "--seed", "29",
     "--beta", "1", "--spike", "polynomial:0:0.8:0:0.3", "--output", "{out}/ball_poly",
     "--format", "json", "--parallelism", "2"],
    ["phase", "--k", "4", "--h-min", "0.5", "--h-max", "2.5", "--h-steps", "5",
     "--beta-min", "0.5", "--beta-max", "2", "--beta-steps", "4", "--output", "{out}/phase.csv"],
]

#: ``sklab theory --json`` calls per file, which lists their printed documents
THEORY = {
    "theory.json": [
        ["theory", "--spike", f"monomial:{k}:{h}", "--beta", "1", "--json", *ball]
        for ball in ([], ["--ball"])
        for k in (1, 2, 3, 4)
        for h in ("1.0", "1.5", "2.5")
    ],
    # the ball from r = 0; h = 1.0 and 1.5 lie either side of tap_threshold for k = 3, 4
    "theory_ball_beta05.json": [
        ["theory", "--spike", f"monomial:{k}:{h}", "--beta", "0.5", "--json", "--ball"]
        for k in (1, 2, 3, 4)
        for h in ("1.0", "1.5")
    ],
    # the numeric limit paths, away from critical-coupling ties, where they and
    # the closed forms report different tied states; 0:1.5 is monomial:1:1.5's twin
    "theory_polynomial.json": [
        ["theory", "--spike", spike, "--beta", beta, "--json", *ball]
        for spike in ("polynomial:0:0.8:0:0.3", "polynomial:0:0.5:1")
        for ball in ([], ["--ball"])
        for beta in ("1", "0.5")
    ] + [["theory", "--spike", "polynomial:0:1.5", "--beta", "1", "--json"]],
}


def _run(argv: list[str]) -> str:
    """Stdout of ``sklab argv``; a non-zero exit code is an error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"sklab {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def produce(out: str) -> None:
    """Write every golden file into the directory ``out``."""
    for argv in COMMANDS:
        _run([a.format(out=out) for a in argv])
    for name, calls in THEORY.items():
        theory = [{"argv": argv, "sidecar": json.loads(_run(argv))} for argv in calls]
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(theory, fh, indent=2)
            fh.write("\n")


FILES = [
    "sphere.csv", "sphere.summary.json", "ball.json", "ball_beta05.json", "phase.csv",
    "theory.json", "theory_ball_beta05.json", "ball_poly.json", "theory_polynomial.json",
]


def _same_float(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def _compare_json(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            if key != SKIPPED:
                _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _same_float(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _compare_csv(got: list[list[str]], want: list[list[str]], where: str) -> None:
    assert got[0] == want[0], f"{where}: header {got[0]} != {want[0]}"
    assert len(got) == len(want), f"{where}: {len(got)} rows != {len(want)}"
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(g_row) == len(w_row), f"{where} row {i}: length differs"
        for col, g, w in zip(want[0], g_row, w_row):
            if col == SKIPPED:
                continue
            cell = f"{where} row {i} {col}"
            try:
                w_float = float(w)
            except ValueError:
                w_float = None
            if w_float is None or _is_int(w) or not math.isfinite(w_float):
                assert g == w, f"{cell}: {g!r} != {w!r}"  # flags, ints, empty cells
            else:
                assert _same_float(float(g), w_float), f"{cell}: {g!r} != {w!r}"


def _load(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        return json.load(fh) if path.endswith(".json") else list(csv.reader(fh))


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("golden"))
    produce(out)
    return out


@pytest.mark.parametrize("name", FILES)
def test_output_matches_golden_record(produced, name):
    got = _load(os.path.join(produced, name))
    want = _load(os.path.join(GOLDEN, name))
    if name.endswith(".json"):
        _compare_json(got, want, name)
    else:
        _compare_csv(got, want, name)


def test_golden_set_is_complete(produced):
    # a new output file must be pinned too
    assert sorted(os.listdir(produced)) == sorted(FILES) == sorted(os.listdir(GOLDEN))


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    produce(GOLDEN)
