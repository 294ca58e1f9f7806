"""The benchmark's checks pass on the program's outputs and bite on perturbed ones.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
from sklab import fluctuation_lab, rmt_core  # noqa: E402
from sklab.experiment_harness import ExperimentConfig, run_experiment, theory_sidecar  # noqa: E402
from sklab.theory_engine import RadialSpec, SpikeSpec, fluct_params_sphere  # noqa: E402

N = 60


def _campaign_rows(tmp_path, model: str, h: float) -> tuple[int, list[dict]]:
    master = 97
    config = ExperimentConfig(
        model=model, n=N, trials=2, master_seed=master, beta=1.0,
        spike=SpikeSpec.monomial(h, 1),
        radial=RadialSpec.tap(1.0) if model == "ball" else None,
        output_path=str(tmp_path / model), output_format="csv",
    )
    run_experiment(config)
    return master, ref.read_csv_records(str(tmp_path / f"{model}.csv"))


def test_trs_matches_brute_force_on_a_small_sphere():
    rng = np.random.default_rng(3)
    lam, u = np.sort(rng.standard_normal(3)), rng.standard_normal(3)
    u /= np.linalg.norm(u)
    value, overlap = ref.trs(lam, u, 0.8, 1.3)
    phi, theta = np.meshgrid(np.linspace(0, np.pi, 1201), np.linspace(0, 2 * np.pi, 2401))
    x = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)])
    brute = 0.8 * np.einsum("i,i...->...", lam, x * x) + 1.3 * np.einsum("i,i...->...", u, x)
    assert value >= brute.max() - 1e-12
    assert value - brute.max() < 1e-4
    assert -1.0 <= overlap <= 1.0


def test_sphere_rows_pass_and_perturbed_values_fail(tmp_path):
    master, rows = _campaign_rows(tmp_path, "sphere", 1.5)
    for i, row in enumerate(rows):
        v = ref.check_sphere_trial(row, master, i, N, 1.0, 1.5)
        assert not v.failed and not v.wrong, v.wrong

    bumped = dict(rows[0], value=repr(float(rows[0]["value"]) + 1e-8 * N))
    assert ref.check_sphere_trial(bumped, master, 0, N, 1.0, 1.5).wrong
    tilted = dict(rows[0], alpha_star=repr(float(rows[0]["alpha_star"]) + 1e-4))
    assert ref.check_sphere_trial(tilted, master, 0, N, 1.0, 1.5).wrong
    reseeded = dict(rows[0], derived_seed=str(int(rows[0]["derived_seed"]) + 1))
    assert ref.check_sphere_trial(reseeded, master, 0, N, 1.0, 1.5).wrong
    invalid = dict(rows[0], valid="false")
    assert ref.check_sphere_trial(invalid, master, 0, N, 1.0, 1.5).failed


def test_ball_rows_pass_and_values_off_the_maximum_fail(tmp_path):
    master, rows = _campaign_rows(tmp_path, "ball", 1.0)
    for i, row in enumerate(rows):
        v, gap = ref.check_ball_trial(row, master, i, N, 1.0, 1.0)
        assert not v.failed and not v.wrong, v.wrong
        assert -ref.BALL_ABOVE_TOL <= gap <= ref.BALL_SHORT_TOL

    _, gap = ref.check_ball_trial(rows[0], master, 0, N, 1.0, 1.0)
    above = dict(rows[0], value=repr((float(rows[0]["value"]) / N + gap + 1e-9) * N))
    assert ref.check_ball_trial(above, master, 0, N, 1.0, 1.0)[0].wrong
    short = dict(rows[0], value=repr(float(rows[0]["value"]) - 1e-5 * N))
    v, short_gap = ref.check_ball_trial(short, master, 0, N, 1.0, 1.0)
    assert v.wrong and short_gap == pytest.approx(gap + 1e-5, abs=1e-12)


def _draws(count: int, n: int, l: float):
    out = []
    for i in range(count):
        seed = ref.mix64(5, i)
        sample = rmt_core.sample_spectral_model(n, seed=seed, mode="invariance")
        out.append((seed, sample, fluctuation_lab.compute_statistics(sample, l)))
    return out


def test_statistics_pass_and_perturbed_statistics_fail():
    n, l = 120, 1.8
    theta = ref.classical_locations(n)
    seed, sample, stats = _draws(1, n, l)[0]
    assert not ref.check_draw(sample, stats, seed, l, theta).wrong

    for key in ("U", "Lambda", "W", "Xprime"):
        bad = copy.copy(stats)
        setattr(bad, key, getattr(stats, key) + 1e-6)
        assert ref.check_draw(sample, bad, seed, l, theta).wrong, key
    shifted = copy.copy(sample)
    shifted.eigenvalues = sample.eigenvalues + 1e-6
    assert ref.check_draw(shifted, stats, seed, l, theta).wrong


def test_classical_locations_solve_the_semicircle_cdf():
    theta = ref.classical_locations(500)
    cdf = 0.5 + (theta * np.sqrt(np.maximum(2 - theta**2, 0)) / 2
                 + np.arcsin(theta / math.sqrt(2))) / math.pi
    assert np.max(np.abs(cdf - np.arange(1, 501) / 500)) < 1e-13


def test_lambda_band_and_aggregate_bite():
    mean, var = ref.lambda_law(1.8)
    rng = np.random.default_rng(11)
    values = mean + math.sqrt(var) * rng.standard_normal(30)
    assert not ref.check_lambda_band(values, 1.8)
    assert ref.check_lambda_band(values + 3.0 * math.sqrt(var), 1.8)
    assert ref.check_lambda_band(mean + 0.2 * (values - mean), 1.8)

    spike = SpikeSpec.monomial(1.5, 1)
    params = fluct_params_sphere(spike, 1.0)
    l = (2 - 1.5**2 / 4.25) / math.sqrt(2 * (1 - 1.5**2 / 4.25))
    stats = [d[2] for d in _draws(4, 120, l)]
    agg = fluctuation_lab.aggregate(stats, params)
    assert not ref.check_aggregate(agg, stats, params)
    assert ref.check_aggregate(dict(agg, var_U=agg["var_U"] * (1 + 1e-6)), stats, params)


@pytest.mark.parametrize("k,h,beta", [(1, 0.8, 1.3), (2, 1.2, 0.7), (2, 0.4, 1.5),
                                      (3, 2.2, 0.5), (3, 0.6, 1.2), (4, 2.0, 0.4)])
def test_theory_points_pass_and_perturbed_constants_fail(k, h, beta):
    common = dict(n=2, trials=1, master_seed=0, beta=beta, spike=SpikeSpec.monomial(h, k))
    sphere = theory_sidecar(ExperimentConfig(model="sphere", **common))
    ball = theory_sidecar(ExperimentConfig(model="ball", radial=RadialSpec.tap(beta), **common))
    assert not ref.check_theory_point(k, h, beta, sphere, ball).wrong

    for which in ("sphere", "ball"):
        bad = copy.deepcopy({"sphere": sphere, "ball": ball})
        bad[which]["leading"]["value"] += 1e-7
        assert ref.check_theory_point(k, h, beta, bad["sphere"], bad["ball"]).wrong, which
        flipped = copy.deepcopy({"sphere": sphere, "ball": ball})
        flipped[which]["leading"]["applicable"] = not flipped[which]["leading"]["applicable"]
        assert ref.check_theory_point(k, h, beta, flipped["sphere"], flipped["ball"]).wrong


@pytest.mark.parametrize("k", [2, 3, 4])
def test_phase_rows_pass_and_a_perturbed_beta_c_fails(tmp_path, k):
    from sklab import cli

    path = str(tmp_path / "phase.csv")
    assert cli.main(["phase", "--k", str(k), "--h-min", "0.4", "--h-max", "2.0", "--h-steps", "2",
                     "--beta-min", "0.3", "--beta-max", "1.7", "--beta-steps", "2",
                     "--output", path]) == 0
    rows = ref.read_csv_records(path)
    grid = [(h, b) for h in (0.4, 2.0) for b in (0.3, 1.7)]
    for (h, b), row in zip(grid, rows):
        assert not ref.check_phase_row(k, h, b, row), row
    h, b = grid[0]
    late = dict(rows[0], beta_c=repr(float(rows[0]["beta_c"]) * (1 + 1e-6)))
    assert ref.check_phase_row(k, h, b, late)
    h, b = grid[2]
    assert ref.check_phase_row(k, h, b, dict(rows[2], maximizer_type="none"))


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
