"""Tests for the command line interface and its verification checks."""

import argparse
import csv
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

import sklab
import sklab.experiment_harness as harness
from sklab.cli import (
    CheckResult,
    SUITES,
    check_ball_pipeline,
    check_clt_quadrature,
    check_crossref_constants,
    check_first_order_clt,
    check_lambda_law,
    check_leading_order_lln,
    check_oracle_equivalence,
    check_phase_boundaries,
    check_sphere_residual_trend,
    check_w_covariance,
    main,
    parse_spike,
)
from sklab.experiment_harness import ExperimentConfig
from sklab.theory_engine import SpikeSpec

#: the ``--quick`` keyword arguments of each check, by name
QUICK_KWARGS = {fn.__name__: kw for checks in SUITES.values() for fn, kw in checks}


def test_import_loads_no_scipy():
    # NumPy is the only runtime dependency: a fresh interpreter importing the
    # CLI must not pull in SciPy
    src = os.path.dirname(os.path.dirname(sklab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sklab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestParseSpike:
    def test_roundtrip(self):
        spike = parse_spike("monomial:2:1.5")
        assert spike.kind == "monomial"
        assert spike.k == 2
        assert spike.h == 1.5
        # either form that SpikeSpec.label prints reads back
        for spike in (SpikeSpec.monomial(1.5, 2), SpikeSpec.polynomial([0, 0.8, 0, 0.3]),
                      SpikeSpec.polynomial([2.5]), SpikeSpec.polynomial([0.1234567]),
                      SpikeSpec.monomial(2.626062280277483, 2)):
            assert parse_spike(spike.label()) == spike

    @pytest.mark.parametrize(
        "text",
        ["gaussian:1:1", "monomial:1", "monomial:1:1:1", "monomial:0:1", "monomial:33:1",
         "polynomial", "polynomial:", "polynomial:a", "polynomial" + ":1" * 34],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_spike(text)


class TestTheoryCommand:
    def test_text_output(self, capsys):
        assert main(["theory", "--spike", "monomial:1:1", "--beta", "1"]) == 0
        out = capsys.readouterr().out
        assert "alpha_hat" in out and "kappa" in out and "G_resid" in out

    def test_json_output(self, capsys):
        assert main(["theory", "--spike", "monomial:1:1", "--beta", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["leading"]["alpha_hat"] == pytest.approx(1 / math.sqrt(3))
        assert doc["fluctuation"]["kappa"] == pytest.approx(0.25)

    def test_ball_json(self, capsys):
        rc = main(
            ["theory", "--spike", "monomial:1:1", "--beta", "1", "--ball", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["leading"]["r_hat"] == pytest.approx(math.sqrt(0.5))

    def test_inapplicable_regime_still_reports(self, capsys):
        # degree-3 spike past its critical coupling: zero-overlap maximizer
        assert main(["theory", "--spike", "monomial:3:1", "--beta", "2"]) == 0
        out = capsys.readouterr().out
        assert "unavailable" in out

    def test_ball_quadratic_spike_at_the_tie(self, capsys):
        # 1 - beta^2/(2h^2) rounds below zero here; this raised ValueError
        rc = main(["theory", "--ball", "--spike", "monomial:2:2.626062280277483",
                   "--beta", "3.7138128924048326"])
        assert rc == 0
        assert "note: tied interior/boundary state" in capsys.readouterr().out

    def test_out_of_range_beta_rejected(self, capsys):
        for beta, ball in (("0", ["--ball"]), ("nan", []), ("inf", ["--ball"])):
            rc = main(["theory", "--spike", "monomial:1:1", "--beta", beta, *ball])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"sklab theory: beta must be positive and finite, got {float(beta)}\n"
            )


class TestSimulateCommand:
    def test_inline_flags(self, capsys, tmp_path):
        base = tmp_path / "campaign"
        rc = main(
            [
                "simulate", "--model", "sphere", "--n", "40", "--trials", "3",
                "--seed", "7", "--beta", "1.0", "--spike", "monomial:1:2",
                "--output", str(base),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trials: 3" in out
        assert (tmp_path / "campaign.csv").exists()
        assert (tmp_path / "campaign.summary.json").exists()

    def test_config_file(self, capsys, tmp_path):
        config = ExperimentConfig(
            model="sphere", n=40, trials=2, master_seed=3, beta=1.0,
            spike=SpikeSpec.monomial(2.0, 1),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert main(["simulate", "--config", str(path)]) == 0
        assert "valid: 2" in capsys.readouterr().out

    def test_ball_model(self, capsys):
        rc = main(
            [
                "simulate", "--model", "ball", "--n", "60", "--trials", "2",
                "--seed", "5", "--beta", "1.0", "--spike", "monomial:1:1",
            ]
        )
        assert rc == 0
        assert "valid: 2" in capsys.readouterr().out

    def test_ball_quadratic_spike_at_the_tie(self, capsys, tmp_path):
        # an ulp from beta = sqrt2 h: this raised ZeroDivisionError in ball_saddle
        base = tmp_path / "tie"
        rc = main(["simulate", "--model", "ball", "--n", "20", "--trials", "2",
                   "--seed", "1", "--beta", "3.81877288770009",
                   "--spike", "monomial:2:2.7002802047040677", "--output", str(base)])
        assert rc == 0
        doc = json.loads((tmp_path / "tie.summary.json").read_text())
        assert doc["summary"]["residual_reason"] == "tied interior/boundary state"

    def test_missing_flags_rejected(self, capsys):
        rc = main(["simulate", "--model", "sphere", "--n", "40"])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err

    BAD_CONFIGS = {
        # a radial term built for another beta
        "mismatched.json": {
            "schema_version": 1, "model": "ball", "n": 40, "trials": 2, "master_seed": 1,
            "beta": 1.0, "spike": {"kind": "monomial", "h": 1.0, "k": 1},
            "radial": {"kind": "tap", "beta": 2.0},
        },
        "incomplete.json": {"schema_version": 1,
                            "spike": {"kind": "monomial", "h": 1.0, "k": 1}},
        # JSON values where the format wants objects
        "string_spike.json": {
            "schema_version": 1, "model": "sphere", "n": 40, "trials": 2, "master_seed": 1,
            "beta": 1.0, "spike": "monomial:1:1",
        },
        "array.json": [1, 2],
        "number_radial.json": {
            "schema_version": 1, "model": "ball", "n": 40, "trials": 2, "master_seed": 1,
            "beta": 1.0, "spike": {"kind": "monomial", "h": 1.0, "k": 1}, "radial": 1,
        },
        # the sphere has no radial term
        "sphere_radial.json": {
            "schema_version": 1, "model": "sphere", "n": 40, "trials": 2, "master_seed": 1,
            "beta": 1.0, "spike": {"kind": "monomial", "h": 1.0, "k": 1},
            "radial": {"kind": "tap", "beta": 1.0},
        },
    }
    # JSON values of the wrong type: integers are due for n, trials,
    # master_seed, parallelism and spike.k, numbers for the betas and spike.h,
    # and a non-empty list of numbers for spike.coeffs
    _SPHERE = {"schema_version": 1, "model": "sphere", "n": 40, "trials": 2,
               "master_seed": 1, "beta": 1.0, "spike": {"kind": "monomial", "h": 1.0, "k": 1}}
    _BALL = {**_SPHERE, "model": "ball"}
    WRONG_TYPES = {
        "float_n.json": {**_SPHERE, "n": 40.9},
        "float_trials.json": {**_SPHERE, "trials": 2.7},
        "float_seed.json": {**_SPHERE, "master_seed": 3.2},
        "bool_parallelism.json": {**_SPHERE, "parallelism": True},
        "string_beta.json": {**_SPHERE, "beta": "1.0"},
        "string_h.json": {**_SPHERE, "spike": {"kind": "monomial", "h": "1.0", "k": 1}},
        "null_h.json": {**_SPHERE, "spike": {"kind": "monomial", "h": None, "k": 1}},
        "list_h.json": {**_SPHERE, "spike": {"kind": "monomial", "h": [1], "k": 1}},
        "string_k.json": {**_SPHERE, "spike": {"kind": "monomial", "h": 1.0, "k": "1"}},
        "float_k.json": {**_SPHERE, "spike": {"kind": "monomial", "h": 1.0, "k": 1.0}},
        "string_radial_beta.json": {**_BALL, "radial": {"kind": "tap", "beta": "1.0"}},
        "string_coeffs.json": {**_SPHERE, "spike": {"kind": "polynomial", "coeffs": "0,1"}},
        "empty_coeffs.json": {**_SPHERE, "spike": {"kind": "polynomial", "coeffs": []}},
        "bool_coeff.json": {**_SPHERE, "spike": {"kind": "polynomial", "coeffs": [True]}},
        "string_coeff.json": {**_SPHERE, "spike": {"kind": "polynomial", "coeffs": ["1"]}},
        "null_coeff.json": {**_SPHERE, "spike": {"kind": "polynomial", "coeffs": [None]}},
        # out of range, or no longer a campaign setting
        "degree_33.json": {**_SPHERE, "spike": {"kind": "monomial", "h": 1.0, "k": 33}},
        "coeffs_34.json": {**_SPHERE, "spike": {"kind": "polynomial", "coeffs": [1.0] * 34}},
        "gaussian.json": {**_SPHERE, "spike": {"kind": "gaussian", "h": 1.0, "k": 1}},
        "rotate.json": {**_SPHERE, "sampling_mode": "rotate"},
    }

    @pytest.mark.parametrize("path", [5, ""])
    def test_bad_output_path_rejected_before_any_trial(self, capsys, monkeypatch, tmp_path, path):
        # such a config used to run every trial, then fail in emit with a traceback
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_run_trial", no_trial)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self._SPHERE, "output_path": path}))
        assert main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == (f"sklab simulate: config 'output_path' must be a non-empty string "
                       f"or null, got {path!r}\n")

    @pytest.mark.parametrize("flags", [
        ["--n", "1"],
        ["--config", "missing.json"],
        ["--config", "mismatched.json"],
        ["--config", "incomplete.json"],
        ["--model", "ball", "--beta", "inf"],
        ["--output", ""],
        ["--config", "string_spike.json"],
        ["--config", "array.json"],
        ["--config", "number_radial.json"],
        ["--config", "sphere_radial.json"],
        *[["--config", name] for name in WRONG_TYPES],
    ])
    def test_out_of_range_input_rejected(self, capsys, monkeypatch, tmp_path, flags):
        monkeypatch.chdir(tmp_path)
        for name, doc in {**self.BAD_CONFIGS, **self.WRONG_TYPES}.items():
            (tmp_path / name).write_text(json.dumps(doc))
        rc = main(["simulate", "--model", "sphere", "--n", "40", "--trials", "2",
                   "--seed", "1", "--beta", "1", "--spike", "monomial:1:1", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sklab simulate: ") and err.count("\n") == 1


class TestPhaseCommand:
    def test_h_grid_only(self, capsys):
        rc = main(["phase", "--k", "3", "--h-min", "0.5", "--h-max", "1.5",
                   "--h-steps", "3"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3
        assert rows[0]["beta"] == "" and rows[0]["maximizer_type"] == ""
        # critical couplings of a monomial scale linearly in the spike size
        assert float(rows[2]["beta_c"]) == pytest.approx(3 * float(rows[0]["beta_c"]))

    def test_full_grid_to_file(self, tmp_path):
        out = tmp_path / "phase.csv"
        rc = main(["phase", "--k", "1", "--h-min", "0.5", "--h-max", "1.0",
                   "--h-steps", "2", "--beta-min", "0.5", "--beta-max", "1.0",
                   "--beta-steps", "3", "--output", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        # a degree-1 spike aligns at every coupling: no finite beta_c
        assert all(r["beta_c"] == "" for r in rows)
        assert all(r["maximizer_type"] == "single" for r in rows)
        assert all(float(r["h_c"]) == 0.0 for r in rows)

    def test_degree_two_pair(self, capsys):
        rc = main(["phase", "--k", "2", "--h-min", "1.0", "--h-max", "1.0",
                   "--h-steps", "1", "--beta-min", "0.5", "--beta-max", "0.5",
                   "--beta-steps", "1"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["maximizer_type"] == "pair"

    def test_partial_beta_flags_rejected(self, capsys):
        rc = main(["phase", "--k", "1", "--h-min", "0.5", "--h-max", "1.0",
                   "--h-steps", "2", "--beta-min", "0.5"])
        assert rc == 2
        assert "together" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--k", "0"],
        ["--h-min", "0"],
        ["--beta-min", "0", "--beta-max", "1", "--beta-steps", "2"],
        ["--h-steps", "-1"],
        ["--beta-min", "0.5", "--beta-max", "1", "--beta-steps", "-2"],
        ["--h-max", "nan"],
        ["--beta-min", "0.5", "--beta-max", "inf", "--beta-steps", "2"],
        ["--k", "33"],
        ["--k", "10000"],
    ])
    def test_out_of_range_input_rejected(self, capsys, tmp_path, flags):
        out = tmp_path / "phase.csv"
        rc = main(["phase", "--k", "3", "--h-min", "0.5", "--h-max", "1.0",
                   "--h-steps", "2", "--output", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sklab phase: ") and err.count("\n") == 1
        assert not out.exists()


class TestVerifyCommand:
    def test_quick_crossref_passes(self, capsys):
        assert main(["verify", "--suite", "crossref", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        def failing_check():
            return CheckResult("stub", False, "forced failure")

        monkeypatch.setitem(SUITES, "crossref", [(failing_check, {})])
        assert main(["verify", "--suite", "crossref"]) == 1
        assert "FAIL — stub" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestChecks:
    def test_result_line_format(self):
        assert CheckResult("x", True, "d").line == "PASS — x: d"
        assert CheckResult("x", False, "d").line == "FAIL — x: d"

    def test_crossref_constants(self):
        result = check_crossref_constants(pairs=5)
        assert result.passed, result.detail

    def test_suites_cover_all_checks(self):
        names = [fn.__name__ for checks in SUITES.values() for fn, _ in checks]
        assert len(names) == len(set(names)) == 10

    def test_check_parameters_are_the_quick_kwargs(self):
        # a check's only parameters are what --quick sets; any other value is
        # a constant in its body
        for checks in SUITES.values():
            for fn, kwargs in checks:
                assert set(inspect.signature(fn).parameters) == set(kwargs), fn.__name__

    @pytest.mark.parametrize(
        "check, kwargs, detail",
        [
            (
                check_leading_order_lln,
                QUICK_KWARGS["check_leading_order_lln"],
                "19/20 trials within 0.05 of 3.0; |median - 3.0| = 0.0081 (tol 0.03)",
            ),
            (
                check_first_order_clt,
                QUICK_KWARGS["check_first_order_clt"],
                "var 0.3516 vs 0.3333 (±50%); mean 0.0078 vs 3se 0.1989",
            ),
            (
                check_lambda_law,
                QUICK_KWARGS["check_lambda_law"],
                "mean 0.1952 vs 0.1464 (3se 0.1647); var 0.2411 vs 0.25 (±50%)",
            ),
            (
                check_w_covariance,
                QUICK_KWARGS["check_w_covariance"],
                "relative errors (var, cov, var') [0.862, 2.526, 4.789] vs ±25% at n=300, M=78",
            ),
            (
                check_sphere_residual_trend,
                QUICK_KWARGS["check_sphere_residual_trend"],
                "n=100: 1.542, n=600: 0.492",
            ),
            (
                check_ball_pipeline,
                {"sizes": (100, 200), "trials": 12},
                "|r^2 - 0.5| = 1.1e-16; medians n=100: 0.089, n=200: 0.327",
            ),
            (
                check_crossref_constants,
                QUICK_KWARGS["check_crossref_constants"],
                "max deviation 2.32e-14 over 10 draws per degree (tol 1e-10)",
            ),
            (
                check_phase_boundaries,
                QUICK_KWARGS["check_phase_boundaries"],
                "max value tie gap 0.0e+00 (tol 1e-08); alignment threshold brackets at ±1% hold",
            ),
            (
                check_clt_quadrature,
                {"draws": 500},
                "quadrature (-4.7e-18, 1.0000000000) vs (0, 1); "
                "trace variance 0.9577 over 500 draws at n=200",
            ),
        ],
        ids=["02", "03", "04", "05", "06", "07", "08", "09", "10"],
    )
    def test_gate_figures_at_reduced_size(self, check, kwargs, detail):
        # the checks' printed figures, pinned at reduced sizes
        assert check(**kwargs).detail == detail

    def test_oracle_figure_at_reduced_size(self):
        # check 01's detail ends in its wall time, which is left unpinned
        detail = check_oracle_equivalence(**QUICK_KWARGS["check_oracle_equivalence"]).detail
        assert detail.rsplit(",", 1)[0] == (
            "max |reduced - direct|/n = 3.46e-12 over 20 instances (tol 1e-06"
        )
