"""Tests for the campaign runner: seeding, persistence, determinism."""

import csv
import ctypes
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import sklab.experiment_harness as harness
from sklab.experiment_harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    emit,
    load_config,
    parse_campaign_csv,
    parse_campaign_json,
    run_experiment,
    save_config,
    theory_sidecar,
)
from sklab.fluctuation_lab import compute_statistics, residual_ball, residual_sphere
from sklab.reduction_solver import solve_ball, solve_sphere
from sklab.rmt_core import sample_spectral_model
from sklab.theory_engine import (
    RadialSpec,
    SpikeSpec,
    fluct_params_sphere,
    maximize_ball_theory,
    maximize_sphere_theory,
)


def sphere_config(**over) -> ExperimentConfig:
    base = dict(
        model="sphere",
        n=80,
        trials=4,
        master_seed=42,
        beta=1.0,
        spike=SpikeSpec.monomial(2.0, 1),
        parallelism=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 17) == derive_seed(42, 17)

    def test_injective_over_campaign_range(self):
        seeds = {derive_seed(42, i) for i in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_masters_give_disjoint_streams(self):
        a = {derive_seed(1, i) for i in range(10_000)}
        b = {derive_seed(2, i) for i in range(10_000)}
        assert not (a & b)

    def test_output_is_64_bit(self):
        for i in (0, 1, 999_983):
            s = derive_seed(2**63 + 11, i)
            assert 0 <= s < 2**64


class TestConfig:
    def test_round_trip_through_file(self, tmp_path):
        cfg = ExperimentConfig(
            model="ball",
            n=50,
            trials=3,
            master_seed=9,
            beta=1.5,
            spike=SpikeSpec.monomial(1.0, 2),
            radial=RadialSpec.tap(1.5),
            output_path=str(tmp_path / "out"),
            output_format="json",
            parallelism=2,
        )
        path = str(tmp_path / "cfg.json")
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n must be"):
            sphere_config(n=1)
        with pytest.raises(ValueError, match="trials"):
            sphere_config(trials=0)
        with pytest.raises(ValueError, match="radial term was built for beta=2.0"):
            sphere_config(model="ball", radial=RadialSpec.tap(2.0))
        with pytest.raises(ValueError, match="sphere campaigns take no radial term"):
            sphere_config(radial=RadialSpec.tap(1.0))
        for data in ([1, 2], {**sphere_config().to_dict(), "spike": "monomial:1:1"},
                     {**sphere_config().to_dict(), "radial": 1}):
            with pytest.raises(ValueError, match="must be a JSON object"):
                ExperimentConfig.from_dict(data)
        for beta in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                sphere_config(beta=beta)
        with pytest.raises(ValueError, match="model"):
            sphere_config(model="torus")
        with pytest.raises(ValueError, match="monomial"):
            sphere_config(spike=SpikeSpec.polynomial([0, 1]))

    def test_radial_term_is_derived(self):
        assert sphere_config().radial is None
        ball = sphere_config(model="ball", beta=1.5)
        assert ball.radial == RadialSpec.tap(1.5)
        assert sphere_config(model="ball", beta=1.5, radial=RadialSpec.tap(1.5)) == ball
        doc = ball.to_dict()
        del doc["radial"]
        assert ExperimentConfig.from_dict(doc) == ball

    def test_sampling_mode_is_always_invariance(self):
        doc = sphere_config().to_dict()
        assert doc["sampling_mode"] == "invariance"
        assert ExperimentConfig.from_dict(doc) == sphere_config()
        del doc["sampling_mode"]
        assert ExperimentConfig.from_dict(doc) == sphere_config()
        with pytest.raises(ValueError, match="unknown sampling mode 'rotate'"):
            ExperimentConfig.from_dict({**doc, "sampling_mode": "rotate"})

    def test_config_numbers_must_have_their_json_type(self):
        # the CLI tests run each wrong type; here the message and the int-as-number case
        doc = sphere_config().to_dict()
        with pytest.raises(ValueError, match="config 'n' must be an integer, got 80.0"):
            ExperimentConfig.from_dict({**doc, "n": 80.0})
        with pytest.raises(ValueError, match="config 'beta' must be a number, got True"):
            ExperimentConfig.from_dict({**doc, "beta": True})
        assert ExperimentConfig.from_dict({**doc, "beta": 1}) == sphere_config()

    def test_unknown_output_format_rejected_before_running(self, tmp_path):
        out = str(tmp_path / "out")
        with pytest.raises(ValueError, match="output format"):
            sphere_config(output_format="xml", output_path=out)
        doc = sphere_config(output_path=out).to_dict()
        doc["output_format"] = "xml"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="output format"):
            load_config(str(path))

    def test_schema_version_checked(self, tmp_path):
        cfg = sphere_config()
        path = str(tmp_path / "cfg.json")
        save_config(cfg, path)
        doc = json.load(open(path))
        doc["schema_version"] = 99
        json.dump(doc, open(path, "w"))
        with pytest.raises(ValueError, match="schema version"):
            load_config(path)


class TestRunExperiment:
    def test_row_count_and_ordering(self, tmp_path):
        cfg = sphere_config(trials=2, output_path=str(tmp_path / "c"))
        records, summary, _ = run_experiment(cfg)
        assert [r.trial_index for r in records] == [0, 1]
        lines = open(tmp_path / "c.csv").read().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_seed_derivation_invariant(self):
        records, _, _ = run_experiment(sphere_config(trials=3))
        for rec in records:
            assert rec.derived_seed == derive_seed(42, rec.trial_index)

    def test_rerun_is_byte_identical_except_wall_time(self, tmp_path):
        cfg_a = sphere_config(trials=4, output_path=str(tmp_path / "a"))
        cfg_b = sphere_config(trials=4, output_path=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)

        def strip_wall(path):
            rows = list(csv.reader(open(path)))
            return [row[:-1] for row in rows]

        assert strip_wall(tmp_path / "a.csv") == strip_wall(tmp_path / "b.csv")

    def test_parallel_and_serial_runs_agree(self):
        serial, _, _ = run_experiment(sphere_config(trials=7, parallelism=1))
        parallel, _, _ = run_experiment(sphere_config(trials=7, parallelism=4))
        for a, b in zip(serial, parallel):
            for col in CSV_COLUMNS[:-1]:  # wall time may differ
                assert getattr(a, col) == getattr(b, col), col

    def test_crash_isolation(self, monkeypatch):
        real = harness.sample_spectral_model

        def flaky(n, seed):
            if seed == derive_seed(42, 2):
                raise np.linalg.LinAlgError("synthetic eigensolver failure")
            return real(n, seed=seed)

        monkeypatch.setattr(harness, "sample_spectral_model", flaky)
        records, summary, _ = run_experiment(sphere_config(trials=4))
        assert not records[2].valid
        assert records[2].value is None
        assert [r.valid for r in records if r.trial_index != 2] == [True] * 3
        assert summary["invalid_count"] == 1

    def test_programming_errors_abort_the_campaign(self, monkeypatch):
        # only numerical errors make invalid rows; a bug must not hide in one
        def broken(*args, **kwargs):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(harness, "solve_sphere", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(sphere_config(trials=2))

    def test_pole_proximate_trials_marked_invalid(self):
        # h=1 puts the dual point 0.029 above the support edge; at n=120 some
        # samples have their top eigenvalue beyond it and are flagged
        cfg = sphere_config(spike=SpikeSpec.monomial(1.0, 1), n=120, trials=8)
        records, summary, _ = run_experiment(cfg)
        flagged = [r for r in records if not r.valid]
        assert flagged, "expected at least one pole-proximate trial at this size"
        for rec in flagged:
            assert rec.U_N is None and rec.residual is None
            assert rec.value is not None  # the solve itself succeeded
        assert summary["invalid_count"] == len(flagged)

    def test_slow_trials_stay_valid(self, monkeypatch):
        # validity depends on (config, seed) only: a trial 1e4 times slower
        # than the others stays valid and the summary does not move
        _, plain, _ = run_experiment(sphere_config(trials=7))
        real = harness._run_trial

        def slowed(config_d, sidecar, idx, seed):
            record, stats = real(config_d, sidecar, idx, seed)
            if idx == 6:
                record.wall_time_ms *= 1e4
            return record, stats

        monkeypatch.setattr(harness, "_run_trial", slowed)
        records, summary, _ = run_experiment(sphere_config(trials=7))
        assert records[6].wall_time_ms > 1e3 * records[5].wall_time_ms
        assert all(r.valid for r in records)
        assert summary == plain

    def test_inapplicable_theory_leaves_residuals_empty(self):
        # degree-3 spike above the critical temperature: zero-overlap regime
        cfg = sphere_config(spike=SpikeSpec.monomial(1.0, 3), beta=2.0, trials=2)
        records, summary, sidecar = run_experiment(cfg)
        assert not sidecar["leading"]["applicable"]
        assert sidecar["fluctuation"] is None
        for rec in records:
            assert rec.value is not None
            assert rec.U_N is None and rec.residual is None
            assert rec.valid
        assert "median_abs_residual" not in summary

    def test_curvature_only_failure_keeps_statistics(self):
        # k=2 at beta = sqrt(2) h: pair merges, curvature degenerates -> the
        # leading order exists but the second-order constants do not
        cfg = sphere_config(spike=SpikeSpec.monomial(1.0, 2), beta=math.sqrt(2.0), trials=2)
        records, summary, sidecar = run_experiment(cfg)
        assert sidecar["fluctuation"] is None
        assert sidecar["reason"]
        if sidecar["leading"]["applicable"]:
            assert records[0].U_N is not None
            assert records[0].residual is None


class TestRunTrials:
    SEEDS = [5, 9, 1234]

    @staticmethod
    def config(model: str, parallelism: int) -> ExperimentConfig:
        return sphere_config(model=model, n=40, parallelism=parallelism)

    @pytest.mark.parametrize("model", ["sphere", "ball"])
    def test_seeds_pass_through_verbatim(self, model):
        cfg = self.config(model, 1)
        (lead, params, _), results = harness.run_trials(cfg, self.SEEDS)
        assert len(results) == len(self.SEEDS)
        for i, (seed, (rec, _)) in enumerate(zip(self.SEEDS, results)):
            assert rec.trial_index == i and rec.derived_seed == seed
            sample = sample_spectral_model(40, seed=seed)
            if model == "sphere":
                sol = solve_sphere(sample, cfg.beta, cfg.spike)
                residual = residual_sphere
            else:
                lo, hi = cfg.radial.domain
                sol = solve_ball(sample, cfg.beta, cfg.spike, (lo + 1e-9, hi - 1e-9))
                residual = residual_ball
            stats = compute_statistics(sample, lead.l_hat)
            assert rec.value == sol.value
            assert rec.residual == residual(sol.value, stats, lead, params)

    @pytest.mark.parametrize("model", ["sphere", "ball"])
    def test_pool_gives_the_serial_records(self, model):
        strip = lambda results: [replace(rec, wall_time_ms=0.0) for rec, _ in results]
        _, serial = harness.run_trials(self.config(model, 1), self.SEEDS)
        _, pooled = harness.run_trials(self.config(model, 2), self.SEEDS)
        assert strip(serial) == strip(pooled)


def test_pool_carries_polynomial_spikes():
    # a spike is plain numbers, so it pickles into the workers
    spikes = [SpikeSpec.polynomial([0, 0.8, 0, 0.3]), SpikeSpec.polynomial([0, 1])]
    serial = [maximize_ball_theory(f, 1.0) for f in spikes]
    assert harness.pool_map(2, maximize_ball_theory, spikes, [1.0, 1.0]) == serial


def openblas_threads() -> list[int]:
    """Thread count of every OpenBLAS loaded in this process, read through ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


def test_pool_workers_run_single_threaded_blas():
    # the workers are forked after NumPy loaded OpenBLAS, so the pin must act
    # on the loaded libraries, not on the environment
    try:
        with ProcessPoolExecutor(1, initializer=harness._single_thread_env) as pool:
            counts = pool.submit(openblas_threads).result()
    except FileNotFoundError:
        pytest.skip("no /proc/self/maps")
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    assert counts == [1] * len(counts)


class TestSidecar:
    def test_sphere_sidecar_matches_fresh_theory(self):
        cfg = sphere_config()
        side = theory_sidecar(cfg)
        lead = maximize_sphere_theory(cfg.spike, cfg.beta)
        par = fluct_params_sphere(cfg.spike, cfg.beta, lead)
        assert side["leading"]["alpha_hat"] == pytest.approx(lead.alpha_hat, abs=1e-12)
        assert side["leading"]["value"] == pytest.approx(lead.value, abs=1e-12)
        assert side["fluctuation"]["kappa"] == pytest.approx(par.kappa, abs=1e-12)
        assert np.allclose(side["fluctuation"]["G"], par.G, atol=1e-12)
        assert np.allclose(side["fluctuation"]["G_resid"], par.G_resid, atol=1e-12)

    def test_ball_sidecar_exposes_radius(self):
        cfg = ExperimentConfig(
            model="ball",
            n=50,
            trials=1,
            master_seed=1,
            beta=1.0,
            spike=SpikeSpec.monomial(1.0, 1),
            radial=RadialSpec.tap(1.0),
        )
        side = theory_sidecar(cfg)
        lead = maximize_ball_theory(cfg.spike, cfg.beta)
        assert side["leading"]["r_hat"] == pytest.approx(lead.r_hat, abs=1e-12)
        assert side["fluctuation"]["kappa"] == pytest.approx(0.25, abs=1e-12)


def random_records(count: int, rng: np.random.Generator) -> list[TrialRecord]:
    out = []
    for i in range(count):
        maybe = lambda x: None if rng.random() < 0.2 else float(x)
        out.append(
            TrialRecord(
                trial_index=i,
                derived_seed=int(rng.integers(0, 2**63)),
                n=int(rng.integers(2, 5000)),
                value=float(rng.normal() * 10.0 ** float(rng.integers(-3, 4))),
                alpha_star=maybe(rng.uniform(-1, 1)),
                r_star=maybe(rng.uniform(0, 1)),
                l_star=maybe(rng.uniform(1.4, 3)),
                U_N=maybe(rng.normal()),
                Uprime_N=maybe(rng.normal()),
                Lambda_N=maybe(rng.normal()),
                W_N=maybe(rng.normal()),
                Wprime_N=maybe(rng.normal()),
                X_N=maybe(rng.normal()),
                Y_N=maybe(rng.normal()),
                residual=maybe(rng.normal()),
                valid=bool(rng.random() < 0.9),
                wall_time_ms=float(abs(rng.normal()) * 100),
            )
        )
    return out


class TestPersistence:
    def test_csv_header_is_frozen(self):
        # the persisted format of SCHEMA_VERSION 1; reordering TrialRecord
        # fields would change it
        assert ",".join(CSV_COLUMNS) == (
            "trial_index,derived_seed,n,value,alpha_star,r_star,l_star,U_N,Uprime_N,"
            "Lambda_N,W_N,Wprime_N,X_N,Y_N,residual,valid,wall_time_ms"
        )

    def test_sidecar_keys_are_frozen(self):
        # the persisted theory block of SCHEMA_VERSION 1; Sigma and G_resid
        # are derived properties, so no dataclass field pins their keys
        side = theory_sidecar(sphere_config())
        assert list(side["fluctuation"]) == [
            "kappa", "G", "G_resid", "w", "h_ll", "var_U", "var_Uprime",
            "cov_UUprime", "lambda_mean", "lambda_var", "Sigma",
        ]
        assert list(side["leading"]) == [
            "alpha_hat", "l_hat", "z_hat", "value", "multiplicity", "r_hat",
            "applicable", "reason",
        ]

    def test_csv_round_trip_of_random_records(self, tmp_path):
        records = random_records(100, np.random.default_rng(5))
        emit(records, {"valid_count": 1}, {"leading": None}, str(tmp_path / "r"), "csv")
        assert parse_campaign_csv(str(tmp_path / "r.csv")) == records

    def test_json_round_trip_of_random_records(self, tmp_path):
        records = random_records(40, np.random.default_rng(6))
        emit(records, {"valid_count": 1}, {"leading": None}, str(tmp_path / "r"), "json")
        parsed, summary, theory = parse_campaign_json(str(tmp_path / "r.json"))
        assert parsed == records
        assert summary == {"valid_count": 1}

    def test_csv_and_json_agree_field_by_field(self, tmp_path):
        cfg = sphere_config(trials=3)
        records, summary, sidecar = run_experiment(cfg)
        emit(records, summary, sidecar, str(tmp_path / "c"), "csv")
        emit(records, summary, sidecar, str(tmp_path / "c"), "json")
        from_csv = parse_campaign_csv(str(tmp_path / "c.csv"))
        from_json, _, _ = parse_campaign_json(str(tmp_path / "c.json"))
        assert from_csv == from_json

    def test_optional_fields_serialized_empty_not_zero(self, tmp_path):
        records, _, _ = run_experiment(sphere_config(trials=1))
        emit(records, {}, {}, str(tmp_path / "e"), "csv")
        rows = list(csv.reader(open(tmp_path / "e.csv")))
        r_star_col = CSV_COLUMNS.index("r_star")
        assert rows[1][r_star_col] == ""

    def test_float_formatting_is_17_significant_digits(self, tmp_path):
        rec = random_records(1, np.random.default_rng(7))[0]
        rec.value = 0.1
        emit([rec], {}, {}, str(tmp_path / "f"), "csv")
        rows = list(csv.reader(open(tmp_path / "f.csv")))
        assert rows[1][CSV_COLUMNS.index("value")] == "0.10000000000000001"

    def test_empty_emit_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit([], {}, {}, str(tmp_path / "x"), "csv")

    def test_unknown_format_rejected(self, tmp_path):
        records = random_records(1, np.random.default_rng(8))
        with pytest.raises(ValueError, match="format"):
            emit(records, {}, {}, str(tmp_path / "x"), "yaml")

    def test_csv_column_validation_on_parse(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            parse_campaign_csv(str(path))
