"""Reproducible Monte Carlo campaigns over the spiked ground-state solvers.

A campaign is described by an :class:`ExperimentConfig` (JSON-serializable,
schema-versioned).  Each trial draws a sample from its seed, solves the
finite-n problem, evaluates the fluctuation statistics at the theoretical
dual point and computes the second-order residual.  :func:`run_trials` runs
one trial per explicit seed; the verification gate calls it directly, and a
campaign calls it on seeds derived from the master seed and the trial index.
Results are persisted as a CSV table (fixed column order, floats at 17
significant digits) plus a JSON mirror carrying the aggregate summary and a
theory sidecar, so a campaign re-run is byte-identical apart from wall times.

The limit theory is computed once per run and every trial takes the same
path, :func:`_run_trial` applied to the configuration, the theory, the trial
index and the seed, through :func:`pool_map`: in this process with
``parallelism == 1``, otherwise in a pool of ``parallelism`` worker
processes whose OpenBLAS runs one thread each.  The output is ordered by
trial index, independent of scheduling.  A trial that raises a numerical
error becomes a ``valid=false`` row; any other exception is a bug and aborts
the campaign.
Validity depends on the configuration and the seed only, never on how long
a trial took.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from typing import Literal, Sequence

import numpy as np

from .fluctuation_lab import (
    FluctuationSample,
    aggregate,
    compute_statistics,
    residual_ball,
    residual_sphere,
)
from .reduction_solver import StationarityError, solve_ball, solve_sphere
from .rmt_core import PoleError, sample_spectral_model
from .theory_engine import (
    FluctuationParams,
    InapplicableRegimeError,
    LeadingOrder,
    RadialSpec,
    SpikeSpec,
    fluct_params_ball,
    fluct_params_sphere,
    maximize_ball_theory,
    maximize_sphere_theory,
)

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "SCHEMA_VERSION",
    "TrialRecord",
    "derive_seed",
    "emit",
    "load_config",
    "parse_campaign_csv",
    "parse_campaign_json",
    "pool_map",
    "run_experiment",
    "run_trials",
    "save_config",
    "theory_sidecar",
]

SCHEMA_VERSION = 1

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def derive_seed(master: int, trial_index: int) -> int:
    """Stateless 64-bit seed for one trial: splitmix64 of master + index step.

    The mixing finalizer is bijective on 64-bit words, so for a fixed master
    the map ``trial_index -> seed`` is injective (indices are spaced by an
    odd constant, and odd multiples are invertible mod 2^64).
    """
    z = (int(master) + (trial_index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@dataclass
class ExperimentConfig:
    """Declarative description of a Monte Carlo campaign.

    Only monomial spikes are allowed here, because the config format
    (``{"kind": "monomial", ...}``) spells no other spike.  ``radial`` is
    derived: the TAP radial term of the campaign's own ``beta`` for the
    ball, None for the sphere.  The config and sidecar formats still record
    it, so an explicit value is accepted when it equals the derived one.
    The format also records ``"sampling_mode": "invariance"``, the one
    sampler; ``from_dict`` rejects any other value.
    """

    model: Literal["sphere", "ball"]
    n: int
    trials: int
    master_seed: int
    beta: float
    spike: SpikeSpec
    radial: RadialSpec | None = None
    output_path: str | None = None
    output_format: Literal["csv", "json"] = "csv"
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.model not in ("sphere", "ball"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.spike.kind != "monomial":
            raise ValueError("campaign configs support monomial spikes only")
        derived = RadialSpec.tap(self.beta) if self.model == "ball" else None
        if self.radial is None:
            self.radial = derived
        elif derived is None:
            raise ValueError("sphere campaigns take no radial term")
        elif self.radial != derived:
            raise ValueError(
                f"radial term was built for beta={self.radial.beta}, "
                f"but the campaign's beta is {self.beta}"
            )
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "beta": self.beta,
            "spike": self.spike.to_dict(),
            "radial": self.radial.to_dict() if self.radial is not None else None,
            "output_path": self.output_path,
            "output_format": self.output_format,
            "parallelism": self.parallelism,
            "sampling_mode": "invariance",
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _require_object(data, "config")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported config schema version {version!r} (expected {SCHEMA_VERSION})"
            )
        spike_d = _require_object(_required(data, "spike"), "spike")
        if spike_d.get("kind") != "monomial":
            raise ValueError("campaign configs support monomial spikes only")
        radial_d = data.get("radial")
        if radial_d is not None and _require_object(radial_d, "radial").get("kind") != "tap":
            raise ValueError("campaign configs support the tap radial term only")
        mode = data.get("sampling_mode", "invariance")
        if mode != "invariance":
            raise ValueError(f"unknown sampling mode {mode!r}")
        return cls(
            model=_required(data, "model"),
            n=_required(data, "n", kind=int),
            trials=_required(data, "trials", kind=int),
            master_seed=_required(data, "master_seed", kind=int),
            beta=_required(data, "beta", kind=float),
            spike=SpikeSpec.monomial(
                _required(spike_d, "h", "spike.", float), _required(spike_d, "k", "spike.", int)
            ),
            radial=(
                None if radial_d is None
                else RadialSpec.tap(_required(radial_d, "beta", "radial.", float))
            ),
            output_path=data.get("output_path"),
            output_format=data.get("output_format", "csv"),
            parallelism=_number(data.get("parallelism", 1), "parallelism", int),
        )


def _require_object(value, name: str) -> dict:
    """``value`` if it is a JSON object; anything else is a ``ValueError``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _required(data: dict, key: str, prefix: str = "", kind: type | None = None):
    """``data[key]``, through :func:`_number` when ``kind`` is given.

    A missing key is a ``ValueError`` naming it.
    """
    if key not in data:
        raise ValueError(f"config is missing {prefix + key!r}")
    return data[key] if kind is None else _number(data[key], prefix + key, kind)


def _number(value, name: str, kind: type):
    """``value`` as ``kind``: a JSON integer for ``int``, any JSON number for ``float``.

    Anything else, a bool included, is a ``ValueError`` naming the key.
    """
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config {name!r} must be {what}, got {value!r}")
    return kind(value)


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


@dataclass
class TrialRecord:
    """One persisted campaign row; its field order is ``CSV_COLUMNS``."""

    trial_index: int
    derived_seed: int
    n: int
    value: float | None
    alpha_star: float | None
    r_star: float | None
    l_star: float | None
    U_N: float | None
    Uprime_N: float | None
    Lambda_N: float | None
    W_N: float | None
    Wprime_N: float | None
    X_N: float | None
    Y_N: float | None
    residual: float | None
    valid: bool
    wall_time_ms: float


#: exact persisted column order
CSV_COLUMNS = [f.name for f in fields(TrialRecord)]


def _theory(
    config: ExperimentConfig,
) -> tuple[LeadingOrder, FluctuationParams | None, str | None]:
    """Leading order and fluctuation constants of a campaign.

    The constants are None, with the reason, whenever the second-order
    description does not apply (zero overlap, flat curvature).
    """
    if config.model == "sphere":
        leading = maximize_sphere_theory(config.spike, config.beta)
    else:
        leading = maximize_ball_theory(config.spike, config.beta)
    try:
        if config.model == "sphere":
            params = fluct_params_sphere(config.spike, config.beta, leading)
        else:
            params = fluct_params_ball(config.spike, config.beta, leading)
    except InapplicableRegimeError as err:
        return leading, None, str(err)
    return leading, params, None


def _sidecar(
    config: ExperimentConfig,
    leading: LeadingOrder,
    params: FluctuationParams | None,
    reason: str | None,
) -> dict:
    fluctuation = None
    if params is not None:
        fluctuation = {
            "kappa": params.kappa,
            "G": params.G.tolist(),
            "G_resid": params.G_resid.tolist(),
            "w": params.w.tolist(),
            "h_ll": params.h_ll,
            "var_U": params.var_U,
            "var_Uprime": params.var_Uprime,
            "cov_UUprime": params.cov_UUprime,
            "lambda_mean": params.lambda_mean,
            "lambda_var": params.lambda_var,
            "Sigma": params.Sigma.tolist(),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "model": config.model,
        "beta": config.beta,
        "spike": config.spike.to_dict(),
        "radial": config.radial.to_dict() if config.radial is not None else None,
        "leading": asdict(leading),
        "fluctuation": fluctuation,
        "reason": reason,
    }


def theory_sidecar(config: ExperimentConfig) -> dict:
    """Limit theory of a campaign: leading order plus fluctuation constants.

    ``fluctuation`` is None with an explanatory ``reason`` whenever the
    second-order description does not apply (zero overlap, flat curvature);
    the campaign then emits empty residual columns.
    """
    return _sidecar(config, *_theory(config))


#: OpenBLAS thread setters, by build (SciPy's wheels prefix and suffix them)
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _single_thread_env() -> None:
    """Pin every OpenBLAS loaded in this process to one thread.

    Pool workers are forked after NumPy has loaded OpenBLAS, so the
    ``*_NUM_THREADS`` variables are read too late; the count is set through
    each library found in ``/proc/self/maps`` instead.  Without that file or
    a known setter this does nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, s) for s in _BLAS_SETTERS if hasattr(lib, s)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def pool_map(parallelism: int, fn, *iterables) -> list:
    """``list(map(fn, *iterables))``; above one, in ``parallelism`` one-thread-BLAS workers.

    Pool workers need ``fn`` to be a module-level function.
    """
    if parallelism == 1:
        return list(map(fn, *iterables))
    with ProcessPoolExecutor(parallelism, initializer=_single_thread_env) as pool:
        return list(pool.map(fn, *iterables))


#: errors that make a trial an invalid row; anything else aborts the campaign
_NUMERICAL_ERRORS = (np.linalg.LinAlgError, PoleError, StationarityError, FloatingPointError)


def _run_trial(
    config: ExperimentConfig,
    theory: tuple[LeadingOrder, FluctuationParams | None],
    trial_index: int,
    seed: int,
) -> tuple[TrialRecord, FluctuationSample | None]:
    """Execute one trial; numerical errors become invalid rows, bugs propagate."""
    start = time.perf_counter()

    def elapsed_ms() -> float:
        return (time.perf_counter() - start) * 1e3

    try:
        sample = sample_spectral_model(config.n, seed=seed)
        if config.model == "sphere":
            sol = solve_sphere(sample, config.beta, config.spike)
            r_star = None
        else:
            lo, hi = config.radial.domain
            # the endpoints of the Plefka interval are open
            sol = solve_ball(sample, config.beta, config.spike, (lo + 1e-9, hi - 1e-9))
            r_star = sol.r_star
    except _NUMERICAL_ERRORS:
        invalid = TrialRecord(trial_index, seed, config.n, *([None] * 12), False, elapsed_ms())
        return invalid, None

    leading, params = theory
    stats = residual = None
    valid = True
    if leading.applicable:
        try:
            stats = compute_statistics(sample, leading.l_hat)
        except PoleError:
            valid = False
        if stats is not None and params is not None:
            res_fn = residual_sphere if config.model == "sphere" else residual_ball
            residual = res_fn(sol.value, stats, leading, params)

    record = TrialRecord(
        trial_index=trial_index,
        derived_seed=seed,
        n=config.n,
        value=sol.value,
        alpha_star=sol.alpha_star,
        r_star=r_star,
        l_star=sol.l_star,
        U_N=stats.U if stats else None,
        Uprime_N=stats.Uprime if stats else None,
        Lambda_N=stats.Lambda if stats else None,
        W_N=stats.W if stats else None,
        Wprime_N=stats.Wprime if stats else None,
        X_N=stats.X if stats else None,
        Y_N=stats.Y if stats else None,
        residual=residual,
        valid=valid,
        wall_time_ms=elapsed_ms(),
    )
    return record, stats


def run_trials(
    config: ExperimentConfig, seeds: Sequence[int]
) -> tuple[tuple, list[tuple[TrialRecord, FluctuationSample | None]]]:
    """Run trial ``i`` on ``seeds[i]``; return ``(theory, [(record, stats), ...])``.

    ``theory`` is ``(leading, params, reason)`` as for the sidecar, computed
    once.  ``config.trials`` and ``config.master_seed`` are not read.
    """
    leading, params, reason = _theory(config)
    results = pool_map(
        config.parallelism, _run_trial,
        repeat(config), repeat((leading, params)), range(len(seeds)), seeds,
    )
    return (leading, params, reason), results


def run_experiment(
    config: ExperimentConfig,
) -> tuple[list[TrialRecord], dict, dict]:
    """Run a campaign and return ``(records, summary, theory sidecar)``.

    Records are ordered by trial index regardless of scheduling.  The summary
    holds the aggregate moments/KS distances of the valid trials (when at
    least two exist), the valid/invalid counts, and the median absolute
    residual.  With ``config.output_path`` set the results are also persisted
    via :func:`emit`.
    """
    seeds = [derive_seed(config.master_seed, i) for i in range(config.trials)]
    (leading, params, reason), results = run_trials(config, seeds)
    sidecar = _sidecar(config, leading, params, reason)
    records = [rec for rec, _ in results]
    usable = [s for rec, s in results if rec.valid and s is not None]
    summary: dict = {
        "valid_count": sum(1 for r in records if r.valid),
        "invalid_count": sum(1 for r in records if not r.valid),
    }
    if len(usable) >= 2:
        summary.update(aggregate(usable, params))
    else:
        summary["reason"] = "fewer than 2 valid trials with statistics"
    residuals = [r.residual for r in records if r.valid and r.residual is not None]
    if residuals:
        summary["median_abs_residual"] = float(np.median(np.abs(residuals)))
    elif reason is not None:
        summary["residual_reason"] = reason

    if config.output_path is not None:
        emit(records, summary, sidecar, config.output_path, config.output_format)
    return records, summary, sidecar


# ---------------------------------------------------------------------------
# Persistence


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % value


def emit(
    records: Sequence[TrialRecord],
    summary: dict,
    sidecar: dict,
    base_path: str,
    output_format: Literal["csv", "json"] = "csv",
) -> list[str]:
    """Persist a campaign under ``base_path`` (extension added per format).

    ``csv`` writes the record table (columns exactly ``CSV_COLUMNS``, floats
    as %.17g, empty fields for missing optionals) plus a ``.summary.json``
    with the aggregate and the theory sidecar; ``json`` writes one document
    with records, summary and theory.  On an I/O failure a ``.partial``
    marker is left next to the output so truncated campaigns are detectable.
    """
    if not records:
        raise ValueError("nothing to emit: no records")
    written: list[str] = []
    try:
        if output_format == "csv":
            csv_path = base_path + ".csv"
            with open(csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_COLUMNS)
                for rec in records:
                    writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])
            written.append(csv_path)
            meta_path = base_path + ".summary.json"
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump({"summary": summary, "theory": sidecar}, fh, indent=2)
                fh.write("\n")
            written.append(meta_path)
        elif output_format == "json":
            json_path = base_path + ".json"
            doc = {
                "schema_version": SCHEMA_VERSION,
                "records": [asdict(rec) for rec in records],
                "summary": summary,
                "theory": sidecar,
            }
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            written.append(json_path)
        else:
            raise ValueError(f"unknown output format {output_format!r}")
    except OSError:
        try:
            with open(base_path + ".partial", "w", encoding="utf-8") as fh:
                fh.write("incomplete campaign output\n")
        except OSError:
            pass
        raise
    return written


def parse_campaign_csv(path: str) -> list[TrialRecord]:
    """Read back an emitted CSV; exact inverse of :func:`emit` for csv."""
    out: list[TrialRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected columns: {reader.fieldnames}")
        for row in reader:
            kwargs = {}
            for col in CSV_COLUMNS:
                raw = row[col]
                if col in ("trial_index", "derived_seed", "n"):
                    kwargs[col] = int(raw)
                elif col == "valid":
                    kwargs[col] = raw == "true"
                else:
                    kwargs[col] = float(raw) if raw != "" else None
            out.append(TrialRecord(**kwargs))
    return out


def parse_campaign_json(path: str) -> tuple[list[TrialRecord], dict, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported campaign schema {doc.get('schema_version')!r}")
    records = [TrialRecord(**rec) for rec in doc["records"]]
    return records, doc["summary"], doc["theory"]
