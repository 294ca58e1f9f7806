"""Command line interface: theory lookups, campaigns, phase maps, verification.

Subcommands
-----------
``theory``    print the limiting maximizer and fluctuation constants of a spike.
``simulate``  run a Monte Carlo campaign from a JSON config or inline flags.
``phase``     tabulate critical temperatures and thresholds over a parameter grid.
``verify``    run a named verification suite; exit code 0 iff every check passes.

The verification suites are below; each check function returns a
:class:`CheckResult` and is importable for use in test code.  ``--quick``
substitutes reduced sizes (smoke variants with wider bands) for the stated
Monte Carlo volumes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .experiment_harness import (
    ExperimentConfig,
    load_config,
    pool_map,
    run_experiment,
    run_trials,
    theory_sidecar,
)
from .fluctuation_lab import compute_statistics
from .reduction_solver import oracle_direct, solve_sphere
from .rmt_core import linear_stat_clt, sample_goe, sample_spectral_model
from .theory_engine import (
    SpikeSpec,
    ball_saddle,
    check_degree,
    corollary_constants,
    critical_betas,
    evaluate_B,
    fluct_params_sphere,
    generic_minimax_params,
    maximize_ball_theory,
    maximize_sphere_theory,
    tap_threshold,
)


def parse_spike(text: str) -> SpikeSpec:
    """Parse ``monomial:K:H`` into a spike profile."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "monomial":
        raise argparse.ArgumentTypeError(
            f"expected spike format monomial:K:H, got {text!r}"
        )
    try:
        return SpikeSpec.monomial(float(parts[2]), int(parts[1]))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


# ---------------------------------------------------------------------------
# Verification checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} — {self.name}: {self.detail}"


def _oracle_gap(n: int, beta: float, coeff: float, seed: int) -> float:
    """Per-site gap between the reduced solver and the direct ascent on one draw."""
    spike = SpikeSpec.monomial(coeff, 1)
    sample = sample_spectral_model(n, seed=seed)
    sol = solve_sphere(sample, beta, spike)
    return abs(sol.value - oracle_direct(sample, beta, spike)) / n


def check_oracle_equivalence(
    instances: int = 100, n: int = 6, beta: float = 1.0, coeff: float = 0.7,
    tol: float = 1e-6,
) -> CheckResult:
    """Reduced solver vs direct ascent witness on small random instances."""
    start = time.perf_counter()
    seeds = range(10_000, 10_000 + instances)
    # two one-thread workers, as in _gate_trials
    gaps = pool_map(2, _oracle_gap, repeat(n), repeat(beta), repeat(coeff), seeds)
    worst = max(gaps)
    elapsed = time.perf_counter() - start
    return CheckResult(
        "oracle equivalence",
        worst <= tol,
        f"max |reduced - direct|/n = {worst:.2e} over {instances} instances "
        f"(tol {tol:.0e}, {elapsed:.1f}s)",
    )


def check_clt_quadrature(draws: int = 10_000, n: int = 200) -> CheckResult:
    """Quadrature values of the linear-statistic CLT vs a trace Monte Carlo."""
    mean, var = linear_stat_clt(lambda x: x, lambda x: 1.0)
    exact_ok = abs(mean) <= 1e-8 and abs(var - 1.0) <= 1e-8
    traces = np.empty(draws)
    for i in range(draws):
        # the eigenvalue sum of J/sqrt(n) is exactly the normalized trace
        traces[i] = np.trace(sample_goe(n, seed=80_000 + i)) / math.sqrt(n)
    mc_var = float(traces.var(ddof=1))
    mc_ok = abs(mc_var - var) <= 0.10 * var
    return CheckResult(
        "linear-statistic quadrature",
        exact_ok and mc_ok,
        f"quadrature ({mean:.1e}, {var:.10f}) vs (0, 1); "
        f"trace variance {mc_var:.4f} over {draws} draws at n={n}",
    )


def _gate_trials(model: str, beta: float, n: int, trials: int, seed_base: int) -> tuple:
    """Campaign trials of ``monomial:1:1`` on seeds ``seed_base + i``.

    Two pool workers with one-thread OpenBLAS keep the figures independent of
    the core count.  Returns the leading order, the constants and the records.
    """
    config = ExperimentConfig(
        model=model, n=n, trials=trials, master_seed=seed_base, beta=beta,
        spike=SpikeSpec.monomial(1.0, 1), parallelism=2,
    )
    (lead, params, _), results = run_trials(config, range(seed_base, seed_base + trials))
    return lead, params, [rec for rec, _ in results]


def check_leading_order_lln(
    n: int = 2000, trials: int = 100, band: float = 0.05, min_within: int = 95,
    median_tol: float = 0.01,
) -> CheckResult:
    """Ground state per coordinate concentrates on the limit value 3."""
    target = 3.0  # sqrt(h^2 + 2 beta^2) at h=1, beta=2
    _, _, records = _gate_trials("sphere", 2.0, n, trials, 20_000)
    vals = np.array([r.value / n for r in records if r.value is not None])
    within = int(np.sum(np.abs(vals - target) <= band))
    med_err = abs(float(np.median(vals)) - target)
    return CheckResult(
        "leading-order concentration",
        within >= min_within and med_err <= median_tol,
        f"{within}/{trials} trials within {band} of {target}; "
        f"|median - {target}| = {med_err:.4f} (tol {median_tol})",
    )


def check_first_order_clt(
    n: int = 1000, trials: int = 400, var_rtol: float = 0.20
) -> CheckResult:
    """Scaled ground-state deviations have the predicted Gaussian variance."""
    target = 1.0 / 3.0  # kappa^2 Var(U) = beta^2 h^2 / (h^2 + 2 beta^2)
    lead, _, records = _gate_trials("sphere", 1.0, n, trials, 30_000)
    values = np.array([r.value for r in records if r.value is not None])
    scaled = (values - n * lead.value) / math.sqrt(n)
    var = float(scaled.var(ddof=1))
    mean = float(scaled.mean())
    se = math.sqrt(var / len(scaled))
    var_ok = abs(var - target) <= var_rtol * target
    mean_ok = abs(mean) <= 3.0 * se
    return CheckResult(
        "first-order fluctuation variance",
        var_ok and mean_ok,
        f"var {var:.4f} vs {target:.4f} (±{var_rtol:.0%}); mean {mean:.4f} "
        f"vs 3se {3 * se:.4f}",
    )


def _trace_error(n: int, l: float, seed: int) -> float:
    """The trace-error statistic of one sampled draw at the point ``l``."""
    sample = sample_spectral_model(n, seed=seed)
    return compute_statistics(sample, l).Lambda


def check_lambda_law(
    n: int = 1000, trials: int = 400, var_rtol: float = 0.25
) -> CheckResult:
    """Trace-error statistic at a fixed point matches its Gaussian law."""
    l = 2.0  # the targets below are the law at this point
    target_mean = (2.0 - math.sqrt(2.0)) / 4.0
    target_var = 0.25
    # two one-thread workers, as in _gate_trials
    seeds = range(40_000, 40_000 + trials)
    vals = np.array(pool_map(2, _trace_error, repeat(n), repeat(l), seeds))
    mean, var = float(vals.mean()), float(vals.var(ddof=1))
    se = math.sqrt(var / trials)
    mean_ok = abs(mean - target_mean) <= 3.0 * se
    var_ok = abs(var - target_var) <= var_rtol * target_var
    return CheckResult(
        "trace-error statistic law",
        mean_ok and var_ok,
        f"mean {mean:.4f} vs {target_mean:.4f} (3se {3 * se:.4f}); "
        f"var {var:.4f} vs {target_var} (±{var_rtol:.0%})",
    )


def check_w_covariance(
    n: int = 1000, trials: int = 400, rtol: float = 0.25
) -> CheckResult:
    """Location-statistic covariance vs its limit at the h=1, beta=1 point."""
    _, params, records = _gate_trials("sphere", 1.0, n, trials, 50_000)
    w = [(r.W_N, r.Wprime_N) for r in records if r.W_N is not None]
    emp = np.cov(np.array(w).T, ddof=1)
    rel = np.abs(emp - params.Sigma) / np.abs(params.Sigma)
    flat = [round(float(r), 3) for r in rel[np.triu_indices(2)]]
    return CheckResult(
        "location-statistic covariance",
        bool(np.all(rel <= rtol)),
        f"relative errors (var, cov, var') {flat} vs ±{rtol:.0%} "
        f"at n={n}, M={len(w)}",
    )


def _residual_medians(
    model: str, sizes: tuple[int, ...], trials: int, seed_base: int
) -> list[float]:
    """Median |residual| at each size, over the draws that have statistics."""
    runs = [_gate_trials(model, 1.0, n, trials, seed_base)[2] for n in sizes]
    return [
        float(np.median([abs(r.residual) for r in rs if r.residual is not None]))
        for rs in runs
    ]


def check_sphere_residual_trend(
    sizes: tuple[int, ...] = (250, 500, 1000), trials: int = 100
) -> CheckResult:
    """Median second-order sphere residual decreases with n."""
    medians = _residual_medians("sphere", sizes, trials, 60_000)
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    pairs = ", ".join(f"n={n}: {m:.3f}" for n, m in zip(sizes, medians))
    return CheckResult("sphere residual trend", decreasing, pairs)


def check_ball_pipeline(
    sizes: tuple[int, ...] = (250, 500, 1000), trials: int = 100
) -> CheckResult:
    """Exact radial maximizer plus decreasing ball residual medians."""
    lead = maximize_ball_theory(SpikeSpec.monomial(1.0, 1), 1.0)
    r2_err = abs(lead.r_hat**2 - 0.5)
    medians = _residual_medians("ball", sizes, trials, 70_000)
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    pairs = ", ".join(f"n={n}: {m:.3f}" for n, m in zip(sizes, medians))
    return CheckResult(
        "ball pipeline",
        r2_err <= 1e-10 and decreasing,
        f"|r^2 - 0.5| = {r2_err:.1e}; medians {pairs}",
    )


def _max_param_deviation(a, b) -> float:
    """Largest entrywise deviation between two constant sets, scaled for size."""
    worst = 0.0
    for x, y in (
        (a.kappa, b.kappa),
        (a.var_U, b.var_U),
        (a.var_Uprime, b.var_Uprime),
        (a.cov_UUprime, b.cov_UUprime),
        (a.lambda_mean, b.lambda_mean),
        (a.lambda_var, b.lambda_var),
        (a.h_ll, b.h_ll),
    ):
        worst = max(worst, abs(x - y) / max(1.0, abs(y)))
    for x, y in ((a.G, b.G), (a.Sigma, b.Sigma), (a.w, b.w)):
        scale = np.maximum(1.0, np.abs(y))
        worst = max(worst, float(np.max(np.abs(x - y) / scale)))
    # entries of G_resid can be exact cancellations of large G and dual
    # contributions, so measure them against the ingredient magnitudes
    scale = np.maximum(1.0, np.maximum(np.abs(b.G_resid), np.abs(b.G)))
    worst = max(worst, float(np.max(np.abs(a.G_resid - b.G_resid) / scale)))
    return worst


def check_crossref_constants(pairs: int = 50, tol: float = 1e-10) -> CheckResult:
    """Specialized closed-form constants vs the general machinery."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in (1, 2):
        for _ in range(pairs):
            h = float(rng.uniform(0.3, 3.0))
            beta = (
                float(rng.uniform(0.1, 3.0))
                if k == 1
                else float(rng.uniform(0.1, 0.95 * math.sqrt(2.0) * h))
            )
            spike = SpikeSpec.monomial(h, k)
            general = fluct_params_sphere(spike, beta)
            special = corollary_constants(k, h, beta)
            worst = max(worst, _max_param_deviation(general, special))
    # the generic expansion's ball mixed matrix vs its display form
    spike = SpikeSpec.monomial(1.0, 1)
    lead_b = maximize_ball_theory(spike, 1.0)
    ab, rb, zb = lead_b.alpha_hat, lead_b.r_hat, lead_b.z_hat
    exp_b = generic_minimax_params(ball_saddle(spike, 1.0, lead_b))
    display_K = (2.0 * rb * ab / zb**2) * np.array(
        [[2.0 * rb / zb**2, rb * ab**4 / zb**3], [ab, 0.0]]
    )
    worst = max(worst, float(np.max(np.abs(exp_b.K - display_K))))
    return CheckResult(
        "constant cross-references",
        worst <= tol,
        f"max deviation {worst:.2e} over {pairs} draws per degree (tol {tol:.0e})",
    )


def check_phase_boundaries(tol: float = 1e-8, bracket: float = 0.01) -> CheckResult:
    """Value ties at the critical temperature; alignment threshold brackets."""
    worst_tie = 0.0
    for k in (3, 4, 5):
        spike = SpikeSpec.monomial(1.0, k)
        beta_c, _ = critical_betas(k, 1.0)
        lead = maximize_sphere_theory(spike, beta_c)
        zero_val = float(evaluate_B(0.0, beta_c, spike))
        interior_val = float(evaluate_B(lead.alpha_hat, beta_c, spike))
        worst_tie = max(worst_tie, abs(zero_val - interior_val))
    ties_ok = worst_tie <= tol

    # each bracket is witnessed twice: by the closed form, which decides the
    # phase with tap_threshold itself, and by the numeric path, which does not
    brackets_ok = True
    for k in (3, 4, 5):
        h_c = tap_threshold(k, 1.0)
        for h, applicable in ((h_c * (1 + bracket), True), (h_c * (1 - bracket), False)):
            mono = SpikeSpec.monomial(h, k)
            for spike in (mono, SpikeSpec.polynomial(mono.coeffs)):
                brackets_ok = brackets_ok and (
                    maximize_ball_theory(spike, 1.0).applicable == applicable
                )
    return CheckResult(
        "phase boundaries",
        ties_ok and brackets_ok,
        f"max value tie gap {worst_tie:.1e} (tol {tol:.0e}); alignment "
        f"threshold brackets at ±{bracket:.0%} {'hold' if brackets_ok else 'fail'}",
    )


SUITES: dict[str, list] = {
    "oracle": [check_oracle_equivalence, check_clt_quadrature],
    "lln": [check_leading_order_lln],
    "clt": [check_first_order_clt, check_lambda_law, check_w_covariance],
    "residual": [check_sphere_residual_trend, check_ball_pipeline],
    "crossref": [check_crossref_constants, check_phase_boundaries],
}

_QUICK_KWARGS: dict[str, dict] = {
    "check_oracle_equivalence": {"instances": 20},
    "check_clt_quadrature": {"draws": 2000},
    "check_leading_order_lln": {
        "n": 500,
        "trials": 20,
        "min_within": 18,
        "median_tol": 0.03,
    },
    "check_first_order_clt": {"n": 300, "trials": 80, "var_rtol": 0.5},
    "check_lambda_law": {"n": 300, "trials": 80, "var_rtol": 0.5},
    "check_w_covariance": {"n": 300, "trials": 80},
    "check_sphere_residual_trend": {"sizes": (100, 600), "trials": 40},
    "check_ball_pipeline": {"sizes": (250, 500), "trials": 30},
    "check_crossref_constants": {"pairs": 10},
    "check_phase_boundaries": {},
}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _reject(command: str, message) -> int:
    """Report out-of-range input on one stderr line; exit code 2."""
    print(f"sklab {command}: {message}", file=sys.stderr)
    return 2


def _handle_theory(args) -> int:
    try:
        config = ExperimentConfig(
            model="ball" if args.ball else "sphere",
            n=2,
            trials=1,
            master_seed=0,
            beta=args.beta,
            spike=args.spike,
        )
    except ValueError as err:
        return _reject("theory", err)
    sidecar = theory_sidecar(config)
    if args.json:
        print(json.dumps(sidecar, indent=2))
        return 0
    lead = sidecar["leading"]
    print(f"model: {sidecar['model']}   spike: {args.spike.label()}   beta: {args.beta:g}")
    print("leading order:")
    for key in ("alpha_hat", "l_hat", "z_hat", "value", "r_hat"):
        if lead[key] is not None:
            print(f"  {key:12s} = {lead[key]:.12g}")
    print(f"  multiplicity = {lead['multiplicity']}")
    if not lead["applicable"]:
        print(f"  note: {lead['reason']}")
    fl = sidecar["fluctuation"]
    if fl is None:
        print(f"fluctuation constants unavailable: {sidecar['reason'] or lead['reason']}")
        return 0
    print("fluctuation constants:")
    for key in ("kappa", "var_U", "var_Uprime", "cov_UUprime", "lambda_mean",
                "lambda_var", "h_ll"):
        print(f"  {key:12s} = {fl[key]:.12g}")
    for key in ("w", "G", "G_resid", "Sigma"):
        print(f"  {key:12s} = {np.array2string(np.array(fl[key]), precision=12)}")
    return 0


def _handle_simulate(args) -> int:
    try:
        if args.config:
            config = load_config(args.config)
        else:
            missing = [
                flag
                for flag, val in (
                    ("--model", args.model),
                    ("--n", args.n),
                    ("--trials", args.trials),
                    ("--seed", args.seed),
                    ("--beta", args.beta),
                    ("--spike", args.spike),
                )
                if val is None
            ]
            if missing:
                return _reject("simulate", f"missing {', '.join(missing)} (or use --config)")
            config = ExperimentConfig(
                model=args.model,
                n=args.n,
                trials=args.trials,
                master_seed=args.seed,
                beta=args.beta,
                spike=args.spike,
                output_path=args.output,
                output_format=args.format,
                parallelism=args.parallelism,
            )
    except (ValueError, OSError) as err:
        return _reject("simulate", err)
    records, summary, _ = run_experiment(config)
    print(f"trials: {len(records)}  valid: {summary['valid_count']}  "
          f"invalid: {summary['invalid_count']}")
    for key in sorted(summary):
        if key in ("valid_count", "invalid_count"):
            continue
        val = summary[key]
        print(f"  {key} = {val:.10g}" if isinstance(val, float) else f"  {key} = {val}")
    if config.output_path:
        ext = ".csv" if config.output_format == "csv" else ".json"
        print(f"wrote {config.output_path}{ext}")
        if config.output_format == "csv":
            print(f"wrote {config.output_path}.summary.json")
    return 0


def _fmt_cell(x: float | None) -> str:
    return "" if x is None else "%.12g" % x


def _handle_phase(args) -> int:
    beta_flags = (args.beta_min, args.beta_max, args.beta_steps)
    if any(v is not None for v in beta_flags) and any(v is None for v in beta_flags):
        return _reject("phase", "--beta-min/--beta-max/--beta-steps must be given together")
    try:
        check_degree(args.k)
    except ValueError as err:
        return _reject("phase", err)
    bounds = (args.h_min, args.h_max, args.beta_min, args.beta_max)
    if not all(math.isfinite(v) for v in bounds if v is not None):
        return _reject("phase", "grid bounds must be finite")
    if any(v is not None and v < 1 for v in (args.h_steps, args.beta_steps)):
        return _reject("phase", "--h-steps and --beta-steps must be at least 1")
    if min(args.h_min, args.h_max) <= 0:
        return _reject("phase", "--h-min and --h-max must be positive")
    if args.beta_min is not None and min(args.beta_min, args.beta_max) <= 0:
        return _reject("phase", "--beta-min and --beta-max must be positive")
    h_grid = np.linspace(args.h_min, args.h_max, args.h_steps)
    beta_grid = (
        np.linspace(args.beta_min, args.beta_max, args.beta_steps)
        if args.beta_min is not None
        else None
    )
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["k", "h", "beta", "beta_c", "beta_tilde_c", "h_c", "maximizer_type"])
    try:
        for h in h_grid:
            beta_c, beta_tilde = critical_betas(args.k, float(h))
            bc = _fmt_cell(None if math.isinf(beta_c) else beta_c)
            bt = _fmt_cell(beta_tilde)
            if beta_grid is None:
                writer.writerow([args.k, _fmt_cell(h), "", bc, bt, "", ""])
                continue
            for beta in beta_grid:
                lead = maximize_sphere_theory(SpikeSpec.monomial(float(h), args.k), float(beta))
                kind = lead.multiplicity if lead.applicable else "none"
                writer.writerow(
                    [args.k, _fmt_cell(h), _fmt_cell(beta), bc, bt,
                     _fmt_cell(tap_threshold(args.k, float(beta))), kind]
                )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _handle_verify(args) -> int:
    checks = SUITES[args.suite]
    all_ok = True
    for fn in checks:
        kwargs = _QUICK_KWARGS.get(fn.__name__, {}) if args.quick else {}
        result = fn(**kwargs)
        print(result.line)
        all_ok = all_ok and result.passed
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sklab",
        description="Ground-state laboratory for the spiked spherical model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="limiting maximizer and constants")
    p_theory.add_argument("--spike", type=parse_spike, required=True,
                          metavar="monomial:K:H")
    p_theory.add_argument("--beta", type=float, required=True)
    p_theory.add_argument("--ball", action="store_true",
                          help="radial (TAP) problem instead of the sphere")
    p_theory.add_argument("--json", action="store_true")
    p_theory.set_defaults(handler=_handle_theory)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    p_sim.add_argument("--config", help="JSON campaign config")
    p_sim.add_argument("--model", choices=("sphere", "ball"))
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--beta", type=float)
    p_sim.add_argument("--spike", type=parse_spike, metavar="monomial:K:H")
    p_sim.add_argument("--output", help="output base path")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--parallelism", type=int, default=1)
    p_sim.set_defaults(handler=_handle_simulate)

    p_phase = sub.add_parser("phase", help="critical-temperature grid")
    p_phase.add_argument("--k", type=int, required=True)
    p_phase.add_argument("--h-min", type=float, required=True)
    p_phase.add_argument("--h-max", type=float, required=True)
    p_phase.add_argument("--h-steps", type=int, required=True)
    p_phase.add_argument("--beta-min", type=float)
    p_phase.add_argument("--beta-max", type=float)
    p_phase.add_argument("--beta-steps", type=int)
    p_phase.add_argument("--output")
    p_phase.set_defaults(handler=_handle_phase)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced-size smoke variant")
    p_verify.set_defaults(handler=_handle_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
