"""Acceptance gate: every verification check at its full stated size.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers (visible under ``pytest -s`` or on failure).  The gate is
Monte Carlo heavy and takes about three and a half minutes (200 s) on two
cores.

01  oracle equivalence             exact solver vs direct ascent witness
02  leading-order concentration    ground state per coordinate near its limit
03  first-order variance           Gaussian fluctuations of the optimum
04  trace-error law                resolvent statistic mean and variance
05  location-statistic covariance  known preasymptotic failure, see below
06  sphere residual trend          second-order expansion residual shrinks
07  ball pipeline                  exact radius plus shrinking residual
08  constant cross-references      closed forms vs generic machinery
09  phase boundaries               value ties and alignment thresholds
10  linear-statistic quadrature    moments of the trace statistic

The covariance check (05) pins its parameters at a point whose dual
location sits within a few level spacings of the spectral edge.  The
finite-size covariance there is inflated by factors of roughly 1.3 to 2.5
at n = 1000 (converging only around n = 4900), dominated by the single
largest classical location.  The check is kept at its stated size rather
than weakened, so it documents the preasymptotic regime and is expected
to fail; the same covariance agreement holds comfortably at parameter
points further from the edge (see the fluctuation tests).
"""

from sklab.cli import (
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
)


def _report(index: int, result) -> None:
    print(f"[acceptance {index:02d}] {result.line}", flush=True)
    assert result.passed, result.line


def test_01_oracle_equivalence():
    _report(1, check_oracle_equivalence())


def test_02_leading_order_concentration():
    _report(2, check_leading_order_lln())


def test_03_first_order_variance():
    _report(3, check_first_order_clt())


def test_04_trace_error_law():
    _report(4, check_lambda_law())


def test_05_location_statistic_covariance():
    _report(5, check_w_covariance())


def test_06_sphere_residual_trend():
    _report(6, check_sphere_residual_trend())


def test_07_ball_pipeline():
    _report(7, check_ball_pipeline())


def test_08_constant_cross_references():
    _report(8, check_crossref_constants())


def test_09_phase_boundaries():
    _report(9, check_phase_boundaries())


def test_10_linear_statistic_quadrature():
    _report(10, check_clt_quadrature())
