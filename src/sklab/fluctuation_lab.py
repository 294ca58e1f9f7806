"""Per-sample fluctuation statistics and second-order residuals.

For a sample with eigenvalues ``lam`` and spike coordinates ``u`` the module
evaluates, at a point ``l`` to the right of the spectrum, the centered
resolvent-type statistics

    U(l)      = (1/sqrt n) sum (n u_i^2 - 1) / (l - lam_i)
    U'(l)     = -(1/sqrt n) sum (n u_i^2 - 1) / (l - lam_i)^2
    Lambda(l) = sum 1/(l - lam_i) - n s(l)
    W, W'     = same weighted sums with the deterministic classical locations
    X, X', Y  = independent-summand variants built from the raw gaussians

and assembles the second-order residuals of the extensive ground state: the
ground state minus its deterministic, sqrt(n)-Gaussian and order-one
corrections, which converge to zero in probability.  The quadratic matrix in
the order-one correction is the dual-corrected one (``G_resid``): the closed
form display matrix misses the rank-one term produced by eliminating the
dual variable and leaves an order-one gap (see the matching tests for the
numerical demonstration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rmt_core import (
    GoeSample,
    PoleError,
    classical_locations,
    resolvent_moment,
    semicircle_transform,
)
from .theory_engine import FluctuationParams, LeadingOrder

__all__ = [
    "FluctuationSample",
    "aggregate",
    "compute_statistics",
    "residual_ball",
    "residual_sphere",
]

#: minimum clearance between the evaluation point and the top eigenvalue
POLE_MARGIN = 1e-10


@dataclass
class FluctuationSample:
    """Statistics of one sample evaluated at one resolvent point."""

    n: int
    U: float
    Uprime: float
    Lambda: float
    W: float
    Wprime: float
    X: float
    Xprime: float
    Y: float


def compute_statistics(sample: GoeSample, l: float) -> FluctuationSample:
    """Evaluate all fluctuation statistics of ``sample`` at the point ``l``.

    Raises ``PoleError`` when ``l`` is not strictly above the top eigenvalue
    by at least ``POLE_MARGIN`` (such trials are invalid: the statistics have
    a pole crossing or sit too close to one to be finite-size meaningful).
    """
    n = sample.n
    lam = sample.eigenvalues
    if l <= sample.lambda_max + POLE_MARGIN:
        raise PoleError(
            f"evaluation point {l} is within {POLE_MARGIN} of the top eigenvalue "
            f"{sample.lambda_max}"
        )
    s0 = semicircle_transform(l)

    centered = n * sample.u**2 - 1.0
    root_n = math.sqrt(n)
    u_stat = float(resolvent_moment(lam, centered, l)) / root_n
    up_stat = -float(resolvent_moment(lam, centered, l, 2)) / root_n
    lambda_stat = float(resolvent_moment(lam, np.ones(n), l)) - n * s0

    theta = classical_locations(n)
    if l <= theta[-1]:  # the top classical location is sqrt(2)
        raise PoleError(f"evaluation point {l} does not clear the support edge")
    w_stat = float(resolvent_moment(theta, centered, l)) / root_n
    wp_stat = -float(resolvent_moment(theta, centered, l, 2)) / root_n

    raw_centered = sample.raw_gaussians**2 - 1.0
    s1 = semicircle_transform(l, order=1)
    raw_sum = float(np.sum(raw_centered))
    x = (float(resolvent_moment(theta, raw_centered, l)) - s0 * raw_sum) / root_n
    xp = (-float(resolvent_moment(theta, raw_centered, l, 2)) - s1 * raw_sum) / root_n

    return FluctuationSample(
        n=n,
        U=u_stat,
        Uprime=up_stat,
        Lambda=lambda_stat,
        W=w_stat,
        Wprime=wp_stat,
        X=x,
        Xprime=xp,
        Y=raw_sum / root_n,
    )


def _second_order_residual(
    value: float,
    stats: FluctuationSample,
    leading: LeadingOrder,
    params: FluctuationParams,
) -> float:
    if not leading.applicable:
        raise ValueError(
            f"the fluctuation description does not apply here: {leading.reason}"
        )
    n = stats.n
    v = np.array([stats.U, stats.Uprime])
    quad = 0.5 * float(v @ params.G_resid @ v)
    return (
        value
        - n * leading.value
        - math.sqrt(n) * params.kappa * stats.U
        - params.kappa * stats.Lambda
        + quad
    )


def residual_sphere(
    value: float,
    stats: FluctuationSample,
    leading: LeadingOrder,
    params: FluctuationParams,
) -> float:
    """Second-order residual of the extensive sphere ground state.

    ``value`` is the exact finite-n ground state; the residual subtracts the
    deterministic term ``n leading.value``, the sqrt(n) Gaussian term and the
    order-one correction, and converges to zero in probability.  A symmetric
    pair of maximizers needs no choice of branch: every constant is even in
    the overlap, so both branches give this one residual.
    """
    return _second_order_residual(value, stats, leading, params)


def residual_ball(
    value: float,
    stats: FluctuationSample,
    leading: LeadingOrder,
    params: FluctuationParams,
) -> float:
    """Second-order residual of the extensive radial (ball) ground state."""
    if leading.r_hat is None:
        raise ValueError("ball residual requires a radial leading order")
    return _second_order_residual(value, stats, leading, params)


def _ks_normal(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the empirical law of ``z`` to N(0, 1)."""
    phi = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in np.sort(z)])
    i, n = np.arange(1, phi.size + 1), phi.size
    return float(max(np.max(i / n - phi), np.max(phi - (i - 1) / n)))


def aggregate(
    samples: Sequence[FluctuationSample],
    params: FluctuationParams | None = None,
) -> dict:
    """Empirical moments (and KS distances, given theory constants) of a batch.

    At least two samples are required.  With ``params`` given, each statistic
    is standardized by its theoretical law and compared to a standard
    Gaussian via the Kolmogorov-Smirnov distance: the largest ``i/n - Phi_i``
    or ``Phi_i - (i-1)/n``, ``Phi_i`` the Gaussian CDF at the i-th smallest.
    """
    if len(samples) < 2:
        raise ValueError(f"need at least 2 samples, got {len(samples)}")
    arr = lambda name: np.array([getattr(s, name) for s in samples], dtype=float)
    u, up, lam = arr("U"), arr("Uprime"), arr("Lambda")
    w, wp = arr("W"), arr("Wprime")
    x, xp, y = arr("X"), arr("Xprime"), arr("Y")
    out = {
        "count": len(samples),
        "mean_U": float(u.mean()),
        "var_U": float(u.var(ddof=1)),
        "mean_Uprime": float(up.mean()),
        "var_Uprime": float(up.var(ddof=1)),
        "cov_UUprime": float(np.cov(u, up, ddof=1)[0, 1]),
        "mean_Lambda": float(lam.mean()),
        "var_Lambda": float(lam.var(ddof=1)),
        "cov_LambdaU": float(np.cov(lam, u, ddof=1)[0, 1]),
        "cov_LambdaUprime": float(np.cov(lam, up, ddof=1)[0, 1]),
        "mean_W": float(w.mean()),
        "var_W": float(w.var(ddof=1)),
        "mean_Wprime": float(wp.mean()),
        "var_Wprime": float(wp.var(ddof=1)),
        "cov_WWprime": float(np.cov(w, wp, ddof=1)[0, 1]),
        "mean_X": float(x.mean()),
        "var_X": float(x.var(ddof=1)),
        "var_Xprime": float(xp.var(ddof=1)),
        "cov_XXprime": float(np.cov(x, xp, ddof=1)[0, 1]),
        "mean_Y": float(y.mean()),
        "var_Y": float(y.var(ddof=1)),
        "cov_XY": float(np.cov(x, y, ddof=1)[0, 1]),
        "cov_LambdaY": float(np.cov(lam, y, ddof=1)[0, 1]),
    }
    if params is not None:
        out["ks_U"] = _ks_normal(u / math.sqrt(params.var_U))
        out["ks_Uprime"] = _ks_normal(up / math.sqrt(params.var_Uprime))
        out["ks_Lambda"] = _ks_normal(
            (lam - params.lambda_mean) / math.sqrt(params.lambda_var)
        )
        out["ks_W"] = _ks_normal(w / math.sqrt(params.Sigma[0, 0]))
        out["ks_Wprime"] = _ks_normal(wp / math.sqrt(params.Sigma[1, 1]))
        out["ks_Y"] = _ks_normal(y / math.sqrt(2.0))
    return out
