"""Exact finite-n ground-state solvers.

The constrained quadratic maximum over the sphere section
``{|sigma| = 1, sigma . u = alpha}`` reduces, by Lagrange duality, to a
one-dimensional convex minimization over the dual variable ``l`` to the right
of the spectrum::

    sup sigma^T diag(lam) sigma  =  inf_{l > lam_max} { l - alpha^2 / s(l) }

where ``s`` is the u-weighted Stieltjes transform of the eigenvalues.  The
reduction holds for ``|u_n| < |alpha| < 1``; for ``|alpha| <= |u_n|`` the
supremum plateaus at ``lam_max`` (up to an explicit error bound), and for
``|alpha| = 1`` the section is the single point ``sigma = alpha u``.

Dual stationarity, ``alpha^2 = s(l)^2 / (-s'(l))``, is the secular equation
of the trust-region subproblem: it turns the dual regime into a curve traced
by ``l`` itself::

    |alpha|(l) = s / sqrt(-s'),    inner(l) = l + s / s'

As ``l`` runs from ``lam_max`` to infinity, ``|alpha|(l)`` rises
monotonically from ``|u_n|`` to 1.  The ground-state solvers therefore search
along ``t = log(l - lam_max)``, once per sign of the overlap, each point one
O(n) pass of the resolvent moments, with the plateau and the degenerate
section as closed-form side candidates.  The per-overlap entry point
:func:`inner_max` finds the point of the same curve where ``|alpha|(l)``
equals the requested overlap.

Everything here is exact at finite n — no limit-theory input.  An independent
projected-gradient oracle is provided as an equality witness for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .rmt_core import GoeSample, resolvent_moment
from .theory_engine import RadialSpec, SpikeSpec, check_beta, golden_max, grid_golden_max
from .theory_engine import _largest_root_decreasing, radial_search

__all__ = [
    "GroundState",
    "InnerResult",
    "StationarityError",
    "inner_max",
    "oracle_direct",
    "recover_maximizer",
    "solve_ball",
    "solve_sphere",
]

Regime = Literal["dual", "plateau", "degenerate"]

#: relative pole-offset guard for the dual variable: the near end of the curve
_POLE_GUARD = 1e-13
#: relative far end of the curve, where 1 - |alpha| is of order 1e-12
_CURVE_FAR = 1e6
#: scan points along the curve, uniform in t = log(l - lam_max)
_CURVE_POINTS = 401


class StationarityError(RuntimeError):
    """Recovered maximizer failed its feasibility/stationarity checks."""


@dataclass
class InnerResult:
    """Value of the constrained quadratic maximum at one overlap."""

    value: float
    regime: Regime
    l_star: float | None = None
    plateau_error_bound: float | None = None


@dataclass
class GroundState:
    """Ground-state value and maximizer data; ``r_star`` is None on the sphere."""

    value: float  # extensive: n times the per-site maximum
    alpha_star: float
    l_star: float | None
    regime: Regime
    r_star: float | None = None


# ---------------------------------------------------------------------------
# The dual curve


def _curve_span(lam: np.ndarray) -> tuple[float, float]:
    """Range of ``t = log(l - lam_max)`` covered by the curve: pole guard to far end."""
    scale = max(1.0, abs(float(lam[-1])))
    return math.log(_POLE_GUARD * scale), math.log(_CURVE_FAR * scale)


def _curve(lam: np.ndarray, w2: np.ndarray, t):
    """Points of the dual curve at ``t`` (scalar or array): ``(l, |alpha|, inner)``."""
    l = lam[-1] + np.exp(t)
    s = resolvent_moment(lam, w2, l, 1)
    p = resolvent_moment(lam, w2, l, 2)  # equals -s'
    # near the pole l - s/p rounds to within an ulp of lam_max, which the
    # inner maximum never exceeds
    return l, s / np.sqrt(p), np.minimum(l - s / p, lam[-1])


def _degenerate_value(sample: GoeSample) -> float:
    return float(np.sum(sample.u**2 * sample.eigenvalues))


def _plateau_bound(sample: GoeSample) -> float:
    u_n2 = float(sample.u[-1]) ** 2
    spread = sample.lambda_max - float(sample.eigenvalues[0])
    return 2.0 * spread * u_n2 / math.sqrt(max(1.0 - u_n2, 1e-300))


def inner_max(sample: GoeSample, alpha: float) -> InnerResult:
    """Constrained maximum of the quadratic form at overlap ``alpha``.

    The plateau (value ``lam_max`` with an explicit error bound) and the
    degenerate section ``|alpha| = 1`` are closed forms.  In the dual regime
    the minimizer of ``l - alpha^2/s(l)`` is the curve point with ``|alpha|(l)
    = |alpha|``, bisected in ``t = log(l - lam_max)`` and pinned to the pole
    guard or the far end when the curve reaches it only beyond them.
    """
    a = abs(float(alpha))
    if a > 1.0:
        raise ValueError(f"|alpha| must be <= 1, got {alpha}")
    if a == 1.0:
        return InnerResult(value=_degenerate_value(sample), regime="degenerate")
    if a <= abs(float(sample.u[-1])):
        return InnerResult(
            value=sample.lambda_max,
            regime="plateau",
            plateau_error_bound=_plateau_bound(sample),
        )
    lam, w2 = sample.eigenvalues, sample.u**2
    t_lo, t_hi = _curve_span(lam)
    deficit = lambda t: a - float(_curve(lam, w2, t)[1])
    if deficit(t_lo) <= 0.0:
        t = t_lo
    elif deficit(t_hi) >= 0.0:
        t = t_hi
    else:
        t = _largest_root_decreasing(deficit, t_lo, t_hi, tol=1e-14)
    l_star = float(lam[-1]) + math.exp(t)
    value = l_star - a * a / float(resolvent_moment(lam, w2, l_star, 1))
    return InnerResult(value=value, regime="dual", l_star=l_star)


def recover_maximizer(sample: GoeSample, alpha: float, l_star: float) -> np.ndarray:
    """Reconstruct the maximizing sigma (in the eigenbasis) from the dual solution.

    ``sigma_i = r u_i / (2 (lam_i - l))`` with ``r = -2 alpha / s(l)``; unit
    norm holds exactly iff ``l`` is dual-stationary, so feasibility is checked
    to 1e-8 and a ``StationarityError`` is raised otherwise.
    """
    lam = sample.eigenvalues
    if l_star <= lam[-1]:
        raise StationarityError(f"l_star={l_star} does not exceed lam_max={lam[-1]}")
    s = float(resolvent_moment(lam, sample.u**2, l_star, 1))
    r = -2.0 * alpha / s
    sigma = r * sample.u / (2.0 * (lam - l_star))
    norm2 = float(sigma @ sigma)
    overlap = float(sigma @ sample.u)
    if abs(norm2 - 1.0) > 1e-8 or abs(overlap - alpha) > 1e-8:
        raise StationarityError(
            f"recovered sigma fails checks: |sigma|^2={norm2}, overlap={overlap}"
        )
    return sigma


# ---------------------------------------------------------------------------
# Ground states: one search along the curve per overlap sign


def _best_state(sample: GoeSample, point, scan):
    """Maximize an objective of the inner state ``(alpha, inner value)``.

    ``point(alpha, inner)`` is the objective; ``scan`` evaluates it on arrays,
    or a lower bound of it that ranks grid points the same way.  Candidates:

    * per overlap sign, the curve ``(+-|alpha|(l), inner(l))``, scanned on
      ``_CURVE_POINTS`` values of ``t = log(l - lam_max)`` and refined around
      its three best by golden-section search;
    * the plateau ``|alpha| <= |u_n|`` at inner value ``lam_max`` (its ends are
      the limits of the curve at the pole);
    * the degenerate sections ``alpha = +-1``.

    Returns ``(value, alpha, inner, l_star, regime)``.  Exact ties go to the
    plateau and degenerate states, which the curve reaches only in its limits,
    then to the smaller overlap.
    """
    lam, w2 = sample.eigenvalues, sample.u**2
    top = float(lam[-1])
    u_n = abs(float(sample.u[-1]))
    a_p, v_p = golden_max(lambda a: float(point(a, top)), -u_n, u_n)
    m1 = _degenerate_value(sample)
    cands = [(v_p, 0, a_p, top, top, "plateau")]
    for sign in (-1.0, 1.0):
        cands.append((float(point(sign, m1)), 0, sign, m1, None, "degenerate"))
    ts = np.linspace(*_curve_span(lam), _CURVE_POINTS)
    _, a_grid, inner_grid = _curve(lam, w2, ts)
    for sign in (-1.0, 1.0):

        def along(t: float) -> float:
            _, a, inner = _curve(lam, w2, t)
            return float(point(sign * float(a), float(inner)))

        t, v = grid_golden_max(along, ts, scan(sign * a_grid, inner_grid))
        l, a, inner = _curve(lam, w2, t)
        cands.append((v, 1, sign * float(a), float(inner), float(l), "dual"))
    v, _, alpha, inner, l_star, regime = min(cands, key=lambda c: (-c[0], c[1], c[2]))
    return v, alpha, inner, l_star, regime


def solve_sphere(sample: GoeSample, beta: float, f: SpikeSpec) -> GroundState:
    """Maximize ``n * (f(alpha) + beta * inner(alpha))`` over the overlap.

    Along the dual curve the objective is ``f(+-|alpha|(l)) + beta inner(l)``;
    each sign is scanned in ``t = log(l - lam_max)`` and refined by
    golden-section search to width 1e-10 in ``t``.  The plateau (the best
    ``f`` on ``|alpha| <= |u_n|``, at inner value ``lam_max``) and
    ``alpha = +-1`` are side candidates.  Exact ties are broken toward these
    side candidates, then toward the smaller overlap.  In the dual regime the
    maximizer itself is ``recover_maximizer(sample, alpha_star, l_star)``; at
    ``alpha = +-1`` it is ``+-u``.
    """
    check_beta(beta)
    phi = lambda a, inner: f.value(a) + beta * inner
    best, alpha_star, _, l_star, regime = _best_state(sample, phi, phi)
    return GroundState(
        value=sample.n * best, alpha_star=alpha_star, l_star=l_star, regime=regime
    )


def solve_ball(sample: GoeSample, beta: float, f: SpikeSpec) -> GroundState:
    """Maximize ``n * (f(r alpha) + g(r) + beta r^2 inner(alpha))`` over overlap and radius.

    ``g`` is the TAP radial term at ``beta``, and the radius runs over its
    ``search_interval``, the Plefka interval.  The overlap and inner value
    run over the same states as in :func:`solve_sphere` (the dual curve per
    overlap sign, the plateau and ``alpha = +-1``); at each state the radius
    is maximized, at O(1) cost per radius, by
    :func:`~sklab.theory_engine.radial_search`, the search the limit ball
    problem uses too.  Exact ties are broken toward the side candidates, then
    toward the smaller overlap and radius.
    """
    radial, scan = radial_search(f, beta)
    best, alpha_star, inner, l_star, regime = _best_state(
        sample, lambda a, inner: radial(a, inner)[0], scan
    )
    _, r_star = radial(alpha_star, inner)
    return GroundState(
        value=sample.n * best, alpha_star=alpha_star, l_star=l_star, regime=regime,
        r_star=r_star,
    )


# ---------------------------------------------------------------------------
# Direct ascent oracle


def oracle_direct(
    sample: GoeSample,
    beta: float,
    f: SpikeSpec,
    ball: bool = False,
    restarts: int = 32,
    seed: int = 0,
) -> float:
    """Projected-gradient ascent lower-bound witness for the ground state.

    Maximizes ``n (f(sigma . u) + beta sum_i lam_i sigma_i^2)`` of the
    sample's diagonal model over the unit sphere, or, with ``ball``, the
    ball objective (the TAP radial term at ``beta`` added) over vectors
    whose norm lies in the interval :func:`solve_ball` searches.

    Multi-start with deterministic warm starts (the spike, the top eigenvector)
    plus seeded random directions; up to 500 backtracking line-search steps
    per start; renormalization retraction.  Returns the best objective found.
    """
    lam, u = sample.eigenvalues, sample.u
    n = u.size
    rng = np.random.Generator(np.random.Philox(seed))
    quad = lambda x: float(np.sum(lam * x * x))
    top_vec = np.zeros(n)
    top_vec[-1] = 1.0

    if ball:
        g = RadialSpec.tap(beta)
        r_lo, r_hi = g.search_interval

    def objective(x: np.ndarray) -> float:
        if ball:
            r = float(np.linalg.norm(x))
            return n * (float(f.value(float(x @ u))) + g.value(r) + beta * quad(x))
        return n * (float(f.value(float(x @ u))) + beta * quad(x))

    def gradient(x: np.ndarray) -> np.ndarray:
        grad = float(f.d1(float(x @ u))) * u + beta * (2.0 * lam * x)
        if ball:
            r = float(np.linalg.norm(x))
            if r > 0:
                grad = grad + float(g.d1(r)) * x / r
        return n * grad

    def project(x: np.ndarray) -> np.ndarray:
        r = float(np.linalg.norm(x))
        if r == 0.0:
            x = np.ones(n) / math.sqrt(n)
            r = 1.0
        if not ball:
            return x / r
        return x * (min(max(r, r_lo), r_hi) / r)  # clamp the radius into the interval

    starts = [u.copy(), -u.copy(), top_vec, -top_vec]
    while len(starts) < max(restarts, 4):
        starts.append(rng.standard_normal(n))

    best = -math.inf
    for x0 in starts[: max(restarts, 4)]:
        x = project(x0.astype(float))
        val = objective(x)
        for _ in range(500):
            grad = gradient(x)
            if not ball:
                grad = grad - (grad @ x) * x  # tangent projection
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= 1e-12 * (1.0 + abs(val)):
                break
            step = 1.0 / max(1.0, gnorm)
            improved = False
            while step > 1e-14:
                cand = project(x + step * grad)
                cval = objective(cand)
                if cval > val + 1e-12 * abs(val):
                    x, val, improved = cand, cval, True
                    break
                step *= 0.5
            if not improved:
                break
        if val > best:
            best = val
    return best
