"""Closed-form limit theory: leading order, phase boundaries, fluctuation constants.

The n-to-infinity ground state per site converges to

    sphere:  max_alpha  B(alpha)          = f(alpha) + beta sqrt(2 (1-alpha^2))
    ball:    max_{alpha,r} Bt(alpha, r)   = f(r alpha) + g(r) + beta r^2 sqrt(2 (1-alpha^2))

where ``f`` is the spike profile and ``g`` the TAP radial term
``log(1-r^2)/2 + (beta^2/2)(1-r^2)^2`` on Plefka's interval, fixed by
``beta`` alone (:class:`RadialSpec`).  This module locates the maximizers —
in closed form for monomial spikes, numerically for other polynomials —
exposes the phase-transition couplings, and evaluates every constant
appearing in the second-order (Gaussian fluctuation) description: the
coupling ``kappa`` of the leading Gaussian, the quadratic matrix ``G`` and
the limit laws of the resolvent-type statistics.  Both models take
``kappa``, ``G`` and ``w`` from their saddle partials (``sphere_saddle``,
``ball_saddle``) through one generic minimax expansion
(``generic_minimax_params``).  The literal closed forms of
``corollary_constants`` (sphere, degrees 1 and 2) are kept as the
independent reference for that expansion.

Geometry shorthand used throughout, for a maximizer overlap ``a``::

    z_hat = sqrt(2 (1 - a^2))        (value of the semicircle transform at l_hat)
    l_hat = (2 - a^2) / z_hat        (the dual point where the transform is z_hat)

so that ``sqrt(l_hat^2 - 2) = a^2 / z_hat`` and ``l_hat z_hat = 2 - a^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import numpy.polynomial.polynomial as P

from .rmt_core import SQRT2

__all__ = [
    "FluctuationParams",
    "GenericMinimaxInput",
    "InapplicableRegimeError",
    "LeadingOrder",
    "MAX_DEGREE",
    "RadialSpec",
    "SpikeSpec",
    "ball_saddle",
    "check_beta",
    "check_degree",
    "corollary_constants",
    "critical_betas",
    "evaluate_B",
    "evaluate_B_tilde",
    "fluct_params_ball",
    "fluct_params_sphere",
    "generic_minimax_params",
    "golden_max",
    "grid_golden_max",
    "maximize_ball_theory",
    "maximize_sphere_theory",
    "radial_search",
    "sphere_saddle",
    "tap_threshold",
]


class InapplicableRegimeError(RuntimeError):
    """The Gaussian fluctuation description does not apply at these parameters."""


# ---------------------------------------------------------------------------
# Spike profile and TAP radial term

#: largest monomial degree: the degree-k closed forms raise numbers to powers
#: near k, which divide by zero from about k = 48 and overflow from k = 257
MAX_DEGREE = 32


def check_degree(k) -> int:
    """``k`` as an int if it is a monomial degree in ``1..MAX_DEGREE``, else ``ValueError``."""
    if not 1 <= k <= MAX_DEGREE or k != int(k):
        raise ValueError(f"monomial degree must be an integer in 1..{MAX_DEGREE}, got {k}")
    return int(k)


def check_beta(beta) -> None:
    """``ValueError`` unless the inverse temperature ``beta`` is positive and finite."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")


@dataclass
class SpikeSpec:
    """Spike profile ``f``, a polynomial given by its coefficients.

    ``coeffs`` lists them in ascending powers.  ``SpikeSpec.monomial(h, k)``
    builds ``f(x) = h x^k``, which the limit theory solves in closed form;
    ``SpikeSpec.polynomial(coeffs)`` builds any polynomial, which always
    takes the numeric limit paths.  Derivatives are exact, and a spike is
    plain numbers, so it pickles and serializes.
    """

    kind: Literal["monomial", "polynomial"]
    coeffs: tuple[float, ...]

    @classmethod
    def monomial(cls, h: float, k: int) -> "SpikeSpec":
        k = check_degree(k)
        if not math.isfinite(h):
            raise ValueError(f"monomial coefficient must be finite, got {h}")
        return cls(kind="monomial", coeffs=(0.0,) * k + (float(h),))

    @classmethod
    def polynomial(cls, coeffs) -> "SpikeSpec":
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"polynomial coefficients must be finite and non-empty, "
                             f"got {list(coeffs)}")
        return cls(kind="polynomial", coeffs=coeffs)

    @property
    def h(self) -> float:
        return self.coeffs[-1]

    @property
    def k(self) -> int:
        return len(self.coeffs) - 1

    def value(self, x):
        if self.kind == "monomial":
            return self.h * np.power(x, self.k)
        return P.polyval(x, self.coeffs)

    def d1(self, x):
        if self.kind == "monomial":
            return self.h * self.k * np.power(x, self.k - 1)
        return P.polyval(x, P.polyder(self.coeffs))

    def d2(self, x):
        if self.kind == "monomial":
            if self.k == 1:
                return np.zeros_like(np.asarray(x, dtype=float)) + 0.0
            return self.h * self.k * (self.k - 1) * np.power(x, self.k - 2)
        return P.polyval(x, P.polyder(self.coeffs, 2))

    def label(self) -> str:
        if self.kind == "monomial":
            return f"monomial:{self.k}:{self.h:g}"
        return "polynomial:" + ":".join(f"{c:g}" for c in self.coeffs)

    def to_dict(self) -> dict:
        if self.kind == "monomial":
            return {"kind": "monomial", "h": self.h, "k": self.k}
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


@dataclass
class RadialSpec:
    """The TAP radial term ``g(r) = log(1-r^2)/2 + (beta^2/2)(1-r^2)^2``.

    ``beta`` fixes it, and its domain, the Plefka interval ``[sqrt(q_P), 1]``
    with ``q_P = max(1 - 1/(sqrt2 beta), 0)``.
    """

    beta: float

    @classmethod
    def tap(cls, beta: float) -> "RadialSpec":
        check_beta(beta)
        return cls(beta=float(beta))

    @property
    def plefka_q(self) -> float:
        return max(1.0 - 1.0 / (SQRT2 * self.beta), 0.0)

    @property
    def domain(self) -> tuple[float, float]:
        return math.sqrt(self.plefka_q), 1.0

    @property
    def search_interval(self) -> tuple[float, float]:
        """The radii both ball problems search: ``domain`` with its open ends nudged in."""
        lo, hi = self.domain
        return lo + 1e-9, hi - 1e-9

    def value(self, r):
        """``g(r)``; ``-inf`` for ``r >= 1``."""
        r = np.asarray(r, dtype=float)
        one = 1.0 - r * r
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 0.5 * np.log(one) + 0.5 * self.beta**2 * one**2
        out = np.where(one > 0.0, out, -np.inf)
        return float(out) if out.ndim == 0 else out

    def d1(self, r):
        one = 1.0 - r * r
        return -r / one - 2.0 * self.beta**2 * r * one

    def d2(self, r):
        one = 1.0 - r * r
        return -(1.0 + r * r) / one**2 - 2.0 * self.beta**2 * (1.0 - 3.0 * r * r)

    def to_dict(self) -> dict:
        return {"kind": "tap", "beta": self.beta}


# ---------------------------------------------------------------------------
# Leading order


@dataclass
class LeadingOrder:
    """Maximizer data of the limiting variational problem.

    ``applicable`` is False whenever the Gaussian fluctuation description
    breaks down (zero-overlap maximizer, boundary maximizer, ties at a
    critical coupling, degenerate Hessian); ``reason`` says why.
    """

    alpha_hat: float
    l_hat: float
    z_hat: float
    value: float
    multiplicity: Literal["single", "pair"]
    r_hat: float | None = None
    applicable: bool = True
    reason: str | None = None


def _geometry(alpha_hat: float) -> tuple[float, float]:
    z = math.sqrt(2.0 * max(1.0 - alpha_hat * alpha_hat, 0.0))
    if z == 0.0:
        return math.inf, 0.0
    return (2.0 - alpha_hat * alpha_hat) / z, z


def evaluate_B(alpha, beta: float, f: SpikeSpec):
    """Limiting sphere functional ``f(alpha) + beta sqrt(2 (1-alpha^2))``."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(np.abs(alpha) > 1.0):
        raise ValueError("overlap must lie in [-1, 1]")
    out = f.value(alpha) + beta * np.sqrt(np.maximum(2.0 * (1.0 - alpha**2), 0.0))
    return float(out) if out.ndim == 0 else out


def evaluate_B_tilde(alpha, r, beta: float, f: SpikeSpec):
    """Limiting radial functional ``f(r alpha) + g(r) + beta r^2 sqrt(2 (1-alpha^2))``.

    ``g`` is the TAP radial term at ``beta``.
    """
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(alpha) > 1.0):
        raise ValueError("overlap must lie in [-1, 1]")
    out = (
        f.value(r * alpha)
        + RadialSpec.tap(beta).value(r)
        + beta * r**2 * np.sqrt(np.maximum(2.0 * (1.0 - alpha**2), 0.0))
    )
    return float(out) if out.ndim == 0 else out


def _sphere_B_second(alpha: float, beta: float, f: SpikeSpec) -> float:
    one = 1.0 - alpha * alpha
    return float(f.d2(alpha)) - SQRT2 * beta / one**1.5


def critical_betas(k: int, h: float) -> tuple[float, float | None]:
    """Phase couplings of the sphere problem for a monomial spike.

    Returns ``(beta_c, beta_tilde_c)``: below ``beta_c`` the nonzero-overlap
    state is the global maximum; ``beta_tilde_c`` (degree >= 3 only, else
    None) is where the interior critical point itself disappears.
    """
    check_degree(k)
    if h <= 0:
        raise ValueError(f"critical couplings require h > 0, got {h}")
    if k == 1:
        return math.inf, None
    if k == 2:
        return SQRT2 * h, None
    beta_c = (h / SQRT2) * ((k - 1) / (k - 2)) * (1.0 - 1.0 / (k - 1) ** 2) ** (k / 2)
    beta_tilde = (
        h * k / SQRT2 * (k - 2) ** ((k - 2) / 2.0) / (k - 1) ** ((k - 1) / 2.0)
    )
    return beta_c, beta_tilde


def _largest_root_decreasing(fun, lo: float, hi: float, tol: float = 1e-15) -> float:
    """Root of a strictly decreasing function on [lo, hi] by bisection."""
    flo, fhi = fun(lo), fun(hi)
    if flo < 0.0 or fhi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        if fun(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _zero_overlap_leading(beta: float, f: SpikeSpec, reason: str) -> LeadingOrder:
    return LeadingOrder(
        alpha_hat=0.0,
        l_hat=SQRT2,
        z_hat=SQRT2,
        value=float(f.value(0.0)) + SQRT2 * beta,
        multiplicity="single",
        applicable=False,
        reason=reason,
    )


def _maximize_sphere_monomial(f: SpikeSpec, beta: float) -> LeadingOrder:
    h, k = f.h, f.k
    if h == 0.0:
        return _zero_overlap_leading(beta, f, "zero-overlap maximizer (no spike)")
    if h < 0.0:  # even k: _maximize mirrors the odd ones
        return _zero_overlap_leading(beta, f, "zero-overlap maximizer (h < 0)")
    if k == 1:
        d = h * h + 2.0 * beta * beta
        a = h / math.sqrt(d)
        l_hat, z_hat = _geometry(a)
        return LeadingOrder(a, l_hat, z_hat, math.sqrt(d), "single")
    if k == 2:
        beta_c, _ = critical_betas(k, h)
        if beta > beta_c:
            return _zero_overlap_leading(beta, f, "zero-overlap maximizer")
        # an ulp below beta_c the radicand can round to zero or below it
        a = math.sqrt(max(1.0 - beta * beta / (2.0 * h * h), 0.0))
        if beta == beta_c or a == 0.0:
            lo = _zero_overlap_leading(beta, f, "tied with zero-overlap state")
            lo.multiplicity = "pair"
            return lo
        l_hat, z_hat = _geometry(a)
        return LeadingOrder(
            a, l_hat, z_hat, h + beta * beta / (2.0 * h), "pair"
        )
    # degree >= 3
    beta_c, beta_tilde = critical_betas(k, h)
    if beta >= beta_tilde:
        return _zero_overlap_leading(beta, f, "no interior critical point")
    track = 2.0 * (beta / (h * k)) ** 2
    left = math.sqrt((k - 2.0) / (k - 1.0))
    a = _largest_root_decreasing(
        lambda t: t ** (2 * (k - 2)) * (1.0 - t * t) - track, left, 1.0
    )
    if beta > beta_c:
        return _zero_overlap_leading(beta, f, "zero-overlap maximizer")
    l_hat, z_hat = _geometry(a)
    lo = LeadingOrder(
        a, l_hat, z_hat, float(evaluate_B(a, beta, f)),
        "pair" if k % 2 == 0 else "single",
    )
    if beta == beta_c:
        lo.applicable = False
        lo.reason = "tied with zero-overlap state"
    return lo


_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fun, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximization of ``fun`` on ``[lo, hi]``; returns ``(x, fun(x))``.

    The endpoints are always candidates, so a boundary maximum is never lost.
    """
    a, b = float(lo), float(hi)
    best_x, best_f = a, fun(a)
    fb = fun(b)
    if fb > best_f:
        best_x, best_f = b, fb
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(300):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLD * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLD * (b - a)
            fd = fun(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def grid_golden_max(fun, grid: np.ndarray, values: np.ndarray, top: int = 3):
    """Maximize ``fun`` over a scanned grid: golden-section search around its best points.

    ``values`` holds ``fun`` on ``grid``.  Each of the ``top`` best grid
    points is refined between its two neighbours; returns the best
    ``(x, fun(x))``, exact ties going to the smaller ``x``.
    """
    order = np.argsort(-values, kind="stable")
    last = grid.size - 1
    cands = [
        golden_max(fun, grid[max(i - 1, 0)], grid[min(i + 1, last)]) for i in order[:top]
    ]
    return min(cands, key=lambda c: (-c[1], c[0]))


def _negative_definite(m) -> bool:
    """Whether the symmetric matrix ``m`` has only negative eigenvalues."""
    return bool(np.all(np.linalg.eigvalsh(m) < 0.0))


def _numeric_leading(y, fun, grad, hess, zero, radii=None) -> LeadingOrder:
    """Newton-polish and classify ``y``, the best scanned point of a limit functional.

    ``y`` is ``(overlap,)`` on the sphere and ``(overlap, radius)`` on the
    ball, radius in ``radii``; ``fun``, ``grad`` and ``hess`` take its
    coordinates.  Zero overlap, or a value within 1e-12 (relative) of the
    zero-overlap (Plefka) state ``zero(reason)``, returns that state flagged.
    A stationary mirror ``-overlap`` of equal value makes a pair; a point on
    the boundary or with a Hessian not negative definite is flagged.
    """
    box = [(-1.0 + 1e-9, 1.0 - 1e-9)] + ([radii] if radii else [])
    inside = lambda y: all(lo < v < hi for v, (lo, hi) in zip(y, box))
    y = np.array(y, dtype=float)
    if inside(y) and abs(y[0]) > 1e-9:
        for _ in range(60):
            hy = hess(*y)
            if not _negative_definite(hy):
                break
            step = np.linalg.solve(hy, grad(*y))
            if not np.max(np.abs(step)) <= 1e-2:
                break
            y -= step
            if np.max(np.abs(step)) < 1e-14:
                break
    a, *r = map(float, y)
    val = fun(a, *r)
    if abs(a) <= 1e-8:
        return zero("zero-overlap maximizer")
    tied = zero("tied with zero-overlap state")
    if val <= tied.value + 1e-12 * max(1.0, abs(val)):
        return tied
    l_hat, z_hat = _geometry(a)
    lo = LeadingOrder(a, l_hat, z_hat, val, "single", r_hat=r[0] if r else None)
    if (abs(fun(-a, *r) - val) <= 1e-9 * max(1.0, abs(val))
            and np.max(np.abs(grad(-a, *r))) <= 1e-6):
        lo.multiplicity = "pair"
        lo.alpha_hat = abs(a)
    if not inside((a, *r)):
        lo.applicable = False
        lo.reason = "boundary maximizer"
    elif not _negative_definite(hess(lo.alpha_hat, *r)):
        lo.applicable = False
        lo.reason = "degenerate curvature at maximizer"
    return lo


def _maximize(f: SpikeSpec, beta: float, monomial, numeric) -> LeadingOrder:
    """Solve ``f`` by its ``monomial`` closed form or its ``numeric`` path.

    An odd monomial with ``h < 0`` is the mirror image of its ``-h`` twin.
    """
    check_beta(beta)
    if f.kind != "monomial":
        return numeric(f, beta)
    if f.h < 0.0 and f.k % 2 == 1:
        mirror = monomial(SpikeSpec.monomial(-f.h, f.k), beta)
        mirror.alpha_hat = -mirror.alpha_hat
        return mirror
    return monomial(f, beta)


def _maximize_sphere_numeric(f: SpikeSpec, beta: float) -> LeadingOrder:
    grid = np.linspace(-1.0, 1.0, 2001)
    fun = lambda a: float(evaluate_B(a, beta, f))
    a, _ = grid_golden_max(fun, grid, evaluate_B(grid, beta, f))
    return _numeric_leading(
        (a,), fun,
        lambda a: [float(f.d1(a)) - SQRT2 * beta * a / math.sqrt(1.0 - a * a)],
        lambda a: [[_sphere_B_second(a, beta, f)]],
        lambda reason: _zero_overlap_leading(beta, f, reason),
    )


def maximize_sphere_theory(f: SpikeSpec, beta: float) -> LeadingOrder:
    """Global maximizer of the limiting sphere functional.

    Closed forms for monomial spikes (including the phase dispatch against
    ``critical_betas``); otherwise a 2001-point grid with golden-section and
    Newton polish.  A zero-overlap or tied maximizer is returned flagged
    ``applicable=False`` rather than raising, since the leading order is
    still perfectly well defined there.  At a tie the numeric path reports
    the zero-overlap state; the closed forms report it at degree 2 and the
    interior state from degree 3.
    """
    return _maximize(f, beta, _maximize_sphere_monomial, _maximize_sphere_numeric)


# ---------------------------------------------------------------------------
# Ball / TAP leading order


def _plefka_F(beta: float) -> float:
    if beta <= 1.0 / SQRT2:
        return beta * beta / 2.0
    return SQRT2 * beta - 0.75 - 0.5 * math.log(SQRT2 * beta)


def tap_threshold(k: int, beta: float) -> float:
    """Critical spike strength ``h_c(k, beta)`` of the radial (TAP) problem.

    Above ``h_c`` the maximizer is interior with nonzero overlap; below it the
    maximizer sits at the Plefka boundary with zero overlap.  Degree 1 spikes
    always align (``h_c = 0``); degree 2 gives ``max(1/2, beta/sqrt2)``; for
    degree >= 3 the threshold is a variational infimum over the Plefka
    interval, evaluated on a 2001-point interior grid (margin 1e-6) and
    refined by golden-section search.
    """
    check_degree(k)
    check_beta(beta)
    if k == 1:
        return 0.0
    if k == 2:
        return max(0.5, beta / SQRT2)
    g = RadialSpec.tap(beta)
    f_val = _plefka_F(beta)
    b2 = beta * beta

    def ratio(r: float) -> float:
        one = 1.0 - r * r
        core = r * r * (1.0 - 2.0 * b2 * one * one)
        if core <= 0.0 or r <= 0.0:
            return math.inf
        # f_val bounds the subtracted terms on the Plefka interval: num <= 0 is rounding
        num = f_val - float(g.value(r)) - 2.0 * b2 * r * r * one
        return num / core ** (k / 2.0) if num > 0.0 else math.inf

    lo = math.sqrt(g.plefka_q) + 1e-6
    hi = 1.0 - 1e-6
    rs = np.linspace(lo, hi, 2001)
    neg = lambda r: -ratio(r)
    _, neg_best = grid_golden_max(neg, rs, np.array([neg(r) for r in rs]), top=1)
    return -neg_best


def _boundary_leading(beta: float, f: SpikeSpec, reason: str) -> LeadingOrder:
    return LeadingOrder(
        alpha_hat=0.0,
        l_hat=SQRT2,
        z_hat=SQRT2,
        value=_plefka_F(beta) + float(f.value(0.0)),
        multiplicity="single",
        r_hat=RadialSpec.tap(beta).domain[0],
        applicable=False,
        reason=reason,
    )


def _maximize_ball_tap_monomial(f: SpikeSpec, beta: float) -> LeadingOrder:
    h, k = f.h, f.k
    q_p = RadialSpec.tap(beta).plefka_q
    if h <= 0.0:  # h < 0 at even k: _maximize mirrors the odd ones
        return _boundary_leading(beta, f, "zero-overlap boundary maximizer")
    if k == 1:
        b2 = beta * beta

        def slope(q: float) -> float:
            # derivative of sqrt(h^2 q + 2 b^2 q^2) + log(1-q)/2 + (b^2/2)(1-q)^2
            t = (h * h + 4.0 * b2 * q) / (2.0 * math.sqrt(h * h * q + 2.0 * b2 * q * q))
            return t - 0.5 / (1.0 - q) - b2 * (1.0 - q)

        lo_q, hi_q = q_p + 1e-15, 1.0 - 1e-15
        if slope(lo_q) <= 0.0:  # concave objective already decreasing
            return _boundary_leading(beta, f, "boundary maximizer")
        q_hat = _largest_root_decreasing(slope, lo_q, hi_q, tol=1e-15)
        r_hat = math.sqrt(q_hat)
        a = h / math.sqrt(h * h + 2.0 * b2 * q_hat)
        l_hat, z_hat = _geometry(a)
        return LeadingOrder(
            a, l_hat, z_hat, float(evaluate_B_tilde(a, r_hat, beta, f)),
            "single", r_hat=r_hat,
        )
    if k == 2:
        if h <= 0.5 or beta >= SQRT2 * h:
            reason = (
                "tied interior/boundary state"
                if beta == SQRT2 * h and h > 0.5
                else "zero-overlap boundary maximizer"
            )
            return _boundary_leading(beta, f, reason)
        r_hat = math.sqrt(1.0 - 1.0 / (2.0 * h))
        a = math.sqrt(1.0 - beta * beta / (2.0 * h * h))
        l_hat, z_hat = _geometry(a)
        value = (beta * beta / (8.0 * h * h)) * (4.0 * h - 1.0) + h - 0.5 * (
            1.0 + math.log(2.0 * h)
        )
        return LeadingOrder(a, l_hat, z_hat, value, "pair", r_hat=r_hat)
    # degree >= 3
    h_c = tap_threshold(k, beta)
    if h <= h_c:
        reason = "tied interior/boundary state" if h == h_c else "boundary maximizer"
        return _boundary_leading(beta, f, reason)
    b2 = beta * beta

    def t_of_q(q: float) -> float:
        core = q * (1.0 - 2.0 * b2 * (1.0 - q) ** 2)
        if core <= 0.0:
            return 0.0
        return (1.0 - q) * core ** ((k - 2) / 2.0)

    # T vanishes at both ends of (q_P, 1) with a single interior peak; the
    # maximizer radius is the larger root of T = 1/(h k), right of the peak.
    lo_q = q_p
    peak_q, peak_v = golden_max(t_of_q, lo_q + 1e-12, 1.0 - 1e-12, tol=1e-13)
    target = 1.0 / (h * k)
    if peak_v < target:
        return _boundary_leading(beta, f, "no interior critical point")
    q_hat = _largest_root_decreasing(
        lambda q: t_of_q(q) - target, peak_q, 1.0 - 1e-15, tol=1e-15
    )
    r_hat = math.sqrt(q_hat)
    a = math.sqrt(max(1.0 - 2.0 * b2 * (1.0 - q_hat) ** 2, 0.0))
    l_hat, z_hat = _geometry(a)
    return LeadingOrder(
        a, l_hat, z_hat, float(evaluate_B_tilde(a, r_hat, beta, f)),
        "pair" if k % 2 == 0 else "single", r_hat=r_hat,
    )


def _ball_hessian(alpha: float, r: float, beta: float, f: SpikeSpec) -> np.ndarray:
    """Hessian of the radial functional in (overlap, radius) coordinates."""
    one = 1.0 - alpha * alpha
    root = math.sqrt(one)
    x = r * alpha
    f1, f2 = float(f.d1(x)), float(f.d2(x))
    b_aa = f2 * r * r - SQRT2 * beta * r * r / one**1.5
    b_ar = f1 + f2 * r * alpha - 2.0 * SQRT2 * beta * r * alpha / root
    b_rr = f2 * alpha * alpha + RadialSpec.tap(beta).d2(r) + 2.0 * SQRT2 * beta * root
    return np.array([[b_aa, b_ar], [b_ar, b_rr]])


def radial_search(f: SpikeSpec, beta: float):
    """Radius maximizer of ``f(r alpha) + g(r) + beta r^2 inner`` over the Plefka interval.

    ``g`` is the TAP radial term at ``beta``, and the radius runs over its
    ``search_interval``.  Both ball problems use it:
    ``inner`` is the constrained quadratic maximum at finite n and
    ``sqrt(2 (1 - alpha^2))`` in the limit.  Returns
    ``(radial, scan)``: ``radial(alpha, inner)`` is the best ``(value, r)``,
    a 201-point scan of the interval refined by golden-section search
    around its best point; ``scan(alphas, inners)`` is its lower bound on
    arrays of states, the best scanned radius.
    """
    g = RadialSpec.tap(beta)
    rs = np.linspace(*g.search_interval, 201)
    g_grid = g.value(rs)

    def objective(r, alpha, inner, gv):
        """The ball objective at radius ``r`` with ``gv = g(r)``; broadcasts."""
        return f.value(r * alpha) + gv + beta * r * r * inner

    def at_radius(r: float, alpha: float, inner: float) -> float:
        return float(objective(r, alpha, inner, g.value(r)))

    def radial(alpha: float, inner: float) -> tuple[float, float]:
        vals = objective(rs, alpha, inner, g_grid)
        r, v = grid_golden_max(lambda r: at_radius(r, alpha, inner), rs, vals, top=1)
        return v, r

    def scan(alphas: np.ndarray, inner: np.ndarray) -> np.ndarray:
        return objective(rs, alphas[:, None], inner[:, None], g_grid).max(axis=1)

    return radial, scan


def _maximize_ball_numeric(f: SpikeSpec, beta: float) -> LeadingOrder:
    g = RadialSpec.tap(beta)
    radial, scan = radial_search(f, beta)
    alphas = np.linspace(-1.0, 1.0, 201)
    over_radius = lambda t: radial(t, _geometry(t)[1])[0]
    z_grid = np.sqrt(2.0 * (1.0 - alphas**2))
    a, _ = grid_golden_max(over_radius, alphas, scan(alphas, z_grid))
    r = radial(a, _geometry(a)[1])[1]
    if g.plefka_q == 0.0 and r <= g.search_interval[0]:
        a = 0.0  # no overlap is defined at radius 0: the Plefka state

    def grad(a: float, r: float) -> list[float]:
        root, f1 = math.sqrt(1.0 - a * a), float(f.d1(r * a))
        return [f1 * r - SQRT2 * beta * r * r * a / root,
                f1 * a + g.d1(r) + 2.0 * SQRT2 * beta * r * root]

    return _numeric_leading(
        (a, r), lambda a, r: float(evaluate_B_tilde(a, r, beta, f)), grad,
        lambda a, r: _ball_hessian(a, r, beta, f),
        lambda reason: _boundary_leading(beta, f, reason), g.search_interval,
    )


def maximize_ball_theory(f: SpikeSpec, beta: float) -> LeadingOrder:
    """Global maximizer of the limiting radial functional, the TAP free energy at ``beta``.

    Closed-form dispatch for monomial spikes (scalar root-finding per degree,
    with the ``tap_threshold`` phase check).  Other polynomial spikes take the
    numeric path: a 201-point overlap grid, each point maximized over the
    radius by :func:`radial_search`, refined by golden-section search and
    Newton polish; it never calls ``tap_threshold``.  Boundary or zero-overlap
    maximizers are returned flagged; at a tie both paths report the Plefka
    state.
    """
    return _maximize(f, beta, _maximize_ball_tap_monomial, _maximize_ball_numeric)


# ---------------------------------------------------------------------------
# Fluctuation constants


@dataclass
class FluctuationParams:
    """Constants of the second-order (Gaussian) description at a maximizer.

    ``kappa``, ``G``, ``w`` and ``h_ll`` come from the saddle partials
    through :func:`generic_minimax_params`.  ``G`` is the quadratic-coefficient
    matrix in the closed-form display convention; ``G_resid`` adds the
    rank-one term ``w w^T / h_ll`` produced by eliminating the dual variable,
    which is the variant the empirical residuals vanish under.  ``Sigma`` is
    the limit covariance of the weighted resolvent pair, assembled from
    ``var_U``/``var_Uprime``/``cov_UUprime`` in maximizer coordinates; it
    equals the semicircle-transform expression, which loses digits to
    cancellation near the spectral edge.
    """

    kappa: float
    G: np.ndarray
    var_U: float
    var_Uprime: float
    cov_UUprime: float
    lambda_mean: float
    lambda_var: float
    w: np.ndarray
    h_ll: float

    @property
    def Sigma(self) -> np.ndarray:
        c = self.cov_UUprime
        return np.array([[self.var_U, c], [c, self.var_Uprime]])

    @property
    def G_resid(self) -> np.ndarray:
        return self.G + np.outer(self.w, self.w) / self.h_ll


def _fluct_params(f: SpikeSpec, beta: float, leading: LeadingOrder | None,
                  maximize, saddle) -> FluctuationParams:
    """Expand ``saddle`` at ``leading`` (``maximize``'s if None); laws need the overlap only."""
    if leading is None:
        leading = maximize(f, beta)
    if not leading.applicable:
        raise InapplicableRegimeError(leading.reason or "inapplicable leading order")
    inp = saddle(f, beta, leading)
    if not _negative_definite(inp.hessian_B):
        raise InapplicableRegimeError("Hessian at the maximizer is not negative definite")
    w, _, G = generic_minimax_params(inp)
    a2 = leading.alpha_hat * leading.alpha_hat
    z = math.sqrt(2.0 * (1.0 - a2))
    return FluctuationParams(
        kappa=inp.h_g,
        G=G,
        var_U=z**4 / a2,
        var_Uprime=z**6 * (2.0 + a2 + a2 * a2) / a2**5,
        cov_UUprime=-(z**5) * (1.0 + a2) / a2**3,
        lambda_mean=z**3 / (2.0 * a2 * a2),
        lambda_var=z**4 / a2**4,
        w=w,
        h_ll=inp.h_l_l,
    )


def sphere_saddle(f: SpikeSpec, beta: float, leading: LeadingOrder) -> GenericMinimaxInput:
    """Saddle partials of the sphere problem at ``leading``; ``y`` is the overlap."""
    a, z = leading.alpha_hat, leading.z_hat
    return GenericMinimaxInput(
        h_g=beta * a * a / z**2,
        h_gg=-2.0 * beta * a * a / z**3,
        h_y_g=np.array([2.0 * beta * a / z**2]),
        h_l_g=2.0 * beta / z,
        h_l_l=beta * z**3 / a**4,
        h_l_y=np.array([-2.0 * beta / a]),
        hessian_B=np.array([[_sphere_B_second(a, beta, f)]]),
    )


def fluct_params_sphere(
    f: SpikeSpec, beta: float, leading: LeadingOrder | None = None
) -> FluctuationParams:
    """Fluctuation constants of the sphere ground state.

    Assembled through the generic minimax expansion of :func:`sphere_saddle`.
    Requires an applicable leading order (interior nonzero overlap, strictly
    negative curvature); raises ``InapplicableRegimeError`` otherwise.
    """
    return _fluct_params(f, beta, leading, maximize_sphere_theory, sphere_saddle)


def ball_saddle(f: SpikeSpec, beta: float, leading: LeadingOrder) -> GenericMinimaxInput:
    """Saddle partials of the radial problem at the maximizer ``leading``.

    The outer variable is ``y = (overlap, radius)``; ``hessian_B`` is the
    Hessian of the radial functional there.
    """
    a, r = leading.alpha_hat, leading.r_hat
    z = leading.z_hat
    r2 = r * r
    return GenericMinimaxInput(
        h_g=beta * r2 * a * a / z**2,
        h_gg=-2.0 * beta * r2 * a * a / z**3,
        h_y_g=np.array([2.0 * beta * r2 * a / z**2, 2.0 * beta * r * a * a / z**2]),
        h_l_g=2.0 * beta * r2 / z,
        h_l_l=beta * r2 * z**3 / a**4,
        h_l_y=np.array([-2.0 * beta * r2 / a, 0.0]),
        hessian_B=_ball_hessian(a, r, beta, f),
    )


def fluct_params_ball(
    f: SpikeSpec, beta: float, leading: LeadingOrder | None = None
) -> FluctuationParams:
    """Fluctuation constants of the radial (TAP) ground state.

    Assembled through the generic minimax expansion of :func:`ball_saddle`.
    Requires an applicable leading order with a negative definite Hessian;
    raises ``InapplicableRegimeError`` otherwise.
    """
    return _fluct_params(f, beta, leading, maximize_ball_theory, ball_saddle)


# ---------------------------------------------------------------------------
# Generic minimax expansion


@dataclass
class GenericMinimaxInput:
    """Partial derivatives of ``h(y, l, g)`` at the saddle, ``g`` the transform value.

    ``y`` is the outer maximization variable (dimension d); subscripted
    fields are partials at the saddle point; ``hessian_B`` is the d x d
    Hessian of the reduced outer functional ``B(y)``.
    """

    h_g: float
    h_gg: float
    h_y_g: np.ndarray
    h_l_g: float
    h_l_l: float
    h_l_y: np.ndarray
    hessian_B: np.ndarray

    def __post_init__(self) -> None:
        self.h_y_g = np.atleast_1d(np.asarray(self.h_y_g, dtype=float))
        self.h_l_y = np.atleast_1d(np.asarray(self.h_l_y, dtype=float))
        self.hessian_B = np.atleast_2d(np.asarray(self.hessian_B, dtype=float))
        d = self.h_y_g.size
        if self.h_l_y.size != d or self.hessian_B.shape != (d, d):
            raise ValueError("inconsistent dimensions in minimax input")
        if self.h_l_l == 0.0:
            raise ValueError("h_l_l must be nonzero")


def generic_minimax_params(inp: GenericMinimaxInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order minimax coefficients ``(w, K, G)`` from saddle derivatives.

    The minimax value expands as  B + kappa W/sqrt(n) + F/n + o(1/n)  with
    ``B`` the leading-order value, ``kappa = inp.h_g`` and
    F = kappa Lambda - (W, W')^T G (W, W') / 2.  ``G`` follows the
    closed-form display convention ``K^T J^{-1} K - diag(h_gg, 0)`` with
    ``J = hessian_B``; the residuals use ``G + w w^T / h_l_l`` instead, the
    rank-one term coming from eliminating the dual variable
    (``FluctuationParams.G_resid``).  This is the one route from saddle
    partials to the constants of both models.
    """
    d = inp.h_y_g.size
    w = np.array([inp.h_l_g, inp.h_g])
    L = np.column_stack([inp.h_y_g, np.zeros(d)])
    K = L - np.outer(inp.h_l_y, w) / inp.h_l_l
    G = K.T @ np.linalg.inv(inp.hessian_B) @ K - np.diag([inp.h_gg, 0.0])
    return w, K, G


# ---------------------------------------------------------------------------
# Literal closed forms for monomial spikes on the sphere


def corollary_constants(k: int, h: float, beta: float) -> FluctuationParams:
    """Literal closed forms of the sphere fluctuation constants for degree 1 and 2."""
    check_beta(beta)
    if k == 1:
        if h == 0.0:
            raise InapplicableRegimeError("degree-1 constants need h != 0")
        d = h * h + 2.0 * beta * beta
        kappa = h * h / (4.0 * beta)
        G = np.array(
            [
                [-(h**4) * math.sqrt(d) / (8.0 * beta**4), -(h**6) / (32.0 * beta**5)],
                [-(h**6) / (32.0 * beta**5), -(h**10) / (128.0 * beta**6 * d**1.5)],
            ]
        )
        var_u = 16.0 * beta**4 / (h * h * d)
        var_up = 128.0 * beta**6 * (4.0 * beta**4 + 5.0 * beta**2 * h * h + 2.0 * h**4) / h**10
        cov = -64.0 * beta**5 * (h * h + beta * beta) / (h**6 * math.sqrt(d))
        lam_mean = 4.0 * beta**3 * math.sqrt(d) / h**4
        lam_var = 16.0 * beta**4 * d * d / h**8
        a2 = h * h / d
    elif k == 2:
        if h <= 0.0 or beta >= SQRT2 * h:
            raise InapplicableRegimeError(
                "degree-2 constants need h > 0 and beta < sqrt(2) h"
            )
        c = 2.0 * h * h - beta * beta
        kappa = c / (2.0 * beta)
        G = np.array(
            [
                [
                    -h * (4.0 * h**4 - 2.0 * h**2 * beta**2 + beta**4) / beta**4,
                    -(h**2) * c * c / (2.0 * beta**5),
                ],
                [
                    -(h**2) * c * c / (2.0 * beta**5),
                    -(c**4) / (16.0 * h * beta**6),
                ],
            ]
        )
        var_u = 2.0 * beta**4 / (h * h * c)
        var_up = 8.0 * beta**6 * (16.0 * h**4 - 6.0 * beta**2 * h**2 + beta**4) / c**5
        cov = -4.0 * beta**5 * (4.0 * h * h - beta * beta) / (h * c**3)
        lam_mean = 2.0 * h * beta**3 / (c * c)
        lam_var = 16.0 * h**4 * beta**4 / c**4
        a2 = c / (2.0 * h * h)
    else:
        raise ValueError("closed-form constants are available for degrees 1 and 2 only")
    z = math.sqrt(2.0 * (1.0 - a2))
    w = np.array([2.0 * beta / z, beta * a2 / z**2])
    h_ll = beta * z**3 / a2**2
    return FluctuationParams(
        kappa=kappa,
        G=G,
        var_U=var_u,
        var_Uprime=var_up,
        cov_UUprime=cov,
        lambda_mean=lam_mean,
        lambda_var=lam_var,
        w=w,
        h_ll=h_ll,
    )
