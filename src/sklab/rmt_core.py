"""Random-matrix primitives.

GOE sampling, spectral models with a planted direction, semicircle-law
quantities (density, CDF, classical locations, Stieltjes transform), the
resolvent-moment kernel behind the transform of every weighted sample
measure, and the Gaussian limit of linear eigenvalue statistics.

Conventions used throughout the package:

* The coupling matrix ``J`` is symmetric with ``Var(J_ij) = 1/2`` off the
  diagonal and ``Var(J_ii) = 1``; all spectral quantities refer to the
  rescaled matrix ``J / sqrt(n)``, whose eigenvalue distribution converges
  to the semicircle law on ``[-sqrt(2), sqrt(2)]``.
* Eigenvalues are sorted ascending and made strictly increasing by an
  ulp-sized perturbation of exact ties, so downstream weighted transforms
  never see a degenerate atom.
* ``u`` denotes the coordinates of the planted unit direction in the
  eigenbasis, the normalized spike Gaussians a sample carries; only
  ``u_i^2`` enters the transforms but the signed vector is kept for
  maximizer recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

__all__ = [
    "SQRT2",
    "GoeSample",
    "PoleError",
    "classical_locations",
    "linear_stat_clt",
    "resolvent_moment",
    "sample_goe",
    "sample_spectral_model",
    "semicircle_cdf",
    "semicircle_density",
    "semicircle_transform",
]

SQRT2 = math.sqrt(2.0)

class PoleError(ValueError):
    """Raised when a transform is evaluated at or below an atom / branch point."""


@dataclass
class GoeSample:
    """Eigenvalues of ``J/sqrt(n)`` together with the planted direction.

    Attributes
    ----------
    n : int
        Matrix dimension.
    eigenvalues : ndarray
        Strictly increasing eigenvalues of ``J/sqrt(n)``, shape ``(n,)``.
    raw_gaussians : ndarray
        The spike Gaussians, shape ``(n,)``: i.i.d. standard normals in a
        sampled model.  The independent-summand fluctuation statistics
        read them.
    u : ndarray
        Derived: ``raw_gaussians`` normalized to unit length, the overlaps
        of the spike direction with the eigenbasis.
    """

    n: int
    eigenvalues: np.ndarray
    raw_gaussians: np.ndarray
    u: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.raw_gaussians = np.asarray(self.raw_gaussians, dtype=float)
        if self.eigenvalues.shape != (self.n,) or self.raw_gaussians.shape != (self.n,):
            raise ValueError("eigenvalues and raw_gaussians must both have shape (n,)")
        if np.any(np.diff(self.eigenvalues) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        norm = math.sqrt(float(self.raw_gaussians @ self.raw_gaussians))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"raw_gaussians must have a finite nonzero norm, got {norm}")
        self.u = self.raw_gaussians / norm

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


def sample_goe(n: int, seed: int) -> np.ndarray:
    """Draw a GOE matrix: symmetric, ``Var(J_ii)=1``, ``Var(J_ij)=1/2``.

    Uses the counter-based Philox generator, so a given ``(n, seed)`` pair
    reproduces the same matrix on any platform.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def _break_ties(lam: np.ndarray) -> np.ndarray:
    """Make a sorted eigenvalue array strictly increasing (ulp perturbation)."""
    lam = np.array(lam, dtype=float)
    for i in range(1, lam.size):
        if lam[i] <= lam[i - 1]:
            lam[i] = np.nextafter(lam[i - 1], np.inf)
    return lam


def sample_spectral_model(
    n: int, seed: int, mode: Literal["invariance"] = "invariance"
) -> GoeSample:
    """Sample eigenvalues and spike Gaussians for the rank-one model.

    The eigenvalues are those of ``J/sqrt(n)``; the spike Gaussians are an
    independent i.i.d. standard normal vector, whose normalization is equal
    in law to the overlaps of a fixed direction with the eigenbasis, by
    orthogonal invariance.  ``(n, seed)`` determines the sample exactly.
    ``mode`` accepts ``"invariance"`` only.
    """
    if mode != "invariance":
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((n, n))
    j = (a + a.T) / (2.0 * math.sqrt(n))
    lam = _break_ties(np.linalg.eigvalsh(j))
    return GoeSample(n=n, eigenvalues=lam, raw_gaussians=rng.standard_normal(n))


def semicircle_density(x):
    """Semicircle density ``sqrt(2 - x^2)/pi`` on ``[-sqrt(2), sqrt(2)]``, else 0."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    inside = np.abs(arr) < SQRT2
    out[inside] = np.sqrt(2.0 - arr[inside] ** 2) / np.pi
    return float(out[0]) if scalar else out


def semicircle_cdf(x):
    """CDF of the semicircle law on ``[-sqrt(2), sqrt(2)]``.

    Accepts scalars or arrays; raises ``PoleError`` outside the support
    (beyond a 1e-12 rounding grace, within which values are clamped).
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > SQRT2 + 1e-12):
        raise PoleError(f"argument outside the support [-sqrt2, sqrt2]: {x!r}")
    arr = np.clip(arr, -SQRT2, SQRT2)
    # max(.., 0) guards against sqrt(2)**2 exceeding 2 by rounding
    val = 0.5 + (
        arr * np.sqrt(np.maximum(2.0 - arr**2, 0.0)) / 2.0 + np.arcsin(arr / SQRT2)
    ) / np.pi
    if val.ndim == 0:
        return float(val)
    return val


def classical_locations(n: int) -> np.ndarray:
    """Classical locations ``theta_{k/n}``: quantiles ``F(theta) = k/n``, k=1..n.

    Solved by bisection to ``|F(theta) - k/n| <= 1e-14``; the top location is
    ``sqrt(2)`` exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _classical_locations_cached(n).copy()


@lru_cache(maxsize=32)
def _classical_locations_cached(n: int) -> np.ndarray:
    targets = np.arange(1, n + 1, dtype=float) / n
    lo = np.full(n, -SQRT2)
    hi = np.full(n, SQRT2)
    done = np.zeros(n, dtype=bool)
    # Once an entry is done its bracket freezes, so its midpoint — the final
    # answer — stays put for the remaining iterations.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        err = semicircle_cdf(mid) - targets
        done |= np.abs(err) <= 1e-14
        active = ~done
        high = err > 0
        hi = np.where(high & active, mid, hi)
        lo = np.where(~high & active, mid, lo)
        if done.all():
            break
    theta = 0.5 * (lo + hi)
    theta[-1] = SQRT2  # F(sqrt2) = 1 exactly
    theta.setflags(write=False)
    return theta


def resolvent_moment(atoms: np.ndarray, weights: np.ndarray, l, k: int = 1):
    """``sum_i w_i / (l - x_i)^k`` for ``l`` to the right of every atom.

    This is the kernel of every finite-``n`` transform: the Stieltjes
    transform ``s(l) = sum_i w_i / (l - x_i)`` of the measure
    ``sum_i w_i delta_{x_i}`` has derivatives
    ``s^(k)(l) = (-1)^k k! resolvent_moment(atoms, w, l, k + 1)``.

    ``l`` may be a scalar or an array (one moment per entry).  No pole check:
    callers that cannot guarantee ``l > max(atoms)`` check it themselves.
    """
    inv = 1.0 / (np.asarray(l, dtype=float)[..., None] - atoms)
    return (inv**k) @ weights


def semicircle_transform(l: float, order: int = 0) -> float:
    """Derivative ``s^(order)(l)`` of the semicircle Stieltjes transform.

    The convention is ``s(l) = \\int (l - x)^{-1} mu_sc(dx) = l - sqrt(l^2 - 2)``
    for ``l >= sqrt(2)``, so the k-th derivative is
    ``(-1)^k k! \\int (l - x)^{-(k+1)} mu_sc(dx)``.  Orders 0 through 3; the
    order-0 transform extends continuously to the edge ``l = sqrt(2)``, the
    derivatives need ``l > sqrt(2)``.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    l = float(l)
    if l < SQRT2:
        raise PoleError(f"semicircle transform needs l >= sqrt(2), got {l}")
    # factored form is exact at the branch point, unlike l*l - 2
    d = (l - SQRT2) * (l + SQRT2)
    if order == 0:
        return l - math.sqrt(d)
    if d <= 0.0:
        raise PoleError("semicircle derivatives need l > sqrt(2)")
    if order == 1:
        return -(l - math.sqrt(d)) / math.sqrt(d)
    if order == 2:
        return 2.0 / d**1.5
    return -6.0 * l / d**2.5


def linear_stat_clt(
    w: Callable[[float], float], w_prime: Callable[[float], float]
) -> tuple[float, float]:
    """Gaussian limit of ``sum_i w(lambda_i) - n * \\int w dmu_sc``.

    For a C^1 test function ``w`` the centered linear statistic converges to a
    normal law whose mean and variance are computed here by 200-node
    Gauss-Legendre quadrature after the substitution ``x = sqrt(2) sin(phi)``
    (which removes the edge singularities of both integrands):

    * mean  ``(w(sqrt2) + w(-sqrt2))/4 - (1/2pi) \\int w(x) / sqrt(2-x^2) dx``
    * variance ``(1/2pi^2) \\iint ((w(x)-w(y))/(x-y))^2
      (2-xy) / (sqrt(2-x^2) sqrt(2-y^2)) dx dy``

    The diagonal of the difference quotient is the derivative ``w_prime``.

    Returns
    -------
    (mean, variance) : tuple of float
    """
    nodes, wts = np.polynomial.legendre.leggauss(200)
    phi = 0.5 * math.pi * nodes
    om = 0.5 * math.pi * wts
    x = SQRT2 * np.sin(phi)
    wx = np.array([float(w(xi)) for xi in x])

    mean = (float(w(SQRT2)) + float(w(-SQRT2))) / 4.0 - float(om @ wx) / (2.0 * math.pi)

    dx = x[:, None] - x[None, :]
    dw = wx[:, None] - wx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = dw / dx
    diag = np.array([float(w_prime(xi)) for xi in x])
    np.fill_diagonal(quot, diag)
    kernel = 2.0 - x[:, None] * x[None, :]
    var = float(om @ (quot**2 * kernel) @ om) / (2.0 * math.pi**2)
    return mean, var
