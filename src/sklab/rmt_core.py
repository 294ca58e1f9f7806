"""Random-matrix primitives.

The spectral model with a planted direction, semicircle-law quantities
(CDF, classical locations, Stieltjes transform), the resolvent-moment
kernel behind the transform of every weighted sample measure, and the
Gaussian limit of linear eigenvalue statistics.

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

import ctypes
import math
import mmap
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
    "sample_spectral_model",
    "semicircle_cdf",
    "semicircle_transform",
]

SQRT2 = math.sqrt(2.0)

#: rows of the Gaussian draw a sample streams through its scratch at a time
_SYMMETRIZE_ROWS = 64

#: from this size a draw lives in a page-sparse mapping (``_draw_buffer``).
#: Below it NumPy's huge-page buffer is faster: at n = 1000 a sphere trial
#: took about 13 % longer with the mapping, which saves only a few MB there
_PAGED_MIN_N = 1500


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


def _break_ties(lam: np.ndarray) -> np.ndarray:
    """Make a sorted eigenvalue array strictly increasing (ulp perturbation).

    An array without ties is returned as it is, after one vectorized test.
    """
    lam = np.asarray(lam, dtype=float)
    if np.all(np.diff(lam) > 0):
        return lam
    lam = lam.copy()
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

    The draw streams the Gaussian matrix ``a`` through a scratch of
    ``_SYMMETRIZE_ROWS`` rows and builds only the upper triangle of
    ``J/sqrt(n) = (a + a.T)/(2 sqrt(n))`` in C-order memory, which read in
    Fortran order is the lower triangle.  NumPy's own LAPACK ``dsyevd``, the
    routine ``eigvalsh`` calls, reads that triangle alone and overwrites it.
    Each entry goes through the same two floating-point operations as the
    full expression, the Gaussians are the same stream, and LAPACK gets the
    call ``eigvalsh`` gives its copy, so the eigenvalues are bit-identical to
    ``eigvalsh`` of the full matrix.  Below ``_PAGED_MIN_N`` the buffer is one
    n x n array; from it on, each row is padded to whole pages of a private
    anonymous mapping, so the pages of the unwritten half are never faulted
    in and a draw holds the lower triangle plus about one page per column.
    Where NumPy's extension exports no ``dsyevd``, ``eigvalsh`` of that
    buffer gives the same values at the cost of its copy.
    """
    if mode != "invariance":
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    a = _draw_buffer(n)
    blk = np.empty((min(_SYMMETRIZE_ROWS, n), n))
    scale = 2.0 * math.sqrt(n)
    for i0 in range(0, n, _SYMMETRIZE_ROWS):
        i1 = min(i0 + _SYMMETRIZE_ROWS, n)
        rows = blk[: i1 - i0]
        rng.standard_normal(out=rows)  # rows i0:i1 of a, continuing the stream
        # columns i0:i1 of the earlier rows hold their raw entries: finish them
        done = a[:i0, i0:i1]
        np.add(done, rows[:, :i0].T, out=done)
        np.divide(done, scale, out=done)
        # the diagonal block, whose lower half is never read
        diag = a[i0:i1, i0:i1]
        np.add(rows[:, i0:i1], rows[:, i0:i1].T, out=diag)
        np.divide(diag, scale, out=diag)
        # park the raw entries right of the block until their rows arrive
        a[i0:i1, i1:] = rows[:, i1:]
    lam = _break_ties(_eigvalsh_in_place(a))
    return GoeSample(n=n, eigenvalues=lam, raw_gaussians=rng.standard_normal(n))


def _draw_buffer(n: int) -> np.ndarray:
    """An uninitialized n x n float64 array with contiguous rows.

    From ``_PAGED_MIN_N`` on, its rows are padded to whole small pages of a
    private anonymous mapping, so a page is resident only once written; the
    mapping is released with the last view of it.
    """
    if n < _PAGED_MIN_N:
        return np.empty((n, n))
    row_bytes = -(-n * 8 // mmap.PAGESIZE) * mmap.PAGESIZE
    buf = mmap.mmap(-1, n * row_bytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(n, row_bytes // 8)[:, :n]


@lru_cache(maxsize=None)
def _numpy_linalg() -> ctypes.CDLL | None:
    """NumPy's linear-algebra extension, loaded once; the BLAS and LAPACK
    symbols NumPy itself calls resolve through it.  ``None`` where it cannot
    be loaded.
    """
    from numpy.linalg import _umath_linalg

    try:
        return ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None


@lru_cache(maxsize=None)
def _numpy_dsyevd() -> Callable | None:
    """NumPy's own ILP64 LAPACK ``dsyevd``, the one ``eigvalsh`` calls.

    ``None`` when NumPy's linear-algebra extension exports neither name.
    """
    lib = _numpy_linalg()
    for name in ("scipy_dsyevd_64_", "dsyevd_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            i64 = ctypes.POINTER(ctypes.c_int64)
            p = ctypes.c_void_p
            # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info and
            # the hidden lengths of the two character arguments
            fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, p, i64, p,
                           p, i64, p, i64, i64, ctypes.c_size_t, ctypes.c_size_t]
            fn.restype = None
            return fn
    return None


def _eigvalsh_in_place(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose lower triangle,
    read in Fortran order, is the writable square ``a``; ``a`` is overwritten.

    ``a``'s rows must be contiguous, ``a.strides[0]`` bytes apart, at least n
    doubles: LAPACK reads that stride as the leading dimension.
    """
    n = a.shape[0] if a.ndim == 2 else -1
    if not (a.shape == (n, n) and a.dtype == np.float64 and a.flags.writeable
            and a.strides[1] == 8 and a.strides[0] >= 8 * n):
        raise ValueError("expected a writable square float64 array with contiguous rows")
    dsyevd = _numpy_dsyevd()
    if dsyevd is None:
        return np.linalg.eigvalsh(a.T, UPLO="L")
    lda = ctypes.c_int64(a.strides[0] // 8)
    w = np.empty(n)

    def call(work, lwork, iwork, liwork):
        info = ctypes.c_int64()
        dsyevd(b"N", b"L", ctypes.c_int64(n), a.ctypes.data, lda, w.ctypes.data,
               work.ctypes.data, ctypes.c_int64(lwork), iwork.ctypes.data,
               ctypes.c_int64(liwork), info, 1, 1)
        if info.value > 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if info.value < 0:
            raise RuntimeError(f"dsyevd: argument {-info.value} had an illegal value")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)  # workspace query
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    call(work, work.size, iwork, iwork.size)
    return w


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
