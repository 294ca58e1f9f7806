"""Reference computations and output checks for the sklab benchmark.

Nothing here imports sklab.  Every quantity a workload checks is recomputed
from the model's definition with NumPy and SciPy, by a different method
from the program's where one exists:

* a trial's sample is redrawn from its seed, and the sphere ground state is
  the trust-region maximum of ``beta s^T L s + h u.s`` on the unit sphere,
  found from the root of the secular equation (the program reduces over the
  overlap instead);
* the ball ground state is the maximum over the radius of
  ``g(r) + r^2 TRS(beta, h/r)``, a radial scan of the same secular solve;
* the resolvent statistics are plain NumPy sums, with the classical
  locations solved in the angle variable ``x = sqrt2 sin(phi)``;
* the limit constants are dense-grid maxima of the limit functionals.

A per-operation ``check_*`` function returns a :class:`Verdict`; a run-level
one returns the list of its mismatches.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats
from scipy.optimize import minimize_scalar

SQRT2 = math.sqrt(2.0)
_MASK = (1 << 64) - 1

#: |value/n - reference| allowed for a sphere trial (rounding of two O(1) sums)
SPHERE_VALUE_TOL = 1e-10
#: |alpha_star - reference overlap| allowed for a sphere trial
SPHERE_ALPHA_TOL = 1e-6
#: a ball trial may exceed the reference maximum by rounding only
BALL_ABOVE_TOL = 1e-11
#: a ball trial may fall short of the reference maximum by at most this much
BALL_SHORT_TOL = 1e-6
#: per-draw statistics vs the direct evaluation (all are O(1) quantities)
STAT_TOL = 1e-8
#: aggregate moments vs NumPy over the same draws, relative
AGG_RTOL = 1e-10
#: spectral moments of a draw vs its regenerated matrix, relative
MOMENT_RTOL = 1e-10
#: two-sided tail probability of the Lambda band over one run
BAND_TAIL = 1e-9
#: limit values vs the dense-grid maximum
THEORY_TOL = 1e-9
#: limit overlap vs the dense-grid maximizer
THEORY_ALPHA_TOL = 1e-5
#: a phase classification is only checked when the two states differ by more
CLASSIFY_MARGIN = 1e-7
#: bound on how far the overlap spacing of the ball scan can lower a row maximum
ROW_SLACK = 1e-4


@dataclass
class Verdict:
    """Outcome of one operation: ``failed`` (the program reported an error or
    an invalid row) or ``wrong`` (its output disagrees with the reference)."""

    failed: bool = False
    wrong: list[str] = field(default_factory=list)

    def mismatch(self, what: str) -> None:
        self.wrong.append(what)


def mix64(master: int, index: int) -> int:
    """splitmix64 of ``master + (index + 1) * golden``: the documented trial seed."""
    z = (int(master) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def redraw(n: int, seed: int):
    """Matrix and spike draw of one invariance-mode sample.

    ``J/sqrt n`` with ``Var(J_ii) = 1`` and ``Var(J_ij) = 1/2`` from the
    Philox stream of ``seed``, then ``n`` further normals for the spike.
    Returns ``(a, raw)``: the raw square of normals and the spike normals.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((n, n))
    raw = rng.standard_normal(n)
    return a, raw


def redraw_spectrum(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unit spike coordinates of a sample."""
    a, raw = redraw(n, seed)
    lam = np.linalg.eigvalsh((a + a.T) / (2.0 * math.sqrt(n)))
    return lam, raw / math.sqrt(float(raw @ raw))


# ---------------------------------------------------------------------------
# Trust-region subproblem


def trs(lam: np.ndarray, u: np.ndarray, beta: float, c):
    """``max_{|x|=1} beta x^T diag(lam) x + c u.x`` for ``c >= 0`` (scalar or array).

    With ``mu = beta lam_max + t`` the maximizer is ``x_i = c u_i / (2(mu -
    beta lam_i))`` and ``t > 0`` solves ``sum w_i/(t + d_i)^2 = 1``, where
    ``w_i = c^2 u_i^2/4`` and ``d_i = beta (lam_max - lam_i)``.  Newton on
    ``phi(t)^(-1/2) - 1``, which is concave and increasing, started at the
    lower bound ``sqrt(w_max)`` climbs monotonically to the root.
    Returns ``(value, overlap)`` with the shape of ``c``.
    """
    c = np.asarray(c, dtype=float)
    scalar = c.ndim == 0
    c = np.atleast_1d(c)[:, None]
    top = float(lam[-1])
    d = (beta * (top - lam))[None, :]
    w = 0.25 * c * c * (u * u)[None, :]
    t = np.sqrt(w[:, -1:])
    for _ in range(100):
        inv = 1.0 / (t + d)
        phi = np.sum(w * inv * inv, axis=1, keepdims=True)
        s3 = np.sum(w * inv * inv * inv, axis=1, keepdims=True)
        step = (1.0 - phi ** -0.5) * phi**1.5 / s3
        t = t + step
        if np.all(np.abs(step) <= 4e-16 * t):
            break
    inv = 1.0 / (t + d)
    value = (beta * top + t[:, 0]) + np.sum(w * inv, axis=1)
    overlap = 0.5 * c[:, 0] * np.sum((u * u)[None, :] * inv, axis=1)
    if scalar:
        return float(value[0]), float(overlap[0])
    return value, overlap


def tap_g(r, beta: float):
    """TAP radial term ``log(1-r^2)/2 + (beta^2/2)(1-r^2)^2``."""
    one = 1.0 - np.asarray(r, dtype=float) ** 2
    return 0.5 * np.log(one) + 0.5 * beta * beta * one * one


def plefka_radius(beta: float) -> float:
    return math.sqrt(max(1.0 - 1.0 / (SQRT2 * beta), 0.0))


def ball_reference(lam: np.ndarray, u: np.ndarray, beta: float, h: float,
                   lo: float, hi: float, points: int = 257) -> float:
    """Per-site ball maximum for ``f(x) = h x``: ``max_r g(r) + r^2 TRS(beta, h/r)``.

    The radius runs over ``[lo, hi]``; a ``points`` scan is refined by
    bounded Brent between the neighbours of the best scan point.
    """
    rs = np.linspace(lo, hi, points)
    vals = tap_g(rs, beta) + rs * rs * trs(lam, u, beta, h / rs)[0]
    i = int(np.argmax(vals))
    fun = lambda r: -(float(tap_g(r, beta)) + r * r * trs(lam, u, beta, h / r)[0])
    res = minimize_scalar(fun, bounds=(rs[max(i - 1, 0)], rs[min(i + 1, points - 1)]),
                          method="bounded", options={"xatol": 1e-13})
    return max(float(vals[i]), -float(res.fun))


# ---------------------------------------------------------------------------
# Campaign checks


def read_csv_records(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(raw):
    if raw is None or raw == "":
        return None
    return float(raw)


def check_sphere_trial(row: dict, master: int, index: int, n: int, beta: float,
                       h: float) -> Verdict:
    """One persisted sphere row (CSV strings or JSON values) vs the trust-region maximum."""
    v = Verdict()
    valid = row["valid"]
    if valid not in (True, "true"):
        v.failed = True
        return v
    seed = mix64(master, index)
    if int(row["trial_index"]) != index or int(row["derived_seed"]) != seed:
        v.mismatch(f"trial {index}: index/seed {row['trial_index']}/{row['derived_seed']}")
        return v
    lam, u = redraw_spectrum(n, seed)
    ref, alpha = trs(lam, u, beta, h)
    value = _num(row["value"]) / n
    if not abs(value - ref) <= SPHERE_VALUE_TOL * max(1.0, abs(ref)):
        v.mismatch(f"trial {index}: value/n {value!r} vs {ref!r}")
    a_star = _num(row["alpha_star"])
    if not abs(a_star - alpha) <= SPHERE_ALPHA_TOL:
        v.mismatch(f"trial {index}: alpha_star {a_star!r} vs {alpha!r}")
    return v


def check_ball_trial(row: dict, master: int, index: int, n: int, beta: float,
                     h: float) -> tuple[Verdict, float | None]:
    """One ball row vs the radial trust-region scan; also returns the shortfall."""
    v = Verdict()
    if row["valid"] not in (True, "true"):
        v.failed = True
        return v, None
    seed = mix64(master, index)
    if int(row["trial_index"]) != index or int(row["derived_seed"]) != seed:
        v.mismatch(f"trial {index}: index/seed {row['trial_index']}/{row['derived_seed']}")
        return v, None
    lam, u = redraw_spectrum(n, seed)
    # the campaign opens the TAP interval by 1e-9 at both ends
    ref = ball_reference(lam, u, beta, h, plefka_radius(beta) + 1e-9, 1.0 - 1e-9)
    value = _num(row["value"]) / n
    gap = ref - value
    if gap < -BALL_ABOVE_TOL * max(1.0, abs(ref)):
        v.mismatch(f"trial {index}: value/n {value!r} above the maximum {ref!r}")
    elif gap > BALL_SHORT_TOL:
        v.mismatch(f"trial {index}: value/n {value!r} short of {ref!r} by {gap:.3e}")
    return v, gap


# ---------------------------------------------------------------------------
# Statistics


def semicircle_transform(l: float) -> tuple[float, float]:
    """``s(l) = l - sqrt(l^2 - 2)`` and its derivative, for ``l > sqrt 2``."""
    root = math.sqrt(l * l - 2.0)
    return l - root, 1.0 - l / root


def classical_locations(n: int) -> np.ndarray:
    """Quantiles ``F(theta_k) = k/n`` of the semicircle law, k = 1..n.

    With ``x = sqrt2 sin(phi)`` the CDF is ``1/2 + (phi + sin(2 phi)/2)/pi``,
    increasing in ``phi``; bisection in ``phi`` runs to the last bit.
    """
    target = math.pi * (np.arange(1, n + 1) / n - 0.5)
    lo = np.full(n, -0.5 * math.pi)
    hi = np.full(n, 0.5 * math.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = mid + 0.5 * np.sin(2.0 * mid) > target
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    theta = SQRT2 * np.sin(0.5 * (lo + hi))
    theta[-1] = SQRT2
    return theta


def resolvent_statistics(lam: np.ndarray, u: np.ndarray, raw: np.ndarray | None, l: float,
               theta: np.ndarray) -> dict:
    """The resolvent statistics of one sample at ``l``, as plain sums."""
    n = lam.size
    root_n = math.sqrt(n)
    s0, s1 = semicircle_transform(l)
    centered = n * u * u - 1.0
    inv = 1.0 / (l - lam)
    tinv = 1.0 / (l - theta)
    out = {
        "U": float(np.sum(centered * inv)) / root_n,
        "Uprime": -float(np.sum(centered * inv * inv)) / root_n,
        "Lambda": float(np.sum(inv)) - n * s0,
        "W": float(np.sum(centered * tinv)) / root_n,
        "Wprime": -float(np.sum(centered * tinv * tinv)) / root_n,
    }
    if raw is not None:
        rc = raw * raw - 1.0
        out["X"] = float(np.sum(rc * (tinv - s0))) / root_n
        out["Xprime"] = float(np.sum(rc * (-tinv * tinv - s1))) / root_n
        out["Y"] = float(np.sum(rc)) / root_n
    return out


def check_draw(sample, stats, seed: int, l: float, theta: np.ndarray) -> Verdict:
    """One spectral draw: the sample against its seed, the statistics against sums.

    The spectrum is checked through its first two moments, which equal the
    trace and the squared Frobenius norm of the regenerated matrix; the spike
    normals are checked exactly.
    """
    v = Verdict()
    n = sample.n
    a, raw = redraw(n, seed)
    j = (a + a.T) / (2.0 * math.sqrt(n))
    lam = np.asarray(sample.eigenvalues)
    m1, m2 = float(np.trace(j)), float(np.sum(j * j))
    if not abs(float(lam.sum()) - m1) <= MOMENT_RTOL * n * float(np.max(np.abs(lam))):
        v.mismatch(f"seed {seed}: eigenvalue sum {lam.sum()!r} vs trace {m1!r}")
    if not abs(float(lam @ lam) - m2) <= MOMENT_RTOL * m2:
        v.mismatch(f"seed {seed}: eigenvalue square sum {float(lam @ lam)!r} vs {m2!r}")
    if sample.raw_gaussians is None or not np.array_equal(sample.raw_gaussians, raw):
        v.mismatch(f"seed {seed}: spike normals differ from the seed's stream")
    u = raw / math.sqrt(float(raw @ raw))
    if not np.allclose(sample.u, u, rtol=1e-12, atol=1e-15):
        v.mismatch(f"seed {seed}: spike direction is not the normalized normals")
    ref = resolvent_statistics(lam, u, raw, l, theta)
    for key, want in ref.items():
        got = getattr(stats, key)
        if got is None or not abs(got - want) <= STAT_TOL * max(1.0, abs(want)):
            v.mismatch(f"seed {seed}: {key} {got!r} vs {want!r}")
    return v


def lambda_law(l: float) -> tuple[float, float]:
    """Limit mean and variance of ``Lambda(l)``: ``s/(2d)`` and ``1/d^2``, ``d = l^2 - 2``."""
    d = l * l - 2.0
    return (l - math.sqrt(d)) / (2.0 * d), 1.0 / (d * d)


def check_lambda_band(values: np.ndarray, l: float) -> list[str]:
    """Mean and variance of ``Lambda`` over a run inside a band of tail ``BAND_TAIL``.

    The band is the Gaussian (mean) and chi-square (variance) interval of
    the limit law at ``M`` draws; finite-n corrections are far inside it.
    """
    m = values.size
    mean, var = lambda_law(l)
    z = float(scipy_stats.norm.isf(BAND_TAIL / 2))
    lo = float(scipy_stats.chi2.ppf(BAND_TAIL / 2, m - 1)) / (m - 1)
    hi = float(scipy_stats.chi2.isf(BAND_TAIL / 2, m - 1)) / (m - 1)
    got_mean, got_var = float(values.mean()), float(values.var(ddof=1))
    out = []
    if abs(got_mean - mean) > z * math.sqrt(var / m):
        out.append(f"Lambda mean {got_mean:.4f} outside {mean:.4f} +- {z * math.sqrt(var / m):.4f}")
    if not lo * var <= got_var <= hi * var:
        out.append(f"Lambda variance {got_var:.4f} outside [{lo * var:.4f}, {hi * var:.4f}]")
    return out


def check_aggregate(agg: dict, stats: list, params) -> list[str]:
    """The program's aggregate against NumPy and SciPy over the same statistics."""
    col = lambda key: np.array([getattr(s, key) for s in stats], dtype=float)
    u, up, lam = col("U"), col("Uprime"), col("Lambda")
    want = {
        "count": float(len(stats)),
        "mean_U": u.mean(),
        "var_U": u.var(ddof=1),
        "cov_UUprime": np.cov(u, up)[0, 1],
        "mean_Lambda": lam.mean(),
        "var_Lambda": lam.var(ddof=1),
        "cov_LambdaU": np.cov(lam, u)[0, 1],
        "var_W": col("W").var(ddof=1),
        "var_Y": col("Y").var(ddof=1),
        "ks_U": scipy_stats.kstest(u / math.sqrt(params.var_U), "norm").statistic,
        "ks_Lambda": scipy_stats.kstest(
            (lam - params.lambda_mean) / math.sqrt(params.lambda_var), "norm"
        ).statistic,
    }
    out = []
    for key, w in want.items():
        got = agg.get(key)
        if got is None or not abs(got - w) <= AGG_RTOL * max(1.0, abs(w)):
            out.append(f"aggregate {key} {got!r} vs {float(w)!r}")
    return out


# ---------------------------------------------------------------------------
# Limit theory


def _refine(fun, grid: np.ndarray, vals: np.ndarray, i: int) -> tuple[float, float]:
    """Bounded Brent between the neighbours of grid point ``i``; returns (x, max)."""
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(lambda x: -fun(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    if -res.fun >= vals[i]:
        return float(res.x), -float(res.fun)
    return float(grid[i]), float(vals[i])


_ALPHAS = np.linspace(0.0, 1.0, 20001)


def sphere_functional(k: int, h: float, beta: float, a):
    """``h a^k + beta sqrt(2(1-a^2))``, elementwise in ``a``."""
    return h * a**k + beta * np.sqrt(np.maximum(2.0 * (1.0 - a * a), 0.0))


def sphere_limit(k: int, h: float, beta: float) -> tuple[float, float]:
    """Maximizer and value of :func:`sphere_functional` for ``h > 0``.

    A nonnegative overlap is never worse for ``h > 0``, so the scan covers
    ``[0, 1]``.
    """
    vals = sphere_functional(k, h, beta, _ALPHAS)
    fun = lambda a: float(sphere_functional(k, h, beta, a))
    return _refine(fun, _ALPHAS, vals, int(np.argmax(vals)))


def sphere_interior(k: int, h: float, beta: float) -> float:
    """Value of the interior state: the largest value right of the first local minimum.

    Returns ``-inf`` when the functional only falls from zero overlap.
    """
    vals = sphere_functional(k, h, beta, _ALPHAS)
    d = np.diff(vals)
    turns = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0]
    if turns.size == 0:
        return -math.inf
    start = int(turns[0]) + 1
    fun = lambda a: float(sphere_functional(k, h, beta, a))
    return _refine(fun, _ALPHAS[start:], vals[start:], int(np.argmax(vals[start:])))[1]


def ball_functional(k: int, h: float, beta: float, a, r):
    """``h (r a)^k + g(r) + beta r^2 sqrt(2(1-a^2))``, broadcasting over ``a`` and ``r``."""
    return (h * (r * a) ** k + tap_g(r, beta)
            + beta * r * r * np.sqrt(np.maximum(2.0 * (1.0 - a * a), 0.0)))


def ball_limit(k: int, h: float, beta: float) -> tuple[float, float, float]:
    """Maximum of :func:`ball_functional` over ``a`` in [0, 1] and the TAP radii.

    Returns ``(overlap, radius, value)``.  A 401 x 401 scan ranks the radii
    by their row maximum.  Its overlap spacing can misrank rows by up to
    ``ROW_SLACK``, so each run of rows that close to the best seeds a zoom:
    a 41 x 41 grid around the best point so far, shrunk fourfold per step
    until it is narrower than 1e-10.
    """
    r_lo, r_hi = plefka_radius(beta), 1.0 - 1e-9
    alphas = np.linspace(0.0, 1.0, 401)
    rs = np.linspace(r_lo, r_hi, 401)
    grid = ball_functional(k, h, beta, alphas[None, :], rs[:, None])
    row_max = grid.max(axis=1)
    near = np.nonzero(row_max >= row_max.max() - ROW_SLACK)[0]
    best = (-math.inf, 0.0, 0.0)
    for grp in np.split(near, np.nonzero(np.diff(near) > 1)[0] + 1):
        i = int(grp[np.argmax(row_max[grp])])
        a, r = float(alphas[np.argmax(grid[i])]), float(rs[i])
        wa = 2.0 * (alphas[1] - alphas[0])
        wr = (grp[-1] - grp[0] + 2) * (rs[1] - rs[0])
        while max(wa, wr) > 1e-10:
            ta = np.clip(np.linspace(a - wa, a + wa, 41), 0.0, 1.0)
            tr = np.clip(np.linspace(r - wr, r + wr, 41), r_lo, r_hi)
            vals = ball_functional(k, h, beta, ta[None, :], tr[:, None])
            ii, jj = np.unravel_index(int(np.argmax(vals)), vals.shape)
            a, r = float(ta[jj]), float(tr[ii])
            wa, wr = wa / 4.0, wr / 4.0
        v = float(ball_functional(k, h, beta, a, r))
        if v > best[0]:
            best = (v, a, r)
    return best[1], best[2], best[0]


def ball_boundary_value(beta: float) -> float:
    """The zero-overlap state at the Plefka radius: ``g(r_P) + sqrt2 beta r_P^2``."""
    r = plefka_radius(beta)
    return float(tap_g(r, beta)) + SQRT2 * beta * r * r


def check_theory_point(k: int, h: float, beta: float, sphere: dict, ball: dict) -> Verdict:
    """Sphere and ball sidecars at one grid point vs the dense-grid maxima."""
    v = Verdict()
    tag = f"k={k} h={h:.6g} beta={beta:.6g}"
    a_ref, val_ref = sphere_limit(k, h, beta)
    lead = sphere["leading"]
    if not abs(lead["value"] - val_ref) <= THEORY_TOL * max(1.0, abs(val_ref)):
        v.mismatch(f"{tag}: sphere value {lead['value']!r} vs {val_ref!r}")
    if k == 1:
        closed = math.sqrt(h * h + 2.0 * beta * beta)
        if not abs(lead["value"] - closed) <= 1e-12 * closed:
            v.mismatch(f"{tag}: sphere value {lead['value']!r} vs sqrt(h^2+2b^2) {closed!r}")
    margin = val_ref - SQRT2 * beta
    if margin > CLASSIFY_MARGIN:
        if not lead["applicable"]:
            v.mismatch(f"{tag}: sphere flagged inapplicable at overlap {a_ref:.6f}")
        elif not abs(abs(lead["alpha_hat"]) - a_ref) <= THEORY_ALPHA_TOL:
            v.mismatch(f"{tag}: sphere alpha_hat {lead['alpha_hat']!r} vs {a_ref!r}")
    elif a_ref < 1e-6 and lead["applicable"]:
        v.mismatch(f"{tag}: sphere flagged applicable at a zero-overlap maximum")

    a_b, r_b, val_b = ball_limit(k, h, beta)
    lead_b = ball["leading"]
    if not abs(lead_b["value"] - val_b) <= THEORY_TOL * max(1.0, abs(val_b)):
        v.mismatch(f"{tag}: ball value {lead_b['value']!r} vs {val_b!r}")
    margin_b = val_b - ball_boundary_value(beta)
    if margin_b > CLASSIFY_MARGIN and not lead_b["applicable"]:
        v.mismatch(f"{tag}: ball flagged inapplicable at interior ({a_b:.6f}, {r_b:.6f})")
    elif margin_b < CLASSIFY_MARGIN / 10 and lead_b["applicable"]:
        v.mismatch(f"{tag}: ball flagged applicable at the boundary state")
    return v


def check_phase_row(k: int, h: float, beta: float, row: dict) -> list[str]:
    """One ``sklab phase`` row: the critical coupling and the maximizer type."""
    out = []
    tag = f"k={k} h={h:.6g} beta={beta:.6g}"
    beta_c = _num(row["beta_c"])
    if k == 1:
        if beta_c is not None:
            out.append(f"{tag}: beta_c {beta_c!r} for a degree-1 spike")
    elif k == 2:
        # B''(0) = 2h - sqrt2 beta changes sign at beta = sqrt2 h
        if beta_c is None or not abs(beta_c - SQRT2 * h) <= 1e-11 * beta_c:
            out.append(f"{tag}: beta_c {beta_c!r} vs sqrt2 h {SQRT2 * h!r}")
    else:
        # at beta_c the interior state ties with the zero-overlap state
        tie = sphere_interior(k, h, beta_c) - SQRT2 * beta_c
        if not abs(tie) <= THEORY_TOL:
            out.append(f"{tag}: B(alpha) - B(0) = {tie:.3e} at beta_c {beta_c!r}")
    a_ref, val_ref = sphere_limit(k, h, beta)
    margin = val_ref - SQRT2 * beta
    kind = row["maximizer_type"]
    if margin > CLASSIFY_MARGIN:
        want = "pair" if k % 2 == 0 else "single"
        if kind != want:
            out.append(f"{tag}: maximizer_type {kind!r} vs {want!r}")
    elif a_ref < 1e-6 and kind != "none":
        out.append(f"{tag}: maximizer_type {kind!r} at a zero-overlap maximum")
    return out
