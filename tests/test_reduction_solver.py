import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import brentq, minimize_scalar

from sklab.reduction_solver import (
    StationarityError,
    inner_max,
    oracle_direct,
    recover_maximizer,
    solve_ball,
    solve_sphere,
)
from sklab.rmt_core import GoeSample, sample_spectral_model
from sklab.theory_engine import RadialSpec, SpikeSpec, maximize_ball_theory, maximize_sphere_theory


def two_atom_sample() -> GoeSample:
    # u = (1, 1)/sqrt(2)
    return GoeSample(n=2, eigenvalues=np.array([-1.0, 1.0]), raw_gaussians=np.ones(2))


def random_sample(seed: int, n: int) -> GoeSample:
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.normal(size=n)) + np.arange(n) * 1e-9
    return GoeSample(n=n, eigenvalues=lam, raw_gaussians=rng.normal(size=n))


# ---------------------------------------------------------------------------
# Two-atom closed form: s(l) = l/(l^2-1), so at overlap alpha the dual
# stationarity gives l* = alpha/sqrt(1-alpha^2) and value 2 alpha^2 - 1 +
# 2 alpha sqrt(1-alpha^2) ... evaluated below at alpha = 0.8.


def test_two_atom_dual_frozen():
    s = two_atom_sample()
    res = inner_max(s, 0.8)
    assert res.l_star == pytest.approx(4 / 3, abs=1e-11)
    assert res.value == pytest.approx(0.96, abs=1e-12)


def test_two_atom_inner_max_regimes():
    s = two_atom_sample()
    res = inner_max(s, 0.8)
    assert res.regime == "dual"
    assert res.value == pytest.approx(0.96, abs=1e-12)

    deg = inner_max(s, 1.0)
    assert deg.regime == "degenerate"
    assert deg.value == pytest.approx(0.0, abs=1e-15)

    plat = inner_max(s, 0.5)
    assert plat.regime == "plateau"
    assert plat.value == 1.0
    assert plat.plateau_error_bound == pytest.approx(2 * math.sqrt(2), rel=1e-12)


def test_two_atom_maximizer_recovery():
    s = two_atom_sample()
    sigma = recover_maximizer(s, 0.8, inner_max(s, 0.8).l_star)
    expected = np.array([0.2, 1.4]) / math.sqrt(2)
    assert sigma == pytest.approx(expected, abs=1e-9)
    assert sigma @ sigma == pytest.approx(1.0, abs=1e-12)
    assert sigma @ s.u == pytest.approx(0.8, abs=1e-12)


def test_inner_max_rejects_overlap_above_one():
    with pytest.raises(ValueError):
        inner_max(two_atom_sample(), 1.2)


def test_recover_rejects_non_stationary_point():
    s = two_atom_sample()
    with pytest.raises(StationarityError):
        recover_maximizer(s, 0.8, 2.5)  # far from the dual minimizer
    with pytest.raises(StationarityError):
        recover_maximizer(s, 0.8, 0.5)  # below lam_max


def test_negative_overlap_symmetric():
    s = random_sample(3, 6)
    a = 0.9
    res_pos = inner_max(s, a)
    res_neg = inner_max(s, -a)
    assert res_neg.value == pytest.approx(res_pos.value, rel=1e-12)
    assert res_neg.l_star == pytest.approx(res_pos.l_star, rel=1e-12)


def test_near_plateau_edge_still_solves():
    s = random_sample(11, 8)
    u_n = abs(float(s.u[-1]))
    res = inner_max(s, u_n + 1e-6)
    assert res.regime == "dual"
    assert res.l_star > s.lambda_max
    assert res.value <= s.lambda_max + 1e-9


# ---------------------------------------------------------------------------
# Strong duality against the direct constrained oracle


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_strong_duality_small_n(seed):
    s = random_sample(seed, 6)
    u_n = abs(float(s.u[-1]))
    for t in (0.35, 0.7):
        alpha = u_n + (1 - u_n) * t
        res = inner_max(s, alpha)
        direct = _fixed_overlap_max(s, alpha)
        assert res.value == pytest.approx(direct, abs=1e-7)


def test_plateau_value_within_stated_bound():
    s = random_sample(9, 7)
    u_n = abs(float(s.u[-1]))
    alpha = 0.5 * u_n
    res = inner_max(s, alpha)
    direct = _fixed_overlap_max(s, alpha)
    assert direct <= res.value + 1e-9
    assert res.value - direct <= res.plateau_error_bound + 1e-9


# ---------------------------------------------------------------------------
# Full sphere solver


def test_solve_sphere_value_consistency():
    s = random_sample(5, 12)
    f = SpikeSpec.monomial(0.7, 1)
    sol = solve_sphere(s, 1.0, f)
    direct = s.n * (float(f.value(sol.alpha_star)) + 1.0 * inner_max(s, sol.alpha_star).value)
    assert sol.value == pytest.approx(direct, rel=1e-12)


def test_solve_sphere_beats_grid_scan():
    s = random_sample(6, 10)
    f = SpikeSpec.monomial(1.0, 2)
    sol = solve_sphere(s, 0.8, f)
    alphas = np.linspace(-1, 1, 1501)
    best = max(
        float(f.value(a)) + 0.8 * inner_max(s, float(a)).value for a in alphas
    )
    assert sol.value / s.n >= best - 1e-10


def test_solve_sphere_matches_direct_oracle():
    f = SpikeSpec.monomial(0.7, 1)
    for seed in range(4):
        s = sample_spectral_model(6, seed=seed)
        sol = solve_sphere(s, 1.0, f)
        direct = oracle_direct(s, 1.0, f, restarts=24, seed=seed)
        assert sol.value == pytest.approx(direct, abs=1e-6)


def test_solve_sphere_maximizer_feasible():
    s = random_sample(8, 15)
    sol = solve_sphere(s, 1.0, SpikeSpec.monomial(1.0, 1))
    assert sol.regime == "dual"
    sigma = recover_maximizer(s, sol.alpha_star, sol.l_star)
    assert sigma @ sigma == pytest.approx(1.0, abs=1e-8)
    assert sigma @ s.u == pytest.approx(sol.alpha_star, abs=1e-8)
    quad = float(np.sum(s.eigenvalues * sigma**2))
    assert quad == pytest.approx(inner_max(s, sol.alpha_star).value, abs=1e-8)


def test_solve_sphere_plateau_tiebreak():
    # with no spike the objective is flat across the plateau; the solver
    # resolves the tie toward negative overlap and reports the plateau regime
    s = random_sample(4, 6)
    sol = solve_sphere(s, 1.0, SpikeSpec.monomial(0.0, 1))
    assert sol.regime == "plateau"
    assert sol.value == pytest.approx(s.n * s.lambda_max, rel=1e-12)
    assert sol.alpha_star <= 0.0


def test_solve_sphere_lln_sanity():
    # moderate size, aligned phase: the per-site value approaches the limit
    s = sample_spectral_model(400, seed=0)
    f = SpikeSpec.monomial(1.0, 1)
    sol = solve_sphere(s, 2.0, f)
    lo = maximize_sphere_theory(f, 2.0)
    assert sol.value / s.n == pytest.approx(lo.value, abs=0.08)
    assert sol.alpha_star == pytest.approx(lo.alpha_hat, abs=0.08)


# ---------------------------------------------------------------------------
# Ball solver


def test_solve_ball_reduces_to_sphere_at_unit_radius():
    # pinned at radius r0, the ball is the unit-sphere problem with coupling
    # beta r0^2 and spike h r0 x, shifted by n g(r0)
    s = random_sample(7, 9)
    g = RadialSpec.tap(1.0)
    for r0 in (0.6, 0.8, 0.95):
        ball = solve_ball(s, 1.0, SpikeSpec.monomial(1.0, 1), (r0, r0))
        sphere = solve_sphere(s, r0 * r0, SpikeSpec.monomial(r0, 1))
        assert ball.r_star == r0
        assert ball.value == pytest.approx(s.n * g.value(r0) + sphere.value, rel=1e-12)


def test_solve_ball_lln_sanity():
    s = sample_spectral_model(400, seed=1)
    f = SpikeSpec.monomial(1.0, 1)
    sol = solve_ball(s, 1.0, f, (RadialSpec.tap(1.0).domain[0], 1.0 - 1e-9))
    lo = maximize_ball_theory(f, 1.0)
    assert sol.value / s.n == pytest.approx(lo.value, abs=0.08)
    assert sol.r_star == pytest.approx(lo.r_hat, abs=0.1)
    assert sol.alpha_star == pytest.approx(lo.alpha_hat, abs=0.1)


def test_solve_ball_matches_direct_oracle():
    f = SpikeSpec.monomial(1.0, 1)
    R = (RadialSpec.tap(1.0).domain[0], 1.0 - 1e-9)
    for seed in range(3):
        s = sample_spectral_model(6, seed=100 + seed)
        sol = solve_ball(s, 1.0, f, R)
        direct = oracle_direct(s, 1.0, f, R=R, restarts=24, seed=seed)
        assert sol.value == pytest.approx(direct, abs=1e-5)


def test_solve_ball_rejects_bad_domain():
    s = random_sample(1, 4)
    f = SpikeSpec.monomial(1.0, 1)
    with pytest.raises(ValueError):
        solve_ball(s, 1.0, f, (-0.2, 0.5))
    for beta in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_sphere(s, beta, f)
        with pytest.raises(ValueError):
            solve_ball(s, beta, f, (0.6, 0.9))


# ---------------------------------------------------------------------------
# Structural invariants (property-based)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 10), t=st.floats(0.05, 0.95))
def test_dual_solution_properties(seed, n, t):
    s = random_sample(seed, n)
    u_n = abs(float(s.u[-1]))
    if u_n >= 1 - 1e-6:
        return
    alpha = u_n + (1 - u_n) * t * 0.98 + 1e-9
    res = inner_max(s, alpha)
    if res.regime != "dual":
        return
    lam, w2 = s.eigenvalues, s.u**2
    l = res.l_star
    assert l > s.lambda_max
    # dual stationarity: 1 + alpha^2 s'(l)/s(l)^2 = 0
    gaps = l - lam
    sv = float(np.sum(w2 / gaps))
    spv = -float(np.sum(w2 / gaps**2))
    assert 1.0 + alpha**2 * spv / sv**2 == pytest.approx(0.0, abs=1e-6)
    # minimality: nearby dual points do not beat it
    for dl in (1e-4, -1e-4):
        l2 = l + dl
        if l2 <= s.lambda_max:
            continue
        s2 = float(np.sum(w2 / (l2 - lam)))
        assert l2 - alpha**2 / s2 >= res.value - 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 10))
def test_inner_value_decreasing_and_l_star_increasing(seed, n):
    s = random_sample(seed, n)
    u_n = abs(float(s.u[-1]))
    if u_n >= 0.93:
        return
    a1 = u_n + (0.95 - u_n) * 0.3
    a2 = u_n + (0.95 - u_n) * 0.8
    r1, r2 = inner_max(s, a1), inner_max(s, a2)
    if r1.regime != "dual" or r2.regime != "dual":
        return
    assert r2.value <= r1.value + 1e-12
    assert r2.l_star >= r1.l_star - 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 9), t=st.floats(0.1, 0.9))
def test_recovered_maximizer_attains_value(seed, n, t):
    s = random_sample(seed, n)
    u_n = abs(float(s.u[-1]))
    if u_n >= 1 - 1e-6:
        return
    alpha = u_n + (1 - u_n) * t * 0.95 + 1e-9
    res = inner_max(s, alpha)
    if res.regime != "dual":
        return
    sigma = recover_maximizer(s, alpha, res.l_star)
    quad = float(np.sum(s.eigenvalues * sigma**2))
    assert quad == pytest.approx(res.value, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 10))
def test_inner_value_bounded_by_spectrum(seed, n):
    s = random_sample(seed, n)
    for alpha in (0.0, 0.4, 0.99, 1.0):
        v = inner_max(s, alpha).value
        assert s.lambda_min - 1e-12 <= v <= s.lambda_max + 1e-12


# ---------------------------------------------------------------------------
# Independent maxima: the trust-region subproblem solved from its own secular
# equation, with no use of the overlap reduction


def trust_region_max(s: GoeSample, beta: float, c: float) -> tuple[float, float]:
    """``max_{|x|=1} beta x^T diag(lam) x + c u.x`` for ``c > 0``: ``(value, u.x)``.

    The maximizer is ``x_i = c u_i / (2 (t + d_i))`` with ``d_i = beta (lam_max
    - lam_i)`` and ``t > 0`` the root of the secular equation ``|x|^2 = 1``,
    which lies between ``c |u_n| / 2`` and ``c / 2``.
    """
    d = beta * (s.lambda_max - s.eigenvalues)
    w = 0.25 * c * c * s.u**2
    t = brentq(lambda t: float(np.sum(w / (t + d) ** 2)) - 1.0,
               0.5 * c * abs(s.u[-1]), 0.5 * c, xtol=1e-15, rtol=1e-15)
    value = beta * s.lambda_max + t + float(np.sum(w / (t + d)))
    return value, 0.5 * c * float(np.sum(s.u**2 / (t + d)))


def _fixed_overlap_max(sample: GoeSample, alpha: float) -> float:
    """Direct maximum of the quadratic form on the section {|sigma|=1, sigma.u=alpha}.

    The constraint is eliminated by parametrizing sigma = alpha u + c B w with
    B an orthonormal basis of the complement of u and |w| = 1; the reduced
    problem is solved by projected ascent from 64 seeded random starts.  Test
    oracle for strong duality at small n.
    """
    lam = sample.eigenvalues
    u = sample.u
    n = sample.n
    c = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    basis = null_space(u[None, :])
    rng = np.random.Generator(np.random.Philox(1))

    def val(w: np.ndarray) -> float:
        sigma = alpha * u + c * (basis @ w)
        return float(np.sum(lam * sigma * sigma))

    m = n - 1
    best = -math.inf
    for _ in range(64):
        w = rng.standard_normal(m)
        w /= np.linalg.norm(w)
        v = val(w)
        for _ in range(2000):
            sigma = alpha * u + c * (basis @ w)
            grad = 2.0 * c * (basis.T @ (lam * sigma))
            grad -= (grad @ w) * w
            if np.linalg.norm(grad) < 1e-13 * (1 + abs(v)):
                break
            step = 0.5
            improved = False
            while step > 1e-14:
                w_new = w + step * grad
                w_new /= np.linalg.norm(w_new)
                v_new = val(w_new)
                if v_new > v + 1e-13 * abs(v):
                    w, v, improved = w_new, v_new, True
                    break
                step *= 0.5
            if not improved:
                break
        best = max(best, v)
    return best


def tap_ball_max(s: GoeSample, beta: float, h: float, lo: float, hi: float) -> float:
    """``max_r g(r) + r^2 TRS(beta, h/r)``: the TAP ball at degree 1, per site."""
    g = RadialSpec.tap(beta)
    fun = lambda r: -(float(g.value(r)) + r * r * trust_region_max(s, beta, h / r)[0])
    rs = np.linspace(lo, hi, 401)
    i = int(np.argmin([fun(r) for r in rs]))
    res = minimize_scalar(fun, bounds=(rs[max(i - 1, 0)], rs[min(i + 1, rs.size - 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return -min(float(res.fun), fun(rs[i]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_sphere_matches_trust_region_at_n300(seed):
    s = sample_spectral_model(300, seed=seed)
    sol = solve_sphere(s, 1.0, SpikeSpec.monomial(1.5, 1))
    value, overlap = trust_region_max(s, 1.0, 1.5)
    assert sol.value / s.n == pytest.approx(value, abs=1e-12)
    assert sol.alpha_star == pytest.approx(overlap, abs=1e-6)


def test_solve_ball_reaches_joint_maximum():
    # the radius and overlap are maximized jointly, not coordinate-wise
    s = sample_spectral_model(100, seed=4)
    lo, hi = RadialSpec.tap(1.0).domain[0] + 1e-9, 1.0 - 1e-9
    sol = solve_ball(s, 1.0, SpikeSpec.monomial(1.0, 1), (lo, hi))
    assert sol.value / s.n == pytest.approx(tap_ball_max(s, 1.0, 1.0, lo, hi), abs=1e-10)


def test_even_spike_tie_breaks_toward_negative_overlap():
    # f(alpha) = f(-alpha): both signs of the overlap are exact ties
    s = sample_spectral_model(50, seed=10)
    sol = solve_sphere(s, 1.0, SpikeSpec.monomial(1.5, 2))
    assert sol.alpha_star < 0.0
