import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from sklab.rmt_core import SQRT2, PoleError, semicircle_transform
from sklab.theory_engine import (
    MAX_DEGREE,
    GenericMinimaxInput,
    InapplicableRegimeError,
    LeadingOrder,
    RadialSpec,
    SpikeSpec,
    _plefka_F,
    corollary_constants,
    critical_betas,
    evaluate_B,
    evaluate_B_tilde,
    fluct_params_ball,
    fluct_params_sphere,
    generic_minimax_params,
    maximize_ball_theory,
    maximize_sphere_theory,
    tap_threshold,
)

# ---------------------------------------------------------------------------
# Oracles.  The closed-form maximizers are checked against brute grid scans of
# the limiting functionals, and the fluctuation constants against an
# independent numerical second-order expansion of the perturbed minimax.


def grid_max_B(f, beta, pts=200001):
    alphas = np.linspace(-1.0, 1.0, pts)
    vals = evaluate_B(alphas, beta, f)
    i = int(np.argmax(vals))
    return float(alphas[i]), float(vals[i])


def grid_max_B_tilde(f, beta, pts=2001):
    g = RadialSpec.tap(beta)
    alphas = np.linspace(-1.0, 1.0, pts)
    rs = np.linspace(g.domain[0], g.domain[1], pts)
    gv = np.asarray(g.value(rs), dtype=float)
    gv[~np.isfinite(gv)] = -np.inf
    grid = (
        f.value(np.outer(rs, alphas))
        + gv[:, None]
        + beta * (rs**2)[:, None] * np.sqrt(2.0 * (1.0 - alphas**2))[None, :]
    )
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return float(alphas[j]), float(rs[i]), float(grid[i, j])


def semicircle_s(l, order=0):
    d = (l - SQRT2) * (l + SQRT2)
    rt = math.sqrt(d)
    if order == 0:
        return l - rt
    if order == 1:
        return -(l - rt) / rt
    if order == 2:
        return 2.0 / d**1.5
    raise ValueError(order)


def perturbed_minimax_eps2(f, beta, phi, psi, eps, ball=False):
    """Second-difference estimate of the eps^2 coefficient of the perturbed
    sup-inf value, via Newton on the joint (alpha, [r,] l) stationarity system.

    The transform s is replaced by s + eps phi + eps^2 psi in
        sphere:  f(alpha) + beta (l - alpha^2 / s(l))
        ball:    f(r alpha) + g(r) + beta r^2 (l - alpha^2 / s(l))
    with the ball form, ``g`` the TAP radial term, used when ``ball`` is set.
    Newton starts from the limit maximizer and uses a finite-difference
    Jacobian, which is reliable for overlaps up to about 0.95.
    """
    g = RadialSpec.tap(beta) if ball else None
    if g is None:
        lead = maximize_sphere_theory(f, beta)
        x0 = [lead.alpha_hat, lead.l_hat]
    else:
        lead = maximize_ball_theory(f, beta)
        x0 = [lead.alpha_hat, lead.r_hat, lead.l_hat]

    def value(e):
        s = lambda l: semicircle_s(l) + e * phi(l) + e * e * psi(l)
        sp = lambda l, d=1e-7: (s(l + d) - s(l - d)) / (2 * d)

        def parts(x):
            al, l = x[0], x[-1]
            r = 1.0 if g is None else x[1]
            return al, r, l, s(l)

        def F(x):
            al, r, l, sl = parts(x)
            eqs = [r * float(f.d1(r * al)) - 2 * beta * r * r * al / sl]
            if g is not None:
                eqs.append(
                    al * float(f.d1(r * al)) + float(g.d1(r))
                    + 2 * beta * r * (l - al * al / sl)
                )
            eqs.append(beta * r * r * (1 + al * al * sp(l) / sl**2))
            return np.array(eqs)

        x = np.array(x0)
        for _ in range(100):
            Fx = F(x)
            J = np.zeros((x.size, x.size))
            for j in range(x.size):
                dx = np.zeros(x.size)
                dx[j] = 1e-7
                J[:, j] = (F(x + dx) - F(x - dx)) / 2e-7
            step = np.linalg.solve(J, Fx)
            x = x - step
            if np.max(np.abs(step)) < 1e-15:
                break
        al, r, l, sl = parts(x)
        radial = 0.0 if g is None else float(g.value(r))
        return float(f.value(r * al)) + radial + beta * r * r * (l - al * al / sl)

    return (value(eps) + value(-eps) - 2 * value(0.0)) / (2 * eps * eps)


def second_order_predictions(f, beta, ball=False, eps=2e-3):
    """Measured eps^2 coefficient of a smooth-bump perturbation, with its
    predictions ``kappa psi(l_hat) - v M v / 2`` for M = G_resid and M = G."""
    if not ball:
        lead = maximize_sphere_theory(f, beta)
        fp = fluct_params_sphere(f, beta, lead)
    else:
        lead = maximize_ball_theory(f, beta)
        fp = fluct_params_ball(f, beta, lead)
    phi = lambda l: 1.0 / (l - 0.3)
    phip = lambda l: -1.0 / (l - 0.3) ** 2
    psi = lambda l: 0.7 / (l - 0.1) ** 2
    v = np.array([phi(lead.l_hat), phip(lead.l_hat)])
    pred = lambda m: fp.kappa * psi(lead.l_hat) - 0.5 * v @ m @ v
    c2 = perturbed_minimax_eps2(f, beta, phi, psi, eps, ball)
    return c2, pred(fp.G_resid), pred(fp.G)


# ---------------------------------------------------------------------------
# Spike profile and TAP radial term plumbing


def test_monomial_derivatives():
    f = SpikeSpec.monomial(1.5, 3)
    x = np.array([-0.4, 0.2, 0.9])
    assert f.value(x) == pytest.approx(1.5 * x**3)
    assert f.d1(x) == pytest.approx(4.5 * x**2)
    assert f.d2(x) == pytest.approx(9.0 * x)


def test_monomial_rejects_bad_degree():
    with pytest.raises(ValueError):
        SpikeSpec.monomial(1.0, 0)
    with pytest.raises(ValueError):
        SpikeSpec.monomial(math.nan, 2)


@pytest.mark.parametrize("k", [0, 2.5, MAX_DEGREE + 1, 10_000, math.inf, math.nan])
def test_every_degree_entry_point_rejects_degrees_outside_the_bound(k):
    # the closed forms divide by zero from about k = 48 and overflow from 257
    for call in (
        lambda: SpikeSpec.monomial(1.5, k),
        lambda: critical_betas(k, 1.5),
        lambda: tap_threshold(k, 1.0),
    ):
        with pytest.raises(ValueError, match="degree must be an integer in 1..32"):
            call()


@pytest.mark.filterwarnings("error")
def test_highest_degree_theory_runs_without_floating_point_warnings():
    for beta in np.geomspace(0.01, 20, 10):
        beta = float(beta)
        tap_threshold(MAX_DEGREE, beta)
        for h in np.geomspace(0.05, 50, 3):
            spike = SpikeSpec.monomial(float(h), MAX_DEGREE)
            critical_betas(MAX_DEGREE, float(h))
            for maximize, params in ((maximize_sphere_theory, fluct_params_sphere),
                                     (maximize_ball_theory, fluct_params_ball)):
                lead = maximize(spike, beta)
                try:
                    params(spike, beta, lead)
                except InapplicableRegimeError:
                    pass


@pytest.mark.parametrize(
    "coeffs, value, d1, d2",
    [
        ([1.5], lambda x: 1.5 + 0 * x, lambda x: 0 * x, lambda x: 0 * x),
        ([0.2, 0.7], lambda x: 0.2 + 0.7 * x, lambda x: 0.7 + 0 * x, lambda x: 0 * x),
        (
            [0.0, 0.8, 0.0, 0.3],
            lambda x: 0.8 * x + 0.3 * x**3,
            lambda x: 0.8 + 0.9 * x**2,
            lambda x: 1.8 * x,
        ),
    ],
)
def test_polynomial_derivatives_are_exact(coeffs, value, d1, d2):
    f = SpikeSpec.polynomial(coeffs)
    x = np.array([[-0.4, 0.2], [0.9, 1.0]])
    for got, want in ((f.value, value), (f.d1, d1), (f.d2, d2)):
        assert np.shape(got(x)) == x.shape
        np.testing.assert_allclose(got(x), want(x), rtol=1e-15, atol=1e-15)
        assert float(got(0.3)) == pytest.approx(want(0.3), rel=1e-15, abs=1e-15)


def test_polynomial_rejects_bad_coefficients():
    # MAX_DEGREE caps polynomials as it caps monomials
    SpikeSpec.polynomial([1.0] * (MAX_DEGREE + 1))
    for coeffs in ([], [0.0, math.nan], [math.inf], [1.0] * (MAX_DEGREE + 2)):
        with pytest.raises(ValueError, match="polynomial coefficients"):
            SpikeSpec.polynomial(coeffs)


def test_spikes_serialize_their_coefficients():
    mono = SpikeSpec.monomial(1.5, 2)
    assert mono.coeffs == (0.0, 0.0, 1.5) and (mono.h, mono.k) == (1.5, 2)
    assert mono.to_dict() == {"kind": "monomial", "h": 1.5, "k": 2}
    cubic = SpikeSpec.polynomial([0, 0.8, 0, 0.3])
    assert cubic.to_dict() == {"kind": "polynomial", "coeffs": [0.0, 0.8, 0.0, 0.3]}
    assert cubic.label() == "polynomial:0:0.8:0:0.3"
    for spike in (mono, cubic):
        assert pickle.loads(pickle.dumps(spike)) == spike


def test_tap_profile_values():
    g = RadialSpec.tap(1.0)
    assert g.plefka_q == pytest.approx(1 - 1 / SQRT2, abs=1e-15)
    assert g.domain[0] == pytest.approx(math.sqrt(1 - 1 / SQRT2))
    r = 0.6
    assert g.value(r) == pytest.approx(0.5 * math.log(0.64) + 0.5 * 0.64**2)
    # derivative self-consistency
    h = 1e-6
    assert g.d1(r) == pytest.approx((g.value(r + h) - g.value(r - h)) / (2 * h), rel=1e-6)
    assert g.d2(r) == pytest.approx((g.d1(r + h) - g.d1(r - h)) / (2 * h), rel=1e-6)
    assert g.value(1.0) == -math.inf
    # beta enters every TAP-side entry point as a positive finite number
    f = SpikeSpec.monomial(1.0, 1)
    for beta in (0.0, math.inf, math.nan):
        for call in (
            lambda: RadialSpec.tap(beta),
            lambda: tap_threshold(3, beta),
            lambda: maximize_sphere_theory(f, beta),
            lambda: maximize_ball_theory(f, beta),
            lambda: corollary_constants(1, 1.0, beta),
        ):
            with pytest.raises(ValueError, match="positive and finite"):
                call()


def test_tap_plefka_zero_below_weak_coupling():
    g = RadialSpec.tap(0.5)
    assert g.plefka_q == 0.0
    assert g.domain == (0.0, 1.0)


# ---------------------------------------------------------------------------
# Limiting functionals


def test_evaluate_B_frozen_points():
    f = SpikeSpec.monomial(1.0, 1)
    assert evaluate_B(1 / 3, 2.0, f) == pytest.approx(3.0, abs=1e-15)
    assert evaluate_B(0.0, 1.0, f) == pytest.approx(SQRT2, abs=1e-15)
    with pytest.raises(ValueError):
        evaluate_B(1.2, 1.0, f)


def test_evaluate_B_tilde_matches_parts():
    f = SpikeSpec.monomial(1.0, 2)
    g = RadialSpec.tap(1.0)
    a, r = 0.5, 0.8
    expected = f.value(r * a) + g.value(r) + 1.0 * r * r * math.sqrt(2 * (1 - a * a))
    assert evaluate_B_tilde(a, r, 1.0, f) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# Sphere maximizers: closed forms vs grid oracle, frozen values


def test_sphere_linear_spike_frozen():
    lo = maximize_sphere_theory(SpikeSpec.monomial(1.0, 1), 2.0)
    assert lo.alpha_hat == pytest.approx(1 / 3, abs=1e-15)
    assert lo.value == pytest.approx(3.0, abs=1e-15)
    assert lo.multiplicity == "single"
    assert lo.applicable
    assert lo.l_hat == pytest.approx((2 - 1 / 9) / math.sqrt(16 / 9), abs=1e-14)


def test_sphere_linear_value_is_sqrt_D():
    for h, b in [(0.5, 0.3), (1.0, 1.0), (2.0, 0.25)]:
        lo = maximize_sphere_theory(SpikeSpec.monomial(h, 1), b)
        assert lo.value == pytest.approx(math.sqrt(h * h + 2 * b * b), rel=1e-15)


def test_sphere_quadratic_spike_frozen():
    lo = maximize_sphere_theory(SpikeSpec.monomial(1.0, 2), 1.0)
    assert lo.alpha_hat == pytest.approx(1 / SQRT2, abs=1e-15)
    assert lo.value == pytest.approx(1.5, abs=1e-15)
    assert lo.multiplicity == "pair"


def test_sphere_cubic_above_critical_is_flagged():
    lo = maximize_sphere_theory(SpikeSpec.monomial(1.0, 3), 1.0)
    assert lo.alpha_hat == 0.0
    assert lo.value == pytest.approx(SQRT2, abs=1e-15)
    assert not lo.applicable


def test_sphere_closed_form_beats_grid():
    for h, k, b in [(1.0, 1, 0.7), (1.2, 2, 0.9), (1.0, 3, 0.6), (0.8, 4, 0.3)]:
        lo = maximize_sphere_theory(SpikeSpec.monomial(h, k), b)
        a_g, v_g = grid_max_B(SpikeSpec.monomial(h, k), b)
        assert lo.value == pytest.approx(v_g, abs=1e-8)
        assert abs(lo.alpha_hat) == pytest.approx(abs(a_g), abs=1e-4)
        # closed form should weakly dominate any grid point
        assert lo.value >= v_g - 1e-12


def test_sphere_negative_h_mirrors():
    lo_pos = maximize_sphere_theory(SpikeSpec.monomial(0.9, 3), 0.5)
    lo_neg = maximize_sphere_theory(SpikeSpec.monomial(-0.9, 3), 0.5)
    assert lo_neg.alpha_hat == pytest.approx(-lo_pos.alpha_hat, abs=1e-15)
    assert lo_neg.value == pytest.approx(lo_pos.value, abs=1e-15)


def test_sphere_stationarity_of_interior_maximizer():
    for h, k, b in [(1.0, 1, 1.0), (1.0, 2, 1.0), (1.0, 3, 0.6), (1.5, 5, 0.8)]:
        lo = maximize_sphere_theory(SpikeSpec.monomial(h, k), b)
        if not lo.applicable:
            continue
        a = lo.alpha_hat
        f = SpikeSpec.monomial(h, k)
        slope = float(f.d1(a)) - SQRT2 * b * a / math.sqrt(1 - a * a)
        assert slope == pytest.approx(0.0, abs=1e-10)


def test_critical_betas_frozen():
    assert critical_betas(1, 1.0) == (math.inf, None)
    assert critical_betas(2, 1.0) == (SQRT2, None)
    bc, bt = critical_betas(3, 1.0)
    assert bc == pytest.approx(SQRT2 * (3 / 4) ** 1.5, abs=1e-15)
    assert bt == pytest.approx(3 / (2 * SQRT2), abs=1e-15)
    assert bc < bt


def test_critical_beta_marks_value_tie():
    # at beta_c the aligned value equals the unaligned value
    for k in (3, 4, 5):
        bc, _ = critical_betas(k, 1.0)
        f = SpikeSpec.monomial(1.0, k)
        lo = maximize_sphere_theory(f, bc)
        assert abs(evaluate_B(0.0, bc, f) - lo.value) <= 1e-8


@pytest.mark.parametrize(
    "h",
    [2.7032679318442248,  # 1 - beta^2/(2h^2) rounds below zero an ulp under beta_c
     2.7818889431943044],  # and to zero exactly here
)
def test_quadratic_spike_an_ulp_below_beta_c_is_the_tie(h):
    beta = math.nextafter(critical_betas(2, h)[0], 0.0)
    lo = maximize_sphere_theory(SpikeSpec.monomial(h, 2), beta)
    assert (lo.alpha_hat, lo.multiplicity, lo.reason) == (
        0.0, "pair", "tied with zero-overlap state")


def test_beta_tilde_kills_interior_point():
    f = SpikeSpec.monomial(1.0, 4)
    bc, bt = critical_betas(4, 1.0)
    below = maximize_sphere_theory(f, bt - 1e-4)
    at = maximize_sphere_theory(f, bt + 1e-12)
    assert below.alpha_hat == 0.0 or not below.applicable  # between beta_c and beta_tilde
    assert at.alpha_hat == 0.0


def test_polynomial_spike_matches_monomial_path():
    lo_c = maximize_sphere_theory(SpikeSpec.polynomial([0, 0.7]), 1.0)
    lo_m = maximize_sphere_theory(SpikeSpec.monomial(0.7, 1), 1.0)
    assert lo_c.alpha_hat == pytest.approx(lo_m.alpha_hat, abs=1e-9)
    assert lo_c.value == pytest.approx(lo_m.value, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    h=st.floats(0.2, 3.0),
    k=st.integers(1, 6),
    b=st.floats(0.05, 2.5),
)
def test_sphere_value_dominates_grid_property(h, k, b):
    f = SpikeSpec.monomial(h, k)
    lo = maximize_sphere_theory(f, b)
    alphas = np.linspace(-1.0, 1.0, 4001)
    assert lo.value >= float(np.max(evaluate_B(alphas, b, f))) - 1e-10


@settings(max_examples=30, deadline=None)
@given(h=st.floats(0.3, 2.0), b=st.floats(0.05, 1.5))
def test_geometry_identities(h, b):
    lo = maximize_sphere_theory(SpikeSpec.monomial(h, 1), b)
    a, z, l = lo.alpha_hat, lo.z_hat, lo.l_hat
    assert z * z + 2 * a * a == pytest.approx(2.0, abs=1e-12)
    assert l * z == pytest.approx(2 - a * a, abs=1e-12)
    assert math.sqrt(l * l - 2) == pytest.approx(a * a / z, rel=1e-9)


# ---------------------------------------------------------------------------
# Ball / TAP maximizers


def test_ball_linear_spike_frozen():
    lo = maximize_ball_theory(SpikeSpec.monomial(1.0, 1), 1.0)
    assert lo.r_hat**2 == pytest.approx(0.5, abs=1e-12)
    assert lo.alpha_hat == pytest.approx(1 / SQRT2, abs=1e-12)
    assert lo.value == pytest.approx(1 + 0.5 * math.log(0.5) + 0.125, abs=1e-13)
    assert lo.applicable


def test_ball_quadratic_spike_frozen():
    lo = maximize_ball_theory(SpikeSpec.monomial(1.0, 2), 1.0)
    assert lo.r_hat == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert lo.alpha_hat == pytest.approx(1 / SQRT2, abs=1e-15)
    assert lo.value == pytest.approx(0.375 + 1 - 0.5 * (1 + math.log(2)), abs=1e-14)
    assert lo.multiplicity == "pair"


def test_ball_quadratic_boundary_below_threshold():
    # h below the degree-2 threshold: boundary maximizer at the Plefka edge
    lo = maximize_ball_theory(SpikeSpec.monomial(0.4, 2), 1.0)
    assert not lo.applicable
    assert lo.alpha_hat == 0.0
    assert lo.r_hat == pytest.approx(math.sqrt(RadialSpec.tap(1.0).plefka_q))
    assert lo.value == pytest.approx(SQRT2 - 0.75 - 0.5 * math.log(SQRT2), abs=1e-14)


def test_ball_boundary_value_is_plefka_free_energy():
    # weak coupling: F = beta^2/2 at radius 0
    lo = maximize_ball_theory(SpikeSpec.monomial(0.3, 2), 0.5)
    assert not lo.applicable
    assert lo.value == pytest.approx(0.125, abs=1e-14)
    assert lo.r_hat == 0.0


def test_ball_closed_form_beats_grid():
    for h, k, b in [(1.0, 1, 1.0), (1.0, 2, 1.0), (2.0, 3, 0.8), (1.5, 4, 0.5)]:
        f = SpikeSpec.monomial(h, k)
        lo = maximize_ball_theory(f, b)
        a_g, r_g, v_g = grid_max_B_tilde(f, b)
        assert lo.value >= v_g - 1e-10
        assert lo.value == pytest.approx(v_g, abs=1e-4)


def test_ball_interior_stationarity():
    for h, k, b in [(1.0, 1, 1.0), (1.0, 2, 1.0), (2.0, 3, 0.8)]:
        f = SpikeSpec.monomial(h, k)
        g = RadialSpec.tap(b)
        lo = maximize_ball_theory(f, b)
        assert lo.applicable
        a, r = lo.alpha_hat, lo.r_hat
        da = float(f.d1(r * a)) * r - SQRT2 * b * r * r * a / math.sqrt(1 - a * a)
        dr = float(f.d1(r * a)) * a + float(g.d1(r)) + 2 * SQRT2 * b * r * math.sqrt(
            1 - a * a
        )
        assert da == pytest.approx(0.0, abs=1e-9)
        assert dr == pytest.approx(0.0, abs=1e-9)


def test_tap_threshold_low_degrees():
    assert tap_threshold(1, 1.0) == 0.0
    assert tap_threshold(2, 1.0) == pytest.approx(1 / SQRT2, abs=1e-15)
    assert tap_threshold(2, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_tap_threshold_brackets_phase_change():
    # crossing h_c flips the maximizer between boundary and interior; the
    # closed form decides every degree's phase with tap_threshold itself (at
    # k = 2 its closed form max(1/2, beta/sqrt2)), so the numeric path, which
    # never calls it, witnesses each bracket too
    for k in (2, 3, 4):
        for b in (0.6, 1.0):
            hc = tap_threshold(k, b)
            for h, applicable in ((hc * 0.99, False), (hc * 1.01, True)):
                mono = SpikeSpec.monomial(h, k)
                for spike in (mono, SpikeSpec.polynomial(mono.coeffs)):
                    lead = maximize_ball_theory(spike, b)
                    assert lead.applicable == applicable
                    if applicable:
                        assert lead.alpha_hat > 0


@pytest.mark.parametrize("h, beta", [
    (2.626062280277483, 3.7138128924048326),  # 1 - beta^2/(2h^2) rounds below zero
    (2.7002802047040677, 3.81877288770009),  # and to zero exactly here
])
def test_ball_quadratic_spike_at_the_tie_is_flagged(h, beta):
    # both pairs sit an ulp from beta = sqrt2 h; the first raised ValueError
    # in math.sqrt, the second returned an applicable pair at overlap 0 on
    # which ball_saddle divided by zero
    f = SpikeSpec.monomial(h, 2)
    lo = maximize_ball_theory(f, beta)
    assert (lo.alpha_hat, lo.applicable, lo.reason) == (
        0.0, False, "tied interior/boundary state")
    with pytest.raises(InapplicableRegimeError):
        fluct_params_ball(f, beta)


def _ulps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@settings(max_examples=200, deadline=None)
@given(h=st.floats(0.05, 5.0), b=st.floats(0.05, 5.0),
       anchor=st.sampled_from(["sqrt2 h", "tap_threshold", "h = 1/2"]),
       n=st.integers(-3, 3), ball=st.booleans())
def test_quadratic_spike_near_its_ties_returns_or_flags(h, b, anchor, n, ball):
    # within 3 ulps of each degree-2 phase boundary both models either return
    # a state or raise InapplicableRegimeError, nothing else
    if anchor == "sqrt2 h":
        b = _ulps(SQRT2 * h, n)
    elif anchor == "tap_threshold":
        h = _ulps(tap_threshold(2, b), n)
    else:
        h = _ulps(0.5, n)
    f = SpikeSpec.monomial(h, 2)
    maximize, fluct = ((maximize_ball_theory, fluct_params_ball) if ball
                       else (maximize_sphere_theory, fluct_params_sphere))
    maximize(f, b)
    try:
        fluct(f, b)
    except InapplicableRegimeError:
        pass


def test_tap_threshold_value_continuity():
    # just above h_c the interior value exceeds the boundary value by a hair
    k, b = 3, 0.9
    hc = tap_threshold(k, b)
    above = maximize_ball_theory(SpikeSpec.monomial(hc * 1.001, k), b)
    boundary = SQRT2 * b - 0.75 - 0.5 * math.log(SQRT2 * b)
    assert above.value >= boundary
    assert above.value == pytest.approx(boundary, abs=1e-3)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_tap_threshold_continuous_at_plefka_corner(k):
    # near beta = 1/sqrt2 the variational numerator vanishes to fourth order
    # at the grid's left end, where its rounding must not win the infimum
    lo, hi = tap_threshold(k, 0.70), tap_threshold(k, 0.71)
    for b in (0.7071, 1 / SQRT2):
        assert lo < tap_threshold(k, b) < hi


def test_ball_theory_at_plefka_corner_never_below_boundary():
    b = 1 / SQRT2
    for h in np.linspace(1.0, 1.3, 10):
        lead = maximize_ball_theory(SpikeSpec.monomial(float(h), 3), b)
        assert lead.value >= _plefka_F(b) - 1e-14


def test_ball_numeric_path_matches_closed_form():
    # a polynomial copy of the monomial spike forces the numeric path
    mono = SpikeSpec.monomial(1.0, 1)
    lo_n = maximize_ball_theory(SpikeSpec.polynomial([0, 1]), 1.0)
    lo_c = maximize_ball_theory(mono, 1.0)
    assert lo_n.alpha_hat == pytest.approx(lo_c.alpha_hat, abs=1e-7)
    assert lo_n.r_hat == pytest.approx(lo_c.r_hat, abs=1e-7)
    assert lo_n.value == pytest.approx(lo_c.value, abs=1e-10)


def test_ball_numeric_path_non_monomial_spike():
    # a cubic spike reaches the generic radial search; the reference is a
    # dense (alpha, r) grid polished by a root solve of the gradient
    f = SpikeSpec.polynomial([0, 0.8, 0, 0.3])
    g = RadialSpec.tap(1.0)
    a0, r0, _ = grid_max_B_tilde(f, 1.0)

    def grad(p):
        a, r = p
        root = math.sqrt(1 - a * a)
        return [
            float(f.d1(r * a)) * r - SQRT2 * r * r * a / root,
            float(f.d1(r * a)) * a + float(g.d1(r)) + 2 * SQRT2 * r * root,
        ]

    a_ref, r_ref = optimize.root(grad, [a0, r0], tol=1e-14).x
    v_ref = float(evaluate_B_tilde(a_ref, r_ref, 1.0, f))
    assert v_ref == pytest.approx(0.7160533008525573, abs=1e-12)
    lo = maximize_ball_theory(f, 1.0)
    assert lo.applicable and lo.multiplicity == "single"
    for field in ("alpha_hat", "l_hat", "z_hat", "value", "r_hat"):
        assert type(getattr(lo, field)) is float, field
    assert lo.value == pytest.approx(v_ref, abs=1e-12)
    assert lo.alpha_hat == pytest.approx(a_ref, abs=1e-7)
    assert lo.r_hat == pytest.approx(r_ref, abs=1e-7)


@pytest.mark.parametrize("coeffs, h, k, beta", [
    ([0, 0, 0, 1], 1.0, 3, 0.3),
    ([0, 0, 0, 1], 1.0, 3, 0.6),
    ([0, 0, 0, 0, 1], 1.0, 4, 0.5),
    ([0, 0, 1], 1.0, 2, 2.0),
    ([0, 0, -1], -1.0, 2, 1.0),
    ([0], 0.0, 1, 1.0),
])
def test_ball_numeric_plefka_state_matches_closed_form(coeffs, h, k, beta):
    # the maximizer is the Plefka state: no overlap, or radius 0 (beta <=
    # 1/sqrt2), where the overlap is undefined
    f = SpikeSpec.polynomial(coeffs)
    lo_n = maximize_ball_theory(f, beta)
    lo_c = maximize_ball_theory(SpikeSpec.monomial(h, k), beta)
    for field in ("applicable", "multiplicity", "alpha_hat", "r_hat"):
        assert getattr(lo_n, field) == getattr(lo_c, field), field
    assert lo_n.value == pytest.approx(lo_c.value, abs=1e-12)
    with pytest.raises(InapplicableRegimeError):
        fluct_params_ball(f, beta)


@pytest.mark.parametrize("h, k, beta, ball", [
    (-1.5, 1, 1.0, True),  # ball: the mirror at odd k
    (-1.5, 3, 1.0, True),
    (-2.0, 3, 0.6, True),
    (-1.0, 2, 1.0, True),  # ball: h <= 0 at even k, and h = 0
    (-2.5, 4, 1.0, True),
    (0.0, 3, 1.0, True),
    (1.0, 3, 0.1, True),  # ball: just above tap_threshold (0.982)
    (0.0, 1, 1.0, False),  # sphere: h = 0, h < 0 at even k, k = 2 above beta_c
    (-1.0, 2, 1.0, False),
    (1.0, 2, 1.5, False),
])
def test_monomial_branches_match_the_numeric_path(h, k, beta, ball):
    maximize = maximize_ball_theory if ball else maximize_sphere_theory
    mono = SpikeSpec.monomial(h, k)
    lo_c = maximize(mono, beta)
    lo_n = maximize(SpikeSpec.polynomial(mono.coeffs), beta)
    assert lo_n.applicable == lo_c.applicable
    assert lo_n.value == pytest.approx(lo_c.value, abs=1e-12)
    assert lo_n.alpha_hat == pytest.approx(lo_c.alpha_hat, abs=1e-6)


@pytest.mark.parametrize("coeffs, beta, ball", [
    ([0, 0, 1], SQRT2, False),  # sphere: beta_c of x^2
    ([0, 0, 0, 0, 1], critical_betas(4, 1.0)[0], False),  # and of x^4
    ([0, 0, 1], SQRT2, True),  # ball: beta = sqrt2 h at degree 2
    ([0, 0, 2], 2 * SQRT2, True),
    ([0, 0, 0, tap_threshold(3, 1.0)], 1.0, True),  # h = h_c at degree 3
])
def test_numeric_path_flags_the_critical_coupling_tie(coeffs, beta, ball):
    # the closed forms disagree on which tied state they report, so only the
    # flag, the value and the refusal of the fluctuation constants are compared
    maximize, fluct_params = (
        (maximize_ball_theory, fluct_params_ball) if ball
        else (maximize_sphere_theory, fluct_params_sphere))
    mono = SpikeSpec.monomial(coeffs[-1], len(coeffs) - 1)
    lo_c = maximize(mono, beta)
    assert "tied" in lo_c.reason
    lo_n = maximize(SpikeSpec.polynomial(coeffs), beta)
    assert lo_n.applicable == lo_c.applicable
    assert lo_n.value == pytest.approx(lo_c.value, abs=1e-12)
    for spike in (mono, SpikeSpec.polynomial(coeffs)):
        with pytest.raises(InapplicableRegimeError):
            fluct_params(spike, beta)


# ---------------------------------------------------------------------------
# Limit laws and fluctuation constants


def limiting_lambda_law(l: float) -> tuple[float, float]:
    """Gaussian limit (mean, variance) of the centered resolvent trace at ``l``."""
    d = (l - SQRT2) * (l + SQRT2)
    if d <= 0.0:
        raise PoleError(f"resolvent law needs l > sqrt(2), got {l}")
    return (l - math.sqrt(d)) / (2.0 * d), 1.0 / (d * d)


def test_lambda_law_frozen():
    m, v = limiting_lambda_law(2.0)
    assert m == pytest.approx((2 - SQRT2) / 4, abs=1e-15)
    assert v == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(PoleError):
        limiting_lambda_law(SQRT2)


def test_lambda_law_at_maximizer_point():
    # l_hat for alpha_hat^2 = 1/3 is 5 sqrt(3)/6; law reduces to (4 sqrt 3, 144)
    lo = maximize_sphere_theory(SpikeSpec.monomial(1.0, 1), 1.0)
    m, v = limiting_lambda_law(lo.l_hat)
    assert m == pytest.approx(4 * math.sqrt(3), rel=1e-12)
    assert v == pytest.approx(144.0, rel=1e-12)


def test_fluct_params_sphere_frozen_linear():
    fp = fluct_params_sphere(SpikeSpec.monomial(1.0, 1), 1.0)
    assert fp.kappa == pytest.approx(0.25, abs=1e-14)
    assert fp.var_U == pytest.approx(16 / 3, rel=1e-12)
    assert fp.var_Uprime == pytest.approx(1408.0, rel=1e-12)
    assert fp.cov_UUprime == pytest.approx(-128 / math.sqrt(3), rel=1e-12)
    assert fp.lambda_mean == pytest.approx(4 * math.sqrt(3), rel=1e-12)
    assert fp.lambda_var == pytest.approx(144.0, rel=1e-12)
    assert fp.G[0, 0] == pytest.approx(-math.sqrt(3) / 8, rel=1e-12)
    assert fp.G[0, 1] == pytest.approx(-1 / 32, rel=1e-12)
    assert fp.w == pytest.approx([math.sqrt(3), 0.25], rel=1e-12)
    assert fp.h_ll == pytest.approx(8 * math.sqrt(3), rel=1e-12)


def test_fluct_params_kappa_quadratic():
    fp = fluct_params_sphere(SpikeSpec.monomial(1.0, 2), 0.5)
    assert fp.kappa == pytest.approx(1.75, abs=1e-14)


def test_sigma_matches_maximizer_coordinates():
    # the maximizer-coordinate covariance equals the one built from the
    # semicircle transform and its derivatives at the dual point
    for h, b in [(1.0, 1.0), (1.5, 0.8), (0.7, 0.4)]:
        lead = maximize_sphere_theory(SpikeSpec.monomial(h, 1), b)
        fp = fluct_params_sphere(SpikeSpec.monomial(h, 1), b, lead)
        s0, s1, s2, s3 = (semicircle_transform(lead.l_hat, order=k) for k in range(4))
        assert fp.Sigma[0, 0] == pytest.approx(-2 * s1 - 2 * s0 * s0, rel=1e-9)
        assert fp.Sigma[0, 1] == pytest.approx(-s2 - 2 * s0 * s1, rel=1e-9)
        assert fp.Sigma[1, 1] == pytest.approx(-s3 / 3 - 2 * s1 * s1, rel=1e-9)


def test_weighted_variance_frozen():
    fp = fluct_params_sphere(SpikeSpec.monomial(1.0, 1), 1.0)
    assert fp.w @ fp.Sigma @ fp.w == pytest.approx(40.0, rel=1e-9)


def test_first_order_variance_closed_forms():
    # kappa^2 var_U has the compact forms beta^2 h^2/D and beta^2 c/(2 h^2)
    h, b = 1.3, 0.6
    fp1 = fluct_params_sphere(SpikeSpec.monomial(h, 1), b)
    d = h * h + 2 * b * b
    assert fp1.kappa**2 * fp1.var_U == pytest.approx(b * b * h * h / d, rel=1e-11)
    fp2 = fluct_params_sphere(SpikeSpec.monomial(h, 2), b)
    c = 2 * h * h - b * b
    assert fp2.kappa**2 * fp2.var_U == pytest.approx(b * b * c / (2 * h * h), rel=1e-11)


def test_corollary_matches_general_machinery():
    rng = np.random.default_rng(7)
    for k in (1, 2):
        for _ in range(25):
            h = float(rng.uniform(0.3, 2.5))
            b = float(rng.uniform(0.1, 2.0))
            if k == 2 and b >= SQRT2 * h * 0.98:
                continue
            cc = corollary_constants(k, h, b)
            fp = fluct_params_sphere(SpikeSpec.monomial(h, k), b)
            for name in (
                "kappa",
                "var_U",
                "var_Uprime",
                "cov_UUprime",
                "lambda_mean",
                "lambda_var",
            ):
                x, y = getattr(cc, name), getattr(fp, name)
                assert abs(x - y) <= 1e-10 * max(1.0, abs(x)), (k, h, b, name)
            scale = max(1.0, float(np.abs(cc.G).max()))
            assert np.allclose(cc.G, fp.G, rtol=1e-10, atol=1e-10 * scale)
            assert np.allclose(cc.G_resid, fp.G_resid, atol=1e-9 * scale)


def test_linear_spike_residual_matrix_collapses():
    # for a linear spike the ww-corrected matrix is diag(0, beta a^8 / (2 z^5))
    for h, b in [(1.0, 1.0), (2.0, 0.7), (0.9, 0.4)]:
        fp = fluct_params_sphere(SpikeSpec.monomial(h, 1), b)
        a2 = h * h / (h * h + 2 * b * b)
        z = math.sqrt(2 * (1 - a2))
        pred = np.diag([0.0, b * a2**4 / (2 * z**5)])
        scale = max(1.0, float(np.abs(fp.G).max()))
        assert np.allclose(fp.G_resid, pred, atol=1e-11 * scale)


def test_inapplicable_regime_raises():
    with pytest.raises(InapplicableRegimeError):
        fluct_params_sphere(SpikeSpec.monomial(1.0, 3), 1.0)
    with pytest.raises(InapplicableRegimeError):
        fluct_params_ball(SpikeSpec.monomial(0.4, 2), 1.0)
    with pytest.raises(InapplicableRegimeError):
        corollary_constants(2, 1.0, 2.0)


def test_fluct_params_sphere_rejects_positive_curvature():
    # an applicable leading order where B'' > 0: k = 2, h = beta = 1, alpha = 0.1
    f, a = SpikeSpec.monomial(1.0, 2), 0.1
    z = math.sqrt(2.0 * (1.0 - a * a))
    lead = LeadingOrder(a, (2.0 - a * a) / z, z, float(evaluate_B(a, 1.0, f)), "single")
    with pytest.raises(InapplicableRegimeError, match="not negative definite"):
        fluct_params_sphere(f, 1.0, lead)


def test_ball_fluct_params_linear_frozen():
    fp = fluct_params_ball(SpikeSpec.monomial(1.0, 1), 1.0)
    # kappa = beta r^2 a^2 / z^2 with r^2 = 1/2, a^2 = 1/2, z^2 = 1
    assert fp.kappa == pytest.approx(0.25, abs=1e-12)
    # the ww correction collapses on the first coordinate here as well
    assert fp.G_resid[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert fp.G_resid[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_generic_minimax_reproduces_sphere_closed_forms():
    for h, k, b in [(1.0, 1, 2.0), (1.0, 2, 1.0), (1.5, 1, 0.7)]:
        f = SpikeSpec.monomial(h, k)
        lo = maximize_sphere_theory(f, b)
        a, z = lo.alpha_hat, lo.z_hat
        b2 = float(f.d2(a)) - SQRT2 * b / (1 - a * a) ** 1.5
        inp = GenericMinimaxInput(
            h_g=b * a * a / z**2,
            h_gg=-2 * b * a * a / z**3,
            h_y_g=np.array([2 * b * a / z**2]),
            h_l_g=2 * b / z,
            h_l_l=b * z**3 / a**4,
            h_l_y=np.array([-2 * b / a]),
            hessian_B=np.array([[b2]]),
        )
        w, _, G = generic_minimax_params(inp)
        fp = fluct_params_sphere(f, b, lo)
        assert inp.h_g == pytest.approx(fp.kappa, rel=1e-13)
        assert np.allclose(G, fp.G, rtol=1e-11)
        G_resid = G + np.outer(w, w) / inp.h_l_l
        assert np.allclose(G_resid, fp.G_resid, rtol=1e-9, atol=1e-12)


def test_generic_minimax_K_factorization_on_ball():
    f = SpikeSpec.monomial(1.0, 2)
    g = RadialSpec.tap(1.0)
    lo = maximize_ball_theory(f, 1.0)
    fp = fluct_params_ball(f, 1.0, lo)
    a, r, z = lo.alpha_hat, lo.r_hat, lo.z_hat
    pref = 2 * r * a / z**2
    K_pred = pref * np.array([[2 * r / z**2, r * a**4 / z**3], [a, 0.0]])
    inp = GenericMinimaxInput(
        h_g=r * r * a * a / z**2,
        h_gg=-2 * r * r * a * a / z**3,
        h_y_g=np.array([2 * r * r * a / z**2, 2 * r * a * a / z**2]),
        h_l_g=2 * r * r / z,
        h_l_l=r * r * z**3 / a**4,
        h_l_y=np.array([-2 * r * r / a, 0.0]),
        hessian_B=np.array(
            [
                [
                    float(f.d2(r * a)) * r * r - SQRT2 * r * r / (1 - a * a) ** 1.5,
                    float(f.d1(r * a))
                    + float(f.d2(r * a)) * r * a
                    - 2 * SQRT2 * r * a / math.sqrt(1 - a * a),
                ],
                [
                    float(f.d1(r * a))
                    + float(f.d2(r * a)) * r * a
                    - 2 * SQRT2 * r * a / math.sqrt(1 - a * a),
                    float(f.d2(r * a)) * a * a
                    + float(g.d2(r))
                    + 2 * SQRT2 * math.sqrt(1 - a * a),
                ],
            ]
        ),
    )
    _, K, G = generic_minimax_params(inp)
    assert np.allclose(K, K_pred, rtol=1e-9)
    assert np.allclose(G, fp.G, rtol=1e-11)


def test_minimax_input_validation():
    with pytest.raises(ValueError):
        GenericMinimaxInput(
            h_g=1.0,
            h_gg=0.0,
            h_y_g=np.array([1.0, 2.0]),
            h_l_g=1.0,
            h_l_l=0.0,
            h_l_y=np.array([1.0, 2.0]),
            hessian_B=np.eye(2),
        )
    with pytest.raises(ValueError):
        GenericMinimaxInput(
            h_g=1.0,
            h_gg=0.0,
            h_y_g=np.array([1.0, 2.0]),
            h_l_g=1.0,
            h_l_l=1.0,
            h_l_y=np.array([1.0]),
            hessian_B=np.eye(2),
        )


def test_second_order_coefficient_against_numeric_expansion():
    # defining experiment for the quadratic matrix: perturb the transform by a
    # smooth bump and compare the extracted eps^2 coefficient of the sup-inf
    # value with kappa psi(l_hat) - v G_resid v / 2.
    c2, pred_resid, pred_display = second_order_predictions(SpikeSpec.monomial(1.0, 1), 1.0)
    assert c2 == pytest.approx(pred_resid, abs=5e-6)
    assert abs(c2 - pred_display) > 1e-2


@pytest.mark.parametrize(
    "k, h, beta, ball",
    [(1, 1.0, 1.0, True), (2, 1.5, 1.0, True), (3, 1.0, 0.8, False)],
)
def test_second_order_coefficient_independent_of_the_expansion(k, h, beta, ball):
    # the same experiment where no closed form exists: the ball, and a cubic
    # spike on the sphere; the reference shares no code with the saddle path
    c2, pred_resid, pred_display = second_order_predictions(SpikeSpec.monomial(h, k), beta, ball)
    assert c2 == pytest.approx(pred_resid, abs=5e-6)
    assert abs(c2 - pred_display) > 1e-2


@settings(max_examples=25, deadline=None)
@given(h=st.floats(0.4, 2.0), b=st.floats(0.1, 1.5))
def test_fluct_params_even_in_alpha_branch(h, b):
    # pair-branch residual coincidence: constants are even in alpha_hat, so a
    # quadratic spike's two branches share every fluctuation constant
    if b >= SQRT2 * h * 0.98:
        return
    fp = fluct_params_sphere(SpikeSpec.monomial(h, 2), b)
    assert np.all(np.isfinite(fp.G))
    a2 = 1 - b * b / (2 * h * h)
    # kappa depends on alpha only through alpha^2
    z2 = 2 * (1 - a2)
    assert fp.kappa == pytest.approx(b * a2 / z2, rel=1e-10)
