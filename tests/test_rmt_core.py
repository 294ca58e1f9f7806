import math
import mmap
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sklab import rmt_core
from sklab.rmt_core import (
    SQRT2,
    GoeSample,
    PoleError,
    classical_locations,
    linear_stat_clt,
    resolvent_moment,
    sample_spectral_model,
    semicircle_cdf,
    semicircle_transform,
)

# ---------------------------------------------------------------------------
# Oracles: quadrature of the density for the CDF and the order-0 transform,
# central differences for transform derivatives.  These are independent of the
# closed forms under test.


def semicircle_density(x: float) -> float:
    """Semicircle density ``sqrt(2 - x^2)/pi`` on ``[-sqrt(2), sqrt(2)]``, else 0."""
    return math.sqrt(2.0 - x * x) / math.pi if abs(x) < SQRT2 else 0.0


def cdf_by_quadrature(x: float) -> float:
    val, _ = integrate.quad(semicircle_density, -SQRT2, x)
    return val


def stieltjes_by_quadrature(l: float) -> float:
    val, _ = integrate.quad(lambda t: semicircle_density(t) / (l - t), -SQRT2, SQRT2)
    return val


def derivative_oracle(f, l: float, order: int) -> float:
    """Central finite differences of a scalar function, orders 1-3.

    Step sizes balance truncation against roundoff per order.
    """
    if order == 1:
        h = 1e-6
        return (f(l + h) - f(l - h)) / (2 * h)
    if order == 2:
        h = 1e-4
        return (f(l + h) - 2 * f(l) + f(l - h)) / h**2
    h = 5e-4
    return (f(l + 2 * h) - 2 * f(l + h) + 2 * f(l - h) - f(l - 2 * h)) / (2 * h**3)


# ---------------------------------------------------------------------------
# Semicircle CDF and classical locations


def test_cdf_matches_quadrature():
    for x in (-1.4, -0.7, 0.0, 0.3, 1.0, 1.41):
        assert semicircle_cdf(x) == pytest.approx(cdf_by_quadrature(x), abs=1e-10)


def test_cdf_endpoints_exact():
    assert semicircle_cdf(-SQRT2) == 0.0
    assert semicircle_cdf(SQRT2) == 1.0
    assert semicircle_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_domain_error():
    with pytest.raises(PoleError):
        semicircle_cdf(1.5)
    with pytest.raises(PoleError):
        semicircle_cdf(-2.0)


def test_classical_locations_small_n():
    assert classical_locations(1) == pytest.approx([SQRT2])
    assert classical_locations(2) == pytest.approx([0.0, SQRT2], abs=1e-13)
    th4 = classical_locations(4)
    assert th4[1] == pytest.approx(0.0, abs=1e-13)
    assert th4[3] == SQRT2
    assert th4[0] == pytest.approx(-th4[2], abs=1e-12)


@pytest.mark.parametrize("n", [3, 10, 137, 1000])
def test_classical_locations_are_quantiles(n):
    th = classical_locations(n)
    assert np.all(np.diff(th) > 0)
    k = np.arange(1, n + 1)
    err = np.abs(semicircle_cdf(th) - k / n)
    assert err[:-1].max() <= 1e-14
    assert th[-1] == SQRT2


# ---------------------------------------------------------------------------
# Semicircle transform


def test_semicircle_stieltjes_frozen_values():
    assert semicircle_transform(1.5) == pytest.approx(1.0, abs=1e-14)
    assert semicircle_transform(1.5, order=2) == pytest.approx(16.0, abs=1e-10)
    assert semicircle_transform(1.5, order=3) == pytest.approx(-288.0, abs=1e-9)
    assert semicircle_transform(SQRT2) == pytest.approx(SQRT2, abs=1e-14)


def test_semicircle_stieltjes_matches_quadrature():
    for l in (1.45, 1.8, 3.0, 10.0):
        assert semicircle_transform(l) == pytest.approx(stieltjes_by_quadrature(l), abs=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_semicircle_derivatives_match_finite_differences(order):
    for l in (1.6, 2.0, 3.5):
        exact = semicircle_transform(l, order=order)
        approx = derivative_oracle(semicircle_transform, l, order)
        assert exact == pytest.approx(approx, rel=2e-4, abs=1e-5)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=SQRT2 + 1e-9, max_value=60.0))
def test_semicircle_stieltjes_quadratic_identity(l):
    s = semicircle_transform(l)
    assert s * s - 2 * l * s + 2 == pytest.approx(0.0, abs=1e-9 * max(1.0, l * l))


def test_semicircle_domain_errors():
    with pytest.raises(PoleError):
        semicircle_transform(1.0)
    with pytest.raises(PoleError):
        semicircle_transform(SQRT2, order=1)


def test_semicircle_order_validation():
    with pytest.raises(ValueError, match="order must be in 0..3"):
        semicircle_transform(2.0, order=4)


# ---------------------------------------------------------------------------
# Resolvent-moment kernel: s^(k)(l) = (-1)^k k! resolvent_moment(x, w, l, k + 1)


def test_weighted_transform_two_atoms():
    # equal weights at +-1: s(l) = l/(l^2-1)
    atoms, w = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    assert resolvent_moment(atoms, w, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # second moment (1/2)(1/9 + 1) = 5/9, so s'(2) = -5/9
    assert resolvent_moment(atoms, w, 2.0, 2) == pytest.approx(5.0 / 9.0, rel=1e-15)
    # third moment (1/2)(1/27 + 1) = 14/27
    assert resolvent_moment(atoms, w, 2.0, 3) == pytest.approx(14.0 / 27.0, rel=1e-15)


def test_theta_transform_uses_classical_locations():
    # the n=2 classical locations are 0 and sqrt(2)
    th = classical_locations(2)
    got = resolvent_moment(th, np.full(2, 0.5), 3.0)
    assert got == pytest.approx(0.5 * (1 / 3 + 1 / (3 - SQRT2)), abs=1e-14)


def _sample_measure(name: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Atoms, weights and a point to their right for one sample measure."""
    smp = sample_spectral_model(12, seed=7)
    atoms = smp.eigenvalues if "lambda" in name else classical_locations(smp.n)
    weights = smp.u**2 if name.startswith("weighted") else np.full(smp.n, 1.0 / smp.n)
    return atoms, weights, float(atoms[-1]) + 0.9


@pytest.mark.parametrize(
    "sel", ["empirical_lambda", "classical_theta", "weighted_lambda_u", "weighted_theta_u"]
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_empirical_derivatives_match_finite_differences(sel, order):
    # sel names the measure: eigenvalue (lambda) or classical-location
    # (theta) atoms, weighted uniformly or by u_i^2
    atoms, w, l = _sample_measure(sel)
    f = lambda t: float(resolvent_moment(atoms, w, t))
    exact = (-1) ** order * math.factorial(order) * resolvent_moment(atoms, w, l, order + 1)
    approx = derivative_oracle(f, l, order)
    assert exact == pytest.approx(approx, rel=2e-4, abs=2e-5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_resolvent_moment_array_l_matches_scalar_calls(k):
    atoms, w, l = _sample_measure("weighted_lambda_u")
    ls = l + np.array([0.0, 0.1, 0.5, 2.0, 10.0])
    got = resolvent_moment(atoms, w, ls, k)
    assert got.shape == ls.shape
    for li, gi in zip(ls, got):
        assert gi == pytest.approx(float(resolvent_moment(atoms, w, float(li), k)), rel=1e-14)


# ---------------------------------------------------------------------------
# Sampling


def sample_goe(n: int, seed: int) -> np.ndarray:
    """The full GOE matrix of a seed: symmetric, ``Var(J_ii)=1``, ``Var(J_ij)=1/2``.

    The reference for the sampler, which builds only one triangle of it
    from the same Philox stream.
    """
    a = np.random.Generator(np.random.Philox(seed)).standard_normal((n, n))
    return (a + a.T) / 2.0


def test_sample_goe_deterministic_and_symmetric():
    a = sample_goe(25, seed=123)
    b = sample_goe(25, seed=123)
    c = sample_goe(25, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, a.T)


def test_sample_goe_variance_structure():
    # average over many draws: Var(diag) = 1, Var(offdiag) = 1/2
    n, m = 30, 400
    diag2 = np.empty(m)
    off2 = np.empty(m)
    for k in range(m):
        j = sample_goe(n, seed=k)
        diag2[k] = np.mean(np.diag(j) ** 2)
        iu = np.triu_indices(n, k=1)
        off2[k] = np.mean(j[iu] ** 2)
    assert np.mean(diag2) == pytest.approx(1.0, rel=0.05)
    assert np.mean(off2) == pytest.approx(0.5, rel=0.05)


@pytest.mark.parametrize("mode", ["invariance"])  # the one value the keyword takes
def test_sample_spectral_model_basic(mode):
    s = sample_spectral_model(60, seed=5, mode=mode)
    assert s.n == 60
    assert np.all(np.diff(s.eigenvalues) > 0)
    assert s.u @ s.u == pytest.approx(1.0, abs=1e-12)
    again = sample_spectral_model(60, seed=5, mode=mode)
    assert np.array_equal(s.eigenvalues, again.eigenvalues)
    assert np.array_equal(s.u, again.u)


def test_sample_u_is_the_normalized_spike_gaussians():
    s = sample_spectral_model(40, seed=11)
    raw = s.raw_gaussians
    assert np.array_equal(s.u, raw / math.sqrt(float(raw @ raw)))
    # the spectrum is the matrix's; the Gaussians come after it in the stream
    j = sample_goe(40, seed=11) / math.sqrt(40)
    assert np.array_equal(s.eigenvalues, np.linalg.eigvalsh(j))


_B = rmt_core._SYMMETRIZE_ROWS


_SIZES = [1, 2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 500]


def _assert_draw_matches_the_full_symmetric_matrix(n):
    # the reference builds the whole of (a + a.T) / (2 sqrt(n)) from the same
    # Philox stream; the sampler builds only one triangle, block by block
    rng = np.random.Generator(np.random.Philox(9))
    a = rng.standard_normal((n, n))
    lam = rmt_core._break_ties(np.linalg.eigvalsh((a + a.T) / (2.0 * math.sqrt(n))))
    s = sample_spectral_model(n, seed=9)
    assert np.array_equal(s.eigenvalues, lam)
    assert np.array_equal(s.raw_gaussians, rng.standard_normal(n))


@pytest.mark.parametrize("n", _SIZES)
def test_in_place_draw_matches_the_full_symmetric_matrix(n):
    # NumPy's own dsyevd overwrites the draw, where NumPy exports it
    _assert_draw_matches_the_full_symmetric_matrix(n)


@pytest.mark.parametrize("n", _SIZES)
def test_eigvalsh_fallback_matches_the_full_symmetric_matrix(n, monkeypatch):
    monkeypatch.setattr(rmt_core, "_numpy_dsyevd", lambda: None)
    _assert_draw_matches_the_full_symmetric_matrix(n)


@pytest.mark.parametrize("lapack", [True, False])
def test_a_matrix_without_a_spectrum_raises_linalg_error(lapack, monkeypatch):
    # _run_trial turns LinAlgError into an invalid row, on either path
    if not lapack:
        monkeypatch.setattr(rmt_core, "_numpy_dsyevd", lambda: None)
    with pytest.raises(np.linalg.LinAlgError):
        rmt_core._eigvalsh_in_place(np.full((3, 3), np.nan))


# From _PAGED_MIN_N on a draw lives in a page-sparse mapping whose rows are
# padded to whole pages.  With the constant patched to 1 every size above runs
# through it, plus the sizes whose rows fill exactly one page or just over it.
_PAGE = mmap.PAGESIZE // 8
_P = rmt_core._PAGED_MIN_N


@pytest.fixture
def paged(monkeypatch):
    monkeypatch.setattr(rmt_core, "_PAGED_MIN_N", 1)


@pytest.mark.parametrize("n", _SIZES + [_PAGE, _PAGE + 1])
def test_paged_draw_matches_the_full_symmetric_matrix(n, paged):
    _assert_draw_matches_the_full_symmetric_matrix(n)


@pytest.mark.parametrize("n", _SIZES)
def test_paged_eigvalsh_fallback_matches_the_full_symmetric_matrix(n, paged, monkeypatch):
    monkeypatch.setattr(rmt_core, "_numpy_dsyevd", lambda: None)
    _assert_draw_matches_the_full_symmetric_matrix(n)


@pytest.mark.parametrize("n", [_P - 1, _P])
def test_draws_either_side_of_the_paged_size_match_the_full_symmetric_matrix(n):
    _assert_draw_matches_the_full_symmetric_matrix(n)


def test_the_draw_buffer_is_page_sparse_from_the_size_constant():
    assert rmt_core._draw_buffer(_P - 1).flags.c_contiguous
    a = rmt_core._draw_buffer(_P)
    assert a.shape == (_P, _P) and a.strides[0] % mmap.PAGESIZE == 0


@pytest.mark.parametrize("lapack", [True, False])
def test_a_paged_matrix_without_a_spectrum_raises_linalg_error(lapack, paged, monkeypatch):
    if not lapack:
        monkeypatch.setattr(rmt_core, "_numpy_dsyevd", lambda: None)
    a = rmt_core._draw_buffer(3)
    a[...] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        rmt_core._eigvalsh_in_place(a)


@pytest.mark.parametrize("a", [
    np.eye(3, dtype=np.float32), np.eye(3)[:, :2], np.asfortranarray(np.ones((3, 3))),
    np.eye(4)[::2, ::2], np.ones(3),
])
def test_the_lapack_call_takes_only_a_c_contiguous_square_double_buffer(a):
    with pytest.raises(ValueError, match="square float64 array with contiguous rows"):
        rmt_core._eigvalsh_in_place(a)


@pytest.mark.parametrize("lapack", [True, False])
def test_the_lapack_call_reads_the_row_stride(lapack, monkeypatch):
    # rows padded past n, as in the paged buffer: LAPACK takes the stride as
    # its leading dimension and never reads the padding
    if not lapack:
        monkeypatch.setattr(rmt_core, "_numpy_dsyevd", lambda: None)
    j = sample_goe(5, seed=3)
    a = np.full((5, 8), np.nan)[:, :5]
    a[...] = j
    assert np.array_equal(rmt_core._eigvalsh_in_place(a), np.linalg.eigvalsh(j))


@pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, True, "4", None])
def test_sample_spectral_model_rejects_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_spectral_model(n, seed=0)


def test_a_draw_allocates_one_matrix_and_a_block():
    # the draw itself plus the buffered operands of one block of rows; the
    # full expression (a + a.T) / (2 sqrt(n)) held a second matrix
    n = 400
    sample_spectral_model(n, seed=0)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        sample_spectral_model(n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


def _fresh_process_growth(n: int) -> int:
    """Bytes by which one draw at ``n`` raises a fresh interpreter's peak RSS."""
    src = os.path.dirname(os.path.dirname(rmt_core.__file__))
    code = (
        "import resource\n"
        "from sklab.rmt_core import sample_spectral_model\n"
        "sample_spectral_model(64, seed=0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"sample_spectral_model({n}, seed=1)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return int(out.stdout) * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_draw_holds_one_matrix_in_a_fresh_process():
    # tracemalloc cannot see LAPACK's C-side copy: the guard above passed at
    # 1.26 n^2 doubles while eigvalsh's copy made the process hold two
    # matrices.  The peak resident size of a fresh interpreter sees it.
    n = 1500
    assert _fresh_process_growth(n) < 1.5 * n * n * 8


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_a_large_draw_holds_one_triangle_in_a_fresh_process():
    # the paged buffer never faults in the half LAPACK does not read: the
    # growth was 0.72 n^2 doubles here, 1.05 with the whole matrix resident
    n = 2000
    assert _fresh_process_growth(n) <= 0.85 * n * n * 8


def test_only_the_invariance_sampler_exists():
    with pytest.raises(ValueError, match="unknown mode"):
        sample_spectral_model(10, 0, mode="rotate")


@pytest.mark.parametrize("raw", [
    np.zeros(3), np.array([1.0, np.nan, 0.0]), np.array([np.inf, 1.0, 0.0]),
])
def test_goe_sample_rejects_raw_gaussians_without_a_finite_nonzero_norm(raw):
    with pytest.raises(ValueError, match="norm"):
        GoeSample(n=3, eigenvalues=np.array([-1.0, 0.0, 1.0]), raw_gaussians=raw)


def test_goe_sample_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape"):
        GoeSample(n=3, eigenvalues=np.array([-1.0, 0.0, 1.0]), raw_gaussians=np.ones(2))


def test_eigenvalues_track_semicircle():
    s = sample_spectral_model(500, seed=3)
    k = np.arange(1, 501) / 500
    gap = np.abs(semicircle_cdf(np.clip(s.eigenvalues, -SQRT2, SQRT2)) - k)
    assert gap.max() < 0.05


def test_tie_breaking_makes_strictly_increasing():
    from sklab.rmt_core import _break_ties

    lam = _break_ties(np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
    assert np.all(np.diff(lam) > 0)
    assert lam[1] == np.nextafter(0.0, np.inf)


# ---------------------------------------------------------------------------
# Linear eigenvalue statistic CLT


def test_linear_stat_identity_function():
    m, v = linear_stat_clt(lambda x: x, lambda x: 1.0)
    assert m == pytest.approx(0.0, abs=1e-10)
    assert v == pytest.approx(1.0, abs=1e-8)


def test_linear_stat_constant_function():
    m, v = linear_stat_clt(lambda x: 3.0, lambda x: 0.0)
    assert m == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_linear_stat_square_function():
    # hand computation via x = sqrt2 sin(phi):
    # mean = (2+2)/4 - (1/2pi) * pi = 1/2;  variance = (1/2pi^2) * 2 pi^2 = 1
    m, v = linear_stat_clt(lambda x: x * x, lambda x: 2 * x)
    assert m == pytest.approx(0.5, abs=1e-10)
    assert v == pytest.approx(1.0, abs=1e-8)


def test_linear_stat_resolvent_matches_closed_form():
    # w(x) = 1/(2-x): the statistic is the centered resolvent trace at l=2,
    # whose Gaussian limit is N((l - sqrt(l^2-2))/(2(l^2-2)), (l^2-2)^-2).
    m, v = linear_stat_clt(lambda x: 1.0 / (2.0 - x), lambda x: (2.0 - x) ** -2)
    assert m == pytest.approx((2.0 - SQRT2) / 4.0, abs=1e-9)
    assert v == pytest.approx(0.25, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)
def test_linear_stat_affine_covariance(a, b, c):
    # w -> a*w + b shifts: mean scales by a (constants cancel), variance by a^2
    w = lambda x: c * x * x + x
    wp = lambda x: 2 * c * x + 1
    m0, v0 = linear_stat_clt(w, wp)
    m1, v1 = linear_stat_clt(lambda x: a * w(x) + b, lambda x: a * wp(x))
    assert m1 == pytest.approx(a * m0, abs=1e-8)
    assert v1 == pytest.approx(a * a * v0, abs=1e-7 * max(1.0, a * a))
