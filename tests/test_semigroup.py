"""Tests for heat-kernel computation, defects, and the stochastic rescaling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jhl.quadrature as quadrature
import jhl.semigroup as semigroup
from jhl import _memo
from jhl.basis import JacobiParams, generator_coefficients, normalization
from jhl.config import RunConfig
from jhl.errors import NumericFailure
from jhl.quadrature import auto_order, laguerre_order
from jhl.semigroup import (
    DEFAULT_QUAD_TOL,
    clear_caches,
    kernel_dt_tensor,
    kernel_matrix,
    kernel_tensor,
    laguerre_split,
    markov_defect,
    semigroup_defect,
    weight_at_one,
)
from jhl.weights import norm_ratio_max, probe_matrix
from oracles import (apply_heat, bessel_kernels, build_generator, golub_welsch, kernel_dt_entry,
                     kernel_entry)

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)


def _rule_for(params, n_max, t_max):
    return golub_welsch(params, auto_order(n_max, t_max, 1e-12))


def _kernel(params, t, size):
    """The quadrature K_t, a slice of its one-time tensor."""
    return kernel_tensor(params, [t], size)[0]


def _at_one_closed_form(params, size):
    """p_n(1), n < size, in closed form: Legendre sqrt(n + 1/2), Chebyshev
    sqrt(2 / pi) past p_0(1) = 1 / sqrt(pi), and at (5/2, 1/2)
    sqrt(2 (n+1) (n+2)^2 (n+3) (2n+3) (2n+5) / (225 pi))."""
    n = np.arange(size, dtype=float)
    if params == LEGENDRE:
        return np.sqrt(n + 0.5)
    if params == CHEBYSHEV:
        return np.where(n == 0, 1.0 / np.sqrt(np.pi), np.sqrt(2.0 / np.pi))
    assert params == JacobiParams(2.5, 0.5)
    return np.sqrt(2.0 * (n + 1) * (n + 2) ** 2 * (n + 3) * (2 * n + 3) * (2 * n + 5)
                   / (225.0 * np.pi))


class TestKernelEntry:
    def test_symmetric_exactly(self):
        rule = _rule_for(LEGENDRE, 12, 1.0)
        assert kernel_entry(LEGENDRE, 1.0, 3, 9, rule) == \
            kernel_entry(LEGENDRE, 1.0, 9, 3, rule)

    def test_chebyshev_bessel_form(self):
        # K_t(n, m) = e^{-t} (I_{n-m}(t) + I_{n+m}(t)) for n, m >= 1
        from scipy.special import ive

        rule = _rule_for(CHEBYSHEV, 12, 2.0)
        for t in (0.3, 2.0):
            for n, m in ((1, 1), (4, 2), (6, 5)):
                expected = ive(n - m, t) + ive(n + m, t)
                assert_allclose(kernel_entry(CHEBYSHEV, t, n, m, rule), expected,
                                rtol=1e-11)

    def test_insufficient_order_rejected(self):
        from jhl.errors import ConvergenceFailure

        rule = golub_welsch(LEGENDRE, 3)
        with pytest.raises(ConvergenceFailure, match="order"):
            kernel_entry(LEGENDRE, 1.0, 4, 3, rule)


class TestKernelMatrix:
    def test_tiny_time_near_identity(self):
        kern = kernel_tensor(LEGENDRE, [1e-12], 16)[0]
        assert np.abs(kern - np.eye(16)).max() < 1e-9

    def test_methods_agree(self):
        for params in (LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)):
            for t in (0.1, 1.0, 10.0):
                quad = kernel_tensor(params, [t], 30)[0]
                spec = kernel_matrix(params, t, 30)
                assert np.abs(quad - spec).max() < 1e-8

    def test_positive_in_regime(self):
        kern = kernel_tensor(JacobiParams(2.5, 0.5), [0.7], 40)[0]
        assert kern.min() >= -1e-12

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_spectral_time_must_be_positive(self, t):
        with pytest.raises(ValueError, match="positive"):
            kernel_matrix(LEGENDRE, t, 8)

    @pytest.mark.parametrize("method", ["quadrature", "spectral"])
    def test_entries_immutable(self, method):
        kern = (kernel_tensor(LEGENDRE, [0.5], 8)[0] if method == "quadrature"
                else kernel_matrix(LEGENDRE, 0.5, 8))
        with pytest.raises(ValueError):
            kern[0, 0] = 99.0

    def test_tensor_stacks_matrices(self):
        times = np.array([0.2, 1.5])
        tensor = kernel_tensor(LEGENDRE, times, 12)
        for i, t in enumerate(times):
            assert_allclose(tensor[i], kernel_tensor(LEGENDRE, [t], 12)[0],
                            rtol=1e-13)

    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, JacobiParams(3.0, -0.9)],
                             ids=["chebyshev", "legendre", "skew"])
    def test_tensors_symmetric_bit_for_bit(self, params):
        # The delta images of the norm sweeps and the kernel-estimate
        # variations are taken on n <= m only and mirrored, so both routes
        # must give exactly symmetric K and dK: at size 64, times 1 and 1023
        # are below laguerre_split and 1024 and 1e5 at or above it.
        times = [1.0, 1023.0, 1024.0, 1e5]
        assert laguerre_split(params, 64) == 1024.0
        for tensor in (kernel_tensor(params, times, 64), kernel_dt_tensor(params, times, 64)):
            assert np.array_equal(tensor, tensor.transpose(0, 2, 1))

    @pytest.mark.parametrize("derivative", [False, True])
    def test_non_finite_tensor_raises(self, monkeypatch, derivative):
        quad_kernels = semigroup._quad_kernels

        def poisoned(*args, **kwargs):
            out = quad_kernels(*args, **kwargs)
            out[-1, 0, 1] = np.nan
            return out

        clear_caches()
        monkeypatch.setattr(semigroup, "_quad_kernels", poisoned)
        build = kernel_dt_tensor if derivative else kernel_tensor
        with pytest.raises(NumericFailure, match="non-finite"):
            build(LEGENDRE, [0.5, 2.0], 8)


class TestSpectralTruncation:
    # 5e-324, the smallest positive double, would underflow t / k.
    @pytest.mark.parametrize("t", [5e-324, 1e-12, 0.1, 1.0, 10.0, 100.0])
    def test_chernoff_bound_covers_poisson_tail(self, t):
        mpmath = pytest.importorskip("mpmath")
        ks = np.arange(1, int(4 * t) + 60)
        bound = semigroup._poisson_tail(t, ks)
        with mpmath.workdps(40):
            exact = [float(mpmath.gammainc(int(k), 0, t, regularized=True)) for k in ks]
        assert np.all(bound >= exact)

    @pytest.mark.parametrize("params", [CHEBYSHEV, JacobiParams(2.5, 0.5),
                                        JacobiParams(3.0, -0.9)],
                             ids=["chebyshev", "jacobi", "skew"])
    @pytest.mark.parametrize("size", [30, 64])
    def test_certified_truncation_meets_a_larger_one(self, params, size):
        # The oracle diagonalizes an 8N truncation with scipy's tridiagonal
        # solver, independently of the route's dense numpy.linalg.eigh.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        lam, vec = scipy_linalg.eigh_tridiagonal(*generator_coefficients(params, 8 * size))
        for t in (1.0, 10.0, 50.0, 100.0):
            oracle = (vec[:size] * np.exp(t * lam)) @ vec[:size].T
            spectral = kernel_matrix(params, t, size)
            assert np.abs(spectral - oracle).max() <= DEFAULT_QUAD_TOL

    @pytest.mark.parametrize("size", [30, 64])
    def test_large_time_keeps_four_times_the_size(self, size):
        assert semigroup._truncation(float(size * size), size, DEFAULT_QUAD_TOL) == 4 * size

    def test_eigensolver_failure_is_numeric(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericFailure, match="eigensolver"):
            kernel_matrix(LEGENDRE, 1.0, 8)


class TestDerivative:
    def test_centered_difference_second_order(self):
        rule = _rule_for(LEGENDRE, 8, 2.0)
        t = 0.8
        exact = kernel_dt_entry(LEGENDRE, t, 2, 5, rule)
        errors = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (kernel_entry(LEGENDRE, t + h, 2, 5, rule)
                  - kernel_entry(LEGENDRE, t - h, 2, 5, rule)) / (2 * h)
            errors.append(abs(fd - exact))
        # each decade of h buys about two decades of accuracy
        assert errors[1] < errors[0] / 20
        assert errors[2] < errors[1] / 2


class TestDefects:
    def test_markov_defect_small_and_shrinking(self):
        # t = 50 pushes mass out to distance ~ sqrt(t) * few, so size 32 truncates
        # visibly in rows n <= 8 while size 64 does not; at t = 1 both sit at
        # the noise floor.
        coarse = markov_defect(LEGENDRE, _kernel(LEGENDRE, 50.0, 32)[:9])
        fine = markov_defect(LEGENDRE, _kernel(LEGENDRE, 50.0, 64)[:9])
        assert coarse > 1e-5
        assert fine < 1e-8
        assert markov_defect(LEGENDRE, _kernel(LEGENDRE, 1.0, 100)[:6]) < 1e-10

    @pytest.mark.parametrize("count", [0, 18])
    def test_markov_defect_tail_guard(self, count):
        with pytest.raises(ValueError, match="rows"):
            markov_defect(LEGENDRE, _kernel(LEGENDRE, 1.0, 64)[:count])

    @pytest.mark.parametrize("params", [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)])
    def test_markov_defect_matches_closed_form_weights(self, params):
        size, t = 64, 0.7
        exact = _at_one_closed_form(params, size)
        rows = _kernel(params, t, size)[:size // 4 + 1]
        expected = max(float(abs(row @ exact - exact[n]) / exact[n])
                       for n, row in enumerate(rows))
        assert abs(markov_defect(params, rows) - expected) <= 1e-14

    def test_semigroup_identity(self):
        half = _kernel(LEGENDRE, 0.5, 128)
        assert semigroup_defect(half, half, _kernel(LEGENDRE, 1.0, 128)) < 1e-8
        # the law fails for kernels of unrelated times
        assert semigroup_defect(half, half, half) > 1e-2


def _tilde(params, t, f, size):
    """The conjugated semigroup W_t(v f) / v with v = p_.(1), Markovian on the lattice."""
    v = weight_at_one(params, size)
    return _kernel(params, t, size) @ (v * f) / v


class TestTildeScale:
    def test_apply_heat_matches_matrix(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(24)
        image = apply_heat(LEGENDRE, 0.9, f, 24)
        assert_allclose(image, _kernel(LEGENDRE, 0.9, 24) @ f,
                        rtol=1e-13)

    def test_short_signal_padded(self):
        f = np.array([1.0, 2.0])
        full = apply_heat(LEGENDRE, 0.9, np.pad(f, (0, 10)), 12)
        assert_allclose(apply_heat(LEGENDRE, 0.9, f, 12), full)

    def test_contraction_on_stochastic_scale(self):
        # conjugation by p_n(1) is a contraction of l^2 with weight p_n(1)^2
        params = JacobiParams(1.0, 0.0)
        size = 32
        w = weight_at_one(params, size) ** 2
        probes = probe_matrix(size, 8, 0)
        images = np.stack([_tilde(params, 0.6, probes[:, j], size)
                           for j in range(probes.shape[1])], axis=1)
        estimate = norm_ratio_max(images, probes, 2.0, w)
        assert estimate <= 1.0 + 1e-8

    def test_jensen_inequality_pointwise(self):
        params = JacobiParams(0.5, 0.0)
        size = 24
        rng = np.random.default_rng(7)
        for p in (1.5, 2.0, 3.0):
            f = rng.standard_normal(size)
            lhs = np.abs(_tilde(params, 0.4, f, size)) ** p
            rhs = _tilde(params, 0.4, np.abs(f) ** p, size)
            assert (lhs <= rhs + 1e-10).all()

    def test_markovian_row_sums(self):
        params = JacobiParams(2.5, 0.5)
        ones = np.ones(128)
        tilde = _tilde(params, 1.0, ones, 128)
        assert_allclose(tilde[:16], 1.0, atol=1e-9)


class TestCaches:
    @pytest.mark.parametrize("params", [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)],
                             ids=["legendre", "chebyshev", "asymmetric"])
    def test_weight_at_one_meets_closed_forms(self, params):
        # ortho_poly_at_one, a difference of log-gammas, is 3.5e-12 off below
        # n = 2000; the running products of ratios stay within 1.3e-14.
        size = 2000
        assert_allclose(weight_at_one(params, size), _at_one_closed_form(params, size),
                        rtol=2e-14, atol=0.0)

    def test_scalar_oracles_do_not_grow_memo(self):
        rule = golub_welsch(LEGENDRE, 40)
        before = len(_memo._cache)
        for n in range(12):
            kernel_entry(LEGENDRE, 0.5, n, 11 - n, rule)
            kernel_dt_entry(LEGENDRE, 0.5, n, 2 * n, rule)
        assert len(_memo._cache) == before

    def test_clear_and_recompute(self):
        # A tensor is not memoised: each call builds a new one, from the
        # memoised eigen-rows or, once they are cleared, from new ones, with
        # the same bits.
        clear_caches()
        first = kernel_tensor(LEGENDRE, [0.3], 8)
        again = kernel_tensor(LEGENDRE, [0.3], 8)
        assert again is not first
        assert np.array_equal(again, first)
        assert [key[0] for key in _memo._cache] == ["rows"]
        clear_caches()
        fresh = kernel_tensor(LEGENDRE, [0.3], 8)
        assert fresh is not first
        assert np.array_equal(fresh, first)


ORACLE_PARAMS = [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)]


class TestAssemblyOracles:
    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    @pytest.mark.parametrize("t", [1e-3, 0.7, 50.0])
    def test_scalar_entries_match_batch(self, params, t):
        # Relative to the largest entry: entries at rounding level carry no
        # relative accuracy on either route.
        size = 24
        kern = _kernel(params, t, size)
        dkern = kernel_dt_tensor(params, [t], size)[0]
        rule = golub_welsch(params, auto_order(size - 1, t, DEFAULT_QUAD_TOL))
        scalar = np.array([[kernel_entry(params, t, n, m, rule) for m in range(size)]
                           for n in range(size)])
        dscalar = np.array([[kernel_dt_entry(params, t, n, m, rule) for m in range(size)]
                            for n in range(size)])
        assert np.abs(scalar - kern).max() <= 1e-13 * np.abs(kern).max()
        assert np.abs(dscalar - dkern).max() <= 1e-13 * np.abs(dkern).max()


def _corner_exact(params, t):
    """K_t(0, 0) = w_0^2 int e^{-t(1-x)} dmu; with 1 - x = 2u the integral is
    2^(a+b+1) B(a+1, b+1) 1F1(a+1; a+b+2; -2t)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
        return float(mpmath.mpf(normalization(params, 0)) ** 2 * 2 ** (a + b + 1)
                     * mpmath.beta(a + 1, b + 1) * mpmath.hyp1f1(a + 1, a + b + 2, -2 * t))


def _closed_form_cases():
    # At size 64, t = 1e4, 1e5 and 1e7 take the Gauss-Laguerre route.
    for ab in [(-0.5, -0.5), (0.0, 0.0), (2.5, 0.5), (4.0, 1.5), (3.0, -0.9)]:
        for t in (1e-3, 1.0, 1e2, 1e4):
            yield pytest.param(JacobiParams(*ab), t, 64, id=f"{ab}-{t:g}")
    for ab in [(0.0, 0.0), (-0.5, -0.5), (2.5, 0.5)]:
        for t in (1e5, 1e7):
            yield pytest.param(JacobiParams(*ab), t, 64, id=f"{ab}-{t:g}")
    # Large and near-singular exponents, at times below their split.
    for ab in [(10.0, -0.9), (50.0, 0.0), (100.0, 0.0)]:
        for size in (64, 256):
            for t in (1e-3, 1.0, 1e2):
                yield pytest.param(JacobiParams(*ab), t, size, id=f"{ab}-{t:g}-{size}")


class TestClosedForm:
    @pytest.mark.parametrize("params, t, size", list(_closed_form_cases()))
    def test_corner_entry_matches_confluent_hypergeometric(self, params, t, size):
        exact = _corner_exact(params, t)
        value = kernel_tensor(params, [t], size)[0][0, 0]
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_corner_entry_at_default_norms_grid_end(self, size):
        # The default norms grid ends at t = 1e5, above size^2 / 4 for every
        # size here, so the Gauss-Laguerre route computes it; Gauss-Jacobi at
        # its certified order 1296 is 4.5e-14 relative off at size 64. For
        # Legendre the closed form is (1 - e^{-2t}) / (2t).
        times = RunConfig().norms_t_grid.build().times
        t = times[-1]
        exact = -np.expm1(-2.0 * t) / (2.0 * t)
        value = kernel_tensor(LEGENDRE, times, size)[-1][0, 0]
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact


class TestMatrixExponential:
    """Every entry of K against scipy's Pade exponential of the truncated
    generator, which takes no eigensolve, at large and near-singular
    exponents: there p_n(1) spans many decades and the nodes crowd an
    endpoint."""

    @pytest.mark.parametrize("params", [JacobiParams(10.0, -0.9), JacobiParams(50.0, 0.0),
                                        JacobiParams(0.0, -0.99), JacobiParams(-0.99, 0.0)],
                             ids=JacobiParams.tag)
    def test_kernel_meets_expm_of_the_truncation(self, params):
        # The exponential truncates at twice the size: at t <= 100 the heat
        # from the first 256 sites reaches the cut with probability below
        # P(Poisson(100) >= 513), so that truncation is the lattice's kernel
        # to far below rounding. The worst entry is 2.8e-15 off, at (50, 0),
        # t = 1e-3, on the diagonal.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        size, times = 256, [1e-3, 1.0, 10.0, 100.0]
        assert max(times) < laguerre_split(params, size)
        generator = build_generator(params, 2 * size)
        for t in times:
            exact = scipy_linalg.expm(t * generator)[:size, :size]
            kernel = kernel_tensor(params, [t], size)[0]
            assert np.abs(kernel - exact).max() <= 1e-13, t


# Both default grids' ranges; at sizes 64 and 256 the last two times are past
# laguerre_split, so both quadrature routes are held to the closed forms.
BESSEL_TIMES = (1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 2e4, 1e5)
BESSEL_PARAMS = [CHEBYSHEV, JacobiParams(0.5, 0.5)]


class TestBesselClosedForm:
    """Every entry of K and dK at (-1/2, -1/2) and (1/2, 1/2) against its
    closed form in Bessel functions (`oracles.bessel_kernels`)."""

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("params", BESSEL_PARAMS, ids=JacobiParams.tag)
    def test_quadrature_routes_meet_closed_form(self, params, size):
        split = laguerre_split(params, size)
        assert min(BESSEL_TIMES) < split <= max(BESSEL_TIMES)
        exact, d_exact = bessel_kernels(params, BESSEL_TIMES, size)
        kernels = kernel_tensor(params, BESSEL_TIMES, size)
        d_kernels = kernel_dt_tensor(params, BESSEL_TIMES, size)
        assert np.abs(kernels - exact).max() <= DEFAULT_QUAD_TOL
        assert np.abs(d_kernels - d_exact).max() <= DEFAULT_QUAD_TOL

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("params", BESSEL_PARAMS, ids=JacobiParams.tag)
    def test_spectral_route_meets_closed_form(self, params, size):
        # only where the certified truncation is below its 4N cap
        times = [t for t in BESSEL_TIMES
                 if semigroup._truncation(t, size, DEFAULT_QUAD_TOL) < 4 * size]
        assert len(times) >= 4
        exact, _ = bessel_kernels(params, times, size)
        for t, expected in zip(times, exact):
            spectral = kernel_matrix(params, t, size)
            assert np.abs(spectral - expected).max() <= DEFAULT_QUAD_TOL, t


def _mp_kernels(params, t, size):
    """Oracle: K_t and d/dt K_t by Gauss-Legendre quadrature in u = t(1 - x)
    at 30 digits, from the recurrence coefficients' closed forms; independent
    of the package. K_t(n, m) = t^(-a-1) int_0^{2t} u^a e^{-u} (2 - u/t)^b
    p_n(1 - u/t) p_m(1 - u/t) du, and dK takes the factor -u/t. The integral
    runs over [0, 800] (u = v^2 on [0, 1], which leaves v^(2a+1)), so it needs
    2t >= 800; beyond 800, e^{-u} leaves nothing a double can hold. Sums are
    taken in long double."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, t = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(t)
        ab = a + b
        diag = [(b * b - a * a) / ((2 * n + ab) * (2 * n + ab + 2)) if n else
                1 - (2 * a + 2) / (ab + 2) for n in range(size)]
        off = [2 / (ab + 2) * mpmath.sqrt((a + 1) * (b + 1) / (ab + 3))]
        for n in range(1, size):
            s = 2 * n + ab + 2
            off.append(2 / s * mpmath.sqrt((n + 1) * (n + a + 1) * (n + b + 1) * (n + ab + 1)
                                           / ((s - 1) * (s + 1))))
        p0 = mpmath.sqrt(mpmath.gamma(ab + 2)
                         / (2 ** (ab + 1) * mpmath.gamma(a + 1) * mpmath.gamma(b + 1)))
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).get_nodes(
            -1, 1, 5, mpmath.mp.prec)
        points = [((y + 1) ** 2 / 4, w * (y + 1) / 2) for y, w in rule]
        cuts = [1, 4, 16, 64, 256, 800]
        for lo, hi in zip(cuts, cuts[1:]):
            points += [(lo + (hi - lo) * (y + 1) / 2, w * (hi - lo) / 2) for y, w in rule]
        cols, weights = [], []
        for u, w in points:
            x = 1 - u / t
            col = [p0, (x - diag[0]) * p0 / off[0]]
            for n in range(1, size - 1):
                col.append(((x - diag[n]) * col[n] - off[n - 1] * col[n - 1]) / off[n])
            cols.append([mpmath.nstr(v, 25) for v in col[:size]])
            weights.append(w * u ** a * mpmath.exp(-u) * (2 - u / t) ** b * t ** (-a - 1))
        gaps = [mpmath.nstr(u / t, 25) for u, _ in points]
        weights = [mpmath.nstr(w, 25) for w in weights]
    table = np.array(cols, dtype=np.longdouble).T
    w = np.array(weights, dtype=np.longdouble)
    gap = np.array(gaps, dtype=np.longdouble)
    return (((table * w) @ table.T).astype(float),
            ((table * (-w * gap)) @ table.T).astype(float))


LAGUERRE_ORACLE_PARAMS = [LEGENDRE, JacobiParams(2.5, 0.5), JacobiParams(3.0, -0.9)]


class TestLaguerreRoute:
    """Times at or above laguerre_split take the Gauss-Laguerre route in
    u = t(1 - x)."""

    @pytest.mark.parametrize("params", LAGUERRE_ORACLE_PARAMS, ids=["legendre", "asym", "skew"])
    @pytest.mark.parametrize("t", [1024.0, 1e5, 1e7])
    def test_whole_matrix_matches_mpmath(self, params, t):
        # Size 64, so t = 1024 is the split. K meets quad_tol relative on
        # every entry above 1e-8 max|K|; below, entries carry cancellation (at
        # (3, -0.9) the smallest is 5e-13 of the largest). dK changes sign
        # across the matrix: it meets quad_tol relative above 1e-2 max|dK|.
        # Every entry of both is within quad_tol max. At (0, 0), t = 1024, dK
        # entries near 4e-4 of the largest cancel: up to 1.8e-12 relative off,
        # also with the exact Laguerre rule, and 1.3e-12 off by Gauss-Jacobi.
        size = 64
        exact, dexact = _mp_kernels(params, t, size)
        for got, ref, floor in ((kernel_tensor(params, [t], size)[0], exact, 1e-8),
                                (kernel_dt_tensor(params, [t], size)[0], dexact, 1e-2)):
            scale = np.abs(ref).max()
            big = np.abs(ref) >= floor * scale
            assert np.max(np.abs(got - ref)[big] / np.abs(ref)[big]) <= DEFAULT_QUAD_TOL
            assert np.abs(got - ref).max() <= DEFAULT_QUAD_TOL * scale

    @pytest.mark.parametrize("params", [CHEBYSHEV] + LAGUERRE_ORACLE_PARAMS,
                             ids=["chebyshev", "legendre", "asym", "skew"])
    @pytest.mark.parametrize("size", [16, 64])
    def test_routes_agree_at_the_split(self, params, size):
        t = laguerre_split(params, size)
        assert t == size * size / 4
        times = np.array([t])
        jacobi, laguerre = np.empty((2, 1, size, size))
        semigroup._jacobi_kernels(jacobi, [0], params, times, size, DEFAULT_QUAD_TOL, False)
        semigroup._laguerre_kernels(laguerre, [0], params, times, size, DEFAULT_QUAD_TOL, False)
        assert np.abs(jacobi - laguerre).max() <= 5e-13 * np.abs(laguerre).max()
        assert np.array_equal(kernel_tensor(params, times, size), laguerre)

    def test_batch_splits_at_the_crossover(self):
        # Each slice is the value of its route alone; the Gauss-Jacobi order
        # covers only the times below the split.
        clear_caches()
        times = [1.0, 500.0, 2000.0, 1e5]
        batch = kernel_tensor(CHEBYSHEV, times, 64)
        assert np.array_equal(batch[:2], kernel_tensor(CHEBYSHEV, times[:2], 64))
        assert np.array_equal(batch[2:], kernel_tensor(CHEBYSHEV, times[2:], 64))
        assert [key[4] for key in _memo._cache if key[0] == "rows"] == \
            [auto_order(63, 500.0, DEFAULT_QUAD_TOL)]
        assert [key[4:6] for key in _memo._cache if key[0] == "laguerre_order"] == [(2000.0, 1e5)]
        # the memo holds the tensors' shared inputs, not the tensors
        assert {key[0] for key in _memo._cache} == {"rows", "laguerre_order", "laguerre"}
        clear_caches()

    @pytest.mark.parametrize("params", [CHEBYSHEV] + LAGUERRE_ORACLE_PARAMS,
                             ids=["chebyshev", "legendre", "asym", "skew"])
    def test_first_doubling_agrees_past_the_split(self, params):
        for size in (16, 64, 128):
            assert laguerre_order(params, size - 1, size * size / 4, 1e7,
                                  DEFAULT_QUAD_TOL) == size + 16

    def test_split_keeps_small_sizes_on_gauss_jacobi(self):
        # At size 8, size^2 / 4 = 16 would leave the mass dropped past u = 2t
        # visible: the Gauss-Laguerre value there is about 5e-9 relative off.
        # The split waits until t = 2 (alpha + 16).
        params = JacobiParams(3.0, -0.9)
        assert laguerre_split(params, 8) == 38.0
        assert laguerre_split(params, 64) == 1024.0
        (table, weights, _), = quadrature._laguerre_terms(params, 7, [16.0], 24)
        exact = _corner_exact(params, 16.0)
        assert abs(weights @ table[0] ** 2 - exact) > 1e-10 * exact
        assert abs(kernel_tensor(params, [16.0], 8)[0][0, 0] - exact) <= DEFAULT_QUAD_TOL * exact
        exact = _corner_exact(params, 38.0)
        assert abs(kernel_tensor(params, [38.0], 8)[0][0, 0] - exact) <= DEFAULT_QUAD_TOL * exact
