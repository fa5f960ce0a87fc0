"""Tests for heat-kernel computation, defects, and the stochastic rescaling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jhl.quadrature as quadrature
import jhl.semigroup as semigroup
from jhl import _memo
from jhl.basis import JacobiParams, normalization
from jhl.config import RunConfig
from jhl.quadrature import auto_order, build_rule, laguerre_order
from jhl.semigroup import (
    DEFAULT_QUAD_TOL,
    apply_heat,
    apply_heat_tilde,
    clear_caches,
    fourier_transform,
    kernel_dt_entry,
    kernel_dt_tensor,
    kernel_entry,
    kernel_matrix,
    kernel_tensor,
    laguerre_split,
    markov_defect,
    semigroup_defect,
    weight_at_one,
)
from jhl.weights import ProbePolicy, norm_ratio_max, probe_matrix

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)


def _rule_for(params, n_max, t_max):
    return build_rule(params, auto_order(n_max, t_max, 1e-12))


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

    def test_rejects_nonpositive_time(self):
        rule = _rule_for(LEGENDRE, 4, 1.0)
        with pytest.raises(ValueError, match="identity"):
            kernel_entry(LEGENDRE, 0.0, 0, 0, rule)
        with pytest.raises(ValueError, match="nonnegative"):
            kernel_entry(LEGENDRE, -1.0, 0, 0, rule)

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

        rule = build_rule(LEGENDRE, 3)
        with pytest.raises(ConvergenceFailure, match="order"):
            kernel_entry(LEGENDRE, 1.0, 4, 3, rule)


class TestKernelMatrix:
    def test_time_zero_is_identity(self):
        kern = kernel_matrix(LEGENDRE, 0.0, 10)
        assert_allclose(kern, np.eye(10))

    def test_tiny_time_near_identity(self):
        kern = kernel_matrix(LEGENDRE, 1e-12, 16)
        assert np.abs(kern - np.eye(16)).max() < 1e-9

    def test_methods_agree(self):
        for params in (LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)):
            for t in (0.1, 1.0, 10.0):
                quad = kernel_matrix(params, t, 30, method="quadrature")
                spec = kernel_matrix(params, t, 30, method="spectral")
                assert np.abs(quad - spec).max() < 1e-8

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            kernel_matrix(LEGENDRE, 1.0, 8, method="pade")

    def test_positive_in_regime(self):
        kern = kernel_matrix(JacobiParams(2.5, 0.5), 0.7, 40)
        assert kern.min() >= -1e-12

    @pytest.mark.parametrize("t, method", [(0.0, "quadrature"), (0.5, "quadrature"),
                                           (0.5, "spectral")])
    def test_entries_immutable(self, t, method):
        kern = kernel_matrix(LEGENDRE, t, 8, method)
        with pytest.raises(ValueError):
            kern[0, 0] = 99.0

    def test_tensor_stacks_matrices(self):
        times = np.array([0.2, 1.5])
        tensor = kernel_tensor(LEGENDRE, times, 12)
        for i, t in enumerate(times):
            assert_allclose(tensor[i], kernel_matrix(LEGENDRE, t, 12),
                            rtol=1e-13)


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
        # visibly while size 64 does not; at t = 1 both sit at the noise floor.
        coarse = markov_defect(LEGENDRE, 50.0, 8, 32)
        fine = markov_defect(LEGENDRE, 50.0, 8, 64)
        assert coarse > 1e-5
        assert fine < 1e-8
        assert markov_defect(LEGENDRE, 1.0, 5, 100) < 1e-10

    def test_markov_defect_zero_time(self):
        assert markov_defect(LEGENDRE, 0.0, 3, 64) == 0.0

    def test_markov_defect_tail_guard(self):
        with pytest.raises(ValueError, match="n"):
            markov_defect(LEGENDRE, 1.0, 40, 64)

    @pytest.mark.parametrize("params", [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)])
    def test_markov_defect_matches_closed_form_weights(self, params):
        size, t = 64, 0.7
        exact = _at_one_closed_form(params, size)
        rows = kernel_matrix(params, t, size)
        for n in range(size // 4 + 1):
            expected = float(abs(rows[n] @ exact - exact[n]) / exact[n])
            assert abs(markov_defect(params, t, n, size) - expected) <= 1e-14

    def test_semigroup_identity(self):
        assert semigroup_defect(LEGENDRE, 0.5, 0.5, 128) < 1e-8
        assert semigroup_defect(LEGENDRE, 0.0, 0.7, 64) == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(20)
        rule = build_rule(LEGENDRE, 25)
        vals = fourier_transform(LEGENDRE, f, rule.nodes)
        assert abs(f @ f - rule.weights @ (vals * vals)) < 1e-10

    def test_fourier_of_delta_is_polynomial(self):
        from jhl.basis import ortho_poly

        x = np.linspace(-0.8, 0.8, 5)
        delta = np.zeros(7)
        delta[6] = 1.0
        assert_allclose(fourier_transform(LEGENDRE, delta, x),
                        ortho_poly(LEGENDRE, 6, x), rtol=1e-12)


class TestTildeScale:
    def test_apply_heat_matches_matrix(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(24)
        image = apply_heat(LEGENDRE, 0.9, f, 24)
        assert_allclose(image, kernel_matrix(LEGENDRE, 0.9, 24) @ f,
                        rtol=1e-13)

    def test_short_signal_padded(self):
        f = np.array([1.0, 2.0])
        full = apply_heat(LEGENDRE, 0.9, np.pad(f, (0, 10)), 12)
        assert_allclose(apply_heat(LEGENDRE, 0.9, f, 12), full)

    def test_oversized_signal_rejected(self):
        with pytest.raises(ValueError, match="support"):
            apply_heat(LEGENDRE, 0.9, np.ones(5), 4)
        with pytest.raises(ValueError, match="one-dimensional"):
            apply_heat(LEGENDRE, 0.9, np.ones((2, 2)), 4)

    def test_contraction_on_stochastic_scale(self):
        # conjugation by p_n(1) is a contraction of l^2 with weight p_n(1)^2
        params = JacobiParams(1.0, 0.0)
        size = 32
        w = weight_at_one(params, size) ** 2
        probes = probe_matrix(ProbePolicy(size, 8, 0))
        images = np.stack([apply_heat_tilde(params, 0.6, probes[:, j], size)
                           for j in range(probes.shape[1])], axis=1)
        estimate = norm_ratio_max(images, probes, 2.0, w)
        assert estimate <= 1.0 + 1e-8

    def test_jensen_inequality_pointwise(self):
        params = JacobiParams(0.5, 0.0)
        size = 24
        rng = np.random.default_rng(7)
        for p in (1.5, 2.0, 3.0):
            f = rng.standard_normal(size)
            lhs = np.abs(apply_heat_tilde(params, 0.4, f, size)) ** p
            rhs = apply_heat_tilde(params, 0.4, np.abs(f) ** p, size)
            assert (lhs <= rhs + 1e-10).all()

    def test_markovian_row_sums(self):
        params = JacobiParams(2.5, 0.5)
        ones = np.ones(128)
        tilde = apply_heat_tilde(params, 1.0, ones, 128)
        assert_allclose(tilde[:16], 1.0, atol=1e-9)


class TestCaches:
    def test_weight_at_one_memoised_read_only(self):
        params = JacobiParams(1.0, 0.0)
        v = weight_at_one(params, 16)
        assert weight_at_one(params, 16) is v
        assert not v.flags.writeable

    @pytest.mark.parametrize("params", [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)],
                             ids=["legendre", "chebyshev", "asymmetric"])
    def test_weight_at_one_meets_closed_forms(self, params):
        # ortho_poly_at_one, a difference of log-gammas, is 3.5e-12 off below
        # n = 2000; the running products of ratios stay within 1.3e-14.
        size = 2000
        assert_allclose(weight_at_one(params, size), _at_one_closed_form(params, size),
                        rtol=2e-14, atol=0.0)

    def test_scalar_oracles_do_not_grow_memo(self):
        rule = build_rule(LEGENDRE, 40)
        before = len(_memo._cache)
        for n in range(12):
            kernel_entry(LEGENDRE, 0.5, n, 11 - n, rule)
            kernel_dt_entry(LEGENDRE, 0.5, n, 2 * n, rule)
        assert len(_memo._cache) == before

    def test_clear_and_recompute(self):
        clear_caches()
        first = kernel_tensor(LEGENDRE, [0.3], 8)
        again = kernel_tensor(LEGENDRE, [0.3], 8)
        assert first is again
        clear_caches()
        fresh = kernel_tensor(LEGENDRE, [0.3], 8)
        assert fresh is not first
        assert_allclose(fresh, first)


ORACLE_PARAMS = [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)]


class TestAssemblyOracles:
    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    @pytest.mark.parametrize("t", [1e-3, 0.7, 50.0])
    def test_matrix_is_tensor_slice_bitwise(self, params, t):
        kern = kernel_matrix(params, t, 24)
        assert np.array_equal(kern, kernel_tensor(params, [t], 24)[0])

    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    @pytest.mark.parametrize("t", [1e-3, 0.7, 50.0])
    def test_scalar_entries_match_batch(self, params, t):
        # Relative to the largest entry: entries at rounding level carry no
        # relative accuracy on either route.
        size = 24
        kern = kernel_matrix(params, t, size)
        dkern = kernel_dt_tensor(params, [t], size)[0]
        rule = build_rule(params, auto_order(size - 1, t, DEFAULT_QUAD_TOL))
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
            yield pytest.param(JacobiParams(*ab), t, id=f"{ab}-{t:g}")
    for ab in [(0.0, 0.0), (-0.5, -0.5), (2.5, 0.5)]:
        for t in (1e5, 1e7):
            yield pytest.param(JacobiParams(*ab), t, id=f"{ab}-{t:g}")


class TestClosedForm:
    @pytest.mark.parametrize("params, t", list(_closed_form_cases()))
    def test_corner_entry_matches_confluent_hypergeometric(self, params, t):
        exact = _corner_exact(params, t)
        value = kernel_tensor(params, [t], 64)[0][0, 0]
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_corner_entry_at_default_norms_grid_end(self, size):
        # The default norms grid ends at t = 1e5, above size^2 / 4 for every
        # size here, so the Gauss-Laguerre route computes it; Gauss-Jacobi at
        # order 1264 is 1.5e-12 relative off at size 64. For Legendre the
        # closed form is (1 - e^{-2t}) / (2t).
        times = RunConfig().norms_t_grid.build().times
        t = times[-1]
        exact = -np.expm1(-2.0 * t) / (2.0 * t)
        value = kernel_tensor(LEGENDRE, times, size)[-1][0, 0]
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact


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
        assert [key[1] for key in _memo._cache if key[0] == "bessel_tail"] == [500.0]
        assert [key[3] for key in _memo._cache if key[0] == "rule"] == \
            [auto_order(63, 500.0, DEFAULT_QUAD_TOL)]
        assert [key[4:6] for key in _memo._cache if key[0] == "laguerre_order"] == [(2000.0, 1e5)]
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
