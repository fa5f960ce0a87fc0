"""Tests for heat-kernel computation, defects, and the stochastic rescaling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jhl import _memo
from jhl.basis import JacobiParams, normalization, ortho_poly_at_one
from jhl.config import RunConfig
from jhl.quadrature import build_rule
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
    markov_defect,
    parseval_defect,
    semigroup_defect,
    weight_at_one,
)
from jhl.weights import ProbePolicy, operator_norm_estimate

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)


def _rule_for(params, n_max, t_max):
    from jhl.quadrature import auto_order

    return build_rule(params, auto_order(params, n_max, t_max, 1e-12))


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
        assert_allclose(kern.entries, np.eye(10))

    def test_tiny_time_near_identity(self):
        kern = kernel_matrix(LEGENDRE, 1e-12, 16)
        assert np.abs(kern.entries - np.eye(16)).max() < 1e-9

    def test_methods_agree(self):
        for params in (LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)):
            for t in (0.1, 1.0, 10.0):
                quad = kernel_matrix(params, t, 30, method="quadrature")
                spec = kernel_matrix(params, t, 30, method="spectral")
                assert np.abs(quad.entries - spec.entries).max() < 1e-8

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            kernel_matrix(LEGENDRE, 1.0, 8, method="pade")

    def test_positive_in_regime(self):
        kern = kernel_matrix(JacobiParams(2.5, 0.5), 0.7, 40)
        assert kern.entries.min() >= -1e-12

    def test_entries_immutable(self):
        kern = kernel_matrix(LEGENDRE, 0.5, 8)
        with pytest.raises(ValueError):
            kern.entries[0, 0] = 99.0

    def test_tensor_stacks_matrices(self):
        times = np.array([0.2, 1.5])
        tensor = kernel_tensor(LEGENDRE, times, 12)
        for i, t in enumerate(times):
            assert_allclose(tensor[i], kernel_matrix(LEGENDRE, t, 12).entries,
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
    def test_markov_defect_matches_fresh_weights_bitwise(self, params):
        size, t = 64, 0.7
        fresh = np.array([ortho_poly_at_one(params, n) for n in range(size)])
        rows = kernel_matrix(params, t, size).entries
        for n in range(size // 4 + 1):
            expected = float(abs(rows[n] @ fresh - fresh[n]) / fresh[n])
            assert markov_defect(params, t, n, size) == expected

    def test_semigroup_identity(self):
        assert semigroup_defect(LEGENDRE, 0.5, 0.5, 128) < 1e-8
        assert semigroup_defect(LEGENDRE, 0.0, 0.7, 64) == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(20)
        rule = build_rule(LEGENDRE, 25)
        assert parseval_defect(LEGENDRE, f, rule) < 1e-10

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
        assert_allclose(image, kernel_matrix(LEGENDRE, 0.9, 24).entries @ f,
                        rtol=1e-13)

    def test_contraction_on_stochastic_scale(self):
        # conjugation by p_n(1) is a contraction of l^2 with weight p_n(1)^2
        params = JacobiParams(1.0, 0.0)
        size = 32
        w = weight_at_one(params, size) ** 2

        def op(f):
            return apply_heat_tilde(params, 0.6, f, size)

        estimate = operator_norm_estimate(op, 2.0, w, ProbePolicy(size, 8, 0))
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
        assert np.array_equal(v, [ortho_poly_at_one(params, n) for n in range(16)])

    def test_scalar_oracles_do_not_grow_memo(self):
        rule = build_rule(LEGENDRE, 40)
        before = len(_memo._cache)
        for n in range(12):
            kernel_entry(LEGENDRE, 0.5, n, 11 - n, rule)
            kernel_dt_entry(LEGENDRE, 0.5, n, 2 * n, rule)
        assert len(_memo._cache) == before

    def test_clear_and_recompute(self):
        clear_caches()
        first = kernel_matrix(LEGENDRE, 0.3, 8)
        again = kernel_matrix(LEGENDRE, 0.3, 8)
        assert first is again
        clear_caches()
        fresh = kernel_matrix(LEGENDRE, 0.3, 8)
        assert fresh is not first
        assert_allclose(fresh.entries, first.entries)


ORACLE_PARAMS = [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)]


class TestAssemblyOracles:
    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    @pytest.mark.parametrize("t", [1e-3, 0.7, 50.0])
    def test_matrix_is_tensor_slice_bitwise(self, params, t):
        kern = kernel_matrix(params, t, 24)
        assert np.array_equal(kern.entries, kernel_tensor(params, [t], 24)[0])

    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    @pytest.mark.parametrize("t", [1e-3, 0.7, 50.0])
    def test_scalar_entries_match_batch(self, params, t):
        # Relative to the largest entry: entries at rounding level carry no
        # relative accuracy on either route.
        size = 24
        kern = kernel_matrix(params, t, size).entries
        dkern = kernel_dt_tensor(params, [t], size)[0]
        rule = build_rule(params, kernel_matrix(params, t, size).order_info)
        scalar = np.array([[kernel_entry(params, t, n, m, rule) for m in range(size)]
                           for n in range(size)])
        dscalar = np.array([[kernel_dt_entry(params, t, n, m, rule) for m in range(size)]
                            for n in range(size)])
        assert np.abs(scalar - kern).max() <= 1e-13 * np.abs(kern).max()
        assert np.abs(dscalar - dkern).max() <= 1e-13 * np.abs(dkern).max()


# The relative stopping test for large t is still open (ROADMAP item 2): at
# t = 1e4 these measures miss quad_tol, and at t = 1e5 and 1e7 every measure
# tried does (relative errors from 1.5e-12 to 1, where the probe underflows);
# the misses must stay visible.
_LARGE_T_MISSES = {(-0.5, -0.5), (3.0, -0.9)}
_LARGE_T_XFAIL = pytest.mark.xfail(
    strict=True, reason="absolute stopping test at large t, ROADMAP item 2")


def _closed_form_cases():
    for ab in [(-0.5, -0.5), (0.0, 0.0), (2.5, 0.5), (4.0, 1.5), (3.0, -0.9)]:
        for t in (1e-3, 1.0, 1e2, 1e4):
            marks = _LARGE_T_XFAIL if t == 1e4 and ab in _LARGE_T_MISSES else ()
            yield pytest.param(JacobiParams(*ab), t, marks=marks, id=f"{ab}-{t:g}")
    for ab in [(0.0, 0.0), (-0.5, -0.5), (2.5, 0.5)]:
        for t in (1e5, 1e7):
            yield pytest.param(JacobiParams(*ab), t, marks=_LARGE_T_XFAIL,
                               id=f"{ab}-{t:g}")


class TestClosedForm:
    @pytest.mark.parametrize("params, t", list(_closed_form_cases()))
    def test_corner_entry_matches_confluent_hypergeometric(self, params, t):
        # K_t(0, 0) = w_0^2 int e^{-t(1-x)} dmu; with 1 - x = 2u the integral is
        # 2^(a+b+1) B(a+1, b+1) 1F1(a+1; a+b+2; -2t).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
            exact = float(mpmath.mpf(normalization(params, 0)) ** 2 * 2 ** (a + b + 1)
                          * mpmath.beta(a + 1, b + 1) * mpmath.hyp1f1(a + 1, a + b + 2, -2 * t))
        value = kernel_tensor(params, [t], 64)[0][0, 0]
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact

    @_LARGE_T_XFAIL
    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_corner_entry_at_default_norms_grid_end(self, size):
        # The default norms grid ends at t = 1e5, where the absolute order test
        # passes on an underflowed probe: K_t(0, 0) is 1.2e-129 at size 16,
        # 3.7e-59 at size 32 and 1.5e-12 relative off at size 64. For Legendre
        # the closed form is (1 - e^{-2t}) / (2t).
        times = RunConfig().norms_t_grid.build().times
        t = times[-1]
        exact = -np.expm1(-2.0 * t) / (2.0 * t)
        value = kernel_tensor(LEGENDRE, times, size)[-1][0, 0]
        assert abs(value - exact) <= DEFAULT_QUAD_TOL * exact
