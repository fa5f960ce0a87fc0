"""Tests for Gauss quadrature and its order against independent oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jhl.quadrature as quadrature
from jhl import _memo
from jhl.basis import JacobiParams, generator_coefficients, normalization, ortho_table
from jhl.config import RunConfig
from jhl.errors import ConvergenceFailure
from jhl.quadrature import auto_order
from jhl.semigroup import DEFAULT_QUAD_TOL, clear_caches, kernel_tensor, laguerre_split
from oracles import build_generator, golub_welsch, moments, total_mass

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)


def _rule(params, order):
    """Nodes 1 + lam and weights of the route's order-point Gauss-Jacobi rule,
    read off its eigen-rows: row 0 is sqrt(w_k) p_0, p_0 a constant."""
    lam, rows = quadrature._jacobi_rows(params, 1, order)
    return 1.0 + lam, (rows[0] / normalization(params, 0)) ** 2


class TestTotalMass:
    def test_legendre(self):
        assert_allclose(total_mass(LEGENDRE), 2.0, rtol=1e-15)

    def test_chebyshev(self):
        assert_allclose(total_mass(CHEBYSHEV), np.pi, rtol=1e-15)

    def test_beta_function_value(self):
        # 2^(a+b+1) B(a+1, b+1) with a = 0.5, b = -0.5 gives pi
        assert_allclose(total_mass(JacobiParams(0.5, -0.5)), np.pi, rtol=1e-14)


class TestJacobiRows:
    """The eigen-rows of the Gauss-Jacobi route, read as a Gauss rule."""

    def test_two_point_legendre(self):
        nodes, weights = _rule(LEGENDRE, 2)
        assert_allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], rtol=1e-14)
        assert_allclose(weights, [1.0, 1.0], rtol=1e-14)

    def test_chebyshev_closed_form(self):
        order = 9
        nodes, weights = _rule(CHEBYSHEV, order)
        k = np.arange(1, order + 1)
        expected = np.cos((2 * k - 1) * np.pi / (2 * order))
        assert_allclose(nodes, np.sort(expected), atol=1e-14)
        assert_allclose(weights, np.full(order, np.pi / order), rtol=1e-13)

    def test_single_node(self):
        nodes, weights = _rule(LEGENDRE, 1)
        assert nodes.shape == (1,)
        assert_allclose(weights.sum(), 2.0, rtol=1e-14)
        assert_allclose(nodes[0], 0.0, atol=1e-15)

    def test_order_floor(self):
        # The route's order is at least the size plus 15.
        assert auto_order(0, 1e-12, 1e-12) == 16
        with pytest.raises(ValueError, match="n_max"):
            auto_order(-1, 1.0, 1e-12)

    def test_weights_positive_nodes_interior(self):
        nodes, weights = _rule(JacobiParams(3.0, -0.9), 40)
        assert (weights > 0).all()
        assert np.all(np.diff(nodes) > 0.0) and (np.abs(nodes) < 1.0).all()
        assert_allclose(weights.sum(), total_mass(JacobiParams(3.0, -0.9)), rtol=1e-12)

    @pytest.mark.parametrize("params", [LEGENDRE, JacobiParams(3.0, -0.9),
                                        JacobiParams(-0.99, 0.0), JacobiParams(50.0, 0.0)],
                             ids=JacobiParams.tag)
    def test_rows_are_eigenvectors_up_to_sign(self, params):
        # Columns built from p_n next to x = 1 and, mirrored with signs
        # (-1)^n, next to x = -1 agree with scipy's tridiagonal eigenvectors,
        # whose entries carry the solver's absolute error: at (3, -0.9) the
        # two differ by 1.6e-13. A wrong sign or scale would be off by O(1).
        size, order = 64, 103
        lam, rows = quadrature._jacobi_rows(params, size, order)
        assert not lam.flags.writeable and not rows.flags.writeable
        expected, vectors = scipy.linalg.eigh_tridiagonal(*generator_coefficients(params, order))
        assert_allclose(lam, expected, rtol=0.0, atol=1e-14)
        signs = np.sign(np.sum(rows * vectors[:size], axis=0))
        assert np.abs(rows * signs - vectors[:size]).max() <= 2e-12


class TestMoments:
    def test_legendre_closed_forms(self):
        m = moments(LEGENDRE, 4)
        assert_allclose(m, [2.0, 0.0, 2 / 3, 0.0, 2 / 5], atol=1e-15)

    def test_asymmetric_first_moments(self):
        # integral of x^k (1-x) over (-1,1): 2/3 coefficient pattern
        m = moments(JacobiParams(1.0, 0.0), 2)
        assert_allclose(m, [2.0, -2 / 3, 2 / 3], rtol=1e-14)

    def test_quadrature_reproduces_moments(self):
        params = JacobiParams(0.8, -0.4)
        order = 12
        nodes, weights = _rule(params, order)
        m = moments(params, 2 * order - 1)
        for k in range(2 * order):
            assert_allclose(weights @ nodes ** k, m[k], rtol=1e-12, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(-0.9, 3.0),
        beta=st.floats(-0.9, 3.0),
        order=st.integers(2, 24),
        coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    )
    def test_random_polynomials_integrate_exactly(self, alpha, beta, order, coeffs):
        # an order-n rule is exact only through degree 2n - 1
        assume(2 * order - 1 >= len(coeffs) - 1)
        params = JacobiParams(alpha, beta)
        nodes, weights = _rule(params, order)
        m = moments(params, len(coeffs) - 1)
        expected = float(np.dot(coeffs, m))
        poly = np.polynomial.polynomial.polyval(nodes, coeffs)
        scale = max(1.0, sum(abs(c) for c in coeffs) * m[0])
        assert math.isclose(weights @ poly, expected,
                            rel_tol=1e-11, abs_tol=1e-11 * scale)


class TestOrthonormality:
    def test_inner_products_are_kronecker(self):
        params = JacobiParams(2.5, 0.5)
        n_max = 20
        nodes, weights = _rule(params, n_max + 1)
        table = ortho_table(params, n_max, nodes)
        gram = (table * weights) @ table.T
        assert_allclose(gram, np.eye(n_max + 1), atol=1e-12)


def _certified(order, n_max, t_max, tol=1e-12):
    return 16.0 * quadrature._bessel_tail_bound(2 * order - 2 * n_max, t_max) <= tol


class TestAutoOrder:
    def test_returns_sufficient_order(self):
        order = auto_order(30, 10.0, 1e-12)
        assert order >= 46

    def test_monotone_in_time_horizon(self):
        small = auto_order(20, 1.0, 1e-12)
        large = auto_order(20, 1e4, 1e-12)
        assert large >= small

    def test_cap_failure(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
        with pytest.raises(ConvergenceFailure, match="order"):
            auto_order(40, 10.0, 1e-33)

    @pytest.mark.parametrize("n_max, t_max", [(0, 1e-12), (15, 1e5), (63, 100.0), (255, 10.0),
                                              (511, 65535.0), (1023, 262143.0)])
    def test_least_order_then_the_cap(self, monkeypatch, n_max, t_max):
        # The least certified order from n_max + 16, e.g. 103 at n_max = 63,
        # t = 100. Size 1024 just below its split needs order 3020, under the
        # cap. A cap at that order is accepted; one below it raises.
        order = auto_order(n_max, t_max, 1e-12)
        assert _certified(order, n_max, t_max)
        assert order == n_max + 16 or not _certified(order - 1, n_max, t_max)
        assert order <= quadrature.MAX_ORDER
        monkeypatch.setattr(quadrature, "MAX_ORDER", order)
        assert auto_order(n_max, t_max, 1e-12) == order
        monkeypatch.setattr(quadrature, "MAX_ORDER", order - 1)
        with pytest.raises(ConvergenceFailure, match="order cap"):
            auto_order(n_max, t_max, 1e-12)

    def test_agreement_is_relative_and_needs_a_positive_value(self):
        assert quadrature._agree([1e-30], [1e-30 * (1 + 1e-13)], 1e-12)
        assert not quadrature._agree([1e-30], [2e-30], 1e-12)
        assert not quadrature._agree([0.0], [0.0], 1e-12)
        assert not quadrature._agree([1.0, 1e-129], [1.0, 1e-150], 1e-12)

    @pytest.mark.parametrize("n_max, t_max", [(15, 1e-3), (63, 1e3), (63, 1e5), (255, 10.0)])
    def test_builds_no_rule(self, n_max, t_max):
        # The order is a function of (n_max, t_max, tol) alone, from a closed
        # form: the search leaves nothing in the memo.
        clear_caches()
        auto_order(n_max, t_max, DEFAULT_QUAD_TOL)
        assert not _memo._cache


def _diag_entries(params, order, n, times):
    """K_t(n, n) at each time t, from the route's eigen-rows of the
    order-`order` truncation."""
    lam, rows = quadrature._jacobi_rows(params, n + 1, order)
    return [float(rows[n] ** 2 @ np.exp(t * lam)) for t in times]


def _exact_diagonal(params, n, t):
    """K_t(n, n), n >= 1, without quadrature in x. Chebyshev:
    e^{-t} (I_0(t) + I_2n(t)).
    Up to t = 200: exp(t L)[n, n] on the generator truncated at n + t + 60
    sites, which a walk from n leaves and re-enters only after more than 2t
    steps. Otherwise mpmath quadrature in u = t(1 - x) of
    t^(-a-1) u^a e^{-u} (2 - u/t)^b p_n(1 - u/t)^2 over u <= 800 (t >= 400)."""
    if params.alpha == params.beta == -0.5:
        special = pytest.importorskip("scipy.special")
        return float(special.ive(0, t) + special.ive(2 * n, t))
    if t <= 200.0:
        size = n + math.ceil(t) + 60
        return float(scipy.linalg.expm(t * build_generator(params, size))[n, n])
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, t = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(t)
        w_sq = ((2 * n + a + b + 1) * mpmath.gamma(n + a + b + 1) * mpmath.factorial(n)
                / (2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)))

        def f(u):
            return (u ** a * mpmath.exp(-u) * (2 - u / t) ** b
                    * mpmath.jacobi(n, a, b, 1 - u / t) ** 2)
        return float(w_sq * mpmath.quad(f, [0, 1, 4, 16, 64, 256, 800]) / t ** (a + 1))


ASYMMETRIC = JacobiParams(2.5, 0.5)
NEAR_SINGULAR = JacobiParams(3.0, -0.9)


class TestBesselTail:
    """The closed-form bound on the Bessel tail behind the order certificate,
    against exact tails from scipy.special (which the package itself does not
    import)."""

    @pytest.mark.parametrize("t", [1e-12, 1e-3, 1.0, 1e2, 1e5, 1e7])
    def test_bound_dominates_scipy_tail(self, t):
        # The bound is at least the tail wherever the tail is representable,
        # and where the certificate decides, at the first d with
        # 16 T(d, t) <= 1e-12, it is at most 20 times the tail.
        special = pytest.importorskip("scipy.special")
        last = math.ceil(12.0 * math.sqrt(t) + 40.0)
        values = special.ive(np.arange(2 * last + 200), t)
        tails = np.cumsum(values[::-1])[::-1]
        d = np.flatnonzero(tails[:last + 1] > 1e-300)[1:]
        bounds = np.array([quadrature._bessel_tail_bound(k, t) for k in d])
        assert np.all(bounds >= tails[d])
        threshold = np.flatnonzero(16.0 * tails <= 1e-12)[0]
        assert quadrature._bessel_tail_bound(threshold, t) <= 20.0 * tails[threshold]
        assert quadrature._bessel_tail_bound(0, t) == 1.0

    @pytest.mark.parametrize("t", [1e7, 1e9, 1e12, 1e20])
    def test_order_cap_reached_at_huge_times(self, t):
        # No order up to MAX_ORDER resolves e^{-t(1-x)} at these times (from
        # about t = 1.1e6 at n_max = 15), so the search fails, having built
        # and cached nothing.
        clear_caches()
        with pytest.raises(ConvergenceFailure, match="order cap"):
            auto_order(15, t, 1e-12)
        assert not _memo._cache

    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC, JacobiParams(0.8, -0.4)],
                             ids=["chebyshev", "legendre", "asymmetric", "skewed"])
    @pytest.mark.parametrize("n", [15, 63])
    def test_certificate_bounds_the_kernel_error(self, params, n):
        # |K_Q(n, n) - K_t(n, n)| <= 4 T(2Q - 2n, t) along the doubling chain
        # from n + 16 up to the certified order, with T the exact tail, not
        # the bound the search uses. The reference is the Gauss-Laguerre
        # route at and past the split, and the order-4Q rows below it.
        special = pytest.importorskip("scipy.special")
        for t in (1e-3, 1.0, 1e2, 1e4, 1e5):
            order, chosen = n + 16, auto_order(n, t, 1e-12)
            late = t >= laguerre_split(params, n + 1)
            while order <= chosen:
                coarse, = _diag_entries(params, order, n, (t,))
                fine, = (kernel_tensor(params, [t], n + 1)[0][n:, n] if late
                         else _diag_entries(params, 4 * order, n, (t,)))
                d = 2 * order - 2 * n
                terms = np.arange(d, d + math.ceil(40.0 * math.sqrt(t)) + 200)
                tail = special.ive(terms, t).sum()
                assert abs(coarse - fine) <= 4.0 * tail + 1e-14, (t, order)
                order *= 2
            clear_caches()


class TestCertifiedOrder:
    """The route's kernels at the orders that auto_order certifies, against
    exact values, and the Golub-Welsch oracle at fixed orders."""

    # Norms and lacunary probe times (128 is the largest default lacunary
    # value), and the default kernel times at the largest kernel size.
    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC],
                             ids=["chebyshev", "legendre", "asymmetric"])
    @pytest.mark.parametrize(
        "n_max, times",
        [(n, (1e-3, 1.0, 1e2, 128.0, 1e4, 1e5)) for n in (15, 31, 63)]
        + [(255, (1e-3, 0.1, 1.0, 10.0))],
        ids=["15", "31", "63", "255"])
    def test_orders_against_exact_values_and_minimal(self, params, n_max, times):
        # The kernel K_t(n_max, n_max) meets the exact value within tol
        # relative, up to t = 1e4 within 16 eps t, the rounding floor (an ulp
        # of a node next to 1 moves e^{-t(1-x)} by t eps). Times past
        # laguerre_split take the Gauss-Laguerre route. The order is minimal:
        # one less fails the certificate. At t = 1e5 the certificate, which
        # bounds the absolute error, is loose relative where K_t is tiny;
        # kernels of size up to 632 take t = 1e5 by Gauss-Laguerre instead.
        for t_max in times:
            order = auto_order(n_max, t_max, 1e-12)
            if t_max <= 1e4:
                value = kernel_tensor(params, [t_max], n_max + 1)[0][n_max, n_max]
                exact = _exact_diagonal(params, n_max, t_max)
                bound = max(1e-12, 16.0 * np.finfo(float).eps * t_max)
                assert abs(value - exact) <= bound * exact, t_max
            assert order == n_max + 16 or not _certified(order - 1, n_max, t_max), t_max
        clear_caches()

    def test_norms_grid_builds_no_rows_above_the_chosen_order(self):
        # Times from 64^2 / 4 on take the Gauss-Laguerre route; below it the
        # certificate accepts order 184, and those are the only eigen-rows
        # built.
        clear_caches()
        times = RunConfig().norms_t_grid.build().times
        kernel_tensor(LEGENDRE, times, 64)
        built = [key[4] for key in _memo._cache if key[0] == "rows"]
        below = times[times < 1024.0].max()
        assert built == [auto_order(63, below, DEFAULT_QUAD_TOL)] == [184]
        clear_caches()

    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC,
                                        JacobiParams(0.8, -0.4)],
                             ids=["chebyshev", "legendre", "asymmetric", "skewed"])
    @pytest.mark.parametrize("order", [1, 2, 12, 79, 316, 632])
    def test_integrates_monomials_exactly(self, params, order):
        nodes, weights = _rule(params, order)
        m = moments(params, 2 * order - 1)
        vals = np.array([weights @ nodes ** k for k in range(2 * order)])
        nonzero = m != 0.0
        assert_allclose(vals[nonzero], m[nonzero], rtol=1e-12)
        # odd moments of a symmetric measure vanish: compare on the mass scale
        assert_allclose(vals[~nonzero], 0.0, atol=1e-14 * m[0])

    @pytest.mark.parametrize("params", [CHEBYSHEV, LEGENDRE, ASYMMETRIC],
                             ids=["chebyshev", "legendre", "asymmetric"])
    def test_diag_entries_agree_with_golub_welsch(self, params):
        n_max, probes = 63, (1e-3, 1.0, 1e2, 1e5)
        for order in (79, 158, 632):
            rows = _diag_entries(params, order, n_max, probes)
            gw = golub_welsch(params, order)
            row = ortho_table(params, n_max, gw.nodes)[n_max]
            for t, value in zip(probes, rows):
                expected = gw.weights @ (np.exp(-t * (1.0 - gw.nodes)) * row * row)
                assert abs(value - expected) <= 1e-12

    def test_rows_memoised_read_only_and_cleared(self):
        clear_caches()
        kernel_tensor(LEGENDRE, [1.0], 24)
        key = ("rows", 0.0, 0.0, 24, auto_order(23, 1.0, DEFAULT_QUAD_TOL))
        assert list(_memo._cache) == [key]
        lam, rows = _memo._cache[key]
        assert not lam.flags.writeable and not rows.flags.writeable
        kernel_tensor(LEGENDRE, [0.5], 24)
        assert _memo._cache[key][1] is rows
        clear_caches()
        kernel_tensor(LEGENDRE, [1.0], 24)
        assert _memo._cache[key][1] is not rows
        clear_caches()

    def test_kernel_entry_settled_across_orders_at_large_alpha(self):
        # Weights from first eigenvector components spread by about 2e-12
        # here, above quad_tol; the rebuilt rows do not.
        params = JacobiParams(4.0, 1.5)
        values = [_diag_entries(params, order, 63, (1.0,))[0] for order in (79, 158, 316)]
        assert max(values) - min(values) <= 1e-14

    @pytest.mark.parametrize("t_max", [1e3, 1e4])
    def test_kernel_matches_generator_exponential(self, t_max):
        # K_t = exp(t L) on the truncated generator L; at t = 1e-3 the heat
        # from index 63 stays far inside 88 sites. At 1e4, above 64^2 / 4,
        # t_max takes the Gauss-Laguerre route, so t = 1e-3 gets its own
        # Gauss-Jacobi order.
        exact = scipy.linalg.expm(
            1e-3 * build_generator(NEAR_SINGULAR, 88))[63, 63]
        value = kernel_tensor(NEAR_SINGULAR, np.array([1e-3, t_max]), 64)[0][63, 63]
        assert abs(value - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("t_max, tol", [(math.nan, 1e-12), (math.inf, 1e-12),
                                            (1.0, math.nan), (1.0, math.inf)],
                             ids=["t-nan", "t-inf", "tol-nan", "tol-inf"])
    def test_nonfinite_arguments_rejected_before_any_rule(self, monkeypatch, t_max, tol):
        # a NaN that got through would never meet the stopping test: keep the cap low
        monkeypatch.setattr(quadrature, "MAX_ORDER", 64)
        clear_caches()
        with pytest.raises(ValueError, match="finite"):
            auto_order(8, t_max, tol)
        assert not _memo._cache


class TestLaguerreRule:
    """The generalized Gauss-Laguerre rule of the large-t route."""

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 2.5, 10.0])
    def test_integrates_moments_exactly(self, alpha):
        # int u^k u^a e^{-u} du / Gamma(a + 1) = Gamma(a + k + 1) / Gamma(a + 1).
        # Only low moments: the weights of the large nodes, below 1e-20, carry
        # the eigenvectors' absolute error, which high moments magnify.
        order = 40
        nodes, weights = quadrature._laguerre_rule(alpha, order)
        assert np.all(np.diff(nodes) > 0.0) and nodes[0] > 0.0
        for k in range(16):
            exact = math.exp(math.lgamma(alpha + k + 1.0) - math.lgamma(alpha + 1.0))
            assert abs(weights @ nodes ** k - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5])
    def test_small_nodes_have_relative_accuracy(self, alpha):
        # Against numpy's eigenvalues of the same matrix, whose error is
        # absolute: about eps |J|, 2e-12 relative on the smallest node here.
        # The Rayleigh quotients meet mpmath's zeros to 1e-14 relative.
        order = 80
        clear_caches()
        nodes, _ = quadrature._laguerre_rule(alpha, order)
        k = np.arange(order, dtype=float)
        off = np.sqrt(k[1:] * (k[1:] + alpha))
        eig = np.linalg.eigvalsh(np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
        assert_allclose(nodes, eig, rtol=0.0, atol=1e-12 * eig[-1])
        clear_caches()
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for i in (0, 1, 2):
                zero = mpmath.findroot(lambda u: mpmath.laguerre(order, alpha, u), nodes[i])
                assert abs(nodes[i] - float(zero)) <= 1e-14 * nodes[i]

    def test_memoised_read_only(self):
        clear_caches()
        nodes, weights = quadrature._laguerre_rule(0.5, 24)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert quadrature._laguerre_rule(0.5, 24)[0] is nodes
        assert abs(weights.sum() - 1.0) <= 1e-14
        clear_caches()

    def test_order_cap_and_arguments(self, monkeypatch):
        with pytest.raises(ValueError, match="t_lo"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 10.0, 1e-12)
        with pytest.raises(ValueError, match="tol"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 100.0, math.nan)
        # no tolerance below rounding is met, however high the cap
        with pytest.raises(ConvergenceFailure, match="disagrees"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 100.0, 1e-30)
        # order 32 needs a witness at 64, one past the cap
        monkeypatch.setattr(quadrature, "MAX_ORDER", 63)
        with pytest.raises(ConvergenceFailure, match="cap"):
            quadrature.laguerre_order(LEGENDRE, 15, 100.0, 100.0, 1e-12)
