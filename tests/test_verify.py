"""Tests for the estimate verifiers and their report plumbing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jhl.quadrature
from jhl.basis import JacobiParams
from jhl.errors import ConvergenceFailure
from jhl.paths import (
    DifferenceWindow,
    LacunarySequence,
    TimeGrid,
    default_time_grid,
    qn_kernel_matrix,
    s_star,
    variation_batch,
)
from jhl.semigroup import DEFAULT_QUAD_TOL, clear_caches, kernel_dt_tensor, kernel_tensor
from jhl.verify import (
    DEFAULT_LAMBDAS,
    DEFAULT_RHO,
    EstimateReport,
    majorant_batch,
    operator_images,
    verify_cotlar,
    verify_dt_sup,
    verify_kernel_decay,
    verify_kernel_smoothness,
    verify_lacunary_tail,
    verify_poly_bound,
    verify_qn_bounds,
    verify_theorem_norms,
)
from jhl.verify import _lacunary_step_matrices, _smoothness_mask, _window_prefix
from jhl.weights import ProbePolicy, WeightSpec, probe_matrix, weak_quasinorm

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)

SMALL_GRID = TimeGrid.geometric(1e-3, 1e2, 32)


def _lac(m_range):
    lac = LacunarySequence.geometric(2.0, -m_range - 1, m_range + 2)
    bcoef = np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_max)])
    return lac, bcoef


class TestMajorant:
    def test_hand_value(self):
        # core max(1,3)*1 + max(3,2)*2 = 9, left tail 1*1, right tail 2*4*2
        got = majorant_batch(np.array([[1.0, 3.0, 2.0]]), np.array([1.0, 2.0, 4.0]))
        assert_allclose(got, [26.0])

    def test_batch_shape(self):
        d = np.zeros((3, 5, 7))
        times = np.linspace(1.0, 2.0, 7)
        assert majorant_batch(d, times).shape == (3, 5)

    def test_dominates_grid_variation_on_heat_paths(self):
        # the derivative-integral majorant must sit above the sampled variation
        grid = default_time_grid()
        kt = kernel_tensor(LEGENDRE, grid.times, 12)
        dkt = kernel_dt_tensor(LEGENDRE, grid.times, 12)
        var = variation_batch(kt.transpose(1, 2, 0), 2.5)
        maj = majorant_batch(dkt.transpose(1, 2, 0), grid.times)
        idx = np.arange(12)
        mask = (idx[:, None] != idx[None, :]) & (idx[:, None] > 0) & (idx[None, :] > 0)
        assert np.all(var[mask] <= maj[mask] + 1e-10)


class TestReportShape:
    def test_fields_and_serialization(self):
        rep = verify_dt_sup(LEGENDRE, (8, 12), grid=SMALL_GRID)
        assert isinstance(rep, EstimateReport)
        assert rep.name == "dt_sup"
        assert rep.sizes == (8, 12)
        assert len(rep.constants) == 2
        assert rep.verdict in ("stable", "growing")
        assert rep.runtime > 0.0
        d = rep.to_dict()
        assert "runtime" not in d
        assert d["alpha"] == 0.0 and d["beta"] == 0.0
        assert d["constants"] == list(rep.constants)
        assert "runtime" in rep.to_dict(include_runtime=True)

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            verify_dt_sup(LEGENDRE, (8,), grid=SMALL_GRID)
        with pytest.raises(ValueError, match="increasing"):
            verify_dt_sup(LEGENDRE, (12, 8), grid=SMALL_GRID)


class TestKernelVerifiers:
    def test_decay_routes_and_dominance(self):
        rep = verify_kernel_decay(LEGENDRE, (10, 14), grid=SMALL_GRID)
        assert set(rep.extras) >= {"route_majorant", "route_variation", "route_ratios"}
        maj = rep.extras["route_majorant"]
        var = rep.extras["route_variation"]
        assert all(v <= m + 1e-10 for v, m in zip(var, maj))
        assert_allclose(rep.constants, np.maximum(maj, var))

    def test_smoothness_mask_region(self):
        mask = _smoothness_mask(10)
        assert mask.shape == (9, 10)
        # close pairs are excluded
        assert not mask[4, 4] and not mask[4, 6] and not mask[4, 2]
        # pair (5, 4) against m = 8 sits inside [m/2, 3m/2]
        assert mask[4, 8]
        # pair (9, 8) against m = 1 is far outside the local region
        assert not mask[8, 1]

    def test_smoothness_stable_on_interior_pair(self):
        rep = verify_kernel_smoothness(JacobiParams(0.5, -0.5), (16, 24, 32))
        assert rep.verdict == "stable"
        assert rep.extras["excluded_pairs"][0] > 0

    def test_dt_sup_runs(self):
        rep = verify_dt_sup(LEGENDRE, (8, 12), grid=SMALL_GRID)
        assert all(c > 0.0 for c in rep.constants)


class TestWindowVerifiers:
    def test_qn_zero_coefficients(self):
        lac, _ = _lac(2)
        rep = verify_qn_bounds(LEGENDRE, lac, np.zeros(lac.values.size - 1), 2, (8, 12))
        assert_allclose(rep.constants, 0.0)
        assert rep.verdict == "stable"
        assert rep.extras["uniformity_ratio"] == 1.0

    def test_qn_window_bookkeeping(self):
        lac, bcoef = _lac(2)
        rep = verify_qn_bounds(LEGENDRE, lac, bcoef, 2, (8, 12))
        # windows -M <= n1 < n2 <= M
        assert rep.extras["windows"] == 10
        per = rep.extras["per_window_size_constants"]
        assert len(per) == 10
        pooled = max(c for _, _, c in per)
        assert_allclose(pooled, rep.extras["route_window_size"][-1])
        assert 0.0 < rep.extras["uniformity_ratio"] <= 1.0
        assert isinstance(rep.extras["uniform_within_10pct"], bool)
        assert rep.extras["window_stability_ratio"] > 0.0

    def test_qn_requires_covering_sequence(self):
        lac, bcoef = _lac(2)
        with pytest.raises(ValueError, match="cover"):
            verify_qn_bounds(LEGENDRE, lac, bcoef, 5, (8, 12))

    def test_lacunary_zero_coefficients(self):
        lac, _ = _lac(2)
        rep = verify_lacunary_tail(LEGENDRE, lac, np.zeros(lac.values.size - 1), (8, 12))
        assert_allclose(rep.constants, 0.0)
        assert rep.verdict == "stable"

    def test_lacunary_sensitivity_keys(self):
        lac, bcoef = _lac(2)
        rep = verify_lacunary_tail(LEGENDRE, lac, bcoef, (8, 12), cutoff_c=2.0)
        sens = rep.extras["tail_sensitivity"]
        assert set(sens) == {"c=1", "c=2", "c=4"}
        assert all(len(v) == 2 for v in sens.values())
        assert rep.extras["cutoff_c"] == 2.0

    def test_cotlar_reports_skips(self):
        lac, bcoef = _lac(2)
        rep = verify_cotlar(LEGENDRE, 2, lac, bcoef, 1.5, (8, 12), n_random=4)
        assert all(c > 0.0 for c in rep.constants)
        skipped = rep.extras["skipped_small_denominators"]
        assert len(skipped) == 2 and all(s >= 0 for s in skipped)

    def test_cotlar_validation(self):
        lac, bcoef = _lac(2)
        with pytest.raises(ValueError, match="q"):
            verify_cotlar(LEGENDRE, 2, lac, bcoef, 0.5, (8, 12))
        with pytest.raises(ValueError, match="positive"):
            verify_cotlar(LEGENDRE, 0, lac, bcoef, 1.5, (8, 12))


class TestPolyBound:
    def test_flat_measure_constant(self):
        # at alpha = beta = -1/2 the normalized polynomials are plain cosines,
        # so the envelope constant settles near 1/sqrt(pi)
        rep = verify_poly_bound(CHEBYSHEV, (50, 100))
        assert rep.verdict == "stable"
        for c in rep.constants:
            assert 0.5 < c < 0.6

    def test_grid_must_be_interior(self):
        with pytest.raises(ValueError, match="inside"):
            verify_poly_bound(LEGENDRE, (10, 20), x_grid=np.array([-1.0, 0.0, 1.0]))


class TestTheoremNorms:
    def test_strong_mode_reports(self):
        spec = WeightSpec("constant")
        rep = verify_theorem_norms(LEGENDRE, "variation", 2.0, spec, (8, 12),
                                   grid=SMALL_GRID, n_random=4)
        assert rep.name == "theorem_norms_variation"
        assert all(c > 0.0 for c in rep.constants)
        assert rep.extras["p"] == 2.0
        assert rep.extras["weight"] == "const"

    def test_weak_mode_name(self):
        spec = WeightSpec("power", exponent=-0.5)
        rep = verify_theorem_norms(LEGENDRE, "oscillation", 1.0, spec, (8, 12),
                                   grid=SMALL_GRID, n_random=4, mode="weak11")
        assert rep.name == "theorem_norms_oscillation_weak11"
        assert all(c > 0.0 for c in rep.constants)

    def test_weak_mode_maxes_over_delta_probes_and_lambdas(self):
        spec = WeightSpec("power", exponent=0.5)
        lambdas = (0.25, 0.5)
        rep = verify_theorem_norms(LEGENDRE, "jump", 1.0, spec, (8, 12), grid=SMALL_GRID,
                                   n_random=4, lambdas=lambdas, mode="weak11")
        for size, constant in zip((8, 12), rep.constants):
            probes = probe_matrix(ProbePolicy(size=size, n_random=4, seed=0))
            images = operator_images(LEGENDRE, "jump", size, SMALL_GRID, DEFAULT_RHO,
                                     lambdas, None, None, 6, probes, DEFAULT_QUAD_TOL)
            w = spec.resolve(size)
            expected = max(weak_quasinorm(fam[:, m], w) / w[m]
                           for fam in images for m in range(size))
            assert_allclose(constant, expected, rtol=1e-15, atol=0.0)

    def test_jump_iterates_lambda_family(self):
        spec = WeightSpec("constant")
        rep = verify_theorem_norms(LEGENDRE, "jump", 2.0, spec, (8, 12),
                                   grid=SMALL_GRID, n_random=4,
                                   lambdas=(0.25, 0.5))
        assert all(c > 0.0 for c in rep.constants)

    def test_s_star_default_sequence(self):
        spec = WeightSpec("constant")
        rep = verify_theorem_norms(LEGENDRE, "s_star", 2.0, spec, (8, 12),
                                   grid=SMALL_GRID, n_random=4, m_range=2)
        assert all(c > 0.0 for c in rep.constants)

    def test_s_star_images_follow_coefficients(self):
        spec = WeightSpec("constant")
        lac, alternating = _lac(2)
        reps = [verify_theorem_norms(LEGENDRE, "s_star", 2.0, spec, (8, 12),
                                     grid=SMALL_GRID, n_random=4, lac=lac,
                                     bcoef=b, m_range=2)
                for b in (alternating, np.ones_like(alternating))]
        assert reps[0].constants != reps[1].constants

    def test_clear_caches_drops_operator_images(self, monkeypatch):
        spec = WeightSpec("constant")
        verify_theorem_norms(LEGENDRE, "variation", 2.0, spec, (8, 12),
                             grid=SMALL_GRID, n_random=4)
        clear_caches()
        monkeypatch.setattr(jhl.quadrature, "MAX_ORDER", 8)
        with pytest.raises(ConvergenceFailure):
            verify_theorem_norms(LEGENDRE, "variation", 2.0, spec, (8, 12),
                                 grid=SMALL_GRID, n_random=4)

    def test_validation(self):
        spec = WeightSpec("constant")
        with pytest.raises(ValueError, match="operator"):
            verify_theorem_norms(LEGENDRE, "rotation", 2.0, spec, (8, 12),
                                 grid=SMALL_GRID)
        with pytest.raises(ValueError, match="p"):
            verify_theorem_norms(LEGENDRE, "variation", 0.5, spec, (8, 12),
                                 grid=SMALL_GRID)
        with pytest.raises(ValueError, match="mode"):
            verify_theorem_norms(LEGENDRE, "variation", 2.0, spec, (8, 12),
                                 grid=SMALL_GRID, mode="medium")


ORACLE_PARAMS = [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)]


class TestOperatorImages:
    M_RANGE, SIZE = 3, 16

    def _images(self, params, operator, probes):
        lac, b = _lac(self.M_RANGE)
        return operator_images(params, operator, self.SIZE, SMALL_GRID, DEFAULT_RHO,
                               DEFAULT_LAMBDAS, lac, b, self.M_RANGE, probes,
                               DEFAULT_QUAD_TOL)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=JacobiParams.tag)
    def test_window_sums_match_dense_kernel(self, params):
        m = self.M_RANGE
        lac, b = _lac(m)
        steps = _lacunary_step_matrices(params, lac, b, self.SIZE, DEFAULT_QUAD_TOL)
        prefix = _window_prefix(steps, lac, m)
        for n1 in range(-m, m):
            for n2 in range(n1 + 1, m + 1):
                dense = qn_kernel_matrix(params, DifferenceWindow(n1, n2), lac, b, self.SIZE)
                got = prefix[n2 + m + 1] - prefix[n1 + m]
                assert np.abs(got - dense).max() <= 1e-13, (n1, n2)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=JacobiParams.tag)
    def test_s_star_images_match_scalar_oracle(self, params):
        lac, b = _lac(self.M_RANGE)
        probes = probe_matrix(ProbePolicy(size=self.SIZE, n_random=3, seed=5))
        images = self._images(params, "s_star", probes)
        expected = [[s_star(params, self.M_RANGE, lac, b, probes[:, k], n, self.SIZE)
                     for k in range(probes.shape[1])] for n in range(self.SIZE)]
        assert images.shape == probes.shape
        assert np.abs(images - np.array(expected)).max() <= 1e-12

    @pytest.mark.parametrize("operator", ["variation", "oscillation", "jump", "s_star"])
    def test_single_signal_matches_probe_column(self, operator):
        probes = probe_matrix(ProbePolicy(size=self.SIZE, n_random=2, seed=3))
        batch = self._images(CHEBYSHEV, operator, probes)
        single = self._images(CHEBYSHEV, operator, probes[:, -1])
        assert single.shape == batch[..., -1].shape
        assert_allclose(single, batch[..., -1], rtol=1e-12, atol=1e-14)

    def test_unknown_operator_builds_no_kernel(self, monkeypatch):
        clear_caches()
        monkeypatch.setattr(jhl.quadrature, "MAX_ORDER", 8)
        with pytest.raises(ValueError, match="operator"):
            self._images(LEGENDRE, "rotation", np.eye(self.SIZE))
