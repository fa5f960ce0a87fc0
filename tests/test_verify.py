"""Tests for the estimate verifiers and their report plumbing."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import jhl.cli
import jhl.verify
from jhl.basis import JacobiParams
from jhl.config import LacunarySpec, RunConfig
from jhl.errors import NumericFailure
from jhl.paths import (
    LacunarySequence,
    TimeGrid,
    jump_count_batch,
    variation_batch,
)
from jhl.semigroup import clear_caches, kernel_dt_tensor, kernel_tensor
from jhl.verify import (
    EstimateReport,
    majorant_batch,
    operator_images,
    s_star_kernels,
    verify_cotlar,
    verify_dt_sup,
    verify_kernel_decay,
    verify_kernel_smoothness,
    verify_lacunary_tail,
    verify_poly_bound,
    verify_qn_bounds,
    verify_theorem_norms,
)
from jhl.verify import (
    _delta_images,
    _pair_values,
    _smoothness_mask,
)
from jhl.weights import WeightSpec, norm_ratio_max, probe_matrix, weak_quasinorm
from oracles import qn_kernel_matrix, s_star

LEGENDRE = JacobiParams(0.0, 0.0)
CHEBYSHEV = JacobiParams(-0.5, -0.5)
ORACLE_PARAMS = [LEGENDRE, CHEBYSHEV, JacobiParams(2.5, 0.5)]

DEFAULT = RunConfig()
RHO = DEFAULT.rho
DEFAULT_GRID = DEFAULT.t_grid.build()
SMALL_GRID = TimeGrid.geometric(1e-3, 1e2, 32)


def _lac(m_range):
    lac = LacunarySequence.geometric(2.0, -m_range - 1, m_range + 2)
    bcoef = np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_max)])
    return lac, bcoef


def _heat(params, sizes, grid=SMALL_GRID):
    """K, dK and the times of the grid, at the largest size: what the
    kernel estimates read."""
    size = sizes[-1]
    return (kernel_tensor(params, grid.times, size),
            kernel_dt_tensor(params, grid.times, size), grid.times)


def _dk(params, sizes, grid=SMALL_GRID):
    return kernel_dt_tensor(params, grid.times, sizes[-1])


def _stack(params, lac, sizes):
    """K over the lacunary times at the largest size: what the window
    estimates read."""
    return kernel_tensor(params, lac.values, sizes[-1])


def _operator_kernels(params, operator, size, m_range=2):
    """The kernels the commands build for an operator at one size, over
    SMALL_GRID, with s_star's window M = m_range and alternating steps."""
    config = replace(DEFAULT, sizes=(size,), operators=(operator,),
                     lacunary=LacunarySpec(window=m_range))
    return jhl.cli._operator_kernels(config, params, SMALL_GRID)[operator]


def _sweep(operator, cells, sizes=(8, 12), lambdas=DEFAULT.lambdas, n_random=4):
    """A norm sweep at LEGENDRE on SMALL_GRID, with the kernels
    `_operator_kernels` builds at the largest size."""
    kernels = _operator_kernels(LEGENDRE, operator, sizes[-1])
    return verify_theorem_norms(LEGENDRE, operator, cells, sizes, kernels, SMALL_GRID, RHO,
                                lambdas, n_random=n_random)


class TestMajorant:
    def test_hand_value(self):
        # core max(1,3)*1 + max(3,2)*2 = 9, left tail 1*1, right tail 2*4*2
        got = majorant_batch(np.array([[1.0], [3.0], [2.0]]), np.array([1.0, 2.0, 4.0]))
        assert_allclose(got, [26.0])

    def test_batch_shape(self):
        d = np.zeros((7, 3, 5))
        times = np.linspace(1.0, 2.0, 7)
        assert majorant_batch(d, times).shape == (3, 5)

    def test_dominates_grid_variation_on_heat_paths(self):
        # the derivative-integral majorant must sit above the sampled variation
        grid = DEFAULT_GRID
        kt = kernel_tensor(LEGENDRE, grid.times, 12)
        dkt = kernel_dt_tensor(LEGENDRE, grid.times, 12)
        var = variation_batch(kt.transpose(1, 2, 0), 2.5)
        maj = majorant_batch(dkt, grid.times)
        idx = np.arange(12)
        mask = (idx[:, None] != idx[None, :]) & (idx[:, None] > 0) & (idx[None, :] > 0)
        assert np.all(var[mask] <= maj[mask] + 1e-10)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=JacobiParams.tag)
    def test_path_bits_do_not_depend_on_layout_or_batch(self, params):
        # the intervals are summed in one order, so a shuffled gather of the
        # paths (by flat take or by 2-D index), its contiguous copy and its
        # Fortran-order copy all give the bits of the whole tensor
        times = DEFAULT_GRID.times
        dkt = kernel_dt_tensor(params, times, 64)
        whole = majorant_batch(dkt, times).reshape(-1)
        idx = np.random.default_rng(0).permutation(64 * 64)[:2000]
        gathered = dkt.reshape(times.size, -1)[:, idx]
        for paths in (gathered, np.ascontiguousarray(gathered), np.asfortranarray(gathered),
                      dkt[:, idx // 64, idx % 64]):
            assert np.array_equal(majorant_batch(paths, times), whole[idx])


class TestReportShape:
    def test_fields_and_serialization(self):
        rep = verify_dt_sup(LEGENDRE, (8, 12), _dk(LEGENDRE, (8, 12)))
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

    def test_sizes_must_increase(self):
        dkt = _dk(LEGENDRE, (12,))
        with pytest.raises(ValueError, match="increasing"):
            verify_dt_sup(LEGENDRE, (12,), dkt)
        with pytest.raises(ValueError, match="increasing"):
            verify_dt_sup(LEGENDRE, (12, 8), dkt)

    def test_kernels_must_have_the_largest_size(self):
        # a smaller size is read from the leading block of kernels at the
        # largest one, so kernels of another size are refused
        kt, dkt, times = _heat(LEGENDRE, (12,))
        lac, bcoef = _lac(2)
        with pytest.raises(ValueError, match="largest size"):
            verify_dt_sup(LEGENDRE, (8, 16), dkt)
        with pytest.raises(ValueError, match="largest size"):
            verify_kernel_decay(LEGENDRE, (8, 10), kt, dkt, times, RHO)
        with pytest.raises(ValueError, match="largest size"):
            verify_qn_bounds(LEGENDRE, lac, bcoef, 2, (8, 16), _stack(LEGENDRE, lac, (12,)))
        with pytest.raises(ValueError, match="largest size"):
            verify_theorem_norms(LEGENDRE, "variation", [(2.0, WeightSpec("constant"), "strong")],
                                 (8, 16), kt, SMALL_GRID, RHO, DEFAULT.lambdas)

    def test_kernels_must_hold_one_matrix_per_time(self):
        # kernels over other times of the same size would give wrong constants
        kt, dkt, times = _heat(LEGENDRE, (12,))
        lac, bcoef = _lac(2)
        stack = _stack(LEGENDRE, lac, (12,))
        cell = [(2.0, WeightSpec("constant"), "strong")]
        with pytest.raises(ValueError, match="one per time"):
            verify_kernel_decay(LEGENDRE, (8, 12), kt, dkt, times[1:], RHO)
        with pytest.raises(ValueError, match="one per time"):
            verify_kernel_smoothness(LEGENDRE, (8, 12), kt, dkt[1:], times, RHO)
        for verify in (lambda s: verify_qn_bounds(LEGENDRE, lac, bcoef, 2, (8, 12), s),
                       lambda s: verify_lacunary_tail(LEGENDRE, lac, bcoef, (8, 12), s),
                       lambda s: verify_cotlar(LEGENDRE, 2, lac, bcoef, 1.5, (8, 12), s)):
            with pytest.raises(ValueError, match="one per time"):
                verify(stack[1:])
        with pytest.raises(ValueError, match="one per time"):
            verify_theorem_norms(LEGENDRE, "variation", cell, (8, 12), kt[1:], SMALL_GRID,
                                 RHO, DEFAULT.lambdas)


class TestKernelVerifiers:
    def test_decay_routes_and_dominance(self):
        rep = verify_kernel_decay(LEGENDRE, (10, 14), *_heat(LEGENDRE, (10, 14)), RHO)
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
        params, sizes = JacobiParams(0.5, -0.5), (16, 24, 32)
        rep = verify_kernel_smoothness(params, sizes, *_heat(params, sizes, DEFAULT_GRID), RHO)
        assert rep.verdict == "stable"
        assert rep.extras["excluded_pairs"][0] > 0

    def test_dt_sup_runs(self):
        rep = verify_dt_sup(LEGENDRE, (8, 12), _dk(LEGENDRE, (8, 12)))
        assert all(c > 0.0 for c in rep.constants)


class TestWindowVerifiers:
    def test_qn_zero_coefficients(self):
        lac, _ = _lac(2)
        rep = verify_qn_bounds(LEGENDRE, lac, np.zeros(lac.values.size - 1), 2, (8, 12),
                               _stack(LEGENDRE, lac, (8, 12)))
        assert_allclose(rep.constants, 0.0)
        assert rep.verdict == "stable"
        assert rep.extras["uniformity_ratio"] == 1.0

    def test_qn_window_bookkeeping(self):
        lac, bcoef = _lac(2)
        rep = verify_qn_bounds(LEGENDRE, lac, bcoef, 2, (8, 12), _stack(LEGENDRE, lac, (8, 12)))
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
            verify_qn_bounds(LEGENDRE, lac, bcoef, 5, (8, 12), _stack(LEGENDRE, lac, (8, 12)))

    def test_lacunary_zero_coefficients(self):
        lac, _ = _lac(2)
        rep = verify_lacunary_tail(LEGENDRE, lac, np.zeros(lac.values.size - 1), (8, 12),
                                   _stack(LEGENDRE, lac, (8, 12)))
        assert_allclose(rep.constants, 0.0)
        assert rep.verdict == "stable"

    def test_lacunary_sensitivity_keys(self):
        lac, bcoef = _lac(2)
        rep = verify_lacunary_tail(LEGENDRE, lac, bcoef, (8, 12), _stack(LEGENDRE, lac, (8, 12)))
        sens = rep.extras["tail_sensitivity"]
        assert set(sens) == {"c=1", "c=2", "c=4"}
        assert all(len(v) == 2 for v in sens.values())
        assert rep.extras["cutoff_c"] == 1.0
        assert sens["c=1"] == rep.extras["route_tail"]
        # a wider cutoff admits fewer pairs, so its tail constant is no larger
        assert all(0.0 < c2 <= c1 for c1, c2 in zip(sens["c=1"], sens["c=2"]))

    def test_cotlar_reports_skips(self):
        lac, bcoef = _lac(2)
        rep = verify_cotlar(LEGENDRE, 2, lac, bcoef, 1.5, (8, 12), _stack(LEGENDRE, lac, (8, 12)),
                            n_random=4)
        assert all(c > 0.0 for c in rep.constants)
        skipped = rep.extras["skipped_small_denominators"]
        assert len(skipped) == 2 and all(s >= 0 for s in skipped)

    def test_cotlar_validation(self):
        lac, bcoef = _lac(2)
        stack = _stack(LEGENDRE, lac, (8, 12))
        with pytest.raises(ValueError, match="q"):
            verify_cotlar(LEGENDRE, 2, lac, bcoef, 0.5, (8, 12), stack)
        with pytest.raises(ValueError, match="positive"):
            verify_cotlar(LEGENDRE, 0, lac, bcoef, 1.5, (8, 12), stack)


LEADING_BLOCK_SWEEPS = {
    "kernel_decay": lambda sizes: verify_kernel_decay(LEGENDRE, sizes,
                                                      *_heat(LEGENDRE, sizes), RHO),
    "kernel_smoothness": lambda sizes: verify_kernel_smoothness(LEGENDRE, sizes,
                                                                *_heat(LEGENDRE, sizes), RHO),
    "dt_sup": lambda sizes: verify_dt_sup(LEGENDRE, sizes, _dk(LEGENDRE, sizes)),
    "qn_bounds": lambda sizes: verify_qn_bounds(LEGENDRE, *_lac(2), 2, sizes,
                                                _stack(LEGENDRE, _lac(2)[0], sizes)),
    "lacunary_tail": lambda sizes: verify_lacunary_tail(LEGENDRE, *_lac(2), sizes,
                                                        _stack(LEGENDRE, _lac(2)[0], sizes)),
}


class TestLeadingBlocks:
    """Each sweep takes kernels at max(sizes) and reads every smaller size
    from their leading block."""

    @pytest.mark.parametrize("name", sorted(LEADING_BLOCK_SWEEPS))
    def test_same_block_same_bits(self, name):
        sweep = LEADING_BLOCK_SWEEPS[name]
        clear_caches()
        two = sweep((16, 64))
        clear_caches()
        three = sweep((16, 32, 64))
        assert two.constants[0] == three.constants[0]
        assert two.constants[-1] == three.constants[-1]
        assert all(a <= b for a, b in zip(three.constants, three.constants[1:]))

    def test_dt_sup_reads_the_largest_kernel(self):
        dkt = _dk(LEGENDRE, (16, 64))
        rep = verify_dt_sup(LEGENDRE, (16, 64), dkt)
        block = dkt[:, :16, :16]
        idx = np.arange(16)
        sep = np.abs(idx[:, None] - idx[None, :]).astype(float)
        assert rep.constants[0] == (sep ** 3 * np.abs(block).max(axis=0)).max()

    def test_norm_sweep_reads_the_largest_kernel(self):
        # on the default norms grid (t up to 1e5) a size-16 kernel of its own
        # is off by about 1e-2, while the size-64 block is right to 1e-13
        grid = DEFAULT.norms_t_grid.build()
        spec = WeightSpec("power", exponent=1.5)
        kernels = kernel_tensor(LEGENDRE, grid.times, 64)
        rep, = verify_theorem_norms(LEGENDRE, "jump", [(1.5, spec, "strong")], (16, 64),
                                    kernels, grid, RHO, DEFAULT.lambdas)
        block = kernels[:, :16, :16]
        probes = probe_matrix(size=16, n_random=8, seed=0)
        paths = np.moveaxis(np.tensordot(block, probes, axes=([2], [0])), 0, -1)
        expected = max(
            norm_ratio_max(lam * jump_count_batch(paths, lam) ** (1.0 / RHO),
                           probes, 1.5, spec.resolve(16))
            for lam in DEFAULT.lambdas)
        assert rep.constants[0] == expected


class TestPolyBound:
    def test_flat_measure_constant(self):
        # at alpha = beta = -1/2 the normalized polynomials are plain cosines,
        # so the envelope constant settles near 1/sqrt(pi)
        rep = verify_poly_bound(CHEBYSHEV, (50, 100))
        assert rep.verdict == "stable"
        for c in rep.constants:
            assert 0.5 < c < 0.6


class TestTheoremNorms:
    def test_strong_mode_reports(self):
        spec = WeightSpec("constant")
        rep, = _sweep("variation", [(2.0, spec, "strong")])
        assert rep.name == "theorem_norms_variation"
        assert all(c > 0.0 for c in rep.constants)
        assert rep.extras["p"] == 2.0
        assert rep.extras["weight"] == "const"

    def test_weak_mode_name(self):
        spec = WeightSpec("power", exponent=-0.5)
        rep, = _sweep("oscillation", [(1.0, spec, "weak11")])
        assert rep.name == "theorem_norms_oscillation_weak11"
        assert all(c > 0.0 for c in rep.constants)

    def test_weak_mode_maxes_over_delta_probes_and_lambdas(self):
        spec = WeightSpec("power", exponent=0.5)
        lambdas = (0.25, 0.5)
        rep, = _sweep("jump", [(1.0, spec, "weak11")], lambdas=lambdas)
        kernels = kernel_tensor(LEGENDRE, SMALL_GRID.times, 12)
        for size, constant in zip((8, 12), rep.constants):
            probes = probe_matrix(size=size, n_random=4, seed=0)
            images = operator_images("jump", kernels, probes, SMALL_GRID, RHO, lambdas)
            w = spec.resolve(size)
            expected = max(weak_quasinorm(fam[:, m], w) / w[m]
                           for fam in images for m in range(size))
            assert_allclose(constant, expected, rtol=1e-15, atol=0.0)

    def test_jump_iterates_lambda_family(self):
        spec = WeightSpec("constant")
        rep, = _sweep("jump", [(2.0, spec, "strong")], lambdas=(0.25, 0.5))
        assert all(c > 0.0 for c in rep.constants)

    def test_s_star_images_follow_coefficients(self):
        spec = WeightSpec("constant")
        lac, alternating = _lac(2)
        stack = _stack(LEGENDRE, lac, (8, 12))
        reps = [verify_theorem_norms(LEGENDRE, "s_star", [(2.0, spec, "strong")], (8, 12),
                                     s_star_kernels(stack, lac, b, 2), SMALL_GRID, RHO,
                                     DEFAULT.lambdas, n_random=4)[0]
                for b in (alternating, np.ones_like(alternating))]
        assert reps[0].constants != reps[1].constants

    def test_cells_match_single_cell_sweeps(self):
        # one sweep reduces the same images for every cell, so each cell's
        # constants are the bits a sweep of that cell alone gives
        cells = [(p, spec, mode)
                 for spec in (WeightSpec("constant"), WeightSpec("power", exponent=0.5))
                 for p, mode in ((1.5, "strong"), (1.0, "weak11"))]
        reps = _sweep("jump", cells, lambdas=(0.25, 0.5))
        assert len(reps) == len(cells)
        assert len({rep.runtime for rep in reps}) == 1
        for cell, rep in zip(cells, reps):
            clear_caches()
            alone, = _sweep("jump", [cell], lambdas=(0.25, 0.5))
            assert rep.name == alone.name
            assert rep.extras == alone.extras
            assert rep.constants == alone.constants

    @pytest.mark.parametrize("operator", ["variation", "oscillation", "jump", "s_star"])
    def test_weight_stacks_match_single_weight_calls(self, monkeypatch, operator):
        # two weights per p, one of them explicit: each size makes one
        # norm_ratio_max call per p and reduces every weak11 cell from one
        # sort, with the bits of single-weight calls on the same images
        explicit = WeightSpec("explicit", values=tuple(np.linspace(2.0, 0.5, 12)))
        pairs = [(1.5, WeightSpec("constant")), (1.5, WeightSpec("power", exponent=0.5)),
                 (2.0, WeightSpec("power", exponent=-0.5)), (2.0, explicit)]
        cells = [cell for p, spec in pairs
                 for cell in ((p, spec, "strong"), (1.0, spec, "weak11"))]
        seen = []

        def recording(images, probes, p, w):
            assert w.shape == (2, probes.shape[0])
            seen.append((images, probes, p))
            return norm_ratio_max(images, probes, p, w)

        monkeypatch.setattr(jhl.verify, "norm_ratio_max", recording)
        sizes = (8, 12)
        reps = _sweep(operator, cells, sizes, lambdas=(0.25, 0.5))
        assert [(probes.shape[0], p) for _, probes, p in seen] == \
            [(size, p) for size in sizes for p in (1.5, 2.0)]
        for i, (images, probes, _) in enumerate(seen[::2]):
            size = probes.shape[0]
            deltas = np.moveaxis(images[..., :size], -2, 0)
            for (p, spec, mode), rep in zip(cells, reps):
                w = spec.resolve(size)
                if mode == "strong":
                    expected = norm_ratio_max(images, probes, p, w)
                else:
                    expected = (weak_quasinorm(deltas, w) / w).max()
                assert rep.constants[i] == expected, (p, spec.label(), mode, size)

    def test_weak11_cells_share_one_reduction_per_weight(self, monkeypatch):
        # a weak11 cell does not depend on p, so the two pow1.5 cells (as in
        # the default norms config) share one row of each weak_quasinorm stack
        pow15 = WeightSpec("power", exponent=1.5)
        pairs = [(3.0, pow15), (2.0, WeightSpec("constant")), (1.5, pow15)]
        cells = [cell for p, spec in pairs
                 for cell in ((p, spec, "strong"), (1.0, spec, "weak11"))]
        stacks = []

        def recording(deltas, w):
            stacks.append(w)
            return weak_quasinorm(deltas, w)

        monkeypatch.setattr(jhl.verify, "weak_quasinorm", recording)
        sizes = (8, 12)
        reps = _sweep("jump", cells, sizes, lambdas=(0.25, 0.5))
        assert [w.shape for w in stacks] == [(2, size) for size in sizes]
        for w, size in zip(stacks, sizes):
            assert np.array_equal(w, np.stack([pow15.resolve(size), np.ones(size)]))
        assert reps[1].constants == reps[5].constants

    def test_validation(self):
        spec = WeightSpec("constant")
        with pytest.raises(ValueError, match="operator"):
            _sweep("rotation", [(2.0, spec, "strong")])
        with pytest.raises(ValueError, match="p"):
            _sweep("variation", [(0.5, spec, "strong")])
        with pytest.raises(ValueError, match="mode"):
            _sweep("variation", [(2.0, spec, "medium")])


class TestOperatorImages:
    M_RANGE, SIZE = 3, 16

    def _images(self, params, operator, probes):
        kernels = _operator_kernels(params, operator, self.SIZE, m_range=self.M_RANGE)
        return operator_images(operator, kernels, probes, SMALL_GRID, RHO, DEFAULT.lambdas)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=JacobiParams.tag)
    def test_window_sums_match_dense_kernel(self, params):
        m = self.M_RANGE
        lac, b = _lac(m)
        prefix = s_star_kernels(_stack(params, lac, (self.SIZE,)), lac, b, m)
        for n1 in range(-m, m):
            for n2 in range(n1 + 1, m + 1):
                dense = qn_kernel_matrix(params, n1, n2, lac, b, self.SIZE)
                got = prefix[n2 + m + 1] - prefix[n1 + m]
                assert np.abs(got - dense).max() <= 1e-13, (n1, n2)

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=JacobiParams.tag)
    def test_s_star_images_match_scalar_oracle(self, params):
        lac, b = _lac(self.M_RANGE)
        probes = probe_matrix(size=self.SIZE, n_random=3, seed=5)
        images = self._images(params, "s_star", probes)
        expected = [[s_star(params, self.M_RANGE, lac, b, probes[:, k], n, self.SIZE)
                     for k in range(probes.shape[1])] for n in range(self.SIZE)]
        assert images.shape == probes.shape
        assert np.abs(images - np.array(expected)).max() <= 1e-12

    @pytest.mark.parametrize("operator", ["variation", "oscillation", "jump", "s_star"])
    def test_single_signal_matches_probe_column(self, operator):
        probes = probe_matrix(size=self.SIZE, n_random=2, seed=3)
        batch = self._images(CHEBYSHEV, operator, probes)
        single = self._images(CHEBYSHEV, operator, probes[:, -1])
        assert single.shape == batch[..., -1].shape
        assert_allclose(single, batch[..., -1], rtol=1e-12, atol=1e-14)

    def test_s_star_window_must_fit_sequence(self):
        # steps j = -2..2 cannot hold the window [-4, 4]
        lac = LacunarySequence.geometric(2.0, -2, 3)
        stack = _stack(LEGENDRE, lac, (8,))
        with pytest.raises(ValueError, match="cover"):
            s_star_kernels(stack, lac, np.ones(5), 4)
        with pytest.raises(ValueError, match="positive"):
            s_star_kernels(stack, lac, np.ones(5), 0)

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError, match="operator"):
            self._images(LEGENDRE, "rotation", np.eye(self.SIZE))


class TestTriangleRoutes:
    """The delta images of a norm sweep and the majorant and variation of the
    kernel estimates come from the n <= m (or weight-kept) kernel paths only;
    they must be the bits of the full computation."""

    @pytest.mark.parametrize("operator", ["variation", "oscillation", "jump", "s_star"])
    def test_sweep_delta_block_matches_full_probe_images(self, monkeypatch, operator):
        # the default norms grid runs to t = 1e5, past laguerre_split at size 64
        sizes = (16, 32, 64)
        config = replace(DEFAULT, sizes=sizes, operators=(operator,))
        grid = config.norms_t_grid.build()
        kernels = jhl.cli._operator_kernels(config, CHEBYSHEV, grid)[operator]
        seen = []

        def recording(images, probes, p, w):
            seen.append((images, probes))
            return norm_ratio_max(images, probes, p, w)

        monkeypatch.setattr(jhl.verify, "norm_ratio_max", recording)
        verify_theorem_norms(CHEBYSHEV, operator, [(2.0, WeightSpec("constant"), "strong")],
                             sizes, kernels, grid, RHO, config.lambdas)
        assert [probes.shape[0] for _, probes in seen] == list(sizes)
        for images, probes in seen:
            size = probes.shape[0]
            full = operator_images(operator, kernels, probes, grid, RHO, config.lambdas)
            assert images.shape == full.shape
            assert np.array_equal(images[..., :size], full[..., :size])
            # the random columns pass through a product with fewer columns,
            # whose rounding a BLAS need not keep
            assert_allclose(images[..., size:], full[..., size:], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("operator", ["variation", "oscillation", "jump", "s_star"])
    def test_pair_blocks_match_one_block(self, monkeypatch, operator):
        # 528 pairs n <= m at size 32, in blocks of 97 with a partial last one
        config = replace(DEFAULT, sizes=(32,), operators=(operator,))
        grid = config.norms_t_grid.build()
        kernels = jhl.cli._operator_kernels(config, CHEBYSHEV, grid)[operator]
        args = (operator, kernels, grid, RHO, config.lambdas)
        one_block = _delta_images(*args)
        monkeypatch.setattr(jhl.verify, "_PAIR_BLOCK", 97)
        assert np.array_equal(_delta_images(*args), one_block)

    def test_non_finite_kernel_ends_a_jump_sweep(self):
        # a jump count compares with nan as false, so a nan kernel would leave
        # every image finite; the sweep and the images refuse such kernels
        kernels = kernel_tensor(LEGENDRE, SMALL_GRID.times, 12).copy()
        kernels[-1, 0, 0] = np.nan
        with pytest.raises(NumericFailure, match="non-finite"):
            verify_theorem_norms(LEGENDRE, "jump", [(2.0, WeightSpec("constant"), "strong")],
                                 (8, 12), kernels, SMALL_GRID, RHO, DEFAULT.lambdas,
                                 n_random=4)
        with pytest.raises(NumericFailure, match="non-finite"):
            operator_images("jump", kernels, np.eye(12), SMALL_GRID, RHO, DEFAULT.lambdas)

    @pytest.mark.parametrize("verifier", [verify_kernel_decay, verify_kernel_smoothness])
    def test_kernel_pair_blocks_match_one_block(self, monkeypatch, verifier):
        # the majorant and variation of the decay estimate's n < m pairs and of
        # the smoothness mask's differenced pairs at size 64, in blocks of 97
        # with a partial last one
        seen = []

        def recording(functional, keep, mirror=False):
            out = _pair_values(functional, keep, mirror)
            seen.append((int(keep.sum()), out))
            return out

        monkeypatch.setattr(jhl.verify, "_pair_values", recording)
        params, sizes = JacobiParams(2.5, 0.5), (32, 64)
        heat = _heat(params, sizes, DEFAULT_GRID)
        verifier(params, sizes, *heat, RHO)
        monkeypatch.setattr(jhl.verify, "_PAIR_BLOCK", 97)
        verifier(params, sizes, *heat, RHO)
        assert len(seen) == 4
        for (pairs, one_block), (_, blocked) in zip(seen[:2], seen[2:]):
            assert pairs > 97 and pairs % 97 != 0
            assert np.array_equal(blocked, one_block)

    @staticmethod
    def _full_routes(kt, dkt, times, weight, sizes, lag):
        # every (n, m) path of the whole tensors
        maj = majorant_batch(dkt, times)
        var = variation_batch(kt.transpose(1, 2, 0), RHO)
        return {name: [float((weight * q)[:s - lag, :s].max()) for s in sizes]
                for name, q in (("majorant", maj), ("variation", var))}

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=JacobiParams.tag)
    def test_kernel_estimates_match_full_tensor_routes(self, params):
        sizes = (16, 32, 64)
        kt, dkt, times = _heat(params, sizes, DEFAULT_GRID)
        idx = np.arange(sizes[-1])
        sep = np.abs(idx[:, None] - idx[None, :]).astype(float)
        decay_weight = sep.copy()
        decay_weight[0, :] = decay_weight[:, 0] = 0.0
        decay = self._full_routes(kt, dkt, times, decay_weight, sizes, 0)
        smooth = self._full_routes(kt[:, 1:] - kt[:, :-1], dkt[:, 1:] - dkt[:, :-1],
                                   times,
                                   np.where(_smoothness_mask(sizes[-1]), sep[:-1] ** 2, 0.0),
                                   sizes, 1)
        for rep, expected in ((verify_kernel_decay(params, sizes, kt, dkt, times, RHO), decay),
                              (verify_kernel_smoothness(params, sizes, kt, dkt, times, RHO),
                               smooth)):
            for name, series in expected.items():
                assert rep.extras[f"route_{name}"] == series, (rep.name, name)
