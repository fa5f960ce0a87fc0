"""Tests for Muckenhoupt constants, weighted norms, and probe-based estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jhl.weights import (
    WeightSpec,
    ap_constant,
    norm_ratio_max,
    probe_matrix,
    weak_quasinorm,
)
from oracles import a1_constant, weighted_norm

weights_strategy = st.lists(st.floats(0.1, 10.0), min_size=1, max_size=12).map(np.array)


def level_loop_quasinorm(f, w):
    """max over distinct nonzero levels v of v * w({|f| >= v}), one masked sum
    per level; oracle for the sorted batch in `weak_quasinorm`."""
    fv = np.abs(np.asarray(f, dtype=float))
    wv = np.asarray(w, dtype=float)[: fv.size]
    best = 0.0
    for v in np.unique(fv[fv > 0.0]):
        best = max(best, float(v * wv[fv >= v].sum()))
    return best


class TestMuckenhoupt:
    def test_hand_values(self):
        w = np.array([1.0, 2.0])
        # the full interval dominates: (1+2) * (1 + 1/2) / 4 at p = 2
        assert_allclose(ap_constant(w, 2.0), 1.125)
        assert_allclose(a1_constant(w), 1.5)
        assert_allclose(ap_constant(np.ones(7), 3.0), 1.0)
        assert_allclose(a1_constant(np.ones(4)), 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="p > 1"):
            ap_constant(np.ones(3), 1.0)
        with pytest.raises(ValueError, match="positive"):
            ap_constant(np.array([1.0, -1.0]), 2.0)

    @settings(max_examples=40, deadline=None)
    @given(weights_strategy)
    def test_at_least_one(self, w):
        assert ap_constant(w, 2.0) >= 1.0 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(weights_strategy, st.sampled_from([(1.5, 2.0), (2.0, 3.0), (1.2, 4.0)]))
    def test_decreasing_in_p(self, w, pair):
        # larger p relaxes the dual average, so the constant can only shrink
        p_small, p_large = pair
        assert ap_constant(w, p_large) <= ap_constant(w, p_small) * (1.0 + 1e-10)

    @settings(max_examples=40, deadline=None)
    @given(weights_strategy)
    def test_dominated_by_a1(self, w):
        assert ap_constant(w, 1.5) <= a1_constant(w) * (1.0 + 1e-10)

    def test_power_weight_criticality(self):
        # (n+1)^gamma lies in A_p exactly when gamma < p - 1: well below the
        # line the constants flatten under range doubling, well above they keep
        # growing
        for p in (2.0, 1.5):
            sub, sup = [], []
            for size in (256, 512):
                n = np.arange(size) + 1.0
                sub.append(ap_constant(n ** (p - 1.5), p))
                sup.append(ap_constant(n ** (p - 0.5), p))
            assert sub[1] / sub[0] < 1.05
            assert sup[1] / sup[0] > 1.2

    def test_criticality_ordering_near_line(self):
        p = 2.0
        grow = []
        for gamma in (p - 1.1, p - 0.9):
            vals = [ap_constant((np.arange(size) + 1.0) ** gamma, p)
                    for size in (256, 512)]
            grow.append(vals[1] / vals[0])
        assert grow[0] < grow[1]


class TestNorms:
    def test_weighted_norm_values(self):
        f = np.array([3.0, -4.0])
        assert_allclose(weighted_norm(f, 2.0, np.ones(2)), 5.0)
        assert_allclose(weighted_norm(f, 1.0, np.array([2.0, 1.0])), 10.0)

    def test_weak_hand_value(self):
        # both levels give 1: 1 * w({|f| >= 1}) = 1 and 0.5 * w({|f| >= 0.5}) = 1
        assert_allclose(weak_quasinorm(np.array([1.0, 0.5]), np.ones(2)), 1.0)

    def test_weak_single_point_equality(self):
        w = np.array([1.0, 3.0, 0.5])
        f = np.zeros(3)
        f[1] = 2.0
        assert_allclose(weak_quasinorm(f, w), weighted_norm(f, 1.0, w))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=10))
    def test_weak_below_strong(self, values):
        f = np.array(values)
        w = np.ones(f.size)
        assert weak_quasinorm(f, w) <= weighted_norm(f, 1.0, w) + 1e-12

    def test_weak_of_zero(self):
        assert weak_quasinorm(np.zeros(5), np.ones(5)) == 0.0


class TestWeakBatch:
    @staticmethod
    def _columns():
        rng = np.random.default_rng(12)
        gauss = rng.standard_normal((40, 6))
        tied = rng.integers(-3, 4, (40, 6)).astype(float)
        zeros = gauss.copy()
        zeros[rng.random((40, 6)) < 0.5] = 0.0
        return np.concatenate([gauss, tied, zeros, np.zeros((40, 1))], axis=1)

    @pytest.mark.parametrize("weight", [np.ones(40), np.arange(1.0, 41.0) ** 1.5,
                                        np.linspace(3.0, 0.2, 45)],
                             ids=["constant", "power", "longer-decreasing"])
    def test_columns_match_level_loop(self, weight):
        cols = self._columns()
        batch = weak_quasinorm(cols, weight)
        assert batch.shape == (cols.shape[1],)
        expected = [level_loop_quasinorm(cols[:, j], weight) for j in range(cols.shape[1])]
        assert_allclose(batch, expected, rtol=1e-15, atol=0.0)
        assert batch[-1] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-5.0, 5.0),
                    min_size=1, max_size=12), weights_strategy)
    def test_signal_matches_level_loop(self, values, w):
        f = np.array(values)[: w.size]
        out = weak_quasinorm(f, w)
        assert isinstance(out, float)
        assert_allclose(out, level_loop_quasinorm(f, w), rtol=1e-15, atol=0.0)

    def test_rejects_short_weight(self):
        with pytest.raises(ValueError, match="cover"):
            weak_quasinorm(np.ones((4, 2)), np.ones(3))


class TestProbes:
    def test_matrix_shape_and_blocks(self):
        probes = probe_matrix(size=6, n_random=3, seed=5)
        assert probes.shape == (6, 6 + 2 * 3)
        assert_allclose(probes[:, :6], np.eye(6))
        assert set(np.unique(probes[:, 6:9])) <= {-1.0, 1.0}

    def test_deterministic_per_seed(self):
        probes = probe_matrix(size=5, n_random=4, seed=7)
        assert_allclose(probes, probe_matrix(size=5, n_random=4, seed=7))
        other = probe_matrix(size=5, n_random=4, seed=8)
        assert not np.allclose(probes, other)

    def test_norm_ratio_scaling(self):
        probes = probe_matrix(size=8, n_random=2, seed=0)
        w = np.ones(8)
        assert_allclose(norm_ratio_max(probes, probes, 2.0, w), 1.0)
        assert_allclose(norm_ratio_max(2.0 * probes, probes, 2.0, w), 2.0)

    def test_norm_ratio_skips_zero_probes(self):
        probes = np.zeros((4, 2))
        probes[:, 1] = 1.0
        images = np.ones((4, 2))
        got = norm_ratio_max(images, probes, 2.0, np.ones(4))
        assert_allclose(got, 1.0)
        assert norm_ratio_max(images[:, :1], probes[:, :1], 2.0, np.ones(4)) == 0.0

    def test_more_probes_never_lower_the_estimate(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((7, 7))
        probes = probe_matrix(size=7, n_random=6, seed=1)
        images = mat @ probes
        w = np.ones(7)
        prev = 0.0
        for k in (7, 11, probes.shape[1]):
            cur = norm_ratio_max(images[:, :k], probes[:, :k], 2.0, w)
            assert cur >= prev - 1e-14
            prev = cur

    def test_norm_ratio_max_diagonal(self):
        d = np.array([1.0, -3.0, 2.0, 0.5])
        probes = probe_matrix(4, 4, 0)
        got = norm_ratio_max(d[:, None] * probes, probes, 2.0, np.ones(4))
        assert_allclose(got, 3.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("exponent", [0.0, -0.5, 2.0])
    def test_family_stack_matches_per_family_calls(self, p, exponent):
        # the stack reductions must give the max over per-family calls bit for
        # bit; rounding to a coarse lattice makes ties among the levels
        rng = np.random.default_rng(7)
        size, families = 24, 5
        probes = probe_matrix(size=size, n_random=6, seed=3)
        images = np.round(rng.standard_normal((families, size, probes.shape[1])), 1)
        images[2] = 0.0
        w = WeightSpec("power", exponent=exponent).resolve(size)
        assert norm_ratio_max(images, probes, p, w) == max(
            norm_ratio_max(fam, probes, p, w) for fam in images)
        stacked = weak_quasinorm(np.moveaxis(images, 0, 1), w)
        assert stacked.shape == (families, probes.shape[1])
        for fam, row in zip(images, stacked):
            assert np.array_equal(row, weak_quasinorm(fam, w))
        assert (stacked[:, :size] / w).max() == max(
            (weak_quasinorm(fam[:, :size], w) / w).max() for fam in images)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_weight_stack_matches_single_weight_calls(self, p):
        # a stack of weights gives, per weight, the bits of a single-weight call
        rng = np.random.default_rng(11)
        size, families = 24, 3
        probes = probe_matrix(size=size, n_random=6, seed=4)
        images = np.round(rng.standard_normal((families, size, probes.shape[1])), 1)
        stack = np.stack([WeightSpec("power", exponent=e).resolve(size)
                          for e in (0.0, -0.5, 2.0)] + [rng.uniform(0.1, 3.0, size)])
        ratios = norm_ratio_max(images, probes, p, stack)
        assert ratios.shape == (len(stack),)
        assert [float(r) for r in ratios] == [norm_ratio_max(images, probes, p, w)
                                              for w in stack]
        block = np.moveaxis(images, 0, 1)
        weak = weak_quasinorm(block, stack)
        assert weak.shape == (len(stack), families, probes.shape[1])
        for row, w in zip(weak, stack):
            assert np.array_equal(row, weak_quasinorm(block, w))
        signal = images[0, :, -1]
        assert np.array_equal(weak_quasinorm(signal, stack),
                              [weak_quasinorm(signal, w) for w in stack])

    def test_weight_stack_validation(self):
        probes = probe_matrix(size=6, n_random=2, seed=0)
        stack = np.ones((3, 6))
        assert np.array_equal(norm_ratio_max(np.zeros((6, 2)), np.zeros((6, 2)), 2.0, stack),
                              np.zeros(3))
        stack[2, 4] = 0.0
        with pytest.raises(ValueError, match="positive"):
            norm_ratio_max(probes, probes, 2.0, stack)
        with pytest.raises(ValueError, match="positive"):
            weak_quasinorm(probes, stack)
        with pytest.raises(ValueError, match="cover"):
            weak_quasinorm(probes, np.ones((2, 5)))

    def test_probe_matrix_validation(self):
        with pytest.raises(ValueError, match="positive"):
            probe_matrix(0, 8, 0)


class TestWeightSpec:
    def test_constant_and_power(self):
        assert_allclose(WeightSpec("constant").resolve(4), np.ones(4))
        got = WeightSpec("power", exponent=0.5).resolve(4)
        assert_allclose(got, np.sqrt(np.arange(4) + 1.0))

    def test_explicit(self):
        spec = WeightSpec("explicit", values=(2.0, 3.0, 4.0))
        assert_allclose(spec.resolve(2), [2.0, 3.0])
        with pytest.raises(ValueError, match="covers"):
            spec.resolve(5)

    def test_file(self):
        # A run configuration reads the file into the values when it loads
        # (tests/test_cli.py::test_file_weight_read_at_load); resolve reads
        # only the values, like an explicit weight's.
        spec = WeightSpec("file", values=(1.0, 2.0, 4.0), path="w.txt")
        assert_allclose(spec.resolve(3), [1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="covers"):
            WeightSpec("file", path="w.txt").resolve(1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            WeightSpec("random")

    def test_labels(self):
        assert WeightSpec("constant").label() == "const"
        assert WeightSpec("power", exponent=0.3).label() == "pow0.3"
        assert WeightSpec("power", exponent=-0.5).label() == "pow-0.5"
        assert WeightSpec("explicit", values=(1.0,)).label() == "explicit"

    @pytest.mark.parametrize("exponent", [400.0, -400.0], ids=["overflow", "underflow"])
    def test_power_out_of_range_rejected(self, exponent):
        # 16^400 overflows and 16^-400 underflows to 0; resolve raises
        # instead of returning an unusable weight or warning
        assert np.all(np.isfinite(WeightSpec("power", exponent=exponent).resolve(5)))
        with pytest.raises(ValueError, match="finite and strictly positive"):
            WeightSpec("power", exponent=exponent).resolve(16)

    def test_rejects_nonpositive_values(self):
        spec = WeightSpec("explicit", values=(1.0, -2.0))
        with pytest.raises(ValueError, match="positive"):
            spec.resolve(2)
