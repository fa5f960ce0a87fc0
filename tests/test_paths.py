"""Tests for path functionals: variation, oscillation, jumps, and maximal sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jhl.basis import JacobiParams
from jhl.config import RunConfig
from jhl.paths import (
    BandSequence,
    LacunarySequence,
    TimeGrid,
    _resolve_bcoef,
    default_bands,
    hl_maximal_all,
    jump_count_batch,
    oscillation_batch,
    variation_batch,
)
from jhl.semigroup import kernel_tensor
from oracles import (
    apply_heat,
    brute_jump_count,
    brute_variation,
    golub_welsch,
    kernel_entry,
    qn_kernel_matrix,
    s_star,
)

LEGENDRE = JacobiParams(0.0, 0.0)


def heat_paths(params, f, grid, size):
    """Row n is the path t -> W_t f(n) over the grid."""
    return (kernel_tensor(params, grid.times, size) @ f).T


def unpruned_variation(values, rho):
    """The O(L^2) dynamic program over every grid point; oracle for the
    turning-point dynamic program of `variation_batch`."""
    v = np.asarray(values, dtype=float)
    flat = v.reshape(-1, v.shape[-1])
    best = np.zeros_like(flat)
    for i in range(1, flat.shape[1]):
        cand = best[:, :i] + np.abs(flat[:, i, None] - flat[:, :i]) ** rho
        best[:, i] = cand.max(axis=1)
    return (best.max(axis=1) ** (1.0 / rho)).reshape(v.shape[:-1])


def two_sided_jump_count(path, lam):
    """One lam and one path, point by point: a point farther than lam from
    the running min or max since the last jump closes a jump; oracle for the
    spread test and the pruning of `jump_count_batch`."""
    count = 0
    lo = hi = path[0]
    for x in path[1:]:
        if x - lo > lam or hi - x > lam:
            count += 1
            lo = hi = x
        else:
            lo, hi = min(lo, x), max(hi, x)
    return count


# Few distinct levels, so paths hold plateaus and repeated extremes.
_LEVELS = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]) | st.floats(-5.0, 5.0)


class TestGridsAndSequences:
    def test_time_grid_rejects_bad_input(self):
        with pytest.raises(ValueError, match="nonempty"):
            TimeGrid(np.array([]))
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid(np.array([0.0, 1.0]))

    def test_geometric_grid(self):
        grid = TimeGrid.geometric(1e-2, 1e2, 9)
        assert len(grid) == 9
        assert_allclose(grid.times[0], 1e-2)
        assert_allclose(grid.times[-1], 1e2)
        ratios = grid.times[1:] / grid.times[:-1]
        assert_allclose(ratios, ratios[0])

    def test_default_grid_span(self):
        grid = RunConfig().t_grid.build()
        assert len(grid) == 96
        assert_allclose([grid.times[0], grid.times[-1]], [1e-3, 1e2])

    def test_sampled_path_alignment(self):
        bands = BandSequence(np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="align"):
            oscillation_batch([1.0, 2.0], np.zeros(3), bands)
        with pytest.raises(ValueError, match="align"):
            oscillation_batch([1.0, 1.5, 2.0], np.zeros((4, 2)), bands)

    def test_band_sequence_validation(self):
        with pytest.raises(ValueError, match="two edges"):
            BandSequence(np.array([1.0]))
        with pytest.raises(ValueError, match="decreasing"):
            BandSequence(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="positive"):
            BandSequence(np.array([1.0, 0.0]))

    def test_default_bands_are_dyadic_and_inside(self):
        grid = TimeGrid.geometric(0.5, 64.0, 20)
        bands = default_bands(grid)
        assert bands.edges[0] == 64.0
        assert bands.edges[-1] >= 0.5
        assert_allclose(bands.edges[:-1] / bands.edges[1:], 2.0)

    def test_lacunary_ratio_violations(self):
        with pytest.raises(ValueError, match="lower bound"):
            LacunarySequence(j_min=0, values=np.array([1.0, 1.5]), ratio=2.0)
        with pytest.raises(ValueError, match="ratio"):
            LacunarySequence(j_min=0, values=np.array([1.0, 2.0]), ratio=1.0)
        with pytest.raises(ValueError, match="above"):
            LacunarySequence(j_min=0, values=np.array([1.0, 8.0]), ratio=2.0)

    def test_lacunary_geometric_and_lookup(self):
        lac = LacunarySequence.geometric(2.0, -3, 4)
        assert lac.j_max == 4
        assert_allclose(lac.value(-3), 0.125)
        assert_allclose(lac.value(4), 16.0)
        with pytest.raises(ValueError, match="outside"):
            lac.value(5)


class TestVariation:
    def test_hand_values(self):
        # skipping the middle point wins for rho = 3: 3 > (1 + 8)^(1/3)
        assert_allclose(variation_batch([0.0, 1.0, 3.0], 3.0), 3.0)
        # returning to the start leaves sqrt(1 + 1)
        assert_allclose(variation_batch([0.0, 1.0, 0.0], 2.0), np.sqrt(2.0))
        # monotone path: one long increment beats any split
        assert_allclose(variation_batch([0.0, 1.0, 2.0, 5.0], 2.0), 5.0)

    def test_rejects_rho_at_most_one(self):
        with pytest.raises(ValueError, match="rho"):
            variation_batch([0.0, 1.0], 1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 9))
        batch = variation_batch(values, 2.5)
        assert batch.shape == (5,)
        for i in range(5):
            assert_allclose(batch[i], variation_batch(values[i], 2.5))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=9),
        st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_dynamic_program_matches_brute_force(self, values, rho):
        assert_allclose(variation_batch(values, rho), brute_variation(values, rho),
                        rtol=1e-10, atol=1e-12)

    # Bit identity needs rho away from 1: as rho -> 1 superadditivity fades
    # below rounding, and the full program can take a chain through a
    # monotone run whose sum rounds one ulp higher.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LEVELS, min_size=1, max_size=40), st.floats(1.1, 4.0))
    def test_turning_points_match_unpruned_bitwise(self, values, rho):
        v = np.array(values)
        assert variation_batch(v, rho) == unpruned_variation(v, rho)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_LEVELS, min_size=1, max_size=40),
           st.floats(1.0, 1.1, exclude_min=True))
    def test_turning_points_match_unpruned_near_one(self, values, rho):
        v = np.array(values)
        assert_allclose(variation_batch(v, rho), unpruned_variation(v, rho),
                        rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("values, expected", [
        # both minima sit on one plateau; a neighbour-sign test drops them
        ([1.0, 0.0, 0.0, 1.0], np.sqrt(2.0)),
        ([2.0, 2.0, 2.0, 2.0], 0.0),
        ([0.0, 3.0, 1.0, 1.0, 1.0], np.sqrt(13.0)),
        ([0.0, 1.0, 2.0, 4.0, 7.0], 7.0),
        ([1.0, -2.0], 3.0),
        ([5.0], 0.0),
    ], ids=["plateau-minimum", "constant", "trailing-plateau", "monotone",
            "length-two", "length-one"])
    def test_turning_point_cases(self, values, expected):
        v = np.array(values)
        assert variation_batch(v, 2.0) == unpruned_variation(v, 2.0)
        assert_allclose(variation_batch(v, 2.0), expected)

    def test_groups_of_mixed_turning_counts(self):
        rng = np.random.default_rng(4)
        smooth = np.cumsum(np.abs(rng.standard_normal((6, 96))), axis=1)
        rough = rng.integers(-3, 4, (6, 96)).astype(float)
        values = np.concatenate([smooth, rough, smooth[:, ::-1]]).reshape(3, 6, 96)
        assert np.array_equal(variation_batch(values, 2.5),
                              unpruned_variation(values, 2.5))


class TestOscillation:
    def test_hand_value(self):
        # bands [1, 2] and [2, 4] on times 1, 2, 3, 4; the shared edge point
        # belongs to both bands
        bands = BandSequence(np.array([4.0, 2.0, 1.0]))
        got = oscillation_batch([1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 1.0, 5.0], bands)
        assert_allclose(got, np.hypot(2.0, 4.0))

    def test_band_with_single_point_contributes_zero(self):
        bands = BandSequence(np.array([4.0, 2.0, 1.0]))
        assert_allclose(oscillation_batch([1.0, 4.0], [3.0, 7.0], bands), 0.0)

    def test_edges_must_stay_in_span(self):
        with pytest.raises(ValueError, match="span"):
            oscillation_batch([1.0, 2.0], [0.0, 1.0], BandSequence(np.array([8.0, 4.0])))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        times = np.linspace(1.0, 16.0, 12)
        values = rng.standard_normal((4, 12))
        bands = BandSequence(np.array([16.0, 8.0, 4.0, 2.0, 1.0]))
        batch = oscillation_batch(times, values, bands)
        assert batch.shape == (4,)
        for i in range(4):
            assert_allclose(batch[i], oscillation_batch(times, values[i], bands))

    def test_dominated_by_two_variation(self):
        grid = TimeGrid.geometric(1e-2, 50.0, 40)
        bands = default_bands(grid)
        f = np.zeros(32)
        f[3] = 1.0
        paths = heat_paths(LEGENDRE, f, grid, 32)[[0, 3, 7]]
        assert np.all(oscillation_batch(grid.times, paths, bands)
                      <= variation_batch(paths, 2.0) + 1e-12)


class TestJumpCounts:
    def test_hand_values(self):
        path = [0.0, 2.0, 0.0, 2.0, 0.0]
        assert jump_count_batch(path, 1.5) == 4
        assert jump_count_batch(path, 2.5) == 0
        assert jump_count_batch([0.0, 0.5, 1.1], 1.0) == 1
        # a NaN stops the count without undoing the jumps before it
        assert jump_count_batch([0.0, 2.0, np.nan, 5.0], 1.0) == 1

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), -float("inf"),
                                     [0.5, float("nan")], [[0.5, 1.0]], [[0.5], [1.0]]])
    def test_rejects_bad_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            jump_count_batch([0.0, 1.0], lam)

    def test_lambda_array_shape(self):
        values = np.random.default_rng(3).standard_normal((2, 3, 9))
        counts = jump_count_batch(values, [0.25, 0.5, 1.0, 2.0])
        assert counts.shape == (4, 2, 3)
        assert jump_count_batch(values, np.array([0.5])).shape == (1, 2, 3)
        assert jump_count_batch(values[0, 0], [0.5, 1.0]).shape == (2,)
        assert jump_count_batch(values, 0.5).shape == (2, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 7).flatmap(lambda length: st.lists(
               st.lists(st.integers(-4, 4), min_size=length, max_size=length),
               min_size=1, max_size=4)),
           st.lists(st.integers(1, 8), min_size=1, max_size=5))
    def test_lambda_array_matches_scalar_and_exhaustive(self, rows, steps):
        # values and thresholds on the lattice (1/4)Z, where differences are
        # exact, so spreads often equal lam and ties are exercised
        paths = np.array(rows, dtype=float) / 4.0
        lams = np.array(steps, dtype=float) / 4.0
        counts = jump_count_batch(paths, lams)
        assert counts.shape == (lams.size, paths.shape[0])
        for i, lam in enumerate(lams):
            assert np.array_equal(counts[i], jump_count_batch(paths, float(lam)))
            for r, path in enumerate(paths):
                assert counts[i, r] == brute_jump_count(path, lam)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((6, 14))
        batch = jump_count_batch(values, 0.7)
        assert batch.shape == (6,)
        for i in range(6):
            assert batch[i] == jump_count_batch(values[i], 0.7)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=10))
    def test_greedy_matches_exhaustive_pairing(self, values):
        assert jump_count_batch(values, 1.5) == brute_jump_count(values, 1.5)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=8),
           st.sampled_from([0.5, 1.5, 2.5]))
    def test_greedy_matches_exhaustive_integer_paths(self, values, lam):
        path = [float(v) for v in values]
        assert jump_count_batch(path, lam) == brute_jump_count(path, lam)

    def test_lambda_array_matches_two_sided_oracle_on_heat_paths(self):
        # rounded values off any lattice; half the thresholds are differences
        # of two path values, so some spreads equal lam to the last bit
        grid = TimeGrid.geometric(1e-3, 1e3, 40)
        rng = np.random.default_rng(5)
        signals = np.concatenate([np.eye(12)[:, :3], rng.standard_normal((12, 3))], axis=1)
        paths = np.moveaxis(kernel_tensor(LEGENDRE, grid.times, 12) @ signals, 0, -1)
        flat = paths.reshape(-1, paths.shape[-1])
        picks = rng.integers(0, flat.shape[1], size=(6, 3))
        ties = np.abs(flat[picks[:, 0], picks[:, 1]] - flat[picks[:, 0], picks[:, 2]])
        lams = np.concatenate([ties[ties > 0.0], [1e-3, 1e-2, 0.1, 0.5, 2.0]])
        counts = jump_count_batch(paths, lams)
        assert counts.shape == (lams.size,) + paths.shape[:-1]
        for i, lam in enumerate(lams):
            expected = [two_sided_jump_count(path, lam) for path in flat]
            assert counts[i].ravel().tolist() == expected

    def test_jump_functional_below_variation(self):
        # lam * N(lam)^(1/rho) collects disjoint increments above lam, so the
        # rho-variation dominates it
        grid = TimeGrid.geometric(1e-2, 50.0, 48)
        f = np.zeros(24)
        f[0] = 1.0
        rho = 2.5
        paths = heat_paths(LEGENDRE, f, grid, 24)[[0, 2, 5]]
        v = variation_batch(paths, rho)
        for lam in (1e-4, 1e-3, 1e-2):
            assert np.all(lam * jump_count_batch(paths, lam) ** (1.0 / rho) <= v + 1e-12)


class TestHeatPaths:
    def test_matches_per_time_application(self):
        grid = TimeGrid.geometric(1e-2, 10.0, 12)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(20)
        expected = [apply_heat(LEGENDRE, t, f, 20)[6] for t in grid.times]
        assert_allclose(heat_paths(LEGENDRE, f, grid, 20)[6], expected,
                        rtol=1e-12, atol=1e-14)


class TestDifferenceSums:
    def test_matches_kernel_route(self):
        lac = LacunarySequence.geometric(2.0, -4, 5)
        bcoef = np.ones(lac.values.size - 1)
        size = 16
        rng = np.random.default_rng(9)
        f = rng.standard_normal(size)
        dense = qn_kernel_matrix(LEGENDRE, -2, 2, lac, bcoef, size)
        for n in (0, 3, 11):
            direct = sum(bcoef[j - lac.j_min]
                         * (apply_heat(LEGENDRE, lac.value(j + 1), f, size)[n]
                            - apply_heat(LEGENDRE, lac.value(j), f, size)[n])
                         for j in range(-2, 3))
            assert_allclose(direct, dense[n] @ f, rtol=1e-10, atol=1e-14)

    def test_unit_coefficients_telescope(self):
        lac = LacunarySequence.geometric(2.0, -4, 5)
        size = 12
        dense = qn_kernel_matrix(LEGENDRE, -2, 2, lac, np.ones(9), size)
        hi = kernel_tensor(LEGENDRE, [lac.value(3)], size)[0]
        lo = kernel_tensor(LEGENDRE, [lac.value(-2)], size)[0]
        assert_allclose(dense, hi - lo, atol=1e-13)

    def test_scalar_kernel_matches_dense(self):
        lac = LacunarySequence.geometric(2.0, -3, 4)
        bcoef = np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_max)])
        dense = qn_kernel_matrix(LEGENDRE, -1, 1, lac, bcoef, 8)
        rule = golub_welsch(LEGENDRE, 64)
        got = sum(bcoef[j - lac.j_min] * (kernel_entry(LEGENDRE, lac.value(j + 1), 5, 2, rule)
                                          - kernel_entry(LEGENDRE, lac.value(j), 5, 2, rule))
                  for j in range(-1, 2))
        assert_allclose(got, dense[5, 2], rtol=1e-12, atol=1e-15)

    def test_short_bcoef_rejected(self):
        lac = LacunarySequence.geometric(2.0, -2, 3)
        with pytest.raises(ValueError, match="cover"):
            _resolve_bcoef(np.ones(3), lac)


class TestSStar:
    def _setup(self, m_range=3, size=16):
        lac = LacunarySequence.geometric(2.0, -m_range - 1, m_range + 2)
        bcoef = np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_max)])
        rng = np.random.default_rng(21)
        f = rng.standard_normal(size)
        return lac, bcoef, f

    def test_matches_window_enumeration(self):
        m_range, size, n = 3, 16, 4
        lac, bcoef, f = self._setup(m_range, size)
        got = s_star(LEGENDRE, m_range, lac, bcoef, f, n, size)
        vals = np.array([apply_heat(LEGENDRE, lac.value(j), f, size)[n]
                         for j in range(-m_range, m_range + 2)])
        b = bcoef[np.arange(-m_range, m_range + 1) - lac.j_min]
        steps = b * np.diff(vals)
        best = 0.0
        for n1 in range(-m_range, m_range + 1):
            for n2 in range(n1, m_range + 1):
                seg = abs(steps[n1 + m_range: n2 + m_range + 1].sum())
                best = max(best, seg)
        assert_allclose(got, best, rtol=1e-10, atol=1e-15)

    def test_full_split_triangle(self):
        m_range, size = 3, 16
        lac, bcoef, f = self._setup(m_range, size)
        for n in (2, 6, 10):
            full = s_star(LEGENDRE, m_range, lac, bcoef, f, n, size, "full")
            local = s_star(LEGENDRE, m_range, lac, bcoef, f, n, size, "local")
            glob = s_star(LEGENDRE, m_range, lac, bcoef, f, n, size, "global")
            assert full <= local + glob + 1e-12


class TestHardyAndMaximal:
    def test_hl_delta_value(self):
        f = np.zeros(12)
        f[0] = 1.0
        assert_allclose(hl_maximal_all(f), 1.0 / (2 * np.arange(12) + 1))

    def test_hl_all_matches_loop(self):
        # balls [max(n - d, 0), n + d] count every lattice point, support or not
        rng = np.random.default_rng(17)
        f = rng.standard_normal(15)
        allv = hl_maximal_all(f)
        for n in range(15):
            best = max(np.abs(f[max(n - d, 0):n + d + 1]).sum() / (n + d + 1 - max(n - d, 0))
                       for d in range(30))
            assert_allclose(allv[n], best)

    def test_hl_dominates_pointwise(self):
        rng = np.random.default_rng(23)
        f = rng.standard_normal(20)
        assert np.all(hl_maximal_all(f) >= np.abs(f) - 1e-15)

    def test_hl_q_power_mean(self):
        rng = np.random.default_rng(29)
        f = rng.standard_normal(16)
        assert np.all(hl_maximal_all(f ** 2) ** 0.5 >= hl_maximal_all(f) - 1e-12)
