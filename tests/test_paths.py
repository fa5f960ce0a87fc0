"""Tests for path functionals: variation, oscillation, jumps, and maximal sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jhl.basis import JacobiParams
from jhl.paths import (
    BandSequence,
    DifferenceWindow,
    LacunarySequence,
    SampledPath,
    TimeGrid,
    brute_jump_count,
    brute_variation,
    default_bands,
    default_time_grid,
    hardy_lower,
    hardy_upper,
    heat_path,
    hl_maximal,
    hl_maximal_all,
    hl_maximal_q,
    jump_count,
    jump_count_batch,
    jump_functional,
    oscillation,
    oscillation_batch,
    qn_kernel_matrix,
    rho_variation,
    s_star,
    variation_batch,
)
from jhl.quadrature import build_rule
from jhl.semigroup import apply_heat, kernel_entry, kernel_matrix

LEGENDRE = JacobiParams(0.0, 0.0)


def _path(values, times=None):
    v = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(1.0, v.size + 1.0)
    return SampledPath(grid=TimeGrid(np.asarray(times, dtype=float)), values=v)


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
        grid = default_time_grid()
        assert len(grid) == 96
        assert_allclose([grid.times[0], grid.times[-1]], [1e-3, 1e2])

    def test_sampled_path_alignment(self):
        grid = TimeGrid(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="align"):
            SampledPath(grid=grid, values=np.zeros(3))

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
            LacunarySequence(j_min=0, values=np.array([1.0, 8.0]), ratio=2.0,
                             pinned=True)
        # the same spread is fine when not pinned
        LacunarySequence(j_min=0, values=np.array([1.0, 8.0]), ratio=2.0)

    def test_lacunary_geometric_and_lookup(self):
        lac = LacunarySequence.geometric(2.0, -3, 4)
        assert lac.j_max == 4
        assert_allclose(lac.value(-3), 0.125)
        assert_allclose(lac.value(4), 16.0)
        with pytest.raises(ValueError, match="outside"):
            lac.value(5)

    def test_difference_window_order(self):
        with pytest.raises(ValueError, match="n1 < n2"):
            DifferenceWindow(3, 3)


class TestVariation:
    def test_hand_values(self):
        # skipping the middle point wins for rho = 3: 3 > (1 + 8)^(1/3)
        assert_allclose(rho_variation(_path([0.0, 1.0, 3.0]), 3.0), 3.0)
        # returning to the start leaves sqrt(1 + 1)
        assert_allclose(rho_variation(_path([0.0, 1.0, 0.0]), 2.0), np.sqrt(2.0))
        # monotone path: one long increment beats any split
        assert_allclose(rho_variation(_path([0.0, 1.0, 2.0, 5.0]), 2.0), 5.0)

    def test_rejects_rho_at_most_one(self):
        with pytest.raises(ValueError, match="rho"):
            rho_variation(_path([0.0, 1.0]), 1.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 9))
        batch = variation_batch(values, 2.5)
        for i in range(5):
            assert_allclose(batch[i], rho_variation(_path(values[i]), 2.5))

    def test_brute_cap(self):
        with pytest.raises(ValueError, match="capped"):
            brute_variation(_path(np.zeros(17)), 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=9),
        st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_dynamic_program_matches_brute_force(self, values, rho):
        path = _path(values)
        assert_allclose(rho_variation(path, rho), brute_variation(path, rho),
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
        path = _path([0.0, 2.0, 1.0, 5.0], times=[1.0, 2.0, 3.0, 4.0])
        bands = BandSequence(np.array([4.0, 2.0, 1.0]))
        assert_allclose(oscillation(path, bands), np.hypot(2.0, 4.0))

    def test_band_with_single_point_contributes_zero(self):
        path = _path([3.0, 7.0], times=[1.0, 4.0])
        bands = BandSequence(np.array([4.0, 2.0, 1.0]))
        assert_allclose(oscillation(path, bands), 0.0)

    def test_edges_must_stay_in_span(self):
        path = _path([0.0, 1.0], times=[1.0, 2.0])
        with pytest.raises(ValueError, match="span"):
            oscillation(path, BandSequence(np.array([8.0, 4.0])))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        times = np.linspace(1.0, 16.0, 12)
        values = rng.standard_normal((4, 12))
        bands = BandSequence(np.array([16.0, 8.0, 4.0, 2.0, 1.0]))
        batch = oscillation_batch(times, values, bands)
        for i in range(4):
            path = SampledPath(grid=TimeGrid(times), values=values[i])
            assert_allclose(batch[i], oscillation(path, bands))

    def test_dominated_by_two_variation(self):
        grid = TimeGrid.geometric(1e-2, 50.0, 40)
        bands = default_bands(grid)
        f = np.zeros(32)
        f[3] = 1.0
        for n in (0, 3, 7):
            path = heat_path(LEGENDRE, f, n, grid, 32)
            assert oscillation(path, bands) <= rho_variation(path, 2.0) + 1e-12


class TestJumpCounts:
    def test_hand_values(self):
        path = _path([0.0, 2.0, 0.0, 2.0, 0.0])
        assert jump_count(path, 1.5) == 4
        assert jump_count(path, 2.5) == 0
        assert jump_count(_path([0.0, 0.5, 1.1]), 1.0) == 1

    def test_rejects_bad_lam(self):
        with pytest.raises(ValueError, match="lam"):
            jump_count(_path([0.0, 1.0]), 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((6, 14))
        batch = jump_count_batch(values, 0.7)
        for i in range(6):
            assert batch[i] == jump_count(_path(values[i]), 0.7)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=10))
    def test_greedy_matches_exhaustive_pairing(self, values):
        path = _path(values)
        assert jump_count(path, 1.5) == brute_jump_count(path, 1.5)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=8),
           st.sampled_from([0.5, 1.5, 2.5]))
    def test_greedy_matches_exhaustive_integer_paths(self, values, lam):
        path = _path([float(v) for v in values])
        assert jump_count(path, lam) == brute_jump_count(path, lam)

    def test_jump_functional_below_variation(self):
        # lam * N(lam)^(1/rho) collects disjoint increments above lam, so the
        # rho-variation dominates it
        grid = TimeGrid.geometric(1e-2, 50.0, 48)
        f = np.zeros(24)
        f[0] = 1.0
        rho = 2.5
        for n in (0, 2, 5):
            path = heat_path(LEGENDRE, f, n, grid, 24)
            v = rho_variation(path, rho)
            for lam in (1e-4, 1e-3, 1e-2):
                assert jump_functional(path, lam, rho) <= v + 1e-12


class TestHeatPaths:
    def test_matches_per_time_application(self):
        grid = TimeGrid.geometric(1e-2, 10.0, 12)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(20)
        path = heat_path(LEGENDRE, f, 6, grid, 20)
        expected = [apply_heat(LEGENDRE, t, f, 20)[6] for t in grid.times]
        assert_allclose(path.values, expected, rtol=1e-12, atol=1e-14)

    def test_index_range_checked(self):
        grid = TimeGrid.geometric(0.1, 1.0, 4)
        with pytest.raises(ValueError, match="range"):
            heat_path(LEGENDRE, np.zeros(8), 8, grid, 8)


class TestDifferenceSums:
    def test_matches_kernel_route(self):
        lac = LacunarySequence.geometric(2.0, -4, 5)
        window = DifferenceWindow(-2, 2)
        bcoef = np.ones(lac.values.size - 1)
        size = 16
        rng = np.random.default_rng(9)
        f = rng.standard_normal(size)
        dense = qn_kernel_matrix(LEGENDRE, window, lac, bcoef, size)
        for n in (0, 3, 11):
            direct = sum(bcoef[j - lac.j_min]
                         * (apply_heat(LEGENDRE, lac.value(j + 1), f, size)[n]
                            - apply_heat(LEGENDRE, lac.value(j), f, size)[n])
                         for j in range(window.n1, window.n2 + 1))
            assert_allclose(direct, dense[n] @ f, rtol=1e-10, atol=1e-14)

    def test_unit_coefficients_telescope(self):
        lac = LacunarySequence.geometric(2.0, -4, 5)
        window = DifferenceWindow(-2, 2)
        size = 12
        dense = qn_kernel_matrix(LEGENDRE, window, lac, np.ones(9), size)
        hi = kernel_matrix(LEGENDRE, lac.value(3), size).entries
        lo = kernel_matrix(LEGENDRE, lac.value(-2), size).entries
        assert_allclose(dense, hi - lo, atol=1e-13)

    def test_scalar_kernel_matches_dense(self):
        lac = LacunarySequence.geometric(2.0, -3, 4)
        window = DifferenceWindow(-1, 1)
        bcoef = np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_max)])
        dense = qn_kernel_matrix(LEGENDRE, window, lac, bcoef, 8)
        rule = build_rule(LEGENDRE, 64)
        got = sum(bcoef[j - lac.j_min] * (kernel_entry(LEGENDRE, lac.value(j + 1), 5, 2, rule)
                                          - kernel_entry(LEGENDRE, lac.value(j), 5, 2, rule))
                  for j in range(window.n1, window.n2 + 1))
        assert_allclose(got, dense[5, 2], rtol=1e-12, atol=1e-15)

    def test_callable_coefficients(self):
        lac = LacunarySequence.geometric(2.0, -3, 4)
        window = DifferenceWindow(-1, 1)
        arr = np.array([(-1.0) ** j for j in range(lac.j_min, lac.j_max)])
        a = qn_kernel_matrix(LEGENDRE, window, lac, lambda j: (-1.0) ** j, 6)
        b = qn_kernel_matrix(LEGENDRE, window, lac, arr, 6)
        assert np.array_equal(a, b)

    def test_window_must_fit_sequence(self):
        lac = LacunarySequence.geometric(2.0, -2, 3)
        with pytest.raises(ValueError, match="index range"):
            qn_kernel_matrix(LEGENDRE, DifferenceWindow(-3, 1), lac, np.ones(5), 2)
        with pytest.raises(ValueError, match="index range"):
            qn_kernel_matrix(LEGENDRE, DifferenceWindow(0, 3), lac, np.ones(5), 2)

    def test_short_bcoef_rejected(self):
        lac = LacunarySequence.geometric(2.0, -2, 3)
        with pytest.raises(ValueError, match="cover"):
            qn_kernel_matrix(LEGENDRE, DifferenceWindow(-1, 1), lac, np.ones(3), 2)


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

    def test_validation(self):
        lac, bcoef, f = self._setup()
        with pytest.raises(ValueError, match="positive"):
            s_star(LEGENDRE, 0, lac, bcoef, f, 1, 16)
        with pytest.raises(ValueError, match="variant"):
            s_star(LEGENDRE, 3, lac, bcoef, f, 1, 16, "sideways")
        short = LacunarySequence.geometric(2.0, -1, 2)
        with pytest.raises(ValueError, match="cover"):
            s_star(LEGENDRE, 3, short, np.ones(3), f, 1, 16)


class TestHardyAndMaximal:
    def test_hardy_upper_delta(self):
        f = np.zeros(10)
        f[0] = 1.0
        for n in range(1, 10):
            assert_allclose(hardy_upper(f, n), 1.0 / n)
        with pytest.raises(ValueError, match="n >= 1"):
            hardy_upper(f, 0)

    def test_hardy_lower_delta(self):
        f = np.zeros(10)
        f[5] = 1.0
        assert_allclose(hardy_lower(f, 3), 0.2)
        assert hardy_lower(f, 5) == 0.0
        assert hardy_lower(f, 9) == 0.0

    def test_hl_delta_value(self):
        f = np.zeros(12)
        f[0] = 1.0
        for n in range(12):
            assert_allclose(hl_maximal(f, n), 1.0 / (2 * n + 1))

    def test_hl_all_matches_loop(self):
        rng = np.random.default_rng(17)
        f = rng.standard_normal(15)
        allv = hl_maximal_all(f)
        for n in range(15):
            assert_allclose(allv[n], hl_maximal(f, n))

    def test_hl_dominates_pointwise(self):
        rng = np.random.default_rng(23)
        f = rng.standard_normal(20)
        assert np.all(hl_maximal_all(f) >= np.abs(f) - 1e-15)

    def test_hl_q_power_mean(self):
        rng = np.random.default_rng(29)
        f = rng.standard_normal(16)
        for n in (0, 4, 9):
            assert_allclose(hl_maximal_q(f, n, 1.0), hl_maximal(f, n))
            assert hl_maximal_q(f, n, 2.0) >= hl_maximal(f, n) - 1e-12
        with pytest.raises(ValueError, match="q"):
            hl_maximal_q(f, 0, 0.5)
