"""Quantizer binning, threshold searches, the threshold profile against a
brute-force scan, the exhaustive oracle, and the circular-spread bound on
optimal residuals."""

import math
import time

import numpy as np
import pytest
from conftest import brute_force_search, random_scenario, uniform_levels
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risbeam import (
    LinkState,
    Placement,
    RisPanel,
    ShiftMatrix,
    dtpq,
    eipq,
    exhaustive_search,
    fixed_threshold,
    link_state,
    quantize_matrix,
    residual_spread,
    ris_2p6ghz,
)
from risbeam.quantization import (
    EIPQ_GUARD_CANDIDATES,
    EXHAUSTIVE_GUARD_BITS,
    _bin_indices,
    _profile_xi,
)

TWO_PI = 2.0 * math.pi


def one_bit_panel(levels=(0.0, math.pi)):
    return RisPanel(rows=1, cols=2, d_x=0.1, d_y=0.1, bits=1, levels=levels)


class TestQuantizeMatrix:
    def test_one_bit_zero_threshold(self):
        panel = one_bit_panel()
        phases = np.array([[0.1, 3.2]])
        shifts = quantize_matrix(phases, 0.0, panel)
        assert shifts.values[0, 0] == 0.0
        assert shifts.values[0, 1] == math.pi

    def test_one_bit_wrapping_threshold(self):
        panel = one_bit_panel()
        phases = np.array([[0.1, 0.1]])
        shifts = quantize_matrix(phases, 3 * math.pi / 2, panel)
        # 0.1 rad sits in [3*pi/2, 3*pi/2 + pi) after wrapping upward
        assert shifts.values[0, 0] == 0.0

    def test_two_bit_binning(self):
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=2,
                         levels=tuple(math.radians(v) for v in (0, 90, 180, 270)))
        phases = np.array([[math.radians(135)]])
        shifts = quantize_matrix(phases, math.radians(45), panel)
        assert shifts.values[0, 0] == pytest.approx(math.radians(90), rel=1e-12)

    def test_phase_equal_to_threshold_maps_to_first_bin(self):
        panel = one_bit_panel(levels=(math.radians(55), math.radians(235)))
        gamma = 1.234
        phases = np.array([[gamma, gamma]])
        shifts = quantize_matrix(phases, gamma, panel)
        assert np.all(shifts.level_indices == 0)

    def test_total_function(self):
        rng = np.random.default_rng(3)
        panel = RisPanel(rows=5, cols=7, d_x=0.1, d_y=0.1, bits=3,
                         levels=uniform_levels(3, 0.3))
        phases = rng.uniform(0.0, TWO_PI, size=(5, 7))
        for gamma in rng.uniform(0.0, TWO_PI, size=10):
            shifts = quantize_matrix(phases, gamma, panel)
            assert shifts.level_indices.min() >= 0
            assert shifts.level_indices.max() < panel.num_levels

    def test_rejects_out_of_range_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            quantize_matrix(np.zeros((1, 2)), TWO_PI, one_bit_panel())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 3),
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.lists(st.floats(-2 * TWO_PI, 2 * TWO_PI, exclude_max=True), min_size=1, max_size=64),
    )
    def test_any_finite_phase_bins_as_its_reduction(self, bits, gamma, values):
        # binning is cyclic, so phases outside [0, 2*pi) need no range check;
        # cells within 1e-9 rad of a bin edge gamma + p*Omega are left out,
        # where the reduction itself may round across the edge
        omega = TWO_PI / 2**bits
        offset = np.mod(np.array(values) - gamma, omega)
        phases = np.array(values)[np.minimum(offset, omega - offset) > 1e-9]
        assume(phases.size > 0)
        panel = RisPanel(rows=1, cols=phases.size, d_x=0.1, d_y=0.1, bits=bits,
                         levels=uniform_levels(bits, 0.3))
        shifts = quantize_matrix(phases.reshape(1, -1), gamma, panel)
        reduced = quantize_matrix(np.mod(phases, TWO_PI).reshape(1, -1), gamma, panel)
        assert np.array_equal(shifts.level_indices, reduced.level_indices)


class TestResidualSpread:
    def test_zero_when_shifts_equal_phases(self):
        panel = one_bit_panel()
        phases = np.array([[0.0, math.pi]])
        shifts = quantize_matrix(phases, 0.0, panel)
        assert np.all(shifts.values == phases)
        assert residual_spread(phases, shifts) == 0.0

    def test_two_point_arc(self):
        panel = one_bit_panel()
        omega = panel.omega
        phases = np.array([[0.0, omega / 2]])
        shifts = ShiftMatrix(level_indices=np.array([[0, 0]]), levels=panel.levels)
        assert residual_spread(phases, shifts) == pytest.approx(omega / 2, rel=1e-12)

    def test_single_cell(self):
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi))
        phases = np.array([[2.5]])
        shifts = quantize_matrix(phases, 0.0, panel)
        assert residual_spread(phases, shifts) == 0.0

    def test_wraparound_cluster(self):
        # residuals straddling 0 form a small arc, not a nearly-full circle
        panel = one_bit_panel()
        phases = np.array([[TWO_PI - 0.1, 0.1]])
        shifts = ShiftMatrix(level_indices=np.array([[0, 0]]), levels=panel.levels)
        assert residual_spread(phases, shifts) == pytest.approx(0.2, rel=1e-9)

    def test_dimension_mismatch(self):
        panel = one_bit_panel()
        phases = np.zeros((1, 3))
        shifts = ShiftMatrix(level_indices=np.zeros((1, 2), dtype=int), levels=panel.levels)
        with pytest.raises(ValueError, match="shape"):
            residual_spread(phases, shifts)

    def test_optimal_shifts_stay_within_one_interval(self):
        rng = np.random.default_rng(17)
        for i in range(30):
            bits = 1 + (i % 3)
            sc = random_scenario(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), bits)
            state = link_state(sc)
            result = dtpq(sc, state)
            spread = residual_spread(state.phase, result.shifts)
            assert spread <= sc.panel.omega + 1e-9


class TestDtpq:
    def test_candidate_count_is_cell_count(self):
        sc = ris_2p6ghz()
        result = dtpq(sc)
        assert result.candidates_evaluated == sc.panel.num_cells

    def test_result_is_self_consistent(self):
        sc = ris_2p6ghz()
        state = link_state(sc)
        result = dtpq(sc, state)
        assert result.xi == state.xi(result.shifts)
        assert 0.0 <= result.threshold < TWO_PI

    def test_beats_every_sampled_threshold(self):
        rng = np.random.default_rng(23)
        sc = random_scenario(rng, 4, 4, 1)
        state = link_state(sc)
        best = dtpq(sc, state)
        for gamma in rng.uniform(0.0, TWO_PI, size=200):
            shifts = quantize_matrix(state.phase, gamma, sc.panel)
            assert state.xi(shifts) <= best.xi * (1 + 1e-12)

    def test_far_field_threshold_insensitivity(self):
        # with both terminals at 1e5 wavelengths the continuous phases
        # cluster, and every whole-degree threshold matches the optimum
        lam = 0.1153
        panel = RisPanel(rows=32, cols=16, d_x=lam / 2, d_y=lam / 2, bits=1,
                         levels=(math.radians(55), math.radians(235)))
        placement = Placement(d1=1e5 * lam, d2=1e5 * lam, theta_t=math.pi / 4,
                              phi_t=0.0, theta_r=math.pi / 4, phi_r=math.pi)
        sc = ris_2p6ghz()
        sc = type(sc)(panel=panel, placement=placement, radio=sc.radio)
        state = link_state(sc)
        best = dtpq(sc, state)
        for gamma_deg in range(0, 360):
            fixed = fixed_threshold(sc, math.radians(gamma_deg), state)
            assert abs(fixed.xi - best.xi) <= 1e-6 * best.xi

    def test_matches_exhaustive_on_small_panels(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            sc = random_scenario(rng, 2, 2, 1)
            state = link_state(sc)
            assert dtpq(sc, state).xi == pytest.approx(
                exhaustive_search(sc, state).xi, rel=1e-12
            )


class TestEipq:
    def test_candidate_count_one_bit(self):
        assert eipq(ris_2p6ghz(), math.radians(5)).candidates_evaluated == 36

    def test_candidate_count_two_bit(self):
        sc = ris_2p6ghz().with_panel(bits=2, levels=uniform_levels(2, 0.0))
        assert eipq(sc, math.radians(45)).candidates_evaluated == 2

    def test_degenerate_grid_equals_fixed_zero(self):
        sc = ris_2p6ghz()
        state = link_state(sc)
        epsilon = math.nextafter(sc.panel.omega, 0.0)
        result = eipq(sc, epsilon, state)
        assert result.candidates_evaluated == 1
        assert result.xi == fixed_threshold(sc, 0.0, state).xi

    def test_epsilon_out_of_range(self):
        sc = ris_2p6ghz()
        with pytest.raises(ValueError, match="epsilon"):
            eipq(sc, sc.panel.omega)
        with pytest.raises(ValueError, match="epsilon"):
            eipq(sc, 0.0)

    def test_never_beats_dtpq(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sc = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 1)
            state = link_state(sc)
            assert eipq(sc, math.radians(5), state).xi <= dtpq(sc, state).xi * (1 + 1e-12)

    def test_guard_refuses_huge_grids(self):
        sc = ris_2p6ghz()
        epsilon = sc.panel.omega / (EIPQ_GUARD_CANDIDATES + 1)
        with pytest.raises(ValueError, match=f"{EIPQ_GUARD_CANDIDATES + 1} candidates"):
            eipq(sc, epsilon)

    def test_grid_counts_match_result(self):
        sc = ris_2p6ghz()
        result = eipq(sc, math.radians(5))
        assert result.candidates_evaluated == 36


class TestFixedThreshold:
    def test_single_candidate(self):
        sc = ris_2p6ghz()
        result = fixed_threshold(sc, math.radians(235))
        assert result.candidates_evaluated == 1
        assert result.threshold == pytest.approx(math.radians(235), rel=1e-12)

    def test_interval_periodicity(self):
        rng = np.random.default_rng(37)
        for i in range(20):
            bits = 1 + (i % 2)
            sc = random_scenario(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), bits)
            state = link_state(sc)
            omega = sc.panel.omega
            gamma = rng.uniform(0.0, TWO_PI - omega)
            a = fixed_threshold(sc, gamma, state).xi
            b = fixed_threshold(sc, gamma + omega, state).xi
            assert b == pytest.approx(a, rel=1e-9)

    def test_never_beats_dtpq(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            sc = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 2)
            state = link_state(sc)
            gamma = rng.uniform(0.0, TWO_PI)
            assert fixed_threshold(sc, gamma, state).xi <= dtpq(sc, state).xi * (1 + 1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="threshold"):
            fixed_threshold(ris_2p6ghz(), -0.1)


class TestExhaustiveSearch:
    def test_single_cell_tie_breaks_to_first_level(self):
        rng = np.random.default_rng(43)
        sc = random_scenario(rng, 1, 1, 1)
        result = exhaustive_search(sc)
        assert result.threshold is None
        assert result.candidates_evaluated == 2
        assert result.shifts.level_indices[0, 0] == 0

    def test_two_bit_four_cells_matches_dtpq(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            sc = random_scenario(rng, 2, 2, 2)   # 65536 assignments
            state = link_state(sc)
            assert exhaustive_search(sc, state).xi == pytest.approx(
                dtpq(sc, state).xi, rel=1e-12
            )

    def test_guard_refuses_large_panels(self):
        sc = ris_2p6ghz()   # 512 cells, far beyond the guard
        with pytest.raises(ValueError, match=str(EXHAUSTIVE_GUARD_BITS)):
            exhaustive_search(sc)

    def test_optimality_chain(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            sc = random_scenario(rng, 3, 2, 1)
            state = link_state(sc)
            exh = exhaustive_search(sc, state).xi
            dt = dtpq(sc, state).xi
            ei = eipq(sc, math.radians(10), state).xi
            fx = fixed_threshold(sc, 0.0, state).xi
            assert exh == pytest.approx(dt, rel=1e-12)
            assert dt >= ei * (1 - 1e-12)
            assert ei >= fx * (1 - 1e-12)


class TestInvariances:
    def test_level_offset_leaves_optimum_unchanged(self):
        rng = np.random.default_rng(59)
        delta = math.radians(55)
        for _ in range(10):
            sc = random_scenario(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
            base = dtpq(sc, link_state(sc))
            shifted = sc.with_panel(
                levels=tuple((v + delta) % TWO_PI for v in sc.panel.levels)
            )
            moved = dtpq(shifted, link_state(shifted))
            assert moved.xi == pytest.approx(base.xi, rel=1e-9)
            assert np.array_equal(moved.shifts.level_indices, base.shifts.level_indices)

    def test_threshold_sweep_outcome_count(self):
        # sweeping the threshold across a full turn yields exactly as many
        # distinct cell partitions as there are distinct phases mod omega
        rng = np.random.default_rng(61)
        for bits in (1, 2):
            sc = random_scenario(rng, 2, 2, bits)
            state = link_state(sc)
            omega = sc.panel.omega
            num_levels = sc.panel.num_levels
            phases = state.phase.ravel()
            distinct_mods = np.unique(np.round(np.mod(phases, omega), 12)).size

            gammas = np.arange(0.0, TWO_PI, omega / 1e4)
            offsets = np.mod(phases[None, :] - gammas[:, None], TWO_PI)
            bins = np.floor(offsets / omega).astype(np.intp) % num_levels
            normalized = (bins - bins[:, :1]) % num_levels
            partitions = {tuple(row) for row in normalized}
            assert len(partitions) == distinct_mods
            assert distinct_mods <= sc.panel.num_cells

    def test_complexity_smoke(self):
        sc = ris_2p6ghz()
        assert dtpq(sc).candidates_evaluated == 512
        assert eipq(sc, math.radians(5)).candidates_evaluated == 36
        assert fixed_threshold(sc, 0.0).candidates_evaluated == 1

    def test_dtpq_scales_to_twenty_thousand_cells(self):
        # an O((MN)^2) scan takes tens of seconds here; the profile, milliseconds
        sc = ris_2p6ghz().with_panel(rows=200, cols=100)
        state = link_state(sc)
        start = time.perf_counter()
        result = dtpq(sc, state)
        elapsed = time.perf_counter() - start
        assert result.candidates_evaluated == 20000
        half = sc.panel.omega / 2.0
        upper = state.xi_upper_bound
        assert math.sin(half) / half * upper <= result.xi <= upper
        assert elapsed < 2.0


class TestShiftMatrixType:
    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="indices"):
            ShiftMatrix(level_indices=np.array([[2]]), levels=(0.0, math.pi))

    def test_values_are_levels(self):
        shifts = ShiftMatrix(level_indices=np.array([[0, 1, 0]]),
                             levels=(math.radians(55), math.radians(235)))
        np.testing.assert_allclose(
            shifts.values, [[math.radians(55), math.radians(235), math.radians(55)]]
        )


def eipq_grid(bits: int, epsilon: float) -> np.ndarray:
    return epsilon * np.arange(int(math.floor(TWO_PI / (2**bits * epsilon))), dtype=float)


@st.composite
def adversarial_links(draw):
    """A 1- to 3-bit link of up to 16 cells, with an eipq step.

    Each phase is drawn at random, or is 0, a duplicate of an earlier
    phase, an exact multiple of Omega away from one, or a point of the
    eipq grid (plus a multiple of Omega).
    """
    bits = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    omega = TWO_PI / 2**bits
    epsilon = draw(st.sampled_from([math.radians(5.0), math.radians(1.0), omega / 3, omega / 7]))
    grid = eipq_grid(bits, epsilon)
    phases: list[float] = []
    for _ in range(rows * cols):
        kind = draw(st.sampled_from(("random", "zero", "duplicate", "omega-apart", "grid")))
        if kind == "zero":
            phase = 0.0
        elif kind == "grid":
            phase = float(draw(st.sampled_from(grid))) + draw(st.integers(0, 2**bits - 1)) * omega
        elif kind in ("duplicate", "omega-apart") and phases:
            phase = draw(st.sampled_from(phases))
            if kind == "omega-apart":
                phase += draw(st.integers(1, 2**bits - 1)) * omega
        else:
            phase = draw(st.floats(0.0, TWO_PI, exclude_max=True))
        phases.append(phase % TWO_PI)
    amplitude = draw(
        st.lists(st.one_of(st.just(1.0), st.floats(0.01, 10.0)),
                 min_size=rows * cols, max_size=rows * cols)
    )
    first_level = draw(st.one_of(st.just(0.0), st.floats(0.0, omega, exclude_max=True)))
    sc = ris_2p6ghz().with_panel(
        rows=rows, cols=cols, bits=bits, levels=uniform_levels(bits, first_level)
    )
    shape = (rows, cols)
    state = LinkState(sc, np.reshape(amplitude, shape), np.reshape(phases, shape))
    return state, epsilon, grid


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestThresholdProfile:
    """dtpq and eipq against the brute-force scan, bit for bit."""

    @staticmethod
    def assert_matches_scan(result, expected):
        threshold, level_indices, xi = expected
        assert result.threshold == threshold
        assert np.array_equal(result.shifts.level_indices, level_indices)
        assert result.xi == xi

    @PROPERTY_SETTINGS
    @given(adversarial_links())
    def test_dtpq_matches_scan(self, link):
        state, _, _ = link
        expected = brute_force_search(state, state.phase.ravel())
        self.assert_matches_scan(dtpq(state.scenario, state), expected)

    @PROPERTY_SETTINGS
    @given(adversarial_links())
    def test_eipq_matches_scan(self, link):
        state, epsilon, grid = link
        result = eipq(state.scenario, epsilon, state)
        assert result.candidates_evaluated == grid.size
        self.assert_matches_scan(result, brute_force_search(state, grid))

    def test_single_cell_panels(self):
        for bits in (1, 2, 3):
            sc = ris_2p6ghz().with_panel(rows=1, cols=1, bits=bits, levels=uniform_levels(bits, 0.0))
            for phase in (0.0, 1.0, sc.panel.omega, TWO_PI - 1e-9):
                state = LinkState(sc, np.array([[2.0]]), np.array([[phase]]))
                self.assert_matches_scan(dtpq(sc, state), brute_force_search(state, [phase]))
                result = eipq(sc, math.radians(1.0), state)
                grid = eipq_grid(bits, math.radians(1.0))
                assert result.candidates_evaluated == grid.size
                self.assert_matches_scan(result, brute_force_search(state, grid))

    def test_bin_indices_match_textbook_rule(self):
        rng = np.random.default_rng(67)
        for bits in (1, 2, 3):
            omega = TWO_PI / 2**bits
            phases = rng.uniform(0.0, TWO_PI, 200_000)
            gammas = rng.uniform(0.0, TWO_PI, 200_000)
            textbook = np.floor(np.mod(phases - gammas, TWO_PI) / omega).astype(np.intp) % 2**bits
            assert np.array_equal(_bin_indices(phases, gammas, bits), textbook)

    def test_profile_is_omega_periodic_and_exact(self):
        rng = np.random.default_rng(71)
        for i in range(30):
            bits = 1 + (i % 3)
            sc = random_scenario(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), bits)
            state = link_state(sc)
            omega = sc.panel.omega
            gammas = rng.uniform(0.0, TWO_PI - omega, 50)
            profile = _profile_xi(state, gammas)
            assert np.array_equal(_profile_xi(state, gammas + omega), profile)
            exact = [state.xi(quantize_matrix(state.phase, g, sc.panel)) for g in gammas]
            np.testing.assert_allclose(profile, exact, rtol=1e-12)


class TestLossFloor:
    """dtpq keeps at least sinc(Omega/2) of the continuous design's xi.

    At any threshold every residual phase lies in one arc of width Omega;
    over a uniform threshold each residual is uniform on that arc, so the
    mean xi is at least sinc(Omega/2) times the continuous bound, and dtpq
    is optimal over all thresholds.
    """

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12), st.integers(1, 3))
    def test_dtpq_between_sinc_floor_and_continuous_bound(self, seed, rows, cols, bits):
        sc = random_scenario(np.random.default_rng(seed), rows, cols, bits)
        state = link_state(sc)
        xi, upper = dtpq(sc, state).xi, state.xi_upper_bound
        half = sc.panel.omega / 2.0
        # products, not ratios, so that a panel wholly in the pattern
        # cutoff (upper == xi == 0) passes
        assert math.sin(half) * upper * (1.0 - 1e-12) <= half * xi
        assert xi <= upper * (1.0 + 1e-12)
