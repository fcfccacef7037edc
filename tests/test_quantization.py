"""Quantizer binning, threshold searches, the threshold profile against a
brute-force scan, dtpq against the exhaustive optimum and a size-free
optimality certificate, and the circular-spread bound on optimal residuals."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    brute_force_search,
    dof_law,
    exhaustive_xi,
    random_scenario,
    residual_spread,
    uniform_levels,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from risbeam import (
    LinkState,
    Placement,
    RisPanel,
    dtpq,
    eipq,
    fixed_threshold,
    link_state,
    quantize_matrix,
    ris_2p6ghz,
    ris_4p9ghz,
)
from risbeam.quantization import (
    EIPQ_GUARD_CANDIDATES,
    TIE_REL_TOL,
    _profile_xi,
)
from risbeam.scenario import ConfigError, wrap_angle

TWO_PI = 2.0 * math.pi


def one_bit_panel(levels_deg=(0.0, 180.0)):
    return RisPanel(rows=1, cols=2, cell_dx_m=0.1, cell_dy_m=0.1, bits=1, levels_deg=levels_deg)


class TestQuantizeMatrix:
    def test_one_bit_zero_threshold(self):
        panel = one_bit_panel()
        phases = np.array([[0.1, 3.2]])
        shifts = np.take(panel.levels, quantize_matrix(phases, 0.0, panel))
        assert shifts[0, 0] == 0.0
        assert shifts[0, 1] == math.pi

    def test_one_bit_wrapping_threshold(self):
        panel = one_bit_panel()
        phases = np.array([[0.1, 0.1]])
        shifts = np.take(panel.levels, quantize_matrix(phases, 3 * math.pi / 2, panel))
        # 0.1 rad sits in [3*pi/2, 3*pi/2 + pi) after wrapping upward
        assert shifts[0, 0] == 0.0

    def test_two_bit_binning(self):
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1, bits=2,
                         levels_deg=(0.0, 90.0, 180.0, 270.0))
        phases = np.array([[math.radians(135)]])
        shifts = np.take(panel.levels, quantize_matrix(phases, math.radians(45), panel))
        assert shifts[0, 0] == pytest.approx(math.radians(90), rel=1e-12)

    def test_phase_equal_to_threshold_maps_to_first_bin(self):
        panel = one_bit_panel(levels_deg=(55.0, 235.0))
        gamma = 1.234
        phases = np.array([[gamma, gamma]])
        level_indices = quantize_matrix(phases, gamma, panel)
        assert np.all(level_indices == 0)

    def test_total_function(self):
        rng = np.random.default_rng(3)
        panel = RisPanel(rows=5, cols=7, cell_dx_m=0.1, cell_dy_m=0.1, bits=3,
                         levels_deg=uniform_levels(3, 17.0))
        phases = rng.uniform(0.0, TWO_PI, size=(5, 7))
        for gamma in rng.uniform(0.0, TWO_PI, size=10):
            level_indices = quantize_matrix(phases, gamma, panel)
            assert level_indices.min() >= 0
            assert level_indices.max() < panel.num_levels

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
        panel = RisPanel(rows=1, cols=phases.size, cell_dx_m=0.1, cell_dy_m=0.1, bits=bits,
                         levels_deg=uniform_levels(bits, 17.0))
        level_indices = quantize_matrix(phases.reshape(1, -1), gamma, panel)
        reduced = quantize_matrix(np.mod(phases, TWO_PI).reshape(1, -1), gamma, panel)
        assert np.array_equal(level_indices, reduced)


class TestResidualSpread:
    def test_zero_when_shifts_equal_phases(self):
        panel = one_bit_panel()
        phases = np.array([[0.0, math.pi]])
        shifts = np.take(panel.levels, quantize_matrix(phases, 0.0, panel))
        assert np.all(shifts == phases)
        assert residual_spread(phases, shifts) == 0.0

    def test_two_point_arc(self):
        panel = one_bit_panel()
        omega = panel.omega
        phases = np.array([[0.0, omega / 2]])
        shifts = np.take(panel.levels, [[0, 0]])
        assert residual_spread(phases, shifts) == pytest.approx(omega / 2, rel=1e-12)

    def test_single_cell(self):
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1,
                         bits=1, levels_deg=(0.0, 180.0))
        phases = np.array([[2.5]])
        shifts = np.take(panel.levels, quantize_matrix(phases, 0.0, panel))
        assert residual_spread(phases, shifts) == 0.0

    def test_wraparound_cluster(self):
        # residuals straddling 0 form a small arc, not a nearly-full circle
        panel = one_bit_panel()
        phases = np.array([[TWO_PI - 0.1, 0.1]])
        shifts = np.take(panel.levels, [[0, 0]])
        assert residual_spread(phases, shifts) == pytest.approx(0.2, rel=1e-9)

    def test_dimension_mismatch(self):
        panel = one_bit_panel()
        phases = np.zeros((1, 3))
        shifts = np.take(panel.levels, np.zeros((1, 2), dtype=int))
        with pytest.raises(ValueError, match="shape"):
            residual_spread(phases, shifts)

    def test_optimal_shifts_stay_within_one_interval(self):
        rng = np.random.default_rng(17)
        for i in range(30):
            bits = 1 + (i % 3)
            sc = random_scenario(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), bits)
            state = link_state(sc)
            result = dtpq(state)
            spread = residual_spread(state.phase, result.shifts)
            assert spread <= sc.panel.omega + 1e-9


class TestDtpq:
    def test_candidate_count_is_cell_count(self):
        sc = ris_2p6ghz()
        result = dtpq(link_state(sc))
        assert result.candidates_evaluated == sc.panel.num_cells

    def test_result_is_self_consistent(self):
        sc = ris_2p6ghz()
        state = link_state(sc)
        result = dtpq(state)
        assert result.xi == state.xi(result.shifts)
        assert 0.0 <= result.threshold_deg < 360.0

    def test_beats_every_sampled_threshold(self):
        rng = np.random.default_rng(23)
        sc = random_scenario(rng, 4, 4, 1)
        state = link_state(sc)
        best = dtpq(state)
        for gamma in rng.uniform(0.0, TWO_PI, size=200):
            shifts = np.take(sc.panel.levels, quantize_matrix(state.phase, gamma, sc.panel))
            assert state.xi(shifts) <= best.xi * (1 + 1e-12)

    def test_far_field_threshold_insensitivity(self):
        # with both terminals at 1e5 wavelengths the continuous phases
        # cluster, and every whole-degree threshold matches the optimum
        lam = 0.1153
        panel = RisPanel(rows=32, cols=16, cell_dx_m=lam / 2, cell_dy_m=lam / 2, bits=1,
                         levels_deg=(55.0, 235.0))
        placement = Placement(d1_m=1e5 * lam, d2_m=1e5 * lam, theta_t_deg=45.0,
                              phi_t_deg=0.0, theta_r_deg=45.0, phi_r_deg=180.0)
        sc = ris_2p6ghz()
        sc = type(sc)(panel=panel, placement=placement, radio=sc.radio)
        state = link_state(sc)
        best = dtpq(state)
        for gamma_deg in range(0, 360):
            fixed = fixed_threshold(state, gamma_deg)
            assert abs(fixed.xi - best.xi) <= 1e-6 * best.xi

    def test_matches_exhaustive_on_small_panels(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            sc = random_scenario(rng, 2, 2, 1)
            state = link_state(sc)
            assert dtpq(state).xi == pytest.approx(exhaustive_xi(state), rel=1e-12)


class TestEipq:
    def test_candidate_count_one_bit(self):
        assert eipq(link_state(ris_2p6ghz()), 5.0).candidates_evaluated == 36

    def test_candidate_count_two_bit(self):
        sc = ris_2p6ghz().with_panel(bits=2, levels_deg=uniform_levels(2, 0.0))
        assert eipq(link_state(sc), 45.0).candidates_evaluated == 2

    def test_degenerate_grid_equals_fixed_zero(self):
        # the largest step still leaves two points, 0 and a hair below Omega:
        # one partition a level apart, so the tie goes to 0
        sc = ris_2p6ghz()
        state = link_state(sc)
        result = eipq(state, math.nextafter(180.0, 0.0))
        assert result.candidates_evaluated == 2
        assert result.threshold_deg == 0.0
        assert result.xi == fixed_threshold(state, 0.0).xi

    def test_epsilon_out_of_range(self):
        sc = ris_2p6ghz()
        with pytest.raises(ValueError, match="epsilon"):
            eipq(link_state(sc), 180.0)
        with pytest.raises(ValueError, match="epsilon"):
            eipq(link_state(sc), 0.0)

    def test_never_beats_dtpq(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sc = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 1)
            state = link_state(sc)
            assert eipq(state, 5.0).xi <= dtpq(state).xi * (1 + 1e-12)

    def test_guard_refuses_huge_grids(self):
        sc = ris_2p6ghz()
        refusal = f"more candidates than the guard of {EIPQ_GUARD_CANDIDATES}$"
        with pytest.raises(ValueError, match=refusal):
            eipq(link_state(sc), 180.0 / (EIPQ_GUARD_CANDIDATES + 1))
        # a subnormal step is counted exactly too
        with pytest.raises(ValueError, match=refusal):
            eipq(link_state(sc), 1e-320)

    def test_guard_boundary(self):
        # 180/2**20 deg gives exactly the guard's count; the float below it one more
        state = hand_built_link(1, 1, 1, [1.0], [0.5])
        step = 180.0 / EIPQ_GUARD_CANDIDATES
        assert eipq(state, step).candidates_evaluated == EIPQ_GUARD_CANDIDATES
        with pytest.raises(ValueError, match="guard"):
            eipq(state, math.nextafter(step, 0.0))

    def test_grid_counts_match_result(self):
        sc = ris_2p6ghz()
        result = eipq(link_state(sc), 5.0)
        assert result.candidates_evaluated == 36

    def test_grid_count_is_exact_in_degrees(self):
        # K = #{k >= 0 : k * epsilon < 360/2**q} in exact rationals, for the
        # floats 360/2**q/L, q = 1..3, L = 2..199; 204 of them round below the
        # true quotient, which puts one more point, L * epsilon, inside
        above = 0
        for bits in (1, 2, 3):
            state = hand_built_link(1, 1, bits, [1.0], [0.5])
            for parts in range(2, 200):
                step = 360.0 / 2**bits / parts
                count = eipq(state, step).candidates_evaluated
                assert count == eipq_count(bits, step)
                above += count == parts + 1
        assert above == 204

    @pytest.mark.parametrize("bits, step, count", [
        (1, 3.0, 60), (1, 12.0, 15), (2, 6.0, 15), (2, 3.0, 30)])
    def test_named_grid_counts(self, bits, step, count):
        # each of these lost its last point to the radian floor
        state = hand_built_link(1, 1, bits, [1.0], [0.5])
        assert eipq(state, step).candidates_evaluated == count


class TestFixedThreshold:
    def test_single_candidate(self):
        sc = ris_2p6ghz()
        result = fixed_threshold(link_state(sc), 235.0)
        assert result.candidates_evaluated == 1
        assert result.threshold_deg == pytest.approx(235.0, rel=1e-12)

    def test_interval_periodicity(self):
        rng = np.random.default_rng(37)
        for i in range(20):
            bits = 1 + (i % 2)
            sc = random_scenario(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), bits)
            state = link_state(sc)
            omega_deg = 360.0 / sc.panel.num_levels
            gamma_deg = rng.uniform(0.0, 360.0 - omega_deg)
            a = fixed_threshold(state, gamma_deg).xi
            b = fixed_threshold(state, gamma_deg + omega_deg).xi
            assert b == pytest.approx(a, rel=1e-9)

    def test_never_beats_dtpq(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            sc = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)), 2)
            state = link_state(sc)
            gamma_deg = rng.uniform(0.0, 360.0)
            assert fixed_threshold(state, gamma_deg).xi <= dtpq(state).xi * (1 + 1e-12)

    def test_rejects_out_of_range(self):
        # an angle outside [0, 360) wraps, as the fixed token's does; only a
        # non-finite one is refused, in degrees
        state = link_state(ris_2p6ghz())
        for outside, inside in ((-0.1, 359.9), (595.0, 235.0), (-1e-20, 0.0)):
            wrapped, expected = fixed_threshold(state, outside), fixed_threshold(state, inside)
            assert wrapped.threshold_deg == pytest.approx(expected.threshold_deg, abs=1e-9)
            assert np.array_equal(wrapped.level_indices, expected.level_indices)
            assert wrapped.xi == expected.xi
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=rf"^threshold must be finite, got {bad} deg$"):
                fixed_threshold(state, bad)


class TestExhaustiveSearch:
    def test_two_bit_four_cells_matches_dtpq(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            sc = random_scenario(rng, 2, 2, 2)   # 65536 assignments
            state = link_state(sc)
            assert exhaustive_xi(state) == pytest.approx(dtpq(state).xi, rel=1e-12)

    def test_optimality_chain(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            sc = random_scenario(rng, 3, 2, 1)
            state = link_state(sc)
            exh = exhaustive_xi(state)
            dt = dtpq(state).xi
            ei = eipq(state, 10.0).xi
            fx = fixed_threshold(state, 0.0).xi
            assert exh == pytest.approx(dt, rel=1e-12)
            assert dt >= ei * (1 - 1e-12)
            assert ei >= fx * (1 - 1e-12)


class TestInvariances:
    def test_level_offset_leaves_optimum_unchanged(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            sc = random_scenario(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
            base = dtpq(link_state(sc))
            shifted = sc.with_panel(
                levels_deg=tuple((v + 55.0) % 360.0 for v in sc.panel.levels_deg)
            )
            moved = dtpq(link_state(shifted))
            assert moved.xi == pytest.approx(base.xi, rel=1e-9)
            assert np.array_equal(moved.level_indices, base.level_indices)

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
        assert dtpq(link_state(sc)).candidates_evaluated == 512
        assert eipq(link_state(sc), 5.0).candidates_evaluated == 36
        assert fixed_threshold(link_state(sc), 0.0).candidates_evaluated == 1

    def test_dtpq_scales_to_twenty_thousand_cells(self):
        # an O((MN)^2) scan takes tens of seconds here; the profile, milliseconds
        sc = ris_2p6ghz().with_panel(rows=200, cols=100)
        state = link_state(sc)
        start = time.perf_counter()
        result = dtpq(state)
        elapsed = time.perf_counter() - start
        assert result.candidates_evaluated == 20000
        half = sc.panel.omega / 2.0
        upper = state.xi_upper_bound
        assert math.sin(half) / half * upper <= result.xi <= upper
        assert elapsed < 2.0


def eipq_count(bits: int, epsilon_deg: float) -> int:
    """#{k >= 0 : k * epsilon_deg < 360/2**bits}, counted one k at a time in exact rationals."""
    step, interval, count = Fraction(epsilon_deg), Fraction(360, 2**bits), 0
    while count * step < interval:
        count += 1
    return count


def eipq_grid(bits: int, epsilon_deg: float) -> np.ndarray:
    """eipq's candidate thresholds (rad) at a step of ``epsilon_deg``."""
    return math.radians(epsilon_deg) * np.arange(eipq_count(bits, epsilon_deg), dtype=float)


@st.composite
def adversarial_links(draw):
    """A 1- to 3-bit link of up to 16 cells, with an eipq step (deg) and its grid (rad).

    Each phase is drawn at random, or is 0, a duplicate of an earlier
    phase, an exact multiple of Omega away from one, or a point of the
    eipq grid (plus a multiple of Omega).
    """
    bits = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    omega = TWO_PI / 2**bits
    interval_deg = 360.0 / 2**bits
    epsilon = draw(st.sampled_from([5.0, 1.0, interval_deg / 3, interval_deg / 7]))
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
    first_level_deg = draw(st.one_of(st.just(0.0),
                                     st.floats(0.0, 360.0 / 2**bits, exclude_max=True)))
    sc = ris_2p6ghz().with_panel(
        rows=rows, cols=cols, bits=bits, levels_deg=uniform_levels(bits, first_level_deg)
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
        assert result.threshold_deg == math.degrees(threshold)
        assert np.array_equal(result.level_indices, level_indices)
        assert result.xi == xi

    @PROPERTY_SETTINGS
    @given(adversarial_links())
    def test_dtpq_matches_scan(self, link):
        state, _, _ = link
        expected = brute_force_search(state, state.phase.ravel())
        self.assert_matches_scan(dtpq(state), expected)

    @PROPERTY_SETTINGS
    @given(adversarial_links())
    def test_eipq_matches_scan(self, link):
        state, epsilon, grid = link
        result = eipq(state, epsilon)
        assert result.candidates_evaluated == grid.size
        self.assert_matches_scan(result, brute_force_search(state, grid))

    @PROPERTY_SETTINGS
    @given(adversarial_links(), st.data())
    def test_fixed_is_the_one_candidate_scan(self, link, data):
        state, _, _ = link
        # any finite angle, or a phase turned to degrees, reduced as fixed reduces it
        gamma_deg = data.draw(st.one_of(
            st.floats(-720.0, 720.0),
            st.sampled_from([math.degrees(phase) for phase in state.phase.ravel()])))
        result = fixed_threshold(state, gamma_deg)
        assert result.candidates_evaluated == 1
        gamma = wrap_angle(math.radians(gamma_deg))
        self.assert_matches_scan(result, brute_force_search(state, [gamma]))

    def test_one_candidate_builds_no_profile(self, monkeypatch):
        class ProfileBuilt(Exception):
            pass

        def refuse(*args):
            raise ProfileBuilt

        state = link_state(ris_2p6ghz())
        one_cell = hand_built_link(1, 1, 1, [2.0], [1.0])
        # eipq has no one-candidate grid: its largest step still gives 0 and epsilon
        single = [lambda: fixed_threshold(state, 235.0), lambda: dtpq(one_cell)]
        expected = [search() for search in single]
        monkeypatch.setattr("risbeam.quantization._profile_xi", refuse)
        for search, unpatched in zip(single, expected):
            result = search()
            assert result.candidates_evaluated == 1
            assert result.threshold_deg == unpatched.threshold_deg
            assert np.array_equal(result.level_indices, unpatched.level_indices)
            assert result.xi == unpatched.xi
        for search in (lambda: dtpq(state), lambda: eipq(state, 5.0),
                       lambda: eipq(state, 135.0)):
            with pytest.raises(ProfileBuilt):
                search()

    @pytest.mark.parametrize("degrees", [5.0, 1.0, 0.37])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_eipq_at_its_own_grid_points(self, bits, degrees):
        # phases at k*epsilon, formed as eipq forms its grid, one ulp to
        # either side, and some of these again a random multiple of Omega on;
        # each is kept or dropped at random, so that some points keep one side
        # only: the profile's u < u_g must split them as quantize_matrix does
        rng = np.random.default_rng(bits * 1000 + round(degrees * 100))
        epsilon = math.radians(degrees)
        grid = eipq_grid(bits, degrees)
        omega = TWO_PI / 2**bits
        for draw in range(8):
            points = epsilon * rng.choice(grid.size, size=8, replace=False).astype(float)
            near = np.concatenate((np.nextafter(points, -np.inf), points,
                                   np.nextafter(points, np.inf)))
            near = near[rng.random(near.size) < 0.5]
            shifted = near[rng.random(near.size) < 0.5]
            shifted += rng.integers(1, 2**bits + 1, shifted.size) * omega
            phase = np.concatenate((near, shifted))
            amplitude = np.ones(phase.size) if draw % 2 else rng.uniform(0.01, 10.0, phase.size)
            state = hand_built_link(1, phase.size, bits, amplitude, phase, rng.uniform(0.0, omega))
            result = eipq(state, degrees)
            assert result.candidates_evaluated == grid.size
            self.assert_matches_scan(result, brute_force_search(state, grid))

    def test_single_cell_panels(self):
        for bits in (1, 2, 3):
            sc = ris_2p6ghz().with_panel(rows=1, cols=1,
                                         bits=bits, levels_deg=uniform_levels(bits, 0.0))
            for phase in (0.0, 1.0, sc.panel.omega, TWO_PI - 1e-9):
                state = LinkState(sc, np.array([[2.0]]), np.array([[phase]]))
                self.assert_matches_scan(dtpq(state), brute_force_search(state, [phase]))
                result = eipq(state, 1.0)
                grid = eipq_grid(bits, 1.0)
                assert result.candidates_evaluated == grid.size
                self.assert_matches_scan(result, brute_force_search(state, grid))

    def test_bin_indices_match_textbook_rule(self):
        rng = np.random.default_rng(67)
        for bits in (1, 2, 3):
            omega = TWO_PI / 2**bits
            panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1, bits=bits,
                             levels_deg=uniform_levels(bits, 0.0))
            phases = rng.uniform(0.0, TWO_PI, 200_000)
            gammas = rng.uniform(0.0, TWO_PI, 200_000)
            textbook = np.floor(np.mod(phases - gammas, TWO_PI) / omega).astype(np.intp) % 2**bits
            assert np.array_equal(quantize_matrix(phases, gammas, panel), textbook)

    def test_threshold_array_matches_scalar_calls(self):
        rng = np.random.default_rng(73)
        for bits in (1, 2, 3):
            panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1, bits=bits,
                             levels_deg=uniform_levels(bits, 0.0))
            phases = rng.uniform(0.0, TWO_PI, 40)
            gammas = np.concatenate((rng.uniform(0.0, TWO_PI, 300), phases, [0.0]))
            scalar = [quantize_matrix(phases, float(gamma), panel) for gamma in gammas]
            assert np.array_equal(quantize_matrix(phases, gammas[:, None], panel), scalar)
            for bad in (TWO_PI, math.nan):
                refused = gammas.copy()
                refused[137] = bad
                with pytest.raises(ValueError,
                                   match=rf"threshold must lie in \[0, 2\*pi\), got {bad}$"):
                    quantize_matrix(phases, refused[:, None], panel)

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
            exact = [state.xi(np.take(sc.panel.levels, quantize_matrix(state.phase, g, sc.panel)))
                     for g in gammas]
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
        xi, upper = dtpq(state).xi, state.xi_upper_bound
        half = sc.panel.omega / 2.0
        # products, not ratios, so that a panel wholly in the pattern
        # cutoff (upper == xi == 0) passes
        assert math.sin(half) * upper * (1.0 - 1e-12) <= half * xi
        assert xi <= upper * (1.0 + 1e-12)


def hand_built_link(rows, cols, bits, amplitude, phase, first_level_deg=0.0):
    """A LinkState of the given per-cell arrays on a rows x cols panel, no geometry."""
    sc = ris_2p6ghz().with_panel(
        rows=rows, cols=cols, bits=bits, levels_deg=uniform_levels(bits, first_level_deg)
    )
    shape = (rows, cols)
    return LinkState(sc, np.reshape(amplitude, shape), np.reshape(phase, shape))


class TestArcBound:
    """Phases within an arc of width s < Omega keep cos(s/2) of the bound.

    The arc's first phase (in circular order from the arc's start) is a
    dtpq candidate, and its bin [phase, phase + Omega) holds the whole arc,
    so at that threshold every cell takes one level rho.  Every residual
    rho - phase then lies within an arc of width s around one direction,
    and projecting the phasor sum on that direction gives
    xi >= cos(s/2) * sum(a).  dtpq is optimal over all thresholds, so its
    xi is at least that.  This is the paper's DoF collapse: a link whose
    phases crowd into a narrow arc loses far less than the sinc floor.
    """

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12), st.integers(1, 3),
           st.floats(0.0, 0.999))
    def test_dtpq_keeps_cos_half_arc(self, seed, rows, cols, bits, width):
        rng = np.random.default_rng(seed)
        s = width * TWO_PI / 2**bits
        centre = rng.uniform(0.0, TWO_PI)   # arcs across 0 wrap
        phase = (centre + rng.uniform(-s / 2, s / 2, rows * cols)) % TWO_PI
        amplitude = rng.uniform(0.01, 10.0, rows * cols)
        state = hand_built_link(rows, cols, bits, amplitude, phase,
                                rng.uniform(0.0, 360.0 / 2**bits))
        bound = math.cos(s / 2) * state.xi_upper_bound
        assert dtpq(state).xi >= bound * (1.0 - 1e-12)


class TestDofInvariance:
    """M identical rows: dtpq returns the 1 x N row's threshold and M times its xi.

    Threshold.  The M x N link's candidates are the row's phases, each M
    times, and its threshold profile is M times the row's, up to rounding
    of the prefix sums: each profile value is off by at most about
    (3n + 4) * 2**-53 * sum(a) over n cells, and xi >= (2/pi) * sum(a)
    at the best threshold, so a candidate's relative gap from the best
    moves by at most DRIFT = (10 * M * N + 14) * eps between the two
    searches.  A candidate's tie status (gap <= TIE_REL_TOL) can then
    change only if its gap lies within DRIFT of TIE_REL_TOL.  Exact and
    rounding-level ties (equal phases, phases Omega apart) lie far inside
    the band and stay tied in both, and the winner is the smallest tied
    phase, one value in both candidate sets.  Draws with a gap within
    DRIFT of the boundary are left out.

    xi.  Both designs bin the row's phases alike, so the M x N cell terms
    are the row's terms repeated, bit for bit; only the order of the sums
    differs.  A sum of n terms is off by at most (n - 1) * 2**-53 times
    the sum of their magnitudes (a cell's real and imaginary terms are at
    most a and a/2), and hypot and the product M * xi_row round once
    each, so |xi - M * xi_row| <= 3 * M * N * eps * M * sum(a_row).
    """

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12), st.integers(1, 3))
    def test_repeated_rows_scale_xi_and_keep_threshold(self, seed, rows, cols, bits):
        rng = np.random.default_rng(seed)
        omega = TWO_PI / 2**bits
        phase = rng.uniform(0.0, TWO_PI, cols)
        # some phases repeat, or sit a multiple of Omega from another: exact ties
        for i in range(1, cols):
            if rng.random() < 0.3:
                phase[i] = (phase[rng.integers(i)] + rng.integers(2**bits) * omega) % TWO_PI
        amplitude = rng.uniform(0.01, 10.0, cols)
        first_level_deg = rng.uniform(0.0, 360.0 / 2**bits)
        row = hand_built_link(1, cols, bits, amplitude, phase, first_level_deg)
        link = hand_built_link(rows, cols, bits, np.tile(amplitude, rows), np.tile(phase, rows),
                               first_level_deg)

        eps = np.finfo(float).eps
        profile = _profile_xi(row, phase)
        gap = 1.0 - profile / profile.max()
        assume(not np.any(np.abs(gap - TIE_REL_TOL) <= (10 * rows * cols + 14) * eps))

        expected, result = dtpq(row), dtpq(link)
        assert result.threshold_deg == expected.threshold_deg
        assert np.array_equal(result.level_indices, np.tile(expected.level_indices, (rows, 1)))
        assert result.candidates_evaluated == rows * cols
        tolerance = 3 * rows * cols * eps * link.xi_upper_bound
        assert abs(result.xi - rows * expected.xi) <= tolerance


class TestDofLaw:
    """A link whose phases mod Omega take L values Omega/L apart, each on the
    same total amplitude, keeps xi / xi_continuous = sin(Omega/2) /
    (L * sin(Omega/(2L))) at every threshold.

    Law.  At any threshold a cell's residual, level minus phase, is one
    common angle less the phase's offset in its bin of width Omega, so the
    residuals are L points Omega/L apart with equal weights, and their
    phasors sum to sin(Omega/2) / sin(Omega/(2L)) times a class's weight.
    L = 1 keeps the continuous xi, L -> inf tends to the sinc floor, and
    dtpq gains nothing over a fixed threshold.

    Tolerance.  The n = 8L cells have unit amplitude, so xi_continuous = n
    exactly; u = 2**-53.  Each phase (base + j*Omega/L + m*Omega, mod 2*pi),
    level and residual is formed by at most eight roundings of numbers
    below 8, each within 2**-51 = 4u, and takes TWO_PI's own error of at
    most 4u at most twice, so each residual lies within 40u of its exact
    value and moves xi by at most 40u * n.  _phasor_sum forms each cosine
    and sine within 8u, sums n of each within (n - 1) * u * n, and hypot
    rounds once; with the law's own few roundings,
    |xi - law * n| <= (2n + 64) * u * n.  A threshold within rounding of a
    residue could split its cells between two bins; ``base`` is drawn at
    random, so no eipq grid point or random threshold comes near one, and
    a split threshold scores far below the tie slack, so dtpq never keeps
    one.
    """

    @pytest.mark.parametrize("residues", [1, 2, 3, 4, 5, 7, 16, 64])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_every_threshold_keeps_the_law(self, bits, residues):
        rng = np.random.default_rng(100 * bits + residues)
        omega = TWO_PI / 2**bits
        n = 8 * residues
        tolerance = (2 * n + 64) * 2.0**-53 * n
        for _ in range(10):
            base = rng.uniform(0.0, omega / residues)
            phase = np.repeat(base + np.arange(residues) * (omega / residues), 8)
            phase = (phase + rng.integers(0, 2**bits, n) * omega) % TWO_PI
            rng.shuffle(phase)
            state = hand_built_link(8, residues, bits, np.ones(n), phase,
                                    rng.uniform(0.0, omega))
            assert state.xi_upper_bound == n
            thresholds = np.concatenate((5.0 * np.arange(eipq_count(bits, 5.0)),
                                         rng.uniform(0.0, 360.0, 8)))
            results = [dtpq(state), eipq(state, 5.0)]
            results += [fixed_threshold(state, float(gamma)) for gamma in thresholds]
            for result in results:
                assert abs(result.xi - dof_law(omega, residues) * n) <= tolerance


class TestDofGrid:
    """A link whose phases mod Omega take L values Omega/L apart, on any
    amplitudes: eipq at the step 360/2**q/L deg is as good as dtpq.

    Theorem.  The threshold partition depends only on how many of the L
    residues lie below the threshold's own residue u_g, so there are L
    partitions, one for each half-open gap (r_(j-1), r_j] of width Omega/L
    between consecutive residues r_j = base + j*Omega/L.  The grid k*Omega/L,
    k = 0..L-1, has one point in each gap, so eipq scores every partition
    and finds dtpq's optimum.  A step that rounds below Omega/L adds a point
    L*epsilon within rounding of Omega, which gives k = 0's partition again.

    Rounding.  u = 2**-53.  A residue (base + j*Omega/L + m*Omega mod 2*pi,
    then mod Omega, both exact) takes at most five roundings of numbers
    below 8, each within 4u, so it lies within 20u of its exact value
    against the float Omega.  A grid point radians(fl(360/2**q/L)) * k, below
    4, takes four roundings and TWO_PI's own error against 2*pi, each within
    u relative, so it lies within 20u of k*Omega/L.  Drawing base at least
    MARGIN = 1e-12, about 9000u, from either end of its gap keeps every grid
    point strictly inside its gap.  Each search keeps a partition within
    TIE_REL_TOL of its best profile value; the two best are one partition,
    up to a rotation by a level, which moves xi by rounding alone, and
    random amplitudes leave no second partition that close.
    """

    MARGIN = 1e-12

    @PROPERTY_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 100), st.integers(1, 4))
    def test_eipq_at_the_residue_step_matches_dtpq(self, seed, bits, residues, per_residue):
        rng = np.random.default_rng(seed)
        omega = TWO_PI / 2**bits
        n = residues * per_residue
        base = rng.uniform(self.MARGIN, omega / residues - self.MARGIN)
        phase = np.repeat(base + np.arange(residues) * (omega / residues), per_residue)
        phase = (phase + rng.integers(0, 2**bits, n) * omega) % TWO_PI
        state = hand_built_link(1, n, bits, rng.uniform(0.01, 10.0, n), phase,
                                rng.uniform(0.0, 360.0 / 2**bits))
        best, grid = dtpq(state), eipq(state, 360.0 / 2**bits / residues)
        assert grid.candidates_evaluated in (residues, residues + 1)
        assert abs(grid.xi - best.xi) <= TIE_REL_TOL * best.xi


def worst_single_move_gain(state: LinkState, result) -> float:
    """Largest rise of xi from moving one live cell of a design to an adjacent level.

    Dead cells (amplitude 0) are skipped: they add nothing wherever they
    go, and np.angle(-0+0j) is pi, so no direction can be read from them.
    """
    levels = np.asarray(state.scenario.panel.levels)
    live = state.amplitude.ravel() > 0.0
    a = state.amplitude.ravel()[live]
    phase = state.phase.ravel()[live]
    index = result.level_indices.ravel()[live]
    term = a * np.exp(1j * (levels[index] - phase))
    total = np.sum(term)
    gain = 0.0
    for step in (1, -1):
        moved = a * np.exp(1j * (levels[(index + step) % levels.size] - phase))
        rise = np.abs(total + (moved - term)) - abs(total)
        gain = max(gain, float(np.max(rise, initial=0.0)))
    return gain


class TestOptimalityCertificate:
    """No single live cell of a dtpq design gains from moving to an adjacent level.

    Brute force checks dtpq only up to about 20 bits; this holds at any
    size.  The optimum over all level assignments is a threshold
    partition (the nearest level after one common rotation: J. A.
    Sanchez, E. Bjornson and E. G. Larsson, IEEE GLOBECOM 2021), and
    dtpq's candidates induce every threshold partition, so in exact
    arithmetic no single move raises dtpq's xi.  In floating point, with
    u = eps/2, A = sum(a) = xi_upper and N = M*N cells, to first order in
    u and T = TIE_REL_TOL:

    0. Every phasor sum below has terms computed to within 16u * a_i
       (an angle difference, exp, a product), so by the recursive
       summation bound |fl(sum z) - sum z| <= (N - 1) u sum|z_i| (Higham,
       Accuracy and Stability of Numerical Algorithms, eq. 4.4; any
       order) it is within (N + 16) u A.
    1. Profile.  P(gamma) = |C_N - w C_k| over prefix sums C with
       |w| = 2 sin(Omega/2) <= 2.  With the rounding of w, the product,
       the difference and the modulus, |P - xi(gamma)| <= 3 (N + 23) u A.
    2. Selection.  dtpq keeps gamma_s with P(gamma_s) >= (1 - T) max P,
       and one candidate induces the optimum xi*, so
       xi(gamma_s) >= (1 - T) xi* - 6 (N + 23) u A.  A single move
       reaches some assignment, whose xi is at most xi*; its exact gain
       is at most T xi* + 6 (N + 23) u A.
    3. Levels.  The profile takes level p at rho_0 + p * Omega.  Levels
       within delta = 32u of that (checked below) move each term by at
       most a_i * delta: 2 delta A = 64 u A more.
    4. This test.  Its sum S (item 0) enters |S + d_i| - |S| twice, d_i
       is within 34u * a_i, and four roundings of at most 3A each
       follow: 2 (N + 39) u A.

    Together the measured gain is at most T xi* + 8 (N + 35) u A.  The
    loss floor xi* >= sinc(Omega/2) A >= (2/pi) A (TestLossFloor) turns
    A into (pi/2) xi, so the gain is at most (T + c (N + 35) eps) xi
    with c = 2 pi; the 35 is the per-term rounding, in cells.
    """

    @staticmethod
    def slack(state: LinkState) -> float:
        """The relative rise the argument allows, after checking its level premise."""
        panel = state.scenario.panel
        eps = np.finfo(float).eps
        levels = np.asarray(panel.levels)
        drift = levels - levels[0] - panel.omega * np.arange(levels.size)
        assert np.max(np.abs(np.angle(np.exp(1j * drift)))) <= 16 * eps   # delta = 32u
        return TIE_REL_TOL + 2 * math.pi * (state.amplitude.size + 35) * eps

    def assert_certified(self, state: LinkState, result) -> None:
        assert worst_single_move_gain(state, result) <= self.slack(state) * result.xi

    @pytest.mark.parametrize("rows, cols", [(128, 256), (256, 512)])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_large_random_panels(self, rows, cols, bits):
        # 32768 and 131072 cells, far beyond any brute force
        state = link_state(random_scenario(np.random.default_rng(rows + bits), rows, cols, bits))
        self.assert_certified(state, dtpq(state))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(adversarial_links())
    def test_adversarial_small_links(self, link):
        state, _, _ = link
        self.assert_certified(state, dtpq(state))

    @pytest.mark.parametrize("distance", [10.0, 100.0])
    @pytest.mark.parametrize("preset", [ris_2p6ghz, ris_4p9ghz])
    def test_bundled_links(self, preset, distance):
        state = link_state(preset().with_placement(d1_m=distance, d2_m=distance))
        self.assert_certified(state, dtpq(state))

    def test_fixed_threshold_fails_it(self):
        # the certificate has teeth: the fixed baseline on the bundled
        # 2.6 GHz link gains about 2e-3 of xi from one move
        state = link_state(ris_2p6ghz())
        result = fixed_threshold(state, ris_2p6ghz().panel.levels_deg[-1])
        assert worst_single_move_gain(state, result) > 1e6 * self.slack(state) * result.xi
