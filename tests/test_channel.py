"""Phase design, field superposition, received power, and path loss."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import (
    Placement,
    RadioConfig,
    RisPanel,
    Scenario,
    dtpq,
    far_field_pl_db,
    field_at_rx_points,
    link_state,
    power_dbm_from_xi,
    ris_2p6ghz,
)
from risbeam import channel
from risbeam.analysis import design
from risbeam.channel import _mod_two_pi, _phasor_sum
from risbeam.geometry import antenna_points

TWO_PI = 2.0 * math.pi


def on_normal_link(d1, d2, wavelength, cols=1):
    """1 x cols panel with Tx and Rx on the surface normal."""
    panel = RisPanel(rows=1, cols=cols, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi))
    placement = Placement(d1=d1, d2=d2, theta_t=0.0, phi_t=0.0, theta_r=0.0, phi_r=0.0)
    radio = RadioConfig(wavelength=wavelength, tx_power_dbm=0.0, gain_tx_dbi=8.0,
                        gain_rx_dbi=8.0)
    return Scenario(panel=panel, placement=placement, radio=radio)


class TestContinuousPhaseMatrix:
    # the link state's phases are the continuous shifts mod(2*pi*L/lambda, 2*pi)

    def test_half_cycle(self):
        phases = link_state(on_normal_link(1.0, 1.5, 1.0)).phase
        assert phases[0, 0] == pytest.approx(math.pi, rel=1e-12)

    def test_whole_cycles_vanish(self):
        phases = link_state(on_normal_link(3.0, 4.0, 1.0)).phase
        assert phases[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_range(self):
        phases = link_state(ris_2p6ghz()).phase
        assert np.all(phases >= 0.0) and np.all(phases < TWO_PI)

    def test_near_field_example_phase_offset(self):
        # brute-forced from the two wave-path sums of the corner and the
        # center-adjacent cell (path difference 6.0666 wavelengths)
        panel = RisPanel(rows=32, cols=16, d_x=0.5, d_y=0.5, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=10.0, d2=10.0, theta_t=math.pi / 4, phi_t=0.0,
                              theta_r=math.pi / 4, phi_r=math.pi)
        radio = RadioConfig(wavelength=1.0, tx_power_dbm=0.0, gain_tx_dbi=8.0,
                            gain_rx_dbi=8.0)
        phases = link_state(Scenario(panel=panel, placement=placement, radio=radio)).phase
        offset = (phases[0, 0] - phases[15, 7]) % TWO_PI
        assert offset == pytest.approx(0.4182519381750467, abs=1e-9)
        # consistent with a 6.07-wavelength path difference to the same
        # tolerance as the path-difference check itself (0.01 wavelengths)
        assert abs(offset - TWO_PI * 0.07) <= TWO_PI * 0.01


class TestFieldSuperposition:
    def test_single_cell_unit_amplitude(self):
        state = link_state(on_normal_link(1.0, 1.0, 0.37))
        for shift in (0.0, 1.0, 3.0):
            assert state.xi(np.array([[shift]])) == pytest.approx(
                state.amplitude[0, 0], rel=1e-15
            )

    def test_continuous_shifts_attain_upper_bound(self):
        state = link_state(ris_2p6ghz())
        assert state.xi(state.phase) == state.xi_upper_bound

    def test_destructive_pair_cancels(self):
        # two cells mirrored about the normal: equal amplitudes and phases
        state = link_state(on_normal_link(1.0, 1.0, 1.0, cols=2))
        assert state.amplitude[0, 0] == state.amplitude[0, 1]
        shift = state.phase + np.array([[0.0, math.pi]])
        assert state.xi(shift) < 1e-12 * state.xi_upper_bound

    def test_dimension_mismatch(self):
        state = link_state(on_normal_link(1.0, 1.0, 1.0, cols=2))
        with pytest.raises(ValueError, match="shape"):
            state.xi(np.zeros((2, 2)))

    def test_shift_matrix_never_beats_continuous(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            sc = random_scenario(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                                 int(rng.integers(1, 4)))
            state = link_state(sc)
            random_shift = rng.uniform(0.0, TWO_PI, size=state.phase.shape)
            assert state.xi(random_shift) <= state.xi_upper_bound * (1 + 1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(55)
        sc = random_scenario(rng, 4, 3, 2)
        state = link_state(sc)
        shift = rng.uniform(0.0, TWO_PI, size=state.phase.shape)
        for c in (0.1, 1.0, 4.5):
            assert state.xi(shift + c) == pytest.approx(state.xi(shift), rel=1e-12)


class TestReceivedPower:
    def test_doubling_xi_adds_six_db(self):
        sc = ris_2p6ghz()
        p1 = power_dbm_from_xi(sc.panel, sc.radio, 1.0)
        p2 = power_dbm_from_xi(sc.panel, sc.radio, 2.0)
        assert p2 - p1 == pytest.approx(6.0206, abs=1e-4)

    def test_tx_power_shifts_linearly(self):
        sc = ris_2p6ghz()
        state = link_state(sc)
        xi = state.xi(state.phase)
        boosted = replace(sc.radio, tx_power_dbm=10.0)
        p0 = power_dbm_from_xi(sc.panel, sc.radio, xi)
        p10 = power_dbm_from_xi(sc.panel, boosted, xi)
        assert p10 - p0 == pytest.approx(10.0, rel=1e-12)

    def test_zero_field_gives_minus_inf(self):
        sc = ris_2p6ghz()
        assert power_dbm_from_xi(sc.panel, sc.radio, 0.0) == -math.inf

    def test_continuous_power_from_link_state_xi(self):
        # the power of the continuous shifts' xi is what the continuous
        # design reports
        sc = ris_2p6ghz()
        state = link_state(sc)
        power = power_dbm_from_xi(sc.panel, sc.radio, state.xi(state.phase))
        assert power == design(state, "continuous").received_power_dbm


class TestFarFieldPathLoss:
    def test_distance_law(self):
        sc = ris_2p6ghz()
        base = far_field_pl_db(sc.panel, sc.placement, sc.radio)
        doubled = far_field_pl_db(sc.panel, replace(sc.placement, d1=20.0), sc.radio)
        assert doubled - base == pytest.approx(6.0206, abs=1e-4)

    def test_cell_count_law(self):
        sc = ris_2p6ghz()
        base = far_field_pl_db(sc.panel, sc.placement, sc.radio)
        bigger = replace(sc.panel, rows=2 * sc.panel.rows)
        assert far_field_pl_db(bigger, sc.placement, sc.radio) - base == pytest.approx(
            -6.0206, abs=1e-4
        )

    def test_cosine_factors(self):
        sc = ris_2p6ghz()
        flat = replace(sc.placement, theta_t=0.0, theta_r=0.0)
        tilted = replace(sc.placement, theta_t=math.pi / 3, theta_r=math.pi / 3)
        delta = far_field_pl_db(sc.panel, tilted, sc.radio) - far_field_pl_db(
            sc.panel, flat, sc.radio
        )
        assert delta == pytest.approx(6.0206, abs=1e-4)

    def test_far_field_consistency_with_superposition(self):
        # at distances 1e4 x aperture the cell-sum model converges to the
        # closed form within 0.05 dB
        sc = ris_2p6ghz()
        d = 1e4 * sc.panel.aperture_radius
        far = replace(sc.placement, d1=d, d2=d)
        sc_far = replace(sc, placement=far)
        state = link_state(sc_far)
        power = power_dbm_from_xi(sc.panel, sc.radio, state.xi_upper_bound)
        closed = sc.radio.tx_power_dbm - far_field_pl_db(sc.panel, far, sc.radio)
        assert power == pytest.approx(closed, abs=0.05)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_cell_sum_converges_to_closed_form(self, seed, rows, cols):
        """The continuous-design power approaches P_t - PL_far as O((D/d)^2).

        With d = d1 = d2 = s * D, D the aperture radius, each cell's
        1/(r_t * r_r) and cell-pattern factors differ from their values at
        the panel center by a term linear in the cell's offset, plus
        O((D/d)^2); the antenna patterns differ by O((D/d)^2) alone.  The
        cell centers are symmetric about the panel center, so the linear
        terms cancel in the sum, and the gap in dB falls 100x per decade
        of s.  The test asks for 10x, above a 1e-9 dB rounding floor.
        """
        sc = random_scenario(np.random.default_rng(seed), rows, cols, 1)
        gaps = []
        for s in (1e2, 1e3, 1e4):
            d = s * sc.panel.aperture_radius
            far = replace(sc, placement=replace(sc.placement, d1=d, d2=d))
            power = power_dbm_from_xi(sc.panel, sc.radio, link_state(far).xi_upper_bound)
            closed = sc.radio.tx_power_dbm - far_field_pl_db(sc.panel, far.placement, sc.radio)
            gaps.append(abs(power - closed))
        assert gaps[1] <= gaps[0] / 10.0 + 1e-9
        assert gaps[2] <= gaps[1] / 10.0 + 1e-9

    def test_reciprocity(self):
        # holds under symmetric antenna gains
        rng = np.random.default_rng(77)
        for _ in range(10):
            sc = random_scenario(rng, 4, 4, 1)
            sc = replace(sc, radio=replace(sc.radio, gain_rx_dbi=sc.radio.gain_tx_dbi))
            p = sc.placement
            swapped = Placement(d1=p.d2, d2=p.d1, theta_t=p.theta_r, phi_t=p.phi_r,
                                theta_r=p.theta_t, phi_r=p.phi_t)
            sc_swapped = replace(sc, placement=swapped)
            assert link_state(sc_swapped).xi_upper_bound == pytest.approx(
                link_state(sc).xi_upper_bound, rel=1e-12
            )


class TestFieldAtRxPoints:
    def test_matches_general_path_at_the_placement_point(self):
        # the multi-Rx evaluator and the link state run one forward model,
        # so at the placement's own Rx position they agree exactly
        rng = np.random.default_rng(404)
        for bits in (1, 2):
            for _ in range(10):
                sc = random_scenario(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                                     bits)
                state = link_state(sc)
                pl = sc.placement
                point = antenna_points(pl.d2, pl.theta_r, pl.phi_r)
                for shift in (rng.uniform(0.0, TWO_PI, size=state.phase.shape),
                              dtpq(sc, state).shifts):
                    assert field_at_rx_points(sc, shift, point)[0] == state.xi(shift)

    def test_batch_independent(self, monkeypatch):
        # a point's value must not depend on which other points share its
        # call, its chunk, its position in the batch, or what the previous
        # chunk left in the reused workspace.  The bundled panel takes 64
        # points per chunk, so 300 points end in a partial chunk; the
        # 34000-cell panel takes one point per chunk.  Ranges reach down to a
        # tenth of the aperture, so the chunks also hold cells in the Rx
        # pattern's cutoff.
        rng = np.random.default_rng(77)
        scenarios = [random_scenario(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                                     int(rng.integers(1, 3))) for _ in range(12)]
        scenarios.append(ris_2p6ghz())
        scenarios.append(ris_2p6ghz().with_panel(rows=200, cols=170))
        for sc in scenarios:
            count = 300 if sc.panel.num_cells <= 1 << 15 else 7
            shift = rng.uniform(0.0, TWO_PI, size=(sc.panel.rows, sc.panel.cols))
            theta = rng.uniform(0.0, math.radians(89.0), count)
            phi = rng.uniform(0.0, TWO_PI, count)
            r = sc.panel.aperture_radius * 10.0 ** rng.uniform(-1.0, 2.0, count)
            points = np.column_stack([r * np.sin(theta) * np.cos(phi),
                                      r * np.sin(theta) * np.sin(phi), r * np.cos(theta)])
            together = field_at_rx_points(sc, shift, points)
            one_by_one = np.concatenate([field_at_rx_points(sc, shift, p[None, :])
                                         for p in points])
            reversed_order = field_at_rx_points(sc, shift, points[::-1].copy())[::-1]
            monkeypatch.setattr(channel, "_CHUNK_POINT_CELLS", 1)
            point_per_chunk = field_at_rx_points(sc, shift, points)
            monkeypatch.setattr(channel, "_CHUNK_POINT_CELLS", 1 << 62)
            single_chunk = field_at_rx_points(sc, shift, points)
            monkeypatch.undo()
            for other in (one_by_one, reversed_order, point_per_chunk, single_chunk):
                assert together.tobytes() == other.tobytes()

    def test_no_points(self):
        sc = ris_2p6ghz()
        assert field_at_rx_points(sc, link_state(sc).phase, np.zeros((0, 3))).shape == (0,)

    def test_rejects_bad_point_shape(self):
        sc = ris_2p6ghz()
        with pytest.raises(ValueError, match="P, 3"):
            field_at_rx_points(sc, link_state(sc).phase, np.zeros((3,)))

    def test_rejects_bad_shift_shape(self):
        sc = ris_2p6ghz()
        with pytest.raises(ValueError, match="panel shape"):
            field_at_rx_points(sc, np.zeros((2, 2)), np.zeros((1, 3)))


class TestPhasorSum:
    # the half-angle reducer against the complex-exponential sum it replaces

    @staticmethod
    def complex_sum(amplitude, phase, shift):
        return np.abs(np.sum(amplitude * np.exp(1j * (shift - phase)), axis=-1))

    def test_matches_complex_sum_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for cells in (1, 2, 7, 512, 5000):
            amplitude = rng.uniform(0.0, 1.0, (20, cells))
            phase = rng.uniform(0.0, TWO_PI, (20, cells))
            shift = rng.uniform(0.0, TWO_PI, cells)
            error = np.abs(_phasor_sum(amplitude, phase, shift)
                           - self.complex_sum(amplitude, phase, shift))
            assert np.all(error <= 1e-13 * amplitude.sum(axis=-1))

    def test_residual_edges(self):
        # residuals 0, +/-pi (where tan(residual/2) is about 1.6e16) and just
        # inside +/-2*pi, alone and mixed with random cells
        below = math.nextafter(TWO_PI, 0.0)
        pairs = [(0.0, 0.0), (1.0, 1.0), (math.pi, 0.0), (0.0, math.pi),
                 (below, 0.0), (0.0, below), (math.nextafter(math.pi, 4.0), 0.0),
                 (math.nextafter(math.pi, 0.0), 0.0)]
        rng = np.random.default_rng(9)
        for shift_value, phase_value in pairs:
            for extra in (0, 5):
                amplitude = np.concatenate([[0.7], rng.uniform(0.0, 1.0, extra)])
                phase = np.concatenate([[phase_value], rng.uniform(0.0, TWO_PI, extra)])
                shift = np.concatenate([[shift_value], rng.uniform(0.0, TWO_PI, extra)])
                value = _phasor_sum(amplitude, phase, shift)
                assert np.isfinite(value)
                assert abs(value - self.complex_sum(amplitude, phase, shift)) <= (
                    1e-13 * amplitude.sum())
        assert _phasor_sum(np.array([0.7]), np.array([2.0]), np.array([2.0])) == 0.7


# From 2^26 * TWO_PI on the reduction falls back to np.mod; the multiples
# reach past that.
_MOD_LIMIT = 2.0**26 * TWO_PI
_SMALLEST_NORMAL = 2.2250738585072014e-308


def _near_multiple(k_step):
    k, step = k_step
    x = k * TWO_PI
    return x if step == 0 else math.nextafter(x, math.copysign(math.inf, step))


_REDUCTION_INPUTS = st.one_of(
    st.floats(0.0, 1e6),
    st.tuples(st.integers(0, 1 << 28), st.sampled_from((-1, 0, 1))).map(_near_multiple),
    st.sampled_from((0.0, 5e-324, math.nextafter(_SMALLEST_NORMAL, 0.0), _SMALLEST_NORMAL)),
    st.floats(0.0, _SMALLEST_NORMAL, exclude_max=True),
    st.floats(_MOD_LIMIT, 1e300),
    st.sampled_from((math.nextafter(_MOD_LIMIT, 0.0), _MOD_LIMIT)),
).filter(lambda x: x >= 0.0)


class TestModTwoPi:
    # the Cody-Waite reduction against the np.mod it replaces, byte for byte

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_REDUCTION_INPUTS, min_size=1, max_size=64))
    def test_equals_np_mod(self, values):
        x = np.array(values)
        reduced = _mod_two_pi(x, out=np.empty_like(x), q=np.empty_like(x))
        assert reduced.tobytes() == np.mod(x, TWO_PI).tobytes()
