"""Phase design, field superposition, received power, and path loss."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    aperture_radius,
    dof_law,
    ends,
    far_field_pl_db,
    random_scenario,
    residual_spread,
    uniform_levels,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import (
    Placement,
    RadioConfig,
    RisPanel,
    Scenario,
    dtpq,
    field_at_rx_points,
    fixed_threshold,
    link_state,
    power_dbm_from_xi,
    ris_2p6ghz,
    ris_4p9ghz,
)
from risbeam import channel
from risbeam.analysis import design
from risbeam.channel import _leg, _phasor_sum, _tx_leg
from risbeam.geometry import antenna_points, cell_center_axes, cell_paths
from risbeam.quantization import TIE_REL_TOL
from risbeam.scenario import MIN_GAIN_DBI, RANGES, SPEED_OF_LIGHT, wavelength_m

TWO_PI = 2.0 * math.pi


def on_normal_link(d1, d2, wavelength, cols=1):
    """1 x cols panel with Tx and Rx on the surface normal."""
    panel = RisPanel(rows=1, cols=cols, cell_dx_m=0.1, cell_dy_m=0.1,
                     bits=1, levels_deg=(0.0, 180.0))
    placement = Placement(d1_m=d1, d2_m=d2, theta_t_deg=0.0, phi_t_deg=0.0, theta_r_deg=0.0,
                          phi_r_deg=0.0)
    radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (wavelength * 1e9), tx_power_dbm=0.0,
                        gain_tx_dbi=8.0, gain_rx_dbi=8.0)
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8),
           st.none() | st.tuples(st.integers(0, 63), st.integers(1, 1 << 24),
                                 st.sampled_from((-1, 0, 1))))
    def test_phase_is_the_path_in_cycles(self, seed, rows, cols, multiple):
        """Each phase lies in [0, 2*pi) and near the exact mod(2*pi*L/lambda, 2*pi).

        L = r_t + r_r is the exact sum of the two path lengths that
        cell_paths computes, and u = 2^-53 the unit roundoff.  The model
        forms s = fl(L) = L(1 + d1), then x = fl(s/lambda) = (L/lambda)(1 +
        d1)(1 + d2), so |x - L/lambda| <= (L/lambda)(2u + u^2).  frac is
        1-Lipschitz on the circle, and x - floor(x) is exact, so f = frac(x)
        is within that distance of frac(L/lambda), cyclically.  Then
        fl(TWO_PI * f) = 2*pi*f (1 + d3)(1 + d4), TWO_PI being 2*pi rounded,
        which is within 2*pi * (2u + u^2) of 2*pi*f for f < 1.  So the
        cyclic distance to 2*pi * frac(L/lambda) is at most
        2*pi * (2u + u^2) * (L/lambda + 1).  The reference pi, 40 digits,
        is off by less than the u^2 terms.  ``multiple`` sets the frequency
        from one cell's computed s over an integer k, or one ulp to either
        side, so that lambda lands within a few ulps of it and x on k or a
        few ulps from it, where the floor changes; k is the draw moved into
        the counts of whole cycles that the frequency range allows on s.
        """
        sc = random_scenario(np.random.default_rng(seed), rows, cols, 1)
        placement = sc.placement
        axes, r_t, _ = _tx_leg(sc)
        rx = antenna_points(placement.d2_m, placement.theta_r_deg, placement.phi_r_deg)
        r_r = cell_paths(axes, rx)[0, 0]
        if multiple is not None:
            cell, k, step = multiple
            path = float(np.add(r_t, r_r)[cell % r_t.size])
            low, high = ends(RANGES["radio.freq_ghz"][0])
            fewest = math.ceil(path / wavelength_m(low) * (1 + 1e-9))
            most = math.floor(path / wavelength_m(high) * (1 - 1e-9))
            wavelength = path / (fewest + k % (most - fewest + 1))
            if step:
                wavelength = math.nextafter(wavelength, math.copysign(math.inf, step))
            sc = replace(sc, radio=replace(sc.radio,
                                           freq_ghz=SPEED_OF_LIGHT / (wavelength * 1e9)))
        phases = link_state(sc).phase.ravel()
        assert np.all(phases >= 0.0) and np.all(phases < TWO_PI)
        pi = Fraction("3.141592653589793238462643383279502884197")
        u = Fraction(1, 2**53)
        for phase, t, r in zip(phases.tolist(), r_t.tolist(), r_r.tolist()):
            cycles = (Fraction(t) + Fraction(r)) / Fraction(sc.radio.wavelength)
            distance = abs(Fraction(phase) - 2 * pi * (cycles - math.floor(cycles)))
            assert min(distance, 2 * pi - distance) <= 2 * pi * (2 * u + u * u) * (cycles + 1)

    def test_near_field_example_phase_offset(self):
        # brute-forced from the two wave-path sums of the corner and the
        # center-adjacent cell (path difference 6.0666 wavelengths)
        panel = RisPanel(rows=32, cols=16, cell_dx_m=0.5, cell_dy_m=0.5,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=10.0, d2_m=10.0, theta_t_deg=45.0, phi_t_deg=0.0,
                              theta_r_deg=45.0, phi_r_deg=180.0)
        radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (1.0 * 1e9), tx_power_dbm=0.0,
                            gain_tx_dbi=8.0, gain_rx_dbi=8.0)
        phases = link_state(Scenario(panel=panel, placement=placement, radio=radio)).phase
        offset = (phases[0, 0] - phases[15, 7]) % TWO_PI
        assert offset == pytest.approx(0.4182519381750467, abs=1e-9)
        # consistent with a 6.07-wavelength path difference to the same
        # tolerance as the path-difference check itself (0.01 wavelengths)
        assert abs(offset - TWO_PI * 0.07) <= TWO_PI * 0.01


def reference_amplitudes(sc: Scenario):
    """Per-cell sqrt(F_tx * F_cell,t * F_cell,r * F_rx) / (r_t * r_r), cell by
    cell with the math module; per cell an error bound (see TestAmplitude)
    or None for a cell in pattern cutoff, whose amplitude is 0; and per cell
    the sum of the magnitudes of the model's log terms (None in cutoff).

    The antenna positions are ``antenna_points``'s, the cell centers
    (N + 1 - 2n) * d_x / 2 and (M + 1 - 2m) * d_y / 2 as the model forms them.
    """
    panel, pl, radio = sc.panel, sc.placement, sc.radio
    tx = antenna_points(pl.d1_m, pl.theta_t_deg, pl.phi_t_deg)[0].tolist()
    rx = antenna_points(pl.d2_m, pl.theta_r_deg, pl.phi_r_deg)[0].tolist()
    a_tx, a_rx, a_cell = radio.alpha_tx, radio.alpha_rx, radio.cell_alpha
    u = 2.0**-53

    def pattern(cos, alpha):
        return 0.0 if not cos > 0.0 else 1.0 if alpha == 0.0 else min(cos, 1.0) ** alpha

    def leg(p, c):
        """Path length, boresight numerator p . (p - c) and its condition."""
        r = math.dist(p, c)
        products = (p[0] * (p[0] - c[0]), p[1] * (p[1] - c[1]), p[2] * p[2])
        num = math.fsum(products)
        return r, num, sum(map(abs, products)) / abs(num) if num else math.inf

    amplitudes, bounds, sums = [], [], []
    for m in range(1, panel.rows + 1):
        for n in range(1, panel.cols + 1):
            c = ((panel.cols + 1 - 2.0 * n) * panel.cell_dx_m / 2.0,
                 (panel.rows + 1 - 2.0 * m) * panel.cell_dy_m / 2.0, 0.0)
            r_t, num_t, kappa_t = leg(tx, c)
            r_r, num_r, kappa_r = leg(rx, c)
            gain = (pattern(num_t / (r_t * math.hypot(*tx)), a_tx) * pattern(tx[2] / r_t, a_cell)
                    * pattern(rx[2] / r_r, a_cell) * pattern(num_r / (r_r * math.hypot(*rx)), a_rx))
            amplitudes.append(math.sqrt(gain) / (r_t * r_r))
            if gain == 0.0:
                bounds.append(None)
                sums.append(None)
                continue
            # magnitudes of the terms of the model's log sum
            terms = [t for p, num, r, a in ((tx, num_t, r_t, a_tx), (rx, num_r, r_r, a_rx))
                     for t in (a_cell / 2 * abs(math.log(p[2])),
                               a / 2 * abs(math.log(math.hypot(*p))), a / 2 * abs(math.log(num)),
                               (a_cell / 2 + a / 2 + 1) * abs(math.log(r)))]
            bounds.append(math.expm1(u * (16 * sum(terms) + 6 * (a_tx * kappa_t + a_rx * kappa_r)
                                          + 8 * (a_tx + a_rx + a_cell) + 16)))
            sums.append(sum(terms))
    return amplitudes, bounds, sums


class TestAmplitude:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from(["random", "cutoff", "boresight"]),
           st.sampled_from([0.0, 1.0, None]), st.booleans(), st.booleans())
    def test_matches_a_per_cell_reference(self, seed, rows, cols, where, cell_alpha,
                                          flat_tx, flat_rx):
        """``link_state``'s amplitudes against ``reference_amplitudes``.

        The model forms s = ln a as a sum of eight terms t_i, four per leg
        (``channel._leg``), and exp has condition |ln a| there: a relative
        error e of s moves a by a factor exp(|ln a| * e), that is by exp of
        the absolute error of s.  With u = 2^-53 and numpy's log and exp
        taken within 4 ulps, each term carries at most 7u|t_i| from its log
        (4u), its weight (alpha/2 is exact, k = alpha_cell/2 + alpha/2 + 1
        takes 2 roundings) and the product (u), and the seven additions
        forming s at most 7u * sum|t_i| more: 14u * sum|t_i|, taken as 16u.
        The logs' arguments carry their own rounding: r and |p| 4u each, the
        boresight numerator p . (p - c) 4u * kappa (kappa = sum of
        |products| / |sum|, from the rounded offset, product and two
        additions), each weighted by alpha/2; the reference's cosines carry
        at most as much (math.dist, math.hypot and math.fsum round less),
        raised to alpha and halved by the square root.  The 6 * alpha * kappa and
        8 * (alpha_tx + alpha_rx + alpha_cell) terms bound these, and 16u the
        exp and the reference's pow, sqrt, product and division:

            |a / a_ref - 1| <= expm1(u * (16 * sum|t_i| + 6 * (alpha_tx * kappa_t
                                + alpha_rx * kappa_r) + 8 * (alpha_tx + alpha_rx
                                + alpha_cell) + 16)).

        On the domain of ``scenario.RANGES`` sum|t_i| < 2^20 at every normal
        amplitude (``channel._phasors`` derives it), so the sum's own share
        of the bound is at most 16u * 2^20 = 2^-29.

        A cell in any pattern's cutoff must be exactly 0 in both.  The draws
        cover cell_alpha 0 and gains at the 3.0103 dBi floor (alpha 0, the
        flat-pattern branch), an Rx near a wide panel at grazing (cells
        behind the Rx antenna), and odd panels, whose center cell lies on
        both antennas' boresights, where the computed cosines round to either
        side of 1.
        """
        rng = np.random.default_rng(seed)
        rows, cols = (2 * rows - 1, 2 * cols - 1) if where == "boresight" else (rows, cols)
        sc = random_scenario(rng, rows, cols, 1)
        radio = replace(sc.radio, cell_alpha=rng.uniform(0.0, 6.0) if cell_alpha is None
                        else cell_alpha)
        if flat_tx:
            radio = replace(radio, gain_tx_dbi=MIN_GAIN_DBI)
        if flat_rx:
            radio = replace(radio, gain_rx_dbi=MIN_GAIN_DBI)
        sc = replace(sc, radio=radio)
        if where == "cutoff":
            sc = sc.with_placement(d2_m=aperture_radius(sc.panel) * rng.uniform(0.1, 0.6),
                                   theta_r_deg=rng.uniform(60.0, 89.0))
        amplitudes = link_state(sc).amplitude.ravel().tolist()
        expected, bounds, _ = reference_amplitudes(sc)
        for a, ref, bound in zip(amplitudes, expected, bounds):
            if bound is None:
                assert a == 0.0 and not math.copysign(1.0, a) < 0.0
            else:
                assert abs(a - ref) <= bound * ref

    @pytest.mark.parametrize("d", [1e-3, 1e7])
    @pytest.mark.parametrize("size", [1e-6, 10.0])
    def test_holds_at_the_ends_of_the_ranges(self, d, size):
        # at the ends of the ranges that weigh in the log sum (distances, cell
        # sizes, gains, cell_alpha) and of the elevations, every normal
        # amplitude keeps the reference's bound and sum|t_i| < 2^20
        panel = RisPanel(rows=3, cols=2, cell_dx_m=size, cell_dy_m=size,
                         bits=1, levels_deg=(0.0, 180.0))
        normal = np.finfo(float).tiny
        for gain, cell_alpha, theta in itertools.product(
                (MIN_GAIN_DBI, 40.0), (0.0, 100.0), (0.0, math.nextafter(90.0, 0.0))):
            placement = Placement(d1_m=d, d2_m=d, theta_t_deg=theta, phi_t_deg=0.0,
                                  theta_r_deg=theta, phi_r_deg=180.0)
            radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (0.1 * 1e9), tx_power_dbm=0.0,
                                gain_tx_dbi=gain, gain_rx_dbi=gain, cell_alpha=cell_alpha)
            sc = Scenario(panel=panel, placement=placement, radio=radio)
            amplitudes = link_state(sc).amplitude.ravel().tolist()
            for a, ref, bound, total in zip(amplitudes, *reference_amplitudes(sc)):
                if bound is not None and ref >= normal:
                    assert abs(a - ref) <= bound * ref
                    assert total < 2**20

    def test_draws_reach_the_cutoff_and_cosines_above_one(self):
        # the property's cutoff and boresight draws do what it says they do
        rng = np.random.default_rng(0)
        sc = random_scenario(rng, 9, 9, 1)
        near = sc.with_placement(d2_m=aperture_radius(sc.panel) * 0.3, theta_r_deg=80.0)
        assert None in reference_amplitudes(near)[1]
        points = antenna_points(rng.uniform(0.5, 50.0, 200), rng.uniform(0.0, 80.0, 200),
                                rng.uniform(0.0, 360.0, 200))
        r, num = cell_paths((np.zeros(1), np.zeros(1)), points)[:, :, 0]
        assert np.any(num / (r * np.sqrt(np.sum(points**2, axis=1))) > 1.0)


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

    def test_link_budget_matches_the_linear_product(self):
        # P_r = P_t * G_t * G_r * (d_x * d_y)^2 * A^2 * xi^2 / (16 * pi^2), in
        # linear units, where no factor of the bundled links underflows
        for sc in (ris_2p6ghz(), ris_4p9ghz()):
            panel, radio = sc.panel, sc.radio
            linear = (10.0 ** (radio.gain_tx_dbi / 10.0) * 10.0 ** (radio.gain_rx_dbi / 10.0)
                      * (panel.cell_dx_m * panel.cell_dy_m) ** 2 * panel.reflection**2 * 3.0**2
                      / (16.0 * math.pi**2))
            power = power_dbm_from_xi(panel, radio, 3.0)
            assert power == pytest.approx(radio.tx_power_dbm + 10.0 * math.log10(linear),
                                          abs=1e-12)

    @pytest.mark.parametrize("field, tiny", [("cell_dx_m", 1e-6), ("cell_dy_m", 1e-6),
                                             ("reflection", 1e-300)],
                             ids=["d_x", "d_y", "reflection"])
    def test_a_tiny_factor_keeps_a_finite_power(self, field, tiny):
        # a reflection of 1e-300 underflowed the linear product to 0: -inf dBm;
        # the power moves by 20 dB per decade of it, and of a cell size down
        # to its 1 um floor
        sc = ris_2p6ghz()
        panel = replace(sc.panel, **{field: tiny})
        shift = 20.0 * math.log10(tiny / getattr(sc.panel, field))
        assert power_dbm_from_xi(panel, sc.radio, 3.0) == pytest.approx(
            power_dbm_from_xi(sc.panel, sc.radio, 3.0) + shift, abs=1e-9)

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


def link_bound(sc: Scenario) -> tuple[float, float]:
    """P_t + 10*log10(A^2 * eta_t * eta_r) (dBm), the most any design can
    receive on ``sc``, and the rounding slack (dB) of comparing a design's
    power with it.

    eta = G * d_x * d_y / (4*pi) * sum of F * F_cell / r^2 over the cells is
    the share of an antenna's radiated power that the point-cell panel
    intercepts.  With l = ln(sqrt(F * F_cell) / r), ``channel._leg``'s log
    amplitude of one leg, a cell's amplitude is exp(l_t + l_r), so by
    Cauchy-Schwarz any design's xi <= sum exp(l_t + l_r) <= sqrt(sum
    exp(2 l_t) * sum exp(2 l_r)), and P_r = P_t * G_t * G_r * (d_x d_y)^2 *
    A^2 * xi^2 / (16 pi^2) is at most the bound, with equality for the
    continuous design when l_t = l_r cell by cell.  Each eta is one
    log-sum-exp over the leg's logs.

    The slack: the program reads the same floats l (``_tx_leg`` and
    ``link_state`` call ``_leg`` as here), and the inequality holds exactly
    for the exps of those floats.  The program rounds l_t + l_r and its exp
    (relative (|l_t + l_r| + 4) u per amplitude, u = 2^-53) and the phasor
    sum over MN cells ((MN + 8) u, the half-angle weights within a few
    ulps); this oracle rounds 2 l - max and its exp ((|2 l - max| + 4) u)
    and the sum (MN u).  So xi and each sum of exp(2 l) lie within a
    relative e = (4 L + MN + 16) u of the exact values, L the largest
    finite |l|, and the power can pass the bound by 20 log10((1 + e) / (1 -
    e)) dB.  Each side is a sum of at most 10 dB terms of magnitude at most
    T, which rounds within 100 T u more.
    """
    panel, pl, radio = sc.panel, sc.placement, sc.radio
    axes = cell_center_axes(panel)
    logs = [_leg(axes, antenna_points(d, theta, phi), alpha, radio.cell_alpha,
                 np.empty((3, 1, panel.num_cells)))[1][0]
            for d, theta, phi, alpha in ((pl.d1_m, pl.theta_t_deg, pl.phi_t_deg, radio.alpha_tx),
                                         (pl.d2_m, pl.theta_r_deg, pl.phi_r_deg, radio.alpha_rx))]
    sums_db = []
    for log in logs:
        twice = 2.0 * log
        top = float(np.max(twice))
        log_sum = top + math.log(float(np.sum(np.exp(twice - top))))
        sums_db.append(10.0 * log_sum / math.log(10.0))
    terms = [radio.tx_power_dbm, radio.gain_tx_dbi, radio.gain_rx_dbi,
             10.0 * math.log10(panel.cell_dx_m * panel.cell_dy_m / (4.0 * math.pi)),
             20.0 * math.log10(panel.reflection), *sums_db]
    bound = radio.tx_power_dbm + 20.0 * math.log10(panel.reflection) + sum(
        gain + terms[3] + lse for gain, lse in zip(terms[1:3], sums_db))
    u = 2.0**-53
    finite = np.concatenate(logs)
    e = (4.0 * float(np.max(np.abs(finite[np.isfinite(finite)]))) + panel.num_cells + 16.0) * u
    magnitude = max(max(map(abs, terms)), sum(map(abs, sums_db)), 20.0 * math.log10(4.0 * math.pi),
                    20.0 * max(abs(math.log10(panel.cell_dx_m)), abs(math.log10(panel.cell_dy_m))))
    return bound, 20.0 * math.log10((1.0 + e) / (1.0 - e)) + 200.0 * magnitude * u


def coincident(sc: Scenario) -> Scenario:
    """``sc`` with the Rx at the Tx's point and the Tx's gain."""
    pl = sc.placement
    return replace(sc.with_placement(d2_m=pl.d1_m, theta_r_deg=pl.theta_t_deg,
                                     phi_r_deg=pl.phi_t_deg),
                   radio=replace(sc.radio, gain_rx_dbi=sc.radio.gain_tx_dbi))


def adversarial_links() -> list[Scenario]:
    """Links that receive more than they send: the one-cell 10 m panel 1 m
    from both antennas, 3x3 half-wave cells 1 cm away, and a 128x128 panel
    of cell_alpha 0 with flat antennas 0.1 m up its normal."""
    base = ris_2p6ghz().with_placement(theta_t_deg=0.0, phi_t_deg=0.0, theta_r_deg=0.0,
                                       phi_r_deg=0.0)
    flat = replace(base.radio, gain_tx_dbi=MIN_GAIN_DBI, gain_rx_dbi=MIN_GAIN_DBI,
                   cell_alpha=0.0)
    return [base.with_panel(rows=1, cols=1, cell_dx_m=10.0, cell_dy_m=10.0)
            .with_placement(d1_m=1.0, d2_m=1.0),
            base.with_panel(rows=3, cols=3).with_placement(d1_m=0.01, d2_m=0.01),
            replace(base.with_panel(rows=128, cols=128).with_placement(d1_m=0.1, d2_m=0.1),
                    radio=flat)]


class TestLinkBound:
    """No design receives more than P_t * A^2 * eta_t * eta_r (``link_bound``).

    eta <= 1 per leg is what P_r <= P_t needs; the adversarial links break
    it, and still keep this bound.
    """

    METHODS = ("continuous", "dtpq", "eipq", "fixed")

    def assert_bounded(self, sc):
        bound, slack = link_bound(sc)
        state = link_state(sc)
        for method in self.METHODS:
            power = design(state, method).received_power_dbm
            assert power <= bound + slack, (method, power, bound, slack)

    def test_random_links(self):
        rng = np.random.default_rng(1034)
        for _ in range(60):
            rows, cols, bits = (int(v) for v in rng.integers(1, (9, 9, 4)))
            self.assert_bounded(random_scenario(rng, rows, cols, bits))

    @pytest.mark.parametrize("index", range(3), ids=["one-10m-cell", "3x3-at-1cm", "flat-128x128"])
    def test_adversarial_links(self, index):
        sc = adversarial_links()[index]
        self.assert_bounded(sc)
        assert design(link_state(sc), "continuous").received_power_dbm > sc.radio.tx_power_dbm

    def test_coincident_placement_meets_the_bound(self):
        # the Tx and the Rx at one point with equal gains: l_t = l_r cell by
        # cell, so the continuous design attains the bound
        rng = np.random.default_rng(1035)
        links = [random_scenario(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), 1)
                 for _ in range(20)]
        for sc in map(coincident, links + adversarial_links() + [ris_2p6ghz()]):
            bound, slack = link_bound(sc)
            power = design(link_state(sc), "continuous").received_power_dbm
            assert abs(power - bound) <= slack, (power, bound, slack)


class TestFarFieldPathLoss:
    def test_distance_law(self):
        sc = ris_2p6ghz()
        base = far_field_pl_db(sc.panel, sc.placement, sc.radio)
        doubled = far_field_pl_db(sc.panel, replace(sc.placement, d1_m=20.0), sc.radio)
        assert doubled - base == pytest.approx(6.0206, abs=1e-4)

    def test_distance_law_at_extreme_distances(self):
        # the closed form gains 6.02 dB per doubled distance up to the 1e7 m
        # end of the distance range, and the cell-sum model matches it there
        sc = ris_2p6ghz()
        far = replace(sc.placement, d1_m=5e6, d2_m=1e7)
        base = far_field_pl_db(sc.panel, far, sc.radio)
        doubled = far_field_pl_db(sc.panel, replace(far, d1_m=1e7), sc.radio)
        assert doubled - base == pytest.approx(6.0206, abs=1e-4)
        state = link_state(replace(sc, placement=replace(far, d1_m=1e7)))
        model = sc.radio.tx_power_dbm - design(state, "continuous").received_power_dbm
        assert model == pytest.approx(doubled, abs=1e-6)

    def test_cell_count_law(self):
        sc = ris_2p6ghz()
        base = far_field_pl_db(sc.panel, sc.placement, sc.radio)
        bigger = replace(sc.panel, rows=2 * sc.panel.rows)
        assert far_field_pl_db(bigger, sc.placement, sc.radio) - base == pytest.approx(
            -6.0206, abs=1e-4
        )

    def test_cosine_factors(self):
        sc = ris_2p6ghz()
        flat = replace(sc.placement, theta_t_deg=0.0, theta_r_deg=0.0)
        tilted = replace(sc.placement, theta_t_deg=60.0, theta_r_deg=60.0)
        delta = far_field_pl_db(sc.panel, tilted, sc.radio) - far_field_pl_db(
            sc.panel, flat, sc.radio
        )
        assert delta == pytest.approx(6.0206, abs=1e-4)

    def test_far_field_consistency_with_superposition(self):
        # at distances 1e4 x aperture the cell-sum model converges to the
        # closed form within 0.05 dB
        sc = ris_2p6ghz()
        d = 1e4 * aperture_radius(sc.panel)
        far = replace(sc.placement, d1_m=d, d2_m=d)
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
            d = s * aperture_radius(sc.panel)
            far = replace(sc, placement=replace(sc.placement, d1_m=d, d2_m=d))
            power = power_dbm_from_xi(sc.panel, sc.radio, link_state(far).xi_upper_bound)
            closed = sc.radio.tx_power_dbm - far_field_pl_db(sc.panel, far.placement, sc.radio)
            gaps.append(abs(power - closed))
        assert gaps[1] <= gaps[0] / 10.0 + 1e-9
        assert gaps[2] <= gaps[1] / 10.0 + 1e-9

    def test_reciprocity(self):
        # both legs are one function and their logs and lengths are summed,
        # so swapping the Tx and the Rx with their gains gives the same bits
        rng = np.random.default_rng(77)
        for _ in range(200):
            rows, cols, bits = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 4)
            sc = random_scenario(rng, int(rows), int(cols), int(bits))
            p, radio = sc.placement, sc.radio
            swapped = replace(
                sc,
                placement=Placement(d1_m=p.d2_m, d2_m=p.d1_m, theta_t_deg=p.theta_r_deg,
                                    phi_t_deg=p.phi_r_deg, theta_r_deg=p.theta_t_deg,
                                    phi_r_deg=p.phi_t_deg),
                radio=replace(radio, gain_tx_dbi=radio.gain_rx_dbi, gain_rx_dbi=radio.gain_tx_dbi),
            )
            state, state_swapped = link_state(sc), link_state(swapped)
            assert np.array_equal(state_swapped.amplitude, state.amplitude)
            assert np.array_equal(state_swapped.phase, state.phase)


def plane_wave_phase(sc):
    """k * (d1 + d2 - (u_t + u_r) . c) over the M x N cell centers c, and
    k * |in-plane part of u_t + u_r|, the affine phase's slope per meter.

    u_t and u_r are the unit vectors towards Tx and Rx; the cell centers
    are written out from the README's formula, row m along y, column n
    along x.
    """
    panel, pl = sc.panel, sc.placement
    x = (panel.cols + 1 - 2.0 * np.arange(1, panel.cols + 1)) * panel.cell_dx_m / 2.0
    y = (panel.rows + 1 - 2.0 * np.arange(1, panel.rows + 1)) * panel.cell_dy_m / 2.0
    tt, pt, tr, pr = map(math.radians,
                         (pl.theta_t_deg, pl.phi_t_deg, pl.theta_r_deg, pl.phi_r_deg))
    ux = math.sin(tt) * math.cos(pt) + math.sin(tr) * math.cos(pr)
    uy = math.sin(tt) * math.sin(pt) + math.sin(tr) * math.sin(pr)
    k = TWO_PI / sc.radio.wavelength
    return k * (pl.d1_m + pl.d2_m - (ux * x[None, :] + uy * y[:, None])), k * math.hypot(ux, uy)


def fresnel_terms(sc):
    """(F, R, slack) of the affine phase law on ``sc``, in radians.

    F = k * rho^2 / 2 * (1/d1 + 1/d2), R = k * sum of rho^3 / (2 (d - rho)^2)
    over the two legs, rho the aperture radius.  ``slack`` bounds the
    rounding: every length the model or plane_wave_phase forms is off by
    a few ulps of d + rho, so their phases differ from the exact ones by
    well under 32 * eps * k * (d1 + d2 + 2 rho), and each reduction mod
    2*pi by an ulp of 2*pi; the slack doubles both.
    """
    pl = sc.placement
    rho = aperture_radius(sc.panel)
    k = TWO_PI / sc.radio.wavelength
    eps = np.finfo(float).eps
    fresnel = k * rho**2 / 2.0 * (1.0 / pl.d1_m + 1.0 / pl.d2_m)
    remainder = sum(k * rho**3 / (2.0 * (d - rho) ** 2) for d in (pl.d1_m, pl.d2_m))
    return fresnel, remainder, 64.0 * eps * k * (pl.d1_m + pl.d2_m + 2.0 * rho) + 8.0 * eps * TWO_PI


class TestFarFieldPhase:
    """The continuous phases are the plane-wave affine phase plus a bounded curvature.

    An antenna at range d along the unit vector u is r = |d*u - c| from a
    cell center c, |c| <= rho.  Along h(t) = |d*u - t*c|, t in [0, 1],
    h(0) = d, h'(0) = -u.c and h''(t) = |c_perp|^2 / h(t) >= 0, with
    c_perp the part of c normal to d*u - t*c.  Taylor's theorem with the
    Lagrange remainder gives r = d - u.c + h''(tau)/2 for some tau in
    (0, 1), and h(tau) >= d - rho, so each leg's curvature lies in
    [0, rho^2 / (2 (d - rho))].  Since rho^2 / (2 (d - rho)) =
    rho^2 / (2d) + rho^3 / (2d (d - rho)) <= rho^2 / (2d) + rho^3 / (2 (d - rho)^2),
    the phase k (r_t + r_r) exceeds the affine phase k (d1 + d2 - (u_t + u_r).c)
    by a value in [0, F + R] (fresnel_terms), inside [-R, F + R].
    """

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_phase_is_affine_within_the_fresnel_bound(self, seed, rows, cols):
        # d >= 10 rho, and d >= k rho^2 keeps F + R below pi, so the
        # wrapped difference is the difference itself
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, rows, cols, 1)
        rho = aperture_radius(sc.panel)
        d_min = max(10.0 * rho, TWO_PI / sc.radio.wavelength * rho**2)
        sc = sc.with_placement(d1_m=d_min * 10.0 ** rng.uniform(0.0, 2.0),
                               d2_m=d_min * 10.0 ** rng.uniform(0.0, 2.0))
        fresnel, remainder, slack = fresnel_terms(sc)
        assert fresnel + remainder + slack < math.pi
        affine, _ = plane_wave_phase(sc)
        diff = (link_state(sc).phase - affine + math.pi) % TWO_PI - math.pi
        assert diff.min() >= -slack
        assert diff.max() <= fresnel + remainder + slack

    @pytest.mark.parametrize("preset", [ris_2p6ghz, ris_4p9ghz])
    @pytest.mark.parametrize("d", [100.0, 1e3, 1e4])
    def test_specular_arc_keeps_cos_half_arc(self, preset, d):
        # a specular placement (theta_r = theta_t, phi_r = phi_t + pi) has
        # u_t + u_r normal to the panel, so the affine phase is k (d1 + d2)
        # on every cell, up to the slope ``tilt`` that rounding leaves in
        # the plane, times rho.  Every phase then lies in an arc of width s;
        # once s < Omega, dtpq keeps cos(s/2) of the bound (TestArcBound's
        # argument).
        sc = preset().with_placement(d1_m=d, d2_m=d)
        pl = sc.placement
        assert (pl.theta_r_deg, pl.phi_r_deg) == (pl.theta_t_deg, (pl.phi_t_deg + 180.0) % 360.0)
        fresnel, remainder, slack = fresnel_terms(sc)
        _, tilt = plane_wave_phase(sc)
        s = fresnel + remainder + 2.0 * (slack + tilt * aperture_radius(sc.panel))
        assert s < sc.panel.omega
        state = link_state(sc)
        assert residual_spread(state.phase, np.zeros_like(state.phase)) <= s
        assert dtpq(state).xi >= math.cos(s / 2.0) * state.xi_upper_bound * (1.0 - 1e-12)

    @pytest.mark.parametrize("bits, residues", [(1, 3), (1, 5), (2, 4)])
    def test_steered_row_keeps_the_dof_law(self, bits, residues):
        """A far-field 1 x 60 row steered so that its phase steps Omega/L per
        column keeps TestDofLaw's sin(Omega/2) / (L * sin(Omega/(2L))).

        The Tx is on the normal and the Rx at phi_r 0 with sin(theta_r) =
        Omega / (L * k * d_x), so the affine phase steps Omega/L per column
        and its residues mod Omega are L classes of 60/L cells.  The model's
        phases differ from that ideal by a deviation within [-slack - drift,
        F + R + slack + drift], a band of width w: F, R and slack from
        fresnel_terms, and ``drift`` for the step, within 6u of Omega/L over
        at most 30 columns, and a level's and a residual's roundings.  While
        w < Omega/(2L) no class meets another, so a threshold at a class's
        first phase (a dtpq candidate) or midway between two classes bins
        every cell as the ideal link does.  With a-bar the mean amplitude,
        any design's xi then moves by at most sum|a - a-bar| + sum(a) * w/2
        from the ideal link's, whose every threshold gives the law, and
        whose best design over all level assignments is a threshold one
        (TestOptimalityCertificate); dtpq keeps the best within the tie
        slack, and the sums round within 2n * eps.
        """
        sc = ris_2p6ghz().with_panel(rows=1, cols=60,
                                     bits=bits, levels_deg=uniform_levels(bits, 0.0))
        k, omega = TWO_PI / sc.radio.wavelength, sc.panel.omega
        sine = omega / (residues * k * sc.panel.cell_dx_m)
        sc = sc.with_placement(d1_m=1e6, d2_m=1e6, theta_t_deg=0.0, phi_t_deg=0.0,
                               theta_r_deg=math.degrees(math.asin(sine)), phi_r_deg=0.0)
        eps = np.finfo(float).eps
        fresnel, remainder, slack = fresnel_terms(sc)
        drift = (sc.panel.cols * omega + 8.0 * TWO_PI) * eps
        width = fresnel + remainder + 2.0 * (slack + drift)
        assert width < omega / (2 * residues)
        state = link_state(sc)
        a = state.amplitude
        spread = float(np.sum(np.abs(a - np.mean(a))) / np.sum(a))
        tolerance = spread + width / 2.0 + TIE_REL_TOL + 2 * a.size * eps
        midway = float((state.phase[0, 0] + omega / (2 * residues)) % TWO_PI)
        for result in (dtpq(state), fixed_threshold(state, math.degrees(midway))):
            assert abs(result.xi / state.xi_upper_bound - dof_law(omega, residues)) <= tolerance


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
                point = antenna_points(pl.d2_m, pl.theta_r_deg, pl.phi_r_deg)
                for shift in (rng.uniform(0.0, TWO_PI, size=state.phase.shape),
                              dtpq(state).shifts):
                    assert field_at_rx_points(sc, shift, point)[0] == state.xi(shift)

    @staticmethod
    def random_points(rng, panel, count):
        # ranges reach down to a tenth of the aperture, so the chunks also
        # hold cells in the Rx pattern's cutoff
        theta = rng.uniform(0.0, math.radians(89.0), count)
        phi = rng.uniform(0.0, TWO_PI, count)
        r = aperture_radius(panel) * 10.0 ** rng.uniform(-1.0, 2.0, count)
        return np.column_stack([r * np.sin(theta) * np.cos(phi),
                                r * np.sin(theta) * np.sin(phi), r * np.cos(theta)])

    def test_batch_independent(self, monkeypatch):
        # a point's value must not depend on which other points share its
        # call, its chunk, its half, whether the call is split, its position
        # in the batch, or what the previous chunk left in the reused
        # workspace.  The bundled panel takes 128 points per chunk, so 300
        # points end in a partial chunk; the 34000-cell panel takes one
        # point per chunk.  One point per chunk splits every call here in
        # two when two CPUs are reported, both threads writing disjoint
        # halves of one output while the interpreter switches threads every
        # microsecond.
        import sys

        rng = np.random.default_rng(77)
        scenarios = [random_scenario(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                                     int(rng.integers(1, 3))) for _ in range(12)]
        scenarios.append(ris_2p6ghz())
        scenarios.append(ris_2p6ghz().with_panel(rows=200, cols=170))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for sc in scenarios:
                count = 300 if sc.panel.num_cells <= 1 << 15 else 7
                shift = rng.uniform(0.0, TWO_PI, size=(sc.panel.rows, sc.panel.cols))
                points = self.random_points(rng, sc.panel, count)
                one_by_one = np.concatenate([field_at_rx_points(sc, shift, p[None, :])
                                             for p in points])
                for two in (False, True):
                    monkeypatch.setattr(channel, "_two_cpus", lambda two=two: two)
                    together = field_at_rx_points(sc, shift, points)
                    reversed_order = field_at_rx_points(sc, shift, points[::-1].copy())[::-1]
                    monkeypatch.setattr(channel, "_CHUNK_POINT_CELLS", 1)
                    point_per_chunk = field_at_rx_points(sc, shift, points)
                    monkeypatch.setattr(channel, "_CHUNK_POINT_CELLS", 1 << 62)
                    single_chunk = field_at_rx_points(sc, shift, points)
                    monkeypatch.undo()
                    for other in (together, reversed_order, point_per_chunk, single_chunk):
                        assert one_by_one.tobytes() == other.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_blocks_split_over_the_workers(self, monkeypatch):
        # two halves on two CPUs, and only when each half holds at least two
        # full chunks of _CHUNK_POINT_CELLS // 512 points on the bundled panel.
        # The cases: one block on one CPU; two even halves; the odd split;
        # halves of two full chunks and a partial one; and one point short
        # of the four-chunk threshold
        sc = ris_2p6ghz()
        size = channel._CHUNK_POINT_CELLS // sc.panel.num_cells
        many = 2 * (7 * size + size // 3)
        partial = 4 * size + 2 * (size // 3)
        shift = link_state(sc).phase
        points = self.random_points(np.random.default_rng(5), sc.panel, many)
        blocks = []
        real_block = channel._field_block

        def record(scenario, tx_leg, shift, points, *rest):
            blocks.append((len(points), rest[0]))
            real_block(scenario, tx_leg, shift, points, *rest)

        monkeypatch.setattr(channel, "_field_block", record)
        for two, count, expected in ((False, many, [many]),
                                     (True, many, [many // 2, many // 2]),
                                     (True, many - 1, [many // 2 - 1, many // 2]),
                                     (True, partial, [partial // 2, partial // 2]),
                                     (True, 4 * size - 1, [4 * size - 1])):
            monkeypatch.setattr(channel, "_two_cpus", lambda two=two: two)
            blocks.clear()
            field_at_rx_points(sc, shift, points[:count])
            assert sorted(blocks) == [(n, size) for n in expected]

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (16, 2)])
    def test_at_most_two_workers(self, monkeypatch, cpus, threads):
        # two is the measured count, and each thread adds a workspace
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert channel._two_cpus() == (threads == 2)

    @pytest.mark.parametrize("count, cells", [(1, 512), (64, 512), (181, 512), (3, 34000)])
    def test_few_chunks_start_no_thread(self, monkeypatch, count, cells):
        # a call with fewer than two full chunks per half stays on the
        # caller's thread even on two CPUs: one point, one partial chunk,
        # the CLI's 181-point angle scan (2 chunks), and three one-point
        # chunks on a 34000-cell panel
        import concurrent.futures
        import threading

        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(channel, "_two_cpus", lambda: True)
        sc = ris_2p6ghz() if cells == 512 else ris_2p6ghz().with_panel(rows=200, cols=170)
        points = self.random_points(np.random.default_rng(6), sc.panel, count)
        shift = np.zeros((sc.panel.rows, sc.panel.cols))
        assert field_at_rx_points(sc, shift, points).shape == (count,)

    @staticmethod
    def fail_in_second_half(monkeypatch, error=FloatingPointError):
        # _phasor_sum raises ``error`` for any chunk whose first point lies in
        # the second half of the call's points, that is in the second thread's
        # half; sums outside field_at_rx_points (out=None) pass
        real_sum = channel._phasor_sum

        def failing_sum(amplitude, phase, shift, out=None, scratch=None):
            if out is not None and (out.__array_interface__["data"][0]
                                    - out.base.__array_interface__["data"][0]
                                    >= out.base.size // 2 * out.itemsize):
                raise error("overflow in the second block")
            return real_sum(amplitude, phase, shift, out=out, scratch=scratch)

        monkeypatch.setattr(channel, "_phasor_sum", failing_sum)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_failure_reaches_the_caller(self, monkeypatch, workers):
        sc = ris_2p6ghz()
        points = self.random_points(np.random.default_rng(7), sc.panel, 1000)
        monkeypatch.setattr(channel, "_two_cpus", lambda: workers == 2)
        self.fail_in_second_half(monkeypatch)
        with pytest.raises(FloatingPointError, match="^overflow in the second block$"):
            field_at_rx_points(sc, link_state(sc).phase, points)

    @pytest.mark.parametrize("workers, error", [
        (1, FloatingPointError), (2, FloatingPointError), (1, ValueError), (2, ValueError),
    ], ids=["1", "2", "1-ValueError", "2-ValueError"])
    def test_block_failure_exits_one(self, monkeypatch, tmp_path, capsys, workers, error):
        # a numpy ValueError is a fault of the program, not a refusal: exit 1
        from risbeam.cli import run

        monkeypatch.setattr(channel, "_two_cpus", lambda: workers == 2)
        self.fail_in_second_half(monkeypatch, error)
        out = tmp_path / "map.csv"
        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "ris1_2p6ghz.json"
        code = run(["gradient-map", "--scenario", str(scenario),
                    "--target-theta", "45", "--target-phi", "180", "--theta-step", "1.5",
                    "--phi-step", "6", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "internal error: overflow in the second block\n"

    def test_blocks_run_under_the_callers_error_state(self, monkeypatch):
        # np.errstate set around the call holds in both threads
        sc = ris_2p6ghz()
        points = self.random_points(np.random.default_rng(8), sc.panel, 1000)
        monkeypatch.setattr(channel, "_two_cpus", lambda: True)
        seen = []
        real_sum = channel._phasor_sum

        def record(*args, **kwargs):
            seen.append(np.geterr()["over"])
            return real_sum(*args, **kwargs)

        monkeypatch.setattr(channel, "_phasor_sum", record)
        with np.errstate(over="raise"):
            field_at_rx_points(sc, link_state(sc).phase, points)
        assert seen and set(seen) == {"raise"}

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

    def test_bytes_equal_the_form_doubling_each_tangent(self):
        # 2 * sum(t * w) is the bytes of sum((2 * t) * w): doubling is exact
        # and commutes with every rounding of the products and the pairwise sum
        def doubled_tangents(amplitude, phase, shift):
            t = np.tan((shift - phase) * 0.5)
            t2 = t * t
            weight = amplitude / (t2 + 1.0)
            return np.hypot(np.sum((1.0 - t2) * weight, axis=-1),
                            np.sum((t * 2.0) * weight, axis=-1))

        rng = np.random.default_rng(10)
        for cells in (1, 2, 7, 512, 5000):
            amplitude = rng.uniform(0.0, 1.0, (20, cells))
            phase = rng.uniform(0.0, TWO_PI, (20, cells))
            shift = rng.uniform(0.0, TWO_PI, cells)
            phase[rng.random((20, cells)) < 0.3] = 0.0
            phase[:3] = shift  # rows of zero residuals only
            phase[3, : cells // 2] = shift[: cells // 2]
            for a, p in ((amplitude, phase), (amplitude[4], phase[4]),
                         (amplitude[0], phase[0])):
                assert (_phasor_sum(a, p, shift).tobytes()
                        == doubled_tangents(a, p, shift).tobytes())
