"""Cosine-power patterns and gain conversions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import combined_pattern
from scipy.integrate import quad

from risbeam import (
    Placement,
    RadioConfig,
    RisPanel,
    Scenario,
    alpha_from_gain_dbi,
    ris_2p6ghz,
)
from risbeam.geometry import antenna_points, cell_center_axes
from risbeam.scenario import MIN_GAIN_DBI, SPEED_OF_LIGHT, ConfigError

ALPHA_825_DBI = 2.3417195878430728


def gain_dbi(alpha: float) -> float:
    """The gain whose cosine-power pattern has exponent ``alpha``."""
    return 10 * math.log10(2 * (alpha + 1))


def link(rows=1, cols=1, cell_dx_m=0.1, d1_m=1.0, d2_m=1.0, theta_t_deg=0.0, theta_r_deg=0.0,
         alpha_tx=0.0, alpha_rx=0.0, cell_alpha=0.0) -> Scenario:
    """A link with Tx and Rx on the x axis's plane (phi_t 0, phi_r 180 deg)."""
    panel = RisPanel(rows=rows, cols=cols, cell_dx_m=cell_dx_m, cell_dy_m=cell_dx_m,
                     bits=1, levels_deg=(0.0, 180.0))
    placement = Placement(d1_m=d1_m, d2_m=d2_m, theta_t_deg=theta_t_deg, phi_t_deg=0.0,
                          theta_r_deg=theta_r_deg, phi_r_deg=180.0)
    radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (0.1 * 1e9), tx_power_dbm=0.0,
                        gain_tx_dbi=gain_dbi(alpha_tx), gain_rx_dbi=gain_dbi(alpha_rx),
                        cell_alpha=cell_alpha)
    return Scenario(panel=panel, placement=placement, radio=radio)


def grazing_rx(alpha_rx: float, swap: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """F_combine and the cells behind the Rx antenna on an 8x8 panel, with the
    Rx 0.6 m from the center just above the surface plane and every other
    pattern flat; ``swap`` puts that antenna at the Tx instead."""
    sc = link(8, 8, 0.2, d1_m=5.0, d2_m=0.6, theta_t_deg=5.7, theta_r_deg=89.99999994,
              alpha_rx=alpha_rx)
    pl, radio = sc.placement, sc.radio
    if swap:
        sc = replace(sc, placement=Placement(d1_m=pl.d2_m, d2_m=pl.d1_m, theta_t_deg=pl.theta_r_deg,
                                             phi_t_deg=pl.phi_r_deg, theta_r_deg=pl.theta_t_deg,
                                             phi_r_deg=pl.phi_t_deg),
                     radio=replace(radio, gain_tx_dbi=radio.gain_rx_dbi,
                                   gain_rx_dbi=radio.gain_tx_dbi))
    x, y = np.meshgrid(*cell_center_axes(sc.panel))
    px, py, pz = antenna_points(pl.d2_m, pl.theta_r_deg, pl.phi_r_deg)[0]
    # the boresight is -p, and p - c is 90 or more degrees off it
    behind = px * (px - x) + py * (py - y) + pz * pz <= 0.0
    assert np.any(behind) and not np.all(behind)
    return combined_pattern(sc), behind


class TestCosinePattern:
    """F(theta) = cos(theta)**alpha below the pi/2 cutoff, read off the link
    amplitudes: each of the four patterns is probed with the other three flat."""

    def test_boresight_is_one(self):
        # one cell on both antennas' boresights: every log is ln 1 at 1 m
        for alpha in (0.0, 1.0, ALPHA_825_DBI):
            sc = link(alpha_tx=alpha, alpha_rx=alpha, cell_alpha=alpha)
            assert combined_pattern(sc)[0, 0] == 1.0
            far = link(d1_m=7.3, d2_m=41.0, alpha_tx=alpha, alpha_rx=alpha, cell_alpha=alpha)
            assert combined_pattern(far)[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_sixty_degrees_alpha_one(self):
        # cells at x = +-sqrt(3) lie 60 deg off the boresights of a Tx and an
        # Rx 1 m up the normal, and a Tx at 60 deg elevation lies 60 deg off
        # the normal of one centered cell
        wide = {"cols": 2, "cell_dx_m": 2.0 * math.sqrt(3.0)}
        for sc in (link(**wide, alpha_tx=1.0), link(**wide, alpha_rx=1.0),
                   link(theta_t_deg=60.0, cell_alpha=1.0)):
            assert combined_pattern(sc) == pytest.approx(0.5, rel=1e-12)

    def test_cutoff_region(self):
        # cells behind an antenna get exactly +0, lit cells a positive value
        for alpha in (1.0, ALPHA_825_DBI, 5.0):
            for swap in (False, True):
                combined, behind = grazing_rx(alpha, swap)
                assert np.all(combined[behind] == 0.0)
                assert not np.any(np.signbit(combined))
                assert np.all(combined[~behind] > 0.0)

    def test_alpha_zero_is_flat_until_cutoff(self):
        for swap in (False, True):
            combined, behind = grazing_rx(0.0, swap)
            assert combined[~behind] == pytest.approx(1.0, rel=1e-12)

    def test_alpha_zero_cutoff_is_exact(self):
        for swap in (False, True):
            combined, behind = grazing_rx(0.0, swap)
            assert np.all(combined[behind] == 0.0)
            assert not np.any(np.signbit(combined))

    def test_monotone_nonincreasing(self):
        # a 1x400 row seen from 1 m up the normal: the cells' angles to the
        # antenna boresights and to their normals grow with x, up to 88.9 deg
        for alphas in ((1.0, 0.0), (ALPHA_825_DBI, 0.0), (0.0, 1.0), (ALPHA_825_DBI, 1.0)):
            alpha_tx, cell_alpha = alphas
            sc = link(cols=400, cell_dx_m=0.25, alpha_tx=alpha_tx, cell_alpha=cell_alpha)
            values = combined_pattern(sc)[0, :200]  # x from 49.875 m down to 0.125 m
            assert np.all(np.diff(values) >= 0.0)
            assert np.all((values > 0.0) & (values <= 1.0))

    def test_tiny_cosines_keep_their_power(self):
        # the Tx at the largest elevation below 90 deg, whose radians are the
        # largest float below pi/2, sees the one cell at cos(theta) = 2.8e-16,
        # whose powers stay normal floats
        for cell_alpha in (1.0, ALPHA_825_DBI):
            sc = link(theta_t_deg=math.nextafter(90.0, 0.0), cell_alpha=cell_alpha)
            tx = antenna_points(1.0, sc.placement.theta_t_deg, 0.0)[0].tolist()
            cosine = tx[2] / math.hypot(*tx)
            assert 0.0 < cosine < 1e-15
            assert combined_pattern(sc)[0, 0] == pytest.approx(cosine**cell_alpha, rel=1e-12)


class TestGainConversion:
    """The directive gain of a cosine-power pattern is G = 2 * (alpha + 1)."""

    def test_alpha_one_gives_gain_four(self):
        assert alpha_from_gain_dbi(10 * math.log10(4.0)) == pytest.approx(1.0, rel=1e-12)
        assert 10 * math.log10(2 * (1.0 + 1)) == pytest.approx(6.0206, abs=1e-4)

    def test_alpha_zero_floor(self):
        assert alpha_from_gain_dbi(10 * math.log10(2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_floor_is_the_range_end(self):
        # the RANGES floor of the gains gives alpha 0; one ulp below it, and
        # NaN, are refused with the floor in full: it used to read "gain nan
        # dBi is below the 3.0103 dBi floor of the cosine-power pattern family"
        assert alpha_from_gain_dbi(MIN_GAIN_DBI) == 0.0
        for gain, shown in ((math.nextafter(MIN_GAIN_DBI, 0.0), "3.0102999566398116"),
                            (math.nan, "nan")):
            with pytest.raises(ConfigError) as excinfo:
                alpha_from_gain_dbi(gain)
            assert str(excinfo.value) == (f"gain must lie in [3.010299956639812, inf) dBi, "
                                          f"got {shown}")

    def test_inverse_at_825_dbi(self):
        alpha = alpha_from_gain_dbi(8.25)
        assert alpha == pytest.approx(ALPHA_825_DBI, rel=1e-12)
        assert 10 * math.log10(2 * (alpha + 1)) == pytest.approx(8.25, rel=1e-12)

    def test_round_trip(self):
        for alpha in (0.0, 0.5, 1.0, 2.3417, 9.0):
            dbi = 10 * math.log10(2 * (alpha + 1))
            assert alpha_from_gain_dbi(dbi) == pytest.approx(alpha, rel=1e-12, abs=1e-12)

    def test_below_floor_raises(self):
        with pytest.raises(ValueError, match=r"^gain must lie in \[3.010299956639812, inf\) dBi, "
                                             r"got 2.9$"):
            alpha_from_gain_dbi(2.9)

    def test_gain_integral_consistency(self):
        # quadrature of the defining integral reproduces 2*(alpha+1) within 0.1%
        for alpha in (0.0, 1.0, ALPHA_825_DBI):
            integral, _ = quad(lambda th: math.cos(th) ** alpha * math.sin(th), 0.0, math.pi / 2)
            gain = 4.0 * math.pi / (2.0 * math.pi * integral)
            assert gain == pytest.approx(2 * (alpha + 1), rel=1e-3)


class TestRadioConfig:
    def test_rejects_below_floor_gain(self):
        with pytest.raises(ValueError, match=r"^radio.gain_tx_dbi must lie in "
                                             r"\[3.010299956639812, 40\] dBi, got 2$"):
            RadioConfig(freq_ghz=SPEED_OF_LIGHT / (0.1 * 1e9), tx_power_dbm=0.0, gain_tx_dbi=2.0,
                        gain_rx_dbi=8.0)

    @pytest.mark.parametrize("freq_ghz, shown", [
        (0.0, "0"), (math.nextafter(1e4, math.inf), "10000.000000000002")],
        ids=["zero", "one-ulp-above"])
    def test_refuses_a_frequency_as_passed(self, freq_ghz, shown):
        # the frequency is held to its range, and shown, as passed
        with pytest.raises(ValueError) as excinfo:
            RadioConfig(freq_ghz=freq_ghz, tx_power_dbm=0.0, gain_tx_dbi=8.0, gain_rx_dbi=8.0)
        assert str(excinfo.value) == f"radio.freq_ghz must lie in [0.1, 10000] GHz, got {shown}"

    def test_alpha_properties(self):
        radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (0.1 * 1e9), tx_power_dbm=0.0,
                            gain_tx_dbi=8.25, gain_rx_dbi=6.0206)
        assert radio.alpha_tx == pytest.approx(ALPHA_825_DBI, rel=1e-9)
        assert radio.alpha_rx == pytest.approx(1.0, abs=1e-5)


class TestCombinedPattern:
    # F_combine recovered from the link amplitudes

    def test_all_boresight_gives_one(self):
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=5.0, d2_m=5.0, theta_t_deg=0.0, phi_t_deg=0.0, theta_r_deg=0.0,
                              phi_r_deg=0.0)
        radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (0.1 * 1e9), tx_power_dbm=0.0,
                            gain_tx_dbi=8.25, gain_rx_dbi=8.25, cell_alpha=0.0)
        combined = combined_pattern(Scenario(panel=panel, placement=placement, radio=radio))
        assert combined[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_zeroes_entry(self):
        # Rx close to the surface and near its plane: cells beyond the Rx
        # sit more than 90 degrees off the Rx boresight
        panel = RisPanel(rows=8, cols=8, cell_dx_m=0.2, cell_dy_m=0.2,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=5.0, d2_m=0.6, theta_t_deg=5.7, phi_t_deg=0.0,
                              theta_r_deg=89.99999994, phi_r_deg=0.0)
        radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (0.1 * 1e9), tx_power_dbm=0.0,
                            gain_tx_dbi=6.0206, gain_rx_dbi=6.0206, cell_alpha=1.0)
        combined = combined_pattern(Scenario(panel=panel, placement=placement, radio=radio))
        x, y = np.meshgrid(*cell_center_axes(panel))
        rx, ry, rz = antenna_points(placement.d2_m, placement.theta_r_deg, placement.phi_r_deg)[0]
        # boresight -rx; the cell direction c - rx is 90+ degrees off it
        cut = rx * (rx - x) + ry * (ry - y) + rz * rz <= 0.0
        assert np.any(cut)
        assert np.all(combined[cut] == 0.0)
        assert np.all((combined >= 0.0) & (combined <= 1.0))

    def test_center_cell_of_reference_surface(self):
        # four factors brute-forced for the cell nearest the center at
        # d1 = d2 = 10 m, 45-degree mirror geometry, 8.25 dBi antennas
        sc = ris_2p6ghz()
        center = combined_pattern(sc)[sc.panel.rows // 2 - 1, sc.panel.cols // 2 - 1]
        assert center == pytest.approx(0.49998125159397155, rel=1e-12)
        assert center == pytest.approx(0.5, abs=1e-4)
