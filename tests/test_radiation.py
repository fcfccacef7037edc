"""Cosine-power patterns and gain conversions."""

import math

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
    cosine_pattern,
    gain_from_alpha,
    ris_2p6ghz,
)
from risbeam.geometry import antenna_points, cell_center_axes

ALPHA_825_DBI = 2.3417195878430728


class TestCosinePattern:
    # the pattern is evaluated from cos(theta)

    def test_boresight_is_one(self):
        assert cosine_pattern(1.0, 2.34) == 1.0
        # cosines a rounding step above 1 are clipped
        assert cosine_pattern(1.0 + 4e-16, 2.34) == 1.0

    def test_sixty_degrees_alpha_one(self):
        assert cosine_pattern(math.cos(math.pi / 3), 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_cutoff_region(self):
        assert cosine_pattern(math.cos(1.6), 1.0) == 0.0
        assert cosine_pattern(0.0, 5.0) == 0.0

    def test_alpha_zero_is_flat_until_cutoff(self):
        assert cosine_pattern(math.cos(1.2), 0.0) == 1.0
        assert cosine_pattern(0.0, 0.0) == 0.0

    def test_monotone_nonincreasing(self):
        theta = np.linspace(0.0, math.pi / 2 - 1e-9, 500)
        for alpha in (0.0, 1.0, ALPHA_825_DBI):
            values = cosine_pattern(np.cos(theta), alpha)
            assert np.all(np.diff(values) <= 0.0)
            assert values[0] == 1.0
            assert np.all((values >= 0.0) & (values <= 1.0))

    def test_matches_boolean_index_form(self):
        # bit for bit the gather/scatter form: zeros, then arr[visible] ** alpha
        rng = np.random.default_rng(12)
        cosines = np.concatenate([rng.uniform(-1.5, 1.5, 4097), [0.0, -0.0, 1.0, -1.0]])
        for alpha in (0.0, 0.5, 1.0, 2.0, ALPHA_825_DBI, 3.5, 10.0):
            clipped = np.clip(cosines, -1.0, 1.0)
            expected = np.zeros_like(clipped)
            visible = clipped > 0.0
            expected[visible] = clipped[visible] ** alpha
            assert cosine_pattern(cosines, alpha).tobytes() == expected.tobytes()

    def test_alpha_zero_cutoff_is_exact(self):
        cosines = np.array([1.5, 1.0, 0.3, 1e-300, 0.0, -0.0, -1e-300, -0.7, -1.5])
        values = cosine_pattern(cosines, 0.0)
        assert values.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert not np.any(np.signbit(values))

    def test_scalar_input(self):
        value = cosine_pattern(0.5, 2.0)
        assert np.ndim(value) == 0
        assert value == 0.25
        assert cosine_pattern(-0.5, 2.0) == 0.0

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="exponent"):
            cosine_pattern(0.9, -0.5)


class TestGainConversion:
    def test_alpha_one_gives_gain_four(self):
        assert gain_from_alpha(1.0) == 4.0
        assert 10 * math.log10(gain_from_alpha(1.0)) == pytest.approx(6.0206, abs=1e-4)

    def test_alpha_zero_floor(self):
        assert gain_from_alpha(0.0) == 2.0
        with pytest.raises(ValueError, match="exponent"):
            gain_from_alpha(-0.1)

    def test_inverse_at_825_dbi(self):
        alpha = alpha_from_gain_dbi(8.25)
        assert alpha == pytest.approx(ALPHA_825_DBI, rel=1e-12)
        assert 10 * math.log10(gain_from_alpha(alpha)) == pytest.approx(8.25, rel=1e-12)

    def test_round_trip(self):
        for alpha in (0.0, 0.5, 1.0, 2.3417, 9.0):
            dbi = 10 * math.log10(gain_from_alpha(alpha))
            assert alpha_from_gain_dbi(dbi) == pytest.approx(alpha, rel=1e-12, abs=1e-12)

    def test_below_floor_raises(self):
        with pytest.raises(ValueError, match="floor"):
            alpha_from_gain_dbi(2.9)

    def test_gain_integral_consistency(self):
        # quadrature of the defining integral reproduces 2*(alpha+1) within 0.1%
        for alpha in (0.0, 1.0, ALPHA_825_DBI):
            integral, _ = quad(lambda th: math.cos(th) ** alpha * math.sin(th), 0.0, math.pi / 2)
            gain = 4.0 * math.pi / (2.0 * math.pi * integral)
            assert gain == pytest.approx(gain_from_alpha(alpha), rel=1e-3)


class TestRadioConfig:
    def test_rejects_below_floor_gain(self):
        with pytest.raises(ValueError, match="floor"):
            RadioConfig(wavelength=0.1, tx_power_dbm=0.0, gain_tx_dbi=2.0, gain_rx_dbi=8.0)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ValueError, match="wavelength"):
            RadioConfig(wavelength=0.0, tx_power_dbm=0.0, gain_tx_dbi=8.0, gain_rx_dbi=8.0)

    def test_alpha_properties(self):
        radio = RadioConfig(wavelength=0.1, tx_power_dbm=0.0, gain_tx_dbi=8.25, gain_rx_dbi=6.0206)
        assert radio.alpha_tx == pytest.approx(ALPHA_825_DBI, rel=1e-9)
        assert radio.alpha_rx == pytest.approx(1.0, abs=1e-5)
        assert radio.gain_tx_linear == pytest.approx(10 ** 0.825, rel=1e-12)


class TestCombinedPattern:
    # F_combine recovered from the link amplitudes

    def test_all_boresight_gives_one(self):
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=5.0, d2=5.0, theta_t=0.0, phi_t=0.0, theta_r=0.0, phi_r=0.0)
        radio = RadioConfig(wavelength=0.1, tx_power_dbm=0.0, gain_tx_dbi=8.25,
                            gain_rx_dbi=8.25, cell_alpha=0.0)
        combined = combined_pattern(Scenario(panel=panel, placement=placement, radio=radio))
        assert combined[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_zeroes_entry(self):
        # Rx close to the surface and near its plane: cells beyond the Rx
        # sit more than 90 degrees off the Rx boresight
        panel = RisPanel(rows=8, cols=8, d_x=0.2, d_y=0.2, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=5.0, d2=0.6, theta_t=0.1, phi_t=0.0,
                              theta_r=math.pi / 2 - 1e-9, phi_r=0.0)
        radio = RadioConfig(wavelength=0.1, tx_power_dbm=0.0, gain_tx_dbi=6.0206,
                            gain_rx_dbi=6.0206, cell_alpha=1.0)
        combined = combined_pattern(Scenario(panel=panel, placement=placement, radio=radio))
        x, y = np.meshgrid(*cell_center_axes(panel))
        rx, ry, rz = antenna_points(placement.d2, placement.theta_r, placement.phi_r)[0]
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
