"""Cell placement, path lengths, local angles, and wave-path differences."""

import math

import numpy as np
import pytest
from conftest import combined_pattern, path_lengths

import risbeam
from risbeam import (
    Placement,
    RadioConfig,
    RisPanel,
    Scenario,
    wave_path_difference,
)
from risbeam.geometry import THETA_LIMIT, antenna_points, cell_center_axes
from risbeam.radiation import MIN_GAIN_DBI

LAMBDA = 1.0


def panel_16x32(d=LAMBDA / 2, bits=1):
    return RisPanel(rows=32, cols=16, d_x=d, d_y=d, bits=bits, levels=(0.0, math.pi))


def near_field_placement(scale=10 * LAMBDA):
    return Placement(
        d1=scale, d2=scale,
        theta_t=math.pi / 4, phi_t=0.0,
        theta_r=math.pi / 4, phi_r=math.pi,
    )


class TestRisPanel:
    def test_level_count_enforced(self):
        with pytest.raises(ValueError, match="phase levels"):
            RisPanel(rows=2, cols=2, d_x=0.1, d_y=0.1, bits=2, levels=(0.0, math.pi))

    def test_level_spacing_enforced(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            RisPanel(rows=2, cols=2, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, 2.0))

    def test_level_spacing_wraps_mod_two_pi(self):
        # descending-looking pair is still one interval apart mod 2*pi
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=1,
                         levels=(math.radians(235), math.radians(55)))
        assert panel.num_levels == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=0, cols=2, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi)),
            dict(rows=2, cols=2, d_x=-0.1, d_y=0.1, bits=1, levels=(0.0, math.pi)),
            dict(rows=2, cols=2, d_x=0.1, d_y=0.1, bits=0, levels=()),
            dict(rows=2, cols=2, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi), reflection=0.0),
            dict(rows=2, cols=2, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi), reflection=1.5),
        ],
    )
    def test_invalid_panel(self, kwargs):
        with pytest.raises(ValueError):
            RisPanel(**kwargs)

    def test_omega(self):
        assert panel_16x32(bits=1).omega == pytest.approx(math.pi)


class TestPlacement:
    def test_rejects_grazing_elevation(self):
        with pytest.raises(ValueError, match="theta_r"):
            Placement(d1=1.0, d2=1.0, theta_t=0.0, phi_t=0.0,
                      theta_r=math.pi / 2, phi_r=0.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="d1"):
            Placement(d1=0.0, d2=1.0, theta_t=0.0, phi_t=0.0, theta_r=0.0, phi_r=0.0)


def cell_xy(n, m, panel):
    """(x, y) of cell (n, m), read off the cell-center axes."""
    x, y = cell_center_axes(panel)
    return float(x[n - 1]), float(y[m - 1])


class TestCellCenter:
    def test_corner_cell_of_16x32(self):
        x, y = cell_xy(1, 1, panel_16x32())
        assert x == pytest.approx(3.75 * LAMBDA)
        assert y == pytest.approx(7.75 * LAMBDA)

    def test_center_adjacent_cell(self):
        panel = panel_16x32()
        x, y = cell_xy(panel.cols // 2, panel.rows // 2, panel)
        assert x == pytest.approx(panel.d_x / 2)
        assert y == pytest.approx(panel.d_y / 2)

    def test_two_by_two_centers(self):
        panel = RisPanel(rows=2, cols=2, d_x=1.0, d_y=1.0, bits=1, levels=(0.0, math.pi))
        centers = {cell_xy(n, m, panel) for n in (1, 2) for m in (1, 2)}
        assert centers == {(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)}

    def test_grid_symmetry_even_counts(self):
        x, y = np.meshgrid(*cell_center_axes(panel_16x32()))
        assert x.sum() == 0.0
        assert y.sum() == 0.0


class TestSphericalToCartesian:
    # antenna_points: range d, elevation theta from +z, azimuth phi from +x

    def test_boresight(self):
        assert antenna_points(1.0, 0.0, 0.0).tolist() == [[0.0, 0.0, 1.0]]

    def test_forty_five_degrees(self):
        x, y, z = antenna_points(10.0, math.pi / 4, 0.0)[0]
        assert x == pytest.approx(7.0711, abs=1e-4)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(7.0711, abs=1e-4)

    def test_opposite_azimuth(self):
        x, _, z = antenna_points(10.0, math.pi / 4, math.pi)[0]
        assert x == pytest.approx(-7.0711, abs=1e-4)
        assert z == pytest.approx(7.0711, abs=1e-4)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.1, 100.0, size=50)
        points = antenna_points(d, rng.uniform(0, math.pi / 2, size=50),
                                rng.uniform(0, 2 * math.pi, size=50))
        assert points.shape == (50, 3)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), d, rtol=1e-12)

    def test_grazing_elevation_clamped_above_the_plane(self):
        z = antenna_points(1.0, math.pi / 2, 0.0)[0, 2]
        assert z == math.cos(THETA_LIMIT) > 0.0


class TestPathLengths:
    def test_single_cell_at_origin(self):
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=10.0, d2=5.0, theta_t=0.3, phi_t=1.0, theta_r=0.2, phi_r=2.0)
        r_t, r_r = path_lengths(panel, placement)
        assert r_t[0, 0] == pytest.approx(10.0, rel=1e-15)
        assert r_r[0, 0] == pytest.approx(5.0, rel=1e-15)

    def test_corner_matches_closed_form(self):
        # hand-expanded distance formula for the (1, 1) corner cell
        panel = panel_16x32()
        placement = near_field_placement()
        r_t, _ = path_lengths(panel, placement)
        d1, tt, pt = placement.d1, placement.theta_t, placement.phi_t
        expected = math.sqrt(
            (d1 * math.sin(tt) * math.cos(pt) - panel.d_x * (panel.cols - 1) / 2) ** 2
            + (d1 * math.sin(tt) * math.sin(pt) - panel.d_y * (panel.rows - 1) / 2) ** 2
            + (d1 * math.cos(tt)) ** 2
        )
        assert r_t[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(11.00418063333245, rel=1e-12)

    def test_far_limit_bound(self):
        panel = panel_16x32()
        placement = Placement(d1=1e6, d2=1e6, theta_t=0.2, phi_t=0.0, theta_r=0.3, phi_r=3.0)
        r_t, r_r = path_lengths(panel, placement)
        assert np.max(np.abs(r_t - placement.d1)) <= panel.aperture_radius
        assert np.max(np.abs(r_r - placement.d2)) <= panel.aperture_radius

    def test_total_path_within_aperture_band(self):
        panel = panel_16x32()
        placement = near_field_placement(scale=1e4 * panel.aperture_radius)
        r_t, r_r = path_lengths(panel, placement)
        deviation = np.abs(r_t + r_r - (placement.d1 + placement.d2))
        assert np.max(deviation) <= 2 * panel.aperture_radius

    def test_phase_spread_shrinks_with_distance(self):
        panel = panel_16x32()
        spreads = []
        for scale in (1e4, 1e5, 1e6):
            placement = near_field_placement(scale=scale * panel.aperture_radius)
            r_t, r_r = path_lengths(panel, placement)
            spreads.append(2 * math.pi * np.ptp(r_t + r_r) / LAMBDA)
        assert spreads[0] > spreads[1] > spreads[2]


def link(panel, placement, gain_dbi=8.25):
    radio = RadioConfig(wavelength=LAMBDA, tx_power_dbm=0.0, gain_tx_dbi=gain_dbi,
                        gain_rx_dbi=gain_dbi, cell_alpha=1.0)
    return Scenario(panel=panel, placement=placement, radio=radio)


class TestLocalAngles:
    # elevations enter the model only through the pattern product
    # F_combine = F_tx * F_cell(theta_t_cell) * F_cell(theta_r_cell) * F_rx

    def test_normal_incidence(self):
        # every elevation is 0 when Tx and Rx sit on the normal of a lone cell
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=10.0, d2=10.0, theta_t=0.0, phi_t=0.0, theta_r=0.0, phi_r=0.0)
        assert combined_pattern(link(panel, placement))[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_boresight_cell_sees_antenna_on_axis(self):
        # single cell at the surface center: the antenna boresights pass
        # through it, so only the cell factors cos(theta_t), cos(theta_r) remain
        panel = RisPanel(rows=1, cols=1, d_x=0.1, d_y=0.1, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=3.0, d2=7.0, theta_t=0.7, phi_t=1.1, theta_r=0.4, phi_r=5.0)
        combined = combined_pattern(link(panel, placement))
        assert combined[0, 0] == pytest.approx(math.cos(0.7) * math.cos(0.4), rel=1e-12)

    def test_angle_ranges(self):
        combined = combined_pattern(link(panel_16x32(), near_field_placement()))
        assert np.all(combined >= 0.0) and np.all(combined <= 1.0 + 1e-12)

    def test_departure_spread_at_ten_meters(self):
        # brute-forced over all 512 cells of the 2.6 GHz surface at d2 = 10 m.
        # With the Tx placed at the Rx and alpha = 0 antennas, F_combine is
        # cos(theta_r_cell)**2 for cell_alpha = 1.
        lam = 299792458.0 / 2.6e9
        panel = RisPanel(rows=32, cols=16, d_x=lam / 2, d_y=lam / 2, bits=1,
                         levels=(math.radians(55), math.radians(235)))
        placement = Placement(d1=10.0, d2=10.0, theta_t=math.pi / 4, phi_t=math.pi,
                              theta_r=math.pi / 4, phi_r=math.pi)
        combined = combined_pattern(link(panel, placement, gain_dbi=MIN_GAIN_DBI))
        spread = math.degrees(np.ptp(np.arccos(np.sqrt(combined))))
        assert spread == pytest.approx(3.706859450934083, abs=1e-9)
        assert spread <= 8.0


class TestWavePathDifference:
    def test_identical_cells(self):
        assert wave_path_difference(panel_16x32(), near_field_placement(), (3, 5), (3, 5)) == 0.0

    def test_near_field_example(self):
        # 16x32 half-wave cells at 10 wavelengths, 45-degree mirror geometry
        panel = panel_16x32()
        placement = near_field_placement()
        ldif = wave_path_difference(panel, placement, (1, 1), (8, 16))
        assert ldif == pytest.approx(6.066566863418323, rel=1e-12)
        assert abs(ldif - 6.07) <= 0.01

    def test_mirror_symmetric_cells(self):
        panel = RisPanel(rows=4, cols=4, d_x=0.3, d_y=0.3, bits=1, levels=(0.0, math.pi))
        placement = Placement(d1=5.0, d2=5.0, theta_t=0.6, phi_t=0.0,
                              theta_r=0.6, phi_r=math.pi)
        for m in range(1, 5):
            for n in range(1, 5):
                assert wave_path_difference(panel, placement, (n, m), (5 - n, m)) < 1e-12

    def test_pseudometric(self):
        panel = panel_16x32()
        placement = near_field_placement()
        a, b = (2, 3), (9, 20)
        dab = wave_path_difference(panel, placement, a, b)
        dba = wave_path_difference(panel, placement, b, a)
        assert dab == dba
        assert dab >= 0.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            wave_path_difference(panel_16x32(), near_field_placement(), (1, 1), (17, 1))


def test_every_export_resolves():
    # a name deleted from a module must not linger in risbeam.__all__
    assert [name for name in risbeam.__all__ if not hasattr(risbeam, name)] == []
