"""Cell placement, path lengths, local angles, and wave-path differences."""

import dataclasses
import importlib.util
import math

import numpy as np
import pytest
from conftest import aperture_radius, combined_pattern, path_lengths, wave_path_difference

import risbeam
from risbeam import Placement, RadioConfig, RisPanel, Scenario, ris_2p6ghz
from risbeam.geometry import THETA_LIMIT, _outer_sum, antenna_points, cell_center_axes
from risbeam.scenario import MIN_GAIN_DBI, SPEED_OF_LIGHT

LAMBDA = 1.0


def panel_16x32(d=LAMBDA / 2, bits=1):
    return RisPanel(rows=32, cols=16, cell_dx_m=d, cell_dy_m=d, bits=bits, levels_deg=(0.0, 180.0))


def near_field_placement(scale=10 * LAMBDA):
    return Placement(
        d1_m=scale, d2_m=scale,
        theta_t_deg=45.0, phi_t_deg=0.0,
        theta_r_deg=45.0, phi_r_deg=180.0,
    )


class TestRisPanel:
    def test_level_count_enforced(self):
        with pytest.raises(ValueError, match="phase levels"):
            RisPanel(rows=2, cols=2, cell_dx_m=0.1, cell_dy_m=0.1, bits=2, levels_deg=(0.0, 180.0))

    def test_level_spacing_enforced(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            RisPanel(rows=2, cols=2, cell_dx_m=0.1, cell_dy_m=0.1, bits=1, levels_deg=(0.0, 115.0))

    def test_level_spacing_wraps_around_two_pi(self):
        # descending-looking pair is still one interval apart mod 2*pi
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1, bits=1,
                         levels_deg=(235.0, 55.0))
        assert panel.num_levels == 2

    def test_levels_are_the_degrees_in_radians(self):
        # levels is derived from levels_deg, so a replaced panel carries no
        # cached radians of the panel it was copied from
        panel = ris_2p6ghz().panel
        assert panel.levels == (math.radians(55.0), math.radians(235.0))
        moved = dataclasses.replace(panel, levels_deg=(-90.0, 450.0))
        assert moved.levels == (3 * math.pi / 2, math.pi / 2)
        assert dataclasses.replace(moved, bits=1).levels == moved.levels
        assert panel.levels == (math.radians(55.0), math.radians(235.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=0, cols=2, cell_dx_m=0.1, cell_dy_m=0.1, bits=1, levels_deg=(0.0, 180.0)),
            dict(rows=2, cols=2, cell_dx_m=-0.1, cell_dy_m=0.1, bits=1, levels_deg=(0.0, 180.0)),
            dict(rows=2, cols=2, cell_dx_m=0.1, cell_dy_m=0.1, bits=0, levels_deg=()),
            dict(rows=2, cols=2, cell_dx_m=0.1, cell_dy_m=0.1,
                 bits=1, levels_deg=(0.0, 180.0), reflection=0.0),
            dict(rows=2, cols=2, cell_dx_m=0.1, cell_dy_m=0.1,
                 bits=1, levels_deg=(0.0, 180.0), reflection=1.5),
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
            Placement(d1_m=1.0, d2_m=1.0, theta_t_deg=0.0, phi_t_deg=0.0,
                      theta_r_deg=90.0, phi_r_deg=0.0)

    @pytest.mark.parametrize("name, angle, message", [
        ("theta_t", 100.0, "placement.theta_t_deg must lie in [0, 90) deg, got 100"),
        ("theta_r", -1e-3, "placement.theta_r_deg must lie in [0, 90) deg, got -0.001"),
        ("phi_t", math.nan, "placement.phi_t_deg must be finite, got nan"),
        ("phi_r", -math.inf, "placement.phi_r_deg must be finite, got -inf"),
    ], ids=["theta_t", "theta_r", "phi_t", "phi_r"])
    def test_refusals_name_the_file_key(self, name, angle, message):
        # the angle as a scenario file gives it, in degrees: the fields hold
        # the file's degrees, so no conversion moves the value printed
        angles = {"theta_t_deg": 0.0, "phi_t_deg": 0.0, "theta_r_deg": 0.0, "phi_r_deg": 0.0,
                  f"{name}_deg": angle}
        with pytest.raises(ValueError) as excinfo:
            Placement(d1_m=1.0, d2_m=1.0, **angles)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("section, old, new", [
        ("panel", "d_x", "cell_dx_m"), ("panel", "d_y", "cell_dy_m"),
        ("panel", "levels", "levels_deg"), ("placement", "d1", "d1_m"),
        ("placement", "d2", "d2_m")])
    def test_a_field_named_without_its_unit_fails(self, section, old, new):
        # each field is its file key, unit included, so a caller still
        # passing d2= or radians as levels= fails instead of being misread
        config = getattr(ris_2p6ghz(), section)
        values = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        values[old] = values.pop(new)
        with pytest.raises(TypeError):
            type(config)(**values)

    def test_radians_passed_by_keyword_fail(self):
        # the fields carry their unit in their name, so a caller still
        # passing radians as theta_t= fails instead of placing at 0.785 deg
        with pytest.raises(TypeError):
            Placement(d1_m=1.0, d2_m=1.0, theta_t=math.pi / 4, phi_t=0.0,
                      theta_r=math.pi / 4, phi_r=math.pi)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="d1"):
            Placement(d1_m=0.0, d2_m=1.0, theta_t_deg=0.0, phi_t_deg=0.0, theta_r_deg=0.0,
                      phi_r_deg=0.0)


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
        assert x == pytest.approx(panel.cell_dx_m / 2)
        assert y == pytest.approx(panel.cell_dy_m / 2)

    def test_two_by_two_centers(self):
        panel = RisPanel(rows=2, cols=2, cell_dx_m=1.0, cell_dy_m=1.0,
                         bits=1, levels_deg=(0.0, 180.0))
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
        x, y, z = antenna_points(10.0, 45.0, 0.0)[0]
        assert x == pytest.approx(7.0711, abs=1e-4)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(7.0711, abs=1e-4)

    def test_opposite_azimuth(self):
        x, _, z = antenna_points(10.0, 45.0, 180.0)[0]
        assert x == pytest.approx(-7.0711, abs=1e-4)
        assert z == pytest.approx(7.0711, abs=1e-4)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.1, 100.0, size=50)
        points = antenna_points(d, rng.uniform(0, 90.0, size=50),
                                rng.uniform(0, 360.0, size=50))
        assert points.shape == (50, 3)
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), d, rtol=1e-12)

    def test_grazing_elevation_clamped_above_the_plane(self):
        z = antenna_points(1.0, 90.0, 0.0)[0, 2]
        assert z == math.cos(THETA_LIMIT) > 0.0

    def test_azimuth_taken_mod_360(self):
        # the degrees become radians, then wrap_angle takes them into [0, 2*pi)
        phi = np.array([-90.0, 270.0, 630.0, -1e-20, 0.0])
        points = antenna_points(np.full(5, 10.0), np.full(5, 30.0), phi)
        np.testing.assert_allclose(points[:3], np.tile(points[1], (3, 1)), rtol=0, atol=1e-14)
        assert np.array_equal(points[3], points[4])


class TestPathLengths:
    def test_single_cell_at_origin(self):
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=10.0, d2_m=5.0, theta_t_deg=17.0, phi_t_deg=57.0,
                              theta_r_deg=11.5, phi_r_deg=114.5)
        r_t, r_r = path_lengths(panel, placement)
        assert r_t[0, 0] == pytest.approx(10.0, rel=1e-15)
        assert r_r[0, 0] == pytest.approx(5.0, rel=1e-15)

    def test_corner_matches_closed_form(self):
        # hand-expanded distance formula for the (1, 1) corner cell
        panel = panel_16x32()
        placement = near_field_placement()
        r_t, _ = path_lengths(panel, placement)
        d1, tt, pt = (placement.d1_m, math.radians(placement.theta_t_deg),
                      math.radians(placement.phi_t_deg))
        expected = math.sqrt(
            (d1 * math.sin(tt) * math.cos(pt) - panel.cell_dx_m * (panel.cols - 1) / 2) ** 2
            + (d1 * math.sin(tt) * math.sin(pt) - panel.cell_dy_m * (panel.rows - 1) / 2) ** 2
            + (d1 * math.cos(tt)) ** 2
        )
        assert r_t[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(11.00418063333245, rel=1e-12)

    def test_far_limit_bound(self):
        panel = panel_16x32()
        placement = Placement(d1_m=1e6, d2_m=1e6, theta_t_deg=11.5, phi_t_deg=0.0,
                              theta_r_deg=17.0, phi_r_deg=172.0)
        r_t, r_r = path_lengths(panel, placement)
        assert np.max(np.abs(r_t - placement.d1_m)) <= aperture_radius(panel)
        assert np.max(np.abs(r_r - placement.d2_m)) <= aperture_radius(panel)

    def test_total_path_within_aperture_band(self):
        panel = panel_16x32()
        placement = near_field_placement(scale=1e4 * aperture_radius(panel))
        r_t, r_r = path_lengths(panel, placement)
        deviation = np.abs(r_t + r_r - (placement.d1_m + placement.d2_m))
        assert np.max(deviation) <= 2 * aperture_radius(panel)

    def test_phase_spread_shrinks_with_distance(self):
        panel = panel_16x32()
        spreads = []
        for scale in (1e4, 1e5, 1e6):
            placement = near_field_placement(scale=scale * aperture_radius(panel))
            r_t, r_r = path_lengths(panel, placement)
            spreads.append(2 * math.pi * np.ptp(r_t + r_r) / LAMBDA)
        assert spreads[0] > spreads[1] > spreads[2]


def link(panel, placement, gain_dbi=8.25):
    radio = RadioConfig(freq_ghz=SPEED_OF_LIGHT / (LAMBDA * 1e9), tx_power_dbm=0.0,
                        gain_tx_dbi=gain_dbi, gain_rx_dbi=gain_dbi, cell_alpha=1.0)
    return Scenario(panel=panel, placement=placement, radio=radio)


class TestOuterSum:
    @pytest.mark.parametrize("shape", [(1, 32, 16), (3, 5, 7), (128, 32, 16), (2, 1, 300),
                                       (2, 200, 170), (2, 300, 256)])
    def test_bytes_equal_the_broadcast_add(self, shape):
        # the batched product rounds each sum once, as np.add does, over
        # magnitudes from 1e-300 to 1e300 of either sign, at any shape; one
        # point takes np.add itself
        rng = np.random.default_rng(sum(shape))
        count, rows, cols = shape
        a = rng.standard_normal((count, cols)) * 10.0 ** rng.uniform(-300, 300, (count, cols))
        b = rng.standard_normal((count, rows)) * 10.0 ** rng.uniform(-300, 300, (count, rows))
        out = np.empty(shape)
        _outer_sum(a, b, out)
        assert out.tobytes() == (a[:, None, :] + b[:, :, None]).tobytes()

    def test_several_points_only_up_to_2_15_cells(self, monkeypatch):
        # a map puts several points in a chunk only on panels of at most
        # 2**15 cells, which keeps each batched product below the 2**18
        # multiply-adds from which OpenBLAS splits it over threads of its own
        import risbeam.geometry as geometry
        from risbeam.channel import field_at_rx_points

        shapes = []

        def recording(a, b, out):
            shapes.append(out.shape)
            return _outer_sum(a, b, out)

        monkeypatch.setattr(geometry, "_outer_sum", recording)
        rx = antenna_points(np.full(5, 10.0), [0.0, 10.0, 20.0, 30.0, 40.0], 0.0)
        for rows in (128, 129):
            panel = RisPanel(rows=rows, cols=256, cell_dx_m=0.5, cell_dy_m=0.5, bits=1,
                             levels_deg=(0.0, 180.0))
            field_at_rx_points(link(panel, near_field_placement()), np.zeros((rows, 256)), rx)
        several = {rows * cols for count, rows, cols in shapes if count > 1}
        assert several == {1 << 15}
        assert (1, 129, 256) in shapes

    def test_special_values(self):
        # subnormals and infinities add as np.add does; only a sum of two -0
        # comes out +0 (numpy gives -0), which no path length or logarithm
        # of a boresight numerator can tell apart
        a = np.array([[-0.0, 0.0, 5e-324, -5e-324, np.inf, 1.0]] * 2)
        b = np.array([[-0.0, 0.0, -5e-324, -1e308]] * 2)
        out = np.empty((2, 4, 6))
        _outer_sum(a, b, out)
        expected = a[:, None, :] + b[:, :, None]
        assert np.array_equal(out, expected)
        differs = np.signbit(out) != np.signbit(expected)
        assert differs.sum() == 2 and differs[:, 0, 0].all()


class TestLocalAngles:
    # elevations enter the model only through the pattern product
    # F_combine = F_tx * F_cell(theta_t_cell) * F_cell(theta_r_cell) * F_rx

    def test_normal_incidence(self):
        # every elevation is 0 when Tx and Rx sit on the normal of a lone cell
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=10.0, d2_m=10.0, theta_t_deg=0.0, phi_t_deg=0.0, theta_r_deg=0.0,
                              phi_r_deg=0.0)
        assert combined_pattern(link(panel, placement))[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_boresight_cell_sees_antenna_on_axis(self):
        # single cell at the surface center: the antenna boresights pass
        # through it, so only the cell factors cos(theta_t), cos(theta_r) remain
        panel = RisPanel(rows=1, cols=1, cell_dx_m=0.1, cell_dy_m=0.1,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=3.0, d2_m=7.0, theta_t_deg=40.0, phi_t_deg=63.0,
                              theta_r_deg=23.0, phi_r_deg=286.5)
        combined = combined_pattern(link(panel, placement))
        expected = math.cos(math.radians(40.0)) * math.cos(math.radians(23.0))
        assert combined[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_angle_ranges(self):
        combined = combined_pattern(link(panel_16x32(), near_field_placement()))
        assert np.all(combined >= 0.0) and np.all(combined <= 1.0 + 1e-12)

    def test_departure_spread_at_ten_meters(self):
        # brute-forced over all 512 cells of the 2.6 GHz surface at d2 = 10 m.
        # With the Tx placed at the Rx and alpha = 0 antennas, F_combine is
        # cos(theta_r_cell)**2 for cell_alpha = 1.
        lam = 299792458.0 / 2.6e9
        panel = RisPanel(rows=32, cols=16, cell_dx_m=lam / 2, cell_dy_m=lam / 2, bits=1,
                         levels_deg=(55.0, 235.0))
        placement = Placement(d1_m=10.0, d2_m=10.0, theta_t_deg=45.0, phi_t_deg=180.0,
                              theta_r_deg=45.0, phi_r_deg=180.0)
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
        panel = RisPanel(rows=4, cols=4, cell_dx_m=0.3, cell_dy_m=0.3,
                         bits=1, levels_deg=(0.0, 180.0))
        placement = Placement(d1_m=5.0, d2_m=5.0, theta_t_deg=34.0, phi_t_deg=0.0,
                              theta_r_deg=34.0, phi_r_deg=180.0)
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
    # a name deleted from a module must not linger in risbeam.__all__; the
    # package resolves its exports lazily, and a star import, dir() and an
    # unknown name behave as they would for eagerly imported names
    spec = importlib.util.spec_from_file_location("unresolved", risbeam.__file__)
    unresolved = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unresolved)  # a copy of the package with no export resolved
    assert set(unresolved.__all__) <= set(dir(unresolved))
    assert [name for name in risbeam.__all__ if not hasattr(risbeam, name)] == []
    namespace: dict = {}
    exec("from risbeam import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(risbeam.__all__)
    with pytest.raises(AttributeError, match="'no_such_export'"):
        risbeam.no_such_export
