"""Sweeps, angle scans, power maps, and path-loss slope fits."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risbeam.analysis as analysis
from risbeam import (
    angle_scan,
    eipq,
    field_at_rx_points,
    fixed_threshold,
    gradient_map,
    grid_values,
    link_state,
    path_loss_samples,
    pl_slope_fit,
    power_dbm_from_xi,
    ris_2p6ghz,
    ris_4p9ghz,
    run_sweep,
)
from risbeam.analysis import design
from risbeam.scenario import exact_g

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestGridValues:
    def test_colon_range_distance(self):
        values = grid_values(5.0, 10.0, 0.1)
        assert values.size == 51
        assert values[0] == 5.0
        assert values[-1] == pytest.approx(10.0, abs=1e-12)

    def test_degenerate_single_point(self):
        values = grid_values(3.0, 3.0, 0.5)
        assert values.tolist() == [3.0]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grid_values(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            grid_values(1.0, 0.0, 0.1)
        # a non-finite bound is named before the step is looked at
        with pytest.raises(ValueError, match="--start must be finite, got nan"):
            grid_values(math.nan, 1.0, 0.1)
        with pytest.raises(ValueError, match="--phi-stop must be finite, got inf"):
            grid_values(0.0, math.inf, 2.0, "--phi-step")

    def test_guard_refuses_huge_grids(self):
        # refused before the grid is built; a grid at the guard is accepted
        guard = analysis.GRID_GUARD_POINTS
        assert grid_values(0.0, guard - 1.0, 1.0).size == guard
        with pytest.raises(ValueError, match=f"--step 1 gives {guard + 1} grid points"):
            grid_values(0.0, float(guard), 1.0)
        with pytest.raises(ValueError, match="--theta-step 1e-12 gives 90000000000001 grid"):
            grid_values(0.0, 90.0, 1e-12, "--theta-step")
        with pytest.raises(ValueError, match="inf grid points"):
            grid_values(5.0, 10.0, 5e-324)
        with pytest.raises(ValueError, match="positive"):
            grid_values(5.0, 10.0, math.nan)
        with pytest.raises(ValueError, match="--phi-step must be finite, got inf"):
            grid_values(0.0, 360.0, math.inf, "--phi-step")


class TestSweepSpec:
    """run_sweep refuses a bad axis or method list before it builds a link."""

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            run_sweep(ris_2p6ghz(), "power", grid_values(0, 1, 0.1), ("dtpq",))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            run_sweep(ris_2p6ghz(), "rx_distance", grid_values(5, 10, 1), ("best",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(ris_2p6ghz(), "rx_distance", grid_values(5, 10, 1), ("dtpq", "dtpq"))

    def test_threshold_axis_requires_fixed_only(self):
        with pytest.raises(ValueError, match="fixed"):
            run_sweep(ris_2p6ghz(), "threshold", grid_values(0, 360, 5), ("dtpq",))

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_sweep(ris_2p6ghz(), "rx_distance", grid_values(5, 10, 1), ())


class TestDesign:
    def test_token_parameters_reach_the_searches(self):
        # a token's parameter is the search's argument in degrees; bare eipq
        # takes the default step and bare fixed the panel's last level
        sc = ris_4p9ghz()
        state = link_state(sc)
        cases = [
            ("eipq:3", eipq(state, 3.0)),
            ("eipq", eipq(state, analysis.DEFAULT_EPSILON_DEG)),
            ("fixed:100", fixed_threshold(state, 100.0)),
            ("fixed", fixed_threshold(state, sc.panel.levels_deg[-1])),
        ]
        for token, expected in cases:
            result = design(state, token)
            assert result.threshold_deg == expected.threshold_deg
            assert result.xi == expected.xi
            assert result.received_power_dbm == expected.received_power_dbm
            assert result.candidates_evaluated == expected.candidates_evaluated
            np.testing.assert_array_equal(result.shifts, expected.shifts)
            np.testing.assert_array_equal(result.level_indices, expected.level_indices)
        assert design(state, "fixed").threshold_deg == math.degrees(sc.panel.levels[-1])

    @pytest.mark.parametrize("token", ["dtpq", "eipq:3", "fixed:100", "fixed"])
    def test_shifts_are_the_levels_at_the_level_indices(self, token):
        # a discrete design's radian shifts are its panel levels looked up
        # at its level indices, bit for bit
        sc = ris_4p9ghz()
        result = design(link_state(sc), token)
        assert result.level_indices.dtype == np.intp
        assert result.level_indices.shape == (sc.panel.rows, sc.panel.cols)
        expected = np.take(sc.panel.levels, result.level_indices)
        assert result.shifts.shape == expected.shape
        assert result.shifts.tobytes() == expected.tobytes()

    def test_threshold_a_hair_below_zero_is_zero(self):
        # radians(-1e-20) mod 2*pi rounds up to 2*pi itself; it quantizes at 0
        state = link_state(ris_4p9ghz())
        below, zero = design(state, "fixed:-1e-20"), design(state, "fixed:0")
        assert below.threshold_deg == zero.threshold_deg == 0.0
        assert below.xi == zero.xi
        assert below.received_power_dbm == zero.received_power_dbm
        assert below.shifts.tobytes() == zero.shifts.tobytes()
        assert below.level_indices.tobytes() == zero.level_indices.tobytes()

    def test_continuous_shifts_are_the_link_phases(self):
        state = link_state(ris_4p9ghz())
        result = design(state, "continuous")
        assert result.level_indices is None
        assert result.shifts is state.phase

    @pytest.mark.parametrize("token, message", [
        ("best", "unknown method 'best'"),
        ("dtpq:7", "method 'dtpq' takes no parameter, got 'dtpq:7'"),
        ("eipq:x", "bad parameter in method token 'eipq:x'"),
        ("fixed:", "bad parameter in method token 'fixed:'"),
    ])
    def test_refuses_bad_tokens(self, token, message):
        with pytest.raises(ValueError, match=message):
            design(link_state(ris_2p6ghz()), token)


class TestRunSweep:
    def test_single_point_sweep(self):
        sc = ris_2p6ghz()
        rows = run_sweep(sc, "rx_distance", grid_values(8.0, 8.0, 0.1), ("continuous", "dtpq"))
        assert len(rows) == 1
        assert rows[0].axis_value == 8.0
        state = link_state(sc.with_placement(d2_m=8.0))
        direct = power_dbm_from_xi(sc.panel, sc.radio, state.xi(state.phase))
        assert rows[0].power_dbm["continuous"] == pytest.approx(direct, rel=1e-12)

    def test_method_dominance_per_row(self):
        sc = ris_2p6ghz()
        methods = ("continuous", "dtpq", "eipq:5", "fixed:235")
        for row in run_sweep(sc, "rx_distance", grid_values(5.0, 7.0, 0.5), methods):
            p = row.power_dbm
            assert p["continuous"] >= p["dtpq"] - 1e-9
            assert p["dtpq"] >= p["eipq"] - 1e-9
            assert p["dtpq"] >= p["fixed"] - 1e-9

    def test_tx_distance_axis(self):
        sc = ris_2p6ghz()
        rows = run_sweep(sc, "tx_distance", grid_values(8.0, 12.0, 2.0), ("continuous",))
        assert [r.axis_value for r in rows] == [8.0, 10.0, 12.0]
        # farther Tx, weaker field
        assert rows[0].power_dbm["continuous"] > rows[-1].power_dbm["continuous"]

    def test_threshold_axis_periodicity(self):
        sc = ris_2p6ghz()
        rows = run_sweep(sc, "threshold", grid_values(0.0, 350.0, 10.0), ("fixed",))
        assert len(rows) == 36
        period = 180.0   # 2*pi / 2**1 in degrees
        by_value = {row.axis_value: row.power_dbm["fixed"] for row in rows}
        for gamma in np.arange(0.0, 180.0, 10.0):
            assert by_value[gamma + period] == pytest.approx(by_value[gamma], abs=1e-9)

    @pytest.mark.parametrize("axis, field, grid, to_field", [
        ("rx_distance", "d2_m", (5.0, 7.5, 10.0), float),
        ("tx_distance", "d1_m", (5.0, 7.5, 10.0), float),
        ("theta_r", "theta_r_deg", (10.0, 35.0, 60.0), float),
    ])
    def test_rows_redesign_at_the_moved_placement(self, axis, field, grid, to_field):
        # each row is the method table applied to the link with the one
        # placement field the axis names moved to the grid value
        sc = ris_4p9ghz()
        tokens = {"continuous": "continuous", "dtpq": "dtpq", "eipq": "eipq:3",
                  "fixed": "fixed:100"}
        values = grid_values(grid[0], grid[-1], grid[1] - grid[0])
        rows = run_sweep(sc, axis, values, tuple(tokens.values()))
        assert [row.axis_value for row in rows] == list(grid)
        for row, value in zip(rows, grid):
            state = link_state(sc.with_placement(**{field: to_field(value)}))
            for method, token in tokens.items():
                expected = design(state, token)
                assert row.power_dbm[method] == expected.received_power_dbm
                if expected.threshold_deg is not None:
                    assert row.threshold_deg[method] == expected.threshold_deg

    def test_cli_import_leaves_out_thread_pools(self):
        # sweeps and fits run serially and the field kernel imports its pool
        # only when it splits a large call, so importing the CLI loads none
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, risbeam.cli; print('concurrent.futures' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_validate_and_config_imports_leave_out_numpy(self):
        # the configuration layer is pure Python: validating a scenario and
        # importing the config classes and presets load no numpy
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        code = (
            "import sys\n"
            "from risbeam.cli import run\n"
            "assert run(['validate', '--scenario', sys.argv[1]]) == 0\n"
            "from risbeam import Scenario, RisPanel, Placement, RadioConfig, ris_2p6ghz\n"
            "ris_2p6ghz()\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(SRC).parent / "scenarios" / "ris1_2p6ghz.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestAngleScan:
    def test_continuous_peaks_at_design_target(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, grid_values(30.0, 60.0, 1.0), 45.0, ("continuous",))
        best = max(rows, key=lambda r: r.power_dbm["continuous"])
        assert best.axis_value == pytest.approx(45.0)

    def test_design_once_thresholds_constant(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, grid_values(40.0, 50.0, 2.0), 45.0, ("dtpq", "fixed:235"))
        thresholds = {r.threshold_deg["dtpq"] for r in rows}
        assert len(thresholds) == 1
        assert all(r.threshold_deg["fixed"] == pytest.approx(235.0) for r in rows)

    def test_design_point_matches_static_evaluation(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, grid_values(45.0, 45.0, 1.0), 45.0, ("continuous",))
        state = link_state(sc)
        static = power_dbm_from_xi(sc.panel, sc.radio, state.xi(state.phase))
        assert rows[0].power_dbm["continuous"] == pytest.approx(static, abs=1e-9)

    def test_negative_angles_and_endpoints(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, grid_values(-90.0, 90.0, 45.0), 45.0, ("dtpq",))
        assert [r.axis_value for r in rows] == [-90.0, -45.0, 0.0, 45.0, 90.0]
        powers = [r.power_dbm["dtpq"] for r in rows]
        assert all(math.isfinite(p) for p in powers)
        # pattern cutoff crushes the in-plane endpoints
        assert powers[0] < powers[2] and powers[-1] < powers[2]

    def test_negative_design_target(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, grid_values(-60.0, -30.0, 1.0), -45.0, ("continuous",))
        best = max(rows, key=lambda r: r.power_dbm["continuous"])
        assert best.axis_value == pytest.approx(-45.0)

    def test_rejects_out_of_range_target(self):
        # the target was radians, refused as "... (-pi/2, pi/2), got
        # 1.5707963267948966"; a target one ulp above 90 read "got 90"
        for target, shown in ((90.0, "90"), (90.00000000000001, "90.00000000000001")):
            with pytest.raises(ValueError) as excinfo:
                angle_scan(ris_2p6ghz(), grid_values(0.0, 10.0, 1.0), target, ("dtpq",))
            assert str(excinfo.value) == f"design target must lie in (-90, 90) deg, got {shown}"

    @pytest.mark.parametrize("value", [120.0, -90.5, math.nan, math.inf, 90.00000000000001])
    def test_refuses_a_scan_value_off_the_half_circle(self, monkeypatch, value):
        # such a value used to be scanned at the clamped 90 deg elevation, a
        # row labelled 120 carrying the grazing power, and NaN was refused as
        # "placement.theta_r_deg must lie in [0, 90) deg, got nan"; now it is
        # refused by name before the design
        def no_design(*args, **kwargs):
            raise AssertionError("the scan was designed")

        monkeypatch.setattr(analysis, "link_state", no_design)
        with pytest.raises(ValueError) as excinfo:
            angle_scan(ris_2p6ghz(), [0.0, value, 10.0], 45.0, ("dtpq",))
        assert str(excinfo.value) == f"scan value {exact_g(value)} must lie in [-90, 90] deg"

    def test_signed_scan_matches_pointwise_field(self):
        # a negative elevation, the design target included, lands at
        # |theta| on the opposite azimuth; 90 deg is clamped below pi/2
        sc = ris_4p9ghz()
        methods = ("continuous", "dtpq", "fixed")
        rows = angle_scan(sc, grid_values(-90.0, 90.0, 7.5), -30.0, methods)
        pl = sc.placement

        def direction(theta):
            if theta < 0.0:
                return -theta, (pl.phi_r_deg + 180.0) % 360.0
            return theta, pl.phi_r_deg

        theta_limit = math.nextafter(math.pi / 2.0, 0.0)
        points = []
        for row in rows:
            theta, phi = direction(row.axis_value)
            theta, phi = min(math.radians(theta), theta_limit), math.radians(phi)
            rho = pl.d2_m * math.sin(theta)
            points.append([rho * math.cos(phi), rho * math.sin(phi), pl.d2_m * math.cos(theta)])
        theta, phi = direction(-30.0)
        target = sc.with_placement(theta_r_deg=theta, phi_r_deg=phi)
        state = link_state(target)
        for method in methods:
            xi = field_at_rx_points(target, design(state, method).shifts, np.array(points))
            expected = power_dbm_from_xi(sc.panel, sc.radio, xi)
            assert [row.power_dbm[method] for row in rows] == expected.tolist()


class TestGradientMap:
    def test_single_point_map_equals_power_at_target(self):
        sc = ris_2p6ghz()
        power = gradient_map(sc, (45.0, 180.0), [45.0], [180.0], "dtpq")
        assert power.shape == (1, 1)
        from risbeam import dtpq
        direct = dtpq(link_state(sc)).received_power_dbm
        assert power[0, 0] == pytest.approx(direct, abs=1e-9)

    def test_dtpq_map_peaks_at_design_target(self):
        sc = ris_2p6ghz()
        theta = np.arange(0.0, 90.5, 0.5)
        phi = np.arange(0.0, 360.5, 2.0)
        power = gradient_map(sc, (45.0, 180.0), theta, phi, "dtpq")
        assert power.shape == (181, 181)
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert abs(theta[i] - 45.0) <= 0.5
        assert abs(phi[j] - 180.0) <= 2.0

    def test_fixed_map_peak_below_dtpq_peak(self):
        sc = ris_2p6ghz()
        theta = np.arange(40.0, 50.5, 0.5)
        phi = np.arange(170.0, 190.5, 0.5)
        target = (45.0, 180.0)
        p_dtpq = gradient_map(sc, target, theta, phi, "dtpq")
        p_fixed = gradient_map(sc, target, theta, phi, "fixed:235")
        assert p_fixed.max() < p_dtpq.max()

    def test_continuous_map_mirror_symmetry(self):
        # symmetric panel and phi_t = 0: reflecting phi_r about the x-z
        # plane leaves the continuous-design power unchanged
        sc = ris_2p6ghz()
        theta = np.arange(30.0, 61.0, 5.0)
        power_a = gradient_map(sc, (45.0, 180.0), theta, [120.0], "continuous")
        power_b = gradient_map(sc, (45.0, 180.0), theta, [240.0], "continuous")
        np.testing.assert_allclose(power_a, power_b, rtol=1e-9)

    def test_guard_refuses_huge_maps(self, monkeypatch):
        # both axes pass their own guard; the product is refused before the
        # design is made or any point is allocated
        def no_design(*args, **kwargs):
            raise AssertionError("the map was designed")

        monkeypatch.setattr(analysis, "link_state", no_design)
        theta = np.zeros(1025)
        phi = np.zeros(1024)
        with pytest.raises(ValueError, match="--theta-step/--phi-step give a 1025 x 1024 map "
                                             "of 1049600 points"):
            gradient_map(ris_2p6ghz(), (45.0, 180.0), theta, phi, "dtpq")

    @pytest.mark.parametrize("theta, phi, message", [
        (math.nan, 180.0, "theta grid must lie within [0, 90] degrees"),
        (math.inf, 180.0, "theta grid must lie within [0, 90] degrees"),
        (45.0, math.nan, "phi grid must be finite"),
        (45.0, math.inf, "phi grid must be finite"),
        (45.0, -math.inf, "phi grid must be finite"),
    ], ids=["theta-nan", "theta-inf", "phi-nan", "phi-inf", "phi-minus-inf"])
    def test_refuses_non_finite_grid_values(self, theta, phi, message):
        # a NaN elevation used to be refused as "placement.theta_r_deg must lie
        # in [0, 90) deg, got nan", and an infinite azimuth warned "invalid
        # value encountered in remainder" in wrap_angle
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gradient_map(ris_2p6ghz(), (45.0, 180.0), [30.0, theta], [0.0, phi], "dtpq")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            gradient_map(ris_2p6ghz(), (45.0, 180.0), [], [180.0], "dtpq")


class TestSlopeFit:
    def test_continuous_far_field_distance_law(self):
        sc = ris_2p6ghz()
        grid = np.logspace(math.log10(50.0), math.log10(500.0), 13)
        fit = pl_slope_fit(sc, "d2", grid, "continuous")
        assert fit.variable == "log10_d2"
        assert fit.slope == pytest.approx(2.0, abs=0.02)
        assert fit.r_squared > 0.999

    def test_tx_distance_law(self):
        sc = ris_2p6ghz()
        grid = np.logspace(math.log10(50.0), math.log10(500.0), 9)
        fit = pl_slope_fit(sc, "d1", grid, "continuous")
        assert fit.slope == pytest.approx(2.0, abs=0.02)

    def test_requires_three_samples(self):
        with pytest.raises(ValueError, match="3 samples"):
            pl_slope_fit(ris_2p6ghz(), "d2", [50.0, 100.0], "continuous")

    def test_rejects_constant_grid(self):
        with pytest.raises(ValueError, match="singular"):
            pl_slope_fit(ris_2p6ghz(), "d2", [50.0, 50.0, 50.0], "continuous")

    def test_names_a_non_finite_sample_exactly(self, monkeypatch):
        # the sample one ulp above 100 m used to read "sample 100"
        monkeypatch.setattr(analysis, "path_loss_samples",
                            lambda *args: np.array([80.0, math.inf, 90.0]))
        with pytest.raises(ValueError) as excinfo:
            pl_slope_fit(ris_2p6ghz(), "d2", [50.0, 100.00000000000001, 200.0], "continuous")
        assert str(excinfo.value) == ("path loss at log10_d2 sample 100.00000000000001 is inf "
                                      "dB; a slope fit needs every sample finite")

    def test_rejects_nonpositive_variable(self):
        with pytest.raises(ValueError, match="positive"):
            pl_slope_fit(ris_2p6ghz(), "cos_theta_r", [30.0, 60.0, 91.0], "continuous")

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="variable"):
            pl_slope_fit(ris_2p6ghz(), "d3", [1.0, 2.0, 3.0], "continuous")

    @pytest.mark.parametrize("variable, field, grid, to_field", [
        ("d1", "d1_m", (20.0, 40.0, 80.0), float),
        ("d2", "d2_m", (20.0, 40.0, 80.0), float),
        ("cos_theta_r", "theta_r_deg", (10.0, 35.0, 60.0), float),
        ("cos_theta_t", "theta_t_deg", (10.0, 35.0, 60.0), float),
    ])
    def test_samples_redesign_at_the_moved_placement(self, variable, field, grid, to_field):
        sc = ris_2p6ghz()
        samples = path_loss_samples(sc, variable, grid, "eipq:3")
        expected = [
            sc.radio.tx_power_dbm - design(
                link_state(sc.with_placement(**{field: to_field(value)})), "eipq:3"
            ).received_power_dbm
            for value in grid
        ]
        assert samples.tolist() == expected

    def test_samples_match_fit_inputs(self):
        sc = ris_2p6ghz()
        grid = [50.0, 100.0, 200.0]
        samples = path_loss_samples(sc, "d2", grid, "continuous")
        assert samples.shape == (3,)
        assert np.all(np.diff(samples) > 0.0)


class TestOscillationDamping:
    def test_two_bit_quantization_tracks_continuous_more_tightly(self):
        # same surface geometry, 1-bit versus 2-bit level sets
        sc2 = ris_4p9ghz()
        sc1 = sc2.with_panel(bits=1, levels_deg=(0.0, 180.0))
        values = grid_values(50.0, 55.0, 0.5)
        rows1 = run_sweep(sc1, "rx_distance", values, ("continuous", "dtpq"))
        rows2 = run_sweep(sc2, "rx_distance", values, ("continuous", "dtpq"))
        gap1 = np.array([r.power_dbm["continuous"] - r.power_dbm["dtpq"] for r in rows1])
        gap2 = np.array([r.power_dbm["continuous"] - r.power_dbm["dtpq"] for r in rows2])
        assert gap2.std() < gap1.std()
        assert gap2.mean() < gap1.mean()
