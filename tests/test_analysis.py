"""Sweeps, angle scans, power maps, and path-loss slope fits."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risbeam.analysis as analysis
from risbeam import (
    SweepSpec,
    angle_scan,
    field_at_rx_points,
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


class TestSweepSpec:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="power", start=0, stop=1, step=0.1, methods=("dtpq",))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            SweepSpec(axis="rx_distance", start=5, stop=10, step=1, methods=("best",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(axis="rx_distance", start=5, stop=10, step=1,
                      methods=("dtpq", "dtpq"))

    def test_threshold_axis_requires_fixed_only(self):
        with pytest.raises(ValueError, match="fixed"):
            SweepSpec(axis="threshold", start=0, stop=360, step=5, methods=("dtpq",))

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(axis="rx_distance", start=5, stop=10, step=1, methods=())


class TestRunSweep:
    def test_single_point_sweep(self):
        sc = ris_2p6ghz()
        spec = SweepSpec(axis="rx_distance", start=8.0, stop=8.0, step=0.1,
                         methods=("continuous", "dtpq"))
        rows = run_sweep(sc, spec)
        assert len(rows) == 1
        assert rows[0].axis_value == 8.0
        state = link_state(sc.with_placement(d2=8.0))
        direct = power_dbm_from_xi(sc.panel, sc.radio, state.xi(state.phase))
        assert rows[0].power_dbm["continuous"] == pytest.approx(direct, rel=1e-12)

    def test_method_dominance_per_row(self):
        sc = ris_2p6ghz()
        spec = SweepSpec(axis="rx_distance", start=5.0, stop=7.0, step=0.5,
                         methods=("continuous", "dtpq", "eipq", "fixed"),
                         epsilon_deg=5.0, gamma_deg=235.0)
        for row in run_sweep(sc, spec):
            p = row.power_dbm
            assert p["continuous"] >= p["dtpq"] - 1e-9
            assert p["dtpq"] >= p["eipq"] - 1e-9
            assert p["dtpq"] >= p["fixed"] - 1e-9

    def test_tx_distance_axis(self):
        sc = ris_2p6ghz()
        spec = SweepSpec(axis="tx_distance", start=8.0, stop=12.0, step=2.0,
                         methods=("continuous",))
        rows = run_sweep(sc, spec)
        assert [r.axis_value for r in rows] == [8.0, 10.0, 12.0]
        # farther Tx, weaker field
        assert rows[0].power_dbm["continuous"] > rows[-1].power_dbm["continuous"]

    def test_threshold_axis_periodicity(self):
        sc = ris_2p6ghz()
        spec = SweepSpec(axis="threshold", start=0.0, stop=350.0, step=10.0,
                         methods=("fixed",))
        rows = run_sweep(sc, spec)
        assert len(rows) == 36
        period = 180.0   # 2*pi / 2**1 in degrees
        by_value = {row.axis_value: row.power_dbm["fixed"] for row in rows}
        for gamma in np.arange(0.0, 180.0, 10.0):
            assert by_value[gamma + period] == pytest.approx(by_value[gamma], abs=1e-9)

    @pytest.mark.parametrize("axis, field, grid, to_field", [
        ("rx_distance", "d2", (5.0, 7.5, 10.0), float),
        ("tx_distance", "d1", (5.0, 7.5, 10.0), float),
        ("theta_r", "theta_r", (10.0, 35.0, 60.0), math.radians),
    ])
    def test_rows_redesign_at_the_moved_placement(self, axis, field, grid, to_field):
        # each row is the method table applied to the link with the one
        # placement field the axis names moved to the grid value
        sc = ris_4p9ghz()
        methods = ("continuous", "dtpq", "eipq", "fixed")
        spec = SweepSpec(axis=axis, start=grid[0], stop=grid[-1], step=grid[1] - grid[0],
                         methods=methods, epsilon_deg=3.0, gamma_deg=100.0)
        rows = run_sweep(sc, spec)
        assert [row.axis_value for row in rows] == list(grid)
        for row, value in zip(rows, grid):
            state = link_state(sc.with_placement(**{field: to_field(value)}))
            for method in methods:
                expected = design(state, method, 3.0, 100.0)
                assert row.power_dbm[method] == expected.received_power_dbm
                if expected.threshold is not None:
                    assert row.threshold_deg[method] == math.degrees(expected.threshold)

    def test_cli_import_leaves_out_thread_pools(self):
        # sweeps and fits run serially, so the CLI never imports a pool
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, risbeam.cli; print('concurrent.futures' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestAngleScan:
    def test_continuous_peaks_at_design_target(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, 30.0, 60.0, 1.0, math.radians(45.0), ("continuous",))
        best = max(rows, key=lambda r: r.power_dbm["continuous"])
        assert best.axis_value == pytest.approx(45.0)

    def test_design_once_thresholds_constant(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, 40.0, 50.0, 2.0, math.radians(45.0), ("dtpq", "fixed"),
                          gamma_deg=235.0)
        thresholds = {r.threshold_deg["dtpq"] for r in rows}
        assert len(thresholds) == 1
        assert all(r.threshold_deg["fixed"] == pytest.approx(235.0) for r in rows)

    def test_design_point_matches_static_evaluation(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, 45.0, 45.0, 1.0, math.radians(45.0), ("continuous",))
        state = link_state(sc)
        static = power_dbm_from_xi(sc.panel, sc.radio, state.xi(state.phase))
        assert rows[0].power_dbm["continuous"] == pytest.approx(static, abs=1e-9)

    def test_negative_angles_and_endpoints(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, -90.0, 90.0, 45.0, math.radians(45.0), ("dtpq",))
        assert [r.axis_value for r in rows] == [-90.0, -45.0, 0.0, 45.0, 90.0]
        powers = [r.power_dbm["dtpq"] for r in rows]
        assert all(math.isfinite(p) for p in powers)
        # pattern cutoff crushes the in-plane endpoints
        assert powers[0] < powers[2] and powers[-1] < powers[2]

    def test_negative_design_target(self):
        sc = ris_2p6ghz()
        rows = angle_scan(sc, -60.0, -30.0, 1.0, math.radians(-45.0), ("continuous",))
        best = max(rows, key=lambda r: r.power_dbm["continuous"])
        assert best.axis_value == pytest.approx(-45.0)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="target"):
            angle_scan(ris_2p6ghz(), 0.0, 10.0, 1.0, math.pi / 2, ("dtpq",))

    def test_signed_scan_matches_pointwise_field(self):
        # a negative elevation, the design target included, lands at
        # |theta| on the opposite azimuth; 90 deg is clamped below pi/2
        sc = ris_4p9ghz()
        methods = ("continuous", "dtpq", "fixed")
        rows = angle_scan(sc, -90.0, 90.0, 7.5, math.radians(-30.0), methods)
        pl = sc.placement

        def direction(theta):
            if theta < 0.0:
                return -theta, (pl.phi_r + math.pi) % (2.0 * math.pi)
            return theta, pl.phi_r

        theta_limit = math.nextafter(math.pi / 2.0, 0.0)
        points = []
        for row in rows:
            theta, phi = direction(math.radians(row.axis_value))
            theta = min(theta, theta_limit)
            rho = pl.d2 * math.sin(theta)
            points.append([rho * math.cos(phi), rho * math.sin(phi), pl.d2 * math.cos(theta)])
        theta, phi = direction(math.radians(-30.0))
        target = sc.with_placement(theta_r=theta, phi_r=phi)
        state = link_state(target)
        for method in methods:
            xi = field_at_rx_points(target, design(state, method).shifts, np.array(points))
            expected = power_dbm_from_xi(sc.panel, sc.radio, xi)
            assert [row.power_dbm[method] for row in rows] == expected.tolist()


class TestGradientMap:
    def test_single_point_map_equals_power_at_target(self):
        sc = ris_2p6ghz()
        power = gradient_map(sc, (math.radians(45.0), math.pi), [45.0], [180.0], "dtpq")
        assert power.shape == (1, 1)
        from risbeam import dtpq
        direct = dtpq(sc).received_power_dbm
        assert power[0, 0] == pytest.approx(direct, abs=1e-9)

    def test_dtpq_map_peaks_at_design_target(self):
        sc = ris_2p6ghz()
        theta = np.arange(0.0, 90.5, 0.5)
        phi = np.arange(0.0, 360.5, 2.0)
        power = gradient_map(sc, (math.radians(45.0), math.pi), theta, phi, "dtpq")
        assert power.shape == (181, 181)
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert abs(theta[i] - 45.0) <= 0.5
        assert abs(phi[j] - 180.0) <= 2.0

    def test_fixed_map_peak_below_dtpq_peak(self):
        sc = ris_2p6ghz()
        theta = np.arange(40.0, 50.5, 0.5)
        phi = np.arange(170.0, 190.5, 0.5)
        target = (math.radians(45.0), math.pi)
        p_dtpq = gradient_map(sc, target, theta, phi, "dtpq")
        p_fixed = gradient_map(sc, target, theta, phi, "fixed", gamma_deg=235.0)
        assert p_fixed.max() < p_dtpq.max()

    def test_continuous_map_mirror_symmetry(self):
        # symmetric panel and phi_t = 0: reflecting phi_r about the x-z
        # plane leaves the continuous-design power unchanged
        sc = ris_2p6ghz()
        theta = np.arange(30.0, 61.0, 5.0)
        power_a = gradient_map(sc, (math.radians(45.0), math.pi), theta, [120.0], "continuous")
        power_b = gradient_map(sc, (math.radians(45.0), math.pi), theta, [240.0], "continuous")
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
            gradient_map(ris_2p6ghz(), (math.radians(45.0), math.pi), theta, phi, "dtpq")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            gradient_map(ris_2p6ghz(), (0.5, math.pi), [], [180.0], "dtpq")


class TestSlopeFit:
    def test_continuous_far_field_distance_law(self):
        sc = ris_2p6ghz()
        grid = np.logspace(math.log10(50.0), math.log10(500.0), 13)
        fit = pl_slope_fit(sc, "log10_d2", grid, "continuous")
        assert fit.slope == pytest.approx(2.0, abs=0.02)
        assert fit.r_squared > 0.999

    def test_tx_distance_law(self):
        sc = ris_2p6ghz()
        grid = np.logspace(math.log10(50.0), math.log10(500.0), 9)
        fit = pl_slope_fit(sc, "log10_d1", grid, "continuous")
        assert fit.slope == pytest.approx(2.0, abs=0.02)

    def test_requires_three_samples(self):
        with pytest.raises(ValueError, match="3 samples"):
            pl_slope_fit(ris_2p6ghz(), "log10_d2", [50.0, 100.0], "continuous")

    def test_rejects_constant_grid(self):
        with pytest.raises(ValueError, match="singular"):
            pl_slope_fit(ris_2p6ghz(), "log10_d2", [50.0, 50.0, 50.0], "continuous")

    def test_rejects_nonpositive_variable(self):
        with pytest.raises(ValueError, match="positive"):
            pl_slope_fit(ris_2p6ghz(), "log10_cos_theta_r", [30.0, 60.0, 91.0], "continuous")

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="variable"):
            pl_slope_fit(ris_2p6ghz(), "log10_d3", [1.0, 2.0, 3.0], "continuous")

    @pytest.mark.parametrize("variable, field, grid, to_field", [
        ("log10_d1", "d1", (20.0, 40.0, 80.0), float),
        ("log10_d2", "d2", (20.0, 40.0, 80.0), float),
        ("log10_cos_theta_r", "theta_r", (10.0, 35.0, 60.0), math.radians),
        ("log10_cos_theta_t", "theta_t", (10.0, 35.0, 60.0), math.radians),
    ])
    def test_samples_redesign_at_the_moved_placement(self, variable, field, grid, to_field):
        sc = ris_2p6ghz()
        samples = path_loss_samples(sc, variable, grid, "eipq", epsilon_deg=3.0)
        expected = [
            sc.radio.tx_power_dbm - design(
                link_state(sc.with_placement(**{field: to_field(value)})), "eipq", 3.0
            ).received_power_dbm
            for value in grid
        ]
        assert samples.tolist() == expected

    def test_samples_match_fit_inputs(self):
        sc = ris_2p6ghz()
        grid = [50.0, 100.0, 200.0]
        samples = path_loss_samples(sc, "log10_d2", grid, "continuous")
        assert samples.shape == (3,)
        assert np.all(np.diff(samples) > 0.0)


class TestOscillationDamping:
    def test_two_bit_quantization_tracks_continuous_more_tightly(self):
        # same surface geometry, 1-bit versus 2-bit level sets
        sc2 = ris_4p9ghz()
        sc1 = sc2.with_panel(bits=1, levels=(0.0, math.pi))
        spec = SweepSpec(axis="rx_distance", start=50.0, stop=55.0, step=0.5,
                         methods=("continuous", "dtpq"))
        rows1 = run_sweep(sc1, spec)
        rows2 = run_sweep(sc2, spec)
        gap1 = np.array([r.power_dbm["continuous"] - r.power_dbm["dtpq"] for r in rows1])
        gap2 = np.array([r.power_dbm["continuous"] - r.power_dbm["dtpq"] for r in rows2])
        assert gap2.std() < gap1.std()
        assert gap2.mean() < gap1.mean()
