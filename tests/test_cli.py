"""Command-line interface: scenario files in, CSV tables out, exit codes."""

import csv
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import risbeam.cli as cli
from risbeam.cli import (
    load_scenario,
    run,
    write_map_csv,
    write_shifts_csv,
)
from risbeam.presets import document_with, ris_2p6ghz_document
from risbeam.quantization import dtpq
from risbeam.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


@pytest.fixture()
def ris1_path(tmp_path):
    path = tmp_path / "ris1.json"
    path.write_text(json.dumps(ris_2p6ghz_document()))
    return str(path)


@pytest.fixture()
def small_path(tmp_path):
    doc = ris_2p6ghz_document()
    doc = document_with(doc, "panel", rows=4, cols=4)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenarioParsing:
    def test_bundled_files_validate(self):
        for name in ("ris1_2p6ghz.json", "ris2_4p9ghz.json"):
            scenario = load_scenario(str(SCENARIO_DIR / name))
            assert scenario.panel.num_cells in (512, 1250)

    def test_wavelength_derived_from_frequency(self):
        scenario = parse_scenario(ris_2p6ghz_document())
        assert scenario.radio.wavelength == pytest.approx(299792458.0 / 2.6e9, rel=1e-15)

    def test_unknown_top_level_key(self):
        doc = ris_2p6ghz_document()
        doc["extras"] = {}
        with pytest.raises(ValueError, match="'extras'"):
            parse_scenario(doc)

    def test_unknown_section_key_named(self):
        doc = document_with(ris_2p6ghz_document(), "panel", tilt_deg=3.0)
        with pytest.raises(ValueError, match="panel.tilt_deg"):
            parse_scenario(doc)

    def test_missing_key_named(self):
        doc = ris_2p6ghz_document()
        del doc["placement"]["d2_m"]
        with pytest.raises(ValueError, match="placement.d2_m"):
            parse_scenario(doc)

    def test_bad_type_named(self):
        doc = document_with(ris_2p6ghz_document(), "radio", freq_ghz="fast")
        with pytest.raises(ValueError, match="radio.freq_ghz"):
            parse_scenario(doc)

    def test_bad_levels_rejected(self):
        doc = document_with(ris_2p6ghz_document(), "panel", levels_deg=[55.0, 240.0])
        with pytest.raises(ValueError, match="panel"):
            parse_scenario(doc)


class TestValidateCommand:
    def test_ok(self, ris1_path, capsys):
        assert run(["validate", "--scenario", ris1_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate", "--scenario", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_key_exit_code(self, tmp_path, capsys):
        doc = document_with(ris_2p6ghz_document(), "placement", altitude_m=3.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--scenario", str(path)]) == 2
        assert "placement.altitude_m" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("gain_tx_dbi", math.nan),
        ("tx_power_dbm", math.nan),
        ("gain_rx_dbi", math.inf),
    ], ids=["gain_tx_nan", "tx_power_nan", "gain_rx_inf"])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, key, value):
        doc = document_with(ris_2p6ghz_document(), "radio", **{key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--scenario", str(path)]) == 2
        assert f"radio.{key}" in capsys.readouterr().err

    def test_module_entry_point_runs_warning_free(self):
        # python -m risbeam.cli must not import risbeam.cli before running it
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "risbeam.cli", "validate",
             "--scenario", "scenarios/ris1_2p6ghz.json"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestQuantizeCommand:
    def test_dtpq_prints_and_writes(self, ris1_path, tmp_path, capsys):
        out = tmp_path / "shifts.csv"
        assert run(["quantize", "--scenario", ris1_path, "--method", "dtpq",
                    "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "threshold_deg=" in captured
        assert "received_power_dbm=" in captured
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,level_index,level_deg"
        assert len(lines) == 1 + 512

    def test_values_match_library(self, ris1_path, tmp_path, capsys):
        out = tmp_path / "shifts.csv"
        run(["quantize", "--scenario", ris1_path, "--method", "dtpq", "--out", str(out)])
        captured = capsys.readouterr().out
        scenario = load_scenario(ris1_path)
        result = dtpq(scenario)
        printed_power = float(captured.split("received_power_dbm=")[1].split()[0])
        assert printed_power == pytest.approx(result.received_power_dbm, abs=5e-5)
        printed_thr = float(captured.split("threshold_deg=")[1].split()[0])
        assert printed_thr == pytest.approx(math.degrees(result.threshold), abs=5e-5)

    def test_shifts_round_trip(self, ris1_path, tmp_path):
        scenario = load_scenario(ris1_path)
        result = dtpq(scenario)
        path = tmp_path / "shifts.csv"
        write_shifts_csv(str(path), result.shifts)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        reloaded = np.zeros(result.shifts.shape, dtype=np.intp)
        for record in records:
            reloaded[int(record["m"]) - 1, int(record["n"]) - 1] = int(record["level_index"])
        assert len(records) == scenario.panel.num_cells
        assert np.array_equal(reloaded, result.shifts.level_indices)

    def test_exhaustive_guard_exit_code(self, ris1_path, capsys):
        assert run(["quantize", "--scenario", ris1_path, "--method", "exhaustive"]) == 2
        assert "guard" in capsys.readouterr().err

    def test_eipq_guard_exit_code(self, ris1_path, capsys):
        # about 1.8e11 grid thresholds: refused before the grid is built
        assert run(["quantize", "--scenario", ris1_path, "--method", "eipq:1e-9"]) == 2
        err = capsys.readouterr().err
        assert "1e-09 deg" in err and "candidates" in err and "guard" in err

    def test_exhaustive_on_small_panel(self, tmp_path, capsys):
        doc = document_with(ris_2p6ghz_document(), "panel", rows=2, cols=2)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "shifts.csv"
        assert run(["quantize", "--scenario", str(path), "--method", "exhaustive",
                    "--out", str(out)]) == 0
        assert "threshold_deg=n/a" in capsys.readouterr().out

    def test_bad_method_token(self, ris1_path, capsys):
        assert run(["quantize", "--scenario", ris1_path, "--method", "best"]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestSweepCommand:
    def test_distance_sweep_csv(self, small_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--scenario", small_path, "--axis", "rx_distance",
                    "--start", "5", "--stop", "10", "--step", "0.1",
                    "--methods", "continuous,dtpq,eipq:5,fixed:235",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("axis_value,continuous_dbm,dtpq_dbm,dtpq_threshold_deg,"
                            "eipq_dbm,eipq_threshold_deg,fixed_dbm,fixed_threshold_deg")
        assert len(lines) == 1 + 51
        assert lines[1].startswith("5.0000,")

    def test_byte_identical_reruns(self, small_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--scenario", small_path, "--axis", "rx_distance",
                "--start", "5", "--stop", "6", "--step", "0.25",
                "--methods", "continuous,dtpq"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threshold_axis(self, small_path, tmp_path):
        out = tmp_path / "thresholds.csv"
        assert run(["sweep", "--scenario", small_path, "--axis", "threshold",
                    "--start", "0", "--stop", "355", "--step", "5",
                    "--methods", "fixed", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 72

    def test_grid_guard_exit_code(self, small_path, capsys):
        # 5e12 grid points: refused before the grid is allocated
        assert run(["sweep", "--scenario", small_path, "--axis", "rx_distance",
                    "--start", "5", "--stop", "10", "--step", "1e-12",
                    "--methods", "dtpq"]) == 2
        err = capsys.readouterr().err
        assert "--step 1e-12 gives 5000000000001 grid points" in err and "guard" in err

    def test_threshold_axis_rejects_other_methods(self, small_path, capsys):
        assert run(["sweep", "--scenario", small_path, "--axis", "threshold",
                    "--start", "0", "--stop", "355", "--step", "5",
                    "--methods", "dtpq"]) == 2
        assert "fixed" in capsys.readouterr().err


class TestOtherCommands:
    def test_angle_scan(self, small_path, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["angle-scan", "--scenario", small_path, "--target", "45",
                    "--start", "30", "--stop", "60", "--step", "5",
                    "--methods", "continuous,dtpq", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 7

    def test_gradient_map(self, small_path, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["gradient-map", "--scenario", small_path,
                    "--target-theta", "45", "--target-phi", "180",
                    "--theta-start", "40", "--theta-stop", "50", "--theta-step", "5",
                    "--phi-start", "170", "--phi-stop", "190", "--phi-step", "10",
                    "--method", "dtpq", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_r_deg,phi_r_deg,power_dbm"
        assert len(lines) == 1 + 3 * 3

    def test_map_guard_exit_code(self, small_path, capsys):
        assert run(["gradient-map", "--scenario", small_path,
                    "--target-theta", "45", "--target-phi", "180",
                    "--theta-step", "0.01", "--phi-step", "0.01", "--method", "dtpq"]) == 2
        err = capsys.readouterr().err
        assert "--theta-step/--phi-step give a 9001 x 36001 map" in err and "guard" in err

    @pytest.mark.skipif(sys.platform != "linux", reason="minor faults are counted on Linux")
    def test_map_page_faults_stay_within_the_workspace(self, tmp_path):
        # the field workspace is allocated once per call, so a 61 x 61 map
        # (59 chunks on the 512-cell panel) faults in a few workspaces'
        # worth of pages more than `validate`; allocating chunk temporaries
        # per chunk cost about 11700 pages more
        import resource

        from risbeam.channel import _CHUNK_POINT_CELLS

        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

        def minor_faults(*args):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = subprocess.run([sys.executable, "-m", "risbeam.cli", *args], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        scenario = "scenarios/ris1_2p6ghz.json"
        startup = minor_faults("validate", "--scenario", scenario)
        mapped = minor_faults("gradient-map", "--scenario", scenario, "--target-theta", "45",
                              "--target-phi", "180", "--theta-step", "1.5", "--phi-step", "6",
                              "--method", "dtpq", "--out", str(tmp_path / "map.csv"))
        workspace_pages = 5 * _CHUNK_POINT_CELLS * 8 // resource.getpagesize()
        assert mapped - startup < 4 * workspace_pages

    def test_map_writer_matches_csv_writer(self, tmp_path):
        theta = np.array([-0.0, 12.5, 90.0])
        phi = np.array([-10.25, 0.0, 359.99995, 1e4])
        power = np.array([[-47.123456, -0.0, 12345.6789, -np.inf],
                          [0.0, -1e-5, 1e4, -99999.99995],
                          [3.14159265, -2.5e-5, 5e-5, 123456789.0]])
        out = tmp_path / "map.csv"
        write_map_csv(str(out), theta, phi, power)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta_r_deg", "phi_r_deg", "power_dbm"])
            for i, t in enumerate(theta):
                for j, p in enumerate(phi):
                    writer.writerow([f"{t:.4f}", f"{p:.4f}", f"{power[i, j]:.4f}"])
        assert out.read_bytes() == reference.read_bytes()

    def test_pl_fit(self, small_path, capsys):
        assert run(["pl-fit", "--scenario", small_path, "--variable", "d2",
                    "--start", "50", "--stop", "500", "--num", "7",
                    "--method", "continuous"]) == 0
        captured = capsys.readouterr().out
        assert "slope=" in captured
        slope = float(captured.split("slope=")[1].splitlines()[0])
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_pl_fit_angle_variable(self, small_path, capsys):
        assert run(["pl-fit", "--scenario", small_path, "--variable", "cos_theta_r",
                    "--start", "20", "--stop", "70", "--num", "6",
                    "--method", "continuous"]) == 0
        captured = capsys.readouterr().out
        slope = float(captured.split("slope=")[1].splitlines()[0])
        # far-field cosine law has slope -1; at short range it stays near that
        assert slope == pytest.approx(-1.0, abs=0.3)

    @pytest.mark.parametrize("variable, start, stop, option", [
        ("d2", "50", "0", "--stop"),
        ("d2", "50", "-5", "--stop"),
        ("d2", "50", "inf", "--stop"),
        ("d2", "nan", "500", "--start"),
        ("d2", "0", "500", "--start"),
        ("cos_theta_r", "20", "inf", "--stop"),
        ("cos_theta_r", "-inf", "70", "--start"),
    ], ids=["d2-stop-zero", "d2-stop-negative", "d2-stop-inf", "d2-start-nan",
            "d2-start-zero", "angle-stop-inf", "angle-start-minus-inf"])
    def test_pl_fit_refuses_bad_bounds(self, small_path, capsys, variable, start, stop, option):
        # the --option=value form keeps argparse from reading "-inf" as a flag
        assert run(["pl-fit", "--scenario", small_path, "--variable", variable,
                    f"--start={start}", f"--stop={stop}", "--method", "continuous"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error, = captured.err.splitlines()
        assert error.startswith("error: ") and option in error

    def test_pl_fit_refuses_more_samples_than_the_guard(self, small_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("pl_slope_fit ran past the --num guard")

        monkeypatch.setattr(cli, "pl_slope_fit", unreachable)
        assert run(["pl-fit", "--scenario", small_path, "--variable", "d2",
                    "--start", "50", "--stop", "500", "--num", "100000000"]) == 2
        err = capsys.readouterr().err
        assert "--num 100000000" in err and "guard of 1048576" in err

    @pytest.mark.parametrize("args, message", [
        (["angle-scan", "--target=90", "--start=0", "--stop=10", "--step=1",
          "--methods=dtpq"], "--target must lie in (-90, 90) degrees, got 90"),
        (["angle-scan", "--target=nan", "--start=0", "--stop=10", "--step=1",
          "--methods=dtpq"], "--target must be finite, got nan"),
        (["angle-scan", "--target=45", "--start=80", "--stop=180", "--step=20",
          "--methods=dtpq"], "--stop must lie in [-90, 90] degrees, got 180"),
        (["angle-scan", "--target=45", "--start=-90.5", "--stop=0", "--step=1",
          "--methods=dtpq"], "--start must lie in [-90, 90] degrees, got -90.5"),
        (["gradient-map", "--target-theta=95", "--target-phi=0"],
         "--target-theta must lie in [0, 90) degrees, got 95"),
        (["gradient-map", "--target-theta=45", "--target-phi=inf"],
         "--target-phi must be finite, got inf"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-start=-5"],
         "--theta-start must lie in [0, 90] degrees, got -5"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-stop=120"],
         "--theta-stop must lie in [0, 90] degrees, got 120"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-step=7"],
         "--theta-step 7 puts the last theta point at 91, past 90 degrees"),
        (["pl-fit", "--variable=cos_theta_r", "--start=20", "--stop=90"],
         "--stop must lie in [0, 90) degrees, got 90"),
        (["pl-fit", "--variable=cos_theta_t", "--start=-10", "--stop=60"],
         "--start must lie in [0, 90) degrees, got -10"),
    ], ids=["scan-target-90", "scan-target-nan", "scan-stop-180", "scan-start-below-90",
            "map-theta-95", "map-phi-inf", "map-theta-start-negative", "map-theta-stop-120",
            "map-theta-step-overshoot", "fit-stop-90", "fit-start-negative"])
    def test_angle_options_named_in_degrees(self, small_path, capsys, args, message):
        assert run([args[0], "--scenario", small_path, *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def readme_commands():
    """The ``risbeam ...`` lines of the README's command-line block, as argv lists."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("risbeam ")]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {
        "validate", "quantize", "sweep", "angle-scan", "gradient-map", "pl-fit"}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    # every option the README shows must still parse and run on the bundled scenarios
    shutil.copytree(SCENARIO_DIR, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0, capsys.readouterr().err
