"""Command-line interface: scenario files in, CSV tables out, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import document_with, ends
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import risbeam.analysis as analysis
import risbeam.quantization as quantization
from risbeam.cli import (
    _COMMANDS,
    load_scenario,
    run,
    write_map_csv,
    write_shifts_csv,
)
from risbeam.channel import link_state
from risbeam.quantization import dtpq
from risbeam.scenario import (
    _READERS,
    _SECTIONS,
    FIT_VARIABLES,
    RANGES,
    SWEEP_AXES,
    ConfigError,
    RisPanel,
    _integer,
    _number,
    exact_g,
    parse_scenario,
    ris_2p6ghz,
    ris_2p6ghz_document,
    ris_4p9ghz_document,
    wavelength_m,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

# The refusal of a link whose continuous bound xi is 0, and its two causes.
NO_LIT_CELL = "no cell reaches the Rx (the link's continuous bound xi is 0)"
BEHIND_AN_ANTENNA = ("'panel.cell_dx_m', 'panel.cell_dy_m' and 'placement' put every cell "
                     "behind the Tx or the Rx antenna")
UNDERFLOWING_PATTERNS = ("'radio.gain_tx_dbi', 'radio.gain_rx_dbi', 'radio.cell_alpha', "
                         "'panel.cell_dx_m', 'panel.cell_dy_m' and 'placement' make every "
                         "cell's amplitude underflow to 0")
# The first grazing point of a frozen design when cell_alpha 100 underflows there.
DARK_AT_GRAZING = "no cell reaches the Rx at theta_r 90, phi_r 0 deg (xi is 0 there)"


def behind_the_antennas() -> dict:
    """The 2.6 GHz scenario with cells 10 m wide and the Tx 1 m away at 45 deg:
    the cells at x > 1.41 m lie behind the Tx antenna, and the others, at
    x <= -5 m, behind the Rx antenna at 45 deg when d2 <= 3.53 m."""
    doc = document_with(ris_2p6ghz_document(), "panel", cell_dx_m=10.0)
    return document_with(doc, "placement", d1_m=1.0, d2_m=1.0)


def underflowing_amplitudes() -> dict:
    """2x2 cells of 10 m with 40 dBi antennas 1 m off on the normal: every
    cell lies 82 deg off both boresights, where cos**4999 underflows, though
    the flattest patterns light every cell."""
    doc = document_with(ris_2p6ghz_document(), "panel", rows=2, cols=2, cell_dx_m=10.0,
                        cell_dy_m=10.0)
    doc = document_with(doc, "placement", d1_m=1.0, d2_m=1.0, theta_t_deg=0.0,
                        theta_r_deg=0.0)
    return document_with(doc, "radio", gain_tx_dbi=40.0, gain_rx_dbi=40.0)


def refused(argv, doc, tmp_path, capsys) -> str:
    """The stderr of a run on ``doc`` that must exit 2 and write nothing."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert run([argv[0], "--scenario", str(path), *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    return captured.err


def outputs(argv, doc, tmp_path, capsys) -> tuple[str, bytes]:
    """The stdout and the CSV of a run on ``doc`` that must exit 0, with the
    CSV path printed as out.csv."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert run([argv[0], "--scenario", str(path), *argv[1:], "--out", str(out)]) == 0
    return capsys.readouterr().out.replace(str(out), "out.csv"), out.read_bytes()


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

    def test_bundled_files_equal_the_presets(self):
        # scenarios/ and the presets in risbeam.scenario are two copies of the same two links
        for name, document in (("ris1_2p6ghz.json", ris_2p6ghz_document()),
                               ("ris2_4p9ghz.json", ris_4p9ghz_document())):
            assert json.loads((SCENARIO_DIR / name).read_text()) == document

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

    def test_level_spacing_refusal_in_degrees(self):
        # the key's unit: it used to read "... uniformly spaced by 3.141593
        # rad, found gap 2.967060 rad"; the check itself stays in radians
        doc = document_with(ris_2p6ghz_document(), "panel", levels_deg=[0, 170])
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(doc)
        assert str(excinfo.value) == ("panel.levels_deg must be uniformly spaced by 180 deg, "
                                      "found gap 170 deg")

    def test_levels_are_held_as_a_tuple(self):
        # a library caller's list was kept by reference: the panel could not
        # be hashed, and changing the list left the radian levels stale
        panel = parse_scenario(ris_2p6ghz_document()).panel
        assert panel.levels_deg == (55.0, 235.0)
        assert hash(panel) == hash(dataclasses.replace(panel))
        with pytest.raises(ConfigError, match=r"^panel.levels_deg must be a tuple, "
                                              r"got \[55.0, 235.0\]$"):
            dataclasses.replace(panel, levels_deg=[55.0, 235.0])

    @pytest.mark.parametrize("theta, phi", [(0.0, -3.0), (89.99999999999999, 370.0),
                                            (30.000000000000004, -1e-20), (45, 720), (10, 360)])
    def test_placement_angles_held_as_written(self, theta, phi):
        # no radians round trip: -3 used to be held as 6.230825429619756 rad;
        # any finite azimuth is held, and taken mod 360 by antenna_points
        doc = document_with(ris_2p6ghz_document(), "placement", theta_t_deg=theta,
                            phi_t_deg=phi, theta_r_deg=theta, phi_r_deg=phi)
        placement = parse_scenario(doc).placement
        held = (placement.theta_t_deg, placement.phi_t_deg, placement.theta_r_deg,
                placement.phi_r_deg)
        assert [v.hex() for v in held] == [float(v).hex() for v in (theta, phi, theta, phi)]

    @pytest.mark.parametrize("section, key", [(section, key) for section, keys in
                                              ris_2p6ghz_document().items() for key in keys],
                             ids=lambda x: x)
    def test_each_key_left_out(self, section, key):
        # a key whose field has a dataclass default takes it; any other is
        # refused by name
        doc = ris_2p6ghz_document()
        del doc[section][key]
        if key in ("reflection", "cell_alpha"):
            config = getattr(parse_scenario(doc), section)
            default = {f.name: f.default for f in dataclasses.fields(config)}[key]
            assert getattr(config, key) == default == 1.0
        else:
            with pytest.raises(ConfigError) as excinfo:
                parse_scenario(doc)
            assert str(excinfo.value) == f"missing key '{section}.{key}'"

    @pytest.mark.parametrize("section", ["panel", "placement", "radio"])
    def test_extra_key_refused(self, section):
        with pytest.raises(ConfigError, match=f"^unknown key '{section}.extra'$"):
            parse_scenario(document_with(ris_2p6ghz_document(), section, extra=1.0))

    def test_one_key_sets_each_field(self):
        # each field of RisPanel, Placement and RadioConfig is the bundled
        # documents' key it is read from, in order, by its annotation's reader
        for name, cls in _SECTIONS.items():
            fields = dataclasses.fields(cls)
            assert [f.name for f in fields] == list(ris_2p6ghz_document()[name])
            assert all(f.type in _READERS for f in fields), name

    def test_ranged_keys_are_read_as_written(self):
        # a ranged field holds the file's number as written, so that its
        # dataclass checks it, and shows a refused one, in the file's units;
        # a count is read as a whole number
        for key in RANGES:
            section, name = key.split(".")
            (field,) = (f for f in dataclasses.fields(_SECTIONS[section]) if f.name == name)
            assert _READERS[field.type] is (_integer if field.type == "int" else _number), key

    def test_readme_example_is_the_table(self):
        text = (ROOT / "README.md").read_text()
        example = text.split("Scenario files are JSON", 1)[1].split("```json\n", 1)[1]
        doc = json.loads(example.split("```", 1)[0])
        assert {name: list(section) for name, section in doc.items()} == {
            name: [f.name for f in dataclasses.fields(cls)] for name, cls in _SECTIONS.items()}
        assert parse_scenario(doc).panel.num_cells == 512

    @pytest.mark.parametrize("section, key, value, message", [
        ("placement", "theta_t_deg", 100, "placement.theta_t_deg must lie in [0, 90) deg, got 100"),
        ("placement", "theta_r_deg", 90, "placement.theta_r_deg must lie in [0, 90) deg, got 90"),
        ("placement", "theta_t_deg", 90.00000000000001,
         "placement.theta_t_deg must lie in [0, 90) deg, got 90.00000000000001"),
        ("radio", "freq_ghz", 1e300, "radio.freq_ghz must lie in [0.1, 10000] GHz, got 1e+300"),
        ("radio", "freq_ghz", 1e-300, "radio.freq_ghz must lie in [0.1, 10000] GHz, got 1e-300"),
        ("radio", "freq_ghz", math.nextafter(1e4, math.inf),
         "radio.freq_ghz must lie in [0.1, 10000] GHz, got 10000.000000000002"),
        ("radio", "gain_tx_dbi", 3.0102999,
         "radio.gain_tx_dbi must lie in [3.010299956639812, 40] dBi, got 3.0102999"),
    ], ids=["theta-t-100", "theta-r-90", "theta-t-ulp-above-90", "freq-1e300", "freq-1e-300",
            "freq-above-1e4", "gain-below-its-floor"])
    def test_refusal_names_the_file_key(self, section, key, value, message):
        # in the file's units: theta_t 100 used to read "theta_t must lie in
        # [0, pi/2), got 1.7453292519943295", theta_t 90.00000000000001, held
        # in radians and turned back, "got 90", and freq_ghz 1e300 and
        # 1e-300, whose wavelengths' round trips over- and underflow, "got
        # inf" and "got 0.0"; the gain floor used to be shown rounded, as 3.0103
        with pytest.raises(ConfigError) as excinfo:
            parse_scenario(document_with(ris_2p6ghz_document(), section, **{key: value}))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("freq_ghz", [0.1, 1e4])
    def test_frequency_range_ends_accepted(self, freq_ghz):
        doc = document_with(ris_2p6ghz_document(), "radio", freq_ghz=freq_ghz)
        assert parse_scenario(doc).radio.wavelength == wavelength_m(freq_ghz)


class TestValidateCommand:
    def test_ok(self, ris1_path, capsys):
        assert run(["validate", "--scenario", ris1_path]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["validate"],
        ["quantize", "--method=dtpq", "--out=out.csv"],
        ["sweep", "--axis=rx_distance", "--start=5", "--stop=6", "--step=1", "--methods=dtpq",
         "--out=out.csv"],
        ["angle-scan", "--target=45", "--start=0", "--stop=10", "--step=1", "--methods=dtpq",
         "--out=out.csv"],
        ["gradient-map", "--target-theta=45", "--target-phi=180", "--out=out.csv"],
        ["pl-fit", "--variable=d2", "--start=50", "--stop=500"],
        ["angle-scan", "--target=95", "--start=0", "--stop=10", "--step=1", "--methods=dtpq",
         "--out=out.csv"],
    ], ids=["validate", "quantize", "sweep", "angle-scan", "gradient-map", "pl-fit",
            "angle-scan-bad-target"])
    def test_missing_file(self, tmp_path, monkeypatch, capsys, args):
        # every command loads its scenario before it checks any option or writes
        monkeypatch.chdir(tmp_path)
        assert run([args[0], "--scenario", str(tmp_path / "nope.json"), *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: scenario file not found: {tmp_path / 'nope.json'}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, reason", [
        ("directory", "cannot be read: Is a directory"),
        ("nested", "is not valid JSON: maximum recursion depth exceeded"),
        ("not-utf-8", "is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    def test_unreadable_file_names_its_path(self, tmp_path, capsys, kind, reason):
        # a directory and a document nested past the recursion limit used to
        # exit 1 with "internal error: ...", and a file that is not UTF-8 to
        # exit 2 with the decoder's message alone, naming no file
        path = tmp_path / "scenario.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"[" * 100000 if kind == "nested" else b"\xff{}")
        assert run(["validate", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: scenario file {path} {reason}")

    @pytest.mark.parametrize("args", [
        ["quantize", "--method=dtpq"],
        ["sweep", "--axis=rx_distance", "--start=5", "--stop=6", "--step=1", "--methods=dtpq"],
        ["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-step=15",
         "--phi-step=90"],
    ], ids=["quantize", "sweep", "gradient-map"])
    def test_unwritable_out_exits_2(self, small_path, tmp_path, capsys, args):
        # quantize printed its four result lines and then, like sweep and
        # gradient-map, exited 1 with "internal error: [Errno 2] No such file
        # or directory"; the CSV is now written before any line is printed
        out = tmp_path / "missing" / "out.csv"
        assert run([args[0], "--scenario", small_path, *args[1:], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out} cannot be written: No such file or directory\n"

    def test_bad_key_exit_code(self, tmp_path, capsys):
        doc = document_with(ris_2p6ghz_document(), "placement", altitude_m=3.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--scenario", str(path)]) == 2
        assert "placement.altitude_m" in capsys.readouterr().err
        # a distance beyond its range, 1e200 m, whose square used to overflow,
        # is refused at the boundary, by name
        doc = document_with(ris_2p6ghz_document(), "placement", d2_m=1e200)
        path.write_text(json.dumps(doc))
        assert run(["quantize", "--scenario", str(path), "--method", "dtpq",
                    "--out", str(tmp_path / "shifts.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: placement.d2_m must lie in [0.001, 1e+07] m, got 1e+200\n")

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

    @pytest.mark.parametrize("key", ["gain_tx_dbi", "gain_rx_dbi"])
    def test_overflowing_gain_exit_code(self, tmp_path, capsys, key):
        # 10**(1e30/10) overflows a float; the gain is refused by name, by its
        # range, before it is converted, not as an internal error
        doc = document_with(ris_2p6ghz_document(), "radio", **{key: 1e30})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: radio.{key} must lie in [3.010299956639812, 40] dBi, got 1e+30\n")

    @pytest.mark.parametrize("key, value, message", [
        ("rows", 2.5, "key 'panel.rows' must be an integer, got 2.5"),
        ("rows", math.nextafter(32, math.inf),
         "key 'panel.rows' must be an integer, got 32.00000000000001"),
        ("cols", 16.5, "key 'panel.cols' must be an integer, got 16.5"),
        ("bits", 1.5, "key 'panel.bits' must be an integer, got 1.5"),
        ("bits", 10**7,
         "panel.levels_deg: expected 2**10000000 phase levels for 10000000-bit resolution, got 2"),
        ("bits", 10**400, "key 'panel.bits' must be finite, got inf"),
        ("cell_dx_m", -10**400, "key 'panel.cell_dx_m' must be finite, got -inf"),
        ("levels_deg", [55, 10**400], "key 'panel.levels_deg' must be finite, got inf"),
        ("rows", 0, "panel.rows must lie in [1, inf), got 0"),
        ("cols", 0, "panel.cols must lie in [1, inf), got 0"),
        ("bits", 0, "panel.bits must lie in [1, inf), got 0"),
        ("reflection", 2, "panel.reflection must lie in (0, 1], got 2"),
    ], ids=["rows-2.5", "rows-ulp-above-32", "cols-16.5", "bits-1.5", "bits-1e7", "bits-1e400", "cell-dx-minus-1e400",
            "levels-1e400", "rows-0", "cols-0", "bits-0", "reflection-2"])
    def test_refuses_a_panel_number_by_name(self, tmp_path, capsys, key, value, message):
        # rows 2.5 used to validate as 2x16 and bits 1.5 to design 1 bit; a bits
        # of 10**7 failed formatting 2**bits, so a bits that cannot match the
        # levels is refused before 2**bits is formed; a level of 10**400 used to
        # exit 1 with "internal error: int too large to convert to float";
        # rows one ulp above 32 used to read "got 32"
        doc = document_with(ris_2p6ghz_document(), "panel", **{key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        # at the 1e7 m end of the distance range the power stays finite
        far_path = tmp_path / "far.json"
        far_path.write_text(json.dumps(document_with(ris_2p6ghz_document(), "placement",
                                                     d1_m=1e7, d2_m=1e7)))
        for path in (ris1_path, str(far_path)):
            run(["quantize", "--scenario", path, "--method", "dtpq", "--out", str(out)])
            captured = capsys.readouterr().out
            scenario = load_scenario(path)
            result = dtpq(link_state(scenario))
            printed_power = float(captured.split("received_power_dbm=")[1].split()[0])
            assert math.isfinite(printed_power)
            assert printed_power == pytest.approx(result.received_power_dbm, abs=5e-5)
            printed_thr = float(captured.split("threshold_deg=")[1].split()[0])
            assert printed_thr == pytest.approx(result.threshold_deg, abs=5e-5)

    def test_shifts_round_trip(self, ris1_path, tmp_path):
        scenario = load_scenario(ris1_path)
        result = dtpq(link_state(scenario))
        path = tmp_path / "shifts.csv"
        write_shifts_csv(str(path), result)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        reloaded = np.zeros(result.level_indices.shape, dtype=np.intp)
        for record in records:
            index = int(record["level_index"])
            reloaded[int(record["m"]) - 1, int(record["n"]) - 1] = index
            assert record["level_deg"] == f"{math.degrees(scenario.panel.levels[index]):.4f}"
        assert len(records) == scenario.panel.num_cells
        assert np.array_equal(reloaded, result.level_indices)

    def test_eipq_guard_exit_code(self, ris1_path, capsys):
        # about 1.8e11 grid thresholds: refused before the grid is built
        assert run(["quantize", "--scenario", ris1_path, "--method", "eipq:1e-9"]) == 2
        err = capsys.readouterr().err
        assert "1e-09 deg" in err and "candidates" in err and "guard" in err
        # a subnormal step is counted exactly too, refused by the guard and
        # shown as typed: it used to read "epsilon = 9.99989e-321 deg"
        assert run(["quantize", "--scenario", ris1_path, "--method", "eipq:1e-320"]) == 2
        assert capsys.readouterr().err == (
            "error: method token 'eipq:1e-320': eipq refused: epsilon = 1e-320 deg gives more "
            f"candidates than the guard of {quantization.EIPQ_GUARD_CANDIDATES}\n")

    def test_threshold_a_hair_below_zero_is_zero(self, tmp_path, capsys):
        # radians(-1e-20) mod 2*pi rounds up to 2*pi itself; it quantizes at 0
        runs = [outputs(["quantize", "--method", token], ris_2p6ghz_document(), tmp_path,
                        capsys) for token in ("fixed:-1e-20", "fixed:0")]
        assert "threshold_deg=0.0000\n" in runs[0][0]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("key", ["phi_t_deg", "phi_r_deg"])
    def test_azimuth_a_hair_below_zero_is_zero(self, tmp_path, capsys, key):
        # radians(-1e-20) mod 2*pi rounds up to 2*pi, which the placement used
        # to refuse: "phi_t must lie in [0, 2*pi), got 6.283185307179586"
        runs = [outputs(["quantize", "--method", "dtpq"],
                        document_with(ris_2p6ghz_document(), "placement", **{key: phi}),
                        tmp_path, capsys) for phi in (-1e-20, 0.0)]
        assert runs[0] == runs[1]

    def test_level_a_hair_below_zero_is_zero(self, tmp_path, capsys):
        # level 0 used to be written as 360.0000 deg
        runs = [outputs(["quantize", "--method", "dtpq"],
                        document_with(ris_2p6ghz_document(), "panel", levels_deg=[level, 180]),
                        tmp_path, capsys) for level in (-1e-20, 0.0)]
        assert runs[0] == runs[1] and b"360.0000" not in runs[0][1]

    def test_refuses_a_link_with_no_lit_cell(self, tmp_path, capsys):
        # cells 10 m wide put every cell behind the Tx or the Rx antenna 1 m
        # away; dtpq used to print received_power_dbm=-inf with exit 0
        err = refused(["quantize", "--method", "dtpq"], behind_the_antennas(), tmp_path, capsys)
        assert err == f"error: {NO_LIT_CELL}: {BEHIND_AN_ANTENNA}\n"

    def test_refuses_patterns_that_underflow(self, tmp_path, capsys):
        # the largest accepted gains underflow every cell's amplitude to 0 on
        # cells seen 82 deg off boresight; on the bundled link they and the
        # largest cell_alpha print a finite power.  3000 dBi (alpha ~ 1e299)
        # made the power nan after a RuntimeWarning, and is refused by name
        err = refused(["quantize", "--method", "dtpq"], underflowing_amplitudes(), tmp_path,
                      capsys)
        assert err == f"error: {NO_LIT_CELL}: {UNDERFLOWING_PATTERNS}\n"
        doc = document_with(ris_2p6ghz_document(), "radio", gain_tx_dbi=40.0,
                            gain_rx_dbi=40.0, cell_alpha=100.0)
        stdout, _ = outputs(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert math.isfinite(float(stdout.split("received_power_dbm=")[1].split()[0]))
        (tmp_path / "out.csv").unlink()
        doc = document_with(ris_2p6ghz_document(), "radio", gain_tx_dbi=3000.0,
                            gain_rx_dbi=3000.0)
        err = refused(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert err == ("error: radio.gain_tx_dbi must lie in [3.010299956639812, 40] dBi, "
                       "got 3000\n")

    @pytest.mark.parametrize("key, value, message", [
        ("cell_alpha", math.nextafter(100.0, math.inf),
         "radio.cell_alpha must lie in [0, 100], got 100.00000000000001"),
        ("gain_rx_dbi", math.nextafter(40.0, math.inf),
         "radio.gain_rx_dbi must lie in [3.010299956639812, 40] dBi, got 40.00000000000001"),
    ], ids=["cell-alpha", "gain-rx"])
    def test_refuses_a_pattern_exponent_above_the_limit(self, tmp_path, capsys, key, value,
                                                         message):
        # one step above its range, a pattern exponent or a gain is refused by
        # name; unguarded, cell_alpha 1e300 with both antennas on the normal
        # over a 3x3 panel gave its center cell ten times the 1/(r_t * r_r)
        # that cos**alpha <= 1 allows
        err = refused(["quantize", "--method", "dtpq"],
                      document_with(ris_2p6ghz_document(), "radio", **{key: value}),
                      tmp_path, capsys)
        assert err == f"error: {message}\n"

    def test_refuses_a_panel_above_the_guard(self, tmp_path, capsys):
        # 2**20 cells validate and one row more does not; a 10**6 x 10**6 panel
        # used to validate, and quantize then failed allocating 29.1 TiB
        path = tmp_path / "big.json"
        for rows, code in ((1024, 0), (1025, 2)):
            path.write_text(json.dumps(document_with(ris_2p6ghz_document(), "panel",
                                                     rows=rows, cols=1024)))
            assert run(["validate", "--scenario", str(path)]) == code
        assert "panel.rows x panel.cols = 1025x1024" in capsys.readouterr().err
        doc = document_with(ris_2p6ghz_document(), "panel", rows=10**6, cols=10**6)
        err = refused(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert err == ("error: panel.rows x panel.cols = 1000000x1000000 cells exceeds the guard "
                       "of 1048576\n")

    @pytest.mark.parametrize("key", ["cell_dx_m", "cell_dy_m"])
    def test_refuses_a_panel_too_wide_for_its_paths(self, tmp_path, capsys, key):
        # cells of 1e154 m overflowed the squared path lengths: two RuntimeWarnings
        # (an exit 1 here, where warnings are errors), else an exit 2 blaming the
        # placement for putting every cell behind an antenna; the cell-size
        # range refuses them by name
        doc = document_with(ris_2p6ghz_document(), "panel", rows=4, cols=4, **{key: 1e154})
        err = refused(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert err == f"error: panel.{key} must lie in [1e-06, 10] m, got 1e+154\n"

    @pytest.mark.parametrize("key", ["cell_dx_m", "cell_dy_m"])
    def test_widest_panel_at_the_farthest_distance_runs(self, tmp_path, capsys, key):
        # the widest cells, the farthest distances and the highest frequency,
        # each at the end of its range, run to a finite power; one step wider
        # is refused
        doc = document_with(ris_2p6ghz_document(), "panel", rows=2, cols=2,
                            cell_dx_m=10.0, cell_dy_m=10.0)
        doc = document_with(doc, "placement", d1_m=1e7, d2_m=1e7)
        doc = document_with(doc, "radio", freq_ghz=1e4)
        stdout, shifts = outputs(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert math.isfinite(float(stdout.split("received_power_dbm=")[1].split()[0]))
        assert len(shifts.splitlines()) == 1 + 4
        (tmp_path / "out.csv").unlink()
        err = refused(["quantize", "--method", "dtpq"],
                      document_with(doc, "panel", **{key: math.nextafter(10.0, math.inf)}),
                      tmp_path, capsys)
        assert err.startswith(f"error: panel.{key} must lie in ")

    def test_refuses_distances_whose_amplitudes_overflow_xi(self, tmp_path, capsys):
        # 4x4 cells with both antennas on the normal at 2**-511 m: each
        # amplitude 1/(r_t * r_r) was about 2**1022, and xi overflowed to inf,
        # printed with exit 0 after two RuntimeWarnings; a distance below 1 mm
        # is refused by name
        doc = document_with(ris_2p6ghz_document(), "panel", rows=4, cols=4,
                            cell_dx_m=1e-6, cell_dy_m=1e-6)
        doc = document_with(doc, "placement", d1_m=2.0**-511, d2_m=2.0**-511,
                            theta_t_deg=0.0, theta_r_deg=0.0)
        err = refused(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert err == ("error: placement.d1_m must lie in [0.001, 1e+07] m, "
                       "got 1.4916681462400413e-154\n")

    @pytest.mark.parametrize("theta_deg", [0.0, 89.999999])
    def test_nearest_distance_runs(self, tmp_path, capsys, theta_deg):
        # the smallest cells at the nearest distances, on the normal and at
        # grazing, print a finite power
        doc = document_with(ris_2p6ghz_document(), "panel", rows=4, cols=4,
                            cell_dx_m=1e-6, cell_dy_m=1e-6)
        doc = document_with(doc, "placement", d1_m=1e-3, d2_m=1e-3,
                            theta_t_deg=theta_deg, theta_r_deg=theta_deg)
        stdout, _ = outputs(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert math.isfinite(float(stdout.split("received_power_dbm=")[1].split()[0]))

    def test_refuses_a_wavelength_too_short_for_its_paths(self, tmp_path, capsys):
        # 1e290 GHz over 1e30 m overflowed the path in wavelengths: two
        # RuntimeWarnings, then exit 2 with "zero-size array to reduction
        # operation minimum which has no identity", naming no key; a frequency
        # above the terahertz band is refused by name
        doc = document_with(ris_2p6ghz_document(), "radio", freq_ghz=1e290)
        err = refused(["quantize", "--method", "dtpq"], doc, tmp_path, capsys)
        assert err == "error: radio.freq_ghz must lie in [0.1, 10000] GHz, got 1e+290\n"

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

    @pytest.mark.parametrize("methods", ["dtpq,eipq:5", "eipq:5,dtpq"])
    def test_kernel_value_error_exits_one(self, small_path, tmp_path, monkeypatch, capsys,
                                          methods):
        # a bare ValueError from a kernel is a fault of the program: exit 1,
        # with no grid value or method token in front to blame the input (it
        # used to exit 2 with "rx_distance 5: " and, on eipq, "method token ")
        def broken(state, gammas):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(quantization, "_profile_xi", broken)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--scenario", small_path, "--axis=rx_distance", "--start=5",
                    "--stop=6", "--step=1", f"--methods={methods}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "internal error: operands could not be broadcast together\n"

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
        # a start a hair below 0 quantizes its first row at 0
        assert run(["sweep", "--scenario", small_path, "--axis", "threshold",
                    "--start=-1e-20", "--stop", "355", "--step", "5",
                    "--methods", "fixed", "--out", str(out)]) == 0
        shifted = out.read_text().splitlines()
        assert shifted[1].split(",")[1:] == lines[1].split(",")[1:]
        assert shifted[1].split(",")[2] == "0.0000"

    def test_threshold_start_a_hair_below_zero_writes_the_same_csv(self, tmp_path, capsys):
        # the first row used to be labelled -0.0000 while its threshold read 0.0000
        runs = [outputs(["sweep", "--axis", "threshold", f"--start={start}", "--stop", "2",
                         "--step", "1", "--methods", "fixed"], ris_2p6ghz_document(),
                        tmp_path, capsys) for start in ("-1e-20", "0")]
        assert runs[0] == runs[1] and runs[0][1].splitlines()[1].startswith(b"0.0000,")

    def test_grid_guard_exit_code(self, small_path, capsys):
        # 5e12 grid points: refused before the grid is allocated
        assert run(["sweep", "--scenario", small_path, "--axis", "rx_distance",
                    "--start", "5", "--stop", "10", "--step", "1e-12",
                    "--methods", "dtpq"]) == 2
        err = capsys.readouterr().err
        assert "--step 1e-12 gives 5000000000001 grid points" in err and "guard" in err

    def test_refuses_a_row_with_no_lit_cell(self, tmp_path, capsys):
        # with cells 10 m wide and the Tx 1 m away, the rows at 1 m and 4 m
        # differ: the first has no lit cell and used to hold -inf, and names
        # the axis value
        err = refused(["sweep", "--axis", "rx_distance", "--start", "1", "--stop", "10",
                       "--step", "3", "--methods", "continuous,dtpq"], behind_the_antennas(),
                      tmp_path, capsys)
        assert err == f"error: rx_distance 1: {NO_LIT_CELL}: {BEHIND_AN_ANTENNA}\n"
        outputs(["sweep", "--axis", "rx_distance", "--start", "4", "--stop", "10", "--step", "3",
                 "--methods", "continuous,dtpq"], behind_the_antennas(), tmp_path, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--axis", "rx_distance", "--start=-1", "--stop", "1", "--step", "1",
          "--methods", "dtpq"], "rx_distance -1: placement.d2_m must lie in [0.001, 1e+07] m, "
                                "got -1"),
        (["sweep", "--axis", "tx_distance", "--start", "0", "--stop", "1", "--step", "1",
          "--methods", "dtpq"], "tx_distance 0: placement.d1_m must lie in [0.001, 1e+07] m, "
                                "got 0"),
        (["pl-fit", "--variable", "d1", "--start", "1e-300", "--stop", "1", "--num", "3"],
         "log10_d1 sample 1e-300: placement.d1_m must lie in [0.001, 1e+07] m, got 1e-300"),
    ], ids=["sweep-rx-distance", "sweep-tx-distance", "pl-fit-d1"])
    def test_placement_refusals_name_the_axis_value(self, small_path, capsys, argv, message):
        # a distance refused at a grid value used to name neither the axis nor
        # the value: "error: d2 must be positive and finite, got -1.0"
        assert run([argv[0], "--scenario", small_path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_threshold_axis_rejects_other_methods(self, small_path, capsys):
        # the grid supplies the threshold, so a parameter on fixed is refused too
        for methods, named in (("dtpq", "fixed"), ("fixed:12", "'fixed:12'")):
            assert run(["sweep", "--scenario", small_path, "--axis", "threshold",
                        "--start", "0", "--stop", "355", "--step", "5",
                        "--methods", methods]) == 2
            assert named in capsys.readouterr().err


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

    def test_gradient_map_target_phi_a_hair_below_zero_is_zero(self, tmp_path, capsys):
        # --target-phi=-1e-20 used to exit 2 with "phi_r must lie in [0, 2*pi),
        # got 6.283185307179586", naming neither the option nor degrees
        runs = [outputs(["gradient-map", "--target-theta", "45", f"--target-phi={phi}",
                         "--theta-step", "15", "--phi-step", "60"],
                        ris_2p6ghz_document(), tmp_path, capsys) for phi in ("-1e-20", "0")]
        assert runs[0] == runs[1]

    def test_angle_scan_refuses_a_point_with_no_lit_cell(self, tmp_path, capsys):
        # the design link at 45 deg is lit, but cos(theta)**100 underflows at
        # +-90 deg, whose rows used to hold -inf
        doc = document_with(ris_2p6ghz_document(), "radio", cell_alpha=100.0)
        err = refused(["angle-scan", "--target", "45", "--start", "-90", "--stop", "90",
                       "--step", "1", "--methods", "continuous,dtpq"], doc, tmp_path, capsys)
        assert err == f"error: {DARK_AT_GRAZING}: {UNDERFLOWING_PATTERNS}\n"

    def test_gradient_map_refuses_a_point_with_no_lit_cell(self, tmp_path, capsys):
        # the default map used to write 181 -inf rows at theta 90 deg
        doc = document_with(ris_2p6ghz_document(), "radio", cell_alpha=100.0)
        err = refused(["gradient-map", "--target-theta", "45", "--target-phi", "180"],
                      doc, tmp_path, capsys)
        assert err == f"error: {DARK_AT_GRAZING}: {UNDERFLOWING_PATTERNS}\n"

    def test_gradient_map_refuses_a_dark_point_from_a_phi_start_below_zero(
        self, tmp_path, capsys
    ):
        # -1e-20 deg once wrapped to phi_r 2*pi, and the refusal failed building
        # the dark point: "phi_r must lie in [0, 2*pi), got 6.283185307179586";
        # then it read "phi_r 0", the wrapped value; now it names the value typed
        doc = document_with(ris_2p6ghz_document(), "radio", cell_alpha=100.0)
        err = refused(["gradient-map", "--target-theta", "45", "--target-phi", "180",
                       "--phi-start=-1e-20"], doc, tmp_path, capsys)
        dark = DARK_AT_GRAZING.replace("phi_r 0 deg", "phi_r -1e-20 deg")
        assert err == f"error: {dark}: {UNDERFLOWING_PATTERNS}\n"

    def test_gradient_map_phi_start_a_hair_below_zero_is_zero(self, tmp_path, capsys):
        # the first azimuth was written as -0.0000, and evaluated at 2*pi
        runs = [outputs(["gradient-map", "--target-theta", "45", "--target-phi", "180",
                         f"--phi-start={start}", "--phi-stop", "10", "--phi-step", "5"],
                        ris_2p6ghz_document(), tmp_path, capsys) for start in ("-1e-20", "0")]
        assert runs[0] == runs[1]

    def test_map_guard_exit_code(self, small_path, capsys):
        assert run(["gradient-map", "--scenario", small_path,
                    "--target-theta", "45", "--target-phi", "180",
                    "--theta-step", "0.01", "--phi-step", "0.01", "--method", "dtpq"]) == 2
        err = capsys.readouterr().err
        assert "--theta-step/--phi-step give a 9001 x 36001 map" in err and "guard" in err

    @pytest.mark.skipif(sys.platform != "linux", reason="minor faults are counted on Linux")
    def test_map_page_faults_stay_within_the_workspace(self, tmp_path):
        # the field workspace is allocated once per worker, so a 61 x 61 map
        # (59 chunks on the 512-cell panel, split over at most two workers)
        # faults in a few workspaces' worth of pages more than a one-point
        # map, which imports the same modules (`validate` imports no numpy);
        # allocating chunk temporaries per chunk cost about 11700 pages more
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
        target = ("--target-theta", "45", "--target-phi", "180", "--method", "dtpq")
        startup = minor_faults("gradient-map", "--scenario", scenario, *target,
                               "--theta-start", "45", "--theta-stop", "45",
                               "--phi-start", "180", "--phi-stop", "180",
                               "--out", str(tmp_path / "point.csv"))
        mapped = minor_faults("gradient-map", "--scenario", scenario, *target,
                              "--theta-step", "1.5", "--phi-step", "6",
                              "--out", str(tmp_path / "map.csv"))
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

        def fmt(value):
            # rounded to 4 places first, then + 0.0 turns a -0.0 into 0.0: no
            # value is written as -0.0000, neither -0.0 nor -1e-5
            return f"{round(float(value), 4) + 0.0:.4f}"

        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta_r_deg", "phi_r_deg", "power_dbm"])
            for i, t in enumerate(theta):
                for j, p in enumerate(phi):
                    writer.writerow([fmt(t), fmt(p), fmt(power[i, j])])
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

    @pytest.mark.parametrize("variable, start, stop, spacing", [
        ("d1", 50.0, 500.0, "log"),
        ("d2", 50.0, 500.0, "log"),
        ("cos_theta_r", 20.0, 70.0, "linear"),
        ("cos_theta_t", 20.0, 70.0, "linear"),
    ], ids=["d1", "d2", "cos_theta_r", "cos_theta_t"])
    def test_pl_fit_spaces_samples_by_the_moved_field(self, small_path, capsys, monkeypatch,
                                                      variable, start, stop, spacing):
        # the library takes the command line's variable name, and the grid is
        # log-spaced in meters on a distance and linear in degrees on an elevation
        calls = []

        def capture(scenario, name, grid, method):
            calls.append((name, grid))
            return analysis.SlopeFit(f"log10_{name}", 0.0, 0.0, 1.0)

        monkeypatch.setattr(analysis, "pl_slope_fit", capture)
        assert run(["pl-fit", "--scenario", small_path, "--variable", variable,
                    "--start", str(start), "--stop", str(stop), "--num", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"variable=log10_{variable}"
        ((name, grid),) = calls
        assert name == variable
        if spacing == "log":
            expected = np.logspace(math.log10(start), math.log10(stop), 7)
        else:
            expected = np.linspace(start, stop, 7)
        assert grid.tolist() == expected.tolist()

    @pytest.mark.parametrize("variable, start, stop, option", [
        ("d2", "50", "0", "--stop"),
        ("d2", "50", "-5", "--stop"),
        ("d2", "50", "inf", "--stop"),
        ("d2", "nan", "500", "--start"),
        ("d2", "0", "500", "--start"),
        ("d2", "-1.0000000000000002", "500",
         "log spacing requires a positive --start, got -1.0000000000000002"),
        ("cos_theta_r", "20", "inf", "--stop"),
        ("cos_theta_r", "-inf", "70", "--start"),
        ("d2", "1e-300", "1e300",
         "log10_d2 sample 1e-300: placement.d2_m must lie in [0.001, 1e+07] m, got 1e-300"),
        ("d2", "50", "1e300", "log10_d2 sample 3.609019018232942e+26: placement.d2_m must "
                              "lie in [0.001, 1e+07] m, got 3.609019018232942e+26"),
    ], ids=["d2-stop-zero", "d2-stop-negative", "d2-stop-inf", "d2-start-nan",
            "d2-start-zero", "d2-start-ulp-below-minus-1", "angle-stop-inf", "angle-start-minus-inf", "d2-samples-underflow",
            "d2-samples-overflow"])
    def test_pl_fit_refuses_bad_bounds(self, small_path, capsys, variable, start, stop, option):
        # the --option=value form keeps argparse from reading "-inf" as a flag
        assert run(["pl-fit", "--scenario", small_path, "--variable", variable,
                    f"--start={start}", f"--stop={stop}", "--method", "continuous"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error, = captured.err.splitlines()
        assert error.startswith("error: ") and option in error

    def test_pl_fit_refuses_a_sample_with_no_lit_cell(self, tmp_path, capsys):
        # cells 10 m wide leave every cell in pattern cutoff at d2 = 1 m: xi = 0
        # there, so the first sample's design is refused
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(behind_the_antennas()))
        assert run(["pl-fit", "--scenario", str(path), "--variable", "d2",
                    "--start", "1", "--stop", "10", "--num", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: log10_d2 sample 1: {NO_LIT_CELL}: {BEHIND_AN_ANTENNA}\n")

    def test_pl_fit_names_the_sizes_when_the_amplitude_underflows(self, tmp_path, capsys):
        # 40 dBi antennas 1 m off 10 m cells: exp of the log sum, in which the
        # cell sizes and the placement weigh beside the exponents, underflows
        # at every cell at d2 = 1 m
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(underflowing_amplitudes()))
        assert run(["pl-fit", "--scenario", str(path), "--variable", "d2",
                    "--start", "1", "--stop", "100", "--num", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: log10_d2 sample 1: {NO_LIT_CELL}: "
                                f"{UNDERFLOWING_PATTERNS}\n")

    def test_pl_fit_refuses_more_samples_than_the_guard(self, small_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("pl_slope_fit ran past the --num guard")

        monkeypatch.setattr(analysis, "pl_slope_fit", unreachable)
        assert run(["pl-fit", "--scenario", small_path, "--variable", "d2",
                    "--start", "50", "--stop", "500", "--num", "100000000"]) == 2
        err = capsys.readouterr().err
        assert "--num 100000000" in err and "guard of 1048576" in err

    @pytest.mark.parametrize("args, message", [
        (["--variable=d2", "--start=50", "--stop=1.7976931348623157e308"],
         "log10_d2 sample 9.480751908109518e+154: placement.d2_m must lie in "
         "[0.001, 1e+07] m, got 9.480751908109518e+154"),
        (["--variable=d1", "--start=1.7976931348623157e308", "--stop=50"],
         "log10_d1 sample inf: placement.d1_m must lie in [0.001, 1e+07] m, got inf"),
    ], ids=["stop-largest-float", "start-largest-float"])
    def test_pl_fit_refuses_samples_past_the_float_range(self, small_path, capsys, args,
                                                           message):
        # a log-spaced sample past the largest float is inf, refused by the
        # placement range without an overflow warning (the suite makes it an error)
        assert run(["pl-fit", "--scenario", small_path, *args, "--num=3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["angle-scan", "--target=90", "--start=0", "--stop=10", "--step=1",
          "--methods=dtpq"], "--target must lie in (-90, 90) deg, got 90"),
        (["angle-scan", "--target=nan", "--start=0", "--stop=10", "--step=1",
          "--methods=dtpq"], "--target must be finite, got nan"),
        (["angle-scan", "--target=45", "--start=80", "--stop=180", "--step=20",
          "--methods=dtpq"], "--stop must lie in [-90, 90] deg, got 180"),
        (["angle-scan", "--target=45", "--start=-90.5", "--stop=0", "--step=1",
          "--methods=dtpq"], "--start must lie in [-90, 90] deg, got -90.5"),
        (["gradient-map", "--target-theta=95", "--target-phi=0"],
         "--target-theta must lie in [0, 90) deg, got 95"),
        (["gradient-map", "--target-theta=90", "--target-phi=0"],
         "--target-theta must lie in [0, 90) deg, got 90"),
        (["gradient-map", "--target-theta=45", "--target-phi=inf"],
         "--target-phi must be finite, got inf"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-start=-5"],
         "--theta-start must lie in [0, 90] deg, got -5"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-stop=120"],
         "--theta-stop must lie in [0, 90] deg, got 120"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-step=7"],
         "--theta-step 7 puts the last point at 91, outside [0, 90] deg"),
        (["pl-fit", "--variable=cos_theta_r", "--start=20", "--stop=90"],
         "--stop must lie in [0, 90) deg, got 90"),
        (["pl-fit", "--variable=cos_theta_t", "--start=-10", "--stop=60"],
         "--start must lie in [0, 90) deg, got -10"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--phi-step=-1"],
         "--phi-step must be positive, got -1"),
        (["angle-scan", "--target=45", "--start=0", "--stop=10", "--step=0", "--methods=dtpq"],
         "--step must be positive, got 0"),
        (["sweep", "--axis=rx_distance", "--start=10", "--stop=5", "--step=1",
          "--methods=dtpq"], "--stop 5 must not precede --start 10"),
        (["sweep", "--axis=rx_distance", "--start=5", "--stop=10", "--step=inf",
          "--methods=dtpq"], "--step must be finite, got inf"),
        (["angle-scan", "--target=45", "--start=0", "--stop=10", "--step=inf",
          "--methods=dtpq"], "--step must be finite, got inf"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-step=inf"],
         "--theta-step must be finite, got inf"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--phi-step=inf"],
         "--phi-step must be finite, got inf"),
        (["sweep", "--axis=rx_distance", "--start=nan", "--stop=10", "--step=1",
          "--methods=dtpq"], "--start must be finite, got nan"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--phi-stop=inf"],
         "--phi-stop must be finite, got inf"),
        (["sweep", "--axis=theta_r", "--start=80", "--stop=95", "--step=5",
          "--methods=dtpq"], "--stop must lie in [0, 90) deg, got 95"),
        (["sweep", "--axis=theta_r", "--start=0", "--stop=89.5", "--step=1",
          "--methods=dtpq"], "--step 1 puts the last point at 90, outside [0, 90) deg"),
        (["angle-scan", "--target=45", "--start=-90", "--stop=90", "--step=7",
          "--methods=dtpq"], "--step 7 puts the last point at 92, outside [-90, 90] deg"),
        # one ulp outside an end, or below the start, used to read as the end
        # or the start itself ("got 90", "--theta-stop 90 must not precede ...")
        (["gradient-map", "--target-theta=45", "--target-phi=0",
          "--theta-stop=90.00000000000001"],
         "--theta-stop must lie in [0, 90] deg, got 90.00000000000001"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--theta-start=90",
          "--theta-stop=89.99999999999999"],
         "--theta-stop 89.99999999999999 must not precede --theta-start 90"),
        (["angle-scan", "--target=45", "--start=0", "--stop=90.00000000000001", "--step=1",
          "--methods=dtpq"], "--stop must lie in [-90, 90] deg, got 90.00000000000001"),
        # a grid value one ulp below a range's end used to be shown as the end
        # in the prefix ("rx_distance 0.001: ...")
        (["sweep", "--axis=rx_distance", "--start=0.0009999999999999998", "--stop=0.002",
          "--step=0.001", "--methods=dtpq"],
         "rx_distance 0.0009999999999999998: placement.d2_m must lie in [0.001, 1e+07] m, "
         "got 0.0009999999999999998"),
    ], ids=["scan-target-90", "scan-target-nan", "scan-stop-180", "scan-start-below-90",
            "map-theta-95", "map-theta-90", "map-phi-inf", "map-theta-start-negative",
            "map-theta-stop-120", "map-theta-step-overshoot", "fit-stop-90", "fit-start-negative",
            "map-phi-step-negative", "scan-step-zero", "sweep-stop-before-start",
            "sweep-step-inf", "scan-step-inf", "map-theta-step-inf", "map-phi-step-inf",
            "sweep-start-nan", "map-phi-stop-inf", "sweep-theta-r-stop-95",
            "sweep-theta-r-step-overshoot", "scan-step-overshoot", "map-theta-stop-ulp-above",
            "map-theta-stop-ulp-below-start", "scan-stop-ulp-above", "sweep-d2-ulp-below-range"])
    def test_angle_options_named_in_degrees(self, small_path, capsys, args, message):
        # an interval in degrees reads "deg", as in the scenario keys' refusals;
        # it used to read "degrees"
        assert run([args[0], "--scenario", small_path, *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["quantize", "--method=dtpq:7"], "method 'dtpq' takes no parameter, got 'dtpq:7'"),
        (["quantize", "--method=continuous"],
         "unknown method 'continuous'; expected one of dtpq, eipq, fixed"),
        (["quantize", "--method=exhaustive"],
         "unknown method 'exhaustive'; expected one of dtpq, eipq, fixed"),
        (["sweep", "--axis=rx_distance", "--start=5", "--stop=6", "--step=1",
          "--methods=continuous:1"],
         "method 'continuous' takes no parameter, got 'continuous:1'"),
        (["sweep", "--axis=rx_distance", "--start=5", "--stop=6", "--step=1",
          "--methods=dtpq,exhaustive"],
         "unknown method 'exhaustive'; expected one of continuous, dtpq, eipq, fixed"),
        (["angle-scan", "--target=45", "--start=0", "--stop=10", "--step=1",
          "--methods=dtpq,dtpq"], "duplicate method 'dtpq' in dtpq,dtpq"),
        (["angle-scan", "--target=45", "--start=0", "--stop=10", "--step=1",
          "--methods=eipq:3,eipq:20"], "duplicate method 'eipq' in eipq:3,eipq:20"),
        (["angle-scan", "--target=45", "--start=0", "--stop=10", "--step=1",
          "--methods=exhaustive"],
         "unknown method 'exhaustive'; expected one of continuous, dtpq, eipq, fixed"),
        (["gradient-map", "--target-theta=45", "--target-phi=0", "--method=exhaustive"],
         "unknown method 'exhaustive'; expected one of continuous, dtpq, eipq, fixed"),
        (["pl-fit", "--variable=d2", "--start=50", "--stop=500", "--method=exhaustive"],
         "unknown method 'exhaustive'; expected one of continuous, dtpq, eipq, fixed"),
        (["quantize", "--method=eipq:nan"], "parameter in method token 'eipq:nan' must be finite"),
        (["quantize", "--method=eipq:inf"], "parameter in method token 'eipq:inf' must be finite"),
        (["quantize", "--method=fixed:inf"],
         "parameter in method token 'fixed:inf' must be finite"),
        (["quantize", "--method=fixed:-inf"],
         "parameter in method token 'fixed:-inf' must be finite"),
        (["quantize", "--method=fixed:nan"],
         "parameter in method token 'fixed:nan' must be finite"),
        (["quantize", "--method=eipq:-5"],
         "method token 'eipq:-5': epsilon must lie in (0, 180) deg for 1-bit quantization, "
         "got -5 deg"),
        (["quantize", "--method=eipq:180"],
         "method token 'eipq:180': epsilon must lie in (0, 180) deg for 1-bit quantization, "
         "got 180 deg"),
        (["quantize", "--method=eipq:180.00000000000003"],
         "method token 'eipq:180.00000000000003': epsilon must lie in (0, 180) deg for 1-bit "
         "quantization, got 180.00000000000003 deg"),
        # the step as it was typed, not its radians turned back (-3.0000000000000004)
        (["quantize", "--method=eipq:-3"],
         "method token 'eipq:-3': epsilon must lie in (0, 180) deg for 1-bit quantization, "
         "got -3 deg"),
        # the step in degrees and the guard, not a 300-digit candidate count
        (["quantize", "--method=eipq:1e-300"],
         "method token 'eipq:1e-300': eipq refused: epsilon = 1e-300 deg gives more "
         f"candidates than the guard of {quantization.EIPQ_GUARD_CANDIDATES}"),
    ], ids=["quantize-dtpq-parameter", "quantize-continuous", "quantize-exhaustive",
            "sweep-continuous-parameter",
            "sweep-exhaustive", "scan-duplicate", "scan-duplicate-eipq", "scan-exhaustive",
            "map-exhaustive", "fit-exhaustive", "quantize-eipq-nan", "quantize-eipq-inf",
            "quantize-fixed-inf", "quantize-fixed-minus-inf", "quantize-fixed-nan",
            "quantize-eipq-negative", "quantize-eipq-one-interval",
            "quantize-eipq-ulp-above-interval", "quantize-eipq-minus-3",
            "quantize-eipq-guard-1e-300"])
    def test_method_tokens_refused(self, small_path, tmp_path, monkeypatch, capsys, args,
                                   message):
        # one method table checks every command's tokens before anything is
        # written; a parameter is refused non-finite, or out of range in degrees
        monkeypatch.chdir(tmp_path)
        assert run([args[0], "--scenario", small_path, *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["small.json"]


# Each numeric scenario key, and the first level, set in turn to each of
# these values on a 4x4 copy of the 2.6 GHz scenario, under each of these
# commands, must exit 0 with every printed and written number finite, or exit 2.
BOUNDARY_KEYS = [("panel", key) for key in ("rows", "cols", "cell_dx_m", "cell_dy_m", "bits",
                                            "reflection", "levels_deg")] + [
    ("placement", key) for key in ("d1_m", "d2_m", "theta_t_deg", "phi_t_deg", "theta_r_deg",
                                   "phi_r_deg")] + [
    ("radio", key) for key in ("freq_ghz", "tx_power_dbm", "gain_tx_dbi", "gain_rx_dbi",
                               "cell_alpha")]
BOUNDARY_VALUES = [0, -1, 5e-324, 1e-300, 1e154, 1e300, 10**400, -10**400]
BOUNDARY_COMMANDS = [
    ["validate"],
    ["quantize", "--method", "dtpq", "--out"],
    ["angle-scan", "--target", "30", "--start", "-90", "--stop", "90", "--step", "30",
     "--methods", "continuous,dtpq", "--out"],
    ["pl-fit", "--variable", "d2", "--start", "1", "--stop", "100", "--num", "3"],
]
_NUMBER = re.compile(r"-?(?:inf|nan|\d+(?:\.\d+)?(?:e[-+]?\d+)?)", re.IGNORECASE)


@pytest.mark.parametrize("value", BOUNDARY_VALUES,
                         ids=["0", "-1", "5e-324", "1e-300", "1e154", "1e300", "1e400", "-1e400"])
@pytest.mark.parametrize("section, key", BOUNDARY_KEYS, ids=lambda x: x)
def test_scenario_boundary_ends_finite_or_exits_2(tmp_path, capsys, section, key, value):
    doc = document_with(ris_2p6ghz_document(), "panel", rows=4, cols=4)
    if key == "levels_deg":
        doc["panel"]["levels_deg"][0] = value
    else:
        doc[section][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    for command in BOUNDARY_COMMANDS:
        argv = [command[0], "--scenario", str(path), *command[1:]]
        argv += [str(out)] if argv[-1] == "--out" else []
        code = run(argv)
        captured = capsys.readouterr()
        assert code in (0, 2), (command[0], captured.err)
        if code == 0:
            text = captured.out.replace(str(out), "out.csv")
            if command[-1] == "--out":
                text += out.read_text().split("\n", 1)[1]  # the rows, below the header
            numbers = _NUMBER.findall(text)
            assert all(math.isfinite(float(number)) for number in numbers), (command[0], text)
        out.unlink(missing_ok=True)


@st.composite
def in_range_documents(draw):
    """A scenario document on a panel of at most 4x4 cells with every key of
    RANGES inside its interval: a closed interval's key at an end, or between
    them (log-uniformly where the interval is positive), the counts and the
    keys with an open end drawn apart, the other keys anywhere in theirs."""
    doc = document_with(ris_2p6ghz_document(), "panel", rows=draw(st.integers(1, 4)),
                        cols=draw(st.integers(1, 4)),
                        reflection=draw(st.sampled_from([1e-300, 1.0]) | st.floats(1e-6, 1.0)))
    if draw(st.booleans()):
        doc["panel"].update(bits=2, levels_deg=[0.0, 90.0, 180.0, 270.0])
    for key in ("theta_t_deg", "theta_r_deg"):
        doc["placement"][key] = draw(st.sampled_from([0.0, 89.999999]) | st.floats(0.0, 89.999999))
    for key in ("phi_t_deg", "phi_r_deg"):
        doc["placement"][key] = draw(st.floats(0.0, 360.0, exclude_max=True))
    for key, (interval, _, _) in RANGES.items():
        if interval[0] + interval[-1] != "[]":  # the counts, reflection and elevations: above
            continue
        section, name = key.split(".")
        lo, hi = ends(interval)
        between = draw(st.floats(0.0, 1.0))
        inside = lo * (hi / lo) ** between if lo > 0.0 else lo + (hi - lo) * between
        doc[section][name] = draw(st.sampled_from([lo, hi, min(max(inside, lo), hi)]))
    return doc


def quantize_outcome(doc, tmp_path, capsys) -> tuple[int, str]:
    """The exit code of ``quantize --method dtpq`` on ``doc``, with warnings as
    errors, and its stderr; an exit 0 must print and write only finite numbers."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["quantize", "--scenario", str(path), "--method", "dtpq", "--out", str(out)])
    captured = capsys.readouterr()
    if code == 0:
        text = captured.out.replace(str(out), "out.csv") + out.read_text().split("\n", 1)[1]
        assert all(math.isfinite(float(number)) for number in _NUMBER.findall(text)), text
    return code, captured.err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(in_range_documents())
def test_in_range_placement_angles_are_held_as_written(doc):
    # every field holds its key's value as the file writes it, bit for bit,
    # the levels as a tuple of degrees; only geometry.antenna_points turns a
    # placement angle into radians, and RisPanel.levels the levels
    scenario = parse_scenario(doc)
    for section, keys in doc.items():
        for key, value in keys.items():
            expected = tuple(value) if isinstance(value, list) else value
            assert repr(getattr(getattr(scenario, section), key)) == repr(expected), key


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(in_range_documents())
def test_every_in_range_scenario_quantizes(tmp_path, capsys, doc):
    # inside every range, ends included, a run ends with finite output, or
    # exits 2 on a link whose cells all lie behind an antenna or underflow
    code, err = quantize_outcome(doc, tmp_path, capsys)
    assert code == 0 or (code == 2 and err.startswith(f"error: {NO_LIT_CELL}: ")), err


def range_ends() -> list:
    """Each finite end of every RANGES row, as the parameters (key, above), where
    ``above`` marks the high end; an infinite end has no value to test."""
    return [pytest.param(key, above, id=f"{key}-{'high' if above else 'low'}")
            for key in RANGES for above in (False, True)
            if math.isfinite(ends(RANGES[key][0])[above])]


def end_and_beyond(key: str, above: bool) -> tuple[float, bool, float]:
    """A RANGES end, whether the row's interval includes it, and the value one
    step beyond it: the next integer for a count, else a millionth of the
    end's magnitude (2**-20 beyond 0)."""
    interval = RANGES[key][0]
    end, sign = ends(interval)[above], (1 if above else -1)
    closed = interval[-1 if above else 0] in "[]"
    section, name = key.split(".")
    if {f.name: f.type for f in dataclasses.fields(_SECTIONS[section])}[name] == "int":
        return int(end), closed, int(end) + sign
    return end, closed, end + sign * (abs(end) or 1.0) * 2**-20


def range_refusal(key: str, value: float) -> str:
    """The refusal of ``value`` by its key's RANGES row."""
    interval, unit, _ = RANGES[key]
    span = f"{interval} {unit}".rstrip()
    return f"{key} must lie in {span}, got {exact_g(value)}"


@pytest.mark.parametrize("key, above", range_ends())
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(in_range_documents())
def test_one_key_just_outside_its_range_exits_2(tmp_path, capsys, key, above, doc):
    # at a closed end a key is accepted, and at an open end refused with its
    # row's message; one step beyond the end it is refused, naming the key,
    # the interval and the value
    end, closed, outside = end_and_beyond(key, above)
    section, name = key.split(".")
    if key == "panel.bits":  # the level set of the 1-bit end
        doc["panel"]["levels_deg"] = [55.0, 235.0]
    for value, accepted in ((end, closed), (outside, False)):
        doc[section][name] = value
        code, err = quantize_outcome(doc, tmp_path, capsys)
        if accepted:
            assert code == 0 or (code == 2 and err.startswith(f"error: {NO_LIT_CELL}: ")), err
        else:
            assert (code, err) == (2, f"error: {range_refusal(key, value)}\n")


@pytest.mark.parametrize("key, above", range_ends())
def test_one_field_just_outside_its_range_is_refused(key, above):
    # the library twin of the test above: the dataclass holds a closed end as
    # passed, and refuses an open end, one step beyond an end and NaN, naming
    # the key and showing the value as passed
    end, closed, outside = end_and_beyond(key, above)
    section, name = key.split(".")
    config = getattr(ris_2p6ghz(), section)
    for value, accepted in ((end, closed), (outside, False), (math.nan, False)):
        if accepted:
            held = getattr(dataclasses.replace(config, **{name: value}), name)
            assert (type(held), repr(held)) == (type(value), repr(value))
            continue
        with pytest.raises(ConfigError) as excinfo:
            dataclasses.replace(config, **{name: value})
        assert str(excinfo.value) == range_refusal(key, value)


@pytest.mark.parametrize("value, shown", [
    (1e-320, "1e-320"), (-5e-324, "-5e-324"), (1e-300, "1e-300"), (49162100.0, "4.91621e+07"),
    (90.00000000000001, "90.00000000000001"), (-1.0, "-1"), (2**53 + 1, "9007199254740993")])
def test_exact_g_reads_back(value, shown):
    # a subnormal used to show the six digits that read it back, 9.99989e-321
    # for 1e-320, and an int past 2**53 its nearest float; a normal float
    # keeps its :g form wherever that reads back
    assert exact_g(value) == shown


def test_a_count_past_the_float_range_is_refused_by_name():
    # an int past the float range is shown whole, not formatted as a float,
    # which raised OverflowError
    panel = ris_2p6ghz().panel
    with pytest.raises(ConfigError) as excinfo:
        RisPanel(-10**400, panel.cols, panel.cell_dx_m, panel.cell_dy_m, panel.bits,
                 panel.levels_deg)
    assert str(excinfo.value) == f"panel.rows must lie in [1, inf), got {-10**400}"


# Every option of the command-line table with its entry: (command, flag,
# (type, default, help[, degrees])).
TABLE_OPTIONS = [(command, flag, spec) for command, (_, _, options) in _COMMANDS.items()
                 for flag, spec in options.items()]
LARGEST = sys.float_info.max


def option_values(kind, degrees: str | None = None) -> tuple[list, list]:
    """Values of an option of type ``kind`` that should pass its own checks,
    and values that may not: the ends of its ``degrees`` interval and the
    floats just outside them, nan, +-inf, 0, the largest floats, -1e-20 and
    text that is not a number.  A float with no interval takes 10, 45 and
    80, so every grid they span has at most 10 points; a text option is a
    method token, and fixed is one that every command accepts."""
    special = [0.0, -1e-20, LARGEST, -LARGEST, math.inf, -math.inf, math.nan, "abc"]
    if kind is str:
        return ["fixed"], []
    if isinstance(kind, dict):
        return list(kind), ["abc"]
    if kind is int:
        return [3, 5], [2, 0, -1, "abc"]
    if degrees is None:
        return [10.0, 45.0, 80.0], special
    lo, hi = ends(degrees)
    inside = [(lo + hi) / 2, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    inside += [lo] * (degrees[0] == "[") + [hi] * (degrees[-1] == "]")
    return inside, [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), *special]


@st.composite
def option_vectors(draw, command: str) -> list[str]:
    """The options of ``command`` from its table, each as --flag=value: up to
    two of the numbers and choices drawn from all their values, the others
    from the values that pass their own checks.  A text option with a
    default keeps it, so --out names the file the test reads."""
    options = _COMMANDS[command][2]
    drawn = [flag for flag, (kind, *_) in options.items() if kind is not str]
    faulty = draw(st.sets(st.sampled_from(drawn), max_size=2)) if drawn else set()
    argv = [command]
    for flag, (kind, default, _, *degrees) in options.items():
        inside, outside = option_values(kind, *degrees)
        if kind is str and default is not ...:
            inside = [default]
        value = draw(st.sampled_from(inside + outside if flag in faulty else inside))
        argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


# What a refusal may name: an option, a scenario key, a sweep axis or a fit variable.
REFUSAL_NAMES = ([flag for _, flag, _ in TABLE_OPTIONS]
                 + [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
                    for f in dataclasses.fields(cls)]
                 + [f"error: {axis} " for axis in SWEEP_AXES]
                 + [f"log10_{variable}" for variable in FIT_VARIABLES])


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_option_vector_ends_finite_or_exits_2(command, small_path, tmp_path, monkeypatch,
                                                    capsys, data):
    # drawn from the option table, so a new option is drawn with no test
    # edit: a run prints and writes only finite numbers, or exits 2 naming
    # what it refuses; with warnings as errors it never exits 1
    argv = data.draw(option_vectors(command))
    monkeypatch.chdir(tmp_path)
    out = Path(_COMMANDS[command][2]["--out"][1]) if "--out" in _COMMANDS[command][2] else None
    if out:
        out.unlink(missing_ok=True)
    code = run([command, "--scenario", small_path, *argv[1:]])
    captured = capsys.readouterr()
    if code == 2:
        assert any(name in captured.err for name in REFUSAL_NAMES), (argv, captured.err)
        return
    assert code == 0, (argv, captured.err)
    text = captured.out + (out.read_text().split("\n", 1)[1] if out else "")
    assert all(math.isfinite(float(number)) for number in _NUMBER.findall(text)), (argv, text)


@pytest.mark.parametrize("command, flag, degrees", [
    (command, flag, spec[3]) for command, flag, spec in TABLE_OPTIONS if len(spec) > 3],
    ids=lambda x: x if isinstance(x, str) else "finite")
def test_option_interval_ends(small_path, monkeypatch, capsys, command, flag, degrees):
    # run() holds each option with a degrees entry to it: nan is refused, a
    # closed end is accepted and an open end refused, naming the option
    _, text, options = _COMMANDS[command]
    monkeypatch.setitem(_COMMANDS, command, (lambda scenario, args: 0, text, options))

    def refusal(value: float) -> str:
        argv = [command, "--scenario", small_path]
        for other, (kind, default, _, *interval) in options.items():
            if other != flag and default is ...:
                argv.append(f"{other}={option_values(kind, *interval)[0][0]}")
        code = run([*argv, f"{flag}={value!r}"])
        err = capsys.readouterr().err
        assert code == (2 if err else 0), err
        return err

    assert refusal(math.nan) == f"error: {flag} must be finite, got nan\n"
    if degrees is None:
        return
    for end, closed in zip(ends(degrees), (degrees[0] == "[", degrees[-1] == "]")):
        message = f"error: {flag} must lie in {degrees} deg, got {end:g}\n"
        assert refusal(end) == ("" if closed else message)


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


# SHA-256 of the stdout and of the CSV written (None without --out) of every
# README command and of a 2-bit quantize on the 4.9 GHz panel, recorded at
# c2d6409, while the path phase was still reduced bit for bit as np.mod does,
# and of three more 2-bit runs on that panel, recorded at a5afd01, while the
# gains of the link budget still went to linear and back.  The stdout of the
# 2-bit eipq:3 quantize was recorded again when eipq came to count its grid
# exactly in degrees: 30 candidates, where the radian floor gave 29.
OUTPUT_DIGESTS = {
    "validate --scenario scenarios/ris1_2p6ghz.json": (
        "98d161bd23f8830dd6485185c257eea3f9f4ce1cc73a4a028c61449cfbf5ae7c", None),
    "quantize --scenario scenarios/ris1_2p6ghz.json --method dtpq --out shifts.csv": (
        "57d91891249c733faf68e279297a23185d1ae60151ac77f6cb4a6f97131b68b8",
        "80592f6ae27ba156fc36146bcc44955521c046cb9a7f34cb4e59bb2e0890f710"),
    "sweep --scenario scenarios/ris1_2p6ghz.json --axis rx_distance --start 5 --stop 10 "
    "--step 0.1 --methods continuous,dtpq,eipq:5,fixed:235 --out sweep.csv": (
        "c8708259252c6c7d3735168a86c7fabf42953e8f0bc8b7afc911e2571a0f19ac",
        "815164c7929f8c32037a19ea20accb802c8a2d7a5dad867f45e0bd6205d44291"),
    "sweep --scenario scenarios/ris1_2p6ghz.json --axis threshold --start 0 --stop 359 "
    "--step 1 --methods fixed --out thresholds.csv": (
        "9fd6eaf9dfb34a01c5c5eb3a9ec500f914e126109ff6e3e90be0e8b839589e34",
        "05f75882bf72bfe22885b714b9085e960838a857335cd7b6dc95dba964283259"),
    "angle-scan --scenario scenarios/ris1_2p6ghz.json --target 45 --start -90 --stop 90 "
    "--step 1 --methods continuous,dtpq,fixed:235 --out scan.csv": (
        "6a9b7a4057c8d57a81facabe910958a0e9daec8b22dc43ed6b558139b0e5241c",
        "639c472c90c39aaed16d928c9633d919e0db422411133d266e2125289d588cb3"),
    "gradient-map --scenario scenarios/ris1_2p6ghz.json --target-theta 45 --target-phi 180 "
    "--method dtpq --out map.csv": (
        "606140fba103de7f25a5552bafc3ba0cb5f3577196cacf2d2881ba91cdf44e91",
        "cc121247cd9a15a5a5db985f1babdb166482bd66208e05e855902da4dc020905"),
    "pl-fit --scenario scenarios/ris1_2p6ghz.json --variable d2 --start 50 --stop 500 "
    "--num 13 --method dtpq": (
        "302663f21ea0d0f302fb4eb3455483972b65e269be374a76a7adff303de6a87f", None),
    "quantize --scenario scenarios/ris2_4p9ghz.json --method dtpq --out shifts2.csv": (
        "edb402b6a5844109e1f2c2f0546324143a06153935612afd54f0d97880ad8c67",
        "d54ba84ffe995f9f1d346ffe3840fcf13385eacf0527d2c68d2fa8722488569c"),
    "quantize --scenario scenarios/ris2_4p9ghz.json --method eipq:3 --out shifts3.csv": (
        "e64e95fc987fd2a8f374ab5c14156f31ef59fe7c0fbfdf9fc24b145a8f765920",
        "4c36faa2d099a7df29d331a26de687313edc1cde4bd786334f13e5838ae830b6"),
    "gradient-map --scenario scenarios/ris2_4p9ghz.json --target-theta 30 --target-phi 200 "
    "--theta-step 2 --phi-step 4 --method eipq:3 --out map2.csv": (
        "bcd8b95f3b599254671feab573c84a2dce321aab116d51d1a89b2903a99e07fa",
        "e63af40abdbbf3b859e2bc268cf1129d29d0c215bef47eecaaa8f923330db70b"),
    "sweep --scenario scenarios/ris2_4p9ghz.json --axis theta_r --start 0 --stop 80 "
    "--step 2 --methods continuous,dtpq,fixed:10 --out sweep2.csv": (
        "faca7af3aad676f69d709f05519a986fdbaeee3681465bc14d2458f6005ebc4f",
        "272c276c39e0e46edc28115453cbc880194748e525acc30151f152e997d039ae"),
}


def readme_ranges():
    """The rows of the README's table of input ranges."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| key | range | unit | why it ends there |\n|---|---|---|---|\n", 1)[1]
    return table.split("\n\n", 1)[0].splitlines()


def test_readme_ranges_are_the_table():
    # the README shows scenario.RANGES row for row: key, interval, unit and reason
    assert readme_ranges() == [f"| `{key}` | {interval} | {unit or '-'} | {why} |"
                               for key, (interval, unit, why) in RANGES.items()]


def readme_options():
    """The rows of the README's table of command-line options."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| command | option | default | values |\n|---|---|---|---|\n", 1)[1]
    return table.split("\n\n", 1)[0].splitlines()


def test_readme_options_are_the_table():
    # the README shows cli._COMMANDS option for option: command, flag,
    # default (or required), and the choices, interval or kind of value
    rows = []
    for command, flag, (kind, default, _, *degrees) in TABLE_OPTIONS:
        if isinstance(kind, dict):
            values = "one of " + ", ".join(f"`{name}`" for name in kind)
        elif degrees and degrees[0]:
            values = f"{degrees[0]} deg"
        else:
            values = {str: "text", int: "integer", float: "finite"}[kind]
        given = "required" if default is ... else f"`{default}`"
        rows.append(f"| `{command}` | `{flag}` | {given} | {values} |")
    assert readme_options() == rows


def test_output_digests_cover_the_readme_commands():
    assert {shlex.join(argv) for argv in readme_commands()} <= set(OUTPUT_DIGESTS)


@pytest.mark.parametrize("command", OUTPUT_DIGESTS, ids=lambda command: command.split(" --out")[0])
def test_outputs_are_byte_identical(command, tmp_path, monkeypatch, capsys):
    # every byte a command prints or writes is pinned; a numerical change in
    # the model, the searches or the writers that moves one fails here
    shutil.copytree(SCENARIO_DIR, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    assert run(argv) == 0, capsys.readouterr().err
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    digests = (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
               out and hashlib.sha256(Path(out).read_bytes()).hexdigest())
    assert digests == OUTPUT_DIGESTS[command]


def readme_library_block():
    """The README's fenced ``python`` block under "## Library"."""
    text = (ROOT / "README.md").read_text()
    return text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs(capsys):
    # the README's library example must keep up with the library's signatures
    exec(compile(readme_library_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_library_block_runs_warning_free():
    # the same block as a user runs it: its own process, warnings as errors
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", readme_library_block()],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
