"""The command-line transcript: a fixed battery of argument vectors, each run
in process through ``risbeam.cli.run``, and its record in ``cli.txt``.

    PYTHONPATH=src python tests/transcripts/generate.py

rewrites ``cli.txt`` from the current program; ``tests/test_transcript.py``
replays the battery against it.  A change that moves an output on purpose
regenerates the file, so that its diff lists the moved outputs.

Every run starts in one working directory that holds a copy of
``scenarios/`` and the run's scenario document as ``scenario.json``, with no
CSV in it, so every path in a record is relative.  A record gives the
scenario, the argv, the exit code, stdout and stderr (as JSON strings) and
the SHA-256 of each CSV the run wrote.  The battery:

- every key of both bundled scenarios on a 4x4 panel (a panel size on the
  other size's 4): at each end of its interval, one float outside it, one
  float inside an open end, NaN, and deleted; counts also at the next
  integer down, halfway and -1e300; under ``validate`` and ``quantize``;
- every option of ``cli._COMMANDS`` at each end of its interval, one float
  outside it and inside an open end, and at NaN and +-inf; the bounds of
  each grid held to an interval, swept alone and together;
- the method tokens, under ``quantize`` on both panels and ``sweep``;
- the README's commands, on the bundled scenarios.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from risbeam.cli import _COMMANDS, run
from risbeam.scenario import ris_2p6ghz_document, ris_4p9ghz_document

ROOT = Path(__file__).resolve().parents[2]
TRANSCRIPT = Path(__file__).resolve().parent / "cli.txt"

NAN, INF = math.nan, math.inf

# The interval that each bounded scenario key is accepted on, as spelled here
# when the battery was written; the battery is fixed, so it reads no table
# of the program's.
KEY_INTERVALS = {
    "panel.rows": "[1, inf)",
    "panel.cols": "[1, inf)",
    "panel.cell_dx_m": "[1e-06, 10]",
    "panel.cell_dy_m": "[1e-06, 10]",
    "panel.bits": "[1, inf)",
    "panel.reflection": "(0, 1]",
    "placement.d1_m": "[0.001, 1e+07]",
    "placement.d2_m": "[0.001, 1e+07]",
    "placement.theta_t_deg": "[0, 90)",
    "placement.theta_r_deg": "[0, 90)",
    "radio.freq_ghz": "[0.1, 10000]",
    "radio.tx_power_dbm": "[-100, 100]",
    "radio.gain_tx_dbi": f"[{10.0 * math.log10(2.0)!r}, 40]",
    "radio.gain_rx_dbi": f"[{10.0 * math.log10(2.0)!r}, 40]",
    "radio.cell_alpha": "[0, 100]",
}
COUNT_VALUES = [1, 0, 2, 1.5, -1e300, NAN]
# The keys with no interval: a level set (a list), and the azimuths.
OTHER_VALUES = {
    "panel.levels_deg": [[0.0, 90.0, 180.0, 270.0], [55.0, 240.0], [-1e-20, 180.0], [], "x",
                         [NAN, 180.0]],
    "placement.phi_t_deg": [-1e-20, 360.0, 1e300, NAN, INF],
    "placement.phi_r_deg": [-1e-20, 360.0, 1e300, NAN, INF],
}
# Documents that move more than one key: a panel size past the guard, with a
# cell size or a bit count outside its range, and the two dark links.
COMPOUND = {
    "panel.rows = 2048, panel.cols = 1024, panel.cell_dx_m = 20":
        {"panel": dict(rows=2048, cols=1024, cell_dx_m=20.0)},
    "panel.rows = 2048, panel.cols = 1024, panel.bits = 0":
        {"panel": dict(rows=2048, cols=1024, bits=0)},
    "panel.rows = 262145": {"panel": dict(rows=262145)},
    "panel.cell_dx_m = 10, placement.d1_m = 1, placement.d2_m = 1":
        {"panel": dict(cell_dx_m=10.0), "placement": dict(d1_m=1.0, d2_m=1.0)},
    "2x2 cells of 10 m, antennas 1 m off on the normal, 40 dBi":
        {"panel": dict(rows=2, cols=2, cell_dx_m=10.0, cell_dy_m=10.0),
         "placement": dict(d1_m=1.0, d2_m=1.0, theta_t_deg=0.0, theta_r_deg=0.0),
         "radio": dict(gain_tx_dbi=40.0, gain_rx_dbi=40.0)},
}

# The other options of each command while one is varied: small grids.
BASE = {
    "validate": [],
    "quantize": ["--method=dtpq"],
    "sweep": ["--axis=rx_distance", "--start=5", "--stop=6", "--step=1", "--methods=dtpq"],
    "angle-scan": ["--target=45", "--start=0", "--stop=10", "--step=5", "--methods=dtpq"],
    "gradient-map": ["--target-theta=45", "--target-phi=180", "--theta-step=15",
                     "--phi-step=90"],
    "pl-fit": ["--variable=d2", "--start=50", "--stop=500", "--num=3"],
}
UNBOUNDED_FLOATS = [0.0, -1e-20, 1e300, NAN, INF, -INF]
# Each grid whose bounds are held to an interval that another option picks:
# its fixed options, its bounds' prefix, the interval, and two bounds inside.
GRIDS = [
    (["sweep", "--axis=theta_r", "--step=5", "--methods=dtpq"], "--", "[0, 90)", (0, 60)),
    (["sweep", "--axis=rx_distance", "--step=1", "--methods=dtpq"], "--", "[0.001, 1e+07]",
     (5, 6)),
    (["sweep", "--axis=tx_distance", "--step=1", "--methods=dtpq"], "--", "[0.001, 1e+07]",
     (5, 6)),
    (["angle-scan", "--target=45", "--step=5", "--methods=dtpq"], "--", "[-90, 90]",
     (-60, 60)),
    (["gradient-map", "--target-theta=45", "--target-phi=180", "--theta-step=15",
      "--phi-step=90"], "--theta-", "[0, 90]", (0, 60)),
    (["pl-fit", "--variable=cos_theta_r", "--num=3"], "--", "[0, 90)", (0, 60)),
    (["pl-fit", "--variable=cos_theta_t", "--num=3"], "--", "[0, 90)", (0, 60)),
    (["pl-fit", "--variable=d1", "--num=3"], "--", "[0.001, 1e+07]", (50, 500)),
    (["pl-fit", "--variable=d2", "--num=3"], "--", "[0.001, 1e+07]", (50, 500)),
]
METHOD_TOKENS = [
    "dtpq", "eipq", "eipq:5", "eipq:3", "eipq:-5", "eipq:-3", "eipq:0", "eipq:90",
    "eipq:89.99999999999999", "eipq:180", "eipq:179.99999999999997", "eipq:180.00000000000003",
    "eipq:1e-9", "eipq:1e-300", "eipq:1e-320", "eipq:5e-324", "eipq:nan", "eipq:x", "fixed",
    "fixed:235", "fixed:-1e-20", "fixed:inf", "fixed:1e300", "continuous", "exhaustive",
    "dtpq:7", "continuous:1", "",
]
METHOD_LISTS = ["dtpq,dtpq", "eipq:3,eipq:20", "continuous,dtpq,eipq:5,fixed:235", "dtpq,"]


def interval_values(interval: str) -> list[float]:
    """Each finite end of ``interval`` (spelled like "[0, 90)"), the float just
    outside it and, at an open end, the float just inside it."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    values = []
    for end, bracket, outward in ((lo, interval[0], -INF), (hi, interval[-1], INF)):
        if math.isfinite(end):
            values += [end, math.nextafter(end, outward)]
            values += [math.nextafter(end, -outward)] if bracket in "()" else []
    return values


def _spelled(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _with(argv: list[str], flag: str, value) -> list[str]:
    """``argv`` with ``flag`` set to ``value``, replaced in place or appended."""
    setting = f"{flag}={_spelled(value)}"
    kept = [arg for arg in argv if not arg.startswith(f"{flag}=")]
    return kept + [setting] if len(kept) == len(argv) else [
        setting if arg.startswith(f"{flag}=") else arg for arg in argv]


def _small(document: dict) -> dict:
    doc = copy.deepcopy(document)
    doc["panel"].update(rows=4, cols=4)
    return doc


def _key_cases(name: str, document: dict):
    values = {**{key: (COUNT_VALUES if interval == "[1, inf)" else
                       interval_values(interval) + [NAN])
                 for key, interval in KEY_INTERVALS.items()}, **OTHER_VALUES}
    for key in document["panel"].keys() | document["placement"].keys() | document["radio"].keys():
        assert any(k.endswith("." + key) for k in values), key
    for key, key_values in values.items():
        section, field = key.split(".")
        for value in [*key_values, None]:
            doc = _small(document)
            if value is None:
                del doc[section][field]
            else:
                doc[section][field] = value
            label = f"{name} 4x4, {key} " + ("deleted" if value is None else f"= {value!r}")
            yield label, doc
    for label, changes in COMPOUND.items():
        doc = _small(document)
        for section, fields in changes.items():
            doc[section].update(fields)
        yield f"{name} 4x4, {label}", doc


def readme_commands() -> list[list[str]]:
    """The ``risbeam ...`` lines of the README's command-line block, as argv lists."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("risbeam ")]


def battery() -> list[tuple[str, dict | None, list[str]]]:
    """Every run: its scenario's label, the document written as
    scenario.json (None for a bundled scenario) and the argv."""
    runs = []
    documents = {"ris1_2p6ghz": ris_2p6ghz_document(), "ris2_4p9ghz": ris_4p9ghz_document()}
    for name, document in documents.items():
        for label, doc in _key_cases(name, document):
            for command in ("validate", "quantize"):
                runs.append((label, doc, [command, "--scenario=scenario.json", *BASE[command]]))
    small = ("ris1_2p6ghz 4x4", _small(documents["ris1_2p6ghz"]))
    for command, (_, _, options) in _COMMANDS.items():
        base = [command, "--scenario=scenario.json", *BASE[command]]
        for flag, (kind, _, _, *interval) in options.items():
            if kind is float:
                values = (interval_values(interval[0]) + [NAN, INF, -INF]
                          if interval and interval[0] else UNBOUNDED_FLOATS)
            elif kind is int:
                values = [2, 3, 1048577, "x"]
            elif isinstance(kind, dict):
                values = [*kind, "abc"]
            elif flag == "--out":
                values = ["missing/out.csv"]
            else:  # a method token: the runs below
                continue
            runs += [(*small, _with(base, flag, value)) for value in values]
    for fixed, prefix, interval, (low, high) in GRIDS:
        base = [fixed[0], "--scenario=scenario.json", *fixed[1:]]
        start, stop = f"{prefix}start", f"{prefix}stop"
        for value in interval_values(interval):
            for bounds in ((value, high), (low, value), (value, value)):
                runs.append((*small, _with(_with(base, start, bounds[0]), stop, bounds[1])))
    for name, document in documents.items():
        for token in METHOD_TOKENS:
            runs.append((f"{name} 4x4", _small(document),
                         ["quantize", "--scenario=scenario.json", f"--method={token}"]))
    sweep = ["sweep", "--scenario=scenario.json", *BASE["sweep"]]
    for token in METHOD_TOKENS + METHOD_LISTS:
        runs.append((*small, _with(sweep, "--methods", token)))
    threshold = _with(sweep, "--axis", "threshold")
    for token in ("fixed", "fixed:12", "dtpq", "fixed,dtpq"):
        runs.append((*small, _with(threshold, "--methods", token)))
    runs += [("bundled", None, ["validate", "--scenario=missing.json"]),
             ("bundled", None, ["validate", "--scenario=scenarios"])]
    runs += [("bundled", None, argv) for argv in readme_commands()]
    return runs


def setup(workdir: Path) -> None:
    """The working directory of every run: a copy of scenarios/."""
    shutil.copytree(ROOT / "scenarios", workdir / "scenarios")


def record(case: tuple[str, dict | None, list[str]], workdir: Path) -> str:
    """Run one case in ``workdir``, the current directory, and return its record."""
    label, doc, argv = case
    for stale in workdir.glob("*.csv"):
        stale.unlink()
    if doc is not None:
        (workdir / "scenario.json").write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    written = [f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
               for path in sorted(workdir.glob("*.csv"))]
    return "\n".join([f"scenario: {label}", f"argv: {shlex.join(argv)}", f"exit: {code}",
                      f"stdout: {json.dumps(out.getvalue())}",
                      f"stderr: {json.dumps(err.getvalue())}",
                      f"out: {', '.join(written) or '-'}"])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        setup(workdir)
        here = os.getcwd()
        os.chdir(workdir)
        try:
            records = [record(case, workdir) for case in battery()]
        finally:
            os.chdir(here)
    TRANSCRIPT.write_text("\n\n".join(records) + "\n")
    print(f"wrote {TRANSCRIPT} ({len(records)} runs)", file=sys.stderr)


if __name__ == "__main__":
    main()
