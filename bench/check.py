"""Output checks for benchmark jobs.

Every job's output is checked after every pass; a job that exited
non-zero or fails a check counts as failed.  The checks are structural
(headers, row counts, grid values, finite numbers, a complete cell set)
and physical:

* per sweep row, dtpq >= eipq, dtpq >= fixed and dtpq <= continuous
  within the search's tie tolerance;
* the fixed-threshold sweep is periodic in the level spacing Omega
  (shifting the threshold by Omega rotates every level alike);
* the pl-fit distance slope lies within 0.1 of the far-field value 2;
* quantize designs keep dtpq >= eipq and dtpq >= fixed, and on panels
  small enough for oracle.py, dtpq reaches the brute-force optimum.

At seed 0 every output must also match, byte for byte, the SHA-256
recorded in digests.json from the program's outputs at commit bdcfe6e.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import oracle

# Same relative slack as risbeam.quantization.TIE_REL_TOL, expressed in dB.
TIE_REL_TOL = 1e-12
TIE_DB = 20.0 * math.log10(1.0 + TIE_REL_TOL)

DIGESTS = Path(__file__).with_name("digests.json")


class CheckError(Exception):
    """An output that is not what the job must produce."""


def _float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise CheckError(f"{where}: {text!r} is not a number") from exc
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {text!r}")
    return value


def read_table(path: Path, header: list[str], rows: int) -> list[list[float]]:
    """Numeric rows of a CSV with the given header and row count."""
    try:
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
    except FileNotFoundError as exc:
        raise CheckError(f"{path.name}: missing") from exc
    if not records or records[0] != header:
        got = records[0] if records else None
        raise CheckError(f"{path.name}: header {got} != {header}")
    body = records[1:]
    if len(body) != rows:
        raise CheckError(f"{path.name}: {len(body)} rows, expected {rows}")
    table = []
    for i, record in enumerate(body, start=1):
        if len(record) != len(header):
            raise CheckError(f"{path.name} row {i}: {len(record)} fields")
        table.append([_float(v, f"{path.name} row {i}") for v in record])
    return table


def _grid_column(table: list[list[float]], col: int, values: list[float], where: str) -> None:
    for i, (row, want) in enumerate(zip(table, values), start=1):
        if f"{row[col]:.4f}" != f"{want:.4f}":
            raise CheckError(f"{where} row {i}: axis value {row[col]} != {want:.4f}")


def _sweep_header(methods) -> list[str]:
    header = ["axis_value"]
    for m in methods:
        header.append(f"{m}_dbm")
        if m != "continuous":
            header.append(f"{m}_threshold_deg")
    return header


def _check_sweep(job, root: Path) -> None:
    methods = job.params["methods"]
    header = _sweep_header(methods)
    table = read_table(root / job.out, header, job.rows)
    p = job.params
    _grid_column(table, 0, [p["start"] + p["step"] * i for i in range(job.rows)], job.name)
    col = {name: i for i, name in enumerate(header)}
    for i, row in enumerate(table, start=1):
        for m in methods:
            if m != "continuous" and not 0.0 <= row[col[f"{m}_threshold_deg"]] < 360.0:
                raise CheckError(f"{job.name} row {i}: {m} threshold outside [0, 360)")
        if "dtpq" not in methods:
            continue
        dtpq = row[col["dtpq_dbm"]]
        for other in ("eipq", "fixed"):
            if other in methods and dtpq < row[col[f"{other}_dbm"]] - TIE_DB:
                raise CheckError(f"{job.name} row {i}: dtpq {dtpq} below {other}")
        if "continuous" in methods and dtpq > row[col["continuous_dbm"]] + TIE_DB:
            raise CheckError(f"{job.name} row {i}: dtpq {dtpq} above continuous")


def _check_threshold(job, root: Path) -> None:
    table = read_table(root / job.out, ["axis_value", "fixed_dbm", "fixed_threshold_deg"], job.rows)
    p = job.params
    _grid_column(table, 0, [p["start"] + p["step"] * i for i in range(job.rows)], job.name)
    for i, row in enumerate(table, start=1):
        if abs(row[2] - row[0] % 360.0) > 1e-4:
            raise CheckError(f"{job.name} row {i}: threshold {row[2]} != axis {row[0]}")
    # Omega-periodicity: powers repeat every Omega/step rows (printed to 4 decimals).
    period = round(360.0 / 2 ** p["bits"] / p["step"])
    for i in range(job.rows - period):
        if abs(table[i][1] - table[i + period][1]) > 2e-4:
            raise CheckError(f"{job.name} rows {i + 1}/{i + 1 + period}: not Omega-periodic")


def _check_scan(job, root: Path) -> None:
    methods = job.params["methods"]
    header = _sweep_header(methods)
    table = read_table(root / job.out, header, job.rows)
    p = job.params
    _grid_column(table, 0, [p["start"] + p["step"] * i for i in range(job.rows)], job.name)
    # Shifts are designed once, so each method's threshold is the same on every row.
    for j, name in enumerate(header):
        if name.endswith("_threshold_deg") and len({row[j] for row in table}) != 1:
            raise CheckError(f"{job.name}: {name} varies across the scan")


def _check_map(job, root: Path) -> None:
    table = read_table(root / job.out, ["theta_r_deg", "phi_r_deg", "power_dbm"], job.rows)
    t0, tstep, tn = job.params["theta"]
    p0, pstep, pn = job.params["phi"]
    _grid_column(table, 0, [t0 + tstep * i for i in range(tn) for _ in range(pn)], job.name)
    _grid_column(table, 1, [p0 + pstep * j for _ in range(tn) for j in range(pn)], job.name)


def _key_values(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _check_plfit(job, stdout: str) -> None:
    values = _key_values(stdout)
    if values.get("variable") != "log10_d2":
        raise CheckError(f"{job.name}: variable {values.get('variable')!r}")
    slope = _float(values.get("slope", ""), f"{job.name} slope")
    r2 = _float(values.get("r_squared", ""), f"{job.name} r_squared")
    _float(values.get("intercept_db", ""), f"{job.name} intercept")
    if abs(slope - 2.0) > 0.1:
        raise CheckError(f"{job.name}: slope {slope} not within 0.1 of 2")
    if not 0.0 <= r2 <= 1.0:
        raise CheckError(f"{job.name}: r_squared {r2} outside [0, 1]")


def _check_quantize(job, root: Path, stdout: str) -> float:
    """Checks one design; returns its xi for the cross-method checks."""
    values = _key_values(stdout)
    xi = _float(values.get("xi", ""), f"{job.name} xi")
    _float(values.get("received_power_dbm", ""), f"{job.name} power")
    threshold = _float(values.get("threshold_deg", ""), f"{job.name} threshold")
    if not 0.0 <= threshold < 360.0:
        raise CheckError(f"{job.name}: threshold {threshold} outside [0, 360)")
    rows, cols = job.params["rows"], job.params["cols"]
    table = read_table(root / job.out, ["n", "m", "level_index", "level_deg"], rows * cols)
    levels = 2 ** job.params["bits"]
    level_deg: dict[int, float] = {}
    for i, (_, _, index, deg) in enumerate(table, start=1):
        if not index.is_integer() or not 0 <= index < levels:
            raise CheckError(f"{job.name} row {i}: level index {index} outside 0..{levels - 1}")
        if level_deg.setdefault(int(index), deg) != deg:
            raise CheckError(f"{job.name} row {i}: level {int(index)} printed as two angles")
    cells = {(int(n), int(m)) for n, m, _, _ in table}
    if cells != {(n, m) for m in range(1, rows + 1) for n in range(1, cols + 1)}:
        raise CheckError(f"{job.name}: cells are not exactly the {rows}x{cols} grid")
    if job.params["method"] == "dtpq" and rows * cols <= oracle.ORACLE_MAX_CELLS:
        best = oracle.best_xi(root / job.params["scenario"])
        # xi is printed to 7 significant digits.
        if best is not None and xi < best * (1.0 - 1e-6):
            raise CheckError(f"{job.name}: xi {xi} below the optimum {best:.6e}")
    return xi


def output_digest(job, root: Path, stdout: str) -> str:
    """SHA-256 of the job's output file, or of its stdout when it writes none."""
    if job.out is None:
        return hashlib.sha256(stdout.encode()).hexdigest()
    return hashlib.sha256((root / job.out).read_bytes()).hexdigest()


def load_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text())[workload]


def check_pass(jobs, results, root: Path, digests: dict[str, str] | None) -> dict[str, str]:
    """Check one pass; returns {job name: reason} for every failed job.

    ``results`` maps job name to (exit code, stdout).  ``digests`` maps
    job name to the expected SHA-256, or is None to skip that check.
    """
    failures: dict[str, str] = {}
    xi: dict[tuple[str, str], float] = {}
    for job in jobs:
        code, stdout = results[job.name]
        try:
            if code != 0:
                raise CheckError(f"{job.name}: exit code {code}")
            if job.kind == "sweep":
                _check_sweep(job, root)
            elif job.kind == "threshold":
                _check_threshold(job, root)
            elif job.kind == "scan":
                _check_scan(job, root)
            elif job.kind == "map":
                _check_map(job, root)
            elif job.kind == "plfit":
                _check_plfit(job, stdout)
            elif job.kind == "quantize":
                xi[job.params["group"], job.params["method"]] = _check_quantize(job, root, stdout)
            else:
                raise CheckError(f"{job.name}: unknown kind {job.kind!r}")
            if digests is not None and output_digest(job, root, stdout) != digests.get(job.name):
                raise CheckError(f"{job.name}: output differs from the recorded SHA-256")
        except CheckError as exc:
            failures[job.name] = str(exc)
    for (group, method), value in xi.items():
        best = xi.get((group, "dtpq"))
        if method != "dtpq" and best is not None and best < value * (1.0 - TIE_REL_TOL):
            failures.setdefault(f"{group}-dtpq", f"{group}: dtpq xi {best} below {method} xi {value}")
    return failures
