"""Command-line front end: JSON scenarios in, CSV tables out.

Scenario files use degrees and GHz; all numeric CSV output is fixed to 4
decimal places.  Exit codes: 0 success, 2 configuration error (with the
offending key named), 1 internal numeric error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Sequence

import numpy as np

from .analysis import (
    DEFAULT_EPSILON_DEG,
    GRID_GUARD_POINTS,
    METHODS,
    SWEEP_AXES,
    SweepRow,
    SweepSpec,
    angle_scan,
    design,
    gradient_map,
    grid_values,
    pl_slope_fit,
    run_sweep,
)
from .channel import link_state
from .geometry import TWO_PI
from .quantization import ShiftMatrix
from .scenario import ScenarioFileError, load_scenario

# ---------------------------------------------------------------------------
# CSV schemas


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def write_shifts_csv(path: str, shifts: ShiftMatrix) -> None:
    """One row per cell, row-major: n, m, level_index, level_deg."""
    rows_m, cols_n = shifts.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "m", "level_index", "level_deg"])
        for m in range(1, rows_m + 1):
            for n in range(1, cols_n + 1):
                index = int(shifts.level_indices[m - 1, n - 1])
                writer.writerow([n, m, index, _fmt(math.degrees(shifts.levels[index]))])


def write_sweep_csv(path: str, rows: Sequence[SweepRow], methods: Sequence[str]) -> None:
    """Header axis_value,<method>_dbm[,<method>_threshold_deg]... in method order.

    A threshold column follows each method whose rows report a threshold.
    """
    thresholded = set(rows[0].threshold_deg) if rows else set()
    header = ["axis_value"]
    for method in methods:
        header.append(f"{method}_dbm")
        if method in thresholded:
            header.append(f"{method}_threshold_deg")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            record = [_fmt(row.axis_value)]
            for method in methods:
                record.append(_fmt(row.power_dbm[method]))
                if method in thresholded:
                    record.append(_fmt(row.threshold_deg[method]))
            writer.writerow(record)


def write_map_csv(
    path: str, theta_grid_deg: np.ndarray, phi_grid_deg: np.ndarray, power: np.ndarray
) -> None:
    """Long-format map: theta_r_deg, phi_r_deg, power_dbm.

    One write per theta row; no formatted field needs csv quoting.
    """
    phis = [_fmt(phi) for phi in phi_grid_deg]
    with open(path, "w", newline="") as fh:
        fh.write("theta_r_deg,phi_r_deg,power_dbm\n")
        for theta, row in zip(theta_grid_deg, np.asarray(power).tolist()):
            prefix = _fmt(theta) + ","
            fh.write("".join(f"{prefix}{phi},{_fmt(value)}\n" for phi, value in zip(phis, row)))


# ---------------------------------------------------------------------------
# Method tokens: "dtpq", "eipq:5", "fixed:235", "continuous", "exhaustive"


def _parse_methods(
    tokens: Sequence[str], command: str
) -> tuple[tuple[str, ...], float, float | None]:
    """Method names of the tokens, plus the eipq step and fixed threshold (deg).

    The last eipq/fixed parameter wins; fixed without one selects the
    panel's last level (None).  'exhaustive' is only available to quantize,
    which also refuses 'continuous'.
    """
    names = []
    epsilon_deg = DEFAULT_EPSILON_DEG
    gamma_deg: float | None = None
    for token in tokens:
        name, _, param = token.strip().partition(":")
        if name not in METHODS and name != "exhaustive":
            raise ScenarioFileError(f"unknown method '{name}'")
        if name == "exhaustive" and command != "quantize":
            raise ScenarioFileError("method 'exhaustive' is only available to quantize")
        if name == "continuous" and command == "quantize":
            raise ScenarioFileError("quantize requires a discrete method (not 'continuous')")
        if param:
            try:
                value = float(param)
            except ValueError as exc:
                raise ScenarioFileError(f"bad parameter in method token '{token}'") from exc
            if name == "eipq":
                epsilon_deg = value
            elif name == "fixed":
                gamma_deg = value
        names.append(name)
    return tuple(names), epsilon_deg, gamma_deg


# ---------------------------------------------------------------------------
# Option checks: angles stay in degrees, so the diagnostic names the option


def _check_option(option: str, value: float, degrees: str | None = None) -> None:
    """Refuse a non-finite value, or an angle outside the ``degrees`` interval."""
    if not math.isfinite(value):
        raise ScenarioFileError(f"{option} must be finite, got {value}")
    inside = {"(-90, 90)": -90.0 < value < 90.0, "[-90, 90]": -90.0 <= value <= 90.0,
              "[0, 90)": 0.0 <= value < 90.0, "[0, 90]": 0.0 <= value <= 90.0}
    if degrees is not None and not inside[degrees]:
        raise ScenarioFileError(f"{option} must lie in {degrees} degrees, got {value:g}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    panel = scenario.panel
    print(
        f"ok: {panel.rows}x{panel.cols} cells, {panel.bits}-bit, "
        f"wavelength {scenario.radio.wavelength:.6f} m"
    )
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    (name,), epsilon_deg, gamma_deg = _parse_methods([args.method], args.command)
    result = design(link_state(scenario), name, epsilon_deg, gamma_deg)

    threshold = "n/a" if result.threshold is None else _fmt(math.degrees(result.threshold))
    print(f"threshold_deg={threshold}")
    print(f"xi={result.xi:.6e}")
    print(f"received_power_dbm={_fmt(result.received_power_dbm)}")
    print(f"candidates_evaluated={result.candidates_evaluated}")
    write_shifts_csv(args.out, result.shifts)
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    methods, epsilon_deg, gamma_deg = _parse_methods(args.methods.split(","), args.command)
    spec = SweepSpec(
        axis=args.axis,
        start=args.start,
        stop=args.stop,
        step=args.step,
        methods=methods,
        epsilon_deg=epsilon_deg,
        gamma_deg=gamma_deg,
    )
    rows = run_sweep(scenario, spec)
    write_sweep_csv(args.out, rows, methods)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_angle_scan(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    methods, epsilon_deg, gamma_deg = _parse_methods(args.methods.split(","), args.command)
    _check_option("--target", args.target, "(-90, 90)")
    _check_option("--start", args.start, "[-90, 90]")
    _check_option("--stop", args.stop, "[-90, 90]")
    rows = angle_scan(
        scenario,
        args.start,
        args.stop,
        args.step,
        math.radians(args.target),
        methods,
        epsilon_deg=epsilon_deg,
        gamma_deg=gamma_deg,
    )
    write_sweep_csv(args.out, rows, methods)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_gradient_map(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    (name,), epsilon_deg, gamma_deg = _parse_methods([args.method], args.command)
    _check_option("--target-theta", args.target_theta, "[0, 90)")
    _check_option("--target-phi", args.target_phi)
    _check_option("--theta-start", args.theta_start, "[0, 90]")
    _check_option("--theta-stop", args.theta_stop, "[0, 90]")
    theta_grid = grid_values(args.theta_start, args.theta_stop, args.theta_step, "--theta-step")
    if theta_grid[-1] > 90.0:  # the colon range may overshoot --theta-stop by step/2
        raise ScenarioFileError(
            f"--theta-step {args.theta_step:g} puts the last theta point at "
            f"{theta_grid[-1]:g}, past 90 degrees"
        )
    phi_grid = grid_values(args.phi_start, args.phi_stop, args.phi_step, "--phi-step")
    power = gradient_map(
        scenario,
        (math.radians(args.target_theta), math.radians(args.target_phi) % TWO_PI),
        theta_grid,
        phi_grid,
        name,
        epsilon_deg=epsilon_deg,
        gamma_deg=gamma_deg,
    )
    write_map_csv(args.out, theta_grid, phi_grid, power)
    print(f"wrote {args.out} ({power.size} points)")
    return 0


def _cmd_pl_fit(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    (name,), epsilon_deg, gamma_deg = _parse_methods([args.method], args.command)
    if args.num < 3:
        raise ScenarioFileError(f"--num must be >= 3, got {args.num}")
    if args.num > GRID_GUARD_POINTS:
        raise ScenarioFileError(f"--num {args.num} exceeds the guard of {GRID_GUARD_POINTS}")
    distance = args.variable in ("d1", "d2")  # log-spaced; angles are linear
    for option, value in (("--start", args.start), ("--stop", args.stop)):
        _check_option(option, value, None if distance else "[0, 90)")
        if distance and not value > 0.0:
            raise ScenarioFileError(f"log spacing requires a positive {option}, got {value:g}")
    if distance:
        grid = np.logspace(math.log10(args.start), math.log10(args.stop), args.num)
    else:
        grid = np.linspace(args.start, args.stop, args.num)
    fit = pl_slope_fit(scenario, f"log10_{args.variable}", grid, name, epsilon_deg, gamma_deg)
    print(f"variable={fit.variable}")
    print(f"slope={fit.slope:.4f}")
    print(f"intercept_db={fit.intercept:.4f}")
    print(f"r_squared={fit.r_squared:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="Reflecting-surface link simulator with discrete phase quantization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    add_scenario(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("quantize", help="design discrete shifts for one scenario")
    add_scenario(p)
    p.add_argument(
        "--method",
        required=True,
        help="dtpq | eipq[:epsilon_deg] | fixed[:gamma_deg] | exhaustive",
    )
    p.add_argument("--out", default="shifts.csv", help="shifts CSV path")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("sweep", help="sweep one axis and tabulate received power")
    add_scenario(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument(
        "--methods",
        required=True,
        help="comma list: continuous,dtpq,eipq[:epsilon_deg],fixed[:gamma_deg]",
    )
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("angle-scan", help="design at a target elevation, then move Rx")
    add_scenario(p)
    p.add_argument("--target", type=float, required=True, help="design elevation (deg)")
    p.add_argument("--start", type=float, required=True, help="scan start (deg)")
    p.add_argument("--stop", type=float, required=True, help="scan stop (deg)")
    p.add_argument("--step", type=float, required=True, help="scan step (deg)")
    p.add_argument("--methods", required=True)
    p.add_argument("--out", default="angle_scan.csv")
    p.set_defaults(func=_cmd_angle_scan)

    p = sub.add_parser("gradient-map", help="power map over (theta_r, phi_r)")
    add_scenario(p)
    p.add_argument("--target-theta", type=float, required=True, help="deg")
    p.add_argument("--target-phi", type=float, required=True, help="deg")
    p.add_argument("--theta-start", type=float, default=0.0)
    p.add_argument("--theta-stop", type=float, default=90.0)
    p.add_argument("--theta-step", type=float, default=0.5)
    p.add_argument("--phi-start", type=float, default=0.0)
    p.add_argument("--phi-stop", type=float, default=360.0)
    p.add_argument("--phi-step", type=float, default=2.0)
    p.add_argument("--method", default="dtpq")
    p.add_argument("--out", default="gradient_map.csv")
    p.set_defaults(func=_cmd_gradient_map)

    p = sub.add_parser("pl-fit", help="fit the path-loss exponent over a variable")
    add_scenario(p)
    p.add_argument("--variable", required=True, choices=("d1", "d2", "cos_theta_r", "cos_theta_t"))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--num", type=int, default=13)
    p.add_argument("--method", default="dtpq")
    p.set_defaults(func=_cmd_pl_fit)

    return parser


def run(argv: Sequence[str]) -> int:
    """Entry point returning an exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ScenarioFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric failure or bug surfaced at runtime
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
