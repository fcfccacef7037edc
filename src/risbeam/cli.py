"""Command-line front end: JSON scenarios in, CSV tables out.

Scenario files use degrees and GHz; all numeric CSV output is fixed to 4
decimal places.  Exit codes: 0 success, 2 configuration error (with the
offending key named), 1 internal numeric error.  numpy and the numeric
modules are imported by the commands that compute, so ``validate`` loads
none of them.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .scenario import (
    FIT_VARIABLES,
    GRID_GUARD_POINTS,
    SWEEP_AXES,
    Scenario,
    ScenarioFileError,
    in_degrees,
    load_scenario,
)

# ---------------------------------------------------------------------------
# CSV schemas: rows are joined by hand, since no formatted field needs quoting


def _fmt(value: float) -> str:
    """``value`` to 4 decimal places, with no negative zero: -1e-5 is 0.0000."""
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def write_shifts_csv(path: str, result) -> None:
    """One row per cell of a discrete design (a QuantizationResult), row-major:
    n, m, level_index, level_deg."""
    import numpy as np

    with open(path, "w", newline="") as fh:
        fh.write("n,m,level_index,level_deg\n")
        for (m, n), index in np.ndenumerate(result.level_indices):
            fh.write(f"{n + 1},{m + 1},{index},{_fmt(math.degrees(result.shifts[m, n]))}\n")


def write_sweep_csv(path: str, rows: Sequence) -> None:
    """Header axis_value,<method>_dbm[,<method>_threshold_deg]... in method order,
    then one line per SweepRow.

    The methods are the first row's, whose power keys keep method order; a
    threshold column follows each method whose rows report a threshold.
    """
    methods = list(rows[0].power_dbm) if rows else []
    thresholded = set(rows[0].threshold_deg) if rows else set()
    header = ["axis_value"]
    for method in methods:
        header.append(f"{method}_dbm")
        if method in thresholded:
            header.append(f"{method}_threshold_deg")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            record = [_fmt(row.axis_value)]
            for method in methods:
                record.append(_fmt(row.power_dbm[method]))
                if method in thresholded:
                    record.append(_fmt(row.threshold_deg[method]))
            fh.write(",".join(record) + "\n")


def write_map_csv(
    path: str, theta_grid_deg: Sequence[float], phi_grid_deg: Sequence[float], power
) -> None:
    """Long-format map: theta_r_deg, phi_r_deg, power_dbm, one write per theta row."""
    import numpy as np

    phis = [_fmt(phi) for phi in phi_grid_deg]
    with open(path, "w", newline="") as fh:
        fh.write("theta_r_deg,phi_r_deg,power_dbm\n")
        for theta, row in zip(theta_grid_deg, np.asarray(power).tolist()):
            prefix = _fmt(theta) + ","
            fh.write("".join(f"{prefix}{phi},{_fmt(value)}\n" for phi, value in zip(phis, row)))


# ---------------------------------------------------------------------------
# Option checks: angles stay in degrees, so the diagnostic names the option


def _inside(value: float, degrees: str) -> bool:
    """Whether an angle lies in the interval spelled ``degrees``, such as "[0, 90)"."""
    return {"(-90, 90)": -90.0 < value < 90.0, "[-90, 90]": -90.0 <= value <= 90.0,
            "[0, 90)": 0.0 <= value < 90.0, "[0, 90]": 0.0 <= value <= 90.0}[degrees]


def _check_option(option: str, value: float, degrees: str | None = None) -> None:
    """Refuse a non-finite value, or an angle outside the ``degrees`` interval."""
    if not math.isfinite(value):
        raise ScenarioFileError(f"{option} must be finite, got {value}")
    if degrees is not None and not _inside(value, degrees):
        raise ScenarioFileError(f"{option} must lie in {degrees} degrees, got {value:g}")


def _grid(
    start: float, stop: float, step: float, degrees: str | None = None, prefix: str = "--"
) -> Sequence[float]:
    """The colon range of the ``<prefix>start``, ``stop`` and ``step`` options.

    An angle grid is held to its ``degrees`` interval: start, stop and the
    last point, which may pass stop by up to step/2, must lie inside.
    """
    from .analysis import grid_values

    _check_option(f"{prefix}start", start, degrees)
    _check_option(f"{prefix}stop", stop, degrees)
    values = grid_values(start, stop, step, f"{prefix}step")
    if degrees is not None and not _inside(values[-1], degrees):
        raise ScenarioFileError(
            f"{prefix}step {step:g} puts the last point at {values[-1]:g}, "
            f"outside {degrees} degrees"
        )
    return values


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(scenario: Scenario, args: argparse.Namespace) -> int:
    panel = scenario.panel
    print(
        f"ok: {panel.rows}x{panel.cols} cells, {panel.bits}-bit, "
        f"wavelength {scenario.radio.wavelength:.6f} m"
    )
    return 0


def _cmd_quantize(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import check_methods, design
    from .channel import link_state

    check_methods([args.method], ("dtpq", "eipq", "fixed"))
    result = design(link_state(scenario), args.method)

    print(f"threshold_deg={_fmt(math.degrees(result.threshold))}")
    print(f"xi={result.xi:.6e}")
    print(f"received_power_dbm={_fmt(result.received_power_dbm)}")
    print(f"candidates_evaluated={result.candidates_evaluated}")
    write_shifts_csv(args.out, result)
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import run_sweep

    degrees = "[0, 90)" if in_degrees(SWEEP_AXES[args.axis]) else None
    values = _grid(args.start, args.stop, args.step, degrees)
    rows = run_sweep(scenario, args.axis, values, args.methods.split(","))
    write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_angle_scan(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import angle_scan

    _check_option("--target", args.target, "(-90, 90)")
    values = _grid(args.start, args.stop, args.step, "[-90, 90]")
    rows = angle_scan(scenario, values, args.target, args.methods.split(","))
    write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_gradient_map(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import gradient_map

    _check_option("--target-theta", args.target_theta, "[0, 90)")
    _check_option("--target-phi", args.target_phi)
    theta_grid = _grid(args.theta_start, args.theta_stop, args.theta_step, "[0, 90]", "--theta-")
    phi_grid = _grid(args.phi_start, args.phi_stop, args.phi_step, prefix="--phi-")
    power = gradient_map(scenario, (args.target_theta, args.target_phi), theta_grid, phi_grid,
                         args.method)
    write_map_csv(args.out, theta_grid, phi_grid, power)
    print(f"wrote {args.out} ({power.size} points)")
    return 0


def _cmd_pl_fit(scenario: Scenario, args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import pl_slope_fit

    if args.num < 3:
        raise ScenarioFileError(f"--num must be >= 3, got {args.num}")
    if args.num > GRID_GUARD_POINTS:
        raise ScenarioFileError(f"--num {args.num} exceeds the guard of {GRID_GUARD_POINTS}")
    distance = not in_degrees(FIT_VARIABLES[args.variable])  # log-spaced; angles are linear
    for option, value in (("--start", args.start), ("--stop", args.stop)):
        _check_option(option, value, None if distance else "[0, 90)")
        if distance and not value > 0.0:
            raise ScenarioFileError(f"log spacing requires a positive {option}, got {value:g}")
    if distance:
        grid = np.logspace(math.log10(args.start), math.log10(args.stop), args.num)
    else:
        grid = np.linspace(args.start, args.stop, args.num)
    fit = pl_slope_fit(scenario, args.variable, grid, args.method)
    print(f"variable={fit.variable}")
    print(f"slope={_fmt(fit.slope)}")
    print(f"intercept_db={_fmt(fit.intercept)}")
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
        help="dtpq | eipq[:step_deg] | fixed[:threshold_deg]",
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
        help="comma list: continuous,dtpq,eipq[:step_deg],fixed[:threshold_deg]",
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
    p.add_argument("--variable", required=True, choices=FIT_VARIABLES)
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
        return args.func(load_scenario(args.scenario), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric failure or bug surfaced at runtime
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
