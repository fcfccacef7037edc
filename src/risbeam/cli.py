"""Command-line front end: JSON scenarios in, CSV tables out.

Scenario files use degrees and GHz; all numeric CSV output is fixed to 4
decimal places.  Exit codes: 0 success; 2 a refused value, raised as
``scenario.ConfigError`` naming the key, option, method token or path at
fault; 1 any other exception, an internal error.  An interval option is
refused by ``scenario.check_range``, as a scenario key is, and an elevation
option reads its interval from its placement field's RANGES row.  numpy and
the numeric modules are imported by the commands that compute, so
``validate`` loads none of them.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .scenario import (FIT_VARIABLES, GRID_GUARD_POINTS, RANGES, SWEEP_AXES, ConfigError,
                       Scenario, check_range, exact_g, in_degrees, inside, load_scenario)

# ---------------------------------------------------------------------------
# CSV schemas: rows are joined by hand, since no formatted field needs quoting


def _fmt(value: float) -> str:
    """``value`` to 4 decimal places, with no negative zero: -1e-5 is 0.0000."""
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _create(path: str):
    """``path`` opened for writing; a path that cannot be opened is refused, naming --out."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"--out {path} cannot be written: {exc.strerror}") from None


def write_shifts_csv(path: str, result) -> None:
    """One row per cell of a discrete design (a QuantizationResult), row-major:
    n, m, level_index, level_deg."""
    import numpy as np

    with _create(path) as fh:
        fh.write("n,m,level_index,level_deg\n")
        for (m, n), degrees in np.ndenumerate(np.degrees(result.shifts)):
            fh.write(f"{n + 1},{m + 1},{result.level_indices[m, n]},{_fmt(degrees)}\n")


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
    with _create(path) as fh:
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
    with _create(path) as fh:
        fh.write("theta_r_deg,phi_r_deg,power_dbm\n")
        for theta, row in zip(theta_grid_deg, np.asarray(power).tolist()):
            prefix = _fmt(theta) + ","
            fh.write("".join(f"{prefix}{phi},{_fmt(value)}\n" for phi, value in zip(phis, row)))


# ---------------------------------------------------------------------------
# Option checks: angles stay in degrees, so the diagnostic names the option


def _check_option(option: str, value: float, degrees: str | None = None) -> None:
    """Refuse a non-finite value, or an angle outside the ``degrees`` interval."""
    if not math.isfinite(value):
        raise ConfigError(f"{option} must be finite, got {value}")
    if degrees is not None:
        check_range(option, value, degrees, "deg")


def _value(args: argparse.Namespace, flag: str):
    """The parsed value of the option spelled ``flag``."""
    return getattr(args, flag[2:].replace("-", "_"))


def _grid(args: argparse.Namespace, degrees: str | None = None, prefix: str = "--"
          ) -> Sequence[float]:
    """The colon range of the ``<prefix>start``, ``stop`` and ``step`` options.

    An angle grid holds start, stop and the last point, which may pass stop
    by up to step/2, to ``degrees``, the interval that another option sets,
    or else to its start's interval in the table, which run() has checked.
    """
    from .analysis import grid_values

    start, stop, step = (_value(args, prefix + end) for end in ("start", "stop", "step"))
    if degrees is None:
        degrees, = _COMMANDS[args.command][2][prefix + "start"][3:] or (None,)
    else:
        _check_option(f"{prefix}start", start, degrees)
        _check_option(f"{prefix}stop", stop, degrees)
    values = grid_values(start, stop, step, f"{prefix}step")
    if degrees is not None and not inside(values[-1], degrees):
        raise ConfigError(f"{prefix}step {exact_g(step)} puts the last point at "
                          f"{exact_g(values[-1])}, outside {degrees} deg")
    return values


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(scenario: Scenario, args: argparse.Namespace) -> int:
    panel = scenario.panel
    print(f"ok: {panel.rows}x{panel.cols} cells, {panel.bits}-bit, "
          f"wavelength {scenario.radio.wavelength:.6f} m")
    return 0


def _cmd_quantize(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import check_methods, design
    from .channel import link_state

    check_methods([args.method], ("dtpq", "eipq", "fixed"))
    result = design(link_state(scenario), args.method)
    write_shifts_csv(args.out, result)
    print(f"threshold_deg={_fmt(result.threshold_deg)}")
    print(f"xi={result.xi:.6e}")
    print(f"received_power_dbm={_fmt(result.received_power_dbm)}")
    print(f"candidates_evaluated={result.candidates_evaluated}")
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import run_sweep

    field = SWEEP_AXES[args.axis]  # an elevation's grid keeps to its RANGES interval
    values = _grid(args, RANGES[f"placement.{field}"][0] if in_degrees(field) else None)
    rows = run_sweep(scenario, args.axis, values, args.methods.split(","))
    write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_angle_scan(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import angle_scan

    rows = angle_scan(scenario, _grid(args), args.target, args.methods.split(","))
    write_sweep_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_gradient_map(scenario: Scenario, args: argparse.Namespace) -> int:
    from .analysis import gradient_map

    theta_grid = _grid(args, prefix="--theta-")
    phi_grid = _grid(args, prefix="--phi-")
    power = gradient_map(scenario, (args.target_theta, args.target_phi), theta_grid, phi_grid,
                         args.method)
    write_map_csv(args.out, theta_grid, phi_grid, power)
    print(f"wrote {args.out} ({power.size} points)")
    return 0


def _cmd_pl_fit(scenario: Scenario, args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import pl_slope_fit

    if args.num < 3:
        raise ConfigError(f"--num must be >= 3, got {args.num}")
    if args.num > GRID_GUARD_POINTS:
        raise ConfigError(f"--num {args.num} exceeds the guard of {GRID_GUARD_POINTS}")
    field = FIT_VARIABLES[args.variable]
    distance = not in_degrees(field)  # log-spaced; angles are linear
    for option, value in (("--start", args.start), ("--stop", args.stop)):
        _check_option(option, value, None if distance else RANGES[f"placement.{field}"][0])
        if distance and not value > 0.0:
            raise ConfigError(f"log spacing requires a positive {option}, got {exact_g(value)}")
    if distance:  # a sample past the float range is inf, which the range check refuses
        with np.errstate(over="ignore"):
            grid = np.logspace(math.log10(args.start), math.log10(args.stop), args.num)
    else:
        grid = np.linspace(args.start, args.stop, args.num)
    fit = pl_slope_fit(scenario, args.variable, grid, args.method)
    print(f"variable={fit.variable}")
    print(f"slope={_fmt(fit.slope)}")
    print(f"intercept_db={_fmt(fit.intercept)}")
    print(f"r_squared={fit.r_squared:.6f}")
    return 0


# ---------------------------------------------------------------------------
# The options: each subcommand's handler, help and {flag: (type, default,
# help[, degrees])}.  A default of ... makes the option required, a dict type
# (SWEEP_AXES, FIT_VARIABLES) gives its choices, and a degrees entry makes
# run() refuse a non-finite value, or one outside the interval it spells.

_COMMANDS = {
    "validate": (_cmd_validate, "parse and validate a scenario file", {}),
    "quantize": (_cmd_quantize, "design discrete shifts for one scenario", {
        "--method": (str, ..., "dtpq | eipq[:step_deg] | fixed[:threshold_deg]"),
        "--out": (str, "shifts.csv", "shifts CSV path"),
    }),
    "sweep": (_cmd_sweep, "sweep one axis and tabulate received power", {
        "--axis": (SWEEP_AXES, ..., None),
        "--start": (float, ..., None),
        "--stop": (float, ..., None),
        "--step": (float, ..., None),
        "--methods": (str, ..., "comma list: "
                      "continuous,dtpq,eipq[:step_deg],fixed[:threshold_deg]"),
        "--out": (str, "sweep.csv", None),
    }),
    "angle-scan": (_cmd_angle_scan, "design at a target elevation, then move Rx", {
        "--target": (float, ..., "design elevation (deg)", "(-90, 90)"),
        "--start": (float, ..., "scan start (deg)", "[-90, 90]"),
        "--stop": (float, ..., "scan stop (deg)", "[-90, 90]"),
        "--step": (float, ..., "scan step (deg)"),
        "--methods": (str, ..., None),
        "--out": (str, "angle_scan.csv", None),
    }),
    "gradient-map": (_cmd_gradient_map, "power map over (theta_r, phi_r)", {
        "--target-theta": (float, ..., "deg", RANGES["placement.theta_r_deg"][0]),
        "--target-phi": (float, ..., "deg", None),
        "--theta-start": (float, 0.0, None, "[0, 90]"),
        "--theta-stop": (float, 90.0, None, "[0, 90]"),
        "--theta-step": (float, 0.5, None),
        "--phi-start": (float, 0.0, None),
        "--phi-stop": (float, 360.0, None),
        "--phi-step": (float, 2.0, None),
        "--method": (str, "dtpq", None),
        "--out": (str, "gradient_map.csv", None),
    }),
    "pl-fit": (_cmd_pl_fit, "fit the path-loss exponent over a variable", {
        "--variable": (FIT_VARIABLES, ..., None),
        "--start": (float, ..., None),
        "--stop": (float, ..., None),
        "--num": (int, 13, None),
        "--method": (str, "dtpq", None),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="risbeam", description=(
        "Reflecting-surface link simulator with discrete phase quantization."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        for flag, (kind, default, text, *_) in options.items():
            choices = kind if isinstance(kind, dict) else None
            p.add_argument(flag, type=None if choices else kind, choices=choices,
                           required=default is ..., default=default, help=text)
    return parser


def run(argv: Sequence[str]) -> int:
    """Entry point returning an exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, _, options = _COMMANDS[args.command]
    try:
        scenario = load_scenario(args.scenario)
        for flag, (_, _, _, *degrees) in options.items():
            if degrees:
                _check_option(flag, _value(args, flag), *degrees)
        return handler(scenario, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric failure or bug surfaced at runtime
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
