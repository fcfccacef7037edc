"""Parameter sweeps, angle scans, spatial power maps, and slope fits.

Every analysis takes its grid as values.  Colon ranges ("5:0.1:10", 51
points) are built by ``grid_values``, which the command line calls with
its option names.  Sweep axes and fit variables carry the command line's
names (``scenario.SWEEP_AXES``, ``FIT_VARIABLES``).  Every angle at this
layer, of a grid, a design target or a threshold, is in degrees, as in the
CSVs; distances are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import (
    LinkState,
    field_at_rx_points,
    link_state,
    power_dbm_from_xi,
)
from .geometry import antenna_points
from .quantization import QuantizationResult, dtpq, eipq, fixed_threshold
from .scenario import (FIT_VARIABLES, GRID_GUARD_POINTS, MIN_GAIN_DBI, SWEEP_AXES, ConfigError,
                       Scenario, check_range, exact_g, in_degrees)

# A method token is a name, then ":<degrees>" on the two methods with a
# parameter: the eipq grid step and the fixed threshold.
METHODS = ("continuous", "dtpq", "eipq", "fixed")

DEFAULT_EPSILON_DEG = 5.0

_BELOW_90 = math.nextafter(90.0, 0.0)  # a grazing Rx's elevation, as antenna_points clamps it


@dataclass(frozen=True)
class SweepRow:
    """Powers (dBm) and thresholds (deg, where applicable) at one grid point."""

    axis_value: float
    power_dbm: dict[str, float]
    threshold_deg: dict[str, float]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of path loss (dB) against 10*log10(variable)."""

    variable: str
    slope: float
    intercept: float
    r_squared: float


def grid_values(start: float, stop: float, step: float, option: str = "--step") -> np.ndarray:
    """Colon-range grid: start, start+step, ... up to stop within step/2.

    Grids of more than GRID_GUARD_POINTS points are refused before any
    array is allocated.  Messages name the step as ``option`` and the
    bounds by its prefix: "--theta-step" goes with "--theta-start".
    """
    prefix = option.removesuffix("step")
    for bound, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ConfigError(f"{prefix}{bound} must be finite, got {value:g}")
    if not step > 0.0:
        raise ConfigError(f"{option} must be positive, got {exact_g(step)}")
    if not math.isfinite(step):
        raise ConfigError(f"{option} must be finite, got {step:g}")
    if stop < start:
        raise ConfigError(f"{prefix}stop {exact_g(stop)} must not precede "
                          f"{prefix}start {exact_g(start)}")
    steps = (stop - start) / step + 0.5
    if not steps < GRID_GUARD_POINTS:  # also refuses a span of inf steps
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ConfigError(
            f"{option} {exact_g(step)} gives {count} grid points from {exact_g(start)} to "
            f"{exact_g(stop)}, exceeding the guard of {GRID_GUARD_POINTS}"
        )
    return start + step * np.arange(math.floor(steps) + 1)


def _split_method(token: str, allowed: Sequence[str]) -> tuple[str, float | None]:
    """The name of a method token and its parameter in degrees (None when bare)."""
    name, colon, param = token.strip().partition(":")
    if name not in allowed:
        raise ConfigError(f"unknown method {name!r}; expected one of {', '.join(allowed)}")
    if not colon:
        return name, None
    if name not in ("eipq", "fixed"):
        raise ConfigError(f"method {name!r} takes no parameter, got {token!r}")
    try:
        value = float(param)
    except ValueError:
        raise ConfigError(f"bad parameter in method token {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"parameter in method token {token!r} must be finite")
    return name, value


def check_methods(tokens: Sequence[str], allowed: Sequence[str] = METHODS) -> dict[str, str]:
    """Each method token keyed by its name, in order.

    Refuses an empty list, a name outside ``allowed``, a parameter that is
    not a finite number or sits on a method that takes none, and a repeated
    name.
    """
    if not tokens:
        raise ConfigError("methods must be non-empty")
    table: dict[str, str] = {}
    for token in tokens:
        name = _split_method(token, allowed)[0]
        if name in table:
            raise ConfigError(f"duplicate method {name!r} in {','.join(tokens)}")
        table[name] = token
    return table


def design(state: LinkState, method: str) -> QuantizationResult:
    """Shifts designed by one method token on the given link: the table of methods.

    The tokens are continuous, dtpq, eipq[:step_deg] (bare:
    DEFAULT_EPSILON_DEG) and fixed[:threshold_deg] (bare: the panel's last
    level), and the searches take the token's degrees.  The continuous
    design carries the link's phases ``state.phase`` as its shifts, no
    level indices and no threshold.  The searches are looked up as module
    globals at call time.  A refusal from eipq or fixed_threshold names the
    token in front.  A link whose continuous bound xi is 0 is refused for
    every method, naming the scenario keys that darken it (see
    ``_dark_keys``): no design on it has a finite received power.
    """
    name, degrees = _split_method(method, METHODS)
    scenario = state.scenario
    if not state.xi_upper_bound > 0.0:
        raise ConfigError(f"no cell reaches the Rx (the link's continuous bound xi is 0): "
                          f"{_dark_keys(scenario)}")
    if name == "continuous":
        xi = state.xi_upper_bound
        power = power_dbm_from_xi(scenario.panel, scenario.radio, xi)
        return QuantizationResult(None, state.phase, None, xi, power, 0)
    if name == "dtpq":
        return dtpq(state)
    try:
        if name == "eipq":
            return eipq(state, DEFAULT_EPSILON_DEG if degrees is None else degrees)
        last_level = scenario.panel.levels_deg[-1]
        return fixed_threshold(state, last_level if degrees is None else degrees)
    except ConfigError as exc:
        raise ConfigError(f"method token {method!r}: {exc}") from None


def _dark_keys(scenario: Scenario) -> str:
    """Which scenario keys leave every cell of the link at zero amplitude.

    With the flattest patterns (the 3.0103 dBi gain floor and cell_alpha 0)
    a cell is lit exactly when it lies in front of both antennas.  If that
    lights a cell, the amplitude exp(sum of logs) underflowed, and the path
    lengths weigh in that sum beside the pattern exponents; otherwise the
    geometry put every cell behind the Tx or the Rx antenna.
    """
    flat = replace(scenario.radio, gain_tx_dbi=MIN_GAIN_DBI, gain_rx_dbi=MIN_GAIN_DBI,
                   cell_alpha=0.0)
    if link_state(replace(scenario, radio=flat)).xi_upper_bound > 0.0:
        return ("'radio.gain_tx_dbi', 'radio.gain_rx_dbi', 'radio.cell_alpha', "
                "'panel.cell_dx_m', 'panel.cell_dy_m' and 'placement' make every cell's "
                "amplitude underflow to 0")
    return ("'panel.cell_dx_m', 'panel.cell_dy_m' and 'placement' put every cell "
            "behind the Tx or the Rx antenna")


def _rows(label: str, values: Sequence[float], row) -> list:
    """``row(value)`` at each grid value, in order.  A refusal there, of the
    placement at the value or of a design, names ``label`` and the value in front."""
    rows = []
    for value in values:
        try:
            rows.append(row(value))
        except ConfigError as exc:
            raise ConfigError(f"{label} {exact_g(value)}: {exc}") from None
    return rows


def _row(state: LinkState, value: float, methods: dict[str, str]) -> SweepRow:
    """The methods designed on one link: their powers and thresholds at a grid value."""
    powers: dict[str, float] = {}
    thresholds: dict[str, float] = {}
    for name, token in methods.items():
        result = design(state, token)
        powers[name] = result.received_power_dbm
        if result.threshold_deg is not None:
            thresholds[name] = result.threshold_deg
    return SweepRow(axis_value=float(value), power_dbm=powers, threshold_deg=thresholds)


def run_sweep(
    scenario: Scenario, axis: str, values: Sequence[float], methods: Sequence[str]
) -> list[SweepRow]:
    """One row per axis value (meters, or degrees on theta_r and threshold).

    Distance and angle axes rebuild the link and redesign every method at
    each value; the threshold axis takes bare fixed alone, reuses one link
    and quantizes at each value.  Rows key methods by name.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    table = check_methods(methods)
    if axis != "threshold":
        field = SWEEP_AXES[axis]  # in the grid's unit: deg on an elevation, else m
        return _rows(axis, values, lambda v: _row(
            link_state(scenario.with_placement(**{field: float(v)})), v, table))
    if list(table) != ["fixed"]:
        raise ConfigError("a threshold sweep exercises exactly the fixed method")
    if ":" in table["fixed"]:
        raise ConfigError(
            f"a threshold sweep takes its threshold from the grid, got {table['fixed']!r}"
        )
    state = link_state(scenario)
    return _rows(axis, values, lambda v: _row(state, v, {"fixed": f"fixed:{float(v)!r}"}))


def _frozen_powers(
    target: Scenario, theta: np.ndarray, phi: np.ndarray, methods: dict[str, str]
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Design each method once on the target's link, then hold it while Rx moves.

    The Rx moves over elevations ``theta`` and azimuths ``phi`` (deg) at
    the target's distance.  Returns each method's power (dBm) there and the
    thresholds (deg) of the methods that have one.  A point where a design
    gives xi = 0, where every power would be -inf, is refused, naming the
    first such point and the scenario keys that darken it (``_dark_keys``).
    """
    state = link_state(target)
    points = antenna_points(target.placement.d2_m, theta, phi)
    powers: dict[str, np.ndarray] = {}
    thresholds: dict[str, float] = {}
    for name, token in methods.items():
        result = design(state, token)
        xi = field_at_rx_points(target, result.shifts, points)
        dark = np.flatnonzero(~(xi > 0.0))
        if dark.size:
            t, p = float(theta[dark[0]]), float(phi[dark[0]])
            there = target.with_placement(theta_r_deg=min(t, _BELOW_90), phi_r_deg=p)
            raise ConfigError(f"no cell reaches the Rx at theta_r {exact_g(t)}, phi_r "
                              f"{exact_g(p)} deg (xi is 0 there): {_dark_keys(there)}")
        powers[name] = power_dbm_from_xi(target.panel, target.radio, xi)
        if result.threshold_deg is not None:
            thresholds[name] = result.threshold_deg
    return powers, thresholds


def _signed_direction(theta: float | np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(elevation, azimuth) of signed elevations ``theta`` along azimuth ``phi`` (deg).

    A negative elevation lands at |theta| on the opposite azimuth.
    """
    theta = np.asarray(theta, dtype=float)
    return np.abs(theta), np.where(theta < 0.0, (phi + 180.0) % 360.0, phi)


def angle_scan(
    scenario: Scenario,
    values_deg: Sequence[float],
    target_deg: float,
    methods: Sequence[str],
) -> list[SweepRow]:
    """Design shifts once at the target departure elevation, then move Rx.

    ``target_deg`` is the signed design elevation in (-90, 90) deg and
    ``values_deg`` the signed scan elevations in [-90, 90] deg.  Powers
    peak at the target for the beamforming methods.
    """
    check_range("design target", target_deg, "(-90, 90)", "deg")
    values = np.asarray(values_deg, dtype=float)
    outside = ~((values >= -90.0) & (values <= 90.0))
    if outside.any():
        raise ConfigError(f"scan value {exact_g(values[outside.argmax()])} must lie in "
                          "[-90, 90] deg")
    table = check_methods(methods)

    phi_r = scenario.placement.phi_r_deg
    theta, phi = _signed_direction(target_deg, phi_r)
    target = scenario.with_placement(theta_r_deg=float(theta), phi_r_deg=float(phi))
    powers, thresholds = _frozen_powers(target, *_signed_direction(values, phi_r), table)
    return [
        SweepRow(float(value), {m: float(powers[m][i]) for m in table}, dict(thresholds))
        for i, value in enumerate(values)
    ]


def gradient_map(
    scenario: Scenario,
    target_deg: tuple[float, float],
    theta_grid_deg: Sequence[float],
    phi_grid_deg: Sequence[float],
    method: str,
) -> np.ndarray:
    """Received power (dBm) over a (theta_r, phi_r) grid with frozen shifts.

    ``target_deg`` is the design's (theta_r, phi_r) in degrees.  Returns a
    len(theta_grid) x len(phi_grid) matrix ordered like the grids.
    """
    theta_grid = np.asarray(theta_grid_deg, dtype=float)
    phi_grid = np.asarray(phi_grid_deg, dtype=float)
    if theta_grid.size == 0 or phi_grid.size == 0:
        raise ConfigError("grids must be non-empty")
    if theta_grid.size * phi_grid.size > GRID_GUARD_POINTS:
        raise ConfigError(
            f"--theta-step/--phi-step give a {theta_grid.size} x {phi_grid.size} map of "
            f"{theta_grid.size * phi_grid.size} points, exceeding the guard of "
            f"{GRID_GUARD_POINTS}"
        )
    if not np.all((theta_grid >= 0.0) & (theta_grid <= 90.0)):
        raise ConfigError("theta grid must lie within [0, 90] degrees")
    if not np.all(np.isfinite(phi_grid)):
        raise ConfigError("phi grid must be finite")
    table = check_methods([method])

    target = scenario.with_placement(theta_r_deg=target_deg[0], phi_r_deg=target_deg[1])
    tt, pp = np.meshgrid(theta_grid, phi_grid, indexing="ij")
    (power,) = _frozen_powers(target, tt.ravel(), pp.ravel(), table)[0].values()
    return power.reshape(theta_grid.size, phi_grid.size)


def path_loss_samples(
    scenario: Scenario,
    variable: str,
    sample_grid: Sequence[float],
    method: str,
) -> np.ndarray:
    """Path loss (dB) per sample, with shifts redesigned at every sample.

    ``variable`` is a key of FIT_VARIABLES, and ``sample_grid`` holds
    meters for the distances and degrees for the elevations.
    """
    if variable not in FIT_VARIABLES:
        raise ConfigError(f"variable must be one of {tuple(FIT_VARIABLES)}, got {variable!r}")
    (token,) = check_methods([method]).values()
    field = FIT_VARIABLES[variable]
    powers = _rows(f"log10_{variable} sample", sample_grid, lambda v: design(
        link_state(scenario.with_placement(**{field: float(v)})), token).received_power_dbm)
    return scenario.radio.tx_power_dbm - np.array(powers)


def pl_slope_fit(
    scenario: Scenario,
    variable: str,
    sample_grid: Sequence[float],
    method: str,
) -> SlopeFit:
    """Ordinary least squares of PL (dB) against 10*log10(variable), named "log10_<variable>".

    ``variable`` and ``sample_grid`` are as in ``path_loss_samples``.  The
    slope is the path-loss exponent: +2 for the far-field distance law, -1
    for the continuous-space cosine law.
    """
    grid = np.asarray(sample_grid, dtype=float)
    if grid.size < 3:
        raise ConfigError(f"slope fit needs at least 3 samples, got {grid.size}")
    var = np.cos(np.radians(grid)) if in_degrees(FIT_VARIABLES.get(variable)) else grid
    if np.any(var <= 0.0):
        raise ConfigError(f"variable {variable} must be positive over the grid")

    x = 10.0 * np.log10(var)
    if np.ptp(x) == 0.0:
        raise ConfigError(f"singular design matrix: log10_{variable} is constant over the grid")
    y = path_loss_samples(scenario, variable, grid, method)
    for value, loss in zip(grid, y):
        if not math.isfinite(loss):  # inf where no cell is lit (xi = 0)
            raise ConfigError(f"path loss at log10_{variable} sample {exact_g(value)} is "
                              f"{loss:g} dB; a slope fit needs every sample finite")

    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    return SlopeFit(
        variable=f"log10_{variable}",
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
    )
