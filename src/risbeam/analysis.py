"""Parameter sweeps, angle scans, spatial power maps, and slope fits.

Grid semantics follow colon ranges: closed at the start, stepping until
the stop value with a tolerance of half a step, so "5:0.1:10" yields 51
points.  Angle-axis values, thresholds, and grid steps are degrees at
this layer (they feed the CSV boundary directly); distances are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    LinkState,
    field_at_rx_points,
    link_state,
    power_dbm_from_xi,
)
from .geometry import TWO_PI, antenna_points
from .quantization import QuantizationResult, dtpq, eipq, exhaustive_search, fixed_threshold
from .scenario import Scenario

SWEEP_AXES = ("rx_distance", "tx_distance", "theta_r", "threshold")
METHODS = ("continuous", "dtpq", "eipq", "fixed")

DEFAULT_EPSILON_DEG = 5.0

# Upper bound on the points of one grid or map (32x the 181 x 181 map).
GRID_GUARD_POINTS = 1 << 20


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis plus the methods to evaluate on it.

    start/stop/step are meters for distance axes and degrees for angle
    and threshold axes.  ``epsilon_deg`` parameterizes the eipq method,
    ``gamma_deg`` the fixed method (None selects the panel's last level).
    """

    axis: str
    start: float
    stop: float
    step: float
    methods: tuple[str, ...]
    epsilon_deg: float = DEFAULT_EPSILON_DEG
    gamma_deg: float | None = None

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate methods in {self.methods}")
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ValueError(f"stop {self.stop} must not precede start {self.start}")
        if self.axis == "threshold" and self.methods != ("fixed",):
            raise ValueError("a threshold sweep exercises exactly the fixed method")


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


FIT_VARIABLES = ("log10_d1", "log10_d2", "log10_cos_theta_r", "log10_cos_theta_t")

# The Placement field each redesign axis and fit variable moves, and how a
# grid value becomes that field: meters pass through, degrees become radians.
_PLACEMENT_FIELDS = {
    "rx_distance": ("d2", float),
    "tx_distance": ("d1", float),
    "theta_r": ("theta_r", math.radians),
    "log10_d1": ("d1", float),
    "log10_d2": ("d2", float),
    "log10_cos_theta_r": ("theta_r", math.radians),
    "log10_cos_theta_t": ("theta_t", math.radians),
}


def _placed(scenario: Scenario, axis: str, value: float) -> Scenario:
    """The scenario with the placement field that ``axis`` moves set to ``value``."""
    field, convert = _PLACEMENT_FIELDS[axis]
    return scenario.with_placement(**{field: convert(value)})


def grid_values(start: float, stop: float, step: float, option: str = "--step") -> np.ndarray:
    """Colon-range grid: start, start+step, ... up to stop within step/2.

    Grids of more than GRID_GUARD_POINTS points are refused before any
    array is allocated; the message names the step as ``option``.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"stop {stop} must not precede start {start}")
    steps = (stop - start) / step + 0.5
    if not steps < GRID_GUARD_POINTS:  # also refuses an infinite or NaN span
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(
            f"{option} {step:g} gives {count} grid points from {start:g} to {stop:g}, "
            f"exceeding the guard of {GRID_GUARD_POINTS}"
        )
    return start + step * np.arange(math.floor(steps) + 1)


def design(
    state: LinkState,
    method: str,
    epsilon_deg: float = DEFAULT_EPSILON_DEG,
    gamma_deg: float | None = None,
) -> QuantizationResult:
    """Shifts designed by one method on the given link: the table of methods.

    ``epsilon_deg`` is the eipq grid step and ``gamma_deg`` the fixed
    threshold (None selects the panel's last level).  The continuous design
    carries the link's phases ``state.phase`` as its shifts and, like the
    exhaustive oracle, no threshold.  The searches are looked up as module
    globals at call time.
    """
    scenario = state.scenario
    if method == "continuous":
        xi = state.xi_upper_bound
        power = power_dbm_from_xi(scenario.panel, scenario.radio, xi)
        return QuantizationResult(None, state.phase, xi, power, 0)
    if method == "dtpq":
        return dtpq(scenario, state)
    if method == "eipq":
        return eipq(scenario, math.radians(epsilon_deg), state)
    if method == "fixed":
        gamma = scenario.panel.levels[-1] if gamma_deg is None else math.radians(gamma_deg)
        return fixed_threshold(scenario, gamma % TWO_PI, state)
    if method == "exhaustive":
        return exhaustive_search(scenario, state)
    raise ValueError(f"unknown method {method!r}")


def run_sweep(scenario: Scenario, spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the methods across the axis grid, one row per grid point.

    Distance and angle axes rebuild the link (and redesign every method)
    at each point; the threshold axis reuses one link and quantizes at
    each grid threshold with the fixed method.
    """
    values = grid_values(spec.start, spec.stop, spec.step)

    def row(state: LinkState, value: float, gamma_deg: float | None) -> SweepRow:
        powers: dict[str, float] = {}
        thresholds: dict[str, float] = {}
        for method in spec.methods:
            result = design(state, method, spec.epsilon_deg, gamma_deg)
            powers[method] = result.received_power_dbm
            if result.threshold is not None:
                thresholds[method] = math.degrees(result.threshold)
        return SweepRow(axis_value=float(value), power_dbm=powers, threshold_deg=thresholds)

    if spec.axis == "threshold":
        state = link_state(scenario)
        return [row(state, value, value) for value in values]
    return [
        row(link_state(_placed(scenario, spec.axis, value)), value, spec.gamma_deg)
        for value in values
    ]


def _signed_direction(theta: float | np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """(elevation, azimuth) of signed elevations ``theta`` (rad) along azimuth ``phi``.

    A negative elevation lands at |theta| on the opposite azimuth.
    """
    theta = np.asarray(theta, dtype=float)
    return np.abs(theta), np.where(theta < 0.0, (phi + math.pi) % TWO_PI, phi)


def angle_scan(
    scenario: Scenario,
    start_deg: float,
    stop_deg: float,
    step_deg: float,
    design_target: float,
    methods: Sequence[str],
    epsilon_deg: float = DEFAULT_EPSILON_DEG,
    gamma_deg: float | None = None,
) -> list[SweepRow]:
    """Design shifts once at the target departure elevation, then move Rx.

    ``design_target`` is radians in (-pi/2, pi/2); the scan grid is signed
    degrees.  Powers peak at the target for the beamforming methods.
    """
    if not -math.pi / 2 < design_target < math.pi / 2:
        raise ValueError(f"design target must lie in (-pi/2, pi/2), got {design_target}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")

    phi_r = scenario.placement.phi_r
    theta, phi = _signed_direction(design_target, phi_r)
    target = scenario.with_placement(theta_r=float(theta), phi_r=float(phi))
    state = link_state(target)

    values = grid_values(start_deg, stop_deg, step_deg)
    points = antenna_points(scenario.placement.d2, *_signed_direction(np.radians(values), phi_r))

    per_method: dict[str, np.ndarray] = {}
    thresholds: dict[str, float] = {}
    for method in methods:
        result = design(state, method, epsilon_deg, gamma_deg)
        xi = field_at_rx_points(target, result.shifts, points)
        per_method[method] = power_dbm_from_xi(scenario.panel, scenario.radio, xi)
        if result.threshold is not None:
            thresholds[method] = math.degrees(result.threshold)

    rows = []
    for i, value in enumerate(values):
        rows.append(
            SweepRow(
                axis_value=float(value),
                power_dbm={m: float(per_method[m][i]) for m in methods},
                threshold_deg=dict(thresholds),
            )
        )
    return rows


def gradient_map(
    scenario: Scenario,
    design_target: tuple[float, float],
    theta_grid_deg: Sequence[float],
    phi_grid_deg: Sequence[float],
    method: str,
    epsilon_deg: float = DEFAULT_EPSILON_DEG,
    gamma_deg: float | None = None,
) -> np.ndarray:
    """Received power (dBm) over a (theta_r, phi_r) grid with frozen shifts.

    ``design_target`` is (theta_r, phi_r) in radians.  Returns a
    len(theta_grid) x len(phi_grid) matrix ordered like the grids.
    """
    theta_grid = np.asarray(theta_grid_deg, dtype=float)
    phi_grid = np.asarray(phi_grid_deg, dtype=float)
    if theta_grid.size == 0 or phi_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if theta_grid.size * phi_grid.size > GRID_GUARD_POINTS:
        raise ValueError(
            f"--theta-step/--phi-step give a {theta_grid.size} x {phi_grid.size} map of "
            f"{theta_grid.size * phi_grid.size} points, exceeding the guard of "
            f"{GRID_GUARD_POINTS}"
        )
    if np.any(theta_grid < 0.0) or np.any(theta_grid > 90.0):
        raise ValueError("theta grid must lie within [0, 90] degrees")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    target = scenario.with_placement(theta_r=design_target[0], phi_r=design_target[1])
    shifts = design(link_state(target), method, epsilon_deg, gamma_deg).shifts

    tt, pp = np.meshgrid(np.radians(theta_grid), np.radians(phi_grid) % TWO_PI, indexing="ij")
    points = antenna_points(scenario.placement.d2, tt.ravel(), pp.ravel())
    xi = field_at_rx_points(target, shifts, points)
    power = power_dbm_from_xi(scenario.panel, scenario.radio, xi)
    return power.reshape(theta_grid.size, phi_grid.size)


def path_loss_samples(
    scenario: Scenario,
    variable: str,
    sample_grid: Sequence[float],
    method: str,
    epsilon_deg: float = DEFAULT_EPSILON_DEG,
    gamma_deg: float | None = None,
) -> np.ndarray:
    """Path loss (dB) per sample, with shifts redesigned at every sample.

    ``sample_grid`` holds meters for the distance variables and degrees
    for the angle variables.
    """
    if variable not in FIT_VARIABLES:
        raise ValueError(f"variable must be one of {FIT_VARIABLES}, got {variable!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")

    def designed_power(value: float) -> float:
        state = link_state(_placed(scenario, variable, value))
        return design(state, method, epsilon_deg, gamma_deg).received_power_dbm

    return np.array([scenario.radio.tx_power_dbm - designed_power(v) for v in sample_grid])


def pl_slope_fit(
    scenario: Scenario,
    variable: str,
    sample_grid: Sequence[float],
    method: str,
    epsilon_deg: float = DEFAULT_EPSILON_DEG,
    gamma_deg: float | None = None,
) -> SlopeFit:
    """Ordinary least squares of PL (dB) against 10*log10(variable).

    The slope is the path-loss exponent: +2 for the far-field distance
    law, -1 for the continuous-space cosine law.
    """
    grid = np.asarray(sample_grid, dtype=float)
    if grid.size < 3:
        raise ValueError(f"slope fit needs at least 3 samples, got {grid.size}")
    if variable in ("log10_d1", "log10_d2"):
        var = grid
    else:
        var = np.cos(np.radians(grid))
    if np.any(var <= 0.0):
        raise ValueError(f"variable {variable} must be positive over the grid")

    x = 10.0 * np.log10(var)
    if np.ptp(x) == 0.0:
        raise ValueError("singular design matrix: variable is constant over the grid")
    y = path_loss_samples(scenario, variable, grid, method, epsilon_deg, gamma_deg)

    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(residuals**2)) / ss_tot
    return SlopeFit(
        variable=variable,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
    )
