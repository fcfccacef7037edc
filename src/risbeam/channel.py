"""The forward model, field superposition, and received power.

Each cell contributes a phasor

    sqrt(F_combine) / (r_t * r_r) * exp(-j * (2*pi*(r_t + r_r)/lambda - shift))

to the field at the Rx; the magnitude of the sum is xi.  Received power is

    P_r = P_t * G_t * G_r * (d_x * d_y)^2 * A^2 * xi^2 / (16 * pi^2),

and path loss is defined as P_t / P_r.  The ideal continuous shift of a
cell cancels its path phase exactly, so configuring the continuous phase
matrix attains the triangle-inequality upper bound on xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    Placement,
    RisPanel,
    cell_paths,
    rx_position,
    tx_position,
)
from .radiation import RadioConfig, cosine_pattern
from .scenario import Scenario


@dataclass
class PhaseMatrix:
    """Continuous per-cell phase shifts, each entry in [0, 2*pi)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0.0) or np.any(self.values >= TWO_PI):
            raise ValueError("phase entries must lie in [0, 2*pi)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class FieldResult:
    """Field magnitude with the link-budget figures derived from it."""

    xi: float
    received_power_dbm: float
    path_loss_db: float


def _shift_values(shifts) -> np.ndarray:
    """Radian matrix from a PhaseMatrix, a ShiftMatrix, or a bare array."""
    values = getattr(shifts, "values", shifts)
    return np.asarray(values, dtype=float)


def _phasor_sum(amplitude: np.ndarray, phase: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """|sum of amplitude * exp(j*(shift - phase))| along the last (cell) axis."""
    return np.abs(np.sum(amplitude * np.exp(1j * (shift - phase)), axis=-1))


def cell_phasors(scenario: Scenario, rx_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward model: per-cell phasor amplitude and path phase at Rx points.

    ``rx_points`` is a (P, 3) array of Rx positions; the Rx antenna's
    boresight is aimed at the surface center from each point.  Returns two
    (P, M*N) arrays over the row-major cells: sqrt(F_combine) / (r_t * r_r)
    and mod(2*pi/lambda * (r_t + r_r), 2*pi).  F_combine is the product of
    the Tx pattern, the cell's reception and emission patterns, and the Rx
    pattern.
    """
    panel, placement, radio = scenario.panel, scenario.placement, scenario.radio
    tx = tx_position(placement).as_array()[None, :]
    r_t, cos_t_cell, cos_tx = cell_paths(panel, tx, np.array([[placement.d1]]))
    ranges = np.sqrt(np.sum(rx_points**2, axis=1, keepdims=True))
    r_r, cos_r_cell, cos_rx = cell_paths(panel, rx_points, ranges)
    combined = (
        cosine_pattern(cos_tx, radio.alpha_tx)
        * cosine_pattern(cos_t_cell, radio.cell_alpha)
        * cosine_pattern(cos_r_cell, radio.cell_alpha)
        * cosine_pattern(cos_rx, radio.alpha_rx)
    )
    amplitude = np.sqrt(combined) / (r_t * r_r)
    phase = np.mod(TWO_PI / radio.wavelength * (r_t + r_r), TWO_PI)
    return amplitude, phase


@dataclass(frozen=True)
class LinkState:
    """Precomputed per-cell quantities of one scenario.

    ``amplitude`` and ``phase`` are what the searches and sweeps consume:
    the phasor magnitudes and the ideal continuous shifts (equal to the
    per-cell path phases mod 2*pi).
    """

    scenario: Scenario
    amplitude: np.ndarray
    phase: np.ndarray

    @property
    def phase_matrix(self) -> PhaseMatrix:
        return PhaseMatrix(self.phase)

    @property
    def xi_upper_bound(self) -> float:
        """xi attained by the continuous shifts (sum of magnitudes)."""
        return float(np.sum(self.amplitude))

    def xi(self, shifts) -> float:
        """Field magnitude under the given shifts, row-major accumulation."""
        shift = _shift_values(shifts)
        if shift.shape != self.amplitude.shape:
            raise ValueError(
                f"shift shape {shift.shape} != panel shape {self.amplitude.shape}"
            )
        return float(_phasor_sum(self.amplitude.ravel(), self.phase.ravel(), shift.ravel()))


def link_state(scenario: Scenario) -> LinkState:
    """Build the per-cell amplitude/phase state of a scenario: the forward
    model at the placement's own Rx position."""
    rx = rx_position(scenario.placement).as_array()[None, :]
    amplitude, phase = cell_phasors(scenario, rx)
    shape = (scenario.panel.rows, scenario.panel.cols)
    return LinkState(scenario, amplitude.reshape(shape), phase.reshape(shape))


def power_dbm_from_xi(panel: RisPanel, radio: RadioConfig, xi):
    """Received power (dBm) for a field magnitude; -inf when xi is 0."""
    scale = (
        radio.gain_tx_linear
        * radio.gain_rx_linear
        * (panel.d_x * panel.d_y) ** 2
        * panel.reflection**2
        / (16.0 * math.pi**2)
    )
    xi_arr = np.asarray(xi, dtype=float)
    with np.errstate(divide="ignore"):
        power = radio.tx_power_dbm + 10.0 * np.log10(scale * xi_arr**2)
    if np.ndim(xi) == 0:
        return float(power)
    return power


def field_result(scenario: Scenario, shifts) -> FieldResult:
    """xi, received power, and path loss of a scenario under given shifts."""
    state = link_state(scenario)
    xi = state.xi(shifts)
    power = power_dbm_from_xi(scenario.panel, scenario.radio, xi)
    return FieldResult(
        xi=xi,
        received_power_dbm=power,
        path_loss_db=scenario.radio.tx_power_dbm - power,
    )


def received_power_dbm(scenario: Scenario, shifts) -> float:
    """Received power (dBm) under the given shifts; -inf when the field cancels."""
    return field_result(scenario, shifts).received_power_dbm


def far_field_pl_db(panel: RisPanel, placement: Placement, radio: RadioConfig) -> float:
    """Closed-form far-field path loss (dB) under continuous phase alignment.

    PL = 16*pi^2 * (d1*d2)^2 /
         (G_t * G_r * (M*N*d_x*d_y)^2 * cos(theta_t) * cos(theta_r) * A^2)
    """
    cos_t = math.cos(placement.theta_t)
    cos_r = math.cos(placement.theta_r)
    if cos_t <= 0.0 or cos_r <= 0.0:
        raise ValueError("far-field path loss requires theta_t, theta_r < pi/2")
    pl = (
        16.0
        * math.pi**2
        * (placement.d1 * placement.d2) ** 2
        / (
            radio.gain_tx_linear
            * radio.gain_rx_linear
            * (panel.num_cells * panel.d_x * panel.d_y) ** 2
            * cos_t
            * cos_r
            * panel.reflection**2
        )
    )
    return 10.0 * math.log10(pl)


def field_at_rx_points(
    scenario: Scenario, shifts, rx_points: np.ndarray, chunk: int = 2048
) -> np.ndarray:
    """Field magnitudes at many Rx positions with the shifts held fixed.

    ``rx_points`` is a (P, 3) array of Cartesian Rx positions, evaluated
    through the forward model ``chunk`` points at a time.  Used by
    angle scans and spatial power maps, where the design is frozen while
    Rx moves.
    """
    points = np.asarray(rx_points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"rx_points must have shape (P, 3), got {points.shape}")
    panel = scenario.panel
    shift = _shift_values(shifts)
    if shift.shape != (panel.rows, panel.cols):
        raise ValueError(
            f"shift shape {shift.shape} != panel shape {(panel.rows, panel.cols)}"
        )
    shift = shift.ravel()
    xi = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        amplitude, phase = cell_phasors(scenario, points[lo : lo + chunk])
        xi[lo : lo + chunk] = _phasor_sum(amplitude, phase, shift)
    return xi
