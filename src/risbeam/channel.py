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

from .geometry import TWO_PI, Placement, RisPanel, antenna_points, cell_center_axes, cell_paths
from .radiation import RadioConfig, cosine_pattern
from .scenario import Scenario

# Point-cells per field_at_rx_points chunk: 64 Rx points on a 512-cell panel.
# The five workspace buffers of a chunk then take 1.25 MB and stay in L2.
_CHUNK_POINT_CELLS = 1 << 15

# Two-constant (Cody-Waite) split of TWO_PI: C1 keeps its top 26 significant
# bits and C2 = TWO_PI - C1 the remaining 27 or fewer, so for an integer
# q <= 2^26 both q*C1 and q*C2 are exact.  Below _MOD_X_LIMIT the quotient
# floor(x / TWO_PI) is at most 2^26.
_MOD_C1 = math.ldexp(math.floor(math.ldexp(TWO_PI, 23)), -23)
_MOD_C2 = TWO_PI - _MOD_C1
_MOD_X_LIMIT = 2.0**26 * TWO_PI


def _shift_values(shifts) -> np.ndarray:
    """Radian matrix from a ShiftMatrix or a bare array."""
    values = getattr(shifts, "values", shifts)
    return np.asarray(values, dtype=float)


def _mod_two_pi(x: np.ndarray, out: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.mod(x, TWO_PI) bit for bit, for finite x >= 0, written into ``out``.

    With q = floor(x / TWO_PI), r = (x - q*C1) - q*C2.  While q is the true
    quotient and x < 2^26 * TWO_PI, every step is exact, so r is the exact
    remainder that np.mod returns; a quotient off by one puts r outside
    [0, TWO_PI).  The rare elements that fail either test go through
    np.mod.  ``q`` is scratch of x's shape.
    """
    np.divide(x, TWO_PI, out=q)
    np.floor(q, out=q)
    np.multiply(q, _MOD_C1, out=out)
    np.subtract(x, out, out=out)
    q *= _MOD_C2
    out -= q
    if out.size and (x.max() >= _MOD_X_LIMIT or out.min() < 0.0 or out.max() >= TWO_PI):
        inexact = (x >= _MOD_X_LIMIT) | (out < 0.0) | (out >= TWO_PI)
        out[inexact] = np.mod(x[inexact], TWO_PI)
    return out


def _phasor_sum(
    amplitude: np.ndarray,
    phase: np.ndarray,
    shift: np.ndarray,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """|sum of amplitude * exp(j*(shift - phase))| along the last (cell) axis.

    Exact half-angle form with t = tan((shift - phase)/2): cos = (1 - t^2)/(1 + t^2)
    and sin = 2t/(1 + t^2).  numpy vectorizes tan but runs sin, cos and
    complex exp through scalar libm.  A zero residual gives t = 0 exactly.
    ``scratch`` is three arrays of amplitude's shape for the temporaries.
    """
    if scratch is None:
        scratch = np.empty((3,) + np.broadcast_shapes(np.shape(amplitude), np.shape(phase)))
    t, t2, weight = scratch
    np.subtract(shift, phase, out=t)
    t *= 0.5
    np.tan(t, out=t)
    np.multiply(t, t, out=t2)
    np.add(t2, 1.0, out=weight)
    np.divide(amplitude, weight, out=weight)
    np.subtract(1.0, t2, out=t2)
    t2 *= weight
    t *= 2.0
    t *= weight
    return np.hypot(np.sum(t2, axis=-1), np.sum(t, axis=-1), out=out)


def _phasor_chunks(scenario: Scenario, rx_points: np.ndarray, workspace: np.ndarray):
    """The forward model: per-cell phasor amplitude and path phase at Rx points.

    ``rx_points`` is a (P, 3) array of Rx positions; the Rx antenna's
    boresight is aimed at the surface center from each point.
    ``workspace`` is a (k >= 4, size, M*N) array; the model evaluates
    ``size`` points at a time in views of it and yields, per chunk, the row
    slice of the points and two (chunk, M*N) arrays over the row-major
    cells: sqrt(F_combine) / (r_t * r_r) and mod(2*pi/lambda * (r_t + r_r),
    2*pi).  F_combine is the product of the Tx pattern, the cell's
    reception and emission patterns, and the Rx pattern; the Tx leg is
    computed once.  The next chunk overwrites the yielded arrays;
    ``workspace[0]``, ``workspace[1]`` and any buffers past the fourth are
    free for the consumer in between.
    """
    panel, placement, radio = scenario.panel, scenario.placement, scenario.radio
    axes = cell_center_axes(panel)
    tx = antenna_points(placement.d1, placement.theta_t, placement.phi_t)
    r_t, cos_t_cell, cos_tx = cell_paths(axes, tx, np.array([[placement.d1]]))[:, 0]
    tx_gain = cosine_pattern(cos_tx, radio.alpha_tx) * cosine_pattern(
        cos_t_cell, radio.cell_alpha
    )
    wavenumber = TWO_PI / radio.wavelength
    size = workspace.shape[1]
    for lo in range(0, max(rx_points.shape[0], 1), size):  # P = 0: one empty chunk
        points = rx_points[lo : lo + size]
        ranges = np.sqrt(np.sum(points**2, axis=1, keepdims=True))
        buffers = workspace[:4, : points.shape[0]]
        r_r, cos_r_cell, cos_rx, amplitude = buffers
        cell_paths(axes, points, ranges, out=buffers[:3])
        cosine_pattern(cos_r_cell, radio.cell_alpha, out=amplitude)
        np.multiply(tx_gain, amplitude, out=amplitude)
        amplitude *= cosine_pattern(cos_rx, radio.alpha_rx, out=cos_r_cell)
        np.sqrt(amplitude, out=amplitude)
        amplitude /= np.multiply(r_t, r_r, out=cos_r_cell)
        np.add(r_t, r_r, out=r_r)
        np.multiply(wavenumber, r_r, out=r_r)
        phase = _mod_two_pi(r_r, out=cos_rx, q=cos_r_cell)
        yield slice(lo, lo + points.shape[0]), amplitude, phase


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
    placement, panel = scenario.placement, scenario.panel
    rx = antenna_points(placement.d2, placement.theta_r, placement.phi_r)
    workspace = np.empty((4, 1, panel.num_cells))
    _, amplitude, phase = next(_phasor_chunks(scenario, rx, workspace))
    shape = (panel.rows, panel.cols)
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


def field_at_rx_points(scenario: Scenario, shifts, rx_points: np.ndarray) -> np.ndarray:
    """Field magnitudes at many Rx positions with the shifts held fixed.

    ``rx_points`` is a (P, 3) array of Cartesian Rx positions, evaluated
    through the forward model in chunks of about 2^15 point-cells.  One
    workspace of five chunk-sized buffers is allocated per call and every
    chunk, the last and partial one included, is evaluated in views of it.
    Used by angle scans and spatial power maps, where the design is frozen
    while Rx moves.
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
    size = max(1, min(points.shape[0], _CHUNK_POINT_CELLS // shift.size))
    workspace = np.empty((5, size, shift.size))
    xi = np.empty(points.shape[0])
    for rows, amplitude, phase in _phasor_chunks(scenario, points, workspace):
        count = amplitude.shape[0]
        scratch = (workspace[0, :count], workspace[1, :count], workspace[4, :count])
        _phasor_sum(amplitude, phase, shift, out=xi[rows], scratch=scratch)
    return xi
