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
import os
from dataclasses import dataclass

import numpy as np

from .geometry import antenna_points, cell_center_axes, cell_paths
from .scenario import TWO_PI, RadioConfig, RisPanel, Scenario

# Point-cells per field_at_rx_points chunk: 128 Rx points on a 512-cell panel,
# in five workspace buffers of 2.5 MB per thread.  On the default 181x181 map
# on two threads (2-core x86_64, 2 MB L2 per core), 2**16 took a median 0.92x
# the CPU and 0.88x the wall time of 2**15 over 12 alternating runs.
_CHUNK_POINT_CELLS = 1 << 16


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
    t *= weight
    # 2 * sum(t) rather than sum(2 * t): scaling by 2 commutes with rounding
    imag = np.sum(t, axis=-1)
    imag *= 2.0
    return np.hypot(np.sum(t2, axis=-1), imag, out=out)


def cosine_pattern(cos_theta, alpha: float) -> np.ndarray:
    """Normalized cosine-power pattern value(s), given cos(theta).

    F(theta, phi) = cos(theta)**alpha for theta in [0, pi/2) and 0 for
    theta in [pi/2, pi], whatever the azimuth; its directive gain is
    G = 2 * (alpha + 1) (``scenario.alpha_from_gain_dbi`` inverts it).
    Cosines above 1 (rounding) count as 1.  Returns 1 at cos(theta) = 1,
    and exactly +0 in the cutoff region cos(theta) <= 0 and for NaN.
    ``cos_theta`` itself is never modified.
    """
    if alpha < 0.0:
        raise ValueError(f"pattern exponent must be >= 0, got {alpha}")
    cos_theta = np.asarray(cos_theta, dtype=float)
    out = np.empty_like(cos_theta)
    if alpha == 0.0:
        # pow(x, 0) is 1 wherever x > 0, and the cutoff must stay 0
        return np.greater(cos_theta, 0.0, out=out)
    # fmax maps NaN to 0, unlike clip; + 0.0 turns its -0 into +0
    np.fmax(cos_theta, 0.0, out=out)
    np.fmin(out, 1.0, out=out)
    out += 0.0
    if alpha != 1.0:  # pow(x, 1) = x
        np.power(out, alpha, out=out)
    return out


def _tx_leg(scenario: Scenario):
    """The Rx-independent half of the forward model: the cell-center axes,
    the Tx-to-cell path lengths r_t over the row-major cells, and each
    cell's Tx log term 1/2 * ln(F_tx * F_cell,t) - ln r_t, where F_tx is
    the Tx pattern and F_cell,t the cell's reception pattern; the term is
    -inf for a cell in either pattern's cutoff."""
    panel, placement, radio = scenario.panel, scenario.placement, scenario.radio
    axes = cell_center_axes(panel)
    tx = antenna_points(placement.d1, placement.theta_t, placement.phi_t)
    r_t, boresight = cell_paths(axes, tx)[:, 0]
    tx_gain = cosine_pattern(boresight / (r_t * placement.d1), radio.alpha_tx) * cosine_pattern(
        tx[0, 2] / r_t, radio.cell_alpha
    )
    with np.errstate(divide="ignore"):
        return axes, r_t, 0.5 * np.log(tx_gain) - np.log(r_t)


def _phasors(scenario: Scenario, tx_leg, points: np.ndarray, buffers: np.ndarray):
    """The forward model: per-cell phasor amplitude and path phase at Rx points.

    ``tx_leg`` is ``_tx_leg(scenario)``, which the model only reads, so
    one Tx leg serves any number of concurrent calls.  ``points`` is a
    (P, 3) array of Rx positions p; the Rx antenna's boresight is aimed at
    the surface center from each point.  The model computes in
    ``buffers``, a (4, P, M*N) array, and returns two of them over the
    row-major cells: the amplitude sqrt(F_combine) / (r_t * r_r) and the
    path phase 2*pi * frac((r_t + r_r) / lambda), in [0, 2*pi) since
    2*pi * f rounds below 2*pi for every f < 1.  F_combine is the product
    of the Tx pattern, the cell's reception and emission patterns, and the
    Rx pattern.  ``buffers[0]`` and ``buffers[1]`` are free for the caller
    afterwards.

    The amplitude is one exp of a sum of logs.  With c the cell center,
    r = r_r = |p - c|, cos = p_z / r at the cell and
    p . (p - c) / (r * |p|) at the Rx antenna, the Rx half
    sqrt(F_cell,r * F_rx) / r has the log

        a_cell/2 * ln p_z - a_rx/2 * ln|p|          (per point)
        + a_rx/2 * ln(p . (p - c))                  (per point and cell)
        - (a_cell/2 + a_rx/2 + 1) * ln r,

    to which the Tx leg adds its per-cell term.  ln 0 = -inf, so a cell in
    any pattern's cutoff gets exactly exp(-inf) = 0; a point with p_z <= 0
    is dark at every cell.  Cosines that round above 1 are not clamped:
    they move the amplitude by a few ulps times the exponent.  The sum's
    own rounding moves the amplitude by a relative 2**-18 at most, as every
    exponent is at most ``scenario.EXPONENT_LIMIT``.
    """
    radio = scenario.radio
    axes, r_t, tx_term = tx_leg
    half_cell, half_rx = radio.cell_alpha / 2.0, radio.alpha_rx / 2.0
    z = points[:, 2:]
    ranges = np.sqrt(np.sum(points**2, axis=1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        # p_z > 0 keeps |p| > 0, so only a point behind the surface takes -inf
        point_term = np.where(z > 0.0, half_cell * np.log(z) - half_rx * np.log(ranges), -np.inf)
    r_r, boresight, phase, amplitude = buffers
    cell_paths(axes, points, out=buffers[:2])
    with np.errstate(divide="ignore"):
        if half_rx:
            # fmax maps NaN to 0, so the cutoff and NaN both take ln 0
            np.fmax(boresight, 0.0, out=boresight)
            np.log(boresight, out=boresight)
            boresight *= half_rx
        else:  # the flat pattern: ln 1 in front of the Rx antenna, ln 0 behind
            np.log(np.greater(boresight, 0.0, out=boresight), out=boresight)
        np.log(r_r, out=amplitude)
    amplitude *= -(half_cell + half_rx + 1.0)
    amplitude += boresight
    amplitude += point_term
    amplitude += tx_term
    np.exp(amplitude, out=amplitude)
    np.add(r_t, r_r, out=r_r)
    r_r /= radio.wavelength
    np.floor(r_r, out=phase)
    np.subtract(r_r, phase, out=phase)
    phase *= TWO_PI
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
    def xi_upper_bound(self) -> float:
        """xi attained by the continuous shifts (sum of magnitudes)."""
        return float(np.sum(self.amplitude))

    def xi(self, shifts: np.ndarray) -> float:
        """Field magnitude under the given shifts (rad), row-major accumulation."""
        if shifts.shape != self.amplitude.shape:
            raise ValueError(
                f"shift shape {shifts.shape} != panel shape {self.amplitude.shape}"
            )
        return float(_phasor_sum(self.amplitude.ravel(), self.phase.ravel(), shifts.ravel()))


def link_state(scenario: Scenario) -> LinkState:
    """Build the per-cell amplitude/phase state of a scenario: the forward
    model at the placement's own Rx position."""
    placement, panel = scenario.placement, scenario.panel
    rx = antenna_points(placement.d2, placement.theta_r, placement.phi_r)
    buffers = np.empty((4, 1, panel.num_cells))
    amplitude, phase = _phasors(scenario, _tx_leg(scenario), rx, buffers)
    shape = (panel.rows, panel.cols)
    return LinkState(scenario, amplitude.reshape(shape), phase.reshape(shape))


def power_dbm_from_xi(panel: RisPanel, radio: RadioConfig, xi):
    """Received power (dBm) for a field magnitude; -inf when xi is 0.

    Every factor of the link budget is summed in dB, so that no product
    underflows: cells of 1e-300 m and xi = 1e-178 keep a finite power.
    """
    budget = (radio.tx_power_dbm + radio.gain_tx_dbi + radio.gain_rx_dbi
              + 20.0 * sum(map(math.log10, (panel.d_x, panel.d_y, panel.reflection)))
              - 20.0 * math.log10(4.0 * math.pi))
    with np.errstate(divide="ignore"):
        power = budget + 20.0 * np.log10(np.asarray(xi, dtype=float))
    return float(power) if np.ndim(xi) == 0 else power


def _two_cpus() -> bool:
    """Whether at least two CPUs are usable: the affinity mask, else the
    machine's count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _field_block(scenario, tx_leg, shift, points, size, out, errors) -> None:
    """Field magnitudes at ``points`` into ``out``, ``size`` points per chunk,
    in views of one workspace of five chunk-sized buffers, under the
    floating-point error handling ``errors`` (an ``np.geterr()`` dict)."""
    workspace = np.empty((5, size, shift.size))
    with np.errstate(**errors):
        for lo in range(0, points.shape[0], size):
            chunk = points[lo : lo + size]
            count = chunk.shape[0]
            amplitude, phase = _phasors(scenario, tx_leg, chunk, workspace[:4, :count])
            scratch = (workspace[0, :count], workspace[1, :count], workspace[4, :count])
            _phasor_sum(amplitude, phase, shift, out=out[lo : lo + count], scratch=scratch)


def field_at_rx_points(
    scenario: Scenario, shifts: np.ndarray, rx_points: np.ndarray
) -> np.ndarray:
    """Field magnitudes at many Rx positions with the shifts (rad) held fixed.

    ``rx_points`` is a (P, 3) array of Cartesian Rx positions, evaluated
    through the forward model in chunks of about 2^16 point-cells, with the
    Tx leg computed once per call.  When two CPUs are usable and each half
    of the points holds at least two full chunks, a second thread evaluates
    the second half while the caller's thread evaluates the first, in
    parallel since numpy's kernels release the GIL, both under the caller's
    ``np.geterr()`` and each in its own workspace of five chunk-sized
    buffers.  A point's value depends on neither its chunk nor its half, so
    the bytes are the same on one thread or two; an exception in the second
    half is re-raised here.  Used by angle scans and spatial power maps,
    where the design is frozen while Rx moves.
    """
    points = np.asarray(rx_points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"rx_points must have shape (P, 3), got {points.shape}")
    panel = scenario.panel
    if shifts.shape != (panel.rows, panel.cols):
        raise ValueError(
            f"shift shape {shifts.shape} != panel shape {(panel.rows, panel.cols)}"
        )
    shift = shifts.ravel()
    count = points.shape[0]
    size = max(1, min(count, _CHUNK_POINT_CELLS // shift.size))
    tx_leg = _tx_leg(scenario)
    xi = np.empty(count)
    errors = np.geterr()
    if count < 4 * size or not _two_cpus():
        _field_block(scenario, tx_leg, shift, points, size, xi, errors)
        return xi
    from concurrent.futures import ThreadPoolExecutor

    half = count // 2
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(_field_block, scenario, tx_leg, shift, points[half:], size,
                             xi[half:], errors)
        _field_block(scenario, tx_leg, shift, points[:half], size, xi[:half], errors)
        second.result()
    return xi
