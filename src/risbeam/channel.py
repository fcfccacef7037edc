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
# the CPU and 0.88x the wall time of 2**15 over 12 alternating runs.  So a
# chunk of two or more points spans at most 2**15 cells, and each of its
# geometry._outer_sum products takes at most 2**16 multiply-adds, below the
# 2**18 from which OpenBLAS splits one product over threads of its own, which
# would run beside field_at_rx_points' two and spin.
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


def _leg(axes, points: np.ndarray, alpha: float, cell_alpha: float, out: np.ndarray):
    """One antenna leg of the forward model, from the antennas at ``points``
    (a (P, 3) array) to every cell: the path lengths r and the log one-way
    amplitude ln(sqrt(F * F_cell) / r) over the row-major cells, formed in
    ``out``, a (3, P, M*N) array.  F is the pattern of exponent ``alpha`` of
    an antenna aimed at the surface center, F_cell the cell's of exponent
    ``cell_alpha``.  With c the cell center, r = |p - c|, cos = p_z / r at
    the cell and p . (p - c) / (r * |p|) at the antenna, the log is

        cell_alpha/2 * ln p_z - alpha/2 * ln|p|     (per point)
        + alpha/2 * ln(p . (p - c))                 (per point and cell)
        - (cell_alpha/2 + alpha/2 + 1) * ln r.

    ln 0 = -inf, so a cell in either pattern's cutoff gets -inf; a point
    with p_z <= 0 gets -inf at every cell.  Cosines that round above 1 are
    not clamped: they move the amplitude by a few ulps times the exponent.
    """
    half_cell, half = cell_alpha / 2.0, alpha / 2.0
    z = points[:, 2:]
    ranges = np.sqrt(np.sum(points**2, axis=1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        # p_z > 0 keeps |p| > 0, so only a point behind the surface takes -inf
        point_term = np.where(z > 0.0, half_cell * np.log(z) - half * np.log(ranges), -np.inf)
    r, boresight, log_amplitude = out
    cell_paths(axes, points, out=out[:2])
    with np.errstate(divide="ignore"):
        if half:
            # fmax maps NaN to 0, so the cutoff and NaN both take ln 0
            np.fmax(boresight, 0.0, out=boresight)
            np.log(boresight, out=boresight)
            boresight *= half
        else:  # the flat pattern: ln 1 in front of the antenna, ln 0 behind
            np.log(np.greater(boresight, 0.0, out=boresight), out=boresight)
        np.log(r, out=log_amplitude)
    log_amplitude *= -(half_cell + half + 1.0)
    log_amplitude += boresight
    log_amplitude += point_term
    return r, log_amplitude


def _tx_leg(scenario: Scenario):
    """The Rx-independent half of the forward model: the cell-center axes,
    and ``_leg``'s path lengths r_t and log amplitudes at the Tx over the
    row-major cells."""
    panel, placement, radio = scenario.panel, scenario.placement, scenario.radio
    axes = cell_center_axes(panel)
    tx = antenna_points(placement.d1_m, placement.theta_t_deg, placement.phi_t_deg)
    r_t, tx_term = _leg(axes, tx, radio.alpha_tx, radio.cell_alpha,
                        np.empty((3, 1, panel.num_cells)))
    return axes, r_t[0], tx_term[0]


def _phasors(scenario: Scenario, tx_leg, points: np.ndarray, buffers: np.ndarray):
    """The forward model: per-cell phasor amplitude and path phase at Rx points.

    ``tx_leg`` is ``_tx_leg(scenario)``, which the model only reads, so
    one Tx leg serves any number of concurrent calls.  ``points`` is a
    (P, 3) array of Rx positions.  The model computes in ``buffers``, a
    (4, P, M*N) array, and returns two of them over the row-major cells:
    the amplitude sqrt(F_combine) / (r_t * r_r) and the path phase
    2*pi * frac((r_t + r_r) / lambda), in [0, 2*pi) since 2*pi * f rounds
    below 2*pi for every f < 1.  F_combine is the product of the Tx
    pattern, the cell's reception and emission patterns, and the Rx
    pattern.  ``buffers[0]`` and ``buffers[1]`` are free for the caller
    afterwards.

    The amplitude is one exp of the sum of the two legs' logs (``_leg``),
    the Tx leg's with alpha_tx and the Rx leg's with alpha_rx.  Both legs
    are one function and the sum commutes, so swapping the Tx and the Rx
    with their gains gives the same bits.  exp(-inf) = 0 keeps a cell in
    any pattern's cutoff at exactly 0.

    On the domain of ``scenario.RANGES`` every range |p| lies in [1e-3, 1e7] m,
    and every height p_z and path length r in [2.8e-19, 1.6e7] m (1 mm times
    the cosine of the largest elevation below pi/2, up to d plus the
    half-diagonal of 2**20 cells of 10 m); the half exponents are at most 50
    and 2499.5.  A leg's log is at most -ln r <= 45 (no pattern exceeds 1),
    so at a normal amplitude each is at least -754; its ln(p . (p - c)) term,
    at most 2499.5 * ln(|p| r) < 1.6e5, is then at least -754 minus the other
    three, which stay below 50 * 45 + 2499.5 * 16.2 + 2550.5 * 45 < 1.6e5 in
    magnitude.  The eight terms thus sum below 2**20 in magnitude, and their
    roundings (at most 14 ulps of that sum, with numpy's log and exp within
    4 ulps) move the amplitude by a relative 14 * 2**-53 * 2**20 < 2**-29.
    """
    radio = scenario.radio
    axes, r_t, tx_term = tx_leg
    r_r, amplitude = _leg(axes, points, radio.alpha_rx, radio.cell_alpha, buffers[:3])
    amplitude += tx_term
    np.exp(amplitude, out=amplitude)
    phase = buffers[3]
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
    rx = antenna_points(placement.d2_m, placement.theta_r_deg, placement.phi_r_deg)
    buffers = np.empty((4, 1, panel.num_cells))
    amplitude, phase = _phasors(scenario, _tx_leg(scenario), rx, buffers)
    shape = (panel.rows, panel.cols)
    return LinkState(scenario, amplitude.reshape(shape), phase.reshape(shape))


def power_dbm_from_xi(panel: RisPanel, radio: RadioConfig, xi):
    """Received power (dBm) for a field magnitude; -inf when xi is 0.

    Every factor of the link budget is summed in dB, so that no product
    underflows: a reflection of 1e-300 and xi = 1e-178 keep a finite power.
    """
    budget = (radio.tx_power_dbm + radio.gain_tx_dbi + radio.gain_rx_dbi
              + 20.0 * sum(map(math.log10, (panel.cell_dx_m, panel.cell_dy_m, panel.reflection)))
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
    through the forward model in chunks of at most max(2^16, MN) point-cells
    (one point over the whole panel above 2^16 cells; see ROADMAP's "Cell
    tiles"), with the Tx leg computed once per call.  When two CPUs are
    usable and each half of the points holds at least two full chunks, a
    second thread evaluates the second half while the caller's thread
    evaluates the first, in parallel since numpy's kernels release the GIL,
    both under the caller's ``np.geterr()`` and each in its own workspace of
    five chunk-sized buffers.  A point's value depends on neither its chunk
    nor its half, so the bytes are the same on one thread or two; an
    exception in the second half is re-raised here.  Used by angle scans and
    spatial power maps, where the design is frozen while Rx moves.
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
