"""Shared helpers: seeded random scenarios for property tests, a
brute-force threshold scan, and an independent reference of the README
model for the acceptance checks."""

import math

import numpy as np

from risbeam import (
    Placement,
    RadioConfig,
    RisPanel,
    Scenario,
    link_state,
    quantize_matrix,
)
from risbeam.geometry import antenna_points, cell_center_axes, cell_paths
from risbeam.quantization import TIE_REL_TOL

TWO_PI = 2.0 * math.pi


def uniform_levels(bits: int, first_level: float) -> tuple[float, ...]:
    omega = TWO_PI / 2**bits
    return tuple((first_level + k * omega) % TWO_PI for k in range(2**bits))


def random_scenario(rng: np.random.Generator, rows: int, cols: int, bits: int) -> Scenario:
    """Random but valid link: near-field-capable distances, sub-cutoff angles."""
    wavelength = rng.uniform(0.01, 0.3)
    panel = RisPanel(
        rows=rows,
        cols=cols,
        d_x=wavelength * rng.uniform(0.3, 0.7),
        d_y=wavelength * rng.uniform(0.3, 0.7),
        bits=bits,
        levels=uniform_levels(bits, rng.uniform(0.0, TWO_PI / 2**bits)),
        reflection=rng.uniform(0.5, 1.0),
    )
    placement = Placement(
        d1=rng.uniform(0.5, 50.0),
        d2=rng.uniform(0.5, 50.0),
        theta_t=rng.uniform(0.0, math.radians(80.0)),
        phi_t=rng.uniform(0.0, TWO_PI),
        theta_r=rng.uniform(0.0, math.radians(80.0)),
        phi_r=rng.uniform(0.0, TWO_PI),
    )
    radio = RadioConfig(
        wavelength=wavelength,
        tx_power_dbm=rng.uniform(-10.0, 30.0),
        gain_tx_dbi=rng.uniform(3.1, 20.0),
        gain_rx_dbi=rng.uniform(3.1, 20.0),
        cell_alpha=1.0,
    )
    return Scenario(panel=panel, placement=placement, radio=radio)


def brute_force_search(state, gammas):
    """The O(candidates x cells) scan the threshold searches must reproduce.

    Quantizes at every candidate with ``quantize_matrix``, scores it with
    ``LinkState.xi``, and keeps the smallest candidate whose xi is within
    TIE_REL_TOL of the best.  Returns (threshold, level indices, xi).
    """
    panel = state.scenario.panel
    gammas = np.asarray(gammas, dtype=float)
    xis = np.array(
        [state.xi(quantize_matrix(state.phase, float(g), panel)) for g in gammas]
    )
    gamma = float(np.min(gammas[xis >= np.max(xis) * (1.0 - TIE_REL_TOL)]))
    shifts = quantize_matrix(state.phase, gamma, panel)
    return gamma, shifts.level_indices, state.xi(shifts)


def combined_pattern(scenario: Scenario) -> np.ndarray:
    """Per-cell F_combine recovered from the link amplitudes: (amplitude * r_t * r_r)**2."""
    r_t, r_r = path_lengths(scenario.panel, scenario.placement)
    return (link_state(scenario).amplitude * r_t * r_r) ** 2


def path_lengths(panel, placement):
    """M x N distances from the Tx and from the Rx to every cell center."""
    d = np.array([placement.d1, placement.d2])
    theta = np.array([placement.theta_t, placement.theta_r])
    phi = np.array([placement.phi_t, placement.phi_r])
    r_t, r_r = cell_paths(cell_center_axes(panel), antenna_points(d, theta, phi), d[:, None])[0]
    return r_t.reshape(panel.rows, panel.cols), r_r.reshape(panel.rows, panel.cols)


def reference_powers(scenario: Scenario, d2_values, thresholds=None):
    """Independent oracle: the README model written out again with numpy alone.

    Reads only the scenario's fields; no risbeam geometry, channel or
    quantization code runs.  The Rx stays on the placement's direction at
    each distance in ``d2_values``.  Returns the continuous-design power
    (dBm), shape (D,), and the power at each threshold (rad) in
    ``thresholds``, shape (D, T).  By default a row's thresholds are its
    M*N continuous phases, which between them give every value any
    threshold can give, so the row's max is dtpq and its min the worst
    fixed threshold.
    """
    panel, pl, radio = scenario.panel, scenario.placement, scenario.radio
    x = (panel.cols + 1 - 2.0 * np.arange(1, panel.cols + 1)) * panel.d_x / 2.0
    y = (panel.rows + 1 - 2.0 * np.arange(1, panel.rows + 1)) * panel.d_y / 2.0
    cells = np.stack([*np.meshgrid(x, y), np.zeros((panel.rows, panel.cols))], -1).reshape(-1, 3)

    def leg(d, theta, phi, gain_dbi):
        """Path length and F_antenna * F_cell of every cell for one antenna."""
        pos = d * np.array([math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi), math.cos(theta)])
        r = np.linalg.norm(pos - cells, axis=1)
        cos_cell, cos_antenna = pos[2] / r, (pos @ (pos - cells).T) / (d * r)
        alpha = 10.0 ** (gain_dbi / 10.0) / 2.0 - 1.0  # G = 2 (alpha + 1)
        return r, (cos_antenna > 0) * np.maximum(cos_antenna, 0.0) ** alpha * (
            (cos_cell > 0) * np.maximum(cos_cell, 0.0) ** radio.cell_alpha)

    omega, levels = TWO_PI / 2**panel.bits, np.asarray(panel.levels)
    scale = (10.0 ** ((radio.gain_tx_dbi + radio.gain_rx_dbi) / 10.0)
             * (panel.d_x * panel.d_y * panel.reflection) ** 2 / (16.0 * math.pi**2))
    r_t, f_t = leg(pl.d1, pl.theta_t, pl.phi_t, radio.gain_tx_dbi)
    continuous, quantized = [], []
    for d2 in d2_values:
        r_r, f_r = leg(d2, pl.theta_r, pl.phi_r, radio.gain_rx_dbi)
        amplitude = np.sqrt(f_t * f_r) / (r_t * r_r)
        phase = np.mod(TWO_PI * (r_t + r_r) / radio.wavelength, TWO_PI)
        gammas = phase if thresholds is None else np.asarray(thresholds, dtype=float)
        bins = np.floor(np.mod(phase - gammas[:, None], TWO_PI) / omega).astype(int)
        shift = levels[bins % levels.size]
        continuous.append(np.sum(amplitude))
        quantized.append(np.abs(np.sum(amplitude * np.exp(1j * (shift - phase)), axis=1)))
    offset_db = radio.tx_power_dbm + 10.0 * math.log10(scale)
    return offset_db + 20.0 * np.log10(continuous), offset_db + 20.0 * np.log10(quantized)
