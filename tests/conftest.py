"""Shared helpers: seeded random scenarios for property tests, a
brute-force threshold scan, the exhaustive optimum, the far-field closed
form, geometric and optimality oracles, and an independent reference of
the README model for the acceptance checks."""

import copy
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
from risbeam.scenario import SPEED_OF_LIGHT

TWO_PI = 2.0 * math.pi


def uniform_levels(bits: int, first_level_deg: float) -> tuple[float, ...]:
    step = 360.0 / 2**bits
    return tuple((first_level_deg + k * step) % 360.0 for k in range(2**bits))


def dof_law(omega: float, residues: int) -> float:
    """xi / xi_continuous, at any threshold, of a link whose phases mod Omega
    take ``residues`` values Omega/residues apart on equal total amplitudes."""
    return math.sin(omega / 2.0) / (residues * math.sin(omega / (2.0 * residues)))


def random_scenario(rng: np.random.Generator, rows: int, cols: int, bits: int) -> Scenario:
    """Random but valid link: near-field-capable distances, sub-cutoff angles."""
    wavelength = rng.uniform(0.01, 0.3)
    panel = RisPanel(
        rows=rows,
        cols=cols,
        cell_dx_m=wavelength * rng.uniform(0.3, 0.7),
        cell_dy_m=wavelength * rng.uniform(0.3, 0.7),
        bits=bits,
        levels_deg=uniform_levels(bits, rng.uniform(0.0, 360.0 / 2**bits)),
        reflection=rng.uniform(0.5, 1.0),
    )
    placement = Placement(
        d1_m=rng.uniform(0.5, 50.0),
        d2_m=rng.uniform(0.5, 50.0),
        theta_t_deg=rng.uniform(0.0, 80.0),
        phi_t_deg=rng.uniform(0.0, 360.0),
        theta_r_deg=rng.uniform(0.0, 80.0),
        phi_r_deg=rng.uniform(0.0, 360.0),
    )
    radio = RadioConfig(
        freq_ghz=SPEED_OF_LIGHT / (wavelength * 1e9),
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
        [state.xi(np.take(panel.levels, quantize_matrix(state.phase, float(g), panel)))
         for g in gammas]
    )
    gamma = float(np.min(gammas[xis >= np.max(xis) * (1.0 - TIE_REL_TOL)]))
    indices = quantize_matrix(state.phase, gamma, panel)
    return gamma, indices, state.xi(np.take(panel.levels, indices))


def exhaustive_xi(state) -> float:
    """Largest xi over every level assignment: the optimum dtpq must reach.

    Folds the level phasors in cell by cell, so after c cells ``sums``
    holds the partial field of all 2**(q*c) assignments of those cells.
    """
    levels = np.asarray(state.scenario.panel.levels)
    sums = np.zeros(1, dtype=complex)
    for a, phase in zip(state.amplitude.ravel(), state.phase.ravel()):
        sums = (sums[:, None] + a * np.exp(1j * (levels - phase))).ravel()
    return float(np.max(np.abs(sums)))


def far_field_pl_db(panel, placement, radio) -> float:
    """Closed-form far-field path loss (dB) under continuous phase alignment.

    PL = 16*pi^2 * (d1*d2)^2 /
         (G_t * G_r * (M*N*d_x*d_y)^2 * cos(theta_t) * cos(theta_r) * A^2),
    summed in dB factor by factor so that no product overflows.
    """
    return (
        10.0 * math.log10(16.0 * math.pi**2)
        + 20.0 * (math.log10(placement.d1_m) + math.log10(placement.d2_m))
        - radio.gain_tx_dbi
        - radio.gain_rx_dbi
        - 20.0 * math.log10(panel.num_cells * panel.cell_dx_m * panel.cell_dy_m * panel.reflection)
        - 10.0 * (math.log10(math.cos(math.radians(placement.theta_t_deg)))
                  + math.log10(math.cos(math.radians(placement.theta_r_deg))))
    )


def residual_spread(phases: np.ndarray, shifts: np.ndarray) -> float:
    """Width of the smallest circular arc containing all residual phases.

    Residuals are mod(phase - shift, 2*pi).  Returns 0 when all residuals
    coincide; the result always lies in [0, 2*pi).
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != shifts.shape:
        raise ValueError(f"phase shape {phases.shape} != shift shape {shifts.shape}")
    residuals = np.sort(np.mod(phases - shifts, TWO_PI).ravel())
    if residuals.size == 1:
        return 0.0
    gaps = np.diff(residuals)
    wrap_gap = residuals[0] + TWO_PI - residuals[-1]
    return float(TWO_PI - max(np.max(gaps), wrap_gap))


def combined_pattern(scenario: Scenario) -> np.ndarray:
    """Per-cell F_combine recovered from the link amplitudes: (amplitude * r_t * r_r)**2."""
    r_t, r_r = path_lengths(scenario.panel, scenario.placement)
    return (link_state(scenario).amplitude * r_t * r_r) ** 2


def path_lengths(panel, placement):
    """M x N distances from the Tx and from the Rx to every cell center."""
    d = np.array([placement.d1_m, placement.d2_m])
    theta = np.array([placement.theta_t_deg, placement.theta_r_deg])
    phi = np.array([placement.phi_t_deg, placement.phi_r_deg])
    r_t, r_r = cell_paths(cell_center_axes(panel), antenna_points(d, theta, phi))[0]
    return r_t.reshape(panel.rows, panel.cols), r_r.reshape(panel.rows, panel.cols)


def aperture_radius(panel: RisPanel) -> float:
    """Circumscribed radius of the panel (half the outline diagonal)."""
    return 0.5 * math.hypot(panel.cols * panel.cell_dx_m, panel.rows * panel.cell_dy_m)


def wave_path_difference(panel, placement, cell_a, cell_b) -> float:
    """Absolute difference of the Tx-cell-Rx wave-path lengths of two cells.

    Cells are addressed as (n, m) index pairs, 1-based.
    """
    r_t, r_r = path_lengths(panel, placement)
    totals = r_t + r_r

    def lookup(cell: tuple[int, int]) -> float:
        n, m = cell
        if not (1 <= n <= panel.cols and 1 <= m <= panel.rows):
            raise ValueError(
                f"cell index {cell} outside 1..{panel.cols} x 1..{panel.rows}"
            )
        return float(totals[m - 1, n - 1])

    return abs(lookup(cell_a) - lookup(cell_b))


def ends(interval: str) -> tuple[float, float]:
    """The two ends of an interval spelled like "[0, 90)"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi


def document_with(doc: dict, section: str, **changes) -> dict:
    """Copy of a scenario document with some keys in one section replaced."""
    out = copy.deepcopy(doc)
    out[section].update(changes)
    return out


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
    x = (panel.cols + 1 - 2.0 * np.arange(1, panel.cols + 1)) * panel.cell_dx_m / 2.0
    y = (panel.rows + 1 - 2.0 * np.arange(1, panel.rows + 1)) * panel.cell_dy_m / 2.0
    cells = np.stack([*np.meshgrid(x, y), np.zeros((panel.rows, panel.cols))], -1).reshape(-1, 3)

    def leg(d, theta_deg, phi_deg, gain_dbi):
        """Path length and F_antenna * F_cell of every cell for one antenna."""
        theta, phi = math.radians(theta_deg), math.radians(phi_deg)
        pos = d * np.array([math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi), math.cos(theta)])
        r = np.linalg.norm(pos - cells, axis=1)
        cos_cell, cos_antenna = pos[2] / r, (pos @ (pos - cells).T) / (d * r)
        alpha = 10.0 ** (gain_dbi / 10.0) / 2.0 - 1.0  # G = 2 (alpha + 1)
        return r, (cos_antenna > 0) * np.maximum(cos_antenna, 0.0) ** alpha * (
            (cos_cell > 0) * np.maximum(cos_cell, 0.0) ** radio.cell_alpha)

    omega, levels = TWO_PI / 2**panel.bits, np.asarray(panel.levels)
    scale = (10.0 ** ((radio.gain_tx_dbi + radio.gain_rx_dbi) / 10.0)
             * (panel.cell_dx_m * panel.cell_dy_m * panel.reflection) ** 2 / (16.0 * math.pi**2))
    r_t, f_t = leg(pl.d1_m, pl.theta_t_deg, pl.phi_t_deg, radio.gain_tx_dbi)
    continuous, quantized = [], []
    for d2 in d2_values:
        r_r, f_r = leg(d2, pl.theta_r_deg, pl.phi_r_deg, radio.gain_rx_dbi)
        amplitude = np.sqrt(f_t * f_r) / (r_t * r_r)
        phase = np.mod(TWO_PI * (r_t + r_r) / radio.wavelength, TWO_PI)
        gammas = phase if thresholds is None else np.asarray(thresholds, dtype=float)
        bins = np.floor(np.mod(phase - gammas[:, None], TWO_PI) / omega).astype(int)
        shift = levels[bins % levels.size]
        continuous.append(np.sum(amplitude))
        quantized.append(np.abs(np.sum(amplitude * np.exp(1j * (shift - phase)), axis=1)))
    offset_db = radio.tx_power_dbm + 10.0 * math.log10(scale)
    return offset_db + 20.0 * np.log10(continuous), offset_db + 20.0 * np.log10(quantized)
