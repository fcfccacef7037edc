"""Shared helpers: seeded random scenario generation for property tests."""

import math

import numpy as np

from risbeam import (
    Placement,
    RadioConfig,
    RisPanel,
    Scenario,
    link_state,
    path_length_matrices,
)

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


def combined_pattern(scenario: Scenario) -> np.ndarray:
    """Per-cell F_combine recovered from the link amplitudes: (amplitude * r_t * r_r)**2."""
    geom = path_length_matrices(scenario.panel, scenario.placement)
    return (link_state(scenario).amplitude * geom.r_t * geom.r_r) ** 2
