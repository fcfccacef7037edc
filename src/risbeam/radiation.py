"""Cosine-power radiation patterns and gain/exponent conversion.

A normalized power pattern F(theta, phi) = cos(theta)**alpha for
theta in [0, pi/2), and 0 for theta in [pi/2, pi], independent of
azimuth.  Patterns are evaluated from cos(theta) directly.  The
corresponding directive gain is G = 2 * (alpha + 1), so alpha can be
recovered from a gain figure in dBi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Linear gain of the alpha = 0 pattern; no cosine-power pattern has less.
MIN_GAIN_LINEAR = 2.0
MIN_GAIN_DBI = 10.0 * math.log10(MIN_GAIN_LINEAR)

_ALPHA_TOL = 1e-9


def gain_from_alpha(alpha: float) -> float:
    """Linear directive gain 2 * (alpha + 1) of a cosine-power pattern."""
    if alpha < 0.0:
        raise ValueError(f"pattern exponent must be >= 0, got {alpha}")
    return 2.0 * (alpha + 1.0)


def alpha_from_gain_dbi(gain_dbi: float) -> float:
    """Pattern exponent whose directive gain matches the given dBi figure.

    Raises ValueError below the isotropic-hemisphere floor of
    10*log10(2) ~ 3.0103 dBi, where the exponent would be negative.
    """
    alpha = 10.0 ** (gain_dbi / 10.0) / 2.0 - 1.0
    if alpha < -_ALPHA_TOL:
        raise ValueError(
            f"gain {gain_dbi} dBi is below the {MIN_GAIN_DBI:.4f} dBi floor of the "
            "cosine-power pattern family"
        )
    return max(alpha, 0.0)


@dataclass(frozen=True)
class RadioConfig:
    """Radio-link parameters shared by every cell.

    Antenna gains are stated in dBi and must be realizable by a
    cosine-power pattern (linear gain >= 2).  ``cell_alpha`` is the
    exponent of the unit-cell pattern, 1 by default.
    """

    wavelength: float
    tx_power_dbm: float
    gain_tx_dbi: float
    gain_rx_dbi: float
    cell_alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.cell_alpha < 0.0:
            raise ValueError(f"cell_alpha must be >= 0, got {self.cell_alpha}")
        # Raises if either gain sits below the pattern-family floor.
        alpha_from_gain_dbi(self.gain_tx_dbi)
        alpha_from_gain_dbi(self.gain_rx_dbi)

    @property
    def alpha_tx(self) -> float:
        return alpha_from_gain_dbi(self.gain_tx_dbi)

    @property
    def alpha_rx(self) -> float:
        return alpha_from_gain_dbi(self.gain_rx_dbi)

    @property
    def gain_tx_linear(self) -> float:
        return 10.0 ** (self.gain_tx_dbi / 10.0)

    @property
    def gain_rx_linear(self) -> float:
        return 10.0 ** (self.gain_rx_dbi / 10.0)


def cosine_pattern(cos_theta, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized cosine-power pattern value(s), given cos(theta).

    Cosines are clipped to [-1, 1] against rounding.  Returns 1 at
    cos(theta) = 1 and exactly 0 in the cutoff region cos(theta) <= 0.
    With ``out``, the values are written there and ``cos_theta``, a float
    array of the same shape, is clipped in place.
    """
    if alpha < 0.0:
        raise ValueError(f"pattern exponent must be >= 0, got {alpha}")
    if out is None:
        arr = np.clip(np.asarray(cos_theta, dtype=float), -1.0, 1.0)
        out = np.zeros_like(arr)
    else:
        arr = np.clip(cos_theta, -1.0, 1.0, out=cos_theta)
        out.fill(0.0)
    return np.power(arr, alpha, out=out, where=arr > 0.0)
