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


def alpha_from_gain_dbi(gain_dbi: float) -> float:
    """Pattern exponent whose directive gain matches the given dBi figure.

    Raises ValueError below the 10*log10(2) ~ 3.0103 dBi floor, where the
    exponent would be negative, and where 10**(dBi/10) is not a finite float.
    """
    try:
        alpha = 10.0 ** (gain_dbi / 10.0) / 2.0 - 1.0
    except OverflowError:
        alpha = math.nan
    if not math.isfinite(alpha):
        raise ValueError(f"gain {gain_dbi} dBi has no finite linear value")
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
    cosine-power pattern (a finite linear gain >= 2).  ``cell_alpha`` is the
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
        for key in ("gain_tx_dbi", "gain_rx_dbi"):
            try:
                alpha_from_gain_dbi(getattr(self, key))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc

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

    Cosines above 1 (rounding) count as 1.  Returns 1 at cos(theta) = 1,
    and exactly +0 in the cutoff region cos(theta) <= 0 and for NaN.
    With ``out``, a float array of ``cos_theta``'s shape, the values are
    written there; ``cos_theta`` itself is never modified.
    """
    if alpha < 0.0:
        raise ValueError(f"pattern exponent must be >= 0, got {alpha}")
    if out is None:
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
