"""Cosine-power radiation patterns.

A normalized power pattern F(theta, phi) = cos(theta)**alpha for
theta in [0, pi/2), and 0 for theta in [pi/2, pi], independent of
azimuth.  Patterns are evaluated from cos(theta) directly.  The
corresponding directive gain is G = 2 * (alpha + 1), so alpha can be
recovered from a gain figure in dBi (``scenario.alpha_from_gain_dbi``).
"""

from __future__ import annotations

import numpy as np


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
