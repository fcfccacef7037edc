"""Independent optimum for dtpq designs: a brute-force scan over every threshold.

The field magnitude xi only changes when the threshold crosses one of the
cells' continuous phases, so the best xi over those M*N candidates is the
optimum over all thresholds.  This scan costs O((MN)^2), so check.py
applies it only to panels of at most ORACLE_MAX_CELLS cells.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import cli_runner

ORACLE_MAX_CELLS = 2048


def best_xi(scenario_path: Path) -> float | None:
    """Largest xi over all thresholds, for the scenario's panel and link.

    None when the program no longer has the loader or link model used here.
    """
    if str(cli_runner.SRC) not in sys.path:
        sys.path.insert(0, str(cli_runner.SRC))
    import numpy as np
    try:
        from risbeam import link_state
        from risbeam.cli import load_scenario

        scenario = load_scenario(str(scenario_path))
        state = link_state(scenario)
        phase = state.phase.ravel()
        amplitude = state.amplitude.ravel()
        levels = np.asarray(scenario.panel.levels)
    except (ImportError, AttributeError):
        return None
    omega = 2.0 * math.pi / levels.size
    best = 0.0
    for lo in range(0, phase.size, 256):
        gamma = phase[lo : lo + 256, None]
        bins = np.floor(np.mod(phase[None, :] - gamma, 2.0 * math.pi) / omega).astype(int)
        shift = levels[bins % levels.size]
        xi = np.abs(np.sum(amplitude * np.exp(1j * (shift - phase)), axis=1))
        best = max(best, float(xi.max()))
    return best
