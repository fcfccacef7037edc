"""Bundled demo scenarios: the two reference surfaces used in the docs.

Both place Tx and Rx at 45 degrees elevation on opposite azimuths, 10 m
Tx distance, 0 dBm transmit power, and 8.25 dBi antennas; cells are half
a wavelength on a side.
"""

from __future__ import annotations

import copy

from .scenario import SPEED_OF_LIGHT, Scenario, parse_scenario


def _document(freq_ghz: float, rows: int, cols: int, bits: int,
              levels_deg: list[float], d2_m: float) -> dict:
    half_wave = SPEED_OF_LIGHT / (freq_ghz * 1e9) / 2.0
    return {
        "panel": {
            "rows": rows,
            "cols": cols,
            "cell_dx_m": half_wave,
            "cell_dy_m": half_wave,
            "bits": bits,
            "levels_deg": levels_deg,
            "reflection": 1.0,
        },
        "placement": {
            "d1_m": 10.0,
            "d2_m": d2_m,
            "theta_t_deg": 45.0,
            "phi_t_deg": 0.0,
            "theta_r_deg": 45.0,
            "phi_r_deg": 180.0,
        },
        "radio": {
            "freq_ghz": freq_ghz,
            "tx_power_dbm": 0.0,
            "gain_tx_dbi": 8.25,
            "gain_rx_dbi": 8.25,
            "cell_alpha": 1.0,
        },
    }


def ris_2p6ghz_document(d2_m: float = 10.0) -> dict:
    """Scenario document: 32x16 cells, 1-bit levels {55, 235} deg, 2.6 GHz."""
    return _document(2.6, rows=32, cols=16, bits=1, levels_deg=[55.0, 235.0], d2_m=d2_m)


def ris_4p9ghz_document(d2_m: float = 50.0) -> dict:
    """Scenario document: 50x25 cells, 2-bit levels {0, 90, 180, 270} deg, 4.9 GHz."""
    return _document(
        4.9, rows=50, cols=25, bits=2, levels_deg=[0.0, 90.0, 180.0, 270.0], d2_m=d2_m
    )


def ris_2p6ghz(d2_m: float = 10.0) -> Scenario:
    return parse_scenario(ris_2p6ghz_document(d2_m))


def ris_4p9ghz(d2_m: float = 50.0) -> Scenario:
    return parse_scenario(ris_4p9ghz_document(d2_m))


def document_with(doc: dict, section: str, **changes) -> dict:
    """Copy of a scenario document with some keys in one section replaced."""
    out = copy.deepcopy(doc)
    out[section].update(changes)
    return out
