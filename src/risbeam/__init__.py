"""Simulator for reflecting-surface assisted SISO links with discrete phase shifts.

Computes a link's per-cell amplitudes and ideal continuous phase shifts
(``link_state``), quantizes them to q-bit levels via dynamic-threshold
(``dtpq(state)``) and equal-interval (``eipq(state, epsilon_deg)``) searches,
and provides the sweeps and slope fits that characterize received power
and path-loss scaling.

Each export is imported from its module on first access, so importing
the package, or only its configuration classes, loads no numpy.
"""

import importlib

# Each export and the module that defines it.
_EXPORTS = {
    "LinkState": "channel",
    "Placement": "scenario",
    "QuantizationResult": "quantization",
    "RadioConfig": "scenario",
    "RisPanel": "scenario",
    "Scenario": "scenario",
    "SlopeFit": "analysis",
    "SweepRow": "analysis",
    "alpha_from_gain_dbi": "scenario",
    "angle_scan": "analysis",
    "dtpq": "quantization",
    "eipq": "quantization",
    "field_at_rx_points": "channel",
    "fixed_threshold": "quantization",
    "gradient_map": "analysis",
    "grid_values": "analysis",
    "link_state": "channel",
    "path_loss_samples": "analysis",
    "pl_slope_fit": "analysis",
    "power_dbm_from_xi": "channel",
    "quantize_matrix": "quantization",
    "ris_2p6ghz": "scenario",
    "ris_4p9ghz": "scenario",
    "run_sweep": "analysis",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
