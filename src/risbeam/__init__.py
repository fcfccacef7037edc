"""Simulator for reflecting-surface assisted SISO links with discrete phase shifts.

Computes a link's per-cell amplitudes and ideal continuous phase shifts
(``link_state``), quantizes them to q-bit levels via dynamic-threshold
(``dtpq(state)``) and equal-interval (``eipq(state, epsilon)``) searches,
and provides the sweeps and slope fits that characterize received power
and path-loss scaling.
"""

from .analysis import (
    SlopeFit,
    SweepRow,
    angle_scan,
    gradient_map,
    grid_values,
    path_loss_samples,
    pl_slope_fit,
    run_sweep,
)
from .channel import (
    LinkState,
    field_at_rx_points,
    link_state,
    power_dbm_from_xi,
)
from .geometry import Placement, RisPanel
from .quantization import (
    QuantizationResult,
    dtpq,
    eipq,
    fixed_threshold,
    quantize_matrix,
)
from .radiation import (
    RadioConfig,
    alpha_from_gain_dbi,
    cosine_pattern,
)
from .presets import ris_2p6ghz, ris_4p9ghz
from .scenario import Scenario

__all__ = [
    "LinkState",
    "Placement",
    "QuantizationResult",
    "RadioConfig",
    "RisPanel",
    "Scenario",
    "SlopeFit",
    "SweepRow",
    "alpha_from_gain_dbi",
    "angle_scan",
    "cosine_pattern",
    "dtpq",
    "eipq",
    "field_at_rx_points",
    "fixed_threshold",
    "gradient_map",
    "grid_values",
    "link_state",
    "path_loss_samples",
    "pl_slope_fit",
    "power_dbm_from_xi",
    "quantize_matrix",
    "ris_2p6ghz",
    "ris_4p9ghz",
    "run_sweep",
]

__version__ = "0.1.0"
