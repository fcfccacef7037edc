"""Simulator for reflecting-surface assisted SISO links with discrete phase shifts.

Computes ideal continuous phase shifts, quantizes them to q-bit levels via
dynamic-threshold (dtpq) and equal-interval (eipq) searches, and provides
the sweeps and slope fits that characterize received power and path-loss
scaling.
"""

from .analysis import (
    SlopeFit,
    SweepRow,
    SweepSpec,
    angle_scan,
    gradient_map,
    grid_values,
    path_loss_samples,
    pl_slope_fit,
    run_sweep,
)
from .channel import (
    LinkState,
    far_field_pl_db,
    field_at_rx_points,
    link_state,
    power_dbm_from_xi,
)
from .geometry import (
    Placement,
    RisPanel,
    wave_path_difference,
)
from .quantization import (
    QuantizationResult,
    ShiftMatrix,
    dtpq,
    eipq,
    exhaustive_search,
    fixed_threshold,
    quantize_matrix,
    residual_spread,
)
from .radiation import (
    RadioConfig,
    alpha_from_gain_dbi,
    cosine_pattern,
    gain_from_alpha,
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
    "ShiftMatrix",
    "SlopeFit",
    "SweepRow",
    "SweepSpec",
    "alpha_from_gain_dbi",
    "angle_scan",
    "cosine_pattern",
    "dtpq",
    "eipq",
    "exhaustive_search",
    "far_field_pl_db",
    "field_at_rx_points",
    "fixed_threshold",
    "gain_from_alpha",
    "gradient_map",
    "grid_values",
    "link_state",
    "path_loss_samples",
    "pl_slope_fit",
    "power_dbm_from_xi",
    "quantize_matrix",
    "residual_spread",
    "ris_2p6ghz",
    "ris_4p9ghz",
    "run_sweep",
    "wave_path_difference",
]

__version__ = "0.1.0"
