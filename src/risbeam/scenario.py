"""Full link description: surface, Tx/Rx placement, and radio parameters,
and its JSON scenario-file form.

Scenario files use degrees and GHz; the wavelength is derived from the
frequency.  Unknown keys and non-finite numbers are rejected with the
offending key named.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .geometry import TWO_PI, Placement, RisPanel
from .radiation import RadioConfig

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class Scenario:
    """One surface-assisted Tx -> surface -> Rx link."""

    panel: RisPanel
    placement: Placement
    radio: RadioConfig

    def with_placement(self, **changes) -> "Scenario":
        """Copy of the scenario with placement fields replaced."""
        return replace(self, placement=replace(self.placement, **changes))

    def with_panel(self, **changes) -> "Scenario":
        """Copy of the scenario with panel fields replaced."""
        return replace(self, panel=replace(self.panel, **changes))


class ScenarioFileError(ValueError):
    """Configuration problem in a scenario file or on the command line."""


_PANEL_KEYS = {"rows", "cols", "cell_dx_m", "cell_dy_m", "bits", "levels_deg", "reflection"}
_PLACEMENT_KEYS = {"d1_m", "d2_m", "theta_t_deg", "phi_t_deg", "theta_r_deg", "phi_r_deg"}
_RADIO_KEYS = {"freq_ghz", "tx_power_dbm", "gain_tx_dbi", "gain_rx_dbi", "cell_alpha"}


def _require_section(doc: dict, name: str, allowed: set[str]) -> dict:
    if name not in doc:
        raise ScenarioFileError(f"missing section '{name}'")
    section = doc[name]
    if not isinstance(section, dict):
        raise ScenarioFileError(f"section '{name}' must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioFileError(f"unknown key '{name}.{sorted(unknown)[0]}'")
    return section


def _number(section: dict, section_name: str, key: str, default=None) -> float:
    if key not in section:
        if default is not None:
            return default
        raise ScenarioFileError(f"missing key '{section_name}.{key}'")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFileError(f"key '{section_name}.{key}' must be a number")
    if not math.isfinite(value):
        raise ScenarioFileError(f"key '{section_name}.{key}' must be finite, got {value}")
    return float(value)


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ScenarioFileError("scenario document must be an object")
    unknown = set(doc) - {"panel", "placement", "radio"}
    if unknown:
        raise ScenarioFileError(f"unknown key '{sorted(unknown)[0]}'")

    panel_doc = _require_section(doc, "panel", _PANEL_KEYS)
    placement_doc = _require_section(doc, "placement", _PLACEMENT_KEYS)
    radio_doc = _require_section(doc, "radio", _RADIO_KEYS)

    levels = panel_doc.get("levels_deg")
    if not isinstance(levels, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in levels
    ):
        raise ScenarioFileError("key 'panel.levels_deg' must be a list of finite numbers")

    try:
        panel = RisPanel(
            rows=int(_number(panel_doc, "panel", "rows")),
            cols=int(_number(panel_doc, "panel", "cols")),
            d_x=_number(panel_doc, "panel", "cell_dx_m"),
            d_y=_number(panel_doc, "panel", "cell_dy_m"),
            bits=int(_number(panel_doc, "panel", "bits")),
            levels=tuple(math.radians(v) for v in levels),
            reflection=_number(panel_doc, "panel", "reflection", default=1.0),
        )
    except ValueError as exc:
        raise ScenarioFileError(f"invalid 'panel' section: {exc}") from exc

    try:
        placement = Placement(
            d1=_number(placement_doc, "placement", "d1_m"),
            d2=_number(placement_doc, "placement", "d2_m"),
            theta_t=math.radians(_number(placement_doc, "placement", "theta_t_deg")),
            phi_t=math.radians(_number(placement_doc, "placement", "phi_t_deg")) % TWO_PI,
            theta_r=math.radians(_number(placement_doc, "placement", "theta_r_deg")),
            phi_r=math.radians(_number(placement_doc, "placement", "phi_r_deg")) % TWO_PI,
        )
    except ValueError as exc:
        raise ScenarioFileError(f"invalid 'placement' section: {exc}") from exc

    freq_ghz = _number(radio_doc, "radio", "freq_ghz")
    if freq_ghz <= 0.0:
        raise ScenarioFileError("key 'radio.freq_ghz' must be positive")
    try:
        radio = RadioConfig(
            wavelength=SPEED_OF_LIGHT / (freq_ghz * 1e9),
            tx_power_dbm=_number(radio_doc, "radio", "tx_power_dbm"),
            gain_tx_dbi=_number(radio_doc, "radio", "gain_tx_dbi"),
            gain_rx_dbi=_number(radio_doc, "radio", "gain_rx_dbi"),
            cell_alpha=_number(radio_doc, "radio", "cell_alpha", default=1.0),
        )
    except ValueError as exc:
        raise ScenarioFileError(f"invalid 'radio' section: {exc}") from exc

    return Scenario(panel=panel, placement=placement, radio=radio)


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioFileError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)
