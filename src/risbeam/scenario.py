"""Full link description: surface, Tx/Rx placement, and radio parameters,
and its JSON scenario-file form.

Scenario files use meters, degrees and GHz.  Each dataclass field is the
file key it is read from and holds the value as written; the wavelength and
the levels in radians are derived.  One table, _SECTIONS, names the
dataclass of each section, whose field annotations pick the readers.
Unknown keys, non-finite numbers and values outside their interval in
RANGES raise ConfigError, the package's one refusal type, naming the
offending key; check_range, the one range check, also refuses the command
line's interval options.  This configuration layer, with the table of
sweep axes and fit variables, the grid guard that the command line checks
its options against and the two bundled demo scenarios, uses only the
standard library, so reading and validating a scenario loads no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property

SPEED_OF_LIGHT = 299792458.0

# Each sweep axis and pl-fit variable as the command line names it, and the
# Placement field it moves: a *_deg field is an elevation in degrees, the others meters.
SWEEP_AXES = dict(rx_distance="d2_m", tx_distance="d1_m", theta_r="theta_r_deg", threshold=None)
FIT_VARIABLES = dict(d1="d1_m", d2="d2_m", cos_theta_r="theta_r_deg", cos_theta_t="theta_t_deg")

# Upper bound on the points of one grid or map (32x the 181 x 181 map).
GRID_GUARD_POINTS = 1 << 20

# Upper bound on the cells of one panel (2048x the 512-cell 2.6 GHz panel).
PANEL_GUARD_CELLS = 1 << 20

TWO_PI = 2.0 * math.pi


def wrap_angle(angle):
    """``angle`` (a float or an array) mod 2*pi, in [0, 2*pi): a hair below
    a multiple of 2*pi, whose remainder rounds up to 2*pi itself, wraps to 0."""
    wrapped = angle % TWO_PI
    return wrapped - TWO_PI * (wrapped == TWO_PI)


def in_degrees(field: str | None) -> bool:
    """Whether a placement field of SWEEP_AXES or FIT_VARIABLES is an elevation (deg)."""
    return field is not None and field.endswith("_deg")


_LEVEL_SPACING_TOL = 1e-9

# The alpha = 0 pattern's gain, 2, in dBi; no cosine-power pattern has less.
MIN_GAIN_DBI = 10.0 * math.log10(2.0)

# The interval of each bounded scenario-file key, in the file's units, spelled
# as its refusal prints it, with ends that read back exactly, and why it ends
# there; check_ranges holds the dataclasses to it.  On this domain no square,
# path in wavelengths or sum of amplitudes comes near the float range
# (channel._phasors derives the log sum's bound).
_COUNT = ("[1, inf)", "", "at least one cell a side and two levels; the panel guard caps the cells")
_CELL = ("[1e-06, 10]", "m", "from lambda/30 at 10 THz to about 3 lambda at 100 MHz")
_DISTANCE = ("[0.001, 1e+07]", "m", "from an antenna 1 mm off the surface to a satellite link")
_ELEVATION = ("[0, 90)", "deg", "from the surface normal to just short of the surface plane")
_GAIN = (f"[{MIN_GAIN_DBI!r}, 40]", "dBi",
         "from the floor of the cosine-power family (alpha 0) to a large dish")
RANGES = {
    "panel.rows": _COUNT,
    "panel.cols": _COUNT,
    "panel.cell_dx_m": _CELL,
    "panel.cell_dy_m": _CELL,
    "panel.bits": _COUNT,
    "panel.reflection": ("(0, 1]", "", "a passive cell reflects some, at most all, of the power"),
    "placement.d1_m": _DISTANCE,
    "placement.d2_m": _DISTANCE,
    "placement.theta_t_deg": _ELEVATION,
    "placement.theta_r_deg": _ELEVATION,
    "radio.freq_ghz": ("[0.1, 10000]", "GHz", "from VHF to the top of the terahertz band"),
    "radio.tx_power_dbm": ("[-100, 100]", "dBm",
                           "from 0.1 pW, below any noise floor, to 10 MW, above any transmitter"),
    "radio.gain_tx_dbi": _GAIN,
    "radio.gain_rx_dbi": _GAIN,
    "radio.cell_alpha": ("[0, 100]", "", "from an isotropic cell to a 23 dBi one, 13.5 deg wide"),
}


class ConfigError(ValueError):
    """A refused value from a scenario file, a command-line option, a method
    token or a library caller, naming the key, option or token at fault."""


def exact_g(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back as the same number,
    else its repr: 90.00000000000001 is not shown as 90, and a subnormal,
    which six digits always read back, not as 4.94066e-324 but 5e-324."""
    if isinstance(value, int):  # a count, shown whole at any size
        return str(value)
    text = f"{value:g}"
    return text if float(text) == value and not 0 < abs(value) < 2.0**-1022 else repr(float(value))


def wavelength_m(freq_ghz: float) -> float:
    """c / (freq_ghz * 1e9): the wavelength (m) of a frequency in GHz."""
    return SPEED_OF_LIGHT / (freq_ghz * 1e9)


def inside(value: float, interval: str) -> bool:
    """Whether ``value`` lies in the interval spelled ``interval``, such as "(-90, 90)"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    return above and (value <= hi if interval[-1] == "]" else value < hi)


def check_range(name: str, value: float, interval: str, unit: str = "") -> None:
    """Refuse a ``value`` outside ``interval`` (NaN included), naming ``name``,
    the interval in ``unit`` and the value: the one form of a range refusal."""
    if not inside(value, interval):
        span = f"{interval} {unit}".rstrip()
        raise ConfigError(f"{name} must lie in {span}, got {exact_g(value)}")


def check_ranges(section: str, config) -> None:
    """Refuse the first field of ``config``, read from file ``section``, that
    lies outside its row of RANGES."""
    for field in fields(config):
        key = f"{section}.{field.name}"
        if key in RANGES:
            check_range(key, getattr(config, field.name), *RANGES[key][:2])


@dataclass(frozen=True)
class RisPanel:
    """Geometry and quantization capability of the reflecting surface.

    Args:
        rows: M, number of cells along the y axis.
        cols: N, number of cells along the x axis.
        cell_dx_m: cell extent along x (m).
        cell_dy_m: cell extent along y (m).
        bits: phase resolution q; the surface offers 2**q phase levels.
        levels_deg: the 2**q programmable phase levels (deg), consecutive
            levels exactly 360/2**q apart (mod 360); ``levels`` holds them
            in radians.
        reflection: reflection magnitude of a cell, in (0, 1].
    """

    rows: int
    cols: int
    cell_dx_m: float
    cell_dy_m: float
    bits: int
    levels_deg: tuple[float, ...]
    reflection: float = 1.0

    def __post_init__(self) -> None:
        check_ranges("panel", self)
        if self.num_cells > PANEL_GUARD_CELLS:
            raise ConfigError(f"panel.rows x panel.cols = {self.rows}x{self.cols} cells exceeds "
                              f"the guard of {PANEL_GUARD_CELLS}")
        if not isinstance(self.levels_deg, tuple):  # a list leaves the panel unhashable
            raise ConfigError(f"panel.levels_deg must be a tuple, got {self.levels_deg!r}")
        levels = self.levels
        # 2**bits > len(levels) once bits reaches its bit length: refused unformed
        if self.bits >= len(levels).bit_length() or len(levels) != self.num_levels:
            raise ConfigError(f"panel.levels_deg: expected 2**{self.bits} phase levels for "
                              f"{self.bits}-bit resolution, got {len(levels)}")
        omega = self.omega
        for lo, hi in zip(levels, levels[1:]):
            gap = (hi - lo) % TWO_PI
            if abs(gap - omega) > _LEVEL_SPACING_TOL:
                raise ConfigError(f"panel.levels_deg must be uniformly spaced by "
                                  f"{math.degrees(omega):g} deg, found gap "
                                  f"{math.degrees(gap):g} deg")

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """The phase levels in radians, each in [0, 2*pi)."""
        return tuple(wrap_angle(math.radians(v)) for v in self.levels_deg)

    @property
    def num_levels(self) -> int:
        return 2 ** self.bits

    @property
    def omega(self) -> float:
        """Quantization interval 2*pi / 2**bits (rad)."""
        return TWO_PI / self.num_levels

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Placement:
    """Tx/Rx placement relative to the surface center.

    d1_m/d2_m are the Tx-center and Rx-center distances (m); (theta_t_deg,
    phi_t_deg) the elevation/azimuth of the Tx direction seen from the
    center, and (theta_r_deg, phi_r_deg) the same for the Rx, in degrees as
    the file writes them (geometry.antenna_points converts them).
    Elevations are measured from the surface normal (+z) and lie in their
    RANGES interval, [0, 90); an azimuth may be any finite angle, taken mod 360.
    """

    d1_m: float
    d2_m: float
    theta_t_deg: float
    phi_t_deg: float
    theta_r_deg: float
    phi_r_deg: float

    def __post_init__(self) -> None:
        check_ranges("placement", self)
        for name in ("phi_t_deg", "phi_r_deg"):
            angle = getattr(self, name)
            if not math.isfinite(angle):
                raise ConfigError(f"placement.{name} must be finite, got {angle}")


def alpha_from_gain_dbi(gain_dbi: float) -> float:
    """Pattern exponent whose directive gain G = 2 * (alpha + 1) matches the
    given dBi figure.

    Raises ConfigError below MIN_GAIN_DBI = 10*log10(2) ~ 3.0103 dBi, the
    gains' RANGES floor, where the exponent would be negative, and on NaN.
    """
    check_range("gain", gain_dbi, f"[{MIN_GAIN_DBI!r}, inf)", "dBi")
    return max(10.0 ** (gain_dbi / 10.0) / 2.0 - 1.0, 0.0)


@dataclass(frozen=True)
class RadioConfig:
    """Radio-link parameters shared by every cell.

    Antenna gains are stated in dBi.  ``cell_alpha`` is the exponent of the
    unit-cell pattern, 1 by default.  Each field holds its scenario-file
    key's value as written, held to that key's RANGES row; the wavelength is
    derived from ``freq_ghz``.
    """

    freq_ghz: float
    tx_power_dbm: float
    gain_tx_dbi: float
    gain_rx_dbi: float
    cell_alpha: float = 1.0

    def __post_init__(self) -> None:
        check_ranges("radio", self)

    @property
    def wavelength(self) -> float:
        """Carrier wavelength (m)."""
        return wavelength_m(self.freq_ghz)

    @property
    def alpha_tx(self) -> float:
        return alpha_from_gain_dbi(self.gain_tx_dbi)

    @property
    def alpha_rx(self) -> float:
        return alpha_from_gain_dbi(self.gain_rx_dbi)


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


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {value}")
    return value


def _integer(key: str, value) -> int:
    """A count: a number with no fractional part."""
    value = _number(key, value)
    if not value.is_integer():
        raise ConfigError(f"key '{key}' must be an integer, got {exact_g(value)}")
    return int(value)


def _numbers(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"key '{key}' must be a list of finite numbers")
    return tuple(_number(key, item) for item in value)


# The reader of a scenario-file value by the annotation of the field it sets.
_READERS = {"int": _integer, "float": _number, "tuple[float, ...]": _numbers}

# The dataclass that each section of a scenario file builds: each field is a
# key of the section, and a key whose field has a default may be left out.
_SECTIONS = {"panel": RisPanel, "placement": Placement, "radio": RadioConfig}


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document through _SECTIONS,
    refusing unknown keys and naming the key at fault."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be an object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}'")
    built = {}
    for name, cls in _SECTIONS.items():
        if name not in doc:
            raise ConfigError(f"missing section '{name}'")
        section = doc[name]
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be an object")
        keys = fields(cls)
        unknown = set(section) - {field.name for field in keys}
        if unknown:
            raise ConfigError(f"unknown key '{name}.{sorted(unknown)[0]}'")
        values = {}
        for field in keys:
            key = f"{name}.{field.name}"
            if field.name in section:
                values[field.name] = _READERS[field.type](key, section[field.name])
            elif field.default is MISSING:
                raise ConfigError(f"missing key '{key}'")
        built[name] = cls(**values)
    return Scenario(**built)


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"scenario file {path} cannot be read: {exc.strerror}") from exc
    except (RecursionError, ValueError) as exc:  # not UTF-8, not JSON or nested too deep
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)


def _document(freq_ghz: float, rows: int, cols: int, bits: int,
              levels_deg: list[float], d2_m: float) -> dict:
    """Demo link: Tx/Rx at 45 deg on opposite azimuths, d1 10 m, 0 dBm, 8.25 dBi antennas."""
    half_wave = wavelength_m(freq_ghz) / 2.0
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


def ris_2p6ghz_document() -> dict:
    """Scenario document: 32x16 cells, 1-bit levels {55, 235} deg, 2.6 GHz, Rx at 10 m."""
    return _document(2.6, rows=32, cols=16, bits=1, levels_deg=[55.0, 235.0], d2_m=10.0)


def ris_4p9ghz_document() -> dict:
    """Scenario document: 50x25 cells, 2-bit levels {0, 90, 180, 270} deg, 4.9 GHz, Rx at 50 m."""
    return _document(
        4.9, rows=50, cols=25, bits=2, levels_deg=[0.0, 90.0, 180.0, 270.0], d2_m=50.0
    )


def ris_2p6ghz() -> Scenario:
    return parse_scenario(ris_2p6ghz_document())


def ris_4p9ghz() -> Scenario:
    return parse_scenario(ris_4p9ghz_document())
