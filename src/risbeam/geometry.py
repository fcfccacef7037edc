"""Cell placement and per-cell path geometry for a planar reflecting surface.

Coordinate frame: the surface occupies the z = 0 plane with its center at
the origin.  Cells are indexed 1-based, n = 1..N along the x axis and
m = 1..M along the y axis, and the center of cell (n, m) is at

    ((N + 1 - 2n) * d_x / 2,  (M + 1 - 2m) * d_y / 2,  0).

Per-cell quantities are stored as M x N arrays addressed [m-1, n-1], or as
(P, M*N) arrays over the row-major cells when evaluated for P points.
Angles are radians throughout; degrees appear only at configuration and
CSV boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_LEVEL_SPACING_TOL = 1e-9


@dataclass(frozen=True)
class RisPanel:
    """Geometry and quantization capability of the reflecting surface.

    Args:
        rows: M, number of cells along the y axis.
        cols: N, number of cells along the x axis.
        d_x: cell extent along x (m).
        d_y: cell extent along y (m).
        bits: phase resolution q; the surface offers 2**q phase levels.
        levels: the 2**q programmable phase levels (rad), consecutive
            levels exactly 2*pi/2**q apart (mod 2*pi).
        reflection: reflection magnitude of a cell, in (0, 1].
    """

    rows: int
    cols: int
    d_x: float
    d_y: float
    bits: int
    levels: tuple[float, ...]
    reflection: float = 1.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"cell counts must be positive, got {self.rows}x{self.cols}")
        if not (self.d_x > 0.0 and self.d_y > 0.0):
            raise ValueError(f"cell size must be positive, got d_x={self.d_x}, d_y={self.d_y}")
        if self.bits < 1:
            raise ValueError(f"bits must be a positive integer, got {self.bits}")
        if not (0.0 < self.reflection <= 1.0):
            raise ValueError(f"reflection magnitude must be in (0, 1], got {self.reflection}")
        levels = tuple(float(v) % TWO_PI for v in self.levels)
        if len(levels) != self.num_levels:
            raise ValueError(
                f"expected {self.num_levels} phase levels for {self.bits}-bit resolution, "
                f"got {len(levels)}"
            )
        omega = self.omega
        for lo, hi in zip(levels, levels[1:]):
            gap = (hi - lo) % TWO_PI
            if abs(gap - omega) > _LEVEL_SPACING_TOL:
                raise ValueError(
                    f"levels must be uniformly spaced by {omega:.6f} rad, "
                    f"found gap {gap:.6f} rad"
                )
        object.__setattr__(self, "levels", levels)

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

    @property
    def aperture_radius(self) -> float:
        """Circumscribed radius of the panel (half the outline diagonal)."""
        return 0.5 * math.hypot(self.cols * self.d_x, self.rows * self.d_y)


@dataclass(frozen=True)
class Placement:
    """Tx/Rx placement relative to the surface center.

    d1/d2 are the Tx-center and Rx-center distances; (theta_t, phi_t) the
    elevation/azimuth of the Tx direction seen from the center, and
    (theta_r, phi_r) the same for the Rx.  Elevations are measured from
    the surface normal (+z) and must stay below pi/2.
    """

    d1: float
    d2: float
    theta_t: float
    phi_t: float
    theta_r: float
    phi_r: float

    def __post_init__(self) -> None:
        if not (self.d1 > 0.0 and math.isfinite(self.d1)):
            raise ValueError(f"d1 must be positive and finite, got {self.d1}")
        if not (self.d2 > 0.0 and math.isfinite(self.d2)):
            raise ValueError(f"d2 must be positive and finite, got {self.d2}")
        for name in ("theta_t", "theta_r"):
            theta = getattr(self, name)
            if not (0.0 <= theta < math.pi / 2):
                raise ValueError(f"{name} must lie in [0, pi/2), got {theta}")
        for name in ("phi_t", "phi_r"):
            phi = getattr(self, name)
            if not (0.0 <= phi < TWO_PI):
                raise ValueError(f"{name} must lie in [0, 2*pi), got {phi}")


@dataclass(frozen=True)
class Point3:
    """Cartesian point (m)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coordinate {name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass
class PathGeometry:
    """Per-cell path lengths: Tx->cell distances and cell->Rx distances."""

    r_t: np.ndarray
    r_r: np.ndarray

    def __post_init__(self) -> None:
        self.r_t = np.asarray(self.r_t, dtype=float)
        self.r_r = np.asarray(self.r_r, dtype=float)
        if self.r_t.shape != self.r_r.shape:
            raise ValueError(f"r_t shape {self.r_t.shape} != r_r shape {self.r_r.shape}")
        if not (np.all(self.r_t > 0.0) and np.all(self.r_r > 0.0)):
            raise ValueError("path lengths must be strictly positive")

    @property
    def total(self) -> np.ndarray:
        """Per-cell wave-path length r_t + r_r."""
        return self.r_t + self.r_r


def cell_center(n: int, m: int, panel: RisPanel) -> Point3:
    """Center of cell (n, m), n counted 1..N along x and m counted 1..M along y."""
    if not (1 <= n <= panel.cols):
        raise ValueError(f"cell index n={n} outside 1..{panel.cols}")
    if not (1 <= m <= panel.rows):
        raise ValueError(f"cell index m={m} outside 1..{panel.rows}")
    x, y = cell_center_grids(panel)
    return Point3(float(x[m - 1, n - 1]), float(y[m - 1, n - 1]), 0.0)


def cell_center_grids(panel: RisPanel) -> tuple[np.ndarray, np.ndarray]:
    """X and Y coordinate matrices (M x N) of all cell centers."""
    n = np.arange(1, panel.cols + 1, dtype=float)
    m = np.arange(1, panel.rows + 1, dtype=float)
    x = (panel.cols + 1 - 2.0 * n) * panel.d_x / 2.0
    y = (panel.rows + 1 - 2.0 * m) * panel.d_y / 2.0
    return np.meshgrid(x, y)


def spherical_to_cartesian(d: float, theta: float, phi: float) -> Point3:
    """Point at range d, elevation theta from +z, azimuth phi from +x."""
    if not d > 0.0:
        raise ValueError(f"range must be positive, got {d}")
    sin_t = math.sin(theta)
    return Point3(d * sin_t * math.cos(phi), d * sin_t * math.sin(phi), d * math.cos(theta))


def tx_position(placement: Placement) -> Point3:
    return spherical_to_cartesian(placement.d1, placement.theta_t, placement.phi_t)


def rx_position(placement: Placement) -> Point3:
    return spherical_to_cartesian(placement.d2, placement.theta_r, placement.phi_r)


def cell_paths(
    cells: tuple[np.ndarray, np.ndarray], points: np.ndarray, ranges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths and incidence cosines of the paths from antennas to every cell.

    ``cells`` is the pair of cell-center grids from ``cell_center_grids``,
    ``points`` a (P, 3) array of antenna positions and ``ranges`` their
    distances to the surface center, shape (P, 1).  Returns three (P, M*N)
    arrays over the row-major cells: the path length r, the cosine of the
    path's angle to the surface normal at the cell, and the cosine of its
    angle to the antenna boresight, which points at the surface center.
    """
    x, y = cells
    dx = points[:, 0:1] - x.ravel()
    dy = points[:, 1:2] - y.ravel()
    pz = points[:, 2:3]
    r = np.sqrt(dx**2 + dy**2 + pz**2)
    cos_antenna = (points[:, 0:1] * dx + points[:, 1:2] * dy + pz * pz) / (r * ranges)
    return r, pz / r, cos_antenna


def path_length_matrices(panel: RisPanel, placement: Placement) -> PathGeometry:
    """Euclidean distances from the Tx and Rx points to every cell center."""
    points = np.stack([tx_position(placement).as_array(), rx_position(placement).as_array()])
    ranges = np.array([[placement.d1], [placement.d2]])
    r, _, _ = cell_paths(cell_center_grids(panel), points, ranges)
    r_t, r_r = r.reshape(2, panel.rows, panel.cols)
    return PathGeometry(r_t=r_t, r_r=r_r)


def wave_path_difference(
    panel: RisPanel,
    placement: Placement,
    cell_a: tuple[int, int],
    cell_b: tuple[int, int],
) -> float:
    """Absolute difference of the Tx-cell-Rx wave-path lengths of two cells.

    Cells are addressed as (n, m) index pairs, 1-based.
    """
    geom = path_length_matrices(panel, placement)
    totals = geom.total

    def lookup(cell: tuple[int, int]) -> float:
        n, m = cell
        if not (1 <= n <= panel.cols and 1 <= m <= panel.rows):
            raise ValueError(
                f"cell index {cell} outside 1..{panel.cols} x 1..{panel.rows}"
            )
        return float(totals[m - 1, n - 1])

    return abs(lookup(cell_a) - lookup(cell_b))
