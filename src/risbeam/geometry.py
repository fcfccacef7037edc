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
from numpy.typing import ArrayLike

TWO_PI = 2.0 * math.pi

_LEVEL_SPACING_TOL = 1e-9

# Largest representable elevation below pi/2; antenna_points clamps here.
THETA_LIMIT = math.nextafter(math.pi / 2.0, 0.0)


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


def cell_center_axes(panel: RisPanel) -> tuple[np.ndarray, np.ndarray]:
    """X coordinates of the N cell columns and Y coordinates of the M cell rows."""
    n = np.arange(1, panel.cols + 1, dtype=float)
    m = np.arange(1, panel.rows + 1, dtype=float)
    x = (panel.cols + 1 - 2.0 * n) * panel.d_x / 2.0
    y = (panel.rows + 1 - 2.0 * m) * panel.d_y / 2.0
    return x, y


def antenna_points(d: ArrayLike, theta: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """(P, 3) antenna positions at ranges d, elevations theta and azimuths phi (rad).

    Elevations are measured from the surface normal (+z) and azimuths from
    +x.  They are clamped at THETA_LIMIT, just below pi/2, where the
    pattern cutoff zeroes the power; a valid Placement is never clamped.
    """
    theta = np.minimum(theta, THETA_LIMIT)
    rho = d * np.sin(theta)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), d * np.cos(theta)])


def cell_paths(
    axes: tuple[np.ndarray, np.ndarray],
    points: np.ndarray,
    ranges: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lengths and incidence cosines of the paths from antennas to every cell.

    ``axes`` is the pair of cell-center axes from ``cell_center_axes``,
    ``points`` a (P, 3) array of antenna positions and ``ranges`` their
    distances to the surface center, shape (P, 1).  Returns ``out``, or a
    new (3, P, M*N) array, holding over the row-major cells: the path
    length r, the cosine of the path's angle to the surface normal at the
    cell, and the cosine of its angle to the antenna boresight, which
    points at the surface center.

    A cell's x offset depends only on its column and its y offset only on
    its row, so the squares and boresight products are formed on the
    (P, N) and (P, M) axes and broadcast to (P, M, N).
    """
    x, y = axes
    count = points.shape[0]
    if out is None:
        out = np.empty((3, count, y.size * x.size))
    r, cos_cell, cos_antenna = (a.reshape(count, y.size, x.size) for a in out)
    px, py, pz = (points[:, k : k + 1] for k in range(3))
    dx = px - x
    dy = py - y
    pz_sq = (pz * pz)[:, :, None]
    np.add((dx * dx)[:, None, :], (dy * dy)[:, :, None], out=r)
    r += pz_sq
    np.sqrt(r, out=r)
    np.add((px * dx)[:, None, :], (py * dy)[:, :, None], out=cos_antenna)
    cos_antenna += pz_sq
    np.multiply(r, ranges[:, :, None], out=cos_cell)
    cos_antenna /= cos_cell
    np.divide(pz[:, :, None], r, out=cos_cell)
    return out


def wave_path_difference(
    panel: RisPanel,
    placement: Placement,
    cell_a: tuple[int, int],
    cell_b: tuple[int, int],
) -> float:
    """Absolute difference of the Tx-cell-Rx wave-path lengths of two cells.

    Cells are addressed as (n, m) index pairs, 1-based.
    """
    d = np.array([placement.d1, placement.d2])
    theta = np.array([placement.theta_t, placement.theta_r])
    phi = np.array([placement.phi_t, placement.phi_r])
    r_t, r_r = cell_paths(cell_center_axes(panel), antenna_points(d, theta, phi), d[:, None])[0]
    totals = (r_t + r_r).reshape(panel.rows, panel.cols)

    def lookup(cell: tuple[int, int]) -> float:
        n, m = cell
        if not (1 <= n <= panel.cols and 1 <= m <= panel.rows):
            raise ValueError(
                f"cell index {cell} outside 1..{panel.cols} x 1..{panel.rows}"
            )
        return float(totals[m - 1, n - 1])

    return abs(lookup(cell_a) - lookup(cell_b))
