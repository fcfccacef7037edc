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

import numpy as np
from numpy.typing import ArrayLike

from .scenario import RisPanel

THETA_LIMIT = math.nextafter(math.pi / 2.0, 0.0)


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
