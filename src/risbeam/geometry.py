"""Cell placement and per-cell path geometry for a planar reflecting surface.

Coordinate frame: the surface occupies the z = 0 plane with its center at
the origin.  Cells are indexed 1-based, n = 1..N along the x axis and
m = 1..M along the y axis, and the center of cell (n, m) is at

    ((N + 1 - 2n) * d_x / 2,  (M + 1 - 2m) * d_y / 2,  0).

Per-cell quantities are stored as M x N arrays addressed [m-1, n-1], or as
(P, M*N) arrays over the row-major cells when evaluated for P points.
Angles are radians throughout; a placement's degrees become radians only
in ``antenna_points``.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import RisPanel, wrap_angle

THETA_LIMIT = math.nextafter(math.pi / 2.0, 0.0)

def cell_center_axes(panel: RisPanel) -> tuple[np.ndarray, np.ndarray]:
    """X coordinates of the N cell columns and Y coordinates of the M cell rows."""
    n = np.arange(1, panel.cols + 1, dtype=float)
    m = np.arange(1, panel.rows + 1, dtype=float)
    x = (panel.cols + 1 - 2.0 * n) * panel.cell_dx_m / 2.0
    y = (panel.rows + 1 - 2.0 * m) * panel.cell_dy_m / 2.0
    return x, y


def antenna_points(d, theta_deg, phi_deg) -> np.ndarray:
    """(P, 3) antenna positions at ranges d, elevations theta_deg and azimuths phi_deg (deg).

    The one place where a placement angle becomes radians.  Elevations are
    measured from the surface normal (+z) and azimuths from +x, taken mod
    360.  Elevations are clamped at THETA_LIMIT, just below pi/2, where the
    pattern cutoff zeroes the power; a valid Placement is never clamped.
    """
    theta = np.minimum(np.radians(theta_deg), THETA_LIMIT)
    phi = wrap_angle(np.radians(phi_deg))
    rho = d * np.sin(theta)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), d * np.cos(theta)])


def cell_paths(
    axes: tuple[np.ndarray, np.ndarray],
    points: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lengths and boresight numerators of the paths from antennas to every cell.

    ``axes`` is the pair of cell-center axes from ``cell_center_axes`` and
    ``points`` a (P, 3) array of antenna positions.  Returns ``out``, or a
    new (2, P, M*N) array, holding over the row-major cells: the path
    length r = |p - c| from the antenna p to the cell center c, and
    p . (p - c), which is r * |p| times the cosine of the path's angle to
    the antenna boresight (pointing at the surface center).  The cosine of
    the path's angle to the surface normal at the cell is p_z / r.

    A cell's x offset depends only on its column and its y offset only on
    its row, so the squares and boresight products are formed on the
    (P, N) and (P, M) axes and summed to (P, M, N) by ``_outer_sum``; p_z^2
    joins the x products before that sum.
    """
    x, y = axes
    count = points.shape[0]
    if out is None:
        out = np.empty((2, count, y.size * x.size))
    r, boresight = (a.reshape(count, y.size, x.size) for a in out)
    px, py, pz = (points[:, k : k + 1] for k in range(3))
    dx = px - x
    dy = py - y
    pz_sq = pz * pz
    _outer_sum(dx * dx, dy * dy, out=r)
    r += pz_sq[:, :, None]
    np.sqrt(r, out=r)
    _outer_sum(px * dx + pz_sq, py * dy, out=boresight)
    return out


def _outer_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[p, m, n] = a[p, n] + b[p, m]``, bit for bit as ``np.add`` forms
    it, except that a sum of two -0 may come out +0.

    numpy's broadcast add steps through rows of only N cells.  For several
    points the sums are formed instead as the batched product [b, 1] @ [1; a]
    (at most 2**15 cells, which channel._CHUNK_POINT_CELLS keeps below
    OpenBLAS's own threading): each entry is b * 1 + 1 * a, whose products
    are exact, so it rounds once, like the add.
    matmul ran the (128, 32, 16) sums of a 512-cell chunk about 3x faster;
    for one point on that panel (``link_state``) the add took half the
    time, and leaves OpenBLAS's buffers unallocated (0.26 MB less peak RSS
    in ``quantize``).
    """
    count, rows, cols = out.shape
    if count == 1:
        return np.add(a[:, None, :], b[:, :, None], out=out)
    left = np.ones((count, rows, 2))
    left[:, :, 0] = b
    right = np.ones((count, 2, cols))
    right[:, 1, :] = a
    return np.matmul(left, right, out=out)
