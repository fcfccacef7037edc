"""Threshold-based phase quantization and the threshold searches.

A q-bit quantizer with threshold gamma maps a continuous phase to level
rho_p when the phase falls in the half-open cyclic bin
[gamma + (p-1)*Omega, gamma + p*Omega), Omega = 2*pi/2**q.  Each search
takes the LinkState it searches (channel.link_state), plus its own
parameter, and reads the panel from ``state.scenario``.  The searches
differ only in their candidate threshold sets:

* dtpq       -- the M*N entries of the continuous phase matrix; optimal
                over all thresholds because the induced cell partition
                only changes when gamma crosses one of those entries.
* eipq       -- a uniform grid of step epsilon within one interval
                [0, Omega); sub-optimal, constant candidate count.
* fixed      -- a single constant threshold (the traditional baseline).

All three are one search, ``_search``, over their candidate array.  Two
or more candidates are scored on one threshold profile: the phases mod
Omega are sorted once, and xi at any threshold is then one binary search
and one prefix-sum lookup, so a search of K candidates costs
O((M*N + K) log M*N).  One candidate builds no profile, so fixed costs
O(M*N).  The winner's shifts and xi are recomputed exactly in row-major
order.  Ties within 1e-12 relative xi resolve to the smallest threshold
so that results are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkState, power_dbm_from_xi
from .scenario import TWO_PI, RisPanel

# Candidates whose xi is within this relative slack of the best are treated
# as ties and resolved to the smallest threshold.
TIE_REL_TOL = 1e-12

# Upper bound on the eipq grid size K (~10^6 thresholds).
EIPQ_GUARD_CANDIDATES = 1 << 20


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of a threshold search.

    ``shifts`` holds the per-cell shifts in radians and ``level_indices``
    the same shifts as indices into the panel's levels.  ``threshold`` is
    None only for the continuous design, whose ``shifts`` are the
    continuous phase array and whose ``level_indices`` are None (see
    analysis.design).
    """

    threshold: float | None
    shifts: np.ndarray
    level_indices: np.ndarray | None
    xi: float
    received_power_dbm: float
    candidates_evaluated: int


def quantize_matrix(phases: np.ndarray, gamma: float | np.ndarray, panel: RisPanel) -> np.ndarray:
    """Level indices of a phase array quantized at threshold gamma.

    ``gamma`` is one threshold or an array broadcast against the phases.
    A phase lands in level p's cyclic bin [gamma + (p-1)*Omega, gamma + p*Omega).
    With (k, u) = divmod(phase, Omega), exact here, and (k_g, u_g) that of
    gamma, the bin is k - k_g, one lower when u < u_g: a phase equal to gamma
    lands in bin 0, and any finite phase where its reduction mod 2*pi does.
    This equals floor(mod(phase - gamma, 2*pi) / Omega) mod 2**q wherever
    that expression does not round across a bin edge.  _profile_xi scores
    the partition of this same split.
    """
    gamma = np.asarray(gamma, dtype=float)
    outside = gamma[~((0.0 <= gamma) & (gamma < TWO_PI))]
    if outside.size:
        raise ValueError(f"threshold must lie in [0, 2*pi), got {outside[0]}")
    k, u = np.divmod(np.asarray(phases, dtype=float), panel.omega)
    k_g, u_g = np.divmod(gamma, panel.omega)
    return (k - k_g - (u < u_g)).astype(np.intp) % panel.num_levels


def _profile_xi(state: LinkState, gammas: np.ndarray) -> np.ndarray:
    """xi at each threshold in ``gammas``, from one sort of the phases.

    Relative to gamma's split (k_g, u_g), a cell's term is
    a * exp(-j*u) * exp(j*(level_0 - k_g*Omega)), times exp(-j*Omega) when
    u < u_g.  With z = a * exp(-j*u) in ascending u and C its prefix sums,
    xi(gamma) = |C_total - (1 - exp(-j*Omega)) * C[#{u < u_g}]|.
    """
    panel = state.scenario.panel
    _, u = np.divmod(state.phase.ravel(), panel.omega)
    order = np.argsort(u)
    u_sorted = u[order]
    z = state.amplitude.ravel()[order] * np.exp(-1j * u_sorted)
    prefix = np.concatenate(([0.0], np.cumsum(z)))
    _, u_g = np.divmod(gammas, panel.omega)
    below = prefix[np.searchsorted(u_sorted, u_g, side="left")]
    return np.abs(prefix[-1] - (1.0 - np.exp(-1j * TWO_PI / panel.num_levels)) * below)


def _search(state: LinkState, gammas: np.ndarray) -> QuantizationResult:
    """Quantize at the best candidate threshold in ``gammas``.

    Two or more candidates are scored on the threshold profile, and
    near-ties within TIE_REL_TOL go to the smallest; one candidate is
    taken as it is.  The design's shifts and xi are exact, in row-major order.
    """
    gamma = float(gammas[0])
    if gammas.size > 1:
        xis = _profile_xi(state, gammas)
        gamma = float(np.min(gammas[xis >= float(np.max(xis)) * (1.0 - TIE_REL_TOL)]))
    panel = state.scenario.panel
    indices = quantize_matrix(state.phase, gamma, panel)
    shifts = np.take(panel.levels, indices)
    xi = state.xi(shifts)
    power = power_dbm_from_xi(panel, state.scenario.radio, xi)
    return QuantizationResult(gamma, shifts, indices, xi, power, gammas.size)


def dtpq(state: LinkState) -> QuantizationResult:
    """Dynamic threshold search over the M*N continuous phase entries.

    Optimal over all thresholds.  All M*N candidates are scored on one
    threshold profile, so the cost is O(M*N log M*N).
    """
    return _search(state, state.phase.ravel())


def eipq(state: LinkState, epsilon: float) -> QuantizationResult:
    """Equal-interval threshold search with grid step epsilon (rad).

    The K = floor(2*pi / (2**bits * epsilon)) candidates (k-1)*epsilon,
    k = 1..K, are sampled from one threshold profile in
    O((M*N + K) log M*N).  K may not exceed EIPQ_GUARD_CANDIDATES.
    """
    panel = state.scenario.panel
    bits, interval = panel.bits, panel.omega
    if not 0.0 < epsilon < interval:
        raise ValueError(
            f"epsilon must lie in (0, {interval:.6f}) rad = (0, {math.degrees(interval):g}) deg "
            f"for {bits}-bit quantization, got {epsilon:.6g} rad ({math.degrees(epsilon):.6g} deg)"
        )
    quotient = TWO_PI / (panel.num_levels * epsilon)  # inf if epsilon is subnormal
    if quotient >= EIPQ_GUARD_CANDIDATES + 1:
        count = math.floor(quotient) if math.isfinite(quotient) else quotient
        raise ValueError(
            f"eipq refused: epsilon = {epsilon:.6g} rad ({math.degrees(epsilon):.6g} deg) "
            f"gives {count} candidates, exceeding the guard of {EIPQ_GUARD_CANDIDATES}"
        )
    return _search(state, epsilon * np.arange(math.floor(quotient), dtype=float))


def fixed_threshold(state: LinkState, gamma: float) -> QuantizationResult:
    """Quantization at a single constant threshold (traditional baseline)."""
    return _search(state, np.array([float(gamma)]))
