"""Threshold-based phase quantization and the threshold searches.

A q-bit quantizer with threshold gamma maps a continuous phase to level
rho_p when the phase falls in the half-open cyclic bin
[gamma + (p-1)*Omega, gamma + p*Omega), Omega = 2*pi/2**q.  The searches
differ only in their candidate threshold sets:

* dtpq       -- the M*N entries of the continuous phase matrix; optimal
                over all thresholds because the induced cell partition
                only changes when gamma crosses one of those entries.
* eipq       -- a uniform grid of step epsilon within one interval
                [0, Omega); sub-optimal, constant candidate count.
* fixed      -- a single constant threshold (the traditional baseline).
* exhaustive -- every level assignment; guarded brute-force oracle.

dtpq and eipq score their candidates on one threshold profile: the
phases mod Omega are sorted once, and xi at any threshold is then one
binary search and one prefix-sum lookup, so a search of K candidates
costs O((M*N + K) log M*N).  The winner's
shifts and xi are recomputed exactly in row-major order.  Ties within
1e-12 relative xi resolve to the smallest threshold so that results are
reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkState, link_state, power_dbm_from_xi
from .geometry import TWO_PI, RisPanel
from .scenario import Scenario

# Candidates whose xi is within this relative slack of the best are treated
# as ties and resolved to the smallest threshold.
TIE_REL_TOL = 1e-12

# Upper bound on bits * cells for the exhaustive oracle (~10^6 assignments).
EXHAUSTIVE_GUARD_BITS = 20

# Level assignments the exhaustive oracle scores per vectorized block.
_EXHAUSTIVE_CHUNK = 1 << 14

# Upper bound on the eipq grid size K (~10^6 thresholds).
EIPQ_GUARD_CANDIDATES = 1 << 20


@dataclass
class ShiftMatrix:
    """Discrete per-cell shifts, stored as indices into the panel's level set."""

    level_indices: np.ndarray
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        self.level_indices = np.asarray(self.level_indices, dtype=np.intp)
        self.levels = tuple(float(v) for v in self.levels)
        if np.any(self.level_indices < 0) or np.any(self.level_indices >= len(self.levels)):
            raise ValueError(
                f"level indices must lie in 0..{len(self.levels) - 1}"
            )

    @property
    def values(self) -> np.ndarray:
        """Shift matrix in radians."""
        return np.take(np.asarray(self.levels), self.level_indices)

    @property
    def shape(self) -> tuple[int, int]:
        return self.level_indices.shape


@dataclass(frozen=True)
class QuantizationResult:
    """Outcome of a threshold search.

    ``threshold`` is None for the exhaustive oracle, where no single
    threshold applies, and for the continuous design, whose ``shifts`` are
    the continuous phase array (see analysis.design).
    """

    threshold: float | None
    shifts: ShiftMatrix | np.ndarray
    xi: float
    received_power_dbm: float
    candidates_evaluated: int


def _split(phases, bits: int):
    """(k, u) = divmod(phases, Omega): interval index and offset within it.

    The one split that both the binning and the threshold profile use, so
    the partition the profile scores at gamma is the one quantize_matrix
    applies at gamma.  divmod is exact here: u = fmod(phase, Omega).
    """
    return np.divmod(phases, TWO_PI / 2**bits)


def _bin_indices(phases: np.ndarray, gamma, bits: int) -> np.ndarray:
    """Cyclic half-open bin index of each phase for threshold gamma.

    With (k, u) the split of a phase and (k_g, u_g) that of gamma, the bin
    is k - k_g, one lower when u < u_g; a phase equal to gamma lands in
    bin 0.  This equals floor(mod(phase - gamma, 2*pi) / Omega) mod 2**q
    wherever that expression does not round across a bin edge.
    """
    k, u = _split(phases, bits)
    k_g, u_g = _split(gamma, bits)
    return (k - k_g - (u < u_g)).astype(np.intp) % 2**bits


def quantize_matrix(phases: np.ndarray, gamma: float, panel: RisPanel) -> ShiftMatrix:
    """Quantize a continuous phase array at threshold gamma.

    Every phase maps to exactly one level: the one whose cyclic bin
    [gamma + (p-1)*Omega, gamma + p*Omega) contains it.  Binning is cyclic,
    so any finite phase lands where its reduction mod 2*pi does.
    """
    if not 0.0 <= gamma < TWO_PI:
        raise ValueError(f"threshold must lie in [0, 2*pi), got {gamma}")
    indices = _bin_indices(np.asarray(phases, dtype=float), gamma, panel.bits)
    return ShiftMatrix(level_indices=indices, levels=panel.levels)


def residual_spread(phases: np.ndarray, shifts: ShiftMatrix) -> float:
    """Width of the smallest circular arc containing all residual phases.

    Residuals are mod(phase - shift, 2*pi).  Returns 0 when all residuals
    coincide; the result always lies in [0, 2*pi).
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != shifts.shape:
        raise ValueError(f"phase shape {phases.shape} != shift shape {shifts.shape}")
    residuals = np.sort(np.mod(phases - shifts.values, TWO_PI).ravel())
    if residuals.size == 1:
        return 0.0
    gaps = np.diff(residuals)
    wrap_gap = residuals[0] + TWO_PI - residuals[-1]
    return float(TWO_PI - max(np.max(gaps), wrap_gap))


def _profile_xi(state: LinkState, gammas: np.ndarray) -> np.ndarray:
    """xi at each threshold in ``gammas``, from one sort of the phases.

    Relative to gamma's split (k_g, u_g), a cell's term is
    a * exp(-j*u) * exp(j*(level_0 - k_g*Omega)), times exp(-j*Omega) when
    u < u_g.  With z = a * exp(-j*u) in ascending u and C its prefix sums,
    xi(gamma) = |C_total - (1 - exp(-j*Omega)) * C[#{u < u_g}]|.
    """
    bits = state.scenario.panel.bits
    _, u = _split(state.phase.ravel(), bits)
    order = np.argsort(u)
    u_sorted = u[order]
    z = state.amplitude.ravel()[order] * np.exp(-1j * u_sorted)
    prefix = np.concatenate(([0.0], np.cumsum(z)))
    _, u_g = _split(gammas, bits)
    below = prefix[np.searchsorted(u_sorted, u_g, side="left")]
    return np.abs(prefix[-1] - (1.0 - np.exp(-1j * TWO_PI / 2**bits)) * below)


def _at_threshold(state: LinkState, gamma: float, candidates: int) -> QuantizationResult:
    """Quantize at gamma; the shifts and xi are exact, in row-major order."""
    panel = state.scenario.panel
    shifts = quantize_matrix(state.phase, gamma, panel)
    xi = state.xi(shifts)
    return QuantizationResult(
        threshold=gamma,
        shifts=shifts,
        xi=xi,
        received_power_dbm=power_dbm_from_xi(panel, state.scenario.radio, xi),
        candidates_evaluated=candidates,
    )


def _search(state: LinkState, gammas: np.ndarray) -> QuantizationResult:
    """Keep the best candidate threshold, scored on the threshold profile.

    Near-ties within TIE_REL_TOL go to the smallest candidate.
    """
    xis = _profile_xi(state, gammas)
    tied = xis >= float(np.max(xis)) * (1.0 - TIE_REL_TOL)
    return _at_threshold(state, float(np.min(gammas[tied])), gammas.size)


def dtpq(scenario: Scenario, state: LinkState | None = None) -> QuantizationResult:
    """Dynamic threshold search over the M*N continuous phase entries.

    Optimal over all thresholds.  All M*N candidates are scored on one
    threshold profile, so the cost is O(M*N log M*N).
    """
    if state is None:
        state = link_state(scenario)
    return _search(state, state.phase.ravel())


def eipq(scenario: Scenario, epsilon: float, state: LinkState | None = None) -> QuantizationResult:
    """Equal-interval threshold search with grid step epsilon (rad).

    The K = floor(2*pi / (2**bits * epsilon)) candidates (k-1)*epsilon,
    k = 1..K, are sampled from one threshold profile in
    O((M*N + K) log M*N).  K may not exceed EIPQ_GUARD_CANDIDATES.
    """
    bits = scenario.panel.bits
    interval = TWO_PI / 2**bits
    if not 0.0 < epsilon < interval:
        raise ValueError(
            f"epsilon must lie in (0, {interval:.6f}) for {bits}-bit quantization, "
            f"got {epsilon}"
        )
    count = int(math.floor(TWO_PI / (2**bits * epsilon)))
    if count > EIPQ_GUARD_CANDIDATES:
        raise ValueError(
            f"eipq refused: epsilon = {epsilon:.6g} rad ({math.degrees(epsilon):.6g} deg) "
            f"gives {count} candidates, exceeding the guard of {EIPQ_GUARD_CANDIDATES}"
        )
    if state is None:
        state = link_state(scenario)
    return _search(state, epsilon * np.arange(count, dtype=float))


def fixed_threshold(
    scenario: Scenario, gamma: float, state: LinkState | None = None
) -> QuantizationResult:
    """Quantization at a single constant threshold (traditional baseline)."""
    if state is None:
        state = link_state(scenario)
    return _at_threshold(state, float(gamma), 1)


def exhaustive_search(scenario: Scenario, state: LinkState | None = None) -> QuantizationResult:
    """Brute-force oracle over all 2**(bits*M*N) level assignments.

    Refuses panels with bits * M * N > EXHAUSTIVE_GUARD_BITS.  Ties in xi
    resolve to the lexicographically smallest row-major index assignment.
    """
    if state is None:
        state = link_state(scenario)
    panel = state.scenario.panel
    total_bits = panel.bits * panel.num_cells
    if total_bits > EXHAUSTIVE_GUARD_BITS:
        raise ValueError(
            f"exhaustive search refused: bits * cells = {total_bits} exceeds the "
            f"guard of {EXHAUSTIVE_GUARD_BITS}"
        )

    cells = panel.num_cells
    num_levels = panel.num_levels
    levels = np.asarray(panel.levels)
    phases = state.phase.ravel()
    amplitude = state.amplitude.ravel()
    # term[c, l]: contribution of cell c when assigned level l.
    term = amplitude[:, None] * np.exp(1j * (levels[None, :] - phases[:, None]))

    # Row-major cell 0 is the most significant digit, so ascending config
    # index enumerates assignments in lexicographic level-index order.
    weights = num_levels ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    total = num_levels**cells
    best_xi = -1.0
    best_index = 0
    cell_range = np.arange(cells)
    for lo in range(0, total, _EXHAUSTIVE_CHUNK):
        idx = np.arange(lo, min(lo + _EXHAUSTIVE_CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % num_levels
        sums = np.abs(np.sum(term[cell_range[None, :], digits], axis=1))
        # earliest near-tied maximizer, so exact ties (equal up to float
        # noise) resolve to the lowest level indices
        local = int(np.argmax(sums >= np.max(sums) * (1.0 - TIE_REL_TOL)))
        if sums[local] > best_xi * (1.0 + TIE_REL_TOL):
            best_xi = float(sums[local])
            best_index = int(idx[local])

    digits = (best_index // weights) % num_levels
    shifts = ShiftMatrix(
        level_indices=digits.reshape(panel.rows, panel.cols), levels=panel.levels
    )
    xi = state.xi(shifts)
    return QuantizationResult(
        threshold=None,
        shifts=shifts,
        xi=xi,
        received_power_dbm=power_dbm_from_xi(panel, state.scenario.radio, xi),
        candidates_evaluated=total,
    )
