"""Dithered (angle-averaged) Fejér kernels and the averaged off-peak bound.

Averaging the base cost angle over a symmetric window trades the wrapped
phase gap for an ordinary energy gap: oscillatory cross-terms in the squared
Dirichlet sum decay through the window's Fourier transform, so off-peak mass
stays bounded even without exact lattice normalization.  The averaged
bound Mbar takes the place of M_p(delta) in the ratio parameter, so the
averaged success bound is ``planner.ratio_bounds`` at (p+1) C / Mbar.  The
dither window is uniform on [-Gamma, Gamma].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fejer import _check_order, filtered_distribution
from .instance import GapScope, ProblemInstance, check_phase


@dataclass(frozen=True)
class DitherWindow:
    """Symmetric dither density for the base cost angle.

    The uniform window on [-half_width, half_width] has Fourier transform
    sin(Gamma xi)/(Gamma xi) with value 1 at xi = 0.
    """

    half_width: float

    def __post_init__(self) -> None:
        # the span 2*half_width must be a finite float for the uniform draw
        if not 0.0 < 2.0 * self.half_width < math.inf:
            raise ValueError("window half-width must be positive, with a finite span")


# Up to this order the exact averaged bound sums its p terms.
_SUMMED_MAX_ORDER = 1024
# Kernel values a block of dither draws holds (one draw, when there are more levels).
_BLOCK_VALUES = 4096


class AveragedOffpeakBound(NamedTuple):
    exact: float
    log_form: float


def averaged_offpeak_bound(p: int, half_width: float, gap: float) -> AveragedOffpeakBound:
    """Off-peak bounds for the uniform window at energy gap g:

        exact    = 1 + (2/(Gamma g)) sum_{k=1..p} (1 - k/(p+1))/k
        log_form = 1 + 2 ln(p+1)/(Gamma g)

    The partial-sum form is never larger than the logarithmic one.  The sum
    equals H_p - p/(p+1) with the harmonic number H_p.
    """
    _check_order(p)
    if half_width <= 0 or gap <= 0:
        raise ValueError("half-width and gap must be positive")
    scale = 2.0 / (half_width * gap)
    if p <= _SUMMED_MAX_ORDER:
        k = np.arange(1, p + 1, dtype=float)
        total = float(np.sum((1.0 - k / (p + 1)) / k))
    else:  # H_p from its asymptotic series; the next term is below 1e-20 here
        x = 1.0 / p
        total = math.log(p) + np.euler_gamma + x / 2 - x**2 / 12 + x**4 / 120 - p / (p + 1)
    exact = 1.0 + scale * total
    log_form = 1.0 + scale * math.log(p + 1)
    if not (math.isfinite(exact) and math.isfinite(log_form)):
        raise ValueError("averaged off-peak bound overflows: half-width times gap is too small")
    return AveragedOffpeakBound(exact, log_form)


def energy_gap(inst: ProblemInstance) -> float:
    """Minimal |E(z) - E_star| over non-optimal strings (inf if none)."""
    e_star, values = inst.e_star(), inst.levels.values
    counted = np.flatnonzero(inst.gap_levels(GapScope.ALL_STRINGS)).tolist()
    return float(min((abs(values[i] - e_star) for i in counted), default=math.inf))


def optimal_level(inst: ProblemInstance) -> int:
    """The position of E* among the energy levels.  The law's mass there is
    the success mass, so Omega* must fill the level: a string outside it at
    E* is a zero energy gap, and raises ValueError."""
    e_star = inst.e_star()
    star = bisect.bisect_left(inst.levels.values, e_star)
    if inst.gap_levels(GapScope.ALL_STRINGS)[star]:
        raise ValueError(f"zero energy gap: a string outside the optimal set Omega* "
                         f"shares the optimal energy E* = {e_star}")
    return star


@dataclass(frozen=True)
class RLLaw:
    """The dither-averaged law by energy level: each level's mean over draws
    of F/M, its Fejér weight over the draw's denominator (of F when pooled),
    and the sum of its squares; the law's mass on the optimal level, and the
    standard error of the per-draw masses.  A pooled law normalizes once, so
    it has neither sums of squares nor standard errors (None)."""

    level_mean: np.ndarray
    level_sum_sq: np.ndarray | None
    samples: int
    success_mass: float
    success_stderr: float | None


def rl_filtered_distribution(
    level_mass: np.ndarray,
    inst: ProblemInstance,
    gamma: float,
    w: DitherWindow,
    p: int,
    samples: int,
    seed: int,
    pooled: bool = False,
) -> RLLaw:
    """Monte Carlo average over dither draws u of the per-u filtered law,
    for an envelope with mass ``level_mass`` on each of ``inst.levels``.

    Matching the averaged-bound semantics, each draw produces a normalized
    law and the laws are averaged; ``pooled`` instead averages unnormalized
    weights and normalizes once (no bound is asserted for that mode).
    Deterministic under the seed.  F_p((gamma+u)(E(z)-E*)) depends on z only
    through its level, so the cost is O(samples * levels).
    """
    if samples < (1 if pooled else 2):
        raise ValueError(f"--samples {samples}: need at least 2 draws, or 1 when pooled; "
                         "one draw has no standard error")
    _check_order(p)
    star = optimal_level(inst)
    offsets = (np.array(inst.levels.values) - inst.e_star()).astype(float)
    # every draw's cost angle lies within |gamma| + half_width of zero
    check_phase(abs(gamma) + w.half_width, offsets, "cost angle plus dither half-width")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-w.half_width, w.half_width, size=samples)

    # per-level sums over draws of F/M (of F when pooled) and of its square,
    # and each draw's mass on the optimal level
    total, total_sq = np.zeros((2, offsets.size))
    success = []
    block = max(1, _BLOCK_VALUES // offsets.size)
    for start in range(0, samples, block):
        law = filtered_distribution(
            level_mass, (gamma + draws[start : start + block, None]) * offsets, p)
        kernel = law.kernel if pooled else law.kernel / law.denominator[:, None]
        success.append(kernel[:, star] * level_mass[star])
        square = kernel**2
        # the running sums enter at the block's first draw, so that each sum
        # runs draw by draw and the block size does not change its rounding
        kernel[0] += total
        square[0] += total_sq
        total, total_sq = kernel.sum(axis=0), square.sum(axis=0)

    mean = total / samples
    if pooled:
        pooled_mass = np.add.reduce(mean * level_mass)
        return RLLaw(mean, None, samples, float(mean[star] * level_mass[star] / pooled_mass), None)
    masses = np.concatenate(success)
    return RLLaw(mean, total_sq, samples, float(masses.mean()),
                 float(masses.std(ddof=1) / math.sqrt(samples)))
