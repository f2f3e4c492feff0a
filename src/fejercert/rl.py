"""Dithered (angle-averaged) Fejér kernels and the averaged success bound.

Averaging the base cost angle over a symmetric window trades the wrapped
phase gap for an ordinary energy gap: oscillatory cross-terms in the squared
Dirichlet sum decay through the window's Fourier transform, so off-peak mass
stays bounded even without exact lattice normalization.  The dither window
is uniform on [-Gamma, Gamma].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fejer import _check_c, fejer_kernel
from .instance import ProblemInstance
from .mixer import Envelope


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


class AveragedOffpeakBound(NamedTuple):
    exact: float
    log_form: float


def averaged_offpeak_bound(p: int, half_width: float, gap: float) -> AveragedOffpeakBound:
    """Off-peak bounds for the uniform window at energy gap g:

        exact    = 1 + (2/(Gamma g)) sum_{k=1..p} (1 - k/(p+1))/k
        log_form = 1 + 2 ln(p+1)/(Gamma g)

    The partial-sum form is never larger than the logarithmic one.
    """
    if p < 0:
        raise ValueError("order must be nonnegative")
    if half_width <= 0 or gap <= 0:
        raise ValueError("half-width and gap must be positive")
    scale = 2.0 / (half_width * gap)
    k = np.arange(1, p + 1, dtype=float)
    exact = 1.0 + scale * float(np.sum((1.0 - k / (p + 1)) / k))
    log_form = 1.0 + scale * math.log(p + 1)
    if not (math.isfinite(exact) and math.isfinite(log_form)):
        raise ValueError("averaged off-peak bound overflows: half-width times gap is too small")
    return AveragedOffpeakBound(exact, log_form)


def rl_success_bound(p: int, c_beta: float, mbar: float) -> float:
    """Averaged-filter success bound (p+1)C / ((p+1)C + Mbar(1-C)).

    Substituting the exact-lattice off-peak bound for Mbar reproduces the
    unaveraged success bound identically.
    """
    if mbar < 0:
        raise ValueError("off-peak bound must be nonnegative")
    _check_c(c_beta)
    num = (p + 1) * c_beta
    return num / (num + mbar * (1.0 - c_beta))


def energy_gap(inst: ProblemInstance) -> float:
    """Minimal |E(z) - E_star| over non-optimal strings (inf if none)."""
    omega = inst.optimal_indices()
    mask = np.ones(inst.size, dtype=bool)
    mask[omega] = False
    if not mask.any():
        return math.inf
    return float(np.abs(inst.energy[mask] - inst.e_star()).min())


@dataclass(frozen=True)
class RLLaw:
    """Monte Carlo estimate of the dither-averaged measurement law.

    ``subset_mass``/``subset_stderr`` carry the per-draw mass statistics of
    the tracked subset (the per-draw masses are correlated across strings,
    so the subset error cannot be derived from the per-string errors).
    """

    probs: np.ndarray
    stderr: np.ndarray
    samples: int
    subset_mass: float | None = None
    subset_stderr: float | None = None


def rl_filtered_distribution(
    env: Envelope,
    inst: ProblemInstance,
    gamma: float,
    w: DitherWindow,
    p: int,
    samples: int,
    seed: int,
    pooled: bool = False,
    subset: np.ndarray | None = None,
) -> RLLaw:
    """Monte Carlo average over dither draws u of the per-u filtered law.

    Matching the averaged-bound semantics, each draw produces a normalized
    law and the laws are averaged; ``pooled`` instead averages unnormalized
    weights and normalizes once (no bound is asserted for that mode).
    Deterministic under the seed.

    The Fejér weight F_p((gamma+u)(E(z)-E*)) depends on z only through its
    energy level, so each draw evaluates the kernel once per level: the cost
    is O(samples * levels + n**m).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if p < 0:
        raise ValueError("order must be nonnegative")
    if env.size != inst.size:
        raise ValueError("envelope does not match the instance")
    e_star = inst.e_star()
    if np.count_nonzero(inst.energy == e_star) > inst.optimal_indices().size:
        raise ValueError("zero energy gap: a non-optimal string shares the optimal energy")

    offsets, level_of = np.unique(inst.energy - e_star, return_inverse=True)
    offsets = offsets.astype(float)
    level_env = np.bincount(level_of, weights=env.probs)
    if subset is not None:
        # the levels the subset meets, and its envelope mass on each
        subset_levels, subset_of = np.unique(level_of[subset], return_inverse=True)
        subset_env = np.bincount(subset_of, weights=env.probs[subset])
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-w.half_width, w.half_width, size=samples)

    # per-level sums over draws of F/M (of F when pooled) and of its square
    total = np.zeros(offsets.size)
    total_sq = np.zeros(offsets.size)
    subset_masses = []
    # a block of draws x levels holds at most n**m kernel values
    block = max(1, inst.size // offsets.size)
    for start in range(0, samples, block):
        kernel = fejer_kernel(p, (gamma + draws[start : start + block, None]) * offsets)
        masses = kernel @ level_env
        # a positive condition, so that a NaN mass fails it
        finite = (0.0 < masses) & (masses < math.inf)
        if not finite.all():
            raise ValueError(
                f"filter denominator {masses[~finite][0]} at a dither draw is zero or not finite"
            )
        if not pooled:
            kernel /= masses[:, None]
        total += kernel.sum(axis=0)
        total_sq += (kernel**2).sum(axis=0)
        if subset is not None and not pooled:
            subset_masses.append(kernel[:, subset_levels] @ subset_env)

    probs = env.probs * (total / samples)[level_of]
    stderr = np.zeros(env.size)
    sub_mass = sub_err = None
    if pooled:
        probs /= float(probs.sum())
        if subset is not None:
            sub_mass = float(probs[subset].sum())
    else:
        if samples > 1:
            variance = (env.probs**2 * total_sq[level_of] - samples * probs**2) / (samples - 1)
            stderr = np.sqrt(np.maximum(variance, 0.0) / samples)
        if subset is not None:
            arr = np.concatenate(subset_masses)
            sub_mass = float(arr.mean())
            sub_err = float(arr.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return RLLaw(
        probs=probs, stderr=stderr, samples=samples, subset_mass=sub_mass, subset_stderr=sub_err
    )

