"""Validation-only oracles: independent reference computations that the tests
compare the runtime closed forms against.  None of them is on a command's
path, so they live with the tests (and only they need scipy).

- ``block_unitary_expm``: scaling-and-squaring exponential of the block
  generator, independent of the rank-one closed form;
- ``dephased_reference``: exact diagonal of the dephased layer dynamics via
  the unistochastic kernel |U|^2 of the complex block unitary;
- ``dirichlet_filter_oracle``: operator-level Dirichlet filtering;
- ``averaged_fejer_quadrature``: adaptive Simpson quadrature of the
  window-averaged Fejér kernel;
- ``rl_filtered_distribution_per_string``: the dither average evaluated
  string by string, one Fejér kernel over all n**m strings per draw;
- ``offpeak_grid_max``: numeric maximum of F_p over the off-peak region.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from fejercert.fejer import fejer_kernel
from fejercert.instance import ProblemInstance
from fejercert.mixer import Envelope, MixerConvention
from fejercert.oracle import block_unitary
from fejercert.rl import DitherWindow, RLLaw, energy_gap


def block_unitary_expm(
    n: int, beta: float, convention: MixerConvention = MixerConvention.ADJACENCY
) -> np.ndarray:
    """Scaling-and-squaring exponential of the block generator, independent
    of the closed form."""
    adjacency = np.ones((n, n)) - np.eye(n)
    if convention is MixerConvention.NORMALIZED:
        adjacency = adjacency / n
    return expm(-1j * beta * adjacency)


def dephased_reference(
    inst: ProblemInstance,
    gammas: Sequence[float],
    betas: Sequence[float],
    convention: MixerConvention = MixerConvention.ADJACENCY,
    v0: np.ndarray | None = None,
) -> Envelope:
    """Exact diagonal of the dephased layer dynamics.

    Cost layers act trivially on diagonals; each mixer layer applies the
    unistochastic kernel |U|^2 built from the complex block unitary.  This
    path is independent of the trigonometric closed-form kernels and must
    agree with them bit-for-bit up to rounding.
    """
    if len(gammas) != len(betas):
        raise ValueError("gamma and beta schedules must have equal length")
    n, m = inst.n, inst.m
    if v0 is None:
        diag = np.full(inst.size, 1.0 / inst.size)
    else:
        diag = np.asarray(v0, dtype=float).copy()
    for beta in betas:
        kernel = np.abs(block_unitary(n, beta, convention)) ** 2
        v = diag.reshape((n,) * m, order="F")
        for axis in range(m):
            v = np.moveaxis(np.tensordot(kernel, v, axes=([1], [axis])), 0, axis)
        diag = np.ascontiguousarray(v.reshape(-1, order="F"))
    return Envelope(diag)


def dirichlet_filter_oracle(
    env: Envelope, inst: ProblemInstance, gamma: float, p: int
) -> np.ndarray:
    """Operator-level filter oracle.

    Builds the normalized Dirichlet operator of the optimum-anchored cost as
    its eigenvalue map u(z) = (p+1)^(-1/2) sum_r exp(-i r gamma (E(z)-E*)),
    weights the envelope by |u(z)|^2, and normalizes.  Anchoring at the
    optimal energy makes the per-layer target rotation a global phase, so no
    separate target-phase input is needed.
    """
    if p < 0:
        raise ValueError("order must be nonnegative")
    if env.size != inst.size:
        raise ValueError("envelope does not match the instance")
    offsets = (inst.energy - inst.e_star()).astype(float)
    r = np.arange(p + 1, dtype=float)
    eig = np.exp(-1j * gamma * np.outer(offsets, r)).sum(axis=1) / math.sqrt(p + 1)
    weights = env.probs * (eig.real**2 + eig.imag**2)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("zero total filter weight")
    return weights / total


def averaged_fejer_quadrature(
    p: int, gamma: float, delta_e: float, w: DitherWindow, tol: float = 1e-8
) -> float:
    """Adaptive Simpson quadrature of
    integral of w(u) F_p((gamma+u) delta_e) du over [-Gamma, Gamma]."""

    def f(u: float) -> float:
        return fejer_kernel(p, (gamma + u) * delta_e) / (2.0 * w.half_width)

    return _adaptive_simpson(f, -w.half_width, w.half_width, tol)


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(f, a, b, fa, fb, fm, whole, tol, depth=40)


def _simpson_recurse(f, a, b, fa, fb, fm, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = tol / 2.0
    return _simpson_recurse(f, a, mid, fa, fm, flm, left, half, depth - 1) + _simpson_recurse(
        f, mid, b, fm, fb, frm, right, half, depth - 1
    )


def offpeak_grid_max(p: int, delta: float, points: int = 4096) -> float:
    """Numeric maximum of F_p over a grid of the off-peak region |theta| in
    [delta, pi], for checking the analytic off-peak bound."""
    if not 0.0 < delta <= math.pi:
        raise ValueError("delta must lie in (0, pi]")
    grid = np.linspace(delta, math.pi, points)
    return float(fejer_kernel(p, grid).max())


def rl_filtered_distribution_per_string(
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
    """Monte Carlo average over dither draws u of the per-u filtered law,
    accumulated per string; the same draws as ``rl_filtered_distribution``."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if p < 0:
        raise ValueError("order must be nonnegative")
    if env.size != inst.size:
        raise ValueError("envelope does not match the instance")
    gap = energy_gap(inst)
    if gap == 0.0:
        raise ValueError("zero energy gap: a non-optimal string shares the optimal energy")

    offsets = (inst.energy - inst.e_star()).astype(float)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-w.half_width, w.half_width, size=samples)

    total = np.zeros(env.size)
    total_sq = np.zeros(env.size)
    subset_masses = [] if subset is not None else None
    for u in draws:
        weights = env.probs * fejer_kernel(p, (gamma + u) * offsets)
        mass = float(weights.sum())
        # a positive condition, so that a NaN mass fails it
        if not 0.0 < mass < math.inf:
            raise ValueError(f"filter denominator {mass} at a dither draw is zero or not finite")
        law = weights if pooled else weights / mass
        total += law
        total_sq += law**2
        if subset_masses is not None:
            subset_masses.append(float(law[subset].sum()))

    mean = total / samples
    if pooled:
        norm = float(mean.sum())
        probs = mean / norm
        sub_mass = float(probs[subset].sum()) if subset is not None else None
        return RLLaw(
            probs=probs,
            stderr=np.zeros(env.size),
            samples=samples,
            seed=seed,
            pooled=True,
            subset_mass=sub_mass,
            subset_stderr=None,
        )
    if samples > 1:
        variance = (total_sq - samples * mean**2) / (samples - 1)
        stderr = np.sqrt(np.maximum(variance, 0.0) / samples)
    else:
        stderr = np.zeros(env.size)
    sub_mass = sub_err = None
    if subset_masses is not None:
        arr = np.asarray(subset_masses)
        sub_mass = float(arr.mean())
        sub_err = float(arr.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return RLLaw(
        probs=mean,
        stderr=stderr,
        samples=samples,
        seed=seed,
        pooled=False,
        subset_mass=sub_mass,
        subset_stderr=sub_err,
    )
