"""Validation-only oracles: independent reference computations that the tests
compare the runtime closed forms against.  None of them is on a command's
path, so they live with the tests (and only they need scipy).

- ``string_index``: the canonical index of a block string, the inverse of
  ``fejercert.instance.index_string``;
- ``block_unitary_expm``: scaling-and-squaring exponential of the block
  generator, independent of the rank-one closed form;
- ``dephased_reference``: exact diagonal of the dephased layer dynamics via
  the unistochastic kernel |U|^2 of the complex block unitary;
- ``dirichlet_filter_oracle``: operator-level Dirichlet filtering;
- ``dirichlet_kernel_sum``: the Fejér kernel as the squared Dirichlet sum,
  term by term, the reference for the closed form near its peaks;
- ``averaged_fejer_quadrature``: adaptive Simpson quadrature of the
  window-averaged Fejér kernel;
- ``rl_filtered_distribution_per_string``: the dither average evaluated
  string by string, one Fejér kernel over all n**m strings per draw;
- ``offpeak_grid_max``: numeric maximum of F_p over the off-peak region;
- ``window_fourier``, ``window_density`` and ``averaged_fejer``: the uniform
  dither window and the window-averaged Fejér weight in its Fourier form, a
  second evaluation path of the averaged kernel;
- ``lie_closure_dim``: numeric dimension of the Lie algebra generated by the
  invariant-sector generators, a probe and never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from fejercert.fejer import fejer_kernel
from fejercert.instance import ProblemInstance
from fejercert.mixer import Envelope
from fejercert.oracle import block_unitary
from fejercert.rl import DitherWindow, RLLaw, energy_gap

LIE_CLOSURE_TOL = 1e-9
LIE_MAX_DIM = 64


def string_index(z: Sequence[int], n: int) -> int:
    """Canonical index of a block string (block 0 fastest)."""
    idx = 0
    for b in reversed(range(len(z))):
        idx = idx * n + int(z[b])
    return idx


def block_unitary_expm(n: int, beta: float, normalized: bool = False) -> np.ndarray:
    """Scaling-and-squaring exponential of the block generator A(K_n), or of
    A(K_n)/n when ``normalized``, independent of the closed form."""
    adjacency = np.ones((n, n)) - np.eye(n)
    if normalized:
        adjacency = adjacency / n
    return expm(-1j * beta * adjacency)


def dephased_reference(
    inst: ProblemInstance,
    gammas: Sequence[float],
    betas: Sequence[float],
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
        kernel = np.abs(block_unitary(n, beta)) ** 2
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


def dirichlet_kernel_sum(p: int, theta) -> np.ndarray:
    """F_p(theta) = |sum_{r=0..p} e^{i r theta}|^2 / (p+1), summed term by
    term over a scalar or a 1-d array of angles."""
    total = np.exp(1j * np.outer(np.atleast_1d(theta), np.arange(p + 1))).sum(axis=1)
    return (total.real**2 + total.imag**2) / (p + 1)


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
        subset_mass=sub_mass,
        subset_stderr=sub_err,
    )


def window_fourier(w: DitherWindow, xi):
    """sin(Gamma xi)/(Gamma xi), exactly 1 at xi = 0."""
    arr = np.asarray(xi, dtype=float)
    # np.sinc(x) = sin(pi x)/(pi x), so rescale the argument.
    out = np.sinc(w.half_width * arr / math.pi)
    if out.ndim == 0:
        return float(out)
    return out


def window_density(w: DitherWindow, u):
    """Uniform density 1/(2 Gamma) on [-Gamma, Gamma], zero outside."""
    arr = np.asarray(u, dtype=float)
    inside = np.abs(arr) <= w.half_width
    return np.where(inside, 1.0 / (2.0 * w.half_width), 0.0)


def averaged_fejer(p: int, gamma: float, delta_e: float, w: DitherWindow) -> float:
    """Window-averaged Fejér weight at energy offset delta_e, via the Fourier
    form grouped by harmonic distance k:

        1 + 2 sum_{k=1..p} (1 - k/(p+1)) cos(k gamma dE) w_hat(k dE).

    Exactly p+1 at delta_e = 0.
    """
    if p < 0:
        raise ValueError("order must be nonnegative")
    if delta_e == 0.0:
        return float(p + 1)
    if p == 0:
        return 1.0
    k = np.arange(1, p + 1, dtype=float)
    weights = 1.0 - k / (p + 1)
    return 1.0 + 2.0 * float(
        np.sum(weights * np.cos(k * gamma * delta_e) * window_fourier(w, k * delta_e))
    )


@dataclass(frozen=True)
class LieClosureReport:
    dim: int
    full_unitary_algebra: bool
    hit_iteration_cap: bool


def lie_closure_dim(a: np.ndarray, b: np.ndarray, tol: float = LIE_CLOSURE_TOL) -> LieClosureReport:
    """Dimension of the real Lie algebra generated by {iA, iB}.

    Iteratively brackets, orthonormalizes against the current span under the
    trace inner product, and stops when no bracket contributes a direction
    above tolerance.  Reports whether the closure is all of u(d) (dimension
    d^2); the outcome is a numeric probe, never a proof.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("generators must be square matrices of equal shape")
    d = a.shape[0]
    if d > LIE_MAX_DIM:
        raise ValueError(f"sector dimension {d} exceeds probe cap {LIE_MAX_DIM}")
    for mat, name in ((a, "A"), (b, "B")):
        if not np.allclose(mat, mat.T, atol=1e-12):
            raise ValueError(f"generator {name} is not symmetric")

    basis: list = []

    def try_add(candidate: np.ndarray) -> bool:
        norm = np.linalg.norm(candidate)
        if norm < 1e-12:
            return False
        vec = candidate / norm
        for _ in range(2):  # re-orthogonalize once for numerical stability
            for el in basis:
                vec = vec - np.real(np.vdot(el, vec)) * el
        residual = np.linalg.norm(vec)
        if residual > tol:
            basis.append(vec / residual)
            return True
        return False

    frontier = []
    for gen in (1j * a, 1j * b):
        if try_add(gen):
            frontier.append(basis[-1])

    hit_cap = False
    max_sweeps = 10 * d * d
    sweeps = 0
    while frontier and len(basis) < d * d:
        sweeps += 1
        if sweeps > max_sweeps:
            hit_cap = True
            break
        new = []
        snapshot = list(basis)
        for x in frontier:
            for y in snapshot:
                if try_add(x @ y - y @ x):
                    new.append(basis[-1])
        frontier = new

    dim = len(basis)
    return LieClosureReport(dim=dim, full_unitary_algebra=dim == d * d, hit_iteration_cap=hit_cap)
