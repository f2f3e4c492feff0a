"""Closed-form block-XY transition kernels and mixer-envelope propagation.

A single mixer layer, classicalized by taking entrywise modulus-squares of
the block unitary, is a doubly stochastic kernel on [n]^m that factorizes
over blocks.  Each block kernel is determined by two scalars:

    diag    = 1 - 4(n-1)/n^2 * sin^2(n*beta/2)
    offdiag = 4/n^2 * sin^2(n*beta/2)

Off-diagonal entries vanish exactly at the resonances beta in (2pi/n)Z,
where the kernel degenerates to the identity.  Every mixer angle beta is an
angle of the complete-graph generator A(K_n) on each block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .instance import ProblemInstance

RESONANCE_TOL = 1e-12
ENVELOPE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TransitionKernel:
    """Doubly stochastic single-block kernel, fully specified by two scalars."""

    n: int
    diag: float
    offdiag: float

    def matrix(self) -> np.ndarray:
        out = np.full((self.n, self.n), self.offdiag)
        np.fill_diagonal(out, self.diag)
        return out

    def is_identity(self) -> bool:
        return self.offdiag == 0.0


@dataclass(frozen=True)
class Envelope:
    """Probability distribution over [n]^m in canonical string order."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        # positive conditions, so that a NaN entry fails them
        if not np.all(self.probs >= -1e-12):
            raise ValueError("envelope entries must be nonnegative")
        total = float(self.probs.sum())
        if not abs(total - 1.0) <= ENVELOPE_SUM_TOL:
            raise ValueError(f"envelope mass {total} deviates from 1 beyond tolerance")

    @property
    def size(self) -> int:
        return self.probs.size


def uniform_envelope(n: int, m: int) -> Envelope:
    """Diagonal of the uniform one-hot product state."""
    size = n**m
    return Envelope(np.full(size, 1.0 / size))


def external_envelope(probs: Sequence[float]) -> Envelope:
    return Envelope(np.asarray(probs, dtype=float))


def check_block_phase(n: int, beta: float) -> None:
    """Reject a mixer angle whose block phase n * beta is not finite."""
    # a positive condition, so that a NaN phase fails it
    if not abs(n * beta) < math.inf:
        raise ValueError(f"mixer angle {beta!r} gives a non-finite block phase n*beta")


def resonance_distance(n: int, beta: float) -> float:
    """Distance from beta to the nearest resonance in (2pi/n)Z."""
    check_block_phase(n, beta)
    period = 2.0 * math.pi / n
    return abs(math.remainder(beta, period))


class PrimitivityCheck(NamedTuple):
    primitive: bool
    resonance_distance: float


def is_primitive(n: int, beta: float) -> PrimitivityCheck:
    """Whether the single-block kernel at this angle has strictly positive
    entries, plus the distance to the nearest resonance."""
    if n < 2:
        raise ValueError("primitivity requires n >= 2")
    dist = resonance_distance(n, beta)
    return PrimitivityCheck(dist > RESONANCE_TOL, dist)


def single_block_kernel(n: int, beta: float) -> TransitionKernel:
    """Single-block kernel in closed form.

    Angles within RESONANCE_TOL of a resonance are snapped to the exact
    identity kernel, so near-resonant floating-point angles are flagged as
    non-primitive rather than carrying ~1e-30 stray mass.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return TransitionKernel(n=1, diag=1.0, offdiag=0.0)
    if resonance_distance(n, beta) <= RESONANCE_TOL:
        return TransitionKernel(n=n, diag=1.0, offdiag=0.0)
    s2 = math.sin(n * beta / 2.0) ** 2
    return TransitionKernel(
        n=n,
        diag=1.0 - 4.0 * (n - 1) / n**2 * s2,
        offdiag=4.0 / n**2 * s2,
    )


def averaged_block_kernel(n: int) -> TransitionKernel:
    """Angle-averaged kernel: diag = 1 - 2/n + 2/n^2, offdiag = 2/n^2."""
    if n < 2:
        raise ValueError("averaged kernel requires n >= 2")
    return TransitionKernel(n=n, diag=1.0 - 2.0 / n + 2.0 / n**2, offdiag=2.0 / n**2)


def second_eigenvalue(kernel: TransitionKernel) -> float:
    """Modulus of the second-largest eigenvalue; |diag - offdiag| for the
    two-scalar form (the top eigenvalue is 1 on the uniform vector)."""
    if kernel.n < 2:
        raise ValueError("second eigenvalue requires n >= 2")
    return abs(kernel.diag - kernel.offdiag)


def apply_block_kernel(kernel: TransitionKernel, env: Envelope, m: int) -> Envelope:
    """Apply the m-fold tensor-product kernel to an envelope.

    Contracts one block axis at a time, never materializing the n^m x n^m
    matrix: O(m * n^(m+1)) work on an O(n^m) vector.
    """
    n = kernel.n
    if env.size != n**m:
        raise ValueError(f"envelope length {env.size} does not match n**m = {n ** m}")
    if kernel.is_identity():
        return Envelope(env.probs.copy())
    mat = kernel.matrix()
    v = env.probs.reshape((n,) * m, order="F")
    for axis in range(m):
        v = np.moveaxis(np.tensordot(mat, v, axes=([1], [axis])), 0, axis)
    return Envelope(np.ascontiguousarray(v.reshape(-1, order="F")))


def mixer_envelope(inst: ProblemInstance, v0: Envelope, betas: Sequence[float]) -> Envelope:
    """Propagate an initial diagonal through one kernel per layer angle."""
    if v0.size != inst.size:
        raise ValueError("initial envelope does not match the instance")
    env = v0
    for beta in betas:
        kernel = single_block_kernel(inst.n, beta)
        env = apply_block_kernel(kernel, env, inst.m)
    return env


def envelope_mass(env: Envelope, subset) -> float:
    """Total envelope probability on a subset of strings.

    ``subset`` is an iterable of canonical indices; a zero-mass result is
    reported with a warning.
    """
    idx = _subset_indices(env.size, subset)
    mass = float(env.probs[idx].sum())
    if mass == 0.0:
        warnings.warn("subset carries zero envelope mass", RuntimeWarning, stacklevel=2)
    return mass


def _subset_indices(size: int, subset) -> np.ndarray:
    """Canonical indices of a nonempty subset, each in [0, size)."""
    idx = np.asarray(subset if isinstance(subset, np.ndarray) else list(subset))
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("subset must be a list of canonical string indices")
    if idx.min() < 0 or idx.max() >= size:
        raise ValueError("subset index out of range")
    return idx
