"""Statevector simulation on the encoded space and shot sampling.

The encoded qudit space [n]^m is simulated directly.  Per block, the mixer
unitary has the rank-one closed form

    <j| exp(-i beta A(K_n)) |k> = e^{i beta} (delta_jk + (e^{-i beta n} - 1)/n),

which every simulation path uses.

Randomness: every sampling routine takes an explicit seed and uses numpy's
PCG64 generator, which is bit-reproducible across platforms.  Parallel
repetitions should derive child seeds with ``numpy.random.SeedSequence(seed).spawn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .instance import DEFAULT_ENUMERATION_CAP, ProblemInstance, capped_size, check_phase
from .mixer import check_block_phase

NORM_TOL = 1e-10
# the multinomial sampler counts shots in int64
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class EncodedState:
    """Statevector over [n]^m in canonical string order."""

    n: int
    m: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.n**self.m,):
            raise ValueError("amplitude vector does not match n**m")
        norm = float(np.linalg.norm(self.amplitudes))
        # a positive condition, so that a NaN norm fails it
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond tolerance")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def initial_state(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> EncodedState:
    """Uniform one-hot product state: every amplitude n**(-m/2)."""
    size = capped_size(n, m, cap)
    return EncodedState(n=n, m=m, amplitudes=np.full(size, n ** (-m / 2.0), dtype=complex))


def apply_cost(state: EncodedState, energies: np.ndarray, gamma: float) -> EncodedState:
    """Diagonal phase update: amplitude(z) *= exp(-i gamma E(z))."""
    if energies.shape != state.amplitudes.shape:
        raise ValueError("energy table does not match the state")
    amps = state.amplitudes * np.exp(-1j * gamma * energies.astype(float))
    return EncodedState(n=state.n, m=state.m, amplitudes=amps)


def _block_coefficients(n: int, beta: float) -> tuple:
    check_block_phase(n, beta)
    phase = np.exp(1j * beta)
    coupling = (np.exp(-1j * beta * n) - 1.0) / n
    return phase, coupling


def block_unitary(n: int, beta: float) -> np.ndarray:
    """Single-block mixer unitary from the rank-one closed form."""
    phase, coupling = _block_coefficients(n, beta)
    return phase * (np.eye(n, dtype=complex) + coupling * np.ones((n, n)))


def apply_mixer(state: EncodedState, beta: float) -> EncodedState:
    """Apply the block-local mixer unitary to every block by axis contraction.

    Uses the rank-one structure: along each block axis the update is
    phase * (v + coupling * column_sum), O(n^m) work per block.
    """
    n, m = state.n, state.m
    phase, coupling = _block_coefficients(n, beta)
    v = state.amplitudes.reshape((n,) * m, order="F")
    for axis in range(m):
        sums = v.sum(axis=axis, keepdims=True)
        v = phase * (v + coupling * sums)
    amps = np.ascontiguousarray(v.reshape(-1, order="F"))
    return EncodedState(n=n, m=m, amplitudes=amps)


def simulate(
    inst: ProblemInstance,
    gammas: Sequence[float],
    betas: Sequence[float],
    cost_table: np.ndarray | None = None,
) -> EncodedState:
    """Alternate cost and mixer layers from the uniform initial state.

    ``cost_table`` defaults to the instance energies; pass the penalty table
    to drive the feasibility stage.  The instance already holds n**m-entry
    tables, so the state is not capped again.  Every cost phase gamma * E(z)
    must be finite; the schedule is checked once, before the first layer.
    """
    if len(gammas) != len(betas):
        raise ValueError("gamma and beta schedules must have equal length")
    energies = inst.energy if cost_table is None else np.asarray(cost_table)
    for gamma in gammas:
        check_phase(gamma, energies)
    state = initial_state(inst.n, inst.m, cap=inst.size)
    for gamma, beta in zip(gammas, betas):
        state = apply_cost(state, energies, gamma)
        state = apply_mixer(state, beta)
    return state


def projector_mass(state: EncodedState, indices: np.ndarray) -> float:
    """Probability mass of the state on a set of basis strings."""
    if indices.size == 0:
        return 0.0
    return float((np.abs(state.amplitudes[indices]) ** 2).sum())


class ShotReport(NamedTuple):
    counts: np.ndarray
    frequency: float
    ci_low: float
    ci_high: float


def sample_shots(dist: np.ndarray, shots: int, seed: int, subset: np.ndarray) -> ShotReport:
    """Multinomial sampling, deterministic under the seed; reports the subset
    hit frequency with a 95% normal-approximation binomial interval."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots {shots} must lie in [1, 2**63 - 1]")
    probs = np.clip(np.asarray(dist, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    hits = int(counts[subset].sum()) if subset.size else 0
    freq = hits / shots
    half = 1.96 * math.sqrt(max(freq * (1.0 - freq), 0.0) / shots)
    return ShotReport(
        counts=counts,
        frequency=freq,
        ci_low=max(0.0, freq - half),
        ci_high=min(1.0, freq + half),
    )
