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

from .instance import (
    DEFAULT_ENUMERATION_CAP,
    LevelIndex,
    ProblemInstance,
    capped_size,
    check_phase,
)
from .mixer import check_block_phase

NORM_TOL = 1e-10
# the two-sided 95% standard normal quantile, Phi^-1(0.975)
Z95 = 1.959963984540054
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
        check_norm(self.amplitudes)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def check_norm(amplitudes: np.ndarray) -> np.ndarray:
    """Reject a state vector, or a stack of them along the last axis, whose
    norm deviates from 1 beyond NORM_TOL; return the norms checked."""
    if amplitudes.ndim == 1:
        # sqrt(<x, x>): a fifth of np.linalg.norm's time on a 6^6 state
        norms = np.sqrt(np.vdot(amplitudes, amplitudes).real.reshape(1))
    else:
        norms = np.linalg.norm(amplitudes, axis=-1)
    # a positive condition, so that a NaN norm fails it
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if bad.any():
        raise ValueError(f"state norm {float(norms[bad].flat[0])} deviates from 1 beyond tolerance")
    return norms


def initial_state(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> EncodedState:
    """Uniform one-hot product state: every amplitude n**(-m/2)."""
    size = capped_size(n, m, cap)
    return EncodedState(n=n, m=m, amplitudes=np.full(size, n ** (-m / 2.0), dtype=complex))


def apply_cost(state: EncodedState, cost: LevelIndex, gamma: float) -> EncodedState:
    """Diagonal phase update: amplitude(z) *= exp(-i gamma E(z)).

    The phase depends on z only through its level, so exp is evaluated once
    per level and gathered to the strings through the level index.
    """
    if cost.of_string.shape != state.amplitudes.shape:
        raise ValueError("cost table does not match the state")
    phases = np.exp(-1j * gamma * cost.values.astype(float))[cost.of_string]
    # phases first: the operand order of a complex product fixes its last bit
    amps = np.multiply(phases, state.amplitudes, out=phases)
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
    phase * (v + coupling * column_sum), O(n^m) work per block, made in
    place on one copy of the state.
    """
    n, m = state.n, state.m
    phase, coupling = _block_coefficients(n, beta)
    amps = state.amplitudes.copy()
    v = amps.reshape((n,) * m, order="F")  # a view: block 0 varies fastest
    for axis in range(m):
        sums = v.sum(axis=axis, keepdims=True)
        np.multiply(coupling, sums, out=sums)
        np.add(v, sums, out=v)
        np.multiply(phase, v, out=v)
    return EncodedState(n=n, m=m, amplitudes=amps)


def simulate(
    inst: ProblemInstance,
    gammas: Sequence[float],
    betas: Sequence[float],
    cost_table: LevelIndex | None = None,
) -> EncodedState:
    """Alternate cost and mixer layers from the uniform initial state.

    ``cost_table`` defaults to the instance energies by level; pass the
    penalty's LevelIndex to drive the feasibility stage.  The state is
    capped like the instance's tables.  Every cost phase gamma * E(z) must
    be finite; the schedule is checked once on the level values, before the
    first layer.
    """
    if len(gammas) != len(betas):
        raise ValueError("gamma and beta schedules must have equal length")
    cost = inst.levels.index(inst.energy) if cost_table is None else cost_table
    for gamma in gammas:
        check_phase(gamma, cost.values)
    state = initial_state(inst.n, inst.m, cap=inst.cap)
    for gamma, beta in zip(gammas, betas):
        state = apply_cost(state, cost, gamma)
        state = apply_mixer(state, beta)
    return state


def projector_mass(state: EncodedState, indices: np.ndarray) -> float:
    """Probability mass of the state on a set of basis strings."""
    if indices.size == 0:
        return 0.0
    mass = float((np.abs(state.amplitudes[indices]) ** 2).sum())
    # rounding can carry the mass of a unit-norm state past 1; a NaN is kept
    return 1.0 if 1.0 < mass < math.inf else mass


class ShotReport(NamedTuple):
    counts: np.ndarray
    frequency: float
    ci_low: float
    ci_high: float


def sample_shots(dist: np.ndarray, shots: int, seed: int, subset: np.ndarray) -> ShotReport:
    """Multinomial sampling, deterministic under the seed; reports the subset
    hit frequency with its 95% Wilson score interval (Wilson, JASA 22:209,
    1927), which keeps a positive width at zero and at all hits."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots {shots} must lie in [1, 2**63 - 1]")
    probs = np.clip(np.asarray(dist, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    hits = int(counts[subset].sum()) if subset.size else 0
    z2 = Z95 * Z95
    center = (hits + z2 / 2.0) / (shots + z2)
    # hits * (shots - hits) is an exact Python int
    half = Z95 / (shots + z2) * math.sqrt(hits * (shots - hits) / shots + z2 / 4.0)
    return ShotReport(
        counts=counts,
        frequency=hits / shots,
        ci_low=0.0 if hits == 0 else center - half,
        ci_high=1.0 if hits == shots else center + half,
    )
