"""Penalty level-set analysis, descent and connectivity checks, the
penalty-phase gap, the invariant-sector mixer, and the numerical angle search.

The feasibility stage reuses the filter machinery with penalty-only phases:
the target phase is 0 (the feasible level), the gap delta_F is the minimal
wrapped distance of nonzero penalty phases gamma*t from 0, and the ratio
bound ``planner.ratio_bounds`` applies verbatim with the feasible envelope
mass.

Under the default m = n collision penalty the level stage and the angle
search run in the sector invariant under block permutations and symbol
relabelings that the instance holds (``ProblemInstance.sector``), one
dimension per partition of m into at most n parts.  The m != n default
penalty is zero on every string, so its one level needs no table, no
relabel scan and no search: where L_0 is empty or holds every string, the
norm-preserving circuit keeps pi_F = c_F at every schedule.  Only a penalty
given in the document is handled over all n**m strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import oracle
from .instance import (
    Levels,
    PhaseModel,
    ProblemInstance,
    SectorBasis,
    check_phase,
    collision_penalty,
    level_phase_gap,
)
from .fejer import _check_order
from .mixer import check_block_phase, resonance_distance


# ---------------------------------------------------------------------------
# Level sets and the level-transition graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelGraph:
    """Undirected graph on active penalty levels; an edge means nonzero mixer
    coupling between the uniform level-set vectors.  With the complete-graph
    block mixer every relabel pair couples with unit weight, so that is the
    case exactly when some single-block relabel joins the two levels."""

    vertices: tuple
    edges: tuple


def level_sets(inst: ProblemInstance) -> Levels:
    """The penalty levels t and their sizes |L_t|, over all n**m strings."""
    return inst.penalty_levels


def _relabel_pairs(labels: np.ndarray, k: int, n: int, m: int) -> tuple:
    """The ordered single-block-relabel pairs between the k classes of [n]^m
    given by ``labels`` (one class index per string) that occur, as arrays
    (src, dst) sorted by (src, dst).

    Each (block, symbol) pass is reduced to its distinct pairs before the
    merge, so memory stays proportional to n**m plus the pairs that occur,
    whatever k is."""
    idx = np.arange(n**m)
    codes = []
    for b in range(m):
        sym = (idx // n**b) % n
        for v in range(n):
            src = idx[sym != v]
            dst = src + (v - sym[src]) * n**b
            codes.append(np.unique(labels[src] * k + labels[dst]))
    return np.divmod(np.unique(np.concatenate(codes)), k)


def level_graph(inst: ProblemInstance, ls: Levels) -> LevelGraph:
    """The level-transition graph of the penalty levels ``ls`` of an
    instance: without edges for a single level, from the orbit pairs of its
    sector, each orbit at its penalty level, or by single-block relabels
    over the n**m strings of the given penalty table."""
    if len(ls.values) == 1:
        pairs = ()
    elif inst.sector is not None:
        rank = {t: r for r, t in enumerate(ls.values)}
        ranks = [rank[t] for t in inst.sector.penalties]
        pairs = sorted({(ranks[src], ranks[dst]) for src, dst in inst.sector.pair_counts})
    else:
        src, dst = _relabel_pairs(inst.penalty_index.of_string, len(ls.values), inst.n, inst.m)
        pairs = zip(src.tolist(), dst.tolist())
    edges = tuple((ls.values[i], ls.values[j]) for i, j in pairs if i < j)
    return LevelGraph(vertices=ls.values, edges=edges)


def graph_connected(g: LevelGraph) -> bool:
    """Standard connectivity over the active vertices."""
    if not g.vertices:
        return True
    adjacency = {v: set() for v in g.vertices}
    for t1, t2 in g.edges:
        adjacency[t1].add(t2)
        adjacency[t2].add(t1)
    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(g.vertices)


def descent_step(z: Sequence[int]) -> tuple:
    """One penalty-reducing single-block relabel for the permutation penalty
    (m = n): move a block from the smallest over-occupied symbol to the
    smallest unoccupied one; the penalty drops by at least 2.

    Tie-break: smallest source symbol, then smallest target symbol, then
    smallest block index.
    """
    n = len(z)
    counts = [0] * n
    for s in z:
        counts[int(s)] += 1
    if collision_penalty(z, n) == 0:
        raise ValueError("string is already feasible")
    a = next(k for k in range(n) if counts[k] >= 2)
    b = next(k for k in range(n) if counts[k] == 0)
    block = next(i for i, s in enumerate(z) if int(s) == a)
    out = list(int(s) for s in z)
    out[block] = b
    return tuple(out)


# ---------------------------------------------------------------------------
# Feasibility-stage phase separation
# ---------------------------------------------------------------------------

def delta_feasible(gamma: float, ls: Levels) -> PhaseModel:
    """Penalty-phase separation delta_F: the phase gap of the penalty levels
    about the feasible level 0, over the nonzero levels.  In the anti-aliased
    regime (see ``aliasing``) it is exactly gamma * t_min; with no nonzero
    level it is pi.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return level_phase_gap(gamma, ls.values, 0, np.array(ls.values) > 0, "penalty angle")


def aliasing(gamma: float, ls: Levels) -> bool:
    """Whether gamma exceeds pi/t_max, so that penalty phases may wrap past
    pi; false with no nonzero level."""
    return ls.values[-1] > 0 and gamma > math.pi / ls.values[-1] + 1e-15


def overlap_feasibility_floor(epsilon: float) -> float:
    """Feasibility floor (1 - eps^2/2)^2 obtained from an eps-accurate state
    preparation; at eps = 1/2 this is exactly 49/64."""
    if not 0.0 < epsilon < math.sqrt(2.0):
        raise ValueError("epsilon must lie in (0, sqrt(2))")
    return (1.0 - epsilon**2 / 2.0) ** 2


# ---------------------------------------------------------------------------
# Invariant symmetry sector
# ---------------------------------------------------------------------------

def sector_mixer(basis: SectorBasis) -> np.ndarray:
    """The block mixer restricted to the invariant sector, in the normalized
    orbit basis: the relabel pair counts between orbits over sqrt of their sizes."""
    b = np.zeros((basis.dim, basis.dim))
    for pair, count in basis.pair_counts.items():
        b[pair] = count
    sizes = np.asarray(basis.sizes, dtype=float)
    return b / np.sqrt(np.outer(sizes, sizes))


# ---------------------------------------------------------------------------
# Numerical angle search for the feasibility stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleSearchResult:
    gammas: tuple
    betas: tuple
    pi_f: float
    evaluations: int
    seed: int


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# restart schedules evaluated together; bounds the batch's memory for any budget
_RESTART_BATCH = 256
# a restart mixer angle within this distance of a resonance in (2pi/n)Z is redrawn
_RESONANCE_MARGIN = 1e-6


class _Evaluator(NamedTuple):
    """How the search evaluates schedules.  ``pi_f`` maps (K, p) arrays of
    cost and mixer angles to the K feasibility probabilities.  ``line`` maps
    a schedule x (p cost angles, then p mixer angles), a coordinate j and a
    bracket end hi to pi_f as a function of angle j on [0, hi], the other
    angles fixed."""

    pi_f: Callable
    line: Callable


def _rowwise_line(pi_f: Callable) -> Callable:
    """The ``line`` of a batch evaluator: one row of ``pi_f`` per point."""

    def line(x: np.ndarray, j: int, hi: float) -> Callable:
        p = x.size // 2

        def along(val: float) -> float:
            y = x.copy()
            y[j] = val
            return pi_f(y[None, :p], y[None, p:])[0]

        return along

    return line


def _statevector_feasibility(inst: ProblemInstance) -> _Evaluator:
    """The feasibility probabilities of a batch of schedules, one per row of
    the (K, p) angle arrays, from one statevector run each under the given
    penalty table."""
    feasible = inst.feasible_indices()

    def pi_f(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        return np.array([
            oracle.projector_mass(oracle.simulate(inst, g, b, inst.penalty_index), feasible)
            for g, b in zip(gammas, betas)
        ])

    return _Evaluator(pi_f, _rowwise_line(pi_f))


def _sector_feasibility(basis: SectorBasis) -> _Evaluator:
    """The feasibility probabilities under the collision penalty from the
    invariant sector of ``basis``: of a batch of schedules, and along one
    angle of a schedule.

    The uniform start state has amplitude sqrt(|orbit| / n**m) on each
    normalized orbit vector; a layer multiplies every row by
    exp(-i gamma A) and then by exp(-i beta B) from one eigendecomposition
    of B, as one (K x dim) product.  The checks are those of
    ``oracle.simulate``: finite cost and block phases and a unit norm of
    every row.

    Along angle j the state is S D(val) a, with a the state before the
    operator D that carries the angle and S the product of the operators
    after it.  Each factor is diagonal or V diag(.) V^T with V real
    orthogonal, so complex symmetric, and the feasible amplitude is
    r^T D(val) a with r = S^T e_f: the same factors applied to e_f in
    reverse order.  So pi_F(val) = |sum_k c_k exp(-i val mu_k)|^2, with
    c = r * a and mu the penalties for a cost angle, and c = (V^T r) *
    (V^T a) and mu the eigenvalues of B for a mixer angle.  The phases of
    the whole bracket are checked once, and the norms of a and r, which
    bound the state's norm at every point as S and D are unitary.
    """
    n, m = basis.n, basis.m
    penalty = np.asarray(basis.penalties, dtype=float)
    mixer_phases, vectors = np.linalg.eigh(sector_mixer(basis))
    vectors = vectors.astype(complex)
    inverse = vectors.T.copy()  # B is real symmetric, so V is orthogonal
    start = np.sqrt(np.asarray(basis.sizes, dtype=float) / n**m).astype(complex)
    feasible = basis.penalties.index(0)  # the permutations, as m = n
    unit = np.zeros(basis.dim, dtype=complex)
    unit[feasible] = 1.0

    def check(gammas: np.ndarray, betas: np.ndarray) -> None:
        # the largest |angle| bounds every phase; a NaN angle makes it NaN,
        # which fails the check
        check_phase(float(np.abs(gammas).max(initial=0.0)), penalty)
        check_block_phase(n, float(np.abs(betas).max(initial=0.0)))

    def pi_f(gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        check(gammas, betas)
        psi = np.broadcast_to(start, (len(gammas), start.size))
        for layer in range(gammas.shape[1]):
            psi = np.exp(-1j * gammas[:, layer, None] * penalty) * psi
            # row form of V diag(exp(-i beta lambda)) V^T psi
            psi = (np.exp(-1j * betas[:, layer, None] * mixer_phases) * (psi @ vectors)) @ inverse
        oracle.check_norm(psi)
        return np.abs(psi[:, feasible]) ** 2

    def apply(psi: np.ndarray, mixer: bool, angle: float) -> np.ndarray:
        if mixer:
            return vectors @ (np.exp(-1j * angle * mixer_phases) * (inverse @ psi))
        return np.exp(-1j * angle * penalty) * psi

    def line(x: np.ndarray, j: int, hi: float) -> Callable:
        p = x.size // 2
        bracket = x.copy()
        bracket[j] = hi  # every point of [0, hi] has its phases within these
        check(bracket[:p], bracket[p:])
        # the operators in circuit order: cost then mixer, layer by layer
        ops = [(mixer, float(x[mixer * p + layer])) for layer in range(p) for mixer in (0, 1)]
        k = 2 * j if j < p else 2 * (j - p) + 1
        a, r = start, unit
        for op in ops[:k]:
            a = apply(a, *op)
        for op in reversed(ops[k + 1:]):
            r = apply(r, *op)
        oracle.check_norm(a)
        oracle.check_norm(r)
        if ops[k][0]:
            c, mu = (inverse @ r) * (inverse @ a), mixer_phases
        else:
            c, mu = r * a, penalty
        return lambda val: abs(c @ np.exp(-1j * val * mu)) ** 2

    return _Evaluator(pi_f, line)


def _restart_rows(rng: np.random.Generator, rows: int, upper: np.ndarray, n: int) -> np.ndarray:
    """``rows`` restart schedules in one draw: p cost angles uniform on
    (0, upper[0]) and p mixer angles uniform on (0, 2pi), each mixer angle
    within _RESONANCE_MARGIN of a resonance drawn again in place until it
    is not."""
    period = 2.0 * math.pi / n

    def resonant(betas: np.ndarray) -> np.ndarray:
        # a guard band of twice the margin, decided exactly by resonance_distance
        near = np.abs(betas - period * np.round(betas / period)) <= 2.0 * _RESONANCE_MARGIN
        near[near] = [resonance_distance(n, beta) <= _RESONANCE_MARGIN
                      for beta in betas[near].tolist()]
        return near

    x = rng.random((rows, upper.size)) * upper
    betas = x[:, upper.size // 2:]  # a view, so redraws land in x
    bad = resonant(betas)
    while bad.any():
        betas[bad] = rng.random(int(bad.sum())) * (2.0 * math.pi)
        bad = resonant(betas)
    return x


def feasibility_angle_search(
    inst: ProblemInstance,
    p: int,
    budget: int,
    seed: int,
) -> AngleSearchResult:
    """Seeded random-restart plus coordinate golden-section search maximizing
    the feasibility probability of the penalty-phase circuit.

    When L_0 is empty or holds every string, the circuit preserves the norm,
    so pi_F = c_F (0 or 1) at every schedule: the zero schedule is returned
    with that value exactly, after no evaluation.  Otherwise the zero-angle
    baseline (whose feasibility mass is |L_0|/n^m) is evaluated first, so
    the reported optimum is never below it.  Restart angles draw gamma from
    (0, pi/t_max] and beta from (0, 2pi) with resonant values rejected.  An
    instance with a sector is simulated there, and its refinement evaluates
    one angle in closed form; a given penalty runs on the statevector.  A
    refined point that beats the best is evaluated again by the batch
    evaluator, uncounted, so the reported ``pi_f`` is always that
    evaluator's value at the reported angles.
    """
    _check_order(p)
    if budget < 1:
        raise ValueError("budget must be at least one evaluation")
    ls = inst.penalty_levels
    if ls.values[0] != 0 or len(ls.values) == 1:  # L_0 empty, or every string
        zeros = (0.0,) * p
        return AngleSearchResult(zeros, zeros, float(ls.values[0] == 0), 0, seed)
    pi_f, line = (_statevector_feasibility(inst) if inst.sector is None
                  else _sector_feasibility(inst.sector))
    evaluations = 0

    def evaluate(x: np.ndarray) -> np.ndarray:
        # each row of x holds p cost angles, then p mixer angles
        nonlocal evaluations
        evaluations += len(x)
        return pi_f(x[:, :p], x[:, p:])

    best_x = np.zeros(2 * p)
    best = evaluate(best_x[None])[0]

    if p > 0:
        rng = np.random.default_rng(seed)
        upper = np.array([math.pi / inst.t_max()] * p + [2.0 * math.pi] * p)

        # Random restarts, evaluated in batches; strict > keeps the first maximum.
        while evaluations < budget // 2:
            x = _restart_rows(rng, min(_RESTART_BATCH, budget // 2 - evaluations), upper, inst.n)
            for row, value in zip(x, evaluate(x)):
                if value > best:
                    best, best_x = value, row

        # Coordinate refinement: golden-section on each angle in turn.
        for j, hi in enumerate(upper.tolist()):
            if evaluations + 2 > budget:  # bracketing alone needs two evaluations
                break
            lo = 0.0
            along = line(best_x, j, hi)

            def coord_eval(val: float) -> float:
                nonlocal evaluations
                evaluations += 1
                return along(val)

            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1, f2 = coord_eval(x1), coord_eval(x2)
            while evaluations < budget and (hi - lo) > 1e-3:
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _GOLDEN * (hi - lo)
                    f2 = coord_eval(x2)
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _GOLDEN * (hi - lo)
                    f1 = coord_eval(x1)
            candidate, value = (x1, f1) if f1 >= f2 else (x2, f2)
            if value > best:
                x = best_x.copy()
                x[j] = candidate
                value = pi_f(x[None, :p], x[None, p:])[0]  # the batch evaluator's, uncounted
                if value > best:
                    best, best_x = value, x

    return AngleSearchResult(
        gammas=tuple(float(v) for v in best_x[:p]),
        betas=tuple(float(v) for v in best_x[p:]),
        pi_f=float(best),
        evaluations=evaluations,
        seed=seed,
    )
