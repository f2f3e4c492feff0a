"""Penalty level-set analysis, descent and connectivity checks, feasibility
bounds, invariant-sector construction, and the numerical angle search.

The feasibility stage reuses the filter machinery with penalty-only phases:
the target phase is 0 (the feasible level), the gap delta_F is the minimal
wrapped distance of nonzero penalty phases gamma*t from 0, and the ratio
bound applies verbatim with the feasible envelope mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import oracle
from .instance import (
    PHASE_COLLISION_TOL,
    ProblemInstance,
    check_phase,
    circular_distance,
    collision_penalty,
    index_string,
    symbol_counts,
)
from .fejer import _check_order
from .mixer import resonance_distance
from .planner import ratio_bounds, ratio_parameter


# ---------------------------------------------------------------------------
# Level sets and the level-transition graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelStructure:
    """Partition of [n]^m by penalty value t, with the active levels."""

    n: int
    m: int
    levels: dict
    active: tuple
    t_max: int

    def size_of(self, t: int) -> int:
        return self.levels[t].size

    def histogram(self) -> dict:
        return {int(t): int(self.levels[t].size) for t in self.active}


@dataclass(frozen=True)
class LevelGraph:
    """Undirected graph on active penalty levels; an edge means nonzero mixer
    coupling between the uniform level-set vectors."""

    vertices: tuple
    edges: tuple
    couplings: dict


def level_sets(inst: ProblemInstance) -> LevelStructure:
    """Exhaustive partition of the basis strings by penalty value."""
    levels = {}
    for t in np.unique(inst.penalty):
        levels[int(t)] = np.flatnonzero(inst.penalty == t)
    active = tuple(sorted(levels))
    return LevelStructure(n=inst.n, m=inst.m, levels=levels, active=active, t_max=inst.t_max())


def _relabel_pair_counts(labels: np.ndarray, k: int, n: int, m: int) -> tuple:
    """Counts of ordered single-block-relabel pairs between the k classes of
    [n]^m given by ``labels`` (one class index per string), as arrays
    (src, dst, count) over the class pairs that occur, sorted by (src, dst).

    Each (block, symbol) pass is reduced to its distinct pairs before the
    merge, so memory stays proportional to n**m plus the pairs that occur,
    whatever k is."""
    idx = np.arange(n**m)
    codes, counts = [], []
    for b in range(m):
        sym = (idx // n**b) % n
        for v in range(n):
            src = idx[sym != v]
            dst = src + (v - sym[src]) * n**b
            c, cnt = np.unique(labels[src] * k + labels[dst], return_counts=True)
            codes.append(c)
            counts.append(cnt)
    pairs, inverse = np.unique(np.concatenate(codes), return_inverse=True)
    total = np.bincount(inverse.reshape(-1), weights=np.concatenate(counts)).astype(np.int64)
    src, dst = np.divmod(pairs, k)
    return src, dst, total


def level_graph(ls: LevelStructure, n: int, m: int) -> LevelGraph:
    """Build the level-transition graph by single-block relabel pair counting.

    With the complete-graph block mixer every relabel pair couples with unit
    weight, so a nonzero pair count is equivalent to a nonzero matrix element
    between the normalized level vectors; the stored coupling is the count
    divided by sqrt(|L_t| |L_t'|).
    """
    rank = np.empty(n**m, dtype=np.int64)
    for r, t in enumerate(ls.active):
        rank[ls.levels[t]] = r
    src, dst, counts = _relabel_pair_counts(rank, len(ls.active), n, m)
    edges = []
    couplings = {}
    upper = src < dst
    for i, j, c in zip(src[upper], dst[upper], counts[upper]):
        t1, t2 = ls.active[i], ls.active[j]
        edges.append((t1, t2))
        couplings[(t1, t2)] = int(c) / math.sqrt(ls.size_of(t1) * ls.size_of(t2))
    return LevelGraph(vertices=ls.active, edges=tuple(edges), couplings=couplings)


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
# Feasibility-stage phase separation and bounds
# ---------------------------------------------------------------------------

class DeltaFeasible(NamedTuple):
    delta: float
    aliasing: bool
    collided: bool
    colliding_levels: tuple
    all_feasible: bool


def delta_feasible(gamma: float, ls: LevelStructure) -> DeltaFeasible:
    """Penalty-phase separation: the minimal wrapped distance of gamma*t from
    0 over nonzero active levels t.

    Flags aliasing once gamma exceeds pi/t_max (phases may wrap past pi); in
    the anti-aliased regime the separation is exactly gamma * t_min.  With no
    nonzero active level the separation defaults to pi.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    nonzero = [t for t in ls.active if t > 0]
    if not nonzero:
        return DeltaFeasible(math.pi, False, False, (), True)
    aliasing = gamma > math.pi / ls.t_max + 1e-15
    check_phase(gamma, nonzero, "penalty angle")
    dist = circular_distance(gamma * np.asarray(nonzero, dtype=float), 0.0)
    # a positive condition, so that the NaN distance of an overflowed
    # gamma * t fails it
    if not np.all(dist >= 0.0):
        raise ValueError("penalty phase gamma * t is not finite")
    colliding = tuple(int(t) for t, d in zip(nonzero, dist) if d < PHASE_COLLISION_TOL)
    if colliding:
        return DeltaFeasible(0.0, aliasing, True, colliding, False)
    return DeltaFeasible(float(dist.min()), aliasing, False, (), False)


class FeasibilityBound(NamedTuple):
    x_f: float
    tight: float
    simple: float


def feasibility_bound(p: int, c_f: float, delta_f: float) -> FeasibilityBound:
    """Ratio-form feasibility bound with x_F = (p+1)^2 sin^2(delta_F/2) C_F;
    the shallow orders p = 1, 2 carry prefactors 4 and 9."""
    if not 0.0 < c_f <= 1.0:
        raise ValueError("feasible envelope mass must lie in (0, 1]")
    if not 0.0 < delta_f <= math.pi:
        raise ValueError("delta_F must lie in (0, pi]")
    x_f = ratio_parameter(p, delta_f, c_f)
    return FeasibilityBound(x_f, *ratio_bounds(x_f, c_f))


def overlap_feasibility_floor(epsilon: float) -> float:
    """Feasibility floor (1 - eps^2/2)^2 obtained from an eps-accurate state
    preparation; at eps = 1/2 this is exactly 49/64."""
    if not 0.0 < epsilon < math.sqrt(2.0):
        raise ValueError("epsilon must lie in (0, sqrt(2))")
    return (1.0 - epsilon**2 / 2.0) ** 2


# ---------------------------------------------------------------------------
# Invariant symmetry sector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorBasis:
    """Orbits of block permutations times global symbol relabelings on [n]^m.

    Each orbit is identified by its sorted symbol-count signature; the
    normalized orbit-sum vectors form a basis of the fixed-point sector.
    """

    n: int
    m: int
    keys: tuple
    representatives: tuple
    sizes: tuple

    @property
    def dim(self) -> int:
        return len(self.keys)


def _sector_orbits(n: int, m: int) -> tuple:
    """The orbit basis and the orbit index of every string.  The complete
    invariant of an orbit is the multiset of symbol occupation counts;
    orbits are ordered by their first string."""
    signature = np.sort(symbol_counts(n, m), axis=1)[:, ::-1]
    keys, first, inverse, sizes = np.unique(
        signature, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    basis = SectorBasis(
        n=n,
        m=m,
        keys=tuple(tuple(int(v) for v in keys[i]) for i in order),
        representatives=tuple(int(first[i]) for i in order),
        sizes=tuple(int(sizes[i]) for i in order),
    )
    return basis, rank[inverse.reshape(-1)]


def invariant_sector_basis(n: int, m: int) -> SectorBasis:
    """Enumerate the group orbits of [n]^m."""
    return _sector_orbits(n, m)[0]


def invariant_sector_generators(n: int, m: int) -> tuple:
    """Restrictions (A, B) of the collision penalty and the block mixer to
    the invariant sector, in the normalized orbit basis.

    A is diagonal with the per-orbit penalty level; B counts single-block
    relabel pairs between orbits, normalized by the orbit sizes.
    """
    basis, orbit_of = _sector_orbits(n, m)
    penalty = [collision_penalty(index_string(rep, n, m), n) for rep in basis.representatives]
    a = np.diag(np.asarray(penalty, dtype=float))
    src, dst, counts = _relabel_pair_counts(orbit_of, basis.dim, n, m)
    b = np.zeros((basis.dim, basis.dim))
    b[src, dst] = counts
    sizes = np.asarray(basis.sizes, dtype=float)
    return a, b / np.sqrt(np.outer(sizes, sizes))


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


def feasibility_angle_search(
    inst: ProblemInstance,
    p: int,
    budget: int,
    seed: int,
) -> AngleSearchResult:
    """Seeded random-restart plus coordinate golden-section search maximizing
    the feasibility probability of the penalty-phase circuit.

    The zero-angle baseline (whose feasibility mass is |L_0|/n^m) is always
    evaluated first, so the reported optimum is never below it.  Restart
    angles draw gamma from (0, pi/t_max] and beta from (0, 2pi) with
    resonant values rejected.
    """
    _check_order(p)
    if budget < 1:
        raise ValueError("budget must be at least one evaluation")
    feasible = inst.feasible_indices()
    t_max = inst.t_max()
    evaluations = 0

    def evaluate(x: np.ndarray) -> float:
        # x holds the p cost angles, then the p mixer angles
        nonlocal evaluations
        evaluations += 1
        state = oracle.simulate(inst, x[:p], x[p:], cost_table=inst.penalty)
        return oracle.projector_mass(state, feasible)

    best_x = np.zeros(2 * p)
    best = evaluate(best_x)

    if p > 0 and t_max > 0:
        rng = np.random.default_rng(seed)
        upper = [math.pi / t_max] * p + [2.0 * math.pi] * p

        def draw_beta() -> float:
            while True:
                beta = rng.uniform(0.0, 2.0 * math.pi)
                if resonance_distance(inst.n, beta) > 1e-6:
                    return beta

        while evaluations < budget // 2:
            gammas = rng.uniform(0.0, upper[0], size=p)
            x = np.concatenate([gammas, [draw_beta() for _ in range(p)]])
            value = evaluate(x)
            if value > best:
                best, best_x = value, x

        # Coordinate refinement: golden-section on each angle in turn.
        for j, hi in enumerate(upper):
            if evaluations + 2 > budget:  # bracketing alone needs two evaluations
                break
            lo = 0.0

            def coord_eval(val: float) -> float:
                x = best_x.copy()
                x[j] = val
                return evaluate(x)

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
                best, best_x = value, best_x.copy()
                best_x[j] = candidate

    return AngleSearchResult(
        gammas=tuple(float(v) for v in best_x[:p]),
        betas=tuple(float(v) for v in best_x[p:]),
        pi_f=best,
        evaluations=evaluations,
        seed=seed,
    )
