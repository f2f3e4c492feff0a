"""Block one-hot problem instances, penalty spectra, and wrapped-phase models.

Basis strings of the encoded space are elements of [n]^m.  All dense arrays
use a single canonical order: row-major with block 0 varying fastest, i.e.
``index(z) = sum_b z_b * n**b``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_ENUMERATION_CAP = 4096
PHASE_COLLISION_TOL = 1e-12
INTEGRALITY_TOL = 1e-9
# Lattice energies and penalties stay below this in magnitude, so that the
# difference of any two of them is still an int64.
LATTICE_LIMIT = 2.0**62


class CapExceededError(ValueError):
    """A table a path would allocate, n**m strings or the sector dimension,
    exceeds the configured enumeration cap."""


class InstanceFormatError(ValueError):
    """Malformed instance document."""


def capped_size(n: int, m: int, cap: int) -> int:
    """n**m, or CapExceededError when it exceeds cap.  As 2**cap.bit_length()
    exceeds cap, the test needs at most that many factors of n, so a huge m
    never forms its power."""
    if n ** min(m, cap.bit_length()) > cap:
        raise CapExceededError(f"n**m = {n}**{m} exceeds enumeration cap {cap}")
    return n**m


class GapScope(Enum):
    ALL_STRINGS = "all_strings"
    FEASIBLE_ONLY = "feasible_only"


# ---------------------------------------------------------------------------
# Column-collision penalty
# ---------------------------------------------------------------------------

def collision_penalty(z: Sequence[int], n: int) -> int:
    """Sum over symbols k of (N_k - 1)^2 where N_k counts blocks at symbol k.

    Zero exactly on permutations of [0, n), which requires m = n blocks.
    """
    counts = [0] * n
    for s in z:
        counts[int(s)] += 1
    return sum((c - 1) ** 2 for c in counts)


def permutation_indices(n: int) -> np.ndarray:
    """Canonical indices of the n! permutations of [0, n) among the strings
    of [n]^n, ascending: the zeros of the m = n collision penalty."""
    symbols = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(symbols, dtype=np.int64, count=n * math.factorial(n)).reshape(-1, n)
    return np.sort(perms @ n ** np.arange(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Levels:
    """The distinct integer values of a table over strings, ascending, and
    how many strings hold each, as Python ints (a count can pass 2**63)."""

    values: tuple
    counts: tuple

    @classmethod
    def of(cls, table: np.ndarray) -> Levels:
        """The levels of a dense table."""
        values, counts = np.unique(table, return_counts=True)
        return cls(tuple(values.tolist()), tuple(counts.tolist()))

    @classmethod
    def summed(cls, values: Iterable[int], weights: Iterable[int]) -> Levels:
        """The levels of classes of strings that share a value, such as the
        orbits of a symmetry with their sizes: weights of equal values add."""
        total = {}
        for value, weight in zip(values, weights):
            total[value] = total.get(value, 0) + weight
        return cls(*zip(*sorted(total.items())))

    def shares(self) -> np.ndarray:
        """Each level's share of the strings, its count over the total,
        divided exactly: the level masses of the uniform envelope."""
        total = sum(self.counts)
        return np.array([count / total for count in self.counts])

    def index(self, table: np.ndarray) -> LevelIndex:
        """``table``, whose levels these are, by level.  An integer table whose
        level span is below its size is read through a rank table over the
        span in one gather; any other table by binary search."""
        values = np.array(self.values)
        span = self.values[-1] - self.values[0] if self.values else 0
        if table.dtype.kind == "i" and span < table.size:
            rank = np.zeros(span + 1, dtype=np.intp)
            rank[values - self.values[0]] = np.arange(values.size)
            return LevelIndex(values, rank[table - self.values[0]])
        return LevelIndex(values, np.searchsorted(values, table))


class LevelIndex(NamedTuple):
    """A table over strings by level: the ascending level values, and the
    position of each string's value among them."""

    values: np.ndarray
    of_string: np.ndarray


@dataclass(frozen=True)
class SectorBasis:
    """Orbits of block permutations times global symbol relabelings on [n]^m.

    Each orbit is identified by its sorted symbol-count signature, a
    partition of m into at most n parts padded with zeros to length n; the
    normalized orbit-sum vectors form a basis of the fixed-point sector.
    Orbits are ordered by their first string in canonical order.
    """

    n: int
    m: int
    keys: tuple
    sizes: tuple

    @property
    def dim(self) -> int:
        return len(self.keys)

    @cached_property
    def penalties(self) -> tuple:
        """The collision penalty sum_k (N_k - 1)^2 of each orbit."""
        return tuple(sum((c - 1) ** 2 for c in key) for key in self.keys)

    @cached_property
    def pair_counts(self) -> dict:
        """Counts of ordered single-block relabel pairs between orbits,
        {(src, dst): count}.  Moving one of the a blocks on a symbol to a
        symbol held by b blocks takes each string of the orbit to the orbit
        of the signature with one a lowered to a - 1 and one b raised to
        b + 1.  That depends only on (a, b), so each pair of distinct count
        values is visited once, for its ma * (mb - [a == b]) symbol pairs of
        a blocks each, where ma and mb count the symbols held a and b times."""
        position = {key: r for r, key in enumerate(self.keys)}
        counts = {}
        for src, (key, size) in enumerate(zip(self.keys, self.sizes)):
            held = Counter(key)
            for a, ma in held.items():
                if a == 0:
                    continue
                for b, mb in held.items():
                    symbols = ma * (mb - (a == b))
                    if symbols == 0:
                        continue
                    # the key is descending, so equal counts are adjacent
                    i = key.index(a)
                    j = i + 1 if a == b else key.index(b)
                    moved = list(key)
                    moved[i] -= 1
                    moved[j] += 1
                    pair = (src, position[tuple(sorted(moved, reverse=True))])
                    counts[pair] = counts.get(pair, 0) + symbols * a * size
        return counts


def _partitions(m: int, parts: int, largest: int):
    """Partitions of m into at most ``parts`` parts of at most ``largest``,
    each in descending order, in descending lexicographic order."""
    if m == 0:
        yield ()
    elif parts > 0:
        for first in range(min(m, largest), 0, -1):
            for rest in _partitions(m - first, parts - 1, first):
                yield (first,) + rest


def invariant_sector_basis(n: int, m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> SectorBasis:
    """The group orbits of [n]^m, built from the partitions of m without
    enumerating the strings, or CapExceededError once more than ``cap``
    partitions appear; at most cap + 1 are generated, and none is padded
    before the count is known.

    The orbit of signature (c_0, ..., c_{n-1}) holds m!/prod c_k! block
    arrangements of each of n!/prod_j mult_j! symbol assignments, where
    mult_j counts the symbols that occur j times.  Its first string puts
    c_0 copies of symbol 0 in the highest blocks, then c_1 copies of
    symbol 1, and so on; so the partitions, in descending lexicographic
    order, come in the order of their first strings.
    """
    parts = []
    for part in _partitions(m, n, m):
        if len(parts) == cap:
            raise CapExceededError(
                f"sector dimension (partitions of m = {m} into at most n = {n} parts) "
                f"exceeds enumeration cap {cap}")
        parts.append(part)
    keys, sizes = [], []
    for part in parts:
        key = part + (0,) * (n - len(part))
        arrangements = math.factorial(m)
        for c in key:
            arrangements //= math.factorial(c)
        assignments = math.factorial(n)
        for mult in Counter(key).values():
            assignments //= math.factorial(mult)
        keys.append(key)
        sizes.append(arrangements * assignments)
    return SectorBasis(n, m, tuple(keys), tuple(sizes))


@dataclass(frozen=True)
class ProblemInstance:
    """Lattice-normalized instance over [n]^m, holding what the document gave.

    ``terms`` holds the lattice energies: a dense table of length n**m, or the
    (m, n) integer matrix of an assignment generator whose entries along a
    string add up to its energy, E(z) = sum_b terms[b, z_b].  Row 0 holds
    the energies of the strings that leave blocks 1..m-1 at symbol 0, and
    row b > 0 the change from moving block b off symbol 0, so every partial
    sum over rows 0..b is itself an energy.  ``given_penalty`` is the
    document's penalty table, the only penalty table, or None for the
    loader's default: the collision penalty when m = n
    (``default_penalty``), zero on every string otherwise.

    The n**m table ``energy`` is built on first read, after n**m is checked
    against ``cap``; the physical energy is ``lattice_scale * E(z)``.  A
    default penalty is read from its spectrum, ``penalty_levels``: under the
    collision penalty ``sector`` holds its orbits, their number checked
    against ``cap``, and the levels sum them; otherwise the one level 0
    holds all n**m strings.
    """

    n: int
    m: int
    terms: np.ndarray
    given_penalty: np.ndarray | None = None
    lattice_scale: float = 1.0
    cap: int = DEFAULT_ENUMERATION_CAP

    @property
    def size(self) -> int:
        return self.n**self.m

    @property
    def default_penalty(self) -> bool:
        """Whether the penalty is the loader's m = n collision table."""
        return self.given_penalty is None and self.m == self.n

    def checked_size(self) -> int:
        """n**m, or CapExceededError when it exceeds the cap; called before
        anything of that size is allocated."""
        return capped_size(self.n, self.m, self.cap)

    @cached_property
    def energy(self) -> np.ndarray:
        """Lattice energies E(z) in canonical order, as int64."""
        self.checked_size()
        if self.terms.ndim == 1:
            return self.terms
        # each pass puts block b in front of the faster blocks 0..b-1
        table = self.terms[0]
        for row in self.terms[1:]:
            table = (row[:, None] + table).reshape(-1)
        return table

    def feasible_indices(self) -> np.ndarray:
        """Canonical indices of the feasible set L_0, read-only."""
        return self._feasible

    @cached_property
    def _feasible(self) -> np.ndarray:
        if self.given_penalty is not None:
            feasible = np.flatnonzero(self.given_penalty == 0)
        elif self.default_penalty:
            self.checked_size()
            feasible = permutation_indices(self.n)
        else:
            feasible = np.arange(self.checked_size())
        feasible.flags.writeable = False
        return feasible

    @cached_property
    def sector(self) -> SectorBasis | None:
        """The orbit basis of the default collision penalty, built under the
        cap on its dimension, or None for any other penalty."""
        return invariant_sector_basis(self.n, self.m, self.cap) if self.default_penalty else None

    @cached_property
    def penalty_levels(self) -> Levels:
        """The penalty levels of all n**m strings: summed over the orbits of
        the sector when there is one, read from the given table, or the one
        level 0 of the m != n default, so only a given penalty is a table."""
        if self.sector is not None:
            return Levels.summed(self.sector.penalties, self.sector.sizes)
        if self.given_penalty is not None:
            return Levels.of(self.given_penalty)
        return Levels((0,), (self.size,))

    @cached_property
    def penalty_index(self) -> LevelIndex:
        """The given penalty table by level, built once for its readers."""
        return self.penalty_levels.index(self.given_penalty)

    @cached_property
    def levels(self) -> Levels:
        """The energy levels of all n**m strings."""
        return Levels.of(self.energy)

    @cached_property
    def feasible_levels(self) -> Levels:
        """The energy levels of the feasible set; the first is E*, and its
        count is |Omega*|."""
        if self.given_penalty is None and not self.default_penalty:
            return self.levels  # every string is feasible
        return Levels.of(self.energy[self.feasible_indices()])

    def e_star(self) -> int:
        """Minimum energy over the feasible set."""
        if not self.feasible_levels.values:
            raise ValueError("feasible set is empty; optimum undefined")
        return self.feasible_levels.values[0]

    def optimal_indices(self) -> np.ndarray:
        """Indices of optimal feasible strings (the set of optima)."""
        if self.feasible_levels is self.levels:  # every string is feasible
            return np.flatnonzero(self.energy == self.e_star())
        feas = self.feasible_indices()
        return feas[self.energy[feas] == self.e_star()]

    def gap_levels(self, scope: GapScope) -> np.ndarray:
        """The mask over ``levels`` of the levels that hold a non-optimal
        string of the scope, read-only.  Every feasible string at E* is
        optimal, so E* counts only in the all-strings scope, and only when
        some infeasible string sits there too."""
        masks, values = self._gap_levels, self.levels.values
        if scope not in masks:
            if scope is GapScope.FEASIBLE_ONLY:
                counted = set(self.feasible_levels.values[1:])
                mask = np.array([value in counted for value in values])
            else:
                star = bisect.bisect_left(values, self.e_star())
                mask = np.ones(len(values), dtype=bool)
                mask[star] = self.levels.counts[star] > self.feasible_levels.counts[0]
            mask.flags.writeable = False
            masks[scope] = mask
        return masks[scope]

    @cached_property
    def _gap_levels(self) -> dict:
        return {}  # gap_levels' mask of each scope, built on first request

    def nonoptimal_strings(self, scope: GapScope, levels: Sequence[int]) -> np.ndarray:
        """The non-optimal strings of the scope at the energy ``levels``,
        ascending: the strings are read on those levels only."""
        strings = np.flatnonzero(np.isin(self.energy, levels))
        if scope is GapScope.FEASIBLE_ONLY:
            strings = np.intersect1d(strings, self.feasible_indices(), assume_unique=True)
        return np.setdiff1d(strings, self.optimal_indices(), assume_unique=True)

    def t_max(self) -> int:
        """The largest penalty level."""
        return self.penalty_levels.values[-1]


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"{what} must be an array of JSON numbers") from exc


def _to_integers(values: np.ndarray, what: str) -> np.ndarray:
    """Round to int64, rejecting non-finite, oversized and non-integral values."""
    # a positive condition, so that NaN fails it
    if not np.all(np.abs(values) < LATTICE_LIMIT):
        raise InstanceFormatError(f"{what} must be finite and below 2**62 in magnitude")
    rounded = np.round(values)
    if np.max(np.abs(values - rounded), initial=0.0) > INTEGRALITY_TOL:
        raise InstanceFormatError(f"non-integral {what}")
    return rounded.astype(np.int64)


def _assignment_terms(cost: np.ndarray, lattice_scale: float, what: str) -> np.ndarray:
    """The integer terms of an assignment cost matrix (see ProblemInstance),
    validated in O(mn) without the n**m sums.

    The largest and smallest energies are the sums of the row maxima and
    minima; as float rounding is monotone, every string's energy summed in
    the same order lies between them, so the magnitude limit is checked on
    these two (and on each entry c / s, so that its integer part is an
    int64).  Each c / s splits exactly into an integer and a fraction; the
    base sum_b frac[b, 0] and the row offsets frac[b, j] - frac[b, 0] must
    each lie within INTEGRALITY_TOL / (m + 1) of an integer, so that every
    energy lies within INTEGRALITY_TOL of its integer.  The integer parts
    are added in int64 and Python ints, so the table is exact where a float
    sum of large costs would round.
    """
    m = cost.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        highest = cost.max(axis=1).sum() / lattice_scale
        lowest = cost.min(axis=1).sum() / lattice_scale
        lattice = cost / lattice_scale
    # positive conditions, so that NaN and inf fail them
    if not (abs(highest) < LATTICE_LIMIT and abs(lowest) < LATTICE_LIMIT
            and np.all(np.abs(lattice) < LATTICE_LIMIT)):
        raise InstanceFormatError(f"{what} must be finite and below 2**62 in magnitude")
    whole = np.round(lattice)
    frac = lattice - whole  # exact: below 2**52 by Sterbenz, zero above
    offsets = frac - frac[:, :1]
    base = math.fsum(frac[:, 0])
    tol = INTEGRALITY_TOL / (m + 1)
    if abs(base - round(base)) > tol or np.max(np.abs(offsets - np.round(offsets))) > tol:
        raise InstanceFormatError(f"non-integral {what}")
    terms = whole.astype(np.int64) + np.round(offsets).astype(np.int64)
    # move the symbol-0 terms of blocks 1..m-1 and the base into row 0
    shift = sum(terms[1:, 0].tolist()) + round(base)
    terms[1:] -= terms[1:, :1]
    terms[0] += shift
    return terms


def load_instance(
    document: Mapping, cap: int = DEFAULT_ENUMERATION_CAP
) -> ProblemInstance:
    """Read a ProblemInstance from a parsed instance document.

    The document provides ``n``, ``m`` and either a dense ``energy`` array of
    length n**m or an ``assignment`` generator with an m-by-n cost matrix.
    Energies are divided by ``lattice_scale`` (default 1) and must come out
    integral.  Every number must be finite, and lattice energies and
    penalties must stay below LATTICE_LIMIT in magnitude.  A missing
    ``penalty`` defaults to the column-collision table when m = n and to
    all-zero (everything feasible) otherwise.

    A dense ``energy`` or ``penalty`` array is an n**m table in hand, so
    n**m is checked against ``cap`` here; otherwise the instance checks it
    when a table is first read.
    """
    unknown = set(document) - {"n", "m", "energy", "generator", "penalty", "lattice_scale"}
    if unknown:
        raise InstanceFormatError(f"unknown instance keys: {sorted(unknown)}")
    n, m = document.get("n"), document.get("m")
    if not (_is_number(n, numbers.Integral) and _is_number(m, numbers.Integral)):
        raise InstanceFormatError("document must provide integer n and m")
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise InstanceFormatError("n and m must be positive integers")
    if "energy" in document or "penalty" in document:
        size = capped_size(n, m, cap)

    lattice_scale = document.get("lattice_scale", 1.0)
    if not (_is_number(lattice_scale, numbers.Real)
            and 0.0 < lattice_scale <= sys.float_info.max):
        raise InstanceFormatError("lattice_scale must be finite and positive")
    lattice_scale = float(lattice_scale)

    has_energy = "energy" in document
    has_generator = "generator" in document
    if has_energy == has_generator:
        raise InstanceFormatError("provide exactly one of 'energy' or 'generator'")

    what = f"lattice energies after dividing by lattice_scale={lattice_scale}"
    if has_energy:
        energy = _float_array(document["energy"], "energy")
        if energy.shape != (size,):
            raise InstanceFormatError(
                f"energy array has length {energy.size}, expected n**m = {size}"
            )
        terms = _to_integers(energy / lattice_scale, what)
    else:
        gen = document["generator"]
        if not isinstance(gen, Mapping) or gen.get("kind") != "assignment":
            raise InstanceFormatError("generator must be {'kind': 'assignment', 'cost': ...}")
        cost = _float_array(gen["cost"], "assignment cost")
        if cost.shape != (m, n):
            raise InstanceFormatError(
                f"assignment cost matrix has shape {cost.shape}, expected ({m}, {n})"
            )
        terms = _assignment_terms(cost, lattice_scale, what)

    penalty = None
    if "penalty" in document:
        penalty = _float_array(document["penalty"], "penalty")
        if penalty.shape != (size,):
            raise InstanceFormatError(
                f"penalty array has length {penalty.size}, expected n**m = {size}"
            )
        penalty = _to_integers(penalty, "penalty values")
        if np.any(penalty < 0):
            raise InstanceFormatError("penalty values must be nonnegative")

    return ProblemInstance(n=n, m=m, terms=terms, given_penalty=penalty,
                           lattice_scale=lattice_scale, cap=cap)


def _is_number(value, kind: type) -> bool:
    """JSON booleans load as Python bools, which are ints; they are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _reject_constant(name: str):
    raise InstanceFormatError(f"non-finite number {name} in JSON document")


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file, rejecting the NaN and Infinity literals that
    Python's parser otherwise accepts."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_instance_file(path: str | Path, cap: int = DEFAULT_ENUMERATION_CAP) -> ProblemInstance:
    document = read_json(path)
    if not isinstance(document, Mapping):
        raise InstanceFormatError("instance document must be a JSON object")
    return load_instance(document, cap=cap)


# ---------------------------------------------------------------------------
# Wrapped phases
# ---------------------------------------------------------------------------

def wrap_angle(x):
    """Reduce an angle (or array of angles) to its (-pi, pi] representative.

    Exact at representable multiples of 2*pi (returns 0.0 there).
    """
    arr = np.asarray(x, dtype=float)
    r = arr - TWO_PI * np.round(arr / TWO_PI)
    r = np.where(r <= -math.pi, r + TWO_PI, r)
    r = np.where(r > math.pi, r - TWO_PI, r)
    r = r + 0.0  # collapse -0.0 to 0.0
    if r.ndim == 0:
        return float(r)
    return r


def check_phase(angle: float, values, what: str = "cost angle") -> None:
    """Reject an angle whose phases angle * v are not all finite."""
    # a positive condition, so that a NaN angle fails it
    if not abs(angle) * float(np.abs(values).max(initial=0)) < math.inf:
        raise ValueError(f"{what} {angle!r} gives a non-finite phase")


def circular_distance(a, b):
    """Distance on the torus, in [0, pi]."""
    return np.abs(wrap_angle(np.asarray(a, dtype=float) - b))


@dataclass(frozen=True)
class PhaseModel:
    """Wrapped phases theta = gamma*v mod 2pi, one per level v of a table;
    the phase of the target level, and the phase gap delta: the minimal
    circular distance from the target's phase over the levels that count.

    ``delta`` is 0.0 when some counted phase sits within tolerance of the
    target's phase, and ``colliding`` lists those levels; it is pi when no
    level counts.
    """

    level_theta: np.ndarray
    theta_star: float
    delta: float
    colliding: tuple = ()

    @property
    def collided(self) -> bool:
        return bool(self.colliding)

    def offsets(self) -> np.ndarray:
        """Phase offsets theta - theta_star of each level (the argument of
        the filter)."""
        return self.level_theta - self.theta_star


def level_phase_gap(
    gamma: float, values: Sequence[int], target: int, counted: np.ndarray,
    what: str = "cost angle",
) -> PhaseModel:
    """The wrapped-phase model of the integer levels ``values`` about the
    ``target`` level, with the gap over the levels ``counted`` (a mask over
    ``values``).  Phase collisions are flagged, not raised."""
    table = np.array([*values, target])  # the target's phase is wrapped with the levels'
    check_phase(gamma, table, what)
    phases = wrap_angle(gamma * table.astype(float))
    level_theta, theta_star = phases[:-1], float(phases[-1])
    dist = circular_distance(level_theta[counted], theta_star)
    colliding = table[:-1][counted][dist < PHASE_COLLISION_TOL]
    if colliding.size:
        return PhaseModel(level_theta, theta_star, 0.0, tuple(colliding.tolist()))
    return PhaseModel(level_theta, theta_star, float(dist.min(initial=math.pi)))


def phase_gap(
    inst: ProblemInstance,
    gamma: float,
    scope: GapScope = GapScope.ALL_STRINGS,
) -> PhaseModel:
    """The wrapped-phase model of the energy levels of an instance about E*:
    the gap is taken over the levels that hold a non-optimal string of the
    scope (all strings, or the feasible set only), and ``colliding`` lists
    the energies where such a string collides with E*."""
    return level_phase_gap(gamma, inst.levels.values, inst.e_star(), inst.gap_levels(scope))
