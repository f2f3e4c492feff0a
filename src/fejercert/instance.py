"""Block one-hot problem instances, penalty spectra, and wrapped-phase models.

Basis strings of the encoded space are elements of [n]^m.  All dense arrays
use a single canonical order: row-major with block 0 varying fastest, i.e.
``index(z) = sum_b z_b * n**b``.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_ENUMERATION_CAP = 4096
PHASE_COLLISION_TOL = 1e-12
INTEGRALITY_TOL = 1e-9
# Lattice energies and penalties stay below this in magnitude, so that the
# difference of any two of them is still an int64.
LATTICE_LIMIT = 2.0**62

BlockString = tuple


class CapExceededError(ValueError):
    """n**m exceeds the configured enumeration cap."""


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
# Canonical string indexing
# ---------------------------------------------------------------------------

def index_string(index: int, n: int, m: int) -> BlockString:
    """The block string at a canonical index (block 0 fastest)."""
    out = []
    for _ in range(m):
        index, r = divmod(index, n)
        out.append(r)
    return tuple(out)


def enumerate_strings(n: int, m: int) -> np.ndarray:
    """All block strings in canonical order, shape (n**m, m)."""
    idx = np.arange(n**m)
    return np.stack([(idx // n**b) % n for b in range(m)], axis=1)


def symbol_counts(n: int, m: int) -> np.ndarray:
    """Symbol occupation counts N_k(z) of every string, shape (n**m, n)."""
    strings = enumerate_strings(n, m)
    return np.stack([(strings == k).sum(axis=1) for k in range(n)], axis=1)


def format_string(z: Iterable[int]) -> str:
    """Dash-joined symbol string, e.g. (0, 2, 1) -> '0-2-1'."""
    return "-".join(str(int(s)) for s in z)


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


def collision_penalty_table(n: int, m: int) -> np.ndarray:
    """Dense collision-penalty table over [n]^m in canonical order."""
    return ((symbol_counts(n, m) - 1) ** 2).sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemInstance:
    """Lattice-normalized instance: integer energies and penalties over [n]^m.

    ``energy`` holds dimensionless lattice energies E(z); the physical energy
    is ``lattice_scale * E(z)``.  ``penalty`` holds nonnegative integers whose
    zero set is the feasible set L_0.
    """

    n: int
    m: int
    energy: np.ndarray
    penalty: np.ndarray
    lattice_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise InstanceFormatError("n and m must be positive integers")
        size = self.size
        if self.energy.shape != (size,):
            raise InstanceFormatError(
                f"energy table has shape {self.energy.shape}, expected ({size},)"
            )
        if self.penalty.shape != (size,):
            raise InstanceFormatError(
                f"penalty table has shape {self.penalty.shape}, expected ({size},)"
            )
        if np.any(self.penalty < 0):
            raise InstanceFormatError("penalty values must be nonnegative")
        if not 0.0 < self.lattice_scale < math.inf:
            raise InstanceFormatError("lattice_scale must be finite and positive")

    @property
    def size(self) -> int:
        return self.n**self.m

    def feasible_indices(self) -> np.ndarray:
        return np.flatnonzero(self.penalty == 0)

    def e_star(self) -> int:
        """Minimum energy over the feasible set."""
        feas = self.feasible_indices()
        if feas.size == 0:
            raise ValueError("feasible set is empty; optimum undefined")
        return int(self.energy[feas].min())

    def optimal_indices(self) -> np.ndarray:
        """Indices of optimal feasible strings (the set of optima)."""
        feas = self.feasible_indices()
        return feas[self.energy[feas] == self.e_star()]

    def t_max(self) -> int:
        return int(self.penalty.max(initial=0))


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


def load_instance(
    document: Mapping, cap: int = DEFAULT_ENUMERATION_CAP
) -> ProblemInstance:
    """Materialize a ProblemInstance from a parsed instance document.

    The document provides ``n``, ``m`` and either a dense ``energy`` array of
    length n**m or an ``assignment`` generator with an m-by-n cost matrix.
    Energies are divided by ``lattice_scale`` (default 1) and must come out
    integral.  Every number must be finite, and lattice energies and
    penalties must stay below LATTICE_LIMIT in magnitude.  A missing ``penalty`` defaults to the column-collision table
    when m = n and to all-zero (everything feasible) otherwise.
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

    if has_energy:
        energy = _float_array(document["energy"], "energy")
        if energy.shape != (size,):
            raise InstanceFormatError(
                f"energy array has length {energy.size}, expected n**m = {size}"
            )
    else:
        gen = document["generator"]
        if not isinstance(gen, Mapping) or gen.get("kind") != "assignment":
            raise InstanceFormatError("generator must be {'kind': 'assignment', 'cost': ...}")
        cost = _float_array(gen["cost"], "assignment cost")
        if cost.shape != (m, n):
            raise InstanceFormatError(
                f"assignment cost matrix has shape {cost.shape}, expected ({m}, {n})"
            )
        strings = enumerate_strings(n, m)
        energy = cost[np.arange(m)[None, :], strings].sum(axis=1)

    energy = _to_integers(
        energy / lattice_scale,
        f"lattice energies after dividing by lattice_scale={lattice_scale}",
    )

    if "penalty" in document:
        penalty = _float_array(document["penalty"], "penalty")
        if penalty.shape != (size,):
            raise InstanceFormatError(
                f"penalty array has length {penalty.size}, expected n**m = {size}"
            )
        penalty = _to_integers(penalty, "penalty values")
    elif m == n:
        penalty = collision_penalty_table(n, m)
    else:
        penalty = np.zeros(size, dtype=np.int64)

    return ProblemInstance(n=n, m=m, energy=energy, penalty=penalty, lattice_scale=lattice_scale)


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
    """Wrapped phases theta(z) = gamma*E(z) mod 2pi, the optimal phase, and
    the phase gap delta within the chosen scope.

    ``delta`` is 0.0 with ``collided`` set when some non-optimal phase sits
    within tolerance of the optimal phase; it is pi with ``all_optimal`` set
    when the scope contains no non-optimal string.
    """

    theta: np.ndarray
    theta_star: float
    delta: float
    gap_scope: GapScope
    omega_star: np.ndarray
    collided: bool = False
    colliding: tuple = ()
    all_optimal: bool = False

    def offsets(self) -> np.ndarray:
        """Phase offsets theta(z) - theta_star (argument of the filter)."""
        return self.theta - self.theta_star


def phase_gap(
    inst: ProblemInstance,
    gamma: float,
    scope: GapScope = GapScope.ALL_STRINGS,
) -> PhaseModel:
    """Compute the wrapped-phase model and the phase gap for an instance.

    The gap is the minimum circular distance from non-optimal phases to the
    optimal phase, taken over all strings or over the feasible set only.
    Phase collisions are flagged, not raised.
    """
    check_phase(gamma, inst.energy)
    theta = wrap_angle(gamma * inst.energy.astype(float))
    omega_star = inst.optimal_indices()
    theta_star = wrap_angle(gamma * float(inst.e_star()))

    if scope is GapScope.ALL_STRINGS:
        scope_idx = np.arange(inst.size)
    else:
        scope_idx = inst.feasible_indices()
    if scope_idx.size == 0:
        raise ValueError("gap scope selects no strings")

    in_omega = np.zeros(inst.size, dtype=bool)
    in_omega[omega_star] = True
    non_opt = scope_idx[~in_omega[scope_idx]]

    if non_opt.size == 0:
        return PhaseModel(theta, theta_star, math.pi, scope, omega_star, all_optimal=True)

    dist = circular_distance(theta[non_opt], theta_star)
    colliding = non_opt[dist < PHASE_COLLISION_TOL]
    if colliding.size > 0:
        return PhaseModel(theta, theta_star, 0.0, scope, omega_star, collided=True,
                          colliding=tuple(int(i) for i in colliding))
    return PhaseModel(theta, theta_star, float(dist.min()), scope, omega_star)
