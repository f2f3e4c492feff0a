"""Validation-only oracles: independent reference computations that the tests
compare the runtime closed forms against.  None of them is on a command's
path, so they live with the tests (and only they need scipy).

- ``index_string``, ``format_string`` and ``string_index``: the block
  string at a canonical index, its dash-joined label, and the index of a
  string, one string at a time, the reference for the vectorised labels of
  ``fejercert.serialize``;
- ``enumerate_strings``: all n**m block strings as an (n**m, m) matrix, the
  reference for the broadcast build of the assignment energy table;
- ``collision_penalty_table``, ``penalty_table`` and ``table_index``: the
  dense collision-penalty table over [n]^m, an instance's penalty as an
  n**m table (the given one, the collision table when m = n, all-zero
  otherwise), and a table by level, the reference for the penalty spectra
  that the runtime reads without a table;
- ``assignment_energy_by_enumeration``: the assignment energy table as a
  float sum over every string, validated string by string, the reference
  for the O(mn) validation rule;
- ``block_unitary_expm``: scaling-and-squaring exponential of the block
  generator, independent of the rank-one closed form;
- ``dephased_reference``: exact diagonal of the dephased layer dynamics via
  the unistochastic kernel |U|^2 of the complex block unitary;
- ``dirichlet_filter_oracle``: operator-level Dirichlet filtering;
- ``dirichlet_kernel_sum``: the Fejér kernel as the squared Dirichlet sum,
  term by term, the reference for the closed form near its peaks;
- ``averaged_fejer_quadrature``: adaptive Simpson quadrature of the
  window-averaged Fejér kernel;
- ``phase_gap_per_string`` and ``energy_gap_per_string``: the phase gap
  and the energy gap scanned string by string over the non-optimal strings
  of the scope, with one wrapped phase per string and the feasible set read
  from the penalty table, the reference for the level scans and per-level
  phases of ``fejercert.instance.phase_gap``, for the permutation feasible
  set, and for ``fejercert.rl.energy_gap``;
- ``filtered_distribution_per_string`` and
  ``success_probability_per_string``: the filtered law with one Fejér
  weight per string and its mass on Omega* summed string by string, the
  reference for the level law of ``fejercert.fejer.filtered_distribution``
  and the closed form (p+1) C_beta / D of ``success_probability``;
- ``filtered_law_per_string`` and ``rl_law_per_string``: a level law
  gathered to the strings as floats, each string's Fejér weight and
  probability, and each string's averaged probability with its standard
  error (None when pooled) in the one-pass variance form, the per-string
  reference that the law CSVs, written by level, must match byte for byte;
- ``rl_filtered_distribution_per_string``: the dither average evaluated
  string by string, one Fejér kernel over all n**m strings per draw, with
  the mass on any subset, the reference for the level law of
  ``fejercert.rl.rl_filtered_distribution``;
- ``offpeak_grid_max``: numeric maximum of F_p over the off-peak region;
- ``denominator_bound``, ``denominator_form_bound`` and
  ``lattice_success_bound``: the filter denominator bound
  (p+1) C + M (1-C) and the success bound in its denominator form
  (p+1) C / ((p+1) C + M (1-C)) for an off-peak bound M, an averaged Mbar
  or the analytic M_p(delta) of ``fejercert.fejer.offpeak_bound``, the
  reference for the one ratio form x / ((1-C) + x) of
  ``fejercert.planner.ratio_bounds``;
- ``window_fourier``, ``window_density`` and ``averaged_fejer``: the uniform
  dither window and the window-averaged Fejér weight in its Fourier form, a
  second evaluation path of the averaged kernel;
- ``invariant_sector_generators``: the dense generators (A, B) of the
  invariant sector, A the diagonal of orbit penalties;
- ``relabel_pair_counts``: the count of every ordered single-block relabel
  pair between classes of strings, over all n**m strings, the reference
  for the orbit pair counts of the sector summed by level;
- ``feasibility_document_by_table``: the ``feasibility`` document read from
  the dense penalty table, with the gap scanned string by string and the
  search's ``pi_f`` at the zero schedule on the statevector, the reference
  for the documents of the penalty spectra that need no table;
- ``sector_by_enumeration``: the invariant-sector orbits and generators
  found by enumerating all n**m strings and their relabel pairs, the
  reference for the combinatorial sector build;
- ``sector_pair_counts_by_index``: the orbit relabel pair counts summed
  over every ordered pair of symbol indices, the reference for the
  count-value form of ``SectorBasis.pair_counts``;
- ``sector_feasibility_rowwise``: the invariant-sector feasibility
  probability of one schedule at a time, the reference for the batched
  restart evaluator and the one-angle closed form of the refinement;
- ``lie_closure_dim``: numeric dimension of the Lie algebra generated by the
  invariant-sector generators, a probe and never a proof;
- ``envelope_csv_rowwise``, ``filtered_law_csv_rowwise``,
  ``rl_law_csv_rowwise`` and ``curves_csv_rowwise``: the CSV documents
  formatted row by row, one label from ``index_string`` per string, the
  byte-identity reference for the column-wise emitters;
- ``apply_block_kernel_tensordot``: the m-fold kernel applied one block
  axis at a time through ``np.tensordot``, the bit-for-bit reference for
  the direct products of ``fejercert.mixer.apply_block_kernel``;
- ``apply_cost_per_string``, ``apply_mixer_allocating`` and
  ``simulate_reference``: the statevector layers with one exp per string
  and fresh arrays for every step of the mixer, the bit-for-bit reference
  for the per-level phases and the in-place mixer of
  ``fejercert.oracle``.  Each product is written out with its operands
  in the runtime's order: where a complex product uses fused multiply-adds,
  swapping its operands can change the last bit, and an operator
  expression such as ``amps * np.exp(...)`` leaves the order to numpy's
  temporary elision, which swaps the operands from 16384 strings (256 KiB)
  on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from fejercert.feasibility import sector_mixer
from fejercert.fejer import FilteredLaw, fejer_kernel, offpeak_bound
from fejercert.instance import (
    PHASE_COLLISION_TOL,
    GapScope,
    ProblemInstance,
    SectorBasis,
    _to_integers,
    check_phase,
    circular_distance,
    LevelIndex,
    Levels,
    collision_penalty,
    invariant_sector_basis,
    wrap_angle,
)
from fejercert.mixer import Envelope, check_block_phase
from fejercert.oracle import (
    EncodedState,
    _block_coefficients,
    block_unitary,
    check_norm,
    initial_state,
)
from fejercert.planner import ratio_bounds, ratio_parameter
from fejercert.rl import DitherWindow, RLLaw

LIE_CLOSURE_TOL = 1e-9
LIE_MAX_DIM = 64


def index_string(index: int, n: int, m: int) -> tuple:
    """The block string at a canonical index (block 0 fastest)."""
    out = []
    for _ in range(m):
        index, r = divmod(index, n)
        out.append(r)
    return tuple(out)


def format_string(z: Iterable[int]) -> str:
    """Dash-joined symbol string, e.g. (0, 2, 1) -> '0-2-1'."""
    return "-".join(str(int(s)) for s in z)


def string_index(z: Sequence[int], n: int) -> int:
    """Canonical index of a block string (block 0 fastest)."""
    idx = 0
    for b in reversed(range(len(z))):
        idx = idx * n + int(z[b])
    return idx


def enumerate_strings(n: int, m: int) -> np.ndarray:
    """All block strings in canonical order, shape (n**m, m)."""
    idx = np.arange(n**m)
    return np.stack([(idx // n**b) % n for b in range(m)], axis=1)


def collision_penalty_table(n: int, m: int) -> np.ndarray:
    """Dense collision-penalty table over [n]^m in canonical order.

    As sum_k N_k = m and sum_k N_k^2 = m + 2 #{b < c : z_b = z_c}, the
    penalty is 2 #{b < c : z_b = z_c} + n - m.  On the (n,)*m grid whose
    axis b holds the symbol of block b, each pair of blocks adds an
    identity matrix broadcast along its two axes.
    """
    pairs = np.zeros((n,) * m, dtype=np.int64)
    same = np.eye(n, dtype=np.int64)
    for c in range(m):
        for b in range(c):
            shape = [1] * m
            shape[b] = shape[c] = n
            pairs += same.reshape(shape)
    return (2 * pairs + (n - m)).reshape(-1, order="F")


def penalty_table(inst: ProblemInstance) -> np.ndarray:
    """The instance's penalty over all n**m strings in canonical order, zero
    exactly on the feasible set L_0."""
    if inst.given_penalty is not None:
        return inst.given_penalty
    size = inst.checked_size()
    if inst.default_penalty:
        return collision_penalty_table(inst.n, inst.m)
    return np.zeros(size, dtype=np.int64)


def table_index(table: np.ndarray) -> LevelIndex:
    """A table over strings by level, for ``oracle.simulate``'s cost."""
    return Levels.of(table).index(table)


def assignment_energy_by_enumeration(cost: np.ndarray, lattice_scale: float) -> np.ndarray:
    """The int64 lattice energies of an assignment cost matrix, summed in
    float over all n**m strings and checked per string; raises
    InstanceFormatError for a non-integral or oversized energy."""
    m, n = cost.shape
    energy = cost[np.arange(m)[None, :], enumerate_strings(n, m)].sum(axis=1)
    return _to_integers(energy / lattice_scale, "lattice energies")


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


def denominator_bound(p: int, c_beta: float, offpeak: float) -> float:
    """Upper bound (p+1) C + M (1-C) on the filter denominator of any law
    with envelope mass C on the optimal set whose off-peak Fejér weights are
    at most M."""
    if not 0.0 < c_beta <= 1.0:
        raise ValueError("envelope mass must lie in (0, 1]")
    if offpeak < 0:
        raise ValueError("off-peak bound must be nonnegative")
    return (p + 1) * c_beta + offpeak * (1.0 - c_beta)


def denominator_form_bound(p: int, c_beta: float, offpeak: float) -> float:
    """Success bound (p+1) C / ((p+1) C + M (1-C)); M = M_p(delta) gives the
    bound of ``certify``, an averaged Mbar the bound of ``rl``."""
    return (p + 1) * c_beta / denominator_bound(p, c_beta, offpeak)


def lattice_success_bound(p: int, c_beta: float, delta: float) -> float:
    """The denominator form at the analytic M_p(delta), for phase gap delta."""
    return denominator_form_bound(p, c_beta, offpeak_bound(p, delta))


@dataclass(frozen=True)
class PerStringPhases:
    """The wrapped-phase model with one phase per string: ``theta`` in place
    of the level phases of ``fejercert.instance.PhaseModel``, the colliding
    strings in place of its colliding levels (``phase_gap`` lists them
    through ``ProblemInstance.nonoptimal_strings``), whether the scope holds
    no non-optimal string (``all_optimal``), and the optimal strings
    ``omega_star``."""

    theta: np.ndarray
    theta_star: float
    delta: float
    gap_scope: GapScope
    omega_star: np.ndarray
    collided: bool = False
    colliding: tuple = ()
    all_optimal: bool = False


def phase_gap_per_string(
    inst: ProblemInstance, gamma: float, scope: GapScope = GapScope.ALL_STRINGS
) -> PerStringPhases:
    """The wrapped-phase model with the gap scanned over every non-optimal
    string of the scope, one circular distance per string."""
    check_phase(gamma, inst.energy)
    theta = wrap_angle(gamma * inst.energy.astype(float))
    e_star, omega_star = _optimum_per_string(inst)
    theta_star = wrap_angle(gamma * float(e_star))

    if scope is GapScope.ALL_STRINGS:
        scope_idx = np.arange(inst.size)
    else:
        scope_idx = np.flatnonzero(penalty_table(inst) == 0)
    in_omega = np.zeros(inst.size, dtype=bool)
    in_omega[omega_star] = True
    non_opt = scope_idx[~in_omega[scope_idx]]

    if non_opt.size == 0:
        return PerStringPhases(theta, theta_star, math.pi, scope, omega_star, all_optimal=True)

    dist = circular_distance(theta[non_opt], theta_star)
    colliding = non_opt[dist < PHASE_COLLISION_TOL]
    if colliding.size > 0:
        return PerStringPhases(theta, theta_star, 0.0, scope, omega_star, collided=True,
                               colliding=tuple(int(i) for i in colliding))
    return PerStringPhases(theta, theta_star, float(dist.min()), scope, omega_star)


@dataclass(frozen=True)
class PerStringLaw:
    """The filtered law string by string: probabilities, Fejér weights and
    the filter denominator."""

    probs: np.ndarray
    kernel: np.ndarray
    denominator: float


def filtered_distribution_per_string(env: Envelope, pm: PerStringPhases, p: int) -> PerStringLaw:
    """probs(z) = W(z) F_p(theta(z) - theta*) / D, one Fejér weight per
    string, D summed over all n**m strings."""
    kernel = fejer_kernel(p, pm.theta - pm.theta_star)
    weights = env.probs * kernel
    denominator = float(weights.sum())
    # a positive condition, so that a NaN denominator fails it
    if not 0.0 < denominator < math.inf:
        raise ValueError(f"filter denominator {denominator} is zero or not finite")
    return PerStringLaw(weights / denominator, kernel, denominator)


def success_probability_per_string(probs: np.ndarray, subset: np.ndarray) -> float:
    """Mass of a per-string law on a set of strings, summed string by string."""
    return float(probs[subset].sum())


def filtered_law_per_string(law: FilteredLaw, env: Envelope, level_of: np.ndarray) -> tuple:
    """Each string's Fejér weight and probability, gathered through its level."""
    kernel = law.kernel[level_of]
    return kernel, env.probs * kernel / law.denominator


def energy_gap_per_string(inst: ProblemInstance) -> float:
    """Minimal |E(z) - E_star| over the non-optimal strings (inf if none),
    from a mask over all n**m strings."""
    e_star, omega = _optimum_per_string(inst)
    mask = np.ones(inst.size, dtype=bool)
    mask[omega] = False
    if not mask.any():
        return math.inf
    return float(np.abs(inst.energy[mask] - e_star).min())


def _optimum_per_string(inst: ProblemInstance) -> tuple:
    """E* as the minimum feasible energy, and the feasible strings at E*,
    read from the penalty table."""
    feasible = np.flatnonzero(penalty_table(inst) == 0)
    e_star = int(inst.energy[feasible].min())
    return e_star, feasible[inst.energy[feasible] == e_star]


@dataclass(frozen=True)
class PerStringRLLaw:
    """The dither-averaged law string by string, with its standard errors
    (None when pooled) and the mass on a tracked subset."""

    probs: np.ndarray
    stderr: np.ndarray | None
    samples: int
    subset_mass: float | None = None
    subset_stderr: float | None = None


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
) -> PerStringRLLaw:
    """Monte Carlo average over dither draws u of the per-u filtered law,
    accumulated per string; the same draws as ``rl_filtered_distribution``.
    The mass on ``subset`` is averaged over the per-draw laws, with its
    standard error from the per-draw masses."""
    if samples < (1 if pooled else 2):
        raise ValueError("need at least 2 samples, or 1 when pooled")
    if p < 0:
        raise ValueError("order must be nonnegative")
    if env.size != inst.size:
        raise ValueError("envelope does not match the instance")
    gap = energy_gap_per_string(inst)
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
        return PerStringRLLaw(
            probs=probs,
            stderr=None,
            samples=samples,
            subset_mass=sub_mass,
            subset_stderr=None,
        )
    variance = (total_sq - samples * mean**2) / (samples - 1)
    stderr = np.sqrt(np.maximum(variance, 0.0) / samples)
    sub_mass = sub_err = None
    if subset_masses is not None:
        arr = np.asarray(subset_masses)
        sub_mass = float(arr.mean())
        sub_err = float(arr.std(ddof=1) / math.sqrt(samples))
    return PerStringRLLaw(
        probs=mean,
        stderr=stderr,
        samples=samples,
        subset_mass=sub_mass,
        subset_stderr=sub_err,
    )


def rl_law_per_string(law: RLLaw, env: Envelope, level_of: np.ndarray) -> tuple:
    """Each string's probability, gathered through its level, and its
    standard error (None when pooled)."""
    probs = env.probs * law.level_mean[level_of]
    if law.level_sum_sq is None:
        return probs / float(probs.sum()), None
    samples = law.samples
    variance = (env.probs**2 * law.level_sum_sq[level_of] - samples * probs**2) / (samples - 1)
    return probs, np.sqrt(np.maximum(variance, 0.0) / samples)


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


def invariant_sector_generators(n: int, m: int) -> tuple:
    """Restrictions (A, B) of the collision penalty and the block mixer to
    the invariant sector, in the normalized orbit basis, as dense matrices;
    A is diagonal with the per-orbit penalty level."""
    basis = invariant_sector_basis(n, m)
    return np.diag(np.asarray(basis.penalties, dtype=float)), sector_mixer(basis)


def relabel_pair_counts(labels: np.ndarray, k: int, n: int, m: int) -> tuple:
    """Counts of ordered single-block-relabel pairs between the k classes of
    [n]^m given by ``labels`` (one class index per string), as arrays
    (src, dst, count) over the class pairs that occur, sorted by (src, dst)."""
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


def feasibility_document_by_table(
    inst: ProblemInstance, gamma: float, p: int, seed: int
) -> dict:
    """The ``feasibility`` document of an instance, read from its dense
    penalty table: the levels by ``Levels.of``, the edges from the relabel
    pair counts, the gap and c_F string by string, and the search's
    ``pi_f`` at the zero schedule from one statevector run.  The search
    reports the zero schedule, so ``evaluations`` is left None."""
    table = penalty_table(inst)
    ls = Levels.of(table)
    rank = np.searchsorted(ls.values, table)
    src, dst, _ = relabel_pair_counts(rank, len(ls.values), inst.n, inst.m)
    edges = [[ls.values[i], ls.values[j]] for i, j in zip(src.tolist(), dst.tolist()) if i < j]
    graph = coo_array((np.ones(src.size), (src, dst)), shape=(len(ls.values),) * 2)
    dist = circular_distance(wrap_angle(gamma * table[table > 0].astype(float)), 0.0)
    delta = float(dist.min(initial=math.pi))
    collided = delta < PHASE_COLLISION_TOL
    delta = 0.0 if collided else delta
    feasible = np.flatnonzero(table == 0)
    c_f = feasible.size / inst.size
    bounds = None
    if delta > 0.0 and c_f > 0.0:
        bounds = {}
        for q in (1, 2):
            x = ratio_parameter(q, delta, c_f)
            bounds[f"p{q}"] = {"x_f": x, **ratio_bounds(x, c_f)._asdict()}
    state = simulate_reference(inst, [0.0] * p, [0.0] * p, cost_table=table)
    t_max = int(table.max())
    return {
        "command": "feasibility",
        "gamma": gamma,
        "levels": {str(t): c for t, c in zip(ls.values, ls.counts)},
        "graph": {"vertices": list(ls.values), "edges": edges},
        "connected": connected_components(graph, directed=False)[0] == 1,
        "delta_f": delta,
        "aliasing": t_max > 0 and gamma > math.pi / t_max + 1e-15,
        "collided": collided,
        "c_f": c_f,
        "bounds": bounds,
        "search": {"gammas": [0.0] * p, "betas": [0.0] * p,
                   "pi_f": float((np.abs(state.amplitudes[feasible]) ** 2).sum()),
                   "evaluations": None, "seed": seed},
        "seed": seed,
    }


def sector_by_enumeration(n: int, m: int) -> tuple:
    """The orbit basis and the generators (A, B) of the invariant sector from
    all n**m strings: each string's sorted symbol counts name its orbit, the
    orbits are ordered by their first string, A holds the penalty of that
    string and B the relabel pair counts, normalized by the orbit sizes."""
    strings = enumerate_strings(n, m)
    counts = np.stack([(strings == k).sum(axis=1) for k in range(n)], axis=1)
    keys, first, inverse, sizes = np.unique(
        np.sort(counts, axis=1)[:, ::-1], axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    basis = SectorBasis(
        n=n,
        m=m,
        keys=tuple(tuple(int(v) for v in keys[i]) for i in order),
        sizes=tuple(int(sizes[i]) for i in order),
    )
    a = np.diag([float(collision_penalty(index_string(int(first[i]), n, m), n))
                 for i in order])
    src, dst, pairs = relabel_pair_counts(rank[inverse.reshape(-1)], basis.dim, n, m)
    b = np.zeros((basis.dim, basis.dim))
    b[src, dst] = pairs
    weights = np.asarray(basis.sizes, dtype=float)
    return basis, a, b / np.sqrt(np.outer(weights, weights))


def sector_pair_counts_by_index(basis: SectorBasis) -> dict:
    """The relabel pair counts between orbits, {(src, dst): count}, one
    ordered pair (i, j) of symbol indices at a time: moving one of the c_i
    blocks on symbol i to symbol j takes the orbit's c_i * size moves to the
    orbit of the signature with c_i - 1 and c_j + 1."""
    position = {key: r for r, key in enumerate(basis.keys)}
    counts = {}
    for src, (key, size) in enumerate(zip(basis.keys, basis.sizes)):
        for i, c in enumerate(key):
            if c == 0:
                continue
            for j in range(len(key)):
                if j == i:
                    continue
                moved = list(key)
                moved[i] -= 1
                moved[j] += 1
                pair = (src, position[tuple(sorted(moved, reverse=True))])
                counts[pair] = counts.get(pair, 0) + c * size
    return counts


def sector_feasibility_rowwise(n: int, m: int) -> Callable:
    """The feasibility probability of one schedule (p cost angles, p mixer
    angles) under the collision penalty, from the invariant sector: each
    angle checked on its own, each layer a matrix-vector product."""
    basis = invariant_sector_basis(n, m)
    a, b = invariant_sector_generators(n, m)
    penalty = np.diag(a)
    mixer_phases, vectors = np.linalg.eigh(b)
    vectors = vectors.astype(complex)
    inverse = vectors.T.copy()
    start = np.sqrt(np.asarray(basis.sizes, dtype=float) / n**m).astype(complex)
    feasible = basis.penalties.index(0)

    def pi_f(gammas: Sequence[float], betas: Sequence[float]) -> float:
        for gamma in gammas:
            check_phase(gamma, penalty)
        psi = start
        for gamma, beta in zip(gammas, betas):
            check_block_phase(n, beta)
            psi = np.exp(-1j * gamma * penalty) * psi
            psi = vectors @ (np.exp(-1j * beta * mixer_phases) * (inverse @ psi))
        check_norm(psi)
        return float(abs(psi[feasible]) ** 2)

    return pi_f


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


def _fmt(value: float) -> str:
    return repr(float(value))


def csv_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def envelope_csv_rowwise(probs: np.ndarray, n: int, m: int) -> str:
    rows = (
        (format_string(index_string(i, n, m)), float(p)) for i, p in enumerate(probs)
    )
    return csv_table(("string", "probability"), rows)


def filtered_law_csv_rowwise(
    probs: np.ndarray, theta: np.ndarray, weights: np.ndarray, n: int, m: int
) -> str:
    rows = (
        (format_string(index_string(i, n, m)), float(theta[i]), float(weights[i]), float(probs[i]))
        for i in range(probs.size)
    )
    return csv_table(("string", "phase", "fejer_weight", "probability"), rows)


def rl_law_csv_rowwise(probs: np.ndarray, stderr: np.ndarray | None, n: int, m: int) -> str:
    if stderr is None:  # a pooled law
        rows = ((format_string(index_string(i, n, m)), float(probs[i])) for i in range(probs.size))
        return csv_table(("string", "probability"), rows)
    rows = (
        (format_string(index_string(i, n, m)), float(probs[i]), float(stderr[i]))
        for i in range(probs.size)
    )
    return csv_table(("string", "probability", "stderr"), rows)


def curves_csv_rowwise(rows: Iterable[Sequence[float]]) -> str:
    body = ((float(d), int(p), float(e), float(c)) for d, p, e, c in rows)
    return csv_table(("delta", "p", "epsilon", "c_min"), body)


def apply_block_kernel_tensordot(mat: np.ndarray, probs: np.ndarray, m: int) -> np.ndarray:
    n = mat.shape[0]
    v = probs.reshape((n,) * m, order="F")
    for axis in range(m):
        v = np.moveaxis(np.tensordot(mat, v, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(v.reshape(-1, order="F"))


def apply_cost_per_string(state: EncodedState, table: np.ndarray, gamma: float) -> EncodedState:
    phases = np.exp(-1j * gamma * table.astype(float))
    amps = np.multiply(phases, state.amplitudes)
    return EncodedState(n=state.n, m=state.m, amplitudes=amps)


def apply_mixer_allocating(state: EncodedState, beta: float) -> EncodedState:
    n, m = state.n, state.m
    phase, coupling = _block_coefficients(n, beta)
    v = state.amplitudes.reshape((n,) * m, order="F")
    for axis in range(m):
        sums = v.sum(axis=axis, keepdims=True)
        v = np.multiply(phase, np.add(v, np.multiply(coupling, sums)))
    amps = np.ascontiguousarray(v.reshape(-1, order="F"))
    return EncodedState(n=n, m=m, amplitudes=amps)


def simulate_reference(
    inst: ProblemInstance, gammas: Sequence[float], betas: Sequence[float],
    cost_table: np.ndarray | None = None,
) -> EncodedState:
    table = inst.energy if cost_table is None else cost_table
    state = initial_state(inst.n, inst.m, cap=inst.cap)
    for gamma, beta in zip(gammas, betas):
        state = apply_mixer_allocating(apply_cost_per_string(state, table, gamma), beta)
    return state
