import collections
import itertools
import math
import re
import types

import numpy as np
import pytest

from conftest import random_envelope
from oracles import (
    collision_penalty_table,
    invariant_sector_generators,
    lattice_success_bound,
    lie_closure_dim,
    penalty_table,
    relabel_pair_counts,
    sector_by_enumeration,
    sector_feasibility_rowwise,
    sector_pair_counts_by_index,
    table_index,
)
from fejercert import (
    CapExceededError,
    collision_penalty,
    feasibility,
    load_instance,
    oracle,
    ratio_bounds,
    ratio_parameter,
)
from fejercert.feasibility import (
    _Evaluator,
    _restart_rows,
    _rowwise_line,
    _sector_feasibility,
    _statevector_feasibility,
    LevelGraph,
    aliasing,
    delta_feasible,
    descent_step,
    feasibility_angle_search,
    graph_connected,
    level_graph,
    level_sets,
    overlap_feasibility_floor,
)
from fejercert.fejer import fejer_kernel
from fejercert.instance import Levels, SectorBasis, invariant_sector_basis
from fejercert.mixer import resonance_distance


def assignment_instance(n, energies=None):
    size = n**n
    energy = energies if energies is not None else [0] * size
    return load_instance({"n": n, "m": n, "energy": energy}, cap=max(size, 4096))


def explicit_penalty_instance(n):
    """The n x n instance with the collision table given in the document, so
    that its feasibility stage runs over all n**n strings."""
    doc = {"n": n, "m": n, "energy": [0] * n**n,
           "penalty": collision_penalty_table(n, n).tolist()}
    return load_instance(doc, cap=max(n**n, 4096))


def level_pair_counts(inst, ls):
    """The relabel pair counts between the penalty levels ``ls`` of an
    instance, {(t, t'): count}, by the counting oracle over all n**m strings."""
    rank = np.searchsorted(ls.values, penalty_table(inst))
    src, dst, counts = relabel_pair_counts(rank, len(ls.values), inst.n, inst.m)
    return {(ls.values[i], ls.values[j]): c
            for i, j, c in zip(src.tolist(), dst.tolist(), counts.tolist())}


def canonical_strings(n, m):
    """[n]^m in canonical order (block 0 fastest), by itertools."""
    return [tuple(reversed(t)) for t in itertools.product(range(n), repeat=m)]


def brute_relabel_pairs(n, m, label):
    """Pure-Python oracle: the count of every ordered single-block relabel
    pair (z, z') by class, {(label(z), label(z')): count}."""
    counts = {}
    for z in canonical_strings(n, m):
        for b in range(m):
            for v in range(n):
                if v != z[b]:
                    key = (label(z), label(z[:b] + (v,) + z[b + 1:]))
                    counts[key] = counts.get(key, 0) + 1
    return counts


def orbit_key(z, n):
    return tuple(sorted((z.count(k) for k in range(n)), reverse=True))


class TestLevelSets:
    def test_two_by_two(self):
        inst = assignment_instance(2)
        assert level_sets(inst) == Levels((0, 2), (2, 2))
        assert inst.feasible_indices().tolist() == [1, 2]  # strings (1,0) and (0,1)

    def test_single_block(self):
        assert level_sets(load_instance({"n": 1, "m": 1, "energy": [0]})) == Levels((0,), (1,))

    def test_three_by_three_feasible_count(self):
        ls = level_sets(assignment_instance(3))
        assert ls.values[0] == 0 and ls.counts[0] == math.factorial(3)

    def test_partition_covers_space(self):
        inst = assignment_instance(3)
        ls = level_sets(inst)
        assert sum(ls.counts) == inst.size


class TestLevelGraph:
    def test_two_by_two_edge(self):
        # the default penalty on the sector route, the same table given in
        # the document over all strings
        for inst in (assignment_instance(2), explicit_penalty_instance(2)):
            ls = level_sets(inst)
            g = level_graph(inst, ls)
            assert g.vertices == (0, 2)
            assert g.edges == ((0, 2),)
            # (1,0) and (0,1) each reach both of (0,0), (1,1) by one relabel:
            # 4 directed pairs each way
            assert level_pair_counts(inst, ls) == {(0, 2): 4, (2, 0): 4}

    def test_single_level_no_edges(self):
        inst = load_instance({"n": 2, "m": 3, "energy": [0] * 8})
        ls = level_sets(inst)
        g = level_graph(inst, ls)
        assert g.vertices == (0,)
        assert g.edges == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_connected_for_assignment_penalty(self, n):
        for inst in (assignment_instance(n), explicit_penalty_instance(n)):
            assert graph_connected(level_graph(inst, level_sets(inst)))

    @pytest.mark.parametrize("n,m,user_penalty", [
        (2, 2, None), (3, 3, None), (4, 4, None), (2, 3, None), (3, 4, "random"),
        (4, 4, "distinct"),
    ])
    def test_matches_brute_force_pair_count(self, n, m, user_penalty):
        doc = {"n": n, "m": m, "energy": [0] * n**m}
        if user_penalty == "random":
            doc["penalty"] = [int(t) for t in np.random.default_rng(11).integers(0, 5, n**m)]
        elif user_penalty == "distinct":  # one level per string
            doc["penalty"] = list(range(n**m))
        inst = load_instance(doc)
        ls = level_sets(inst)
        g = level_graph(inst, ls)
        index = {z: i for i, z in enumerate(canonical_strings(n, m))}
        table = penalty_table(inst)
        counts = brute_relabel_pairs(n, m, lambda z: int(table[index[z]]))
        sizes = collections.Counter(int(t) for t in table)
        edges = tuple(sorted(k for k, c in counts.items() if k[0] < k[1] and c > 0))
        assert g.vertices == tuple(sorted(sizes))
        assert g.edges == edges
        assert level_pair_counts(inst, ls) == counts

    def test_isolated_vertex_fixture(self):
        g = LevelGraph(vertices=(0, 2, 7), edges=((0, 2),))
        assert not graph_connected(g)

    def test_single_vertex_connected(self):
        assert graph_connected(LevelGraph(vertices=(0,), edges=()))


class TestDescent:
    def test_three_block_example(self):
        assert descent_step((0, 0, 1)) == (2, 0, 1)
        assert collision_penalty((2, 0, 1), 3) == 0

    def test_two_block_example(self):
        assert descent_step((0, 0)) == (1, 0)

    def test_feasible_rejected(self):
        with pytest.raises(ValueError):
            descent_step((0, 1, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_drop_at_least_two(self, n):
        for z in itertools.product(range(n), repeat=n):
            before = collision_penalty(z, n)
            if before == 0:
                continue
            after = collision_penalty(descent_step(z), n)
            assert after <= before - 2


class TestDeltaFeasible:
    def test_sparse_levels(self):
        inst = load_instance(
            {"n": 2, "m": 2, "energy": [0] * 4, "penalty": [0, 2, 4, 0]}
        )
        ls = level_sets(inst)
        sep = delta_feasible(math.pi / 4, ls)
        assert sep.delta == pytest.approx(math.pi / 2)
        assert not aliasing(math.pi / 4, ls) and not sep.collided

    def test_anti_aliased_equals_gamma_tmin(self):
        ls = level_sets(assignment_instance(3))
        t_min = min(t for t in ls.values if t > 0)
        gamma = math.pi / ls.values[-1]
        sep = delta_feasible(gamma, ls)
        assert sep.delta == gamma * t_min
        assert not aliasing(gamma, ls)

    def test_wrap_collision(self):
        ls = level_sets(assignment_instance(2))  # active {0, 2}
        sep = delta_feasible(math.pi, ls)  # gamma * 2 = 2 pi wraps to 0
        assert sep.collided and sep.delta == 0.0
        assert sep.colliding == (2,)
        assert aliasing(math.pi, ls)

    def test_all_feasible_defaults_to_pi(self):
        inst = load_instance({"n": 2, "m": 3, "energy": [0] * 8})
        ls = level_sets(inst)
        sep = delta_feasible(0.3, ls)
        assert ls.values == (0,)
        assert sep.delta == math.pi and not sep.collided and not aliasing(0.3, ls)


def feasibility_bound(p, c_f, delta_f):
    """The document's bounds.pK entry, as feasibility builds it, checked
    against the denominator form at M_p(delta_F)."""
    x_f = ratio_parameter(p, delta_f, c_f)
    bounds = ratio_bounds(x_f, c_f)
    assert bounds.tight == pytest.approx(lattice_success_bound(p, c_f, delta_f), abs=1e-12)
    return types.SimpleNamespace(x_f=x_f, **bounds._asdict())


class TestFeasibilityBound:
    def test_depth_one_example(self):
        fb = feasibility_bound(1, 0.25, math.pi)
        assert fb.x_f == pytest.approx(1.0)
        assert fb.tight == pytest.approx(1 / 1.75)
        assert fb.simple == pytest.approx(0.5)

    def test_depth_two_example(self):
        fb = feasibility_bound(2, 0.25, math.pi)
        assert fb.x_f == pytest.approx(2.25)
        assert fb.simple == pytest.approx(2.25 / 3.25)

    def test_shallow_prefactors(self):
        # (p+1)^2 = 4 and 9 for the two shallow orders
        for p, prefactor in ((1, 4.0), (2, 9.0)):
            fb = feasibility_bound(p, 0.3, 1.1)
            assert fb.x_f == pytest.approx(prefactor * math.sin(0.55) ** 2 * 0.3)

    def test_full_feasible_mass(self):
        assert feasibility_bound(2, 1.0, 0.8).tight == 1.0

    def test_tight_dominates_simple(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            fb = feasibility_bound(
                int(rng.integers(0, 8)),
                float(rng.uniform(0.01, 1.0)),
                float(rng.uniform(0.05, math.pi)),
            )
            assert fb.tight >= fb.simple - 1e-15

    @pytest.mark.parametrize("p", [1, 2])
    def test_bounds_below_exact_dephased_feasibility(self, p, rng):
        # oracle: filter an envelope with penalty phases and read off the
        # feasible mass; the closed-form bounds must sit below it
        for n in (2, 3):
            inst = assignment_instance(n)
            ls = level_sets(inst)
            gamma = 0.9 * math.pi / ls.values[-1]
            sep = delta_feasible(gamma, ls)
            env = random_envelope(rng, inst.size)
            weights = env.probs * fejer_kernel(p, gamma * penalty_table(inst).astype(float))
            exact = weights[inst.feasible_indices()].sum() / weights.sum()
            c_f = env.probs[inst.feasible_indices()].sum()
            fb = feasibility_bound(p, c_f, sep.delta)
            assert fb.simple <= fb.tight <= exact + 1e-12

    def test_arithmetic_identity_49_64(self):
        assert overlap_feasibility_floor(0.5) == 49 / 64
        assert overlap_feasibility_floor(0.5) > 0.5


class TestInvariantSector:
    def test_two_by_two_orbits(self):
        basis = invariant_sector_basis(2, 2)
        assert basis.dim == 2
        assert sorted(basis.sizes) == [2, 2]

    def test_single_symbol(self):
        assert invariant_sector_basis(1, 3).dim == 1

    def test_single_block(self):
        assert invariant_sector_basis(2, 1).dim == 1

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (4, 2)])
    def test_orbit_sizes_sum(self, n, m):
        basis = invariant_sector_basis(n, m)
        assert sum(basis.sizes) == n**m

    def test_three_by_three_generators(self):
        a, b = invariant_sector_generators(3, 3)
        assert a.shape == (3, 3)
        # orbit penalties: permutations 0, one collision 2, triple 6
        assert sorted(np.diag(a)) == [0.0, 2.0, 6.0]
        assert np.allclose(b, b.T)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (4, 2)])
    def test_generators_match_brute_force(self, n, m):
        strings = canonical_strings(n, m)
        sizes = collections.Counter(orbit_key(z, n) for z in strings)
        first = {}  # first string of each orbit, in order of appearance
        for z in strings:
            first.setdefault(orbit_key(z, n), z)
        keys = list(first)
        counts = brute_relabel_pairs(n, m, lambda z: orbit_key(z, n))
        a, b = invariant_sector_generators(n, m)
        assert invariant_sector_basis(n, m).keys == tuple(keys)
        expected_a = np.diag([float(collision_penalty(first[k], n)) for k in keys])
        assert np.array_equal(a, expected_a)
        expected_b = np.array([
            [counts.get((ki, kj), 0) / math.sqrt(sizes[ki] * sizes[kj]) for kj in keys]
            for ki in keys
        ])
        assert np.array_equal(b, expected_b)


SECTOR_SHAPES = [(n, m) for n in range(1, 7) for m in range(1, 7) if n**m <= 50000]


class TestSectorAgreement:
    """The combinatorial sector build against enumeration of the n**m
    strings, and the sector feasibility stage against the statevector."""

    @pytest.mark.parametrize("n,m", SECTOR_SHAPES)
    def test_build_matches_enumeration(self, n, m):
        basis, a, b = sector_by_enumeration(n, m)
        assert invariant_sector_basis(n, m) == basis
        sector_a, sector_b = invariant_sector_generators(n, m)
        assert np.array_equal(sector_a, a) and np.array_equal(sector_b, b)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pi_f_matches_statevector(self, n):
        inst = assignment_instance(n)
        pi_f, _ = _sector_feasibility(inst.sector)
        table = penalty_table(inst)
        assert inst.t_max() == int(table.max())
        cost = table_index(table)
        rng = np.random.default_rng(900 + n)
        for p in range(4):
            schedules = [(rng.uniform(-math.pi, math.pi, size=p),
                          rng.uniform(0.0, 2.0 * math.pi, size=p)) for _ in range(20)]
            gammas, betas = (np.array(angles).reshape(20, p) for angles in zip(*schedules))
            for (g, b), value in zip(schedules, pi_f(gammas, betas)):
                state = oracle.simulate(inst, g, b, cost_table=cost)
                expected = oracle.projector_mass(state, inst.feasible_indices())
                assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_levels_match_statevector(self, n):
        inst = explicit_penalty_instance(n)
        ls = level_sets(inst)
        graph = level_graph(inst, ls)
        sector_inst = assignment_instance(n)
        sector_ls = level_sets(sector_inst)
        sector_graph = level_graph(sector_inst, sector_ls)
        # sector and dense Levels agree exactly, counts as Python ints
        assert sector_ls == ls == Levels.of(penalty_table(inst))
        assert sector_graph.vertices == graph.vertices
        assert sector_graph.edges == graph.edges
        # the orbit pair counts summed by level are the string pair counts
        basis = sector_inst.sector
        summed = collections.Counter()
        for (src, dst), count in basis.pair_counts.items():
            summed[basis.penalties[src], basis.penalties[dst]] += count
        assert dict(summed) == level_pair_counts(inst, ls)

    @pytest.mark.parametrize("gammas, betas, named", [
        ([1e308], [0.3], "cost angle 1e+308"),
        ([0.3], [1e308], "mixer angle 1e+308"),
        ([0.3], [math.nan], "mixer angle nan"),
    ])
    def test_sector_keeps_statevector_checks(self, gammas, betas, named):
        pi_f, line = _sector_feasibility(invariant_sector_basis(3, 3))
        with pytest.raises(ValueError, match=re.escape(named)):
            pi_f(np.array([gammas]), np.array([betas]))
        # the line path checks the fixed angles and the bracket end alike
        bad = np.array(gammas + betas)
        k = 0 if gammas != [0.3] else 1  # the coordinate of the bad angle
        for x, j, hi in ((bad, 1 - k, 0.5), (np.array([0.3, 0.3]), k, float(bad[k]))):
            with pytest.raises(ValueError, match=re.escape(named)):
                line(x, j, hi)

    def test_sector_line_checks_norms(self, monkeypatch):
        # orbit sizes that do not sum to n**m give a start state of norm sqrt(2)
        basis = invariant_sector_basis(3, 3)
        broken = SectorBasis(3, 3, basis.keys, tuple(2 * s for s in basis.sizes))
        pi_f, line = _sector_feasibility(broken)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        with pytest.raises(ValueError, match="state norm"):
            pi_f(x[None, :2], x[None, 2:])
        for j in range(4):
            with pytest.raises(ValueError, match="state norm"):
                line(x, j, 1.0)
        # every line checks both of its states, a and r
        checked = []
        check_norm = oracle.check_norm
        monkeypatch.setattr(oracle, "check_norm", lambda v: checked.append(v.ndim) or check_norm(v))
        line = _sector_feasibility(basis).line
        for j in range(4):
            line(x, j, 1.0)
        assert checked == [1, 1] * 4

    @pytest.mark.parametrize("n", range(2, 9))
    def test_line_matches_layered_and_rowwise(self, n):
        # every coordinate of p = 1..3 schedules, at points across the bracket
        basis = invariant_sector_basis(n, n)
        pi_f, line = _sector_feasibility(basis)
        t_max = max(basis.penalties)
        rowwise = sector_feasibility_rowwise(n, n)
        inst = assignment_instance(n) if n <= 5 else None
        cost = table_index(penalty_table(inst)) if inst is not None else None
        rng = np.random.default_rng(1100 + n)
        for p in range(1, 4):
            upper = [math.pi / t_max] * p + [2.0 * math.pi] * p
            for _ in range(3):
                x = rng.uniform(0.0, upper)
                for j, hi in enumerate(upper):
                    along = line(x, j, hi)
                    for val in (0.0, hi, *rng.uniform(0.0, hi, size=4)):
                        y = x.copy()
                        y[j] = val
                        value = along(val)
                        assert abs(value - pi_f(y[None, :p], y[None, p:])[0]) <= 1e-12
                        assert abs(value - rowwise(y[:p], y[p:])) <= 1e-12
                        if inst is not None:
                            state = oracle.simulate(inst, y[:p], y[p:], cost_table=cost)
                            expected = oracle.projector_mass(state, inst.feasible_indices())
                            assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize("n,m", [(n, n) for n in range(2, 17)]
                             + [(2, 5), (3, 7), (5, 3), (7, 4), (9, 2), (4, 12)])
    def test_pair_counts_match_per_index(self, n, m):
        basis = invariant_sector_basis(n, m)
        assert basis.pair_counts == sector_pair_counts_by_index(basis)


    @pytest.mark.parametrize("n", range(2, 7))
    def test_batched_matches_rowwise(self, n):
        # restart-like schedules: gamma in (0, pi/t_max], beta in (0, 2pi)
        basis = invariant_sector_basis(n, n)
        batched, _ = _sector_feasibility(basis)
        t_max = max(basis.penalties)
        rowwise = sector_feasibility_rowwise(n, n)
        rng = np.random.default_rng(700 + n)
        for p in range(4):
            gammas = rng.uniform(0.0, math.pi / t_max, size=(99, p))
            betas = rng.uniform(0.0, 2.0 * math.pi, size=(99, p))
            values = batched(gammas, betas)
            expected = np.array([rowwise(g, b) for g, b in zip(gammas, betas)])
            assert np.max(np.abs(values - expected)) <= 1e-12
            assert np.argmax(values) == np.argmax(expected)

    @pytest.mark.parametrize("n,m,dim", [(1, 1, 1), (3, 3, 3), (2, 5, 3), (5, 5, 7), (6, 6, 11),
                                         (12, 12, 77), (16, 16, 231)])
    def test_sector_dimension_counts_partitions(self, n, m, dim):
        assert invariant_sector_basis(n, m, cap=dim).dim == dim
        with pytest.raises(CapExceededError, match="sector dimension"):
            invariant_sector_basis(n, m, cap=dim - 1)

    def test_sector_dimension_past_cap_without_enumeration(self):
        # p(3000000) has about 1900 digits; the count stops at cap + 1,
        # before any key is padded to length 3000000
        with pytest.raises(CapExceededError, match="exceeds enumeration cap 4096"):
            invariant_sector_basis(3000000, 3000000, cap=4096)


class TestLieClosure:
    def test_identical_generators_abelian(self):
        a = np.diag([1.0, 2.0, 3.0])
        report = lie_closure_dim(a, a)
        assert report.dim == 1
        assert not report.full_unitary_algebra

    def test_traceless_pair_gives_three(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = lie_closure_dim(a, b)
        assert report.dim == 3
        assert not report.full_unitary_algebra
        assert not report.hit_iteration_cap

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            lie_closure_dim(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_sector_probe_reports(self):
        # numeric closure on the n = m = 3 invariant sector: reported, not
        # asserted to reach the full unitary algebra
        a, b = invariant_sector_generators(3, 3)
        report = lie_closure_dim(a, b)
        d = a.shape[0]
        assert 1 <= report.dim <= d * d
        print(
            f"sector probe n=m=3: closure dim {report.dim} of max {d * d}; "
            f"full algebra: {report.full_unitary_algebra}"
        )


class TestAngleSearch:
    def test_all_feasible_is_trivial(self):
        inst = load_instance({"n": 2, "m": 3, "energy": [0] * 8})
        result = feasibility_angle_search(inst, 2, budget=10, seed=1)
        assert result.pi_f == pytest.approx(1.0)

    def test_order_zero_baseline(self):
        inst = assignment_instance(2)
        result = feasibility_angle_search(inst, 0, budget=5, seed=1)
        assert result.pi_f == pytest.approx(2 / 4)
        assert result.gammas == () and result.betas == ()

    def test_never_below_baseline(self):
        inst = assignment_instance(2)
        result = feasibility_angle_search(inst, 2, budget=500, seed=7)
        assert result.pi_f >= 2 / 4 - 1e-12
        assert result.evaluations <= 500

    def test_deterministic_under_seed(self):
        inst = assignment_instance(2)
        a = feasibility_angle_search(inst, 2, budget=120, seed=42)
        b = feasibility_angle_search(inst, 2, budget=120, seed=42)
        assert a == b

    def test_search_improves_on_three_blocks(self):
        inst = assignment_instance(3)
        result = feasibility_angle_search(inst, 2, budget=200, seed=3)
        assert result.pi_f > 6 / 27

    def test_sector_search_honours_cap(self):
        # 20x20 has 627 orbits, the partitions of 20
        with pytest.raises(CapExceededError, match="sector dimension"):
            feasibility_angle_search(zero_cost_instance(20, cap=100), 1, budget=10, seed=0)

    @pytest.mark.parametrize("n,p,budget", [(3, 2, 200), (4, 3, 120), (5, 1, 600)])
    def test_batched_restarts_match_rowwise_search(self, n, p, budget, monkeypatch):
        # same draws, same first maximum: only pi_f may move, by rounding
        inst = assignment_instance(n)
        batched = feasibility_angle_search(inst, p, budget=budget, seed=11)

        def rowwise_sector(basis):
            # one schedule at a time, and a refinement on the same evaluator
            one = sector_feasibility_rowwise(basis.n, basis.m)
            pi_f = lambda gammas, betas: np.array([one(g, b) for g, b in zip(gammas, betas)])
            return _Evaluator(pi_f, _rowwise_line(pi_f))

        monkeypatch.setattr(feasibility, "_sector_feasibility", rowwise_sector)
        reference = feasibility_angle_search(inst, p, budget=budget, seed=11)
        assert (batched.gammas, batched.betas, batched.evaluations) == (
            reference.gammas, reference.betas, reference.evaluations)
        assert abs(batched.pi_f - reference.pi_f) <= 1e-12


def zero_cost_instance(n, cap=4096):
    """An n x n assignment instance without n**n tables; the sector search
    reads no cost."""
    return load_instance({"n": n, "m": n, "generator": {"kind": "assignment",
                                                        "cost": [[0] * n] * n}}, cap=cap)


def _layered_search(monkeypatch, *args):
    """The search with its refinement on the batch evaluator, one row per
    golden-section point, as the statevector path runs it."""
    sector = feasibility._sector_feasibility

    def layered(basis):
        evaluator = sector(basis)
        return evaluator._replace(line=_rowwise_line(evaluator.pi_f))

    with monkeypatch.context() as patch:
        patch.setattr(feasibility, "_sector_feasibility", layered)
        return feasibility_angle_search(*args)


class TestLineRefinement:
    """The closed-form refinement steers the search; the reported pi_f is
    the batch evaluator's value at the reported angles."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reported_pi_f_is_layered_value(self, n, monkeypatch):
        inst = zero_cost_instance(n)
        pi_f = _sector_feasibility(invariant_sector_basis(n, n)).pi_f
        for p in range(1, 4):
            for seed in range(4):
                for budget in (50, 200):
                    result = feasibility_angle_search(inst, p, budget, seed)
                    g, b = np.array([result.gammas]), np.array([result.betas])
                    assert result.pi_f == float(pi_f(g, b)[0])
                    layered = _layered_search(monkeypatch, inst, p, budget, seed)
                    assert result.evaluations == layered.evaluations
                    assert abs(result.pi_f - layered.pi_f) <= 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_benchmark_searches_match_layered_search(self, n, monkeypatch):
        # the benchmark's searches: order 2, budget 200, seed 7
        inst = zero_cost_instance(n)
        assert feasibility_angle_search(inst, 2, 200, 7) == _layered_search(
            monkeypatch, inst, 2, 200, 7)


class TestStatevectorEvaluator:
    def test_one_level_index_per_evaluator(self, monkeypatch):
        inst = explicit_penalty_instance(3)
        calls = []
        index = Levels.index
        monkeypatch.setattr(Levels, "index", lambda ls, table: calls.append(1) or index(ls, table))
        evaluator = _statevector_feasibility(inst)
        rng = np.random.default_rng(5)
        gammas, betas = rng.uniform(0.0, 1.0, size=(6, 2)), rng.uniform(0.0, 2.0, size=(6, 2))
        values = evaluator.pi_f(gammas, betas)
        along = evaluator.line(np.concatenate([gammas[0], betas[0]]), 1, 2.0)
        along(0.7)
        assert len(calls) == 1
        monkeypatch.setattr(Levels, "index", index)
        for g, b, value in zip(gammas, betas, values):
            state = oracle.simulate(inst, g, b, cost_table=table_index(penalty_table(inst)))
            assert value == oracle.projector_mass(state, inst.feasible_indices())


class TestRestartRows:
    """The one-call restart draw: rejected mixer angles are drawn again in
    place, and every other angle is the plain draw's."""

    @pytest.mark.parametrize("margin", [1e-6, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_redraws_only_resonant_angles(self, n, margin, monkeypatch):
        monkeypatch.setattr(feasibility, "_RESONANCE_MARGIN", margin)
        redrawn = 0
        for p in (1, 2, 3):
            upper = np.array([math.pi / 6] * p + [2.0 * math.pi] * p)
            for seed, rows in itertools.product(range(5), (1, 7, 256)):
                x = _restart_rows(np.random.default_rng(seed), rows, upper, n)
                plain = np.random.default_rng(seed).random((rows, 2 * p)) * upper
                assert all(resonance_distance(n, beta) > margin for beta in x[:, p:].ravel())
                assert ((0.0 <= x) & (x < upper)).all()
                kept = np.array([[j < p or resonance_distance(n, v) > margin
                                  for j, v in enumerate(row)] for row in plain])
                assert np.array_equal(x[kept], plain[kept])
                # the redrawn angles are 2pi times the stream's doubles after the batch
                stream = np.random.default_rng(seed).random(rows * 2 * p * 20)[rows * 2 * p:]
                assert set(x[~kept].tolist()) <= set((stream * (2.0 * math.pi)).tolist())
                redrawn += int((~kept).sum())
        # a margin of 0.3 rejects some mixer angles, and these seeds draw none
        # within 1e-6 of a resonance, so there the rows are the plain draw
        assert (redrawn > 0) == (margin == 0.3)
