import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forbid_integer_tables
from oracles import (
    assignment_energy_by_enumeration,
    collision_penalty_table,
    energy_gap_per_string,
    enumerate_strings,
    index_string,
    _optimum_per_string,
    penalty_table,
    phase_gap_per_string,
    string_index,
)
from fejercert import (
    CapExceededError,
    GapScope,
    InstanceFormatError,
    collision_penalty,
    load_instance,
    phase_gap,
    wrap_angle,
)
from fejercert import instance as instance_module
from fejercert.feasibility import delta_feasible, level_sets
from fejercert.instance import Levels, PhaseModel, level_phase_gap, permutation_indices
from fejercert.rl import energy_gap


class TestIndexing:
    def test_round_trip(self):
        for n, m in [(2, 3), (3, 2), (4, 1), (2, 1)]:
            for i in range(n**m):
                assert string_index(index_string(i, n, m), n) == i

    def test_block_zero_fastest(self):
        # index 1 flips block 0, index n flips block 1
        assert index_string(1, 3, 2) == (1, 0)
        assert index_string(3, 3, 2) == (0, 1)

    def test_enumerate_matches_index_string(self):
        strings = enumerate_strings(3, 2)
        for i in range(9):
            assert tuple(strings[i]) == index_string(i, 3, 2)


class TestLoadInstance:
    def test_direct_fields(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        assert inst.energy[string_index((0,), inst.n)] == 0
        assert inst.energy[string_index((1,), inst.n)] == 1

    def test_assignment_generator_expansion(self):
        cost = [[0, 1], [1, 0]]
        inst = load_instance(
            {"n": 2, "m": 2, "generator": {"kind": "assignment", "cost": cost}}
        )
        # independent oracle: enumerate all strings and sum the column costs
        for z in itertools.product(range(2), repeat=2):
            expected = sum(cost[b][z[b]] for b in range(2))
            assert inst.energy[string_index(z, inst.n)] == expected

    def test_non_integral_energy_rejected(self):
        with pytest.raises(InstanceFormatError, match="non-integral"):
            load_instance({"n": 2, "m": 1, "energy": [0, 0.5], "lattice_scale": 1})

    def test_lattice_scale_divides(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 2.5], "lattice_scale": 0.5})
        assert list(inst.energy) == [0, 5]
        assert inst.lattice_scale == 0.5

    def test_size_mismatch(self):
        with pytest.raises(InstanceFormatError, match="length"):
            load_instance({"n": 2, "m": 2, "energy": [0, 1, 2]})

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            load_instance({"n": 4, "m": 8, "energy": []}, cap=4096)

    def test_default_penalty_assignment_case(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 0, 0, 0]})
        assert inst.penalty_levels == Levels.of(collision_penalty_table(2, 2))

    def test_default_penalty_non_square_is_feasible(self):
        inst = load_instance({"n": 2, "m": 3, "energy": [0] * 8})
        assert inst.t_max() == 0

    def test_explicit_penalty_table(self):
        inst = load_instance(
            {"n": 2, "m": 1, "energy": [0, 1], "penalty": [1, 0]}
        )
        assert inst.e_star() == 1
        assert list(inst.optimal_indices()) == [1]

    def test_feasible_set_computed_once(self, monkeypatch):
        """The default m = n penalty enumerates the permutations once."""
        self.check_feasible_once(monkeypatch, {"n": 3, "m": 3, "energy": list(range(27))})

    def test_given_feasible_set_computed_once(self, monkeypatch):
        """A given penalty scans its table once."""
        self.check_feasible_once(monkeypatch, {"n": 3, "m": 3, "energy": list(range(27)),
                                               "penalty": [i % 2 for i in range(27)]})

    @staticmethod
    def check_feasible_once(monkeypatch, document):
        inst = load_instance(document)
        scans = []
        flatnonzero, permutations = np.flatnonzero, instance_module.permutation_indices
        monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(1) or flatnonzero(a))
        monkeypatch.setattr(instance_module, "permutation_indices",
                            lambda n: scans.append(1) or permutations(n))
        feasible = inst.feasible_indices()
        assert inst.optimal_indices().tolist() == [min(feasible.tolist())]
        assert inst.e_star() == min(feasible.tolist())
        assert inst.feasible_indices() is feasible
        assert len(scans) == 1
        assert not feasible.flags.writeable
        assert feasible.tolist() == [i for i, t in enumerate(penalty_table(inst)) if t == 0]

    def test_empty_feasible_set_has_no_optimum(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1], "penalty": [1, 2]})
        assert inst.feasible_indices().size == 0
        for method in (inst.e_star, inst.optimal_indices):
            with pytest.raises(ValueError, match="feasible set is empty"):
                method()


def _unexpected(*args, **kwargs):
    raise AssertionError("built a table the route does without")


def _assignment(cost, **extra):
    m, n = len(cost), len(cost[0])
    return {"n": n, "m": m, "generator": {"kind": "assignment", "cost": cost}, **extra}


@st.composite
def _cost_shapes(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12 if n == 1 else int(math.log(4096, n) + 1e-9)))
    return n, m


class TestLazyTables:
    """Assignment instances keep their m x n terms; the n**m tables are
    built on first read, exactly and under the cap."""

    @settings(max_examples=100)
    @given(data=st.data())
    def test_table_matches_enumeration_in_int64(self, data):
        n, m = data.draw(_cost_shapes())
        # every |cost| up to 2**53 is a float exactly, but its float sums are not
        cost = data.draw(st.lists(st.lists(st.integers(-2**53, 2**53), min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        scale = data.draw(st.sampled_from([1, 0.5]))
        inst = load_instance(_assignment(cost, lattice_scale=scale))
        lattice = np.array(cost, dtype=np.int64) * round(1 / scale)
        expected = lattice[np.arange(m)[None, :], enumerate_strings(n, m)].sum(axis=1)
        assert inst.energy.dtype == np.int64
        assert np.array_equal(inst.energy, expected)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_rule_accepts_nothing_enumeration_rejects(self, data):
        # integer costs plus offsets that the per-string rule tolerates,
        # crosses, or meets only in sum; none lies at a tolerance boundary
        n, m = data.draw(_cost_shapes().filter(lambda s: s[0] ** s[1] <= 256))
        fractions = st.sampled_from([0.0, 1e-11, -1e-11, 3e-10, 0.5])
        cost = data.draw(st.lists(
            st.lists(st.builds(lambda k, f: k + f, st.integers(-1000, 1000), fractions),
                     min_size=n, max_size=n), min_size=m, max_size=m))
        scale = data.draw(st.sampled_from([1.0, 0.5]))
        try:
            expected = assignment_energy_by_enumeration(np.array(cost), scale)
        except InstanceFormatError:
            expected = None
        try:
            table = load_instance(_assignment(cost, lattice_scale=scale)).energy
        except InstanceFormatError:
            return
        assert expected is not None and np.array_equal(table, expected)

    def test_each_term_needs_its_share_of_the_tolerance(self):
        # every string is within 7e-10 of an integer, which enumeration
        # accepts, but the offset exceeds 1e-9 / (m + 1)
        cost = [[0, 1 + 7e-10], [0, 1]]
        assignment_energy_by_enumeration(np.array(cost), 1.0)
        with pytest.raises(InstanceFormatError, match="non-integral"):
            load_instance(_assignment(cost))
        assert load_instance(_assignment([[0, 1 + 3e-10], [0, 1]])).energy.tolist() == [0, 1, 1, 2]

    @pytest.mark.parametrize("cost", [[[2.0**61, 0], [2.0**61, 0]], [[0, 1e300], [1, 0]],
                                      [[1e300], [-1e300]], [[0, math.nan]], [[0, math.inf]]])
    def test_magnitude_limit(self, cost):
        with pytest.raises(InstanceFormatError, match="below 2\\*\\*62"):
            load_instance(_assignment(cost))

    def test_load_forms_no_table(self):
        doc = _assignment([[(3 * i + j) % 10 for j in range(16)] for i in range(16)])
        inst = load_instance(doc)
        assert inst.size == 16**16 and inst.default_penalty
        with pytest.raises(CapExceededError, match="n\\*\\*m = 16\\*\\*16"):
            inst.energy
        # the penalty has no table: its spectrum sums the 231 orbits
        assert sum(inst.penalty_levels.counts) == 16**16

    @pytest.mark.parametrize("n,m", [(3, 3), (2, 4), (4, 2)])
    def test_default_penalty_built_on_read(self, n, m):
        inst = load_instance(_assignment([[0] * n] * m))
        expected = collision_penalty_table(n, m) if m == n else np.zeros(n**m, dtype=np.int64)
        assert inst.penalty_levels == Levels.of(expected)

    def test_dense_tables_capped_at_load(self):
        with pytest.raises(CapExceededError):
            load_instance(_assignment([[0] * 6] * 6, penalty=[0] * 6**6))


class TestPenalty:
    def test_permutation_is_feasible(self):
        inst = load_instance({"n": 3, "m": 3, "energy": [0] * 27})
        assert penalty_table(inst)[string_index((0, 1, 2), inst.n)] == 0

    def test_collision_counts(self):
        inst = load_instance({"n": 3, "m": 3, "energy": [0] * 27})
        assert penalty_table(inst)[string_index((0, 0, 1), inst.n)] == 2

    def test_two_block_collision(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0] * 4})
        assert penalty_table(inst)[string_index((0, 0), inst.n)] == 2

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 2), (3, 3), (2, 4), (4, 2), (3, 5),
                                     (5, 5)])
    def test_table_matches_per_string_penalty(self, n, m):
        table = collision_penalty_table(n, m)
        assert table.dtype == np.int64
        assert table.tolist() == [collision_penalty(index_string(i, n, m), n)
                                  for i in range(n**m)]

    def test_default_penalty_recorded_only_when_loader_supplies_it(self):
        square = {"n": 3, "m": 3, "energy": [0] * 27}
        assert load_instance(square).default_penalty
        table = collision_penalty_table(3, 3).tolist()
        assert not load_instance({**square, "penalty": table}).default_penalty
        assert not load_instance({"n": 2, "m": 3, "energy": [0] * 8}).default_penalty

    @pytest.mark.parametrize("n", range(1, 8))
    def test_permutations_are_the_collision_zeros(self, n):
        expected = np.flatnonzero(collision_penalty_table(n, n) == 0)
        got = permutation_indices(n)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_default_square_feasible_set_without_table(self, monkeypatch):
        doc = _assignment([[(3 * i + 5 * j) % 7 for j in range(5)] for i in range(5)])
        expected = np.flatnonzero(collision_penalty_table(5, 5) == 0)
        inst = load_instance(doc)
        forbid_integer_tables(monkeypatch, 5**5)
        assert np.array_equal(inst.feasible_indices(), expected)
        assert inst.feasible_levels == Levels.of(inst.energy[expected])

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 1), (16, 2), (1, 4)])
    def test_default_non_square_feasible_set_is_every_string(self, n, m, monkeypatch):
        inst = load_instance({"n": n, "m": m, "energy": [(7 * i) % 5 for i in range(n**m)]})
        forbid_integer_tables(monkeypatch, n**m)
        monkeypatch.setattr(np, "flatnonzero", _unexpected)
        assert np.array_equal(inst.feasible_indices(), np.arange(n**m))
        assert inst.feasible_levels is inst.levels
        assert inst.penalty_levels == Levels((0,), (n**m,))

    @pytest.mark.parametrize("doc", [
        {"n": 3, "m": 3, "energy": [(5 * i) % 7 for i in range(27)],
         "penalty": [i % 3 for i in range(27)]},
        _assignment([[(3 * i + 5 * j) % 4 for j in range(5)] for i in range(5)]),
        {"n": 4, "m": 3, "energy": [(7 * i) % 5 for i in range(64)]},
    ], ids=["given", "default_square", "default_non_square"])
    def test_optimal_indices_match_per_string(self, doc, monkeypatch):
        inst = load_instance(doc)
        if inst.feasible_levels is inst.levels:
            # every string is feasible: the optima come from the energy table alone
            monkeypatch.setattr(instance_module.ProblemInstance, "feasible_indices", _unexpected)
        assert np.array_equal(inst.optimal_indices(), _optimum_per_string(inst)[1])

    def test_permutations_enumerated_under_the_cap(self, monkeypatch):
        inst = load_instance(_assignment([[0] * 8] * 8))
        monkeypatch.setattr(instance_module, "permutation_indices", _unexpected)
        with pytest.raises(CapExceededError, match="exceeds enumeration cap 4096"):
            inst.feasible_indices()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_iff_permutation_exhaustive(self, n):
        for z in itertools.product(range(n), repeat=n):
            is_perm = sorted(z) == list(range(n))
            assert (collision_penalty(z, n) == 0) == is_perm


class TestWrappedPhase:
    def test_quarter_turn(self):
        assert wrap_angle(math.pi / 4 * 2) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_zero_offset(self):
        assert wrap_angle(1.2345 * 0) == 0.0

    def test_exact_alias_to_zero(self):
        assert wrap_angle(math.pi / 4 * 8) == 0.0

    def test_representative_pi_not_minus_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=-64, max_value=64),
    )
    def test_range_invariant(self, gamma, offset):
        theta = wrap_angle(gamma * offset)
        assert -math.pi < theta <= math.pi

    def test_wrap_angle_array(self):
        grid = np.array([0.0, 2 * math.pi, -math.pi, 3 * math.pi])
        out = wrap_angle(grid)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == math.pi and out[3] == math.pi


class TestPhaseGap:
    def test_three_level_example(self):
        inst = load_instance({"n": 3, "m": 1, "energy": [0, 1, 3]})
        pm = phase_gap(inst, math.pi / 2)
        assert pm.level_theta == pytest.approx([0.0, math.pi / 2, -math.pi / 2])
        assert pm.delta == pytest.approx(math.pi / 2)
        assert not pm.collided

    def test_modular_collision_flagged(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 3]})
        pm = phase_gap(inst, 2 * math.pi / 3)
        assert pm.collided
        assert pm.delta == 0.0
        assert pm.colliding == (3,)  # the level, whose one string is string 1
        assert inst.nonoptimal_strings(GapScope.ALL_STRINGS, pm.colliding).tolist() == [1]

    def test_all_optimal_convention(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [5, 5]})
        pm = phase_gap(inst, 0.7)
        assert not inst.gap_levels(GapScope.ALL_STRINGS).any()
        assert pm.delta == math.pi and not pm.collided

    def test_gap_attained(self, rng):
        from conftest import random_instance

        for _ in range(25):
            inst = random_instance(rng)
            gamma = float(rng.uniform(0.05, 0.3))
            pm = phase_gap(inst, gamma)
            if pm.collided or not inst.gap_levels(GapScope.ALL_STRINGS).any():
                continue
            mask = np.ones(inst.size, dtype=bool)
            mask[inst.optimal_indices()] = False
            theta = pm.level_theta[inst.levels.index(inst.energy).of_string]
            dist = np.abs(wrap_angle(theta[mask] - pm.theta_star))
            assert np.all(dist >= pm.delta - 1e-12)
            assert np.isclose(dist.min(), pm.delta)

    def test_feasible_only_scope(self):
        inst = load_instance(
            {"n": 2, "m": 2, "energy": [0, 1, 3, 4], "penalty": [0, 1, 1, 0]}
        )
        gamma = 0.5
        pm_all = phase_gap(inst, gamma, GapScope.ALL_STRINGS)
        pm_feas = phase_gap(inst, gamma, GapScope.FEASIBLE_ONLY)
        assert pm_all.delta == pytest.approx(0.5)
        assert pm_feas.delta == pytest.approx(2.0)

    def test_empty_feasible_set_rejected(self):
        inst = load_instance(
            {"n": 2, "m": 1, "energy": [0, 1], "penalty": [1, 2]}
        )
        with pytest.raises(ValueError, match="feasible"):
            phase_gap(inst, 0.3)


GAP_SHAPES = [(n, m) for n in range(1, 9) for m in range(1, 13) if n**m <= 4096]


@st.composite
def gap_instances(draw):
    """Dense instances of up to 4096 strings with few energy levels, some
    infeasible strings and, when there are any, one of them at or below E*."""
    n, m = draw(st.sampled_from(GAP_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1, 3, 40, 2**40]))
    energy = rng.integers(-spread, spread + 1, size=n**m)
    penalty = (rng.random(n**m) < draw(st.sampled_from([0.0, 0.3, 0.9]))).astype(int)
    penalty[rng.integers(n**m)] = 0
    infeasible = np.flatnonzero(penalty)
    if infeasible.size:
        e_star = energy[penalty == 0].min()
        energy[rng.choice(infeasible)] = e_star - draw(st.integers(0, 2))
    return load_instance({"n": n, "m": m, "energy": energy.tolist(),
                          "penalty": penalty.tolist()})


class TestLevelScans:
    """The level scans of the phase gap and the energy gap against the
    per-string scans they replace: the same gap, collisions and flags."""

    @settings(max_examples=200, deadline=None)
    @given(inst=gap_instances(), scope=st.sampled_from(list(GapScope)),
           gamma=st.one_of(
               st.floats(-4.0, 4.0, allow_nan=False),
               # angles at which some energy offsets wrap onto the optimal phase
               st.builds(lambda k, d: 2.0 * math.pi * k / d,
                         st.integers(-3, 3), st.integers(1, 6))))
    def test_match_per_string_scans(self, inst, scope, gamma):
        pm = phase_gap(inst, gamma, scope)
        ref = phase_gap_per_string(inst, gamma, scope)
        colliding = tuple(inst.nonoptimal_strings(scope, pm.colliding).tolist())
        assert (pm.delta, pm.collided, colliding, not inst.gap_levels(scope).any()) == (
            ref.delta, ref.collided, ref.colliding, ref.all_optimal)
        assert pm.colliding == tuple(np.unique(inst.energy[list(ref.colliding)]).tolist())
        assert pm.theta_star == ref.theta_star
        assert np.array_equal(pm.level_theta[inst.levels.index(inst.energy).of_string], ref.theta)
        assert np.array_equal(inst.optimal_indices(), ref.omega_star)
        assert energy_gap(inst) == energy_gap_per_string(inst)

    def test_levels_hold_python_ints(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [3, 1, 3, 2]})
        assert inst.levels == Levels((1, 2, 3), (1, 1, 2))
        assert inst.feasible_levels == Levels((1, 3), (1, 1))  # strings 1 and 2
        assert inst.e_star() == 1
        assert all(type(v) is int for v in inst.levels.values + inst.levels.counts)

    @pytest.mark.parametrize("table", [
        [3, 1, 3, 2, 1, 1],            # span 2, below the size
        [-5, 7, -5, 0, 7, 2],          # negative, span 12, above the size
        [-40, -38, -39, -40, -38],     # negative, span below the size
        [4, 4, 4],                     # a single level
        [0, 2**61, 5, -2**61],         # a span far above the size
        [9, 1],                        # span 8 at size 2
        [0, 1],                        # span 1 at size 2
    ])
    def test_index_matches_binary_search(self, table):
        table = np.array(table, dtype=np.int64)
        levels = Levels.of(table)
        values = np.array(levels.values)
        expected = np.searchsorted(values, table)
        index = levels.index(table)
        assert np.array_equal(index.values, values)
        assert index.of_string.dtype == expected.dtype
        assert np.array_equal(index.of_string, expected)

    @pytest.mark.parametrize("spread, rank_route", [(3, True), (40, True), (2**40, False)])
    def test_index_route_follows_span(self, spread, rank_route, monkeypatch):
        table = np.random.default_rng(spread).integers(-spread, spread + 1, size=500)
        levels = Levels.of(table)
        expected = np.searchsorted(np.array(levels.values), table)
        searches = []
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args: searches.append(1) or searchsorted(*args))
        assert np.array_equal(levels.index(table).of_string, expected)
        assert searches == ([] if rank_route else [1])

    def test_index_of_float_table_searches(self):
        table = np.array([0.5, -1.0, 0.5, 2.0])
        levels = Levels.of(table)
        assert levels.index(table).of_string.tolist() == [1, 0, 1, 2]

    def test_summed_adds_equal_values(self):
        assert Levels.summed([2, 0, 2, 6], [3, 1, 4, 1]) == Levels((0, 2, 6), (1, 7, 1))
        assert Levels.summed([5], [2**70]) == Levels((5,), (2**70,))


class TestSharedGap:
    """The phase gap of the energy levels about E* and the feasibility gap of
    the penalty levels about 0 are one routine over a level table, with one
    mask of the levels that count."""

    def test_one_record(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 3, 4], "penalty": [0, 1, 2, 0]})
        assert type(phase_gap(inst, 0.5)) is PhaseModel
        assert type(delta_feasible(0.5, level_sets(inst))) is PhaseModel

    def test_feasibility_gap_is_penalty_gap_about_zero(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0] * 4, "penalty": [0, 2, 4, 0]})
        values = np.array(level_sets(inst).values)
        for gamma in (0.3, math.pi / 4, math.pi, 2.9):
            sep = delta_feasible(gamma, level_sets(inst))
            ref = level_phase_gap(gamma, values, 0, values > 0)
            assert (sep.delta, sep.colliding) == (ref.delta, ref.colliding)
            assert sep.level_theta.tobytes() == ref.level_theta.tobytes()

    def test_nan_angle_rejected_without_nonzero_level(self):
        ls = level_sets(load_instance({"n": 2, "m": 3, "energy": [0] * 8}))
        assert ls.values == (0,)
        with pytest.raises(ValueError, match="penalty angle nan gives a non-finite phase"):
            delta_feasible(math.nan, ls)

    @settings(max_examples=100, deadline=None)
    @given(inst=gap_instances(), scope=st.sampled_from(list(GapScope)))
    def test_gap_levels_match_per_string(self, inst, scope):
        """The mask holds exactly the energies of the non-optimal strings of
        the scope, read string by string from the penalty table."""
        _, omega = _optimum_per_string(inst)
        strings = np.ones(inst.size, dtype=bool)
        strings[omega] = False
        if scope is GapScope.FEASIBLE_ONLY:
            strings &= penalty_table(inst) == 0
        values = np.array(inst.levels.values)
        assert values[inst.gap_levels(scope)].tolist() == np.unique(
            inst.energy[strings]).tolist()
        assert not inst.gap_levels(scope).flags.writeable

    @pytest.mark.parametrize("scope", list(GapScope))
    def test_colliding_strings_read_on_colliding_levels(self, scope):
        """An infeasible string at E* collides in the all-strings scope at
        any angle; the feasible scope lists feasible strings only."""
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 0, 4], "penalty": [0, 1, 1, 0]})
        pm = phase_gap(inst, math.pi / 2, scope)
        ref = phase_gap_per_string(inst, math.pi / 2, scope)
        assert pm.colliding == ((0, 4) if scope is GapScope.ALL_STRINGS else (4,))
        assert tuple(inst.nonoptimal_strings(scope, pm.colliding).tolist()) == ref.colliding
        assert ref.colliding == ((2, 3) if scope is GapScope.ALL_STRINGS else (3,))
