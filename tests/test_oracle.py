import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binomtest

from conftest import level_mass, random_envelope, random_instance
from oracles import (
    apply_cost_per_string,
    apply_mixer_allocating,
    block_marginals,
    block_unitary_expm,
    collision_penalty_table,
    dephased_reference,
    dirichlet_filter_oracle,
    filtered_law_per_string,
    index_string,
    penalty_table,
    permutation_masses_by_enumeration,
    product_law,
    simulate_reference,
    split_shots_reference,
    string_index,
    table_index,
)
from fejercert import (
    external_envelope,
    filtered_distribution,
    load_instance,
    mixer_envelope,
    phase_gap,
    single_block_kernel,
    uniform_envelope,
)
from fejercert.instance import CapExceededError, Levels, permutation_masses
from fejercert.oracle import (
    EncodedState,
    apply_cost,
    apply_mixer,
    block_unitary,
    check_norm,
    initial_state,
    projector_mass,
    sample_block_shots,
    sample_shots,
    simulate,
    simulate_blocks,
)


class TestInitialState:
    def test_single_block_pair(self):
        state = initial_state(2, 1)
        assert state.amplitudes == pytest.approx([1 / math.sqrt(2)] * 2)

    def test_two_blocks(self):
        state = initial_state(2, 2)
        assert state.amplitudes == pytest.approx([0.5] * 4)

    def test_norm_one(self):
        state = initial_state(3, 4)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            initial_state(4, 8, cap=4096)


def _by_level(table):
    table = np.asarray(table)
    return Levels.of(table).index(table)


def _seeded_instance(n, m):
    rng = np.random.default_rng([601, n, m])
    cost = rng.integers(0, 10, size=(m, n)).tolist()
    return load_instance({"n": n, "m": m, "generator": {"kind": "assignment", "cost": cost}},
                         cap=46656)


SCHEDULE = ([0.3, 0.6, 0.9, 1.2], [0.5, 0.5, 0.4, 0.3])


class TestApplyCost:
    def test_zero_angle_identity(self):
        state = initial_state(2, 2)
        out = apply_cost(state, _by_level([0, 1, 2, 3]), 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_probabilities_unchanged(self, rng):
        state = initial_state(2, 2)
        out = apply_cost(state, _by_level(rng.integers(0, 9, size=4)), 1.234)
        assert out.probabilities() == pytest.approx(state.probabilities())

    def test_group_property(self):
        state = initial_state(2, 1)
        cost = _by_level([0, 3])
        once = apply_cost(apply_cost(state, cost, 0.4), cost, 0.8)
        combined = apply_cost(state, cost, 1.2)
        assert once.amplitudes == pytest.approx(combined.amplitudes, abs=1e-14)

    def test_table_must_match_the_state(self):
        with pytest.raises(ValueError, match="does not match the state"):
            apply_cost(initial_state(2, 2), _by_level([0, 1, 2]), 0.3)

    def test_matches_one_exp_per_string_bit_for_bit(self, rng):
        state = simulate(_seeded_instance(8, 4), [0.2], [0.7])
        table = rng.integers(-50, 50, size=state.amplitudes.size)
        for gamma in (0.0, 0.37, -2.9, 1e3):
            out = apply_cost(state, _by_level(table), gamma)
            reference = apply_cost_per_string(state, table, gamma)
            assert out.amplitudes.tobytes() == reference.amplitudes.tobytes()


class TestLayersLeaveTheirInput:
    """Each layer returns a new state and never writes into its input's
    amplitudes: a read-only input would make any such write raise."""

    @pytest.mark.parametrize("layer", ["cost", "mixer"])
    def test_input_array_untouched(self, layer):
        inst = _seeded_instance(4, 5)
        state = simulate(inst, [0.4], [0.8])
        before = state.amplitudes.copy()
        state.amplitudes.flags.writeable = False
        if layer == "cost":
            out = apply_cost(state, inst.levels.index(inst.energy), 0.9)
        else:
            out = apply_mixer(state, 1.1)
        assert out.amplitudes is not state.amplitudes
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert state.amplitudes.tobytes() == before.tobytes()


class TestApplyMixer:
    def test_zero_angle_identity(self):
        state = initial_state(3, 2)
        out = apply_mixer(state, 0.0)
        assert out.amplitudes == pytest.approx(state.amplitudes, abs=1e-15)

    def test_unitary_closed_form_matches_expm(self, rng):
        for n in range(2, 7):
            for _ in range(6):
                beta = float(rng.uniform(0.05, 6.0))
                for normalized in (False, True):
                    closed = block_unitary(n, beta / n if normalized else beta)
                    reference = block_unitary_expm(n, beta, normalized)
                    assert np.max(np.abs(closed - reference)) < 1e-9

    def test_modulus_square_matches_kernel(self, rng):
        for n in range(2, 7):
            beta = float(rng.uniform(0.05, 6.0))
            kernel = single_block_kernel(n, beta).matrix()
            probs = np.abs(block_unitary(n, beta)) ** 2
            assert np.max(np.abs(probs - kernel)) < 1e-12

    def test_uniform_block_state_is_eigenvector(self):
        # per-block uniform state: eigenvalue n-1 of the adjacency generator,
        # so the mixer only applies a global phase
        n, m, beta = 4, 2, 0.7
        state = initial_state(n, m)
        out = apply_mixer(state, beta)
        expected = np.exp(-1j * beta * (n - 1) * m) * state.amplitudes
        assert out.amplitudes == pytest.approx(expected, abs=1e-12)


class TestSimulate:
    def test_empty_schedule_is_initial(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        state = simulate(inst, [], [])
        assert np.array_equal(state.amplitudes, initial_state(2, 2).amplitudes)

    def test_zero_cost_angles_stay_uniform(self, rng):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        betas = list(rng.uniform(0.1, 3.0, size=3))
        state = simulate(inst, [0.0] * 3, betas)
        reference = mixer_envelope(inst, uniform_envelope(2, 2), betas)
        assert state.probabilities() == pytest.approx(reference.probs, abs=1e-12)

    def test_schedule_mismatch(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        with pytest.raises(ValueError):
            simulate(inst, [0.1], [])

    def test_norm_preserved_50_layers(self, rng):
        inst = random_instance(rng, n=4, m=4)
        gammas = rng.uniform(0, 2, size=50)
        betas = rng.uniform(0, 2 * math.pi, size=50)
        state = simulate(inst, gammas, betas)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_penalty_cost_table(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [5, 7, 1, 3]})
        state = simulate(inst, [0.4], [0.9], cost_table=table_index(penalty_table(inst)))
        feasible = inst.feasible_indices()
        assert 0.0 <= projector_mass(state, feasible) <= 1.0

    def test_level_index_reused_across_runs(self, rng):
        inst = random_instance(rng, n=3, m=3)
        table = penalty_table(inst)
        cost = table_index(table)
        for _ in range(3):
            gammas, betas = rng.uniform(0, 2, size=2), rng.uniform(0, 3, size=2)
            reused = simulate(inst, gammas, betas, cost_table=cost)
            fresh = simulate(inst, gammas, betas, cost_table=table_index(table))
            assert reused.amplitudes.tobytes() == fresh.amplitudes.tobytes()

    def test_non_finite_phase_rejected_before_any_layer(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        with pytest.raises(ValueError, match="non-finite phase"):
            simulate(inst, [0.1, math.inf], [0.2, 0.3])

    @pytest.mark.parametrize("cost", ["energy", "penalty"])
    @pytest.mark.parametrize("shape", [(8, 4), (4, 7), (6, 6)], ids=["8^4", "4^7", "6^6"])
    def test_matches_reference_bit_for_bit(self, shape, cost):
        # 4^7 is exactly 16384 strings, where numpy's temporary elision
        # starts to swap the operands of an operator product
        inst = _seeded_instance(*shape)
        table = None if cost == "energy" else collision_penalty_table(*shape)
        state = simulate(inst, *SCHEDULE, cost_table=None if table is None else table_index(table))
        reference = simulate_reference(inst, *SCHEDULE, cost_table=table)
        assert state.amplitudes.tobytes() == reference.amplitudes.tobytes()

    def test_mixer_matches_allocating_reference_bit_for_bit(self, rng):
        for n, m in [(2, 5), (3, 4), (8, 3), (16, 2), (5, 1)]:
            amps = rng.normal(size=n**m) + 1j * rng.normal(size=n**m)
            state = EncodedState(n=n, m=m, amplitudes=amps / np.linalg.norm(amps))
            for beta in (0.0, 0.5, -1.7):
                out = apply_mixer(state, beta)
                reference = apply_mixer_allocating(state, beta)
                assert out.amplitudes.tobytes() == reference.amplitudes.tobytes()

    def test_peak_memory_within_three_states(self):
        # the tables of the instance are built first: they outlive the run
        inst = _seeded_instance(6, 6)
        inst.energy, inst.levels
        tracemalloc.start()
        try:
            simulate(inst, *SCHEDULE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * inst.size * np.dtype(complex).itemsize


class TestProjectorMass:
    @pytest.mark.parametrize("n, m", [(8, 4), (16, 2), (5, 3), (2, 6), (4, 3)])
    def test_all_feasible_mass_never_exceeds_one(self, n, m):
        # rounding carries the summed mass of most of these states past 1
        past_one = 0
        for seed in range(10):
            rng = np.random.default_rng([seed, n, m])
            energy = rng.integers(0, 40, size=n**m).tolist()
            inst = load_instance({"n": n, "m": m, "energy": energy})
            state = simulate(inst, *SCHEDULE)
            feasible = inst.feasible_indices()
            assert feasible.size == inst.size
            past_one += float((np.abs(state.amplitudes) ** 2).sum()) > 1.0
            mass = projector_mass(state, feasible)
            assert mass <= 1.0
            assert mass == pytest.approx(1.0, abs=1e-12)
        assert past_one > 0

    def test_empty_subset(self):
        assert projector_mass(initial_state(2, 2), np.array([], dtype=np.int64)) == 0.0

    def test_nan_mass_is_kept(self):
        # a NaN state cannot be built, so bypass the norm check
        state = initial_state(2, 1)
        object.__setattr__(state, "amplitudes", np.array([math.nan, 0.5], dtype=complex))
        assert math.isnan(projector_mass(state, np.array([0, 1])))


class TestDephasedReference:
    def test_matches_mixer_envelope(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            layers = int(rng.integers(0, 5))
            gammas = rng.uniform(0, 2, size=layers)
            betas = rng.uniform(0, 2 * math.pi, size=layers)
            reference = dephased_reference(inst, gammas, betas)
            envelope = mixer_envelope(inst, uniform_envelope(inst.n, inst.m), betas)
            assert np.max(np.abs(reference.probs - envelope.probs)) < 1e-12

    def test_empty_schedule_uniform(self):
        inst = load_instance({"n": 3, "m": 2, "energy": [0] * 9})
        reference = dephased_reference(inst, [], [])
        assert np.allclose(reference.probs, 1 / 9)

    def test_point_mass_gives_kernel_row(self):
        inst = load_instance({"n": 3, "m": 2, "energy": [0] * 9})
        v0 = np.zeros(9)
        v0[4] = 1.0  # string (1, 1)
        beta = 0.6
        out = dephased_reference(inst, [0.0], [beta], v0=v0)
        k = single_block_kernel(3, beta)
        for i in range(9):
            z = index_string(i, 3, 2)
            expected = (k.diag if z[0] == 1 else k.offdiag) * (
                k.diag if z[1] == 1 else k.offdiag
            )
            assert out.probs[i] == pytest.approx(expected, abs=1e-12)


class TestDirichletFilterOracle:
    def test_matches_filtered_distribution(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            gamma = float(rng.uniform(0.05, 2.5))
            env = random_envelope(rng, inst.size)
            p = int(rng.integers(0, 9))
            mass, level_of = level_mass(env, inst)
            law = filtered_distribution(mass, phase_gap(inst, gamma).offsets(), p)
            reference = dirichlet_filter_oracle(env, inst, gamma, p)
            _, probs = filtered_law_per_string(law, env, level_of)
            assert np.max(np.abs(probs - reference)) < 1e-10

    def test_order_zero_returns_envelope(self, rng):
        inst = random_instance(rng)
        env = random_envelope(rng, inst.size)
        out = dirichlet_filter_oracle(env, inst, 0.7, 0)
        assert out == pytest.approx(env.probs, abs=1e-14)

    def test_single_support_is_point_mass(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 5]})
        probs = np.zeros(2)
        probs[1] = 1.0
        out = dirichlet_filter_oracle(external_envelope(probs), inst, 0.3, 4)
        assert out == pytest.approx([0.0, 1.0])


class TestSampleShots:
    def test_point_mass(self):
        dist = np.array([0.0, 1.0, 0.0])
        report = sample_shots(dist, 50, seed=3, subset=np.array([1]))
        assert report.counts[1] == 50
        assert report.frequency == 1.0

    def test_concentration_large_sample(self):
        dist = np.array([0.15, 0.25, 0.6])
        shots = 100_000
        report = sample_shots(dist, shots, seed=12, subset=np.array([0, 1]))
        assert abs(report.frequency - 0.4) < 4 / math.sqrt(shots)
        assert report.ci_low <= 0.4 <= report.ci_high

    def test_seed_determinism(self):
        dist = np.full(8, 1 / 8)
        a = sample_shots(dist, 999, seed=7, subset=np.array([0]))
        b = sample_shots(dist, 999, seed=7, subset=np.array([0]))
        assert np.array_equal(a.counts, b.counts)

    def test_wilson_interval_matches_scipy(self):
        rng = np.random.default_rng(1927)
        for shots in (1, 2, 7, 50, 999, 10**6, 2**40):
            for _ in range(20):
                dist = rng.dirichlet(np.full(6, 0.3))
                subset = np.flatnonzero(rng.random(6) < 0.5)
                report = sample_shots(dist, shots, seed=int(rng.integers(2**32)), subset=subset)
                hits = int(report.counts[subset].sum())
                ci = binomtest(hits, shots).proportion_ci(method="wilson")
                assert report.ci_low == pytest.approx(ci.low, rel=1e-12, abs=1e-15)
                assert report.ci_high == pytest.approx(ci.high, rel=1e-12, abs=1e-15)

    def test_no_hits_keeps_a_positive_width(self):
        report = sample_shots(np.array([0.0, 1.0]), 50, seed=1, subset=np.array([0]))
        assert report.frequency == 0.0
        assert report.ci_low == 0.0
        assert report.ci_high == pytest.approx(0.0713, abs=5e-5)
        assert report.ci_high == pytest.approx(
            binomtest(0, 50).proportion_ci(method="wilson").high, rel=1e-12)

    def test_all_hits_keeps_a_positive_width(self):
        report = sample_shots(np.array([0.0, 1.0]), 50, seed=1, subset=np.array([1]))
        assert report.frequency == 1.0
        assert report.ci_high == 1.0
        assert report.ci_low == pytest.approx(1.0 - 0.0713, abs=5e-5)

    @given(shots=st.integers(1, 10**9), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_interval_contains_frequency_with_positive_width(self, shots, p, seed):
        report = sample_shots(np.array([1.0 - p, p]), shots, seed=seed, subset=np.array([1]))
        assert 0.0 <= report.ci_low <= report.frequency <= report.ci_high <= 1.0
        assert report.ci_high > report.ci_low


class TestCheckNorm:
    @pytest.mark.parametrize("size", [1, 2, 7, 256, 4096, 46656])
    def test_matches_linalg_norm(self, size):
        rng = np.random.default_rng(size)
        for scale in (1.0, 1.0 + 5e-11, 1.0 - 5e-11):
            x = rng.normal(size=size) + 1j * rng.normal(size=size)
            x *= scale / np.linalg.norm(x)
            (norm,) = check_norm(x)
            assert norm == pytest.approx(float(np.linalg.norm(x, axis=-1)), rel=1e-15)

    def test_stack_checks_every_row(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        assert check_norm(stack) == pytest.approx(np.linalg.norm(stack, axis=-1), rel=1e-15)
        stack[3] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="deviates from 1"):
            check_norm(stack)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                     complex(math.inf, 1.0)])
    def test_non_finite_state_rejected(self, bad):
        # the inner product of an infinite entry may come out inf or nan
        x = np.full(4, 0.5, dtype=complex)
        x[2] = bad
        with pytest.raises(ValueError, match="state norm (nan|inf) deviates"):
            check_norm(x)
        # on a stack, np.linalg.norm may warn about an infinite entry first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="state norm (nan|inf) deviates"):
                check_norm(np.stack([np.full(4, 0.5, dtype=complex), x]))


class TestEncodedState:
    def test_norm_validated(self):
        with pytest.raises(ValueError):
            EncodedState(n=2, m=1, amplitudes=np.array([1.0, 1.0], dtype=complex))

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError):
            EncodedState(n=2, m=1, amplitudes=np.array([math.nan, 1.0], dtype=complex))

    def test_normalized_convention_runs(self):
        inst = load_instance({"n": 3, "m": 1, "energy": [0, 1, 2]})
        state = simulate(inst, [0.3], [0.9 / 3])
        # same kernel as adjacency at beta/n
        reference = mixer_envelope(inst, uniform_envelope(3, 1), [0.9 / 3])
        flat = simulate(inst, [0.0], [0.9 / 3])
        assert flat.probabilities() == pytest.approx(reference.probs, abs=1e-12)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12


@st.composite
def assignment_runs(draw):
    """An assignment instance (n = 2..6, m = n or not, n**m <= 6**6, costs
    0..9) under its default penalty, with a schedule of p = 0..3 layers."""
    n = draw(st.integers(2, 6))
    m = draw(st.sampled_from([n, *(k for k in range(1, 7) if k != n and n**k <= 6**6)]))
    cost = draw(st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    p = draw(st.integers(0, 3))
    angles = st.floats(-3.5, 3.5, allow_nan=False)
    gammas = draw(st.lists(angles, min_size=p, max_size=p))
    betas = draw(st.lists(angles, min_size=p, max_size=p))
    inst = load_instance({"n": n, "m": m, "generator": {"kind": "assignment", "cost": cost}},
                         cap=6**6)
    return inst, gammas, betas


def _product_instance(cost, **extra):
    cost = np.asarray(cost)
    m, n = cost.shape
    return load_instance({"n": n, "m": m, **extra,
                          "generator": {"kind": "assignment", "cost": cost.tolist()}})


class TestProductRoute:
    """The product state of ``simulate_blocks`` against the statevector of
    ``simulate``, its masses against ``projector_mass``, the subset DP
    against enumeration, and the splitting sampler against its law."""

    @given(assignment_runs())
    def test_matches_statevector(self, run):
        inst, gammas, betas = run
        assert inst.product_form
        state = simulate(inst, gammas, betas)
        probs = np.abs(simulate_blocks(inst, gammas, betas)) ** 2
        masses = inst.product_masses(probs)
        assert masses.e_star == inst.e_star()
        assert abs(masses.optimal - projector_mass(state, inst.optimal_indices())) <= 1e-12
        assert abs(masses.feasible - projector_mass(state, inst.feasible_indices())) <= 1e-12
        # the law the splitting sampler draws from
        assert np.abs(product_law(probs) - state.probabilities()).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_permutation_dp_matches_enumeration(self, n):
        rng = np.random.default_rng([36, n])
        for costs in (rng.integers(0, 10, (n, n)), rng.integers(0, 3, (n, n)),
                      rng.integers(-2**40, 2**40, (n, n)), np.zeros((n, n), dtype=np.int64)):
            unit = permutation_masses(np.ones((n, n)), costs, cap=2**n)
            total, best, _, count = permutation_masses_by_enumeration(np.ones((n, n)), costs)
            assert (unit.feasible, unit.e_star, unit.optimal) == (total, best, count)
            assert unit.feasible == math.factorial(n)
            weights = rng.dirichlet(np.ones(n), size=n)
            masses = permutation_masses(weights, costs, cap=2**n)
            total, best, at_best, _ = permutation_masses_by_enumeration(weights, costs)
            assert masses.e_star == best
            assert abs(masses.feasible - total) <= 1e-12
            assert abs(masses.optimal - at_best) <= 1e-12

    def test_permutation_dp_energy_is_exact(self):
        # E* near 2**62, where a float sum of the terms would round
        terms = np.array([[2**61 + 1, 2**61 + 3], [2**60 + 1, 2**60]], dtype=np.int64)
        assert permutation_masses(np.ones((2, 2)), terms, cap=4).e_star == 2**61 + 2**60 + 1

    def test_subset_table_bounded_by_cap(self):
        with pytest.raises(CapExceededError, match=r"subset table 2\*\*n = 2\*\*5 exceeds .* 31"):
            permutation_masses(np.ones((5, 5)), np.zeros((5, 5), dtype=np.int64), cap=31)
        assert permutation_masses(np.ones((5, 5)), np.zeros((5, 5), dtype=np.int64),
                                  cap=32).feasible == 120

    @pytest.mark.parametrize("cost", [[[0, 1, 2], [2, 0, 1], [1, 2, 0]],
                                      [[3, 1, 4, 1], [5, 9, 2, 6]],
                                      [[2, 7], [1, 8], [2, 8], [1, 8]]],
                             ids=["3x3", "4^2", "2^4"])
    def test_splitting_sampler_matches_reference(self, cost):
        inst = _product_instance(cost)
        state = simulate(inst, [0.3, 0.6], [0.5, 0.5])
        probs = np.abs(simulate_blocks(inst, [0.3, 0.6], [0.5, 0.5])) ** 2
        symbols, report = sample_block_shots(inst, probs, 3000, 4, inst.e_star())
        leaves = [tuple(z) for z in symbols.T.tolist()]
        indices = [string_index(z, inst.n) for z in leaves]
        assert indices == sorted(set(indices))  # canonical order, each string once
        assert int(report.counts.sum()) == 3000 and (report.counts > 0).all()
        assert dict(zip(leaves, report.counts.tolist())) == split_shots_reference(
            probs, 3000, 4)
        # the statevector's marginals draw the same counts, and the same hits
        assert split_shots_reference(block_marginals(state), 3000, 4) == dict(
            zip(leaves, report.counts.tolist()))
        optimal = set(inst.optimal_indices().tolist())
        hits = sum(c for i, c in zip(indices, report.counts.tolist()) if i in optimal)
        assert report.frequency == hits / 3000

    def test_splitting_sampler_within_five_sigma(self):
        inst = _product_instance([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
        probs = np.abs(simulate_blocks(inst, [0.3, 0.6], [0.5, 0.5])) ** 2
        shots = 10**6
        symbols, report = sample_block_shots(inst, probs, shots, 11, inst.e_star())
        law = product_law(probs)
        counts = np.zeros(inst.size)
        counts[[string_index(z, inst.n) for z in symbols.T.tolist()]] = report.counts
        sigma = np.sqrt(shots * law * (1.0 - law))
        assert (np.abs(counts - shots * law) <= 5 * sigma).all()

    def test_splitting_sampler_takes_any_shot_count(self):
        inst = _product_instance([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
        probs = np.abs(simulate_blocks(inst, [0.3], [0.5])) ** 2
        for shots in (1, 2**62, 2**63 - 1):
            symbols, report = sample_block_shots(inst, probs, shots, 5, inst.e_star())
            assert sum(report.counts.tolist()) == shots
            assert symbols.shape == (3, report.counts.size) and report.counts.size <= 27
        for shots in (0, 2**63):
            with pytest.raises(ValueError, match=f"shots {shots} must lie in"):
                sample_block_shots(inst, probs, shots, 5, inst.e_star())

    def test_shot_tree_bounded_by_cap(self):
        # 2**62 shots reach all 9 nodes above block 0, so its level draws 9 x 3 counts
        probs = np.full((3, 3), 1 / 3)
        cost = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
        sample_block_shots(load_instance({"n": 3, "m": 3, "generator": {
            "kind": "assignment", "cost": cost}}, cap=27), probs, 2**62, 5, 0)
        with pytest.raises(CapExceededError, match="shot tree of 9 nodes times n = 3"):
            sample_block_shots(load_instance({"n": 3, "m": 3, "generator": {
                "kind": "assignment", "cost": cost}}, cap=26), probs, 2**62, 5, 0)

    @pytest.mark.parametrize("hit", [False, True], ids=["no_hits", "all_hits"])
    def test_interval_keeps_a_positive_width(self, hit):
        """The Wilson interval of ``sample_shots`` (``TestSampleShots``) on the
        product route: 50 shots, all on one string of a 2 x 1 instance."""
        inst = _product_instance([[0, 5]])
        probs = np.array([[1.0, 0.0]]) if hit else np.array([[0.0, 1.0]])
        report = sample_block_shots(inst, probs, 50, 1, inst.e_star())[1]
        assert report.frequency == float(hit)
        width = binomtest(0, 50).proportion_ci(method="wilson").high
        assert width == pytest.approx(0.0713, abs=5e-5)
        if hit:
            assert report.ci_high == 1.0 and report.ci_low == pytest.approx(1.0 - width, rel=1e-12)
        else:
            assert report.ci_low == 0.0 and report.ci_high == pytest.approx(width, rel=1e-12)

    def test_non_finite_phase_rejected_before_any_layer(self, monkeypatch):
        inst = _product_instance([[0, 10**18], [1, 0]])
        monkeypatch.setattr("fejercert.oracle._block_coefficients", _no_layer)
        with pytest.raises(ValueError, match="cost angle 1e\\+300 gives a non-finite phase"):
            simulate_blocks(inst, [0.1, 1e300], [0.2, 0.3])
        with pytest.raises(ValueError, match="equal length"):
            simulate_blocks(inst, [0.1], [])


def _no_layer(*args):
    raise AssertionError("a layer ran")
