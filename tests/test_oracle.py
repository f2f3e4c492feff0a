import math

import numpy as np
import pytest

from conftest import random_envelope, random_instance
from oracles import block_unitary_expm, dephased_reference, dirichlet_filter_oracle
from fejercert import (
    external_envelope,
    filtered_distribution,
    load_instance,
    mixer_envelope,
    phase_gap,
    single_block_kernel,
    uniform_envelope,
)
from fejercert.instance import CapExceededError, index_string
from fejercert.oracle import (
    EncodedState,
    apply_cost,
    apply_mixer,
    block_unitary,
    initial_state,
    projector_mass,
    sample_shots,
    simulate,
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


class TestApplyCost:
    def test_zero_angle_identity(self):
        state = initial_state(2, 2)
        energies = np.array([0, 1, 2, 3])
        out = apply_cost(state, energies, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_probabilities_unchanged(self, rng):
        state = initial_state(2, 2)
        energies = rng.integers(0, 9, size=4)
        out = apply_cost(state, energies, 1.234)
        assert out.probabilities() == pytest.approx(state.probabilities())

    def test_group_property(self):
        state = initial_state(2, 1)
        energies = np.array([0, 3])
        once = apply_cost(apply_cost(state, energies, 0.4), energies, 0.8)
        combined = apply_cost(state, energies, 1.2)
        assert once.amplitudes == pytest.approx(combined.amplitudes, abs=1e-14)


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
        state = simulate(inst, [0.4], [0.9], cost_table=inst.penalty)
        feasible = inst.feasible_indices()
        assert 0.0 <= projector_mass(state, feasible) <= 1.0


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
            law = filtered_distribution(env, phase_gap(inst, gamma), p)
            reference = dirichlet_filter_oracle(env, inst, gamma, p)
            assert np.max(np.abs(law.probs - reference)) < 1e-10

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
