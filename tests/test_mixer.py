import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import random_envelope
from oracles import block_unitary_expm
from fejercert import (
    apply_block_kernel,
    averaged_block_kernel,
    envelope_mass,
    external_envelope,
    is_primitive,
    load_instance,
    mixer_envelope,
    second_eigenvalue,
    single_block_kernel,
    uniform_envelope,
)


class TestSingleBlockKernel:
    def test_full_swap_at_half_period(self):
        k = single_block_kernel(2, math.pi / 2)
        assert k.diag == pytest.approx(0.0, abs=1e-15)
        assert k.offdiag == pytest.approx(1.0)

    def test_zero_angle_identity(self):
        for n in (1, 2, 5):
            k = single_block_kernel(n, 0.0)
            assert k.diag == 1.0 and k.offdiag == 0.0

    def test_flat_kernel(self):
        k = single_block_kernel(4, math.pi / 4)
        assert k.diag == pytest.approx(0.25)
        assert k.offdiag == pytest.approx(0.25)

    def test_matches_exponential_oracle(self):
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            for _ in range(20):
                beta = float(rng.uniform(0.01, 2 * math.pi))
                k = single_block_kernel(n, beta)
                probs = np.abs(block_unitary_expm(n, beta)) ** 2
                expected = k.matrix()
                assert np.max(np.abs(probs - expected)) < 1e-9

    def test_resonance_snaps_to_identity(self):
        k = single_block_kernel(3, 2 * math.pi / 3)
        assert k.diag == 1.0 and k.offdiag == 0.0

    @given(st.integers(min_value=2, max_value=8), st.floats(0.0, 7.0))
    def test_doubly_stochastic(self, n, beta):
        k = single_block_kernel(n, beta).matrix()
        assert np.all(k >= -1e-15) and np.all(k <= 1 + 1e-15)
        assert np.allclose(k.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)


class TestAveragedKernel:
    def test_closed_form_values(self):
        k2 = averaged_block_kernel(2)
        assert (k2.diag, k2.offdiag) == (0.5, 0.5)
        k4 = averaged_block_kernel(4)
        assert k4.diag == pytest.approx(5 / 8)
        assert k4.offdiag == pytest.approx(1 / 8)

    def test_rows_sum_to_one(self):
        for n in range(2, 7):
            k = averaged_block_kernel(n).matrix()
            assert np.allclose(k.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quadrature_oracle(self, n):
        # average |U(beta)_ij|^2 over a full period, via the independent
        # exponential; must land on 1 - 2/n + 2/n^2 and 2/n^2
        def entry(i, j):
            val, _ = quad(
                lambda b: abs(block_unitary_expm(n, b)[i, j]) ** 2 / (2 * math.pi),
                0.0,
                2 * math.pi,
                epsabs=1e-10,
                limit=200,
            )
            return val

        k = averaged_block_kernel(n)
        assert abs(entry(0, 0) - k.diag) < 1e-8
        assert abs(entry(0, 1) - k.offdiag) < 1e-8
        assert abs(entry(n - 1, n - 2) - k.offdiag) < 1e-8

    def test_requires_two_symbols(self):
        with pytest.raises(ValueError):
            averaged_block_kernel(1)


class TestPrimitivity:
    def test_resonant_angle(self):
        check = is_primitive(3, 2 * math.pi / 3)
        assert not check.primitive
        assert check.resonance_distance == pytest.approx(0.0, abs=1e-15)

    def test_generic_angle(self):
        check = is_primitive(3, 0.1)
        assert check.primitive
        assert check.resonance_distance == pytest.approx(0.1)
        kernel = single_block_kernel(3, 0.1)
        assert kernel.diag > 0 and kernel.offdiag > 0

    def test_half_period_n2(self):
        assert not is_primitive(2, math.pi).primitive


class TestApplyKernel:
    def test_identity_kernel_noop(self, rng):
        env = random_envelope(rng, 8)
        out = apply_block_kernel(single_block_kernel(2, 0.0), env, 3)
        assert np.array_equal(out.probs, env.probs)

    def test_point_mass_gives_kernel_row(self):
        n, m, beta = 3, 2, 0.8
        k = single_block_kernel(n, beta)
        y = (1, 2)
        probs = np.zeros(n**m)
        probs[1 + 3 * 2] = 1.0
        out = apply_block_kernel(k, external_envelope(probs), m)
        # product of per-block closed-form entries
        from fejercert import index_string

        for i in range(n**m):
            z = index_string(i, n, m)
            expected = 1.0
            for b in range(m):
                expected *= k.diag if z[b] == y[b] else k.offdiag
            assert out.probs[i] == pytest.approx(expected, abs=1e-14)

    def test_uniform_is_stationary(self):
        env = uniform_envelope(3, 2)
        out = apply_block_kernel(single_block_kernel(3, 1.1), env, 2)
        assert np.allclose(out.probs, env.probs, atol=1e-14)

    def test_mass_and_positivity_preserved(self, rng):
        env = random_envelope(rng, 27)
        out = apply_block_kernel(single_block_kernel(3, 0.7), env, 3)
        assert abs(out.probs.sum() - 1.0) < 1e-12
        assert np.all(out.probs >= -1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_block_kernel(single_block_kernel(3, 0.3), uniform_envelope(2, 2), 2)


class TestMixerEnvelope:
    def test_uniform_fixed_point(self, rng):
        inst = load_instance({"n": 3, "m": 2, "energy": [0] * 9})
        env = mixer_envelope(inst, uniform_envelope(3, 2), rng.uniform(0.1, 3, size=4))
        assert np.allclose(env.probs, 1 / 9, atol=1e-12)

    def test_empty_schedule_returns_v0(self, rng):
        inst = load_instance({"n": 2, "m": 2, "energy": [0] * 4})
        v0 = random_envelope(rng, 4)
        env = mixer_envelope(inst, v0, [])
        assert np.array_equal(env.probs, v0.probs)

    def test_resonant_point_mass_unchanged(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0] * 4})
        probs = np.zeros(4)
        probs[2] = 1.0
        env = mixer_envelope(inst, external_envelope(probs), [math.pi, 2 * math.pi])
        assert np.array_equal(env.probs, probs)


class TestEnvelopeMass:
    def test_uniform_single_string(self):
        env = uniform_envelope(2, 2)
        assert envelope_mass(env, [0]) == pytest.approx(0.25)

    def test_all_strings(self):
        env = uniform_envelope(2, 2)
        assert envelope_mass(env, range(4)) == pytest.approx(1.0)

    def test_zero_support_warns(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        env = external_envelope(probs)
        with pytest.warns(RuntimeWarning, match="zero envelope mass"):
            assert envelope_mass(env, [3]) == 0.0

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError):
            external_envelope([math.nan, 0.5, 0.25, 0.25])

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            envelope_mass(uniform_envelope(2, 2), [])


class TestSecondEigenvalue:
    def test_identity(self):
        assert second_eigenvalue(single_block_kernel(3, 0.0)) == 1.0

    def test_flat_kernel_is_rank_one(self):
        assert second_eigenvalue(single_block_kernel(4, math.pi / 4)) == pytest.approx(0.0)

    def test_averaged_n2(self):
        assert second_eigenvalue(averaged_block_kernel(2)) == pytest.approx(0.0)

    def test_matches_eigendecomposition(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            k = single_block_kernel(n, float(rng.uniform(0.05, 6.0)))
            eigs = np.sort(np.abs(np.linalg.eigvals(k.matrix())))[::-1]
            assert second_eigenvalue(k) == pytest.approx(eigs[1], abs=1e-10)

    def test_geometric_mixing(self, rng):
        # single-block contraction toward uniform at rate lambda_2^t
        for n in (2, 3, 5):
            k = single_block_kernel(n, 0.4)
            lam = second_eigenvalue(k)
            mat = k.matrix()
            v = rng.dirichlet(np.ones(n))
            uniform = np.full(n, 1.0 / n)
            gap0 = np.max(np.abs(v - uniform))
            current = v.copy()
            for t in range(1, 51):
                current = mat @ current
                assert np.max(np.abs(current - uniform)) <= gap0 * lam**t + 1e-12
