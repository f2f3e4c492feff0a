import math

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import random_envelope, random_instance
from oracles import dirichlet_kernel_sum, offpeak_grid_max
from fejercert import (
    denominator_bound,
    envelope_mass,
    external_envelope,
    fejer_coefficients,
    fejer_kernel,
    filtered_distribution,
    load_instance,
    offpeak_bound,
    offpeak_bound_loose,
    phase_gap,
    success_lower_bound,
    success_probability,
    uniform_envelope,
)


def fourier_sum_oracle(p, theta):
    """Independent evaluation through the coefficient form sum a_m e^{im theta}."""
    ms = np.arange(-p, p + 1)
    coeffs = fejer_coefficients(p)
    values = coeffs[None, :] * np.exp(1j * np.outer(theta, ms))
    return values.sum(axis=1).real


class TestKernel:
    def test_peak_value_exact(self):
        for p in range(0, 33):
            assert fejer_kernel(p, 0.0) == p + 1

    def test_first_order_zero_at_pi(self):
        assert fejer_kernel(1, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_second_order_first_zero(self):
        assert fejer_kernel(2, 2 * math.pi / 3) == pytest.approx(0.0, abs=1e-12)

    def test_positive_on_dense_grid(self):
        grid = np.linspace(-math.pi, math.pi, 100_001)
        for p in (0, 1, 2, 5, 16):
            assert np.min(fejer_kernel(p, grid)) >= -1e-12

    def test_unit_mean_over_period(self):
        grid = np.linspace(-math.pi, math.pi, 32_769)
        for p in range(0, 17):
            mean = simpson(fejer_kernel(p, grid), x=grid) / (2 * math.pi)
            assert abs(mean - 1.0) < 1e-8

    def test_singularity_guard_continuity(self):
        # values just inside and outside the guarded region must agree
        for p in (3, 12):
            near, far = 9e-7, 1.1e-6
            assert fejer_kernel(p, near) == pytest.approx(fejer_kernel(p, far), rel=1e-6)

    def test_closed_form_matches_dirichlet_sum_near_peaks(self):
        offsets = np.array([0.0, 1e-320, 3e-9, -4e-7, 9e-7, -9e-7])
        for center in (0.0, 2 * math.pi, -2 * math.pi):
            theta = center + offsets
            for p in (0, 1, 3, 12, 40):
                reference = dirichlet_kernel_sum(p, theta)
                assert np.max(np.abs(fejer_kernel(p, theta) - reference)) < 1e-10

    def test_exact_peak_at_multiples_of_two_pi(self):
        for theta in (2 * math.pi, -2 * math.pi, -4 * math.pi):
            for p in (0, 7, 2**45, 2**53):
                assert fejer_kernel(p, theta) == float(p + 1)

    def test_order_limit_without_order_sized_memory(self):
        value = fejer_kernel(2**53, np.array([0.0, 1e-9, 0.5]))
        assert value[0] == float(2**53 + 1)
        assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            fejer_kernel(2**53 + 1, 0.0)
        with pytest.raises(ValueError):
            fejer_kernel(-1, 0.0)

    @pytest.mark.parametrize("p, theta", [(2, 1e308), (2**53, 1e300), (2, math.nan)])
    def test_non_finite_argument_rejected(self, p, theta):
        with pytest.raises(ValueError, match="not finite"):
            fejer_kernel(p, theta)

    def test_periodicity(self):
        theta = np.linspace(-2.9, 2.9, 41)
        for p in (1, 4):
            assert np.allclose(
                fejer_kernel(p, theta), fejer_kernel(p, theta + 2 * math.pi), atol=1e-9
            )

    def test_two_dimensional_argument(self):
        # rows of guarded entries, exact multiples of 2pi and ordinary angles
        rng = np.random.default_rng(5)
        theta = rng.uniform(-40.0, 40.0, size=(7, 33))
        theta[:, :6] = [0.0, 2 * math.pi, -4 * math.pi, 9e-7, -5e-7, 2 * math.pi + 3e-7]
        theta[3] = 1e-7 * np.arange(33)
        for p in (0, 1, 3, 12):
            out = fejer_kernel(p, theta)
            assert out.shape == theta.shape
            for row, values in zip(theta, out):
                assert np.array_equal(values, fejer_kernel(p, row))

    def test_coefficient_form_reproduces_kernel(self):
        theta = np.linspace(-math.pi, math.pi, 257)
        for p in (0, 1, 2, 5, 9):
            coeffs = fejer_coefficients(p)
            assert np.all(coeffs >= 0)
            assert np.max(np.abs(fourier_sum_oracle(p, theta) - fejer_kernel(p, theta))) < 1e-10


class TestOffpeakBound:
    def test_first_order_at_pi(self):
        assert offpeak_bound(1, math.pi) == pytest.approx(0.5)
        assert offpeak_grid_max(1, math.pi) <= 0.5

    def test_third_order_at_half_pi(self):
        assert offpeak_bound(3, math.pi / 2) == pytest.approx(0.5)

    def test_chain_to_loose_bound(self):
        for p in (0, 1, 5, 32):
            for delta in (math.pi / 8, math.pi / 4, math.pi / 2, math.pi):
                assert offpeak_bound(p, delta) <= offpeak_bound_loose(p, delta) + 1e-15

    def test_tail_bound_on_grid(self):
        for p in range(1, 33):
            for delta in (math.pi / 8, math.pi / 4, math.pi / 2, math.pi):
                grid = np.linspace(delta, math.pi, 2001)
                assert np.max(fejer_kernel(p, grid)) <= offpeak_bound(p, delta) + 1e-12

    def test_delta_range_validated(self):
        with pytest.raises(ValueError):
            offpeak_bound(2, 0.0)
        with pytest.raises(ValueError):
            offpeak_bound(2, 3.2)


class TestFilteredDistribution:
    def test_order_zero_is_flat(self, rng):
        inst = random_instance(rng)
        env = random_envelope(rng, inst.size)
        pm = phase_gap(inst, 0.2)
        law = filtered_distribution(env, pm, 0)
        assert np.allclose(law.probs, env.probs, atol=1e-14)
        assert law.denominator == pytest.approx(1.0)

    def test_two_string_suppression(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        pm = phase_gap(inst, math.pi)
        law = filtered_distribution(uniform_envelope(2, 1), pm, 1)
        assert law.probs == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_zero_denominator_rejected(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        pm = phase_gap(inst, math.pi)
        env = external_envelope([0.0, 1.0])  # support only where F_1 vanishes
        with pytest.raises(ValueError, match="denominator"):
            filtered_distribution(env, pm, 1)

    def test_denominator_stored(self, rng):
        inst = random_instance(rng)
        env = random_envelope(rng, inst.size)
        pm = phase_gap(inst, 0.11)
        law = filtered_distribution(env, pm, 3)
        weights = env.probs * fejer_kernel(3, pm.theta - pm.theta_star)
        assert law.denominator == pytest.approx(float(weights.sum()))


class TestSuccessProbability:
    def test_all_strings(self, rng):
        inst = random_instance(rng)
        env = random_envelope(rng, inst.size)
        pm = phase_gap(inst, 0.07)
        law = filtered_distribution(env, pm, 2)
        assert success_probability(law, np.arange(inst.size)) == pytest.approx(1.0)

    def test_two_string_example(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        pm = phase_gap(inst, math.pi)
        law = filtered_distribution(uniform_envelope(2, 1), pm, 1)
        assert success_probability(law, [0]) == pytest.approx(1.0)

    def test_flat_filter_uniform(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        pm = phase_gap(inst, 0.3)
        law = filtered_distribution(uniform_envelope(2, 2), pm, 0)
        assert success_probability(law, pm.omega_star) == pytest.approx(1 / 4)

    def test_empty_target_rejected(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        pm = phase_gap(inst, 1.0)
        law = filtered_distribution(uniform_envelope(2, 1), pm, 1)
        with pytest.raises(ValueError):
            success_probability(law, [])

    @pytest.mark.parametrize("target", [[-1], [2], np.array([0.0])])
    def test_bad_index_rejected(self, target):
        # a negative index would otherwise wrap to the last string
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        law = filtered_distribution(uniform_envelope(2, 1), phase_gap(inst, 1.0), 1)
        with pytest.raises(ValueError):
            success_probability(law, target)


class TestSuccessBound:
    def test_worked_example(self):
        assert success_lower_bound(1, 0.5, math.pi) == pytest.approx(0.8)

    def test_full_mass(self):
        assert success_lower_bound(3, 1.0, 0.4) == 1.0

    def test_order_zero(self):
        assert success_lower_bound(0, 0.3, math.pi) == pytest.approx(0.3)

    def test_denominator_bound_examples(self):
        assert denominator_bound(1, 0.5, math.pi) == pytest.approx(1.25)
        assert denominator_bound(4, 1.0, 0.8) == pytest.approx(5.0)

    def test_exact_denominator_below_bound(self, rng):
        hits = 0
        while hits < 100:
            inst = random_instance(rng)
            gamma = float(rng.uniform(0.05, 0.35))
            pm = phase_gap(inst, gamma)
            if pm.collided or pm.all_optimal:
                continue
            env = random_envelope(rng, inst.size)
            p = int(rng.integers(0, 7))
            law = filtered_distribution(env, pm, p)
            c_beta = envelope_mass(env, pm.omega_star)
            assert law.denominator <= denominator_bound(p, c_beta, pm.delta) + 1e-12
            hits += 1

    def test_bound_chain_on_random_instances(self, rng):
        hits = 0
        while hits < 60:
            inst = random_instance(rng)
            gamma = float(rng.uniform(0.05, 0.35))
            pm = phase_gap(inst, gamma)
            if pm.collided or pm.all_optimal:
                continue
            env = random_envelope(rng, inst.size)
            p = int(rng.integers(0, 7))
            law = filtered_distribution(env, pm, p)
            q0 = success_probability(law, pm.omega_star)
            c_beta = envelope_mass(env, pm.omega_star)
            assert q0 >= success_lower_bound(p, c_beta, pm.delta) - 1e-12
            hits += 1


class TestFejerParams:
    # the harmonic schedule of order p is the cost angles r * gamma, r = 1..p
    def test_harmonic_schedule(self):
        assert 0.25 * np.arange(1, 3 + 1, dtype=float) == pytest.approx([0.25, 0.5, 0.75])
        assert (0.25 * np.arange(1, 0 + 1, dtype=float)).size == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            fejer_kernel(-1, 0.1)
