import math

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import (
    certified_bound,
    level_mass,
    random_envelope,
    random_instance,
    shape_document,
)
from oracles import (
    denominator_bound,
    dirichlet_kernel_sum,
    filtered_distribution_per_string,
    filtered_law_per_string,
    lattice_success_bound,
    offpeak_grid_max,
    phase_gap_per_string,
    success_probability_per_string,
)
from fejercert import fejer
from fejercert import (
    GapScope,
    envelope_mass,
    fejer_coefficients,
    fejer_kernel,
    filtered_distribution,
    load_instance,
    offpeak_bound,
    offpeak_bound_loose,
    phase_gap,
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
        mass, level_of = level_mass(env, inst)
        law = filtered_distribution(mass, phase_gap(inst, 0.2).offsets(), 0)
        assert np.allclose(filtered_law_per_string(law, env, level_of)[1], env.probs, atol=1e-14)
        assert law.denominator == pytest.approx(1.0)

    def test_two_string_suppression(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        pm = phase_gap(inst, math.pi)
        law = filtered_distribution(inst.levels.shares(), pm.offsets(), 1)
        _, probs = filtered_law_per_string(law, uniform_envelope(2, 1), np.arange(2))
        assert probs == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_zero_denominator_rejected(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        offsets = phase_gap(inst, math.pi).offsets()
        mass = np.array([0.0, 1.0])  # support only where F_1 vanishes
        with pytest.raises(ValueError, match="denominator"):
            filtered_distribution(mass, offsets, 1)
        # with a draw axis, one vanishing draw among finite ones is named
        draws = np.stack([offsets, offsets / 2])
        with pytest.raises(ValueError, match="denominator 0.0 "):
            filtered_distribution(mass, draws, 1)

    def test_denominator_stored(self, rng):
        inst = random_instance(rng)
        env = random_envelope(rng, inst.size)
        law = filtered_distribution(level_mass(env, inst)[0], phase_gap(inst, 0.11).offsets(), 3)
        ref = phase_gap_per_string(inst, 0.11)
        weights = env.probs * fejer_kernel(3, ref.theta - ref.theta_star)
        assert law.denominator == pytest.approx(float(weights.sum()))

    def test_draw_axis_is_one_law_per_draw(self, rng):
        inst = random_instance(rng)
        mass = level_mass(random_envelope(rng, inst.size), inst)[0]
        offsets = np.outer([0.1, 0.7, 2.3], phase_gap(inst, 1.0).offsets())
        law = filtered_distribution(mass, offsets, 4)
        for row, kernel, denominator in zip(offsets, law.kernel, law.denominator):
            single = filtered_distribution(mass, row, 4)
            assert single.kernel.tobytes() == kernel.tobytes()
            assert single.denominator == pytest.approx(denominator, rel=1e-15)

    @pytest.mark.parametrize("levels", [3, 40, 300, 2000])
    def test_denominator_does_not_depend_on_draw_count(self, levels):
        """A draw's denominator has the same bits whether it is computed
        alone, as a law without a draw axis, or in a block of any size."""
        rng = np.random.default_rng(levels)
        mass = rng.dirichlet(np.ones(levels))
        offsets = np.outer(rng.uniform(0.1, 3.0, 200), rng.integers(-40, 40, levels))
        alone = np.array([filtered_distribution(mass, row, 3).denominator for row in offsets])
        for size in (1, 7, 200):
            blocks = [filtered_distribution(mass, offsets[start:start + size], 3).denominator
                      for start in range(0, 200, size)]
            assert np.concatenate(blocks).tobytes() == alone.tobytes()


class TestPhasesPerLevel:
    """The level law against the per-string law: the gathered phases and
    Fejér weights of ``--law-output`` equal the per-string evaluation bit for
    bit; the probabilities, the denominator and the closed-form q0 agree
    with the per-string sums within 1e-12 relative.  The level masses are
    built as ``certify`` builds them: exact shares for the uniform envelope,
    sums through the level index for an external one."""

    @pytest.mark.parametrize("n,m", [(8, 4), (4, 7), (6, 6), (36, 3)])
    @pytest.mark.parametrize("scope", list(GapScope))
    def test_match_per_string(self, n, m, scope, rng):
        inst = load_instance(shape_document(n, m), cap=n**m)
        uniform = uniform_envelope(n, m)
        external = random_envelope(rng, inst.size)
        masses = [
            (uniform, inst.levels.shares(), inst.feasible_levels.counts[0] / inst.size),
            (external, level_mass(external, inst)[0],
             envelope_mass(external, inst.optimal_indices())),
        ]
        level_of = inst.levels.index(inst.energy).of_string
        for gamma in (0.37, 2.9):
            pm = phase_gap(inst, gamma, scope)
            ref = phase_gap_per_string(inst, gamma, scope)
            assert pm.level_theta[level_of].tobytes() == ref.theta.tobytes()
            assert pm.theta_star == ref.theta_star
            for p in (0, 1, 3, 17):
                for env, mass, c_beta in masses:
                    law = filtered_distribution(mass, pm.offsets(), p)
                    ref_law = filtered_distribution_per_string(env, ref, p)
                    kernel, probs = filtered_law_per_string(law, env, level_of)
                    assert kernel.tobytes() == ref_law.kernel.tobytes()
                    assert law.denominator == pytest.approx(ref_law.denominator, rel=1e-12, abs=0)
                    assert np.allclose(probs, ref_law.probs, rtol=1e-12, atol=0)
                    q0 = success_probability(p, c_beta, law.denominator)
                    assert q0 == pytest.approx(
                        success_probability_per_string(ref_law.probs, ref.omega_star),
                        rel=1e-12, abs=0)

    def test_kernel_runs_once_per_level(self, monkeypatch):
        inst = load_instance(shape_document(6, 6), cap=6**6)
        pm = phase_gap(inst, 0.37)
        points = []
        monkeypatch.setattr(fejer, "fejer_kernel",
                            lambda p, theta: points.append(np.size(theta)) or fejer_kernel(p, theta))
        filtered_distribution(inst.levels.shares(), pm.offsets(), 3)
        assert points == [len(inst.levels.values)]


class TestSuccessProbability:
    def test_all_strings(self, rng):
        inst = random_instance(rng)
        env = random_envelope(rng, inst.size)
        mass, level_of = level_mass(env, inst)
        law = filtered_distribution(mass, phase_gap(inst, 0.07).offsets(), 2)
        assert filtered_law_per_string(law, env, level_of)[1].sum() == pytest.approx(1.0)

    def test_two_string_example(self):
        inst = load_instance({"n": 2, "m": 1, "energy": [0, 1]})
        law = filtered_distribution(inst.levels.shares(), phase_gap(inst, math.pi).offsets(), 1)
        assert success_probability(1, 0.5, law.denominator) == pytest.approx(1.0)

    def test_flat_filter_uniform(self):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        law = filtered_distribution(inst.levels.shares(), phase_gap(inst, 0.3).offsets(), 0)
        assert success_probability(0, 1 / 4, law.denominator) == pytest.approx(1 / 4)

    # C_beta of an external envelope is read through envelope_mass, the one
    # place where certify takes a set of strings
    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            envelope_mass(uniform_envelope(2, 1), [])

    @pytest.mark.parametrize("target", [[-1], [2], np.array([0.0])])
    def test_bad_index_rejected(self, target):
        # a negative index would otherwise wrap to the last string
        with pytest.raises(ValueError):
            envelope_mass(uniform_envelope(2, 1), target)


class TestSuccessBound:
    """The ratio form that certify reports, against the denominator form."""

    def test_worked_example(self):
        assert certified_bound(1, 0.5, math.pi) == pytest.approx(0.8)
        assert lattice_success_bound(1, 0.5, math.pi) == pytest.approx(0.8)

    def test_full_mass(self):
        assert certified_bound(3, 1.0, 0.4) == 1.0
        assert lattice_success_bound(3, 1.0, 0.4) == 1.0

    def test_order_zero(self):
        assert certified_bound(0, 0.3, math.pi) == pytest.approx(0.3)
        assert lattice_success_bound(0, 0.3, math.pi) == pytest.approx(0.3)

    def test_denominator_bound_examples(self):
        # the ratio form is (p+1) C over the denominator bound
        for (p, c_beta, delta), expected in (((1, 0.5, math.pi), 1.25), ((4, 1.0, 0.8), 5.0)):
            assert denominator_bound(p, c_beta, offpeak_bound(p, delta)) == pytest.approx(
                expected)
            assert (p + 1) * c_beta / certified_bound(p, c_beta, delta) == pytest.approx(
                expected)

    def test_exact_denominator_below_bound(self, rng):
        hits = 0
        while hits < 100:
            inst = random_instance(rng)
            gamma = float(rng.uniform(0.05, 0.35))
            pm = phase_gap(inst, gamma)
            if pm.collided or not inst.gap_levels(GapScope.ALL_STRINGS).any():
                continue
            env = random_envelope(rng, inst.size)
            p = int(rng.integers(0, 7))
            law = filtered_distribution(level_mass(env, inst)[0], pm.offsets(), p)
            c_beta = envelope_mass(env, inst.optimal_indices())
            assert law.denominator <= denominator_bound(
                p, c_beta, offpeak_bound(p, pm.delta)) + 1e-12
            assert law.denominator <= (p + 1) * c_beta / certified_bound(
                p, c_beta, pm.delta) + 1e-12
            hits += 1

    def test_bound_chain_on_random_instances(self, rng):
        hits = 0
        while hits < 60:
            inst = random_instance(rng)
            gamma = float(rng.uniform(0.05, 0.35))
            pm = phase_gap(inst, gamma)
            if pm.collided or not inst.gap_levels(GapScope.ALL_STRINGS).any():
                continue
            env = random_envelope(rng, inst.size)
            p = int(rng.integers(0, 7))
            law = filtered_distribution(level_mass(env, inst)[0], pm.offsets(), p)
            c_beta = envelope_mass(env, inst.optimal_indices())
            q0 = success_probability(p, c_beta, law.denominator)
            assert q0 >= lattice_success_bound(p, c_beta, pm.delta) - 1e-12
            assert q0 >= certified_bound(p, c_beta, pm.delta) - 1e-12
            hits += 1


class TestFejerParams:
    # the harmonic schedule of order p is the cost angles r * gamma, r = 1..p
    def test_harmonic_schedule(self):
        assert 0.25 * np.arange(1, 3 + 1, dtype=float) == pytest.approx([0.25, 0.5, 0.75])
        assert (0.25 * np.arange(1, 0 + 1, dtype=float)).size == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            fejer_kernel(-1, 0.1)
