import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import certified_bound, random_envelope
from oracles import lattice_success_bound
from fejercert import (
    Regime,
    apply_block_kernel,
    build_certificate,
    classify_regime,
    cmin_curve,
    depth_for_target,
    fejer_kernel,
    gamma_safe,
    lipschitz_envelope_bound,
    main_lobe_constant,
    order_reduction,
    ratio_bounds,
    ratio_parameter,
    shot_budget,
    single_block_kernel,
)


class TestRatioParameter:
    def test_examples(self):
        assert ratio_parameter(1, math.pi, 0.5) == pytest.approx(2.0)
        assert ratio_parameter(5, 0.7, 0.0) == 0.0
        assert ratio_parameter(0, math.pi, 1.0) == pytest.approx(1.0)

    @given(
        st.integers(0, 40),
        st.floats(1e-6, math.pi),
        st.floats(1e-9, 1.0),
    )
    def test_consistency_with_success_bound(self, p, delta, c):
        # tight ratio form == denominator form of the success bound (algebraic identity)
        x = ratio_parameter(p, delta, c)
        tight = ratio_bounds(x, c).tight
        assert tight == pytest.approx(lattice_success_bound(p, c, delta), abs=1e-12)


class TestRatioBounds:
    def test_examples(self):
        b = ratio_bounds(2.0, 0.5)
        assert b.tight == pytest.approx(0.8)
        assert b.simple == pytest.approx(2 / 3)
        b = ratio_bounds(1.0, 0.25)
        assert b.tight == pytest.approx(1 / 1.75)
        assert b.simple == pytest.approx(0.5)

    def test_full_mass_saturates(self):
        assert ratio_bounds(0.31, 1.0).tight == 1.0

    def test_zero_ratio(self):
        assert ratio_bounds(0.0, 0.4) == (0.0, 0.0)

    @given(st.floats(1e-9, 1e6), st.floats(0.0, 1.0))
    def test_tight_dominates_simple(self, x, c):
        b = ratio_bounds(x, c)
        assert b.tight >= b.simple - 1e-15


class TestShotBudget:
    def test_unit_ratio_natural_log(self):
        assert shot_budget(1.0, math.exp(-1.0)) == pytest.approx(2.0)

    def test_large_ratio_limit(self):
        eps = 0.05
        assert shot_budget(1e12, eps) == pytest.approx(math.log(1 / eps), rel=1e-9)

    def test_small_ratio(self):
        assert shot_budget(0.1, 0.01) == pytest.approx(11 * math.log(100))

    def test_zero_ratio_flagged_infinite(self):
        assert math.isinf(shot_budget(0.0, 0.1))

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            shot_budget(1.0, 0.0)
        with pytest.raises(ValueError):
            shot_budget(1.0, 1.0)


class TestRegimes:
    def test_small(self):
        assert classify_regime(0.01).regime is Regime.R1

    def test_threshold_with_guarantee(self):
        report = classify_regime(1.0, 0.5)
        assert report.regime is Regime.R2
        assert report.threshold_guarantee == pytest.approx(1 / 3)

    def test_large(self):
        assert classify_regime(100.0).regime is Regime.R3

    def test_threshold_eta_to_zero(self):
        report = classify_regime(1.0, 1e-9)
        assert report.regime is Regime.R2
        assert report.threshold_guarantee >= 0.5 - 1e-8
        # at x = 1 the simple ratio and the shot budget hit the knife-edge values
        assert ratio_bounds(1.0, 0.7).simple == pytest.approx(0.5)
        for eps in (0.1, 0.01):
            assert shot_budget(1.0, eps) == pytest.approx(2 * math.log(1 / eps))


class TestDepthForTarget:
    def test_checkpoint(self):
        p = depth_for_target(0.1, 0.5, math.pi / 2)
        assert p == 4
        assert (p + 1) ** 2 >= 9 / math.sin(math.pi / 4) ** 2 - 1e-9

    def test_ceiling_boundary(self):
        assert depth_for_target(0.5, 0.5, math.pi) == 0

    def test_full_mass_clamps_to_zero(self):
        assert depth_for_target(0.2, 1.0, 0.3) == 0

    def test_postcondition_on_grid(self):
        # 1e-12 slack: at exact boundaries (V integer) the bound equals
        # 1 - eps up to rounding, e.g. one ulp short at (0.5, 0.5, pi)
        eps_grid = np.geomspace(0.005, 0.5, 20)
        c_grid = np.linspace(0.05, 1.0, 20)
        d_grid = np.linspace(0.05 * math.pi, math.pi, 20)
        for eps in eps_grid:
            for c in c_grid:
                for d in d_grid:
                    p = depth_for_target(float(eps), float(c), float(d))
                    assert certified_bound(p, float(c), float(d)) >= 1 - eps - 1e-12
                    assert lattice_success_bound(p, float(c), float(d)) >= 1 - eps - 1e-12

    @staticmethod
    def _targets():
        """A 12x12x12 grid of (eps, C, delta), and the exact-integer boundaries
        C = 1/(1+k^2), delta = pi, eps = 1/2, where the depth formula's value
        is exactly k and the bound at order k-1 is 1 - eps up to rounding."""
        for eps in np.geomspace(0.005, 0.5, 12):
            for c in np.linspace(0.05, 1.0, 12):
                for d in np.linspace(0.05 * math.pi, math.pi, 12):
                    yield float(eps), float(c), float(d)
        for k in range(1, 2000):
            yield 0.5, 1.0 / (1 + k * k), math.pi

    def test_certificate_meets_target_at_minimal_order(self):
        # the depth a certificate names meets the target in the arithmetic of
        # the bound it reports, and one order less does not
        for eps, c, d in self._targets():
            p = depth_for_target(eps, c, d)
            assert build_certificate(p, c, d, eps).q0_bound >= 1 - eps - 1e-12
            if p > 0:
                assert build_certificate(p - 1, c, d, eps).q0_bound < 1 - eps - 1e-12

    @pytest.mark.parametrize("c_beta, delta", [(1.0, 1e-200), (0.5, 1e-200), (0.5, 5e-324),
                                               (1.0, 5e-324), (1e-40, 1.0), (0.5, 1e-160)])
    def test_unreachable_depth_names_delta(self, c_beta, delta):
        # x underflows to 0 at every order, or the order passes 2**53, where
        # p += 1 no longer moves the bound
        with pytest.raises(ValueError, match=f"delta={delta!r}"):
            depth_for_target(0.1, c_beta, delta)

    def test_full_mass_at_subnormal_gap(self):
        # sin^2(delta/2) is subnormal but not 0, so x > 0 and the bound is 1
        assert depth_for_target(0.1, 1.0, 1e-160) == 0
        assert certified_bound(0, 1.0, 1e-160) == 1.0

    def test_minimality_near_checkpoint(self):
        # one order less must fail the target at the checkpoint
        assert certified_bound(3, 0.5, math.pi / 2) < 0.9
        assert lattice_success_bound(3, 0.5, math.pi / 2) < 0.9


class TestCminCurve:
    def test_checkpoint(self):
        assert cmin_curve([math.pi], 0.1, 2)[0] == pytest.approx(0.5)

    def test_limits(self):
        assert cmin_curve([1e-9], 0.1, 3)[0] == pytest.approx(1.0)
        assert cmin_curve([math.pi / 2], 0.1, 10_000)[0] == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_delta_and_order(self):
        grid = np.linspace(0.1, math.pi, 50)
        c2 = cmin_curve(grid, 0.1, 2)
        c5 = cmin_curve(grid, 0.1, 5)
        assert np.all(np.diff(c2) < 0)
        assert np.all(c5 < c2)

    def test_inverse_of_depth(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = int(rng.integers(0, 30))
            eps = float(rng.uniform(0.01, 0.5))
            delta = float(rng.uniform(0.05, math.pi))
            c_min = float(cmin_curve([delta], eps, p)[0])
            assert depth_for_target(eps, c_min, delta) <= p


class TestGammaSafe:
    def test_unit_range(self):
        assert gamma_safe(1, 1.0) == pytest.approx(math.pi)

    def test_scaled(self):
        assert gamma_safe(4, math.pi) == pytest.approx(0.25)

    def test_doubling_range_halves_angle(self):
        assert gamma_safe(3, 2.0) == pytest.approx(gamma_safe(3, 1.0) / 2)

    def test_order_zero_convention(self):
        assert gamma_safe(0, 2.0) == pytest.approx(math.pi / 2)


class TestMainLobe:
    def test_small_c_limit(self):
        assert main_lobe_constant(1e-8) == pytest.approx(1.0)

    def test_at_pi(self):
        assert main_lobe_constant(math.pi) == pytest.approx(4 / math.pi**2)

    def test_at_half_pi(self):
        assert main_lobe_constant(math.pi / 2) == pytest.approx(8 / math.pi**2)

    @pytest.mark.parametrize("c", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    def test_main_lobe_capture(self, c):
        kappa = main_lobe_constant(c)
        for p in range(1, 65):
            width = c / (p + 1)
            grid = np.linspace(-width, width, 101)
            assert np.min(fejer_kernel(p, grid)) >= kappa * (p + 1) - 1e-9


class TestOrderReduction:
    def test_example(self):
        red = order_reduction(4.0, 3, 1, 1.0, 0.1)
        assert red.x_reduced == pytest.approx(1.0)
        assert red.shots == pytest.approx(2 * math.log(10))
        assert red.epsilon == 0.1

    def test_no_reduction_identity(self):
        red = order_reduction(2.5, 6, 6, 1.0, 0.2)
        assert red.x_reduced == pytest.approx(2.5)

    def test_shot_overhead_factor_at_large_x(self):
        eps = 0.1
        for x0 in (50.0, 500.0):
            for (p, pp, cp) in [(7, 1, 0.5), (9, 2, 1.0), (15, 3, 0.8)]:
                red = order_reduction(x0, p, pp, cp, eps)
                factor = ((p + 1) / (pp + 1)) ** 2 / cp
                assert red.shots <= factor * shot_budget(x0, eps) + 1e-9

    def test_range_validation(self):
        with pytest.raises(ValueError):
            order_reduction(1.0, 3, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            order_reduction(1.0, 3, 4, 1.0, 0.1)


class TestLipschitzEnvelope:
    def test_proof_constant(self):
        assert lipschitz_envelope_bound(1, 1.0) == 2.0
        assert lipschitz_envelope_bound(0, 3.7) == 0.0

    def test_finite_difference_sweep(self, rng):
        # single-block envelopes: |W_1(x*; beta+d) - W_1(x*; beta)| <= 2 p' ||H_M|| |d|
        for n in (2, 3, 5):
            bound = lipschitz_envelope_bound(1, n - 1.0)
            v0 = random_envelope(rng, n)
            target = int(rng.integers(0, n))
            betas = np.linspace(0.0, 2 * math.pi, 60)
            step = 1e-4
            for beta in betas:
                w0 = apply_block_kernel(single_block_kernel(n, float(beta)), v0, 1).probs[target]
                w1 = apply_block_kernel(
                    single_block_kernel(n, float(beta) + step), v0, 1
                ).probs[target]
                assert abs(w1 - w0) <= bound * step + 1e-12

    def test_finite_difference_two_layers(self, rng):
        n = 3
        bound = lipschitz_envelope_bound(2, n - 1.0)
        v0 = random_envelope(rng, n)
        step = 1e-4
        for _ in range(30):
            b1, b2 = rng.uniform(0, 2 * math.pi, size=2)
            def w(d1, d2):
                env = apply_block_kernel(single_block_kernel(n, b1 + d1), v0, 1)
                env = apply_block_kernel(single_block_kernel(n, b2 + d2), env, 1)
                return env.probs[0]
            assert abs(w(step, step) - w(0, 0)) <= bound * step + 1e-12
