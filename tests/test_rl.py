import math

import numpy as np
import pytest

from conftest import (
    averaged_bound,
    certified_bound,
    level_mass,
    random_envelope,
    random_instance,
    shape_document,
)
from oracles import (
    averaged_fejer,
    averaged_fejer_quadrature,
    denominator_form_bound,
    filtered_law_per_string,
    lattice_success_bound,
    rl_filtered_distribution_per_string,
    rl_law_per_string,
    window_density,
    window_fourier,
)
from fejercert import (
    fejer_kernel,
    filtered_distribution,
    load_instance,
    offpeak_bound,
    phase_gap,
    uniform_envelope,
)
from fejercert import fejer, rl
from fejercert.rl import (
    _BLOCK_VALUES,
    _SUMMED_MAX_ORDER,
    DitherWindow,
    averaged_offpeak_bound,
    energy_gap,
    rl_filtered_distribution,
)


class TestWindow:
    def test_unit_at_zero(self):
        w = DitherWindow(0.37)
        assert window_fourier(w, 0.0) == 1.0

    def test_sinc_zero(self):
        w = DitherWindow(0.5)
        assert window_fourier(w, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_decay_envelope(self):
        w = DitherWindow(0.8)
        xi = np.linspace(-40, 40, 1001)
        values = np.abs(window_fourier(w, xi))
        envelope = np.minimum(1.0, 1.0 / (0.8 * np.maximum(np.abs(xi), 1e-300)))
        assert np.all(values <= envelope + 1e-12)

    def test_density_normalized(self):
        w = DitherWindow(1.3)
        u = np.linspace(-1.3, 1.3, 100_001)
        assert np.trapezoid(window_density(w, u), u) == pytest.approx(1.0, abs=1e-4)

    def test_positive_half_width_required(self):
        with pytest.raises(ValueError):
            DitherWindow(0.0)

    def test_nan_half_width_rejected(self):
        with pytest.raises(ValueError):
            DitherWindow(math.nan)


class TestAveragedFejer:
    def test_peak_is_exact(self):
        w = DitherWindow(0.6)
        for p in (0, 1, 4, 9, 16):
            assert averaged_fejer(p, 0.7, 0.0, w) == p + 1

    def test_point_window_limit(self):
        w = DitherWindow(1e-9)
        for delta_e in (1.0, 2.0, 5.0):
            plain = fejer_kernel(3, 0.8 * delta_e)
            assert averaged_fejer(3, 0.8, delta_e, w) == pytest.approx(plain, abs=1e-8)

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            p = int(rng.integers(0, 9))
            gamma = float(rng.uniform(0.05, 2.0))
            delta_e = float(rng.uniform(0.2, 6.0))
            w = DitherWindow(float(rng.uniform(0.05, 1.5)))
            fourier = averaged_fejer(p, gamma, delta_e, w)
            quad = averaged_fejer_quadrature(p, gamma, delta_e, w)
            assert abs(fourier - quad) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            value = averaged_fejer(
                int(rng.integers(0, 12)),
                float(rng.uniform(0, 2.5)),
                float(rng.uniform(-8, 8)),
                DitherWindow(float(rng.uniform(0.05, 2.0))),
            )
            assert value >= -1e-10


class TestAveragedOffpeak:
    def test_logarithmic_checkpoint(self):
        g = 1.7
        bound = averaged_offpeak_bound(9, 2 * math.log(10) / g, g)
        assert bound.log_form == pytest.approx(2.0)

    def test_wide_window_limit(self):
        bound = averaged_offpeak_bound(5, 1e9, 1.0)
        assert bound.exact == pytest.approx(1.0, abs=1e-6)
        assert bound.log_form == pytest.approx(1.0, abs=1e-6)

    def test_single_term_sum(self):
        hw, g = 0.7, 1.0
        bound = averaged_offpeak_bound(1, hw, g)
        assert bound.exact == pytest.approx(1 + 1 / (hw * g))

    def test_series_matches_sum_around_threshold(self):
        hw, g = 0.4, 2.0
        for p in (_SUMMED_MAX_ORDER - 1, _SUMMED_MAX_ORDER, _SUMMED_MAX_ORDER + 1):
            total = math.fsum((1.0 - k / (p + 1)) / k for k in range(1, p + 1))
            expected = 1.0 + 2.0 / (hw * g) * total
            assert averaged_offpeak_bound(p, hw, g).exact == pytest.approx(expected, rel=1e-12)

    def test_order_limit(self):
        bound = averaged_offpeak_bound(2**53, 0.4, 2.0)
        assert math.isfinite(bound.exact) and bound.exact <= bound.log_form
        with pytest.raises(ValueError, match="2\\*\\*53"):
            averaged_offpeak_bound(2**53 + 1, 0.4, 2.0)

    def test_exact_below_log_form(self):
        for p in (0, 1, 2, 10, 100, 10_000):
            bound = averaged_offpeak_bound(p, 0.4, 2.0)
            assert bound.exact <= bound.log_form + 1e-12

    def test_dominates_averaged_kernel_off_peak(self):
        rng = np.random.default_rng(4)
        g = 1.0
        for _ in range(40):
            p = int(rng.integers(1, 8))
            hw = float(rng.uniform(0.2, 1.5))
            gamma = float(rng.uniform(0.1, 2.0))
            w = DitherWindow(hw)
            bound = averaged_offpeak_bound(p, hw, g)
            for delta_e in np.linspace(g, 8 * g, 30):
                value = averaged_fejer(p, gamma, float(delta_e), w)
                assert value <= bound.exact + 1e-10
                assert value <= bound.log_form + 1e-10


class TestRLSuccessBound:
    """The ratio form that rl reports, at x = (p+1) C / Mbar, against the
    denominator form (p+1) C / ((p+1) C + Mbar (1-C))."""

    def test_worked_example(self):
        assert averaged_bound(9, 0.1, 2.0) == pytest.approx(1 / 2.8)
        assert denominator_form_bound(9, 0.1, 2.0) == pytest.approx(1 / 2.8)

    def test_full_mass(self):
        assert averaged_bound(3, 1.0, 5.0) == 1.0
        assert denominator_form_bound(3, 1.0, 5.0) == 1.0

    def test_reduces_to_lattice_bound(self):
        # Mbar = M_p(delta) gives the unaveraged bound
        for p in (0, 1, 4):
            for c in (0.2, 0.9):
                for delta in (0.4, math.pi / 2, math.pi):
                    mbar = offpeak_bound(p, delta)
                    assert averaged_bound(p, c, mbar) == pytest.approx(
                        certified_bound(p, c, delta), abs=1e-14
                    )
                    assert averaged_bound(p, c, mbar) == pytest.approx(
                        lattice_success_bound(p, c, delta), abs=1e-14
                    )

    def test_ratio_parameter(self):
        x = (9 + 1) * 0.1 / 2.0  # x_RL = (p+1) C / Mbar
        assert x == pytest.approx(0.5)
        assert x / ((1 - 0.1) + x) == pytest.approx(denominator_form_bound(9, 0.1, 2.0))
        assert x / ((1 - 0.1) + x) == pytest.approx(averaged_bound(9, 0.1, 2.0))


class TestRLFilteredDistribution:
    def test_point_window_matches_plain_filter(self, rng):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 2, 3, 5]})
        env = random_envelope(rng, 4)
        gamma = 0.4
        w = DitherWindow(1e-10)
        mass, level_of = level_mass(env, inst)
        law = rl_filtered_distribution(mass, inst, gamma, w, 3, samples=40, seed=9)
        plain = filtered_distribution(mass, phase_gap(inst, gamma).offsets(), 3)
        probs = rl_law_per_string(law, env, level_of)[0]
        assert np.max(np.abs(probs - filtered_law_per_string(plain, env, level_of)[1])) < 1e-7

    def test_success_mass_respects_bound(self, rng):
        checked = 0
        while checked < 20:
            inst = random_instance(rng)
            gap = energy_gap(inst)
            if not math.isfinite(gap) or gap == 0.0:
                continue
            env = random_envelope(rng, inst.size)
            omega = inst.optimal_indices()
            p = int(rng.integers(1, 5))
            hw = float(rng.uniform(0.3, 1.2))
            gamma = float(rng.uniform(0.1, 1.0))
            law = rl_filtered_distribution(
                level_mass(env, inst)[0], inst, gamma, DitherWindow(hw), p, samples=160,
                seed=checked,
            )
            c_beta = float(env.probs[omega].sum())
            mbar = averaged_offpeak_bound(p, hw, gap).exact
            for bound in (averaged_bound(p, c_beta, mbar), denominator_form_bound(p, c_beta, mbar)):
                assert law.success_mass >= bound - 3 * law.success_stderr - 1e-12
            checked += 1

    def test_single_sample_reproducible(self, rng):
        # two draws, the fewest an unpooled average accepts
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        env = uniform_envelope(2, 2)
        w = DitherWindow(0.5)
        mass, level_of = level_mass(env, inst)
        a = rl_filtered_distribution(mass, inst, 0.3, w, 2, samples=2, seed=123)
        b = rl_filtered_distribution(mass, inst, 0.3, w, 2, samples=2, seed=123)
        assert (a.success_mass, a.success_stderr) == (b.success_mass, b.success_stderr)
        for x, y in zip(rl_law_per_string(a, env, level_of), rl_law_per_string(b, env, level_of)):
            assert np.array_equal(x, y)

    def test_zero_gap_rejected(self):
        # an infeasible string shares the optimal energy
        inst = load_instance(
            {"n": 2, "m": 1, "energy": [0, 0], "penalty": [0, 1]}
        )
        with pytest.raises(ValueError, match="gap"):
            rl_filtered_distribution(
                inst.levels.shares(), inst, 0.3, DitherWindow(0.5), 2, samples=5, seed=0
            )

    def test_pooled_mode_normalizes_once(self, rng):
        inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        env = random_envelope(rng, 4)
        w = DitherWindow(0.8)
        mass, level_of = level_mass(env, inst)
        pooled = rl_filtered_distribution(mass, inst, 0.4, w, 2, samples=60, seed=5, pooled=True)
        averaged = rl_filtered_distribution(mass, inst, 0.4, w, 2, samples=60, seed=5)
        pooled_probs = rl_law_per_string(pooled, env, level_of)[0]
        averaged_probs = rl_law_per_string(averaged, env, level_of)[0]
        assert pooled_probs.sum() == pytest.approx(1.0)
        assert averaged_probs.sum() == pytest.approx(1.0)
        # the two averaging orders genuinely differ
        assert np.max(np.abs(pooled_probs - averaged_probs)) > 1e-6


def _agreement_instances(rng):
    """Random instances with a nonzero energy gap, and two instances whose
    draws take several blocks: one level per string (one draw per block)
    and three levels over eight strings (two draws per block)."""
    found = []
    while len(found) < 6:
        inst = random_instance(rng)
        if energy_gap(inst) > 0.0:
            found.append(inst)
    found.append(load_instance({"n": 3, "m": 2, "energy": [int(e) for e in rng.permutation(9)]}))
    found.append(load_instance({"n": 2, "m": 3, "energy": [0, 3, 1, 3, 1, 1, 3, 0]}))
    return found


class TestLevelAgreement:
    """The per-level dither average matches the per-string oracle: the
    gathered law and its stderr, and the success mass and its stderr against
    the oracle's mass on Omega*.  stderr is compared squared: both paths
    take it from the one-pass variance formula, which cancels to noise near
    1e-9 when all draws agree (as at p = 0)."""

    @pytest.mark.parametrize("samples", [1, 2, 37])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_matches_per_string_oracle(self, rng, pooled, samples):
        for inst in _agreement_instances(rng):
            env = random_envelope(rng, inst.size)
            mass, level_of = level_mass(env, inst)
            for p in range(6):
                gamma, w = float(rng.uniform(0.1, 2.0)), DitherWindow(float(rng.uniform(0.1, 1.5)))
                kwargs = dict(samples=samples, seed=int(rng.integers(1000)), pooled=pooled)
                if samples < 2 and not pooled:  # no standard error from one draw
                    with pytest.raises(ValueError, match="samples"):
                        rl_filtered_distribution(mass, inst, gamma, w, p, **kwargs)
                    with pytest.raises(ValueError, match="samples"):
                        rl_filtered_distribution_per_string(env, inst, gamma, w, p, **kwargs)
                    continue
                law = rl_filtered_distribution(mass, inst, gamma, w, p, **kwargs)
                ref = rl_filtered_distribution_per_string(
                    env, inst, gamma, w, p, subset=inst.optimal_indices(), **kwargs)
                probs, stderr = rl_law_per_string(law, env, level_of)
                assert np.max(np.abs(probs - ref.probs)) < 1e-12
                assert abs(law.success_mass - ref.subset_mass) < 1e-12
                if pooled:  # no per-draw laws, so no standard errors
                    assert stderr is None and ref.stderr is None
                    assert law.success_stderr is None and ref.subset_stderr is None
                else:
                    assert np.max(np.abs(stderr**2 - ref.stderr**2)) < 1e-12
                    assert abs(law.success_stderr - ref.subset_stderr) < 1e-12


class TestUniformLevelLaw:
    """The rl command's law: the uniform envelope's exact level shares, in
    blocks of at most _BLOCK_VALUES kernel values."""

    @pytest.mark.parametrize("n,m", [(16, 2), (4, 6), (36, 3)])
    def test_success_matches_per_string_oracle(self, n, m):
        inst = load_instance(shape_document(n, m), cap=n**m)
        args = (inst, 0.37, DitherWindow(0.2), 3)
        law = rl_filtered_distribution(inst.levels.shares(), *args, samples=40, seed=7)
        ref = rl_filtered_distribution_per_string(uniform_envelope(n, m), *args, samples=40,
                                                  seed=7, subset=inst.optimal_indices())
        assert abs(law.success_mass - ref.subset_mass) < 1e-12
        assert abs(law.success_stderr - ref.subset_stderr) < 1e-12

    @pytest.mark.parametrize("doc", [
        {"n": 2, "m": 13, "energy": list(range(2**13))},  # more levels than a block holds
        None,                                             # 36^3: few levels, many strings
    ], ids=["one_draw_per_block", "36^3"])
    def test_blocks_hold_fixed_budget(self, doc, monkeypatch):
        inst = load_instance(shape_document(36, 3) if doc is None else doc, cap=2**16)
        levels = len(inst.levels.values)
        sizes = []
        kernel = fejer.fejer_kernel
        monkeypatch.setattr(fejer, "fejer_kernel",
                            lambda p, theta: sizes.append(np.size(theta)) or kernel(p, theta))
        rl_filtered_distribution(inst.levels.shares(), inst, 0.37, DitherWindow(0.2), 3,
                                 samples=200, seed=7)
        assert sum(sizes) == 200 * levels
        assert max(sizes) == max(levels, _BLOCK_VALUES // levels * levels)
        assert len(sizes) > 1

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("n,m", [(16, 2), (8, 4), (36, 3)])
    def test_block_size_does_not_change_bits(self, n, m, pooled, monkeypatch):
        """Blocks of 1 draw, 7 draws and all 200 draws give the same law,
        bit for bit: the denominators and the running sums do not depend on
        how the draws are blocked."""
        inst = load_instance(shape_document(n, m), cap=n**m)
        levels = len(inst.levels.values)
        laws = []
        for draws in (1, 7, 200):
            monkeypatch.setattr(rl, "_BLOCK_VALUES", draws * levels)
            laws.append(rl_filtered_distribution(inst.levels.shares(), inst, 0.37,
                                                 DitherWindow(0.2), 3, samples=200, seed=7,
                                                 pooled=pooled))
        first = laws[0]
        for law in laws[1:]:
            assert law.level_mean.tobytes() == first.level_mean.tobytes()
            if not pooled:
                assert law.level_sum_sq.tobytes() == first.level_sum_sq.tobytes()
            assert (law.success_mass, law.success_stderr) == (
                first.success_mass, first.success_stderr)
