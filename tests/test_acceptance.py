"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here and never loosened at runtime;
inequalities that are mathematically tight at boundaries carry the same
1e-12 slack the certificate invariants use.
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from conftest import (
    averaged_bound,
    certified_bound,
    level_mass,
    random_envelope,
    random_instance,
)
from oracles import (
    averaged_fejer,
    averaged_fejer_quadrature,
    block_unitary_expm,
    dephased_reference,
    denominator_form_bound,
    dirichlet_filter_oracle,
    filtered_law_per_string,
    lattice_success_bound,
    penalty_table,
)
from fejercert import (
    GapScope,
    classify_regime,
    collision_penalty,
    depth_for_target,
    envelope_mass,
    fejer_kernel,
    filtered_distribution,
    lipschitz_envelope_bound,
    load_instance,
    main_lobe_constant,
    mixer_envelope,
    offpeak_bound,
    phase_gap,
    ratio_bounds,
    ratio_parameter,
    shot_budget,
    single_block_kernel,
    success_probability,
    uniform_envelope,
    averaged_block_kernel,
    apply_block_kernel,
)
from fejercert.cli import main as cli_main
from fejercert.feasibility import (
    delta_feasible,
    descent_step,
    graph_connected,
    level_graph,
    level_sets,
    overlap_feasibility_floor,
)
from fejercert.oracle import sample_shots
from fejercert.rl import (
    DitherWindow,
    averaged_offpeak_bound,
    energy_gap,
    rl_filtered_distribution,
)

SEED = 0xCE0A


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num:02d}: {text}")


def test_criterion_01_kernel_closed_form():
    rng = np.random.default_rng(SEED + 1)
    for n in range(2, 7):
        for _ in range(20):
            beta = float(rng.uniform(0.01, 2 * math.pi))
            expected = single_block_kernel(n, beta).matrix()
            probs = np.abs(block_unitary_expm(n, beta)) ** 2
            assert np.max(np.abs(probs - expected)) < 1e-9
        k = averaged_block_kernel(n)

        def averaged_entry(i, j):
            value, _ = quad(
                lambda b: abs(block_unitary_expm(n, b)[i, j]) ** 2 / (2 * math.pi),
                0.0, 2 * math.pi, epsabs=1e-10, limit=200,
            )
            return value

        assert abs(averaged_entry(0, 0) - (1 - 2 / n + 2 / n**2)) < 1e-8
        assert abs(averaged_entry(0, 1) - 2 / n**2) < 1e-8
        assert abs(averaged_entry(0, 0) - k.diag) < 1e-8
    _report(1, "closed-form kernels match the exponential and quadrature oracles")


def test_criterion_02_fejer_facts():
    grid = np.linspace(-math.pi, math.pi, 100_001)
    for p in range(0, 17):
        assert fejer_kernel(p, 0.0) == p + 1
        mean = simpson(fejer_kernel(p, grid), x=grid) / (2 * math.pi)
        assert abs(mean - 1.0) < 1e-8
    for p in (0, 1, 2, 8, 16, 32):
        assert np.min(fejer_kernel(p, grid)) >= -1e-12
    for p in range(1, 33):
        values = fejer_kernel(p, grid)
        for delta in (math.pi / 8, math.pi / 4, math.pi / 2, math.pi):
            mask = np.abs(grid) >= delta
            assert np.max(values[mask]) <= offpeak_bound(p, delta) + 1e-12
    _report(2, "peak, normalization, positivity, and tail bound verified")


def test_criterion_03_factorization_equality():
    rng = np.random.default_rng(SEED + 3)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        if n**m > 256:
            continue
        inst = random_instance(rng, n=n, m=m)
        gamma = float(rng.uniform(0.05, 2.5))
        env = random_envelope(rng, inst.size)
        p = int(rng.integers(0, 7))
        mass, level_of = level_mass(env, inst)
        law = filtered_distribution(mass, phase_gap(inst, gamma).offsets(), p)
        _, probs = filtered_law_per_string(law, env, level_of)
        reference = dirichlet_filter_oracle(env, inst, gamma, p)
        assert np.max(np.abs(probs - reference)) < 1e-10
        done += 1
    _report(3, "filtered law equals the operator-level filter oracle on 100 instances")


def test_criterion_04_dimension_free_success_bound():
    rng = np.random.default_rng(SEED + 4)
    done = 0
    while done < 100:
        inst = random_instance(rng, n=int(rng.integers(2, 4)), m=int(rng.integers(2, 4)))
        gamma = float(rng.uniform(0.05, 0.35))
        pm = phase_gap(inst, gamma)
        if pm.collided or not inst.gap_levels(GapScope.ALL_STRINGS).any():
            continue
        env = random_envelope(rng, inst.size)
        c_beta = envelope_mass(env, inst.optimal_indices())
        mass, _ = level_mass(env, inst)
        for p in range(0, 7):
            law = filtered_distribution(mass, pm.offsets(), p)
            q0 = success_probability(p, c_beta, law.denominator)
            assert q0 >= lattice_success_bound(p, c_beta, pm.delta) - 1e-12
            x = ratio_parameter(p, pm.delta, c_beta)
            bounds = ratio_bounds(x, c_beta)
            assert q0 >= bounds.tight - 1e-12
            assert bounds.tight >= bounds.simple - 1e-15
        done += 1
    _report(4, "exact success dominates the ratio-form bounds on 100 instances, p <= 6")


def test_criterion_05_depth_formula():
    assert depth_for_target(0.1, 0.5, math.pi / 2) == 4
    eps_grid = np.geomspace(0.005, 0.5, 20)
    c_grid = np.linspace(0.05, 1.0, 20)
    d_grid = np.linspace(0.05 * math.pi, math.pi, 20)
    for eps in eps_grid:
        for c in c_grid:
            for d in d_grid:
                p = depth_for_target(float(eps), float(c), float(d))
                assert certified_bound(p, float(c), float(d)) >= 1 - eps - 1e-12
                assert lattice_success_bound(p, float(c), float(d)) >= 1 - eps - 1e-12
    _report(5, "sufficient depth meets its target on the 20x20x20 grid; checkpoint p=4")


def test_criterion_06_shot_regimes():
    # knife-edge identities at x = 1
    assert ratio_bounds(1.0, 0.5).simple == pytest.approx(0.5)
    report = classify_regime(1.0, 1e-9)
    assert report.threshold_guarantee >= 0.5 - 1e-8
    for eps in (0.25, 0.1, 0.01):
        assert shot_budget(1.0, eps) <= 2 * math.log(1 / eps) + 1e-12

    # empirical: sampling at the prescribed budget misses the optimum in at
    # most eps + 3 sqrt(eps/1000) of 1000 seeded repetitions
    eps = 0.1
    inst = load_instance({"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
    env, omega = uniform_envelope(2, 2), inst.optimal_indices()
    mass, level_of = level_mass(env, inst)
    law = filtered_distribution(mass, phase_gap(inst, 0.4).offsets(), 2)
    _, probs = filtered_law_per_string(law, env, level_of)
    q0 = success_probability(2, envelope_mass(env, omega), law.denominator)
    shots = math.ceil(math.log(1 / eps) / q0)
    misses = 0
    for rep in range(1000):
        result = sample_shots(probs, shots, seed=SEED + rep, subset=omega)
        if result.frequency == 0.0:
            misses += 1
    assert misses / 1000 <= eps + 3 * math.sqrt(eps / 1000)
    _report(6, f"x=1 identities hold; empirical miss rate {misses / 1000:.3f} within budget")


def test_criterion_07_feasibility_machinery():
    for n in (2, 3, 4):
        for z in itertools.product(range(n), repeat=n):
            before = collision_penalty(z, n)
            if before > 0:
                assert collision_penalty(descent_step(z), n) <= before - 2
    for n in (2, 3, 4, 5):
        inst = load_instance({"n": n, "m": n, "energy": [0] * n**n})
        assert graph_connected(level_graph(inst, level_sets(inst)))

    rng = np.random.default_rng(SEED + 7)
    for n in (2, 3):
        inst = load_instance({"n": n, "m": n, "energy": [0] * n**n})
        ls = level_sets(inst)
        gamma = 0.9 * math.pi / ls.values[-1]
        sep = delta_feasible(gamma, ls)
        env = random_envelope(rng, inst.size)
        c_f = float(env.probs[inst.feasible_indices()].sum())
        for p, prefactor in ((1, 4.0), (2, 9.0)):
            weights = env.probs * fejer_kernel(p, gamma * penalty_table(inst).astype(float))
            exact = float(weights[inst.feasible_indices()].sum() / weights.sum())
            # the document's bounds.pK entry, as feasibility builds it
            x_f = ratio_parameter(p, sep.delta, c_f)
            fb = ratio_bounds(x_f, c_f)
            assert x_f == pytest.approx(prefactor * math.sin(sep.delta / 2) ** 2 * c_f)
            assert fb.simple <= fb.tight <= exact + 1e-12
            assert lattice_success_bound(p, c_f, sep.delta) <= exact + 1e-12
    assert overlap_feasibility_floor(0.5) == 49 / 64
    _report(7, "descent, connectivity, shallow feasibility bounds, and 49/64 identity hold")


def test_criterion_08_rl_averaging():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(200):
        p = int(rng.integers(0, 9))
        gamma = float(rng.uniform(0.05, 2.0))
        delta_e = float(rng.uniform(0.2, 6.0))
        w = DitherWindow(float(rng.uniform(0.05, 1.5)))
        assert abs(
            averaged_fejer(p, gamma, delta_e, w)
            - averaged_fejer_quadrature(p, gamma, delta_e, w)
        ) < 1e-6
    for p in (0, 1, 5, 9, 16):
        assert averaged_fejer(p, 0.6, 0.0, DitherWindow(0.4)) == p + 1

    g = 1.0
    for p in (1, 3, 6):
        hw = float(rng.uniform(0.3, 1.2))
        bound = averaged_offpeak_bound(p, hw, g)
        w = DitherWindow(hw)
        for delta_e in np.linspace(g, 10 * g, 40):
            gamma = float(rng.uniform(0.1, 2.0))
            value = averaged_fejer(p, gamma, float(delta_e), w)
            assert value <= bound.exact + 1e-10 <= bound.log_form + 1e-10

    checkpoint = averaged_offpeak_bound(9, 2 * math.log(10) / 1.7, 1.7)
    assert checkpoint.log_form == pytest.approx(2.0)

    checked = 0
    while checked < 15:
        inst = random_instance(rng)
        gap = energy_gap(inst)
        if not math.isfinite(gap) or gap == 0.0:
            continue
        env = random_envelope(rng, inst.size)
        omega = inst.optimal_indices()
        p = int(rng.integers(1, 5))
        hw = float(rng.uniform(0.3, 1.2))
        law = rl_filtered_distribution(
            level_mass(env, inst)[0], inst, float(rng.uniform(0.1, 1.0)), DitherWindow(hw), p,
            samples=160, seed=SEED + checked,
        )
        mbar = averaged_offpeak_bound(p, hw, gap).exact
        c_beta = float(env.probs[omega].sum())
        for bound in (averaged_bound(p, c_beta, mbar), denominator_form_bound(p, c_beta, mbar)):
            assert law.success_mass >= bound - 3 * law.success_stderr - 1e-12
        checked += 1
    _report(8, "Fourier/quadrature agreement, off-peak bounds, checkpoint 2, MC bound hold")


def test_criterion_09_order_reduction():
    for c in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        kappa = main_lobe_constant(c)
        for p in range(1, 65):
            width = c / (p + 1)
            grid = np.linspace(-width, width, 201)
            assert np.min(fejer_kernel(p, grid)) >= kappa * (p + 1) - 1e-9

    rng = np.random.default_rng(SEED + 9)
    step = 1e-4
    for n in (2, 3, 4, 5):
        v0 = random_envelope(rng, n)
        target = int(rng.integers(0, n))
        bound1 = lipschitz_envelope_bound(1, n - 1.0)
        for beta in np.linspace(0.0, 2 * math.pi, 50):
            w0 = apply_block_kernel(single_block_kernel(n, float(beta)), v0, 1).probs[target]
            w1 = apply_block_kernel(single_block_kernel(n, float(beta) + step), v0, 1).probs[target]
            assert abs(w1 - w0) <= bound1 * step + 1e-12
        bound2 = lipschitz_envelope_bound(2, n - 1.0)
        for _ in range(25):
            b1, b2 = rng.uniform(0, 2 * math.pi, size=2)

            def two_layer(d):
                env = apply_block_kernel(single_block_kernel(n, b1 + d), v0, 1)
                return apply_block_kernel(single_block_kernel(n, b2 + d), env, 1).probs[target]

            assert abs(two_layer(step) - two_layer(0.0)) <= bound2 * step + 1e-12
    _report(9, "main-lobe capture up to order 64 and envelope Lipschitz sweeps hold")


def test_criterion_10_reference_model_equivalence():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(50):
        inst = random_instance(rng)
        layers = int(rng.integers(0, 6))
        gammas = rng.uniform(0, 2, size=layers)
        betas = rng.uniform(0, 2 * math.pi, size=layers)
        v0 = random_envelope(rng, inst.size)
        reference = dephased_reference(inst, gammas, betas, v0=v0.probs)
        envelope = mixer_envelope(inst, v0, betas)
        assert np.max(np.abs(reference.probs - envelope.probs)) < 1e-12
    _report(10, "dephased diagonal equals the kernel envelope to 1e-12 on 50 schedules")


def test_criterion_11_cli_determinism(tmp_path):
    toy = tmp_path / "toy.json"
    toy.write_text(json.dumps({"n": 2, "m": 1, "energy": [0, 1]}))
    qap = tmp_path / "qap.json"
    qap.write_text(
        json.dumps({"n": 3, "m": 3,
                    "generator": {"kind": "assignment",
                                  "cost": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]}})
    )
    jobs = {
        "certify": ["certify", "--instance", str(toy), "--gamma", "2.2", "-p", "3"],
        "plan": ["plan", "-p", "4", "--c-beta", "0.3", "--delta", "1.1"],
        "curves": ["curves", "--deltas", "0.4:3.0:7", "--orders", "1,3"],
        "envelope": ["envelope", "--instance", str(qap), "--betas", "0.7,0.2"],
        "feasibility": ["feasibility", "--instance", str(qap), "--gamma", "0.45",
                        "--budget", "25", "--seed", "11"],
        "rl": ["rl", "--instance", str(qap), "--gamma", "0.4", "-p", "3",
               "--half-width", "0.6", "--samples", "30", "--seed", "5"],
        "simulate": ["simulate", "--instance", str(qap), "--gammas", "0.3,0.6",
                     "--betas", "0.5,0.5", "--shots", "100", "--seed", "2"],
    }
    for name, args in jobs.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert cli_main(args + ["-o", str(first)]) == 0
        assert cli_main(args + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    _report(11, "all seven commands re-run byte-identically")
