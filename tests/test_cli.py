import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fejercert import (
    cli,
    feasibility,
    instance,
    load_instance,
    oracle,
    ratio_bounds,
    ratio_parameter,
    rl,
)
from fejercert.cli import main
from fejercert.fejer import filtered_distribution
from fejercert.mixer import external_envelope, uniform_envelope
from fejercert.serialize import load_schema
from conftest import forbid_integer_tables, shape_document
from oracles import (
    collision_penalty_table,
    denominator_form_bound,
    feasibility_document_by_table,
    filtered_law_csv_rowwise,
    filtered_law_per_string,
    format_string,
    index_string,
    lattice_success_bound,
    penalty_table,
    phase_gap_per_string,
    rl_law_csv_rowwise,
    rl_law_per_string,
    table_index,
)


def write_instance(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_instance(tmp_path):
    return write_instance(tmp_path / "toy.json", {"n": 2, "m": 1, "energy": [0, 1]})


QAP_DOC = {"n": 3, "m": 3,
           "generator": {"kind": "assignment", "cost": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]}}


@pytest.fixture
def qap_instance(tmp_path):
    return write_instance(tmp_path / "qap.json", QAP_DOC)


def run(args):
    return main(args)


def exit_code(args):
    """Exit code of a run, whether argparse or a handler rejects the input."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestCertify:
    def test_two_string_toy(self, toy_instance, tmp_path):
        out = tmp_path / "cert.json"
        code = run([
            "certify", "--instance", toy_instance, "--gamma", str(math.pi),
            "-p", "1", "--epsilon", "0.1", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("certificate"))
        assert doc["q0_exact"] == pytest.approx(1.0)
        assert doc["q0_bound"] == pytest.approx(0.8)
        assert doc["status"] == "certified"
        assert doc["bound_satisfied"] is True

    @pytest.mark.parametrize("scope", ["all", "feasible"])
    def test_empty_feasible_set_exits_2(self, scope, tmp_path, capsys):
        inst = write_instance(tmp_path / "infeasible.json",
                              {"n": 2, "m": 1, "energy": [0, 1], "penalty": [1, 2]})
        out = tmp_path / "cert.json"
        assert run(["certify", "--instance", inst, "--gamma", "0.3", "-p", "3",
                    "--scope", scope, "-o", str(out)]) == 2
        assert not out.exists()
        assert "feasible set is empty" in capsys.readouterr().err

    def test_all_optimal_instance(self, tmp_path):
        inst = write_instance(tmp_path / "flat.json", {"n": 2, "m": 1, "energy": [3, 3]})
        out = tmp_path / "cert.json"
        assert run(["certify", "--instance", inst, "--gamma", "0.5", "-p", "2", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["q0_exact"] == pytest.approx(1.0)
        assert doc["q0_bound"] == pytest.approx(1.0)
        assert doc["delta"] == pytest.approx(math.pi)

    def test_collision_is_uncertifiable(self, tmp_path):
        inst = write_instance(tmp_path / "coll.json", {"n": 2, "m": 1, "energy": [0, 3]})
        out = tmp_path / "cert.json"
        code = run([
            "certify", "--instance", inst, "--gamma", str(2 * math.pi / 3), "-p", "2",
            "-o", str(out),
        ])
        assert code == 3
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("certificate"))
        assert doc["status"] == "uncertifiable"
        assert doc["collisions"] == ["1"]
        assert doc["shots"] is None

    def test_external_envelope(self, toy_instance, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps([0.8, 0.2]))
        out = tmp_path / "cert.json"
        code = run([
            "certify", "--instance", toy_instance, "--gamma", str(math.pi), "-p", "1",
            "--envelope", str(env_path), "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["c_beta"] == pytest.approx(0.8)
        assert doc["envelope_source"] == "external"

    def test_zero_mass_envelope_is_uncertifiable(self, tmp_path):
        """An envelope with no mass on Omega* gives q0_bound 0, which
        certifies nothing, and the run emits no Python warning."""
        inst = write_instance(tmp_path / "i.json", {"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        env = write_instance(tmp_path / "env.json", [0.5, 0, 0, 0.5])
        out = tmp_path / "cert.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["certify", "--instance", inst, "--gamma", "0.5", "-p", "2",
                        "--envelope", env, "-o", str(out)])
        doc = json.loads(out.read_text())
        assert code == 3
        assert (doc["status"], doc["c_beta"], doc["q0_bound"], doc["shots"]) == (
            "uncertifiable", 0.0, 0.0, None)

    def test_degrees_flag(self, toy_instance, tmp_path):
        out = tmp_path / "cert.json"
        run([
            "certify", "--instance", toy_instance, "--gamma", "180", "--degrees",
            "-p", "1", "-o", str(out),
        ])
        doc = json.loads(out.read_text())
        assert doc["gamma"] == pytest.approx(math.pi)
        assert doc["q0_bound"] == pytest.approx(0.8)

    def test_beta_count_mismatch_is_precondition(self, toy_instance, tmp_path):
        code = run([
            "certify", "--instance", toy_instance, "--gamma", "1.0", "-p", "2",
            "--betas", "0.4", "-o", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_cap_exceeded(self, tmp_path):
        inst = write_instance(tmp_path / "big.json", {"n": 4, "m": 8, "energy": []})
        code = run(["certify", "--instance", inst, "--gamma", "1", "-p", "1",
                    "-o", str(tmp_path / "x.json")])
        assert code == 4

    def test_cap_decided_without_forming_power(self, tmp_path, capsys):
        # 3**3000000 has over a million digits, beyond int-to-str conversion
        inst = write_instance(tmp_path / "huge.json", {"n": 3, "m": 3000000, "energy": []})
        out = tmp_path / "x.json"
        code = run(["certify", "--instance", inst, "--gamma", "1", "-p", "1", "-o", str(out)])
        assert code == 4
        assert "n**m = 3**3000000 exceeds enumeration cap 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_law_output_csv(self, toy_instance, tmp_path):
        out = tmp_path / "cert.json"
        law = tmp_path / "law.csv"
        run(["certify", "--instance", toy_instance, "--gamma", str(math.pi), "-p", "1",
             "-o", str(out), "--law-output", str(law)])
        lines = law.read_text().strip().split("\n")
        assert lines[0] == "string,phase,fejer_weight,probability"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert float(rows["0"][2]) == pytest.approx(1.0)  # probability column
        assert float(rows["1"][1]) == pytest.approx(0.0)  # F_1(pi) weight
        # re-parses: every cell is a finite float
        for cells in rows.values():
            assert all(math.isfinite(float(c)) for c in cells)

    def test_feasible_scope_with_infeasible_collision(self, tmp_path):
        # the infeasible string (0,0) ties the optimal energy, so the
        # feasible-only gap does not control the full law: the certificate
        # must report the unmet bound and exit uncertifiable
        inst = write_instance(
            tmp_path / "tie.json",
            {"n": 2, "m": 2, "energy": [0, 0, 1, 2]},
        )
        out = tmp_path / "cert.json"
        code = run(["certify", "--instance", inst, "--gamma", "0.9", "-p", "4",
                    "--scope", "feasible", "-o", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("certificate"))
        assert doc["status"] == "uncertifiable"
        assert doc["bound_satisfied"] is False
        assert doc["q0_exact"] < doc["q0_bound"]

    @pytest.mark.parametrize("relative_shortfall, satisfied", [(1e-12, True), (1e-6, False)])
    def test_bound_slack_is_relative(self, relative_shortfall, satisfied, tmp_path,
                                     monkeypatch):
        # q0_exact falls short of q0_bound by far less than 1e-9 in absolute
        # terms either way; only the relative shortfall decides
        inst = write_instance(tmp_path / "i.json", {"n": 4, "m": 1, "energy": [0, 1, 2, 3]})
        build = cli.build_certificate

        def bound_above_exact(*args, **kwargs):
            cert = build(*args, **kwargs)
            bound = cert.q0_exact / (1.0 - relative_shortfall)
            assert 0.0 < bound - cert.q0_exact < 1e-9
            return dataclasses.replace(cert, q0_bound=bound)

        monkeypatch.setattr(cli, "build_certificate", bound_above_exact)
        envelope = tmp_path / "env.json"
        envelope.write_text(json.dumps([1e-5, 0.4, 0.3, 0.29999]))
        out = tmp_path / "cert.json"
        code = run(["certify", "--instance", inst, "--gamma", "0.3", "-p", "1",
                    "--envelope", str(envelope), "-o", str(out)])
        doc = json.loads(out.read_text())
        assert doc["q0_exact"] < doc["q0_bound"] < doc["q0_exact"] + 1e-9
        assert doc["bound_satisfied"] is satisfied
        assert (code, doc["status"]) == ((0, "certified") if satisfied else (3, "uncertifiable"))

    def test_envelope_and_betas_conflict(self, toy_instance, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps([0.8, 0.2]))
        code = run(["certify", "--instance", toy_instance, "--gamma", "1.0", "-p", "1",
                    "--betas", "0.4", "--envelope", str(env_path),
                    "-o", str(tmp_path / "x.json")])
        assert code == 2


class TestCertifyWithoutPenaltyTable:
    """Under the default m = n collision penalty the feasible set is the
    permutations, so no certify run builds an n**m penalty table: no integer
    array of n**m entries comes from a numpy constructor."""

    # off-diagonal costs are positive, so the identity is the one optimum
    DOC = {"n": 4, "m": 4, "generator": {"kind": "assignment", "cost": [
        [0, 1, 2, 3], [2, 0, 1, 3], [3, 2, 0, 1], [1, 3, 2, 0]]}}

    @pytest.mark.parametrize("scope", ["all", "feasible"])
    @pytest.mark.parametrize("gamma, status", [(0.37, "certified"),
                                               (2 * math.pi / 3, "uncertifiable")])
    def test_no_penalty_table(self, scope, gamma, status, tmp_path, monkeypatch):
        path = write_instance(tmp_path / "square.json", self.DOC)
        out = tmp_path / "cert.json"
        with monkeypatch.context() as patch:
            forbid_integer_tables(patch, 4**4)
            code = run(["certify", "--instance", path, "--gamma", repr(gamma), "-p", "3",
                        "--scope", scope, "-o", str(out)])
        doc = json.loads(out.read_text())
        assert (code, doc["status"]) == ((0, status) if status == "certified" else (3, status))
        ref = phase_gap_per_string(load_instance(self.DOC), gamma,
                                   instance.GapScope.ALL_STRINGS if scope == "all"
                                   else instance.GapScope.FEASIBLE_ONLY)
        listing = [format_string(index_string(i, 4, 4)) for i in ref.colliding] or None
        assert doc["collisions"] == listing
        assert (listing is None) == (status == "certified")

    def test_c_beta_is_exact_ratio(self, tmp_path):
        """C_beta of the uniform envelope is |Omega*| / n**m, where a float
        sum of its entries would miss in the last digit."""
        path = write_instance(tmp_path / "flat.json",
                              {"n": 6, "m": 2, "energy": [0] * 6 + [1] * 30})
        out = tmp_path / "cert.json"
        assert run(["certify", "--instance", path, "--gamma", "0.37", "-p", "3",
                    "--betas", "0.4,0.9,1.3", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["c_beta"] == 6 / 36
        assert doc["c_beta"] != float(np.full(6, 1 / 36).sum())


class TestCollisionsListing:
    """The collisions listing of certify, read on the colliding levels only,
    equals the per-string scan in both scopes: for a given penalty, for the
    default m = n penalty, and with an infeasible string at E*."""

    DOCS = {
        "given": {"n": 3, "m": 3, "energy": [(5 * i) % 7 for i in range(27)],
                  "penalty": [int(i % 4 == 1) for i in range(27)]},
        "default": {"n": 4, "m": 4, "energy": [(3 * i) % 10 for i in range(256)]},
        "infeasible_at_e_star": {"n": 2, "m": 2, "energy": [0, 1, 0, 4],
                                 "penalty": [0, 1, 1, 0]},
    }

    @pytest.mark.parametrize("gamma", [0.37, 2 * math.pi / 3, math.pi / 2, 2 * math.pi / 5])
    @pytest.mark.parametrize("scope", ["all", "feasible"])
    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_matches_per_string_scan(self, name, scope, gamma, tmp_path):
        doc = self.DOCS[name]
        out = tmp_path / "cert.json"
        code = run(["certify", "--instance", write_instance(tmp_path / "inst.json", doc),
                    "--gamma", repr(gamma), "-p", "3", "--scope", scope, "-o", str(out)])
        ref = phase_gap_per_string(load_instance(doc), gamma,
                                   instance.GapScope.ALL_STRINGS if scope == "all"
                                   else instance.GapScope.FEASIBLE_ONLY)
        listing = [format_string(index_string(i, doc["n"], doc["m"])) for i in ref.colliding]
        assert json.loads(out.read_text())["collisions"] == (listing or None)
        if listing:
            assert code == 3


def _traced_peak(action) -> int:
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLevelLawWithoutLevelIndex:
    """certify with the uniform envelope and rl without --law-output read
    the energy levels alone: neither builds the per-string level index, and
    their peak memory stays at the floor that loading the instance and
    building its levels takes."""

    @pytest.mark.parametrize("scope", ["all", "feasible"])
    @pytest.mark.parametrize("gamma, status", [(0.37, "certified"),
                                               (2 * math.pi / 3, "uncertifiable")])
    def test_certify(self, scope, gamma, status, tmp_path, monkeypatch):
        path = write_instance(tmp_path / "square.json", TestCertifyWithoutPenaltyTable.DOC)
        out = tmp_path / "cert.json"
        monkeypatch.setattr(instance.Levels, "index", _unexpected)
        code = run(["certify", "--instance", path, "--gamma", repr(gamma), "-p", "3",
                    "--betas", "0.4,0.9,1.3", "--scope", scope, "-o", str(out)])
        assert (code, json.loads(out.read_text())["status"]) == (
            (0, status) if status == "certified" else (3, status))

    def test_rl(self, tmp_path, monkeypatch):
        path = write_instance(tmp_path / "square.json", TestCertifyWithoutPenaltyTable.DOC)
        out, law = tmp_path / "rl.json", tmp_path / "law.csv"
        argv = ["rl", "--instance", path, "--gamma", "0.37", "-p", "3", "--half-width", "0.2",
                "-o", str(out)]
        index, calls = instance.Levels.index, []
        monkeypatch.setattr(instance.Levels, "index",
                            lambda *args: calls.append(1) or index(*args))
        assert run(argv) == 0
        assert calls == []
        assert run(argv + ["--law-output", str(law)]) == 0
        assert calls == [1]

    @pytest.mark.parametrize("argv, n, m, code", [
        (["certify", "--gamma", "0.37", "-p", "3", "--betas", "0.4,0.9,1.3",
          "--scope", "feasible"], 6, 6, 0),
        # collided (134 strings listed): the strings are read on the colliding levels only
        (["certify", "--gamma", "0.7", "-p", "3", "--scope", "all"], 6, 6, 3),
        (["rl", "--gamma", "0.37", "-p", "3", "--half-width", "0.2", "--samples", "200",
          "--seed", "7"], 36, 3, 0),
    ], ids=["certify.6^6", "certify.collided.6^6", "rl.36^3"])
    def test_peak_at_floor(self, argv, n, m, code, tmp_path):
        path = write_instance(tmp_path / "inst.json", shape_document(n, m))
        argv = argv[:1] + ["--instance", path, "--cap", str(n**m),
                           "-o", str(tmp_path / "out.json")] + argv[1:]

        def floor():
            inst = instance.load_instance_file(path, cap=n**m)
            inst.levels, inst.feasible_levels

        assert run(argv) == code  # imports and caches warm
        assert _traced_peak(lambda: run(argv)) <= 1.1 * _traced_peak(floor)


def _law_documents():
    """The shapes of the law CSV tests: one string, one block, an odd m,
    the benchmark's 4^4 and 6^6, and a dense 3^3 whose level span (up to
    40000) is past its 27 strings, so that ``Levels.index`` searches."""
    return {
        "1^1": {"n": 1, "m": 1, "energy": [0]},
        "2^1": {"n": 2, "m": 1, "energy": [0, 1]},
        "3^5": shape_document(3, 5),
        "4^4": shape_document(4, 4),
        "6^6": shape_document(6, 6),
        "wide.3^3": {"n": 3, "m": 3, "energy": np.random.default_rng(5).choice(
            40000, 27, replace=False).tolist()},
    }


LAW_DOCUMENTS = _law_documents()


class TestLawOutputByLevel:
    """The law CSVs, written by level, against the row-wise writers of
    ``tests/oracles.py`` fed the law gathered to the strings as floats by
    the per-string references: byte for byte."""

    @staticmethod
    def _paths(tmp_path, doc):
        inst = load_instance(doc, cap=46656)
        return inst, write_instance(tmp_path / "inst.json", doc), tmp_path / "law.csv"

    @pytest.mark.parametrize("scope", ["all", "feasible"])
    @pytest.mark.parametrize("source", ["reference_uniform", "external"])
    @pytest.mark.parametrize("shape", sorted(LAW_DOCUMENTS))
    def test_certify(self, shape, source, scope, tmp_path):
        inst, path, law_csv = self._paths(tmp_path, LAW_DOCUMENTS[shape])
        argv = ["certify", "--instance", path, "--gamma", "0.37", "-p", "3", "--scope", scope,
                "--cap", "46656", "-o", str(tmp_path / "cert.json"), "--law-output", str(law_csv)]
        level_of = table_index(inst.energy).of_string
        if source == "external":
            probs = np.random.default_rng(inst.size).random(inst.size)
            env = external_envelope(probs / probs.sum())
            (tmp_path / "env.json").write_text(json.dumps(env.probs.tolist()))
            argv += ["--envelope", str(tmp_path / "env.json")]
            mass = np.bincount(level_of, weights=env.probs)
        else:
            env, mass = uniform_envelope(inst.n, inst.m), inst.levels.shares()
            argv += ["--betas", "0.4,0.9,1.3"]
        assert run(argv) in (0, 3)
        pm = instance.phase_gap(inst, 0.37, instance.GapScope(
            "all_strings" if scope == "all" else "feasible_only"))
        law = filtered_distribution(mass, pm.offsets(), 3)
        weight, probs = filtered_law_per_string(law, env, level_of)
        assert law_csv.read_text() == filtered_law_csv_rowwise(
            probs, pm.level_theta[level_of], weight, inst.n, inst.m)
        assert json.loads((tmp_path / "cert.json").read_text())["envelope_source"] == source

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("shape", sorted(LAW_DOCUMENTS))
    def test_rl(self, shape, pooled, tmp_path):
        doc = LAW_DOCUMENTS[shape]
        if doc["n"] == doc["m"] > 1:  # a given all-zero penalty: no infeasible string sits at E*
            doc = {**doc, "penalty": [0] * doc["n"] ** doc["m"]}
        inst, path, law_csv = self._paths(tmp_path, doc)
        assert run(["rl", "--instance", path, "--gamma", "0.37", "-p", "3", "--half-width", "0.2",
                    "--samples", "30", "--seed", "7", "--cap", "46656",
                    "-o", str(tmp_path / "rl.json"), "--law-output", str(law_csv)]
                   + (["--pooled"] if pooled else [])) == 0
        law = rl.rl_filtered_distribution(inst.levels.shares(), inst, 0.37, rl.DitherWindow(0.2),
                                          3, samples=30, seed=7, pooled=pooled)
        probs, stderr = rl_law_per_string(law, uniform_envelope(inst.n, inst.m),
                                          table_index(inst.energy).of_string)
        assert law_csv.read_text() == rl_law_csv_rowwise(probs, stderr, inst.n, inst.m)

    def test_wide_instance_takes_the_search_route(self, monkeypatch):
        inst = load_instance(LAW_DOCUMENTS["wide.3^3"])
        search, calls = np.searchsorted, []
        monkeypatch.setattr(np, "searchsorted", lambda *a: calls.append(1) or search(*a))
        inst.levels.index(inst.energy)
        assert calls == [1]

    @pytest.mark.parametrize("scope", ["all", "feasible"])
    def test_uniform_certify_peak_within_two_and_a_half_csvs(self, scope, tmp_path):
        """The uniform law at 6^6 holds no float array over the strings: the
        peak of the whole command stays within 2.5 times the CSV's length
        (3.7 times when the law was gathered to the strings as floats)."""
        path = write_instance(tmp_path / "inst.json", shape_document(6, 6))
        law_csv = tmp_path / "law.csv"
        argv = ["certify", "--instance", path, "--gamma", "0.37", "-p", "3", "--betas",
                "0.4,0.9,1.3", "--scope", scope, "--cap", "46656",
                "-o", str(tmp_path / "cert.json"), "--law-output", str(law_csv)]
        code = run(argv)  # imports and caches warm
        assert code in (0, 3)
        assert _traced_peak(lambda: run(argv)) <= 2.5 * len(law_csv.read_text())


class TestPlanAndCurves:
    def test_plan_document(self, tmp_path):
        out = tmp_path / "plan.json"
        assert run(["plan", "-p", "3", "--c-beta", "0.4", "--delta", "0.8",
                    "--epsilon", "0.1", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("certificate"))
        assert doc["status"] == "planned"
        assert doc["x"] == pytest.approx(16 * math.sin(0.4) ** 2 * 0.4)

    def test_curves_checkpoint_and_format(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(["curves", "--deltas", f"1.0,{math.pi},0.5", "--orders", "2,1",
                    "--epsilon", "0.1", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "delta,p,epsilon,c_min"
        rows = [line.split(",") for line in lines[1:]]
        # sorted by (p, delta)
        keys = [(int(r[1]), float(r[0])) for r in rows]
        assert keys == sorted(keys)
        # the (pi, p=2, 0.1) checkpoint has c_min = 0.5
        target = [r for r in rows if int(r[1]) == 2 and abs(float(r[0]) - math.pi) < 1e-12]
        assert float(target[0][3]) == pytest.approx(0.5)

    def test_cmin_strictly_decreasing_in_delta(self, tmp_path):
        out = tmp_path / "curves.csv"
        run(["curves", "--deltas", "0.3:3.1:25", "--orders", "4", "-o", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        values = [float(r[3]) for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("args", [
        ["plan", "-p", "2", "--c-beta", "0.3", "--delta", "1.0"],
        ["curves", "--deltas", "0.5", "--orders", "1"],
    ])
    def test_no_cap_option(self, args, tmp_path):
        out = tmp_path / "out"
        assert exit_code(args + ["--cap", "5", "-o", str(out)]) == 2
        assert not out.exists()

    def test_empty_grid_rejected(self, tmp_path):
        assert run(["curves", "--deltas", "", "--orders", "1",
                    "-o", str(tmp_path / "x.csv")]) == 2


class TestEnvelopeCommand:
    def test_json_array(self, qap_instance, tmp_path):
        out = tmp_path / "env.json"
        assert run(["envelope", "--instance", qap_instance, "--betas", "0.4,0.9",
                    "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 27
        assert sum(data) == pytest.approx(1.0)

    def test_csv_format(self, qap_instance, tmp_path):
        out = tmp_path / "env.csv"
        run(["envelope", "--instance", qap_instance, "--betas", "0.4", "--format", "csv",
             "-o", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "string,probability"
        assert len(lines) == 28
        assert lines[1].startswith("0-0-0,")

    def test_external_v0(self, tmp_path):
        inst = write_instance(tmp_path / "i.json", {"n": 2, "m": 1, "energy": [0, 1]})
        v0 = tmp_path / "v0.json"
        v0.write_text(json.dumps([0.9, 0.1]))
        out = tmp_path / "env.json"
        run(["envelope", "--instance", inst, "--v0", str(v0), "-o", str(out)])
        assert json.loads(out.read_text()) == [0.9, 0.1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n,m", [(4, 4), (6, 6)])
    def test_all_equal_v0_writes_the_default_bytes(self, n, m, fmt, tmp_path):
        """An external start of equal entries is the uniform start: the
        document is the default start's, byte for byte."""
        argv = ["envelope", "--instance", write_instance(tmp_path / "i.json", shape_document(n, m)),
                "--betas", "0.4,0.9", "--format", fmt, "--cap", "46656"]
        v0 = write_instance(tmp_path / "v0.json", [1 / n**m] * n**m)
        assert run(argv + ["-o", str(tmp_path / "default")]) == 0
        assert run(argv + ["--v0", v0, "-o", str(tmp_path / "v0")]) == 0
        assert (tmp_path / "v0").read_bytes() == (tmp_path / "default").read_bytes()

    def test_uniform_csv_peak_within_two_and_a_half_csvs(self, tmp_path):
        """The default start at 6^6: the peak of the whole command stays
        within 2.5 times the CSV's length."""
        out = tmp_path / "env.csv"
        argv = ["envelope", "--instance", write_instance(tmp_path / "i.json", shape_document(6, 6)),
                "--betas", "0.4,0.9", "--format", "csv", "--cap", "46656", "-o", str(out)]
        assert run(argv) == 0  # imports and caches warm
        assert _traced_peak(lambda: run(argv)) <= 2.5 * len(out.read_text())

    def test_parser_reuse_keeps_bytes(self, qap_instance, tmp_path, capsys):
        """main builds its parser once per process; runs in one process,
        after a run with --betas and after a parse error, write what a fresh
        process writes."""
        with_betas = ["envelope", "--instance", qap_instance, "--betas", "0.4,0.9"]
        plain = ["envelope", "--instance", qap_instance, "--format", "csv"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        fresh = []
        for k, argv in enumerate((with_betas, plain)):
            out = tmp_path / f"fresh{k}"
            subprocess.run([sys.executable, "-m", "fejercert", *argv, "-o", str(out)],
                           env=env, check=True)
            fresh.append(out.read_bytes())

        def in_process(argv, name):
            out = tmp_path / name
            assert main(argv + ["-o", str(out)]) == 0
            return out.read_bytes()

        assert in_process(with_betas, "a") == fresh[0]
        assert in_process(plain, "b") == fresh[1]
        with pytest.raises(SystemExit):
            main(plain + ["--betas", "x", "-o", str(tmp_path / "bad")])
        capsys.readouterr()
        assert in_process(plain, "c") == fresh[1]
        assert in_process(with_betas, "d") == fresh[0]


class TestFeasibilityCommand:
    def test_report_schema_and_values(self, qap_instance, tmp_path):
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", qap_instance, "--gamma", "0.5",
                    "--budget", "40", "--seed", "3", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("feasibility_report"))
        assert doc["levels"] == {"0": 6, "2": 18, "6": 3}
        assert doc["connected"] is True
        assert doc["delta_f"] == pytest.approx(1.0)
        assert doc["c_f"] == pytest.approx(6 / 27)
        assert doc["search"]["pi_f"] >= 6 / 27 - 1e-12

    def test_bounds_are_the_ratio_form(self, qap_instance, tmp_path):
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", qap_instance, "--gamma", "0.5", "--no-search",
                    "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        for p in (1, 2):
            x = ratio_parameter(p, doc["delta_f"], doc["c_f"])
            assert doc["bounds"][f"p{p}"] == {"x_f": x, **ratio_bounds(x, doc["c_f"])._asdict()}
            assert doc["bounds"][f"p{p}"]["tight"] == pytest.approx(
                lattice_success_bound(p, doc["c_f"], doc["delta_f"]), abs=1e-12)

    def test_no_search(self, qap_instance, tmp_path):
        out = tmp_path / "feas.json"
        run(["feasibility", "--instance", qap_instance, "--gamma", "0.5", "--no-search",
             "-o", str(out)])
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("feasibility_report"))
        assert doc["search"] is None

    def test_search_honours_cap(self, tmp_path):
        inst = write_instance(
            tmp_path / "six.json",
            {"n": 6, "m": 6, "generator": {"kind": "assignment", "cost": [[0] * 6] * 6}},
        )
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", inst, "--gamma", "0.2", "--cap", "46656",
                    "--search-order", "1", "--budget", "3", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["search"]["evaluations"] == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_c_f_is_exact_ratio(self, n, tmp_path):
        # the value n!/n**n had before it became an int/int division
        inst = write_instance(tmp_path / "i.json", TestFeasibilityRoute.square_doc(n))
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", inst, "--gamma", "0.1", "--no-search",
                    "-o", str(out)]) == 0
        assert json.loads(out.read_text())["c_f"] == float(math.factorial(n)) / n**n

    def test_sixteen_blocks_without_cap(self, tmp_path):
        rng = np.random.default_rng(1616)
        doc = {"n": 16, "m": 16,
               "generator": {"kind": "assignment", "cost": rng.integers(0, 10, (16, 16)).tolist()}}
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                    "--gamma", "0.1", "--seed", "7", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sum(report["levels"].values()) == 16**16
        assert report["c_f"] == math.factorial(16) / 16**16
        assert report["search"]["evaluations"] <= 200
        assert report["search"]["pi_f"] >= math.factorial(16) / 16**16 - 1e-12

    def test_penalty_phase_collision_exit(self, qap_instance, tmp_path):
        out = tmp_path / "feas.json"
        code = run(["feasibility", "--instance", qap_instance, "--gamma", str(math.pi),
                    "--no-search", "-o", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["collided"] is True and doc["bounds"] is None


def _unexpected(*args, **kwargs):
    raise AssertionError("called on the other feasibility path")


class TestFeasibilityRoute:
    """The default collision penalty runs the feasibility stage in the orbit
    sector, a penalty given in the document on the statevector; the two
    documents differ only by rounding in pi_f."""

    ARGV = ["feasibility", "--gamma", "0.1", "--search-order", "2", "--budget", "200",
            "--seed", "7"]

    @staticmethod
    def square_doc(n):
        cost = [[(3 * i + 5 * j) % 7 for j in range(n)] for i in range(n)]
        return {"n": n, "m": n, "generator": {"kind": "assignment", "cost": cost}}

    def run_without(self, monkeypatch, names, path, out, table=None):
        """Run with ``names`` patched to fail, and with no integer array of
        ``table`` entries from a numpy constructor when ``table`` is given."""
        with monkeypatch.context() as patch:
            for module, name in names:
                patch.setattr(module, name, _unexpected)
            if table is not None:
                forbid_integer_tables(patch, table)
            assert run(self.ARGV + ["--instance", path, "-o", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sector_matches_statevector(self, n, tmp_path, monkeypatch):
        doc = self.square_doc(n)
        default = write_instance(tmp_path / "default.json", doc)
        explicit = write_instance(tmp_path / "explicit.json",
                                  {**doc, "penalty": collision_penalty_table(n, n).tolist()})
        # the sector run forms no n**m table and runs no statevector
        sector = self.run_without(monkeypatch, [(oracle, "simulate"),
                                                (feasibility, "_relabel_pairs")],
                                  default, tmp_path / "sector.json", table=n**n)
        statevector = self.run_without(monkeypatch, [(instance, "invariant_sector_basis")],
                                       explicit, tmp_path / "statevector.json")
        sector_pi_f = sector["search"].pop("pi_f")
        statevector_pi_f = statevector["search"].pop("pi_f")
        assert sector == statevector
        assert abs(sector_pi_f - statevector_pi_f) <= 1e-12

    @pytest.mark.parametrize("args", [
        ["--gamma", "nan", "--no-search"],
        ["--gamma", "1e308", "--no-search"],
        ["--gamma", "1e308"],
        ["--gamma", "0.5", "--search-order", "9007199254740993"],
        ["--gamma", "0.5", "--budget", "0"],
    ], ids=["nan_angle", "penalty_phase_overflow", "overflow_with_search", "search_order",
            "budget"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["sector", "statevector"])
    def test_fail_closed_on_both_paths(self, args, explicit, tmp_path):
        doc = self.square_doc(3)
        if explicit:
            doc["penalty"] = collision_penalty_table(3, 3).tolist()
        out = tmp_path / "feas.json"
        # a RuntimeWarning is an error under the test configuration
        assert exit_code(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                          *args, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("search", [True, False])
    def test_one_sector_build_per_run(self, search, tmp_path, monkeypatch):
        # the level stage and the search share one basis and one pair count
        calls = {"basis": 0, "pairs": 0}

        def counting(fn, key):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted

        pair_counts = instance.SectorBasis.pair_counts  # a cached_property
        monkeypatch.setattr(instance, "invariant_sector_basis",
                            counting(instance.invariant_sector_basis, "basis"))
        monkeypatch.setattr(pair_counts, "func", counting(pair_counts.func, "pairs"))
        argv = self.ARGV + ([] if search else ["--no-search"])
        inst = write_instance(tmp_path / "i.json", self.square_doc(5))
        assert run(argv + ["--instance", inst, "-o", str(tmp_path / "feas.json")]) == 0
        assert calls == {"basis": 1, "pairs": 1}

    def test_one_penalty_index_per_run(self, tmp_path, monkeypatch):
        # the level graph and the statevector search read one index of the given table
        calls = []
        index = instance.Levels.index
        monkeypatch.setattr(instance.Levels, "index",
                            lambda ls, table: calls.append(1) or index(ls, table))
        doc = {**self.square_doc(3), "penalty": collision_penalty_table(3, 3).tolist()}
        assert run(self.ARGV + ["--instance", write_instance(tmp_path / "i.json", doc),
                                "-o", str(tmp_path / "feas.json")]) == 0
        assert len(calls) == 1

    def test_other_user_penalty_uses_statevector(self, tmp_path, monkeypatch):
        doc = {**self.square_doc(3), "penalty": (2 * collision_penalty_table(3, 3)).tolist()}
        report = self.run_without(monkeypatch, [(instance, "invariant_sector_basis")],
                                  write_instance(tmp_path / "user.json", doc),
                                  tmp_path / "feas.json")
        assert report["levels"] == {"0": 6, "4": 18, "12": 3}
        assert report["search"]["pi_f"] >= 6 / 27 - 1e-12


SIX = {"n": 6, "m": 6, "generator": {"kind": "assignment",
                                      "cost": [[(i * j) % 7 for j in range(6)] for i in range(6)]}}


class TestCapOnEveryPath:
    """--cap bounds the largest table a path allocates: n**m on the dense
    paths, the orbit-sector dimension on the m = n default-penalty
    feasibility path, and none under the m != n default penalty.  A 6x6
    instance (46656 strings) under the default cap of 4096."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--gamma", "0.3", "-p", "2"],
        ["certify", "--gamma", "0.3", "-p", "2", "--law-output", "LAW"],
        ["certify", "--gamma", "0.3", "-p", "2", "--envelope", "ENV"],
        ["rl", "--gamma", "0.3", "-p", "2", "--half-width", "0.2", "--samples", "5"],
        ["envelope", "--betas", "0.4"],
        ["envelope", "--v0", "ENV"],
        ["simulate", "--gammas", "0.3", "--betas", "0.5"],
        ["simulate", "--gammas", "", "--betas", "", "--shots", "10"],
    ], ids=["certify", "certify_law", "certify_envelope", "rl", "envelope", "envelope_v0",
            "simulate", "simulate_no_layers"])
    def test_dense_paths_exit_4_without_output(self, argv, tmp_path, capsys):
        uniform = write_instance(tmp_path / "env.json", [1 / 6**6] * 6**6)
        names = {"LAW": str(tmp_path / "law.csv"), "ENV": uniform}
        argv = [names.get(a, a) for a in argv]
        out = tmp_path / "out.json"
        assert run(argv[:1] + ["--instance", write_instance(tmp_path / "six.json", SIX)]
                   + argv[1:] + ["-o", str(out)]) == 4
        assert "n**m = 6**6 exceeds enumeration cap 4096" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env.json", "six.json"]

    @pytest.mark.parametrize("doc, code", [
        ({**SIX, "penalty": [0] * 6**6}, 4),
        # the m != n default penalty is one level, read without a table
        ({"n": 6, "m": 7, "generator": {"kind": "assignment", "cost": [[0] * 6] * 7}}, 0),
    ], ids=["document_penalty", "non_square"])
    @pytest.mark.parametrize("search", [[], ["--no-search"]], ids=["search", "no_search"])
    def test_dense_feasibility_exits_4(self, doc, code, search, tmp_path, capsys):
        """A penalty table in the document exits 4 past the cap; the m != n
        default penalty has no table, so it runs."""
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                    "--gamma", "0.1", *search, "-o", str(out)]) == code
        if code == 4:
            assert "exceeds enumeration cap 4096" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert json.loads(out.read_text())["levels"] == {"0": 6**7}

    def test_default_penalty_feasibility_runs_past_cap(self, tmp_path):
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", write_instance(tmp_path / "six.json", SIX),
                    "--gamma", "0.1", "--no-search", "-o", str(out)]) == 0
        assert sum(json.loads(out.read_text())["levels"].values()) == 6**6

    @pytest.mark.parametrize("cap,code", [(76, 4), (77, 0)])
    @pytest.mark.parametrize("search", [[], ["--no-search"]], ids=["search", "no_search"])
    def test_sector_dimension_bounded_by_cap(self, cap, code, search, tmp_path, capsys):
        # 12x12 has 77 orbits, the partitions of 12
        doc = {"n": 12, "m": 12, "generator": {"kind": "assignment", "cost": [[0] * 12] * 12}}
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                    "--gamma", "0.1", "--budget", "20", *search, "--cap", str(cap),
                    "-o", str(out)]) == code
        if code == 4:
            assert "sector dimension" in capsys.readouterr().err
            assert not out.exists()


def _generator_doc(n, m, **extra):
    rng = np.random.default_rng([32, n, m])
    return {"n": n, "m": m, **extra,
            "generator": {"kind": "assignment", "cost": rng.integers(0, 10, (m, n)).tolist()}}


class TestSpectrumFixesFeasibility:
    """Where L_0 holds every string (the m != n default penalty, or a given
    all-zero one) or no string (a given penalty without a zero), the circuit
    keeps pi_F = c_F at every schedule: the document reads the spectrum and
    equals the one read from the dense table, with no search evaluation."""

    CASES = [pytest.param(_generator_doc(n, m), id=f"default_{n}x{m}")
             for n, m in [(3, 1), (2, 3), (3, 2), (7, 2), (10, 3), (16, 3)]] + [
        pytest.param(_generator_doc(3, 3, penalty=[0] * 27), id="all_zero_3x3"),
        pytest.param(_generator_doc(3, 2, penalty=[0] * 9), id="all_zero_3x2"),
        pytest.param(_generator_doc(2, 3, penalty=[1 + i % 3 for i in range(8)]),
                     id="no_zero_2x3"),
        pytest.param(_generator_doc(3, 3, penalty=[2 + (i * i) % 5 for i in range(27)]),
                     id="no_zero_3x3"),
    ]

    # at pi the no-zero penalties collide at level 2 and alias
    @pytest.mark.parametrize("gamma", [0.1, math.pi], ids=["gamma0.1", "gamma_pi"])
    @pytest.mark.parametrize("doc", CASES)
    def test_document_matches_dense_table(self, doc, gamma, tmp_path, monkeypatch):
        expected = feasibility_document_by_table(load_instance(doc), gamma, 2, 7)
        out = tmp_path / "feas.json"
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "simulate", _unexpected)
            if len(expected["levels"]) == 1:  # a single level has no edge to scan for
                patch.setattr(feasibility, "_relabel_pairs", _unexpected)
            code = run(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                        "--gamma", repr(gamma), "--seed", "7", "-o", str(out)])
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema("feasibility_report"))
        assert code == (3 if expected["collided"] else 0)
        assert report["search"].pop("evaluations") == 0
        assert expected["search"].pop("evaluations") is None
        assert abs(report["search"].pop("pi_f") - expected["search"].pop("pi_f")) <= 1e-12
        assert report == expected

    @pytest.mark.parametrize("doc", CASES)
    def test_any_schedule_keeps_c_f(self, doc):
        """The reason no search runs: pi_F on the statevector equals c_F at
        random schedules."""
        inst = load_instance(doc)
        table = penalty_table(inst)
        feasible = np.flatnonzero(table == 0)
        rng = np.random.default_rng(inst.size)
        for _ in range(3):
            gammas, betas = rng.uniform(0.0, 3.0, size=2), rng.uniform(0.0, 6.0, size=2)
            state = oracle.simulate(inst, gammas, betas, cost_table=table_index(table))
            assert abs(oracle.projector_mass(state, feasible) - feasible.size / inst.size) <= 1e-12

    def test_ten_by_six_without_table(self, tmp_path):
        """10**6 strings under the default cap of 4096, in well under 1 MB."""
        path = write_instance(tmp_path / "i.json", _generator_doc(10, 6))
        out = tmp_path / "feas.json"
        tracemalloc.start()
        try:
            code = run(["feasibility", "--instance", path, "--gamma", "0.1", "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(out.read_text())
        assert code == 0 and peak < 2**20
        assert report["levels"] == {"0": 10**6}
        assert report["graph"] == {"vertices": [0], "edges": []}
        assert (report["delta_f"], report["c_f"]) == (math.pi, 1.0)
        assert report["search"] == {"gammas": [0.0, 0.0], "betas": [0.0, 0.0], "pi_f": 1.0,
                                    "evaluations": 0, "seed": 0}

    def test_no_zero_six_by_six_runs_no_statevector(self, tmp_path, monkeypatch):
        doc = {**SIX, "penalty": [1 + i % 4 for i in range(6**6)]}
        out = tmp_path / "feas.json"
        monkeypatch.setattr(oracle, "simulate", _unexpected)
        assert run(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                    "--gamma", "0.1", "--cap", str(6**6), "-o", str(out)]) == 0
        search = json.loads(out.read_text())["search"]
        assert (search["pi_f"], search["evaluations"]) == (0.0, 0)

    @pytest.mark.parametrize("search", [[], ["--no-search"]], ids=["search", "no_search"])
    def test_count_past_int_str_limit_exits_2(self, search, tmp_path, capsys):
        """10**5000 strings: the count has 5001 digits, past the limit of
        Python's int-to-str conversion, so the document cannot be written."""
        doc = {"n": 10, "m": 5000, "generator": {"kind": "assignment", "cost": [[0] * 10] * 5000}}
        out = tmp_path / "feas.json"
        assert run(["feasibility", "--instance", write_instance(tmp_path / "i.json", doc),
                    "--gamma", "0.1", *search, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "`levels` count" in err and "5001 digits" in err
        assert "sys." not in err
        assert not out.exists()


class TestSeedRule:
    @pytest.mark.parametrize("seed", ["-3", str(2**63)])
    @pytest.mark.parametrize("argv", [
        ["feasibility", "--gamma", "0.5", "--search-order", "0"],
        ["feasibility", "--gamma", "0.5", "--search-order", "1"],
        ["feasibility", "--gamma", "0.5", "--no-search"],
        ["rl", "--gamma", "0.5", "-p", "2", "--half-width", "0.2", "--samples", "5"],
        ["simulate", "--gammas", "0.3", "--betas", "0.5", "--shots", "10"],
        ["simulate", "--gammas", "0.3", "--betas", "0.5"],
    ], ids=["feasibility_order0", "feasibility_order1", "feasibility_nosearch", "rl",
            "simulate_shots", "simulate"])
    def test_out_of_range_seed_exits_2(self, argv, seed, qap_instance, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run(argv[:1] + ["--instance", qap_instance] + argv[1:]
                   + ["--seed", seed, "-o", str(out)]) == 2
        assert f"--seed {seed} must lie in [0, 2**63)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, qap_instance, tmp_path):
        out = tmp_path / "out.json"
        assert run(["feasibility", "--instance", qap_instance, "--gamma", "0.5", "--budget", "10",
                    "--seed", str(2**63 - 1), "-o", str(out)]) == 0


class TestRLCommand:
    def test_report_schema(self, qap_instance, tmp_path):
        out = tmp_path / "rl.json"
        law = tmp_path / "law.csv"
        assert run(["rl", "--instance", qap_instance, "--gamma", "0.4", "-p", "4",
                    "--half-width", "0.8", "--samples", "40", "--seed", "1",
                    "-o", str(out), "--law-output", str(law)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("rl_report"))
        assert doc["success_mass"] >= doc["bound"] - 3 * (doc["success_stderr"] or 0.0)
        lines = law.read_text().strip().split("\n")
        assert lines[0] == "string,probability,stderr"
        assert len(lines) == 28

    def test_bound_is_the_ratio_form(self, qap_instance, tmp_path):
        # x = (p+1) C / Mbar in the ratio form, against the denominator form
        out = tmp_path / "rl.json"
        assert run(["rl", "--instance", qap_instance, "--gamma", "0.4", "-p", "4",
                    "--half-width", "0.8", "--samples", "4", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        inst = load_instance(QAP_DOC)
        c_beta = inst.optimal_indices().size / inst.size
        assert doc["bound"] == ratio_bounds(5 * c_beta / doc["mbar_exact"], c_beta).tight
        assert doc["bound"] == pytest.approx(denominator_form_bound(4, c_beta, doc["mbar_exact"]),
                                             rel=1e-14)

    def test_single_draw_fails_closed(self, qap_instance, tmp_path, capsys):
        # one unpooled draw has no standard error, which is not written as 0.0
        out = tmp_path / "rl.json"
        argv = ["rl", "--instance", qap_instance, "--gamma", "0.4", "-p", "4",
                "--half-width", "0.8", "--samples", "1", "-o", str(out)]
        assert run(argv) == 2
        assert "--samples 1" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv + ["--pooled"]) == 0
        assert json.loads(out.read_text())["success_stderr"] is None

    def test_pooled_law_has_no_stderr_column(self, qap_instance, tmp_path):
        # the pooled law has no standard error, in the document or the CSV
        out, law = tmp_path / "rl.json", tmp_path / "law.csv"
        assert run(["rl", "--instance", qap_instance, "--gamma", "0.4", "-p", "4",
                    "--half-width", "0.8", "--samples", "20", "--pooled",
                    "-o", str(out), "--law-output", str(law)]) == 0
        assert json.loads(out.read_text())["success_stderr"] is None
        lines = law.read_text().strip().split("\n")
        assert lines[0] == "string,probability"
        assert len(lines) == 28 and all(line.count(",") == 1 for line in lines)
        assert sum(float(line.split(",")[1]) for line in lines[1:]) == pytest.approx(1.0)

    def test_all_optimal_writes_null_gap(self, tmp_path):
        # no string is non-optimal: the energy gap g is infinite, so null
        path = write_instance(tmp_path / "flat.json", {"n": 2, "m": 1, "energy": [0, 0]})
        out = tmp_path / "rl.json"
        assert run(["rl", "--instance", path, "--gamma", "0.4", "-p", "3",
                    "--half-width", "0.2", "--samples", "5", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("rl_report"))
        assert (doc["g"], doc["bound"], doc["success_mass"]) == (None, 1.0, 1.0)

    def test_nan_success_mass_exits_2(self, qap_instance, tmp_path, monkeypatch, capsys):
        # a NaN mass is neither clamped into [0, 1] nor written, and the
        # message names the field
        law_of = rl.rl_filtered_distribution
        monkeypatch.setattr(rl, "rl_filtered_distribution", lambda *a, **k: dataclasses.replace(
            law_of(*a, **k), success_mass=math.nan))
        out = tmp_path / "rl.json"
        assert run(["rl", "--instance", qap_instance, "--gamma", "0.4", "-p", "3",
                    "--half-width", "0.2", "--samples", "5", "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: document field success_mass is nan, not finite\n"

    def test_zero_gap_names_the_cause(self, tmp_path, capsys):
        # the infeasible string 0-0 sits at E* = 0, beside the optimum 0-1
        path = write_instance(tmp_path / "shared.json", {"n": 2, "m": 2, "energy": [0, 5, 0, 7]})
        out = tmp_path / "rl.json"
        assert run(["rl", "--instance", path, "--gamma", "0.4", "-p", "3",
                    "--half-width", "0.2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "zero energy gap" in err and "E* = 0" in err
        assert "a string outside the optimal set Omega*" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_document_fields(self, qap_instance, tmp_path):
        out = tmp_path / "sim.json"
        assert run(["simulate", "--instance", qap_instance, "--gammas", "0.3,0.6",
                    "--betas", "0.5,0.5", "--shots", "500", "--seed", "2",
                    "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["success_probability"] <= 1.0
        assert 0.0 <= doc["feasibility_probability"] <= 1.0
        assert sum(doc["counts"].values()) == 500
        assert doc["success_ci"][0] <= doc["success_frequency"] <= doc["success_ci"][1]

    @pytest.mark.parametrize("doc", [
        QAP_DOC,
        {"n": 4, "m": 3, "energy": list(range(64))},
        {"n": 12, "m": 2, "energy": [(7 * i) % 11 for i in range(144)]},
    ], ids=["3x3", "4^3", "12^2"])
    def test_counts_labelled_by_index_string(self, doc, tmp_path):
        path = write_instance(tmp_path / "inst.json", doc)
        out = tmp_path / "sim.json"
        assert run(["simulate", "--instance", path, "--gammas", "0.3,0.6",
                    "--betas", "0.5,0.5", "--shots", "3000", "--seed", "4",
                    "-o", str(out)]) == 0
        inst = load_instance(doc)
        state = oracle.simulate(inst, [0.3, 0.6], [0.5, 0.5])
        report = oracle.sample_shots(state.probabilities(), 3000, 4, inst.optimal_indices())
        expected = {format_string(index_string(i, inst.n, inst.m)): int(c)
                    for i, c in enumerate(report.counts) if c}
        assert json.loads(out.read_text())["counts"] == expected

    def test_zero_hits_interval_has_width(self, tmp_path):
        rng = np.random.default_rng(1)
        cost = rng.integers(0, 10, size=(6, 6)).tolist()
        path = write_instance(tmp_path / "inst.json",
                              {"n": 6, "m": 6, "generator": {"kind": "assignment", "cost": cost}})
        out = tmp_path / "sim.json"
        assert run(["simulate", "--instance", path, "--gammas", "0.3", "--betas", "0.5",
                    "--shots", "50", "--seed", "1", "--cap", "46656", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["success_frequency"] == 0.0
        assert doc["success_ci"][0] == 0.0
        assert doc["success_ci"][1] == pytest.approx(0.0713, abs=5e-5)

    def test_without_shots_no_counts(self, qap_instance, tmp_path):
        out = tmp_path / "sim.json"
        run(["simulate", "--instance", qap_instance, "--gammas", "0.3",
             "--betas", "0.5", "-o", str(out)])
        doc = json.loads(out.read_text())
        assert "counts" not in doc

    def test_schedule_mismatch_precondition(self, qap_instance, tmp_path):
        assert run(["simulate", "--instance", qap_instance, "--gammas", "0.3",
                    "--betas", "0.5,0.6", "-o", str(tmp_path / "x.json")]) == 2


class TestInstanceSchema:
    def test_documents_validate(self):
        schema = load_schema("instance")
        jsonschema.validate({"n": 2, "m": 1, "energy": [0, 1]}, schema)
        jsonschema.validate(
            {"n": 2, "m": 2, "generator": {"kind": "assignment", "cost": [[0, 1], [1, 0]]},
             "lattice_scale": 2.0},
            schema,
        )
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"n": 2, "m": 1}, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(
                {"n": 2, "m": 1, "energy": [0, 1], "generator": {"kind": "assignment", "cost": []}},
                schema,
            )


class TestDeterminism:
    def test_all_commands_byte_identical(self, toy_instance, qap_instance, tmp_path):
        jobs = {
            "certify": ["certify", "--instance", toy_instance, "--gamma", "2.2", "-p", "3"],
            "plan": ["plan", "-p", "4", "--c-beta", "0.3", "--delta", "1.1"],
            "curves": ["curves", "--deltas", "0.4:3.0:7", "--orders", "1,3"],
            "envelope": ["envelope", "--instance", qap_instance, "--betas", "0.7,0.2"],
            "feasibility": ["feasibility", "--instance", qap_instance, "--gamma", "0.45",
                            "--budget", "25", "--seed", "11"],
            "rl": ["rl", "--instance", qap_instance, "--gamma", "0.4", "-p", "3",
                   "--half-width", "0.6", "--samples", "30", "--seed", "5"],
            "simulate": ["simulate", "--instance", qap_instance, "--gammas", "0.3,0.6",
                         "--betas", "0.5,0.5", "--shots", "100", "--seed", "2"],
        }
        for name, args in jobs.items():
            first = tmp_path / f"{name}_1.out"
            second = tmp_path / f"{name}_2.out"
            assert run(args + ["-o", str(first)]) == 0
            assert run(args + ["-o", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name


# Raw JSON text, so that NaN/Infinity literals and numbers beyond float range
# reach the parser as a user would write them.
BAD_INSTANCES = {
    "nan_lattice_scale": '{"n": 2, "m": 1, "energy": [0, 1], "lattice_scale": NaN}',
    "infinite_lattice_scale": '{"n": 2, "m": 1, "energy": [0, 1], "lattice_scale": Infinity}',
    "huge_energy": '{"n": 2, "m": 1, "energy": [0, 1e300]}',
    "infinite_energy": '{"n": 2, "m": 1, "energy": [0, Infinity]}',
    "energy_beyond_float": '{"n": 2, "m": 1, "energy": [0, 1' + "0" * 400 + "]}",
    "huge_cost": '{"n": 2, "m": 2, "generator": {"kind": "assignment", '
                 '"cost": [[0, 1e300], [1, 0]]}}',
    "fractional_n": '{"n": 2.7, "m": 1, "energy": [0, 1]}',
    "boolean_n": '{"n": true, "m": 1, "energy": [0]}',
    "overflowing_n": '{"n": 1e400, "m": 1, "energy": [0, 1]}',
}


# Finite inputs that overflow a mixer phase n*beta, a cost phase gamma*E, the
# off-peak bound's sin^2(delta/2), or the sampler's int64 shot count; each
# error message names the input.
OVERFLOWING_NAMED = {
    "envelope_mixer_angle": (["envelope", "--instance", None, "--betas", "1e308"],
                             "mixer angle 1e+308"),
    "certify_mixer_angle": (["certify", "--instance", None, "--gamma", "0.5", "-p", "2",
                             "--betas", "1e308,0.2"], "mixer angle 1e+308"),
    "simulate_mixer_angle": (["simulate", "--instance", None, "--gammas", "0.3",
                              "--betas", "1e308"], "mixer angle 1e+308"),
    "simulate_cost_angle": (["simulate", "--instance", None, "--gammas", "1e308",
                             "--betas", "0.3"], "cost angle 1e+308"),
    "plan_offpeak_underflow": (["plan", "-p", "3", "--c-beta", "0.5", "--delta", "1e-200"],
                               "delta=1e-200"),
    "plan_depth_underflow": (["plan", "-p", "3", "--c-beta", "1", "--delta", "1e-200"],
                             "delta=1e-200"),
    "simulate_shots": (["simulate", "--instance", None, "--gammas", "0.3", "--betas", "0.5",
                        "--shots", "100000000000000000000"], "shots 100000000000000000000"),
    "certify_cost_angle": (["certify", "--instance", None, "--gamma", "1e308", "-p", "2"],
                           "cost angle 1e+308"),
    "rl_cost_angle": (["rl", "--instance", None, "--gamma", "1e308", "-p", "2",
                       "--half-width", "0.2", "--samples", "5"], "dither half-width 1e+308"),
    "feasibility_penalty_angle": (["feasibility", "--instance", None, "--gamma", "1e308",
                                   "--no-search"], "penalty angle 1e+308"),
    "certify_order": (["certify", "--instance", None, "--gamma", "0.5",
                       "-p", "9007199254740993"], "order 9007199254740993"),
    "rl_order": (["rl", "--instance", None, "--gamma", "0.5", "-p", "9007199254740993",
                  "--half-width", "0.2", "--samples", "5"], "order 9007199254740993"),
    "curves_grid_memory": (["curves", "--deltas", "0.1:1:1000000000000000", "--orders", "1"],
                           "1000000000000000"),
}


# the two commands that read an external diagonal, the file's path to follow
DIAGONAL_COMMANDS = pytest.mark.parametrize("argv", [
    ["certify", "--gamma", "1", "-p", "1", "--envelope"],
    ["envelope", "--v0"],
], ids=["certify", "envelope"])


class TestFailClosed:
    @pytest.mark.parametrize("name", sorted(BAD_INSTANCES))
    def test_bad_instance_exits_2_without_output(self, name, tmp_path):
        inst = tmp_path / "bad.json"
        inst.write_text(BAD_INSTANCES[name], encoding="utf-8")
        out = tmp_path / "cert.json"
        code = exit_code(["certify", "--instance", str(inst), "--gamma", "0.5", "-p", "2",
                          "-o", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["rl", "--gamma", "nan", "-p", "2", "--half-width", "0.5", "--samples", "5"],
        ["rl", "--gamma", "0.5", "-p", "2", "--half-width", "nan", "--samples", "5"],
        ["feasibility", "--gamma", "nan", "--no-search"],
        ["simulate", "--gammas", "nan", "--betas", "0.5"],
        ["simulate", "--gammas", "0.3", "--betas", "0.5", "--shots", "0"],
        ["envelope", "--betas", "nan"],
    ])
    def test_bad_number_exits_2_without_output(self, args, qap_instance, tmp_path):
        out = tmp_path / "out.json"
        assert exit_code(args[:1] + ["--instance", qap_instance] + args[1:]
                         + ["-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["curves", "--deltas", "0.1,nan", "--orders", "1"],
        ["curves", "--deltas", "0.5", "--orders", "1.7"],
    ])
    def test_bad_curves_grid_exits_2(self, args, tmp_path):
        out = tmp_path / "curves.csv"
        assert exit_code(args + ["-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("diagonal, index", [
        (["0.5", 0.5], 0),
        ([True, 0], 0),
        ([1.0, False], 1),
        ([0.5, None], 1),
        ([[0.5], 0.5], 0),
        ([1.0, 10**400], 1),
    ], ids=["string", "true", "false", "null", "nested", "past-float-range"])
    @DIAGONAL_COMMANDS
    def test_non_number_diagonal_entry_exits_2(self, argv, diagonal, index, toy_instance,
                                               tmp_path, capsys):
        """Every entry of an external diagonal is a JSON int or float; the
        first that is not is named by its index, and nothing is written."""
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(diagonal))
        out = tmp_path / "out.json"
        assert run(argv[:1] + ["--instance", toy_instance] + argv[1:]
                   + [str(path), "-o", str(out)]) == 2
        assert f"external diagonal entry {index} is not a finite JSON number" \
            in capsys.readouterr().err
        assert not out.exists()

    # raw JSON text: json reads a float literal past the float range as inf
    @pytest.mark.parametrize("text, index", [
        ("[1e400, 0.5]", 0),
        ("[1e400, 0]", 0),
        ("[0.5, -1e400]", 1),
    ], ids=["among-floats", "among-ints", "negative"])
    @DIAGONAL_COMMANDS
    def test_non_finite_diagonal_entry_exits_2(self, argv, text, index, toy_instance,
                                               tmp_path, capsys):
        """A float literal past the float range is named like any other bad
        entry, whatever the other entries are."""
        path = tmp_path / "diag.json"
        path.write_text(text)
        out = tmp_path / "out.json"
        assert run(argv[:1] + ["--instance", toy_instance] + argv[1:]
                   + [str(path), "-o", str(out)]) == 2
        assert f"external diagonal entry {index} is not a finite JSON number" \
            in capsys.readouterr().err
        assert not out.exists()

    @DIAGONAL_COMMANDS
    def test_int_diagonal_entries_are_numbers(self, argv, toy_instance, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text("[1, 0]")
        out = tmp_path / "out.json"
        assert run(argv[:1] + ["--instance", toy_instance] + argv[1:]
                   + [str(path), "-o", str(out)]) == 0
        assert out.exists()

    def test_nan_initial_diagonal_exits_2(self, toy_instance, tmp_path):
        v0 = tmp_path / "v0.json"
        v0.write_text("[NaN, 1.0]")
        out = tmp_path / "env.json"
        assert run(["envelope", "--instance", toy_instance, "--v0", str(v0),
                    "-o", str(out)]) == 2
        assert not out.exists()

    # Finite inputs whose arithmetic overflows.  In the first two, the phases
    # overflow to inf and every Fejér weight is NaN.
    @pytest.mark.parametrize("args", [
        ["rl", "--instance", None, "--gamma", "1e308", "-p", "2", "--half-width", "1e307",
         "--samples", "5"],
        ["certify", "--instance", None, "--gamma", "1e308", "-p", "2"],
        ["rl", "--instance", None, "--gamma", "0.4", "-p", "2", "--half-width", "1e308"],
        ["rl", "--instance", None, "--gamma", "0.4", "-p", "2", "--half-width", "1e-320"],
        ["plan", "-p", "2", "--c-beta", "1e-320", "--delta", "1e-320"],
        ["feasibility", "--instance", None, "--gamma", "1e308", "--no-search"],
    ], ids=["rl_nan_denominator", "certify_nan_denominator", "dither_span", "offpeak_bound",
            "plan_depth", "feasibility_nan_separation"])
    def test_overflowing_arithmetic_exits_2(self, args, qap_instance, tmp_path):
        out = tmp_path / "out.json"
        argv = [qap_instance if a is None else a for a in args]
        assert run(argv + ["-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_NAMED))
    def test_overflow_names_input_without_warning(self, name, qap_instance, tmp_path, capsys):
        args, named = OVERFLOWING_NAMED[name]
        out = tmp_path / "out.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([qap_instance if a is None else a for a in args] + ["-o", str(out)])
        assert code == 2
        assert not out.exists()
        assert named in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestOneFilePerOutput:
    @pytest.mark.parametrize("law_spelling", ["same.json", "./same.json"])
    @pytest.mark.parametrize("argv", [
        ["certify", "--gamma", "0.5", "-p", "2"],
        ["rl", "--gamma", "0.5", "-p", "2", "--half-width", "0.2", "--samples", "5"],
    ], ids=["certify", "rl"])
    def test_law_output_naming_the_document_exits_2(self, argv, law_spelling, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_instance(tmp_path / "i.json", {"n": 2, "m": 2, "energy": [0, 1, 2, 3]})
        assert run(argv + ["--instance", "i.json", "-o", "same.json",
                           "--law-output", law_spelling]) == 2
        err = capsys.readouterr().err
        assert "--law-output" in err and "--output" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json"]


class TestConventionAtBoundary:
    """--convention normalized --betas B writes the bytes of --convention
    adjacency --betas B/n: the command converts, the library takes A(K_n)
    angles.  The instance has n = 3."""

    BETAS = [0.9, 2.3]

    @staticmethod
    def _outputs(argv, convention, tmp_path, law=False):
        out, law_csv = tmp_path / f"{convention}.out", tmp_path / f"{convention}.csv"
        args = argv + ["--convention", convention, "-o", str(out)]
        assert run(args + (["--law-output", str(law_csv)] if law else [])) in (0, 3)
        return [out.read_bytes()] + ([law_csv.read_bytes()] if law else [])

    def _same_bytes(self, argv, tmp_path, law=False):
        normalized = self._outputs(argv + [f"--betas={_floats_arg(self.BETAS)}"],
                                   "normalized", tmp_path, law)
        adjacency = self._outputs(argv + [f"--betas={_floats_arg([b / 3 for b in self.BETAS])}"],
                                  "adjacency", tmp_path, law)
        assert normalized == adjacency

    def test_certify_with_law(self, qap_instance, tmp_path):
        self._same_bytes(["certify", "--instance", qap_instance, "--gamma", "0.5", "-p", "2"],
                         tmp_path, law=True)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_envelope(self, qap_instance, tmp_path, fmt):
        self._same_bytes(["envelope", "--instance", qap_instance, "--format", fmt], tmp_path)

    @pytest.mark.parametrize("degrees", [False, True])
    def test_simulate_with_shots(self, qap_instance, tmp_path, degrees):
        gammas, betas = ([30.0, 50.0], [40.0, 120.0]) if degrees else ([0.3, 0.5], self.BETAS)
        radians = [math.radians(a) for a in gammas + betas] if degrees else gammas + betas
        argv = ["simulate", "--instance", qap_instance, "--shots", "500", "--seed", "3"]
        normalized = self._outputs(
            argv + [f"--gammas={_floats_arg(gammas)}", f"--betas={_floats_arg(betas)}"]
            + (["--degrees"] if degrees else []), "normalized", tmp_path)
        adjacency = self._outputs(
            argv + [f"--gammas={_floats_arg(radians[:2])}",
                    f"--betas={_floats_arg([b / 3 for b in radians[2:]])}"],
            "adjacency", tmp_path)
        documents = [json.loads(out[0]) for out in (normalized, adjacency)]
        for document in documents:
            del document["betas"], document["convention"]
        assert documents[0] == documents[1]


@pytest.mark.parametrize("argv, schema", [
    (["certify", "--gamma", "0.5"], "certificate"),
    (["rl", "--gamma", "0.5", "--half-width", "0.2", "--samples", "5"], "rl_report"),
])
def test_order_far_beyond_memory(argv, schema, qap_path):
    # 2**45 orders: the kernel, the averaged bound and the law use O(1) memory in p
    _check_filter_run(argv[:1] + ["--instance", qap_path] + argv[1:] + ["-p", str(2**45)],
                      schema, (0, 3))


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, fejercert.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


@pytest.fixture(scope="module")
def qap_path(tmp_path_factory):
    return write_instance(tmp_path_factory.mktemp("property") / "qap.json", QAP_DOC)


def _check_filter_run(argv, schema, allowed, law_csv=True):
    """Run a command; exit 2 leaves no file, any other exit leaves a valid
    document and, with ``law_csv``, a finite law CSV that sums to 1."""
    with tempfile.TemporaryDirectory() as tmp:
        out, law = Path(tmp) / "out.json", Path(tmp) / "law.csv"
        code = main(argv + ["-o", str(out)] + (["--law-output", str(law)] if law_csv else []))
        assert code in allowed
        if code == 2:
            assert not out.exists() and not law.exists()
            return
        jsonschema.validate(json.loads(out.read_text("utf-8")), load_schema(schema))
        if not law_csv:
            return
        with law.open(encoding="utf-8") as fh:
            probs = [float(row["probability"]) for row in csv.DictReader(fh)]
        assert all(math.isfinite(p) for p in probs)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE_FINITE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestFilterCommandsProperty:
    """Every finite angle and positive finite half-width either fails closed
    or yields a schema-valid document and, from a filter command, a
    normalized law."""

    @settings(max_examples=100)
    @given(gamma=FINITE, half_width=POSITIVE_FINITE)
    @example(gamma=1e308, half_width=1e307)
    @example(gamma=0.4, half_width=1e308)
    @example(gamma=0.4, half_width=1e-320)
    def test_rl(self, qap_path, gamma, half_width):
        # --name=value, so that argparse does not take a negative value for an option
        _check_filter_run(["rl", "--instance", qap_path, f"--gamma={gamma!r}", "-p", "2",
                           f"--half-width={half_width!r}", "--samples", "5"],
                          "rl_report", (0, 2))

    @settings(max_examples=100)
    @given(gamma=FINITE)
    @example(gamma=1e308)
    def test_certify(self, qap_path, gamma):
        _check_filter_run(["certify", "--instance", qap_path, f"--gamma={gamma!r}", "-p", "2"],
                          "certificate", (0, 2, 3))

    @settings(max_examples=100)
    @given(gamma=FINITE)
    @example(gamma=1e308)
    def test_feasibility(self, qap_path, gamma):
        _check_filter_run(["feasibility", "--instance", qap_path, f"--gamma={gamma!r}",
                           "--no-search"], "feasibility_report", (0, 2, 3), law_csv=False)


@pytest.fixture(scope="module")
def qap_explicit_path(tmp_path_factory):
    doc = {**QAP_DOC, "penalty": collision_penalty_table(3, 3).tolist()}
    return write_instance(tmp_path_factory.mktemp("property") / "qap-explicit.json", doc)


class TestFeasibilitySearchProperty:
    """Every search order, budget and seed either fails closed or yields a
    schema-valid report whose pi_f lies in [n!/n^n, 1], on the sector path
    (default penalty) and on the statevector path (explicit penalty)."""

    @settings(max_examples=100)
    @given(order=st.integers(0, 3), budget=st.integers(1, 60), seed=st.integers(),
           explicit=st.booleans())
    @example(order=9007199254740993, budget=10, seed=0, explicit=False)
    @example(order=9007199254740993, budget=10, seed=0, explicit=True)
    def test_feasibility_search(self, qap_path, qap_explicit_path, order, budget, seed,
                                explicit):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.json"
            code = main(["feasibility", "--instance", qap_explicit_path if explicit else qap_path,
                         "--gamma", "0.5", f"--search-order={order}", f"--budget={budget}",
                         f"--seed={seed}", "-o", str(out)])
            assert code in (0, 2, 3)
            if order > 2**53 or not 0 <= seed < 2**63:
                assert code == 2
            if code == 2:
                assert list(Path(tmp).iterdir()) == []
                return
            doc = json.loads(out.read_text("utf-8"))
        jsonschema.validate(doc, load_schema("feasibility_report"))
        floor = math.factorial(3) / 3**3
        assert floor - 1e-12 <= doc["search"]["pi_f"] <= 1 + 1e-12


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def _json_floats(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in _json_floats(v)]
    return [value] if isinstance(value, float) else []


def _check_document_run(argv, suffix, schema=None):
    """Run a command; exit 2 leaves no file, exit 0 leaves a document whose
    every JSON number is finite or null, in the one JSON layout (sorted
    keys, indent 2, a final newline), or whose every numeric CSV value is
    finite, and which validates against ``schema`` when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"out.{suffix}"
        code = main(argv + ["-o", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert list(Path(tmp).iterdir()) == []
            return
        text = out.read_text("utf-8")
        if suffix == "csv":
            for row in list(csv.reader(io.StringIO(text)))[1:]:
                for value in row:
                    try:
                        number = float(value)
                    except ValueError:  # a string label such as 0-2-1
                        continue
                    assert math.isfinite(number)
            return
        document = json.loads(text, parse_constant=_reject_constant)
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert all(math.isfinite(f) for f in _json_floats(document))
        if schema is not None:
            jsonschema.validate(document, load_schema(schema))


def _floats_arg(values):
    return ",".join(repr(v) for v in values)


def _grid_arg(grid):
    start, stop, count = grid
    return f"{start!r}:{stop!r}:{count}"


class TestCommandsProperty:
    """Every finite angle, mass, gap and every integer order or shot count
    either fails closed or yields a finite document."""

    @settings(max_examples=100)
    @given(gammas=st.lists(FINITE, max_size=2), betas=st.lists(FINITE, max_size=2),
           shots=st.none() | st.integers(), seed=st.integers(min_value=0))
    @example(gammas=[0.3], betas=[1e308], shots=None, seed=0)
    @example(gammas=[1e308], betas=[0.3], shots=None, seed=0)
    @example(gammas=[0.3], betas=[0.5], shots=10**20, seed=0)
    def test_simulate(self, qap_path, gammas, betas, shots, seed):
        argv = ["simulate", "--instance", qap_path, f"--gammas={_floats_arg(gammas)}",
                f"--betas={_floats_arg(betas)}", f"--seed={seed}"]
        _check_document_run(argv + ([] if shots is None else [f"--shots={shots}"]), "json")

    @settings(max_examples=100)
    @given(betas=st.lists(FINITE, max_size=3), fmt=st.sampled_from(["json", "csv"]))
    @example(betas=[1e308], fmt="json")
    def test_envelope(self, qap_path, betas, fmt):
        _check_document_run(["envelope", "--instance", qap_path,
                             f"--betas={_floats_arg(betas)}", "--format", fmt], fmt)

    @settings(max_examples=100)
    @given(p=st.integers(), c_beta=FINITE, delta=FINITE, epsilon=FINITE)
    @example(p=3, c_beta=0.5, delta=1e-200, epsilon=0.1)
    @example(p=3, c_beta=1.0, delta=1e-200, epsilon=0.1)
    @example(p=3, c_beta=0.5, delta=5e-324, epsilon=0.1)
    @example(p=3, c_beta=0.5, delta=1e-160, epsilon=0.1)
    @example(p=2**600, c_beta=0.5, delta=1.0, epsilon=0.1)
    def test_plan(self, p, c_beta, delta, epsilon):
        _check_document_run(["plan", f"-p={p}", f"--c-beta={c_beta!r}", f"--delta={delta!r}",
                             f"--epsilon={epsilon!r}"], "json", schema="certificate")

    @settings(max_examples=100)
    @given(deltas=st.lists(FINITE, max_size=4).map(_floats_arg)
           | st.tuples(FINITE, FINITE, st.integers(1, 10**4)).map(_grid_arg),
           orders=st.lists(st.integers(), max_size=3), epsilon=FINITE)
    @example(deltas="1.0", orders=[2**600], epsilon=0.1)
    @example(deltas="0.1:1:1000000000000000", orders=[1], epsilon=0.1)
    def test_curves(self, deltas, orders, epsilon):
        _check_document_run(["curves", f"--deltas={deltas}",
                             f"--orders={','.join(map(str, orders))}",
                             f"--epsilon={epsilon!r}"], "csv")


@st.composite
def small_instance_documents(draw):
    """Instances with n <= 4, m <= 3 and energies 0..6; the penalty is the
    default or a given table, which sometimes has no zero."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    size = n**m
    doc = {"n": n, "m": m,
           "energy": draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))}
    if draw(st.booleans()):
        low = draw(st.sampled_from([0, 1]))
        doc["penalty"] = draw(st.lists(st.integers(low, 3), min_size=size, max_size=size))
    return doc


ANGLES = (st.floats(-10.0, 10.0, allow_nan=False)
          | st.integers(1, 8).map(lambda k: 2 * math.pi / k))


class TestNothingEscapesMain:
    """Every command on a small instance returns one of the documented exit
    codes: no exception escapes ``cli.main``."""

    @settings(max_examples=100)
    @given(doc=small_instance_documents(), gamma=ANGLES, p=st.integers(0, 4))
    @example(doc={"n": 2, "m": 1, "energy": [0, 1], "penalty": [1, 2]}, gamma=0.3, p=3)
    def test_exit_codes(self, doc, gamma, p):
        with tempfile.TemporaryDirectory() as tmp:
            inst = write_instance(Path(tmp) / "inst.json", doc)
            out = str(Path(tmp) / "out")
            common = ["--instance", inst, "-o", out]
            for argv in (
                ["certify", f"--gamma={gamma!r}", f"-p={p}", "--scope", "all"],
                ["certify", f"--gamma={gamma!r}", f"-p={p}", "--scope", "feasible"],
                ["rl", f"--gamma={gamma!r}", f"-p={p}", "--half-width", "0.3",
                 "--samples", "3"],
                ["feasibility", f"--gamma={gamma!r}", "--budget", "3"],
                ["simulate", f"--gammas={gamma!r}", "--betas", "0.4", "--shots", "5"],
                ["envelope", "--betas", "0.4"],
            ):
                assert main(argv + common) in (0, 2, 3, 4), argv
