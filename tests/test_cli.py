import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fejercert.cli import main
from fejercert.serialize import load_schema


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

    def test_envelope_and_betas_conflict(self, toy_instance, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps([0.8, 0.2]))
        code = run(["certify", "--instance", toy_instance, "--gamma", "1.0", "-p", "1",
                    "--betas", "0.4", "--envelope", str(env_path),
                    "-o", str(tmp_path / "x.json")])
        assert code == 2


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

    def test_penalty_phase_collision_exit(self, qap_instance, tmp_path):
        out = tmp_path / "feas.json"
        code = run(["feasibility", "--instance", qap_instance, "--gamma", str(math.pi),
                    "--no-search", "-o", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["collided"] is True and doc["bounds"] is None


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
    every JSON number is finite or null, or whose every numeric CSV value is
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
