"""The benchmark's op script, run once: every timed op of each workload,
on the seed-601 instances, exits with its pinned code through ``cli.main``,
writes every JSON document in the one layout (sorted keys, indent 2, a
final newline), writes every CSV byte for byte as the row-wise writers of
``tests/oracles.py`` do on the per-string references, and passes the
benchmark's own check of the documents it writes.  A fault here would
otherwise show only as failed operations in a benchmark run, and the
benchmark's checks of the CSVs hold within tolerances only."""

import importlib
import json
from pathlib import Path

import pytest

from fejercert import cli, load_instance, rl
from fejercert.fejer import filtered_distribution
from fejercert.instance import GapScope, phase_gap
from fejercert.mixer import mixer_envelope, uniform_envelope
from oracles import (
    envelope_csv_rowwise,
    filtered_law_csv_rowwise,
    filtered_law_per_string,
    rl_law_csv_rowwise,
    rl_law_per_string,
    table_index,
)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "feasibility", "simulate-export")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_ops_pass_their_checks(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    assert workloads.WORKLOADS == WORKLOADS
    workloads.write_instances(workload, 601, tmp_path)
    ops, _ = workloads.build_ops(workload, 601, tmp_path,
                                 checks.Schemas(ROOT / "src" / "fejercert" / "schemas"))
    csvs = []
    for op in ops:
        assert (op.name, cli.main(list(op.argv))) == (op.name, op.expect_exit)
        for path in op.outputs:
            text = path.read_text("utf-8")
            if path.suffix == ".json":
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            elif op.name != "curves":  # a CSV over the strings
                assert text == _rowwise_csv(workloads, op.name), op.name
                csvs.append(op.name)
        assert (op.name, op.check()) == (op.name, [])
    assert csvs == {"certify": [], "feasibility": [],
                    "simulate-export": ["envelope.csv.4^4", "rl.law.8^4", "envelope.csv.6^6",
                                        "certify.law.6^6"]}[workload]


def _rowwise_csv(workloads, name: str) -> str:
    """The CSV of a timed op from the row-wise writer, fed the law (or the
    envelope) gathered to the strings by the per-string references, with
    the op's arguments read from the workload script."""
    kind, shape = name.rsplit(".", 1)
    inst = load_instance(workloads.instance_document(shape, 601), cap=46656)
    n, m, level_of = inst.n, inst.m, table_index(inst.energy).of_string
    uniform = uniform_envelope(n, m)
    if kind == "envelope.csv":
        return envelope_csv_rowwise(mixer_envelope(inst, uniform, workloads.ENV_BETAS).probs, n, m)
    if kind == "certify.law":  # the uniform envelope, a fixed point of the op's mixer layers
        pm = phase_gap(inst, workloads.GAMMA, GapScope.FEASIBLE_ONLY)
        law = filtered_distribution(inst.levels.shares(), pm.offsets(), workloads.ORDER)
        weight, probs = filtered_law_per_string(law, uniform, level_of)
        return filtered_law_csv_rowwise(probs, pm.level_theta[level_of], weight, n, m)
    assert kind == "rl.law", name
    args = dict(zip(workloads.RL_ARGS[::2], workloads.RL_ARGS[1::2]))
    law = rl.rl_filtered_distribution(
        inst.levels.shares(), inst, float(args["--gamma"]),
        rl.DitherWindow(float(args["--half-width"])), int(args["-p"]),
        samples=int(args["--samples"]), seed=int(args["--seed"]))
    return rl_law_csv_rowwise(*rl_law_per_string(law, uniform, level_of), n, m)
