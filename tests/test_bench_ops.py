"""The benchmark's op script, run once: every timed op of each workload,
on the seed-601 instances, exits with its pinned code through ``cli.main``,
writes every JSON document in the one layout (sorted keys, indent 2, a
final newline) and passes the benchmark's own check of the documents it
writes.  A fault here would otherwise show only as failed operations in a
benchmark run."""

import importlib
import json
from pathlib import Path

import pytest

from fejercert import cli

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
    for op in ops:
        assert (op.name, cli.main(list(op.argv))) == (op.name, op.expect_exit)
        for path in op.outputs:
            if path.suffix == ".json":
                text = path.read_text("utf-8")
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert (op.name, op.check()) == (op.name, [])
