"""The benchmark's op script, run once: every timed op of each workload,
on the seed-601 instances, exits with its pinned code through ``cli.main``
and passes the benchmark's own check of the documents it writes.  A fault
here would otherwise show only as failed operations in a benchmark run."""

import importlib
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
        assert (op.name, op.check()) == (op.name, [])
