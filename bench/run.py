"""End-to-end benchmark of the fejercert command line.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fejercert is imported from ./src.  One
process and one closed-loop client call fejercert.cli.main(argv) in turn on
seeded instance files, so each command starts when the previous one has
returned.  BLAS threads are left at the environment default and recorded.

A run: set up (import fejercert in a fresh interpreter and write the
instances, several times; the median is setup_s), one warm-up pass over
the workload's ops, the timed phase (whole passes until --seconds have
elapsed and every op has at least 11 samples), then checks of the
documents against the benchmark's own reference computations.  Every
document's SHA-256 must match across all repeats of its op, and across
runs with the same seed of the same program and benchmark sources.  With
--trace 1 the passes alternate between untraced and traced; the traced
passes give the per-layer metrics and the ratio of the two kinds gives the
tracing overhead.  The last line of stdout is the JSON result; details,
raw latencies and the environment record go to .bench_out/.

Latency per size class is the geometric mean, over the class's ops, of
each op's mean and of its highest percentile with ten samples beyond it
(lat_mean_ms, lat_tail_ms), so that ops 100x apart in cost count alike.
Medians are reported as well but not gated: on a shared host that
switches between speed regimes every few seconds, a run's latencies are
bimodal, and their median jumps between the modes as the mix shifts while
the mean moves in proportion.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1  # so that every op has a tail percentile
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import fejercert.cli; print(time.perf_counter() - t)")


def end_to_end_metric_units() -> dict:
    units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    for key in ("lat_mean_ms", "lat_tail_ms"):
        units.update({f"{key}.{size_class}": "ms" for size_class in workloads.SIZE_CLASSES})
    return units


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops through cli.main and records their latencies and failures."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.digests: dict = {}
        self.problems: dict = {op.name: [] for op in ops}

    def call(self, op) -> tuple:
        """(exit code, seconds, stderr) of one invocation."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception:  # the program crashed; the op fails, the run goes on
                code = "uncaught exception"
                traceback.print_exc(limit=-3)
            elapsed = time.perf_counter() - start
        return code, elapsed, err.getvalue().strip()

    def run(self, op) -> tuple:
        """(seconds, ok): exit code as pinned and documents as on the first run."""
        code, elapsed, stderr = self.call(op)
        if code != op.expect_exit:
            self.problem(op, f"exit {code}, pinned {op.expect_exit}; stderr: {stderr}")
            return elapsed, False
        digest = hashlib.sha256()
        try:
            for path in op.outputs:
                digest.update(path.read_bytes())
        except OSError as exc:
            self.problem(op, f"document missing: {exc}")
            return elapsed, False
        first = self.digests.setdefault(op.name, digest.hexdigest())
        if digest.hexdigest() != first:
            self.problem(op, "document differs from an earlier run of the same command")
            return elapsed, False
        return elapsed, True

    def problem(self, op, message: str) -> None:
        if message not in self.problems[op.name]:
            self.problems[op.name].append(message)

    def phase(self, seconds: float, min_passes: int = 1,
              tracer: tracing.Tracer | None = None) -> list:
        """Whole passes over the ops until `seconds` have elapsed and at
        least `min_passes` are done.  With a tracer, passes alternate between
        untraced and traced, so that drift in machine speed reaches both
        alike; the result holds one phase per kind of pass."""
        kinds = (None,) if tracer is None else (None, tracer)
        phases = [{"samples": {op.name: [] for op in self.ops}, "passes": 0} for _ in kinds]
        deadline = time.perf_counter() + seconds
        while phases[-1]["passes"] < min_passes or time.perf_counter() < deadline:
            for phase, kind in zip(phases, kinds):
                with kind or contextlib.nullcontext():
                    for op in self.ops:
                        for _ in range(op.repeat):
                            if kind is not None:
                                kind.op_id += 1
                                kind.op_names[kind.op_id] = op.name
                            phase["samples"][op.name].append(self.run(op))
                phase["passes"] += 1
        return phases


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(sorted_values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    n = len(sorted_values)
    if n <= TAIL_BEYOND:
        return sorted_values[-1], 100.0
    return sorted_values[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def op_stats(ops, phase: dict, rejected: set) -> dict:
    stats = {}
    for op in ops:
        good = sorted(t for t, ok in phase["samples"][op.name] if ok and op.name not in rejected)
        entry = {"class": op.size_class, "pinned_exit": op.expect_exit,
                 "attempted": len(phase["samples"][op.name]), "succeeded": len(good)}
        if good:
            value, pct = tail(good)
            entry.update(mean_ms=1e3 * statistics.fmean(good), p50_ms=1e3 * statistics.median(good),
                         tail_ms=1e3 * value, tail_percentile=pct)
        entry["samples_ms"] = [1e3 * t for t, _ in phase["samples"][op.name]]
        stats[op.name] = entry
    return stats


def geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def phase_counts(phase: dict, rejected: set) -> tuple:
    """(attempted, failed, busy seconds) over all samples of a phase."""
    attempted = failed = 0
    busy = 0.0
    for name, samples in phase["samples"].items():
        for elapsed, ok in samples:
            attempted += 1
            failed += not ok or name in rejected
            busy += elapsed
    return attempted, failed, busy


def ops_per_s(phase: dict, rejected: set) -> float:
    """Succeeded ops per second of client busy time (no think time)."""
    attempted, failed, busy = phase_counts(phase, rejected)
    return (attempted - failed) / busy


def end_to_end(ops, phase: dict, rejected: set, setup_s: float, peak_rss_mb: float) -> tuple:
    stats = op_stats(ops, phase, rejected)
    metrics = {"setup_s": setup_s, "ops_per_s": ops_per_s(phase, rejected),
               "peak_rss_mb": peak_rss_mb}
    for key, field in (("lat_mean_ms", "mean_ms"), ("lat_tail_ms", "tail_ms"),
                       ("lat_p50_ms", "p50_ms")):
        for size_class in workloads.SIZE_CLASSES:
            metrics[f"{key}.{size_class}"] = geomean(
                [s[field] for s in stats.values() if s["class"] == size_class and field in s])
    return metrics, stats


# ---------------------------------------------------------------------------
# Set-up and environment
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, work: Path) -> float:
    rounds = []
    for _ in range(SETUP_ROUNDS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, timeout=120, check=True)
        start = time.perf_counter()
        workloads.write_instances(workload, seed, work)
        rounds.append(float(probe.stdout) + time.perf_counter() - start)
    return statistics.median(rounds)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "unset")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"), "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def import_cli():
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("fejercert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fejercert was imported from {cli.__file__}, not from {SRC}")
    return cli


def sources_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "fejercert").rglob("*"), *Path(__file__).parent.glob("*.py")]):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def compare_digests(runner: Runner, path: Path) -> None:
    """Documents must match those of an earlier run with the same seed and
    sources; the first such run records them."""
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(runner.digests, indent=2) + "\n")
        return
    earlier = json.loads(path.read_text())
    for op in runner.ops:
        digest = runner.digests.get(op.name)
        if digest is not None and earlier.get(op.name) not in (None, digest):
            runner.problem(op, f"document differs from the run recorded in {path.name}")


def run_check(op) -> list:
    """The op's document checks; a document too malformed to read is a problem."""
    try:
        return op.check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"document check raised {exc!r}"]


def check_documents(runner: Runner, schemas: checks.Schemas, work: Path, workload: str) -> set:
    """Run every op's checks on its final documents; returns the rejected ops."""
    rejected = set()
    for shape in workloads.SHAPES_USED[workload]:
        doc = json.loads(workloads.instance_path(work, shape).read_text())
        for problem in schemas.problems("instance", doc):
            runner.problems.setdefault(f"instance {shape}", []).append(problem)
    for op in runner.ops:
        if not runner.problems[op.name]:
            runner.problems[op.name] += run_check(op)
        if runner.problems[op.name]:
            rejected.add(op.name)
    return rejected


def run_known_defects(runner: Runner, defects: list) -> list:
    """Run each known-defect op once; report its outcome."""
    report = []
    for op, known_exit, note in defects:
        code, elapsed, stderr = runner.call(op)
        entry = {"op": op.name, "pinned_exit": op.expect_exit, "exit": code,
                 "seconds": elapsed, "stderr": stderr, "note": note}
        if code == op.expect_exit:
            entry["problems"] = run_check(op)
        elif code != known_exit:
            entry["problems"] = [f"exit {code}, neither pinned {op.expect_exit} "
                                 f"nor the known {known_exit}"]
        report.append(entry)
    return report


def run_workload(args) -> int:
    work = WORK / args.workload
    setup_s = measure_setup(args.workload, args.seed, work)
    cli = import_cli()
    schemas = checks.Schemas(SRC / "fejercert" / "schemas")
    ops, defects = workloads.build_ops(args.workload, args.seed, work, schemas)
    runner = Runner(cli, ops)

    for op in ops:  # warm-up: caches filled, first digests recorded
        runner.run(op)
    tracer = tracing.Tracer() if args.trace else None
    phases = runner.phase(args.seconds, 1 if args.trace else MIN_PASSES, tracer)
    untraced, timed = phases[0], phases[-1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = OUT / f"digests-{args.workload}-seed{args.seed}-{sources_digest()}.json"
    compare_digests(runner, digests)
    rejected = check_documents(runner, schemas, work, args.workload)
    defect_report = run_known_defects(runner, defects)

    metrics, stats = end_to_end(ops, timed, rejected, setup_s, peak_rss_mb)
    attempted = failed = 0
    for phase in phases:
        a, f, _ = phase_counts(phase, rejected)
        attempted, failed = attempted + a, failed + f
    problems = {name: p for name, p in runner.problems.items() if p}
    correct = not problems and not any(d.get("problems") for d in defect_report)
    units = end_to_end_metric_units()
    if args.trace:
        span_problems = tracer.span_sum_problems()
        if span_problems:
            problems["spans"], correct = span_problems, False
        traced_rate = metrics["ops_per_s"]
        metrics = tracer.metrics(timed["passes"])
        metrics[tracing.OVERHEAD] = ops_per_s(untraced, rejected) / traced_rate
        units = tracing.per_layer_metric_units()
        tracer.write_jsonl(OUT / f"spans-{args.workload}.jsonl")

    detail = {"environment": environment(args), "passes": timed["passes"], "ops": stats,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "known_defects": defect_report,
              "problems": problems}
    report(detail, units, len(ops))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report(detail: dict, units: dict, loop_ops: int) -> None:
    env = detail["environment"]
    print(f"environment {json.dumps(env)}")
    print(f"workload {env['workload']}: {detail['passes']} passes, closed loop, 1 client")
    for name, s in detail["ops"].items():
        line = f"  op {name:28s} {s['class']:6s} {s['succeeded']:4d}/{s['attempted']:<4d} ok"
        if "p50_ms" in s:
            line += (f"  mean {s['mean_ms']:10.3f}  p50 {s['p50_ms']:10.3f}  "
                     f"p{s['tail_percentile']:.0f} {s['tail_ms']:10.3f} ms")
        print(line)
    for name, unit in units.items():
        print(f"  {name:40s} {detail['metrics'][name]:14.6g} {unit}")
    for name, value in detail["metrics"].items():
        if name not in units:
            print(f"  {name:40s} {value:14.6g} ms (reported, not gated)")
    print(f"  {'failed_ratio':40s} {detail['failed_ratio']:14.6g} "
          f"({detail['failed']} of {detail['attempted']} ops)")
    for d in detail["known_defects"]:
        print(f"  known defect {d['op']}: exit {d['exit']} (pinned {d['pinned_exit']}), "
              f"{d['note']}; in the loop it would be 1 of {loop_ops + 1} ops per pass; "
              f"stderr: {d['stderr']}")
    for name, messages in detail["problems"].items():
        for message in messages:
            print(f"  problem {name}: {message}")


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fejercert" / "cli.py").is_file():
        print(f"error: {SRC / 'fejercert'} not found; run from the root of a fejercert checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
