"""Spans around fejercert's public functions, recorded from outside.

Tracing replaces every module-level binding of each traced function in the
loaded fejercert modules (cli and rl import several by name), so that calls
through any alias are recorded.  Spans are kept in memory; a span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

TRACED = (
    ("instance", "load_instance_file"), ("instance", "phase_gap"),
    ("mixer", "mixer_envelope"), ("mixer", "apply_block_kernel"),
    ("fejer", "filtered_distribution"), ("fejer", "fejer_kernel"),
    ("rl", "rl_filtered_distribution"), ("rl", "energy_gap"),
    ("planner", "build_certificate"), ("planner", "cmin_curve"),
    ("feasibility", "level_sets"), ("feasibility", "level_graph"),
    ("feasibility", "feasibility_angle_search"),
    ("oracle", "simulate"), ("oracle", "apply_cost"), ("oracle", "apply_mixer"),
    ("oracle", "sample_shots"),
    ("serialize", "dumps_json"), ("serialize", "atomic_write_text"),
    ("serialize", "envelope_csv"), ("serialize", "filtered_law_csv"),
    ("serialize", "rl_law_csv"), ("serialize", "curves_csv"),
    ("cli", "main"),
)
NORM_CHECK = "oracle.norm_check"  # EncodedState.__post_init__
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED) + (NORM_CHECK,)

# counter name -> unit; each is reported per workload pass unless a ratio
COUNTERS = {
    "instance.states": "states/pass",
    "mixer.uniform_input_ratio": "ratio",
    "fejer.kernel_points": "points/pass",
    "rl.draws": "draws/pass",
    "feasibility.evaluations": "evals/pass",
    "oracle.norm_checks_per_layer": "checks/layer",
    "serialize.bytes": "bytes/pass",
}
OVERHEAD = "trace.overhead_ratio"


def per_layer_metric_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/pass"
        units[f"{name}.self_ms"] = "ms/pass"
    units.update(COUNTERS)
    units[OVERHEAD] = "ratio"
    return units


def _is_uniform(probs: np.ndarray) -> bool:
    return bool(probs.max() - probs.min() <= 1e-12 * probs.max())


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list = []   # [name, start_ns, end_ns, parent index, op id]
        self.op_id = -1
        self.op_names: dict = {}
        self._stack: list = []
        self._patched: list = []
        self._raw = {"uniform_inputs": 0, "layers": 0, "states": 0, "kernel_points": 0,
                     "draws": 0, "evaluations": 0, "bytes": 0}
        self._hooks = {
            "instance.load_instance_file": self._count_states,
            "mixer.apply_block_kernel": self._count_uniform,
            "fejer.fejer_kernel": self._count_points,
            "rl.rl_filtered_distribution": self._count_draws,
            "feasibility.feasibility_angle_search": self._count_evaluations,
            "oracle.simulate": self._count_layers,
            "serialize.atomic_write_text": self._count_bytes,
        }

    # -- counters, fed with (args, result) after a traced call returns -----

    def _count_states(self, args, result):
        self._raw["states"] += result.size

    def _count_uniform(self, args, result):
        self._raw["uniform_inputs"] += _is_uniform(args[1].probs)

    def _count_points(self, args, result):
        self._raw["kernel_points"] += np.size(result)

    def _count_draws(self, args, result):
        self._raw["draws"] += result.samples

    def _count_evaluations(self, args, result):
        self._raw["evaluations"] += result.evaluations

    def _count_layers(self, args, result):
        self._raw["layers"] += len(args[1])

    def _count_bytes(self, args, result):
        text = args[1]
        self._raw["bytes"] += len(text) if text.isascii() else len(text.encode("utf-8"))

    # -- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "fejercert" or key.startswith("fejercert.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"fejercert.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        state = sys.modules["fejercert.oracle"].EncodedState
        self._patched.append((state, "__post_init__", state.__post_init__))
        state.__post_init__ = self._wrap(NORM_CHECK, state.__post_init__)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_times_ns(self) -> list:
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def span_sum_problems(self, tolerance: float = 0.01) -> list:
        """Per op, the self times must add up to the cli.main span."""
        own = self.self_times_ns()
        total: dict = {}
        root: dict = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            total[op] = total.get(op, 0) + own[i]
            if parent is None:
                if name != "cli.main" or op in root:
                    return [f"op {op}: span {name} has no cli.main parent"]
                root[op] = end - start
        return [f"op {op} ({self.op_names.get(op)}): self times sum to {total[op]} ns, "
                f"cli.main span is {root.get(op)} ns"
                for op in total if abs(total[op] - root.get(op, 0)) > tolerance * root.get(op, 0)]

    def metrics(self, passes: int) -> dict:
        own = self.self_times_ns()
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        for i, span in enumerate(self.spans):
            calls[span[0]] += 1
            self_ns[span[0]] += own[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / passes
        raw = self._raw
        kernels = calls["mixer.apply_block_kernel"]
        out["instance.states"] = raw["states"] / passes
        out["mixer.uniform_input_ratio"] = raw["uniform_inputs"] / kernels if kernels else 0.0
        out["fejer.kernel_points"] = raw["kernel_points"] / passes
        out["rl.draws"] = raw["draws"] / passes
        out["feasibility.evaluations"] = raw["evaluations"] / passes
        out["oracle.norm_checks_per_layer"] = (
            calls[NORM_CHECK] / raw["layers"] if raw["layers"] else 0.0)
        out["serialize.bytes"] = raw["bytes"] / passes
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op,
                                     "op_name": self.op_names.get(op)}) + "\n")
