"""Command-line surface: reproducible certification workflows with stable
file formats.

One command produces one output document, written atomically; identical
configurations (including seeds) produce byte-identical files.  All angles
are radians unless --degrees is given, which converts at parse time only.

Exit codes: 0 success, 2 precondition violation, 3 uncertifiable (bounds
computed but vacuous), 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import feasibility as feas
from . import oracle, rl, serialize
from .fejer import _check_order, filtered_distribution, success_probability
from .instance import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    GapScope,
    ProblemInstance,
    format_string,
    index_string,
    load_instance_file,
    phase_gap,
    read_json,
)
from .mixer import (
    Envelope,
    envelope_mass,
    external_envelope,
    mixer_envelope,
    uniform_envelope,
)
from .planner import Certificate, build_certificate, cmin_curve

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNCERTIFIABLE = 3
EXIT_CAP = 4

BOUND_SLACK = 1e-9


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _comma_list(text: str, convert) -> list:
    text = text.strip()
    if not text:
        return []
    return [convert(part) for part in text.split(",")]


def _float_list(text: str) -> list:
    return _comma_list(text, _finite_float)


def _int_list(text: str) -> list:
    return _comma_list(text, int)


def _grid(text: str) -> list | tuple:
    """Either a comma list of values or 'start:stop:count' for a linspace,
    kept as the tuple (start, stop, count) until the handler expands it."""
    if ":" in text:
        start, stop, count = text.split(":")
        if int(count) < 1:
            raise argparse.ArgumentTypeError(f"grid count must be positive: {count!r}")
        return _finite_float(start), _finite_float(stop), int(count)
    return _float_list(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fejercert",
        description="Certification toolkit for Fejér-filtered sampling on block one-hot spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, instance: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", "-o", required=True, help="output document path")
        p.add_argument("--degrees", action="store_true",
                       help="interpret angle arguments in degrees")
        if instance:
            p.add_argument("--instance", required=True)
            p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                           help="enumeration cap on n**m (default %(default)s)")
        return p

    certify = command("certify", "end-to-end success certificate for an instance")
    certify.add_argument("--gamma", type=_finite_float, required=True, help="base cost angle")
    certify.add_argument("--order", "-p", type=int, required=True, help="filter order p")
    certify.add_argument("--betas", type=_float_list, default=None,
                         help="comma-separated mixer angles (one per layer)")
    certify.add_argument("--envelope", default=None,
                         help="JSON array with an external diagonal envelope")
    certify.add_argument("--law-output", default=None,
                         help="also write the exact filtered law as CSV")
    certify.add_argument("--epsilon", type=_finite_float, default=0.1)
    certify.add_argument("--eta", type=_finite_float, default=0.5)
    certify.add_argument("--scope", choices=["all", "feasible"], default="all")
    certify.add_argument("--convention", choices=["adjacency", "normalized"], default="adjacency")

    plan = command("plan", "certificate arithmetic from given (p, C_beta, delta)", instance=False)
    plan.add_argument("--order", "-p", type=int, required=True)
    plan.add_argument("--c-beta", type=_finite_float, required=True)
    plan.add_argument("--delta", type=_finite_float, required=True)
    plan.add_argument("--epsilon", type=_finite_float, default=0.1)
    plan.add_argument("--eta", type=_finite_float, default=0.5)

    curves = command("curves", "C_min certification curves as CSV", instance=False)
    curves.add_argument("--deltas", type=_grid, required=True,
                        help="comma list or start:stop:count grid of phase gaps")
    curves.add_argument("--orders", type=_int_list, required=True,
                        help="comma-separated filter orders")
    curves.add_argument("--epsilon", type=_finite_float, default=0.1)

    envelope = command("envelope", "mixer envelope of an instance")
    envelope.add_argument("--betas", type=_float_list, default=[])
    envelope.add_argument("--v0", default=None, help="JSON array with an external initial diagonal")
    envelope.add_argument("--convention", choices=["adjacency", "normalized"], default="adjacency")
    envelope.add_argument("--format", choices=["json", "csv"], default="json")

    feasibility = command("feasibility", "level sets, connectivity, and feasibility bounds")
    feasibility.add_argument("--gamma", type=_finite_float, required=True)
    feasibility.add_argument("--search-order", type=int, default=2)
    feasibility.add_argument("--budget", type=int, default=200, help="angle-search evaluations")
    feasibility.add_argument("--seed", type=int, default=0)
    feasibility.add_argument("--no-search", action="store_true")

    rl_cmd = command("rl", "dither-averaged filtering report")
    rl_cmd.add_argument("--gamma", type=_finite_float, required=True)
    rl_cmd.add_argument("--order", "-p", type=int, required=True)
    rl_cmd.add_argument("--half-width", type=_finite_float, required=True,
                        help="dither window half-width")
    rl_cmd.add_argument("--samples", type=int, default=200)
    rl_cmd.add_argument("--seed", type=int, default=0)
    rl_cmd.add_argument("--pooled", action="store_true",
                        help="normalize after averaging (no bound asserted)")
    rl_cmd.add_argument("--law-output", default=None, help="also write the averaged law as CSV")

    simulate = command("simulate", "coherent statevector run")
    simulate.add_argument("--gammas", type=_float_list, required=True)
    simulate.add_argument("--betas", type=_float_list, required=True)
    simulate.add_argument("--convention", choices=["adjacency", "normalized"], default="adjacency")
    simulate.add_argument("--shots", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=0)

    return parser


def _to_radians(args: argparse.Namespace) -> None:
    if not getattr(args, "degrees", False):
        return
    for name in ("gamma", "delta", "half_width"):
        if getattr(args, name, None) is not None:
            setattr(args, name, math.radians(getattr(args, name)))
    # curves converts its delta grid after expanding it
    for name in ("betas", "gammas"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(args, name, [math.radians(v) for v in value])


def _adjacency_betas(args: argparse.Namespace, n: int) -> list:
    """The library takes A(K_n) mixer angles; --convention normalized gives
    A(K_n)/n angles, and A(K_n)/n at beta is A(K_n) at beta/n."""
    betas = args.betas or []
    return [beta / n for beta in betas] if args.convention == "normalized" else betas


def _load_diagonal(path: str, size: int) -> Envelope:
    data = read_json(path)
    if not isinstance(data, list) or len(data) != size:
        raise ValueError(f"external diagonal must be a JSON array of length {size}")
    return external_envelope(data)


# ---------------------------------------------------------------------------
# Command handlers: each computes (exit code, [(path, text), ...]) and writes
# nothing; main loads the instance and writes the outputs in order.
# ---------------------------------------------------------------------------

def _certificate_document(
    command: str,
    cert: Certificate,
    status: str,
    *,
    gamma=None,
    bound_satisfied=None,
    gap_scope=None,
    collisions=None,
    envelope_source=None,
) -> dict:
    """The certificate document of ``certify`` and ``plan``; fields that need
    an instance are null unless given."""
    return {
        **dataclasses.asdict(cert),
        "command": command,
        "status": status,
        "regime": cert.regime.value,
        "gamma": gamma,
        "bound_satisfied": bound_satisfied,
        "gap_scope": gap_scope,
        "collisions": collisions,
        "envelope_source": envelope_source,
        "seed": None,
    }


def _cmd_certify(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    scope = GapScope.ALL_STRINGS if args.scope == "all" else GapScope.FEASIBLE_ONLY
    _check_order(args.order)

    if args.envelope is not None:
        if args.betas:
            raise ValueError("--envelope and --betas are mutually exclusive")
        env = _load_diagonal(args.envelope, inst.size)
        source = "external"
    else:
        betas = _adjacency_betas(args, inst.n)
        if betas and len(betas) != args.order:
            raise ValueError("need exactly one beta per layer")
        env = mixer_envelope(inst, uniform_envelope(inst.n, inst.m), betas)
        source = "reference_uniform"

    pm = phase_gap(inst, args.gamma, scope)
    c_beta = envelope_mass(env, pm.omega_star)

    law = filtered_distribution(env, pm, args.order)
    q0_exact = success_probability(law, pm.omega_star)

    if pm.collided:
        status = "uncertifiable"
        delta = 0.0
    else:
        status = "certified"
        delta = pm.delta

    cert = build_certificate(
        args.order, c_beta, delta, args.epsilon, eta=args.eta,
        q0_exact=q0_exact, status=status,
    )
    bound_ok = q0_exact >= cert.q0_bound - BOUND_SLACK
    if status == "certified" and not bound_ok:
        # Reachable only under the feasible-only gap scope, when an
        # out-of-scope string sits inside the gap; the bound is then vacuous
        # for this configuration and the certificate says so explicitly.
        status = "uncertifiable"

    document = _certificate_document(
        "certify", cert, status,
        gamma=args.gamma,
        bound_satisfied=bound_ok,
        gap_scope=pm.gap_scope.value,
        collisions=[format_string(index_string(i, inst.n, inst.m)) for i in pm.colliding]
        or None,
        envelope_source=source,
    )
    outputs = [(args.output, serialize.dumps_json(document))]
    if args.law_output is not None:
        outputs.append((args.law_output, serialize.filtered_law_csv(
            law.probs, pm.theta, law.kernel, inst.n, inst.m)))
    return (EXIT_UNCERTIFIABLE if status == "uncertifiable" else EXIT_OK), outputs


def _cmd_plan(args: argparse.Namespace) -> tuple:
    cert = build_certificate(args.order, args.c_beta, args.delta, args.epsilon, eta=args.eta)
    document = _certificate_document("plan", cert, cert.status)
    return EXIT_OK, [(args.output, serialize.dumps_json(document))]


def _cmd_curves(args: argparse.Namespace) -> tuple:
    if not args.deltas:
        raise ValueError("delta grid is empty")
    if not args.orders:
        raise ValueError("order list is empty")
    deltas = args.deltas
    if isinstance(deltas, tuple):
        start, stop, count = deltas
        if not math.isfinite(stop - start):
            raise ValueError(f"delta grid span {start!r}:{stop!r} is not finite")
        deltas = [float(v) for v in np.linspace(start, stop, count)]
    deltas = sorted(map(math.radians, deltas) if args.degrees else deltas)
    orders = sorted(args.orders)
    rows = []
    for p in orders:
        values = cmin_curve(deltas, args.epsilon, p)
        rows.extend((d, p, args.epsilon, c) for d, c in zip(deltas, values))
    return EXIT_OK, [(args.output, serialize.curves_csv(rows))]


def _cmd_envelope(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    v0 = (
        _load_diagonal(args.v0, inst.size)
        if args.v0 is not None
        else uniform_envelope(inst.n, inst.m)
    )
    env = mixer_envelope(inst, v0, _adjacency_betas(args, inst.n))
    if args.format == "json":
        text = serialize.dumps_json(list(env.probs))
    else:
        text = serialize.envelope_csv(env.probs, inst.n, inst.m)
    return EXIT_OK, [(args.output, text)]


def _cmd_feasibility(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    ls = feas.level_sets(inst)
    graph = feas.level_graph(ls, inst.n, inst.m)
    sep = feas.delta_feasible(args.gamma, ls)
    c_f = float(ls.levels[0].size) / inst.size if 0 in ls.levels else 0.0

    if sep.delta > 0.0 and c_f > 0.0:
        bounds = {
            f"p{p}": feas.feasibility_bound(p, c_f, sep.delta)._asdict() for p in (1, 2)
        }
    else:
        bounds = None

    search = None
    if not args.no_search:
        search = dataclasses.asdict(
            feas.feasibility_angle_search(inst, args.search_order, args.budget, args.seed)
        )

    document = {
        "command": "feasibility",
        "gamma": args.gamma,
        "levels": {str(t): size for t, size in ls.histogram().items()},
        "graph": {
            "vertices": list(graph.vertices),
            "edges": [list(edge) for edge in graph.edges],
        },
        "connected": feas.graph_connected(graph),
        "delta_f": sep.delta,
        "aliasing": sep.aliasing,
        "collided": sep.collided,
        "c_f": c_f,
        "bounds": bounds,
        "search": search,
        "seed": args.seed,
    }
    code = EXIT_UNCERTIFIABLE if sep.collided else EXIT_OK
    return code, [(args.output, serialize.dumps_json(document))]


def _cmd_rl(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    window = rl.DitherWindow(half_width=args.half_width)
    env = uniform_envelope(inst.n, inst.m)
    omega = inst.optimal_indices()
    gap = rl.energy_gap(inst)
    c_beta = envelope_mass(env, omega)
    mbar = rl.averaged_offpeak_bound(args.order, args.half_width, gap)
    bound = rl.rl_success_bound(args.order, c_beta, mbar.exact)
    law = rl.rl_filtered_distribution(
        env, inst, args.gamma, window, args.order,
        samples=args.samples, seed=args.seed, pooled=args.pooled, subset=omega,
    )
    document = {
        "command": "rl",
        "gamma": args.gamma,
        "order": args.order,
        "half_width": args.half_width,
        "samples": args.samples,
        "seed": args.seed,
        "pooled": args.pooled,
        "g": gap,
        "mbar_exact": mbar.exact,
        "mbar_log": mbar.log_form,
        "bound": bound,
        # subset and total masses are summed in different orders, so the
        # ratio can exceed 1 by an ulp
        "success_mass": min(1.0, max(0.0, law.subset_mass)),
        "success_stderr": law.subset_stderr,
    }
    outputs = [(args.output, serialize.dumps_json(document))]
    if args.law_output is not None:
        outputs.append(
            (args.law_output, serialize.rl_law_csv(law.probs, law.stderr, inst.n, inst.m))
        )
    return EXIT_OK, outputs


def _cmd_simulate(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    state = oracle.simulate(inst, args.gammas, _adjacency_betas(args, inst.n))
    omega = inst.optimal_indices()
    feasible = inst.feasible_indices()
    document = {
        "command": "simulate",
        "gammas": args.gammas,
        "betas": args.betas,
        "convention": args.convention,
        "success_probability": oracle.projector_mass(state, omega),
        "feasibility_probability": oracle.projector_mass(state, feasible),
        "seed": args.seed if args.shots is not None else None,
        "shots": args.shots,
    }
    if args.shots is not None:
        report = oracle.sample_shots(state.probabilities(), args.shots, args.seed, omega)
        document["counts"] = {
            format_string(index_string(i, inst.n, inst.m)): int(c)
            for i, c in enumerate(report.counts)
            if c > 0
        }
        document["success_frequency"] = report.frequency
        document["success_ci"] = [report.ci_low, report.ci_high]
    return EXIT_OK, [(args.output, serialize.dumps_json(document))]


_HANDLERS = {
    "certify": _cmd_certify,
    "plan": _cmd_plan,
    "curves": _cmd_curves,
    "envelope": _cmd_envelope,
    "feasibility": _cmd_feasibility,
    "rl": _cmd_rl,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _to_radians(args)
    handler = _HANDLERS[args.command]
    try:
        if "instance" in args:
            code, outputs = handler(args, load_instance_file(args.instance, cap=args.cap))
        else:
            code, outputs = handler(args)
        for path, text in outputs:
            serialize.atomic_write_text(path, text)
        return code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, MemoryError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
