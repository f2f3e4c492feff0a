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
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import feasibility as feas
from . import oracle, rl, serialize
from .fejer import _check_order, filtered_distribution, success_probability
from .instance import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    GapScope,
    ProblemInstance,
    load_instance_file,
    phase_gap,
    read_json,
)
from .mixer import (
    Envelope,
    envelope_mass,
    external_envelope,
    mixer_envelope,
    single_block_kernel,
    uniform_envelope,
)
from .planner import Certificate, build_certificate, cmin_curve, ratio_bounds, ratio_parameter

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_UNCERTIFIABLE = 3
EXIT_CAP = 4

BOUND_SLACK = 1e-9  # relative, so that the cross-check binds however small the bound


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


@functools.cache
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
                           help="cap on the largest table a path allocates: n**m, or the "
                                "orbit-sector dimension (default %(default)s)")
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
    envelope.add_argument("--betas", type=_float_list, default=None)
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

    simulate = command("simulate", "coherent circuit run: block product state or statevector")
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
    for i, entry in enumerate(data):
        # json loads true as an int, asarray would parse "0.5", and an int
        # past the float range would raise OverflowError there
        if type(entry) not in (int, float) or not abs(entry) <= sys.float_info.max:
            raise ValueError(f"external diagonal entry {i} is not a finite JSON number: "
                             f"{entry!r:.40}")
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
    an instance are null unless given, and so are the shots of x = 0."""
    return {
        **dataclasses.asdict(cert),
        "shots": None if cert.shots == math.inf else cert.shots,
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
    inst.e_star()  # names an empty feasible set before c_beta divides its count

    if args.envelope is not None:
        if args.betas:
            raise ValueError("--envelope and --betas are mutually exclusive")
        env = _load_diagonal(args.envelope, inst.size)
        index = inst.levels.index(inst.energy)
        level_mass = np.bincount(index.of_string, weights=env.probs)
        with warnings.catch_warnings():  # a zero mass is an uncertifiable document
            warnings.filterwarnings("ignore", "subset carries zero envelope mass")
            c_beta = envelope_mass(env, inst.optimal_indices())
        source = "external"
    else:
        betas = _adjacency_betas(args, inst.n)
        if betas and len(betas) != args.order:
            raise ValueError("need exactly one beta per layer")
        for beta in betas:  # the uniform envelope is a fixed point: only check each angle
            single_block_kernel(inst.n, beta)
        # exact count / n**m shares, which a float sum of entries 1 / n**m can miss
        level_mass = inst.levels.shares()
        c_beta = inst.feasible_levels.counts[0] / inst.size
        env = index = None
        source = "reference_uniform"

    pm = phase_gap(inst, args.gamma, scope)
    law = filtered_distribution(level_mass, pm.offsets(), args.order)
    q0_exact = success_probability(args.order, c_beta, law.denominator)

    status, collisions = "certified", None
    if pm.collided:  # delta is 0: list the non-optimal strings on the colliding levels
        status = "uncertifiable"
        collisions = serialize.string_labels_at(
            inst.nonoptimal_strings(scope, pm.colliding), inst.n, inst.m)

    cert = build_certificate(
        args.order, c_beta, pm.delta, args.epsilon, eta=args.eta,
        q0_exact=q0_exact,
    )
    bound_ok = q0_exact >= cert.q0_bound * (1.0 - BOUND_SLACK)
    if not bound_ok or cert.q0_bound == 0.0:
        # A zero bound (say, no envelope mass on Omega*) certifies nothing.
        # A failed cross-check is reachable only under the feasible-only gap
        # scope, when an out-of-scope string sits inside the gap; the bound
        # is then vacuous for this configuration.
        status = "uncertifiable"

    document = _certificate_document(
        "certify", cert, status,
        gamma=args.gamma,
        bound_satisfied=bound_ok,
        gap_scope=scope.value,
        collisions=collisions,
        envelope_source=source,
    )
    outputs = [(args.output, serialize.dumps_json(document))]
    if args.law_output is not None:  # by level, but for an external envelope's probability
        if env is None:
            index, share = inst.levels.index(inst.energy), 1.0 / inst.size
            by_level = (pm.level_theta, law.kernel, share * law.kernel / law.denominator)
            by_string = ()
        else:
            by_level = (pm.level_theta, law.kernel)
            by_string = (env.probs * law.kernel[index.of_string] / law.denominator,)
        outputs.append((args.law_output, serialize.filtered_law_csv(
            index.of_string, by_level, by_string, inst.n, inst.m)))
    return (EXIT_UNCERTIFIABLE if status == "uncertifiable" else EXIT_OK), outputs


def _cmd_plan(args: argparse.Namespace) -> tuple:
    cert = build_certificate(args.order, args.c_beta, args.delta, args.epsilon, eta=args.eta)
    document = _certificate_document("plan", cert, "planned")
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
        text = serialize.dumps_json(env.probs)
    else:
        text = serialize.envelope_csv(env.probs, inst.n, inst.m)
    return EXIT_OK, [(args.output, text)]


def _cmd_feasibility(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    ls = feas.level_sets(inst)
    graph = feas.level_graph(inst, ls)
    sep = feas.delta_feasible(args.gamma, ls)
    # exact int/int division: n**m reaches 2**64 at 16x16
    c_f = ls.counts[0] / inst.size if ls.values[0] == 0 else 0.0

    bounds = None
    if sep.delta > 0.0 and c_f > 0.0:
        bounds = {}
        for p in (1, 2):  # the shallow orders, with prefactors (p+1)^2 = 4 and 9
            x = ratio_parameter(p, sep.delta, c_f)
            bounds[f"p{p}"] = {"x_f": x, **ratio_bounds(x, c_f)._asdict()}

    search = None
    if not args.no_search:
        search = dataclasses.asdict(
            feas.feasibility_angle_search(inst, args.search_order, args.budget, args.seed)
        )

    document = {
        "command": "feasibility",
        "gamma": args.gamma,
        "levels": {str(t): _writable_count(t, size) for t, size in zip(ls.values, ls.counts)},
        "graph": {
            "vertices": list(graph.vertices),
            "edges": [list(edge) for edge in graph.edges],
        },
        "connected": feas.graph_connected(graph),
        "delta_f": sep.delta,
        "aliasing": feas.aliasing(args.gamma, ls),
        "collided": sep.collided,
        "c_f": c_f,
        "bounds": bounds,
        "search": search,
        "seed": args.seed,
    }
    code = EXIT_UNCERTIFIABLE if sep.collided else EXIT_OK
    return code, [(args.output, serialize.dumps_json(document))]


def _writable_count(level, count: int) -> int:
    """A level count within Python's int-to-str limit, so a document can hold it."""
    try:
        str(count)
        return count
    except ValueError:
        digits = math.floor(math.log10(count)) + 1
        digits += (count >= 10**digits) - (count < 10 ** (digits - 1))  # log10 rounds
        raise ValueError(f"the `levels` count of level {level} has {digits} digits, past the "
                         f"{sys.get_int_max_str_digits()}-digit limit on writing it") from None


def _cmd_rl(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    window = rl.DitherWindow(half_width=args.half_width)
    rl.optimal_level(inst)  # names a zero energy gap before the bound reads it
    gap = rl.energy_gap(inst)
    c_beta = inst.feasible_levels.counts[0] / inst.size  # the uniform envelope's, as in certify
    mbar = rl.averaged_offpeak_bound(args.order, args.half_width, gap)
    # Mbar takes the place of M_p(delta) in x = (p+1) C / M_p(delta)
    bound = ratio_bounds((args.order + 1) * c_beta / mbar.exact, c_beta).tight
    law = rl.rl_filtered_distribution(
        inst.levels.shares(), inst, args.gamma, window, args.order,
        samples=args.samples, seed=args.seed, pooled=args.pooled,
    )
    document = {
        "command": "rl",
        "gamma": args.gamma,
        "order": args.order,
        "half_width": args.half_width,
        "samples": args.samples,
        "seed": args.seed,
        "pooled": args.pooled,
        "g": None if gap == math.inf else gap,  # every string is optimal
        "mbar_exact": mbar.exact,
        "mbar_log": mbar.log_form,
        "bound": bound,
        # a level's mass and its normalizer are rounded apart, so the ratio
        # can exceed 1 by an ulp
        "success_mass": oracle.unit_mass(law.success_mass),
        "success_stderr": law.success_stderr,
    }
    outputs = [(args.output, serialize.dumps_json(document))]
    if args.law_output is not None:  # by level, each string at the uniform envelope's share
        level_of, share = inst.levels.index(inst.energy).of_string, 1.0 / inst.size
        probs, stderr, samples = share * law.level_mean, None, law.samples
        if args.pooled:  # normalized by the pairwise sum over the strings
            probs = probs / float(probs[level_of].sum())
        else:  # the one-pass variance of the per-draw laws
            variance = (share * share * law.level_sum_sq - samples * probs**2) / (samples - 1)
            stderr = np.sqrt(np.maximum(variance, 0.0) / samples)
        outputs.append((args.law_output, serialize.rl_law_csv(level_of, probs, stderr,
                                                              inst.n, inst.m)))
    return EXIT_OK, outputs


def _cmd_simulate(args: argparse.Namespace, inst: ProblemInstance) -> tuple:
    """On an instance in product form, the state is kept as m block vectors
    and its masses are read without the n**m strings; otherwise it is the
    statevector."""
    betas = _adjacency_betas(args, inst.n)
    if inst.product_form:
        probs = np.abs(oracle.simulate_blocks(inst, args.gammas, betas)) ** 2
        masses = inst.product_masses(probs)
        success, feasible = oracle.unit_mass(masses.optimal), oracle.unit_mass(masses.feasible)
    else:
        state = oracle.simulate(inst, args.gammas, betas)
        omega = inst.optimal_indices()
        success = oracle.projector_mass(state, omega)
        feasible = oracle.projector_mass(state, inst.feasible_indices())
    document = {
        "command": "simulate",
        "gammas": args.gammas,
        "betas": args.betas,
        "convention": args.convention,
        "success_probability": success,
        "feasibility_probability": feasible,
        "seed": args.seed if args.shots is not None else None,
        "shots": args.shots,
    }
    if args.shots is not None:
        if inst.product_form:
            symbols, report = oracle.sample_block_shots(inst, probs, args.shots, args.seed,
                                                        masses.e_star)
            labels, counts = serialize.string_labels_of(symbols, inst.n), report.counts
        else:
            report = oracle.sample_shots(state.probabilities(), args.shots, args.seed, omega)
            hits = np.flatnonzero(report.counts)
            labels = serialize.string_labels_at(hits, inst.n, inst.m)
            counts = report.counts[hits]
        document["counts"] = dict(zip(labels, counts.tolist()))
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
        if "seed" in args and not 0 <= args.seed < 2**63:
            raise ValueError(f"--seed {args.seed} must lie in [0, 2**63)")
        law_output = getattr(args, "law_output", None)
        if law_output is not None and Path(law_output).resolve() == Path(args.output).resolve():
            raise ValueError(f"--law-output and --output name the same file: {law_output}")
        if "instance" in args:
            inst = load_instance_file(args.instance, cap=args.cap)
            # feasibility, and simulate in product form, bound their own tables
            if not (args.command == "feasibility"
                    or args.command == "simulate" and inst.product_form):
                inst.checked_size()
            code, outputs = handler(args, inst)
        else:
            code, outputs = handler(args)
        for path, text in outputs:
            serialize.atomic_write_text(path, text)
        return code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, MemoryError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
