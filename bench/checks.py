"""Reference computations and output checks for the benchmark.

Everything here is computed from the instance document with plain numpy;
nothing imports fejercert.  Mixer unitaries come from an eigendecomposition
of the block adjacency matrix, not from the closed forms the program uses,
and the Fejér weights come from the explicit Dirichlet sum.  Each check
returns a list of problems; an empty list means the document passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

TOL = 1e-12            # agreement with the reference computations
MASS_TOL = 1e-9        # total probability mass and uniformity
BOUND_SLACK = 1e-9     # slack certify allows between q0_exact and q0_bound
COLLISION_TOL = 1e-12  # phase distance below which two phases collide


# ---------------------------------------------------------------------------
# Instance tables
# ---------------------------------------------------------------------------

def strings(n: int, m: int) -> np.ndarray:
    """All block strings in canonical order (block 0 varies fastest)."""
    idx = np.arange(n**m)
    return np.stack([(idx // n**b) % n for b in range(m)], axis=1)


def string_labels(n: int, m: int) -> list:
    return ["-".join(map(str, row)) for row in strings(n, m).tolist()]


def energies(doc: dict) -> np.ndarray:
    if "energy" in doc:
        return np.asarray(doc["energy"], dtype=np.int64)
    cost = np.asarray(doc["generator"]["cost"], dtype=np.int64)
    return cost[np.arange(doc["m"]), strings(doc["n"], doc["m"])].sum(axis=1)


def penalties(doc: dict) -> np.ndarray:
    """Column-collision penalty when m == n, all-feasible otherwise."""
    n, m = doc["n"], doc["m"]
    if n != m:
        return np.zeros(n**m, dtype=np.int64)
    table = strings(n, m)
    occupancy = np.stack([(table == k).sum(axis=1) for k in range(n)], axis=1)
    return ((occupancy - 1) ** 2).sum(axis=1)


def optimal_mask(doc: dict) -> np.ndarray:
    energy, feasible = energies(doc), penalties(doc) == 0
    return feasible & (energy == energy[feasible].min())


def circular_distance(x: np.ndarray) -> np.ndarray:
    return np.abs(np.angle(np.exp(1j * np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# Dynamics
# ---------------------------------------------------------------------------

def block_unitary(n: int, beta: float) -> np.ndarray:
    """exp(-i beta A(K_n)) by eigendecomposition of the adjacency matrix."""
    lam, vec = np.linalg.eigh(np.ones((n, n)) - np.eye(n))
    return (vec * np.exp(-1j * beta * lam)) @ vec.conj().T


def apply_per_block(mat: np.ndarray, vec: np.ndarray, n: int, m: int) -> np.ndarray:
    v = vec.reshape((n,) * m, order="F")
    for axis in range(m):
        v = np.moveaxis(np.tensordot(mat, v, axes=([1], [axis])), 0, axis)
    return v.reshape(-1, order="F")


def envelope(n: int, m: int, betas) -> np.ndarray:
    """Uniform start propagated through one |U|^2 kernel per angle."""
    env = np.full(n**m, 1.0 / n**m)
    for beta in betas:
        env = apply_per_block(np.abs(block_unitary(n, beta)) ** 2, env, n, m)
    return env


def statevector_probs(doc: dict, gammas, betas) -> np.ndarray:
    n, m = doc["n"], doc["m"]
    energy = energies(doc).astype(float)
    psi = np.full(n**m, n ** (-m / 2.0), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        psi = apply_per_block(block_unitary(n, beta), psi * np.exp(-1j * gamma * energy), n, m)
    return np.abs(psi) ** 2


def fejer_weights(p: int, offsets: np.ndarray) -> np.ndarray:
    total = np.exp(1j * np.outer(offsets, np.arange(p + 1))).sum(axis=1)
    return np.abs(total) ** 2 / (p + 1)


def ratio_bound(p: int, c: float, delta: float) -> tuple:
    """(x, q0_bound) of the ratio-form success bound."""
    x = (p + 1) ** 2 * math.sin(delta / 2.0) ** 2 * c
    return x, (x / ((1.0 - c) + x) if x > 0.0 else 0.0)


def certify_reference(doc: dict, gamma: float, p: int, betas, feasible_scope: bool) -> dict:
    """Expected certify outcome: c_beta, q0_exact, delta, status, the law."""
    n, m = doc["n"], doc["m"]
    energy, omega = energies(doc), optimal_mask(doc)
    env = envelope(n, m, betas)
    c_beta = float(env[omega].sum())
    offsets = gamma * (energy - energy[omega][0]).astype(float)
    weights = env * fejer_weights(p, offsets)
    law = weights / weights.sum()
    q0_exact = float(law[omega].sum())
    scope = penalties(doc) == 0 if feasible_scope else np.ones(n**m, dtype=bool)
    dist = circular_distance(offsets[scope & ~omega])
    if dist.size and dist.min() < COLLISION_TOL:
        delta, status = 0.0, "uncertifiable"
    else:
        delta = float(dist.min()) if dist.size else math.pi
        certified = q0_exact >= ratio_bound(p, c_beta, delta)[1] - BOUND_SLACK
        status = "certified" if certified else "uncertifiable"
    return {
        "c_beta": c_beta, "q0_exact": q0_exact, "delta": delta, "status": status,
        "exit": 0 if status == "certified" else 3, "law": law, "omega": omega,
    }


def energy_gap(doc: dict) -> float:
    energy, omega = energies(doc), optimal_mask(doc)
    rest = energy[~omega]
    return float(np.abs(rest - energy[omega][0]).min()) if rest.size else math.inf


def level_histogram(n: int, m: int) -> dict:
    levels, counts = np.unique(penalties({"n": n, "m": m}), return_counts=True)
    return {str(int(t)): int(c) for t, c in zip(levels, counts)}


def feasibility_exit(n: int, m: int, gamma: float) -> int:
    levels = np.asarray([int(t) for t in level_histogram(n, m) if int(t) > 0], dtype=float)
    collided = levels.size and circular_distance(gamma * levels).min() < COLLISION_TOL
    return 3 if collided else 0


# ---------------------------------------------------------------------------
# Document checks
# ---------------------------------------------------------------------------

class Schemas:
    """The JSON schemas shipped with the program, read as data files."""

    def __init__(self, directory: Path):
        self._dir = directory
        self._validators = {}

    def problems(self, name: str, doc) -> list:
        if name not in self._validators:
            schema = json.loads((self._dir / f"{name}.schema.json").read_text("utf-8"))
            self._validators[name] = jsonschema.Draft202012Validator(schema)
        return [f"{name} schema: {e.message}" for e in self._validators[name].iter_errors(doc)]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _close(label: str, got, want, tol: float = TOL) -> list:
    if not _finite(got) or abs(got - want) > tol:
        return [f"{label} = {got!r}, expected {want!r} within {tol}"]
    return []


def _csv_rows(text: str, header: str) -> tuple:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        return None, [f"CSV header {lines[0]!r} != {header!r} or missing final newline"]
    return [line.split(",") for line in lines[1:-1]], []


def check_certify(doc: dict, ref: dict, schemas: Schemas) -> list:
    out = schemas.problems("certificate", doc)
    out += _close("c_beta", doc.get("c_beta"), ref["c_beta"])
    out += _close("q0_exact", doc.get("q0_exact"), ref["q0_exact"])
    out += _close("delta", doc.get("delta"), ref["delta"])
    if doc.get("status") != ref["status"]:
        out.append(f"status {doc.get('status')!r}, expected {ref['status']!r}")
    if doc.get("status") == "certified" and doc["q0_exact"] < doc["q0_bound"] - BOUND_SLACK:
        out.append("certified document has q0_exact below q0_bound")
    return out


def check_law_csv(text: str, ref: dict, labels: list) -> list:
    rows, out = _csv_rows(text, "string,phase,fejer_weight,probability")
    if out:
        return out
    if [r[0] for r in rows] != labels:
        return ["law CSV strings are not in canonical order"]
    probs = np.asarray([float(r[3]) for r in rows])
    if np.max(np.abs(probs - ref["law"])) > TOL:
        out.append("law CSV probabilities differ from the reference law")
    return out


def check_plan(doc: dict, p: int, c: float, delta: float, schemas: Schemas) -> list:
    x, q0_bound = ratio_bound(p, c, delta)
    return (schemas.problems("certificate", doc) + _close("x", doc.get("x"), x)
            + _close("q0_bound", doc.get("q0_bound"), q0_bound))


def check_curves(text: str, deltas, orders, epsilon: float) -> list:
    rows, out = _csv_rows(text, "delta,p,epsilon,c_min")
    if out:
        return out
    want = [(d, p) for p in sorted(orders) for d in sorted(deltas)]
    if len(rows) != len(want):
        return [f"curves CSV has {len(rows)} rows, expected {len(want)}"]
    for row, (d, p) in zip(rows, want):
        c_min = 1.0 / (1.0 + epsilon / (1.0 - epsilon) * (p + 1) ** 2 * math.sin(d / 2.0) ** 2)
        out += _close(f"c_min(delta={d}, p={p})", float(row[3]), c_min)
    return out


def check_rl(doc: dict, gap: float, schemas: Schemas) -> list:
    out = schemas.problems("rl_report", doc)
    for key in ("success_mass", "bound"):
        if not (_finite(doc.get(key)) and 0.0 <= doc[key] <= 1.0):
            out.append(f"{key} = {doc.get(key)!r} is not a finite number in [0, 1]")
    for key in ("mbar_exact", "mbar_log", "success_stderr"):
        if not _finite(doc.get(key)):
            out.append(f"{key} = {doc.get(key)!r} is not finite")
    if doc.get("g") != gap:
        out.append(f"energy gap {doc.get('g')!r}, expected {gap!r}")
    return out


def check_rl_law(text: str, labels: list) -> list:
    rows, out = _csv_rows(text, "string,probability,stderr")
    if out:
        return out
    if [r[0] for r in rows] != labels:
        return ["rl law CSV strings are not in canonical order"]
    table = np.asarray([[float(r[1]), float(r[2])] for r in rows])
    if not np.all(np.isfinite(table)):
        return ["rl law CSV has non-finite values"]
    if table[:, 0].min() < 0.0 or table[:, 0].max() > 1.0 or table[:, 1].min() < 0.0:
        out.append("rl law probabilities outside [0, 1] or negative stderr")
    out += _close("rl law mass", float(table[:, 0].sum()), 1.0, MASS_TOL)
    return out


def _uniform(probs: np.ndarray) -> list:
    size = probs.size
    out = _close("envelope mass", float(probs.sum()), 1.0, MASS_TOL)
    if np.max(np.abs(probs * size - 1.0)) > MASS_TOL:
        out.append("uniform v0 did not come back uniform")
    return out


def check_envelope_json(doc, size: int) -> list:
    if not isinstance(doc, list) or len(doc) != size:
        return [f"envelope JSON is not a list of {size} numbers"]
    return _uniform(np.asarray(doc, dtype=float))


def check_envelope_csv(text: str, labels: list) -> list:
    rows, out = _csv_rows(text, "string,probability")
    if out:
        return out
    if [r[0] for r in rows] != labels:
        return ["envelope CSV strings are not in canonical order"]
    return _uniform(np.asarray([float(r[1]) for r in rows]))


def check_feasibility(doc: dict, n: int, m: int, search: bool, schemas: Schemas) -> list:
    out = schemas.problems("feasibility_report", doc)
    histogram = level_histogram(n, m)
    if doc.get("levels") != histogram:
        out.append(f"level histogram {doc.get('levels')!r}, expected {histogram!r}")
    floor = math.factorial(n) / n**m
    if histogram.get("0") != math.factorial(n):
        out.append("feasible count is not n!")
    out += _close("c_f", doc.get("c_f"), floor)
    if search:
        pi_f = (doc.get("search") or {}).get("pi_f")
        if not (_finite(pi_f) and pi_f >= floor - TOL):
            out.append(f"search pi_f = {pi_f!r} below n!/n^n = {floor!r}")
    elif doc.get("search") is not None:
        out.append("--no-search report carries a search result")
    return out


def check_simulate(doc: dict, inst: dict, gammas, betas, shots) -> list:
    probs = statevector_probs(inst, gammas, betas)
    omega = optimal_mask(inst)
    out = _close("success_probability", doc.get("success_probability"), float(probs[omega].sum()))
    feasible = penalties(inst) == 0
    out += _close("feasibility_probability", doc.get("feasibility_probability"),
                  float(probs[feasible].sum()))
    if shots is None:
        return out
    counts = doc.get("counts") or {}
    if sum(counts.values()) != shots:
        out.append(f"counts sum to {sum(counts.values())}, expected {shots}")
    optimal = {label for label, hit in zip(string_labels(inst["n"], inst["m"]), omega) if hit}
    hits = sum(c for label, c in counts.items() if label in optimal)
    out += _close("success_frequency", doc.get("success_frequency"), hits / shots)
    return out
