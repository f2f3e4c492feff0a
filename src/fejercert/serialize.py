"""Stable on-disk formats: deterministic JSON and CSV emitters, atomic
writes, and access to the shipped JSON schemas.

Identical inputs must produce byte-identical files: JSON is dumped with
sorted keys and repr-roundtrip floats, CSV uses repr floats, LF endings, and
a header row.  Documents hold JSON values only: `shots` is null when x = 0
and `rl`'s `g` is null when every string is optimal, and any other
non-finite value raises ValueError, which the command line exits 2 on.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from collections.abc import Iterable, Sequence
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

SCHEMA_NAMES = ("instance", "certificate", "feasibility_report", "rl_report")
# values per run of a top-level float array, between which its memo may be cleared
_JSON_RUN = 1024
_DOUBLE, _INT64 = struct.Struct("d"), struct.Struct("q")


def dumps_json(obj) -> str:
    if isinstance(obj, np.ndarray):
        if not (obj.dtype == np.float64 and obj.ndim == 1 and obj.size and np.isfinite(obj).all()):
            raise ValueError("an array document must be a nonempty vector of finite floats")
        # the layout of json.dumps(..., indent=2), whose indenting encoder is pure Python
        return "[\n  " + ",\n  ".join(chain.from_iterable(_float_reprs(obj, _JSON_RUN))) + "\n]\n"
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a whole document atomically (temp file then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def string_labels(n: int, m: int) -> list:
    """Dash-joined labels of all n**m block strings in canonical order
    (block 0 fastest), built by prefix extension."""
    symbols = [str(s) for s in range(n)]
    labels = symbols if m else [""]
    for _ in range(m - 1):
        labels = [p + "-" + s for s in symbols for p in labels]
    return labels


def string_labels_at(indices: np.ndarray, n: int, m: int) -> list:
    """Dash-joined labels of the block strings at canonical ``indices``,
    from their base-n digits, block 0 first."""
    symbols = [str(s) for s in range(n)]
    blocks = [map(symbols.__getitem__, (indices // n**b % n).tolist()) for b in range(m)]
    return list(map("-".join, zip(*blocks)))


class _ReprMemo(dict):
    """repr of a float64, keyed by its bit pattern, formatted on first use."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(_DOUBLE.unpack(_INT64.pack(bits))[0])
        return text


def _float_reprs(column: np.ndarray, run: int):
    """Yield the reprs of a float column as one list per run of ``run``
    values.  Each distinct bit pattern is formatted once, so -0.0 and 0.0
    (and NaN payloads) stay apart; the memo is cleared when it holds more
    than one run, so it never outgrows two."""
    bits = np.asarray(column, dtype=float).view(np.int64)
    memo = _ReprMemo()
    for start in range(0, bits.size, run):
        if len(memo) > run:
            memo.clear()
        yield list(map(memo.__getitem__, bits[start:start + run].tolist()))


def _labelled_csv(header: Sequence[str], n: int, m: int, *columns: np.ndarray) -> str:
    """One row per block string: its label, then the repr of each column's
    float.  Rows go out in runs that share the slow half of the blocks, so
    only one run of labels and formatted values is alive at a time."""
    fast = string_labels(n, (m + 1) // 2)
    runs = zip(string_labels(n, m // 2), *(_float_reprs(c, len(fast)) for c in columns))
    parts = [",".join(header)]
    for slow, *formatted in runs:
        suffix = "-" + slow if slow else ""
        parts.append("\n".join(map(",".join, zip([p + suffix for p in fast], *formatted))))
    return "\n".join(parts) + "\n"


def envelope_csv(probs: np.ndarray, n: int, m: int) -> str:
    return _labelled_csv(("string", "probability"), n, m, probs)


def filtered_law_csv(
    probs: np.ndarray, theta: np.ndarray, weights: np.ndarray, n: int, m: int
) -> str:
    return _labelled_csv(
        ("string", "phase", "fejer_weight", "probability"), n, m, theta, weights, probs
    )


def rl_law_csv(probs: np.ndarray, stderr: np.ndarray | None, n: int, m: int) -> str:
    """The averaged law; a pooled law (``stderr`` None) has no stderr column."""
    if stderr is None:
        return _labelled_csv(("string", "probability"), n, m, probs)
    return _labelled_csv(("string", "probability", "stderr"), n, m, probs, stderr)


def curves_csv(rows: Iterable[Sequence[float]]) -> str:
    lines = ["delta,p,epsilon,c_min"]
    lines.extend(f"{float(d)!r},{int(p)},{float(e)!r},{float(c)!r}" for d, p, e, c in rows)
    return "\n".join(lines) + "\n"


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by short name."""
    if name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {name!r}; available: {SCHEMA_NAMES}")
    text = resources.files("fejercert.schemas").joinpath(f"{name}.schema.json").read_text("utf-8")
    return json.loads(text)
