"""Stable on-disk formats: deterministic JSON and CSV emitters, atomic
writes, and access to the shipped JSON schemas.

Identical inputs must produce byte-identical files: JSON is dumped with
sorted keys and repr-roundtrip floats, CSV uses repr floats, LF endings, and
a header row.  Documents hold JSON values only: `shots` is null when x = 0
and `rl`'s `g` is null when every string is optimal; any other non-finite
value raises a ValueError naming its field, on which the command line exits 2.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from collections.abc import Iterable, Sequence
from importlib import resources
from itertools import chain, repeat
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
        texts = (repeat(repr(float(obj[0])), obj.size) if _one_value(obj)
                 else chain.from_iterable(_float_reprs(obj, _JSON_RUN)))
        return "[\n  " + ",\n  ".join(texts) + "\n]\n"
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # json's own text names no field
        for path, value in _leaves(obj, ""):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"document field {path} is {float(value)!r}, not finite") from None
        raise


def _leaves(value, path: str):
    """Each (path, value) of a document's leaves, the path as ``bounds.p1.x_f``
    or ``success_ci[1]``."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _leaves(child, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, child in enumerate(value):
            yield from _leaves(child, f"{path}[{i}]")
    else:
        yield path, value


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


def _one_value(column: np.ndarray) -> bool:
    """Whether a nonempty float column holds one bit pattern (-0.0 is not 0.0)."""
    bits = np.asarray(column, dtype=float).view(np.int64)
    return bool((bits == bits[0]).all())


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


def _labelled_csv(header: Sequence[str], n: int, m: int, level_of: np.ndarray | None,
                  by_level: Sequence[np.ndarray], by_string: Sequence[np.ndarray]) -> str:
    """One row per block string: its label, the ``by_level`` columns (each
    level's text formatted once and gathered to the rows through
    ``level_of``), then the ``by_string`` ones.  Rows go out in runs that
    share the slow half of the blocks, one join per run, so only one run of
    labels and formatted values is alive at a time; when every row ends
    alike (one level, no ``by_string`` column), a run joins just its labels."""
    fast = string_labels(n, (m + 1) // 2)
    level_text = np.array([",".join(("",) + row) for row in
                           zip(*(map(repr, c.tolist()) for c in by_level))], dtype=object)
    strings = zip(*(_float_reprs(c, len(fast)) for c in by_string))
    parts = [",".join(header) + "\n"]
    for start, slow in zip(range(0, n**m, len(fast)), string_labels(n, m // 2)):
        slow = "-" + slow if slow else ""
        if len(level_text) == 1 and not by_string:
            suffix = slow + level_text[0] + "\n"
            parts.append(suffix.join(fast) + suffix)
            continue
        row = [fast, repeat(slow)]
        if by_level:
            row.append(level_text[level_of[start:start + len(fast)]])
        for formatted in next(strings, ()):
            row += [repeat(","), formatted]
        parts.append("".join(chain.from_iterable(zip(*row, repeat("\n")))))
    return "".join(parts)


def envelope_csv(probs: np.ndarray, n: int, m: int) -> str:
    # an all-equal column (the uniform start, say) is a table of one level
    columns = ((probs[:1],), ()) if _one_value(probs) else ((), (probs,))
    return _labelled_csv(("string", "probability"), n, m, None, *columns)


def filtered_law_csv(level_of: np.ndarray, by_level: Sequence[np.ndarray],
                     by_string: Sequence[np.ndarray], n: int, m: int) -> str:
    """The filtered law's phase, Fejér weight and probability, by level and
    then by string (the probability, under an external envelope)."""
    return _labelled_csv(("string", "phase", "fejer_weight", "probability"), n, m,
                         level_of, by_level, by_string)


def rl_law_csv(level_of: np.ndarray, probs: np.ndarray, stderr: np.ndarray | None,
               n: int, m: int) -> str:
    """The averaged law by level; a pooled law (``stderr`` None) has no stderr column."""
    columns = (probs,) if stderr is None else (probs, stderr)
    return _labelled_csv(("string", "probability", "stderr")[:1 + len(columns)], n, m,
                         level_of, columns, ())


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
