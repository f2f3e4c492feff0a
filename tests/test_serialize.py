"""The stable emitters: the CSV writers, which take the law columns by
energy level, must match the row-wise references in ``tests/oracles.py``
on the columns gathered to the strings byte for byte, the JSON fast path
for float vectors must match the per-element path, and no document holds
a non-finite number, which is named by its field."""

import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fejercert import serialize
from fejercert.serialize import (
    curves_csv,
    dumps_json,
    envelope_csv,
    filtered_law_csv,
    rl_law_csv,
    string_labels,
    string_labels_at,
    string_labels_of,
)
from oracles import (
    curves_csv_rowwise,
    envelope_csv_rowwise,
    filtered_law_csv_rowwise,
    format_string,
    index_string,
    rl_law_csv_rowwise,
)

# odd m, m = 1 and n = 1 included: the writers split the blocks in halves
SHAPES = [(1, 1), (2, 1), (1, 3), (3, 2), (4, 3), (3, 5), (6, 6)]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]

# name -> (the writer on columns by level and the level of each string, the
# row-wise reference on the columns gathered to the strings, column count);
# columns in the order of the CSV, the envelope's per string
WRITERS = {
    "envelope": (lambda of, cols, n, m: envelope_csv(cols[0][of], n, m),
                 lambda *cols, n, m: envelope_csv_rowwise(*cols, n, m), 1),
    "filtered_law": (lambda of, cols, n, m: filtered_law_csv(of, cols, (), n, m),
                     lambda theta, weight, probs, n, m:
                         filtered_law_csv_rowwise(probs, theta, weight, n, m), 3),
    # the law under an external envelope: its probability is per string
    "filtered_law_envelope": (
        lambda of, cols, n, m: filtered_law_csv(of, cols[:2], (cols[2][of],), n, m),
        lambda theta, weight, probs, n, m: filtered_law_csv_rowwise(probs, theta, weight, n, m),
        3),
    "rl_law": (lambda of, cols, n, m: rl_law_csv(of, *cols, n, m),
               lambda *cols, n, m: rl_law_csv_rowwise(*cols, n, m), 2),
}


def _check_writer(writer: str, level_of: np.ndarray, columns: list, n: int, m: int) -> None:
    fast, reference, _ = WRITERS[writer]
    assert fast(level_of, columns, n, m) == reference(*(c[level_of] for c in columns), n=n, m=m)


def _level_of(rng, levels: int, size: int) -> np.ndarray:
    """The level of each of ``size`` strings, every one of ``levels`` held
    (``levels`` at most ``size``), in random order."""
    return rng.permutation(np.concatenate([np.arange(levels),
                                           rng.integers(0, levels, size - levels)]))


def _columns(rng, size, count):
    """``count`` float columns of wide magnitudes, each holding the special
    values at random rows (at least one of them when size is 1)."""
    columns = []
    for c in range(count):
        col = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
        rows = rng.choice(size, min(size, 2 * len(SPECIAL)), replace=False)
        for k, row in enumerate(rows):
            col[row] = SPECIAL[(k + c) % len(SPECIAL)]
        columns.append(col)
    return columns


@pytest.mark.parametrize("n,m", SHAPES)
def test_string_labels_match_index_string(n, m):
    assert string_labels(n, m) == [format_string(index_string(i, n, m)) for i in range(n**m)]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 3), (4, 4), (16, 2), (36, 3)])
def test_string_labels_at_match_index_string(n, m):
    """The labels of sparse indices (the collisions listing and the shot
    counts) against the per-index reference; 16 and 36 symbols need two
    digits."""
    indices = np.random.default_rng([n, m]).integers(0, n**m, size=50)
    assert string_labels_at(indices, n, m) == [
        format_string(index_string(int(i), n, m)) for i in indices]
    assert string_labels_at(np.arange(n**m), n, m) == string_labels(n, m)
    assert string_labels_at(indices[:0], n, m) == []


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 3), (4, 4), (16, 2), (36, 3), (16, 16),
                                 (3, 45)])
def test_string_labels_of_match_index_string(n, m):
    """The labels of per-block symbol columns (the product route's shot
    counts) against the per-index reference, also where n**m passes 2**63
    (16**16, 3**45) and no int64 index exists."""
    columns = np.random.default_rng([n, m, 1]).integers(0, n, size=(m, 50))
    indices = [sum(int(z) * n**b for b, z in enumerate(col)) for col in columns.T]
    assert string_labels_of(columns, n) == [
        format_string(index_string(i, n, m)) for i in indices]
    assert string_labels_of(columns[:, :0], n) == []


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("n,m", SHAPES)
def test_csv_writers_byte_identical_to_rowwise(writer, n, m):
    """Level tables of one level per string, and of a seventh as many."""
    rng = np.random.default_rng(1000 * n + m)
    for levels in sorted({max(1, n**m // 7), n**m}):
        columns = _columns(rng, levels, WRITERS[writer][2])
        _check_writer(writer, _level_of(rng, levels, n**m), columns, n, m)


@pytest.mark.parametrize("n,m", SHAPES)
def test_pooled_rl_law_has_no_stderr_column(n, m):
    rng = np.random.default_rng(3000 * n + m)
    levels = max(1, n**m // 3)
    (probs,), level_of = _columns(rng, levels, 1), _level_of(rng, levels, n**m)
    text = rl_law_csv(level_of, probs, None, n, m)
    assert text == rl_law_csv_rowwise(probs[level_of], None, n, m)
    assert text.split("\n", 1)[0] == "string,probability"


def test_curves_csv_byte_identical_to_rowwise():
    rng = np.random.default_rng(7)
    rows = [(np.float64(d), np.int64(p), 0.1, c)
            for d, p, c in zip(rng.uniform(0, 3, 8), rng.integers(1, 50, 8), SPECIAL + [0.5, 2.0])]
    rows.append((0.25, 3, np.float32(0.1), np.float64(-0.0)))
    assert curves_csv(rows) == curves_csv_rowwise(rows)


def test_filtered_law_csv_peak_memory_not_above_rowwise():
    """At 6^6, with about the levels of the benchmark's assignment instance
    and with one level per string; both sides get their columns before
    tracing."""
    n = m = 6
    rng = np.random.default_rng(66)
    for levels in (60, n**m):
        columns, level_of = _columns(rng, levels, 3), _level_of(rng, levels, n**m)
        theta, weight, probs = (c[level_of] for c in columns)
        peaks = []
        for write in (lambda: filtered_law_csv(level_of, columns, (), n, m),
                      lambda: filtered_law_csv_rowwise(probs, theta, weight, n, m)):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], levels


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
def test_json_non_finite_float_raises(special):
    values = np.array([0.5, 1.5, 2.5])
    values[1] = special
    with pytest.raises(ValueError):
        dumps_json(values)
    with pytest.raises(ValueError):
        dumps_json({"a": values.tolist()})
    with pytest.raises(ValueError):
        dumps_json({"x": special})


@pytest.mark.parametrize("document,field", [
    ({"success_mass": math.nan, "g": 0.5}, "success_mass"),
    ({"bounds": {"p1": {"x_f": 0.2, "tight": 0.1}, "p2": {"x_f": math.inf}}}, "bounds.p2.x_f"),
    ({"success_ci": [0.1, -math.inf], "shots": 3}, "success_ci[1]"),
    ({"search": {"gammas": (0.1, math.nan)}, "levels": {"0": 2}}, "search.gammas[1]"),
    ({"a": [{"b": [1.0, {"c": math.nan}]}]}, "a[0].b[1].c"),
], ids=["top", "nested-dict", "list", "tuple", "deep"])
def test_json_non_finite_field_is_named(document, field):
    """The error names the field that holds the value, and the value."""
    with pytest.raises(ValueError, match=rf"^document field {re.escape(field)} is -?(nan|inf), "
                                         "not finite$"):
        dumps_json(document)


def test_json_finite_float_array_matches_per_element_path():
    values = np.concatenate([np.random.default_rng(3).normal(size=50), [-0.0, 5e-324, 1e308]])
    assert dumps_json(values) == dumps_json(values.tolist())
    with pytest.raises(ValueError):
        dumps_json(values[:50].reshape(5, 10))
    with pytest.raises(ValueError):
        dumps_json(values[:50].astype(np.float32))


def _nan_with_payload(payload: int) -> float:
    return struct.unpack("d", struct.pack("q", 0x7FF8000000000000 | payload))[0]


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("n,m", SHAPES)
def test_csv_repeated_values_byte_identical_to_rowwise(writer, n, m):
    """Few distinct values, each repeated across runs: -0.0 next to 0.0, the
    smallest subnormal, NaNs with different payloads and both infinities."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, math.nan, _nan_with_payload(7),
                     math.inf, -math.inf, 0.1, 1e308])
    rng = np.random.default_rng(77 * n + m)
    levels = max(1, n**m // 2)
    columns = [pool[rng.integers(0, pool.size, size=levels)] for _ in range(WRITERS[writer][2])]
    _check_writer(writer, _level_of(rng, levels, n**m), columns, n, m)


# an all-equal column: "uniform" is 1/n^m, the start of the envelope command
ONE_VALUES = ["uniform", -0.0, 5e-324, 1e308, math.nan, math.inf]


@pytest.mark.parametrize("value", ONE_VALUES, ids=str)
@pytest.mark.parametrize("n,m", SHAPES + [(36, 3)])
def test_all_equal_column_byte_identical_to_rowwise(n, m, value):
    """A column of one bit pattern is formatted once and each run written
    as one join, in the envelope CSV and in the law CSVs of one level."""
    value = 1 / n**m if value == "uniform" else value
    column = np.full(n**m, value)
    assert envelope_csv(column, n, m) == envelope_csv_rowwise(column, n, m)
    for writer in ("filtered_law", "rl_law"):
        _check_writer(writer, np.zeros(n**m, dtype=np.intp),
                      [np.full(1, value)] * WRITERS[writer][2], n, m)


@pytest.mark.parametrize("n,m", [shape for shape in SHAPES if shape[0] ** shape[1] > 1])
def test_nearly_equal_column_byte_identical_to_rowwise(n, m):
    """Columns equal as floats but not as bit patterns: one -0.0 among 0.0,
    and NaNs with two payloads."""
    rng = np.random.default_rng(88 * n + m)
    zeros = np.zeros(n**m)
    zeros[rng.integers(0, n**m)] = -0.0
    nans = np.full(n**m, math.nan)
    nans[rng.integers(0, n**m)] = _nan_with_payload(7)
    for column in (zeros, nans):
        assert envelope_csv(column, n, m) == envelope_csv_rowwise(column, n, m)


@given(
    pool=st.lists(st.floats(width=64), min_size=1, max_size=40),
    shape=st.sampled_from([(1, 1), (2, 3), (3, 3), (4, 3), (2, 7)]),
    picks=st.lists(st.integers(0, 39), min_size=3 * 128, max_size=3 * 128),
)
def test_csv_drawn_columns_byte_identical_to_rowwise(pool, shape, picks):
    """Drawn columns with repeated values, one per string (the level of
    each string its own); pools larger than one run make the memo clear
    and refill, and every pool holds both signed zeros."""
    n, m = shape
    size = n**m
    pool = pool + [0.0, -0.0]
    values = np.array(pool)[np.array(picks) % len(pool)]
    columns = [values[:size], values[128:128 + size], values[256:256 + size]]
    for writer, (_, _, count) in WRITERS.items():
        _check_writer(writer, np.arange(size), columns[:count], n, m)


@given(
    table=st.lists(st.one_of(st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf,
                                              5e-324, -5e-324]),
                             st.floats(width=64)), min_size=3, max_size=3 * 40),
    shape=st.sampled_from([(1, 1), (2, 1), (2, 3), (3, 3), (4, 3), (2, 7)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_writers_on_drawn_level_tables(table, shape, seed):
    """Drawn tables of up to 40 levels, in which -0.0, nan, +-inf and the
    smallest subnormal are likely, gathered to the strings through a drawn
    level of each string: the writers by level against the row-wise
    references on the gathered columns."""
    n, m = shape
    levels = min(len(table) // 3, n**m)
    columns = [np.array(table[k * levels:(k + 1) * levels]) for k in range(3)]
    level_of = _level_of(np.random.default_rng(seed), levels, n**m)
    for writer, (_, _, count) in WRITERS.items():
        _check_writer(writer, level_of, columns[:count], n, m)


def test_level_text_keeps_signed_zeros_apart():
    """Two levels whose values differ only in the sign of zero (equal as
    dict keys) each keep their own text."""
    level_of = np.array([0, 1, 1, 0, 2, 2])
    columns = [np.array([0.0, -0.0, math.nan])] * 3
    _check_writer("filtered_law", level_of, columns, 6, 1)
    text = filtered_law_csv(level_of, columns, (), 6, 1)
    assert text.split("\n")[1:3] == ["0,0.0,0.0,0.0", "1,-0.0,-0.0,-0.0"]


def _json_reference(values: np.ndarray) -> str:
    return json.dumps(values.tolist(), indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("values", [
    [],
    [0.25],
    [-0.0],
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1],
    np.random.default_rng(4).normal(size=3000).tolist(),
    np.random.default_rng(5).choice([0.5, -0.0, 0.0, 5e-324, 1e308], size=5000).tolist(),
    [-0.0] * 3000,
    [5e-324] * 3000,
    [1 / 46656] * 46656,
    [0.0] * 3000 + [-0.0],
], ids=["empty", "one", "minus-zero", "specials", "distinct", "repeated", "all-minus-zero",
        "all-subnormal", "uniform-6^6", "zeros-then-minus-zero"])
def test_json_float64_array_matches_json_dumps(values):
    array = np.array(values, dtype=np.float64)
    if not values:  # an empty vector is no document
        with pytest.raises(ValueError):
            dumps_json(array)
        return
    assert dumps_json(array) == _json_reference(array)


def test_json_fast_path_skips_json_dumps_only_for_finite_float64_vectors(monkeypatch):
    """A finite float64 vector skips json.dumps; every other array raises
    before it, as no command writes one."""
    calls = []
    dumps = json.dumps

    def spy(obj, **kwargs):
        calls.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(serialize.json, "dumps", spy)
    dumps_json(np.array([0.5, -0.0, 5e-324]))
    assert calls == []
    for value in (np.array([0.5, 1.5], dtype=np.float32), np.array([[0.5, 1.5]]),
                  np.array([0.5, math.nan]), np.array([math.inf]), np.array([], dtype=float),
                  np.arange(2), np.array([True])):
        with pytest.raises(ValueError):
            dumps_json(value)
        assert calls == [], value


def test_all_equal_column_is_formatted_once(monkeypatch):
    """An all-equal column reaches neither the bit-pattern memo nor
    json.dumps; a column with one other bit pattern (-0.0 among 0.0) still
    goes through the memo."""
    calls = []
    float_reprs, dumps = serialize._float_reprs, json.dumps
    monkeypatch.setattr(serialize, "_float_reprs",
                        lambda *a: calls.append("_float_reprs") or float_reprs(*a))
    monkeypatch.setattr(serialize.json, "dumps",
                        lambda *a, **k: calls.append("json.dumps") or dumps(*a, **k))
    uniform = np.full(4**4, 1 / 4**4)
    envelope_csv(uniform, 4, 4)
    dumps_json(uniform)
    assert calls == []
    mixed = np.zeros(4**4)
    mixed[100] = -0.0
    envelope_csv(mixed, 4, 4)
    assert calls == ["_float_reprs"]
    dumps_json(mixed)
    assert calls == ["_float_reprs"] * 2
