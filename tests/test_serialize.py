"""The stable emitters: the column-wise CSV writers must match the row-wise
references in ``tests/oracles.py`` byte for byte, the JSON fast path for
float vectors must match the per-element path, and no document holds a
non-finite number."""

import json
import math
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

WRITERS = {
    "envelope": (envelope_csv, envelope_csv_rowwise, 1),
    "filtered_law": (filtered_law_csv, filtered_law_csv_rowwise, 3),
    "rl_law": (rl_law_csv, rl_law_csv_rowwise, 2),
}


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


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("n,m", SHAPES)
def test_csv_writers_byte_identical_to_rowwise(writer, n, m):
    fast, reference, count = WRITERS[writer]
    columns = _columns(np.random.default_rng(1000 * n + m), n**m, count)
    assert fast(*columns, n, m) == reference(*columns, n, m)


@pytest.mark.parametrize("n,m", SHAPES)
def test_pooled_rl_law_has_no_stderr_column(n, m):
    (probs,) = _columns(np.random.default_rng(3000 * n + m), n**m, 1)
    text = rl_law_csv(probs, None, n, m)
    assert text == rl_law_csv_rowwise(probs, None, n, m)
    assert text.split("\n", 1)[0] == "string,probability"


def test_curves_csv_byte_identical_to_rowwise():
    rng = np.random.default_rng(7)
    rows = [(np.float64(d), np.int64(p), 0.1, c)
            for d, p, c in zip(rng.uniform(0, 3, 8), rng.integers(1, 50, 8), SPECIAL + [0.5, 2.0])]
    rows.append((0.25, 3, np.float32(0.1), np.float64(-0.0)))
    assert curves_csv(rows) == curves_csv_rowwise(rows)


def test_filtered_law_csv_peak_memory_not_above_rowwise():
    n = m = 6
    columns = _columns(np.random.default_rng(66), n**m, 3)
    peaks = []
    for writer in (filtered_law_csv, filtered_law_csv_rowwise):
        tracemalloc.start()
        try:
            writer(*columns, n, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


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
    fast, reference, count = WRITERS[writer]
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, math.nan, _nan_with_payload(7),
                     math.inf, -math.inf, 0.1, 1e308])
    rng = np.random.default_rng(77 * n + m)
    columns = [pool[rng.integers(0, pool.size, size=n**m)] for _ in range(count)]
    assert fast(*columns, n, m) == reference(*columns, n, m)


@given(
    pool=st.lists(st.floats(width=64), min_size=1, max_size=40),
    shape=st.sampled_from([(1, 1), (2, 3), (3, 3), (4, 3), (2, 7)]),
    picks=st.lists(st.integers(0, 39), min_size=3 * 128, max_size=3 * 128),
)
def test_csv_drawn_columns_byte_identical_to_rowwise(pool, shape, picks):
    """Drawn columns with repeated values; pools larger than one run make
    the memo clear and refill, and every pool holds both signed zeros."""
    n, m = shape
    size = n**m
    pool = pool + [0.0, -0.0]
    values = np.array(pool)[np.array(picks) % len(pool)]
    a, b, c = values[:size], values[128:128 + size], values[256:256 + size]
    assert envelope_csv(a, n, m) == envelope_csv_rowwise(a, n, m)
    assert rl_law_csv(a, b, n, m) == rl_law_csv_rowwise(a, b, n, m)
    assert filtered_law_csv(a, b, c, n, m) == filtered_law_csv_rowwise(a, b, c, n, m)


def _json_reference(values: np.ndarray) -> str:
    return json.dumps(values.tolist(), indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("values", [
    [],
    [0.25],
    [-0.0],
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1],
    np.random.default_rng(4).normal(size=3000).tolist(),
    np.random.default_rng(5).choice([0.5, -0.0, 0.0, 5e-324, 1e308], size=5000).tolist(),
], ids=["empty", "one", "minus-zero", "specials", "distinct", "repeated"])
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
