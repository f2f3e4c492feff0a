"""The stable emitters: the column-wise CSV writers must match the row-wise
references in ``tests/oracles.py`` byte for byte, and the JSON fast path for
float arrays must match the per-element path."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from fejercert.instance import format_string, index_string
from fejercert.serialize import (
    curves_csv,
    dumps_json,
    envelope_csv,
    filtered_law_csv,
    rl_law_csv,
    string_labels,
)
from oracles import (
    curves_csv_rowwise,
    envelope_csv_rowwise,
    filtered_law_csv_rowwise,
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


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("n,m", SHAPES)
def test_csv_writers_byte_identical_to_rowwise(writer, n, m):
    fast, reference, count = WRITERS[writer]
    columns = _columns(np.random.default_rng(1000 * n + m), n**m, count)
    assert fast(*columns, n, m) == reference(*columns, n, m)


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
def test_json_non_finite_float_array_gives_null(special):
    values = np.array([0.5, 1.5, 2.5])
    values[1] = special
    assert json.loads(dumps_json(values)) == [0.5, None, 2.5]
    assert json.loads(dumps_json({"a": values.reshape(1, 3)})) == {"a": [[0.5, None, 2.5]]}


def test_json_finite_float_array_matches_per_element_path():
    values = np.concatenate([np.random.default_rng(3).normal(size=50), [-0.0, 5e-324, 1e308]])
    assert dumps_json(values) == dumps_json(list(values))
    grid = values[:50].reshape(5, 10)
    assert dumps_json(grid) == dumps_json([list(row) for row in grid])
    single = values[:50].astype(np.float32)
    assert dumps_json(single) == dumps_json(list(single))


def test_json_integer_and_bool_arrays_unchanged():
    assert dumps_json(np.arange(-2, 3)) == dumps_json([-2, -1, 0, 1, 2])
    assert dumps_json(np.array([True, False])) == "[\n  true,\n  false\n]\n"
