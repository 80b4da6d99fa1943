"""The array readers of `serialize` against the per-entry readers they replaced.

The references below check one entry at a time, in file order, the way the
readers did before they checked whole arrays.  Every input, valid or not,
must give the same outcome from both: bit-identical arrays, or the same
exception with the same path and message.
"""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from vecot import serialize
from vecot.serialize import SchemaError
from vecot.tolerances import NEG_TOL


def _ref_number(x, path) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(x).__name__}")
    v = float(x)
    if not np.isfinite(v):
        raise SchemaError(path, f"non-finite number {x!r}")
    return v


def _ref_float_list(x, path, length=None) -> list:
    if not isinstance(x, list):
        raise SchemaError(path, "expected an array")
    if length is not None and len(x) != length:
        raise SchemaError(path, f"expected length {length}, got {len(x)}")
    return [_ref_number(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _ref_matrix(x, path, rows=None, cols=None) -> np.ndarray:
    if not isinstance(x, list) or len(x) == 0:
        raise SchemaError(path, "expected a nonempty array of rows")
    if rows is not None and len(x) != rows:
        raise SchemaError(path, f"expected {rows} rows, got {len(x)}")
    width = None
    out = []
    for i, row in enumerate(x):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "expected an array")
        if width is None:
            width = len(row)
            if cols is not None and width != cols:
                raise SchemaError(f"{path}[{i}]", f"expected {cols} columns, got {width}")
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]", f"ragged row: {len(row)} vs {width}")
        out.append([_ref_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(out, dtype=float)


def _ref_tensor(x, path, shape):
    if not shape:
        return _ref_number(x, path)
    if not isinstance(x, list) or len(x) != shape[0]:
        raise SchemaError(path, f"expected an array of length {shape[0]}")
    return [_ref_tensor(v, f"{path}[{i}]", shape[1:]) for i, v in enumerate(x)]


def _ref_weights(x, path, length=None) -> np.ndarray:
    vals = _ref_float_list(x, path, length)
    for i, v in enumerate(vals):
        if v < -NEG_TOL:
            raise SchemaError(f"{path}[{i}]", f"negative weight {v!r}")
    return np.maximum(np.array(vals), 0.0)


def _ref_nonneg_matrix(x, path, rows=None, cols=None) -> np.ndarray:
    m = _ref_matrix(x, path, rows, cols)
    bad = np.argwhere(m < -NEG_TOL)
    if bad.size:
        i, j = bad[0]
        raise SchemaError(f"{path}[{i}][{j}]", f"negative entry {m[i, j]!r}")
    return np.maximum(m, 0.0)


# name -> (reader, reference, nesting depth)
READERS = {
    "float_list": (serialize._float_list, _ref_float_list, 1),
    "weights": (serialize._weights, _ref_weights, 1),
    "matrix": (serialize._matrix, _ref_matrix, 2),
    "nonneg_matrix": (serialize._nonneg_matrix, _ref_nonneg_matrix, 2),
    "tensor2": (serialize._tensor, _ref_tensor, 2),
    "tensor3": (serialize._tensor, _ref_tensor, 3),
}

ENTRIES = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3),
    st.integers(2**53, 2**70),
    st.sampled_from([-0.0, -1e-10, 5e-324, -5e-324]),
)
# what may replace one entry: a bool, a string, a null, a nested list, the
# inf that the literal 1e999 parses to, a negative, an int past the float range
BAD_ENTRIES = {
    "bool": True,
    "string": "0.5",
    "null": None,
    "nested": [0.5],
    "1e999": json.loads("1e999"),
    "negative": -0.5,
    "huge int": 10**400,
}
FAULTS = [None, *BAD_ENTRIES, "ragged row", "wrong length"]


def _outcome(read, x, args):
    try:
        out = read(x, "$.x", *args)
    except (SchemaError, OverflowError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "path", None)
    out = np.asarray(out, dtype=float)
    return out.shape, out.tobytes()


def _lists_at(x, depth):
    """Every list of the nested array `x`, down to `depth` levels."""
    level, out = [x], []
    for _ in range(depth):
        level = [v for v in level if isinstance(v, list)]
        out += level
        level = [v for lst in level for v in lst]
    return out


def _inject(data, x, depth, fault):
    """Apply `fault` to the nested array `x` in place, at a drawn position."""
    lists = _lists_at(x, depth)
    if fault in BAD_ENTRIES:
        rows = [lst for lst in lists if lst and not isinstance(lst[0], list)]
        if rows:
            row = data.draw(st.sampled_from(rows))
            row[data.draw(st.integers(0, len(row) - 1))] = BAD_ENTRIES[fault]
        return
    if fault == "ragged row":
        if depth == 1 or len(lists) == 1:
            return
        row = data.draw(st.sampled_from(lists[1:]))
    else:  # wrong length
        row = x
    if row and data.draw(st.booleans()):
        row.pop()
    elif row and isinstance(row[-1], list):
        row.append(list(row[-1]))
    else:
        row.append(data.draw(ENTRIES))


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_readers_match_the_per_entry_reference(data):
    name = data.draw(st.sampled_from(sorted(READERS)), label="reader")
    read, ref, depth = READERS[name]
    shape = data.draw(st.lists(st.integers(0, 4), min_size=depth, max_size=depth), label="shape")
    size = math.prod(shape)
    flat = data.draw(st.lists(ENTRIES, min_size=size, max_size=size))
    x = np.array(flat, dtype=object).reshape(shape).tolist()
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    _inject(data, x, depth, fault)
    if name.startswith("tensor"):
        args = [tuple(shape)]
        ref_read = lambda *a: np.array(ref(*a), dtype=float)  # as `_decode_multi` did
    else:  # the expected length, rows or columns, each given or not
        args = [n if data.draw(st.booleans()) else None for n in shape]
        ref_read = ref
    want = _outcome(ref_read, x, args)
    assert _outcome(read, x, args) == want
    if fault in ("bool", "string", "null", "nested", "1e999") and size:
        assert want[0] == "SchemaError"


def test_valid_arrays_come_back_as_float_arrays():
    cases = [
        (serialize._float_list, ([1, 2.5, -0.0],)),
        (serialize._weights, ([0.25, -1e-12, 3],)),
        (serialize._matrix, ([[1, 2.0], [3.5, -4]],)),
        (serialize._nonneg_matrix, ([[0, 2.0], [3.5, 4]],)),
        (serialize._tensor, ([[[1, 2]], [[3.0, 4]]], (2, 1, 2))),
    ]
    for read, (x, *args) in cases:
        out = read(x, "$.x", *args)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64


def test_an_earlier_bad_entry_wins_over_an_int_past_the_float_range():
    inf = json.loads("1e999")
    for read, ref, x in (
        (serialize._float_list, _ref_float_list, [inf, 10**400]),
        (serialize._matrix, _ref_matrix, [[1.0, -2.0], [-inf, 10**400]]),
    ):
        want = _outcome(ref, x, [])
        assert want[0] == "SchemaError"
        assert _outcome(read, x, []) == want
