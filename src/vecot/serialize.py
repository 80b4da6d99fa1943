"""JSON input and output for problems, measures, and results.

Files are canonical JSON: sorted keys, compact separators, shortest
round-trip float text, one trailing newline.  Readers reject NaN and
infinity and name the offending key on any schema violation, so a bad
file fails loudly instead of poisoning a solve.  An array is checked
whole, with array operations; only an array that fails is walked entry by
entry, to name the first bad entry.  Negative weights below -1e-9 are
rejected; tiny negatives above that are clamped to zero by the measure
constructors.

The decoders own a payload's JSON types and shapes (its keys, their
types, and array lengths against each other) and name the JSON path of a
bad key.  A rule about a value (a mass in range, a mapping index that
names an atom, an increasing grid) belongs to the constructor or solver
that uses it, whose ValueError names no JSON path.
"""

import json
import os
import stat
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .measures import FiniteSpace, ScalarMeasure, TransportPlan, VectorMeasure
from .tolerances import NEG_TOL


class SchemaError(ValueError):
    """A file violated the expected shape; `path` names the bad key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    return obj[key]


def _number(x, path) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(x).__name__}")
    v = float(x)
    if not np.isfinite(v):
        raise SchemaError(path, f"non-finite number {x!r}")
    return v


def _integer(x, path) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(path, f"expected an integer, got {type(x).__name__}")
    return x


_NUMBER_TYPES = frozenset((int, float))


def _plain_array(x, depth: int):
    """`x` as a float array if it is a valid array of `depth` levels, else None.

    Valid means `depth` levels of lists, the lists of each level of one
    length, holding plain JSON numbers (`int` or `float`, not `bool`) that
    are finite as floats.  Each test runs over a whole level at once.  On
    None the caller walks `x` entry by entry, which names the first bad
    entry, so this decides only how fast a valid array is read.
    """
    level = [x]
    for _ in range(depth):
        if set(map(type, level)) != {list} or len(set(map(len, level))) != 1:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= _NUMBER_TYPES:
        return None
    try:
        arr = np.array(x, dtype=float)
    except OverflowError:  # an int past the float range: the walk raises it in order
        return None
    return arr if np.isfinite(arr).all() else None


def _float_list(x, path, length=None) -> np.ndarray:
    arr = _plain_array(x, 1)
    if arr is not None and (length is None or arr.size == length):
        return arr
    if not isinstance(x, list):
        raise SchemaError(path, "expected an array")
    if length is not None and len(x) != length:
        raise SchemaError(path, f"expected length {length}, got {len(x)}")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(x)], dtype=float)


def _matrix(x, path, rows=None, cols=None) -> np.ndarray:
    arr = _plain_array(x, 2)
    if (
        arr is not None
        and (rows is None or arr.shape[0] == rows)
        and (cols is None or arr.shape[1] == cols)
    ):
        return arr
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
        out.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(out, dtype=float)


def _tensor(x, path, shape) -> np.ndarray:
    """Nested arrays of the given shape, as a float array."""
    arr = _plain_array(x, len(shape))
    if arr is not None and arr.shape == tuple(shape):
        return arr
    return np.array(_tensor_walk(x, path, shape), dtype=float)


def _tensor_walk(x, path, shape):
    if not shape:
        return _number(x, path)
    if not isinstance(x, list) or len(x) != shape[0]:
        raise SchemaError(path, f"expected an array of length {shape[0]}")
    return [_tensor_walk(v, f"{path}[{i}]", shape[1:]) for i, v in enumerate(x)]


def _weights(x, path, length=None) -> np.ndarray:
    vals = _float_list(x, path, length)
    neg = vals < -NEG_TOL
    if neg.any():
        i = int(neg.argmax())
        raise SchemaError(f"{path}[{i}]", f"negative weight {float(vals[i])!r}")
    return np.maximum(vals, 0.0)


def _nonneg_matrix(x, path, rows=None, cols=None) -> np.ndarray:
    m = _matrix(x, path, rows, cols)
    bad = np.argwhere(m < -NEG_TOL)
    if bad.size:
        i, j = bad[0]
        raise SchemaError(f"{path}[{i}][{j}]", f"negative entry {m[i, j]!r}")
    return np.maximum(m, 0.0)


def space_from_json(obj, path) -> FiniteSpace:
    labels = _require(obj, "labels", path)
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise SchemaError(f"{path}.labels", "expected an array of strings")
    coords = None
    if obj.get("coords") is not None:
        coords = _matrix(obj["coords"], f"{path}.coords", rows=len(labels))
    try:
        return FiniteSpace(labels, coords)
    except ValueError as exc:
        raise SchemaError(path, str(exc))




def scalar_measure_from_json(obj, path) -> ScalarMeasure:
    space = space_from_json(_require(obj, "space", path), f"{path}.space")
    w = _weights(_require(obj, "weights", path), f"{path}.weights", space.size)
    return ScalarMeasure(space, w)




def vector_measure_from_json(obj, path) -> VectorMeasure:
    space = space_from_json(_require(obj, "space", path), f"{path}.space")
    values = _nonneg_matrix(_require(obj, "values", path), f"{path}.values", rows=space.size)
    ref = None
    if obj.get("refWeights") is not None:
        ref = _weights(obj["refWeights"], f"{path}.refWeights", space.size)
    try:
        return VectorMeasure(space, values, ref_weights=ref)
    except ValueError as exc:
        raise SchemaError(path, str(exc))




def plan_from_json(obj, path) -> TransportPlan:
    source = space_from_json(_require(obj, "source", path), f"{path}.source")
    target = space_from_json(_require(obj, "target", path), f"{path}.target")
    mat = _nonneg_matrix(
        _require(obj, "matrix", path), f"{path}.matrix", rows=source.size, cols=target.size
    )
    return TransportPlan(source, target, mat)




def _decode_two_marginals(payload, path):
    mu = scalar_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = scalar_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    cost = _matrix(
        _require(payload, "cost", path), f"{path}.cost", mu.space.size, nu.space.size
    )
    return {"mu": mu, "nu": nu, "cost": cost}


def _decode_scalar_ot(payload, path):
    return _decode_two_marginals(payload, path)


def _decode_partial(payload, path):
    out = _decode_two_marginals(payload, path)
    out["mass"] = _number(_require(payload, "mass", path), f"{path}.mass")
    return out


def _decode_capacity(payload, path):
    out = _decode_two_marginals(payload, path)
    cap = _nonneg_matrix(
        _require(payload, "cap", path), f"{path}.cap",
        out["mu"].space.size, out["nu"].space.size,
    )
    out["cap"] = TransportPlan(out["mu"].space, out["nu"].space, cap)
    return out


def _decode_invariant(payload, path):
    mu = scalar_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    target = space_from_json(_require(payload, "target", path), f"{path}.target")
    cost = _matrix(_require(payload, "cost", path), f"{path}.cost", mu.space.size, target.size)
    raw = _require(payload, "mapping", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.mapping", "expected an array")
    mapping = [_integer(v, f"{path}.mapping[{i}]") for i, v in enumerate(raw)]
    return {"mu": mu, "mapping": mapping, "cost": cost, "target": target}


def _decode_multi(payload, path):
    raw = _require(payload, "measures", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.measures", "expected an array")
    measures = [
        scalar_measure_from_json(m, f"{path}.measures[{i}]") for i, m in enumerate(raw)
    ]
    sizes = tuple(m.space.size for m in measures)
    cost = _tensor(_require(payload, "cost", path), f"{path}.cost", sizes)
    return {"measures": measures, "cost": cost}


def _decode_glue(payload, path):
    pi1 = plan_from_json(_require(payload, "first", path), f"{path}.first")
    pi2 = plan_from_json(_require(payload, "second", path), f"{path}.second")
    out = {"first": pi1, "second": pi2, "third": None}
    if payload.get("third") is not None:
        out["third"] = plan_from_json(payload["third"], f"{path}.third")
    return out


def _decode_local(payload, path):
    out = _decode_two_marginals(payload, path)
    out["threshold"] = _number(_require(payload, "threshold", path), f"{path}.threshold")
    return out


def _decode_strassen(payload, path):
    mu = scalar_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = scalar_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    raw = _require(payload, "constraints", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.constraints", "expected an array")
    cons = []
    for i, c in enumerate(raw):
        cp = f"{path}.constraints[{i}]"
        G = _matrix(_require(c, "G", cp), f"{cp}.G", mu.space.size, nu.space.size)
        kind = _require(c, "kind", cp)  # `strassen_feasible` owns the rule: le, ge or eq
        rhs = _number(_require(c, "rhs", cp), f"{cp}.rhs")
        cons.append((G, kind, rhs))
    return {"mu": mu, "nu": nu, "constraints": cons}


def _decode_vector_ot(payload, path):
    mu = vector_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = vector_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    cost = _matrix(
        _require(payload, "cost", path), f"{path}.cost", mu.space.size, nu.space.size
    )
    eta = None
    if payload.get("eta") is not None:
        eta = _matrix(payload["eta"], f"{path}.eta", mu.space.size, mu.dim)
    return {"mu": mu, "nu": nu, "cost": cost, "eta": eta}


def _decode_dominance(payload, path):
    mu = vector_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = vector_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    return {"mu": mu, "nu": nu}


def _decode_martingale(payload, path):
    mu_ref = scalar_measure_from_json(_require(payload, "muRef", path), f"{path}.muRef")
    nu_ref = scalar_measure_from_json(_require(payload, "nuRef", path), f"{path}.nuRef")
    f = _matrix(_require(payload, "f", path), f"{path}.f", rows=mu_ref.space.size)
    g = _matrix(
        _require(payload, "g", path), f"{path}.g", nu_ref.space.size, f.shape[1]
    )
    cost = _matrix(
        _require(payload, "cost", path), f"{path}.cost",
        mu_ref.space.size, nu_ref.space.size,
    )
    return {"muRef": mu_ref, "nuRef": nu_ref, "f": f, "g": g, "cost": cost}


def _decode_chain(payload, path):
    space = space_from_json(_require(payload, "space", path), f"{path}.space")
    k = space.size
    cost = _matrix(_require(payload, "cost", path), f"{path}.cost", k, k)
    out = {"space": space, "cost": cost}
    for key in ("mu", "nu", "medium"):
        w = _weights(_require(payload, key, path), f"{path}.{key}", k)
        out[key] = ScalarMeasure(space, w)
    # `chain.ChainProblem` owns the range rule: at least 0 hops
    out["hops"] = _integer(_require(payload, "hops", path), f"{path}.hops")
    return out


def _decode_game(payload, path):
    payoff = _matrix(_require(payload, "payoff", path), f"{path}.payoff")
    out = {"payoff": payoff, "restrict": None}
    if payload.get("restrict") is not None:
        out["restrict"] = scalar_measure_from_json(
            payload["restrict"], f"{path}.restrict"
        )
    return out


def _decode_moment(payload, path):
    M = _matrix(_require(payload, "functions", path), f"{path}.functions")
    m = _float_list(_require(payload, "target", path), f"{path}.target", M.shape[0])
    return {"functions": M, "target": m}


def _decode_trig(payload, path):
    pairs = _matrix(_require(payload, "coeffs", path), f"{path}.coeffs", cols=2)
    # `applications.trig_moment` owns the size rule: at least 4 points per coefficient
    grid = _integer(_require(payload, "gridSize", path), f"{path}.gridSize")
    return {"coeffs": pairs[:, 0] + 1j * pairs[:, 1], "gridSize": grid}


def _grid_function_json(obj, path):
    grid = _float_list(_require(obj, "grid", path), f"{path}.grid")
    values = _float_list(_require(obj, "values", path), f"{path}.values", len(grid))
    return {"grid": grid, "values": values}


def _decode_conjugate(payload, path):
    out = {"f": _grid_function_json(_require(payload, "f", path), f"{path}.f")}
    others = []
    if payload.get("others") is not None:
        raw = payload["others"]
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.others", "expected an array")
        others = [_grid_function_json(o, f"{path}.others[{i}]") for i, o in enumerate(raw)]
    out["others"] = others
    out["dualGrid"] = None
    if payload.get("dualGrid") is not None:
        if others:
            raise SchemaError(f"{path}.dualGrid", "applies only to a conjugate, not with others")
        out["dualGrid"] = _float_list(payload["dualGrid"], f"{path}.dualGrid")
    return out


_DECODERS = {
    "scalar_ot": _decode_scalar_ot,
    "partial": _decode_partial,
    "capacity": _decode_capacity,
    "invariant": _decode_invariant,
    "multi": _decode_multi,
    "glue": _decode_glue,
    "local": _decode_local,
    "strassen": _decode_strassen,
    "vector_ot": _decode_vector_ot,
    "dominance": _decode_dominance,
    "martingale": _decode_martingale,
    "chain": _decode_chain,
    "game": _decode_game,
    "moment": _decode_moment,
    "trig": _decode_trig,
    "conjugate": _decode_conjugate,
}
KINDS = tuple(_DECODERS)


@dataclass
class ProblemFile:
    """A parsed problem: raw payload plus schema-validated typed objects."""

    kind: str
    payload: dict
    seed: Optional[int] = None
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "payload": self.payload}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _reject_constant(token):
    raise SchemaError("<document>", f"non-finite token {token}")


def parse_problem(obj) -> ProblemFile:
    """Validate an already-parsed JSON document as a ProblemFile."""
    kind = _require(obj, "kind", "$")
    if kind not in KINDS:
        raise SchemaError("$.kind", f"unknown kind {kind!r}")
    payload = _require(obj, "payload", "$")
    if not isinstance(payload, dict):
        raise SchemaError("$.payload", "expected an object")
    for key in obj:
        if key not in ("kind", "payload", "seed"):
            raise SchemaError(f"$.{key}", f"unknown top-level key {key!r}")
    seed = None
    if obj.get("seed") is not None:
        seed = _integer(obj["seed"], "$.seed")
    data = _DECODERS[kind](payload, "$.payload")
    return ProblemFile(kind, payload, seed, data)


def _parse_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"line {exc.lineno}, column {exc.colno}", f"parse error: {exc.msg}"
        )


def _read_json(path: str):
    """Parse a JSON file, rejecting NaN/Infinity; SchemaError names the position."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


def loads(text: str) -> ProblemFile:
    return parse_problem(_parse_json(text))


def load(path: str) -> ProblemFile:
    """Read and schema-validate a problem file."""
    return parse_problem(_read_json(path))


def _wrapped(obj) -> bool:
    """Whether a parsed document is a wrapped problem rather than a bare payload."""
    return isinstance(obj, dict) and "kind" in obj and "payload" in obj


def payload_from_json(obj, kind: str) -> dict:
    """Decode an already-parsed wrapped problem of the given kind or its bare payload."""
    if _wrapped(obj):
        pf = parse_problem(obj)
        if pf.kind != kind:
            raise SchemaError("$.kind", f"expected {kind!r}, got {pf.kind!r}")
        return pf.data
    return _DECODERS[kind](obj, "$")


def _number_list(x):
    """A copy of `x` if it is a list of plain numbers or of such lists, else None.

    Ints stay ints.  Floats must be finite: the first one that is not, in
    row-major order, raises the same ValueError as `to_jsonable`.  A list
    mixing ints and floats is left to the element walk, which checks only
    the floats.
    """
    if type(x) is not list:
        return None
    nested = bool(x) and set(map(type, x)) == {list}
    flat = list(chain.from_iterable(x)) if nested else x
    types = set(map(type, flat))
    if not types <= _NUMBER_TYPES or types == _NUMBER_TYPES:
        return None
    if float in types:
        bad = ~np.isfinite(np.array(flat, dtype=float))
        if bad.any():
            raise ValueError(f"cannot serialize non-finite value {flat[int(bad.argmax())]!r}")
    return [list(row) for row in x] if nested else list(x)


def to_jsonable(x):
    """Recursively convert numpy containers to plain JSON values."""
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        plain = _number_list(x)
        if plain is not None:
            return plain
        return [to_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if x.ndim == 0:  # not iterable: serialize the scalar it holds
            return to_jsonable(x.item())
        if x.dtype.kind in "fiu":  # real and integer arrays in one step
            if x.dtype.kind == "f":
                x = x.astype(float, copy=False)
                bad = ~np.isfinite(x)
                if bad.any():
                    raise ValueError(f"cannot serialize non-finite value {float(x[bad][0])!r}")
            return x.tolist()
        # object, bool and complex arrays go element by element
        return [to_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if not np.isfinite(v):
            raise ValueError(f"cannot serialize non-finite value {v!r}")
        return v
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def canonical_dumps(obj) -> str:
    """Canonical text: sorted keys, compact separators, trailing newline."""
    return (
        json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    )


def save(obj, path: str) -> None:
    """Write a ProblemFile or plain JSON-able object canonically."""
    if isinstance(obj, ProblemFile):
        obj = obj.as_dict()
    write_text(path, canonical_dumps(obj))


def write_text(path: str, text: str) -> None:
    """Write `text` as UTF-8 to `path`, overwriting the file in place.

    The file is opened without truncation, written, and then cut at the
    end of the new text, so a rewrite leaves exactly the new bytes under
    the same inode.  Truncating on open instead makes ext4 (with its
    default ``auto_da_alloc``) start writeback when the file is closed,
    which costs every overwrite a disk flush.  Nothing is fsynced.  A
    symlink is followed, an existing file keeps its mode, and a pipe or
    device is only written to, never truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()
