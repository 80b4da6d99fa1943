"""Reproducible random problem instances.

All randomness flows through a 64-bit splitmix stream, and floats are
built from the integer stream in a fixed order with no transcendental
calls, so a (kind, seed, size) triple yields byte-identical files on any
platform.  Feasible variants are constructed forward: a plan, kernel, or
weight vector is drawn first and the constraint data derived from it, so
feasibility is guaranteed by construction rather than by rejection.
"""

from typing import Optional

import numpy as np

from .serialize import KINDS, ProblemFile, parse_problem

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U64_GAMMA, _U64_MIX1, _U64_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U64_30, _U64_27, _U64_31, _U64_11 = (np.uint64(s) for s in (30, 27, 31, 11))


class SplitMix64:
    """Standard splitmix64: deterministic, platform-independent.

    The state is a counter, ``state_k = seed + k * _GAMMA (mod 2**64)``, so
    `floats` and `matrix` draw a block of the stream at once in numpy
    ``uint64`` arithmetic, which wraps exactly as the masked Python ints of
    `next64` do: a block equals the same number of scalar draws, bit for bit.
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * u

    def integer(self, lo: int, hi: int) -> int:
        # hi exclusive; modulo bias is irrelevant for instance generation
        return lo + self.next64() % (hi - lo)

    def _uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """The next n draws of `uniform(lo, hi)`, as one float array."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U64_GAMMA
        z += np.uint64(self.state)
        self.state = (self.state + n * _GAMMA) & _MASK
        z ^= z >> _U64_30
        z *= _U64_MIX1
        z ^= z >> _U64_27
        z *= _U64_MIX2
        z ^= z >> _U64_31
        z >>= _U64_11
        u = z.astype(float)
        u *= 2.0 ** -53
        u *= hi - lo
        u += lo
        return u

    def floats(self, n: int, lo: float = 0.0, hi: float = 1.0) -> list:
        return self._uniforms(n, lo, hi).tolist()

    def matrix(self, rows: int, cols: int, lo: float = 0.0, hi: float = 1.0) -> list:
        return self._uniforms(rows * cols, lo, hi).reshape(rows, cols).tolist()

    def permutation(self, n: int) -> list:
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integer(0, i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def _space(prefix: str, n: int) -> dict:
    return {"labels": [f"{prefix}{i}" for i in range(n)]}


def _scalar(prefix: str, weights: list) -> dict:
    return {"space": _space(prefix, len(weights)), "weights": weights}


def _matched_pair(rng: SplitMix64, nx: int, ny: int):
    mu = rng.floats(nx, 0.2, 1.0)
    nu = rng.floats(ny, 0.2, 1.0)
    scale = sum(mu) / sum(nu)
    nu = [w * scale for w in nu]
    return mu, nu


def _gen_scalar_ot(rng, nx=6, ny=6):
    mu, nu = _matched_pair(rng, nx, ny)
    return {
        "mu": _scalar("x", mu),
        "nu": _scalar("y", nu),
        "cost": rng.matrix(nx, ny),
    }


def _gen_partial(rng, nx=6, ny=6):
    mu = rng.floats(nx, 0.2, 1.0)
    nu = rng.floats(ny, 0.2, 1.0)
    mass = rng.uniform(0.2, 0.8) * min(sum(mu), sum(nu))
    return {
        "mu": _scalar("x", mu),
        "nu": _scalar("y", nu),
        "cost": rng.matrix(nx, ny),
        "mass": mass,
    }


def _gen_capacity(rng, nx=4, ny=4):
    # plan drawn first, capacity above it: a feasible instance by design
    plan = rng.matrix(nx, ny, 0.1, 1.0)
    cap = [[v * rng.uniform(1.1, 2.0) for v in row] for row in plan]
    return {
        "mu": _scalar("x", [sum(row) for row in plan]),
        "nu": _scalar("y", [sum(col) for col in zip(*plan)]),
        "cost": rng.matrix(nx, ny),
        "cap": cap,
    }


def _gen_invariant(rng, nx=4, ny=4):
    return {
        "mu": _scalar("x", rng.floats(nx, 0.2, 1.0)),
        "target": _space("y", ny),
        "cost": rng.matrix(nx, ny),
        "mapping": rng.permutation(ny),
    }


def _gen_multi(rng, sizes=(3, 3, 3)):
    total = None
    measures = []
    for i, n in enumerate(sizes):
        w = rng.floats(n, 0.2, 1.0)
        if total is None:
            total = sum(w)
        else:
            s = total / sum(w)
            w = [v * s for v in w]
        measures.append(_scalar(f"m{i}_", w))

    def tensor(dims):
        if len(dims) == 1:
            return rng.floats(dims[0])
        return [tensor(dims[1:]) for _ in range(dims[0])]

    return {"measures": measures, "cost": tensor(sizes)}


def _gen_glue(rng, nx=3, ny=3, nz=3):
    # second plan's rows are built on the first plan's middle marginal
    first = rng.matrix(nx, ny, 0.1, 1.0)
    ymarg = [sum(col) for col in zip(*first)]
    second = []
    for y in range(ny):
        row = rng.floats(nz, 0.1, 1.0)
        s = ymarg[y] / sum(row)
        second.append([v * s for v in row])
    return {
        "first": {"source": _space("x", nx), "target": _space("y", ny), "matrix": first},
        "second": {"source": _space("y", ny), "target": _space("z", nz), "matrix": second},
    }


def _gen_local(rng, nx=5, ny=5):
    # support plan first; cheap on-support costs, dear off-support ones
    plan = [[0.0] * ny for _ in range(nx)]
    for i in range(nx):
        j = rng.integer(0, ny)
        plan[i][j] = rng.uniform(0.2, 1.0)
    for j in range(ny):
        plan[rng.integer(0, nx)][j] += rng.uniform(0.2, 1.0)
    cost = [
        [
            rng.uniform(0.0, 0.4) if plan[i][j] > 0 else rng.uniform(0.6, 1.0)
            for j in range(ny)
        ]
        for i in range(nx)
    ]
    return {
        "mu": _scalar("x", [sum(row) for row in plan]),
        "nu": _scalar("y", [sum(col) for col in zip(*plan)]),
        "cost": cost,
        "threshold": 0.5,
    }


def _gen_strassen(rng, nx=4, ny=4):
    plan = rng.matrix(nx, ny, 0.1, 1.0)
    G = rng.matrix(nx, ny, -1.0, 1.0)
    attained = sum(G[i][j] * plan[i][j] for i in range(nx) for j in range(ny))
    return {
        "mu": _scalar("x", [sum(row) for row in plan]),
        "nu": _scalar("y", [sum(col) for col in zip(*plan)]),
        "constraints": [{"G": G, "kind": "le", "rhs": attained + rng.uniform(0.1, 0.5)}],
    }


def _vector_measure(prefix, values):
    return {"space": _space(prefix, len(values)), "values": values}


def _kernel_push(rng, values, ny):
    # rows of a random Markov kernel applied to the value array
    nx = len(values)
    d = len(values[0])
    rows = []
    for _ in range(nx):
        r = rng.floats(ny, 0.05, 1.0)
        s = sum(r)
        rows.append([v / s for v in r])
    out = [[0.0] * d for _ in range(ny)]
    for i in range(nx):
        for j in range(ny):
            for a in range(d):
                out[j][a] += rows[i][j] * values[i][a]
    return out


def _gen_vector_ot(rng, nx=5, ny=3, d=2):
    values = rng.matrix(nx, d, 0.1, 1.0)
    target = _kernel_push(rng, values, ny)
    return {
        "mu": _vector_measure("x", values),
        "nu": _vector_measure("y", target),
        "cost": rng.matrix(nx, ny),
    }


def _gen_dominance(rng, nx=4, ny=3, d=2):
    values = rng.matrix(nx, d, 0.1, 1.0)
    return {
        "mu": _vector_measure("x", values),
        "nu": _vector_measure("y", _kernel_push(rng, values, ny)),
    }


def _gen_martingale(rng, nx=5, ny=4, d=1):
    # barycenter targets computed from a drawn plan, so rows already match
    plan = rng.matrix(nx, ny, 0.1, 1.0)
    f = rng.matrix(nx, d, -1.0, 1.0)
    colsums = [sum(col) for col in zip(*plan)]
    g = [
        [
            sum(plan[i][j] * f[i][a] for i in range(nx)) / colsums[j]
            for a in range(d)
        ]
        for j in range(ny)
    ]
    return {
        "muRef": _scalar("x", [sum(row) for row in plan]),
        "nuRef": _scalar("y", colsums),
        "f": f,
        "g": g,
        "cost": rng.matrix(nx, ny),
    }


def _gen_chain(rng, k=5, hops=2):
    mu = rng.floats(k, 0.2, 1.0)
    nu = rng.floats(k, 0.2, 1.0)
    med = rng.floats(k, 0.2, 1.0)
    total = sum(mu)
    nu = [w * total / sum(nu) for w in nu]
    med = [w * total / sum(med) for w in med]
    return {
        "space": _space("s", k),
        "cost": rng.matrix(k, k),
        "mu": mu,
        "nu": nu,
        "medium": med,
        "hops": hops,
    }


def _gen_game(rng, nx=5, ny=5):
    return {"payoff": rng.matrix(nx, ny, -1.0, 1.0)}


def _gen_moment(rng, k=3, n=64):
    # mass, mean, raw second moment on a uniform grid of [-2, 2]
    xs = [-2.0 + 4.0 * i / (n - 1) for i in range(n)]
    M = [[x ** p for x in xs] for p in range(k)]
    w = [0.0] * n
    for _ in range(5):
        w[rng.integer(0, n)] += rng.uniform(0.1, 1.0)
    target = [sum(M[p][i] * w[i] for i in range(n)) for p in range(k)]
    return {"functions": M, "target": target}


def _gen_trig(rng, n=3, gridSize=32):
    # diagonally dominant Toeplitz data: strictly inside the feasible cone
    c0 = rng.uniform(0.5, 2.0)
    r = c0 / (2.0 * (n + 1))
    coeffs = [[c0, 0.0]]
    for _ in range(n):
        coeffs.append([rng.uniform(-r, r), rng.uniform(-r, r)])
    return {"coeffs": coeffs, "gridSize": gridSize}


def _gen_conjugate(rng, n=65):
    h = 2.0 / (n - 1)
    grid = [-1.0 + h * i for i in range(n)]
    slopes = sorted(rng.floats(n - 1, -0.9, 0.9))
    values = [0.0]
    for i in range(n - 1):
        values.append(values[-1] + slopes[i] * h)
    return {"f": {"grid": grid, "values": values}}


_GENERATORS = {
    "scalar_ot": _gen_scalar_ot,
    "partial": _gen_partial,
    "capacity": _gen_capacity,
    "invariant": _gen_invariant,
    "multi": _gen_multi,
    "glue": _gen_glue,
    "local": _gen_local,
    "strassen": _gen_strassen,
    "vector_ot": _gen_vector_ot,
    "dominance": _gen_dominance,
    "martingale": _gen_martingale,
    "chain": _gen_chain,
    "game": _gen_game,
    "moment": _gen_moment,
    "trig": _gen_trig,
    "conjugate": _gen_conjugate,
}


def gen(kind: str, seed: int, size: Optional[dict] = None) -> ProblemFile:
    """Generate one schema-valid instance of the given kind.

    `size` holds keyword arguments of the kind's generator; the defaults
    are in its signature, and an unknown key raises TypeError.
    """
    if kind not in KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    payload = _GENERATORS[kind](SplitMix64(seed), **(size or {}))
    return parse_problem({"kind": kind, "payload": payload, "seed": int(seed)})
