"""Reproducible random problem instances.

All randomness flows through a 64-bit splitmix stream, and floats are
built from the integer stream in a fixed order with no transcendental
calls, so a (kind, seed, size) triple yields byte-identical files on any
platform.  Each kind's generator lives in its `kinds` record; feasible
variants are constructed forward there (a plan, kernel, or weight vector
is drawn first and the constraint data derived from it), so feasibility
is guaranteed by construction rather than by rejection.
"""

from typing import Optional

import numpy as np

from .kinds import TABLE
from .serialize import ProblemFile, parse_problem

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U64_GAMMA, _U64_MIX1, _U64_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U64_30, _U64_27, _U64_31, _U64_11 = (np.uint64(s) for s in (30, 27, 31, 11))


class SplitMix64:
    """Standard splitmix64: deterministic, platform-independent.

    The state is a counter, ``state_k = seed + k * _GAMMA (mod 2**64)``, so
    `uniforms` (and `floats`, `matrix` through it) draws a block of the
    stream at once in numpy ``uint64`` arithmetic, which wraps exactly as
    the masked Python ints of `next64` do: a block equals the same number
    of scalar draws, bit for bit.

    A seed outside [0, 2**64) raises ValueError, so no two seeds share a
    stream; `gen` and `vector.blackwell_check` take this rule from here.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        if seed > _MASK:
            raise ValueError(f"seed must be below 2**64, got {seed}")
        self.state = seed

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

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
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
        return self.uniforms(n, lo, hi).tolist()

    def matrix(self, rows: int, cols: int, lo: float = 0.0, hi: float = 1.0) -> list:
        return self.uniforms(rows * cols, lo, hi).reshape(rows, cols).tolist()

    def permutation(self, n: int) -> list:
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integer(0, i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def gen(kind: str, seed: int, size: Optional[dict] = None) -> ProblemFile:
    """Generate one schema-valid instance of the given kind.

    `size` holds keyword arguments of the kind's generator (its record's
    `generate` in `kinds.TABLE`); the defaults are in its signature, and
    an unknown key raises TypeError.
    """
    if kind not in TABLE:
        raise ValueError(f"unsupported kind {kind!r}")
    payload = TABLE[kind].generate(SplitMix64(seed), **(size or {}))
    return parse_problem({"kind": kind, "payload": payload, "seed": int(seed)})
