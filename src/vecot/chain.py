"""Multi-hop transport through a prescribed or a free average medium.

A chain of n+1 couplings moves mu to nu through n intermediate measures
whose sum is pinned to n times a medium measure, or left free.  Shortcut
costs over the intermediates are computed by min-plus dynamic
programming, optionally discounted by a potential on the intermediate
points, and the LP value is cross-checked against the dual identity

    value = inner_ot(mu, nu, discounted shortcut cost) + n * <potential, medium>

with the two sides computed by independent code paths.  A free medium is
the same LP without the medium rows, and the identity with potential 0:
the plain shortcut cost `reduced_cost`.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .lp import LpProblem, NumericalBreakdown, solve
from .measures import FiniteSpace, ScalarMeasure, SpaceMismatch, TransportPlan
from .scalar import InfeasibleTransport, _check_cost, _marginal_index, solve_ot
from .tolerances import CHAIN_TOL, GAP_TOL

__all__ = [
    "ChainProblem",
    "ChainResult",
    "chain_free_medium",
    "chain_ot",
    "reduced_cost",
    "weighted_reduced_cost",
]


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-chunked so the (k, k, k) broadcast never exceeds ~8 MB
    k = a.shape[0]
    chunk = max(1, (1 << 20) // max(1, k * k))
    out = np.empty_like(a)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        out[start:stop] = np.min(a[start:stop, :, None] + b[None, :, :], axis=1)
    return out


def reduced_cost(cost, n: int) -> np.ndarray:
    """Cheapest way to connect x to y through n intermediate points.

    n = 0 returns the cost itself; each further step is one min-plus
    product with the original matrix.  Ties resolve to the smallest
    intermediate index (first minimum), which matters only to callers
    reconstructing paths.
    """
    c = np.asarray(cost, dtype=float)  # weighted_reduced_cost checks it
    return weighted_reduced_cost(c, np.zeros(c.shape[:1]), n)


def weighted_reduced_cost(cost, potential, n: int) -> np.ndarray:
    """Shortcut cost where every visited intermediate z earns back potential[z].

    Recursion: step n pays min over z of (n-1)-step cost to z, plus the
    hop cost from z, minus the potential collected at z.  A zero potential
    reduces to reduced_cost.
    """
    k = len(np.atleast_2d(cost))  # square: as many columns as rows
    c = _check_cost(cost, (k, k))
    pot = np.asarray(potential, dtype=float).reshape(-1)
    if pot.shape != (k,):
        raise ValueError(f"potential must have length {k}, got shape {pot.shape}")
    if not np.all(np.isfinite(pot)):
        raise ValueError("potential must be finite")
    if n < 0:
        raise ValueError(f"intermediate count must be >= 0, got {n}")
    hop = c - pot[:, None]
    out = c.copy()
    for _ in range(n):
        out = _min_plus(out, hop)
    return out


@dataclass
class ChainProblem:
    """Self-transport chain data on one finite space.

    mu and nu are the endpoints, medium the prescribed average of the
    hops intermediate measures (None leaves it free), cost the per-hop
    matrix.  The measures must live on `space`; their masses are left to
    the chain LP, whose Farkas vector certifies any gap between them.
    """

    space: FiniteSpace
    cost: np.ndarray
    mu: ScalarMeasure
    nu: ScalarMeasure
    medium: Optional[ScalarMeasure]
    hops: int

    def __post_init__(self):
        k = self.space.size
        self.cost = _check_cost(self.cost, (k, k))
        for name, m in (("mu", self.mu), ("nu", self.nu), ("medium", self.medium)):
            if m is not None and not self.space.matches(m.space):
                raise SpaceMismatch(f"{name} lives on a different space")
        if self.hops < 0:
            raise ValueError(f"hop count must be >= 0, got {self.hops}")


@dataclass
class ChainResult:
    """Optimal chain: total cost, the hops+1 leg plans, medium-row duals.

    stages holds the measures visited along the chain, endpoints included
    (hops + 2 rows).  medium_potential is the dual vector on the pinned
    average (zero when the medium is free); it certifies the value through
    the identity checked in chain_ot.
    """

    value: float
    plans: List[TransportPlan]
    medium_potential: np.ndarray
    stages: np.ndarray


def _chain_lp(problem: ChainProblem) -> LpProblem:
    """The chain LP.  Rows: source row sums, `hops` linking rows, the medium
    average when pinned, target column sums; variables: the hops + 1 plans."""
    k, n, pinned = problem.space.size, problem.hops, problem.medium is not None
    src, dst = _marginal_index((k, k), (0,)), _marginal_index((k, k), (1,))
    A = np.zeros(((n + 2 + pinned) * k, (n + 1) * k * k))

    def block(i):
        return i * k * k + np.arange(k * k)

    A[src, block(0)] = 1.0
    for i in range(1, n + 1):
        A[i * k + dst, block(i - 1)] = 1.0
        A[i * k + src, block(i)] = -1.0
        if pinned:
            A[(n + 1) * k + src, block(i)] = 1.0
    A[A.shape[0] - k + dst, block(n)] = 1.0
    medium = [n * problem.medium.weights] if pinned else []
    b = np.concatenate([problem.mu.weights, np.zeros(n * k), *medium, problem.nu.weights])
    return LpProblem(c=np.tile(problem.cost.ravel(), n + 1), A=A, b=b, kinds=["eq"] * A.shape[0])


def _stages(plans: List[np.ndarray]) -> np.ndarray:
    first = plans[0].sum(axis=1)
    rest = [p.sum(axis=0) for p in plans]
    return np.vstack([first] + rest)


def chain_ot(problem: ChainProblem) -> ChainResult:
    """Cheapest chain of hops + 1 couplings, through the medium if pinned.

    The medium-row duals are returned as medium_potential (zero when the
    medium is free, as the LP then has no medium rows) and the value is
    verified against an independently computed single-coupling problem
    with the potential-discounted shortcut cost; disagreement beyond
    CHAIN_TOL (GAP_TOL when free) raises NumericalBreakdown.  Masses that
    differ raise InfeasibleTransport with the chain LP's Farkas vector.
    """
    if problem.hops < 1:
        raise ValueError("chain_ot needs at least one hop measure")
    k, n, pinned = problem.space.size, problem.hops, problem.medium is not None
    p = _chain_lp(problem)
    sol = solve(p)
    if sol.status == "infeasible":
        y = sol.farkas
        cert = {"source": y[:k], "linking": y[k : (n + 1) * k].reshape(n, k), "target": y[-k:],
                "margin": float(y @ p.b)}
        if pinned:
            cert["medium"] = y[(n + 1) * k : (n + 2) * k]
        aim = "meets the prescribed medium average" if pinned else "carries mu to nu"
        raise InfeasibleTransport(f"no chain of plans {aim}", cert)
    if sol.status != "optimal":
        raise NumericalBreakdown(f"chain LP returned {sol.status}")
    mats = [
        np.maximum(sol.x[i * k * k : (i + 1) * k * k], 0.0).reshape(k, k)
        for i in range(n + 1)
    ]
    pot = sol.y[(n + 1) * k : (n + 2) * k] if pinned else np.zeros(k)
    inner = solve_ot(problem.mu, problem.nu, weighted_reduced_cost(problem.cost, pot, n))
    other = inner.value + (n * float(pot @ problem.medium.weights) if pinned else 0.0)
    tol = CHAIN_TOL if pinned else GAP_TOL
    if abs(sol.value - other) > tol * (1.0 + abs(sol.value)):
        raise NumericalBreakdown(
            f"chain duality check failed: {sol.value!r} vs {other!r}"
        )
    plans = [TransportPlan(problem.space, problem.space, m) for m in mats]
    return ChainResult(sol.value, plans, pot, _stages(mats))


def chain_free_medium(
    mu: ScalarMeasure, nu: ScalarMeasure, cost, n: int
) -> float:
    """Best chain value when the medium average is left free: `chain_ot`
    with no medium, whose LP has no medium rows, since any intermediates
    average to some medium."""
    return chain_ot(ChainProblem(mu.space, cost, mu, nu, None, n)).value
