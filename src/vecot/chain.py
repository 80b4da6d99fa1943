"""Multi-hop transport through a prescribed average medium.

A chain of n+1 couplings moves mu to nu through n intermediate measures
whose sum is pinned to n times a medium measure.  Shortcut costs over the
intermediates are computed by min-plus dynamic programming, optionally
discounted by a potential on the intermediate points, and the LP value is
cross-checked against the dual identity

    value = inner_ot(mu, nu, discounted shortcut cost) + n * <potential, medium>

with the two sides computed by independent code paths.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .lp import LpProblem, NumericalBreakdown, solve
from .measures import FiniteSpace, ScalarMeasure, SpaceMismatch, TransportPlan
from .scalar import InfeasibleTransport, _marginal_index, solve_ot
from .tolerances import CHAIN_TOL, FEAS_TOL, GAP_TOL

__all__ = [
    "ChainProblem",
    "ChainResult",
    "chain_free_medium",
    "chain_ot",
    "reduced_cost",
    "weighted_reduced_cost",
]


def _check_square(cost) -> np.ndarray:
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost must be finite")
    return c


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
    c = _check_square(cost)
    if n < 0:
        raise ValueError(f"intermediate count must be >= 0, got {n}")
    out = c.copy()
    for _ in range(n):
        out = _min_plus(out, c)
    return out


def weighted_reduced_cost(cost, potential, n: int) -> np.ndarray:
    """Shortcut cost where every visited intermediate z earns back potential[z].

    Recursion: step n pays min over z of (n-1)-step cost to z, plus the
    hop cost from z, minus the potential collected at z.  A zero potential
    reduces to reduced_cost.
    """
    c = _check_square(cost)
    k = c.shape[0]
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
    hops intermediate measures, cost the per-hop matrix.  All three
    measures must live on `space` and carry equal total mass.
    """

    space: FiniteSpace
    cost: np.ndarray
    mu: ScalarMeasure
    nu: ScalarMeasure
    medium: ScalarMeasure
    hops: int

    def __post_init__(self):
        self.cost = _check_square(self.cost)
        k = self.space.size
        if self.cost.shape != (k, k):
            raise ValueError(
                f"cost shape {self.cost.shape} does not match space size {k}"
            )
        for name, m in (("mu", self.mu), ("nu", self.nu), ("medium", self.medium)):
            if not self.space.matches(m.space):
                raise SpaceMismatch(f"{name} lives on a different space")
        if self.hops < 0:
            raise ValueError(f"hop count must be >= 0, got {self.hops}")
        totals = [self.mu.total(), self.nu.total(), self.medium.total()]
        scale = max(1.0, *totals)
        if max(totals) - min(totals) > FEAS_TOL * scale:
            raise ValueError(
                f"mu, nu, medium must carry equal mass, got totals {totals}"
            )


@dataclass
class ChainResult:
    """Optimal chain: total cost, the hops+1 leg plans, medium-row duals.

    stages holds the measures visited along the chain, endpoints included
    (hops + 2 rows).  medium_potential is the dual vector on the pinned
    average; it certifies the value through the identity checked in
    chain_ot.
    """

    value: float
    plans: List[TransportPlan]
    medium_potential: np.ndarray
    stages: np.ndarray


def _chain_system(k: int, n: int, with_medium_vars: bool):
    # rows: endpoint row sums, n linking rows, medium average, endpoint
    # column sums; variables: n+1 plans flattened, then optionally a free
    # medium measure with coefficient -n in the average rows
    src, dst = _marginal_index((k, k), (0,)), _marginal_index((k, k), (1,))
    nplan = (n + 1) * k * k
    nvar = nplan + (k if with_medium_vars else 0)
    A = np.zeros(((n + 3) * k, nvar))

    def block(i):
        return i * k * k + np.arange(k * k)

    A[src, block(0)] = 1.0
    for i in range(1, n + 1):
        A[i * k + dst, block(i - 1)] = 1.0
        A[i * k + src, block(i)] = -1.0
        A[(n + 1) * k + src, block(i)] = 1.0
    med = slice((n + 1) * k, (n + 2) * k)
    if with_medium_vars:
        A[med, nplan:] = -float(n) * np.eye(k)
    A[(n + 2) * k + dst, block(n)] = 1.0
    return A, med


def _solve_chain_lp(problem: ChainProblem, free_medium: bool):
    k, n = problem.space.size, problem.hops
    A, med = _chain_system(k, n, free_medium)
    b = np.concatenate(
        [
            problem.mu.weights,
            np.zeros(n * k),
            np.zeros(k) if free_medium else n * problem.medium.weights,
            problem.nu.weights,
        ]
    )
    c_full = np.concatenate(
        [np.tile(problem.cost.ravel(), n + 1), np.zeros(A.shape[1] - (n + 1) * k * k)]
    )
    sol = solve(LpProblem(c=c_full, A=A, b=b, kinds=["eq"] * A.shape[0]))
    if sol.status == "infeasible":
        y = sol.farkas
        raise InfeasibleTransport(
            "no chain of plans meets the prescribed medium average",
            {
                "source": y[:k],
                "linking": y[k : (n + 1) * k].reshape(n, k),
                "medium": y[med],
                "target": y[(n + 2) * k :],
                "margin": float(y @ b),
            },
        )
    if sol.status != "optimal":
        raise NumericalBreakdown(f"chain LP returned {sol.status}")
    return sol, med


def _stages(plans: List[np.ndarray]) -> np.ndarray:
    first = plans[0].sum(axis=1)
    rest = [p.sum(axis=0) for p in plans]
    return np.vstack([first] + rest)


def chain_ot(problem: ChainProblem) -> ChainResult:
    """Cheapest chain of hops + 1 couplings with the pinned medium average.

    The medium-row duals are returned as medium_potential and the value is
    verified against an independently computed single-coupling problem
    with the potential-discounted shortcut cost; disagreement beyond
    CHAIN_TOL raises NumericalBreakdown.
    """
    if problem.hops < 1:
        raise ValueError("chain_ot needs at least one hop measure")
    k, n = problem.space.size, problem.hops
    sol, med = _solve_chain_lp(problem, free_medium=False)
    mats = [
        np.maximum(sol.x[i * k * k : (i + 1) * k * k], 0.0).reshape(k, k)
        for i in range(n + 1)
    ]
    pot = sol.y[med]
    inner = solve_ot(problem.mu, problem.nu, weighted_reduced_cost(problem.cost, pot, n))
    other = inner.value + n * float(pot @ problem.medium.weights)
    if abs(sol.value - other) > CHAIN_TOL * (1.0 + abs(sol.value)):
        raise NumericalBreakdown(
            f"chain duality check failed: {sol.value!r} vs {other!r}"
        )
    plans = [TransportPlan(problem.space, problem.space, m) for m in mats]
    return ChainResult(sol.value, plans, pot, _stages(mats))


def chain_free_medium(
    mu: ScalarMeasure, nu: ScalarMeasure, cost, n: int
) -> float:
    """Best chain value when the medium average is left free.

    Solved as the chain LP with the medium pinned to extra nonnegative
    variables, then cross-checked against the one-coupling problem with
    the plain shortcut cost; the two must agree within GAP_TOL.
    """
    if n < 1:
        raise ValueError("chain_free_medium needs at least one hop measure")
    placeholder = ScalarMeasure(mu.space, np.full(mu.space.size, mu.total() / mu.space.size))
    problem = ChainProblem(mu.space, cost, mu, nu, placeholder, n)
    sol, _ = _solve_chain_lp(problem, free_medium=True)
    direct = solve_ot(mu, nu, reduced_cost(problem.cost, n))
    if abs(sol.value - direct.value) > GAP_TOL * (1.0 + abs(sol.value)):
        raise NumericalBreakdown(
            f"free-medium chain disagrees with shortcut transport: "
            f"{sol.value!r} vs {direct.value!r}"
        )
    return float(sol.value)
