"""Multi-hop transport through a prescribed or a free average medium.

A chain of n+1 couplings moves mu to nu through n intermediate measures
whose sum is pinned to n times a medium measure, or left free.  Shortcut
costs over the intermediates are computed by min-plus dynamic
programming, optionally discounted by a potential on the intermediate
points.  The chain duality

    value = inner_ot(mu, nu, discounted shortcut cost) + n * <potential, medium>

is not compared: the shortcut's answer, lifted onto the chain LP, passes
`lp.gate` there, whose duality-gap check is this identity.  A free medium
(potential 0: the plain `reduced_cost`) is the shortcut solve alone: each
cell of its plan is routed along a path backtracked through the min-plus
powers, the shortcut costs through 0, 1, ..., n stops.  The chain LP is an
operator; a free chain gates on it, a pinned one solves it on the dense engine.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .lp import LpProblem, LpSolution, NumericalBreakdown, gate, solve
from .measures import FiniteSpace, ScalarMeasure, SpaceMismatch, TransportPlan
from .network import TransportIncidence, _marginal_index
from .scalar import InfeasibleTransport, _check_cost, solve_ot

__all__ = [
    "ChainProblem",
    "ChainResult",
    "chain_free_medium",
    "chain_ot",
    "reduced_cost",
    "weighted_reduced_cost",
]


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min over w of a[x, w] + b[w, y]."""
    # row-chunked so the (k, k, k) broadcast never exceeds ~8 MB
    k = a.shape[0]
    chunk = max(1, (1 << 20) // max(1, k * k))
    out = np.empty_like(a)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        out[start:stop] = np.min(a[start:stop, :, None] + b[None, :, :], axis=1)
    return out


def _powers(cost: np.ndarray, hop: np.ndarray, n: int) -> List[np.ndarray]:
    """Shortcut costs through 0, 1, ..., n stops: cost, then one more
    min-plus product with hop per stop."""
    powers = [cost]
    for _ in range(n):
        powers.append(_min_plus(powers[-1], hop))
    return powers


def reduced_cost(cost, n: int) -> np.ndarray:
    """Cheapest way to connect x to y through n intermediate points.

    n = 0 returns a copy of the cost; each further step is one min-plus
    product with the original matrix.
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
    return _powers(c.copy(), c - pot[:, None], n)[-1]


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
    average (zero when the medium is free), under which chain_ot lifted
    the shortcut's dual and gated the plans against it.
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
    blocks, i = n + 2 + pinned, np.arange(n)
    # ends[block, plan]: a cell's row in a block of k rows, in which link i
    # adds plan i - 1's column sums and subtracts plan i's row sums
    ends = np.tile(src, (blocks, n + 1, 1))
    weights = np.zeros(ends.shape)
    weights[0, 0] = weights[-1, n] = 1.0
    ends[i + 1, i] = ends[-1, n] = dst
    weights[i + 1, i], weights[i + 1, i + 1] = 1.0, -1.0
    if pinned:
        weights[n + 1, 1:] = 1.0
    A = TransportIncidence([k] * blocks, ends.reshape(blocks, -1), weights.reshape(blocks, -1))
    medium = [n * problem.medium.weights] if pinned else []
    b = np.concatenate([problem.mu.weights, np.zeros(n * k), *medium, problem.nu.weights])
    return LpProblem(c=np.tile(problem.cost.ravel(), n + 1), A=A, b=b, kinds=["eq"] * b.size)


def _stages(plans: List[np.ndarray]) -> np.ndarray:
    first = plans[0].sum(axis=1)
    rest = [p.sum(axis=0) for p in plans]
    return np.vstack([first] + rest)


def _routed(plan: np.ndarray, powers: List[np.ndarray], cost: np.ndarray) -> np.ndarray:
    """The chain LP's primal that sends each shortcut cell (x, y) of `plan`
    along a cheapest path x -> z_1 -> ... -> z_n -> y, leg after leg.  The
    path is backtracked from z_{n+1} = y: z_i is the first w attaining
    powers[i-1][x, w] + cost[w, z_{i+1}]."""
    k = plan.shape[0]
    xs, ys = np.nonzero(plan)
    path = [ys]
    for power in reversed(powers[:-1]):
        path.append(np.argmin(power[xs] + cost[:, path[-1]].T, axis=1))
    path = [xs] + path[::-1]
    return np.concatenate([np.bincount(a * k + b, plan[xs, ys], k * k) for a, b in zip(path, path[1:])])


def _lifted_dual(problem: ChainProblem, psi, phi, pot) -> np.ndarray:
    """The chain LP's dual made from the shortcut's (psi, phi): link i takes
    l_i, with l_1(z) = min_x c(x, z) - psi(x) and l_{i+1}(z) = min_w l_i(w)
    + c(w, z) - pot(w); the medium rows, when pinned, take pot."""
    c = problem.cost
    links = [np.min(c - psi[:, None], axis=0)]
    for _ in range(1, problem.hops):
        links.append(np.min(links[-1][:, None] + c - pot[:, None], axis=0))
    medium = [pot] if problem.medium is not None else []
    return np.concatenate([psi, *links, *medium, phi])


def _gap(problem: ChainProblem, p: LpProblem, y: np.ndarray) -> InfeasibleTransport:
    """The mass gap that y, a gated Farkas vector of the chain LP p, proves."""
    k, n = problem.space.size, problem.hops
    cert = {"source": y[:k], "linking": y[k : (n + 1) * k].reshape(n, k), "target": y[-k:],
            "margin": float(y @ p.b)}
    if problem.medium is None:
        return InfeasibleTransport("no chain of plans carries mu to nu", cert)
    cert["medium"] = y[(n + 1) * k : (n + 2) * k]
    return InfeasibleTransport("no chain of plans meets the prescribed medium average", cert)


def chain_ot(problem: ChainProblem) -> ChainResult:
    """Cheapest chain of hops + 1 couplings, through the medium if pinned.

    A pinned chain solves its chain LP for the plans and the medium-row
    duals pot; a free one backtracks its shortcut plan's paths, pot = 0.
    The plans pass `lp.gate` on the chain LP against the dual lifted from
    the transport under `weighted_reduced_cost(cost, pot, hops)`.  Masses
    that differ raise InfeasibleTransport with a Farkas vector of the chain LP:
    the pinned LP's own, or the shortcut's (psi, phi) with links at -min psi
    and any medium rows at 0.
    """
    if problem.hops < 1:
        raise ValueError("chain_ot needs at least one hop measure")
    k, n, pinned = problem.space.size, problem.hops, problem.medium is not None
    p = _chain_lp(problem)
    x, pot = None, np.zeros(k)
    if pinned:
        sol = solve(p)
        if sol.status == "infeasible":
            raise _gap(problem, p, sol.farkas)
        if sol.status != "optimal":
            raise NumericalBreakdown(f"chain LP returned {sol.status}")
        x, pot = sol.x, sol.y[(n + 1) * k : (n + 2) * k]
    powers = _powers(problem.cost, problem.cost - pot[:, None], n)
    try:
        inner = solve_ot(problem.mu, problem.nu, powers[-1])
    except InfeasibleTransport as exc:
        psi, phi = exc.cert["psi"], exc.cert["phi"]
        y = np.concatenate([psi, np.full(n * k, -psi.min()), np.zeros(pinned * k), phi])
        raise _gap(problem, p, gate(p, LpSolution("infeasible", np.inf, farkas=y)).farkas) from None
    x = _routed(inner.plan.matrix, powers, problem.cost) if x is None else x
    y = _lifted_dual(problem, inner.psi, inner.phi, pot)
    value = gate(p, LpSolution("optimal", float(p.c @ x), x=x, y=y)).value
    mats = [np.maximum(x[i * k * k : (i + 1) * k * k], 0.0).reshape(k, k) for i in range(n + 1)]
    plans = [TransportPlan(problem.space, problem.space, m) for m in mats]
    return ChainResult(value, plans, pot, _stages(mats))


def chain_free_medium(
    mu: ScalarMeasure, nu: ScalarMeasure, cost, n: int
) -> float:
    """Best chain value when the medium average is left free: `chain_ot`
    with no medium, whose LP has no medium rows, since any intermediates
    average to some medium."""
    return chain_ot(ChainProblem(mu.space, cost, mu, nu, None, n)).value
