"""Scalar transport problems and their variants, each solved as one LP.

Every LP here but `solve_invariant`'s two is a
`network.TransportIncidence`, a block of rows per marginal.  `lp.solve`
runs the two-block ones (`solve_ot`, `solve_partial`, `solve_capacity`,
`local_constraint_feasible`, `solve_multimarginal` of two measures and
`glue_feasible` without a third pair, whose cell (x, y, z) is the arc
from (x, y) to (y, z)) on the network simplex, which leaves zero-mass
atoms out of its tree and prices them, so their potentials are plain LP
duals here.  That engine solves only eq rows: `solve_partial` states
partial transport as plain transport between spaces augmented by one
dummy atom each, and reads its potentials off the augmented duals.  The
rest reach the dense engine, a `strassen_feasible` constraint as a
one-row weighted block; only three or more measures refuse a product
space of more than 1e6 cells.  Every solver returns dual potentials
with the optimal plan.  Every infeasible verdict but `solve_capacity`'s
unit certificate for a short row or column, which comes before any LP,
is its LP's Farkas vector, which `lp.solve` checks with
`lp.farkas_margin` whichever engine found it; a solver only splits it
into named potentials.

Sign conventions follow the LP duals directly:

- plain:      psi(x) + phi(y) <= c(x,y),          value = psi.mu + phi.nu
- partial:    psi(x) + phi(y) + lam <= c(x,y) with psi, phi <= 0,
              value = psi.mu + phi.nu + lam*m
- capacity:   maximization; value = psi.mu + phi.nu + sum xi.cap with
              xi = [c - psi - phi]_+
- invariant:  psi(x) + phi(y) - phi(Ty) <= c(x,y), value = psi.mu
- multi:      sum_i psi_i(x_i) <= c(x_1..x_k)
"""

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .lp import LpProblem, NumericalBreakdown, solve
from .measures import ScalarMeasure, TransportPlan
from .network import TransportIncidence, _marginal_index
from .tolerances import CERT_TOL, FEAS_TOL

__all__ = [
    "OtResult",
    "FeasibilityResult",
    "GlueResult",
    "InfeasibleTransport",
    "solve_ot",
    "solve_partial",
    "solve_capacity",
    "solve_capacity_min",
    "solve_invariant",
    "solve_multimarginal",
    "glue_feasible",
    "local_constraint_feasible",
    "strassen_feasible",
]


class InfeasibleTransport(Exception):
    """Raised when a transport problem has no feasible plan.

    The `cert` attribute holds a dictionary describing a separating
    certificate; its defining inequality is validated numerically before
    the exception is raised.
    """

    def __init__(self, message: str, cert: dict):
        super().__init__(message)
        self.cert = cert


@dataclass
class OtResult:
    value: float
    plan: TransportPlan
    psi: np.ndarray
    phi: np.ndarray
    extras: dict = field(default_factory=dict)


@dataclass
class FeasibilityResult:
    feasible: bool
    plan: Optional[TransportPlan] = None
    cert: Optional[dict] = None


@dataclass
class GlueResult:
    feasible: bool
    tensor: Optional[np.ndarray] = None
    cert: Optional[dict] = None


def _check_cost(cost, shape, name: str = "cost") -> np.ndarray:
    """`cost` as a float array of the given shape, finite in every entry.

    The one check of every cost matrix or tensor a solver or constructor
    takes, and of `strassen_feasible`'s constraint matrices (as `name`).
    """
    c = np.atleast_2d(np.asarray(cost, dtype=float))
    if c.shape != tuple(shape):
        raise ValueError(f"{name} has shape {c.shape}, expected {tuple(shape)}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{name} must be finite")
    return c


def _pair_cert(farkas: np.ndarray, mu: ScalarMeasure, nu: ScalarMeasure) -> dict:
    """A bipartite LP's Farkas vector split into (psi, phi), with its margin.

    `lp.farkas_margin` has checked it: psi(x) + phi(y) >= 0 on every arc
    and margin = psi.mu + phi.nu < -CERT_TOL.
    """
    psi, phi = farkas[: mu.space.size], farkas[mu.space.size :]
    return {"psi": psi, "phi": phi, "margin": float(psi @ mu.weights + phi @ nu.weights)}


def _transport_lp(mu: ScalarMeasure, nu: ScalarMeasure, cost, D: float = np.inf) -> LpProblem:
    """Transport from mu to nu along the pairs (x, y) that cost at most D: an eq row
    per atom of mu, then of nu; a column per such pair, in row-major order."""
    nx, ny = mu.space.size, nu.space.size
    c = _check_cost(cost, (nx, ny))
    ax, ay = np.nonzero(c <= D)
    b = np.concatenate([mu.weights, nu.weights])
    return LpProblem(c=c[ax, ay], A=TransportIncidence((nx, ny), (ax, ay)), b=b, kinds=["eq"] * (nx + ny))


def solve_ot(mu: ScalarMeasure, nu: ScalarMeasure, cost) -> OtResult:
    """Least-cost coupling of mu and nu.

    Returns the optimal plan and potentials with duality gap at most
    GAP_TOL * (1 + |value|).  When the total masses differ, the LP is
    infeasible and its Farkas vector splits into the separating (psi, phi)
    raised with InfeasibleTransport: psi(x) + phi(y) >= 0 everywhere and
    margin = psi.mu + phi.nu < 0.
    """
    nx, ny = mu.space.size, nu.space.size
    sol = solve(_transport_lp(mu, nu, cost))
    if sol.status == "infeasible":
        raise InfeasibleTransport(
            f"total masses differ: {mu.total()!r} vs {nu.total()!r}", _pair_cert(sol.farkas, mu, nu)
        )
    if sol.status != "optimal":
        raise NumericalBreakdown(f"transport LP returned {sol.status}")
    plan = TransportPlan(mu.space, nu.space, np.maximum(sol.x, 0.0).reshape(nx, ny))
    return OtResult(sol.value, plan, sol.y[:nx], sol.y[nx:])


def solve_partial(mu: ScalarMeasure, nu: ScalarMeasure, cost, m: float) -> OtResult:
    """Transport a prescribed amount m of mass, m <= min(mu(X), nu(Y)).

    Solved as plain transport between augmented spaces: a dummy source
    supplies nu(Y) - m to every sink and every source sends its unshipped
    mass to a dummy sink of demand mu(X) - m, along arcs of cost 0.  With
    no dummy-to-dummy arc, exactly m crosses the real arcs.  The LP's eq
    duals (psi~, phi~) on the augmented atoms give the potentials of the
    inequality-constrained program: psi = psi~ + phi~(dummy sink) <= 0,
    phi = phi~ + psi~(dummy source) <= 0 and lam = -(psi~(dummy source) +
    phi~(dummy sink)), with psi(x) + phi(y) + lam <= c(x,y) and
    value = psi.mu + phi.nu + lam * m (lam in extras["lam"]).
    """
    nx, ny = mu.space.size, nu.space.size
    c = _check_cost(cost, (nx, ny))
    mass_x, mass_y = mu.total(), nu.total()
    cap = min(mass_x, mass_y)
    if not -FEAS_TOL <= m <= cap + FEAS_TOL:
        raise ValueError(f"mass {m!r} outside [0, {cap!r}]")
    m = min(max(m, 0.0), cap)
    # real arcs in row-major order, then sources -> dummy sink ny, then
    # dummy source nx -> sinks
    tail = np.concatenate([np.repeat(np.arange(nx), ny), np.arange(nx), np.full(ny, nx)])
    head = np.concatenate([np.tile(np.arange(ny), nx), np.full(nx, ny), np.arange(ny)])
    A = TransportIncidence((nx + 1, ny + 1), (tail, head))
    b = np.concatenate([mu.weights, [mass_y - m], nu.weights, [mass_x - m]])
    c_aug = np.concatenate([c.ravel(), np.zeros(nx + ny)])
    sol = solve(LpProblem(c=c_aug, A=A, b=b, kinds=["eq"] * (nx + ny + 2)))
    if sol.status != "optimal":
        raise NumericalBreakdown(f"partial transport LP returned {sol.status}")
    x, y = sol.x[: nx * ny], sol.y
    plan = TransportPlan(mu.space, nu.space, np.maximum(x, 0.0).reshape(nx, ny))
    psi, phi = y[:nx] + y[-1], y[nx] + y[nx + 1 : -1]
    # lam = -(y[nx] + y[-1]), written so that a zero lam is 0.0, not -0.0
    return OtResult(float(c.ravel() @ x), plan, psi, phi, extras={"lam": float(-y[-1] - y[nx])})


def _kellerer_slack(psi, phi, mu: ScalarMeasure, nu: ScalarMeasure, cap: TransportPlan) -> float:
    """sum([psi + phi]_+ * cap) - psi.mu - phi.nu; below zero, no plan fits under cap."""
    pos_part = np.maximum(psi[:, None] + phi[None, :], 0.0)
    return float((pos_part * cap.matrix).sum() - psi @ mu.weights - phi @ nu.weights)


def solve_capacity(
    mu: ScalarMeasure, nu: ScalarMeasure, cost, cap: TransportPlan
) -> OtResult:
    """Maximize the transported cost over plans in Pi(mu, nu) below cap.

    The dual reported in extras["xi"] is [c - psi - phi]_+; its pairing
    with the capacity reproduces the value:
    value = psi.mu + phi.nu + sum(xi * cap).  When no plan fits under the
    capacity, raises InfeasibleTransport with a certificate (psi, phi)
    for which sum([psi + phi]_+ * cap) - psi.mu - phi.nu < 0.
    """
    nx, ny = mu.space.size, nu.space.size
    c = _check_cost(cost, (nx, ny))
    if cap.matrix.shape != (nx, ny):
        raise ValueError("capacity shape does not match the marginals")
    # A row (column) whose caps sum below its mass is infeasible by itself,
    # certified by psi = e_i (phi = e_j); the LP could spend a bound flip
    # per cell proving it.  Try the most deficient line first.
    short = np.concatenate([cap.matrix.sum(axis=1) - mu.weights, cap.matrix.sum(axis=0) - nu.weights])
    unit = np.eye(1, nx + ny, int(np.argmin(short)))[0]
    slack = _kellerer_slack(unit[:nx], unit[nx:], mu, nu, cap)
    if slack < -CERT_TOL:
        raise InfeasibleTransport(
            "capacity admits no coupling of the marginals",
            {"psi": unit[:nx], "phi": unit[nx:], "kellerer_slack": slack},
        )
    sol = solve(replace(_transport_lp(mu, nu, c), upper=cap.matrix.ravel(), sense="max"))
    if sol.status == "infeasible":
        # Farkas row duals negate into potentials violating the
        # Kellerer-style feasibility inequality; for this LP the slack is
        # the margin `lp.farkas_margin` has already checked
        psi_c, phi_c = -sol.farkas[:nx], -sol.farkas[nx:]
        slack = _kellerer_slack(psi_c, phi_c, mu, nu, cap)
        raise InfeasibleTransport(
            "capacity admits no coupling of the marginals",
            {"psi": psi_c, "phi": phi_c, "kellerer_slack": slack},
        )
    if sol.status != "optimal":
        raise NumericalBreakdown(f"capacity LP returned {sol.status}")
    psi, phi = sol.y[:nx], sol.y[nx:]
    xi = np.maximum(c - psi[:, None] - phi[None, :], 0.0)
    plan = TransportPlan(mu.space, nu.space, np.maximum(sol.x, 0.0).reshape(nx, ny))
    return OtResult(sol.value, plan, psi, phi, extras={"xi": xi})


def solve_capacity_min(
    mu: ScalarMeasure, nu: ScalarMeasure, cost, cap: TransportPlan
) -> OtResult:
    """Minimizing wrapper around solve_capacity (negated cost).

    Potentials are negated back, so value = psi.mu + phi.nu - sum(xi * cap)
    with xi = [psi + phi - c]_+ in extras["xi"].
    """
    c = _check_cost(cost, (mu.space.size, nu.space.size))
    res = solve_capacity(mu, nu, -c, cap)
    psi, phi = -res.psi, -res.phi
    xi = np.maximum(psi[:, None] + phi[None, :] - c, 0.0)
    return OtResult(
        -res.value, res.plan, psi, phi, extras={"xi": xi, "orientation": "min"}
    )


def solve_invariant(mu: ScalarMeasure, mapping, cost, target) -> OtResult:
    """Cheapest coupling of mu with some T-invariant second marginal.

    mapping is a self-map T of the target space; the plan's Y-marginal nu
    (extras["nu"]) satisfies pushforward(nu, T) = nu.  The reported phi
    pairs as phi(y) - phi(Ty) in the dual constraint.  extras also holds
    the value of the written dual family max{psi.mu : psi(x) + phi(y) +
    phi(Ty) <= c(x,y)} under "family_value" (possibly +inf); both sides
    are reported without asserting they coincide.
    """
    nx, ny = mu.space.size, target.size
    c = _check_cost(cost, (nx, ny))
    # compared as Python numbers, so an index past the int64 range is out of range too
    T = np.asarray([mapping(j) for j in range(ny)] if callable(mapping) else list(mapping))
    if T.shape != (ny,) or not all(0 <= t < ny for t in T.tolist()):
        raise ValueError("mapping must send every target atom to a target atom")
    T = T.astype(int)
    cells = np.arange(nx * ny)
    ix, iy = _marginal_index((nx, ny), (0,)), _marginal_index((nx, ny), (1,))
    A = np.zeros((nx + ny, nx * ny))
    A[ix, cells] = 1.0
    # invariance rows: (mass entering y) - (mass entering T^{-1}-fibre of y)
    A[nx + iy, cells] += 1.0
    A[nx + T[iy], cells] -= 1.0
    b = np.concatenate([mu.weights, np.zeros(ny)])
    sol = solve(LpProblem(c=c.ravel(), A=A, b=b, kinds=["eq"] * (nx + ny)))
    if sol.status != "optimal":
        raise NumericalBreakdown(f"invariant-marginal LP returned {sol.status}")
    plan_mat = np.maximum(sol.x, 0.0).reshape(nx, ny)
    nu = ScalarMeasure(target, plan_mat.sum(axis=0))
    psi, w = sol.y[:nx], sol.y[nx:]
    extras = {"nu": nu, "w": w}
    extras.update(_invariant_family_side(mu, T, c))
    plan = TransportPlan(mu.space, target, plan_mat)
    return OtResult(sol.value, plan, psi, w, extras=extras)


def _invariant_family_side(mu: ScalarMeasure, T: np.ndarray, c: np.ndarray) -> dict:
    """Solve max psi.mu over psi(x) + phi(y) + phi(Ty) <= c(x,y) as written."""
    nx, ny = c.shape
    nvar = nx + ny
    # one row per plan cell (i, j): psi(i) + phi(j) + phi(T j)
    cells = np.arange(nx * ny)
    ix, iy = _marginal_index((nx, ny), (0,)), _marginal_index((nx, ny), (1,))
    rows = np.zeros((nx * ny, nvar))
    rows[cells, ix] = 1.0
    rows[cells, nx + iy] += 1.0
    rows[cells, nx + T[iy]] += 1.0
    rhs = c.ravel()
    obj = np.concatenate([mu.weights, np.zeros(ny)])
    p = LpProblem(
        c=obj,
        A=rows,
        b=rhs,
        kinds=["le"] * (nx * ny),
        lower=np.full(nvar, -np.inf),
        sense="max",
    )
    sol = solve(p)
    if sol.status == "optimal":
        return {
            "family_value": sol.value,
            "family_psi": sol.x[:nx],
            "family_phi": sol.x[nx:],
        }
    if sol.status == "unbounded":
        return {"family_value": np.inf}
    raise NumericalBreakdown("dual-family LP reported infeasible with an empty objective")


def _multimarginal_lp(measures: Sequence[ScalarMeasure], cost) -> LpProblem:
    """`solve_multimarginal`'s LP: an eq row per atom of each measure in
    turn, a column per cell of the product space in C order.  Two measures
    give the transport LP; more reach the dense engine, so their product
    space may not exceed 1e6 cells."""
    if len(measures) < 2:
        raise ValueError("need at least two marginals")
    sizes = [m.space.size for m in measures]
    c = _check_cost(cost, sizes)
    if len(sizes) > 2 and np.prod(sizes) > 10**6:
        raise ValueError("product space exceeds 1e6 cells")
    b = np.concatenate([m.weights for m in measures])
    return LpProblem(c=c.ravel(), A=TransportIncidence.complete(*sizes), b=b, kinds=["eq"] * b.size)


def solve_multimarginal(measures: Sequence[ScalarMeasure], cost) -> OtResult:
    """Couple k marginals at least cost over the full product space."""
    p = _multimarginal_lp(measures, cost)
    sol = solve(p)
    sizes = [m.space.size for m in measures]
    cuts = np.cumsum(sizes)[:-1]
    if sol.status == "infeasible":
        # sum_i psis_i(x_i) >= 0 on every cell, yet sum_i psis_i.mu_i < 0
        psis = np.split(sol.farkas, cuts)
        raise InfeasibleTransport(
            "marginal total masses differ", {"psis": psis, "margin": float(sol.farkas @ p.b)}
        )
    if sol.status != "optimal":
        raise NumericalBreakdown(f"multimarginal LP returned {sol.status}")
    psis = np.split(sol.y, cuts)
    tensor = np.maximum(sol.x, 0.0).reshape(tuple(sizes))
    plan = None
    if len(sizes) == 2:
        plan = TransportPlan(measures[0].space, measures[1].space, tensor)
    return OtResult(
        sol.value,
        plan,
        psis[0],
        psis[-1],
        extras={"psis": psis, "tensor": tensor},
    )


def _glue_lp(mu_xy: TransportPlan, nu_yz: TransportPlan, lam_xz: Optional[TransportPlan]) -> LpProblem:
    """`glue_feasible`'s LP: an eq row per cell of each given pair marginal
    in turn, a column per cell of X x Y x Z in C order.  Without lam_xz it
    is a transport LP: cell (x, y, z) is the arc from (x, y) to (y, z)."""
    nx, ny = mu_xy.matrix.shape
    ny2, nz = nu_yz.matrix.shape
    if ny != ny2:
        raise ValueError("middle spaces of the two plans differ")
    pairs = [((0, 1), mu_xy), ((1, 2), nu_yz)]
    if lam_xz is not None:
        if lam_xz.matrix.shape != (nx, nz):
            raise ValueError("third marginal shape does not match")
        pairs.append(((0, 2), lam_xz))
    b = np.concatenate([pl.matrix.ravel() for _, pl in pairs])
    A = TransportIncidence([pl.matrix.size for _, pl in pairs],
                           [_marginal_index((nx, ny, nz), axes) for axes, _ in pairs])
    return LpProblem(c=np.zeros(nx * ny * nz), A=A, b=b, kinds=["eq"] * b.size)


def glue_feasible(
    mu_xy: TransportPlan, nu_yz: TransportPlan, lam_xz: Optional[TransportPlan] = None
) -> GlueResult:
    """Find a three-space plan with the given pair marginals.

    Two-measure mode (lam_xz None): a plan on X x Y x Z with (X,Y)-marginal
    mu_xy and (Y,Z)-marginal nu_yz exists iff the Y-marginals agree.  The
    LP decides, and on failure its Farkas vector, which `lp.solve` has
    checked with `lp.farkas_margin`, splits into (psi, phi) with
    psi(x,y) + phi(y,z) >= 0 everywhere but negative total against the
    data.  Passing lam_xz adds the (X,Z)-marginal constraint; matching pair
    marginals are then no longer sufficient, and the certificate gains xi
    with psi(x,y) + phi(y,z) + xi(x,z) >= 0.
    """
    nx, ny = mu_xy.matrix.shape
    nz = nu_yz.matrix.shape[1]
    p = _glue_lp(mu_xy, nu_yz, lam_xz)
    sol = solve(p)
    if sol.status == "optimal":
        return GlueResult(True, tensor=np.maximum(sol.x, 0.0).reshape(nx, ny, nz))
    if sol.status != "infeasible":
        raise NumericalBreakdown(f"gluing LP returned {sol.status}")
    # the certificate's cell sums are >= 0 while its pairing with the
    # data is < 0, contradicting any nonnegative glued plan
    y = sol.farkas
    cert = {
        "psi": y[: nx * ny].reshape(nx, ny),
        "phi": y[nx * ny : nx * ny + ny * nz].reshape(ny, nz),
        "margin": float(y @ p.b),
    }
    if lam_xz is not None:
        cert["xi"] = y[nx * ny + ny * nz :].reshape(nx, nz)
    return GlueResult(False, cert=cert)


def local_constraint_feasible(
    mu: ScalarMeasure, nu: ScalarMeasure, cost, D: float
) -> FeasibilityResult:
    """Look for a coupling supported where the cost is at most D.

    Returns the cheapest such plan when one exists; otherwise a certificate
    (psi, phi) with psi(x) + phi(y) >= 0 on all admissible pairs and
    negative total integral: the split Farkas vector of the restricted LP.
    """
    if not D >= 0:
        raise ValueError("threshold D must be nonnegative")
    p = _transport_lp(mu, nu, cost, D)
    sol = solve(p)
    if sol.status == "optimal":
        mat = np.zeros((mu.space.size, nu.space.size))
        mat[p.A.tail, p.A.head] = np.maximum(sol.x, 0.0)
        return FeasibilityResult(True, TransportPlan(mu.space, nu.space, mat))
    if sol.status != "infeasible":
        raise NumericalBreakdown(f"restricted-support LP returned {sol.status}")
    return FeasibilityResult(False, cert=_pair_cert(sol.farkas, mu, nu))


def _strassen_lp(mu: ScalarMeasure, nu: ScalarMeasure, constraints: Sequence) -> LpProblem:
    """`strassen_feasible`'s LP: an eq row per atom of mu, then of nu, then a
    one-row block per constraint, weighted by its G; a column per plan cell."""
    nx, ny = mu.space.size, nu.space.size
    nvar = nx * ny
    ends = [_marginal_index((nx, ny), (0,)), _marginal_index((nx, ny), (1,))]
    weights = [np.ones(nvar), np.ones(nvar)]
    b = list(mu.weights) + list(nu.weights)
    kinds = ["eq"] * (nx + ny)
    for G, kind, rhs in constraints:
        G = _check_cost(G, (nx, ny), "constraint matrix")
        if kind not in ("le", "ge", "eq"):
            raise ValueError(f"unknown constraint kind {kind!r}")
        ends.append(np.zeros(nvar, np.intp))
        weights.append(G.ravel())
        b.append(float(rhs))
        kinds.append(kind)
    A = TransportIncidence([nx, ny] + [1] * (len(ends) - 2), ends, weights)
    return LpProblem(c=np.zeros(nvar), A=A, b=np.array(b), kinds=kinds)


def strassen_feasible(
    mu: ScalarMeasure, nu: ScalarMeasure, constraints: Sequence
) -> FeasibilityResult:
    """Find a coupling inside a polytope of plans given by linear constraints.

    constraints is a sequence of (G, kind, rhs) triples, each meaning
    sum(G * plan) kind rhs with kind in {"le", "ge", "eq"}.  On failure the
    certificate is the Farkas vector y `lp.solve` checked: psi, phi = -y on the
    marginal rows and multipliers = y on the rest, so that lhs = psi.mu +
    phi.nu exceeds sup_bound = sup over admissible gamma of
    sum((psi + phi) * gamma) by -(y @ b) > CERT_TOL.
    """
    nx, ny = mu.space.size, nu.space.size
    p = _strassen_lp(mu, nu, constraints)
    sol = solve(p)
    if sol.status == "optimal":
        return FeasibilityResult(
            True,
            TransportPlan(mu.space, nu.space, np.maximum(sol.x, 0.0).reshape(nx, ny)),
        )
    if sol.status != "infeasible":
        raise NumericalBreakdown(f"constrained coupling LP returned {sol.status}")
    psi, phi = -sol.farkas[:nx], -sol.farkas[nx : nx + ny]
    mult = sol.farkas[nx + ny :]
    lhs = float(psi @ mu.weights + phi @ nu.weights)
    bound = float(mult @ p.b[nx + ny :]) if mult.size else 0.0
    cert = {
        "psi": psi,
        "phi": phi,
        "multipliers": mult,
        "lhs": lhs,
        "sup_bound": bound,
    }
    return FeasibilityResult(False, cert=cert)
