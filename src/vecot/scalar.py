"""Scalar transport problems and their variants, each solved as one LP.

The bipartite problems (`solve_ot`, `solve_partial`, `solve_capacity`
and `local_constraint_feasible`) state their LP over every atom with a
`network.TransportIncidence`, so `lp.solve` runs them on the network
simplex and never forms the dense marginal matrix; the network engine
leaves zero-mass atoms out of its tree and prices them, so their
potentials are plain LP duals here.  The others are dense LPs.
`_marginal_index` is the single owner of the plan-to-column layout:
every dense LP here and in `vector` and `chain` scatters its marginal
rows from it.  Every solver returns dual potentials along with
the optimal plan, and every infeasible verdict is its LP's Farkas
vector, which both engines check with `lp.farkas_margin` before
returning it; a solver only splits it into named potentials.

Sign conventions follow the LP duals directly:

- plain:      psi(x) + phi(y) <= c(x,y),          value = psi.mu + phi.nu
- partial:    psi(x) + phi(y) + lam <= c(x,y) with psi, phi <= 0,
              value = psi.mu + phi.nu + lam*m
- capacity:   maximization; value = psi.mu + phi.nu + sum xi.cap with
              xi = [c - psi - phi]_+
- invariant:  psi(x) + phi(y) - phi(Ty) <= c(x,y), value = psi.mu
- multi:      sum_i psi_i(x_i) <= c(x_1..x_k)
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .lp import LpProblem, NumericalBreakdown, solve
from .measures import ScalarMeasure, TransportPlan
from .network import TransportIncidence
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


def _check_cost(cost, nx: int, ny: int) -> np.ndarray:
    c = np.atleast_2d(np.asarray(cost, dtype=float))
    if c.shape != (nx, ny):
        raise ValueError(f"cost has shape {c.shape}, expected ({nx}, {ny})")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost must be finite")
    return c


def _marginal_index(shape, axes) -> np.ndarray:
    """Row of each cell of a C-order flattened tensor in its marginal onto `axes`.

    `axes` is increasing and the marginal's rows run in C order over them.
    For a plan (nx, ny), cell i * ny + j sits in row i for axes (0,) and
    row j for (1,): the ``tail`` and ``head`` of `TransportIncidence.complete`.
    """
    index = np.zeros(shape, dtype=np.intp)
    stride = 1
    for a in reversed(axes):
        index += (stride * np.arange(shape[a])).reshape((-1,) + (1,) * (len(shape) - 1 - a))
        stride *= shape[a]
    return index.ravel()


def _pair_cert(farkas: np.ndarray, mu: ScalarMeasure, nu: ScalarMeasure) -> dict:
    """A bipartite LP's Farkas vector split into (psi, phi), with its margin.

    `lp.farkas_margin` has checked it: psi(x) + phi(y) >= 0 on every arc
    and margin = psi.mu + phi.nu < -CERT_TOL.
    """
    psi, phi = farkas[: mu.space.size], farkas[mu.space.size :]
    return {"psi": psi, "phi": phi, "margin": float(psi @ mu.weights + phi @ nu.weights)}


def solve_ot(mu: ScalarMeasure, nu: ScalarMeasure, cost) -> OtResult:
    """Least-cost coupling of mu and nu.

    Returns the optimal plan and potentials with duality gap at most
    GAP_TOL * (1 + |value|).  When the total masses differ, the LP is
    infeasible and its Farkas vector splits into the separating (psi, phi)
    raised with InfeasibleTransport: psi(x) + phi(y) >= 0 everywhere and
    margin = psi.mu + phi.nu < 0.
    """
    nx, ny = mu.space.size, nu.space.size
    c = _check_cost(cost, nx, ny)
    A = TransportIncidence.complete(nx, ny)
    b = np.concatenate([mu.weights, nu.weights])
    sol = solve(LpProblem(c=c.ravel(), A=A, b=b, kinds=["eq"] * (nx + ny)))
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

    The returned potentials are the LP duals of the inequality-constrained
    program: psi, phi <= 0 and psi(x) + phi(y) + lam <= c(x,y), with
    value = psi.mu + phi.nu + lam * m (lam in extras["lam"]).
    """
    nx, ny = mu.space.size, nu.space.size
    c = _check_cost(cost, nx, ny)
    cap = min(mu.total(), nu.total())
    if m < -FEAS_TOL or m > cap + FEAS_TOL:
        raise ValueError(f"mass {m!r} outside [0, {cap!r}]")
    m = min(max(m, 0.0), cap)
    A = TransportIncidence.complete(nx, ny, total=True)
    b = np.concatenate([mu.weights, nu.weights, [m]])
    kinds = ["le"] * (nx + ny) + ["eq"]
    sol = solve(LpProblem(c=c.ravel(), A=A, b=b, kinds=kinds))
    if sol.status != "optimal":
        raise NumericalBreakdown(f"partial transport LP returned {sol.status}")
    plan = TransportPlan(mu.space, nu.space, np.maximum(sol.x, 0.0).reshape(nx, ny))
    return OtResult(
        sol.value, plan, sol.y[:nx], sol.y[nx : nx + ny], extras={"lam": float(sol.y[-1])}
    )


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
    c = _check_cost(cost, nx, ny)
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
    A = TransportIncidence.complete(nx, ny)
    b = np.concatenate([mu.weights, nu.weights])
    p = LpProblem(
        c=c.ravel(),
        A=A,
        b=b,
        kinds=["eq"] * (nx + ny),
        upper=cap.matrix.ravel(),
        sense="max",
    )
    sol = solve(p)
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
    c = _check_cost(cost, mu.space.size, nu.space.size)
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
    c = _check_cost(cost, nx, ny)
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


def solve_multimarginal(measures: Sequence[ScalarMeasure], cost) -> OtResult:
    """Couple k marginals at least cost over the full product space."""
    if len(measures) < 2:
        raise ValueError("need at least two marginals")
    sizes = [m.space.size for m in measures]
    c = np.asarray(cost, dtype=float)
    if c.shape != tuple(sizes):
        raise ValueError(f"cost has shape {c.shape}, expected {tuple(sizes)}")
    ncells = int(np.prod(sizes))
    if ncells > 10**6:
        raise ValueError("product space exceeds 1e6 cells")
    b = np.concatenate([m.weights for m in measures])
    A = np.zeros((b.size, ncells))
    for axis in range(len(sizes)):
        A[sum(sizes[:axis]) + _marginal_index(sizes, (axis,)), np.arange(ncells)] = 1.0
    sol = solve(LpProblem(c=c.ravel(), A=A, b=b, kinds=["eq"] * A.shape[0]))
    cuts = np.cumsum(sizes)[:-1]
    if sol.status == "infeasible":
        # sum_i psis_i(x_i) >= 0 on every cell, yet sum_i psis_i.mu_i < 0
        psis = np.split(sol.farkas, cuts)
        raise InfeasibleTransport(
            "marginal total masses differ", {"psis": psis, "margin": float(sol.farkas @ b)}
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


def glue_feasible(
    mu_xy: TransportPlan, nu_yz: TransportPlan, lam_xz: Optional[TransportPlan] = None
) -> GlueResult:
    """Find a three-space plan with the given pair marginals.

    Two-measure mode (lam_xz None): a plan on X x Y x Z with (X,Y)-marginal
    mu_xy and (Y,Z)-marginal nu_yz exists iff the Y-marginals agree.  The
    LP decides, and on failure its Farkas vector, which the engine has
    checked with `lp.farkas_margin`, splits into (psi, phi) with
    psi(x,y) + phi(y,z) >= 0 everywhere but negative total against the
    data.  Passing lam_xz adds the (X,Z)-marginal constraint; matching pair
    marginals are then no longer sufficient, and the certificate gains xi
    with psi(x,y) + phi(y,z) + xi(x,z) >= 0.
    """
    nx, ny = mu_xy.matrix.shape
    ny2, nz = nu_yz.matrix.shape
    if ny != ny2:
        raise ValueError("middle spaces of the two plans differ")
    ncells = nx * ny * nz
    pairs = [((0, 1), mu_xy), ((1, 2), nu_yz)]
    if lam_xz is not None:
        if lam_xz.matrix.shape != (nx, nz):
            raise ValueError("third marginal shape does not match")
        pairs.append(((0, 2), lam_xz))
    b = np.concatenate([pl.matrix.ravel() for _, pl in pairs])
    A = np.zeros((b.size, ncells))
    at = 0
    for axes, pl in pairs:
        A[at + _marginal_index((nx, ny, nz), axes), np.arange(ncells)] = 1.0
        at += pl.matrix.size
    p = LpProblem(c=np.zeros(ncells), A=A, b=b, kinds=["eq"] * A.shape[0])
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
        "margin": float(y @ b),
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
    nx, ny = mu.space.size, nu.space.size
    c = _check_cost(cost, nx, ny)
    ax, ay = np.nonzero(c <= D)
    b = np.concatenate([mu.weights, nu.weights])
    p = LpProblem(c=c[ax, ay], A=TransportIncidence(nx, ny, ax, ay), b=b, kinds=["eq"] * (nx + ny))
    sol = solve(p)
    if sol.status == "optimal":
        mat = np.zeros((nx, ny))
        mat[ax, ay] = np.maximum(sol.x, 0.0)
        return FeasibilityResult(True, TransportPlan(mu.space, nu.space, mat))
    if sol.status != "infeasible":
        raise NumericalBreakdown(f"restricted-support LP returned {sol.status}")
    return FeasibilityResult(False, cert=_pair_cert(sol.farkas, mu, nu))


def strassen_feasible(
    mu: ScalarMeasure, nu: ScalarMeasure, constraints: Sequence
) -> FeasibilityResult:
    """Find a coupling inside a polytope of plans given by linear constraints.

    constraints is a sequence of (G, kind, rhs) triples, each meaning
    sum(G * plan) kind rhs with kind in {"le", "ge", "eq"}.  On failure the
    certificate is the engine-checked Farkas vector y: psi, phi = -y on the
    marginal rows and multipliers = y on the rest, so that lhs = psi.mu +
    phi.nu exceeds sup_bound = sup over admissible gamma of
    sum((psi + phi) * gamma) by -(y @ b) > CERT_TOL.
    """
    nx, ny = mu.space.size, nu.space.size
    nvar = nx * ny
    cells = np.arange(nvar)
    marginals = np.zeros((nx + ny, nvar))
    marginals[_marginal_index((nx, ny), (0,)), cells] = 1.0
    marginals[nx + _marginal_index((nx, ny), (1,)), cells] = 1.0
    A_rows = [marginals]
    b = list(mu.weights) + list(nu.weights)
    kinds = ["eq"] * (nx + ny)
    for G, kind, rhs in constraints:
        G = np.asarray(G, dtype=float)
        if G.shape != (nx, ny):
            raise ValueError("constraint matrix shape does not match the plan")
        if kind not in ("le", "ge", "eq"):
            raise ValueError(f"unknown constraint kind {kind!r}")
        A_rows.append(G.ravel()[None, :])
        b.append(float(rhs))
        kinds.append(kind)
    sol = solve(LpProblem(c=np.zeros(nvar), A=np.vstack(A_rows), b=np.array(b), kinds=kinds))
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
    bound = float(mult @ np.array(b[nx + ny :])) if mult.size else 0.0
    cert = {
        "psi": psi,
        "phi": phi,
        "multipliers": mult,
        "lhs": lhs,
        "sup_bound": bound,
    }
    return FeasibilityResult(False, cert=cert)
