"""Transport of vector-valued measures on finite spaces.

The feasible plans of a vector problem form the polytope of nonnegative
matrices pi with, for every component i,

    sum_y eta_i(x) pi(x,y) = mu_i(x)      for all x,
    sum_x eta_i(x) pi(x,y) = nu_i(y)      for all y.

The d equations on the X side at one atom either pin the row sum of pi
to a single scalar t(x), solved per atom by least squares, or are
contradictory, which yields an immediate analytic certificate.  The LP
therefore carries one row per source atom plus d rows per target atom.

Zero masses.  Every LP here is stated over all source atoms.  An atom
with reference weight 0 carries no mass, so its row sum is t(x) = 0,
which pins its cells at 0; the dense engine's certified dual or Farkas
vector prices its row like any other, and its vector potential psi(x)
is 0.

Dominance of one measure over another is feasibility of this polytope
with the dominating measure's own density; a feasible plan disintegrates
into a Markov kernel pushing the source exactly onto the target, and
infeasibility is returned as vector potentials (psi, phi) with

    <psi(x) + phi(y), eta(x)> >= 0   at every pair,
    integral(psi, mu) + integral(phi, nu) < 0,

which no nonnegative plan can reconcile.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .lp import LpProblem, NumericalBreakdown, solve, solve_vertex
from .measures import (
    FiniteSpace,
    Kernel,
    ScalarMeasure,
    TransportPlan,
    VectorMeasure,
    grid_space,
    kernel_apply,
)
from .scalar import InfeasibleTransport, OtResult, _marginal_index
from .tolerances import CERT_FLOOR_TOL, CERT_TOL, ENTRY_TOL, FEAS_TOL, KERNEL_MISS_TOL

__all__ = [
    "VectorOtProblem",
    "DominanceCert",
    "MapExtraction",
    "MultiRangeOracle",
    "solve_vector_ot",
    "dominates",
    "feasible_range",
    "blackwell_check",
    "dominates_n",
    "extract_map",
    "dual_refinement_study",
    "martingale_polytope",
    "multi_range",
    "strong_dominates",
]


@dataclass
class DominanceCert:
    """Certificate attached to a dominance answer.

    kind "kernel": payload is a Kernel pushing the dominating measure
    exactly onto the dominated one.  kind "farkas": payload is a dict
    with vector potentials "psi", "phi" whose pairing against the data
    is negative while their density pairing is pointwise nonnegative.
    """

    kind: str
    payload: object


@dataclass
class MapExtraction:
    assignment: np.ndarray  # target index per source atom, -1 where split or massless
    split_rows: list
    result: OtResult


class VectorOtProblem:
    """A vector transport instance: source, target, density, and cost.

    The density defaults to the source measure's own.  Construction
    verifies the normalizing assumption: every atom carrying reference
    mass must admit f(x) with <f(x), eta(x)> = 1, which per atom means
    exactly that eta(x) is not the zero vector.
    """

    def __init__(self, mu: VectorMeasure, nu: VectorMeasure, cost, eta=None):
        if mu.dim != nu.dim:
            raise ValueError("source and target dimensions differ")
        self.mu = mu
        self.nu = nu
        self.eta = mu.density if eta is None else np.atleast_2d(np.asarray(eta, dtype=float))
        if self.eta.shape != (mu.space.size, mu.dim):
            raise ValueError("eta shape does not match the source measure")
        c = np.atleast_2d(np.asarray(cost, dtype=float))
        if c.shape != (mu.space.size, nu.space.size):
            raise ValueError(
                f"cost has shape {c.shape}, expected ({mu.space.size}, {nu.space.size})"
            )
        self.cost = c
        self.live = _live_atoms(mu, self.eta)


def _live_atoms(mu: VectorMeasure, eta: np.ndarray) -> np.ndarray:
    live = np.nonzero(mu.ref_weights > 0.0)[0]
    norms = np.linalg.norm(eta[live], axis=1)
    if live.size and np.any(norms <= ENTRY_TOL):
        bad = int(live[int(np.argmin(norms))])
        raise ValueError(
            f"atom {bad} carries mass but its density row is zero; "
            "no normalizing f exists there"
        )
    return live


def _row_scalars(values: np.ndarray, eta: np.ndarray, live: np.ndarray):
    """Reduce the per-atom d equations eta(x) * t = values(x) to t(x).

    Atoms outside `live` carry no mass and get t(x) = 0.  Returns (t, None)
    when consistent, or (None, (x, residual)) naming the first
    inconsistent atom; residual is None when the equations are
    proportional but force a negative row sum.
    """
    t = np.zeros(values.shape[0])
    for x in live:
        e = values[x]
        h = eta[x]
        tx = float(h @ e) / float(h @ h)
        resid = e - tx * h
        scale = max(1.0, float(np.max(np.abs(e))))
        if np.max(np.abs(resid)) > FEAS_TOL * scale:
            return None, (x, resid)
        if tx < -FEAS_TOL * scale:
            return None, (x, None)
        t[x] = max(tx, 0.0)
    return t, None


def _finalize_cert(psi, phi, eta, mu_values, nu_values) -> dict:
    """Shift potentials along the normalizing direction and validate.

    Raising psi(x) by s * eta(x)/|eta(x)|^2 raises the pairing at x by s
    while moving the data integral by only s * t(x), so small repairs of
    the pointwise floor are nearly free.  The loop runs until the floor
    is clean, then the defining inequalities are checked outright.
    """
    psi = np.array(psi, dtype=float)
    phi = np.array(phi, dtype=float)
    norms2 = np.einsum("xi,xi->x", eta, eta)
    act = norms2 > ENTRY_TOL**2
    for _ in range(5):
        pair = np.einsum("xi,xi->x", psi, eta)[:, None] + eta @ phi.T
        mins = pair.min(axis=1)
        bad = act & (mins < 0.0)
        if not np.any(bad):
            break
        for x in np.nonzero(bad)[0]:
            lift = -mins[x] * (1.0 + 1e-9) + 1e-15
            psi[x] = psi[x] + lift * eta[x] / norms2[x]
    pair = np.einsum("xi,xi->x", psi, eta)[:, None] + eta @ phi.T
    floor = float(pair[act].min()) if np.any(act) else 0.0
    total = float((psi * mu_values).sum() + (phi * nu_values).sum())
    if floor < -CERT_FLOOR_TOL or not total < -CERT_TOL:
        raise NumericalBreakdown(
            f"dominance certificate failed validation (floor {floor:.2e}, total {total:.2e})"
        )
    return {"psi": psi, "phi": phi, "total": total}


def _analytic_cert(bad, eta, values, ny):
    """Raw potentials certifying contradictory X-side equations at one atom."""
    x, resid = bad
    psi = np.zeros(eta.shape)
    phi = np.zeros((ny, eta.shape[1]))
    h = eta[x]
    hh = float(h @ h)
    e = values[x]
    if resid is not None:
        # strip the density direction once more so the pairing is clean
        r2 = resid - (float(resid @ h) / hh) * h
        denom = float(r2 @ e)
        psi[x] = -r2 * (10.0 * CERT_TOL / denom)
    else:
        tx = float(h @ e) / hh
        psi[x] = -(10.0 * CERT_TOL / (tx * hh)) * h
    return psi, phi


def _plan_system(eta: np.ndarray, t: np.ndarray, nu_values: np.ndarray):
    """Equality system of the plan polytope in the collapsed encoding."""
    k, d = eta.shape
    ny = nu_values.shape[0]
    cells = np.arange(k * ny)
    ix, iy = _marginal_index((k, ny), (0,)), _marginal_index((k, ny), (1,))
    A = np.zeros((k + d * ny, k * ny))
    A[ix, cells] = 1.0
    # component i of the target marginal, weighted by the density: row k + i * ny + y
    A[k + ny * np.arange(d)[:, None] + iy, cells] = eta[ix].T
    b = np.concatenate([t, nu_values.T.ravel()])
    return A, b


def _vector_potentials(Psi: np.ndarray, eta: np.ndarray, live: np.ndarray):
    """psi(x) = Psi(x) eta(x) / |eta(x)|^2 at atoms with mass, 0 elsewhere."""
    psi = np.zeros(eta.shape)
    h = eta[live]
    psi[live] = Psi[live, None] * h / np.einsum("xi,xi->x", h, h)[:, None]
    return psi


def _collapsed_solve(
    mu: VectorMeasure,
    eta: np.ndarray,
    cost: np.ndarray,
    nu_values: np.ndarray,
    nu_space: FiniteSpace,
    vertex: bool = False,
) -> OtResult:
    nx, d = mu.space.size, mu.dim
    ny = nu_values.shape[0]
    live = _live_atoms(mu, eta)
    t, bad = _row_scalars(mu.values, eta, live)
    if bad is not None:
        psi, phi = _analytic_cert(bad, eta, mu.values, ny)
        cert = _finalize_cert(psi, phi, eta, mu.values, nu_values)
        raise InfeasibleTransport("source equations are contradictory at an atom", cert)
    A, b = _plan_system(eta, t, nu_values)
    problem = LpProblem(c=cost.ravel(), A=A, b=b, kinds=["eq"] * A.shape[0])
    sol = solve_vertex(problem) if vertex else solve(problem)
    if sol.status == "infeasible":
        psi = _vector_potentials(sol.farkas[:nx], eta, live)
        phi = sol.farkas[nx:].reshape(d, ny).T
        cert = _finalize_cert(psi, phi, eta, mu.values, nu_values)
        raise InfeasibleTransport("the plan polytope is empty", cert)
    if sol.status != "optimal":
        raise NumericalBreakdown(f"vector transport LP returned {sol.status}")
    Psi = sol.y[:nx]
    psi = _vector_potentials(Psi, eta, live)
    phi = sol.y[nx:].reshape(d, ny).T
    plan = TransportPlan(mu.space, nu_space, np.maximum(sol.x, 0.0).reshape(nx, ny))
    return OtResult(sol.value, plan, psi, phi, extras={"Psi": Psi, "t": t})


def solve_vector_ot(problem: VectorOtProblem) -> OtResult:
    """Minimize transport cost over the vector plan polytope.

    The result's psi holds one vector potential per source atom and phi
    one per target atom; extras["Psi"] is the scalar potential against
    the reference weights and extras["t"] the forced row sums.  Duals
    satisfy Psi(x) + <phi(y), eta(x)> <= c(x,y) up to 1e-9 and
    value = sum Psi * t + sum phi * nu within the relative gap bound.

    Raises InfeasibleTransport carrying validated separating potentials
    when the polytope is empty.
    """
    return _collapsed_solve(
        problem.mu, problem.eta, problem.cost, problem.nu.values, problem.nu.space
    )


def _target_values(nu, d: int):
    if isinstance(nu, VectorMeasure):
        return nu.values, nu.space
    vals = np.atleast_2d(np.asarray(nu, dtype=float))
    if vals.shape[1] != d:
        raise ValueError("target values dimension mismatch")
    return vals, FiniteSpace([f"y{i}" for i in range(vals.shape[0])])


def dominates(mu: VectorMeasure, nu: Union[VectorMeasure, np.ndarray]):
    """Decide whether some Markov kernel pushes mu exactly onto nu.

    Returns (True, DominanceCert("kernel", P)) with the verified kernel,
    or (False, DominanceCert("farkas", {...})) with validated separating
    potentials.  nu may also be a raw per-atom value array, which allows
    probing targets that are not themselves valid measures.
    """
    nu_values, nu_space = _target_values(nu, mu.dim)
    nx, ny = mu.space.size, nu_values.shape[0]
    try:
        res = _collapsed_solve(mu, mu.density, np.zeros((nx, ny)), nu_values, nu_space)
    except InfeasibleTransport as exc:
        return False, DominanceCert("farkas", exc.cert)
    # each row over its own sum: the LP meets a row's equation sum = t only
    # to its tolerance, and a Kernel row must sum to 1 to rounding; a row
    # without mass is 0 only up to rounding and stays uniform
    plan = res.plan.matrix
    sums = plan.sum(axis=1)
    rows = np.full((nx, ny), 1.0 / ny)
    alive = (sums > 0.0) & (mu.ref_weights > 0.0)
    rows[alive] = plan[alive] / sums[alive, None]
    kernel = Kernel(mu.space, nu_space, rows)
    pushed = kernel_apply(kernel, mu)
    err = float(np.max(np.abs(pushed.values - nu_values)))
    if err > KERNEL_MISS_TOL * max(1.0, float(np.max(np.abs(nu_values)))):
        raise NumericalBreakdown(f"kernel certificate misses the target by {err:.2e}")
    return True, DominanceCert("kernel", kernel)


def feasible_range(
    mu: VectorMeasure, base: np.ndarray, direction: np.ndarray
) -> Optional[tuple]:
    """Extent of beta such that mu dominates base + beta * direction.

    base and direction are per-atom value arrays on a shared implicit
    target space.  Returns (beta_min, beta_max), possibly with infinite
    endpoints, or None when no beta is feasible.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    direction = np.atleast_2d(np.asarray(direction, dtype=float))
    if base.shape != direction.shape or base.shape[1] != mu.dim:
        raise ValueError("base and direction must share the target shape")
    t, bad = _row_scalars(mu.values, mu.density, _live_atoms(mu, mu.density))
    if bad is not None:
        return None
    A, b = _plan_system(mu.density, t, base)
    # extra free variable for beta, entering the target rows as -direction
    col = np.concatenate([np.zeros(mu.space.size), -direction.T.ravel()])
    A = np.hstack([A, col[:, None]])
    nvar = A.shape[1]
    lower = np.zeros(nvar)
    lower[-1] = -np.inf
    obj = np.zeros(nvar)
    obj[-1] = 1.0
    out = []
    for sense in ("min", "max"):
        sol = solve(
            LpProblem(c=obj, A=A, b=b, kinds=["eq"] * A.shape[0], lower=lower, sense=sense)
        )
        if sol.status == "infeasible":
            return None
        if sol.status == "unbounded":
            out.append(-np.inf if sense == "min" else np.inf)
        else:
            out.append(sol.value)
    return out[0], out[1]


def _max_affine(rng, d: int):
    k = int(rng.integers(2, 7))
    slopes = rng.uniform(-1.0, 1.0, size=(k, d))
    offsets = rng.uniform(-1.0, 1.0, size=k)
    return slopes, offsets


def blackwell_check(
    mu: VectorMeasure, nu: VectorMeasure, g_samples: int = 64, seed: int = 0
) -> dict:
    """Cross-examine the equivalent characterizations of dominance.

    The report always carries the plan-polytope feasibility answer and
    the kernel-variable feasibility answer; these are two encodings of
    the same question and must agree.  When a single vector s* pairs to
    one against both densities, the report adds the reversed kernel with
    its marginal and density-average residuals, plus a Jensen spot check
    over sampled convex functions (maxima of affine maps).  Without such
    an s* the Jensen direction is reported but not asserted.
    """
    if g_samples < 1:
        raise ValueError(f"g_samples must be at least 1, got {g_samples}")
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    d = mu.dim
    live_mu = np.nonzero(mu.ref_weights > 0.0)[0]
    live_nu = np.nonzero(nu.ref_weights > 0.0)[0]
    stacked = np.vstack([mu.density[live_mu], nu.density[live_nu]])
    if stacked.size:
        s_star, *_ = np.linalg.lstsq(stacked, np.ones(stacked.shape[0]), rcond=None)
        cond_dens = bool(np.max(np.abs(stacked @ s_star - 1.0)) <= 1e-9)
    else:
        s_star = np.zeros(d)
        cond_dens = True
    dom, cert = dominates(mu, nu)

    # second route: variables are kernel entries, rows force stochasticity
    nx, ny = mu.space.size, nu.space.size
    A, b = _plan_system(mu.values, np.ones(nx), nu.values)
    ksol = solve(LpProblem(c=np.zeros(nx * ny), A=A, b=b, kinds=["eq"] * A.shape[0]))
    kernel_feasible = ksol.status == "optimal"
    if kernel_feasible != dom:
        raise NumericalBreakdown("plan and kernel encodings disagree on feasibility")

    report = {
        "cond_dens": cond_dens,
        "s_star": s_star,
        "dominates": dom,
        "plan_feasible": dom,
        "kernel_feasible": kernel_feasible,
        "cert": cert,
        "reversed_kernel": None,
        "jensen": None,
    }

    if dom and cond_dens:
        # the plan behind the kernel `dominates` returned
        plan = cert.payload.rows * mu.ref_weights[:, None]
        colsum = plan.sum(axis=0)
        Q = np.full((ny, nx), 1.0 / nx)
        alive = colsum > 0.0
        Q[alive] = plan.T[alive] / colsum[alive, None]
        marg_resid = float(np.max(np.abs(Q.T @ nu.ref_weights - mu.ref_weights)))
        avg_resid = (
            float(np.max(np.abs((Q @ mu.density)[alive] - nu.density[alive])))
            if np.any(alive)
            else 0.0
        )
        report["reversed_kernel"] = {
            "Q": Q,
            "marginal_residual": marg_resid,
            "density_average_residual": avg_resid,
            "colsum_vs_ref": float(np.max(np.abs(colsum - nu.ref_weights))),
        }

    rng = np.random.default_rng(seed)
    gaps = np.empty(g_samples)
    funcs = []
    for s in range(g_samples):
        slopes, offsets = _max_affine(rng, d)
        g_mu = np.max(mu.density @ slopes.T + offsets, axis=1)
        g_nu = np.max(nu.density @ slopes.T + offsets, axis=1)
        gaps[s] = float(g_mu @ mu.ref_weights - g_nu @ nu.ref_weights)
        funcs.append((slopes, offsets))
    worst = int(np.argmin(gaps))
    report["jensen"] = {
        "n_samples": g_samples,
        "min_gap": float(gaps[worst]),
        "witness": funcs[worst] if gaps[worst] < -1e-8 else None,
        "asserted": bool(dom and cond_dens),
    }
    return report


def _partitions_exactly(n_items: int, n_blocks: int):
    """All set partitions of range(n_items) into exactly n_blocks blocks."""

    def rec(i, blocks):
        if n_items - i < n_blocks - len(blocks):
            return  # too few items left to open the missing blocks
        if i == n_items:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < n_blocks:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _stirling2(n: int, k: int) -> int:
    """Number of partitions of n items into exactly k blocks."""
    row = [1] + [0] * k  # S(0, j) for j = 0..k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def dominates_n(mu: VectorMeasure, nu: VectorMeasure, n: int):
    """Dominance of every coarsening of the target into at most n blocks.

    Returns (True, None), or (False, witness) where the witness is a
    partition, as lists of target atom indices, whose block sums escape
    the source.  Only partitions into exactly n blocks are solved: every
    coarser partition merges the blocks of one of them, and composing a
    kernel with that merge shows it is dominated too.  The witness
    therefore always has exactly n blocks.  Raises ValueError when there
    are more than 10**5 such partitions (the Stirling number S(ny, n)).
    """
    ny = nu.space.size
    if not 1 <= n <= ny:
        raise ValueError(f"block count must lie in [1, {ny}]")
    if _stirling2(ny, n) > 10**5:
        raise ValueError("too many partitions into n blocks to enumerate")
    for part in _partitions_exactly(ny, n):
        sums = np.array([nu.values[idx].sum(axis=0) for idx in part])
        ok, _ = dominates(mu, sums)
        if not ok:
            return False, part
    return True, None


def extract_map(problem: VectorOtProblem) -> MapExtraction:
    """Solve to a vertex plan and classify atoms as mapped or split.

    A vertex plan has at most (live atoms) + d * |Y| nonzero entries, so
    no more than d * |Y| source atoms can split across several targets;
    every other live atom moves to the single target recorded in
    `assignment` (-1 marks split or massless atoms).
    """
    res = _collapsed_solve(
        problem.mu, problem.eta, problem.cost, problem.nu.values, problem.nu.space,
        vertex=True,
    )
    mat = res.plan.matrix
    ny = mat.shape[1]
    d = problem.mu.dim
    thresh = FEAS_TOL * max(1.0, float(mat.max()))
    assignment = np.full(mat.shape[0], -1, dtype=int)
    split_rows = []
    for x in problem.live:
        nz = np.nonzero(mat[x] > thresh)[0]
        if nz.size == 1:
            assignment[x] = int(nz[0])
        elif nz.size > 1:
            split_rows.append(int(x))
    if len(split_rows) > d * ny:
        raise NumericalBreakdown("vertex plan splits more rows than its support bound")
    return MapExtraction(assignment=assignment, split_rows=split_rows, result=res)


def dual_refinement_study(
    density: Callable[[float], Sequence[float]],
    cost: Callable[[float, int], float],
    nu_values: np.ndarray,
    grids: Sequence[int],
) -> dict:
    """Solve one semi-discrete family across grid refinements of [0,1].

    density maps a point to the d-vector source density, nu_values gives
    the finite target, either as a fixed per-atom value array or as a
    callable of N producing one (a target family refined alongside the
    source), and cost(x, j) prices moving mass at x to target atom j.
    Each entry records the primal value, the dual value recomputed from
    the potentials, and the spread
    q = max_i max_{y,y'} |phi_i(y) - phi_i(y')|, which is insensitive to
    the constant gauge freedom of the duals.  The closing tag classifies
    the spread sequence as stable (last step within 10%), strictly
    increasing, or mixed.
    """
    entries = []
    for N in grids:
        vals = nu_values(N) if callable(nu_values) else nu_values
        vals = np.atleast_2d(np.asarray(vals, dtype=float))
        ny, d = vals.shape
        target = VectorMeasure(FiniteSpace([f"y{j}" for j in range(ny)]), vals)
        sp = grid_space(N)
        xs = sp.coords.ravel()
        dens = np.array([density(float(x)) for x in xs], dtype=float)
        if dens.shape != (N, d):
            raise ValueError("density must produce d-vectors")
        mu = VectorMeasure(sp, dens / N, ref_weights=np.full(N, 1.0 / N))
        cmat = np.array([[cost(float(x), j) for j in range(ny)] for x in xs])
        res = solve_vector_ot(VectorOtProblem(mu, target, cmat))
        q = float(np.max(res.phi.max(axis=0) - res.phi.min(axis=0)))
        dual_value = float(
            res.extras["Psi"] @ res.extras["t"] + (res.phi * vals).sum()
        )
        entries.append(
            {"N": int(N), "value": res.value, "dual_value": dual_value, "q": q,
             "result": res}
        )
    qs = [e["q"] for e in entries]
    if len(qs) >= 2 and abs(qs[-1] - qs[-2]) <= 0.1 * max(qs[-2], 1e-30):
        trend = "stable"
    elif all(b > a for a, b in zip(qs, qs[1:])):
        trend = "increasing"
    else:
        trend = "mixed"
    return {"entries": entries, "q_trend": trend}


def martingale_polytope(
    mu_ref: ScalarMeasure,
    nu_ref: ScalarMeasure,
    f_values,
    g_values,
    cost,
) -> OtResult:
    """Cheapest coupling of two scalar measures with barycenter rows.

    Feasible plans couple mu_ref to nu_ref while, for every target atom,
    sum_x pi(x,y) (f(x) - g(y)) = 0 in R^d: the f-average of the mass
    arriving at y must sit exactly at g(y).  Dual multipliers zeta(y)
    for those rows are reported in extras["zeta"]; the dual constraint
    reads psi(x) + phi(y) + <zeta(y), f(x) - g(y)> <= c(x,y).
    """
    f = np.atleast_2d(np.asarray(f_values, dtype=float))
    g = np.atleast_2d(np.asarray(g_values, dtype=float))
    nx, ny = mu_ref.space.size, nu_ref.space.size
    if f.shape[0] != nx or g.shape[0] != ny or f.shape[1] != g.shape[1]:
        raise ValueError("f and g must give same-dimension vectors per atom")
    d = f.shape[1]
    c = np.atleast_2d(np.asarray(cost, dtype=float))
    if c.shape != (nx, ny):
        raise ValueError("cost shape mismatch")
    if abs(mu_ref.total() - nu_ref.total()) > FEAS_TOL * max(1.0, mu_ref.total()):
        raise ValueError("reference masses differ")
    cells = np.arange(nx * ny)
    ix, iy = _marginal_index((nx, ny), (0,)), _marginal_index((nx, ny), (1,))
    A = np.zeros((nx + ny + d * ny, nx * ny))
    A[ix, cells] = 1.0
    A[nx + iy, cells] = 1.0
    # barycenter rows: row nx + ny + i * ny + y weights cell (x, y) by f_i(x) - g_i(y)
    A[nx + ny + ny * np.arange(d)[:, None] + iy, cells] = (f[ix] - g[iy]).T
    b = np.concatenate([mu_ref.weights, nu_ref.weights, np.zeros(d * ny)])
    sol = solve(LpProblem(c=c.ravel(), A=A, b=b, kinds=["eq"] * A.shape[0]))
    if sol.status == "infeasible":
        y = sol.farkas
        psi, phi = y[:nx], y[nx : nx + ny]
        zeta = y[nx + ny :].reshape(d, ny).T
        diffs = f[:, None, :] - g[None, :, :]
        pointwise = psi[:, None] + phi[None, :] + np.einsum("yi,xyi->xy", zeta, diffs)
        margin = float(psi @ mu_ref.weights + phi @ nu_ref.weights)
        scale = max(1.0, float(np.max(np.abs(y)))) * max(
            1.0, float(np.max(np.abs(diffs)))
        )
        if float(pointwise.min()) < -FEAS_TOL * scale or not margin < -CERT_TOL:
            raise NumericalBreakdown("barycenter certificate failed validation")
        raise InfeasibleTransport(
            "no coupling satisfies the barycenter constraints",
            {"psi": psi, "phi": phi, "zeta": zeta, "margin": margin},
        )
    if sol.status != "optimal":
        raise NumericalBreakdown(f"barycenter-constrained LP returned {sol.status}")
    psi, phi = sol.y[:nx], sol.y[nx : nx + ny]
    zeta = sol.y[nx + ny :].reshape(d, ny).T
    plan = TransportPlan(
        mu_ref.space, nu_ref.space, np.maximum(sol.x, 0.0).reshape(nx, ny)
    )
    return OtResult(sol.value, plan, psi, phi, extras={"zeta": zeta})


@dataclass
class MultiRangeOracle:
    """Membership oracle for the n-part splittings of one measure.

    mode "relaxed" decides via fractional allocations (an LP over
    partitions of unity), mode "atomicExact" by enumerating genuine atom
    assignments.  Both modes accept a point within `tol` of a part sum in
    every component, so at every tolerance the relaxed set is convex and
    contains the exact one.
    """

    mu: VectorMeasure
    n: int
    mode: str = "relaxed"

    def __post_init__(self):
        if self.mode not in ("relaxed", "atomicExact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        nx = self.mu.space.size
        if self.mode == "atomicExact" and (nx > 20 or self.n**nx > 10**6):
            raise ValueError("atom enumeration guard exceeded")

    def contains(self, s, tol: float = 1e-9) -> bool:
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if s.shape != (self.n, self.mu.dim):
            raise ValueError(f"expected {self.n} vectors of dimension {self.mu.dim}")
        if not tol >= 0.0:
            raise ValueError(f"tol must be nonnegative, got {tol!r}")
        if self.mode == "relaxed":
            return self._contains_relaxed(s, tol)
        return self._contains_exact(s, tol)

    def _contains_relaxed(self, s, tol) -> bool:
        vals = self.mu.values
        k, d = vals.shape
        n = self.n
        # variables G[i, x] in [0, 1]: the share of atom x given to part i,
        # then one error in [-tol, tol] per row k + i * d + j, which is
        # component j of part i; row x sums atom x over the parts
        cells = np.arange(n * k)
        part, atom = _marginal_index((n, k), (0,)), _marginal_index((n, k), (1,))
        A = np.zeros((k + n * d, n * k + n * d))
        A[atom, cells] = 1.0
        A[k + d * part + np.arange(d)[:, None], cells] = vals[atom].T
        A[k + np.arange(n * d), n * k + np.arange(n * d)] = 1.0
        b = np.concatenate([np.ones(k), s.ravel()])
        sol = solve(
            LpProblem(
                c=np.zeros(n * k + n * d), A=A, b=b, kinds=["eq"] * A.shape[0],
                lower=np.concatenate([np.zeros(n * k), np.full(n * d, -tol)]),
                upper=np.concatenate([np.ones(n * k), np.full(n * d, tol)]),
            )
        )
        return sol.status == "optimal"

    def _contains_exact(self, s, tol) -> bool:
        mu = self.mu
        live = np.nonzero(mu.ref_weights > 0.0)[0]
        vals = mu.values[live]
        for assign in itertools.product(range(self.n), repeat=live.size):
            sums = np.zeros((self.n, mu.dim))
            for x, part in enumerate(assign):
                sums[part] += vals[x]
            if np.max(np.abs(sums - s)) <= tol:
                return True
        return False


def multi_range(mu: VectorMeasure, n: int, mode: str = "relaxed") -> MultiRangeOracle:
    if n < 1:
        raise ValueError("need at least one part")
    return MultiRangeOracle(mu=mu, n=n, mode=mode)


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Row sums of values over every bitmask subset, shape (2^n, d)."""
    n, d = values.shape
    out = np.zeros((1 << n, d))
    for mask in range(1, 1 << n):
        low = mask & (-mask)
        out[mask] = out[mask ^ low] + values[low.bit_length() - 1]
    return out


def strong_dominates(mu: VectorMeasure, nu: VectorMeasure):
    """Dominance of every pair of equal-mass restrictions.

    Scans subset pairs (A, B) with mu(A) = nu(B) componentwise within
    1e-9, in descending bitmask order on both sides, and requires mu
    restricted to A to dominate nu restricted to B.  Returns (True, None)
    or (False, (A_indices, B_indices)) naming the first failing pair.
    Scalar inputs short-circuit: equal totals already decide, because
    equal-mass scalar restrictions always admit a kernel.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    nx, ny = mu.space.size, nu.space.size
    if nx > 16 or ny > 16:
        raise ValueError("subset scan limited to 16 atoms per side")
    tot_gap = float(np.max(np.abs(mu.component_totals() - nu.component_totals())))
    if tot_gap > 1e-9:
        return False, None
    if mu.dim == 1:
        return True, None
    sums_a = _subset_sums(mu.values)
    sums_b = _subset_sums(nu.values)
    quantum = 1e-9
    buckets = {}
    for mask in range((1 << ny) - 1, 0, -1):
        key = tuple(np.round(sums_b[mask] / quantum).astype(np.int64))
        buckets.setdefault(key, []).append(mask)
    offsets = list(itertools.product((-1, 0, 1), repeat=mu.dim))
    for amask in range((1 << nx) - 1, 0, -1):
        target = sums_a[amask]
        base_key = np.round(target / quantum).astype(np.int64)
        cands = []
        for off in offsets:
            cands.extend(buckets.get(tuple(base_key + np.asarray(off, dtype=np.int64)), []))
        if len(cands) > 1:
            cands = sorted(set(cands), reverse=True)
        for bmask in cands:
            if np.max(np.abs(sums_b[bmask] - target)) > 1e-9:
                continue
            a_idx = [i for i in range(nx) if amask >> i & 1]
            b_idx = [j for j in range(ny) if bmask >> j & 1]
            sub_mu = VectorMeasure(
                FiniteSpace([mu.space.labels[i] for i in a_idx]), mu.values[a_idx]
            )
            ok, _ = dominates(sub_mu, nu.values[b_idx])
            if not ok:
                return False, (a_idx, b_idx)
    return True, None
