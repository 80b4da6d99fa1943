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
which pins its cells at 0; the dual or Farkas vector that `lp.solve`
has checked prices its row like any other, and its vector potential
psi(x) is 0.

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
    ScalarMeasure,
    TransportPlan,
    VectorMeasure,
    disintegrate,
    grid_space,
    kernel_apply,
    product,
)
from .network import TransportIncidence, _marginal_index
from .scalar import InfeasibleTransport, OtResult, _check_cost
from .tolerances import (
    CERT_FLOOR_TOL, CERT_TOL, DENSITY_FIT_TOL, ENTRY_TOL, FEAS_TOL, JENSEN_WITNESS_TOL, KERNEL_MISS_TOL,
    LIFT_FACTOR, LIFT_PAD, RANGE_MEMBER_TOL, SUBSET_MASS_TOL, tolerance,
)

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
        if not np.all(np.isfinite(self.eta)):
            raise ValueError("eta must be finite")
        self.cost = _check_cost(cost, (mu.space.size, nu.space.size))
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
            lift = -mins[x] * LIFT_FACTOR + LIFT_PAD
            psi[x] = psi[x] + lift * eta[x] / norms2[x]
    return {"psi": psi, "phi": phi, "total": _certified_total(psi, phi, eta, mu_values, nu_values)}


def _certified_total(psi, phi, eta, mu_values, nu_values) -> float:
    """psi.mu + phi.nu, if it is below -CERT_TOL while <psi(x) + phi(y), eta(x)> >=
    -CERT_FLOOR_TOL wherever eta(x) != 0: then no plan exists; else NumericalBreakdown."""
    act = np.einsum("xi,xi->x", eta, eta) > ENTRY_TOL**2
    pair = np.einsum("xi,xi->x", psi, eta)[:, None] + eta @ phi.T
    floor = float(pair[act].min()) if np.any(act) else 0.0
    total = float((psi * mu_values).sum() + (phi * nu_values).sum())
    if floor < -CERT_FLOOR_TOL or not total < -CERT_TOL:
        raise NumericalBreakdown(
            f"dominance certificate failed validation (floor {floor:.2e}, total {total:.2e})"
        )
    return total


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
    # without mass is 0 only up to rounding, so it is zeroed and stays uniform
    plan = np.where(mu.ref_weights[:, None] > 0.0, res.plan.matrix, 0.0)
    kernel, _ = disintegrate(TransportPlan(mu.space, nu_space, plan))
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

    The convex functions come from `generate.SplitMix64(seed)`, so a seed
    gives the same functions on every platform; it rejects a seed outside
    [0, 2**64) before any LP runs.  The stream is read in a fixed order:
    the piece count (2 to 6) of each of the g_samples functions, then all
    slopes row by row, then all offsets, every slope and offset uniform on
    [-1, 1).  The witness is the worst function's (slopes, offsets) when
    its gap is below -JENSEN_WITNESS_TOL.
    """
    if g_samples < 1:
        raise ValueError(f"g_samples must be at least 1, got {g_samples}")
    from .generate import SplitMix64

    rng = SplitMix64(seed)
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    d = mu.dim
    live_mu = np.nonzero(mu.ref_weights > 0.0)[0]
    live_nu = np.nonzero(nu.ref_weights > 0.0)[0]
    stacked = np.vstack([mu.density[live_mu], nu.density[live_nu]])
    if stacked.size:
        s_star, *_ = np.linalg.lstsq(stacked, np.ones(stacked.shape[0]), rcond=None)
        cond_dens = bool(np.max(np.abs(stacked @ s_star - 1.0)) <= DENSITY_FIT_TOL)
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
        # the plan behind the kernel `dominates` returned, split along Y
        back, y_marginal = disintegrate(product(cert.payload, mu), axis=1)
        Q, colsum = back.rows, y_marginal.weights
        alive = colsum > 0.0
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

    pieces = np.array([rng.integer(2, 7) for _ in range(g_samples)])
    slopes = rng.uniforms(int(pieces.sum()) * d, -1.0, 1.0).reshape(-1, d)
    offsets = rng.uniforms(slopes.shape[0], -1.0, 1.0)
    starts = np.cumsum(pieces) - pieces
    # column s of g_mu is the s-th function's max over its own pieces
    g_mu = np.maximum.reduceat(mu.density @ slopes.T + offsets, starts, axis=1)
    g_nu = np.maximum.reduceat(nu.density @ slopes.T + offsets, starts, axis=1)
    gaps = mu.ref_weights @ g_mu - nu.ref_weights @ g_nu
    worst = int(np.argmin(gaps))
    own = slice(starts[worst], starts[worst] + pieces[worst])
    report["jensen"] = {
        "n_samples": g_samples,
        "min_gap": float(gaps[worst]),
        "witness": (slopes[own], offsets[own]) if gaps[worst] < -JENSEN_WITNESS_TOL else None,
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


def _grid_source(density: Callable[[float], Sequence[float]], N: int, d: int) -> VectorMeasure:
    """`dual_refinement_study`'s source: weight 1/N at each midpoint x of
    `grid_space(N)`, with density(x), a d-vector, as its density there."""
    sp = grid_space(N)
    dens = np.array([density(float(x)) for x in sp.coords.ravel()], dtype=float)
    if dens.shape != (N, d):
        raise ValueError("density must produce d-vectors")
    return VectorMeasure(sp, dens / N, ref_weights=np.full(N, 1.0 / N))


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
        mu = _grid_source(density, N, d)
        cmat = np.array([[cost(float(x), j) for j in range(ny)] for x in mu.space.coords.ravel()])
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
    reads psi(x) + phi(y) + <zeta(y), f(x) - g(y)> <= c(x,y).  An empty
    polytope, unequal reference masses included, raises InfeasibleTransport
    with the Farkas vector `lp.solve` checked split into psi, phi, zeta and its
    margin psi.mu_ref + phi.nu_ref < -CERT_TOL.
    """
    f = np.atleast_2d(np.asarray(f_values, dtype=float))
    g = np.atleast_2d(np.asarray(g_values, dtype=float))
    nx, ny = mu_ref.space.size, nu_ref.space.size
    if f.shape[0] != nx or g.shape[0] != ny or f.shape[1] != g.shape[1]:
        raise ValueError("f and g must give same-dimension vectors per atom")
    d = f.shape[1]
    c = _check_cost(cost, (nx, ny))
    ix, iy = _marginal_index((nx, ny), (0,)), _marginal_index((nx, ny), (1,))
    # barycenter block i: its row y weights cell (x, y) by f_i(x) - g_i(y)
    A = TransportIncidence([nx, ny] + [ny] * d, [ix] + [iy] * (d + 1),
                           [np.ones(nx * ny)] * 2 + list((f[ix] - g[iy]).T))
    b = np.concatenate([mu_ref.weights, nu_ref.weights, np.zeros(d * ny)])
    sol = solve(LpProblem(c=c.ravel(), A=A, b=b, kinds=["eq"] * A.shape[0]))
    if sol.status == "infeasible":
        y = sol.farkas
        raise InfeasibleTransport(
            "no coupling satisfies the barycenter constraints",
            {"psi": y[:nx], "phi": y[nx : nx + ny], "zeta": y[nx + ny :].reshape(d, ny).T,
             "margin": float(y @ b)},
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
        if self.n < 1:
            raise ValueError("need at least one part")
        if self.mode not in ("relaxed", "atomicExact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        nx = self.mu.space.size
        if self.mode == "atomicExact" and (nx > 20 or self.n**nx > 10**6):
            raise ValueError("atom enumeration guard exceeded")

    def contains(self, s, tol: float = RANGE_MEMBER_TOL) -> bool:
        s = np.atleast_2d(np.asarray(s, dtype=float))
        if s.shape != (self.n, self.mu.dim):
            raise ValueError(f"expected {self.n} vectors of dimension {self.mu.dim}")
        tol = tolerance(tol)
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
    SUBSET_MASS_TOL * max(1, largest component total of either measure),
    in descending bitmask order on both sides, and requires mu restricted
    to A to dominate nu restricted to B.  Totals that differ by more than
    that tolerance fail at once.  Returns (True, None) or
    (False, (A_indices, B_indices)) naming the first failing pair.
    Scalar inputs short-circuit: equal totals already decide, because
    equal-mass scalar restrictions always admit a kernel.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    nx, ny = mu.space.size, nu.space.size
    if nx > 16 or ny > 16:
        raise ValueError("subset scan limited to 16 atoms per side")
    tot_mu, tot_nu = mu.component_totals(), nu.component_totals()
    quantum = SUBSET_MASS_TOL * max(1.0, np.abs(tot_mu).max(), np.abs(tot_nu).max())
    if np.max(np.abs(tot_mu - tot_nu)) > quantum:
        return False, None
    if mu.dim == 1:
        return True, None
    sums_a = _subset_sums(mu.values)
    sums_b = _subset_sums(nu.values)
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
            if np.max(np.abs(sums_b[bmask] - target)) > quantum:
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
