"""Dense bounded-variable revised simplex with duals and certificates.

`solve` runs this engine on every problem except those whose constraint
matrix is a `network.TransportIncidence`, which go to the network
simplex.  Both engines hand their optimum to the same gate, `certify`.

Design goals, in order: determinism (fixed pricing and tie-breaking rules,
fixed iteration order, no randomization), honest certificates (every
infeasibility or unboundedness claim is validated numerically against the
original data before it is returned), and native handling of equality rows
so their dual multipliers are unconstrained in sign.

Pivot rules: each pivot prices every column in one signed array,
``priced = r * way``, where ``way`` is +1 for a nonbasic column at its
lower bound, -1 at its upper bound and 0 for a basic or fixed one; a
nonbasic free column, which may move either way, prices at ``-|r|``.  A
column is eligible when it prices below ``-DUAL_TOL``, and then its price
is ``-|r|``.  A pivot changes ``way`` only at its entering and leaving
columns.  The eligible column with the largest reduced cost in absolute
value enters (Dantzig: the smallest price; ties go to the smallest
index).  After ``_BLAND_AFTER`` degenerate (zero-length) pivots in a row
the smallest eligible index enters instead (Bland), until a step of
positive length.  Such a step strictly lowers the objective and any longer
degenerate run is pure Bland, so the method cannot cycle.  Among blocking
rows of the ratio test the smallest basic variable index leaves.

The engine works on the problem's own columns and bounds: its matrix is
``[A | slacks]``, one slack per inequality row, and its point's first
``n`` entries are the returned primal.  A nonbasic column starts at its
finite lower bound, else at its finite upper bound, else (free) at 0.  It
enters in the direction its reduced cost improves, up from below its
upper bound or down from above its lower bound, so a free column may
enter either way; it steps from its current value.  A free basic column
never blocks the ratio test, so it never leaves the basis.

There is no presolve: every row and column of ``A`` goes into the
simplex, and the bounded simplex covers the cases a presolve would
remove.  A fixed column (``lower == upper``) has no room to move, so it
never enters the basis and keeps its value exactly.  An all-zero row that
holds keeps its slack or its phase-one artificial basic (the artificial at
zero, as a redundant row); one that fails leaves phase one with a positive
infeasibility, whose duals are the Farkas certificate.  An all-zero
column is priced like any other: it stays at or flips to its better
bound, or, when that bound is infinite, gives the unbounded ray.

Conventions
-----------
Problems are ``min/max c.x  s.t.  A x (=, <=, >=) b,  lower <= x <= upper``.

For ``sense="min"`` the reported duals satisfy ``y_i >= 0`` on ``ge`` rows,
``y_i <= 0`` on ``le`` rows, free on ``eq`` rows; signs flip for ``max``.

A Farkas certificate ``y`` (returned when infeasible, any sense) satisfies
``y_i >= 0`` on ``le`` rows, ``y_i <= 0`` on ``ge`` rows, free on ``eq``
rows, with ``r = A.T y`` nonnegative (within tolerance) on columns
unbounded above, and

    y.b - sum_j min(r_j * lower_j, r_j * upper_j) < -CERT_TOL

which contradicts feasibility of the box-constrained system.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tolerances import CERT_DUAL_TOL, CERT_TOL, DRIVE_TOL, DUAL_TOL, FEAS_TOL, GAP_TOL, PIV_TOL

__all__ = [
    "LpProblem", "LpSolution", "NumericalBreakdown", "solve", "solve_vertex", "farkas_margin", "certify",
]

_REFACTOR_EVERY = 100
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's entering rule


class NumericalBreakdown(Exception):
    """The solver could not certify its result within tolerances."""


def _as_float_vector(v, n: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {arr.shape}")
    return arr


@dataclass
class LpProblem:
    """Data of one linear program.

    Attributes
    ----------
    c : objective coefficients, length n.
    A : constraint matrix, m x n: an array, or a `TransportIncidence`,
        which `solve` hands to the network simplex.
    b : right-hand side, length m.
    kinds : per-row kind, each one of "eq", "le", "ge".
    lower, upper : per-variable bounds; default [0, +inf).
    sense : "min" or "max".
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    kinds: Sequence[str]
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    sense: str = "min"

    def __post_init__(self):
        if not isinstance(self.A, network.TransportIncidence):
            self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        m, n = self.A.shape
        self.c = _as_float_vector(self.c, n, "c")
        self.b = _as_float_vector(self.b, m, "b")
        self.kinds = tuple(self.kinds)
        if len(self.kinds) != m:
            raise ValueError(f"kinds must have length {m}, got {len(self.kinds)}")
        for k in self.kinds:
            if k not in ("eq", "le", "ge"):
                raise ValueError(f"unknown row kind {k!r}")
        # row masks, derived once: certify, farkas_margin and _ray_valid read them
        kinds = np.array(self.kinds, dtype=str)
        self._eq, self._le, self._ge = kinds == "eq", kinds == "le", kinds == "ge"
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.lower = (
            np.zeros(n) if self.lower is None else _as_float_vector(self.lower, n, "lower")
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None else _as_float_vector(self.upper, n, "upper")
        )
        if not (
            np.isfinite(self.c).all()
            and (isinstance(self.A, network.TransportIncidence) or np.isfinite(self.A).all())
            and np.isfinite(self.b).all()
        ):
            raise ValueError("c, A, b must be finite")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("bounds must not be NaN")
        if (self.lower == np.inf).any() or (self.upper == -np.inf).any():
            raise ValueError("a lower bound of +inf or an upper bound of -inf admits no point")
        crossed = self.lower > self.upper
        if crossed.any():
            j = int(crossed.argmax())
            raise ValueError(f"lower bound exceeds upper bound at variable {j}")

    @property
    def nrows(self) -> int:
        return self.A.shape[0]

    @property
    def nvars(self) -> int:
        return self.A.shape[1]


@dataclass
class LpSolution:
    """Outcome of a solve.

    status is one of "optimal", "infeasible", "unbounded".  For "optimal",
    x and y hold the primal and dual solutions.  For "infeasible", `farkas`
    holds the certificate described in the module docstring.  For
    "unbounded", `ray` holds a feasible recession direction that strictly
    improves the objective.
    """

    status: str
    value: float
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    farkas: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    iterations: int = 0


def farkas_margin(problem: LpProblem, y: np.ndarray) -> float:
    """Margin of a Farkas certificate; valid certificates return < -CERT_TOL.

    Returns +inf when y violates the row-sign or cone conditions, so the
    result is directly comparable against -CERT_TOL.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != problem.nrows:
        return np.inf
    if (problem._le & (y < -FEAS_TOL)).any() or (problem._ge & (y > FEAS_TOL)).any():
        return np.inf
    r = problem.A.T @ y
    scale = max(1.0, float(np.abs(y).max()) if y.size else 1.0)
    tol_r = FEAS_TOL * scale
    lo, up = problem.lower, problem.upper
    pos, neg = r > tol_r, r < -tol_r
    if (pos & ~np.isfinite(lo)).any() or (neg & ~np.isfinite(up)).any():
        return np.inf
    r_lo = r * np.where(np.isfinite(lo), lo, 0.0)
    r_up = r * np.where(np.isfinite(up), up, 0.0)
    # near-zero multiplier: min(0, r*lo, r*up) over the finite bounds is a
    # safe underestimate of the box minimum
    term = np.where(pos, r_lo, np.where(neg, r_up, np.minimum(0.0, np.minimum(r_lo, r_up))))
    return float(y @ problem.b - term.sum())


def _ray_valid(problem: LpProblem, d: np.ndarray, sense_sign: float) -> bool:
    """Check d is a recession direction that strictly improves the objective."""
    tol = FEAS_TOL * max(1.0, float(np.abs(d).max()))
    if (np.isfinite(problem.lower) & (d < -tol)).any():
        return False
    if (np.isfinite(problem.upper) & (d > tol)).any():
        return False
    Ad = problem.A @ d
    row_tol = tol * max(1.0, float(np.abs(problem.A).max()) if problem.A.size else 1.0)
    eq, le, ge = problem._eq, problem._le, problem._ge
    if ((eq & (np.abs(Ad) > row_tol)) | (le & (Ad > row_tol)) | (ge & (Ad < -row_tol))).any():
        return False
    rate = sense_sign * float(problem.c @ d)
    c_scale = max(1.0, float(np.abs(problem.c).max()) if problem.c.size else 1.0)
    return rate < -CERT_TOL * c_scale


def certify(problem: LpProblem, x: np.ndarray, y: np.ndarray, value: float) -> None:
    """Raise NumericalBreakdown unless (x, y) is an optimal pair worth `value`.

    Checks that x, y and value are finite, then the primal rows and
    bounds, the dual signs, complementary slackness and the duality gap,
    in the conventions of the module docstring.  ``problem.A`` is read
    only through ``A @ x`` and ``A.T @ y``, so a constraint operator that
    never forms the dense matrix is checked the same way as an array.
    """
    p = problem
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(value)):
        raise NumericalBreakdown("non-finite primal, dual or value")
    sign = 1.0 if p.sense == "min" else -1.0
    eq, le, ge = p._eq, p._le, p._ge
    b_scale = max(1.0, float(np.abs(p.b).max()) if p.b.size else 1.0)
    x_scale = max(1.0, float(np.abs(x).max()) if x.size else 1.0)
    resid = p.A @ x - p.b
    tol = FEAS_TOL * b_scale
    bad = (eq & (np.abs(resid) > tol)) | (le & (resid > tol)) | (ge & (resid < -tol))
    if bad.any():
        i = int(bad.argmax())
        raise NumericalBreakdown(f"primal residual {resid[i]:.2e} on row {i}")
    if (x < p.lower - FEAS_TOL * x_scale).any() or (x > p.upper + FEAS_TOL * x_scale).any():
        raise NumericalBreakdown("primal bounds violated")
    # dual checks in the min convention
    y_min = sign * y
    c_scale = max(1.0, float(np.abs(p.c).max()) if p.c.size else 1.0)
    dual_tol = CERT_DUAL_TOL * c_scale
    bad = (le & (y_min > dual_tol)) | (ge & (y_min < -dual_tol))
    if bad.any():
        i = int(bad.argmax())
        raise NumericalBreakdown(f"dual sign violated on {p.kinds[i]} row {i}")
    r_min = sign * p.c - p.A.T @ y_min
    pos, neg = r_min > dual_tol, r_min < -dual_tol
    at_lo = x <= p.lower + FEAS_TOL * x_scale
    at_hi = x >= p.upper - FEAS_TOL * x_scale
    free_pos = pos & ~np.isfinite(p.lower)
    free_neg = neg & ~np.isfinite(p.upper)
    bad = free_pos | free_neg | (pos & ~at_lo) | (neg & ~at_hi)
    if bad.any():
        j = int(bad.argmax())
        if free_pos[j]:
            raise NumericalBreakdown(f"dual infeasibility at free variable {j}")
        if free_neg[j]:
            raise NumericalBreakdown(f"dual infeasibility at variable {j}")
        raise NumericalBreakdown(f"complementary slackness violated at variable {j}")
    dual_value = float(y_min @ p.b + r_min[pos] @ p.lower[pos] + r_min[neg] @ p.upper[neg])
    value_min = sign * value
    if abs(value_min - dual_value) > GAP_TOL * (1.0 + abs(value_min)):
        raise NumericalBreakdown(f"duality gap {value_min - dual_value:.3e} exceeds tolerance")


class _Engine:
    """One solve of one problem; not reusable."""

    def __init__(self, problem: LpProblem, pivot_limit: int):
        self.p = problem
        self.sense_sign = 1.0 if problem.sense == "min" else -1.0
        self.pivot_limit = pivot_limit
        self.iterations = 0

    # ----- standard-form construction --------------------------------------

    def _build(self):
        p = self.p
        kinds = np.array(p.kinds, dtype=str)
        slack_rows = np.flatnonzero(kinds != "eq")
        ns = slack_rows.size
        slacks = np.zeros((p.nrows, ns))
        slacks[slack_rows, np.arange(ns)] = np.where(kinds[slack_rows] == "le", 1.0, -1.0)
        self.slack_rows = slack_rows  # row slack_rows[k] owns column nvars + k
        self.Ahat = np.hstack([p.A, slacks])
        self.chat = np.concatenate([self.sense_sign * p.c, np.zeros(ns)])
        self.lohat = np.concatenate([p.lower, np.zeros(ns)])
        self.hihat = np.concatenate([p.upper, np.full(ns, np.inf)])
        self.bhat = p.b

    # ----- simplex state ----------------------------------------------------

    def _init_phase1(self):
        mh = self.p.nrows
        nh = self.Ahat.shape[1]
        lo_finite, hi_finite = np.isfinite(self.lohat), np.isfinite(self.hihat)
        start_upper = ~lo_finite & hi_finite
        x = np.where(lo_finite, self.lohat, np.where(hi_finite, self.hihat, 0.0))
        resid = self.bhat - self.Ahat @ x
        # a row's slack starts basic when it can absorb the residual, else
        # the row's artificial, sigma_pos * e_pos, starts basic
        rows = self.slack_rows
        cols = self.p.nvars + np.arange(rows.size)
        val = resid[rows] / self.Ahat[rows, cols]
        fits = val >= 0.0
        x[cols[fits]] = val[fits]
        basis = nh + np.arange(mh)
        basis[rows[fits]] = cols[fits]
        took = basis < nh
        sigmas = np.where(resid >= 0.0, 1.0, -1.0)
        self.first_art = nh
        self.Ahat = np.hstack([self.Ahat, np.diag(sigmas)])
        self.chat = np.concatenate([self.chat, np.zeros(mh)])
        self.phase1_cost = np.concatenate([np.zeros(nh), np.ones(mh)])
        self.lohat = np.concatenate([self.lohat, np.zeros(mh)])
        self.hihat = np.concatenate([self.hihat, np.where(took, 0.0, np.inf)])
        x = np.concatenate([x, np.zeros(mh)])
        x[basis[~took]] = resid[~took] / sigmas[~took]
        self.x = x
        self.basis = basis
        ncols = self.Ahat.shape[1]
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.in_basis[basis] = True
        self.at_upper = np.concatenate([start_upper, np.zeros(mh, dtype=bool)])
        self.Binv = np.diag(1.0 / self.Ahat[np.arange(mh), basis])
        self.since_refactor = 0

    def _refactor(self):
        B = self.Ahat[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("basis matrix became singular") from None
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.Binv @ (self.bhat - self.Ahat @ xn)
        self.since_refactor = 0

    def _loop(self, costs: np.ndarray, allow_unbounded: bool):
        """Iterate until optimal or unbounded under the given cost vector.

        The basic columns' values and bounds are kept in basis order
        (`xB`, `loB`, `hiB`) from one pivot to the next; ``self.x`` holds
        the nonbasic values throughout and the basic ones again when the
        loop returns.
        """
        mh = self.p.nrows
        lo, hi = self.lohat, self.hihat
        range_open = hi - lo > 0.0
        free = ~np.isfinite(lo) & ~np.isfinite(hi)
        # the way a nonbasic column may move: +1 up from its lower bound,
        # -1 down from its upper one; 0 when basic, fixed or free
        way = np.where(self.at_upper, -1.0, 1.0)
        way[self.in_basis | ~range_open | free] = 0.0
        free_nb = (free & ~self.in_basis).astype(float)  # may move either way
        any_free = bool(free_nb.any())
        basis, x = self.basis, self.x
        xB, loB, hiB = x[basis], lo[basis], hi[basis]
        t_rows = np.empty(mh)  # the ratio test's steps, one per row
        stalled = 0  # degenerate (zero-length) pivots in a row
        while True:
            if self.iterations > self.pivot_limit:
                raise NumericalBreakdown(
                    f"pivot limit {self.pivot_limit} exceeded after {self.iterations} iterations"
                )
            if self.since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                xB = x[basis]
            y = self.Binv.T @ costs[basis]
            r = costs - self.Ahat.T @ y
            # an eligible column prices at -|r| < -DUAL_TOL, any other at >= -DUAL_TOL
            priced = r * way
            if any_free:
                priced -= np.abs(r) * free_nb
            j = int(priced.argmin()) if priced.size else 0  # Dantzig; ties to the smallest index
            if not (priced.size and priced[j] < -DUAL_TOL):
                x[basis] = xB
                return "optimal", y, r
            if stalled >= _BLAND_AFTER:
                j = int((priced < -DUAL_TOL).argmax())  # Bland: smallest eligible index enters
            sigma = -1.0 if r[j] > 0.0 else 1.0
            d = self.Binv @ self.Ahat[:, j]
            rate = -sigma * d  # change of basic values per unit step
            t_best = hi[j] - lo[j]
            leave_pos = -1
            leave_hits_upper = False
            speed = np.abs(rate)
            room = np.where(rate > 0.0, hiB - xB, xB - loB)
            t_rows.fill(np.inf)
            np.divide(room, speed, out=t_rows, where=speed > PIV_TOL)
            np.maximum(t_rows, 0.0, out=t_rows)
            tmin = float(t_rows.min()) if mh else np.inf
            if tmin < t_best:
                # Bland: among blocking rows the smallest variable index leaves
                ties = (t_rows <= tmin).nonzero()[0]
                leave_pos = int(ties[basis[ties].argmin()])
                t_best = tmin
                leave_hits_upper = rate[leave_pos] > 0.0
            if not math.isfinite(t_best):
                if not allow_unbounded:
                    raise NumericalBreakdown("phase-one subproblem reported unbounded")
                x[basis] = xB
                return "unbounded", j, sigma
            self.iterations += 1
            stalled = stalled + 1 if t_best == 0.0 else 0
            xB += rate * t_best
            if leave_pos < 0:
                # bound flip, no basis change
                x[j] = hi[j] if sigma > 0 else lo[j]
                self.at_upper[j] = not self.at_upper[j]
                way[j] = -way[j]
                continue
            lv = int(basis[leave_pos])
            x[lv] = hi[lv] if leave_hits_upper else lo[lv]
            self.at_upper[lv] = leave_hits_upper
            self.in_basis[lv] = False
            way[lv] = (-1.0 if leave_hits_upper else 1.0) if range_open[lv] else 0.0
            basis[leave_pos] = j
            xB[leave_pos], loB[leave_pos], hiB[leave_pos] = x[j] + sigma * t_best, lo[j], hi[j]
            self.in_basis[j] = True
            way[j] = 0.0
            if free_nb[j]:
                free_nb[j] = 0.0
                any_free = bool(free_nb.any())
            piv = d[leave_pos]
            if abs(piv) < PIV_TOL:
                self._refactor()
                xB = x[basis]
                continue
            row = self.Binv[leave_pos]
            row /= piv
            d[leave_pos] = 0.0
            self.Binv -= d[:, None] * row
            self.since_refactor += 1

    def _drive_out_artificials(self):
        """Swap basic artificials for structural columns where possible.

        Fixed columns are not candidates, so they stay nonbasic at their
        exact value.  An artificial left basic sits at zero with bounds
        [0, 0] in phase two, where it blocks any step that would move it.
        """
        movable = self.hihat[: self.first_art] > self.lohat[: self.first_art]
        for pos in range(self.p.nrows):
            bi = int(self.basis[pos])
            if bi < self.first_art:
                continue
            row = self.Binv[pos, :] @ self.Ahat[:, : self.first_art]
            pickable = movable & ~self.in_basis[: self.first_art]
            cand = np.nonzero(pickable & (np.abs(row) > DRIVE_TOL))[0]
            if cand.size == 0:
                continue  # redundant row; the artificial stays basic at zero
            j = int(cand[0])
            d = self.Binv @ self.Ahat[:, j]
            piv = d[pos]
            if abs(piv) < DRIVE_TOL:
                continue
            self.in_basis[bi] = False
            self.at_upper[bi] = False
            self.x[bi] = 0.0
            self.basis[pos] = j
            self.in_basis[j] = True
            # zero-length step: x is unchanged
            self.Binv[pos, :] /= piv
            col = d.copy()
            col[pos] = 0.0
            self.Binv -= np.outer(col, self.Binv[pos, :])
            self.iterations += 1

    # ----- main -------------------------------------------------------------

    def run(self) -> LpSolution:
        p = self.p
        self._build()
        self._init_phase1()
        status, y1, _ = self._loop(self.phase1_cost, allow_unbounded=False)
        w = float(self.phase1_cost @ self.x)
        if w > FEAS_TOL * max(1.0, float(np.max(np.abs(self.bhat))) if p.nrows else 1.0):
            cert = self._certified_farkas(y1)
            return LpSolution(
                status="infeasible",
                value=np.inf if p.sense == "min" else -np.inf,
                farkas=cert,
                iterations=self.iterations,
            )
        self._drive_out_artificials()
        # freeze artificials at zero for phase two
        self.lohat[self.first_art :] = 0.0
        self.hihat[self.first_art :] = 0.0
        out = self._loop(self.chat, allow_unbounded=True)
        if out[0] == "unbounded":
            _, j, sigma = out
            dhat = np.zeros(self.Ahat.shape[1])
            dhat[j] = sigma
            dhat[self.basis] = -sigma * (self.Binv @ self.Ahat[:, j])
            d = dhat[: p.nvars]
            mx = float(np.max(np.abs(d))) if d.size else 0.0
            if mx > 0:
                d = d / mx
            if not _ray_valid(p, d, self.sense_sign):
                raise NumericalBreakdown("unbounded ray failed validation")
            return LpSolution(
                status="unbounded",
                value=-np.inf if p.sense == "min" else np.inf,
                ray=d,
                iterations=self.iterations,
            )
        # recompute the final quantities from a fresh factorization
        self._refactor()
        x = self.x[: p.nvars].copy()
        y = self.sense_sign * (self.Binv.T @ self.chat[self.basis])
        value = float(p.c @ x)
        certify(p, x, y, value)
        return LpSolution(status="optimal", value=value, x=x, y=y, iterations=self.iterations)

    def _certified_farkas(self, y_phase1: np.ndarray) -> np.ndarray:
        # the phase-one duals, then once more from a fresh factorization
        for retry in (False, True):
            if retry:
                self._refactor()
                y_phase1 = self.Binv.T @ self.phase1_cost[self.basis]
            y = -y_phase1
            scale = float(np.max(np.abs(y))) if y.size else 0.0
            if scale > 0:
                y = y / scale
            if farkas_margin(self.p, y) < -CERT_TOL:
                return y
        raise NumericalBreakdown("infeasibility certificate failed validation")


_pivot_total = 0


def pivot_total() -> int:
    """Pivots performed by all solves so far in this process."""
    return _pivot_total


def solve(problem: LpProblem, pivot_limit: Optional[int] = None) -> LpSolution:
    """Solve a linear program; see the module docstring for conventions.

    A problem whose ``A`` is a `TransportIncidence` goes to the network
    simplex (`network.solve_network`), every other one to the dense
    engine.  The default pivot limit is ``10 * (rows + columns) ** 2``.
    """
    global _pivot_total
    if pivot_limit is None:
        pivot_limit = 10 * (problem.nrows + problem.nvars) ** 2
    if isinstance(problem.A, network.TransportIncidence):
        sol = network.solve_network(problem, pivot_limit)
    else:
        sol = _Engine(problem, pivot_limit).run()
    _pivot_total += sol.iterations
    return sol


def solve_vertex(problem: LpProblem, pivot_limit: Optional[int] = None) -> LpSolution:
    """Solve and verify the primal is a basic (vertex) solution."""
    sol = solve(problem, pivot_limit=pivot_limit)
    if sol.status == "optimal":
        x = sol.x
        # a nonbasic free column sits at 0, so it is interior only away from 0
        free = ~np.isfinite(problem.lower) & ~np.isfinite(problem.upper)
        inside = (x > problem.lower + FEAS_TOL) & (x < problem.upper - FEAS_TOL)
        interior = int(np.sum(inside & ~(free & (np.abs(x) <= FEAS_TOL))))
        if interior > problem.nrows:
            raise NumericalBreakdown(
                f"vertex solve returned {interior} interior entries for {problem.nrows} rows"
            )
    return sol


# the network engine builds on the definitions above, so it is imported
# last, and as a module: when `network` is imported first, it is still
# incomplete here, and its names are read only when a problem is built or solved
from . import network  # noqa: E402
