"""Dense bounded-variable revised simplex with duals and certificates.

`solve` alone picks the engine: two unweighted blocks (a transportation
LP) go to the network simplex, any other problem to this engine, an
operator through ``toarray()``.  Neither engine checks its own answer:
`solve` is an engine, then `gate`, which holds any answer to `certify`,
`farkas_margin` or `_ray_valid`; these read an operator only through
``shape``, ``@``, ``.T @`` and ``toarray()``.

Design goals, in order: determinism (fixed pricing and tie-breaking rules,
fixed iteration order, no randomization), honest certificates (every
optimum, infeasibility or unboundedness claim is validated numerically
against the original data before `solve` returns it), and native handling
of equality rows so their dual multipliers are unconstrained in sign.

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
rows of the ratio test the smallest basic variable index leaves.  Pricing
and the basis-inverse update are array calls; the basic indices, values
and bounds are Python numbers, and the ratio test and the step run over
the rows the entering column touches in plain Python, because on the
small LPs most commands send, numpy's fixed cost per call would set the
time of a pivot.  ``way`` is built once per solve and carries over from
phase one to phase two.

The engine works on the problem's own columns and bounds: its matrix is
``[A | slacks | artificials]``, one slack per inequality row and one
phase-one artificial per row, and its point's first ``n`` entries are the
returned primal.  A nonbasic column starts at its finite lower bound,
else at its finite upper bound, else (free) at 0.  It enters in the
direction its reduced cost improves, up from below its upper bound or
down from above its lower bound, so a free column may enter either way;
it steps from its current value.  A free basic column never blocks the
ratio test, so it never leaves the basis.

There is no presolve: every row and column of ``A`` goes into the
simplex, and the bounded simplex covers the cases a presolve would
remove.  A fixed column (``lower == upper``) has no room to move, so it
never enters the basis and keeps its value exactly.  An all-zero row that
holds keeps its slack or its phase-one artificial basic (the artificial at
zero, as a redundant row); one that fails leaves phase one with a positive
infeasibility, whose duals are the Farkas certificate.  Phase two fixes
every artificial at [0, 0], so a basic one blocks the first step that
would move it and leaves by an ordinary degenerate pivot, or stays basic
at zero on a redundant row.  An all-zero column is priced like any
other: it stays at or flips to its better bound, or, when that bound is
infinite, gives the unbounded ray.

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

from .tolerances import CERT_DUAL_TOL, CERT_TOL, DUAL_TOL, FEAS_TOL, GAP_TOL, PIV_TOL

__all__ = [
    "LpProblem", "LpSolution", "NumericalBreakdown", "solve", "solve_vertex", "gate", "farkas_margin", "certify",
]

_REFACTOR_EVERY = 100
_BLAND_AFTER = 50  # degenerate pivots in a row before Bland's entering rule
_ROW_SIGN = {"eq": 0.0, "le": 1.0, "ge": -1.0}


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
    A : constraint matrix, m x n: an array, or an operator with ``shape``,
        ``@``, ``.T @`` and ``toarray()``, which checks its own entries.
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
        if not hasattr(self.A, "toarray"):
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
        # derived once, read by the engine and the checks: each row's slack
        # sign (+1 "le", -1 "ge", 0 "eq", which has none) and the "eq" rows
        self._sign = np.array([_ROW_SIGN[k] for k in self.kinds])
        self._eq = self._sign == 0.0
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
            and (not isinstance(self.A, np.ndarray) or np.isfinite(self.A).all())
            and np.isfinite(self.b).all()
        ):
            raise ValueError("c, A, b must be finite")
        # one check for the valid case; the failing one finds its message
        if not ((self.lower <= self.upper) & (self.lower < np.inf) & (self.upper > -np.inf)).all():
            if np.isnan(self.lower).any() or np.isnan(self.upper).any():
                raise ValueError("bounds must not be NaN")
            if (self.lower == np.inf).any() or (self.upper == -np.inf).any():
                raise ValueError("a lower bound of +inf or an upper bound of -inf admits no point")
            j = int((self.lower > self.upper).argmax())
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
    if (problem._sign * y < -FEAS_TOL).any():  # y < 0 on an "le" row or y > 0 on a "ge" row
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
    rate = sense_sign * float(problem.c @ d)
    c_scale = max(1.0, float(np.abs(problem.c).max()) if problem.c.size else 1.0)
    if not rate < -CERT_TOL * c_scale:
        return False
    row_tol = tol * max(1.0, float(np.abs(_dense(problem.A)).max(initial=0.0)))
    return not (_excess(problem, problem.A @ d) > row_tol).any()


def _excess(problem: LpProblem, v: np.ndarray) -> np.ndarray:
    """How far each row's ``v`` (left side less right) breaks its kind:
    |v| on an "eq" row, v on an "le" row, -v on a "ge" row."""
    return np.where(problem._eq, np.abs(v), v * problem._sign)


def certify(problem: LpProblem, x: np.ndarray, y: np.ndarray, value: float) -> None:
    """Raise NumericalBreakdown unless (x, y) is an optimal pair worth `value`.

    Checks that x, y and value are finite, then the primal rows and
    bounds, the dual signs, complementary slackness, the duality gap and
    the gap between value and c @ x, in the conventions of the module
    docstring.  ``problem.A`` is read only through ``A @ x`` and
    ``A.T @ y``, so a constraint operator that never forms the dense
    matrix is checked the same way as an array.
    """
    p = problem
    # a NaN or an infinite entry makes the largest |x| NaN or infinite
    x_max = float(np.abs(x).max()) if x.size else 0.0
    if not (math.isfinite(x_max) and np.isfinite(y).all() and math.isfinite(value)):
        raise NumericalBreakdown("non-finite primal, dual or value")
    sign = 1.0 if p.sense == "min" else -1.0
    b_scale = max(1.0, float(np.abs(p.b).max()) if p.b.size else 1.0)
    x_tol = FEAS_TOL * max(1.0, x_max)
    resid = p.A @ x - p.b
    bad = _excess(p, resid) > FEAS_TOL * b_scale
    if bad.any():
        i = int(bad.argmax())
        raise NumericalBreakdown(f"primal residual {resid[i]:.2e} on row {i}")
    if ((x < p.lower - x_tol) | (x > p.upper + x_tol)).any():
        raise NumericalBreakdown("primal bounds violated")
    # dual checks in the min convention
    y_min = sign * y
    c_scale = max(1.0, float(np.abs(p.c).max()) if p.c.size else 1.0)
    dual_tol = CERT_DUAL_TOL * c_scale
    bad = p._sign * y_min > dual_tol  # y_min > 0 on an "le" row or < 0 on a "ge" row
    if bad.any():
        i = int(bad.argmax())
        raise NumericalBreakdown(f"dual sign violated on {p.kinds[i]} row {i}")
    r_min = sign * p.c - p.A.T @ y_min
    pos, neg = r_min > dual_tol, r_min < -dual_tol
    # x is finite, so it is never within x_tol of an infinite bound
    bad = (pos & (x > p.lower + x_tol)) | (neg & (x < p.upper - x_tol))
    if bad.any():
        j = int(bad.argmax())
        if pos[j] and p.lower[j] == -np.inf:
            raise NumericalBreakdown(f"dual infeasibility at free variable {j}")
        if neg[j] and p.upper[j] == np.inf:
            raise NumericalBreakdown(f"dual infeasibility at variable {j}")
        raise NumericalBreakdown(f"complementary slackness violated at variable {j}")
    dual_value = float(y_min @ p.b + r_min[pos] @ p.lower[pos] + r_min[neg] @ p.upper[neg])
    value_min = sign * value
    if abs(value_min - dual_value) > GAP_TOL * (1.0 + abs(value_min)):
        raise NumericalBreakdown(f"duality gap {value_min - dual_value:.3e} exceeds tolerance")
    primal_min = sign * float(p.c @ x)
    if abs(value_min - primal_min) > GAP_TOL * (1.0 + abs(value_min)):
        raise NumericalBreakdown(f"value misses c @ x by {value_min - primal_min:.3e}")


class _Engine:
    """One solve of one problem; not reusable."""

    def __init__(self, problem: LpProblem, pivot_limit: int):
        self.p = problem
        self.sense_sign = 1.0 if problem.sense == "min" else -1.0
        self.pivot_limit = pivot_limit
        self.iterations = 0

    # ----- simplex state ----------------------------------------------------

    def _init_phase1(self):
        p = self.p
        mh, n = p.nrows, p.nvars
        slack_rows = np.flatnonzero(p._sign).tolist()
        signs = p._sign[slack_rows].tolist()
        nh = n + len(slack_rows)  # row slack_rows[k] owns column n + k
        self.first_art = nh  # row i owns artificial column nh + i
        self.Ahat = np.zeros((mh, nh + mh))
        self.Ahat[:, :n] = _dense(p.A)
        for k, i in enumerate(slack_rows):
            self.Ahat[i, n + k] = signs[k]
        self.chat = np.zeros(nh + mh)
        self.chat[:n] = self.sense_sign * p.c
        self.phase1_cost = np.zeros(nh + mh)
        self.phase1_cost[nh:] = 1.0
        self.lohat = np.zeros(nh + mh)
        self.lohat[:n] = p.lower
        self.hihat = np.full(nh + mh, np.inf)
        self.hihat[:n] = p.upper
        lo_finite, hi_finite = np.isfinite(self.lohat), np.isfinite(self.hihat)
        x = np.where(lo_finite, self.lohat, np.where(hi_finite, self.hihat, 0.0))
        resid = (p.b - self.Ahat[:, :nh] @ x[:nh]).tolist()
        # row i's artificial, sigmas[i] * e_i, starts basic, unless the
        # row's slack can absorb the residual: then the slack starts basic
        # and the artificial is fixed at zero
        sigmas = [1.0 if t >= 0.0 else -1.0 for t in resid]
        basis, entry = list(range(nh, nh + mh)), sigmas[:]  # each basic column's +-1 in its row
        x[nh:] = [t / s for t, s in zip(resid, sigmas)]
        for k, i in enumerate(slack_rows):
            val = resid[i] / signs[k]
            if val >= 0.0:
                x[n + k], x[nh + i], basis[i], entry[i] = val, 0.0, n + k, signs[k]
        self.hihat[nh:] = [0.0 if k < nh else np.inf for k in basis]
        np.fill_diagonal(self.Ahat[:, nh:], sigmas)
        # the way a nonbasic column may move: +1 up from its lower bound,
        # -1 down from its upper one; 0 when basic, fixed or free
        self.way = np.where(lo_finite, 1.0, np.where(hi_finite, -1.0, 0.0))
        self.way[self.hihat == self.lohat] = 0.0
        self.way[basis] = 0.0
        self.free_nb = (~(lo_finite | hi_finite)).astype(float)  # nonbasic free: may move either way
        self.x, self.basis = x, np.array(basis, dtype=np.intp)
        self.Binv = np.diag(entry)  # the inverse of a diagonal of +-1
        self.since_refactor = 0

    def _refactor(self):
        B = self.Ahat[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("basis matrix became singular") from None
        self.x[self.basis] = 0.0  # the nonbasic values alone give the basic ones
        self.x[self.basis] = self.Binv @ (self.p.b - self.Ahat @ self.x)
        self.since_refactor = 0

    def _loop(self, costs: np.ndarray, allow_unbounded: bool):
        """Iterate until optimal or unbounded under the given cost vector.

        The basic indices, values and bounds (`basis`, `xB`, `loB`, `hiB`)
        are Python ints and floats kept in basis order from one pivot to the
        next, since numpy's cost per call, not arithmetic, dominates a pivot
        of a small LP; ``self.basis`` mirrors `basis`, and `cB` holds the
        basic costs as the array pricing reads.  ``self.x`` holds the
        nonbasic values throughout and the basic ones again when the loop
        returns.  Phase two (`allow_unbounded`) first stops the artificials,
        which `run` has fixed at zero.
        """
        way, free_nb = self.way, self.free_nb
        if allow_unbounded:
            way[self.first_art :] = 0.0
        any_free = bool(free_nb.any())
        lo, hi = self.lohat.tolist(), self.hihat.tolist()
        x, basis = self.x, self.basis.tolist()
        xB, loB, hiB = x[self.basis].tolist(), [lo[k] for k in basis], [hi[k] for k in basis]
        cB = costs[self.basis]
        stalled = 0  # degenerate (zero-length) pivots in a row
        while True:
            if self.iterations > self.pivot_limit:
                raise NumericalBreakdown(
                    f"pivot limit {self.pivot_limit} exceeded after {self.iterations} iterations"
                )
            if self.since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                xB = x[self.basis].tolist()
            y = self.Binv.T @ cB
            r = costs - self.Ahat.T @ y
            # an eligible column prices at -|r| < -DUAL_TOL, any other at >= -DUAL_TOL
            priced = r * way
            if any_free:
                priced -= np.abs(r) * free_nb
            j = int(priced.argmin()) if priced.size else 0  # Dantzig; ties to the smallest index
            if not (priced.size and priced[j] < -DUAL_TOL):
                x[self.basis] = xB
                return "optimal", y, r
            if stalled >= _BLAND_AFTER:
                j = int((priced < -DUAL_TOL).argmax())  # Bland: smallest eligible index enters
            sigma = -1.0 if r[j] > 0.0 else 1.0
            d = self.Binv @ self.Ahat[:, j]
            # ratio test: rate = -sigma * d is each basic value's change per
            # unit step; a row with |rate| > PIV_TOL blocks at room / |rate|,
            # and among blocking rows the smallest variable index leaves (Bland)
            rates, t_best, leave_pos = (-sigma * d).tolist(), hi[j] - lo[j], -1
            rows = d.nonzero()[0].tolist()
            for i in rows:
                rate = rates[i]
                if rate > PIV_TOL:
                    t = (hiB[i] - xB[i]) / rate
                elif rate < -PIV_TOL:
                    t = (xB[i] - loB[i]) / -rate
                else:
                    continue
                t = t if t > 0.0 else 0.0
                if t < t_best or t == t_best and leave_pos >= 0 and basis[i] < basis[leave_pos]:
                    t_best, leave_pos = t, i
            if not math.isfinite(t_best):
                if not allow_unbounded:
                    raise NumericalBreakdown("phase-one subproblem reported unbounded")
                x[self.basis] = xB
                return "unbounded", j, sigma
            self.iterations += 1
            stalled = stalled + 1 if t_best == 0.0 else 0
            if t_best > 0.0:  # a degenerate step moves no basic value
                for i in rows:
                    xB[i] += rates[i] * t_best
            if leave_pos < 0:
                # bound flip, no basis change
                x[j] = hi[j] if sigma > 0 else lo[j]
                way[j] = -way[j]
                continue
            lv = basis[leave_pos]
            hits_upper = rates[leave_pos] > 0.0
            x[lv] = hi[lv] if hits_upper else lo[lv]
            way[lv] = (-1.0 if hits_upper else 1.0) if hi[lv] > lo[lv] else 0.0
            xB[leave_pos], loB[leave_pos], hiB[leave_pos] = x.item(j) + sigma * t_best, lo[j], hi[j]
            self.basis[leave_pos] = basis[leave_pos] = j
            cB[leave_pos] = costs[j]
            way[j] = 0.0
            if free_nb[j]:
                free_nb[j] = 0.0
                any_free = bool(free_nb.any())
            piv = d[leave_pos]
            if abs(piv) < PIV_TOL:
                self._refactor()
                xB = x[self.basis].tolist()
                continue
            row = self.Binv[leave_pos]
            row /= piv
            d[leave_pos] = 0.0
            self.Binv -= d[:, None] * row
            self.since_refactor += 1

    # ----- main -------------------------------------------------------------

    def run(self) -> LpSolution:
        p = self.p
        self._init_phase1()
        self._loop(self.phase1_cost, allow_unbounded=False)
        w = float(self.phase1_cost @ self.x)
        if w > FEAS_TOL * max(1.0, float(np.abs(p.b).max()) if p.nrows else 1.0):
            # the phase-one duals, read from a fresh factorization
            self._refactor()
            return LpSolution(
                status="infeasible",
                value=np.inf if p.sense == "min" else -np.inf,
                farkas=-(self.Binv.T @ self.phase1_cost[self.basis]),
                iterations=self.iterations,
            )
        # freeze artificials at zero for phase two
        self.lohat[self.first_art :] = 0.0
        self.hihat[self.first_art :] = 0.0
        out = self._loop(self.chat, allow_unbounded=True)
        if out[0] == "unbounded":
            _, j, sigma = out
            dhat = np.zeros(self.Ahat.shape[1])
            dhat[j] = sigma
            dhat[self.basis] = -sigma * (self.Binv @ self.Ahat[:, j])
            return LpSolution(
                status="unbounded",
                value=-np.inf if p.sense == "min" else np.inf,
                ray=dhat[: p.nvars],
                iterations=self.iterations,
            )
        # recompute the final quantities from a fresh factorization
        self._refactor()
        x = self.x[: p.nvars].copy()
        y = self.sense_sign * (self.Binv.T @ self.chat[self.basis])
        return LpSolution(status="optimal", value=float(p.c @ x), x=x, y=y, iterations=self.iterations)


_pivot_total = 0


def pivot_total() -> int:
    """Pivots performed by all solves so far in this process."""
    return _pivot_total


def solve(problem: LpProblem, pivot_limit: Optional[int] = None) -> LpSolution:
    """Solve a linear program; see the module docstring for conventions.

    A problem whose ``A`` is a `bipartite` `TransportIncidence` goes to
    the network simplex (`network.solve_network`), every other one to the
    dense engine.  The default pivot limit is ``10 * (rows + columns) ** 2``.
    Whichever engine ran, its answer passes `gate` before it is returned.
    """
    if pivot_limit is None:
        pivot_limit = 10 * (problem.nrows + problem.nvars) ** 2
    if isinstance(problem.A, network.TransportIncidence) and problem.A.bipartite:
        sol = network.solve_network(problem, pivot_limit)
    else:
        sol = _Engine(problem, pivot_limit).run()
    return gate(problem, sol)


def gate(problem: LpProblem, sol: LpSolution) -> LpSolution:
    """`sol`, an answer to `problem` from any engine or lift, once checked.

    An optimum must pass `certify`; a Farkas vector or an unbounded ray is
    scaled to a largest entry of 1 and must pass `farkas_margin` or
    `_ray_valid`.  A failure raises NumericalBreakdown; a pass adds the
    answer's pivots to `pivot_total`."""
    global _pivot_total
    if sol.status == "optimal":
        certify(problem, sol.x, sol.y, sol.value)
    elif sol.status == "infeasible":
        sol.farkas = _unit(sol.farkas)
        if not farkas_margin(problem, sol.farkas) < -CERT_TOL:
            raise NumericalBreakdown("infeasibility certificate failed validation")
    else:
        sol.ray = _unit(sol.ray)
        if not _ray_valid(problem, sol.ray, 1.0 if problem.sense == "min" else -1.0):
            raise NumericalBreakdown("unbounded ray failed validation")
    _pivot_total += sol.iterations
    return sol


def _dense(A) -> np.ndarray:
    """A constraint matrix as an array: an operator through ``toarray()``."""
    return A if isinstance(A, np.ndarray) else A.toarray()


def _unit(v: np.ndarray) -> np.ndarray:
    """v over its largest absolute entry; a zero vector as it is."""
    scale = float(np.max(np.abs(v))) if v.size else 0.0
    return v / scale if scale > 0 else v


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
