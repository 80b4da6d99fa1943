"""Dense bounded-variable revised simplex with duals and certificates.

Design goals, in order: determinism (Bland's rule for entering and leaving,
fixed iteration order, no randomization), honest certificates (every
infeasibility or unboundedness claim is validated numerically against the
original data before it is returned), and native handling of equality rows
so their dual multipliers are unconstrained in sign.

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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tolerances import CERT_TOL, FEAS_TOL, GAP_TOL

__all__ = ["LpProblem", "LpSolution", "NumericalBreakdown", "solve", "solve_vertex", "farkas_margin"]

_DUAL_TOL = 1e-9
_PIV_TOL = 1e-10
_DRIVE_TOL = 1e-8
_REFACTOR_EVERY = 100


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
    A : constraint matrix, m x n.
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
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.lower = (
            np.zeros(n) if self.lower is None else _as_float_vector(self.lower, n, "lower")
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None else _as_float_vector(self.upper, n, "upper")
        )
        if not (
            np.all(np.isfinite(self.c))
            and np.all(np.isfinite(self.A))
            and np.all(np.isfinite(self.b))
        ):
            raise ValueError("c, A, b must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            j = int(np.argmax(self.lower > self.upper))
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
    x and y hold the primal and dual solutions and `reduced` the reduced
    costs c - A.T y.  For "infeasible", `farkas` holds the certificate
    described in the module docstring.  For "unbounded", `ray` holds a
    feasible recession direction that strictly improves the objective.
    """

    status: str
    value: float
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    reduced: Optional[np.ndarray] = None
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
    for i, k in enumerate(problem.kinds):
        if k == "le" and y[i] < -FEAS_TOL:
            return np.inf
        if k == "ge" and y[i] > FEAS_TOL:
            return np.inf
    r = problem.A.T @ y
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    tol_r = FEAS_TOL * scale
    term = 0.0
    for j in range(problem.nvars):
        rj = float(r[j])
        lo, up = problem.lower[j], problem.upper[j]
        if rj > tol_r:
            if not np.isfinite(lo):
                return np.inf
            term += rj * lo
        elif rj < -tol_r:
            if not np.isfinite(up):
                return np.inf
            term += rj * up
        else:
            # near-zero multiplier: safe underestimate of the box minimum
            cands = [0.0]
            if np.isfinite(lo):
                cands.append(rj * lo)
            if np.isfinite(up):
                cands.append(rj * up)
            term += min(cands)
    return float(y @ problem.b - term)


def _ray_valid(problem: LpProblem, d: np.ndarray, sense_sign: float) -> bool:
    """Check d is a recession direction that strictly improves the objective."""
    tol = FEAS_TOL * max(1.0, float(np.max(np.abs(d))))
    if np.any(np.isfinite(problem.lower) & (d < -tol)):
        return False
    if np.any(np.isfinite(problem.upper) & (d > tol)):
        return False
    Ad = problem.A @ d
    row_tol = tol * max(1.0, float(np.max(np.abs(problem.A))) if problem.A.size else 1.0)
    for i, k in enumerate(problem.kinds):
        if k == "eq" and abs(Ad[i]) > row_tol:
            return False
        if k == "le" and Ad[i] > row_tol:
            return False
        if k == "ge" and Ad[i] < -row_tol:
            return False
    rate = sense_sign * float(problem.c @ d)
    c_scale = max(1.0, float(np.max(np.abs(problem.c))) if problem.c.size else 1.0)
    return rate < -CERT_TOL * c_scale


class _Engine:
    """One solve of one problem; not reusable."""

    def __init__(self, problem: LpProblem, pivot_limit: Optional[int]):
        self.p = problem
        self.sense_sign = 1.0 if problem.sense == "min" else -1.0
        m, n = problem.nrows, problem.nvars
        self.pivot_limit = pivot_limit if pivot_limit is not None else 10 * (m + n) ** 2
        self.iterations = 0
        self.col_origin = []   # internal structural column -> original column
        self.fixed_value = {}  # original column -> pinned value
        self.kept_rows = []
        self.row_infeasible_cert = None

    # ----- presolve ---------------------------------------------------------

    def _presolve(self):
        p = self.p
        cmin = self.sense_sign * p.c
        keep_cols = []
        for j in range(p.nvars):
            if p.lower[j] == p.upper[j]:
                self.fixed_value[j] = p.lower[j]
            else:
                keep_cols.append(j)
        # structurally empty columns settle at the favourable bound when it is
        # finite; otherwise the simplex decides (feasibility must come first)
        for j in keep_cols:
            if np.any(p.A[:, j] != 0.0):
                continue
            cj = cmin[j]
            if cj > 0.0:
                target = p.lower[j]
            elif cj < 0.0:
                target = p.upper[j]
            else:
                target = p.lower[j] if np.isfinite(p.lower[j]) else p.upper[j]
                if not np.isfinite(target):
                    target = 0.0
            if np.isfinite(target):
                self.fixed_value[j] = target
        keep_cols = [j for j in keep_cols if j not in self.fixed_value]
        self.keep_cols = keep_cols

        fixed_js = sorted(self.fixed_value)
        shift = np.zeros(p.nrows)
        if fixed_js:
            vals = np.array([self.fixed_value[j] for j in fixed_js])
            shift = p.A[:, fixed_js] @ vals
        b_eff = p.b - shift

        for i in range(p.nrows):
            live = bool(keep_cols) and np.any(p.A[i, keep_cols] != 0.0)
            if live:
                self.kept_rows.append(i)
                continue
            resid = b_eff[i]
            k = p.kinds[i]
            bad = (
                (k == "eq" and abs(resid) > FEAS_TOL)
                or (k == "le" and resid < -FEAS_TOL)
                or (k == "ge" and resid > FEAS_TOL)
            )
            if bad and self.row_infeasible_cert is None:
                y = np.zeros(p.nrows)
                if k == "eq":
                    y[i] = -float(np.sign(resid))
                elif k == "le":
                    y[i] = 1.0
                else:
                    y[i] = -1.0
                self.row_infeasible_cert = y
        self.b_eff = b_eff

    # ----- standard-form construction --------------------------------------

    def _build(self):
        p = self.p
        cmin = self.sense_sign * p.c
        rows = self.kept_rows
        mh = len(rows)
        cols, costs, lo, hi = [], [], [], []
        bh = self.b_eff[rows].copy() if mh else np.zeros(0)
        for j in self.keep_cols:
            aj = p.A[rows, j] if mh else np.zeros(0)
            if np.isfinite(p.lower[j]):
                self.col_origin.append(("direct", j))
                cols.append(aj)
                costs.append(cmin[j])
                lo.append(p.lower[j])
                hi.append(p.upper[j])
            elif np.isfinite(p.upper[j]):
                # substitute x_j = upper_j - w with w >= 0
                self.col_origin.append(("mirror", j))
                cols.append(-aj)
                costs.append(-cmin[j])
                lo.append(0.0)
                hi.append(np.inf)
                bh = bh - aj * p.upper[j]
            else:
                # free variable, split into a positive and a negative part
                self.col_origin.append(("splitp", j))
                cols.append(aj)
                costs.append(cmin[j])
                lo.append(0.0)
                hi.append(np.inf)
                self.col_origin.append(("splitn", j))
                cols.append(-aj)
                costs.append(-cmin[j])
                lo.append(0.0)
                hi.append(np.inf)
        self.n_struct = len(cols)
        self.slack_of_row = {}
        for pos, i in enumerate(rows):
            k = p.kinds[i]
            if k == "eq":
                continue
            e = np.zeros(mh)
            e[pos] = 1.0 if k == "le" else -1.0
            self.slack_of_row[pos] = len(cols)
            cols.append(e)
            costs.append(0.0)
            lo.append(0.0)
            hi.append(np.inf)
        self.Ahat = np.column_stack(cols) if cols else np.zeros((mh, 0))
        self.chat = np.array(costs)
        self.lohat = np.array(lo)
        self.hihat = np.array(hi)
        self.bhat = bh
        self.mhat = mh

    # ----- simplex state ----------------------------------------------------

    def _init_phase1(self):
        mh = self.mhat
        nh = self.Ahat.shape[1]
        x = self.lohat.copy()
        resid = self.bhat - (self.Ahat @ x if nh else np.zeros(mh))
        basis = np.full(mh, -1, dtype=int)
        art_cols, art_lo, art_hi = [], [], []
        for pos in range(mh):
            t = float(resid[pos])
            spos = self.slack_of_row.get(pos)
            took_slack = False
            if spos is not None:
                val = t / self.Ahat[pos, spos]
                if val >= 0.0:
                    basis[pos] = spos
                    x[spos] = val
                    took_slack = True
            sigma = 1.0 if t >= 0.0 else -1.0
            e = np.zeros(mh)
            e[pos] = sigma
            art_cols.append(e)
            if took_slack:
                art_lo.append(0.0)
                art_hi.append(0.0)
            else:
                basis[pos] = nh + pos
                art_lo.append(0.0)
                art_hi.append(np.inf)
        self.first_art = nh
        if art_cols:
            self.Ahat = np.hstack([self.Ahat, np.column_stack(art_cols)])
        self.chat = np.concatenate([self.chat, np.zeros(mh)])
        self.phase1_cost = np.concatenate([np.zeros(nh), np.ones(mh)])
        self.lohat = np.concatenate([self.lohat, np.array(art_lo)])
        self.hihat = np.concatenate([self.hihat, np.array(art_hi)])
        x = np.concatenate([x, np.zeros(mh)])
        for pos in range(mh):
            bi = basis[pos]
            if bi >= nh:
                x[bi] = resid[pos] / self.Ahat[pos, bi]
        self.x = x
        self.basis = basis
        ncols = self.Ahat.shape[1]
        self.in_basis = np.zeros(ncols, dtype=bool)
        if mh:
            self.in_basis[basis] = True
        self.at_upper = np.zeros(ncols, dtype=bool)
        if mh:
            diag = np.array([self.Ahat[pos, basis[pos]] for pos in range(mh)])
            self.Binv = np.diag(1.0 / diag)
        else:
            self.Binv = np.zeros((0, 0))
        self.since_refactor = 0

    def _refactor(self):
        if self.mhat == 0:
            return
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
        """Iterate until optimal or unbounded under the given cost vector."""
        mh = self.mhat
        range_open = self.hihat - self.lohat > 0.0
        while True:
            if self.iterations > self.pivot_limit:
                raise NumericalBreakdown(
                    f"pivot limit {self.pivot_limit} exceeded after {self.iterations} iterations"
                )
            if self.since_refactor >= _REFACTOR_EVERY:
                self._refactor()
            cB = costs[self.basis] if mh else np.zeros(0)
            y = self.Binv.T @ cB if mh else np.zeros(0)
            r = costs - (self.Ahat.T @ y) if mh else costs.copy()
            eligible = (~self.in_basis) & range_open & (
                ((~self.at_upper) & (r < -_DUAL_TOL)) | (self.at_upper & (r > _DUAL_TOL))
            )
            idx = np.nonzero(eligible)[0]
            if idx.size == 0:
                return "optimal", y, r
            j = int(idx[0])  # Bland: smallest eligible index enters
            sigma = -1.0 if self.at_upper[j] else 1.0
            d = self.Binv @ self.Ahat[:, j] if mh else np.zeros(0)
            rate = -sigma * d  # change of basic values per unit step
            t_best = self.hihat[j] - self.lohat[j]
            leave_pos = -1
            leave_hits_upper = False
            if mh:
                xB = self.x[self.basis]
                loB = self.lohat[self.basis]
                hiB = self.hihat[self.basis]
                down = rate < -_PIV_TOL
                up = rate > _PIV_TOL
                t_rows = np.full(mh, np.inf)
                t_rows[down] = (xB[down] - loB[down]) / (-rate[down])
                t_rows[up] = (hiB[up] - xB[up]) / rate[up]
                t_rows = np.maximum(t_rows, 0.0)
                tmin = float(np.min(t_rows)) if t_rows.size else np.inf
                if tmin < t_best:
                    # Bland: among blocking rows the smallest variable index leaves
                    ties = np.nonzero(t_rows <= tmin)[0]
                    leave_pos = int(ties[np.argmin(self.basis[ties])])
                    t_best = tmin
                    leave_hits_upper = rate[leave_pos] > 0.0
            if not np.isfinite(t_best):
                if not allow_unbounded:
                    raise NumericalBreakdown("phase-one subproblem reported unbounded")
                return "unbounded", j, sigma
            self.iterations += 1
            if leave_pos < 0:
                # bound flip, no basis change
                if mh:
                    self.x[self.basis] += rate * t_best
                self.x[j] = self.hihat[j] if sigma > 0 else self.lohat[j]
                self.at_upper[j] = not self.at_upper[j]
                continue
            start = self.hihat[j] if self.at_upper[j] else self.lohat[j]
            self.x[self.basis] += rate * t_best
            self.x[j] = start + sigma * t_best
            lv = int(self.basis[leave_pos])
            self.x[lv] = self.hihat[lv] if leave_hits_upper else self.lohat[lv]
            self.at_upper[lv] = leave_hits_upper
            self.in_basis[lv] = False
            self.basis[leave_pos] = j
            self.in_basis[j] = True
            piv = d[leave_pos]
            if abs(piv) < _PIV_TOL:
                self._refactor()
                continue
            self.Binv[leave_pos, :] /= piv
            col = d.copy()
            col[leave_pos] = 0.0
            self.Binv -= np.outer(col, self.Binv[leave_pos, :])
            self.since_refactor += 1

    def _drive_out_artificials(self):
        """Swap basic artificials for structural columns where possible."""
        for pos in range(self.mhat):
            bi = int(self.basis[pos])
            if bi < self.first_art:
                continue
            row = self.Binv[pos, :] @ self.Ahat[:, : self.first_art]
            cand = np.nonzero((~self.in_basis[: self.first_art]) & (np.abs(row) > _DRIVE_TOL))[0]
            if cand.size == 0:
                continue  # redundant row; the artificial stays basic at zero
            j = int(cand[0])
            d = self.Binv @ self.Ahat[:, j]
            piv = d[pos]
            if abs(piv) < _DRIVE_TOL:
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

    # ----- lifting back to the original space -------------------------------

    def _lift_dir(self, dhat: np.ndarray) -> np.ndarray:
        d = np.zeros(self.p.nvars)
        for k, (kind, j) in enumerate(self.col_origin):
            if kind == "direct":
                d[j] = dhat[k]
            elif kind == "mirror":
                d[j] = -dhat[k]
            elif kind == "splitp":
                d[j] += dhat[k]
            else:
                d[j] -= dhat[k]
        return d

    def _lift_x(self) -> np.ndarray:
        # _lift_dir lifts a mirrored column w to -w, and x_j = upper_j - w
        x = self._lift_dir(self.x)
        mirror = [j for kind, j in self.col_origin if kind == "mirror"]
        x[mirror] += self.p.upper[mirror]
        for j, v in self.fixed_value.items():
            x[j] = v
        return x

    def _lift_y(self, y_kept: np.ndarray) -> np.ndarray:
        y = np.zeros(self.p.nrows)
        for pos, i in enumerate(self.kept_rows):
            y[i] = y_kept[pos]
        return y

    def _validate_optimal(self, x: np.ndarray, y: np.ndarray, value: float):
        p = self.p
        b_scale = max(1.0, float(np.max(np.abs(p.b))) if p.b.size else 1.0)
        x_scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
        Ax = p.A @ x
        for i, k in enumerate(p.kinds):
            resid = float(Ax[i] - p.b[i])
            ok = (
                abs(resid) <= FEAS_TOL * b_scale
                if k == "eq"
                else resid <= FEAS_TOL * b_scale
                if k == "le"
                else resid >= -FEAS_TOL * b_scale
            )
            if not ok:
                raise NumericalBreakdown(f"primal residual {resid:.2e} on row {i}")
        if np.any(x < p.lower - FEAS_TOL * x_scale) or np.any(x > p.upper + FEAS_TOL * x_scale):
            raise NumericalBreakdown("primal bounds violated")
        # dual checks in the min convention
        y_min = self.sense_sign * y
        c_scale = max(1.0, float(np.max(np.abs(p.c))) if p.c.size else 1.0)
        dual_tol = 1e-7 * c_scale
        for i, k in enumerate(p.kinds):
            if k == "le" and y_min[i] > dual_tol:
                raise NumericalBreakdown(f"dual sign violated on le row {i}")
            if k == "ge" and y_min[i] < -dual_tol:
                raise NumericalBreakdown(f"dual sign violated on ge row {i}")
        r_min = self.sense_sign * p.c - p.A.T @ y_min
        dual_value = float(y_min @ p.b)
        for j in range(p.nvars):
            rj = float(r_min[j])
            at_lo = x[j] <= p.lower[j] + FEAS_TOL * x_scale
            at_hi = x[j] >= p.upper[j] - FEAS_TOL * x_scale
            if abs(rj) <= dual_tol:
                continue
            if rj > 0.0:
                if not np.isfinite(p.lower[j]):
                    raise NumericalBreakdown(f"dual infeasibility at free variable {j}")
                if not at_lo:
                    raise NumericalBreakdown(f"complementary slackness violated at variable {j}")
                dual_value += rj * p.lower[j]
            else:
                if not np.isfinite(p.upper[j]):
                    raise NumericalBreakdown(f"dual infeasibility at variable {j}")
                if not at_hi:
                    raise NumericalBreakdown(f"complementary slackness violated at variable {j}")
                dual_value += rj * p.upper[j]
        value_min = self.sense_sign * value
        if abs(value_min - dual_value) > GAP_TOL * (1.0 + abs(value_min)):
            raise NumericalBreakdown(
                f"duality gap {value_min - dual_value:.3e} exceeds tolerance"
            )

    # ----- main -------------------------------------------------------------

    def run(self) -> LpSolution:
        p = self.p
        self._presolve()
        if self.row_infeasible_cert is not None:
            y = self.row_infeasible_cert
            if not farkas_margin(p, y) < -CERT_TOL:
                raise NumericalBreakdown("empty-row infeasibility certificate failed validation")
            return LpSolution(
                status="infeasible",
                value=np.inf if p.sense == "min" else -np.inf,
                farkas=y,
                iterations=self.iterations,
            )
        self._build()
        self._init_phase1()
        status, y1, _ = self._loop(self.phase1_cost, allow_unbounded=False)
        w = float(self.phase1_cost @ self.x)
        if w > FEAS_TOL * max(1.0, float(np.max(np.abs(self.bhat))) if self.mhat else 1.0):
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
            if self.mhat:
                dhat[self.basis] = -sigma * (self.Binv @ self.Ahat[:, j])
            d = self._lift_dir(dhat)
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
        cB = self.chat[self.basis] if self.mhat else np.zeros(0)
        y2 = self.Binv.T @ cB if self.mhat else np.zeros(0)
        x = self._lift_x()
        y = self._lift_y(y2)
        if p.sense == "max":
            y = -y
        value = float(p.c @ x)
        reduced = p.c - p.A.T @ y
        self._validate_optimal(x, y, value)
        return LpSolution(
            status="optimal",
            value=value,
            x=x,
            y=y,
            reduced=reduced,
            iterations=self.iterations,
        )

    def _certified_farkas(self, y_phase1: np.ndarray) -> np.ndarray:
        y = self._lift_y(-y_phase1)
        scale = float(np.max(np.abs(y))) if y.size else 0.0
        if scale > 0:
            y = y / scale
        if farkas_margin(self.p, y) < -CERT_TOL:
            return y
        # one retry from a fresh factorization
        self._refactor()
        cB = self.phase1_cost[self.basis] if self.mhat else np.zeros(0)
        y1 = self.Binv.T @ cB if self.mhat else np.zeros(0)
        y = self._lift_y(-y1)
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
    """Solve a linear program; see the module docstring for conventions."""
    global _pivot_total
    sol = _Engine(problem, pivot_limit).run()
    _pivot_total += sol.iterations
    return sol


def solve_vertex(problem: LpProblem, pivot_limit: Optional[int] = None) -> LpSolution:
    """Solve and verify the primal is a basic (vertex) solution."""
    sol = solve(problem, pivot_limit=pivot_limit)
    if sol.status == "optimal":
        interior = int(
            np.sum((sol.x > problem.lower + FEAS_TOL) & (sol.x < problem.upper - FEAS_TOL))
        )
        if interior > problem.nrows:
            raise NumericalBreakdown(
                f"vertex solve returned {interior} interior entries for {problem.nrows} rows"
            )
    return sol
