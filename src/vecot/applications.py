"""Duality applications: matrix games, moment feasibility, trigonometric
moments, and discrete convex conjugates.

`lp.solve` checks every LP answer these operations read.  Each operation
also carries its own cross-check of what it derives from that answer:
game values verify the saddle inequalities of the extracted strategies,
moment queries validate whichever of solution or separating certificate
they return, the trigonometric routine compares an eigenvalue verdict with
an independent cone LP, and the infimal convolution verifies the
conjugate-sum identity on the dual grid.  A failed cross-check raises
NumericalBreakdown rather than returning a doubtful answer.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lp import LpProblem, NumericalBreakdown, solve
from .measures import ScalarMeasure
from .tolerances import (
    CERT_FLOOR_TOL, CERT_TOL, FEAS_TOL, GAME_TOL, GRID_STEP_TOL, HERMITIAN_TOL, LIFT_FACTOR, PSD_TOL,
    UNIFORMIZER_TOL,
)

__all__ = [
    "GameResult",
    "GridFunction",
    "MomentProblem",
    "MomentResult",
    "conjugate",
    "game_value",
    "game_value_restricted",
    "inf_convolution",
    "moment_feasible",
    "trig_moment",
]


def _check_payoff(payoff) -> np.ndarray:
    F = np.atleast_2d(np.asarray(payoff, dtype=float))
    if F.ndim != 2 or F.size == 0:
        raise ValueError(f"payoff must be a nonempty matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("payoff entries must be finite")
    return F


@dataclass
class GameResult:
    """Value of a zero-sum matrix game with one optimal mixed strategy per side."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _clean_simplex(w: np.ndarray) -> np.ndarray:
    w = np.maximum(w, 0.0)
    s = w.sum()
    if s <= 0.0:
        raise NumericalBreakdown("extracted strategy has no mass")
    return w / s


def _assert_saddle(F, value, sigma, tau, scale):
    # row strategy guarantees at least the value, column strategy caps it
    lower = float(np.min(sigma @ F))
    upper = float(np.max(F @ tau))
    if lower < value - GAME_TOL * scale or upper > value + GAME_TOL * scale:
        raise NumericalBreakdown(
            f"saddle check failed: guarantee {lower!r}, cap {upper!r}, value {value!r}"
        )


def game_value(payoff) -> GameResult:
    """Value and optimal mixed strategies of the row-maximizing game.

    One LP (row player's guarantee, on the shifted nonnegative payoff)
    provides the value and the row strategy; the column strategy comes
    from the same LP's duals.  The saddle inequalities are re-verified on
    the original payoff within GAME_TOL.
    """
    F = _check_payoff(payoff)
    nx, ny = F.shape
    shift = float(F.min())
    Ft = F - shift
    scale = max(1.0, float(np.abs(F).max()))
    # vars: sigma (nx) then the guarantee level v
    A = np.zeros((ny + 1, nx + 1))
    A[:ny, :nx] = Ft.T
    A[:ny, nx] = -1.0
    A[ny, :nx] = 1.0
    b = np.zeros(ny + 1)
    b[ny] = 1.0
    c = np.zeros(nx + 1)
    c[nx] = 1.0
    lower = np.zeros(nx + 1)
    lower[nx] = -np.inf
    sol = solve(
        LpProblem(c=c, A=A, b=b, kinds=["ge"] * ny + ["eq"], lower=lower, sense="max")
    )
    if sol.status != "optimal":
        raise NumericalBreakdown(f"game LP returned {sol.status}")
    sigma = _clean_simplex(sol.x[:nx])
    tau = _clean_simplex(-sol.y[:ny])
    value = float(sol.value) + shift
    _assert_saddle(F, value, sigma, tau, scale)
    return GameResult(value, sigma, tau)


def game_value_restricted(payoff, reference: ScalarMeasure) -> GameResult:
    """Game value when the column player may mix only over support(reference).

    The game on the support's columns, solved by `game_value`, whose saddle
    check certifies both strategies; the column strategy is 0 off the
    support.
    """
    F = _check_payoff(payoff)
    ny = F.shape[1]
    if reference.space.size != ny:
        raise ValueError(
            f"reference has {reference.space.size} atoms, payoff has {ny} columns"
        )
    support = np.nonzero(reference.weights > 0.0)[0]
    if support.size == 0:
        raise ValueError("reference measure has empty support")
    res = game_value(F[:, support])
    tau = np.zeros(ny)
    tau[support] = res.col_strategy
    return GameResult(res.value, res.row_strategy, tau)


@dataclass
class MomentProblem:
    """Moment functions sampled on atoms, with a target vector.

    functions is a k x n matrix whose row i holds the i-th moment
    function evaluated at the n atoms; target is the required vector of
    integrals.
    """

    functions: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        self.functions = np.atleast_2d(np.asarray(self.functions, dtype=float))
        self.target = np.asarray(self.target, dtype=float).reshape(-1)
        if self.functions.shape[1] == 0:
            raise ValueError("moment functions must have at least one atom (column)")
        if self.functions.shape[0] != self.target.shape[0]:
            raise ValueError(
                f"{self.functions.shape[0]} moment functions but "
                f"{self.target.shape[0]} targets"
            )
        if not (np.all(np.isfinite(self.functions)) and np.all(np.isfinite(self.target))):
            raise ValueError("moment data must be finite")


@dataclass
class MomentResult:
    """Either nonnegative atom weights meeting the targets, or a separating
    direction alpha with alpha.M(x) >= 0 pointwise and alpha.m < 0."""

    feasible: bool
    weights: Optional[np.ndarray] = None
    cert: Optional[np.ndarray] = None


def _uniformizer_row(M: np.ndarray) -> Optional[tuple]:
    # a row bounded away from zero lets certificates be shifted pointwise
    for i in range(M.shape[0]):
        if M[i].min() > UNIFORMIZER_TOL:
            return i, 1.0
        if M[i].max() < -UNIFORMIZER_TOL:
            return i, -1.0
    return None


def moment_feasible(problem: MomentProblem) -> MomentResult:
    """Decide existence of a nonnegative measure with prescribed moments.

    Returns validated weights (residual within FEAS_TOL) or a validated
    certificate: alpha.M(x) >= -CERT_FLOOR_TOL * scale at every atom and
    alpha.target < -CERT_TOL.
    """
    M, m = problem.functions, problem.target
    k, n = M.shape
    sol = solve(LpProblem(c=np.zeros(n), A=M, b=m, kinds=["eq"] * k))
    scale = max(1.0, float(np.abs(M).max()), float(np.abs(m).max()))
    if sol.status == "optimal":
        w = np.maximum(sol.x, 0.0)
        if np.max(np.abs(M @ w - m)) > FEAS_TOL * scale:
            raise NumericalBreakdown("moment weights failed residual validation")
        return MomentResult(True, weights=w)
    if sol.status != "infeasible":
        raise NumericalBreakdown(f"moment LP returned {sol.status}")
    alpha = sol.farkas.copy()
    floor = float((alpha @ M).min())
    if floor < -CERT_FLOOR_TOL * scale:
        fix = _uniformizer_row(M)
        if fix is None:
            raise NumericalBreakdown("certificate floor not repairable")
        i, sign = fix
        lift = -floor / float((sign * M[i]).min()) * LIFT_FACTOR
        alpha[i] += sign * lift
    _moment_cert_margins(M, m, alpha)
    return MomentResult(False, cert=alpha)


def _moment_cert_margins(M: np.ndarray, m: np.ndarray, alpha: np.ndarray) -> tuple:
    """(min over atoms of alpha.M(x), alpha.m), if the floor is at least -CERT_FLOOR_TOL on
    the data's scale and the margin below -CERT_TOL: no measure has moments m."""
    floor, margin = float((alpha @ M).min()), float(alpha @ m)
    scale = max(1.0, float(np.abs(M).max()), float(np.abs(m).max()))
    if floor < -CERT_FLOOR_TOL * scale or not margin < -CERT_TOL:
        raise NumericalBreakdown("moment certificate failed validation")
    return floor, margin


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    n = coeffs.shape[0] - 1
    C = np.empty((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            C[j, k] = coeffs[k - j] if k >= j else np.conj(coeffs[j - k])
    return C


def _circle_cone(c: np.ndarray, grid_size: int) -> LpProblem:
    """`trig_moment`'s LP: c as a nonnegative combination of circle moment vectors."""
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    # column j holds (e^{-ik theta_j})_k, split into real and imaginary rows
    basis = np.exp(-1j * np.outer(np.arange(c.shape[0]), theta))
    A = np.vstack([basis.real, basis.imag])
    b = np.concatenate([c.real, c.imag])
    return LpProblem(c=np.zeros(grid_size), A=A, b=b, kinds=["eq"] * A.shape[0])


def trig_moment(coeffs, grid_size: int) -> dict:
    """Compare the two feasibility characterizations of Fourier data.

    coeffs holds c_0..c_n of a would-be nonnegative measure on the circle.
    Route one checks positive semidefiniteness of the Hermitian Toeplitz
    matrix by eigenvalues; route two asks, via a real-embedded LP, whether
    the coefficient vector is a nonnegative combination of the moment
    vectors of grid_size equispaced circle points.  Far from the PSD
    boundary (|min eig| > 0.01 * norm) the verdicts must agree.
    """
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    n = c.shape[0] - 1
    if n < 0:
        raise ValueError("need at least c_0")
    if abs(c[0].imag) > HERMITIAN_TOL * max(1.0, abs(c[0])):
        raise ValueError("c_0 must be real for a Hermitian moment matrix")
    if grid_size < 4 * (n + 1):
        raise ValueError(f"grid_size must be at least {4 * (n + 1)}, got {grid_size}")
    C = _toeplitz(c)
    eigs = np.linalg.eigvalsh(C)
    norm = float(np.max(np.abs(eigs))) if c.shape[0] else 0.0
    min_eig = float(eigs.min())
    psd = min_eig >= -PSD_TOL * max(1.0, norm)

    sol = solve(_circle_cone(c, grid_size))
    lp_feasible = sol.status == "optimal"
    if not lp_feasible and sol.status != "infeasible":
        raise NumericalBreakdown(f"trig moment LP returned {sol.status}")
    report = {
        "min_eig": min_eig,
        "norm": norm,
        "psd": psd,
        "lp_feasible": lp_feasible,
        "grid_size": grid_size,
        "weights": np.maximum(sol.x, 0.0) if lp_feasible else None,
        "cert": None if lp_feasible else sol.farkas,
        "boundary_band": abs(min_eig) < 0.01 * max(1.0, norm),
    }
    if not report["boundary_band"] and psd != lp_feasible:
        raise NumericalBreakdown(
            f"eigenvalue and cone-LP verdicts disagree away from the boundary: "
            f"min_eig {min_eig!r}, lp {sol.status}"
        )
    return report


@dataclass
class GridFunction:
    """Real function sampled on strictly increasing abscissae."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float).reshape(-1)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have matching length")
        if self.grid.shape[0] == 0:
            raise ValueError("grid must be nonempty")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(self.grid)) and np.all(np.isfinite(self.values))):
            raise ValueError("grid data must be finite")

    def spacing(self) -> Optional[float]:
        """The common step, or None when the grid is not uniform."""
        if self.grid.shape[0] < 2:
            return None
        d = np.diff(self.grid)
        h = float(d[0])
        return h if np.all(np.abs(d - h) <= GRID_STEP_TOL * max(1.0, abs(h))) else None


def conjugate(f: GridFunction, dual_grid=None) -> GridFunction:
    """Discrete Legendre transform: sup over the grid of x*y - f(x).

    The transform is evaluated on dual_grid (default: the function's own
    grid, which suits symmetric ranges), which the result's `GridFunction`
    checks as it checks any grid.  Output convexity is validated through
    second differences.
    """
    ys = f.grid if dual_grid is None else np.asarray(dual_grid, dtype=float).reshape(-1)
    out = GridFunction(ys, (np.outer(ys, f.grid) - f.values[None, :]).max(axis=1))
    scale = max(1.0, float(np.abs(out.values).max()))
    if ys.shape[0] >= 3:
        h1 = np.diff(ys)[:-1]
        h2 = np.diff(ys)[1:]
        v = out.values
        second = v[2:] * h1 + v[:-2] * h2 - v[1:-1] * (h1 + h2)
        if second.min() < -CERT_FLOOR_TOL * scale:
            raise NumericalBreakdown("conjugate lost convexity")
    return out


def inf_convolution(*functions: GridFunction) -> GridFunction:
    """Infimal convolution of grid functions sharing one spacing.

    The result lives on the sum grid.  The conjugate-sum identity
    (exact for grid suprema) is re-verified on the first function's grid
    before returning.
    """
    if len(functions) == 0:
        raise ValueError("need at least one function")
    if len(functions) == 1:
        return functions[0]
    steps = [f.spacing() for f in functions]
    if any(s is None for s in steps):
        raise ValueError("infimal convolution needs uniform grids")
    h = steps[0]
    if any(abs(s - h) > GRID_STEP_TOL * max(1.0, h) for s in steps[1:]):
        raise ValueError(f"grid spacings differ: {steps}")
    out = functions[0]
    for g in functions[1:]:
        na, nb = out.grid.shape[0], g.grid.shape[0]
        lo = out.grid[0] + g.grid[0]
        grid = lo + h * np.arange(na + nb - 1)
        vals = np.full(na + nb - 1, np.inf)
        for i in range(na):
            s = slice(i, i + nb)
            vals[s] = np.minimum(vals[s], out.values[i] + g.values)
        out = GridFunction(grid, vals)
    ys = functions[0].grid
    direct = conjugate(out, dual_grid=ys).values
    summed = sum(conjugate(f, dual_grid=ys).values for f in functions)
    scale = max(1.0, float(np.abs(summed).max()))
    if np.max(np.abs(direct - summed)) > FEAS_TOL * scale:
        raise NumericalBreakdown("conjugate-sum identity failed on the dual grid")
    return out
