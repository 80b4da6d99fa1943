"""Frozen end-to-end checks with closed-form or independently derived answers.

Each item re-runs one headline computation and compares measured numbers to
expected ones.  The items double as a smoke test of the full stack: measures,
the LP engine, vector dominance, chain transport, and the duality extras all
get exercised from their public entry points.
"""

from typing import Optional

import numpy as np

from .chain import ChainProblem, chain_ot, reduced_cost, weighted_reduced_cost
from .generate import gen
from .measures import FiniteSpace, ScalarMeasure, VectorMeasure, grid_space
from .scalar import solve_ot
from .vector import (
    VectorOtProblem,
    blackwell_check,
    dominates,
    extract_map,
    feasible_range,
    solve_vector_ot,
    strong_dominates,
)


def _check(name, measured, expected, tol, op="abs"):
    return {
        "check": name,
        "measured": float(measured),
        "expected": float(expected),
        "tol": float(tol),
        "op": op,
    }


def _coin_measure():
    return VectorMeasure(FiniteSpace(["x0", "x1"]), np.array([[1.0, 0.5], [0.0, 0.5]]))


def _coin_target(a, b):
    return np.array([[a, b], [1.0 - a, 1.0 - b]])


def _linear_density_grid(n):
    sp = grid_space(n)
    xs = sp.coords.ravel()
    vals = np.column_stack([np.ones(n), 2.0 * xs]) / n
    return VectorMeasure(sp, vals, ref_weights=np.full(n, 1.0 / n)), xs


def _item_scalar_dominance_region():
    # which biased coins a fair-or-revealing experiment can imitate:
    # closed form b in [a/2, (a+1)/2] on a 21 x 21 parameter sweep
    mu = _coin_measure()
    mismatches = 0
    for ia in range(21):
        for ib in range(21):
            a, b = ia / 20.0, ib / 20.0
            ok, _ = dominates(mu, _coin_target(a, b))
            inside = a / 2.0 - 1e-12 <= b <= (a + 1.0) / 2.0 + 1e-12
            mismatches += ok != inside
    return [_check("regionMismatches", mismatches, 0, 0.5)]


def _item_vector_feasible_range():
    mu = _coin_measure()
    out = []
    for a in (0.0, 0.3, 0.7, 1.0):
        base = np.array([[a, 0.0], [1.0 - a, 1.0]])
        direction = np.array([[0.0, 1.0], [0.0, -1.0]])
        lo, hi = feasible_range(mu, base, direction)
        out.append(_check(f"lowerEndpoint(a={a})", lo, a / 2.0, 1e-9))
        out.append(_check(f"upperEndpoint(a={a})", hi, (a + 1.0) / 2.0, 1e-9))
    return out


def _item_split_map_family():
    # linear-density source against a two-atom target: the optimal map
    # splits the unit interval at 1/2, up to one straddling grid cell
    checks = []
    n = 60
    mu, _ = _linear_density_grid(n)
    for a in (0.3, 0.5, 0.7):
        base = np.array([[a, 0.0], [1.0 - a, 1.0]])
        direction = np.array([[0.0, 1.0], [0.0, -1.0]])
        lo, hi = feasible_range(mu, base, direction)
        checks.append(_check(f"gridLower(a={a})", lo, a * a, 2.0 / n))
        checks.append(_check(f"gridUpper(a={a})", hi, 2.0 * a - a * a, 2.0 / n))
    n = 40
    mu, xs = _linear_density_grid(n)
    nu = VectorMeasure(FiniteSpace(["y0", "y1"]), np.array([[0.5, 0.25], [0.5, 0.75]]))
    cost = np.column_stack([np.zeros(n), np.sqrt(np.maximum(xs - 0.5, 0.0))])
    prob = VectorOtProblem(mu, nu, cost)
    res = solve_vector_ot(prob)
    left_mass = res.plan.matrix[xs <= 0.5, 0].sum()
    checks.append(_check("splitLeftMass", left_mass, 0.5, 2.0 / n))
    ext = extract_map(prob)
    checks.append(_check("splitRowCount", len(ext.split_rows), 0, 1.0))
    return checks


def _item_strong_domination_witness():
    vals = np.array([[2.0, 1.0], [0.0, 2.0], [2.0, 0.0], [0.0, 1.0]])
    mu = VectorMeasure(FiniteSpace(["a", "b", "c", "d"]), vals)
    plain, _ = dominates(mu, mu)
    ok, wit = strong_dominates(mu, mu)
    witness_match = wit == ([0, 3], [1, 2])
    sub = VectorMeasure(FiniteSpace(["a", "d"]), vals[[0, 3]])
    restricted, _ = dominates(sub, vals[[1, 2]])
    return [
        _check("plainDominates", plain, 1, 0.0),
        _check("strongDominates", ok, 0, 0.0),
        _check("witnessPair", witness_match, 1, 0.0),
        _check("witnessRestrictionFails", restricted, 0, 0.0),
    ]


def _item_moment_square_boundary():
    from .applications import MomentProblem, moment_feasible

    xs = np.linspace(-2.0, 2.0, 512)
    M = np.vstack([np.ones_like(xs), xs, xs**2])
    m2 = 0.3
    below = moment_feasible(MomentProblem(M, [1.0, m2, m2**2 - 1e-3]))
    above = moment_feasible(MomentProblem(M, [1.0, m2, m2**2 + 1e-3]))
    checks = [
        _check("belowCurveInfeasible", below.feasible, 0, 0.0),
        _check("aboveCurveFeasible", above.feasible, 1, 0.0),
    ]
    if below.cert is not None:
        margin = float(below.cert @ np.array([1.0, m2, m2**2 - 1e-3]))
        checks.append(_check("certMargin", margin, -1e-9, 0.0, op="le"))
    if above.weights is not None:
        res = np.abs(M @ above.weights - [1.0, m2, m2**2 + 1e-3]).max()
        checks.append(_check("weightsResidual", res, 0.0, 1e-8))
    return checks


def _item_chain_power_identity():
    # shortcut costs on a 12-fold refined line reproduce the hop scaling
    # hops^(1-p) exactly at the coarse points
    refine, coarse = 12, 8
    fine = (coarse - 1) * refine + 1
    xs = np.linspace(0.0, 1.0, fine)
    sub = np.arange(coarse) * refine
    checks = []
    for p in (1, 2):
        c_fine = np.abs(xs[:, None] - xs[None, :]) ** p
        c_coarse = c_fine[np.ix_(sub, sub)]
        for hops in (1, 2, 3):
            r = reduced_cost(c_fine, hops - 1)[np.ix_(sub, sub)]
            dev = np.max(np.abs(r - hops ** (1 - p) * c_coarse)) / c_coarse.max()
            checks.append(_check(f"hopScaling(p={p},hops={hops})", dev, 0.0, 1e-12))
    return checks


def _item_chain_medium_duality():
    d = gen("chain", 11).data
    problem = ChainProblem(
        d["space"], d["cost"], d["mu"], d["nu"], d["medium"], d["hops"]
    )
    res = chain_ot(problem)
    n = problem.hops
    inner = solve_ot(
        problem.mu, problem.nu, weighted_reduced_cost(problem.cost, res.medium_potential, n)
    ).value
    recombined = inner + n * float(res.medium_potential @ problem.medium.weights)
    rel = abs(res.value - recombined) / (1.0 + abs(res.value))
    return [_check("mediumDualityGap", rel, 0.0, 1e-6)]


def _item_blackwell_pairs():
    mu = _coin_measure()
    good = VectorMeasure(FiniteSpace(["y0", "y1"]), np.array([[0.3, 0.3], [0.7, 0.7]]))
    rep = blackwell_check(mu, good, g_samples=64, seed=3)
    checks = [
        _check("planRouteFeasible", rep["plan_feasible"], 1, 0.0),
        _check("kernelRouteFeasible", rep["kernel_feasible"], 1, 0.0),
        _check(
            "reversedKernelResidual", rep["reversed_kernel"]["marginal_residual"],
            0.0, 1e-8,
        ),
        _check("jensenMinGap", rep["jensen"]["min_gap"], -1e-8, 0.0, op="ge"),
    ]
    bad = VectorMeasure(FiniteSpace(["y0", "y1"]), np.array([[0.0, 0.9], [1.0, 0.1]]))
    rep = blackwell_check(mu, bad, g_samples=256, seed=3)
    checks.append(_check("failingPairRejected", rep["dominates"], 0, 0.0))
    slopes, offsets = rep["jensen"]["witness"]
    g_mu = np.max(mu.density @ slopes.T + offsets, axis=1)
    g_nu = np.max(bad.density @ slopes.T + offsets, axis=1)
    gap = float(g_mu @ mu.ref_weights - g_nu @ bad.ref_weights)
    checks.append(_check("witnessGap", gap, -1e-8, 0.0, op="le"))
    return checks


ITEMS = (
    ("scalar-dominance-region", _item_scalar_dominance_region),
    ("vector-feasible-range", _item_vector_feasible_range),
    ("split-map-family", _item_split_map_family),
    ("strong-domination-witness", _item_strong_domination_witness),
    ("moment-square-boundary", _item_moment_square_boundary),
    ("chain-power-identity", _item_chain_power_identity),
    ("chain-medium-duality", _item_chain_medium_duality),
    ("blackwell-pairs", _item_blackwell_pairs),
)


def _passes(check, tol_override: Optional[float]) -> bool:
    tol = check["tol"] if tol_override is None else tol_override
    m, e = check["measured"], check["expected"]
    if check["op"] == "le":
        return m <= e + tol
    if check["op"] == "ge":
        return m >= e - tol
    return abs(m - e) <= tol


def run_suite(only=None, tol_override=None) -> dict:
    """Run the golden items, optionally filtered by a name substring."""
    selected = [it for it in ITEMS if only is None or only in it[0]]
    if not selected:
        raise ValueError(f"no golden item matches {only!r}")

    def run_item(item):
        name, fn = item
        try:
            checks = fn()
        except Exception as exc:
            return {"name": name, "ok": False, "error": repr(exc), "checks": []}
        for c in checks:
            c["ok"] = _passes(c, tol_override)
        return {"name": name, "ok": all(c["ok"] for c in checks), "checks": checks}

    results = [run_item(it) for it in selected]
    return {"items": results, "ok": all(r["ok"] for r in results)}
