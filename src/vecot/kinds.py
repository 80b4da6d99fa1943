"""One record per problem kind: how it is read, drawn, solved and checked.

Each kind's code sits here in one place, and `TABLE` holds its `Kind`:
`decode(payload, path)` turns a payload into typed data through the
`serialize` readers; `generate(rng, **size)` draws a payload from a
`generate.SplitMix64`; a kind that a command solves names that `command`
(and `solve-ot`'s `variant`), its `solve(args, data)`, which returns the
result before its diagnostics, and its `check(data, result)`.

A check reads a result in memory or re-parsed from its own text.  For a
solution it returns the residuals, which `cli._run` stores and compares
with the re-parsed copy's.  For a certificate it applies the one rule that
already defines it, with the problem data: an LP's Farkas vector, joined
back in its LP's row order, goes to `lp.farkas_margin` on the `LpProblem`
that its solver's builder states (the check `lp.gate` applied); capacity's
potentials to `scalar._kellerer_slack`; vector potentials to
`vector._certified_total`; a moment direction to
`applications._moment_cert_margins`.  A stated margin must match what the
rule recomputes.  A miss raises NumericalBreakdown, which `cli._run`
reports as a certificate that fails revalidation from its text; a
certificate that holds returns {}, adding no output field.  A check
returns None when there is nothing to re-derive (a feasible trig
verdict, the witnesses of `dominate --n`, `--strong` and `--blackwell`),
and the text is not re-parsed.

`KINDS` and `cli.VARIANT_KIND` are read off `TABLE`; `vector`,
`chain` and `applications` are imported only when a command calls them.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lp import NumericalBreakdown, farkas_margin
from .measures import ScalarMeasure, TransportPlan
from .scalar import (
    _glue_lp, _kellerer_slack, _multimarginal_lp, _strassen_lp, _transport_lp, glue_feasible,
    local_constraint_feasible, solve_capacity, solve_invariant, solve_multimarginal, solve_ot,
    solve_partial, strassen_feasible,
)
from .serialize import (
    SchemaError, _float_list, _integer, _matrix, _nonneg_matrix, _number, _require, _tensor,
    _weights, plan_from_json, scalar_measure_from_json, space_from_json, vector_measure_from_json,
)
from .tolerances import CERT_TOL, REVALIDATE_TOL


@dataclass(frozen=True)
class Kind:
    """One problem kind; see the module docstring for each field."""

    decode: Callable
    generate: Callable
    command: Optional[str] = None
    variant: Optional[str] = None
    solve: Optional[Callable] = None
    check: Optional[Callable] = None


def _space(prefix: str, n: int) -> dict:
    return {"labels": [f"{prefix}{i}" for i in range(n)]}


def _scalar(prefix: str, weights: list) -> dict:
    return {"space": _space(prefix, len(weights)), "weights": weights}


def _plan_marginals(plan) -> dict:
    return {"mu": _scalar("x", [sum(row) for row in plan]),
            "nu": _scalar("y", [sum(col) for col in zip(*plan)])}


def _vector_measure(prefix, values):
    return {"space": _space(prefix, len(values)), "values": values}


def _kernel_push(rng, values, ny):
    # rows of a random Markov kernel applied to the value array
    nx = len(values)
    d = len(values[0])
    rows = []
    for _ in range(nx):
        r = rng.floats(ny, 0.05, 1.0)
        s = sum(r)
        rows.append([v / s for v in r])
    out = [[0.0] * d for _ in range(ny)]
    for i in range(nx):
        for j in range(ny):
            for a in range(d):
                out[j][a] += rows[i][j] * values[i][a]
    return out


def _decode_two_marginals(payload, path):
    mu = scalar_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = scalar_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    cost = _matrix(_require(payload, "cost", path), f"{path}.cost", mu.space.size, nu.space.size)
    return {"mu": mu, "nu": nu, "cost": cost}


def _optimal(value, dual_value, **fields) -> dict:
    return {
        "status": "optimal",
        "value": float(value),
        "primalValue": float(value),
        "dualValue": float(dual_value),
        "gap": abs(float(value) - float(dual_value)),
        **fields,
    }


def _no_gap(args) -> None:
    # the feasibility variants report no duality gap for --tol to bound
    if args.tol is not None:
        raise SchemaError("--tol", f"the {args.variant} variant has no duality gap to bound")


def _marginals(data, q) -> dict:
    return {
        "sourceMarginal": float(np.abs(q.sum(axis=1) - data["mu"].weights).max()),
        "targetMarginal": float(np.abs(q.sum(axis=0) - data["nu"].weights).max()),
    }


def _array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


# Certificate checks: each holds a certificate to its one rule (see the
# module docstring) and compares the margin it states.


def _matches(name: str, value: float, stated) -> dict:
    if not abs(value - stated) <= REVALIDATE_TOL * max(1.0, abs(stated)):
        raise NumericalBreakdown(f"{name} {value!r} vs stated {stated!r}")
    return {}


def _proves(name: str, margin: float, stated=None) -> dict:
    """{} if the margin is below -CERT_TOL and matches the stated one, if any."""
    if not margin < -CERT_TOL:
        raise NumericalBreakdown(f"{name} {margin!r} is not below {-CERT_TOL!r}")
    return {} if stated is None else _matches(name, margin, stated)


def _farkas_holds(problem, parts, stated=None) -> dict:
    """The parts, joined in the LP's row order, as a Farkas vector of `problem`."""
    margin = farkas_margin(problem, np.concatenate([np.ravel(p) for p in parts]))
    return _proves("margin", margin, stated)


def _vector_cert_holds(cert, eta, mu_values, nu_values) -> dict:
    from .vector import _certified_total

    total = _certified_total(_array(cert["psi"]), _array(cert["phi"]), eta, mu_values, nu_values)
    return _matches("total", total, cert["total"])


# --- scalar_ot ----------------------------------------------------------------
def _gen_scalar_ot(rng, nx=6, ny=6):
    mu, nu = rng.floats(nx, 0.2, 1.0), rng.floats(ny, 0.2, 1.0)
    scale = sum(mu) / sum(nu)
    nu = [w * scale for w in nu]
    return {"mu": _scalar("x", mu), "nu": _scalar("y", nu), "cost": rng.matrix(nx, ny)}


def _solve_plain(args, data):
    res = solve_ot(data["mu"], data["nu"], data["cost"])
    return _optimal(
        res.value, res.psi @ data["mu"].weights + res.phi @ data["nu"].weights,
        psi=res.psi, phi=res.phi, plan=res.plan.matrix,
    )


def _check_plain(data, r):
    if r["status"] == "infeasible":
        cert = r["cert"]
        lp = _transport_lp(data["mu"], data["nu"], data["cost"])
        return _farkas_holds(lp, [cert["psi"], cert["phi"]], cert["margin"])
    return _marginals(data, _array(r["plan"]))


# --- partial ------------------------------------------------------------------
def _decode_partial(payload, path):
    out = _decode_two_marginals(payload, path)
    out["mass"] = _number(_require(payload, "mass", path), f"{path}.mass")
    return out


def _gen_partial(rng, nx=6, ny=6):
    mu = rng.floats(nx, 0.2, 1.0)
    nu = rng.floats(ny, 0.2, 1.0)
    mass = rng.uniform(0.2, 0.8) * min(sum(mu), sum(nu))
    return {"mu": _scalar("x", mu), "nu": _scalar("y", nu), "cost": rng.matrix(nx, ny),
            "mass": mass}


def _solve_partial(args, data):
    mu_w, nu_w, mass = data["mu"].weights, data["nu"].weights, data["mass"]
    res = solve_partial(data["mu"], data["nu"], data["cost"], mass)
    lam = res.extras["lam"]
    return _optimal(
        res.value, res.psi @ mu_w + res.phi @ nu_w + lam * mass,
        psi=res.psi, phi=res.phi, lam=lam, plan=res.plan.matrix,
    )


def _check_partial(data, r):
    q = _array(r["plan"])
    return {
        "rowExcess": float(np.maximum(q.sum(axis=1) - data["mu"].weights, 0.0).max()),
        "colExcess": float(np.maximum(q.sum(axis=0) - data["nu"].weights, 0.0).max()),
        "massResidual": float(abs(q.sum() - data["mass"])),
    }


# --- capacity -----------------------------------------------------------------
def _decode_capacity(payload, path):
    out = _decode_two_marginals(payload, path)
    cap = _nonneg_matrix(
        _require(payload, "cap", path), f"{path}.cap",
        out["mu"].space.size, out["nu"].space.size,
    )
    out["cap"] = TransportPlan(out["mu"].space, out["nu"].space, cap)
    return out


def _gen_capacity(rng, nx=4, ny=4):
    # plan drawn first, capacity above it: a feasible instance by design
    plan = rng.matrix(nx, ny, 0.1, 1.0)
    cap = [[v * rng.uniform(1.1, 2.0) for v in row] for row in plan]
    return {**_plan_marginals(plan), "cost": rng.matrix(nx, ny), "cap": cap}


def _solve_capacity(args, data):
    mu_w, nu_w, cap_m = data["mu"].weights, data["nu"].weights, data["cap"].matrix
    res = solve_capacity(data["mu"], data["nu"], data["cost"], data["cap"])
    xi = res.extras["xi"]
    return _optimal(
        res.value, res.psi @ mu_w + res.phi @ nu_w + (xi * cap_m).sum(),
        psi=res.psi, phi=res.phi, xi=xi, plan=res.plan.matrix,
    )


def _check_capacity(data, r):
    cap = data["cap"].matrix
    if r["status"] == "infeasible":
        cert = r["cert"]
        psi, phi = _array(cert["psi"]), _array(cert["phi"])
        slack = _kellerer_slack(psi, phi, data["mu"], data["nu"], data["cap"])
        return _proves("kellerer_slack", slack, cert["kellerer_slack"])
    q = _array(r["plan"])
    return {**_marginals(data, q), "capExcess": float(np.maximum(q - cap, 0.0).max())}


# --- invariant ----------------------------------------------------------------
def _decode_invariant(payload, path):
    mu = scalar_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    target = space_from_json(_require(payload, "target", path), f"{path}.target")
    cost = _matrix(_require(payload, "cost", path), f"{path}.cost", mu.space.size, target.size)
    raw = _require(payload, "mapping", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.mapping", "expected an array")
    mapping = [_integer(v, f"{path}.mapping[{i}]") for i, v in enumerate(raw)]
    return {"mu": mu, "mapping": mapping, "cost": cost, "target": target}


def _gen_invariant(rng, nx=4, ny=4):
    return {"mu": _scalar("x", rng.floats(nx, 0.2, 1.0)), "target": _space("y", ny),
            "cost": rng.matrix(nx, ny), "mapping": rng.permutation(ny)}


def _solve_invariant(args, data):
    res = solve_invariant(data["mu"], data["mapping"], data["cost"], data["target"])
    return _optimal(
        res.value, res.psi @ data["mu"].weights,
        psi=res.psi, phi=res.phi, plan=res.plan.matrix,
        inducedMarginal=res.extras["nu"].weights,
    )


def _check_invariant(data, r):
    q = _array(r["plan"])
    marg = q.sum(axis=0)
    mapping = np.asarray(data["mapping"], dtype=int)
    pushed = np.bincount(mapping, weights=marg, minlength=data["target"].size)
    return {
        "sourceMarginal": float(np.abs(q.sum(axis=1) - data["mu"].weights).max()),
        "invarianceResidual": float(np.abs(pushed - marg).max()),
    }


# --- multi --------------------------------------------------------------------
def _decode_multi(payload, path):
    raw = _require(payload, "measures", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.measures", "expected an array")
    measures = [
        scalar_measure_from_json(m, f"{path}.measures[{i}]") for i, m in enumerate(raw)
    ]
    sizes = tuple(m.space.size for m in measures)
    cost = _tensor(_require(payload, "cost", path), f"{path}.cost", sizes)
    return {"measures": measures, "cost": cost}


def _gen_multi(rng, sizes=(3, 3, 3)):
    total = None
    measures = []
    for i, n in enumerate(sizes):
        w = rng.floats(n, 0.2, 1.0)
        if total is None:
            total = sum(w)
        else:
            s = total / sum(w)
            w = [v * s for v in w]
        measures.append(_scalar(f"m{i}_", w))

    def tensor(dims):
        if len(dims) == 1:
            return rng.floats(dims[0])
        return [tensor(dims[1:]) for _ in range(dims[0])]

    return {"measures": measures, "cost": tensor(sizes)}


def _solve_multi(args, data):
    measures = data["measures"]
    res = solve_multimarginal(measures, data["cost"])
    psis = res.extras["psis"]
    return _optimal(
        res.value, sum(p @ m.weights for p, m in zip(psis, measures)),
        potentials=psis, tensor=res.extras["tensor"].ravel(),
        shape=[m.space.size for m in measures],
    )


def _check_multi(data, r):
    measures = data["measures"]
    sizes = tuple(m.space.size for m in measures)
    if r["status"] == "infeasible":
        lp = _multimarginal_lp(measures, data["cost"])
        return _farkas_holds(lp, r["cert"]["psis"], r["cert"]["margin"])
    t = _array(r["tensor"]).reshape(sizes)
    out = {}
    for axis, m in enumerate(measures):
        marg = t.sum(axis=tuple(a for a in range(len(sizes)) if a != axis))
        out[f"marginal{axis}"] = float(np.abs(marg - m.weights).max())
    return out


# --- glue ---------------------------------------------------------------------
def _decode_glue(payload, path):
    pi1 = plan_from_json(_require(payload, "first", path), f"{path}.first")
    pi2 = plan_from_json(_require(payload, "second", path), f"{path}.second")
    out = {"first": pi1, "second": pi2, "third": None}
    if payload.get("third") is not None:
        out["third"] = plan_from_json(payload["third"], f"{path}.third")
    return out


def _gen_glue(rng, nx=3, ny=3, nz=3):
    # second plan's rows are built on the first plan's middle marginal
    first = rng.matrix(nx, ny, 0.1, 1.0)
    ymarg = [sum(col) for col in zip(*first)]
    second = []
    for y in range(ny):
        row = rng.floats(nz, 0.1, 1.0)
        s = ymarg[y] / sum(row)
        second.append([v * s for v in row])
    return {
        "first": {"source": _space("x", nx), "target": _space("y", ny), "matrix": first},
        "second": {"source": _space("y", ny), "target": _space("z", nz), "matrix": second},
    }


def _solve_glue(args, data):
    _no_gap(args)
    res = glue_feasible(data["first"], data["second"], data["third"])
    if not res.feasible:
        return {"status": "infeasible", "cert": res.cert}
    return {"status": "feasible", "tensor": res.tensor.ravel(), "shape": list(res.tensor.shape)}


def _check_glue(data, r):
    first, second = data["first"].matrix, data["second"].matrix
    third = data["third"].matrix if data["third"] is not None else None
    if r["status"] == "infeasible":
        cert = r["cert"]
        lp = _glue_lp(data["first"], data["second"], data["third"])
        return _farkas_holds(lp, [cert[key] for key in ("psi", "phi", "xi") if key in cert],
                             cert["margin"])
    t = _array(r["tensor"]).reshape(*first.shape, second.shape[1])
    out = {
        "firstPair": float(np.abs(t.sum(axis=2) - first).max()),
        "secondPair": float(np.abs(t.sum(axis=0) - second).max()),
    }
    if third is not None:
        out["thirdPair"] = float(np.abs(t.sum(axis=1) - third).max())
    return out


# --- local --------------------------------------------------------------------
def _decode_local(payload, path):
    out = _decode_two_marginals(payload, path)
    out["threshold"] = _number(_require(payload, "threshold", path), f"{path}.threshold")
    return out


def _gen_local(rng, nx=5, ny=5):
    # support plan first; cheap on-support costs, dear off-support ones
    plan = [[0.0] * ny for _ in range(nx)]
    for i in range(nx):
        j = rng.integer(0, ny)
        plan[i][j] = rng.uniform(0.2, 1.0)
    for j in range(ny):
        plan[rng.integer(0, nx)][j] += rng.uniform(0.2, 1.0)
    cost = [[rng.uniform(0.0, 0.4) if plan[i][j] > 0 else rng.uniform(0.6, 1.0) for j in range(ny)]
            for i in range(nx)]
    return {**_plan_marginals(plan), "cost": cost, "threshold": 0.5}


def _solve_local(args, data):
    _no_gap(args)
    res = local_constraint_feasible(data["mu"], data["nu"], data["cost"], data["threshold"])
    if not res.feasible:
        return {"status": "infeasible", "cert": res.cert}
    return {"status": "feasible", "plan": res.plan.matrix}


def _check_local(data, r):
    off = data["cost"] > data["threshold"]
    if r["status"] == "infeasible":
        cert = r["cert"]
        lp = _transport_lp(data["mu"], data["nu"], data["cost"], data["threshold"])
        return _farkas_holds(lp, [cert["psi"], cert["phi"]], cert["margin"])
    q = _array(r["plan"])
    return {**_marginals(data, q), "offSupportMass": float(q[off].sum()) if np.any(off) else 0.0}


# --- strassen -----------------------------------------------------------------
def _decode_strassen(payload, path):
    mu = scalar_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = scalar_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    raw = _require(payload, "constraints", path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.constraints", "expected an array")
    cons = []
    for i, c in enumerate(raw):
        cp = f"{path}.constraints[{i}]"
        G = _matrix(_require(c, "G", cp), f"{cp}.G", mu.space.size, nu.space.size)
        kind = _require(c, "kind", cp)  # `strassen_feasible` owns the rule: le, ge or eq
        rhs = _number(_require(c, "rhs", cp), f"{cp}.rhs")
        cons.append((G, kind, rhs))
    return {"mu": mu, "nu": nu, "constraints": cons}


def _gen_strassen(rng, nx=4, ny=4):
    plan = rng.matrix(nx, ny, 0.1, 1.0)
    G = rng.matrix(nx, ny, -1.0, 1.0)
    attained = sum(G[i][j] * plan[i][j] for i in range(nx) for j in range(ny))
    rhs = attained + rng.uniform(0.1, 0.5)
    return {**_plan_marginals(plan), "constraints": [{"G": G, "kind": "le", "rhs": rhs}]}


def _solve_strassen(args, data):
    _no_gap(args)
    res = strassen_feasible(data["mu"], data["nu"], data["constraints"])
    if not res.feasible:
        return {"status": "infeasible", "cert": res.cert}
    return {"status": "feasible", "plan": res.plan.matrix}


def _check_strassen(data, r):
    cons = data["constraints"]
    if r["status"] == "infeasible":
        # the Farkas vector is (-psi, -phi, multipliers); its margin is sup_bound - lhs
        cert = r["cert"]
        lp = _strassen_lp(data["mu"], data["nu"], cons)
        parts = [-_array(cert["psi"]), -_array(cert["phi"]), cert["multipliers"]]
        return _farkas_holds(lp, parts, cert["sup_bound"] - cert["lhs"])
    q = _array(r["plan"])
    worst = 0.0
    for G, kind, rhs in cons:
        attained = float((G * q).sum())
        if kind == "le":
            worst = max(worst, attained - rhs)
        elif kind == "ge":
            worst = max(worst, rhs - attained)
        else:
            worst = max(worst, abs(attained - rhs))
    return {**_marginals(data, q), "constraintViolation": max(worst, 0.0)}


# --- vector_ot ----------------------------------------------------------------
def _decode_vector_ot(payload, path):
    out = _decode_dominance(payload, path)
    mu = out["mu"]
    out["cost"] = _matrix(
        _require(payload, "cost", path), f"{path}.cost", mu.space.size, out["nu"].space.size
    )
    out["eta"] = None
    if payload.get("eta") is not None:
        out["eta"] = _matrix(payload["eta"], f"{path}.eta", mu.space.size, mu.dim)
    return out


def _gen_vector_ot(rng, nx=5, ny=3, d=2):
    # a dominance pair, then its cost
    return {**_gen_dominance(rng, nx, ny, d), "cost": rng.matrix(nx, ny)}


def _solve_vot(args, data):
    from .vector import VectorOtProblem, solve_vector_ot

    res = solve_vector_ot(VectorOtProblem(data["mu"], data["nu"], data["cost"], data["eta"]))
    t = res.extras["t"]
    return _optimal(
        res.value, res.extras["Psi"] @ t + (res.phi * data["nu"].values).sum(),
        plan=res.plan.matrix, rowSums=t,
        psi=res.psi, phi=res.phi, scalarPotential=res.extras["Psi"],
    )


def _check_vot(data, r):
    eta = data["mu"].density if data["eta"] is None else data["eta"]
    nu_vals = data["nu"].values
    if r["status"] == "infeasible":
        return _vector_cert_holds(r["cert"], eta, data["mu"].values, nu_vals)
    q = _array(r["plan"])
    return {
        "rowSumResidual": float(np.abs(q.sum(axis=1) - _array(r["rowSums"])).max()),
        "targetResidual": float(np.abs(q.T @ eta - nu_vals).max()),
    }


# --- dominance ----------------------------------------------------------------
def _decode_dominance(payload, path):
    mu = vector_measure_from_json(_require(payload, "mu", path), f"{path}.mu")
    nu = vector_measure_from_json(_require(payload, "nu", path), f"{path}.nu")
    return {"mu": mu, "nu": nu}


def _gen_dominance(rng, nx=4, ny=3, d=2):
    values = rng.matrix(nx, d, 0.1, 1.0)
    target = _kernel_push(rng, values, ny)
    return {"mu": _vector_measure("x", values), "nu": _vector_measure("y", target)}


def _solve_dominate(args, data):
    from .vector import blackwell_check, dominates, dominates_n, strong_dominates

    if not args.blackwell and (args.samples is not None or args.seed is not None):
        raise SchemaError("dominate", "--samples and --seed apply only with --blackwell")
    mu, nu = data["mu"], data["nu"]
    if args.blackwell:
        samples = 64 if args.samples is None else args.samples
        rep = blackwell_check(mu, nu, g_samples=samples, seed=args.seed or 0)
        ok = bool(rep["dominates"])
        cert = rep.pop("cert")
        if cert is not None:
            if cert.kind == "kernel":
                rep["cert"] = {"kind": "kernel", "rows": cert.payload.rows}
            else:
                rep["cert"] = {"kind": cert.kind, "payload": cert.payload}
        result = {"report": rep}
    elif args.strong:
        ok, witness = strong_dominates(mu, nu)
        result = {"strong": ok}
        if witness is not None:
            result["witness"] = {"sourceAtoms": list(witness[0]), "targetAtoms": list(witness[1])}
        elif not ok:  # unequal totals: no kernel joins the whole pair, and its LP proves it
            joined, cert = dominates(mu, nu)
            if joined:
                raise NumericalBreakdown("the component totals differ, yet a kernel joins the pair")
            result["cert"] = cert.payload
    elif args.n is not None:
        ok, witness = dominates_n(mu, nu, args.n)
        result = {"blocks": args.n}
        if witness is not None:
            result["witness"] = {"partition": [list(b) for b in witness]}
    else:
        ok, cert = dominates(mu, nu)
        result = {"kernel": cert.payload.rows} if ok else {"cert": cert.payload}
    result["status"] = "feasible" if ok else "infeasible"
    result["dominates"] = bool(ok)
    return result


def _check_dominate(data, r):
    mu, nu = data["mu"], data["nu"]
    if "kernel" in r:
        rows = _array(r["kernel"])
        return {"pushforwardResidual": float(np.abs(rows.T @ mu.values - nu.values).max())}
    if "cert" in r:
        return _vector_cert_holds(r["cert"], mu.density, mu.values, nu.values)
    return None  # the witnesses of --n, --strong and --blackwell


# --- martingale ---------------------------------------------------------------
def _decode_martingale(payload, path):
    mu_ref = scalar_measure_from_json(_require(payload, "muRef", path), f"{path}.muRef")
    nu_ref = scalar_measure_from_json(_require(payload, "nuRef", path), f"{path}.nuRef")
    f = _matrix(_require(payload, "f", path), f"{path}.f", rows=mu_ref.space.size)
    g = _matrix(_require(payload, "g", path), f"{path}.g", nu_ref.space.size, f.shape[1])
    cost = _matrix(
        _require(payload, "cost", path), f"{path}.cost", mu_ref.space.size, nu_ref.space.size
    )
    return {"muRef": mu_ref, "nuRef": nu_ref, "f": f, "g": g, "cost": cost}


def _gen_martingale(rng, nx=5, ny=4, d=1):
    # barycenter targets computed from a drawn plan, so rows already match
    plan = rng.matrix(nx, ny, 0.1, 1.0)
    f = rng.matrix(nx, d, -1.0, 1.0)
    colsums = [sum(col) for col in zip(*plan)]
    g = [[sum(plan[i][j] * f[i][a] for i in range(nx)) / colsums[j] for a in range(d)]
         for j in range(ny)]
    return {"muRef": _scalar("x", [sum(row) for row in plan]), "nuRef": _scalar("y", colsums),
            "f": f, "g": g, "cost": rng.matrix(nx, ny)}


# --- chain --------------------------------------------------------------------
def _decode_chain(payload, path):
    space = space_from_json(_require(payload, "space", path), f"{path}.space")
    k = space.size
    cost = _matrix(_require(payload, "cost", path), f"{path}.cost", k, k)
    out = {"space": space, "cost": cost}
    for key in ("mu", "nu", "medium"):
        w = _weights(_require(payload, key, path), f"{path}.{key}", k)
        out[key] = ScalarMeasure(space, w)
    # `chain.ChainProblem` owns the range rule: at least 0 hops
    out["hops"] = _integer(_require(payload, "hops", path), f"{path}.hops")
    return out


def _gen_chain(rng, k=5, hops=2):
    mu = rng.floats(k, 0.2, 1.0)
    nu = rng.floats(k, 0.2, 1.0)
    med = rng.floats(k, 0.2, 1.0)
    total = sum(mu)
    nu = [w * total / sum(nu) for w in nu]
    med = [w * total / sum(med) for w in med]
    return {"space": _space("s", k), "cost": rng.matrix(k, k), "mu": mu, "nu": nu, "medium": med,
            "hops": hops}


def _solve_chain(args, data):
    from .chain import ChainProblem, chain_ot

    hops, medium = data["hops"], None if args.free_medium else data["medium"]
    res = chain_ot(ChainProblem(data["space"], data["cost"], data["mu"], data["nu"], medium, hops))
    out = {"status": "optimal", "value": res.value, "hops": hops,
           "plans": [p.matrix for p in res.plans], "stages": res.stages}
    if args.free_medium:
        out["freeMedium"] = True
    else:
        out["f"] = res.medium_potential
    return out


def _check_chain(data, r):
    hops = data["hops"]
    if r["status"] == "infeasible":
        from .chain import ChainProblem, _chain_lp

        cert = r["cert"]  # a medium part iff the medium was pinned
        medium = data["medium"] if "medium" in cert else None
        lp = _chain_lp(ChainProblem(data["space"], data["cost"], data["mu"], data["nu"], medium, hops))
        parts = [cert[key] for key in ("source", "linking", "medium", "target") if key in cert]
        return _farkas_holds(lp, parts, cert["margin"])
    plans = [_array(p) for p in r["plans"]]
    link = 0.0
    for a, b in zip(plans, plans[1:]):
        link = max(link, float(np.abs(a.sum(axis=0) - b.sum(axis=1)).max()))
    out = {
        "sourceMarginal": float(np.abs(plans[0].sum(axis=1) - data["mu"].weights).max()),
        "targetMarginal": float(np.abs(plans[-1].sum(axis=0) - data["nu"].weights).max()),
        "linking": link,
    }
    if not r.get("freeMedium"):  # chain_ot takes at least one hop, so plans[1:] is not empty
        medium = np.sum([p.sum(axis=1) for p in plans[1:]], axis=0)
        out["mediumResidual"] = float(np.abs(medium - hops * data["medium"].weights).max())
    return out


# --- game ---------------------------------------------------------------------
def _decode_game(payload, path):
    payoff = _matrix(_require(payload, "payoff", path), f"{path}.payoff")
    out = {"payoff": payoff, "restrict": None}
    if payload.get("restrict") is not None:
        out["restrict"] = scalar_measure_from_json(payload["restrict"], f"{path}.restrict")
    return out


def _gen_game(rng, nx=5, ny=5):
    return {"payoff": rng.matrix(nx, ny, -1.0, 1.0)}


def _solve_game(args, data):
    from .applications import game_value, game_value_restricted

    payoff, reference = data["payoff"], data["restrict"]
    res = game_value(payoff) if reference is None else game_value_restricted(payoff, reference)
    return _optimal(res.value, res.value,
                    rowStrategy=res.row_strategy, colStrategy=res.col_strategy)


def _check_game(data, r):
    payoff, reference = data["payoff"], data["restrict"]
    s, t, v = _array(r["rowStrategy"]), _array(r["colStrategy"]), r["value"]
    row = s @ payoff if reference is None else (s @ payoff)[reference.weights > 0]
    return {
        "rowShortfall": max(0.0, v - float(np.min(row))),
        "colOverrun": max(0.0, float(np.max(payoff @ t)) - v),
    }


# --- moment -------------------------------------------------------------------
def _decode_moment(payload, path):
    M = _matrix(_require(payload, "functions", path), f"{path}.functions")
    m = _float_list(_require(payload, "target", path), f"{path}.target", M.shape[0])
    return {"functions": M, "target": m}


def _gen_moment(rng, k=3, n=64):
    # mass, mean, raw second moment on a uniform grid of [-2, 2]
    xs = [-2.0 + 4.0 * i / (n - 1) for i in range(n)]
    M = [[x ** p for x in xs] for p in range(k)]
    w = [0.0] * n
    for _ in range(5):
        w[rng.integer(0, n)] += rng.uniform(0.1, 1.0)
    target = [sum(M[p][i] * w[i] for i in range(n)) for p in range(k)]
    return {"functions": M, "target": target}


def _solve_moment(args, data):
    from .applications import MomentProblem, _moment_cert_margins, moment_feasible

    M, m = data["functions"], data["target"]
    res = moment_feasible(MomentProblem(M, m))
    if res.feasible:
        return {"status": "feasible", "weights": res.weights}
    floor, margin = _moment_cert_margins(M, m, res.cert)
    return {"status": "infeasible", "cert": res.cert, "certFloor": floor, "certMargin": margin}


def _check_moment(data, r):
    M, m = data["functions"], data["target"]
    if r["status"] == "infeasible":
        from .applications import _moment_cert_margins

        floor, margin = _moment_cert_margins(M, m, _array(r["cert"]))
        _matches("certFloor", floor, r["certFloor"])
        return _matches("certMargin", margin, r["certMargin"])
    return {"momentResidual": float(np.abs(M @ _array(r["weights"]) - m).max())}


# --- trig ---------------------------------------------------------------------
def _decode_trig(payload, path):
    pairs = _matrix(_require(payload, "coeffs", path), f"{path}.coeffs", cols=2)
    # `applications.trig_moment` owns the size rule: at least 4 points per coefficient
    grid = _integer(_require(payload, "gridSize", path), f"{path}.gridSize")
    return {"coeffs": pairs[:, 0] + 1j * pairs[:, 1], "gridSize": grid}


def _gen_trig(rng, n=3, gridSize=32):
    # diagonally dominant Toeplitz data: strictly inside the feasible cone
    c0 = rng.uniform(0.5, 2.0)
    r = c0 / (2.0 * (n + 1))
    coeffs = [[c0, 0.0]]
    for _ in range(n):
        coeffs.append([rng.uniform(-r, r), rng.uniform(-r, r)])
    return {"coeffs": coeffs, "gridSize": gridSize}


def _solve_trig(args, data):
    from .applications import trig_moment

    rep = trig_moment(data["coeffs"], data["gridSize"])
    result = {
        "status": "feasible" if rep["lp_feasible"] else "infeasible",
        "minEig": rep["min_eig"], "norm": rep["norm"],
        "psd": rep["psd"], "lpFeasible": rep["lp_feasible"],
        "boundaryBand": rep["boundary_band"], "gridSize": rep["grid_size"],
    }
    result.update((key, rep[key]) for key in ("weights", "cert") if rep[key] is not None)
    return result


def _check_trig(data, r):
    if r["status"] != "infeasible":
        return None  # a feasible verdict states no residuals
    from .applications import _circle_cone

    return _farkas_holds(_circle_cone(data["coeffs"], data["gridSize"]), [r["cert"]])


# --- conjugate ----------------------------------------------------------------
def _grid_function_json(obj, path):
    grid = _float_list(_require(obj, "grid", path), f"{path}.grid")
    values = _float_list(_require(obj, "values", path), f"{path}.values", len(grid))
    return {"grid": grid, "values": values}


def _decode_conjugate(payload, path):
    out = {"f": _grid_function_json(_require(payload, "f", path), f"{path}.f")}
    others = []
    if payload.get("others") is not None:
        raw = payload["others"]
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.others", "expected an array")
        others = [_grid_function_json(o, f"{path}.others[{i}]") for i, o in enumerate(raw)]
    out["others"] = others
    out["dualGrid"] = None
    if payload.get("dualGrid") is not None:
        if others:
            raise SchemaError(f"{path}.dualGrid", "applies only to a conjugate, not with others")
        out["dualGrid"] = _float_list(payload["dualGrid"], f"{path}.dualGrid")
    return out


def _gen_conjugate(rng, n=65):
    h = 2.0 / (n - 1)
    grid = [-1.0 + h * i for i in range(n)]
    slopes = sorted(rng.floats(n - 1, -0.9, 0.9))
    values = [0.0]
    for i in range(n - 1):
        values.append(values[-1] + slopes[i] * h)
    return {"f": {"grid": grid, "values": values}}


def _solve_conj(args, data):
    from .applications import GridFunction, conjugate, inf_convolution

    f = GridFunction(**data["f"])
    if data["others"]:
        out = inf_convolution(f, *(GridFunction(**o) for o in data["others"]))
        op = "infConvolution"
    else:
        out = conjugate(f, data["dualGrid"])
        op = "conjugate"
    return {"status": "optimal", "operation": op, "grid": out.grid, "values": out.values}


TABLE = {
    "scalar_ot": Kind(_decode_two_marginals, _gen_scalar_ot, "solve-ot", "plain",
                      _solve_plain, _check_plain),
    "partial": Kind(_decode_partial, _gen_partial, "solve-ot", "partial",
                    _solve_partial, _check_partial),
    "capacity": Kind(_decode_capacity, _gen_capacity, "solve-ot", "capacity",
                     _solve_capacity, _check_capacity),
    "invariant": Kind(_decode_invariant, _gen_invariant, "solve-ot", "invariant",
                      _solve_invariant, _check_invariant),
    "multi": Kind(_decode_multi, _gen_multi, "solve-ot", "multi", _solve_multi, _check_multi),
    "glue": Kind(_decode_glue, _gen_glue, "solve-ot", "glue", _solve_glue, _check_glue),
    "local": Kind(_decode_local, _gen_local, "solve-ot", "local",
                  _solve_local, _check_local),
    "strassen": Kind(_decode_strassen, _gen_strassen, "solve-ot", "strassen",
                     _solve_strassen, _check_strassen),
    "vector_ot": Kind(_decode_vector_ot, _gen_vector_ot, "solve-vot", None,
                      _solve_vot, _check_vot),
    "dominance": Kind(_decode_dominance, _gen_dominance, "dominate", None,
                      _solve_dominate, _check_dominate),
    "martingale": Kind(_decode_martingale, _gen_martingale),
    "chain": Kind(_decode_chain, _gen_chain, "chain", None, _solve_chain, _check_chain),
    "game": Kind(_decode_game, _gen_game, "game", None, _solve_game, _check_game),
    "moment": Kind(_decode_moment, _gen_moment, "moment", None, _solve_moment, _check_moment),
    "trig": Kind(_decode_trig, _gen_trig, "trig", None, _solve_trig, _check_trig),
    "conjugate": Kind(_decode_conjugate, _gen_conjugate, "conj", None, _solve_conj),
}
KINDS = tuple(TABLE)
