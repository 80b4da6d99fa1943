"""Command line front end.

Every solve-style run produces a canonical JSON result carrying the
primal and dual values, the duality gap, and diagnostics (recomputed
residuals, pivot count, wall time).  Before anything is written, the
result text is parsed back and its residuals recomputed from the
serialized numbers; a mismatch aborts with the numerical-breakdown exit
code rather than publishing an inconsistent file.

Each solve command names the problem kind it reads, and `_load` reads it
through that kind's `serialize` decoder, from `--input` or from the flag
files that stand in for it.  The command's solve returns ``(result,
residuals)``, where ``residuals`` maps a result, in memory or re-parsed
from its own text, to its residuals (or is None).  `_run` does the rest.

The parser is built once per process, on the first `main()` call, and
reused: flags are parsed afresh on every call and `VECOT_TOL` is read
per call, so `main(argv)` may be called repeatedly in one process.  The
`fn`, `load` and `solve` defaults of each subcommand are bound when the
parser is built; they are this module's functions, which look up the
library functions they call by name at call time.  Only the scalar
solvers are imported with this module; a command imports what else it
calls (`vector`, `chain`, `applications`, `generate`, `golden`) when it
runs, so `solve-ot` never loads them.  `build_parser()` still returns a
fresh parser.

Exit codes: 0 success, 1 golden-suite failure, 2 infeasible with
certificate, 3 schema or usage error, 4 numerical breakdown.
"""

import argparse
import functools
import json
import re
import sys
import time

import numpy as np

from . import serialize
from .lp import NumericalBreakdown, pivot_total
from .scalar import (
    InfeasibleTransport,
    glue_feasible,
    local_constraint_feasible,
    solve_capacity,
    solve_invariant,
    solve_multimarginal,
    solve_ot,
    solve_partial,
    strassen_feasible,
)
from .serialize import SchemaError, canonical_dumps
from .tolerances import REVALIDATE_TOL, default_tol, tolerance

EXIT_OK = 0
EXIT_GOLDEN = 1
EXIT_INFEASIBLE = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for infeasibility
    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _optimal(value, dual_value, **fields) -> dict:
    return {
        "status": "optimal",
        "value": float(value),
        "primalValue": float(value),
        "dualValue": float(dual_value),
        "gap": abs(float(value) - float(dual_value)),
        **fields,
    }


def _infeasible(cert):
    return {"status": "infeasible", "cert": cert}, None


def _plan_residuals(data, extra=None):
    """Residuals of a result's plan: both marginals, and `extra(plan)` if given."""
    mu_w, nu_w = data["mu"].weights, data["nu"].weights

    def residuals(r):
        q = np.asarray(r["plan"], dtype=float)
        out = {
            "sourceMarginal": float(np.abs(q.sum(axis=1) - mu_w).max()),
            "targetMarginal": float(np.abs(q.sum(axis=0) - nu_w).max()),
        }
        if extra is not None:
            out.update(extra(q))
        return out

    return residuals


def _emit(args, text) -> None:
    """Write `text` to --output, or else to stdout; --quiet silences stdout."""
    if args.output:
        serialize.write_text(args.output, text)
        if not args.quiet:
            print(f"wrote {args.output}")
    elif not args.quiet:
        sys.stdout.write(text)


def _run(args) -> int:
    """Load, solve, gap-check, self-revalidate and write one result."""
    data = args.load(args)
    tol = None
    if hasattr(args, "tol"):  # a command checks the gap iff it accepts --tol
        tol = args.tol if args.tol is not None else default_tol()
    t0, piv0 = time.perf_counter(), pivot_total()
    try:
        result, residuals = args.solve(args, data)
    except InfeasibleTransport as exc:
        result = {"status": "infeasible", "message": str(exc), "cert": exc.cert}
        residuals = None
    result["command"] = args.cmd
    diag = result["diagnostics"] = {}
    if "gap" in result:
        diag["gap"] = gap = result["gap"]
        if tol is not None and gap > tol * (1.0 + abs(result["value"])):
            raise NumericalBreakdown(f"duality gap {gap!r} exceeds tolerance {tol!r}")
    if residuals is not None:
        diag["residuals"] = residuals(result)
    diag["pivots"] = pivot_total() - piv0
    diag["wallMillis"] = (time.perf_counter() - t0) * 1000.0
    text = canonical_dumps(result)
    if residuals is not None:
        parsed = json.loads(text)
        stored = parsed["diagnostics"]["residuals"]
        for key, val in residuals(parsed).items():
            if abs(val - stored[key]) > REVALIDATE_TOL:
                raise NumericalBreakdown(f"serialized result fails revalidation on {key}: "
                                         f"{val!r} vs stored {stored[key]!r}")
    _emit(args, text)
    return EXIT_INFEASIBLE if result["status"] == "infeasible" else EXIT_OK


def _ot_plain(data):
    mu_w, nu_w = data["mu"].weights, data["nu"].weights
    res = solve_ot(data["mu"], data["nu"], data["cost"])
    result = _optimal(
        res.value, res.psi @ mu_w + res.phi @ nu_w,
        psi=res.psi, phi=res.phi, plan=res.plan.matrix,
    )
    return result, _plan_residuals(data)


def _ot_partial(data):
    mu_w, nu_w, mass = data["mu"].weights, data["nu"].weights, data["mass"]
    res = solve_partial(data["mu"], data["nu"], data["cost"], mass)
    lam = res.extras["lam"]
    result = _optimal(
        res.value, res.psi @ mu_w + res.phi @ nu_w + lam * mass,
        psi=res.psi, phi=res.phi, lam=lam, plan=res.plan.matrix,
    )

    def residuals(r):
        q = np.asarray(r["plan"], dtype=float)
        return {
            "rowExcess": float(np.maximum(q.sum(axis=1) - mu_w, 0.0).max()),
            "colExcess": float(np.maximum(q.sum(axis=0) - nu_w, 0.0).max()),
            "massResidual": float(abs(q.sum() - mass)),
        }

    return result, residuals


def _ot_capacity(data):
    mu_w, nu_w, cap_m = data["mu"].weights, data["nu"].weights, data["cap"].matrix
    res = solve_capacity(data["mu"], data["nu"], data["cost"], data["cap"])
    xi = res.extras["xi"]
    result = _optimal(
        res.value, res.psi @ mu_w + res.phi @ nu_w + (xi * cap_m).sum(),
        psi=res.psi, phi=res.phi, xi=xi, plan=res.plan.matrix,
    )
    return result, _plan_residuals(
        data, lambda q: {"capExcess": float(np.maximum(q - cap_m, 0.0).max())}
    )


def _ot_invariant(data):
    mu_w = data["mu"].weights
    mapping = np.asarray(data["mapping"], dtype=int)
    ny = data["target"].size
    res = solve_invariant(data["mu"], data["mapping"], data["cost"], data["target"])
    result = _optimal(
        res.value, res.psi @ mu_w,
        psi=res.psi, phi=res.phi, plan=res.plan.matrix,
        inducedMarginal=res.extras["nu"].weights,
    )

    def residuals(r):
        q = np.asarray(r["plan"], dtype=float)
        marg = q.sum(axis=0)
        pushed = np.bincount(mapping, weights=marg, minlength=ny)
        return {
            "sourceMarginal": float(np.abs(q.sum(axis=1) - mu_w).max()),
            "invarianceResidual": float(np.abs(pushed - marg).max()),
        }

    return result, residuals


def _ot_multi(data):
    measures = data["measures"]
    sizes = tuple(m.space.size for m in measures)
    res = solve_multimarginal(measures, data["cost"])
    psis = res.extras["psis"]
    result = _optimal(
        res.value, sum(p @ m.weights for p, m in zip(psis, measures)),
        potentials=psis, tensor=res.extras["tensor"].ravel(), shape=list(sizes),
    )

    def residuals(r):
        t = np.asarray(r["tensor"], dtype=float).reshape(sizes)
        out = {}
        for axis, m in enumerate(measures):
            marg = t.sum(axis=tuple(a for a in range(len(sizes)) if a != axis))
            out[f"marginal{axis}"] = float(np.abs(marg - m.weights).max())
        return out

    return result, residuals


def _ot_glue(data):
    res = glue_feasible(data["first"], data["second"], data["third"])
    if not res.feasible:
        return _infeasible(res.cert)
    first, second = data["first"].matrix, data["second"].matrix
    third = data["third"].matrix if data["third"] is not None else None

    def residuals(r):
        t = np.asarray(r["tensor"], dtype=float).reshape(*first.shape, second.shape[1])
        out = {
            "firstPair": float(np.abs(t.sum(axis=2) - first).max()),
            "secondPair": float(np.abs(t.sum(axis=0) - second).max()),
        }
        if third is not None:
            out["thirdPair"] = float(np.abs(t.sum(axis=1) - third).max())
        return out

    result = {"status": "feasible", "tensor": res.tensor.ravel(), "shape": list(res.tensor.shape)}
    return result, residuals


def _ot_local(data):
    off = data["cost"] > data["threshold"]
    res = local_constraint_feasible(data["mu"], data["nu"], data["cost"], data["threshold"])
    if not res.feasible:
        return _infeasible(res.cert)
    return {"status": "feasible", "plan": res.plan.matrix}, _plan_residuals(
        data, lambda q: {"offSupportMass": float(q[off].sum()) if np.any(off) else 0.0}
    )


def _ot_strassen(data):
    cons = data["constraints"]
    res = strassen_feasible(data["mu"], data["nu"], cons)
    if not res.feasible:
        return _infeasible(res.cert)

    def violation(q):
        worst = 0.0
        for G, kind, rhs in cons:
            attained = float((G * q).sum())
            if kind == "le":
                worst = max(worst, attained - rhs)
            elif kind == "ge":
                worst = max(worst, rhs - attained)
            else:
                worst = max(worst, abs(attained - rhs))
        return {"constraintViolation": max(worst, 0.0)}

    return {"status": "feasible", "plan": res.plan.matrix}, _plan_residuals(data, violation)


# variant -> (problem kind, solver); entries are this module's functions so
# that the library solvers they call are looked up by name at call time
_SOLVE_OT = {
    "plain": ("scalar_ot", _ot_plain),
    "partial": ("partial", _ot_partial),
    "capacity": ("capacity", _ot_capacity),
    "invariant": ("invariant", _ot_invariant),
    "multi": ("multi", _ot_multi),
    "glue": ("glue", _ot_glue),
    "local": ("local", _ot_local),
    "strassen": ("strassen", _ot_strassen),
}
VARIANT_KIND = {variant: kind for variant, (kind, _) in _SOLVE_OT.items()}


class _Variant(argparse.Action):
    """`solve-ot --variant`, which also sets the problem kind the command reads."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.variant, namespace.kind = value, VARIANT_KIND[value]


def _load(args):
    """The command's problem, read through the decoder of its kind.

    `--input` holds the problem, wrapped or bare.  In its place, each flag
    of `args.files` names a file that holds one payload key, bare or as
    ``{key: value}``, and each flag of `args.values` gives a key's value;
    together they make the payload.  A value flag given with `--input`
    replaces its key in the file's payload before it is decoded.  The
    flags' argparse dests are their payload keys.
    """
    files = {key: getattr(args, key) for _, key in args.files}
    values = {key: getattr(args, key) for _, key in args.values if getattr(args, key) is not None}
    if args.input:
        if any(files.values()):
            stand_ins = "/".join(flag for flag, _ in args.files)
            raise SchemaError(args.cmd, f"give either --input or {stand_ins}, not both")
        return serialize.load_payload(args.input, args.kind, values)
    if not all(files.values()) or len(values) < len(args.values):
        flags = " and ".join(flag for flag, _ in (*args.files, *args.values))
        raise SchemaError(args.cmd, f"provide --input, or {flags}")
    for key, path in files.items():
        obj = serialize._read_json(path)
        values[key] = obj[key] if isinstance(obj, dict) and key in obj else obj
    return serialize.payload_from_json(values, args.kind)


def _solve_vot(args, data):
    from .vector import VectorOtProblem, solve_vector_ot

    problem = VectorOtProblem(data["mu"], data["nu"], data["cost"], data["eta"])
    res = solve_vector_ot(problem)
    t, eta, nu_vals = res.extras["t"], problem.eta, data["nu"].values
    result = _optimal(
        res.value, res.extras["Psi"] @ t + (res.phi * nu_vals).sum(),
        plan=res.plan.matrix, rowSums=t,
        psi=res.psi, phi=res.phi, scalarPotential=res.extras["Psi"],
    )

    def residuals(r):
        q = np.asarray(r["plan"], dtype=float)
        rows = np.asarray(r["rowSums"], dtype=float)
        return {
            "rowSumResidual": float(np.abs(q.sum(axis=1) - rows).max()),
            "targetResidual": float(np.abs(q.T @ eta - nu_vals).max()),
        }

    return result, residuals


def _solve_dominate(args, data):
    from .vector import blackwell_check, dominates, dominates_n, strong_dominates

    if not args.blackwell and (args.samples is not None or args.seed is not None):
        raise SchemaError("dominate", "--samples and --seed apply only with --blackwell")
    mu, nu = data["mu"], data["nu"]
    residuals = None
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
    elif args.n is not None:
        ok, witness = dominates_n(mu, nu, args.n)
        result = {"blocks": args.n}
        if witness is not None:
            result["witness"] = {"partition": [list(b) for b in witness]}
    else:
        ok, cert = dominates(mu, nu)
        if ok:
            result = {"kernel": cert.payload.rows}
            mu_vals, nu_vals = mu.values, nu.values

            def residuals(r):
                rows = np.asarray(r["kernel"], dtype=float)
                return {"pushforwardResidual": float(np.abs(rows.T @ mu_vals - nu_vals).max())}
        else:
            result = {"cert": cert.payload}
    result["status"] = "feasible" if ok else "infeasible"
    result["dominates"] = bool(ok)
    return result, residuals


_DENSITY_TERM = re.compile(r"^\s*([+-]?\d+(?:\.\d+)?)?\s*(x?)\s*$")


def parse_density(spec: str):
    """Parse component expressions like "1,2x" into a density callable."""
    terms = []
    for part in spec.split(","):
        m = _DENSITY_TERM.match(part)
        if not m or (m.group(1) is None and not m.group(2)):
            raise SchemaError("--density", f"cannot parse component {part!r}")
        coeff = float(m.group(1)) if m.group(1) is not None else 1.0
        terms.append((coeff, bool(m.group(2))))

    def density(x: float):
        return [c * x if linear else c for c, linear in terms]

    return density, len(terms)


def _load_refine(args):
    density, d = parse_density(args.density)
    obj = serialize._read_json(args.targets)
    vals = serialize._matrix(serialize._require(obj, "values", "$"), "$.values", cols=d)
    ny = vals.shape[0]
    anchors = [j / max(ny - 1, 1) for j in range(ny)]
    if obj.get("anchors") is not None:
        anchors = serialize._float_list(obj["anchors"], "$.anchors", ny).tolist()
    power = obj.get("power", 2)
    if not isinstance(power, (int, float)) or isinstance(power, bool) or power <= 0:
        raise SchemaError("$.power", f"expected a positive exponent, got {power!r}")
    try:
        grids = [int(g) for g in args.grids.split(",")]
    except ValueError:
        raise SchemaError("--grids", f"expected comma-separated integers, got {args.grids!r}")
    return {"density": density, "values": vals, "anchors": anchors,
            "power": power, "grids": grids}


def _solve_refine(args, data):
    from .vector import dual_refinement_study

    anchors, power = data["anchors"], data["power"]

    def cost(x, j):
        return abs(x - anchors[j]) ** power

    study = dual_refinement_study(data["density"], cost, data["values"], data["grids"])
    entries = [
        {"N": e["N"], "value": e["value"], "dualValue": e["dual_value"],
         "gap": abs(e["value"] - e["dual_value"]), "dualSpread": e["q"]}
        for e in study["entries"]
    ]
    result = {"status": "optimal", "entries": entries, "spreadTrend": study["q_trend"]}
    return result, lambda r: {"worstGap": max(e["gap"] for e in r["entries"])}


def _solve_chain(args, data):
    from .chain import ChainProblem, chain_free_medium, chain_ot

    hops = data["hops"]
    if args.free_medium:
        value = chain_free_medium(data["mu"], data["nu"], data["cost"], hops)
        return {"status": "optimal", "value": value, "hops": hops, "freeMedium": True}, None
    res = chain_ot(
        ChainProblem(data["space"], data["cost"], data["mu"], data["nu"], data["medium"], hops)
    )
    mu_w, nu_w, med_w = data["mu"].weights, data["nu"].weights, data["medium"].weights

    def residuals(r):
        plans = [np.asarray(p, dtype=float) for p in r["plans"]]
        link = 0.0
        for a, b in zip(plans, plans[1:]):
            link = max(link, float(np.abs(a.sum(axis=0) - b.sum(axis=1)).max()))
        medium = np.sum([p.sum(axis=1) for p in plans[1:]], axis=0) if len(plans) > 1 else None
        return {
            "sourceMarginal": float(np.abs(plans[0].sum(axis=1) - mu_w).max()),
            "targetMarginal": float(np.abs(plans[-1].sum(axis=0) - nu_w).max()),
            "linking": link,
            "mediumResidual": (
                float(np.abs(medium - hops * med_w).max()) if medium is not None else 0.0
            ),
        }

    result = {
        "status": "optimal", "value": res.value, "hops": hops,
        "f": res.medium_potential, "plans": [p.matrix for p in res.plans],
        "stages": res.stages,
    }
    return result, residuals


def _solve_game(args, data):
    from .applications import game_value, game_value_restricted

    payoff, reference = data["payoff"], data["restrict"]
    if args.restrict:  # one scalar measure, in place of the problem's own
        reference = serialize.scalar_measure_from_json(serialize._read_json(args.restrict), "$")
    if reference is not None:
        res = game_value_restricted(payoff, reference)
    else:
        res = game_value(payoff)

    def residuals(r):
        s = np.asarray(r["rowStrategy"], dtype=float)
        t = np.asarray(r["colStrategy"], dtype=float)
        v = r["value"]
        row = s @ payoff if reference is None else (s @ payoff)[reference.weights > 0]
        lower = float(np.min(row))
        return {
            "rowShortfall": max(0.0, v - lower),
            "colOverrun": max(0.0, float(np.max(payoff @ t)) - v),
        }

    result = _optimal(
        res.value, res.value, rowStrategy=res.row_strategy, colStrategy=res.col_strategy
    )
    return result, residuals


def _solve_moment(args, data):
    from .applications import MomentProblem, moment_feasible

    M, m = data["functions"], data["target"]
    res = moment_feasible(MomentProblem(M, m))
    if res.feasible:
        def residuals(r):
            w = np.asarray(r["weights"], dtype=float)
            return {"momentResidual": float(np.abs(M @ w - m).max())}

        return {"status": "feasible", "weights": res.weights}, residuals
    cert = res.cert
    result = {"status": "infeasible", "cert": cert,
              "certFloor": float((cert @ M).min()), "certMargin": float(cert @ m)}
    return result, None


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
    return result, None


def _load_conj(args):
    """A conjugate problem, or a bare grid function; each --infconv file likewise."""
    from .applications import GridFunction

    def read(path):
        obj = serialize._read_json(path)
        if not (isinstance(obj, dict) and ("f" in obj or "kind" in obj and "payload" in obj)):
            obj = {"f": obj}  # a bare grid function
        return serialize.payload_from_json(obj, args.kind)

    data = read(args.input)
    if args.infconv:
        data["others"] = [read(path)["f"] for path in args.infconv]
    return {"f": GridFunction(**data["f"]), "dualGrid": data["dualGrid"],
            "others": [GridFunction(**o) for o in data["others"]]}


def _solve_conj(args, data):
    from .applications import conjugate, inf_convolution

    if data["others"]:
        out = inf_convolution(data["f"], *data["others"])
        op = "infConvolution"
    else:
        out = conjugate(data["f"], data["dualGrid"])
        op = "conjugate"
    return {"status": "optimal", "operation": op, "grid": out.grid, "values": out.values}, None


def _cmd_gen(args) -> int:
    from . import generate

    text = canonical_dumps(generate.gen(args.kind, args.seed or 0).as_dict())
    _emit(args, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import golden

    report = golden.run_suite(only=args.only, tol_override=args.tol)
    for item in report["items"]:
        if item["ok"]:
            if not args.quiet:
                print(f"PASS {item['name']} ({len(item['checks'])} checks)")
            continue
        print(f"FAIL {item['name']}")
        if item.get("error"):
            print(f"  error: {item['error']}")
        for c in item["checks"]:
            if not c["ok"]:
                print(
                    f"  {c['check']}: measured {c['measured']!r}, "
                    f"expected {c['expected']!r} ({c['op']}, tol {c['tol']!r})"
                )
    if args.output:
        serialize.write_text(args.output, canonical_dumps(report))
    if not args.quiet:
        n_ok = sum(1 for i in report["items"] if i["ok"])
        print(f"{n_ok}/{len(report['items'])} golden items passed")
    return EXIT_OK if report["ok"] else EXIT_GOLDEN


def _flag(name, **kwargs):
    p = _Parser(add_help=False)
    p.add_argument(name, **kwargs)
    return p


# Shared flags, built once at import and copied into each subcommand through
# `parents=`; a subcommand takes only the shared flags it honours.
_OUTPUT = _flag("--output", help="write the result here instead of stdout")
_QUIET = _flag("--quiet", action="store_true", help="suppress chatter")
_INPUT = _flag("--input", required=True, help="input file")
_INPUT_OPTIONAL = _flag("--input", help="input file")
_TOL = _flag("--tol", type=tolerance, help="tolerance override")
_SEED = _flag("--seed", type=int, help="random seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="vecot", description="transport and duality toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    def command(name, help, parents, solve=None, kind=None, load=_load, files=(), values=(),
                fn=_run):
        p = sub.add_parser(name, parents=[*parents, _OUTPUT, _QUIET], help=help)
        p.set_defaults(fn=fn, kind=kind, load=load, solve=solve, files=files, values=values)
        return p

    p = command("solve-ot", "scalar transport variants", [_INPUT, _TOL],
                lambda args, data: _SOLVE_OT[args.variant][1](data), VARIANT_KIND["plain"])
    p.add_argument("--variant", choices=sorted(VARIANT_KIND), default="plain", action=_Variant)

    command("solve-vot", "vector-valued transport", [_INPUT, _TOL], _solve_vot, "vector_ot")

    p = command("dominate", "dominance queries", [_INPUT_OPTIONAL, _SEED], _solve_dominate,
                "dominance", files=(("--mu", "mu"), ("--nu", "nu")))
    p.add_argument("--mu", help="source vector measure file")
    p.add_argument("--nu", help="target vector measure file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--n", type=int, default=None, help="coarsening block count")
    mode.add_argument("--strong", action="store_true", help="restriction-pair scan")
    mode.add_argument("--blackwell", action="store_true", help="full cross-check report")
    p.add_argument("--samples", type=int, default=None,
                   help="convex test functions for --blackwell (default 64)")

    p = command("refine", "grid refinement study", [], _solve_refine, load=_load_refine)
    p.add_argument("--density", required=True, help='component spec, e.g. "1,2x"')
    p.add_argument("--targets", required=True, help="target values file")
    p.add_argument("--grids", required=True, help="comma-separated grid sizes")

    p = command("chain", "multi-hop transport", [_INPUT], _solve_chain, "chain",
                values=(("--n", "hops"),))
    p.add_argument("--n", dest="hops", type=int, default=None, help="override the hop count")
    p.add_argument("--free-medium", action="store_true", help="leave the medium free")

    p = command("game", "matrix game value", [_INPUT], _solve_game, "game")
    p.add_argument("--restrict", help="scalar measure restricting the column player")

    p = command("moment", "moment feasibility", [_INPUT_OPTIONAL], _solve_moment, "moment",
                files=(("--M", "functions"), ("--m", "target")))
    p.add_argument("--M", dest="functions", help="moment functions file")
    p.add_argument("--m", dest="target", help="target vector file")

    p = command("trig", "trigonometric moments", [_INPUT_OPTIONAL], _solve_trig, "trig",
                files=(("--coeffs", "coeffs"),), values=(("--grid", "gridSize"),))
    p.add_argument("--coeffs", help="coefficient file")
    p.add_argument("--grid", dest="gridSize", type=int, default=None, help="circle grid size")

    p = command("conj", "discrete convex conjugate", [_INPUT], _solve_conj, "conjugate",
                load=_load_conj)
    p.add_argument("--infconv", nargs="+", default=None,
                   help="convolve the input with these grid functions instead")

    p = command("gen", "generate a seeded instance", [_SEED], fn=_cmd_gen)
    p.add_argument("--kind", required=True, choices=serialize.KINDS)

    p = command("verify", "run the golden suite", [_TOL], fn=_cmd_verify)
    p.add_argument("--only", default=None, help="name substring filter")

    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, FileNotFoundError) as exc:  # SchemaError is a ValueError
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
