"""Command line front end.

Every solve-style run produces a canonical JSON result carrying the
primal and dual values, the duality gap, and diagnostics (recomputed
residuals, pivot count, wall time).  Before anything is written, the
result text is parsed back and checked from the serialized numbers:
residuals must match the stored ones, and a certificate must pass the
one rule that its solver's answer passed (see `kinds`; `refine` holds its
certificate to the vector rule too), or the run aborts with the
numerical-breakdown exit code.

Each problem command reads the kind `kinds.TABLE` assigns it (`solve-ot`
the kind of its `--variant`) through `_load`, from `--input` or from the
flag files that stand in for it; an override flag (`--n`, `--grid`,
`--restrict`, `--infconv`) replaces its payload key before that one
decode.  `_run` calls the kind's `solve` and `check` and does the rest.

The parser is built once per process, on the first `main()` call, and
reused: flags are parsed afresh on every call and `VECOT_TOL` is read
per call, when the result has a gap to bound, so `main(argv)` may be
called repeatedly in one process.  The `fn`, `load`, `solve` and `check`
defaults of each subcommand are bound when the parser is built; they
look up the library functions they call by name at call time.  Only the
scalar solvers are imported with this module (by `kinds`); a command
imports what else it calls (`vector`, `chain`, `applications`,
`generate`, `golden`) when it runs, so `solve-ot` never loads them.
`build_parser()` still returns a fresh parser.

Exit codes: 0 success, 1 golden-suite failure, 2 infeasible with
certificate, 3 schema or usage error, 4 numerical breakdown.
"""

import argparse
import functools
import json
import re
import sys
import time

from . import serialize
from .kinds import TABLE, _vector_cert_holds
from .lp import NumericalBreakdown, pivot_total
from .scalar import InfeasibleTransport
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


def _emit(args, text) -> None:
    """Write `text` to --output, or else to stdout; --quiet silences stdout."""
    if args.output:
        serialize.write_text(args.output, text)
        if not args.quiet:
            print(f"wrote {args.output}")
    elif not args.quiet:
        sys.stdout.write(text)


def _run(args) -> int:
    """Load, solve, gap-check, check, self-revalidate and write one result.

    The command's `check` (see `kinds`) runs on the result and again on
    the result re-parsed from its own text: residuals must agree with the
    stored ones, and a certificate must hold; a miss on the text is a
    certificate that fails revalidation.  A check that returns None leaves
    the text unparsed.
    """
    data = args.load(args)
    t0, piv0 = time.perf_counter(), pivot_total()
    try:
        result = args.solve(args, data)
    except InfeasibleTransport as exc:
        result = {"status": "infeasible", "message": str(exc), "cert": exc.cert}
    result["command"] = args.cmd
    diag = result["diagnostics"] = {}
    if "gap" in result:
        diag["gap"] = gap = result["gap"]
        if hasattr(args, "tol"):  # a command bounds its gap iff it accepts --tol
            tol = args.tol if args.tol is not None else default_tol()
            if gap > tol * (1.0 + abs(result["value"])):
                raise NumericalBreakdown(f"duality gap {gap!r} exceeds tolerance {tol!r}")
    residuals = args.check(data, result) if args.check else None
    if residuals:
        diag["residuals"] = residuals
    diag["pivots"] = pivot_total() - piv0
    diag["wallMillis"] = (time.perf_counter() - t0) * 1000.0
    text = canonical_dumps(result)
    if residuals is not None:
        parsed = json.loads(text)
        stored = parsed["diagnostics"].get("residuals", {})
        try:
            recomputed = args.check(data, parsed)
        except NumericalBreakdown as exc:  # a certificate missed its rule
            raise NumericalBreakdown(f"serialized certificate fails revalidation: {exc}") from None
        for key, val in recomputed.items():
            if abs(val - stored[key]) > REVALIDATE_TOL:
                raise NumericalBreakdown(f"serialized result fails revalidation on {key}: "
                                         f"{val!r} vs stored {stored[key]!r}")
    _emit(args, text)
    return EXIT_INFEASIBLE if result["status"] == "infeasible" else EXIT_OK


VARIANT_KIND = {k.variant: name for name, k in TABLE.items() if k.variant}
# the kind each problem command reads; solve-ot reads plain's until --variant names another
_COMMAND_KIND = {k.command: name for name, k in TABLE.items()
                 if k.command and k.variant in (None, "plain")}


class _Variant(argparse.Action):
    """`solve-ot --variant`: the problem kind the command reads, solves and checks."""

    def __call__(self, parser, namespace, value, option_string=None):
        kind = VARIANT_KIND[value]
        namespace.variant, namespace.kind = value, kind
        namespace.solve, namespace.check = TABLE[kind].solve, TABLE[kind].check


def _document(path, bare):
    """A problem document and its payload, read from `path`.

    The document is a wrapped problem or a bare payload; with `bare` set,
    any other document stands for the value of that payload key.
    """
    obj = serialize._read_json(path)
    if bare and not (isinstance(obj, dict) and (bare in obj or serialize._wrapped(obj))):
        obj = {bare: obj}
    return obj, obj["payload"] if serialize._wrapped(obj) else obj


def _load(args):
    """The command's problem, decoded once by the decoder of its kind.

    `--input` holds the problem (see `_document`).  In its place, each flag
    of `args.files` names a file that holds one payload key, bare or as
    ``{key: value}``.  Each ``(flag, key, read)`` of `args.values` is an
    override: when given, it replaces its key before the decode, with the
    flag's value or, for a flag that names files, with ``read(value)``.
    The flags' argparse dests are their payload keys.
    """
    files = {key: getattr(args, key) for _, key in args.files}
    values = {key: (getattr(args, key), read) for _, key, read in args.values
              if getattr(args, key) is not None}
    if args.input:
        if any(files.values()):
            stand_ins = "/".join(flag for flag, _ in args.files)
            raise SchemaError(args.cmd, f"give either --input or {stand_ins}, not both")
        obj, payload = _document(args.input, args.bare)
    elif not all(files.values()) or len(values) < len(args.values):
        flags = " and ".join(flag for flag, *_ in (*args.files, *args.values))
        raise SchemaError(args.cmd, f"provide --input, or {flags}")
    else:
        obj = payload = {}
        for key, path in files.items():
            doc = serialize._read_json(path)
            payload[key] = doc[key] if isinstance(doc, dict) and key in doc else doc
    if isinstance(payload, dict):
        for key, (value, read) in values.items():
            payload[key] = value if read is None else read(value)
    return serialize.payload_from_json(obj, args.kind)


def _restrict_file(path):
    """`game --restrict`: a bare scalar measure, checked as a file of its own."""
    obj = serialize._read_json(path)
    serialize.scalar_measure_from_json(obj, "$")
    return obj


def _infconv_files(paths):
    """`conj --infconv`: the `f` of each file, checked as `conj --input` is."""
    fs = []
    for path in paths:
        obj, payload = _document(path, "f")
        serialize.payload_from_json(obj, "conjugate")
        fs.append(payload["f"])
    return fs


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
    power = serialize._number(obj.get("power", 2), "$.power")
    if power <= 0:
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
    return {"status": "optimal", "entries": entries, "spreadTrend": study["q_trend"]}


def _check_refine(data, r):
    if r["status"] == "infeasible":  # the target is out of reach from the grid of len(psi) cells
        from .vector import _grid_source

        values = data["values"]
        mu = _grid_source(data["density"], len(r["cert"]["psi"]), values.shape[1])
        return _vector_cert_holds(r["cert"], mu.density, mu.values, values)
    return {"worstGap": max(e["gap"] for e in r["entries"])}


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

    def command(name, help, parents, load=_load, solve=None, check=None, files=(), values=(),
                bare=None, fn=_run):
        kind = _COMMAND_KIND.get(name)
        if kind is not None:
            solve, check = TABLE[kind].solve, TABLE[kind].check
        p = sub.add_parser(name, parents=[*parents, _OUTPUT, _QUIET], help=help)
        p.set_defaults(fn=fn, kind=kind, load=load, solve=solve, check=check, files=files,
                       values=values, bare=bare)
        return p

    p = command("solve-ot", "scalar transport variants", [_INPUT, _TOL])
    p.add_argument("--variant", choices=sorted(VARIANT_KIND), default="plain", action=_Variant)

    command("solve-vot", "vector-valued transport", [_INPUT, _TOL])

    p = command("dominate", "dominance queries", [_INPUT_OPTIONAL, _SEED],
                files=(("--mu", "mu"), ("--nu", "nu")))
    p.add_argument("--mu", help="source vector measure file")
    p.add_argument("--nu", help="target vector measure file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--n", type=int, default=None, help="coarsening block count")
    mode.add_argument("--strong", action="store_true", help="restriction-pair scan")
    mode.add_argument("--blackwell", action="store_true", help="full cross-check report")
    p.add_argument("--samples", type=int, default=None,
                   help="convex test functions for --blackwell (default 64)")

    p = command("refine", "grid refinement study", [], _load_refine, _solve_refine, _check_refine)
    p.add_argument("--density", required=True, help='component spec, e.g. "1,2x"')
    p.add_argument("--targets", required=True, help="target values file")
    p.add_argument("--grids", required=True, help="comma-separated grid sizes")

    p = command("chain", "multi-hop transport", [_INPUT], values=(("--n", "hops", None),))
    p.add_argument("--n", dest="hops", type=int, default=None, help="override the hop count")
    p.add_argument("--free-medium", action="store_true", help="leave the medium free")

    p = command("game", "matrix game value", [_INPUT],
                values=(("--restrict", "restrict", _restrict_file),))
    p.add_argument("--restrict", help="scalar measure restricting the column player")

    p = command("moment", "moment feasibility", [_INPUT_OPTIONAL],
                files=(("--M", "functions"), ("--m", "target")))
    p.add_argument("--M", dest="functions", help="moment functions file")
    p.add_argument("--m", dest="target", help="target vector file")

    p = command("trig", "trigonometric moments", [_INPUT_OPTIONAL],
                files=(("--coeffs", "coeffs"),), values=(("--grid", "gridSize", None),))
    p.add_argument("--coeffs", help="coefficient file")
    p.add_argument("--grid", dest="gridSize", type=int, default=None, help="circle grid size")

    p = command("conj", "discrete convex conjugate", [_INPUT],
                bare="f", values=(("--infconv", "others", _infconv_files),))
    p.add_argument("--infconv", dest="others", metavar="INFCONV", nargs="+", default=None,
                   help="convolve the input with these grid functions instead")

    p = command("gen", "generate a seeded instance", [_SEED], fn=_cmd_gen)
    p.add_argument("--kind", required=True, choices=tuple(TABLE))

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
