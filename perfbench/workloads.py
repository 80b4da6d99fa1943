"""The benchmark's workloads: inputs made from a seed, operations, answer checks.

Every workload is one closed-loop client.  A builder returns a list of
blocks of operations; one block holds the workload's mix in its fixed
proportions, and a sweep runs every block once, in order.  An operation
calls vecot through module attributes looked up at call time, so a
tracer installed on those attributes sees the call.  Its check runs
outside the timed region, recomputes the answer's guarantees from the
returned numbers, and returns the answer's value or verdict (pinned
against references on seed 0); a check that fails raises CheckFailed.
"""

import json
import os

import numpy as np

from vecot import cli, generate, scalar, serialize

# Checks recompute residuals from the returned numbers; the solvers
# promise GAP_TOL = 1e-7 on the duality gap, so use the same bound.
TOL = 1e-7


class CheckFailed(Exception):
    """An operation returned an answer that does not verify."""


def _require(ok, what) -> None:
    if not ok:
        raise CheckFailed(what)


class Op:
    """One operation: ``run()`` is timed, ``check(output)`` is not."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# --- ot-dense ---------------------------------------------------------------

# One block: (label, gen kind, atoms per side).  Each LP needs thousands
# of Bland pivots.  Sorted by time, a block is one solve_ot at 40 atoms and
# one partial (0.2-1 s), then a tight slow group of two capacity and two
# 50-atom solves (1-1.7 s).  The median and the p65 tail both fall inside
# the slow group, not on an edge between groups, where they would jump.
OT_DENSE_BLOCK = (
    ("ot40", "scalar_ot", 40),
    ("capacity30", "capacity", 30),
    ("ot50", "scalar_ot", 50),
    ("partial50", "partial", 50),
    ("capacity30", "capacity", 30),
    ("ot50", "scalar_ot", 50),
)
OT_DENSE_SMOKE_BLOCK = (
    ("ot8", "scalar_ot", 8),
    ("partial8", "partial", 8),
    ("capacity6", "capacity", 6),
)


def _check_gap(value, dual, primal) -> None:
    scale = 1.0 + abs(value)
    _require(abs(value - primal) <= TOL * scale, f"value {value!r} != plan cost {primal!r}")
    _require(abs(value - dual) <= TOL * scale, f"duality gap {abs(value - dual)!r}")


def _check_ot(data, res) -> float:
    mu, nu, c = data["mu"].weights, data["nu"].weights, data["cost"]
    P, psi, phi = res.plan.matrix, res.psi, res.phi
    _require(P.min() >= -TOL, "negative plan entry")
    _require(np.abs(P.sum(axis=1) - mu).max() <= TOL, "source marginal")
    _require(np.abs(P.sum(axis=0) - nu).max() <= TOL, "target marginal")
    reduced = c - psi[:, None] - phi[None, :]
    _require(reduced.min() >= -TOL, "dual infeasible: psi + phi > c")
    _require(np.abs(P * reduced).max() <= TOL, "complementary slackness")
    _check_gap(res.value, psi @ mu + phi @ nu, float((c * P).sum()))
    return res.value


def _check_partial(data, res) -> float:
    mu, nu, c, m = data["mu"].weights, data["nu"].weights, data["cost"], data["mass"]
    P, psi, phi, lam = res.plan.matrix, res.psi, res.phi, res.extras["lam"]
    rows, cols = P.sum(axis=1), P.sum(axis=0)
    _require(P.min() >= -TOL, "negative plan entry")
    _require((rows - mu).max() <= TOL and (cols - nu).max() <= TOL, "marginal excess")
    _require(abs(P.sum() - m) <= TOL, "transported mass")
    _require(psi.max() <= TOL and phi.max() <= TOL, "positive potential")
    reduced = c - psi[:, None] - phi[None, :] - lam
    _require(reduced.min() >= -TOL, "dual infeasible: psi + phi + lam > c")
    _require(np.abs(P * reduced).max() <= TOL, "complementary slackness (plan)")
    _require(np.abs(psi * (mu - rows)).max() <= TOL, "complementary slackness (rows)")
    _require(np.abs(phi * (nu - cols)).max() <= TOL, "complementary slackness (cols)")
    _check_gap(res.value, psi @ mu + phi @ nu + lam * m, float((c * P).sum()))
    return res.value


def _check_capacity(data, res) -> float:
    mu, nu, c = data["mu"].weights, data["nu"].weights, data["cost"]
    cap = data["cap"].matrix
    P, psi, phi, xi = res.plan.matrix, res.psi, res.phi, res.extras["xi"]
    _require(P.min() >= -TOL and (P - cap).max() <= TOL, "plan outside [0, cap]")
    _require(np.abs(P.sum(axis=1) - mu).max() <= TOL, "source marginal")
    _require(np.abs(P.sum(axis=0) - nu).max() <= TOL, "target marginal")
    _require(xi.min() >= 0.0, "negative capacity dual")
    reduced = psi[:, None] + phi[None, :] + xi - c
    _require(reduced.min() >= -TOL, "dual infeasible: psi + phi + xi < c")
    _require(np.abs(P * reduced).max() <= TOL, "complementary slackness (plan)")
    _require(np.abs(xi * (cap - P)).max() <= TOL, "complementary slackness (cap)")
    _check_gap(res.value, psi @ mu + phi @ nu + (xi * cap).sum(), float((c * P).sum()))
    return res.value


def _ot_op(label, kind, n, seed):
    data = generate.gen(kind, seed, {"nx": n, "ny": n}).data
    mu, nu, c = data["mu"], data["nu"], data["cost"]
    if kind == "scalar_ot":
        run, check = (lambda: scalar.solve_ot(mu, nu, c)), _check_ot
    elif kind == "partial":
        run, check = (lambda: scalar.solve_partial(mu, nu, c, data["mass"])), _check_partial
    else:
        run, check = (lambda: scalar.solve_capacity(mu, nu, c, data["cap"])), _check_capacity
    return Op(label, run, lambda res: check(data, res))


def ot_dense(seed: int, smoke: bool, workdir: str):
    block, count = (OT_DENSE_SMOKE_BLOCK, 1) if smoke else (OT_DENSE_BLOCK, 2)
    return [
        [_ot_op(label, kind, n, seed * 1000 + b * len(block) + i) for i, (label, kind, n) in enumerate(block)]
        for b in range(count)
    ]


# --- cli-mix ----------------------------------------------------------------

# (label, gen kind of its input, argv before the file flags): every command
# shape of the CLI, on default-size gen instances.
CLI_SHAPES = (
    [(f"solve-ot-{v}", kind, ["solve-ot", "--variant", v]) for v, kind in sorted(cli.VARIANT_KIND.items())]
    + [
        ("solve-vot", "vector_ot", ["solve-vot"]),
        ("dominate", "dominance", ["dominate"]),
        ("dominate-n2", "dominance", ["dominate", "--n", "2"]),
        ("dominate-blackwell", "dominance", ["dominate", "--blackwell"]),
        ("chain", "chain", ["chain"]),
        ("chain-free", "chain", ["chain", "--free-medium"]),
        ("game", "game", ["game"]),
        ("moment", "moment", ["moment"]),
        ("trig", "trig", ["trig"]),
        ("conj", "conjugate", ["conj"]),
    ]
)


def _run_cli(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through parser.exit
        return exc.code


def _check_cli(out_path, rc):
    _require(rc in (0, 2), f"exit code {rc}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    status = result["status"]
    if rc == 0:
        _require(status in ("optimal", "feasible"), f"exit 0 with status {status!r}")
    else:
        _require(status == "infeasible", f"exit 2 with status {status!r}")
        report = result.get("report", {})
        _require(
            any(k in result for k in ("cert", "witness")) or "cert" in report,
            "exit 2 without a certificate",
        )
    if "gap" in result:
        _require(result["gap"] <= TOL * (1.0 + abs(result["value"])), f"gap {result['gap']!r}")
    for key, val in result["diagnostics"].get("residuals", {}).items():
        _require(abs(val) <= TOL, f"residual {key} = {val!r}")
    return [rc, status, result.get("value")]


def _cli_block(seed, workdir):
    inputs = {}
    for kind in dict.fromkeys(kind for _, kind, _ in CLI_SHAPES):
        pf = generate.gen(kind, seed + len(inputs))
        base = os.path.join(workdir, f"{seed}.{kind}")
        if kind == "dominance":  # dominate reads the two measures from their own files
            for side in ("mu", "nu"):
                serialize.save(pf.payload[side], f"{base}.{side}.json")
            inputs[kind] = ["--mu", f"{base}.mu.json", "--nu", f"{base}.nu.json"]
        else:
            serialize.save(pf, f"{base}.json")
            inputs[kind] = ["--input", f"{base}.json"]
    ops = []
    for label, kind, argv in CLI_SHAPES:
        out_path = os.path.join(workdir, f"{seed}.{label}.out.json")
        full = argv + inputs[kind] + ["--output", out_path, "--quiet"]
        ops.append(
            Op(label, lambda full=full: _run_cli(full), lambda rc, out_path=out_path: _check_cli(out_path, rc))
        )
    return ops


def cli_mix(seed: int, smoke: bool, workdir: str):
    """Every command shape on default-size instances, three instance sets."""
    return [_cli_block(seed * 1000 + 100 * b, workdir) for b in range(1 if smoke else 3)]


WORKLOADS = {"ot-dense": ot_dense, "cli-mix": cli_mix}
