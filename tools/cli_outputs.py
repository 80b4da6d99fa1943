"""Exit code and output digest of every CLI command shape, per gen seed.

    python tools/cli_outputs.py --seeds 0-19

runs, in one process through `vecot.cli.main`, every command shape of the
benchmark's cli-mix workload (`perfbench/workloads.py::CLI_SHAPES`),
`dominate --strong`, and `gen --kind` for every problem kind, each on the
instances `generate.gen` draws from every seed in the range.  A shape
whose kind can be infeasible also runs on its infeasible twin: the same
instance after the one fixed edit `_TWINS` names for that kind (`nu`
times 1.5, `cap` times 0.3, a moment mass of -1, ...), so the certificate
path and its re-check from the written text run too.  It prints one line
per (shape, seed): the shape (a twin's label ends in ``-twin``), the seed,
the exit code and the SHA-256 of the written output, with `wallMillis`
masked.  Run it on two checkouts and `diff` the outputs to see whether a
change moved any byte the CLI writes.  Digests depend on the BLAS build,
so compare them only between runs on one machine.

It exits 1 when any exit code is outside {0, 2} or any twin exits other
than 2, and 0 otherwise.  It imports the package from the `src` directory
of its own checkout.
"""

import argparse
import copy
import hashlib
import os
import re
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import CLI_SHAPES  # noqa: E402
from vecot import cli, generate, serialize  # noqa: E402
from vecot.kinds import KINDS  # noqa: E402

_WALL = re.compile(rb'"wallMillis":[^,}]*')


def _edit(change, *keys):
    """An edit of a payload: the value at payload[keys[0]][keys[1]]... becomes change(value)."""

    def edit(payload):
        *path, last = keys
        for key in path:
            payload = payload[key]
        payload[last] = change(payload[last])

    return edit


def _times(factor, *keys):
    return _edit(lambda v: (np.asarray(v) * factor).tolist(), *keys)


# the edit that makes each kind's generated instance infeasible; partial,
# invariant, game and conjugate instances have no infeasible form
_TWINS = {
    "scalar_ot": _times(1.5, "nu", "weights"),
    "capacity": _times(0.3, "cap"),
    "multi": _times(1.5, "measures", -1, "weights"),
    "glue": _times(1.5, "second", "matrix"),
    "local": _times(1.5, "nu", "weights"),
    "strassen": _times(1.5, "nu", "weights"),
    "vector_ot": _times(1.5, "nu", "values"),
    "dominance": _times(1.5, "nu", "values"),
    "chain": _times(1.5, "nu"),
    "moment": _edit(lambda m: [-1.0, *m[1:]], "target"),  # a negative total mass
    "trig": _edit(lambda c: [[-1.0, 0.0], *c[1:]], "coeffs"),
}


def _seeds(spec: str) -> range:
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _inputs(doc, base):
    """The flags that hand the problem `doc` to its command, after writing its files."""
    if doc["kind"] == "dominance":  # dominate reads the two measures from their own files
        for side in ("mu", "nu"):
            serialize.save(doc["payload"][side], f"{base}.{side}.json")
        return ["--mu", f"{base}.mu.json", "--nu", f"{base}.nu.json"]
    serialize.save(doc, f"{base}.json")
    return ["--input", f"{base}.json"]


def _shapes(seed: int, work: str):
    """(label, argv, twin) of every shape on the instances of one seed."""
    inputs, twins = {}, {}
    for kind in KINDS:
        doc = generate.gen(kind, seed).as_dict()
        base = os.path.join(work, f"{seed}.{kind}")
        inputs[kind] = _inputs(doc, base)
        if kind in _TWINS:
            twin = copy.deepcopy(doc)
            _TWINS[kind](twin["payload"])
            twins[kind] = _inputs(twin, f"{base}.twin")
    shapes = [*CLI_SHAPES, ("dominate-strong", "dominance", ["dominate", "--strong"])]
    for label, kind, argv in shapes:
        yield label, argv + inputs[kind], False
        if kind in twins:
            yield f"{label}-twin", argv + twins[kind], True
    for kind in KINDS:
        yield f"gen-{kind}", ["gen", "--kind", kind, "--seed", str(seed)], False


def _run(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through parser.exit
        return exc.code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="gen seed range, e.g. 0-19")
    args = parser.parse_args(argv)
    bad = 0
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.json")
        for seed in _seeds(args.seeds):
            for label, shape, twin in _shapes(seed, work):
                if os.path.exists(out):
                    os.remove(out)
                rc = _run(shape + ["--output", out, "--quiet"])
                text = b""
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        text = _WALL.sub(b'"wallMillis":0', fh.read())
                print(f"{label} {seed} {rc} {hashlib.sha256(text).hexdigest()}", flush=True)
                bad += rc != 2 if twin else rc not in (0, 2)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
