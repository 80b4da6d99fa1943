"""Exit code and output digest of every CLI command shape, per gen seed.

    python tools/cli_outputs.py --seeds 0-19

runs, in one process through `vecot.cli.main`, every command shape of the
benchmark's cli-mix workload (`perfbench/workloads.py::CLI_SHAPES`),
`dominate --strong`, and `gen --kind` for every problem kind, each on the
instances `generate.gen` draws from every seed in the range.  It prints
one line per (shape, seed): the shape, the seed, the exit code and the
SHA-256 of the written output, with `wallMillis` masked.  Run it on two
checkouts and `diff` the outputs to see whether a change moved any byte
the CLI writes.  Digests depend on the BLAS build, so compare them only
between runs on one machine.

It exits 1 when any exit code is outside {0, 2}, and 0 otherwise.  It
imports the package from the `src` directory of its own checkout.
"""

import argparse
import hashlib
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import CLI_SHAPES  # noqa: E402
from vecot import cli, generate, serialize  # noqa: E402
from vecot.kinds import KINDS  # noqa: E402

_WALL = re.compile(rb'"wallMillis":[^,}]*')


def _seeds(spec: str) -> range:
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _shapes(seed: int, work: str):
    """(label, argv) of every shape on the instances of one seed."""
    inputs = {}
    for kind in KINDS:
        pf = generate.gen(kind, seed)
        base = os.path.join(work, f"{seed}.{kind}")
        if kind == "dominance":  # dominate reads the two measures from their own files
            for side in ("mu", "nu"):
                serialize.save(pf.payload[side], f"{base}.{side}.json")
            inputs[kind] = ["--mu", f"{base}.mu.json", "--nu", f"{base}.nu.json"]
        else:
            serialize.save(pf, f"{base}.json")
            inputs[kind] = ["--input", f"{base}.json"]
    shapes = [*CLI_SHAPES, ("dominate-strong", "dominance", ["dominate", "--strong"])]
    for label, kind, argv in shapes:
        yield label, argv + inputs[kind]
    for kind in KINDS:
        yield f"gen-{kind}", ["gen", "--kind", kind, "--seed", str(seed)]


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
            for label, shape in _shapes(seed, work):
                if os.path.exists(out):
                    os.remove(out)
                rc = _run(shape + ["--output", out, "--quiet"])
                text = b""
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        text = _WALL.sub(b'"wallMillis":0', fh.read())
                print(f"{label} {seed} {rc} {hashlib.sha256(text).hexdigest()}", flush=True)
                bad += rc not in (0, 2)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
