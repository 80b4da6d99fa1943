"""One benchmark process: set up a workload, run it, print one JSON line.

Started by run.py with BLAS threads pinned and ``src`` on PYTHONPATH.

  --mode setup  import vecot and make every input; report the time taken.
  --mode run    closed loop, untraced: blocks of operations, in order,
                until --seconds have passed, the tail percentile has its
                samples and every probe has run.  Between blocks, at even
                intervals, it starts a fresh set-up process and a fresh
                ``python -m vecot.cli`` process, so those samples see the
                same machine as the operations do.
  --mode trace  pairs of whole sweeps, one untraced and one traced, for
                about --seconds: the overhead is measured in the same
                process, and every traced sweep must have the same counts.
"""

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback


class Loop:
    """Runs operations one after another and keeps what they returned."""

    def __init__(self):
        self.times = []
        self.answers = {}  # op index -> answer of its first run
        self.errors = []
        self.failed = 0

    def run(self, index, op, tracer=None) -> float:
        clock = time.perf_counter
        out = None
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            out = op.run()
        except Exception:  # a failing op is counted, never a crash that drops samples
            self.fail(op.name, traceback.format_exc(limit=3))
        finally:
            dur = clock() - t0
            if tracer is not None:
                tracer.active = False
        self.times.append(dur)
        if out is not None:
            try:
                answer = op.check(out)
            except Exception:
                self.fail(op.name, traceback.format_exc(limit=3))
            else:
                first = self.answers.setdefault(index, answer)
                if answer != first:
                    self.fail(op.name, f"answer {answer!r} differs from the first run's {first!r}")
        return dur

    def fail(self, name, message) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {message}")

    def warm_up(self, ops) -> None:
        """Run ops once, untimed, so lazy set-up ends before timing starts."""
        for i, op in enumerate(ops):
            self.run(-1 - i, op)
        self.times.clear()
        self.answers.clear()


def _probes(args):
    """The set-up and cold-start commands, and a fresh-process timer."""
    from vecot import generate, serialize

    probe_dir = os.path.join(args.workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    problem = os.path.join(probe_dir, "cold.json")
    serialize.save(generate.gen("scalar_ot", args.seed), problem)
    setup = [sys.executable, os.path.abspath(__file__), "--mode", "setup", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--workdir", probe_dir]
    if args.smoke:
        setup.append("--smoke")
    cold = [sys.executable, "-m", "vecot.cli", "solve-ot", "--input", problem,
            "--output", os.path.join(probe_dir, "cold.out.json"), "--quiet"]

    def setup_s() -> float:
        out = subprocess.run(setup, capture_output=True, text=True, check=True, timeout=120).stdout
        return json.loads(out.strip().splitlines()[-1])["setup_s"]

    def cold_start_s() -> float:
        # Popen.wait with a timeout polls at up to 50 ms, which would round
        # the wall time up to a multiple of it; a plain wait does not.
        t0 = time.perf_counter()
        with subprocess.Popen(cold) as proc:
            watchdog = threading.Timer(120, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        wall = time.perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, cold)
        return wall

    return setup_s, cold_start_s


def untraced(args, blocks, warm) -> dict:
    setup_s, cold_start_s = _probes(args)
    ops = [op for block in blocks for op in block]
    loop = Loop()
    loop.warm_up(warm)
    busy = 0.0
    setups, colds = [], []
    t0 = time.perf_counter()
    for n in itertools.count():
        block = blocks[n % len(blocks)]
        base = (n % len(blocks)) * len(block)
        for i, op in enumerate(block):
            busy += loop.run(base + i, op)
        elapsed = time.perf_counter() - t0
        while len(setups) < args.probes and elapsed >= len(setups) * args.seconds / args.probes:
            setups.append(setup_s())
            colds.append(cold_start_s())
        if elapsed >= args.seconds and len(loop.times) >= args.min_samples and len(setups) == args.probes:
            break
    return {
        "samples": loop.times,
        "busy_s": busy,
        "sweeps": len(loop.times) / len(ops),
        "setup_s": setups,
        "cold_start_s": colds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_outcome(loop, ops),
    }


def traced(args, blocks, warm, tracer) -> dict:
    ops = [op for block in blocks for op in block]
    loop = Loop()
    loop.warm_up(warm)
    busy = {False: 0.0, True: 0.0}
    sweeps = {False: 0, True: 0}
    counts = set()  # (lp calls, lp pivots) of each traced sweep
    t0 = last = time.perf_counter()
    pair_s = 0.0
    # start no pair of sweeps that would end after --seconds, but run one
    while not sweeps[True] or last - t0 + pair_s <= args.seconds:
        for on in (False, True):
            before = (tracer.lp_calls, tracer.lp_pivots)
            for i, op in enumerate(ops):
                busy[on] += loop.run(i, op, tracer if on else None)
            sweeps[on] += 1
            if on:
                counts.add((tracer.lp_calls - before[0], tracer.lp_pivots - before[1]))
        pair_s, last = time.perf_counter() - last, time.perf_counter()
    if len(counts) != 1:
        loop.fail("trace", f"lp calls and pivots differ between traced sweeps of the same inputs: {counts}")
    return {
        "ops_per_sweep": len(ops),
        "untraced_sweeps": sweeps[False],
        "untraced_busy_s": busy[False],
        "traced_sweeps": sweeps[True],
        "traced_busy_s": busy[True],
        "self_s": dict(tracer.self_s),
        "lp_calls": tracer.lp_calls,
        "lp_pivots": tracer.lp_pivots,
        "lp_infeasible": tracer.lp_infeasible,
        "lp_cells": tracer.lp_cells,
        "out_bytes": tracer.out_bytes,
        **_outcome(loop, ops),
    }


def _outcome(loop, ops) -> dict:
    import numpy as np

    return {
        "attempted": len(loop.times),
        "failed": loop.failed,
        "errors": loop.errors[:5],
        "answers": [loop.answers.get(i) for i in range(len(ops))],
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }


def main() -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--min-samples", type=int, default=1)
    ap.add_argument("--probes", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    blocks = build(args.seed, args.smoke, args.workdir)
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - t_start}))
        return 0
    if tracer is not None:
        tracer.active = False
        generate_s = tracer.outer_s["generate"]
    # the toy-size inputs run the same code paths in a fraction of the time
    warm = [op for block in build(args.seed, True, args.workdir) for op in block]
    if tracer is None:
        result = untraced(args, blocks, warm)
    else:
        tracer.reset()
        result = dict(traced(args, blocks, warm, tracer), generate_s=generate_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
