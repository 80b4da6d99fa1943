"""vecot benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

One run, as BENCHMARK.json describes it:

  python3 perfbench/run.py --workload ot-dense --seed 1 --seconds 55 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as the JSON object on its last line.  Every measurement
happens in fresh child processes with BLAS pinned to one thread.

  python3 perfbench/run.py --report [--smoke] [--seed N] [--seconds T]

runs every workload untraced and traced and prints every metric by name
with its unit (and, for a per-layer metric, what it should move).
``--smoke`` shrinks every workload to toy sizes.  See README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# Highest percentile with at least ten samples beyond it, per workload, at
# the sample count a 55 s run reaches; a run continues until it has them.
TAIL_PCT = {"ot-dense": 65, "cli-mix": 99}
# Fresh set-up and cold-start processes per untraced run, spread over it.
PROBES = 15
CHILD_TIMEOUT = 170
# BLAS threads pinned before numpy loads: on two shared cores the default
# thread count makes a 50x50 solve swing by tens of percent.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Self-time accounts of the tracer, one per layer (serialize split in two).
ACCOUNTS = ("lp", "scalar", "vector", "chain", "applications", "cli", "serialize.load", "serialize.dump")


def _min_samples(workload: str) -> int:
    return -(-10 * 100 // (100 - TAIL_PCT[workload]))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _worker(mode, workload, seed, seconds, smoke, workdir) -> dict:
    argv = [os.path.join(HERE, "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--workdir", workdir]
    if smoke:
        argv += ["--smoke", "--probes", "2"]
    elif mode == "run":
        argv += ["--min-samples", str(_min_samples(workload)), "--probes", str(PROBES)]
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # the worker leads its own process group, so every probe it started
    # goes with it when this process is stopped or times out
    with subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9 * (1.0 + abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _end_to_end(res, workload):
    samples = res["samples"]
    tail = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PCT[workload] - 1]
    metrics = {
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(samples) / res["busy_s"],
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "cold_start_ms": statistics.median(res["cold_start_s"]) * 1e3,
    }
    info = {"samples": len(samples), "tail_pct": TAIL_PCT[workload], "sweeps": round(res["sweeps"], 2),
            "probes": len(res["setup_s"])}
    return metrics, info


def _per_layer(res, workload):
    n = res["traced_sweeps"]
    self_s = {k: res["self_s"].get(k, 0.0) / n for k in ACCOUNTS}
    sweep_s = res["traced_busy_s"] / n
    calls, pivots = res["lp_calls"] / n, res["lp_pivots"] / n
    metrics = {
        "lp.pivots": pivots,
        "lp.calls": calls,
        "lp.self_s": self_s["lp"],
        "lp.us_per_pivot": self_s["lp"] / pivots * 1e6 if pivots else 0.0,
        "lp.ms_per_call": self_s["lp"] / calls * 1e3 if calls else 0.0,
        "lp.infeasible_share": res["lp_infeasible"] / res["lp_calls"] if calls else 0.0,
        "lp.dense_mcells": res["lp_cells"] / n / 1e6,
        "vector.lp_calls_per_query": calls / res["ops_per_sweep"],
        "scalar.self_s": self_s["scalar"],
        "vector.self_s": self_s["vector"],
        "chain.self_s": self_s["chain"],
        "applications.self_s": self_s["applications"],
        "serialize.load_s": self_s["serialize.load"],
        "serialize.dump_s": self_s["serialize.dump"],
        "serialize.out_kb": res["out_bytes"] / n / 1024.0,
        "cli.self_s": self_s["cli"],
        "generate.s": res["generate_s"],
        "bench.self_s": sweep_s - sum(self_s.values()),
        "trace.sweep_s": sweep_s,
        "trace.overhead_frac": sweep_s / (res["untraced_busy_s"] / res["untraced_sweeps"]) - 1.0,
    }
    return metrics, {"traced_sweeps": n, "untraced_sweeps": res["untraced_sweeps"]}


def run_one(workload, seed, seconds, trace, smoke) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        res = _worker("trace" if trace else "run", workload, seed, seconds, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when empty
    values, info = (_per_layer if trace else _end_to_end)(res, workload)
    correct = res["failed"] == 0
    for err in res["errors"]:
        print(f"# error: {err}", file=sys.stderr)
    if seed == 0:
        ref = _load_json(os.path.join(HERE, "references.json"))["smoke" if smoke else "full"][workload]
        if not _same(res["answers"], ref):
            correct = False
            print(f"# error: answers differ from references.json: {json.dumps(res['answers'])}", file=sys.stderr)
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    info.update(nproc=os.cpu_count(), numpy=res["numpy"],
                blas=res["blas"].get("openblas configuration", res["blas"].get("name")),
                blas_threads=PINNED["OPENBLAS_NUM_THREADS"])
    print("# " + json.dumps({"workload": workload, "seed": seed, "trace": trace, **info}))
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report(seed, seconds, smoke) -> dict:
    """Every workload untraced and traced; print each metric with its unit."""
    moves = _load_json(os.path.join(HERE, "layers.json"))
    out = {"correct": True, "workloads": {}}
    for workload in TAIL_PCT:
        runs = {}
        for trace in (0, 1):
            result = run_one(workload, seed, seconds, trace, smoke)
            out["correct"] = out["correct"] and result["correct"]
            runs["traced" if trace else "untraced"] = result
            for name, m in result["metrics"].items():
                note = f"  -> {moves[name]}" if trace else ""
                print(f"{workload:16s} {name:26s} {m['value']:14.6g} {m['unit']:6s}{note}")
        out["workloads"][workload] = runs
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for testing the benchmark itself")
    ap.add_argument("--report", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through _worker
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not args.report and not args.workload:
        ap.error("give --workload or --report")
    if not os.path.isfile(os.path.join(SRC, "vecot", "__init__.py")):
        print(f"error: no vecot sources under {SRC}", file=sys.stderr)
        return 2
    if args.report:
        result = report(args.seed, args.seconds, args.smoke)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
