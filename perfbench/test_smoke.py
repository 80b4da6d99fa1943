"""Tests of the benchmark itself, at toy sizes.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _last_json(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def report():
    # seed 0 also compares every answer with references.json
    return _last_json([RUN, "--report", "--smoke", "--seed", "0", "--seconds", "0.2"])


def test_report_prints_every_metric_with_unit_for_every_workload(report):
    assert report["correct"]
    for workload in SPEC["workloads"]:
        runs = report["workloads"][workload["name"]]
        for run, section in (("untraced", "end_to_end"), ("traced", "per_layer")):
            result = runs[run]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
            for m in SPEC[section]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_every_per_layer_metric_says_what_it_should_move():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        moves = json.load(fh)
    assert set(moves) == {m["name"] for m in SPEC["per_layer"]}


def test_layer_self_times_account_for_traced_time(report):
    for runs in report["workloads"].values():
        m = {k: v["value"] for k, v in runs["traced"]["metrics"].items()}
        layers = [k for k in m if k.endswith("self_s") and k != "bench.self_s"]
        layers += ["serialize.load_s", "serialize.dump_s"]
        assert math.isclose(sum(m[k] for k in layers) + m["bench.self_s"], m["trace.sweep_s"], rel_tol=1e-9)
        assert 0.0 <= m["bench.self_s"] <= 0.2 * m["trace.sweep_s"]


@pytest.mark.parametrize("workload", ["ot-dense", "cli-mix"])
def test_lp_counts_repeat_exactly(workload):
    argv = [RUN, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "1", "--smoke"]
    first, second = _last_json(argv)["metrics"], _last_json(argv)["metrics"]
    for name in ("lp.pivots", "lp.calls"):
        assert first[name]["value"] == second[name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
