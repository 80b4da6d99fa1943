"""The package imports its submodules on first use, in a fresh process."""

import json
import os
import subprocess
import sys

import pytest

import vecot
from vecot import cli, generate, serialize

SRC = os.path.dirname(os.path.dirname(os.path.abspath(vecot.__file__)))


def _run(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_solve_ot_loads_no_module_it_does_not_call(tmp_path):
    problem, result = str(tmp_path / "p.json"), str(tmp_path / "r.json")
    serialize.save(generate.gen("scalar_ot", 0), problem)
    code = """
import json, sys
import vecot.cli
rc = vecot.cli.main(["solve-ot", "--input", sys.argv[1], "--output", sys.argv[2], "--quiet"])
print(json.dumps({"rc": rc, "loaded": sorted(m for m in sys.modules if m.startswith("vecot"))}))
"""
    out = _run(code, problem, result)
    assert out["rc"] == 0
    assert out["loaded"] == [f"vecot{m}" for m in (
        "", ".cli", ".kinds", ".lp", ".measures", ".network", ".scalar", ".serialize",
        ".tolerances",
    )]
    with open(result, encoding="utf-8") as fh:
        assert json.load(fh)["status"] == "optimal"


SUBMODULES = ("applications", "chain", "cli", "generate", "golden", "kinds", "lp", "measures",
              "network", "scalar", "serialize", "tolerances", "vector")


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_imports_first_in_a_fresh_process(module):
    code = """
import importlib, json, sys
m = importlib.import_module("vecot." + sys.argv[1])
print(json.dumps({"name": m.__name__}))
"""
    assert _run(code, module) == {"name": f"vecot.{module}"}


def test_exports_resolve_to_the_objects_their_modules_define():
    code = """
import importlib, json, sys
import vecot
names = {}
for name in vecot.__all__:
    obj = getattr(vecot, name)
    names[name] = obj is getattr(importlib.import_module(obj.__module__), name)
star = {}
exec("from vecot import *", star)
submodules = sys.argv[1:]
print(json.dumps({
    "all": vecot.__all__,
    "names": names,
    "star": sorted(k for k in star if k != "__builtins__"),
    "submodules": [getattr(vecot, m) is importlib.import_module("vecot." + m) for m in submodules],
    "dir": set(vecot.__all__) <= set(dir(vecot)),
}))
"""
    out = _run(code, *SUBMODULES)
    assert len(out["all"]) == 71 and out["all"] == sorted(set(out["all"]))
    assert all(out["names"].values()), [n for n, ok in out["names"].items() if not ok]
    assert out["star"] == out["all"]
    assert all(out["submodules"])
    assert out["dir"]


def test_no_command_loads_numpy_random(tmp_path):
    # every command shape of the CLI, then the golden suite, in one process;
    # numpy loads numpy.random on first touch of the attribute
    code = """
import json, os, sys
import vecot.cli
from vecot import generate, serialize
work = sys.argv[1]
shapes = [(["solve-ot", "--variant", v], k) for v, k in sorted(vecot.cli.VARIANT_KIND.items())]
shapes += [(["solve-vot"], "vector_ot"), (["dominate"], "dominance"),
           (["dominate", "--n", "2"], "dominance"), (["dominate", "--blackwell"], "dominance"),
           (["chain"], "chain"), (["chain", "--free-medium"], "chain"), (["game"], "game"),
           (["moment"], "moment"), (["trig"], "trig"), (["conj"], "conjugate")]
rcs = {}
for i, (argv, kind) in enumerate(shapes):
    pf = generate.gen(kind, 0)
    base = os.path.join(work, str(i))
    if kind == "dominance":
        for side in ("mu", "nu"):
            serialize.save(pf.payload[side], f"{base}.{side}.json")
        files = ["--mu", f"{base}.mu.json", "--nu", f"{base}.nu.json"]
    else:
        serialize.save(pf, f"{base}.json")
        files = ["--input", f"{base}.json"]
    rcs[" ".join(argv)] = vecot.cli.main(argv + files + ["--output", f"{base}.out.json", "--quiet"])
rcs["verify"] = vecot.cli.main(["verify", "--quiet"])
print(json.dumps({"rcs": rcs, "random": sorted(m for m in sys.modules if m.startswith("numpy.random"))}))
"""
    out = _run(code, str(tmp_path))
    assert out["rcs"].pop("verify") == 0
    assert len(out["rcs"]) == len(cli.VARIANT_KIND) + 10
    assert set(out["rcs"].values()) <= {0, 2}, out["rcs"]
    assert out["random"] == []
