"""Serialization schema, seeded generation, golden suite, and CLI exit codes."""

import hashlib
import io
import json
import contextlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vecot import cli, golden, generate, serialize
from vecot.cli import main
from vecot.serialize import (
    SchemaError,
    canonical_dumps,
    loads,
    parse_problem,
    to_jsonable,
)

GAME_SEED1_SHA256 = "a7535f3e487287b00e9a1d8bc6fa9f594aa9da9b2734820b847027cdcec6fc34"


def run_cli(argv):
    """Call the CLI entry point, catching argparse-style SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(canonical_dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


MINIMAL_OT = {
    "kind": "scalar_ot",
    "payload": {
        "mu": {"space": {"labels": ["a", "b"]}, "weights": [0.4, 0.6]},
        "nu": {"space": {"labels": ["u", "v"]}, "weights": [0.5, 0.5]},
        "cost": [[0.0, 1.0], [1.0, 0.0]],
    },
}


class TestCanonicalJson:
    def test_round_trip_is_byte_stable(self):
        text = canonical_dumps(MINIMAL_OT)
        again = canonical_dumps(json.loads(text))
        assert text == again
        assert text.endswith("\n")

    def test_keys_sorted_and_compact(self):
        text = canonical_dumps({"b": 1, "a": [1.5, 2]})
        assert text == '{"a":[1.5,2],"b":1}\n'

    def test_numpy_values_serialize(self):
        obj = {
            "m": np.arange(4.0).reshape(2, 2),
            "i": np.int64(7),
            "f": np.float64(0.25),
            "b": np.bool_(True),
            "c": 1.0 + 2.0j,
        }
        parsed = json.loads(canonical_dumps(obj))
        assert parsed == {"m": [[0.0, 1.0], [2.0, 3.0]], "i": 7, "f": 0.25,
                          "b": True, "c": [1.0, 2.0]}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            to_jsonable({"x": np.inf})

    def test_shortest_float_repr_survives(self):
        # repr round-trips doubles exactly, so reparsing cannot drift
        v = 0.1 + 0.2
        assert json.loads(canonical_dumps({"v": v}))["v"] == v


class TestSchema:
    def test_minimal_problem_parses(self):
        pf = parse_problem(MINIMAL_OT)
        assert pf.kind == "scalar_ot"
        assert np.allclose(pf.data["mu"].weights, [0.4, 0.6])
        assert pf.data["cost"].shape == (2, 2)

    def test_negative_weight_names_the_entry(self):
        bad = json.loads(canonical_dumps(MINIMAL_OT))
        bad["payload"]["mu"]["weights"] = [0.4, 0.3, -0.5]
        bad["payload"]["mu"]["space"]["labels"] = ["a", "b", "c"]
        bad["payload"]["cost"] = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
        with pytest.raises(SchemaError) as exc:
            parse_problem(bad)
        assert "weights[2]" in str(exc.value)
        assert exc.value.path.endswith("weights[2]")

    def test_tiny_negative_weight_clamped(self):
        obj = json.loads(canonical_dumps(MINIMAL_OT))
        obj["payload"]["mu"]["weights"] = [0.4, -1e-12]
        pf = parse_problem(obj)
        assert pf.data["mu"].weights[1] == 0.0

    def test_nan_token_rejected(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"scalar_ot","payload":{"mu":{"space":{"labels":["a"]},'
                  '"weights":[NaN]},"nu":{"space":{"labels":["u"]},"weights":[1.0]},'
                  '"cost":[[0.0]]}}')

    def test_huge_literal_becomes_inf_and_is_rejected(self):
        with pytest.raises(SchemaError):
            loads('{"kind":"scalar_ot","payload":{"mu":{"space":{"labels":["a"]},'
                  '"weights":[1e999]},"nu":{"space":{"labels":["u"]},"weights":[1.0]},'
                  '"cost":[[0.0]]}}')

    def test_parse_error_reports_position(self):
        with pytest.raises(SchemaError) as exc:
            loads('{"kind": ')
        assert "line 1" in str(exc.value)
        assert "column" in str(exc.value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_problem({"kind": "mystery", "payload": {}})
        assert "kind" in str(exc.value)

    def test_ragged_matrix_rejected(self):
        bad = json.loads(canonical_dumps(MINIMAL_OT))
        bad["payload"]["cost"] = [[0.0, 1.0], [1.0]]
        with pytest.raises(SchemaError):
            parse_problem(bad)

    def test_nonpositive_tol_rejected(self):
        bad = json.loads(canonical_dumps(MINIMAL_OT))
        bad["tol"] = 0.0
        with pytest.raises(SchemaError):
            parse_problem(bad)

    def test_load_payload_accepts_both_shapes(self, tmp_path):
        wrapped = write(tmp_path, "w.json", MINIMAL_OT)
        bare = write(tmp_path, "b.json", MINIMAL_OT["payload"])
        for path in (wrapped, bare):
            data = serialize.load_payload(path, "scalar_ot")
            assert data["mu"].space.size == 2

    def test_load_payload_checks_kind(self, tmp_path):
        wrapped = write(tmp_path, "w.json", MINIMAL_OT)
        with pytest.raises(SchemaError):
            serialize.load_payload(wrapped, "game")


class TestGenerate:
    def test_deterministic_per_seed(self):
        for kind in serialize.KINDS:
            a = canonical_dumps(generate.gen(kind, 5).as_dict())
            b = canonical_dumps(generate.gen(kind, 5).as_dict())
            assert a == b, kind

    def test_seeds_differ(self):
        a = canonical_dumps(generate.gen("scalar_ot", 1).as_dict())
        b = canonical_dumps(generate.gen("scalar_ot", 2).as_dict())
        assert a != b

    def test_all_kinds_reparse(self):
        for kind in serialize.KINDS:
            pf = generate.gen(kind, 3)
            again = parse_problem(json.loads(canonical_dumps(pf.as_dict())))
            assert again.kind == kind

    def test_game_seed1_digest_frozen(self):
        text = canonical_dumps(generate.gen("game", 1).as_dict())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GAME_SEED1_SHA256

    def test_generated_dominance_is_feasible(self, tmp_path):
        from vecot.vector import dominates
        for seed in range(1, 6):
            data = generate.gen("dominance", seed).data
            ok, cert = dominates(data["mu"], data["nu"])
            assert ok, seed

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            generate.gen("mystery", 1)


class TestGoldenSuite:
    def test_all_items_pass(self):
        report = golden.run_suite()
        assert report["ok"]
        assert len(report["items"]) == 8
        for item in report["items"]:
            assert item["ok"], item

    def test_filter_selects_substring(self):
        report = golden.run_suite(only="chain")
        assert {i["name"] for i in report["items"]} == {
            "chain-power-identity", "chain-medium-duality",
        }

    def test_no_match_raises(self):
        with pytest.raises(ValueError):
            golden.run_suite(only="zzz-nothing")

    def test_zero_tolerance_fails_inexact_items(self):
        report = golden.run_suite(tol_override=0.0)
        assert not report["ok"]
        failed = {i["name"] for i in report["items"] if not i["ok"]}
        # items whose checks are exact in floating point keep passing
        assert "strong-domination-witness" not in failed
        assert failed  # at least one measured value carries roundoff

    def test_parallel_matches_serial(self):
        serial = golden.run_suite(jobs=1)
        parallel = golden.run_suite(jobs=4)
        assert [i["ok"] for i in serial["items"]] == [i["ok"] for i in parallel["items"]]


def residuals_of(path):
    out = json.loads(open(path).read())
    return out, out["diagnostics"]["residuals"]


class TestCliSolve:
    @pytest.mark.parametrize("variant,kind", [
        ("plain", "scalar_ot"), ("partial", "partial"), ("capacity", "capacity"),
        ("invariant", "invariant"), ("multi", "multi"), ("glue", "glue"),
        ("local", "local"), ("strassen", "strassen"),
    ])
    def test_variants_solve_generated_instances(self, tmp_path, variant, kind):
        prob = str(tmp_path / "p.json")
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["gen", "--kind", kind, "--seed", "3", "--output", prob, "--quiet"])
        assert rc == 0
        rc, _, _ = run_cli(["solve-ot", "--variant", variant, "--input", prob,
                            "--output", out, "--quiet"])
        assert rc == 0
        result, residuals = residuals_of(out)
        assert result["status"] in ("optimal", "feasible")
        assert max(residuals.values()) <= 1e-9
        if result["status"] == "optimal":
            assert result["gap"] <= 1e-7 * (1.0 + abs(result["value"]))
            assert "primalValue" in result and "dualValue" in result
        assert result["diagnostics"]["pivots"] >= 0
        assert result["diagnostics"]["wallMillis"] > 0

    def test_plain_result_revalidates_from_serialized_plan(self, tmp_path):
        prob = str(tmp_path / "p.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "scalar_ot", "--seed", "8", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["solve-ot", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        result = json.loads(open(out).read())
        payload = json.loads(open(prob).read())["payload"]
        plan = np.array(result["plan"])
        src = np.abs(plan.sum(axis=1) - payload["mu"]["weights"]).max()
        tgt = np.abs(plan.sum(axis=0) - payload["nu"]["weights"]).max()
        stored = result["diagnostics"]["residuals"]
        assert abs(src - stored["sourceMarginal"]) <= 1e-9
        assert abs(tgt - stored["targetMarginal"]) <= 1e-9
        # dual value recomputable from the serialized potentials
        dual = (np.array(result["psi"]) @ payload["mu"]["weights"]
                + np.array(result["phi"]) @ payload["nu"]["weights"])
        assert abs(dual - result["dualValue"]) <= 1e-9

    def test_infeasible_transport_exits_2_with_cert(self, tmp_path):
        prob = dict(MINIMAL_OT)
        prob["payload"] = dict(prob["payload"])
        prob["payload"]["nu"] = {"space": {"labels": ["u", "v"]}, "weights": [0.5, 0.6]}
        path = write(tmp_path, "bad.json", prob)
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["solve-ot", "--input", path, "--output", out, "--quiet"])
        assert rc == 2
        result = json.loads(open(out).read())
        assert result["status"] == "infeasible"
        assert "psi" in result["cert"] and "phi" in result["cert"]

    def test_vector_ot_solves(self, tmp_path):
        prob = str(tmp_path / "v.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "vector_ot", "--seed", "2", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["solve-vot", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        result, residuals = residuals_of(out)
        assert result["gap"] <= 1e-7 * (1.0 + abs(result["value"]))
        assert max(residuals.values()) <= 1e-9

    def test_stdout_emission_when_no_output(self, tmp_path):
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "scalar_ot", "--seed", "4", "--output", prob, "--quiet"])
        rc, stdout, _ = run_cli(["solve-ot", "--input", prob])
        assert rc == 0
        parsed = json.loads(stdout)
        assert parsed["status"] == "optimal"

    def test_quiet_suppresses_stdout(self, tmp_path):
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "scalar_ot", "--seed", "4", "--output", prob, "--quiet"])
        rc, stdout, _ = run_cli(["solve-ot", "--input", prob, "--quiet"])
        assert rc == 0
        assert stdout == ""


class TestCliDominate:
    def write_pair(self, tmp_path, mu_vals, nu_vals, mu_ref, nu_ref):
        mu = {"space": {"labels": [f"x{i}" for i in range(len(mu_vals))]},
              "values": mu_vals, "refWeights": mu_ref}
        nu = {"space": {"labels": [f"y{i}" for i in range(len(nu_vals))]},
              "values": nu_vals, "refWeights": nu_ref}
        return write(tmp_path, "mu.json", mu), write(tmp_path, "nu.json", nu)

    def test_feasible_pair_exits_0_with_kernel(self, tmp_path):
        mu_p, nu_p = self.write_pair(
            tmp_path,
            [[0.3, 0.3], [0.7, 0.7]], [[1.0, 1.0]], [0.5, 0.5], [1.0],
        )
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["dominate", "--mu", mu_p, "--nu", nu_p,
                            "--output", out, "--quiet"])
        assert rc == 0
        result = json.loads(open(out).read())
        assert result["dominates"] is True
        rows = np.array(result["kernel"])
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert result["diagnostics"]["residuals"]["pushforwardResidual"] <= 1e-9

    def test_infeasible_pair_exits_2_with_potentials(self, tmp_path):
        mu_p, nu_p = self.write_pair(
            tmp_path,
            [[0.0, 0.9], [1.0, 0.1]], [[2.0, 2.0]], [0.5, 0.5], [1.0],
        )
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["dominate", "--mu", mu_p, "--nu", nu_p,
                            "--output", out, "--quiet"])
        assert rc == 2
        result = json.loads(open(out).read())
        assert result["dominates"] is False
        assert "psi" in result["cert"] and "phi" in result["cert"]

    def test_blockwise_and_strong_modes(self, tmp_path):
        prob = generate.gen("dominance", 4)
        mu_p = write(tmp_path, "mu.json", prob.as_dict()["payload"]["mu"])
        nu_p = write(tmp_path, "nu.json", prob.as_dict()["payload"]["nu"])
        rc, _, _ = run_cli(["dominate", "--mu", mu_p, "--nu", nu_p, "--n", "2", "--quiet"])
        assert rc == 0
        rc, _, _ = run_cli(["dominate", "--mu", mu_p, "--nu", nu_p, "--strong", "--quiet"])
        assert rc == 0

    def test_blackwell_report_round_trips(self, tmp_path):
        mu_p, nu_p = self.write_pair(
            tmp_path,
            [[0.3, 0.3], [0.7, 0.7]], [[1.0, 1.0]], [0.5, 0.5], [1.0],
        )
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["dominate", "--mu", mu_p, "--nu", nu_p, "--blackwell",
                            "--samples", "16", "--seed", "7", "--output", out, "--quiet"])
        assert rc == 0
        rep = json.loads(open(out).read())["report"]
        assert rep["plan_feasible"] == rep["kernel_feasible"] is True
        assert rep["jensen"]["min_gap"] >= -1e-8
        assert rep["cert"]["kind"] == "kernel"

    def test_input_file_matches_split_files(self, tmp_path):
        pf = generate.gen("dominance", 4)
        mu_p = write(tmp_path, "mu.json", pf.payload["mu"])
        nu_p = write(tmp_path, "nu.json", pf.payload["nu"])
        wrapped = write(tmp_path, "dom.json", pf.as_dict())
        bare = write(tmp_path, "bare.json", pf.payload)
        for mode in ([], ["--n", "2"], ["--strong"], ["--blackwell", "--seed", "3"]):
            texts = []
            for source in (["--mu", mu_p, "--nu", nu_p], ["--input", wrapped],
                           ["--input", bare]):
                out = str(tmp_path / "o.json")
                rc, _, _ = run_cli(["dominate", *source, *mode, "--output", out, "--quiet"])
                assert rc == 0, mode
                texts.append(re.sub(r'"wallMillis":[^,}]+', "", open(out).read()))
            assert texts[0] == texts[1] == texts[2], mode


class TestCliOther:
    def test_refine_reports_spread_trend(self, tmp_path):
        targets = write(tmp_path, "t.json", {"values": [[0.2, 0.1], [0.8, 0.9]]})
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["refine", "--density", "1,2x", "--targets", targets,
                            "--grids", "25,100", "--output", out, "--quiet"])
        assert rc == 0
        result = json.loads(open(out).read())
        assert [e["N"] for e in result["entries"]] == [25, 100]
        assert result["spreadTrend"] in ("stable", "increasing", "mixed")
        assert all(e["gap"] <= 1e-7 for e in result["entries"])

    def test_refine_rejects_bad_density(self, tmp_path):
        targets = write(tmp_path, "t.json", {"values": [[0.2], [0.8]]})
        rc, _, err = run_cli(["refine", "--density", "1,2y", "--targets", targets,
                              "--grids", "25", "--quiet"])
        assert rc == 3
        assert "density" in err

    def test_chain_plans_link_and_average(self, tmp_path):
        prob = str(tmp_path / "c.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "chain", "--seed", "11", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["chain", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        result, residuals = residuals_of(out)
        hops = json.loads(open(prob).read())["payload"]["hops"]
        assert result["hops"] == hops
        assert len(result["plans"]) == hops + 1
        assert max(residuals.values()) <= 1e-9

    def test_chain_hop_override_and_free_medium(self, tmp_path):
        prob = str(tmp_path / "c.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "chain", "--seed", "11", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["chain", "--input", prob, "--n", "3", "--output", out, "--quiet"])
        assert rc == 0
        assert len(json.loads(open(out).read())["plans"]) == 4
        rc, _, _ = run_cli(["chain", "--input", prob, "--free-medium",
                            "--output", out, "--quiet"])
        assert rc == 0
        free = json.loads(open(out).read())
        assert free["freeMedium"] is True

    def test_game_value_and_restriction(self, tmp_path):
        prob = str(tmp_path / "g.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "game", "--seed", "1", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["game", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        full = json.loads(open(out).read())
        assert max(full["diagnostics"]["residuals"].values()) <= 1e-8
        ny = len(json.loads(open(prob).read())["payload"]["payoff"][0])
        restrict = write(tmp_path, "r.json", {
            "space": {"labels": [f"y{j}" for j in range(ny)]},
            "weights": [1.0, 1.0] + [0.0] * (ny - 2),
        })
        rc, _, _ = run_cli(["game", "--input", prob, "--restrict", restrict,
                            "--output", out, "--quiet"])
        assert rc == 0
        sub = json.loads(open(out).read())
        # fewer columns can only help the row player
        assert sub["value"] >= full["value"] - 1e-8
        assert sum(sub["colStrategy"][2:]) == 0.0

    def test_moment_flag_form_and_infeasible(self, tmp_path):
        M = write(tmp_path, "M.json", [[0.0, 0.0, 0.0]])
        m = write(tmp_path, "m.json", [1.0])
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["moment", "--M", M, "--m", m, "--output", out, "--quiet"])
        assert rc == 2
        result = json.loads(open(out).read())
        assert result["certFloor"] >= -1e-12
        assert result["certMargin"] < -1e-9

    def test_moment_wrapped_input(self, tmp_path):
        prob = str(tmp_path / "p.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "moment", "--seed", "5", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["moment", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        result, residuals = residuals_of(out)
        assert result["status"] == "feasible"
        assert residuals["momentResidual"] <= 1e-8

    def test_moment_without_inputs_is_usage_error(self):
        rc, _, err = run_cli(["moment", "--quiet"])
        assert rc == 3

    def test_trig_flag_and_wrapped_forms(self, tmp_path):
        coeffs = write(tmp_path, "c.json", {"coeffs": [[1.0, 0.0], [1.2, 0.0]]})
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["trig", "--coeffs", coeffs, "--grid", "64",
                            "--output", out, "--quiet"])
        assert rc == 2
        result = json.loads(open(out).read())
        assert result["psd"] is False and result["lpFeasible"] is False
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "trig", "--seed", "2", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["trig", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        assert json.loads(open(out).read())["status"] == "feasible"

    def test_conj_and_infconv(self, tmp_path):
        xs = np.linspace(-1.0, 1.0, 33)
        f = write(tmp_path, "f.json", {"grid": list(xs), "values": list(0.5 * xs**2)})
        g = write(tmp_path, "g.json", {"grid": list(xs), "values": list(xs**2)})
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["conj", "--input", f, "--output", out, "--quiet"])
        assert rc == 0
        result = json.loads(open(out).read())
        # x^2/2 is its own conjugate on a symmetric grid
        assert result["operation"] == "conjugate"
        assert np.max(np.abs(np.array(result["values"])
                             - 0.5 * np.array(result["grid"])**2)) <= 1e-12
        rc, _, _ = run_cli(["conj", "--input", f, "--infconv", g,
                            "--output", out, "--quiet"])
        assert rc == 0
        assert json.loads(open(out).read())["operation"] == "infConvolution"


class TestCliExitCodes:
    def test_usage_errors_exit_3(self):
        rc, _, _ = run_cli(["frobnicate"])
        assert rc == 3
        rc, _, _ = run_cli(["solve-ot", "--variant", "nope", "--input", "x.json"])
        assert rc == 3
        rc, _, _ = run_cli(["solve-ot", "--quiet"])
        assert rc == 3

    def test_schema_errors_exit_3(self, tmp_path):
        bad = json.loads(canonical_dumps(MINIMAL_OT))
        bad["payload"]["mu"]["weights"] = [0.4, -0.5]
        path = write(tmp_path, "neg.json", bad)
        rc, _, err = run_cli(["solve-ot", "--input", path, "--quiet"])
        assert rc == 3
        assert "weights[1]" in err
        broken = tmp_path / "broken.json"
        broken.write_text('{"kind": ')
        rc, _, err = run_cli(["solve-ot", "--input", str(broken), "--quiet"])
        assert rc == 3
        assert "line 1" in err
        rc, _, _ = run_cli(["solve-ot", "--input", str(tmp_path / "missing.json"), "--quiet"])
        assert rc == 3

    def test_impossible_tolerance_exits_4(self, tmp_path):
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "scalar_ot", "--seed", "1", "--output", prob, "--quiet"])
        rc, _, err = run_cli(["solve-ot", "--input", prob, "--tol", "0", "--quiet"])
        assert rc == 4
        assert "breakdown" in err

    def test_env_tolerance_respected(self, tmp_path, monkeypatch):
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "scalar_ot", "--seed", "1", "--output", prob, "--quiet"])
        monkeypatch.setenv("VECOT_TOL", "1e-20")
        rc, _, _ = run_cli(["solve-ot", "--input", prob, "--quiet"])
        assert rc == 4
        monkeypatch.setenv("VECOT_TOL", "0.5")
        rc, _, _ = run_cli(["solve-ot", "--input", prob, "--quiet"])
        assert rc == 0

    @pytest.mark.parametrize("argv,flag", [
        (["game", "--input", "{game}", "--tol", "0"], "--tol"),
        (["chain", "--input", "{chain}", "--seed", "1"], "--seed"),
        (["gen", "--kind", "game", "--jobs", "2"], "--jobs"),
        (["verify", "--input", "x"], "--input"),
        (["refine", "--density", "1,2x", "--targets", "{targets}", "--grids", "10",
          "--tol", "1"], "--tol"),
        (["dominate", "--mu", "{mu}", "--nu", "{nu}", "--n", "2", "--strong"], "--strong"),
        (["dominate", "--mu", "{mu}", "--nu", "{nu}", "--seed", "1"], "--seed"),
        (["dominate", "--mu", "{mu}", "--nu", "{nu}", "--samples", "8"], "--samples"),
        (["dominate", "--input", "{dom}", "--mu", "{mu}", "--nu", "{nu}"], "--input"),
    ])
    def test_flags_a_command_does_not_honour_exit_3(self, tmp_path, argv, flag):
        paths = {
            "targets": write(tmp_path, "t.json", {"values": [[0.2, 0.1], [0.8, 0.9]]}),
        }
        for kind in ("game", "chain"):
            paths[kind] = write(tmp_path, f"{kind}.json", generate.gen(kind, 1).as_dict())
        dom = generate.gen("dominance", 1)
        paths["dom"] = write(tmp_path, "dom.json", dom.as_dict())
        paths["mu"] = write(tmp_path, "mu.json", dom.payload["mu"])
        paths["nu"] = write(tmp_path, "nu.json", dom.payload["nu"])
        rc, _, err = run_cli([a.format(**paths) for a in argv] + ["--quiet"])
        assert rc == 3
        assert flag in err

    @pytest.mark.parametrize("command,key", [("solve-ot", "plan"), ("dominate", "kernel")])
    def test_result_failing_revalidation_is_not_written(
        self, tmp_path, monkeypatch, command, key
    ):
        if command == "solve-ot":
            argv = ["solve-ot", "--input", write(tmp_path, "p.json", MINIMAL_OT)]
        else:
            mu = {"space": {"labels": ["x0", "x1"]}, "values": [[0.3, 0.3], [0.7, 0.7]]}
            nu = {"space": {"labels": ["y0"]}, "values": [[1.0, 1.0]]}
            argv = ["dominate", "--mu", write(tmp_path, "mu.json", mu),
                    "--nu", write(tmp_path, "nu.json", nu)]
        dumps = cli.canonical_dumps

        def perturbed(result):
            matrix = np.array(result[key], dtype=float)
            matrix[0, 0] += 0.1
            return dumps({**result, key: matrix})

        monkeypatch.setattr(cli, "canonical_dumps", perturbed)
        out = tmp_path / "o.json"
        rc, _, err = run_cli(argv + ["--output", str(out), "--quiet"])
        assert rc == 4
        assert "revalidation" in err
        assert not out.exists()


class TestCliVerify:
    def test_full_suite_passes(self, tmp_path):
        out = str(tmp_path / "report.json")
        rc, stdout, _ = run_cli(["verify", "--output", out])
        assert rc == 0
        lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 8
        assert all(l.startswith("PASS") for l in lines)
        report = json.loads(open(out).read())
        assert report["ok"] is True

    def test_only_filter(self):
        rc, stdout, _ = run_cli(["verify", "--only", "chain"])
        assert rc == 0
        assert len([l for l in stdout.splitlines() if l.startswith("PASS")]) == 2

    def test_corrupted_tolerance_fails_nonzero(self):
        rc, stdout, _ = run_cli(["verify", "--tol", "0"])
        assert rc == 1
        assert any(l.startswith("FAIL") for l in stdout.splitlines())

    def test_no_matching_item_is_schema_error(self):
        rc, _, _ = run_cli(["verify", "--only", "zzz-none"])
        assert rc == 3


class TestGenCli:
    def test_gen_digest_through_cli(self, tmp_path):
        out = str(tmp_path / "g.json")
        rc, _, _ = run_cli(["gen", "--kind", "game", "--seed", "1",
                            "--output", out, "--quiet"])
        assert rc == 0
        digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
        assert digest == GAME_SEED1_SHA256

    def test_gen_stdout(self):
        rc, stdout, _ = run_cli(["gen", "--kind", "scalar_ot", "--seed", "2"])
        assert rc == 0
        parsed = json.loads(stdout)
        assert parsed["kind"] == "scalar_ot"

    def test_gen_rejects_unknown_kind(self):
        rc, _, _ = run_cli(["gen", "--kind", "mystery"])
        assert rc == 3


def test_console_script_round_trip(tmp_path):
    """The installed entry point runs the gen -> solve pipeline."""
    prob = str(tmp_path / "p.json")
    out = str(tmp_path / "o.json")
    r1 = subprocess.run(
        [sys.executable, "-m", "vecot.cli", "gen", "--kind", "scalar_ot",
         "--seed", "6", "--output", prob, "--quiet"],
        capture_output=True, text=True,
    )
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "vecot.cli", "solve-ot", "--input", prob,
         "--output", out, "--quiet"],
        capture_output=True, text=True,
    )
    assert r2.returncode == 0, r2.stderr
    result = json.loads(open(out).read())
    assert result["status"] == "optimal"


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """Every `vecot ...` line of README's command-line example exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("vecot ")]
    assert len(lines) >= 4
    monkeypatch.chdir(tmp_path)
    for line in lines:
        rc, _, err = run_cli(shlex.split(line, comments=True)[1:])
        assert rc == 0, (line, err)
