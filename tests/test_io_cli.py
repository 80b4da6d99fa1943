"""Serialization schema, seeded generation, golden suite, and CLI exit codes."""

import argparse
import hashlib
import io
import json
import contextlib
import os
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
# canonical gen output over GEN_DIGEST_CASES, concatenated in order
GEN_DIGEST_SHA256 = "cb67b1912041d31304d72745fbbdfede74d7d90cc38672ee7524e0be2213d37b"
GEN_DIGEST_CASES = (
    [(kind, seed, None) for kind in sorted(serialize.KINDS) for seed in range(20)]
    + [
        (kind, seed, {"nx": n, "ny": n})
        for kind, n in (("scalar_ot", 50), ("partial", 50), ("capacity", 30))
        for seed in range(5)
    ]
)


def run_cli(argv):
    """Call the CLI entry point, catching argparse-style SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_json(path):
    return json.loads(read_text(path))


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

    @staticmethod
    def element_dumps(obj):
        """canonical_dumps with every array converted element by element."""
        def convert(x):
            if isinstance(x, dict):
                return {str(k): convert(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [convert(v) for v in x]
            if isinstance(x, np.ndarray):
                return [convert(v) for v in x.tolist()]
            if isinstance(x, (np.floating, float)):
                v = float(x)
                if not np.isfinite(v):
                    raise ValueError(f"cannot serialize non-finite value {v!r}")
                return v
            if isinstance(x, np.integer):
                return int(x)
            if isinstance(x, np.bool_):
                return bool(x)
            if isinstance(x, complex):
                return [x.real, x.imag]
            return x

        return json.dumps(convert(obj), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"

    def test_array_fast_path_matches_element_path(self):
        rng = np.random.default_rng(3)
        obj = {
            "f": rng.normal(size=(3, 4)),
            "f32": rng.normal(size=5).astype(np.float32),
            "f128": rng.normal(size=3).astype(np.longdouble),
            "tiny": np.array([5e-324, -0.0, 1e308, 0.1 + 0.2]),
            "i": np.arange(-3, 6).reshape(3, 3),
            "u": np.array([0, 2**63], dtype=np.uint64),
            "b": np.array([[True, False]]),
            "c": np.array([1.0 + 2.0j, -0.5j]),
            "o": np.array([1, 2.5, np.float64(3.0)], dtype=object),
            "empty": [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0), dtype=int)],
            "nested": [{"x": np.eye(2), "y": (np.int64(4), np.float64(0.5))}],
            # plain Python lists: numbers, and lists of numbers, go in one step
            "rows": [[0.5, 0.1 + 0.2, -0.0], [5e-324, 1e308]],
            "ints": [[1, -2], [2**70, 0]],
            "mixed": [[1, 2.5], [3.0, 4]],
            "others": [[True, 1.0], [np.float64(0.5), 2.0], (1.0, 2), [[1.5]], [], [[], []]],
        }
        assert canonical_dumps(obj) == self.element_dumps(obj)
        for zero_d in (np.array(1.5), np.array(2), np.array(True), np.array(1j)):
            # a 0-d array serializes as the plain scalar it holds
            assert canonical_dumps({"z": zero_d}) == self.element_dumps({"z": zero_d.item()})
        with pytest.raises(ValueError):
            canonical_dumps({"z": np.array(np.inf)})
        for bad in (np.nan, np.inf, -np.inf):
            arr = np.array([[0.0, 1.0], [bad, np.nan]])
            for a in ([arr], arr.tolist(), [0.5, bad], [1, bad], [[1, 0.5], [bad]]):
                with pytest.raises(ValueError) as want:
                    self.element_dumps({"a": a})
                with pytest.raises(ValueError) as got:
                    canonical_dumps({"a": a})
                assert str(got.value) == str(want.value)

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

    def test_multimarginal_cost_entries_must_be_numbers(self):
        def multi(cost):
            measure = {"space": {"labels": ["a", "b"]}, "weights": [0.5, 0.5]}
            return {"kind": "multi", "payload": {"measures": [measure, measure], "cost": cost}}

        assert parse_problem(multi([[0, 1.5], [1, 0]])).data["cost"].tolist() == [[0, 1.5], [1, 0]]
        for cost, where in (
            ([[True, 2], [0, 1]], "cost[0][0]"),
            ([[1, "2"], [0, 1]], "cost[0][1]"),
            ([[1, 2], [0]], "cost[1]"),
            ([[1, 2], [0, 1], [2, 2]], "cost"),
        ):
            with pytest.raises(SchemaError) as exc:
                parse_problem(multi(cost))
            assert exc.value.path.endswith(where), (cost, exc.value.path)

    def test_valid_arrays_are_read_without_the_entry_walk(self, monkeypatch):
        obj = generate.gen("scalar_ot", 3, {"nx": 300, "ny": 300}).as_dict()
        calls = []

        def counted(x, path):
            calls.append(path)
            return number(x, path)

        number = serialize._number
        monkeypatch.setattr(serialize, "_number", counted)
        assert parse_problem(obj).data["cost"].shape == (300, 300)
        assert calls == []

    def test_nonpositive_tol_rejected(self):
        # no command reads a tolerance from the file, so any "tol" is rejected
        for tol in (0.0, 1e-300):
            bad = json.loads(canonical_dumps(MINIMAL_OT))
            bad["tol"] = tol
            with pytest.raises(SchemaError) as exc:
                parse_problem(bad)
            assert exc.value.path == "$.tol"

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

    def test_gen_output_digest_frozen(self):
        digest = hashlib.sha256()
        for kind, seed, size in GEN_DIGEST_CASES:
            digest.update(canonical_dumps(generate.gen(kind, seed, size).as_dict()).encode())
        assert digest.hexdigest() == GEN_DIGEST_SHA256

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_block_draws_equal_scalar_draws(self, seed):
        block, scalar = generate.SplitMix64(seed), generate.SplitMix64(seed)
        assert block.floats(7, -1.0, 3.0) == [scalar.uniform(-1.0, 3.0) for _ in range(7)]
        assert block.matrix(3, 4) == [[scalar.uniform() for _ in range(4)] for _ in range(3)]
        assert block.state == scalar.state
        assert block.next64() == scalar.next64()

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

    def test_unknown_size_key_raises(self):
        with pytest.raises(TypeError, match="'n'"):
            generate.gen("scalar_ot", 1, {"n": 300})


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


def residuals_of(path):
    out = read_json(path)
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
        result = read_json(out)
        payload = read_json(prob)["payload"]
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
        result = read_json(out)
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
        assert run_cli(["gen", "--kind", "scalar_ot", "--seed", "4", "--quiet"]) == (0, "", "")
        rc, stdout, _ = run_cli(["gen", "--kind", "scalar_ot", "--seed", "4"])
        assert rc == 0 and stdout == Path(prob).read_text()


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
        result = read_json(out)
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
        result = read_json(out)
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
        rep = read_json(out)["report"]
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
                texts.append(re.sub(r'"wallMillis":[^,}]+', "", read_text(out)))
            assert texts[0] == texts[1] == texts[2], mode

    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_blackwell_rejects_fewer_than_one_sample(self, tmp_path, samples):
        dom = write(tmp_path, "dom.json", generate.gen("dominance", 4).as_dict())
        rc, _, err = run_cli(["dominate", "--input", dom, "--blackwell",
                              "--samples", samples, "--quiet"])
        assert rc == 3
        assert f"g_samples must be at least 1, got {samples}" in err


def masked_result(tmp_path, argv):
    """Exit code and output text of a CLI run, with its wall time removed."""
    out = str(tmp_path / "o.json")
    rc, _, err = run_cli([*argv, "--output", out, "--quiet"])
    assert rc in (0, 2), (argv, err)
    return rc, re.sub(r'"wallMillis":[^,}]+', "", read_text(out))


class TestCliInputForms:
    """A problem gives the same bytes through --input, wrapped or bare, and
    through the flag files that stand in for --input."""

    def same_result(self, tmp_path, command, *sources):
        results = [masked_result(tmp_path, [*command, *source]) for source in sources]
        assert all(r == results[0] for r in results), command

    @pytest.mark.parametrize("seed", [1, 5])
    def test_moment(self, tmp_path, seed):
        pf = generate.gen("moment", seed)
        M, m = pf.payload["functions"], pf.payload["target"]
        self.same_result(
            tmp_path, ["moment"],
            ["--input", write(tmp_path, "w.json", pf.as_dict())],
            ["--input", write(tmp_path, "b.json", pf.payload)],
            ["--M", write(tmp_path, "M.json", M), "--m", write(tmp_path, "m.json", m)],
            ["--M", write(tmp_path, "Mk.json", {"functions": M}),
             "--m", write(tmp_path, "mk.json", {"target": m})],
        )

    @pytest.mark.parametrize("grid", [None, "48"])
    def test_trig(self, tmp_path, grid):
        pf = generate.gen("trig", 2)
        coeffs = pf.payload["coeffs"]
        size = ["--grid", grid or str(pf.payload["gridSize"])]
        override = ["--grid", grid] if grid else []
        self.same_result(
            tmp_path, ["trig"],
            ["--input", write(tmp_path, "w.json", pf.as_dict()), *override],
            ["--input", write(tmp_path, "b.json", pf.payload), *override],
            ["--coeffs", write(tmp_path, "c.json", coeffs), *size],
            ["--coeffs", write(tmp_path, "ck.json", {"coeffs": coeffs}), *size],
        )

    def test_conj_and_infconv(self, tmp_path):
        pf = generate.gen("conjugate", 3)
        forms = [write(tmp_path, "w.json", pf.as_dict()), write(tmp_path, "b.json", pf.payload),
                 write(tmp_path, "f.json", pf.payload["f"])]
        self.same_result(tmp_path, ["conj"], *(["--input", p] for p in forms))
        other = generate.gen("conjugate", 4)
        others = [write(tmp_path, "ow.json", other.as_dict()),
                  write(tmp_path, "ob.json", other.payload),
                  write(tmp_path, "of.json", other.payload["f"])]
        self.same_result(tmp_path, ["conj", "--input", forms[2]],
                         *(["--infconv", p] for p in others))

    def test_infconv_reads_a_wrapped_problem(self, tmp_path):
        wrapped = write(tmp_path, "p.json", generate.gen("conjugate", 1).as_dict())
        out = str(tmp_path / "o.json")
        rc, _, err = run_cli(["conj", "--input", wrapped, "--infconv", wrapped,
                              "--output", out, "--quiet"])
        assert rc == 0, err
        assert read_json(out)["operation"] == "infConvolution"

    def test_game_restrict(self, tmp_path):
        pf = generate.gen("game", 1)
        ny = len(pf.payload["payoff"][0])
        restrict = {"space": {"labels": [f"y{j}" for j in range(ny)]},
                    "weights": [1.0, 1.0] + [0.0] * (ny - 2)}
        held = {**pf.payload, "restrict": restrict}
        self.same_result(
            tmp_path, ["game"],
            ["--input", write(tmp_path, "w.json", pf.as_dict()),
             "--restrict", write(tmp_path, "r.json", restrict)],
            ["--input", write(tmp_path, "wr.json", {"kind": "game", "payload": held})],
            ["--input", write(tmp_path, "br.json", held)],
        )

    @pytest.mark.parametrize("kind,flag,key,value", [
        ("chain", "--n", "hops", -1), ("trig", "--grid", "gridSize", 5),
        ("trig", "--grid", "gridSize", 0),
    ])
    @pytest.mark.parametrize("wrapped", [True, False])
    def test_value_flag_is_checked_as_the_file_is(self, tmp_path, kind, flag, key, value,
                                                  wrapped):
        pf = generate.gen(kind, 1)
        doc = json.loads(canonical_dumps(pf.as_dict() if wrapped else pf.payload))
        rc, _, err = run_cli([kind, "--input", write(tmp_path, "p.json", doc),
                              flag, str(value)])
        (doc["payload"] if wrapped else doc)[key] = value
        rc_file, _, err_file = run_cli([kind, "--input", write(tmp_path, "v.json", doc)])
        assert rc == rc_file == 3 and err == err_file, (err, err_file)

    def test_bad_flag_file_names_its_payload_key(self, tmp_path):
        pf = generate.gen("dominance", 1)
        bad_mu = json.loads(canonical_dumps(pf.payload["mu"]))
        bad_mu["values"][0][1] = -1.0
        rc, _, err = run_cli(["dominate", "--mu", write(tmp_path, "mu.json", bad_mu),
                              "--nu", write(tmp_path, "nu.json", pf.payload["nu"])])
        assert rc == 3 and "$.mu.values[0][1]" in err
        rc, _, err = run_cli(["moment", "--M", write(tmp_path, "M.json", [[1.0, "x"]]),
                              "--m", write(tmp_path, "m.json", [1.0])])
        assert rc == 3 and "$.functions[0][1]" in err


def test_every_problem_command_reads_its_kind_wrapped_and_bare(tmp_path):
    """Each subcommand that takes --input names a kind of `serialize.KINDS`,
    and gives the same bytes for a gen instance of it, wrapped or bare."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    shapes = []
    for name, sub in commands.choices.items():
        if not any("--input" in a.option_strings for a in sub._actions):
            continue
        if name == "solve-ot":
            shapes += [([name, "--variant", v], kind) for v, kind in cli.VARIANT_KIND.items()]
        else:
            shapes.append(([name], sub.get_default("kind")))
    assert {argv[0] for argv, _ in shapes} == {
        "solve-ot", "solve-vot", "dominate", "chain", "game", "moment", "trig", "conj"}
    for argv, kind in shapes:
        assert kind in serialize.KINDS, argv
        for seed in range(3):
            pf = generate.gen(kind, seed)
            wrapped = write(tmp_path, "w.json", pf.as_dict())
            bare = write(tmp_path, "b.json", pf.payload)
            assert (masked_result(tmp_path, [*argv, "--input", wrapped])
                    == masked_result(tmp_path, [*argv, "--input", bare])), (argv, seed)


class TestCliOther:
    def test_refine_reports_spread_trend(self, tmp_path):
        targets = write(tmp_path, "t.json", {"values": [[0.2, 0.1], [0.8, 0.9]]})
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["refine", "--density", "1,2x", "--targets", targets,
                            "--grids", "25,100", "--output", out, "--quiet"])
        assert rc == 0
        result = read_json(out)
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
        hops = read_json(prob)["payload"]["hops"]
        assert result["hops"] == hops
        assert len(result["plans"]) == hops + 1
        assert max(residuals.values()) <= 1e-9

    def test_chain_hop_override_and_free_medium(self, tmp_path):
        prob = str(tmp_path / "c.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "chain", "--seed", "11", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["chain", "--input", prob, "--n", "3", "--output", out, "--quiet"])
        assert rc == 0
        assert len(read_json(out)["plans"]) == 4
        rc, _, _ = run_cli(["chain", "--input", prob, "--free-medium",
                            "--output", out, "--quiet"])
        assert rc == 0
        free = read_json(out)
        assert free["freeMedium"] is True

    def test_game_value_and_restriction(self, tmp_path):
        prob = str(tmp_path / "g.json")
        out = str(tmp_path / "o.json")
        run_cli(["gen", "--kind", "game", "--seed", "1", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["game", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        full = read_json(out)
        assert max(full["diagnostics"]["residuals"].values()) <= 1e-8
        ny = len(read_json(prob)["payload"]["payoff"][0])
        restrict = write(tmp_path, "r.json", {
            "space": {"labels": [f"y{j}" for j in range(ny)]},
            "weights": [1.0, 1.0] + [0.0] * (ny - 2),
        })
        rc, _, _ = run_cli(["game", "--input", prob, "--restrict", restrict,
                            "--output", out, "--quiet"])
        assert rc == 0
        sub = read_json(out)
        # fewer columns can only help the row player
        assert sub["value"] >= full["value"] - 1e-8
        assert sum(sub["colStrategy"][2:]) == 0.0

    def test_moment_flag_form_and_infeasible(self, tmp_path):
        M = write(tmp_path, "M.json", [[0.0, 0.0, 0.0]])
        m = write(tmp_path, "m.json", [1.0])
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["moment", "--M", M, "--m", m, "--output", out, "--quiet"])
        assert rc == 2
        result = read_json(out)
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
        result = read_json(out)
        assert result["psd"] is False and result["lpFeasible"] is False
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "trig", "--seed", "2", "--output", prob, "--quiet"])
        rc, _, _ = run_cli(["trig", "--input", prob, "--output", out, "--quiet"])
        assert rc == 0
        assert read_json(out)["status"] == "feasible"

    def test_conj_and_infconv(self, tmp_path):
        xs = np.linspace(-1.0, 1.0, 33)
        f = write(tmp_path, "f.json", {"grid": list(xs), "values": list(0.5 * xs**2)})
        g = write(tmp_path, "g.json", {"grid": list(xs), "values": list(xs**2)})
        out = str(tmp_path / "o.json")
        rc, _, _ = run_cli(["conj", "--input", f, "--output", out, "--quiet"])
        assert rc == 0
        result = read_json(out)
        # x^2/2 is its own conjugate on a symmetric grid
        assert result["operation"] == "conjugate"
        assert np.max(np.abs(np.array(result["values"])
                             - 0.5 * np.array(result["grid"])**2)) <= 1e-12
        rc, _, _ = run_cli(["conj", "--input", f, "--infconv", g,
                            "--output", out, "--quiet"])
        assert rc == 0
        assert read_json(out)["operation"] == "infConvolution"


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

    @pytest.mark.parametrize("flag,env", [
        ("nan", None), ("inf", None), (None, "nan"), (None, "inf"),
    ])
    def test_non_finite_tolerance_exits_3(self, tmp_path, monkeypatch, flag, env):
        # a NaN or infinite tolerance would let every gap pass unchecked
        prob = str(tmp_path / "p.json")
        run_cli(["gen", "--kind", "scalar_ot", "--seed", "1", "--output", prob, "--quiet"])
        if env is not None:
            monkeypatch.setenv("VECOT_TOL", env)
        tol = [] if flag is None else ["--tol", flag]
        rc, _, err = run_cli(["solve-ot", "--input", prob, *tol, "--quiet"])
        assert rc == 3, err
        if flag is not None:
            rc, _, err = run_cli(["verify", "--tol", flag, "--quiet"])
            assert rc == 3, err

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
        (["moment", "--input", "{moment}", "--M", "{M}"], "--input"),
        (["moment", "--input", "{moment}", "--m", "{m}"], "--input"),
        (["trig", "--input", "{trig}", "--coeffs", "{coeffs}"], "--input"),
    ])
    def test_flags_a_command_does_not_honour_exit_3(self, tmp_path, argv, flag):
        paths = {
            "targets": write(tmp_path, "t.json", {"values": [[0.2, 0.1], [0.8, 0.9]]}),
        }
        for kind in ("game", "chain", "moment", "trig"):
            paths[kind] = write(tmp_path, f"{kind}.json", generate.gen(kind, 1).as_dict())
        paths["M"] = write(tmp_path, "M.json", {"functions": [[1.0, 1.0]]})
        paths["m"] = write(tmp_path, "m.json", {"target": [1.0]})
        paths["coeffs"] = write(tmp_path, "c.json", {"coeffs": [[1.0, 0.0]]})
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
        report = read_json(out)
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
        digest = hashlib.sha256(read_bytes(out)).hexdigest()
        assert digest == GAME_SEED1_SHA256

    def test_gen_stdout(self):
        rc, stdout, _ = run_cli(["gen", "--kind", "scalar_ot", "--seed", "2"])
        assert rc == 0
        parsed = json.loads(stdout)
        assert parsed["kind"] == "scalar_ot"

    def test_gen_rejects_unknown_kind(self):
        rc, _, _ = run_cli(["gen", "--kind", "mystery"])
        assert rc == 3


class TestWriteText:
    """Outputs are overwritten in place: opened without O_TRUNC, then cut."""

    def test_shorter_rewrite_leaves_no_old_tail(self, tmp_path):
        path, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        serialize.write_text(str(path), canonical_dumps(generate.gen("game", 1).as_dict()))
        inode = path.stat().st_ino
        short = canonical_dumps(MINIMAL_OT)
        serialize.write_text(str(path), short)
        serialize.write_text(str(fresh), short)
        assert path.read_bytes() == fresh.read_bytes() == short.encode()
        assert path.stat().st_ino == inode

    def test_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 100)
        link.symlink_to(target)
        serialize.write_text(str(link), "{}\n")
        assert link.is_symlink()
        assert target.read_text() == "{}\n"

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("x" * 100)
        path.chmod(0o640)
        serialize.write_text(str(path), "{}\n")
        assert path.stat().st_mode & 0o777 == 0o640
        assert path.read_text() == "{}\n"

    def test_output_to_dev_null_exits_0(self, tmp_path):
        prob = write(tmp_path, "p.json", MINIMAL_OT)
        for argv in (["gen", "--kind", "game", "--seed", "1"], ["solve-ot", "--input", prob],
                     ["verify", "--only", "chain"]):
            rc, _, _ = run_cli(argv + ["--output", os.devnull, "--quiet"])
            assert rc == 0, argv

    def test_gen_and_verify_output_go_through_write_text(self, tmp_path, monkeypatch):
        written = []
        write_text = serialize.write_text

        def recorded(path, text):
            written.append(path)
            write_text(path, text)

        monkeypatch.setattr(serialize, "write_text", recorded)
        gen_out, report = str(tmp_path / "g.json"), str(tmp_path / "report.json")
        assert run_cli(["gen", "--kind", "game", "--seed", "1", "--output", gen_out, "--quiet"])[0] == 0
        assert run_cli(["verify", "--only", "chain", "--output", report, "--quiet"])[0] == 0
        serialize.save(generate.gen("game", 1), str(tmp_path / "saved.json"))
        assert written == [gen_out, report, str(tmp_path / "saved.json")]
        assert read_json(report)["ok"] is True

    def test_outputs_are_never_opened_with_o_trunc(self, tmp_path, monkeypatch):
        flags = {}
        os_open = os.open

        def recorded(path, flag, *args, **kwargs):
            flags.setdefault(os.fspath(path), []).append(flag)
            return os_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorded)
        prob, out = str(tmp_path / "p.json"), str(tmp_path / "o.json")
        report = str(tmp_path / "report.json")
        for _ in range(2):  # the second round overwrites every file
            assert run_cli(["gen", "--kind", "scalar_ot", "--seed", "6", "--output", prob,
                            "--quiet"])[0] == 0
            assert run_cli(["solve-ot", "--input", prob, "--output", out, "--quiet"])[0] == 0
            assert run_cli(["verify", "--only", "chain", "--output", report, "--quiet"])[0] == 0
            serialize.save(generate.gen("game", 1), str(tmp_path / "saved.json"))
        for path in (prob, out, report, str(tmp_path / "saved.json")):
            assert len(flags.get(path, [])) == 2, path
        assert not any(f & os.O_TRUNC for fs in flags.values() for f in fs)


WALL = re.compile(r'"wallMillis":[-+0-9.eE]+')

# Each flagged command is followed by the same command without the flag, and
# a usage error sits in the middle; none may see another call's flags.
REUSE_SEQUENCE = [
    ["dominate", "--input", "{dom}", "--n", "2"],
    ["dominate", "--input", "{dom}"],
    ["dominate", "--input", "{dom}", "--blackwell", "--samples", "8", "--seed", "3"],
    ["dominate", "--input", "{dom}"],
    ["chain", "--input", "{chain}", "--free-medium"],
    ["chain", "--input", "{chain}"],
    ["chain", "--input", "{chain}", "--n", "3"],
    ["chain", "--input", "{chain}"],
    ["dominate", "--input", "{dom}", "--n", "2", "--strong"],
    ["solve-ot", "--input", "{capacity}", "--variant", "capacity"],
    ["solve-ot", "--input", "{capacity}"],  # the plain variant refuses a capacity file
    ["solve-ot", "--input", "{ot}"],
    ["game", "--input", "{game}", "--restrict", "{restrict}"],
    ["game", "--input", "{game}"],
    ["conj", "--input", "{f}", "--infconv", "{g}"],
    ["conj", "--input", "{f}"],
]


class TestParserReuse:
    """main() builds its parser once per process and reuses it."""

    @pytest.fixture
    def paths(self, tmp_path):
        paths = {}
        for name, kind, seed in (("dom", "dominance", 1), ("chain", "chain", 11),
                                 ("capacity", "capacity", 3), ("ot", "scalar_ot", 3),
                                 ("game", "game", 1)):
            paths[name] = write(tmp_path, f"{name}.json", generate.gen(kind, seed).as_dict())
        ny = len(read_json(paths["game"])["payload"]["payoff"][0])
        paths["restrict"] = write(tmp_path, "r.json", {
            "space": {"labels": [f"y{j}" for j in range(ny)]},
            "weights": [1.0, 1.0] + [0.0] * (ny - 2),
        })
        xs = np.linspace(-1.0, 1.0, 17)
        paths["f"] = write(tmp_path, "f.json", {"grid": list(xs), "values": list(0.5 * xs**2)})
        paths["g"] = write(tmp_path, "g.json", {"grid": list(xs), "values": list(xs**2)})
        cli._parser.cache_clear()
        yield paths
        cli._parser.cache_clear()

    @staticmethod
    def masked(argv):
        rc, out, err = run_cli(argv)
        return rc, WALL.sub('"wallMillis":0', out), err

    def test_outputs_match_a_fresh_parser(self, paths, monkeypatch):
        argvs = [[a.format(**paths) for a in argv] for argv in REUSE_SEQUENCE]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = [self.masked(argv) for argv in argvs]
        reused = [self.masked(argv) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        for argv, want, got in zip(argvs, fresh, reused):
            assert got == want, argv
        codes = [rc for rc, _, _ in reused]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 0, 0, 0, 0]
        assert "not allowed with argument --n" in reused[8][2]

    def test_help_is_the_same_on_first_and_later_calls(self, paths):
        first = run_cli(["--help"]), run_cli(["dominate", "--help"])
        assert first[0][0] == 0 and first[0][1].startswith("usage: vecot")
        run_cli(["dominate", "--input", paths["dom"], "--n", "2", "--quiet"])
        run_cli(["dominate", "--input", paths["dom"], "--n", "x"])
        assert (run_cli(["--help"]), run_cli(["dominate", "--help"])) == first

    def test_parser_is_built_once(self, paths, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        argvs = [
            ["gen", "--kind", "game", "--seed", "2", "--quiet"],
            ["solve-ot", "--input", paths["ot"], "--quiet"],
            ["frobnicate"],
            ["game", "--input", paths["game"], "--quiet"],
            ["game", "--input", paths["game"], "--tol", "0"],
            ["conj", "--input", paths["f"], "--quiet"],
            ["solve-ot", "--variant", "nope", "--input", paths["ot"]],
            ["dominate", "--input", paths["dom"], "--quiet"],
            ["dominate", "--input", paths["dom"], "--seed", "1", "--quiet"],
            ["chain", "--input", paths["chain"], "--free-medium", "--quiet"],
            ["gen", "--kind", "mystery"],
            ["solve-ot", "--input", paths["capacity"], "--variant", "capacity", "--quiet"],
            ["moment", "--quiet"],
            ["game", "--input", paths["game"], "--restrict", paths["restrict"], "--quiet"],
            ["conj", "--input", paths["f"], "--infconv", paths["g"], "--quiet"],
            ["chain", "--input", paths["chain"], "--n", "2", "--quiet"],
            ["solve-ot", "--quiet"],
            ["gen", "--kind", "scalar_ot", "--quiet"],
            ["dominate", "--input", paths["dom"], "--n", "2", "--quiet"],
            ["solve-ot", "--input", paths["ot"], "--quiet"],
        ]
        codes = [run_cli(argv)[0] for argv in argvs]
        assert codes == [0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 0, 0, 3, 0, 0, 0]
        assert len(built) == 1


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
    result = read_json(out)
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
