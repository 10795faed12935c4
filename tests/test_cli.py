"""Command-line surface: worked examples, exit codes, determinism,
structured output, and path replay."""

from __future__ import annotations

import json

import pytest

from actionoperads.cli import main
from actionoperads.fincat import discrete_category, fincat_to_dict, z2_category
from actionoperads.multicat import (
    multicat_from_dict,
    multicat_to_dict,
    operad_as_multicat,
    validate_multicat,
)
from actionoperads.core import symmetric_operad
from test_validator_golden import _junk, _unknown_leg_in_chain


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(fincat_to_dict(discrete_category(("a", "b"), name="d2"))))
    return str(path)


class TestElementCommands:
    def test_pi_cactus_example(self, capsys):
        code, out = run(capsys, "pi", "--operad", "cactus", "--n", "3", "s(1,3)")
        assert code == 0 and out.strip() == "[3,2,1]"

    def test_mul(self, capsys):
        code, out = run(capsys, "mul", "--operad", "sym", "--n", "3", "[3,2,1]", "[2,1,3]")
        assert code == 0 and out.strip() == "[2,3,1]"

    def test_beta(self, capsys):
        code, out = run(capsys, "beta", "--operad", "cactus", "--n", "2,2", "s(1,2)", "s(1,2)")
        assert code == 0 and out.strip() == "s(1,2) s(3,4)"

    def test_delta(self, capsys):
        code, out = run(capsys, "delta", "--operad", "cactus", "--n", "2", "--sizes", "2,1", "s(1,2)")
        assert code == 0 and out.strip() == "s(1,3) s(1,2)"

    def test_mu(self, capsys):
        code, out = run(
            capsys, "mu", "--operad", "sym", "--n", "2", "--arities", "1,2", "[2,1]", "[1]", "[2,1]"
        )
        assert code == 0 and out.strip() == "[3,2,1]"

    def test_bad_word_is_input_error(self, capsys):
        code, _ = run(capsys, "pi", "--operad", "cactus", "--n", "3", "s(9,9)")
        assert code == 3

    def test_unknown_flag_is_input_error(self, capsys):
        code = main(["pi", "--operad", "cactus", "--n", "3", "--bogus", "s(1,2)"])
        assert code == 3

    def test_unknown_operad_is_input_error(self, capsys):
        code = main(["pi", "--operad", "sphere", "--n", "3", "s(1,2)"])
        assert code == 3


class TestEqual:
    def test_involution_equal_exit_zero(self, capsys):
        code, out = run(capsys, "equal", "--operad", "cactus", "--n", "2", "s(1,2) s(1,2)", "e")
        assert code == 0 and out.strip() == "Equal"

    def test_distinct_exit_one(self, capsys):
        code, out = run(capsys, "equal", "--operad", "cactus", "--n", "2", "s(1,2)", "e")
        assert code == 1 and out.strip().startswith("Distinct")

    def test_inconclusive_strict_exit_two(self, capsys):
        code, out = run(
            capsys,
            "equal", "--operad", "braid", "--n", "3", "--budget", "0", "--strict",
            "b1 b2 b1", "b2 b1 b2",
        )
        assert code == 2 and out.strip() == "Inconclusive"

    def test_explain_text_mode(self, capsys):
        code, out = run(
            capsys,
            "equal", "--operad", "cactus", "--n", "3", "--explain",
            "s(1,3) s(1,2)", "s(2,3) s(1,3)",
        )
        assert code == 0
        assert out.splitlines()[0] == "Equal"
        assert any(line.startswith(("meet:", "forward:", "backward:")) for line in out.splitlines()[1:])

    def test_explain_on_exact_instance_is_quiet(self, capsys):
        code, out = run(
            capsys, "equal", "--operad", "sym", "--n", "2", "--explain", "[2,1]", "[2,1]"
        )
        assert code == 0 and out.strip() == "Equal"

    def test_axioms_strict_inconclusive_exit_two(self, capsys):
        code, out = run(
            capsys,
            "axioms", "--operad", "braid", "--max-arity", "3", "--samples", "20",
            "--budget", "0", "--strict",
        )
        assert code == 2
        assert "inconclusive" in out

    def test_explain_and_replay(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "equal", "--operad", "cactus", "--n", "4", "--explain", "--format", "structured",
            "s(1,4) s(2,3)", "s(2,3) s(1,4)",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "equal" and "path" in doc
        path_file = tmp_path / "path.json"
        path_file.write_text(out)
        code2, out2 = run(
            capsys,
            "equal", "--operad", "cactus", "--n", "4", "--replay", str(path_file),
            "s(1,4) s(2,3)", "s(2,3) s(1,4)",
        )
        assert code2 == 0 and out2.strip() == "Valid"
        # replaying against the wrong words is rejected
        code3, out3 = run(
            capsys,
            "equal", "--operad", "cactus", "--n", "4", "--replay", str(path_file),
            "s(1,4) s(2,3)", "e",
        )
        assert code3 == 1 and out3.strip() == "Invalid"


class TestReports:
    def test_axioms_sym_small(self, capsys):
        code, out = run(capsys, "axioms", "--operad", "sym", "--max-arity", "3")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_axioms_structured(self, capsys):
        code, out = run(
            capsys, "axioms", "--operad", "trivial", "--max-arity", "3", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["operad"] == "trivial"

    def test_cactus_subcommands(self, capsys):
        code, out = run(capsys, "cactus", "shat", "--p", "1", "--q", "3", "--n", "3")
        assert code == 0 and out.strip() == "[3,2,1]"
        code, out = run(capsys, "cactus", "commutor", "--m", "2", "--n", "1")
        assert code == 0 and out.strip() == "s(1,3) s(1,2)"
        code, out = run(capsys, "cactus", "coboundary", "--max-total", "4", "--strict")
        assert code == 0 and "0 failed, 0 inconclusive" in out

    def test_cactus_relations_listing(self, capsys):
        code, out = run(capsys, "cactus", "relations", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "generators: 3"
        assert "s(1,3) s(1,2) = s(2,3) s(1,3)" in out

    def test_beta_count_mismatch_is_input_error(self, capsys):
        code, _ = run(capsys, "beta", "--operad", "sym", "--n", "2,2", "[2,1]")
        assert code == 3

    def test_borel_hom(self, capsys, d2_file):
        code, out = run(
            capsys,
            "borel", "hom", "--operad", "sym", "--category", d2_file,
            "--src", "a,b", "--tgt", "b,a",
        )
        assert code == 0
        assert out.strip() == "[2,1] | id_a,id_b"

    def test_borel_compose(self, capsys, d2_file):
        code, out = run(
            capsys,
            "borel", "compose", "--operad", "sym", "--category", d2_file,
            "--src", "a,b", "--mid", "b,a", "--tgt", "a,b",
            "[2,1]|id_b,id_a", "[2,1]|id_a,id_b",
        )
        assert code == 0 and out.strip() == "[1,2] | id_a,id_b"

    def test_borel_infinity(self, capsys):
        code, out = run(capsys, "borel", "infinity", "--operad", "sym", "--n", "3")
        assert code == 0 and out.startswith("PASS")

    def test_club_check_and_pullback(self, capsys, d2_file):
        code, out = run(capsys, "club", "check", "--operad", "sym", "--max-arity", "3")
        assert code == 0 and out.startswith("PASS")
        code, out = run(
            capsys, "club", "pullback", "--operad", "sym", "--n", "2", "--category", d2_file
        )
        assert code == 0 and out.startswith("PASS")

    def test_club_check_cactus_within_its_finite_arities(self, capsys):
        code, out = run(capsys, "club", "check", "--operad", "cactus", "--max-arity", "2")
        assert code == 0
        assert out == "PASS roundtrip: operad=cactus beta=5 delta=5 mu=6 mismatches=0\n"

    @pytest.mark.parametrize("operad, arity", [("braid", 2), ("cactus", 3)])
    def test_club_check_past_the_finite_arities_is_input_error(self, capsys, operad, arity):
        # no arity whose group is not finite is skipped silently
        code = main(["club", "check", "--operad", operad, "--max-arity", "3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: instance {operad!r} is not finite at arity {arity}\n"

    def test_multicat_validate(self, capsys, tmp_path):
        M = operad_as_multicat(symmetric_operad(), 2)
        f = tmp_path / "m.json"
        f.write_text(json.dumps(multicat_to_dict(M)))
        code, out = run(capsys, "multicat", "validate", "--operad", "sym", "--file", str(f))
        assert code == 0 and out.startswith("PASS")

    def test_multicat_validate_rejects_mutation(self, capsys, tmp_path):
        M = operad_as_multicat(symmetric_operad(), 2)
        doc = multicat_to_dict(M)
        doc["identities"]["*"] = "2:[2,1]"
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, "multicat", "validate", "--operad", "sym", "--file", str(f))
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("planted", [lambda M: _junk(M, 0), _unknown_leg_in_chain], ids=["junk_head", "ghost"])
    def test_multicat_validate_reports_junk(self, capsys, tmp_path, planted):
        # entries the structure checks reject are reported, and no law reads them
        doc = multicat_to_dict(planted(operad_as_multicat(symmetric_operad(), 2)))
        f = tmp_path / "junk.json"
        f.write_text(json.dumps(doc))
        code = main(["multicat", "validate", "--operad", "sym", "--file", str(f)])
        captured = capsys.readouterr()
        violations = validate_multicat(multicat_from_dict(doc), symmetric_operad()).violations
        assert code == 1 and "Traceback" not in captured.err
        assert violations and captured.out.splitlines()[1:] == [f"  violation: {v}" for v in violations]

    def test_multicat_lift(self, capsys, tmp_path):
        X = discrete_category(("a", "b"), name="X")
        Y = z2_category()
        fx = tmp_path / "x.json"
        fy = tmp_path / "y.json"
        fg = tmp_path / "g.json"
        fx.write_text(json.dumps(fincat_to_dict(X)))
        fy.write_text(json.dumps(fincat_to_dict(Y)))
        fg.write_text(
            json.dumps({"ob": {"a": "*", "b": "*"}, "mor": {"id_a": "e", "id_b": "e"}})
        )
        code, out = run(
            capsys,
            "multicat", "lift", "--operad", "sym",
            "--category-x", str(fx), "--category-y", str(fy), "--functor", str(fg),
            "--max-arity", "2",
        )
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize(
        "doc",
        [{"mor": {"id_a": "e", "id_b": "e"}}, {"ob": {"a": "*", "b": "*"}}, {"ob": [], "mor": {}}, []],
    )
    def test_multicat_lift_malformed_functor(self, capsys, tmp_path, d2_file, doc):
        fy = tmp_path / "y.json"
        fg = tmp_path / "g.json"
        fy.write_text(json.dumps(fincat_to_dict(z2_category())))
        fg.write_text(json.dumps(doc))
        code = main([
            "multicat", "lift", "--operad", "sym",
            "--category-x", d2_file, "--category-y", str(fy), "--functor", str(fg),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_multicat_lift_infinite_instance_is_input_error(self, capsys, tmp_path):
        pt = tmp_path / "pt.json"
        fg = tmp_path / "g.json"
        pt.write_text(json.dumps(fincat_to_dict(discrete_category(("a",), name="pt"))))
        fg.write_text(json.dumps({"ob": {"a": "a"}, "mor": {"id_a": "id_a"}}))
        argv = [
            "multicat", "lift", "--operad", "braid", "--category-x", str(pt),
            "--category-y", str(pt), "--functor", str(fg), "--max-arity", "2",
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: instance 'braid' is not finite at arity 2\n"
        # no word-length bound is accepted in its place
        assert main([*argv, "--bound", "2"]) == 3

    def test_present_check(self, capsys, tmp_path):
        doc = {
            "generators": [{"name": "s", "arity": 2, "pi": [2, 1]}],
            "relations": [
                {"lhs": "mul(gen(s), gen(s))", "rhs": "id(2)"},
                {
                    "lhs": "mul(delta(gen(s); [1,2]), beta(id(1), gen(s)))",
                    "rhs": "mul(delta(gen(s); [2,1]), beta(gen(s), id(1)))",
                },
            ],
        }
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        code, out = run(
            capsys,
            "present", "check", "--operad", "cactus", "--file", str(f), "--interp", "s=s(1,2)",
        )
        assert code == 0 and out.count("equal") == 2


class TestLongWords:
    def test_delta_of_a_long_braid_word(self, capsys):
        # the block diagonal folds over the word without recursing per letter
        code, out = run(
            capsys, "delta", "--operad", "braid", "--n", "2", "--sizes", "1,1", " ".join(["b1"] * 2000)
        )
        assert code == 0 and out.split() == ["b1"] * 2000

    def test_delta_with_a_wide_crossing_block(self, capsys):
        # the block crossing is built without recursing per strand
        code, out = run(capsys, "delta", "--operad", "braid", "--n", "2", "--sizes", "1500,1", "b1")
        assert code == 0 and out.split() == [f"b{i}" for i in range(1, 1501)]


# Malformed documents, keyed by the placeholder the table below uses.
MALFORMED_DOCS = {
    "list": [1, 2],
    "nested_objects": {"objects": [["a"]], "morphisms": [], "identities": {}, "compose": []},
    "no_path": {"nopath": 1},
    "untyped_path": {
        "path": {"meet": [], "forward": [{"rel": "a", "orient": "b", "pos": "c", "result": []}], "backward": []}
    },
    "list_mapping": {
        "objects": ["*"], "homs": [], "identities": {}, "compose": [],
        "actions": [{"arity": 1, "generator": "t", "mapping": []}],
    },
    "list_result": {
        "objects": ["*"], "homs": [{"inputs": ["*"], "output": "*", "elements": ["f"]}],
        "identities": {"*": "f"}, "compose": [{"head": "f", "inputs": ["f"], "result": ["f"]}],
        "actions": [],
    },
    "input_without_identity": {
        "objects": ["*"], "homs": [{"inputs": ["x"], "output": "*", "elements": ["f"]}],
        "identities": {}, "compose": [{"head": "f", "inputs": ["f"], "result": "f"}], "actions": [],
    },
    "not_a_functor": {"ob": {"a": "zz"}, "mor": {}},
    "numeric_term": {
        "generators": [{"name": "s", "arity": 2, "pi": [2, 1]}], "relations": [{"lhs": 5, "rhs": "id(2)"}]
    },
}

# (argv with {placeholders}, exit code): every malformed input is an input
# error or an ordinary verdict, never a traceback
MALFORMED_INPUTS = [
    ([], 3),
    (["pi", "--operad", "sym", "--n", "3", "[1,1,2]"], 3),
    (["pi", "--operad", "cactus", "--n", "3", "s(2,1)"], 3),
    (["pi", "--operad", "braid", "--n", "-1", "e"], 3),
    (["mul", "--operad", "sym", "--n", "x", "[1]", "[1]"], 3),
    (["beta", "--operad", "sym", "--n", "2,a", "[2,1]", "[1]"], 3),
    (["delta", "--operad", "cactus", "--n", "2", "--sizes", "1", "s(1,2)"], 3),
    (["mu", "--operad", "braid", "--n", "2", "--arities", "1,2", "b1", "e", "b2"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{missing}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{notjson}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{list}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{no_path}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{untyped_path}", "e", "e"], 3),
    (["axioms", "--operad", "sym", "--max-arity", "-1"], 3),
    (["axioms", "--operad", "cactus", "--max-arity", "3", "--block-size", "0", "--samples", "2"], 3),
    (["cactus", "shat", "--p", "3", "--q", "1", "--n", "3"], 3),
    (["cactus", "commutor", "--m", "0", "--n", "-1"], 3),
    (["cactus", "coboundary", "--max-total", "0"], 0),
    (["borel", "hom", "--operad", "sym", "--category", "{nested_objects}", "--src", "a", "--tgt", "a"], 3),
    (["borel", "hom", "--operad", "braid", "--category", "{d2}", "--src", "a,b", "--tgt", "a,b"], 3),
    (["borel", "hom", "--operad", "sym", "--category", "{d2}", "--src", "zz", "--tgt", "zz"], 3),
    (["borel", "compose", "--operad", "sym", "--category", "{d2}", "--src", "a,zz", "--mid", "a,b",
      "--tgt", "a,b", "[1,2]|id_a,id_b", "[1,2]|id_a,id_b"], 3),
    (["borel", "compose", "--operad", "sym", "--category", "{d2}", "--src", "a,b", "--mid", "b,a",
      "--tgt", "a,b", "[2,1]|nope,id_a", "[2,1]|id_a,id_b"], 3),
    (["borel", "compose", "--operad", "sym", "--category", "{d2}", "--src", "a,b", "--mid", "b,a",
      "--tgt", "a,b", "[2,1]", "[2,1]|id_a,id_b"], 3),
    (["borel", "infinity", "--operad", "cactus", "--n", "3"], 3),
    (["club", "check", "--operad", "sym", "--max-arity", "-1"], 3),
    (["club", "pullback", "--operad", "braid", "--n", "2", "--category", "{d2}"], 3),
    (["multicat", "validate", "--operad", "sym", "--file", "{list_mapping}"], 3),
    (["multicat", "validate", "--operad", "sym", "--file", "{list_result}"], 3),
    (["multicat", "validate", "--operad", "sym", "--file", "{input_without_identity}"], 1),
    (["multicat", "lift", "--operad", "sym", "--category-x", "{d2}", "--category-y", "{d2}",
      "--functor", "{not_a_functor}"], 3),
    (["present", "check", "--operad", "cactus", "--file", "{numeric_term}"], 3),
    (["present", "check", "--operad", "cactus", "--file", "{list}"], 3),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("argv, want", MALFORMED_INPUTS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_exit_code_without_traceback(self, capsys, tmp_path, d2_file, argv, want):
        files = {"d2": d2_file, "missing": str(tmp_path / "missing.json")}
        (tmp_path / "notjson.json").write_text("{not json")
        files["notjson"] = str(tmp_path / "notjson.json")
        for name, doc in MALFORMED_DOCS.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = main([arg.format(**files) for arg in argv])
        err = capsys.readouterr().err
        assert code == want
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--src", "zz", "--tgt", "zz"],
            ["compose", "--src", "a,zz", "--mid", "a,b", "--tgt", "a,b", "[1,2]|id_a,id_b", "[1,2]|id_a,id_b"],
        ],
        ids=["hom", "compose"],
    )
    def test_borel_unknown_object(self, capsys, d2_file, argv):
        code = main(["borel", argv[0], "--operad", "sym", "--category", d2_file, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: unknown object 'zz' in X\n"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, d2_file):
        outputs = []
        for _ in range(2):
            _, out = run(capsys, "axioms", "--operad", "cactus", "--max-arity", "3", "--samples", "8")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        outputs = []
        for _ in range(2):
            _, out = run(
                capsys,
                "borel", "hom", "--operad", "sym", "--category", d2_file,
                "--src", "a,b", "--tgt", "a,b",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]
