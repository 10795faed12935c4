"""Command-line surface: worked examples, exit codes, determinism,
structured output, and path replay."""

from __future__ import annotations

import json
import time

import pytest

from actionoperads.braid import braid_operad
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

    def test_distinct_by_normal_form(self, capsys):
        delta = "b1 b2 b3 b1 b2 b1"
        words = (f"{delta} {delta} b1 b1", f"{delta} {delta} b3 b3")
        argv = ("equal", "--operad", "braid", "--n", "4")
        code, out = run(capsys, *argv, *words)
        assert code == 1 and out == "Distinct(garside)\n"
        code, structured = run(capsys, *argv, "--format", "structured", *words)
        assert code == 1
        assert json.loads(structured) == {"separating": "garside", "states": 0, "verdict": "distinct"}
        # a Distinct carries no path, so --explain adds nothing
        assert run(capsys, *argv, "--explain", *words) == (1, out)
        assert run(capsys, *argv, "--explain", "--format", "structured", *words) == (1, structured)

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

    def test_trivial_explains_and_replays_as_a_word_instance(self, capsys, tmp_path):
        code, out = run(capsys, "equal", "--operad", "trivial", "--n", "2", "--explain", "--format", "structured", "e", "e e")
        assert code == 0
        assert json.loads(out)["path"] == {"meet": [], "forward": [], "backward": []}
        path_file = tmp_path / "path.json"
        path_file.write_text(out)
        code2, out2 = run(capsys, "equal", "--operad", "trivial", "--n", "2", "--replay", str(path_file), "", "e")
        assert code2 == 0 and out2.strip() == "Valid"


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

    @pytest.mark.parametrize("src, tgt, count", [("a,a,a", "a,a,a", 115), ("a,a,b", "a,a,b", 41)])
    def test_bounded_braid_hom_lists_each_morphism_once(self, capsys, d2_file, src, tgt, count):
        code, out = run(
            capsys,
            "borel", "hom", "--operad", "braid", "--category", d2_file,
            "--src", src, "--tgt", tgt, "--bound", "4", "--format", "structured",
        )
        B = braid_operad()
        morphisms = json.loads(out)["morphisms"]
        keys = {(B.normal_form(B.parse(m["g"], 3)), tuple(m["components"])) for m in morphisms}
        assert code == 0 and len(morphisms) == len(keys) == count

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

    @staticmethod
    def present(capsys, tmp_path, lhs) -> tuple[int, str, str]:
        doc = {
            "generators": [{"name": "s", "arity": 2, "pi": [2, 1]}],
            "relations": [{"lhs": lhs, "rhs": "gen(s)"}],
        }
        f = tmp_path / "deep.json"
        f.write_text(json.dumps(doc))
        code = main(["present", "check", "--operad", "cactus", "--file", str(f), "--interp", "s=s(1,2)"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "lhs",
        [
            "inv(" * 3000 + "gen(s)" + ")" * 3000,
            "mul(" * 3000 + "gen(s)" + ", id(2))" * 3000,
        ],
        ids=["inv", "mul"],
    )
    def test_too_deep_term_is_input_error(self, capsys, tmp_path, lhs):
        code, out, err = self.present(capsys, tmp_path, lhs)
        assert code == 3 and out == ""
        assert err.startswith("error: term nests deeper than 200 levels") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "head, tail",
        [("inv(", ")"), ("mul(", ", id(2))"), ("beta(", ")"), ("delta(", "; [1,1])")],
        ids=["inv", "mul", "beta", "delta"],
    )
    def test_term_at_the_depth_limit(self, capsys, tmp_path, head, tail):
        # 199 constructors around a generator: every walker reads 200 levels
        code, out, _ = self.present(capsys, tmp_path, head * 199 + "gen(s)" + tail * 199)
        assert code == 0 and "relation 0: equal" in out


# Malformed documents, keyed by the placeholder the table below uses.
MALFORMED_DOCS = {
    "list": [1, 2],
    "nested_objects": {"objects": [["a"]], "morphisms": [], "identities": {}, "compose": []},
    "numeric_ids": {
        "objects": ["a"], "morphisms": [{"id": 1, "src": "a", "tgt": "a"}], "identities": {"a": 1}, "compose": [[1, 1, 1]]
    },
    "no_path": {"nopath": 1},
    "untyped_path": {
        "path": {"meet": [], "forward": [{"rel": "a", "orient": "b", "pos": "c", "result": []}], "backward": []}
    },
    # steps whose fields int() or a truth test would have read as valid
    **{
        f"{name}_step": {
            "path": {
                "meet": [],
                "forward": [{"rel": 0, "orient": 0, "pos": 0, "result": [], **fields}],
                "backward": [],
            }
        }
        for name, fields in (
            ("float_rel", {"rel": 3.9}),
            ("string_orient", {"orient": "7"}),
            ("bool_orient", {"orient": True}),
            ("large_orient", {"orient": 7}),
            ("negative_orient", {"orient": -1}),
            ("negative_pos", {"pos": -2}),
            ("null_pos", {"pos": None}),
            ("boolean_sign", {"result": [[1, True]]}),
            ("boolean_generator", {"result": [[True, 1]]}),
        )
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
    # a valid table but for one name that is not a string
    "numeric_element": {
        "objects": ["*"], "homs": [{"inputs": ["*"], "output": "*", "elements": ["u"]},
                                   {"inputs": [], "output": "*", "elements": [1]}],
        "identities": {"*": "u"}, "compose": [{"head": "u", "inputs": ["u"], "result": "u"}], "actions": [],
    },
    "numeric_generator": {
        "objects": ["*"], "homs": [{"inputs": ["*"], "output": "*", "elements": ["u"]}],
        "identities": {"*": "u"}, "compose": [{"head": "u", "inputs": ["u"], "result": "u"}],
        "actions": [{"arity": 1, "generator": 7, "mapping": {"u": "u"}}],
    },
    "not_a_functor": {"ob": {"a": "zz"}, "mor": {}},
    # well formed, so that only the --max-arity beside it is malformed
    "identity_functor": {"ob": {"a": "a", "b": "b"}, "mor": {"id_a": "id_a", "id_b": "id_b"}},
    "numeric_term": {
        "generators": [{"name": "s", "arity": 2, "pi": [2, 1]}], "relations": [{"lhs": 5, "rhs": "id(2)"}]
    },
    "boolean_pi": {"generators": [{"name": "s", "arity": 2, "pi": [2, True]}], "relations": []},
}

# a well-formed presentation: one involutive generator, no relations
ONE_GENERATOR = {"generators": [{"name": "s", "arity": 2, "pi": [2, 1]}], "relations": []}

# a negative arity, width or bound, each an input error
NEGATIVE_ARGUMENTS = [
    ["mul", "--operad", "braid", "--n", "-1", "e", "e"],
    ["beta", "--operad", "braid", "--n", "-2", "e"],
    ["borel", "infinity", "--operad", "trivial", "--n", "-1"],
    ["delta", "--operad", "trivial", "--n", "1", "--sizes", "-1", "e"],
    ["multicat", "lift", "--operad", "sym", "--category-x", "{d2}", "--category-y", "{d2}",
     "--functor", "{identity_functor}", "--max-arity", "-1"],
    ["borel", "hom", "--operad", "braid", "--category", "{d2}", "--src", "a,b", "--tgt", "a,b", "--bound", "-1"],
]

# (argv with {placeholders}, exit code): every malformed input is an input
# error or an ordinary verdict, never a traceback
MALFORMED_INPUTS = [
    ([], 3),
    (["pi", "--operad", "sym", "--n", "3", "[1,1,2]"], 3),
    (["pi", "--operad", "cactus", "--n", "3", "s(2,1)"], 3),
    (["pi", "--operad", "braid", "--n", "-1", "e"], 3),
    (["pi", "--operad", "braid", "--n", "3", "b01"], 3),
    (["pi", "--operad", "braid", "--n", "3", "b+1"], 3),
    (["pi", "--operad", "cactus", "--n", "3", "s(01,2)"], 3),
    (["mul", "--operad", "sym", "--n", "x", "[1]", "[1]"], 3),
    (["beta", "--operad", "sym", "--n", "2,a", "[2,1]", "[1]"], 3),
    (["delta", "--operad", "cactus", "--n", "2", "--sizes", "1", "s(1,2)"], 3),
    (["mu", "--operad", "braid", "--n", "2", "--arities", "1,2", "b1", "e", "b2"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{missing}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{notjson}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{list}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{no_path}", "e", "e"], 3),
    (["equal", "--operad", "cactus", "--n", "3", "--replay", "{untyped_path}", "e", "e"], 3),
    *(
        (["equal", "--operad", "braid", "--n", "3", "--replay", f"{{{name}_step}}", "b1 b2 b1", "b2 b1 b2"], 3)
        for name in (
            "float_rel", "string_orient", "bool_orient", "large_orient", "negative_orient", "negative_pos", "null_pos",
            "boolean_sign", "boolean_generator",
        )
    ),
    (["axioms", "--operad", "braid", "--max-arity", "3", "--block-size", "1000", "--samples", "1"], 0),
    (["axioms", "--operad", "sym", "--max-arity", "-1"], 3),
    (["axioms", "--operad", "cactus", "--max-arity", "3", "--block-size", "0", "--samples", "2"], 3),
    (["axioms", "--operad", "braid", "--samples", "-3"], 3),
    (["axioms", "--operad", "braid", "--word-len", "-2"], 3),
    (["axioms", "--operad", "braid", "--block-size", "0"], 3),
    (["cactus", "shat", "--p", "3", "--q", "1", "--n", "3"], 3),
    (["cactus", "commutor", "--m", "0", "--n", "-1"], 3),
    (["cactus", "coboundary", "--max-total", "0"], 0),
    (["cactus", "coboundary", "--max-total", "-1"], 3),
    (["borel", "hom", "--operad", "sym", "--category", "{nested_objects}", "--src", "a", "--tgt", "a"], 3),
    (["borel", "hom", "--operad", "sym", "--category", "{numeric_ids}", "--src", "a", "--tgt", "a"], 3),
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
    (["multicat", "validate", "--operad", "sym", "--file", "{numeric_element}"], 3),
    (["multicat", "validate", "--operad", "sym", "--file", "{numeric_generator}"], 3),
    (["multicat", "lift", "--operad", "sym", "--category-x", "{d2}", "--category-y", "{d2}",
      "--functor", "{not_a_functor}"], 3),
    (["present", "check", "--operad", "cactus", "--file", "{numeric_term}"], 3),
    (["present", "check", "--operad", "cactus", "--file", "{list}"], 3),
    (["present", "check", "--operad", "sym", "--file", "{boolean_pi}", "--interp", "s=[2,1]"], 3),
    (["equal", "--operad", "braid", "--n", "3", "--budget", "-5", "b1 b2 b1", "b2 b1 b2"], 3),
    (["axioms", "--operad", "cactus", "--max-arity", "2", "--budget", "-5"], 3),
    (["cactus", "coboundary", "--max-total", "2", "--budget", "-5"], 3),
    (["present", "check", "--operad", "cactus", "--file", "{one_generator}", "--interp", "s=s(1,2)",
      "--budget", "-5"], 3),
    (["present", "check", "--operad", "cactus", "--file", "{one_generator}", "--interp", "s"], 3),
    *((argv, 3) for argv in NEGATIVE_ARGUMENTS),
]

# one argv per subcommand that reads a file, "{file}" standing for the file
FILE_READERS = [
    ["equal", "--operad", "cactus", "--n", "3", "--replay", "{file}", "e", "e"],
    ["borel", "hom", "--operad", "sym", "--category", "{file}", "--src", "a", "--tgt", "a"],
    ["borel", "compose", "--operad", "sym", "--category", "{file}", "--src", "a", "--mid", "a",
     "--tgt", "a", "[1]|id_a", "[1]|id_a"],
    ["club", "pullback", "--operad", "sym", "--n", "2", "--category", "{file}"],
    ["multicat", "validate", "--operad", "sym", "--file", "{file}"],
    ["multicat", "lift", "--operad", "sym", "--category-x", "{d2}", "--category-y", "{d2}", "--functor", "{file}"],
    ["present", "check", "--operad", "cactus", "--file", "{file}"],
]


class TestMalformedInputs:
    @pytest.mark.parametrize("argv, want", MALFORMED_INPUTS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_exit_code_without_traceback(self, capsys, tmp_path, d2_file, argv, want):
        files = {"d2": d2_file, "missing": str(tmp_path / "missing.json")}
        (tmp_path / "notjson.json").write_text("{not json")
        files["notjson"] = str(tmp_path / "notjson.json")
        (tmp_path / "one_generator.json").write_text(json.dumps(ONE_GENERATOR))
        files["one_generator"] = str(tmp_path / "one_generator.json")
        for name, doc in MALFORMED_DOCS.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = main([arg.format(**files) for arg in argv])
        err = capsys.readouterr().err
        assert code == want
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", FILE_READERS, ids=lambda v: " ".join(x for x in v[:2] if not x.startswith("-")))
    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path, d2_file, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code = main([arg.format(file=deep, d2=d2_file) for arg in argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {deep}: JSON document nested too deeply\n"

    @pytest.mark.parametrize("field, value", [("rel", 3.9), ("orient", "7"), ("orient", True), ("orient", 7)])
    def test_a_malformed_path_step_is_one_error_line(self, capsys, tmp_path, field, value):
        step = {"rel": 0, "orient": 0, "pos": 0, "result": [], field: value}
        doc = tmp_path / "path.json"
        doc.write_text(json.dumps({"path": {"meet": [], "forward": [step], "backward": []}}))
        assert main(["equal", "--operad", "braid", "--n", "3", "--replay", str(doc), "b1 b2 b1", "b2 b1 b2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed path document: step {field} {value!r}\n"

    @pytest.mark.parametrize("letter", [[2, True], [True, 1], [2, 2], [[1, True], 1]])
    def test_a_malformed_path_letter_is_one_error_line(self, capsys, tmp_path, letter):
        # JSON true equals 1 in Python, so [2, true] would read as b2
        step = {"rel": 0, "orient": 0, "pos": 0, "result": [letter]}
        doc = tmp_path / "path.json"
        doc.write_text(json.dumps({"path": {"meet": [], "forward": [step], "backward": []}}))
        assert main(["equal", "--operad", "braid", "--n", "3", "--replay", str(doc), "b1 b2 b1", "b2 b1 b2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed path document: letter {letter!r}\n"

    def test_sampled_axioms_with_wide_blocks_finish(self, capsys):
        # a 3-part block vector of widths up to 1000 fits a cap of 6 about
        # once in 5e7 whole draws; past a fixed number the widths are drawn
        # one by one within what is left
        start = time.monotonic()
        assert main(["axioms", "--operad", "braid", "--max-arity", "3", "--block-size", "1000", "--samples", "1"]) == 0
        assert time.monotonic() - start < 5
        assert "total: checked=15 failed=0 inconclusive=0" in capsys.readouterr().out

    def test_a_negative_budget_is_one_error_line(self, capsys):
        assert main(["equal", "--operad", "braid", "--n", "3", "--budget", "-5", "b1 b2 b1", "b2 b1 b2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["actionoperads equal: error: argument --budget: expected a whole number >= 0, got '-5'"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["axioms", "--operad", "braid", "--samples", "-3"],
             "actionoperads axioms: error: argument --samples: expected a whole number >= 0, got '-3'"),
            (["cactus", "coboundary", "--max-total", "-1"],
             "actionoperads cactus coboundary: error: argument --max-total: expected a whole number >= 0, got '-1'"),
            (["axioms", "--operad", "braid", "--word-len", "-2"],
             "actionoperads axioms: error: argument --word-len: expected a whole number >= 0, got '-2'"),
            (["axioms", "--operad", "braid", "--block-size", "0"], "error: max_block_size must be >= 1, got 0"),
        ],
        ids=["samples", "max-total", "word-len", "block-size"],
    )
    def test_a_bound_out_of_range_is_one_error_line(self, capsys, argv, error):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [error]

    @pytest.mark.parametrize("doc, name", [("numeric_element", 1), ("numeric_generator", 7)])
    def test_a_numeric_multicategory_name_is_one_error_line(self, capsys, tmp_path, doc, name):
        # without the name check, the element would validate and the
        # generator would be reported as a violation of the table
        path = tmp_path / "multicat.json"
        path.write_text(json.dumps(MALFORMED_DOCS[doc]))
        assert main(["multicat", "validate", "--operad", "sym", "--file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed multicategory document: expected a name, got {name}\n"

    @pytest.mark.parametrize("argv", NEGATIVE_ARGUMENTS, ids=lambda v: " ".join(v[:2]))
    def test_a_negative_argument_is_one_error_line(self, capsys, tmp_path, d2_file, argv):
        functor = tmp_path / "functor.json"
        functor.write_text(json.dumps(MALFORMED_DOCS["identity_functor"]))
        assert main([arg.format(d2=d2_file, identity_functor=functor) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["equal", "--operad", "cactus", "--n", "3", "e", "e"],
            ["axioms", "--operad", "sym", "--max-arity", "2"],
            ["cactus", "coboundary", "--max-total", "2"],
            ["present", "check", "--operad", "cactus", "--file", "{file}", "--interp", "s=s(1,2)"],
        ],
        ids=["equal", "axioms", "cactus coboundary", "present check"],
    )
    def test_word_length_cap_is_gone(self, capsys, tmp_path, argv):
        # the state budget is the search's only bound
        (tmp_path / "p.json").write_text(json.dumps(ONE_GENERATOR))
        argv = [arg.format(file=tmp_path / "p.json") for arg in argv]
        assert main(argv) == 0
        assert main([*argv, "--max-len", "8"]) == 3


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
