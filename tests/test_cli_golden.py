"""The command line pinned byte for byte: stdout and exit code of 53
commands, covering every subcommand, all four ``--operad`` values
where a subcommand takes one, and both ``--format`` values.

The pinned outputs and the input files they read live in
``tests/data/cli_golden.json``.  Rewrite them, only when an output is
meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from actionoperads.cli import main
from actionoperads.core import symmetric_operad
from actionoperads.fincat import discrete_category, fincat_to_dict, z2_category
from actionoperads.multicat import multicat_to_dict, operad_as_multicat

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

S = ("--format", "structured")
# a pair that slide-cancel proves equal with no search
SLID = ("s(1,2) s(1,3) s(2,3)", "s(1,3)")

# name -> argv; ``{name}`` stands for the path of the input file ``name``
COMMANDS = {
    "pi_sym": ["pi", "--operad", "sym", "--n", "3", "[2,3,1]"],
    "pi_trivial": ["pi", "--operad", "trivial", "--n", "3", "e"],
    "pi_braid": ["pi", "--operad", "braid", "--n", "4", "b1 B3 b2"],
    "pi_cactus_structured": ["pi", "--operad", "cactus", "--n", "3", "s(1,3)", *S],
    "pi_braid_bad_letter": ["pi", "--operad", "braid", "--n", "3", "b3"],
    "pi_cactus_bad_letter": ["pi", "--operad", "cactus", "--n", "3", "s(2,2)"],
    "mul_sym": ["mul", "--operad", "sym", "--n", "3", "[3,2,1]", "[2,1,3]"],
    "mul_trivial_structured": ["mul", "--operad", "trivial", "--n", "2", "e", "e", *S],
    "mul_braid": ["mul", "--operad", "braid", "--n", "3", "b1 b2", "B2 b1"],
    "mul_cactus": ["mul", "--operad", "cactus", "--n", "3", "s(1,2)", "s(1,2) s(2,3)"],
    "mul_braid_negative_arity": ["mul", "--operad", "braid", "--n", "-1", "e", "e"],
    "beta_sym": ["beta", "--operad", "sym", "--n", "2,1", "[2,1]", "[1]"],
    "beta_braid_structured": ["beta", "--operad", "braid", "--n", "2,3", "b1", "B2 b1", *S],
    "beta_cactus": ["beta", "--operad", "cactus", "--n", "2,2", "s(1,2)", "s(1,2)"],
    "delta_trivial": ["delta", "--operad", "trivial", "--n", "2", "--sizes", "2,3", "e"],
    "delta_braid": ["delta", "--operad", "braid", "--n", "3", "--sizes", "2,1,2", "b1 B2"],
    "delta_cactus_structured": ["delta", "--operad", "cactus", "--n", "2", "--sizes", "2,1", "s(1,2)", *S],
    "mu_sym": ["mu", "--operad", "sym", "--n", "2", "--arities", "1,2", "[2,1]", "[1]", "[2,1]"],
    "mu_braid": ["mu", "--operad", "braid", "--n", "2", "--arities", "2,1", "B1", "b1", "e"],
    "equal_trivial": ["equal", "--operad", "trivial", "--n", "2", "e", "e"],
    "equal_trivial_explain": ["equal", "--operad", "trivial", "--n", "2", "--explain", "e", "e"],
    "equal_sym_distinct": ["equal", "--operad", "sym", "--n", "2", "[2,1]", "[1,2]"],
    "equal_braid_explain": ["equal", "--operad", "braid", "--n", "3", "--explain", "b1 b2 b1", "b2 b1 b2"],
    "equal_braid_garside_structured": [
        "equal", "--operad", "braid", "--n", "4", *S,
        "b1 b2 b3 b1 b2 b1 b1 b1", "b1 b2 b3 b1 b2 b1 b3 b3",
    ],
    "equal_braid_strict_inconclusive": [
        "equal", "--operad", "braid", "--n", "3", "--budget", "0", "--strict", "b1 b2 b1", "b2 b1 b2",
    ],
    "equal_cactus_explain": ["equal", "--operad", "cactus", "--n", "3", "--explain", "s(1,3) s(1,2)", "s(2,3) s(1,3)"],
    "equal_cactus_explain_structured": [
        "equal", "--operad", "cactus", "--n", "4", "--explain", *S, "s(1,4) s(2,3)", "s(2,3) s(1,4)",
    ],
    "equal_cactus_replay": [
        "equal", "--operad", "cactus", "--n", "4", "--replay", "{path}", "s(1,4) s(2,3)", "s(2,3) s(1,4)",
    ],
    "equal_cactus_explain_slides": ["equal", "--operad", "cactus", "--n", "3", "--explain", *SLID],
    "equal_cactus_replay_slides": ["equal", "--operad", "cactus", "--n", "3", "--replay", "{slides}", *SLID],
    "axioms_sym": ["axioms", "--operad", "sym", "--max-arity", "2"],
    "axioms_trivial_structured": ["axioms", "--operad", "trivial", "--max-arity", "2", *S],
    "axioms_braid_sampled": ["axioms", "--operad", "braid", "--max-arity", "3", "--samples", "4"],
    "axioms_cactus_sampled_structured": ["axioms", "--operad", "cactus", "--max-arity", "3", "--samples", "3", *S],
    "cactus_shat": ["cactus", "shat", "--p", "2", "--q", "4", "--n", "5"],
    "cactus_commutor_structured": ["cactus", "commutor", "--m", "2", "--n", "2", *S],
    "cactus_relations_4": ["cactus", "relations", "--n", "4"],
    "cactus_relations_3_structured": ["cactus", "relations", "--n", "3", *S],
    "cactus_coboundary": ["cactus", "coboundary", "--max-total", "4"],
    "borel_hom_sym": ["borel", "hom", "--operad", "sym", "--category", "{d2}", "--src", "a,b", "--tgt", "b,a"],
    "borel_hom_cactus_structured": [
        "borel", "hom", "--operad", "cactus", "--category", "{d2}", "--src", "a,b", "--tgt", "a,b", *S,
    ],
    "borel_compose_sym": [
        "borel", "compose", "--operad", "sym", "--category", "{d2}",
        "--src", "a,b", "--mid", "b,a", "--tgt", "a,b", "[2,1]|id_b,id_a", "[2,1]|id_a,id_b",
    ],
    "borel_infinity_sym": ["borel", "infinity", "--operad", "sym", "--n", "3"],
    "borel_infinity_trivial_structured": ["borel", "infinity", "--operad", "trivial", "--n", "2", *S],
    "club_check_sym": ["club", "check", "--operad", "sym", "--max-arity", "3"],
    "club_check_trivial": ["club", "check", "--operad", "trivial", "--max-arity", "3"],
    "club_check_cactus_structured": ["club", "check", "--operad", "cactus", "--max-arity", "2", *S],
    "club_check_braid_past_finite": ["club", "check", "--operad", "braid", "--max-arity", "3"],
    "club_pullback_sym": ["club", "pullback", "--operad", "sym", "--n", "2", "--category", "{d2}"],
    "multicat_validate_sym": ["multicat", "validate", "--operad", "sym", "--file", "{multicat}"],
    "multicat_lift_sym_structured": [
        "multicat", "lift", "--operad", "sym", "--category-x", "{d2}", "--category-y", "{z2}",
        "--functor", "{functor}", "--max-arity", "2", *S,
    ],
    "present_check_cactus": [
        "present", "check", "--operad", "cactus", "--file", "{presentation}", "--interp", "s=s(1,2)",
    ],
    "present_check_braid_structured": [
        "present", "check", "--operad", "braid", "--file", "{presentation}", "--interp", "s=b1", *S,
    ],
}


def make_inputs() -> dict:
    """The input files, built once from the library when recording."""
    argv = COMMANDS["equal_cactus_explain_structured"]
    return {
        "d2": fincat_to_dict(discrete_category(("a", "b"), name="d2")),
        "z2": fincat_to_dict(z2_category()),
        "functor": {"ob": {"a": "*", "b": "*"}, "mor": {"id_a": "e", "id_b": "e"}},
        "multicat": multicat_to_dict(operad_as_multicat(symmetric_operad(), 2)),
        "presentation": {
            "generators": [{"name": "s", "arity": 2, "pi": [2, 1]}],
            "relations": [
                {"lhs": "mul(gen(s), gen(s))", "rhs": "id(2)"},
                {
                    "lhs": "mul(delta(gen(s); [1,2]), beta(id(1), gen(s)))",
                    "rhs": "mul(delta(gen(s); [2,1]), beta(gen(s), id(1)))",
                },
            ],
        },
        "path": {"path": json.loads(_run(argv, {})["stdout"])["path"]},
        "slides": {"path": json.loads(_run([*COMMANDS["equal_cactus_explain_slides"], *S], {})["stdout"])["path"]},
    }


def _run(argv, paths) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    return {"stdout": out.getvalue(), "exit": code}


def _write_inputs(inputs: dict, where: Path) -> dict:
    paths = {}
    for name, doc in inputs.items():
        path = where / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def paths(golden, tmp_path_factory) -> dict:
    return _write_inputs(golden["inputs"], tmp_path_factory.mktemp("cli_golden"))


def test_every_command_is_pinned(golden):
    assert sorted(golden["commands"]) == sorted(COMMANDS)
    assert all(golden["commands"][name]["argv"] == argv for name, argv in COMMANDS.items())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_golden(golden, paths, name):
    want = golden["commands"][name]
    assert _run(COMMANDS[name], paths) == {"stdout": want["stdout"], "exit": want["exit"]}


if __name__ == "__main__":
    import tempfile

    inputs = make_inputs()
    with tempfile.TemporaryDirectory() as where:
        paths = _write_inputs(inputs, Path(where))
        commands = {name: {"argv": argv, **_run(argv, paths)} for name, argv in COMMANDS.items()}
    GOLDEN.write_text(json.dumps({"inputs": inputs, "commands": commands}, indent=1) + "\n")
