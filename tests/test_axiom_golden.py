"""``check_axioms`` reports pinned byte for byte: the finite instances, an
instance rebuilt from its club, planted defects (whose failures must
render the same counterexamples), and sampled runs on the symmetric,
braid and cactus instances, one of them with a planted defect and one at
budget 0, where the oracle's inconclusive answers are counted.

The pinned reports live in ``tests/data/axiom_reports.json``.  Rewrite
them, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_axiom_golden.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from actionoperads.braid import braid_operad
from actionoperads.cactus import cactus_operad
from actionoperads.club import operad_from_club
from actionoperads.core import AxiomCheckConfig, check_axioms, symmetric_operad, trivial_operad
from planted import (
    IdentityDelta,
    InverseBlockSum,
    ReversedBlockSum,
    TwistedDelta,
    UnlistedReversedBlockSum,
    UnlistedSym,
    UnreducedCactus,
)

GOLDEN = Path(__file__).parent / "data" / "axiom_reports.json"

SAMPLED_3 = AxiomCheckConfig(max_total_arity=3, samples_per_axiom=10)

# name -> (instance factory, config)
CASES = {
    "sym_4": (symmetric_operad, AxiomCheckConfig(max_total_arity=4)),
    "trivial_4": (trivial_operad, AxiomCheckConfig(max_total_arity=4)),
    "cactus_2": (cactus_operad, AxiomCheckConfig(max_total_arity=2)),
    "club_sym_3": (lambda: operad_from_club(symmetric_operad()), AxiomCheckConfig(max_total_arity=3)),
    "reversed_block_sum_3": (ReversedBlockSum, AxiomCheckConfig(max_total_arity=3)),
    "identity_delta_3": (IdentityDelta, AxiomCheckConfig(max_total_arity=3)),
    "unreduced_cactus_2": (UnreducedCactus, AxiomCheckConfig(max_total_arity=2)),
    "inverse_block_sum_3": (InverseBlockSum, AxiomCheckConfig(max_total_arity=3)),
    "twisted_delta_3": (TwistedDelta, AxiomCheckConfig(max_total_arity=3)),
    "sym_sampled_3": (UnlistedSym, SAMPLED_3),
    "reversed_block_sum_sampled_3": (UnlistedReversedBlockSum, SAMPLED_3),
    "braid_sampled_3": (braid_operad, SAMPLED_3),
    "braid_sampled_3_budget_0": (braid_operad, replace(SAMPLED_3, budget=0)),
    "cactus_sampled_3": (cactus_operad, SAMPLED_3),
}


def report(name: str) -> dict:
    make, config = CASES[name]
    rep = check_axioms(make(), config)
    return {"report": rep.to_dict(), "text": rep.format_text()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(golden, name):
    got = report(name)
    want = golden[name]
    assert got["text"] == want["text"]
    assert got["report"] == want["report"]


def test_planted_defects_fail():
    golden = json.loads(GOLDEN.read_text())
    for name in ("reversed_block_sum_3", "identity_delta_3", "unreduced_cactus_2", "inverse_block_sum_3",
                 "twisted_delta_3", "reversed_block_sum_sampled_3"):
        axioms = golden[name]["report"]["axioms"]
        assert any(a["failures"] for a in axioms.values()), name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: report(name) for name in CASES}, indent=1) + "\n")
