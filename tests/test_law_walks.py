"""The row-indexed and memoized law walks against the walks they replaced.

``validate_multicat``'s associativity walk and ``FinCat.validate``'s triple
walk look compositions up in one row per head, and ``validate_multicat``'s
action laws build each shape-only element and word once per call.  Here
random corruptions of finite tables must give the same ``ValidationReport``
(counts and violations in order) and the same first ``FinCat`` failure as
the reference walks in ``tests/oracles.py``, which probe the whole table
and rebuild every element.

``check_axioms`` walks each law in one loop that renders a case only when
its sides differ.  On the symmetric instance with one planted wrong
``mul``, ``beta`` or ``delta`` result (enumerated or sampled) and on the
sampled braid instance at small budgets, it must give the same
``AxiomReport`` (counts, inconclusive counts and failures in order) as the
per-case reference walk.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionoperads import multicat
from actionoperads.borel import borel_realization
from actionoperads.cactus import cactus_operad
from actionoperads.braid import braid_operad
from actionoperads.core import AxiomCheckConfig, SymmetricOperad, check_axioms, symmetric_operad
from actionoperads.fincat import arrow_category, discrete_category, z2_category
from actionoperads.multicat import operad_as_multicat, validate_multicat
from actionoperads.perm import Perm, all_perms
from oracles import (
    reference_action_walk,
    reference_chain_walk,
    reference_check_axioms,
    reference_fincat_validate,
)
from planted import SwapPi, UnreducedCactus
from test_validator_golden import _colored_terminal, _partly_listed, _swapped_actions

SYM = symmetric_operad()


def corruptions(same: int):
    """Lists of (kind, entry, choice), each picking an entry and a
    replacement by index; only "same" leaves a table that can reach the
    associativity walk, so it gets weight ``same`` against 1 for each
    other kind."""
    kinds = ("same",) * same + ("any", "drop", "ghost")
    edit = st.tuples(st.sampled_from(kinds), st.integers(0, 10**6), st.integers(0, 10**6))
    return st.lists(edit, min_size=1, max_size=4)


def _other(pool, current, j):
    """The j-th member of ``pool`` other than ``current``, if any."""
    others = [x for x in pool if x != current]
    return others[j % len(others)] if others else current


@cache
def multicats() -> tuple:
    colored = _colored_terminal(2)
    return (operad_as_multicat(SYM, 3), colored, _partly_listed(colored), _swapped_actions(colored))


@cache
def acted_multicats() -> tuple:
    """(table, instance) pairs for the action laws.  The planted cactus
    instance reads the honest cactus table.  In sym 3 at most one leg of an
    entry has a generator, so the sym-4 table cut to heads of arity <= 2
    adds entries with two legs of arity 2."""
    cactus = cactus_operad()
    cactus_table = operad_as_multicat(cactus, 2)
    sym4 = operad_as_multicat(SYM, 4)
    two_legs = {key: r for key, r in sym4.composition.items() if sym4.arity(key[0]) <= 2}
    return (
        (operad_as_multicat(SYM, 3), SYM),
        (replace(sym4, composition=two_legs), SYM),
        (cactus_table, cactus),
        (cactus_table, UnreducedCactus()),
    )


@cache
def realizations() -> tuple:
    cats = (
        discrete_category(("a", "b"), name="d2"),
        z2_category(),
        arrow_category(),
        discrete_category(("a", "b", "c"), name="d3"),
    )
    return tuple(borel_realization(SYM, X, 3).cat for X in cats)


def _corrupt_multicat(M, edits):
    """A result moved within its signature ("same") or anywhere ("any"),
    an entry dropped, or a result that is no element ("ghost")."""
    comp = dict(M.composition)
    names = list(M.elements)
    for kind, i, j in edits:
        keys = list(comp)
        key = keys[i % len(keys)]
        if kind == "drop":
            del comp[key]
        elif kind == "ghost":
            comp[key] = "ghost"
        elif kind == "any":
            comp[key] = names[j % len(names)]
        elif comp[key] in M.elements:
            comp[key] = _other(M.homs[M.elements[comp[key]]], comp[key], j)
    return replace(M, composition=comp)


def _corrupt_actions(M, edits):
    """An action target moved within its signature ("same") or anywhere
    ("any"), an action dropped, or a target that is no element ("ghost")."""
    acts = dict(M.actions)
    names = list(M.elements)
    for kind, i, j in edits:
        if not acts:
            break
        keys = list(acts)
        key = keys[i % len(keys)]
        if kind == "drop":
            del acts[key]
        elif kind == "ghost":
            acts[key] = "ghost"
        elif kind == "any":
            acts[key] = names[j % len(names)]
        elif acts[key] in M.elements:
            acts[key] = _other(M.homs[M.elements[acts[key]]], acts[key], j)
    return replace(M, actions=acts)


def _corrupt_fincat(cat, edits):
    """A composite moved within its hom-set ("same") or anywhere ("any"),
    an entry dropped, or a composite that is no morphism ("ghost")."""
    table = dict(cat.table)
    for kind, i, j in edits:
        keys = list(table)
        key = keys[i % len(keys)]
        if kind == "drop":
            del table[key]
        elif kind == "ghost":
            table[key] = "ghost"
        elif kind == "any":
            table[key] = cat.morphisms[j % len(cat.morphisms)]
        elif table[key] in cat.src:
            h = table[key]
            table[key] = _other(cat.hom(cat.src[h], cat.tgt[h]), h, j)
    return replace(cat, table=table)


def _first_failure(validate) -> str | None:
    try:
        validate()
    except ValueError as exc:
        return str(exc)
    return None


def _report(M, inst=SYM):
    rep = validate_multicat(M, inst)
    return rep.checked, rep.skipped, rep.violations


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), corruptions(same=3))
def test_chain_walk_matches_the_reference(which, edits):
    M = _corrupt_multicat(multicats()[which], edits)
    got = _report(M)
    with mock.patch.object(multicat, "_check_associativity", reference_chain_walk):
        want = _report(M)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.one_of(st.just([]), corruptions(same=3)),
    st.one_of(st.just([]), corruptions(same=3)),
)
@example(0, [], [])
@example(1, [], [])
def test_action_walk_matches_the_reference(which, composition_edits, action_edits):
    M, inst = acted_multicats()[which]
    M = _corrupt_actions(_corrupt_multicat(M, composition_edits), action_edits)
    got = _report(M, inst)
    with mock.patch.object(multicat, "_check_action_laws", reference_action_walk):
        want = _report(M, inst)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), corruptions(same=12))
def test_triple_walk_matches_the_reference(which, edits):
    cat = _corrupt_fincat(realizations()[which], edits)
    assert _first_failure(cat.validate) == _first_failure(lambda: reference_fincat_validate(cat))


def test_the_corruptions_reach_the_action_laws():
    M, inst = acted_multicats()[0]
    M = _corrupt_actions(M, [("same", 5, 1)])
    assert any(v.startswith(("leg action law fails", "head action law fails")) for v in _report(M, inst)[2])


def test_the_corruptions_reach_the_associativity_walks():
    # a result moved within its signature breaks associativity somewhere
    M = _corrupt_multicat(multicats()[0], [("same", 7, 1)])
    assert any(v.startswith("associativity fails") for v in _report(M)[2])
    cat = _corrupt_fincat(realizations()[1], [("same", 40, 1)])
    assert "associativity fails" in _first_failure(cat.validate)


class OneWrongResult(SymmetricOperad):
    """The symmetric instance whose ``op`` gives ``wrong`` at the payloads
    ``at`` and is honest elsewhere; unlisted, it is sampled."""

    def __init__(self, op=None, at=None, wrong=None, listed=True, seen=None):
        super().__init__()
        self.op, self.at, self.wrong, self.listed, self.seen = op, at, wrong, listed, seen

    def _result(self, op, at, out):
        if self.seen is not None:
            self.seen.setdefault((op, at), out.payload)
        return self._wrap(self.wrong) if (op, at) == (self.op, self.at) else out

    def mul(self, a, b):
        return self._result("mul", (a.payload, b.payload), super().mul(a, b))

    def beta(self, els):
        return self._result("beta", tuple(e.payload for e in els), super().beta(els))

    def delta(self, a, sizes):
        return self._result("delta", (a.payload, tuple(sizes)), super().delta(a, sizes))

    def elements(self, n):
        return super().elements(n) if self.listed else None


def _config(seed: int) -> AxiomCheckConfig:
    """Arity 3; the seed and the sample count matter only when sampled."""
    return AxiomCheckConfig(max_total_arity=3, samples_per_axiom=10, seed=seed)


@cache
def reached(listed: bool, seed: int) -> tuple:
    """The (op, payloads) -> honest result calls a run makes, where the
    result has a wrong value of its arity to plant."""
    seen: dict = {}
    check_axioms(OneWrongResult(listed=listed, seen=seen), _config(seed))
    return tuple((key, out) for key, out in seen.items() if out.n >= 2)


def _same_reports(inst, config):
    got, want = check_axioms(inst, config), reference_check_axioms(inst, config)
    assert got.to_dict() == want.to_dict()
    assert got.format_text() == want.format_text()
    return got


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.sampled_from((2026, 1, 7)), st.integers(0, 10**6), st.integers(0, 10**6))
@example(True, 2026, 0, 0)
def test_axiom_walks_match_the_reference_on_one_wrong_result(listed, seed, i, j):
    calls = reached(listed, seed)
    (op, at), out = calls[i % len(calls)]
    _same_reports(OneWrongResult(op, at, _other(all_perms(out.n), out, j), listed), _config(seed))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((None, 0, 1, 2, 5)), st.integers(2, 3), st.integers(1, 6))
@example(2026, 0, 3, 10)
def test_axiom_walks_match_the_reference_on_sampled_braids(seed, budget, arity, samples):
    config = AxiomCheckConfig(max_total_arity=arity, samples_per_axiom=samples, seed=seed, budget=budget)
    _same_reports(braid_operad(), config)


def test_a_wrong_product_fails_the_pi_law_with_its_inputs():
    # g h for g = [2,1,3], h = [1,3,2] at arity 3 is planted as the unit
    g, h = Perm((2, 1, 3)), Perm((1, 3, 2))
    rep = _same_reports(OneWrongResult("mul", (g, h), Perm((1, 2, 3))), _config(2026))
    failures = rep.outcomes["pi_homomorphism"].failures
    assert [f.inputs for f in failures] == ["mul: [2,1,3] * [1,3,2] @ 3"]


def test_a_pi_that_moves_the_unit_fails_the_pi_law_at_the_unit():
    rep = _same_reports(SwapPi(), AxiomCheckConfig(max_total_arity=2))
    failures = rep.outcomes["pi_homomorphism"].failures
    assert ("unit @ 2", "[2,1]", "[1,2]") in [(f.inputs, f.lhs, f.rhs) for f in failures]
