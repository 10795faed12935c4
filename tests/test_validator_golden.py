"""Validator reports pinned byte for byte: ``validate_multicat``,
``validate_profunctor``, the first failure named by ``FinCat.validate``,
``unit_compose_iso`` and ``multicat_to_dict``, on valid tables and on
tables with planted corruptions (so the pinned violation lists are long
and their order matters).

The pinned reports live in ``tests/data/validator_reports.json``.
Rewrite them, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_validator_golden.py
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from actionoperads.cactus import cactus_operad
from actionoperads.core import symmetric_operad, trivial_operad
from actionoperads.fincat import (
    FinCat,
    arrow_category,
    discrete_category,
    translation_category,
    z2_category,
)
from actionoperads.multicat import (
    FinFunctor,
    FinMulticat,
    FinProf,
    empty_multicat,
    from_functor,
    identity_prof,
    lift_prof,
    multicat_from_dict,
    multicat_to_dict,
    operad_as_multicat,
    prof_compose,
    terminal_multicat,
    unit_compose_iso,
    validate_multicat,
    validate_profunctor,
)
from test_multicat import _mutations

GOLDEN = Path(__file__).parent / "data" / "validator_reports.json"

SYM = symmetric_operad()
TRIV = trivial_operad()


def _outcome(run) -> dict:
    """The value of ``run()``, or the error it raises."""
    try:
        return {"value": run()}
    except (KeyError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# multicategories
# ---------------------------------------------------------------------------


def _colored_terminal(max_arity: int) -> FinMulticat:
    """Two objects, one element per signature; the actions permute the
    inputs, so every hom-set has one element and every law holds."""
    objs = ("a", "b")
    elements = {}
    for n in range(max_arity + 1):
        for inputs in product(objs, repeat=n):
            for out in objs:
                elements["".join(inputs) + ">" + out] = (inputs, out)
    by_sig = {sig: el for el, sig in elements.items()}
    composition = {}
    for head, (inputs, out) in elements.items():
        pools = [[e for e, s in elements.items() if s[1] == x] for x in inputs]
        for legs in product(*pools):
            flat = tuple(x for leg in legs for x in elements[leg][0])
            if len(flat) <= max_arity:
                composition[(head, legs)] = by_sig[(flat, out)]
    actions = {}
    for el, (inputs, out) in elements.items():
        n = len(inputs)
        for name, gen in SYM.generators(n):
            p = SYM.pi(gen).images
            actions[(name, el)] = by_sig[(tuple(inputs[p.index(i + 1)] for i in range(n)), out)]
    identities = {x: f"{x}>{x}" for x in objs}
    return FinMulticat("colored", objs, elements, identities, composition, actions)


def _partly_listed(M: FinMulticat) -> FinMulticat:
    """Every third composition entry and every fourth action entry gone."""
    comp = {k: v for i, (k, v) in enumerate(sorted(M.composition.items())) if i % 3 != 1}
    acts = {k: v for i, (k, v) in enumerate(sorted(M.actions.items())) if i % 4 != 2}
    return replace(M, name="partial", composition=comp, actions=acts)


def _frozen(M: FinMulticat) -> FinMulticat:
    return replace(M, name="frozen", actions={key: key[1] for key in M.actions})


def _swapped_actions(M: FinMulticat) -> FinMulticat:
    """Each generator's first two action targets swapped."""
    acts = dict(M.actions)
    by_name: dict = {}
    for key in sorted(M.actions):
        by_name.setdefault(key[0], []).append(key)
    for keys in by_name.values():
        if len(keys) >= 2:
            acts[keys[0]], acts[keys[1]] = acts[keys[1]], acts[keys[0]]
    return replace(M, name="swapped", actions=acts)


def _junk(M: FinMulticat, target: int) -> FinMulticat:
    """Entries that break the structure checks.  The generator ``t1``
    sends the last element to the element at ``target``; when that is
    the nullary element, the action changes arity and the head-action law
    must skip it rather than reorder no legs."""
    els = sorted(M.elements)
    comp = dict(M.composition)
    comp[("nowhere", (els[0],))] = els[0]
    comp[("stray", ())] = els[0]
    acts = dict(M.actions)
    acts[("t1", "nowhere")] = els[0]
    acts[("zz", els[-1])] = els[-1]
    acts[("t1", els[-1])] = els[target]
    elements = dict(M.elements)
    elements["stray"] = (("?",), "*")
    return replace(M, name="junk", elements=elements, composition=comp, actions=acts)


def _unknown_leg_in_chain(M: FinMulticat) -> FinMulticat:
    """A composition entry whose leg is no element and whose result heads
    a listed entry: associativity must not read the leg's arity."""
    (head, legs), r = next(item for item in sorted(M.composition.items()) if item[0][1])
    comp = dict(M.composition)
    comp[(head, ("ghost",) * len(legs))] = r
    return replace(M, name="ghost", composition=comp)


def _seeded_mutants(M: FinMulticat, seed: int, count: int) -> list[FinMulticat]:
    """Single-entry corruptions that keep every signature: about 60%
    composition results, the rest action targets, one identity last."""
    rng = random.Random(seed)
    by_sig: dict = {}
    for el, sig in sorted(M.elements.items()):
        by_sig.setdefault(sig, []).append(el)

    def others(el):
        return [x for x in by_sig[M.elements[el]] if x != el]

    comp_keys = [k for k in sorted(M.composition) if others(M.composition[k])]
    act_keys = [k for k in sorted(M.actions) if others(M.actions[k])]
    out = []
    for i in range(count - 1):
        if i < (count * 6) // 10:
            key = rng.choice(comp_keys)
            comp = dict(M.composition)
            comp[key] = rng.choice(others(comp[key]))
            out.append(replace(M, composition=comp))
        else:
            key = rng.choice(act_keys)
            acts = dict(M.actions)
            acts[key] = rng.choice(others(acts[key]))
            out.append(replace(M, actions=acts))
    x = M.objects[0]
    wrong = rng.choice([el for el in sorted(M.elements) if el != M.identities[x]])
    out.append(replace(M, identities={x: wrong}))
    return out


def _multicat_cases() -> dict:
    sym3 = operad_as_multicat(SYM, 3)
    colored = _colored_terminal(2)
    cases = {
        "sym_2": (operad_as_multicat(SYM, 2), SYM),
        "sym_3": (sym3, SYM),
        "cactus_2": (operad_as_multicat(cactus_operad(), 2), cactus_operad()),
        "trivial_4": (operad_as_multicat(TRIV, 4), TRIV),
        "terminal_sym_3": (terminal_multicat(SYM, 3), SYM),
        "empty": (empty_multicat(), TRIV),
        "colored_2": (colored, SYM),
        "colored_partial_2": (_partly_listed(colored), SYM),
        "colored_swapped_2": (_swapped_actions(colored), SYM),
        "sym_partial_3": (_partly_listed(sym3), SYM),
        "sym_frozen_3": (_frozen(sym3), SYM),
        "sym_swapped_3": (_swapped_actions(sym3), SYM),
        "sym_junk_2": (_junk(operad_as_multicat(SYM, 2), -1), SYM),
        "sym_junk_head_2": (_junk(operad_as_multicat(SYM, 2), 0), SYM),
        "sym_ghost_2": (_unknown_leg_in_chain(operad_as_multicat(SYM, 2)), SYM),
    }
    for i, (_label, mutated) in enumerate(_mutations(sym3)):
        cases[f"sym_mutation_{i}"] = (mutated, SYM)
    for i, mutated in enumerate(_seeded_mutants(sym3, seed=5, count=50)):
        cases[f"sym_seeded_{i}"] = (mutated, SYM)
    return cases


def multicat_reports() -> dict:
    out = {}
    for name, (M, inst) in _multicat_cases().items():

        def run():
            rep = validate_multicat(M, inst)
            return {"checked": rep.checked, "skipped": rep.skipped, "violations": rep.violations}

        out[name] = _outcome(run)
    return out


# ---------------------------------------------------------------------------
# profunctors
# ---------------------------------------------------------------------------


def _collapse() -> FinFunctor:
    X = arrow_category()
    return FinFunctor("collapse", X, z2_category(), {o: "*" for o in X.objects}, {m: "e" for m in X.morphisms})


def _include() -> FinFunctor:
    X = discrete_category(("a", "b"), name="d2")
    return FinFunctor("include", X, arrow_category(), {"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "id_b"})


def _corruptions(P: FinProf) -> dict[str, FinProf]:
    """Action entries redirected inside their cell (the typing holds, so
    the laws must catch them), one entry dropped and one mistyped."""
    cell = P.cell_of()
    out = {}
    for side in ("source_action", "target_action"):
        table = getattr(P, side)
        keys = [k for k in sorted(table) if len(P.values[cell[table[k]]]) > 1]
        for pick in sorted({0, len(keys) // 2, len(keys) - 1}) if keys else ():
            key = keys[pick]
            mates = [s for s in P.values[cell[table[key]]] if s != table[key]]
            out[f"{side}_redirect_{pick}"] = replace(P, **{side: {**table, key: mates[0]}})
        if table:
            key = sorted(table)[-1]
            out[f"{side}_dropped"] = replace(P, **{side: {k: v for k, v in table.items() if k != key}})
            foreign = [s for s in sorted(cell) if cell[s] != cell[table[key]]]
            if foreign:
                out[f"{side}_mistyped"] = replace(P, **{side: {**table, key: foreign[0]}})
    return out


def _profunctor_cases() -> dict[str, FinProf]:
    T = translation_category(("u", "v"), name="iso2")
    PT = discrete_category(("*",), name="pt")
    bases = {
        "plus_collapse": from_functor(_collapse()),
        "plus_include": from_functor(_include()),
        "id_arrow": identity_prof(arrow_category()),
        "id_z2": identity_prof(z2_category()),
        "id_iso2": identity_prof(T),
        "composite_z2_collapse": prof_compose(identity_prof(z2_category()), from_functor(_collapse())).prof,
        "composite_iso2": prof_compose(identity_prof(T), identity_prof(T)).prof,
        "lift_pt_sym": lift_prof(identity_prof(PT), SYM, 2).prof,
        "lift_collapse_trivial": lift_prof(from_functor(_collapse()), TRIV, 2).prof,
    }
    cases = {}
    for name, P in bases.items():
        cases[name] = P
        for label, Q in _corruptions(P).items():
            cases[f"{name}:{label}"] = Q
    return cases


def profunctor_reports() -> dict:
    out = {}
    for name, P in _profunctor_cases().items():
        rep = validate_profunctor(P)
        out[name] = {"checked": rep.checked, "skipped": rep.skipped, "violations": rep.violations}
    return out


def unit_iso_reports() -> dict:
    """The unit comparisons on composites with an identity profunctor,
    against F and against each corruption of F."""
    Y = z2_category()
    X = arrow_category()
    F = from_functor(_collapse())
    left = prof_compose(identity_prof(Y), F)
    right = prof_compose(F, identity_prof(X))
    out = {
        "left": _outcome(lambda: unit_compose_iso(left, F, "left")),
        "right": _outcome(lambda: unit_compose_iso(right, F, "right")),
        "bad_side": _outcome(lambda: unit_compose_iso(left, F, "middle")),
    }
    for label, G in _corruptions(F).items():
        out[f"left:{label}"] = _outcome(lambda: unit_compose_iso(left, G, "left"))
        out[f"right:{label}"] = _outcome(lambda: unit_compose_iso(right, G, "right"))
    return out


# ---------------------------------------------------------------------------
# finite categories
# ---------------------------------------------------------------------------


def _z3() -> FinCat:
    els = ("e", "r", "rr")
    table = {(a, b): els[(i + j) % 3] for i, a in enumerate(els) for j, b in enumerate(els)}
    return FinCat("z3", ("*",), els, {m: "*" for m in els}, {m: "*" for m in els}, {"*": "e"}, table)


def _magma() -> dict:
    """Products of the non-units of z3 under which most triples fail."""
    els = ("r", "rr")
    return {(a, b): ("r", "rr", "e")[(2 * i + j + 1) % 3] for i, a in enumerate(els) for j, b in enumerate(els)}


def _with_table(cat: FinCat, table: dict, name: str) -> FinCat:
    return FinCat(name, cat.objects, cat.morphisms, cat.src, cat.tgt, cat.identities, table)


def _fincat_cases() -> dict[str, FinCat]:
    z3 = _z3()
    arrow = arrow_category()
    T = translation_category(("x", "y", "z"))
    cases = {
        "z3": z3,
        "arrow": arrow,
        "translation_3": T,
        "missing_two_composites": _with_table(
            arrow, {k: v for k, v in arrow.table.items() if k not in {("id_b", "f"), ("f", "id_a")}}, "missing"
        ),
        "missing_in_translation": _with_table(
            T, {k: v for k, v in T.table.items() if k not in {("z>x", "y>z"), ("y>y", "x>y")}}, "missing_t"
        ),
        "broken_right_unit": _with_table(z3, {**z3.table, ("r", "e"): "rr"}, "right_unit"),
        "broken_left_unit": _with_table(z3, {**z3.table, ("e", "rr"): "r"}, "left_unit"),
        "broken_units_both": _with_table(z3, {**z3.table, ("e", "r"): "rr", ("rr", "e"): "r"}, "units"),
        "broken_associativity": _with_table(z3, {**z3.table, ("r", "r"): "e", ("rr", "rr"): "e"}, "assoc"),
        "missing_two_under_one_head": _with_table(
            z3, {k: v for k, v in z3.table.items() if k not in {("r", "e"), ("r", "r")}}, "missing_z3"
        ),
        "broken_associativity_magma": _with_table(z3, {**z3.table, **_magma()}, "magma"),
    }
    # two objects; the endomorphisms of y form a unital magma that is not
    # associative, listed out of order so the triple order shows
    mors = ("a", "id_x", "f", "id_y", "b")
    src = {"a": "y", "id_x": "x", "f": "x", "id_y": "y", "b": "y"}
    tgt = {"a": "y", "id_x": "x", "f": "y", "id_y": "y", "b": "y"}
    table = {("id_x", "id_x"): "id_x", ("f", "id_x"): "f", ("id_y", "f"): "f", ("a", "f"): "f", ("b", "f"): "f"}
    table |= {("id_y", m): m for m in ("a", "id_y", "b")} | {(m, "id_y"): m for m in ("a", "b")}
    table |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    cases["broken_associativity_two_objects"] = FinCat(
        "assoc_2", ("x", "y"), mors, src, tgt, {"x": "id_x", "y": "id_y"}, table
    )
    cat = FinCat("assoc_only", ("*",), ("e", "a", "b"), {m: "*" for m in "eab"}, {m: "*" for m in "eab"},
                 {"*": "e"}, {})
    table = {("e", m): m for m in "eab"} | {(m, "e"): m for m in "eab"}
    table |= {("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"}
    cases["broken_associativity_monoid"] = _with_table(cat, table, "assoc_only")
    return cases


def fincat_reports() -> dict:
    out = {}
    for name, cat in _fincat_cases().items():
        out[name] = _outcome(lambda: cat.validate())
    return out


def reports() -> dict:
    return {
        "validate_multicat": multicat_reports(),
        "validate_profunctor": profunctor_reports(),
        "unit_compose_iso": unit_iso_reports(),
        "fincat_validate": fincat_reports(),
        "multicat_to_dict_sym_3": multicat_to_dict(operad_as_multicat(SYM, 3)),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_multicat_reports_match_golden(golden):
    assert multicat_reports() == golden["validate_multicat"]


def test_profunctor_reports_match_golden(golden):
    assert profunctor_reports() == golden["validate_profunctor"]


def test_unit_compose_iso_matches_golden(golden):
    assert unit_iso_reports() == golden["unit_compose_iso"]


def test_fincat_first_failures_match_golden(golden):
    assert fincat_reports() == golden["fincat_validate"]


def test_multicat_to_dict_matches_golden(golden):
    assert multicat_to_dict(operad_as_multicat(SYM, 3)) == golden["multicat_to_dict_sym_3"]


@pytest.mark.parametrize("planted", [lambda M: _junk(M, 0), _unknown_leg_in_chain], ids=["junk", "ghost"])
def test_multicat_to_dict_keeps_entries_on_unknown_elements(planted):
    # the document holds every entry the validator reports on, including
    # an action on an element that no hom lists
    M = planted(operad_as_multicat(SYM, 2))
    back = multicat_from_dict(multicat_to_dict(M), M.name)
    assert back.elements == dict(M.elements)
    assert back.identities == dict(M.identities)
    assert back.composition == dict(M.composition)
    assert back.actions == dict(M.actions)


def test_planted_cases_fail(golden):
    """The pins are worth keeping only if the corruptions are caught."""
    mc = golden["validate_multicat"]
    planted = ("colored_swapped_2", "sym_frozen_3", "sym_swapped_3", "sym_junk_2", "sym_junk_head_2", "sym_ghost_2")
    for name in planted:
        assert mc[name]["value"]["violations"], name
    assert all(mc[name]["value"]["violations"] for name in mc if name.startswith(("sym_mutation", "sym_seeded")))
    for name in ("sym_3", "cactus_2", "trivial_4", "terminal_sym_3", "empty", "colored_2"):
        assert mc[name]["value"]["violations"] == [], name
    prof = golden["validate_profunctor"]
    assert all(prof[name]["violations"] for name in prof if ":" in name)
    assert not any(prof[name]["violations"] for name in prof if ":" not in name)
    cats = golden["fincat_validate"]
    assert all("error" in cats[name] for name in cats if name.startswith(("missing", "broken")))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports(), indent=1) + "\n")
