"""Multicategories with group actions and finite profunctors: validators,
mutation rejection, coend composition, and the Borel lift."""

from __future__ import annotations

import gc
import re
from dataclasses import replace
from functools import cache

import pytest

from actionoperads.braid import braid_operad
from actionoperads.cactus import cactus_operad
from actionoperads.core import SymmetricOperad, symmetric_operad, trivial_operad
from actionoperads.fincat import (
    FinCat,
    arrow_category,
    discrete_category,
    group_category,
    translation_category,
    z2_category,
)
from actionoperads.multicat import (
    _UnionFind,
    FinMulticat,
    FinMultifunctor,
    FinFunctor,
    FinProf,
    act_by,
    action_well_defined,
    borel_functor,
    empty_multicat,
    from_functor,
    identity_prof,
    lift_matches_plus,
    lift_prof,
    match_lift,
    multicat_from_dict,
    multicat_to_dict,
    operad_as_multicat,
    prof_compose,
    terminal_multicat,
    unit_compose_iso,
    validate_multicat,
    validate_multifunctor,
    validate_profunctor,
)
from oracles import zigzag_orbit_count
from planted import UnreducedCactus

SYM = symmetric_operad()
TRIV = trivial_operad()


@pytest.fixture(scope="module")
def sym_multicat():
    return operad_as_multicat(SYM, max_arity=3)


class TestValidator:
    def test_symmetric_fixture_is_valid(self, sym_multicat):
        rep = validate_multicat(sym_multicat, SYM)
        assert rep.passed, rep.format_text()
        assert rep.checked > 500

    def test_terminal_is_valid(self):
        rep = validate_multicat(terminal_multicat(SYM, 3), SYM)
        assert rep.passed, rep.format_text()

    def test_empty_is_valid(self):
        rep = validate_multicat(empty_multicat(), TRIV)
        assert rep.passed

    def test_action_fold_matches_group(self, sym_multicat):
        # acting by any group element equals right multiplication
        for el in SYM.elements(3):
            for alpha in SYM.elements(3):
                got = act_by(sym_multicat, SYM, f"3:{SYM.format(el)}", alpha)
                assert got == f"3:{SYM.format(SYM.mul(el, alpha))}"

    def test_action_by_an_element_of_another_arity(self, sym_multicat):
        with pytest.raises(ValueError, match="^arity mismatch: element of arity 3 acted by arity 2$"):
            act_by(sym_multicat, SYM, "3:[1,2,3]", SYM.identity(2))

    def test_action_well_definedness(self, sym_multicat):
        words = list(SYM.elements(2)) + list(SYM.elements(3))
        rep = action_well_defined(sym_multicat, SYM, words)
        assert rep.passed

    def test_action_well_definedness_on_the_braid_relation(self):
        braid = braid_operad()
        words = [braid.parse("b1 b2 b1", 3), braid.parse("b2 b1 b2", 3)]
        rep = action_well_defined(terminal_multicat(braid, 3), braid, words)
        assert rep.passed and rep.checked == 2
        # b1 swaps x and y and b2 fixes both: each listed action is a
        # bijection, so validate_multicat passes, but b1 b2 b1 fixes x while
        # b2 b1 b2 moves it
        sig = (("*",) * 3, "*")
        M = FinMulticat(
            "braid_breaker", ("*",), {"u1": (("*",), "*"), "x": sig, "y": sig}, {"*": "u1"}, {},
            {("b1", "x"): "y", ("b1", "y"): "x", ("b2", "x"): "x", ("b2", "y"): "y"},
        )
        rep = validate_multicat(M, braid)
        assert rep.passed and rep.checked == 10
        rep = action_well_defined(M, braid, words)
        assert (rep.checked, len(rep.violations)) == (4, 4)

    def test_an_undetermined_fold_is_skipped_not_checked(self):
        # x lists only b1, so neither side of the braid relation folds on it
        braid = braid_operad()
        words = [braid.parse("b1 b2 b1", 3), braid.parse("b2 b1 b2", 3)]
        M = FinMulticat("b1_only", ("*",), {"x": (("*",) * 3, "*")}, {}, {}, {("b1", "x"): "x"})
        rep = action_well_defined(M, braid, words)
        assert (rep.checked, rep.skipped, rep.violations) == (0, 2, [])
        assert rep.format_text() == "PASS action well-definedness b1_only: checked=0 skipped=2"

    def test_an_inverse_letter_folds_through_its_one_preimage(self):
        braid = braid_operad()
        B1 = braid.parse("B1", 3)
        assert act_by(terminal_multicat(braid, 3), braid, "u3", B1) == "u3"
        # b1 sends x and y both to y: y has two preimages, x has none, and
        # b2 is not listed at all
        sig = (("*",) * 3, "*")
        M = FinMulticat("collapsing", ("*",), {"x": sig, "y": sig}, {}, {}, {("b1", "x"): "y", ("b1", "y"): "y"})
        for el, alpha in (("x", B1), ("y", B1), ("x", braid.parse("b2", 3))):
            with pytest.raises(ValueError, match=f"^the listed actions do not determine .* on {el!r}$"):
                act_by(M, braid, el, alpha)

    def test_a_name_that_is_no_generator_is_noted_once(self):
        # the action lists the whole arity-2 hom-set, so the bijectivity
        # pass reaches the name too, and finds nothing more to note
        sig = (("*", "*"), "*")
        M = FinMulticat("stray", ("*",), {"u1": (("*",), "*"), "x": sig}, {"*": "u1"}, {}, {("zz", "x"): "x"})
        rep = validate_multicat(M, SYM)
        assert rep.violations == ["action name 'zz' is not a generator at arity 2"]
        assert (rep.checked, rep.skipped) == (5, 0)

    def test_cactus_one_object_table_is_valid(self):
        # the word-backed family is finite through arity 2, which is
        # enough to exercise involutive action folding in the validator
        from actionoperads.cactus import cactus_operad

        CACT = cactus_operad()
        M = operad_as_multicat(CACT, max_arity=2)
        rep = validate_multicat(M, CACT)
        assert rep.passed, rep.format_text()
        doc = multicat_to_dict(M)
        back = multicat_from_dict(doc, M.name)
        assert validate_multicat(back, CACT).passed


class CountingSym(SymmetricOperad):
    """Records the arguments of every ``beta`` and ``delta`` call."""

    def __init__(self):
        super().__init__()
        self.beta_calls: list[tuple] = []
        self.delta_calls: list[tuple] = []

    def beta(self, els):
        self.beta_calls.append(tuple(e.key() for e in els))
        return super().beta(els)

    def delta(self, a, sizes):
        self.delta_calls.append((a.key(), tuple(sizes)))
        return super().delta(a, sizes)


class RaisingBeta(SymmetricOperad):
    def beta(self, els):
        raise ValueError("planted beta failure")


class RaisingWord(SymmetricOperad):
    def generator_word(self, a):
        raise ValueError("planted word failure")


class RaisingDelta(SymmetricOperad):
    """The block diagonal fails at the leg arities (1, 2) only."""

    def delta(self, a, sizes):
        if tuple(sizes) == (1, 2):
            raise ValueError("planted delta failure")
        return super().delta(a, sizes)


class TestActionLawMemos:
    """The action laws build what depends only on shapes once per call."""

    def test_beta_once_per_leg_shape_and_delta_once_per_head_shape(self, sym_multicat):
        M = sym_multicat
        legs = {
            (tuple(map(M.arity, gs)), i, name)
            for _, gs in M.composition
            for i, g in enumerate(gs)
            for name, _ in SYM.generators(M.arity(g))
        }
        heads = {
            (name, tuple(map(M.arity, gs)))
            for f, gs in M.composition
            for name, _ in SYM.generators(M.arity(f))
        }
        inst = CountingSym()
        for _ in range(2):  # nothing is kept from one call to the next
            inst.beta_calls.clear()
            inst.delta_calls.clear()
            rep = validate_multicat(M, inst)
            assert (rep.checked, rep.skipped, rep.passed) == (13029, 0, True)
            assert len(inst.beta_calls) == len(set(inst.beta_calls)) == len(legs)
            assert len(inst.delta_calls) == len(set(inst.delta_calls)) == len(heads)

    def test_a_raising_beta_propagates(self, sym_multicat):
        with pytest.raises(ValueError, match="planted beta failure"):
            validate_multicat(sym_multicat, RaisingBeta())

    def test_a_raising_generator_word_propagates(self, sym_multicat):
        with pytest.raises(ValueError, match="planted word failure"):
            validate_multicat(sym_multicat, RaisingWord())

    def test_a_delta_raising_at_one_shape_propagates(self, sym_multicat):
        # a skip means the table does not list what a law needs, never that
        # the instance failed
        with pytest.raises(ValueError, match="planted delta failure"):
            validate_multicat(sym_multicat, RaisingDelta())

    def test_the_memos_are_freed_when_the_call_returns(self, sym_multicat):
        rep = validate_multicat(sym_multicat, SYM)  # the report is kept: it must not hold the memos
        gc.collect()
        memos = [
            o
            for o in gc.get_objects()
            if isinstance(o, type(cache(len)))
            and o.__qualname__.startswith(("validate_multicat.", "_check_action_laws."))
        ]
        assert not memos, rep


def _mutations(M: FinMulticat):
    """Ten single-entry corruptions: composition results, action targets,
    and the identity assignment."""
    comp_keys = sorted(M.composition, key=repr)
    act_keys = sorted(M.actions, key=repr)
    muts = []

    def other_element(sig, avoid):
        for el, s in M.elements.items():
            if s == sig and el != avoid:
                return el
        return None

    for key in comp_keys:
        if len(muts) >= 6:
            break
        r = M.composition[key]
        repl = other_element(M.elements[r], r)
        if repl is None:
            continue
        comp = dict(M.composition)
        comp[key] = repl
        muts.append((f"composition {key}", FinMulticat(M.name, M.objects, M.elements, M.identities, comp, M.actions)))

    for key in act_keys:
        if len(muts) >= 9:
            break
        out = M.actions[key]
        repl = other_element(M.elements[out], out)
        if repl is None:
            continue
        acts = dict(M.actions)
        acts[key] = repl
        muts.append((f"action {key}", FinMulticat(M.name, M.objects, M.elements, M.identities, M.composition, acts)))

    idents = dict(M.identities)
    x = M.objects[0]
    repl = other_element(M.elements[idents[x]], idents[x])
    if repl is None:
        # fall back: point the identity at an element of a different signature
        repl = next(e for e in M.elements if e != idents[x])
    idents[x] = repl
    muts.append((f"identity {x}", FinMulticat(M.name, M.objects, M.elements, idents, M.composition, M.actions)))
    return muts


class TestOperadCorrespondence:
    def test_trivialized_action_is_rejected(self, sym_multicat):
        # a one-object table is an operad-with-action exactly when the
        # equivariance laws hold; freezing every action map breaks the
        # head-action law because composition still permutes legs
        frozen_actions = {key: key[1] for key in sym_multicat.actions}
        broken = FinMulticat(
            sym_multicat.name,
            sym_multicat.objects,
            sym_multicat.elements,
            sym_multicat.identities,
            sym_multicat.composition,
            frozen_actions,
        )
        rep = validate_multicat(broken, SYM)
        assert not rep.passed
        assert any("head action" in v or "leg action" in v for v in rep.violations)


    def test_unreduced_products_get_the_names_of_their_group_elements(self):
        # the planted instance's products are unreduced words that no
        # enumeration lists; each is named by the element the oracle equates
        # it with, so the table is the cactus table
        got = operad_as_multicat(UnreducedCactus(), max_arity=2)
        want = operad_as_multicat(cactus_operad(), max_arity=2)
        assert got.composition == want.composition
        assert got.actions == want.actions


class TestMutations:
    def test_ten_single_entry_mutations_rejected(self, sym_multicat):
        muts = _mutations(sym_multicat)
        assert len(muts) == 10
        for label, mutated in muts:
            rep = validate_multicat(mutated, SYM)
            assert not rep.passed, f"mutation not caught: {label}"
            assert rep.violations, label


class TestMultifunctor:
    def test_identity_functor_valid(self, sym_multicat):
        F = FinMultifunctor(
            "id",
            {x: x for x in sym_multicat.objects},
            {e: e for e in sym_multicat.elements},
        )
        rep = validate_multifunctor(F, sym_multicat, sym_multicat)
        assert rep.passed, rep.format_text()

    def test_collapse_to_terminal_valid(self, sym_multicat):
        T = terminal_multicat(SYM, 3)
        F = FinMultifunctor(
            "collapse",
            {x: "*" for x in sym_multicat.objects},
            {e: f"u{len(sig[0])}" for e, sig in sym_multicat.elements.items()},
        )
        rep = validate_multifunctor(F, sym_multicat, T)
        assert rep.passed, rep.format_text()

    def test_equivariance_breaking_relabel_rejected(self, sym_multicat):
        # collapse the arity-2 hom-set onto the unit: action by the
        # transposition no longer commutes with the relabelling
        e2 = f"2:{SYM.format(SYM.identity(2))}"
        emap = {}
        for el, sig in sym_multicat.elements.items():
            emap[el] = e2 if len(sig[0]) == 2 else el
        F = FinMultifunctor("collapse2", {x: x for x in sym_multicat.objects}, emap)
        rep = validate_multifunctor(F, sym_multicat, sym_multicat)
        assert not rep.passed
        assert any("equivariance" in v for v in rep.violations)

    def test_left_translation_breaks_only_composition(self, sym_multicat):
        # translating the arity-2 hom-set commutes with the right action,
        # so the only violations are composition entries
        t2 = SYM.parse("[2,1]", 2)
        emap = {}
        for el, sig in sym_multicat.elements.items():
            if len(sig[0]) == 2:
                inner = SYM.parse(el.split(":", 1)[1], 2)
                emap[el] = f"2:{SYM.format(SYM.mul(t2, inner))}"
            else:
                emap[el] = el
        F = FinMultifunctor("ltrans", {x: x for x in sym_multicat.objects}, emap)
        rep = validate_multifunctor(F, sym_multicat, sym_multicat)
        assert not rep.passed
        assert any("composition" in v for v in rep.violations)
        assert not any("equivariance" in v for v in rep.violations)
        assert not any("identity" in v for v in rep.violations)

    def test_unmapped_parts_are_skipped(self, sym_multicat):
        # entries that read an element with no image are skipped, after
        # the element is reported
        emap = {e: e for e in sym_multicat.elements if not e.startswith("3:")}
        F = FinMultifunctor("partial", {x: x for x in sym_multicat.objects}, emap)
        rep = validate_multifunctor(F, sym_multicat, sym_multicat)
        unmapped = set(sym_multicat.elements) - set(emap)
        assert rep.violations == [f"element {e!r} has no image" for e in sym_multicat.elements if e in unmapped]
        comp = sum(1 for (g, fs), r in sym_multicat.composition.items() if unmapped & {g, r, *fs})
        acts = sum(1 for (_, el), out in sym_multicat.actions.items() if unmapped & {el, out})
        assert rep.skipped == comp + acts > 0

    def test_an_image_the_target_does_not_list_is_skipped(self, sym_multicat):
        # the target lacks one composition entry and one action, so the
        # identity's image of each states nothing there
        entry, action = min(sym_multicat.composition), min(sym_multicat.actions)
        N = replace(
            sym_multicat,
            composition={k: v for k, v in sym_multicat.composition.items() if k != entry},
            actions={k: v for k, v in sym_multicat.actions.items() if k != action},
        )
        F = FinMultifunctor("id", {x: x for x in sym_multicat.objects}, {e: e for e in sym_multicat.elements})
        full = validate_multifunctor(F, sym_multicat, sym_multicat)
        rep = validate_multifunctor(F, sym_multicat, N)
        assert rep.passed and full.skipped == 0
        assert (rep.checked, rep.skipped) == (full.checked - 2, 2)

    def test_empty_object_map_is_reported(self, sym_multicat):
        F = FinMultifunctor("no_objects", {}, {e: e for e in sym_multicat.elements})
        rep = validate_multifunctor(F, sym_multicat, sym_multicat)
        assert rep.violations[0] == "object '*' has no image"
        wrong = [v for v in rep.violations if v.endswith("with the wrong signature")]
        assert len(wrong) == len(sym_multicat.elements)
        assert rep.violations[-1] == "identity at '*' is not preserved"


class TestSerialization:
    def test_roundtrip(self, sym_multicat):
        doc = multicat_to_dict(sym_multicat)
        back = multicat_from_dict(doc, sym_multicat.name)
        assert back.elements == dict(sym_multicat.elements)
        assert back.composition == dict(sym_multicat.composition)
        assert back.actions == dict(sym_multicat.actions)
        rep = validate_multicat(back, SYM)
        assert rep.passed


def _z3_category() -> FinCat:
    els = ("e", "r", "s")
    mult = {(g, f): els[(els.index(g) + els.index(f)) % 3] for g in els for f in els}
    return group_category(els, mult, "e", "bz3")


class TestFinFunctor:
    @pytest.mark.parametrize(
        "source, target, mor, error",
        [
            (arrow_category(), arrow_category(), {}, "morphism 'id_a' has no image"),
            (arrow_category(), arrow_category(), {"id_a": "id_b", "id_b": "id_b", "f": "f"},
             "morphism 'id_a' image has wrong endpoints"),
            (z2_category(), z2_category(), {"e": "t", "t": "t"}, "identity at '*' not preserved"),
            (z2_category(), _z3_category(), {"e": "e", "t": "r"}, "composition ('t', 't') not preserved"),
        ],
        ids=["no-image", "endpoints", "identity", "composite"],
    )
    def test_each_law_fails_on_its_own(self, source, target, mor, error):
        # each source object maps to the target object of its name
        F = FinFunctor("bad", source, target, {x: x for x in source.objects}, mor)
        with pytest.raises(ValueError, match=f"^functor bad: {re.escape(error)}$"):
            F.validate()


class TestProfunctors:
    def test_union_find_compresses_a_chain(self):
        uf = _UnionFind()
        uf.union("b", "c")
        uf.union("a", "b")
        assert uf.parent == {"a": "a", "b": "a", "c": "b"}
        assert uf.find("c") == "a"
        assert uf.parent == {"a": "a", "b": "a", "c": "a"}

    def test_plus_profunctor_validates(self):
        X = arrow_category()
        P = from_functor(FinFunctor("idX", X, X, {o: o for o in X.objects}, {m: m for m in X.morphisms}))
        rep = validate_profunctor(P)
        assert rep.passed, rep.format_text()

    @pytest.mark.parametrize(
        "values, violation",
        [
            ({("a", "zz"): ("s",)}, "cell ('a', 'zz') is not an object pair"),
            ({("a", "a"): ("s", "s")}, "cell ('a', 'a') lists duplicate elements"),
        ],
        ids=["off-pair", "duplicate"],
    )
    def test_a_malformed_cell_is_reported(self, values, violation):
        # the actions are total and typed, so the cell is the only fault
        A = discrete_category(("a",), name="pt")
        P = FinProf("bad", A, A, values, {("id_a", "s"): "s"}, {("id_a", "s"): "s"})
        assert validate_profunctor(P).violations == [violation]

    def test_an_element_in_two_cells_is_reported_once(self):
        # both actions are listed and typed for either cell, so the shared
        # name is the only fault and the action checks do not run
        D = discrete_category(("a", "b"), name="d2")
        values = {("a", "a"): ("s",), ("b", "b"): ("s",)}
        action = {("id_a", "s"): "s", ("id_b", "s"): "s"}
        P = FinProf("bad", D, D, values, action, action)
        assert validate_profunctor(P).violations == ["element 's' is listed in cells (a, a) and (b, b)"]

    def test_unit_composition_left_and_right(self):
        X = arrow_category()
        Y = z2_category()
        G = FinFunctor("collapse", X, Y, {o: "*" for o in X.objects}, {m: "e" for m in X.morphisms})
        F = from_functor(G)
        assert validate_profunctor(F).passed
        left = prof_compose(identity_prof(Y), F)
        iso = unit_compose_iso(left, F, "left")
        assert iso
        right = prof_compose(F, identity_prof(X))
        iso2 = unit_compose_iso(right, F, "right")
        assert iso2

    def test_terminal_point_composition(self):
        PT = discrete_category(("*",), name="pt")
        one = identity_prof(PT)
        out = prof_compose(one, one)
        assert len(out.prof.values[("*", "*")]) == 1

    def test_coend_identifies_isomorphic_summands(self):
        # middle category: two isomorphic objects; the coend glues the two
        # summands into one class per orbit
        Y = translation_category(("u", "v"), name="iso2")
        idY = identity_prof(Y)
        out = prof_compose(idY, idY)
        for pair, cids in out.prof.values.items():
            got = len(cids)
            want = zigzag_orbit_count(idY, idY, pair[0], pair[1])
            assert got == want, pair
        # composing the identity profunctor with itself returns hom-sized cells
        for pair, cids in out.prof.values.items():
            assert len(cids) == len(Y.hom(pair[0], pair[1]))

    def test_coend_cardinalities_match_oracle_on_fixtures(self):
        X = arrow_category()
        Y = z2_category()
        G = FinFunctor("collapse", X, Y, {o: "*" for o in X.objects}, {m: "e" for m in X.morphisms})
        F = from_functor(G)
        GY = identity_prof(Y)
        out = prof_compose(GY, F)
        for (z, x), cids in out.prof.values.items():
            assert len(cids) == zigzag_orbit_count(GY, F, z, x)

    def test_composed_profunctor_validates(self):
        Y = z2_category()
        out = prof_compose(identity_prof(Y), identity_prof(Y))
        rep = validate_profunctor(out.prof)
        assert rep.passed, rep.format_text()

    def test_boundary_mismatch_rejected(self):
        X = arrow_category()
        Y = z2_category()
        with pytest.raises(ValueError):
            prof_compose(identity_prof(X), identity_prof(Y))


class TestLift:
    @pytest.mark.parametrize("inst", [TRIV, SYM], ids=["trivial", "sym"])
    def test_lift_equals_plus_on_inclusion_functor(self, inst):
        X = discrete_category(("a", "b"), name="d2")
        Y = arrow_category()
        G = FinFunctor("include", X, Y, {"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "id_b"})
        bij = lift_matches_plus(inst, G, max_arity=2)
        assert any(cell for cell in bij.values())

    @pytest.mark.parametrize("inst", [TRIV, SYM], ids=["trivial", "sym"])
    def test_lift_equals_plus_on_collapse_functor(self, inst):
        X = arrow_category()
        Y = z2_category()
        G = FinFunctor("collapse", X, Y, {o: "*" for o in X.objects}, {m: "e" for m in X.morphisms})
        bij = lift_matches_plus(inst, G, max_arity=2)
        assert any(cell for cell in bij.values())

    def test_lift_value_set_size(self):
        # identity on the terminal category: the arity-2 pair gets one
        # element per group element
        PT = discrete_category(("*",), name="pt")
        G = FinFunctor("idpt", PT, PT, {"*": "*"}, {"id_*": "id_*"})
        lifted = lift_prof(from_functor(G), SYM, max_arity=2)
        cell = lifted.prof.values[("[*,*]", "[*,*]")]
        assert len(cell) == 2

    def test_lift_empty_across_arities(self):
        PT = discrete_category(("*",), name="pt")
        G = FinFunctor("idpt", PT, PT, {"*": "*"}, {"id_*": "id_*"})
        lifted = lift_prof(from_functor(G), SYM, max_arity=2)
        assert lifted.prof.values[("[*]", "[*,*]")] == ()
        assert lifted.prof.values[("[*,*]", "[*]")] == ()

    def test_lifted_profunctor_validates(self):
        PT = discrete_category(("*",), name="pt")
        G = FinFunctor("idpt", PT, PT, {"*": "*"}, {"id_*": "id_*"})
        lifted = lift_prof(from_functor(G), SYM, max_arity=2)
        rep = validate_profunctor(lifted.prof)
        assert rep.passed, rep.format_text()

    @staticmethod
    def _collapse_lift():
        """The lift of the collapse functor's plus-profunctor, the plus
        profunctor of its Borel image, and the two realizations."""
        X = arrow_category()
        G = FinFunctor("collapse", X, z2_category(), {o: "*" for o in X.objects}, {m: "e" for m in X.morphisms})
        EG, rx, ry = borel_functor(SYM, G, 2)
        lifted = lift_prof(from_functor(G), SYM, 2, realizations=(rx, ry))
        plus = from_functor(EG)
        assert match_lift(SYM, lifted, plus, rx, ry) == lift_matches_plus(SYM, G, 2)
        return lifted, plus, rx, ry

    def test_a_lifted_cell_missing_an_element_fails_the_comparison(self):
        lifted, plus, rx, ry = self._collapse_lift()
        values = dict(lifted.prof.values)
        pair = next(pair for pair, els in values.items() if els)
        values[pair] = values[pair][1:]
        bad = replace(lifted, prof=replace(lifted.prof, values=values))
        with pytest.raises(ValueError, match=f"^plus side has unmatched elements at {re.escape(repr(pair))}$"):
            match_lift(SYM, bad, plus, rx, ry)

    def test_a_lifted_element_with_a_junk_component_fails_the_comparison(self):
        lifted, plus, rx, ry = self._collapse_lift()
        lel, (gkey, comps) = next((lel, content) for lel, content in lifted.decode.items() if content[1])
        bad = replace(lifted, decode={**lifted.decode, lel: (gkey, ("junk", *comps[1:]))})
        with pytest.raises(ValueError, match=f"^lift element {lel!r} has no plus-side partner at "):
            match_lift(SYM, bad, plus, rx, ry)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_corrupted_lift_action_fails_the_comparison(self, side):
        lifted, plus, rx, ry = self._collapse_lift()
        # send one action entry to another element of the same cell: every
        # cell still bijects, only the actions disagree
        action = dict(getattr(lifted.prof, f"{side}_action"))
        values, cell_of = lifted.prof.values, lifted.prof.cell_of()
        key, out = next((k, o) for k, o in action.items() if len(values[cell_of[o]]) > 1)
        action[key] = next(e for e in values[cell_of[out]] if e != out)
        bad = replace(lifted, prof=replace(lifted.prof, **{f"{side}_action": action}))
        with pytest.raises(ValueError, match=f"^{side} action of .* does not match the plus side$"):
            match_lift(SYM, bad, plus, rx, ry)
