"""Borel construction: normalization, hom-sets against the brute-force
quotient oracle, composition laws, units/multiplication, and the
contractible-plus-free checks."""

from __future__ import annotations

import itertools

import pytest

from actionoperads.borel import (
    BorelObject,
    act,
    borel_mult,
    borel_realization,
    borel_unit,
    compose_borel,
    contractible_free_check,
    group_elements,
    hom_set,
    identity_morphism,
    normalize,
)
from actionoperads.cactus import cactus_operad
from actionoperads.core import symmetric_operad, trivial_operad
from actionoperads.fincat import arrow_category, discrete_category, z2_category
from actionoperads.multicat import FinFunctor, identity_prof, lift_matches_plus, lift_prof
from oracles import quotient_hom_set
from planted import StabilizedProduct, UnreducedCactus

SYM = symmetric_operad()
TRIV = trivial_operad()
CACT = cactus_operad()

D2 = discrete_category(("a", "b"), name="d2")
D3 = discrete_category(("a", "b", "c"), name="d3")
Z2 = z2_category()
ARROW = arrow_category()


def obj(inst, *objects) -> BorelObject:
    return BorelObject(inst.name, len(objects), tuple(objects))


class TestNormalize:
    def test_unit_group_part(self):
        assert normalize(SYM, SYM.identity(2), ("a", "b")) == obj(SYM, "a", "b")

    def test_swap(self):
        g = SYM.parse("[2,1]", 2)
        assert normalize(SYM, g, ("a", "b")) == obj(SYM, "b", "a")

    def test_cactus_reversal(self):
        g = CACT.parse("s(1,3)", 3)
        assert normalize(CACT, g, ("a", "b", "c")) == obj(CACT, "c", "b", "a")

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            normalize(SYM, SYM.identity(2), ("a",))


class TestHomSets:
    def test_discrete_swap_has_unique_morphism(self):
        res = hom_set(SYM, D2, obj(SYM, "a", "b"), obj(SYM, "b", "a"))
        assert res.complete and len(res.morphisms) == 1
        m = res.morphisms[0]
        assert m.g.payload.images == (2, 1)
        assert m.components == ("id_a", "id_b")

    def test_discrete_distinct_objects_empty(self):
        res = hom_set(SYM, D2, obj(SYM, "a"), obj(SYM, "b"))
        assert res.morphisms == ()

    def test_z2_counting_formula(self):
        # sum over the group of the product of local hom sizes: 2 * 2^2
        res = hom_set(SYM, Z2, obj(SYM, "*", "*"), obj(SYM, "*", "*"))
        assert len(res.morphisms) == 8

    def test_arity_mismatch_is_empty(self):
        res = hom_set(SYM, D2, obj(SYM, "a"), obj(SYM, "a", "b"))
        assert res.morphisms == () and res.complete

    def test_cardinality_formula_sym(self):
        # |hom| = sum_g prod_i |X(x_i, y_{pi(g)(i)})|
        for X in (D2, Z2, ARROW):
            for n in (1, 2):
                for xs in itertools.product(X.objects, repeat=n):
                    for ys in itertools.product(X.objects, repeat=n):
                        res = hom_set(SYM, X, obj(SYM, *xs), obj(SYM, *ys))
                        want = 0
                        for g in SYM.elements(n):
                            p = SYM.pi(g)
                            prod = 1
                            for i in range(n):
                                prod *= len(X.hom(xs[i], ys[p.images[i] - 1]))
                            want += prod
                        assert len(res.morphisms) == want

    def test_bounded_enumeration_for_infinite_instance(self):
        from actionoperads.braid import braid_operad

        B = braid_operad()
        src = BorelObject("braid", 2, ("a", "a"))
        res = hom_set(B, discrete_category(("a",), name="pt1"), src, src, bound=2)
        assert not res.complete
        assert len(res.morphisms) >= 3  # e, b1, b1 b1, ... up to the bound

    def test_bounded_braid_representatives_are_distinct_braids(self):
        # words of at most 4 letters reach 115 braids at arity 3; the
        # representatives are told apart by their Garside normal forms
        from actionoperads.braid import braid_operad, garside_normal_form

        els, complete = group_elements(braid_operad(), 3, 4)
        assert not complete and len(els) == 115
        assert len({garside_normal_form(3, e.payload.letters) for e in els}) == 115

    def test_bounded_representatives_without_a_normal_form_use_the_oracle(self):
        # the cactus instance has no normal form: reduced words of at most
        # 2 letters at arity 3 are e, the 3 involutions and their 6
        # products, and the oracle equates two pairs of those products
        C = cactus_operad()
        assert C.normal_form(C.identity(3)) is None
        els, _ = group_elements(C, 3, 2)
        assert len(els) == 1 + 3 + 6 - 2
        assert "s(1,3) s(2,3)" not in [C.format(e) for e in els]

    def test_infinite_without_bound_is_an_error(self):
        from actionoperads.braid import braid_operad

        with pytest.raises(ValueError):
            hom_set(braid_operad(), D2, BorelObject("braid", 2, ("a", "b")), BorelObject("braid", 2, ("a", "b")))


class TestQuotientOracle:
    def test_matches_brute_force_on_many_pairs(self):
        pairs_checked = 0
        fixtures = [(SYM, D2, 2), (SYM, D3, 2), (SYM, Z2, 2), (SYM, ARROW, 2), (TRIV, D2, 2), (CACT, Z2, 2)]
        for inst, X, n in fixtures:
            for xs in itertools.product(X.objects, repeat=n):
                for ys in itertools.product(X.objects, repeat=n):
                    got = {
                        (m.g.key(), m.components)
                        for m in hom_set(inst, X, obj(inst, *xs), obj(inst, *ys)).morphisms
                    }
                    want = set(quotient_hom_set(inst, X, xs, ys))
                    assert got == want, (inst.name, X.name, xs, ys)
                    pairs_checked += 1
        assert pairs_checked >= 50


class TestComposition:
    def test_identity_laws(self):
        for X, aa in ((D2, obj(SYM, "a", "b")), (Z2, obj(SYM, "*", "*"))):
            for b in [obj(SYM, *t) for t in itertools.product(X.objects, repeat=2)]:
                for m in hom_set(SYM, X, aa, b).morphisms:
                    assert compose_borel(SYM, X, m, identity_morphism(SYM, X, aa)) == m
                    assert compose_borel(SYM, X, identity_morphism(SYM, X, b), m) == m

    def test_involution_composes_to_identity(self):
        g = SYM.parse("[2,1]", 2)
        src = obj(SYM, "a", "b")
        mid = obj(SYM, "b", "a")
        m = act(SYM, D2, g, src)
        back = act(SYM, D2, g, mid)
        got = compose_borel(SYM, D2, back, m)
        assert got == identity_morphism(SYM, D2, src)

    def test_mixed_composition_formula(self):
        # ((12),(id,id)) after (e,(f1,f2)) = ((12),(f1,f2))
        X = Z2
        src = obj(SYM, "*", "*")
        e2 = SYM.identity(2)
        m1 = hom_set(SYM, X, src, src).morphisms
        first = next(
            m for m in m1 if m.g == e2 and m.components == ("t", "t")
        )
        swap = act(SYM, X, SYM.parse("[2,1]", 2), src)
        got = compose_borel(SYM, X, swap, first)
        assert got.g.payload.images == (2, 1)
        assert got.components == ("t", "t")

    def test_associativity_at_desk_scale(self):
        X = Z2
        aa = obj(SYM, "*", "*")
        ms = hom_set(SYM, X, aa, aa).morphisms
        for m1 in ms[:4]:
            for m2 in ms:
                for m3 in ms[:4]:
                    lhs = compose_borel(SYM, X, m3, compose_borel(SYM, X, m2, m1))
                    rhs = compose_borel(SYM, X, compose_borel(SYM, X, m3, m2), m1)
                    assert lhs == rhs

    def test_endomorphisms_of_terminal_power_are_the_group(self):
        # over the one-object one-morphism category, composition of
        # (g, ids) morphisms is exactly group multiplication
        PT = discrete_category(("*",), name="pt")
        for n in (2, 3):
            aa = obj(SYM, *("*",) * n)
            ms = hom_set(SYM, PT, aa, aa).morphisms
            assert len(ms) == len(SYM.elements(n))
            table = {m.g.key(): m for m in ms}
            for m1 in ms:
                for m2 in ms:
                    got = compose_borel(SYM, PT, m2, m1)
                    assert got == table[SYM.mul(m2.g, m1.g).key()]


class TestUnitsAndMult:
    def test_unit_shape(self):
        assert borel_unit(SYM, "a") == obj(SYM, "a")

    def test_mult_concatenates_on_unit(self):
        got = borel_mult(SYM, SYM.identity(2), [obj(SYM, "a"), obj(SYM, "b")])
        assert got == obj(SYM, "a", "b")

    def test_mult_swaps_blocks(self):
        g = SYM.parse("[2,1]", 2)
        got = borel_mult(SYM, g, [obj(SYM, "a"), obj(SYM, "b", "c")])
        assert got == obj(SYM, "b", "c", "a")
        got2 = borel_mult(SYM, g, [obj(SYM, "a"), obj(SYM, "b")])
        assert got2 == obj(SYM, "b", "a")

    def test_mult_unary_identity(self):
        o = obj(SYM, "a", "b")
        assert borel_mult(SYM, SYM.identity(1), [o]) == o

    def test_mult_matches_nested_flattening(self):
        # outer-then-inner equals one-shot flattening through delta nesting
        g = SYM.parse("[2,1]", 2)
        h1 = SYM.parse("[1]", 1)
        h2 = SYM.parse("[2,1]", 2)
        inner = [obj(SYM, "a"), obj(SYM, "b", "c")]
        via_mu = borel_mult(SYM, SYM.mu(g, [h1, h2]), [borel_unit(SYM, x) for x in "abc"])
        stepwise = borel_mult(SYM, g, [borel_mult(SYM, h1, [borel_unit(SYM, "a")]), borel_mult(SYM, h2, [borel_unit(SYM, "b"), borel_unit(SYM, "c")])])
        assert via_mu == stepwise

    def test_act_examples(self):
        src = obj(SYM, "a", "b")
        m = act(SYM, D2, SYM.parse("[2,1]", 2), src)
        assert m.target == obj(SYM, "b", "a")
        assert m.components == ("id_a", "id_b")
        e = act(SYM, D2, SYM.identity(2), src)
        assert e == identity_morphism(SYM, D2, src)

    def test_act_endomorphism_on_equal_objects(self):
        src = obj(CACT, "a", "a")
        m = act(CACT, D2, CACT.parse("s(1,2)", 2), src)
        assert m.target == src


class TestInfinityChecks:
    def test_symmetric_small_arities(self):
        for n in (1, 2, 3):
            rep = contractible_free_check(SYM, n)
            assert rep.passed and rep.size == [1, 1, 2, 6][n]

    def test_trivial_any_arity(self):
        for n in (1, 4, 6):
            rep = contractible_free_check(TRIV, n)
            assert rep.passed and rep.size == 1

    def test_cactus_arity_two(self):
        rep = contractible_free_check(CACT, 2)
        assert rep.passed and rep.size == 2

    def test_unreduced_products_resolve_through_the_oracle(self):
        # s(1,2) s(1,2) is no enumerated word, but the oracle equates it
        # with the unit, so the translation category is still contractible
        rep = contractible_free_check(UnreducedCactus(), 2)
        assert rep.passed and rep.size == 2

    def test_infinite_arity_rejected(self):
        with pytest.raises(ValueError):
            contractible_free_check(CACT, 3)

    def test_planted_stabilizer_fails_both(self):
        # multiplying by (1 2) does nothing: e*k = e for both k, so
        # hom(e, e) has two morphisms, hom(e, (1 2)) none, and (1 2)
        # stabilizes every element
        rep = contractible_free_check(StabilizedProduct(), 2)
        assert not rep.contractible and not rep.free
        assert rep.details == (
            "hom([1,2],[1,2]) has 2 morphisms",
            "hom([1,2],[2,1]) has 0 morphisms",
            "hom([2,1],[1,2]) has 0 morphisms",
            "hom([2,1],[2,1]) has 2 morphisms",
            "stabilizer: g*h = g for g=[1,2], h=[2,1]",
            "stabilizer: g*h = g for g=[2,1], h=[2,1]",
        )


class TestMaterializedCategory:
    def test_borel_fincat_validates(self):
        cat = borel_realization(SYM, D2, max_arity=2).cat
        # objects: 1 empty + 2 singletons + 4 pairs
        assert len(cat.objects) == 7
        cat2 = borel_realization(TRIV, ARROW, max_arity=2).cat
        assert "[a,b]" in cat2.objects

    def test_unreduced_products_name_listed_morphisms(self):
        # s(1,2) s(1,2) is no enumerated word: each composite is named by
        # the listed morphism whose group part the oracle equates it with,
        # so the realization and the lift match those of the cactus operad
        inst = UnreducedCactus()
        real = borel_realization(inst, D2, max_arity=2)
        assert real.cat.table == borel_realization(CACT, D2, max_arity=2).cat.table
        assert len(lift_prof(identity_prof(D2), inst, 2).decode) == 11
        collapse = FinFunctor("collapse", D2, Z2, {"a": "*", "b": "*"}, {"id_a": "e", "id_b": "e"})
        assert lift_matches_plus(inst, collapse, 2) == lift_matches_plus(CACT, collapse, 2)

    def test_composite_that_is_no_listed_morphism_is_reported(self):
        # with (1 2) stabilizing everything, (1 2) after (1 2) keeps the
        # group part (1 2) between [a,b] and itself: no listed morphism
        with pytest.raises(ValueError, match=r"-> \[a,b\]--\[2,1\]\|id_a,id_b->\[a,b\] uses unknown ids"):
            borel_realization(StabilizedProduct(), D2, max_arity=2)

    def test_realization_needs_finite_groups(self):
        # a word-length truncation is not closed under composition, so only
        # finite groups are materialized
        from actionoperads.braid import braid_operad

        point = discrete_category(("a",), name="pt")
        with pytest.raises(ValueError, match="'braid' is not finite at arity 2"):
            borel_realization(braid_operad(), point, max_arity=2)
        with pytest.raises(ValueError, match="'cactus' is not finite at arity 3"):
            borel_realization(CACT, point, max_arity=3)
        assert len(borel_realization(CACT, point, max_arity=2).cat.objects) == 3
