"""Term language: parsing, arity checking, underlying permutations,
evaluation into instances, and presentation checking."""

from __future__ import annotations

import re

import pytest

from actionoperads.braid import braid_operad
from actionoperads.cactus import cactus_operad
from actionoperads.core import symmetric_operad, trivial_operad
from actionoperads.perm import Perm, identity
from actionoperads.presentation import (
    BetaT,
    DeltaT,
    Gen,
    Generator,
    GeneratorCollection,
    IdT,
    Mul,
    Presentation,
    check_presentation,
    eval_term,
    format_term,
    generate_terms,
    parse_term,
    presentation_from_dict,
    term_arity,
    term_pi,
    validate_presentation,
)

SYM = symmetric_operad()
TRIV = trivial_operad()
CACT = cactus_operad()
BRAID = braid_operad()

SWAP = GeneratorCollection([Generator("s", 2, Perm((2, 1)))])


def coboundary_presentation() -> Presentation:
    lhs = Mul(DeltaT(Gen("s"), (1, 2)), BetaT((IdT(1), Gen("s"))))
    rhs = Mul(DeltaT(Gen("s"), (2, 1)), BetaT((Gen("s"), IdT(1))))
    return Presentation(
        "coboundary",
        SWAP,
        ((Mul(Gen("s"), Gen("s")), IdT(2)), (lhs, rhs)),
    )


def symmetric_presentation() -> Presentation:
    b1 = BetaT((Gen("s"), IdT(1)))
    b2 = BetaT((IdT(1), Gen("s")))
    braid_rel = (Mul(Mul(b1, b2), b1), Mul(Mul(b2, b1), b2))
    naturality = (
        Mul(DeltaT(Gen("s"), (2, 1)), BetaT((Gen("s"), IdT(1)))),
        Mul(BetaT((IdT(1), Gen("s"))), DeltaT(Gen("s"), (2, 1))),
    )
    return Presentation(
        "symmetry",
        SWAP,
        ((Mul(Gen("s"), Gen("s")), IdT(2)), braid_rel, naturality),
    )


class TestTermBasics:
    def test_arities(self):
        assert term_arity(Gen("s"), SWAP) == 2
        assert term_arity(BetaT((Gen("s"), Gen("s"))), SWAP) == 4
        assert term_arity(DeltaT(Gen("s"), (2, 1)), SWAP) == 3

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            term_arity(Mul(Gen("s"), IdT(3)), SWAP)
        with pytest.raises(ValueError):
            term_arity(DeltaT(Gen("s"), (2, 1, 1)), SWAP)

    def test_term_pi_values(self):
        assert term_pi(IdT(3), SWAP) == identity(3)
        assert term_pi(Mul(Gen("s"), Gen("s")), SWAP) == identity(2)
        assert term_pi(DeltaT(Gen("s"), (2, 1)), SWAP).images == (2, 3, 1)

    def test_parse_format_roundtrip(self):
        texts = [
            "gen(s)",
            "id(3)",
            "mul(gen(s), gen(s))",
            "inv(gen(s))",
            "beta(gen(s), id(1))",
            "delta(gen(s); [2,1])",
            "mul(delta(gen(s); [1,2]), beta(id(1), gen(s)))",
        ]
        for text in texts:
            t = parse_term(text)
            assert parse_term(format_term(t)) == t

    def test_parse_errors(self):
        for bad in ("gen()", "mul(gen(s))", "delta(gen(s))", "id(x)", "foo(1)"):
            with pytest.raises(ValueError):
                parse_term(bad)


class TestEval:
    def test_eval_into_symmetric(self):
        interp = {"s": SYM.parse("[2,1]", 2)}
        got = eval_term(BetaT((Gen("s"), Gen("s"))), interp, SYM, SWAP)
        assert got.payload.images == (2, 1, 4, 3)

    def test_eval_delta_into_cactus(self):
        interp = {"s": CACT.parse("s(1,2)", 2)}
        got = eval_term(DeltaT(Gen("s"), (2, 1)), interp, CACT, SWAP)
        assert CACT.format(got) == "s(1,3) s(1,2)"

    def test_eval_id(self):
        got = eval_term(IdT(3), {"s": SYM.parse("[2,1]", 2)}, SYM, SWAP)
        assert got == SYM.identity(3)

    def test_pi_incompatible_interpretation_rejected(self):
        with pytest.raises(ValueError, match="underlying permutation"):
            eval_term(Gen("s"), {"s": SYM.identity(2)}, SYM, SWAP)
        with pytest.raises(ValueError, match="arity"):
            eval_term(Gen("s"), {"s": SYM.parse("[3,2,1]", 3)}, SYM, SWAP)

    def test_pi_coherence_on_corpus(self):
        terms = generate_terms(SWAP, 40, seed=17)
        fixtures = [
            (SYM, SWAP, {"s": SYM.parse("[2,1]", 2)}),
            (CACT, SWAP, {"s": CACT.parse("s(1,2)", 2)}),
            (BRAID, SWAP, {"s": BRAID.parse("b1", 2)}),
        ]
        for inst, gens, interp in fixtures:
            for t in terms:
                got = inst.pi(eval_term(t, interp, inst, gens))
                assert got == term_pi(t, gens), format_term(t)


class TestPresentations:
    def test_coboundary_into_cactus(self):
        p = coboundary_presentation()
        rep = check_presentation(p, {"s": CACT.parse("s(1,2)", 2)}, CACT)
        assert rep.all_hold, rep.format_text()

    def test_coboundary_worked_instance(self):
        # both sides of the square reduce to the same single letter
        lhs = parse_term("mul(delta(gen(s); [1,2]), beta(id(1), gen(s)))")
        interp = {"s": CACT.parse("s(1,2)", 2)}
        got = eval_term(lhs, interp, CACT, SWAP)
        assert CACT.format(got) == "s(1,3)"
        rhs = parse_term("mul(delta(gen(s); [2,1]), beta(gen(s), id(1)))")
        got2 = eval_term(rhs, interp, CACT, SWAP)
        assert CACT.format(got2) == "s(1,3)"

    def test_coboundary_into_symmetric(self):
        p = coboundary_presentation()
        rep = check_presentation(p, {"s": SYM.parse("[2,1]", 2)}, SYM)
        assert rep.all_hold, rep.format_text()

    def test_symmetric_presentation_into_symmetric(self):
        p = symmetric_presentation()
        rep = check_presentation(p, {"s": SYM.parse("[2,1]", 2)}, SYM)
        assert rep.all_hold, rep.format_text()

    def test_braid_relation_fails_in_cactus(self):
        # the braid relation does not hold for the basic cactus swap
        p = symmetric_presentation()
        rep = check_presentation(p, {"s": CACT.parse("s(1,2)", 2)}, CACT, budget=4000)
        assert not rep.all_hold

    def test_mismatched_pi_rejected_at_load(self):
        bad = Presentation(
            "bad",
            SWAP,
            ((Gen("s"), IdT(2)),),
        )
        with pytest.raises(ValueError, match="underlying permutations"):
            validate_presentation(bad)

    def test_from_dict(self):
        doc = {
            "generators": [{"name": "s", "arity": 2, "pi": [2, 1]}],
            "relations": [{"lhs": "mul(gen(s), gen(s))", "rhs": "id(2)"}],
        }
        p = presentation_from_dict(doc)
        rep = check_presentation(p, {"s": SYM.parse("[2,1]", 2)}, SYM)
        assert rep.all_hold


class TestCorpus:
    def test_deterministic(self):
        a = generate_terms(SWAP, 25, seed=3)
        b = generate_terms(SWAP, 25, seed=3)
        assert a == b

    def test_all_arity_consistent(self):
        for t in generate_terms(SWAP, 100, seed=23):
            term_arity(t, SWAP)


class TestErrorArms:
    """Each rejection names what is wrong."""

    def test_generator_permutation_of_the_wrong_arity(self):
        with pytest.raises(ValueError, match=r"generator 's': assigned permutation has arity 3, declared 2"):
            Generator("s", 2, Perm((1, 3, 2)))

    def test_duplicate_generator_name(self):
        with pytest.raises(ValueError, match=r"duplicate generator name 's'"):
            GeneratorCollection([Generator("s", 2, Perm((2, 1))), Generator("s", 1, Perm((1,)))])

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match=r"unknown generator 't'"):
            term_arity(Gen("t"), SWAP)

    def test_negative_id_arity(self):
        with pytest.raises(ValueError, match=r"id arity must be >= 0, got -1"):
            term_arity(IdT(-1), SWAP)

    def test_negative_delta_width(self):
        with pytest.raises(ValueError, match=r"delta widths must be >= 0"):
            term_arity(DeltaT(Gen("s"), (3, -1)), SWAP)

    def test_not_a_term(self):
        with pytest.raises(ValueError, match=r"not a term: 's'"):
            term_arity("s", SWAP)
        with pytest.raises(ValueError, match=r"not a term: 's'"):
            format_term("s")

    def test_missing_interpretation(self):
        with pytest.raises(ValueError, match=r"no interpretation for generator 's'"):
            eval_term(IdT(2), {}, SYM, SWAP)

    def test_trailing_input(self):
        with pytest.raises(ValueError, match=r"trailing input after term: ' gen\(s\)'"):
            parse_term("id(2) gen(s)")

    def test_an_empty_delta_width(self):
        # an empty entry is named by its position; an empty list stays empty
        with pytest.raises(ValueError, match=r"empty delta width at position 17 in 'delta\(gen\(s\); \[1,,1\]\)'"):
            parse_term("delta(gen(s); [1,,1])")
        with pytest.raises(ValueError, match=r"empty delta width at position 15 in"):
            parse_term("delta(gen(s); [,1,1,])")
        with pytest.raises(ValueError, match=r"empty delta width at position 19 in"):
            parse_term("delta(gen(s); [1,1,])")
        assert parse_term("delta(id(0); [])") == parse_term("delta(id(0); [ ])") == DeltaT(IdT(0), ())
        assert parse_term("delta(gen(s); [ 1 , 1 ])") == DeltaT(Gen("s"), (1, 1))

    @pytest.mark.parametrize(
        "generator, message",
        [
            ({"name": "s", "arity": True, "pi": [1]}, "expected an arity >= 0, got True"),
            ({"name": "s", "arity": 2.0, "pi": [2, 1]}, "expected an arity >= 0, got 2.0"),
            ({"name": "s", "arity": -1, "pi": []}, "expected an arity >= 0, got -1"),
            ({"name": 5, "arity": 2, "pi": [2, 1]}, "expected a name, got 5"),
        ],
    )
    def test_a_malformed_generator_in_a_document(self, generator, message):
        doc = {"generators": [generator], "relations": []}
        with pytest.raises(ValueError, match=re.escape(f"malformed presentation document: {message}")):
            presentation_from_dict(doc)

    def test_a_space_before_the_bracket(self):
        assert parse_term("gen (s)") == Gen("s")
        assert parse_term("mul (gen(s), id (2))") == Mul(Gen("s"), IdT(2))

    def test_relation_sides_of_different_arities(self):
        bad = Presentation("bad", SWAP, ((Gen("s"), IdT(3)),))
        with pytest.raises(ValueError, match=r"relation 0: arities 2 and 3 differ"):
            validate_presentation(bad)

    def test_an_empty_block_sum_at_arity_0(self):
        # with an arity-0 generator, seed 1 draws a block sum at arity 0
        z = GeneratorCollection([Generator("z", 0, Perm(()))])
        terms = generate_terms(z, 5, seed=1)
        assert BetaT(()) in terms
        assert [term_arity(t, z) for t in terms] == [0] * 5
