"""Cactus family: reversal permutations, relations, beta/delta formulas,
commutors and the coboundary laws."""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import replace

import pytest

from actionoperads import cactus, rewrite
from actionoperads.braid import braid_operad
from actionoperads.cactus import (
    cactus_operad,
    cactus_relations,
    coboundary_square,
    commutor,
    commutor_symmetry,
    contains,
    delta_respects_relation,
    interval_generators,
    is_disjoint,
    s_hat,
    slide_cancel,
)
from actionoperads.core import AxiomCheckConfig, check_axioms
from actionoperads.perm import block_perm, block_sum
from actionoperads.rewrite import EqResult, RewritePath, Step, equal, free_reduce, invert_letters, replay_path
from oracles import j3_normal_form

C = cactus_operad()
MOVES = (slide_cancel, cactus._pull)  # the family's moves for rewrite.equal


def delta_gen(p, q, n, sizes):
    """The block diagonal of the generator ``s(p,q)`` at arity ``n``."""
    return C.delta(C.from_letters(n, (((p, q), 1),)), sizes)


class TestSHat:
    def test_table_values(self):
        assert s_hat(1, 2, 2).images == (2, 1)
        assert s_hat(1, 3, 3).images == (3, 2, 1)
        assert s_hat(2, 3, 4).images == (1, 3, 2, 4)

    def test_is_involution(self):
        for n in range(2, 6):
            for p, q in interval_generators(n):
                rev = s_hat(p, q, n)
                assert all(rev(rev(i)) == i for i in range(1, n + 1))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            s_hat(2, 2, 3)
        with pytest.raises(ValueError):
            s_hat(1, 4, 3)

    def test_respects_all_relations(self):
        # the assignment s(p,q) -> reversal extends to the quotient
        for n in (2, 3, 4, 5):
            sys = cactus_relations(n)
            for lhs, rhs in sys.relations:
                assert sys.invariants[0][1](sys.word(lhs)) == sys.invariants[0][1](sys.word(rhs))


class TestRelations:
    def test_generator_counts(self):
        assert len(cactus_relations(2).generators) == 1
        assert len(cactus_relations(4).generators) == 6

    def test_containment_allows_shared_endpoints(self):
        sys = cactus_relations(3)
        # (1,3) contains (1,2): s(1,3)s(1,2) = s(2,3)s(1,3)
        assert (((((1, 3), 1), ((1, 2), 1))), ((((2, 3), 1), ((1, 3), 1)))) in sys.relations
        # (1,3) contains (2,3): s(1,3)s(2,3) = s(1,2)s(1,3)
        assert (((((1, 3), 1), ((2, 3), 1))), ((((1, 2), 1), ((1, 3), 1)))) in sys.relations

    def test_containment_images_are_those_of_the_reversal(self):
        # the list at each n <= 8 against the containment images read off
        # s_hat(outer), the reversal's permutation
        for n in range(9):
            gens = interval_generators(n)
            want = [(((g, 1), (g, 1)), ()) for g in gens]
            want += [
                (((a, 1), (b, 1)), ((b, 1), (a, 1)))
                for i, a in enumerate(gens)
                for b in gens[i + 1 :]
                if is_disjoint(a, b)
            ]
            for outer in gens:
                rev = s_hat(*outer, n).images
                for k, l in gens:
                    if (k, l) != outer and contains(outer, (k, l)):
                        want.append((((outer, 1), ((k, l), 1)), (((rev[l - 1], rev[k - 1]), 1), (outer, 1))))
            assert cactus_relations(n).relations == tuple(want), n
        assert len(cactus_relations(8).relations) == 280

    def test_negative_arity_is_rejected(self):
        with pytest.raises(ValueError, match="^arity must be >= 0, got -1$"):
            cactus_relations(-1)

    def test_disjoint_and_contains_predicates(self):
        assert is_disjoint((1, 2), (3, 4))
        assert not is_disjoint((1, 3), (2, 4))
        assert contains((1, 4), (2, 3))
        assert contains((1, 4), (1, 2))
        assert not contains((2, 3), (1, 4))


class TestBetaDelta:
    def test_beta_empty_words(self):
        assert C.format(C.beta([C.identity(2), C.identity(3)])) == "e"

    def test_beta_shifts_blocks(self):
        w = C.parse("s(1,2)", 2)
        assert C.format(C.beta([w, w])) == "s(1,2) s(3,4)"

    def test_beta_singleton(self):
        w = C.parse("s(1,3)", 3)
        assert C.beta([w]) == w

    def test_delta_gen_worked_examples(self):
        assert C.format(delta_gen(1, 2, 2, [2, 1])) == "s(1,3) s(1,2)"
        assert C.format(delta_gen(2, 3, 3, [1, 2, 1])) == "s(2,4) s(2,3)"

    def test_delta_gen_unit_sizes(self):
        for n in (2, 3, 4):
            for p, q in interval_generators(n):
                assert C.format(delta_gen(p, q, n, [1] * n)) == f"s({p},{q})"

    def test_delta_gen_zero_width_blocks(self):
        # collapsing one strand of the basic swap: reverse the pair of
        # blocks, then re-reverse the surviving block -- everything cancels
        got = delta_gen(1, 2, 2, [2, 0])
        assert C.format(got) == "e"
        for sizes in itertools.product((0, 1, 2), repeat=2):
            d = delta_gen(1, 2, 2, list(sizes))
            assert C.pi(d) == block_perm(s_hat(1, 2, 2), list(sizes)), sizes

    def test_delta_gen_bounds(self):
        # the public delta of both word families rejects sizes that do
        # not fit the element before any per-generator diagonal is built
        for inst, word in ((C, "s(1,3)"), (braid_operad(), "b1 B2")):
            a = inst.parse(word, 3)
            with pytest.raises(ValueError, match="arity mismatch: delta of arity 3 with 2 size"):
                inst.delta(a, (1, 1))
            with pytest.raises(ValueError, match="arity mismatch: delta of arity 3 with 4 size"):
                inst.delta(a, (1, 1, 1, 1))
            with pytest.raises(ValueError, match=r"block sizes must be >= 0: \(1, -1, 2\)"):
                inst.delta(a, (1, -1, 2))

    def test_pi_compatibility_of_beta(self):
        words = [C.identity(1), C.parse("s(1,2)", 2), C.parse("s(1,3) s(1,2)", 3)]
        for ws in itertools.permutations(words, 2):
            got = C.pi(C.beta(list(ws)))
            want = block_sum([C.pi(w) for w in ws])
            assert got == want

    def test_pi_compatibility_of_delta_gen(self):
        for n in (2, 3):
            for p, q in interval_generators(n):
                for sizes in itertools.product((1, 2, 3), repeat=n):
                    got = C.pi(delta_gen(p, q, n, list(sizes)))
                    want = block_perm(s_hat(p, q, n), list(sizes))
                    assert got == want, (p, q, n, sizes)

    def test_delta_word_example(self):
        got = C.delta(C.parse("s(1,2)", 2), (2, 1))
        assert C.format(got) == "s(1,3) s(1,2)"
        assert C.pi(got).images == (2, 3, 1)


class TestWellDefinedness:
    def test_delta_respects_relations_small(self):
        for n in (2, 3):
            sys = cactus_relations(n)
            for sizes in itertools.product((1, 2), repeat=n):
                for ridx in range(len(sys.relations)):
                    res = delta_respects_relation(n, sizes, ridx)
                    assert res.is_equal, (n, sizes, ridx, res.verdict)

    def test_every_equal_verdict_carries_a_replayable_path(self):
        # re-validate the rewrite evidence step by step for a whole battery
        from actionoperads.rewrite import replay_path

        replayed = 0
        for n in (2, 3):
            sys = cactus_relations(n)
            for sizes in itertools.product((1, 2), repeat=n):
                total = sum(sizes)
                big = cactus_relations(total)
                for ridx in range(len(sys.relations)):
                    lhs_letters, rhs_letters = sys.relations[ridx]
                    lhs = C.delta(C.from_letters(n, lhs_letters), sizes)
                    rhs = C.delta(C.from_letters(n, rhs_letters), sizes)
                    res = C.equal(lhs, rhs)
                    assert res.is_equal
                    assert res.path is not None
                    assert replay_path(big, lhs.payload, rhs.payload, res.path)
                    replayed += 1
        assert replayed > 30


class TestCoboundary:
    def test_commutor_values(self):
        assert C.format(commutor(1, 1)) == "s(1,2)"
        assert C.format(commutor(1, 2)) == "s(1,3) s(2,3)"
        assert C.format(commutor(2, 1)) == "s(1,3) s(1,2)"

    def test_commutor_needs_positive_widths(self):
        with pytest.raises(ValueError):
            commutor(0, 1)

    def test_commutor_symmetry_small(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                assert commutor_symmetry(m, n).is_equal

    def test_coboundary_square_small(self):
        for m, n, p in itertools.product((1, 2), repeat=3):
            assert coboundary_square(m, n, p).is_equal

    def test_commutor_is_delta_of_the_basic_swap(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                d = C.delta(C.parse("s(1,2)", 2), (m, n))
                assert C.equal(commutor(m, n), d).is_equal


class TestAsInstance:
    def test_elements_at_small_arity(self):
        assert len(C.elements(0)) == 1
        assert len(C.elements(1)) == 1
        assert len(C.elements(2)) == 2
        assert C.elements(3) is None

    def test_sampled_axioms_pass(self):
        cfg = AxiomCheckConfig(
            max_total_arity=3,
            samples_per_axiom=12,
            max_word_length=2,
            max_block_size=2,
            max_result_arity=6,
            seed=5,
        )
        rep = check_axioms(C, cfg)
        assert rep.passed(strict=True), rep.format_text()

    def test_exhaustive_axioms_at_tiny_arity(self):
        # the family is finite through arity 2, so this run is a proof
        # by enumeration at that scale
        rep = check_axioms(C, AxiomCheckConfig(max_total_arity=2))
        assert rep.mode == "exhaustive"
        assert rep.passed(strict=True), rep.format_text()

    def test_parse_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            C.parse("s(2,2)", 3)
        with pytest.raises(ValueError):
            C.parse("s(1,4)", 3)
        with pytest.raises(ValueError):
            C.parse("x(1,2)", 3)

    def test_involution_in_oracle(self):
        w = C.parse("s(1,2) s(1,2)", 2)
        assert C.equal(w, C.identity(2)).is_equal
        res = C.equal(C.parse("s(1,2)", 2), C.identity(2))
        assert res.is_distinct and res.separating == "pi"

    def test_containment_consequence(self):
        # the middle reversal conjugates the small one to its mirror
        lhs = C.parse("s(2,3)", 3)
        rhs = C.parse("s(1,3) s(1,2) s(1,3)", 3)
        assert C.equal(lhs, rhs).is_equal

    def test_deep_identity_question_stays_inconclusive(self):
        # this word has infinite order although its underlying permutation
        # is trivial; the bounded search must answer honestly
        w = C.parse("s(1,2) s(1,3) s(1,2) s(1,3) s(1,2) s(1,3)", 3)
        assert C.pi(w).is_identity()
        res = C.equal(w, C.identity(3), budget=30_000)
        assert res.is_inconclusive


def reduced_words(n, max_len):
    """Every freely reduced cactus word of at most ``max_len`` letters."""
    words, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + ((g, 1),) for w in frontier for g in interval_generators(n) if not w or w[-1][0] != g]
        words += frontier
    return words


def equal_by_construction(rng, n, length, steps=3):
    """A random reduced word and a word equal to it: ``steps`` random
    relations applied, then a cyclic conjugate of a relator inserted."""
    sys = cactus_relations(n)
    word = ()
    while len(word) < length:
        word = free_reduce(word + ((rng.choice(sys.generators), 1),), sys.involutive)
    start = word
    for _ in range(steps):
        moves = [
            (pos, a, b)
            for lhs, rhs in sys.relations
            for a, b in ((lhs, rhs), (rhs, lhs))
            if a
            for pos in range(len(word) - len(a) + 1)
            if word[pos : pos + len(a)] == a
        ]
        if not moves:
            break
        pos, a, b = rng.choice(moves)
        word = free_reduce(word[:pos] + b + word[pos + len(a) :], sys.involutive)
    lhs, rhs = rng.choice(sys.relations)
    rel = lhs + invert_letters(rhs, sys.involutive)
    cut = rng.randrange(len(rel))
    pos = rng.randrange(len(word) + 1)
    return start, free_reduce(word[:pos] + rel[cut:] + rel[:cut] + word[pos:], sys.involutive)


class TestSlides:
    def test_a_slide_proves_equal_without_search(self):
        a, b = C.parse("s(1,2) s(1,3) s(2,3)", 3), C.parse("s(1,3)", 3)
        res = C.equal(a, b)
        assert res.is_equal and res.states == 0 and res.stop == "met"
        assert [(s.rel, s.orient, s.pos) for s in res.path.forward] == [(4, 0, 1)]
        assert res.path.backward == ()
        assert replay_path(cactus_relations(3), a.payload, b.payload, res.path)

    def test_slides_repeat_until_no_letter_cancels(self):
        # after the first cancellation a letter left of it cancels too
        sys = cactus_relations(3)
        a = C.parse("s(1,2) s(2,3) s(1,3) s(1,2) s(2,3)", 3)
        word, steps = slide_cancel(a.payload.letters, sys)
        assert word == (((1, 3), 1),)
        assert replay_path(sys, a.payload, C.parse("s(1,3)", 3).payload, RewritePath(word, steps, ()))

    def test_j3_normal_form_agrees_on_short_words(self):
        # J_3 is Z/2 * Z/2, so equality there is exact; every pair of
        # reduced words of at most 5 letters
        sys = cactus_relations(3)
        words = reduced_words(3, 5)
        assert len(words) == 94
        equal_pairs = 0
        for w1, w2 in itertools.product(words, repeat=2):
            a, b = C.from_letters(3, w1), C.from_letters(3, w2)
            res = C.equal(a, b)
            assert res.is_equal == (j3_normal_form(w1) == j3_normal_form(w2)), (w1, w2, res.verdict)
            if res.is_equal:
                equal_pairs += 1
                assert res.states == 0, (w1, w2)
                assert replay_path(sys, a.payload, b.payload, res.path), (w1, w2)
        assert equal_pairs == 556

    def test_the_pull_reaches_every_equal_without_search_at_n4(self):
        # every pair of reduced words of at most 3 letters: the verdicts are
        # those of the search on the given words, and each Equal is pulled
        sys = cactus_relations(4)
        words = reduced_words(4, 3)
        assert len(words) == 187
        els = [C.from_letters(4, w) for w in words]
        verdicts = collections.Counter()
        for a, b in itertools.product(els, repeat=2):
            res = C.equal(a, b, budget=500)
            assert res.verdict == equal(a.payload, b.payload, sys, budget=500).verdict, (a, b)
            verdicts[res.verdict] += 1
            if res.is_equal:
                assert res.states == 0, (a, b)
                assert replay_path(sys, a.payload, b.payload, res.path), (a, b)
        assert verdicts == {"equal": 587, "distinct": 33_404, "inconclusive": 978}

    def test_no_verdict_differs_from_the_search_on_the_given_words(self):
        # slides only shorten what the search is given, so no Equal is lost
        rng = random.Random(23)
        slid = 0
        for i in range(160):
            n = 3 + i % 4
            w1, w2 = equal_by_construction(rng, n, 8)
            slid += any(slide_cancel(w, cactus_relations(n))[1] for w in (w1, w2))
            a, b = C.from_letters(n, w1), C.from_letters(n, w2)
            res = C.equal(a, b, budget=2000)
            want = equal(a.payload, b.payload, cactus_relations(n), budget=2000)
            assert res.verdict == want.verdict, (n, w1, w2)
            if res.is_equal:
                assert replay_path(cactus_relations(n), a.payload, b.payload, res.path), (n, w1, w2)
        assert slid == 149

    def test_a_word_no_slide_shortens_goes_to_the_search_unchanged(self):
        # the two intervals overlap throughout, so nothing moves
        a = C.parse("s(1,2) s(2,3) s(1,2) s(2,3) s(1,2) s(2,3)", 3)
        assert slide_cancel(a.payload.letters, cactus_relations(3)) == (a.payload.letters, ())
        res = C.equal(a, C.identity(3))
        want = equal(a.payload, C.identity(3).payload, cactus_relations(3))
        assert res == want and res.is_inconclusive

    def test_a_missing_relation_writes_no_step(self):
        # drop s(1,3) s(2,3) = s(1,2) s(1,3), the move the slide needs
        full = cactus_relations(3)
        assert full.relations[4] == ((((1, 3), 1), ((2, 3), 1)), (((1, 2), 1), ((1, 3), 1)))
        defective = replace(full, relations=full.relations[:4])
        a, b = C.parse("s(1,2) s(1,3) s(2,3)", 3).payload, C.parse("s(1,3)", 3).payload
        assert cactus._slide(a.letters, 2) == [(1, ((1, 2), (1, 3)))]
        assert slide_cancel(a.letters, defective) == (a.letters, ())
        assert not equal(a, b, defective, moves=MOVES).is_equal
        assert equal(a, b, full, moves=MOVES).is_equal

    def test_an_overlap_let_through_writes_no_step(self, monkeypatch):
        # a slide rule that commutes overlapping intervals would cancel the
        # last letter; no relation lists that move, so nothing is written
        rule = cactus.slide_past
        monkeypatch.setattr(cactus, "slide_past", lambda x, c: rule(x, c) or (c, x))
        a = C.parse("s(1,2) s(2,3) s(1,2) s(2,3) s(1,2) s(2,3)", 3)
        assert cactus._slide(a.payload.letters, 5) == [(4, ((2, 3), (1, 2)))]
        assert slide_cancel(a.payload.letters, cactus_relations(3)) == (a.payload.letters, ())
        assert not C.equal(a, C.identity(3)).is_equal


class TestOnePass:
    """``rewrite.equal`` runs each check once: the invariants before the
    slides, and the slides and the pull before the class check and the
    search, which alone build the search tables."""

    def test_a_pair_pi_refutes_is_never_slid(self, monkeypatch):
        calls = []
        slide = cactus.slide_cancel
        monkeypatch.setattr(cactus, "slide_cancel", lambda letters, sys: calls.append(letters) or slide(letters, sys))
        res = C.equal(C.parse("s(1,2) s(1,3) s(2,3)", 3), C.parse("s(1,2)", 3))
        assert res == EqResult("distinct", separating="pi", stop="invariant")
        assert calls == []

    def test_a_pair_the_pull_cannot_join_is_checked_once(self, monkeypatch):
        # one length, one pi, nothing slides and the pull is blocked: each
        # side's pi and class key are computed once
        a, b = C.parse("s(1,2) s(2,3) s(1,2)", 3), C.parse("s(2,3) s(1,2) s(2,3)", 3)
        full = cactus_relations(3)
        assert cactus._pull(a.payload.letters, b.payload.letters, full) is None
        pis, keys = [], []
        sys = replace(full, invariants=(("pi", lambda w: pis.append(w) or C.pi_images(w)),))
        monkeypatch.setattr(cactus.CactusOperad, "relation_system", lambda self, n: sys)
        canon = rewrite._SearchTables.canon
        monkeypatch.setattr(rewrite._SearchTables, "canon", lambda tab, word: keys.append(word) or canon(tab, word))
        res = C.equal(a, b, budget=0)
        assert res == EqResult("inconclusive", stop="budget")
        assert pis == [a.payload, b.payload]
        assert len(keys) == 2

    def test_slides_and_the_pull_build_no_search_table(self):
        # a fresh system (``replace`` bypasses the cache) has no tables
        # until a pair reaches the class check
        sys = replace(cactus_relations(5))
        assert "search_tables" not in vars(sys)
        slid = equal(C.parse("s(1,2) s(1,3) s(2,3)", 5).payload, C.parse("s(1,3)", 5).payload, sys, moves=MOVES)
        pulled = equal(C.parse("s(1,3) s(1,2)", 5).payload, C.parse("s(2,3) s(1,3)", 5).payload, sys, moves=MOVES)
        assert slid.is_equal and slid.path.forward and pulled.is_equal and pulled.path.forward
        assert "search_tables" not in vars(sys)
        a, b = C.parse("s(1,2) s(2,3) s(1,2)", 5).payload, C.parse("s(2,3) s(1,2) s(2,3)", 5).payload
        assert cactus._pull(a.letters, b.letters, sys) is None
        assert equal(a, b, sys, budget=0, moves=MOVES) == EqResult("inconclusive", stop="budget")
        assert "search_tables" in vars(sys)

    def test_identical_inputs_that_slide_get_the_empty_path(self):
        a = C.parse("s(1,2) s(1,3) s(2,3)", 3)
        assert slide_cancel(a.payload.letters, cactus_relations(3))[1]
        assert C.equal(a, a) == EqResult("equal", path=RewritePath(a.payload.letters, (), ()), stop="met")


class TestPull:
    def test_a_pull_proves_equal_without_search(self):
        # neither side slides; s(1,2) slides into s(1,3) s(1,2) and meets
        # s(1,3), whose mirrored move is the containment relation 3
        sys = cactus_relations(3)
        a, b = C.parse("s(1,3) s(1,2)", 3).payload, C.parse("s(2,3) s(1,3)", 3).payload
        assert cactus._pull(a.letters, b.letters, sys) == (Step(3, 0, 0, b.letters),)
        res = equal(a, b, sys, moves=MOVES)
        assert res == EqResult("equal", path=RewritePath(b.letters, (Step(3, 0, 0, b.letters),), ()), stop="met")
        assert replay_path(sys, a, b, res.path)

    def test_a_missing_relation_writes_no_pulled_step(self):
        # drop s(1,3) s(1,2) = s(2,3) s(1,3), the move the pull needs
        full = cactus_relations(3)
        assert full.relations[3] == ((((1, 3), 1), ((1, 2), 1)), (((2, 3), 1), ((1, 3), 1)))
        defective = replace(full, relations=full.relations[:3] + full.relations[4:])
        a, b = C.parse("s(1,3) s(1,2)", 3).payload, C.parse("s(2,3) s(1,3)", 3).payload
        assert cactus._slide(a.letters + b.letters[1:], 2) == [(1, ((1, 3), (2, 3)))]
        assert cactus._pull(a.letters, b.letters, defective) is None
        res = equal(a, b, defective, moves=MOVES)
        assert res == equal(a, b, defective) and not res.is_equal

    def test_an_overlap_let_through_writes_no_pulled_step(self, monkeypatch):
        # a slide rule that commutes overlapping intervals would pull the
        # braid relation, which fails in J_3; no relation lists that move
        rule = cactus.slide_past
        monkeypatch.setattr(cactus, "slide_past", lambda x, c: rule(x, c) or (c, x))
        a = C.parse("s(1,2) s(2,3) s(1,2)", 3)
        b = C.parse("s(2,3) s(1,2) s(2,3)", 3)
        assert j3_normal_form(a.payload.letters) != j3_normal_form(b.payload.letters)
        assert cactus._slide(a.payload.letters[:3] + b.payload.letters[2:], 3) == [(2, ((2, 3), (1, 2)))]
        assert cactus._pull(a.payload.letters, b.payload.letters, cactus_relations(3)) is None
        res = C.equal(a, b)
        assert res == equal(a.payload, b.payload, cactus_relations(3)) and not res.is_equal

    def test_a_cancellation_at_a_seam_gives_up(self):
        # on a word that a slide would shorten, a mirrored move can bring
        # two equal letters together; the pull stops there rather than go
        # on at shifted positions
        a = C.parse("s(1,2) s(1,3) s(2,3)", 3).payload.letters
        b = C.parse("s(1,2) s(2,3) s(1,3)", 3).payload.letters
        assert cactus._slide(a + b[2:], 3) == [(2, ((1, 3), (1, 2)))]
        assert cactus._pull(a, b, cactus_relations(3)) is None

    def test_a_pair_in_one_class_takes_the_pull_path(self):
        # the join runs before the class check: the pull's forward step is
        # written, where the class search would have written a backward one
        sys = cactus_relations(4)
        a, b = C.parse("s(1,4) s(2,3)", 4), C.parse("s(2,3) s(1,4)", 4)
        res = C.equal(a, b)
        assert res.is_equal and res.states == 0 and res.stop == "met"
        assert replay_path(sys, a.payload, b.payload, res.path)
        assert res.path.backward == () and [(s.rel, s.orient, s.pos) for s in res.path.forward] == [(11, 0, 0)]
        plain = equal(a.payload, b.payload, sys)
        assert plain.path.forward == () and [(s.rel, s.orient, s.pos) for s in plain.path.backward] == [(11, 1, 0)]
