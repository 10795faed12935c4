"""Braid family: underlying permutations, block crossings, cabling delta,
the exponent-sum invariant, the Garside normal form, and the sampled
axiom suite."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from actionoperads.braid import (
    block_cross,
    block_cross_letters,
    braid_operad,
    braid_relations,
    embedded_block_transposition,
    exponent_sum,
    garside_normal_form,
)
from actionoperads.core import AxiomCheckConfig, check_axioms
from actionoperads.perm import Perm, block_perm, compose, identity
from actionoperads.rewrite import equal, free_reduce, invert_letters
from oracles import burau

B = braid_operad()
DELTA4 = "b1 b2 b3 b1 b2 b1"
# the distinct braid pairs that pi and the exponent sum cannot separate
DISTINCT_BRAID_PAIRS = (
    (3, "b1 b2 b1 b2 b1 B2", "b2 b1 B2 b1 b2 b1"),
    (3, "b1 b2 b2 B1 B2 B2", "e"),
    (4, f"{DELTA4} {DELTA4} b1 b1", f"{DELTA4} {DELTA4} b3 b3"),
    (4, f"{DELTA4} {DELTA4} b1 b1 B2 B2", f"{DELTA4} {DELTA4}"),
    (5, "b1 b3 b2 b4 b1 b3 b2 b4 b1 b3 b1 b1", "b1 b3 b2 b4 b1 b3 b2 b4 b1 b3 b3 b3"),
    (5, "b1 b2 b3 b4 b1 b2 b3 b1 b2 b1 b1 b1", "b1 b2 b3 b4 b1 b2 b3 b1 b2 b1 b3 b3"),
    (6, "b1 b3 b5 b2 b4 b1 b3 b5 b2 b4 b1 b1", "b1 b3 b5 b2 b4 b1 b3 b5 b2 b4 b3 b3"),
)


def random_letters(rng, n, length):
    return tuple((rng.randrange(1, n), rng.choice((1, -1))) for _ in range(length))


def same_braid(rng, n, letters):
    """Another word for the same braid: a relator of ``braid_relations(n)``
    and a full twist with its inverse inserted at random places."""
    sys = braid_relations(n)
    lhs, rhs = rng.choice(sys.relations)
    twist = tuple((g, 1) for _ in range(n) for g in range(1, n))
    for piece in (lhs + invert_letters(rhs, frozenset()), twist):
        pos = rng.randrange(len(letters) + 1)
        letters = letters[:pos] + piece + letters[pos:]
    pos = rng.randrange(len(letters) + 1)
    return free_reduce(letters[:pos] + invert_letters(twist, frozenset()) + letters[pos:], frozenset())


class TestPi:
    def test_transposition_squared(self):
        assert B.pi(B.parse("b1 b1", 2)) == identity(2)

    def test_empty_word(self):
        assert B.pi(B.identity(4)) == identity(4)

    def test_right_first_convention(self):
        assert B.pi(B.parse("b1 b2", 3)).images == (2, 3, 1)

    def test_inverse_letters(self):
        w = B.parse("b1 B1", 2)
        assert w.payload.letters == ()


class TestBlockCross:
    def test_argument_checks(self):
        with pytest.raises(ValueError, match="^arity must be >= 0, got -1$"):
            braid_relations(-1)
        with pytest.raises(ValueError, match="^block widths must be >= 0 and position >= 1, got p=0 a=1 b=1$"):
            block_cross_letters(0, 1, 1)
        with pytest.raises(ValueError, match=r"^blocks at p=1, widths \(2, 2\) do not fit arity 3$"):
            embedded_block_transposition(1, 2, 2, 3)

    def test_base_cases(self):
        assert B.format(block_cross(1, 1, 1)) == "b1"
        assert B.format(block_cross(1, 0, 3)) == "e"
        assert B.format(block_cross(1, 3, 0)) == "e"

    def test_two_over_one(self):
        got = block_cross(1, 2, 1)
        assert B.pi(got) == block_perm(Perm((2, 1)), [2, 1])
        assert exponent_sum(got) == 2

    def test_pi_matches_embedded_block_transposition(self):
        for a in range(0, 4):
            for b in range(0, 4):
                if a + b > 5:
                    continue
                for p in (1, 2):
                    ambient = p + a + b - 1 if a + b else p
                    ambient = max(ambient, 1)
                    got = B.pi(block_cross(p, a, b, ambient))
                    want = embedded_block_transposition(p, a, b, ambient)
                    assert got == want, (p, a, b)

    def test_letter_count(self):
        # the crossing emits one letter per strand pair between the blocks
        for a, b in itertools.product(range(4), repeat=2):
            assert len(block_cross(1, a, b).payload.letters) == a * b

    def test_exponent_sum_examples(self):
        assert exponent_sum(B.parse("b1 B1", 2)) == 0
        assert exponent_sum(B.parse("b1 b2 b1", 3)) == 3
        assert exponent_sum(block_cross(1, 2, 2)) == 4


class TestDelta:
    def test_unit_sizes(self):
        assert B.format(B.delta(B.parse("b1", 2), (1, 1))) == "b1"

    def test_cabling_examples(self):
        assert B.format(B.delta(B.parse("b1", 2), (2, 1))) == B.format(block_cross(1, 2, 1))
        got = B.delta(B.parse("b2", 3), (1, 1, 2))
        assert got == block_cross(2, 1, 2, ambient=4)

    def test_pi_compatibility(self):
        for n in (2, 3):
            for sizes in itertools.product((1, 2), repeat=n):
                for gname, g in B.generators(n):
                    got = B.pi(B.delta(g, sizes))
                    want = block_perm(B.pi(g), sizes)
                    assert got == want, (gname, sizes)

    def test_braid_relation_preserved_by_delta(self):
        for sizes in itertools.product((1, 2), repeat=3):
            lhs = B.delta(B.parse("b1 b2 b1", 3), sizes)
            rhs = B.delta(B.parse("b2 b1 b2", 3), sizes)
            res = B.equal(lhs, rhs)
            assert res.is_equal, (sizes, res.verdict)

    def test_delta_of_inverse_letter(self):
        # delta(w^-1) is the inverse of delta(w) at twisted sizes
        w = B.parse("b1", 2)
        for sizes in itertools.product((1, 2, 3), repeat=2):
            lhs = B.delta(B.inv(w), sizes)
            twisted = tuple(sizes[B.pi(w).images[i] - 1] for i in range(2))
            rhs = B.inv(B.delta(w, twisted))
            assert lhs == rhs


class TestKnownIdentities:
    def test_full_twist_is_central_at_three_strands(self):
        tw = B.parse("b1 b2 b1 b2 b1 b2", 3)
        for gen in ("b1", "b2"):
            g = B.parse(gen, 3)
            res = B.equal(B.mul(tw, g), B.mul(g, tw))
            assert res.is_equal, gen

    def test_half_twist_conjugates_generators(self):
        half = B.parse("b1 b2 b1", 3)
        lhs = B.mul(B.mul(half, B.parse("b1", 3)), B.inv(half))
        assert B.equal(lhs, B.parse("b2", 3)).is_equal


class TestInstance:
    def test_relation_invariants_are_sound(self):
        from actionoperads.rewrite import validate_invariants

        for n in range(2, 7):
            sys = braid_relations(n)
            contexts = [sys.word(((g, 1),)) for g in sys.generators]
            contexts += [sys.word(((g, -1),)) for g in sys.generators]
            assert validate_invariants(sys, contexts) == []

    def test_sampled_axioms_pass_strict(self):
        cfg = AxiomCheckConfig(
            max_total_arity=3,
            samples_per_axiom=12,
            max_word_length=2,
            max_block_size=2,
            max_result_arity=6,
            seed=9,
        )
        rep = check_axioms(B, cfg)
        assert rep.passed(strict=True), rep.format_text()

    def test_parse_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            B.parse("b3", 3)
        with pytest.raises(ValueError):
            B.parse("c1", 3)

    def test_elements_only_at_tiny_arity(self):
        assert len(B.elements(1)) == 1
        assert B.elements(2) is None


class TestGarsideNormalForm:
    def test_agrees_with_burau_at_three_strands(self):
        # the Burau representation is faithful for n <= 3
        rng = random.Random(12)
        equal_pairs = 0
        for trial in range(3000):
            n = 2 if trial % 10 == 0 else 3
            w1 = random_letters(rng, n, rng.randrange(13))
            if trial % 2:
                w2 = same_braid(rng, n, w1)
            else:
                w2 = list(w1 or ((1, 1),))
                w2[rng.randrange(len(w2))] = random_letters(rng, n, 1)[0]
            same = garside_normal_form(n, w1) == garside_normal_form(n, tuple(w2))
            assert same == (burau(n, w1) == burau(n, tuple(w2))), (n, w1, w2)
            equal_pairs += same
        assert 1500 <= equal_pairs < 3000

    def test_agrees_with_every_search_equal(self):
        rng = random.Random(5)
        found = 0
        for trial in range(1500):
            n = 2 + trial % 4
            sys = braid_relations(n)
            no_garside = replace(sys, invariants=sys.invariants[:2])
            w1 = sys.word(random_letters(rng, n, rng.randrange(2, 9)))
            letters = w1.letters
            for _ in range(3):  # rewrites that keep the braid, so the search has work
                moves = [
                    (pos, a, b)
                    for lhs, rhs in sys.relations
                    for a, b in ((lhs, rhs), (rhs, lhs))
                    for pos in range(len(letters) - len(a) + 1)
                    if letters[pos : pos + len(a)] == a
                ]
                if moves:
                    pos, a, b = rng.choice(moves)
                    letters = free_reduce(letters[:pos] + b + letters[pos + len(a) :], frozenset())
            w2 = sys.word(letters if trial % 3 else random_letters(rng, n, len(letters)))
            res = equal(w1, w2, no_garside, budget=2000)
            if res.is_equal:
                found += w1 != w2
                assert garside_normal_form(n, w1.letters) == garside_normal_form(n, w2.letters)
        assert found >= 300

    def test_factors_are_left_weighted_and_give_the_word(self):
        rng = random.Random(7)
        for trial in range(500):
            n = 2 + trial % 6
            letters = random_letters(rng, n, rng.randrange(16))
            k, factors = garside_normal_form(n, letters)
            top = tuple(range(n, 0, -1))
            assert all(f not in (top, identity(n).images) for f in factors)
            for a, b in zip(factors, factors[1:]):
                starts = {i for i in range(1, n) if b.index(i) > b.index(i + 1)}
                finishes = {i for i in range(1, n) if a[i - 1] > a[i]}
                assert starts <= finishes, (n, letters)
            p = identity(n)
            for f in (top,) * (k % 2) + factors:
                p = compose(p, Perm(f))
            assert p == B.pi(B.from_letters(n, letters))
            lengths = sum(a > b for f in factors for a, b in itertools.combinations(f, 2))
            assert k * n * (n - 1) // 2 + lengths == sum(sign for _gen, sign in letters)

    @pytest.mark.parametrize("n, left, right", DISTINCT_BRAID_PAIRS)
    def test_refutes_the_hard_pairs_before_searching(self, n, left, right):
        res = B.equal(B.parse(left, n), B.parse(right, n), None, 4000)
        assert res.is_distinct and res.separating == "garside"
        assert res.states == 0 and res.stop == "invariant"

    def test_examples(self):
        assert garside_normal_form(3, ()) == (0, ())
        assert garside_normal_form(3, ((1, 1), (2, 1), (1, 1))) == (1, ())
        assert garside_normal_form(3, ((1, -1), (1, 1))) == (0, ())
        assert garside_normal_form(2, ((1, 1), (1, 1), (1, -1))) == (1, ())
        assert garside_normal_form(1, ()) == (0, ())
