"""Word layer: free reduction, the bounded equality search, path replay."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from actionoperads.braid import braid_operad, braid_relations
from actionoperads.cactus import cactus_relations
from actionoperads.rewrite import (
    RelationSystem,
    equal,
    free_reduce,
    invert_letters,
    replay_path,
    validate_invariants,
)


def cactus_word(n, *intervals):
    return cactus_relations(n).word(tuple((pq, 1) for pq in intervals))


def braid_word(n, *signed):
    return braid_relations(n).word(tuple(signed))


class TestFreeReduce:
    def test_involutive_square_cancels(self):
        sys = cactus_relations(2)
        assert cactus_word(2, (1, 2), (1, 2)).letters == ()

    def test_empty_word(self):
        assert free_reduce((), frozenset()) == ()

    def test_free_cancellation(self):
        assert braid_word(3, (1, 1), (1, -1), (2, 1)).letters == ((2, 1),)

    def test_nested_cancellation(self):
        got = free_reduce(((1, 1), (2, 1), (2, -1), (1, -1)), frozenset())
        assert got == ()

    def test_involutive_letters_reject_negative_sign(self):
        with pytest.raises(ValueError):
            cactus_relations(2).word((((1, 2), -1),))

    letters = st.lists(
        st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, -1])), max_size=12
    )

    @given(letters)
    def test_idempotent(self, ls):
        once = free_reduce(tuple(ls), frozenset())
        assert free_reduce(once, frozenset()) == once

    @given(letters)
    def test_reduced_word_has_no_adjacent_inverses(self, ls):
        out = free_reduce(tuple(ls), frozenset())
        for (g1, s1), (g2, s2) in zip(out, out[1:]):
            assert not (g1 == g2 and s1 == -s2)

    @given(letters)
    def test_inverse_concatenation_cancels(self, ls):
        w = free_reduce(tuple(ls), frozenset())
        assert free_reduce(w + invert_letters(w, frozenset()), frozenset()) == ()


class TestEqual:
    def test_reflexivity_zero_states(self):
        sys = cactus_relations(3)
        w = cactus_word(3, (1, 3), (1, 2))
        res = equal(w, w, sys)
        assert res.is_equal and res.states == 0

    def test_involution_to_empty(self):
        sys = cactus_relations(2)
        res = equal(cactus_word(2, (1, 2), (1, 2)), cactus_word(2), sys)
        assert res.is_equal

    def test_containment_one_step(self):
        sys = cactus_relations(4)
        lhs = cactus_word(4, (1, 4), (2, 3))
        rhs = cactus_word(4, (2, 3), (1, 4))
        res = equal(lhs, rhs, sys, max_len=8, budget=10_000)
        assert res.is_equal
        assert replay_path(sys, lhs, rhs, res.path)

    def test_pi_separates(self):
        sys = cactus_relations(2)
        res = equal(cactus_word(2, (1, 2)), cactus_word(2), sys)
        assert res.is_distinct and res.separating == "pi"

    def test_exponent_sum_separates_braids(self):
        sys = braid_relations(2)
        res = equal(braid_word(2, (1, 1), (1, 1)), braid_word(2), sys)
        assert res.is_distinct and res.separating in ("pi", "exponent_sum")

    def test_braid_relation_provable(self):
        sys = braid_relations(3)
        lhs = braid_word(3, (1, 1), (2, 1), (1, 1))
        rhs = braid_word(3, (2, 1), (1, 1), (2, 1))
        res = equal(lhs, rhs, sys)
        assert res.is_equal
        assert replay_path(sys, lhs, rhs, res.path)

    def test_mixed_sign_braid_equality(self):
        # conjugation identity: b1 b2 B1 = B2 b1 b2
        sys = braid_relations(3)
        lhs = braid_word(3, (1, 1), (2, 1), (1, -1))
        rhs = braid_word(3, (2, -1), (1, 1), (2, 1))
        res = equal(lhs, rhs, sys)
        assert res.is_equal

    def test_inconclusive_on_tiny_budget(self):
        sys = braid_relations(3)
        lhs = braid_word(3, (1, 1), (2, 1), (1, 1))
        rhs = braid_word(3, (2, 1), (1, 1), (2, 1))
        res = equal(lhs, rhs, sys, budget=0)
        assert res.is_inconclusive

    def test_system_is_freed_after_a_search(self):
        # the search tables live on the system, not in a module-level cache
        sys = replace(braid_relations(3))
        ref = weakref.ref(sys)
        lhs = braid_word(3, (1, 1), (2, 1), (1, 1))
        rhs = braid_word(3, (2, 1), (1, 1), (2, 1))
        assert equal(lhs, rhs, sys).is_equal
        del sys
        gc.collect()
        assert ref() is None

    def test_arity_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            equal(cactus_word(2), cactus_word(3), cactus_relations(2))

    def test_determinism(self):
        sys = cactus_relations(3)
        lhs = cactus_word(3, (1, 3), (1, 2))
        rhs = cactus_word(3, (2, 3), (1, 3))
        r1 = equal(lhs, rhs, sys)
        r2 = equal(lhs, rhs, sys)
        assert r1 == r2
        assert r1.is_equal

    def test_path_is_replayable_and_tamper_evident(self):
        sys = cactus_relations(3)
        lhs = cactus_word(3, (1, 3), (1, 2))
        rhs = cactus_word(3, (2, 3), (1, 3))
        res = equal(lhs, rhs, sys)
        assert replay_path(sys, lhs, rhs, res.path)
        assert not replay_path(sys, rhs, lhs, res.path) or lhs == rhs
        bad = replace(res.path, meet=res.path.meet + (((1, 2), 1),))
        assert not replay_path(sys, lhs, rhs, bad)


class TestSystems:
    def test_cactus_generator_count(self):
        for n in range(2, 6):
            assert len(cactus_relations(n).generators) == n * (n - 1) // 2

    def test_cactus_2_has_involution_only(self):
        sys = cactus_relations(2)
        assert len(sys.generators) == 1
        assert sys.relations == (((((1, 2), 1), ((1, 2), 1)), ()),)

    def test_cactus_3_containment_instance(self):
        # the outer reversal (1,3) around (1,2) trades it for (2,3)
        sys = cactus_relations(3)
        assert (
            ((((1, 3), 1), ((1, 2), 1)), (((2, 3), 1), ((1, 3), 1)))
            in sys.relations
        )

    def test_cactus_4_has_disjoint_pair(self):
        sys = cactus_relations(4)
        assert (
            ((((1, 2), 1), ((3, 4), 1)), (((3, 4), 1), ((1, 2), 1)))
            in sys.relations
        )

    def test_invariants_sound_on_cactus(self):
        for n in (2, 3, 4):
            sys = cactus_relations(n)
            contexts = [cactus_word(n, pq) for pq in sys.generators]
            assert validate_invariants(sys, contexts) == []

    def test_invariants_sound_on_braid(self):
        for n in (2, 3, 4):
            sys = braid_relations(n)
            contexts = [braid_word(n, (g, 1)) for g in sys.generators]
            assert validate_invariants(sys, contexts) == []

    def test_broken_invariant_is_reported(self):
        sys = cactus_relations(3)
        broken = RelationSystem(
            name=sys.name,
            n=sys.n,
            generators=sys.generators,
            relations=sys.relations,
            involutive=sys.involutive,
            invariants=(("length", lambda w: len(w.letters)),),
        )
        contexts = [cactus_word(3, pq) for pq in sys.generators]
        assert validate_invariants(broken, contexts) != []

    def test_word_mul_and_inv(self):
        B = braid_operad()
        w = B.from_letters(3, ((1, 1), (2, -1)))
        assert B.mul(w, B.inv(w)).payload.letters == ()
