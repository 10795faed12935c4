"""Word layer: free reduction, the bounded equality search, path replay."""

from __future__ import annotations

import gc
import weakref
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionoperads.braid import braid_operad, braid_relations
from actionoperads.cactus import cactus_relations
from actionoperads.rewrite import (
    DEFAULT_BUDGET,
    EqResult,
    RelationSystem,
    RewritePath,
    Step,
    Word,
    _Expansion,
    equal,
    free_reduce,
    invert_letters,
    pair_step,
    replay_path,
    validate_invariants,
)
from oracles import reference_class_equal, reference_pair_step


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

    @pytest.mark.parametrize(
        "letters, message",
        [
            ((((1, 4), 1),), "unknown generator (1, 4) at arity 3"),
            ((((1, 2), 2),), "letter sign must be +1 or -1, got 2"),
            ((((1, 2), -1),), "involutive generator (1, 2) cannot carry sign -1"),
        ],
        ids=["generator", "sign", "involutive"],
    )
    def test_word_rejection_messages(self, letters, message):
        with pytest.raises(ValueError) as err:
            cactus_relations(3).word(letters)
        assert str(err.value) == message

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
        res = equal(lhs, rhs, sys, budget=10_000)
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

    def test_successors_leave_no_cyclic_garbage(self):
        # each call's matches, dependence order and state are freed by
        # reference counting alone
        tab = cactus_relations(4).search_tables
        state = tab.canon(tab.encode(cactus_word(4, (1, 3), (2, 4), (1, 4), (2, 3), (1, 2)).letters))
        assert tab.successors(state)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                tab.successors(state)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_tables_are_bounded_by_the_relations(self):
        # braid n = 24: 924 far commutations, every pair independent, and
        # 132 braid relations whose left sides make up the trie
        sys = replace(braid_relations(24))
        tab = sys.search_tables
        commutations = [lhs for lhs, rhs in sys.relations if len(lhs) == 2 and rhs == lhs[::-1]]
        assert len(commutations) == 924
        assert len(tab.swaps) == 2 * len(commutations)
        nodes, stack = 0, list(tab.trie.values())
        while stack:
            children, entries, _ = stack.pop()
            nodes += 1
            stack.extend((children or {}).values())
        left_letters = sum(len(lhs) + len(rhs) for lhs, rhs in sys.relations) - 4 * len(commutations)
        assert 0 < nodes <= left_letters
        assert len(tab.dep) == len(tab.bit) == len(tab.code_to_letter) == 2 * 23

    def test_the_index_and_the_trie_keep_the_first_listing(self):
        # the commutation of a and b, listed in + signs only (so it stays in
        # the trie), twice, both times after a relation that also lists it
        ab, ba = (("a", 1), ("b", 1)), (("b", 1), ("a", 1))
        sys = RelationSystem("twice", 1, ("a", "b"), ((ab, (("a", 1),)), (ba, ab), (ab, ba), (ab, ba)))
        assert sys.rewrites == {(ab, (("a", 1),)): 0, ((("a", 1),), ab): 1, (ba, ab): 2, (ab, ba): 3}
        tab = sys.search_tables
        assert tab.swaps == {}
        entries = tab.trie[tab.encode(ab[:1])][0][tab.encode(ab[1:])][1]
        assert entries == [(tab.encode((("a", 1),)), 0), (tab.encode(ba), 3)]
        assert pair_step(sys, ab, 0, ba) == reference_pair_step(sys, ab, 0, ba) == Step(1, 1, 0, ba)

    def test_stop_met_and_invariant(self):
        sys = cactus_relations(3)
        w = cactus_word(3, (1, 3), (1, 2))
        assert equal(w, w, sys).stop == "met"
        assert equal(w, cactus_word(3, (2, 3), (1, 3)), sys).stop == "met"
        assert equal(cactus_word(3, (1, 2)), cactus_word(3), sys).stop == "invariant"

    def test_stop_space_exhausted_on_equal_braid_pair(self):
        # equal, but no relation applies until a cancelling pair is inserted:
        # this pair has no rewrite path that never lengthens a word
        B = braid_operad()
        lhs, rhs = B.parse("B1 B2 B2 b1", 3), B.parse("b2 B1 B1 B2", 3)
        res = B.equal(lhs, rhs, None, 4000)
        assert res.is_inconclusive and res.states == 2 and res.stop == "space_exhausted"

    def test_stop_budget_on_long_braid_pair(self):
        # a distinct pair that pi and the exponent sum cannot separate: the
        # search without the normal form runs out of budget (its class space
        # has 2,882 states), the shipped system refutes it before searching
        B = braid_operad()
        delta = "b1 b2 b3 b1 b2 b1"
        lhs, rhs = B.parse(f"{delta} {delta} b1 b1", 4), B.parse(f"{delta} {delta} b3 b3", 4)
        shipped = braid_relations(4)
        no_garside = replace(shipped, invariants=shipped.invariants[:2])
        res = equal(lhs.payload, rhs.payload, no_garside, 500)
        assert res.is_inconclusive and res.states == 500 and res.stop == "budget"
        res = B.equal(lhs, rhs, None, 4000)
        assert res.is_distinct and res.separating == "garside"
        assert res.states == 0 and res.stop == "invariant"

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
        for n in (2, 3, 4, 5):
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


def reference_equal(w1, w2, sys, budget=None) -> EqResult:
    """The search as a plain scan: orientations indexed by their first
    letter, every successor freely reduced over the whole word."""
    start = free_reduce(w1.letters, sys.involutive)
    goal = free_reduce(w2.letters, sys.involutive)
    if start == goal:
        return EqResult("equal", path=RewritePath(start, (), ()), stop="met")
    for name, evaluate in sys.invariants:
        if evaluate(Word(sys.n, start)) != evaluate(Word(sys.n, goal)):
            return EqResult("distinct", separating=name, stop="invariant")
    budget = DEFAULT_BUDGET if budget is None else budget
    index: dict = {}
    for ridx, (lhs, rhs) in enumerate(sys.relations):
        for orient, (a, b) in enumerate(((lhs, rhs), (rhs, lhs))):
            if a:
                index.setdefault(a[0], []).append((a, b, ridx, orient))
    seen = ({start: None}, {goal: None})
    queues = (deque([start]), deque([goal]))
    expanded = 0

    def chain(side, node):
        steps = []
        while seen[side][node] is not None:
            parent, ridx, orient, pos = seen[side][node]
            steps.append(Step(ridx, orient, pos, node))
            node = parent
        return tuple(reversed(steps))

    while (queues[0] or queues[1]) and expanded < budget:
        side = 0 if queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1])) else 1
        state = queues[side].popleft()
        expanded += 1
        for pos, letter in enumerate(state):
            for a, b, ridx, orient in index.get(letter, ()):
                if state[pos : pos + len(a)] != a:
                    continue
                nxt = free_reduce(state[:pos] + b + state[pos + len(a) :], sys.involutive)
                if nxt == state or nxt in seen[side]:
                    continue
                seen[side][nxt] = (state, ridx, orient, pos)
                if nxt in seen[1 - side]:
                    path = RewritePath(nxt, chain(0, nxt), chain(1, nxt))
                    return EqResult("equal", states=expanded, path=path, stop="met")
                queues[side].append(nxt)
    stop = "budget" if queues[0] or queues[1] else "space_exhausted"
    return EqResult("inconclusive", states=expanded, stop=stop)


# a one-letter left side, a three-letter one, an involutive letter, and
# right sides that are not freely reduced
TOY = RelationSystem(
    name="toy",
    n=1,
    generators=("a", "b", "c", "s"),
    relations=(
        ((("a", 1),), (("b", 1), ("c", 1), ("c", -1), ("b", 1))),
        ((("b", 1), ("c", 1)), (("c", 1), ("s", 1), ("s", 1), ("b", 1))),
        ((("c", 1), ("b", 1), ("c", 1)), (("b", 1), ("c", 1), ("b", 1))),
        ((("s", 1), ("a", 1)), (("a", -1), ("a", 1), ("a", 1), ("s", 1))),
        ((("b", -1),), (("s", 1), ("c", -1), ("c", 1), ("s", 1), ("b", -1))),
        ((("a", 1), ("b", 1)), (("b", 1), ("a", 1))),
    ),
    involutive=frozenset({"s"}),
)


# a two-letter left side with an empty right side: the splice can leave
# letters that cancel across it (x a b X -> x X -> e)
EMPTY_RIGHT = RelationSystem(
    name="empty_right",
    n=1,
    generators=("a", "b", "x"),
    relations=(((("a", 1), ("b", 1)), ()),),
)

# 300 generators, 600 letters: more than one byte can code
WIDE = RelationSystem(
    name="wide",
    n=1,
    generators=tuple(range(300)),
    relations=(
        (((298, 1), (299, 1), (298, 1)), ((299, 1), (298, 1), (299, 1))),
        (((250, 1), (298, 1)), ((298, 1), (250, 1))),
        (((250, 1), (299, 1)), ((299, 1), (250, 1))),
        (((299, -1),), ((0, 1), (299, -1), (0, -1))),
    ),
)


# a four-letter left side beside a two-letter and a one-letter one, so
# that the lookup key is three letters and is cut short at a word's end
FOUR = RelationSystem(
    name="four",
    n=1,
    generators=("a", "b", "c", "d"),
    relations=(
        ((("a", 1), ("b", 1), ("c", 1), ("d", 1)), (("d", 1), ("a", 1))),
        ((("c", 1), ("d", 1)), (("d", 1), ("c", 1))),
        ((("b", 1),), (("d", 1), ("d", 1))),
    ),
)


def _commuting(x, y):
    """The commutation of generators x and y in every sign."""
    return tuple((((x, s), (y, t)), ((y, t), (x, s))) for s in (1, -1) for t in (1, -1))


# a and x commute, b does not commute with x: in the class of a x b the
# left side a b is a factor only by moving a right past x
SLIDE = RelationSystem(
    name="slide",
    n=1,
    generators=("a", "b", "c", "x"),
    relations=_commuting("a", "x") + (((("a", 1), ("b", 1)), (("c", 1),)),),
)

# TOY and FOUR with their commutation listed in every sign, so that a, b
# (TOY) and c, d (FOUR) are independent letters of the class search
TOY_FREE = replace(TOY, name="toy_free", relations=TOY.relations[:5] + _commuting("a", "b"))
FOUR_FREE = replace(FOUR, name="four_free", relations=FOUR.relations[:1] + _commuting("c", "d") + FOUR.relations[2:])


def _letters(sys):
    return [
        (g, sign) for g in sys.generators for sign in ((1,) if g in sys.involutive else (1, -1))
    ]


OTHERS = {sys.name: sys for sys in (TOY, EMPTY_RIGHT, WIDE, FOUR, SLIDE, TOY_FREE, FOUR_FREE)}


@pytest.mark.parametrize(
    "sys",
    [braid_relations(n) for n in range(2, 6)] + [cactus_relations(n) for n in range(2, 7)] + [TOY, FOUR, FOUR_FREE],
    ids=lambda sys: sys.name,
)
def test_pair_step_reads_the_rewrites_as_the_tables_did(sys):
    # every two-letter window against every two-letter target: the index
    # gives the step the swaps-then-trie lookup gave
    pairs = [(x, y) for x in _letters(sys) for y in _letters(sys)]
    for word in pairs:
        for target in pairs:
            assert pair_step(sys, word, 0, target) == reference_pair_step(sys, word, 0, target), (word, target)


# the toy systems with independent letters, where the class reduction can
# cancel a letter that a word-level path rewrites (see test_known_gaps)
REDUCING = ("slide", "toy_free", "four_free")


@st.composite
def search_queries(draw, families=("cactus", "braid", *OTHERS)):
    """A system, two words and a state budget.  The second word is either
    independent of the first or one relation away from it, possibly with a
    relator inserted, so that the search has work to do."""
    family = draw(st.sampled_from(families))
    if family == "cactus":
        sys = cactus_relations(draw(st.integers(2, 6)))
    elif family == "braid":
        sys = braid_relations(draw(st.integers(2, 5)))
    else:
        sys = OTHERS[family]
    words = st.lists(st.sampled_from(_letters(sys)), max_size=5).map(tuple)
    x, y = draw(words), draw(words)
    if sys.relations and draw(st.booleans()):
        lhs, rhs = draw(st.sampled_from(sys.relations))
        a, b = draw(st.sampled_from([(lhs, rhs), (rhs, lhs)]))
        w1, w2 = x + a + y, x + b + y
        if draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(sys.relations))
            cut = draw(st.integers(0, len(w2)))
            w2 = w2[:cut] + r1 + invert_letters(r2, sys.involutive) + w2[cut:]
    else:
        w1, w2 = x, y
    w1 = Word(sys.n, free_reduce(w1, sys.involutive))
    w2 = Word(sys.n, free_reduce(w2, sys.involutive))
    return sys, w1, w2, draw(st.integers(0, 300))


def _toy(*letters):
    return Word(1, tuple((g.lower(), 1 if g.islower() else -1) for g in letters))


def _braid(n, text):
    return braid_operad().parse(text, n).payload


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(search_queries())
    # toy pairs whose result depends on the trie keeping relation order
    @example((TOY, _toy("a"), _toy("B", "a", "b"), 200))
    @example((TOY, _toy("a", "b", "c"), _toy("a", "c", "c"), 200))
    @example((TOY, _toy(), _toy("s", "a", "s", "a"), 15))
    # a factor whose first letter moves right, and a left side matched in
    # the reverse order of its positions
    @example((SLIDE, _toy("a", "x", "b"), _toy("x", "c"), 20))
    @example((FOUR_FREE, _toy("a", "b", "d", "c"), _toy("d", "a"), 20))
    def test_same_result_as_the_reference_class_search(self, query):
        sys, w1, w2, budget = query
        res = equal(w1, w2, sys, budget)
        assert res == reference_class_equal(w1, w2, sys, budget)
        if res.is_equal:
            assert replay_path(sys, w1, w2, res.path)

    @settings(max_examples=300, deadline=None)
    @given(search_queries(("cactus", "braid", *(name for name in OTHERS if name not in REDUCING))))
    def test_verdicts_agree_with_the_plain_scan(self, query):
        # Distinct comes from the same invariants; where the word-level scan
        # finds a path, the class search finds one with the default budget.
        # This is not a theorem: test_known_gaps pins where it fails.
        sys, w1, w2, budget = query
        scan = reference_equal(w1, w2, sys, budget)
        assert equal(w1, w2, sys, 0).is_distinct == scan.is_distinct
        if scan.is_equal:
            res = equal(w1, w2, sys)
            assert res.is_equal and replay_path(sys, w1, w2, res.path)

    @pytest.mark.parametrize(
        "sys, w1, w2",
        [
            # D C d a D C reduces to C a D C (d cancels the first D across
            # C); the scan rewrites that d a to a b c d and reaches D C a b
            (FOUR_FREE, _toy("D", "C", "d", "a", "D", "C"), _toy("D", "C", "a", "b")),
            # A b a B C reduces to C (a cancels A, then B cancels b, across
            # letters independent of them); the scan rewrites that a to
            # b c C b and reaches A b b C
            (TOY_FREE, _toy("A", "b", "b", "C"), _toy("A", "b", "a", "B", "C")),
        ],
        ids=["four_free", "toy_free"],
    )
    def test_known_gaps(self, sys, w1, w2):
        # equal pairs the word-level scan proves and the class search does
        # not: the reduction cancels a letter that the scan's path rewrites,
        # and no class edge brings it back
        assert reference_equal(w1, w2, sys, 300).is_equal
        res = equal(w1, w2, sys)
        assert res.is_inconclusive and res.stop == "space_exhausted"

    def test_one_letter_left_side_at_the_word_end(self):
        # a -> b b only through the one-letter left side, whose right side
        # b c C b reduces to b b, at the word's last letter
        w1, w2 = _toy("c", "a"), _toy("c", "b", "b")
        res = equal(w1, w2, TOY, budget=50)
        assert res == reference_class_equal(w1, w2, TOY, budget=50)
        assert res.is_equal and replay_path(TOY, w1, w2, res.path)

    @pytest.mark.parametrize(
        "sys, w1, w2",
        [
            # the empty splice leaves x X, which cancels across it: 1 state
            (EMPTY_RIGHT, _toy("x", "a", "b", "X", "a"), _toy("a")),
            # codes up to 599
            (
                WIDE,
                Word(1, ((250, 1), (298, 1), (299, 1), (298, 1))),
                Word(1, ((299, 1), (298, 1), (299, 1), (250, 1))),
            ),
            # a two-letter left side in the last two letters, a one-letter
            # one in the last letter, and the four-letter one
            (FOUR, _toy("a", "c", "d"), _toy("a", "d", "c")),
            (FOUR, _toy("c", "b"), _toy("c", "d", "d")),
            (FOUR, _toy("c", "a", "b", "c", "d"), _toy("c", "d", "a")),
            # a0 x a1 with x independent of a0 only: a0 moves right past x
            (SLIDE, _toy("a", "x", "b"), _toy("x", "c")),
            (SLIDE, _toy("b", "a", "x", "b"), _toy("b", "x", "c")),
            # x ... X cancel across a letter independent of both
            (braid_relations(4), _braid(4, "b1 b3 B1"), _braid(4, "b3")),
            (braid_relations(4), _braid(4, "b2 b1 b2 b3 B1"), _braid(4, "b1 b2 b3")),
            # one-letter left sides on independent letters (a, b commute)
            (TOY_FREE, _toy("a", "b"), _toy("b", "b", "b")),
            (TOY_FREE, _toy("c", "a"), _toy("c", "b", "b")),
            # the four-letter left side with its last two letters commuted
            (FOUR_FREE, _toy("a", "b", "d", "c"), _toy("d", "a")),
            (FOUR_FREE, _toy("c", "a", "b", "d", "c", "b"), _toy("c", "d", "a", "d", "d")),
        ],
        ids=[
            "empty_right", "wide", "four_last_two", "four_last_one", "four_whole",
            "slide", "slide_in_context", "cancel_across", "cancel_after_rewrite",
            "toy_free_one_letter", "toy_free_last", "four_free_commuted", "four_free_in_context",
        ],
    )
    def test_pinned_pairs_are_equal(self, sys, w1, w2):
        res = equal(w1, w2, sys, budget=200)
        assert res == reference_class_equal(w1, w2, sys, budget=200)
        assert res.is_equal and replay_path(sys, w1, w2, res.path)

    def test_commutations_are_not_edges(self):
        # b1 b3 and b3 b1 are one class: equal in 0 states, by one swap
        sys = braid_relations(4)
        w1, w2 = _braid(4, "b1 b3"), _braid(4, "b3 b1")
        res = equal(w1, w2, sys)
        assert res.is_equal and res.states == 0
        assert len(res.path.forward) + len(res.path.backward) == 1
        assert replay_path(sys, w1, w2, res.path)

    def test_an_independence_that_is_no_relation_gives_no_equal(self):
        # planted defect: b1 and b2 marked independent although no relation
        # swaps them; the two words then share a class key, but the path
        # cannot be expanded, so the search must not answer Equal
        sys = replace(braid_relations(3), invariants=())
        tab = sys.search_tables
        b1, b2 = tab.letter_to_code[(1, 1)], tab.letter_to_code[(2, 1)]
        tab.dep[b1] &= ~tab.bit[b2]
        tab.dep[b2] &= ~tab.bit[b1]
        w1, w2 = _braid(3, "b1 b2"), _braid(3, "b2 b1")
        assert tab.canon(tab.encode(w1.letters)) == tab.canon(tab.encode(w2.letters))
        res = equal(w1, w2, sys, budget=50)
        assert not res.is_equal


def _independent_b1_b2():
    """``braid_relations(3)`` without invariants, its tables marking b1 and
    b2 independent although no relation swaps them (a planted defect)."""
    sys = replace(braid_relations(3), invariants=())
    tab = sys.search_tables
    b1, b2 = tab.letter_to_code[(1, 1)], tab.letter_to_code[(2, 1)]
    tab.dep[b1] &= ~tab.bit[b2]
    tab.dep[b2] &= ~tab.bit[b1]
    return sys, tab


class TestExpansionGivesUp:
    """Each give-up arm of ``_Expansion`` on tables changed after they were
    built; the search then answers no ``equal``."""

    def test_a_longer_word_with_no_cancelling_letter(self):
        # under the planted independence b2 b1 B2 has the key b1, and B2
        # depends on b1, so no letter's nearest dependent letter is its inverse
        sys, tab = _independent_b1_b2()
        w1, w2 = _braid(3, "b1"), _braid(3, "b2 b1 B2")
        word = tab.encode(w2.letters)
        assert tab.decode(tab.canon(word)) == w1.letters
        expansion = _Expansion(sys, tab)
        assert expansion.cancelling(word) is None
        assert expansion.settle(word, tab.canon(word)) is None and expansion.steps == []
        assert not equal(w1, w2, sys, budget=30).is_equal

    def test_an_edge_after_a_step_that_gave_up(self):
        sys, _ = _independent_b1_b2()
        assert not equal(_braid(3, "b1 b1 b2"), _braid(3, "b1 b2 b1"), sys, budget=30).is_equal

    def test_a_right_side_that_is_not_the_relations(self):
        # the trie says b1 b2 b1 -> b2 B1 b2, the relation b1 b2 b1 = b2 b1 b2:
        # the applied step cannot be commuted into the class the search saw
        sys = replace(braid_relations(3), invariants=())
        tab = sys.search_tables
        lhs = tab.encode(sys.relations[0][0])
        entries = tab.trie[lhs[0]][0][lhs[1]][0][lhs[2]][1]
        planted = tab.encode(_braid(3, "b2 B1 b2").letters)
        entries[0] = (planted, entries[0][1])
        assert _Expansion(sys, tab).sort(tab.encode(sys.relations[0][1]), planted) is None
        assert not equal(_braid(3, "b1 b2 b1"), _braid(3, "b2 B1 b2"), sys, budget=30).is_equal


class TestReplay:
    def _orient_one_step(self):
        sys = braid_relations(3)
        w1, w2 = _braid(3, "b2 b1 b2"), _braid(3, "b1 b2 b1")
        res = equal(w1, w2, sys)
        (step,) = res.path.forward
        assert step.orient == 1 and replay_path(sys, w1, w2, res.path)
        return sys, w1, w2, res.path, step

    @pytest.mark.parametrize("orient", [7, -1, True, 1.0])
    def test_orient_must_be_zero_or_one(self, orient):
        sys, w1, w2, path, step = self._orient_one_step()
        bad = replace(path, forward=(replace(step, orient=orient),))
        assert not replay_path(sys, w1, w2, bad)

    @pytest.mark.parametrize("field, value", [("rel", True), ("rel", 1.0), ("pos", False), ("pos", -3), ("pos", 4)])
    def test_rel_and_pos_must_be_whole_numbers_in_range(self, field, value):
        sys, w1, w2, path, step = self._orient_one_step()
        bad = replace(path, forward=(replace(step, **{field: value}),))
        assert not replay_path(sys, w1, w2, bad)

    def test_a_negative_position_does_not_wrap(self):
        # b2 b1 b2 is the first three letters of the word: read from the end,
        # pos -4 finds the same letters and the same splice
        sys = braid_relations(3)
        w1, w2 = _braid(3, "b2 b1 b2 b2"), _braid(3, "b1 b2 b1 b2")
        good = equal(w1, w2, sys)
        (step,) = good.path.forward
        assert step.pos == 0 and replay_path(sys, w1, w2, good.path)
        bad = replace(good.path, forward=(replace(step, pos=-4),))
        assert not replay_path(sys, w1, w2, bad)
