"""Permutation layer: pointwise oracles, block operations, group laws."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from actionoperads.perm import (
    Perm,
    act_on_positions,
    adjacent_transposition,
    all_perms,
    block_perm,
    block_sum,
    compose,
    descent_word,
    format_perm,
    identity,
    inverse,
    is_permutation,
    parse_perm,
)
from oracles import blockwise_expansion, pointwise_action, pointwise_compose, pointwise_inverse, shifted_union


def perms_up_to(n: int):
    return [p for k in range(n + 1) for p in all_perms(k)]


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


perm_strategy = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda xs: Perm(tuple(xs)))
)


class TestBasics:
    def test_involution_squared(self):
        assert compose(Perm((2, 1)), Perm((2, 1))).images == (1, 2)

    def test_unit_law(self):
        assert compose(identity(3), Perm((3, 1, 2))).images == (3, 1, 2)

    def test_compose_frozen_value(self):
        assert compose(Perm((3, 2, 1)), Perm((2, 1, 3))).images == (2, 3, 1)

    def test_compose_matches_pointwise_oracle(self):
        for n in range(5):
            for p in all_perms(n):
                for q in all_perms(n):
                    assert compose(p, q).images == pointwise_compose(p, q)

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))

    def test_inverse_trivialities(self):
        assert inverse(identity(3)).images == (1, 2, 3)
        assert inverse(Perm((2, 1))).images == (2, 1)

    def test_inverse_frozen_value(self):
        assert inverse(Perm((2, 3, 1))).images == (3, 1, 2)

    def test_inverse_matches_pointwise_oracle(self):
        for p in perms_up_to(4):
            assert inverse(p).images == pointwise_inverse(p)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((1, 1))
        with pytest.raises(ValueError):
            Perm((0, 1))

    def test_rejects_boolean_entries(self):
        # bool is an int subclass, but True is not the point 1
        assert not is_permutation((2, True))
        assert not is_permutation((True,))
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            Perm((2, True))

    def test_arity_mismatch_messages_match_reference(self):
        p, q = Perm((2, 1)), Perm((3, 1, 2))
        assert raised(compose, p, q) == raised(pointwise_compose, p, q)
        assert raised(compose, identity(0), p) == raised(pointwise_compose, identity(0), p)
        for sizes in ([1, 1, 1], [2], [], (1, -1)):
            assert raised(block_perm, p, sizes) == raised(blockwise_expansion, p, sizes)
        for items in ("abc", (), ("a",)):
            assert raised(act_on_positions, p, items) == raised(pointwise_action, p, items)


class TestBlockOps:
    def test_block_sum_identities(self):
        assert block_sum([identity(2), identity(3)]).images == (1, 2, 3, 4, 5)

    def test_block_sum_frozen_value(self):
        assert block_sum([Perm((2, 1)), Perm((2, 3, 1))]).images == (2, 1, 4, 5, 3)

    def test_block_sum_singleton_is_identity_op(self):
        for p in all_perms(3):
            assert block_sum([p]) == p

    def test_block_sum_empty(self):
        assert block_sum([]).n == 0

    def test_block_sum_matches_shift_oracle(self):
        for length in range(4):
            for ps in itertools.product(perms_up_to(4), repeat=length):
                if sum(p.n for p in ps) <= 4:
                    assert block_sum(ps).images == shifted_union(ps)

    def test_block_perm_frozen_values(self):
        assert block_perm(Perm((2, 1)), [2, 1]).images == (2, 3, 1)
        assert block_perm(Perm((1, 3, 2)), [1, 2, 1]).images == (1, 3, 4, 2)

    def test_block_perm_unit_sizes(self):
        for p in all_perms(3):
            assert block_perm(p, [1, 1, 1]) == p

    def test_block_perm_matches_blockwise_oracle(self):
        for p in perms_up_to(4):
            for sizes in itertools.product((0, 1, 2), repeat=p.n):
                assert block_perm(p, list(sizes)).images == blockwise_expansion(p, sizes)

    def test_block_perm_arity_mismatch(self):
        with pytest.raises(ValueError):
            block_perm(Perm((2, 1)), [1, 1, 1])


class TestAlgebraicLaws:
    def test_block_sum_is_homomorphism_total_arity_6(self):
        # exhaustive over two-block splits of total arity <= 6
        for k1 in range(0, 4):
            for k2 in range(0, 4):
                if k1 + k2 > 6:
                    continue
                for p1, q1 in itertools.product(all_perms(k1), repeat=2):
                    for p2, q2 in itertools.product(all_perms(k2), repeat=2):
                        lhs = compose(block_sum([p1, p2]), block_sum([q1, q2]))
                        rhs = block_sum([compose(p1, q1), compose(p2, q2)])
                        assert lhs == rhs

    def test_twisted_law_total_arity_6(self):
        # block_perm(g, k) . block_sum(h) == block_sum(h permuted) . block_perm(g, k)
        for n in (1, 2, 3):
            for sizes in itertools.product((0, 1, 2), repeat=n):
                if sum(sizes) > 6:
                    continue
                for g in all_perms(n):
                    pools = [all_perms(k) for k in sizes]
                    for hs in itertools.product(*pools):
                        lhs = compose(block_perm(g, list(sizes)), block_sum(hs))
                        rhs = compose(block_sum(act_on_positions(g, hs)), block_perm(g, list(sizes)))
                        assert lhs == rhs

    def test_block_perm_composition_law(self):
        # block_perm(g, k) . block_perm(h, j) == block_perm(g . h, j) with k = j twisted by h
        for n in (1, 2, 3):
            for jsizes in itertools.product((0, 1, 2), repeat=n):
                for g in all_perms(n):
                    for h in all_perms(n):
                        ksizes = act_on_positions(h, jsizes)
                        lhs = compose(block_perm(g, list(ksizes)), block_perm(h, list(jsizes)))
                        rhs = block_perm(compose(g, h), list(jsizes))
                        assert lhs == rhs

    def test_group_axioms_up_to_5(self):
        for n in range(0, 5):
            e = identity(n)
            for p in all_perms(n):
                assert compose(p, inverse(p)) == e
                assert compose(inverse(p), p) == e
                assert compose(p, e) == p
                assert compose(e, p) == p

    @given(perm_strategy, perm_strategy, perm_strategy)
    def test_associativity(self, p, q, r):
        if p.n == q.n == r.n:
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestHelpers:
    def test_act_on_positions(self):
        assert act_on_positions(Perm((2, 3, 1)), ("a", "b", "c")) == ("c", "a", "b")

    def test_act_on_positions_matches_pointwise_oracle(self):
        for p in perms_up_to(4):
            items = tuple("abcd"[: p.n])
            assert act_on_positions(p, items) == pointwise_action(p, items)

    def test_descent_word_reconstructs(self):
        for p in all_perms(4):
            word = descent_word(p)
            out = identity(4)
            for i in reversed(word):
                out = compose(adjacent_transposition(4, i), out)
            assert out == p

    def test_parse_format_roundtrip(self):
        for text in ("[2,1,3]", "[]", "[1]"):
            assert format_perm(parse_perm(text)) == text

    def test_parse_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            parse_perm("[1,1]")
        with pytest.raises(ValueError):
            parse_perm("2,1")

    def test_is_permutation(self):
        assert is_permutation(())
        assert not is_permutation((2, 2))
