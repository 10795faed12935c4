"""Randomized structural properties across instances (exact checks at the
underlying-permutation level, so no oracle bounds are involved)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from actionoperads.braid import braid_operad
from actionoperads.cactus import cactus_operad, interval_generators
from actionoperads.core import symmetric_operad
from actionoperads.perm import act_on_positions, block_perm, block_sum, compose, inverse

CACT = cactus_operad()
BRAID = braid_operad()
SYM = symmetric_operad()


def cactus_words(n: int, max_len: int = 4):
    gens = interval_generators(n)
    return st.lists(st.sampled_from(gens), max_size=max_len).map(
        lambda gs: CACT.from_letters(n, tuple((g, 1) for g in gs))
    )


def braid_words(n: int, max_len: int = 4):
    letters = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    return st.lists(letters, max_size=max_len).map(
        lambda ls: BRAID.from_letters(n, tuple(ls))
    )


sizes3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


class TestCactusProperties:
    @given(cactus_words(3), cactus_words(3))
    def test_pi_is_a_homomorphism(self, a, b):
        assert CACT.pi(CACT.mul(a, b)) == compose(CACT.pi(a), CACT.pi(b))

    @given(cactus_words(3))
    def test_inverse_is_reverse(self, a):
        assert CACT.pi(CACT.inv(a)) == inverse(CACT.pi(a))
        assert CACT.mul(a, CACT.inv(a)).payload.letters == ()

    @given(cactus_words(2), cactus_words(3))
    def test_beta_pi_compatibility(self, a, b):
        assert CACT.pi(CACT.beta([a, b])) == block_sum([CACT.pi(a), CACT.pi(b)])

    @settings(max_examples=40, deadline=None)
    @given(cactus_words(3, max_len=3), sizes3)
    def test_delta_pi_compatibility(self, a, sizes):
        assert CACT.pi(CACT.delta(a, sizes)) == block_perm(CACT.pi(a), sizes)

    @settings(max_examples=40, deadline=None)
    @given(cactus_words(3, max_len=2), cactus_words(3, max_len=2), sizes3)
    def test_delta_twist_at_pi_level(self, g, h, jsizes):
        ksizes = act_on_positions(CACT.pi(h), jsizes)
        lhs = CACT.mul(CACT.delta(g, ksizes), CACT.delta(h, jsizes))
        rhs = CACT.delta(CACT.mul(g, h), jsizes)
        assert CACT.pi(lhs) == CACT.pi(rhs)


class TestBraidProperties:
    @given(braid_words(3), braid_words(3))
    def test_pi_is_a_homomorphism(self, a, b):
        assert BRAID.pi(BRAID.mul(a, b)) == compose(BRAID.pi(a), BRAID.pi(b))

    @given(braid_words(3))
    def test_free_inverse_cancels(self, a):
        assert BRAID.mul(a, BRAID.inv(a)).payload.letters == ()

    @given(braid_words(2), braid_words(3))
    def test_beta_pi_compatibility(self, a, b):
        assert BRAID.pi(BRAID.beta([a, b])) == block_sum([BRAID.pi(a), BRAID.pi(b)])

    @settings(max_examples=40, deadline=None)
    @given(braid_words(3, max_len=3), sizes3)
    def test_delta_pi_compatibility(self, a, sizes):
        assert BRAID.pi(BRAID.delta(a, sizes)) == block_perm(BRAID.pi(a), sizes)

    @given(braid_words(3))
    def test_exponent_sum_additive(self, a):
        from actionoperads.braid import exponent_sum

        assert exponent_sum(BRAID.mul(a, a)) == 2 * exponent_sum(a)

    @settings(max_examples=40, deadline=None)
    @given(braid_words(2, max_len=2), st.integers(0, 3), st.integers(0, 3))
    def test_delta_against_symmetric_shadow(self, a, j1, j2):
        # the underlying permutation of the cabled word is the block
        # inflation of the underlying permutation
        sizes = (j1, j2)
        shadow = block_perm(BRAID.pi(a), sizes)
        assert BRAID.pi(BRAID.delta(a, sizes)) == shadow


def recursive_delta(inst, a, sizes):
    """The block diagonal as a recursive right fold that reduces after
    every product, the reference for the iterative fold."""

    def fold(letters, sizes):
        if not letters:
            return inst.identity(sum(sizes))
        gen, sign = letters[-1]
        p = inst.letter_pi(gen, a.n)
        if sign == 1:
            d = inst.from_letters(sum(sizes), inst.delta_letters(gen, a.n, sizes))
        else:
            ksizes = tuple(sizes[p.images[i] - 1] for i in range(a.n))
            d = inst.inv(inst.from_letters(sum(ksizes), inst.delta_letters(gen, a.n, ksizes)))
            p = inverse(p)
        return inst.mul(fold(letters[:-1], act_on_positions(p, sizes)), d)

    return fold(a.payload.letters, tuple(sizes))


class TestDeltaFold:
    @settings(max_examples=60, deadline=None)
    @given(braid_words(3, max_len=6), sizes3)
    def test_braid_matches_recursive_fold(self, a, sizes):
        assert BRAID.delta(a, sizes) == recursive_delta(BRAID, a, sizes)

    @settings(max_examples=60, deadline=None)
    @given(cactus_words(3, max_len=6), sizes3)
    def test_cactus_matches_recursive_fold(self, a, sizes):
        assert CACT.delta(a, sizes) == recursive_delta(CACT, a, sizes)
