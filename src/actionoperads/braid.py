"""
The braid groups as an action operad.

Words are over the standard generators ``b1, ..., b(n-1)`` with
inverses written ``B1, ..., B(n-1)``; the underlying permutation sends
``bi`` to the transposition (i, i+1).  The block sum shifts generator
indices; the block diagonal of a generator is a positive cabling word
crossing one whole block over its neighbour, chosen so that its
underlying permutation is exactly the corresponding block transposition
under the package's right-factor-first composition convention.

The relation system carries the two defining braid relations together
with their sign-closed variants (inverse and mixed-sign consequences),
so the bounded rewriting search can act on words containing inverse
letters without ever growing them; every added variant is a consequence
of the defining relations and is covered by the invariant soundness
check.  Equality refutation uses three invariants, in this order: the
underlying permutation, the exponent sum (the abelianization), and
Garside's left-greedy normal form (:func:`garside_normal_form`).  The
normal form is complete, so every distinct pair is refuted before the
search; it never issues ``equal``, which needs a replayable path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .core import OperadElement, WordOperad
from .perm import Perm, adjacent_transposition, block_perm
from .rewrite import RelationSystem, Word


def _word_exponent_sum(word: Word) -> int:
    return sum(sign for _gen, sign in word.letters)


def garside_normal_form(n: int, letters: Sequence[tuple[int, int]]) -> tuple:
    """Garside's left-greedy normal form ``(k, (A_1, ..., A_r))`` of a
    braid word: the braid is Δ^k · A_1 ⋯ A_r, each ``A_j`` a permutation
    braid other than 1 and Δ, given by its underlying permutation, and
    each adjacent pair left-weighted (Garside 1969; Elrifai–Morton 1994;
    Epstein et al., *Word Processing in Groups*, 1992, ch. 9).  Two words
    have the same normal form exactly when they are the same braid.

    Each ``B<i>`` is Δ⁻¹ · (Δσ_i⁻¹), and moving a Δ⁻¹ left past a factor
    flips it (i ↦ n − i), so the word is Δ^-m times positive factors, m
    its number of inverse letters.  The factors are appended one by one;
    each append makes the pairs left-weighted from the right, moving σ_i
    from the right factor B to the left one A while i is in S(B) ∖ F(A),
    and stops at the first pair that is already left-weighted: the pairs
    to its left are unchanged, and one such pass puts a left-weighted
    word times one permutation braid in normal form.  Leading Δ factors
    fold into k.  Nothing is kept between calls.

    >>> garside_normal_form(3, ((1, 1), (2, 1), (1, 1), (2, 1)))
    (1, ((1, 3, 2),))
    >>> garside_normal_form(3, ((1, -1),))
    (-1, ((2, 3, 1),))
    """
    ident, top = list(range(1, n + 1)), list(range(n, 0, -1))
    flips = sum(1 for _gen, sign in letters if sign == -1)
    k = -flips
    factors: list[list[int]] = []
    for gen, sign in letters:
        if sign == -1:
            flips -= 1
        i = n - gen if flips & 1 else gen  # flipped by the Δ⁻¹ of each later B<j>
        if sign == 1 and factors and factors[-1][i - 1] < factors[-1][i]:
            a = factors[-1]  # i is not in F(a): σ_i moves into a at once
            a[i - 1], a[i] = a[i], a[i - 1]
        else:
            factor = ident[:] if sign == 1 else top[:]
            factor[i - 1], factor[i] = factor[i], factor[i - 1]
            factors.append(factor)
            if sign == 1:
                continue  # first, or i is in F of the factor before: left-weighted
        for j in range(len(factors) - 2, -1, -1):
            a, b = factors[j], factors[j + 1]
            inv = [0] * n  # b⁻¹, so that i is in S(b) when inv[i - 1] > inv[i]
            for pos, v in enumerate(b):
                inv[v - 1] = pos
            moved = False
            i = 1
            while i < n:
                if inv[i - 1] > inv[i] and a[i - 1] < a[i]:
                    a[i - 1], a[i] = a[i], a[i - 1]
                    inv[i - 1], inv[i] = inv[i], inv[i - 1]
                    moved = True
                    if i > 1:
                        i -= 1  # only S and F at i - 1 and i + 1 changed
                else:
                    i += 1
            if not moved:
                break
            for v, pos in enumerate(inv, 1):
                b[pos] = v
        if factors[-1] == ident:  # the new factor moved wholly to the left
            factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead] == top:
        lead += 1
    return (k + lead, tuple(map(tuple, factors[lead:])))


def _word_garside(word: Word) -> tuple:
    return garside_normal_form(word.n, word.letters)


@lru_cache(maxsize=None)
def braid_relations(n: int) -> RelationSystem:
    """Relations at arity ``n``: far commutation and the adjacent-pair
    relation, each in all sign variants."""
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    gens = tuple(range(1, n))
    relations: list[tuple[tuple, tuple]] = []
    for i in gens:
        for j in gens:
            if j < i + 2:
                continue
            for si in (1, -1):
                for sj in (1, -1):
                    relations.append((((i, si), (j, sj)), ((j, sj), (i, si))))
    for i in gens:
        j = i + 1
        if j not in gens:
            continue
        a, b = i, j
        relations.append((((a, 1), (b, 1), (a, 1)), ((b, 1), (a, 1), (b, 1))))
        relations.append((((a, -1), (b, -1), (a, -1)), ((b, -1), (a, -1), (b, -1))))
        # conjugation forms of the same relation, one per sign pattern
        relations.append((((a, 1), (b, 1), (a, -1)), ((b, -1), (a, 1), (b, 1))))
        relations.append((((a, -1), (b, 1), (a, 1)), ((b, 1), (a, 1), (b, -1))))
        relations.append((((a, 1), (b, -1), (a, -1)), ((b, -1), (a, -1), (b, 1))))
        relations.append((((a, -1), (b, -1), (a, 1)), ((b, 1), (a, -1), (b, -1))))
    return RelationSystem(
        name=f"braid_{n}",
        n=n,
        generators=gens,
        relations=tuple(relations),
        involutive=frozenset(),
        invariants=(
            ("pi", braid_operad().pi_images),
            ("exponent_sum", _word_exponent_sum),
            ("garside", _word_garside),
        ),
    )


def block_cross_letters(p: int, a: int, b: int) -> tuple:
    """Letters of the positive crossing of an ``a``-wide block starting at
    position ``p`` over the adjacent ``b``-wide block.

    Built strand by strand: after crossing the first ``a - 1`` strands,
    the last strand of the block crosses over the ``b`` strands one
    descent at a time.  Empty when either block has width 0.
    """
    if a < 0 or b < 0 or p < 1:
        raise ValueError(f"block widths must be >= 0 and position >= 1, got p={p} a={a} b={b}")
    return tuple(
        (idx, 1) for k in range(1, a + 1) for idx in range(p + k + b - 2, p + k - 2, -1)
    )


class BraidOperad(WordOperad):
    """Operation table for the braid family."""

    name = "braid"

    def arity_generators(self, n: int):
        return tuple(range(1, n))

    def relation_system(self, n: int) -> RelationSystem:
        return braid_relations(n)

    def letter_pi(self, gen: int, n: int) -> Perm:
        return adjacent_transposition(n, gen)

    def shift_letter(self, gen: int, offset: int) -> int:
        return gen + offset

    def delta_letters(self, gen: int, n: int, sizes: Sequence[int]) -> tuple:
        start = 1 + sum(sizes[: gen - 1])
        return block_cross_letters(start, sizes[gen - 1], sizes[gen])

    def format_letter(self, gen: int, sign: int) -> str:
        return f"b{gen}" if sign == 1 else f"B{gen}"

    def normal_form(self, a):
        self.check_element(a)
        return _word_garside(a.payload)


@lru_cache(maxsize=None)
def braid_operad() -> BraidOperad:
    return BraidOperad()


def block_cross(p: int, a: int, b: int, ambient: int | None = None) -> OperadElement:
    """The positive block crossing as an element; ambient defaults to the
    smallest arity containing both blocks."""
    if ambient is None:
        ambient = max(p + a + b - 1, 0)
    return braid_operad().from_letters(ambient, block_cross_letters(p, a, b))


def embedded_block_transposition(p: int, a: int, b: int, ambient: int) -> Perm:
    """The permutation swapping the two adjacent blocks, fixed elsewhere."""
    before = p - 1
    after = ambient - (p + a + b - 1)
    if before < 0 or after < 0:
        raise ValueError(f"blocks at p={p}, widths ({a}, {b}) do not fit arity {ambient}")
    core = block_perm(Perm((2, 1)), [a, b])
    images = (
        tuple(range(1, before + 1))
        + tuple(v + before for v in core.images)
        + tuple(range(before + a + b + 1, ambient + 1))
    )
    return Perm(images)


def exponent_sum(w: OperadElement) -> int:
    """Sum of letter signs; constant on both braid relations."""
    braid_operad().check_element(w)
    return _word_exponent_sum(w.payload)
