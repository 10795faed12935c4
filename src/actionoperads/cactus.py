"""
The cactus groups as an action operad.

The arity-n group is generated by interval reversals ``s(p,q)`` for
``1 <= p < q <= n``, subject to three families of relations:

- involution: ``s(p,q)^2 = e``;
- disjoint commutation: ``s(p,q) s(k,l) = s(k,l) s(p,q)`` when the
  intervals do not overlap (``q < k`` or ``l < p``);
- containment: when ``p <= k < l <= q`` (endpoints may coincide),
  ``s(p,q) s(k,l) = s(a,b) s(p,q)`` where ``a`` and ``b`` are the images
  of ``l`` and ``k`` under the reversal of ``[p, q]``.

The underlying permutation of ``s(p,q)`` fixes everything outside
``[p, q]`` and reverses the interval.  The block sum shifts each word
onto its own block; the block diagonal of a generator ``s(p,q)`` at
widths ``k1, ..., kn`` is the big reversal of the strands covering
blocks p..q followed by the block sum of the small reversals
``m(k_p), ..., m(k_q)`` (``m(k) = s(1,k)``, empty for width <= 1).
Degenerate reversals of width 0 or 1 are represented by the empty word
throughout, which is what makes width-1 and width-0 blocks contribute
nothing.

Naming note: in the containment relation the reversed-image endpoints
are called (a, b) here, to keep them apart from the ambient arity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .core import OperadElement, WordOperad
from .perm import Perm
from .rewrite import RelationSystem

Interval = tuple[int, int]


def s_hat(p: int, q: int, n: int) -> Perm:
    """The interval reversal: fixes [1, p) and (q, n], reverses [p, q].

    >>> s_hat(1, 3, 3).images
    (3, 2, 1)
    >>> s_hat(2, 3, 4).images
    (1, 3, 2, 4)
    """
    if not 1 <= p < q <= n:
        raise ValueError(f"interval bounds must satisfy 1 <= p < q <= n, got p={p} q={q} n={n}")
    images = list(range(1, n + 1))
    images[p - 1 : q] = reversed(images[p - 1 : q])
    return Perm(tuple(images))


def is_disjoint(a: Interval, b: Interval) -> bool:
    (p, q), (k, l) = a, b
    return q < k or l < p


def contains(a: Interval, b: Interval) -> bool:
    (p, q), (k, l) = a, b
    return p <= k and l <= q


def interval_generators(n: int) -> tuple[Interval, ...]:
    return tuple((p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1))


@lru_cache(maxsize=None)
def cactus_relations(n: int) -> RelationSystem:
    """The full relation system at arity ``n``, with the underlying
    permutation as the only refutation invariant."""
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    gens = interval_generators(n)
    relations: list[tuple[tuple, tuple]] = []
    for g in gens:
        relations.append((((g, 1), (g, 1)), ()))
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if is_disjoint(a, b):
                relations.append((((a, 1), (b, 1)), ((b, 1), (a, 1))))
    for outer in gens:
        rev = s_hat(outer[0], outer[1], n)
        for inner in gens:
            if inner == outer or not contains(outer, inner):
                continue
            k, l = inner
            image = (rev.images[l - 1], rev.images[k - 1])
            relations.append(
                (((outer, 1), (inner, 1)), ((image, 1), (outer, 1)))
            )
    return RelationSystem(
        name=f"cactus_{n}",
        n=n,
        generators=gens,
        relations=tuple(relations),
        involutive=frozenset(gens),
        invariants=(("pi", cactus_operad().pi_images),),
    )


class CactusOperad(WordOperad):
    """Operation table for the cactus family."""

    name = "cactus"
    involutive = True

    def arity_generators(self, n: int):
        return interval_generators(n)

    def relation_system(self, n: int) -> RelationSystem:
        return cactus_relations(n)

    def letter_pi(self, gen: Interval, n: int) -> Perm:
        return s_hat(gen[0], gen[1], n)

    def shift_letter(self, gen: Interval, offset: int) -> Interval:
        return (gen[0] + offset, gen[1] + offset)

    def delta_letters(self, gen: Interval, n: int, sizes: Sequence[int]) -> tuple:
        p, q = gen
        cum = [0] * (n + 1)
        for i in range(n):
            cum[i + 1] = cum[i] + sizes[i]
        letters: list[tuple] = []
        lo, hi = cum[p - 1] + 1, cum[q]
        if hi - lo >= 1:
            letters.append((((lo, hi)), 1))
        for i in range(p, q + 1):
            if sizes[i - 1] >= 2:
                letters.append((((cum[i - 1] + 1, cum[i])), 1))
        return tuple(letters)

    def elements(self, n: int):
        if n == 2:
            return (self.identity(2), self.from_letters(2, (((1, 2), 1),)))
        return super().elements(n)

    def format_letter(self, gen: Interval, sign: int) -> str:
        return f"s({gen[0]},{gen[1]})"


@lru_cache(maxsize=None)
def cactus_operad() -> CactusOperad:
    return CactusOperad()


def commutor(m: int, n: int) -> OperadElement:
    """The commutor at block widths (m, n): the big reversal followed by
    the two small ones, degenerate factors dropped.

    >>> cactus_operad().format(commutor(1, 1))
    's(1,2)'
    >>> cactus_operad().format(commutor(1, 2))
    's(1,3) s(2,3)'
    """
    if m < 1 or n < 1:
        raise ValueError(f"commutor needs widths >= 1, got ({m}, {n})")
    letters = [((1, m + n), 1)]
    if m >= 2:
        letters.append(((1, m), 1))
    if n >= 2:
        letters.append(((m + 1, m + n), 1))
    return cactus_operad().from_letters(m + n, tuple(letters))


def commutor_symmetry(m: int, n: int, budget=None):
    """Oracle verdict for commutor(n,m) * commutor(m,n) = e."""
    inst = cactus_operad()
    prod = inst.mul(commutor(n, m), commutor(m, n))
    return inst.equal(prod, inst.identity(m + n), budget=budget)


def coboundary_square(m: int, n: int, p: int, budget=None):
    """Oracle verdict for the coboundary square at widths (m, n, p):

    commutor(m, n+p) * beta(e_m, commutor(n, p))
        = commutor(n+m, p) * beta(commutor(m, n), e_p)
    """
    inst = cactus_operad()
    lhs = inst.mul(
        commutor(m, n + p), inst.beta([inst.identity(m), commutor(n, p)])
    )
    rhs = inst.mul(
        commutor(n + m, p), inst.beta([commutor(m, n), inst.identity(p)])
    )
    return inst.equal(lhs, rhs, budget=budget)


def delta_respects_relation(n: int, sizes: Sequence[int], relation_index: int, budget=None):
    """Oracle verdict for one defining relation surviving the block
    diagonal: delta(lhs, sizes) = delta(rhs, sizes)."""
    inst = cactus_operad()
    sys = cactus_relations(n)
    lhs_letters, rhs_letters = sys.relations[relation_index]
    lhs = inst.delta(inst.from_letters(n, lhs_letters), tuple(sizes))
    rhs = inst.delta(inst.from_letters(n, rhs_letters), tuple(sizes))
    return inst.equal(lhs, rhs, budget=budget)
