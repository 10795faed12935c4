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
check.  Equality refutation uses two invariants: the underlying
permutation and the exponent sum (the abelianization).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .core import OperadElement, WordOperad
from .perm import Perm, adjacent_transposition, block_perm
from .rewrite import RelationSystem, Word


def _word_exponent_sum(word: Word) -> int:
    return sum(sign for _gen, sign in word.letters)


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
        invariants=(("pi", braid_operad().pi_images), ("exponent_sum", _word_exponent_sum)),
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
        if len(sizes) != n:
            raise ValueError(f"arity mismatch: generator at {n} with {len(sizes)} size(s)")
        if not 1 <= gen <= n - 1:
            raise ValueError(f"generator index {gen} out of range at arity {n}")
        start = 1 + sum(sizes[: gen - 1])
        return block_cross_letters(start, sizes[gen - 1], sizes[gen])

    def elements(self, n: int):
        if n <= 1:
            return (self.identity(n),)
        return None

    def parse(self, text: str, n: int) -> OperadElement:
        return self.from_letters(n, parse_braid_letters(text, n))

    def format_letter(self, gen: int, sign: int) -> str:
        return f"b{gen}" if sign == 1 else f"B{gen}"


def parse_braid_letters(text: str, n: int) -> tuple:
    """Parse whitespace-separated ``b<i>`` / ``B<i>`` tokens; ``e`` is empty.

    >>> parse_braid_letters("b1 B2", 3)
    ((1, 1), (2, -1))
    """
    body = text.strip()
    if body in ("", "e"):
        return ()
    letters = []
    for token in body.split():
        tok = token.strip()
        if tok == "e":
            continue
        if len(tok) < 2 or tok[0] not in ("b", "B"):
            raise ValueError(f"malformed braid letter {token!r}; expected b<i> or B<i>")
        try:
            idx = int(tok[1:])
        except ValueError:
            raise ValueError(f"malformed braid letter {token!r}") from None
        if not 1 <= idx <= n - 1:
            raise ValueError(f"letter {token!r} out of range at arity {n}")
        letters.append((idx, 1 if tok[0] == "b" else -1))
    return tuple(letters)


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
