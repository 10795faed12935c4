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

Equality slides letters before it searches.  Every relation but the
squares keeps a word's length, so a letter ``c`` can move left past an
earlier letter ``x`` by one listed relation, as the two intervals sit:

- ``x = c``: the two cancel (the free reduction of the move that made
  them adjacent);
- disjoint: they commute, ``x c = c x``;
- ``c`` inside ``x``: ``c`` becomes its reflection in ``x``,
  ``x c = c' x``;
- ``x`` inside ``c``: ``x`` becomes its reflection in ``c``,
  ``x c = c x'``;
- the intervals overlap: ``c`` is blocked.

The reflection of ``[k, l]`` in ``[p, q]`` is ``[p+q-l, p+q-k]``.
*Slide-cancel* moves each letter left until it cancels, and repeats
until no letter does; this is Tits's solution of the word problem for
Coxeter groups (J. Tits, *Le probleme des mots dans les groupes de
Coxeter*, 1969) with the reflections added to the commutations.  A
slide is written out only when it cancels, one ``Step`` per move, each
move's relation and orientation looked up in ``sys.rewrites``; a move
the system does not list ends the slide.  The oracle is
:func:`rewrite.equal` with the family's moves, ``(slide_cancel,
_pull)``: after identical words and the ``pi`` invariant it slides
both sides to ``r1`` and ``r2``.  Then, for sides of one length, the
*pull* rewrites ``r1`` into ``r2`` from the last letter to the first,
at no state: ``r2``'s letter ``c`` at ``k`` slides left into
``r1[:k + 1]`` until it meets an equal letter ``y``, and the moves are
mirrored, so that ``y`` travels right and arrives at ``k`` as ``c``.
A move rewrites ``x c`` to ``c' x'`` and its mirror ``c' x`` to
``x' c``: a commutation of disjoint letters, or else the containment
relation ``x c = c' x`` or ``c x = x' c`` of the outer letter.  Where
the pull gives up (the lengths differ, a slide is blocked, or the
system does not list a move) the class check and the search run from
the slid words; only they build the search tables.
Slides and the pull answer only ``equal``: a ``distinct`` from a word
that no slide shortens needs two proofs not made here, that
cancellation is confluent on the classes of the length-keeping
relations, and that no word in the class of such a word has a
cancellable pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import rewrite
from .core import OperadElement, WordOperad
from .perm import Perm
from .rewrite import Letters, RelationSystem, Step

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


def reflect(inner: Interval, outer: Interval) -> Interval:
    """The image of ``inner`` under the reversal of ``outer``.

    >>> reflect((1, 2), (1, 4))
    (3, 4)
    """
    (k, l), (p, q) = inner, outer
    return (p + q - l, p + q - k)


def slide_past(x: Interval, c: Interval) -> tuple[Interval, Interval] | None:
    """The pair that ``x c`` becomes when ``c`` moves left past ``x``, or
    ``None`` when the intervals overlap and ``c`` is blocked.  ``x = c``
    never reaches here: the two cancel in a freely reduced word.

    >>> slide_past((1, 3), (2, 3))
    ((1, 2), (1, 3))
    >>> slide_past((1, 2), (2, 3)) is None
    True
    """
    if is_disjoint(x, c):
        return c, x
    if contains(x, c):
        return reflect(c, x), x
    if contains(c, x):
        return c, reflect(x, c)
    return None


def _slide(word: Letters, j: int) -> list[tuple[int, tuple[Interval, Interval]]] | None:
    """The moves, ``(position, new pair)``, that carry the letter at ``j``
    left until it meets an equal letter, which it cancels.  ``None`` when
    it is blocked or reaches the front first, or when a letter it passes
    would cancel its right neighbour instead (that neighbour's own slide
    may take it).  The letters left of the moving one are never changed,
    so this is interval arithmetic on the word as given."""
    c = word[j][0]
    right = word[j + 1][0] if j + 1 < len(word) else None
    moves = []
    for pos in range(j - 1, -1, -1):
        pair = slide_past(word[pos][0], c)
        if pair is None:
            return None
        c, right_of_c = pair
        if right_of_c == right:
            return None
        moves.append((pos, pair))
        if pos and word[pos - 1][0] == c:
            return moves
        right = right_of_c
    return None


def slide_cancel(letters: Letters, sys: RelationSystem) -> tuple[Letters, tuple[Step, ...]]:
    """Slide every letter of a freely reduced word left until none
    cancels; returns the slid word and the steps that lead to it.

    >>> sys = cactus_relations(3)
    >>> word, steps = slide_cancel((((1, 2), 1), ((1, 3), 1), ((2, 3), 1)), sys)
    >>> word, [(s.rel, s.orient, s.pos) for s in steps]
    ((((1, 3), 1),), [(4, 0, 1)])
    """
    word, steps, j = letters, [], 1
    while j < len(word):
        moves = _slide(word, j)
        written = moves and _write(sys, word, moves)
        if not written:
            j += 1
            continue
        steps.extend(written)
        slid = written[-1].result
        same = next((i for i, (u, v) in enumerate(zip(word, slid)) if u != v), len(slid))
        # letters before j did not cancel, and a letter's slide reads the
        # word up to its right neighbour: restart where that may differ
        word, j = slid, max(1, min(j, same - 1))
    return word, tuple(steps)


def _write(sys: RelationSystem, word: Letters, moves) -> list[Step] | None:
    """The moves of one slide as steps, or ``None`` (nothing written) when
    ``sys`` does not list one of them."""
    steps = []
    for pos, pair in moves:
        step = rewrite.pair_step(sys, word, pos, tuple((gen, 1) for gen in pair))
        if step is None:
            return None
        steps.append(step)
        word = step.result
    return steps


def _pull(r1: Letters, r2: Letters, sys: RelationSystem) -> tuple[Step, ...] | None:
    """The steps of the pull (module docstring) of ``r1`` into ``r2``, or
    ``None`` when the two differ in length (the pull keeps length), a
    slide is blocked or ``sys`` does not list a move."""
    if len(r1) != len(r2):
        return None
    word, steps = r1, []
    for k in range(len(r2) - 1, -1, -1):
        if word[k] == r2[k]:
            continue
        moves = _slide(word[: k + 1] + r2[k : k + 1], k + 1)
        if moves is None:
            return None
        # the move at p takes (x, c) to (c', x'); its mirror takes (c', x)
        # at p - 1 to (x', c), with c the letter that moved before it
        moving = [r2[k][0]] + [pair[0] for _, pair in moves]
        for (pos, (_, x_after)), c in reversed(list(zip(moves, moving))):
            step = rewrite.pair_step(sys, word, pos - 1, ((x_after, 1), (c, 1)))
            # a cancellation at a seam would shift the positions: give up
            if step is None or len(step.result) < len(word):
                return None
            steps.append(step)
            word = step.result
    return tuple(steps)


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
        for inner in gens:
            if inner != outer and contains(outer, inner):
                relations.append((((outer, 1), (inner, 1)), ((reflect(inner, outer), 1), (outer, 1))))
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

    def equal_at_arity(self, a, b, budget):
        return rewrite.equal(a.payload, b.payload, self.relation_system(a.n), budget, (slide_cancel, _pull))

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
