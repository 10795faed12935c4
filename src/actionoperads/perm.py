"""
Finite permutations in one-line notation, with the two block operations
(block sum and block permutation) that give the symmetric groups their
operad-of-groups structure.

Conventions, used consistently across the whole package:

- A permutation of arity ``n`` acts on the points ``1, ..., n``;
  ``images[i - 1]`` is the image of the point ``i``.  Arity 0 is legal and
  is the unit for block sums.
- ``compose(p, q)`` is the function composite: ``compose(p, q)(i) ==
  p(q(i))``, so the *right* factor acts first.  A product written left to
  right, ``g1 * g2 * ... * gk``, therefore means ``compose(g1,
  compose(g2, ...))`` and the underlying-permutation map on words of group
  generators is a homomorphism for left-to-right reading.
- ``block_sum([p1, ..., pn])`` places the ``pi`` side by side, each acting
  on its own block of consecutive points.
- ``block_perm(p, sizes)`` inflates ``p`` so that it permutes whole blocks:
  the i-th input block of width ``sizes[i-1]`` moves, order preserved
  internally, to the output slot ``p(i)``, and the output slot ``j`` has
  width ``sizes[p^-1(j) - 1]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


def is_permutation(images: Sequence[int]) -> bool:
    """Check that ``images`` lists each of 1..n exactly once, as ints
    (``True`` is not the entry 1).

    >>> [is_permutation(w) for w in [(), (1,), (2, 1), (1, 1), (0, 1), (2, True)]]
    [True, True, True, False, False, False]
    """
    n = len(images)
    seen = [False] * n
    for v in images:
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n or seen[v - 1]:
            return False
        seen[v - 1] = True
    return True


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation of ``{1, ..., n}`` stored in one-line notation.

    Permutations are immutable values; every operation returns a new one.

    >>> Perm((2, 1, 3)).n
    3
    >>> Perm((2, 1, 3))(1)
    2
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_permutation(self.images):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"point {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __str__(self) -> str:
        return format_perm(self)


_set_images = Perm.images.__set__


def _valid(images: tuple[int, ...]) -> Perm:
    """Wrap images known to be a permutation, skipping re-validation."""
    p = object.__new__(Perm)
    _set_images(p, images)
    return p


def identity(n: int) -> Perm:
    """The identity permutation of arity ``n``.

    >>> identity(3).images
    (1, 2, 3)
    """
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    return _valid(tuple(range(1, n + 1)))


def compose(p: Perm, q: Perm) -> Perm:
    """The composite ``p . q`` with the right factor acting first.

    >>> compose(Perm((3, 2, 1)), Perm((2, 1, 3))).images
    (2, 3, 1)
    """
    pi = p.images
    qi = q.images
    if len(pi) != len(qi):
        raise ValueError(f"arity mismatch composing {p} with {q}")
    return _valid(tuple([pi[v - 1] for v in qi]))


def inverse(p: Perm) -> Perm:
    """The inverse permutation: ``compose(p, inverse(p))`` is the identity.

    >>> inverse(Perm((2, 3, 1))).images
    (3, 1, 2)
    """
    pi = p.images
    images = [0] * len(pi)
    for i, v in enumerate(pi, 1):
        images[v - 1] = i
    return _valid(tuple(images))


def block_sum(ps: Sequence[Perm]) -> Perm:
    """Place permutations side by side, each shifted onto its own block.

    >>> block_sum([Perm((2, 1)), Perm((2, 3, 1))]).images
    (2, 1, 4, 5, 3)
    >>> block_sum([]).images
    ()
    """
    images: list[int] = []
    offset = 0
    for p in ps:
        pi = p.images
        images += [v + offset for v in pi]
        offset += len(pi)
    return _valid(tuple(images))


def block_perm(p: Perm, sizes: Sequence[int]) -> Perm:
    """Inflate ``p`` to permute blocks of the given widths.

    The i-th input block (width ``sizes[i-1]``) moves, order preserved, to
    the output slot ``p(i)``; output slot ``j`` has width
    ``sizes[p^-1(j) - 1]``.  Width-0 blocks are legal and vanish.

    >>> block_perm(Perm((2, 1)), [2, 1]).images
    (2, 3, 1)
    >>> block_perm(Perm((1, 3, 2)), [1, 2, 1]).images
    (1, 3, 4, 2)
    """
    pi = p.images
    n = len(pi)
    if n != len(sizes):
        raise ValueError(f"arity mismatch: permutation of {n} block(s) against {len(sizes)} size(s)")
    if min(sizes, default=0) < 0:
        raise ValueError(f"block sizes must be >= 0: {sizes!r}")
    # the width landing in each output slot, then the point before each slot
    moved = [0] * n
    for i, v in enumerate(pi):
        moved[v - 1] = sizes[i]
    before = list(itertools.accumulate(moved, initial=0))
    images: list[int] = []
    for i, v in enumerate(pi):
        images += range(before[v - 1] + 1, before[v - 1] + sizes[i] + 1)
    return _valid(tuple(images))


def act_on_positions(p: Perm, items: Sequence) -> tuple:
    """Move the entry in slot ``i`` to slot ``p(i)``.

    The result ``out`` satisfies ``out[i - 1] == items[p^-1(i) - 1]``.

    >>> act_on_positions(Perm((2, 3, 1)), ("a", "b", "c"))
    ('c', 'a', 'b')
    """
    pi = p.images
    if len(pi) != len(items):
        raise ValueError(f"arity mismatch: permutation of {len(pi)} against {len(items)} item(s)")
    out = [None] * len(pi)
    for i, v in enumerate(pi):
        out[v - 1] = items[i]
    return tuple(out)


def adjacent_transposition(n: int, i: int) -> Perm:
    """The transposition swapping ``i`` and ``i + 1`` inside arity ``n``."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent transposition index {i} out of range 1..{n - 1}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Perm(tuple(images))


def descent_word(p: Perm) -> tuple[int, ...]:
    """A word in adjacent transpositions multiplying out to ``p``.

    The letters are read left to right under the package convention, so
    ``p == compose(t[w0], compose(t[w1], ...))``.  Produced by bubble
    sorting the one-line form, hence deterministic.

    >>> descent_word(identity(4))
    ()
    >>> descent_word(Perm((2, 1)))
    (1,)
    """
    images = list(p.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(images) - 1):
            if images[j] > images[j + 1]:
                images[j], images[j + 1] = images[j + 1], images[j]
                swaps.append(j + 1)
                changed = True
    return tuple(reversed(swaps))


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """Every permutation of arity ``n``, in lexicographic order."""
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    return tuple(Perm(images) for images in itertools.permutations(range(1, n + 1)))


def parse_perm(text: str) -> Perm:
    """Parse one-line syntax ``[2,1,3]``; rejects non-bijections.

    >>> parse_perm("[2,1,3]").images
    (2, 1, 3)
    >>> parse_perm("[]").n
    0
    """
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expected one-line permutation like [2,1,3], got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return identity(0)
    try:
        images = tuple(int(part) for part in inner.split(","))
    except ValueError:
        raise ValueError(f"malformed permutation entries in {text!r}") from None
    if not is_permutation(images):
        raise ValueError(f"{text!r} is not a permutation of 1..{len(images)}")
    return Perm(images)


def format_perm(p: Perm) -> str:
    """One-line text form, inverse to :func:`parse_perm`."""
    return "[" + ",".join(str(v) for v in p.images) + "]"
