"""
The action-operad interface and the axiom verification engine.

An *action operad* here is a family of groups, one per arity, packaged
with four pieces of structure:

- ``pi``: a homomorphism from the arity-n group to the symmetric group
  of the same arity (the underlying permutation);
- ``beta``: a block sum placing elements of arities k1, ..., kn side by
  side inside the group of arity k1 + ... + kn;
- ``delta``: a block diagonal inflating an arity-n element so that it
  permutes n blocks of prescribed widths;
- operadic composition ``mu(g; h1, ..., hn)``, which is always the
  product ``delta(g, sizes) * beta(h1, ..., hn)`` with ``sizes`` the
  arities of the ``hi``.

``check_axioms`` verifies the laws tying these together on enumerated
input tuples (a full proof by enumeration when the groups are finite at
the configured arities) or on deterministically sampled generator words
otherwise.  Equalities are resolved by each instance's own oracle, and
an inconclusive oracle answer is tallied separately - bounded search
cannot refute, so it never counts as a failure unless strict mode asks
for it.

Convention notes.  The interchange law multiplies two composites
``mu(g; f) * mu(g', f')`` with the middle arities read through the
underlying permutation of g': the i-th entry of the left tuple lives at
arity ``k[pi(g')^-1(i)]``.  (Statements of this law sometimes repeat the
first index when listing those arities; the reading used here is the
only one that typechecks.)  The unit-size law is taken as: ``delta`` at
sizes (1, ..., 1) is the identity map, and ``delta`` of the unique
arity-1 unit at sizes (n,) is the arity-n unit.

Words over generators extend ``delta`` by a right fold: with ``x`` the
last letter, ``delta(w . x, j)`` is ``delta(w, k) * delta(x, j)`` where
``k[i] = j[pi(x)^-1(i)]``, bottoming out at the per-generator diagonal;
inverse letters use ``delta(x^-1, j) = delta(x, k)^-1`` with
``k[i] = j[pi(x)(i)]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import rewrite
from .perm import (
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
    parse_perm,
    _valid,
)
from .rewrite import EqResult, RelationSystem, RewritePath, Word

_SAME = EqResult("equal", path=RewritePath((), (), ()), stop="met")


@dataclass(frozen=True, slots=True)
class OperadElement:
    """A tagged element of one arity group of one instance.

    ``payload`` is a :class:`Perm` for the symmetric instance and a
    :class:`Word` for the word-backed instances (braid, cactus, trivial).
    """

    operad: str
    n: int
    payload: object

    def key(self):
        """A hashable canonical key (canonical only where payloads are)."""
        if isinstance(self.payload, Perm):
            body = self.payload.images
        elif isinstance(self.payload, Word):
            body = self.payload.letters
        else:
            body = self.payload
        return (self.operad, self.n, body)


_set_operad = OperadElement.operad.__set__
_set_n = OperadElement.n.__set__
_set_payload = OperadElement.payload.__set__


def _element(operad: str, n: int, payload) -> OperadElement:
    """``OperadElement(operad, n, payload)`` without the frozen dataclass's ``__init__``."""
    a = object.__new__(OperadElement)
    _set_operad(a, operad)
    _set_n(a, n)
    _set_payload(a, payload)
    return a


class ActionOperad:
    """Operation table of one action operad instance.

    Subclasses provide the group structure per arity plus ``pi``,
    ``beta``, the per-generator ``delta`` and the oracle at one arity;
    everything else (``mu``, the checks before the oracle, the word
    extension of ``delta``, sampling) is shared.
    """

    name: str = "abstract"

    # -- group structure -------------------------------------------------
    def identity(self, n: int) -> OperadElement:
        raise NotImplementedError

    def mul(self, a: OperadElement, b: OperadElement) -> OperadElement:
        raise NotImplementedError

    def inv(self, a: OperadElement) -> OperadElement:
        raise NotImplementedError

    def pi(self, a: OperadElement) -> Perm:
        raise NotImplementedError

    # -- operad structure -------------------------------------------------
    def beta(self, els: Sequence[OperadElement]) -> OperadElement:
        raise NotImplementedError

    def delta(self, a: OperadElement, sizes: Sequence[int]) -> OperadElement:
        raise NotImplementedError

    def mu(self, g: OperadElement, hs: Sequence[OperadElement]) -> OperadElement:
        """Operadic composition: block diagonal of the head times the
        block sum of the arguments."""
        if g.n != len(hs):
            raise ValueError(f"arity mismatch: head of arity {g.n} applied to {len(hs)} argument(s)")
        sizes = [h.n for h in hs]
        return self.mul(self.delta(g, sizes), self.beta(hs))

    # -- oracle / enumeration ----------------------------------------------
    def equal(self, a: OperadElement, b: OperadElement, _=None, budget=None) -> EqResult:
        """The oracle's verdict on ``a == b``, searching at most ``budget``
        states: elements of two arities are distinct, and the instance's
        :meth:`equal_at_arity` decides the rest.  The unused third slot
        keeps the positional call ``equal(a, b, None, budget)`` working."""
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            return EqResult("distinct", separating="arity", stop="invariant")
        return self.equal_at_arity(a, b, budget)

    def equal_at_arity(self, a: OperadElement, b: OperadElement, budget) -> EqResult:
        """:meth:`equal` on two checked elements of one arity."""
        raise NotImplementedError

    def elements(self, n: int) -> tuple[OperadElement, ...] | None:
        """All elements at arity ``n``, or ``None`` when unavailable."""
        return None

    def normal_form(self, a: OperadElement):
        """A value two elements of one arity share exactly when they are
        equal, or ``None`` when equality needs the oracle."""
        return None

    def generators(self, n: int) -> tuple[tuple[str, OperadElement], ...]:
        """Named group generators at arity ``n``."""
        return ()

    def generator_word(self, a: OperadElement) -> tuple[tuple[str, int], ...]:
        """Express an element as a product of signed generators, named as
        :meth:`generators` names them."""
        raise NotImplementedError

    def sample(self, n: int, stream: DeterministicStream, max_word_len: int) -> OperadElement:
        """Deterministic sample: a product of random signed generators."""
        gens = self.generators(n)
        if not gens:
            return self.identity(n)
        out = self.identity(n)
        for _ in range(stream.next_int(max_word_len + 1)):
            _, g = gens[stream.next_int(len(gens))]
            if stream.next_int(2):
                g = self.inv(g)
            out = self.mul(out, g)
        return out

    # -- parsing / formatting ----------------------------------------------
    def parse(self, text: str, n: int) -> OperadElement:
        raise NotImplementedError

    def format(self, a: OperadElement) -> str:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------
    def check_element(self, a: OperadElement) -> None:
        if a.operad != self.name:
            raise ValueError(f"mixed instances: element of {a.operad!r} given to {self.name!r}")


class SymmetricOperad(ActionOperad):
    """The symmetric groups; ``pi`` is the identity, the oracle is exact."""

    name = "sym"

    def __init__(self) -> None:
        self._element_cache: dict[int, tuple[OperadElement, ...]] = {}

    def _wrap(self, p: Perm) -> OperadElement:
        return _element(self.name, len(p.images), p)

    def identity(self, n: int) -> OperadElement:
        return self._wrap(identity(n))

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._wrap(compose(a.payload, b.payload))

    def inv(self, a):
        self.check_element(a)
        return self._wrap(inverse(a.payload))

    def pi(self, a) -> Perm:
        self.check_element(a)
        return a.payload

    def beta(self, els):
        for e in els:
            self.check_element(e)
        return self._wrap(block_sum([e.payload for e in els]))

    def delta(self, a, sizes):
        self.check_element(a)
        return self._wrap(block_perm(a.payload, sizes))

    def equal_at_arity(self, a, b, budget) -> EqResult:
        if a.payload == b.payload:
            return _SAME
        return EqResult("distinct", separating="images", stop="invariant")

    def elements(self, n):
        if n not in self._element_cache:
            self._element_cache[n] = tuple(self._wrap(p) for p in all_perms(n))
        return self._element_cache[n]

    def generators(self, n):
        return tuple((f"t{i}", self._wrap(adjacent_transposition(n, i))) for i in range(1, n))

    def generator_word(self, a):
        self.check_element(a)
        return tuple((f"t{i}", 1) for i in descent_word(a.payload))

    def parse(self, text, n):
        p = parse_perm(text)
        if p.n != n:
            raise ValueError(f"permutation {text!r} has arity {p.n}, expected {n}")
        return self._wrap(p)

    def format(self, a):
        return format_perm(a.payload)


class WordOperad(ActionOperad):
    """Shared machinery for instances whose elements are generator words.

    Subclasses supply the alphabet per arity, the relation system, the
    per-generator underlying permutation, the per-generator block
    diagonal, the letter shift used by the block sum, and the spelling
    of each letter, which ``format`` writes and ``parse`` reads.
    """

    involutive: bool = False

    # -- subclass surface ---------------------------------------------------
    def arity_generators(self, n: int) -> tuple:
        raise NotImplementedError

    def relation_system(self, n: int) -> RelationSystem:
        raise NotImplementedError

    def letter_pi(self, gen, n: int) -> Perm:
        raise NotImplementedError

    def delta_letters(self, gen, n: int, sizes: Sequence[int]) -> tuple:
        """The block diagonal of one positive generator, as letters;
        ``gen`` is a generator at arity ``n`` and ``sizes`` has ``n``
        entries, which :meth:`delta` has checked."""
        raise NotImplementedError

    def shift_letter(self, gen, offset: int):
        raise NotImplementedError

    def format_letter(self, gen, sign: int) -> str:
        raise NotImplementedError

    # -- shared implementation ----------------------------------------------
    @lru_cache(maxsize=None)
    def alphabet(self, n: int) -> RelationSystem:
        """The letters at arity ``n`` without the relations, which only the
        equality search reads and which grow at least quadratically in ``n``."""
        if n < 0:
            raise ValueError(f"arity must be >= 0, got {n}")
        gens = self.arity_generators(n)
        return RelationSystem(f"{self.name}_{n}", n, gens, (), frozenset(gens if self.involutive else ()))

    def from_letters(self, n: int, letters) -> OperadElement:
        return _element(self.name, n, self.alphabet(n).word(letters))

    def identity(self, n):
        return self.from_letters(n, ())

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            raise ValueError(f"arity mismatch multiplying at {a.n} and {b.n}")
        return self.from_letters(a.n, a.payload.letters + b.payload.letters)

    def inv(self, a):
        self.check_element(a)
        letters = rewrite.invert_letters(a.payload.letters, self.alphabet(a.n).involutive)
        return self.from_letters(a.n, letters)

    @lru_cache(maxsize=None)
    def letter_images(self, gen, sign: int, n: int) -> tuple[int, ...]:
        """``pi`` of the letter ``(gen, sign)`` at arity ``n``, as images
        counted from 0: slot ``i`` holds ``pi(i + 1) - 1``."""
        p = self.letter_pi(gen, n)
        return tuple(v - 1 for v in (p if sign == 1 else inverse(p)).images)

    @lru_cache(maxsize=None)
    def letter_slots(self, gen, sign: int, n: int) -> tuple[int, int, tuple[int, ...]]:
        """``(lo, hi, reads)``: the letter moves only the slots ``lo`` to
        ``hi - 1`` of :meth:`letter_images`, and slot ``lo + i`` reads
        ``reads[i]``."""
        images = self.letter_images(gen, sign, n)
        moved = [i for i, v in enumerate(images) if v != i]
        lo, hi = (moved[0], moved[-1] + 1) if moved else (0, 0)
        return lo, hi, images[lo:hi]

    def pi(self, a):
        self.check_element(a)
        # compose(out, p) reads out through p: slot i holds out[p(i) - 1],
        # and a letter rewrites only the slots it moves
        out = list(identity(a.n).images)
        for gen, sign in a.payload.letters:
            lo, hi, reads = self.letter_slots(gen, sign, a.n)
            out[lo:hi] = [out[r] for r in reads]
        return _valid(tuple(out))

    def pi_images(self, word: Word) -> tuple[int, ...]:
        """``pi`` of a bare word, as images: the relation systems'
        refutation invariant."""
        return self.pi(_element(self.name, word.n, word)).images

    def beta(self, els):
        for e in els:
            self.check_element(e)
        total = sum(e.n for e in els)
        letters = []
        offset = 0
        for e in els:
            letters.extend(
                (self.shift_letter(gen, offset), sign) for gen, sign in e.payload.letters
            )
            offset += e.n
        return self.from_letters(total, letters)

    def delta(self, a, sizes):
        self.check_element(a)
        if a.n != len(sizes):
            raise ValueError(f"arity mismatch: delta of arity {a.n} with {len(sizes)} size(s)")
        if any(k < 0 for k in sizes):
            raise ValueError(f"block sizes must be >= 0: {tuple(sizes)!r}")
        sizes = tuple(sizes)
        return self._delta_fold(a.n, a.payload.letters, sizes)

    def _delta_fold(self, n: int, letters, sizes) -> OperadElement:
        # The right fold of the module docstring, walked from the last
        # letter: each letter's diagonal is taken at the widths moved
        # through the letters after it.  The factors are concatenated and
        # reduced once, which gives the same word as reducing each
        # product (free reduction is confluent).
        total = sum(sizes)
        involutive = self.alphabet(total).involutive
        factors = []
        for gen, sign in reversed(letters):
            # the widths moved through the letter: act_on_positions of its
            # pi, which reads each slot through the inverse letter's images
            moved = tuple(map(sizes.__getitem__, self.letter_images(gen, -sign, n)))
            if sign == 1:
                factors.append(self.delta_letters(gen, n, sizes))
            else:
                factors.append(rewrite.invert_letters(self.delta_letters(gen, n, moved), involutive))
            sizes = moved
        return self.from_letters(total, [letter for f in reversed(factors) for letter in f])

    def equal_at_arity(self, a, b, budget):
        return rewrite.equal(a.payload, b.payload, self.relation_system(a.n), budget)

    def elements(self, n):
        """The one element at an arity without letters; ``None`` elsewhere."""
        return None if self.alphabet(n).generators else (self.identity(n),)

    def generators(self, n):
        return tuple(
            (self.format_letter(gen, 1), self.from_letters(n, ((gen, 1),)))
            for gen in self.arity_generators(n)
        )

    def generator_word(self, a):
        self.check_element(a)
        return tuple((self.format_letter(gen, 1), sign) for gen, sign in a.payload.letters)

    def parse(self, text, n):
        """The inverse of :meth:`format`: whitespace-separated letters
        spelt as :meth:`format_letter` spells them; ``e`` is the empty word."""
        table = {"e": ()}
        for gen in self.arity_generators(n):
            for sign in (1,) if self.involutive else (1, -1):
                table[self.format_letter(gen, sign)] = ((gen, sign),)
        letters = []
        for token in text.split():
            if token not in table:
                raise ValueError(f"{token!r} is not a {self.name} letter at arity {n}")
            letters.extend(table[token])
        return self.from_letters(n, letters)

    def format(self, a):
        self.check_element(a)
        if not a.payload.letters:
            return "e"
        return " ".join(self.format_letter(gen, sign) for gen, sign in a.payload.letters)


class TrivialOperad(WordOperad):
    """The word instance with no letters: one-element groups at every
    arity, so its operads are the plain non-symmetric ones."""

    name = "trivial"

    def arity_generators(self, n):
        return ()

    def relation_system(self, n):
        return self.alphabet(n)


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------


class DeterministicStream:
    """A linear-congruential integer stream; fixed seed, reproducible."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = (seed ^ 0x9E3779B97F4A7C15) & self._MASK or 1

    def next_int(self, bound: int) -> int:
        """A value in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return (self._state >> 33) % bound


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheckConfig:
    """Bounds for one axiom-checking run.  The mode is not among them:
    :func:`check_axioms` is exhaustive exactly when the instance enumerates
    its group at ``max_total_arity``.

    In exhaustive mode every tuple whose composite arity stays within
    ``max_total_arity`` is enumerated (size-vector entries >= 1, plus a
    fixed handful of vectors containing zero-width blocks).  In sampled
    mode, shapes and elements come from a seeded deterministic stream,
    with word lengths bounded by ``max_word_length``, block sizes by
    ``max_block_size`` and composite arities by ``max_result_arity``;
    there ``max_total_arity`` caps only the draw of one arity for the
    pi-homomorphism, unit, delta-naturality and delta-beta cases (at 0,
    those cases run at arity 0).
    """

    max_total_arity: int = 5
    samples_per_axiom: int = 24
    max_word_length: int = 2
    max_block_size: int = 2
    max_result_arity: int = 6
    seed: int = 2026
    budget: int | None = None

    def __post_init__(self):
        for name, low in (("max_total_arity", 0), ("samples_per_axiom", 0), ("max_word_length", 0),
                          ("max_block_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class Failure:
    axiom: str
    inputs: str
    lhs: str
    rhs: str


@dataclass
class CheckOutcome:
    checked: int = 0
    inconclusive: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


AXIOM_NAMES = (
    "pi_homomorphism",
    "beta_homomorphism",
    "beta_naturality",
    "beta_unary_identity",
    "beta_associativity",
    "delta_naturality",
    "delta_unit_sizes",
    "delta_product_twist",
    "delta_nesting",
    "delta_beta_twist",
    "beta_delta_interchange",
    "composition_interchange",
)


@dataclass
class AxiomReport:
    operad: str
    mode: str
    outcomes: dict[str, CheckOutcome]

    def passed(self, strict: bool = False) -> bool:
        return not any(out.failures or strict and out.inconclusive for out in self.outcomes.values())

    @property
    def total_checked(self) -> int:
        return sum(o.checked for o in self.outcomes.values())

    @property
    def total_inconclusive(self) -> int:
        return sum(o.inconclusive for o in self.outcomes.values())

    def format_text(self) -> str:
        lines = [f"axiom report: operad={self.operad} mode={self.mode}"]
        for name in AXIOM_NAMES:
            out = self.outcomes[name]
            status = "PASS" if not out.failures else "FAIL"
            extra = f" inconclusive={out.inconclusive}" if out.inconclusive else ""
            lines.append(f"  {status} {name}: checked={out.checked}{extra}")
            for f in out.failures[:3]:
                lines.append(f"    counterexample: {f.inputs} -> {f.lhs} != {f.rhs}")
        lines.append(
            f"total: checked={self.total_checked} "
            f"failed={sum(o.failed for o in self.outcomes.values())} "
            f"inconclusive={self.total_inconclusive}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "operad": self.operad,
            "mode": self.mode,
            "axioms": {
                name: {
                    "checked": out.checked,
                    "inconclusive": out.inconclusive,
                    "failures": [
                        {"inputs": f.inputs, "lhs": f.lhs, "rhs": f.rhs} for f in out.failures
                    ],
                }
                for name, out in self.outcomes.items()
            },
        }


def compositions_of(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in compositions_of(total - first, parts - 1):
            yield (first,) + rest


_ZERO_BLOCK_SAMPLES = ((0,), (0, 0), (2, 0), (0, 2), (1, 0, 1))


def size_vectors(max_total: int, include_zero: bool) -> list[tuple[int, ...]]:
    """All positive compositions with sum <= ``max_total`` (plus the empty
    vector, plus a fixed handful of vectors containing zero blocks)."""
    out: list[tuple[int, ...]] = [()]
    for total in range(1, max_total + 1):
        for parts in range(1, total + 1):
            out.extend(compositions_of(total, parts))
    if include_zero:
        out.extend(
            v for v in _ZERO_BLOCK_SAMPLES if sum(v) <= max_total and len(v) <= max_total
        )
    return out


def nested_size_vectors(max_total: int) -> list[tuple[tuple[int, ...], ...]]:
    """All groupings (consecutive blocks) of positive compositions with
    sum <= ``max_total``; inner vectors are nonempty."""
    out: list[tuple[tuple[int, ...], ...]] = [()]
    for flat in size_vectors(max_total, include_zero=False)[1:]:  # after the empty vector
        # choose cut points: each subset of positions 1..m-1
        for cuts in itertools.product((False, True), repeat=len(flat) - 1):
            out.append(_groups(flat, itertools.compress(itertools.count(1), (*cuts, True))))
    return out


def _groups(flat: Sequence, ends: Iterable[int]) -> tuple:
    """``flat`` in consecutive groups, the i-th ending just before
    ``ends[i]``: the running sums of the group lengths, or the positions
    where a group ends."""
    bounds = [0, *ends]
    return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))


def finite_group(inst: ActionOperad, n: int) -> tuple[OperadElement, ...]:
    """The full arity-n group; raises when it is not finite."""
    els = inst.elements(n)
    if els is None:
        raise ValueError(f"instance {inst.name!r} is not finite at arity {n}")
    return els


class _Kernel:
    """An instance's groups with elements interned as integers, built by one
    call of a finite engine (the axiom laws, the club checks, the free check,
    the Borel realization, the operad as a multicategory, the profunctor
    lift) and freed when it returns.  The groups at the given arities are
    enumerated through :func:`finite_group`; each element is numbered by its
    key.

    ``inv`` and ``pi`` are per-element tables; ``mul``, ``delta`` and ``mu``
    keep one row per first argument, mapping the second (an index, a sizes
    tuple, a tuple of leg indices) to the result; ``beta`` is memoised on its
    index tuple.  The hot axiom loops read these rows directly and call the
    method only on a miss.  Every entry is computed once, by the instance's
    own method, so an overridden or defective method is what gets checked.
    A result whose key was not enumerated (a wrong arity, a word not in
    reduced form) gets a fresh index.

    Identity rule: equal indices are equal keys and are equal without the
    oracle; different indices go to the instance's oracle.  :meth:`resolve`
    applies the rule to match a computed element to an enumerated one.
    """

    def __init__(self, inst: ActionOperad, arities: Iterable[int]):
        self.inst = inst
        self.els: list[OperadElement] = []
        self._index: dict[object, int] = {}
        self._mul: list[dict[int, int]] = []  # row a: b -> a*b
        self._inv: list[int | None] = []
        self._pi: list[Perm | None] = []
        self._delta: list[dict[tuple, int]] = []  # row a: sizes -> delta(a, sizes)
        self._mu: list[dict[tuple, int]] = []  # row g: legs -> mu(g, legs)
        self._beta: dict[tuple, int] = {}
        self._units: dict[int, int] = {}
        self._enumerated = {n: tuple(map(self.intern, finite_group(inst, n))) for n in arities}
        self._listed = len(self.els)  # the indices below this were enumerated

    def intern(self, el: OperadElement) -> int:
        key = el.key()
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.els)
            self.els.append(el)
            self._mul.append({})
            self._delta.append({})
            self._mu.append({})
            self._inv.append(None)
            self._pi.append(None)
        return i

    def resolve(self, x: int) -> int | None:
        """``x`` when it was enumerated, else the first enumerated element
        of its arity that the oracle equates with it; ``None`` when there
        is none or its arity was not enumerated."""
        if x < self._listed:
            return x
        candidates = self._enumerated.get(self.els[x].n, ())
        return next((j for j in candidates if self.equal(x, j).is_equal), None)

    def elements(self, n: int) -> tuple[int, ...]:
        return self._enumerated[n]

    def arity(self, a: int) -> int:
        return self.els[a].n

    def identity(self, n: int) -> int:
        i = self._units.get(n)
        if i is None:
            i = self._units[n] = self.intern(self.inst.identity(n))
        return i

    def mul(self, a: int, b: int) -> int:
        row = self._mul[a]
        r = row.get(b)
        if r is None:
            r = row[b] = self.intern(self.inst.mul(self.els[a], self.els[b]))
        return r

    def inv(self, a: int) -> int:
        r = self._inv[a]
        if r is None:
            r = self._inv[a] = self.intern(self.inst.inv(self.els[a]))
        return r

    def pi(self, a: int) -> Perm:
        p = self._pi[a]
        if p is None:
            p = self._pi[a] = self.inst.pi(self.els[a])
        return p

    def beta(self, xs: Sequence[int]) -> int:
        xs = tuple(xs)
        r = self._beta.get(xs)
        if r is None:
            r = self._beta[xs] = self.intern(self.inst.beta([self.els[x] for x in xs]))
        return r

    def delta(self, a: int, sizes: Sequence[int]) -> int:
        row = self._delta[a]
        sizes = tuple(sizes)
        r = row.get(sizes)
        if r is None:
            r = row[sizes] = self.intern(self.inst.delta(self.els[a], sizes))
        return r

    def mu(self, g: int, hs: Sequence[int]) -> int:
        row = self._mu[g]
        hs = tuple(hs)
        r = row.get(hs)
        if r is None:
            r = row[hs] = self.intern(self.inst.mu(self.els[g], [self.els[h] for h in hs]))
        return r

    def equal(self, a: int, b: int, budget=None) -> EqResult:
        if a == b:
            return _SAME
        return self.inst.equal(self.els[a], self.els[b], budget=budget)

    def format(self, a: int) -> str:
        return self.inst.format(self.els[a])


def check_axioms(inst: ActionOperad, config: AxiomCheckConfig | None = None) -> AxiomReport:
    """Verify the structural laws of an instance on many input tuples.

    Exhaustive when the instance enumerates its groups at the configured
    arities (then the run is a proof by enumeration at that scale), sampled
    deterministically otherwise.  Both modes run on interned elements, one
    loop per law.  A case is rendered only when its sides differ: two
    permutations are then a failure, and two elements go to the oracle.
    """
    config = config or AxiomCheckConfig()
    exhaustive = inst.elements(config.max_total_arity) is not None
    K = _Kernel(inst, range(config.max_total_arity + 1) if exhaustive else ())
    outcomes = {}
    for name, (checked, mismatches) in (_exhaustive_walks if exhaustive else _sampled_walks)(K, config):
        out = outcomes[name] = CheckOutcome(checked)
        for lhs, rhs, inputs in mismatches:
            if isinstance(lhs, int):
                res = K.equal(lhs, rhs, budget=config.budget)
                out.inconclusive += res.is_inconclusive
                if not res.is_distinct:
                    continue
                shown = K.format(lhs), K.format(rhs)
            else:
                shown = format_perm(lhs), format_perm(rhs)
            out.failures.append(Failure(name, inputs(), *shown))
    mode = "exhaustive" if exhaustive else "sampled"
    return AxiomReport(inst.name, mode, {name: outcomes[name] for name in AXIOM_NAMES})


# Each law walks its inputs on kernel indices and returns its count of cases
# and (lhs, rhs, render) for each case whose sides (permutations for the laws
# about ``pi``, else indices) differ.  The walks that run on a filled kernel
# and check most cases read its memo rows, calling its methods on a miss.


def _pi_homomorphism(K, inputs):
    """pi(g h) = pi(g) pi(h) for each (g, hs) and each h in hs in turn; where h
    is None, pi(g^-1) = pi(g)^-1 and pi(e) = e at the arity of g instead."""
    pi, fmt = K.pi, K.format
    checked, bad = 0, []
    for g, hs in inputs:
        n, pg = K.arity(g), pi(g)
        for h in hs:
            if h is None:
                checked += 2
                lhs, rhs = pi(K.inv(g)), inverse(pg)
                if lhs != rhs:
                    bad.append((lhs, rhs, lambda g=g, n=n: f"inv: {fmt(g)} @ {n}"))
                lhs, rhs = pi(K.identity(n)), identity(n)
                if lhs != rhs:
                    bad.append((lhs, rhs, lambda n=n: f"unit @ {n}"))
                continue
            checked += 1
            lhs, rhs = pi(K.mul(g, h)), compose(pg, pi(h))
            if lhs != rhs:
                bad.append((lhs, rhs, lambda g=g, h=h, n=n: f"mul: {fmt(g)} * {fmt(h)} @ {n}"))
    return checked, bad


def _beta_homomorphism(K, inputs):
    """beta(gs) beta(hs) = beta(g1 h1, ..., gn hn), each gs, then each hs, of each pair of choices."""
    fmt, betas, rows = K.format, K._beta, K._mul
    checked, bad = 0, []
    for gs_choices, hs_choices in inputs:
        for gs in gs_choices:
            checked += len(hs_choices)
            for hs in hs_choices:
                try:
                    lhs = rows[betas[gs]][betas[hs]]
                    rhs = betas[tuple([rows[g][h] for g, h in zip(gs, hs)])]
                except KeyError:
                    lhs = K.mul(K.beta(gs), K.beta(hs))
                    rhs = K.beta([K.mul(g, h) for g, h in zip(gs, hs)])
                if lhs != rhs:
                    bad.append((lhs, rhs, lambda gs=gs, hs=hs: (
                        f"beta({', '.join(map(fmt, gs))}) * beta({', '.join(map(fmt, hs))})"
                        f" at arities {tuple(map(K.arity, gs))}")))
    return checked, bad


def _beta_naturality(K, inputs):
    """pi(beta(hs)) is the block sum of the pi(h)."""
    checked, bad = 0, []
    for checked, hs in enumerate(inputs, 1):
        lhs, rhs = K.pi(K.beta(hs)), block_sum([K.pi(h) for h in hs])
        if lhs != rhs:
            bad.append((lhs, rhs, lambda hs=hs: (
                f"beta({', '.join(map(K.format, hs))}) at arities {tuple(map(K.arity, hs))}")))
    return checked, bad


def _beta_unary_identity(K, inputs):
    """beta(g) = g."""
    checked, bad = 0, []
    for checked, g in enumerate(inputs, 1):
        lhs = K.beta((g,))
        if lhs != g:
            bad.append((lhs, g, lambda g=g: f"{K.format(g)} @ {K.arity(g)}"))
    return checked, bad


def _beta_associativity(K, inputs):
    """beta of the groups laid end to end is beta of the groups' block sums."""
    checked, bad = 0, []
    for checked, groups in enumerate(inputs, 1):
        lhs, rhs = K.beta([e for grp in groups for e in grp]), K.beta([K.beta(grp) for grp in groups])
        if lhs != rhs:
            bad.append((lhs, rhs, lambda gr=groups: f"groups {tuple(tuple(map(K.arity, g)) for g in gr)}"))
    return checked, bad


def _delta_naturality(K, inputs):
    """pi(delta(g, sizes)) inflates pi(g) to blocks of those widths."""
    checked, bad = 0, []
    for checked, (g, sizes) in enumerate(inputs, 1):
        lhs, rhs = K.pi(K.delta(g, sizes)), block_perm(K.pi(g), sizes)
        if lhs != rhs:
            bad.append((lhs, rhs, lambda g=g, sizes=sizes: f"{K.format(g)} @ {K.arity(g)}; sizes {sizes}"))
    return checked, bad


def _delta_unit_sizes(K, inputs):
    """For each (g, n): delta(g, (1, ..., 1)) = g, and delta(e, (n,)) = e
    with e the unit of arity 1, then of arity n."""
    checked, bad = 0, []
    for checked, (g, n_for_unit) in enumerate(inputs, 1):
        n = K.arity(g)
        lhs = K.delta(g, (1,) * n)
        if lhs != g:
            bad.append((lhs, g, lambda g=g, n=n: f"{K.format(g)} @ {n}; sizes (1,)*{n}"))
        lhs, rhs = K.delta(K.identity(1), (n_for_unit,)), K.identity(n_for_unit)
        if lhs != rhs:
            bad.append((lhs, rhs, lambda n=n_for_unit: f"unit @ 1; sizes ({n},)"))
    return 2 * checked, bad


def _delta_product_twist(K, inputs):
    """delta(g, k) delta(h, j) = delta(g h, j), with k the widths j moved by
    pi(h), for each (j, gs, hs), each g in gs and then each h in hs."""
    fmt, deltas, rows = K.format, K._delta, K._mul
    checked, bad = 0, []
    for jsizes, gs, hs in inputs:
        twisted = [(h, act_on_positions(K.pi(h), jsizes), K.delta(h, jsizes)) for h in hs]
        for g in gs:
            checked += len(twisted)
            dg, row = deltas[g], rows[g]
            for h, ksizes, dh in twisted:
                try:
                    lhs, rhs = rows[dg[ksizes]][dh], deltas[row[h]][jsizes]
                except KeyError:
                    lhs, rhs = K.mul(K.delta(g, ksizes), dh), K.delta(K.mul(g, h), jsizes)
                if lhs != rhs:
                    bad.append((lhs, rhs, lambda g=g, h=h, j=jsizes: (
                        f"{fmt(g)} * {fmt(h)} @ {K.arity(g)}; sizes {tuple(j)}")))
    return checked, bad


def _delta_nesting(K, inputs):
    """delta(delta(f, m), p) = delta(f, p summed within each block of m)."""
    checked, bad = 0, []
    for checked, (f, msizes, plists) in enumerate(inputs, 1):
        lhs = K.delta(K.delta(f, msizes), tuple(p for pl in plists for p in pl))
        rhs = K.delta(f, tuple(map(sum, plists)))
        if lhs != rhs:
            bad.append((lhs, rhs, lambda f=f, m=msizes, p=plists: (
                f"{K.format(f)} @ {K.arity(f)}; m {tuple(m)}; p {tuple(p)}")))
    return checked, bad


def _delta_beta_twist(K, inputs):
    """delta(g, sizes) beta(hs) = beta(hs moved by pi(g)) delta(g, sizes)."""
    checked, bad = 0, []
    for checked, (g, hs) in enumerate(inputs, 1):
        dg = K.delta(g, tuple(map(K.arity, hs)))
        lhs, rhs = K.mul(dg, K.beta(hs)), K.mul(K.beta(act_on_positions(K.pi(g), hs)), dg)
        if lhs != rhs:
            bad.append((lhs, rhs, lambda g=g, hs=hs: f"{K.format(g)} @ {K.arity(g)}; args " + ", ".join(
                f"{K.format(h)}@{K.arity(h)}" for h in hs)))
    return checked, bad


def _beta_delta_interchange(K, inputs):
    """beta(delta(g_i, m_i)) = delta(beta(gs), the m_i laid end to end)."""
    checked, bad = 0, []
    for checked, (gs, mlists) in enumerate(inputs, 1):
        lhs = K.beta([K.delta(g, ml) for g, ml in zip(gs, mlists)])
        rhs = K.delta(K.beta(gs), tuple(m for ml in mlists for m in ml))
        if lhs != rhs:
            bad.append((lhs, rhs, lambda gs=gs, mlists=mlists: "; ".join(
                f"{K.format(g)}@{K.arity(g)} sizes {tuple(ml)}" for g, ml in zip(gs, mlists))))
    return checked, bad


def _composition_interchange(K, inputs):
    """mu(g; fs) mu(g'; fps) = mu(g g'; f_pi(g')(1) f'_1, ...), each g, then f', then f of each
    (g', gs, fps choices, fs choices); what depends on g', g or f' alone is computed once."""
    fmt, mus, rows = K.format, K._mu, K._mul
    checked, bad = 0, []
    for gp, gs, fps_choices, fs_choices in inputs:
        slots = [i - 1 for i in K.pi(gp).images]
        rights = [(fps, K.mu(gp, fps), list(zip(slots, fps))) for fps in fps_choices]
        for g in gs:
            checked += len(rights) * len(fs_choices)
            ggp = K.mul(g, gp)
            mu_g, mu_ggp = mus[g], mus[ggp]
            for fps, right, legs in rights:
                for fs in fs_choices:
                    try:
                        lhs = rows[mu_g[fs]][right]
                        rhs = mu_ggp[tuple([rows[fs[s]][fp] for s, fp in legs])]
                    except KeyError:
                        lhs = K.mul(K.mu(g, fs), right)
                        rhs = K.mu(ggp, [K.mul(fs[s], fp) for s, fp in legs])
                    if lhs != rhs:
                        bad.append((lhs, rhs, lambda g=g, gp=gp, fs=fs, fps=fps: (
                            f"g {fmt(g)}, g' {fmt(gp)} @ {K.arity(g)}; "
                            + "f " + ", ".join(f"{fmt(x)}@{K.arity(x)}" for x in fs)
                            + "; f' " + ", ".join(f"{fmt(x)}@{K.arity(x)}" for x in fps))))
    return checked, bad


def _exhaustive_walks(K: _Kernel, config: AxiomCheckConfig) -> Iterator:
    """Each law on every input within ``max_total_arity``, enumerated lazily from the kernel's groups."""
    A = config.max_total_arity
    arities = range(A + 1)
    vectors = size_vectors(A, include_zero=True)
    positive = [v for v in vectors if all(v)]
    els = K.elements

    def tuples(v):
        return itertools.product(*[els(k) for k in v])

    yield "pi_homomorphism", _pi_homomorphism(K, ((g, (None, *els(n))) for n in arities for g in els(n)))
    yield "beta_homomorphism", _beta_homomorphism(K, ((tuples(v), list(tuples(v))) for v in vectors))
    yield "beta_naturality", _beta_naturality(K, (hs for v in vectors for hs in tuples(v)))
    yield "beta_unary_identity", _beta_unary_identity(K, (g for n in arities for g in els(n)))
    yield "beta_associativity", _beta_associativity(
        K, (choice for groups in nested_size_vectors(A) for choice in itertools.product(*map(tuples, groups))))
    yield "delta_naturality", _delta_naturality(K, ((g, v) for v in vectors for g in els(len(v))))
    yield "delta_unit_sizes", _delta_unit_sizes(K, ((g, n) for n in arities for g in els(n)))
    yield "delta_product_twist", _delta_product_twist(K, ((v, els(len(v)), els(len(v))) for v in positive))
    # nesting: m-vector then one positive width per strand, total capped
    yield "delta_nesting", _delta_nesting(K, (
        (f, m, _groups(p, itertools.accumulate(m)))
        for m in positive for total in range(sum(m), A + 1) for p in compositions_of(total, sum(m))
        for f in els(len(m))))
    yield "delta_beta_twist", _delta_beta_twist(
        K, ((g, hs) for v in positive for g in els(len(v)) for hs in tuples(v)))
    yield "beta_delta_interchange", _beta_delta_interchange(
        K, ((gs, groups) for groups in nested_size_vectors(A) for gs in tuples(map(len, groups))))
    # the i-th f lives at arity v[pi(g')^-1(i)]
    yield "composition_interchange", _composition_interchange(K, (
        (gp, els(len(v)), fps_choices, list(tuples(act_on_positions(K.pi(gp), v))))
        for v in positive for fps_choices in [list(tuples(v))] for gp in els(len(v))))


# whole block-size vectors a sampled check draws before it draws width by width
SIZE_DRAWS = 64


def _sampled_walks(K: _Kernel, config: AxiomCheckConfig) -> Iterator:
    """Shapes and elements drawn from one seeded stream: in a fixed order, a
    block of ``samples_per_axiom`` draws per law or pair of laws, drawn whole
    before its laws walk it.  Each drawn element is interned in the kernel."""
    stream = DeterministicStream(config.seed)
    blocks = range(config.samples_per_axiom)
    cap = config.max_result_arity

    def element(n: int) -> int:
        return K.intern(K.inst.sample(n, stream, config.max_word_length))

    def elements(v) -> tuple[int, ...]:
        return tuple(element(k) for k in v)

    def sample_sizes(parts: int, max_total: int) -> tuple[int, ...]:
        if parts > max_total:
            raise ValueError(
                f"cannot fit {parts} positive blocks under a composite-arity cap of {max_total}; "
                "lower max_total_arity or raise max_result_arity"
            )
        for _ in range(SIZE_DRAWS):
            v = tuple(1 + stream.next_int(config.max_block_size) for _ in range(parts))
            if sum(v) <= max_total:
                return v
        # whole vectors keep overshooting: draw each width within what the
        # parts still to come leave of the cap
        widths: list[int] = []
        room = max_total
        for later in range(parts - 1, -1, -1):
            widths.append(1 + stream.next_int(min(config.max_block_size, room - later)))
            room -= widths[-1]
        return tuple(widths)

    def sample_arity() -> int:
        hi = min(config.max_total_arity, cap)
        return 1 + stream.next_int(hi) if hi > 0 else 0
    pairs = []
    for _ in blocks:
        n = sample_arity()
        g = element(n)
        pairs.append((g, (element(n), None)))
    yield "pi_homomorphism", _pi_homomorphism(K, pairs)

    tuple_pairs = []
    for _ in blocks:
        v = sample_sizes(1 + stream.next_int(3), max_total=cap)
        hs = elements(v)
        tuple_pairs.append((elements(v), hs))
    yield "beta_naturality", _beta_naturality(K, [hs for _, hs in tuple_pairs])
    yield "beta_homomorphism", _beta_homomorphism(K, [([gs], [hs]) for gs, hs in tuple_pairs])

    units = []
    for _ in blocks:
        n = sample_arity()
        units.append((element(n), n))
    yield "beta_unary_identity", _beta_unary_identity(K, [g for g, _ in units])
    yield "delta_unit_sizes", _delta_unit_sizes(K, units)

    choices = []
    for _ in blocks:
        flat = sample_sizes(1 + stream.next_int(3), max_total=cap)
        cuts = [stream.next_int(2) for _ in range(len(flat) - 1)]
        choices.append(tuple(map(elements, _groups(flat, itertools.compress(itertools.count(1), (*cuts, 1))))))
    yield "beta_associativity", _beta_associativity(K, choices)

    products = []
    for _ in blocks:
        n = sample_arity()
        g = element(n)
        v = sample_sizes(n, max_total=cap)
        products.append((v, (g,), (element(n),)))
    yield "delta_naturality", _delta_naturality(K, [(g, v) for v, (g,), _ in products])
    yield "delta_product_twist", _delta_product_twist(K, products)

    nestings = []
    for _ in blocks:
        n = 1 + stream.next_int(2)
        msizes = sample_sizes(n, max_total=3)
        plists = _groups(sample_sizes(sum(msizes), max_total=cap), itertools.accumulate(msizes))
        nestings.append((element(n), msizes, plists))
    yield "delta_nesting", _delta_nesting(K, nestings)

    twists = []
    for _ in blocks:
        n = sample_arity()
        g = element(n)
        twists.append((g, elements(sample_sizes(n, max_total=cap))))
    yield "delta_beta_twist", _delta_beta_twist(K, twists)

    interchanges = []
    for _ in blocks:
        mlists, total = [], 0
        for _ in range(1 + stream.next_int(2)):
            remaining = max(1, cap - total)
            mlists.append(sample_sizes(min(1 + stream.next_int(2), remaining), max_total=remaining))
            total += sum(mlists[-1])
        interchanges.append((elements(map(len, mlists)), mlists))
    yield "beta_delta_interchange", _beta_delta_interchange(K, interchanges)

    composites = []
    for _ in blocks:
        n = 1 + stream.next_int(2)
        v = sample_sizes(n, max_total=cap)
        gp, g = element(n), element(n)
        composites.append((gp, [g], [elements(v)], [elements(act_on_positions(K.pi(gp), v))]))
    yield "composition_interchange", _composition_interchange(K, composites)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def symmetric_operad() -> SymmetricOperad:
    return SymmetricOperad()


@lru_cache(maxsize=None)
def trivial_operad() -> TrivialOperad:
    return TrivialOperad()


def get_operad(name: str) -> ActionOperad:
    """Look up a built-in instance by CLI name."""
    from . import braid, cactus  # local import to avoid a cycle

    table = {
        "sym": symmetric_operad,
        "trivial": trivial_operad,
        "braid": braid.braid_operad,
        "cactus": cactus.cactus_operad,
    }
    if name not in table:
        raise ValueError(f"unknown operad {name!r}; choose from {sorted(table)}")
    return table[name]()
