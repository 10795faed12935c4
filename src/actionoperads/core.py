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
from typing import Iterator, Sequence

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
)
from .rewrite import EqResult, RelationSystem, RewritePath, Word


@dataclass(frozen=True, slots=True)
class OperadElement:
    """A tagged element of one arity group of one instance.

    ``payload`` is a :class:`Perm` for the symmetric instance, ``None``
    for the trivial instance, and a :class:`Word` for word-backed
    instances (braid, cactus).
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


class ActionOperad:
    """Operation table of one action operad instance.

    Subclasses provide the group structure per arity plus ``pi``,
    ``beta`` and the per-generator ``delta``; everything else (``mu``,
    the word extension of ``delta``, sampling) is shared.
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

    def arity(self, a: OperadElement) -> int:
        return a.n

    # -- operad structure -------------------------------------------------
    def beta(self, els: Sequence[OperadElement]) -> OperadElement:
        raise NotImplementedError

    def delta(self, a: OperadElement, sizes: Sequence[int]) -> OperadElement:
        raise NotImplementedError

    def mu(self, g: OperadElement, hs: Sequence[OperadElement]) -> OperadElement:
        """Operadic composition: block diagonal of the head times the
        block sum of the arguments."""
        self.check_element(g)
        for h in hs:
            self.check_element(h)
        if g.n != len(hs):
            raise ValueError(f"arity mismatch: head of arity {g.n} applied to {len(hs)} argument(s)")
        sizes = [h.n for h in hs]
        return self.mul(self.delta(g, sizes), self.beta(hs))

    # -- oracle / enumeration ----------------------------------------------
    def equal(self, a: OperadElement, b: OperadElement, max_len=None, budget=None) -> EqResult:
        raise NotImplementedError

    def elements(self, n: int) -> tuple[OperadElement, ...] | None:
        """All elements at arity ``n``, or ``None`` when unavailable."""
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
        return OperadElement(self.name, p.n, p)

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

    def equal(self, a, b, max_len=None, budget=None) -> EqResult:
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            return EqResult("distinct", separating="arity", stop="invariant")
        if a.payload == b.payload:
            return EqResult("equal", path=RewritePath((), (), ()), stop="met")
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


class TrivialOperad(ActionOperad):
    """One-element groups at every arity; everything is an identity."""

    name = "trivial"

    def identity(self, n):
        return OperadElement(self.name, n, None)

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            raise ValueError(f"arity mismatch multiplying at {a.n} and {b.n}")
        return a

    def inv(self, a):
        self.check_element(a)
        return a

    def pi(self, a):
        self.check_element(a)
        return identity(a.n)

    def beta(self, els):
        for e in els:
            self.check_element(e)
        return self.identity(sum(e.n for e in els))

    def delta(self, a, sizes):
        self.check_element(a)
        if a.n != len(sizes):
            raise ValueError(f"arity mismatch: delta of arity {a.n} with {len(sizes)} size(s)")
        return self.identity(sum(sizes))

    def equal(self, a, b, max_len=None, budget=None):
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            return EqResult("distinct", separating="arity", stop="invariant")
        return EqResult("equal", path=RewritePath((), (), ()), stop="met")

    def elements(self, n):
        return (self.identity(n),)

    def generator_word(self, a):
        self.check_element(a)
        return ()

    def parse(self, text, n):
        if text.strip() != "e":
            raise ValueError(f"the trivial instance only has the element 'e', got {text!r}")
        return self.identity(n)

    def format(self, a):
        return "e"


class WordOperad(ActionOperad):
    """Shared machinery for instances whose elements are generator words.

    Subclasses supply the alphabet per arity, the relation system, the
    per-generator underlying permutation, the per-generator block
    diagonal, and the letter shift used by the block sum.
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
        """The block diagonal of one positive generator, as letters."""
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
        gens = self.arity_generators(n)
        return RelationSystem(f"{self.name}_{n}", n, gens, (), frozenset(gens if self.involutive else ()))

    def _wrap(self, n: int, letters) -> OperadElement:
        return OperadElement(self.name, n, self.alphabet(n).word(letters))

    def identity(self, n):
        return self._wrap(n, ())

    def from_letters(self, n: int, letters) -> OperadElement:
        return self._wrap(n, letters)

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            raise ValueError(f"arity mismatch multiplying at {a.n} and {b.n}")
        return self._wrap(a.n, a.payload.letters + b.payload.letters)

    def inv(self, a):
        self.check_element(a)
        return self._wrap(a.n, rewrite.invert_letters(a.payload.letters, self.alphabet(a.n).involutive))

    def pi(self, a):
        self.check_element(a)
        out = identity(a.n)
        for gen, sign in a.payload.letters:
            p = self.letter_pi(gen, a.n)
            if sign == -1:
                p = inverse(p)
            out = compose(out, p)
        return out

    def pi_images(self, word: Word) -> tuple[int, ...]:
        """``pi`` of a bare word, as images: the relation systems'
        refutation invariant."""
        return self.pi(OperadElement(self.name, word.n, word)).images

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
        return self._wrap(total, letters)

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
            p = self.letter_pi(gen, n)
            if sign == 1:
                factors.append(self.delta_letters(gen, n, sizes))
            else:
                ksizes = tuple(sizes[p.images[i] - 1] for i in range(n))
                factors.append(rewrite.invert_letters(self.delta_letters(gen, n, ksizes), involutive))
                p = inverse(p)
            sizes = act_on_positions(p, sizes)
        return self._wrap(total, [letter for f in reversed(factors) for letter in f])

    def equal(self, a, b, max_len=None, budget=None):
        self.check_element(a)
        self.check_element(b)
        if a.n != b.n:
            return EqResult("distinct", separating="arity", stop="invariant")
        return rewrite.equal(a.payload, b.payload, self.relation_system(a.n), max_len, budget)

    def generators(self, n):
        return tuple(
            (self.format_letter(gen, 1), self._wrap(n, ((gen, 1),)))
            for gen in self.arity_generators(n)
        )

    def generator_word(self, a):
        self.check_element(a)
        return tuple((self.format_letter(gen, 1), sign) for gen, sign in a.payload.letters)

    def format(self, a):
        self.check_element(a)
        if not a.payload.letters:
            return "e"
        return " ".join(self.format_letter(gen, sign) for gen, sign in a.payload.letters)


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
    """Bounds for one axiom-checking run.

    In exhaustive mode every tuple whose composite arity stays within
    ``max_total_arity`` is enumerated (size-vector entries >= 1, plus a
    fixed handful of vectors containing zero-width blocks).  In sampled
    mode, shapes and elements come from a seeded deterministic stream,
    with word lengths bounded by ``max_word_length``, block sizes by
    ``max_block_size`` and composite arities by ``max_result_arity``.
    """

    max_total_arity: int = 5
    exhaustive: bool | None = None
    samples_per_axiom: int = 24
    max_word_length: int = 2
    max_block_size: int = 2
    max_result_arity: int = 6
    seed: int = 2026
    max_len: int | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.max_total_arity < 0:
            raise ValueError(f"max_total_arity must be >= 0, got {self.max_total_arity}")


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
        for out in self.outcomes.values():
            if out.failures:
                return False
            if strict and out.inconclusive:
                return False
        return True

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
    for flat in size_vectors(max_total, include_zero=False):
        if not flat:
            continue
        # choose cut points: each subset of positions 1..m-1
        for cuts in itertools.product((False, True), repeat=len(flat) - 1):
            out.append(_cut(flat, cuts))
    return out


def _cut(flat: Sequence, cuts: Sequence) -> tuple:
    """``flat`` in consecutive groups, a new group starting at each
    position i (1-based) with ``cuts[i - 1]`` set."""
    bounds = [0, *(i for i, cut in enumerate(cuts, start=1) if cut), len(flat)]
    return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))


class _CaseSource:
    """Shapes and elements for sampled mode, drawn from one seeded stream."""

    def __init__(self, inst: ActionOperad, config: AxiomCheckConfig):
        self.inst = inst
        self.config = config
        self.stream = DeterministicStream(config.seed)

    def sample_element(self, n: int) -> OperadElement:
        return self.inst.sample(n, self.stream, self.config.max_word_length)

    def sample_sizes(self, parts: int, max_total: int) -> tuple[int, ...]:
        cap = self.config.max_block_size
        if parts > max_total:
            raise ValueError(
                f"cannot fit {parts} positive blocks under a composite-arity cap of {max_total}; "
                "lower max_total_arity or raise max_result_arity"
            )
        while True:
            v = tuple(1 + self.stream.next_int(cap) for _ in range(parts))
            if sum(v) <= max_total:
                return v

    def sample_arity(self) -> int:
        hi = min(self.config.max_total_arity, self.config.max_result_arity)
        return 1 + self.stream.next_int(max(1, hi))


_SAME = EqResult("equal", path=RewritePath((), (), ()), stop="met")


class _Kernel:
    """An instance's finite groups with elements interned as integers.

    Elements at arities ``0..max_arity`` are numbered by
    :meth:`OperadElement.key`; ``mul``, ``inv`` and ``pi`` are per-element
    tables and ``beta``, ``delta`` and ``mu`` are memoised on index
    tuples.  Every entry is computed once, by the instance's own method on
    the materialised elements, so an overridden or defective method is
    what gets checked.  A result whose key was not enumerated (a wrong
    arity, a word not in reduced form) gets a fresh index.

    The kernel answers the same calls as an instance, on indices, so the
    axiom cases are written once for both modes.  Equal indices are equal
    keys and compare equal without the oracle; different indices go to
    the instance's oracle.  A kernel lives for one ``check_axioms`` call.
    """

    def __init__(self, inst: ActionOperad, max_arity: int):
        self.inst = inst
        self.els: list[OperadElement] = []
        self._index: dict[object, int] = {}
        self._mul: list[dict[int, int]] = []  # row a: b -> a*b
        self._inv: list[int | None] = []
        self._pi: list[Perm | None] = []
        self._units: dict[int, int] = {}
        self._memo: dict[tuple, int] = {}  # beta, delta and mu, keyed by op name
        self._enumerated = []
        for n in range(max_arity + 1):
            els = inst.elements(n)
            if els is None:
                raise ValueError(f"instance {inst.name!r} has no enumeration at arity {n}")
            self._enumerated.append(tuple(self._intern(e) for e in els))

    def _intern(self, el: OperadElement) -> int:
        key = el.key()
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.els)
            self.els.append(el)
            self._mul.append({})
            self._inv.append(None)
            self._pi.append(None)
        return i

    def elements(self, n: int) -> tuple[int, ...]:
        return self._enumerated[n]

    def arity(self, a: int) -> int:
        return self.els[a].n

    def identity(self, n: int) -> int:
        i = self._units.get(n)
        if i is None:
            i = self._units[n] = self._intern(self.inst.identity(n))
        return i

    def mul(self, a: int, b: int) -> int:
        row = self._mul[a]
        r = row.get(b)
        if r is None:
            r = row[b] = self._intern(self.inst.mul(self.els[a], self.els[b]))
        return r

    def inv(self, a: int) -> int:
        r = self._inv[a]
        if r is None:
            r = self._inv[a] = self._intern(self.inst.inv(self.els[a]))
        return r

    def pi(self, a: int) -> Perm:
        p = self._pi[a]
        if p is None:
            p = self._pi[a] = self.inst.pi(self.els[a])
        return p

    def beta(self, xs: Sequence[int]) -> int:
        key = ("beta", tuple(xs))
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._intern(self.inst.beta([self.els[x] for x in xs]))
        return r

    def delta(self, a: int, sizes: Sequence[int]) -> int:
        key = ("delta", a, tuple(sizes))
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._intern(self.inst.delta(self.els[a], sizes))
        return r

    def mu(self, g: int, hs: Sequence[int]) -> int:
        key = ("mu", g, tuple(hs))
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._intern(self.inst.mu(self.els[g], [self.els[h] for h in hs]))
        return r

    def equal(self, a: int, b: int, max_len=None, budget=None) -> EqResult:
        if a == b:
            return _SAME
        return self.inst.equal(self.els[a], self.els[b], max_len=max_len, budget=budget)

    def format(self, a: int) -> str:
        return self.inst.format(self.els[a])


def check_axioms(inst: ActionOperad, config: AxiomCheckConfig | None = None) -> AxiomReport:
    """Verify the structural laws of an instance on many input tuples.

    Exhaustive when the instance enumerates its groups at the configured
    arities (then the run is a proof by enumeration at that scale, on
    interned elements), sampled deterministically otherwise.
    """
    config = config or AxiomCheckConfig()
    exhaustive = config.exhaustive
    if exhaustive is None:
        exhaustive = inst.elements(config.max_total_arity) is not None
    if exhaustive:
        carrier = _Kernel(inst, config.max_total_arity)
        cases = _exhaustive_cases(carrier, config)
    else:
        carrier = inst
        cases = _sampled_cases(inst, _CaseSource(inst, config), config)

    outcomes = {name: CheckOutcome() for name in AXIOM_NAMES}
    for kind, name, (lhs, rhs, inputs) in cases:
        out = outcomes[name]
        out.checked += 1
        if kind == "pair":
            res = carrier.equal(lhs, rhs, max_len=config.max_len, budget=config.budget)
            if res.is_equal:
                continue
            if res.is_inconclusive:
                out.inconclusive += 1
                continue
            shown = carrier.format(lhs), carrier.format(rhs)
        elif lhs == rhs:
            continue
        else:
            shown = format_perm(lhs), format_perm(rhs)
        rendered = inputs() if callable(inputs) else inputs
        out.failures.append(Failure(name, rendered, *shown))

    return AxiomReport(inst.name, "exhaustive" if exhaustive else "sampled", outcomes)


# Each case states one law once, against a carrier: the instance itself
# on elements (sampled mode) or its ``_Kernel`` on indices (exhaustive).


def _case_pi_mul(C, g, h):
    lhs = C.pi(C.mul(g, h))
    rhs = compose(C.pi(g), C.pi(h))
    yield ("perm", "pi_homomorphism",
           (lhs, rhs, lambda: f"mul: {C.format(g)} * {C.format(h)} @ {C.arity(g)}"))


def _case_pi_inv_unit(C, g):
    n = C.arity(g)
    yield (
        "perm",
        "pi_homomorphism",
        (C.pi(C.inv(g)), inverse(C.pi(g)), lambda: f"inv: {C.format(g)} @ {n}"),
    )
    yield ("perm", "pi_homomorphism", (C.pi(C.identity(n)), identity(n), f"unit @ {n}"))


def _case_beta_homomorphism(C, gs, hs):
    lhs = C.mul(C.beta(gs), C.beta(hs))
    rhs = C.beta([C.mul(g, h) for g, h in zip(gs, hs)])

    def inputs():
        return (
            "beta(" + ", ".join(C.format(g) for g in gs) + ") * beta("
            + ", ".join(C.format(h) for h in hs)
            + f") at arities {tuple(C.arity(g) for g in gs)}"
        )

    yield ("pair", "beta_homomorphism", (lhs, rhs, inputs))


def _case_beta_naturality(C, hs):
    lhs = C.pi(C.beta(hs))
    rhs = block_sum([C.pi(h) for h in hs])

    def inputs():
        return "beta(" + ", ".join(C.format(h) for h in hs) + f") at arities {tuple(C.arity(h) for h in hs)}"

    yield ("perm", "beta_naturality", (lhs, rhs, inputs))


def _case_beta_unary(C, g):
    yield ("pair", "beta_unary_identity", (C.beta([g]), g, lambda: f"{C.format(g)} @ {C.arity(g)}"))


def _case_beta_assoc(C, groups):
    flat = [e for grp in groups for e in grp]
    lhs = C.beta(flat)
    rhs = C.beta([C.beta(list(grp)) for grp in groups])
    yield ("pair", "beta_associativity",
           (lhs, rhs, lambda: "groups " + str(tuple(tuple(C.arity(e) for e in grp) for grp in groups))))


def _case_delta_naturality(C, g, sizes):
    lhs = C.pi(C.delta(g, sizes))
    rhs = block_perm(C.pi(g), sizes)
    yield ("perm", "delta_naturality", (lhs, rhs, lambda: f"{C.format(g)} @ {C.arity(g)}; sizes {sizes}"))


def _case_delta_units(C, g, n_for_unit):
    n = C.arity(g)
    yield (
        "pair",
        "delta_unit_sizes",
        (C.delta(g, (1,) * n), g, lambda: f"{C.format(g)} @ {n}; sizes (1,)*{n}"),
    )
    yield (
        "pair",
        "delta_unit_sizes",
        (
            C.delta(C.identity(1), (n_for_unit,)),
            C.identity(n_for_unit),
            f"unit @ 1; sizes ({n_for_unit},)",
        ),
    )


def _case_delta_product(C, g, h, jsizes):
    ksizes = act_on_positions(C.pi(h), jsizes)
    lhs = C.mul(C.delta(g, ksizes), C.delta(h, jsizes))
    rhs = C.delta(C.mul(g, h), jsizes)
    yield ("pair", "delta_product_twist",
           (lhs, rhs, lambda: f"{C.format(g)} * {C.format(h)} @ {C.arity(g)}; sizes {tuple(jsizes)}"))


def _case_delta_nesting(C, f, msizes, plists):
    flat = tuple(p for pl in plists for p in pl)
    inner = C.delta(f, msizes)
    lhs = C.delta(inner, flat)
    totals = tuple(sum(pl) for pl in plists)
    rhs = C.delta(f, totals)
    yield ("pair", "delta_nesting",
           (lhs, rhs, lambda: f"{C.format(f)} @ {C.arity(f)}; m {tuple(msizes)}; p {tuple(plists)}"))


def _case_delta_beta_twist(C, g, hs):
    sizes = tuple(C.arity(h) for h in hs)
    dg = C.delta(g, sizes)
    lhs = C.mul(dg, C.beta(hs))
    rhs = C.mul(C.beta(act_on_positions(C.pi(g), hs)), dg)

    def inputs():
        return f"{C.format(g)} @ {C.arity(g)}; args " + ", ".join(
            f"{C.format(h)}@{C.arity(h)}" for h in hs
        )

    yield ("pair", "delta_beta_twist", (lhs, rhs, inputs))


def _case_beta_delta_interchange(C, gs, mlists):
    lhs = C.beta([C.delta(g, ml) for g, ml in zip(gs, mlists)])
    flat = tuple(m for ml in mlists for m in ml)
    rhs = C.delta(C.beta(gs), flat)

    def inputs():
        return "; ".join(f"{C.format(g)}@{C.arity(g)} sizes {tuple(ml)}" for g, ml in zip(gs, mlists))

    yield ("pair", "beta_delta_interchange", (lhs, rhs, inputs))


def _case_interchange(C, g, fs, gp, fps):
    lhs = C.mul(C.mu(g, fs), C.mu(gp, fps))
    pgp = C.pi(gp)
    mid = [C.mul(fs[pgp.images[i] - 1], fps[i]) for i in range(len(fps))]
    rhs = C.mu(C.mul(g, gp), mid)

    def inputs():
        return (
            f"g {C.format(g)}, g' {C.format(gp)} @ {C.arity(g)}; "
            + "f " + ", ".join(f"{C.format(x)}@{C.arity(x)}" for x in fs)
            + "; f' " + ", ".join(f"{C.format(x)}@{C.arity(x)}" for x in fps)
        )

    yield ("pair", "composition_interchange", (lhs, rhs, inputs))


def _exhaustive_cases(K: _Kernel, config: AxiomCheckConfig) -> Iterator:
    A = config.max_total_arity
    vectors = size_vectors(A, include_zero=True)
    positive_vectors = [v for v in vectors if all(k >= 1 for k in v)]
    els = K.elements

    # pi homomorphism on all pairs per arity; inverses and units per element
    for n in range(0, A + 1):
        for g in els(n):
            yield from _case_pi_inv_unit(K, g)
            for h in els(n):
                yield from _case_pi_mul(K, g, h)

    for v in vectors:
        tuple_space = [els(k) for k in v]
        for hs in itertools.product(*tuple_space):
            yield from _case_beta_naturality(K, hs)
        for gs in itertools.product(*tuple_space):
            for hs in itertools.product(*tuple_space):
                yield from _case_beta_homomorphism(K, gs, hs)

    for n in range(0, A + 1):
        for g in els(n):
            yield from _case_beta_unary(K, g)
            yield from _case_delta_units(K, g, n)

    for groups in nested_size_vectors(A):
        spaces = [[els(k) for k in grp] for grp in groups]
        for flat_choice in itertools.product(*(itertools.product(*sp) for sp in spaces)):
            yield from _case_beta_assoc(K, flat_choice)

    for v in vectors:
        n = len(v)
        for g in els(n):
            yield from _case_delta_naturality(K, g, v)

    for v in positive_vectors:
        n = len(v)
        for g in els(n):
            for h in els(n):
                yield from _case_delta_product(K, g, h, v)

    # nesting: m-vector then one positive width per strand, total capped
    for msizes in positive_vectors:
        M = sum(msizes)
        for ptotal in range(M, A + 1):
            for flat_p in compositions_of(ptotal, M):
                plists = _split(flat_p, msizes)
                for f in els(len(msizes)):
                    yield from _case_delta_nesting(K, f, msizes, plists)

    for v in positive_vectors:
        n = len(v)
        for g in els(n):
            for hs in itertools.product(*[els(k) for k in v]):
                yield from _case_delta_beta_twist(K, g, hs)

    for groups in nested_size_vectors(A):
        ks = tuple(len(grp) for grp in groups)
        for gs in itertools.product(*[els(k) for k in ks]):
            yield from _case_beta_delta_interchange(K, gs, groups)

    for v in positive_vectors:
        n = len(v)
        for gp in els(n):
            pgp_inv = inverse(K.pi(gp))
            f_arities = tuple(v[pgp_inv.images[i] - 1] for i in range(n))
            for g in els(n):
                for fps in itertools.product(*[els(k) for k in v]):
                    for fs in itertools.product(*[els(k) for k in f_arities]):
                        yield from _case_interchange(K, g, fs, gp, fps)


def _split(flat: Sequence, group_lens: Sequence[int]) -> tuple:
    groups = []
    idx = 0
    for ln in group_lens:
        groups.append(flat[idx : idx + ln])
        idx += ln
    return tuple(groups)


def _sampled_cases(inst, source: _CaseSource, config: AxiomCheckConfig) -> Iterator:
    N = config.samples_per_axiom
    cap = config.max_result_arity

    def arity_vector(parts_lo=1):
        parts = parts_lo + source.stream.next_int(3)
        return source.sample_sizes(parts, max_total=cap)

    for _ in range(N):
        n = source.sample_arity()
        g = source.sample_element(n)
        h = source.sample_element(n)
        yield from _case_pi_mul(inst, g, h)
        yield from _case_pi_inv_unit(inst, g)

    for _ in range(N):
        v = arity_vector()
        hs = [source.sample_element(k) for k in v]
        gs = [source.sample_element(k) for k in v]
        yield from _case_beta_naturality(inst, hs)
        yield from _case_beta_homomorphism(inst, gs, hs)

    for _ in range(N):
        n = source.sample_arity()
        g = source.sample_element(n)
        yield from _case_beta_unary(inst, g)
        yield from _case_delta_units(inst, g, n)

    for _ in range(N):
        flat = arity_vector()
        cuts = [source.stream.next_int(2) for _ in range(len(flat) - 1)]
        flat_els = [[source.sample_element(k) for k in grp] for grp in _cut(flat, cuts)]
        yield from _case_beta_assoc(inst, flat_els)

    for _ in range(N):
        n = source.sample_arity()
        g = source.sample_element(n)
        v = source.sample_sizes(n, max_total=cap)
        yield from _case_delta_naturality(inst, g, v)
        h = source.sample_element(n)
        yield from _case_delta_product(inst, g, h, v)

    for _ in range(N):
        n = 1 + source.stream.next_int(2)
        msizes = source.sample_sizes(n, max_total=3)
        M = sum(msizes)
        plists = _split(source.sample_sizes(M, max_total=cap), msizes)
        f = source.sample_element(n)
        yield from _case_delta_nesting(inst, f, msizes, plists)

    for _ in range(N):
        n = source.sample_arity()
        g = source.sample_element(n)
        v = source.sample_sizes(n, max_total=cap)
        hs = [source.sample_element(k) for k in v]
        yield from _case_delta_beta_twist(inst, g, hs)

    for _ in range(N):
        parts = 1 + source.stream.next_int(2)
        mlists = []
        total = 0
        for _ in range(parts):
            remaining = max(1, cap - total)
            ln = min(1 + source.stream.next_int(2), remaining)
            ml = source.sample_sizes(ln, max_total=remaining)
            total += sum(ml)
            mlists.append(ml)
        gs = [source.sample_element(len(ml)) for ml in mlists]
        yield from _case_beta_delta_interchange(inst, gs, mlists)

    for _ in range(N):
        n = 1 + source.stream.next_int(2)
        v = source.sample_sizes(n, max_total=cap)
        gp = source.sample_element(n)
        g = source.sample_element(n)
        pgp_inv = inverse(inst.pi(gp))
        f_arities = tuple(v[pgp_inv.images[i] - 1] for i in range(n))
        fps = [source.sample_element(k) for k in v]
        fs = [source.sample_element(k) for k in f_arities]
        yield from _case_interchange(inst, g, fs, gp, fps)


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
