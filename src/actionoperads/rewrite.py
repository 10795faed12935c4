"""
Words over an indexed generator alphabet and a bounded-search equality
oracle for finitely presented group families.

A letter is a pair ``(gen, sign)`` with ``sign`` +1 or -1; generators
declared involutive never carry sign -1 (their inverses are rewritten
away, and adjacent equal involutive letters cancel during free
reduction).  Words are kept freely reduced at all times.

Equality is a *semidecision* procedure, not a normal form.  ``equal``
runs a bidirectional breadth-first search over single-relation rewrites
(a relation may be applied in either orientation at any position,
followed by free reduction), bounded by a maximum word length and a
state budget.  The three possible outcomes are:

- ``equal`` -- the two search frontiers met; the result carries a
  replayable path that :func:`replay_path` re-validates step by step;
- ``distinct`` -- some declared invariant separates the words (sound as
  long as every invariant is constant on each relation pair, which
  :func:`validate_invariants` checks);
- ``inconclusive`` -- the search stopped undecided, either because the
  state budget ran out or because the frontier emptied (no rewrite within
  the length bound reaches a new word); never coerced to a verdict.

Orientations whose left side is empty are skipped during search: they
splice a relator next to nothing and free reduction undoes them
immediately, so they can never produce a new state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

Letter = tuple[Hashable, int]
Letters = tuple[Letter, ...]


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word at a fixed arity."""

    n: int
    letters: Letters

    def __len__(self) -> int:
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters


@dataclass(frozen=True)
class RelationSystem:
    """Relations and refutation invariants for one group of a family.

    ``relations`` holds unoriented pairs of reduced letter tuples; the
    search applies both directions.  ``involutive`` lists generator ids g
    with g*g = e.  ``invariants`` are named evaluators on words, constant
    on every relation pair, used to refute equality quickly.
    """

    name: str
    n: int
    generators: tuple[Hashable, ...]
    relations: tuple[tuple[Letters, Letters], ...]
    involutive: frozenset = frozenset()
    invariants: tuple[tuple[str, Callable[[Word], Hashable]], ...] = ()

    def word(self, letters: Sequence[Letter]) -> Word:
        for gen, sign in letters:
            if gen not in self.generators:
                raise ValueError(f"unknown generator {gen!r} at arity {self.n}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
            if sign == -1 and gen in self.involutive:
                raise ValueError(f"involutive generator {gen!r} cannot carry sign -1")
        return Word(self.n, free_reduce(tuple(letters), self.involutive))

    @cached_property
    def search_tables(self) -> _SearchTables:
        """The interned form the search reads, built on the first search
        and freed with the system."""
        return _SearchTables(self)


def free_reduce(letters: Letters, involutive: frozenset) -> Letters:
    """Cancel adjacent inverse pairs (and involutive squares) everywhere.

    >>> free_reduce((("a", 1), ("a", -1), ("b", 1)), frozenset())
    (('b', 1),)
    >>> free_reduce((("s", 1), ("s", 1)), frozenset({"s"}))
    ()
    """
    stack: list[Letter] = []
    for letter in letters:
        if stack:
            gen, sign = letter
            pgen, psign = stack[-1]
            if pgen == gen and (psign == -sign or (gen in involutive and psign == sign == 1)):
                stack.pop()
                continue
        stack.append(letter)
    return tuple(stack)


def invert_letters(letters: Letters, involutive: frozenset) -> Letters:
    """Reverse a word, flipping signs of non-involutive letters."""
    out: list[Letter] = []
    for gen, sign in reversed(letters):
        out.append((gen, sign) if gen in involutive else (gen, -sign))
    return tuple(out)


@dataclass(frozen=True)
class Step:
    """One rewrite: relation ``rel`` applied at ``pos`` in orientation
    ``orient`` (0: lhs->rhs, 1: rhs->lhs), then free reduction, yielding
    ``result``."""

    rel: int
    orient: int
    pos: int
    result: Letters


@dataclass(frozen=True)
class RewritePath:
    """Evidence for an equality: two rewrite chains meeting at ``meet``.

    ``forward`` starts from the first word, ``backward`` from the second;
    both end at ``meet``.
    """

    meet: Letters
    forward: tuple[Step, ...]
    backward: tuple[Step, ...]


@dataclass(frozen=True)
class EqResult:
    verdict: str  # "equal" | "distinct" | "inconclusive"
    states: int = 0
    separating: str | None = None
    path: RewritePath | None = None

    @property
    def is_equal(self) -> bool:
        return self.verdict == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.verdict == "distinct"

    @property
    def is_inconclusive(self) -> bool:
        return self.verdict == "inconclusive"


DEFAULT_EXTRA_LEN = 6
DEFAULT_BUDGET = 100_000


class _SearchTables:
    """Interned form of a relation system for the inner search loop.

    Letters become small integers; each oriented relation with a
    nonempty left side is indexed by its first interned letter (empty
    left sides are skipped: splicing a relator next to nothing is undone
    by the immediate free reduction).  Free reduction over interned
    letters uses a cancellation table.
    """

    def __init__(self, sys: RelationSystem):
        self.letter_to_code: dict[Letter, int] = {}
        self.code_to_letter: list[Letter] = []
        for gen in sys.generators:
            signs = (1,) if gen in sys.involutive else (1, -1)
            for sign in signs:
                self.letter_to_code[(gen, sign)] = len(self.code_to_letter)
                self.code_to_letter.append((gen, sign))
        cancels = []
        for gen, sign in self.code_to_letter:
            if gen in sys.involutive:
                cancels.append(self.letter_to_code[(gen, sign)])
            else:
                cancels.append(self.letter_to_code[(gen, -sign)])
        self.cancels = tuple(cancels)
        self.index: dict[int, list[tuple[tuple[int, ...], tuple[int, ...], int, int]]] = {}
        for ridx, (lhs, rhs) in enumerate(sys.relations):
            key = (self.encode(lhs), self.encode(rhs))
            for orient, (a, b) in enumerate((key, key[::-1])):
                if a:
                    self.index.setdefault(a[0], []).append((a, b, ridx, orient))

    def encode(self, letters: Letters) -> tuple[int, ...]:
        return tuple(self.letter_to_code[l] for l in letters)

    def decode(self, codes: tuple[int, ...]) -> Letters:
        return tuple(self.code_to_letter[c] for c in codes)

    def reduce(self, codes) -> tuple[int, ...]:
        cancels = self.cancels
        stack: list[int] = []
        for c in codes:
            if stack and stack[-1] == cancels[c]:
                stack.pop()
            else:
                stack.append(c)
        return tuple(stack)


def equal(
    w1: Word,
    w2: Word,
    sys: RelationSystem,
    max_len: int | None = None,
    budget: int | None = None,
) -> EqResult:
    """Decide (semidecide) whether two words represent the same element.

    Returns ``equal`` only when a rewrite path exists (and attaches it),
    ``distinct`` only when a declared invariant separates the inputs.
    Identical inputs cost zero states.
    """
    if w1.n != w2.n or w1.n != sys.n:
        raise ValueError(f"arity mismatch: words at {w1.n}/{w2.n}, system at {sys.n}")
    start_letters = free_reduce(w1.letters, sys.involutive)
    goal_letters = free_reduce(w2.letters, sys.involutive)
    if start_letters == goal_letters:
        return EqResult("equal", states=0, path=RewritePath(start_letters, (), ()))
    for name, evaluate in sys.invariants:
        if evaluate(Word(sys.n, start_letters)) != evaluate(Word(sys.n, goal_letters)):
            return EqResult("distinct", states=0, separating=name)
    if max_len is None:
        max_len = max(len(start_letters), len(goal_letters)) + DEFAULT_EXTRA_LEN
    if budget is None:
        budget = DEFAULT_BUDGET

    tab = sys.search_tables
    index = tab.index
    reduce_codes = tab.reduce
    start = tab.encode(start_letters)
    goal = tab.encode(goal_letters)

    # parent maps: state -> (previous state, rel, orient, pos); roots -> None
    seen: tuple[dict, dict] = ({start: None}, {goal: None})
    queues = (deque([start]), deque([goal]))
    expanded = 0

    def build_path(meet) -> RewritePath:
        chains: list[list[Step]] = [[], []]
        for s in (0, 1):
            node = meet
            while seen[s][node] is not None:
                parent, ridx, orient, pos = seen[s][node]
                chains[s].append(Step(ridx, orient, pos, tab.decode(node)))
                node = parent
        return RewritePath(
            tab.decode(meet), tuple(reversed(chains[0])), tuple(reversed(chains[1]))
        )

    while (queues[0] or queues[1]) and expanded < budget:
        side = 0 if queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1])) else 1
        mine, other = seen[side], seen[1 - side]
        queue = queues[side]
        state = queue.popleft()
        expanded += 1
        ln = len(state)
        for pos in range(ln):
            bucket = index.get(state[pos])
            if not bucket:
                continue
            for a, b, ridx, orient in bucket:
                la = len(a)
                if state[pos : pos + la] != a:
                    continue
                nxt = reduce_codes(state[:pos] + b + state[pos + la :])
                if nxt == state or len(nxt) > max_len or nxt in mine:
                    continue
                mine[nxt] = (state, ridx, orient, pos)
                if nxt in other:
                    return EqResult("equal", states=expanded, path=build_path(nxt))
                queue.append(nxt)
    return EqResult("inconclusive", states=expanded)


def replay_path(sys: RelationSystem, w1: Word, w2: Word, path: RewritePath) -> bool:
    """Re-validate an equality path step by step.

    Each step must be the recorded relation applied at the recorded
    position in the recorded orientation, followed by free reduction, and
    both chains must end at the meet word.
    """
    involutive = sys.involutive

    def run(start: Letters, steps: Sequence[Step]) -> Letters | None:
        state = free_reduce(start, involutive)
        for step in steps:
            if not 0 <= step.rel < len(sys.relations):
                return None
            lhs, rhs = sys.relations[step.rel]
            a, b = (lhs, rhs) if step.orient == 0 else (rhs, lhs)
            if state[step.pos : step.pos + len(a)] != a:
                return None
            state = free_reduce(state[: step.pos] + b + state[step.pos + len(a) :], involutive)
            if state != step.result:
                return None
        return state

    left = run(w1.letters, path.forward)
    right = run(w2.letters, path.backward)
    return left is not None and right is not None and left == right == path.meet


def validate_invariants(sys: RelationSystem, context_words: Sequence[Word] = ()) -> list[str]:
    """Check that every declared invariant is sound for ``sys``.

    Each evaluator must be constant on every relation pair, both bare and
    inside each supplied context (``x * side * y``).  Returns a list of
    human-readable violations; empty means sound.
    """
    problems: list[str] = []
    contexts: list[tuple[Letters, Letters]] = [((), ())]
    for w in context_words:
        contexts.append((w.letters, ()))
        contexts.append(((), w.letters))
        contexts.append((w.letters, w.letters))
    for ridx, (lhs, rhs) in enumerate(sys.relations):
        for name, evaluate in sys.invariants:
            for before, after in contexts:
                a = Word(sys.n, free_reduce(before + lhs + after, sys.involutive))
                b = Word(sys.n, free_reduce(before + rhs + after, sys.involutive))
                if evaluate(a) != evaluate(b):
                    problems.append(
                        f"invariant {name!r} not constant on relation {ridx} in context "
                        f"({len(before)} letter(s) before, {len(after)} after)"
                    )
    return problems
