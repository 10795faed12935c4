"""
Words over an indexed generator alphabet and a bounded-search equality
oracle for finitely presented group families.

A letter is a pair ``(gen, sign)`` with ``sign`` +1 or -1; generators
declared involutive never carry sign -1 (their inverses are rewritten
away, and adjacent equal involutive letters cancel during free
reduction).  Words are kept freely reduced at all times.

Equality is a *semidecision* procedure, not a normal form.  ``equal``
runs a bidirectional breadth-first search whose states are commutation
classes of words, bounded by a state budget alone.  The three possible
outcomes are:

- ``equal`` -- the two search frontiers met; the result carries a
  replayable path that :func:`replay_path` re-validates step by step
  (its JSON document is ``dataclasses.asdict`` of the path, read back by
  :func:`path_from_dict`);
- ``distinct`` -- some declared invariant separates the words (sound as
  long as every invariant is constant on each relation pair, which
  :func:`validate_invariants` checks);
- ``inconclusive`` -- the search stopped undecided, either because the
  state budget ran out or because the frontier emptied (no rewrite
  reaches a new class); never coerced to a verdict.

``EqResult.stop`` says which way the search ended: ``met`` (the frontiers
met, or the inputs were identical), ``invariant``, ``budget`` or
``space_exhausted``.

The search works modulo the commutations the system lists.  Two letters
are independent when their commutation ``(x y) = (y x)`` is a relation
in every sign of both; words that differ by swapping adjacent
independent letters form one class, a trace (Cartier and Foata 1969;
Diekert and Rozenberg, *The Book of Traces*, 1995).  A class is reduced
as in a free partially commutative group: a letter cancels the nearest
earlier letter it depends on when that letter is its inverse (Wrathall
1988), and is keyed by its Foata normal form, which the search's states
are.  A commutation is never an edge.  Every other orientation of a
relation applies wherever its left side is a factor of the class: its
letters sit at positions of the key, convex in the dependence order, so
that the letters between them can be commuted out of the way.  The
successor is the class of the word with the left side replaced, reduced.

Only the final path is written out as ordinary steps.  For each class
edge they are the commutations that gather the left side, the relation,
the commutations that bring each cancelling pair together (the one that
makes them adjacent cancels them, as its own free reduction), and the
commutations into the next class word.  Every step's result is the free
reduction of its splice, so :func:`replay_path` checks the path as it
checks any other.  A swap that no listed relation makes ends the
expansion, and the search does not answer ``equal`` from it.
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
        generators = self.generator_set
        for gen, sign in letters:
            if gen not in generators:
                raise ValueError(f"unknown generator {gen!r} at arity {self.n}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
            if sign == -1 and gen in self.involutive:
                raise ValueError(f"involutive generator {gen!r} cannot carry sign -1")
        return Word(self.n, free_reduce(tuple(letters), self.involutive))

    @cached_property
    def generator_set(self) -> frozenset:
        """The generators as a set, for the membership test of ``word``."""
        return frozenset(self.generators)

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


def path_from_dict(doc) -> RewritePath:
    """Read back a path document, the JSON form of ``asdict(path)``.

    A malformed field raises ``ValueError``; a missing key or a container
    of the wrong type raises ``KeyError`` or ``TypeError``, which the
    caller reports as a malformed document.
    """

    def letters(items) -> Letters:
        # ``gen`` a whole number or a list of them, ``sign`` 1 or -1, none
        # of them a JSON ``true`` or ``false`` (which compare equal to 1 and 0)
        out = []
        for gen, sign in items:
            parts = gen if isinstance(gen, list) else [gen]
            if type(sign) is not int or sign not in (1, -1) or any(type(x) is not int for x in parts):
                raise ValueError(f"malformed path document: letter {[gen, sign]!r}")
            out.append((tuple(gen) if isinstance(gen, list) else gen, sign))
        return tuple(out)

    def field(step, name: str) -> int:
        # ``rel``, ``orient`` and ``pos`` are whole numbers, ``orient`` 0 or 1
        value = step[name]
        if type(value) is not int or value < 0 or (name == "orient" and value > 1):
            raise ValueError(f"malformed path document: step {name} {value!r}")
        return value

    def steps(items) -> tuple[Step, ...]:
        return tuple(
            Step(field(s, "rel"), field(s, "orient"), field(s, "pos"), letters(s["result"])) for s in items
        )

    return RewritePath(letters(doc["meet"]), steps(doc["forward"]), steps(doc["backward"]))


@dataclass(frozen=True)
class EqResult:
    verdict: str  # "equal" | "distinct" | "inconclusive"
    states: int = 0
    separating: str | None = None
    path: RewritePath | None = None
    # why the search stopped: "met" | "invariant" | "budget" | "space_exhausted"
    stop: str | None = None

    @property
    def is_equal(self) -> bool:
        return self.verdict == "equal"

    @property
    def is_distinct(self) -> bool:
        return self.verdict == "distinct"

    @property
    def is_inconclusive(self) -> bool:
        return self.verdict == "inconclusive"


DEFAULT_BUDGET = 100_000


class _SearchTables:
    """Interned form of a relation system for the class search.

    Each letter is coded as one character, ``chr`` of its rank in the
    alphabet (generator order, ``+1`` before ``-1``), so states are
    ``str``: a ``str`` caches its hash, so a state is hashed once however
    many dictionaries it is looked up in.  ``decode`` gives back letter
    tuples.  ``inverse[c]`` is the code of ``c``'s inverse and ``bit[c]``
    is ``1 << ord(c)``.

    ``swaps`` maps each ordered pair of independent letters ``x + y`` (two
    codes) to ``2 * ridx + orient``, the listed relation and orientation
    that rewrite ``x y`` to ``y x``.
    A pair counts as independent when ``x != y``, ``y`` is not ``x``'s
    inverse, and the commutation is listed for every sign of both letters,
    so that a letter and its inverse have the same dependence; a
    commutation listed in some signs only stays an ordinary relation.
    ``dep[c]`` is the mask of the letters ``c`` depends on: every letter
    but those independent of it, ``c`` and its inverse included.

    ``trie`` holds every other orientation with a non-empty left side,
    keyed by the left side's letters: a node is ``[children, entries,
    after]``, ``children`` ``None`` at a leaf, an entry ``(b, move)`` is
    the coded right side and ``2 * ridx + orient``, in relation order,
    and ``after`` says that every next letter depends on the node's own,
    so that a match of it lies after the node's position.  Commutations of
    independent letters are not in it: they map a class to itself.
    Orientations with an empty left side are left out too: splicing a
    relator next to nothing is undone by the reduction.
    """

    def __init__(self, sys: RelationSystem):
        self.letter_to_code: dict[Letter, str] = {}
        self.code_to_letter: dict[str, Letter] = {}
        for gen in sys.generators:
            signs = (1,) if gen in sys.involutive else (1, -1)
            for sign in signs:
                code = chr(len(self.code_to_letter))
                self.letter_to_code[(gen, sign)] = code
                self.code_to_letter[code] = (gen, sign)
        self.inverse = {
            code: self.letter_to_code[(gen, sign if gen in sys.involutive else -sign)]
            for code, (gen, sign) in self.code_to_letter.items()
        }
        self.bit = {code: 1 << ord(code) for code in self.code_to_letter}

        coded = [(self.encode(lhs), self.encode(rhs)) for lhs, rhs in sys.relations]
        listed: dict[str, int] = {}
        for ridx, (lhs, rhs) in enumerate(coded):
            if len(lhs) == 2 and lhs[0] != lhs[1] and rhs == lhs[::-1]:
                listed.setdefault(lhs, 2 * ridx)
                listed.setdefault(rhs, 2 * ridx + 1)
        inverse = self.inverse
        self.swaps = {
            xy: move
            for xy, move in listed.items()
            if xy[1] != inverse[xy[0]]
            and all(u + v in listed for u in (xy[0], inverse[xy[0]]) for v in (xy[1], inverse[xy[1]]))
        }
        everything = (1 << len(self.code_to_letter)) - 1
        self.dep = dict.fromkeys(self.code_to_letter, everything)
        for x, y in self.swaps:
            self.dep[x] &= ~self.bit[y]

        self.trie: dict[str, list] = {}
        for ridx, sides in enumerate(coded):
            if sides[0] in self.swaps and sides[1] == sides[0][::-1]:
                continue
            for orient in (0, 1):
                a = sides[orient]
                if not a:
                    continue
                node = [self.trie]
                for c in a:
                    if node[0] is None:
                        node[0] = {}
                    node = node[0].setdefault(c, [None, [], False])
                node[1].append((sides[1 - orient], 2 * ridx + orient))
        nodes = list(self.trie.items())
        for c, node in nodes:
            if node[0]:
                # where every next letter depends on c, it lies after c's position
                node[2] = all(self.dep[c] & self.bit[x] for x in node[0])
                nodes.extend(node[0].items())

    def encode(self, letters: Letters) -> str:
        return "".join(map(self.letter_to_code.__getitem__, letters))

    def decode(self, codes: str) -> Letters:
        return tuple(map(self.code_to_letter.__getitem__, codes))

    def canon(self, word: str) -> str:
        """The key of the class of ``word`` after reduction: its Foata
        normal form.

        Each letter goes one level above the highest level that holds a
        letter it depends on; if that level holds the letter's inverse,
        the two cancel instead, which is the stack reduction of a free
        partially commutative group (the inverse is the nearest earlier
        letter the new one depends on, and nothing above it depends on
        it).  The key is the levels in order, each sorted by code.
        """
        dep, bit, inverse = self.dep, self.bit, self.inverse
        masks: list[int] = []
        levels: list[str] = []  # each kept sorted
        top = -1
        for c in word:
            d = dep[c]
            h = top
            while h >= 0 and not masks[h] & d:
                h -= 1
            if h >= 0:
                x = inverse[c]
                if masks[h] & bit[x]:
                    # only the top level can empty: a letter one level up
                    # depends on x, so on c, and h was the highest such level
                    masks[h] ^= bit[x]
                    levels[h] = levels[h].replace(x, "", 1)
                    if h == top and not masks[h]:
                        masks.pop()
                        levels.pop()
                        top -= 1
                    continue
            if h == top:
                masks.append(bit[c])
                levels.append(c)
                top += 1
            else:
                h += 1
                masks[h] |= bit[c]
                level = levels[h]
                levels[h] = level + c if c > level[-1] else "".join(sorted(level + c))
        return "".join(levels)

    def lower(self, state: str) -> list[int]:
        """The dependence order of a word's letters: ``lower[r]`` is the
        mask of the positions below ``r``, those from which a chain of
        dependent letters leads up to ``r``."""
        n = len(state)
        deps = [self.dep[c] for c in state]
        bits = [self.bit[c] for c in state]
        lower = [0] * n
        for r in range(n):
            d, m = deps[r], 0
            rest = (1 << r) - 1  # earlier positions not yet known to be below
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                if d & bits[j]:
                    m |= lower[j] | 1 << j
                    rest &= ~m
            lower[r] = m
        return lower

    @staticmethod
    def split(state: str, ps: int, down: int, lo: int, hi: int) -> tuple[str, str]:
        """``(head, tail)`` around a convex factor at the position mask
        ``ps``, first position ``lo`` and last ``hi``, with ``down`` the
        positions below it: ``state`` equals, modulo commutations, ``head``,
        the factor's letters, ``tail``.  Only letters between ``lo`` and
        ``hi`` move: those below the factor go to ``head``, the others to
        ``tail``."""
        left, right = [], []
        for r in range(lo + 1, hi):
            if not ps >> r & 1:
                (left if down >> r & 1 else right).append(state[r])
        return state[:lo] + "".join(left), "".join(right) + state[hi + 1 :]

    def successors(self, state: str) -> list[tuple[str, int, str, str]]:
        """Every class one rewrite away from the class word ``state``, as
        ``(key, move, head, tail)``: the class of ``head``, the right side,
        ``tail``, where ``state`` is ``head``, the left side, ``tail``
        modulo commutations (:meth:`split`).

        A match assigns the left side's letters, in order, to positions of
        ``state`` holding them, none below an earlier one, such that no
        other letter is above one of the positions and below another
        (they are convex).  Each prefix of a match is convex too (a prefix
        of the left side is a down-set of the factor), so the walk stops
        at the first prefix that is not.  Matches come in the
        lexicographic order of their position tuples, a left side before
        its extensions, and one left side's orientations in relation
        order.
        """
        canon = self.canon
        lower = self.lower(state)
        n = len(state)
        out: list[tuple[str, int, str, str]] = []
        # depth first: a frame is a trie node and the match so far, and a
        # node's scan resumes at ``start`` once the extensions of its last
        # match are walked
        stack = [(self.trie, 0, 0, 0, 0, n, -1)]
        while stack:
            children, start, size, mask, down, lo, hi = stack.pop()
            taken = mask | down
            for q in range(start, n):
                c = state[q]
                if c not in children or taken >> q & 1:
                    continue
                grown_down, grown = down | lower[q], mask | 1 << q
                low = lo if lo < q else q
                high = hi if hi > q else q
                if high - low > size:
                    # convex: no other letter between first and last is both
                    # below one of the positions and above another
                    between = grown_down & ~grown & (1 << high) - (2 << low)
                    while between:
                        r = between & -between
                        if lower[r.bit_length() - 1] & grown:
                            break
                        between ^= r
                    if between:
                        continue
                below, entries, after = children[c]
                if entries:
                    if high - low == size:
                        head, tail = state[:low], state[high + 1 :]
                    else:
                        head, tail = self.split(state, grown, grown_down, low, high)
                    for b, move in entries:
                        out.append((canon(head + b + tail), move, head, tail))
                if below:
                    stack.append((children, q + 1, size, mask, down, lo, hi))
                    stack.append((below, q + 1 if after else 0, size + 1, grown, grown_down, low, high))
                    break
        return out


def _apply(sys: RelationSystem, word: Letters, rel: int, orient: int, pos: int) -> Letters | None:
    """One step as :func:`replay_path` checks it, or ``None`` when the
    left side is not at ``pos``."""
    a, b = sys.relations[rel][orient], sys.relations[rel][1 - orient]
    if word[pos : pos + len(a)] != a:
        return None
    return free_reduce(word[:pos] + b + word[pos + len(a) :], sys.involutive)


def pair_step(sys: RelationSystem, word: Letters, pos: int, target: Letters) -> Step | None:
    """The step that rewrites the two letters of ``word`` at ``pos`` into
    the two letters ``target`` by a listed relation, or ``None`` when
    ``sys`` lists no such rewrite.  The relation is looked up in the
    search tables: a commutation of independent letters in ``swaps``, any
    other the first in relation order among the trie's two-letter left
    sides."""
    tab = sys.search_tables
    xy, b = tab.encode(word[pos : pos + 2]), tab.encode(target)
    move = tab.swaps.get(xy) if b == xy[::-1] else None
    if move is None:
        node = tab.trie.get(xy[0])
        entries = node[0].get(xy[1], (None, ()))[1] if node and node[0] else ()
        move = next((m for rhs, m in entries if rhs == b), None)
        if move is None:
            return None
    rel, orient = move >> 1, move & 1
    return Step(rel, orient, pos, _apply(sys, word, rel, orient, pos))


class _Expansion:
    """Writes a chain of class edges out as ordinary steps on words, each
    ``free_reduce`` of its splice, so that :func:`replay_path` accepts
    it.  It works on coded words and gives up (``None``) at any step it
    cannot find."""

    def __init__(self, sys: RelationSystem, tab: _SearchTables):
        self.sys = sys
        self.tab = tab
        self.steps: list[Step] = []

    def step(self, rel: int, orient: int, pos: int, result: str) -> str:
        self.steps.append(Step(rel, orient, pos, self.tab.decode(result)))
        return result

    def swap(self, word: str, k: int) -> str | None:
        """Exchange the letters at ``k`` and ``k + 1`` by their listed
        commutation.  The word is freely reduced and the two letters are
        not inverse, so only the two seams can cancel."""
        tab = self.tab
        x, y = word[k], word[k + 1]
        move = tab.swaps.get(x + y)
        if move is None:
            return None
        result = word[:k] + y + x + word[k + 2 :]
        if (k and word[k - 1] == tab.inverse[y]) or word[k + 2 : k + 3] == tab.inverse[x]:
            result = tab.encode(free_reduce(tab.decode(result), self.sys.involutive))
        return self.step(move >> 1, move & 1, k, result)

    def sort(self, word: str | None, target: str) -> str | None:
        """Commute ``word`` into ``target``, moving each letter that is out
        of place left one swap at a time; ``None`` if some swap is not a
        listed commutation or the two are not the same class word."""
        t = 0
        while word is not None and word != target:
            if len(word) != len(target):
                return None
            while word[t] == target[t]:
                t += 1
            found = word.find(target[t], t + 1)
            if found < 0:
                return None
            for k in range(found - 1, t - 1, -1):
                word = self.swap(word, k)
                if word is None:
                    return None
        return word

    def settle(self, word: str | None, key: str) -> str | None:
        """Reduce ``word`` as the class search does and commute it into the
        class word ``key``: while some letter's nearest earlier letter that
        it depends on is its inverse, move it left one swap at a time; the
        swap that makes the two adjacent cancels them."""
        while word is not None and len(word) > len(key):
            j = self.cancelling(word)
            if j is None:
                break
            word = self.swap(word, j - 1)
        return self.sort(word, key)

    def cancelling(self, word: str) -> int | None:
        """The position of the first letter whose nearest earlier letter
        that it depends on is its inverse."""
        dep, bit, inverse = self.tab.dep, self.tab.bit, self.tab.inverse
        for j, y in enumerate(word):
            for x in reversed(word[:j]):
                if dep[y] & bit[x]:
                    if x == inverse[y]:
                        return j
                    break
        return None

    def edge(self, word: str | None, move: int, head: str, tail: str, child: str) -> str | None:
        """One class edge: commute the left side together between ``head``
        and ``tail``, apply the relation, and settle into ``child``."""
        tab = self.tab
        rel, orient = move >> 1, move & 1
        word = self.sort(word, head + tab.encode(self.sys.relations[rel][orient]) + tail)
        if word is None:
            return None
        # ``sort`` gives exactly head + left side + tail, so the left side is at len(head)
        result = _apply(self.sys, tab.decode(word), rel, orient, len(head))
        return self.settle(self.step(rel, orient, len(head), tab.encode(result)), child)


def equal(
    w1: Word,
    w2: Word,
    sys: RelationSystem,
    budget: int | None = None,
) -> EqResult:
    """Decide (semidecide) whether two words represent the same element.

    Returns ``equal`` only when a rewrite path exists (and attaches it),
    ``distinct`` only when a declared invariant separates the inputs.
    Inputs in one commutation class, identical ones included, cost zero
    states.
    """
    if w1.n != w2.n or w1.n != sys.n:
        raise ValueError(f"arity mismatch: words at {w1.n}/{w2.n}, system at {sys.n}")
    start_letters = free_reduce(w1.letters, sys.involutive)
    goal_letters = free_reduce(w2.letters, sys.involutive)
    if start_letters == goal_letters:
        return EqResult("equal", states=0, path=RewritePath(start_letters, (), ()), stop="met")
    for name, evaluate in sys.invariants:
        if evaluate(Word(sys.n, start_letters)) != evaluate(Word(sys.n, goal_letters)):
            return EqResult("distinct", states=0, separating=name, stop="invariant")
    if budget is None:
        budget = DEFAULT_BUDGET

    tab = sys.search_tables
    start = tab.canon(tab.encode(start_letters))
    goal = tab.canon(tab.encode(goal_letters))

    # parent maps: class key -> (parent key, 2 * rel + orient, head, tail),
    # the parent being head, the left side, tail modulo commutations;
    # roots -> None
    seen: tuple[dict, dict] = ({start: None}, {goal: None})
    queues = (deque([start]), deque([goal]))
    expanded = 0

    def build_path(meet: str) -> RewritePath | None:
        chains = []
        for side, word in ((0, start_letters), (1, goal_letters)):
            edges = []
            node = meet
            while seen[side][node] is not None:
                parent, move, head, tail = seen[side][node]
                edges.append((move, head, tail, node))
                node = parent
            expansion = _Expansion(sys, tab)
            word = expansion.settle(tab.encode(word), node)
            for edge in reversed(edges):
                word = expansion.edge(word, *edge)
            if word is None:
                return None
            chains.append(tuple(expansion.steps))
        return RewritePath(tab.decode(meet), chains[0], chains[1])

    if start == goal:
        path = build_path(start)
        if path is not None:
            return EqResult("equal", states=0, path=path, stop="met")

    successors = tab.successors
    while (queues[0] or queues[1]) and expanded < budget:
        side = 0 if queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1])) else 1
        mine, other = seen[side], seen[1 - side]
        queue = queues[side]
        state = queue.popleft()
        expanded += 1
        for nxt, move, head, tail in successors(state):
            if nxt in mine:  # the state itself is in mine too
                continue
            mine[nxt] = (state, move, head, tail)
            if nxt in other:
                path = build_path(nxt)
                if path is not None:
                    return EqResult("equal", states=expanded, path=path, stop="met")
            queue.append(nxt)
    stop = "budget" if queues[0] or queues[1] else "space_exhausted"
    return EqResult("inconclusive", states=expanded, stop=stop)


def replay_path(sys: RelationSystem, w1: Word, w2: Word, path: RewritePath) -> bool:
    """Re-validate an equality path step by step.

    Each step must name a relation of ``sys`` (``rel`` an ``int``, not a
    ``bool``), an orientation 0 or 1 and a position from 0 to the length
    of the word it applies to, and be that relation applied there in that
    orientation, followed by free reduction; both chains must end at the
    meet word.
    """

    def run(start: Letters, steps: Sequence[Step]) -> Letters | None:
        state: Letters | None = free_reduce(start, sys.involutive)
        for step in steps:
            if not (
                type(step.rel) is type(step.orient) is type(step.pos) is int
                and 0 <= step.rel < len(sys.relations)
                and step.orient in (0, 1)
                and 0 <= step.pos <= len(state)
            ):
                return None
            state = _apply(sys, state, step.rel, step.orient, step.pos)
            if state is None or state != step.result:
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
