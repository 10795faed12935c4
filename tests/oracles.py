"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's normalized-representative
shortcuts: the Borel quotient is materialized as raw tuples and raw
morphisms modulo the explicit diagonal group action, with classes
computed by union-find.  ``burau`` evaluates braid words without the
library's braid code.
"""

from __future__ import annotations

import itertools
from itertools import accumulate, product
from typing import Iterator

from actionoperads.club import RoundtripReport, operad_from_club
from actionoperads.core import (
    AXIOM_NAMES,
    SIZE_DRAWS,
    AxiomCheckConfig,
    AxiomReport,
    CheckOutcome,
    DeterministicStream,
    Failure,
    _groups,
    _Kernel,
    compositions_of,
    finite_group,
    nested_size_vectors,
    size_vectors,
)
from actionoperads.multicat import act_by
from actionoperads.perm import act_on_positions, block_perm, block_sum, compose, format_perm, identity, inverse


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self):
        groups = {}
        for x in list(self.parent):
            groups.setdefault(self.find(x), []).append(x)
        return groups


def quotient_hom_set(inst, X, src_objects, tgt_objects):
    """Hom-set between the classes of (e; src) and (e; tgt), computed by
    materializing the product category and quotienting by the diagonal
    action.  Returns a set of (group key, component tuple) pairs.

    Requires the arity group to be finite.
    """
    n = len(src_objects)
    els = inst.elements(n)
    assert els is not None, "quotient oracle needs a finite group"
    e = inst.identity(n)

    # raw objects (g, xs) with the generating identification
    # (g*h; xs) ~ (g; xs twisted by pi(h))
    objects_uf = UnionFind()
    tuples = list(product(X.objects, repeat=n))
    for g in els:
        for h in els:
            for xs in tuples:
                left = (inst.mul(g, h).key(), xs)
                right = (g.key(), act_on_positions(inst.pi(h), xs))
                objects_uf.union(left, right)
    src_root = objects_uf.find((e.key(), tuple(src_objects)))
    tgt_root = objects_uf.find((e.key(), tuple(tgt_objects)))

    src_reps = [x for x in objects_uf.parent if objects_uf.find(x) == src_root]
    tgt_reps = [y for y in objects_uf.parent if objects_uf.find(y) == tgt_root]
    by_key = {g.key(): g for g in els}

    # raw morphisms between representatives: slotwise components
    morphism_uf = UnionFind()
    raw = []
    for (g1k, xs) in src_reps:
        for (g2k, ys) in tgt_reps:
            pools = [X.hom(xs[i], ys[i]) for i in range(n)]
            for comps in product(*pools):
                raw.append(((g1k, xs), (g2k, ys), comps))
    for m in raw:
        morphism_uf.find(m)
        (g1k, xs), (g2k, ys), comps = m
        g1, g2 = by_key[g1k], by_key[g2k]
        for h in els:
            ph = inst.pi(h)
            image = (
                (inst.mul(g1, h).key(), act_on_positions(ph, xs)),
                (inst.mul(g2, h).key(), act_on_positions(ph, ys)),
                act_on_positions(ph, comps),
            )
            morphism_uf.union(m, image)

    out = set()
    for root, members in morphism_uf.classes().items():
        anchored = [m for m in members if m[0] == (e.key(), tuple(src_objects))]
        assert len(anchored) == 1, "each class must have exactly one unit-anchored member"
        (_, _), (g2k, _ys), comps = anchored[0]
        out.add((g2k, comps))
    return out


def zigzag_orbit_count(G, F, z, x):
    """Independent orbit count for the composite profunctor value at
    (z, x): naive fixpoint closure instead of union-find."""
    Y = F.target
    elements = []
    for y in Y.objects:
        for t in G.values.get((z, y), ()):
            for s in F.values.get((y, x), ()):
                elements.append((y, t, s))
    edges = {el: {el} for el in elements}
    for h in Y.morphisms:
        y_src, y_tgt = Y.src[h], Y.tgt[h]
        for t in G.values.get((z, y_src), ()):
            for s in F.values.get((y_tgt, x), ()):
                a = (y_tgt, G.source_action[(h, t)], s)
                b = (y_src, t, F.target_action[(h, s)])
                edges[a].add(b)
                edges[b].add(a)
    changed = True
    groups = {el: {el} for el in elements}
    while changed:
        changed = False
        for el in elements:
            new = set(groups[el])
            for other in list(groups[el]):
                new |= edges[other]
                new |= groups[other]
            if new != groups[el]:
                groups[el] = new
                changed = True
    reps = set()
    for el in elements:
        reps.add(frozenset(groups[el]))
    return len(reps)


def reference_chain_walk(M, typed, by_head, rep):
    """``validate_multicat``'s associativity walk as first written: each
    chain splits its legs with ``_groups`` and probes the whole composition
    table three times."""
    for f, gs, r1, ks in typed:
        for hs, s, _ in by_head.get(r1, ()):
            inner = tuple(M.composition.get(leg) for leg in zip(gs, _groups(hs, accumulate(ks))))
            outer = (f, inner)
            if None in inner or outer not in M.composition:
                rep.skipped += 1
                continue
            rep.checked += 1
            if M.composition[outer] != s:
                rep.violations.append(
                    f"associativity fails: {f!r} over {gs!r} then {hs!r} "
                    f"gives {s!r} vs {M.composition[outer]!r}"
                )


def reference_action_walk(M, inst, typed, by_head, gens, rep):
    """``validate_multicat``'s two action-law loops as first written: every
    law instance builds its ``beta``/``delta`` element and folds the
    actions along that element's generator word through ``act_by``."""

    def note(msg):
        rep.violations.append(msg)

    # action compatibility law 1: acting on one leg at a time
    for f, gs, r, sizes in typed:
        for i, g in enumerate(gs):
            for name, gen in gens(sizes[i]).items():
                if (name, g) not in M.actions:
                    rep.skipped += 1
                    continue
                acted = list(gs)
                acted[i] = M.actions[(name, g)]
                key = (f, tuple(acted))
                if key not in M.composition:
                    rep.skipped += 1
                    continue
                shifted = inst.beta(
                    [gen if j == i else inst.identity(sizes[j]) for j in range(len(gs))]
                )
                try:
                    want = act_by(M, inst, r, shifted)
                except ValueError:
                    rep.skipped += 1
                    continue
                rep.checked += 1
                if M.composition[key] != want:
                    note(
                        f"leg action law fails at entry ({f!r}, {gs!r}), leg {i + 1}, "
                        f"generator {name!r}"
                    )

    # action compatibility law 2: acting on the head; an action whose result
    # is unknown or of another arity was noted above and states no law
    for (name, f), h in M.actions.items():
        if f not in M.elements or h not in M.elements or M.arity(h) != M.arity(f):
            continue
        alpha = gens(M.arity(f)).get(name)
        if alpha is None:
            continue
        p = inst.pi(alpha)
        for gs, s, ks in by_head.get(h, ()):
            key = (f, act_on_positions(p, gs))
            if key not in M.composition:
                rep.skipped += 1
                continue
            try:
                want = act_by(M, inst, M.composition[key], inst.delta(alpha, ks))
            except ValueError:
                rep.skipped += 1
                continue
            rep.checked += 1
            if s != want:
                note(
                    f"head action law fails: ({name!r} . {f!r}) applied to {gs!r}"
                )


def reference_fincat_validate(cat):
    """``FinCat.validate`` as first written: every law instance probes the
    composition table directly, a triple with four lookups."""
    if len(set(cat.objects)) != len(cat.objects):
        raise ValueError(f"{cat.name}: duplicate object ids")
    if len(set(cat.morphisms)) != len(cat.morphisms):
        raise ValueError(f"{cat.name}: duplicate morphism ids")
    for m in cat.morphisms:
        if cat.src.get(m) not in cat.objects or cat.tgt.get(m) not in cat.objects:
            raise ValueError(f"{cat.name}: morphism {m!r} has unknown endpoints")
    for x in cat.objects:
        i = cat.identities.get(x)
        if i not in cat.morphisms or cat.src[i] != x or cat.tgt[i] != x:
            raise ValueError(f"{cat.name}: object {x!r} lacks a valid identity")
    mset = set(cat.morphisms)
    for (g, f), h in cat.table.items():
        if g not in mset or f not in mset or h not in mset:
            raise ValueError(f"{cat.name}: composition entry ({g}, {f}) -> {h} uses unknown ids")
        if cat.src[g] != cat.tgt[f]:
            raise ValueError(f"{cat.name}: entry ({g}, {f}) is not composable")
        if cat.src[h] != cat.src[f] or cat.tgt[h] != cat.tgt[g]:
            raise ValueError(f"{cat.name}: entry ({g}, {f}) -> {h} has wrong endpoints")
    for g in cat.morphisms:
        for f in cat.arrows_into(cat.src[g]):
            if (g, f) not in cat.table:
                raise ValueError(f"{cat.name}: missing composite for ({g!r}, {f!r})")
    for f in cat.morphisms:
        if cat.table[(f, cat.identities[cat.src[f]])] != f:
            raise ValueError(f"{cat.name}: right unit law fails at {f!r}")
        if cat.table[(cat.identities[cat.tgt[f]], f)] != f:
            raise ValueError(f"{cat.name}: left unit law fails at {f!r}")
    for h in cat.morphisms:
        for g in cat.arrows_into(cat.src[h]):
            for f in cat.arrows_into(cat.src[g]):
                if cat.table[(cat.table[(h, g)], f)] != cat.table[(h, cat.table[(g, f)])]:
                    raise ValueError(
                        f"{cat.name}: associativity fails on triple ({h!r}, {g!r}, {f!r})"
                    )


def burau(n, letters):
    """The unreduced Burau matrix of a braid word over Z[t, 1/t], rows of
    Laurent polynomials as sorted (exponent, coefficient) tuples.

    ``(i, 1)`` multiplies on the right by the identity with the block
    [[1 - t, t], [1, 0]] at rows and columns i, i + 1, and ``(i, -1)`` by
    its inverse [[0, 1], [1/t, 1 - 1/t]].  Faithful for n <= 3.
    """

    def comb(*terms):  # sum of coefficient * t^shift * poly
        out = {}
        for coef, shift, poly in terms:
            for e, c in poly.items():
                out[e + shift] = out.get(e + shift, 0) + coef * c
        return {e: c for e, c in out.items() if c}

    rows = [[{0: 1} if r == c else {} for c in range(n)] for r in range(n)]
    for gen, sign in letters:
        for row in rows:
            x, y = row[gen - 1], row[gen]
            if sign == 1:
                row[gen - 1], row[gen] = comb((1, 0, x), (-1, 1, x), (1, 0, y)), comb((1, 1, x))
            else:
                row[gen - 1], row[gen] = comb((1, -1, y)), comb((1, 0, x), (1, 0, y), (-1, -1, y))
    return tuple(tuple(tuple(sorted(p.items())) for p in row) for row in rows)


_J3_SPELLING = {(1, 3): "a", (1, 2): "b", (2, 3): "aba"}


def j3_normal_form(letters) -> str:
    """The normal form of a cactus word at n = 3, with the library's
    ``((p, q), 1)`` letters.

    J_3 is the free product Z/2 * Z/2 of a = s(1,3) and b = s(1,2): the
    two containment relations at n = 3 both say s(2,3) = a b a.  So a
    word is spelled in a and b, and adjacent equal letters cancel; two
    words are equal exactly when their normal forms are.
    """
    out: list[str] = []
    for gen, _sign in letters:
        for ch in _J3_SPELLING[gen]:
            if out and out[-1] == ch:
                out.pop()
            else:
                out.append(ch)
    return "".join(out)


# -- the permutation kernel, point by point ----------------------------------
# Each reference reads the permutation only through ``p(i)`` and raises the
# library's arity errors word for word, so the fast kernel can be checked
# against it on values and on messages.


def reference_pi(inst, a) -> tuple[int, ...]:
    """``WordOperad.pi`` as a fold over whole tuples: each letter rebuilds
    all ``n`` images, reading them through the letter's images."""
    out = tuple(range(1, a.n + 1))
    for gen, sign in a.payload.letters:
        out = tuple(map(out.__getitem__, inst.letter_images(gen, sign, a.n)))
    return out


def pointwise_compose(p, q) -> tuple[int, ...]:
    """``compose``: evaluate p(q(i)) point by point."""
    if p.n != q.n:
        raise ValueError(f"arity mismatch composing {p} with {q}")
    return tuple(p(q(i)) for i in range(1, q.n + 1))


def pointwise_inverse(p) -> tuple[int, ...]:
    """``inverse``: solve p(j) = i for each i."""
    points = range(1, p.n + 1)
    return tuple(next(j for j in points if p(j) == i) for i in points)


def shifted_union(ps) -> tuple[int, ...]:
    """``block_sum``: shift images block by block."""
    images = []
    offset = 0
    for p in ps:
        images.extend(p(i) + offset for i in range(1, p.n + 1))
        offset += p.n
    return tuple(images)


def blockwise_expansion(p, sizes) -> tuple[int, ...]:
    """``block_perm``: lay out destination blocks first, then read off
    each point's landing position."""
    n = p.n
    if n != len(sizes):
        raise ValueError(f"arity mismatch: permutation of {n} block(s) against {len(sizes)} size(s)")
    if any(k < 0 for k in sizes):
        raise ValueError(f"block sizes must be >= 0: {sizes!r}")
    dest_start = {}
    pos = 1
    for slot in range(1, n + 1):
        src = next(i for i in range(1, n + 1) if p(i) == slot)
        dest_start[src] = pos
        pos += sizes[src - 1]
    images = []
    for i in range(1, n + 1):
        images.extend(dest_start[i] + t for t in range(sizes[i - 1]))
    return tuple(images)


def pointwise_action(p, items) -> tuple:
    """``act_on_positions``: the entry in slot i lands in slot p(i)."""
    if p.n != len(items):
        raise ValueError(f"arity mismatch: permutation of {p.n} against {len(items)} item(s)")
    out = {p(i): items[i - 1] for i in range(1, p.n + 1)}
    return tuple(out[j] for j in range(1, p.n + 1))


# -- the word oracle over commutation classes ----------------------------------


def reference_class_equal(w1, w2, sys, budget=None):
    """``rewrite.equal`` written plainly, on letter tuples.

    Two letters are independent when they differ, are not inverse, and
    their commutation is listed in every sign.  A state is the Foata form
    of a class after the stack reduction (a letter cancels the nearest
    earlier letter it depends on when that is its inverse); every match of
    a left side is found by trying every assignment of positions; the
    final path is expanded into swaps, relation steps and cancellations,
    each applied by slicing.  The definitions are the library's, the code
    is not, so whole results must agree.
    """
    from collections import deque
    from functools import lru_cache

    from actionoperads.rewrite import DEFAULT_BUDGET, EqResult, RewritePath, Step, Word, free_reduce

    start = free_reduce(w1.letters, sys.involutive)
    goal = free_reduce(w2.letters, sys.involutive)
    if start == goal:
        return EqResult("equal", path=RewritePath(start, (), ()), stop="met")
    for name, evaluate in sys.invariants:
        if evaluate(Word(sys.n, start)) != evaluate(Word(sys.n, goal)):
            return EqResult("distinct", separating=name, stop="invariant")
    budget = DEFAULT_BUDGET if budget is None else budget

    alphabet = [(g, s) for g in sys.generators for s in ((1,) if g in sys.involutive else (1, -1))]
    rank = {x: i for i, x in enumerate(alphabet)}

    def inverse(x):
        return x if x[0] in sys.involutive else (x[0], -x[1])

    listed = {}
    for ridx, (lhs, rhs) in enumerate(sys.relations):
        if len(lhs) == 2 and lhs[0] != lhs[1] and rhs == lhs[::-1]:
            listed.setdefault(lhs, (ridx, 0))
            listed.setdefault(rhs, (ridx, 1))

    @lru_cache(maxsize=None)
    def independent(x, y):
        return y != inverse(x) and all(
            (u, v) in listed for u in (x, inverse(x)) for v in (y, inverse(y))
        )

    def nearest_dependent(word, j, y):
        return next((i for i in range(j - 1, -1, -1) if not independent(word[i], y)), None)

    def key(word):
        reduced = []
        for y in word:
            i = nearest_dependent(reduced, len(reduced), y)
            if i is not None and reduced[i] == inverse(y):
                del reduced[i]
            else:
                reduced.append(y)
        # a letter's level is one above the highest level of a letter it
        # depends on; the last occurrence of a letter is its highest
        level, top = [], {}
        for y in reduced:
            level.append(1 + max((top[x] for x in top if not independent(x, y)), default=-1))
            top[y] = level[-1]
        return tuple(reduced[i] for i in sorted(range(len(reduced)), key=lambda i: (level[i], rank[reduced[i]])))

    def below(word):
        """Position sets as int masks: bit j of below[r] when a chain of
        dependent letters leads from j up to r; the last earlier
        occurrence of each letter carries the ones before it."""
        masks, last = [], {}
        for r, y in enumerate(word):
            masks.append(0)
            for x, j in last.items():
                if not independent(x, y):
                    masks[r] |= masks[j] | 1 << j
            last[y] = r
        return masks

    orientations = []
    for ridx, (lhs, rhs) in enumerate(sys.relations):
        if len(lhs) == 2 and lhs[0] != lhs[1] and rhs == lhs[::-1] and independent(*lhs):
            continue
        for orient, (a, b) in enumerate(((lhs, rhs), (rhs, lhs))):
            if a:
                orientations.append((a, b, 2 * ridx + orient))

    def convex(ps, low):
        """No other position is above one of ``ps`` and below another; such
        a position lies between the first and the last."""
        inside = sum(1 << p for p in ps)
        down = 0
        for p in ps:
            down |= low[p]
        return not any(
            down >> r & 1 and low[r] & inside for r in range(min(ps) + 1, max(ps)) if not inside >> r & 1
        )

    def assignments(state, a, low, ps=()):
        """Positions for the letters of ``a``, in order, none below an
        earlier one and every prefix convex (a prefix of a convex factor is
        a down-set of it, so it is convex too), in lexicographic order."""
        if len(ps) == len(a):
            yield ps
            return
        for q, y in enumerate(state):
            if y == a[len(ps)] and q not in ps and not any(low[p] >> q & 1 for p in ps) and convex(ps + (q,), low):
                yield from assignments(state, a, low, ps + (q,))

    def successors(state):
        low = below(state)
        found = []
        for a, b, move in orientations:
            for ps in assignments(state, a, low):
                down = 0
                for p in ps:
                    down |= low[p]
                lo, hi = min(ps), max(ps)
                window = [r for r in range(lo + 1, hi) if r not in ps]
                head = state[:lo] + tuple(state[r] for r in window if down >> r & 1)
                tail = tuple(state[r] for r in window if not down >> r & 1) + state[hi + 1 :]
                found.append((ps, move, key(head + b + tail), head, tail))
        found.sort(key=lambda m: (m[0], m[1]))
        return [m[2:] + (m[1],) for m in found]

    def apply(word, ridx, orient, pos, steps):
        a, b = sys.relations[ridx][orient], sys.relations[ridx][1 - orient]
        if word is None or word[pos : pos + len(a)] != a:
            return None
        word = free_reduce(word[:pos] + b + word[pos + len(a) :], sys.involutive)
        steps.append(Step(ridx, orient, pos, word))
        return word

    def swap(word, k, steps):
        pair = word[k : k + 2]
        if pair not in listed or not independent(*pair):
            return None
        return apply(word, *listed[pair], k, steps)

    def sort_into(word, target, steps):
        while word is not None and word != target:
            if len(word) != len(target):
                return None
            t = next(i for i in range(len(word)) if word[i] != target[i])
            if target[t] not in word[t + 1 :]:
                return None
            word = swap(word, word.index(target[t], t + 1) - 1, steps)
        return word

    def settle(word, target, steps):
        while word is not None and len(word) > len(target):
            j = next(
                (j for j in range(len(word))
                 if (i := nearest_dependent(word, j, word[j])) is not None and word[i] == inverse(word[j])),
                None,
            )
            if j is None:
                break
            word = swap(word, j - 1, steps)
        return sort_into(word, target, steps)

    seen = ({key(start): None}, {key(goal): None})

    def build_path(meet):
        chains = []
        for side, word in ((0, start), (1, goal)):
            edges, node = [], meet
            while seen[side][node] is not None:
                parent, move, head, tail = seen[side][node]
                edges.append((parent, move, head, tail, node))
                node = parent
            steps = []
            word = settle(word, node, steps)
            for parent, move, head, tail, child in reversed(edges):
                ridx, orient = divmod(move, 2)
                word = sort_into(word, head + sys.relations[ridx][orient] + tail, steps)
                word = settle(apply(word, ridx, orient, len(head), steps), child, steps)
            if word is None:
                return None
            chains.append(tuple(steps))
        return RewritePath(meet, chains[0], chains[1])

    roots = [next(iter(seen[0])), next(iter(seen[1]))]
    if roots[0] == roots[1]:
        path = build_path(roots[0])
        if path is not None:
            return EqResult("equal", path=path, stop="met")
    queues = (deque([roots[0]]), deque([roots[1]]))
    expanded = 0
    while (queues[0] or queues[1]) and expanded < budget:
        side = 0 if queues[0] and (not queues[1] or len(queues[0]) <= len(queues[1])) else 1
        state = queues[side].popleft()
        expanded += 1
        for nxt, head, tail, move in successors(state):
            if nxt in seen[side]:
                continue
            seen[side][nxt] = (state, move, head, tail)
            if nxt in seen[1 - side]:
                path = build_path(nxt)
                if path is not None:
                    return EqResult("equal", states=expanded, path=path, stop="met")
            queues[side].append(nxt)
    stop = "budget" if queues[0] or queues[1] else "space_exhausted"
    return EqResult("inconclusive", states=expanded, stop=stop)


def reference_check_axioms(inst, config: AxiomCheckConfig | None = None) -> AxiomReport:
    """``check_axioms`` as first written: every case is a tuple
    ``(kind, law, (lhs, rhs, inputs))`` yielded through a generator, with a
    closure that renders its inputs, and the verdict rule runs per case."""
    config = config or AxiomCheckConfig()
    exhaustive = inst.elements(config.max_total_arity) is not None
    K = _Kernel(inst, range(config.max_total_arity + 1) if exhaustive else ())
    cases = (_exhaustive_cases if exhaustive else _sampled_cases)(K, config)

    outcomes = {name: CheckOutcome() for name in AXIOM_NAMES}
    for kind, name, (lhs, rhs, inputs) in cases:
        out = outcomes[name]
        out.checked += 1
        if lhs == rhs:
            continue
        if kind == "pair":
            res = K.equal(lhs, rhs, budget=config.budget)
            if res.is_equal:
                continue
            if res.is_inconclusive:
                out.inconclusive += 1
                continue
            shown = K.format(lhs), K.format(rhs)
        else:
            shown = format_perm(lhs), format_perm(rhs)
        rendered = inputs() if callable(inputs) else inputs
        out.failures.append(Failure(name, rendered, *shown))

    return AxiomReport(inst.name, "exhaustive" if exhaustive else "sampled", outcomes)


# Each case states one law once, on kernel indices.  A helper that states
# one case returns it; the two that state two cases are generators.


def _case_pi_mul(C, g, h):
    lhs = C.pi(C.mul(g, h))
    rhs = compose(C.pi(g), C.pi(h))
    return ("perm", "pi_homomorphism",
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

    return ("pair", "beta_homomorphism", (lhs, rhs, inputs))


def _case_beta_naturality(C, hs):
    lhs = C.pi(C.beta(hs))
    rhs = block_sum([C.pi(h) for h in hs])

    def inputs():
        return "beta(" + ", ".join(C.format(h) for h in hs) + f") at arities {tuple(C.arity(h) for h in hs)}"

    return ("perm", "beta_naturality", (lhs, rhs, inputs))


def _case_beta_unary(C, g):
    return ("pair", "beta_unary_identity", (C.beta([g]), g, lambda: f"{C.format(g)} @ {C.arity(g)}"))


def _case_beta_assoc(C, groups):
    flat = [e for grp in groups for e in grp]
    lhs = C.beta(flat)
    rhs = C.beta([C.beta(list(grp)) for grp in groups])
    return ("pair", "beta_associativity",
            (lhs, rhs, lambda: "groups " + str(tuple(tuple(C.arity(e) for e in grp) for grp in groups))))


def _case_delta_naturality(C, g, sizes):
    lhs = C.pi(C.delta(g, sizes))
    rhs = block_perm(C.pi(g), sizes)
    return ("perm", "delta_naturality", (lhs, rhs, lambda: f"{C.format(g)} @ {C.arity(g)}; sizes {sizes}"))


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
    return ("pair", "delta_product_twist",
            (lhs, rhs, lambda: f"{C.format(g)} * {C.format(h)} @ {C.arity(g)}; sizes {tuple(jsizes)}"))


def _case_delta_nesting(C, f, msizes, plists):
    flat = tuple(p for pl in plists for p in pl)
    inner = C.delta(f, msizes)
    lhs = C.delta(inner, flat)
    totals = tuple(sum(pl) for pl in plists)
    rhs = C.delta(f, totals)
    return ("pair", "delta_nesting",
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

    return ("pair", "delta_beta_twist", (lhs, rhs, inputs))


def _case_beta_delta_interchange(C, gs, mlists):
    lhs = C.beta([C.delta(g, ml) for g, ml in zip(gs, mlists)])
    flat = tuple(m for ml in mlists for m in ml)
    rhs = C.delta(C.beta(gs), flat)

    def inputs():
        return "; ".join(f"{C.format(g)}@{C.arity(g)} sizes {tuple(ml)}" for g, ml in zip(gs, mlists))

    return ("pair", "beta_delta_interchange", (lhs, rhs, inputs))


def _interchange_cases(C, g, gp, fps_choices, fs_choices):
    """composition_interchange at g, g' for each f' in ``fps_choices`` and
    each f in ``fs_choices`` (re-iterated per f'); what depends on g, g' or
    f' alone is computed once."""
    slots = [i - 1 for i in C.pi(gp).images]
    ggp = C.mul(g, gp)
    for fps in fps_choices:
        right = C.mu(gp, fps)
        for fs in fs_choices:
            lhs = C.mul(C.mu(g, fs), right)
            rhs = C.mu(ggp, [C.mul(fs[s], fp) for s, fp in zip(slots, fps)])
            yield ("pair", "composition_interchange",
                   (lhs, rhs, lambda fs=fs, fps=fps: _interchange_inputs(C, g, gp, fs, fps)))


def _interchange_inputs(C, g, gp, fs, fps) -> str:
    return (
        f"g {C.format(g)}, g' {C.format(gp)} @ {C.arity(g)}; "
        + "f " + ", ".join(f"{C.format(x)}@{C.arity(x)}" for x in fs)
        + "; f' " + ", ".join(f"{C.format(x)}@{C.arity(x)}" for x in fps)
    )


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
                yield _case_pi_mul(K, g, h)

    for v in vectors:
        tuple_space = [els(k) for k in v]
        for hs in itertools.product(*tuple_space):
            yield _case_beta_naturality(K, hs)
        for gs in itertools.product(*tuple_space):
            for hs in itertools.product(*tuple_space):
                yield _case_beta_homomorphism(K, gs, hs)

    for n in range(0, A + 1):
        for g in els(n):
            yield _case_beta_unary(K, g)
            yield from _case_delta_units(K, g, n)

    for groups in nested_size_vectors(A):
        spaces = [[els(k) for k in grp] for grp in groups]
        for flat_choice in itertools.product(*(itertools.product(*sp) for sp in spaces)):
            yield _case_beta_assoc(K, flat_choice)

    for v in vectors:
        n = len(v)
        for g in els(n):
            yield _case_delta_naturality(K, g, v)

    for v in positive_vectors:
        n = len(v)
        for g in els(n):
            for h in els(n):
                yield _case_delta_product(K, g, h, v)

    # nesting: m-vector then one positive width per strand, total capped
    for msizes in positive_vectors:
        M = sum(msizes)
        for ptotal in range(M, A + 1):
            for flat_p in compositions_of(ptotal, M):
                plists = _groups(flat_p, itertools.accumulate(msizes))
                for f in els(len(msizes)):
                    yield _case_delta_nesting(K, f, msizes, plists)

    for v in positive_vectors:
        n = len(v)
        for g in els(n):
            for hs in itertools.product(*[els(k) for k in v]):
                yield _case_delta_beta_twist(K, g, hs)

    for groups in nested_size_vectors(A):
        ks = tuple(len(grp) for grp in groups)
        for gs in itertools.product(*[els(k) for k in ks]):
            yield _case_beta_delta_interchange(K, gs, groups)

    for v in positive_vectors:
        n = len(v)
        for gp in els(n):
            pgp_inv = inverse(K.pi(gp))
            f_arities = tuple(v[pgp_inv.images[i] - 1] for i in range(n))
            f_choices = list(itertools.product(*[els(k) for k in f_arities]))
            for g in els(n):
                yield from _interchange_cases(K, g, gp, itertools.product(*[els(k) for k in v]), f_choices)


def _sampled_cases(K: _Kernel, config: AxiomCheckConfig) -> Iterator:
    """Shapes and elements drawn from one seeded stream; each drawn
    element is interned in the kernel."""
    stream = DeterministicStream(config.seed)
    N = config.samples_per_axiom
    cap = config.max_result_arity

    def sample_element(n: int) -> int:
        return K.intern(K.inst.sample(n, stream, config.max_word_length))

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

    def arity_vector():
        return sample_sizes(1 + stream.next_int(3), max_total=cap)

    for _ in range(N):
        n = sample_arity()
        g = sample_element(n)
        h = sample_element(n)
        yield _case_pi_mul(K, g, h)
        yield from _case_pi_inv_unit(K, g)

    for _ in range(N):
        v = arity_vector()
        hs = [sample_element(k) for k in v]
        gs = [sample_element(k) for k in v]
        yield _case_beta_naturality(K, hs)
        yield _case_beta_homomorphism(K, gs, hs)

    for _ in range(N):
        n = sample_arity()
        g = sample_element(n)
        yield _case_beta_unary(K, g)
        yield from _case_delta_units(K, g, n)

    for _ in range(N):
        flat = arity_vector()
        cuts = [stream.next_int(2) for _ in range(len(flat) - 1)]
        groups = _groups(flat, itertools.compress(itertools.count(1), (*cuts, 1)))
        flat_els = [[sample_element(k) for k in grp] for grp in groups]
        yield _case_beta_assoc(K, flat_els)

    for _ in range(N):
        n = sample_arity()
        g = sample_element(n)
        v = sample_sizes(n, max_total=cap)
        yield _case_delta_naturality(K, g, v)
        h = sample_element(n)
        yield _case_delta_product(K, g, h, v)

    for _ in range(N):
        n = 1 + stream.next_int(2)
        msizes = sample_sizes(n, max_total=3)
        M = sum(msizes)
        plists = _groups(sample_sizes(M, max_total=cap), itertools.accumulate(msizes))
        f = sample_element(n)
        yield _case_delta_nesting(K, f, msizes, plists)

    for _ in range(N):
        n = sample_arity()
        g = sample_element(n)
        v = sample_sizes(n, max_total=cap)
        hs = [sample_element(k) for k in v]
        yield _case_delta_beta_twist(K, g, hs)

    for _ in range(N):
        parts = 1 + stream.next_int(2)
        mlists = []
        total = 0
        for _ in range(parts):
            remaining = max(1, cap - total)
            ln = min(1 + stream.next_int(2), remaining)
            ml = sample_sizes(ln, max_total=remaining)
            total += sum(ml)
            mlists.append(ml)
        gs = [sample_element(len(ml)) for ml in mlists]
        yield _case_beta_delta_interchange(K, gs, mlists)

    for _ in range(N):
        n = 1 + stream.next_int(2)
        v = sample_sizes(n, max_total=cap)
        gp = sample_element(n)
        g = sample_element(n)
        pgp_inv = inverse(K.pi(gp))
        f_arities = tuple(v[pgp_inv.images[i] - 1] for i in range(n))
        fps = [sample_element(k) for k in v]
        fs = [sample_element(k) for k in f_arities]
        yield from _interchange_cases(K, g, gp, [fps], [fs])


def reference_roundtrip(inst, max_total: int = 4) -> RoundtripReport:
    """``roundtrip_check`` as first written: the instance's own methods and
    those of its rebuild, on its elements, with no kernel."""
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")
    groups = [finite_group(inst, n) for n in range(max_total + 1)]
    rebuilt = operad_from_club(inst, max_arity=max_total)
    report = RoundtripReport(inst.name)
    for v in size_vectors(max_total, include_zero=False):
        pools = [groups[k] for k in v]
        for hs in product(*pools):
            report.beta_checked += 1
            if not inst.equal(inst.beta(list(hs)), rebuilt.beta(list(hs))).is_equal:
                report.mismatches += 1
        for g in groups[len(v)]:
            report.delta_checked += 1
            if not inst.equal(inst.delta(g, v), rebuilt.delta(g, v)).is_equal:
                report.mismatches += 1
            for hs in product(*pools):
                report.mu_checked += 1
                if not inst.equal(inst.mu(g, list(hs)), rebuilt.mu(g, list(hs))).is_equal:
                    report.mismatches += 1
    return report
