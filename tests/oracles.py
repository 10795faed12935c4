"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's normalized-representative
shortcuts: the Borel quotient is materialized as raw tuples and raw
morphisms modulo the explicit diagonal group action, with classes
computed by union-find.  ``burau`` evaluates braid words without the
library's braid code.
"""

from __future__ import annotations

from itertools import accumulate, product

from actionoperads.core import _groups
from actionoperads.multicat import act_by
from actionoperads.perm import act_on_positions


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


# -- the permutation kernel, point by point ----------------------------------
# Each reference reads the permutation only through ``p(i)`` and raises the
# library's arity errors word for word, so the fast kernel can be checked
# against it on values and on messages.


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
