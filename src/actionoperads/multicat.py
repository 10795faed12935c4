"""
Multicategories with group actions, finite profunctors, coend
composition, and the lift of the Borel construction to profunctors.

Multicategory data is extensional: objects, hom-sets listed per
signature, identities, a composition table on listed tuples, and one
action map per group generator per arity.  The action of an arbitrary
group element is the fold of generator actions along a decomposition
word.  ``validate_multicat`` checks the listed generator maps, but not
that their folds respect the group's relations: ``action_well_defined``
checks that on given elements.  Validation is total over listed data
and silent about unlisted signatures.

Convention: acting by a group element alpha of arity n sends an element
with inputs (x_1, ..., x_n) to one with inputs (x_{pi(alpha)(1)}, ...,
x_{pi(alpha)(n)}); the two composition-action compatibility laws are

    f(g_1 . a_1, ..., g_n . a_n) = f(g_1, ..., g_n) . beta(a_1, ..., a_n)
    (f . a)(g_1, ..., g_n)       = f(g_{pi(a)^-1(1)}, ...) . delta(a, k)

with k the input arities of the g_i in their given order.

A finite profunctor from X to Y assigns a value set to each pair (y, x)
with a covariant action of X and a contravariant action of Y; the
composite of two profunctors has as values the disjoint sum over middle
objects modulo the zigzag identifications, computed by union-find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, product
from typing import Mapping, Sequence

from .borel import BorelMorphism, BorelObject, _mor_id, _obj_id, borel_realization
from .core import ActionOperad, OperadElement, _Kernel
from .fincat import FinCat, doc_name, read_json
from .perm import act_on_positions, inverse

Signature = tuple[tuple[str, ...], str]


@dataclass(frozen=True)
class FinMulticat:
    name: str
    objects: tuple[str, ...]
    elements: Mapping[str, Signature]
    identities: Mapping[str, str]
    composition: Mapping[tuple[str, tuple[str, ...]], str]
    actions: Mapping[tuple[str, str], str]  # (generator name, element) -> element

    def signature(self, el: str) -> Signature:
        if el not in self.elements:
            raise ValueError(f"unknown element {el!r} in {self.name}")
        return self.elements[el]

    def arity(self, el: str) -> int:
        return len(self.signature(el)[0])

    @cached_property
    def homs(self) -> dict[Signature, tuple[str, ...]]:
        """The listed elements of each signature, in listing order."""
        homs: dict[Signature, list[str]] = {}
        for el, sig in self.elements.items():
            homs.setdefault(sig, []).append(el)
        return {sig: tuple(els) for sig, els in homs.items()}


def act_by(M: FinMulticat, inst: ActionOperad, el: str, alpha: OperadElement) -> str:
    """Fold the listed generator actions along a decomposition of alpha;
    raises when they do not determine the result."""
    n = M.arity(el)
    if alpha.n != n:
        raise ValueError(f"arity mismatch: element of arity {n} acted by arity {alpha.n}")
    out = _fold(M, el, inst.generator_word(alpha))
    if out is None:
        raise ValueError(f"the listed actions do not determine {inst.format(alpha)} on {el!r}")
    return out


def _fold(M: FinMulticat, el: str, word: Sequence[tuple[str, int]]) -> str | None:
    """Fold the listed generator actions on ``el`` along a signed word of
    generator names; ``None`` when a needed action is not listed or an
    inverse letter has no single preimage."""
    current = el
    for name, sign in word:
        if sign == 1:
            current = M.actions.get((name, current))
            if current is None:
                return None
        else:
            preimages = [e for (nm, e), out in M.actions.items() if nm == name and out == current]
            if len(preimages) != 1:
                return None
            current = preimages[0]
    return current


@dataclass
class ValidationReport:
    name: str
    checked: int = 0
    skipped: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def format_text(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        lines = [f"{head} {self.name}: checked={self.checked} skipped={self.skipped}"]
        lines.extend(f"  violation: {v}" for v in self.violations[:10])
        return "\n".join(lines)


def validate_multicat(M: FinMulticat, inst: ActionOperad) -> ValidationReport:
    """Check structure, unit laws, associativity, and both
    composition-action compatibility laws over the listed data.  The laws
    walk only the composition entries that typecheck."""
    rep = ValidationReport(f"multicat {M.name}")

    def note(msg: str):
        rep.violations.append(msg)

    # structure: signatures, identities, composition typing, action maps
    for el, (inputs, output) in M.elements.items():
        rep.checked += 1
        if any(x not in M.objects for x in inputs) or output not in M.objects:
            note(f"element {el!r} has a signature over unknown objects")
    for x in M.objects:
        rep.checked += 1
        i = M.identities.get(x)
        if i is None or i not in M.elements or M.elements[i] != ((x,), x):
            note(f"object {x!r} lacks a valid identity element")
    # the entries that typecheck, with their legs' arities, in listing order
    # and by head: the laws below walk only these
    typed: list[tuple[str, tuple[str, ...], str, tuple[int, ...]]] = []
    by_head: dict[str, list[tuple[tuple[str, ...], str, tuple[int, ...]]]] = {}
    for (g, fs), r in M.composition.items():
        rep.checked += 1
        if g not in M.elements or r not in M.elements or any(f not in M.elements for f in fs):
            note(f"composition entry ({g!r}, {fs!r}) uses unknown elements")
            continue
        g_in, g_out = M.elements[g]
        if len(fs) != len(g_in):
            note(f"composition entry ({g!r}, {fs!r}) has the wrong leg count")
            continue
        for slot, f in zip(g_in, fs):
            f_out = M.elements[f][1]
            if f_out != slot:
                note(f"composition entry ({g!r}, {fs!r}): leg {f!r} lands in {f_out!r}, needs {slot!r}")
                break
        else:
            flat = tuple(x for f in fs for x in M.elements[f][0])
            if M.elements[r] != (flat, g_out):
                note(f"composition entry ({g!r}, {fs!r}) -> {r!r} has the wrong signature")
                continue
            ks = tuple(M.arity(f) for f in fs)
            typed.append((g, fs, r, ks))
            by_head.setdefault(g, []).append((fs, r, ks))

    @cache
    def gens(n: int) -> dict[str, OperadElement]:
        """The generator table at arity ``n``, by name."""
        return dict(inst.generators(n))

    for (name, el), out in M.actions.items():
        rep.checked += 1
        if el not in M.elements or out not in M.elements:
            note(f"action ({name!r}, {el!r}) uses unknown elements")
            continue
        n = M.arity(el)
        gen = gens(n).get(name)
        if gen is None:
            note(f"action name {name!r} is not a generator at arity {n}")
            continue
        inputs, output = M.elements[el]
        if M.elements[out] != (act_on_positions(inverse(inst.pi(gen)), inputs), output):
            note(f"action ({name!r}, {el!r}) -> {out!r} breaks the signature permutation")
    # bijectivity per (generator, signature): injective always; when the
    # whole hom-set is listed, also onto the permuted hom-set
    images: dict[tuple[str, Signature], list[str]] = {}
    for (name, el), out in M.actions.items():
        if el in M.elements:
            images.setdefault((name, M.elements[el]), []).append(out)
    for (name, sig), outs in images.items():
        rep.checked += 1
        if len(set(outs)) != len(outs):
            note(f"action of {name!r} on signature {sig} is not injective")
            continue
        if any((name, el) not in M.actions for el in M.homs[sig]):
            rep.skipped += 1
            continue
        gen = gens(len(sig[0])).get(name)
        if gen is None:
            continue
        target_sig = (act_on_positions(inverse(inst.pi(gen)), sig[0]), sig[1])
        if set(outs) != set(M.homs.get(target_sig, ())):
            note(f"action of {name!r} on signature {sig} is not onto the permuted hom-set")

    # unit laws where listed
    identity_elements = set(M.identities.values())
    for g, fs, r, _ks in typed:
        if g in identity_elements and len(fs) == 1:
            rep.checked += 1
            if r != fs[0]:
                note(f"left unit law fails: {g!r}({fs[0]!r}) = {r!r}")
        if fs == tuple(M.identities.get(x) for x in M.elements[g][0]):
            rep.checked += 1
            if r != g:
                note(f"right unit law fails: {g!r}(identities) = {r!r}")

    _check_associativity(M, typed, by_head, rep)

    _check_action_laws(M, inst, typed, by_head, gens, rep)
    return rep


def _check_associativity(M: FinMulticat, typed: list, by_head: dict, rep: ValidationReport) -> None:
    """Associativity over listed chains: f over gs gives r1, r1 over hs
    gives s.  Every entry sits in its head's row {legs: result}, and each
    leg tuple hs is cut by the leg arities ks once per (ks, hs), shared by
    every head, so a chain is one row lookup per leg and one for the head."""
    rows: dict[str, dict[tuple[str, ...], str]] = {}
    for (g, fs), r in M.composition.items():
        rows.setdefault(g, {})[fs] = r
    cut_legs: dict[tuple[int, ...], dict[tuple[str, ...], tuple]] = {}
    cut_chains: dict[tuple[str, tuple[int, ...]], list] = {}
    checked = skipped = 0
    for f, gs, r1, ks in typed:
        chains = cut_chains.get((r1, ks))
        if chains is None:
            bounds = (0, *accumulate(ks))
            cuts = list(zip(bounds, bounds[1:]))
            cut = cut_legs.setdefault(ks, {})
            chains = cut_chains[r1, ks] = []
            for hs, s, _ in by_head.get(r1, ()):
                pieces = cut.get(hs)
                if pieces is None:
                    pieces = cut[hs] = tuple(hs[a:b] for a, b in cuts)
                chains.append((pieces, hs, s))
        leg_rows = [rows.get(g, {}) for g in gs]
        row_f = rows[f]
        for pieces, hs, s in chains:
            inner = tuple(map(dict.get, leg_rows, pieces))
            t = None if None in inner else row_f.get(inner)
            if t is None:
                skipped += 1
                continue
            checked += 1
            if t != s:
                rep.violations.append(
                    f"associativity fails: {f!r} over {gs!r} then {hs!r} gives {s!r} vs {t!r}"
                )
    rep.checked += checked
    rep.skipped += skipped


def _check_action_laws(
    M: FinMulticat, inst: ActionOperad, typed: list, by_head: dict, gens, rep: ValidationReport
) -> None:
    """Both composition-action compatibility laws over the typed entries.
    What a law acts by depends only on shapes: (leg arities, leg,
    generator) for the leg law, (generator, arity, leg arities) for the
    head law.  Each such element's arity and generator word are computed
    once per call, at the first check that needs them.  A law is skipped
    only where the table does not list an entry, an action, or a composite
    of the acted arity that it needs; errors from the instance propagate."""

    @cache
    def leg_shift(sizes: tuple[int, ...], i: int, name: str) -> tuple:
        """The generator ``name`` on leg i and units on the other legs, block-summed."""
        alpha = inst.beta([gens(k)[name] if j == i else inst.identity(k) for j, k in enumerate(sizes)])
        return alpha.n, inst.generator_word(alpha)

    @cache
    def head_shift(name: str, n: int, ks: tuple[int, ...]) -> tuple:
        alpha = inst.delta(gens(n)[name], ks)
        return alpha.n, inst.generator_word(alpha)

    def act(el: str, shifted: tuple) -> str | None:
        """``el`` acted on by a shifted element; ``None`` if the table does not determine it."""
        n, word = shifted
        return _fold(M, el, word) if el in M.elements and M.arity(el) == n else None

    # law 1: acting on one leg at a time
    for f, gs, r, sizes in typed:
        for i, g in enumerate(gs):
            for name in gens(sizes[i]):
                if (name, g) not in M.actions:
                    rep.skipped += 1
                    continue
                acted = list(gs)
                acted[i] = M.actions[(name, g)]
                key = (f, tuple(acted))
                if key not in M.composition:
                    rep.skipped += 1
                    continue
                want = act(r, leg_shift(sizes, i, name))
                if want is None:
                    rep.skipped += 1
                    continue
                rep.checked += 1
                if M.composition[key] != want:
                    rep.violations.append(
                        f"leg action law fails at entry ({f!r}, {gs!r}), leg {i + 1}, generator {name!r}"
                    )

    # law 2: acting on the head; an action whose result is unknown or of
    # another arity was noted above and states no law
    for (name, f), h in M.actions.items():
        if f not in M.elements or h not in M.elements or M.arity(h) != M.arity(f):
            continue
        n = M.arity(f)
        alpha = gens(n).get(name)
        if alpha is None:
            continue
        p = inst.pi(alpha)
        for gs, s, ks in by_head.get(h, ()):
            key = (f, act_on_positions(p, gs))
            if key not in M.composition:
                rep.skipped += 1
                continue
            want = act(M.composition[key], head_shift(name, n, ks))
            if want is None:
                rep.skipped += 1
                continue
            rep.checked += 1
            if s != want:
                rep.violations.append(f"head action law fails: ({name!r} . {f!r}) applied to {gs!r}")


def action_well_defined(M: FinMulticat, inst: ActionOperad, words: Sequence[OperadElement]) -> ValidationReport:
    """Check that folding generator actions is constant on provably equal
    group elements (sampled pairs).  A pair is skipped on an element where
    the listed actions do not determine both folds."""
    rep = ValidationReport(f"action well-definedness {M.name}")
    by_arity: dict[int, list[str]] = {}
    for el in M.elements:
        by_arity.setdefault(M.arity(el), []).append(el)
    for a in words:
        for b in words:
            if a.n != b.n or a.key() == b.key():
                continue
            if not inst.equal(a, b).is_equal:
                continue
            wa, wb = inst.generator_word(a), inst.generator_word(b)
            for el in by_arity.get(a.n, ()):
                x, y = _fold(M, el, wa), _fold(M, el, wb)
                if x is None or y is None:
                    rep.skipped += 1
                    continue
                rep.checked += 1
                if x != y:
                    rep.violations.append(f"equal elements act differently on {el!r}")
    return rep


@dataclass(frozen=True)
class FinMultifunctor:
    name: str
    object_map: Mapping[str, str]
    element_map: Mapping[str, str]


def validate_multifunctor(F: FinMultifunctor, M: FinMulticat, N: FinMulticat) -> ValidationReport:
    """Check signature compatibility, identity and composition
    preservation, and equivariance against the listed actions."""
    rep = ValidationReport(f"multifunctor {F.name}")

    def note(msg: str):
        rep.violations.append(msg)

    for x in M.objects:
        rep.checked += 1
        if F.object_map.get(x) not in N.objects:
            note(f"object {x!r} has no image")
    # the elements with an image: the composition and action passes read
    # only entries whose parts all have one
    image: dict[str, str] = {}
    for el, (inputs, output) in M.elements.items():
        rep.checked += 1
        img = F.element_map.get(el)
        if img not in N.elements:
            note(f"element {el!r} has no image")
            continue
        image[el] = img
        want = (tuple(F.object_map.get(x) for x in inputs), F.object_map.get(output))
        if N.elements[img] != want:
            note(f"element {el!r} maps to {img!r} with the wrong signature")
    for x, i in M.identities.items():
        rep.checked += 1
        if F.element_map.get(i) != N.identities.get(F.object_map.get(x)):
            note(f"identity at {x!r} is not preserved")
    for (g, fs), r in M.composition.items():
        if any(el not in image for el in (g, r, *fs)):
            rep.skipped += 1
            continue
        key = (image[g], tuple(image[f] for f in fs))
        if key not in N.composition:
            rep.skipped += 1
            continue
        rep.checked += 1
        if N.composition[key] != image[r]:
            note(f"composition entry ({g!r}, {fs!r}) is not preserved")
    for (name, el), out in M.actions.items():
        if el not in image or out not in image:
            rep.skipped += 1
            continue
        key = (name, image[el])
        if key not in N.actions:
            rep.skipped += 1
            continue
        rep.checked += 1
        if N.actions[key] != image[out]:
            note(f"equivariance fails on action ({name!r}, {el!r})")
    return rep


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _arity_vectors(max_arity: int) -> list[tuple[int, ...]]:
    """Input arities of the composites up to ``max_arity``: every vector of
    at most ``max_arity`` entries (zeros allowed) with sum <= ``max_arity``,
    by length, each length in ``product`` order."""
    vectors: list[tuple[int, ...]] = [()]
    for parts in range(1, max_arity + 1):
        vectors.extend(v for v in product(range(max_arity + 1), repeat=parts) if sum(v) <= max_arity)
    return vectors


def operad_as_multicat(inst: ActionOperad, max_arity: int) -> FinMulticat:
    """The one-object multicategory whose arity-n elements are the arity-n
    group elements, with composition the operad composition and the action
    right multiplication.  Requires finite enumeration up to max_arity; a
    computed element is named by the enumerated one the kernel resolves
    it to."""
    obj = "*"
    K = _Kernel(inst, range(max_arity + 1))
    groups = [K.elements(n) for n in range(max_arity + 1)]
    names = {x: f"{n}:{K.format(x)}" for n, els in enumerate(groups) for x in els}
    elements: dict[str, Signature] = {name: ((obj,) * K.arity(x), obj) for x, name in names.items()}
    identities = {obj: names[K.resolve(K.identity(1))]}
    composition: dict[tuple[str, tuple[str, ...]], str] = {}
    for v in _arity_vectors(max_arity):
        for g in groups[len(v)]:
            for hs in product(*[groups[k] for k in v]):
                legs = tuple(names[h] for h in hs)
                composition[(names[g], legs)] = names[K.resolve(K.mu(g, hs))]
    actions: dict[tuple[str, str], str] = {}
    for n in range(max_arity + 1):
        for name, gen in inst.generators(n):
            a = K.intern(gen)
            for x in groups[n]:
                actions[(name, names[x])] = names[K.resolve(K.mul(x, a))]
    return FinMulticat(
        f"{inst.name}_as_multicat", (obj,), elements, identities, composition, actions
    )


def terminal_multicat(inst: ActionOperad, max_arity: int) -> FinMulticat:
    """One object, one element per signature; everything collapses."""
    obj = "*"
    elements = {f"u{n}": (((obj,) * n), obj) for n in range(max_arity + 1)}
    identities = {obj: "u1"}
    composition: dict[tuple[str, tuple[str, ...]], str] = {}
    for v in _arity_vectors(max_arity):
        composition[(f"u{len(v)}", tuple(f"u{k}" for k in v))] = f"u{sum(v)}"
    actions: dict[tuple[str, str], str] = {}
    for n in range(max_arity + 1):
        for name, _gen in inst.generators(n):
            actions[(name, f"u{n}")] = f"u{n}"
    return FinMulticat("terminal", (obj,), elements, identities, composition, actions)


def empty_multicat() -> FinMulticat:
    return FinMulticat("empty", (), {}, {}, {}, {})


def multicat_from_dict(doc: dict, name: str = "multicat") -> FinMulticat:
    try:
        objects = tuple(map(doc_name, doc["objects"]))
        elements: dict[str, Signature] = {}
        for hom in doc["homs"]:
            sig = (tuple(map(doc_name, hom["inputs"])), doc_name(hom["output"]))
            for el in hom["elements"]:
                elements[doc_name(el)] = sig
        identities = {x: doc_name(i) for x, i in dict(doc["identities"]).items()}
        composition = {
            (doc_name(entry["head"]), tuple(map(doc_name, entry["inputs"]))): doc_name(entry["result"])
            for entry in doc["compose"]
        }
        actions = {}
        for act in doc["actions"]:
            for el, out in act["mapping"].items():
                actions[(doc_name(act["generator"]), el)] = doc_name(out)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed multicategory document: {exc}") from None
    return FinMulticat(name, objects, elements, identities, composition, actions)


def multicat_to_dict(M: FinMulticat) -> dict:
    # one action block per (arity, generator); the arity is read off the
    # elements the generator acts on.  Actions on unlisted elements go in
    # blocks with no arity, after the others.
    actions: dict[tuple[int, str], dict[str, str]] = {}
    unlisted: dict[str, dict[str, str]] = {}
    for (name, el), out in M.actions.items():
        if el in M.elements:
            actions.setdefault((M.arity(el), name), {})[el] = out
        else:
            unlisted.setdefault(name, {})[el] = out
    return {
        "objects": list(M.objects),
        "homs": [
            {"inputs": list(inputs), "output": output, "elements": sorted(els)}
            for (inputs, output), els in sorted(M.homs.items())
        ],
        "identities": dict(M.identities),
        "compose": [
            {"head": g, "inputs": list(fs), "result": r}
            for (g, fs), r in sorted(M.composition.items())
        ],
        "actions": [
            {"arity": arity, "generator": name, "mapping": mapping}
            for (arity, name), mapping in sorted(actions.items())
        ]
        + [{"generator": name, "mapping": mapping} for name, mapping in sorted(unlisted.items())],
    }


def load_multicat(path, name: str | None = None) -> FinMulticat:
    return multicat_from_dict(read_json(path), name or str(path))


# ---------------------------------------------------------------------------
# finite profunctors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinProf:
    """A functor assigning a set to each (target object, source object),
    with a covariant source action and a contravariant target action."""

    name: str
    source: FinCat
    target: FinCat
    values: Mapping[tuple[str, str], tuple[str, ...]]
    source_action: Mapping[tuple[str, str], str]
    target_action: Mapping[tuple[str, str], str]

    def cell_of(self) -> dict[str, tuple[str, str]]:
        index = {}
        for cell, els in self.values.items():
            for el in els:
                index[el] = cell
        return index


def validate_profunctor(P: FinProf) -> ValidationReport:
    rep = ValidationReport(f"profunctor {P.name}")
    X, Y = P.source, P.target
    cell: dict[str, tuple[str, str]] = {}  # each element's first cell
    # the listed cells by source object and by target object, in listing order
    column: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    row: dict[str, list[tuple[str, tuple[str, ...]]]] = {}

    for (y, x), els in P.values.items():
        rep.checked += 1
        if y not in Y.objects or x not in X.objects:
            rep.violations.append(f"cell ({y!r}, {x!r}) is not an object pair")
        if len(set(els)) != len(els):
            rep.violations.append(f"cell ({y!r}, {x!r}) lists duplicate elements")
        for s in dict.fromkeys(els):
            first = cell.setdefault(s, (y, x))
            if first != (y, x):
                rep.violations.append(f"element {s!r} is listed in cells ({first[0]}, {first[1]}) and ({y}, {x})")
        column.setdefault(x, []).append((y, els))
        row.setdefault(y, []).append((x, els))
    if rep.violations:
        return rep

    # totality and typing of the actions
    for f in X.morphisms:
        for y, els in column.get(X.src[f], ()):
            for s in els:
                rep.checked += 1
                out = P.source_action.get((f, s))
                if out is None or cell.get(out) != (y, X.tgt[f]):
                    rep.violations.append(f"source action of {f!r} on {s!r} is missing or mistyped")
    for h in Y.morphisms:
        for x, els in row.get(Y.tgt[h], ()):
            for s in els:
                rep.checked += 1
                out = P.target_action.get((h, s))
                if out is None or cell.get(out) != (Y.src[h], x):
                    rep.violations.append(f"target action of {h!r} on {s!r} is missing or mistyped")
    if rep.violations:
        return rep

    # functoriality
    for (y, x), els in P.values.items():
        for s in els:
            rep.checked += 1
            if P.source_action[(X.identities[x], s)] != s:
                rep.violations.append(f"identity of {x!r} moves {s!r}")
            if P.target_action[(Y.identities[y], s)] != s:
                rep.violations.append(f"identity of {y!r} moves {s!r}")
    for g in X.morphisms:
        for f in X.arrows_into(X.src[g]):
            gf = X.table[(g, f)]
            for _y, els in column.get(X.src[f], ()):
                for s in els:
                    rep.checked += 1
                    if P.source_action[(g, P.source_action[(f, s)])] != P.source_action[(gf, s)]:
                        rep.violations.append(f"source action not functorial on ({g!r}, {f!r})")
    for h in Y.morphisms:
        for k in Y.arrows_from(Y.tgt[h]):
            kh = Y.table[(k, h)]
            for _x, els in row.get(Y.tgt[k], ()):
                for s in els:
                    rep.checked += 1
                    if P.target_action[(h, P.target_action[(k, s)])] != P.target_action[(kh, s)]:
                        rep.violations.append(f"target action not functorial on ({k!r}, {h!r})")
    # the two actions commute
    for f in X.morphisms:
        for h in Y.morphisms:
            for s in P.values.get((Y.tgt[h], X.src[f]), ()):
                rep.checked += 1
                a = P.target_action[(h, P.source_action[(f, s)])]
                b = P.source_action[(f, P.target_action[(h, s)])]
                if a != b:
                    rep.violations.append(f"actions do not commute on ({f!r}, {h!r}, {s!r})")
    return rep


@dataclass(frozen=True)
class FinFunctor:
    name: str
    source: FinCat
    target: FinCat
    ob: Mapping[str, str]
    mor: Mapping[str, str]

    def validate(self) -> None:
        X, Y = self.source, self.target
        for x in X.objects:
            if self.ob.get(x) not in Y.objects:
                raise ValueError(f"functor {self.name}: object {x!r} has no image")
        for m in X.morphisms:
            img = self.mor.get(m)
            if img not in Y.morphisms:
                raise ValueError(f"functor {self.name}: morphism {m!r} has no image")
            if Y.src[img] != self.ob[X.src[m]] or Y.tgt[img] != self.ob[X.tgt[m]]:
                raise ValueError(f"functor {self.name}: morphism {m!r} image has wrong endpoints")
        for x in X.objects:
            if self.mor[X.identities[x]] != Y.identities[self.ob[x]]:
                raise ValueError(f"functor {self.name}: identity at {x!r} not preserved")
        for (g, f), h in X.table.items():
            if Y.table[(self.mor[g], self.mor[f])] != self.mor[h]:
                raise ValueError(f"functor {self.name}: composition ({g!r}, {f!r}) not preserved")


def from_functor(G: FinFunctor, name: str | None = None) -> FinProf:
    """The profunctor with values Y(y, Gx); elements are tagged ``m@x``."""
    G.validate()
    X, Y = G.source, G.target
    values: dict[tuple[str, str], tuple[str, ...]] = {}
    for y in Y.objects:
        for x in X.objects:
            values[(y, x)] = tuple(f"{m}@{x}" for m in Y.hom(y, G.ob[x]))
    source_action: dict[tuple[str, str], str] = {}
    for f in X.morphisms:
        x, x2 = X.src[f], X.tgt[f]
        for y in Y.objects:
            for m in Y.hom(y, G.ob[x]):
                source_action[(f, f"{m}@{x}")] = f"{Y.table[(G.mor[f], m)]}@{x2}"
    target_action: dict[tuple[str, str], str] = {}
    for h in Y.morphisms:
        y, y2 = Y.src[h], Y.tgt[h]
        for x in X.objects:
            for m in Y.hom(y2, G.ob[x]):
                target_action[(h, f"{m}@{x}")] = f"{Y.table[(m, h)]}@{x}"
    return FinProf(name or f"{G.name}_plus", X, Y, values, source_action, target_action)


def identity_prof(X: FinCat, name: str | None = None) -> FinProf:
    ident = FinFunctor(f"id_{X.name}", X, X, {x: x for x in X.objects}, {m: m for m in X.morphisms})
    return from_functor(ident, name or f"id_{X.name}_plus")


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, a):
        parent = self.parent
        if a not in parent:
            parent[a] = a
            return a
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class ComposedProf:
    prof: FinProf
    # per cell: class id -> members (y, t, s); and member -> class id
    members: Mapping[str, tuple[tuple[str, str, str], ...]]
    class_of: Mapping[tuple[str, str, tuple[str, str, str]], str]


def prof_compose(G: FinProf, F: FinProf, name: str | None = None) -> ComposedProf:
    """The composite profunctor: sums over middle objects modulo the
    zigzag identifications (t moved forward along h equals s pulled back
    along h), with classes computed by union-find."""
    if F.target is not G.source and F.target != G.source:
        raise ValueError("boundary mismatch: the middle categories differ")
    X, Y, Z = F.source, F.target, G.target

    cells: dict[tuple[str, str], _UnionFind] = {}
    elements: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for z in Z.objects:
        for x in X.objects:
            uf = _UnionFind()
            els = []
            for y in Y.objects:
                for t in G.values.get((z, y), ()):
                    for s in F.values.get((y, x), ()):
                        els.append((y, t, s))
                        uf.find((y, t, s))
            for h in Y.morphisms:
                y_src, y_tgt = Y.src[h], Y.tgt[h]
                for t in G.values.get((z, y_src), ()):
                    for s in F.values.get((y_tgt, x), ()):
                        a = (y_tgt, G.source_action[(h, t)], s)
                        b = (y_src, t, F.target_action[(h, s)])
                        uf.union(a, b)
            cells[(z, x)] = uf
            elements[(z, x)] = els

    members: dict[str, tuple[tuple[str, str, str], ...]] = {}
    class_of: dict[tuple[str, str, tuple[str, str, str]], str] = {}
    values: dict[tuple[str, str], tuple[str, ...]] = {}
    for (z, x), uf in cells.items():
        groups: dict = {}
        for el in elements[(z, x)]:
            groups.setdefault(uf.find(el), []).append(el)
        ordered = sorted(groups.values(), key=lambda g: sorted(g)[0])
        cell_ids = []
        for idx, group in enumerate(ordered):
            cid = f"{z}|{x}|{idx}"
            cell_ids.append(cid)
            members[cid] = tuple(sorted(group))
            for el in group:
                class_of[(z, x, el)] = cid
        values[(z, x)] = tuple(cell_ids)

    source_action: dict[tuple[str, str], str] = {}
    for f in X.morphisms:
        x, x2 = X.src[f], X.tgt[f]
        for z in Z.objects:
            for cid in values[(z, x)]:
                y, t, s = members[cid][0]
                moved = (y, t, F.source_action[(f, s)])
                source_action[(f, cid)] = class_of[(z, x2, moved)]
    target_action: dict[tuple[str, str], str] = {}
    for k in Z.morphisms:
        z, z2 = Z.src[k], Z.tgt[k]
        for x in X.objects:
            for cid in values[(z2, x)]:
                y, t, s = members[cid][0]
                moved = (y, G.target_action[(k, t)], s)
                target_action[(k, cid)] = class_of[(z, x, moved)]

    prof = FinProf(
        name or f"{G.name}.{F.name}", X, Z, values, source_action, target_action
    )
    return ComposedProf(prof, members, class_of)


def unit_compose_iso(composed: ComposedProf, F: FinProf, side: str) -> dict[str, str]:
    """The canonical bijection from a composite with an identity
    profunctor back to F; raises if it fails to be a bijection.

    ``side`` is "left" for id . F (identity on the target side) and
    "right" for F . id (identity on the source side).
    """

    def image(t: str, s: str) -> str:
        if side == "left":
            # t is an identity-profunctor element "m@x'" with m in Y(z, y)
            return F.target_action[(t.rsplit("@", 1)[0], s)]
        if side == "right":
            return F.source_action[(s.rsplit("@", 1)[0], t)]
        raise ValueError("side must be 'left' or 'right'")

    # well-defined on every member, and bijective onto the F-cell
    out: dict[str, str] = {}
    for cid, mems in composed.members.items():
        images = {image(t, s) for _y, t, s in mems}
        if len(images) != 1:
            raise ValueError(f"unit comparison not constant on class {cid!r}")
        out[cid] = images.pop()
    for (pair, cids) in composed.prof.values.items():
        want = set(F.values.get(pair, ()))
        got = [out[c] for c in cids]
        if len(set(got)) != len(got) or set(got) != want:
            raise ValueError(f"unit comparison is not a bijection at {pair!r}")
    return out


# ---------------------------------------------------------------------------
# the profunctor lift of the Borel construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedProf:
    prof: FinProf
    decode: Mapping[str, tuple]  # element id -> (group key, component ids)


def lift_prof(
    F: FinProf,
    inst: ActionOperad,
    max_arity: int,
    realizations: tuple | None = None,
) -> LiftedProf:
    """Lift a profunctor to the Borel constructions on both sides.

    The value set at a pair of normalized tuples of equal arity n is the
    disjoint sum over the arity-n group of products of F-values matched
    through the underlying permutation; across arities it is empty.
    """
    if realizations is None:
        rx = borel_realization(inst, F.source, max_arity)
        ry = borel_realization(inst, F.target, max_arity)
    else:
        rx, ry = realizations
    K = _Kernel(inst, range(max_arity + 1))

    values: dict[tuple[str, str], tuple[str, ...]] = {}
    content: dict[str, tuple[int, tuple]] = {}  # element id -> (group index, component ids)
    encode: dict[tuple[str, str, int, tuple], str] = {}
    for yid, yobj in ry.objects.items():
        for xid, xobj in rx.objects.items():
            if yobj.n != xobj.n:
                values[(yid, xid)] = ()
                continue
            n = yobj.n
            cell = []
            for g in K.elements(n):
                p = K.pi(g)
                pools = [
                    F.values.get((yobj.objects[i], xobj.objects[p.images[i] - 1]), ())
                    for i in range(n)
                ]
                for comps in product(*pools):
                    eid = f"L{len(content)}"
                    cell.append(eid)
                    content[eid] = (g, comps)
                    encode[(yid, xid, g, comps)] = eid
            values[(yid, xid)] = tuple(cell)

    source_action: dict[tuple[str, str], str] = {}
    for mid, m in rx.morphisms.items():
        h = K.intern(m.g)
        src_id, tgt_id = rx.cat.src[mid], rx.cat.tgt[mid]
        for yid, yobj in ry.objects.items():
            for eid in values.get((yid, src_id), ()):
                g, comps = content[eid]
                pg = K.pi(g)
                new_comps = tuple(
                    F.source_action[(m.components[pg.images[i] - 1], comps[i])]
                    for i in range(yobj.n)
                )
                source_action[(mid, eid)] = encode[(yid, tgt_id, K.resolve(K.mul(h, g)), new_comps)]

    target_action: dict[tuple[str, str], str] = {}
    for mid, m in ry.morphisms.items():
        k = K.intern(m.g)
        pk = K.pi(k)
        src_id, tgt_id = ry.cat.src[mid], ry.cat.tgt[mid]
        for xid, xobj in rx.objects.items():
            for eid in values.get((tgt_id, xid), ()):
                g, comps = content[eid]
                new_comps = tuple(
                    F.target_action[(m.components[i], comps[pk.images[i] - 1])]
                    for i in range(m.source.n)
                )
                target_action[(mid, eid)] = encode[(src_id, xid, K.resolve(K.mul(g, k)), new_comps)]

    decode = {eid: (K.els[g].key(), comps) for eid, (g, comps) in content.items()}
    prof = FinProf(
        f"lift_{F.name}", rx.cat, ry.cat, values, source_action, target_action
    )
    return LiftedProf(prof, decode)


def borel_functor(inst: ActionOperad, G: FinFunctor, max_arity: int):
    """Apply the Borel construction to a functor: objects map tuple-wise,
    morphisms keep their group part and map components through G."""
    G.validate()
    rx = borel_realization(inst, G.source, max_arity)
    ry = borel_realization(inst, G.target, max_arity)

    def image(o: BorelObject) -> BorelObject:
        return BorelObject(inst.name, o.n, tuple(G.ob[x] for x in o.objects))

    ob = {xid: _obj_id(image(xobj)) for xid, xobj in rx.objects.items()}
    mor = {}
    for mid, m in rx.morphisms.items():
        comps = tuple(G.mor[c] for c in m.components)
        mor[mid] = _mor_id(inst, BorelMorphism(image(m.source), image(m.target), m.g, comps))
    out = FinFunctor(f"borel_{G.name}", rx.cat, ry.cat, ob, mor)
    out.validate()
    return out, rx, ry


def lift_matches_plus(
    inst: ActionOperad, G: FinFunctor, max_arity: int
) -> dict[tuple[str, str], dict[str, str]]:
    """The explicit natural bijection between the lift of the
    plus-profunctor of G and the plus-profunctor of the Borel image of G,
    cell by cell; see :func:`match_lift`."""
    EG, rx, ry = borel_functor(inst, G, max_arity)
    lifted = lift_prof(from_functor(G), inst, max_arity, realizations=(rx, ry))
    return match_lift(inst, lifted, from_functor(EG), rx, ry)


def match_lift(
    inst: ActionOperad, lifted: LiftedProf, plus: FinProf, rx, ry
) -> dict[tuple[str, str], dict[str, str]]:
    """Match a lifted profunctor with a plus-profunctor over the Borel
    realizations ``rx`` and ``ry``, cell by cell.

    Raises if any cell fails to biject, or if the bijection does not
    commute with some source or target action entry of the lift.
    """
    bijection: dict[tuple[str, str], dict[str, str]] = {}
    for pair, lift_els in lifted.prof.values.items():
        yid, xid = pair
        plus_els = plus.values.get(pair, ())
        cell_map: dict[str, str] = {}
        # decode the plus side: element "mid@xid" wraps a target-category
        # morphism whose component i runs y_i -> G(x_{pi(g)(i)}); it pairs
        # with the lift component tagged by the source object x_{pi(g)(i)}
        xobj = rx.objects[xid]
        plus_content: dict[tuple, str] = {}
        for pel in plus_els:
            mid = pel.rsplit("@", 1)[0]
            m = ry.morphisms[mid]
            p = inst.pi(m.g)
            tagged = tuple(
                f"{c}@{xobj.objects[p.images[i] - 1]}" for i, c in enumerate(m.components)
            )
            plus_content[(m.g.key(), tagged)] = pel
        for lel in lift_els:
            gkey, comps = lifted.decode[lel]
            content = (gkey, tuple(comps))
            if content not in plus_content:
                raise ValueError(f"lift element {lel!r} has no plus-side partner at {pair!r}")
            cell_map[lel] = plus_content.pop(content)
        if plus_content:
            raise ValueError(f"plus side has unmatched elements at {pair!r}")
        bijection[pair] = cell_map
    to_plus = {lel: pel for cell in bijection.values() for lel, pel in cell.items()}
    for side, lift_action, plus_action in (
        ("source", lifted.prof.source_action, plus.source_action),
        ("target", lifted.prof.target_action, plus.target_action),
    ):
        for (mid, lel), out in lift_action.items():
            image = to_plus.get(out)
            if image is None or image != plus_action.get((mid, to_plus.get(lel))):
                raise ValueError(f"{side} action of {mid!r} on lift element {lel!r} does not match the plus side")
    return bijection
