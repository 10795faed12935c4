"""
The categorical Borel construction over a finite category.

For an action-operad instance and a finite category X, the arity-n piece
has as objects equivalence classes of pairs (group element; n objects of
X); every class has a unique normalized representative whose group
component is the unit, written ``[e; x1, ..., xn]``, and objects are
stored normalized so equality is syntactic.  A morphism from
``[e; x]`` to ``[e; y]`` is a pair (g, (f_i)) of a group element g at
arity n and X-morphisms f_i from x_i to y_{pi(g)(i)}; composition
multiplies the group parts and matches components through the underlying
permutation of the inner morphism.  Distinct arities admit no morphisms.

Hom-sets are enumerated fully when the arity group is finite; otherwise
the enumeration walks generator words up to a length bound and suppresses
duplicates only on the equality oracle's positive verdicts, and is
labelled as bounded in the result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import ActionOperad, OperadElement, _Kernel
from .fincat import FinCat
from .perm import act_on_positions


@dataclass(frozen=True)
class BorelObject:
    """The normalized class ``[e; objects]``."""

    operad: str
    n: int
    objects: tuple[str, ...]

    def __post_init__(self):
        if len(self.objects) != self.n:
            raise ValueError(f"arity {self.n} against {len(self.objects)} object(s)")


@dataclass(frozen=True)
class BorelMorphism:
    source: BorelObject
    target: BorelObject
    g: OperadElement
    components: tuple[str, ...]


def normalize(inst: ActionOperad, g: OperadElement, objects: Sequence[str]) -> BorelObject:
    """The normalized representative: push the group part into the tuple.

    ``[g; x]`` equals ``[e; x o pi(g)^-1]`` (entry i of the result is
    ``x[pi(g)^-1(i)]``).
    """
    inst.check_element(g)
    if g.n != len(objects):
        raise ValueError(f"arity mismatch: element of arity {g.n} with {len(objects)} object(s)")
    return BorelObject(inst.name, g.n, act_on_positions(inst.pi(g), tuple(objects)))


def check_morphism(inst: ActionOperad, X: FinCat, m: BorelMorphism) -> None:
    """Validate endpoints: component i must run x_i -> y_{pi(g)(i)}."""
    if m.source.n != m.target.n or m.g.n != m.source.n or len(m.components) != m.source.n:
        raise ValueError("arity mismatch inside morphism")
    p = inst.pi(m.g)
    for i in range(m.source.n):
        f = m.components[i]
        want_src = m.source.objects[i]
        want_tgt = m.target.objects[p.images[i] - 1]
        if X.src.get(f) != want_src or X.tgt.get(f) != want_tgt:
            raise ValueError(
                f"component {i + 1} ({f!r}) should run {want_src} -> {want_tgt}"
            )


@dataclass(frozen=True)
class HomEnumeration:
    morphisms: tuple[BorelMorphism, ...]
    complete: bool  # False when the group was walked to a length bound only


def group_elements(inst: ActionOperad, n: int, bound: int | None) -> tuple[tuple[OperadElement, ...], bool]:
    """The arity-n group: full enumeration when finite, else distinct
    representatives of generator words up to the length bound, the first
    word found of each element.  Words are told apart by the instance's
    normal form where it has one, else by the oracle."""
    els = inst.elements(n)
    if els is not None:
        return els, True
    if bound is None:
        raise ValueError(
            f"instance {inst.name!r} is not enumerable at arity {n}; supply a word-length bound"
        )
    gens = [g for _name, g in inst.generators(n)]
    signed = gens + [inst.inv(g) for g in gens]
    reps: list[OperadElement] = []
    forms = set()
    frontier = [inst.identity(n)]
    seen_words = set()
    for _depth in range(bound + 1):
        next_frontier = []
        for el in frontier:
            key = el.key()
            if key in seen_words:
                continue
            seen_words.add(key)
            form = inst.normal_form(el)
            if form is None:
                new = all(not inst.equal(el, r).is_equal for r in reps)
            else:
                new = form not in forms
                forms.add(form)
            if new:
                reps.append(el)
            if _depth < bound:
                next_frontier.extend(inst.mul(el, s) for s in signed)
        frontier = next_frontier
    return tuple(reps), False


def hom_set(
    inst: ActionOperad,
    X: FinCat,
    src: BorelObject,
    tgt: BorelObject,
    bound: int | None = None,
) -> HomEnumeration:
    """All morphisms src -> tgt, in deterministic order.

    Across distinct arities the answer is empty (and complete).
    """
    if src.operad != inst.name or tgt.operad != inst.name:
        raise ValueError("objects belong to a different instance")
    if src.n != tgt.n:
        return HomEnumeration((), True)
    n = src.n
    els, complete = group_elements(inst, n, bound)
    out: list[BorelMorphism] = []
    for g in els:
        p = inst.pi(g)
        pools = []
        for i in range(n):
            pools.append(X.hom(src.objects[i], tgt.objects[p.images[i] - 1]))
        for comps in product(*pools):
            out.append(BorelMorphism(src, tgt, g, comps))
    return HomEnumeration(tuple(out), complete)


def identity_morphism(inst: ActionOperad, X: FinCat, obj: BorelObject) -> BorelMorphism:
    return BorelMorphism(
        obj, obj, inst.identity(obj.n), tuple(X.identity_of(x) for x in obj.objects)
    )


def compose_borel(inst: ActionOperad, X: FinCat, m2: BorelMorphism, m1: BorelMorphism) -> BorelMorphism:
    """The composite m2 after m1: group parts multiply, and component i is
    the m2-component sitting at slot pi(g1)(i) composed onto m1's."""
    if m1.target != m2.source:
        raise ValueError("non-composable: target of the first differs from source of the second")
    g = inst.mul(m2.g, m1.g)
    p1 = inst.pi(m1.g)
    comps = tuple(
        X.compose(m2.components[p1.images[i] - 1], m1.components[i]) for i in range(m1.source.n)
    )
    out = BorelMorphism(m1.source, m2.target, g, comps)
    return out


def act(inst: ActionOperad, X: FinCat, g: OperadElement, obj: BorelObject) -> BorelMorphism:
    """The pure-group morphism (g, identities) from [e; x] to its
    g-normalized target."""
    if g.n != obj.n:
        raise ValueError(f"arity mismatch: element of arity {g.n} acting at {obj.n}")
    target = normalize(inst, g, obj.objects)
    comps = tuple(X.identity_of(x) for x in obj.objects)
    return BorelMorphism(obj, target, g, comps)


def borel_unit(inst: ActionOperad, x: str) -> BorelObject:
    """Arity-1 inclusion of an object."""
    return BorelObject(inst.name, 1, (x,))


def borel_mult(inst: ActionOperad, g: OperadElement, inners: Sequence[BorelObject]) -> BorelObject:
    """Flatten a formal tuple of normalized tuples through the block
    diagonal of the outer element."""
    if g.n != len(inners):
        raise ValueError(f"arity mismatch: outer arity {g.n} with {len(inners)} inner object(s)")
    sizes = [o.n for o in inners]
    flat = tuple(x for o in inners for x in o.objects)
    return normalize(inst, inst.delta(g, sizes), flat)


@dataclass(frozen=True)
class InfinityReport:
    operad: str
    arity: int
    size: int
    contractible: bool
    free: bool
    details: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.contractible and self.free


def contractible_free_check(inst: ActionOperad, n: int) -> InfinityReport:
    """Check that the translation category on the arity-n group is
    contractible (exactly one morphism between any two objects) and that
    right multiplication acts freely (trivial stabilizers).

    The morphisms g -> h are the k with g*k = h, so one pass over the
    |G|^2 products, made by the instance's ``mul`` and matched against the
    enumerated elements by the kernel's identity rule, gives every hom-set.
    """
    K = _Kernel(inst, (n,))
    els = K.elements(n)
    e = K.identity(n)
    hom_sizes = Counter()
    stabilizers = []
    for k in els:
        is_unit = K.equal(k, e).is_equal
        for g in els:
            j = K.resolve(K.mul(g, k))
            if j is None:
                continue
            hom_sizes[g, j] += 1
            if j == g and not is_unit:
                stabilizers.append(f"stabilizer: g*h = g for g={K.format(g)}, h={K.format(k)}")
    details = [
        f"hom({K.format(g)},{K.format(h)}) has {hom_sizes[g, h]} morphisms"
        for g in els
        for h in els
        if hom_sizes[g, h] != 1
    ]
    contractible = not details
    details.extend(stabilizers)
    return InfinityReport(inst.name, n, len(els), contractible, not stabilizers, tuple(details))


@dataclass(frozen=True)
class BorelRealization:
    """The materialized construction, with each object and morphism id
    decoded (the ids are ``_obj_id`` and ``_mor_id`` of what they name)."""

    cat: FinCat
    objects: dict[str, BorelObject]
    morphisms: dict[str, BorelMorphism]


def borel_realization(inst: ActionOperad, X: FinCat, max_arity: int) -> BorelRealization:
    """Materialize the Borel construction at arities <= max_arity as an
    explicit finite category (objects: normalized tuples).  The groups at
    those arities must be finite: a truncated group is not closed under
    composition."""
    K = _Kernel(inst, range(max_arity + 1))
    objs: list[BorelObject] = []
    for n in range(max_arity + 1):
        for tup in product(X.objects, repeat=n):
            objs.append(BorelObject(inst.name, n, tup))
    obj_ids = {o: _obj_id(o) for o in objs}
    morphisms: dict[str, BorelMorphism] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    group: dict[str, int] = {}  # id -> kernel index of the group part
    ids: dict[tuple, str] = {}  # (source id, target id, group index, components) -> id
    for a in objs:
        for b in objs:
            if a.n != b.n:
                continue
            for m in hom_set(inst, X, a, b).morphisms:
                mid = _mor_id(inst, m)
                morphisms[mid] = m
                src[mid] = obj_ids[a]
                tgt[mid] = obj_ids[b]
                group[mid] = K.intern(m.g)
                ids[src[mid], tgt[mid], group[mid], m.components] = mid

    def named(source: BorelObject, target: BorelObject, g: int, comps: tuple) -> str:
        """The listed morphism whose group part the kernel resolves ``g``
        to; on a miss, the raw name, which ``validate`` reports."""
        mid = ids.get((obj_ids[source], obj_ids[target], K.resolve(g), comps))
        return mid or _mor_id(inst, BorelMorphism(source, target, K.els[g], comps))

    identities = {
        obj_ids[o]: named(o, o, K.identity(o.n), tuple(map(X.identity_of, o.objects))) for o in objs
    }
    table: dict[tuple[str, str], str] = {}
    by_source: dict[str, list[str]] = {}
    for mid in morphisms:
        by_source.setdefault(src[mid], []).append(mid)
    for mid1, m1 in morphisms.items():
        g1 = group[mid1]
        slots = [i - 1 for i in K.pi(g1).images]
        for mid2 in by_source.get(tgt[mid1], ()):
            m2 = morphisms[mid2]
            comps = tuple(X.compose(m2.components[s], f) for s, f in zip(slots, m1.components))
            table[(mid2, mid1)] = named(m1.source, m2.target, K.mul(group[mid2], g1), comps)
    cat = FinCat(
        f"borel_{inst.name}_{X.name}",
        tuple(obj_ids[o] for o in objs),
        tuple(morphisms),
        src,
        tgt,
        identities,
        table,
    )
    cat.validate()
    return BorelRealization(cat, {obj_ids[o]: o for o in objs}, morphisms)


def _obj_id(o: BorelObject) -> str:
    return "[" + ",".join(o.objects) + "]"


def _mor_id(inst: ActionOperad, m: BorelMorphism) -> str:
    return (
        _obj_id(m.source)
        + "--"
        + inst.format(m.g)
        + "|"
        + ",".join(m.components)
        + "->"
        + _obj_id(m.target)
    )
