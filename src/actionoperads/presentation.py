"""
Typed generator collections, the free term language over them, and
presentation checking by evaluation.

A generator is a name with an arity and an assigned underlying
permutation.  Terms are unreduced trees over the constructors

    gen(name) | id(n) | mul(t, t) | inv(t) | beta(t, ...) | delta(t; [k, ...])

and are arity-checked structurally: mul and inv preserve arity, beta
sums arities, delta requires one width per input of its body.  No
normal forms are computed; term equality is only ever decided through
evaluation into a target instance followed by that instance's equality
oracle.  The underlying permutation of a term is its evaluation into
the symmetric instance, and any interpretation of the generators must
match the assigned permutations before evaluation proceeds.

A presentation is a generator collection plus relation pairs of terms;
pairs whose sides disagree in arity or in underlying permutation are
rejected at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import ActionOperad, DeterministicStream, OperadElement, symmetric_operad
from .fincat import read_json
from .perm import Perm, parse_perm
from .rewrite import EqResult


@dataclass(frozen=True)
class Generator:
    name: str
    arity: int
    perm: Perm

    def __post_init__(self):
        if self.perm.n != self.arity:
            raise ValueError(
                f"generator {self.name!r}: assigned permutation has arity "
                f"{self.perm.n}, declared {self.arity}"
            )


class GeneratorCollection:
    def __init__(self, generators: Sequence[Generator]):
        self._by_name = {}
        for g in generators:
            if g.name in self._by_name:
                raise ValueError(f"duplicate generator name {g.name!r}")
            self._by_name[g.name] = g

    def __getitem__(self, name: str) -> Generator:
        if name not in self._by_name:
            raise ValueError(f"unknown generator {name!r}")
        return self._by_name[name]

    def __iter__(self):
        return iter(self._by_name.values())

    def names(self):
        return tuple(self._by_name)


# -- term constructors -------------------------------------------------------


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class IdT:
    n: int


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Inv:
    body: "Term"


@dataclass(frozen=True)
class BetaT:
    parts: tuple["Term", ...]


@dataclass(frozen=True)
class DeltaT:
    body: "Term"
    sizes: tuple[int, ...]


Term = Gen | IdT | Mul | Inv | BetaT | DeltaT


def term_arity(t: Term, gens: GeneratorCollection) -> int:
    """The arity of a term, checking consistency along the way."""
    if isinstance(t, Gen):
        return gens[t.name].arity
    if isinstance(t, IdT):
        if t.n < 0:
            raise ValueError(f"id arity must be >= 0, got {t.n}")
        return t.n
    if isinstance(t, Mul):
        a, b = term_arity(t.left, gens), term_arity(t.right, gens)
        if a != b:
            raise ValueError(f"mul of terms at arities {a} and {b}")
        return a
    if isinstance(t, Inv):
        return term_arity(t.body, gens)
    if isinstance(t, BetaT):
        return sum(term_arity(p, gens) for p in t.parts)
    if isinstance(t, DeltaT):
        a = term_arity(t.body, gens)
        if a != len(t.sizes):
            raise ValueError(f"delta of arity-{a} term with {len(t.sizes)} width(s)")
        if any(k < 0 for k in t.sizes):
            raise ValueError("delta widths must be >= 0")
        return sum(t.sizes)
    raise ValueError(f"not a term: {t!r}")


def term_pi(t: Term, gens: GeneratorCollection) -> Perm:
    """The underlying permutation: evaluate in the symmetric groups, each
    generator at its assigned permutation."""
    term_arity(t, gens)
    sym = symmetric_operad()
    interp = {g.name: OperadElement(sym.name, g.arity, g.perm) for g in gens}
    return _eval(t, interp, sym).payload


def check_interpretation(
    gens: GeneratorCollection, interp: Mapping[str, OperadElement], inst: ActionOperad
) -> None:
    """Every generator must be interpreted at its arity with the assigned
    underlying permutation."""
    for g in gens:
        if g.name not in interp:
            raise ValueError(f"no interpretation for generator {g.name!r}")
        el = interp[g.name]
        inst.check_element(el)
        if el.n != g.arity:
            raise ValueError(
                f"generator {g.name!r} interpreted at arity {el.n}, declared {g.arity}"
            )
        if inst.pi(el) != g.perm:
            raise ValueError(
                f"interpretation of {g.name!r} has the wrong underlying permutation"
            )


def eval_term(
    t: Term,
    interp: Mapping[str, OperadElement],
    inst: ActionOperad,
    gens: GeneratorCollection,
) -> OperadElement:
    """Homomorphic evaluation; the interpretation is validated first."""
    check_interpretation(gens, interp, inst)
    term_arity(t, gens)
    return _eval(t, interp, inst)


def _eval(t: Term, interp: Mapping[str, OperadElement], inst: ActionOperad) -> OperadElement:
    """:func:`eval_term` on a checked term and interpretation."""
    if isinstance(t, Gen):
        return interp[t.name]
    if isinstance(t, IdT):
        return inst.identity(t.n)
    if isinstance(t, Mul):
        return inst.mul(_eval(t.left, interp, inst), _eval(t.right, interp, inst))
    if isinstance(t, Inv):
        return inst.inv(_eval(t.body, interp, inst))
    if isinstance(t, BetaT):
        return inst.beta([_eval(p, interp, inst) for p in t.parts])
    # a delta: term_arity has rejected everything else
    return inst.delta(_eval(t.body, interp, inst), t.sizes)


# -- parsing -----------------------------------------------------------------


def parse_term(text: str) -> Term:
    """Parse the term syntax used in presentation files.

    >>> parse_term("mul(gen(s), id(2))")
    Mul(left=Gen(name='s'), right=IdT(n=2))
    >>> parse_term("delta(gen(s); [2,1])")
    DeltaT(body=Gen(name='s'), sizes=(2, 1))
    """
    term, pos = _parse(text, 0, MAX_TERM_DEPTH)
    if text[pos:].strip():
        raise ValueError(f"trailing input after term: {text[pos:]!r}")
    return term


def _skip(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text: str, pos: int, token: str) -> int:
    pos = _skip(text, pos)
    if not text.startswith(token, pos):
        raise ValueError(f"expected {token!r} at position {pos} in {text!r}")
    return pos + len(token)


# The term walkers recurse once per level; the parser stops deeper terms
# well inside the interpreter's recursion limit.
MAX_TERM_DEPTH = 200


def _parse(text: str, pos: int, depth: int) -> tuple[Term, int]:
    pos = _skip(text, pos)
    if not depth:
        raise ValueError(f"term nests deeper than {MAX_TERM_DEPTH} levels at position {pos}")
    depth -= 1
    for head in ("gen", "id", "mul", "inv", "beta", "delta"):
        if text.startswith(head + "(", pos) or (
            text.startswith(head, pos) and _skip(text, pos + len(head)) < len(text)
            and text[_skip(text, pos + len(head))] == "("
        ):
            pos = _expect(text, pos + len(head), "(")
            break
    else:
        raise ValueError(f"expected a term at position {pos} in {text!r}")

    if head == "gen":
        end = text.index(")", pos)
        name = text[pos:end].strip()
        if not name:
            raise ValueError("empty generator name")
        return Gen(name), end + 1
    if head == "id":
        end = text.index(")", pos)
        return IdT(int(text[pos:end].strip())), end + 1
    if head == "mul":
        left, pos = _parse(text, pos, depth)
        pos = _expect(text, pos, ",")
        right, pos = _parse(text, pos, depth)
        pos = _expect(text, pos, ")")
        return Mul(left, right), pos
    if head == "inv":
        body, pos = _parse(text, pos, depth)
        pos = _expect(text, pos, ")")
        return Inv(body), pos
    if head == "beta":
        parts = []
        first, pos = _parse(text, pos, depth)
        parts.append(first)
        while True:
            pos = _skip(text, pos)
            if text.startswith(",", pos):
                nxt, pos = _parse(text, pos + 1, depth)
                parts.append(nxt)
            else:
                break
        pos = _expect(text, pos, ")")
        return BetaT(tuple(parts)), pos
    # delta
    body, pos = _parse(text, pos, depth)
    pos = _expect(text, pos, ";")
    pos = _expect(text, pos, "[")
    end = text.index("]", pos)
    sizes = tuple(int(x) for x in text[pos:end].split(",") if x.strip())
    pos = _expect(text, end + 1, ")")
    return DeltaT(body, sizes), pos


def format_term(t: Term) -> str:
    if isinstance(t, Gen):
        return f"gen({t.name})"
    if isinstance(t, IdT):
        return f"id({t.n})"
    if isinstance(t, Mul):
        return f"mul({format_term(t.left)}, {format_term(t.right)})"
    if isinstance(t, Inv):
        return f"inv({format_term(t.body)})"
    if isinstance(t, BetaT):
        return "beta(" + ", ".join(format_term(p) for p in t.parts) + ")"
    if isinstance(t, DeltaT):
        return f"delta({format_term(t.body)}; [" + ",".join(str(k) for k in t.sizes) + "])"
    raise ValueError(f"not a term: {t!r}")


# -- presentations -----------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    name: str
    generators: GeneratorCollection
    relations: tuple[tuple[Term, Term], ...]


def validate_presentation(p: Presentation) -> None:
    """Relation sides must agree in arity and in underlying permutation."""
    for idx, (lhs, rhs) in enumerate(p.relations):
        a, b = term_arity(lhs, p.generators), term_arity(rhs, p.generators)
        if a != b:
            raise ValueError(f"relation {idx}: arities {a} and {b} differ")
        if term_pi(lhs, p.generators) != term_pi(rhs, p.generators):
            raise ValueError(f"relation {idx}: underlying permutations differ")


@dataclass
class RelationOutcome:
    index: int
    lhs: str
    rhs: str
    result: EqResult


@dataclass
class PresentationReport:
    presentation: str
    operad: str
    outcomes: list[RelationOutcome]

    @property
    def all_hold(self) -> bool:
        return all(o.result.is_equal for o in self.outcomes)

    @property
    def inconclusive(self) -> int:
        return sum(1 for o in self.outcomes if o.result.is_inconclusive)

    def format_text(self) -> str:
        lines = [f"presentation {self.presentation} into {self.operad}:"]
        for o in self.outcomes:
            lines.append(f"  relation {o.index}: {o.result.verdict}  ({o.lhs} = {o.rhs})")
        return "\n".join(lines)


def check_presentation(
    p: Presentation,
    interp: Mapping[str, OperadElement],
    inst: ActionOperad,
    budget: int | None = None,
) -> PresentationReport:
    """Evaluate both sides of every relation and ask the instance oracle."""
    validate_presentation(p)
    check_interpretation(p.generators, interp, inst)
    outcomes = []
    for idx, (lhs, rhs) in enumerate(p.relations):
        lv = _eval(lhs, interp, inst)
        rv = _eval(rhs, interp, inst)
        res = inst.equal(lv, rv, budget=budget)
        outcomes.append(RelationOutcome(idx, format_term(lhs), format_term(rhs), res))
    return PresentationReport(p.name, inst.name, outcomes)


def presentation_from_dict(doc: dict, name: str = "presentation") -> Presentation:
    try:
        gens = GeneratorCollection(
            [Generator(g["name"], g["arity"], parse_perm(g["pi"]) if isinstance(g["pi"], str) else Perm(tuple(g["pi"]))) for g in doc["generators"]]
        )
        relations = tuple(
            (parse_term(r["lhs"]), parse_term(r["rhs"])) for r in doc["relations"]
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed presentation document: {exc}") from None
    p = Presentation(name, gens, relations)
    validate_presentation(p)
    return p


def load_presentation(path, name: str | None = None) -> Presentation:
    return presentation_from_dict(read_json(path), name or str(path))


# -- deterministic term corpus ------------------------------------------------


def generate_terms(
    gens: GeneratorCollection, count: int, seed: int, max_depth: int = 4
) -> list[Term]:
    """A reproducible corpus of arity-consistent terms over the collection."""
    stream = DeterministicStream(seed)
    arities = sorted({g.arity for g in gens}) or [1]
    names = list(gens.names())

    def build(n: int, depth: int) -> Term:
        options = ["id"]
        if any(gens[nm].arity == n for nm in names):
            options += ["gen", "gen", "mul"]
        if depth > 0:
            options += ["mul", "inv", "beta", "delta"]
        pick = options[stream.next_int(len(options))]
        if pick == "gen":
            candidates = [nm for nm in names if gens[nm].arity == n]
            return Gen(candidates[stream.next_int(len(candidates))])
        if pick == "id" or depth == 0:
            return IdT(n)
        if pick == "mul":
            return Mul(build(n, depth - 1), build(n, depth - 1))
        if pick == "inv":
            return Inv(build(n, depth - 1))
        if pick == "beta":
            if n == 0:
                return BetaT(())
            cut = 1 + stream.next_int(max(1, n))
            cut = min(cut, n)
            return BetaT((build(cut, depth - 1), build(n - cut, depth - 1))) if n - cut > 0 else BetaT((build(n, depth - 1),))
        # delta: pick a body arity m <= n with a width vector summing to n
        m = 1 + stream.next_int(max(1, min(n, 3)))
        m = min(m, n) or 1
        sizes = []
        remaining = n
        for i in range(m):
            if i == m - 1:
                sizes.append(remaining)
            else:
                take = 1 + stream.next_int(max(1, remaining - (m - i - 1)))
                sizes.append(take)
                remaining -= take
        return DeltaT(build(m, depth - 1), tuple(sizes))

    out = []
    for _ in range(count):
        n = arities[stream.next_int(len(arities))]
        out.append(build(n, 1 + stream.next_int(max_depth)))
    return out
