"""
Finite categories presented by explicit composition tables.

A category is given by object ids, morphism ids with source and target,
an identity assignment, and a total composition table on composable
pairs.  ``validate`` checks closure, totality, the unit laws and
associativity over the whole table and reports the first failing triple.

The file format is a JSON document::

    {
      "objects": ["a", "b"],
      "morphisms": [{"id": "f", "src": "a", "tgt": "b"}, ...],
      "identities": {"a": "id_a", ...},
      "compose": [["g", "f", "gf"], ...]       # entry [g, f, h]: g after f is h
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence


@dataclass(frozen=True)
class FinCat:
    name: str
    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: Mapping[str, str]
    tgt: Mapping[str, str]
    identities: Mapping[str, str]
    table: Mapping[tuple[str, str], str]  # (g, f) -> g after f

    def identity_of(self, x: str) -> str:
        if x not in self.identities:
            raise ValueError(f"unknown object {x!r} in {self.name}")
        return self.identities[x]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._index[0].get((x, y), ())

    def arrows_into(self, x: str) -> Sequence[str]:
        return self._index[1].get(x, ())

    def arrows_from(self, x: str) -> Sequence[str]:
        return self._index[2].get(x, ())

    def compose(self, g: str, f: str) -> str:
        """The composite ``g`` after ``f``."""
        key = (g, f)
        if key not in self.table:
            raise ValueError(f"non-composable pair ({g!r}, {f!r}) in {self.name}")
        return self.table[key]

    @cached_property
    def _index(self) -> tuple[dict, dict, dict]:
        """The hom-sets, and the arrows into and out of each object, each
        in the order of ``morphisms``."""
        homs: dict[tuple[str, str], list[str]] = {}
        into: dict[str, list[str]] = {}
        out_of: dict[str, list[str]] = {}
        for m in self.morphisms:
            x, y = self.src[m], self.tgt[m]
            homs.setdefault((x, y), []).append(m)
            into.setdefault(y, []).append(m)
            out_of.setdefault(x, []).append(m)
        return {k: tuple(v) for k, v in homs.items()}, into, out_of

    def validate(self) -> None:
        """Raise ValueError naming the first failing law instance."""
        if len(set(self.objects)) != len(self.objects):
            raise ValueError(f"{self.name}: duplicate object ids")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise ValueError(f"{self.name}: duplicate morphism ids")
        for m in self.morphisms:
            if self.src.get(m) not in self.objects or self.tgt.get(m) not in self.objects:
                raise ValueError(f"{self.name}: morphism {m!r} has unknown endpoints")
        for x in self.objects:
            i = self.identities.get(x)
            if i not in self.morphisms or self.src[i] != x or self.tgt[i] != x:
                raise ValueError(f"{self.name}: object {x!r} lacks a valid identity")
        mset = set(self.morphisms)
        for (g, f), h in self.table.items():
            if g not in mset or f not in mset or h not in mset:
                raise ValueError(f"{self.name}: composition entry ({g}, {f}) -> {h} uses unknown ids")
            if self.src[g] != self.tgt[f]:
                raise ValueError(f"{self.name}: entry ({g}, {f}) is not composable")
            if self.src[h] != self.src[f] or self.tgt[h] != self.tgt[g]:
                raise ValueError(f"{self.name}: entry ({g}, {f}) -> {h} has wrong endpoints")
        # rows[g] maps each f composable with g to g after f, in the order of
        # arrows_into(src g); a triple is then two row lookups
        rows: dict[str, dict[str, str]] = {}
        for g in self.morphisms:
            row = rows[g] = {}
            for f in self.arrows_into(self.src[g]):
                if (g, f) not in self.table:
                    raise ValueError(f"{self.name}: missing composite for ({g!r}, {f!r})")
                row[f] = self.table[(g, f)]
        for f in self.morphisms:
            if rows[f][self.identities[self.src[f]]] != f:
                raise ValueError(f"{self.name}: right unit law fails at {f!r}")
            if rows[self.identities[self.tgt[f]]][f] != f:
                raise ValueError(f"{self.name}: left unit law fails at {f!r}")
        for h in self.morphisms:
            row_h = rows[h]
            for g, hg in row_h.items():
                row_hg = rows[hg]
                for f, gf in rows[g].items():
                    if row_hg[f] != row_h[gf]:
                        raise ValueError(
                            f"{self.name}: associativity fails on triple ({h!r}, {g!r}, {f!r})"
                        )


def doc_name(x) -> str:
    """A name read from a JSON document; anything but a string is a
    ``TypeError``, which the document loaders report as malformed."""
    if not isinstance(x, str):
        raise TypeError(f"expected a name, got {x!r}")
    return x


def read_json(path):
    """The JSON document in the file at ``path``.  A document nested too
    deeply to parse is a ``ValueError``, like any other malformed one."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON document nested too deeply") from None


def fincat_from_dict(doc: dict, name: str = "fincat") -> FinCat:
    try:
        objects = tuple(map(doc_name, doc["objects"]))
        arrows = [tuple(map(doc_name, (m["id"], m["src"], m["tgt"]))) for m in doc["morphisms"]]
        morphisms = tuple(m for m, _, _ in arrows)
        src = {m: x for m, x, _ in arrows}
        tgt = {m: y for m, _, y in arrows}
        identities = {doc_name(x): doc_name(i) for x, i in dict(doc["identities"]).items()}
        table = {(g, f): h for g, f, h in (map(doc_name, entry) for entry in doc["compose"])}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed category document: {exc}") from None
    cat = FinCat(name, objects, morphisms, src, tgt, identities, table)
    cat.validate()
    return cat


def load_fincat(path, name: str | None = None) -> FinCat:
    return fincat_from_dict(read_json(path), name or str(path))


def fincat_to_dict(cat: FinCat) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": [{"id": m, "src": cat.src[m], "tgt": cat.tgt[m]} for m in cat.morphisms],
        "identities": dict(cat.identities),
        "compose": [[g, f, h] for (g, f), h in sorted(cat.table.items())],
    }


# ---------------------------------------------------------------------------
# builders for common shapes
# ---------------------------------------------------------------------------


def discrete_category(objects: Sequence[str], name: str = "discrete") -> FinCat:
    """Only identity morphisms."""
    objs = tuple(objects)
    ids = {x: f"id_{x}" for x in objs}
    table = {(ids[x], ids[x]): ids[x] for x in objs}
    cat = FinCat(
        name,
        objs,
        tuple(ids[x] for x in objs),
        {ids[x]: x for x in objs},
        {ids[x]: x for x in objs},
        ids,
        table,
    )
    cat.validate()
    return cat


def group_category(elements: Sequence[str], mult: Mapping[tuple[str, str], str], unit: str, name: str = "bg") -> FinCat:
    """One object whose endomorphisms are the given group; the table entry
    (g, f) is g * f (f first under the package convention)."""
    table = {(g, f): mult[(g, f)] for g in elements for f in elements}
    cat = FinCat(
        name,
        ("*",),
        tuple(elements),
        {m: "*" for m in elements},
        {m: "*" for m in elements},
        {"*": unit},
        table,
    )
    cat.validate()
    return cat


def z2_category(name: str = "bz2") -> FinCat:
    """One object with endomorphism group of order two."""
    mult = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    return group_category(("e", "t"), mult, "e", name)


def arrow_category(name: str = "arrow") -> FinCat:
    """Two objects and one non-identity arrow between them."""
    cat = FinCat(
        name,
        ("a", "b"),
        ("id_a", "id_b", "f"),
        {"id_a": "a", "id_b": "b", "f": "a"},
        {"id_a": "a", "id_b": "b", "f": "b"},
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
        },
    )
    cat.validate()
    return cat


def translation_category(items: Sequence[str], name: str = "translation") -> FinCat:
    """Exactly one morphism between every ordered pair of objects.

    The morphism from x to y is named ``x>y``; composition collapses by
    endpoint bookkeeping, which forces all the category laws.
    """
    objs = tuple(items)
    morphisms = tuple(f"{x}>{y}" for x in objs for y in objs)
    src = {f"{x}>{y}": x for x in objs for y in objs}
    tgt = {f"{x}>{y}": y for x in objs for y in objs}
    identities = {x: f"{x}>{x}" for x in objs}
    table = {}
    for x in objs:
        for y in objs:
            for z in objs:
                table[(f"{y}>{z}", f"{x}>{y}")] = f"{x}>{z}"
    cat = FinCat(name, objs, morphisms, src, tgt, identities, table)
    cat.validate()
    return cat
