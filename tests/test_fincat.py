"""Finite categories: table validation, rejection messages, file format."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from actionoperads.fincat import (
    FinCat,
    arrow_category,
    discrete_category,
    fincat_from_dict,
    fincat_to_dict,
    group_category,
    load_fincat,
    translation_category,
    z2_category,
)


class TestBuilders:
    def test_discrete(self):
        cat = discrete_category(("a", "b"))
        assert cat.hom("a", "a") == ("id_a",)
        assert cat.hom("a", "b") == ()

    def test_z2(self):
        cat = z2_category()
        assert set(cat.hom("*", "*")) == {"e", "t"}
        assert cat.compose("t", "t") == "e"

    def test_arrow(self):
        cat = arrow_category()
        assert cat.hom("a", "b") == ("f",)
        assert cat.compose("id_b", "f") == "f"

    def test_translation(self):
        cat = translation_category(("x", "y", "z"))
        for a in cat.objects:
            for b in cat.objects:
                assert len(cat.hom(a, b)) == 1

    def test_group_category_cyclic6(self):
        els = ("e", "r", "rr", "s", "rs", "rrs")
        mult = {}
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                mult[(a, b)] = els[(i + j) % 6]
        cat = group_category(els, mult, "e", name="bz6")
        assert cat.compose("r", "rrs") == "e"
        assert cat.compose("rr", "s") == "rrs"


class TestValidation:
    def test_missing_composite_named(self):
        cat = FinCat(
            "broken",
            ("a",),
            ("id_a", "f"),
            {"id_a": "a", "f": "a"},
            {"id_a": "a", "f": "a"},
            {"a": "id_a"},
            {("id_a", "id_a"): "id_a", ("f", "id_a"): "f", ("id_a", "f"): "f"},
        )
        with pytest.raises(ValueError, match="missing composite"):
            cat.validate()

    def test_unit_law_failure_named(self):
        cat = FinCat(
            "broken",
            ("a",),
            ("id_a", "f"),
            {"id_a": "a", "f": "a"},
            {"id_a": "a", "f": "a"},
            {"a": "id_a"},
            {
                ("id_a", "id_a"): "id_a",
                ("f", "id_a"): "id_a",
                ("id_a", "f"): "f",
                ("f", "f"): "id_a",
            },
        )
        with pytest.raises(ValueError, match="unit law"):
            cat.validate()

    def test_associativity_failure_names_triple(self):
        # a three-element "composition" that is not associative
        els = ("e", "x", "y")
        table = {}
        for a in els:
            for b in els:
                if a == "e":
                    table[(a, b)] = b
                elif b == "e":
                    table[(a, b)] = a
                else:
                    table[(a, b)] = "e" if a == b else "x"
        table[("x", "y")] = "y"
        cat = FinCat(
            "broken",
            ("*",),
            els,
            {m: "*" for m in els},
            {m: "*" for m in els},
            {"*": "e"},
            table,
        )
        with pytest.raises(ValueError, match="associativity fails on triple"):
            cat.validate()

    def test_bad_identity_rejected(self):
        cat = FinCat("broken", ("a",), ("f",), {"f": "a"}, {"f": "a"}, {}, {("f", "f"): "f"})
        with pytest.raises(ValueError, match="identity"):
            cat.validate()

    # an arrow a -> b written out by hand; each case plants one defect in it
    ARROW = FinCat(
        "hand",
        ("a", "b"),
        ("id_a", "id_b", "f"),
        {"id_a": "a", "id_b": "b", "f": "a"},
        {"id_a": "a", "id_b": "b", "f": "b"},
        {"a": "id_a", "b": "id_b"},
        {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("f", "id_a"): "f", ("id_b", "f"): "f"},
    )

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda c: replace(c, objects=("a", "b", "a")).validate(), "hand: duplicate object ids"),
            (lambda c: replace(c, morphisms=(*c.morphisms, "f")).validate(), "hand: duplicate morphism ids"),
            (
                lambda c: replace(c, src={**c.src, "f": "c"}).validate(),
                "hand: morphism 'f' has unknown endpoints",
            ),
            (
                lambda c: replace(c, table={**c.table, ("f", "f"): "f"}).validate(),
                "hand: entry (f, f) is not composable",
            ),
            (lambda c: c.compose("f", "f"), "non-composable pair ('f', 'f') in hand"),
        ],
        ids=["duplicate-object", "duplicate-morphism", "unknown-endpoint", "non-composable-entry", "compose"],
    )
    def test_each_rejection_names_its_defect(self, broken, message):
        self.ARROW.validate()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            broken(self.ARROW)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        cat = arrow_category()
        doc = fincat_to_dict(cat)
        back = fincat_from_dict(doc, "arrow")
        assert back.objects == cat.objects
        assert set(back.morphisms) == set(cat.morphisms)
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        loaded = load_fincat(path, name="arrow")
        assert loaded.hom("a", "b") == ("f",)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            fincat_from_dict({"objects": ["a"]})

    @pytest.mark.parametrize(
        "morphism, identity, entry",
        [
            ({"id": 1, "src": "a", "tgt": "a"}, 1, [1, 1, 1]),
            ({"id": "e", "src": 0, "tgt": "a"}, "e", ["e", "e", "e"]),
            ({"id": "e", "src": "a", "tgt": "a"}, ["e"], ["e", "e", "e"]),
            ({"id": "e", "src": "a", "tgt": "a"}, "e", ["e", "e", None]),
        ],
        ids=["id", "src", "identity", "composite"],
    )
    def test_names_that_are_not_strings_are_malformed(self, morphism, identity, entry):
        # the first case passes FinCat.validate, and the Borel engine joins
        # names as strings
        doc = {"objects": ["a"], "morphisms": [morphism], "identities": {"a": identity}, "compose": [entry]}
        with pytest.raises(ValueError, match="^malformed category document: expected a name"):
            fincat_from_dict(doc)

    def test_invalid_table_rejected(self):
        doc = {
            "objects": ["a"],
            "morphisms": [{"id": "id_a", "src": "a", "tgt": "a"}],
            "identities": {"a": "id_a"},
            "compose": [],
        }
        with pytest.raises(ValueError, match="missing composite"):
            fincat_from_dict(doc)
