"""Instance layer: group/operad operations, mu, and the axiom checker."""

from __future__ import annotations

import dataclasses
import gc
import random
from collections import Counter

import pytest

from actionoperads.borel import borel_realization, contractible_free_check
from actionoperads.braid import BraidOperad
from actionoperads.club import operad_from_club
from actionoperads.core import (
    AxiomCheckConfig,
    DeterministicStream,
    OperadElement,
    SymmetricOperad,
    _element,
    _Kernel,
    check_axioms,
    get_operad,
    symmetric_operad,
    trivial_operad,
)
from actionoperads.fincat import discrete_category
from actionoperads.multicat import identity_prof, lift_prof, operad_as_multicat
from actionoperads.perm import Perm, all_perms, identity
from oracles import reference_pi
from planted import IdentityDelta, UnreducedCactus

SYM = symmetric_operad()
TRIV = trivial_operad()


def sym_el(*images) -> OperadElement:
    return OperadElement("sym", len(images), Perm(tuple(images)))


class TestSymmetricInstance:
    def test_pi_is_identity_map(self):
        g = sym_el(3, 1, 2)
        assert SYM.pi(g).images == (3, 1, 2)

    def test_beta_matches_block_sum(self):
        got = SYM.beta([sym_el(2, 1), sym_el(2, 3, 1)])
        assert got.payload.images == (2, 1, 4, 5, 3)

    def test_beta_singleton(self):
        g = sym_el(2, 1)
        assert SYM.beta([g]) == g

    def test_delta_matches_block_perm(self):
        got = SYM.delta(sym_el(2, 1), (2, 1))
        assert got.payload.images == (2, 3, 1)

    def test_delta_unit_sizes(self):
        g = sym_el(3, 1, 2)
        assert SYM.delta(g, (1, 1, 1)) == g

    def test_mu_unit_laws(self):
        g = sym_el(2, 1)
        assert SYM.mu(SYM.identity(1), [g]) == g
        assert SYM.mu(g, [SYM.identity(1), SYM.identity(1)]) == g

    def test_mu_worked_example(self):
        # delta([2,1],[1,2]) . beta(e1,[2,1]) = [3,1,2] . [1,3,2] = [3,2,1]
        got = SYM.mu(sym_el(2, 1), [SYM.identity(1), sym_el(2, 1)])
        assert got.payload.images == (3, 2, 1)

    def test_mu_collapses_to_delta_on_units(self):
        g = sym_el(2, 1)
        units = [SYM.identity(2), SYM.identity(3)]
        assert SYM.mu(g, units) == SYM.delta(g, (2, 3))

    def test_mu_arity_mismatch(self):
        with pytest.raises(ValueError):
            SYM.mu(sym_el(2, 1), [SYM.identity(1)])

    def test_mixed_instance_rejected(self):
        with pytest.raises(ValueError):
            SYM.mul(sym_el(2, 1), TRIV.identity(2))

    def test_equal_is_exact(self):
        assert SYM.equal(sym_el(2, 1), sym_el(2, 1)).is_equal
        res = SYM.equal(sym_el(2, 1), SYM.identity(2))
        assert res.is_distinct

    def test_generator_word_reconstructs(self):
        gens = dict(SYM.generators(4))
        for g in SYM.elements(4):
            prod = SYM.identity(4)
            for name, sign in SYM.generator_word(g):
                prod = SYM.mul(prod, gens[name] if sign == 1 else SYM.inv(gens[name]))
            assert prod == g

    def test_parse_format(self):
        g = SYM.parse("[2,1,3]", 3)
        assert SYM.format(g) == "[2,1,3]"
        with pytest.raises(ValueError):
            SYM.parse("[2,1]", 3)


class TestElementHelper:
    def test_same_value_as_the_dataclass_init(self):
        braid = get_operad("braid")
        payloads = [("sym", p.n, p) for n in range(4) for p in all_perms(n)]
        payloads += [("braid", 3, braid.parse(w, 3).payload) for w in ("e", "b1 B2", "b2 b1 b2")]
        payloads.append(("trivial", 2, None))
        for operad, n, payload in payloads:
            built, want = _element(operad, n, payload), OperadElement(operad, n, payload)
            assert type(built) is OperadElement
            assert built == want and hash(built) == hash(want) and built.key() == want.key()
            assert repr(built) == repr(want)

    def test_stays_frozen(self):
        a = SYM.mul(sym_el(2, 1), sym_el(2, 1))
        for field in ("operad", "n", "payload"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, field, None)
        with pytest.raises((AttributeError, TypeError)):
            a.extra = 1


class TestTrivialInstance:
    def test_everything_is_the_unit(self):
        e = TRIV.identity(3)
        assert TRIV.mul(e, e) == e
        assert TRIV.inv(e) == e
        assert TRIV.pi(e) == identity(3)
        assert TRIV.beta([TRIV.identity(1), TRIV.identity(2)]) == TRIV.identity(3)
        assert TRIV.delta(e, (2, 0, 1)) == TRIV.identity(3)

    def test_equal(self):
        assert TRIV.equal(TRIV.identity(2), TRIV.identity(2)).is_equal

    # the one-element groups at arities 0-4, written out
    PI_IMAGES = {0: (), 1: (1,), 2: (1, 2), 3: (1, 2, 3), 4: (1, 2, 3, 4)}
    BETA = [((), 0), ((0,), 0), ((1, 0, 2), 3), ((2, 2), 4), ((1, 1, 1, 1), 4), ((4, 0), 4)]
    DELTA = {0: [((), 0)], 1: [((0,), 0), ((3,), 3)], 2: [((2, 3), 5), ((0, 0), 0)],
             3: [((1, 1, 1), 3), ((2, 0, 1), 3)], 4: [((1, 0, 2, 1), 4), ((0, 0, 0, 0), 0)]}

    @pytest.mark.parametrize("n", range(5))
    def test_pinned_values(self, n):
        e = TRIV.identity(n)
        assert (e.operad, e.n, TRIV.format(e)) == ("trivial", n, "e")
        assert TRIV.mul(e, e) == e and TRIV.inv(e) == e
        assert TRIV.pi(e).images == self.PI_IMAGES[n]
        for sizes, total in self.DELTA[n]:
            assert TRIV.format(TRIV.delta(e, sizes)) == "e" and TRIV.delta(e, sizes).n == total
        res = TRIV.equal(e, e)
        assert (res.verdict, res.stop, res.states, res.path.meet) == ("equal", "met", 0, ())
        assert TRIV.elements(n) == (e,)
        assert TRIV.generators(n) == ()
        assert TRIV.generator_word(e) == ()

    def test_pinned_block_sums(self):
        for arities, total in self.BETA:
            out = TRIV.beta([TRIV.identity(k) for k in arities])
            assert (out.n, TRIV.format(out)) == (total, "e")

    def test_reads_the_word_syntax(self):
        for text in ("e", "", "e e"):
            assert TRIV.parse(text, 2) == TRIV.identity(2)
        assert TRIV.identity(2).key() == ("trivial", 2, ())
        with pytest.raises(ValueError, match="'x' is not a trivial letter at arity 2"):
            TRIV.parse("e x", 2)

    def test_rejects_what_the_word_instances_reject(self):
        e = TRIV.identity(2)
        with pytest.raises(ValueError, match="arity mismatch multiplying"):
            TRIV.mul(e, TRIV.identity(3))
        with pytest.raises(ValueError, match="arity mismatch: delta of arity 2"):
            TRIV.delta(e, (1,))
        with pytest.raises(ValueError, match="block sizes must be >= 0"):
            TRIV.delta(e, (1, -1))


class TestCheckAxioms:
    def test_symmetric_exhaustive_small(self):
        rep = check_axioms(SYM, AxiomCheckConfig(max_total_arity=3))
        assert rep.mode == "exhaustive"
        assert rep.passed(strict=True)

    def test_trivial_exhaustive(self):
        rep = check_axioms(TRIV, AxiomCheckConfig(max_total_arity=4))
        assert rep.passed(strict=True)

    def test_broken_delta_fails_twist_axiom(self):
        rep = check_axioms(IdentityDelta(), AxiomCheckConfig(max_total_arity=3))
        assert not rep.passed()
        twist = rep.outcomes["delta_beta_twist"]
        assert twist.failures, "the twist law should expose an identity-shaped delta"
        assert twist.failures[0].inputs  # counterexample is replayable from the report

    def test_broken_beta_fails_naturality(self):
        class BrokenBeta(SymmetricOperad):
            def beta(self, els):
                for e in els:
                    self.check_element(e)
                return self.identity(sum(e.n for e in els))

        rep = check_axioms(BrokenBeta(), AxiomCheckConfig(max_total_arity=3))
        assert rep.outcomes["beta_naturality"].failures

    def test_sampled_mode_deterministic(self):
        cfg = AxiomCheckConfig(samples_per_axiom=10, seed=11)
        braid = get_operad("braid")
        r1 = check_axioms(braid, cfg)
        r2 = check_axioms(braid, cfg)
        assert r1.to_dict() == r2.to_dict()
        assert r1.mode == "sampled"

    @pytest.mark.parametrize(
        "field, value, low",
        [("max_total_arity", -1, 0), ("samples_per_axiom", -3, 0), ("max_word_length", -2, 0),
         ("max_block_size", 0, 1)],
    )
    def test_config_bounds_name_the_field(self, field, value, low):
        with pytest.raises(ValueError) as info:
            AxiomCheckConfig(**{field: value})
        assert str(info.value) == f"{field} must be >= {low}, got {value}"

    def test_sampled_arity_cap_of_zero(self):
        # the one capped draw gives arity 0; every other draw is >= 1
        class Recording(BraidOperad):
            def elements(self, n):
                return None  # the arity-0 group is listed: hide it to sample

            def sample(self, n, stream, max_word_len):
                drawn.append(n)
                return super().sample(n, stream, max_word_len)

        drawn = []
        config = AxiomCheckConfig(max_total_arity=0, samples_per_axiom=3)
        rep = check_axioms(Recording(), config)
        assert rep.mode == "sampled" and rep.passed(strict=True)
        # per round: two for pi_homomorphism, one for the unit laws, two
        # for delta naturality and the product twist, one for delta_beta_twist
        assert drawn.count(0) == 6 * 3

    def test_report_formats(self):
        rep = check_axioms(TRIV, AxiomCheckConfig(max_total_arity=2))
        text = rep.format_text()
        assert "axiom report" in text and "PASS" in text
        d = rep.to_dict()
        assert set(d["axioms"]) == set(rep.outcomes)


class TestKernel:
    def test_results_outside_the_enumeration_get_fresh_indices(self):
        K = _Kernel(UnreducedCactus(), (2,))
        e, s = K.elements(2)
        ss = K.mul(s, s)
        assert ss not in K.elements(2) and K.mul(s, s) == ss
        assert K.format(ss) == "s(1,2) s(1,2)"
        # different indices: the oracle decides, and finds them equal
        assert K.equal(ss, e).is_equal and not K.equal(s, e).is_equal

    def test_each_entry_is_computed_once(self):
        class Counting(SymmetricOperad):
            def __init__(self):
                super().__init__()
                self.calls = Counter()

            def pi(self, a):
                self.calls["pi", a.key()] += 1
                return super().pi(a)

            def inv(self, a):
                self.calls["inv", a.key()] += 1
                return super().inv(a)

        inst = Counting()
        assert check_axioms(inst, AxiomCheckConfig(max_total_arity=4)).passed(strict=True)
        assert inst.calls and max(inst.calls.values()) == 1

    def test_resolve_matches_computed_elements_to_enumerated_ones(self):
        K = _Kernel(UnreducedCactus(), (2,))
        e, s = K.elements(2)
        # the unreduced product gets a fresh index, which the oracle equates
        # with the unit; an enumerated element resolves to itself
        assert K.resolve(K.mul(s, s)) == e
        assert K.resolve(s) == s
        # nothing at an arity that was not enumerated
        assert K.resolve(K.identity(1)) is None

    def test_tables_are_freed_when_the_call_returns(self):
        point = discrete_category(("a",), name="pt")
        runs = [
            lambda: check_axioms(SYM, AxiomCheckConfig(max_total_arity=3)),
            lambda: check_axioms(get_operad("braid"), AxiomCheckConfig(samples_per_axiom=2)),
            lambda: contractible_free_check(SYM, 3),
            lambda: operad_as_multicat(SYM, 2),
            lambda: lift_prof(identity_prof(point), SYM, 2),
            lambda: borel_realization(SYM, point, 2),
        ]
        for run in runs:
            out = run()  # the result is kept: it must not hold the tables
            gc.collect()
            assert not any(isinstance(o, _Kernel) for o in gc.get_objects()), out


class TestCompositeDiagonal:
    def test_delta_of_composite_reduces_to_product_of_diagonals(self):
        # delta(mu(f; g), widths) equals delta(f, blockwise width sums)
        # times delta(beta(g), widths), exhaustively at small arity
        import itertools

        for n in (1, 2):
            for msizes in itertools.product((1, 2), repeat=n):
                M = sum(msizes)
                for jsizes in itertools.product((1, 2), repeat=M):
                    psums = []
                    idx = 0
                    for m in msizes:
                        psums.append(sum(jsizes[idx : idx + m]))
                        idx += m
                    for f in SYM.elements(n):
                        for gs in itertools.product(*[SYM.elements(m) for m in msizes]):
                            lhs = SYM.mul(
                                SYM.delta(f, tuple(psums)),
                                SYM.delta(SYM.beta(list(gs)), jsizes),
                            )
                            rhs = SYM.delta(SYM.mu(f, list(gs)), jsizes)
                            assert lhs == rhs

    def test_same_reduction_on_word_instances(self):
        import itertools

        cact = get_operad("cactus")
        braid = get_operad("braid")
        for inst, gword in ((cact, "s(1,2)"), (braid, "b1")):
            g = inst.parse(gword, 2)
            f = inst.parse(gword, 2)
            for jsizes in itertools.product((1, 2), repeat=3):
                lhs = inst.mul(
                    inst.delta(f, (sum(jsizes[:2]), jsizes[2])),
                    inst.delta(inst.beta([g, inst.identity(1)]), jsizes),
                )
                rhs = inst.delta(inst.mu(f, [g, inst.identity(1)]), jsizes)
                assert inst.equal(lhs, rhs).is_equal, (inst.name, jsizes)


class TestWordPi:
    def test_the_slot_kernel_agrees_with_the_tuple_fold(self):
        # seeded braid and cactus words, inverse braid letters included
        rng = random.Random(27)
        checked = 0
        for inst in (get_operad("braid"), get_operad("cactus")):
            for n in range(2, 9):
                gens = inst.arity_generators(n)
                signs = (1,) if inst.involutive else (1, -1)
                for length in range(13):
                    letters = [(rng.choice(gens), rng.choice(signs)) for _ in range(length)]
                    a = inst.from_letters(n, letters)
                    assert inst.pi(a).images == reference_pi(inst, a), (inst.name, n, letters)
                    assert inst.pi_images(a.payload) == reference_pi(inst, a)
                    checked += 1
        assert checked == 2 * 7 * 13


class TestStream:
    def test_deterministic(self):
        a = DeterministicStream(5)
        b = DeterministicStream(5)
        assert [a.next_int(10) for _ in range(20)] == [b.next_int(10) for _ in range(20)]

    def test_bounds(self):
        s = DeterministicStream(1)
        assert all(0 <= s.next_int(7) < 7 for _ in range(100))

    def test_symmetric_samples_pinned(self):
        # every sampled letter draws its inversion bit; inverting a
        # transposition leaves it unchanged, so these are the samples drawn
        # when the symmetric instance skipped the inversion
        sym = symmetric_operad()
        s = DeterministicStream(2026)
        assert [sym.format(sym.sample(4, s, 4)) for _ in range(8)] == [
            "[1,2,3,4]", "[1,2,3,4]", "[1,3,2,4]", "[3,1,2,4]",
            "[1,3,4,2]", "[1,4,3,2]", "[1,2,3,4]", "[1,2,3,4]",
        ]


class TestRegistry:
    def test_known_names(self):
        for name in ("sym", "trivial", "braid", "cactus"):
            assert get_operad(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_operad("mystery")

    @pytest.mark.parametrize("name", ["sym", "trivial", "braid", "cactus"])
    def test_negative_arity_is_rejected(self, name):
        inst = get_operad(name)
        with pytest.raises(ValueError, match="arity must be >= 0, got -1"):
            inst.identity(-1)

    @pytest.mark.parametrize("name", ["sym", "trivial", "braid", "cactus"])
    def test_negative_arity_has_no_elements(self, name):
        with pytest.raises(ValueError, match="arity must be >= 0, got -1"):
            get_operad(name).elements(-1)


@pytest.mark.parametrize(
    "operad, n, word", [("braid", 3, "b1 B2 b1"), ("cactus", 3, "s(1,3) s(1,2)"), ("trivial", 2, "e")]
)
def test_generator_word_uses_generator_names(operad, n, word):
    # each letter of the word is named as generators(n) names it
    inst = get_operad(operad)
    a = inst.parse(word, n)
    gens = dict(inst.generators(n))
    prod = inst.identity(n)
    for name, sign in inst.generator_word(a):
        prod = inst.mul(prod, gens[name] if sign == 1 else inst.inv(gens[name]))
    assert prod == a


EQUAL_INSTANCES = {
    "sym": symmetric_operad,
    "trivial": trivial_operad,
    "braid": lambda: get_operad("braid"),
    "cactus": lambda: get_operad("cactus"),
    "club_sym": lambda: operad_from_club(symmetric_operad()),
}


@pytest.mark.parametrize("name", sorted(EQUAL_INSTANCES))
def test_equality_prologue(name):
    # every instance checks both elements and separates arities before its own oracle
    inst = EQUAL_INSTANCES[name]()
    foreign = (SYM if inst.name == "trivial" else TRIV).identity(2)
    for a, b in ((foreign, inst.identity(2)), (inst.identity(2), foreign)):
        with pytest.raises(ValueError, match="mixed instances"):
            inst.equal(a, b)
    res = inst.equal(inst.identity(2), inst.identity(3))
    assert (res.verdict, res.separating, res.stop, res.states) == ("distinct", "arity", "invariant", 0)
    assert inst.equal(inst.identity(3), inst.identity(3)).is_equal


def _spellings(operad: str, n: int) -> list:
    if operad == "braid":
        return [(f"{c}{i}", (i, sign)) for c, sign in (("b", 1), ("B", -1)) for i in range(1, n)]
    return [(f"s({p},{q})", ((p, q), 1)) for p in range(1, n + 1) for q in range(p + 1, n + 1)]


@pytest.mark.parametrize("operad", ["braid", "cactus"])
@pytest.mark.parametrize("n", range(9))
def test_every_letter_reads_back(operad, n):
    # a word is read with exactly the letters the formatter prints
    inst = get_operad(operad)
    spellings = _spellings(operad, n)
    for token, letter in spellings:
        assert inst.format_letter(*letter) == token
        assert inst.parse(token, n).payload.letters == (letter,)
    word = inst.from_letters(n, [letter for _, letter in spellings])
    assert inst.parse(inst.format(word), n) == word
    assert inst.parse("e", n) == inst.parse("", n) == inst.identity(n)


@pytest.mark.parametrize(
    "operad, token",
    [("braid", "b0"), ("braid", "b3"), ("braid", "B"), ("braid", "b01"), ("braid", "b+1"),
     ("cactus", "s(2,2)"), ("cactus", "s(1,2"), ("cactus", "s"), ("cactus", "s(01,2)")],
)
def test_malformed_letters_are_rejected(operad, token):
    with pytest.raises(ValueError, match=f"is not a {operad} letter at arity 3"):
        get_operad(operad).parse(f"e {token}", 3)
