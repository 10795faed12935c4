"""Clubs: the instance rebuilt from its club (cell multiplication with
identity heads and identity legs), the operad <-> club roundtrip, shape
hypothesis checking, and the pullback comparison square."""

from __future__ import annotations

import copy

import pytest

from actionoperads.braid import braid_operad
from actionoperads.cactus import cactus_operad
from actionoperads.club import ClubBackedOperad, check_pullback, operad_from_club, roundtrip_check
from actionoperads.core import (
    ActionOperad,
    AxiomCheckConfig,
    DeterministicStream,
    SymmetricOperad,
    check_axioms,
    symmetric_operad,
    trivial_operad,
)
from actionoperads.fincat import discrete_category, z2_category
from actionoperads.multicat import operad_as_multicat, validate_multicat
from oracles import reference_roundtrip
from planted import (
    IdentityDelta,
    InverseBlockSum,
    OneSidedInverse,
    ReversedBlockSum,
    SwapPi,
    TwistedBlockSum,
    TwistedDelta,
    TwistedUnitDelta,
    UnreducedCactus,
)

SYM = symmetric_operad()
TRIV = trivial_operad()
CACT = cactus_operad()


class TestClubMult:
    """The rebuilt block sum and block diagonal are the club's cell
    multiplication with an identity head and with identity legs."""

    def test_unary_identity_head(self):
        g = SYM.parse("[2,1]", 2)
        assert operad_from_club(SYM).beta([g]) == g

    def test_identity_head_is_block_sum(self):
        g = SYM.parse("[2,1]", 2)
        h = SYM.parse("[2,3,1]", 3)
        assert operad_from_club(SYM).beta([g, h]) == SYM.beta([g, h])

    def test_identity_legs_is_block_diagonal(self):
        f = SYM.parse("[2,1]", 2)
        assert operad_from_club(SYM).delta(f, (2, 1)) == SYM.delta(f, (2, 1))

    def test_leg_count_checked(self):
        with pytest.raises(ValueError, match="arity mismatch"):
            operad_from_club(SYM).delta(SYM.identity(2), (1,))


class TestRebuild:
    def test_rebuilt_symmetric_beta_is_block_sum(self):
        rebuilt = operad_from_club(SYM)
        g = SYM.parse("[2,1]", 2)
        h = SYM.parse("[2,3,1]", 3)
        assert rebuilt.beta([g, h]).payload.images == (2, 1, 4, 5, 3)

    def test_rebuilt_trivial(self):
        rebuilt = operad_from_club(TRIV)
        assert rebuilt.beta([TRIV.identity(2), TRIV.identity(1)]) == TRIV.identity(3)

    def test_roundtrip_identity_on_sym_and_trivial(self):
        for inst in (SYM, TRIV):
            rep = roundtrip_check(inst, max_total=4)
            assert rep.passed, rep
            assert rep.beta_checked > 0 and rep.delta_checked > 0 and rep.mu_checked > 0

    @pytest.mark.parametrize("planted", [TwistedDelta, TwistedBlockSum])
    def test_roundtrip_counts_planted_mismatches(self, planted):
        # the rebuilt block sum is mu with an identity head, so a twisted
        # delta breaks the beta and mu arms; the rebuilt block diagonal is
        # mu with identity legs, so a twisted beta breaks the delta and mu arms
        rep = roundtrip_check(planted(), max_total=3)
        assert (rep.beta_checked, rep.delta_checked, rep.mu_checked, rep.mismatches) == (16, 16, 26, 38)
        assert not rep.passed

    @pytest.mark.parametrize(
        "inst, max_total, mismatches",
        [
            (SYM, 4, 0),
            (TRIV, 4, 0),
            (CACT, 2, 0),
            (TwistedDelta(), 3, 38),
            (TwistedBlockSum(), 3, 38),
            # the default ``mu`` reduces every case to the unit laws, which these keep
            (ReversedBlockSum(), 3, 0),
            (IdentityDelta(), 3, 0),
            (InverseBlockSum(), 3, 0),
            # the rebuilt block sum at arities (1, 2) is delta(e_2, (1, 2)) times the
            # block sum: 2 beta cases, and the 2 x 2 mu cases with a head of arity 2
            (TwistedUnitDelta(), 3, 6),
        ],
        ids=[
            "sym", "trivial", "cactus", "twisted-delta", "twisted-beta",
            "reversed-beta", "unit-delta", "inverse-beta", "twisted-unit-delta",
        ],
    )
    def test_roundtrip_matches_the_instance_level_walk(self, inst, max_total, mismatches):
        rep = roundtrip_check(inst, max_total)
        assert rep == reference_roundtrip(inst, max_total)
        assert rep.mismatches == mismatches

    def test_a_negative_bound_is_rejected(self):
        with pytest.raises(ValueError, match="^max_total must be >= 0, got -1$"):
            roundtrip_check(SYM, -1)

    def test_rebuilt_instance_passes_axioms(self):
        rebuilt = operad_from_club(SYM)
        rep = check_axioms(rebuilt, AxiomCheckConfig(max_total_arity=3))
        assert rep.passed(strict=True)

    def test_cactus_club_rebuild_matches_on_small_words(self):
        rebuilt = operad_from_club(CACT, max_arity=2)
        w = CACT.parse("s(1,2)", 2)
        assert CACT.equal(rebuilt.delta(w, (2, 1)), CACT.delta(w, (2, 1))).is_equal
        assert CACT.equal(rebuilt.beta([w, w]), CACT.beta([w, w])).is_equal

    def test_rebuilt_oracle_keeps_the_budget(self):
        braid = braid_operad()
        lhs, rhs = braid.parse("b1 b2 b1", 3), braid.parse("b2 b1 b2", 3)
        res = operad_from_club(braid).equal(lhs, rhs, None, 0)
        assert res == braid.equal(lhs, rhs, None, 0)
        assert res.is_inconclusive and res.states == 0 and res.stop == "budget"
        assert operad_from_club(braid).equal(lhs, rhs, budget=10).is_equal


class TestRebuiltForwarding:
    """The rebuilt instance names, spells and reads elements as its club
    does, so that the engines reading generators see the same instance."""

    def test_an_instance_without_its_club_forwards_nothing(self):
        # a copy is built before its attributes are filled in: looking one
        # up then raises instead of recursing through ``club``
        with pytest.raises(AttributeError, match="^name$"):
            ClubBackedOperad.__new__(ClubBackedOperad).name
        assert copy.copy(operad_from_club(SYM)).name == "sym"

    @pytest.mark.parametrize("inst", [SYM, CACT], ids=["sym", "cactus"])
    def test_rebuilt_validates_the_club_multicategory(self, inst):
        rep = validate_multicat(operad_as_multicat(inst, 2), operad_from_club(inst, 2))
        assert rep.passed, rep.violations[:3]
        assert rep.checked > 0

    def test_rebuilt_cactus_samples_as_cactus(self):
        rebuilt = operad_from_club(CACT, max_arity=2)
        for n in (2, 3, 4):
            assert rebuilt.generators(n) == CACT.generators(n)
            s1, s2 = DeterministicStream(n), DeterministicStream(n)
            drawn = [rebuilt.sample(n, s1, 3) for _ in range(6)]
            assert drawn == [CACT.sample(n, s2, 3) for _ in range(6)]
            assert any(w.payload.letters for w in drawn)

    @pytest.mark.parametrize(
        "inst, text, n", [(SYM, "[2,3,1]", 3), (CACT, "s(1,3) s(2,3)", 3), (TRIV, "e", 2)], ids=["sym", "cactus", "trivial"]
    )
    def test_rebuilt_parses_and_spells_as_the_club(self, inst, text, n):
        rebuilt = operad_from_club(inst, max_arity=2)
        a = rebuilt.parse(text, n)
        assert a == inst.parse(text, n)
        assert rebuilt.generator_word(a) == inst.generator_word(a)

    @pytest.mark.parametrize("inst", [SYM, TRIV, CACT], ids=["sym", "trivial", "cactus"])
    def test_every_method_but_the_rebuilt_three_answers_as_the_club(self, inst):
        rebuilt = operad_from_club(inst, max_arity=2)
        asked = set()

        def same(method, *args):
            asked.add(method)
            assert getattr(rebuilt, method)(*args) == getattr(inst, method)(*args), (method, args)

        assert rebuilt.name == inst.name
        for n in range(4):
            for method in ("identity", "elements", "generators"):
                same(method, n)
            asked.add("sample")
            drawn = [rebuilt.sample(n, DeterministicStream(k), 3) for k in range(4)]
            assert drawn == [inst.sample(n, DeterministicStream(k), 3) for k in range(4)]
            for a in drawn:
                for method in ("inv", "pi", "generator_word", "format", "check_element", "normal_form"):
                    same(method, a)
                same("parse", inst.format(a), n)
                for b in drawn:
                    same("mul", a, b)
                    same("equal", a, b)
                    same("equal_at_arity", a, b, None)
        public = {m for m, v in vars(ActionOperad).items() if callable(v) and not m.startswith("_")}
        assert asked == public - {"beta", "delta", "mu"}


class TestShapeHypotheses:
    def test_non_groupoid_rejected(self):
        # at arity 2 the planted inverses are wrong, so no hom there is a group
        with pytest.raises(ValueError, match="'cactus' is not a groupoid"):
            operad_from_club(UnreducedCactus(), max_arity=2)

    def test_a_right_inverse_that_is_no_left_inverse_is_rejected(self):
        with pytest.raises(ValueError, match=r"^club 'sym' is not a groupoid: \[2,3,1\] has no left inverse$"):
            operad_from_club(OneSidedInverse())

    def test_pi_functoriality_enforced(self):
        with pytest.raises(ValueError, match="does not lie over the base"):
            operad_from_club(SwapPi())

    def test_pi_once_per_element(self):
        class CountingPi(SymmetricOperad):
            calls = 0

            def pi(self, a):
                self.calls += 1
                return super().pi(a)

        inst = CountingPi()
        operad_from_club(inst, max_arity=3)
        # on the kernel each product is an enumerated element, whose pi is memoised
        assert inst.calls == 1 + 1 + 2 + 6


class TestPullback:
    def test_symmetric_discrete(self):
        X = discrete_category(("a", "b"), name="d2")
        for n in (1, 2, 3):
            rep = check_pullback(SYM, n, X)
            assert rep.passed, rep.format_text()

    def test_trivial_instance(self):
        X = discrete_category(("a", "b"), name="d2")
        rep = check_pullback(TRIV, 2, X)
        assert rep.passed, rep.format_text()

    def test_cactus_arity_two_over_z2(self):
        rep = check_pullback(CACT, 2, z2_category())
        assert rep.passed, rep.format_text()

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            check_pullback(CACT, 3, discrete_category(("a",), name="pt"))

    def test_detects_non_unique_lifts(self):
        # sabotage: enumerating each group element twice makes lifts
        # non-unique, which the collision arm of the check reports
        class Doubled(type(SYM)):
            def elements(self, n):
                base = super().elements(n)
                return base + base

        broken = Doubled()
        X = discrete_category(("a", "b"), name="d2")
        rep = check_pullback(broken, 2, X)
        assert rep.collisions > 0 and not rep.passed
