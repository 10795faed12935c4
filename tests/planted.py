"""Instances with planted defects, shared by the tests that must see a
check fail on them."""

from __future__ import annotations

from actionoperads.cactus import CactusOperad
from actionoperads.core import OperadElement, SymmetricOperad
from actionoperads.perm import Perm, adjacent_transposition, block_sum, identity
from actionoperads.rewrite import Word


class ReversedBlockSum(SymmetricOperad):
    """The block sum lays its blocks out in reverse order."""

    def beta(self, els):
        for e in els:
            self.check_element(e)
        return self._wrap(block_sum([e.payload for e in reversed(els)]))


class InverseBlockSum(SymmetricOperad):
    """The block sum lays out the inverse of each block, which reverses
    the order of products in each block."""

    def beta(self, els):
        return super().beta([self.inv(e) for e in els])


class IdentityDelta(SymmetricOperad):
    """The block diagonal forgets its argument and returns the unit."""

    def delta(self, a, sizes):
        self.check_element(a)
        if a.n != len(sizes):
            raise ValueError("arity mismatch")
        return self.identity(sum(sizes))


class UnreducedCactus(CactusOperad):
    """Products are concatenated without free reduction, so some are
    words (``s(1,2) s(1,2)``) that no enumeration lists; and at arity >= 2
    an inverse carries an extra ``s(1,2)``, so it is wrong."""

    def mul(self, a, b):
        return OperadElement(self.name, a.n, Word(a.n, a.payload.letters + b.payload.letters))

    def inv(self, a):
        out = super().inv(a)
        if a.n < 2:
            return out
        return OperadElement(self.name, a.n, Word(a.n, out.payload.letters + (((1, 2), 1),)))


class StabilizedProduct(SymmetricOperad):
    """Multiplying by an element that swaps the first two points does
    nothing, so that element stabilizes everything."""

    def mul(self, a, b):
        if b.payload.images[:2] == (2, 1):
            return a
        return super().mul(a, b)


class OneSidedInverse(SymmetricOperad):
    """A product whose left factor is the 3-cycle [3,1,2] is that factor,
    so [3,1,2] is a right inverse of [2,3,1] but not a left inverse."""

    def mul(self, a, b):
        if a.payload.images == (3, 1, 2):
            return a
        return super().mul(a, b)


class SwapPi(SymmetricOperad):
    """``pi`` is the swap at arity 2 and the identity elsewhere, so it is
    not a homomorphism at arity 2 (the unit maps to the swap)."""

    def pi(self, a):
        return Perm((2, 1)) if a.n == 2 else identity(a.n)


def _swap_first_two(inst, a):
    """``a`` times the transposition of its first two points, at arity >= 2."""
    return inst.mul(a, inst._wrap(adjacent_transposition(a.n, 1))) if a.n >= 2 else a


class TwistedDelta(SymmetricOperad):
    """The block diagonal is followed by a fixed transposition."""

    def delta(self, a, sizes):
        return _swap_first_two(self, super().delta(a, sizes))


class TwistedBlockSum(SymmetricOperad):
    """The block sum is followed by a fixed transposition."""

    def beta(self, els):
        return _swap_first_two(self, super().beta(els))


class TwistedUnitDelta(SymmetricOperad):
    """The block diagonal of the unit at sizes (1, 2) is followed by a fixed
    transposition, so only the unit law ``delta(e_n, ks) = e`` breaks, and
    only there; ``mu`` is the default one."""

    def delta(self, a, sizes):
        out = super().delta(a, sizes)
        return _swap_first_two(self, out) if tuple(sizes) == (1, 2) and a == self.identity(2) else out


class UnlistedSym(SymmetricOperad):
    """The symmetric instance with no enumeration of its groups, so that
    ``check_axioms`` samples it."""

    def elements(self, n):
        return None


class UnlistedReversedBlockSum(ReversedBlockSum):
    """:class:`ReversedBlockSum` with no enumeration of its groups, so that
    ``check_axioms`` samples it."""

    elements = UnlistedSym.elements
