"""
Clubs over the permutation base, represented by their instances.

A club here is a category whose objects are the natural numbers, over
the one-object-per-arity permutation base, together with a
multiplication taking a cell (head endomorphism of n; one leg per input)
to a single morphism.  The groupoid clubs that are the identity on
objects are exactly the action-operad instances, so the club of an
instance is the instance itself: its hom-group at n is the arity-n
group, its functor to the base is ``pi``, and its cell multiplication is
operadic composition ``mu``.  Rebuilding an instance from its club reads
the block sum as the multiplication with an identity head, the block
diagonal as the multiplication with identity legs, and operadic
composition as their product.

Reading note: a cell's legs are typed through the underlying permutation
of the *head morphism*, the only reading under which composition
typechecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .borel import BorelObject, hom_set
from .core import ActionOperad, _Kernel, _pi_homomorphism, finite_group, size_vectors, symmetric_operad
from .fincat import FinCat


class ClubBackedOperad:
    """An instance rebuilt from its club: block sum via identity heads,
    block diagonal via identity legs (both read only ``identity`` and ``mu``,
    so they run on a kernel's indices too), composition as their product.
    Every other attribute is the club's."""

    # composition is delta times beta of the rebuilt parts, whatever the club's ``mu``
    mu = ActionOperad.mu

    def __init__(self, club: ActionOperad):
        self.club = club

    def __getattr__(self, attr):
        # ``club`` from the dict, so that an object without one (half built, copied) cannot recurse
        if "club" not in self.__dict__:
            raise AttributeError(attr)
        return getattr(self.__dict__["club"], attr)

    def beta(self, els):
        return self.club.mu(self.club.identity(len(els)), els)

    def delta(self, a, sizes):
        return self.club.mu(a, [self.club.identity(k) for k in sizes])


def _checked_kernel(club: ActionOperad, arities) -> _Kernel:
    """The club's kernel at ``arities``; raises unless each hom there, in
    turn, is a group and satisfies the pi law of :func:`check_axioms`."""
    K = _Kernel(club, arities)
    for n in arities:
        els, e = K.elements(n), K.identity(n)
        for g in els:
            gi = K.inv(g)
            for side, x, y in (("right", g, gi), ("left", gi, g)):
                if not K.equal(K.mul(x, y), e).is_equal:
                    raise ValueError(f"club {club.name!r} is not a groupoid: {K.format(g)} has no {side} inverse")
        if _pi_homomorphism(K, ((g, els) for g in els))[1]:
            raise ValueError(f"club {club.name!r} does not lie over the base: pi is not functorial")
    return K


def operad_from_club(club: ActionOperad, max_arity: int = 3) -> ClubBackedOperad:
    """Rebuild an instance from its club, checking on the tested range
    that every hom is a group and that ``pi`` is a functor to the base."""
    _checked_kernel(club, [n for n in range(max_arity + 1) if club.elements(n) is not None])
    return ClubBackedOperad(club)


@dataclass
class RoundtripReport:
    operad: str
    beta_checked: int = 0
    delta_checked: int = 0
    mu_checked: int = 0
    mismatches: int = 0

    @property
    def passed(self) -> bool:
        return self.mismatches == 0


def roundtrip_check(inst: ActionOperad, max_total: int = 4) -> RoundtripReport:
    """Verify that rebuilding the instance through its club returns the
    same block sum, block diagonal and composition values on every tuple
    within the arity bound, on the kernel the club checks filled; raises
    when a group in the bound is not finite.  The rebuilt ``beta(hs)`` is
    ``mu(e, hs)`` and ``delta(g, v)`` is ``mu(g, (e, ..., e))``, so with the
    default ``mu`` every case reduces to the unit laws (i) ``x e = x = e x``,
    (ii) ``beta(e, ..., e) = e`` and (iii) ``delta(e_n, ks) = e``: a reversed,
    inverted or unit block sum or block diagonal passes."""
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")
    K = _checked_kernel(inst, range(max_total + 1))
    R = ClubBackedOperad(K)
    report = RoundtripReport(inst.name)
    for v in size_vectors(max_total, include_zero=False):
        pools = [K.elements(k) for k in v]
        for hs in product(*pools):
            report.beta_checked += 1
            if not K.equal(K.beta(hs), R.beta(hs)).is_equal:
                report.mismatches += 1
        for g in K.elements(len(v)):
            report.delta_checked += 1
            d = R.delta(g, v)
            if not K.equal(K.delta(g, v), d).is_equal:
                report.mismatches += 1
            for hs in product(*pools):
                report.mu_checked += 1
                if not K.equal(K.mu(g, hs), K.mul(d, R.beta(hs))).is_equal:
                    report.mismatches += 1
    return report


@dataclass
class PullbackReport:
    operad: str
    arity: int
    category: str
    objects_upstairs: int
    objects_downstairs: int
    morphisms_upstairs: int
    compatible_pairs: int
    unmatched_pairs: int
    collisions: int

    @property
    def passed(self) -> bool:
        return (
            self.objects_upstairs == self.objects_downstairs
            and self.morphisms_upstairs == self.compatible_pairs
            and self.unmatched_pairs == 0
            and self.collisions == 0
        )

    def format_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} pullback: operad={self.operad} arity={self.arity} category={self.category} "
            f"objects={self.objects_upstairs}/{self.objects_downstairs} "
            f"morphisms={self.morphisms_upstairs} pairs={self.compatible_pairs} "
            f"unmatched={self.unmatched_pairs} collisions={self.collisions}"
        )


def check_pullback(inst: ActionOperad, n: int, X: FinCat) -> PullbackReport:
    """Verify that the comparison square for the Borel construction is a
    pullback at arity ``n`` over ``X``: every pair of a group element and
    a base-construction morphism with matching underlying permutation
    lifts uniquely.

    Both sides are read from the same ``hom_set``, so only ``collisions``
    can fail: ``unmatched_pairs`` is always 0, the two object counts are
    equal, and ``compatible_pairs`` equals the number of upstairs
    morphisms."""
    els = finite_group(inst, n)
    sym = symmetric_operad()

    tuples = list(product(X.objects, repeat=n))
    up_objects = [BorelObject(inst.name, n, t) for t in tuples]
    down_objects = [BorelObject(sym.name, n, t) for t in tuples]

    lifted = {}
    collisions = 0
    morphisms_upstairs = 0
    for src in up_objects:
        for tgt in up_objects:
            for m in hom_set(inst, X, src, tgt).morphisms:
                morphisms_upstairs += 1
                image = (
                    m.g.key(),
                    (src.objects, tgt.objects, inst.pi(m.g).images, m.components),
                )
                if image in lifted:
                    collisions += 1
                lifted[image] = m

    compatible = 0
    unmatched = 0
    for g in els:
        pg = inst.pi(g)
        for src in down_objects:
            for tgt in down_objects:
                for m in hom_set(sym, X, src, tgt).morphisms:
                    if sym.pi(m.g) != pg:
                        continue
                    compatible += 1
                    key = (g.key(), (src.objects, tgt.objects, pg.images, m.components))
                    if key not in lifted:
                        unmatched += 1
    return PullbackReport(
        inst.name,
        n,
        X.name,
        len(up_objects),
        len(down_objects),
        morphisms_upstairs,
        compatible,
        unmatched,
        collisions,
    )
