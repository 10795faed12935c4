"""The benchmark's own computations, made apart from the library.

Nothing here imports ``actionoperads``: every function takes plain data
(letter tuples, counts, category tables) so that a verdict the library
returns can be checked against an independent model.

- ``own_*_relations``: the defining relations of the braid and cactus
  groups, written from their standard presentations.
- ``word_pi``: the underlying permutation of a word, composed left to
  right.
- ``burau``: the unreduced Burau matrix over Laurent polynomials in t.
  It is a homomorphism, so different matrices prove two braids distinct;
  on B_3 it is faithful, so equal matrices prove them equal.
- ``burau_mod_p``: the same representation evaluated at t = 3 modulo a
  prime, a cheap necessary condition for equality at larger arity.
- ``j3_normal_form``: J_3 is generated by the involutions a = s(1,2) and
  c = s(1,3), with s(2,3) = c a c, and has no other relation, so it is
  Z/2 * Z/2 and a freely reduced word in a, c is a normal form.
- ``replay``: re-applies the relation tuples an equality path names.
- ``axiom_case_counts``, ``roundtrip_counts`` and ``borel_hom_count``:
  closed-form case counts and hom-set sizes.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

# -- words -------------------------------------------------------------------


def free_reduce(letters, involutive: bool) -> tuple:
    """Cancel ``x x^-1`` everywhere (and ``x x`` for involutive letters)."""
    stack: list = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and (involutive or stack[-1][1] == -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def invert(letters, involutive: bool) -> tuple:
    return tuple((g, s if involutive else -s) for g, s in reversed(letters))


def own_braid_relations(n: int) -> list[tuple[tuple, tuple]]:
    """Far commutation in every sign, and the adjacent braid relation
    with all-positive or all-negative letters."""
    rels = []
    for i in range(1, n):
        for j in range(i + 2, n):
            for si in (1, -1):
                for sj in (1, -1):
                    rels.append((((i, si), (j, sj)), ((j, sj), (i, si))))
        if i + 1 < n:
            for s in (1, -1):
                a, b = (i, s), (i + 1, s)
                rels.append(((a, b, a), (b, a, b)))
    return rels


def own_cactus_relations(n: int) -> list[tuple[tuple, tuple]]:
    """Involution, disjoint commutation and containment
    (s(p,q) s(k,l) = s(p+q-l, p+q-k) s(p,q) for [k,l] inside [p,q])."""
    gens = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    rels = [(((g, 1), (g, 1)), ()) for g in gens]
    for (p, q), (k, l) in itertools.permutations(gens, 2):
        if q < k:
            rels.append(((((p, q), 1), ((k, l), 1)), (((k, l), 1), ((p, q), 1))))
        elif p <= k and l <= q:
            rels.append(((((p, q), 1), ((k, l), 1)), (((p + q - l, p + q - k), 1), ((p, q), 1))))
    return rels


def relator(lhs, rhs, involutive: bool) -> tuple:
    return tuple(lhs) + invert(rhs, involutive)


# -- underlying permutations ---------------------------------------------------


def letter_perm(family: str, gen, n: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    if family == "braid":
        images[gen - 1], images[gen] = images[gen], images[gen - 1]
    else:
        p, q = gen
        images[p - 1 : q] = reversed(images[p - 1 : q])
    return tuple(images)


def word_pi(family: str, n: int, letters) -> tuple[int, ...]:
    """``pi(l1 l2 ...) = pi(l1) o pi(l2) o ...``; every letter's image is
    an involution, so the sign of a braid letter does not matter."""
    out = tuple(range(1, n + 1))
    for gen, _sign in letters:
        p = letter_perm(family, gen, n)
        out = tuple(out[v - 1] for v in p)
    return out


def exponent_sum(letters) -> int:
    return sum(sign for _gen, sign in letters)


# -- Burau --------------------------------------------------------------------


def _padd(a: dict, b: dict, shift: int = 0, scale: int = 1) -> dict:
    """``a + scale * t^shift * b`` on Laurent polynomials {exponent: coef}."""
    out = dict(a)
    for e, c in b.items():
        k = e + shift
        v = out.get(k, 0) + scale * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def burau(n: int, letters) -> tuple:
    """Unreduced Burau matrix of a braid word, as a canonical tuple.

    b_i acts on columns i, i+1 by the block [[1-t, t], [1, 0]], and B_i by
    its inverse [[0, 1], [1/t, 1 - 1/t]].
    """
    cols = [[({0: 1} if r == c else {}) for r in range(n)] for c in range(n)]
    for gen, sign in letters:
        x, y = cols[gen - 1], cols[gen]
        if sign == 1:
            new_x = [_padd(_padd(u, u, 1, -1), v) for u, v in zip(x, y)]
            new_y = [_padd({}, u, 1) for u in x]
        else:
            new_x = [_padd({}, v, -1) for v in y]
            new_y = [_padd(_padd(u, v), v, -1, -1) for u, v in zip(x, y)]
        cols[gen - 1], cols[gen] = new_x, new_y
    return tuple(tuple(tuple(sorted(p.items())) for p in col) for col in cols)


_P = (1 << 61) - 1
_T = 3
_T_INV = pow(_T, _P - 2, _P)


def burau_mod_p(n: int, letters) -> tuple:
    """The Burau matrix evaluated at t = 3 in the integers modulo 2^61 - 1."""
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    for gen, sign in letters:
        x, y = cols[gen - 1], cols[gen]
        if sign == 1:
            cols[gen - 1] = [((1 - _T) * u + v) % _P for u, v in zip(x, y)]
            cols[gen] = [(_T * u) % _P for u in x]
        else:
            cols[gen - 1] = [(_T_INV * v) % _P for v in y]
            cols[gen] = [(u + (1 - _T_INV) * v) % _P for u, v in zip(x, y)]
    return tuple(tuple(c) for c in cols)


# -- J_3 ------------------------------------------------------------------------

_J3 = {(1, 2): "a", (1, 3): "c", (2, 3): "cac"}


def j3_normal_form(letters) -> str:
    out: list[str] = []
    for gen, _sign in letters:
        for ch in _J3[gen]:
            if out and out[-1] == ch:
                out.pop()
            else:
                out.append(ch)
    return "".join(out)


def truth(family: str, n: int, w1, w2) -> str | None:
    """``"equal"``, ``"distinct"`` or ``None`` when the models here cannot
    tell: an exact decision for braids at n <= 3 and cactus at n = 3,
    distinctness only elsewhere."""
    if word_pi(family, n, w1) != word_pi(family, n, w2):
        return "distinct"
    if family == "braid":
        if burau(n, w1) != burau(n, w2):
            return "distinct"
        return "equal" if n <= 3 else None
    if n == 3:
        return "equal" if j3_normal_form(w1) == j3_normal_form(w2) else "distinct"
    return None


# -- equality paths ----------------------------------------------------------------


def replay(relations, involutive: bool, w1, w2, path) -> bool:
    """Re-apply each recorded step (relation, orientation, position) and
    check its result, then check that both chains end at the meet word."""

    def run(start, steps):
        state = free_reduce(start, involutive)
        for step in steps:
            if not 0 <= step.rel < len(relations) or step.orient not in (0, 1):
                return None
            a, b = relations[step.rel][:: 1 if step.orient == 0 else -1]
            if state[step.pos : step.pos + len(a)] != tuple(a):
                return None
            state = free_reduce(state[: step.pos] + tuple(b) + state[step.pos + len(a) :], involutive)
            if state != tuple(step.result):
                return None
        return state

    meet = tuple(path.meet)
    return run(w1, path.forward) == meet and run(w2, path.backward) == meet


def relations_sound(family: str, n: int, relations) -> list[str]:
    """Every relation the library searches with must hold in the group:
    cactus relations must be among the defining ones, braid relations
    must have equal Burau matrices (a consequence of the defining ones)."""
    problems = []
    if family == "cactus":
        own = {frozenset((a, b)) for a, b in own_cactus_relations(n)}
        for i, (lhs, rhs) in enumerate(relations):
            if frozenset((tuple(lhs), tuple(rhs))) not in own:
                problems.append(f"cactus_{n} relation {i} is not a defining relation")
    else:
        for i, (lhs, rhs) in enumerate(relations):
            if burau(n, lhs) != burau(n, rhs):
                problems.append(f"braid_{n} relation {i} has different Burau matrices")
    return problems


# -- closed-form counts ------------------------------------------------------------

ZERO_BLOCK_VECTORS = ((0,), (0, 0), (2, 0), (0, 2), (1, 0, 1))


def positive_compositions(max_total: int):
    """Every tuple of positive integers with sum <= max_total, and ()."""
    yield ()
    for total in range(1, max_total + 1):
        for parts in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                bounds = (0, *cuts, total)
                yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _prod_fact(v) -> int:
    out = 1
    for k in v:
        out *= factorial(k)
    return out


def axiom_case_counts(max_total: int) -> dict[str, int]:
    """Cases the exhaustive mode checks on the symmetric groups.

    Its size vectors are the positive compositions with sum <= A, plus the
    zero-width vectors listed in ``ZERO_BLOCK_VECTORS``; its groupings
    cut a nonempty positive composition of m parts in 2^(m-1) ways.
    """
    A = max_total
    pos = list(positive_compositions(A))
    vectors = pos + [v for v in ZERO_BLOCK_VECTORS if sum(v) <= A and len(v) <= A]
    arities = range(A + 1)
    groupings_fact = 1  # the empty grouping
    groupings_heads = 1
    for v in pos:
        if not v:
            continue
        m = len(v)
        groupings_fact += 2 ** (m - 1) * _prod_fact(v)
        # sum over groupings of prod over groups of (group length)!
        groupings_heads += sum(
            _prod_fact(_group_lengths(m, cuts))
            for cuts in itertools.product((0, 1), repeat=m - 1)
        )
    return {
        "pi_homomorphism": sum(factorial(n) ** 2 + 2 * factorial(n) for n in arities),
        "beta_homomorphism": sum(_prod_fact(v) ** 2 for v in vectors),
        "beta_naturality": sum(_prod_fact(v) for v in vectors),
        "beta_unary_identity": sum(factorial(n) for n in arities),
        "beta_associativity": groupings_fact,
        "delta_naturality": sum(factorial(len(v)) for v in vectors),
        "delta_unit_sizes": 2 * sum(factorial(n) for n in arities),
        "delta_product_twist": sum(factorial(len(v)) ** 2 for v in pos),
        # a head of arity m, block sizes v, and p strands split into |v| parts
        "delta_nesting": sum(
            factorial(len(v)) * _count_compositions(p, sum(v))
            for v in pos
            for p in range(sum(v), A + 1)
        ),
        "delta_beta_twist": sum(factorial(len(v)) * _prod_fact(v) for v in pos),
        "beta_delta_interchange": groupings_heads,
        "composition_interchange": sum(factorial(len(v)) ** 2 * _prod_fact(v) ** 2 for v in pos),
    }


def _count_compositions(total: int, parts: int) -> int:
    """Tuples of ``parts`` positive integers summing to ``total``."""
    return comb(total - 1, parts - 1) if parts else int(total == 0)


def _group_lengths(m: int, cuts) -> list[int]:
    lengths, run = [], 1
    for cut in cuts:
        if cut:
            lengths.append(run)
            run = 1
        else:
            run += 1
    return lengths + [run]


def roundtrip_counts(max_total: int) -> tuple[int, int, int]:
    """(beta, delta, mu) cases of the club round trip on the symmetric
    groups: one per tuple of arguments, per head, per head and tuple."""
    pos = list(positive_compositions(max_total))
    return (
        sum(_prod_fact(v) for v in pos),
        sum(factorial(len(v)) for v in pos),
        sum(factorial(len(v)) * _prod_fact(v) for v in pos),
    )


def borel_hom_count(hom_sizes, xs, ys) -> int:
    """|Hom([e; xs], [e; ys])| over the symmetric groups:
    sum over g in S_n of prod_i |X(x_i, y_g(i))|, a permanent."""
    total = 0
    for g in itertools.permutations(range(len(xs))):
        prod = 1
        for i, j in enumerate(g):
            prod *= hom_sizes.get((xs[i], ys[j]), 0)
            if not prod:
                break
        total += prod
    return total
