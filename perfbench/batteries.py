"""The four verification batteries the benchmark times, and the two
workloads that run them.

Each battery is a class with four static methods:

- ``setup(seed, size)`` builds the battery's fixed inputs (element lists,
  categories, seeded words, multicategory mutants).  With the library
  import, it is what ``setup_s`` measures.
- ``run(inputs, tracer)`` is the timed battery: a closed loop in which
  each library call is issued after the previous one returns.  Every call
  into a layer goes through ``tracer.call(name, fn, *args)``, which
  records a span in a traced run and only calls ``fn`` in a timed one.
- ``check(inputs, outputs)`` compares the outputs with the benchmark's
  own computations in ``reference`` and plants defects that the library
  must catch.  It runs outside the timed phase and returns the operations
  attempted and failed in one round, and a list of problems: any problem
  means a wrong result.
- ``counts(outputs)`` gives the exact per-layer counts read from the
  library's public results.

A workload (``Workload``) runs its batteries one after the other in each
round and has the same four methods: ``words`` runs ``word_prove`` and
``word_decide``, ``structures`` runs ``axioms_exhaustive`` and
``finite_structures``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial

from actionoperads.borel import borel_realization, contractible_free_check
from actionoperads.braid import braid_operad, braid_relations
from actionoperads.cactus import cactus_operad, cactus_relations, commutor
from actionoperads.club import check_pullback, roundtrip_check
from actionoperads.core import AxiomCheckConfig, SymmetricOperad, check_axioms, symmetric_operad
from actionoperads.fincat import arrow_category, discrete_category, z2_category
from actionoperads.multicat import FinMulticat, operad_as_multicat, validate_multicat
from actionoperads.perm import block_sum

import reference as R


@dataclass(frozen=True)
class Size:
    """How much work one round does: ``FULL`` is the benchmark, ``TINY``
    the size the benchmark's own tests run."""

    axioms_arity: int = 5
    prove_cactus: tuple[int, int] = (4, 3)  # max arity, max block width
    prove_braid: tuple[int, int] = (4, 2)
    coboundary_total: int = 6
    decide_len: int = 10  # length of the seeded base words
    decide_equal: int = 40  # seeded pairs per family and arity
    decide_refuted: int = 15
    decide_budget: int = 4000  # states per query on the fixed hard pairs
    free_max_n: int = 4
    borel_arity: int = 3
    multicat_arity: int = 3
    mutants: int = 10
    roundtrip_total: int = 5


FULL = Size()
TINY = Size(
    axioms_arity=3,
    prove_cactus=(3, 2),
    prove_braid=(3, 2),
    coboundary_total=4,
    decide_len=6,
    decide_equal=3,
    decide_refuted=2,
    decide_budget=300,
    free_max_n=3,
    borel_arity=2,
    multicat_arity=2,
    mutants=3,
    roundtrip_total=3,
)

SYM = symmetric_operad()
INSTANCES = {"braid": braid_operad(), "cactus": cactus_operad()}


def relation_system(family: str, n: int):
    return braid_relations(n) if family == "braid" else cactus_relations(n)


class NullTracer:
    """Tracing off: a call passes straight through."""

    def call(self, _name, fn, *args):
        return fn(*args)


# ---------------------------------------------------------------------------
# axioms_exhaustive
# ---------------------------------------------------------------------------


class ReversedBlockSum(SymmetricOperad):
    """Planted defect: the block sum lays its blocks out in reverse."""

    def beta(self, els):
        return self._wrap(block_sum([e.payload for e in reversed(els)]))


class AxiomsExhaustive:
    name = "axioms_exhaustive"

    @staticmethod
    def setup(seed, size):
        for n in range(size.axioms_arity + 1):
            SYM.elements(n)
        # exhaustive mode draws nothing from the seed; it is passed through
        return AxiomCheckConfig(max_total_arity=size.axioms_arity, seed=seed)

    @staticmethod
    def run(config, tracer):
        return tracer.call("core.check_axioms", check_axioms, SYM, config)

    @staticmethod
    def check(config, report):
        want = R.axiom_case_counts(config.max_total_arity)
        problems = []
        if report.mode != "exhaustive":
            problems.append(f"axioms ran in {report.mode} mode")
        for name, count in want.items():
            out = report.outcomes.get(name)
            if out is None or out.checked != count:
                got = None if out is None else out.checked
                problems.append(f"{name}: {got} cases checked, the closed form gives {count}")
            elif out.failures:
                problems.append(f"{name}: {out.failed} failure(s) on the symmetric groups")
        if check_axioms(ReversedBlockSum(), AxiomCheckConfig(max_total_arity=3)).passed():
            problems.append("planted defect: a reversed block sum passes check_axioms")
        failed = sum(o.inconclusive for o in report.outcomes.values())
        return sum(want.values()), failed, problems

    @staticmethod
    def counts(report):
        return {"core.axiom_cases": report.total_checked}


# ---------------------------------------------------------------------------
# oracle queries, shared by word_prove and word_decide
# ---------------------------------------------------------------------------


def run_query(family, build, budget, tracer):
    """Build both sides, then ask the oracle; returns (family, n, w1, w2,
    result) with the words as the oracle received them."""
    lhs, rhs = tracer.call("core.build", build)
    res = tracer.call("rewrite.equal", INSTANCES[family].equal, lhs, rhs, None, budget)
    return family, lhs.n, lhs.payload.letters, rhs.payload.letters, res


def check_query(output, truth, problems, label) -> int:
    """Check one verdict against ``truth`` ("equal" or "distinct") and the
    benchmark's own models; returns 1 when the query came back
    inconclusive (a failed operation, not a wrong one)."""
    family, n, w1, w2, res = output
    pi1, pi2 = R.word_pi(family, n, w1), R.word_pi(family, n, w2)
    if truth == "equal":
        if pi1 != pi2:
            problems.append(f"{label}: should be equal, but pi differs")
        if family == "braid" and R.burau_mod_p(n, w1) != R.burau_mod_p(n, w2):
            problems.append(f"{label}: should be equal, but the Burau matrices differ")
        if family == "cactus" and n == 3 and R.j3_normal_form(w1) != R.j3_normal_form(w2):
            problems.append(f"{label}: should be equal, but the J_3 normal forms differ")
    if res.is_inconclusive:
        return 1
    if res.is_equal:
        if truth == "distinct" or pi1 != pi2:
            problems.append(f"{label}: Equal on a distinct pair")
        else:
            relations = relation_system(family, n).relations
            if res.path is None or not R.replay(relations, family == "cactus", w1, w2, res.path):
                problems.append(f"{label}: the Equal path does not replay")
    elif res.is_distinct:
        if res.separating == "pi":
            separated = pi1 != pi2
        elif res.separating == "exponent_sum":
            separated = family == "braid" and R.exponent_sum(w1) != R.exponent_sum(w2)
        else:
            # any other refuter (a normal form, a finite quotient) is wrong
            # only where the benchmark's models say the pair is equal
            separated = R.truth(family, n, w1, w2) != "equal"
        if truth == "equal":
            problems.append(f"{label}: Distinct on an equal pair")
        elif not separated:
            problems.append(f"{label}: invariant {res.separating!r} does not separate the pair")
    else:
        problems.append(f"{label}: unknown verdict {res.verdict!r}")
    return 0


def check_relation_tables(outputs) -> list[str]:
    """The relations each replayed path uses must hold in the group."""
    problems = []
    for family, n in sorted({(o[0], o[1]) for o in outputs}):
        problems.extend(R.relations_sound(family, n, relation_system(family, n).relations))
    return problems


def rewrite_counts(outputs) -> dict:
    results = [o[4] for o in outputs]
    return {
        "rewrite.queries": len(results),
        "rewrite.states": sum(r.states for r in results),
        "rewrite.max_states_query": max((r.states for r in results), default=0),
        "rewrite.path_steps": sum(
            len(r.path.forward) + len(r.path.backward) for r in results if r.is_equal
        ),
        "rewrite.verdict_equal": sum(r.is_equal for r in results),
        "rewrite.verdict_distinct": sum(r.is_distinct for r in results),
        "rewrite.verdict_inconclusive": sum(r.is_inconclusive for r in results),
    }


# ---------------------------------------------------------------------------
# word_prove
# ---------------------------------------------------------------------------


def _prove_build(q):
    kind = q[0]
    C = INSTANCES["cactus"]
    if kind == "delta":
        _, family, n, sizes, lhs, rhs = q
        inst = INSTANCES[family]
        return (
            inst.delta(inst.from_letters(n, lhs), sizes),
            inst.delta(inst.from_letters(n, rhs), sizes),
        )
    if kind == "commutor_symmetry":
        _, m, k = q
        return C.mul(commutor(k, m), commutor(m, k)), C.identity(m + k)
    if kind == "commutor_is_delta":
        _, m, k = q
        return commutor(m, k), C.delta(C.from_letters(2, (((1, 2), 1),)), (m, k))
    _, m, k, p = q
    return (
        C.mul(commutor(m, k + p), C.beta([C.identity(m), commutor(k, p)])),
        C.mul(commutor(k + m, p), C.beta([commutor(m, k), C.identity(p)])),
    )


class WordProve:
    """Equalities that hold by theorem: the block diagonal respects every
    relation the search uses, and the coboundary laws of the commutors."""

    name = "word_prove"

    @staticmethod
    def setup(seed, size):
        queries = []
        for family, (max_n, width) in (("cactus", size.prove_cactus), ("braid", size.prove_braid)):
            for n in range(2, max_n + 1):
                rels = relation_system(family, n).relations
                for sizes in itertools.product(range(1, width + 1), repeat=n):
                    for lhs, rhs in rels:
                        queries.append(("delta", family, n, sizes, lhs, rhs))
        T = size.coboundary_total
        for m, k in itertools.product(range(1, T), repeat=2):
            if m + k <= T:
                queries.append(("commutor_symmetry", m, k))
                queries.append(("commutor_is_delta", m, k))
        for m, k, p in itertools.product(range(1, T - 1), repeat=3):
            if m + k + p <= T:
                queries.append(("coboundary_square", m, k, p))
        # the seed fixes the order in which the queries are issued
        random.Random(seed).shuffle(queries)
        return queries

    @staticmethod
    def run(queries, tracer):
        return [
            run_query(q[1] if q[0] == "delta" else "cactus", lambda q=q: _prove_build(q), None, tracer)
            for q in queries
        ]

    @staticmethod
    def check(queries, outputs):
        problems: list[str] = []
        failed = sum(check_query(o, "equal", problems, q[:4]) for q, o in zip(queries, outputs))
        problems.extend(check_relation_tables(outputs))
        return len(queries), failed, problems

    counts = staticmethod(rewrite_counts)


# ---------------------------------------------------------------------------
# word_decide
# ---------------------------------------------------------------------------

DELTA4 = "b1 b2 b3 b1 b2 b1"
# Pairs whose verdict does not depend on the seed.  The oracle returns
# Inconclusive on every one of them today: the distinct ones have equal
# invariants, and the equal one needs a longer word on its path.
HARD_PAIRS = (
    ("cactus", 3, "s(1,2) s(2,3) s(1,2) s(2,3) s(1,2) s(2,3)", "e"),
    ("cactus", 3, "s(1,2) s(1,3) s(1,2) s(1,3) s(1,2) s(1,3)", "s(1,3) s(1,2) s(1,3) s(1,2) s(1,3) s(1,2)"),
    ("braid", 3, "b1 b2 b1 b2 b1 B2", "b2 b1 B2 b1 b2 b1"),
    ("braid", 3, "b1 b2 b2 B1 B2 B2", "e"),
    ("braid", 3, "B1 B2 B2 b1", "b2 B1 B1 B2"),
    ("braid", 4, f"{DELTA4} {DELTA4} b1 b1", f"{DELTA4} {DELTA4} b3 b3"),
    ("braid", 4, f"{DELTA4} {DELTA4} b1 b1 B2 B2", f"{DELTA4} {DELTA4}"),
    ("braid", 5, "b1 b3 b2 b4 b1 b3 b2 b4 b1 b3 b1 b1", "b1 b3 b2 b4 b1 b3 b2 b4 b1 b3 b3 b3"),
    ("braid", 5, "b1 b2 b3 b4 b1 b2 b3 b1 b2 b1 b1 b1", "b1 b2 b3 b4 b1 b2 b3 b1 b2 b1 b3 b3"),
    ("braid", 6, "b1 b3 b5 b2 b4 b1 b3 b5 b2 b4 b1 b1", "b1 b3 b5 b2 b4 b1 b3 b5 b2 b4 b3 b3"),
)
DECIDE_FAMILIES = (("braid", 3), ("braid", 4), ("cactus", 3), ("cactus", 4))


def _generators(family, n):
    if family == "braid":
        return [(i, s) for i in range(1, n) for s in (1, -1)]
    return [((p, q), 1) for p in range(1, n + 1) for q in range(p + 1, n + 1)]


def random_word(rng, family, n, length):
    letters = _generators(family, n)
    word: tuple = ()
    while len(word) < length:
        word = R.free_reduce(word + (rng.choice(letters),), family == "cactus")
    return word


def equal_by_construction(rng, family, n, word, steps=3):
    """Apply ``steps`` random relations, then insert a cyclic conjugate of
    a relator, all from the benchmark's own presentation."""
    involutive = family == "cactus"
    rels = R.own_braid_relations(n) if family == "braid" else R.own_cactus_relations(n)
    for _ in range(steps):
        moves = [
            (pos, a, b)
            for lhs, rhs in rels
            for a, b in ((lhs, rhs), (rhs, lhs))
            if a
            for pos in range(len(word) - len(a) + 1)
            if word[pos : pos + len(a)] == a
        ]
        if not moves:
            break
        pos, a, b = rng.choice(moves)
        word = R.free_reduce(word[:pos] + b + word[pos + len(a) :], involutive)
    rel = R.relator(*rng.choice(rels), involutive)
    cut = rng.randrange(len(rel))
    rel = rel[cut:] + rel[:cut]
    pos = rng.randrange(len(word) + 1)
    return R.free_reduce(word[:pos] + rel + word[pos:], involutive)


class WordDecide:
    """Seeded pairs the oracle decides (equal by construction, or refuted
    by pi or the exponent sum) plus the fixed hard pairs."""

    name = "word_decide"

    @staticmethod
    def setup(seed, size):
        rng = random.Random(seed)
        queries = []  # (kind, family, n, w1, w2, budget)
        for family, n in DECIDE_FAMILIES:
            for _ in range(size.decide_equal):
                w1 = random_word(rng, family, n, size.decide_len)
                w2 = w1
                while w2 == w1:
                    w2 = equal_by_construction(rng, family, n, w1)
                queries.append(("equal", family, n, w1, w2, None))
            for _ in range(size.decide_refuted):
                w1 = random_word(rng, family, n, size.decide_len)
                extra = rng.choice(_generators(family, n))
                queries.append(("pi", family, n, w1, R.free_reduce(w1 + (extra,), family == "cactus"), None))
                if family == "braid":
                    square = (rng.randrange(1, n), 1)
                    queries.append(("exponent_sum", family, n, w1, R.free_reduce(w1 + (square, square), False), None))
        for family, n, a, b in HARD_PAIRS:
            inst = INSTANCES[family]
            w1, w2 = inst.parse(a, n).payload.letters, inst.parse(b, n).payload.letters
            queries.append(("hard", family, n, w1, w2, size.decide_budget))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def run(queries, tracer):
        return [
            run_query(
                family,
                lambda family=family, n=n, w1=w1, w2=w2: (
                    INSTANCES[family].from_letters(n, w1),
                    INSTANCES[family].from_letters(n, w2),
                ),
                budget,
                tracer,
            )
            for _kind, family, n, w1, w2, budget in queries
        ]

    @staticmethod
    def check(queries, outputs):
        problems: list[str] = []
        failed = 0
        for (kind, family, n, w1, w2, _budget), out in zip(queries, outputs):
            label = f"{kind} {family}_{n} {w1} vs {w2}"
            if kind == "hard":
                truth = R.truth(family, n, w1, w2)
                if truth is None:
                    problems.append(f"{label}: truth unknown to the benchmark")
            elif kind == "equal":
                truth = "equal"
                if R.truth(family, n, w1, w2) not in ("equal", None):
                    problems.append(f"{label}: the construction made a distinct pair")
            else:
                truth = "distinct"
                if R.truth(family, n, w1, w2) != "distinct":
                    problems.append(f"{label}: the construction did not make a distinct pair")
            failed += check_query(out, truth, problems, label)
        problems.extend(check_relation_tables(outputs))
        return len(queries), failed, problems

    counts = staticmethod(rewrite_counts)


# ---------------------------------------------------------------------------
# finite_structures
# ---------------------------------------------------------------------------


class StabilizedProduct(SymmetricOperad):
    """Planted defect: multiplying by the transposition of the first two
    points does nothing, so every element has a nontrivial stabilizer."""

    def mul(self, a, b):
        if b.payload.images[:2] == (2, 1):
            return a
        return super().mul(a, b)


def make_mutants(M: FinMulticat, rng, count: int) -> list[FinMulticat]:
    """Single-entry corruptions chosen by the seed: about 60% composition
    results, 30% action targets, and one identity.  Each replacement keeps
    the signature, so only the laws can reject it."""
    by_sig: dict = {}
    for el, sig in M.elements.items():
        by_sig.setdefault(sig, []).append(el)

    def others(el):
        return [x for x in by_sig[M.elements[el]] if x != el]

    comp_keys = [k for k in sorted(M.composition) if others(M.composition[k])]
    act_keys = [k for k in sorted(M.actions) if others(M.actions[k])]
    n_comp = (count * 6) // 10
    mutants = []
    for i in range(count - 1):
        if i < n_comp:
            key = rng.choice(comp_keys)
            comp = dict(M.composition)
            comp[key] = rng.choice(others(comp[key]))
            mutants.append(FinMulticat(M.name, M.objects, M.elements, M.identities, comp, M.actions))
        else:
            key = rng.choice(act_keys)
            acts = dict(M.actions)
            acts[key] = rng.choice(others(acts[key]))
            mutants.append(FinMulticat(M.name, M.objects, M.elements, M.identities, M.composition, acts))
    x = M.objects[0]
    wrong = rng.choice([el for el in sorted(M.elements) if el != M.identities[x]])
    mutants.append(
        FinMulticat(M.name, M.objects, M.elements, {x: wrong}, M.composition, M.actions)
    )
    return mutants


class FiniteStructures:
    """The enumeration engines over finite data: Borel realizations,
    contractibility and freeness, multicategory validation, clubs."""

    name = "finite_structures"

    @staticmethod
    def setup(seed, size):
        d2 = discrete_category(("a", "b"), name="d2")
        cats = [d2, z2_category(), arrow_category(), discrete_category(("a", "b", "c"), name="d3")]
        M = operad_as_multicat(SYM, size.multicat_arity)
        return {
            "size": size,
            "cats": cats,
            "mutants": make_mutants(M, random.Random(seed), size.mutants),
            "pullbacks": [(n, d2) for n in range(1, size.borel_arity + 1)] + [(2, cats[1])],
        }

    @staticmethod
    def run(inp, tracer):
        size = inp["size"]
        call = tracer.call
        out = {
            "free": [
                call("borel.contractible_free", contractible_free_check, SYM, n)
                for n in range(1, size.free_max_n + 1)
            ],
            "borel": [
                call("borel.realization", borel_realization, SYM, X, size.borel_arity)
                for X in inp["cats"]
            ],
        }
        M = call("multicat.build", operad_as_multicat, SYM, size.multicat_arity)
        out["multicat"] = call("multicat.validate", validate_multicat, M, SYM)
        out["mutants"] = [call("multicat.validate", validate_multicat, m, SYM) for m in inp["mutants"]]
        out["roundtrip"] = call("club.roundtrip", roundtrip_check, SYM, size.roundtrip_total)
        out["pullback"] = [call("club.pullback", check_pullback, SYM, n, X) for n, X in inp["pullbacks"]]
        return out

    @staticmethod
    def check(inp, out):
        size = inp["size"]
        problems = []
        for n, rep in enumerate(out["free"], start=1):
            if not rep.passed or rep.size != factorial(n):
                problems.append(f"contractible_free_check(sym, {n}): passed={rep.passed} size={rep.size}")
        if contractible_free_check(StabilizedProduct(), 2).free:
            problems.append("planted defect: a stabilized product is reported free")
        for X, real in zip(inp["cats"], out["borel"]):
            problems.extend(_check_realization(X, real, size.borel_arity))
        if not out["multicat"].passed:
            problems.append(f"operad_as_multicat fails validation: {out['multicat'].violations[:2]}")
        for i, rep in enumerate(out["mutants"]):
            if rep.passed or not rep.violations:
                problems.append(f"planted defect: multicategory mutant {i} passes validation")
        rt = out["roundtrip"]
        want = R.roundtrip_counts(size.roundtrip_total)
        if not rt.passed or (rt.beta_checked, rt.delta_checked, rt.mu_checked) != want:
            problems.append(f"roundtrip_check: {rt}, closed-form counts {want}")
        for (n, X), rep in zip(inp["pullbacks"], out["pullback"]):
            homs = _hom_sizes(X)
            tuples = list(itertools.product(X.objects, repeat=n))
            want_morphisms = sum(R.borel_hom_count(homs, xs, ys) for xs in tuples for ys in tuples)
            if not rep.passed or rep.morphisms_upstairs != want_morphisms or rep.objects_upstairs != len(tuples):
                problems.append(f"check_pullback(sym, {n}, {X.name}): {rep.format_text()}, want {want_morphisms} morphisms")
        attempted = sum(len(v) if isinstance(v, list) else 1 for v in out.values()) + 1  # + the build
        return attempted, 0, problems

    @staticmethod
    def counts(out):
        reports = [out["multicat"], *out["mutants"]]
        return {
            "multicat.checks": sum(r.checked for r in reports),
            "multicat.skipped": sum(r.skipped for r in reports),
            "fincat.morphisms": sum(len(r.cat.morphisms) for r in out["borel"])
            + sum(r.size**2 for r in out["free"]),
            "borel.hom_morphisms": sum(len(r.morphisms) for r in out["borel"])
            + sum(r.morphisms_upstairs for r in out["pullback"]),
        }


def _hom_sizes(X) -> dict:
    sizes: dict = {}
    for m in X.morphisms:
        key = (X.src[m], X.tgt[m])
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def _check_realization(X, real, arity) -> list[str]:
    """Object count, and every hom-set size against the permanent formula."""
    want_objects = sum(len(X.objects) ** n for n in range(arity + 1))
    if len(real.cat.objects) != want_objects:
        return [f"borel_realization(sym, {X.name}): {len(real.cat.objects)} objects, want {want_objects}"]
    got: dict = {}
    for m in real.cat.morphisms:
        key = (real.cat.src[m], real.cat.tgt[m])
        got[key] = got.get(key, 0) + 1
    homs = _hom_sizes(X)
    problems = []
    for a, oa in real.objects.items():
        for b, ob in real.objects.items():
            if oa.n != ob.n:
                continue
            want = R.borel_hom_count(homs, oa.objects, ob.objects)
            if got.get((a, b), 0) != want:
                problems.append(
                    f"borel_realization(sym, {X.name}): |Hom({a}, {b})| = {got.get((a, b), 0)}, want {want}"
                )
    return problems


BATTERIES = {b.name: b for b in (AxiomsExhaustive, WordProve, WordDecide, FiniteStructures)}


class Workload:
    """Batteries run one after the other in every round; inputs and
    outputs are lists with one entry per battery."""

    def __init__(self, name: str, batteries: tuple):
        self.name = name
        self.batteries = batteries

    def setup(self, seed, size):
        return [b.setup(seed, size) for b in self.batteries]

    def run(self, inputs, tracer):
        return [b.run(i, tracer) for b, i in zip(self.batteries, inputs)]

    def check(self, inputs, outputs):
        attempted = failed = 0
        problems: list[str] = []
        for b, i, o in zip(self.batteries, inputs, outputs):
            a, f, p = b.check(i, o)
            attempted, failed = attempted + a, failed + f
            problems.extend(f"{b.name}: {line}" for line in p)
        return attempted, failed, problems

    def counts(self, outputs):
        """Counts summed over the batteries; ``max_`` counts take the larger."""
        merged: dict = {}
        for b, o in zip(self.batteries, outputs):
            for name, value in b.counts(o).items():
                if name not in merged:
                    merged[name] = value
                elif ".max_" in name:
                    merged[name] = max(merged[name], value)
                else:
                    merged[name] += value
        return merged


WORKLOADS = {
    w.name: w
    for w in (
        Workload("words", (WordProve, WordDecide)),
        Workload("structures", (AxiomsExhaustive, FiniteStructures)),
    )
}
