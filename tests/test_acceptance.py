"""Acceptance battery: one test per criterion, each at its stated bounds,
printing one pass/fail line.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete."""

from __future__ import annotations

import itertools
import json
import time

from actionoperads.borel import BorelObject, contractible_free_check, hom_set
from actionoperads.braid import block_cross, braid_operad, embedded_block_transposition
from actionoperads.cactus import cactus_operad, cactus_relations, delta_respects_relation
from actionoperads.cli import main as cli_main
from actionoperads.club import check_pullback, roundtrip_check
from actionoperads.core import AxiomCheckConfig, check_axioms, symmetric_operad, trivial_operad
from actionoperads.fincat import arrow_category, discrete_category, z2_category
from actionoperads.multicat import (
    FinFunctor,
    from_functor,
    identity_prof,
    lift_matches_plus,
    operad_as_multicat,
    prof_compose,
    validate_multicat,
)
from actionoperads.perm import Perm
from actionoperads.presentation import (
    Generator,
    GeneratorCollection,
    check_presentation,
    eval_term,
    generate_terms,
    term_pi,
)
from oracles import quotient_hom_set, zigzag_orbit_count
from test_multicat import _mutations
from test_presentation import coboundary_presentation

SYM = symmetric_operad()
TRIV = trivial_operad()
CACT = cactus_operad()
BRAID = braid_operad()


def report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{tail}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_symmetric_exhaustive():
    t0 = time.monotonic()
    rep = check_axioms(SYM, AxiomCheckConfig(max_total_arity=5))
    elapsed = time.monotonic() - t0
    ok = (
        rep.mode == "exhaustive"
        and rep.passed(strict=True)
        and rep.total_checked >= 1000
        and elapsed < 10.0
    )
    report(1, "symmetric instance exhaustive at total arity <= 5", ok,
           f"{rep.total_checked} cases in {elapsed:.1f}s")


def test_criterion_02_cactus_delta_well_defined():
    t0 = time.monotonic()
    checked = inconclusive = failed = 0
    for n in (2, 3, 4):
        sys = cactus_relations(n)
        for sizes in itertools.product((1, 2, 3), repeat=n):
            for ridx in range(len(sys.relations)):
                res = delta_respects_relation(n, sizes, ridx)
                checked += 1
                inconclusive += res.is_inconclusive
                failed += not (res.is_equal or res.is_inconclusive)
    elapsed = time.monotonic() - t0
    ok = failed == 0 and inconclusive == 0 and elapsed < 60.0
    report(2, "cactus block diagonal respects every relation (n<=4, widths<=3)", ok,
           f"{checked} checks, {inconclusive} inconclusive, {elapsed:.1f}s")


def test_criterion_03_coboundary_laws(capsys):
    # the CLI battery: both laws at each of the 15 pairs m + n <= 6 and the
    # 20 squares m + n + p <= 6
    t0 = time.monotonic()
    code = cli_main(["cactus", "coboundary", "--max-total", "6", "--strict", "--format", "structured"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    elapsed = time.monotonic() - t0
    ok = code == 0 and len(checks) == 50 and all(c["verdict"] == "equal" for c in checks) and elapsed < 60.0
    with capsys.disabled():
        report(3, "coboundary laws in the cactus family (totals <= 6)", ok,
               f"{len(checks)} checks in {elapsed:.1f}s")


def test_criterion_04_borel_hom_sets_match_quotient_oracle():
    fixtures = [
        (TRIV, discrete_category(("a", "b"), name="d2"), 2, None),
        (SYM, discrete_category(("a", "b"), name="d2"), 2, None),
        (SYM, discrete_category(("a", "b", "c"), name="d3"), 2, None),
        (SYM, z2_category(), 2, None),
        (SYM, arrow_category(), 2, None),
        (SYM, discrete_category(("a", "b"), name="d2"), 3, 20),
        (TRIV, discrete_category(("a", "b", "c"), name="d3"), 3, 20),
        (CACT, z2_category(), 2, None),
        (CACT, discrete_category(("a", "b"), name="d2"), 2, None),
    ]
    pairs = mismatches = 0
    for inst, X, n, limit in fixtures:
        combos = list(itertools.product(
            itertools.product(X.objects, repeat=n), itertools.product(X.objects, repeat=n)
        ))
        if limit is not None:
            combos = combos[:limit]
        for xs, ys in combos:
            got = {
                (m.g.key(), m.components)
                for m in hom_set(
                    inst, X, BorelObject(inst.name, n, xs), BorelObject(inst.name, n, ys)
                ).morphisms
            }
            want = set(quotient_hom_set(inst, X, xs, ys))
            pairs += 1
            mismatches += got != want
    ok = mismatches == 0 and pairs >= 50
    report(4, "hom-sets match the brute-force quotient (set bijection)", ok,
           f"{pairs} object pairs")


def test_criterion_05_contractible_and_free():
    ok = True
    details = []
    for n in range(1, 5):
        r = contractible_free_check(SYM, n)
        ok &= r.passed
        details.append(f"sym@{n}:{r.size}")
    for n in range(1, 7):
        ok &= contractible_free_check(TRIV, n).passed
    r = contractible_free_check(CACT, 2)
    ok &= r.passed and r.size == 2
    report(5, "translation pieces contractible with free action", ok, " ".join(details))


def test_criterion_06_club_correspondence():
    ok = True
    for inst in (SYM, TRIV):
        rep = roundtrip_check(inst, max_total=4)
        ok &= rep.passed
    X2 = discrete_category(("a", "b"), name="d2")
    for n in (1, 2, 3):
        ok &= check_pullback(SYM, n, X2).passed
    ok &= check_pullback(CACT, 2, z2_category()).passed
    ok &= check_pullback(CACT, 2, X2).passed
    report(6, "operad <-> club roundtrip and pullback squares", ok)


def test_criterion_07_profunctor_lift():
    X = discrete_category(("a", "b"), name="d2")
    Y = arrow_category()
    Z = z2_category()
    include = FinFunctor("include", X, Y, {"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "id_b"})
    collapse = FinFunctor("collapse", Y, Z, {o: "*" for o in Y.objects}, {m: "e" for m in Y.morphisms})
    ok = True
    cells = 0
    for inst in (TRIV, SYM):
        for G in (include, collapse):
            bij = lift_matches_plus(inst, G, max_arity=3)
            cells += sum(len(c) for c in bij.values())
    # coend cardinalities against the orbit oracle on every fixture
    FY = from_functor(include)
    FZ = from_functor(collapse)
    fixtures = [
        (identity_prof(Y), FY),
        (FZ, FY),
        (identity_prof(Z), FZ),
    ]
    for G, F in fixtures:
        out = prof_compose(G, F)
        for (z, x), cids in out.prof.values.items():
            if len(cids) != zigzag_orbit_count(G, F, z, x):
                ok = False
    report(7, "profunctor lift matches the plus-construction; coends match orbits", ok,
           f"{cells} matched elements")


def test_criterion_08_multicat_validator_and_mutations():
    M = operad_as_multicat(SYM, max_arity=3)
    base = validate_multicat(M, SYM)
    muts = _mutations(M)
    rejected = sum(
        1 for _label, mutated in muts if not validate_multicat(mutated, SYM).passed
    )
    witnesses = all(
        validate_multicat(mutated, SYM).violations for _label, mutated in muts
    )
    ok = base.passed and len(muts) == 10 and rejected == 10 and witnesses
    report(8, "multicategory fixture validates; 10 mutations rejected with witnesses", ok,
           f"{rejected}/10 rejected")


def test_criterion_09_presentation_workflow():
    p = coboundary_presentation()
    rep = check_presentation(p, {"s": CACT.parse("s(1,2)", 2)}, CACT)
    ok = rep.all_hold

    swap = GeneratorCollection([Generator("s", 2, Perm((2, 1)))])
    plain = GeneratorCollection([Generator("u", 2, Perm((1, 2)))])
    corpus_swap = generate_terms(swap, 100, seed=41)
    corpus_plain = generate_terms(plain, 100, seed=41)
    fixtures = [
        (SYM, swap, corpus_swap, {"s": SYM.parse("[2,1]", 2)}),
        (CACT, swap, corpus_swap, {"s": CACT.parse("s(1,2)", 2)}),
        (BRAID, swap, corpus_swap, {"s": BRAID.parse("b1", 2)}),
        (TRIV, plain, corpus_plain, {"u": TRIV.identity(2)}),
    ]
    coherent = 0
    for inst, gens, corpus, interp in fixtures:
        for t in corpus:
            if inst.pi(eval_term(t, interp, inst, gens)) == term_pi(t, gens):
                coherent += 1
    total = sum(len(c) for _i, _g, c, _p in [(0, 0, corpus_swap, 0)] * 3) + len(corpus_plain)
    ok = ok and coherent == total
    report(9, "presentation checking and pi-coherence on a 100-term corpus", ok,
           f"{coherent}/{total} coherent evaluations")


def test_criterion_10_braid_instance():
    cfg = AxiomCheckConfig(
        max_total_arity=3,
        samples_per_axiom=20,
        max_word_length=2,
        max_block_size=2,
        max_result_arity=6,
        seed=2026,
    )
    rep = check_axioms(BRAID, cfg)
    ok = rep.passed(strict=True)
    crossings = 0
    for a in range(0, 6):
        for b in range(0, 6):
            if a + b > 5:
                continue
            for p in (1, 2):
                ambient = max(p + a + b - 1, p)
                got = BRAID.pi(block_cross(p, a, b, ambient))
                want = embedded_block_transposition(p, a, b, ambient)
                crossings += 1
                if got != want:
                    ok = False
    report(10, "braid instance: axiom suite strict-clean; crossings project to block swaps",
           ok, f"{rep.total_checked} axiom cases, {crossings} crossings")


def test_criterion_11_determinism(capsys, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import actionoperads
    import actionoperads.fincat as fincat

    d2 = tmp_path / "d2.json"
    d2.write_text(json.dumps(fincat.fincat_to_dict(discrete_category(("a", "b"), name="d2"))))
    invocations = [
        ["axioms", "--operad", "sym", "--max-arity", "3"],
        ["axioms", "--operad", "braid", "--max-arity", "3", "--samples", "10"],
        ["axioms", "--operad", "cactus", "--max-arity", "3", "--samples", "10", "--format", "structured"],
        ["cactus", "coboundary", "--max-total", "5"],
        ["borel", "hom", "--operad", "sym", "--category", str(d2), "--src", "a,b", "--tgt", "b,a"],
        ["club", "check", "--operad", "sym", "--max-arity", "3"],
    ]
    ok = True
    for argv in invocations:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            outputs.append(capsys.readouterr().out)
            assert code == 0
        if outputs[0] != outputs[1]:
            ok = False
    # fresh processes with different hash seeds must also agree byte-for-byte;
    # they import the package from where this process found it
    src = str(Path(actionoperads.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for argv in (invocations[2], invocations[4]):
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "actionoperads", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            ok = False
    with capsys.disabled():
        report(11, "repeated runs produce byte-identical reports", ok)
