"""
Command-line surface for batch verification and queries.

Exit codes: 0 success, 1 verification failure, 2 inconclusive under
--strict, 3 input error.  Output is deterministic (fixed ordering, no
timestamps); ``--format structured`` emits the same content as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import borel, cactus as cactus_mod, club as club_mod, multicat as mc, presentation as pres
from .core import AxiomCheckConfig, OperadElement, check_axioms, finite_group, get_operad
from .fincat import load_fincat, read_json
from .perm import format_perm
from .rewrite import Word, path_from_dict, replay_path

OK, FAIL, INCONCLUSIVE, INPUT_ERROR = 0, 1, 2, 3


def _parse_ints(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _outcome(failed, inconclusive, strict: bool) -> int:
    """The exit code of a check: any failure is FAIL; otherwise an
    undecided case is INCONCLUSIVE under --strict and OK without it."""
    if failed:
        return FAIL
    return INCONCLUSIVE if inconclusive and strict else OK


# -- element commands ---------------------------------------------------------


def cmd_pi(args) -> int:
    inst = get_operad(args.operad)
    el = inst.parse(args.word, args.n)
    text = format_perm(inst.pi(el))
    _emit(args, text, {"pi": text})
    return OK


def cmd_mul(args) -> int:
    inst = get_operad(args.operad)
    a = inst.parse(args.left, args.n)
    b = inst.parse(args.right, args.n)
    text = inst.format(inst.mul(a, b))
    _emit(args, text, {"product": text})
    return OK


def cmd_beta(args) -> int:
    inst = get_operad(args.operad)
    arities = _parse_ints(args.n)
    if len(arities) != len(args.words):
        raise ValueError(f"{len(args.words)} word(s) against {len(arities)} arity entry(ies)")
    els = [inst.parse(w, k) for w, k in zip(args.words, arities)]
    out = inst.beta(els)
    text = inst.format(out)
    _emit(args, text, {"beta": text, "arity": out.n})
    return OK


def cmd_delta(args) -> int:
    inst = get_operad(args.operad)
    sizes = _parse_ints(args.sizes)
    el = inst.parse(args.word, args.n)
    out = inst.delta(el, sizes)
    text = inst.format(out)
    _emit(args, text, {"delta": text, "arity": out.n})
    return OK


def cmd_mu(args) -> int:
    inst = get_operad(args.operad)
    arities = _parse_ints(args.arities)
    if len(arities) != len(args.args):
        raise ValueError(f"{len(args.args)} argument word(s) against {len(arities)} arity entry(ies)")
    g = inst.parse(args.head, args.n)
    hs = [inst.parse(w, k) for w, k in zip(args.args, arities)]
    out = inst.mu(g, hs)
    text = inst.format(out)
    _emit(args, text, {"mu": text, "arity": out.n})
    return OK


def cmd_equal(args) -> int:
    inst = get_operad(args.operad)
    a = inst.parse(args.left, args.n)
    b = inst.parse(args.right, args.n)
    # rewrite paths only exist for word-backed instances
    has_paths = hasattr(inst, "relation_system")

    if args.replay:
        if not has_paths:
            raise ValueError(f"instance {inst.name!r} has no rewrite paths to replay")
        doc = read_json(args.replay)
        try:
            path = path_from_dict(doc["path"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed path document: {exc}") from None
        ok = replay_path(inst.relation_system(args.n), a.payload, b.payload, path)
        _emit(args, "Valid" if ok else "Invalid", {"replay": ok})
        return OK if ok else FAIL

    res = inst.equal(a, b, budget=args.budget)
    verdict = {"equal": "Equal", "distinct": "Distinct", "inconclusive": "Inconclusive"}[res.verdict]
    lines = [verdict if not res.separating else f"{verdict}({res.separating})"]
    payload = {"verdict": res.verdict, "separating": res.separating, "states": res.states}
    if args.explain and res.is_equal and has_paths:
        payload["path"] = asdict(res.path)
        lines.append(f"meet: {_render_letters(inst, args.n, res.path.meet)}")
        for label, chain in (("forward", res.path.forward), ("backward", res.path.backward)):
            for s in chain:
                lines.append(
                    f"{label}: rel={s.rel} orient={s.orient} pos={s.pos} -> "
                    f"{_render_letters(inst, args.n, s.result)}"
                )
    _emit(args, "\n".join(lines), payload)
    return _outcome(res.is_distinct, res.is_inconclusive, args.strict)


def _render_letters(inst, n: int, letters) -> str:
    return inst.format(OperadElement(inst.name, n, Word(n, tuple(letters))))


def cmd_axioms(args) -> int:
    inst = get_operad(args.operad)
    config = AxiomCheckConfig(
        max_total_arity=args.max_arity,
        samples_per_axiom=args.samples,
        max_word_length=args.word_len,
        max_block_size=args.block_size,
        max_result_arity=args.result_arity,
        seed=args.seed,
        budget=args.budget,
    )
    rep = check_axioms(inst, config)
    _emit(args, rep.format_text(), rep.to_dict())
    return _outcome(not rep.passed(), rep.total_inconclusive, args.strict)


# -- cactus subcommands -------------------------------------------------------


def cmd_cactus_shat(args) -> int:
    text = format_perm(cactus_mod.s_hat(args.p, args.q, args.n))
    _emit(args, text, {"shat": text})
    return OK


def cmd_cactus_commutor(args) -> int:
    inst = cactus_mod.cactus_operad()
    text = inst.format(cactus_mod.commutor(args.m, args.n))
    _emit(args, text, {"commutor": text})
    return OK


def cmd_cactus_relations(args) -> int:
    inst = cactus_mod.cactus_operad()
    sys_ = cactus_mod.cactus_relations(args.n)

    def render(letters) -> str:
        return _render_letters(inst, args.n, letters)

    lines = [f"generators: {len(sys_.generators)}"]
    lines += [f"{render(lhs)} = {render(rhs)}" for lhs, rhs in sys_.relations]
    payload = {
        "generators": [inst.format_letter(gen, 1) for gen in sys_.generators],
        "relations": [[render(lhs), render(rhs)] for lhs, rhs in sys_.relations],
    }
    _emit(args, "\n".join(lines), payload)
    return OK


def cmd_cactus_coboundary(args) -> int:
    inst = cactus_mod.cactus_operad()
    budget = args.budget
    lines = []
    results = []

    def record(law, res, **at):
        results.append({"law": law, **at, "verdict": res.verdict})
        lines.append(" ".join([law, *(f"{k}={v}" for k, v in at.items())]) + f": {res.verdict}")

    for m in range(1, args.max_total):
        for n in range(1, args.max_total):
            if m + n > args.max_total:
                continue
            record("symmetry", cactus_mod.commutor_symmetry(m, n, budget=budget), m=m, n=n)
            d = inst.delta(inst.parse("s(1,2)", 2), (m, n))
            record("delta-coherence", inst.equal(cactus_mod.commutor(m, n), d, budget=budget), m=m, n=n)
    for m in range(1, args.max_total):
        for n in range(1, args.max_total):
            for p in range(1, args.max_total):
                if m + n + p > args.max_total:
                    continue
                record("square", cactus_mod.coboundary_square(m, n, p, budget=budget), m=m, n=n, p=p)
    verdicts = [r["verdict"] for r in results]
    failures, inconclusive = verdicts.count("distinct"), verdicts.count("inconclusive")
    lines.append(f"total: {len(results)} checks, {failures} failed, {inconclusive} inconclusive")
    _emit(args, "\n".join(lines), {"checks": results})
    return _outcome(failures, inconclusive, args.strict)


# -- borel subcommands --------------------------------------------------------


def _borel_object(inst, X, text: str):
    objects = tuple(x for x in text.split(",") if x)
    for x in objects:
        X.identity_of(x)  # raises on an object X does not have
    return borel.BorelObject(inst.name, len(objects), objects)


def _parse_borel_morphism(inst, X, src, tgt, text: str):
    head, _, comps = text.partition("|")
    g = inst.parse(head.strip(), src.n)
    components = tuple(c.strip() for c in comps.split(",")) if comps else ()
    m = borel.BorelMorphism(src, tgt, g, components)
    borel.check_morphism(inst, X, m)
    return m


def cmd_borel_hom(args) -> int:
    inst = get_operad(args.operad)
    X = load_fincat(args.category, name="X")
    src = _borel_object(inst, X, args.src)
    tgt = _borel_object(inst, X, args.tgt)
    res = borel.hom_set(inst, X, src, tgt, bound=args.bound)
    lines = [f"{inst.format(m.g)} | {','.join(m.components)}" for m in res.morphisms]
    if not res.complete:
        lines.append("(bounded enumeration)")
    _emit(
        args,
        "\n".join(lines) if lines else "(empty)",
        {
            "morphisms": [
                {"g": inst.format(m.g), "components": list(m.components)} for m in res.morphisms
            ],
            "complete": res.complete,
        },
    )
    return OK


def cmd_borel_compose(args) -> int:
    inst = get_operad(args.operad)
    X = load_fincat(args.category, name="X")
    src = _borel_object(inst, X, args.src)
    mid = _borel_object(inst, X, args.mid)
    tgt = _borel_object(inst, X, args.tgt)
    m2 = _parse_borel_morphism(inst, X, mid, tgt, args.second)
    m1 = _parse_borel_morphism(inst, X, src, mid, args.first)
    out = borel.compose_borel(inst, X, m2, m1)
    text = f"{inst.format(out.g)} | {','.join(out.components)}"
    _emit(args, text, {"g": inst.format(out.g), "components": list(out.components)})
    return OK


def cmd_borel_infinity(args) -> int:
    inst = get_operad(args.operad)
    rep = borel.contractible_free_check(inst, args.n)
    status = "PASS" if rep.passed else "FAIL"
    text = (
        f"{status} arity={rep.arity} size={rep.size} "
        f"contractible={rep.contractible} free={rep.free}"
    )
    if rep.details:
        text += "\n" + "\n".join(f"  {d}" for d in rep.details)
    _emit(args, text, asdict(rep))
    return OK if rep.passed else FAIL


# -- club subcommands ---------------------------------------------------------


def cmd_club_check(args) -> int:
    inst = get_operad(args.operad)
    rep = club_mod.roundtrip_check(inst, max_total=args.max_arity)
    text = (
        f"{'PASS' if rep.passed else 'FAIL'} roundtrip: operad={rep.operad} "
        f"beta={rep.beta_checked} delta={rep.delta_checked} mu={rep.mu_checked} "
        f"mismatches={rep.mismatches}"
    )
    _emit(args, text, asdict(rep))
    return OK if rep.passed else FAIL


def cmd_club_pullback(args) -> int:
    inst = get_operad(args.operad)
    X = load_fincat(args.category, name="X")
    rep = club_mod.check_pullback(inst, args.n, X)
    _emit(args, rep.format_text(), asdict(rep))
    return OK if rep.passed else FAIL


# -- multicat subcommands -----------------------------------------------------


def cmd_multicat_validate(args) -> int:
    inst = get_operad(args.operad)
    M = mc.load_multicat(args.file, name="multicat")
    rep = mc.validate_multicat(M, inst)
    _emit(
        args,
        rep.format_text(),
        {"checked": rep.checked, "skipped": rep.skipped, "violations": rep.violations},
    )
    return OK if rep.passed else FAIL


def cmd_multicat_lift(args) -> int:
    inst = get_operad(args.operad)
    X = load_fincat(args.category_x, name="X")
    Y = load_fincat(args.category_y, name="Y")
    doc = read_json(args.functor)
    for key in ("ob", "mor"):
        if not isinstance(doc, dict) or not isinstance(doc.get(key), dict):
            raise ValueError(f"functor file {args.functor}: expected a JSON object whose {key!r} entry is a map")
    G = mc.FinFunctor("G", X, Y, doc["ob"], doc["mor"])
    # a functor file that is not a functor, or a group that is not finite,
    # is an input error, not a failed comparison
    G.validate()
    for n in range(args.max_arity + 1):
        finite_group(inst, n)
    try:
        bij = mc.lift_matches_plus(inst, G, max_arity=args.max_arity)
    except ValueError as exc:
        _emit(args, f"FAIL {exc}", {"passed": False, "reason": str(exc)})
        return FAIL
    cells = sum(1 for cell in bij.values() if cell)
    total = sum(len(cell) for cell in bij.values())
    text = f"PASS lift matches plus-construction: {cells} nonempty cell(s), {total} element(s)"
    _emit(args, text, {"passed": True, "nonempty_cells": cells, "elements": total})
    return OK


# -- presentation subcommand --------------------------------------------------


def cmd_present_check(args) -> int:
    inst = get_operad(args.operad)
    p = pres.load_presentation(args.file, name="presentation")
    interp = {}
    for item in args.interp or []:
        name, _, text = item.partition("=")
        if not text:
            raise ValueError(f"malformed --interp entry {item!r}; expected name=WORD")
        gen = p.generators[name.strip()]
        interp[name.strip()] = inst.parse(text.strip(), gen.arity)
    rep = pres.check_presentation(p, interp, inst, budget=args.budget)
    payload = {
        "operad": rep.operad,
        "relations": [
            {"index": o.index, "lhs": o.lhs, "rhs": o.rhs, "verdict": o.result.verdict}
            for o in rep.outcomes
        ],
    }
    _emit(args, rep.format_text(), payload)
    return _outcome(any(o.result.is_distinct for o in rep.outcomes), rep.inconclusive, args.strict)


# -- parser -------------------------------------------------------------------


def _whole_number(text: str) -> int:
    """A whole number >= 0: an arity, a count, a bound or a state budget."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return value


def _add_common(p, operad=True, oracle=False, strict=False):
    if operad:
        p.add_argument("--operad", required=True, choices=["trivial", "sym", "braid", "cactus"])
    if oracle:
        p.add_argument("--budget", type=_whole_number, default=None)
    if strict:
        p.add_argument("--strict", action="store_true")
    p.add_argument("--format", choices=["text", "structured"], default="text")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="actionoperads",
        description="compute with action operads and verify their laws",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="underlying permutation of an element")
    _add_common(p)
    p.add_argument("--n", type=_whole_number, required=True)
    p.add_argument("word")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("mul", help="group product of two elements")
    _add_common(p)
    p.add_argument("--n", type=_whole_number, required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("beta", help="block sum of elements")
    _add_common(p)
    p.add_argument("--n", required=True, help="comma-separated arities, one per word")
    p.add_argument("words", nargs="*")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("delta", help="block diagonal of an element")
    _add_common(p)
    p.add_argument("--n", type=_whole_number, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated block widths")
    p.add_argument("word")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("mu", help="operadic composition")
    _add_common(p)
    p.add_argument("--n", type=_whole_number, required=True, help="arity of the head")
    p.add_argument("--arities", required=True, help="comma-separated arities of the arguments")
    p.add_argument("head")
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("equal", help="bounded equality check")
    _add_common(p, oracle=True, strict=True)
    p.add_argument("--n", type=_whole_number, required=True)
    p.add_argument("--explain", action="store_true", help="print the rewrite path")
    p.add_argument("--replay", default=None, help="validate a structured path file")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("axioms", help="run the axiom suite")
    _add_common(p, oracle=True, strict=True)
    p.add_argument("--max-arity", type=_whole_number, default=5, dest="max_arity")
    p.add_argument("--samples", type=_whole_number, default=24)
    p.add_argument("--word-len", type=_whole_number, default=2, dest="word_len")
    p.add_argument("--block-size", type=_whole_number, default=2, dest="block_size")
    p.add_argument("--result-arity", type=_whole_number, default=6, dest="result_arity")
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=cmd_axioms)

    cact = sub.add_parser("cactus", help="cactus-specific operations")
    csub = cact.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("shat", help="interval-reversal permutation")
    _add_common(p, operad=False)
    p.add_argument("--p", type=_whole_number, required=True)
    p.add_argument("--q", type=_whole_number, required=True)
    p.add_argument("--n", type=_whole_number, required=True)
    p.set_defaults(func=cmd_cactus_shat)
    p = csub.add_parser("commutor", help="the commutor word at two block widths")
    _add_common(p, operad=False)
    p.add_argument("--m", type=_whole_number, required=True)
    p.add_argument("--n", type=_whole_number, required=True)
    p.set_defaults(func=cmd_cactus_commutor)
    p = csub.add_parser("relations", help="print the relation system at one arity")
    _add_common(p, operad=False)
    p.add_argument("--n", type=_whole_number, required=True)
    p.set_defaults(func=cmd_cactus_relations)
    p = csub.add_parser("coboundary", help="verify the coboundary laws")
    _add_common(p, operad=False, oracle=True, strict=True)
    p.add_argument("--max-total", type=_whole_number, default=6, dest="max_total")
    p.set_defaults(func=cmd_cactus_coboundary)

    bor = sub.add_parser("borel", help="Borel construction over a finite category")
    bsub = bor.add_subparsers(dest="subcommand", required=True)
    p = bsub.add_parser("hom", help="enumerate a hom-set")
    _add_common(p)
    p.add_argument("--category", required=True)
    p.add_argument("--src", required=True, help="comma-separated object tuple")
    p.add_argument("--tgt", required=True)
    p.add_argument("--bound", type=_whole_number, default=None)
    p.set_defaults(func=cmd_borel_hom)
    p = bsub.add_parser("compose", help="compose two morphisms (second after first)")
    _add_common(p)
    p.add_argument("--category", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--mid", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("second", help="morphism mid->tgt as 'g|f1,...,fn'")
    p.add_argument("first", help="morphism src->mid as 'g|f1,...,fn'")
    p.set_defaults(func=cmd_borel_compose)
    p = bsub.add_parser("infinity", help="contractible and free checks at one arity")
    _add_common(p)
    p.add_argument("--n", type=_whole_number, required=True)
    p.set_defaults(func=cmd_borel_infinity)

    cl = sub.add_parser("club", help="club correspondence checks")
    clsub = cl.add_subparsers(dest="subcommand", required=True)
    p = clsub.add_parser("check", help="operad -> club -> operad roundtrip")
    _add_common(p)
    p.add_argument("--max-arity", type=_whole_number, default=3, dest="max_arity")
    p.set_defaults(func=cmd_club_check)
    p = clsub.add_parser("pullback", help="comparison square at one arity")
    _add_common(p)
    p.add_argument("--n", type=_whole_number, required=True)
    p.add_argument("--category", required=True)
    p.set_defaults(func=cmd_club_pullback)

    mcp = sub.add_parser("multicat", help="multicategory validation and lifting")
    msub = mcp.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("validate", help="validate a multicategory file")
    _add_common(p)
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_multicat_validate)
    p = msub.add_parser("lift", help="compare the profunctor lift of a functor")
    _add_common(p)
    p.add_argument("--category-x", required=True, dest="category_x")
    p.add_argument("--category-y", required=True, dest="category_y")
    p.add_argument("--functor", required=True)
    p.add_argument("--max-arity", type=_whole_number, default=2, dest="max_arity")
    p.set_defaults(func=cmd_multicat_lift)

    pr = sub.add_parser("present", help="presentation checking")
    psub = pr.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("check", help="check a presentation file against an instance")
    _add_common(p, oracle=True, strict=True)
    p.add_argument("--file", required=True)
    p.add_argument("--interp", action="append", help="generator interpretation name=WORD")
    p.set_defaults(func=cmd_present_check)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the package contract is 3
        return INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
