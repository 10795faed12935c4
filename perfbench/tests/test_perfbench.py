"""Tests of the benchmark itself: every battery runs clean at the tiny
size, and every reference check fails on a planted defect.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import batteries as B  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
from actionoperads.rewrite import EqResult, RewritePath, Step  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    """Inputs and outputs of one tiny round of every battery."""
    out = {}
    for name, W in B.BATTERIES.items():
        inputs = W.setup(3, B.TINY)
        out[name] = (inputs, W.run(inputs, B.NullTracer()))
    return out


@pytest.mark.parametrize("name", list(B.BATTERIES))
def test_tiny_round_is_correct(tiny, name):
    W = B.BATTERIES[name]
    inputs, outputs = tiny[name]
    attempted, failed, problems = W.check(inputs, outputs)
    assert problems == []
    assert attempted > 0
    assert set(W.counts(outputs)) <= set(run.COUNT_METRICS)
    if name == "word_decide":
        assert failed == len(B.HARD_PAIRS)


def test_same_seed_same_inputs():
    assert tuple(B.WORKLOADS) == run.WORKLOADS
    assert sorted(b.name for w in B.WORKLOADS.values() for b in w.batteries) == sorted(B.BATTERIES)
    for W in B.WORKLOADS.values():
        a, b = W.setup(5, B.TINY), W.setup(5, B.TINY)
        assert repr(a) == repr(b)


def test_a_workload_adds_up_its_batteries():
    W = B.WORKLOADS["words"]
    inputs = W.setup(3, B.TINY)
    outputs = W.run(inputs, B.NullTracer())
    attempted, failed, problems = W.check(inputs, outputs)
    assert problems == []
    assert attempted == sum(len(q) for q in inputs)
    assert failed == len(B.HARD_PAIRS)
    parts = [b.counts(o) for b, o in zip(W.batteries, outputs)]
    merged = W.counts(outputs)
    assert merged["rewrite.queries"] == sum(p["rewrite.queries"] for p in parts)
    assert merged["rewrite.max_states_query"] == max(p["rewrite.max_states_query"] for p in parts)


# -- planted defects: each reference check must fail on one ------------------


def _problems(name, inputs, outputs):
    return B.BATTERIES[name].check(inputs, outputs)[2]


def test_axiom_counts_catch_a_missing_case(tiny):
    config, report = tiny["axioms_exhaustive"]
    outcomes = dict(report.outcomes)
    outcomes["delta_nesting"] = dataclasses.replace(
        outcomes["delta_nesting"], checked=outcomes["delta_nesting"].checked - 1
    )
    problems = _problems("axioms_exhaustive", config, dataclasses.replace(report, outcomes=outcomes))
    assert any("delta_nesting" in p for p in problems)


def test_planted_broken_instance_must_fail_check_axioms(tiny, monkeypatch):
    config, report = tiny["axioms_exhaustive"]
    real = B.check_axioms
    monkeypatch.setattr(
        B, "check_axioms",
        lambda inst, cfg: real(B.SYM, cfg) if isinstance(inst, B.ReversedBlockSum) else real(inst, cfg),
    )
    assert any("reversed block sum" in p for p in _problems("axioms_exhaustive", config, report))


def _replace_result(outputs, index, res):
    out = list(outputs)
    family, n, w1, w2, _ = out[index]
    out[index] = (family, n, w1, w2, res)
    return out


def _first(queries, outputs, pred):
    return next(i for i, (q, o) in enumerate(zip(queries, outputs)) if pred(q, o))


@pytest.mark.parametrize("separating", ["pi", "quotient_S4"])
def test_distinct_on_a_theorem_equal_pair_is_wrong(tiny, separating):
    queries, outputs = tiny["word_prove"]
    bad = _replace_result(outputs, 0, EqResult("distinct", separating=separating))
    assert any("Distinct on an equal pair" in p for p in _problems("word_prove", queries, bad))


def test_replay_catches_a_corrupted_path(tiny):
    queries, outputs = tiny["word_prove"]
    i = _first(queries, outputs, lambda q, o: o[4].path.forward)
    res = outputs[i][4]
    step = res.path.forward[0]
    path = dataclasses.replace(res.path, forward=(dataclasses.replace(step, pos=step.pos + 1),) + res.path.forward[1:])
    bad = _replace_result(outputs, i, dataclasses.replace(res, path=path))
    assert any("does not replay" in p for p in _problems("word_prove", queries, bad))


def test_replay_rejects_an_unsound_relation():
    w1, w2 = ((1, 1), (2, 1)), ((2, 1), (1, 1))
    path = RewritePath(w2, (Step(0, 0, 0, w2),), ())
    assert R.replay([(w1, w2)], False, w1, w2, path)
    assert R.relations_sound("braid", 3, [(w1, w2)]) != []
    assert R.relations_sound("braid", 4, [(((1, 1), (3, 1)), ((3, 1), (1, 1)))]) == []


def test_equal_on_a_burau_distinct_pair_is_wrong(tiny):
    queries, outputs = tiny["word_decide"]
    i = _first(queries, outputs, lambda q, o: q[0] == "hard" and q[1] == "braid" and q[2] >= 4)
    w1 = outputs[i][2]
    assert R.truth("braid", queries[i][2], w1, outputs[i][3]) == "distinct"
    bad = _replace_result(outputs, i, EqResult("equal", path=RewritePath(w1, (), ())))
    assert any("Equal on a distinct pair" in p for p in _problems("word_decide", queries, bad))


def test_equal_on_a_j3_distinct_pair_is_wrong(tiny):
    queries, outputs = tiny["word_decide"]
    i = _first(queries, outputs, lambda q, o: q[0] == "hard" and q[1] == "cactus")
    assert R.truth("cactus", 3, queries[i][3], queries[i][4]) == "distinct"
    bad = _replace_result(outputs, i, EqResult("equal", path=RewritePath((), (), ())))
    assert any("Equal on a distinct pair" in p for p in _problems("word_decide", queries, bad))


def test_a_false_separating_invariant_is_wrong(tiny):
    queries, outputs = tiny["word_decide"]
    i = _first(queries, outputs, lambda q, o: q[0] == "exponent_sum")
    bad = _replace_result(outputs, i, EqResult("distinct", separating="pi"))
    assert any("does not separate" in p for p in _problems("word_decide", queries, bad))


def test_distinct_by_another_refuter_is_accepted(tiny):
    queries, outputs = tiny["word_decide"]
    hard = [i for i, q in enumerate(queries) if q[0] == "hard"]
    bad = outputs
    for i in hard:
        bad = _replace_result(bad, i, EqResult("distinct", separating="quotient_S4"))
    problems = _problems("word_decide", queries, bad)
    equal_hard = [i for i in hard if R.truth(*queries[i][1:5]) == "equal"]
    assert len(equal_hard) == 1
    assert problems == [f"{queries[i][0]} {queries[i][1]}_{queries[i][2]} {queries[i][3]} vs "
                        f"{queries[i][4]}: Distinct on an equal pair" for i in equal_hard]


def test_inconclusive_counts_as_failed_not_wrong(tiny):
    queries, outputs = tiny["word_decide"]
    i = _first(queries, outputs, lambda q, o: q[0] == "equal")
    bad = _replace_result(outputs, i, EqResult("inconclusive", states=7))
    _, failed, problems = B.WordDecide.check(queries, bad)
    assert problems == [] and failed == len(B.HARD_PAIRS) + 1


def test_models_decide_known_pairs():
    assert R.truth("braid", 3, ((1, 1), (2, 1), (1, 1)), ((2, 1), (1, 1), (2, 1))) == "equal"
    assert R.truth("braid", 3, ((1, 1), (2, 1), (2, 1), (1, -1), (2, -1), (2, -1)), ()) == "distinct"
    assert R.truth("braid", 4, ((1, 1), (3, 1)), ((3, 1), (1, 1))) is None
    s12, s13, s23 = ((1, 2), 1), ((1, 3), 1), ((2, 3), 1)
    assert R.truth("cactus", 3, (s23,), (s13, s12, s13)) == "equal"
    assert R.truth("cactus", 3, (s12, s23) * 3, ()) == "distinct"


def test_borel_hom_counts_catch_a_missing_morphism(tiny):
    inputs, out = tiny["finite_structures"]
    real = out["borel"][0]
    dropped = real.cat.morphisms[-1]
    cat = dataclasses.replace(real.cat, morphisms=real.cat.morphisms[:-1])
    bad = dict(out, borel=[dataclasses.replace(real, cat=cat)] + out["borel"][1:])
    assert dropped not in cat.morphisms
    assert any("|Hom(" in p for p in _problems("finite_structures", inputs, bad))


def test_every_mutant_must_be_rejected(tiny):
    inputs, out = tiny["finite_structures"]
    bad = dict(out, mutants=[out["multicat"]] + out["mutants"][1:])
    assert any("mutant 0 passes" in p for p in _problems("finite_structures", inputs, bad))


def test_planted_non_free_action_must_be_reported(tiny, monkeypatch):
    inputs, out = tiny["finite_structures"]
    real = B.contractible_free_check
    monkeypatch.setattr(
        B, "contractible_free_check",
        lambda inst, n: real(B.SYM, n) if isinstance(inst, B.StabilizedProduct) else real(inst, n),
    )
    assert any("stabilized product" in p for p in _problems("finite_structures", inputs, out))


def test_roundtrip_counts_catch_a_skipped_case(tiny):
    inputs, out = tiny["finite_structures"]
    rt = dataclasses.replace(out["roundtrip"], mu_checked=out["roundtrip"].mu_checked - 1)
    assert any("roundtrip_check" in p for p in _problems("finite_structures", inputs, dict(out, roundtrip=rt)))


# -- the command ------------------------------------------------------------------


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _run(ROOT, "--workload", "words", "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    per_round = len(B.WordProve.setup(2, B.FULL)) + len(B.WordDecide.setup(2, B.FULL))
    assert res["correct"] and res["failed"] * per_round == res["attempted"] * len(B.HARD_PAIRS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in res["metrics"].items()}


def test_reference_sampler_samples_inside_a_long_call():
    before = signal.getsignal(signal.SIGALRM)
    ref = run.ReferenceSampler()
    ref.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3.5 * run.REF_EVERY_S:
        pass
    ref.stop()
    assert ref.loops >= 2 and ref.inside_wall == ref.wall > 0
    assert gc.isenabled() and signal.getsignal(signal.SIGALRM) == before
    idle = run.ReferenceSampler()
    idle.start()
    idle.stop()
    assert idle.loops == 1 and idle.inside_wall == 0 < idle.wall


def test_a_wrong_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(B.WordDecide, "check", staticmethod(lambda inputs, outputs: (1, 0, ["planted"])))
    status = run.main(["--workload", "words", "--seed", "2", "--seconds", "0", "--trace", "0"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == run.WRONG != 0
    assert res["correct"] is False


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "structures", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
