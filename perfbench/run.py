"""Run one workload (two verification batteries) of the actionoperads
library and print its metrics; the last line of standard output is one
JSON object.

    python3 perfbench/run.py --workload words --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

The library is imported from ``src/`` next to this directory and
nowhere else.  See ``perfbench/README.md``.

A timed run (``--trace 0``) first starts the interpreter ``SETUP_PROBES``
times to measure set-up, then repeats the workload's batteries in this
process, whole rounds only, checking every round's outputs after it is
timed, and starts no round that would end, with its check, after
``--seconds`` seconds.  All through a round it times a fixed reference
loop, and reports each round's time in multiples of that loop's time
(``wall_refs``, ``cpu_refs``), which follows the host's speed as it
drifts; the plain seconds are printed on the line before the JSON.
A traced run (``--trace 1``) alternates ``TRACE_PAIRS`` untraced rounds
with as many rounds under spans, then runs one round under ``cProfile``,
and writes the spans and the profile to ``perfbench-out/``.

The exit status is 0 when every output checks, 1 when any is wrong (the
JSON line is printed all the same), and 2, with nothing printed, when
the library is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "actionoperads"
TRACE_DIR = ROOT / "perfbench-out"
WORKLOADS = ("words", "structures")
SETUP_PROBES = 9
WRONG = 1  # exit status of a run whose outputs are wrong
TRACE_PAIRS = 2

REF_STEPS = 6000  # one reference loop: about 2 ms on a 2.1 GHz core
REF_EVERY_S = 0.1  # time between two reference loops in a round

END_TO_END = {"wall_refs": "refs", "cpu_refs": "refs", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_METRICS = {
    "core.check_axioms_s": "core.check_axioms",
    "core.build_s": "core.build",
    "rewrite.equal_s": "rewrite.equal",
    "borel.realization_s": "borel.realization",
    "borel.contractible_free_s": "borel.contractible_free",
    "multicat.build_s": "multicat.build",
    "multicat.validate_s": "multicat.validate",
    "club.roundtrip_s": "club.roundtrip",
    "club.pullback_s": "club.pullback",
}
COUNT_METRICS = (
    "core.axiom_cases",
    "rewrite.queries",
    "rewrite.states",
    "rewrite.max_states_query",
    "rewrite.path_steps",
    "rewrite.verdict_equal",
    "rewrite.verdict_distinct",
    "rewrite.verdict_inconclusive",
    "multicat.checks",
    "multicat.skipped",
    "fincat.morphisms",
    "borel.hom_morphisms",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    from tracing import CALL_COUNTS, MODULES

    units = {name: "s" for name in SPAN_METRICS}
    units["fincat.validate_s"] = "s"
    units.update({"rewrite.equal_p50_ms": "ms", "rewrite.equal_p99_ms": "ms", "setup.import_s": "s"})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({"rewrite.states_per_s": "1/s", "multicat.checks_per_s": "1/s"})
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({"trace.span_overhead_pct": "%", "trace.profile_overhead_pct": "%"})
    return units


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_batteries():
    """Import the library from ``src/`` beside this directory, or exit
    with status 2 when it is not there."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        fail(f"no library at {PACKAGE_DIR}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import actionoperads
    import batteries

    if Path(actionoperads.__file__).resolve().parent != PACKAGE_DIR.resolve():
        fail(f"imported actionoperads from {actionoperads.__file__}, not {PACKAGE_DIR}")
    return batteries


def measure_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its battery inputs
    being ready: interpreter start, the library import and ``setup``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        fail(f"set-up probe exited with status {code}")
    return elapsed


def reference_loop() -> int:
    """A fixed piece of pure-Python work of the kind the library's inner
    loops do: tuples, dict lookups and small integer arithmetic."""
    table: dict = {}
    acc = 0
    for i in range(REF_STEPS):
        key = (i, i & 15)
        table[key] = table.get(i & 15, 0) + 1
        acc += len(table) & 7
    return acc


class ReferenceSampler:
    """Between ``start`` and ``stop``, runs ``reference_loop`` every
    ``REF_EVERY_S`` seconds from a SIGALRM handler, so that it falls
    inside long library calls too, and adds up its wall and CPU time."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.loops = 0
        self.inside_wall = self.inside_cpu = 0.0
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # the time the loops took between start and stop
        self.inside_wall, self.inside_cpu = self.wall, self.cpu
        if not self.loops:
            self._sample()

    def _sample(self, *_signal):
        # no collection of the library's objects may fall inside the loop
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        c1, w1 = time.process_time(), time.perf_counter()
        gc.enable()
        self.wall += w1 - w0
        self.cpu += c1 - c0
        self.loops += 1


def timed_run(args) -> dict:
    B = import_batteries()
    setup_s = statistics.median(measure_setup(args) for _ in range(SETUP_PROBES))
    W = B.WORKLOADS[args.workload]
    inputs = W.setup(args.seed, B.FULL)
    walls, cpus, wall_refs, cpu_refs, problems = [], [], [], [], []
    attempted = failed = 0
    spent = []  # seconds per round, the check included
    start = time.perf_counter()
    while not spent or time.perf_counter() - start + statistics.median(spent) <= args.seconds:
        r0 = time.perf_counter()
        gc.collect()
        ref = ReferenceSampler()
        ref.start()
        w0, c0 = time.perf_counter(), time.process_time()
        outputs = W.run(inputs, B.NullTracer())
        c1, w1 = time.process_time(), time.perf_counter()
        ref.stop()
        # the round's own time, without the reference loops run inside it
        walls.append(w1 - w0 - ref.inside_wall)
        cpus.append(c1 - c0 - ref.inside_cpu)
        wall_refs.append(walls[-1] / (ref.wall / ref.loops))
        cpu_refs.append(cpus[-1] / (ref.cpu / ref.loops))
        a, f, p = W.check(inputs, outputs)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        del outputs
        spent.append(time.perf_counter() - r0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_refs": statistics.median(wall_refs),
        "cpu_refs": statistics.median(cpu_refs),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    print(f"{args.workload}: {len(walls)} round(s) in {time.perf_counter() - start:.1f} s;"
          f" median round wall_s = {statistics.median(walls):.4f} s,"
          f" cpu_s = {statistics.median(cpus):.4f} s")
    return result(problems, attempted, failed, metrics, END_TO_END)


def traced_run(args) -> dict:
    import cProfile

    from tracing import Tracer, percentile_ms, profile_summary

    t0 = time.perf_counter()
    B = import_batteries()
    import_s = time.perf_counter() - t0
    W = B.WORKLOADS[args.workload]
    inputs = W.setup(args.seed, B.FULL)

    # untraced and spanned rounds alternate, so that both see the same
    # machine; the spans of the last spanned round are reported
    untraced, spanned = [], []
    for _ in range(TRACE_PAIRS):
        gc.collect()
        t0 = time.perf_counter()
        W.run(inputs, B.NullTracer())
        untraced.append(time.perf_counter() - t0)
        tracer = Tracer()
        gc.collect()
        t0 = time.perf_counter()
        outputs = W.run(inputs, tracer)
        spanned.append(time.perf_counter() - t0)
    untraced_s, traced_s = statistics.median(untraced), statistics.median(spanned)

    profile = cProfile.Profile()
    gc.collect()
    t0 = time.perf_counter()
    profile.runcall(W.run, inputs, B.NullTracer())
    profiled_s = time.perf_counter() - t0

    attempted, failed, problems = W.check(inputs, outputs)
    metrics = {name: tracer.total(span) for name, span in SPAN_METRICS.items()}
    metrics["setup.import_s"] = import_s
    equal_times = tracer.durations("rewrite.equal")
    metrics["rewrite.equal_p50_ms"] = percentile_ms(equal_times, 50)
    metrics["rewrite.equal_p99_ms"] = percentile_ms(equal_times, 99)
    metrics.update({name: 0 for name in COUNT_METRICS})
    metrics.update(W.counts(outputs))
    metrics["rewrite.states_per_s"] = _rate(metrics["rewrite.states"], metrics["rewrite.equal_s"])
    metrics["multicat.checks_per_s"] = _rate(metrics["multicat.checks"], metrics["multicat.validate_s"])
    profiled, top = profile_summary(profile, PACKAGE_DIR)
    metrics.update(profiled)
    metrics["trace.span_overhead_pct"] = 100 * (traced_s / untraced_s - 1)
    metrics["trace.profile_overhead_pct"] = 100 * (profiled_s / untraced_s - 1)

    TRACE_DIR.mkdir(exist_ok=True)
    side = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    first = tracer.spans[0][1] if tracer.spans else 0.0
    side.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "round_s": {"untraced": untraced, "spans": spanned, "profiled": profiled_s},
        "metrics": metrics,
        "spans": [[n, s - first, e - first] for n, s, e in tracer.spans],
        "profile_top": top,
    }, indent=1))
    print(f"{args.workload}: trace written to {side.relative_to(ROOT)}")
    return result(problems, attempted, failed, metrics, per_layer_units())


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def result(problems, attempted, failed, metrics, units) -> dict:
    for p in problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode not in (0, WRONG):
            fail(f"{workload} exited with status {proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        res = json.loads(last)
        print(*lines, sep="\n")
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
            merged["metrics"][f"{workload}.{name}"] = m
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
    return merged


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        B = import_batteries()
        B.WORKLOADS[args.workload].setup(args.seed, B.FULL)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        res = run_all(args)
    elif args.trace:
        res = traced_run(args)
    else:
        res = timed_run(args)
    print(json.dumps(res))
    return 0 if res["correct"] else WRONG


if __name__ == "__main__":
    sys.exit(main())
