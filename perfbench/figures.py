"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/figures.py --seeds 1-10 [--workloads words,structures] [--trace]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints a Markdown table: for each end-to-end metric its median over
the runs and the distance between the first and third quartiles as a
share of the median (``statistics.quantiles(values, n=4)``), the same
for the plain seconds per round that each run prints before its JSON
line, and every share of failed operations seen (one value when it is
steady).  With
``--trace`` it then makes one traced run per workload (the first seed)
and prints the per-layer metrics that are not zero.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong results")
    # the plain seconds per round, from the text line of a timed run
    for name, value in re.findall(r"(wall_s|cpu_s) = ([0-9.]+) s", proc.stdout):
        res["metrics"][name] = {"value": float(value), "unit": "s"}
    return res


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    shown = {**END_TO_END, "wall_s": "s", "cpu_s": "s"}
    print("| workload | " + " | ".join(f"{m} median (IQR/median)" for m in shown) + " | failed share |")
    print("|---" * (len(shown) + 2) + "|")
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        cells = []
        for name, unit in shown.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            cells.append(f"{med:.4g} {unit} ({(q3 - q1) / med:.3f})")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        fail_text = ", ".join(f"{s:.6f}" for s in shares)
        print(f"| {workload} | " + " | ".join(cells) + f" | {fail_text} |", flush=True)

    if args.trace:
        for workload in workloads:
            res = run_once(workload, args.seeds[0], args.seconds, 1)
            print(f"\n{workload} (traced, seed {args.seeds[0]}):")
            for name, m in res["metrics"].items():
                if m["value"]:
                    print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
