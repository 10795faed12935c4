"""Capture every equality-oracle result of a fixed query set, and compare
two captures.

The query set is the benchmark's ``words`` workload at seeds 1 and 2
(the ``word_prove`` and ``word_decide`` queries as ``perfbench/``
builds them; nothing there is changed) and the two cactus sweeps of the
tests: every pair of freely reduced words of at most 5 letters at n = 3
(default budget) and of at most 3 letters at n = 4 (budget 500).  Each
result is recorded with its verdict, states, separating invariant, stop
and path, and, for an ``equal``, whether the path replays under
``rewrite.replay_path`` and under the benchmark's own replay.

    PYTHONPATH=src python tests/oracle_diff.py --capture after.json
    PYTHONPATH=/path/to/parent/src python tests/oracle_diff.py --capture before.json
    python tests/oracle_diff.py --compare before.json after.json

``--compare`` prints the number of results whose verdict, states,
separating invariant, stop or path differ, the path steps on each side
and the paths that got longer, with the first few differences.  It exits
1 when the two captures hold different queries, when any result differs
in anything but its path, or when an ``equal`` of the second capture
does not replay; path differences alone are reported, not failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIELDS = ("verdict", "states", "separating", "stop")
SHOWN = 5


def _reduced_words(n: int, max_len: int) -> list[tuple]:
    from actionoperads.cactus import interval_generators

    words, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + ((g, 1),) for w in frontier for g in interval_generators(n) if not w or w[-1][0] != g]
        words += frontier
    return words


def _benchmark():
    """The benchmark's batteries and its own models, imported only here."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import batteries
    import reference

    return batteries, reference


def _queries():
    """``(set name, family, a, b, budget)`` for every query, the elements
    built as the benchmark or the sweep builds them."""
    B, _ = _benchmark()
    for seed in (1, 2):
        prove, decide = B.WORKLOADS["words"].setup(seed, B.FULL)
        for q in prove:
            yield f"words seed {seed} word_prove", q[1] if q[0] == "delta" else "cactus", *B._prove_build(q), None
        for _kind, family, n, w1, w2, budget in decide:
            inst = B.INSTANCES[family]
            yield f"words seed {seed} word_decide", family, inst.from_letters(n, w1), inst.from_letters(n, w2), budget
    cactus = B.INSTANCES["cactus"]
    for n, max_len, budget in ((3, 5, None), (4, 3, 500)):
        elements = [cactus.from_letters(n, w) for w in _reduced_words(n, max_len)]
        for a, b in itertools.product(elements, repeat=2):
            yield f"cactus sweep n={n}", "cactus", a, b, budget


def capture(out: str) -> int:
    from actionoperads.rewrite import replay_path

    B, R = _benchmark()
    records = []
    for name, family, a, b, budget in _queries():
        res = B.INSTANCES[family].equal(a, b, None, budget)
        record = {
            "set": name,
            "query": [family, a.n, a.payload.letters, b.payload.letters, budget],
            **{field: getattr(res, field) for field in FIELDS},
            "path": asdict(res.path) if res.path is not None else None,
        }
        if res.is_equal:
            system = B.relation_system(family, a.n)
            record["replays"] = replay_path(system, a.payload, b.payload, res.path) and R.replay(
                system.relations, family == "cactus", a.payload.letters, b.payload.letters, res.path
            )
        records.append(record)
    Path(out).write_text(json.dumps(records))
    print(f"{len(records)} results in {len({r['set'] for r in records})} sets written to {out}")
    return 0


def _steps(record) -> int:
    path = record["path"]
    return len(path["forward"]) + len(path["backward"]) if path else 0


def compare(first: str, second: str) -> int:
    a, b = json.loads(Path(first).read_text()), json.loads(Path(second).read_text())
    if [r["query"] for r in a] != [r["query"] for r in b]:
        print(f"the captures hold different queries ({len(a)} and {len(b)} results)")
        return 1
    differ = {field: [] for field in (*FIELDS, "path")}
    longer, unreplayed = [], [i for i, r in enumerate(b) if r["verdict"] == "equal" and not r["replays"]]
    for i, (x, y) in enumerate(zip(a, b)):
        for field in differ:
            if x[field] != y[field]:
                differ[field].append(i)
        if _steps(y) > _steps(x):
            longer.append(i)
    print(f"{len(a)} results compared")
    for field, where in differ.items():
        by_set = Counter(a[i]["set"] for i in where)
        print(f"{field}: {len(where)} differ" + "".join(f"; {n} in {name}" for name, n in by_set.items()))
        for i in where[:SHOWN]:
            old, new = (_steps(r) if field == "path" else r[field] for r in (a[i], b[i]))
            print(f"  {a[i]['set']}: {a[i]['query']}: {old} -> {new}" + (" steps" if field == "path" else ""))
    print(f"path steps: {sum(map(_steps, a))} -> {sum(map(_steps, b))}; {len(longer)} paths longer")
    print(f"equal results that do not replay in the second capture: {len(unreplayed)}")
    return 1 if unreplayed or any(differ[field] for field in FIELDS) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--capture", metavar="OUT", help="write every result to OUT")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two captures")
    args = parser.parse_args(argv)
    return capture(args.capture) if args.capture else compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
