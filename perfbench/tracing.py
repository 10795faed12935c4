"""Spans and profiler summaries for the traced run.

Spans are recorded by the benchmark around its own calls into the
library (the library itself is not instrumented), kept in memory, and
written out when the run ends.  The per-module self times and call
counts come from ``cProfile`` run over one more round of the battery.
"""

from __future__ import annotations

import pstats
import statistics
import time
from pathlib import Path

MODULES = ("perm", "core", "rewrite", "braid", "cactus", "fincat", "borel", "club", "multicat")
CALL_COUNTS = {
    "perm.compose_calls": ("perm", "compose"),
    "perm.block_perm_calls": ("perm", "block_perm"),
    "perm.is_permutation_calls": ("perm", "is_permutation"),
    "core.check_element_calls": ("core", "check_element"),
    "rewrite.free_reduce_calls": ("rewrite", "free_reduce"),
}
# ``FinCat.validate`` is called only inside the library, so its time is
# the profiler's cumulative time, reported as ``fincat.validate_s``
VALIDATE = ("fincat", "validate")


class Tracer:
    """Records one span per call: (name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (0 when there are no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def profile_summary(profile, package_dir: Path) -> tuple[dict, list]:
    """Per-module self time, exact call counts and ``fincat.validate_s``
    from a ``cProfile.Profile``, plus the top functions by self time."""
    stats = pstats.Stats(profile).stats
    metrics = {f"{m}.self_s": 0.0 for m in MODULES}
    metrics.update({name: 0 for name in CALL_COUNTS})
    metrics["fincat.validate_s"] = 0.0
    top = []
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _callers) in stats.items():
        path = Path(filename)
        if path.parent != package_dir:
            continue
        module = path.stem
        if module in MODULES:
            metrics[f"{module}.self_s"] += tottime
        for name, key in CALL_COUNTS.items():
            if key == (module, func):
                metrics[name] += ncalls
        if (module, func) == VALIDATE:
            metrics["fincat.validate_s"] += cumtime
        top.append((f"{module}.{func}", ncalls, round(tottime, 6), round(cumtime, 6)))
    top.sort(key=lambda row: -row[2])
    return metrics, top[:40]
