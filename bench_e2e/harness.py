"""Run-level measurement shared by the workloads.

A run has a set-up phase and a timed window.  The window is made of whole
*rounds*: each round repeats the same operations, so a run's counts per
query do not depend on how many rounds fit.  Between operations, while the
program is idle, the run times a fixed pure-Python reference loop; ``ref``
is the median of those timings, and the ``*_ref`` metrics divide by it to
cancel the host's drift in speed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

#: Items the reference loop builds, groups and sorts: 10-15 ms of work on
#: a 2-core x86 VM.
REF_ITEMS = 10_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop() -> int:
    """Fixed interpreter work of the kind the program does — building small
    objects, grouping them under tuple keys in a dictionary, sorting by a
    key function — so that the host's changes in speed slow it about as
    much as they slow the program.  It never calls the program."""
    items = [_Item(i * 7919 % 10007 % 1009, i) for i in range(REF_ITEMS)]
    table: Dict[Tuple[int, int], int] = {}
    for item in items:
        slot = (item.key, item.value & 7)
        table[slot] = table.get(slot, 0) + item.value
    ordered = sorted(items, key=lambda item: (item.key, item.value))
    return len(table) + ordered[0].value + sum(1 for slot in table if slot[1] == 3)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """The timed window of one run: rounds, queries, reference timings."""

    seconds: float
    latencies: List[float] = field(default_factory=list)
    comm_pairs: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    ref_samples: List[float] = field(default_factory=list)
    own_seconds: float = 0.0
    wall_seconds: float = 0.0
    failed_labels: List[str] = field(default_factory=list)

    def run_rounds(self) -> Iterator[int]:
        """Yield round numbers while another whole round still fits.

        At least one round always runs; a further round starts only when
        the elapsed time plus the longest round so far stays within
        ``seconds``.
        """
        started = time.perf_counter()
        longest = 0.0
        try:
            while True:
                round_started = time.perf_counter()
                yield self.rounds
                self.rounds += 1
                now = time.perf_counter()
                longest = max(longest, now - round_started)
                if now - started + longest > self.seconds:
                    return
        finally:
            self.wall_seconds = time.perf_counter() - started

    def ref(self, times: int = 1) -> None:
        """Time the reference loop ``times`` times; the program must be idle.

        The cyclic garbage collector is paused meanwhile: a collection
        triggered by the loop's allocations would scan the program's live
        objects and make ``ref`` depend on the size of its heap.
        """
        gc.disable()
        try:
            for _ in range(times):
                started = time.perf_counter()
                reference_loop()
                elapsed = time.perf_counter() - started
                self.ref_samples.append(elapsed)
                self.own_seconds += elapsed
        finally:
            gc.enable()

    @contextlib.contextmanager
    def own(self) -> Iterator[None]:
        """Benchmark work inside the window (checks), kept out of its time."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.own_seconds += time.perf_counter() - started

    def record(self, latency: float, comm_pairs: int, ok: bool, label: str) -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            self.comm_pairs += comm_pairs
        else:
            self.failed += 1
            self.failed_labels.append(label)

    def metrics(self, setup_seconds: float) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics ``BENCHMARK.json`` declares."""
        ref = statistics.median(self.ref_samples)
        completed = len(self.latencies)
        return {
            "setup_s": (setup_seconds, "s"),
            "queries_per_ref": (completed * ref / self.busy_seconds, "1/ref"),
            "comm_pairs_per_query": (self.comm_pairs / completed, "pairs"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    @property
    def busy_seconds(self) -> float:
        return self.wall_seconds - self.own_seconds

    def query_p50_ref(self) -> float:
        return statistics.median(self.latencies) / statistics.median(self.ref_samples)

    def summary(self) -> str:
        """Figures for readers that vary too much from run to run on a
        drifting host to carry a bound, so they are not declared metrics."""
        return (
            f"queries_per_s {len(self.latencies) / self.busy_seconds:.4f} 1/s, "
            f"query_p50_s {statistics.median(self.latencies):.4f} s, "
            f"query_p50_ref {self.query_p50_ref():.4f} ref, "
            f"ref {statistics.median(self.ref_samples) * 1000:.2f} ms, "
            f"rounds {self.rounds}"
        )


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
