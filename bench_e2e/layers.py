"""Per-layer tracing for the traced run, from the benchmark's own files.

:func:`install` wraps the public functions each layer of the program is
entered through and records, in memory, a span per call (name, start,
end, parent span, thread) plus counts at the same boundaries.  Nothing in
the program changes: the wrappers replace module and class attributes of
the running process only, and only in the traced run.

Each metric is the set-up phase's value plus the timed window's value per
round, so it does not depend on how many rounds fit in the window.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Per-layer metrics, name → unit, in the order they are reported.
METRICS: Dict[str, str] = {
    "stats.profile_s": "s",
    "bounds.evaluate_calls": "count",
    "bounds.evaluate_s": "s",
    "planner.candidates": "count",
    "planner.candidates_s": "s",
    "planner.certify_calls": "count",
    "planner.certify_s": "s",
    "planner.bucket_weight_calls": "count",
    "planner.share_opt_calls": "count",
    "planner.share_opt_s": "s",
    "planner.cache_hits": "count",
    "planner.cache_misses": "count",
    "planner.cache_evictions": "count",
    "pipeline.plan_s": "s",
    "pipeline.structures": "count",
    "pipeline.replans": "count",
    "pipeline.replan_s": "s",
    "pipeline.rounds_run": "count",
    "mapreduce.map_s": "s",
    "mapreduce.shuffle_s": "s",
    "mapreduce.reduce_s": "s",
    "mapreduce.pairs": "count",
    "mapreduce.max_reducer_load": "count",
    "mapreduce.spill_bytes": "bytes",
    "service.admission_deferrals": "count",
    "service.admission_wait_p50_s": "s",
    "service.peak_in_flight_load": "load",
    "service.queued_s": "s",
    "service.parked_s": "s",
    "service.intermediates_materialized": "count",
    "service.intermediates_reused": "count",
    "service.tuner_factor": "factor",
    "service.replan_wins": "count",
    "service.replan_losses": "count",
    "trace.queries_per_ref": "1/ref",
    "trace.query_p50_ref": "ref",
}

#: Metrics that take the largest value seen instead of a sum.
_PEAKS = {"mapreduce.max_reducer_load", "service.peak_in_flight_load"}
#: Metrics that take the median of their window samples.
_MEDIANS = {"service.tuner_factor", "service.admission_wait_p50_s"}
#: Metrics whose counter is named after the wrapped call.
_COUNTER_OF = {"pipeline.replans": "pipeline.replan_calls"}


class LayerTrace:
    """Spans and counts of one traced run, bucketed by run phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: List[Dict[Tuple[str, str], float]] = []
        self._peaks: Dict[str, float] = defaultdict(float)
        self._samples: Dict[str, List[float]] = defaultdict(list)
        self._cache = None
        self._cache_base = (0, 0, 0)
        self._tickers: List[Tuple[str, Any]] = []
        self._tick_base: Dict[int, int] = defaultdict(int)

    def reset(self) -> None:
        """Forget everything recorded so far (earlier set-up repetitions)."""
        self._bank()
        with self._lock:
            for counts in self._thread_counts:
                counts.clear()
            self._peaks.clear()
            self._samples.clear()
            self.spans.clear()

    def set_phase(self, phase: str) -> None:
        self._bank()
        self.phase = phase

    def _bank(self) -> None:
        self._bank_cache()
        self._bank_ticks()

    # -- recording -------------------------------------------------------
    def _counts(self) -> Dict[Tuple[str, str], float]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(float)
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def count(self, name: str, amount: float = 1.0) -> None:
        self._counts()[self.phase, name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self._peaks[name] = max(self._peaks[name], value)

    def sample(self, name: str, value: float) -> None:
        """One observation of a per-query quantity in the window."""
        if self.phase == "window":
            with self._lock:
                self._samples[name].append(value)

    def timed(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """Wrap ``fn``: count calls as ``<name>_calls`` and time the
        outermost call of a nested chain as ``<name>_s``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            self.count(f"{name}_calls")
            if any(entry[1] == name for entry in stack):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                self.count(f"{name}_s", ended - started)
                self.spans.append(
                    (span_id, parent, name, started, ended,
                     threading.get_ident(), self.phase)
                )
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot function with a bare call count (no span).

        The count is a C-level counter, the cheapest tick Python offers;
        :meth:`_bank_ticks` moves it into the current phase.
        """
        ticks = itertools.count()
        self._tickers.append((name, ticks))
        tick = ticks.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _bank_ticks(self) -> None:
        for index, (name, ticks) in enumerate(self._tickers):
            now = next(ticks)
            self.count(name, now - self._tick_base[index])
            self._tick_base[index] = now + 1

    # -- patching --------------------------------------------------------
    def _replace_function(self, original: Callable, wrapped: Callable) -> None:
        """Point every module attribute bound to ``original`` at ``wrapped``."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(module, attribute, wrapped)

    def _replace_method(self, cls: type, attribute: str, wrapped_of: Callable) -> None:
        setattr(cls, attribute, wrapped_of(cls.__dict__[attribute]))

    def install(self) -> None:
        from repro.bounds.base import BoundRegistry
        from repro.mapreduce.engine import MapReduceEngine
        from repro.pipeline import execute as pipeline_execute
        from repro.pipeline import planner as pipeline_planner
        from repro.planner import cache, certify, registry, share_opt
        from repro.stats import profile

        self._replace_function(
            profile.profile_relations,
            self.timed("stats.profile", profile.profile_relations),
        )
        self._replace_function(
            certify.certify_max_reducer_load,
            self.timed("planner.certify", certify.certify_max_reducer_load),
        )
        for fn in (share_opt.optimize_shares, share_opt.optimize_skew_shares):
            self._replace_function(fn, self.timed("planner.share_opt", fn))
        self._replace_function(
            pipeline_planner.replan_round,
            self.timed("pipeline.replan", pipeline_planner.replan_round),
        )
        self._replace_method(
            BoundRegistry, "evaluate",
            lambda fn: self.timed("bounds.evaluate", fn),
        )
        self._replace_method(
            registry.SchemaRegistry, "candidates",
            lambda fn: self.timed(
                "planner.candidates", fn,
                after=lambda found: self.count("planner.candidates", len(found)),
            ),
        )
        self._replace_method(
            certify.ProfileWeightOracle, "bucket_weight",
            lambda fn: self.counted("planner.bucket_weight_calls", fn),
        )
        self._replace_method(
            pipeline_planner.PipelinePlanner, "plan",
            lambda fn: self.timed(
                "pipeline.plan", fn,
                after=lambda result: self.count("pipeline.structures", len(result)),
            ),
        )
        self._replace_method(
            pipeline_execute.RoundWork, "execute",
            lambda fn: self.counted("pipeline.rounds_run", fn),
        )
        self._replace_method(
            MapReduceEngine, "run",
            lambda fn: self.timed("mapreduce.job", fn, after=self._note_job),
        )
        # The schema cache's ``clear`` resets its counters; bank them first.
        default_cache = cache.default_schema_cache
        clear = default_cache.clear

        def banked_clear() -> None:
            self._bank_cache()
            clear()
            self._cache_base = (0, 0, 0)

        self._cache = default_cache
        self._cache_base = self._cache_stats()
        default_cache.clear = banked_clear

    def _cache_stats(self) -> Tuple[int, int, int]:
        stats = self._cache.stats()
        return stats.hits, stats.misses, stats.evictions

    def _bank_cache(self) -> None:
        """Count the schema cache's activity since the last banking."""
        if self._cache is None:
            return
        now = self._cache_stats()
        for name, value, base in zip(
            ("planner.cache_hits", "planner.cache_misses", "planner.cache_evictions"),
            now,
            self._cache_base,
        ):
            self.count(name, value - base)
        self._cache_base = now

    def _note_job(self, job_result) -> None:
        metrics = job_result.metrics
        timings = metrics.timings
        if timings is not None:
            self.count("mapreduce.map_s", timings.map_seconds)
            self.count("mapreduce.shuffle_s", timings.shuffle_seconds)
            self.count("mapreduce.reduce_s", timings.reduce_seconds)
        self.count("mapreduce.pairs", metrics.shuffle.num_key_value_pairs)
        self.count("mapreduce.spill_bytes", metrics.shuffle.bytes_shuffled or 0)
        self.peak("mapreduce.max_reducer_load", metrics.shuffle.max_reducer_size)

    def note_service(self, snapshot: dict, phase_rows: List[dict]) -> None:
        """Fold one drained service segment's ``describe()`` and
        ``query_phase_rows`` into the metrics."""
        admission = snapshot["admission"]
        self.count("service.admission_deferrals", admission["deferrals"])
        self.peak("service.peak_in_flight_load", admission["peak_in_flight_load"])
        self.count(
            "service.intermediates_materialized",
            snapshot["intermediates"]["materialized"],
        )
        self.count("service.intermediates_reused", snapshot["intermediates"]["reused"])
        self.count("service.replan_wins", snapshot["tuner"]["wins"])
        self.count("service.replan_losses", snapshot["tuner"]["losses"])
        self.sample("service.tuner_factor", snapshot["tuner"]["factor"])
        for row in phase_rows:
            self.count("service.queued_s", row["admission_wait_s"])
            self.count("service.parked_s", row["parked_s"])
            self.sample("service.admission_wait_p50_s", row["admission_wait_s"])

    # -- reporting -------------------------------------------------------
    def metrics(self, rounds: int, traced: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric: set-up value plus window value per round.

        ``traced`` carries the traced run's own end-to-end figures.
        """
        self._bank()
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        with self._lock:
            for counts in self._thread_counts:
                for key, value in list(counts.items()):
                    totals[key] += value
        values: Dict[str, float] = dict(traced)
        for name in METRICS:
            if name in values:
                continue
            if name in _PEAKS:
                values[name] = self._peaks.get(name, 0.0)
            elif name in _MEDIANS:
                samples = self._samples.get(name)
                values[name] = statistics.median(samples) if samples else 0.0
            else:
                key = _COUNTER_OF.get(name, name)
                values[name] = totals["setup", key] + totals["window", key] / rounds
        return {name: (values[name], unit) for name, unit in METRICS.items()}

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "thread", "phase")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump([dict(zip(fields, span)) for span in self.spans], handle)
