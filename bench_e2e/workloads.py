"""The three workloads: what each sets up and what one round of it does.

Constructing a workload class with ``(seed, seconds)`` is the set-up
phase, timed by the runner; ``run_round(window, trace)`` then runs one
whole round, and ``faults`` lists run-level property violations.  Rounds
of one run repeat the same operations, so counts per query are the same
however many rounds fit.  The program is reached only through public
entry points, with its default executor, data plane, shuffle backend and
re-plan tuner.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from typing import Any, Callable, List, NamedTuple, Tuple

import inputs
import oracles
from repro import pipeline, planner, problems, stats
from repro.obs import Observability, Tracer, query_phase_rows
from repro.service import QueryService

#: Chain-join shape shared by plan-chain and service-mixed: three
#: relations of ``JOIN_SIZE`` tuples over a domain of ``JOIN_DOMAIN``
#: values, Zipf(``JOIN_SKEW``) on the shared attribute A1.
JOIN_RELATIONS = 3
JOIN_SIZE = 16
JOIN_DOMAIN = 8
JOIN_SKEW = 1.2
#: Reducer budget q as a share of a query's input size: well below 1, so
#: every plan replicates (r > 1).
JOIN_BUDGET_SHARE = 0.5


def _chain_problem() -> problems.MultiwayJoinProblem:
    return problems.MultiwayJoinProblem(
        problems.JoinQuery.chain(JOIN_RELATIONS), domain_size=JOIN_DOMAIN
    )


def _chain_instance(rng: random.Random):
    relations = inputs.chain_relations(
        rng, JOIN_RELATIONS, JOIN_SIZE, JOIN_DOMAIN, JOIN_SKEW
    )
    return relations, inputs.join_records(relations), oracles.chain_join(relations)


def _join_budget() -> float:
    return JOIN_BUDGET_SHARE * JOIN_RELATIONS * JOIN_SIZE


def _shipped_pairs(run) -> int:
    """Pairs a pipeline run shipped itself (reused rounds shipped none)."""
    return sum(
        round_result.communication_cost
        for executed, round_result in zip(run.executed, run.result.round_results)
        if not executed.reused
    )


class PlanChain:
    """Distinct Zipf chain joins, each profiled, planned cold, run adaptively.

    Planning dominates: certification, share optimisation and size bounds
    do most of the work and the engine little.  A round is
    ``queries`` distinct instances; the count is sized from the run length
    so that one round fills it at today's planning speed.
    """

    #: Seconds one query takes today (profile + plan + execute), used only
    #: to size the round.
    QUERY_SECONDS = 3.0
    #: Reference-loop timings between queries: queries are few and long,
    #: so each gap samples the host's speed several times.
    REF_TIMES = 4
    faults: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        count = max(2, round(seconds / self.QUERY_SECONDS))
        self.problem = _chain_problem()
        self.queries = [_chain_instance(rng) for _ in range(count)]
        # Warm-up: profile and execute an unprofiled plan of the first
        # instance, which loads every layer a timed query goes through.
        relations, records, expected = self.queries[0]
        stats.profile_relations(relations)
        warm = pipeline.PipelinePlanner().plan(self.problem, q=_join_budget())
        if sorted(warm.best.execute(records).outputs) != expected:
            raise RuntimeError("warm-up join disagrees with the nested-loop join")

    def run_round(self, window, trace) -> None:
        for index, (relations, records, expected) in enumerate(self.queries):
            planner.default_schema_cache.clear()
            ok, pairs = False, 0
            started = time.perf_counter()
            try:
                profile = stats.profile_relations(relations)
                result = pipeline.PipelinePlanner().plan(
                    self.problem, q=_join_budget(), profile=profile
                )
                run = result.best.execute(records)
                latency = time.perf_counter() - started
                with window.own():
                    pairs = run.total_communication
                    ok = sorted(run.outputs) == expected and run.certificates_hold()
            except Exception:
                latency = time.perf_counter() - started
            window.record(latency, pairs, ok, f"chain-{index}")
            window.ref(self.REF_TIMES)


class _Family(NamedTuple):
    """One planned paper family: its plan, input and output check."""

    name: str
    plan: Any
    data: Any
    check: Callable[[Any], bool]


class ExecFamilies:
    """The paper's families, planned once unprofiled, executed repeatedly.

    Map, shuffle and reduce do the work; planning does none.  A round
    executes every family once.
    """

    HAMMING_BITS = 10
    GRAPH_NODES = 60
    GRAPH_EDGES = 360
    TRIANGLE_BUDGET = 600
    TWO_PATH_BUDGET = 40
    MATRIX_SIZE = 12
    faults: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        single = planner.CostBasedPlanner()
        b = self.HAMMING_BITS
        hamming = single.plan(problems.HammingDistanceProblem(b), q=2 ** (b // 2)).best
        hamming_pairs = oracles.hamming_one_pairs(b)

        def check_hamming(result) -> bool:
            # Where the paper's upper and lower bounds meet, the Splitting
            # schema replicates each string exactly b / log2 q times.
            return (
                len(result.outputs) == len(hamming_pairs)
                and set(result.outputs) == hamming_pairs
                and math.isclose(
                    result.replication_rate, b / math.log2(hamming.q)
                )
            )

        edges = inputs.random_graph(rng, self.GRAPH_NODES, self.GRAPH_EDGES)
        expected_triangles = sorted(oracles.triangles(edges))
        expected_two_paths = sorted(oracles.two_paths(edges))
        triangles = single.plan(
            problems.TriangleProblem(self.GRAPH_NODES), q=self.TRIANGLE_BUDGET
        ).best
        two_paths = single.plan(
            problems.TwoPathProblem(self.GRAPH_NODES), q=self.TWO_PATH_BUDGET
        ).best

        n = self.MATRIX_SIZE
        left, right = inputs.integer_matrix(rng, n), inputs.integer_matrix(rng, n)
        product = oracles.matmul(left, right)
        matmul = next(
            plan
            for plan in pipeline.PipelinePlanner().plan(
                problems.MatrixMultiplicationProblem(n), q=n * n
            )
            if plan.op.phases == 2
        )

        _, records, expected_join = _chain_instance(rng)
        join = single.plan(_chain_problem(), q=_join_budget()).best

        self.families = [
            _Family("hamming-1", hamming, list(range(2 ** b)), check_hamming),
            _Family(
                "triangles", triangles, edges,
                lambda result: sorted(result.outputs) == expected_triangles,
            ),
            _Family(
                "two-paths", two_paths, edges,
                lambda result: sorted(result.outputs) == expected_two_paths,
            ),
            _Family(
                "matmul-2phase", matmul, inputs.matmul_records(left, right),
                lambda result: (
                    oracles.records_matrix(result.outputs, n) == product
                ).all(),
            ),
            _Family(
                "shares-join", join, records,
                lambda result: sorted(result.outputs) == expected_join,
            ),
        ]
        for family in self.families:  # warm-up, checked like a timed run
            if not family.check(family.plan.execute(family.data)):
                raise RuntimeError(f"warm-up {family.name} output is wrong")

    @staticmethod
    def _pairs(result) -> int:
        total = getattr(result, "total_communication", None)
        return total if total is not None else result.communication_cost

    def run_round(self, window, trace) -> None:
        for family in self.families:
            ok, pairs = False, 0
            started = time.perf_counter()
            try:
                result = family.plan.execute(family.data)
                latency = time.perf_counter() - started
                with window.own():
                    pairs = self._pairs(result)
                    ok = family.check(result)
            except Exception:
                latency = time.perf_counter() - started
            window.record(latency, pairs, ok, family.name)
        window.ref()


class _Query(NamedTuple):
    """One service submission: plan, records, priority and output check."""

    label: str
    plan: Any
    records: Any
    priority: float
    check: Callable[[Any], bool]


class ServiceMixed:
    """One query service fed by a closed loop of mixed queries.

    A round is one *segment*: a fresh :class:`QueryService` at the fixed
    capacity is fed ``segment`` from this thread, keeping ``OUTSTANDING``
    queries in flight, and drained.  The mix holds copies of one profiled
    cascade over the same relations (they share every intermediate),
    distinct chain instances under one unprofiled cascade (nothing to
    share), two-phase matrix products at high priority and group-by sums
    at low priority.
    """

    CASCADE_COPIES = 4
    DISTINCT_INSTANCES = 4
    MATMULS = 2
    GROUP_BYS = 2
    OUTSTANDING = 4
    MATRIX_SIZE = 8
    GROUPS, GROUP_VALUES, GROUP_ROWS = 8, 50, 1200
    GROUP_BUDGET = 150
    #: Capacity as a multiple of the largest round price: rounds overlap,
    #: and some wait for admission.
    CAPACITY_FACTOR = 1.5
    #: How often the closed loop looks for finished queries.
    POLL_SECONDS = 0.0005

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        problem = _chain_problem()
        budget = _join_budget()

        relations, records, expected = _chain_instance(rng)
        profiled = pipeline.PipelinePlanner().plan(
            problem, q=budget, profile=stats.profile_relations(relations)
        )
        shared = profiled.cascades()[0]
        unprofiled = pipeline.PipelinePlanner().plan(problem, q=budget).cascades()[0]

        def join_check(expected_rows):
            return lambda run: sorted(run.outputs) == expected_rows

        cascades = [
            _Query(f"shared-{i}", shared, records, 1.0, join_check(expected))
            for i in range(self.CASCADE_COPIES)
        ]
        distinct = []
        for i in range(self.DISTINCT_INSTANCES):
            _, other_records, other_expected = _chain_instance(rng)
            distinct.append(
                _Query(f"distinct-{i}", unprofiled, other_records, 1.0,
                       join_check(other_expected))
            )

        n = self.MATRIX_SIZE
        left, right = inputs.integer_matrix(rng, n), inputs.integer_matrix(rng, n)
        product = oracles.matmul(left, right)
        matmul = next(
            plan
            for plan in pipeline.PipelinePlanner().plan(
                problems.MatrixMultiplicationProblem(n), q=n * n
            )
            if plan.op.phases == 2
        )
        matmuls = [
            _Query(f"matmul-{i}", matmul, inputs.matmul_records(left, right), 2.0,
                   lambda run: (oracles.records_matrix(run.outputs, n) == product).all())
            for i in range(self.MATMULS)
        ]

        rows = inputs.group_records(rng, self.GROUPS, self.GROUP_VALUES, self.GROUP_ROWS)
        sums = oracles.group_sums(rows)
        group_by = pipeline.PipelinePlanner().plan(
            problems.GroupByAggregationProblem(self.GROUPS, self.GROUP_VALUES),
            q=self.GROUP_BUDGET,
        ).best
        group_bys = [
            _Query(f"group-by-{i}", group_by, rows, 0.5,
                   lambda run: dict(run.outputs) == sums)
            for i in range(self.GROUP_BYS)
        ]

        # Interleave the kinds so every stretch of the loop mixes them.
        kinds = [cascades, distinct, matmuls, group_bys]
        self.segment = [
            kind[i] for i in range(max(map(len, kinds))) for kind in kinds if i < len(kind)
        ]
        self.capacity = self.CAPACITY_FACTOR * max(
            load if (load := round_.certified_load) is not None else query.plan.q_budget
            for query in self.segment
            for round_ in query.plan.rounds
        )
        #: Run-level property violations; they make the run incorrect.
        self.faults: List[str] = []
        for query in self.segment:  # warm-up, one-shot
            if not query.check(query.plan.execute(query.records)):
                raise RuntimeError(f"warm-up {query.label} output is wrong")

    def run_round(self, window, trace) -> None:
        observer = Observability(tracer=Tracer()) if trace is not None else None
        service = QueryService(capacity=self.capacity, observer=observer)
        pending = deque(self.segment)
        outstanding: List[tuple] = []
        finished = []
        failures = 0
        try:
            while pending or outstanding:
                while pending and len(outstanding) < self.OUTSTANDING:
                    query = pending.popleft()
                    outstanding.append(
                        (query, time.perf_counter(),
                         service.submit(query.plan, query.records, priority=query.priority))
                    )
                done = [entry for entry in outstanding if entry[2].done()]
                if not done:
                    time.sleep(self.POLL_SECONDS)
                    continue
                now = time.perf_counter()
                for entry in done:
                    outstanding.remove(entry)
                    finished.append((entry[0], now - entry[1], entry[2]))
            snapshot = service.describe()
        finally:
            service.close()
        with window.own():
            for query, latency, handle in finished:
                ok, pairs = False, 0
                try:
                    run = handle.result()
                    pairs = _shipped_pairs(run)
                    ok = bool(query.check(run))
                except Exception:
                    failures += 1
                window.record(latency, pairs, ok, query.label)
            self._check_segment(snapshot, failures)
            if trace is not None:
                trace.note_service(snapshot, query_phase_rows(observer.tracer))
        window.ref()

    def _check_segment(self, snapshot: dict, failures: int) -> None:
        admission = snapshot["admission"]
        if admission["peak_in_flight_load"] > self.capacity + 1e-9:
            self.faults.append(
                f"peak in-flight load {admission['peak_in_flight_load']:g} "
                f"above capacity {self.capacity:g}"
            )
        if snapshot["queries"]["failed"] != failures:
            self.faults.append(
                f"service counted {snapshot['queries']['failed']} failed queries, "
                f"the client saw {failures}"
            )



WORKLOADS = {
    "plan-chain": PlanChain,
    "exec-families": ExecFamilies,
    "service-mixed": ServiceMixed,
}
