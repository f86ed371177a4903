#!/usr/bin/env python3
"""End-to-end benchmark of the map-reduce planner, engine and service.

Runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 bench_e2e/run.py --workload plan-chain --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layer entry points, reports the per-layer metrics instead and
writes the spans to ``bench_e2e/.traces/``.  The program is imported from
``src/`` next to this directory; without it the run fails.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Set-up is repeated from a cold schema cache and its median reported, so
#: that set-up time is steady enough to bound.
SETUP_REPEATS = 3
TRACE_DIR = HERE / ".traces"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("plan-chain", "exec-families", "service-mixed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import harness
    import workloads
    from repro.planner import default_schema_cache

    trace = None
    if args.trace:
        import layers

        trace = layers.LayerTrace()
        trace.install()
    import_seconds = time.perf_counter() - _STARTED

    durations = []
    for _ in range(SETUP_REPEATS):
        default_schema_cache.clear()
        if trace is not None:
            trace.reset()
        started = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        durations.append(time.perf_counter() - started)
    setup_seconds = import_seconds + statistics.median(durations)

    window = harness.Window(args.seconds)
    if trace is not None:
        trace.set_phase("window")
    for _ in window.run_rounds():
        workload.run_round(window, trace)

    faults = list(workload.faults)
    for line in faults + [f"failed: {label}" for label in window.failed_labels]:
        print(line, file=sys.stderr)
    print(window.summary(), file=sys.stderr)
    metrics = window.metrics(setup_seconds)
    if trace is not None:
        metrics = trace.metrics(
            window.rounds,
            {
                "trace.queries_per_ref": metrics["queries_per_ref"][0],
                "trace.query_p50_ref": window.query_p50_ref(),
            },
        )
        trace.write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    print(harness.result_line(not faults, window.attempted, window.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
