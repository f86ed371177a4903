#!/usr/bin/env python3
"""Steadiness self-check: two interleaved sets of runs of the same code.

For every workload this runs ``--runs`` seeds twice, alternating set A and
set B run by run, plus traced runs of the first two seeds.  It prints each
end-to-end metric's median and quartiles per set next to its bound from
``BENCHMARK.json``, the quartile spread and the shift between the set
medians as shares of the median, and the tracing overhead (traced runs
against the untraced runs of the same seeds).  It checks that count metrics repeat
exactly: the same seed gives the same pairs per query and the same share
of failed queries.  Exits 1 when a spread or shift exceeds its bound
(``setup_s`` is held only to the shift) or a count differs.

    python3 bench_e2e/selfcheck.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Metrics that are counts of the program's work, not timings.
COUNTS = ("comm_pairs_per_query",)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} incorrect:\n{completed.stderr}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[workload["name"] for workload in spec["workloads"]],
    )
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    ok = True
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        for index, seed in enumerate(seeds):
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for name in order:
                sets[name].append(run_once(workload, seed, args.seconds, 0))
                print(f"  {workload} set {name} seed {seed} done", file=sys.stderr)
        traced = [run_once(workload, seed, args.seconds, 1) for seed in seeds[:2]]

        print(f"\n{workload}: {args.runs} seeds x 2 sets, {args.seconds} s runs")
        print(f"  {'metric':<30}{'set':>4}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'shift':>9}{'bound':>7}")
        for metric, bound in bounds.items():
            medians = {}
            for name, runs in sets.items():
                values = [run["metrics"][metric]["value"] for run in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians[name] = median
                spread = (q3 - q1) / median
                shift = ""
                if name == "B":
                    change = abs(medians["B"] - medians["A"]) / medians["A"]
                    shift = f"{change:9.3f}"
                    ok &= change <= bound
                ok &= metric == "setup_s" or spread <= bound
                unit = runs[0]["metrics"][metric]["unit"]
                print(f"  {metric + ' (' + unit + ')':<30}{name:>4}{q1:12.5g}"
                      f"{median:12.5g}{q3:12.5g}{spread:9.3f}{shift:>9}{bound:7.2f}")

        for a_run, b_run, seed in zip(sets["A"], sets["B"], seeds):
            for metric in COUNTS:
                if a_run["metrics"][metric]["value"] != b_run["metrics"][metric]["value"]:
                    ok = False
                    print(f"  COUNT MISMATCH {metric} seed {seed}")
            shares = [run["failed"] / run["attempted"] for run in (a_run, b_run)]
            if shares[0] != shares[1]:
                ok = False
                print(f"  FAILED-SHARE MISMATCH seed {seed}: {shares}")

        # Tracing overhead: each traced run against the untraced runs of
        # its own seed.
        ratios = [
            traced_run["metrics"]["trace.queries_per_ref"]["value"]
            / statistics.mean(
                run["metrics"]["queries_per_ref"]["value"] for run in (a_run, b_run)
            )
            for traced_run, a_run, b_run in zip(traced, sets["A"], sets["B"])
        ]
        print(f"  tracing overhead on queries_per_ref: {statistics.mean(ratios) - 1:+.1%}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
