#!/usr/bin/env python3
"""Run the whole benchmark twice and say whether the two sets agree.

For each workload in BENCHMARK.json, each set makes --runs untraced runs,
each with its own seed (set 1 uses seeds 1..N, set 2 uses 101..100+N).
For every end-to-end metric it prints both sets' medians and their
spread (the distance between the first and third quartile as a share of
the median). A metric agrees when every spread, set-up time's too, is
within the metric's bound and the two medians differ by no more than
that bound of the first, in either direction. A traced run follows each of the first --traced runs of
set 1, with the same seed; the median of their end-to-end figures
against the median of those untraced runs is the tracing overhead.

    python3 perfbench/suite.py [--runs 10] [--sets 2] [--traced 3]

Run from the root of a litfield checkout. The last line of standard
output is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict | None]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    traced = None
    for line in out:
        if line.startswith("traced end-to-end: "):
            traced = json.loads(line.partition(": ")[2])
    return json.loads(out[-1]), traced


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--traced", type=int, default=3)
    args = ap.parse_args()

    summary = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        traced_runs = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 100 * s + i + 1
                result, _ = run_once(bench, workload, seed, 0)
                runs.append(result)
                print(f"{workload} set {s + 1} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} correct {result['correct']}",
                      file=sys.stderr)
                # Right after its untraced twin, so that the host's drift
                # over the suite does not pass for tracing overhead.
                if s == 0 and i < args.traced:
                    traced_runs.append(run_once(bench, workload, seed, 1))
            sets.append(runs)
        traced = [t for _, t in traced_runs]

        print(f"\n{workload}")
        print(f"{'metric':<28}{'unit':>6}{'set 1 median':>15}{'spread':>8}"
              f"{'set 2 median':>15}{'spread':>8}{'bound':>7}  verdict   traced")
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            ok = all(sp <= bound for sp in spreads)
            if len(sets) == 2:
                ok = ok and abs(medians[1] - medians[0]) <= bound * medians[0]
            steady = steady and ok
            overhead = None
            if traced and name in traced[0]:
                untraced = [r["metrics"][name]["value"] for r in sets[0][:len(traced)]]
                overhead = (statistics.median(t[name] for t in traced)
                            / statistics.median(untraced) - 1.0)
            rows[name] = {"unit": metric["unit"], "values": values, "medians": medians,
                          "spreads": spreads, "bound": bound, "agree": ok,
                          "trace_overhead": overhead}
            cells = "".join(f"{m:>15.4g}{sp:>8.1%}" for m, sp in zip(medians, spreads))
            cells += " " * 23 * (2 - len(sets))
            trace_cell = "" if overhead is None else f"{overhead:+.1%}"
            print(f"{name:<28}{metric['unit']:>6}{cells}{bound:>7.0%}  "
                  f"{'agree' if ok else 'DIFFER':<9} {trace_cell}")
        attempted = [sum(r["attempted"] for r in runs) for runs in sets]
        failed = [sum(r["failed"] for r in runs) for runs in sets]
        shares = [f / a for f, a in zip(failed, attempted)]
        correct = all(r["correct"] for runs in sets for r in runs)
        steady = steady and correct and len(set(shares)) == 1
        print(f"packets attempted {attempted}, failed {failed}, all correct: {correct}")
        per_layer = {}
        if traced_runs:
            print(f"per layer, median of {len(traced_runs)} traced runs:")
            for metric in bench["per_layer"]:
                name = metric["name"]
                per_layer[name] = statistics.median(r["metrics"][name]["value"]
                                                    for r, _ in traced_runs)
                print(f"  {name:<32}{per_layer[name]:>12.4g} {metric['unit']}")
        summary[workload] = {"metrics": rows, "per_layer": per_layer,
                             "attempted": attempted, "failed": failed, "correct": correct}
    print(json.dumps({"steady": steady, "workloads": summary}))


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("perfbench: run from the root of a litfield checkout")
    main()
