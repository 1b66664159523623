"""Steadiness command: run every workload repeatedly and report spreads.

``python3 perfbench/steady.py [--repeats 10] [--sets 1] [--workloads a,b]
[--trace-runs 1]``

Runs ``run.py`` on every workload ``--repeats`` times per set, with a new
seed each time and the workload order alternating between repeats, and
prints for each end-to-end metric its median, quartiles and
inter-quartile spread as a share of the median, against the metric's
bound from ``BENCHMARK.json``.  With ``--sets 2`` it also compares the
two sets' medians as the acceptance check does, and the failed share of
each set.  ``--trace-runs N`` adds N traced runs per workload and
prints the tracing overhead on ``items_per_s``.  Raw results go to
``.bench_work/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["problems"] = [
        line for line in done.stderr.splitlines() if line.startswith("check failed:")
    ]
    print(
        f"  {workload:18s} seed {seed:4d} trace {trace}  {wall:6.1f} s  "
        f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
        flush=True,
    )
    for problem in result["problems"]:
        print(f"    {problem}", flush=True)
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)
    chosen = [name for name in args.workloads.split(",") if name]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {name: [[] for _ in range(args.sets)] for name in chosen}
    traced = {name: [] for name in chosen}
    seed = args.seed0
    for set_index in range(args.sets):
        for repeat in range(args.repeats):
            order = chosen if repeat % 2 == 0 else chosen[::-1]
            for name in order:
                runs[name][set_index].append(run_once(name, seed, args.seconds, 0))
            seed += 1
    for name in chosen:
        for k in range(args.trace_runs):
            traced[name].append(run_once(name, args.seed0 + k, args.seconds, 1))

    worst = 0.0
    for name in chosen:
        print(f"\n{name}")
        for set_index, results in enumerate(runs[name]):
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"  set {set_index + 1}: failed share {sorted(shares)}, "
                  f"all correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'ratio':>6s}  set2/set1")
        for metric, bound in bounds.items():
            sets = [[r["metrics"][metric]["value"] for r in results] for results in runs[name]]
            q = quartile_spread(sets[0])
            ratio = q["spread"] / bound
            if metric != "setup_s":
                worst = max(worst, ratio)
            shift = ""
            if len(sets) == 2:
                shift = f"{statistics.median(sets[1]) / q['median']:.3f}"
            print(f"  {metric:16s} {q['median']:12.6g} {q['q1']:12.6g} {q['q3']:12.6g} "
                  f"{q['spread']:8.4f} {bound:6.3f} {ratio:6.2f}  {shift}")
        if traced[name]:
            plain = statistics.median(r["metrics"]["items_per_s"]["value"] for r in runs[name][0])
            with_trace = statistics.median(
                r["metrics"]["trace.items_per_s"]["value"] for r in traced[name]
            )
            print(f"  tracing overhead on items_per_s: {1.0 - with_trace / plain:+.1%}")
    print(f"\nworst spread / bound (setup_s aside): {worst:.2f}")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_work", f"steady-{int(time.time())}.json")
    with open(path, "w") as handle:
        json.dump({"runs": runs, "traced": traced, "args": vars(args)}, handle)
    print(f"raw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
