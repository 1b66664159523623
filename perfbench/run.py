"""Benchmark driver for the delay-line simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

Run from the root of a source checkout.  Each invocation starts the
workload in a fresh process (``perfbench/child.py``) and prints, as its
last stdout line, one JSON object::

    {"correct": true, "attempted": 72, "failed": 0,
     "metrics": {"items_per_s": {"value": 4.1, "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``; with ``--trace 1`` the workload runs again with
every public call of the program's layers wrapped in a span, and the
metrics are the per-layer ones.  Before an untraced run the driver also
starts ``SETUP_PROBES`` set-up-only processes and reports the median
set-up time of those and the run itself.

Exits 2 without a result when the program's sources are missing or the
arguments are wrong, and 1 when the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import percentile, tail_ok  # noqa: E402

WORKLOAD_NAMES = ("range-campaign", "deskew-campaign", "bert-stream", "experiments-fast")
SETUP_PROBES = 2
#: The workload process is killed after this long, so the driver ends
#: inside its three-minute limit.
CHILD_TIMEOUT_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "first_result_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args, deadline: float, extra=()) -> dict:
    """Start one workload process, wait for it, return its JSON line."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        *extra,
    ]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PERFBENCH_T_SPAWN"] = repr(time.perf_counter())
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise BenchError(f"{args.workload} did not finish in time")
    finally:
        _kill_group(process)
    if process.returncode != 0:
        raise BenchError(f"{args.workload} process exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} process printed nothing")
    return json.loads(lines[-1])


def _kill_group(process: subprocess.Popen) -> None:
    """Stop the workload process and anything it started (pool workers)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def end_to_end(run: dict, setups) -> dict:
    latencies = run["latencies"]
    q = run["tail_q"]
    if not tail_ok(len(latencies), q):
        raise BenchError(
            f"{len(latencies)} latencies leave fewer than ten beyond p{q * 100:g}"
        )
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": run["items"] / run["run_s"],
        "first_result_s": run["first_result_s"],
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_tail_s": percentile(latencies, q),
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(run: dict) -> dict:
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in sorted(run["layers"].items())
    }


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_sample"):
        return "ns"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are not here", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            run = _child(args, deadline, ["--trace"])
            metrics = per_layer(run)
        else:
            setups = [
                _child(args, deadline, ["--probe"])["setup"]["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            run = _child(args, deadline)
            metrics = end_to_end(run, setups + [run["setup"]["setup_s"]])
    except (BenchError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run["problems"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
