"""One workload in one fresh process, started by ``run.py``.

``python3 perfbench/child.py WORKLOAD --seed N --seconds S [--trace] [--probe]``
(with ``PYTHONPATH=src``; ``--jobs`` and ``--batch-lanes`` override a
campaign's scheduling for the README's reference figures)

Imports the program, builds every round's inputs, then runs the rounds
in closed loop and checks the outputs.  Prints one JSON object
on its last stdout line.  ``--probe`` stops after set-up (the driver
starts several probes to take a median set-up time); ``--trace`` wraps
the program's public calls and reports per-layer figures instead.

The driver puts its ``time.perf_counter()`` reading just before the
process was started in ``PERFBENCH_T_SPAWN``; on Linux that clock is
``CLOCK_MONOTONIC``, shared by all processes, so set-up time counts
interpreter start-up too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()
T_SPAWN = float(os.environ.get("PERFBENCH_T_SPAWN", T_START))

from workloads import WORK_DIR, WORKLOADS, Record  # noqa: E402

#: Rounds are not started once a run has gone on this long, so a much
#: slower program still ends well inside the driver's time limit.
MAX_RUN_S = 120.0


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds filling *seconds* at the reference host's speed, at
    least as many as the tail percentile needs."""
    return max(workload.min_rounds, round(seconds / workload.nominal_round_s))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument(
        "--jobs", type=int, help="campaigns: override the worker count (reference runs)"
    )
    parser.add_argument(
        "--batch-lanes", help="campaigns: override the lane budget (reference runs)"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.jobs is not None:
        workload.jobs = args.jobs
    if args.batch_lanes is not None:
        workload.batch_lanes = args.batch_lanes

    n_rounds = rounds_for(workload, args.seconds)
    workload.imports()
    t_imported = time.perf_counter()
    state = workload.build(args.seed, n_rounds)
    t_ready = time.perf_counter()
    setup = {
        "setup_s": t_ready - T_SPAWN,
        "import_s": t_imported - T_SPAWN,
        "build_s": t_ready - t_imported,
    }
    if args.probe:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace:
        from repro import instrument
        from tracing import Tracer

        instrument.get_registry().reset()
        instrument.enable()
        tracer = Tracer()
        tracer.install()

    cpu0 = _cpu_s()
    record = Record()
    rounds_done = 0
    for index in range(n_rounds):
        if index and time.perf_counter() - record.t0 > MAX_RUN_S:
            break
        workload.run_round(state, index, record)
        rounds_done += 1
    run_s = time.perf_counter() - record.t0
    cpu_s = _cpu_s() - cpu0

    out = {
        "workload": workload.name,
        "setup": setup,
        "rounds": rounds_done,
        "run_s": run_s,
        "items": record.items,
        "attempted": record.attempted,
        "failed": record.failed,
        "first_result_s": record.first_result_s,
        "latencies": record.latencies,
        "tail_q": workload.tail_q,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        from repro import instrument
        from tracing import layer_metrics

        tracer.uninstall()
        snapshot = instrument.get_registry().snapshot()
        instrument.disable()
        items_per_s = record.items / run_s
        out["layers"] = layer_metrics(
            tracer,
            snapshot,
            {"import_s": setup["import_s"], "build_s": setup["build_s"]},
            items_per_s,
        )
        tracer.write(
            os.path.join(WORK_DIR, f"trace-{workload.name}-seed{args.seed}.json"),
            {"workload": workload.name, "seed": args.seed, "run_s": run_s},
        )

    out["problems"] = workload.check(state)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
