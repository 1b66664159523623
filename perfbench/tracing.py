"""Traced-run mode: spans around the program's public calls, per layer.

:meth:`Tracer.install` wraps a fixed list of public functions and
methods of ``repro.campaign``, ``repro.core``, ``repro.signals``,
``repro.analysis``, ``repro.ate``, ``repro.parallel`` and the
``repro.kernels`` entry points.  Each wrapped call becomes a span
``(name, start, end, parent)`` held in memory and written out by
:meth:`Tracer.write`.  The tracer also keeps running sums: self time
(duration minus the time its child spans cover) per layer and per
metric group, and time and calls of each group's outermost calls.

Campaigns run with ``--jobs 2`` evaluate in forked pool workers, which
inherit the wrappers.  Spans recorded there cannot come back, so a
worker adds its sums to the program's own ``repro.instrument``
counters instead; the campaign runner ships those back with each
result and merges them, and :func:`layer_metrics` folds them in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept in memory; later calls still count, but are not stored.
MAX_SPANS = 200_000

#: Counter prefix under which pool workers report their sums.
WORKER_PREFIX = "perfbench."

#: (module, class or None, attributes or None for every public one,
#: layer, metric group).  A call belongs to one layer (for self time)
#: and one group (for outermost-call time and counts).
TARGETS: List[Tuple[str, Optional[str], Optional[Tuple[str, ...]], str, str]] = [
    ("repro.campaign.runner", None, ("run_campaign",), "campaign", "campaign.run"),
    ("repro.campaign.runner", None, ("evaluate_point", "evaluate_pack"), "campaign", "campaign.eval"),
    ("repro.campaign.packing", None, ("plan_packs",), "campaign", "campaign.plan"),
    ("repro.campaign.report", None, ("build_report",), "campaign", "campaign.report"),
    ("repro.campaign.cache", "ResultCache", ("put",), "campaign", "campaign.cache_put"),
    ("repro.campaign.cache", "ResultCache", ("get",), "campaign", "campaign.cache_get"),
    ("repro.core.calibration", None, ("calibrate_fine_delay",), "core", "core.calibrate"),
    ("repro.core.combined", None, ("calibrate_lines_pack",), "core", "core.calibrate"),
    ("repro.core.combined", "CombinedDelayLine", ("calibrate",), "core", "core.calibrate"),
    ("repro.core.combined", None, ("process_lines_pack", "process_lines_batch"), "core", "core.render"),
    ("repro.core.combined", "CombinedDelayLine", ("process", "process_batch", "open_stream"), "core", "core.render"),
    ("repro.core.fine_delay", "FineDelayLine", ("process", "process_batch", "open_stream"), "core", "core.render"),
    ("repro.core.coarse_delay", "CoarseDelayLine", ("process", "process_batch", "process_all_taps"), "core", "core.render"),
    ("repro.core.streaming", "StreamProcessor", ("push",), "core", "core.stream_push"),
    ("repro.core.jitter_injector", "JitterInjector", ("process", "vctrl_record"), "core", "core.jitter_inject"),
    ("repro.signals.nrz", None, ("synthesize_nrz",), "signals", "signals.nrz"),
    ("repro.signals.nrz", "NRZStreamSource", ("__next__",), "signals", "signals.nrz"),
    ("repro.signals.patterns", None, ("prbs_sequence",), "signals", "signals.prbs"),
    ("repro.signals.patterns", "PRBSGenerator", ("take",), "signals", "signals.prbs"),
    ("repro.analysis.measurements", None, None, "analysis", "analysis.measure"),
    ("repro.analysis.bathtub", None, None, "analysis", "analysis.measure"),
    ("repro.analysis.histogram", None, None, "analysis", "analysis.measure"),
    ("repro.analysis.raster", None, None, "analysis", "analysis.measure"),
    ("repro.analysis.eye", "EyeDiagram", None, "analysis", "analysis.measure"),
    ("repro.analysis.bathtub", "BathtubAccumulator", None, "analysis", "analysis.measure"),
    ("repro.ate.bert", "StreamingBitSampler", ("push",), "ate", "ate.bert"),
    ("repro.ate.bert", "ErrorCounter", ("add", "result"), "ate", "ate.bert"),
    ("repro.ate.bert", "BitErrorRateTester", ("measure",), "ate", "ate.bert"),
    ("repro.ate.deskew", "DeskewController", ("deskew", "deskew_coarse_only"), "ate", "ate.deskew"),
    ("repro.ate.bus", "ParallelBus", ("acquire", "acquire_edge_times"), "ate", "ate.bus_acquire"),
    ("repro.ate.bus", "ParallelBus", ("calibrate_delay_lines",), "ate", "ate.calibrate"),
    ("repro.parallel", None, ("decode_payload",), "parallel", "parallel.decode"),
    ("repro.parallel", None, ("encode_payload",), "parallel", "parallel.encode"),
    ("repro.kernels", None, (
        "fine_delay_cascade",
        "fine_delay_cascade_batch",
        "fine_delay_cascade_stream",
        "compressive_slew_limit",
        "compressive_slew_limit_batch",
    ), "kernels", "kernels.call"),
]

LAYERS = ("campaign", "core", "signals", "analysis", "ate", "parallel", "kernels")

#: Kernel ops whose ``repro.instrument`` counters the traced run reports.
KERNEL_OPS = (
    "fine_delay_cascade",
    "fine_delay_cascade_batch",
    "fine_delay_cascade_stream",
    "compressive_slew_limit",
    "compressive_slew_limit_batch",
)


class Tracer:
    """In-memory span store plus running per-layer and per-group sums."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.dropped = 0
        self.calls = 0
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.group_self_s: Dict[str, float] = defaultdict(float)
        self.group_s: Dict[str, float] = defaultdict(float)
        self.group_calls: Dict[str, int] = defaultdict(int)
        self.deskew_iterations = 0
        self.pool_capacity_s = 0.0
        self.in_worker = False
        self.active = False
        self._stack: List[list] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._originals: List[Tuple[object, str, object]] = []

    def _enter_worker(self) -> None:
        """Forked into a pool worker: start from an empty call stack and
        report sums through ``repro.instrument`` counters."""
        self.in_worker = True
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)

    # -- the span wrapper ------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str, group: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = -1
            if not tracer.in_worker:
                if len(tracer.spans) < MAX_SPANS:
                    index = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.dropped += 1
            frame = [index, 0.0]
            tracer._stack.append(frame)
            tracer._depth[group] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._depth[group] -= 1
                duration = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if index >= 0:
                    tracer.spans[index] = (name, t0, t1, parent)
                tracer._close(layer, group, duration, duration - frame[1])
            tracer._after(group, fn, args, kwargs, result, duration)
            return result

        return traced

    def _close(self, layer: str, group: str, duration: float, self_s: float):
        outermost = self._depth[group] == 0
        if not self.in_worker:
            self.calls += 1
            self.layer_self_s[layer] += self_s
            self.group_self_s[group] += self_s
            if outermost:
                self.group_s[group] += duration
                self.group_calls[group] += 1
            return
        from repro import instrument

        instrument.count(f"{WORKER_PREFIX}calls")
        instrument.count(f"{WORKER_PREFIX}layer.{layer}.self_s", self_s)
        instrument.count(f"{WORKER_PREFIX}group.{group}.self_s", self_s)
        if outermost:
            instrument.count(f"{WORKER_PREFIX}group.{group}.s", duration)
            instrument.count(f"{WORKER_PREFIX}group.{group}.calls")
            if group == "campaign.eval":
                instrument.count(f"{WORKER_PREFIX}worker_busy_s", duration)

    def _after(self, group, fn, args, kwargs, result, duration) -> None:
        """Extras read from a finished call's arguments or result."""
        if group == "ate.deskew" and fn.__name__ == "deskew":
            iterations = int(getattr(result, "iterations", 0))
            if self.in_worker:
                from repro import instrument

                instrument.count(f"{WORKER_PREFIX}deskew_iterations", iterations)
            else:
                self.deskew_iterations += iterations
        elif group == "campaign.run" and not self.in_worker:
            jobs = int(kwargs.get("jobs", args[1] if len(args) > 1 else 1))
            if jobs > 1:
                self.pool_capacity_s += jobs * duration

    # -- installing and removing the wrappers ----------------------------

    def install(self) -> None:
        """Wrap every target and start recording.  A module-level
        function is replaced in every loaded module that imported it by
        name (the benchmark's own included), so every alias is seen."""
        for module_name, class_name, attrs, layer, group in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs or _public_functions(owner):
                original = vars(owner).get(attr)
                if not inspect.isfunction(original):
                    continue
                short = module_name.split(".", 1)[1]
                label = ".".join(filter(None, (short, class_name, attr)))
                wrapped = self.wrap(original, label, layer, group)
                if class_name:
                    self._swap(owner, attr, original, wrapped)
                    continue
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__dict__", {}).get(attr) is original:
                        self._swap(loaded, attr, original, wrapped)
        os.register_at_fork(after_in_child=self._enter_worker)
        self.active = True

    def _swap(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        """Stop recording and put every original back."""
        self.active = False
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the spans and the per-layer self times as JSON."""
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "layer_self_s": dict(self.layer_self_s),
            "group_self_s": dict(self.group_self_s),
            "group_s": dict(self.group_s),
            "group_calls": dict(self.group_calls),
        }
        payload.update(extra or {})
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _public_functions(owner) -> List[str]:
    """Public plain functions defined on a class, or in a module (its
    ``__all__`` when it has one)."""
    if inspect.isclass(owner):
        names = list(vars(owner))
    else:
        names = getattr(owner, "__all__", None) or list(vars(owner))
    return [
        name
        for name in names
        if not name.startswith("_")
        and inspect.isfunction(vars(owner).get(name))
        and (inspect.isclass(owner) or vars(owner)[name].__module__ == owner.__name__)
    ]


def outermost_span_total(spans: Dict[str, dict], name: str) -> float:
    """Total time of the program's own ``repro.instrument`` spans called
    *name* that are not nested inside another span of that name."""
    total = 0.0
    for path, stat in spans.items():
        parts = path.split("/")
        if parts[-1] == name and name not in parts[:-1]:
            total += float(stat["total_s"])
    return total


def layer_metrics(
    tracer: Tracer, snapshot: dict, setup: Dict[str, float], items_per_s: float
) -> Dict[str, float]:
    """Every per-layer metric of a traced run.

    *snapshot* is the run's ``repro.instrument`` registry snapshot
    (kernel and campaign counters, pool-worker sums, the program's
    ``coarse``/``fine_delay`` section spans); *setup* holds
    ``import_s`` and ``build_s``.
    """
    counters = snapshot.get("counters", {})
    spans = snapshot.get("spans", {})

    def counter(name: str) -> float:
        return float(counters.get(name, 0.0))

    def group(name: str) -> float:
        return tracer.group_s.get(name, 0.0) + counter(f"{WORKER_PREFIX}group.{name}.s")

    def calls(name: str) -> float:
        return tracer.group_calls.get(name, 0) + counter(
            f"{WORKER_PREFIX}group.{name}.calls"
        )

    points = counter("campaign.points.evaluated")
    units = counter("campaign.packs.evaluated") + points - counter("campaign.pack_lanes")
    busy = counter(f"{WORKER_PREFIX}worker_busy_s")
    metrics: Dict[str, float] = {
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "campaign.units": units,
        "campaign.lanes_per_unit": points / units if units else 0.0,
        "campaign.pack_fallbacks": counter("campaign.pack_fallback_scalar"),
        "campaign.eval_self_s": tracer.group_self_s.get("campaign.eval", 0.0)
        + counter(f"{WORKER_PREFIX}group.campaign.eval.self_s"),
        "campaign.cache_put_s": group("campaign.cache_put"),
        "core.calibrate_s": group("core.calibrate"),
        "core.calibrate_calls": calls("core.calibrate"),
        "core.coarse_s": outermost_span_total(spans, "coarse"),
        "core.fine_s": outermost_span_total(spans, "fine_delay"),
        "core.stream_push_s": group("core.stream_push"),
        "core.stream_chunks": calls("core.stream_push"),
        "core.jitter_inject_s": group("core.jitter_inject"),
        "signals.nrz_s": group("signals.nrz"),
        "analysis.measure_s": group("analysis.measure"),
        "ate.bert_s": group("ate.bert"),
        "ate.deskew_s": group("ate.deskew"),
        "ate.deskew_iterations": tracer.deskew_iterations
        + counter(f"{WORKER_PREFIX}deskew_iterations"),
        "ate.bus_acquire_s": group("ate.bus_acquire"),
        "parallel.worker_busy_s": busy,
        "parallel.worker_idle_s": max(0.0, tracer.pool_capacity_s - busy),
        "parallel.decode_s": group("parallel.decode"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.layer_self_s.get(layer, 0.0) + counter(
            f"{WORKER_PREFIX}layer.{layer}.self_s"
        )
    metrics["kernels.dispatches"] = sum(
        float(value)
        for name, value in counters.items()
        if name.startswith("kernels.backend.") and name.endswith(".calls")
    )
    for op in KERNEL_OPS:
        samples = counter(f"kernels.{op}.samples")
        metrics[f"kernels.{op}.calls"] = counter(f"kernels.{op}.calls")
        metrics[f"kernels.{op}.samples"] = samples
        metrics[f"kernels.{op}.ns_per_sample"] = (
            counter(f"kernels.{op}.seconds") / samples * 1e9 if samples else 0.0
        )
    metrics["trace.items_per_s"] = items_per_s
    metrics["trace.spans"] = tracer.calls + counter(f"{WORKER_PREFIX}calls")
    return metrics
