"""Tests of the benchmark's own statistics and of ``BENCHMARK.json``.

``python3 -m pytest perfbench -q`` (needs no part of the program).
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import (  # noqa: E402
    highest_tail_quantile,
    percentile,
    quartile_spread,
    samples_beyond,
    tail_ok,
)
from workloads import WORKLOADS, prbs7_period  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the tail rule ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, q, beyond",
    [(40, 0.75, 10), (36, 0.75, 9), (46, 0.75, 12), (1000, 0.99, 10), (901, 0.99, 9)],
)
def test_samples_beyond_the_tail_quantile(n, q, beyond):
    assert samples_beyond(n, q) == beyond
    assert tail_ok(n, q) == (beyond >= 10)


def test_samples_beyond_matches_a_direct_count():
    for n in (40, 57, 100, 1100):
        values = list(range(n))
        for q in (0.5, 0.75, 0.9, 0.99):
            cut = percentile(values, q)
            assert samples_beyond(n, q) == sum(1 for v in values if v > cut)


def test_highest_tail_quantile_needs_ten_beyond():
    assert highest_tail_quantile(36) is None
    assert highest_tail_quantile(40) == 0.75
    assert highest_tail_quantile(100) == 0.9
    assert highest_tail_quantile(1000) == 0.99
    assert highest_tail_quantile(10_000) == 0.999


def test_each_workload_reports_the_highest_tail_its_fewest_items_allow():
    # Latencies per round; a run has at least its minimum rounds' worth.
    per_round = {
        "range-campaign": 36,
        "deskew-campaign": 64,
        "bert-stream": 441,
        "experiments-fast": 21,
    }
    for name, workload in WORKLOADS.items():
        fewest = per_round[name] * workload.min_rounds
        assert workload.tail_q == highest_tail_quantile(fewest), name


def test_percentile_interpolates_like_numpy_linear():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([5.0], 0.99) == 5.0
    assert percentile([0.0, 10.0], 0.75) == 7.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_quartile_spread_uses_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
    q1, _, q3 = statistics.quantiles(values, n=4)
    got = quartile_spread(values)
    assert got["median"] == statistics.median(values)
    assert got["spread"] == pytest.approx((q3 - q1) / statistics.median(values))


# -- the reference PRBS ---------------------------------------------------------


def test_reference_prbs7_is_a_maximal_length_sequence():
    bits = prbs7_period()
    assert len(bits) == 127 and sum(bits) == 64
    stream = bits * 3
    assert all(stream[n] == stream[n - 6] ^ stream[n - 7] for n in range(7, len(stream)))
    rotations = {tuple(bits[k:] + bits[:k]) for k in range(127)}
    assert len(rotations) == 127


# -- the form of BENCHMARK.json ---------------------------------------------------


def test_benchmark_json_has_exactly_the_contract_keys(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["paths"] == ["perfbench"]
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_workloads_are_named_and_explained_once(bench):
    names = [w["name"] for w in bench["workloads"]]
    assert 2 <= len(names) <= 8 and len(set(names)) == len(names)
    assert set(names) == set(WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_have_unit_direction_and_bound(bench):
    metrics = bench["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in metrics if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics_have_unit_and_direction(bench):
    metrics = bench["per_layer"]
    assert 1 <= len(metrics) <= 128
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_metric_names_are_used_once(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


def test_driver_reports_the_listed_metrics(bench):
    from run import END_TO_END_UNITS, layer_unit

    assert END_TO_END_UNITS == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for metric in bench["per_layer"]:
        assert layer_unit(metric["name"]) == metric["unit"], metric["name"]


def test_traced_run_emits_exactly_the_listed_per_layer_metrics(bench):
    from tracing import Tracer, layer_metrics

    got = layer_metrics(
        Tracer(), {"counters": {}, "spans": {}}, {"import_s": 1.0, "build_s": 0.1}, 2.0
    )
    assert sorted(got) == sorted(m["name"] for m in bench["per_layer"])
