"""Self-test: the benchmark's correctness checks catch a broken simulator.

Runs the step workloads at their tiny size, once on the unmodified
simulator and once with one simulator parameter changed through
``preset_overrides``.  The golden comparison must fail the mutated runs
and pass the unmodified ones.

The write-buffer and CCEH runs flip mutation-smoke knobs of
``repro.validate``.  The pointer chase is blind to all five of those
knobs: each step is done with its XPLine before the next one starts, so
a one-entry read buffer serves it as well as the full one; every
persist evicts one partial line whatever the write buffer's size or
policy, so no line ever fills for periodic write-back; and the read
buffer has released the XPLine before its pad line is written, so the
read-to-write transition never fires.  The chase is mutated instead by
one extra cycle of DDR-T transfer latency, which every media read pays.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from layers import LayerTracer  # noqa: E402
from measure import layer_metrics, measure, summarize  # noqa: E402
from run import END_TO_END  # noqa: E402
from repro.system import presets  # noqa: E402
from repro.system.machine import Core  # noqa: E402
from repro.system.presets import preset_overrides  # noqa: E402
from repro.validate.mutations import MUTATIONS  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

CASES = [
    ("chase-64m-g1", {"optane": {"transfer_latency": 31.0}}),
    ("wbuf-32k-g1", MUTATIONS["periodic_writeback=off"].overrides),
    ("cceh-4w-g2", MUTATIONS["read_buffer=off"].overrides),
]


@pytest.mark.parametrize("workload", [workload for workload, _ in CASES])
def test_unmodified_simulator_passes(workload):
    result = summarize(measure(workload, DEFAULT_SEED, 0, size="tiny"))
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failed_checks"]


@pytest.mark.parametrize("workload,overrides", CASES)
def test_mutated_simulator_fails(workload, overrides):
    with preset_overrides(**overrides):
        result = summarize(measure(workload, DEFAULT_SEED, 0, size="tiny"))
    assert result["failed"] / result["attempted"] > 0
    assert "golden" in result["failed_checks"]


def test_tracing_attributes_all_time_and_leaves_results_unchanged():
    original, original_machine_for = Core.load, presets.machine_for
    untraced = measure("chase-64m-g1", DEFAULT_SEED, 0, size="tiny", min_reps=1)
    tracer = LayerTracer()
    with tracer.installed():
        assert Core.load is not original
        traced = measure("chase-64m-g1", DEFAULT_SEED, 0, size="tiny", tracer=tracer)
    assert Core.load is original
    assert presets.machine_for is original_machine_for
    metrics, checks = layer_metrics(traced, untraced)
    assert all(checks.values()), checks
    assert all(ok for rep in traced["reps"] for ok in rep["checks"].values())
    assert metrics["system.machine.calls_per_step"][0] > 0
    assert metrics["datastores.cceh.calls_per_step"][0] == 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
