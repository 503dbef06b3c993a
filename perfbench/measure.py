"""Repetitions, timing, correctness checks and metrics for one workload.

``python3 perfbench/measure.py --workload NAME --seed N --seconds S
--trace 0|1 --out FILE`` is the workload process that ``run.py``
starts: it runs repetitions of one workload, each a fresh set-up plus
a fixed block of timed steps, for up to ``S`` seconds, and writes raw
results as JSON to ``FILE``.  :func:`measure` is the same
loop as a function, for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"


def _import_simulator():
    """Import the simulator from this checkout's ``src`` or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def golden_path(name: str, size: str) -> pathlib.Path:
    """Where the golden simulated outputs of one workload size live."""
    return GOLDEN / f"{name}.{size}.json"


def _canonical(outputs: dict) -> dict:
    return json.loads(json.dumps(outputs, sort_keys=True))


def diff_outputs(outputs: dict, reference: dict) -> list[str]:
    """Keys whose values differ between two output dicts."""
    outputs = _canonical(outputs)
    return sorted(key for key in set(outputs) | set(reference)
                  if outputs.get(key) != reference.get(key))


def measure(name: str, seed: int, seconds: float, size: str = "full",
            tracer=None, min_reps: int | None = None, use_golden: bool = True) -> dict:
    """Run repetitions of ``name`` for ``seconds``; returns raw results.

    A repetition starts only if, judged by the one before, it ends
    within ``seconds``; at least ``min_reps`` run regardless.

    Every repetition's simulated outputs are compared with the golden
    file when the seed is the default one (or the workload ignores the
    seed), otherwise with the first repetition's.  A mismatch and every
    failed invariant count as failed checks.  ``use_golden=False``
    always compares with the first repetition (to write a new golden).
    """
    from workloads import DEFAULT_SEED, WORKLOADS, StepTimer, build

    if min_reps is None:
        min_reps = WORKLOADS[name].min_reps
    reference = None
    reference_kind = "repeat"
    if use_golden and (seed == DEFAULT_SEED or not WORKLOADS[name].seeded):
        reference_kind = "golden"
        path = golden_path(name, size)
        reference = json.loads(path.read_text()) if path.exists() else {}
    reps = []
    started = time.perf_counter()
    last = 0.0  # duration of the latest repetition: the next one's estimate
    while len(reps) < min_reps or time.perf_counter() - started + last <= seconds:
        if tracer is not None:
            tracer.step = -1
        begin = time.perf_counter_ns()
        run = build(name, seed, size)
        # Every timed phase starts with no garbage left from set-up.
        gc.collect()
        set_up = time.perf_counter_ns()
        if tracer is not None:
            tracer.reset_totals()
        timer = StepTimer(tracer)
        run.timed(timer)
        done = time.perf_counter_ns()
        last = (done - begin) / 1e9
        checks = run.checks()
        if reference is None:
            reference = _canonical(run.outputs)
        else:
            mismatched = diff_outputs(run.outputs, reference)
            checks[reference_kind] = not mismatched
            if mismatched:
                print(f"{name}: {reference_kind} mismatch in {', '.join(mismatched[:12])}",
                      file=sys.stderr)
        rep = {"setup_ns": set_up - begin, "timed_ns": done - set_up,
               "samples": timer.samples, "checks": checks, "outputs": run.outputs}
        if tracer is not None:
            rep["layers"] = {"calls": list(tracer.calls), "self_ns": list(tracer.self_ns),
                             "top_ns": tracer.top_ns}
        reps.append(rep)
        del run
    return {"workload": name, "seed": seed, "size": size, "reps": reps}


def summarize(result: dict) -> dict:
    """End-to-end figures of one untraced :func:`measure` result."""
    reps = result["reps"]
    # Repetitions replay identical work, so step i costs the same in each
    # one.  A shared host slows the process in bursts of seconds to tens
    # of seconds, which only ever add time, so the timed figures take
    # the fastest repetition and, per step, the fastest of the
    # repetitions: a median over a 30-second run still moves with the
    # share of it that a burst covers.  Garbage collection stays in: it
    # lands on the same steps in every repetition, which all start from
    # a collected heap.
    per_step = sorted(min(times) for times in zip(*(rep["samples"] for rep in reps)))
    fastest = min(reps, key=lambda rep: rep["timed_ns"])
    wall_s = fastest["timed_ns"] / 1e9
    ops = sum(fastest["outputs"][op] for op in ("loads", "stores", "flushes", "fences"))

    return {
        "setup_rep_s": statistics.median(rep["setup_ns"] for rep in reps) / 1e9,
        "wall_s": wall_s,
        "steps": len(per_step),
        "steps_per_s": len(fastest["samples"]) / wall_s,
        "step_us_p50": _nearest_rank(per_step, 0.50) / 1e3,
        "step_us_p99": _nearest_rank(per_step, 0.99) / 1e3,
        "sim_ops_per_s": ops / wall_s,
        "reps": len(reps),
        **tally_checks(reps),
    }


def tally_checks(reps: list, extra: dict | None = None) -> dict:
    """Checks attempted and failed over repetitions, plus ``extra`` ones."""
    checks = [(name, ok) for rep in reps for name, ok in rep["checks"].items()]
    checks += list((extra or {}).items())
    failed = sorted({name for name, ok in checks if not ok})
    return {"attempted": len(checks), "failed": sum(not ok for _, ok in checks),
            "failed_checks": failed}


def _nearest_rank(ordered: list, quantile: float):
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer figures of a traced result, and the tracing checks.

    The traced result must hold at least two repetitions: their call
    counts must be identical, and in each one the layers' self times
    plus the driver's own time must add up to the timed wall time, with
    no self time negative.
    """
    from layers import DRIVER, LAYER_NAMES

    reps = traced["reps"]
    checks = {
        "calls-repeat": all(rep["layers"]["calls"] == reps[0]["layers"]["calls"]
                            for rep in reps[1:]),
        "time-attributed": True,
    }
    metrics = {}
    steps = sum(len(rep["samples"]) for rep in reps)
    wall_ns = sum(rep["timed_ns"] for rep in reps)
    driver_ns = 0
    for rep in reps:
        layers = rep["layers"]
        # The driver's spans plus the timed time no span covers.
        outside = rep["timed_ns"] - layers["top_ns"]
        driver_ns += layers["self_ns"][-1] + outside
        checks["time-attributed"] &= (sum(layers["self_ns"]) + outside == rep["timed_ns"]
                                      and min(layers["self_ns"] + [outside]) >= 0)
    first = reps[0]["layers"]["calls"]
    per_rep_steps = len(reps[0]["samples"])
    for index, layer in enumerate(LAYER_NAMES):
        self_ns = sum(rep["layers"]["self_ns"][index] for rep in reps)
        metrics[f"{layer}.calls_per_step"] = (first[index] / per_rep_steps, "calls/step")
        metrics[f"{layer}.self_us_per_step"] = (self_ns / steps / 1e3, "us/step")
        metrics[f"{layer}.self_frac"] = (self_ns / wall_ns, "ratio")
    metrics[f"{DRIVER}.self_us_per_step"] = (driver_ns / steps / 1e3, "us/step")
    metrics[f"{DRIVER}.self_frac"] = (driver_ns / wall_ns, "ratio")
    untraced_step = sum(rep["timed_ns"] for rep in untraced["reps"]) / sum(
        len(rep["samples"]) for rep in untraced["reps"])
    metrics["trace.overhead"] = (wall_ns / steps / untraced_step, "ratio")
    metrics.update(sim_metrics(reps[0]["outputs"]))
    return metrics, checks


def sim_metrics(outputs: dict) -> dict:
    """Simulated per-layer figures of one repetition's outputs."""
    steps = outputs["steps"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    o = outputs
    return {
        "sim.cycles_per_step": (o["cycles_per_step"], "cycles/step"),
        "rbuf.hit_ratio": (ratio(o["read_buffer_hits"],
                                 o["read_buffer_hits"] + o["read_buffer_misses"]), "ratio"),
        "wbuf.hit_ratio": (ratio(o["write_buffer_hits"],
                                 o["write_buffer_hits"] + o["write_buffer_misses"]), "ratio"),
        "wbuf.evictions_per_step": (o["write_buffer_evictions"] / steps, "count/step"),
        "wbuf.periodic_per_step": (o["periodic_writebacks"] / steps, "count/step"),
        "media.read_amp": (ratio(o["media_read_bytes"], o["imc_read_bytes"]), "ratio"),
        "media.write_amp": (ratio(o["media_write_bytes"], o["imc_write_bytes"]), "ratio"),
        "ait.miss_ratio": (ratio(o["ait_misses"], o["ait_hits"] + o["ait_misses"]), "ratio"),
        "media.read_queue_cycles_per_step": (o["read_queue_cycles"] / steps, "cycles/step"),
        "media.write_queue_cycles_per_step": (o["write_queue_cycles"] / steps, "cycles/step"),
        "prefetch.useful_frac": (ratio(o["prefetch_issued"],
                                       o["prefetch_issued"] + o["prefetch_dropped"]), "ratio"),
        "cache.l3_miss_ratio": (ratio(o["l3_misses"], o["l3_hits"] + o["l3_misses"]), "ratio"),
        "inflight.entries": (o["inflight_entries"], "count"),
    }


def main(argv=None) -> int:
    """Run one workload in this process and write its raw results."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=str(ROOT / ".bench_build" / "trace.json"),
                        help="Chrome trace file written by a traced run")
    parser.add_argument("--update-golden", action="store_true",
                        help="store this run's outputs as the golden ones")
    args = parser.parse_args(argv)

    _import_simulator()
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401  (imports every simulator module it drives)

    # The parent subtracts its spawn time: start-up and imports count
    # towards set-up time.
    out = {"imported_at": time.monotonic()}
    if args.update_golden:
        path = golden_path(args.workload, args.size)
        result = measure(args.workload, args.seed, 0, args.size, min_reps=1, use_golden=False)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(_canonical(result["reps"][0]["outputs"]),
                                   indent=1, sort_keys=True) + "\n")
    elif args.trace:
        from layers import LayerTracer
        from repro.trace import validate_chrome_trace

        untraced = measure(args.workload, args.seed, 0, args.size, min_reps=1)
        tracer = LayerTracer()
        with tracer.installed():
            traced = measure(args.workload, args.seed, args.seconds, args.size,
                             tracer=tracer, min_reps=2)
        metrics, checks = layer_metrics(traced, untraced)
        tracer.write_chrome_trace(args.trace_out)
        try:
            validate_chrome_trace(args.trace_out)
            checks["chrome-trace-valid"] = True
        except ValueError as error:
            print(f"invalid Chrome trace: {error}", file=sys.stderr)
            checks["chrome-trace-valid"] = False
        out.update(metrics=metrics, dropped_spans=tracer.dropped,
                   **tally_checks(traced["reps"] + untraced["reps"], checks))
    else:
        result = measure(args.workload, args.seed, args.seconds, args.size)
        out.update(summarize(result))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
