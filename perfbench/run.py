"""The repository benchmark: host cost of the simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all                # every workload
    python3 perfbench/run.py --workload chase-64m-g1 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload wbuf-32k-g1 --trace 1   # per-layer run

Each workload runs in its own single-threaded process (``measure.py``)
as a closed loop: the next step starts only when the previous one has
returned.  With ``--trace 0`` the benchmark prints the end-to-end
metrics, measured with tracing off; with ``--trace 1`` it prints the
per-layer metrics of a separate traced run.  Simulated time and
counters are correctness outputs, not speed metrics: they are checked
against ``golden/`` at the default seed and between repetitions at any
other seed, together with invariants read from public state.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (correctness checks) and
``metrics``.  Results, with an environment block, are also written to
``.bench_build/results/``.  The exit code is 0 when every chosen
workload ran and printed its result (``correct`` says whether its checks
passed), and 1 when a workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_build" / "results"

WORKLOADS = ("chase-64m-g1", "wbuf-32k-g1", "cceh-4w-g2", "validate-cheap")

#: A workload process that runs longer than this is killed.
TIMEOUT_S = 170

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    ("step_us_p50", "us"),
    ("step_us_p99", "us"),
    ("sim_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload process; returns its raw results, None if it failed."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    label = f"{name}_seed{seed}_trace{trace}"
    raw = RESULTS / f"raw_{label}.json"  # the workload process's output
    command = [sys.executable, str(HERE / "measure.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(raw)]
    if trace:
        command += ["--trace-out", str(RESULTS / f"TRACE_{label}.json")]
    if raw.exists():
        raw.unlink()
    spawned = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr)
    try:
        code = process.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or not raw.exists():
        print(f"{name}: workload process failed with exit code {code}", file=sys.stderr)
        return None
    result = json.loads(raw.read_text())
    raw.unlink()
    result["startup_s"] = result.pop("imported_at") - spawned
    return result


def report(name: str, seed: int, trace: int, env: dict, result: dict) -> dict:
    """Print one workload's metrics; returns the contract's result object."""
    if trace:
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in result["metrics"].items()}
        samples = {}
    else:
        result["setup_s"] = result["startup_s"] + result["setup_rep_s"]
        metrics = {key: {"value": result[key], "unit": unit} for key, unit in END_TO_END}
        reps, steps = result["reps"], result["steps"]
        samples = {"setup_s": f"median of {reps} repetitions",
                   "wall_s": f"fastest of {reps} repetitions",
                   "steps_per_s": f"fastest of {reps} repetitions of {steps} steps",
                   "step_us_p50": f"{steps} steps, each the fastest of {reps} repetitions",
                   "step_us_p99": f"{steps} steps, each the fastest of {reps} repetitions",
                   "sim_ops_per_s": f"fastest of {reps} repetitions of {steps} steps",
                   "peak_rss_mb": "1 process"}
    attempted, failed = result["attempted"], result["failed"]
    fail_frac = failed / attempted
    print(f"== {name} (seed {seed}, trace {trace}) ==")
    for key, metric in metrics.items():
        count = f"  (n = {samples[key]})" if key in samples else ""
        print(f"{key:<40} {metric['value']:>16.6g} {metric['unit']}{count}")
    print(f"{'fail_frac':<40} {fail_frac:>16.6g} ratio  ({failed}/{attempted} checks failed)")
    for check in result["failed_checks"]:
        print(f"FAILED check: {check}")
    outcome = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {"workload": name, "environment": env, "fail_frac": fail_frac,
              "samples": samples, **outcome}
    path = RESULTS / f"BENCH_{name}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    return outcome


def main(argv=None) -> int:
    """Run the chosen workload(s); exit 0 when each printed its result."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        env = environment(args.seed)
        result = run_workload(name, args.seed, args.seconds, args.trace)
        env["loadavg_after"] = list(os.getloadavg())
        if max(env["loadavg_before"][0], env["loadavg_after"][0]) > (env["nproc"] or 1):
            print(f"warning: load average above nproc ({env['nproc']}); "
                  "timings are contended", file=sys.stderr)
        if result is None:
            return 1
        print(json.dumps(report(name, args.seed, args.trace, env, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
