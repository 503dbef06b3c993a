"""The benchmark's four workloads.

Each workload builds its own inputs from a seed and drives the
simulator only through public APIs.  A *repetition* is one complete,
independent run: a fresh set-up (machine, inputs, untimed
prepopulation and warm-up) followed by a fixed block of timed steps.
Because every repetition starts from the same state, its simulated
outputs repeat bit for bit, which is what the golden check relies on.

Why these four (the axes the Optane studies vary: reads against
writes, working set against the on-DIMM buffers and the AIT):

* ``chase-64m-g1`` -- Fig. 8a ``rand_clwb`` strict at 64 MB: the
  costliest step of the slowest experiment.  The working set is past
  the L3 (27.5 MB) and the AIT coverage (16 MB), so the read path,
  the prefetchers, read-buffer and AIT misses and partial-line RMW
  evictions all do work.  The warm-up is short, so the caches are
  nearly cold; on a random 64 MB chain the steady state is no
  different (fig8 makes the same argument).
* ``wbuf-32k-g1`` -- the write-dominant counterpart: random persists
  over 32 KB, past the 12 KB write buffer, prefetchers off.  The write
  buffer's random eviction and periodic write-back, the WPQ and the
  in-flight persist tracking carry the load.
* ``cceh-4w-g2`` -- the Fig. 10 / Table 1 case study on G2: CCEH
  inserts from 4 worker cores, each with a helper thread, interleaved
  by ``interleave_workers``.  The large untimed prepopulation makes
  set-up time meaningful.
* ``validate-cheap`` -- the user-facing path (the CI fidelity gate):
  one ``repro.validate.validate`` request over fig2 and fig3 on both
  generations.  Its input is the fixed claim set, so it does not
  depend on the seed; its "step" is one request.  fig7 is left out
  because it would double the request to about 15 s, and a run must
  fit at least three requests for its fastest one to be steady.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from contextlib import contextmanager

from repro.cache.prefetch import PrefetcherConfig
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.core.helper import HelperThread
from repro.datastores.cceh import CcehHashTable
from repro.experiments import common as experiments_common
from repro.persist.allocator import PmHeap
from repro.system import presets
from repro.system.machine import Core, Machine

#: The seed whose simulated outputs are stored in ``golden/``.
DEFAULT_SEED = 1

#: Repetition sizes.  ``full`` is what the benchmark measures; ``tiny``
#: serves the self-test, which must run in seconds.
SIZES = {
    "chase-64m-g1": {
        "full": {"wss": 64 << 20, "warmup": 1000, "steps": 15000},
        "tiny": {"wss": 1 << 20, "warmup": 200, "steps": 400},
    },
    "wbuf-32k-g1": {
        "full": {"region": 32 << 10, "warmup": 2000, "steps": 30000},
        "tiny": {"region": 32 << 10, "warmup": 200, "steps": 600},
    },
    "cceh-4w-g2": {
        "full": {"prepopulate": 50_000, "inserts": 8000, "workers": 4},
        "tiny": {"prepopulate": 2000, "inserts": 200, "workers": 4},
    },
    "validate-cheap": {
        "full": {"experiments": ("fig2", "fig3"), "generations": (1, 2)},
    },
}

_XPLINE = 256
_LINE = 64


class StepTimer:
    """Times steps one at a time and tags traced spans with the step id."""

    def __init__(self, tracer=None) -> None:
        # Host nanoseconds per step, stored flat so that the benchmark's
        # own memory does not grow peak RSS with the repetition count.
        self.samples = array("q")
        self.tracer = tracer

    def run(self, fn, *args, **kwargs):
        """Run one step, record its host time and return its result."""
        if self.tracer is not None:
            self.tracer.step = len(self.samples)
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.samples.append(time.perf_counter_ns() - start)
        return result


# -- simulated outputs -----------------------------------------------------


def machine_totals(machine: Machine) -> dict:
    """Cumulative simulated counters of one machine, read from public state."""
    totals = dict(vars(machine.registry.aggregate("pm")))
    read_queue = write_queue = 0.0
    inflight = 0
    for name, channel in sorted(machine.channels().items()):
        if not name.startswith("pm"):
            continue
        media = channel.device.media
        read_queue += media.read_ports.total_queue_cycles
        write_queue += media.write_ports.total_queue_cycles
        inflight += len(channel.inflight)
    totals.update(
        read_queue_cycles=read_queue,
        write_queue_cycles=write_queue,
        prefetch_issued=machine.prefetch_issued,
        prefetch_dropped=machine.prefetch_dropped,
        l3_hits=machine.caches.l3.hits,
        l3_misses=machine.caches.l3.misses,
        inflight_entries=inflight,
    )
    return totals


def core_totals(cores) -> dict:
    """Summed op counters of ``cores``."""
    return {
        "loads": sum(core.loads for core in cores),
        "stores": sum(core.stores for core in cores),
        "flushes": sum(core.flushes for core in cores),
        "fences": sum(core.fences for core in cores),
    }


def _delta(after: dict, before: dict) -> dict:
    # Gauges are reported as read after the timed phase, not diffed.
    return {key: after[key] if key == "inflight_entries" else after[key] - before[key]
            for key in after}


def buffer_checks(machine: Machine) -> dict:
    """Occupancy invariants of every PM DIMM and its iMC channel."""
    rbuf = wbuf = wpq = True
    for name, channel in machine.channels().items():
        if not name.startswith("pm"):
            continue
        dimm = channel.device
        rbuf &= len(dimm.read_buffer) <= dimm.read_buffer.capacity_lines
        wbuf &= len(dimm.write_buffer) <= dimm.write_buffer.capacity_lines
        wpq &= channel.wpq_occupancy(max(core.now for core in machine.cores)) <= channel.wpq_slots
    return {"rbuf-within-capacity": rbuf, "wbuf-within-capacity": wbuf,
            "wpq-within-slots": wpq}


# -- the step workloads ------------------------------------------------------


class _StepWorkload:
    """Shared shape: set up, run the timed block, report outputs and checks."""

    #: False when the input does not depend on the seed, so the golden
    #: outputs apply at every seed.
    seeded = True
    #: Fewest repetitions per run: three, so that each step's fastest
    #: repetition means something and, at a seed without golden
    #: outputs, repetitions can be compared.
    min_reps = 3

    machine: Machine
    cores: list  # cores whose clocks define cycles per step
    all_cores: list  # every core that issues simulated ops
    steps: int

    def timed(self, timer: StepTimer) -> None:
        """Run the timed block, sampling and checking clocks per step."""
        before_machine = machine_totals(self.machine)
        before_ops = core_totals(self.all_cores)
        start_clocks = [core.now for core in self.cores]
        self.monotone = True

        def run_step(fn, *args):
            before = [core.now for core in self.all_cores]
            timer.run(fn, *args)
            if any(core.now < now for core, now in zip(self.all_cores, before)):
                self.monotone = False

        if timer.tracer is not None:
            # Each step's root span: the benchmark's own work around it.
            run_step = timer.tracer.driver_step(run_step)
        self._timed(run_step)
        self.outputs = {
            "steps": self.steps,
            "core_cycles": [core.now - start for core, start in zip(self.cores, start_clocks)],
            **_delta(core_totals(self.all_cores), before_ops),
            **_delta(machine_totals(self.machine), before_machine),
        }
        self.outputs["cycles_per_step"] = sum(self.outputs["core_cycles"]) / self.steps

    def checks(self) -> dict:
        """Invariant checks read through public state after the timed phase."""
        return {"clock-monotone": self.monotone, **buffer_checks(self.machine)}


class PointerChase(_StepWorkload):
    """Fig. 8a rand_clwb strict: dependent load, then persist the pad line."""

    def __init__(self, seed: int, wss: int, warmup: int, steps: int) -> None:
        self.machine = presets.machine_for(1, pm_dimms=1)
        count = wss // _XPLINE
        # Sattolo's algorithm: a uniformly random single cycle.
        order = list(range(count))
        rng = random.Random(seed)
        for index in range(count - 1, 0, -1):
            other = rng.randrange(index)
            order[index], order[other] = order[other], order[index]
        self.next = order
        self.base = self.machine.region_spec("pm").base
        self.core = self.machine.new_core("cpu0")
        self.cores = self.all_cores = [self.core]
        self.cursor = 0
        self.steps = steps
        for _ in range(warmup):
            self._step()

    def _step(self) -> None:
        core = self.core
        element = self.base + self.cursor * _XPLINE
        core.load(element, 8)
        pad = element + _LINE
        core.store(pad, 8)
        core.clwb(pad)
        core.sfence()
        self.cursor = self.next[self.cursor]

    def _timed(self, run_step) -> None:
        for _ in range(self.steps):
            run_step(self._step)


class WriteBufferStress(_StepWorkload):
    """Random persists over a region past the write buffer, with RAP loads.

    Each step persists one seeded random cacheline, half by nt-store
    and half by store + clwb; every fourth step fences, and a quarter
    of the steps first load the line the previous step persisted
    (read-after-persist).
    """

    def __init__(self, seed: int, region: int, warmup: int, steps: int) -> None:
        self.machine = presets.machine_for(1, pm_dimms=1, prefetchers=PrefetcherConfig.none())
        base = self.machine.region_spec("pm").base
        lines = region // _LINE
        rng = random.Random(seed)
        self.ops = []
        previous = base
        for index in range(warmup + steps):
            addr = base + rng.randrange(lines) * _LINE
            reload = previous if rng.random() < 0.25 else None
            self.ops.append((addr, rng.random() < 0.5, index % 4 == 3, reload))
            previous = addr
        self.core = self.machine.new_core("cpu0")
        self.cores = self.all_cores = [self.core]
        self.steps = steps
        for op in self.ops[:warmup]:
            self._step(op)
        self.ops = self.ops[warmup:]

    def _step(self, op) -> None:
        addr, nt, fence, reload = op
        core = self.core
        if reload is not None:
            core.load(reload, 8)
        if nt:
            core.nt_store(addr, _LINE)
        else:
            core.store(addr, 8)
            core.clwb(addr)
        if fence:
            core.sfence()

    def _timed(self, run_step) -> None:
        for op in self.ops:
            run_step(self._step, op)


class CcehInserts(_StepWorkload):
    """Fresh-key CCEH inserts from several workers, each with a helper."""

    def __init__(self, seed: int, prepopulate: int, inserts: int, workers: int) -> None:
        self.machine = presets.machine_for(2, pm_dimms=1)
        self.table = CcehHashTable(PmHeap(self.machine).pm)
        keys = random.Random(seed).sample(range(1, 1 << 62), prepopulate + inserts)
        self.keys = keys
        for key in keys[:prepopulate]:
            self.table.insert(key, key)
        timed_keys = keys[prepopulate:]
        self.shares = [timed_keys[way::workers] for way in range(workers)]
        self.cores = [self.machine.new_core(f"worker{way}") for way in range(workers)]
        self.helpers = [
            HelperThread(self.machine, self.table.prefetch_trace, name=f"helper{way}")
            for way in range(workers)
        ]
        self.all_cores = self.cores + [helper.core for helper in self.helpers]
        self.steps = inserts

    def _insert(self, core: Core, helper: HelperThread, share: list, index: int) -> None:
        helper.sync_before(core, share, index)
        self.table.insert(share[index], share[index], core)

    def _timed(self, run_step) -> None:
        def stream(core, helper, share):
            for index in range(len(share)):
                yield lambda index=index: run_step(self._insert, core, helper, share, index)

        experiments_common.interleave_workers([
            (core, stream(core, helper, share))
            for core, helper, share in zip(self.cores, self.helpers, self.shares)
        ])

    def checks(self) -> dict:
        """Buffer and clock invariants plus the table's own structure."""
        results = super().checks()
        try:
            self.table.check_invariants()
            results["cceh-invariants"] = True
        except DataStoreError:
            results["cceh-invariants"] = False
        readback = True
        for key in self.keys:
            try:
                readback &= self.table.get(key) == key
            except KeyNotFoundError:
                readback = False
        results["cceh-readback"] = readback
        return results


# -- validate-cheap ------------------------------------------------------------


class _SimTally:
    """Adds the simulated counters of every dying core and machine to a total.

    ``validate`` builds its machines internally, so their counters are
    only reachable while they live.  A finalizer on each class reads
    them as the object is freed; it costs one call per core or machine,
    never one per simulated operation.
    """

    def __init__(self) -> None:
        self.totals: dict = {}
        self.core_cycles = 0.0

    def _add(self, values: dict) -> None:
        for key, value in values.items():
            self.totals[key] = self.totals.get(key, 0) + value

    @contextmanager
    def installed(self):
        tally = self

        def core_del(core):
            tally.core_cycles += core.now
            tally._add(core_totals([core]))

        def machine_del(machine):
            tally._add(machine_totals(machine))

        Core.__del__ = core_del
        Machine.__del__ = machine_del
        try:
            yield self
        finally:
            del Core.__del__
            del Machine.__del__


class ValidateCheap:
    """One ``repro.validate.validate`` request over the cheap experiments.

    The seed is accepted like every workload's, but the input is the
    fixed claim set, so the golden outputs apply at every seed.
    """

    seeded = False
    min_reps = 1

    def __init__(self, seed: int, experiments: tuple, generations: tuple) -> None:
        from repro.validate import select_claims

        self.experiments = list(experiments)
        self.generations = generations
        self.claims = select_claims(self.experiments, generations, "fast")

    def timed(self, timer: StepTimer) -> None:
        """Run the request; record verdicts and the simulated totals."""
        from repro.validate import validate

        tally = _SimTally()
        with tally.installed():
            report = timer.run(validate, experiments=self.experiments,
                               generations=self.generations, profile="fast",
                               jobs=1, cache=None)
            gc.collect()
        self.report = report
        self.outputs = {
            "steps": 1,
            "verdicts": {v.claim_id: [v.passed, v.measured] for v in report.verdicts},
            "run_errors": dict(report.run_errors),
            "core_cycles": [tally.core_cycles],
            "cycles_per_step": tally.core_cycles,
            **tally.totals,
        }

    def checks(self) -> dict:
        """One check per claim: it was evaluated and passed."""
        passed = {v.claim_id: v.passed for v in self.report.verdicts}
        results = {f"claim:{claim.id}": passed.get(claim.id, False) for claim in self.claims}
        results["no-run-errors"] = not self.report.run_errors
        return results


WORKLOADS = {
    "chase-64m-g1": PointerChase,
    "wbuf-32k-g1": WriteBufferStress,
    "cceh-4w-g2": CcehInserts,
    "validate-cheap": ValidateCheap,
}


def build(name: str, seed: int, size: str = "full"):
    """Set up one repetition of workload ``name``."""
    return WORKLOADS[name](seed, **SIZES[name][size])
