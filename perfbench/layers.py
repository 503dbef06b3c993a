"""Host-time tracing of the simulator's layers, installed from outside.

:class:`LayerTracer` wraps the public functions of each layer (named by
module) so that every call records a span: layer, start, end, parent
span and step id.  Self time -- a span's duration minus the time its
child spans cover -- and call counts are summed per layer as calls
return; raw spans are kept in memory up to a cap and written once, as
Chrome ``trace_event`` JSON, when the run ends.  Nothing under ``src/``
knows about this: the wrappers are installed at run time and removed
afterwards, so untraced runs execute the unmodified code.

What a faster layer should move (end-to-end metric, workload):

* ``system.machine`` -- ``sim_ops_per_s`` and ``steps_per_s`` everywhere;
* ``cache`` -- ``steps_per_s`` on chase and cceh, little on wbuf;
* ``cache.prefetch`` -- ``steps_per_s``, ``step_us_p50`` on chase and
  cceh; no change on wbuf, which runs with the prefetchers off;
* ``system.imc`` -- ``steps_per_s`` on wbuf;
* ``dimm.optane`` -- chase and wbuf;
* ``buffers.read_buffer`` -- chase;
* ``buffers.write_buffer`` -- ``steps_per_s`` on wbuf, then chase (the
  G1 periodic scan); about no change on cceh (G2 has no periodic
  write-back);
* ``media`` -- chase only;
* ``sim.inflight`` -- ``step_us_p99`` and ``peak_rss_mb`` on wbuf;
* ``datastores.cceh``, ``core.helper``, ``experiments.common`` --
  ``steps_per_s`` on cceh, and key generation and prepopulation its
  ``setup_s``;
* ``system.presets``, ``runner``, ``validate`` -- ``wall_s`` on
  validate-cheap; elsewhere only ``setup_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager

#: (layer, module, class or None for module functions, function names).
#: ``None`` names mean every public method the class defines.
LAYERS = (
    ("system.machine", "repro.system.machine", "Core", None),
    ("system.machine", "repro.system.machine", "Machine",
     ("demand_load", "demand_store", "flush_line", "nt_store_line", "region_of")),
    ("cache", "repro.cache.hierarchy", "CacheHierarchy",
     ("access", "fill", "probe_level", "invalidate", "clean")),
    ("cache.prefetch", "repro.cache.prefetch", "PrefetchEngine", ("observe",)),
    ("system.imc", "repro.system.imc", "IMCChannel", ("read", "write", "persist_stall")),
    ("dimm.optane", "repro.dimm.optane", "OptaneDimm", ("read_line", "ingest_write")),
    ("buffers.read_buffer", "repro.buffers.read_buffer", "ReadBuffer",
     ("deliver", "install", "take", "contains")),
    ("buffers.write_buffer", "repro.buffers.write_buffer", "WriteBuffer",
     ("write", "poll", "servable", "contains", "adopt_from_read_buffer", "fill_from_media")),
    ("media", "repro.media.xpoint", "XPointMedia", ("read_xpline", "write_xpline")),
    ("media", "repro.media.ait", "AitCache", ("lookup_penalty",)),
    ("media", "repro.sim.ports", "ServicePorts", ("acquire",)),
    ("sim.inflight", "repro.sim.inflight", "InflightPersists",
     ("add", "completion_for", "prune")),
    ("datastores.cceh", "repro.datastores.cceh.hashtable", "CcehHashTable",
     ("insert", "prefetch_trace")),
    ("core.helper", "repro.core.helper", "HelperThread", ("sync_before",)),
    ("experiments.common", "repro.experiments.common", None, ("interleave_workers",)),
    ("system.presets", "repro.system.presets", None, ("machine_for", "g1_machine", "g2_machine")),
    ("runner", "repro.runner.engine", None, ("run_sweep",)),
    ("validate", "repro.validate.spec", "Claim", ("evaluate",)),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: The benchmark's own code: each timed step runs inside a span of this
#: layer, and time in the timed phase outside every span counts here too.
DRIVER = "driver"


def _rebind(old, new) -> None:
    """Point every loaded module's global that is ``old`` at ``new``.

    Covers modules that imported a function by name, including those
    imported while the wrappers were installed.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is old:
                setattr(module, attr, new)


class LayerTracer:
    """Per-layer call counts, self time and a capped in-memory span log."""

    def __init__(self, span_cap: int = 20_000) -> None:
        self.span_cap = span_cap
        self.step = -1  # -1 while setting up; the step index while timed
        # One slot per layer, then one for the driver.
        self.calls = [0] * (len(LAYER_NAMES) + 1)
        self.self_ns = [0] * (len(LAYER_NAMES) + 1)
        self.top_ns = 0  # summed duration of spans with no parent
        self.spans: list[tuple] = []  # (layer, start, end, parent, step, id)
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child ns] per open span
        self._next_id = 0

    def reset_totals(self) -> None:
        """Zero the per-layer totals; call only between steps."""
        if self._stack:
            raise RuntimeError("reset_totals called inside a traced call")
        self.calls[:] = [0] * len(self.calls)
        self.self_ns[:] = [0] * len(self.self_ns)
        self.top_ns = 0

    def driver_step(self, fn):
        """``fn`` wrapped in a driver span, the root span of each timed step."""
        return self._wrap(len(LAYER_NAMES), fn)

    def _wrap(self, index: int, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_ns += duration
                if len(spans) < tracer.span_cap:
                    spans.append((index, start, end, parent, tracer.step, span_id))
                else:
                    tracer.dropped += 1

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer's functions for the duration of the block."""
        methods: list[tuple] = []  # (class, name, original)
        functions: list[tuple] = []  # (wrapped, original)
        try:
            for layer, module_name, class_name, names in LAYERS:
                index = LAYER_NAMES.index(layer)
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names:
                        original = getattr(module, name)
                        functions.append((self._wrap(index, original), original))
                        _rebind(original, functions[-1][0])
                    continue
                owner = getattr(module, class_name)
                if names is None:
                    names = [name for name, value in vars(owner).items()
                             if isinstance(value, types.FunctionType)
                             and not name.startswith("_")]
                for name in names:
                    original = vars(owner)[name]
                    setattr(owner, name, self._wrap(index, original))
                    methods.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in methods:
                setattr(owner, name, original)
            for wrapped, original in functions:
                _rebind(wrapped, original)

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome ``trace_event`` dict (times in µs)."""
        spans = sorted(self.spans, key=lambda span: (span[1], -span[2]))
        origin = spans[0][1] if spans else 0
        events = [{"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "ts": 0,
                   "args": {"name": "benchmark"}}]
        names = LAYER_NAMES + (DRIVER,)
        for index, start, end, parent, step, span_id in spans:
            events.append({
                "ph": "X", "cat": "host", "name": names[index],
                "ts": (start - origin) / 1000.0, "dur": (end - start) / 1000.0,
                "pid": 1, "tid": 1,
                "args": {"step": step, "span": span_id, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`chrome_trace` to ``path`` in one go."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
