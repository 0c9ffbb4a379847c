"""Outside-in layer tracing: spans recorded around each layer's public calls.

:func:`install` replaces the public functions of each layer with
wrappers that record one span per call: layer name, start, end, the
enclosing span that caused it, and an optional item count (lanes,
rows, keys, accepted grants).  Nothing inside the program changes; the
wrappers live in this file and are installed before the study builds
its lanes, so bound methods captured at build time are the wrapped
ones.

Each thread keeps its own span stack and buffers, so the shard threads
of a ``workers=0`` sharded run never interleave their spans.  Spans
stay in memory until :meth:`Tracer.save` writes them once, at the end.
:func:`summarize` turns a saved span file into per-layer metrics; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from time import perf_counter_ns

import numpy as np


def _len_arg(index: int):
    return lambda args, result: len(args[index])


def _rows_arg(index: int):
    return lambda args, result: int(np.shape(args[index])[0])


def _accepted(args, result) -> int:
    return int(result.accepted)


#: (span name, module, attribute path, item count from (args, result)).
#: Several targets may share a span name; their spans are summed.
TARGETS = (
    ("fleet.engine", "repro.sim.fleet", "FleetEngine.run", None),
    ("fleet.clock_advance", "repro.sim.clock", "SimClock.advance", None),
    ("traces.workload_at", "repro.workloads.traces", "LoadTrace.workload_at", None),
    ("provider.capacity_at", "repro.cloud.provider", "CloudProvider.capacity_at", None),
    ("manager.adaptation_due", "repro.core.manager", "DejaVuManager.adaptation_due", None),
    ("manager.poll_pending_deployment", "repro.core.manager",
     "DejaVuManager.poll_pending_deployment", None),
    ("manager.begin_batched_adapt", "repro.core.manager",
     "DejaVuManager.begin_batched_adapt", None),
    ("manager.complete_batched_adapt", "repro.core.manager",
     "DejaVuManager.complete_batched_adapt", None),
    ("manager.learn", "repro.core.manager", "DejaVuManager.learn", None),
    ("manager.on_step", "repro.core.manager", "DejaVuManager.on_step", None),
    ("observer.fill_rows", "repro.experiments.setup",
     "_FleetFamilyObserver.fill_rows", _len_arg(2)),
    ("monitor.collect_matrix", "repro.telemetry.monitor",
     "Monitor.collect_matrix", _len_arg(1)),
    ("batch.classify_matrix", "repro.core.batch",
     "BatchClassifier.classify_matrix", _rows_arg(1)),
    ("queue.request", "repro.sim.fleet", "ProfilingQueue.request", _accepted),
    ("queue.advance_to", "repro.sim.fleet", "ProfilingQueue.advance_to", None),
    ("repository.lookup_batch", "repro.core.repository",
     "AllocationRepository.lookup_batch", _len_arg(1)),
    ("setup.build", "repro.experiments.setup", "build_scaleout_setup", None),
    ("setup.build", "repro.experiments.setup", "build_scaleup_setup", None),
    ("forecast.placement_estimate", "repro.sim.forecast", "placement_estimate", None),
    ("hosts.apply_step", "repro.sim.hosts", "HostMap.apply_step", None),
    ("hosts.apply_step", "repro.sim.exchange", "ShardHostView.apply_step", None),
    ("hosts.migrate", "repro.sim.hosts", "HostMap.migrate", None),
    ("placement.plan", "repro.sim.placement", "MigrationPolicy.plan", None),
    ("exchange.exchange", "repro.sim.exchange", "DemandExchange.exchange", None),
    ("shard.merge", "repro.sim.shard", "merge_fleet_results", None),
    ("persistence.npz", "repro.core.persistence", "save_fleet_result", None),
    ("persistence.npz", "repro.core.persistence", "load_fleet_result", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_rest in TARGETS))


class _ThreadSpans:
    """One thread's span buffers and its stack of open span indices."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.items = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []


class Tracer:
    """Records spans per thread; :meth:`save` writes them all at once."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def wrap(self, fn, name_id: int, count=None):
        """``fn`` recording one span per call under ``SPAN_NAMES[name_id]``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            index = len(spans.names)
            stack = spans.stack
            spans.names.append(name_id)
            spans.parents.append(stack[-1] if stack else -1)
            spans.items.append(0)
            spans.ends.append(0)
            stack.append(index)
            spans.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[index] = perf_counter_ns()
                stack.pop()
            if count is not None:
                spans.items[index] = count(args, result)
            return result

        return traced

    def save(self, path) -> int:
        """Write every thread's spans to one ``.npz`` file; return the count.

        Parent indices are rebased so they index the concatenated
        arrays; ``thread`` tells the threads apart.
        """
        with self._lock:
            threads = list(self._threads)
        offset = 0
        columns: dict[str, list[np.ndarray]] = {
            key: [] for key in ("name", "parent", "items", "start", "end", "thread")
        }
        for thread, spans in enumerate(threads):
            n = len(spans.names)
            parents = np.frombuffer(spans.parents, dtype=np.int32).astype(np.int64)
            columns["parent"].append(np.where(parents >= 0, parents + offset, -1))
            columns["name"].append(np.frombuffer(spans.names, dtype=np.int32))
            columns["items"].append(np.frombuffer(spans.items, dtype=np.int64))
            columns["start"].append(np.frombuffer(spans.starts, dtype=np.int64))
            columns["end"].append(np.frombuffer(spans.ends, dtype=np.int64))
            columns["thread"].append(np.full(n, thread, dtype=np.int32))
            offset += n
        arrays = {
            key: (np.concatenate(parts) if parts else np.empty(0, dtype=np.int64))
            for key, parts in columns.items()
        }
        np.savez(path, span_names=np.array(SPAN_NAMES), **arrays)
        return offset


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` function for the rest of this process.

    A module-level function is also rebound in every ``repro`` module
    that imported it by name, so callers holding the old binding are
    traced too.
    """
    for name, module_name, attr_path, count in TARGETS:
        owner, attr = _resolve(module_name, attr_path)
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(original, SPAN_NAMES.index(name), count)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is original
            ):
                setattr(module, attr, wrapped)


def summarize(path) -> dict[str, float]:
    """Per-layer metrics from a span file written by :meth:`Tracer.save`.

    Returns ``<layer>.<function>.calls``, ``.self_s`` and ``.items``
    for every span name (zero where the workload never reached the
    layer), plus the host step-time percentiles ``fleet.step_ms.p50``
    and ``.p99``: the gaps between consecutive ``SimClock.advance``
    calls inside one engine run.
    """
    with np.load(path) as data:
        span_names = [str(n) for n in data["span_names"]]
        name = data["name"]
        parent = data["parent"]
        items = data["items"]
        start = data["start"]
        end = data["end"]
    duration = end - start
    has_parent = parent >= 0
    child_ns = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=name.size
    )
    self_ns = duration - child_ns
    n_names = len(span_names)
    calls = np.bincount(name, minlength=n_names)
    self_s = np.bincount(name, weights=self_ns, minlength=n_names) / 1e9
    item_sums = np.bincount(name, weights=items, minlength=n_names)
    metrics: dict[str, float] = {}
    for k, span_name in enumerate(span_names):
        metrics[f"{span_name}.calls"] = int(calls[k])
        metrics[f"{span_name}.self_s"] = float(self_s[k])
        metrics[f"{span_name}.items"] = int(item_sums[k])

    engine = span_names.index("fleet.engine")
    advance = np.flatnonzero(name == span_names.index("fleet.clock_advance"))
    in_engine = advance[
        (parent[advance] >= 0) & (name[parent[advance].clip(0)] == engine)
    ]
    gaps = []
    for run in np.unique(parent[in_engine]):
        marks = np.concatenate(
            ([start[run]], end[in_engine[parent[in_engine] == run]])
        )
        gaps.append(np.diff(marks))
    step_ns = np.concatenate(gaps) if gaps else np.zeros(1)
    metrics["fleet.step_ms.p50"] = float(np.percentile(step_ns, 50)) / 1e6
    metrics["fleet.step_ms.p99"] = float(np.percentile(step_ns, 99)) / 1e6
    metrics["fleet.step_ms.samples"] = int(step_ns.size if gaps else 0)
    return metrics
