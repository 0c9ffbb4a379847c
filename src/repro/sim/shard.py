"""Sharded fleet sweeps: partition, execute, merge.

A 200+-lane fleet fits one process, but the multiplexing economics the
paper argues for (Sec. 5) are worth sweeping at scales and parameter
grids that do not.  This module cuts a fleet into contiguous **shards**
of global lane indices, submits every shard to one concurrent pool —
threads of this process, or ``spawn`` worker processes that re-import
the package instead of inheriting simulator state — and merges the
:class:`~repro.sim.fleet.FleetResult` each shard returns through its
future into one fleet-wide result.

The merge is exact, not approximate: lane simulations in this codebase
interact only through the profiling queue and shared hosts.  The
profiling queue is scoped to the shard (one profiling environment per
shard); shared hosts couple lanes *across* shards, so host-coupled
sweeps pass an :class:`~repro.sim.exchange.ExchangeSpec` and every
worker synchronizes its lanes' demand contributions through a
shared-memory block and step barrier before computing the global theft
pass locally.  Either way, with counter-mode telemetry streams the
merged result is bit-identical to the single-process run (pinned in
``tests/test_fleet_shard.py``).

The module is deliberately generic: it knows how to partition, execute
and merge, while the *worker* callable (a module-level function so
``spawn`` can pickle it by reference) owns fleet construction — see
:func:`repro.experiments.multiplexing_study.run_fleet_multiplexing_study`
``(shards=, workers=)`` and ``repro.cli fleet --shards/--workers``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import ExitStack
from multiprocessing import get_context
from typing import Any, Callable

import numpy as np

from repro.sim.exchange import (
    ExchangeSpec,
    demand_segment,
    make_exchange_handles,
)
from repro.sim.fleet import FleetResult


def partition_lanes(n_lanes: int, shards: int) -> list[range]:
    """Cut ``n_lanes`` global lane indices into contiguous shard ranges.

    Sizes differ by at most one (the first ``n_lanes % shards`` shards
    take the extra lane); every shard is non-empty.
    """
    if n_lanes < 1:
        raise ValueError(f"need at least one lane: {n_lanes}")
    if shards < 1:
        raise ValueError(f"need at least one shard: {shards}")
    if shards > n_lanes:
        raise ValueError(f"cannot cut {n_lanes} lanes into {shards} shards")
    base, extra = divmod(n_lanes, shards)
    ranges = []
    start = 0
    for shard in range(shards):
        stop = start + base + (1 if shard < extra else 0)
        ranges.append(range(start, stop))
        start = stop
    return ranges


def _check_shard_order(parts: list[FleetResult]) -> None:
    """Reject shard results passed out of ascending global-lane order.

    The merge concatenates columns in the order the parts arrive, so a
    swapped pair would silently misalign every per-lane series.  Lane
    labels of the fleet engine's ``<prefix>-<global index>`` form carry
    the global order; when every label across every part has a numeric
    suffix, the flattened sequence must be strictly increasing.  Parts
    with free-form labels skip the check (only the duplicate-label guard
    applies).
    """
    indices: list[int] = []
    for part in parts:
        for label in part.lane_labels:
            prefix, _, suffix = label.rpartition("-")
            if not prefix or not suffix.isdigit():
                return
            indices.append(int(suffix))
    for previous, current in zip(indices, indices[1:]):
        if current <= previous:
            raise ValueError(
                f"shard results are out of global lane order (lane "
                f"{current} follows lane {previous}); pass parts in "
                "ascending shard order, shard 0 first"
            )


def merge_fleet_results(
    parts: list[FleetResult], label: str = "fleet"
) -> FleetResult:
    """Merge contiguous shard results back into one fleet-wide result.

    ``parts`` must be in ascending global-lane order (shard 0 first);
    all shards must have recorded the same step times.  Schemas are
    deduplicated across shards, per-series matrices are column-merged
    in global lane order, and per-lane rows come out exactly where the
    single-process engine would have put them.
    """
    if not parts:
        raise ValueError("need at least one shard result")
    times = parts[0].times
    for part in parts[1:]:
        if not np.array_equal(part.times, times):
            raise ValueError(
                f"shard results disagree on step times ({part.label!r} "
                f"recorded {part.n_steps} step(s) vs {parts[0].label!r} "
                f"with {len(times)}); they must come from one sweep"
            )
    lane_labels = tuple(
        lane_label for part in parts for lane_label in part.lane_labels
    )
    if len(set(lane_labels)) != len(lane_labels):
        counts = Counter(lane_labels)
        duplicates = sorted(label for label, n in counts.items() if n > 1)
        raise ValueError(
            f"duplicate lane labels across shard results: {duplicates}; "
            "the same shard was passed twice or the parts overlap"
        )
    _check_shard_order(parts)
    schemas: list[tuple[str, ...]] = []
    schema_index: dict[tuple[str, ...], int] = {}
    lane_schemas: list[int] = []
    for part in parts:
        for local_schema in part.lane_schemas:
            schema = part.schemas[local_schema]
            index = schema_index.get(schema)
            if index is None:
                index = schema_index[schema] = len(schemas)
                schemas.append(schema)
            lane_schemas.append(index)
    # Per-series column merge.  Shards are contiguous and each part's
    # recording lanes are ascending, so concatenation in shard order
    # already yields ascending global lane order.
    offsets = []
    offset = 0
    for part in parts:
        offsets.append(offset)
        offset += part.n_lanes
    order: list[str] = []
    columns: dict[str, list[np.ndarray]] = {}
    recording: dict[str, list[int]] = {}
    for part, part_offset in zip(parts, offsets):
        for name in part.matrices:
            if name not in columns:
                order.append(name)
                columns[name] = []
                recording[name] = []
            columns[name].append(part.matrix(name))
            recording[name].extend(
                part_offset + lane for lane in part.lanes_recording(name)
            )
    matrices = {
        name: (
            columns[name][0]
            if len(columns[name]) == 1
            else np.hstack(columns[name])
        )
        for name in order
    }
    return FleetResult(
        label=label,
        lane_labels=lane_labels,
        times=times,
        matrices=matrices,
        schemas=tuple(schemas),
        lane_schemas=tuple(lane_schemas),
        series_lanes={name: tuple(recording[name]) for name in order},
    )


def _drain_futures(futures: list, barrier) -> list:
    """Collect every shard's result, failing fast on a crash.

    A worker that dies outside a barrier wait leaves its peers blocked
    at the barrier until the wait times out; aborting the ``barrier``
    (when the sweep has one) as soon as the first failure lands breaks
    every pending and future wait immediately.  The first *root-cause*
    exception (anything that is not the induced ``BrokenBarrierError``)
    is re-raised.
    """
    done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    if (
        barrier is not None
        and not_done
        and any(f.exception() is not None for f in done)
    ):
        try:
            barrier.abort()
        except Exception:
            # The barrier may be unreachable (manager already dead);
            # the waits still unblock via their timeouts.
            pass
    wait(futures)
    errors = [f.exception() for f in futures if f.exception() is not None]
    for error in errors:
        if not isinstance(error, threading.BrokenBarrierError):
            raise error
    if errors:
        raise errors[0]
    return [future.result() for future in futures]


def run_sharded(
    worker: Callable[..., tuple[FleetResult, dict]],
    spec: Any,
    n_lanes: int,
    shards: int,
    workers: int,
    label: str = "fleet",
    exchange: ExchangeSpec | None = None,
) -> tuple[FleetResult, list[dict], float]:
    """Execute a sharded sweep and merge the shard results.

    ``worker`` must be a module-level callable (``spawn`` pickles it by
    reference) with signature ``worker(spec, lane_lo, lane_hi) ->
    (result, payload)``: it simulates global lanes ``[lane_lo,
    lane_hi)`` and returns the shard's
    :class:`~repro.sim.fleet.FleetResult` plus a small picklable stats
    payload, both through its future.

    Every shard is submitted to one pool: ``workers=0`` runs them as
    threads of this process (deterministic and debuggable, with the
    exact shard code path), any other count as ``spawn`` processes,
    ``min(workers, shards)`` of them.

    ``exchange`` couples the shards through a cross-shard demand
    exchange (shared hosts): the worker gains a fourth positional
    argument, a :class:`~repro.sim.exchange.DemandExchange` handle on
    one shared-memory demand block, and every shard must run
    *concurrently* because each step ends at a barrier — a
    ``threading.Barrier`` for threads, a ``multiprocessing.Manager``
    barrier for processes.  An undersized pool would deadlock at the
    first barrier, so ``0 < workers < shards`` is rejected.  The block
    and barrier are guaranteed released/unlinked on any exit, including
    worker crashes and barrier timeouts.

    Returns ``(merged_result, payloads_in_shard_order, wall_seconds)``
    where ``wall_seconds`` covers dispatch through merge.
    """
    ranges = partition_lanes(n_lanes, shards)
    if workers < 0:
        raise ValueError(f"workers must be >= 0: {workers}")
    if exchange is not None and 0 < workers < shards:
        raise ValueError(
            f"a demand exchange synchronizes all {shards} shard(s) at a "
            f"step barrier; a pool of {workers} worker(s) would deadlock "
            f"at the first wait — pass workers >= {shards}, or workers=0 "
            "to run the shards as threads"
        )
    jobs = [(spec, lanes.start, lanes.stop) for lanes in ranges]
    ctx = get_context("spawn")
    start = time.perf_counter()
    with ExitStack() as stack:
        barrier = None
        if exchange is not None:
            shm_name = stack.enter_context(demand_segment(n_lanes))
            if workers == 0:
                barrier = threading.Barrier(shards)
            else:
                barrier = stack.enter_context(ctx.Manager()).Barrier(shards)
            handles = make_exchange_handles(
                n_lanes, ranges, exchange, barrier, shm_name
            )
            jobs = [job + (handle,) for job, handle in zip(jobs, handles)]
        pool = stack.enter_context(
            ThreadPoolExecutor(max_workers=shards)
            if workers == 0
            else ProcessPoolExecutor(
                max_workers=min(workers, shards), mp_context=ctx
            )
        )
        futures = [pool.submit(worker, *job) for job in jobs]
        outcomes = _drain_futures(futures, barrier)
    merged = merge_fleet_results(
        [result for result, _payload in outcomes], label=label
    )
    wall_seconds = time.perf_counter() - start
    return merged, [payload for _result, payload in outcomes], wall_seconds
