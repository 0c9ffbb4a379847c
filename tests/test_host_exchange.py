"""Property tests for the cross-shard demand exchange.

The invariant under test: for *any* placement, shard cut and lane
count, stepping every shard's :class:`ShardHostView` concurrently
(threads on one shared-memory block — the same ``DemandExchange``
handles the spawn workers run) produces exactly the per-host demand totals, theft
vectors and host statistics of a single-process :class:`HostMap` fed
the same workloads.  Exact equality, not allclose: every worker runs
the identical vectorized arithmetic over the identical global vector.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.sim.exchange import (
    DemandExchange,
    ExchangeSpec,
    ShardHostView,
    demand_segment,
    make_exchange_handles,
)
from repro.sim.hosts import HostMap, SimHost, allocation_demand
from repro.sim.shard import partition_lanes
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload

STEP_SECONDS = 300.0


def make_workloads(rng, n_lanes):
    return [
        Workload(
            volume=float(rng.uniform(0.0, 900.0)),
            mix=CASSANDRA_UPDATE_HEAVY,
        )
        for _ in range(n_lanes)
    ]


def random_coupling(rng):
    """A random fleet/host geometry with real contention on most draws."""
    n_lanes = int(rng.integers(3, 17))
    shards = int(rng.integers(2, min(n_lanes, 5) + 1))
    n_hosts = int(rng.integers(1, 4))
    hosts = [
        SimHost(capacity_units=float(rng.uniform(1.0, 6.0)))
        for _ in range(n_hosts)
    ]
    placement = [
        None if rng.random() < 0.15 else int(rng.integers(0, n_hosts))
        for _ in range(n_lanes)
    ]
    return n_lanes, shards, hosts, placement


@contextmanager
def exchange_handles(n_lanes, shards):
    """Thread handles on one fresh shared-memory block, one per shard."""
    ranges = partition_lanes(n_lanes, shards)
    with demand_segment(n_lanes) as shm_name:
        handles = make_exchange_handles(
            n_lanes, ranges, ExchangeSpec(), threading.Barrier(shards),
            shm_name,
        )
        try:
            yield handles
        finally:
            for handle in handles:
                handle.close()


def run_sharded_steps(
    n_lanes, shards, hosts, placement, steps_workloads, demand_fn=None,
    capacities=None,
):
    """Step every shard's view concurrently.

    Returns the thefts in shard order, the views, and a copy of the
    shared block as the final step left it.
    """
    ranges = partition_lanes(n_lanes, shards)

    def drive(view, lanes):
        thefts = []
        for step, workloads in enumerate(steps_workloads):
            caps = (
                None
                if capacities is None
                else capacities[lanes.start : lanes.stop]
            )
            # apply_step returns a slice view of the map's in-place
            # theft vector; copy before the next step overwrites it.
            thefts.append(
                view.apply_step(
                    STEP_SECONDS * step,
                    workloads[lanes.start : lanes.stop],
                    caps,
                ).copy()
            )
        return thefts

    with exchange_handles(n_lanes, shards) as handles:
        views = [
            ShardHostView(
                HostMap(hosts, placement, demand_fn=demand_fn),
                lanes.start,
                lanes.stop,
                handle,
            )
            for lanes, handle in zip(ranges, handles)
        ]
        with ThreadPoolExecutor(max_workers=shards) as pool:
            futures = [
                pool.submit(drive, view, lanes)
                for view, lanes in zip(views, ranges)
            ]
            results = [future.result() for future in futures]
        block = handles[0].block.copy()
    return results, views, block


class TestExchangeMatchesSingleProcess:
    @pytest.mark.parametrize("seed", range(8))
    def test_thefts_totals_and_stats_match(self, seed):
        rng = np.random.default_rng(seed)
        n_lanes, shards, hosts, placement = random_coupling(rng)
        steps_workloads = [make_workloads(rng, n_lanes) for _ in range(4)]

        reference = HostMap(hosts, placement)
        expected = [
            reference.apply_step(STEP_SECONDS * step, workloads).copy()
            for step, workloads in enumerate(steps_workloads)
        ]

        results, views, block = run_sharded_steps(
            n_lanes, shards, hosts, placement, steps_workloads
        )

        # Theft vectors, re-assembled from the shard slices, are
        # bit-identical to the single-process pass at every step.
        for step in range(len(steps_workloads)):
            merged = np.concatenate(
                [results[shard][step] for shard in range(shards)]
            )
            np.testing.assert_array_equal(
                merged, expected[step], strict=True
            )

        # Every worker's global map accumulated the same statistics.
        for view in views:
            assert view.map.mean_theft == reference.mean_theft
            assert view.map.peak_theft == reference.peak_theft
            assert view.map.overload_fraction == reference.overload_fraction

        # Per-host totals from the shared block equal np.bincount over
        # the single-process demand vector (the block still holds the
        # final step's exchanged demands).
        ref_demands = reference._demands(
            STEP_SECONDS * (len(steps_workloads) - 1),
            steps_workloads[-1],
            None,
        )
        np.testing.assert_array_equal(block, ref_demands, strict=True)
        host_index = reference._host_index
        placed = host_index >= 0
        np.testing.assert_array_equal(
            np.bincount(
                host_index[placed],
                weights=block[placed],
                minlength=len(hosts),
            ),
            np.bincount(
                host_index[placed],
                weights=ref_demands[placed],
                minlength=len(hosts),
            ),
            strict=True,
        )

    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_allocation_footprint_also_matches(self, seed):
        rng = np.random.default_rng(seed)
        n_lanes, shards, hosts, placement = random_coupling(rng)
        steps_workloads = [make_workloads(rng, n_lanes) for _ in range(3)]
        capacities = [float(rng.uniform(0.5, 8.0)) for _ in range(n_lanes)]

        reference = HostMap(hosts, placement, demand_fn=allocation_demand)
        expected = [
            reference.apply_step(
                STEP_SECONDS * step, workloads, capacities
            ).copy()
            for step, workloads in enumerate(steps_workloads)
        ]

        results, _views, _block = run_sharded_steps(
            n_lanes,
            shards,
            hosts,
            placement,
            steps_workloads,
            demand_fn=allocation_demand,
            capacities=capacities,
        )
        for step in range(len(steps_workloads)):
            merged = np.concatenate(
                [results[shard][step] for shard in range(shards)]
            )
            np.testing.assert_array_equal(
                merged, expected[step], strict=True
            )


class TestValidation:
    def test_spec_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="period"):
            ExchangeSpec(exchange_every=0)
        with pytest.raises(ValueError, match="timeout"):
            ExchangeSpec(barrier_timeout_seconds=0.0)

    def test_handle_rejects_bad_slice(self):
        with pytest.raises(ValueError, match="slice"):
            DemandExchange(4, 2, 2, barrier=None, shm_name="x")
        with pytest.raises(ValueError, match="slice"):
            DemandExchange(4, 0, 5, barrier=None, shm_name="x")

    def test_exchange_rejects_wrong_slice_length(self):
        with exchange_handles(4, 2) as handles:
            with pytest.raises(ValueError, match="local demands"):
                handles[0].exchange(np.zeros(3))

    def test_view_rejects_custom_demand_fn(self):
        custom = HostMap(
            [SimHost(4.0)],
            [0, 0, 0, 0],
            demand_fn=lambda workload: workload.demand_units,
        )
        with exchange_handles(4, 2) as handles:
            with pytest.raises(ValueError, match="demand_fn"):
                ShardHostView(custom, 0, 2, handles[0])

    def test_view_rejects_mismatched_exchange_geometry(self):
        host_map = HostMap([SimHost(4.0)], [0, 0, 0, 0])
        with exchange_handles(4, 2) as handles:
            with pytest.raises(ValueError, match="exchange covers"):
                ShardHostView(host_map, 0, 3, handles[0])

    def test_view_feed_is_the_global_lanes_feed(self):
        host_map = HostMap([SimHost(4.0)], [0, 0, 0, 0])
        with exchange_handles(4, 2) as handles:
            view = ShardHostView(host_map, 2, 4, handles[1])
        assert view.n_lanes == 2
        assert view.feed(0) is host_map.feed(2)
        assert view.feed(1) is host_map.feed(3)
        with pytest.raises(IndexError):
            view.feed(2)
