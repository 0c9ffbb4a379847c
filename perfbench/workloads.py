"""The benchmark's workloads: study arguments generated from a seed.

Each workload maps a ``--seed`` to the keyword arguments of
``run_fleet_multiplexing_study``.  The seed is the only input the
benchmark varies; the program receives nothing but these arguments.
All load comes from one process, except ``sharded-hosts-400``, which
runs two spawn workers (one per shard).
"""

from __future__ import annotations

#: Not used while the benchmark was tuned (seeds 0-11 were).  A claimed
#: gain must also hold at this seed.
HELD_OUT_SEED = 7919

#: Profiling slots (per shard) for the workloads with hundreds of
#: lanes.  One signature collection holds a slot for 30 simulated
#: seconds, so 8 slots drain an hourly wave of up to ~960 lanes; fewer
#: slots would leave a backlog that grows for the whole run.
WAVE_SLOTS = 8


def _dedicated_1k(seed: int) -> dict:
    return dict(
        n_lanes=1000,
        hours=24.0,
        step_seconds=300.0,
        profiling_slots=WAVE_SLOTS,
        mix="scaleout",
        seed=seed,
    )


def _market_16(seed: int) -> dict:
    return dict(
        n_lanes=16,
        hours=96.0,
        step_seconds=60.0,
        profiling_slots=1,
        mix="mixed",
        queue_policy="priority",
        queue_high_watermark=6,
        queue_low_watermark=2,
        resignature_every_seconds=600.0,
        faults="profiler@301+30,profiler@3001+20,retries=2,backoff=900",
        seed=seed,
    )


def _hosts_churn_400(seed: int) -> dict:
    from repro.sim.placement import MigrationPolicy

    return dict(
        n_lanes=400,
        hours=24.0,
        step_seconds=300.0,
        profiling_slots=WAVE_SLOTS,
        mix="mixed",
        demand_factors=(0.7, 1.0, 1.3),
        n_hosts=80,
        host_capacity_units=26.0,
        placement="first_fit_decreasing",
        placement_demand="forecast",
        migration=MigrationPolicy(
            mode="consolidate", rebalance_every=6, drain_headroom=0.85
        ),
        faults="host:7@96+48,host:41@180+60",
        seed=seed,
    )


def _sharded_hosts_400(seed: int) -> dict:
    return dict(
        n_lanes=400,
        hours=24.0,
        step_seconds=300.0,
        profiling_slots=WAVE_SLOTS // 2,
        mix="scaleout",
        n_hosts=80,
        host_capacity_units=12.0,
        placement="first_fit_decreasing",
        shards=2,
        workers=2,
        seed=seed,
    )


#: name -> (why it exists, seed -> study kwargs)
WORKLOADS = {
    "dedicated-1k": (
        "1000 scale-out lanes on dedicated hardware: per-lane Python "
        "polls dominate; hosts, placement and the exchange are bypassed",
        _dedicated_1k,
    ),
    "market-16": (
        "16 mixed lanes, 5760 steps, 1 slot, priority queue with outages: "
        "per-step fixed cost and queue admission dominate",
        _market_16,
    ),
    "hosts-churn-400": (
        "400 mixed lanes on 80 hosts: FFD forecast placement, "
        "consolidation, two host deaths, escalations, two schema groups",
        _hosts_churn_400,
    ),
    "sharded-hosts-400": (
        "400 lanes on 80 hosts in 2 spawn-worker shards exchanging demand "
        "every step: the only workload that measures exchange and merge",
        _sharded_hosts_400,
    ),
}


def study_kwargs(name: str, seed: int, *, inline_shards: bool = False) -> dict:
    """The study arguments of workload ``name`` at ``seed``.

    ``inline_shards`` runs a sharded workload's shards as threads of
    the calling process (``workers=0``), so wrappers installed in that
    process see every shard.  The simulation is bit-identical either
    way.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; use one of {list(WORKLOADS)}")
    kwargs = WORKLOADS[name][1](seed)
    if inline_shards and kwargs.get("shards", 1) > 1:
        kwargs["workers"] = 0
    return kwargs


def oracle_kwargs(seed: int) -> dict:
    """The scalar-oracle slice: the first 40 lanes x 6 h of ``dedicated-1k``."""
    return dict(_dedicated_1k(seed), n_lanes=40, hours=6.0)
