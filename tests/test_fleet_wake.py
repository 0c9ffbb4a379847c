"""The batched engine's array state cannot be observed.

:class:`~repro.sim.fleet.FleetEngine` skips work whose answer cannot
have changed: the wave visits a lane only once its manager's
``batch_wake_at`` has come, hour-keyed lanes (``LoadTrace.workload_at``)
read their trace once per hour, and provider capacities are re-read only
after an allocation change or during a warm-up.  These tests pin that
none of it is visible:

* a tiny fleet that reaches every wake transition — priority-queue
  shedding and eviction, routine re-signatures, profiler outages with
  retries, backoff and degraded fallback, auto-relearn staging, host
  faults under ``+consolidate`` migration — gives bit-identical results
  when every lane is forced awake and re-read every step (single
  process and two thread shards).  This is also the only pin on the
  batched path's behaviour on a *contended* queue, where scalar and
  batched mode are documented to differ;
* the hour cache still fails loudly past the end of a trace, and a
  plain callable ``workload_fn`` is still called once per step;
* a queue-delayed lane sleeps until its deployment is due, and the
  queue wakes it when it revises, evicts or revokes the grant — in the
  same wave when the lane comes after the one that moved it;
* the scale-out observer's one-penalty-per-resize-time matches every
  lane's own ``repartition_penalty_ms`` bit for bit;
* a controller offering only part of the batch protocol stays on the
  scalar ``on_step`` path and matches a scalar run of the same fleet;
* exact poll and slot-recount counts on a fixed 40-lane fleet.
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.core.manager as manager_module
import repro.experiments.multiplexing_study as study_module
from repro.core.manager import DejaVuConfig, DejaVuManager
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.experiments.setup import (
    build_scaleout_setup,
    fleet_observer_scaleout,
)
from repro.services.cassandra import CassandraService
from repro.sim.clock import HOUR
from repro.sim.engine import StepContext
from repro.sim.fleet import (
    PRIORITY_ADAPTATION,
    PRIORITY_ESCALATION,
    FleetEngine,
    FleetLane,
    ProfilingQueue,
)
from repro.sim.placement import MigrationPolicy
from repro.workloads.traces import TRACE_HOURS, LoadTrace
from tests.test_fleet_equivalence import STEP, build_mixed_fleet

# ----------------------------------------------------------------------
# The manager's wake time
# ----------------------------------------------------------------------


def trained_setup(**config):
    setup = build_scaleout_setup(
        seed=0, config=DejaVuConfig(**config) if config else None
    )
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


def step(setup, t: float) -> StepContext:
    return StepContext(
        t=t,
        workload=setup.trace.workload_at(t),
        hour=int(t // HOUR),
        day=int(t // 86400),
    )


class TestBatchWakeAt:
    def test_next_periodic_check(self):
        setup = trained_setup()
        manager = setup.manager
        assert manager.batch_wake_at() == 0.0
        manager.on_step(step(setup, 0.0))
        assert manager.batch_wake_at() == manager.config.check_interval_seconds

    def test_routine_resignature_when_earlier(self):
        setup = trained_setup(resignature_every_seconds=600.0)
        manager = setup.manager
        manager.attach_profiling_queue(ProfilingQueue(slots=4))
        manager.on_step(step(setup, 0.0))
        assert manager.batch_wake_at() == 600.0

    def test_asleep_until_a_pending_deployment_is_due(self):
        setup = trained_setup()
        manager = setup.manager
        queue = ProfilingQueue(slots=1, service_seconds=10.0)
        manager.attach_profiling_queue(queue)
        queue.request(0.0)  # the signature has to wait for the slot
        manager.on_step(step(setup, 0.0))
        pending = manager.pending_deployment
        assert pending is not None
        assert manager.batch_wake_at() == pending.apply_at == 10.0
        manager.poll_pending_deployment(9.0)
        assert manager.pending_deployment is pending
        manager.poll_pending_deployment(10.0)
        assert manager.pending_deployment is None
        assert setup.provider.last_change_at == 10.0
        assert manager.batch_wake_at() == manager.config.check_interval_seconds

    def test_revised_grant_is_due_at_its_new_start(self):
        setup = trained_setup()
        manager = setup.manager
        queue = ProfilingQueue(
            slots=1, service_seconds=10.0, queue_policy="priority"
        )
        manager.attach_profiling_queue(queue)
        moved = []
        queue.listener = moved.append
        queue.request(0.0)
        manager.on_step(step(setup, 0.0))
        grant = manager.pending_deployment.grant
        assert manager.batch_wake_at() == 10.0
        queue.request(1.0, priority=PRIORITY_ESCALATION)  # jumps ahead
        assert moved == [grant] and grant.revised
        assert manager.batch_wake_at() == grant.start_at == 20.0

    def test_evicted_grant_is_due_at_once(self):
        setup = trained_setup()
        manager = setup.manager
        queue = ProfilingQueue(
            slots=1, service_seconds=10.0, max_pending=1,
            queue_policy="priority",
        )
        manager.attach_profiling_queue(queue)
        moved = []
        queue.listener = moved.append
        queue.request(0.0)
        manager.on_step(step(setup, 0.0))
        grant = manager.pending_deployment.grant
        queue.request(1.0, priority=PRIORITY_ESCALATION)  # evicts it
        assert moved == [grant] and grant.outcome == "evicted"
        assert manager.batch_wake_at() == -math.inf
        manager.poll_pending_deployment(1.0)
        assert manager.pending_deployment is None
        assert manager.evicted_adaptations == 1

    def test_awake_while_a_relearned_model_is_staged(self):
        setup = trained_setup()
        manager = setup.manager
        queue = ProfilingQueue(slots=1, service_seconds=10.0)
        manager.attach_profiling_queue(queue)
        queue.request(0.0)
        manager.relearn(now=0.0, workloads=setup.trace.hourly_workloads(day=1))
        assert manager.relearn_pending
        assert manager.batch_wake_at() == -math.inf
        manager.poll_pending_deployment(manager.model_available_at)
        assert not manager.relearn_pending
        assert manager.batch_wake_at() == 0.0

    def test_is_side_effect_free(self):
        setup = trained_setup(resignature_every_seconds=600.0)
        manager = setup.manager
        queue = ProfilingQueue(slots=1)
        manager.attach_profiling_queue(queue)
        for _ in range(3):
            manager.batch_wake_at()
        assert queue.total_requests == 0
        assert manager.batch_wake_at() == 0.0


# ----------------------------------------------------------------------
# The queue wakes a lane whose grant moves
# ----------------------------------------------------------------------


class Bidder:
    """A batch-protocol controller that only bids on the queue, from
    its per-step poll: ``bids`` maps a step time to a priority."""

    supports_batched_adapt = True
    pending_deployment = None

    def __init__(self, bids: dict[float, int]) -> None:
        self.bids = bids
        self.queue = None

    def attach_profiling_queue(self, queue) -> None:
        self.queue = queue

    def adaptation_due(self, t: float) -> bool:
        return False

    def poll_pending_deployment(self, t: float) -> None:
        if t in self.bids:
            self.queue.request(t, priority=self.bids[t])

    def batch_wake_at(self) -> float:
        return -math.inf

    def _never(self, *args):
        raise AssertionError("a bidder is never due")

    on_step = begin_batched_adapt = signature_row = _never
    batch_group_key = batch_classifier = complete_batched_adapt = _never


def run_bidder_fleet(
    queue: ProfilingQueue,
    bids: dict[float, int],
    hours: float,
    manager_first: bool = False,
    **config,
):
    """A bidder lane and a DejaVu lane at 60 s steps.  At t=0 the
    bidder takes the one slot for ``queue.service_seconds``, so the
    manager's first signature waits and its deployment is pending.
    Returns the manager and the times the engine polled it."""
    setup = trained_setup(**config)
    manager = setup.manager
    polls = []
    poll = manager.poll_pending_deployment

    def recording_poll(t):
        polls.append(t)
        poll(t)

    manager.poll_pending_deployment = recording_poll
    lanes = [
        FleetLane(setup.trace.workload_at, Bidder(bids), observe_volume, "bidder"),
        FleetLane(setup.trace.workload_at, manager, observe_volume, "dejavu"),
    ]
    if manager_first:
        lanes.reverse()
    FleetEngine(lanes, step_seconds=60.0, profiling_queue=queue).run(
        hours * HOUR
    )
    return setup, polls


class TestQueueWakesLanes:
    def test_fifo_deployment_lands_at_apply_at(self):
        queue = ProfilingQueue(slots=1, service_seconds=600.0)
        setup, polls = run_bidder_fleet(
            queue, {0.0: PRIORITY_ADAPTATION}, hours=0.25
        )
        # Asleep from the t=0 adaptation until the slot frees at 600.
        assert polls == [600.0]
        assert setup.provider.last_change_at == 600.0
        assert setup.manager.pending_deployment is None

    @pytest.mark.parametrize(
        "manager_first, woken_at",
        [(False, 120.0), (True, 180.0)],
        ids=["same-wave", "next-step"],
    )
    def test_revision_wakes_the_lane(self, manager_first, woken_at):
        queue = ProfilingQueue(
            slots=1, service_seconds=600.0, queue_policy="priority"
        )
        setup, polls = run_bidder_fleet(
            queue,
            {0.0: PRIORITY_ADAPTATION, 120.0: PRIORITY_ESCALATION},
            hours=0.5,
            manager_first=manager_first,
        )
        # The escalation pushes the signature from 600 to 1200: the
        # lane wakes once (a no-op poll), then sleeps to the new start.
        assert polls == [woken_at, 1200.0]
        assert setup.provider.last_change_at == 1200.0

    @pytest.mark.parametrize(
        "manager_first, woken_at",
        [(False, 120.0), (True, 180.0)],
        ids=["same-wave", "next-step"],
    )
    def test_eviction_wakes_the_lane(self, manager_first, woken_at):
        queue = ProfilingQueue(
            slots=1, service_seconds=600.0, max_pending=1,
            queue_policy="priority",
        )
        setup, polls = run_bidder_fleet(
            queue,
            {0.0: PRIORITY_ADAPTATION, 120.0: PRIORITY_ESCALATION},
            hours=0.25,
            manager_first=manager_first,
        )
        # A lower-index lane's bid evicts the sleeping lane's grant and
        # the same wave clears its deployment, as polling every lane
        # would; a higher-index bidder's eviction is seen a step later.
        assert polls == [woken_at]
        assert setup.manager.pending_deployment is None
        assert setup.manager.evicted_adaptations == 1

    def test_revocation_wakes_the_lane_then_it_sleeps_until_retry_at(self):
        queue = ProfilingQueue(slots=1, service_seconds=600.0)
        queue.attach_faults([(300.0, 360.0, None)])
        setup, polls = run_bidder_fleet(
            queue,
            {0.0: PRIORITY_ADAPTATION},
            hours=0.25,
            profiling_retry_limit=1,
            profiling_retry_backoff_seconds=120.0,
        )
        # Revoked at 300 and noticed in the same step (retry_at 420);
        # the retry starts at once, so the deployment lands next step.
        assert polls == [300.0, 420.0, 480.0]
        assert setup.manager.profiling_retries == 1
        assert setup.provider.last_change_at == 420.0


# ----------------------------------------------------------------------
# Sleeping lanes vs. every lane awake
# ----------------------------------------------------------------------

#: 12 consecutive one-step profiler outages at 30 s steps (one
#: signature's service time): each revokes the signature then in
#: service, so retries are themselves revoked and exhaust into the
#: degraded fallback.
OUTAGES = ",".join(f"profiler@{step}+1" for step in range(121, 133))

WAKE_FLEET = dict(
    n_lanes=6,
    mix="mixed",
    hours=4.0,
    step_seconds=30.0,
    profiling_slots=1,
    max_pending=4,
    queue_policy="priority",
    queue_high_watermark=3,
    queue_low_watermark=1,
    resignature_every_seconds=600.0,
    n_hosts=3,
    host_capacity_units=8.0,
    placement="first_fit_decreasing",
    migration=MigrationPolicy(
        mode="consolidate", rebalance_every=2, drain_headroom=0.9
    ),
    faults=f"{OUTAGES},host:1@200+200,retries=1,backoff=30",
    seed=0,
)


@dataclasses.dataclass(frozen=True)
class RelearningConfig(DejaVuConfig):
    """Every miss re-learns, so re-learned models get staged behind
    their sweeps on the one-slot queue."""

    auto_relearn: bool = True
    relearn_after_misses: int = 1
    min_relearn_history: int = 2
    certainty_threshold: float = 0.9


def run_wake_fleet(monkeypatch, shards: int, awake: bool):
    """One run of the wake fleet; returns the study and the number of
    re-learned models staged behind their sweeps."""
    staged = []
    stage = DejaVuManager._stage_relearn

    def counting_stage(self, *args, **kwargs):
        staged.append(self)
        return stage(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(manager_module, "DejaVuConfig", RelearningConfig)
        patch.setattr(DejaVuManager, "_stage_relearn", counting_stage)
        if awake:
            # Every lane visited, every trace read, every capacity and
            # allocation re-read, on every step.
            patch.setattr(
                DejaVuManager, "batch_wake_at", lambda self: -math.inf
            )

            def plain_lane(workload_fn, **kwargs):
                return FleetLane(
                    workload_fn=lambda t: workload_fn(t), **kwargs
                )

            patch.setattr(study_module, "FleetLane", plain_lane)
            capacities = FleetEngine._lane_capacities

            def reread_all(self, t):
                self._capacity_dirty[:] = [
                    provider is not None
                    for provider in self._capacity_providers
                ]
                self._allocation_changed[:] = True
                return capacities(self, t)

            patch.setattr(FleetEngine, "_lane_capacities", reread_all)
        study = run_fleet_multiplexing_study(
            **WAKE_FLEET, shards=shards, workers=0
        )
    return study, len(staged)


@pytest.mark.parametrize("shards", [1, 2], ids=["merged-1", "sharded-2"])
def test_sleeping_lanes_cannot_be_observed(monkeypatch, shards):
    asleep, staged = run_wake_fleet(monkeypatch, shards, awake=False)
    awake, staged_awake = run_wake_fleet(monkeypatch, shards, awake=True)

    # Honesty guards: the fleet reaches every wake transition.
    assert staged > 0
    assert asleep.shed_profiles > 0
    assert asleep.revoked_profiles > 0
    assert asleep.profiling_retries > 0
    assert asleep.degraded_adaptations > 0
    assert asleep.host_failures > 0
    assert asleep.migrations > 0
    assert any(asleep.lane_events)
    if shards == 1:
        assert asleep.evicted_profiles > 0
        assert asleep.evacuations > 0

    assert staged_awake == staged
    for field in dataclasses.fields(asleep):
        if field.name in ("engine_seconds", "result"):
            continue
        assert getattr(awake, field.name) == getattr(asleep, field.name), (
            field.name
        )
    assert awake.result.schemas == asleep.result.schemas
    assert awake.result.lane_schemas == asleep.result.lane_schemas
    np.testing.assert_array_equal(
        awake.result.times, asleep.result.times, strict=True
    )
    assert awake.result.series_names() == asleep.result.series_names()
    for name in asleep.result.series_names():
        np.testing.assert_array_equal(
            awake.result.matrix(name), asleep.result.matrix(name),
            strict=True, err_msg=f"shards={shards}:{name}",
        )


# ----------------------------------------------------------------------
# Hour-keyed workloads
# ----------------------------------------------------------------------


class Idle:
    def on_step(self, ctx):
        pass


def observe_volume(ctx):
    return {"load": ctx.workload.volume}


def count_trace_reads(monkeypatch) -> list[float]:
    """Record every ``LoadTrace.workload_at`` call (installed before any
    bound method is taken, so the engine sees the wrapper)."""
    reads = []
    workload_at = LoadTrace.workload_at

    def counted(self, t):
        reads.append(t)
        return workload_at(self, t)

    monkeypatch.setattr(LoadTrace, "workload_at", counted)
    return reads


def test_trace_lanes_read_once_per_hour_and_fail_past_the_end(monkeypatch):
    reads = count_trace_reads(monkeypatch)
    trace = build_scaleout_setup(seed=0).trace
    assert trace.hours == TRACE_HOURS
    engine = FleetEngine(
        [FleetLane(trace.workload_at, Idle(), observe_volume, "trace")],
        step_seconds=1800.0,
    )
    with pytest.raises(ValueError, match="beyond the 168-hour trace"):
        engine.run((TRACE_HOURS + 1) * HOUR)
    # Hours 0..167 once each, then the first step of hour 168 still
    # asks the trace — and fails.
    assert reads == [h * HOUR for h in range(TRACE_HOURS + 1)]


def test_plain_callable_is_called_once_per_step(monkeypatch):
    reads = count_trace_reads(monkeypatch)
    trace = build_scaleout_setup(seed=0).trace
    calls = []

    def plain(t):
        calls.append(t)
        return trace.workload_at(t)

    engine = FleetEngine(
        [
            FleetLane(plain, Idle(), observe_volume, "plain"),
            FleetLane(trace.workload_at, Idle(), observe_volume, "trace"),
        ],
        step_seconds=600.0,
    )
    result = engine.run(3 * HOUR)
    assert calls == result.times.tolist()
    assert len(calls) == 18
    # Every plain call reads the trace once; the trace lane adds one
    # read per hour.
    assert len(reads) == len(calls) + 3
    np.testing.assert_array_equal(
        result.matrix("load")[:, 0], result.matrix("load")[:, 1]
    )


# ----------------------------------------------------------------------
# Resize times: one re-partitioning penalty per distinct time
# ----------------------------------------------------------------------


def test_repartition_penalty_per_distinct_resize_time():
    setups = [build_scaleout_setup(seed=i) for i in range(5)]
    # Two lanes share a resize time, one is never resized, one resizes
    # after the observed step.
    for setup, resized in zip(setups, [100.0, 100.0, 250.0, None, 900.0]):
        if resized is not None:
            setup.service.notify_allocation_change(resized)
    observer = fleet_observer_scaleout(setups)
    observer._allocations_changed(np.arange(len(setups)))
    rho = np.full(len(setups), 0.5)
    base = observer._model.latency_rows(rho)
    cap = observer._model.max_latency_ms

    def per_lane(t):
        return np.array(
            [
                min(b + setup.service.repartition_penalty_ms(t), cap)
                for b, setup in zip(base, setups)
            ]
        )

    expected = per_lane(700.0)
    assert expected[3] == base[3] and expected[4] == base[4]
    np.testing.assert_array_equal(
        observer._latency_rows(700.0, rho, None), expected, strict=True
    )
    served = np.array([1, 3, 4])
    np.testing.assert_array_equal(
        observer._latency_rows(700.0, rho[served], served),
        expected[served],
        strict=True,
    )
    # The distinct times are reused until a lane resizes again.
    np.testing.assert_array_equal(
        observer._latency_rows(760.0, rho, None), per_lane(760.0), strict=True
    )
    setups[3].service.notify_allocation_change(760.0)
    observer._allocations_changed(np.array([3]))
    np.testing.assert_array_equal(
        observer._latency_rows(800.0, rho, None), per_lane(800.0), strict=True
    )


def test_scaleout_family_must_share_one_transient():
    setups = [
        build_scaleout_setup(seed=0),
        build_scaleout_setup(
            seed=1, service=CassandraService(repartition_tau_seconds=60.0)
        ),
    ]
    with pytest.raises(ValueError, match="one re-partitioning transient"):
        fleet_observer_scaleout(setups)


# ----------------------------------------------------------------------
# Partial batch protocol: the scalar path
# ----------------------------------------------------------------------


class HidingController:
    """A DejaVu manager seen through a proxy that lacks one method of
    the batch protocol; counts its ``on_step`` calls."""

    def __init__(self, manager: DejaVuManager, hidden: str) -> None:
        self._manager = manager
        self._hidden = hidden
        self.on_steps = 0

    def on_step(self, ctx: StepContext) -> None:
        self.on_steps += 1
        self._manager.on_step(ctx)

    def __getattr__(self, name: str):
        if name == self._hidden:
            raise AttributeError(name)
        return getattr(self._manager, name)


@pytest.mark.parametrize(
    "hidden", ["batch_wake_at", "begin_batched_adapt"]
)
def test_partial_protocol_stays_on_the_scalar_path(hidden):
    duration = 6 * HOUR
    scalar_lanes, queue, managers, _providers = build_mixed_fleet(1)
    scalar = FleetEngine(
        scalar_lanes, step_seconds=STEP, profiling_queue=queue, batched=False
    ).run(duration)
    scalar_events = [list(m.adaptation_events) for m in managers]

    lanes, queue, managers, _providers = build_mixed_fleet(1)
    proxies = []
    for position, lane in enumerate(lanes):
        if isinstance(lane.controller, DejaVuManager):
            proxy = HidingController(lane.controller, hidden)
            proxies.append(proxy)
            lanes[position] = dataclasses.replace(lane, controller=proxy)
    assert len(proxies) == len(managers)
    partial = FleetEngine(
        lanes, step_seconds=STEP, profiling_queue=queue, batched=True
    ).run(duration)

    n_steps = partial.n_steps
    assert n_steps == duration / STEP
    assert [proxy.on_steps for proxy in proxies] == [n_steps] * len(proxies)
    assert [list(m.adaptation_events) for m in managers] == scalar_events
    assert any(scalar_events)
    assert partial.series_names() == scalar.series_names()
    for name in scalar.series_names():
        np.testing.assert_array_equal(
            partial.matrix(name), scalar.matrix(name),
            strict=True, err_msg=name,
        )


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------


def test_work_counts(monkeypatch):
    """Exact call counts on a fixed fleet: a timing-free pin that fails
    if queue-delayed lanes go back to being polled every step, or FIFO
    admission back to recounting every slot per grant.

    The fleet is the benchmark's scalar-oracle slice (40 scale-out
    lanes, 6 h, 300 s steps) on one profiling slot, so a wave's
    signatures queue for more than one step.  Before lanes slept on
    pending deployments the counts were 288 polls and 240 slot
    recounts.
    """
    counts = {}

    def count(cls, name):
        method = getattr(cls, name)
        counts[name] = 0

        def counting(self, t):
            counts[name] += 1
            return method(self, t)

        monkeypatch.setattr(cls, name, counting)

    count(DejaVuManager, "poll_pending_deployment")
    count(ProfilingQueue, "_outstanding_per_slot")
    study = run_fleet_multiplexing_study(
        n_lanes=40,
        hours=6.0,
        step_seconds=300.0,
        profiling_slots=1,
        mix="scaleout",
        seed=0,
    )
    # Six hourly waves of 40 signatures; all but the first of each wave
    # wait for the slot, and each of those deployments lands with one
    # poll.  The slots are recounted once per wave.
    assert study.accepted_profiles == 240
    assert counts == {
        "poll_pending_deployment": 234,
        "_outstanding_per_slot": 6,
    }
