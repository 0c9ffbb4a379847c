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
* a controller offering only part of the batch protocol stays on the
  scalar ``on_step`` path and matches a scalar run of the same fleet.
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.core.manager as manager_module
import repro.experiments.multiplexing_study as study_module
from repro.core.manager import DejaVuConfig, DejaVuManager
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.experiments.setup import build_scaleout_setup
from repro.sim.clock import HOUR
from repro.sim.engine import StepContext
from repro.sim.fleet import FleetEngine, FleetLane, ProfilingQueue
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

    def test_awake_while_a_deployment_is_pending(self):
        setup = trained_setup()
        manager = setup.manager
        queue = ProfilingQueue(slots=1, service_seconds=10.0)
        manager.attach_profiling_queue(queue)
        queue.request(0.0)  # the signature has to wait for the slot
        manager.on_step(step(setup, 0.0))
        assert manager.pending_deployment is not None
        assert manager.batch_wake_at() == -math.inf
        manager.poll_pending_deployment(20.0)
        assert manager.pending_deployment is None
        assert manager.batch_wake_at() == manager.config.check_interval_seconds

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
