"""Multiplexing studies: registers (Sec. 3.3) and fleets (Sec. 5).

Two senses of *multiplexing* appear in the paper, and this module
quantifies both:

* **Register multiplexing** (Sec. 3.3): "It is possible to monitor a
  large number of events using time-division multiplexing, but this
  causes a loss in accuracy [16]."  :func:`run_multiplexing_study`
  compares signature-reading noise on dedicated registers against a
  fully multiplexed 60-event sweep.
* **System multiplexing** (Sec. 5, "cost of the DejaVu system"): one
  profiling environment and one signature repository are amortized
  across many co-hosted services.  :func:`run_fleet_multiplexing_study`
  reproduces that argument at fleet scale: N service lanes share a
  repository and contend for a bounded profiling queue, and the study
  reports the amortized overhead alongside hit rate and queueing cost.

The fleet study is **heterogeneous and host-coupled**: ``mix`` selects
all-Cassandra scale-out lanes, all-SPECweb scale-up lanes, or an
alternation of the two (each family pays its own learning day and
shares its own repository, but every lane rides the same profiling
queue and clock — the paper's "different services, one DejaVu" shape),
and ``n_hosts`` places the lanes onto shared simulated hosts so
co-located services steal capacity from each other and DejaVu's
interference-band escalation fires across lanes (Sec. 3.6 at fleet
scale) instead of only from scripted per-lane injection.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, fields, replace
from numbers import Real

import numpy as np

from repro.core.repository import AllocationRepository
from repro.services.slo import LatencySLO
from repro.sim.clock import HOUR
from repro.sim.faults import FaultSchedule, parse_faults
from repro.sim.fleet import FleetEngine, FleetLane, FleetResult, ProfilingQueue
from repro.sim.exchange import DemandExchange, ExchangeSpec, ShardHostView
from repro.sim.forecast import PLACEMENT_DEMANDS, placement_estimate
from repro.sim.hosts import HostMap, allocation_demand
from repro.sim.placement import (
    MigrationPolicy,
    PlacementPolicy,
    build_host_map,
    make_hosts,
    make_policy,
    resolve_placement,
)
from repro.telemetry.counters import HARDWARE_REGISTERS, HPCSampler
from repro.telemetry.events import TABLE1_EVENTS
from repro.telemetry.streams import TelemetryStreams
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload

#: Lane compositions the fleet study understands.
FLEET_MIXES = ("scaleout", "scaleup", "mixed")

#: What a fleet on shared hosts packs with when ``placement`` /
#: ``placement_demand`` are not given.
DEFAULT_PLACEMENT = "round_robin"
DEFAULT_PLACEMENT_DEMAND = "learning-peak"


@dataclass(frozen=True)
class MultiplexingStudy:
    """Reading-noise comparison for one event set."""

    events: tuple[str, ...]
    dedicated_cv: float
    """Mean coefficient of variation per event, dedicated registers."""

    multiplexed_cv: float
    """Same metric when the events ride a 60-event multiplex sweep."""

    @property
    def noise_inflation(self) -> float:
        """How much noisier multiplexed readings are (>1 expected)."""
        if self.dedicated_cv == 0.0:
            return float("inf")
        return self.multiplexed_cv / self.dedicated_cv


def run_multiplexing_study(
    volume: float = 300.0,
    trials: int = 40,
    seed: int = 0,
) -> MultiplexingStudy:
    """Measure reading noise with and without register multiplexing."""
    if trials < 2:
        raise ValueError(f"need at least two trials: {trials}")
    # Four positive-rate Table-1 events (busq_empty idles *down* with
    # load and can clip at zero on write-heavy mixes, which would make a
    # coefficient of variation meaningless).
    events = tuple(
        name for name in TABLE1_EVENTS if name != "busq_empty"
    )[:HARDWARE_REGISTERS]
    workload = Workload(volume=volume, mix=CASSANDRA_UPDATE_HEAVY)

    dedicated = HPCSampler(events=list(events), seed=seed)
    assert not dedicated.multiplexed
    multiplexed = HPCSampler(seed=seed)  # full 60-event catalogue
    assert multiplexed.multiplexed

    def cv(sampler: HPCSampler) -> float:
        readings = {name: [] for name in events}
        for _ in range(trials):
            sample = sampler.sample(workload, 10.0)
            for name in events:
                readings[name].append(sample[name].rate)
        cvs = []
        for name in events:
            values = np.asarray(readings[name])
            cvs.append(values.std() / values.mean())
        return float(np.mean(cvs))

    return MultiplexingStudy(
        events=events,
        dedicated_cv=cv(dedicated),
        multiplexed_cv=cv(multiplexed),
    )


# ----------------------------------------------------------------------
# Fleet-scale multiplexing (Sec. 5)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetMultiplexingStudy:
    """One profiling environment and repository shared by ``n_lanes`` services."""

    n_lanes: int
    n_steps: int
    step_seconds: float
    mix: str
    """Lane composition: ``scaleout``, ``scaleup`` or ``mixed``."""

    batched: bool
    """Whether the engine ran the batched control plane (the default)
    or the scalar per-lane step path (the A/B baseline)."""

    engine_seconds: float
    """Wall-clock seconds spent inside ``FleetEngine.run`` — the
    denominator of the ``lane_steps_per_second`` headline, excluding
    one-off setup/learning cost that is identical under both paths."""

    learning_runs: int
    """Learning phases paid by the whole fleet (one per service family
    when amortized)."""

    tuning_invocations: int
    """Tuner runs paid during learning — independent of fleet size."""

    hit_rate: float
    """Shared-repository hit rate across every lane's lookups (combined
    over the per-family repositories in a mixed fleet)."""

    mean_queue_wait_seconds: float
    max_queue_wait_seconds: float
    max_queue_depth: int
    rejected_profiles: int
    profiler_utilization: float
    """Fraction of shared profiling slot-time spent collecting."""

    fleet_hourly_cost: float
    """Mean fleet-wide production spend per hour (all lanes summed)."""

    amortized_profiling_fraction: float
    """Profiling-environment cost as a fraction of fleet production
    cost; the paper's multiplexing claim is that this shrinks as the
    fleet grows."""

    violation_fraction: float
    """Fraction of (step, lane) samples violating the lane's own SLO
    (latency bound for scale-out lanes, QoS floor for scale-up)."""

    n_hosts: int
    """Shared hosts the lanes were placed on (0 = dedicated hardware)."""

    host_overload_fraction: float
    """Fraction of (step, host) samples where co-located demand
    exceeded host capacity."""

    mean_host_theft: float
    """Mean capacity fraction stolen from a placed lane per step."""

    peak_host_theft: float
    interference_escalations: int
    """Band > 0 repository entries tuned online — each one is a lane
    that blamed co-located tenants for an SLO gap and escalated."""

    deferred_adaptations: int
    """Adaptations pushed to a later step because the bounded profiling
    queue rejected the signature collection (queue feedback, not just
    accounting)."""

    result: FleetResult

    shards: int = 1
    """How many lane-range shards the sweep was partitioned into."""

    workers: int = 1
    """Worker processes that executed the shards (1 = in-process)."""

    lane_events: tuple = ()
    """Per-lane adaptation logs, one tuple of
    ``(t, duration_seconds, cache_hit, workload_class, certainty,
    allocation_count, instance_type)`` records per lane in global lane
    order — comparable across single-process and sharded runs."""

    placement: str = DEFAULT_PLACEMENT
    """Placement policy that assigned lanes to shared hosts
    (:mod:`repro.sim.placement`); meaningful only when ``n_hosts > 0``."""

    migrations: int = 0
    """Lane migrations the host map's :class:`~repro.sim.placement.MigrationPolicy`
    performed (each charged a blackout window to the migrated lane)."""

    demand_factors: tuple[float, ...] = ()
    """Per-lane peak-demand multipliers (cycled over the fleet) that
    made the lanes heterogeneous in size; empty = uniform demand."""

    queue_policy: str = "fifo"
    """Admission policy of the shared profiling queue: ``fifo`` (the
    original bounded queue) or ``priority`` (the admission market —
    escalations outbid routine traffic, watermarks shed, queued work is
    evictable)."""

    accepted_profiles: int = 0
    """Profiling requests the shared queue accepted (the denominator
    behind ``mean_queue_wait_seconds``)."""

    evicted_profiles: int = 0
    """Queued-but-unstarted requests bumped by a higher-priority bidder
    (priority policy only)."""

    shed_profiles: int = 0
    """Low-priority requests shed at the high watermark before the hard
    ``max_pending`` cliff (priority policy only)."""

    exchange_every: int = 1
    """Steps between cross-shard demand exchanges on a host-coupled
    sharded sweep (1 = every step, the bit-identical default)."""

    host_failures: int = 0
    """Host-death fault events the run committed (``faults=``)."""

    host_recoveries: int = 0
    """Host-recovery fault events the run committed."""

    evacuations: int = 0
    """Tenants emergency-replaced off a dying host onto survivors (each
    paid the migration blackout window — the Sec. 3 VM-cloning cost)."""

    unplaced_evacuations: int = 0
    """Tenants of a dead host no survivor could absorb; they ran
    degraded at the schedule's residual rate until recovery."""

    revoked_profiles: int = 0
    """In-flight profiling grants destroyed by profiler outages."""

    profiling_retries: int = 0
    """Revocation retries the managers charged back to the queue
    (bounded retry-with-backoff)."""

    revoked_adaptations: int = 0
    """Adaptations abandoned after a revoked signature exhausted its
    retries with ``recovery=off`` (the no-recovery baseline)."""

    degraded_adaptations: int = 0
    """Adaptations that exhausted retries and fell back to deploying
    the last-known-good repository allocation (degraded mode)."""

    placement_demand: str = DEFAULT_PLACEMENT_DEMAND
    """Placement-time demand estimator: ``learning-peak`` (realized
    day-0 maximum) or ``forecast`` (the predicted-peak window from
    :mod:`repro.sim.forecast`)."""

    host_hours_on: float = 0.0
    """Host-hours any shared host spent powered on (>= 1 tenant and not
    felled by a fault) — the energy axis of the placement frontier.  A
    consolidation policy that drains cold hosts shrinks this without
    touching the fleet's dollar cost."""

    mean_hosts_on: float = 0.0
    """Mean powered-on host count per step (``host_hours_on`` divided
    by the run's wall duration in hours)."""

    @property
    def lane_steps_per_second(self) -> float:
        """Engine throughput: lane-steps per wall-clock second.

        For sharded sweeps the denominator is the sweep wall-clock
        (dispatch to merge), so the figure reflects real end-to-end
        throughput including per-worker setup.
        """
        if self.engine_seconds <= 0:
            return float("inf")
        return self.n_lanes * self.n_steps / self.engine_seconds


def lane_kinds(n_lanes: int, mix: str) -> tuple[str, ...]:
    """The service family of each lane under a fleet composition.

    ``mixed`` alternates scale-out (even lanes) and scale-up (odd
    lanes).  Under the round-robin host placement an *odd* host count
    co-locates the two families with each other; an even count packs
    each host with one family (both are interesting regimes).
    """
    if mix not in FLEET_MIXES:
        raise ValueError(f"unknown mix {mix!r}; use one of {FLEET_MIXES}")
    if mix == "mixed":
        return tuple(
            "scaleout" if lane % 2 == 0 else "scaleup"
            for lane in range(n_lanes)
        )
    return (mix,) * n_lanes


def lane_demand_factor(
    lane: int, factors: tuple[float, ...] | None
) -> float:
    """The peak-demand multiplier of one lane (factors cycle by index)."""
    if not factors:
        return 1.0
    return factors[lane % len(factors)]


def lane_families(
    n_lanes: int, mix: str, factors: tuple[float, ...] | None
) -> tuple[str, ...]:
    """Model-sharing family of each lane.

    Lanes share one trained model (leader + ``adopt_trained_state``
    adoptees) only when both their service kind *and* their demand
    factor agree: a classifier learned on a half-size trace would
    misclassify a double-size lane's signatures, so differently-sized
    lanes each pay their own family's learning day.
    """
    kinds = lane_kinds(n_lanes, mix)
    if not factors:
        return kinds
    return tuple(
        f"{kind}@x{lane_demand_factor(lane, factors):g}"
        for lane, kind in enumerate(kinds)
    )


def _lane_peak_demand(
    lane: int, kind: str, trace_name: str, factors: tuple[float, ...] | None
) -> float:
    """One lane's trace peak: its family's default scaled by its factor.

    A 1.0 factor multiplies exactly, so uniform fleets keep the
    builders' default peaks bit for bit.
    """
    from repro.experiments.setup import default_peak_demand

    return default_peak_demand(kind, trace_name) * lane_demand_factor(
        lane, factors
    )


def _placement_estimates(
    n_lanes: int,
    mix: str,
    factors: tuple[float, ...] | None,
    trace_name: str,
    seed: int,
    lane_seed_stride: int,
    placement_demand: str = DEFAULT_PLACEMENT_DEMAND,
) -> list[float]:
    """Every lane's placement-time demand estimate, traces only.

    Reproduces exactly the estimate :func:`_run_fleet_slice` computes
    from a built setup — via the shared
    :func:`repro.sim.forecast.placement_estimate` resolver, under the
    same ``placement_demand`` mode — but through
    :func:`~repro.experiments.setup.make_trace` alone (no managers, no
    learning), so the parent of a sharded sweep can resolve the global
    placement in milliseconds before dispatching workers.
    """
    from repro.experiments.setup import make_trace
    from repro.workloads.request_mix import SPECWEB_SUPPORT

    estimates = []
    for lane, kind in enumerate(lane_kinds(n_lanes, mix)):
        trace = make_trace(
            trace_name,
            CASSANDRA_UPDATE_HEAVY if kind == "scaleout" else SPECWEB_SUPPORT,
            _lane_peak_demand(lane, kind, trace_name, factors),
            seed=seed + lane * lane_seed_stride,
        )
        estimates.append(placement_estimate(trace, placement_demand))
    return estimates


#: Knobs that only mean something on shared hosts, and what each does
#: there.
_HOST_ONLY_KNOBS = (
    ("placement", "places lanes onto shared hosts"),
    (
        "placement_demand",
        "picks the estimate lanes are packed onto shared hosts with",
    ),
    ("migration", "re-packs shared hosts"),
)

#: Spec fields that must hold numbers; those defaulting to ``None`` may
#: also stay ``None``.
_NUMERIC_FIELDS = (
    "n_lanes", "hours", "step_seconds", "profiling_slots", "max_pending",
    "queue_high_watermark", "queue_low_watermark",
    "resignature_every_seconds", "lane_seed_stride", "seed", "n_hosts",
    "host_capacity_units", "shards", "workers", "exchange_every",
)

#: :class:`ProfilingQueue` argument names the spec spells differently.
_QUEUE_FIELDS = {
    "slots": "profiling_slots",
    "high_watermark": "queue_high_watermark",
    "low_watermark": "queue_low_watermark",
}


@dataclass(frozen=True)
class FleetStudySpec:
    """One validated fleet study: every rule its knobs obey, in one place.

    The fields are :func:`run_fleet_multiplexing_study`'s parameters,
    with the same defaults, plus the ``host_placement`` the study
    resolves.  ``__post_init__`` checks every rule before any lane is
    built, and each :class:`ValueError` it raises starts with the name
    of the offending field.  The study, ``repro.cli fleet`` and the
    scenario loader all validate by constructing this spec.
    ``placement`` and ``placement_demand`` default to ``None`` ("not
    given"): on shared hosts they resolve to round-robin packing of the
    learning-day peak, and on dedicated hardware giving either is an
    error.  ``demand_factors`` is normalized to a tuple of floats,
    ``faults`` to a parsed :class:`~repro.sim.faults.FaultSchedule`, and
    ``workers`` to the pool size that runs the shards: by default
    ``shards`` on shared hosts and ``min(shards, cpu_count)`` otherwise,
    never more than ``shards``.

    A shard worker receives this spec plus a global lane range and
    reconstructs *exactly* the lanes the single-process study would
    have built at those global indices: per-lane trace seeds, sampler
    stream keys, and family leadership are all keyed by global lane
    index, so a lane's simulation does not depend on which process
    runs it.  Host coupling crosses shard boundaries, so for sharded
    hosts the parent resolves the *global* lane→host assignment once
    (``host_placement``) and every worker rebuilds the identical global
    :class:`~repro.sim.hosts.HostMap`, synchronizing per-step demands
    through the cross-shard exchange (:mod:`repro.sim.exchange`).
    """

    n_lanes: int = 4
    hours: float = 48.0
    step_seconds: float = 300.0
    profiling_slots: int = 1
    max_pending: int | None = None
    queue_policy: str = "fifo"
    queue_high_watermark: int | None = None
    queue_low_watermark: int | None = None
    resignature_every_seconds: float | None = None
    lane_seed_stride: int = 1
    trace_name: str = "messenger"
    seed: int = 0
    mix: str = "scaleout"
    n_hosts: int | None = None
    host_capacity_units: float = 12.0
    placement: "str | PlacementPolicy | None" = None
    migration: MigrationPolicy | None = None
    placement_demand: str | None = None
    demand_factors: tuple[float, ...] | None = None
    batched: bool = True
    shards: int = 1
    workers: int | None = None
    exchange_every: int = 1
    faults: "FaultSchedule | None" = None
    """Parsed here; the study then expands its seeded generators, so
    every shard worker replays the identical fault timeline."""
    host_placement: "tuple[int | None, ...] | None" = None

    def __post_init__(self) -> None:
        defaults = {f.name: f.default for f in fields(self)}
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is None and defaults[name] is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name}: need a number, got {value!r}")
        if self.n_lanes < 1:
            raise ValueError(
                f"n_lanes: need at least one lane, got {self.n_lanes}"
            )
        if self.hours <= 0:
            raise ValueError(
                f"hours: need a positive duration, got {self.hours}"
            )
        if self.step_seconds <= 0:
            raise ValueError(
                f"step_seconds: need a positive step, got {self.step_seconds}"
            )
        if self.n_hosts is not None and self.n_hosts < 1:
            raise ValueError(
                f"n_hosts: need at least one host, got {self.n_hosts}"
            )
        if self.mix not in FLEET_MIXES:
            raise ValueError(
                f"mix: unknown composition {self.mix!r}; "
                f"use one of {FLEET_MIXES}"
            )
        if self.placement is not None:
            try:
                make_policy(self.placement)
            except ValueError as exc:
                raise ValueError(f"placement: {exc}") from None
        if (
            self.placement_demand is not None
            and self.placement_demand not in PLACEMENT_DEMANDS
        ):
            raise ValueError(
                "placement_demand: unknown estimate "
                f"{self.placement_demand!r}; use one of {PLACEMENT_DEMANDS}"
            )
        period = self.resignature_every_seconds
        if period is not None and period <= 0:
            raise ValueError(
                "resignature_every_seconds: need a positive re-signature "
                f"period, got {period}"
            )
        try:
            ProfilingQueue(
                slots=self.profiling_slots,
                service_seconds=1.0,
                max_pending=self.max_pending,
                queue_policy=self.queue_policy,
                high_watermark=self.queue_high_watermark,
                low_watermark=self.queue_low_watermark,
            )
        except ValueError as exc:
            raise ValueError(
                re.sub(
                    r"\b(slots|high_watermark|low_watermark)\b",
                    lambda match: _QUEUE_FIELDS[match.group(1)],
                    str(exc),
                )
            ) from None
        factors = None
        if self.demand_factors:
            try:
                factors = tuple(float(f) for f in self.demand_factors)
            except (TypeError, ValueError):
                factors = ()
            if not factors or any(f <= 0 for f in factors):
                raise ValueError(
                    "demand_factors: demand factors must be positive "
                    f"numbers, got {self.demand_factors!r}"
                )
        object.__setattr__(self, "demand_factors", factors)
        try:
            faults = parse_faults(self.faults)
        except ValueError as exc:
            raise ValueError(f"faults: invalid schedule: {exc}") from None
        object.__setattr__(self, "faults", faults)
        if self.n_hosts is None:
            for name, role in _HOST_ONLY_KNOBS:
                if getattr(self, name) is not None:
                    raise ValueError(f"{name}: {role}; pass n_hosts")
            if faults is not None and faults.any_host_faults:
                raise ValueError(
                    "faults: a host-death schedule needs shared hosts; "
                    "pass n_hosts"
                )
        else:
            if self.placement is None:
                object.__setattr__(self, "placement", DEFAULT_PLACEMENT)
            if self.placement_demand is None:
                object.__setattr__(
                    self, "placement_demand", DEFAULT_PLACEMENT_DEMAND
                )
        if self.shards < 1:
            raise ValueError(
                f"shards: need at least one shard, got {self.shards}"
            )
        if self.shards > self.n_lanes:
            raise ValueError(
                f"shards: cannot cut {self.n_lanes} lanes into "
                f"{self.shards}; each shard needs a lane"
            )
        workers = self.workers
        if workers is None:
            # A host-coupled sweep runs every shard at once: each step
            # ends at a barrier all of them must reach.
            workers = (
                self.shards
                if self.n_hosts is not None
                else min(self.shards, os.cpu_count() or 1)
            )
        if workers < 0:
            raise ValueError(
                "workers: need a pool size >= 0 (0 runs each shard as "
                f"a thread), got {workers}"
            )
        if self.n_hosts is not None and 0 < workers < self.shards:
            raise ValueError(
                f"workers: a pool of {workers} would deadlock at the "
                "first step barrier of a host-coupled sweep, which runs "
                f"all {self.shards} shard(s) at once; pass workers >= "
                f"{self.shards}, or workers=0 for threads"
            )
        # The pool never exceeds the shard count; record the size that ran.
        object.__setattr__(self, "workers", min(workers, self.shards))
        if self.exchange_every < 1:
            raise ValueError(
                "exchange_every: the exchange period must be >= 1 step, "
                f"got {self.exchange_every}"
            )
        if self.exchange_every != 1 and (
            self.shards == 1 or self.n_hosts is None
        ):
            raise ValueError(
                "exchange_every: paces the cross-shard demand exchange; "
                "pass shards > 1 and n_hosts"
            )


def _event_log(manager) -> tuple:
    """One lane's adaptation events as plain comparable tuples."""
    return tuple(
        (
            event.t,
            event.duration_seconds,
            event.cache_hit,
            event.workload_class,
            event.certainty,
            event.allocation.count,
            event.allocation.itype.name,
        )
        for event in manager.adaptation_events
    )


def _run_fleet_slice(
    spec: FleetStudySpec,
    lane_lo: int,
    lane_hi: int,
    exchange: DemandExchange | None = None,
) -> tuple[FleetResult, dict]:
    """Build and run global lanes ``[lane_lo, lane_hi)`` of the fleet.

    The single-process study is the full slice ``[0, n_lanes)``; shard
    workers run proper sub-slices.  Families whose global leader lane
    falls outside the slice re-derive the leader's trained model from a
    *phantom* setup (identical seeds, deterministic learning) so
    adoptees share bit-identical state with the leader's own shard.

    When the spec carries hosts, a full-fleet slice builds the
    :class:`~repro.sim.hosts.HostMap` itself: the placement policy
    packs each lane's *peak learning-day demand* onto the hosts, and
    the lanes' production environments are wired to the map's
    interference feeds.  A proper sub-slice instead receives a
    :class:`~repro.sim.exchange.DemandExchange` handle, rebuilds the
    identical *global* map from the spec's pre-resolved
    ``host_placement``, and couples to the other shards through a
    :class:`~repro.sim.exchange.ShardHostView`.

    Returns the slice's :class:`FleetResult` plus a payload dict of raw
    aggregates (queue stats, hit/miss counts, violations, host/theft
    stats, per-lane event logs) that
    :func:`run_fleet_multiplexing_study` merges.
    """
    # Imported here: repro.experiments.setup imports the manager layer,
    # which this module must not pull in at import time for the
    # register-multiplexing study alone.
    from repro.core.manager import DejaVuConfig
    from repro.experiments.setup import (
        build_scaleout_setup,
        build_scaleup_setup,
        counter_monitor,
        fleet_observer_scaleout,
        fleet_observer_scaleup,
        observe_scaleout,
        observe_scaleup,
    )

    kinds_all = lane_kinds(spec.n_lanes, spec.mix)
    families_all = lane_families(spec.n_lanes, spec.mix, spec.demand_factors)
    streams = TelemetryStreams(spec.seed)
    repositories: dict[str, AllocationRepository] = {}

    def build_setup(lane: int, kind: str):
        """One lane's setup, derived from its *global* index."""
        repository = repositories.setdefault(
            families_all[lane], AllocationRepository()
        )
        lane_key = lane * spec.lane_seed_stride
        common = dict(
            trace_name=spec.trace_name,
            repository=repository,
            trace_seed=spec.seed + lane_key,
            # Lanes stride by 2 because a setup derives two sampler
            # seeds from this (seed and seed + 1); the lane's telemetry
            # noise itself comes from counter-mode streams keyed by
            # (fleet seed, lane_key) — batch- and shard-invariant.
            seed=spec.seed + 2 * lane_key,
            monitor=counter_monitor(streams, lane_key),
        )
        config_kwargs = {}
        if spec.resignature_every_seconds is not None:
            config_kwargs["resignature_every_seconds"] = (
                spec.resignature_every_seconds
            )
        if spec.faults is not None:
            config_kwargs["profiling_retry_limit"] = (
                spec.faults.manager_retry_limit
            )
            config_kwargs["profiling_retry_backoff_seconds"] = (
                spec.faults.retry_backoff_seconds
            )
            config_kwargs["degraded_fallback"] = (
                spec.faults.manager_degraded_fallback
            )
        if config_kwargs:
            # Only override the manager config when a knob is set so
            # default fleets keep the builders' config=None path.
            common["config"] = DejaVuConfig(**config_kwargs)
        common["peak_demand"] = _lane_peak_demand(
            lane, kind, spec.trace_name, spec.demand_factors
        )
        if kind == "scaleout":
            return build_scaleout_setup(**common)
        return build_scaleup_setup(**common)

    setups = []
    observers = []
    kind_setups: dict[str, list] = {}
    for lane in range(lane_lo, lane_hi):
        kind = kinds_all[lane]
        setup = build_setup(lane, kind)
        if kind == "scaleout":
            observers.append(observe_scaleout(setup))
        else:
            observers.append(observe_scaleup(setup))
        setups.append(setup)
        kind_setups.setdefault(kind, []).append(setup)

    # Shared hosts: pack placement-time demand estimates (each lane's
    # realized learning-day peak, or its forecast predicted-peak window
    # under ``placement_demand="forecast"``) under the spec's policy,
    # then wire every lane's production environment to its interference
    # feed.  A full-fleet slice builds and packs the map itself; a
    # shard slice rebuilds the *global* map from the parent's resolved
    # placement and wraps it in a ShardHostView, so its lanes' feeds
    # bind to their global slots and per-step demands synchronize
    # through the cross-shard exchange.  Feeds attach *before* the
    # vectorized observers are built — the observers snapshot each
    # production's injector at construction.
    host_map = engine_hosts = None
    if spec.n_hosts is not None:
        if exchange is not None:
            if spec.host_placement is None:
                raise ValueError(
                    "a sharded host-coupled slice needs the parent's "
                    "resolved host_placement in the spec"
                )
            host_map = HostMap(
                make_hosts(spec.n_hosts, spec.host_capacity_units),
                list(spec.host_placement),
                demand_fn=allocation_demand,
                migration=spec.migration,
            )
            engine_hosts = ShardHostView(host_map, lane_lo, lane_hi, exchange)
        else:
            estimates = [
                placement_estimate(setup.trace, spec.placement_demand)
                for setup in setups
            ]
            host_map = build_host_map(
                spec.placement,
                estimates,
                n_hosts=spec.n_hosts,
                capacity_units=spec.host_capacity_units,
                demand_fn=allocation_demand,
                migration=spec.migration,
            )
            engine_hosts = host_map
        if spec.faults is not None and spec.faults.any_host_faults:
            host_map.attach_faults(spec.faults)
        for offset, setup in enumerate(setups):
            setup.production.injector = engine_hosts.feed(offset)

    # One vectorized observer per service *kind* (lanes of one kind
    # share a performance model regardless of demand factor): lanes
    # sharing it are observed in a single fill_rows call per step in
    # batched mode.
    kind_observer = {
        kind: (
            fleet_observer_scaleout(members)
            if kind == "scaleout"
            else fleet_observer_scaleup(members)
        )
        for kind, members in kind_setups.items()
    }

    # Each family's leader is the *global* first lane of the family
    # (kind + demand factor: differently sized lanes cannot share one
    # trained model).  If it lives in this slice, that lane's own
    # manager learns (and runs online here); otherwise a phantom setup
    # with the leader's exact seeds re-derives the identical trained
    # state for adoption.
    leaders: dict[str, object] = {}
    family_tuning: dict[str, int] = {}
    for offset, setup in enumerate(setups):
        family = families_all[lane_lo + offset]
        leader = leaders.get(family)
        if leader is None:
            leader_lane = families_all.index(family)
            leader_setup = (
                setup
                if leader_lane == lane_lo + offset
                else build_setup(leader_lane, kinds_all[leader_lane])
            )
            leader = leader_setup.manager
            leader.learn(leader_setup.trace.hourly_workloads(day=0))
            leaders[family] = leader
            family_tuning[family] = leader.learning_report.tuning_invocations
        if setup.manager is not leader:
            setup.manager.adopt_trained_state(leader)
    # Strong references to each family's shared repository as adopted:
    # a leader that later re-learns detaches onto a private fork, but
    # escalations accounting must still recognise the original shared
    # object followers keep using.
    family_repos = {
        family: leader.repository for family, leader in leaders.items()
    }
    # Online-phase hit/miss baseline: learning (and each shard's phantom
    # -leader re-learning) performs repository lookups of its own, and a
    # shard re-runs its families' learning even when the leader lane
    # lives elsewhere.  Counting from here makes the merged numerator
    # and denominator global online-phase counts, so sharded hit_rate
    # equals the single-process run exactly.
    base_hits = sum(repo.stats.hits for repo in repositories.values())
    base_misses = sum(repo.stats.misses for repo in repositories.values())
    base_missed_keys = {
        family: dict(repo.stats.missed_keys)
        for family, repo in repositories.items()
    }

    queue = ProfilingQueue(
        slots=spec.profiling_slots,
        service_seconds=setups[0].profiler.signature_seconds,
        max_pending=spec.max_pending,
        queue_policy=spec.queue_policy,
        high_watermark=spec.queue_high_watermark,
        low_watermark=spec.queue_low_watermark,
    )
    if spec.faults is not None:
        fault_windows = spec.faults.profiler_windows(spec.step_seconds)
        if fault_windows:
            queue.attach_faults(fault_windows)
    lanes = [
        FleetLane(
            workload_fn=setup.trace.workload_at,
            controller=setup.manager,
            observe_fn=observers[offset],
            label=f"svc-{lane_lo + offset}",
            observe_batch=kind_observer[kinds_all[lane_lo + offset]],
        )
        for offset, setup in enumerate(setups)
    ]
    engine = FleetEngine(
        lanes,
        step_seconds=spec.step_seconds,
        label=f"fleet-{spec.n_lanes}",
        profiling_queue=queue,
        host_map=engine_hosts,
        batched=spec.batched,
    )
    duration = spec.hours * HOUR
    engine_start = time.perf_counter()
    result = engine.run(duration)
    engine_seconds = time.perf_counter() - engine_start

    # Each lane is judged against its own SLO: the latency bound for
    # scale-out lanes, the QoS floor for scale-up lanes.
    violations = 0
    for offset, setup in enumerate(setups):
        slo = setup.service.slo
        if isinstance(slo, LatencySLO):
            values = result.lane_series("latency_ms", offset).values
            violations += int(np.sum(values > slo.bound_ms))
        else:
            values = result.lane_series("qos_percent", offset).values
            violations += int(np.sum(values < slo.floor_percent))

    # Escalation-tuned entries live at band > 0 (only band 0 is
    # pretuned).  Family-shared repositories are rebuilt per slice
    # (phantom leaders re-derive them), so the same escalated entry can
    # appear in several shards' copies; report those as
    # (family, class, band) keys and let the merge deduplicate, so
    # sharded counts match the single-process run exactly.  Private
    # forks created by a re-learning manager belong to one local lane
    # and count directly.
    shared_ids = {id(repo): family for family, repo in family_repos.items()}
    distinct = {id(s.manager.repository): s.manager.repository for s in setups}
    escalated: set[tuple[str, int, int]] = set()
    escalations = 0
    for repo_id, repo in distinct.items():
        family = shared_ids.get(repo_id)
        for entry in repo.entries():
            if entry.interference_band <= 0:
                continue
            if family is None:
                escalations += 1
            else:
                escalated.add(
                    (family, entry.workload_class, entry.interference_band)
                )

    # Online-phase misses, classified for the global merge: a miss a
    # tuning run immediately back-filled (the key exists now) is one
    # fleet-wide event that every shard's repository replica pays
    # locally — the merge deduplicates those by (family, class, band) —
    # while misses on keys nothing ever stored repeat per lookup in
    # every arm and sum exactly.
    missed_stored: list[tuple[str, int, int]] = []
    misses_unstored = 0
    for family, repo in repositories.items():
        base_keys = base_missed_keys.get(family, {})
        for key, count in repo.stats.missed_keys.items():
            delta = count - base_keys.get(key, 0)
            if delta <= 0:
                continue
            if repo.contains(*key):
                missed_stored.append((family, key[0], key[1]))
            else:
                misses_unstored += delta

    accepted = queue.accepted_grants
    payload = {
        "lane_lo": lane_lo,
        "lane_hi": lane_hi,
        "n_steps": result.n_steps,
        "engine_seconds": engine_seconds,
        "families": list(leaders),
        "family_tuning": family_tuning,
        "relearns": sum(s.manager.relearn_count for s in setups),
        "hits": (
            sum(repo.stats.hits for repo in repositories.values())
            - base_hits
        ),
        "misses": (
            sum(repo.stats.misses for repo in repositories.values())
            - base_misses
        ),
        "missed_stored": sorted(missed_stored),
        "misses_unstored": misses_unstored,
        "violations": violations,
        "escalations": escalations,
        "escalated": sorted(escalated),
        "deferred": sum(s.manager.deferred_adaptations for s in setups),
        "queue_accepted": len(accepted),
        "queue_wait_sum": float(
            sum(grant.wait_seconds for grant in accepted)
        ),
        "queue_wait_max": queue.max_wait_seconds,
        "queue_depth_max": queue.max_depth,
        "queue_rejected": queue.rejected,
        "queue_evicted": queue.evicted,
        "queue_shed": queue.shed,
        "queue_revoked": queue.revoked,
        "retries": sum(s.manager.profiling_retries for s in setups),
        "revoked_adaptations": sum(
            s.manager.revoked_adaptations for s in setups
        ),
        "degraded_adaptations": sum(
            s.manager.degraded_adaptations for s in setups
        ),
        "queue_utilization": queue.utilization(duration),
        "clone_hourly_cost": setups[0].profiler.clone_allocation.hourly_cost,
        "lane_events": [_event_log(s.manager) for s in setups],
        "host": (
            None
            if host_map is None
            else {
                "n_hosts": host_map.n_hosts,
                "overload_fraction": host_map.overload_fraction,
                "mean_theft": host_map.mean_theft,
                "peak_theft": host_map.peak_theft,
                "migrations": host_map.migrations,
                "host_failures": host_map.host_failures,
                "host_recoveries": host_map.host_recoveries,
                "evacuations": host_map.evacuations,
                "unplaced_evacuations": host_map.unplaced_evacuations,
                "host_on_steps": host_map.host_on_steps,
            }
        ),
    }
    return result, payload


def _shard_worker(
    spec: FleetStudySpec,
    lane_lo: int,
    lane_hi: int,
    exchange: DemandExchange | None = None,
) -> tuple[FleetResult, dict]:
    """One shard's job: run a slice, detach from the exchange."""
    try:
        return _run_fleet_slice(spec, lane_lo, lane_hi, exchange=exchange)
    finally:
        if exchange is not None:
            exchange.close()


def _merged_study(
    spec: FleetStudySpec,
    result: FleetResult,
    payloads: list[dict],
    engine_seconds: float,
    shards: int,
    workers: int,
) -> FleetMultiplexingStudy:
    """Assemble the study dataclass from slice payloads + merged result."""
    families: list[str] = []
    tuning = 0
    for payload in payloads:
        for kind in payload["families"]:
            if kind not in families:
                families.append(kind)
                tuning += payload["family_tuning"][kind]
    # Global online-phase hit rate.  Lookup *totals* are per-lane
    # deterministic and sum exactly; misses need the shard-replica
    # dedup — a back-filled (stored) miss is one fleet-wide event every
    # replica paid locally, so the union over (family, class, band)
    # keys is the global count, while never-stored misses sum.
    lookups = sum(p["hits"] + p["misses"] for p in payloads)
    missed_stored = {
        tuple(key) for payload in payloads for key in payload["missed_stored"]
    }
    misses = len(missed_stored) + sum(p["misses_unstored"] for p in payloads)
    hits = lookups - misses
    accepted = sum(p["queue_accepted"] for p in payloads)
    wait_sum = sum(p["queue_wait_sum"] for p in payloads)
    violations = sum(p["violations"] for p in payloads)
    fleet_hourly_cost = result.total("hourly_cost").mean()
    profiling_hourly_cost = (
        spec.profiling_slots * shards * payloads[0]["clone_hourly_cost"]
    )
    lane_events = tuple(
        tuple(log) for payload in payloads for log in payload["lane_events"]
    )
    # Host stats come from the first payload that carries them: the
    # single full-fleet slice, or — under the cross-shard exchange —
    # any shard, since every worker runs the identical global theft
    # pass and accumulates identical map statistics.
    host = payloads[0].get("host")
    # Family-shared escalations arrive as (family, class, band) keys —
    # shards spanning the same family each carry a copy of its
    # repository, so the union (not the sum) is the fleet-wide count.
    escalated = {
        tuple(key) for payload in payloads for key in payload["escalated"]
    }
    escalations = len(escalated) + sum(p["escalations"] for p in payloads)
    placement = spec.placement or DEFAULT_PLACEMENT
    return FleetMultiplexingStudy(
        n_lanes=spec.n_lanes,
        n_steps=result.n_steps,
        step_seconds=spec.step_seconds,
        mix=spec.mix,
        batched=spec.batched,
        engine_seconds=engine_seconds,
        learning_runs=len(families) + sum(p["relearns"] for p in payloads),
        tuning_invocations=tuning,
        hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        mean_queue_wait_seconds=wait_sum / accepted if accepted else 0.0,
        max_queue_wait_seconds=max(p["queue_wait_max"] for p in payloads),
        max_queue_depth=max(p["queue_depth_max"] for p in payloads),
        rejected_profiles=sum(p["queue_rejected"] for p in payloads),
        profiler_utilization=(
            sum(p["queue_utilization"] for p in payloads) / len(payloads)
        ),
        fleet_hourly_cost=fleet_hourly_cost,
        amortized_profiling_fraction=profiling_hourly_cost / fleet_hourly_cost,
        violation_fraction=violations / (result.n_steps * spec.n_lanes),
        n_hosts=host["n_hosts"] if host else 0,
        host_overload_fraction=host["overload_fraction"] if host else 0.0,
        mean_host_theft=host["mean_theft"] if host else 0.0,
        peak_host_theft=host["peak_theft"] if host else 0.0,
        interference_escalations=escalations,
        deferred_adaptations=sum(p["deferred"] for p in payloads),
        result=result,
        shards=shards,
        workers=workers,
        lane_events=lane_events,
        placement=placement if isinstance(placement, str) else placement.name,
        migrations=host["migrations"] if host else 0,
        demand_factors=spec.demand_factors or (),
        queue_policy=spec.queue_policy,
        accepted_profiles=accepted,
        evicted_profiles=sum(p["queue_evicted"] for p in payloads),
        shed_profiles=sum(p["queue_shed"] for p in payloads),
        exchange_every=spec.exchange_every,
        host_failures=host["host_failures"] if host else 0,
        host_recoveries=host["host_recoveries"] if host else 0,
        evacuations=host["evacuations"] if host else 0,
        unplaced_evacuations=host["unplaced_evacuations"] if host else 0,
        revoked_profiles=sum(p["queue_revoked"] for p in payloads),
        profiling_retries=sum(p["retries"] for p in payloads),
        revoked_adaptations=sum(p["revoked_adaptations"] for p in payloads),
        degraded_adaptations=sum(p["degraded_adaptations"] for p in payloads),
        placement_demand=spec.placement_demand or DEFAULT_PLACEMENT_DEMAND,
        host_hours_on=(
            host["host_on_steps"] * spec.step_seconds / 3600.0 if host else 0.0
        ),
        mean_hosts_on=(
            host["host_on_steps"] / result.n_steps
            if host and result.n_steps
            else 0.0
        ),
    )


def run_fleet_multiplexing_study(
    n_lanes: int = 4,
    hours: float = 48.0,
    step_seconds: float = 300.0,
    profiling_slots: int = 1,
    max_pending: int | None = None,
    queue_policy: str = "fifo",
    queue_high_watermark: int | None = None,
    queue_low_watermark: int | None = None,
    resignature_every_seconds: float | None = None,
    lane_seed_stride: int = 1,
    trace_name: str = "messenger",
    seed: int = 0,
    mix: str = "scaleout",
    n_hosts: int | None = None,
    host_capacity_units: float = 12.0,
    placement: "str | PlacementPolicy | None" = None,
    migration: MigrationPolicy | None = None,
    placement_demand: str | None = None,
    demand_factors=None,
    batched: bool = True,
    shards: int = 1,
    workers: int | None = None,
    exchange_every: int = 1,
    faults=None,
) -> FleetMultiplexingStudy:
    """Run ``n_lanes`` co-hosted services against one shared DejaVu.

    The first lane of each service family pays that family's learning
    day; every other lane of the family adopts the trained model and
    the family's shared repository, so the fleet pays one learning
    phase per family regardless of size.  All lanes — across families —
    ride one :class:`ProfilingQueue` with ``profiling_slots`` clone
    VMs, so each online signature collection contends for the shared
    profiler.  ``queue_policy`` selects its admission discipline:
    ``"fifo"`` (default, bit-identical to the original bounded queue)
    or ``"priority"`` — the admission market where escalation probes
    and violation-triggered adaptations outbid routine re-signatures
    and relearn sweeps, ``queue_high_watermark``/``queue_low_watermark``
    shed low-priority work before the ``max_pending`` rejection cliff,
    and queued low-value work is evictable by a higher bidder.
    ``resignature_every_seconds`` gives every lane a routine
    re-signature stream (lowest priority) so the market has background
    traffic to outbid; ``None`` (default) keeps the original request
    pattern bit for bit.  ``lane_seed_stride`` controls workload
    diversity:
    stride 0 gives every lane the identical trace (useful for
    determinism properties), stride 1 gives each lane its own phase
    wander and jitter.

    ``mix`` picks the composition (``scaleout``, ``scaleup`` or
    ``mixed`` — alternating Cassandra-style and SPECweb-style lanes
    with different observation schemas).  ``n_hosts`` places the lanes
    onto that many shared :class:`~repro.sim.hosts.SimHost` machines of
    ``host_capacity_units`` each under ``placement`` — a policy name
    from :data:`repro.sim.placement.PLACEMENT_POLICIES`
    (``round_robin`` when not given, ``block``,
    ``first_fit_decreasing``, ``best_fit``) or a
    :class:`~repro.sim.placement.PlacementPolicy` object, packing each
    lane's peak learning-day demand.  Co-located lanes then steal
    capacity from each other at demand peaks, and managers that catch a
    neighbour red-handed escalate to a higher interference band
    (Sec. 3.6).  ``None`` keeps every lane on dedicated hardware.

    A lane presses its *allocation footprint* onto its host — what
    DejaVu actually deployed, ``min(offered demand, deployed
    capacity)`` — so scale-ups press harder after escalation and
    scale-downs free host headroom.  ``migration`` attaches a
    :class:`~repro.sim.placement.MigrationPolicy`: every
    ``rebalance_every`` steps the worst-pressure host evicts a
    tenant, and the migrated lane pays a blackout window of degraded
    capacity (the Sec. 3 VM-cloning cost) in its SLO accounting.  In
    ``mode="consolidate"`` the policy additionally drains the coldest
    host when nothing is under pressure — bin-packing for fewest hosts
    powered on; the study reports the resulting ``host_hours_on``
    energy axis either way.

    ``placement_demand`` selects the placement-time estimate the
    policy packs: ``"learning-peak"`` (when not given) is each lane's
    realized peak offered demand over its learning day; ``"forecast"``
    fits the cheap seasonal forecast of :mod:`repro.sim.forecast` to
    the learning day and packs the *predicted-peak window* instead,
    which covers the day-to-day plateau jitter the realized peak
    misses.
    Both are pure functions of the lane's trace, so the resulting
    placement is bit-identical across scalar, batched and sharded
    paths.  Requires ``n_hosts``.

    ``demand_factors`` makes the fleet heterogeneous in *size*: lane
    ``i``'s trace peak is scaled by ``factors[i % len(factors)]``, and
    model-sharing families split by (kind, factor) so each size pays
    its own learning day.  This is what gives bin-packing placements
    something to pack.

    ``batched`` selects the engine's batched control plane (default):
    each adaptation wave classifies all same-family lanes as one
    signature matrix against the shared trained model, and observation
    uses the dict-free fast path.  ``batched=False`` keeps the scalar
    per-lane step loop reachable for A/B runs; both paths produce
    bit-identical :class:`~repro.sim.fleet.FleetResult`\\ s (pinned in
    ``tests/test_fleet_equivalence.py``).

    Every sampler's noise derives from one per-fleet key via
    counter-mode streams (:mod:`repro.telemetry.streams`): the engine's
    prepare phase collects all due lanes' signatures as one vectorized
    matrix pass, and a lane's telemetry is independent of which batch
    or worker process samples it (scalar == batched == sharded, bit for
    bit).

    ``shards``/``workers`` partition the fleet into contiguous global
    lane ranges submitted to one pool (:mod:`repro.sim.shard`); each
    shard returns its :class:`FleetResult` through its future and the
    parent merges them.  ``workers=0`` runs the shards as threads of
    this process (single-process debugging of the exact shard path);
    any other count runs them in that many ``spawn`` worker processes,
    ``min(shards, cpu_count)`` when not given.  Sharding models one
    profiling environment (with
    ``profiling_slots`` clone VMs) *per shard*: with an uncontended
    queue the merged result is bit-identical to the single-process run,
    while under contention per-shard queues legitimately wait less than
    one fleet-wide queue would.

    Host coupling *crosses* shard boundaries, so sharded sweeps with
    ``n_hosts`` run a cross-shard demand exchange
    (:mod:`repro.sim.exchange`): the parent resolves the global
    placement once, every worker rebuilds the identical global
    :class:`~repro.sim.hosts.HostMap`, and each step the workers
    synchronize their lanes' demand contributions through a
    shared-memory block and step barrier before computing the global
    theft pass locally — the merged result stays bit-identical to the
    single-process host-coupled run (pinned in
    ``tests/test_fleet_shard.py``).  Because every shard must reach
    the barrier each step, ``workers`` defaults to ``shards`` and
    undersized pools are rejected.  ``exchange_every`` paces the
    barrier: 1 (default) exchanges every step and preserves
    bit-identicality; larger periods let workers run ahead on cached
    remote demands between barriers — an approximation — with
    migrations committing only at exchange steps so workers' plans
    cannot diverge.

    ``faults`` injects a deterministic fault timeline
    (:mod:`repro.sim.faults`): a :class:`~repro.sim.faults.FaultSchedule`,
    a DSL string (``"host:1@40+30,profiler@30+18,retries=2"``), or a
    list of such tokens.  Host deaths zero a host's capacity and
    trigger an emergency evacuation onto survivors (each evacuee pays
    the migration blackout window; unplaceable lanes run degraded at
    the schedule's residual rate), profiler outages revoke in-flight
    grants and take queue slots offline for the window, and the
    managers recover via bounded retry-with-backoff plus the
    last-known-good degraded fallback (``recovery=off`` disables the
    responses but not the faults — the baseline arm).  Fault events
    are a pure function of the schedule and commit at the same points
    migrations do, so scalar == batched == sharded stays bit-identical
    (in sharded runs they commit at exchange barriers).  Host faults
    require ``n_hosts``.

    The default 5-minute step keeps adaptation hourly (the managers'
    check interval) while sampling performance between adaptations, so
    the VM warm-up transient right after a reallocation is weighted as
    in the paper's 60-second-step case studies rather than dominating
    every sample.

    Every argument is validated up front by :class:`FleetStudySpec`,
    whose :class:`ValueError` names the offending parameter.
    """
    spec = FleetStudySpec(
        n_lanes=n_lanes,
        hours=hours,
        step_seconds=step_seconds,
        profiling_slots=profiling_slots,
        max_pending=max_pending,
        queue_policy=queue_policy,
        queue_high_watermark=queue_high_watermark,
        queue_low_watermark=queue_low_watermark,
        resignature_every_seconds=resignature_every_seconds,
        lane_seed_stride=lane_seed_stride,
        trace_name=trace_name,
        seed=seed,
        mix=mix,
        n_hosts=n_hosts,
        host_capacity_units=host_capacity_units,
        placement=placement,
        migration=migration,
        placement_demand=placement_demand,
        demand_factors=demand_factors,
        batched=batched,
        shards=shards,
        workers=workers,
        exchange_every=exchange_every,
        faults=faults,
    )
    # Expand seeded fault generators and resolve the global host
    # placement once, here, so every shard worker replays the identical
    # fault timeline and rebuilds the identical global map (placement
    # policies see the whole fleet's demand estimates, which no single
    # shard holds).
    resolved = {}
    if spec.faults is not None:
        resolved["faults"] = spec.faults.resolve(
            int(round(hours * HOUR / step_seconds)), n_hosts or 0
        )
    if shards > 1 and n_hosts is not None:
        resolved["host_placement"] = resolve_placement(
            spec.placement,
            _placement_estimates(
                n_lanes, mix, spec.demand_factors, trace_name, seed,
                lane_seed_stride, placement_demand=spec.placement_demand,
            ),
            n_hosts=n_hosts,
            capacity_units=host_capacity_units,
        )
    if resolved:
        spec = replace(spec, **resolved)
    if shards == 1:
        result, payload = _run_fleet_slice(spec, 0, n_lanes)
        return _merged_study(
            spec,
            result,
            [payload],
            engine_seconds=payload["engine_seconds"],
            shards=1,
            workers=1,
        )

    from repro.sim.shard import run_sharded

    exchange = (
        ExchangeSpec(exchange_every=exchange_every)
        if n_hosts is not None
        else None
    )
    merged, payloads, wall_seconds = run_sharded(
        _shard_worker,
        spec,
        n_lanes=n_lanes,
        shards=shards,
        workers=spec.workers,
        label=f"fleet-{n_lanes}",
        exchange=exchange,
    )
    return _merged_study(
        spec,
        merged,
        payloads,
        engine_seconds=wall_seconds,
        shards=shards,
        workers=spec.workers,
    )
