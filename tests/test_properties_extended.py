"""Additional property-based tests on the newer components."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import LARGE
from repro.cloud.provider import Allocation
from repro.core.cost_aware_tuner import KingfisherTuner, TransitionCost
from repro.interference.probe_selection import select_probe_instance
from repro.services.batch import BatchHost, BatchTask, BatchWorkloadAdvisor
from repro.services.cassandra import CassandraService
from repro.sim.fleet import ProfilingQueue
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, Workload
from repro.workloads.traces import DaySchedule


def cassandra_workload(demand: float) -> Workload:
    return Workload(
        volume=demand / CASSANDRA_UPDATE_HEAVY.demand_per_client,
        mix=CASSANDRA_UPDATE_HEAVY,
    )


class TestProbeSelectionProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        percentile=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_probe_covers_at_least_percentile(self, values, percentile):
        index = select_probe_instance(values, percentile)
        probed = values[index]
        covered = sum(v <= probed for v in values) / len(values)
        assert covered * 100.0 >= percentile - 1e-9

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_hundredth_percentile_is_max(self, values):
        index = select_probe_instance(values, 100.0)
        assert values[index] == max(values)


class TestDayScheduleProperties:
    @given(
        deltas=st.dictionaries(
            keys=st.integers(min_value=1, max_value=3),
            values=st.integers(min_value=-5, max_value=5),
        )
    )
    def test_shifted_stays_valid(self, deltas):
        schedule = DaySchedule(segments=((0, 0), (6, 1), (12, 2), (20, 0)))
        shifted = schedule.shifted(deltas)
        starts = [s for s, _ in shifted.segments]
        assert starts[0] == 0
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        levels = shifted.level_indices()
        assert levels.shape == (24,)

    @given(
        deltas=st.dictionaries(
            keys=st.integers(min_value=1, max_value=3),
            values=st.integers(min_value=-5, max_value=5),
        )
    )
    def test_shift_preserves_level_set_order(self, deltas):
        schedule = DaySchedule(segments=((0, 0), (6, 1), (12, 2), (20, 0)))
        shifted = schedule.shifted(deltas)
        assert [lvl for _s, lvl in shifted.segments] == [0, 1, 2, 0]


class TestBatchProperties:
    @given(
        work=st.floats(min_value=1.0, max_value=1e4),
        interference=st.floats(min_value=0.0, max_value=0.8),
    )
    def test_interference_never_speeds_tasks(self, work, interference):
        host = BatchHost()
        task = BatchTask(work_units=work, expected_seconds=1.0)
        assert host.runtime_seconds(task, interference) >= host.runtime_seconds(
            task, 0.0
        )

    @given(
        work=st.floats(min_value=1.0, max_value=1e3),
        expected=st.floats(min_value=1.0, max_value=2e3),
        interference=st.floats(min_value=0.0, max_value=0.8),
    )
    @settings(max_examples=60)
    def test_diagnosis_is_consistent(self, work, expected, interference):
        advisor = BatchWorkloadAdvisor()
        task = BatchTask(work_units=work, expected_seconds=expected)
        report = advisor.investigate(task, interference)
        # The index always reflects the capacity theft exactly.
        assert report.interference_index == pytest.approx(
            1.0 / (1.0 - interference)
        )
        # A mis-estimation verdict requires the isolated run to be slow.
        if report.diagnosis.name == "MISESTIMATED":
            assert report.isolated_seconds > expected


class TestKingfisherProperties:
    @given(demand=st.floats(min_value=0.1, max_value=5.5))
    @settings(max_examples=25, deadline=None)
    def test_feasible_results_meet_slo(self, demand):
        service = CassandraService()
        tuner = KingfisherTuner(service, latency_margin=0.85)
        outcome = tuner.tune(cassandra_workload(demand))
        if outcome.met_slo:
            sample = service.performance(
                cassandra_workload(demand), outcome.allocation.capacity_units
            )
            assert service.slo.is_met(sample.latency_ms)

    @given(
        d1=st.floats(min_value=0.1, max_value=5.5),
        d2=st.floats(min_value=0.1, max_value=5.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_cost_monotone_in_demand(self, d1, d2):
        service = CassandraService()
        tuner = KingfisherTuner(service, latency_margin=0.85)
        low, high = sorted((d1, d2))
        cost_low = tuner.tune(cassandra_workload(low)).allocation.hourly_cost
        cost_high = tuner.tune(cassandra_workload(high)).allocation.hourly_cost
        assert cost_low <= cost_high + 1e-9

    @given(
        start=st.integers(min_value=1, max_value=10),
        target=st.integers(min_value=1, max_value=10),
    )
    def test_transition_cost_nonnegative(self, start, target):
        cost = TransitionCost()
        charged = cost.between(
            Allocation(count=start, itype=LARGE),
            Allocation(count=target, itype=LARGE),
        )
        assert charged >= 0.0


class ReferenceFifoQueue:
    """FIFO admission recounting every slot on every query: the
    bookkeeping :class:`ProfilingQueue` replaced with per-slot counts."""

    def __init__(self, slots: int, service: float, max_pending) -> None:
        self.slot_free = [0.0] * slots
        self.service = service
        self.max_pending = max_pending
        self.max_depth = 0
        self.rejected = 0

    def outstanding(self, t: float) -> list[int]:
        eps = 2.220446049250313e-16
        out = []
        for free in self.slot_free:
            if free <= t:
                out.append(0)
                continue
            tol = max(1e-12, 4.0 * eps * max(abs(t), abs(free)) / self.service)
            out.append(max(1, math.ceil((free - t) / self.service - tol)))
        return out

    def pending_at(self, t: float) -> int:
        return sum(c - 1 for c in self.outstanding(t) if c > 1)

    def depth_at(self, t: float) -> int:
        return sum(self.outstanding(t))

    def request(self, t: float, bounded: bool) -> tuple:
        slot = min(range(len(self.slot_free)), key=self.slot_free.__getitem__)
        free = self.slot_free[slot]
        would_wait = free > t
        if (
            bounded
            and self.max_pending is not None
            and would_wait
            and self.pending_at(t) >= self.max_pending
        ):
            self.rejected += 1
            return (t, t, t, "rejected")
        start = free if would_wait else t
        self.slot_free[slot] = start + self.service
        self.max_depth = max(self.max_depth, self.depth_at(t))
        return (t, start, start + self.service, "accepted")


@st.composite
def fifo_runs(draw):
    """Queue shape plus (time, bounded, probe offset) requests at
    non-decreasing times: runs of equal times, service multiples, and
    clocks near 1e9 s where subtraction loses ulps."""
    slots = draw(st.integers(min_value=1, max_value=8))
    service = draw(
        st.sampled_from([0.1, 1.0, 10.0, 30.0])
        | st.floats(min_value=0.01, max_value=1000.0)
    )
    max_pending = draw(st.none() | st.integers(min_value=0, max_value=4))
    t = draw(
        st.sampled_from([0.0, 1.0e9, 1.0e9 + 0.25])
        | st.floats(min_value=0.0, max_value=2.0e9)
    )
    gaps = st.sampled_from([0.0, 0.0, service, 0.5 * service, 2.0 * service]) | (
        st.floats(min_value=0.0, max_value=3.0 * service)
    )
    requests = []
    for gap, bounded, probe in draw(
        st.lists(
            st.tuples(gaps, st.booleans(), st.none() | gaps),
            min_size=1,
            max_size=60,
        )
    ):
        t += gap
        requests.append((t, bounded, probe))
    return slots, service, max_pending, requests


class TestFifoQueueBookkeeping:
    @given(run=fifo_runs())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_recount(self, run):
        slots, service, max_pending, requests = run
        queue = ProfilingQueue(
            slots=slots, service_seconds=service, max_pending=max_pending
        )
        reference = ReferenceFifoQueue(slots, service, max_pending)
        for t, bounded, probe in requests:
            grant = queue.request(t, bounded=bounded)
            assert (
                grant.requested_at, grant.start_at, grant.finish_at,
                grant.outcome,
            ) == reference.request(t, bounded)
            assert queue.max_depth == reference.max_depth
            assert queue.rejected == reference.rejected
            assert queue.pending_at(t) == reference.pending_at(t)
            assert queue.depth_at(t) == reference.depth_at(t)
            if probe is not None:
                # A query at another time moves the counts off `t`;
                # the next request must recount, not reuse them.
                later = t + probe
                assert queue.pending_at(later) == reference.pending_at(later)
                assert queue.depth_at(later) == reference.depth_at(later)
