"""Run one fleet study in this process and print its measurements as JSON.

``run.py`` starts one process per study, so ``ru_maxrss`` covers that
study alone.  Modes:

``run``     one study; prints its end-to-end figures, the broken
            invariants (if any) and the ``sim_digest``.
``traced``  the same study with the layer wrappers of ``tracer.py``
            installed; also writes the spans to ``--spans``.
``oracle``  the scalar-oracle slice, batched and scalar; prints both
            digests.

Usage: python3 perfbench/study.py --workload NAME --seed N --mode MODE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HOUR = 3600.0


def sim_digest(study) -> str:
    """sha256 over every result matrix, the step times and ``lane_events``."""
    result = study.result
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.times, dtype=np.float64).tobytes())
    for name in sorted(result.matrices):
        matrix = np.ascontiguousarray(result.matrices[name], dtype=np.float64)
        digest.update(name.encode())
        digest.update(repr(matrix.shape).encode())
        digest.update(matrix.tobytes())
    digest.update(repr(study.lane_events).encode())
    return digest.hexdigest()


def invariant_failures(study, kwargs: dict) -> list[str]:
    """Every broken run invariant, as a readable sentence (empty if none)."""
    failures = []
    hours = kwargs["hours"]
    expected_steps = hours * HOUR / kwargs["step_seconds"]
    if study.n_steps != expected_steps:
        failures.append(f"n_steps {study.n_steps} != {expected_steps}")
    result = study.result
    if result.n_lanes != kwargs["n_lanes"]:
        failures.append(f"result has {result.n_lanes} lanes, not {kwargs['n_lanes']}")
    recorded = set()
    for name, matrix in result.matrices.items():
        lanes = result.lanes_recording(name)
        recorded.update(lanes)
        if matrix.shape != (study.n_steps, len(lanes)):
            failures.append(f"matrix {name} has shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            failures.append(f"matrix {name} holds non-finite values")
    if recorded != set(range(result.n_lanes)):
        failures.append("some lanes record no series")
    fractions = {
        "violation_fraction": study.violation_fraction,
        "hit_rate": study.hit_rate,
        "profiler_utilization": study.profiler_utilization,
        "host_overload_fraction": study.host_overload_fraction,
        "mean_host_theft": study.mean_host_theft,
        "peak_host_theft": study.peak_host_theft,
    }
    for name, value in fractions.items():
        if not 0.0 <= value <= 1.0:
            failures.append(f"{name} = {value} outside [0, 1]")
    if study.host_hours_on > study.n_hosts * hours + 1e-9:
        failures.append(
            f"host_hours_on {study.host_hours_on} > {study.n_hosts} hosts x {hours} h"
        )
    if len(study.lane_events) != kwargs["n_lanes"]:
        failures.append(f"{len(study.lane_events)} event logs for {kwargs['n_lanes']} lanes")
    end = hours * HOUR
    for lane, log in enumerate(study.lane_events):
        for event in log:
            t, duration = event[0], event[1]
            if not (0.0 <= t <= end and duration >= 0.0):
                failures.append(f"lane {lane} event at t={t} lasting {duration} s")
                break
    return failures


def end_to_end(study, wall_s: float, kwargs: dict) -> dict:
    """The end-to-end figures of one study call, before units are attached."""
    durations = np.array(
        [event[1] for log in study.lane_events for event in log], dtype=float
    )
    refused = (
        study.rejected_profiles
        + study.shed_profiles
        + study.evicted_profiles
        + study.revoked_profiles
    )
    requests = study.accepted_profiles + refused
    # Without shared hosts every lane runs on a machine of its own for
    # the whole run, which is what the energy axis counts then.
    host_hours_on = (
        study.host_hours_on
        if study.n_hosts
        else study.n_lanes * study.n_steps * study.step_seconds / HOUR
    )
    return {
        "lane_steps_per_s": study.lane_steps_per_second,
        "wall_s": wall_s,
        "setup_s": wall_s - study.engine_seconds,
        "engine_s": study.engine_seconds,
        "slo_violation_pct": study.violation_fraction * 100.0,
        "fleet_cost_per_h": study.fleet_hourly_cost,
        "adapt_sim_s_p50": float(np.percentile(durations, 50)),
        "adapt_sim_s_p99": float(np.percentile(durations, 99)),
        "adapt_events": int(durations.size),
        "repo_hit_pct": study.hit_rate * 100.0,
        "profile_admitted_pct": (
            100.0 * study.accepted_profiles / requests if requests else 100.0
        ),
        "profile_refused_pct": 100.0 * refused / requests if requests else 0.0,
        "host_hours_on": host_hours_on,
    }


def run_study(kwargs: dict):
    from repro.experiments.multiplexing_study import run_fleet_multiplexing_study

    start = time.perf_counter()
    study = run_fleet_multiplexing_study(**kwargs)
    return study, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "oracle"), default="run")
    parser.add_argument("--inline-shards", action="store_true")
    parser.add_argument("--spans", help="span file the traced mode writes")
    args = parser.parse_args(argv)

    if args.mode == "oracle":
        kwargs = workloads.oracle_kwargs(args.seed)
        digests = {}
        for batched in (True, False):
            study, _wall = run_study(dict(kwargs, batched=batched))
            digests["batched" if batched else "scalar"] = sim_digest(study)
        print(json.dumps(digests))
        return 0

    kwargs = workloads.study_kwargs(
        args.workload, args.seed, inline_shards=args.inline_shards
    )
    recorder = None
    if args.mode == "traced":
        # Loaded first so the names it imported get rebound too.
        import repro.experiments.multiplexing_study  # noqa: F401

        recorder = tracer.Tracer()
        tracer.install(recorder)
    pace_before = calibrate.pace()
    study, wall_s = run_study(kwargs)
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "pace_s": (pace_before + calibrate.pace()) / 2.0,
        "metrics": end_to_end(study, wall_s, kwargs),
        "failures": invariant_failures(study, kwargs),
        "sim_digest": sim_digest(study),
        "own_rss_mb": own_kib / 1024.0,
        "lane_steps": study.n_lanes * study.n_steps,
    }
    if recorder is not None:
        record["spans"] = recorder.save(args.spans)
    if not all(math.isfinite(v) for v in record["metrics"].values()):
        record["failures"].append("a metric is not finite")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
