"""The fleet benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dedicated-1k --seed 1 --seconds 20 --trace 0

Every study runs in a fresh process (``perfbench/study.py``) so that its
peak RSS is its own.  Before timing, the scalar-oracle slice checks
that the batched and scalar engines agree bit for bit.

``--trace 0`` repeats the workload's study until ``--seconds`` are
used (at least three times) and reports the median of each host-time
metric, scaled to the reference pace of ``calibrate.py``.  Simulated
metrics and the ``sim_digest`` must be identical in every repetition.  ``--trace 1`` alternates an untraced and a traced
study (shards inline as threads, so one process holds every span) and
reports the per-layer metrics of ``tracer.summarize`` plus
``fleet.trace_overhead_pct``.

The metric names, units and directions come from ``BENCHMARK.json``.
The last line of standard output is the result object; the exit code
is non-zero if any run failed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
#: A run must end within 180 s; children still running by then are killed.
RUN_DEADLINE_S = 165.0
#: Unix socket paths (multiprocessing's manager) must stay under 108 bytes.
MAX_TMPDIR_LEN = 70

#: Metrics that are host measurements (everything else is simulated
#: and must repeat exactly at one seed).
HOST_METRICS = ("lane_steps_per_s", "wall_s", "setup_s", "engine_s")


class RunFailed(Exception):
    """A study process failed or broke a correctness check."""


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    children = [int(p) for p in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            todo.extend(children)
    return found


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_env() -> dict:
    env = dict(os.environ)
    tmp = OUT / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR_LEN:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``study.py`` with ``args``; return its record and the peak RSS
    (MiB) of every process it started, sampled from ``/proc``."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "study.out", OUT / "study.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "study.py"), *args],
            stdout=out,
            stderr=err,
            cwd=ROOT,
            env=_child_env(),
            start_new_session=True,
        )
        peaks: dict[int, int] = {}
        try:
            while child.poll() is None:
                if time.monotonic() > deadline:
                    raise RunFailed(f"study {args} overran the run deadline")
                for pid in _descendants(child.pid):
                    peaks[pid] = max(peaks.get(pid, 0), _vm_hwm_kib(pid))
                time.sleep(0.05)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if child.returncode != 0:
        raise RunFailed(
            f"study {args} exited with {child.returncode}:\n"
            + err_path.read_text()[-2000:]
        )
    lines = out_path.read_text().strip().splitlines()
    if not lines:
        raise RunFailed(f"study {args} printed nothing")
    return json.loads(lines[-1]), sum(peaks.values()) / 1024.0


def check_oracle(seed: int, deadline: float) -> None:
    digests, _rss = run_child(
        ["--workload", "dedicated-1k", "--seed", str(seed), "--mode", "oracle"], deadline
    )
    if digests["batched"] != digests["scalar"]:
        raise RunFailed(f"scalar oracle slice diverges: {digests}")


def _check_record(record: dict, reference: dict | None) -> None:
    if record["failures"]:
        raise RunFailed("invariants broken: " + "; ".join(record["failures"]))
    if reference is None:
        return
    if record["sim_digest"] != reference["sim_digest"]:
        raise RunFailed(
            f"sim_digest {record['sim_digest']} != {reference['sim_digest']}"
        )
    for name, value in reference["metrics"].items():
        if name not in HOST_METRICS and record["metrics"][name] != value:
            raise RunFailed(f"simulated metric {name} changed: {value} -> {record['metrics'][name]}")


def _another_fits(start: float, done: int, minimum: int, seconds: float) -> bool:
    """Whether to start another repetition: always below ``minimum``,
    then while one more of the mean length still ends within ``seconds``."""
    if done < minimum:
        return True
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done <= seconds


def _at_reference_pace(key: str, record: dict) -> float:
    """Host metric ``key`` of one study, scaled to the reference pace."""
    scale = record["pace_s"] / calibrate.REFERENCE_PACE_S
    value = record["metrics"][key]
    return value * scale if key == "lane_steps_per_s" else value / scale


def measure_end_to_end(name: str, seed: int, seconds: float, deadline: float):
    """Repeat the study; return (metrics, attempted, failed, summary lines)."""
    args = ["--workload", name, "--seed", str(seed), "--mode", "run"]
    records, rss, failed = [], [], 0
    start = time.monotonic()
    while _another_fits(start, len(records), MIN_REPS, seconds):
        try:
            record, children_mb = run_child(args, deadline)
            _check_record(record, records[0] if records else None)
        except RunFailed as error:
            print(f"FAILED run {len(records) + failed + 1}: {error}", file=sys.stderr)
            failed += 1
            break
        records.append(record)
        rss.append(record["own_rss_mb"] + children_mb)
    if not records:
        return {}, failed, failed, []
    metrics = dict(records[0]["metrics"])
    for key in HOST_METRICS:
        metrics[f"{key}_raw"] = statistics.median(r["metrics"][key] for r in records)
        metrics[key] = statistics.median(_at_reference_pace(key, r) for r in records)
    metrics["pace_ms"] = 1000.0 * statistics.median(r["pace_s"] for r in records)
    metrics["peak_rss_mb"] = statistics.median(rss)
    lines = [
        f"reps {len(records)}  sim_digest {records[0]['sim_digest']}",
        f"adapt events {metrics['adapt_events']}  lane-steps per study {records[0]['lane_steps']}",
        "raw lane_steps_per_s per rep: "
        + " ".join(f"{r['metrics']['lane_steps_per_s']:.0f}" for r in records),
        "raw setup_s per rep: " + " ".join(f"{r['metrics']['setup_s']:.3f}" for r in records),
        "pace_ms per rep: " + " ".join(f"{1000 * r['pace_s']:.2f}" for r in records),
    ]
    return metrics, len(records) + failed, failed, lines


def measure_layers(name: str, seed: int, seconds: float, deadline: float):
    """Alternate untraced and traced studies; return per-layer metrics."""
    spans_path = OUT / f"{name}.spans.npz"
    base = ["--workload", name, "--seed", str(seed), "--inline-shards"]
    pairs, failed = [], 0
    start = time.monotonic()
    while _another_fits(start, len(pairs), 1, seconds):
        try:
            plain, _rss = run_child([*base, "--mode", "run"], deadline)
            _check_record(plain, pairs[0][0] if pairs else None)
            traced, _rss = run_child(
                [*base, "--mode", "traced", "--spans", str(spans_path)], deadline
            )
            _check_record(traced, plain)
            layers = tracer.summarize(spans_path)
            if pairs:
                for key, value in layers.items():
                    if key.endswith((".calls", ".items")) and pairs[0][2][key] != value:
                        raise RunFailed(f"{key} changed between traced runs")
        except RunFailed as error:
            print(f"FAILED traced pair {len(pairs) + 1}: {error}", file=sys.stderr)
            failed += 1
            break
        pairs.append((plain, traced, layers))
    if not pairs:
        return {}, failed, failed, []
    metrics = {}
    for key in pairs[0][2]:
        metrics[key] = statistics.median(layers[key] for _p, _t, layers in pairs)
    overheads = [
        100.0
        * (1.0 - _at_reference_pace("lane_steps_per_s", traced)
           / _at_reference_pace("lane_steps_per_s", plain))
        for plain, traced, _layers in pairs
    ]
    metrics["fleet.trace_overhead_pct"] = statistics.median(overheads)
    item_names = {
        "observer.fill_rows": "lanes",
        "monitor.collect_matrix": "rows",
        "batch.classify_matrix": "rows",
        "repository.lookup_batch": "keys",
    }
    for span, label in item_names.items():
        metrics[f"{span}.{label}"] = metrics[f"{span}.items"]
    requests = metrics["queue.request.calls"]
    metrics["queue.accepted_ratio"] = (
        metrics["queue.request.items"] / requests if requests else 0.0
    )
    plans = metrics["placement.plan.calls"]
    metrics["placement.moves_ratio"] = (
        metrics["hosts.migrate.calls"] / plans if plans else 0.0
    )
    metrics = {k: v for k, v in metrics.items() if not k.endswith(".items")}
    lines = [
        f"traced pairs {len(pairs)}  spans per traced study {pairs[0][1]['spans']}",
        "trace overhead % per pair: " + " ".join(f"{o:.1f}" for o in overheads),
    ]
    return metrics, len(pairs) + failed, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fleet benchmark (one workload).")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Exit through Python on SIGTERM so run_child stops the study's
    # process group before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        check_oracle(args.seed, deadline)
        oracle_failed = 0
    except RunFailed as error:
        print(f"FAILED scalar oracle slice: {error}", file=sys.stderr)
        oracle_failed = 1
    measure = measure_layers if args.trace else measure_end_to_end
    values, attempted, failed = {}, 1, oracle_failed
    lines: list[str] = []
    if not oracle_failed:
        values, runs, failed, lines = measure(
            args.workload, args.seed, args.seconds, deadline
        )
        attempted += runs

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"why: {workloads.WORKLOADS[args.workload][0]}")
    for line in lines:
        print(line)
    print(f"failed_run_pct {100.0 * failed / attempted:.1f} %  ({failed} of {attempted} runs)")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not failed:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        failed += 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"  ({name:38s} {values[name]:.6g})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
