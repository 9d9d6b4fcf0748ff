#!/usr/bin/env python3
"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload gpt-group --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats set-up + timed body until ``--seconds`` have passed
(at least once), checks every output, and reports the end-to-end metrics.
Simulated figures come from the first repetition; every later one must
reproduce them exactly.  Host figures are medians over repetitions, and
set-up is timed at least :data:`MIN_SETUPS` times.

``--trace 1`` makes one untraced repetition, then one traced repetition
(the program's own span tracing on, the body under the profiler, counting
probes installed) and reports the per-layer ledger.  The traced run's
simulated figures must equal the untraced run's bit for bit; the extra
wall time is ``host.trace_overhead_s``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are a table
for people: every figure with its unit and, for timings, its sample count.
Exit status is non-zero, with no JSON line, when a check cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.dont_write_bytecode = True  # leave no caches in the checkout

from stats import median, percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up is timed at least this many times per run (median reported).
MIN_SETUPS = 5

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
    ("ckpt_p50_ms", "ms"), ("restore_p50_ms", "ms"),
    ("ckpt_gbps", "GB/s"), ("restore_gbps", "GB/s"),
    ("bytes_per_user_byte", "ratio"), ("space_amp", "ratio"),
    ("ops_ok_frac", "frac"),
)


def _ms(ns: float) -> float:
    return ns / 1e6


def simulated(out) -> Dict[str, Tuple[float, str, Optional[int]]]:
    """Every simulated figure of one body: name -> (value, unit, n).

    Tail percentiles and workload-specific figures are included only
    where the workload produced enough samples for them.
    """
    figures: Dict[str, Tuple[float, str, Optional[int]]] = {}
    for kind in ("ckpt", "restore", "recovery", "late"):
        samples = out.samples.get(kind)
        if not samples:
            continue
        if kind in ("ckpt", "restore"):
            mid = median(samples)
            figures[f"{kind}_p50_ms"] = (_ms(mid.value), "ms", mid.n)
        for q, label in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            name = f"{kind}_{label}_ms"
            tail = percentile(samples, q)
            if tail is not None and name not in figures:
                figures[name] = (_ms(tail.value), "ms", tail.n)
    ckpt, restore = out.samples.get("ckpt"), out.samples.get("restore")
    if ckpt:
        figures["ckpt_gbps"] = (out.ckpt_bytes / sum(ckpt), "GB/s",
                                len(ckpt))
        figures["bytes_per_user_byte"] = (out.pulled_bytes / out.ckpt_bytes,
                                          "ratio", None)
    if restore:
        figures["restore_gbps"] = (out.restore_bytes / sum(restore), "GB/s",
                                   len(restore))
    if out.live_bytes:
        figures["space_amp"] = (out.pool_used / out.live_bytes, "ratio", None)
    if out.attempted:
        ok = out.attempted - out.failed - out.refused
        figures["ops_ok_frac"] = (ok / out.attempted, "frac", out.attempted)
    if "on_time" in out.counts:
        due = len(out.samples.get("late", ()))
        figures["ckpt_on_time_frac"] = (out.counts["on_time"] / due, "frac",
                                        due)
    return figures


def signature(out) -> str:
    """Everything simulated about one body, for exact comparison."""
    return json.dumps({
        "samples": out.samples, "counts": out.counts,
        "bytes": [out.ckpt_bytes, out.restore_bytes, out.pulled_bytes,
                  out.pool_used, out.live_bytes],
        "ops": [out.attempted, out.failed, out.refused],
        "events": out.events, "sched": out.sched,
        "metrics": out.metrics.snapshot(),
    }, sort_keys=True)


def run_untraced(workload, seconds: float):
    """Repeat set-up + body for *seconds*; returns (out, metrics, problems)."""
    setups: List[float] = []
    walls: List[float] = []
    first = None
    problems: List[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        ready = time.perf_counter()
        out = workload.body(state)
        done = time.perf_counter()
        setups.append(ready - start)
        walls.append(done - ready)
        del state
        if first is None:
            first, first_sig = out, signature(out)
        elif signature(out) != first_sig:
            problems.append(f"repetition {len(walls)} simulated "
                            "differently from the first")
        if done >= deadline:
            break
    while len(setups) < MIN_SETUPS:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    figures = simulated(first)
    host = {
        "setup_s": (median(setups).value, "s", len(setups)),
        "wall_s": (median(walls).value, "s", len(walls)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB", None),
    }
    return first, dict(host, **figures), problems


def per_layer(out, stats, probes, wall_untraced: float,
              wall_traced: float) -> Dict[str, Tuple[float, str, Optional[int]]]:
    """The traced run's ledger: name -> (value, unit, n)."""
    import ledger

    metrics = out.metrics
    figures: Dict[str, Tuple[float, str, Optional[int]]] = {}
    for layer, seconds in ledger.self_seconds(stats).items():
        figures[f"{layer}.host_self_s"] = (seconds, "s", None)
    figures["sim.core.events"] = (out.events, "count", None)
    figures["sim.core.host_us_per_event"] = (
        wall_untraced / max(out.events, 1) * 1e6, "us", None)
    for key in ("solves", "flows_solved", "channels_solved", "flushes"):
        figures[f"sim.resources.{key}"] = (out.sched.get(key, 0), "count",
                                           None)
    for name, function in ledger.CALL_COUNTS.items():
        figures[name] = (ledger.call_count(stats, function), "count", None)
    figures["pmem.layout.bytes_materialized"] = (probes.slot_bytes, "B",
                                                 None)
    figures["pmem.alloc.used_bytes"] = (out.pool_used, "B", None)
    figures["pmem.fsck.findings"] = (metrics.sum_counters("fsck.findings."),
                                     "count", None)
    figures["pmem.fsck.repairs"] = (metrics.sum_counters("fsck.repairs."),
                                    "count", None)
    figures["core.engine.credit_stalls"] = (
        metrics.value("engine.credit_stalls"), "count", None)
    figures["core.engine.bytes_pulled"] = (
        metrics.value("daemon.bytes_pulled"), "B", None)
    figures["core.engine.bytes_pushed"] = (
        metrics.value("daemon.bytes_pushed"), "B", None)
    histogram = metrics.get("daemon.checkpoint_latency_ns")
    figures["core.daemon.ckpt_p50_ms"] = (
        _ms(histogram.percentile(50.0)) if histogram else 0.0, "ms",
        histogram.count if histogram else 0)
    commit = median(probes.commit_ns) if probes.commit_ns else None
    figures["core.group.commit_ms"] = (_ms(commit.value) if commit else 0.0,
                                       "ms", len(probes.commit_ns))
    new = metrics.value("daemon.chunks_new")
    shared = metrics.value("daemon.chunks_shared")
    figures["core.dedup.chunks_new"] = (new, "count", None)
    figures["core.dedup.chunks_shared"] = (shared, "count", None)
    figures["core.dedup.hit_ratio"] = (
        shared / (new + shared) if new + shared else 0.0, "frac", None)
    rejects = metrics.sum_counters("fleet.admission.rejects.")
    ingest_rejects = metrics.value("fleet.admission.rejects.ingest")
    figures["fleet.admission.rejects"] = (rejects, "count", None)
    figures["fleet.admission.reject_ratio"] = (
        ingest_rejects / probes.ingest_attempts if probes.ingest_attempts
        else 0.0, "frac", probes.ingest_attempts)
    figures["fleet.ring.fairness"] = (out.counts.get("ring_fairness", 1.0),
                                      "frac", None)
    figures["fleet.client.migrate_bytes"] = (
        out.counts.get("migrate_bytes", 0), "B", None)
    figures["fleet.client.migrate_ms"] = (
        _ms(out.counts.get("migrate_ns", 0)), "ms", None)
    figures["fleet.client.migrate_refused"] = (out.refused, "count", None)
    figures["core.client.retries"] = (metrics.value("client.retries"),
                                      "count", None)
    figures["core.client.reattaches"] = (metrics.value("client.reattaches"),
                                         "count", None)
    late = percentile(out.samples.get("late", ()), 0.9)
    figures["loadgen.late_p90_ms"] = (_ms(late.value) if late else 0.0, "ms",
                                      late.n if late else 0)
    sim = simulated(out)
    for name, unit in (("ckpt_p90_ms", "ms"), ("restore_p90_ms", "ms"),
                       ("ckpt_on_time_frac", "frac"),
                       ("recovery_p50_ms", "ms"), ("recovery_p90_ms", "ms")):
        # Zero where the workload has too few samples for the figure.
        figures[f"tail.{name}"] = sim.get(name, (0.0, unit, 0))
    figures["host.trace_overhead_s"] = (wall_traced - wall_untraced, "s",
                                        None)
    return figures


def run_traced(workload):
    """One untraced and one traced repetition; returns (out, ledger, problems)."""
    import ledger

    gc.collect()
    state = workload.setup()
    start = time.perf_counter()
    plain = workload.body(state)
    wall_untraced = time.perf_counter() - start
    del state
    gc.collect()
    state = workload.setup(tracing=True)
    with ledger.Probes() as probes:
        start = time.perf_counter()
        traced, stats = ledger.profile(lambda: workload.body(state))
        wall_traced = time.perf_counter() - start
    problems = []
    if signature(traced) != signature(plain):
        problems.append("traced run simulated differently from untraced")
    return plain, per_layer(traced, stats, probes, wall_untraced,
                            wall_traced), problems


def report(workload_name: str, figures, out, problems: List[str],
           wanted: List[str]) -> Dict:
    """Print the table and build the result object (last line)."""
    print(f"perfbench {workload_name}: attempted {out.attempted}, "
          f"failed {out.failed}, refused {out.refused}")
    for name, (value, unit, n) in figures.items():
        count = "" if n is None else f"  (n={n})"
        print(f"  {name:34s} {value:>16.6g} {unit}{count}")
    for problem in problems + out.problems:
        print("  CHECK FAILED: " + " | ".join(problem.splitlines()))
    missing = [name for name in wanted if name not in figures]
    if missing:
        raise RuntimeError(f"{workload_name} produced no {missing}")
    return {
        "correct": not problems and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed + len(problems),
        "metrics": {name: {"value": figures[name][0],
                           "unit": figures[name][1]} for name in wanted},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        out, figures, problems = run_traced(workload)
        wanted = list(figures)
    else:
        out, figures, problems = run_untraced(workload, args.seconds)
        wanted = [name for name, _ in END_TO_END]
    result = report(args.workload, figures, out, problems, wanted)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
