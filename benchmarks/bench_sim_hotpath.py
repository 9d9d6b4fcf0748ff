"""Simulator hot-path throughput: incremental vs full-recompute solver.

A fleet-scale open-loop workload — hundreds of clients striping
checkpoint transfers over per-group shared NIC and PMem channels —
drives the event engine and fluid scheduler as hard as the paper-scale
experiments do, and measures *host* wall-clock, not simulated time.
The same workload runs twice: once on the incremental scheduler
(dirty-channel component re-solve + same-tick admission coalescing,
the default) and once on the retained pre-rewrite reference solver
(``use_reference_scheduler``: a full recompute over every live flow on
every membership change).  The completion streams must be bit-identical
— the speedup is only admissible if the answer did not change.

Results land in ``BENCH_sim.json`` at the repo root:

* ``incremental`` / ``reference`` — wall seconds, scheduled events,
  events/sec, and scheduler solve counters for each run;
* ``speedup`` — reference wall / incremental wall.  The reference run
  shares the new slotted event engine, so this understates the true
  gap to the pre-rewrite engine;
* ``checksum`` — SHA-256 over the completion stream, equal for both.

The full-size test is also the CI regression guard: it refuses a >20%
drop in measured speedup against the committed ``BENCH_sim.json``
(a ratio of two same-process wall clocks, so it transfers across
machines, unlike absolute seconds).  ``CI_FAST=1`` shrinks the fleet
and skips the guard and the JSON rewrite.

``test_component_walks_follow_class_churn`` counts, on the full-size
fleet, how often the incremental scheduler walks a connected component
against how often a path class is created or dropped (the only events
that can merge or split one), and records both as ``components``.
Every other solve must reuse a cached component, so walks may not
outnumber class creates + drops.  The counts are machine-independent.

``test_segment_buffer_scaling`` guards the datapath's storage index the
same way: host microseconds per ``SegmentBuffer`` write+read with 2048
segments over microseconds with 16, recorded as
``segment_buffer_scaling`` and required to stay <= 4 (a bisect index
keeps it near 1; a linear scan of the segment list makes it ~70).
"""

import hashlib
import json
import os
import time

import pytest

from repro.hw.content import PatternContent, SegmentBuffer
from repro.sim import Environment, SharedChannel, Transfer
from repro.sim.resources import (_FluidScheduler, _PathClass,
                                 scheduler_stats, use_reference_scheduler)
from repro.units import gbytes

BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "BENCH_sim.json")

#: Full-size fleet: 16 daemon groups x 20 clients x 3 rounds x 4 stripes.
FLEET = {"groups": 16, "clients": 20, "rounds": 3, "stripes": 4}
#: CI_FAST / smoke fleet: same shape, seconds instead of tens of seconds.
SMALL = {"groups": 4, "clients": 6, "rounds": 2, "stripes": 4}

MB = 1_000_000

#: Segment counts compared by the SegmentBuffer scaling guard.
SEGMENTS_FEW, SEGMENTS_MANY = 16, 2048
#: Bound on the many/few per-operation cost ratio.
SEGMENT_SCALING_BOUND = 4.0


def _update_bench_json(updates):
    """Merge *updates* into the committed BENCH_sim.json."""
    payload = {}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            payload = json.load(fh)
    payload.update(updates)
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_and_run(cfg, reference):
    """Run the fleet workload once; return (wall_s, events, stats, digest)."""
    env = Environment()
    if reference:
        use_reference_scheduler(env)
    completions = []

    groups = []
    for g in range(cfg["groups"]):
        nic = SharedChannel(env, gbytes(12), name=f"nic{g}")
        pmem = SharedChannel(env, gbytes(8), name=f"pmem{g}",
                             congested_capacity_bps=gbytes(6),
                             congestion_threshold=8)
        groups.append((nic, pmem))

    def client(env, group, cid):
        nic, pmem = groups[group]
        link = SharedChannel(env, gbytes(3), name=f"link{group}.{cid}")
        # Staggered starts keep admissions churning instead of arriving
        # in one burst; awkward sizes force non-trivial finish times.
        yield env.timeout(1 + (group * cfg["clients"] + cid) * 9_973)
        for rnd in range(cfg["rounds"]):
            stripes = []
            for s in range(cfg["stripes"]):
                size = 48 * MB + (cid * 7_919 + rnd * 104_729
                                  + s * 1_299_721) % (9 * MB)
                stripes.append(Transfer(
                    env, [link, nic, pmem], size,
                    label=f"g{group}.c{cid}.r{rnd}.s{s}"))
            for transfer in stripes:
                yield transfer
                completions.append((transfer.label, transfer.started_at,
                                    transfer.finished_at))
            yield env.timeout(2_000_000 + cid * 11_003)

    started = time.perf_counter()
    for g in range(cfg["groups"]):
        for c in range(cfg["clients"]):
            env.process(client(env, g, c))
    env.run()
    wall = time.perf_counter() - started

    digest = hashlib.sha256(
        "\n".join(f"{l} {s} {f}" for l, s, f in completions)
        .encode()).hexdigest()
    return wall, env._seq, scheduler_stats(env), digest


def _measure(cfg):
    results = {}
    for name, reference in (("incremental", False), ("reference", True)):
        wall, events, stats, digest = _build_and_run(cfg, reference)
        results[name] = {"wall_s": round(wall, 4), "events": events,
                         "events_per_s": round(events / wall),
                         "stats": stats, "checksum": digest}
    # Internal event counts differ by design (the incremental scheduler
    # coalesces per-stripe solves into one flush and one wakeup timer per
    # tick); the *observable* completion stream is the invariant.
    assert results["incremental"]["checksum"] == \
        results["reference"]["checksum"], \
        "schedulers disagree on the completion stream"
    return results


def test_sim_hotpath_fleet():
    fast = os.environ.get("CI_FAST", "0") != "0"
    cfg = SMALL if fast else FLEET
    results = _measure(cfg)
    inc, ref = results["incremental"], results["reference"]
    speedup = ref["wall_s"] / inc["wall_s"]
    print(f"\nsim hot-path ({cfg['groups']}x{cfg['clients']} clients, "
          f"{inc['events']} events): incremental {inc['wall_s']:.3f}s "
          f"({inc['events_per_s']:,} ev/s) vs reference "
          f"{ref['wall_s']:.3f}s -> {speedup:.2f}x; flows solved "
          f"{inc['stats']['flows_solved']:,} vs "
          f"{ref['stats']['flows_solved']:,}")

    # The incremental solver must touch far fewer flows regardless of
    # machine speed.
    assert inc["stats"]["flows_solved"] * 5 <= ref["stats"]["flows_solved"]

    if fast:
        return  # reduced scale: structure checked, no guard, no rewrite

    assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x bar"

    payload = {
        "workload": dict(cfg, total_clients=cfg["groups"] * cfg["clients"],
                         transfers=cfg["groups"] * cfg["clients"]
                         * cfg["rounds"] * cfg["stripes"]),
        "incremental": inc,
        "reference": ref,
        "speedup": round(speedup, 2),
        "checksum": inc["checksum"],
    }

    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as fh:
            committed = json.load(fh)
        floor = committed["speedup"] * 0.8
        assert speedup >= floor, (
            f"sim hot-path regressed: speedup {speedup:.2f}x < 80% of "
            f"committed {committed['speedup']:.2f}x")

    _update_bench_json(payload)


def test_component_walks_follow_class_churn(monkeypatch):
    counts = {"builds": 0, "class_creates": 0, "class_drops": 0}
    build_component = _FluidScheduler._build_component
    drop_class = _FluidScheduler._drop_class
    path_class_init = _PathClass.__init__

    def counting_build(self, start):
        counts["builds"] += 1
        return build_component(self, start)

    def counting_drop(self, path_class):
        counts["class_drops"] += 1
        drop_class(self, path_class)

    def counting_init(self, key, class_id):
        counts["class_creates"] += 1
        path_class_init(self, key, class_id)

    monkeypatch.setattr(_FluidScheduler, "_build_component", counting_build)
    monkeypatch.setattr(_FluidScheduler, "_drop_class", counting_drop)
    monkeypatch.setattr(_PathClass, "__init__", counting_init)
    _wall, _events, stats, _digest = _build_and_run(FLEET, reference=False)
    counts["solves"] = stats["solves"]
    print(f"\ncomponent walks: {counts['builds']:,} for "
          f"{counts['class_creates']:,} class creates + "
          f"{counts['class_drops']:,} drops, {counts['solves']:,} solves")
    assert counts["builds"] <= counts["class_creates"] + counts["class_drops"]
    assert counts["builds"] < counts["solves"]
    if os.environ.get("CI_FAST", "0") == "0":
        _update_bench_json({"components": counts})


def _segment_us_per_op(segments, ops=4000, repeats=5):
    """Best-of-*repeats* host microseconds per write+read of one segment
    in a buffer holding *segments* segments (the count stays constant:
    every write replaces exactly one segment)."""
    seg = 4096
    buffer = SegmentBuffer(segments * seg)
    for index in range(segments):
        buffer.write(index * seg, PatternContent(index, seg))
    assert buffer.segment_count == segments
    offsets = [(k * 7919 % segments) * seg for k in range(ops)]
    contents = [PatternContent(segments + k, seg) for k in range(64)]
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for k, offset in enumerate(offsets):
            buffer.write(offset, contents[k & 63])
            buffer.read(offset, seg)
        best = min(best, time.perf_counter() - started)
    assert buffer.segment_count == segments
    return best / ops * 1e6


def test_segment_buffer_scaling():
    few = _segment_us_per_op(SEGMENTS_FEW)
    many = _segment_us_per_op(SEGMENTS_MANY)
    ratio = many / few
    print(f"\nSegmentBuffer write+read: {few:.2f} us at {SEGMENTS_FEW} "
          f"segments, {many:.2f} us at {SEGMENTS_MANY} -> {ratio:.2f}x")
    assert ratio <= SEGMENT_SCALING_BOUND, (
        f"SegmentBuffer cost grows with segment count: {ratio:.2f}x at "
        f"{SEGMENTS_MANY} vs {SEGMENTS_FEW} segments "
        f"(bound {SEGMENT_SCALING_BOUND}x)")
    if os.environ.get("CI_FAST", "0") == "0":
        _update_bench_json({"segment_buffer_scaling": round(ratio, 2)})


@pytest.mark.bench_smoke
def test_smoke_sim_hotpath_schedulers_agree():
    """Tiny fleet, structure only: both schedulers run end to end and
    produce identical completion streams."""
    results = _measure({"groups": 2, "clients": 3, "rounds": 2,
                        "stripes": 4})
    assert results["incremental"]["events"] > 0
