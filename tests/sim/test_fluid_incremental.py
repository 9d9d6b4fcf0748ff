"""Differential property suite: incremental vs reference fluid scheduler.

The incremental scheduler (dirty-channel component re-solve + same-tick
coalescing, ``repro.sim.resources._FluidScheduler``) must be
*observationally identical* to the retained full-recompute reference
solver: same rates after every membership change, same completion event
stream, same per-channel byte accounting (mid-flight and at the end).
This suite drives randomized
flow churn — staggered admits, striped same-tick stripe sets, natural
finishes, per-flow rate caps, congestion-threshold crossings, disjoint
components, 8- and 16-stripe fan-ins whose stripes mix capped and
uncapped flows on one path, slow links that force multi-round filling —
through both schedulers and asserts bit-identical results.  A second
family of schedules bridges the shared channel groups with short flows,
so components split when a bridge finishes and merge when one is
admitted, and mixes in channel-less (loopback) transfers.  After every
re-solve the incremental scheduler's cached channel -> component map
must equal a fresh walk of its live classes.

``PORTUS_FLUID_EXAMPLES`` scales the schedule count (default 200, the
acceptance bar for this suite).
"""

import os
import random

import pytest

from repro.errors import ProcessInterrupted
from repro.sim import Environment, SharedChannel, Transfer
from repro.sim.resources import (_FluidScheduler, scheduler_stats,
                                 use_reference_scheduler)
from repro.units import gbytes

N_SCHEDULES = int(os.environ.get("PORTUS_FLUID_EXAMPLES", "200"))

#: Capacities come from an integer grid so that equal fair shares across
#: disjoint components are *exactly* equal floats (the solvers' freeze
#: tolerance merges shares within 1e-9; an exact tie resolves identically
#: in both, a sub-1e-9 near-tie is not representable off this grid).
CAPACITY_GRID = [25, 40, 64, 100, 128, 250, 400, 512, 1000]
MB = 1_000_000


def _random_group(rng):
    """One shared NIC + PMem channel pair, as plain data."""
    nic_cap = rng.choice(CAPACITY_GRID) * 100 * MB
    congested = rng.random() < 0.5
    return {
        "nic_cap": nic_cap,
        "congested_cap": (nic_cap // 2) if congested else None,
        "threshold": rng.randint(1, 4),
        "pmem_cap": rng.choice(CAPACITY_GRID) * 50 * MB,
    }


def _random_schedule(rng):
    """A topology + operation list, as plain data."""
    groups = [_random_group(rng) for _ in range(rng.randint(1, 3))]
    clients = []
    for c in range(rng.randint(2, 6)):
        ops = []
        for _ in range(rng.randint(1, 4)):
            # 8- and 16-stripe fan-ins put many same-path flows in flight;
            # a 3-way split makes per-flow shares inexact floats, so the
            # order and count of capacity subtractions show in the bits.
            stripes = rng.choice([1, 1, 2, 3, 4, 8, 16])
            size = rng.randint(1, 400) * MB + rng.randint(0, 999)
            if rng.random() < 0.05:
                size = 0
            cap = (rng.choice(CAPACITY_GRID) * 10 * MB
                   if rng.random() < 0.3 else None)
            caps = [cap] * stripes
            if stripes > 1 and rng.random() < 0.3:
                # Capped and uncapped stripes on one path: the path splits
                # into several (path, cap) classes.
                other = rng.choice(CAPACITY_GRID) * 10 * MB
                caps = [rng.choice([None, cap, other])
                        for _ in range(stripes)]
            ops.append({
                "delay": rng.randint(0, 40) * 1_000_000 + rng.randint(0, 99),
                "size": size,
                "stripes": stripes,
                "caps": caps,
                "latency": rng.choice([0, 0, 1000, 12_345]),
                # local=True keeps the flow off the shared group channels,
                # creating a disjoint component.
                "local": rng.random() < 0.25,
            })
        # A slow link bottlenecks its client below the shared NIC/PMem
        # share, so filling takes several rounds.
        link_unit = 20 * MB if rng.random() < 0.3 else 200 * MB
        clients.append({
            "group": rng.randrange(len(groups)),
            "link_cap": rng.choice(CAPACITY_GRID) * link_unit,
            "ops": ops,
        })
    return {"groups": groups, "clients": clients,
            "probe_period": rng.randint(3, 9) * 1_000_000}


def _split_merge_schedule(rng):
    """Shared channel groups bridged by short flows: a bridge admitted
    while both groups carry traffic merges their components, and one
    that finishes first splits them again.  Some transfers cross no
    channel at all (loopback)."""
    schedule = _random_schedule(rng)
    groups = schedule["groups"]
    while len(groups) < 2:
        groups.append(_random_group(rng))
    n_groups = len(groups)
    for client in schedule["clients"]:
        home = client["group"]
        for op in client["ops"]:
            kind = rng.choice(["home", "bridge", "bridge", "loopback"])
            if kind == "loopback":
                op["path"] = []
            elif kind == "bridge":
                other = rng.choice([g for g in range(n_groups) if g != home])
                op["path"] = ["link", f"nic{home}",
                              rng.choice([f"nic{other}", f"pmem{other}"])]
                # Short: the bridge finishes while the groups stay busy.
                op["size"] = rng.randint(1, 40) * MB + rng.randint(0, 999)
    # Clients that only bridge, one short flow after another.
    for _ in range(rng.randint(1, 3)):
        ops = []
        for _ in range(rng.randint(2, 8)):
            one, other = rng.sample(range(n_groups), 2)
            ops.append({
                "delay": rng.randint(0, 40) * 1_000_000,
                "size": rng.randint(1, 40) * MB + rng.randint(0, 999),
                "stripes": rng.choice([1, 2, 4]),
                "caps": [None] * 4,
                "latency": rng.choice([0, 1000]),
                "local": False,
                "path": ["link", rng.choice([f"nic{one}", f"pmem{one}"]),
                         rng.choice([f"nic{other}", f"pmem{other}"])],
            })
        schedule["clients"].append({
            "group": 0, "link_cap": rng.choice(CAPACITY_GRID) * 200 * MB,
            "ops": ops})
    return schedule


def _fresh_components(scheduler):
    """channel -> (classes in id order, channel set) of its connected
    component, walked afresh over the scheduler's live classes."""
    channel_classes = scheduler._channel_classes
    fresh = {}
    for start in channel_classes:
        if start in fresh:
            continue
        classes, channels, stack = set(), {start}, [start]
        while stack:
            for path_class in channel_classes[stack.pop()]:
                if path_class not in classes:
                    classes.add(path_class)
                    for channel in path_class.channels:
                        if channel not in channels:
                            channels.add(channel)
                            stack.append(channel)
        ordered = sorted(classes, key=lambda path_class: path_class.id)
        for channel in channels:
            fresh[channel] = (ordered, channels)
    return fresh


def _assert_components_cached(scheduler, complete):
    """Every cached channel -> component entry matches a fresh walk and,
    when *complete*, every channel with a live class has one.  Between a
    class create or drop and the next solve, entries for the channels
    around that class are missing; none may be stale."""
    fresh = _fresh_components(scheduler)
    cached = {}
    for channel, component in scheduler._components.items():
        assert component.ids == tuple(c.id for c in component.classes)
        cached[channel] = (component.classes, set(component.channels))
        assert cached[channel] == fresh.get(channel), channel.name
    if complete:
        assert cached == fresh


@pytest.fixture
def checked_components(monkeypatch):
    """Check the component cache around every solve (flush or wakeup);
    yields the number of solves checked."""
    checks = [0]
    solve_dirty = _FluidScheduler._solve_dirty

    def checking_solve_dirty(self):
        _assert_components_cached(self, complete=False)
        solve_dirty(self)
        _assert_components_cached(self, complete=True)
        checks[0] += 1

    monkeypatch.setattr(_FluidScheduler, "_solve_dirty",
                        checking_solve_dirty)
    return checks


def _assert_schedulers_agree(schedule, context):
    incremental = _run(schedule, reference=False)
    ref = _run(schedule, reference=True)
    assert incremental["completions"] == ref["completions"], context
    assert incremental["probes"] == ref["probes"], context
    assert incremental["carried"] == ref["carried"], context
    assert incremental["end"] == ref["end"], context
    return incremental, ref


def _run(schedule, reference):
    env = Environment()
    if reference:
        use_reference_scheduler(env)
    shared = []
    for g, spec in enumerate(schedule["groups"]):
        nic = SharedChannel(env, spec["nic_cap"], name=f"nic{g}",
                            congested_capacity_bps=spec["congested_cap"],
                            congestion_threshold=spec["threshold"])
        pmem = SharedChannel(env, spec["pmem_cap"], name=f"pmem{g}",
                             congested_capacity_bps=spec["pmem_cap"] // 2,
                             congestion_threshold=2)
        shared.append((nic, pmem))
    by_name = {ch.name: ch for pair in shared for ch in pair}
    completions = []
    live = {}
    probes = []

    def client(env, index, spec):
        link = SharedChannel(env, spec["link_cap"], name=f"link{index}")
        nic, pmem = shared[spec["group"]]
        for op_index, op in enumerate(spec["ops"]):
            yield env.timeout(op["delay"])
            stripes = []
            if "path" in op:
                path = [link if name == "link" else by_name[name]
                        for name in op["path"]]
            elif op["local"]:
                path = [link]
            else:
                path = [link, nic, pmem]
            for s in range(op["stripes"]):
                label = f"c{index}.op{op_index}.s{s}"
                size = op["size"] // op["stripes"]
                transfer = Transfer(env, path, size,
                                    latency_ns=op["latency"],
                                    rate_cap_bps=op["caps"][s], label=label)
                live[label] = transfer
                transfer.callbacks.append(_completed)
                stripes.append(transfer)
            for transfer in stripes:
                yield transfer

    def _completed(event):
        live.pop(event.label, None)
        completions.append((event.label, event.started_at,
                            event.finished_at, event.rate_bps))

    def probe(env):
        try:
            while True:
                yield env.timeout(schedule["probe_period"])
                if live:
                    probes.append((env.now, sorted(
                        (label, t.rate_bps, t.remaining)
                        for label, t in live.items()), {
                        ch.name: ch.bytes_carried
                        for pair in shared for ch in pair}))
        except ProcessInterrupted:
            pass

    workers = [env.process(client(env, i, spec))
               for i, spec in enumerate(schedule["clients"])]
    prober = env.process(probe(env))
    for worker in workers:
        env.run_process(worker)
    prober.interrupt()
    env.run()
    carried = {ch.name: ch._bytes_carried
               for pair in shared for ch in pair}
    return {"completions": completions, "probes": probes,
            "carried": carried, "end": env.now,
            "stats": scheduler_stats(env)}


def test_incremental_matches_reference_on_randomized_churn(
        monkeypatch, checked_components):
    # Count progressive-filling runs: a solve the component memo answers
    # does not reach ``_solve_component``.
    filled = [0]
    solve_component = _FluidScheduler._solve_component

    def counting_solve_component(self, component, counts):
        filled[0] += 1
        return solve_component(self, component, counts)

    monkeypatch.setattr(_FluidScheduler, "_solve_component",
                        counting_solve_component)
    rng = random.Random(0xF1D0)
    solved_incremental = solved_reference = solves_incremental = 0
    for case in range(N_SCHEDULES):
        schedule = _random_schedule(rng)
        incremental, ref = _assert_schedulers_agree(schedule,
                                                    f"schedule {case}")
        solved_incremental += incremental["stats"]["flows_solved"]
        solved_reference += ref["stats"]["flows_solved"]
        solves_incremental += incremental["stats"]["solves"]
    # The point of the rewrite: the incremental scheduler touches far
    # fewer flows per membership change than the full recompute.
    assert solved_incremental < solved_reference
    # The memoized path ran, so the equalities above cover it.
    assert 0 < filled[0] < solves_incremental
    assert checked_components[0] > 0


def test_incremental_matches_reference_on_split_and_merge(
        checked_components):
    rng = random.Random(0xB41D6E)
    for case in range(N_SCHEDULES):
        _assert_schedulers_agree(_split_merge_schedule(rng),
                                 f"split/merge schedule {case}")
    assert checked_components[0] > 0


def test_component_cache_splits_and_merges(checked_components):
    """Two busy channels form two components; a bridging flow merges
    them into one, and its finish splits them again, with the rates the
    reference gives at every step."""
    def run(reference):
        env = Environment()
        if reference:
            use_reference_scheduler(env)
        a = SharedChannel(env, gbytes(4), name="a")
        b = SharedChannel(env, gbytes(1), name="b")
        left = Transfer(env, [a], 4_000_000_000)
        right = Transfer(env, [b], 1_000_000_000)
        rates, merged = [], []

        def observe():
            rates.append((env.now, left.rate_bps, right.rate_bps))
            if not reference:
                components = env._fluid_scheduler._components
                merged.append(components[a] is components[b])

        def wait_for_bridge(env):
            yield bridge

        env.run(until=1)
        observe()
        bridge = Transfer(env, [a, b], 100_000_000)
        env.run(until=2)
        observe()
        env.run_process(env.process(wait_for_bridge(env)))
        env.run(until=env.now + 1)
        observe()
        env.run()
        finished = [left.finished_at, right.finished_at, bridge.finished_at]
        return rates, finished, merged

    rates, finished, merged = run(reference=False)
    ref_rates, ref_finished, _ = run(reference=True)
    assert merged == [False, True, False]
    assert (rates, finished) == (ref_rates, ref_finished)
    # Merged: b's 1 GB/s splits between right and the bridge.
    assert rates[1][1:] == (gbytes(4) - gbytes(1) / 2, gbytes(1) / 2)


def test_incremental_and_reference_agree_rerun_deterministically():
    """The same schedule replayed through the same scheduler is
    bit-identical (no hidden iteration-order nondeterminism)."""
    schedule = _random_schedule(random.Random(7))
    for reference in (False, True):
        first = _run(schedule, reference)
        second = _run(schedule, reference)
        assert first == second
