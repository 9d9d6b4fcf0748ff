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
through both schedulers and asserts bit-identical results.

``PORTUS_FLUID_EXAMPLES`` scales the schedule count (default 200, the
acceptance bar for this suite).
"""

import os
import random

from repro.errors import ProcessInterrupted
from repro.sim import Environment, SharedChannel, Transfer
from repro.sim.resources import (_FluidScheduler, scheduler_stats,
                                 use_reference_scheduler)

N_SCHEDULES = int(os.environ.get("PORTUS_FLUID_EXAMPLES", "200"))

#: Capacities come from an integer grid so that equal fair shares across
#: disjoint components are *exactly* equal floats (the solvers' freeze
#: tolerance merges shares within 1e-9; an exact tie resolves identically
#: in both, a sub-1e-9 near-tie is not representable off this grid).
CAPACITY_GRID = [25, 40, 64, 100, 128, 250, 400, 512, 1000]
MB = 1_000_000


def _random_schedule(rng):
    """A topology + operation list, as plain data."""
    groups = []
    for g in range(rng.randint(1, 3)):
        nic_cap = rng.choice(CAPACITY_GRID) * 100 * MB
        congested = rng.random() < 0.5
        groups.append({
            "nic_cap": nic_cap,
            "congested_cap": (nic_cap // 2) if congested else None,
            "threshold": rng.randint(1, 4),
            "pmem_cap": rng.choice(CAPACITY_GRID) * 50 * MB,
        })
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
    completions = []
    live = {}
    probes = []

    def client(env, index, spec):
        link = SharedChannel(env, spec["link_cap"], name=f"link{index}")
        nic, pmem = shared[spec["group"]]
        for op_index, op in enumerate(spec["ops"]):
            yield env.timeout(op["delay"])
            stripes = []
            for s in range(op["stripes"]):
                label = f"c{index}.op{op_index}.s{s}"
                path = [link] if op["local"] else [link, nic, pmem]
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


def test_incremental_matches_reference_on_randomized_churn(monkeypatch):
    # Count progressive-filling runs: a solve the component memo answers
    # does not reach ``_solve_component``.
    filled = [0]
    solve_component = _FluidScheduler._solve_component

    def counting_solve_component(self, channels, classes):
        filled[0] += 1
        solve_component(self, channels, classes)

    monkeypatch.setattr(_FluidScheduler, "_solve_component",
                        counting_solve_component)
    rng = random.Random(0xF1D0)
    solved_incremental = solved_reference = solves_incremental = 0
    for case in range(N_SCHEDULES):
        schedule = _random_schedule(rng)
        incremental = _run(schedule, reference=False)
        ref = _run(schedule, reference=True)
        context = f"schedule {case}"
        assert incremental["completions"] == ref["completions"], context
        assert incremental["probes"] == ref["probes"], context
        assert incremental["carried"] == ref["carried"], context
        assert incremental["end"] == ref["end"], context
        solved_incremental += incremental["stats"]["flows_solved"]
        solved_reference += ref["stats"]["flows_solved"]
        solves_incremental += incremental["stats"]["solves"]
    # The point of the rewrite: the incremental scheduler touches far
    # fewer flows per membership change than the full recompute.
    assert solved_incremental < solved_reference
    # The memoized path ran, so the equalities above cover it.
    assert 0 < filled[0] < solves_incremental


def test_incremental_and_reference_agree_rerun_deterministically():
    """The same schedule replayed through the same scheduler is
    bit-identical (no hidden iteration-order nondeterminism)."""
    schedule = _random_schedule(random.Random(7))
    for reference in (False, True):
        first = _run(schedule, reference)
        second = _run(schedule, reference)
        assert first == second
