"""Unit tests for the transfer engine (repro.core.engine).

The rig builds a real datapath — GPU allocations behind the Volta NIC,
a PMem region behind the server NIC, connected RC QPs — and drives a
:class:`TransferEngine` over it directly, so credit flow, striping,
stream limiting, and abort semantics are observable without the daemon
in the way.  The daemon-level behaviour (per-WR CPU charging, reply
fields, REGISTER negotiation) is tested end to end through
:class:`PaperCluster`.
"""

import pytest

from repro.core import protocol
from repro.core.engine import (ENGINE_CHUNK_BYTES, IngestLimiter,
                               LocalCopyEngine, TransferEngine, build_items,
                               stripe_items)
from repro.errors import ReproError, WorkRequestError
from repro.harness.cluster import PaperCluster
from repro.rdma.verbs import connect
from repro.sim import Transfer
from repro.units import kib, mib


def _units(sizes, mr="mr"):
    """Synthetic whole-tensor transfer units with packed offsets."""
    units = []
    offset = 0
    for index, size in enumerate(sizes):
        units.append((f"t{index}", offset, 0x1000 + offset, 1, size, mr))
        offset += size
    return units


# -- build_items ---------------------------------------------------------------


def test_build_items_segments_large_tensors():
    chunk = kib(64)
    units = _units([kib(64) * 3 + 5, kib(64), 17, 0])
    items = build_items(units, chunk)
    # t0 -> 4 parts (3 full + 5 B tail), t1 and t2 whole, and the empty
    # t3 still posts its one (zero-byte) WR.
    assert [item.name for item in items] == \
        ["t0#0", "t0#1", "t0#2", "t0#3", "t1", "t2", "t3"]
    assert items[-1].size == 0
    assert sum(item.size for item in items) == sum(u[4] for u in units)
    assert {item.mr for item in items} == {"mr"}
    # Segments tile the tensor contiguously on both sides.
    parts = items[:4]
    for previous, part in zip(parts, parts[1:]):
        assert part.local_offset == previous.local_offset + previous.size
        assert part.remote_addr == previous.remote_addr + previous.size
    assert parts[-1].size == 5
    # Chunk pieces (the dedup layout): a piece past the segment size
    # keeps its ``digest8:tensor`` label on every segment, each item
    # targets its own chunk's MR, and an empty piece posts nothing.
    pieces = [("0a1b2c3d:w", 0, 0x9000, 7, chunk + 3, "mr-a"),
              ("0a1b2c3d:b", chunk + 3, 0x20000, 8, 0, "mr-a"),
              ("4e5f6a7b:w", 0, 0x9000 + chunk + 3, 7, 40, "mr-b")]
    items = build_items(pieces, chunk, numbered=False)
    assert [(item.name, item.size, item.mr) for item in items] == [
        ("0a1b2c3d:w", chunk, "mr-a"), ("0a1b2c3d:w", 3, "mr-a"),
        ("4e5f6a7b:w", 40, "mr-b")]
    assert items[1].local_offset == chunk
    assert items[1].remote_addr == 0x9000 + chunk


def test_build_items_none_disables_segmentation():
    units = _units([mib(64), kib(1)])
    items = build_items(units, None)
    assert [item.size for item in items] == [mib(64), kib(1)]
    assert [item.name for item in items] == ["t0", "t1"]
    pieces = build_items([("d:t", 0, 0, 1, mib(64), "mr"),
                          ("d:e", 0, 0, 1, 0, "mr")], None, numbered=False)
    assert [(item.name, item.size) for item in pieces] == [("d:t", mib(64))]


# -- stripe_items --------------------------------------------------------------


def test_stripe_items_lpt_balances_bytes():
    items = build_items(_units([100, 90, 80, 30, 20, 10, 10]), None)
    queues = stripe_items(items, 3)
    loads = [sum(item.size for item in queue) for queue in queues]
    # LPT on this multiset: 100+10+10, 90+20, 80+30.
    assert sorted(loads) == [110, 110, 120]
    # Largest-first within each lane.
    for queue in queues:
        sizes = [item.size for item in queue]
        assert sizes == sorted(sizes, reverse=True)


def test_stripe_items_is_deterministic_on_ties():
    items = build_items(_units([64] * 8), None)
    first = stripe_items(items, 3)
    second = stripe_items(items, 3)
    assert [[i.name for i in q] for q in first] == \
        [[i.name for i in q] for q in second]


# -- IngestLimiter -------------------------------------------------------------


def test_ingest_limiter_caps_and_queues():
    cluster = PaperCluster(seed=1, ampere_nodes=0, start_daemon=False)
    limiter = IngestLimiter(cluster.env, capacity=2)
    a, b, c = limiter.request("x"), limiter.request("x"), limiter.request("x")
    assert a.triggered and b.triggered and not c.triggered
    assert limiter.in_use == 2
    limiter.release(a)
    assert c.triggered
    limiter.release(b)
    limiter.release(c)
    assert limiter.in_use == 0


def test_ingest_limiter_grants_fair_share_across_owners():
    cluster = PaperCluster(seed=1, ampere_nodes=0, start_daemon=False)
    limiter = IngestLimiter(cluster.env, capacity=2)
    a1, a2 = limiter.request("a"), limiter.request("a")
    a3 = limiter.request("a")  # queued first...
    b1 = limiter.request("b")  # ...but b holds nothing
    assert not a3.triggered and not b1.triggered
    limiter.release(a1)
    # Owner-fair: the freed slot goes to b (zero held) over a's FIFO head.
    assert b1.triggered and not a3.triggered
    limiter.release(a2)
    assert a3.triggered


def test_ingest_limiter_cancel_queued_and_held():
    cluster = PaperCluster(seed=1, ampere_nodes=0, start_daemon=False)
    limiter = IngestLimiter(cluster.env, capacity=1)
    held = limiter.request("a")
    queued = limiter.request("b")
    queued.cancel()  # withdrawn from the wait queue
    follower = limiter.request("c")
    held.cancel()  # held token: cancel == release
    assert follower.triggered
    assert limiter.in_use == 1


# -- the engine over a real datapath -------------------------------------------


class _Rig:
    """A live GPU -> PMem datapath with *num_qps* server-side QPs."""

    def __init__(self, sizes, num_qps, seed=7):
        self.cluster = PaperCluster(seed=seed, ampere_nodes=0,
                                    start_daemon=False)
        self.sizes = sizes
        cluster = self.cluster

        def setup(env):
            total = sum(sizes)
            region = cluster.server.pmem_devdax.alloc(total, tag="rig")
            region_mr = yield from cluster.server.nic.register_mr(region)
            gpu = cluster.volta.gpus[0]
            units = []
            offset = 0
            for index, size in enumerate(sizes):
                src = gpu.alloc(size, tag=f"rig-t{index}")
                mr = yield from cluster.volta.nic.register_mr(src)
                units.append((f"t{index}", offset, mr.addr, mr.rkey, size,
                              region_mr))
                offset += size
            server_qps = []
            for _lane in range(num_qps):
                _client_qp, server_qp = yield from connect(
                    env, cluster.volta.nic, cluster.server.nic)
                server_qps.append(server_qp)
            return units, server_qps

        self.units, self.qps = cluster.run(setup)

    def items(self, chunk_bytes=ENGINE_CHUNK_BYTES):
        return build_items(self.units, chunk_bytes)

    def pull(self, chunk_bytes=ENGINE_CHUNK_BYTES, **kwargs):
        engine = TransferEngine(self.cluster.env, self.qps, **kwargs)
        items = self.items(chunk_bytes)
        holder = {}

        def scenario(env):
            holder["bytes"] = yield from engine.pull(items, "rig")

        self.cluster.run(scenario)
        return engine, holder["bytes"]


def test_engine_moves_every_byte_and_counts_wrs():
    sizes = [kib(256), kib(64), kib(7)]
    rig = _Rig(sizes, num_qps=2)
    engine, moved = rig.pull(depth=4, chunk_bytes=kib(64))
    assert moved == sum(sizes)
    assert engine.posted_wrs == 4 + 1 + 1
    nic = rig.cluster.server.nic
    assert nic.wrs_posted == engine.posted_wrs
    assert nic.wrs_completed == engine.posted_wrs
    assert nic.wrs_failed == 0
    assert nic.wrs_inflight == 0


def test_engine_peak_inflight_bounded_by_credits():
    rig = _Rig([kib(512)] * 2, num_qps=2)
    engine, _moved = rig.pull(depth=3, chunk_bytes=kib(16))
    # 64 items over 2 lanes, never more than depth per lane in flight.
    assert engine.posted_wrs == 64
    assert engine.peak_inflight <= 3 * 2
    # The sliding window actually fills its credits.
    assert engine.peak_inflight == 3 * 2


def test_engine_stream_limit_caps_global_inflight():
    rig = _Rig([kib(512)] * 2, num_qps=4)
    limiter = IngestLimiter(rig.cluster.env, capacity=2)
    engine, moved = rig.pull(depth=8, chunk_bytes=kib(32),
                             stream_limit=limiter)
    assert moved == kib(512) * 2
    assert engine.peak_inflight <= 2
    assert limiter.in_use == 0  # every token returned


def test_engine_barrier_mode_is_slower_than_pipelined():
    # Per-tensor WRs in registration order: every window holds one
    # straggler and three small tensors, so the barrier idles 3 of its
    # 4 slots while the straggler drains; the sliding window refills
    # them the moment each completion returns a credit.
    sizes = [kib(512), kib(16), kib(16), kib(16)] * 6
    elapsed = {}
    for pipelined in (True, False):
        rig = _Rig(sizes, num_qps=1)
        start = rig.cluster.env.now
        _engine, moved = rig.pull(depth=4, chunk_bytes=None,
                                  largest_first=False,
                                  pipelined=pipelined)
        assert moved == sum(sizes)
        elapsed[pipelined] = rig.cluster.env.now - start
    assert elapsed[True] < elapsed[False]


def test_engine_abort_flushes_every_qp_in_stripe_set():
    # Satellite 3: one failing WR must retire the in-flight WRs on ALL
    # lanes of the stripe set, not just the lane that saw the error.
    rig = _Rig([kib(256)] * 4, num_qps=4)
    nic = rig.cluster.server.nic
    state = {"reads": 0}

    def hook(kind, label, length):
        state["reads"] += 1
        if state["reads"] == 6:
            return WorkRequestError(f"{label}: injected")
        return None

    nic.fault_hook = hook
    epochs_before = [qp.epoch for qp in rig.qps]
    with pytest.raises(ReproError):
        rig.pull(depth=2, chunk_bytes=kib(32))
    for qp, before in zip(rig.qps, epochs_before):
        assert qp.epoch > before, "a lane of the stripe set was not flushed"


def test_engine_abort_rescues_hung_wrs_on_sibling_lanes():
    rig = _Rig([kib(256)] * 4, num_qps=4)
    nic = rig.cluster.server.nic
    state = {"reads": 0}

    def hook(kind, label, length):
        state["reads"] += 1
        if state["reads"] == 3:
            return "hang"  # a lost completion on one lane
        if state["reads"] == 9:
            return WorkRequestError(f"{label}: injected")
        return None

    nic.fault_hook = hook
    # Without the stripe-set flush the hung WR would park forever and
    # the run would deadlock instead of raising.
    with pytest.raises(ReproError):
        rig.pull(depth=2, chunk_bytes=kib(32))
    assert nic.wrs_inflight == 0


@pytest.mark.parametrize("pipelined", [True, False])
def test_engine_mid_window_wr_failure_returns_every_credit(pipelined):
    # One WR fails while its window is full and queued stream tokens are
    # racing the completions: the engine raises that WR's error (not a
    # sibling's flush error), and every credit and token comes back.
    rig = _Rig([kib(256)] * 2, num_qps=3)
    nic = rig.cluster.server.nic
    state = {"reads": 0}

    def hook(kind, label, length):
        state["reads"] += 1
        if state["reads"] == 5:
            return WorkRequestError(f"{label}: injected")
        return None

    nic.fault_hook = hook
    limiter = IngestLimiter(rig.cluster.env, capacity=4)
    engine = TransferEngine(rig.cluster.env, rig.qps, depth=3,
                            stream_limit=limiter, pipelined=pipelined)
    items = rig.items(kib(32))

    def scenario(env):
        yield from engine.pull(items, "rig")

    with pytest.raises(WorkRequestError, match="injected"):
        rig.cluster.run(scenario)
    assert engine._inflight_now == 0
    assert limiter.in_use == 0
    assert limiter._waiters == []
    assert engine.posted_wrs < 16  # the abort stopped posting


def test_engine_wrs_settling_during_wqe_cost_wake_the_lane_at_once():
    # Each WR completes while the lane is still paying the next WR's CPU
    # cost, so every wait after the first post finds a WR already settled
    # and must return at once.  The finish time is exact: n posts of
    # cost C, then the last WR's own latency d.  A lost "already
    # settled" wake would slip by d per WR, or hang on the last one.
    cost_ns = 50_000
    size = kib(4)
    count = 12

    def elapsed(sizes):
        rig = _Rig(sizes, num_qps=1)
        env = rig.cluster.env

        def wqe_cost():
            yield env.timeout(cost_ns)

        start = env.now
        _engine, moved = rig.pull(depth=2, chunk_bytes=None,
                                  wqe_cost=wqe_cost)
        assert moved == sum(sizes)
        return env.now - start

    latency = elapsed([size]) - cost_ns
    assert 0 < latency < cost_ns  # each WR settles inside the next cost
    assert elapsed([size] * count) == count * cost_ns + latency


def test_pipelined_checkpoint_builds_no_condition_in_lanes(monkeypatch):
    # A lane waits on one wake event per iteration, never an AnyOf over
    # its in-flight WRs.  The barrier lane still joins each window with
    # an AllOf, which shows the counter sees lane-built conditions.
    from repro.sim import process

    built = {"lane": 0}
    original = process.Condition.__init__

    def counting(self, env, events, count):
        active = env.active_process
        if active is not None and active.name.startswith("engine-"):
            built["lane"] += 1
        original(self, env, events, count)

    monkeypatch.setattr(process.Condition, "__init__", counting)

    def checkpoint_conditions(pipelined):
        built["lane"] = 0
        cluster = PaperCluster(seed=45, client_num_qps=4, daemon_kwargs={
            "engine": {"max_pmem_streams": 4, "pipelined": pipelined}})

        def scenario(env):
            session = yield from cluster.portus_register("alexnet")
            session.model.update_step(1)
            reply = yield from session.checkpoint(1)
            return reply["bytes_pulled"]

        assert cluster.run(scenario) > 0
        assert cluster.server.nic.wrs_posted > 8
        return built["lane"]

    assert checkpoint_conditions(pipelined=True) == 0
    assert checkpoint_conditions(pipelined=False) > 0


def test_local_copy_engine_single_stream_matches_one_transfer():
    total = mib(24)
    durations = []
    for chunked in (True, False):
        cluster = PaperCluster(seed=2, ampere_nodes=0, start_daemon=False)
        device = cluster.server.pmem_devdax

        def scenario(env, chunked=chunked, device=device):
            start = env.now
            if chunked:
                copier = LocalCopyEngine(env, device)
                yield from copier.move(total, label="probe")
            else:
                yield Transfer(env, [device.read_channel,
                                     device.write_channel], total,
                               label="probe")
            return env.now - start

        durations.append(cluster.run(scenario))
    assert durations[0] == durations[1]


# -- daemon-level behaviour ----------------------------------------------------


def _segments(size):
    return -(-size // ENGINE_CHUNK_BYTES)


def test_striped_checkpoint_restore_roundtrip_bit_exact():
    cluster = PaperCluster(seed=40, client_num_qps=4,
                           daemon_kwargs={"engine": {"max_pmem_streams": 4}})

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        model = session.model
        assert len(session.qps) == 4
        model.update_step(1)
        reply = yield from session.checkpoint(1)
        # Satellite 2: the DONE reply reports the bytes that crossed.
        assert reply["bytes_pulled"] == model.total_bytes
        for tensor in model.tensors:
            tensor.set_step(99)
        step = yield from session.restore()
        bad = [tensor.name for tensor in model.tensors
               if not tensor.content().equals(tensor.expected_content(1))]
        return step, bad

    step, bad = cluster.run(scenario)
    assert step == 1
    assert bad == []
    entry = cluster.daemon.model_map["alexnet"]
    assert len(entry.qps) == 4  # REGISTER negotiated the stripe set
    nic = cluster.server.nic
    assert nic.wrs_failed == 0
    assert nic.wrs_inflight == 0


def test_incremental_checkpoint_posts_only_dirty_wrs():
    # Satellite 1: the per-WR CPU charge follows WRs actually posted —
    # an incremental pull posts (and pays for) the dirty subset's
    # segments, not one WQE per model layer.
    cluster = PaperCluster(seed=41)

    def scenario(env):
        session = yield from cluster.portus_register("resnet50")
        model = session.model
        model.update_step(1)
        yield from session.checkpoint(1)
        nic = cluster.server.nic
        posted_before = nic.wrs_posted
        dirty = ["fc.weight", "fc.bias"]
        model.update_step(2, only=dirty)
        yield from session.checkpoint(2, dirty=dirty)
        expected = sum(_segments(t.size_bytes) for t in model.tensors
                       if t.name in dirty)
        return nic.wrs_posted - posted_before, expected, model

    posted, expected, model = cluster.run(scenario)
    assert posted == expected
    assert posted < len(model.tensors)  # far fewer than one per layer


def test_full_checkpoint_wr_count_includes_segmentation():
    cluster = PaperCluster(seed=42)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        session.model.update_step(1)
        nic = cluster.server.nic
        posted_before = nic.wrs_posted
        yield from session.checkpoint(1)
        expected = sum(_segments(t.size_bytes)
                       for t in session.model.tensors)
        return nic.wrs_posted - posted_before, expected

    posted, expected = cluster.run(scenario)
    assert posted == expected


def test_restore_reply_reports_bytes_pushed():
    cluster = PaperCluster(seed=43)

    def scenario(env):
        session = yield from cluster.portus_register("alexnet")
        model = session.model
        model.update_step(1)
        yield from session.checkpoint(1)
        reply = yield from session._call(
            lambda: protocol.do_restore(model.name),
            protocol.OP_RESTORE_DONE)
        return reply, model.total_bytes

    reply, total = cluster.run(scenario)
    assert reply["bytes_pushed"] == total
    assert cluster.daemon.bytes_pushed == total


def test_unknown_engine_option_is_rejected():
    with pytest.raises(ReproError):
        PaperCluster(seed=44, daemon_kwargs={"engine": {"typo": 1}})
