"""Unit tests for Resource, Store, and the fluid SharedChannel."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Resource, SharedChannel, Store, Transfer
from repro.sim.resources import use_reference_scheduler
from repro.units import SECOND, gbytes


# --- Resource ----------------------------------------------------------------


def test_resource_mutual_exclusion():
    env = Environment()
    resource = Resource(env, capacity=1)
    trace = []

    def worker(env, tag):
        req = resource.request()
        yield req
        trace.append((tag, "in", env.now))
        yield env.timeout(10)
        trace.append((tag, "out", env.now))
        resource.release(req)

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert trace == [("a", "in", 0), ("a", "out", 10),
                     ("b", "in", 10), ("b", "out", 20)]


def test_resource_capacity_two_admits_pair():
    env = Environment()
    resource = Resource(env, capacity=2)
    entered = []

    def worker(env, tag):
        req = resource.request()
        yield req
        entered.append((tag, env.now))
        yield env.timeout(10)
        resource.release(req)

    for tag in "abc":
        env.process(worker(env, tag))
    env.run()
    assert entered == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_cancel_waiting_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    held = resource.request()
    env.run()
    waiting = resource.request()
    assert resource.queue_length == 1
    waiting.cancel()
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.in_use == 0


# --- Store --------------------------------------------------------------------


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for item in (1, 2, 3):
            yield store.put(item)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [item for item, _ in got] == [1, 2, 3]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    result = {}

    def consumer(env):
        result["value"] = yield store.get()
        result["time"] = env.now

    def producer(env):
        yield env.timeout(42)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert result == {"value": "x", "time": 42}


def test_bounded_store_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("a")
        times.append(("a", env.now))
        yield store.put("b")
        times.append(("b", env.now))

    def consumer(env):
        yield env.timeout(100)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [("a", 0), ("b", 100)]


# --- Conditions -----------------------------------------------------------------


def test_allof_waits_for_slowest():
    env = Environment()

    def proc(env):
        t1 = env.timeout(10, "fast")
        t2 = env.timeout(30, "slow")
        result = yield AllOf(env, [t1, t2])
        return (env.now, result.values())

    assert env.run_process(env.process(proc(env))) == (30, ["fast", "slow"])


def test_anyof_returns_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(10, "fast")
        t2 = env.timeout(30, "slow")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, "fast" in result.values())

    assert env.run_process(env.process(proc(env))) == (10, True)


def test_allof_empty_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return (env.now, len(result))

    assert env.run_process(env.process(proc(env))) == (0, 0)


# --- SharedChannel ---------------------------------------------------------------


def test_single_transfer_takes_size_over_capacity():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        t = channel.transfer(1_000_000_000)  # 1 GB at 1 GB/s -> 1 s
        yield t
        return env.now

    assert env.run_process(env.process(proc(env))) == SECOND


def test_two_transfers_share_bandwidth_equally():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        t1 = channel.transfer(500_000_000)
        t2 = channel.transfer(500_000_000)
        yield AllOf(env, [t1, t2])
        return env.now

    # Two 0.5 GB flows at 0.5 GB/s each -> both finish at 1 s.
    assert env.run_process(env.process(proc(env))) == SECOND


def test_short_flow_releases_bandwidth_to_long_flow():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        long = channel.transfer(1_000_000_000)
        short = channel.transfer(100_000_000)
        yield short
        short_done = env.now
        yield long
        return (short_done, env.now)

    # Shared phase: short needs 0.1 GB at 0.5 GB/s -> done at 0.2 s, long has
    # moved 0.1 GB.  Solo phase: 0.9 GB at 1 GB/s -> +0.9 s -> 1.1 s total.
    short_done, long_done = env.run_process(env.process(proc(env)))
    assert short_done == pytest.approx(0.2 * SECOND, rel=1e-6)
    assert long_done == pytest.approx(1.1 * SECOND, rel=1e-6)


def test_latency_delays_first_byte():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        t = channel.transfer(1_000_000_000, latency_ns=5000)
        yield t
        return env.now

    assert env.run_process(env.process(proc(env))) == SECOND + 5000


def test_rate_cap_binds_below_fair_share():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(10))

    def proc(env):
        t = channel.transfer(1_000_000_000, rate_cap_bps=gbytes(1))
        yield t
        return env.now

    assert env.run_process(env.process(proc(env))) == pytest.approx(
        SECOND, rel=1e-6)


def test_capped_flow_leaves_residual_capacity_unused_by_it():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(2))

    def proc(env):
        capped = channel.transfer(1_000_000_000, rate_cap_bps=gbytes(0.5))
        free = channel.transfer(1_500_000_000)
        yield AllOf(env, [capped, free])
        return (capped.elapsed_ns, free.elapsed_ns)

    capped_ns, free_ns = env.run_process(env.process(proc(env)))
    # Max-min: capped flow pinned at 0.5 GB/s -> 2 s; free flow gets the
    # residual 1.5 GB/s -> 1 s.
    assert capped_ns == pytest.approx(2 * SECOND, rel=1e-6)
    assert free_ns == pytest.approx(1 * SECOND, rel=1e-6)


def test_multi_channel_path_bottleneck():
    env = Environment()
    fast = SharedChannel(env, capacity_bps=gbytes(10), name="fast")
    slow = SharedChannel(env, capacity_bps=gbytes(1), name="slow")

    def proc(env):
        t = Transfer(env, [fast, slow], 1_000_000_000)
        yield t
        return env.now

    assert env.run_process(env.process(proc(env))) == pytest.approx(
        SECOND, rel=1e-6)


def test_disjoint_channels_do_not_interfere():
    env = Environment()
    ch1 = SharedChannel(env, capacity_bps=gbytes(1))
    ch2 = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        t1 = ch1.transfer(1_000_000_000)
        t2 = ch2.transfer(1_000_000_000)
        yield AllOf(env, [t1, t2])
        return env.now

    assert env.run_process(env.process(proc(env))) == pytest.approx(
        SECOND, rel=1e-6)


def test_shared_bottleneck_with_private_segments():
    env = Environment()
    nic = SharedChannel(env, capacity_bps=gbytes(1), name="nic")
    pcie_a = SharedChannel(env, capacity_bps=gbytes(10), name="pcie-a")
    pcie_b = SharedChannel(env, capacity_bps=gbytes(10), name="pcie-b")

    def proc(env):
        t1 = Transfer(env, [pcie_a, nic], 500_000_000)
        t2 = Transfer(env, [pcie_b, nic], 500_000_000)
        yield AllOf(env, [t1, t2])
        return env.now

    # Both flows share only the NIC: 0.5 GB/s each -> 1 s.
    assert env.run_process(env.process(proc(env))) == pytest.approx(
        SECOND, rel=1e-6)


def test_zero_byte_transfer_completes_instantly():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        t = channel.transfer(0)
        yield t
        return env.now

    assert env.run_process(env.process(proc(env))) == 0


def test_sixteen_flows_fair_share():
    env = Environment()
    nic = SharedChannel(env, capacity_bps=gbytes(16))

    def proc(env):
        flows = [nic.transfer(1_000_000_000) for _ in range(16)]
        yield AllOf(env, flows)
        return env.now

    # 16 x 1 GB at 1 GB/s each -> all finish together at 1 s.
    assert env.run_process(env.process(proc(env))) == pytest.approx(
        SECOND, rel=1e-6)


def test_bytes_carried_accounting():
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))

    def proc(env):
        yield channel.transfer(123_456_789)

    env.run_process(env.process(proc(env)))
    assert channel.bytes_carried == 123_456_789


def test_bytes_carried_exact_after_many_rate_changes():
    """Carried bytes must equal transferred bytes *exactly*, even when
    every flow's rate changes many times.

    A finished flow adds its integer size to each channel on its path, so
    neither per-tick float increments nor the ceil'd wakeup horizon's
    overshoot can show in the count.  Staggered admits of awkward
    (non-divisible) sizes force dozens of rate recomputations.
    """
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1),
                            congested_capacity_bps=gbytes(1) // 2,
                            congestion_threshold=4)
    sizes = [123_456_789 + 7 * i for i in range(40)]

    def client(env, delay, size):
        yield env.timeout(delay)
        yield channel.transfer(size)

    for i, size in enumerate(sizes):
        env.process(client(env, i * 1_000_003, size))
    env.run()
    assert channel.bytes_carried == sum(sizes)


def test_finished_flow_keeps_its_final_rate():
    """Live flows read their rate from their path class; a finished flow
    must keep the rate it finished at when its class is re-solved."""
    env = Environment()
    channel = SharedChannel(env, capacity_bps=gbytes(1))
    seen = {}

    def proc(env):
        short = channel.transfer(100_000_000)
        long = channel.transfer(400_000_000)
        yield short
        # The same tick's re-solve gives the remaining class member the
        # whole channel.
        yield env.timeout(1)
        seen["short"], seen["long"] = short.rate_bps, long.rate_bps
        yield long
        seen["long_final"] = long.rate_bps

    env.run_process(env.process(proc(env)))
    assert seen == {"short": gbytes(1) / 2, "long": gbytes(1),
                    "long_final": gbytes(1)}


@pytest.mark.parametrize("reference", [False, True],
                         ids=["incremental", "reference"])
@pytest.mark.parametrize("cap, finished_at, rate", [
    (None, 1, float("inf")),
    (1e9, 1000, 1e9),
], ids=["uncapped", "capped"])
def test_channel_less_transfer_runs_at_its_cap(reference, cap, finished_at,
                                               rate):
    """A transfer on no channel (a loopback path) shares nothing: it runs
    at its cap, or without bound (one tick) when uncapped, on both
    schedulers, alongside unrelated channel traffic."""
    env = Environment()
    if reference:
        use_reference_scheduler(env)
    channel = SharedChannel(env, capacity_bps=gbytes(1))
    other = channel.transfer(1_000_000)
    loopback = Transfer(env, [], 1000, rate_cap_bps=cap)
    env.run()
    assert loopback.finished_at == finished_at
    assert loopback.rate_bps == rate
    assert other.finished_at == SECOND // 1000
