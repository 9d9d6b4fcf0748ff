"""Unit tests for the fabric and the TCP/IPoIB control plane."""

import pytest

from repro.errors import ConnectionClosed, NetworkError
from repro.net import Fabric, TcpStack
from repro.sim import Environment, Transfer
from repro.sim.resources import use_reference_scheduler
from repro.units import SECOND, gbytes, usecs


def make_pair():
    env = Environment()
    fabric = Fabric(env)
    port_a = fabric.attach("client")
    port_b = fabric.attach("server")
    stack_a = TcpStack(env, fabric, port_a, "client")
    stack_b = TcpStack(env, fabric, port_b, "server")
    return env, fabric, stack_a, stack_b


def test_fabric_unique_port_names():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("a")
    with pytest.raises(NetworkError):
        fabric.attach("a")


def test_fabric_path_loopback_is_free():
    env = Environment()
    fabric = Fabric(env)
    port = fabric.attach("solo")
    channels, latency = fabric.path(port, port)
    assert channels == []
    assert latency == 0


def test_fabric_wire_transfer_rate():
    env = Environment()
    fabric = Fabric(env, link_bw_bps=gbytes(10), latency_ns=usecs(1))
    src = fabric.attach("src")
    dst = fabric.attach("dst")

    def proc(env):
        channels, latency = fabric.path(src, dst)
        t = Transfer(env, channels, 10_000_000_000, latency_ns=latency)
        yield t
        return env.now

    assert env.run_process(env.process(proc(env))) == SECOND + usecs(1)


def test_tcp_connect_send_recv():
    env, _fabric, client, server = make_pair()
    result = {}

    def server_proc(env):
        listener = server.listen(9000)
        conn = yield from listener.accept()
        msg = yield from conn.recv()
        result["got"] = msg
        yield from conn.send({"reply": msg["n"] + 1})

    def client_proc(env):
        conn = yield from client.connect("server", 9000)
        yield from conn.send({"n": 41})
        reply = yield from conn.recv()
        result["reply"] = reply

    env.process(server_proc(env))
    env.process(client_proc(env))
    env.run()
    assert result["got"] == {"n": 41}
    assert result["reply"] == {"reply": 42}


@pytest.mark.parametrize("reference", [False, True],
                         ids=["incremental", "reference"])
def test_tcp_loopback_send(reference):
    """A stack connecting to its own hostname sends over the loopback
    path, which crosses no channel: the message pays the handshake and
    kernel latencies plus its capped wire time, on both schedulers."""
    env = Environment()
    if reference:
        use_reference_scheduler(env)
    fabric = Fabric(env)
    stack = TcpStack(env, fabric, fabric.attach("solo"), "solo")
    got = {}

    def server_proc(env):
        conn = yield from stack.listen(9000).accept()
        got["msg"] = yield from conn.recv()
        got["at"] = env.now

    def client_proc(env):
        conn = yield from stack.connect("solo", 9000)
        yield from conn.send("ping")

    env.process(server_proc(env))
    env.process(client_proc(env))
    env.run()
    # 3 handshake latencies + 1 message latency + ceil(256 B / 2.5 GB/s).
    assert got == {"msg": "ping", "at": 4 * usecs(25) + 103}


def test_tcp_messages_pay_kernel_latency():
    env, _fabric, client, server = make_pair()
    times = {}

    def server_proc(env):
        listener = server.listen(9000)
        conn = yield from listener.accept()
        yield from conn.recv()
        times["recv_at"] = env.now

    def client_proc(env):
        conn = yield from client.connect("server", 9000)
        times["send_at"] = env.now
        yield from conn.send("ping")

    env.process(server_proc(env))
    env.process(client_proc(env))
    env.run()
    # One-way must cost at least the 25 us kernel-stack latency.
    assert times["recv_at"] - times["send_at"] >= usecs(25)


def test_tcp_connection_refused():
    env, _fabric, client, _server = make_pair()

    def client_proc(env):
        with pytest.raises(NetworkError, match="refused"):
            yield from client.connect("server", 1234)
        return True

    assert env.run_process(env.process(client_proc(env)))


def test_tcp_unknown_host():
    env, _fabric, client, _server = make_pair()

    def client_proc(env):
        with pytest.raises(NetworkError, match="no host"):
            yield from client.connect("nowhere", 9000)
        return True

    assert env.run_process(env.process(client_proc(env)))


def test_tcp_close_wakes_receiver():
    env, _fabric, client, server = make_pair()

    def server_proc(env):
        listener = server.listen(9000)
        conn = yield from listener.accept()
        with pytest.raises(ConnectionClosed):
            yield from conn.recv()
        return "observed close"

    def client_proc(env):
        conn = yield from client.connect("server", 9000)
        yield env.timeout(1000)
        conn.close()

    sp = env.process(server_proc(env))
    env.process(client_proc(env))
    assert env.run_process(sp) == "observed close"


def test_duplicate_hostname_rejected():
    env = Environment()
    fabric = Fabric(env)
    TcpStack(env, fabric, fabric.attach("x"), "samehost")
    with pytest.raises(NetworkError, match="duplicate"):
        TcpStack(env, fabric, fabric.attach("y"), "samehost")
