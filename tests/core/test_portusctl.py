"""Tests for Portusctl: view, dump, and the console entry point."""

import pytest

from repro.core.portusctl import dump, dump_to_file, format_view, main, view
from repro.dnn.serialize import deserialize_state_dict
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import NoValidCheckpoint
from repro.harness.cluster import PaperCluster
from repro.units import kib


@pytest.fixture
def checkpointed_cluster():
    cluster = PaperCluster(seed=11)

    def scenario(env):
        session_a = yield from cluster.portus_register("alexnet", gpu=0)
        session_b = yield from cluster.portus_register("resnet50", gpu=1)
        session_a.model.update_step(10)
        session_b.model.update_step(20)
        yield from session_a.checkpoint(10)
        yield from session_b.checkpoint(20)
        return session_a, session_b

    sessions = cluster.run(scenario)
    return cluster, sessions


def test_view_lists_models_and_versions(checkpointed_cluster):
    cluster, _sessions = checkpointed_cluster
    rows = view(cluster.portus_pool)
    assert [row["model"] for row in rows] == ["alexnet", "resnet50"]
    alexnet = rows[0]
    assert alexnet["layers"] == 16
    states = {v["state"] for v in alexnet["versions"]}
    assert "DONE" in states


def test_format_view_renders_table(checkpointed_cluster):
    cluster, _sessions = checkpointed_cluster
    text = format_view(view(cluster.portus_pool))
    assert "alexnet" in text
    assert "DONE" in text
    assert "MODEL" in text


def _dedup_checkpointed_cluster():
    """A dedup model whose 32 KiB chunks straddle tensor boundaries, with
    a head-only second checkpoint: the dump must reassemble each tensor
    from pieces of shared and fresh chunks."""
    cluster = PaperCluster(seed=13)
    specs = [TensorSpec("body", (100, 300)), TensorSpec("bias", (77,)),
             TensorSpec("head", (64, 129))]

    def scenario(env):
        model = ModelInstance.materialize("dd", specs, cluster.volta.gpus[0],
                                          model_seed=13)
        session = yield from cluster.portus_client().register(
            model, dedup=True, chunk_bytes=kib(32))
        model.update_step(1)
        yield from session.checkpoint(1)
        model.update_step(2, only=["head"])
        yield from session.checkpoint(2)
        return model

    model = cluster.run(scenario)
    spans = cluster.daemon.model_map["dd"].chunk_spans
    assert any(len(span.pieces) > 1 for span in spans)
    return cluster, model, {"body": 1, "bias": 1, "head": 2}


@pytest.mark.parametrize("layout", ["contiguous", "dedup"])
def test_dump_is_loadable_and_bit_exact(layout, request):
    if layout == "dedup":
        cluster, model, steps = _dedup_checkpointed_cluster()
    else:
        cluster, (session_a, _b) = request.getfixturevalue(
            "checkpointed_cluster")
        model = session_a.model
        steps = {tensor.name: 10 for tensor in model.tensors}
    image = dump(cluster.portus_pool, model.name)
    parsed = deserialize_state_dict(image)
    assert len(parsed) == len(model.tensors)
    for tensor in model.tensors:
        _spec, payload = parsed[tensor.name]
        assert payload.equals(tensor.expected_content(steps[tensor.name]))


def test_dump_without_checkpoint_fails():
    cluster = PaperCluster(seed=12)

    def scenario(env):
        yield from cluster.portus_register("alexnet")

    cluster.run(scenario)
    with pytest.raises(NoValidCheckpoint):
        dump(cluster.portus_pool, "alexnet")


def test_dump_to_simulated_filesystem(checkpointed_cluster):
    cluster, _sessions = checkpointed_cluster

    def scenario(env):
        yield from cluster.volta_ext4.mkdir("/export")
        size = yield from dump_to_file(cluster.portus_pool, "resnet50",
                                       cluster.volta_ext4,
                                       "/export/resnet50.pt")
        return size

    size = cluster.run(scenario)
    assert size > 0
    assert cluster.volta_ext4.exists("/export/resnet50.pt")


def test_cli_view_runs(capsys):
    assert main(["view"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out
    assert "DONE" in out


def test_cli_dump_writes_host_file(tmp_path, capsys):
    target = tmp_path / "resnet50.pt"
    assert main(["dump", "resnet50", str(target)]) == 0
    data = target.read_bytes()
    assert data[:8] == b"RPTCKPT1"
    assert len(data) > 97 * 1024 * 1024  # the full 97 MiB of weights


def test_cli_repack_reports(capsys):
    assert main(["repack"]) == 0
    out = capsys.readouterr().out
    assert "reclaimed" in out


def test_cli_dump_unknown_model_exits_cleanly(tmp_path, capsys):
    """Regression: an unknown model must produce a clean error message
    and a nonzero exit, not a raw traceback from table.lookup()."""
    target = tmp_path / "nope.pt"
    assert main(["dump", "no-such-model", str(target)]) == 1
    captured = capsys.readouterr()
    assert "portusctl:" in captured.err
    assert "no-such-model" in captured.err
    assert not target.exists()


def test_cli_dump_model_without_checkpoint_exits_cleanly(tmp_path, capsys,
                                                         monkeypatch):
    """Regression: a model that exists but has no valid checkpoint also
    gets the clean-error path."""
    import repro.core.portusctl as portusctl_mod

    def demo_without_checkpoints(tracing=False):
        cluster = PaperCluster(seed=13)

        def scenario(env):
            yield from cluster.portus_register("alexnet")

        cluster.run(scenario)
        return cluster, cluster.portus_pool

    monkeypatch.setattr(portusctl_mod, "_demo_pool",
                        demo_without_checkpoints)
    assert main(["dump", "alexnet", str(tmp_path / "x.pt")]) == 1
    err = capsys.readouterr().err
    assert "portusctl:" in err and "NoValidCheckpoint" in err


def test_cli_stats_prints_metrics_json(capsys):
    import json

    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    snapshot = json.loads(out)
    assert snapshot["daemon.checkpoints_completed"]["value"] == 2
    assert snapshot["daemon.checkpoint_latency_ns"]["count"] == 2


def test_cli_stats_trace_out_writes_chrome_trace(tmp_path, capsys):
    import json

    trace_path = tmp_path / "demo.json"
    assert main(["stats", "--trace-out", str(trace_path)]) == 0
    trace = json.loads(trace_path.read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert "daemon.DO_CHECKPOINT" in names
    assert "engine.read" in names


# --- fleet mode: --daemons N ----------------------------------------------------


def test_cli_fsck_fleet_reports_every_shard(capsys):
    import json

    assert main(["fsck", "--daemons", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert sorted(report["shards"]) == ["server", "server1", "server2"]
    # Per-key rollup over the fleet: each demo shard holds one model.
    assert report["checked"]["models"] == 3
    for shard in report["shards"].values():
        assert shard["clean"] is True


def test_cli_fsck_fleet_text_has_rollup_line(capsys):
    assert main(["fsck", "--daemons", "2"]) == 0
    out = capsys.readouterr().out
    assert "== server ==" in out
    assert "== server1 ==" in out
    assert "fleet: clean (2/2 shards clean)" in out


def test_cli_health_fleet_rolls_up_worst_state(capsys):
    import json

    assert main(["health", "--daemons", "3", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["state"] == "healthy"
    assert sorted(snapshot["shards"]) == ["server", "server1", "server2"]
    for entry in snapshot["shards"].values():
        assert entry["state"] == "healthy"
        assert entry["sample"]["up"] is True


def test_cli_stats_fleet_embeds_per_shard_work(capsys):
    import json

    assert main(["stats", "--daemons", "2"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    per_shard = snapshot["fleet"]["per_shard"]
    assert sorted(per_shard) == ["server", "server1"]
    for entry in per_shard.values():
        assert entry["checkpoints_completed"] == 1
        assert entry["bytes_pulled"] > 0
    # The flat metrics snapshot rides along unchanged.
    assert "daemon.checkpoints_completed" in snapshot["metrics"]
