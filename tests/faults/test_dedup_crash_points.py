"""Crash-point chaos sweep over the dedup datapath's refcount boundaries.

The dedup lifecycle adds a fifth boundary kind to the schedule:
``chunkref.update`` fires before every ChunkTable commit (create / apply
/ unref / repair), alongside the usual record and allocator boundaries
that the manifest records and chunk extents hit.  The workload covers
every refcount persistence window:

* first checkpoint — chunk extents allocated, bytes pulled, ``apply``;
* delta checkpoint — shared increments plus fresh head chunks;
* slot overwrite — the third checkpoint's post-commit ``unref`` of the
  displaced manifest (decrement-then-free ordering);
* cross-tenant sharing — a second model, same base seed, bumping the
  backbone refcounts without new extents;
* unregister — both manifests unref'd, orphaned chunks freed.

Power loss at each boundary must leave a pool that ``repair`` brings to
fsck-clean — including the recomputed-refcount invariant — after which
the newest acked checkpoint restores bit-exactly.
"""

import os
import random
import zlib

import pytest

from repro.core.retry import RetryPolicy
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.errors import NoValidCheckpoint, ReproError
from repro.faults import FaultInjector
from repro.harness.cluster import PaperCluster
from repro.pmem import PmemPool
from repro.pmem.fsck import fsck, repair
from repro.units import msecs

pytestmark = pytest.mark.chaos

STRIDE = int(os.environ.get("PORTUS_CRASHPOINT_STRIDE", "1"))
SEED = int(os.environ.get("PORTUS_CRASHPOINT_SEED", "13"))
TRACE_PATH = os.environ.get("CHAOS_TRACE")


def _trace(line):
    if TRACE_PATH:
        with open(TRACE_PATH, "a") as fh:
            fh.write(line + "\n")

CHUNK = 64 * 1024

SPECS = [TensorSpec("block.weight", (256, 128)),   # 128 KiB
         TensorSpec("block.bias", (256,)),
         TensorSpec("head.weight", (16, 256))]     # 16 KiB


class DedupEpisode:
    """One dedup workload run with a recorder armed at ``crash_at``."""

    def __init__(self, crash_at=None):
        policy = RetryPolicy(rng=random.Random(SEED ^ 0x5EED),
                             max_attempts=1, deadline_ns=msecs(2),
                             reply_timeout_ns=msecs(1))
        self.cluster = PaperCluster(seed=SEED, ampere_nodes=0,
                                    client_retry=policy)
        self.injector = FaultInjector(self.cluster.env, self.cluster)
        self.device = self.cluster.server.pmem_devdax
        self.recorder = self.injector.arm_crash_point(self.device,
                                                      crash_at=crash_at)
        self.acked = []
        self.attempted = []
        #: step -> {tensor name -> the step whose bytes that checkpoint
        #: holds for it} (delta checkpoints leave clean tensors behind).
        self.tensor_steps = {}
        self.phase = "init"
        self.model = None

    def _stamp(self, step, only=None):
        current = dict(self.tensor_steps.get(max(self.tensor_steps),
                                             {})) if self.tensor_steps else {}
        for spec in SPECS:
            if only is None or spec.name in only:
                current[spec.name] = step
            else:
                current.setdefault(spec.name, 0)
        self.tensor_steps[step] = current

    def run_workload(self):
        cluster, recorder = self.cluster, self.recorder

        def lifecycle(env):
            try:
                self.phase = "register"
                self.model = ModelInstance.materialize(
                    "model", SPECS, cluster.volta.gpus[0], model_seed=SEED)
                session = yield from cluster.portus_client().register(
                    self.model, dedup=True, chunk_bytes=CHUNK)
                plan = [(1, None), (2, ["head.weight"]),
                        (3, ["head.weight"])]
                for step, only in plan:
                    if recorder.fired:
                        return
                    self.phase = f"checkpoint-{step}"
                    self.model.update_step(step, only=only)
                    self._stamp(step, only)
                    self.attempted.append(step)
                    yield from session.checkpoint(step)
                    self.acked.append(step)
            except ReproError:
                return

        cluster.run(lifecycle)
        if recorder.fired:
            return

        # A daemon generation boundary: recovery must rebuild the chunk
        # store's DRAM map from the committed ChunkTable.
        self.phase = "restart"
        cluster.restart_daemon()

        def tenant_lifecycle(env):
            try:
                self.phase = "tenant-register"
                tenant = ModelInstance.materialize(
                    "tenant", SPECS, cluster.volta.gpus[1],
                    model_seed=SEED)
                session = yield from cluster.portus_client().register(
                    tenant, dedup=True, chunk_bytes=CHUNK)
                self.phase = "tenant-checkpoint"
                tenant.update_step(1)  # same seed+step: shared chunks
                yield from session.checkpoint(1)
                if recorder.fired:
                    return
                self.phase = "unregister"
                yield from session.unregister()
                self.phase = "done"
            except ReproError:
                return

        cluster.run(tenant_lifecycle)

    def recover_and_verify(self):
        """Post-crash contract: repair to clean (refcounts included),
        then restore the newest acked checkpoint bit-exactly."""
        context = (f"crash at {self.recorder.fired} during "
                   f"phase={self.phase} acked={self.acked}")
        self.recorder.disarm()

        pool = PmemPool.open(self.device)
        result = repair(pool, obs=self.cluster.obs)
        assert result.clean, f"{context}:\n{result.describe()}"
        report = fsck(pool)
        assert report.clean, f"{context}:\n{report.describe()}"
        pool.close()

        self.cluster.restart_daemon()
        cluster, model = self.cluster, self.model

        def recover(env):
            model.update_step(0)  # scramble: restore must rewrite all
            session = yield from cluster.portus_client().register(
                model, dedup=True, chunk_bytes=CHUNK)
            try:
                step = yield from session.restore()
            except NoValidCheckpoint:
                return None
            return step

        restored = self.cluster.run(recover)
        if self.acked:
            assert restored is not None, f"acked steps lost: {context}"
            assert restored >= max(self.acked), \
                f"committed bytes regressed: {context}"
            assert restored in self.attempted, \
                f"restored a never-written step: {context}"
            expected = self.tensor_steps[restored]
            mismatches = [
                tensor.spec.name for tensor in model.tensors
                if not tensor.content().equals(
                    tensor.expected_content(expected[tensor.spec.name]))
            ]
            assert mismatches == [], f"torn restore {mismatches}: {context}"
        return restored


def _boundary_schedule():
    episode = DedupEpisode(crash_at=None)
    episode.run_workload()
    assert episode.phase == "done"
    assert episode.acked == [1, 2, 3]
    return episode.recorder.boundaries


def test_counting_pass_reaches_the_refcount_boundary():
    episode = DedupEpisode(crash_at=None)
    episode.run_workload()
    assert episode.phase == "done" and episode.acked == [1, 2, 3]
    points = {line.split(":")[1] for line in episode.recorder.boundaries}
    assert points == {"record.write", "record.persist", "alloc.commit",
                      "free.release", "chunkref.update"}
    ops = {line.split(":")[2] for line in episode.recorder.boundaries
           if line.split(":")[1] == "chunkref.update"}
    # Every ChunkTable commit class must appear in the schedule, or a
    # whole refcount crash window goes unswept.
    assert {"create", "apply", "unref"} <= ops
    pool = PmemPool.open(episode.device)
    assert fsck(pool).clean


def test_dedup_boundary_schedule_is_deterministic():
    assert _boundary_schedule() == _boundary_schedule()


def test_power_loss_at_every_dedup_boundary_recovers():
    schedule = _boundary_schedule()
    outcomes = []
    for index in range(0, len(schedule), STRIDE):
        episode = DedupEpisode(crash_at=index)
        episode.run_workload()
        assert episode.recorder.fired is not None, \
            f"boundary {index} never fired (schedule drifted?)"
        assert episode.recorder.fired == schedule[index]
        restored = episode.recover_and_verify()
        outcomes.append(f"{schedule[index]}:restored={restored}")
    assert len(outcomes) == len(range(0, len(schedule), STRIDE))
    crc = zlib.crc32("\n".join(schedule + outcomes).encode())
    _trace(f"dedup-crash-points seed={SEED} stride={STRIDE} "
           f"boundaries={len(schedule)} swept={len(outcomes)} "
           f"crc={crc:08x}")


def test_crash_between_apply_and_manifest_leaves_only_leaks():
    """Pinned regression for the apply→write_manifest→commit ordering:
    power loss right after the ChunkTable commit (before the manifest
    lands) must surface as chunk-ref *leaks*, never over-frees — the
    displaced references were not yet dropped."""
    schedule = _boundary_schedule()
    apply_points = [i for i, line in enumerate(schedule)
                    if ":chunkref.update:apply" in line]
    assert apply_points, "schedule lost the apply boundary"
    for index in apply_points:
        episode = DedupEpisode(crash_at=index)
        episode.run_workload()
        pool = PmemPool.open(episode.device)
        report = fsck(pool)
        overfrees = [f for f in report.findings
                     if f.kind == "chunk-ref-overfree"]
        assert overfrees == [], \
            f"crash at {episode.recorder.fired}:\n{report.describe()}"
        pool.close()
        episode.recover_and_verify()
