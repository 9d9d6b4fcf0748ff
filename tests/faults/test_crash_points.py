"""Crash-point chaos sweep: power loss at *every* metadata write boundary.

A counting pass runs the full lifecycle workload — register → checkpoint
x2 → daemon death → offline repack → restart → a second model's
register/checkpoint/unregister — with a :class:`CrashPointRecorder`
observing every ``CommittedRecord`` write and extent alloc/free boundary.
The sweep then replays the workload once per boundary, power-failing the
storage server at exactly that point, and asserts the recovery contract
on the survivor:

* the pool re-opens and ``repair`` leaves it fsck-clean;
* the newest acked checkpoint restores bit-exactly (committed bytes
  never regress past a crash);
* a crash inside unregister never strands a table entry over freed
  metadata (the daemon's remove-then-free ordering).

The schedule is pure simulation, so the same seed enumerates the same
boundaries byte-for-byte — ``PORTUS_CRASHPOINT_STRIDE`` (default 1)
subsamples it for quick loops.
"""

import os
import random
import zlib

import pytest

from repro.core.repack import repack
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
SEED = int(os.environ.get("PORTUS_CRASHPOINT_SEED", "11"))
TRACE_PATH = os.environ.get("CHAOS_TRACE")


def _trace(line):
    if TRACE_PATH:
        with open(TRACE_PATH, "a") as fh:
            fh.write(line + "\n")

SPECS = [TensorSpec("block.weight", (256, 128)),
         TensorSpec("block.bias", (256,)),
         TensorSpec("head.weight", (16, 256))]
LATE_SPECS = [TensorSpec("late.weight", (64, 64))]


class Episode:
    """One workload run with a recorder armed at ``crash_at``."""

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
        self.phase = "init"
        self.model = None

    def run_workload(self):
        cluster, recorder = self.cluster, self.recorder

        def lifecycle(env):
            try:
                self.phase = "register"
                self.model = ModelInstance.materialize(
                    "model", SPECS, cluster.volta.gpus[0], model_seed=SEED)
                session = yield from cluster.portus_client().register(
                    self.model)
                for step in (1, 2):
                    if recorder.fired:
                        return
                    self.phase = f"checkpoint-{step}"
                    self.model.update_step(step)
                    self.attempted.append(step)
                    yield from session.checkpoint(step)
                    self.acked.append(step)
            except ReproError:
                return

        cluster.run(lifecycle)
        if recorder.fired:
            return

        # A daemon generation boundary with an offline repack between —
        # exactly how portusctl would run against a stopped daemon.
        self.phase = "repack"
        cluster.kill_daemon()
        pool = PmemPool.open(self.device)
        try:
            repack(pool)
        except ReproError:
            return
        finally:
            pool.close()
        if recorder.fired:
            return
        self.phase = "restart"
        cluster.restart_daemon()

        def late_lifecycle(env):
            try:
                self.phase = "late-register"
                late = ModelInstance.materialize(
                    "late", LATE_SPECS, cluster.volta.gpus[1],
                    model_seed=SEED + 1)
                session = yield from cluster.portus_client().register(late)
                self.phase = "late-checkpoint"
                late.update_step(1)
                yield from session.checkpoint(1)
                if recorder.fired:
                    return
                self.phase = "unregister"
                yield from session.unregister()
                self.phase = "done"
            except ReproError:
                return

        cluster.run(late_lifecycle)

    def recover_and_verify(self):
        """The post-crash contract: repair to clean, then restore the
        newest acked checkpoint bit-exactly on a fresh daemon."""
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
            session = yield from cluster.portus_client().register(model)
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
            # An *unacked* step may legitimately survive: a power cut at
            # the persist boundary can still evict the commit to PMem.
            # What must never restore is a step nobody ever wrote.
            assert restored in self.attempted, \
                f"restored a never-written step: {context}"
            mismatches = [
                tensor.spec.name for tensor in model.tensors
                if not tensor.content().equals(
                    tensor.expected_content(restored))
            ]
            assert mismatches == [], f"torn restore {mismatches}: {context}"
        return restored


def _boundary_schedule():
    episode = Episode(crash_at=None)
    episode.run_workload()
    assert episode.phase == "done"
    assert episode.acked == [1, 2]
    return episode.recorder.boundaries


def test_counting_pass_covers_every_layer_and_ends_clean():
    episode = Episode(crash_at=None)
    episode.run_workload()
    assert episode.phase == "done" and episode.acked == [1, 2]
    points = {line.split(":")[1] for line in episode.recorder.boundaries}
    # The schedule must reach all four boundary kinds, or the sweep is
    # quietly skipping a whole class of crash windows.
    assert points == {"record.write", "record.persist", "alloc.commit",
                      "free.release"}
    assert episode.recorder.count >= 40
    pool = PmemPool.open(episode.device)
    assert fsck(pool).clean  # a fault-free lifecycle leaves no debris


def test_boundary_schedule_is_deterministic():
    assert _boundary_schedule() == _boundary_schedule()


def test_power_loss_at_every_boundary_recovers():
    schedule = _boundary_schedule()
    outcomes = []
    for index in range(0, len(schedule), STRIDE):
        episode = Episode(crash_at=index)
        episode.run_workload()
        assert episode.recorder.fired is not None, \
            f"boundary {index} never fired (schedule drifted?)"
        assert episode.recorder.fired == schedule[index]
        restored = episode.recover_and_verify()
        outcomes.append(f"{schedule[index]}:restored={restored}")
    assert len(outcomes) == len(range(0, len(schedule), STRIDE))
    crc = zlib.crc32("\n".join(schedule + outcomes).encode())
    _trace(f"crash-points seed={SEED} stride={STRIDE} "
           f"boundaries={len(schedule)} swept={len(outcomes)} "
           f"crc={crc:08x}")


def test_unregister_crash_never_strands_the_table():
    """Satellite of the sweep, pinned as its own regression: a crash at
    any boundary *inside unregister* must leave either a fully intact
    model or a cleanly removed one — never a table entry pointing at
    freed metadata (the pre-fix free-then-remove ordering)."""
    schedule = _boundary_schedule()
    counting = Episode(crash_at=None)
    counting.run_workload()
    # Recompute which boundary indices unregister spans: replay phases
    # is overkill — the late model's free boundaries carry its tag.
    unregister_span = [i for i, line in enumerate(schedule)
                       if i >= schedule.index(
                           next(l for l in schedule if "late" in l))]
    hit = 0
    for index in unregister_span:
        episode = Episode(crash_at=index)
        episode.run_workload()
        if episode.phase != "unregister":
            continue
        hit += 1
        pool = PmemPool.open(episode.device)
        report = fsck(pool)
        assert report.errors() == [], \
            f"crash at {episode.recorder.fired}:\n{report.describe()}"
        assert repair(pool, obs=episode.cluster.obs).clean
        pool.close()
    assert hit >= 3  # the remove/free window really was swept
