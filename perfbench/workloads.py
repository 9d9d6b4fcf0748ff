"""The benchmark's three workloads, driven through the program's public API.

Each workload turns ``--seed`` into plain inputs in ``__init__`` (model
shapes, per-model content seeds, which crash boundaries to sample); the
program only ever sees those inputs.  ``setup`` builds the
cluster, materializes the models and registers them; ``body`` is the timed
part and returns an :class:`Outcome` holding simulated samples, the
operation tally and every output-check miss.

* ``gpt-group`` — GPT-1.5B sharded TP8 x PP2, 16 members on the two Ampere
  nodes as one parallel group on one daemon; two group dumps, the weights
  scrambled, one group restore checked bit-exact.  Closed loop.
* ``fleet-mix`` — 48 tenants over 4 storage shards, open loop (700 ms base
  period x the 1/2/2/4 frequency cycle, 3 ticks each); every third tenant
  uses the dedup layout with head-only updates after its first dump; two
  live migrations mid-run (one contiguous, one dedup); then a restore
  storm, waves of 8 concurrent restores until >= 100 samples.
* ``crash-recover`` — a tiny-GPT TP2 x PP2 group plus one dedup model on
  one daemon; a counting pass numbers every metadata write boundary, then
  the lifecycle is replayed once per sampled boundary with the daemon
  crashing there, followed by repair -> fsck -> daemon restart -> restore of
  every model, checked for lost acknowledged steps, torn groups and
  bit-exactness.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.group import register_group
from repro.core.retry import RetryPolicy
from repro.dnn.gpt import GptConfig, shard_gpt, tiny_gpt
from repro.dnn.layout import gpt_layout
from repro.dnn.tensor import ModelInstance, TensorSpec
from repro.dnn.zoo import build_zoo_model, head_tensor_names
from repro.errors import (DedupMigrationUnsupported, NoValidCheckpoint,
                          NoValidGroupCheckpoint, ReproError)
from repro.faults.crashpoints import CrashPointRecorder
from repro.fleet import FleetClient, generate_tenants
from repro.fleet.workload import place_on_cluster
from repro.harness.cluster import PaperCluster
from repro.obs import MetricsRegistry
from repro.pmem import PmemPool, fsck, repair
from repro.sim.resources import scheduler_stats
from repro.units import kib, msecs, secs


class Outcome:
    """What one timed body produced: samples, tallies and check misses."""

    def __init__(self) -> None:
        #: Simulated latencies in ns, by kind (ckpt, restore, late, ...).
        self.samples: Dict[str, List[int]] = {}
        #: Logical bytes of acknowledged checkpoints / completed restores.
        self.ckpt_bytes = 0
        self.restore_bytes = 0
        #: Bytes written into PMem for those checkpoints (incl. moves).
        self.pulled_bytes = 0
        #: Pool bytes in use and live model bytes at the end of the run.
        self.pool_used = 0
        self.live_bytes = 0
        self.attempted = 0
        self.refused = 0
        self.problems: List[str] = []
        #: Extra simulated figures (on-time ticks, migration, ...).
        self.counts: Dict[str, float] = {}
        #: Every cluster's metrics, merged; events and solver counters.
        self.metrics = MetricsRegistry()
        self.events = 0
        self.sched: Dict[str, int] = {}

    @property
    def failed(self) -> int:
        return len(self.problems)

    def sample(self, kind: str, ns: int) -> None:
        self.samples.setdefault(kind, []).append(ns)

    def miss(self, what: str) -> None:
        """An operation failed or an output check did not hold."""
        self.problems.append(what)

    def absorb(self, cluster: PaperCluster) -> None:
        """Fold a finished cluster's counters into the run totals."""
        self.metrics.merge(cluster.obs.metrics)
        self.events += cluster.env._seq
        for key, value in scheduler_stats(cluster.env).items():
            self.sched[key] = self.sched.get(key, 0) + value


def _check_fsck(out: Outcome, pool, where: str) -> None:
    """One check operation: the pool holds no fsck finding."""
    out.attempted += 1
    report = fsck(pool)
    if not report.clean:
        out.miss(f"{where}: fsck not clean: {report.describe()}")


def _mismatches(instance: ModelInstance, steps: Dict[str, int]) -> List[str]:
    """Tensors of *instance* whose bytes differ from their step's pattern."""
    return [tensor.name for tensor in instance.tensors
            if not tensor.content().equals(
                tensor.expected_content(steps[tensor.name]))]


def _pool_used(cluster: PaperCluster) -> int:
    return sum(shard.pool.used_bytes for shard in cluster.shards)


# -- gpt-group ----------------------------------------------------------------

class GptGroup:
    """GPT-1.5B, TP8 x PP2, one parallel group, ingest-bound dumps."""

    name = "gpt-group"
    TP, PP = 8, 2
    DUMP_STEPS = (1, 2)
    #: GPT-1.5B: hidden, layers, heads, sequence length.
    SHAPE = (1600, 48, 25, 1024)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        hidden, layers, heads, seq_length = self.SHAPE
        # The padded vocabulary is the input that varies: Megatron pads
        # to a multiple of 128 x TP, so seeds pick one of eight paddings.
        self.config = GptConfig("gpt-1.5b", hidden=hidden, layers=layers,
                                heads=heads, seq_length=seq_length,
                                vocab_size=50304 + 1024 * rng.randrange(8))
        self.shards = shard_gpt(self.config, self.TP, self.PP)
        self.layout = gpt_layout(self.config, self.TP, self.PP)
        self.model_seeds = [rng.randrange(1, 1 << 30) for _ in self.shards]
        self.scramble_step = 1000 + rng.randrange(1000)

    def setup(self, tracing: bool = False):
        cluster = PaperCluster(seed=self.seed, tracing=tracing)
        state = {"cluster": cluster}

        def register(env):
            instances, sessions = [], []
            for index, shard in enumerate(self.shards):
                node = cluster.amperes[index // 8]
                instance = ModelInstance.materialize(
                    shard.name, shard.tensors, node.gpus[index % 8],
                    model_seed=self.model_seeds[index])
                session = yield from cluster.portus_client(node).register(
                    instance)
                instances.append(instance)
                sessions.append(session)
            state["instances"] = instances
            state["group"] = yield from register_group(
                cluster.portus_client(cluster.amperes[0]), self.config.name,
                self.layout, sessions)

        cluster.run(register)
        return state

    def body(self, state) -> Outcome:
        cluster, group = state["cluster"], state["group"]
        instances: List[ModelInstance] = state["instances"]
        total = sum(instance.total_bytes for instance in instances)
        out = Outcome()
        acked: List[int] = []

        def run(env):
            for step in self.DUMP_STEPS:
                for instance in instances:
                    instance.update_step(step)
                out.attempted += 1
                start = env.now
                try:
                    yield from group.dump(step)
                except ReproError as exc:
                    out.miss(f"group dump {step}: {exc!r}")
                    continue
                out.sample("ckpt", env.now - start)
                out.ckpt_bytes += total
                acked.append(step)
            for instance in instances:
                instance.update_step(self.scramble_step)
            out.attempted += 1
            start = env.now
            try:
                step = yield from group.restore()
            except ReproError as exc:
                out.miss(f"group restore: {exc!r}")
                return
            out.sample("restore", env.now - start)
            out.restore_bytes += total
            steps = {instance.step for instance in instances}
            bad = [instance.name for instance in instances
                   if _mismatches(instance, {t.name: step
                                             for t in instance.tensors})]
            if not acked or step != acked[-1] or steps != {step} or bad:
                out.miss(f"group restored step {step} (acked {acked}), "
                         f"member steps {sorted(steps)}, not bit-exact: "
                         f"{bad[:3]}")

        cluster.run(run)
        out.pulled_bytes = cluster.obs.metrics.value("daemon.bytes_pulled")
        out.pool_used = _pool_used(cluster)
        out.live_bytes = total
        _check_fsck(out, cluster.portus_pool, self.name)
        out.absorb(cluster)
        return out


# -- fleet-mix ----------------------------------------------------------------

class FleetMix:
    """48 tenants over 4 shards: open-loop dumps, migrations, restores."""

    name = "fleet-mix"
    TENANTS, SHARDS, TICKS = 48, 4, 3
    MODEL_CYCLE = ("resnet18", "resnet34", "swin_t", "convnext_tiny")
    BASE_PERIOD_NS = msecs(700)
    #: Every tenant also checkpoints a small auxiliary-state tensor (step
    #: counters, RNG and scheduler state) whose size the seed draws.  It
    #: is the input that varies: seeded per-tenant timer phases, even of
    #: 10 us, reorder the requests that meet at shared ticks and move the
    #: median dump latency by ~10% from seed to seed.
    MAX_EXTRA_STATE_BYTES = kib(256)
    MIN_RESTORE_SAMPLES = 100
    #: Tenants restoring at once in each wave of the restore storm.
    STORM_WAVE = 8
    #: The two tenants moved mid-run once their own ticks are done:
    #: tenant004 is contiguous, tenant000 uses the dedup layout.
    MIGRATE = ("tenant004", "tenant000")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tenants = generate_tenants(self.TENANTS, seed=seed,
                                        models=self.MODEL_CYCLE)
        rng = random.Random(seed ^ 0x5EED)
        self.extra_state = TensorSpec(
            "extra_state", (rng.randrange(1, self.MAX_EXTRA_STATE_BYTES // 4),))
        self.dedup = {spec.name for index, spec in enumerate(self.tenants)
                      if index % 3 == 0}
        self.heads = {name: frozenset(head_tensor_names(build_zoo_model(name)))
                      for name in self.MODEL_CYCLE}
        self.scramble_step = 1000 + rng.randrange(1000)

    def setup(self, tracing: bool = False):
        policy = RetryPolicy(rng=random.Random(self.seed ^ 0xF1EE7),
                             max_attempts=512, deadline_ns=secs(12),
                             reply_timeout_ns=secs(4))
        cluster = PaperCluster(seed=self.seed, ampere_nodes=2,
                               storage_nodes=self.SHARDS,
                               client_retry=policy, tracing=tracing,
                               admission=dict(max_ingests=8,
                                              retry_after_ns=msecs(10)))
        fleet = FleetClient(cluster)
        sessions = {}

        def register(env):
            for spec in self.tenants:
                node, gpu = place_on_cluster(cluster, spec)
                instance = ModelInstance.materialize(
                    spec.instance_name,
                    build_zoo_model(spec.model).tensors + [self.extra_state],
                    node.gpus[gpu], model_seed=spec.model_seed)
                sessions[spec.name] = yield from fleet.register(
                    spec.name, instance, node=node,
                    dedup=spec.name in self.dedup)

        cluster.run(register)
        return {"cluster": cluster, "fleet": fleet, "sessions": sessions}

    def body(self, state) -> Outcome:
        cluster, fleet = state["cluster"], state["fleet"]
        sessions = state["sessions"]
        specs = {spec.name: spec for spec in self.tenants}
        out = Outcome()
        #: tenant -> per-tensor content step of its newest acked dump.
        acked: Dict[str, Dict[str, int]] = {}
        out.counts.update(on_time=0, skipped=0)

        def tenant_loop(env, spec):
            session = sessions[spec.name]
            model = session.model
            period = spec.frequency * self.BASE_PERIOD_NS
            start = env.now
            for tick in range(1, self.TICKS + 1):
                due = start + tick * period
                if env.now < due:
                    yield env.timeout(due - env.now)
                out.attempted += 1
                out.sample("late", env.now - due)
                if env.now - due >= period:
                    # The next tick is already due: open loop skips this
                    # one rather than queueing; it missed its limit.
                    out.counts["skipped"] += 1
                    continue
                if spec.name in self.dedup and spec.name in acked:
                    model.update_step(tick, only=self.heads[spec.model])
                else:
                    model.update_step(tick)
                try:
                    yield from session.checkpoint(tick)
                except ReproError as exc:
                    out.miss(f"{spec.name} tick {tick}: {exc!r}")
                    continue
                latency = env.now - due
                out.sample("ckpt", latency)
                out.counts["on_time"] += latency <= period
                out.ckpt_bytes += model.total_bytes
                acked[spec.name] = {t.name: t.step for t in model.tensors}

        def migrate(env, loops):
            for name in self.MIGRATE:
                yield loops[name]
                spec = specs[name]
                src = fleet.shard_of(name, spec.instance_name)
                dst = cluster.shards[(src.index + 1) % len(cluster.shards)]
                out.attempted += 1
                start = env.now
                try:
                    _, moved = yield from fleet.migrate(
                        name, spec.instance_name, dst.name)
                except DedupMigrationUnsupported as exc:
                    # The typed refusal is the expected answer for a dedup
                    # model today; it counts against ops_ok_frac only.
                    if name in self.dedup:
                        out.refused += 1
                    else:
                        out.miss(f"{name}: contiguous move refused: {exc!r}")
                    continue
                except ReproError as exc:
                    out.miss(f"{name}: migration failed: {exc!r}")
                    continue
                out.counts["migrate_ns"] = (out.counts.get("migrate_ns", 0)
                                            + env.now - start)
                out.counts["migrate_bytes"] = (
                    out.counts.get("migrate_bytes", 0) + moved)

        def open_loop(env):
            loops = {spec.name: env.process(tenant_loop(env, spec),
                                            name=f"tenant:{spec.name}")
                     for spec in self.tenants}
            mover = env.process(migrate(env, loops), name="migrate")
            for proc in list(loops.values()) + [mover]:
                yield proc

        def restore_one(env, name):
            session = sessions[name]
            out.attempted += 1
            start = env.now
            try:
                step = yield from session.restore()
            except ReproError as exc:
                out.miss(f"{name}: restore failed: {exc!r}")
                return
            out.sample("restore", env.now - start)
            out.restore_bytes += session.model.total_bytes
            newest = max(acked[name].values())
            bad = _mismatches(session.model, acked[name])
            if step != newest or bad:
                out.miss(f"{name}: restored step {step} (acked {newest}), "
                         f"tensors not bit-exact: {bad[:3]}")

        def restore_storm(env):
            names = [spec.name for spec in self.tenants
                     if spec.name in acked]
            missing = [spec.name for spec in self.tenants
                       if spec.name not in acked]
            for name in missing:
                out.miss(f"{name}: no acknowledged checkpoint to restore")
            size = min(self.STORM_WAVE, len(names))
            waves = -(-self.MIN_RESTORE_SAMPLES // size) if names else 0
            for first in range(0, waves * size, size):
                wave = [names[(first + i) % len(names)] for i in range(size)]
                for name in wave:
                    sessions[name].model.update_step(self.scramble_step)
                procs = [env.process(restore_one(env, name),
                                     name=f"restore:{name}")
                         for name in wave]
                for proc in procs:
                    yield proc

        cluster.run(open_loop)
        cluster.run(restore_storm)
        metrics = cluster.obs.metrics
        out.pulled_bytes = (metrics.value("daemon.bytes_pulled")
                            + metrics.value("fleet.migrated_bytes"))
        out.pool_used = _pool_used(cluster)
        out.live_bytes = sum(s.model.total_bytes for s in sessions.values())
        completions = [
            metrics.value(f"daemon.{shard.node.name}.checkpoints_completed")
            for shard in cluster.shards]
        out.counts["ring_fairness"] = min(completions) / max(completions)
        for shard in cluster.shards:
            _check_fsck(out, shard.pool, f"{self.name}/{shard.name}")
        out.absorb(cluster)
        return out


# -- crash-recover ------------------------------------------------------------

class _Episode:
    """One crash-recover lifecycle, optionally crashed at a boundary."""

    def __init__(self, workload: "CrashRecover", tracing: bool,
                 crash_at: Optional[int]) -> None:
        self.w = workload
        policy = RetryPolicy(rng=random.Random(workload.seed ^ 0x6EED),
                             max_attempts=1, deadline_ns=secs(1),
                             reply_timeout_ns=msecs(500))
        self.cluster = PaperCluster(seed=workload.seed, ampere_nodes=0,
                                    client_retry=policy, tracing=tracing)
        self.device = self.cluster.server.pmem_devdax
        # The daemon process dies at the boundary; PMem keeps every byte
        # already stored (see CrashRecover for why not a power loss).
        self.recorder = CrashPointRecorder(
            self.device, crash_at=crash_at,
            power_fail=self.cluster.kill_daemon)
        #: Steps acknowledged / attempted per model ("group", "dedup").
        self.acked = {"group": [], "dedup": []}
        self.attempted = {"group": [], "dedup": []}
        self.group = None
        self.members: List[ModelInstance] = []
        self.dedup_session = None
        #: The last operation error seen (expected once the daemon dies).
        self.error: Optional[ReproError] = None

    def bind(self) -> None:
        """Materialize and register every model, then bind the group.
        Leaves ``dedup_session`` unset if the daemon dies part-way."""
        cluster, w = self.cluster, self.w
        self.group = self.dedup_session = None

        def register(env):
            client = cluster.portus_client()
            self.members, sessions = [], []
            try:
                for index, shard in enumerate(w.shards):
                    instance = ModelInstance.materialize(
                        shard.name, shard.tensors,
                        cluster.volta.gpus[index % 4],
                        model_seed=w.model_seeds[index])
                    sessions.append((yield from client.register(instance)))
                    self.members.append(instance)
                group = yield from register_group(
                    client, w.config.name, w.layout, sessions)
                dedup = ModelInstance.materialize(
                    "finetune", w.dedup_spec.tensors, cluster.volta.gpus[0],
                    model_seed=w.dedup_seed)
                session = yield from client.register(dedup, dedup=True)
            except ReproError as exc:
                self.error = exc
                return
            self.group, self.dedup_session = group, session

        cluster.run(register)

    def dump_all(self, out: Optional[Outcome]) -> None:
        """The dump phase; *out* collects latencies on the clean pass."""
        if self.dedup_session is None:
            return

        def lifecycle(env):
            model = self.dedup_session.model
            try:
                for step in self.w.DUMP_STEPS:
                    if self.recorder.fired is not None:
                        return
                    for instance in self.members:
                        instance.update_step(step)
                    self.attempted["group"].append(step)
                    start = env.now
                    yield from self.group.dump(step)
                    self.acked["group"].append(step)
                    if out is not None:
                        out.sample("ckpt", env.now - start)
                        out.ckpt_bytes += sum(m.total_bytes
                                              for m in self.members)
                    model.update_step(step, only=None if step == 1
                                      else self.w.heads)
                    self.attempted["dedup"].append(step)
                    start = env.now
                    yield from self.dedup_session.checkpoint(step)
                    self.acked["dedup"].append(step)
                    if out is not None:
                        out.sample("ckpt", env.now - start)
                        out.ckpt_bytes += model.total_bytes
            except ReproError as exc:
                self.error = exc

        self.cluster.run(lifecycle)

    def recover(self, out: Outcome) -> None:
        """Repair, fsck, restart the daemon, restore and check every model.

        Three operations per episode: repair to an fsck-clean pool, and
        the recovery of each model (group, dedup) to its newest
        acknowledged step.  Each counts one miss at most.
        """
        context = f"crash at {self.recorder.fired} acked={self.acked}"
        self.recorder.disarm()
        out.attempted += 3
        pool = PmemPool.open(self.device)
        result = repair(pool, obs=self.cluster.obs)
        report = fsck(pool)
        pool.close()
        if not (result.clean and report.clean):
            out.miss(f"{context}: pool not fsck-clean after repair: "
                     f"{report.describe()}")
        cluster = self.cluster
        restart = cluster.env.now
        try:
            cluster.restart_daemon()
        except ReproError as exc:
            for kind in ("group", "dedup"):
                out.miss(f"{context}: {kind} lost: restart failed: {exc!r}")
            return
        self.bind()
        if self.dedup_session is None:
            for kind in ("group", "dedup"):
                out.miss(f"{context}: {kind} lost: re-registration "
                         f"failed: {self.error!r}")
            return
        findings: Dict[str, List[str]] = {"group": [], "dedup": []}

        def restore(env):
            start = env.now
            try:
                step = yield from self.group.restore()
            except NoValidGroupCheckpoint:
                step = None
            findings["group"] += self._check("group", step)
            if step is not None:
                out.sample("restore", env.now - start)
                out.restore_bytes += sum(m.total_bytes for m in self.members)
                steps = {m.step for m in self.members}
                if steps != {step}:
                    findings["group"].append(f"torn group {sorted(steps)}")
                findings["group"] += [
                    f"{m.name} not bit-exact" for m in self.members
                    if _mismatches(m, {t.name: step for t in m.tensors})]
            start = env.now
            try:
                step = yield from self.dedup_session.restore()
            except NoValidCheckpoint:
                step = None
            findings["dedup"] += self._check("dedup", step)
            if step is not None:
                out.sample("restore", env.now - start)
                model = self.dedup_session.model
                out.restore_bytes += model.total_bytes
                if _mismatches(model, self.w.dedup_steps(model, step)):
                    findings["dedup"].append("not bit-exact")

        try:
            cluster.run(restore)
        except ReproError as exc:
            for kind in ("group", "dedup"):
                findings[kind].append(f"restore failed: {exc!r}")
        for kind, found in findings.items():
            if found:
                out.miss(f"{context}: {kind}: {'; '.join(found)}")
        if not any(findings.values()):
            out.sample("recovery", cluster.env.now - restart)

    def _check(self, kind: str, step: Optional[int]) -> List[str]:
        """Acknowledged steps are never lost; never-dumped ones never
        appear (an unacknowledged dump may legitimately survive)."""
        acked, attempted = self.acked[kind], self.attempted[kind]
        found = []
        if acked and (step is None or step < acked[-1]):
            found.append(f"lost acked step {acked[-1]} (restored {step})")
        if step is not None and step not in attempted:
            found.append(f"restored never-dumped step {step}")
        return found


class CrashRecover:
    """Daemon crashes at sampled metadata boundaries, then full recovery.

    The daemon process dies mid-operation (``FaultKind.DAEMON_CRASH``), so
    the pool holds half-done allocations, versions and records for repair
    and index recovery to clean up.  A power loss at the same boundaries
    is not used: it can tear a growing ``CommittedRecord`` slot, which
    ``repair`` does not yet make readable again (``PORTUS_CRASHPOINT_SEED=1
    python3 -m pytest tests/faults/test_group_crash.py`` fails at boundary
    2), and a workload must have no failing operation.
    """

    name = "crash-recover"
    TP, PP = 2, 2
    DUMP_STEPS = (1, 2, 3)
    EPISODES = 120

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.config = tiny_gpt(vocab_size=64 + 8 * rng.randrange(8))
        self.shards = shard_gpt(self.config, self.TP, self.PP)
        self.layout = gpt_layout(self.config, self.TP, self.PP)
        self.model_seeds = [rng.randrange(1, 1 << 30) for _ in self.shards]
        self.dedup_spec = build_zoo_model("resnet18")
        self.dedup_seed = rng.randrange(1, 1 << 30)
        self.heads = frozenset(head_tensor_names(self.dedup_spec))
        #: Where inside each stratum of the boundary schedule the sampled
        #: crash point lies.
        self.draws = [rng.random() for _ in range(self.EPISODES)]

    def dedup_steps(self, model: ModelInstance, step: int) -> Dict[str, int]:
        """Per-tensor content step of the dedup model dumped at *step*:
        the first dump is a full update, later ones touch only heads."""
        return {t.name: step if t.name in self.heads else 1
                for t in model.tensors}

    def setup(self, tracing: bool = False):
        episode = _Episode(self, tracing, crash_at=None)
        episode.bind()
        return {"episode": episode, "tracing": tracing}

    def body(self, state) -> Outcome:
        out = Outcome()
        counting: _Episode = state["episode"]
        counting.dump_all(out)
        out.attempted += 2 * len(self.DUMP_STEPS)
        if counting.error is not None:
            raise counting.error
        cluster = counting.cluster
        out.pulled_bytes = cluster.obs.metrics.value("daemon.bytes_pulled")
        out.pool_used = _pool_used(cluster)
        out.live_bytes = (sum(m.total_bytes for m in counting.members)
                          + counting.dedup_session.model.total_bytes)
        _check_fsck(out, cluster.portus_pool, "counting pass")
        out.absorb(cluster)

        # One crash point drawn from each of EPISODES equal strata of the
        # schedule.  A fixed stride would alias with the alternation of
        # write and persist boundaries and test only one kind per seed.
        boundaries = counting.recorder.count
        width = boundaries / self.EPISODES
        points = sorted({int((index + draw) * width)
                         for index, draw in enumerate(self.draws)})
        out.counts["boundaries"] = boundaries
        out.counts["episodes"] = len(points)
        for crash_at in points:
            episode = _Episode(self, state["tracing"], crash_at=crash_at)
            episode.bind()
            episode.dump_all(None)
            if episode.recorder.fired is None:
                out.miss(f"boundary {crash_at} never fired")
                continue
            episode.recover(out)
            out.absorb(episode.cluster)
        return out


WORKLOADS = {cls.name: cls for cls in (GptGroup, FleetMix, CrashRecover)}
