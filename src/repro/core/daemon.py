"""Portus Daemon: the user-space storage-server process.

Listens on TCP/IPoIB, keeps the three-level index (persistent ModelTable +
DRAM ModelMap of :class:`ModelEntry`), and serves four operations:

* REGISTER — build (or re-attach to) a model's index: allocate both
  TensorData versions, write the MIndex, register the server-side MRs,
  record the client's per-tensor rkeys.
* DO_CHECKPOINT — stamp the target version ACTIVE, pull every tensor
  with one-sided RDMA READs (segmented into WR-sized work items and
  striped over the client's QPs, so all tensors of a model pull in
  parallel), flush, stamp DONE.  Zero serialization, zero staging
  copies, zero kernel crossings on either side.
* DO_RESTORE — pick the newest DONE version and push every tensor back
  with one-sided RDMA WRITEs.
* UNREGISTER — drop the model and free its extents.

DO_CHECKPOINT and DO_RESTORE take one path for every model; the model's
persistent layout (contiguous version slots, or dedup chunk manifests)
only decides the work items and the persist/commit/abort steps, through
a per-operation plan from :mod:`repro.core.plans`.

Each connection is served by its own process and each request by its own
worker; a per-entry compare-and-swap guard (``busy``) keeps concurrent
checkpoints of the *same* model exclusive while different models proceed
fully in parallel — the paper's lock-free multi-tenant claim.  Replies
carry the request id of the request they answer, so a client with several
requests outstanding on one connection can match them (workers complete
in any order).

Fault tolerance:

* every reply send is guarded — a client that died mid-request costs the
  daemon nothing but a dropped-reply counter;
* an optional per-request timeout (``request_timeout_ns``) bounds how
  long a wedged datapath can hold an entry's CAS guard: the worker is
  interrupted, the pull aborted, and the client told to retry;
* an optional lease (``lease_ns`` + ``reaper_interval_ns``) detects
  vanished clients: any request or HEARTBEAT renews the lease, and the
  reaper detaches expired sessions — interrupting their in-flight pull
  (which aborts the ACTIVE version) and flushing their QP so late WR
  completions cannot deposit stale bytes;
* :meth:`stop` / :meth:`crash` model the daemon process exiting or
  dying: the port unbinds, connections drop, QPs flush, in-flight
  handlers are killed, and (on crash) the pool closes un-synced — the
  successor re-opens the pool and re-runs recovery.

All three knobs default to off, leaving the fast path byte-identical to
the non-hardened daemon.
"""

from __future__ import annotations

import logging

from typing import Dict, Generator, List, Optional

from repro.core import protocol
from repro.core.consistency import (begin_checkpoint, checkpoint_at_step,
                                    valid_checkpoint)
from repro.core.engine import (ENGINE_CHUNK_BYTES, IngestLimiter,
                               TransferEngine)
from repro.core.group import GroupStore
from repro.core.index import FLAG_NAMES, TABLE_TAG, ModelMeta, ModelTable
from repro.core.modelmap import ModelMap
from repro.core.plans import plan_for
from repro.dnn.layout import ShardedLayout
from repro.dnn.tensor import TensorSpec
from repro.dnn.dtypes import DType
from repro.errors import (CheckpointInProgress, ConnectionClosed,
                          GroupCommitRefused, ModelNotFound,
                          NoValidCheckpoint, NotAttached, PortusError,
                          ProcessInterrupted, ProtocolError, ReproError,
                          RequestTimeout)
from repro.hw.node import CpuSet, StorageNode
from repro.metrics import CostLedger
from repro.obs import Observability
from repro.net.tcp import TcpStack
from repro.pmem.chunks import ChunkStore
from repro.pmem.pool import PmemPool
from repro.sim import AnyOf, Environment
from repro.units import usecs

DEFAULT_PORT = 9900
#: Handler dispatch cost per request.
PER_REQUEST_CPU_NS = usecs(5)
#: Posting one RDMA work request (WQE build + doorbell amortized).
PER_WQE_CPU_NS = usecs(0.3)
#: Final persistence barrier after a pull (flushes ride along with the
#: incoming DMA; only the fence is serialized at the end).
FLUSH_BARRIER_NS = usecs(10)
#: QP send-queue depth: at most this many one-sided WRs in flight per
#: QP (real RC QPs bound outstanding reads the same way).  The transfer
#: engine reads this at posting time, so the QP-depth ablation can sweep
#: it per run.
QP_DEPTH = 32


class ModelEntry:
    """DRAM state for one registered model."""

    def __init__(self, meta: ModelMeta) -> None:
        self.meta = meta
        #: The stripe set: every QP the client registered for this model
        #: (``num_qps`` is negotiated at REGISTER time).
        self.qps: List = []
        self.client_tensors: Optional[List[Dict]] = None
        self.version_mrs: List = [None, None]
        #: Owning tenant (fleet accounting); None for legacy sessions.
        #: Re-learned at attach time after a daemon restart.
        self.tenant: Optional[str] = None
        self.busy = False  # the compare-and-swap guard
        #: Dedup models: the region's chunk spans (derived once from the
        #: persisted MIndex — the same cut the client hashes over; see
        #: :class:`repro.core.plans.ChunkedPlan`).
        self.chunk_spans = None
        self.last_seen_ns = 0
        #: The worker process currently holding the CAS guard, if any —
        #: the interrupt target for lease expiry and daemon death.
        self.inflight = None
        #: When the CAS guard was taken — the health model's wedge
        #: detector reads the oldest in-flight age from it.
        self.inflight_since_ns: Optional[int] = None

    @property
    def qp(self):
        """The primary QP (compatibility view of the stripe set)."""
        return self.qps[0] if self.qps else None

    @property
    def attached(self) -> bool:
        return bool(self.qps) and self.client_tensors is not None


class PortusDaemon:
    """The storage-server daemon over one devdax PMem pool."""

    def __init__(self, env: Environment, node: StorageNode, pool: PmemPool,
                 tcp: TcpStack, port: int = DEFAULT_PORT,
                 workers: int = 16,
                 request_timeout_ns: Optional[int] = None,
                 lease_ns: Optional[int] = None,
                 reaper_interval_ns: Optional[int] = None,
                 engine: Optional[Dict] = None,
                 obs: Optional[Observability] = None,
                 slow_request_ns: Optional[int] = None,
                 admission=None, tenants=None) -> None:
        if node.nic is None:
            raise PortusError(f"{node.name} has no RNIC")
        self.env = env
        self.node = node
        self.pool = pool
        self.tcp = tcp
        self.port = port
        self.workers = CpuSet(env, workers, name=f"{node.name}.portus")
        self.request_timeout_ns = request_timeout_ns
        self.lease_ns = lease_ns
        self.reaper_interval_ns = reaper_interval_ns
        # Datapath engine policy (see repro.core.engine): pipelined
        # sliding-window posting with 4 MiB segmentation by default;
        # ``pipelined=False`` restores the seed's barrier windows and
        # ``max_pmem_streams`` bounds total in-flight pull WRs so the
        # PMem ingest stays under the Optane congestion cliff.
        engine_opts = dict(engine or {})
        self.engine_pipelined = engine_opts.pop("pipelined", True)
        self.engine_chunk_bytes = engine_opts.pop("chunk_bytes",
                                                  ENGINE_CHUNK_BYTES)
        self.engine_largest_first = engine_opts.pop("largest_first", True)
        max_pmem_streams = engine_opts.pop("max_pmem_streams", None)
        if engine_opts:
            raise PortusError(
                f"unknown engine options: {sorted(engine_opts)}")
        self.obs = obs if obs is not None else Observability()
        #: Per-daemon admission controller (fleet backpressure) — a
        #: :class:`repro.fleet.admission.AdmissionController`, or None
        #: for the unbounded legacy daemon.
        self.admission = admission
        #: Fleet-wide :class:`repro.fleet.tenants.TenantRegistry`
        #: (shared across shards and daemon restarts), or None.
        self.tenants = tenants
        #: Counter scope for this shard's health-relevant counters —
        #: N daemons share one metrics registry, so the health model
        #: reads ``daemon.<node>.*`` to see only its shard's faults.
        self._scope = f"daemon.{node.name}."
        #: Requests slower than this (simulated ns) are logged and kept
        #: in :attr:`slow_requests`; None disables the check.
        self.slow_request_ns = slow_request_ns
        self.slow_requests: List[Dict] = []
        self._log = logging.getLogger("repro.portus.daemon")
        self._pmem_streams = (
            IngestLimiter(env, capacity=max_pmem_streams,
                          metrics=self.obs.metrics)
            if max_pmem_streams is not None else None)
        self.model_map = ModelMap()
        self.table = self._open_or_create_table()
        #: Parallel-group registry (group-commit records on this pool).
        self.groups = GroupStore.open_or_create(self.pool)
        self.ledger = CostLedger()
        self.checkpoints_completed = 0
        self.restores_completed = 0
        self.bytes_pulled = 0
        self.bytes_pushed = 0
        self.dropped_replies = 0
        self.reaped_sessions = 0
        self.stopped = False
        self._started = False
        self._listener = None
        self._conns: List = []

    # -- bootstrap / recovery ----------------------------------------------------

    def _open_or_create_table(self) -> ModelTable:
        if self.pool.find_by_tag(TABLE_TAG):
            table = ModelTable.open(self.pool)
            self._recover(table)
            return table
        return ModelTable.create(self.pool)

    def _recover(self, table: ModelTable) -> None:
        """Rebuild the DRAM ModelMap from the persistent index."""
        for name in table.names():
            meta = ModelMeta.open(self.pool, table.lookup(name))
            self.model_map.insert(name, ModelEntry(meta))

    def start(self) -> None:
        """Bind the control port and start accepting (non-blocking)."""
        if self._started:
            return
        self._listener = self.tcp.listen(self.port)
        self.env.process(self._accept_loop(self._listener),
                         name="portus-accept")
        if self.lease_ns is not None and self.reaper_interval_ns is not None:
            self.env.process(self._reaper_loop(), name="portus-reaper")
        self._started = True

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        """Stop serving: unbind the port and sever every connection.

        The pool stays open and in-flight handlers run to completion —
        their replies go nowhere (the connections are gone), but PMem
        state ends consistent.  A successor daemon can bind the same
        port immediately.
        """
        if self.stopped:
            return
        self.stopped = True
        if self._listener is not None:
            self._listener.close()
        for conn in list(self._conns):
            conn.drop()
        self._conns.clear()

    def crash(self) -> None:
        """The daemon process dies abruptly.

        Networking tears down as in :meth:`stop`, every attached QP is
        flushed to the error state (in-flight WR data is discarded —
        the DMA target mapping is gone), in-flight handlers are killed,
        and the pool closes un-synced.  PMem keeps whatever was
        persisted; the successor must :meth:`PmemPool.open` and recover.
        Callers simulating *power loss* should :meth:`PmemPool.crash`
        the pool before calling this.
        """
        self.stop()
        if not self.pool.closed:
            self.pool.close()
        for _name, entry in self.model_map.items():
            for qp in entry.qps:
                if qp.error is None:
                    qp.transition_to_error("daemon crashed")
            if entry.inflight is not None and entry.inflight.is_alive:
                entry.inflight.interrupt("daemon crashed")

    # -- serving -------------------------------------------------------------------

    def _accept_loop(self, listener) -> Generator:
        while True:
            try:
                conn = yield from listener.accept()
            except ConnectionClosed:
                return
            self._conns.append(conn)
            self.env.process(self._serve(conn), name="portus-conn")

    def _serve(self, conn) -> Generator:
        try:
            while True:
                try:
                    message = yield from conn.recv()
                except ConnectionClosed:
                    return
                self.env.process(self._dispatch(conn, message),
                                 name=f"portus-{message.get('op')}")
        finally:
            if conn in self._conns:
                self._conns.remove(conn)

    def _count(self, suffix: str, n: int = 1) -> None:
        """Bump a health-relevant counter both fleet-wide and per-shard.

        The global ``daemon.<suffix>`` name keeps every existing stats
        consumer working; the scoped ``daemon.<node>.<suffix>`` twin is
        what :meth:`health_snapshot` reads, so one shard's fault burst
        never degrades another shard's health classification.
        """
        self.obs.metrics.counter(f"daemon.{suffix}").inc(n)
        self.obs.metrics.counter(f"{self._scope}{suffix}").inc(n)

    def _dispatch(self, conn, message: Dict) -> Generator:
        op = message.get("op")
        rid = message.get("rid")
        handlers = {
            protocol.OP_REGISTER: self._handle_register,
            protocol.OP_DO_CHECKPOINT: self._handle_checkpoint,
            protocol.OP_DO_RESTORE: self._handle_restore,
            protocol.OP_UNREGISTER: self._handle_unregister,
            protocol.OP_LIST: self._handle_list,
            protocol.OP_HEARTBEAT: self._handle_heartbeat,
            protocol.OP_GROUP_REGISTER: self._handle_group_register,
            protocol.OP_GROUP_COMMIT: self._handle_group_commit,
            protocol.OP_GROUP_QUERY: self._handle_group_query,
        }
        handler = handlers.get(op)
        trace_id = protocol.trace_of(message)
        span = self.obs.tracer.span(self.env, f"daemon.{op}", cat="rpc",
                                    trace_id=trace_id, track="daemon",
                                    model=message.get("model"))
        self._count(f"requests.{op}")
        started = self.env.now
        failed = False
        try:
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            self._touch_lease(message)
            yield from self.workers.execute(PER_REQUEST_CPU_NS)
            if self.request_timeout_ns is None:
                reply, size = yield from handler(message)
            else:
                reply, size = yield from self._run_with_timeout(op, handler,
                                                                message)
            # Stamp at completion too: a request that legitimately runs
            # longer than the lease must not leave a stale stamp for the
            # reaper to trip over before the client's next request.
            self._touch_lease(message)
        except ReproError as exc:
            failed = True
            self._count(f"errors.{op}")
            reply, size = protocol.error_reply(exc)
        span.finish(error=failed)
        self._note_slow(op, message, started, failed)
        protocol.stamp_trace(reply, trace_id)
        if rid is not None:
            reply["rid"] = rid
        try:
            yield from conn.send(reply, wire_size=size)
        except ReproError:
            # The client died or the connection dropped mid-reply; the
            # work is done (or aborted) either way — drop the reply.
            self.dropped_replies += 1
            self._count("dropped_replies")

    def _note_slow(self, op: str, message: Dict, started: int,
                   failed: bool) -> None:
        """Record (and log) any request over the slow threshold."""
        if self.slow_request_ns is None:
            return
        duration = self.env.now - started
        if duration <= self.slow_request_ns:
            return
        record = {"op": op, "model": message.get("model"),
                  "started_ns": started, "duration_ns": duration,
                  "error": failed}
        self.slow_requests.append(record)
        self._count("slow_requests")
        self._log.warning(
            "slow request: %s model=%s took %d ns (threshold %d ns)%s",
            op, message.get("model"), duration, self.slow_request_ns,
            " [failed]" if failed else "")

    def _run_with_timeout(self, op: str, handler, message: Dict) -> Generator:
        """Process: run *handler* but bound its wall time.

        On expiry the worker is interrupted — its own cleanup aborts any
        ACTIVE version and releases the CAS guard — and the client gets a
        retryable :class:`RequestTimeout`.
        """
        worker = self.env.process(self._guarded(handler, message),
                                  name=f"portus-{op}-worker")
        yield AnyOf(self.env,
                    [worker, self.env.timeout(self.request_timeout_ns)])
        if not worker.triggered:
            worker.interrupt("request timeout")
            yield worker  # let the interrupt unwind the handler
            raise RequestTimeout(
                f"{op}: request exceeded {self.request_timeout_ns} ns")
        kind, value = worker.value
        if kind == "err":
            raise value
        return value

    def _guarded(self, handler, message: Dict) -> Generator:
        """Process: handler wrapper that never fails (outcome is tagged)."""
        try:
            result = yield from handler(message)
        except ProcessInterrupted as exc:
            # The reaper (or a crash) tore this session down mid-request.
            # The raw interruption is a simulator artifact; what the
            # client must see is a retryable "your attach is gone".
            return ("err", NotAttached(str(exc)))
        except ReproError as exc:
            return ("err", exc)
        return ("ok", result)

    # -- lease bookkeeping -------------------------------------------------------

    def _touch_lease(self, message: Dict) -> None:
        """Any request from a session renews its model's lease."""
        if self.lease_ns is None:
            return
        name = message.get("model")
        entry = self.model_map.get(name) if name else None
        if entry is not None:
            entry.last_seen_ns = self.env.now

    def _reaper_loop(self) -> Generator:
        while not self.stopped:
            yield self.env.timeout(self.reaper_interval_ns)
            if self.stopped:
                return
            self._reap_expired()

    def _reap_expired(self) -> None:
        """Detach every session whose lease ran out.

        An in-flight pull for a vanished client is interrupted (its
        cleanup aborts the ACTIVE version and releases the CAS guard) and
        the session QP is flushed so late completions cannot deposit
        stale bytes into a slot a future checkpoint may claim.  The
        persistent index is untouched — the model's committed versions
        survive for the client's successor to re-attach to.
        """
        deadline = self.env.now - self.lease_ns
        for name, entry in list(self.model_map.items()):
            if not entry.attached or entry.last_seen_ns > deadline:
                continue
            if (self.request_timeout_ns is not None
                    and entry.inflight is not None
                    and entry.inflight.is_alive):
                # A live request is proof of liveness: a healthy pull can
                # legitimately outlast a short lease, and a wedged one is
                # the request timeout's job to kill.  Only a daemon with
                # no request timeout reaps in-flight work (last resort).
                continue
            self.reaped_sessions += 1
            self._count("reaped_sessions")
            qps = entry.qps
            entry.qps = []
            entry.client_tensors = None
            if entry.inflight is not None and entry.inflight.is_alive:
                entry.inflight.interrupt(f"{name}: session lease expired")
            for qp in qps:
                if qp.error is None:
                    qp.transition_to_error(
                        f"{name}: session lease expired")

    # -- entry helpers ----------------------------------------------------------------

    def _entry(self, model_name: str) -> ModelEntry:
        entry = self.model_map.get(model_name)
        if entry is None:
            raise ModelNotFound(model_name)
        return entry

    def _claim(self, entry: ModelEntry) -> None:
        """The CAS: atomically take exclusive use of this entry."""
        if entry.busy:
            raise CheckpointInProgress(
                f"{entry.meta.mindex.model_name}: operation already "
                "in flight")
        entry.busy = True
        entry.inflight = self.env.active_process
        entry.inflight_since_ns = self.env.now

    def _release(self, entry: ModelEntry) -> None:
        entry.busy = False
        entry.inflight = None
        entry.inflight_since_ns = None

    # -- REGISTER ------------------------------------------------------------------------

    def _handle_register(self, message: Dict) -> Generator:
        if self.admission is None:
            return (yield from self._register_inner(message))
        self.admission.enter("register")
        try:
            return (yield from self._register_inner(message))
        finally:
            self.admission.exit("register")

    def _register_inner(self, message: Dict) -> Generator:
        name = message["model"]
        tensors = message["tensors"]
        dedup = message.get("dedup")
        tenant = message.get("tenant")
        # Multi-QP REGISTER: the client may bring a whole stripe set; a
        # legacy single-QP packet is a stripe set of one.
        qps = message.get("qps") or [message["qp"]]
        specs = [
            TensorSpec(t["name"], tuple(t["shape"]),
                       DType.by_name(t["dtype"])) for t in tensors
        ]
        entry = self.model_map.get(name)
        if entry is None:
            if tenant is not None and self.tenants is not None:
                # Charge the persistent footprint (two version slots)
                # against the tenant's byte quota BEFORE any pool
                # allocation — a quota reject must leave no state.
                self.tenants.charge_bytes(
                    tenant, name,
                    2 * sum(spec.size_bytes for spec in specs))
            try:
                if dedup is not None:
                    chunk_bytes = int(dedup["chunk_bytes"])
                    # The chunk store is pool-wide; first dedup model
                    # formats it and later ones must agree on the chunk
                    # size.
                    ChunkStore.ensure(self.pool, chunk_bytes=chunk_bytes)
                    meta = ModelMeta.create_dedup(self.pool, name, specs,
                                                  chunk_bytes)
                else:
                    meta = ModelMeta.create(self.pool, name, specs)
            except ReproError:
                if tenant is not None and self.tenants is not None:
                    self.tenants.release_bytes(tenant, name)
                raise
            entry = ModelEntry(meta)
            self.model_map.insert(name, entry)
            self.table.insert(name, meta.meta.addr)
        else:
            self._validate_attach(entry, specs)
            self._validate_dedup_attach(entry, dedup)
            # A repacked model may be missing a version slot; rebuild it.
            entry.meta.ensure_regions()
        # (Re-)register the server-side MRs over both TensorData versions
        # (dedup models have none: their bytes live in per-chunk extents
        # whose MRs are registered per operation).
        if not entry.meta.dedup:
            for version in (0, 1):
                if entry.version_mrs[version] is None:
                    entry.version_mrs[version] = yield from \
                        self.node.nic.register_mr(
                            entry.meta.data_region(version))
        entry.qps = list(qps)
        entry.client_tensors = tensors
        if tenant is not None:
            entry.tenant = tenant
        entry.last_seen_ns = self.env.now
        return protocol.reply(protocol.OP_REGISTERED, model=name,
                              layers=len(tensors), num_qps=len(entry.qps))

    def _validate_attach(self, entry: ModelEntry,
                         specs: List[TensorSpec]) -> None:
        index = entry.meta.mindex
        if len(specs) != index.layer_count:
            raise PortusError(
                f"{index.model_name}: attach with {len(specs)} tensors, "
                f"index has {index.layer_count}")
        for spec, descriptor in zip(specs, index.descriptors):
            if (spec.name != descriptor.name
                    or spec.size_bytes != descriptor.size):
                raise PortusError(
                    f"{index.model_name}: tensor {spec.name!r} does not "
                    f"match the persisted index entry {descriptor.name!r}")

    @staticmethod
    def _validate_dedup_attach(entry: ModelEntry,
                               dedup: Optional[Dict]) -> None:
        name = entry.meta.mindex.model_name
        if entry.meta.dedup != (dedup is not None):
            have = "dedup" if entry.meta.dedup else "contiguous"
            want = "dedup" if dedup is not None else "contiguous"
            raise PortusError(
                f"{name}: attach requests the {want} layout but the "
                f"persisted model uses the {have} layout")
        if dedup is not None and \
                int(dedup["chunk_bytes"]) != entry.meta.chunk_bytes:
            raise PortusError(
                f"{name}: attach with chunk_bytes="
                f"{int(dedup['chunk_bytes'])}, persisted model uses "
                f"{entry.meta.chunk_bytes}")

    # -- the datapath engine -------------------------------------------------------

    def _engine(self, qps: List, ingest: bool,
                trace_id: Optional[int] = None) -> TransferEngine:
        """One transfer engine per operation over the pinned stripe set.

        ``QP_DEPTH`` is read here (not at daemon construction) so the
        QP-depth ablation's per-run sweep still bites.  The PMem ingest
        limiter only applies to pulls — restores read PMem, and Optane
        reads do not congest.
        """
        return TransferEngine(
            self.env, qps, depth=QP_DEPTH,
            pipelined=self.engine_pipelined,
            largest_first=self.engine_largest_first,
            stream_limit=self._pmem_streams if ingest else None,
            wqe_cost=lambda: self.workers.execute(PER_WQE_CPU_NS),
            obs=self.obs, trace_id=trace_id)

    # -- DO_CHECKPOINT --------------------------------------------------------------------

    def _handle_checkpoint(self, message: Dict) -> Generator:
        entry = self._entry(message["model"])
        if self.tenants is not None and entry.tenant is not None:
            # Token-bucket bandwidth budget: debit the logical size (the
            # bytes this dump *represents*); over-budget tenants get a
            # typed reject with an exact deterministic retry-after.
            self.tenants.reserve_bandwidth(
                entry.tenant, entry.meta.mindex.total_bytes, self.env.now)
        if self.admission is None:
            return (yield from self._checkpoint_gated(message, entry))
        self.admission.enter("ingest")
        try:
            return (yield from self._checkpoint_gated(message, entry))
        finally:
            self.admission.exit("ingest")

    def _checkpoint_gated(self, message: Dict,
                          entry: ModelEntry) -> Generator:
        """Stamp the target version ACTIVE, pull, persist, commit.

        The entry's layout plan (:mod:`repro.core.plans`) supplies the
        work items and the persist/commit/abort steps.  Every failure
        after the plan's request checks counts as an aborted checkpoint,
        and on a live pool the plan rolls the ACTIVE version back.
        """
        name = message["model"]
        step = message["step"]
        if not entry.attached:
            raise NotAttached(f"{name}: no attached client to pull from")
        trace_id = protocol.trace_of(message)
        plan = plan_for(self, entry, trace_id)
        self._claim(entry)
        # Pin the stripe set: a re-attach mid-pull must not redirect us.
        qps = list(entry.qps)
        started = self.env.now
        try:
            plan.prepare_checkpoint(message)
            flags_before = entry.meta.read_flags()
            # The engine charges PER_WQE_CPU_NS per WR actually posted —
            # an incremental or dedup pull pays for the bytes it moves
            # (and their segmentation), not the whole layer count.
            engine = self._engine(qps, ingest=True, trace_id=trace_id)
            target = None
            try:
                with self.obs.tracer.span(self.env, "ckpt.begin", cat="ckpt",
                                          trace_id=trace_id, track="daemon",
                                          model=name):
                    target = begin_checkpoint(entry.meta)
                items = yield from plan.checkpoint_items(message, flags_before,
                                                         target)
                pulled = yield from engine.pull(items, f"pull:{name}")
                if self.pool.closed:
                    # The server lost power mid-pull: this daemon instance
                    # is gone; the target slot stays ACTIVE on the
                    # (recovered) pool and will never be trusted by a
                    # restore.
                    raise PortusError(
                        f"{name}: server crashed during checkpoint")
                with self.obs.tracer.span(self.env, "ckpt.persist_commit",
                                          cat="ckpt", trace_id=trace_id,
                                          track="daemon", model=name):
                    plan.persist(target)
                    yield self.env.timeout(FLUSH_BARRIER_NS)
                    plan.commit(target, step)
            except ReproError:
                # A failed engine has already flushed the whole stripe
                # set, so no in-flight read can land stale bytes in a
                # slot the next checkpoint may claim.
                self._count("checkpoints_aborted")
                if target is not None and not self.pool.closed:
                    plan.abort(target, engine.bytes_landed)
                raise
        finally:
            plan.release()
            self._release(entry)
        duration = self.env.now - started
        fields = plan.reply_fields()
        self.ledger.add("rdma_pull", duration)
        self.checkpoints_completed += 1
        self.bytes_pulled += pulled
        self._count("checkpoints_completed")
        self.obs.metrics.counter("daemon.bytes_pulled").inc(pulled)
        for field, value in fields.items():
            self.obs.metrics.counter(f"daemon.{field}").inc(value)
        self.obs.metrics.histogram(
            "daemon.checkpoint_latency_ns").record(duration)
        return protocol.reply(protocol.OP_CHECKPOINT_DONE, model=name,
                              step=step, version=target,
                              duration_ns=duration, bytes_pulled=pulled,
                              **fields)

    # -- DO_RESTORE -----------------------------------------------------------------------

    @staticmethod
    def _restore_version(entry: ModelEntry, message: Dict):
        """The version a restore should push: newest DONE by default, or
        the DONE slot at the exact pinned ``step`` (group restores pin
        every member to the committed group step)."""
        pinned = message.get("step")
        if pinned is None:
            return valid_checkpoint(entry.meta)
        return checkpoint_at_step(entry.meta, pinned), pinned

    def _handle_restore(self, message: Dict) -> Generator:
        name = message["model"]
        entry = self._entry(name)
        if not entry.attached:
            raise NotAttached(f"{name}: no attached client to push to")
        trace_id = protocol.trace_of(message)
        plan = plan_for(self, entry, trace_id)
        self._claim(entry)
        qps = list(entry.qps)
        started = self.env.now
        try:
            version, step = self._restore_version(entry, message)
            items = yield from plan.restore_items(version)
            engine = self._engine(qps, ingest=False, trace_id=trace_id)
            try:
                pushed = yield from engine.push(items, f"push:{name}")
            except ReproError:
                # A restore mutates nothing on PMem; the engine already
                # retired the in-flight WRs on every QP of the stripe
                # set so they cannot write stale bytes into the client
                # after it re-attaches and retries.
                self._count("restores_aborted")
                raise
            if self.pool.closed:
                raise PortusError(f"{name}: server crashed during restore")
        finally:
            plan.release()
            self._release(entry)
        duration = self.env.now - started
        self.ledger.add("rdma_push", duration)
        self.restores_completed += 1
        self.bytes_pushed += pushed
        self._count("restores_completed")
        self.obs.metrics.counter("daemon.bytes_pushed").inc(pushed)
        self.obs.metrics.histogram(
            "daemon.restore_latency_ns").record(duration)
        return protocol.reply(protocol.OP_RESTORE_DONE, model=name,
                              step=step, version=version,
                              duration_ns=duration, bytes_pushed=pushed)

    # -- UNREGISTER ------------------------------------------------------------------------

    def _handle_unregister(self, message: Dict) -> Generator:
        name = message["model"]
        entry = self._entry(name)
        self._claim(entry)
        try:
            for version in (0, 1):
                mr = entry.version_mrs[version]
                if mr is not None:
                    self.node.nic.deregister_mr(mr)
            # Remove the ModelTable entry (committed) BEFORE releasing
            # the extents: a crash mid-unregister then only leaks
            # GC-able extents, instead of leaving a table entry that
            # points at freed metadata and wedges the next recovery.
            self.table.remove(name)
            entry.meta.free()
            self.model_map.delete(name)
            if self.tenants is not None and entry.tenant is not None:
                self.tenants.release_bytes(entry.tenant, name)
        finally:
            self._release(entry)
        return protocol.reply(protocol.OP_UNREGISTERED, model=name)
        yield  # pragma: no cover - keeps this a generator

    # -- GROUPS ------------------------------------------------------------------------------

    def _handle_group_register(self, message: Dict) -> Generator:
        """Bind registered member models into one named group.

        The layout is validated (every member must already exist in the
        index) and persisted in the group's commit record at committed
        step 0; re-registering with the identical layout attaches (the
        restart path), a different layout is refused.
        """
        name = message["group"]
        blob = bytes(message["layout"])
        layout = ShardedLayout.unpack(blob)
        for member in layout.members:
            if self.model_map.get(member) is None:
                raise ModelNotFound(
                    f"group {name!r} member {member!r} is not registered")
        record = self.groups.register(name, blob)
        self._count("group_registers")
        return protocol.reply(protocol.OP_GROUP_REGISTERED, group=name,
                              step=record.committed_step,
                              members=len(layout.members))
        yield  # pragma: no cover - generator protocol

    def _handle_group_commit(self, message: Dict) -> Generator:
        """Phase two of a group dump: make *step* visible atomically.

        Refused (typed, nothing written) unless EVERY member holds a
        DONE slot at exactly *step* — the record must never name a step
        a pinned restore cannot serve.  The commit itself is one A/B
        record write; the explicit ``group.ack`` crash hook after it
        covers the persisted-but-unacked window in the crash sweep.
        """
        name = message["group"]
        step = message["step"]
        record = self.groups.lookup(name)
        for member in record.layout().members:
            entry = self.model_map.get(member)
            if entry is None:
                raise GroupCommitRefused(
                    f"group {name!r}: member {member!r} vanished from "
                    f"the index")
            try:
                checkpoint_at_step(entry.meta, step)
            except NoValidCheckpoint:
                raise GroupCommitRefused(
                    f"group {name!r}: member {member!r} has no DONE "
                    f"checkpoint at step {step}") from None
        if step < record.committed_step:
            raise GroupCommitRefused(
                f"group {name!r}: commit of step {step} behind committed "
                f"step {record.committed_step}")
        if step > record.committed_step:
            record.commit(step)
            hook = self.pool.device.crash_hook
            if hook is not None:
                # Crash point: the commit record persisted but the ack
                # never reached the client.
                hook("group.ack", record.allocation.tag)
        self._count("group_commits")
        return protocol.reply(protocol.OP_GROUP_COMMITTED, group=name,
                              step=record.committed_step)
        yield  # pragma: no cover - generator protocol

    def _handle_group_query(self, message: Dict) -> Generator:
        """The group's committed step + persisted layout blob (sized
        like the registration packet: the blob rides the reply)."""
        name = message["group"]
        record = self.groups.lookup(name)
        reply = {"op": protocol.OP_GROUP_INFO, "group": name,
                 "step": record.committed_step,
                 "layout": record.layout_blob}
        return reply, 64 + len(record.layout_blob)
        yield  # pragma: no cover - generator protocol

    # -- HEARTBEAT ---------------------------------------------------------------------------

    def _handle_heartbeat(self, message: Dict) -> Generator:
        """Lease renewal (the touch already happened in dispatch; this
        also validates that the model is still known).  The ack carries
        the daemon health block — pool utilization, inflight/lease
        counts, fault counters — so every heartbeating client (and the
        remediation operator) samples health for free."""
        name = message["model"]
        entry = self._entry(name)
        entry.last_seen_ns = self.env.now
        return protocol.heartbeat_ack(name, entry.attached,
                                      health=self.health_snapshot())
        yield  # pragma: no cover - generator protocol

    # -- health ------------------------------------------------------------------------

    def health_snapshot(self) -> Dict:
        """One machine-readable health sample (what heartbeat acks carry).

        Pure observation: reads DRAM state and monotonic counters, never
        touches the simulation clock, so sampling health is zero-cost in
        simulated time.  The :mod:`repro.ops.health` classifier turns a
        pair of these (current + previous) into a health state.
        """
        inflight_ages = [
            self.env.now - entry.inflight_since_ns
            for _name, entry in self.model_map.items()
            if entry.busy and entry.inflight_since_ns is not None
        ]
        attached = sum(1 for _name, entry in self.model_map.items()
                       if entry.attached)
        if self.pool.closed:
            used = capacity = 0
        else:
            used = self.pool.used_bytes
            capacity = used + self.pool.free_bytes
        metrics = self.obs.metrics
        scope = self._scope
        sample = {
            "time_ns": self.env.now,
            "up": self._started and not self.stopped,
            "port": self.port,
            "shard": self.node.name,
            "models": len(self.model_map.keys()),
            "attached": attached,
            "inflight": len(inflight_ages),
            "oldest_inflight_age_ns": max(inflight_ages, default=0),
            "pool": {
                "closed": self.pool.closed,
                "used_bytes": used,
                "capacity_bytes": capacity,
                "utilization": used / capacity if capacity else 0.0,
            },
            # Monotonic *per-shard* counters (the shared obs registry
            # survives daemon restarts, so deltas stay meaningful across
            # a crash/restart boundary; the ``daemon.<node>.`` scope
            # keeps sibling shards' faults out of this shard's deltas).
            "counters": {
                "requests": metrics.sum_counters(f"{scope}requests."),
                "errors": metrics.sum_counters(f"{scope}errors."),
                "slow_requests": metrics.value(f"{scope}slow_requests"),
                "checkpoints_completed": metrics.value(
                    f"{scope}checkpoints_completed"),
                "checkpoints_aborted": metrics.value(
                    f"{scope}checkpoints_aborted"),
                "restores_completed": metrics.value(
                    f"{scope}restores_completed"),
                "restores_aborted": metrics.value(
                    f"{scope}restores_aborted"),
                "dropped_replies": metrics.value(
                    f"{scope}dropped_replies"),
                "reaped_sessions": metrics.value(
                    f"{scope}reaped_sessions"),
            },
        }
        if self.admission is not None:
            sample["admission"] = self.admission.snapshot()
        return sample

    # -- LIST ------------------------------------------------------------------------------

    def _handle_list(self, message: Dict) -> Generator:
        """Network-facing inventory (what portusctl shows offline)."""
        rows = []
        for name, entry in self.model_map.items():
            flags = entry.meta.read_flags()
            rows.append({
                "model": name,
                "layers": entry.meta.mindex.layer_count,
                "bytes": entry.meta.mindex.total_bytes,
                "attached": entry.attached,
                "versions": [
                    {"state": FLAG_NAMES[flags.states[i]],
                     "step": flags.steps[i]} for i in (0, 1)
                ],
            })
        return protocol.reply(protocol.OP_LIST_REPLY, models=rows)
        yield  # pragma: no cover - generator protocol

    # -- introspection ----------------------------------------------------------------------

    def models(self) -> List[str]:
        return self.model_map.keys()
