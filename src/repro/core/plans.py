"""Per-layout plans for the daemon's one checkpoint/restore datapath.

Every checkpoint takes the same path: claim the entry, stamp the target
version ACTIVE, pull with one-sided RDMA READs, persist, stamp DONE; a
restore pushes back with WRITEs.  The persistent layouts differ only in
where a version's bytes live and how a version commits, so the daemon
builds one plan per operation and hands it five jobs: plan the work
items (plus any local work before the transfer), persist, commit in
leak-only order, abort the ACTIVE version, and release its MRs.

:class:`ContiguousPlan` is the paper's double-mapped layout: each
version is one TensorData region behind a long-lived MR.
:class:`ChunkedPlan` is the dedup layout: each version is a manifest of
content-addressed chunk extents, shared across versions and models.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.core.consistency import abort_checkpoint, commit_checkpoint
from repro.core.dedup import chunk_spans
from repro.core.engine import LocalCopyEngine, build_items
from repro.core.index import FLAG_DONE, VersionFlags, region_extent
from repro.errors import PortusError, ProtocolError
from repro.pmem.chunks import ChunkStore


def plan_for(daemon, entry, trace_id: Optional[int]):
    """The plan for one operation on *entry*, by its persistent layout."""
    plan = ChunkedPlan if entry.meta.dedup else ContiguousPlan
    return plan(daemon, entry, trace_id)


class _Plan:
    """What both layouts share: the operation's context and no-ops."""

    def __init__(self, daemon, entry, trace_id: Optional[int]) -> None:
        self.daemon = daemon
        self.entry = entry
        self.meta = entry.meta
        self.trace_id = trace_id

    def prepare_checkpoint(self, message: Dict) -> None:
        """Request checks made before the target version turns ACTIVE."""

    def reply_fields(self) -> Dict:
        """Layout-specific DONE-reply fields (each also a counter)."""
        return {}

    def release(self) -> None:
        """Drop the MRs this operation registered."""


class ContiguousPlan(_Plan):
    """Version slots as contiguous regions, each behind one MR.

    Work items are whole tensors (segmented past the engine's chunk
    size) labelled by tensor name; the version MRs live as long as the
    entry.  The ``dirty=`` incremental mode copies the clean tensors
    from the previous DONE version locally and pulls only the dirty
    ones.
    """

    #: Bytes the incremental prefill wrote into the target slot — with
    #: the engine's landed bytes, the abort's data-dirty signal.
    prefilled = 0

    def _items(self, version: int, pairs) -> List:
        mr = self.entry.version_mrs[version]
        return build_items(
            [(d.name, d.offset, c["addr"], c["rkey"], d.size, mr)
             for d, c in pairs], self.daemon.engine_chunk_bytes)

    def checkpoint_items(self, message: Dict, flags_before: VersionFlags,
                         target: int) -> Generator:
        """Process: prefill the clean tensors (incremental mode), then
        return the pull's work items."""
        previous = flags_before.newest_done()
        pairs = list(zip(self.meta.mindex.descriptors,
                         self.entry.client_tensors))
        dirty = message.get("dirty")
        if dirty is not None and previous is not None:
            dirty_set = set(dirty)
            clean = [d for d, _c in pairs if d.name not in dirty_set]
            pairs = [(d, c) for d, c in pairs if d.name in dirty_set]
            with self.daemon.obs.tracer.span(
                    self.daemon.env, "ckpt.local_copy", cat="ckpt",
                    trace_id=self.trace_id, track="daemon",
                    model=self.meta.mindex.model_name, tensors=len(clean)):
                yield from self._copy_clean_tensors(previous, target, clean)
        return self._items(target, pairs)

    def _copy_clean_tensors(self, source: int, target: int,
                            descriptors) -> Generator:
        """Incremental mode: complete the new version by copying the
        unchanged tensors from the previous DONE version — a local
        PMem-to-PMem move, no network involved.  An interrupt during the
        simulated move lands nothing, so the slot stays clean."""
        total = sum(d.size for d in descriptors)
        if total == 0:
            return
        daemon = self.daemon
        copier = LocalCopyEngine(daemon.env, daemon.pool.device,
                                 chunk_bytes=daemon.engine_chunk_bytes)
        yield from copier.move(total, label="incremental-local-copy")
        source_region = self.meta.data_region(source)
        target_region = self.meta.data_region(target)
        for descriptor in descriptors:
            content = source_region.read(descriptor.offset,
                                         descriptor.size)
            target_region.write(descriptor.offset, content)
        self.prefilled = total

    def persist(self, target: int) -> None:
        self.meta.data_region(target).persist()

    def commit(self, target: int, step: int) -> None:
        commit_checkpoint(self.meta, target, step)

    def abort(self, target: int, landed: int) -> None:
        """Roll the target slot back.  Any byte already in it — the
        incremental prefill or a completed pull WR — leaves the slot torn
        at its old step, so it is invalidated rather than rolled back to
        DONE (the torn-slot bug)."""
        data_dirty = self.prefilled > 0 or landed > 0
        if data_dirty:
            self.daemon.obs.metrics.counter(
                "daemon.checkpoints_aborted_dirty").inc()
        abort_checkpoint(self.meta, target, data_dirty=data_dirty)

    def restore_items(self, version: int) -> Generator:
        """Process: the push's work items for *version*."""
        return self._items(version, zip(self.meta.mindex.descriptors,
                                        self.entry.client_tensors))
        yield  # pragma: no cover - generator protocol


class ChunkedPlan(_Plan):
    """Versions as chunk manifests over the pool-wide ChunkStore.

    A checkpoint pulls only the chunks the store lacks, each into a
    freshly reserved extent behind its own MR; a restore pushes every
    chunk of the version's manifest from the shared extents.  Work items
    are chunk pieces labelled ``digest8:tensor``.

    Crash-safe checkpoint order (every window leak-only, verified by the
    crash-point sweep):

    1. the daemon stamps the target slot ACTIVE;
    2. missing chunks are pulled into freshly reserved extents and
       persisted — committed-but-unindexed extents, reclaimed by fsck's
       leak scan on a crash;
    3. ``ChunkStore.apply`` commits the whole reference delta (new
       entries + shared-chunk increments) in ONE record write;
    4. the target manifest record is written, the slot committed DONE;
    5. only then is the overwritten version's old manifest unreferenced
       — and only if the slot was DONE *before* the begin (a non-DONE
       slot's references were never certainly counted; dropping them
       could over-free a shared chunk).
    """

    store: Optional[ChunkStore] = None
    manifest = old_manifest = ()
    #: Set once ``apply`` committed the references: no rollback after.
    applied = False

    def __init__(self, daemon, entry, trace_id: Optional[int]) -> None:
        super().__init__(daemon, entry, trace_id)
        self.name = entry.meta.mindex.model_name
        self.clients = {c["name"]: c for c in entry.client_tensors}
        #: (digest, extent) reserved by this checkpoint.
        self.new_extents: List = []
        #: Every MR this operation registered (released at the end).
        self.mrs: List = []
        self.counts: Dict[bytes, int] = {}

    def _spans(self):
        """The region's chunk spans (cached per entry; the MIndex is
        immutable for the life of the model)."""
        entry = self.entry
        if entry.chunk_spans is None:
            descriptors = self.meta.mindex.descriptors
            entry.chunk_spans = chunk_spans(descriptors,
                                            region_extent(descriptors),
                                            self.meta.chunk_bytes)
        return entry.chunk_spans

    def _units(self, digest: bytes, span, mr) -> List:
        """One transfer unit per tensor piece of the chunk *span*."""
        label = digest.hex()[:8]
        clients = self.clients
        return [(f"{label}:{p.tensor}", p.span_offset,
                 clients[p.tensor]["addr"] + p.tensor_offset,
                 clients[p.tensor]["rkey"], p.length, mr)
                for p in span.pieces]

    def prepare_checkpoint(self, message: Dict) -> None:
        """The manifest must cover the region chunk for chunk."""
        manifest = message.get("manifest")
        if manifest is None:
            raise ProtocolError(
                f"{self.name}: dedup model checkpoints need a chunk "
                f"manifest")
        self.store = ChunkStore.ensure(self.daemon.pool,
                                       chunk_bytes=self.meta.chunk_bytes)
        spans = self._spans()
        if len(manifest) != len(spans):
            raise ProtocolError(
                f"{self.name}: manifest carries {len(manifest)} digests, "
                f"the region has {len(spans)} chunks")
        self.manifest = manifest

    def checkpoint_items(self, message: Dict, flags_before: VersionFlags,
                         target: int) -> Generator:
        """Process: reserve an extent (and MR) per missing chunk; return
        the pull's work items."""
        if flags_before.states[target] == FLAG_DONE:
            self.old_manifest = self.meta.read_manifest(target)
        for digest in self.manifest:
            self.counts[digest] = self.counts.get(digest, 0) + 1
        # Every lookup happens before the first MR registration yields:
        # tenants sharing the store must not change what counts as
        # missing midway through this plan.
        missing = []  # (digest, span), region order, unique
        seen = set()
        for digest, span in zip(self.manifest, self._spans()):
            if digest in seen:
                continue
            seen.add(digest)
            if self.store.lookup(digest) is None:
                missing.append((digest, span))
        units = []
        for digest, span in missing:
            extent = self.store.alloc_chunk(digest, span.size)
            mr = yield from self.daemon.node.nic.register_mr(extent)
            self.new_extents.append((digest, extent))
            self.mrs.append(mr)
            units.extend(self._units(digest, span, mr))
        return build_items(units, self.daemon.engine_chunk_bytes,
                           numbered=False)

    def persist(self, target: int) -> None:
        for _digest, extent in self.new_extents:
            extent.persist()

    def commit(self, target: int, step: int) -> None:
        new = dict(self.new_extents)
        self.store.apply(
            [(digest, extent, self.counts[digest])
             for digest, extent in self.new_extents],
            {digest: count for digest, count in self.counts.items()
             if digest not in new})
        self.applied = True
        self.meta.write_manifest(target, self.manifest)
        commit_checkpoint(self.meta, target, step)
        if self.old_manifest:
            self.store.unref(self.old_manifest)

    def abort(self, target: int, landed: int) -> None:
        """Before ``apply`` the target manifest is untouched and the new
        chunks are still private (no ChunkTable entry), so the slot rolls
        back clean and the reserved extents are simply freed (their MRs
        go in :meth:`release`).  After it, the references are committed:
        leave the slot for recovery."""
        if self.applied:
            return
        abort_checkpoint(self.meta, target, data_dirty=False)
        for _digest, extent in self.new_extents:
            self.daemon.pool.free(extent)

    def reply_fields(self) -> Dict:
        """The bytes this checkpoint *represents* (the whole region,
        however few chunk bytes moved) and its chunk reuse."""
        return {
            "bytes_logical": self.meta.mindex.total_bytes,
            "chunks_new": len(self.new_extents),
            "chunks_shared": len(self.manifest) - sum(
                self.counts[digest] for digest, _e in self.new_extents),
        }

    def restore_items(self, version: int) -> Generator:
        """Process: register an MR per distinct chunk of *version*'s
        manifest; return the push's work items."""
        store = ChunkStore.attach(self.daemon.pool)
        if store is None:
            raise PortusError(
                f"{self.name}: dedup model but the pool has no chunk "
                f"store")
        manifest = self.meta.read_manifest(version)
        spans = self._spans()
        if len(manifest) != len(spans):
            raise PortusError(
                f"{self.name}: version {version} manifest carries "
                f"{len(manifest)} digests, the region has {len(spans)} "
                f"chunks")
        mr_by_digest: Dict[bytes, object] = {}
        units = []
        for digest, span in zip(manifest, spans):
            if not span.pieces:
                continue
            mr = mr_by_digest.get(digest)
            if mr is None:
                chunk_entry = store.lookup(digest)
                if chunk_entry is None:
                    raise PortusError(
                        f"{self.name}: chunk {digest.hex()[:12]} missing "
                        f"from the store")
                allocation = store.allocation_of(chunk_entry)
                mr = yield from self.daemon.node.nic.register_mr(allocation)
                mr_by_digest[digest] = mr
                self.mrs.append(mr)
            units.extend(self._units(digest, span, mr))
        return build_items(units, self.daemon.engine_chunk_bytes,
                           numbered=False)

    def release(self) -> None:
        for mr in self.mrs:
            if mr.valid:
                self.daemon.node.nic.deregister_mr(mr)
