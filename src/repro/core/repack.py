"""The repacking tool (paper §III-D2, Fig. 7).

Double mapping costs one extra checkpoint's worth of PMem per model.
When a job finishes (only the newest version will ever be restored) or
crashes mid-checkpoint (the ACTIVE slot holds incomplete data), the
repacking tool reclaims the slack:

* a model with at least one DONE version keeps exactly its newest DONE
  slot; the stale/incomplete slot's TensorData is freed;
* a model with *no* DONE version has nothing restorable — the whole model
  is dropped (optional, on by default for crashed-first-checkpoint jobs);
* allocator-level leakage from crash windows was already reclaimed at
  pool open; freeing extents coalesces holes in the device free list,
  which is the "aggregate valid checkpoints" effect of Fig. 7.

The tool runs offline against the pool (as Portusctl does) or online
against an idle daemon; the paper notes it is rarely needed because PMem
capacity dwarfs checkpoint sizes.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.core.consistency import (abort_checkpoint, begin_checkpoint,
                                    commit_checkpoint, valid_checkpoint)
from repro.core.engine import LocalCopyEngine, TransferEngine, build_items
from repro.core.index import ModelMeta, ModelTable
from repro.errors import (DedupMigrationUnsupported, ModelAlreadyRegistered,
                          ModelNotFound, PortusError)
from repro.obs import Observability
from repro.pmem.pool import PmemPool
from repro.rdma.verbs import connect
from repro.sim import Environment


class RepackReport:
    """What a repack pass did."""

    def __init__(self) -> None:
        self.models_compacted: List[str] = []
        self.models_dropped: List[str] = []
        #: Models whose surviving version was migrated to a fresh extent
        #: (the online :func:`repack_live` compaction pass only).
        self.models_migrated: List[str] = []
        self.bytes_reclaimed = 0
        self.bytes_moved = 0

    def __repr__(self) -> str:
        return f"<RepackReport compacted={len(self.models_compacted)} " \
               f"dropped={len(self.models_dropped)} " \
               f"migrated={len(self.models_migrated)} " \
               f"reclaimed={self.bytes_reclaimed}B>"


def repack(pool: PmemPool, table: Optional[ModelTable] = None,
           drop_invalid: bool = True,
           skip: Optional[List[str]] = None) -> RepackReport:
    """Reclaim stale checkpoint versions; returns a report.

    *skip* names models to leave untouched (e.g. jobs still running when
    repacking online).
    """
    if table is None:
        table = ModelTable.open(pool)
    skip_set = set(skip or ())
    report = RepackReport()
    for name in table.names():
        if name in skip_set:
            continue
        meta = ModelMeta.open(pool, table.lookup(name))
        flags = meta.read_flags()
        newest = flags.newest_done()
        if newest is None:
            if drop_invalid:
                reclaimed = sum(region.size
                                for region in meta.data_regions
                                if region is not None) + meta.meta.size
                meta.free()
                table.remove(name)
                report.models_dropped.append(name)
                report.bytes_reclaimed += reclaimed
            continue
        # The slot that is not the newest DONE version is, by definition,
        # either older, incomplete (ACTIVE at crash), or empty: reclaim it.
        stale = 1 - newest
        reclaimed = meta.drop_version(stale)
        if reclaimed:
            report.models_compacted.append(name)
            report.bytes_reclaimed += reclaimed
    return report


def repack_live(env: Environment, pool: PmemPool,
                table: Optional[ModelTable] = None,
                drop_invalid: bool = True,
                skip: Optional[List[str]] = None,
                compact: bool = True,
                chunk_bytes: Optional[int] = None,
                streams: int = 1,
                obs: Optional[Observability] = None) -> Generator:
    """Process: online repack — reclamation plus timed compaction.

    Runs the same reclamation as :func:`repack`, then (with *compact*)
    migrates each survivor's newest DONE TensorData into a freshly
    allocated extent.  First-fit allocation places the copy in the
    lowest hole — including the ones reclamation just opened — so the
    live data packs toward the front of the device and the free list
    coalesces into large holes (the Fig. 7 "aggregate valid
    checkpoints" effect, now with the move's PMem read+write bandwidth
    actually charged through the :class:`LocalCopyEngine`).

    Crash-safe ordering per model: allocate the new extent, copy,
    persist, commit the MIndex record, then free the old extent.  A
    crash mid-move leaves the MIndex pointing at the intact old region;
    the orphaned new extent is allocator-level leakage, reclaimed at
    the next pool open like any crash-window allocation.  The simulated
    move and the content relocation are guarded together: an interrupt
    or a pool death inside the move window commits nothing — the
    content write, persist, and MIndex update only run once the move
    finished on a still-open pool.
    """
    if table is None:
        table = ModelTable.open(pool)
    obs = obs if obs is not None else Observability()
    report = repack(pool, table=table, drop_invalid=drop_invalid, skip=skip)
    obs.metrics.counter("repack.models_dropped").inc(
        len(report.models_dropped))
    obs.metrics.counter("repack.bytes_reclaimed").inc(
        report.bytes_reclaimed)
    if not compact:
        return report
    copier = LocalCopyEngine(env, pool.device, chunk_bytes=chunk_bytes,
                             streams=streams)
    skip_set = set(skip or ())
    pass_span = obs.tracer.span(env, "repack.compact", cat="repack",
                                track="repack")
    for name in table.names():
        if name in skip_set:
            continue
        meta = ModelMeta.open(pool, table.lookup(name))
        newest = meta.read_flags().newest_done()
        if newest is None:
            continue
        if meta.dedup:
            # Dedup models own no per-version extents to migrate; their
            # bytes live in the shared chunk store.
            continue
        old = meta.data_regions[newest]
        fresh = pool.alloc(old.size, tag=old.tag)
        if fresh.addr > old.addr:
            # The region already sits below every usable hole; moving it
            # upward would fragment, not compact.
            pool.free(fresh)
            continue
        span = obs.tracer.span(env, "repack.migrate", cat="repack",
                               track="repack", model=name, bytes=old.size)
        try:
            yield from copier.move(old.size, label=f"repack:{name}")
        except BaseException:
            # Interrupted mid-move (daemon crash, power loss, a kill):
            # nothing was committed, the MIndex still points at the
            # intact old region.  Hand the fresh extent back while the
            # pool is usable; on a closed pool it is crash-window
            # leakage the next open reclaims.
            if not pool.closed:
                pool.free(fresh)
            span.finish(aborted=True)
            pass_span.finish(aborted=True)
            obs.metrics.counter("repack.aborted").inc()
            raise
        if pool.closed:
            # The pool died under us without interrupting this process
            # (server power loss while repacking ran on another node's
            # clock): the copy never landed and the old region stays
            # committed — stop before touching dead media.
            span.finish(aborted=True)
            pass_span.finish(aborted=True)
            obs.metrics.counter("repack.aborted").inc()
            return report
        fresh.write(0, old.read(0, old.size))
        fresh.persist()
        regions = list(meta.data_regions)
        regions[newest] = fresh
        meta.data_regions = tuple(regions)
        meta.mindex.version_addrs = tuple(
            region.addr if region is not None else 0 for region in regions)
        meta._mindex_record.write(meta.mindex.pack())
        pool.free(old)
        report.models_migrated.append(name)
        report.bytes_moved += old.size
        span.finish(ok=True)
        obs.metrics.counter("repack.models_migrated").inc()
        obs.metrics.counter("repack.bytes_moved").inc(old.size)
    pass_span.finish(migrated=len(report.models_migrated))
    return report


def migrate_model(env: Environment, src_daemon, dst_daemon, name: str,
                  obs: Optional[Observability] = None) -> Generator:
    """Process: copy *name*'s newest DONE checkpoint between daemons.

    The live repacker generalized across pools: the destination daemon
    pulls the source's committed version slot through the transfer
    engine (one-sided RDMA READ, server-to-server over the fabric) into
    a freshly created index of its own, then commits it DONE at the
    same step.  Crash-safe commit ordering (DESIGN.md §13) — every
    window is leak-only:

    1. the source entry's CAS guard is claimed, so no checkpoint can
       flip its slots mid-copy;
    2. destination index + both version slots are created (a crash here
       leaks dst extents; the source is untouched);
    3. the copy lands in the dst target slot, persists, and commits
       DONE — only now does the dst ModelTable learn the name;
    4. the caller flips the placement-ring pin, then evicts the source
       copy (:func:`evict_model`) — a crash between 3 and 4 leaves two
       committed copies, never zero.

    Returns ``(step, bytes_moved)``.  Dedup models are refused with
    :class:`~repro.errors.DedupMigrationUnsupported`: their bytes live
    in the pool-local chunk store, and migrating one means re-chunking
    against the destination's store (future work).  Callers that place
    groups must check *every* member up front — the same typed error,
    before any member has moved.
    """
    from repro.core.daemon import (FLUSH_BARRIER_NS, ModelEntry,
                                   QP_DEPTH)

    obs = obs if obs is not None else Observability()
    entry = src_daemon.model_map.get(name)
    if entry is None:
        raise ModelNotFound(name)
    if entry.meta.dedup:
        raise DedupMigrationUnsupported(
            f"{name}: dedup models cannot migrate (chunk store is "
            f"pool-local)")
    if dst_daemon.model_map.get(name) is not None:
        raise ModelAlreadyRegistered(
            f"{name}: destination daemon already holds this model")
    src_daemon._claim(entry)
    span = obs.tracer.span(env, "fleet.migrate", cat="fleet",
                           track="fleet", model=name)
    src_mr = None
    src_mr_owned = False
    dst_mr = None
    qps = []
    try:
        version, step = valid_checkpoint(entry.meta)
        src_region = entry.meta.data_region(version)
        src_mr = entry.version_mrs[version]
        if src_mr is None or not src_mr.valid:
            src_mr = yield from src_daemon.node.nic.register_mr(src_region)
            src_mr_owned = True
        descriptors = entry.meta.mindex.descriptors
        specs = [d.to_spec() for d in descriptors]
        meta_dst = ModelMeta.create(dst_daemon.pool, name, specs)
        target = None
        try:
            target = begin_checkpoint(meta_dst)
            dst_mr = yield from dst_daemon.node.nic.register_mr(
                meta_dst.data_region(target))
            dst_qp, src_qp = yield from connect(
                env, dst_daemon.node.nic, src_daemon.node.nic)
            qps = [dst_qp, src_qp]
            # Same layout on both pools, so each descriptor's offset is
            # valid in either region; the remote side of each item is
            # the source server's MR.
            items = build_items(
                [(d.name, d.offset, src_mr.addr + d.offset, src_mr.rkey,
                  d.size, dst_mr) for d in descriptors],
                dst_daemon.engine_chunk_bytes)
            engine = TransferEngine(
                env, [dst_qp], depth=QP_DEPTH,
                pipelined=dst_daemon.engine_pipelined,
                largest_first=dst_daemon.engine_largest_first,
                stream_limit=dst_daemon._pmem_streams,
                obs=obs)
            moved = yield from engine.pull(items, f"migrate:{name}")
            if dst_daemon.pool.closed or src_daemon.pool.closed:
                raise PortusError(
                    f"{name}: a pool died during migration")
            meta_dst.data_region(target).persist()
            yield env.timeout(FLUSH_BARRIER_NS)
            commit_checkpoint(meta_dst, target, step)
        except BaseException:
            # Nothing was published on the destination; unwind it all
            # (on a live pool) so the only cost of a failed migration
            # is the source staying where it was.
            if not dst_daemon.pool.closed:
                if target is not None:
                    abort_checkpoint(meta_dst, target, data_dirty=True)
                meta_dst.free()
            raise
        dst_entry = ModelEntry(meta_dst)
        dst_daemon.model_map.insert(name, dst_entry)
        dst_daemon.table.insert(name, meta_dst.meta.addr)
    finally:
        for qp in qps:
            if qp.error is None:
                qp.transition_to_error("migration transport done")
        if dst_mr is not None and dst_mr.valid:
            dst_daemon.node.nic.deregister_mr(dst_mr)
        if src_mr_owned and src_mr is not None and src_mr.valid:
            src_daemon.node.nic.deregister_mr(src_mr)
        src_daemon._release(entry)
        span.finish()
    obs.metrics.counter("fleet.migrations").inc()
    obs.metrics.counter("fleet.migrated_bytes").inc(moved)
    return step, moved


def evict_model(src_daemon, name: str) -> None:
    """Drop *name* from the source daemon after a migration committed.

    Mirrors UNREGISTER's recovery ordering: deregister the version MRs,
    remove the (committed) ModelTable entry, then free the extents —
    a crash mid-evict leaks GC-able extents instead of dangling a table
    entry at freed metadata.  The tenant's byte charge is *not*
    released: the model still exists, just on another shard.
    """
    entry = src_daemon.model_map.get(name)
    if entry is None:
        raise ModelNotFound(name)
    src_daemon._claim(entry)
    try:
        for version in (0, 1):
            mr = entry.version_mrs[version]
            if mr is not None and mr.valid:
                src_daemon.node.nic.deregister_mr(mr)
            entry.version_mrs[version] = None
        src_daemon.table.remove(name)
        entry.meta.free()
        src_daemon.model_map.delete(name)
    finally:
        src_daemon._release(entry)
