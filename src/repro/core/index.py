"""The three-level index on PMem: ModelTable -> MIndex -> TensorData.

Level 1 — :class:`ModelTable`: a persistent sorted array mapping model
names to the PMem offset of their metadata region (``info_offset`` in the
paper), stored as one crash-atomic committed record.

Level 2 — :class:`ModelMeta` / :class:`MIndex`: per model, a metadata
region holding (a) the *version flags* record — two checkpoint slots with
EMPTY/ACTIVE/DONE states and step stamps, the paper's double-mapping
mechanism — and (b) the MIndex record: per-tensor name, dtype, shape,
size, and the PMem address of its bytes in each version.

Level 3 — TensorData: two contiguous data extents per model (one per
checkpoint version), inside which every tensor has a fixed 64-byte-
aligned offset.  Contiguity is what lets the daemon register a single
RDMA MR per version and pull every tensor with one-sided reads into its
final resting place — the zero-copy, serialization-free property.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.dnn.tensor import TensorSpec
from repro.dnn.dtypes import DType
from repro.errors import ModelNotFound, PmemError, PortusError
from repro.hw.content import concat
from repro.hw.device import Allocation
from repro.pmem.chunks import ChunkStore
from repro.pmem.layout import CommittedRecord, blob_capacity
from repro.pmem.pool import PmemPool

FLAG_EMPTY = 0
FLAG_ACTIVE = 1
FLAG_DONE = 2

FLAG_NAMES = {FLAG_EMPTY: "EMPTY", FLAG_ACTIVE: "ACTIVE", FLAG_DONE: "DONE"}

_ALIGN = 64

_FLAGS = struct.Struct("<BBQQ")  # v0_state, v1_state, v0_step, v1_step
_FLAGS_SLOT = blob_capacity(_FLAGS.size) + 32  # headroom inside the slot

# The write-once geometry header at the front of every metadata region:
# magic, layout version, flags slot size, MIndex slot size.  Recovery
# derives every record offset from these persisted values instead of
# re-deriving them from the allocation size — which can legitimately be
# rounded up by the pool — so a reader never probes the B slot at the
# wrong offset.  The header is persisted before the model becomes
# reachable from the ModelTable, so it is crash-atomic by construction.
#
# Layout version 1 is the contiguous-TensorData layout (two data extents
# per model).  Version 2 is the deduplicated layout: no data extents —
# each version slot instead carries a *chunk manifest* record listing
# the content digests that reassemble the region from the pool-wide
# refcounted chunk store (:mod:`repro.pmem.chunks`).  The v2 header
# extends v1 with the manifest slot size and the chunk size; v1 regions
# keep their exact byte layout.
_META_HEADER = struct.Struct("<IIII")  # magic, version, flags_slot, mindex_slot
_META_HEADER_V2 = struct.Struct("<IIIIIQ")  # ... + manifest_slot, chunk_bytes
_META_MAGIC = 0x4D455441  # "META"
_META_LAYOUT_VERSION = 1
_META_LAYOUT_VERSION_DEDUP = 2
_META_HEADER_SIZE = 64  # header struct, padded to the data alignment

_MANIFEST_COUNT = struct.Struct("<I")
_DIGEST_BYTES = 20

_MINDEX_HEADER = struct.Struct("<64sIQQQ")  # name, count, v0, v1, total
_TENSOR_ENTRY = struct.Struct("<64s16sB8QQQ")  # name, dtype, ndim, dims, size, offset

MAX_DIMS = 8
NAME_BYTES = 64
META_TAG = "portus-meta"
DATA_TAG = "portus-data"
TABLE_TAG = "portus-modeltable"


def _pack_name(name: str, width: int = NAME_BYTES) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > width:
        raise PortusError(f"name too long for index: {name!r}")
    return raw


def _unpack_name(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


class TensorDescriptor:
    """One MIndex entry: everything needed to address a tensor's bytes."""

    def __init__(self, name: str, dtype_name: str, shape: Tuple[int, ...],
                 size: int, offset: int) -> None:
        if len(shape) > MAX_DIMS:
            raise PortusError(f"{name}: more than {MAX_DIMS} dims")
        self.name = name
        self.dtype_name = dtype_name
        self.shape = tuple(shape)
        self.size = size
        self.offset = offset

    @classmethod
    def from_spec(cls, spec: TensorSpec, offset: int) -> "TensorDescriptor":
        return cls(spec.name, spec.dtype.name, spec.shape, spec.size_bytes,
                   offset)

    def to_spec(self) -> TensorSpec:
        return TensorSpec(self.name, self.shape, DType.by_name(self.dtype_name))

    def pack(self) -> bytes:
        dims = list(self.shape) + [0] * (MAX_DIMS - len(self.shape))
        return _TENSOR_ENTRY.pack(_pack_name(self.name),
                                  _pack_name(self.dtype_name, 16),
                                  len(self.shape), *dims, self.size,
                                  self.offset)

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> "TensorDescriptor":
        fields = _TENSOR_ENTRY.unpack_from(data, offset)
        name, dtype_raw, ndim = fields[0], fields[1], fields[2]
        dims = fields[3:3 + ndim]
        size, tensor_offset = fields[11], fields[12]
        return cls(_unpack_name(name), _unpack_name(dtype_raw), tuple(dims),
                   size, tensor_offset)

    def __repr__(self) -> str:
        return f"<TensorDescriptor {self.name} {self.shape} " \
               f"{self.dtype_name} @+{self.offset}>"


def layout_tensors(specs: List[TensorSpec]) -> Tuple[List[TensorDescriptor],
                                                     int]:
    """Assign aligned offsets inside a TensorData region; returns
    (descriptors, region size)."""
    descriptors = []
    cursor = 0
    for spec in specs:
        descriptors.append(TensorDescriptor.from_spec(spec, cursor))
        cursor += (spec.size_bytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return descriptors, max(cursor, _ALIGN)


def region_extent(descriptors: List[TensorDescriptor]) -> int:
    """The TensorData region size a descriptor list occupies (the same
    value :func:`layout_tensors` returned when the offsets were assigned)."""
    cursor = 0
    for descriptor in descriptors:
        end = descriptor.offset + descriptor.size
        cursor = max(cursor, (end + _ALIGN - 1) // _ALIGN * _ALIGN)
    return max(cursor, _ALIGN)


class MIndex:
    """The level-2 record: tensor table + the two TensorData addresses."""

    def __init__(self, model_name: str,
                 descriptors: List[TensorDescriptor],
                 version_addrs: Tuple[int, int], total_bytes: int) -> None:
        self.model_name = model_name
        self.descriptors = descriptors
        self.version_addrs = version_addrs
        self.total_bytes = total_bytes

    @property
    def layer_count(self) -> int:
        return len(self.descriptors)

    def descriptor(self, tensor_name: str) -> TensorDescriptor:
        for descriptor in self.descriptors:
            if descriptor.name == tensor_name:
                return descriptor
        raise PortusError(
            f"{self.model_name}: no tensor named {tensor_name!r}")

    def paddr(self, descriptor: TensorDescriptor, version: int) -> int:
        """The persistent address of a tensor's bytes in *version*."""
        return self.version_addrs[version] + descriptor.offset

    def pack(self) -> bytes:
        header = _MINDEX_HEADER.pack(_pack_name(self.model_name),
                                     len(self.descriptors),
                                     self.version_addrs[0],
                                     self.version_addrs[1],
                                     self.total_bytes)
        return header + b"".join(d.pack() for d in self.descriptors)

    @classmethod
    def unpack(cls, data: bytes) -> "MIndex":
        name, count, v0, v1, total = _MINDEX_HEADER.unpack_from(data)
        descriptors = [
            TensorDescriptor.unpack(
                data, _MINDEX_HEADER.size + i * _TENSOR_ENTRY.size)
            for i in range(count)
        ]
        return cls(_unpack_name(name), descriptors, (v0, v1), total)

    @staticmethod
    def slot_size(tensor_count: int) -> int:
        return blob_capacity(_MINDEX_HEADER.size
                             + tensor_count * _TENSOR_ENTRY.size) + 32


class VersionFlags:
    """The double-mapping state: per-version flag + step stamp."""

    def __init__(self, states: Tuple[int, int] = (FLAG_EMPTY, FLAG_EMPTY),
                 steps: Tuple[int, int] = (0, 0)) -> None:
        self.states = list(states)
        self.steps = list(steps)

    def pack(self) -> bytes:
        return _FLAGS.pack(self.states[0], self.states[1], self.steps[0],
                           self.steps[1])

    @classmethod
    def unpack(cls, data: bytes) -> "VersionFlags":
        s0, s1, t0, t1 = _FLAGS.unpack_from(data)
        return cls((s0, s1), (t0, t1))

    def newest_done(self) -> Optional[int]:
        """Version index holding the newest completed checkpoint."""
        done = [i for i in (0, 1) if self.states[i] == FLAG_DONE]
        if not done:
            return None
        return max(done, key=lambda i: self.steps[i])

    def checkpoint_target(self) -> int:
        """Where the next checkpoint goes: never the newest DONE slot."""
        newest = self.newest_done()
        if newest is None:
            return 0
        return 1 - newest

    def __repr__(self) -> str:
        parts = [f"v{i}={FLAG_NAMES[self.states[i]]}@{self.steps[i]}"
                 for i in (0, 1)]
        return f"<VersionFlags {' '.join(parts)}>"


class ModelMeta:
    """A model's metadata region plus its two TensorData extents."""

    def __init__(self, pool: PmemPool, meta: Allocation,
                 mindex: MIndex, data_regions: Tuple[Allocation,
                                                     Allocation],
                 flags_slot: int = _FLAGS_SLOT,
                 mindex_slot: Optional[int] = None,
                 manifest_slot: int = 0,
                 chunk_bytes: int = 0) -> None:
        self.pool = pool
        self.meta = meta
        self.mindex = mindex
        self.data_regions = data_regions
        self.flags_slot = flags_slot
        self.mindex_slot = (mindex_slot if mindex_slot is not None
                            else MIndex.slot_size(mindex.layer_count))
        #: Nonzero only in the deduplicated (layout v2) format.
        self.manifest_slot = manifest_slot
        self.chunk_bytes = chunk_bytes
        self._flags_record = CommittedRecord(meta, _META_HEADER_SIZE,
                                             self.flags_slot)
        self._mindex_record = CommittedRecord(
            meta, _META_HEADER_SIZE + 2 * self.flags_slot, self.mindex_slot)
        self._manifest_records: Tuple[Optional[CommittedRecord],
                                      Optional[CommittedRecord]]
        if manifest_slot > 0:
            base = (_META_HEADER_SIZE + 2 * self.flags_slot
                    + 2 * self.mindex_slot)
            self._manifest_records = (
                CommittedRecord(meta, base, manifest_slot),
                CommittedRecord(meta, base + 2 * manifest_slot,
                                manifest_slot))
        else:
            self._manifest_records = (None, None)

    @property
    def dedup(self) -> bool:
        """True for the deduplicated (chunk-manifest) layout."""
        return self.manifest_slot > 0

    # -- creation / recovery --------------------------------------------------------

    @staticmethod
    def meta_region_size(tensor_count: int) -> int:
        """Bytes the metadata region needs for *tensor_count* tensors."""
        return (_META_HEADER_SIZE + 2 * _FLAGS_SLOT
                + 2 * MIndex.slot_size(tensor_count))

    @classmethod
    def create(cls, pool: PmemPool, model_name: str,
               specs: List[TensorSpec]) -> "ModelMeta":
        """Allocate the metadata region and both TensorData versions."""
        descriptors, region_size = layout_tensors(specs)
        meta = pool.alloc(cls.meta_region_size(len(descriptors)),
                          tag=f"{META_TAG}/{_short(model_name)}")
        data0 = pool.alloc(region_size,
                           tag=f"{DATA_TAG}/{_short(model_name)}/v0")
        data1 = pool.alloc(region_size,
                           tag=f"{DATA_TAG}/{_short(model_name)}/v1")
        mindex = MIndex(model_name, descriptors, (data0.addr, data1.addr),
                        sum(d.size for d in descriptors))
        instance = cls(pool, meta, mindex, (data0, data1))
        meta.write_bytes(0, _META_HEADER.pack(
            _META_MAGIC, _META_LAYOUT_VERSION, instance.flags_slot,
            instance.mindex_slot))
        meta.persist(0, _META_HEADER.size)
        instance._mindex_record.write(mindex.pack())
        instance.write_flags(VersionFlags())
        return instance

    @staticmethod
    def manifest_slot_size(region_size: int, chunk_bytes: int) -> int:
        """Slot bytes for one version's chunk-manifest record."""
        max_chunks = (region_size + chunk_bytes - 1) // chunk_bytes
        return blob_capacity(_MANIFEST_COUNT.size
                             + max_chunks * _DIGEST_BYTES) + 32

    @staticmethod
    def meta_region_size_dedup(tensor_count: int, region_size: int,
                               chunk_bytes: int) -> int:
        """Metadata-region bytes for a dedup model (no data extents —
        instead two manifest records, one per version slot)."""
        return (_META_HEADER_SIZE + 2 * _FLAGS_SLOT
                + 2 * MIndex.slot_size(tensor_count)
                + 4 * ModelMeta.manifest_slot_size(region_size, chunk_bytes))

    @classmethod
    def create_dedup(cls, pool: PmemPool, model_name: str,
                     specs: List[TensorSpec],
                     chunk_bytes: int) -> "ModelMeta":
        """Allocate a dedup (layout v2) model: metadata region only.

        Version data lives in the pool-wide chunk store; each version
        slot's manifest record lists the digests that reassemble it.
        """
        if chunk_bytes <= 0:
            raise PmemError(f"bad chunk size {chunk_bytes}")
        descriptors, region_size = layout_tensors(specs)
        manifest_slot = cls.manifest_slot_size(region_size, chunk_bytes)
        meta = pool.alloc(
            cls.meta_region_size_dedup(len(descriptors), region_size,
                                       chunk_bytes),
            tag=f"{META_TAG}/{_short(model_name)}")
        mindex = MIndex(model_name, descriptors, (0, 0),
                        sum(d.size for d in descriptors))
        instance = cls(pool, meta, mindex, (None, None),
                       manifest_slot=manifest_slot, chunk_bytes=chunk_bytes)
        meta.write_bytes(0, _META_HEADER_V2.pack(
            _META_MAGIC, _META_LAYOUT_VERSION_DEDUP, instance.flags_slot,
            instance.mindex_slot, manifest_slot, chunk_bytes))
        meta.persist(0, _META_HEADER_V2.size)
        instance._mindex_record.write(mindex.pack())
        instance.write_flags(VersionFlags())
        return instance

    @staticmethod
    def read_geometry(meta: Allocation) -> Tuple[int, int, int, int]:
        """The persisted record geometry of a meta region.

        Returns ``(flags_slot, mindex_slot, manifest_slot, chunk_bytes)``
        — the last two are 0 for the v1 (contiguous TensorData) layout.
        Raises :class:`PmemError` when the header is torn or was never
        written — the region is not (or no longer) a model's metadata.
        """
        try:
            raw = meta.read_bytes(0, _META_HEADER_V2.size)
        except ValueError as exc:
            raise PmemError(
                f"meta header unreadable at {meta.addr:#x}") from exc
        magic, version, flags_slot, mindex_slot = _META_HEADER.unpack_from(raw)
        if magic != _META_MAGIC:
            raise PmemError(
                f"bad meta header magic {magic:#x} at {meta.addr:#x}")
        if version == _META_LAYOUT_VERSION:
            manifest_slot, chunk_bytes = 0, 0
        elif version == _META_LAYOUT_VERSION_DEDUP:
            (_magic, _version, flags_slot, mindex_slot, manifest_slot,
             chunk_bytes) = _META_HEADER_V2.unpack(raw)
            if manifest_slot <= 0 or chunk_bytes <= 0:
                raise PmemError(
                    f"bad dedup meta geometry at {meta.addr:#x}: "
                    f"manifest_slot={manifest_slot} "
                    f"chunk_bytes={chunk_bytes}")
        else:
            raise PmemError(
                f"unsupported meta layout version {version} "
                f"at {meta.addr:#x}")
        if flags_slot <= 0 or mindex_slot <= 0 or \
                _META_HEADER_SIZE + 2 * flags_slot + 2 * mindex_slot \
                + 4 * manifest_slot > meta.size:
            raise PmemError(
                f"meta geometry out of bounds at {meta.addr:#x}: "
                f"flags_slot={flags_slot} mindex_slot={mindex_slot} "
                f"manifest_slot={manifest_slot} region={meta.size}")
        return flags_slot, mindex_slot, manifest_slot, chunk_bytes

    @classmethod
    def open(cls, pool: PmemPool, meta_addr: int,
             lenient: bool = False) -> "ModelMeta":
        """Rebuild from PMem after a daemon restart or crash.

        Record geometry comes from the persisted header — never from the
        allocation size, which the pool may have rounded up — so the B
        slot is always probed where the writer put it.  A version address
        of 0 marks a slot the repacking tool reclaimed; its region handle
        is None until :meth:`ensure_regions` re-creates it on the next
        attach.

        With *lenient* (fsck), a nonzero version address that no device
        allocation backs maps to a None region instead of raising, so
        the verifier can inspect the rest of the model and demote just
        the broken slot.
        """
        meta = pool.device.allocation_at(meta_addr)
        flags_slot, mindex_slot, manifest_slot, chunk_bytes = \
            cls.read_geometry(meta)
        record = CommittedRecord(meta, _META_HEADER_SIZE + 2 * flags_slot,
                                 mindex_slot)
        committed = record.read()
        if committed is None:
            raise PmemError(f"MIndex record unreadable at {meta_addr:#x}")
        mindex = MIndex.unpack(committed[0])

        def resolve(addr: int) -> Optional[Allocation]:
            if not addr:
                return None
            try:
                return pool.device.allocation_at(addr)
            except Exception:
                if lenient:
                    return None
                raise

        data_regions = tuple(resolve(addr)
                             for addr in mindex.version_addrs)
        return cls(pool, meta, mindex, data_regions,
                   flags_slot=flags_slot, mindex_slot=mindex_slot,
                   manifest_slot=manifest_slot, chunk_bytes=chunk_bytes)

    def ensure_regions(self) -> None:
        """Re-allocate any version slot the repacking tool reclaimed."""
        if self.dedup:
            # Dedup models have no per-version data extents: version
            # bytes live in the shared chunk store.
            return
        regions = list(self.data_regions)
        changed = False
        for version in (0, 1):
            if regions[version] is None:
                _descriptors, region_size = layout_tensors(
                    [d.to_spec() for d in self.mindex.descriptors])
                regions[version] = self.pool.alloc(
                    region_size,
                    tag=f"{DATA_TAG}/{_short(self.mindex.model_name)}"
                        f"/v{version}")
                changed = True
        if changed:
            self.data_regions = tuple(regions)
            self.mindex.version_addrs = tuple(
                region.addr for region in self.data_regions)
            self._mindex_record.write(self.mindex.pack())

    def drop_version(self, version: int) -> int:
        """Free one version's TensorData; returns the bytes reclaimed.

        Crash-safe ordering: demote the flag first (a crash after leaves
        an EMPTY slot whose data is merely still allocated), then commit
        the MIndex with address 0 (a crash after leaves the extent
        committed but unreferenced — a leak fsck reclaims), and free the
        extent last (the allocator's own leak-only window).  At no point
        can a DONE flag coexist with a zero or freed version address —
        the ordering bug that used to crash restore-after-restart.

        Dedup models follow the same demote-before-unlink-before-unref
        ordering with the manifest in place of the data extent: demote
        the flag, commit an empty manifest, then drop the chunk
        references (the store frees extents whose count reaches zero).
        References are dropped only when the slot was DONE before the
        demote — a non-DONE slot's references were never certainly
        counted, so they are left for fsck's leak pass rather than
        risking an over-free.
        """
        if self.dedup:
            return self._drop_version_dedup(version)
        region = self.data_regions[version]
        if region is None:
            return 0
        reclaimed = region.size
        flags = self.read_flags()
        flags.states[version] = FLAG_EMPTY
        flags.steps[version] = 0
        self.write_flags(flags)
        regions = list(self.data_regions)
        regions[version] = None
        self.data_regions = tuple(regions)
        addrs = list(self.mindex.version_addrs)
        addrs[version] = 0
        self.mindex.version_addrs = tuple(addrs)
        self._mindex_record.write(self.mindex.pack())
        self.pool.free(region)
        return reclaimed

    def _drop_version_dedup(self, version: int) -> int:
        digests = self.read_manifest(version)
        flags = self.read_flags()
        was_done = flags.states[version] == FLAG_DONE
        if not digests and flags.states[version] == FLAG_EMPTY:
            return 0
        flags.states[version] = FLAG_EMPTY
        flags.steps[version] = 0
        self.write_flags(flags)
        self.write_manifest(version, [])
        if not was_done or not digests:
            return 0
        store = ChunkStore.attach(self.pool)
        if store is None:
            return 0
        freed = store.unref(digests)
        return sum(allocation.size for allocation in freed)

    # -- manifests (dedup layout) ----------------------------------------------------

    def read_manifest(self, version: int) -> List[bytes]:
        """The chunk digests reassembling *version* (dedup models only)."""
        record = self._manifest_records[version]
        if record is None:
            return []
        committed = record.read()
        if committed is None:
            return []
        payload = committed[0]
        (count,) = _MANIFEST_COUNT.unpack_from(payload)
        base = _MANIFEST_COUNT.size
        return [payload[base + i * _DIGEST_BYTES:
                        base + (i + 1) * _DIGEST_BYTES]
                for i in range(count)]

    def write_manifest(self, version: int, digests: List[bytes]) -> None:
        record = self._manifest_records[version]
        if record is None:
            raise PmemError(
                f"{self.mindex.model_name}: not a dedup model")
        payload = _MANIFEST_COUNT.pack(len(digests)) + b"".join(digests)
        record.write(payload)

    def manifest_record(self, version: int) -> Optional[CommittedRecord]:
        """The raw manifest record (integrity tooling)."""
        return self._manifest_records[version]

    # -- flags ------------------------------------------------------------------------

    def read_flags(self) -> VersionFlags:
        committed = self._flags_record.read()
        if committed is None:
            return VersionFlags()
        return VersionFlags.unpack(committed[0])

    def write_flags(self, flags: VersionFlags) -> None:
        self._flags_record.write(flags.pack())

    # -- tensor data access ---------------------------------------------------------

    def data_region(self, version: int) -> Allocation:
        return self.data_regions[version]

    def read_tensor(self, descriptor: TensorDescriptor, version: int):
        if self.dedup:
            return self._read_tensor_dedup(descriptor, version)
        return self.data_regions[version].read(descriptor.offset,
                                               descriptor.size)

    def _read_tensor_dedup(self, descriptor: TensorDescriptor, version: int):
        store = ChunkStore.attach(self.pool)
        if store is None:
            raise PmemError(
                f"{self.mindex.model_name}: dedup model but the pool "
                f"has no chunk store")
        digests = self.read_manifest(version)
        if not digests:
            raise PmemError(
                f"{self.mindex.model_name}: version {version} has no "
                f"manifest")
        parts = []
        start = descriptor.offset
        end = descriptor.offset + descriptor.size
        first = start // self.chunk_bytes
        last = (end - 1) // self.chunk_bytes
        for index in range(first, last + 1):
            if index >= len(digests):
                raise PmemError(
                    f"{self.mindex.model_name}: manifest too short for "
                    f"tensor {descriptor.name!r}")
            entry = store.lookup(digests[index])
            if entry is None:
                raise PmemError(
                    f"{self.mindex.model_name}: chunk "
                    f"{digests[index].hex()[:12]} missing from the store")
            chunk_start = index * self.chunk_bytes
            lo = max(start, chunk_start)
            hi = min(end, chunk_start + entry.size)
            allocation = store.allocation_of(entry)
            parts.append(allocation.read(lo - chunk_start, hi - lo))
        return concat(parts)

    def free(self) -> None:
        """Release every extent (unregister / repack).

        Dedup models drop their DONE versions' chunk references first
        (:meth:`drop_version` ordering), then free the metadata region —
        their bytes live in the shared store, never in private extents.
        """
        if self.dedup:
            flags = self.read_flags()
            for version in (0, 1):
                if flags.states[version] != FLAG_EMPTY:
                    self.drop_version(version)
            self.pool.free(self.meta)
            return
        for region in self.data_regions:
            if region is not None:
                self.pool.free(region)
        self.pool.free(self.meta)


def _short(name: str) -> str:
    """Fit model names into AllocTable tags."""
    return name[-40:]


class ModelTable:
    """Level 1: the persistent sorted name -> meta_addr array.

    The table's geometry (``max_models``, which fixes the slot size) is
    persisted: in the record payload header, and implicitly in the size
    of the region ``create`` allocated.  ``open`` derives the slot size
    from the region instead of trusting its caller, so a daemon started
    with a different ``max_models`` than the one that formatted the pool
    can never silently misread the B slot — a mismatch is rejected
    loudly.
    """

    _ENTRY = struct.Struct("<64sQ")
    _HEADER = struct.Struct("<II")  # max_models, count
    #: AllocTable tag of the table's region — subclasses (the group
    #: table) override it to coexist on the same pool.
    TAG = TABLE_TAG

    def __init__(self, record: CommittedRecord, max_models: int) -> None:
        self._record = record
        self.max_models = max_models
        self._entries: Dict[str, int] = {}

    @staticmethod
    def slot_size(max_models: int) -> int:
        return blob_capacity(ModelTable._HEADER.size
                             + max_models * ModelTable._ENTRY.size) + 32

    @classmethod
    def create(cls, pool: PmemPool, max_models: int = 512) -> "ModelTable":
        region = pool.alloc(2 * cls.slot_size(max_models), tag=cls.TAG)
        table = cls(CommittedRecord(region, 0, cls.slot_size(max_models)),
                    max_models)
        table._commit()
        return table

    @classmethod
    def open(cls, pool: PmemPool,
             max_models: Optional[int] = None) -> "ModelTable":
        """Open the table with its *persisted* geometry.

        *max_models*, when given, is validated against the stored value
        (a mismatch raises :class:`PmemError`); by default the stored
        geometry is simply used.
        """
        regions = pool.find_by_tag(cls.TAG)
        if not regions:
            raise PmemError(f"no Portus {cls.__name__} on this pool")
        slot = regions[0].size // 2
        record = CommittedRecord(regions[0], 0, slot)
        committed = record.read()
        if committed is None:
            raise PmemError(
                f"{cls.__name__} record unreadable at {regions[0].addr:#x}")
        payload = committed[0]
        stored_max, count = cls._HEADER.unpack_from(payload)
        if cls.slot_size(stored_max) != slot:
            raise PmemError(
                f"{cls.__name__} geometry mismatch: region slot is {slot} "
                f"bytes but stored max_models={stored_max} implies "
                f"{cls.slot_size(stored_max)}")
        if max_models is not None and max_models != stored_max:
            raise PmemError(
                f"{cls.__name__} was created with max_models={stored_max}, "
                f"refusing to open with max_models={max_models}")
        table = cls(record, stored_max)
        for i in range(count):
            raw_name, addr = cls._ENTRY.unpack_from(
                payload, cls._HEADER.size + i * cls._ENTRY.size)
            table._entries[_unpack_name(raw_name)] = addr
        return table

    def _commit(self) -> None:
        names = sorted(self._entries)
        payload = self._HEADER.pack(self.max_models, len(names)) + b"".join(
            self._ENTRY.pack(_pack_name(name), self._entries[name])
            for name in names)
        self._record.write(payload)

    def insert(self, name: str, meta_addr: int) -> None:
        if len(self._entries) >= self.max_models and \
                name not in self._entries:
            raise PmemError(
                f"{type(self).__name__} full ({self.max_models} entries)")
        self._entries[name] = meta_addr
        self._commit()

    def remove(self, name: str) -> int:
        try:
            addr = self._entries.pop(name)
        except KeyError:
            raise ModelNotFound(name) from None
        self._commit()
        return addr

    def lookup(self, name: str) -> int:
        try:
            return self._entries[name]
        except KeyError:
            raise ModelNotFound(name) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)
