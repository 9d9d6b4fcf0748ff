"""On-PMem binary layouts: CRC-framed blobs and double-slot records.

Everything Portus persists as metadata (superblock, AllocTable,
ModelTable, MIndex records, version flags) uses two building blocks:

* :func:`pack_blob` / :func:`unpack_blob` — a length-prefixed, CRC32-
  protected frame.  A torn or partial write is detected by the checksum,
  never silently accepted.
* :class:`CommittedRecord` — the classic A/B double-slot update: two blob
  slots plus a generation number inside each frame.  An update writes the
  *older* slot and persists it; readers take the valid slot with the
  highest generation.  A crash at any point leaves at least one valid
  slot, so metadata updates are atomic with respect to power failure.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple

from repro.errors import PmemError, PoolCorruption
from repro.hw.content import ByteContent
from repro.hw.device import Allocation

_FRAME_MAGIC = 0x504F5254  # "PORT"
_HEADER = struct.Struct("<IIQI")  # magic, length, generation, crc32


def blob_capacity(payload_size: int) -> int:
    """Bytes a frame of *payload_size* occupies on PMem."""
    return _HEADER.size + payload_size


def pack_blob(payload: bytes, generation: int = 0) -> bytes:
    """Frame *payload* with magic, length, generation and CRC."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(_FRAME_MAGIC, len(payload), generation, crc) + payload


def unpack_blob(data: bytes) -> Tuple[bytes, int]:
    """Validate and unwrap a frame; returns ``(payload, generation)``.

    Raises :class:`PoolCorruption` on bad magic, truncation, or CRC
    mismatch — the caller decides whether that is fatal (superblock) or
    expected (the stale slot of a double-slot record).
    """
    if len(data) < _HEADER.size:
        raise PoolCorruption(f"frame truncated: {len(data)} bytes")
    magic, length, generation, crc = _HEADER.unpack_from(data)
    if magic != _FRAME_MAGIC:
        raise PoolCorruption(f"bad frame magic {magic:#x}")
    payload = data[_HEADER.size:_HEADER.size + length]
    if len(payload) != length:
        raise PoolCorruption(
            f"frame payload truncated: want {length}, have {len(payload)}")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise PoolCorruption("frame checksum mismatch")
    return payload, generation


class CommittedRecord:
    """A crash-atomic record stored as two alternating slots on PMem.

    The record lives inside *allocation* at ``offset``; each slot is
    ``slot_size`` bytes (header + max payload).  ``write`` targets the slot
    *not* holding the newest valid generation and persists it before
    returning, so the previous committed value stays intact throughout.
    """

    def __init__(self, allocation: Allocation, offset: int,
                 slot_size: int) -> None:
        if slot_size <= _HEADER.size:
            raise ValueError(f"slot too small: {slot_size}")
        self.allocation = allocation
        self.offset = offset
        self.slot_size = slot_size

    @property
    def footprint(self) -> int:
        """Total bytes the record occupies (two slots)."""
        return 2 * self.slot_size

    def max_payload(self) -> int:
        return self.slot_size - _HEADER.size

    def _slot_offset(self, index: int) -> int:
        return self.offset + index * self.slot_size

    def _read_slot(self, index: int) -> Optional[Tuple[bytes, int]]:
        """The slot's ``(payload, generation)``, or None if not valid.

        Only the frame is read — header first, then exactly its length —
        so bytes past a shorter, intact frame (the tail of a longer write
        that power loss tore) cannot poison it.
        """
        offset = self._slot_offset(index)
        try:
            magic, length, _, _ = _HEADER.unpack(
                self.allocation.read_bytes(offset, _HEADER.size))
            if magic != _FRAME_MAGIC or length > self.max_payload():
                return None
            frame = self.allocation.read_bytes(offset, _HEADER.size + length)
        except ValueError:
            # Torn content materialization — the frame is poison.
            return None
        try:
            return unpack_blob(frame)
        except PoolCorruption:
            return None

    def _newest(self) -> Tuple[Optional[int], Optional[Tuple[bytes, int]]]:
        """``(slot index, (payload, generation))`` of the newest valid
        slot (the lower index on a generation tie), or ``(None, None)``.
        """
        best_index: Optional[int] = None
        best: Optional[Tuple[bytes, int]] = None
        for index in (0, 1):
            slot = self._read_slot(index)
            if slot is not None and (best is None or slot[1] > best[1]):
                best_index, best = index, slot
        return best_index, best

    def read(self) -> Optional[Tuple[bytes, int]]:
        """Newest committed ``(payload, generation)``, or None if empty."""
        return self._newest()[1]

    def slot_states(self) -> Tuple[object, object]:
        """Per-slot health, for integrity tooling (fsck).

        Each slot reports ``("valid", generation)``, ``"empty"`` (all
        zero bytes — a slot no write ever reached, normal for young
        records), or ``"torn"`` (unreadable but not blank — a write that
        power loss cut short).
        """
        states = []
        for index in (0, 1):
            slot = self._read_slot(index)
            if slot is not None:
                states.append(("valid", slot[1]))
                continue
            try:
                raw = self.allocation.read_bytes(self._slot_offset(index),
                                                 self.slot_size)
            except ValueError:
                states.append("torn")  # torn-content materialization
                continue
            states.append("empty" if not any(raw) else "torn")
        return tuple(states)

    def write(self, payload: bytes) -> int:
        """Commit *payload* crash-atomically; returns the new generation."""
        if len(payload) > self.max_payload():
            raise PmemError(
                f"payload of {len(payload)} bytes exceeds slot capacity "
                f"{self.max_payload()}")
        hook = self.allocation.device.crash_hook
        if hook is not None:
            # Crash point: power loss before the slot write begins.
            hook("record.write", self.allocation.tag)
        newest_slot, current = self._newest()
        if current is None:
            generation, target = 1, 0
        else:
            # Overwrite the slot that does NOT hold the newest value.
            generation, target = current[1] + 1, 1 - newest_slot
        frame = pack_blob(payload, generation)
        slot_offset = self._slot_offset(target)
        self.allocation.write(slot_offset, ByteContent(frame))
        if hook is not None:
            # Crash point: the frame sits in the store buffer, unflushed
            # — power loss here loses or tears exactly this slot.
            hook("record.persist", self.allocation.tag)
        self.allocation.persist(slot_offset, len(frame))
        return generation
