"""Content values: what the bytes *are*, independent of where they live.

The timing model decides how long a transfer takes; the content model
decides what arrives.  Four kinds:

* :class:`ByteContent` — real bytes, used for metadata, indexes, and any
  payload small enough to materialize.
* :class:`PatternContent` — a deterministic pseudo-random byte stream
  identified by ``(seed, base, size)``.  Slicing is exact (byte *i* of the
  stream is a pure function of ``seed`` and ``base + i``), so a multi-GB
  tensor can be cut into stripes, reassembled, and verified bit-for-bit
  without ever existing in host RAM.
* :class:`ZeroContent` — all zero bytes (fresh allocations).
* :class:`TornContent` — the result of a crash interrupting a write; reads
  as poison and never compares equal to anything, including itself.

Equality materializes when any side is small, otherwise compares canonical
fingerprints; two *different* huge representations fall back to a bounded
windowed comparison (one MATERIALIZE-sized window in flight at a time), so
dedup verification and restore checks on multi-GB tensors never crash.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

# Largest content we are willing to materialize into real bytes.
MATERIALIZE_LIMIT = 64 * 1024 * 1024

# Window size for comparing two large contents whose fingerprints differ:
# at most one window is materialized per side at any moment.
_COMPARE_CHUNK = 16 * 1024 * 1024

_MULT = np.uint64(0x9E3779B97F4A7C15)
_XOR = np.uint64(0xBF58476D1CE4E5B9)


class Content:
    """Abstract immutable byte-string value of known size."""

    size: int

    def slice(self, offset: int, length: int) -> "Content":
        """Return the sub-content [offset, offset+length)."""
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        """Materialize into real bytes (refuses above MATERIALIZE_LIMIT)."""
        raise NotImplementedError

    def fingerprint(self) -> Tuple:
        """Canonical identity used for large-content equality."""
        raise NotImplementedError

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"slice [{offset}, {offset + length}) outside content of "
                f"size {self.size}")

    def equals(self, other: "Content") -> bool:
        """Value equality; materializes when either side is small."""
        if self.size != other.size:
            return False
        if isinstance(self, TornContent) or isinstance(other, TornContent):
            return False
        if self.fingerprint() == other.fingerprint():
            return True
        if self.size <= MATERIALIZE_LIMIT:
            return self.to_bytes() == other.to_bytes()
        # Two large contents with different canonical forms (e.g. a joined
        # pattern vs a composite of the same bytes): compare one bounded
        # window at a time.  Per window the cheap fingerprint check runs
        # first, so canonical-equal stretches never materialize.
        cursor = 0
        while cursor < self.size:
            step = min(_COMPARE_CHUNK, self.size - cursor)
            mine = self.slice(cursor, step)
            theirs = other.slice(cursor, step)
            if mine.fingerprint() != theirs.fingerprint():
                try:
                    if mine.to_bytes() != theirs.to_bytes():
                        return False
                except ValueError:
                    # A torn sub-part inside a composite: unreadable bytes
                    # are never equal to anything.
                    return False
            cursor += step
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Content):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def iter_chunks(self, chunk_size: int = 16 * 1024 * 1024):
        """Yield materialized byte chunks — streaming export of contents
        larger than MATERIALIZE_LIMIT."""
        if chunk_size <= 0 or chunk_size > MATERIALIZE_LIMIT:
            raise ValueError(f"bad chunk size {chunk_size}")
        cursor = 0
        while cursor < self.size:
            step = min(chunk_size, self.size - cursor)
            yield self.slice(cursor, step).to_bytes()
            cursor += step


class ByteContent(Content):
    """Real bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self.size = len(self._data)

    def slice(self, offset: int, length: int) -> "ByteContent":
        self._check_range(offset, length)
        return ByteContent(self._data[offset:offset + length])

    def to_bytes(self) -> bytes:
        return self._data

    def fingerprint(self) -> Tuple:
        return ("bytes", hashlib.sha1(self._data).hexdigest())

    def __repr__(self) -> str:
        return f"<ByteContent {self.size}B>"


def pattern_bytes(seed: int, base: int, length: int) -> bytes:
    """The canonical pattern byte stream for ``(seed, base)``, materialized.

    Byte *i* is ``mix(seed, base + i)`` — a SplitMix64-style mix truncated
    to 8 bits — computed vectorized so tests over multi-MB windows stay fast.
    """
    if length == 0:
        return b""
    idx = np.arange(base, base + length, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (idx + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) * _MULT
        x ^= x >> np.uint64(31)
        x *= _XOR
        x ^= x >> np.uint64(27)
    return (x & np.uint64(0xFF)).astype(np.uint8).tobytes()


class PatternContent(Content):
    """A deterministic virtual byte stream of arbitrary size."""

    def __init__(self, seed: int, size: int, base: int = 0) -> None:
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.seed = int(seed)
        self.base = int(base)
        self.size = int(size)

    def slice(self, offset: int, length: int) -> "PatternContent":
        self._check_range(offset, length)
        return PatternContent(self.seed, length, base=self.base + offset)

    def to_bytes(self) -> bytes:
        if self.size > MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize {self.size} bytes of pattern")
        return pattern_bytes(self.seed, self.base, self.size)

    def fingerprint(self) -> Tuple:
        return ("pattern", self.seed, self.base, self.size)

    def __repr__(self) -> str:
        return f"<PatternContent seed={self.seed} base={self.base} " \
               f"size={self.size}>"


class ZeroContent(Content):
    """All-zero bytes (fresh allocation, trimmed file hole)."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.size = int(size)

    def slice(self, offset: int, length: int) -> "ZeroContent":
        self._check_range(offset, length)
        return ZeroContent(length)

    def to_bytes(self) -> bytes:
        if self.size > MATERIALIZE_LIMIT:
            raise ValueError(f"refusing to materialize {self.size} zero bytes")
        return bytes(self.size)

    def fingerprint(self) -> Tuple:
        return ("zero", self.size)

    def __repr__(self) -> str:
        return f"<ZeroContent size={self.size}>"


class TornContent(Content):
    """Poison left behind by a crash that interrupted a write.

    Never equal to anything (crash-consistency tests rely on torn data
    being detectable); materializing it is an error, mirroring the fact
    that real recovery code must not trust such bytes.
    """

    def __init__(self, size: int, note: str = "torn write") -> None:
        self.size = int(size)
        self.note = note

    def slice(self, offset: int, length: int) -> "TornContent":
        self._check_range(offset, length)
        return TornContent(length, self.note)

    def to_bytes(self) -> bytes:
        raise ValueError(f"read of torn content ({self.note})")

    def fingerprint(self) -> Tuple:
        return ("torn", id(self))

    def __repr__(self) -> str:
        return f"<TornContent size={self.size} note={self.note!r}>"


class CompositeContent(Content):
    """Concatenation of contents, produced by reads spanning segments."""

    def __init__(self, parts: List[Content]) -> None:
        self.parts = [p for p in parts if p.size > 0]
        self.size = sum(p.size for p in self.parts)

    def slice(self, offset: int, length: int) -> Content:
        self._check_range(offset, length)
        out: List[Content] = []
        cursor = 0
        for part in self.parts:
            lo = max(offset, cursor)
            hi = min(offset + length, cursor + part.size)
            if lo < hi:
                out.append(part.slice(lo - cursor, hi - lo))
            cursor += part.size
        return _simplify(out, length)

    def to_bytes(self) -> bytes:
        if self.size > MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize {self.size} composite bytes")
        return b"".join(part.to_bytes() for part in self.parts)

    def fingerprint(self) -> Tuple:
        return ("composite", tuple(p.fingerprint() for p in self.parts))

    def __repr__(self) -> str:
        return f"<CompositeContent {len(self.parts)} parts {self.size}B>"


def concat(parts: List[Content]) -> Content:
    """Concatenate contents into the simplest canonical equivalent.

    Adjacent same-stream patterns and zero runs join, so the result's
    :meth:`Content.fingerprint` is a stable identity for the byte string —
    the property content-hash chunking (dedup) relies on.
    """
    total = sum(part.size for part in parts)
    return _simplify(list(parts), total)


def _simplify(parts: List[Content], total: int) -> Content:
    """Collapse a part list into the simplest equivalent content."""
    merged: List[Content] = []
    for part in parts:
        if part.size == 0:
            continue
        if merged:
            joined = _try_join(merged[-1], part)
            if joined is not None:
                merged[-1] = joined
                continue
        merged.append(part)
    if not merged:
        return ZeroContent(total)
    if len(merged) == 1:
        return merged[0]
    return CompositeContent(merged)


def _try_join(left: Content, right: Content) -> Optional[Content]:
    """Join two adjacent contents when the result stays canonical."""
    if isinstance(left, ZeroContent) and isinstance(right, ZeroContent):
        return ZeroContent(left.size + right.size)
    if (isinstance(left, PatternContent) and isinstance(right, PatternContent)
            and left.seed == right.seed
            and left.base + left.size == right.base):
        return PatternContent(left.seed, left.size + right.size,
                              base=left.base)
    if isinstance(left, ByteContent) and isinstance(right, ByteContent) and \
            left.size + right.size <= MATERIALIZE_LIMIT:
        return ByteContent(left.to_bytes() + right.to_bytes())
    return None


class SegmentBuffer:
    """A writable byte range backed by a sorted list of content segments.

    This is the storage representation used by every device and by the
    PMem pool: writes replace sub-ranges, reads return the covering content
    (simplified).  Segments are kept as two parallel lists, their start
    offsets and their contents, sorted and contiguous over ``[0, size)``.
    ``read`` bisects to its first segment and walks only the segments it
    covers; ``write`` bisects the touched range and splices in at most
    three replacements (left remainder, new content, right remainder).
    Both cost O(log #segments + #segments touched) per call.
    """

    def __init__(self, size: int, fill: Optional[Content] = None) -> None:
        if size < 0:
            raise ValueError(f"negative buffer size: {size}")
        self.size = size
        initial = fill if fill is not None else ZeroContent(size)
        if initial.size != size:
            raise ValueError("fill content size mismatch")
        self._starts: List[int] = [0] if size > 0 else []
        self._segs: List[Content] = [initial] if size > 0 else []

    def write(self, offset: int, content: Content) -> None:
        """Replace ``[offset, offset + content.size)`` with *content*."""
        if offset < 0 or offset + content.size > self.size:
            raise ValueError(
                f"write [{offset}, {offset + content.size}) outside buffer "
                f"of size {self.size}")
        if content.size == 0:
            return
        end = offset + content.size
        starts, segs = self._starts, self._segs
        # Segments [i, j) overlap the write: i holds *offset*, j - 1 holds
        # the last byte before *end*.
        i = bisect_right(starts, offset) - 1
        j = bisect_left(starts, end)
        first_start = starts[i]
        if first_start < offset:
            new_starts = [first_start, offset]
            new_segs = [segs[i].slice(0, offset - first_start), content]
        else:
            new_starts = [offset]
            new_segs = [content]
        last_start, last = starts[j - 1], segs[j - 1]
        last_end = last_start + last.size
        if last_end > end:
            new_starts.append(end)
            new_segs.append(last.slice(end - last_start, last_end - end))
        starts[i:j] = new_starts
        segs[i:j] = new_segs

    def read(self, offset: int = 0, length: Optional[int] = None) -> Content:
        """Return the content covering ``[offset, offset + length)``."""
        if length is None:
            length = self.size - offset
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ValueError(
                f"read [{offset}, {offset + length}) outside buffer of "
                f"size {self.size}")
        end = offset + length
        starts, segs = self._starts, self._segs
        count = len(starts)
        # Clamped so an empty (size-0) buffer still reads ZeroContent(0).
        i = max(bisect_right(starts, offset) - 1, 0)
        parts: List[Content] = []
        while i < count and starts[i] < end:
            start, seg = starts[i], segs[i]
            lo = max(start, offset)
            hi = min(start + seg.size, end)
            if lo < hi:
                parts.append(seg.slice(lo - start, hi - lo))
            i += 1
        return _simplify(parts, length)

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Materialized read, for metadata-sized windows."""
        return self.read(offset, length).to_bytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Materialized write, for metadata-sized windows."""
        self.write(offset, ByteContent(data))

    @property
    def segment_count(self) -> int:
        return len(self._starts)
