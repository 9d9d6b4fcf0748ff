"""Unit and property tests for the content model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.content import (ByteContent, CompositeContent, PatternContent,
                              SegmentBuffer, TornContent, ZeroContent,
                              _simplify, pattern_bytes)


# --- pattern determinism ------------------------------------------------------


def test_pattern_bytes_deterministic():
    assert pattern_bytes(7, 0, 64) == pattern_bytes(7, 0, 64)
    assert pattern_bytes(7, 0, 64) != pattern_bytes(8, 0, 64)


def test_pattern_slice_matches_offset_stream():
    whole = PatternContent(seed=42, size=1000)
    part = whole.slice(100, 50)
    assert part.to_bytes() == whole.to_bytes()[100:150]


@given(seed=st.integers(0, 2**32), base=st.integers(0, 2**20),
       offset=st.integers(0, 500), length=st.integers(0, 500))
@settings(max_examples=50)
def test_pattern_slice_property(seed, base, offset, length):
    whole = PatternContent(seed, 1000, base=base)
    part = whole.slice(offset, length)
    assert part.to_bytes() == whole.to_bytes()[offset:offset + length]


def test_pattern_equality_by_fingerprint_without_materializing():
    huge_a = PatternContent(seed=1, size=100 * 1024**3)
    huge_b = PatternContent(seed=1, size=100 * 1024**3)
    assert huge_a.equals(huge_b)


def test_distinct_huge_patterns_compare_unequal_without_crashing():
    # Distinct streams differ in the first window, so the bounded
    # comparison answers False after materializing only one window.
    huge_a = PatternContent(seed=1, size=100 * 1024**3)
    huge_b = PatternContent(seed=2, size=100 * 1024**3)
    assert not huge_a.equals(huge_b)
    assert not huge_b.equals(huge_a)


def test_large_equal_pair_with_differing_fingerprints():
    """128 MiB regression: same bytes, different canonical forms.

    A single pattern vs a hand-built composite of the same stream: the
    top-level fingerprints differ (composite vs pattern), the size is
    over MATERIALIZE_LIMIT, and before the bounded-window fix this pair
    raised ValueError out of ``Content.equals``.
    """
    size = 128 * 1024 * 1024
    half = size // 2
    whole = PatternContent(seed=9, size=size)
    split = CompositeContent([PatternContent(seed=9, size=half),
                              PatternContent(seed=9, size=half, base=half)])
    assert whole.fingerprint() != split.fingerprint()
    assert whole.equals(split)
    assert split.equals(whole)
    # A pair that differs only in the last window must come back False.
    flipped = pattern_bytes(9, size - 1, 1)[0] ^ 0xFF
    tail_off = CompositeContent([
        PatternContent(seed=9, size=size - 1),
        ByteContent(bytes([flipped])),
    ])
    assert not whole.equals(tail_off)


def test_large_bytecontent_pair_materializes_windowed():
    # Byte-backed halves force the per-window materialize path (their
    # window fingerprints are sha1 digests, never equal to the pattern's).
    size = 128 * 1024 * 1024
    half = size // 2
    whole = PatternContent(seed=4, size=size)
    raw = CompositeContent([
        ByteContent(pattern_bytes(4, 0, half)),
        ByteContent(pattern_bytes(4, half, half)),
    ])
    assert whole.equals(raw)


def test_materialize_limit_enforced():
    huge = PatternContent(seed=1, size=100 * 1024**3)
    with pytest.raises(ValueError, match="materialize"):
        huge.to_bytes()


def test_cross_kind_equality_small():
    pattern = PatternContent(seed=5, size=128)
    raw = ByteContent(pattern.to_bytes())
    assert pattern.equals(raw)
    assert raw.equals(pattern)
    assert not raw.equals(ByteContent(b"\x00" * 128))


def test_zero_content():
    zero = ZeroContent(16)
    assert zero.to_bytes() == bytes(16)
    assert zero.slice(4, 8).to_bytes() == bytes(8)
    assert zero.equals(ByteContent(bytes(16)))


def test_torn_content_never_equal():
    torn = TornContent(10)
    assert not torn.equals(torn)
    assert not torn.equals(ZeroContent(10))
    with pytest.raises(ValueError, match="torn"):
        torn.to_bytes()


def test_slice_bounds_checked():
    content = ByteContent(b"abcdef")
    with pytest.raises(ValueError):
        content.slice(4, 10)
    with pytest.raises(ValueError):
        content.slice(-1, 2)


# --- composites ------------------------------------------------------------------


def test_composite_slice_across_parts():
    composite = CompositeContent(
        [ByteContent(b"aaaa"), ByteContent(b"bbbb"), ByteContent(b"cccc")])
    assert composite.size == 12
    assert composite.slice(2, 6).to_bytes() == b"aabbbb"


def test_adjacent_pattern_slices_rejoin():
    whole = PatternContent(seed=9, size=100)
    left = whole.slice(0, 40)
    right = whole.slice(40, 60)
    composite = CompositeContent([left, right]).slice(0, 100)
    assert isinstance(composite, PatternContent)
    assert composite.equals(whole)


# --- SegmentBuffer -----------------------------------------------------------------


def test_buffer_starts_zeroed():
    buffer = SegmentBuffer(100)
    assert buffer.read().to_bytes() == bytes(100)


def test_buffer_write_then_read_back():
    buffer = SegmentBuffer(100)
    buffer.write(10, ByteContent(b"hello"))
    assert buffer.read_bytes(10, 5) == b"hello"
    assert buffer.read_bytes(0, 10) == bytes(10)
    assert buffer.read_bytes(15, 5) == bytes(5)


def test_buffer_overwrite_partial_overlap():
    buffer = SegmentBuffer(20)
    buffer.write(0, ByteContent(b"A" * 10))
    buffer.write(5, ByteContent(b"B" * 10))
    assert buffer.read_bytes(0, 20) == b"A" * 5 + b"B" * 10 + bytes(5)


def test_buffer_write_inside_existing_segment():
    buffer = SegmentBuffer(10)
    buffer.write(0, ByteContent(b"X" * 10))
    buffer.write(3, ByteContent(b"yy"))
    assert buffer.read_bytes(0, 10) == b"XXXyyXXXXX"


def test_buffer_bounds_checked():
    buffer = SegmentBuffer(10)
    with pytest.raises(ValueError):
        buffer.write(8, ByteContent(b"abc"))
    with pytest.raises(ValueError):
        buffer.read(5, 6)


def test_buffer_holds_virtual_content_without_materializing():
    buffer = SegmentBuffer(100 * 1024**3)
    huge = PatternContent(seed=3, size=90 * 1024**3)
    buffer.write(0, huge)
    read_back = buffer.read(0, huge.size)
    assert read_back.equals(huge)
    window = buffer.read(12345, 100)
    assert window.to_bytes() == huge.slice(12345, 100).to_bytes()


@given(st.lists(
    st.tuples(st.integers(0, 90), st.binary(min_size=1, max_size=20)),
    min_size=1, max_size=20))
@settings(max_examples=50)
def test_buffer_matches_reference_bytearray(writes):
    """Property: SegmentBuffer behaves exactly like a plain bytearray."""
    buffer = SegmentBuffer(128)
    reference = bytearray(128)
    for offset, data in writes:
        if offset + len(data) > 128:
            continue
        buffer.write(offset, ByteContent(data))
        reference[offset:offset + len(data)] = data
    assert buffer.read().to_bytes() == bytes(reference)


# --- indexed SegmentBuffer vs the linear oracle ----------------------------------


class _LinearSegmentBuffer:
    """The O(#segments) buffer that the indexed one replaced, kept as an
    oracle: ``read`` scans every segment, ``write`` rebuilds and re-sorts
    the whole list."""

    def __init__(self, size):
        self.size = size
        self._segments = [(0, ZeroContent(size))] if size > 0 else []

    def write(self, offset, content):
        if content.size == 0:
            return
        end = offset + content.size
        out = []
        for start, seg in self._segments:
            seg_end = start + seg.size
            if seg_end <= offset or start >= end:
                out.append((start, seg))
                continue
            if start < offset:
                out.append((start, seg.slice(0, offset - start)))
            if seg_end > end:
                out.append((end, seg.slice(end - start, seg_end - end)))
        out.append((offset, content))
        out.sort(key=lambda pair: pair[0])
        self._segments = out

    def read(self, offset, length):
        end = offset + length
        parts = []
        for start, seg in self._segments:
            lo = max(start, offset)
            hi = min(start + seg.size, end)
            if lo < hi:
                parts.append(seg.slice(lo - start, hi - lo))
        return _simplify(parts, length)


def _key(content):
    """Fingerprint, with torn parts keyed by value: a torn fingerprint is
    its object identity, and each buffer slices its own torn objects."""
    if isinstance(content, TornContent):
        return ("torn", content.size, content.note)
    if isinstance(content, CompositeContent):
        return ("composite", tuple(_key(part) for part in content.parts))
    return content.fingerprint()


def _layout(buffer):
    if isinstance(buffer, _LinearSegmentBuffer):
        return [(start, _key(seg)) for start, seg in buffer._segments]
    return [(start, _key(seg))
            for start, seg in zip(buffer._starts, buffer._segs)]


def _contents(offset, length):
    """Pattern (joinable with its neighbours when based on *offset*), zero,
    byte and torn contents of exactly *length* bytes."""
    return st.one_of(
        st.builds(lambda seed, base: PatternContent(seed, length, base=base),
                  st.integers(0, 2), st.sampled_from([offset, 0, 7])),
        st.just(ZeroContent(length)),
        st.binary(min_size=length, max_size=length).map(ByteContent),
        st.sampled_from(["crash", "mutated"]).map(
            lambda note: TornContent(length, note)),
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_indexed_buffer_matches_linear_oracle(data):
    """Differential: identical segment lists and reads, write for write,
    with writes that cover, straddle, or align with segment boundaries."""
    size = data.draw(st.integers(1, 160), label="size")
    fast, oracle = SegmentBuffer(size), _LinearSegmentBuffer(size)
    for _ in range(data.draw(st.integers(1, 30), label="ops")):
        bounds = sorted({start for start, _ in oracle._segments} | {size})
        point = st.one_of(st.sampled_from(bounds), st.integers(0, size))
        lo, hi = sorted((data.draw(point), data.draw(point)))
        if data.draw(st.booleans(), label="write"):
            content = data.draw(_contents(lo, hi - lo))
            fast.write(lo, content)
            oracle.write(lo, content)
        else:
            assert _key(fast.read(lo, hi - lo)) == \
                _key(oracle.read(lo, hi - lo))
        assert _layout(fast) == _layout(oracle)
        assert fast.segment_count == len(oracle._segments)
    assert _key(fast.read()) == _key(oracle.read(0, size))


def test_empty_buffer_reads_zero_content():
    buffer = SegmentBuffer(0)
    assert buffer.segment_count == 0
    empty = buffer.read()
    assert isinstance(empty, ZeroContent) and empty.size == 0


def test_zero_length_read_at_end_of_buffer():
    buffer = SegmentBuffer(32)
    buffer.write(16, PatternContent(seed=1, size=16, base=16))
    for read in (buffer.read(32, 0), buffer.read(32)):
        assert isinstance(read, ZeroContent) and read.size == 0


def test_full_overwrite_collapses_to_one_segment():
    buffer = SegmentBuffer(64)
    buffer.write(3, ByteContent(b"abc"))
    buffer.write(20, TornContent(9))
    buffer.write(40, PatternContent(seed=2, size=10))
    assert buffer.segment_count == 7
    whole = PatternContent(seed=5, size=64)
    buffer.write(0, whole)
    assert buffer.segment_count == 1
    assert buffer.read().fingerprint() == whole.fingerprint()
