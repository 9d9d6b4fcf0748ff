"""Tests for CRC frames, CommittedRecord crash atomicity, durability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PmemError, PoolCorruption
from repro.hw import ByteContent, PmemDimm
from repro.pmem.layout import CommittedRecord, pack_blob, unpack_blob
from repro.sim import Environment
from repro.units import gib


def make_allocation(size=8192):
    env = Environment()
    pmem = PmemDimm(env, dimms=1, dimm_capacity=gib(1))
    return pmem.alloc(size, tag="test")


# --- blobs ---------------------------------------------------------------------


def test_blob_roundtrip():
    frame = pack_blob(b"hello portus", generation=7)
    payload, generation = unpack_blob(frame)
    assert payload == b"hello portus"
    assert generation == 7


def test_blob_detects_corruption():
    frame = bytearray(pack_blob(b"data", generation=1))
    frame[-1] ^= 0xFF
    with pytest.raises(PoolCorruption, match="checksum"):
        unpack_blob(bytes(frame))


def test_blob_detects_truncation():
    frame = pack_blob(b"data-that-gets-cut", generation=1)
    with pytest.raises(PoolCorruption):
        unpack_blob(frame[:8])
    with pytest.raises(PoolCorruption, match="truncated"):
        unpack_blob(frame[:-3])


def test_blob_detects_bad_magic():
    frame = bytearray(pack_blob(b"data", generation=1))
    frame[0] ^= 0xFF
    with pytest.raises(PoolCorruption, match="magic"):
        unpack_blob(bytes(frame))


# --- durability model ---------------------------------------------------------------


def test_unpersisted_write_may_be_lost_on_crash():
    allocation = make_allocation()
    allocation.write(0, ByteContent(b"volatile"))
    assert allocation.unflushed_ranges == [(0, 8)]
    rng = random.Random(0)
    # Force the "lost" outcome deterministically.
    rng.choice = lambda options: "lost"
    allocation.crash(rng)
    assert allocation.read_bytes(0, 8) == bytes(8)


def test_persisted_write_survives_crash():
    allocation = make_allocation()
    allocation.write(0, ByteContent(b"durable!"))
    allocation.persist(0, 8)
    assert allocation.unflushed_ranges == []
    rng = random.Random(0)
    allocation.crash(rng)
    assert allocation.read_bytes(0, 8) == b"durable!"


def test_partial_persist_trims_unflushed_ranges():
    allocation = make_allocation()
    allocation.write(0, ByteContent(b"x" * 100))
    allocation.persist(20, 30)
    assert allocation.unflushed_ranges == [(0, 20), (50, 50)]


def test_torn_crash_outcome_is_detectable():
    allocation = make_allocation()
    allocation.write(0, ByteContent(b"ohno" * 4))
    rng = random.Random(0)
    rng.choice = lambda options: "torn"
    allocation.crash(rng)
    with pytest.raises(ValueError, match="torn"):
        allocation.read_bytes(0, 16)


# --- CommittedRecord ------------------------------------------------------------------


def test_committed_record_empty_reads_none():
    allocation = make_allocation()
    record = CommittedRecord(allocation, 0, slot_size=256)
    assert record.read() is None


def test_committed_record_roundtrip_and_generations():
    allocation = make_allocation()
    record = CommittedRecord(allocation, 0, slot_size=256)
    assert record.write(b"v1") == 1
    assert record.read() == (b"v1", 1)
    assert record.write(b"v2") == 2
    assert record.read() == (b"v2", 2)


def test_committed_record_payload_too_large():
    allocation = make_allocation()
    record = CommittedRecord(allocation, 0, slot_size=64)
    with pytest.raises(PmemError, match="exceeds slot"):
        record.write(b"x" * 64)


def test_committed_record_short_frame_over_torn_tail_reads_back():
    """Power loss tears a long frame; the next, shorter frame persisted
    over its head must read back although the torn bytes past it stay."""
    allocation = make_allocation()
    record = CommittedRecord(allocation, 0, slot_size=256)
    record.write(b"stable")  # generation 1 in slot 0
    allocation.write(record._slot_offset(1),
                     ByteContent(pack_blob(b"x" * 200, generation=2)))
    rng = random.Random(0)
    rng.choice = lambda options: "torn"
    allocation.crash(rng)
    assert record.slot_states() == (("valid", 1), "torn")
    assert record.read() == (b"stable", 1)
    assert record.write(b"short") == 2  # lands in the torn slot 1
    assert record.read() == (b"short", 2)
    assert record.slot_states() == (("valid", 1), ("valid", 2))
    assert record.write(b"next") == 3  # so slot 0 is the stale one
    assert record.read() == (b"next", 3)


def test_committed_record_survives_any_crash(seed=None):
    """A crash during the Nth write must leave version N or N-1 readable."""
    for master_seed in range(20):
        allocation = make_allocation()
        record = CommittedRecord(allocation, 0, slot_size=256)
        rng = random.Random(master_seed)
        committed = 0
        for version in range(1, 10):
            payload = f"version-{version}".encode()
            record.write(payload)
            committed = version
            if rng.random() < 0.4:
                # Crash immediately after the commit: write() persisted, so
                # the newest version must survive.
                allocation.crash(rng)
                break
        survived = record.read()
        assert survived is not None
        payload, generation = survived
        assert generation == committed
        assert payload == f"version-{committed}".encode()


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_committed_record_crash_mid_write_property(seed):
    """Crash *between* the raw slot write and its persist: the previous
    committed value must still be readable (never the torn new one)."""
    allocation = make_allocation()
    record = CommittedRecord(allocation, 0, slot_size=256)
    record.write(b"stable")
    # A correct updater only ever writes the *stale* slot.  Simulate the
    # crash window inside write(): raw bytes hit the stale slot but the
    # persist never happened.
    stale_slot = 1 if record._read_slot(0) is not None else 0
    rng = random.Random(seed)
    garbage = bytes(rng.getrandbits(8) for _ in range(100))
    allocation.write(record._slot_offset(stale_slot), ByteContent(garbage))
    allocation.crash(rng)
    survived = record.read()
    assert survived is not None
    # CRC framing makes random garbage invalid, so the committed value is
    # always the one that survives.
    assert survived[0] == b"stable"
