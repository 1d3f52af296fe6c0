"""Tests for recovery paths: commit-record fast path and slot-scan fallback."""

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import (
    PersistentIterator,
    recover,
    try_recover,
)
from repro.errors import NoCheckpointError
from repro.storage.ssd import InMemorySSD


def make_engine(num_slots=3, payload_capacity=1024):
    slot_size = payload_capacity + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(device, num_slots=num_slots, slot_size=slot_size)
    return CheckpointEngine(layout, writer_threads=2)


class TestFastPath:
    def test_commit_record_found(self):
        engine = make_engine()
        engine.checkpoint(b"hello", step=4)
        recovered = recover(engine.layout)
        assert recovered.source == "commit-record"
        assert recovered.payload == b"hello"

    def test_recovered_meta_matches_engine_state(self):
        engine = make_engine()
        engine.checkpoint(b"v1", step=1)
        engine.checkpoint(b"v2", step=2)
        assert recover(engine.layout).meta == engine.committed()

    def test_empty_region_raises(self):
        engine = make_engine()
        with pytest.raises(NoCheckpointError):
            recover(engine.layout)
        assert try_recover(engine.layout) is None


class TestSlotScanFallback:
    def test_torn_commit_record_falls_back_to_scan(self):
        engine = make_engine()
        engine.checkpoint(b"survivor", step=9)
        layout = engine.layout
        # Tear the commit record.
        layout.device.write(layout.commit_offset, b"\xff" * RECORD_SIZE)
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.source == "slot-scan"
        assert recovered.payload == b"survivor"
        assert recovered.meta.step == 9

    def test_scan_picks_newest_valid_slot(self):
        engine = make_engine(num_slots=4)
        for step in range(1, 4):
            engine.checkpoint(f"v{step}".encode(), step=step)
        layout = engine.layout
        layout.device.write(layout.commit_offset, bytes(RECORD_SIZE))
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.payload == b"v3"

    def test_scan_rejects_slot_with_overwritten_payload(self):
        """A recycled slot whose payload was overwritten must fail CRC."""
        engine = make_engine()
        engine.checkpoint(b"old-checkpoint", step=1)
        old_meta = engine.committed()
        engine.checkpoint(b"new-checkpoint", step=2)
        layout = engine.layout
        # Corrupt the old (now superseded) slot's payload in place, as a
        # new in-flight checkpoint overwriting it would.
        layout.device.write(layout.payload_offset(old_meta.slot), b"garbage!")
        layout.device.persist_all()
        # Tear the commit record to force the scan path.
        layout.device.write(layout.commit_offset, bytes(RECORD_SIZE))
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.payload == b"new-checkpoint"

    def test_commit_record_pointing_at_stale_header_is_rejected(self):
        """If the commit record's counter mismatches the slot header,
        recovery must distrust it and fall back."""
        engine = make_engine()
        engine.checkpoint(b"first", step=1)
        first = engine.committed()
        engine.checkpoint(b"second", step=2)
        layout = engine.layout
        # Forge a commit record referencing the first checkpoint's slot
        # but with a wrong counter.
        from repro.core.meta import CheckMeta, encode_commit_record

        forged = CheckMeta(
            counter=first.counter + 100,
            slot=first.slot,
            payload_len=first.payload_len,
            payload_crc=first.payload_crc,
            step=first.step,
        )
        layout.device.write(layout.commit_offset, encode_commit_record(forged))
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.source == "slot-scan"
        assert recovered.payload == b"second"


class TestPersistentIterator:
    def test_reads_in_chunks_and_logs_locations(self):
        engine = make_engine()
        payload = bytes(range(256)) * 3  # 768 bytes
        engine.checkpoint(payload, step=1)
        meta = engine.committed()
        iterator = PersistentIterator(engine.layout, meta, chunk_size=100)
        assert iterator.read_all() == payload
        assert len(iterator.read_log) == 8  # ceil(768 / 100)
        base = engine.layout.payload_offset(meta.slot)
        assert iterator.read_log[0] == (base, 100)
        assert iterator.read_log[-1] == (base + 700, 68)

    def test_empty_payload_logs_nothing(self):
        engine = make_engine()
        engine.checkpoint(b"", step=1)
        iterator = PersistentIterator(engine.layout, engine.committed())
        assert iterator.read_all() == b""
        assert iterator.read_log == []


class TestEndToEndRestart:
    def test_recover_after_clean_shutdown_and_reopen(self):
        engine = make_engine()
        for step in range(1, 6):
            engine.checkpoint(f"state-{step}".encode(), step=step)
        device = engine.layout.device
        layout = DeviceLayout.open(device)
        recovered = recover(layout)
        assert recovered.payload == b"state-5"
        # Rebuild and continue.
        engine2 = CheckpointEngine(layout, recovered=recovered.meta)
        engine2.checkpoint(b"state-6", step=6)
        assert recover(layout).payload == b"state-6"
