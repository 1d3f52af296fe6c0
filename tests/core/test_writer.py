"""Tests for the parallel writer pool and fence disciplines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.writer import ParallelWriter, default_fence_mode, split_range
from repro.errors import EngineError
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD


def persist(writer, offset, payload):
    """Blocking persist of one piece: one submit, one reap."""
    writer.reap(writer.submit([(offset, payload)]))


class TestSplitRange:
    def test_even_split(self):
        assert split_range(12, 3) == [(0, 4), (4, 8), (8, 12)]

    def test_uneven_split_front_loads_extra(self):
        assert split_range(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_bytes(self):
        assert split_range(2, 5) == [(0, 1), (1, 2)]

    def test_zero_length(self):
        assert split_range(0, 3) == []

    def test_invalid_parts_rejected(self):
        with pytest.raises(EngineError):
            split_range(10, 0)

    def test_negative_length_rejected(self):
        with pytest.raises(EngineError):
            split_range(-1, 2)

    @given(length=st.integers(0, 10_000), parts=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_shares_partition_the_range(self, length, parts):
        shares = split_range(length, parts)
        assert sum(hi - lo for lo, hi in shares) == length
        cursor = 0
        for lo, hi in shares:
            assert lo == cursor
            assert hi > lo
            cursor = hi
        if shares:
            sizes = [hi - lo for lo, hi in shares]
            assert max(sizes) - min(sizes) <= 1


class TestDefaultFenceMode:
    def test_pmem_gets_per_thread_fences(self):
        assert default_fence_mode(SimulatedPMEM(1024)) == "per-thread"

    def test_ssd_gets_single_msync(self):
        assert default_fence_mode(InMemorySSD(1024)) == "single"


class TestParallelWriter:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_ssd_persist_is_durable(self, threads):
        device = InMemorySSD(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=threads)
        payload = bytes(range(256)) * 64
        persist(writer, 128, payload)
        device.crash()
        device.recover()
        assert device.read(128, len(payload)) == payload

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_pmem_persist_is_durable(self, threads):
        device = SimulatedPMEM(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=threads)
        payload = b"\xab" * 10_000
        persist(writer, 0, payload)
        device.crash()
        device.recover()
        assert device.read(0, len(payload)) == payload

    def test_pmem_uses_per_thread_fences(self):
        device = SimulatedPMEM(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=4)
        persist(writer, 0, b"x" * 4096)
        # Per-thread fencing issues one sfence per share.
        assert device.stats.persist_ops == 4

    def test_ssd_uses_single_msync_for_multithread_write(self):
        device = InMemorySSD(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=4)
        persist(writer, 0, b"x" * 4096)
        assert device.stats.persist_ops == 1

    def test_empty_payload_is_noop(self):
        device = InMemorySSD(capacity=1024)
        writer = ParallelWriter(device, num_threads=3)
        persist(writer, 0, b"")
        assert device.stats.write_ops == 0

    def test_bytes_persisted_accounting(self):
        device = InMemorySSD(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=2)
        persist(writer, 0, b"a" * 100)
        persist(writer, 200, b"b" * 50)
        assert writer.bytes_persisted == 150

    def test_thread_exception_propagates(self):
        device = InMemorySSD(capacity=1024)
        device.crash()
        writer = ParallelWriter(device, num_threads=3)
        with pytest.raises(Exception):
            persist(writer, 0, b"x" * 300)

    def test_zero_threads_rejected(self):
        with pytest.raises(EngineError):
            ParallelWriter(InMemorySSD(1024), num_threads=0)

    @given(
        payload=st.binary(min_size=1, max_size=5000),
        threads=st.integers(1, 6),
        offset=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_payload_any_threads_roundtrip(self, payload, threads, offset):
        device = InMemorySSD(capacity=8192)
        writer = ParallelWriter(device, num_threads=threads)
        persist(writer, offset, payload)
        device.crash()
        device.recover()
        assert device.read(offset, len(payload)) == payload
