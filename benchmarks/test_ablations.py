"""Ablations of PCcheck's design choices, on the functional engine.

Each ablation removes one design element and measures the consequence,
with real threads and bandwidth-throttled devices:

* **concurrency** (the core idea): N=2 vs N=1 under back-to-back
  checkpoint requests;
* **fence discipline** (§3.3/§4.1): single ``msync`` on SSD vs per-thread
  fences on PMEM — the SSD path issues one barrier where PMEM needs p;
* **DRAM staging** (§3.3): staging + background persist vs GPM-style
  direct stall-and-persist;
* **pipelining** (§3.1): chunked streaming lets a checkpoint larger than
  the staging pool proceed, and costs nothing when memory is ample.
"""

import time

import pytest

from repro.baselines import build_strategy
from repro.core.config import PCcheckConfig
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource
from repro.core.writer import ParallelWriter
from repro.storage.dram import DRAMBufferPool
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD

PAYLOAD = b"\x5a" * (256 * 1024)
BANDWIDTH = 10e6  # ~26 ms to persist one payload


def persist(writer, payload):
    """Blocking persist of ``payload`` at offset 0, then shut the pool."""
    with writer:
        writer.reap(writer.submit([(0, payload)]))


def burst_wall_time(num_concurrent, checkpoints=4):
    """Issue `checkpoints` back-to-back async checkpoints; time to drain."""
    config = PCcheckConfig(
        num_concurrent=num_concurrent, writer_threads=1,
        chunk_size=len(PAYLOAD), num_chunks=num_concurrent + 1,
    )
    strategy = build_strategy(
        "pccheck",
        lambda cap: InMemorySSD(cap, persist_bandwidth=BANDWIDTH),
        len(PAYLOAD),
        config=config,
    )
    start = time.monotonic()
    for step in range(1, checkpoints + 1):
        strategy.checkpoint(PAYLOAD, step=step)
    strategy.drain()
    elapsed = time.monotonic() - start
    strategy.close()
    return elapsed


class TestConcurrencyAblation:
    def test_concurrent_checkpoints_cut_burst_latency(self, benchmark):
        """Two concurrent checkpoints overlap their persists; with N=1
        the same burst serialises (the CheckFreq failure mode)."""
        serial = burst_wall_time(num_concurrent=1)
        concurrent = burst_wall_time(num_concurrent=2)
        benchmark.pedantic(burst_wall_time, args=(2,), rounds=2, iterations=1)
        assert concurrent < serial * 0.85


class TestFenceDisciplineAblation:
    def test_ssd_uses_one_barrier_pmem_uses_p(self, benchmark):
        """§4.1: on SSD the main thread can issue a single msync; on PMEM
        every writer thread must fence its own range."""
        ssd = InMemorySSD(1 << 20)
        pmem = SimulatedPMEM(1 << 20)
        persist(ParallelWriter(ssd, num_threads=4), b"x" * 64 * 1024)
        persist(ParallelWriter(pmem, num_threads=4), b"x" * 64 * 1024)
        assert ssd.stats.persist_ops == 1
        assert pmem.stats.persist_ops == 4

        def persist_ssd():
            device = InMemorySSD(1 << 20)
            persist(ParallelWriter(device, num_threads=4), b"x" * 64 * 1024)

        benchmark(persist_ssd)

    def test_both_disciplines_are_durable(self):
        for device in (InMemorySSD(1 << 20), SimulatedPMEM(1 << 20)):
            persist(ParallelWriter(device, num_threads=3), b"d" * 1000)
            device.crash()
            device.recover()
            assert device.read(0, 1000) == b"d" * 1000


class TestStagingAblation:
    def test_staging_keeps_training_thread_free(self, benchmark):
        """With DRAM staging the checkpoint call returns immediately; the
        GPM-style direct persist blocks for the full device time."""

        def call_latency(name):
            config = None
            if name == "pccheck":
                config = PCcheckConfig(num_concurrent=1, writer_threads=1,
                                       chunk_size=len(PAYLOAD), num_chunks=2)
            strategy = build_strategy(
                name,
                lambda cap: InMemorySSD(cap, persist_bandwidth=BANDWIDTH),
                len(PAYLOAD),
                config=config,
            )
            start = time.monotonic()
            strategy.checkpoint(PAYLOAD, step=1)
            elapsed = time.monotonic() - start
            strategy.drain()
            strategy.close()
            return elapsed

        direct = call_latency("gpm")
        staged = call_latency("pccheck")
        benchmark.pedantic(call_latency, args=("pccheck",), rounds=2,
                           iterations=1)
        persist_seconds = len(PAYLOAD) / BANDWIDTH
        assert direct > persist_seconds * 0.5  # blocked through the persist
        assert staged < persist_seconds * 0.5  # returned while it ran


class TestPipeliningAblation:
    def test_chunking_allows_checkpoints_larger_than_the_pool(self, benchmark):
        """A 1 MiB checkpoint streams through a 2x64 KiB staging pool."""
        payload = b"\x77" * (1 << 20)
        chunk = 64 * 1024
        slot_size = len(payload) + RECORD_SIZE
        geometry = Geometry(num_slots=2, slot_size=slot_size)

        def run():
            device = InMemorySSD(geometry.total_size)
            layout = DeviceLayout.format(device, num_slots=2,
                                         slot_size=slot_size)
            engine = CheckpointEngine(layout, writer_threads=2)
            pool = DRAMBufferPool(num_chunks=2, chunk_size=chunk)
            orchestrator = PCcheckOrchestrator(engine, pool)
            result = orchestrator.checkpoint_sync(BytesSource(payload), step=1)
            orchestrator.close()
            return layout, result

        layout, result = run()
        assert result.committed
        assert recover(layout).payload == payload
        benchmark.pedantic(run, rounds=2, iterations=1)
