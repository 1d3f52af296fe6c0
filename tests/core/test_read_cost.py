"""Read cost of recovery: every restore reads each payload once.

Locating a checkpoint costs header reads only (64 bytes per record); the
payload is read once, CRC-checked, and those same bytes are returned.
Each test counts the bytes a device actually served.
"""

import threading

from repro import open_checkpointer
from repro.core.distributed import (
    DistributedCoordinator,
    DistributedWorker,
    recover_consistent,
)
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.obs.metrics import M
from repro.service import CheckpointService, EngineSpec, TenantSpec
from repro.storage.ssd import InMemorySSD

PAYLOAD = 64 * 1024
NUM_SLOTS = 3
#: What one header-only walk of a region reads: the commit record and
#: every slot header.
HEADER_WALK = RECORD_SIZE * (1 + NUM_SLOTS)


def device_read_bytes(snapshot):
    series = snapshot.get(M.DEVICE_OP_BYTES, {"series": []})["series"]
    return sum(s["value"] for s in series if s["labels"].get("op") == "read")


class TestReopen:
    def test_clean_reopen_reads_the_payload_once(self, tmp_path):
        path = str(tmp_path / "region.pc")
        payload = bytes(range(256)) * (1024 * 1024 // 256)  # 1 MiB
        with open_checkpointer(path, capacity_bytes=len(payload)) as ckpt:
            ckpt.checkpoint(payload, step=3)
        reopened = open_checkpointer(path, capacity_bytes=len(payload))
        try:
            assert reopened.recovered.payload == payload
            served = reopened.device.stats.bytes_read
        finally:
            reopened.close()
        # The payload once; superblock and headers add well under a page.
        assert len(payload) <= served < len(payload) + 4096


class TestConsistentRecovery:
    def test_one_payload_read_per_rank(self):
        slot_size = PAYLOAD + RECORD_SIZE
        geometry = Geometry(num_slots=NUM_SLOTS, slot_size=slot_size)
        coordinator = DistributedCoordinator(2, timeout=10.0)
        workers = [
            DistributedWorker.create(
                rank,
                DeviceLayout.format(
                    InMemorySSD(capacity=geometry.total_size),
                    num_slots=NUM_SLOTS, slot_size=slot_size,
                ),
                coordinator,
            )
            for rank in range(2)
        ]
        # Three lockstep steps: every slot on both ranks holds a valid
        # checkpoint, so a scan that validated by reading would read 3.
        for step in (1, 2, 3):
            threads = [
                threading.Thread(
                    target=worker.checkpoint,
                    args=(bytes([worker.rank, step]) * (PAYLOAD // 2), step),
                )
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        coordinator.close()
        devices = [worker.engine.layout.device for worker in workers]
        before = [device.stats.bytes_read for device in devices]
        consistent = recover_consistent(
            [worker.engine.layout for worker in workers]
        )
        assert consistent.step == 3
        assert consistent.payloads[1] == bytes([1, 3]) * (PAYLOAD // 2)
        for device, start in zip(devices, before):
            assert device.stats.bytes_read - start == PAYLOAD + HEADER_WALK


class TestCoalescedRecovery:
    def test_recover_coalesced_reads_the_batch_once(self):
        spec = EngineSpec(capacity_bytes=4 * PAYLOAD, backend="pmem",
                          num_chunks=8, chunk_size=4 * PAYLOAD)
        blob = b"c" * PAYLOAD
        with CheckpointService.create(spec, pool_size=1) as service:
            service.register(TenantSpec(name="small", capacity_bytes=PAYLOAD,
                                        coalesce=True))
            assert service.checkpoint("small", blob, step=1).committed
            before = device_read_bytes(service.metrics())
            entry = service.recover_coalesced("small")
            served = device_read_bytes(service.metrics()) - before
        assert entry.payload == blob
        # One batch: the blob plus its framing, never a second copy.
        assert len(blob) <= served < 1.5 * len(blob)
