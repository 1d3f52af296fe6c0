"""Tests for the runtime invariant sanitizer (REPRO_SANITIZE)."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE, CheckMeta
from repro.core.sanitize import (
    ENV_VAR,
    EngineSanitizer,
    SanitizedSlotQueue,
    sanitize_requested,
)
from repro.errors import InvariantViolationError
from repro.storage.ssd import InMemorySSD

PAYLOAD_CAPACITY = 1024


def make_engine(num_slots=3, sanitize=True, recovered=None, device=None):
    slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    if device is None:
        device = InMemorySSD(capacity=geometry.total_size)
        layout = DeviceLayout.format(device, num_slots=num_slots,
                                     slot_size=slot_size)
    else:
        layout = DeviceLayout.open(device)
    return CheckpointEngine(layout, writer_threads=2, sanitize=sanitize,
                            recovered=recovered)


class TestEnablement:
    def test_explicit_flag(self):
        assert make_engine(sanitize=True).sanitizing
        assert not make_engine(sanitize=False).sanitizing

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert sanitize_requested()
        engine = make_engine(sanitize=None)
        assert engine.sanitizing

    def test_env_var_off_values(self, monkeypatch):
        for value in ["0", "", "no", "off"]:
            monkeypatch.setenv(ENV_VAR, value)
            assert not sanitize_requested()
        monkeypatch.delenv(ENV_VAR)
        assert not sanitize_requested()
        assert not make_engine(sanitize=None).sanitizing


class TestCleanRuns:
    """A correct engine must be invisible to the sanitizer."""

    def test_sequential_checkpoints(self):
        engine = make_engine()
        for step in range(8):
            assert engine.checkpoint(b"state-%d" % step, step=step).committed
        assert engine.committed().step == 7

    def test_abort_path(self):
        engine = make_engine()
        ticket = engine.begin(step=1)
        ticket.abort()
        assert engine.checkpoint(b"after-abort", step=2).committed

    def test_superseded_path(self):
        engine = make_engine()
        old = engine.begin(step=1)
        new = engine.begin(step=2)
        new.reap(new.submit_chunk(b"new"))
        assert new.commit().committed
        old.reap(old.submit_chunk(b"old"))
        assert not old.commit().committed

    def test_concurrent_checkpoints(self):
        engine = make_engine(num_slots=4)
        with ThreadPoolExecutor(max_workers=3) as pool:
            results = list(
                pool.map(
                    lambda i: engine.checkpoint(b"s%d" % i, step=i), range(30)
                )
            )
        assert len(results) == 30
        assert engine._sanitizer.checks_performed > 0

    def test_recovered_engine(self):
        engine = make_engine()
        engine.checkpoint(b"before", step=5)
        meta = engine.committed()
        engine2 = make_engine(
            device=engine.layout.device, recovered=meta
        )
        assert engine2.sanitizing
        assert engine2.checkpoint(b"after", step=6).committed


class TestViolationsCaught:
    def test_reenqueue_of_committed_slot(self):
        """The acceptance-criteria scenario: freeing the committed slot."""
        engine = make_engine()
        engine.checkpoint(b"keep-me", step=1)
        committed = engine.committed()
        with pytest.raises(InvariantViolationError, match="committed slot"):
            engine._free.enqueue(committed.slot)

    def test_double_free_of_slot(self):
        engine = make_engine()
        engine.checkpoint(b"x", step=1)
        free_slot = engine._free.dequeue()
        engine._free.enqueue(free_slot)
        with pytest.raises(InvariantViolationError, match="freed twice"):
            engine._free.enqueue(free_slot)

    def test_commit_pointer_moving_backwards(self):
        engine = make_engine()
        engine.checkpoint(b"one", step=1)
        engine.checkpoint(b"two", step=2)
        current = engine.committed()
        stale = CheckMeta(counter=1, slot=current.slot, payload_len=3,
                          payload_crc=0, step=1)
        with pytest.raises(InvariantViolationError, match="invariant 1"):
            engine._check_addr.compare_and_swap(current, stale)

    def test_commit_pointer_reset_to_none(self):
        engine = make_engine()
        engine.checkpoint(b"x", step=1)
        with pytest.raises(InvariantViolationError, match="invariant 4"):
            engine._check_addr.store(None)

    def test_global_counter_moving_backwards(self):
        engine = make_engine()
        engine.checkpoint(b"x", step=1)
        with pytest.raises(InvariantViolationError, match="backwards"):
            engine._g_counter.store(0)

    def test_double_release_for_one_ticket(self):
        engine = make_engine()
        engine.checkpoint(b"x", step=1)
        ticket = engine.begin(step=2)
        engine._release_slot(ticket.slot, ticket_counter=ticket.counter)
        with pytest.raises(InvariantViolationError, match="invariant 3"):
            engine._release_slot(ticket.slot, ticket_counter=ticket.counter)

    def test_violation_message_includes_shadow_state(self):
        engine = make_engine()
        engine.checkpoint(b"x", step=1)
        committed = engine.committed()
        with pytest.raises(InvariantViolationError, match="committed_slot="):
            engine._free.enqueue(committed.slot)


class TestSanitizerUnits:
    def test_dequeue_of_untracked_slot(self):
        sanitizer = EngineSanitizer(num_slots=3)
        queue = SanitizedSlotQueue(3, sanitizer)
        # Bypass the wrapper to smuggle a value in, then catch it on the
        # way out.
        from repro.core.freelist import SlotQueue

        SlotQueue.enqueue(queue, 1)
        with pytest.raises(InvariantViolationError, match="not tracked"):
            queue.dequeue()

    def test_slot_out_of_range(self):
        sanitizer = EngineSanitizer(num_slots=2)
        with pytest.raises(InvariantViolationError, match="outside"):
            sanitizer.note_enqueue(7)

    def test_duplicate_ticket_counter(self):
        sanitizer = EngineSanitizer(num_slots=3)
        sanitizer.on_begin(1, 0)
        with pytest.raises(InvariantViolationError, match="duplicate"):
            sanitizer.on_begin(1, 1)

    def test_ticket_done_without_release(self):
        sanitizer = EngineSanitizer(num_slots=3)
        sanitizer.on_begin(5, 0)
        with pytest.raises(InvariantViolationError, match="invariant 3"):
            sanitizer.on_ticket_done(5, first_commit=False)

    def test_first_commit_expects_no_release(self):
        sanitizer = EngineSanitizer(num_slots=3)
        sanitizer.on_begin(1, 0)
        sanitizer.on_ticket_done(1, first_commit=True)  # no error

    def test_recovery_point_assertion(self):
        sanitizer = EngineSanitizer(num_slots=3)
        sanitizer.assert_recovery_point(None)  # nothing committed yet: fine
        meta = CheckMeta(counter=1, slot=0, payload_len=1, payload_crc=0)
        sanitizer.note_commit_pointer(None, meta)
        with pytest.raises(InvariantViolationError, match="invariant 4"):
            sanitizer.assert_recovery_point(None)

    def test_recovery_point_tolerates_racing_first_commit(self):
        """A None read sampled *before* the first commit landed is legal
        even if the shadow state has seen the commit by assertion time."""
        sanitizer = EngineSanitizer(num_slots=3)
        expect_commit = sanitizer.ever_committed  # sampled pre-load: False
        meta = CheckMeta(counter=1, slot=0, payload_len=1, payload_crc=0)
        sanitizer.note_commit_pointer(None, meta)  # commit races the read
        sanitizer.assert_recovery_point(None, expect_commit=expect_commit)
        # But a load that started after the commit must see it.
        with pytest.raises(InvariantViolationError, match="invariant 4"):
            sanitizer.assert_recovery_point(
                None, expect_commit=sanitizer.ever_committed
            )

    def test_committed_reader_racing_checkpoints(self):
        """Hammer engine.committed() from a reader thread while
        checkpoints run: the read-side invariant-4 check must not fire."""
        from concurrent.futures import ThreadPoolExecutor

        engine = make_engine(num_slots=4)
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    engine.committed()
            except InvariantViolationError as exc:  # pragma: no cover
                errors.append(exc)

        watcher = threading.Thread(target=reader)
        watcher.start()
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(
                lambda i: engine.checkpoint(b"r%d" % i, step=i), range(30)
            ))
        stop.set()
        watcher.join()
        assert errors == []
        assert engine.committed() is not None
