"""Hypothesis stateful tests: queue and engine against reference models."""

from collections import deque

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.engine import CheckpointEngine
from repro.core.freelist import EMPTY, SlotQueue
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import try_recover
from repro.storage.ssd import InMemorySSD

PAYLOAD_CAPACITY = 256


class SlotQueueMachine(RuleBasedStateMachine):
    """Sequential SlotQueue behaviour must match collections.deque."""

    @initialize(capacity=st.integers(1, 6))
    def setup(self, capacity):
        self.capacity = capacity
        self.queue = SlotQueue(capacity)
        self.model = deque()

    @precondition(lambda self: len(self.model) < self.capacity)
    @rule(value=st.integers(0, 100))
    def enqueue(self, value):
        self.queue.enqueue(value)
        self.model.append(value)

    @rule()
    def dequeue(self):
        got = self.queue.dequeue()
        expected = self.model.popleft() if self.model else EMPTY
        assert got == expected

    @invariant()
    def length_matches(self):
        if hasattr(self, "model"):
            assert len(self.queue) == len(self.model)


TestSlotQueueStateful = SlotQueueMachine.TestCase
TestSlotQueueStateful.settings = __import__("hypothesis").settings(
    max_examples=60, deadline=None, stateful_step_count=40
)


class EngineMachine(RuleBasedStateMachine):
    """Sequential engine operations against a simple reference model.

    Model state: the payload/step of the newest committed checkpoint.
    After every operation, recovery must return exactly that.
    Aborted tickets and crashes of unpersisted state must never disturb
    it.  The device is crashed and recovered between some operations to
    exercise the durable path rather than the cache view.
    """

    @initialize(num_slots=st.integers(2, 5))
    def setup(self, num_slots):
        slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
        geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
        self.device = InMemorySSD(capacity=geometry.total_size)
        layout = DeviceLayout.format(
            self.device, num_slots=num_slots, slot_size=slot_size
        )
        self.engine = CheckpointEngine(layout, writer_threads=2)
        self.step = 0
        self.committed_payload = None
        self.committed_step = None
        self.open_tickets = []

    def _payload(self):
        return f"step-{self.step}".encode().ljust(64, b".")

    @rule()
    def checkpoint(self):
        self.step += 1
        payload = self._payload()
        result = self.engine.checkpoint(payload, step=self.step)
        assert result.committed  # sequential: nothing can supersede it
        self.committed_payload = payload
        self.committed_step = self.step
        self._drop_open_tickets()

    @rule(chunks=st.lists(st.binary(min_size=1, max_size=40), min_size=1,
                          max_size=3))
    def streamed_checkpoint(self, chunks):
        self.step += 1
        ticket = self.engine.begin(step=self.step)
        for chunk in chunks:
            ticket.reap(ticket.submit_chunk(chunk))
        result = ticket.commit()
        assert result.committed
        self.committed_payload = b"".join(chunks)
        self.committed_step = self.step

    @rule()
    def abort_a_ticket(self):
        self.step += 1
        ticket = self.engine.begin(step=self.step)
        ticket.reap(ticket.submit_chunk(b"partial-data-never-committed"))
        ticket.abort()

    @rule()
    def crash_and_recover_device(self):
        self.device.crash()
        self.device.recover()

    def _drop_open_tickets(self):
        self.open_tickets = []

    @invariant()
    def recovery_matches_model(self):
        if not hasattr(self, "engine"):
            return
        recovered = try_recover(self.engine.layout)
        if self.committed_payload is None:
            assert recovered is None
        else:
            assert recovered is not None
            assert recovered.payload == self.committed_payload
            assert recovered.meta.step == self.committed_step


TestEngineStateful = EngineMachine.TestCase
TestEngineStateful.settings = __import__("hypothesis").settings(
    max_examples=40, deadline=None, stateful_step_count=30
)
