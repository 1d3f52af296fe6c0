"""Out-of-program tracing for the benchmark's traced run.

:func:`install` wraps the public calls of each layer (class methods and
module functions) with span recorders, and :func:`uninstall` puts the
originals back.  Nothing inside ``src/`` is changed: the spans are
measured from outside, around the calls into each layer.

Each span records its name, start, end, thread, parent and a shared id
(the checkpoint step, or ``tenant:step`` for a service request).  The
parent is the innermost open span on the same thread; a span with no
explicit id inherits its parent's.  Self time is the span's duration
minus the time its children covered, accumulated as children close.
Spans stay in memory and are written out by :meth:`Tracer.dump` when the
run ends.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional

import repro
from repro._api import Checkpointer
from repro.baselines.pccheck import PCcheckStrategy
from repro.core import recovery
from repro.core.engine import CheckpointEngine, CheckpointTicket
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.snapshot import BytesSource
from repro.core.writer import ParallelWriter
from repro.service.pool import EnginePool
from repro.service.service import CheckpointService
from repro.storage.dram import DRAMBufferPool
from repro.storage.ssd import FileBackedSSD
from repro.storage.tiering import TierPolicy
from repro.training.loop import Trainer


class Span:
    __slots__ = ("name", "parent", "ident", "phase", "thread", "start",
                 "end", "child", "amount")

    def __init__(self, name, parent, ident, phase, thread) -> None:
        self.name = name
        self.parent = parent
        self.ident = ident
        self.phase = phase
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0
        self.amount = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Workload phase stamped on each new span ("setup", "loop", ...).
        self.phase = "setup"
        self._local = threading.local()
        self._bound: Dict[int, object] = {}

    def bind(self, obj: object, ident: object) -> None:
        """Give spans whose subject is ``obj`` the shared id ``ident``
        (for calls that run on another thread than the request)."""
        self._bound[id(obj)] = ident

    def bound(self, obj: object) -> object:
        return self._bound.get(id(obj))

    def record(self, name: str, fn: Callable, args, kwargs,
               ident=None, amount: Optional[Callable] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = parent.ident
        span = Span(name, parent, ident, self.phase, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child += span.duration
            self.spans.append(span)

    # ------------------------------------------------------------------
    # aggregation

    def select(self, name: str, phase: str) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def self_seconds(self, name: str, phase: str = "loop") -> float:
        return sum(s.self_time for s in self.select(name, phase))

    def calls(self, name: str, phase: str = "loop") -> int:
        return len(self.select(name, phase))

    def amount(self, name: str, phase: str = "loop") -> int:
        return sum(s.amount for s in self.select(name, phase))

    def dump(self, path: str) -> None:
        """Write the spans as a Chrome ``trace_event`` document."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 0, "tid": s.thread,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": {
                    "id": None if s.ident is None else str(s.ident),
                    "phase": s.phase,
                    "self_us": s.self_time * 1e6,
                    "parent": index.get(id(s.parent)),
                    "amount": s.amount,
                },
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def _arg(position: int, keyword: str, default=None):
    """Id extractor for argument ``keyword`` (``position`` counts self)."""
    def extract(tracer, args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else default
    return extract


def _self_step(tracer, args, kwargs):
    """The ``step`` attribute of the called object (ticket, trainer)."""
    return args[0].step


def _service_request(tracer, args, kwargs):
    step = kwargs.get("step", args[3] if len(args) > 3 else 0)
    return f"{args[1]}:{step}"


def _bound_self(tracer, args, kwargs):
    return tracer.bound(args[0])


def _orchestrator_step(tracer, args, kwargs):
    # The capture stage runs on a pool thread; binding the source lets
    # its capture spans carry the checkpoint's step.
    step = _arg(2, "step")(tracer, args, kwargs)
    tracer.bind(args[1], step)
    return step


def _nbytes(position: int):
    def amount(args, kwargs, result):
        return memoryview(args[position]).nbytes
    return amount


def _int_arg(position: int):
    def amount(args, kwargs, result):
        return int(args[position])
    return amount


def _shares(args, kwargs, result):
    return len(result.shares)


def _payload_len(args, kwargs, result):
    return len(result.payload)


#: (span name, owner, attribute, id extractor, amount extractor).  The
#: span names are the layer calls the per-layer metrics aggregate.
WRAPS = [
    ("storage.write", FileBackedSSD, "write", None, _nbytes(2)),
    ("storage.persist", FileBackedSSD, "persist", None, None),
    ("storage.read", FileBackedSSD, "read", None, _int_arg(2)),
    ("dram.acquire", DRAMBufferPool, "acquire", None, None),
    ("snapshot.capture_chunk", BytesSource, "capture_chunk", _bound_self,
     _int_arg(2)),
    ("writer.submit", ParallelWriter, "submit", None, _shares),
    ("writer.reap", ParallelWriter, "reap", None, None),
    ("engine.begin", CheckpointEngine, "begin", _arg(1, "step"), None),
    ("engine.submit_chunk", CheckpointTicket, "submit_chunk", _self_step,
     None),
    ("engine.reap", CheckpointTicket, "reap", _self_step, None),
    ("engine.commit", CheckpointTicket, "commit", _self_step, None),
    ("orchestrator.checkpoint_async", PCcheckOrchestrator, "checkpoint_async",
     _orchestrator_step, None),
    ("orchestrator.wait_for_snapshots", PCcheckOrchestrator,
     "wait_for_snapshots", None, None),
    ("orchestrator.drain", PCcheckOrchestrator, "drain", None, None),
    ("api.open_checkpointer", repro, "open_checkpointer", None, None),
    ("api.checkpoint", Checkpointer, "checkpoint", _arg(2, "step"), None),
    ("api.close", Checkpointer, "close", None, None),
    ("pool.acquire", EnginePool, "acquire", None, None),
    ("service.checkpoint_async", CheckpointService, "checkpoint_async",
     _service_request, None),
    ("service.recover_coalesced", CheckpointService, "recover_coalesced",
     None, None),
    ("tiering.drain", TierPolicy, "drain", None, None),
    ("recovery.recover", recovery, "recover", None, _payload_len),
    ("recovery.recover_tiered", recovery, "recover_tiered", None,
     _payload_len),
    ("training.train_step", Trainer, "train_step", _self_step, None),
    ("training.serialized_state", Trainer, "serialized_state", _self_step,
     None),
    ("baselines.checkpoint", PCcheckStrategy, "checkpoint", _arg(2, "step"),
     None),
    ("baselines.before_update", PCcheckStrategy, "before_update", None, None),
]


def _wrapper(tracer: Tracer, name: str, original, ident_fn, amount_fn):
    def traced(*args, **kwargs):
        ident = None if ident_fn is None else ident_fn(tracer, args, kwargs)
        return tracer.record(name, original, args, kwargs, ident, amount_fn)
    traced.__wrapped__ = original
    traced.__name__ = getattr(original, "__name__", name)
    traced.__doc__ = getattr(original, "__doc__", None)
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every call in :data:`WRAPS`; returns the restore list."""
    saved = []
    for name, owner, attr, ident_fn, amount_fn in WRAPS:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr,
                _wrapper(tracer, name, original, ident_fn, amount_fn))
    return saved


def uninstall(saved: list) -> None:
    """Put back the originals :func:`install` replaced."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
