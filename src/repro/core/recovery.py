"""Recovery: find and load the newest valid checkpoint (§4.2).

``CHECK_ADDR`` (the commit record) points to the last consistent
checkpoint.  Recovery reads it and orders the checkpoints the headers
name — 64-byte reads, no payload: the commit record's first (when its
slot's header carries the same counter), then the other headers newest
counter first.  It then reads each candidate's payload once and returns
the first whose CRC matches its header.  A torn commit record therefore
falls back to the newest slot that validates.  The fallback is sound
because:

* headers are written and persisted only *after* the slot's payload is
  fully durable, so a valid header + matching payload CRC proves a
  complete checkpoint;
* a recycled slot being overwritten still carries its old header, but the
  payload underneath no longer matches that header's CRC, so it is
  rejected rather than trusted.

This module is the only place a payload read back from a device or a
remote store is checked against its CRC; every other recovery path
(distributed, inspection, tier demotion, the service batcher) calls in
here.

The loader is exposed as a *persistent iterator* that reads the payload in
chunks and logs every read location, mirroring the paper's recovery path
("loads the checkpoint ... with the help of a persistent iterator, which
logs data read locations").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.core.layout import DeviceLayout
from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    decode_commit_record,
    decode_slot_header,
    payload_crc,
)
from repro.errors import (
    CorruptCheckpointError,
    CrashedDeviceError,
    LayoutError,
    NoCheckpointError,
    RemoteUnavailableError,
    StorageError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER

#: Default read granularity of the persistent iterator.
DEFAULT_READ_CHUNK: int = 4 * 1024 * 1024


@dataclass
class RecoveredCheckpoint:
    """A validated checkpoint ready to be restored into training state."""

    meta: CheckMeta
    payload: bytes
    #: Which mechanism located it: "commit-record" or "slot-scan".
    source: str = "commit-record"


@dataclass
class PersistentIterator:
    """Chunked payload reader that logs each read's device location."""

    layout: DeviceLayout
    meta: CheckMeta
    chunk_size: int = DEFAULT_READ_CHUNK
    read_log: List[Tuple[int, int]] = field(default_factory=list)

    def __iter__(self) -> Iterator[bytes]:
        base = self.layout.payload_offset(self.meta.slot)
        total = self.meta.payload_len
        for index in range(math.ceil(total / self.chunk_size) if total else 0):
            offset = index * self.chunk_size
            length = min(self.chunk_size, total - offset)
            self.read_log.append((base + offset, length))
            yield self.layout.device.read(base + offset, length)

    def read_all(self) -> bytes:
        """Materialise the whole payload."""
        return b"".join(self)


def read_commit_record(layout: DeviceLayout) -> Optional[CheckMeta]:
    """The region's commit record, or ``None`` when blank or torn."""
    raw = layout.device.read(layout.commit_offset, RECORD_SIZE)
    return decode_commit_record(raw)


def candidates(
    layout: DeviceLayout, record: Optional[CheckMeta]
) -> Iterator[Tuple[CheckMeta, str]]:
    """The checkpoints the headers name, in the order recovery tries them.

    First ``record``'s checkpoint (source ``"commit-record"``), when its
    slot's header carries the same counter; then every other slot header,
    newest counter first (``"slot-scan"``).  Headers whose length exceeds
    a slot are dropped.  Lazy: the other headers are read only once the
    first candidate has been consumed, so the common case costs the
    commit record and one header.  Nothing here reads a payload: whether
    a candidate is valid is decided by its one :func:`read_valid`.
    """
    pointed_slot, pointed = -1, None
    first: Optional[CheckMeta] = None
    if record is not None and record.slot < layout.num_slots:
        pointed_slot = record.slot
        pointed = layout.read_slot_header(pointed_slot)
        if pointed is not None and pointed.counter == record.counter:
            first = record
            if record.payload_len <= layout.payload_capacity:
                yield record, "commit-record"
    headers = [pointed if slot == pointed_slot else layout.read_slot_header(slot)
               for slot in range(layout.num_slots)]
    for header in sorted((h for h in headers if h is not None),
                         key=lambda h: h.counter, reverse=True):
        if header.payload_len > layout.payload_capacity:
            continue
        if first is None or header.counter != first.counter:
            yield header, "slot-scan"


def crc_matches(meta: CheckMeta, payload: bytes) -> bool:
    """Whether ``payload`` is the checkpoint ``meta`` describes."""
    return payload_crc(payload) == meta.payload_crc


def read_valid(
    layout: DeviceLayout, meta: CheckMeta, chunk_size: int = DEFAULT_READ_CHUNK
) -> Optional[bytes]:
    """Read ``meta``'s payload once; the bytes if their CRC matches.

    ``None`` means the slot does not hold that checkpoint (torn, or
    recycled and being overwritten).  The bytes returned are the bytes
    that were checked.
    """
    payload = PersistentIterator(layout, meta, chunk_size=chunk_size).read_all()
    return payload if crc_matches(meta, payload) else None


def recover(
    layout: DeviceLayout,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Load the newest valid checkpoint from a formatted region.

    Each attempt walks :func:`candidates` — the commit record, then slot
    headers as the walk needs them — reading each candidate's payload
    once, and returns the first whose CRC matches.  When recovery runs
    concurrently with writers (an online reader polling the region),
    every candidate can be recycled and overwritten under the reader;
    the commit record has then moved, and the next attempt walks the
    region's newer state.  After a crash there are no writers, so the
    first attempt always decides.

    ``metrics``/``tracer`` record the restart-path telemetry the Eq. 4
    recovery bound is checked against: wall-clock recovery seconds, bytes
    re-read, and attempts.

    Raises :class:`~repro.errors.NoCheckpointError` when the region holds
    no valid checkpoint (fresh format, or every record was torn).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    span = tracer.begin("recovery", device=layout.device.name)
    start = time.monotonic()

    def _observe(outcome: str, meta: Optional[CheckMeta] = None,
                 nbytes: int = 0, attempts: int = 0) -> None:
        if metrics is not None:
            metrics.observe(M.RECOVERY_SECONDS, time.monotonic() - start)
            metrics.inc(M.RECOVERY_ATTEMPTS, max(attempts, 1))
            if nbytes:
                metrics.inc(M.RECOVERY_BYTES, nbytes)
        tracer.end(
            span,
            outcome=outcome,
            counter=meta.counter if meta is not None else None,
        )

    record = read_commit_record(layout)
    for attempt in range(1, max_attempts + 1):
        tried = False
        for meta, source in candidates(layout, record):
            tried = True
            payload = read_valid(layout, meta, chunk_size)
            if payload is not None:
                _observe(source, meta=meta, nbytes=len(payload),
                         attempts=attempt)
                return RecoveredCheckpoint(meta=meta, payload=payload,
                                           source=source)
        if tried:
            # A slot is recycled only after a newer commit, so a walk
            # that found nothing valid while the record moved raced a
            # writer; an unmoved record means nothing valid is there.
            again = read_commit_record(layout)
            if again != record:
                record = again
                continue
        _observe("no-checkpoint", attempts=attempt)
        raise NoCheckpointError(
            f"no valid checkpoint found on {layout.device.name}"
        )
    _observe("unstable", attempts=max_attempts)
    raise NoCheckpointError(
        f"checkpoint on {layout.device.name} kept changing under the "
        f"reader ({max_attempts} attempts)"
    )


def recover_striped(
    members,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Reassemble and recover a checkpoint striped across ``members``.

    Opens the stripe set (validating every member's CRC-protected
    manifest), attaches to the region's layout, and runs :func:`recover`
    — the striped device's reads gather each payload chunk through the
    reshard machinery, so the recovered payload is bit-identical to what
    was persisted.  A member that dies mid-recovery surfaces as the same
    typed :class:`~repro.errors.CorruptCheckpointError` (naming the
    device) that :meth:`~repro.storage.striped.StripedDevice.open`
    raises for a member that is already unreadable — callers see ONE
    failure mode for a degraded stripe set, never a short payload.
    """
    # Imported here: repro.storage.striped pulls in the reshard gather
    # kernel from repro.core, and a module-level import would cycle.
    from repro.storage.striped import StripedDevice

    device = StripedDevice.open(members)
    try:
        layout = DeviceLayout.open(device)
        return recover(layout, chunk_size, max_attempts=max_attempts,
                       metrics=metrics, tracer=tracer)
    except CrashedDeviceError as exc:
        raise CorruptCheckpointError(
            f"stripe member failed during striped recovery: {exc}"
        ) from exc


def recover_tiered(
    hot,
    warm=None,
    remote=None,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Recover from a tiered stack, walking tiers fastest-first.

    ``hot`` may be a :class:`~repro.storage.tiering.TieredDevice` (its
    ``warm``/``remote`` members are used) or a plain device with the
    colder tiers passed explicitly.  The walk order is the latency
    order: **hot → warm → remote**.  Each local tier is opened and
    recovered independently — a corrupt superblock, torn records, a
    crashed device, or a mismatched payload CRC all *fall through* to
    the next tier rather than failing recovery.  The remote tier is
    scanned newest-blob-first, re-validating each blob's embedded header
    and payload CRC (an eventually-visible PUT that has not settled is
    simply not listed yet — the checkpoint is then served by a faster
    tier or lost with the ingest pipeline, never half-read).

    A warm/remote copy can legitimately be *older* than the hot commit
    (demotion is asynchronous); the walk returns the first tier that
    yields any valid checkpoint, because a faster tier holding data is
    always at least as new as the tiers below it.

    Raises :class:`~repro.errors.NoCheckpointError` whose message names
    every tier's typed failure when no tier can serve a checkpoint.
    """
    # Imported here: repro.storage.tiering builds on core.writer, and a
    # module-level import would cycle through the storage package.
    from repro.storage.tiering import REMOTE_PREFIX

    if warm is None and hasattr(hot, "warm"):
        warm = hot.warm
    if remote is None and hasattr(hot, "remote"):
        remote = hot.remote
    failures: List[Tuple[str, BaseException]] = []

    def _note(tier: str, outcome: str) -> None:
        if metrics is not None:
            metrics.inc(M.TIER_RECOVERY_ATTEMPTS, tier=tier, outcome=outcome)

    for tier, device in (("hot", hot), ("warm", warm)):
        if device is None:
            continue
        try:
            layout = DeviceLayout.open(device)
            result = recover(layout, chunk_size, max_attempts=max_attempts,
                             metrics=metrics, tracer=tracer)
        except (LayoutError, NoCheckpointError, CorruptCheckpointError,
                StorageError) as exc:
            failures.append((tier, exc))
            _note(tier, type(exc).__name__)
            continue
        _note(tier, "recovered")
        result.source = f"{tier}:{result.source}"
        return result

    if remote is not None:
        try:
            keys = remote.list(REMOTE_PREFIX)
            for key in reversed(keys):  # newest counter first
                blob = remote.get(key)
                meta = decode_slot_header(blob[:RECORD_SIZE])
                if meta is None:
                    continue
                payload = blob[RECORD_SIZE:RECORD_SIZE + meta.payload_len]
                if not crc_matches(meta, payload):
                    continue
                _note("remote", "recovered")
                if metrics is not None:
                    metrics.inc(M.RECOVERY_BYTES, len(payload))
                return RecoveredCheckpoint(
                    meta=meta, payload=payload, source="remote"
                )
            failures.append(("remote", NoCheckpointError(
                f"no valid blob among {len(keys)} under {REMOTE_PREFIX!r}"
            )))
            _note("remote", "NoCheckpointError")
        except (RemoteUnavailableError, KeyError) as exc:
            failures.append(("remote", exc))
            _note("remote", type(exc).__name__)

    detail = "; ".join(
        f"{tier}: {type(exc).__name__}({exc})" for tier, exc in failures
    )
    raise NoCheckpointError(
        f"no tier holds a valid checkpoint ({detail or 'no tiers given'})"
    )


def try_recover(
    layout: DeviceLayout,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> Optional[RecoveredCheckpoint]:
    """Like :func:`recover` but returns ``None`` instead of raising.

    Forwards the caller's ``max_attempts`` retry budget to
    :func:`recover` — an online reader bounding its polling latency gets
    the same bound on both entry points.
    """
    try:
        return recover(layout, chunk_size, max_attempts=max_attempts,
                       metrics=metrics, tracer=tracer)
    except NoCheckpointError:
        return None
