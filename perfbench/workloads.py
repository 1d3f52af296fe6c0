"""The four benchmark workloads.

Each workload builds its stack only through the public API, checks the
program's outputs and returns an :class:`Outcome`.  All load comes from
the calling thread.  Inputs (payload bytes, model initialisation,
batches) derive from the seed alone.

A run is a series of rounds, each the life of one job: build the stack
(a ``setup_s`` sample), an untimed warm-up, a timed share of the loop,
close, then restore (``restore_p50_s`` samples).  Spreading every kind of
sample across the whole run makes each median average over the same
drift of a shared host.

When a :class:`~spans.Tracer` is set on the context, the workload stamps
each phase on it, so the per-layer metrics can select the timed phase.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro
from repro import CheckpointService, EnginePool, EngineSpec, TenantSpec
from repro.baselines.checkfreq import CheckFreqStrategy
from repro.baselines.pccheck import PCcheckStrategy
from repro.core import recovery
from repro.core.config import PCcheckConfig
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.errors import AdmissionRejected
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.ssd import FileBackedSSD
from repro.storage.tiering import REMOTE_PREFIX, TierPolicy
from repro.training.data import SyntheticTokens
from repro.training.loop import Trainer
from repro.training.models import TransformerLM
from repro.training.optim import Adam

MIB = 1 << 20
#: Rounds per run for the workloads whose loop time is split evenly.
#: tiered-restore runs half as many, each with twice the restores and
#: serial probes: its per-round demotion drains cost time, and longer loops
#: keep it nearer the steady state of commits racing demotion.
ROUNDS = 8
#: Serial checkpoints with no repo code per round (per two rounds for
#: tiered-restore), whose median is the persist workloads' ideal.
SERIAL_PROBES = 3
#: Untimed checkpoints at the start of a round: one per slot of the
#: default N=2 region.
WARMUP_CHECKPOINTS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: str
    #: Shrinks every size so the smoke test runs in seconds.
    smoke: bool = False
    tracer: Optional[object] = None

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rounds(self, count: int = ROUNDS) -> int:
        return 2 if self.smoke else count


@dataclass
class Outcome:
    """What one run of a workload did and measured."""

    #: Work items in the timed loop (checkpoints, steps or requests).
    units: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: Payload bytes of the timed loop's requests, and of those committed.
    requested_bytes: int = 0
    committed_bytes: int = 0
    loop_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: The same latencies split by request class when the mix has more
    #: than one: a percentile of a two-population mix lands in the gap
    #: between them, where a small shift moves it far.
    classes: Dict[str, List[float]] = field(default_factory=dict)
    slowdown: float = 0.0
    restore_s: List[float] = field(default_factory=list)
    restore_bytes: int = 0
    #: Seconds per unit, compared between traced and untraced runs.
    cost: float = 0.0
    #: Registry deltas over the timed loops (see :func:`accumulate`).
    registry: Dict = field(default_factory=dict)
    #: Recovery attempts read from the restores' registries.
    recovery_attempts: int = 0
    #: Workload-specific per-layer values (generator lateness, ...).
    extra: Dict[str, float] = field(default_factory=dict)

    def percentile(self, q: float) -> float:
        """The windowed ``q`` percentile of request-to-commit latency,
        averaged over the request classes."""
        groups = self.classes or {"all": self.latencies}
        return statistics.fmean(windowed(v, q) for v in groups.values())

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)


# ----------------------------------------------------------------------
# registry snapshots


def flatten(snapshot: dict) -> Dict:
    """``{(name, labels): value}`` for counters and gauges and
    ``{(name, labels): (count, sum)}`` for histograms."""
    flat = {}
    for name, entry in snapshot.items():
        for series in entry["series"]:
            key = (name, tuple(sorted(series["labels"].items())))
            if entry["type"] == "histogram":
                flat[key] = (series["count"], series["sum"])
            else:
                flat[key] = series["value"]
    return flat


#: Gauges report their last value instead of a change.
_GAUGES = {M.POOL_ENGINES_BUILT}


def delta(before: dict, after: dict) -> Dict:
    """Registry change between two snapshots."""
    old, new = flatten(before), flatten(after)
    out = {}
    for key, value in new.items():
        prior = old.get(key)
        if isinstance(value, tuple):
            prior = prior or (0, 0.0)
            out[key] = (value[0] - prior[0], value[1] - prior[1])
        elif key[0] in _GAUGES:
            out[key] = value
        else:
            out[key] = value - (prior or 0.0)
    return out


def accumulate(into: Dict, change: Dict) -> None:
    """Add one round's registry delta to the run's."""
    for key, value in change.items():
        prior = into.get(key)
        if prior is None or key[0] in _GAUGES:
            into[key] = value
        elif isinstance(value, tuple):
            into[key] = (prior[0] + value[0], prior[1] + value[1])
        else:
            into[key] = prior + value


def total(reg: Dict, name: str, **labels: str) -> float:
    """Sum of a counter's deltas (or a histogram's sums) over the series
    whose labels include ``labels``."""
    out = 0.0
    for (metric, series_labels), value in reg.items():
        if metric != name or not set(labels.items()) <= set(series_labels):
            continue
        out += value[1] if isinstance(value, tuple) else value
    return out


def observations(reg: Dict, name: str) -> int:
    """Number of histogram observations of ``name`` in the delta."""
    return sum(value[0] for (metric, _), value in reg.items()
               if metric == name and isinstance(value, tuple))


# ----------------------------------------------------------------------
# statistics


def percentile(values: List[float], q: float) -> float:
    """The ``q`` quantile, interpolated as ``statistics.quantiles`` does."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def windowed(values: List[float], q: float, window: int = 100) -> float:
    """Median over consecutive windows of at least ``window`` samples of
    each window's ``q`` percentile: a burst confined to a few windows
    moves it less than it moves the percentile of the whole run."""
    count = max(1, len(values) // window)
    size = len(values) / count
    return statistics.median(
        percentile(values[round(i * size):round((i + 1) * size)], q)
        for i in range(count))


def tail(values: List[float]) -> float:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = percentile(values, 0.9)
    for q in (0.99, 0.999):
        if len(values) * (1 - q) >= 10:
            best = percentile(values, q)
    return best


# ----------------------------------------------------------------------
# helpers


def _remove(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def _stamp(payload: bytearray, step: int) -> None:
    """Make each checkpoint's bytes distinct, so recovery can prove it
    returned the newest one."""
    payload[:8] = step.to_bytes(8, "little")


@contextmanager
def _instances(cls):
    """Collect the instances of ``cls`` built inside the block (the
    demotion policy is internal to the stack ``open_checkpointer``
    builds)."""
    made = []
    original = cls.__dict__["__init__"]

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    cls.__init__ = init
    try:
        yield made
    finally:
        cls.__init__ = original


def _keep_newest(remote) -> None:
    """Make every ``put`` on ``remote`` delete the older blobs, as a
    bucket's lifecycle rule would: the in-process remote store holds
    every blob in memory."""
    put = remote.put

    def put_and_prune(key, data):
        put(key, data)
        for old in remote.list(REMOTE_PREFIX)[:-1]:
            remote.delete(old)

    remote.put = put_and_prune


def _serial_checkpoint_seconds(path: str, payload, staging) -> float:
    """The checkpoint's work done serially with no repo code: copy the
    payload into ``staging``, CRC it, ``pwrite`` it over a file that
    already holds its blocks and ``fsync``.  The ideal the persist
    workloads' slowdown divides by."""
    view = memoryview(staging)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        start = time.perf_counter()
        view[:] = payload
        zlib.crc32(view)
        written = 0
        while written < len(view):
            written += os.pwrite(fd, view[written:], written)
        os.fsync(fd)
        return time.perf_counter() - start
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# persist-64m and tiered-restore: closed-loop 64 MiB checkpoints


def _closed_loop(ctx: Context, tiers: bool) -> Outcome:
    payload = bytearray(np.random.default_rng(ctx.seed).bytes(
        MIB if ctx.smoke else 64 * MIB))
    size = len(payload)
    out = Outcome()
    region = ctx.path("region.pc")
    rounds = ctx.rounds(ROUNDS // 2 if tiers else ROUNDS)
    budget = ctx.seconds / rounds
    fences = None
    step = 0
    # The first probe allocates the file's blocks; it is not counted.
    _serial_checkpoint_seconds(ctx.path("serial.bin"), payload,
                               bytearray(payload))
    serial = []

    def verify(recovered, where: str) -> None:
        out.check(recovered is not None and recovered.payload == payload
                  and recovered.meta.step == step,
                  f"{where} recovery did not return checkpoint {step}")

    for _ in range(rounds):
        _remove(region, region + ".warm")
        # The last round's stack holds reference cycles; free its buffers
        # now, so every round starts from the same memory.
        gc.collect()
        ctx.phase("setup")
        with _instances(TierPolicy) as policies:
            start = time.perf_counter()
            ckpt = repro.open_checkpointer(region, capacity_bytes=size,
                                           tiers=tiers or None)
            out.setup_s.append(time.perf_counter() - start)
        policy = policies[-1] if tiers else None
        remote = ckpt.device.remote if tiers else None
        if remote is not None:
            _keep_newest(remote)

        # Warm-up: one checkpoint into each slot, so the timed loop never
        # pays the filesystem's first allocation of a fresh region.
        ctx.phase("warmup")
        for _ in range(WARMUP_CHECKPOINTS):
            step += 1
            _stamp(payload, step)
            before = ckpt.metrics()
            ckpt.checkpoint(payload, step=step)
            one = delta(before, ckpt.metrics())

        ctx.phase("loop")
        before = ckpt.metrics()
        count = tries = 0
        started = time.perf_counter()
        while time.perf_counter() - started < budget or not tries:
            step += 1
            _stamp(payload, step)
            tries += 1
            t0 = time.perf_counter()
            try:
                result = ckpt.checkpoint(payload, step=step)
            except repro.PCcheckError as exc:
                out.fail(f"checkpoint {step} raised {exc!r}")
                continue
            out.latencies.append(time.perf_counter() - t0)
            count += 1
            out.requested_bytes += size
            if result.committed:
                out.committed_bytes += result.payload_len
        out.loop_s += time.perf_counter() - started
        out.units += count
        out.attempted += tries
        if policy is not None:
            ctx.phase("drain")
            out.check(policy.drain(timeout=120), "demotion did not drain")
        change = delta(before, ckpt.metrics())
        accumulate(out.registry, change)

        if not tiers:
            # One engine, one client: every checkpoint costs the same
            # device persists and one staging copy of the payload.
            if fences is None:
                fences = total(one, M.DEVICE_OPS, op="persist")
            out.check(
                total(one, M.DEVICE_OPS, op="persist") == fences
                and total(change, M.DEVICE_OPS, op="persist")
                == fences * count,
                "persist calls per checkpoint did not repeat exactly")
            out.check(
                total(one, M.BYTES_COPIED) == size
                and total(change, M.BYTES_COPIED) == size * count,
                "bytes copied per checkpoint did not repeat exactly")

        if tiers:
            # The newest checkpoint must reach every tier: commit once
            # more after the backlog drained, so its demotion is never
            # skipped.
            ctx.phase("final")
            step += 1
            _stamp(payload, step)
            ckpt.checkpoint(payload, step=step)
            out.check(policy.drain(timeout=120),
                      "final demotion did not drain")
        ctx.phase("close")
        ckpt.close()
        # Its staging buffers must not count toward the restore.
        del ckpt
        gc.collect()

        ctx.phase("restore")
        for _ in range(ROUNDS // rounds):
            start = time.perf_counter()
            reopened = repro.open_checkpointer(region, capacity_bytes=size)
            out.restore_s.append(time.perf_counter() - start)
            verify(reopened.recovered, "hot")
            out.restore_bytes += size
            out.recovery_attempts += total(
                flatten(reopened.metrics()), M.RECOVERY_ATTEMPTS)
            reopened.close()
            del reopened
        if tiers:
            _fallback_restores(ctx, out, region, remote, verify)
        ctx.phase("serial")
        staging = bytearray(payload)  # faulted in before it is timed
        for _ in range(SERIAL_PROBES * ROUNDS // rounds):
            serial.append(_serial_checkpoint_seconds(
                ctx.path("serial.bin"), payload, staging))
        del staging
    _remove(region, region + ".warm", ctx.path("serial.bin"))
    out.slowdown = (statistics.median(out.latencies)
                    / statistics.median(serial))
    out.cost = out.loop_s / out.units
    return out


def _fallback_restores(ctx, out, region, remote, verify) -> None:
    """Recover through ``recover_tiered`` with the hot device holding no
    region (the warm file serves it), then with neither local tier."""
    empty = FileBackedSSD(ctx.path("empty.pc"), capacity=4096)
    warm = FileBackedSSD(region + ".warm",
                         capacity=os.path.getsize(region + ".warm"))
    try:
        for phase, tier_warm, tier_remote in (
                ("fallback", warm, None), ("remote", None, remote)):
            ctx.phase(phase)
            registry = MetricsRegistry()
            verify(recovery.recover_tiered(empty, tier_warm, tier_remote,
                                           metrics=registry), phase)
            out.recovery_attempts += total(
                flatten(registry.snapshot()), M.RECOVERY_ATTEMPTS)
    finally:
        empty.close()
        warm.close()
        _remove(ctx.path("empty.pc"))


def persist_64m(ctx: Context) -> Outcome:
    return _closed_loop(ctx, tiers=False)


def tiered_restore(ctx: Context) -> Outcome:
    return _closed_loop(ctx, tiers=True)


# ----------------------------------------------------------------------
# train-f1: Fig. 8 slowdown at checkpoint interval 1


def _trainer(ctx: Context) -> Trainer:
    dim, layers = (32, 1) if ctx.smoke else (256, 4)
    model = TransformerLM(np.random.default_rng(ctx.seed), vocab_size=256,
                          dim=dim, num_heads=4, num_layers=layers,
                          max_seq=32)
    data = SyntheticTokens(batch_size=4, seq_len=32, vocab_size=256,
                           seed=ctx.seed)
    return Trainer(model, Adam(model, lr=1e-3), data,
                   checkpoint_interval=1)


def _region(ctx: Context, name: str, payload: int, slots: int):
    geometry = Geometry(num_slots=slots, slot_size=payload + RECORD_SIZE)
    return FileBackedSSD(ctx.path(name), capacity=geometry.total_size)


def train_f1(ctx: Context) -> Outcome:
    """Rounds of one ideal and one PCcheck segment over the same steps.

    The PCcheck trainer keeps its model across rounds; each round gives
    it a freshly built strategy (the set-up sample) and recovers from
    that strategy's region after the segment (the restore sample).  Every
    round formats the same file, whose blocks the first round's warm-up
    allocated.
    """
    segment = 2 if ctx.smoke else 5
    runs = {"ideal": _trainer(ctx), "loop": _trainer(ctx)}
    # The state's header grows with the step number's digits.
    capacity = len(runs["ideal"].serialized_state()) + 4096
    config = PCcheckConfig()
    checkfreq_device = None
    if ctx.tracer is not None:
        checkfreq_device = _region(ctx, "checkfreq.pc", capacity, 2)
        runs["checkfreq"] = _trainer(ctx)
        runs["checkfreq"].strategy = CheckFreqStrategy(checkfreq_device,
                                                       capacity)
    losses = {name: [] for name in runs}
    wall = {name: 0.0 for name in runs}
    out = Outcome()
    started = time.perf_counter()
    try:
        while time.perf_counter() - started < ctx.seconds or out.units == 0:
            ctx.phase("setup")
            for attempt in range(2):  # two set-up samples per round
                start = time.perf_counter()
                device = _region(ctx, "train.pc", capacity, config.num_slots)
                registry = MetricsRegistry()
                strategy = PCcheckStrategy(device, capacity, config,
                                           metrics=registry)
                out.setup_s.append(time.perf_counter() - start)
                if not attempt:
                    strategy.close()
                    device.close()
            runs["loop"].strategy = strategy
            try:
                _train_round(ctx, out, runs, strategy, registry, segment,
                             losses, wall)
            finally:
                runs["loop"].strategy = None
                strategy.close()
                device.close()
    finally:
        if checkfreq_device is not None:
            runs["checkfreq"].strategy.close()
            checkfreq_device.close()
    for name in runs:
        out.check(losses[name] == losses["ideal"],
                  f"{name} losses differ from the ideal run")
    out.loop_s = wall["loop"]
    out.slowdown = wall["loop"] / wall["ideal"]
    out.cost = wall["loop"] / out.units
    out.extra["training.it_per_s"] = out.units / wall["loop"]
    if "checkfreq" in wall:
        out.extra["baselines.checkfreq_slowdown"] = (
            wall["checkfreq"] / wall["ideal"])
    return out


def _train_round(ctx, out, runs, strategy, registry, segment, losses,
                 wall) -> None:
    # Untimed checkpoints of the current state fault in the new
    # strategy's staging buffers; they leave the model untouched.
    ctx.phase("warmup")
    state = runs["loop"].serialized_state()
    for _ in range(WARMUP_CHECKPOINTS):
        strategy.checkpoint(state, step=runs["loop"].step)
    strategy.drain()
    del state

    timed = []
    counting = [bool(out.units)]  # the first round starts with a warm-up
    # Request-to-commit latency of each checkpoint, from an
    # instance-level hook on the strategy's orchestrator.
    orchestrator = strategy.orchestrator
    submit = orchestrator.checkpoint_async

    def timed_submit(source, step):
        start = time.perf_counter()
        handle = submit(source, step)

        def settled(_handle):
            timed.append(time.perf_counter() - start)
            result = _handle.wait(0)  # a failure re-raises in train()
            if counting[0]:
                out.requested_bytes += result.payload_len
                if result.committed:
                    out.committed_bytes += result.payload_len

        handle.add_done_callback(settled)
        return handle

    orchestrator.checkpoint_async = timed_submit
    try:
        if not counting[0]:
            ctx.phase("warmup")
            for name, trainer in runs.items():
                losses[name] += trainer.train(WARMUP_CHECKPOINTS).losses
            timed.clear()
            counting[0] = True

        before = registry.snapshot()
        # Alternate the runs within the round, so drift on the host hits
        # them alike; each continues its own model from the last round.
        for name, trainer in runs.items():
            ctx.phase(name)
            start = time.perf_counter()
            report = trainer.train(segment)
            wall[name] += time.perf_counter() - start
            losses[name] += report.losses
        out.units += segment
        out.attempted += segment
        out.latencies += timed
        accumulate(out.registry, delta(before, registry.snapshot()))
    finally:
        # The hook and the orchestrator reference each other; without
        # this the round's staging buffers would wait for the cyclic
        # garbage collector and count toward the next round's memory.
        del orchestrator.checkpoint_async

    ctx.phase("restore")
    expected = runs["loop"].serialized_state()
    for _ in range(3):
        restored = MetricsRegistry()
        start = time.perf_counter()
        recovered = recovery.recover(strategy.layout, metrics=restored)
        out.restore_s.append(time.perf_counter() - start)
        out.check(recovered.payload == expected,
                  "recovered training state differs from the last step")
        out.restore_bytes += len(recovered.payload)
        out.recovery_attempts += total(flatten(restored.snapshot()),
                                       M.RECOVERY_ATTEMPTS)


# ----------------------------------------------------------------------
# service-fleet: open loop over eight tenants


RATE = 80.0
VARIANTS = 4


def _tenants(ctx: Context):
    big, small = (64 << 10, 8 << 10) if ctx.smoke else (MIB, 64 << 10)
    dedicated = [TenantSpec(name=f"dedicated-{i}", capacity_bytes=big,
                            slots=1) for i in range(4)]
    coalesced = [TenantSpec(name=f"coalesced-{i}", capacity_bytes=small,
                            coalesce=True) for i in range(4)]
    return big, dedicated + coalesced


def service_fleet(ctx: Context) -> Outcome:
    big, tenants = _tenants(ctx)
    rng = np.random.default_rng(ctx.seed)
    payloads = {spec.name: [rng.bytes(spec.capacity_bytes)
                            for _ in range(VARIANTS)] for spec in tenants}
    kinds = {spec.name: "coalesced" if spec.coalesce else "dedicated"
             for spec in tenants}
    out = Outcome(classes={kind: [] for kind in kinds.values()})
    region = ctx.path("service.pc")
    rounds = ctx.rounds()
    count = max(2, int(ctx.seconds / rounds * RATE))
    lateness = []
    scheduled = 0.0
    step = 0
    for _ in range(rounds):
        _remove(*(f"{region}.e{i}" for i in range(2)))
        gc.collect()  # not inside the next set-up sample
        ctx.phase("setup")
        start = time.perf_counter()
        pool = EnginePool(
            EngineSpec(capacity_bytes=big, num_chunks=8, path=region), 2)
        # The pool builds its engines on first use; build both here, so
        # set-up counts the stacks and not only the bookkeeping.
        for lease in [pool.acquire() for _ in range(2)]:
            lease.release()
        service = CheckpointService(pool, owns_pool=True)
        for spec in tenants:
            service.register(spec)
        out.setup_s.append(time.perf_counter() - start)

        # Warm-up: the same schedule, untimed, until every engine slot
        # has been written once.
        ctx.phase("warmup")
        warmup = Outcome(classes={kind: [] for kind in kinds.values()})
        _open_loop(warmup, service, tenants, payloads, kinds,
                   WARMUP_CHECKPOINTS * 2 * len(tenants), step, [])
        step += WARMUP_CHECKPOINTS * 2 * len(tenants)
        for problem in warmup.problems:
            out.fail(f"warm-up: {problem}")

        ctx.phase("loop")
        before = service.metrics()
        last = _open_loop(out, service, tenants, payloads, kinds, count,
                          step, lateness)
        step += count
        scheduled += (count - 1) / RATE
        out.check(service.drain(timeout=60), "service did not drain")
        change = delta(before, service.metrics())
        accumulate(out.registry, change)

        ctx.phase("restore")
        for spec in tenants:
            latest_step, data = last[spec.name]
            if not spec.coalesce:
                latest = service.latest(spec.name)
                out.check(latest is not None and latest[0] == latest_step,
                          f"{spec.name}: newest commit is not step "
                          f"{latest_step}")
                continue
            for _ in range(5):
                start = time.perf_counter()
                entry = service.recover_coalesced(spec.name)
                out.restore_s.append(time.perf_counter() - start)
                out.check(entry is not None and entry.step == latest_step
                          and entry.payload == data,
                          f"{spec.name}: recovered blob is not step "
                          f"{latest_step}")
                out.restore_bytes += len(data)
        ctx.phase("close")
        report = service.close(timeout=60)
        out.check(report is not None and report["leased"] == 0
                  and report["leaked_slots"] == 0
                  and report["leaked_buffers"] == 0,
                  f"pool leak report is not empty: {report}")
    _remove(*(f"{region}.e{i}" for i in range(2)))
    out.extra["bench.generator_late_s"] = max(lateness, default=0.0)
    out.extra["service.tail_s"] = tail(out.latencies)
    out.extra["service.fences_per_request"] = (
        total(out.registry, M.DEVICE_OPS, op="persist") / out.units)
    # An open loop's ideal is its schedule: how far the service stretched
    # it shows a growing backlog.
    out.slowdown = out.loop_s / scheduled
    out.cost = out.percentile(0.5)
    return out


def _open_loop(out, service, tenants, payloads, kinds, count, first_step,
               lateness) -> dict:
    """Submit ``count`` requests round-robin at :data:`RATE`; returns each
    tenant's last admitted ``(step, payload)``."""
    pending = []
    last = {}
    done_at = []
    rejected = 0
    origin = time.perf_counter() + 0.01
    for index in range(count):
        due = origin + index / RATE
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        lateness.append(max(0.0, time.perf_counter() - due))
        spec = tenants[index % len(tenants)]
        step = first_step + 1 + index // len(tenants)
        data = payloads[spec.name][step % VARIANTS]
        out.attempted += 1
        try:
            ticket = service.checkpoint_async(spec.name, data, step=step)
        except AdmissionRejected:
            rejected += 1
            continue

        def settled(_ticket, due=due, kind=kinds[spec.name]):
            finished = time.perf_counter()
            done_at.append(finished)
            out.latencies.append(finished - due)
            out.classes[kind].append(finished - due)

        ticket.add_done_callback(settled)
        pending.append(ticket)
        out.requested_bytes += len(data)
        last[spec.name] = (step, data)
    committed = superseded = 0
    for ticket in pending:
        try:
            result = ticket.result(timeout=60)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            out.fail(f"{ticket.tenant} step {ticket.step} raised {exc!r}")
            continue
        committed += result.committed
        superseded += result.superseded
        if result.committed:
            out.committed_bytes += result.payload_len
    out.units += len(pending)
    out.loop_s += max(done_at, default=origin) - origin
    out.extra["service.rejected"] = (
        out.extra.get("service.rejected", 0) + rejected)
    if rejected:
        out.fail(f"{rejected} requests were refused")
    out.check(committed + superseded + rejected == count,
              f"commits {committed} + superseded {superseded} + rejected "
              f"{rejected} != attempted {count}")
    return last


#: name -> (function, unit of work).
WORKLOADS = {
    "persist-64m": (persist_64m, "checkpoint"),
    "train-f1": (train_f1, "step"),
    "service-fleet": (service_fleet, "request"),
    "tiered-restore": (tiered_restore, "checkpoint"),
}
