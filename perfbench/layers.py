"""Per-layer metrics of the traced run.

Times are seconds per unit of work (checkpoint, training step or service
request) in the timed loop, taken as the self time of the spans around
each layer's public call (see ``spans.py``).  Counts are per unit too.
``recovery.*`` and ``storage.read_*`` are per restore.  Registry-backed
metrics are deltas of the program's own counters over the timed loop.
Every metric is printed for every workload; a layer the workload
bypasses reads 0.
"""

from __future__ import annotations

import statistics

import spans
from repro.obs.metrics import M
from workloads import observations, total

#: Name -> unit of every per-layer metric (printed with ``--trace 1``).
UNITS = {
    "storage.write_s": "s",
    "storage.write_bytes": "bytes",
    "storage.persist_calls": "count",
    "storage.persist_s": "s",
    "storage.read_s": "s",
    "storage.read_bytes": "bytes",
    "dram.acquire_wait_s": "s",
    "dram.acquires": "count",
    "snapshot.capture_s": "s",
    "snapshot.capture_bytes": "bytes",
    "writer.submit_s": "s",
    "writer.reap_wait_s": "s",
    "writer.submits": "count",
    "writer.shares": "count",
    "engine.begin_wait_s": "s",
    "engine.submit_chunk_s": "s",
    "engine.reap_s": "s",
    "engine.commit_s": "s",
    "engine.commits": "count",
    "engine.superseded": "count",
    "engine.cas_retries": "count",
    "orchestrator.call_s": "s",
    "orchestrator.snapshot_wait_s": "s",
    "orchestrator.drain_s": "s",
    "orchestrator.copies_per_byte": "ratio",
    "orchestrator.overlap_s": "s",
    "api.open_s": "s",
    "api.close_s": "s",
    "pool.acquire_wait_s": "s",
    "pool.engines_built": "count",
    "service.submit_s": "s",
    "service.queue_s": "s",
    "service.batches": "count",
    "service.batch_entries": "count",
    "service.fences_per_request": "count",
    "service.rejected": "count",
    "service.tail_s": "s",
    "tiering.demotions": "count",
    "tiering.skipped": "count",
    "tiering.demote_s": "s",
    "tiering.drain_s": "s",
    "remote.put_bytes": "bytes",
    "recovery.hot_s": "s",
    "recovery.fallback_s": "s",
    "recovery.remote_s": "s",
    "recovery.bytes": "bytes",
    "recovery.attempts": "count",
    "training.step_s": "s",
    "training.serialize_s": "s",
    "training.it_per_s": "1/s",
    "baselines.checkpoint_s": "s",
    "baselines.before_update_s": "s",
    "baselines.checkfreq_slowdown": "ratio",
    "ceiling.memcpy_gbps": "GB/s",
    "ceiling.crc32_gbps": "GB/s",
    "ceiling.pwrite_fsync_gbps": "GB/s",
    "ceiling.odirect_gbps": "GB/s",
    "ceiling.pread_gbps": "GB/s",
    "ceiling.ckpt_fraction": "ratio",
    "ceiling.restore_fraction": "ratio",
    "bench.ckpt_gbps": "GB/s",
    "bench.ckpt_p50_s": "s",
    "bench.ckpt_p90_s": "s",
    "bench.generator_late_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.fail_frac": "ratio",
}

#: Spans whose self time is a layer's per-unit time in the timed loop.
SELF_TIMES = {
    "storage.write_s": "storage.write",
    "storage.persist_s": "storage.persist",
    "dram.acquire_wait_s": "dram.acquire",
    "snapshot.capture_s": "snapshot.capture_chunk",
    "writer.submit_s": "writer.submit",
    "writer.reap_wait_s": "writer.reap",
    "engine.begin_wait_s": "engine.begin",
    "engine.submit_chunk_s": "engine.submit_chunk",
    "engine.reap_s": "engine.reap",
    "engine.commit_s": "engine.commit",
    "orchestrator.call_s": "orchestrator.checkpoint_async",
    "orchestrator.snapshot_wait_s": "orchestrator.wait_for_snapshots",
    "orchestrator.drain_s": "orchestrator.drain",
    "pool.acquire_wait_s": "pool.acquire",
    "service.submit_s": "service.checkpoint_async",
    "training.step_s": "training.train_step",
    "training.serialize_s": "training.serialized_state",
    "baselines.checkpoint_s": "baselines.checkpoint",
    "baselines.before_update_s": "baselines.before_update",
}

#: Spans whose call count is a per-unit count in the timed loop.
CALLS = {
    "storage.persist_calls": "storage.persist",
    "dram.acquires": "dram.acquire",
    "writer.submits": "writer.submit",
}

#: Spans whose recorded amount is a per-unit count in the timed loop.
AMOUNTS = {
    "storage.write_bytes": "storage.write",
    "snapshot.capture_bytes": "snapshot.capture_chunk",
    "writer.shares": "writer.submit",
}

#: Registry counters reported per unit of the timed loop.
COUNTERS = {
    "engine.commits": M.COMMITS,
    "engine.superseded": M.SUPERSEDED,
    "engine.cas_retries": M.CAS_RETRIES,
    "orchestrator.overlap_s": M.PIPELINE_OVERLAP_SECONDS,
    "service.batches": M.SERVICE_BATCHES,
    "service.queue_s": M.TENANT_QUEUE_SECONDS,
    "tiering.demotions": M.TIER_DEMOTIONS,
    "tiering.skipped": M.TIER_DEMOTION_SKIPPED,
    "remote.put_bytes": M.REMOTE_PUT_BYTES,
}


def traced_run(run, ctx):
    """Run the workload with the span wrappers installed."""
    tracer = spans.Tracer()
    ctx.tracer = tracer
    saved = spans.install(tracer)
    try:
        return run(ctx), tracer
    finally:
        spans.uninstall(saved)
        ctx.tracer = None


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def per_layer(outcome, tracer, ceiling, base) -> dict:
    """Every metric of :data:`UNITS` for one traced run; ``base`` is the
    untraced outcome of the same invocation."""
    units = outcome.units
    reg = outcome.registry
    out = {name: 0.0 for name in UNITS}
    for name, span in SELF_TIMES.items():
        out[name] = _per(tracer.self_seconds(span), units)
    for name, span in CALLS.items():
        out[name] = _per(tracer.calls(span), units)
    for name, span in AMOUNTS.items():
        out[name] = _per(tracer.amount(span), units)
    for name, metric in COUNTERS.items():
        out[name] = _per(total(reg, metric), units)
    out.update(outcome.extra)

    restores = len(outcome.restore_s)
    out["storage.read_s"] = _per(
        tracer.self_seconds("storage.read", "restore"), restores)
    out["storage.read_bytes"] = _per(
        tracer.amount("storage.read", "restore"), restores)
    out["recovery.hot_s"] = _mean(
        [s.duration for name in ("recovery.recover",
                                 "service.recover_coalesced")
         for s in tracer.select(name, "restore")])
    out["recovery.fallback_s"] = _mean(
        [s.duration for s in tracer.select("recovery.recover_tiered",
                                           "fallback")])
    out["recovery.remote_s"] = _mean(
        [s.duration for s in tracer.select("recovery.recover_tiered",
                                           "remote")])
    out["recovery.bytes"] = _per(outcome.restore_bytes, restores)
    out["recovery.attempts"] = _per(outcome.recovery_attempts, restores)

    out["orchestrator.copies_per_byte"] = _per(
        total(reg, M.BYTES_COPIED), outcome.requested_bytes)
    out["api.open_s"] = _mean(
        [s.duration for s in tracer.select("api.open_checkpointer", "setup")])
    out["api.close_s"] = _mean(
        [s.duration for s in tracer.spans if s.name == "api.close"])
    out["pool.engines_built"] = total(reg, M.POOL_ENGINES_BUILT)
    out["service.batch_entries"] = _per(
        total(reg, M.SERVICE_BATCH_ENTRIES), total(reg, M.SERVICE_BATCHES))
    out["tiering.demote_s"] = _per(
        total(reg, M.TIER_DEMOTION_SECONDS),
        observations(reg, M.TIER_DEMOTION_SECONDS))
    out["tiering.drain_s"] = _mean(
        [s.duration for s in tracer.select("tiering.drain", "drain")])

    for key in ("memcpy_gbps", "crc32_gbps", "pwrite_fsync_gbps",
                "odirect_gbps", "pread_gbps"):
        out[f"ceiling.{key}"] = ceiling[key]
    # The untraced phase's throughput and latency.  They are not gated:
    # the host drifts too far between runs (see README.md).
    out["bench.ckpt_gbps"] = base.committed_bytes / base.loop_s / 1e9
    out["bench.ckpt_p50_s"] = base.percentile(0.5)
    out["bench.ckpt_p90_s"] = base.percentile(0.9)
    out["ceiling.ckpt_fraction"] = (
        out["bench.ckpt_gbps"] / ceiling["pwrite_fsync_gbps"])
    restore_gbps = _per(base.restore_bytes, len(base.restore_s)) / 1e9 / (
        statistics.median(base.restore_s))
    out["ceiling.restore_fraction"] = restore_gbps / ceiling["pread_gbps"]
    out["bench.trace_overhead_frac"] = outcome.cost / base.cost - 1.0
    out["bench.fail_frac"] = _per(base.failed + outcome.failed,
                                  base.attempted + outcome.attempted)
    return out
