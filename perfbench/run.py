"""PCcheck benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload persist-64m --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
splits the time between an untraced and a traced phase and prints the
per-layer metrics; the spans are written to ``perfbench/out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check exits with code 1.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: on a small host its threads
# would fight the writer threads for the cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "slowdown": "ratio",
    "restore_p50_s": "s",
}


def host_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "filesystem": "unknown",
    }
    # The filesystem type of the mount holding the checkout.
    best = ""
    try:
        with open("/proc/self/mountinfo") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                if ROOT.startswith(mount) and len(mount) >= len(best):
                    best, facts["filesystem"] = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return facts


def run_ceiling(workdir: str, seed: int, nbytes: int) -> dict:
    """The host ceiling stage, in a child process (see ``ceiling.py``)."""
    command = [sys.executable, os.path.join(HERE, "ceiling.py"),
               "--dir", workdir, "--seed", str(seed), "--bytes", str(nbytes)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout)


def end_to_end(outcome) -> dict:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "slowdown": outcome.slowdown,
        "restore_p50_s": statistics.median(outcome.restore_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="PCcheck benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no PCcheck sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import layers
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    run, unit = WORKLOADS[args.workload]
    # A terminated run still removes its region files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Start every run with no dirty pages left by an earlier one.
    os.sync()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        ceiling = run_ceiling(
            workdir, args.seed, (1 << 20) if args.smoke else (64 << 20))
        ctx = Context(seed=args.seed, seconds=args.seconds, workdir=workdir,
                      smoke=args.smoke)
        if args.trace:
            ctx.seconds = args.seconds / 2
            base = run(ctx)
            traced, tracer = layers.traced_run(run, ctx)
            metrics = layers.per_layer(traced, tracer, ceiling, base)
            outcomes = (base, traced)
            tracer.dump(os.path.join(
                OUT, f"{args.workload}-seed{args.seed}.trace.json"))
            units = layers.UNITS
        else:
            outcome = run(ctx)
            metrics = end_to_end(outcome)
            outcomes = (outcome,)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        for problem in outcome.problems:
            print(f"check failed: {problem}")
    print("host: " + json.dumps(host_facts()))
    print("samples: " + json.dumps({
        "unit": unit,
        "units": [o.units for o in outcomes],
        "latencies": [len(o.latencies) for o in outcomes],
        "restores": [len(o.restore_s) for o in outcomes],
        "odirect": "available" if ceiling["odirect_gbps"] else "unavailable",
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
