"""Host ceiling stage: the raw cost of each layer's work, no repo code.

Times memcpy, ``zlib.crc32``, buffered ``pwrite`` + ``fsync``, an
``O_DIRECT`` write + ``fsync`` (where the filesystem accepts it) and
``pread`` on the same seeded bytes the persist workloads checkpoint.  It
runs in its own process (``python3 perfbench/ceiling.py``) so
its buffers never count toward the workload's peak memory, and prints
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import statistics
import sys
import time
import zlib

import numpy as np

REPEATS = 5


def _median_seconds(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _pwrite_all(fd: int, view: memoryview, offset: int = 0) -> None:
    written = 0
    while written < len(view):
        written += os.pwrite(fd, view[written:], offset + written)


def _odirect_seconds(path: str, data: memoryview) -> float:
    """Median ``O_DIRECT`` write + ``fsync`` time, or 0.0 when the
    platform or filesystem refuses direct I/O."""
    flag = getattr(os, "O_DIRECT", 0)
    if not flag:
        return 0.0
    try:
        fd = os.open(path, os.O_RDWR | os.O_CREAT | flag, 0o644)
    except OSError:
        return 0.0
    aligned = mmap.mmap(-1, len(data))  # page-aligned, as O_DIRECT needs
    try:
        aligned[:] = data

        def write() -> None:
            _pwrite_all(fd, memoryview(aligned))
            os.fsync(fd)

        write()
        return _median_seconds(write)
    except OSError:
        return 0.0
    finally:
        aligned.close()
        os.close(fd)


def measure(workdir: str, seed: int, nbytes: int) -> dict:
    data = memoryview(np.random.default_rng(seed).bytes(nbytes))
    dest = bytearray(nbytes)
    path = os.path.join(workdir, "ceiling.bin")
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        def memcpy() -> None:
            memoryview(dest)[:] = data

        def pwrite_fsync() -> None:
            _pwrite_all(fd, data)
            os.fsync(fd)

        def pread() -> None:
            if len(os.pread(fd, nbytes, 0)) != nbytes:
                raise OSError("short read in ceiling stage")

        gb = nbytes / 1e9
        out = {
            "bytes": nbytes,
            "memcpy_gbps": gb / _median_seconds(memcpy),
            "crc32_gbps": gb / _median_seconds(lambda: zlib.crc32(data)),
            "pwrite_fsync_gbps": gb / _median_seconds(pwrite_fsync),
            "pread_gbps": gb / _median_seconds(pread),
        }
        direct = _odirect_seconds(os.path.join(workdir, "ceiling.direct"),
                                  data)
        out["odirect_gbps"] = gb / direct if direct else 0.0
        return out
    finally:
        os.close(fd)
        for name in ("ceiling.bin", "ceiling.direct"):
            try:
                os.unlink(os.path.join(workdir, name))
            except FileNotFoundError:
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--bytes", type=int, required=True)
    args = parser.parse_args(argv)
    result = measure(args.dir, args.seed, args.bytes)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
