"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json list of argv lists>' <trace 0|1>

Imports finharm.cli (untimed: setup_s covers it), optionally installs the
layer tracer, and writes a ready line. Then, for each operation, it waits for
a line on stdin, so the parent can interleave two workers operation by
operation, and runs the operation through finharm.cli.main with its stdout
captured. An operation is timed from the call until its report has been
delivered. After each operation the worker writes a JSON header line and the
raw report bytes to its own stdout. When stdin closes after the last one, it
writes a summary line with its peak resident memory, its environment and,
when traced, the per-layer metrics. Checking the reports is left to the parent, so that
parsing them never raises this process's peak memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    ops = json.loads(sys.argv[1])
    traced = sys.argv[2] == "1"
    import finharm.cli as cli

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout.buffer
    out.write(b'{"ready": true}\n')
    out.flush()
    for index, argv in enumerate(ops):
        if not sys.stdin.readline():
            break  # the parent gave up on this repetition
        captured = io.StringIO()
        error = None
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation that crashes is a failed operation
            rc = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        report = captured.getvalue().encode()
        header = {"index": index, "rc": rc, "seconds": seconds, "error": error, "bytes": len(report)}
        out.write(json.dumps(header).encode() + b"\n")
        out.write(report)
        out.flush()
    # wait until the parent has timed every side, so that this process's
    # summary and exit never overlap another worker's operation
    sys.stdin.readline()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = {
        "done": True,
        "peak_rss_mb": peak_rss_mb,
        "env": _environment(),
        "layers": tracer.summary() if tracer else None,
        "absent": tracer.absent_metrics() if tracer else [],
    }
    out.write(json.dumps(done).encode() + b"\n")
    out.flush()


if __name__ == "__main__":
    main()
