"""One workload call in a fresh interpreter, as a user's CLI call would pay it.

Run by ``run.py``, never by hand:

    python3 perfbench/child.py WORKLOAD SEED SPAWNED WORKDIR RESULT [--setup-only] [--trace SPANS]

``SPAWNED`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, ``import lacsum``
and building the workload's inputs. Set-up and call are each timed in wall
seconds and in CPU seconds of this process (all threads; the process clock
starts with the process, so set-up CPU covers the interpreter too). A fixed
reference kernel runs after set-up and again after the call, outside both
timed intervals: its CPU time measures how fast the host runs at that
moment. The result (timings, peak RSS, verdict, report digest and, when
traced, per-layer metrics) is written as JSON to ``RESULT``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

from workloads import WORKLOADS


def _blas_record() -> dict:
    """numpy's BLAS build record and the thread count the loaded library reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"numpy": np.__version__, "blas_name": blas.get("name"),
           "blas_version": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                rec["blas_threads"] = int(fn())
                return rec
    return rec


REF_ROUNDS = 32


def reference_cpu_s() -> float:
    """CPU seconds of a fixed kernel that measures the host's current speed.

    Like the workloads it mixes an interpreter loop with numpy passes over
    an 8 MiB array, more than the L2 and less than the L3. It takes
    0.25-0.35 s on a shared 2.1 GHz Xeon host with 2 cores. Its arrays live
    in an anonymous mapping of their own, not on the malloc heap, so the
    kernel leaves the allocator state the workload call meets unchanged.
    """
    import mmap

    import numpy as np

    rows, cols = 256, 4096
    nbytes = rows * cols * 8
    buf = mmap.mmap(-1, 2 * nbytes)
    a = np.frombuffer(buf, dtype=np.float64, count=rows * cols).reshape(rows, cols)
    out = np.frombuffer(buf, dtype=np.float64, count=rows * cols, offset=nbytes).reshape(rows, cols)
    for r in range(rows):
        a[r] = (np.arange(cols, dtype=np.float64) * (r + 1)) % 977.0
    t = time.process_time()
    for _ in range(REF_ROUNDS):
        acc = 0
        for i in range(40000):
            acc += i * i
        np.maximum.accumulate(a, axis=1, out=out)
    elapsed = time.process_time() - t
    del a, out
    buf.close()
    return elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("spawned", type=float)
    ap.add_argument("workdir", type=Path)
    ap.add_argument("result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    state = wl.setup(args.seed, args.workdir)
    setup = {"setup_s": time.monotonic() - args.spawned, "setup_cpu_s": time.process_time()}
    ref_before = reference_cpu_s()
    if args.setup_only:
        args.result.write_text(json.dumps({**setup, "ref_s": ref_before, **_blas_record()}))
        return 0

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.monotonic()
    cpu0 = time.process_time()
    output = wl.call(state, tracer)
    passed, digest = wl.check(output, state)
    cpu = time.process_time() - cpu0
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after = reference_cpu_s()

    out = {
        **setup,
        "wall_s": end - start,
        "cpu_s": cpu,
        "ref_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": peak_rss_mb,
        "passed": bool(passed),
        "digest": digest,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["missing_spans"] = sorted(wl.expected_spans - set(tracer.names))
        tracer.write(str(args.trace))
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
