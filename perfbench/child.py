"""One run of a workload in a fresh interpreter; prints one JSON line.

Usage (started by run.py): python3 perfbench/child.py WORKLOAD SEED TRACE T0 [SPANS]

T0 is the parent's wall clock (time.time()) just before it started this
process, so set-up time covers interpreter start, imports, loading the
reference pool, selecting the ops for SEED and one small untimed warm-up op.
The timed phase then runs every selected op once, in order; outputs are
checked against the reference after the timed phase. With TRACE = 1 the
layer functions are wrapped before the warm-up and the spans of the timed
phase are written, gzipped, to SPANS.

The speed of a shared host can change by a factor of two within a minute,
so the run also probes it: a fixed pure-Python loop is timed CAL_EDGE times
before the first op, between ops once CAL_EVERY_S has passed since the last
probe, and CAL_EDGE times after the last op. Probes are not part of any op's
time. `wall_ref_s`, `cpu_ref_s` and `setup_s` rescale the measured times by
CAL_REF_S over the median probe time, i.e. to a host on which the loop takes
CAL_REF_S seconds; `setup_raw_s` is the set-up time as measured.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CAL_LOOPS = 200_000
CAL_REF_S = 0.014   # the probe loop's time on an uncontended 2-core x86-64 host
CAL_EVERY_S = 0.25
CAL_EDGE = 8

WARMUP = json.dumps({
    "system": {"dimension": 2, "generators": [["0.4", "0", "0", "0.1"], ["0", "-0.3", "0.3", "0"]]},
    "command": "pressure", "options": {"n": 3, "qm": None}})


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """OpenBLAS thread count as loaded in this process (None when not found)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: a probe of the host's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def cpu_time() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    workload, seed, trace, t0 = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    package = ROOT / "src" / "cocyclespan"
    if not package.is_dir():
        print(f"no program to measure: {package} is missing", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from cocyclespan import cli, errors

    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 1

    import checks
    from workloads import select

    reference = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    ops = select(reference, seed)
    texts = [op["config"] for op in ops]
    csv_dir = str(OUT / "csv")
    tracer = None
    if trace:
        import spans as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    checks.run_op(cli, errors, WARMUP, csv_dir)
    if tracer is not None:
        tracer.reset()
    setup_raw_s = time.time() - t0

    results = []
    latencies = []
    cpu_s = 0.0
    probes = [calibrate() for _ in range(CAL_EDGE)]
    last_probe = time.perf_counter()
    for i, text in enumerate(texts):
        if time.perf_counter() - last_probe > CAL_EVERY_S:
            probes.append(calibrate())
            last_probe = time.perf_counter()
        c = cpu_time()
        t = time.perf_counter()
        if tracer is None:
            results.append(checks.run_op(cli, errors, text, csv_dir))
        else:
            tracer.begin_op(i)
            results.append(tracer.root(checks.run_op, cli, errors, text, csv_dir))
        latencies.append(time.perf_counter() - t)
        cpu_s += cpu_time() - c
    probes += [calibrate() for _ in range(CAL_EDGE)]
    wall_s = sum(latencies)
    scale = CAL_REF_S / statistics.median(probes)

    failures = []
    inconclusive = 0
    width = ref_width = 0.0
    for op, (code, body, exc) in zip(ops, results):
        if exc is not None:
            failures.append({"id": op["id"], "kind": "exception",
                             "detail": f"{type(exc).__name__}: {exc}"})
            continue
        sig = checks.signature(code, body)
        problems = checks.compare(sig, op["expect"])
        if problems:
            failures.append({"id": op["id"], "kind": "wrong output", "detail": problems[:5]})
        if code == 2 or "Inconclusive" in sig["exact"].values():
            inconclusive += 1
        width += checks.interval_width(sig)
        ref_width += checks.interval_width(op["expect"])

    out = {
        "setup_s": setup_raw_s * scale,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wall_ref_s": wall_s * scale,
        "cpu_ref_s": cpu_s * scale,
        "probe_s": statistics.median(probes),
        "probes": len(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_s": latencies,
        "attempted": len(ops),
        "failures": failures,
        "inconclusive": inconclusive,
        "interval_width": width,
        "reference_interval_width": ref_width,
        "environment": environment(),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["counter_errors"] = tracer.counts.get("trace.counter_errors", 0)
        if spans_path:
            tracer.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
