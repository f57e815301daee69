"""cocyclespan benchmark: one workload, one seed, a fixed measuring time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The program is imported from `src/`; the
benchmark builds nothing. Each run of the workload is a fresh child
interpreter (child.py) that sets up, runs the workload's ops for this seed
once through the CLI path, and checks every output against the reference
recorded in `reference/`. Runs follow one another, never overlap, and
start while the time left is at least the longest run so far, with at
least MIN_RUNS of them. The set of ops is the same in every run of one
invocation, so the median over runs measures the program, not the inputs.

With --trace 0 every run is untraced and the metrics are the end-to-end
ones of BENCHMARK.json. With --trace 1 untraced and traced runs alternate
(at least MIN_RUNS_TRACED of each) and the metrics are the per-layer ones;
`trace.overhead_s` is the traced minus the untraced median wall time.

Before the last line the benchmark prints every metric with its unit and
sample count, including those that BENCHMARK.json cannot bound (per-op
percentiles, error and inconclusive rates), and writes the full result to
out/<workload>-seed<N>-trace<T>.json. The last line of standard output is
the JSON object {"correct", "attempted", "failed", "metrics"}.

Exit status is 0 when every run completed, 1 otherwise (no result line).
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_RUNS = 3          # untraced runs per invocation, whatever --seconds says
MIN_RUNS_TRACED = 2   # of each kind with --trace 1
HARD_CAP_S = 150.0    # no run starts after this many seconds
CHILD_TIMEOUT_S = 170.0


def spawn(workload: str, seed: int, traced: bool, spans: Path | None) -> dict:
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0", repr(t0)]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"run of {workload} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["traced"] = traced
    out["elapsed_s"] = time.time() - t0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl.gz" if trace else None
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        longest = max((r["elapsed_s"] for r in runs), default=0.0)
        untraced = sum(not r["traced"] for r in runs)
        traced = len(runs) - untraced
        enough = (untraced >= MIN_RUNS_TRACED and traced >= MIN_RUNS_TRACED) if trace \
            else untraced >= MIN_RUNS
        if enough and (elapsed + longest > seconds or elapsed > HARD_CAP_S):
            return runs
        kind = trace and untraced > traced
        runs.append(spawn(workload, seed, kind, spans if kind else None))


def percentile(values: list[float], p: float):
    """Nearest-rank percentile, or None unless at least 10 samples lie above it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def end_to_end(runs: list[dict]) -> dict:
    """Every end-to-end figure with its unit and sample count."""
    plain = [r for r in runs if not r["traced"]]
    lat_ms = [1e3 * x for r in plain for x in r["latencies_s"]]
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(len(r["failures"]) for r in plain)
    ref_width = plain[0]["reference_interval_width"]
    figures = {
        "wall_ref_s": ("s", statistics.median(r["wall_ref_s"] for r in plain), len(plain)),
        "cpu_ref_s": ("s", statistics.median(r["cpu_ref_s"] for r in plain), len(plain)),
        "wall_s": ("s", statistics.median(r["wall_s"] for r in plain), len(plain)),
        "cpu_s": ("s", statistics.median(r["cpu_s"] for r in plain), len(plain)),
        "probe_s": ("s", statistics.median(r["probe_s"] for r in plain),
                    sum(r["probes"] for r in plain)),
        "peak_rss_mb": ("MB", statistics.median(r["peak_rss_mb"] for r in plain), len(plain)),
        "setup_s": ("s", statistics.median(r["setup_s"] for r in plain), len(plain)),
        "setup_raw_s": ("s", statistics.median(r["setup_raw_s"] for r in plain), len(plain)),
        "interval_width": ("ratio", statistics.median(
            r["interval_width"] / ref_width for r in plain) if ref_width else None, len(plain)),
        "interval_width_sum": ("width", plain[0]["interval_width"], 1),
        "error_rate": ("share", failed / attempted, attempted),
        "inconclusive_rate": ("share", sum(r["inconclusive"] for r in plain) / attempted,
                              attempted),
    }
    for p in (50, 90, 99):
        figures[f"op_p{p}_ms"] = ("ms", percentile(lat_ms, p), len(lat_ms))
    return figures


def per_layer(runs: list[dict]) -> dict:
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    names = traced[0]["layers"].keys()
    figures = {}
    for name in names:
        unit = "s" if name.endswith("_s") else "share" if name.endswith("_share") else \
            "bytes" if name.endswith("bytes_computed") else \
            "value" if name.endswith("gamma_value") else "count"
        figures[name] = (unit, statistics.median(r["layers"][name] for r in traced), len(traced))
    traced_wall = statistics.median(r["wall_ref_s"] for r in traced)
    plain_wall = statistics.median(r["wall_ref_s"] for r in plain)
    figures["trace.traced_wall_ref_s"] = ("s", traced_wall, len(traced))
    figures["trace.untraced_wall_ref_s"] = ("s", plain_wall, len(plain))
    figures["trace.overhead_ref_s"] = ("s", traced_wall - plain_wall, len(runs))
    figures["trace.accounted_share"] = ("share", statistics.median(
        r["layers"]["trace.ops_s"] / r["wall_s"] for r in traced), len(traced))
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = HERE / "reference" / f"{args.workload}.json"
    if not reference.is_file():
        known = sorted(p.stem for p in (HERE / "reference").glob("*.json"))
        print(f"unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 1
    why = json.loads(reference.read_text())["why"]
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    figures = per_layer(runs) if args.trace else end_to_end(runs)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    env = runs[0]["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs ({sum(r['traced'] for r in runs)} traced), "
          f"{attempted} ops, {len(failures)} failed")
    print(f"why: {why}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (unit, value, samples) in figures.items():
        shown = "not reported (fewer than 10 samples beyond it)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {name:38s} {shown}  [n={samples}]")
    for f in failures[:20]:
        print(f"  FAILED {f['id']}: {f['kind']}: {f['detail']}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why, "environment": env,
        "runs": len(runs), "traced_runs": sum(r["traced"] for r in runs),
        "attempted": attempted, "failed": len(failures),
        "failed_ops": sorted({f["id"]: f for f in failures}.values(), key=lambda f: f["id"]),
        "figures": {k: {"value": v, "unit": u, "samples": n} for k, (u, v, n) in figures.items()},
        "per_run": [{k: r[k] for k in ("setup_s", "setup_raw_s", "wall_s", "cpu_s", "wall_ref_s",
                                       "cpu_ref_s", "probe_s", "peak_rss_mb", "traced")}
                    for r in runs],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    metrics = {m["name"]: {"value": figures[m["name"]][1], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
