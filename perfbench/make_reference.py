"""Generate every workload's op pool and record the reference output of each op.

Usage: python3 perfbench/make_reference.py [--workload NAME ...]

Writes perfbench/reference/<workload>.json. Run it on the commit whose
outputs are the reference; later commits are checked against these files.
The pools come from the fixed POOL_SEED in workloads.py, so rerunning it on
the same commit reproduces the files. An op of a timed workload that fails
on the reference commit stops the script: a timed workload must have none.
Ops of the `bad-option-types` probe are expected to fail there; their
reference is the documented outcome, exit 3, and the failure is recorded.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cocyclespan import cli, errors  # noqa: E402

import checks  # noqa: E402
from workloads import PROBE, TIMED_WORKLOADS, WORKLOADS, pool_texts  # noqa: E402


def source_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(name: str, csv_dir: Path) -> dict:
    workload = WORKLOADS[name]
    slots = {s.name: {"name": s.name, "pick": s.pick, "ops": []} for s in workload.slots}
    timings: dict[str, list[float]] = {s.name: [] for s in workload.slots}
    for slot, i, text in pool_texts(workload):
        t0 = time.perf_counter()
        code, body, exc = checks.run_op(cli, errors, text, str(csv_dir))
        timings[slot.name].append(time.perf_counter() - t0)
        op = {"id": f"{slot.name}/{i}", "config": text}
        if exc is not None:
            if name != PROBE:
                raise SystemExit(f"{op['id']} failed on the reference commit: {exc!r}")
            op["expect"] = checks.signature(3, None)
            op["reference_outcome"] = f"uncaught {type(exc).__name__}: {exc}"
        else:
            op["expect"] = checks.signature(code, body)
        slots[slot.name]["ops"].append(op)
    for slot_name, ts in timings.items():
        print(f"  {name}/{slot_name}: {len(ts)} ops, mean {1e3 * sum(ts) / len(ts):.1f} ms, "
              f"max {1e3 * max(ts):.1f} ms", flush=True)
    return {"workload": name, "why": workload.why, "source_commit": source_commit(),
            "slots": list(slots.values())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    names = args.workload or [*TIMED_WORKLOADS, PROBE]
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    csv_dir = HERE / "out" / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        ref = build(name, csv_dir)
        (out_dir / f"{name}.json").write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
