"""Run every workload over several seeds and summarize; optionally save as a baseline.

Usage:
    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1] [--workload NAME ...]
                                  [--no-trace] [--out perfbench/baseline/seed.json]

For each workload it runs `run.py --trace 0` once per seed, then one traced
run, and finally the `bad-option-types` input-contract probe. It prints,
per workload, every end-to-end figure (name, unit, samples per run, median
over seeds, quartiles) and, from the traced run, every per-layer figure.
For each metric BENCHMARK.json bounds it also prints the spread, the
distance between the first and third quartiles as a share of the median,
next to the bound. Runs are sequential.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import PROBE  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None, statistics.median(values), q1, q3


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["figures"]:
        vals = [r["figures"][name]["value"] for r in results]
        entry = {"unit": results[0]["figures"][name]["unit"],
                 "samples_per_run": results[0]["figures"][name]["samples"],
                 "values": vals}
        known = [v for v in vals if v is not None]
        if len(known) == len(vals) and len(vals) >= 2:
            sp, med, q1, q3 = spread(vals)
            entry.update(median=med, q1=q1, q3=q3, spread=sp)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def show(title: str, figures: dict) -> None:
    print(title)
    for name, e in figures.items():
        if "median" in e:
            text = f"median {e['median']:.6g} {e['unit']}  q1 {e['q1']:.6g}  q3 {e['q3']:.6g}"
            if e.get("spread") is not None:
                text += f"  spread {e['spread']:.4f}"
        elif len(e["values"]) == 1 and e["values"][0] is not None:
            text = f"{e['values'][0]:.6g} {e['unit']}"
        else:
            text = "not reported (fewer than 10 samples beyond it)"
        if "bound" in e:
            text += f"  bound {e['bound']}"
        print(f"  {name:38s} {text}  [n={e['samples_per_run']}/run, {len(e['values'])} runs]")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    baseline = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        results = [run(name, s, args.seconds, 0) for s in seeds]
        entry = {"why": results[0]["why"], "environment": results[0]["environment"],
                 "runs_per_seed": [r["runs"] for r in results],
                 "attempted_per_seed": [r["attempted"] for r in results],
                 "failed_ops": sorted({f["id"] for r in results for f in r["failed_ops"]}),
                 "end_to_end": summarize(results, bounds)}
        show(f"{name}: {len(seeds)} seeds, runs per seed {entry['runs_per_seed']}, "
             f"failed ops {entry['failed_ops'] or 'none'}", entry["end_to_end"])
        if not args.no_trace:
            traced = run(name, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v for k, v in traced["figures"].items()}
            entry["per_layer_seed"] = seeds[0]
            show(f"{name}: traced run, seed {seeds[0]}",
                 summarize([traced], {}))
        baseline["workloads"][name] = entry

    probe = run(PROBE, seeds[0], 1, 0)
    baseline["probe"] = {
        "workload": PROBE, "why": probe["why"], "attempted": probe["attempted"],
        "failed": probe["failed"],
        "error_rate": probe["figures"]["error_rate"]["value"],
        "failed_ops": [{"id": f["id"], "outcome": f["detail"]} for f in probe["failed_ops"]],
    }
    print(f"{PROBE}: {probe['failed']} of {probe['attempted']} ops failed "
          f"(error_rate {baseline['probe']['error_rate']:.3g})")
    for f in baseline["probe"]["failed_ops"]:
        print(f"  FAILED {f['id']}: {f['outcome']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
