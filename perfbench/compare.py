"""Compare two baseline files metric by metric against the bounds of BENCHMARK.json.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Both files come from baseline.py. For every workload and every bounded
end-to-end metric it prints both medians, the change as a share of the
BEFORE median (positive is worse), each side's spread, and the bound. A
metric is `worse` when the change exceeds the bound and `unresolved` when
the change is within the bound but a side's spread is wider than the bound.
The exit status is 1 when any metric is worse.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = False
    for name in before["workloads"]:
        if name not in after["workloads"]:
            continue
        print(name)
        for m in spec["end_to_end"]:
            b = before["workloads"][name]["end_to_end"][m["name"]]
            a = after["workloads"][name]["end_to_end"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (a["median"] - b["median"]) / b["median"]
            if change > m["bound"]:
                verdict, worse = "worse", True
            elif max(a["spread"], b["spread"]) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {m['name']:16s} {b['median']:.6g} -> {a['median']:.6g} {m['unit']:6s} "
                  f"change {change:+.4f}  spreads {b['spread']:.4f}/{a['spread']:.4f}  "
                  f"bound {m['bound']}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
