"""Golden canonical reports: the regression oracle for refactors.

Each case runs a shipped config (optionally with another command and options),
or a system written inline here, through `cli.parse_config` -> `cli.run_command` -> `cli.report_canonical_json`
and compares the text byte for byte with `tests/golden/<name>.json`. The
export path of `export-attractor` names a temporary file and is dropped.

Regenerate after an intended change with `PYTHONPATH=src python tests/test_golden.py`.
"""
import json
import sys
import tempfile
from pathlib import Path

import pytest

import cocyclespan.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# d >= 3 systems for `check-hypotheses`, which no shipped config covers: an
# irreducible 3x3 triple, and P [[B_i, X_i], [0, C_i]] P^-1 with 2x2 blocks
# and a unipotent P, a 4x4 pair whose invariant plane is not a coordinate plane;
# an irreducible 4x4 pair whose power and wedge algebras are all full, and a
# 3x3 triple [[B_i, X_i], [0, c_i]] fixing the plane of the first two coordinates
IRREDUCIBLE_3X3 = {"dimension": 3, "generators": [
    ["0.5", "0.25", "0", "0", "0.5", "0.25", "0.125", "0", "0.5"],
    ["0.375", "0", "-0.25", "0.25", "-0.5", "0", "0", "0.125", "0.625"],
    ["0.75", "-0.125", "0", "0", "0.25", "0.5", "-0.25", "0", "0.5"]]}
REDUCIBLE_4X4 = {"dimension": 4, "generators": [
    ["0.25", "0.75", "0.25", "-0.5", "-0.25", "0.875", "0", "-0.125",
     "-0.25", "-0.25", "0.75", "0.5", "-0.375", "1.25", "0.125", "-0.5"],
    ["0.75", "0", "-0.5", "-0.5", "0.375", "0.25", "0.125", "0.125",
     "0", "-0.875", "0.25", "0.375", "0.625", "0.25", "-0.125", "0.125"]]}
IRREDUCIBLE_4X4 = {"dimension": 4, "generators": [
    ["0.75", "0.25", "0", "-0.5", "-0.5", "-1", "-1", "-1",
     "-0.75", "0.75", "0.25", "1", "0", "0.25", "1", "0.5"],
    ["0.25", "0", "0.25", "1", "-0.5", "0.75", "0.5", "-1",
     "-0.25", "0.75", "0", "-1", "0.5", "0.5", "0.75", "-0.75"]]}
REDUCIBLE_3X3 = {"dimension": 3, "generators": [
    ["1", "-0.5", "0.75", "0.5", "-1", "-0.25", "0", "0", "-1"],
    ["-0.5", "0", "-0.25", "-0.25", "-1", "-1", "0", "0", "0.5"],
    ["0.75", "-0.75", "0.25", "0.5", "0.75", "0", "0", "0", "-0.25"]]}

# name -> (config file or inline system block, command override, options override)
CASES = {
    "e1": ("e1", None, None),
    "e2": ("e2", None, None),
    "e3": ("e3", None, None),
    "e4": ("e4", None, None),
    "e5": ("e5", None, None),
    "e3-affinity-dim": ("e3", "affinity-dim", {"n": 10, "k_qm": 1}),
    "e3-r0-beta": ("e3", "r0", {"n": 10, "k_qm": 1, "beta": 0.3}),
    "e3-r0-psi-table": ("e3", "r0", {"n": 8, "k_qm": 1, "tail_start": 8,
                                     "psi_table": [[4, 1.0], [8, 2.2], [12, 3.1],
                                                   [16, 4.2]]}),
    "e3-s0-words": ("e3", "s0", {"n": 9, "k_qm": 1,
                                 "targets": {"words": ["1", "12", "112", "1121"],
                                             "tail_start": 2}}),
    "e3-pressure": ("e3", "pressure", {"potential": "sv_s", "s_grid": [0.3, 1.0, 1.7],
                                       "n": 10, "k_qm": 1}),
    "e3-qm": ("e3", "qm", {"k": 1, "n_max": 3}),
    "e3-mixing": ("e3", "mixing", {"s": 1.0, "L": 2, "gap": 3}),
    "e4-s0": ("e4", "s0", {"targets": {"all_ones": 6}, "n": 8, "k_qm": 1}),
    "e4-r0": ("e4", "r0", {"n": 8, "k_qm": 1, "beta": 0.5}),
    "e4-affinity-dim": ("e4", "affinity-dim", {"n": 8, "k_qm": 1}),
    "d3-irreducible-theorem": (IRREDUCIBLE_3X3, "check-hypotheses", {"mode": "theorem_1_1"}),
    "d4-reducible-theorem": (REDUCIBLE_4X4, "check-hypotheses", {"mode": "theorem_1_1"}),
    "d4-irreducible-theorem": (IRREDUCIBLE_4X4, "check-hypotheses", {"mode": "theorem_1_1"}),
    "d3-reducible-theorem": (REDUCIBLE_3X3, "check-hypotheses", {"mode": "theorem_1_1"}),
}


def canonical_report(name: str) -> str:
    config, command, options = CASES[name]
    if isinstance(config, dict):
        raw = {"system": config}
    else:
        raw = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    if command is not None:
        raw["command"] = command
    if options is not None:
        raw["options"] = options
    cfg = cli.parse_config(json.dumps(raw))
    with tempfile.TemporaryDirectory() as tmp:
        cfg.csv_dir = tmp
        report, _ = cli.run_command(cfg)
    return cli.report_canonical_json(report) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    assert canonical_report(name) == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.json").write_text(canonical_report(case))
        print(f"wrote {case}", file=sys.stderr)
