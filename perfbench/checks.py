"""Running one op through the CLI path, and checking its output against a reference.

An op is one config text taken through `cli.parse_config`, `cli.run_command`
and `cli.report_canonical_json`, with the exit-code mapping of `cli.main`:
InputError ends in exit 3, ResourceLimitError in exit 4, and any other
exception escapes, which the CLI would report as a traceback and exit 1.
Here it is recorded as a failed op and the run goes on.

The signature of an output keeps what a correct change must preserve:

* the exit code, verdict strings (status, overall, verdict, failed_at), the
  found k, the witness case and period, per-check pass flags and whether a
  pressure bracket has a lower end: these must be equal;
* every dimension interval and pressure bracket: these must intersect the
  reference, since two valid brackets of one root always intersect;
* exactly computed minima and statistics (empirical QM ratios, psi_hat,
  kappa floors, exported point counts): equal to a relative 1e-6;
* warnings: each reference warning must still be issued.

The echoed `threads` (os.cpu_count()) and `meta` are not compared.
Tightness is not checked here; `interval_width` measures it.
"""
from __future__ import annotations

import json
import math

EXACT_KEYS = ("status", "overall", "verdict", "failed_at", "found", "case", "period",
              "passed", "lower_valid", "points")
CLOSE_KEYS = ("empirical_c", "psi_hat", "kappa_floor", "floor", "raw_min")
CLOSE_REL = 1e-6


def run_op(cli, errors, text: str, csv_dir: str):
    """(exit code, canonical report text or None, exception or None) of one op."""
    try:
        cfg = cli.parse_config(text)
        cfg.csv_dir = csv_dir
        report, code = cli.run_command(cfg)
    except errors.InputError:
        return 3, None, None
    except errors.ResourceLimitError:
        return 4, None, None
    except Exception as exc:  # an uncaught exception is a failed op, not a run abort
        return None, None, exc
    return code, cli.report_canonical_json(report), None


def _num(x) -> float:
    return float(x)  # non-finite floats arrive as the strings 'inf', '-inf', 'nan'


def _walk(node, path, sig):
    if isinstance(node, dict):
        if {"lower", "upper", "lower_valid"} <= node.keys():
            sig["intervals"][path] = [_num(node["lower"]), _num(node["upper"])]
        for key, val in node.items():
            sub = f"{path}.{key}"
            if key in EXACT_KEYS and not isinstance(val, (dict, list)):
                sig["exact"][sub] = val
            elif key in CLOSE_KEYS:
                if isinstance(val, dict):
                    for k2, v2 in val.items():
                        sig["close"][f"{sub}.{k2}"] = _num(v2)
                elif val is not None and not isinstance(val, list):
                    sig["close"][sub] = _num(val)
            elif key == "interval" and isinstance(val, list) and len(val) == 2:
                sig["intervals"][sub] = [_num(val[0]), _num(val[1])]
            else:
                _walk(val, sub, sig)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _walk(val, f"{path}.{i}", sig)


def signature(code, text) -> dict:
    sig = {"exit": code, "exact": {}, "intervals": {}, "close": {}, "warnings": []}
    if text is not None:
        report = json.loads(text)
        _walk(report.get("result"), "result", sig)
        sig["warnings"] = list(report.get("warnings", []))
    return sig


def interval_width(sig: dict) -> float:
    """Summed width of the finite dimension intervals and pressure brackets."""
    total = 0.0
    for lo, hi in sig["intervals"].values():
        if math.isfinite(lo) and math.isfinite(hi):
            total += hi - lo
    return total


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= CLOSE_REL * max(abs(a), abs(b), 1e-300)


def compare(sig: dict, ref: dict) -> list[str]:
    """Mismatches of an op signature against its reference; empty when correct."""
    problems = []
    if sig["exit"] != ref["exit"]:
        problems.append(f"exit {sig['exit']} != {ref['exit']}")
    for path, val in ref["exact"].items():
        if sig["exact"].get(path, "<missing>") != val:
            problems.append(f"{path}: {sig['exact'].get(path, '<missing>')!r} != {val!r}")
    for path, (lo, hi) in ref["intervals"].items():
        got = sig["intervals"].get(path)
        if got is None:
            problems.append(f"{path}: interval missing")
        elif max(lo, got[0]) > min(hi, got[1]) + 1e-12 * max(
                [1.0] + [abs(x) for x in (lo, hi) if math.isfinite(x)]):
            problems.append(f"{path}: [{got[0]}, {got[1]}] misses [{lo}, {hi}]")
    for path, val in ref["close"].items():
        got = sig["close"].get(path)
        if got is None or not _close(got, val):
            problems.append(f"{path}: {got!r} != {val!r}")
    missing = [w for w in ref["warnings"] if w not in sig["warnings"]]
    if missing:
        problems.append(f"warnings no longer issued: {missing}")
    return problems
