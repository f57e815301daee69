"""Config parsing, command dispatch, JSON reports, and attractor export.

Matrix entries arrive as decimal strings so binary-exactness detection is
well-defined: a system is flagged exact when every entry round-trips through
float without loss, which switches the 2x2 decision paths to rational
arithmetic. Reports reproduce bit-for-bit under a fixed seed; wall time and
the root searches' step counts live in the `meta` section, excluded from that
guarantee.

Exit codes: 0 success, 1 hypothesis failed, 2 inconclusive, 3 input error (a
usage error, an option key no command reads, a bad value, or an `options.qm`
constant that inverts a pressure bracket), 4 more words than the budget, 5
internal error (a failed self-check or any other exception, on stderr).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import InputError, ResourceLimitError
from .gibbs import cylinder_weights, kappa_floor, mixing_levels, psi_mixing_stat
from .hypotheses import check_hypotheses
from .quasimult import empirical_qm
from .spannability import INCONCLUSIVE, diagnose_failure, minimal_spannable_k
from .systems import GeneratorSystem
from .thermo import (QMInput, TargetSequence, affinity_dimension, all_ones_targets, beta_hat,
                     pressure_brackets, qm_source, r0_interval, s0_interval)
from .wordspace import DEFAULT_BUDGET, check_sweep, enumerate_words, parse_word, word_str


class Opt(NamedTuple):
    """One option. int and float cast as Python does (floats must be finite), a
    tuple lists the allowed values, str/list/dict need that JSON type, object
    takes any value. A default of None means absent, so null is allowed."""

    type: object
    default: object = None
    flag: bool = False  # `main` exposes it as --name (underscores as dashes)


# Every option of every command, declared once; `seed` and `budget` belong to
# every command. A key no command declares is an input error, one that another
# command declares is not (`--command` switches a config to another command).
COMMON = {"seed": Opt(int, 42, flag=True), "budget": Opt(int, DEFAULT_BUDGET, flag=True)}
OPTIONS = {
    "check-hypotheses": {"mode": Opt(("theorem_1_1", "corollary_4_3"), "theorem_1_1", flag=True)},
    "spannability": {"k_max": Opt(int, 8, flag=True)},
    "qm": {"k": Opt(int, 1, flag=True), "n_max": Opt(int, 4, flag=True)},
    "pressure": {"potential": Opt(str, "sv_s"), "n": Opt(int, 8, flag=True),
                 "s": Opt(float, 1.0, flag=True), "s_grid": Opt(list),
                 "qm": Opt(object, "auto"), "k_qm": Opt(int, 1, flag=True)},
    "s0": {"targets": Opt(dict), "n": Opt(int, 10, flag=True), "k_qm": Opt(int, 1, flag=True)},
    "r0": {"n": Opt(int, 10, flag=True), "k_qm": Opt(int, 1, flag=True),
           "beta": Opt(float, flag=True), "psi_table": Opt(list), "tail_start": Opt(int)},
    "affinity-dim": {"n": Opt(int, 10, flag=True), "k_qm": Opt(int, 1, flag=True)},
    "mixing": {"s": Opt(float, 1.0, flag=True), "L": Opt(int, 3, flag=True),
               "gap": Opt(int, 4, flag=True), "connector_k": Opt(int, 1)},
    "export-attractor": {"depth": Opt(int, 6, flag=True), "csv_name": Opt(str, "attractor.csv")},
}
# keys of the object-valued options; null or absent takes the default
NESTED = {
    "targets": {"words": Opt(list, []), "all_ones": Opt(int), "tail_start": Opt(int, 1)},
    "qm": {"k": Opt(int), "C": Opt(float)},
}
COMMANDS = tuple(OPTIONS)
_KNOWN = {name: opt for table in (COMMON, *OPTIONS.values()) for name, opt in table.items()}

EXIT_OK = 0
EXIT_HYPOTHESIS_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


@dataclass
class RunConfig:
    system: GeneratorSystem
    command: str | None
    options: dict
    generator_strings: list[list[str]]
    translation_strings: list[list[str]] | None
    seed: int = COMMON["seed"].default
    budget: int = COMMON["budget"].default
    csv_dir: str | None = None

    def echo(self) -> dict:
        sysblock = {
            "dimension": self.system.dim,
            "generators": self.generator_strings,
            "exact": self.system.exact,
        }
        if self.translation_strings is not None:
            sysblock["translations"] = self.translation_strings
        return {"system": sysblock, "command": self.command, "options": self.options}


def _is_exact_decimal(text: str) -> bool:
    try:
        return Fraction(text) == Fraction(float(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


def _cast(value, typ, where: str):
    """`value` as an option of type `typ` (see `Opt`); a bad value is an input error."""
    if typ in (int, float):
        try:
            out = typ(value)
            if typ is int or math.isfinite(out):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    elif value in typ if isinstance(typ, tuple) else typ is object or isinstance(value, typ):
        return value
    want = f"one of {', '.join(typ)}" if isinstance(typ, tuple) else {
        int: "an integer", float: "a finite number", str: "a string", list: "a list",
        dict: "an object"}[typ]
    raise InputError(f"{where} must be {want}, got {value!r}")


def _check(options: dict, table: dict, where: str) -> dict:
    """Typed values of the keys given in `options`, each declared in `table`."""
    out = {}
    for key, value in options.items():
        if key not in table:
            raise InputError(f"{where}.{key} is not a known option")
        if value is not None or table[key].default is not None:
            value = _cast(value, table[key].type, f"{where}.{key}")
        if isinstance(value, dict) and key in NESTED:
            given = _check(value, NESTED[key], f"{where}.{key}")
            value = {name: given.get(name, sub.default) for name, sub in NESTED[key].items()}
        out[key] = value
    return out


def _values(cfg: RunConfig) -> SimpleNamespace:
    """The command's options, typed, with the table's defaults for absent keys."""
    given = _check(cfg.options, _KNOWN, "options")
    return SimpleNamespace(**{name: given.get(name, opt.default)
                              for name, opt in OPTIONS[cfg.command].items()})


def _parse_matrix_strings(entries, d: int, where: str) -> tuple[np.ndarray, bool, list[str]]:
    if not isinstance(entries, list) or len(entries) != d * d:
        raise InputError(f"{where}: expected {d * d} row-major decimal strings")
    vals, exact, texts = [], True, []
    for pos, e in enumerate(entries):
        if not isinstance(e, str):
            raise InputError(f"{where}[{pos}]: matrix entries must be decimal strings")
        try:
            vals.append(float(e))
        except ValueError as exc:
            raise InputError(f"{where}[{pos}]: cannot parse {e!r}") from exc
        exact = exact and _is_exact_decimal(e)
        texts.append(e)
    return np.array(vals).reshape(d, d), exact, texts


def parse_config(text: str) -> RunConfig:
    """Parse a UTF-8 JSON run configuration with field-level diagnostics."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "system" not in raw:
        raise InputError("config must be an object with a 'system' block")
    sysblock = raw["system"]
    if not isinstance(sysblock, dict) or "dimension" not in sysblock \
            or "generators" not in sysblock:
        raise InputError("system block needs 'dimension' and 'generators'")
    d = sysblock["dimension"]
    if not isinstance(d, int) or d < 2:
        raise InputError("system.dimension must be an integer >= 2")
    gens_raw = sysblock["generators"]
    if not isinstance(gens_raw, list) or not gens_raw:
        raise InputError("system.generators must be a nonempty list")
    mats, all_exact, gen_strings = [], True, []
    for i, entry in enumerate(gens_raw, start=1):
        M, exact, texts = _parse_matrix_strings(entry, d, f"system.generators[{i}]")
        mats.append(M)
        gen_strings.append(texts)
        all_exact = all_exact and exact
    translations = None
    tr_strings = None
    if sysblock.get("translations") is not None:
        tr_raw = sysblock["translations"]
        if not isinstance(tr_raw, list) or len(tr_raw) != len(mats):
            raise InputError("system.translations must list one vector per generator")
        translations, tr_strings = [], []
        for i, vec in enumerate(tr_raw, start=1):
            if not isinstance(vec, list) or len(vec) != d:
                raise InputError(f"system.translations[{i}]: expected {d} entries")
            try:
                translations.append(np.array([float(x) for x in vec]))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"system.translations[{i}]: bad entry") from exc
            tr_strings.append([str(x) for x in vec])
    system = GeneratorSystem(tuple(mats),
                             translations=None if translations is None else tuple(translations),
                             exact=all_exact)
    command = raw.get("command")
    if command is not None and command not in COMMANDS:
        raise InputError(f"unknown command {command!r}; choose from {COMMANDS}")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options must be an object")
    values = _check(options, _KNOWN, "options")
    if values.get("targets") is not None:  # words checked against the alphabet up front
        _target_words(values["targets"]["words"], system.ell)
    return RunConfig(system=system, command=command, options=options,
                     generator_strings=gen_strings, translation_strings=tr_strings,
                     **{key: values.get(key, opt.default) for key, opt in COMMON.items()})


def _jsonable(obj):
    """JSON form of a result; dataclass fields declared with repr=False are internal and left out."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return repr(obj)


def _target_words(words: list, ell: int):
    return tuple(parse_word(str(w), ell) for w in words)


def _targets_from_options(spec: dict | None, ell: int, budget: int) -> TargetSequence:
    if spec is None:
        raise InputError("this command needs an 'options.targets' block")
    if spec["all_ones"] is not None:
        return all_ones_targets(spec["all_ones"], spec["tail_start"], budget=budget)
    return TargetSequence(words=_target_words(spec["words"], ell), tail_start=spec["tail_start"])


def _psi_table(table: list | None) -> list[tuple[int, float]] | None:
    """`options.psi_table` as (n, psi(n)) pairs; a malformed table is an input error."""
    if table is None:
        return None
    if not all(isinstance(row, list) and len(row) == 2 for row in table):
        raise InputError("options.psi_table must be a list of [n, psi(n)] pairs")
    return [(_cast(n, int, f"options.psi_table.{i}.0"), _cast(v, float, f"options.psi_table.{i}.1"))
            for i, (n, v) in enumerate(table)]


def _qm_source(cfg: RunConfig, mode, k_qm: int):
    """Per-s QM input for the pressure command: auto, explicit, or absent."""
    if mode is None:
        return lambda s, kind: None
    if mode == "auto":
        return qm_source(cfg.system, k_qm, budget=cfg.budget)[0]
    if isinstance(mode, dict) and None not in mode.values():
        fixed = QMInput(**mode)
        return lambda s, kind: fixed
    raise InputError("options.qm must be 'auto', null, or {'k':, 'C':}")


def export_attractor(system: GeneratorSystem, depth: int, out_path, *,
                     budget: int = DEFAULT_BUDGET) -> int:
    """Truncated natural-projection point per word of Lambda(depth), as CSV."""
    if system.translations is None:
        raise InputError("export-attractor needs translations")
    if depth < 0:
        raise InputError("depth must be >= 0")
    check_sweep(system.ell, depth, budget)
    d = system.dim
    pts = np.zeros((1, d))
    for _ in range(depth):
        layers = [t[None, :] + pts @ A.T for A, t in
                  zip(system.generators, system.translations)]
        pts = np.stack(layers, axis=0).reshape(-1, d)
    header = ["x", "y"] if d == 2 else [f"x{i + 1}" for i in range(d)]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["word"])
        for word, p in zip(enumerate_words(system.ell, depth), pts):
            writer.writerow([repr(float(x)) for x in p] + [word_str(word, system.ell)])
    return pts.shape[0]


def _run_check_hypotheses(cfg: RunConfig):
    rep = check_hypotheses(cfg.system, _values(cfg).mode, seed=cfg.seed, budget=cfg.budget)
    code = {"Pass": EXIT_OK, "Fail": EXIT_HYPOTHESIS_FAILED,
            "Inconclusive": EXIT_INCONCLUSIVE}[rep.overall]
    return _jsonable(rep), code, list(rep.warnings), {}


def _run_spannability(cfg: RunConfig):
    search = minimal_spannable_k(cfg.system, _values(cfg).k_max, seed=cfg.seed,
                                 budget=cfg.budget)
    result, warnings, code = _jsonable(search), [], EXIT_OK
    if search.not_found:
        if search.inconclusive_ks:
            warnings.append(f"inconclusive at k in {list(search.inconclusive_ks)}")
            code = EXIT_INCONCLUSIVE
        else:
            diag = diagnose_failure(cfg.system, search, seed=cfg.seed, budget=cfg.budget)
            result["diagnosis"] = _jsonable(diag)
    # an Inconclusive certificate's notes say how it was computed and why it is
    # Inconclusive, a fired evaluation cap included
    warnings += [f"k = {c.k}: {note}" for c in search.certificates
                 if c.status == INCONCLUSIVE for note in c.notes]
    return result, code, warnings, {}


def _run_qm(cfg: RunConfig):
    o = _values(cfg)
    rep = empirical_qm(cfg.system, o.k, o.n_max, budget=cfg.budget)
    out = _jsonable(rep)
    out["empirical_c"] = {str(n): v for n, v in rep.empirical_c.items()}
    out["witnesses"] = {str(n): [word_str(w, cfg.system.ell) for w in ws]
                        for n, ws in rep.witnesses.items()}
    warnings = [] if rep.gamma.certified else [
        "no gamma certificate for d >= 3: gamma is reported as 0"]
    return out, EXIT_OK, warnings, {}


def _run_pressure(cfg: RunConfig):
    o = _values(cfg)
    svals = [o.s] if o.s_grid is None else [
        _cast(x, float, f"options.s_grid.{i}") for i, x in enumerate(o.s_grid)]
    qm_for = _qm_source(cfg, o.qm, o.k_qm)
    qms = [qm_for(s, "norm_s" if o.potential == "norm_s" else "sv_s") for s in svals]
    try:
        brackets = pressure_brackets(cfg.system, o.potential, o.n, svals, qms, budget=cfg.budget)
    except AssertionError as exc:  # an inverted bracket
        if not isinstance(o.qm, dict):
            raise
        raise InputError(f"options.qm: the supplied constant is not a valid lower "
                         f"bound ({exc})") from exc
    warnings = [f"s={s}: no positive QM constant, upper bound only"
                for s, br in zip(svals, brackets) if not br.lower_valid]
    return ({"potential": o.potential, "n": o.n, "brackets": _jsonable(brackets)}, EXIT_OK,
            warnings, {})


def _run_s0(cfg: RunConfig):
    o = _values(cfg)
    targets = _targets_from_options(o.targets, cfg.system.ell, cfg.budget)
    rep = s0_interval(cfg.system, targets, o.n, o.k_qm, seed=cfg.seed, budget=cfg.budget)
    return _jsonable(rep), EXIT_OK, list(rep.warnings), {"root_search": rep.root_search}


def _run_r0(cfg: RunConfig):
    o = _values(cfg)
    if o.beta is not None:
        beta = beta_hat(beta=o.beta)
    else:
        beta = beta_hat(psi_table=_psi_table(o.psi_table), tail_start=o.tail_start)
    if beta.value >= 1:
        raise InputError("recurrence dimension needs beta < 1")
    rep = r0_interval(cfg.system, beta.value, o.n, o.k_qm, seed=cfg.seed, budget=cfg.budget)
    out = _jsonable(rep)
    out["beta"] = _jsonable(beta)
    return (out, EXIT_OK, list(rep.warnings) + list(beta.warnings),
            {"root_search": rep.root_search})


def _run_affinity(cfg: RunConfig):
    o = _values(cfg)
    rep = affinity_dimension(cfg.system, o.n, o.k_qm, seed=cfg.seed, budget=cfg.budget)
    return _jsonable(rep), EXIT_OK, list(rep.warnings), {"root_search": rep.root_search}


def _run_mixing(cfg: RunConfig):
    o = _values(cfg)
    s, L, k = o.s, o.L, o.connector_k
    if cfg.system.dim == 2 and not 0.0 <= s <= 2.0:  # kappa_floor's range, before the sweep
        raise InputError("s must lie in [0, 2]")
    levels = mixing_levels(cfg.system, s, L, o.gap, k, budget=cfg.budget)
    rep = psi_mixing_stat(cfg.system, s, L, o.gap, connector_k=k, budget=cfg.budget,
                          levels=levels)
    out, warnings, code = _jsonable(rep), list(rep.warnings), EXIT_OK
    if cfg.system.dim == 2:
        kf = kappa_floor(cfg.system, s, k, L, budget=cfg.budget, levels=levels)
        out["kappa_certificate"] = _jsonable(kf)
        if not kf.certified:
            warnings.append("no kappa certificate: gamma lower bound is zero")
            code = EXIT_INCONCLUSIVE
        elif s > 1.0:
            # the floor sums the norm potential, for which only C = gamma^s is
            # proven; for s > 1 it divides by the phi^s constant instead
            warnings.append("s > 1: the kappa floor divides by the phi^s constant; "
                            "only gamma^s is proven for the norm potential")
    weights = cylinder_weights(cfg.system, s, min(L, 4), budget=cfg.budget, levels=levels)
    out["level_weights_sum"] = float(weights.probs.sum())
    return out, code, warnings, {}


def _run_export(cfg: RunConfig):
    o = _values(cfg)
    out_path = Path(cfg.csv_dir or ".") / o.csv_name
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        count = export_attractor(cfg.system, o.depth, out_path, budget=cfg.budget)
    except OSError as exc:
        raise InputError(f"cannot write the attractor CSV: {exc}") from exc
    return {"points": count, "path": str(out_path), "depth": o.depth}, EXIT_OK, [], {}


# each runner returns (result, exit code, warnings, extra `meta` entries)
_RUNNERS = dict(zip(COMMANDS, (_run_check_hypotheses, _run_spannability, _run_qm, _run_pressure,
                                _run_s0, _run_r0, _run_affinity, _run_mixing, _run_export)))


def run_command(cfg: RunConfig) -> tuple[dict, int]:
    """Dispatch a parsed config; returns (report, exit code)."""
    if cfg.command not in _RUNNERS:
        raise InputError(f"no command selected; choose from {COMMANDS}")
    if cfg.seed < 0:
        raise InputError(f"seed must be >= 0, got {cfg.seed}")
    start = time.perf_counter()
    result, code, warnings, meta = _RUNNERS[cfg.command](cfg)
    report = {"artifact": {"name": "cocyclespan", "version": __version__},
              "command": cfg.command, "config": cfg.echo(), "seed": cfg.seed,
              "budget": cfg.budget, "result": result, "warnings": warnings, "exit_code": code,
              "meta": {"wall_time_s": time.perf_counter() - start, **meta}}
    return report, code


def report_canonical_json(report: dict) -> str:
    """Deterministic serialization; `meta` (wall time, counts) is excluded."""
    trimmed = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(trimmed, sort_keys=True, indent=2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cocyclespan", description=__doc__)
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--command", choices=COMMANDS, help="override the config command")
    ap.add_argument("--out", help="write the JSON report here (default stdout)")
    ap.add_argument("--csv-dir", help="directory for CSV outputs")
    flags = {name: opt.type for name, opt in _KNOWN.items() if opt.flag}
    for name, typ in flags.items():
        ap.add_argument(f"--{name.replace('_', '-')}", dest=name, help=f"options.{name}",
                        **{"choices": typ} if isinstance(typ, tuple) else {"type": typ})
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise InputError(f"cannot read --config: {exc}") from exc
        cfg = parse_config(text)
        for name in flags:  # seed and budget go to cfg, the others into options
            val = getattr(args, name)
            if val is not None and name in COMMON:
                setattr(cfg, name, val)
            elif val is not None:
                cfg.options[name] = val
        cfg.command = args.command or cfg.command
        cfg.csv_dir = args.csv_dir or cfg.csv_dir
        report, code = run_command(cfg)
        text = report_canonical_json(report)
        if args.out:
            try:
                Path(args.out).write_text(text + "\n")
            except OSError as exc:
                raise InputError(f"cannot write --out: {exc}") from exc
        else:
            print(text)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # a failed self-check or a bug must not pass for exit 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
