"""Config parsing, command dispatch, JSON reports, and attractor export.

Matrix entries arrive as decimal strings so binary-exactness detection is
well-defined: a system is flagged exact when every entry round-trips through
float without loss, which switches the 2x2 decision paths to rational
arithmetic. Reports reproduce bit-for-bit under a fixed seed; wall time
lives in the `meta` section, excluded from that guarantee.

Exit codes: 0 success, 1 hypothesis failed, 2 inconclusive, 3 input error
(including command-line usage errors and a supplied `options.qm` constant that
inverts a pressure bracket), 4 resource cap exceeded, 5 internal error (a failed
self-check or any other unexpected exception, reported on stderr).
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

import numpy as np

from . import __version__
from .errors import InputError, ResourceLimitError
from .gibbs import cylinder_weights, kappa_floor, mixing_levels, psi_mixing_stat
from .hypotheses import check_hypotheses
from .quasimult import empirical_qm
from .spannability import INCONCLUSIVE, diagnose_failure, minimal_spannable_k
from .systems import GeneratorSystem
from .thermo import (DimensionReport, QMInput, QMInputProvider,
                     TargetSequence, affinity_dimension, beta_hat,
                     pressure_brackets, r0_interval, s0_interval)
from .wordspace import DEFAULT_BUDGET, parse_word, word_str

COMMANDS = ("check-hypotheses", "spannability", "qm", "pressure", "s0", "r0",
            "affinity-dim", "mixing", "export-attractor")

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
    seed: int = 42
    budget: int = DEFAULT_BUDGET
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


def _opt(options: dict, key, cast, default=None, *, where: str = "options"):
    """`options[key]` (or `default`) as `int` or `float`; a bad value is an input error."""
    value = options.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}.{key} must be {'an integer' if cast is int else 'a number'}, "
                         f"got {value!r}") from exc


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
    except json.JSONDecodeError as exc:
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
            except (TypeError, ValueError) as exc:
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
    cfg = RunConfig(system=system, command=command, options=options,
                    generator_strings=gen_strings, translation_strings=tr_strings)
    for key in ("seed", "budget"):
        if key in options:
            setattr(cfg, key, _opt(options, key, int))
    # early validation of word-typed options against the alphabet
    if isinstance(options.get("targets"), dict):
        _target_words(options["targets"], system.ell)
    return cfg


def _jsonable(obj):
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
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return repr(obj)


def _target_words(spec: dict, ell: int):
    words = spec.get("words", [])
    if not isinstance(words, list):
        raise InputError("options.targets.words must be a list of words")
    return tuple(parse_word(str(w), ell) for w in words)


def _targets_from_options(options: dict, ell: int) -> TargetSequence:
    spec = options.get("targets")
    if spec is None:
        raise InputError("this command needs an 'options.targets' block")
    if not isinstance(spec, dict):
        raise InputError("options.targets must be an object")
    tail = _opt(spec, "tail_start", int, 1, where="options.targets")
    if "all_ones" in spec:
        count = _opt(spec, "all_ones", int, where="options.targets")
        words = tuple(tuple([1] * k) for k in range(1, count + 1))
        return TargetSequence(words=words, tail_start=tail)
    return TargetSequence(words=_target_words(spec, ell), tail_start=tail)


def _psi_table(table) -> list[tuple[int, float]] | None:
    """`options.psi_table` as (n, psi(n)) pairs; a malformed table is an input error."""
    if table is None:
        return None
    if not isinstance(table, list) or not all(
            isinstance(row, list) and len(row) == 2 for row in table):
        raise InputError("options.psi_table must be a list of [n, psi(n)] pairs")
    return [(_opt(dict(enumerate(row)), 0, int, where=f"options.psi_table.{i}"),
             _opt(dict(enumerate(row)), 1, float, where=f"options.psi_table.{i}"))
            for i, row in enumerate(table)]


def _qm_source(cfg: RunConfig):
    """Per-s QM input for the pressure command: auto, explicit, or absent."""
    mode = cfg.options.get("qm", "auto")
    if mode is None:
        return lambda s, kind: None
    if mode == "auto":
        provider = QMInputProvider(cfg.system, _opt(cfg.options, "k_qm", int, 1),
                                   budget=cfg.budget)
        return provider.qm_input
    if isinstance(mode, dict):
        fixed = QMInput(k=_opt(mode, "k", int, where="options.qm"),
                        C=_opt(mode, "C", float, where="options.qm"))
        return lambda s, kind: fixed
    raise InputError("options.qm must be 'auto', null, or {'k':, 'C':}")


def export_attractor(system: GeneratorSystem, depth: int, out_path) -> int:
    """Truncated natural-projection point per word of Lambda(depth), as CSV."""
    if system.translations is None:
        raise InputError("export-attractor needs translations")
    if depth < 0:
        raise InputError("depth must be >= 0")
    from .wordspace import check_budget, enumerate_words
    check_budget(system.ell**depth, DEFAULT_BUDGET)
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
    mode = cfg.options.get("mode", "theorem_1_1")
    rep = check_hypotheses(cfg.system, mode, seed=cfg.seed, budget=cfg.budget)
    code = {"Pass": EXIT_OK, "Fail": EXIT_HYPOTHESIS_FAILED,
            "Inconclusive": EXIT_INCONCLUSIVE}[rep.overall]
    return _jsonable(rep), code, list(rep.warnings)


def _run_spannability(cfg: RunConfig):
    k_max = _opt(cfg.options, "k_max", int, 8)
    search = minimal_spannable_k(cfg.system, k_max, seed=cfg.seed, budget=cfg.budget)
    result = _jsonable(search)
    warnings = []
    code = EXIT_OK
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
    return result, code, warnings


def _run_qm(cfg: RunConfig):
    k = _opt(cfg.options, "k", int, 1)
    n_max = _opt(cfg.options, "n_max", int, 4)
    rep = empirical_qm(cfg.system, k, n_max, budget=cfg.budget)
    out = _jsonable(rep)
    out["empirical_c"] = {str(n): v for n, v in rep.empirical_c.items()}
    out["witnesses"] = {
        str(n): [word_str(w, cfg.system.ell) for w in ws]
        for n, ws in rep.witnesses.items()}
    warnings = [] if rep.gamma.certified else [
        "no gamma certificate for d >= 3: gamma is reported as 0"]
    return out, EXIT_OK, warnings


def _run_pressure(cfg: RunConfig):
    kind = cfg.options.get("potential", "sv_s")
    n = _opt(cfg.options, "n", int, 8)
    grid = cfg.options.get("s_grid")
    if grid is None:
        svals = [_opt(cfg.options, "s", float, 1.0)]
    elif isinstance(grid, list):
        svals = [_opt(dict(enumerate(grid)), i, float, where="options.s_grid")
                 for i in range(len(grid))]
    else:
        raise InputError("options.s_grid must be a list of numbers")
    qm_for = _qm_source(cfg)
    qms = [qm_for(s, "norm_s" if kind == "norm_s" else "sv_s") for s in svals]
    try:
        brackets = pressure_brackets(cfg.system, kind, n, svals, qms, budget=cfg.budget)
    except AssertionError as exc:  # an inverted bracket
        if not isinstance(cfg.options.get("qm"), dict):
            raise
        raise InputError(f"options.qm: the supplied constant is not a valid lower "
                         f"bound ({exc})") from exc
    warnings = [f"s={s}: no positive QM constant, upper bound only"
                for s, br in zip(svals, brackets) if not br.lower_valid]
    return {"potential": kind, "n": n, "brackets": _jsonable(brackets)}, EXIT_OK, warnings


def _dimension_result(rep: DimensionReport):
    return _jsonable(rep), EXIT_OK, list(rep.warnings)


def _run_s0(cfg: RunConfig):
    targets = _targets_from_options(cfg.options, cfg.system.ell)
    n = _opt(cfg.options, "n", int, 10)
    k_qm = _opt(cfg.options, "k_qm", int, 1)
    rep = s0_interval(cfg.system, targets, n, k_qm, seed=cfg.seed, budget=cfg.budget)
    return _dimension_result(rep)


def _run_r0(cfg: RunConfig):
    n = _opt(cfg.options, "n", int, 10)
    k_qm = _opt(cfg.options, "k_qm", int, 1)
    if "beta" in cfg.options:
        beta = beta_hat(beta=_opt(cfg.options, "beta", float))
    else:
        tail = None if cfg.options.get("tail_start") is None \
            else _opt(cfg.options, "tail_start", int)
        beta = beta_hat(psi_table=_psi_table(cfg.options.get("psi_table")), tail_start=tail)
    if beta.value >= 1:
        raise InputError("recurrence dimension needs beta < 1")
    rep = r0_interval(cfg.system, beta.value, n, k_qm, seed=cfg.seed, budget=cfg.budget)
    out, code, warnings = _dimension_result(rep)
    out["beta"] = _jsonable(beta)
    return out, code, warnings + list(beta.warnings)


def _run_affinity(cfg: RunConfig):
    n = _opt(cfg.options, "n", int, 10)
    k_qm = _opt(cfg.options, "k_qm", int, 1)
    rep = affinity_dimension(cfg.system, n, k_qm, seed=cfg.seed, budget=cfg.budget)
    return _dimension_result(rep)


def _run_mixing(cfg: RunConfig):
    s = _opt(cfg.options, "s", float, 1.0)
    L = _opt(cfg.options, "L", int, 3)
    gap = _opt(cfg.options, "gap", int, 4)
    k = _opt(cfg.options, "connector_k", int, 1)
    levels = mixing_levels(cfg.system, s, L, gap, k, budget=cfg.budget)
    rep = psi_mixing_stat(cfg.system, s, L, gap, connector_k=k, budget=cfg.budget, levels=levels)
    out = _jsonable(rep)
    warnings = list(rep.warnings)
    code = EXIT_OK
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
    return out, code, warnings


def _run_export(cfg: RunConfig):
    depth = _opt(cfg.options, "depth", int, 6)
    csv_dir = Path(cfg.csv_dir) if cfg.csv_dir else Path(".")
    csv_dir.mkdir(parents=True, exist_ok=True)
    out_path = csv_dir / cfg.options.get("csv_name", "attractor.csv")
    count = export_attractor(cfg.system, depth, out_path)
    return {"points": count, "path": str(out_path), "depth": depth}, EXIT_OK, []


_RUNNERS = {
    "check-hypotheses": _run_check_hypotheses,
    "spannability": _run_spannability,
    "qm": _run_qm,
    "pressure": _run_pressure,
    "s0": _run_s0,
    "r0": _run_r0,
    "affinity-dim": _run_affinity,
    "mixing": _run_mixing,
    "export-attractor": _run_export,
}


def run_command(cfg: RunConfig) -> tuple[dict, int]:
    """Dispatch a parsed config; returns (report, exit code)."""
    if cfg.command not in _RUNNERS:
        raise InputError(f"no command selected; choose from {COMMANDS}")
    start = time.perf_counter()
    result, code, warnings = _RUNNERS[cfg.command](cfg)
    report = {
        "artifact": {"name": "cocyclespan", "version": __version__},
        "command": cfg.command,
        "config": cfg.echo(),
        "seed": cfg.seed,
        "budget": cfg.budget,
        "result": result,
        "warnings": warnings,
        "exit_code": code,
        "meta": {"wall_time_s": time.perf_counter() - start},
    }
    return report, code


def report_canonical_json(report: dict) -> str:
    """Deterministic serialization; `meta` (wall time) is excluded."""
    trimmed = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(trimmed, sort_keys=True, indent=2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cocyclespan", description=__doc__)
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--command", choices=COMMANDS, help="override the config command")
    ap.add_argument("--out", help="write the JSON report here (default stdout)")
    ap.add_argument("--csv-dir", help="directory for CSV outputs")
    ap.add_argument("--seed", type=int, help="random seed (default 42)")
    ap.add_argument("--budget", type=int, help="word enumeration cap (default 2e7)")
    ap.add_argument("--k-max", type=int, dest="k_max")
    ap.add_argument("--k", type=int)
    ap.add_argument("--k-qm", type=int, dest="k_qm")
    ap.add_argument("--n", type=int)
    ap.add_argument("--n-max", type=int, dest="n_max")
    ap.add_argument("--s", type=float)
    ap.add_argument("--L", type=int)
    ap.add_argument("--gap", type=int)
    ap.add_argument("--depth", type=int)
    ap.add_argument("--beta", type=float)
    ap.add_argument("--mode", choices=("theorem_1_1", "corollary_4_3"))
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
        for key in ("k_max", "k", "k_qm", "n", "n_max", "s", "L", "gap", "depth",
                    "beta", "mode"):
            val = getattr(args, key, None)
            if val is not None:
                cfg.options[key] = val
        if args.command:
            cfg.command = args.command
        if args.seed is not None:
            cfg.seed = args.seed
        if args.budget is not None:
            cfg.budget = args.budget
        if args.csv_dir:
            cfg.csv_dir = args.csv_dir
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
