import contextlib
import io
import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclespan.cli as cli
from cocyclespan import kernels
from cocyclespan.errors import InputError

E1_CONFIG = {
    "system": {"dimension": 2, "generators": [["0", "-1", "1", "0"]]},
    "command": "check-hypotheses",
    "options": {"mode": "theorem_1_1"},
}
E2_CONFIG = {
    "system": {"dimension": 2,
               "generators": [["2", "0", "0", "0.5"], ["0", "-1", "1", "0"]]},
    "command": "spannability",
    "options": {"k_max": 4},
}
E3_CONFIG = {
    "system": {"dimension": 2,
               "generators": [["0.4", "0", "0", "0.1"], ["0", "-0.3", "0.3", "0"]]},
    "command": "s0",
    "options": {"targets": {"all_ones": 10}, "n": 10, "k_qm": 1},
}
R0_CONFIG = dict(E3_CONFIG, command="r0",
                 options={"psi_table": [[2, 1.0], [4, 2.0]], "n": 6, "k_qm": 1})
# five 3x3 generators spannable at k = 1; the sphere minimizer needs about 4e5 evaluations
D3_SPANNABLE_CONFIG = {
    "system": {"dimension": 3, "generators": [
        ["1.21875", "0.78125", "0.28125", "-0.8125", "1.3125", "0.40625", "-0.4375",
         "-0.46875", "1.21875"],
        ["1.15625", "0.71875", "-0.46875", "-0.65625", "1.1875", "-0.59375", "0.5",
         "0.4375", "1.15625"],
        ["1.1875", "0.78125", "-0.125", "-0.8125", "1.1875", "0.4375", "0.28125",
         "-0.28125", "1.25"],
        ["1.1875", "-0.53125", "0.78125", "0.40625", "1.1875", "0.03125", "-0.96875",
         "-0.1875", "1.0625"],
        ["0.875", "-0.09375", "-0.3125", "0.0", "0.78125", "0.75", "0.25", "-0.8125",
         "0.625"]]},
    "command": "spannability",
    "options": {"k_max": 1},
}
PRESSURE_CONFIG = dict(E3_CONFIG, command="pressure", options={"n": 6})
# two 0.5 * Gaussian 3x3 generators; at k = 2 the true gamma is about 1e-16
D3_GAUSSIAN_SYSTEM = {"dimension": 3, "generators": [
    [repr(float(x)) for x in A.ravel()]
    for A in 0.5 * np.random.default_rng(5).standard_normal((2, 3, 3))]}
E4_CONFIG = {
    "system": {"dimension": 2,
               "generators": [["0.4", "0", "0", "0.4"], ["0.4", "0", "0", "0.4"]],
               "translations": [["0", "0"], ["0.6", "0"]]},
    "command": "export-attractor",
    "options": {"depth": 2},
}


def cfg_from(d):
    return cli.parse_config(json.dumps(d))


class TestParseConfig:
    def test_exactness_detection(self):
        cfg = cfg_from(E2_CONFIG)
        assert cfg.system.exact  # entries 2, 0, 0.5 are exact binary decimals
        cfg3 = cfg_from(E3_CONFIG)
        assert not cfg3.system.exact  # 0.4 and 0.3 are not

    @pytest.mark.parametrize("text", [
        " 1.5 ", "\t0.25\n", "1_000", "1_0.2_5", "+0.5", "-0.75", ".5", "5.", "-0.0",
        "1e-320", "1e300", "1e22", "1e23", "0.30000000000000004", "0.1", "0x10"])
    def test_exact_decimal_flag_matches_fractions(self, text):
        # the reference builds both Fractions in full, 10^|exponent| included
        try:
            expect = Fraction(text) == Fraction(float(text))
        except (ValueError, ZeroDivisionError, OverflowError):
            expect = False
        assert cli._is_exact_decimal(text) == expect

    def test_singular_generator(self):
        bad = {"system": {"dimension": 2, "generators": [["1", "0", "0", "0"]]}}
        with pytest.raises(InputError, match="generator 1 not invertible"):
            cfg_from(bad)

    def test_word_out_of_range(self):
        bad = dict(E2_CONFIG, command="s0",
                   options={"targets": {"words": ["13"]}, "n": 6})
        with pytest.raises(InputError, match="symbol 3"):
            cfg_from(bad)

    def test_schema_diagnostics(self):
        with pytest.raises(InputError, match="decimal strings"):
            cfg_from({"system": {"dimension": 2, "generators": [[2, 0, 0, 0.5]]}})
        with pytest.raises(InputError, match="not valid JSON"):
            cli.parse_config("{nope")

    @pytest.mark.parametrize("config,message", [
        ([], "config must be an object with a 'system' block"),
        ({"system": {"dimension": 2, "generators": [["1", "0", "0"]]}},
         "system.generators[1]: expected 4 row-major decimal strings"),
        ({"system": {"dimension": 2, "generators": [["1", "0", "0", "one"]]}},
         "system.generators[1][3]: cannot parse 'one'"),
        ({"system": {"dimension": 2}}, "system block needs 'dimension' and 'generators'"),
        ({"system": {"dimension": "2", "generators": []}},
         "system.dimension must be an integer >= 2"),
        ({"system": {"dimension": 1, "generators": []}},
         "system.dimension must be an integer >= 2"),
        ({"system": {"dimension": 2, "generators": []}},
         "system.generators must be a nonempty list"),
        ({"system": dict(E2_CONFIG["system"], translations=[["0", "0"]])},
         "system.translations must list one vector per generator"),
        ({"system": dict(E2_CONFIG["system"], translations=[["0", "0"], ["0"]])},
         "system.translations[2]: expected 2 entries"),
        ({"system": dict(E2_CONFIG["system"], translations=[["0", "0"], ["x", "0"]])},
         "system.translations[2]: bad entry"),
        (dict(E2_CONFIG, command="span"), f"unknown command 'span'; choose from {cli.COMMANDS}"),
        (dict(E2_CONFIG, options=[["k_max", 2]]), "options must be an object"),
    ])
    def test_schema_messages(self, config, message):
        with pytest.raises(InputError) as err:
            cfg_from(config)
        assert str(err.value) == message

    def test_roundtrip_canonical(self):
        cfg = cfg_from(E2_CONFIG)
        echo = cfg.echo()
        cfg2 = cli.parse_config(json.dumps(
            {"system": {k: v for k, v in echo["system"].items() if k != "exact"},
             "command": echo["command"], "options": echo["options"]}))
        assert cfg2.echo() == echo


class TestRunCommand:
    def test_e1_check_hypotheses_exit_1(self):
        report, code = cli.run_command(cfg_from(E1_CONFIG))
        assert code == cli.EXIT_HYPOTHESIS_FAILED
        assert report["result"]["failed_at"] == "power t=2"

    def test_e2_spannability_exit_0(self):
        report, code = cli.run_command(cfg_from(E2_CONFIG))
        assert code == cli.EXIT_OK
        assert report["result"]["found"] == 1

    def test_e3_s0_exit_0(self):
        report, code = cli.run_command(cfg_from(E3_CONFIG))
        assert code == cli.EXIT_OK
        lo, hi = report["result"]["interval"]
        assert 0 < lo < hi < 1

    def test_square_pressure_takes_a_tiny_phi_level_constant(self, tmp_path):
        # C = 1e-200 is valid, though C**2 underflows: the square bracket keeps
        # the constant as given and its ends finite
        options = {"potential": "sv_s_squared", "n": 6, "qm": {"k": 1, "C": 1e-200}}
        config = dict(PRESSURE_CONFIG, options=options)
        code, err = run_main(tmp_path, config)
        assert code == cli.EXIT_OK, err
        report, code = cli.run_command(cfg_from(config))
        for br in report["result"]["brackets"]:
            assert br["negated"] and br["qm"]["C"] == 1e-200
            assert math.isfinite(br["lower"]) and math.isfinite(br["upper"])
            assert br["lower"] <= br["upper"]

    def test_affinity_dim_meta_reports_root_search_counts(self):
        cfg = cfg_from(dict(E3_CONFIG, command="affinity-dim", options={"n": 8, "k_qm": 1}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        counts = json.loads(json.dumps(report["meta"]["root_search"]))
        assert set(counts) == {"upper", "lower"}
        # each end also names the bracket it started from, how many exact points
        # (s = 0, S_MAX, its guide's pair and, for the lower end, the upper
        # search's points) it was chosen from, its guide's root and whether the
        # pair around that root closed the search
        keys = {"passes", "sweeps", "closed_form", "steps", "bisection_fallbacks", "start",
                "seed_points", "guide_root", "guide_closed"}
        assert set(counts["upper"]) == set(counts["lower"]) == keys
        assert counts["upper"]["seed_points"] == 4 and counts["lower"]["seed_points"] == 6
        for end in counts.values():
            lo, hi = end["start"]
            assert (lo, hi) == (end["guide_root"] - 1e-9, end["guide_root"] + 1e-9)
            assert end["guide_closed"] and end["steps"] == 0
            # the guide's pair samples 0 < s < 1, where phi^s reads log sigma_1
            # alone: one pass of one sweep each, and the upper end builds the guide
            assert end["passes"] == 2
        assert counts["upper"]["sweeps"] == 3 and counts["lower"]["sweeps"] == 2
        assert report["result"]["interval"] == [counts["lower"]["start"][0],
                                                counts["upper"]["start"][1]]
        assert report["result"]["interval"][1] < 1
        # s = 0 and S_MAX take closed forms, in the upper search, which runs
        # first; the lower search reads both from the memo
        assert counts["upper"]["closed_form"] == 2
        assert counts["lower"]["closed_form"] == 0
        assert "root_search" not in cli.report_canonical_json(report)

    def test_check_hypotheses_meta_reports_effort(self):
        from test_golden import GOLDEN, REDUCIBLE_4X4

        cfg = cfg_from({"system": REDUCIBLE_4X4, "command": "check-hypotheses",
                        "options": {"mode": "theorem_1_1"}})
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_HYPOTHESIS_FAILED
        # the effort sits in meta: the canonical report is the golden one
        assert cli.report_canonical_json(report) + "\n" == \
            (GOLDEN / "d4-reducible-theorem.json").read_text()
        effort = json.loads(json.dumps(report["meta"]["checks"]))
        assert [e["label"] for e in effort] == [c["label"] for c in report["result"]["checks"]]
        decided = {e["label"] for e in effort if e["implied_by"] is None}
        # t = 4 and t = 1 run their closures; t = 2 and m = 3 follow from them,
        # m = 1 is the cocycle of t = 1, and t = 1's witness rules out a full m = 2
        assert decided == {"power t=4", "power t=1"}
        for e in effort:
            assert set(e) == {"label", "seconds", "algebra_levels", "implied_by", "witness_from"}
            assert e["seconds"] >= 0
            if e["implied_by"] is None:
                assert e["algebra_levels"] >= 1
            else:
                assert e["algebra_levels"] == 0 and e["implied_by"] in decided
            # reducible everywhere: t = 1's radical gives a witness, every other
            # non-full check's is built from it, and m = 1 is t = 1's cocycle
            built = e["label"] not in ("power t=1", "wedge m=1")
            assert e["witness_from"] == ("power t=1" if built else None)

    @pytest.mark.parametrize("name,decided", [
        ("d3-irreducible-theorem", {"power t=3"}),
        ("d3-reducible-theorem", {"power t=3", "power t=1"}),
        ("d4-irreducible-theorem", {"power t=4", "wedge m=2"}),
        ("d4-reducible-theorem", {"power t=4", "power t=1"}),
    ])
    def test_check_hypotheses_closures_per_golden(self, name, decided):
        import test_golden

        system = test_golden.CASES[name][0]
        report, _ = cli.run_command(cfg_from({"system": system, "command": "check-hypotheses",
                                              "options": {"mode": "theorem_1_1"}}))
        effort = report["meta"]["checks"]
        assert {e["label"] for e in effort if e["algebra_levels"]} == decided
        assert {e["label"] for e in effort if e["implied_by"] is None} == decided

    def test_check_hypotheses_meta_d2_effort(self):
        report, _ = cli.run_command(cfg_from(dict(E1_CONFIG, options={"mode": "corollary_4_3"})))
        effort = report["meta"]["checks"]
        # d = 2 is decided exactly, without the algebra closure
        assert [e["label"] for e in effort] == ["irreducible cocycle", "irreducible square",
                                                "norms < 1/2"]
        assert all(e["algebra_levels"] == 0 and e["implied_by"] is None
                   and e["witness_from"] is None for e in effort)

    def test_e1_spannability_reports_diagnosis(self):
        cfg = cfg_from(dict(E1_CONFIG, command="spannability", options={"k_max": 6}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        assert report["result"]["found"] is None
        assert report["result"]["diagnosis"]["case"] == "PeriodicSubspaces"
        assert report["result"]["diagnosis"]["period"] == 2

    def test_spannability_sweeps_once(self, monkeypatch):
        from cocyclespan import spannability
        built = []

        class CountingSpan(spannability._RationalSpan):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        def no_second_search(*args, **kwargs):
            raise AssertionError("diagnose_failure ran the search again")

        monkeypatch.setattr(spannability, "_RationalSpan", CountingSpan)
        monkeypatch.setattr(spannability, "minimal_spannable_k", no_second_search)
        cfg = cfg_from(dict(E1_CONFIG, command="spannability", options={"k_max": 6}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        assert report["result"]["diagnosis"]["case"] == "PeriodicSubspaces"
        # one M_1..M_6 sweep serves the search and the diagnosis chain
        assert len(built) == 6

    def test_diagnosis_reuses_the_search_levels(self, monkeypatch):
        from cocyclespan import spannability
        built = []

        class CountingSpan(spannability._RationalSpan):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(spannability, "_RationalSpan", CountingSpan)
        # three upper-triangular generators: M_k is the triangular algebra at every k
        cfg = cfg_from({"system": {"dimension": 2, "generators": [
            ["2", "1", "0", "1"], ["1", "0.5", "0", "3"], ["0.5", "-1", "0", "2"]]},
            "command": "spannability", "options": {"k_max": 4}})
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK and report["result"]["found"] is None
        assert "diagnosis" in report["result"] and "levels" not in report["result"]
        assert len(built) == 4

    def test_spannability_cap_warning(self, monkeypatch):
        monkeypatch.setattr(kernels, "BNB_MAX_EVALS", 5000)
        report, code = cli.run_command(cfg_from(D3_SPANNABLE_CONFIG))
        assert code == cli.EXIT_INCONCLUSIVE
        assert report["warnings"][0] == "inconclusive at k in [1]"
        assert any(w.startswith("k = 1: branch and bound stopped at its cap of 5000")
                   for w in report["warnings"])

    def test_mixing_no_certificate_exit_2(self):
        cfg = cfg_from(dict(E1_CONFIG, command="mixing",
                            options={"s": 1.0, "L": 2, "gap": 2}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_INCONCLUSIVE

    def test_d3_pressure_has_no_lower_end(self):
        cfg = cfg_from({"system": D3_GAUSSIAN_SYSTEM, "command": "pressure", "options": {
            "potential": "norm_s", "qm": "auto", "k_qm": 2, "n": 8}})
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        assert report["result"]["brackets"][0]["lower_valid"] is False
        assert report["warnings"] == ["s=1.0: no positive QM constant, upper bound only"]

    def test_d3_qm_gamma_abstains(self):
        cfg = cfg_from({"system": D3_GAUSSIAN_SYSTEM, "command": "qm",
                        "options": {"k": 2, "n_max": 2}})
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        assert report["result"]["gamma"]["value"] == 0.0
        assert report["warnings"] == ["no gamma certificate for d >= 3: gamma is reported as 0"]

    @pytest.mark.parametrize("s", [1.0, 1.2])
    def test_mixing_kappa_warning_above_s_one(self, s):
        cfg = cfg_from(dict(E3_CONFIG, command="mixing", options={"s": s, "L": 3, "gap": 3}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK and report["result"]["kappa_certificate"]["certified"]
        flagged = any(w.startswith("s > 1: the kappa floor") for w in report["warnings"])
        assert flagged == (s > 1.0)

    def test_pressure_grid_sweeps_once(self, monkeypatch):
        calls = []
        extend = kernels._extend_level
        monkeypatch.setattr(kernels, "_extend_level",
                            lambda *args: calls.append(1) or extend(*args))
        cfg = cfg_from(dict(E3_CONFIG, command="pressure",
                            options={"n": 7, "s_grid": [0.3, 0.8, 1.2, 1.7], "qm": None}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK and len(report["result"]["brackets"]) == 4
        assert len(calls) == 7

    def test_mixing_sweeps_once(self, monkeypatch):
        words = []
        extend = kernels._extend_level
        monkeypatch.setattr(kernels, "_extend_level",
                            lambda gens, units, *bufs: words.append(units.shape[-1] * len(gens))
                            or extend(gens, units, *bufs))
        cfg = cfg_from(dict(E3_CONFIG, command="mixing",
                            options={"s": 1.0, "L": 6, "gap": 6, "connector_k": 1}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK and report["result"]["kappa_certificate"]["certified"]
        # psi and kappa read one sweep of 2L + gap = 18 levels, in chunks: every
        # word of Lambda(1..18) is grown once; gamma builds Lambda(1), and the
        # connector determinant reads the generators
        assert sum(words) == sum(2**m for m in range(1, 19)) + 2

    def test_wedge_diagnosis_report(self):
        # a WedgeEigenStructure diagnosis; its complex eigenvalues serialise as re/im pairs
        c, s = math.cos(1.0), math.sin(1.0)
        system = {"dimension": 3, "generators": [
            [repr(x) for x in (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 0.5)],
            [repr(x) for x in (2 * c, -2 * s, 0.0, 2 * s, 2 * c, 0.0, 0.0, 0.0, 3.0)]]}
        report, code = cli.run_command(cfg_from({"system": system, "command": "spannability",
                                                 "options": {"k_max": 4}}))
        assert code == cli.EXIT_OK
        diag = json.loads(cli.report_canonical_json(report))["result"]["diagnosis"]
        assert diag["case"] == "WedgeEigenStructure" and diag["wedge_pair"] == [1, 2]
        assert diag["dims"] == [1, 1, 1, 1]
        assert sorted(v["re"] for v in diag["eigenvalues"]) == pytest.approx([2.0, 2.0, 6.0])
        assert all(v["im"] == 0.0 for v in diag["eigenvalues"])

    @pytest.mark.parametrize("generators", [
        [["0.1", "0.3", "0", "0.7"], ["0.2", "0.9", "0", "0.3"]],     # shared line e1
        [["0.1", "0.3", "0.2", "0.7"], ["0.3", "0.9", "0.6", "2.1"]],  # shared line off the axes
    ])
    def test_inexact_reducible_pair(self, generators):
        cfg = cfg_from({"system": {"dimension": 2, "generators": generators},
                        "command": "check-hypotheses"})
        assert not cfg.system.exact
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_HYPOTHESIS_FAILED
        verdict = report["result"]["checks"][0]["verdict"]
        assert verdict["status"] == "ReducibleWitness" and verdict["method"] == "d2_float"

    def test_no_qm_constant_lower_root_zero(self):
        # both generators fix the line e1, so gamma = 0 and no lower pressure end exists
        system = {"dimension": 2, "generators": [["0.4", "0.1", "0", "0.2"],
                                                 ["0.3", "-0.1", "0", "0.25"]]}
        report, code = cli.run_command(cfg_from({"system": system, "command": "affinity-dim",
                                                 "options": {"n": 8}}))
        assert code == cli.EXIT_OK
        assert "no positive QM constant: lower root defaulted to 0" in report["warnings"]
        assert report["result"]["interval"][0] == 0.0

    @pytest.mark.parametrize("command,options,message", [
        (None, {}, f"no command selected; choose from {cli.COMMANDS}"),
        ("s0", {"n": 4}, "this command needs an 'options.targets' block"),
        ("r0", {"n": 4}, "provide either a psi table or an explicit beta"),
        ("r0", {"n": 4, "beta": 1.5}, "recurrence dimension needs beta < 1"),
    ])
    def test_command_messages(self, command, options, message):
        cfg = cfg_from({"system": E3_CONFIG["system"], "command": command, "options": options})
        with pytest.raises(InputError) as err:
            cli.run_command(cfg)
        assert str(err.value) == message

    def test_r0_psi_table_tail_starts_at_the_middle_entry(self):
        table = [[4, 1.0], [8, 2.2], [12, 3.1], [16, 4.2]]
        report, code = cli.run_command(cfg_from(dict(
            E3_CONFIG, command="r0", options={"psi_table": table, "n": 6})))
        beta = report["result"]["beta"]
        assert code == cli.EXIT_OK
        assert (beta["tail_start"], beta["value"], beta["explicit"]) == (12, 3.1 / 12, False)

    def test_a_result_holds_python_scalars_only(self):
        assert cli._jsonable({"a": (1, 2.5, np.float64(0.5))}) == {"a": [1, 2.5, 0.5]}
        for value in (np.int64(3), np.bool_(True), object()):
            with pytest.raises(TypeError, match="no JSON form"):
                cli._jsonable({"a": [value]})

    def test_budget_cap(self):
        cfg = cfg_from(dict(E3_CONFIG, options={"targets": {"all_ones": 4},
                                                "n": 24, "k_qm": 1, "budget": 1000}))
        from cocyclespan.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError):
            cli.run_command(cfg)


class TestExportAttractor:
    def test_depth_two_points(self, tmp_path):
        cfg = cfg_from(E4_CONFIG)
        cfg.csv_dir = str(tmp_path)
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        rows = (tmp_path / report["result"]["path"]).read_text().strip().splitlines()
        assert rows[0] == "x,y,word"
        xs = sorted(float(r.split(",")[0]) for r in rows[1:])
        assert np.allclose(xs, [0.0, 0.24, 0.6, 0.84])

    def test_depth_zero_origin(self, tmp_path):
        cfg = cfg_from(dict(E4_CONFIG, options={"depth": 0}))
        cfg.csv_dir = str(tmp_path)
        report, _ = cli.run_command(cfg)
        rows = (tmp_path / report["result"]["path"]).read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("0.0,0.0,")

    def test_x_range_inside_unit_interval(self, tmp_path):
        for depth in (1, 3, 6):
            cfg = cfg_from(dict(E4_CONFIG, options={"depth": depth}))
            cfg.csv_dir = str(tmp_path)
            report, _ = cli.run_command(cfg)
            rows = (tmp_path / report["result"]["path"]).read_text().strip().splitlines()[1:]
            xs = [float(r.split(",")[0]) for r in rows]
            assert min(xs) >= -1e-12 and max(xs) <= 1.0 + 1e-12

    def test_report_names_the_csv_relative_to_the_csv_dir(self, tmp_path):
        # the canonical report is a function of the config: two --csv-dir
        # values write the same file under each and give the same bytes
        texts = []
        for sub in ("a", "b"):
            cfg = cfg_from(dict(E4_CONFIG, options={"depth": 2, "csv_name": "points/e4.csv"}))
            cfg.csv_dir = str(tmp_path / sub)
            report, _ = cli.run_command(cfg)
            assert report["result"]["path"] == "points/e4.csv"
            assert (tmp_path / sub / "points" / "e4.csv").read_text().startswith("x,y,word")
            texts.append(cli.report_canonical_json(report))
        assert texts[0] == texts[1]

    def test_missing_translations(self, tmp_path):
        cfg = cfg_from(dict(E2_CONFIG, command="export-attractor", options={"depth": 2}))
        cfg.csv_dir = str(tmp_path)
        with pytest.raises(InputError, match="translations"):
            cli.run_command(cfg)


class TestReproducibility:
    def test_rerun_reproduces_bitwise(self):
        for command, options in (
            ("qm", {"k": 1, "n_max": 3}),
            ("mixing", {"s": 1.0, "L": 2, "gap": 3}),
            ("affinity-dim", {"n": 8, "k_qm": 1}),
        ):
            cfg1 = cfg_from(dict(E3_CONFIG, command=command, options=options))
            cfg2 = cfg_from(dict(E3_CONFIG, command=command, options=options))
            r1, _ = cli.run_command(cfg1)
            r2, _ = cli.run_command(cfg2)
            assert cli.report_canonical_json(r1) == cli.report_canonical_json(r2)

    def test_main_writes_report(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E2_CONFIG))
        out_path = tmp_path / "report.json"
        code = cli.main(["--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["result"]["found"] == 1

    def test_main_input_error_exit_3(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{broken")
        assert cli.main(["--config", str(cfg_path)]) == cli.EXIT_INPUT_ERROR
        assert cli.main(["--config", str(tmp_path / "missing.json")]) == cli.EXIT_INPUT_ERROR
        cfg_path.write_text(json.dumps(E2_CONFIG))
        assert cli.main(["--config", str(cfg_path), "--out",
                         str(tmp_path / "no-dir" / "r.json")]) == cli.EXIT_INPUT_ERROR

    def test_internal_error_exit_5(self, tmp_path, capsys, monkeypatch):
        def failing_runner(cfg):
            raise AssertionError("self-check failed")
        monkeypatch.setitem(cli._RUNNERS, "spannability", failing_runner)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E2_CONFIG))
        assert cli.main(["--config", str(cfg_path)]) == cli.EXIT_INTERNAL
        assert "internal error: AssertionError: self-check failed" in capsys.readouterr().err

    def test_usage_error_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E1_CONFIG))
        assert cli.main(["--config", str(cfg_path), "--bogus", "1"]) == cli.EXIT_INPUT_ERROR
        assert cli.main(["--config", str(cfg_path), "--threads", "2"]) == cli.EXIT_INPUT_ERROR
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [
        ("n", "abc"), ("seed", "x"), ("targets", [1, 2]), ("targets", "abc"),
        ("psi_table", [[4, "a"]]), ("psi_table", [5, 6]), ("psi_table", "abc"),
        ("tail_start", "x"), ("qm", {"k": 1, "C": 1e9}),
        # keys no command reads, at the top and in the nested objects
        ("kmax", 2), ("seeed", 1), ("targets", {"all_ones": 4, "tail_strat": 2}),
        ("qm", {"k": 1, "C": 0.1, "c": 0.1}),
        # non-finite numbers
        ("s", math.nan), ("s", math.inf), ("s_grid", [0.5, -math.inf]),
        ("qm", {"k": 1, "C": math.nan})])
    def test_bad_option_type_exit_3(self, tmp_path, capsys, key, value):
        # a qm constant this large inverts the n = 6 pressure bracket
        base = {"psi_table": R0_CONFIG, "tail_start": R0_CONFIG, "qm": PRESSURE_CONFIG,
                "s_grid": PRESSURE_CONFIG, "kmax": E2_CONFIG}.get(key, E3_CONFIG)
        cfg = dict(base, options=dict(base["options"], **{key: value}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(cfg_path)]) == cli.EXIT_INPUT_ERROR
        assert f"options.{key}" in capsys.readouterr().err


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, 1e-308]
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS),
    st.text(), st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028\ud800", "\U0001f600\"\\/"]))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


class TestCanonicalWriter:
    """`report_canonical_json` against json's own `sort_keys=True, indent=2` output."""

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(json_values)
    def test_equals_json_dumps(self, value):
        assert cli._encode(value, "") == json.dumps(value, sort_keys=True, indent=2)
        report = {"result": value, "meta": {"wall_time_s": 0.1}}
        assert cli.report_canonical_json(report) == json.dumps({"result": value},
                                                               sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {2: "a", -1: "b", 10**30: "c"}, {0.5: 1, -math.inf: 2, math.nan: 3}, {True: 1},
        {None: [1, {}]}, {"b": {"a": [[], {}, ()]}}, [[[1]]], "\u00e9", -0.0, 2**70])
    def test_keys_and_scalars(self, value):
        assert cli._encode(value, "") == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), {(1, 2): 3}, [b"x"]])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._encode(value, "")

    def test_shipped_configs(self, tmp_path):
        for path in sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json")):
            cfg = cli.parse_config(path.read_text())
            cfg.csv_dir = str(tmp_path)
            report, _ = cli.run_command(cfg)
            text = cli.report_canonical_json(report)
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2), path.name


def run_main(tmp_path, config: dict, *args) -> tuple[int, str]:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(cfg_path), "--csv-dir", str(tmp_path), *args])
    return code, err.getvalue()


E3_SYSTEM = E3_CONFIG["system"]


class TestOptionTable:
    def test_flags_are_the_option_flags(self):
        flags = {name for name, opt in cli._KNOWN.items() if opt.flag}
        assert flags == {"budget", "k_max", "k", "k_qm", "n", "n_max", "s", "L",
                         "gap", "depth", "beta", "mode"}

    def test_one_type_per_name(self):
        for table in cli.OPTIONS.values():
            for name, opt in table.items():
                assert opt.type == cli._KNOWN[name].type
                assert (opt.default is None) == (cli._KNOWN[name].default is None)
                assert opt.low == cli._KNOWN[name].low

    BELOW_BOUND = [
        ("spannability", {"k_max": 0}, "k_max"),
        ("qm", {"k": 0}, "k"), ("qm", {"n_max": 0}, "n_max"),
        ("pressure", {"n": 0}, "n"), ("s0", {"targets": {"all_ones": 3}, "n": -2}, "n"),
        ("r0", {"beta": 0.3, "n": 0}, "n"), ("r0", {"beta": -0.5}, "beta"),
        ("affinity-dim", {"n": 0}, "n"), ("mixing", {"L": 0}, "L"), ("mixing", {"gap": 0}, "gap"),
        ("export-attractor", {"depth": -1}, "depth"),
        ("s0", {"targets": {"all_ones": 0}}, "targets.all_ones"),
        ("s0", {"targets": {"all_ones": 3, "tail_start": 0}}, "targets.tail_start"),
        ("pressure", {"qm": {"k": -1, "C": 0.5}}, "qm.k"),
        ("affinity-dim", {"k_qm": -5}, "k_qm"),
    ]

    def test_every_bound_has_a_case(self):
        bounded = {name for name, opt in cli._KNOWN.items() if opt.low is not None}
        bounded |= {f"{outer}.{name}" for outer, table in cli.NESTED.items()
                    for name, opt in table.items() if opt.low is not None}
        assert bounded == {field for _, _, field in self.BELOW_BOUND}

    @pytest.mark.parametrize("command,options,field", BELOW_BOUND)
    def test_lower_bounds_name_the_field(self, tmp_path, monkeypatch, command, options, field):
        system = E4_CONFIG["system"] if command == "export-attractor" else E3_SYSTEM
        config = {"system": system, "command": command, "options": options}
        *outer, key = field.split(".")
        table = cli.NESTED[outer[0]] if outer else cli._KNOWN
        value = options[outer[0]][key] if outer else options[key]
        code, err = run_main(tmp_path, config)
        assert code == cli.EXIT_INPUT_ERROR
        assert f"options.{field} must be >= {table[key].low}, got {value!r}" in err
        # a bound in the table is one the library enforces: without it the value still exits 3
        monkeypatch.setitem(table, key, table[key]._replace(low=None))
        code, err = run_main(tmp_path, config)
        assert code == cli.EXIT_INPUT_ERROR
        assert f"options.{field} must be >=" not in err

    @pytest.mark.parametrize("command,options", [
        ("affinity-dim", {"n": 6}),  # conformal: the connector length is never read
        ("pressure", {"n": 6, "qm": None}),  # no QM constant: never read either
    ])
    def test_k_qm_bound_holds_where_it_is_not_read(self, tmp_path, command, options):
        config = {"system": E4_CONFIG["system"], "command": command, "options": options}
        code, err = run_main(tmp_path, config, "--k-qm", "-5")
        assert code == cli.EXIT_INPUT_ERROR
        assert "options.k_qm must be >= 1, got -5" in err

    def test_seed_is_not_an_option(self, tmp_path):
        # no report depends on a seed: the flag is a usage error, the key unknown
        code, err = run_main(tmp_path, E1_CONFIG, "--seed", "7")
        assert code == cli.EXIT_INPUT_ERROR and "unrecognized arguments: --seed" in err
        code, err = run_main(tmp_path, dict(E1_CONFIG, options={"seed": 42}))
        assert code == cli.EXIT_INPUT_ERROR and "options.seed is not a known option" in err

    def test_another_commands_key_stays_legal(self, tmp_path):
        config = str(Path(__file__).resolve().parent.parent / "configs" / "e3.json")
        assert cli.main(["--config", config, "--command", "affinity-dim", "--n", "10",
                         "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK

    def test_flag_values_are_checked(self, tmp_path):
        code, err = run_main(tmp_path, dict(E3_CONFIG, command="mixing", options={}),
                             "--s", "nan")
        assert code == cli.EXIT_INPUT_ERROR and "options.s must be a finite number" in err


class TestDocumentedExits:
    @pytest.mark.parametrize("system,command,options", [
        (E3_SYSTEM, "qm", {"k": 2000}),
        (E3_SYSTEM, "qm", {"n_max": 10**6}),
        (E3_SYSTEM, "affinity-dim", {"k_qm": 100000}),
        (E3_SYSTEM, "affinity-dim", {"n": 10**6}),
        (E3_SYSTEM, "affinity-dim", {"n": 10**8}),
        (E3_SYSTEM, "s0", {"targets": {"all_ones": 10**6}}),
        # one generator: a sweep of n levels counts n words, not 1**n
        (E1_CONFIG["system"], "s0", {"targets": {"all_ones": 3}, "n": 10**6, "budget": 10**5}),
        (E4_CONFIG["system"], "export-attractor", {"depth": 10, "budget": 100}),
        (E1_CONFIG["system"], "spannability", {"k_max": 10**9}),
    ])
    def test_over_budget_exit_4(self, tmp_path, system, command, options):
        code, err = run_main(tmp_path, {"system": system, "command": command,
                                        "options": options})
        assert code == cli.EXIT_RESOURCE, err
        assert "words exceed the budget" in err

    @pytest.mark.parametrize("command,options,message", [
        ("mixing", {"connector_k": -3}, "connector_k >= 1"),
        ("s0", {"targets": {"all_ones": 3, "tail_start": 5}}, "tail_start outside the target list"),
        ("check-hypotheses", {"seed": 42}, "options.seed is not a known option"),
        # checked before the sweep: the psi statistic would overflow at this s
        ("mixing", {"s": 1.92901336644459e+171, "L": 2, "gap": 2}, "s must lie in [0, 2]"),
        ("export-attractor", {"csv_name": ""}, "cannot write the attractor CSV"),
        ("pressure", {"qm": {"k": 1}}, "options.qm must be 'auto', null, or {'k':, 'C':}"),
    ])
    def test_bad_input_exit_3(self, tmp_path, command, options, message):
        system = E4_CONFIG["system"] if command == "export-attractor" else E3_SYSTEM
        code, err = run_main(tmp_path, {"system": system, "command": command,
                                        "options": options})
        assert code == cli.EXIT_INPUT_ERROR, err
        assert message in err

    def test_huge_decimal_exponent_reports_at_once(self, tmp_path):
        # float reads the entry as 0.0; a Fraction of the text would build 10^99999999
        system = {"dimension": 2, "generators": [["1e-99999999", "-1", "1", "1"]]}
        start = time.perf_counter()
        code, err = run_main(tmp_path, {"system": system, "command": "check-hypotheses"})
        assert code == cli.EXIT_OK, err
        assert time.perf_counter() - start < 1.0
        assert not cfg_from({"system": system}).system.exact

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "Infinity", "1e999"])
    def test_non_finite_entry_exit_3(self, tmp_path, entry):
        system = {"dimension": 2, "generators": [[entry, "0", "0", "1"]]}
        code, err = run_main(tmp_path, {"system": system, "command": "check-hypotheses"})
        assert code == cli.EXIT_INPUT_ERROR
        assert "matrix has non-finite entries" in err

    def test_long_target_list_reports(self, tmp_path):
        # the SVD sigma_2 of the unit of A_1^537 underflows to 0; log sigma_2 from
        # the letter counts, 537 log 0.1 = -1236.5, does not, so this is a report
        out = tmp_path / "report.json"
        code, err = run_main(tmp_path, {"system": E3_SYSTEM, "command": "s0",
                                        "options": {"targets": {"all_ones": 3000}}},
                             "--out", str(out))
        assert code == cli.EXIT_OK, err
        report = json.loads(out.read_text())
        assert report["config"]["options"]["targets"] == {"all_ones": 3000}
        assert out.stat().st_size < 20_000  # the echo holds the spec, not 3000 words
        assert all(math.isfinite(x) for x in report["result"]["interval"])
        from cocyclespan import E3
        from cocyclespan.thermo import _TargetData, all_ones_targets
        logs2 = _TargetData(E3(), all_ones_targets(3000)).logs2
        assert np.all(np.isfinite(logs2))
        assert abs(logs2[536] - 537 * math.log(0.1)) <= 1e-9

    def test_seed_and_budget_flags(self, tmp_path):
        e3 = json.loads((Path(__file__).resolve().parent.parent / "configs" / "e3.json").read_text())
        code, err = run_main(tmp_path, e3, "--budget", "100")
        assert code == cli.EXIT_RESOURCE, err
        out = tmp_path / "report.json"
        code, err = run_main(tmp_path, e3, "--budget", "2000", "--out", str(out))
        assert code == cli.EXIT_OK, err
        report = json.loads(out.read_text())
        assert report["budget"] == 2000 and "seed" not in report
        code, err = run_main(tmp_path, e3, "--seed", "7")
        assert code == cli.EXIT_INPUT_ERROR, err

    def test_closed_pipe_keeps_exit_code(self, tmp_path):
        # the reader closed its end: writing the report raises BrokenPipeError
        read_end, write_end = os.pipe()
        os.close(read_end)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E1_CONFIG))
        err = io.StringIO()
        with open(write_end, "w") as closed, contextlib.redirect_stdout(closed), \
                contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfg_path)])
        assert code == cli.EXIT_HYPOTHESIS_FAILED
        assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()

    def test_witness_longer_than_64_symbols(self, tmp_path):
        # one generator passes any budget at k = 100; numpy arrays stop at 64 axes
        code, err = run_main(tmp_path, {"system": E1_CONFIG["system"], "command": "qm",
                                        "options": {"k": 100, "n_max": 2}})
        assert code == cli.EXIT_OK, err

    def test_overlong_integer_exit_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E2_CONFIG).replace('"k_max": 4', '"k_max": 1' + "0" * 5000))
        assert cli.main(["--config", str(cfg_path)]) == cli.EXIT_INPUT_ERROR
