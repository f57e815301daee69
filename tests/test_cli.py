import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

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
# five 3x3 generators spannable at k = 1; the sphere minimizer needs about 7e5 evaluations
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

    def test_affinity_dim_meta_reports_root_search_counts(self):
        cfg = cfg_from(dict(E3_CONFIG, command="affinity-dim", options={"n": 8, "k_qm": 1}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        counts = json.loads(json.dumps(report["meta"]["root_search"]))
        assert set(counts) == {"upper", "lower"}
        for end in counts.values():
            assert set(end) == {"passes", "steps", "bisection_fallbacks"}
            assert end["steps"] > 0
        assert counts["upper"]["passes"] == counts["upper"]["steps"] + 2
        assert "root_search" not in cli.report_canonical_json(report)

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
        calls = []
        extend = kernels._extend_level
        monkeypatch.setattr(kernels, "_extend_level",
                            lambda *args: calls.append(1) or extend(*args))
        cfg = cfg_from(dict(E3_CONFIG, command="mixing",
                            options={"s": 1.0, "L": 6, "gap": 6, "connector_k": 1}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK and report["result"]["kappa_certificate"]["certified"]
        # psi, kappa and the level weights read one sweep of 2L + gap = 18 levels;
        # gamma and the connector determinant each build Lambda(1)
        assert len(calls) == 18 + 2

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
        rows = Path(report["result"]["path"]).read_text().strip().splitlines()
        assert rows[0] == "x,y,word"
        xs = sorted(float(r.split(",")[0]) for r in rows[1:])
        assert np.allclose(xs, [0.0, 0.24, 0.6, 0.84])

    def test_depth_zero_origin(self, tmp_path):
        cfg = cfg_from(dict(E4_CONFIG, options={"depth": 0}))
        cfg.csv_dir = str(tmp_path)
        report, _ = cli.run_command(cfg)
        rows = Path(report["result"]["path"]).read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("0.0,0.0,")

    def test_x_range_inside_unit_interval(self, tmp_path):
        for depth in (1, 3, 6):
            cfg = cfg_from(dict(E4_CONFIG, options={"depth": depth}))
            cfg.csv_dir = str(tmp_path)
            report, _ = cli.run_command(cfg)
            rows = Path(report["result"]["path"]).read_text().strip().splitlines()[1:]
            xs = [float(r.split(",")[0]) for r in rows]
            assert min(xs) >= -1e-12 and max(xs) <= 1.0 + 1e-12

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
        assert flags == {"seed", "budget", "k_max", "k", "k_qm", "n", "n_max", "s", "L",
                         "gap", "depth", "beta", "mode"}

    def test_one_type_per_name(self):
        for table in cli.OPTIONS.values():
            for name, opt in table.items():
                assert opt.type == cli._KNOWN[name].type
                assert (opt.default is None) == (cli._KNOWN[name].default is None)

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
        ("s0", {"targets": {"all_ones": 3000}}, "target word 537 (length 537)"),
        ("check-hypotheses", {"seed": -1}, "seed must be >= 0"),
        # checked before the sweep: the psi statistic would overflow at this s
        ("mixing", {"s": 1.92901336644459e+171, "L": 2, "gap": 2}, "s must lie in [0, 2]"),
        ("export-attractor", {"csv_name": ""}, "cannot write the attractor CSV"),
    ])
    def test_bad_input_exit_3(self, tmp_path, command, options, message):
        system = E4_CONFIG["system"] if command == "export-attractor" else E3_SYSTEM
        code, err = run_main(tmp_path, {"system": system, "command": command,
                                        "options": options})
        assert code == cli.EXIT_INPUT_ERROR, err
        assert message in err

    def test_witness_longer_than_64_symbols(self, tmp_path):
        # one generator passes any budget at k = 100; numpy arrays stop at 64 axes
        code, err = run_main(tmp_path, {"system": E1_CONFIG["system"], "command": "qm",
                                        "options": {"k": 100, "n_max": 2}})
        assert code == cli.EXIT_OK, err

    def test_overlong_integer_exit_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E2_CONFIG).replace('"k_max": 4', '"k_max": 1' + "0" * 5000))
        assert cli.main(["--config", str(cfg_path)]) == cli.EXIT_INPUT_ERROR
