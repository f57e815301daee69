import json
from pathlib import Path

import numpy as np
import pytest

import cocyclespan.cli as cli
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

    def test_e1_spannability_reports_diagnosis(self):
        cfg = cfg_from(dict(E1_CONFIG, command="spannability", options={"k_max": 6}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_OK
        assert report["result"]["found"] is None
        assert report["result"]["diagnosis"]["case"] == "PeriodicSubspaces"
        assert report["result"]["diagnosis"]["period"] == 2

    def test_mixing_no_certificate_exit_2(self):
        cfg = cfg_from(dict(E1_CONFIG, command="mixing",
                            options={"s": 1.0, "L": 2, "gap": 2}))
        report, code = cli.run_command(cfg)
        assert code == cli.EXIT_INCONCLUSIVE

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

    def test_usage_error_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(E1_CONFIG))
        assert cli.main(["--config", str(cfg_path), "--bogus", "1"]) == cli.EXIT_INPUT_ERROR
        assert cli.main(["--config", str(cfg_path), "--threads", "2"]) == cli.EXIT_INPUT_ERROR
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [("n", "abc"), ("seed", "x")])
    def test_bad_option_type_exit_3(self, tmp_path, capsys, key, value):
        cfg = dict(E3_CONFIG, options=dict(E3_CONFIG["options"], **{key: value}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(cfg_path)]) == cli.EXIT_INPUT_ERROR
        assert f"options.{key}" in capsys.readouterr().err
