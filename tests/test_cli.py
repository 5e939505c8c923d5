import csv
import json
import math

import pytest

from rfuowc.cli import main
from rfuowc.config import ConfigError, db_to_linear, dbm_to_watts, \
    load_sweep_spec, parse_config
from rfuowc.plotting import PlotError, render_svg

BASE_CFG = """
label = "demo"
mode = "direct"
axis = "n_relays"
values = "1:3"
methods = "quadrature,monte_carlo"
gamma_th = 10
preset = "salty/4.7"
pointing.a0 = 0.5076
pointing.xi = 0.6079
direct.mu1 = 100
direct.uowc_scale = 100
mc.samples = 50000
mc.seed = 123
"""


def write_cfg(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_basic_types(self):
        cfg = parse_config('a = 1\nb = 2.5\nc = "text"\nd = true\n# comment\n')
        assert cfg == {"a": 1, "b": 2.5, "c": "text", "d": True}

    def test_unit_suffixes(self):
        cfg = parse_config("x_db = 20\np_dbm = -90\n")
        assert cfg["x"] == pytest.approx(db_to_linear(20.0))
        assert cfg["p"] == pytest.approx(dbm_to_watts(-90.0))
        assert cfg["p"] == pytest.approx(1e-12)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2\n")
        with pytest.raises(ConfigError):
            parse_config('k_db = "loud"\n')

    def test_values_forms(self):
        spec = load_sweep_spec(parse_config(BASE_CFG))
        assert spec.values == [1.0, 2.0, 3.0]
        cfg = parse_config(BASE_CFG.replace('values = "1:3"', 'values = "1,5,9"'))
        assert load_sweep_spec(cfg).values == [1.0, 5.0, 9.0]

    def test_decreasing_values_rejected(self):
        cfg = parse_config(BASE_CFG.replace('values = "1:3"', 'values = "3,1"'))
        with pytest.raises(ConfigError):
            load_sweep_spec(cfg)

    def test_unknown_axis_and_method(self):
        with pytest.raises(ConfigError):
            load_sweep_spec(parse_config(BASE_CFG.replace(
                'axis = "n_relays"', 'axis = "altitude"')))
        with pytest.raises(ConfigError):
            load_sweep_spec(parse_config(BASE_CFG.replace(
                'methods = "quadrature,monte_carlo"', 'methods = "magic"')))

    def test_corrupted_turbulence_params(self):
        text = BASE_CFG.replace('preset = "salty/4.7"', "\n".join([
            "egg.w = 1.5", "egg.lam = 0.4", "egg.a = 0.5", "egg.b = 1.2",
            "egg.c = 35.7"]))
        with pytest.raises(ConfigError):
            load_sweep_spec(parse_config(text))


class TestSweepCommand:
    def test_runs_and_writes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["sweep", cfg, "--out", out]) == 0
        rows = read_rows(out)
        # one row per axis value x method, axis-major then method order
        assert [(r["axis_value"], r["method"]) for r in rows] == [
            ("1.0", "quadrature"), ("1.0", "monte_carlo"),
            ("2.0", "quadrature"), ("2.0", "monte_carlo"),
            ("3.0", "quadrature"), ("3.0", "monte_carlo"),
        ]
        for r in rows:
            p = float(r["p_out"])
            assert 0.0 <= p <= 1.0
            assert r["scenario"] == "demo"
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["seed"] == 123
        assert len(manifest["points"]) == len(rows)
        assert len(manifest["config_sha256"]) == 64
        # every point says whether its value was clamped into [0, 1]
        assert [p["clamped"] for p in manifest["points"]] == [False] * len(rows)

    def test_manifest_reports_clamped_values(self, tmp_path, monkeypatch):
        import rfuowc.cli as cli
        from rfuowc.system import OutageResult

        monkeypatch.setattr(cli, "outage_quadrature", lambda cfg, q: OutageResult(
            value=1.0, method="quadrature", err_est=0.0, c_used=35.0, clamped=True))
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["sweep", cfg, "--out", out]) == 0
        points = json.load(open(out + ".manifest.json"))["points"]
        assert [(p["method"], p["clamped"]) for p in points] == [
            ("quadrature", True), ("monte_carlo", False)] * 3
        with open(out) as fh:
            assert fh.readline().strip() == ",".join(cli.CSV_HEADER)

    def test_round_trip_precision(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["sweep", cfg, "--out", out]) == 0
        rows = read_rows(out)
        for r in rows:
            assert repr(float(r["p_out"])) == r["p_out"]
            assert repr(float(r["axis_value"])) == r["axis_value"]

    def test_reproducible_modulo_timing(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["sweep", cfg, "--out", out1]) == 0
        assert main(["sweep", cfg, "--out", out2]) == 0

        def strip_timing(path):
            rows = read_rows(path)
            return [{k: v for k, v in r.items() if k != "elapsed_ms"}
                    for r in rows]

        assert strip_timing(out1) == strip_timing(out2)

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out1 = str(tmp_path / "serial.csv")
        out2 = str(tmp_path / "parallel.csv")
        assert main(["sweep", cfg, "--out", out1]) == 0
        assert main(["sweep", cfg, "--out", out2, "--jobs", "2"]) == 0
        pick = lambda p: [(r["axis_value"], r["method"], r["p_out"])
                          for r in read_rows(p)]
        assert pick(out1) == pick(out2)

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg_text = BASE_CFG.replace("mc.seed = 123\n", "")
        cfg = write_cfg(tmp_path, cfg_text)
        out = str(tmp_path / "env.csv")
        monkeypatch.setenv("RFUOWC_SEED", "777")
        assert main(["sweep", cfg, "--out", out]) == 0
        assert json.load(open(out + ".manifest.json"))["seed"] == 777
        assert main(["sweep", cfg, "--out", out, "--seed", "42"]) == 0
        assert json.load(open(out + ".manifest.json"))["seed"] == 42

    def test_method_override_and_capability_nan(self, tmp_path):
        text = BASE_CFG.replace('preset = "salty/4.7"', 'preset = "fresh/16.5"')
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "cap.csv")
        assert main(["sweep", cfg, "--out", out, "--methods", "closed_form",
                     "--mc-samples", "1000"]) == 0
        rows = read_rows(out)
        assert all(r["method"] == "closed_form" for r in rows)
        assert all(math.isnan(float(r["p_out"])) for r in rows)

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace('axis = "n_relays"',
                                                   'axis = "altitude"'))
        assert main(["sweep", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep", str(tmp_path / "missing.cfg")]) == 2

    def test_corrupted_preset_exit_code(self, tmp_path):
        text = BASE_CFG.replace('preset = "salty/4.7"', "\n".join([
            "egg.w = 1.5", "egg.lam = 0.4", "egg.a = 0.5", "egg.b = 1.2",
            "egg.c = 35.7"]))
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", cfg, "--out", str(tmp_path / "x.csv")]) == 2


class TestPlotCommand:
    def test_two_row_csv_single_polyline(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text(
            "axis,axis_value,method,p_out,err_est,c_used,elapsed_ms,scenario\n"
            "gamma_th,1.0,quadrature,0.01,1e-9,35.0,1.0,s\n"
            "gamma_th,10.0,quadrature,0.1,1e-9,35.0,1.0,s\n")
        svg = render_svg(str(path))
        assert svg.count("<polyline") == 1

    def test_curve_count_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        out = str(tmp_path / "multi.csv")
        assert main(["sweep", cfg, "--out", out]) == 0
        svg1 = str(tmp_path / "a.svg")
        svg2 = str(tmp_path / "b.svg")
        assert main(["plot", out, svg1]) == 0
        assert main(["plot", out, svg2]) == 0
        b1 = open(svg1, "rb").read()
        assert b1 == open(svg2, "rb").read()
        # one curve per (scenario, method) group
        assert b1.decode().count("<polyline") == 2

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nothing,to,see\n1,2,3\n")
        assert main(["plot", str(bad), str(tmp_path / "x.svg")]) == 2
        with pytest.raises(PlotError):
            render_svg(str(bad))


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 6
        assert "salty/16.5" in out and "c=216.8356" in out
