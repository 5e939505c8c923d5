import csv
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import xml.dom.minidom

import pytest

import rfuowc.cli as cli
from rfuowc.channels import PointingParams, RfLinkParams, UowcLinkParams, \
    get_preset
from rfuowc.cli import main
from rfuowc.config import AXIS_MODE, KEYS, MODE_KEYS, ConfigError, db_to_linear, \
    dbm_to_watts, load_sweep_spec, parse_config
from rfuowc.mc import McConfig
from rfuowc.plotting import PlotError, render_svg
from rfuowc.system import OutageResult, SystemConfig

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

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

# salty/4.7's turbulence with its exponent c rounded to the integer 35
EGG_C35 = ["egg.w = 0.2064", "egg.lam = 0.3953", "egg.a = 0.5307", "egg.b = 1.2154",
           "egg.c = 35"]


def write_cfg(tmp_path, text, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_rows(tmp_path, text, *extra):
    """The rows `rfuowc sweep` writes to tmp_path/x.csv for config `text`."""
    assert sweep_exit(tmp_path, text, *extra) == 0
    return read_rows(tmp_path / "x.csv")


def legend_texts(svg_path):
    """The legend entries of a rendered SVG, which must be well-formed XML."""
    texts = xml.dom.minidom.parse(str(svg_path)).getElementsByTagName("text")
    return [t.firstChild.data for t in texts if t.getAttribute("font-size") == "11"]


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

    def test_hash_inside_quotes_is_part_of_the_value(self):
        cfg = parse_config('label = "fig #2"  # the comment\nmethods = "quadrature"#x\n')
        assert cfg == {"label": "fig #2", "methods": "quadrature"}

    @pytest.mark.parametrize("line", ['label = "fig #2', 'label = fig"2  # x'])
    def test_unclosed_quote_is_a_config_error(self, tmp_path, capsys, line):
        with pytest.raises(ConfigError, match="unclosed quote"):
            parse_config(line + "\n")
        assert sweep_exit(tmp_path, BASE_CFG + line + "\n") == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_values_forms(self):
        spec = load_sweep_spec(parse_config(BASE_CFG))
        assert spec.values == [1.0, 2.0, 3.0]
        cfg = parse_config(BASE_CFG.replace('values = "1:3"', 'values = "1,5,9"'))
        assert load_sweep_spec(cfg).values == [1.0, 5.0, 9.0]

    def test_mc_chunk_defaults_to_the_sampler_default(self):
        assert load_sweep_spec(parse_config(BASE_CFG)).mc.chunk_size == McConfig.chunk_size
        cfg = parse_config(BASE_CFG + "mc.chunk = 4096\n")
        assert load_sweep_spec(cfg).mc.chunk_size == 4096

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
        rows = sweep_rows(tmp_path, BASE_CFG)
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
        manifest = json.load(open(tmp_path / "x.csv.manifest.json"))
        assert manifest["seed"] == 123
        assert len(manifest["points"]) == len(rows)
        assert len(manifest["config_sha256"]) == 64
        # every point says whether its value was clamped into [0, 1]
        assert [p["clamped"] for p in manifest["points"]] == [False] * len(rows)

    def test_manifest_reports_clamped_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr("rfuowc.system.outage_quadrature", lambda cfg, q: OutageResult(
            value=1.0, method="quadrature", err_est=0.0, c_used=35.0, clamped=True))
        sweep_rows(tmp_path, BASE_CFG)
        points = json.load(open(tmp_path / "x.csv.manifest.json"))["points"]
        assert [(p["method"], p["clamped"]) for p in points] == [
            ("quadrature", True), ("monte_carlo", False)] * 3
        with open(tmp_path / "x.csv") as fh:
            assert fh.readline().strip() == ",".join(cli.CSV_HEADER)

    def test_round_trip_precision(self, tmp_path):
        for r in sweep_rows(tmp_path, BASE_CFG):
            assert repr(float(r["p_out"])) == r["p_out"]
            assert repr(float(r["axis_value"])) == r["axis_value"]

    def test_reproducible_modulo_timing(self, tmp_path):
        # the three methods run twice at one seed: the rows are equal with
        # elapsed_ms stripped, and so are the manifests' error entries
        runs = []
        for _ in range(2):
            rows = sweep_rows(tmp_path, BASE_CFG, "--methods",
                              "closed_form,quadrature,monte_carlo")
            points = json.load(open(tmp_path / "x.csv.manifest.json"))["points"]
            runs.append(([{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows],
                         [p["error"] for p in points]))
        assert runs[0] == runs[1]

    def test_monte_carlo_rows_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch):
        # the chunks run on one thread per core the process may use, and each
        # chunk draws from the stream of its own index: one core and four
        # give the same rows
        text = "\n".join(['axis = "n_relays"', 'values = "1:4"', 'methods = "monte_carlo"',
                          'preset = "salty/4.7"', 'pointing.a0 = 0.5076', 'pointing.xi = 0.6079',
                          'mc.samples = 100000', 'mc.chunk = 16384'])
        rows, asked = [], []
        for cores in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", raising=False,
                                value=lambda pid, n=cores: asked.append(n) or set(range(n)))
            rows.append([{k: v for k, v in r.items() if k != "elapsed_ms"}
                         for r in sweep_rows(tmp_path, text, "--seed", "11")])
        assert sorted(set(asked)) == [1, 4]
        assert len(rows[0]) == 4
        assert rows[0] == rows[1]

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg_text = BASE_CFG.replace("mc.seed = 123\n", "")
        monkeypatch.setenv("RFUOWC_SEED", "777")
        for args, seed in (((), 777), (("--seed", "42"), 42)):
            assert sweep_exit(tmp_path, cfg_text, *args) == 0
            assert json.load(open(tmp_path / "x.csv.manifest.json"))["seed"] == seed

    def test_method_override_and_capability_nan(self, tmp_path):
        text = BASE_CFG.replace('preset = "salty/4.7"', 'preset = "fresh/16.5"')
        rows = sweep_rows(tmp_path, text, "--methods", "closed_form", "--mc-samples", "1000")
        assert all(r["method"] == "closed_form" for r in rows)
        assert all(math.isnan(float(r["p_out"])) for r in rows)

    def test_closed_form_outside_the_clamp_window_is_a_nan_row(self, tmp_path):
        # N = 60..64 at gamma_th = 1e-9: the closed form's relay sum cancels
        # to values outside [0, 1], which it refuses as beyond its capability
        text = BASE_CFG.replace('values = "1:3"', 'values = "60:64"') \
            .replace("gamma_th = 10", "gamma_th = 1e-9")
        rows = sweep_rows(tmp_path, text, "--methods", "closed_form")
        assert [r["axis_value"] for r in rows] == ["60.0", "61.0", "62.0", "63.0", "64.0"]
        assert all(math.isnan(float(r["p_out"])) for r in rows)

    @pytest.mark.parametrize("lines, extra, n_rows, check", [
        # strong jitter (xi = 0.3): the optical SNR's left tail falls like x^0.09
        pytest.param(['axis = "gamma_th"', 'values = "1e-9,1e-3,1,10"',
                      'methods = "quadrature,monte_carlo"', 'preset = "salty/4.7"',
                      'pointing.a0 = 0.5076', 'pointing.xi = 0.3'],
                     ["--mc-samples", "20000"], 4 * 2, None, id="jitter"),
        # small thresholds: the outage is the optical CDF's left tail, which
        # quadrature integrates and bounds itself
        pytest.param(['axis = "gamma_th"', 'values = "1e-12,1e-9,1e-6,1e-3"',
                      'methods = "quadrature"', 'preset = "salty/4.7"',
                      'pointing.a0 = 0.8', 'pointing.xi = 2'], [], 4, "rising", id="tail"),
        # at gamma_th = 1000 the closed form's c = 35 factor is past its
        # residue series and comes from the real-line integral; an integer c
        # makes the closed form and quadrature solve one system
        pytest.param(['axis = "gamma_th"', 'values = "100,316.2,1000"',
                      'methods = "closed_form,quadrature"', *EGG_C35,
                      'pointing.a0 = 0.5076', 'pointing.xi = 0.6079'], [], 3 * 2, "agree",
                     id="realline"),
        # the same system at gamma_th = 1000 for N = 1..8: every relay factor
        # takes the real-line form, so each branch's batch holds N integrals
        pytest.param(['axis = "n_relays"', 'values = "1:8"', 'gamma_th = 1000',
                      'methods = "closed_form,quadrature"', *EGG_C35,
                      'pointing.a0 = 0.5076', 'pointing.xi = 0.6079'], [], 8 * 2, "agree",
                     id="batches"),
    ])
    def test_hard_corners_answer_every_cell(self, tmp_path, lines, extra, n_rows, check):
        rows = sweep_rows(tmp_path, "\n".join(lines) + "\n", *extra)
        points = json.load(open(tmp_path / "x.csv.manifest.json"))["points"]
        assert len(rows) == n_rows
        # a cell that raised is still a row, a NaN one; its manifest names the error
        assert [p["error"] for p in points] == [None] * n_rows
        # (p_out, err_est) by axis value, then method
        p = {}
        for r in rows:
            p.setdefault(r["axis_value"], {})[r["method"]] = (float(r["p_out"]),
                                                              float(r["err_est"]))
        if check == "rising":
            q = [v["quadrature"][0] for v in p.values()]
            assert all(v > 0.0 for v in q) and q == sorted(q), q
        if check == "agree":
            assert len(p) == n_rows // 2
            for value, v in p.items():
                (cf, cf_err), (q, q_err) = v["closed_form"], v["quadrature"]
                assert abs(cf - q) <= 1e-6 * q, (value, v)
                # near p = 1 a 1e-6 relative gap hides a factor 1e-5 off; the
                # two methods' err_est bound the gap
                assert abs(cf - q) <= cf_err + q_err, (value, v)

    def test_a_cell_that_raises_a_numerical_error_is_a_nan_row(self, tmp_path, monkeypatch,
                                                               capsys):
        # salty/7.1 at gamma_th = 1000: the series refuses the first relay
        # term's folded factor, whose real-line form then raises; quadrature
        # raises too, and Monte Carlo answers
        import rfuowc.specfun as sf
        from rfuowc.quadrature import QuadratureError

        def no_window(a, xi2, c, ln_z):
            raise sf.NonConvergenceError("folded factor: no window bounds its tails")

        def no_quadrature(cfg, q):
            raise QuadratureError("quadrature produced 2.0, outside the clamp window")

        monkeypatch.setattr(sf, "_gg_factor_integral", no_window)
        monkeypatch.setattr("rfuowc.system.outage_quadrature", no_quadrature)
        text = BASE_CFG.replace('preset = "salty/4.7"', 'preset = "salty/7.1"') \
            .replace("gamma_th = 10", "gamma_th = 1000")
        rows = sweep_rows(tmp_path, text, "--methods", "closed_form,quadrature,monte_carlo",
                          "--mc-samples", "1000")
        assert len(rows) == 9
        points = json.load(open(tmp_path / "x.csv.manifest.json"))["points"]
        for row, point in zip(rows, points):
            if row["method"] == "monte_carlo":
                assert 0.0 <= float(row["p_out"]) <= 1.0
                assert point["error"] is None
                continue
            assert math.isnan(float(row["p_out"])) and math.isnan(float(row["err_est"]))
            kind, text = {"closed_form": ("NonConvergenceError", "no window"),
                          "quadrature": ("QuadratureError", "outside the clamp")}[row["method"]]
            assert point["error"]["type"] == kind
            assert text in point["error"]["message"]
        assert "6 of 9 cells raised a numerical error" in capsys.readouterr().err

    def test_each_point_is_built_once(self, tmp_path, monkeypatch):
        built = []
        from_direct_snr = SystemConfig.from_direct_snr

        def counting(**kwargs):
            built.append(kwargs["n_relays"])
            return from_direct_snr(**kwargs)

        monkeypatch.setattr(SystemConfig, "from_direct_snr", counting)
        assert len(sweep_rows(tmp_path, BASE_CFG, "--mc-samples", "1000", "--methods",
                              "closed_form,quadrature,monte_carlo")) == 9
        assert built == [1, 2, 3]

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            sweep_exit(tmp_path, BASE_CFG, "--jobs", "2")
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_manifest_has_no_jobs_key(self, tmp_path):
        assert sweep_exit(tmp_path, BASE_CFG, "--mc-samples", "1000") == 0
        manifest = json.load(open(tmp_path / "x.csv.manifest.json"))
        assert sorted(manifest) == ["config_sha256", "points", "seed", "timestamp",
                                    "tool_version"]

    def test_config_error_exit_code(self, tmp_path):
        assert sweep_exit(tmp_path, BASE_CFG.replace('"n_relays"', '"altitude"')) == 2
        assert main(["sweep", str(tmp_path / "missing.cfg")]) == 2

    def test_corrupted_preset_exit_code(self, tmp_path):
        text = BASE_CFG.replace('preset = "salty/4.7"', "\n".join([
            "egg.w = 1.5", "egg.lam = 0.4", "egg.a = 0.5", "egg.b = 1.2",
            "egg.c = 35.7"]))
        assert sweep_exit(tmp_path, text) == 2


PHYSICAL_CFG = """
label = "phys"
mode = "physical"
axis = "radius"
values = "25,100"
methods = "quadrature"
gamma_th_db = 23
preset = "salty/16.5"
pointing.a0 = 0.5076
pointing.xi = 0.6079
rf.p1 = 0.1
rf.noise_dbm = -90
rf.g0_db = -30
rf.height = 50
rf.n_relays = 3
uowc.eta = 0.8
uowc.p2 = 0.1
uowc.n0 = 1e-21
uowc.pr = 0.1
"""

WEAK = PointingParams(a0=0.5076, xi=0.6079)


def swept_systems(text, monkeypatch):
    """(SystemConfig, gamma_th) that a quadrature sweep of `text` evaluates."""
    seen = []

    def fake_quadrature(cfg, q):
        seen.append((cfg, q.gamma_th))
        return OutageResult(value=0.5, method="quadrature", err_est=0.0,
                            c_used=cfg.egg.c)

    monkeypatch.setattr("rfuowc.system.outage_quadrature", fake_quadrature)
    cli.run_sweep(load_sweep_spec({**parse_config(text), "methods": "quadrature"}))
    return seen


def sweep_exit(tmp_path, text, *extra):
    cfg = write_cfg(tmp_path, text)
    return main(["sweep", cfg, "--out", str(tmp_path / "x.csv"), *extra])


class TestSweepPoints:
    """Each axis value reaches the outage methods as the right SystemConfig."""

    def physical(self, radius, height):
        rf = RfLinkParams(p1=0.1, sigma1_sq=dbm_to_watts(-90.0),
                          g0=db_to_linear(-30.0), radius_r=radius,
                          height_l=height, n_relays=3)
        uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
        return SystemConfig.from_link(rf, uowc, get_preset("salty/16.5").egg, WEAK)

    def test_physical_radius_sweep(self, monkeypatch):
        seen = swept_systems(PHYSICAL_CFG, monkeypatch)
        # mu1 = P1 g0 / ((R^2 + L^2) sigma1^2) carries the geometry
        assert [s.mu1 for s, _ in seen] == pytest.approx(
            [0.1 * 1e-3 / ((r * r + 2500.0) * 1e-12) for r in (25.0, 100.0)],
            rel=1e-12)
        assert [s for s, _ in seen] == [self.physical(25.0, 50.0),
                                        self.physical(100.0, 50.0)]
        assert [g for _, g in seen] == [db_to_linear(23.0)] * 2

    def test_physical_height_sweep(self, monkeypatch):
        text = PHYSICAL_CFG.replace('axis = "radius"', 'axis = "height"') \
            .replace("rf.height = 50\n", "rf.radius = 75\n")
        seen = swept_systems(text, monkeypatch)
        assert [s.mu1 for s, _ in seen] == pytest.approx(
            [0.1 * 1e-3 / ((5625.0 + h * h) * 1e-12) for h in (25.0, 100.0)],
            rel=1e-12)
        assert [s for s, _ in seen] == [self.physical(75.0, 25.0),
                                        self.physical(75.0, 100.0)]

    def test_physical_gain_convention(self, monkeypatch):
        seen = swept_systems(PHYSICAL_CFG + 'gain_convention = "literal"\n',
                             monkeypatch)
        rf = RfLinkParams(p1=0.1, sigma1_sq=dbm_to_watts(-90.0),
                          g0=db_to_linear(-30.0), radius_r=25.0, height_l=50.0,
                          n_relays=3)
        uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
        assert seen[0][0] == SystemConfig.from_link(
            rf, uowc, get_preset("salty/16.5").egg, WEAK, gain_convention="literal")
        assert seen[0][0].rho != self.physical(25.0, 50.0).rho

    def test_avg_snr_sweep_tracks_the_optical_scale(self, monkeypatch):
        text = BASE_CFG.replace('axis = "n_relays"', 'axis = "avg_snr"') \
            .replace('values = "1:3"', 'values = "10,1000"') \
            .replace("direct.mu1 = 100\n", "rf.n_relays = 2\n") \
            .replace("direct.uowc_scale = 100", 'direct.uowc_scale = "track"')
        seen = swept_systems(text, monkeypatch)
        egg = get_preset("salty/4.7").egg
        for (system, gth), v in zip(seen, (10.0, 1000.0)):
            want = SystemConfig.from_direct_snr(
                mu1=v, n_relays=2, egg=egg, pointing=WEAK, uowc_scale=v)
            assert system == want
            assert gth == 10.0

    def test_gamma_th_sweep_sets_the_threshold(self, monkeypatch):
        text = BASE_CFG.replace('axis = "n_relays"', 'axis = "gamma_th"') \
            .replace('values = "1:3"', 'values = "0.5,20"')
        seen = swept_systems(text, monkeypatch)
        assert [g for _, g in seen] == [0.5, 20.0]
        assert seen[0][0] == seen[1][0]

    def test_default_preset(self, monkeypatch):
        text = BASE_CFG.replace('preset = "salty/4.7"\n', "")
        seen = swept_systems(text, monkeypatch)
        assert all(s.egg == get_preset("salty/4.7").egg for s, _ in seen)

    @pytest.mark.parametrize("text", [
        BASE_CFG.replace('axis = "n_relays"', 'axis = "radius"')
        .replace('values = "1:3"', 'values = "10,20"'),
        PHYSICAL_CFG.replace('axis = "radius"', 'axis = "avg_snr"'),
        BASE_CFG + "direct.mu2 = 5\n",
    ], ids=["radius-in-direct", "avg_snr-in-physical", "scale-and-mu2"])
    def test_inconsistent_sweeps_exit_2(self, tmp_path, text):
        assert sweep_exit(tmp_path, text) == 2

    @pytest.mark.parametrize("text", [
        BASE_CFG.replace('preset = "salty/4.7"', 'preset = "brackish/3"'),
        BASE_CFG.replace('preset = "salty/4.7"', "egg.w = 0.2\negg.lam = 0.4\n"),
    ], ids=["unknown-preset", "incomplete-egg"])
    def test_bad_turbulence_spec(self, tmp_path, text):
        with pytest.raises(ConfigError):
            load_sweep_spec(parse_config(text))
        assert sweep_exit(tmp_path, text) == 2


class TestBadSweepInputs:
    """Bad values fail as config errors (exit 2) before any outage is computed."""

    @pytest.mark.parametrize("values", ["0,1", "-2,1"])
    def test_nonpositive_gamma_th_axis_value(self, tmp_path, capsys, values):
        text = BASE_CFG.replace('axis = "n_relays"', 'axis = "gamma_th"') \
            .replace('values = "1:3"', f'values = "{values}"')
        with pytest.raises(ConfigError, match="gamma_th"):
            load_sweep_spec(parse_config(text))
        assert sweep_exit(tmp_path, text) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_mc_samples_option(self, tmp_path, capsys, n):
        assert sweep_exit(tmp_path, BASE_CFG, "--mc-samples", n) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("text", [
        BASE_CFG.replace('values = "1:3"', 'values = "1,2.5"'),
        BASE_CFG.replace('values = "1:3"', 'values = "1,65"'),
        BASE_CFG + "mc.chunk = 0\n",
        BASE_CFG.replace("direct.mu1 = 100", "direct.mu1 = nan"),
        BASE_CFG.replace("direct.uowc_scale = 100", "direct.uowc_scale = inf"),
        # xi^2 underflows to 0, so the mean irradiance is 0
        BASE_CFG.replace("pointing.xi = 0.6079", "pointing.xi = 1e-200"),
        BASE_CFG.replace("pointing.xi = 0.6079", "pointing.xi = 1e-200")
        .replace("direct.uowc_scale = 100", "direct.mu2 = 100"),
        # the squared mean irradiance overflows
        BASE_CFG.replace('preset = "salty/4.7"', "\n".join([
            "egg.w = 0.2", "egg.lam = 0.4", "egg.a = 0.5", "egg.b = 1e300",
            "egg.c = 3"])),
    ], ids=["fractional-relays", "too-many-relays", "zero-chunk", "nan-mu1",
            "infinite-scale", "tiny-xi", "tiny-xi-mu2", "huge-egg-scale"])
    def test_bad_numbers_in_config(self, tmp_path, capsys, text):
        assert sweep_exit(tmp_path, text) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("key", ["pointing.xi2", "direct.mu"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        text = BASE_CFG + f"{key} = 0.5\n"
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_sweep_spec(parse_config(text))
        assert sweep_exit(tmp_path, text) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        (BASE_CFG + "rf.p1 = 0.5\n", "rf.p1"),
        (BASE_CFG + "rf.noise_dbm = -90\n", "rf.noise"),
        (BASE_CFG + "rf.radius = 50\n", "rf.radius"),
        (BASE_CFG + "uowc.bandwidth = 2\n", "uowc.bandwidth"),
        (BASE_CFG + 'gain_convention = "literal"\n', "gain_convention"),
        (PHYSICAL_CFG + "direct.mu1 = 100\n", "direct.mu1"),
        (PHYSICAL_CFG + 'direct.uowc_scale = "track"\n', "direct.uowc_scale"),
        (PHYSICAL_CFG + "direct.mu2 = 5\n", "direct.mu2"),
    ], ids=lambda v: v if "\n" not in v else None)
    def test_key_of_the_other_mode_rejected(self, tmp_path, capsys, text, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_sweep_spec(parse_config(text))
        assert sweep_exit(tmp_path, text) == 2
        assert key in capsys.readouterr().err

    def test_default_mode_reads_no_physical_key(self):
        text = BASE_CFG.replace('mode = "direct"\n', "")
        with pytest.raises(ConfigError, match="uowc.pr"):
            load_sweep_spec(parse_config(text + "uowc.pr = 1\n"))

    def test_mc_keys_accepted_without_monte_carlo(self):
        # mc.* are read only by Monte Carlo, but are not tied to a mode
        spec = load_sweep_spec(parse_config(PHYSICAL_CFG + "mc.seed = 5\n"
                                            "mc.samples = 10\n"))
        assert (spec.mc.seed, spec.mc.n_samples) == (5, 10)

    def test_mode_keys_are_config_keys(self):
        mode_keys = [k for keys in MODE_KEYS.values() for k in keys]
        assert len(set(mode_keys)) == len(mode_keys)
        assert set(mode_keys) <= set(KEYS)
        assert AXIS_MODE == {"avg_snr": "direct", "radius": "physical",
                             "height": "physical"}

    @pytest.mark.parametrize("args, text, env", [
        (["--seed", "-1"], BASE_CFG, None),
        (["--seed", str(2 ** 64)], BASE_CFG, None),
        ([], BASE_CFG.replace("mc.seed = 123", "mc.seed = -1"), None),
        ([], BASE_CFG.replace("mc.seed = 123\n", ""), "-1"),
        ([], BASE_CFG.replace("mc.seed = 123\n", ""), str(2 ** 64)),
    ], ids=["cli-negative", "cli-65-bit", "config-negative", "env-negative",
            "env-65-bit"])
    def test_seed_out_of_range(self, tmp_path, capsys, monkeypatch, args, text, env):
        if env is not None:
            monkeypatch.setenv("RFUOWC_SEED", env)
        assert sweep_exit(tmp_path, text, *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "64 bits" in err

    def test_largest_seed_accepted(self, tmp_path):
        assert sweep_exit(tmp_path, BASE_CFG.replace('values = "1:3"', 'values = "1"'),
                          "--seed", str(2 ** 64 - 1), "--mc-samples", "100") == 0


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = (SCRIPTS.parent / "README.md").read_text().splitlines()
    start = readme.index("| key | default | meaning |")
    rows = itertools.takewhile(lambda line: line.startswith("|"), readme[start + 2:])
    documented = [key for row in rows
                  for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(set(documented)) == len(documented)
    assert set(documented) == set(KEYS)


@pytest.mark.parametrize("script, args, n_rows", [
    ("fig2_relays", ["--mc-samples", "2000"], 256),
    ("fig3_avg_snr", [], 66),
    ("fig4_radius", [], 32),
])
def test_figure_script_runs(tmp_path, script, args, n_rows):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), "--out-dir", str(tmp_path),
         *args], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert len(read_rows(tmp_path / f"{script}.csv")) == n_rows
    assert "<polyline" in (tmp_path / f"{script}.svg").read_text()
    xml.dom.minidom.parse(str(tmp_path / f"{script}.svg"))


def test_console_script_entry_is_cli_main():
    # read as text: tomllib is not in Python 3.10's standard library
    text = (SCRIPTS.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'rfuowc = "rfuowc.cli:main"' in scripts.splitlines()
    assert callable(cli.main)


class TestValidateCommand:
    def test_bad_seed_environment_is_a_config_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_level", lambda level, seed: iter(()))
        monkeypatch.setenv("RFUOWC_SEED", "abc")
        assert main(["validate"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("args, env", [
        (["--seed", "-1"], None), (["--seed", str(2 ** 64)], None),
        ([], "-1"), ([], str(2 ** 64)),
    ], ids=["cli-negative", "cli-65-bit", "env-negative", "env-65-bit"])
    def test_seed_out_of_range(self, monkeypatch, capsys, args, env):
        monkeypatch.setattr(cli, "run_level", lambda level, seed: iter(()))
        if env is not None:
            monkeypatch.setenv("RFUOWC_SEED", env)
        assert main(["validate", *args]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_prints_one_timing_line_per_suite(self, monkeypatch, capsys):
        from rfuowc.validation import CheckResult

        def fake_level(level, seed):
            yield "specfun", [CheckResult("specfun", "one", True)], 1.25
            yield "moments", [CheckResult("moments", "two", False, "why")], 0.5

        monkeypatch.setattr(cli, "run_level", fake_level)
        assert main(["validate", "--level", "fast"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["PASS  specfun: one", "time  specfun: 1.2 s",
                             "FAIL  moments: two  (why)", "time  moments: 0.5 s"]
        assert lines[-1] == "1/2 checks passed (level=fast)"

    def test_fast_level_fails_only_the_standing_coverage_line(self, monkeypatch, capsys):
        # check_specfun's coverage condition fails on its own (see ROADMAP), so
        # validate may exit 1; any other FAIL line, an exit code other than 0
        # or 1, or a missing summary line fails the test
        monkeypatch.delenv("RFUOWC_SEED", raising=False)
        code = main(["validate", "--level", "fast"])
        out = capsys.readouterr().out
        assert code in (0, 1), out
        assert re.search(r"^\d+/\d+ checks passed", out, re.M), out
        standing = re.escape("FAIL  specfun: series vs contour oracle on 30 random instances")
        others = [line for line in out.splitlines()
                  if line.startswith("FAIL") and not re.fullmatch(standing + "( .*)?", line)]
        assert others == [], out


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
        sweep_rows(tmp_path, BASE_CFG)
        out = str(tmp_path / "x.csv")
        svg1 = str(tmp_path / "a.svg")
        svg2 = str(tmp_path / "b.svg")
        assert main(["plot", out, svg1]) == 0
        assert main(["plot", out, svg2]) == 0
        b1 = open(svg1, "rb").read()
        assert b1 == open(svg2, "rb").read()
        # one curve per (scenario, method) group
        assert b1.decode().count("<polyline") == 2

    def test_label_with_comma_and_quote_survives_csv_and_plot(self, tmp_path):
        label = 'salty, "weak" #2'
        text = BASE_CFG.replace('label = "demo"', f'label = "{label}"')
        rows = sweep_rows(tmp_path, text, "--methods", "quadrature")
        out = str(tmp_path / "x.csv")
        with open(out, newline="") as fh:
            assert all(len(row) == len(cli.CSV_HEADER) for row in csv.reader(fh))
        assert [r["scenario"] for r in rows] == [label] * 3
        svg = str(tmp_path / "x.svg")
        assert main(["plot", out, svg]) == 0
        assert legend_texts(svg) == [f"{label} quadrature"]

    @pytest.mark.parametrize("label", ["salty & fresh", "depth <5 m"])
    def test_svg_text_is_escaped(self, tmp_path, label):
        path = tmp_path / "mini.csv"
        path.write_text(
            "axis,axis_value,method,p_out,err_est,c_used,elapsed_ms,scenario\n"
            f"gamma_th,1.0,quadrature,0.01,1e-9,35.0,1.0,{label}\n"
            f"gamma_th,10.0,quadrature,0.1,1e-9,35.0,1.0,{label}\n")
        svg = str(tmp_path / "x.svg")
        assert main(["plot", str(path), svg]) == 0
        assert legend_texts(svg) == [f"{label} quadrature"]

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
