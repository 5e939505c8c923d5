import importlib.util
import json
import math
import pathlib
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rfuowc.channels as ch
from rfuowc.channels import EggParams, PointingParams, RfLinkParams, UowcLinkParams, \
    WATER_PRESETS, egg_moment, get_preset, relay_constant_c, rf_avg_power_gain, \
    rf_snr_cdf, uowc_snr_cdf
from rfuowc.mc import McConfig, mc_outage
from rfuowc.quadrature import QuadratureError
import rfuowc.specfun as sf
from rfuowc.specfun import CapabilityError
import rfuowc.system as system
from rfuowc.system import (
    METHODS,
    OutageQuery,
    SystemConfig,
    _bracket,
    end_to_end_snr,
    evaluate,
    flooring_gap_report,
    outage_closed_form,
    outage_quadrature,
)

WEAK = PointingParams(a0=0.5076, xi=0.6079)
STRONG = PointingParams(a0=0.1641, xi=0.5244)


def grid_cfg(key="salty/4.7", mu1=100.0, n=3, pointing=WEAK):
    return SystemConfig.from_direct_snr(mu1=mu1, n_relays=n,
                                        egg=get_preset(key).egg,
                                        pointing=pointing, uowc_scale=mu1)


class TestEndToEndSnr:
    def test_limits(self):
        assert end_to_end_snr(10.0, 1e15, 5.0) == pytest.approx(10.0, rel=1e-12)
        assert end_to_end_snr(10.0, 5.0, 5.0) == pytest.approx(5.0)
        assert end_to_end_snr(10.0, 0.0, 5.0) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1e9), st.floats(0.0, 1e9), st.floats(1.0, 1e9))
    def test_bounded_by_first_hop(self, g1, g2, c):
        geq = end_to_end_snr(g1, g2, c)
        assert 0.0 <= geq <= g1 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            end_to_end_snr(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            end_to_end_snr(1.0, 1.0, 0.5)


class TestSystemConfig:
    def test_budget_reproducible(self):
        # uowc_scale = mu1: C = 1 + mu1 H_N and rho = mu1 E[I^2] / E[I]^2
        cfg = grid_cfg()
        egg = get_preset("salty/4.7").egg
        mean_i, mean_i2 = egg_moment(1, egg, WEAK), egg_moment(2, egg, WEAK)
        assert cfg.c_const == pytest.approx(1.0 + 100.0 * 11.0 / 6.0, rel=1e-15)
        assert cfg.rho == pytest.approx(100.0 * mean_i2 / mean_i ** 2, rel=1e-14)

    def test_physical_budget_reproducible(self):
        rf = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=100.0,
                          height_l=20.0, n_relays=4)
        uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
        cfg = SystemConfig.from_link(rf, uowc, get_preset("fresh/7.1").egg, WEAK)
        g1 = 1e-3 / (100.0 ** 2 + 20.0 ** 2)
        assert rf_avg_power_gain(rf) == pytest.approx(g1, rel=1e-15)
        assert cfg.mu1 == pytest.approx(0.1 * g1 / 1e-12, rel=1e-15)
        assert cfg.n_relays == 4
        assert cfg.c_const == relay_constant_c(cfg.mu1, 4)

    def test_budget_is_not_a_constructor_argument(self):
        # C and rho are derived, and a direct-mode record has no gain
        # convention that could silently rescale rho
        cfg = grid_cfg()
        with pytest.raises(TypeError):
            SystemConfig(cfg.mu1, cfg.n_relays, cfg.uowc_scale, cfg.egg,
                         cfg.pointing, rho=cfg.rho)
        with pytest.raises(TypeError):
            replace(cfg, gain_convention="literal")
        assert [f.name for f in fields(SystemConfig) if f.init] == [
            "mu1", "n_relays", "uowc_scale", "egg", "pointing", "rho_convention"]

    def test_direct_snr_pins_mu_values(self):
        egg = get_preset("salty/7.1").egg
        cfg = SystemConfig.from_direct_snr(mu1=250.0, n_relays=2, egg=egg,
                                           pointing=WEAK, mu2=77.0)
        assert cfg.mu1 == 250.0
        assert cfg.uowc_scale * egg_moment(1, egg, WEAK) ** 2 == \
            pytest.approx(77.0, rel=1e-12)

    def test_direct_snr_needs_exactly_one_scale(self):
        egg = get_preset("salty/7.1").egg
        with pytest.raises(ValueError):
            SystemConfig.from_direct_snr(mu1=1.0, n_relays=1, egg=egg,
                                         pointing=WEAK)
        with pytest.raises(ValueError):
            SystemConfig.from_direct_snr(mu1=1.0, n_relays=1, egg=egg,
                                         pointing=WEAK, uowc_scale=1.0, mu2=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(mu1=0.0), dict(mu1=-1.0), dict(mu1=math.nan), dict(mu1=math.inf),
        dict(n_relays=0), dict(n_relays=65), dict(n_relays=2.5),
        dict(uowc_scale=0.0), dict(uowc_scale=math.nan), dict(uowc_scale=math.inf),
        # xi^2 underflows to 0, so E[I] = 0; E[I]^2 overflows
        dict(pointing=PointingParams(a0=0.5, xi=1e-200)),
        dict(egg=EggParams(w=0.2, lam=0.4, a=0.5, b=1e300, c=3.0)),
    ], ids=["mu1-zero", "mu1-negative", "mu1-nan", "mu1-inf", "no-relays",
            "too-many-relays", "fractional-relays", "scale-zero", "scale-nan",
            "scale-inf", "zero-mean-irradiance", "huge-mean-irradiance"])
    def test_rejects_out_of_range_fields(self, kwargs):
        args = dict(mu1=100.0, n_relays=3, uowc_scale=100.0,
                    egg=get_preset("salty/4.7").egg, pointing=WEAK)
        with pytest.raises(ValueError):
            SystemConfig(**{**args, **kwargs})

    def test_relay_count_must_be_whole(self):
        # int() once truncated these silently: 2.5 relays became 2, 3.9 became 3
        egg = get_preset("salty/4.7").egg
        with pytest.raises(ValueError, match="whole number"):
            SystemConfig(100.0, 2.5, 100.0, egg, WEAK)
        with pytest.raises(ValueError, match="whole number"):
            SystemConfig.from_direct_snr(mu1=100.0, n_relays=3.9, egg=egg,
                                         pointing=WEAK, uowc_scale=100.0)
        with pytest.raises(ValueError, match="whole number"):
            RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=100.0,
                         height_l=20.0, n_relays=2.5)
        # an integral float is the count it names
        cfg = SystemConfig(100.0, 3.0, 100.0, egg, WEAK)
        assert type(cfg.n_relays) is int and cfg == grid_cfg()
        rf = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=100.0,
                          height_l=20.0, n_relays=3.0)
        assert type(rf.n_relays) is int and rf.n_relays == 3

    def test_floored_recomputes_budget(self):
        cfg = grid_cfg("salty/16.5")
        flo = cfg.floored()
        assert flo.egg.c == 82.0
        m1, m2 = egg_moment(1, flo.egg, WEAK), egg_moment(2, flo.egg, WEAK)
        assert flo.rho == 100.0 * m1 ** 2 * m2 / m1 ** 2 / m1 ** 2
        assert flo.rho != cfg.rho
        assert (flo.mu1, flo.c_const) == (cfg.mu1, cfg.c_const)


    def test_query_validation(self):
        with pytest.raises(ValueError):
            OutageQuery(0.0)
        with pytest.raises(ValueError):
            OutageQuery(-2.0)
        with pytest.raises(ValueError, match="normal"):
            OutageQuery(5e-324)  # subnormal


# float.hex of (mu1, C, rho), plain and floored, recorded from the link
# record that SystemConfig derived them through before it stored mu1 and the
# optical scale itself; rho = mu2 E[I^2] / E[I]^2 / E[I]^2 in that order
GOLDEN = {
    "grid": (
        ("0x1.9000000000000p+6", "0x1.70aaaaaaaaaaap+7", "0x1.e46b5ed8b15d3p+7"),
        ("0x1.9000000000000p+6", "0x1.70aaaaaaaaaaap+7", "0x1.e47491ddebd9ep+7")),
    "mu2-pinned": (
        ("0x1.f400000000000p+7", "0x1.7800000000000p+8", "0x1.685accbb88a00p+13"),
        ("0x1.f400000000000p+7", "0x1.7800000000000p+8", "0x1.685abfa5a5e3cp+13")),
    "rho-mu2": (
        ("0x1.3880000000000p+13", "0x1.1e79555555555p+14", "0x1.d6ce2b801e2e7p+3"),
        ("0x1.3880000000000p+13", "0x1.1e79555555555p+14", "0x1.d6af9352927f5p+3")),
    "physical": (
        ("0x1.2c7b13b13b13cp+13", "0x1.1374d20d20d21p+14", "0x1.11b64fe26cc6cp+87"),
        ("0x1.2c7b13b13b13cp+13", "0x1.1374d20d20d21p+14", "0x1.11c85c5550f1cp+87")),
}


def golden_config(name):
    if name == "grid":
        return grid_cfg("salty/4.7")
    if name == "mu2-pinned":
        return SystemConfig.from_direct_snr(mu1=250.0, n_relays=2,
                                            egg=get_preset("salty/7.1").egg,
                                            pointing=WEAK, mu2=77.0)
    if name == "rho-mu2":
        return SystemConfig.from_direct_snr(mu1=1e4, n_relays=3,
                                            egg=get_preset("fresh/7.1").egg,
                                            pointing=STRONG, uowc_scale=1e4,
                                            rho_convention="mu2")
    # a point of scripts/fig4_radius.py: R = 100 m, L = 20 m, N = 3
    rf = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=100.0,
                      height_l=20.0, n_relays=3)
    uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
    return SystemConfig.from_link(rf, uowc, get_preset("salty/16.5").egg, WEAK)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_derived_numbers_match_the_golden_values(name):
    cfg = golden_config(name)
    for sys_, want in zip((cfg, cfg.floored()), GOLDEN[name]):
        got = (sys_.mu1, sys_.c_const, sys_.rho)
        want = tuple(float.fromhex(h) for h in want)
        if name == "physical":
            # the physical product is grouped as (G^2 (P2 eta)^2 / N0) E[I]^2
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        else:
            assert got == want


class TestOutage:
    def test_threshold_limits(self):
        # moderate-tail pointing: with the heavy Fig-3 jitter (xi^2 = 0.37)
        # the outage decays like gamma_th^0.37 and 1e-12 is genuinely ~8e-6
        mild = PointingParams(a0=0.8, xi=2.0)
        cfg = grid_cfg(pointing=mild)
        for method in (outage_closed_form,
                       lambda c, q: outage_quadrature(c, q, floor_c=True)):
            assert method(cfg, OutageQuery(1e-12)).value <= 1e-6
            assert method(cfg, OutageQuery(1e12 * cfg.mu1)).value >= 1.0 - 1e-6
            assert method(cfg, OutageQuery(1e306)).value == 1.0

    def test_closed_form_matches_quadrature(self):
        for key, gth in (("salty/4.7", 10.0), ("fresh/7.1", 1.0)):
            cfg = grid_cfg(key)
            q = OutageQuery(gth)
            p_cf = outage_closed_form(cfg, q).value
            p_q = outage_quadrature(cfg, q, floor_c=True).value
            assert p_cf == pytest.approx(p_q, rel=1e-6)

    @pytest.mark.parametrize("xi", (1.0, 2.0))
    def test_closed_form_matches_quadrature_at_integer_xi2(self, xi):
        # integer xi^2 puts a pole of Gamma(xi^2/c - s) on the Gamma(-c s)
        # ladder: the series must not drop it silently
        cfg = grid_cfg(pointing=PointingParams(a0=0.8, xi=xi))
        for gth in (1e-3, 1.0, 10.0):
            q = OutageQuery(gth)
            p_cf = outage_closed_form(cfg, q).value
            p_q = outage_quadrature(cfg, q, floor_c=True).value
            assert p_cf == pytest.approx(p_q, rel=1e-6)

    def test_golden_point(self):
        # frozen after three-way cross-validation (quadrature and 1e7-sample
        # Monte Carlo agree within their tolerances)
        cfg = grid_cfg("salty/16.5", mu1=1e4)
        res = outage_closed_form(cfg, OutageQuery(10.0))
        assert res.value == pytest.approx(0.1210566326, rel=1e-6)
        assert res.method == "closed_form"
        assert res.c_used == 82.0

    def test_capability_error_above_cap(self):
        cfg = grid_cfg("fresh/16.5")
        with pytest.raises(CapabilityError):
            outage_closed_form(cfg, OutageQuery(10.0))
        # quadrature still covers the preset
        res = outage_quadrature(cfg, OutageQuery(10.0))
        assert 0.0 < res.value < 1.0

    def test_monotone_in_threshold(self):
        cfg = grid_cfg("fresh/4.7")
        vals = [outage_quadrature(cfg, OutageQuery(g)).value
                for g in np.geomspace(0.1, 300.0, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_first_hop_snr(self):
        prev = 2.0
        for mu1 in (10.0, 100.0, 1000.0):
            cfg = SystemConfig.from_direct_snr(
                mu1=mu1, n_relays=3, egg=get_preset("salty/7.1").egg,
                pointing=WEAK, uowc_scale=100.0)
            p = outage_quadrature(cfg, OutageQuery(10.0)).value
            assert p <= prev
            prev = p

    def test_first_hop_bound(self):
        cfg = grid_cfg("salty/7.1")
        for gth in (0.5, 5.0, 50.0):
            p = outage_quadrature(cfg, OutageQuery(gth)).value
            lower = rf_snr_cdf(gth, cfg.mu1, cfg.n_relays)
            assert lower - 1e-9 <= p <= 1.0

    def test_result_fields(self):
        cfg = grid_cfg()
        res = outage_quadrature(cfg, OutageQuery(5.0))
        assert res.method == "quadrature"
        assert res.err_est >= 0.0
        assert res.c_used == cfg.egg.c
        assert not res.clamped


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _cf_sweep_calls(monkeypatch):
    """(reference key, config, query) of the benchmark's cf-threshold-sweep
    points, 9 thresholds x 5 presets."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    calls = []
    for p in workloads.WORKLOADS["cf-threshold-sweep"][1]:
        cfg = SystemConfig.from_direct_snr(
            mu1=p.mu1, n_relays=p.n_relays, egg=get_preset(p.preset).egg,
            pointing=PointingParams(*workloads.POINTINGS[p.pointing]), uowc_scale=p.mu1)
        calls.append((p.key, cfg, OutageQuery(p.gamma_th)))
    assert len(calls) == 45
    return calls


def test_closed_form_stays_off_the_contour(monkeypatch):
    # the sweep's factors cancel in the residue series from gamma_th = 316
    # (and the exponential one from ln z ~ 1.3): the contour is an oracle only
    calls = _cf_sweep_calls(monkeypatch)
    ref = json.loads((PERFBENCH / "reference.json").read_text())["values"]

    def no_contour(*args):
        raise AssertionError("the closed form called the contour")

    monkeypatch.setattr(sf, "_mb_eval", no_contour)
    sf._series_table.cache_clear()
    cold = [outage_closed_form(cfg, q) for _, cfg, q in calls]
    warm = [outage_closed_form(cfg, q) for _, cfg, q in calls]
    assert warm == cold
    for (key, _, _), res in zip(calls, cold):
        assert abs(res.value / ref[key]["p_out"] - 1.0) <= 6e-15, key
        # each factor's own estimate, not the G tolerance, still covers the error
        assert abs(res.value - ref[key]["p_out"]) <= res.err_est, key


def test_closed_form_builds_no_table_that_cannot_serve(monkeypatch):
    # the exponential factor's first table at ln z ~ 4 (64 units of s) and
    # the c = 35 factor's doubled one at ln z ~ 90 only ever missed 1e-12:
    # their cancellation bound alone refuses them, before the build
    calls = _cf_sweep_calls(monkeypatch)
    sf._series_table.cache_clear()
    for _, cfg, q in calls:
        outage_closed_form(cfg, q)
    assert sf._series_table.cache_info().misses <= 7


def test_real_line_factors_take_one_integrand_sweep_each(monkeypatch):
    # the relay factors of one branch that the series refuses share one
    # trapezoid rule, and on the mapped axis its first rule (a step in t from
    # the strip where the integrand stays below its peak) already meets the
    # 1e-14 agreement test: one integrand sweep per (point, branch), 31 for
    # the sweep's 80 real-line factors (80 sweeps one factor at a time); a
    # uniform step in v took 70 sweeps and 23,495 nodes for the 35
    # generalized-gamma factors alone
    calls = _cf_sweep_calls(monkeypatch)
    real_factor, real_rule = sf._gg_factor_integral, sf._trapezoid_log
    tally = {"gg": 0, "integrals": 0, "sweeps": 0, "nodes": 0}

    def factor(a, xi2, c, ln_z):
        tally["gg"] += ln_z.size
        return real_factor(a, xi2, c, ln_z)

    def rule(log_f, lo, hi, n):
        tally["integrals"] += len(lo)

        def counted(t, which):
            tally["sweeps"] += 1
            tally["nodes"] += t.size
            return log_f(t, which)

        return real_rule(counted, lo, hi, n)

    monkeypatch.setattr(sf, "_gg_factor_integral", factor)
    monkeypatch.setattr(sf, "_trapezoid_log", rule)
    for _, cfg, q in calls:
        outage_closed_form(cfg, q)
    assert (tally["gg"], tally["integrals"]) == (35, 80), tally
    assert tally["sweeps"] <= 31, tally
    assert tally["nodes"] <= 23495 // 2, tally


def test_closed_form_error_carries_each_factor_estimate(monkeypatch):
    # a real-line value is accepted with an estimate up to 1e-6: the
    # outage's err_est must charge it, not the G tolerance alone
    cfg, q = grid_cfg("salty/4.7"), OutageQuery(10.0)
    base = outage_closed_form(cfg, q)
    real = system.folded_gg_factor_log
    monkeypatch.setattr(system, "folded_gg_factor_log", lambda a, xi2, c, ln_z: (
        real(a, xi2, c, ln_z)[0], np.full(ln_z.shape, 1e-7)))
    loose = outage_closed_form(cfg, q)
    assert loose.value == base.value
    assert loose.err_est >= 500.0 * base.err_est


def test_a_nan_outage_is_refused(monkeypatch):
    # NaN fails every comparison, so a clamp test of the form "v < 0" passed it on
    monkeypatch.setattr(system, "folded_gg_factor_log", lambda a, xi2, c, ln_z: (
        np.full(ln_z.shape, math.nan), np.zeros(ln_z.shape)))
    with pytest.raises(CapabilityError, match="nan"):
        outage_closed_form(grid_cfg(), OutageQuery(10.0))


def test_closed_form_outside_the_clamp_window_names_the_methods_that_answer():
    # N = 64 at gamma_th = 1e-9: the alternating relay sum cancels to 691
    # and quadrature answers there; its own value outside the window stays
    # a QuadratureError
    cfg, q = grid_cfg(n=64), OutageQuery(1e-9)
    with pytest.raises(CapabilityError, match="quadrature or Monte Carlo"):
        outage_closed_form(cfg, q)
    assert 0.0 < outage_quadrature(cfg, q).value < 1.0
    with pytest.raises(QuadratureError, match="quadrature produced 2.0"):
        system._finalize(2.0, "quadrature", 0.0, 1.0)


def _bits(r):
    return [float.hex(float(x)) for x in (r.value, r.err_est, r.c_used)], r.clamped, r.error


@pytest.mark.parametrize("method,errors", zip(METHODS, (
    [None, "CapabilityError", "CapabilityError", None], [None, None, None, "QuadratureError"],
    [None] * 4)), ids=METHODS)
def test_evaluate_over_a_list_equals_its_calls_one_point_at_a_time(monkeypatch, method, errors):
    # fresh/16.5 (c = 216) and N = 64 at gamma_th = 1e-9 are closed-form
    # refusals; quadrature raises at gamma_th = 3
    def quadrature(cfg, q, real=system.outage_quadrature):
        if q.gamma_th == 3.0:
            raise QuadratureError("quadrature produced 2.0, outside the clamp window")
        return real(cfg, q)

    monkeypatch.setattr(system, "outage_quadrature", quadrature)
    points = [(grid_cfg(key, n=n), OutageQuery(gth)) for key, n, gth in (
        ("salty/4.7", 3, 10.0), ("fresh/16.5", 3, 10.0), ("salty/4.7", 64, 1e-9),
        ("salty/7.1", 3, 3.0))]
    mc = McConfig(n_samples=20_000, seed=5)
    results = evaluate(points, method, mc)
    assert [_bits(res) for res in results] == [_bits(evaluate([p], method, mc)[0])
                                               for p in points]
    assert [res.error and res.error["type"] for res in results] == errors
    assert all(res.method == method and res.elapsed_ms >= 0.0 for res in results)


def test_evaluate_on_a_floored_config_equals_the_floor_c_calls():
    cfg, q, mc = grid_cfg("salty/7.1"), OutageQuery(10.0), McConfig(n_samples=20_000, seed=5)
    quad, sim = (evaluate([(cfg.floored(), q)], m, mc)[0]
                 for m in ("quadrature", "monte_carlo"))
    assert _bits(quad) == _bits(outage_quadrature(cfg, q, floor_c=True))
    est = mc_outage(cfg, q, mc, floor_c=True)
    assert _bits(sim)[0] == [float.hex(x) for x in (est.mean, est.std_err, 77.0)]


def test_evaluate_refuses_an_unknown_method_before_any_point():
    with pytest.raises(ValueError, match="method must be one of"):
        evaluate([None], "closed-form")


def test_quadrature_reads_one_without_a_warning_at_the_largest_thresholds():
    # the first hop's argument gamma_th (1 + C/x) passes the largest double
    # at gamma_th = 1.7e308, where F1 is 1
    cfg = grid_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gth in (1e300, 1e306, 1.7e308):
            assert outage_quadrature(cfg, OutageQuery(gth)).value == 1.0, gth


def _count_sweeps(monkeypatch):
    """A list whose length counts the integrand sweeps of adaptive_quad."""
    import rfuowc.quadrature as quadrature
    sweeps, panels = [], quadrature._panels

    def counted(*args):
        sweeps.append(None)
        return panels(*args)

    monkeypatch.setattr(quadrature, "_panels", counted)
    return sweeps


@pytest.mark.parametrize("floor_c", (True, False))
def test_quadrature_takes_about_one_sweep_a_point(monkeypatch, floor_c):
    # _knots places the first partition on the first hop's ramp and on each
    # branch's edge, so the first sweep almost always meets the target
    sweeps = _count_sweeps(monkeypatch)
    points = 0
    for key in WATER_PRESETS:
        for pointing in (WEAK, STRONG):
            for mu1 in (1e2, 1e4):
                for gth in (1.0, 10.0, 100.0):
                    outage_quadrature(grid_cfg(key, mu1, 3, pointing), OutageQuery(gth),
                                      floor_c=floor_c)
                    points += 1
    assert points == 72
    assert len(sweeps) <= 1.1 * points


def test_refusal_names_the_threshold_it_applies(monkeypatch):
    # salty/7.1 at gamma_th = 1000: the series refuses the first relay
    # term's folded factor, so the real-line value is checked and refused
    monkeypatch.setattr(sf, "_gg_factor_integral", lambda a, xi2, c, ln_z: (
        np.zeros(ln_z.shape), np.full(ln_z.shape, 1e-3)))
    with pytest.raises(sf.NonConvergenceError, match="1.00e-06"):
        outage_closed_form(grid_cfg("salty/7.1"), OutageQuery(1000.0))
    monkeypatch.setattr(sf, "_mb_eval", lambda *args: (1.0, 0.0, 1e-3))
    spec = sf.MeijerGSpec(m=3, n=0, a=(1.37,), b=(1.0, 0.37, 0.0))
    with pytest.raises(sf.NonConvergenceError, match="1.00e-06"):
        sf.meijer_g_log(spec, 4.0)


def test_exponential_branch_is_the_generalized_gamma_one_at_a_c_1():
    # w = 1 puts all weight on the exponential of scale lam; w = 0 with
    # (a, b, c) = (1, lam, 1) is the same distribution, and every analytic
    # layer must give it the same bits
    lam = 0.4747
    expo = EggParams(w=1.0, lam=lam, a=0.3935, b=1.4506, c=77.0245)
    gg = EggParams(w=0.0, lam=2.0, a=1.0, b=lam, c=1.0)
    rho = 37.0
    x = np.geomspace(1e-6, 1e6, 97)
    assert np.array_equal(ch._pdf_times_x(np.log(x), rho, expo, WEAK),
                          ch._pdf_times_x(np.log(x), rho, gg, WEAK))
    assert np.array_equal(uowc_snr_cdf(x, rho, expo, WEAK),
                          uowc_snr_cdf(x, rho, gg, WEAK))
    for n in (1, 3, 8):
        cfgs = [SystemConfig.from_direct_snr(mu1=100.0, n_relays=n, egg=egg,
                                             pointing=WEAK, mu2=100.0,
                                             rho_convention="mu2")
                for egg in (expo, gg)]
        for gth in np.geomspace(0.01, 3e3, 25):
            got = [outage_closed_form(cfg, OutageQuery(float(gth))) for cfg in cfgs]
            assert got[0].value == got[1].value, (n, gth)
            assert got[0].err_est == got[1].err_est, (n, gth)


class TestShapeConstants:
    def test_quadrature_path_skips_the_array_log_gamma(self, monkeypatch):
        # scalar shape constants come from math.lgamma; the array evaluator
        # costs a thousand times as much on one float
        calls = []
        monkeypatch.setattr(sf, "_lgamma_pos",
                            lambda x: calls.append(x) or np.zeros(1))
        cfg = grid_cfg("salty/4.7", pointing=STRONG)
        assert calls == []
        res = outage_quadrature(cfg, OutageQuery(10.0), floor_c=True)
        assert calls == []
        assert 0.0 < res.value < 1.0


class TestFlooringGap:
    def test_integer_like_exponent_gives_tiny_gap(self):
        egg = get_preset("salty/4.7").egg
        near = type(egg)(w=egg.w, lam=egg.lam, a=egg.a, b=egg.b, c=35.00005)
        cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=near,
                                           pointing=WEAK, uowc_scale=100.0)
        assert flooring_gap_report(cfg, OutageQuery(10.0)) <= 1e-6

    def test_representative_gap(self):
        cfg = grid_cfg("salty/4.7")
        gap = flooring_gap_report(cfg, OutageQuery(10.0))
        assert math.isfinite(gap)
        assert 0.0 <= gap <= 1.0
        # c = 35.7368 -> 35 visibly moves the mixture; gap is small but real
        assert gap > 1e-8


def _mp_branches(u, cfg):
    """(w, a, z, z^(xi^2/c) Gamma(a - xi^2/c, z) / Gamma(a)) of each optical
    branch at ln x = u, in mpmath."""
    import mpmath
    mpf = mpmath.mpf
    xi2 = mpf(cfg.pointing.xi) ** 2
    for w, a, b, c in cfg.egg.branches:
        w, a, b, c = map(mpf, (w, a, b, c))
        z = mpmath.exp(c * (u - mpmath.log(b * mpf(cfg.pointing.a0) * mpf(cfg.rho))))
        s = a - xi2 / c
        if z < 1e-20:  # the first terms of Gamma(s) - gamma(s, z)
            upper = mpmath.gamma(s) - z ** s / s + z ** (s + 1) / (s + 1)
        else:
            upper = mpmath.gammainc(s, z)
        yield w, a, z, z ** (xi2 / c) * upper / mpmath.gamma(a)


def _mp_cdf(u, cfg):
    import mpmath
    return mpmath.fsum(w * (mpmath.gammainc(a, 0, z, regularized=True) + g)
                       for w, a, z, g in _mp_branches(u, cfg))


def _mp_tail(u, cfg):
    """1 - F2(e^u) without cancelling against 1."""
    import mpmath
    return mpmath.fsum(w * (mpmath.gammainc(a, z, regularized=True) - g)
                       for w, a, z, g in _mp_branches(u, cfg))


def _mp_first_hop_miss(u, cfg, gth):
    """1 - F1(gamma_th (1 + C / e^u)), the first-hop CDF's distance from 1."""
    import mpmath
    t = mpmath.mpf(gth) * (1 + mpmath.mpf(cfg.c_const) * mpmath.exp(-u)) / cfg.mu1
    return -mpmath.expm1(cfg.n_relays * mpmath.log1p(-mpmath.exp(-t)))


def _mp_outage(cfg, gth):
    """The mixing integral in mpmath, cut on its own terms: left of
    x_l = gamma_th C / (60 mu1 - gamma_th) it is F2(x_l) to within N e^-60,
    and each branch's mass past ln z = ln(80 + 2a) is at most Q(a, 80 + 2a),
    below e^-40; a branch of a > 5 gets knots on its bulk at ln z = ln a."""
    import mpmath
    mpf = mpmath.mpf
    gth_mp, cc, mu1 = mpf(gth), mpf(cfg.c_const), mpf(cfg.mu1)
    u_l = mpmath.log(gth_mp * cc / (60 * mu1 - gth_mp))
    ends, knots = [], {u_l + 2, u_l + 4}
    for _, a, b, c in cfg.egg.branches:
        anchor = mpmath.log(mpf(b) * mpf(cfg.pointing.a0) * mpf(cfg.rho))
        ends.append(anchor + mpmath.log(80 + 2 * mpf(a)) / c)
        knots.update(anchor + k for k in (-4, -2, -1, 0, 1, 2))
        if a > 5:
            knots.update(anchor + (mpmath.log(a) + t / mpmath.sqrt(a)) / c
                         for t in (-8, -4, -2, -1, 0, 1, 2, 4, 8))
    pts = [u_l] + sorted(k for k in knots if u_l < k < max(ends)) + [max(ends)]
    xi2 = mpf(cfg.pointing.xi) ** 2

    def integrand(u):
        f1 = 1 - _mp_first_hop_miss(u, cfg, gth)
        return f1 * xi2 * mpmath.fsum(w * g for w, _, _, g in _mp_branches(u, cfg))

    return _mp_cdf(u_l, cfg) + mpmath.quad(integrand, pts)


class TestBracket:
    @pytest.mark.parametrize("mu1", (1e2, 1e4))
    @pytest.mark.parametrize("key", sorted(WATER_PRESETS))
    @pytest.mark.parametrize("pointing", (WEAK, STRONG), ids=("weak", "strong"))
    def test_window_leaves_out_no_more_than_it_claims(self, key, pointing, mu1):
        # left of x_l the integral is at most F2(x_l), F1 being at most 1: in
        # mpmath that must be within the charged bound, and the bound within
        # its 1e-4 share of the target 3e-9 P.  Right of x_r the optical
        # mass, in mpmath, must be within the bound, below 1e-18 per branch
        mpmath = pytest.importorskip("mpmath")
        cfg = grid_cfg(key, mu1=mu1, pointing=pointing)
        with mpmath.workdps(30):
            for sys_ in (cfg, cfg.floored()):
                for gth in (1e-9, 1.0, 100.0, 1e4):
                    u_l, u_r, left, tail = _bracket(sys_, gth)
                    assert 0 < _mp_cdf(mpmath.mpf(u_l), sys_) <= left, gth
                    assert left <= 1e-4 * 3e-9 * outage_quadrature(sys_, OutageQuery(gth)).value
                    assert 0 <= _mp_tail(mpmath.mpf(u_r), sys_) <= tail <= 2e-18
                    assert u_l < u_r


@pytest.mark.parametrize("a", (1e-3, 0.05, 0.5307, 1.0, 5.0, 20.0, 300.0))
def test_tail_bound_covers_the_upper_incomplete_gamma(a):
    # one branch (w = 0 drops the exponential one): at the z it stopped at,
    # the bound on Q(a, z) must hold in mpmath, which for a > 1 needs the
    # factor z / (z - a + 1)
    mpmath = pytest.importorskip("mpmath")
    egg = EggParams(w=0.0, lam=0.4, a=a, b=1.2154, c=3.0)
    cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=egg,
                                       pointing=WEAK, uowc_scale=100.0)
    _, u_r, _, tail = _bracket(cfg, 10.0)
    with mpmath.workdps(30):
        z = mpmath.exp(3 * (mpmath.mpf(u_r) - mpmath.log(egg.b * WEAK.a0 * cfg.rho)))
        assert mpmath.gammainc(a, z, regularized=True) <= tail * (1 + 1e-12)
    assert tail < 1e-18


def _large_shape_cfg():
    """salty/4.7's w, lam and b with a = 300 and c = 35.74, xi = 0.3, a0 =
    0.5076, mu1 = 100, optical scale 100, N = 1."""
    egg = replace(get_preset("salty/4.7").egg, a=300.0, c=35.74)
    return SystemConfig.from_direct_snr(mu1=100.0, n_relays=1, egg=egg,
                                        pointing=PointingParams(a0=0.5076, xi=0.3),
                                        uowc_scale=100.0)


def test_quadrature_keeps_relative_accuracy_at_small_outage():
    # the target is relative to P and the left piece is bounded against P
    # itself, so quadrature follows P down to 1e-14 at item 4's point; off
    # the presets the optical SNR falls slowly to the left (xi = 0.3, a c =
    # 0.036 and 0.03) or the density cancels large logs (a = 300, where it
    # lost 300 ln z to rounding: 0.09729580473235214 with err_est 6.7e-14,
    # 62 times that from mpmath).  err_est bounds the real error at each
    mpmath = pytest.importorskip("mpmath")
    item4 = grid_cfg(pointing=PointingParams(a0=0.8, xi=2.0)).floored()
    cases = [(item4, gth) for gth in (1e-12, 1e-9, 1e-6)] + [
        (box_cfg(0.5307, 35.74, 0.3, 8), 1e-9), (box_cfg(0.5307, 35.74, 0.3, 8), 10.0),
        (box_cfg(1e-3, 35.74, 1.5, 8), 1e-9), (box_cfg(0.05, 0.6, 2.0, 1), 1e-9),
        (_large_shape_cfg().floored(), 1e-9), (_large_shape_cfg(), 1.0)]
    for cfg, gth in cases:
        with mpmath.workdps(20):
            ref = float(_mp_outage(cfg, gth))
        res = outage_quadrature(cfg, OutageQuery(gth))
        assert abs(res.value - ref) <= 1e-8 * ref, (cfg.egg, gth)
        assert abs(res.value - ref) <= res.err_est, (cfg.egg, gth)
        assert res.err_est <= 3e-9 * ref, (cfg.egg, gth)


def test_a_window_whose_bound_is_over_its_share_is_integrated_again(monkeypatch):
    # a first left end whose bound on F2 is 1e-6 absolute, far above 1e-4 of
    # the target: the window moves left and is integrated again, and the
    # value agrees with the one-pass value within both estimates
    cfg, q = grid_cfg(), OutageQuery(1.0)
    once = outage_quadrature(cfg, q)
    real, ends = system._bracket, []

    def loose_first(cfg_, gth, share=None):
        ends.append(real(cfg_, gth, 1e-6 if share is None else share))
        return ends[-1]

    monkeypatch.setattr(system, "_bracket", loose_first)
    again = outage_quadrature(cfg, q)
    assert len(ends) == 2 and ends[1][0] < ends[0][0]
    assert ends[0][2] > 1e-4 * 3e-9 * again.value >= ends[1][2]
    assert abs(again.value - once.value) <= again.err_est + once.err_est
    assert again.err_est <= 3e-9 * again.value


def test_quadrature_refuses_a_shape_whose_rounding_passes_the_target():
    # at a = 1e6 the density's exponent adds terms of about 1.4e7: the
    # charge for their rounding alone is 2.4e-8 of P, above the target 3e-9
    cfg = SystemConfig.from_direct_snr(
        mu1=100.0, n_relays=3, egg=replace(get_preset("salty/4.7").egg, a=1e6),
        pointing=WEAK, uowc_scale=100.0)
    with pytest.raises(QuadratureError, match="rounding"):
        outage_quadrature(cfg, OutageQuery(10.0))
    assert math.isnan(evaluate([(cfg, OutageQuery(10.0))], "quadrature")[0].value)


def test_quadrature_needs_no_optical_cdf(monkeypatch):
    # the window's left piece is integrated with the rest and bounded in
    # closed form: no call of the optical CDF or of P(a, z)
    def refuse(*args):
        raise AssertionError("quadrature called the optical CDF")

    monkeypatch.setattr(ch, "uowc_snr_cdf", refuse)
    monkeypatch.setattr(ch, "gamma_p", refuse)
    monkeypatch.setattr(sf, "gamma_p", refuse)
    for cfg, gth in ((grid_cfg(), 10.0), (grid_cfg("fresh/16.5", 1e4, 8, STRONG), 1e-9),
                     (box_cfg(1e-3, 0.6, 0.3, 8), 10.0), (_large_shape_cfg(), 1.0)):
        res = outage_quadrature(cfg, OutageQuery(gth))
        assert 0.0 < res.value < 1.0 and res.err_est <= 3e-9 * res.value


# a box of off-preset scenarios: salty/4.7's w, lam and b, with these shapes,
# exponents and jitters (xi^2 = 1 and 4 are integers), mu1 = 100, optical
# scale 100, a0 = 0.5
BOX_A = (1e-3, 0.05, 0.5307, 5.0)
BOX_C = (0.6, 1.0, 3.0, 35.74, 130.0)
BOX_XI = (0.3, 1.0, 1.5, 2.0, 5.0)
BOX_GAMMA_TH = (1e-9, 10.0, 1e6)
BOX_N = (1, 8, 64)


def box_cfg(a, c, xi, n):
    base = get_preset("salty/4.7").egg
    return SystemConfig.from_direct_snr(
        mu1=100.0, n_relays=n, egg=replace(base, a=a, c=c),
        pointing=PointingParams(a0=0.5, xi=xi), uowc_scale=100.0)


def _box_points():
    """((a, c, xi, n, gamma_th), config, query) of each point of the box."""
    for a in BOX_A:
        for c in BOX_C:
            for xi in BOX_XI:
                for n in BOX_N:
                    cfg = box_cfg(a, c, xi, n)
                    for gth in BOX_GAMMA_TH:
                        yield (a, c, xi, n, gth), cfg, OutageQuery(gth)


def test_quadrature_answers_every_point_of_the_off_preset_box(monkeypatch):
    # xi = 0.3 and a c <= 0.05 give the optical SNR a left tail ~ x^0.09 or
    # flatter, which no fixed window could cut below 1e-15
    sweeps = _count_sweeps(monkeypatch)
    count = 0
    for point, cfg, q in _box_points():
        res = outage_quadrature(cfg, q)
        assert 0.0 <= res.value <= 1.0, point
        assert math.isfinite(res.err_est), point
        count += 1
    assert count == 900
    # about one integrand sweep a point: 777 measured, bound 1,700
    assert len(sweeps) <= 1700


def test_closed_form_answers_or_refuses_every_point_of_the_off_preset_box():
    # a value with a finite estimate, or a refusal that names the methods
    # that answer: floor(c) = 0, floor(c) > 120, or at N = 64 a relay sum
    # that cancels outside the clamp window
    sf._series_table.cache_clear()
    count = checked = 0
    for point, cfg, q in _box_points():
        count += 1
        try:
            res = outage_closed_form(cfg, q)
        except CapabilityError as err:
            assert "use quadrature or Monte Carlo" in str(err), point
            continue
        assert 0.0 <= res.value <= 1.0, point
        assert math.isfinite(res.err_est), point
        if res.err_est > 1e-6:
            assert point[3] == 64, point
            continue
        quad = outage_quadrature(cfg, q, floor_c=True)
        assert abs(res.value - quad.value) <= res.err_est + quad.err_est, point
        checked += 1
    assert count == 900
    assert checked >= 420
    # a table whose rounding estimate alone is past the tolerance is refused,
    # not doubled: 116 builds when it was doubled
    assert sf._series_table.cache_info().misses <= 107


def _factor_batches(monkeypatch, points):
    """(a, xi2, c, ln_z) of each call of folded_gg_factor_log that the
    closed form makes at points, a sequence of (config, query)."""
    real, batches = system.folded_gg_factor_log, []

    def recording(a, xi2, c, ln_z):
        batches.append((a, xi2, c, ln_z))
        return real(a, xi2, c, ln_z)

    monkeypatch.setattr(system, "folded_gg_factor_log", recording)
    for cfg, q in points:
        try:
            outage_closed_form(cfg, q)
        except CapabilityError:
            pass
    monkeypatch.setattr(system, "folded_gg_factor_log", real)
    return batches


def _grid_points():
    """The closed form's grid: 6 presets, both pointings, mu1 = 1e2 and 1e4,
    gamma_th = 1, 10 and 100, N = 1, 3, 8 and 16 (288 points)."""
    return [(grid_cfg(key, mu1, n, pointing), OutageQuery(gth)) for key in WATER_PRESETS
            for pointing in (WEAK, STRONG) for mu1 in (1e2, 1e4) for n in (1, 3, 8, 16)
            for gth in (1.0, 10.0, 100.0)]


# the factors the closed form evaluates at each set of points, and how many
# of them take the real-line form
@pytest.mark.parametrize("points,factors,real_line", (
    ("sweep", 270, 80), ("grid", 3360, 767), ("box", 2304, 1037)))
def test_a_batched_factor_is_each_of_its_batches_of_one(monkeypatch, points, factors,
                                                         real_line):
    # the box slice: N = 8 and 64 at c = 35.74 (floored to 35), xi = 1.5 and
    # 2 (an integer xi^2)
    if points == "sweep":
        where = [(cfg, q) for _, cfg, q in _cf_sweep_calls(monkeypatch)]
    elif points == "grid":
        where = _grid_points()
    else:
        where = [(cfg, q) for point, cfg, q in _box_points()
                 if point[1] == 35.74 and point[2] in (1.5, 2.0) and point[3] in (8, 64)]
    counts = [0, 0]
    for a, xi2, c, ln_z in _factor_batches(monkeypatch, where):
        ln_g, est = sf.folded_gg_factor_log(a, xi2, c, ln_z)
        for k, one_z in enumerate(ln_z.tolist()):
            one = sf.folded_gg_factor_log(a, xi2, c, one_z)
            counts[0] += 1
            if sf._series_attempt(sf._folded_spec(a, xi2, c), one_z, sf._FACTOR_TOL):
                assert (ln_g[k], est[k]) == one, (a, xi2, c, one_z)
            else:
                # ln_gamma_upper_scaled sizes its series and fraction to the
                # whole batch, which moves the last bits
                counts[1] += 1
                assert abs(math.expm1(ln_g[k] - one[0])) <= max(1e-15, one[1]), one_z
    assert counts == [factors, real_line]


@pytest.mark.parametrize("xi,gth", [(1.5, 10.0), (5.0, 1e-9)])
def test_quadrature_resolves_a_narrow_branch_edge(xi, gth):
    # a = 5, c = 130: the branch's mass falls from Q(5, e) to 1e-18 within
    # 0.03 of ln x; a first panel that runs past that edge with no knot on
    # it can be 1e-9 relative off while K15 and G7 agree
    mpmath = pytest.importorskip("mpmath")
    cfg = box_cfg(5.0, 130.0, xi, 1)
    with mpmath.workdps(20):
        ref = float(_mp_outage(cfg, gth))
    res = outage_quadrature(cfg, OutageQuery(gth))
    assert abs(res.value - ref) <= res.err_est
    assert abs(res.value - ref) <= 1e-12 * ref


@pytest.mark.parametrize("a,c", [(50.0, 35.74), (50.0, 130.0), (300.0, 35.74), (300.0, 130.0)])
def test_quadrature_finds_the_bulk_of_a_large_shape(monkeypatch, a, c):
    # at a >= 50 the branch's mass sits at ln z = ln a, 1/sqrt(a) wide, past
    # the edge knots at ln z <= 4; without knots on it the adaptive tree
    # took 7 to 10 sweeps.  Each value was then (value, err_est):
    before = {(50.0, 35.74): (0.26963443620125194, 8.4e-13),
              (50.0, 130.0): (0.28086575132077096, 3.0e-13),
              (300.0, 35.74): (0.26286736298089464, 1.8e-13),
              (300.0, 130.0): (0.2788488109670752, 5.2e-13)}
    sweeps = _count_sweeps(monkeypatch)
    cfg, q = box_cfg(a, c, 1.0, 3), OutageQuery(10.0)
    res = outage_quadrature(cfg, q)
    assert len(sweeps) <= 3
    value, err = before[(a, c)]
    assert abs(res.value - value) <= res.err_est + err
    if (a, c) == (50.0, 35.74):
        est = mc_outage(cfg, q, McConfig(n_samples=1 << 20, seed=20240717))
        assert abs(est.mean - res.value) <= 4.0 * est.std_err


@pytest.mark.parametrize("a,c,xi,gth,n", [
    (0.5307, 3.0, 0.3, 1e-9, 8), (5.0, 35.74, 0.3, 10.0, 1),
    (1e-3, 0.6, 0.3, 10.0, 8), (1e-3, 1.0, 1.5, 10.0, 8),
    (0.05, 0.6, 2.0, 1e-9, 1), (1e-3, 35.74, 5.0, 1e-9, 64)])
def test_box_quadrature_agrees_with_monte_carlo(a, c, xi, gth, n):
    # each point has xi = 0.3 or a c <= 0.05, the tails the old window refused
    cfg, q = box_cfg(a, c, xi, n), OutageQuery(gth)
    p = outage_quadrature(cfg, q).value
    est = mc_outage(cfg, q, McConfig(n_samples=1 << 20, seed=20240717))
    sigma = max(est.std_err, math.sqrt(p * (1.0 - p) / est.n))
    assert abs(est.mean - p) <= 4.0 * sigma
