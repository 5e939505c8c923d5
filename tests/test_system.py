import importlib.util
import json
import math
import pathlib
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfuowc.channels import PointingParams, RfLinkParams, UowcLinkParams, \
    WATER_PRESETS, egg_moment, get_preset, relay_constant_c, rf_avg_power_gain, \
    rf_snr_cdf, uowc_snr_cdf
import rfuowc.specfun as sf
from rfuowc.specfun import CapabilityError
from rfuowc.system import (
    OutageQuery,
    SystemConfig,
    _bracket,
    end_to_end_snr,
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
    ], ids=["mu1-zero", "mu1-negative", "mu1-nan", "mu1-inf", "no-relays",
            "too-many-relays", "fractional-relays", "scale-zero", "scale-nan",
            "scale-inf"])
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


def test_closed_form_stays_off_the_contour(monkeypatch):
    # the benchmark's cf-threshold-sweep, 9 thresholds x 5 presets, whose
    # factors cancel in the residue series from gamma_th = 316 (and the
    # exponential one from ln z ~ 1.3): the contour is an oracle only
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    ref = json.loads((PERFBENCH / "reference.json").read_text())["values"]

    def no_contour(*args):
        raise AssertionError("the closed form called the contour")

    monkeypatch.setattr(sf, "_mb_eval", no_contour)
    calls = []
    for p in workloads.WORKLOADS["cf-threshold-sweep"][1]:
        cfg = SystemConfig.from_direct_snr(
            mu1=p.mu1, n_relays=p.n_relays, egg=get_preset(p.preset).egg,
            pointing=PointingParams(*workloads.POINTINGS[p.pointing]), uowc_scale=p.mu1)
        calls.append((p.key, cfg, OutageQuery(p.gamma_th)))
    assert len(calls) == 45
    sf._series_table.cache_clear()
    cold = [outage_closed_form(cfg, q).value for _, cfg, q in calls]
    warm = [outage_closed_form(cfg, q).value for _, cfg, q in calls]
    assert warm == cold
    for (key, _, _), value in zip(calls, cold):
        assert abs(value / ref[key]["p_out"] - 1.0) <= 6e-15, key


def test_closed_form_error_carries_each_factor_estimate(monkeypatch):
    # a real-line value is accepted with an estimate up to 1e-6: the
    # outage's err_est must charge it, not the G tolerance alone
    import rfuowc.system as system
    cfg, q = grid_cfg("salty/4.7"), OutageQuery(10.0)
    base = outage_closed_form(cfg, q)
    for name in ("exponential_factor_log", "folded_gg_factor_log"):
        real = getattr(system, name)
        monkeypatch.setattr(system, name, lambda *args, f=real: (f(*args)[0], 1e-7))
    loose = outage_closed_form(cfg, q)
    assert loose.value == base.value
    assert loose.err_est >= 500.0 * base.err_est


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


class TestBracket:
    @pytest.mark.parametrize("mu1", (1e2, 1e4))
    @pytest.mark.parametrize("key", sorted(WATER_PRESETS))
    @pytest.mark.parametrize("pointing", (WEAK, STRONG), ids=("weak", "strong"))
    def test_window_leaves_out_no_more_than_it_claims(self, key, pointing, mu1):
        cfg = grid_cfg(key, mu1=mu1, pointing=pointing)
        for sys_ in (cfg, cfg.floored()):
            args = (sys_.rho, sys_.egg, sys_.pointing)
            u_lo, u_hi, trunc = _bracket(*args)
            assert uowc_snr_cdf(math.exp(u_lo), *args) < 1e-15
            assert 1.0 - uowc_snr_cdf(math.exp(u_hi), *args) <= trunc
