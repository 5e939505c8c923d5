import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfuowc.channels import PointingParams, RfLinkParams, UowcLinkParams, \
    WATER_PRESETS, get_preset, rf_snr_cdf, uowc_snr_cdf
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
        cfg = grid_cfg()
        assert cfg.budget_residual() <= 1e-12

    def test_physical_budget_reproducible(self):
        rf = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=100.0,
                          height_l=20.0, n_relays=4)
        uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
        cfg = SystemConfig.from_params(rf, uowc, get_preset("fresh/7.1").egg, WEAK)
        assert cfg.budget_residual() <= 1e-12

    def test_direct_snr_pins_mu_values(self):
        cfg = SystemConfig.from_direct_snr(mu1=250.0, n_relays=2,
                                           egg=get_preset("salty/7.1").egg,
                                           pointing=WEAK, mu2=77.0)
        assert cfg.budget.mu1 == pytest.approx(250.0, rel=1e-12)
        assert cfg.budget.mu2 == pytest.approx(77.0, rel=1e-12)

    def test_direct_snr_needs_exactly_one_scale(self):
        egg = get_preset("salty/7.1").egg
        with pytest.raises(ValueError):
            SystemConfig.from_direct_snr(mu1=1.0, n_relays=1, egg=egg,
                                         pointing=WEAK)
        with pytest.raises(ValueError):
            SystemConfig.from_direct_snr(mu1=1.0, n_relays=1, egg=egg,
                                         pointing=WEAK, uowc_scale=1.0, mu2=1.0)

    def test_floored_recomputes_budget(self):
        cfg = grid_cfg("salty/16.5")
        flo = cfg.floored()
        assert flo.egg.c == 82.0
        assert flo.budget_residual() <= 1e-12
        assert flo.budget.rho != cfg.budget.rho

    def test_query_validation(self):
        with pytest.raises(ValueError):
            OutageQuery(0.0)
        with pytest.raises(ValueError):
            OutageQuery(-2.0)


class TestOutage:
    def test_threshold_limits(self):
        # moderate-tail pointing: with the heavy Fig-3 jitter (xi^2 = 0.37)
        # the outage decays like gamma_th^0.37 and 1e-12 is genuinely ~8e-6
        mild = PointingParams(a0=0.8, xi=2.0)
        cfg = grid_cfg(pointing=mild)
        for method in (outage_closed_form,
                       lambda c, q: outage_quadrature(c, q, floor_c=True)):
            assert method(cfg, OutageQuery(1e-12)).value <= 1e-6
            assert method(cfg, OutageQuery(1e12 * cfg.budget.mu1)).value >= 1.0 - 1e-6

    def test_closed_form_matches_quadrature(self):
        for key, gth in (("salty/4.7", 10.0), ("fresh/7.1", 1.0)):
            cfg = grid_cfg(key)
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
            lower = rf_snr_cdf(gth, cfg.budget.mu1, cfg.rf.n_relays)
            assert lower - 1e-9 <= p <= 1.0

    def test_result_fields(self):
        cfg = grid_cfg()
        res = outage_quadrature(cfg, OutageQuery(5.0))
        assert res.method == "quadrature"
        assert res.err_est >= 0.0
        assert res.c_used == cfg.egg.c
        assert not res.clamped


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
            args = (sys_.budget, sys_.egg, sys_.pointing)
            u_lo, u_hi, trunc = _bracket(*args)
            assert uowc_snr_cdf(math.exp(u_lo), *args) < 1e-15
            assert 1.0 - uowc_snr_cdf(math.exp(u_hi), *args) <= trunc
