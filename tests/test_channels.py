import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfuowc import channels as ch
from rfuowc.channels import (
    MAX_RELAYS,
    EggParams,
    PointingParams,
    RfLinkParams,
    UowcLinkParams,
    WATER_PRESETS,
    egg_moment,
    get_preset,
    relay_constant_c,
    rf_avg_power_gain,
    rf_avg_snr,
    rf_snr_cdf,
    rf_snr_cdf_sum,
    rf_snr_pdf,
    uowc_snr_cdf,
    uowc_snr_pdf,
    _pdf_times_x,
)
from rfuowc.mc import sample_rf_best_snr
from rfuowc.quadrature import adaptive_quad
from rfuowc.specfun import MeijerGSpec, meijer_g
from rfuowc.system import SystemConfig

# a RuntimeWarning (ln 0, inf - inf) in an optical or RF evaluator fails the
# test that drew it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

WEAK = PointingParams(a0=0.5076, xi=0.6079)
STRONG = PointingParams(a0=0.1641, xi=0.5244)


def grid_cfg(key="salty/4.7", pointing=WEAK, mu1=100.0):
    return SystemConfig.from_direct_snr(mu1=mu1, n_relays=3,
                                        egg=get_preset(key).egg,
                                        pointing=pointing, uowc_scale=mu1)


class TestPresets:
    def test_registry_has_exactly_six_rows(self):
        assert sorted(WATER_PRESETS) == [
            "fresh/16.5", "fresh/4.7", "fresh/7.1",
            "salty/16.5", "salty/4.7", "salty/7.1",
        ]

    def test_values_as_printed(self):
        egg = get_preset("salty/4.7").egg
        assert (egg.w, egg.lam, egg.a, egg.b, egg.c) == \
            (0.2064, 0.3953, 0.5307, 1.2154, 35.7368)
        egg = get_preset("fresh/16.5").egg
        assert (egg.w, egg.lam, egg.a, egg.b, egg.c) == \
            (0.5117, 0.1602, 0.0075, 2.9963, 216.8356)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_preset("brackish/4.7")


class TestRfHop:
    def test_path_gain(self):
        assert rf_avg_power_gain(RfLinkParams(1, 1, 1e-3, 0.0, 1.0, 1)) == 1e-3
        assert rf_avg_power_gain(RfLinkParams(1, 1, 1e-3, 3.0, 4.0, 1)) == pytest.approx(4e-5)
        assert rf_avg_power_gain(RfLinkParams(1, 1, 1e-3, 30.0, 40.0, 1)) == pytest.approx(4e-7)

    def test_avg_snr(self):
        p = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=0.0,
                         height_l=1.0, n_relays=1)
        assert rf_avg_snr(p) == pytest.approx(1e8)
        p = RfLinkParams(p1=1e-12, sigma1_sq=1e-12, g0=1.0, radius_r=0.0,
                         height_l=1.0, n_relays=1)
        assert rf_avg_snr(p) == pytest.approx(1.0)
        p = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=30.0,
                         height_l=40.0, n_relays=1)
        assert rf_avg_snr(p) == pytest.approx(4e4)

    def test_degenerate_geometry(self):
        with pytest.raises(ValueError):
            RfLinkParams(p1=1, sigma1_sq=1, g0=1, radius_r=0.0, height_l=0.0,
                         n_relays=1)

    def test_pdf_values(self):
        assert rf_snr_pdf(0.0, 2.0, 1) == pytest.approx(0.5)
        mu1 = 3.7
        want = (2.0 / mu1) * (math.exp(-1.0) - math.exp(-2.0))
        assert rf_snr_pdf(mu1, mu1, 2) == pytest.approx(want, rel=1e-13)

    def test_pdf_normalizes(self):
        val, _ = adaptive_quad(lambda x: rf_snr_pdf(x, 3.0, 5), 0.0, 400.0,
                               epsabs=1e-13, epsrel=1e-11)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_cdf_values(self):
        assert rf_snr_cdf(0.0, 5.0, 7) == 0.0
        assert rf_snr_cdf(5.0, 5.0, 1) == pytest.approx(1 - math.exp(-1), rel=1e-13)
        assert rf_snr_cdf(5.0, 5.0, 2) == pytest.approx((1 - math.exp(-1)) ** 2, rel=1e-13)

    def test_binomial_identity_tight_grid(self):
        for n in (1, 4, 9, 16):
            for x in np.geomspace(2.0, 20.0, 100):
                ref = rf_snr_cdf(float(x), 1.0, n)
                assert rf_snr_cdf_sum(float(x), 1.0, n) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.floats(0.5, 30.0), st.floats(0.05, 1e5))
    def test_binomial_identity_loose(self, n, ratio, mu1):
        x = ratio * mu1
        assert rf_snr_cdf_sum(x, mu1, n) == pytest.approx(
            rf_snr_cdf(x, mu1, n), abs=1e-9)

    def test_pdf_is_cdf_derivative(self):
        mu1, n = 4.0, 6
        for x in np.linspace(0.5, 30.0, 12):
            h = 1e-6 * mu1
            want = (rf_snr_cdf(x + h, mu1, n) - rf_snr_cdf(x - h, mu1, n)) / (2 * h)
            assert rf_snr_pdf(x, mu1, n) == pytest.approx(want, rel=1e-6)

    def test_relay_constant(self):
        assert relay_constant_c(10.0, 1) == pytest.approx(11.0, rel=1e-14)
        assert relay_constant_c(10.0, 2) == pytest.approx(16.0, rel=1e-14)
        assert relay_constant_c(1.0, 4) == pytest.approx(1.0 + 25.0 / 12.0, rel=1e-13)

    @pytest.mark.parametrize("mu1", (0.25, 100.0, 7.5e3))
    def test_relay_constant_exact_up_to_max_relays(self, mu1):
        # the alternating binomial sum lost 2.4e-7 at N = 40 and went
        # negative at N = 64
        h_n = Fraction(0)
        for n in range(1, MAX_RELAYS + 1):
            h_n += Fraction(1, n)
            want = 1 + Fraction(mu1) * h_n
            got = relay_constant_c(mu1, n)
            assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 14) * want, n

    def test_relay_constant_is_one_plus_mean(self):
        mu1, n = 3.0, 5
        val, _ = adaptive_quad(lambda x: x * rf_snr_pdf(x, mu1, n), 0.0, 600.0,
                               epsabs=1e-12, epsrel=1e-10)
        assert relay_constant_c(mu1, n) == pytest.approx(1.0 + val, rel=1e-8)

    def test_relay_gain_conventions(self):
        # the relay's G^2 = Pr / (sigma1^2 C) under 'squared', its square
        # under 'literal'; the optical scale is G^2 (P2 eta)^2 / N0
        rf = RfLinkParams(p1=1.0, sigma1_sq=1.0, g0=1.0, radius_r=0.0,
                          height_l=1.0, n_relays=1)
        uowc = UowcLinkParams(eta=1.0, p2=1.0, n0=1.0, pr=2.0)
        egg = get_preset("salty/4.7").egg

        def scale(rf, convention="squared"):
            return SystemConfig.from_link(rf, uowc, egg, WEAK,
                                          gain_convention=convention).uowc_scale

        sq = scale(rf)
        assert sq == pytest.approx(2.0 / relay_constant_c(1.0, 1))
        assert scale(rf, "literal") == pytest.approx(sq ** 2)
        # C = 1 + mu1 H_N grows with N, and the gain falls as 1 / C
        rf3 = replace(rf, n_relays=3)
        assert scale(rf3) == pytest.approx(2.0 / relay_constant_c(1.0, 3))
        with pytest.raises(ValueError):
            scale(rf, "other")

    @pytest.mark.parametrize("mu1, n", [(mu1, 2) for mu1 in (0.0, -1.0, math.nan, math.inf)]
                             + [(1.0, n) for n in (0, 2.5, 65, True)])
    @pytest.mark.parametrize("call", [
        lambda mu1, n: rf_snr_pdf(1.0, mu1, n),
        lambda mu1, n: rf_snr_cdf(1.0, mu1, n),
        lambda mu1, n: rf_snr_cdf_sum(1.0, mu1, n),
        relay_constant_c,
        lambda mu1, n: sample_rf_best_snr(np.random.default_rng(0), mu1, n),
        lambda mu1, n: SystemConfig(mu1, n, 1.0, get_preset("salty/4.7").egg, WEAK),
    ], ids=["pdf", "cdf", "cdf_sum", "relay_constant", "sampler", "system"])
    def test_bad_rf_arguments_raise(self, call, mu1, n):
        with pytest.raises(ValueError):
            call(mu1, n)


class TestIrradianceMoments:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0),
           st.floats(0.05, 3.0), st.floats(0.5, 200.0),
           st.floats(0.05, 1.0), st.floats(0.1, 8.0))
    def test_zeroth_moment_is_one(self, w, lam, a, b, c, a0, xi):
        egg = EggParams(w=w, lam=lam, a=a, b=b, c=c)
        pointing = PointingParams(a0=a0, xi=xi)
        assert egg_moment(0, egg, pointing) == 1.0

    def test_no_jitter_limit(self):
        for key in WATER_PRESETS:
            egg = get_preset(key).egg
            wide = PointingParams(a0=1.0, xi=1e4)
            for n in (1, 2, 3):
                pure = (egg.w * egg.lam ** n * math.factorial(n)
                        + (1 - egg.w) * egg.b ** n
                        * math.exp(math.lgamma(egg.a + n / egg.c)
                                   - math.lgamma(egg.a)))
                assert egg_moment(n, egg, wide) == pytest.approx(pure, rel=1e-6)

    def test_jensen(self):
        for key in WATER_PRESETS:
            egg = get_preset(key).egg
            for pointing in (WEAK, STRONG):
                m1 = egg_moment(1, egg, pointing)
                m2 = egg_moment(2, egg, pointing)
                assert m2 >= m1 * m1

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            egg_moment(-1, get_preset("salty/4.7").egg, WEAK)

    def test_moment_beyond_a_double_is_a_value_error(self):
        # (b A0)^2 overflows: a typed error, not a bare OverflowError
        egg = EggParams(w=0.2, lam=0.4, a=0.5, b=1e200, c=3.0)
        assert math.isfinite(egg_moment(1, egg, WEAK))
        with pytest.raises(ValueError, match="moment 2 is beyond"):
            egg_moment(2, egg, WEAK)


class TestBudget:
    """The optical scale and rho that SystemConfig derives from a physical
    budget."""

    RF = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3, radius_r=100.0,
                      height_l=20.0, n_relays=3)

    def test_mu2_definition(self):
        uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
        egg = get_preset("salty/4.7").egg
        cfg = SystemConfig.from_link(self.RF, uowc, egg, WEAK)
        m1, m2 = egg_moment(1, egg, WEAK), egg_moment(2, egg, WEAK)
        g_sq = 0.1 / (1e-12 * cfg.c_const)
        mu2 = cfg.uowc_scale * m1 ** 2
        assert mu2 == pytest.approx(g_sq * (0.1 * 0.8 * m1) ** 2 / 1e-21, rel=1e-12)
        avg2 = mu2 * m2 / m1 ** 2
        assert cfg.rho == pytest.approx(avg2 / m1 ** 2, rel=1e-12)
        assert avg2 / mu2 >= 1.0  # Jensen

    def test_rho_conventions(self):
        uowc = UowcLinkParams(eta=1.0, p2=1.0, n0=1.0, pr=1.0)
        egg = get_preset("salty/4.7").egg
        cfg = SystemConfig.from_link(self.RF, uowc, egg, WEAK, rho_convention="mu2")
        assert cfg.rho == cfg.uowc_scale * egg_moment(1, egg, WEAK) ** 2
        with pytest.raises(ValueError):
            SystemConfig.from_link(self.RF, uowc, egg, WEAK,
                                   rho_convention="something")
        with pytest.raises(ValueError):
            replace(cfg, rho_convention="something")

    def test_bandwidth_multiplier(self):
        base = UowcLinkParams(eta=1.0, p2=1.0, n0=1e-3, pr=1.0)
        wide = UowcLinkParams(eta=1.0, p2=1.0, n0=1e-3, pr=1.0, bandwidth=10.0)
        egg = get_preset("salty/4.7").egg
        cfg_base = SystemConfig.from_link(self.RF, base, egg, WEAK)
        cfg_wide = SystemConfig.from_link(self.RF, wide, egg, WEAK)
        assert cfg_wide.uowc_scale == pytest.approx(cfg_base.uowc_scale / 10.0)
        assert cfg_wide.rho == pytest.approx(cfg_base.rho / 10.0)


class TestOpticalSnrDistribution:
    def test_pdf_nonnegative_on_log_grid(self):
        cfg = grid_cfg()
        xs = np.geomspace(cfg.rho * 1e-8, cfg.rho * 1e4, 200)
        vals = uowc_snr_pdf(xs, cfg.rho, cfg.egg, cfg.pointing)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("key", ["salty/4.7", "fresh/16.5"])
    def test_pdf_normalizes(self, key):
        cfg = grid_cfg(key)
        lo = math.log(cfg.rho) - 70.0
        hi = math.log(cfg.rho) + 30.0
        val, _ = adaptive_quad(
            lambda u: np.exp(u) * uowc_snr_pdf(np.exp(u), cfg.rho, cfg.egg,
                                               cfg.pointing),
            lo, hi, epsabs=1e-9, epsrel=1e-8)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_cdf_limits(self):
        cfg = grid_cfg("salty/16.5", STRONG)
        scale = cfg.rho * cfg.pointing.a0 * cfg.egg.lam
        beta = min(cfg.pointing.xi2, cfg.egg.a * cfg.egg.c)
        x_small = scale * math.exp(-40.0 / beta)
        assert uowc_snr_cdf(x_small, cfg.rho, cfg.egg, cfg.pointing) <= 1e-6
        assert uowc_snr_cdf(cfg.rho * 1e12, cfg.rho, cfg.egg,
                            cfg.pointing) == pytest.approx(1.0, abs=1e-6)
        assert uowc_snr_cdf(math.inf, cfg.rho, cfg.egg, cfg.pointing) == 1.0

    def test_cdf_monotone_500_points(self):
        cfg = grid_cfg("salty/7.1")
        xs = np.geomspace(cfg.rho * 1e-10, cfg.rho * 1e6, 500)
        vals = uowc_snr_cdf(xs, cfg.rho, cfg.egg, cfg.pointing)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_cdf_derivative_matches_pdf(self):
        cfg = grid_cfg()
        xs = np.geomspace(cfg.rho * 0.01, cfg.rho * 2.0, 20)
        for x in xs:
            h = 1e-4 * x
            num = (uowc_snr_cdf(x + h, cfg.rho, cfg.egg, cfg.pointing)
                   - uowc_snr_cdf(x - h, cfg.rho, cfg.egg, cfg.pointing)) / (2 * h)
            ana = uowc_snr_pdf(x, cfg.rho, cfg.egg, cfg.pointing)
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-300)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EggParams(w=1.5, lam=1, a=1, b=1, c=1)
        with pytest.raises(ValueError):
            EggParams(w=0.5, lam=0.0, a=1, b=1, c=1)
        with pytest.raises(ValueError):
            PointingParams(a0=0.0, xi=1.0)
        with pytest.raises(ValueError):
            PointingParams(a0=1.2, xi=1.0)
        with pytest.raises(ValueError):
            UowcLinkParams(eta=1.0, p2=1.0, n0=0.0, pr=1.0)

    @pytest.mark.parametrize("w", (0.0, 1.0))
    def test_zero_weight_branch_is_not_evaluated(self, w, monkeypatch):
        # at w = 0 or 1 one branch carries the whole mixture; the other's
        # shape never reaches the upper gamma, by the density or by the CDF
        cfg = grid_cfg()
        egg = replace(cfg.egg, w=w)
        xi2 = cfg.pointing.xi2
        live, dead = 1.0 - xi2, egg.a - xi2 / egg.c
        if w == 0.0:
            live, dead = dead, live
        calls = []
        real = ch.ln_gamma_upper_segments
        monkeypatch.setattr(ch, "ln_gamma_upper_segments", lambda segments: calls.append(
            [s for s, *_ in segments]) or real(segments))
        x = np.geomspace(cfg.rho * 1e-3, cfg.rho * 1e3, 7)
        _pdf_times_x(np.log(x), cfg.rho, egg, cfg.pointing)
        uowc_snr_cdf(x, cfg.rho, egg, cfg.pointing)
        assert calls == [[live], [live]]
        assert dead not in calls[0]

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_params(self, bad):
        egg = get_preset("salty/4.7").egg
        for field in ("w", "lam", "a", "b", "c"):
            with pytest.raises(ValueError, match="finite"):
                replace(egg, **{field: bad})
        for field in ("a0", "xi"):
            with pytest.raises(ValueError, match="finite"):
                replace(WEAK, **{field: bad})


PAIRS = [(key, name, pointing) for key in sorted(WATER_PRESETS)
         for name, pointing in (("weak", WEAK), ("strong", STRONG))]
PAIR_IDS = [f"{key}-{name}" for key, name, _ in PAIRS]


def _mp_upper(mpmath, s, z):
    """Gamma(s, z) in mpmath; for tiny z and non-integer s the first terms
    of Gamma(s) - gamma(s, z), which mpmath's own route reaches slowly."""
    if z < 1e-20 and s != int(s):
        return mpmath.gamma(s) - z ** s / s + z ** (s + 1) / (s + 1)
    return mpmath.gammainc(s, z)


def _mp_optical(mpmath, ln_x, rho, egg, pointing):
    """(x * pdf, cdf) of the optical SNR at x = exp(ln_x), in mpmath."""
    mpf = mpmath.mpf
    xi2, c, a, w = mpf(pointing.xi) ** 2, mpf(egg.c), mpf(egg.a), mpf(egg.w)
    z1 = mpmath.exp(mpf(ln_x) - mpmath.log(mpf(egg.lam) * mpf(pointing.a0) * mpf(rho)))
    z2 = mpmath.exp(c * (mpf(ln_x) - mpmath.log(mpf(egg.b) * mpf(pointing.a0) * mpf(rho))))
    g1 = z1 ** xi2 * _mp_upper(mpmath, 1 - xi2, z1)
    g2 = z2 ** (xi2 / c) * _mp_upper(mpmath, a - xi2 / c, z2) / mpmath.gamma(a)
    if z2 > a + 1:
        p2 = 1 - mpmath.gammainc(a, z2, regularized=True)
    else:
        p2 = mpmath.gammainc(a, 0, z2, regularized=True)
    return (w * xi2 * g1 + (1 - w) * xi2 * g2,
            w * (-mpmath.expm1(-z1) + g1) + (1 - w) * (p2 + g2))


class TestOpticalAgainstMpmath:
    """Incomplete-gamma pdf and CDF against mpmath at 30 digits."""

    @pytest.mark.parametrize("key,name,pointing", PAIRS, ids=PAIR_IDS)
    def test_pdf_and_cdf(self, key, name, pointing):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for xi in (pointing.xi, 0.5, 1.0, 2.0, 6.7):
                cfg = grid_cfg(key, PointingParams(a0=pointing.a0, xi=xi))
                for sys_ in (cfg, cfg.floored()):
                    rho, egg, pt = sys_.rho, sys_.egg, sys_.pointing
                    ln_x = math.log(rho) + np.linspace(-40.0, 6.0, 16)
                    pdf = _pdf_times_x(ln_x, rho, egg, pt)
                    cdf = uowc_snr_cdf(np.exp(ln_x), rho, egg, pt)
                    for i, u in enumerate(ln_x):
                        ref_pdf, ref_cdf = _mp_optical(mpmath, u, rho, egg, pt)
                        for got, ref in ((pdf[i], ref_pdf), (cdf[i], ref_cdf)):
                            if ref > 1e-300:
                                assert abs(got - ref) <= 1e-12 * ref, (xi, egg.c, u)

    def test_large_shape_density_keeps_its_digits(self):
        # a = 300, c = 35, xi = 0.3: Gamma(s, z) = Gamma(s) (1 - P(s, z)) at
        # s = a - xi^2/c; adding a ln z to ln(z^-s Gamma(s, z)) cancelled
        # 300 ln z against itself and lost 6.5e-11 at ln z = -1000
        mpmath = pytest.importorskip("mpmath")
        egg = EggParams(w=0.0, lam=0.3953, a=300.0, b=1.2154, c=35.0)
        pointing, rho = PointingParams(a0=0.5076, xi=0.3), 100.0
        ln_z = np.array([-1000.0, -300.0, -100.0, -10.0, -1.0, 0.0, 4.0, 5.5, 5.7, 5.8])
        ln_x = ln_z / egg.c + math.log(egg.b * pointing.a0 * rho)
        got = _pdf_times_x(ln_x, rho, egg, pointing)
        with mpmath.workdps(30):
            for u, g in zip(ln_x, got):
                ref = _mp_optical(mpmath, u, rho, egg, pointing)[0]
                assert abs(g - ref) <= 1e-12 * ref, u

    def test_cdf_formula_differentiates_to_pdf(self):
        # the CDF comes from integrating the density by parts; check that
        # d CDF / d ln x = x * pdf for the mpmath forms themselves.  A wrong
        # term would be off at O(1); 1e-10 leaves room for differencing a
        # CDF within 1e-27 of 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for key, _, pointing in PAIRS:
                for xi in (pointing.xi, 2.0):
                    cfg = grid_cfg(key, PointingParams(a0=pointing.a0, xi=xi))
                    args = (cfg.rho, cfg.egg, cfg.pointing)
                    for u in math.log(cfg.rho) + np.array([-3.0, -0.5, 0.3]):
                        slope = mpmath.diff(
                            lambda v: _mp_optical(mpmath, v, *args)[1], mpmath.mpf(u))
                        want = _mp_optical(mpmath, u, *args)[0]
                        assert abs(slope - want) <= 1e-10 * want, (key, xi, u)


class TestOpticalAgainstMeijerG:
    """Each mixture branch on its own (w = 1, w = 0) against scalar meijer_g
    of the G-function form the optical hop was once computed from.

    Past the residue series' reach these G values come from the contour,
    which is slow at z = 399 (the most costly test of this module) and cannot
    reach the far tail at all; the grid stops there.
    """

    LN_Z = np.linspace(-12.0, math.log(399.0), 6)

    def _check(self, cfg, branch, scale, c, a, norm):
        xi2 = cfg.pointing.xi2
        s = xi2 / c
        spec_pdf = MeijerGSpec(m=2, n=0, a=(s + 1.0,), b=(a, s))
        spec_cdf = MeijerGSpec(m=2, n=1, a=(1.0, s + 1.0), b=(a, s, 0.0))
        ln_x = math.log(scale * cfg.pointing.a0 * cfg.rho) + self.LN_Z / c
        pdf = _pdf_times_x(ln_x, cfg.rho, branch, cfg.pointing)
        cdf = uowc_snr_cdf(np.exp(ln_x), cfg.rho, branch, cfg.pointing)
        for i, ln_z in enumerate(self.LN_Z):
            z = math.exp(ln_z)
            assert pdf[i] == pytest.approx(xi2 * meijer_g(spec_pdf, z) / norm,
                                           rel=1e-9)
            assert cdf[i] == pytest.approx(xi2 * meijer_g(spec_cdf, z) / (c * norm),
                                           rel=1e-9)

    @pytest.mark.parametrize("pointing", (WEAK, STRONG), ids=("weak", "strong"))
    def test_exponential_branch(self, pointing):
        cfg = grid_cfg("salty/4.7", pointing)
        self._check(cfg, replace(cfg.egg, w=1.0), cfg.egg.lam, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("key,name,pointing", PAIRS, ids=PAIR_IDS)
    def test_generalized_gamma_branch(self, key, name, pointing):
        cfg = grid_cfg(key, pointing)
        egg = cfg.egg
        self._check(cfg, replace(egg, w=0.0), egg.b, egg.c, egg.a,
                    math.gamma(egg.a))
