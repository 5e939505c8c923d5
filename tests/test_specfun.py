import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rfuowc.specfun as sf
from rfuowc.channels import WATER_PRESETS
from rfuowc.specfun import (
    ContourError,
    GammaDomainError,
    MeijerGSpec,
    NonConvergenceError,
    CapabilityError,
    REL_TOL,
    ln_abs_gamma_signed,
    ln_gamma,
    ln_gamma_complex,
    gamma_p,
    ln_gamma_upper_scaled,
    meijer_g,
    meijer_g_log,
    meijer_g_mellin_barnes,
)

XI2 = 0.6079 ** 2

SPEC_EXP = MeijerGSpec(m=1, n=0, a=(), b=(0.0,))
SPEC_BESSEL = MeijerGSpec(m=2, n=0, a=(), b=(0.0, 0.0))
SPEC_PDF = MeijerGSpec(m=2, n=0, a=(XI2 + 1.0,), b=(1.0, XI2))
SPEC_CDF = MeijerGSpec(m=2, n=1, a=(1.0, XI2 + 1.0), b=(1.0, XI2, 0.0))
SPEC_OUTAGE = MeijerGSpec(m=3, n=0, a=(XI2 + 1.0,), b=(1.0, XI2, 0.0))


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_accuracy_against_libm(self):
        xs = np.geomspace(1e-3, 1e4, 500)
        mine = ln_gamma(xs)
        ref = np.array([math.lgamma(x) for x in xs])
        np.testing.assert_allclose(mine, ref, rtol=2e-14, atol=5e-14)

    def test_domain_error(self):
        with pytest.raises(GammaDomainError):
            ln_gamma(0.0)
        with pytest.raises(GammaDomainError):
            ln_gamma(-3.2)
        with pytest.raises(GammaDomainError):
            ln_gamma([1.0, -1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=5e3))
    def test_recurrence(self, x):
        lhs = ln_gamma(x + 1.0)
        rhs = ln_gamma(x) + math.log(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_complex_matches_real_axis(self):
        zs = np.array([0.37, 1.0, 8.5, 123.0])
        # the complex path (shift plus Stirling) is good to ~1e-14 absolute
        # below 12, which rtol alone cannot allow for where ln Gamma = 0
        np.testing.assert_allclose(ln_gamma_complex(zs + 0j).real,
                                   ln_gamma(zs), rtol=1e-13, atol=1e-14)

    def test_complex_modulus_identity(self):
        # |Gamma(iy)|^2 = pi / (y sinh(pi y))
        y = 1.7
        got = 2.0 * ln_gamma_complex(1j * y).real
        want = math.log(math.pi / (y * math.sinh(math.pi * y)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_signed_negative_arguments(self):
        la, sg = ln_abs_gamma_signed(-0.5)
        assert sg == -1.0
        assert sg * math.exp(la) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
        la, sg = ln_abs_gamma_signed(-1.5)
        assert sg == 1.0
        assert sg * math.exp(la) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-13)

    def test_signed_poles(self):
        la, sg = ln_abs_gamma_signed(np.array([0.0, -1.0, -7.0]))
        assert np.all(np.isposinf(la))
        assert np.all(sg == 0.0)


class TestMeijerG:
    def test_exponential_reduction(self):
        for z in np.geomspace(1e-3, 50.0, 40):
            got = meijer_g(SPEC_EXP, float(z))
            assert got == pytest.approx(math.exp(-z), rel=1e-10)

    def test_bessel_reduction(self):
        kv = pytest.importorskip("scipy.special").kv
        assert meijer_g(SPEC_BESSEL, 1.0) == pytest.approx(0.2277877454990668, rel=1e-8)
        for z in np.geomspace(0.01, 30.0, 10):
            want = 2.0 * kv(0, 2.0 * math.sqrt(z))
            assert meijer_g(SPEC_BESSEL, float(z)) == pytest.approx(want, rel=1e-8)

    def test_pdf_kernel_golden(self):
        # frozen from the contour-integral oracle before the series build
        assert meijer_g(SPEC_PDF, 0.5) == pytest.approx(0.440750741753136, rel=1e-9)

    def test_pdf_kernel_nonnegative(self):
        vals = [meijer_g(SPEC_PDF, float(z)) for z in np.geomspace(1e-6, 60.0, 120)]
        assert min(vals) >= 0.0

    def test_outage_kernel_matches_mpmath(self):
        # the (1, 0) lower-parameter pair meets in double poles: the log-case
        # series answers at small arguments, the contour where it cancels
        # (mpmath takes seconds beyond ln z = 11)
        for ln_z in (-3.9, -0.36, 1.39, 10.6, 11.0):
            ref = _mpmath_g(SPEC_OUTAGE, math.exp(ln_z))
            got = meijer_g(SPEC_OUTAGE, math.exp(ln_z))
            assert abs(got - ref) <= 1e-10 * abs(ref), ln_z
            if ln_z < 2.0:
                assert sf._series_attempt(SPEC_OUTAGE, ln_z) is not None, ln_z

    def test_cdf_kernel_saturates(self):
        lo = meijer_g(SPEC_CDF, 1e-9)
        hi = meijer_g(SPEC_CDF, 1e12)
        assert 0.0 <= lo < 1e-2
        assert hi == pytest.approx(1.0 / XI2, rel=1e-9)

    def test_log_interface_handles_huge_arguments(self):
        # log G ~ -e^300 lies beyond the contour's reach: a typed error, not
        # a value of the wrong sign
        with pytest.raises(NonConvergenceError):
            meijer_g_log(SPEC_PDF, 300.0)

    def test_batch_matches_scalar(self):
        # the pdf kernel is z^xi2 Gamma(1 - xi2, z): the vectorized
        # incomplete-gamma form must match scalar G evaluation
        ln_z = np.log(np.geomspace(1e-3, 40.0, 25))
        batch = np.exp(ln_z + ln_gamma_upper_scaled(1.0 - XI2, ln_z))
        single = np.array([meijer_g(SPEC_PDF, float(np.exp(l))) for l in ln_z])
        np.testing.assert_allclose(batch, single, rtol=1e-9)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            meijer_g(SPEC_EXP, 0.0)
        with pytest.raises(ValueError):
            meijer_g(SPEC_EXP, -1.0)
        with pytest.raises(ValueError):
            meijer_g(SPEC_EXP, math.inf)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MeijerGSpec(m=3, n=0, a=(), b=(0.0, 1.0))  # m > q
        with pytest.raises(CapabilityError):
            MeijerGSpec(m=1, n=1, a=(0.5, 0.7), b=(0.0,))  # p >= q
        with pytest.raises(CapabilityError):
            MeijerGSpec(m=2, n=0, a=(0.1, 0.2, 0.3), b=(0.0, 0.5, 1.0, 1.5))  # p > 2
        with pytest.raises(CapabilityError):
            MeijerGSpec(m=1, n=2, a=(0.5, 0.7), b=(0.0, 0.2, 0.4))  # n > 1


class TestMellinBarnes:
    def test_exponential(self):
        res = meijer_g_mellin_barnes(SPEC_EXP, 1.0)
        assert res.value == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert res.err_est < 1e-10

    def test_bessel(self):
        kv = pytest.importorskip("scipy.special").kv
        res = meijer_g_mellin_barnes(SPEC_BESSEL, 0.25)
        assert res.value == pytest.approx(2.0 * kv(0, 1.0), rel=1e-10)

    def test_contour_error(self):
        bad = MeijerGSpec(m=2, n=1, a=(2.0, 2.5), b=(0.5, 0.3, 0.0))
        with pytest.raises(ContourError):
            meijer_g_mellin_barnes(bad, 1.0)

    def test_self_consistency_with_series(self):
        for z in (0.05, 0.4, 1.8):
            series = meijer_g(SPEC_PDF, z)
            mb = meijer_g_mellin_barnes(SPEC_PDF, z)
            tol = REL_TOL * abs(series) + mb.err_est + 1e-14
            assert abs(series - mb.value) <= tol

    def test_non_convergence_path(self, monkeypatch):
        # the dispatcher must surface a failed contour run once the series
        # has already been rejected for cancellation
        import rfuowc.specfun as sf
        monkeypatch.setattr(sf, "_mb_eval", lambda *a, **k: (1.0, 0.0, 0.5))
        with pytest.raises(NonConvergenceError):
            sf.meijer_g(SPEC_PDF, 25.0)


# Instances from the series-vs-contour check of acceptance criterion 5
# (check_specfun at seed 424244).  The four G^{2,1}_{2,3} draws once put the
# contour abscissa within an ulp of a pole; the G^{5,0}_{1,5} draw cancels
# by ~2e4, so its series estimate depends on the log-gamma being accurate in
# absolute terms.
CONTOUR_DRAWS = [
    (MeijerGSpec(m=2, n=1, a=(0.3846485906785869, 2.2105560505251467),
                 b=(1.3011996061489566, 0.8993923487285926, 0.0)),
     0.09108656038367559),
    (MeijerGSpec(m=2, n=1, a=(0.26243098631268713, 1.8752819776066874),
                 b=(1.3159879599561917, 0.9370708336815916, 0.0)),
     2.2872041884674164),
    (MeijerGSpec(m=2, n=1, a=(0.5123628919775088, 2.3483518002623764),
                 b=(1.204873709943715, 0.7732946589366543, 0.0)),
     0.06689307056805063),
    (MeijerGSpec(m=2, n=1, a=(0.5150880630429793, 1.76029030463793),
                 b=(1.1033963339943997, 0.6950555467818617, 0.0)),
     0.13499350791622264),
]
CONTOUR_IDS = ["draw41", "draw57", "draw62", "draw99"]
CANCELLING_DRAW = (
    MeijerGSpec(m=5, n=0, a=(1.2155717582310472,),
                b=(0.40799672560209904, 0.21557175823104724, 0.0,
                   1.0 / 3.0, 2.0 / 3.0)),
    0.8020015507569972,
)


def _mpmath_g(spec, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.meijerg([spec.a[:spec.n], spec.a[spec.n:]],
                                    [spec.b[:spec.m], spec.b[spec.m:]], z))


class TestCriterion5Draws:
    @pytest.mark.parametrize("spec,z", CONTOUR_DRAWS, ids=CONTOUR_IDS)
    def test_contour_abscissa_stays_off_the_poles(self, spec, z):
        sigma = sf._mb_sigma(spec, math.log(z))
        lo = max(spec.a[:spec.n]) - 1.0
        hi = min(spec.b[:spec.m])
        assert sigma - lo >= 1e-7 * (1.0 + abs(lo))
        assert hi - sigma >= 1e-7 * (1.0 + abs(hi))

    @pytest.mark.parametrize("spec,z", CONTOUR_DRAWS, ids=CONTOUR_IDS)
    def test_contour_matches_mpmath(self, spec, z):
        ref = _mpmath_g(spec, z)
        res = meijer_g_mellin_barnes(spec, z)
        assert abs(res.value - ref) <= res.err_est + 1e-10 * abs(ref)

    @pytest.mark.parametrize("spec,z", CONTOUR_DRAWS + [CANCELLING_DRAW],
                             ids=CONTOUR_IDS + ["draw71"])
    def test_contour_estimate_bounds_its_error(self, spec, z):
        ref = _mpmath_g(spec, z)
        res = meijer_g_mellin_barnes(spec, z)
        assert abs(res.value - ref) <= res.err_est

    def test_contour_conditioning_is_scaled_by_the_step(self):
        # both passes' absolute sums enter the conditioning scaled by h/pi;
        # with the last pass's sum unscaled, draw 71's estimate read 1.2106e-13
        spec, z = CANCELLING_DRAW
        assert sf._mb_eval(spec, math.log(z))[2] < 1.19e-13

    def test_cancelling_series_matches_mpmath(self):
        spec, z = CANCELLING_DRAW
        ref = _mpmath_g(spec, z)
        assert meijer_g(spec, z) == pytest.approx(ref, rel=1e-10)

    def test_cancelling_series_estimate_is_a_bound(self):
        spec, z = CANCELLING_DRAW
        ref = _mpmath_g(spec, z)
        got = sf._series_attempt(spec, math.log(z))
        if got is not None:
            sign, logabs, rel_est = got
            assert abs(sign * math.exp(logabs) - ref) <= rel_est * abs(ref)


def test_digamma_and_trigamma_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.geomspace(1e-3, 1e5, 120),
                         -np.geomspace(1e-2, 60.0, 80) + 0.37])
    xs = xs[np.abs(xs - np.round(xs)) > 1e-2]
    psi, tri = sf._psi01(xs)
    with mpmath.workdps(40):
        for x, p, t in zip(xs, psi, tri):
            ref_p = mpmath.digamma(mpmath.mpf(float(x)))
            ref_t = mpmath.psi(1, mpmath.mpf(float(x)))
            assert abs(p - ref_p) <= 4e-15 * (1 + abs(ref_p)), x
            assert abs(t - ref_t) <= 4e-15 * abs(ref_t), x


def test_lgamma_pos_absolute_accuracy_matches_libm():
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.geomspace(1e-6, 1e-3, 60, endpoint=False),
                         np.linspace(1e-3, 12.0, 2400, endpoint=False)])
    mine = sf._lgamma_pos(xs)
    libm = [math.lgamma(x) for x in xs]
    err_mine = err_libm = 0.0
    with mpmath.workdps(40):
        for x, a, b in zip(xs, mine, libm):
            ref = mpmath.loggamma(mpmath.mpf(float(x)))
            err_mine = max(err_mine, float(abs(mpmath.mpf(float(a)) - ref)))
            err_libm = max(err_libm, float(abs(mpmath.mpf(b) - ref)))
    assert err_mine <= err_libm


# s = 1 - xi^2 at xi = 6.7, 2, 1 and the weak pointing (0.63), the GG
# exponents a - xi^2/c of fresh/16.5 and salty/16.5 (0.0058, 0.0116), the
# edge s = -1/2 of the small-argument split, and s > 1/2 (1.24, 5.5)
S_VALUES = (-43.89, -3.0, -0.5, 0.0, 0.0058, 0.0116, 0.63, 1.24, 5.5)
# wide sweep, points on both sides of the switch to the continued fraction
# at z = max(1.5, s + 1), and the fraction's slow region 1.5 < z < 60, where
# its depth is set by the smallest z of the call
LN_Z = np.concatenate([np.linspace(-700.0, 700.0, 57), np.linspace(-4.0, 3.0, 29),
                       np.log([1.4999, 1.5001, 2.2399, 2.2401, 6.4999, 6.5001]),
                       np.linspace(math.log(1.5), math.log(60.0), 30)])


# the shapes the optical kernels and the real-line forms pass: 1 - xi^2 and
# a - xi^2/c (c floored) of every preset at both pointings, -xi^2 and
# 1 - 2 xi^2 at both pointings, and S_VALUES
KERNEL_XI2 = (0.6079 ** 2, 0.5244 ** 2)
KERNEL_S = sorted({round(s, 12) for s in S_VALUES + tuple(
    shape for xi2 in KERNEL_XI2 for shape in (
        1.0 - xi2, -xi2, 1.0 - 2.0 * xi2,
        *(p.egg.a - xi2 / math.floor(p.egg.c) for p in WATER_PRESETS.values())))})
EPS = 2.0 ** -52


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestIncompleteGamma:
    @pytest.mark.parametrize("s", S_VALUES)
    def test_upper_matches_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        got = s * LN_Z + ln_gamma_upper_scaled(s, LN_Z)
        with mpmath.workdps(40):
            for ln_z, g in zip(LN_Z, got):
                ref = float(mpmath.log(mpmath.gammainc(s, mpmath.exp(ln_z))))
                if -690.0 < ref < 690.0:  # the value itself is a float
                    assert abs(math.expm1(g - ref)) <= 1e-12, (s, ln_z)
                else:
                    assert abs(g - ref) <= 1e-12 * abs(ref), (s, ln_z)

    @pytest.mark.parametrize("a", (0.0075, 0.0161, 0.3935, 1.0, 1.2526, 5.5))
    def test_lower_regularized_matches_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        got = gamma_p(a, LN_Z)
        with mpmath.workdps(40):
            for ln_z, g in zip(LN_Z, got):
                ref = mpmath.gammainc(a, 0, mpmath.exp(ln_z), regularized=True)
                if ref > 1e-300:
                    assert abs(g - ref) <= 1e-12 * ref, (a, ln_z)

    def test_overflowing_argument_gives_minus_inf(self):
        ln_z = np.array([709.0, 710.0, 1e4, np.inf])
        for s in S_VALUES:
            got = ln_gamma_upper_scaled(s, ln_z)
            assert not np.any(np.isnan(got))
            assert np.all(np.isneginf(got[1:]))
        assert np.all(gamma_p(0.5, ln_z) == 1.0)

    def test_tiny_argument_stays_finite(self):
        # Gamma(s, z) -> Gamma(s) for s > 0 and -> z^s / |s| for s < 0
        for s, want in ((0.63, math.lgamma(0.63) + 0.63 * 6e4),
                        (-43.89, -math.log(43.89)), (-0.5, -math.log(0.5))):
            np.testing.assert_allclose(ln_gamma_upper_scaled(s, -6e4), want,
                                       rtol=1e-14)
        # at z = 0 itself, the limits: z^-s Gamma(s, z) -> 1 / -s for s < 0,
        # and +inf from s = 0 up (E1(0) = inf at s = 0)
        for s in (-43.89, -3.0, -0.5, 0.0, 0.0058, 0.3, 0.5, 0.63, 5.5):
            got = ln_gamma_upper_scaled(s, np.array([-np.inf, 0.0]))[0]
            assert got == (-math.log(-s) if s < 0.0 else np.inf), s

    @pytest.mark.parametrize("s", (-0.7, 0.0, 0.3, 0.6, 2.5))
    def test_zero_argument_gives_the_limit_at_every_power(self, s):
        # z^(a-s) Gamma(s, z) -> z^(a-m) times Gamma(s) (s > 0), -ln z (s = 0)
        # or 1/-s (s < 0), m = max(s, 0), with or without p = a - s; z beyond
        # the float range stays -inf
        m = max(s, 0.0)
        at_m = math.lgamma(s) if s > 0.0 else -math.log(-s) if s < 0.0 else math.inf
        for a, want in ((m - 1.0, math.inf), (m, at_m), (m + 0.5, -math.inf)):
            for p in (None, a - s):
                got = ln_gamma_upper_scaled(s, np.array([-np.inf, np.inf]), a, p)
                assert got.tolist() == [want, -math.inf], (a, p)

    @pytest.mark.parametrize("s", S_VALUES)
    def test_one_call_serves_mixed_arguments(self, s):
        # the fraction's depth is set by the smallest z of a call and the
        # series' lengths by the largest: each element of a mixed call must
        # equal its own one-element call
        ln_z = np.append(np.log([1.5001, abs(s) + 1.0001, 5.0, 40.0, 1e3]), 710.0)
        for f, shape in ((ln_gamma_upper_scaled, s), (gamma_p, abs(s) + 0.01)):
            for l, g in zip(ln_z, f(shape, ln_z)):
                one = f(shape, np.array([l]))[0]
                assert g == one or abs(g - one) <= 1e-15 * abs(one), (s, l)
        assert np.isneginf(ln_gamma_upper_scaled(s, ln_z)[-1])

    def test_domain(self):
        # libm's lgamma is finite at negative non-integers: gamma_p checks a
        for a in (0.0, -0.5, -2.0):
            with pytest.raises(GammaDomainError):
                gamma_p(a, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(GammaDomainError):
                ln_gamma_upper_scaled(bad, np.array([0.5, 2.0]))
            with pytest.raises(GammaDomainError):
                gamma_p(bad, np.array([0.5, 2.0]))
        for f in (ln_gamma_upper_scaled, gamma_p):
            with pytest.raises(ValueError, match="ln_z"):
                f(0.63, np.array([0.5, math.nan, 2.0]))
        assert ln_gamma_upper_scaled(0.5, 0.0) == pytest.approx(
            math.log(math.sqrt(math.pi) * math.erfc(1.0)), rel=1e-14)

    def test_empty_branches_are_skipped(self, monkeypatch):
        calls = []
        for name in ("_ln_lower_series", "_upper_small_z"):
            def stub(s, arr, *rest, name=name):
                calls.append(name)
                return np.full_like(arr, -1.0)
            monkeypatch.setattr(sf, name, stub)

        def fraction(parts):
            calls.append(("_upper_cf", [z.tolist() for _, z in parts]))
            return [np.full_like(z, -1.0) for _, z in parts]

        def bridge(s, ln_z, z, ln_end):
            calls.append(("_bridge", z.size, ln_end))
            return np.full_like(z, -2.0)

        monkeypatch.setattr(sf, "_upper_cf", fraction)
        monkeypatch.setattr(sf, "_bridge", bridge)
        # in each call one branch's mask alone is non-empty, or none is; a
        # bridged shape's fraction runs at z = 4 alone, or at its z > 4 and 4
        ln_gamma_upper_scaled(0.3, np.log([6.0, 40.0]))
        ln_gamma_upper_scaled(0.3, np.log([2.0, 3.0]))
        ln_gamma_upper_scaled(-3.0, np.log([2.0, 6.0]))  # below the bridge's shapes
        ln_gamma_upper_scaled(0.3, np.log([0.5, 1.0]))
        ln_gamma_upper_scaled(5.5, np.array([-np.inf, -np.inf]))
        gamma_p(5.5, np.log([0.5, 2.0]))
        gamma_p(0.3, np.log([2.0, 40.0]))
        assert calls == [("_upper_cf", [[6.0, 40.0]]),
                         ("_upper_cf", [[4.0]]), ("_bridge", 2, -1.0),
                         ("_upper_cf", [[2.0, 6.0]]), "_upper_small_z", "_ln_lower_series",
                         ("_upper_cf", [[40.0, 4.0]]), ("_bridge", 1, -1.0)]
        # the segments of one call share one fraction pass
        calls.clear()
        got = sf.ln_gamma_upper_segments([(0.3, np.log([2.0, 40.0]), 0.0, None),
                                          (-3.0, np.log([2.0]), 0.0, None),
                                          (0.3, np.log([0.5]), 0.0, None)])
        assert calls == [("_upper_cf", [[40.0, 4.0], [2.0]]), ("_bridge", 1, -1.0),
                         "_upper_small_z"]
        assert [g.tolist() for g in got] == [[-2.0, -1.0], [-1.0], [-1.0]]

    @pytest.mark.parametrize("s", KERNEL_S)
    def test_fraction_and_bridge_keep_their_digits(self, s):
        # the window of the fraction and the bridge, z from max(1.5, s + 1)
        # to 60, both sides of the bridge's end at z = 4
        mpmath = pytest.importorskip("mpmath")
        lo = max(1.5, s + 1.0)
        z = np.concatenate([np.geomspace(lo, 60.0, 41)[1:], [lo * (1.0 + 1e-9)],
                            [3.999, 4.0, 4.001] if lo < 3.999 else []])
        ln_z = np.log(z)
        got = ln_gamma_upper_scaled(s, ln_z)
        with mpmath.workdps(40):
            for l, g in zip(ln_z, got):
                ref = float(mpmath.log(mpmath.gammainc(s, mpmath.exp(l))) - s * l)
                assert abs(g - ref) <= 4.0 * EPS * max(1.0, abs(ref)), (s, l)

    def test_segments_equal_their_one_segment_calls(self):
        # one fraction pass runs every segment at the deepest level any needs
        ln_z = np.log(np.concatenate([np.geomspace(0.01, 1.5, 7), np.geomspace(1.6, 200.0, 17)]))
        segments = [(s, ln_z + shift, a, p) for s, shift, a, p in (
            (0.6305, 0.0, 0.0, None), (0.0127, 0.4, 0.5307, 0.5180), (-0.3695, -0.3, 0.0, None),
            (-43.89, 0.2, 0.0, None), (1.2436, 0.0, 1.2526, 0.0090), (5.5, 0.1, 0.0, None))]
        for (s, lz, a, p), g in zip(segments, sf.ln_gamma_upper_segments(segments)):
            one = ln_gamma_upper_scaled(s, lz, a, p)
            assert np.all(np.abs(g - one) <= 2.0 * np.spacing(np.abs(one))), s

    def test_bridge_rule_is_gauss_legendre(self):
        # the stored digits against numpy's rule, whose nodes are within an
        # ulp and weights within 16 ulp of them
        x, w = np.polynomial.legendre.leggauss(14)
        assert np.all(np.abs(sf._BRIDGE_X - x) <= np.spacing(np.abs(x)))
        np.testing.assert_allclose(sf._BRIDGE_W, w, rtol=4e-15)


class TestScaledLadders:
    @pytest.mark.parametrize("B", (1, 3, 77))
    def test_single_scaled_gamma_is_a_stretched_exponential(self, B):
        # H^{1,0}_{0,1}(z | (0, B)) = (1/B) exp(-z^(1/B))
        spec = MeijerGSpec(m=1, n=0, a=(), b=(0.0,), scales=(B,))
        for x in np.geomspace(0.02, 30.0, 10):
            z = float(x) ** B
            want = math.exp(-x) / B
            assert meijer_g(spec, z) == pytest.approx(want, rel=1e-12)
            assert meijer_g_mellin_barnes(spec, z).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("c", (3, 5, 7))
    def test_folded_closed_form_factor_matches_the_g_form(self, c):
        # Gauss multiplication: prod_j Gamma(j/c - s) =
        # (2 pi)^((c-1)/2) c^(1/2) c^(c s) Gamma(-c s)
        a, x = 0.4079967256, 0.2155717582 / c
        old = MeijerGSpec(m=c + 2, n=0, a=(x + 1.0,),
                          b=tuple([a, x] + [j / c for j in range(c)]))
        new = MeijerGSpec(m=3, n=0, a=(x + 1.0,), b=(a, x, 0.0), scales=(1, 1, c))
        log_gauss = 0.5 * (c - 1) * math.log(2.0 * math.pi) + 0.5 * math.log(c)
        checked = 0
        for ln_z in np.linspace(-12.0, 3.0, 31):
            got = sf._series_attempt(old, ln_z)
            if got is None:
                continue
            checked += 1
            sign, logabs = meijer_g_log(new, ln_z + c * math.log(c))
            assert sign == got[0]
            # where the old series cancels, it is itself only as good as its
            # estimate (up to 7e-11 off mpmath here), so the two may differ
            # by their estimates; elsewhere they agree to 1e-12
            new_est = sf._series_attempt(new, ln_z + c * math.log(c))[2]
            tol = max(1e-12, got[2] + new_est)
            assert abs(math.expm1(logabs + log_gauss - got[1])) <= tol, ln_z
        assert checked >= 10

    def test_ladders_of_different_scales_meet_at_integer_xi2(self):
        # Gamma(-c s) has a pole at s = xi2/c, where the rational factor
        # Gamma(xi2/c - s) / Gamma(xi2/c + 1 - s) = 1 / (xi2/c - s) has its
        # one: a double pole there, and nowhere else
        for xi2, meets in ((4.0, True), (1.0, True), (0.3695, False)):
            spec = MeijerGSpec(m=3, n=0, a=(xi2 / 35 + 1.0,), b=(0.41, xi2 / 35, 0.0),
                               scales=(1, 1, 35))
            tab = sf._SeriesTable(spec, 8)
            # the ladders of Gamma(0.41 - s) and Gamma(-35 s), and one pole
            assert tab.s.size == 8 + 35 * 8 + 1
            assert tab.poly.shape[1] == (2 if meets else 1)
            if meets:
                double = tab.s[(tab.poly[:, 1] != 0.0) & np.isfinite(tab.logc)]
                np.testing.assert_array_equal(double, [xi2 / 35])

    def test_scale_validation(self):
        for scales in ((1, 2.5), (0, 1), (1,), (1, 2, 3)):
            with pytest.raises(CapabilityError):
                MeijerGSpec(m=2, n=0, a=(1.5,), b=(0.0, 0.5), scales=scales)
        with pytest.raises(CapabilityError):
            MeijerGSpec(m=2, n=1, a=(0.5, 1.5), b=(0.0, 0.5, 0.2), scales=(1, 2))
        with pytest.raises(CapabilityError):  # as large as a q of 10^6
            MeijerGSpec(m=1, n=0, a=(), b=(0.0,), scales=(10 ** 6,))
        plain = MeijerGSpec(m=2, n=0, a=(1.5,), b=(0.0, 0.5))
        assert plain.scales == (1, 1)
        assert plain == MeijerGSpec(m=2, n=0, a=(1.5,), b=(0.0, 0.5), scales=(1, 1))


def test_series_table_evaluates_each_factor_once(monkeypatch):
    # the folded factor at c = 35: ladders Gamma(a - s) and Gamma(-35 s) and
    # the pole of 1 / (x - s), each gamma factor evaluated once over the
    # poles of all three
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return ln_abs_gamma_signed(x)

    spec = sf._folded_spec(0.5307, XI2, 35)
    gammas = [f for f in sf._kernel_factors(spec) if f[3]]
    monkeypatch.setattr(sf, "ln_abs_gamma_signed", counted)
    tab = sf._SeriesTable(spec, 4)
    assert len(gammas) == 2
    assert calls == [tab.s.size] * len(gammas) == [4 + 35 * 4 + 1] * 2


def test_numerator_pole_marks_the_table_degenerate():
    # a - b = 1: the left poles of Gamma(1 - a + s) fall on the right
    # ladder's, and no contour separates the two families
    tab = sf._SeriesTable(MeijerGSpec(m=1, n=1, a=(1.5,), b=(0.5, 0.0)), 8)
    assert tab.degenerate


def test_kernel_left_with_one_rational_pole():
    # G^{1,0}_{1,2}(z | 1.5; 0.5, 0.2): its only ladder pairs off into
    # 1 / (0.5 - s), so the table holds one pole and no ladder to truncate
    spec = MeijerGSpec(m=1, n=0, a=(1.5,), b=(0.5, 0.2))
    tab = sf._series_table(spec, 48)
    assert tab.s.size == 1 and tab.tail_idx.size == 0
    for z in (0.1, 1.0, 5.0):
        assert meijer_g(spec, z) == pytest.approx(_mpmath_g(spec, z), rel=1e-14)


def test_coincident_ladders_give_bessel_k1():
    # ladders 0 + k and 1 + k meet in double poles at s = 1, 2, ...:
    # G^{2,0}_{0,2}(z | 0, 1) = 2 sqrt(z) K_1(2 sqrt(z)); the terms cancel
    # by up to ~1e5 at z = 10, which the estimate must count
    mpmath = pytest.importorskip("mpmath")
    spec = MeijerGSpec(m=2, n=0, a=(), b=(0.0, 1.0))
    for ln_z in np.linspace(-6.0, 2.3, 12):
        with mpmath.workdps(40):
            x = 2 * mpmath.sqrt(mpmath.exp(mpmath.mpf(ln_z)))
            ref = x * mpmath.besselk(1, x)
        got = sf._series_attempt(spec, ln_z)
        assert got is not None, ln_z
        real = float(abs(got[0] * mpmath.exp(got[1]) / ref - 1))
        assert real <= got[2] <= REL_TOL, ln_z
        if ln_z <= 0.0:
            assert real <= 1e-12, ln_z


@pytest.mark.parametrize("xi", (0.6079, 1.0, 2.0, 6.7))
def test_exponential_factor_matches_mpmath(xi):
    # the closed form's G^{3,0}_{1,3}(z | xi^2 + 1; 1, xi^2, 0): its kernel
    # Gamma(1 - s) Gamma(-s) / (xi^2 - s) has double poles at s = 1, 2, ...,
    # and a triple one at s = xi^2 when xi^2 is an integer
    mpmath = pytest.importorskip("mpmath")
    xi2 = xi * xi
    spec = MeijerGSpec(m=3, n=0, a=(xi2 + 1.0,), b=(1.0, xi2, 0.0))
    assert spec == sf._folded_spec(1.0, xi2, 1)
    served = 0
    for ln_z in np.linspace(-6.0, 2.3, 23):
        ref = _mpmath_g(spec, math.exp(ln_z))
        got = sf._series_attempt(spec, ln_z)
        rel_err = 0.0
        if got is not None:
            served += 1
            rel_err = got[2]
            real = abs(got[0] * math.exp(got[1]) / ref - 1.0)
            assert real <= rel_err, ln_z
        # beyond z ~ 3 the terms cancel by 1e2 to 1e3, and meijer_g, the
        # generic evaluator, is then held to the series' own estimate
        tol = max(1e-12, rel_err)
        assert abs(meijer_g(spec, math.exp(ln_z)) / ref - 1.0) <= tol, ln_z
    assert served >= 20
    # below that, 1e-12 wherever the series serves, up to z ~ 5 at xi = 6.7:
    # the xi^2 pair enters as 1 / (xi^2 - s), with none of the rounding of
    # two log-gammas of about 64
    top = 1.6 if xi == 6.7 else 1.3
    for ln_z in np.linspace(-6.0, top, round(10 * (top + 6.0)) + 1):
        got = sf._series_attempt(spec, ln_z)
        if got is not None:
            real = abs(got[0] * math.exp(got[1]) / _mpmath_g(spec, math.exp(ln_z)) - 1.0)
            assert real <= 1e-12, ln_z
    # the closed form's evaluator takes the real-line form where the series
    # misses 1e-12, and so holds 1e-12 on the whole range; the series and
    # the real-line form each stay within their estimates
    for ln_z in np.linspace(-6.0, 5.0, 45):
        with mpmath.workdps(40):
            ref = mpmath.meijerg([[], [xi2 + 1.0]], [[1.0, xi2, 0.0], []],
                                 mpmath.exp(mpmath.mpf(ln_z)))
        got = sf._series_attempt(spec, ln_z)
        if got is not None:
            assert float(abs(got[0] * mpmath.exp(got[1]) / ref - 1)) <= got[2], ln_z
        for ln_g, est in (sf.folded_gg_factor_log(1.0, xi2, 1, ln_z),
                          [v[0] for v in sf._exp_factor_integral(xi2, np.array([ln_z]))]):
            real = float(abs(mpmath.exp(ln_g) / ref - 1))
            assert real <= est <= 1e-12, ln_z
    # the ladders of Gamma(1 - s) and Gamma(-s), and the one pole of 1 / (xi^2 - s)
    tab = sf._series_table(spec, 48)
    assert tab.s.size == 2 * 48 + 1
    assert tab.poly.shape[1] == (3 if xi2 in (1.0, 4.0) else 2)


@pytest.mark.parametrize("xi2", (1.0, 4.0))
def test_integer_xi2_folded_factor_is_served_by_the_series(xi2):
    # G^{c+2,0}_{1,c+2} folded to Gamma(a - s) Gamma(x - s) Gamma(-c s) /
    # Gamma(x + 1 - s), x = xi2 / c: a double pole at s = x.  The reference
    # is the simple-pole residue sum with x moved by +-1e-20, averaged
    mpmath = pytest.importorskip("mpmath")
    c, x = 35, xi2 / 35
    spec = MeijerGSpec(m=3, n=0, a=(x + 1.0,), b=(0.5307, x, 0.0), scales=(1, 1, c))
    for ln_z in (-100.0, 0.0, 30.0):
        got = sf._series_attempt(spec, ln_z)
        assert got is not None, ln_z
        with mpmath.workdps(60):
            delta = mpmath.mpf("1e-20")
            ref = (_mpmath_residue_sum(spec, ln_z, shift=delta)
                   + _mpmath_residue_sum(spec, ln_z, shift=-delta)) / 2
            real = float(abs(got[0] * mpmath.exp(got[1]) / ref - 1))
        assert real <= got[2], ln_z
        assert real <= 1e-12, ln_z


def test_series_eval_reports_a_non_finite_peak_as_unknown():
    tab = sf._SeriesTable(SPEC_EXP, 8)
    zero, ln_z = tab.logc.copy(), 0.5
    tab.logc = np.full_like(zero, -np.inf)
    assert sf._series_eval(tab, np.array([ln_z, -ln_z])) == [(0.0, -np.inf, 0.0, True)] * 2
    for bad in (np.nan, np.inf):
        tab.logc = zero.copy()
        tab.logc[3] = bad
        assert [row[2] for row in sf._series_eval(tab, np.array([ln_z, -ln_z]))] == [np.inf] * 2


# The closed form's folded GG factor at three sweep points whose G-form
# series once shipped values beyond its error estimate: (EGG a, floored c,
# ln of the H-form argument).  Built with the weak pointing, xi^2 = 0.6079^2
# (salty/16.5, gamma_th = 1000, relay term 0; salty/16.5, gamma_th = 316,
# term 1; fresh/7.1, gamma_th = 316, term 0).
ESTIMATE_POINTS = (("salty/16.5", 1000.0, 0), ("salty/16.5", 316.22776601683796, 1),
                   ("fresh/7.1", 316.22776601683796, 0))
# the benchmark sweep's presets, mu1 = 100, three relays, weak pointing
SWEEP_PRESETS = ("salty/4.7", "salty/7.1", "salty/16.5", "fresh/4.7", "fresh/7.1")


def _folded_factor_at(key, gamma_th, k):
    """(spec, ln z, a, xi^2, c) of the folded factor in relay term k of the
    closed form at a sweep point."""
    from rfuowc.channels import PointingParams, get_preset
    from rfuowc.system import SystemConfig
    pointing = PointingParams(a0=0.5076, xi=0.6079)
    cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=get_preset(key).egg,
                                       pointing=pointing, uowc_scale=100.0).floored()
    egg, c = cfg.egg, int(cfg.egg.c)
    scale = (k + 1) * gamma_th * cfg.c_const / (cfg.rho * cfg.mu1)
    ln_z = c * (math.log(scale) - math.log(egg.b * pointing.a0))
    x = pointing.xi2 / c
    spec = MeijerGSpec(m=3, n=0, a=(x + 1.0,), b=(egg.a, x, 0.0), scales=(1, 1, c))
    return spec, ln_z, egg.a, pointing.xi2, c


def _mpmath_residue_sum(spec, ln_z, kmax=60, shift=0):
    """The H-function's residue series summed at 60 digits (simple poles),
    with b[1] and a[0] moved by shift."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        z = mpmath.exp(mpmath.mpf(ln_z))
        b = [mpmath.mpf(v) for v in spec.b]
        a = [mpmath.mpf(v) for v in spec.a]
        b[1] += shift
        a[0] += shift
        total = 0
        for h, Bh in enumerate(spec.scales):
            for k in range(Bh * kmax):
                s = (b[h] + k) / Bh
                term = (-1) ** k / (mpmath.factorial(k) * Bh) * z ** s
                for j, Bj in enumerate(spec.scales):
                    if j != h:
                        term *= mpmath.gamma(b[j] - Bj * s)
                for av in a:
                    term *= mpmath.rgamma(av - s)
                total += term
        return total


# ESTIMATE_POINTS, then gamma_th = 1000 (relay term 0) for the three other
# presets, where the series refuses and the real-line form serves
@pytest.mark.parametrize("key,gamma_th,k", ESTIMATE_POINTS + (
    ("salty/4.7", 1000.0, 0), ("salty/7.1", 1000.0, 0), ("fresh/4.7", 1000.0, 0)))
def test_folded_series_estimate_bounds_its_error(key, gamma_th, k):
    mpmath = pytest.importorskip("mpmath")
    spec, ln_z, a, xi2, c = _folded_factor_at(key, gamma_th, k)
    ref = _mpmath_residue_sum(spec, ln_z)
    got = sf._series_attempt(spec, ln_z)
    if got is not None:
        sign, logabs, rel_est = got
        real = float(abs(sign * mpmath.exp(logabs) / ref - 1))
        assert real <= rel_est <= REL_TOL
    for ln_g, est in ([v[0] for v in sf._gg_factor_integral(a, xi2, c, np.array([ln_z]))],
                      sf.folded_gg_factor_log(a, xi2, c, ln_z)):
        real = float(abs(mpmath.exp(ln_g) / ref - 1))
        assert real <= est <= 1e-12


def _mpmath_real_line_factor(a, xi2, c, ln_z):
    """ln of the folded factor's real-line integral at 30 digits, by
    Gauss-Legendre on fixed pieces of the v axis."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, xi2, c, ln_z = (mpmath.mpf(v) for v in (a, xi2, c, ln_z))

        def f(v):
            # x^xi2 Gamma(-xi2, x) = E_(1 + xi2)(x)
            x = mpmath.exp((ln_z - v) / c)
            return mpmath.exp(a * v - mpmath.exp(v)) * mpmath.expint(1 + xi2, x)

        # past the ends x or e^v exceeds 400, and the integrand is below e^-400
        left = ln_z - c * mpmath.log(400)
        pieces = [left] + [-2 ** k for k in range(12, -3, -1) if -2 ** k > left] + [0, 1, 2, 4, 6]
        return mpmath.log(mpmath.quad(f, pieces, method="gauss-legendre"))


@pytest.mark.parametrize("key", ("salty/4.7", "fresh/16.5"))
def test_real_line_factor_takes_a_real_exponent(key):
    # the exact c of salty/4.7 (35.74) and fresh/16.5 (216.8), which the
    # closed form floors and the series cannot take; relay term 0 at
    # gamma_th = 1000, weak pointing
    mpmath = pytest.importorskip("mpmath")
    from rfuowc.channels import PointingParams, get_preset
    from rfuowc.system import SystemConfig
    pointing = PointingParams(a0=0.5076, xi=0.6079)
    cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=get_preset(key).egg,
                                       pointing=pointing, uowc_scale=100.0)
    egg = cfg.egg
    assert egg.c != math.floor(egg.c)
    ln_z = egg.c * (math.log(1000.0 * cfg.c_const / (cfg.rho * cfg.mu1))
                    - math.log(egg.b * pointing.a0))
    ln_g, est = [v[0] for v in sf._gg_factor_integral(egg.a, pointing.xi2, egg.c,
                                                       np.array([ln_z]))]
    ref = _mpmath_real_line_factor(egg.a, pointing.xi2, egg.c, ln_z)
    real = float(abs(mpmath.expm1(ln_g - ref)))
    assert real <= est <= 1e-12


def test_folded_factor_matches_the_contour_oracle():
    # the real-line form shares ln_gamma_upper_scaled with quadrature; the
    # contour shares nothing with it but the log-gamma
    checked = 0
    for key in SWEEP_PRESETS:
        for gamma_th in (316.22776601683796, 1000.0):
            for k in range(3):
                spec, ln_z, a, xi2, c = _folded_factor_at(key, gamma_th, k)
                ln_g, _ = sf.folded_gg_factor_log(a, xi2, c, ln_z)
                _, ln_mb, _ = sf._mb_eval(spec, ln_z)
                assert abs(math.expm1(ln_g - ln_mb)) <= 1e-12, (key, gamma_th, k)
                checked += sf._series_attempt(spec, ln_z) is None
    assert checked >= 20  # most of them on the real-line form


def test_series_table_is_sized_to_the_argument(monkeypatch):
    # The closed form's factors on the sweep's range of ln z, and a folded
    # factor (c = 3) whose first table fails the tail test and whose doubled
    # one serves.  Each served value is the one a table of 48 units of s
    # gives, bit for bit: the terms dropped lie below e^-42 of the largest.
    # The G2 tables hold at most a tenth of the entries of 48 units; G1 (the
    # weak-pointing exponential factor, order 2) and the c = 3 factor span at
    # most 32 and 16 units.
    built = []

    def recording(spec, kmax):
        built.append(sf._SeriesTable(spec, kmax))
        return built[-1]

    monkeypatch.setattr(sf, "_series_table", recording)
    cases = []
    for key in SWEEP_PRESETS:
        spec = _folded_factor_at(key, 1.0, 0)[0]
        most = (48 * (spec.scales[-1] + 1) + 1) // 10
        cases.append((spec, np.linspace(-700.0, 260.0, 49), most))
    cases.append((SPEC_OUTAGE, np.linspace(-700.0, 2.5, 50), 2 * 32 + 1))
    cases.append((sf._folded_spec(2.0, 0.3695, 3), [2.5], 4 * 16 + 1))
    served = doubled = 0
    for spec, ln_zs, most in cases:
        ref_tab = sf._SeriesTable(spec, 48)
        for ln_z in ln_zs:
            built.clear()
            got = sf._series_attempt(spec, float(ln_z))
            if got is None:
                continue
            served += 1
            doubled += len(built) > 1
            assert built[-1].s.size <= most, ln_z
            (sign, logabs, rel, tail_ok), = sf._series_eval(ref_tab, np.array([ln_z]))
            assert tail_ok and (got[0], got[1]) == (sign, logabs), ln_z
            assert abs(got[2] - rel) <= 1e-15 * rel, ln_z
    assert served >= 200 and doubled == 1


def test_trapezoid_rule_refuses_a_window_past_its_cap_before_evaluating():
    calls = []

    def log_f(u, which):
        calls.append(u.size)
        return -u * u, np.abs(u * u)

    # one integral of the batch past the cap refuses them all
    with pytest.raises(NonConvergenceError):
        sf._trapezoid_log(log_f, [-8.0, -8.0], [8.0, 8.0], [2, sf._TRAPEZOID_NODES])
    assert calls == []
    # at half that, the first call evaluates all 2n + 1 nodes and converges
    ln_i, rel = sf._trapezoid_log(log_f, [-8.0], [8.0], [sf._TRAPEZOID_NODES // 2])
    assert calls == [sf._TRAPEZOID_NODES + 1]
    assert abs(math.expm1(ln_i[0] - 0.5 * math.log(math.pi))) <= 1e-14 + rel[0]


def test_trapezoid_rule_refines_only_the_integrals_still_open():
    # exp(-u^2 / s^2) on [-8, 8] for s = 1 and 0.3, from 32 and 2 intervals:
    # the first converges on the first call, the second takes more, whose
    # nodes are its own midpoints only; each result is the one it gets alone
    widths = np.array([1.0, 0.3])
    calls = []

    def log_f(u, which):
        calls.append(np.bincount(which, minlength=2).tolist())
        return -(u / widths[which]) ** 2, (u / widths[which]) ** 2

    ln_i, rel = sf._trapezoid_log(log_f, [-8.0, -8.0], [8.0, 8.0], [32, 2])
    assert calls[0] == [65, 5]
    assert len(calls) >= 4 and all(count[0] == 0 for count in calls[1:])
    for k, n in enumerate((32, 2)):
        assert abs(math.expm1(ln_i[k] - math.log(widths[k] * math.sqrt(math.pi)))) \
            <= 1e-14 + rel[k]
        alone = sf._trapezoid_log(lambda u, which: log_f(u, which + k), [-8.0], [8.0], [n])
        assert (alone[0][0], alone[1][0]) == (ln_i[k], rel[k])
