import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import kv

import rfuowc.specfun as sf
from rfuowc.specfun import (
    ContourError,
    DEFAULT_OPTIONS,
    EvalOptions,
    GammaDomainError,
    MeijerGSpec,
    NonConvergenceError,
    CapabilityError,
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

    def test_outage_kernel_perturbation_stability(self):
        # the (1, 0) lower-parameter pair is integer-separated by construction
        for z in (0.02, 0.7, 4.0):
            v1 = meijer_g(SPEC_OUTAGE, z, EvalOptions(pole_perturb_eps=1e-7))
            v2 = meijer_g(SPEC_OUTAGE, z, EvalOptions(pole_perturb_eps=1e-8))
            assert abs(v1 - v2) <= 10.0 * DEFAULT_OPTIONS.rel_tol * abs(v1)

    def test_cdf_kernel_saturates(self):
        lo = meijer_g(SPEC_CDF, 1e-9)
        hi = meijer_g(SPEC_CDF, 1e12)
        assert 0.0 <= lo < 1e-2
        assert hi == pytest.approx(1.0 / XI2, rel=1e-9)

    def test_log_interface_handles_huge_arguments(self):
        sign, logabs = meijer_g_log(SPEC_PDF, 300.0)
        assert sign == 1.0
        # dominated by exp(-z): log G ~ -e^300, far below the float range
        assert logabs < -1e100

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
            tol = DEFAULT_OPTIONS.rel_tol * abs(series) + mb.err_est + 1e-14
            assert abs(series - mb.value) <= tol

    def test_non_convergence_path(self, monkeypatch):
        # the dispatcher must surface a failed contour run once the series
        # has already been rejected for cancellation
        import rfuowc.specfun as sf
        monkeypatch.setattr(sf, "_mb_eval", lambda *a, **k: (1.0, 0.0, 0.5))
        with pytest.raises(NonConvergenceError):
            sf.meijer_g(SPEC_PDF, 25.0)


def test_options_validation():
    with pytest.raises(ValueError):
        EvalOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        EvalOptions(rel_tol=2.0)
    with pytest.raises(ValueError):
        EvalOptions(pole_perturb_eps=0.5)


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

    def test_cancelling_series_matches_mpmath(self):
        spec, z = CANCELLING_DRAW
        ref = _mpmath_g(spec, z)
        assert meijer_g(spec, z) == pytest.approx(ref, rel=1e-10)

    def test_cancelling_series_estimate_is_a_bound(self):
        spec, z = CANCELLING_DRAW
        ref = _mpmath_g(spec, z)
        got = sf._series_attempt(spec, math.log(z), DEFAULT_OPTIONS)
        if got is not None:
            sign, logabs, rel_est = got
            assert abs(sign * math.exp(logabs) - ref) <= rel_est * abs(ref)


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
# wide sweep plus points on both sides of the switch to the continued
# fraction at z = max(1.5, s + 1)
LN_Z = np.concatenate([np.linspace(-700.0, 700.0, 57), np.linspace(-4.0, 3.0, 29),
                       np.log([1.4999, 1.5001, 2.2399, 2.2401, 6.4999, 6.5001])])


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

    @pytest.mark.parametrize("a", (0.0075, 0.0161, 0.3935, 1.2526, 5.5))
    def test_lower_regularized_matches_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        got = gamma_p(a, LN_Z)
        with mpmath.workdps(40):
            for ln_z, g in zip(LN_Z, got):
                ref = mpmath.gammainc(a, 0, mpmath.exp(ln_z), regularized=True)
                if ref > 1e-300:
                    assert abs(g - ref) <= 1e-12 * ref, (a, ln_z)

    def test_overflowing_argument_gives_minus_inf(self):
        ln_z = np.array([709.0, 710.0, 1e4])
        for s in S_VALUES:
            got = ln_gamma_upper_scaled(s, ln_z)
            assert not np.any(np.isnan(got))
            assert np.all(np.isneginf(got[1:]))
        assert np.all(gamma_p(0.5, ln_z) == 1.0)

    def test_tiny_argument_stays_finite(self):
        # Gamma(s, z) -> Gamma(s) for s > 0 and -> z^s / |s| for s < 0
        got = ln_gamma_upper_scaled(np.array([0.63, -43.89, -0.5]), -6e4)
        np.testing.assert_allclose(
            got, [math.lgamma(0.63) + 0.63 * 6e4, -math.log(43.89),
                  -math.log(0.5)], rtol=1e-14)

    def test_domain(self):
        with pytest.raises(GammaDomainError):
            gamma_p(0.0, 1.0)
        assert ln_gamma_upper_scaled(0.5, 0.0) == pytest.approx(
            math.log(math.sqrt(math.pi) * math.erfc(1.0)), rel=1e-14)
