import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rfuowc.channels import EggParams, PointingParams, egg_moment, get_preset, \
    rf_snr_cdf, uowc_snr_cdf
from rfuowc import mc as mc_module
from rfuowc.mc import (
    McConfig,
    chunk_stream,
    mc_moments,
    mc_outage,
    sample_egg_irradiance,
    sample_pointing,
    sample_rf_best_snr,
    sample_uowc_snr,
)
from rfuowc.system import OutageQuery, SystemConfig, outage_quadrature

# a RuntimeWarning (ln 0, an overflowing exp), also one raised in a chunk
# thread, fails the test that drew it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

WEAK = PointingParams(a0=0.5076, xi=0.6079)


def grid_cfg(key="salty/4.7", mu1=100.0, n_relays=3):
    return SystemConfig.from_direct_snr(mu1=mu1, n_relays=n_relays,
                                        egg=get_preset(key).egg,
                                        pointing=WEAK, uowc_scale=mu1)


def mixture_cfg(w):
    """The salty/4.7 scenario with the exponential branch's weight set to w."""
    egg = replace(get_preset("salty/4.7").egg, w=w)
    return SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=egg,
                                        pointing=WEAK, uowc_scale=100.0)


def three_sigma(mean_hat, stderr, target):
    return abs(mean_hat - target) <= 3.0 * max(stderr, 1e-300)


def ks_statistic(cdf_at_sorted):
    """Kolmogorov-Smirnov distance of sorted samples, given F at each."""
    n = cdf_at_sorted.size
    idx = np.arange(1, n + 1)
    return max(float(np.max(np.abs(cdf_at_sorted - idx / n))),
               float(np.max(np.abs(cdf_at_sorted - (idx - 1) / n))))


class FixedUniforms:
    """Stand-in stream whose uniforms are given, to probe a sampler's formula."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None):
        return float(self.u[0]) if size is None else self.u.copy()


class TestStreams:
    def test_chunks_cover_sample_count(self):
        mc = McConfig(n_samples=2_500_000, seed=1, chunk_size=1 << 20)
        sizes = mc.chunks()
        assert sum(sizes) == mc.n_samples
        assert sizes[:-1] == [1 << 20] * 2

    def test_streams_differ_by_chunk(self):
        a = chunk_stream(5, 0).random(4)
        b = chunk_stream(5, 1).random(4)
        c = chunk_stream(5, 0).random(4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("a, b", [((2 ** 32 + 5, 0), (5, 1)), ((1, 2), (2, 1))])
    def test_stream_keys_do_not_alias(self, a, b):
        # SeedSequence([seed, chunk]) splits its entropy into 32-bit words and
        # drops trailing zero words, so it draws one stream for (2^32 + 5, 0)
        # and (5, 1)
        assert not np.array_equal(chunk_stream(*a).random(4), chunk_stream(*b).random(4))

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_range_ends_run(self, seed):
        est = mc_outage(grid_cfg(), OutageQuery(10.0), McConfig(n_samples=1_000, seed=seed))
        assert 0.0 < est.mean < 1.0

    def test_estimate_is_pinned(self):
        # moves only when the streams or the samplers change, which is then on purpose
        est = mc_outage(grid_cfg(), OutageQuery(10.0),
                        McConfig(n_samples=100_000, seed=27, chunk_size=30_000))
        assert est.mean.hex() == "0x1.fbe22e5de15cap-2"  # 49,598 hits

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_samples=0)
        with pytest.raises(ValueError):
            McConfig(n_samples=1, chunk_size=0)

    @pytest.mark.parametrize("kwargs", [
        dict(n_samples=1e5 + 0.5), dict(n_samples=True), dict(n_samples=math.inf),
        dict(seed=1.5), dict(seed=True), dict(chunk_size=4096.5),
        dict(chunk_size=False),
    ], ids=["fractional-samples", "bool-samples", "infinite-samples",
            "fractional-seed", "bool-seed", "fractional-chunk", "bool-chunk"])
    def test_counts_and_seed_must_be_whole(self, kwargs):
        # a fractional or bool seed once ran the stream of its int() silently
        with pytest.raises(ValueError, match="whole number"):
            McConfig(**{"n_samples": 10, **kwargs})

    def test_integral_floats_are_stored_as_ints(self):
        mc = McConfig(n_samples=1e5, seed=7.0, chunk_size=1e4)
        assert (mc.n_samples, mc.seed, mc.chunk_size) == (100_000, 7, 10_000)
        assert all(type(v) is int for v in (mc.n_samples, mc.seed, mc.chunk_size))
        assert sum(mc.chunks()) == 100_000


class TestSamplers:
    def test_rf_best_snr_mean_single(self):
        rng = chunk_stream(11, 0)
        x = sample_rf_best_snr(rng, 4.0, 1, 400_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, 4.0)

    def test_rf_best_snr_harmonic_mean(self):
        rng = chunk_stream(12, 0)
        x = sample_rf_best_snr(rng, 1.0, 4, 400_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, 25.0 / 12.0)

    def test_rf_best_snr_ecdf_matches_analytic(self):
        rng = chunk_stream(13, 0)
        mu1, n = 2.5, 2
        x = sample_rf_best_snr(rng, mu1, n, 400_000)
        p_hat = np.mean(x <= mu1)
        se = math.sqrt(p_hat * (1 - p_hat) / x.size)
        assert three_sigma(p_hat, se, rf_snr_cdf(mu1, mu1, n))

    def test_egg_pure_exponential_branch(self):
        rng = chunk_stream(14, 0)
        egg = EggParams(w=1.0, lam=2.0, a=1.0, b=1.0, c=1.0)
        x = sample_egg_irradiance(rng, egg, 400_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, 2.0)

    def test_egg_gg_collapses_to_exponential(self):
        rng = chunk_stream(15, 0)
        egg = EggParams(w=0.0, lam=1.0, a=1.0, b=3.0, c=1.0)
        x = sample_egg_irradiance(rng, egg, 400_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, 3.0)

    def test_egg_preset_mean(self):
        rng = chunk_stream(16, 0)
        egg = get_preset("salty/4.7").egg
        x = sample_egg_irradiance(rng, egg, 400_000)
        want = (egg.w * egg.lam + (1 - egg.w) * egg.b
                * math.exp(math.lgamma(egg.a + 1 / egg.c) - math.lgamma(egg.a)))
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, want)

    def test_tiny_shape_has_no_underflow(self):
        rng = chunk_stream(17, 0)
        egg = get_preset("fresh/16.5").egg  # a = 0.0075
        x = sample_egg_irradiance(rng, egg, 500_000)
        assert np.all(x > 0.0)

    def test_pointing_no_jitter_limit(self):
        rng = chunk_stream(18, 0)
        x = sample_pointing(rng, PointingParams(a0=0.7, xi=1e6), 1000)
        np.testing.assert_allclose(x, 0.7, rtol=1e-3)

    def test_pointing_half_mean(self):
        rng = chunk_stream(19, 0)
        x = sample_pointing(rng, PointingParams(a0=1.0, xi=1.0), 1_000_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, 0.5)

    def test_pointing_preset_mean(self):
        rng = chunk_stream(20, 0)
        p = WEAK
        x = sample_pointing(rng, p, 400_000)
        want = p.a0 * p.xi2 / (1.0 + p.xi2)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert three_sigma(x.mean(), se, want)

    def test_scalar_draws(self):
        rng = chunk_stream(21, 0)
        assert isinstance(sample_rf_best_snr(rng, 1.0, 3), float)
        assert isinstance(sample_pointing(rng, WEAK), float)
        for key in ("salty/4.7", "fresh/16.5"):  # gamma shapes 0.53 and 0.0075
            assert isinstance(sample_egg_irradiance(rng, get_preset(key).egg), float)

    def test_tiny_shape_branch_moments(self):
        # per-branch draws keep the mixture: first two moments of the
        # turbulence alone (no jitter, xi -> inf) at a = 0.0075, and at
        # a = 0.53 and a = 1.25 (the one preset with a >= 1), which share the
        # same boosted-gamma path
        no_jitter = PointingParams(a0=1.0, xi=1e6)
        for key in ("fresh/16.5", "salty/4.7", "fresh/4.7"):
            egg = get_preset(key).egg
            x = sample_egg_irradiance(chunk_stream(22, 0), egg, 1_000_000)
            for order in (1, 2):
                xk = x ** order
                se = xk.std(ddof=1) / math.sqrt(x.size)
                assert three_sigma(xk.mean(), se,
                                   egg_moment(order, egg, no_jitter)), (key, order)


class TestBestOfN:
    @pytest.mark.parametrize("n", [1, 16])
    def test_edge_uniforms_give_no_nan_or_negative(self, n):
        u = np.array([0.0, 5e-324, 1.0 - 2.0 ** -53])
        x = sample_rf_best_snr(FixedUniforms(u), 2.0, n, u.size)
        assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
        assert x[0] == 0.0 and x[1] > 0.0
        scalar = sample_rf_best_snr(FixedUniforms(u[2:]), 2.0, n)
        assert isinstance(scalar, float) and math.isfinite(scalar)

    def test_ks_at_sixteen_relays(self):
        mu1, n_relays, n = 3.0, 16, 400_000
        x = np.sort(sample_rf_best_snr(chunk_stream(31, 0), mu1, n_relays, n))
        d_stat = ks_statistic(rf_snr_cdf(x, mu1, n_relays))
        assert d_stat < 1.6276 / math.sqrt(n)

    def test_lower_tail_at_sixteen_relays(self):
        mu1, n_relays = 3.0, 16
        x = sample_rf_best_snr(chunk_stream(32, 0), mu1, n_relays, 400_000)
        # samples below the 1% quantile follow F(x) / 0.01 (conditional KS)
        q01 = -mu1 * math.log1p(-0.01 ** (1.0 / n_relays))
        tail = np.sort(x[x <= q01])
        assert tail.size > 3000
        d_stat = ks_statistic(rf_snr_cdf(tail, mu1, n_relays) / 0.01)
        assert d_stat < 1.6276 / math.sqrt(tail.size)
        # x <= 0.05 mu1 has mass (1 - e^-0.05)^16 ~ 1e-21, which no sample
        # reaches: there the inverse CDF must give back U itself
        u = np.geomspace(1e-300, rf_snr_cdf(0.05 * mu1, mu1, n_relays), 200)
        x = sample_rf_best_snr(FixedUniforms(u), mu1, n_relays, u.size)
        assert np.all(x <= 0.05 * mu1 * (1 + 1e-12))
        np.testing.assert_allclose(rf_snr_cdf(x, mu1, n_relays), u, rtol=1e-12)


class TestMoments:
    def test_zeroth_exact(self):
        est = mc_moments((0,), get_preset("salty/4.7").egg, WEAK,
                         McConfig(n_samples=10, seed=1))[0]
        assert est.mean == 1.0 and est.std_err == 0.0

    @pytest.mark.parametrize("key", ["salty/4.7", "fresh/7.1", "fresh/16.5"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_analytic(self, key, order):
        egg = get_preset(key).egg
        est = mc_moments((order,), egg, WEAK, McConfig(n_samples=1_000_000, seed=97))[0]
        assert three_sigma(est.mean, est.std_err, egg_moment(order, egg, WEAK))

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_moments((-1,), get_preset("salty/4.7").egg, WEAK,
                       McConfig(n_samples=10, seed=1))
        with pytest.raises(ValueError):
            mc_moments((1, 1.5), get_preset("salty/4.7").egg, WEAK,
                       McConfig(n_samples=10, seed=1))

    def test_moment_whose_square_is_beyond_a_double_raises(self):
        # I ~ 1e300: the mean is finite but its standard error is not
        egg = EggParams(w=0.2, lam=0.4, a=0.5, b=1e300, c=3.0)
        with pytest.raises(ValueError, match="moment 2 is beyond"):
            mc_moments((1,), egg, WEAK, McConfig(n_samples=1000, seed=1))

    def test_orders_share_one_set_of_draws(self):
        egg = get_preset("fresh/16.5").egg
        mc = McConfig(n_samples=200_000, seed=3, chunk_size=65_536)
        both = mc_moments((2, 0, 1), egg, WEAK, mc)
        assert both == [mc_moments((k,), egg, WEAK, mc)[0] for k in (2, 0, 1)]


def block_sizes(size):
    """The blocks a chunk is drawn in, spelled out for the reference loops."""
    return [min(mc_module._BLOCK, size - start)
            for start in range(0, size, mc_module._BLOCK)]


class ScriptedStream:
    """Stand-in chunk stream that hands out one sample's given draws in a
    block's order: the RF uniform, the branch count, the exponential or the
    gamma and its boost uniform, the pointing uniform."""

    def __init__(self, u_rf, branch, value, boost, u_ptr):
        on_exp = branch == "exp"
        self.n_exp = int(on_exp)
        self.draws = {"random": [u_rf] + ([] if on_exp else [boost]) + [u_ptr],
                      "exponential": [value] if on_exp else [],
                      "gamma": [] if on_exp else [value]}

    def _take(self, kind, size, out):
        n = out.size if out is not None else 1 if size is None else size
        vals, self.draws[kind] = self.draws[kind][:n], self.draws[kind][n:]
        if out is not None:
            out[:] = vals
            return out
        return vals[0] if size is None else np.array(vals, dtype=float)

    def binomial(self, n, p):
        return self.n_exp

    def random(self, size=None, out=None):
        return self._take("random", size, out)

    def standard_exponential(self, size=None, out=None):
        return self._take("exponential", size, out)

    def standard_gamma(self, shape, size=None, out=None):
        return self._take("gamma", size, out)


class TestLogDomainBoundaries:
    """Draws where ln g2 is -inf or e^-ln(g2) leaves the normal range: each
    sample counts exactly where the linear test g1 g2 / (g2 + C) < gamma_th
    does, on two chunk threads, with no RuntimeWarning."""

    EGG = EggParams(w=0.5, lam=1.0, a=0.01, b=1.0, c=2.0)
    GTH = 10.0

    def linear_hit(self, cfg, sample):
        stream = ScriptedStream(*sample)
        with np.errstate(all="ignore"):
            g1 = sample_rf_best_snr(stream, cfg.mu1, cfg.n_relays, 1)
            g2 = sample_uowc_snr(stream, cfg, 1)
            return bool(g1 * (g2 / (g2 + cfg.c_const)) < self.GTH), float(g2[0])

    def kernel_hit(self, cfg, sample, monkeypatch):
        monkeypatch.setattr(mc_module, "chunk_stream", lambda seed, i: ScriptedStream(*sample))
        # one sample a chunk, two chunks: both pool threads run the kernel
        mc = McConfig(n_samples=2, seed=1, chunk_size=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = mc_outage(cfg, OutageQuery(self.GTH), mc).mean
        assert mean in (0.0, 1.0)
        return mean == 1.0

    def u_for_g1(self, cfg, g1):
        """The RF uniform whose best-of-N SNR is g1."""
        return (-math.expm1(-g1 / cfg.mu1)) ** cfg.n_relays

    def test_zero_g2_counts(self, monkeypatch):
        cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=self.EGG,
                                           pointing=WEAK, uowc_scale=100.0)
        top = 1.0 - 2.0 ** -53  # the largest uniform: the largest g1
        samples = [
            (top, "exp", 0.0, None, 0.3),  # E = 0: ln g2 = -inf
            (0.3, "exp", 0.0, None, top),
            (top, "gg", 0.0, 0.5, 0.3),  # G = 0: ln g2 = -inf
            # ln(1 - V) / a = -3674: g2 underflows to 0, e^-ln(g2) overflows
            (top, "gg", 1.5, top, 0.3),
            (top, "exp", 1.0, None, 0.3),  # an ordinary g2: no hit
        ]
        linear = [self.linear_hit(cfg, s) for s in samples]
        assert [g2 == 0.0 for _, g2 in linear] == [True] * 4 + [False]
        assert [hit for hit, _ in linear] == [True] * 4 + [False]
        assert [self.kernel_hit(cfg, s, monkeypatch) for s in samples] == \
            [hit for hit, _ in linear]

    def test_g2_whose_reciprocal_underflows(self, monkeypatch):
        cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=self.EGG,
                                           pointing=WEAK, uowc_scale=1e305)
        # u_ptr = 0 makes the pointing factor a0: g2 = rho a0 lam E, or
        # rho a0 b G^(1/c) at V = 0
        base = cfg.rho * WEAK.a0
        samples = []
        # up to 9e307: rho * I, before the factor a0, stays finite
        for g2 in (5e307, 7e307, 9e307):
            for ratio in (0.5, 0.99, 1.01, 2.0):
                u = self.u_for_g1(cfg, ratio * self.GTH)
                samples.append((u, "exp", g2 / (base * self.EGG.lam), None, 0.0))
                samples.append((u, "gg", (g2 / (base * self.EGG.b)) ** self.EGG.c, 0.0, 0.0))
        linear = [self.linear_hit(cfg, s) for s in samples]
        for _, g2 in linear:
            assert math.isfinite(g2) and 0.0 < math.exp(-math.log(g2)) < np.finfo(float).tiny
        # e^-L is below the normal range: the test is g1 < gamma_th
        assert [hit for hit, _ in linear] == [r < 1.0 for r in (0.5, 0.99, 1.01, 2.0)
                                              for _ in range(2)] * 3
        assert [self.kernel_hit(cfg, s, monkeypatch) for s in samples] == \
            [hit for hit, _ in linear]


    def test_optical_snr_near_the_largest_double_is_finite(self):
        # g2 = rho I_t I_p = 1.7e308 with I_p = a0 < 1: rho I_t alone is
        # 3.3e308, past the largest double, so I_t I_p is formed first
        cfg = SystemConfig.from_direct_snr(mu1=100.0, n_relays=3, egg=self.EGG,
                                           pointing=WEAK, uowc_scale=1e305)
        assert cfg.rho * self.EGG.lam * 1.7e308 / (cfg.rho * WEAK.a0) == math.inf
        value = 1.7e308 / (cfg.rho * WEAK.a0 * self.EGG.lam)
        _, g2 = self.linear_hit(cfg, (0.5, "exp", value, None, 0.0))
        assert g2 == pytest.approx(1.7e308, rel=1e-15)


class TestChunkPool:
    """Chunks run on a thread pool; results must equal a plain serial loop
    that draws each chunk in the same blocks."""

    # 300_000 / 65_536: four full chunks and a short one, an odd count, each a
    # whole number of blocks; 300_000 / 77_777 (as `validation` uses): every
    # chunk ends in a short block, and the last chunk is short too
    CONFIGS = (McConfig(n_samples=300_000, seed=41, chunk_size=65_536),
               McConfig(n_samples=300_000, seed=41, chunk_size=77_777))

    # (scenario, gamma_th, floor_c): the kernel's log-domain count must equal
    # the linear test on the samplers' draws at each
    OUTAGE_CASES = [
        pytest.param(grid_cfg("fresh/16.5"), 10.0, False, id="fresh/16.5"),
        pytest.param(grid_cfg(), 10.0, False, id="exact-c"),
        pytest.param(grid_cfg(), 10.0, True, id="floored-c"),
        pytest.param(mixture_cfg(0.0), 10.0, False, id="w=0"),
        pytest.param(mixture_cfg(1.0), 10.0, False, id="w=1"),
        pytest.param(grid_cfg(), 1e-3, True, id="gth=1e-3"),
        pytest.param(grid_cfg(), 100.0, True, id="gth=100"),
        pytest.param(grid_cfg(n_relays=16), 10.0, True, id="N=16"),
        pytest.param(grid_cfg(mu1=1e4), 10.0, True, id="mu1=1e4"),
    ]

    @pytest.mark.parametrize("cfg,gth,floor_c", OUTAGE_CASES)
    def test_outage_equals_serial_loop(self, cfg, gth, floor_c):
        sys_e = cfg.floored() if floor_c else cfg
        for mc in self.CONFIGS:
            hits = 0
            for idx, size in enumerate(mc.chunks()):
                rng = chunk_stream(mc.seed, idx)
                for n in block_sizes(size):
                    g1 = sample_rf_best_snr(rng, sys_e.mu1, sys_e.n_relays, n)
                    g2 = sample_uowc_snr(rng, sys_e, n)
                    geq = g1 * (g2 / (g2 + sys_e.c_const))
                    hits += int(np.count_nonzero(geq < gth))
            assert 0 < hits < mc.n_samples
            est = mc_outage(cfg, OutageQuery(gth), mc, floor_c=floor_c)
            assert est.mean == hits / mc.n_samples, mc.chunk_size
        assert [len(mc.chunks()) for mc in self.CONFIGS] == [5, 4]
        assert 77_777 % mc_module._BLOCK != 0

    def test_moments_equal_serial_loop(self):
        egg = get_preset("salty/4.7").egg
        for mc in self.CONFIGS:
            sums = {1: ([], []), 2: ([], [])}
            for idx, size in enumerate(mc.chunks()):
                rng = chunk_stream(mc.seed, idx)
                for n in block_sizes(size):
                    i = (sample_egg_irradiance(rng, egg, n)
                         * sample_pointing(rng, WEAK, n))
                    for k, (s1, s2) in sums.items():
                        ik = i ** k
                        s1.append(float(np.sum(ik)))
                        s2.append(float(np.sum(ik * ik)))
            count = mc.n_samples
            for k, est in zip((1, 2), mc_moments((1, 2), egg, WEAK, mc)):
                mean = math.fsum(sums[k][0]) / count
                var = max(math.fsum(sums[k][1]) / count - mean * mean, 0.0)
                assert est.mean == mean, mc.chunk_size
                assert est.std_err == math.sqrt(var / count), mc.chunk_size


class TestOutage:
    def test_deterministic(self):
        cfg = grid_cfg()
        mc = McConfig(n_samples=300_000, seed=7, chunk_size=65_536)
        a = mc_outage(cfg, OutageQuery(10.0), mc)
        b = mc_outage(cfg, OutageQuery(10.0), mc)
        assert a == b

    def test_seed_changes_estimate(self):
        cfg = grid_cfg()
        a = mc_outage(cfg, OutageQuery(10.0), McConfig(n_samples=100_000, seed=1))
        b = mc_outage(cfg, OutageQuery(10.0), McConfig(n_samples=100_000, seed=2))
        assert a.mean != b.mean

    def test_tiny_threshold(self):
        cfg = grid_cfg()
        est = mc_outage(cfg, OutageQuery(1e-12), McConfig(n_samples=200_000, seed=3))
        assert est.mean <= 3.0 * est.std_err + 1e-12

    def test_first_hop_lower_bound(self):
        cfg = grid_cfg()
        gth = 10.0
        est = mc_outage(cfg, OutageQuery(gth), McConfig(n_samples=300_000, seed=4))
        lower = rf_snr_cdf(gth, cfg.mu1, cfg.n_relays)
        assert est.mean >= lower - 3.0 * est.std_err

    @pytest.mark.parametrize("key,gth", [("salty/16.5", 10.0), ("fresh/4.7", 1.0)])
    def test_matches_quadrature(self, key, gth):
        cfg = grid_cfg(key)
        q = OutageQuery(gth)
        ref = outage_quadrature(cfg, q).value
        est = mc_outage(cfg, q, McConfig(n_samples=1_000_000, seed=5))
        sigma = max(est.std_err, math.sqrt(ref * (1 - ref) / est.n))
        assert abs(est.mean - ref) <= 3.0 * sigma

    def test_floored_matches_floored_quadrature(self):
        cfg = grid_cfg("salty/4.7")
        q = OutageQuery(10.0)
        ref = outage_quadrature(cfg, q, floor_c=True).value
        est = mc_outage(cfg, q, McConfig(n_samples=1_000_000, seed=6), floor_c=True)
        assert abs(est.mean - ref) <= 3.0 * est.std_err


class TestDistribution:
    @pytest.mark.parametrize("key", ["salty/4.7", "fresh/16.5"])
    def test_ks_against_analytic_cdf(self, key):
        cfg = grid_cfg(key)
        n = 200_000
        g2 = np.sort(sample_uowc_snr(chunk_stream(77, 0), cfg, n))
        grid = np.exp(np.linspace(math.log(g2[0]) - 0.01,
                                  math.log(g2[-1]) + 0.01, 800))
        f_grid = uowc_snr_cdf(grid, cfg.rho, cfg.egg, cfg.pointing)
        f_s = np.interp(np.log(g2), np.log(grid), f_grid)
        assert ks_statistic(f_s) < 1.6276 / math.sqrt(n)

    def test_chi_square_pdf_consistency(self):
        # histogram of samples vs integrated density, 1% level
        chi2 = pytest.importorskip("scipy.stats").chi2
        cfg = grid_cfg("salty/7.1")
        n = 1_000_000
        g2 = sample_uowc_snr(chunk_stream(88, 0), cfg, n)
        qs = np.quantile(g2, np.linspace(0.0, 1.0, 41))
        qs[0], qs[-1] = qs[0] * 0.5, qs[-1] * 2.0
        counts, _ = np.histogram(g2, bins=qs)
        cdf_edges = uowc_snr_cdf(qs, cfg.rho, cfg.egg, cfg.pointing)
        probs = np.diff(cdf_edges)
        expected = probs * n
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, df=len(counts) - 1)
