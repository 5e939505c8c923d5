"""Invariant suites and the three-way agreement protocol.

Shared by the `validate` CLI verb and the acceptance test suite.  Each check
returns CheckResult rows; a run passes when every row is ok.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import channels as ch
from .channels import PointingParams, get_preset
from .mc import McConfig, chunk_stream, mc_moments, mc_outage, sample_uowc_snr
from .quadrature import adaptive_quad
from .specfun import (
    REL_TOL,
    MeijerGSpec,
    _series_attempt,
    meijer_g,
    meijer_g_mellin_barnes,
)
from .system import METHODS, OutageQuery, SystemConfig, evaluate, flooring_gap_report, \
    outage_closed_form, outage_quadrature

__all__ = ["CheckResult", "WEAK_POINTING", "STRONG_POINTING", "PRESET_KEYS",
           "grid_points", "grid_config", "run_level"]

WEAK_POINTING = PointingParams(a0=0.5076, xi=0.6079)
STRONG_POINTING = PointingParams(a0=0.1641, xi=0.5244)
POINTING_PAIRS = (("weak", WEAK_POINTING), ("strong", STRONG_POINTING))
PRESET_KEYS = ("salty/4.7", "salty/7.1", "salty/16.5",
               "fresh/4.7", "fresh/7.1", "fresh/16.5")
GRID_GAMMA_TH = (1.0, 10.0, 100.0)
GRID_MU1 = (1e2, 1e4)
GRID_N_RELAYS = 3
KS_CRIT_1PCT = 1.6276  # asymptotic Kolmogorov statistic scale at alpha = 0.01


@dataclass
class CheckResult:
    group: str
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.group}: {self.name}{detail}"


def grid_config(preset_key: str, pointing: PointingParams, mu1: float,
                n_relays: int = GRID_N_RELAYS) -> SystemConfig:
    """Acceptance-grid scenario: SNR-pinned, optical scale tied to mu1.

    The optical hop shares one pre-normalization electrical scale across
    pointing presets, which is the transmit-side-matched comparison.
    """
    return SystemConfig.from_direct_snr(
        mu1=mu1, n_relays=n_relays, egg=get_preset(preset_key).egg,
        pointing=pointing, uowc_scale=mu1)


def grid_points():
    for key in PRESET_KEYS:
        for pair_name, pointing in POINTING_PAIRS:
            for mu1 in GRID_MU1:
                for gth in GRID_GAMMA_TH:
                    yield key, pair_name, pointing, mu1, gth


# ---------------------------------------------------------------------------
# special-function identities (acceptance 5)
# ---------------------------------------------------------------------------


def check_specfun(n_random: int = 100, seed: int = 1234) -> list[CheckResult]:
    out = []
    spec_exp = MeijerGSpec(m=1, n=0, a=(), b=(0.0,))
    zs = np.geomspace(1e-3, 50.0, 60)
    worst = max(abs(meijer_g(spec_exp, float(z)) - math.exp(-z)) / math.exp(-z)
                for z in zs)
    out.append(CheckResult("specfun", "exponential reduction on [1e-3, 50]",
                           worst <= 1e-10, f"worst rel {worst:.2e}"))

    try:
        from scipy.special import kv
        spec_bes = MeijerGSpec(m=2, n=0, a=(), b=(0.0, 0.0))
        worst_b = 0.0
        for z in np.geomspace(0.01, 30.0, 10):
            ref = 2.0 * kv(0, 2.0 * math.sqrt(z))
            worst_b = max(worst_b, abs(meijer_g(spec_bes, float(z)) - ref) / ref)
        out.append(CheckResult("specfun", "Bessel-K reduction at 10 points",
                               worst_b <= 1e-8, f"worst rel {worst_b:.2e}"))
    except ImportError:
        out.append(CheckResult("specfun", "Bessel-K reduction at 10 points",
                               True, "skipped: scipy unavailable"))

    rng = np.random.default_rng(seed)
    worst_r = 0.0
    n_mb_fallback = 0
    for i in range(n_random):
        spec, z = _random_spec(rng)
        got = _series_attempt(spec, math.log(z))
        if got is None:
            n_mb_fallback += 1
            continue
        sign, logabs, rel_est = got
        series_val = sign * math.exp(logabs)
        mb = meijer_g_mellin_barnes(spec, z)
        tol = (rel_est + REL_TOL) * abs(series_val) \
            + mb.err_est + 1e-13 * abs(series_val)
        diff = abs(series_val - mb.value)
        worst_r = max(worst_r, diff / max(abs(mb.value), 1e-300))
        if diff > tol:
            out.append(CheckResult(
                "specfun", f"series vs contour draw {i}", False,
                f"spec={spec} z={z:.4g} series={series_val:.12e} mb={mb.value:.12e}"))
    ok_ratio = 1.0 - n_mb_fallback / n_random
    out.append(CheckResult(
        "specfun", f"series vs contour oracle on {n_random} random instances",
        all(r.ok for r in out if r.name.startswith("series vs contour draw"))
        and ok_ratio > 0.9,
        f"worst rel {worst_r:.2e}, {n_mb_fallback} fell back to contour"))
    return out


def _random_spec(rng: np.random.Generator):
    z = float(np.exp(rng.uniform(math.log(0.02), math.log(2.5))))
    kind = rng.integers(0, 5)
    if kind == 0:
        return MeijerGSpec(m=1, n=0, a=(), b=(float(rng.uniform(-0.5, 2.0)),)), z
    if kind == 1:
        b1 = float(rng.uniform(0.2, 2.0))
        b2 = b1 - float(rng.uniform(0.15, 0.85))
        a1 = max(b1, b2) + float(rng.uniform(0.3, 1.8))
        return MeijerGSpec(m=2, n=0, a=(a1,), b=(b1, b2)), z
    if kind == 2:
        b1 = float(rng.uniform(0.6, 1.4))
        b2 = b1 - float(rng.uniform(0.2, 0.45))
        a1 = float(rng.uniform(0.2, 1.0 + min(b1, b2, 1.0) * 0.9))
        a2 = max(b1, b2) + float(rng.uniform(0.3, 1.2))
        return MeijerGSpec(m=2, n=1, a=(a1, a2), b=(b1, b2, 0.0)), z
    if kind == 3:
        while True:
            b = sorted(float(v) for v in rng.uniform(0.1, 1.9, size=3))
            seps = [abs(b[i] - b[j] - round(b[i] - b[j]))
                    for i in range(3) for j in range(i)]
            if min(seps) > 0.12:
                break
        a1 = max(b) + float(rng.uniform(0.3, 1.5))
        return MeijerGSpec(m=3, n=0, a=(a1,), b=tuple(b)), z
    c = int(rng.integers(3, 8))
    while True:
        a_r = float(rng.uniform(0.05, 0.95))
        if min(abs(a_r - j / c) for j in range(c + 1)) > 0.04:
            break
    x_r = float(rng.uniform(0.003, 0.9)) / c
    spec = MeijerGSpec(m=2 + c, n=0, a=(x_r + 1.0,),
                       b=tuple([a_r, x_r] + [j / c for j in range(c)]))
    return spec, z


# ---------------------------------------------------------------------------
# RF-hop identities (acceptance 3, plus normalization half of 4)
# ---------------------------------------------------------------------------


def check_rf_identities() -> list[CheckResult]:
    out = []
    worst = 0.0
    for n in range(1, 17):
        for mu1 in (0.5, 3.0, 2e4):
            for x in np.geomspace(2.0 * mu1, 20.0 * mu1, 100):
                ref = ch.rf_snr_cdf(float(x), mu1, n)
                got = ch.rf_snr_cdf_sum(float(x), mu1, n)
                worst = max(worst, abs(got - ref) / ref)
    out.append(CheckResult("rf", "selection CDF binomial identity, N=1..16",
                           worst <= 1e-12, f"worst rel {worst:.2e}"))

    worst_c = 0.0
    for n in range(1, ch.MAX_RELAYS + 1):
        for mu1 in (0.25, 1.0, 7.5e3):
            ref = 1 + n * sum(Fraction(math.comb(n - 1, k) * (-1) ** k, (k + 1) ** 2)
                              for k in range(n)) * Fraction(mu1)
            got = ch.relay_constant_c(mu1, n)
            worst_c = max(worst_c, float(abs(Fraction(got) - ref) / ref))
    out.append(CheckResult("rf", f"relay constant equals the binomial sum, "
                           f"N=1..{ch.MAX_RELAYS}",
                           worst_c <= 1e-14, f"worst rel {worst_c:.2e}"))

    val, _ = adaptive_quad(lambda x: ch.rf_snr_pdf(x, 3.0, 5), 0.0, 3.0 * 120.0,
                           epsabs=1e-12, epsrel=1e-11)
    ok = abs(val - 1.0) <= 1e-10
    out.append(CheckResult("rf", "selection pdf integrates to one",
                           ok, f"integral {val:.12f}"))
    return out


# ---------------------------------------------------------------------------
# moment oracle (acceptance 2)
# ---------------------------------------------------------------------------


def check_moments(n_samples: int, seed: int = 555) -> list[CheckResult]:
    out = []
    worst_z = 0.0
    worst_at = ""
    mc = McConfig(n_samples=n_samples, seed=seed)
    for key in PRESET_KEYS:
        egg = get_preset(key).egg
        for pair_name, pointing in POINTING_PAIRS:
            if ch.egg_moment(0, egg, pointing) != 1.0:
                out.append(CheckResult("moments", f"zeroth moment {key}", False,
                                       "analytic E[I^0] != 1"))
            for order, est in zip((1, 2), mc_moments((1, 2), egg, pointing, mc)):
                ana = ch.egg_moment(order, egg, pointing)
                z = abs(est.mean - ana) / max(est.std_err, 1e-300)
                if z > worst_z:
                    worst_z, worst_at = z, f"{key}/{pair_name} n={order}"
                if z > 3.0:
                    out.append(CheckResult(
                        "moments", f"{key} {pair_name} n={order}", False,
                        f"mc={est.mean:.6e} analytic={ana:.6e} z={z:.2f}"))
    out.append(CheckResult(
        "moments",
        f"empirical vs analytic irradiance moments at {n_samples:.0e} samples",
        all(r.ok for r in out),
        f"worst |z| {worst_z:.2f} at {worst_at}"))
    return out


# ---------------------------------------------------------------------------
# distribution normalization (acceptance 4)
# ---------------------------------------------------------------------------


def check_normalization() -> list[CheckResult]:
    out = []
    worst_pdf = 0.0
    worst_lim = 0.0
    mono_ok = True
    for key in PRESET_KEYS:
        egg = get_preset(key).egg
        for pair_name, pointing in POINTING_PAIRS:
            rho = grid_config(key, pointing, 100.0).rho
            lo = math.log(rho) - 70.0
            hi = math.log(rho) + 30.0
            val, _ = adaptive_quad(
                lambda u: ch._pdf_times_x(u, rho, egg, pointing),
                lo, hi, epsabs=1e-10, epsrel=1e-8)
            worst_pdf = max(worst_pdf, abs(val - 1.0))
            scale = rho * pointing.a0 * min(egg.lam, egg.b)
            x_small = scale * math.exp(-40.0 / min(pointing.xi2, egg.a * egg.c))
            low = ch.uowc_snr_cdf(x_small, rho, egg, pointing)
            high = ch.uowc_snr_cdf(rho * 1e12, rho, egg, pointing)
            worst_lim = max(worst_lim, low, abs(1.0 - high))
            grid = np.geomspace(rho * 1e-10, rho * 1e6, 500)
            cdf = ch.uowc_snr_cdf(grid, rho, egg, pointing)
            mono_ok &= bool(np.all(np.diff(cdf) >= -1e-12))
            if abs(val - 1.0) > 1e-6 or low > 1e-6 or abs(1.0 - high) > 1e-6:
                out.append(CheckResult(
                    "normalization", f"{key} {pair_name}", False,
                    f"integral={val:.8f} low={low:.2e} high={high:.8f}"))
    out.append(CheckResult(
        "normalization", "optical SNR CDF monotone on a 500-point grid",
        mono_ok))
    out.append(CheckResult(
        "normalization", "optical SNR pdf mass and CDF limits, all presets",
        all(r.ok for r in out),
        f"worst |mass-1| {worst_pdf:.2e}, worst limit defect {worst_lim:.2e}"))
    return out


# ---------------------------------------------------------------------------
# three-way agreement (acceptance 1)
# ---------------------------------------------------------------------------


def check_three_way(n_samples: int, seed: int = 999,
                    subset: int | None = None) -> list[CheckResult]:
    """The three methods on the floored grid points.  A closed-form
    CapabilityError (the c = 216 preset) excludes that point's closed form;
    any other error of a method fails the check."""
    points = list(grid_points())
    if subset is not None:
        # point i comes from the i-th run of `stride`, at offset 7i mod stride:
        # the grid holds 12 points per preset, so at subset 6 the offsets
        # 0, 7, 2, 9, 4, 11 give each preset its own (pointing, mu1, threshold)
        # and the six cover both pointings, both mu1 and all three thresholds
        stride = max(1, len(points) // subset)
        points = [points[stride * i + (7 * i) % stride]
                  for i in range(min(subset, len(points)))]
    labels = [(key, pair_name, mu1, gth) for key, pair_name, _, mu1, gth in points]
    pairs = [(grid_config(key, pointing, mu1).floored(), OutageQuery(gth))
             for key, _, pointing, mu1, gth in points]
    mc = McConfig(n_samples=n_samples, seed=seed)
    runs = [evaluate(pairs, method, mc) for method in METHODS]
    out = []
    worst_rel = worst_zs = 0.0
    n_closed = 0
    for label, *results in zip(labels, *runs):
        r_cf, r_q, r_mc = results
        for res in results:
            if res.error is not None and (res.method, res.error["type"]) != (
                    "closed_form", "CapabilityError"):
                out.append(CheckResult("three-way", f"{res.method} at {label}", False,
                                       f"{res.error['type']}: {res.error['message']}"))
        if r_q.error is not None:
            continue
        p_q = r_q.value
        if r_cf.error is None and p_q >= 1e-6:
            n_closed += 1
            rel = abs(r_cf.value - p_q) / p_q
            worst_rel = max(worst_rel, rel)
            if rel > 1e-6:
                out.append(CheckResult("three-way", f"closed vs quadrature {label}",
                                       False, f"rel {rel:.2e}"))
        sigma = max(r_mc.err_est, math.sqrt(p_q * (1.0 - p_q) / n_samples), 1e-300)
        zscore = abs(r_mc.value - p_q) / sigma
        worst_zs = max(worst_zs, zscore)
        if zscore > 3.0:
            out.append(CheckResult("three-way", f"quadrature vs MC {label}",
                                   False, f"z {zscore:.2f}"))
    out.append(CheckResult(
        "three-way",
        f"agreement on {len(points)} grid points ({n_closed} with closed form)",
        all(r.ok for r in out),
        f"worst closed/quad rel {worst_rel:.2e}, worst |z| {worst_zs:.2f}"))
    return out


# ---------------------------------------------------------------------------
# qualitative trends (acceptance 6)
# ---------------------------------------------------------------------------


def check_trends(mc_samples: int = 0, seed: int = 2024) -> list[CheckResult]:
    out = []

    # (a) threshold monotonicity
    cfg = grid_config("salty/16.5", WEAK_POINTING, 100.0)
    gths = np.geomspace(0.05, 2e3, 50)
    pq = [outage_quadrature(cfg, OutageQuery(float(g))).value for g in gths]
    pc = [outage_closed_form(cfg, OutageQuery(float(g))).value for g in gths]
    mono_q = all(pq[i + 1] >= pq[i] - 1e-12 for i in range(len(pq) - 1))
    mono_c = all(pc[i + 1] >= pc[i] - 1e-9 for i in range(len(pc) - 1))
    mono_m = True
    if mc_samples:
        mcc = McConfig(n_samples=mc_samples, seed=seed)
        pm = [mc_outage(cfg, OutageQuery(float(g)), mcc).mean
              for g in np.geomspace(0.05, 2e3, 12)]
        mono_m = all(pm[i + 1] >= pm[i] for i in range(len(pm) - 1))
    out.append(CheckResult("trends", "outage nondecreasing in threshold",
                           mono_q and mono_c and mono_m,
                           f"quad {mono_q}, closed {mono_c}, mc {mono_m}"))

    # (b) relay count: improvement with saturation
    sat_ok = True
    mono_ok = True
    detail = []
    for key in ("salty/16.5", "fresh/16.5"):
        for gth in (1.0, 10.0):
            ps = {}
            for n in (1, 2, 3, 4, 6, 8, 10, 16):
                cfgn = grid_config(key, WEAK_POINTING, 100.0, n_relays=n)
                ps[n] = outage_quadrature(cfgn, OutageQuery(gth)).value
            keys_sorted = sorted(ps)
            mono_ok &= all(ps[keys_sorted[i + 1]] <= ps[keys_sorted[i]] + 1e-9
                           for i in range(len(keys_sorted) - 1))
            gap = abs(ps[10] - ps[16]) / ps[10]
            sat_ok &= gap <= 0.01
            detail.append(f"{key} gth={gth:g}: gap {gap:.3%}")
    out.append(CheckResult("trends", "more relays help, then saturate",
                           mono_ok and sat_ok, "; ".join(detail)))

    # (c) salinity ordering in the operating range, (d) pointing dominance,
    # both read from one quadrature per grid point
    grid = {(key, pair_name, mu1, gth): outage_quadrature(
                grid_config(key, pointing, mu1), OutageQuery(gth),
                floor_c=True).value
            for key, pair_name, pointing, mu1, gth in grid_points()}
    sal_ok = True
    point_ok = True
    worst_sal = 0.0
    for (key, pair_name, mu1, gth), p_q in grid.items():
        salinity, level = key.split("/")
        if salinity == "salty":
            p_fresh = grid[f"fresh/{level}", pair_name, mu1, gth]
            # claim holds in the performance-relevant regime; near
            # saturation the mixture upper tails take over and the
            # ordering is genuinely not strict
            if max(p_q, p_fresh) <= 0.5:
                worst_sal = min(worst_sal, p_q - p_fresh)
                sal_ok &= p_q >= p_fresh - 1e-9
        if pair_name == "weak":
            point_ok &= grid[key, "strong", mu1, gth] >= p_q - 1e-9
    out.append(CheckResult("trends",
                           "salty water at or above fresh (grid points with outage <= 0.5)",
                           sal_ok, f"min salty-fresh margin {worst_sal:.2e}"))
    out.append(CheckResult("trends", "stronger pointing errors never help",
                           point_ok))

    # (e) path-loss monotonicity in radius and height
    from .channels import RfLinkParams, UowcLinkParams
    uowc = UowcLinkParams(eta=0.8, p2=0.1, n0=1e-21, pr=0.1)
    egg = get_preset("salty/16.5").egg
    geo_ok = True
    for vary in ("radius", "height"):
        prev = -1.0
        for v in (5.0, 20.0, 50.0, 100.0, 200.0, 400.0):
            rf = RfLinkParams(p1=0.1, sigma1_sq=1e-12, g0=1e-3,
                              radius_r=v if vary == "radius" else 100.0,
                              height_l=v if vary == "height" else 20.0,
                              n_relays=3)
            cfg_g = SystemConfig.from_link(rf, uowc, egg, WEAK_POINTING)
            p = outage_quadrature(cfg_g, OutageQuery(200.0)).value
            geo_ok &= p >= prev - 1e-15
            prev = p
    out.append(CheckResult("trends", "outage grows with radius and height",
                           geo_ok))
    return out


# ---------------------------------------------------------------------------
# flooring gap (acceptance 7)
# ---------------------------------------------------------------------------


def check_flooring() -> list[CheckResult]:
    out = []
    details = []
    ok = True
    for key in PRESET_KEYS:
        cfg = grid_config(key, WEAK_POINTING, 100.0)
        gap = flooring_gap_report(cfg, OutageQuery(10.0))
        fine = math.isfinite(gap) and 0.0 <= gap <= 1.0
        ok &= fine
        details.append(f"{key}: {gap:.3e}")
    out.append(CheckResult("flooring", "rounding gap finite for every preset",
                           ok, "; ".join(details)))
    return out


# ---------------------------------------------------------------------------
# sampling distribution and determinism
# ---------------------------------------------------------------------------


def check_distribution(n_samples: int, presets=None, seed: int = 777) -> list[CheckResult]:
    out = []
    worst = 0.0
    for key in presets or PRESET_KEYS:
        egg = get_preset(key).egg
        cfg = grid_config(key, WEAK_POINTING, 100.0)
        g2 = np.sort(sample_uowc_snr(chunk_stream(seed, 0), cfg, n_samples))
        lo = math.log(g2[0]) - 1e-2
        hi = math.log(g2[-1]) + 1e-2
        grid = np.exp(np.linspace(lo, hi, 900))
        f_grid = ch.uowc_snr_cdf(grid, cfg.rho, egg, WEAK_POINTING)
        f_s = np.interp(np.log(g2), np.log(grid), f_grid)
        idx = np.arange(1, n_samples + 1)
        dstat = max(float(np.max(np.abs(f_s - idx / n_samples))),
                    float(np.max(np.abs(f_s - (idx - 1) / n_samples))))
        crit = KS_CRIT_1PCT / math.sqrt(n_samples)
        worst = max(worst, dstat / crit)
        if dstat >= crit:
            out.append(CheckResult("distribution", f"KS {key}", False,
                                   f"D={dstat:.2e} crit={crit:.2e}"))
    out.append(CheckResult(
        "distribution", "optical SNR samples match the analytic CDF (KS, 1%)",
        all(r.ok for r in out), f"worst D/crit {worst:.2f}"))
    return out


def check_determinism(seed: int = 31337) -> list[CheckResult]:
    cfg = grid_config("salty/7.1", WEAK_POINTING, 100.0)
    mcc = McConfig(n_samples=200_000, seed=seed, chunk_size=77_777)
    a = mc_outage(cfg, OutageQuery(10.0), mcc)
    b = mc_outage(cfg, OutageQuery(10.0), mcc)
    ok = a == b
    return [CheckResult("determinism", "identical run reproduces bit-identically",
                        ok, f"p={a.mean!r}")]


# ---------------------------------------------------------------------------
# level driver
# ---------------------------------------------------------------------------


def run_level(level: str, seed: int = 999):
    """Run the suites of one level, yielding (suite, results, wall seconds)
    as each one finishes."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    fast = level == "fast"
    suites = (
        ("specfun", lambda: check_specfun(n_random=30 if fast else 100)),
        ("rf identities", check_rf_identities),
        ("moments", lambda: check_moments(
            n_samples=100_000 if fast else 10_000_000)),
        ("normalization", check_normalization),
        ("three-way", lambda: check_three_way(
            n_samples=100_000 if fast else 10_000_000, seed=seed,
            subset=6 if fast else None)),
        ("trends", lambda: check_trends(mc_samples=0 if fast else 1_000_000,
                                        seed=seed)),
        ("flooring", check_flooring),
        ("distribution", lambda: check_distribution(
            n_samples=200_000 if fast else 1_000_000,
            presets=("salty/4.7",) if fast else None)),
        ("determinism", check_determinism),
    )
    for name, run in suites:
        start = time.perf_counter()
        results = run()
        yield name, results, time.perf_counter() - start
