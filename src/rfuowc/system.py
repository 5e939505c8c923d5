"""End-to-end link combination and outage probability.

The two hops are coupled through a fixed-gain relay: the end-to-end SNR is
g1*g2/(g2 + C) with C set by the mean selected first-hop SNR.  Outage is
computed two ways here (a Meijer-G closed form and direct quadrature of the
mixing integral); the Monte Carlo path lives in rfuowc.mc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channels as ch
from .channels import EggParams, LinkBudget, PointingParams, RfLinkParams, UowcLinkParams
from .quadrature import QuadratureError, adaptive_quad
from .specfun import (
    DEFAULT_OPTIONS,
    CapabilityError,
    EvalOptions,
    MAX_INTEGER_C,
    MeijerGSpec,
    ln_gamma,
    meijer_g_log,
)

__all__ = [
    "SystemConfig",
    "OutageQuery",
    "OutageResult",
    "end_to_end_snr",
    "outage_closed_form",
    "outage_quadrature",
    "flooring_gap_report",
]

_LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold on the end-to-end SNR (linear)."""

    gamma_th: float

    def __post_init__(self):
        if not (self.gamma_th > 0.0) or not math.isfinite(self.gamma_th):
            raise ValueError("gamma_th must be positive and finite")


@dataclass(frozen=True)
class OutageResult:
    value: float
    method: str
    err_est: float
    c_used: float
    clamped: bool = False


@dataclass(frozen=True)
class SystemConfig:
    """Full dual-hop scenario with its derived budget cached."""

    rf: RfLinkParams
    uowc: UowcLinkParams
    egg: EggParams
    pointing: PointingParams
    budget: LinkBudget
    gain_convention: str = "squared"
    rho_convention: str = "as-written"

    @classmethod
    def from_params(cls, rf: RfLinkParams, uowc: UowcLinkParams, egg: EggParams,
                    pointing: PointingParams, gain_convention: str = "squared",
                    rho_convention: str = "as-written") -> "SystemConfig":
        budget = build_budget(rf, uowc, egg, pointing, gain_convention,
                              rho_convention)
        return cls(rf=rf, uowc=uowc, egg=egg, pointing=pointing, budget=budget,
                   gain_convention=gain_convention, rho_convention=rho_convention)

    @classmethod
    def from_direct_snr(cls, mu1: float, n_relays: int, egg: EggParams,
                        pointing: PointingParams, uowc_scale: float | None = None,
                        mu2: float | None = None,
                        rho_convention: str = "as-written") -> "SystemConfig":
        """Scenario pinned by SNR levels instead of a physical power budget.

        mu1 sets the per-relay first-hop average SNR.  The optical hop is
        pinned either by uowc_scale (electrical SNR scale before the
        irradiance normalization, shared across pointing presets) or by the
        average electrical SNR mu2 itself.
        """
        if (uowc_scale is None) == (mu2 is None):
            raise ValueError("specify exactly one of uowc_scale and mu2")
        if mu1 <= 0:
            raise ValueError("mu1 must be positive")
        rf = RfLinkParams(p1=mu1, sigma1_sq=1.0, g0=1.0, radius_r=0.0,
                          height_l=1.0, n_relays=n_relays)
        c_const = ch.relay_constant_c(mu1, n_relays)
        if uowc_scale is None:
            mean_i = ch.egg_moment(1, egg, pointing)
            uowc_scale = mu2 / mean_i ** 2
        if uowc_scale <= 0:
            raise ValueError("optical SNR scale must be positive")
        uowc = UowcLinkParams(eta=1.0, p2=1.0, n0=1.0, pr=uowc_scale * c_const)
        return cls.from_params(rf, uowc, egg, pointing,
                               gain_convention="squared",
                               rho_convention=rho_convention)

    def floored(self) -> "SystemConfig":
        """The same scenario with the generalized-gamma exponent rounded down.

        All derived quantities (moments, SNR scales) are recomputed so the
        three outage methods can be compared on one consistent distribution.
        """
        c_int = math.floor(self.egg.c)
        if c_int < 1:
            raise ValueError("flooring the exponent would leave c < 1")
        if self.egg.c == c_int:
            return self
        egg = replace(self.egg, c=float(c_int))
        return SystemConfig.from_params(self.rf, self.uowc, egg, self.pointing,
                                        self.gain_convention, self.rho_convention)

    def budget_residual(self) -> float:
        """Largest relative mismatch between the cached and recomputed budget."""
        fresh = build_budget(self.rf, self.uowc, self.egg, self.pointing,
                             self.gain_convention, self.rho_convention)
        worst = 0.0
        for name in ("g1", "mu1", "c_const", "g_relay_sq", "mean_i", "mean_i2",
                     "mu2", "avg_snr2", "rho"):
            have = getattr(self.budget, name)
            want = getattr(fresh, name)
            worst = max(worst, abs(have - want) / max(abs(want), 1e-300))
        return worst


def build_budget(rf: RfLinkParams, uowc: UowcLinkParams, egg: EggParams,
                 pointing: PointingParams, gain_convention: str = "squared",
                 rho_convention: str = "as-written") -> LinkBudget:
    g1 = ch.rf_avg_power_gain(rf)
    mu1 = ch.rf_avg_snr(rf)
    c_const = ch.relay_constant_c(mu1, rf.n_relays)
    g_relay_sq = ch.relay_gain_sq(uowc, rf.sigma1_sq, c_const, gain_convention)
    mean_i, mean_i2, mu2, avg_snr2, rho = ch.uowc_budget(
        uowc, egg, pointing, g_relay_sq, rho_convention)
    return LinkBudget(g1=g1, mu1=mu1, c_const=c_const, g_relay_sq=g_relay_sq,
                      mean_i=mean_i, mean_i2=mean_i2, mu2=mu2,
                      avg_snr2=avg_snr2, rho=rho)


def end_to_end_snr(gamma1, gamma2, c_const):
    """Fixed-gain relayed SNR g1*g2/(g2 + C); bounded above by gamma1."""
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    if np.any(g1 < 0) or np.any(g2 < 0):
        raise ValueError("SNRs must be non-negative")
    if np.any(np.asarray(c_const) < 1.0):
        raise ValueError("relay constant must be >= 1")
    out = g1 * (g2 / (g2 + c_const))
    if np.isscalar(gamma1) and np.isscalar(gamma2):
        return float(out)
    return out


def _finalize(value: float, method: str, err_est: float, c_used: float):
    clamped = False
    if value < 0.0:
        if value < -1e-9:
            raise QuadratureError(
                f"{method} produced {value:.3e}, below the clamp window")
        value, clamped = 0.0, True
    if value > 1.0:
        if value > 1.0 + 1e-9:
            raise QuadratureError(
                f"{method} produced {value:.6e} > 1, outside the clamp window")
        value, clamped = 1.0, True
    return OutageResult(value=value, method=method, err_est=err_est,
                        c_used=c_used, clamped=clamped)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def outage_closed_form(cfg: SystemConfig, q: OutageQuery,
                       opts: EvalOptions = DEFAULT_OPTIONS) -> OutageResult:
    """Outage probability from the G-function expression.

    The generalized-gamma exponent is rounded down to an integer (that is the
    validity condition of the expression) and the whole scenario is re-derived
    with the rounded exponent so that quadrature and Monte Carlo runs on the
    same rounded system are directly comparable.
    """
    c_int = math.floor(cfg.egg.c)
    if c_int < 1:
        raise CapabilityError("closed form needs floor(c) >= 1")
    if c_int > MAX_INTEGER_C:
        raise CapabilityError(
            f"floor(c) = {c_int} exceeds the supported closed-form order "
            f"{MAX_INTEGER_C}; use quadrature or Monte Carlo")
    sys_f = cfg.floored()
    egg, pointing, budget = sys_f.egg, sys_f.pointing, sys_f.budget
    n = sys_f.rf.n_relays
    mu1, c_const, rho = budget.mu1, budget.c_const, budget.rho
    xi2 = pointing.xi2
    w = egg.w
    gth = q.gamma_th

    spec1 = MeijerGSpec(m=3, n=0, a=(xi2 + 1.0,), b=(1.0, xi2, 0.0))
    spec2 = MeijerGSpec(
        m=2 + c_int, n=0, a=(xi2 / c_int + 1.0,),
        b=tuple([egg.a, xi2 / c_int] + [j / c_int for j in range(c_int)]))
    log_pre2 = (-0.5 * math.log(c_int) - 0.5 * (c_int - 1) * _LOG_TWO_PI
                - ln_gamma(egg.a))

    terms = []
    mags = []
    for k in range(n):
        lead = (math.comb(n - 1, k) * (-1.0) ** k / (k + 1)
                * math.exp(-(k + 1) * gth / mu1))
        if lead == 0.0:
            terms.append(0.0)
            continue
        scale = (k + 1) * gth * c_const / (rho * mu1)
        bracket = 0.0
        if w > 0.0:
            ln_z1 = math.log(scale) - math.log(egg.lam * pointing.a0)
            s1, lg1 = meijer_g_log(spec1, ln_z1, opts)
            bracket += w * xi2 * s1 * math.exp(lg1)
        if w < 1.0:
            ln_z2 = c_int * (math.log(scale)
                             - math.log(egg.b * pointing.a0 * c_int))
            s2, lg2 = meijer_g_log(spec2, ln_z2, opts)
            if lg2 != -np.inf:
                bracket += (1.0 - w) * xi2 * s2 * math.exp(log_pre2 + lg2)
        terms.append(lead * bracket)
        mags.append(abs(lead * bracket))
    total = n * math.fsum(terms)
    value = 1.0 - total
    # tolerance of each G factor plus cancellation noise of the relay sum
    err = opts.rel_tol * n * math.fsum(mags) + 1e-15 * (1.0 + n * math.fsum(mags))
    return _finalize(value, "closed_form", err, float(c_int))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def outage_quadrature(cfg: SystemConfig, q: OutageQuery, floor_c: bool = False,
                      epsabs: float = 1e-14, epsrel: float = 3e-9) -> OutageResult:
    """Outage probability by integrating the first-hop CDF against the
    optical SNR density on a log axis."""
    sys_e = cfg.floored() if floor_c else cfg
    egg, pointing, budget = sys_e.egg, sys_e.pointing, sys_e.budget
    n = sys_e.rf.n_relays
    mu1, c_const, rho = budget.mu1, budget.c_const, budget.rho
    gth = q.gamma_th

    def integrand(u):
        x = np.exp(u)
        cdf1 = ch.rf_snr_cdf(gth + gth * c_const / x, mu1, n)
        return cdf1 * ch._pdf_times_x(u, budget, egg, pointing)

    u_lo, u_hi, trunc = _bracket(budget, egg, pointing)
    knots = _knots(budget, egg, pointing, mu1, c_const, gth, u_lo, u_hi)
    value, err = adaptive_quad(integrand, u_lo, u_hi, epsabs=epsabs,
                               epsrel=epsrel, points=knots)
    return _finalize(value, "quadrature", err + trunc,
                     sys_e.egg.c)


def _bracket(budget, egg, pointing):
    """Log-axis integration window with negligible truncated mass: on each
    side the first rung of a fixed ladder, all rungs evaluated in one call,
    whose CDF (left) or exponential-tail estimate (right) is below 1e-15."""
    anchors = [math.log(egg.lam * pointing.a0 * budget.rho),
               math.log(egg.b * pointing.a0 * budget.rho)]
    left = min(anchors) - 3.0 - 4.0 * np.arange(80)
    low = np.nonzero(ch.uowc_snr_cdf(np.exp(left), budget, egg, pointing) < 1e-15)[0]
    if low.size == 0:
        raise QuadratureError("left tail of the optical SNR does not vanish")
    right = max(anchors) + 2.0 / min(egg.c, 2.0) + 2.0 * np.arange(80)
    w = ch._pdf_times_x(right, budget, egg, pointing)
    prev, cur = w[:-1], w[1:]
    falling = (cur > 0.0) & (prev > cur)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(falling, np.log(prev) - np.log(cur), 1.0) / 2.0
        trunc = np.where(falling, cur / np.maximum(slope, 0.2), 0.0)
    stop = np.concatenate([[w[0] == 0.0], (falling & (trunc < 1e-15)) | (cur == 0.0)])
    hits = np.nonzero(stop)[0]
    if hits.size == 0:
        raise QuadratureError("right tail of the optical SNR does not decay")
    k = hits[0]
    return left[low[0]], right[k] + 1.0, (trunc[k - 1] if k else 0.0) + 1e-15


def _knots(budget, egg, pointing, mu1, c_const, gth, u_lo, u_hi):
    pts = []
    for anchor in (egg.lam, egg.b):
        ua = math.log(anchor * pointing.a0 * budget.rho)
        for t in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            pts.append(ua + t / max(1.0, egg.c / 4.0))
            pts.append(ua + t)
    # knee where the first-hop CDF argument doubles
    pts.append(math.log(gth * c_const / max(mu1, 1e-300) + 1e-300))
    return [p for p in pts if u_lo < p < u_hi]


def flooring_gap_report(cfg: SystemConfig, q: OutageQuery) -> float:
    """|P_out(exact c) - P_out(floor c)| by quadrature, the cost of the
    integer rounding that the closed form requires."""
    exact = outage_quadrature(cfg, q, floor_c=False)
    floored = outage_quadrature(cfg, q, floor_c=True)
    return abs(exact.value - floored.value)
