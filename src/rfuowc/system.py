"""End-to-end link combination and outage probability.

The two hops are coupled through a fixed-gain relay: the end-to-end SNR is
g1*g2/(g2 + C) with C set by the mean selected first-hop SNR.  Outage is
computed two ways here (a Meijer-G closed form and direct quadrature of the
mixing integral); the Monte Carlo path lives in rfuowc.mc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import channels as ch
from .channels import EggParams, PointingParams, RfLinkParams, UowcLinkParams
from .quadrature import QuadratureError, adaptive_quad
from .specfun import CapabilityError, MAX_INTEGER_C, folded_gg_factor_log

__all__ = [
    "SystemConfig",
    "OutageQuery",
    "OutageResult",
    "end_to_end_snr",
    "outage_closed_form",
    "outage_quadrature",
    "flooring_gap_report",
]


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
    """Dual-hop scenario as the outage methods read it.

    mu1 is the per-relay first-hop average SNR and uowc_scale the optical
    electrical SNR scale before the irradiance normalization, so the average
    optical SNR is mu2 = uowc_scale E[I]^2.  The relay constant C and the
    optical SNR scale rho are derived on construction.  rho_convention
    'as-written' compounds the irradiance normalization twice,
    rho = mu2 E[I^2] / E[I]^2 / E[I]^2; 'mu2' takes rho = mu2.
    """

    mu1: float
    n_relays: int
    uowc_scale: float
    egg: EggParams
    pointing: PointingParams
    rho_convention: str = "as-written"
    c_const: float = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.mu1 < math.inf:
            raise ValueError(f"mu1 must be positive and finite, got {self.mu1!r}")
        if not 0.0 < self.uowc_scale < math.inf:
            raise ValueError("optical SNR scale must be positive and finite, "
                             f"got {self.uowc_scale!r}")
        n = ch._check_n(self.n_relays)
        object.__setattr__(self, "n_relays", n)
        object.__setattr__(self, "c_const", ch.relay_constant_c(self.mu1, n))
        try:
            mean_i = ch.egg_moment(1, self.egg, self.pointing)
            mu2 = self.uowc_scale * mean_i ** 2
            if self.rho_convention == "as-written":
                rho = mu2 * ch.egg_moment(2, self.egg, self.pointing) / mean_i ** 2 \
                    / mean_i ** 2
            elif self.rho_convention == "mu2":
                rho = mu2
            else:
                raise ValueError(f"unknown rho convention {self.rho_convention!r}")
        except (OverflowError, ZeroDivisionError):
            # a moment, or its square, out of the range of a double
            rho = math.nan
        if not 0.0 < rho < math.inf:
            raise ValueError("the irradiance moments give no finite, positive "
                             f"optical SNR scale rho (got {rho!r}) for "
                             f"{self.egg} and {self.pointing}")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_direct_snr(cls, mu1: float, n_relays: int, egg: EggParams,
                        pointing: PointingParams, uowc_scale: float | None = None,
                        mu2: float | None = None,
                        rho_convention: str = "as-written") -> "SystemConfig":
        """Scenario pinned by SNR levels instead of a physical power budget.

        The optical hop is pinned either by uowc_scale (shared across
        pointing presets) or by the average electrical SNR mu2 itself.
        """
        if (uowc_scale is None) == (mu2 is None):
            raise ValueError("specify exactly one of uowc_scale and mu2")
        if uowc_scale is None:
            # at unit scale the 'mu2' convention derives, and checks, rho = E[I]^2
            uowc_scale = mu2 / cls(mu1, n_relays, 1.0, egg, pointing, "mu2").rho
        return cls(mu1, n_relays, uowc_scale, egg, pointing, rho_convention)

    @classmethod
    def from_link(cls, rf: RfLinkParams, uowc: UowcLinkParams, egg: EggParams,
                  pointing: PointingParams, gain_convention: str = "squared",
                  rho_convention: str = "as-written") -> "SystemConfig":
        """Scenario from a physical power budget.

        mu1 = P1 g1 / sigma1^2 with the path gain g1 = g0 / (R^2 + L^2).  The
        relay's amplification from statistical channel knowledge is
        Pr / (sigma1^2 C): the 'squared' convention reads it as the squared
        gain G^2 (the usual fixed-gain normalization), 'literal' squares it.
        The optical scale is G^2 (P2 eta)^2 / (N0 B).
        """
        mu1 = ch.rf_avg_snr(rf)
        g_sq = uowc.pr / (rf.sigma1_sq * ch.relay_constant_c(mu1, rf.n_relays))
        if gain_convention == "literal":
            g_sq = g_sq * g_sq
        elif gain_convention != "squared":
            raise ValueError(f"unknown gain convention {gain_convention!r}")
        scale = g_sq * (uowc.p2 * uowc.eta) ** 2 / uowc.noise_power
        return cls(mu1, rf.n_relays, scale, egg, pointing, rho_convention)

    def floored(self) -> "SystemConfig":
        """The same scenario with the generalized-gamma exponent rounded down.

        rho is derived anew from the rounded moments, so the three outage
        methods can be compared on one consistent distribution.
        """
        c_int = math.floor(self.egg.c)
        if c_int < 1:
            raise ValueError("flooring the exponent would leave c < 1")
        if self.egg.c == c_int:
            return self
        return replace(self, egg=replace(self.egg, c=float(c_int)))


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


def outage_closed_form(cfg: SystemConfig, q: OutageQuery) -> OutageResult:
    """Outage probability from the G-function expression.

    The generalized-gamma exponent is rounded down to an integer (that is the
    validity condition of the expression) and the whole scenario is re-derived
    with the rounded exponent so that quadrature and Monte Carlo runs on the
    same rounded system are directly comparable.  Each relay term has one
    folded generalized-gamma factor per branch of the turbulence mixture
    (the exponential branch is the one at a = c = 1), from its residue
    series where the series' own estimate is within 1e-12, else from its
    real-line integral over the upper incomplete gamma
    (specfun.folded_gg_factor_log).  err_est charges each factor's own
    estimate.  The Mellin-Barnes contour is not on this path; it stays an
    oracle.
    """
    c_int = math.floor(cfg.egg.c)
    if c_int < 1:
        raise CapabilityError("closed form needs floor(c) >= 1")
    if c_int > MAX_INTEGER_C:
        raise CapabilityError(
            f"floor(c) = {c_int} exceeds the supported closed-form order "
            f"{MAX_INTEGER_C}; use quadrature or Monte Carlo")
    sys_f = cfg.floored()
    egg, pointing = sys_f.egg, sys_f.pointing
    n, mu1, c_const, rho = sys_f.n_relays, sys_f.mu1, sys_f.c_const, sys_f.rho
    xi2 = pointing.xi2
    gth = q.gamma_th
    branches = [br for br in egg.branches if br[0] > 0.0]

    terms = []
    mags = []
    # each factor's error, from its own estimate
    errs = []
    for k in range(n):
        lead = (math.comb(n - 1, k) * (-1.0) ** k / (k + 1)
                * math.exp(-(k + 1) * gth / mu1))
        if lead == 0.0:
            terms.append(0.0)
            continue
        scale = (k + 1) * gth * c_const / (rho * mu1)
        bracket = 0.0
        for weight, a, b, c in branches:
            # the argument c^c y of the folded factor, y the expression's own
            ln_z = c * (math.log(scale) - math.log(b * pointing.a0))
            lg, est = folded_gg_factor_log(a, xi2, c, ln_z)
            part = weight * xi2 * math.exp(lg - math.lgamma(a))
            bracket += part
            errs.append(abs(lead * part) * est)
        terms.append(lead * bracket)
        mags.append(abs(lead * bracket))
    total = n * math.fsum(terms)
    value = 1.0 - total
    # error of each G factor plus cancellation noise of the relay sum
    err = n * math.fsum(errs) + 1e-15 * (1.0 + n * math.fsum(mags))
    return _finalize(value, "closed_form", err, float(c_int))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# error target of the outage integral: max(_EPSABS, _EPSREL * |P_out|)
_EPSABS = 1e-14
_EPSREL = 3e-9


def outage_quadrature(cfg: SystemConfig, q: OutageQuery,
                      floor_c: bool = False) -> OutageResult:
    """Outage probability by integrating the first-hop CDF against the
    optical SNR density on a log axis."""
    sys_e = cfg.floored() if floor_c else cfg
    egg, pointing, rho = sys_e.egg, sys_e.pointing, sys_e.rho
    n, mu1, c_const = sys_e.n_relays, sys_e.mu1, sys_e.c_const
    gth = q.gamma_th

    def integrand(u):
        x = np.exp(u)
        cdf1 = ch.rf_snr_cdf(gth + gth * c_const / x, mu1, n)
        return cdf1 * ch._pdf_times_x(u, rho, egg, pointing)

    u_lo, u_hi, trunc = _bracket(rho, egg, pointing)
    knots = _knots(sys_e, gth, u_lo, u_hi)
    value, err = adaptive_quad(integrand, u_lo, u_hi, epsabs=_EPSABS,
                               epsrel=_EPSREL, points=knots)
    return _finalize(value, "quadrature", err + trunc,
                     sys_e.egg.c)


def _bracket(rho, egg, pointing):
    """Log-axis integration window with negligible truncated mass: on each
    side the first rung of a fixed ladder, all rungs evaluated in one call,
    whose CDF (left) or exponential-tail estimate (right) is below 1e-15."""
    anchors = [math.log(egg.lam * pointing.a0 * rho),
               math.log(egg.b * pointing.a0 * rho)]
    left = min(anchors) - 3.0 - 4.0 * np.arange(80)
    low = np.nonzero(ch.uowc_snr_cdf(np.exp(left), rho, egg, pointing) < 1e-15)[0]
    if low.size == 0:
        raise QuadratureError("left tail of the optical SNR does not vanish")
    right = max(anchors) + 2.0 / min(egg.c, 2.0) + 2.0 * np.arange(80)
    w = ch._pdf_times_x(right, rho, egg, pointing)
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


def _knots(cfg, gth, u_lo, u_hi):
    egg = cfg.egg
    pts = []
    for anchor in (egg.lam, egg.b):
        ua = math.log(anchor * cfg.pointing.a0 * cfg.rho)
        for t in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            pts.append(ua + t / max(1.0, egg.c / 4.0))
            pts.append(ua + t)
    # knee where the first-hop CDF argument doubles
    pts.append(math.log(gth * cfg.c_const / max(cfg.mu1, 1e-300) + 1e-300))
    return [p for p in pts if u_lo < p < u_hi]


def flooring_gap_report(cfg: SystemConfig, q: OutageQuery) -> float:
    """|P_out(exact c) - P_out(floor c)| by quadrature, the cost of the
    integer rounding that the closed form requires."""
    exact = outage_quadrature(cfg, q, floor_c=False)
    floored = outage_quadrature(cfg, q, floor_c=True)
    return abs(exact.value - floored.value)
