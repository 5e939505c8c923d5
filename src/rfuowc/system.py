"""End-to-end link combination and outage probability.

The two hops are coupled through a fixed-gain relay: the end-to-end SNR is
g1*g2/(g2 + C) with C set by the mean selected first-hop SNR.  Outage is
computed two ways here (a Meijer-G closed form and direct quadrature of the
mixing integral), and evaluate runs them and rfuowc.mc's Monte Carlo on points.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channels as ch
from .channels import EggParams, PointingParams, RfLinkParams, UowcLinkParams
from .mc import McConfig, mc_outage
from .quadrature import QuadratureError, adaptive_quad
from .specfun import CapabilityError, MAX_INTEGER_C, SpecfunError, folded_gg_factor_log

__all__ = [
    "METHODS",
    "SystemConfig",
    "OutageQuery",
    "OutageResult",
    "end_to_end_snr",
    "outage_closed_form",
    "outage_quadrature",
    "evaluate",
    "flooring_gap_report",
]

METHODS = ("closed_form", "quadrature", "monte_carlo")


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold on the end-to-end SNR (linear)."""

    gamma_th: float

    def __post_init__(self):
        # a subnormal threshold would put quadrature's saturation point at 0
        if not np.finfo(float).tiny <= self.gamma_th < math.inf:
            raise ValueError(f"gamma_th must be a normal positive double, got {self.gamma_th!r}")


@dataclass(frozen=True)
class OutageResult:
    value: float
    method: str
    err_est: float
    c_used: float
    clamped: bool = False
    error: dict | None = None  # type and message of a typed error; value NaN
    elapsed_ms: float | None = None  # set by evaluate


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
        n = ch._check_rf(self.mu1, self.n_relays)
        if not 0.0 < self.uowc_scale < math.inf:
            raise ValueError("optical SNR scale must be positive and finite, "
                             f"got {self.uowc_scale!r}")
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
        methods can be compared on one consistent distribution.  A config
        derives it once.
        """
        c_int = math.floor(self.egg.c)
        if c_int < 1:
            raise ValueError("flooring the exponent would leave c < 1")
        if self.egg.c == c_int:
            return self
        return self._floored

    @functools.cached_property
    def _floored(self) -> "SystemConfig":
        return replace(self, egg=replace(self.egg, c=float(math.floor(self.egg.c))))


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
    """The result; a value within 1e-9 outside [0, 1] is clamped.  Others and
    NaN raise the error of the method that made them: CapabilityError from
    the closed form, naming the methods that answer, else QuadratureError."""
    if not -1e-9 <= value <= 1.0 + 1e-9:
        message = f"{method} produced {value!r}, outside the clamp window"
        if method == "closed_form":
            raise CapabilityError(f"{message}; use quadrature or Monte Carlo")
        raise QuadratureError(message)
    return OutageResult(value=min(max(value, 0.0), 1.0), method=method, err_est=err_est,
                        c_used=c_used, clamped=value < 0.0 or value > 1.0)


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
    (specfun.folded_gg_factor_log, one call per branch for all the relay
    terms).  err_est charges each factor's own estimate.  The Mellin-Barnes
    contour is not on this path; it stays an oracle.
    """
    c_int = math.floor(cfg.egg.c)
    if c_int < 1:
        raise CapabilityError(
            f"floor(c) = {c_int} is below the closed form's least order 1; "
            "use quadrature or Monte Carlo")
    if c_int > MAX_INTEGER_C:
        raise CapabilityError(
            f"floor(c) = {c_int} exceeds the supported closed-form order "
            f"{MAX_INTEGER_C}; use quadrature or Monte Carlo")
    sys_f = cfg.floored()
    egg, pointing = sys_f.egg, sys_f.pointing
    n, mu1, c_const, rho = sys_f.n_relays, sys_f.mu1, sys_f.c_const, sys_f.rho
    xi2 = pointing.xi2
    gth = q.gamma_th

    leads = [math.comb(n - 1, k) * (-1.0) ** k / (k + 1) * math.exp(-(k + 1) * gth / mu1)
             for k in range(n)]
    live = [k for k in range(n) if leads[k] != 0.0]
    brackets = [0.0] * len(live)
    # each factor's error, from its own estimate
    errs = []
    for weight, a, b, c in egg.branches:
        # the argument c^c y of the folded factor, y the expression's own
        ln_z = [c * (math.log((k + 1) * gth * c_const / (rho * mu1))
                     - math.log(b * pointing.a0)) for k in live]
        lg, est = folded_gg_factor_log(a, xi2, c, np.array(ln_z))
        for i, (k, ln_g, rel) in enumerate(zip(live, lg.tolist(), est.tolist())):
            part = weight * xi2 * math.exp(ln_g - math.lgamma(a))
            brackets[i] += part
            errs.append(abs(leads[k] * part) * rel)
    terms = [leads[k] * bracket for k, bracket in zip(live, brackets)]
    mags = [abs(term) for term in terms]
    total = n * math.fsum(terms)
    value = 1.0 - total
    # error of each G factor plus cancellation noise of the relay sum
    err = n * math.fsum(errs) + 1e-15 * (1.0 + n * math.fsum(mags))
    return _finalize(value, "closed_form", err, float(c_int))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# the error target relative to |P_out|; the part of it that the bound left of
# the window may take; the tail mass each branch may leave past x_r; the
# density's relative rounding per unit of the terms its exponent adds up
_EPSREL, _LEFT, _TAIL, _ROUNDING = 3e-9, 1e-4, 1e-18, 16 * 1.1e-16


def outage_quadrature(cfg: SystemConfig, q: OutageQuery,
                      floor_c: bool = False) -> OutageResult:
    """Outage probability P = int F1(gamma_th (1 + C/x)) dF2(x) of the
    first-hop CDF F1 against the optical SNR CDF F2, integrated as F1 x f2
    on a log axis over the window [u_l, u_r] of _bracket, to 3e-9 |P|.

    Left of u_l the integral is at most the closed-form bound on F2(x_l),
    which may take 1e-4 of the target, judged against the integral itself
    (P >= body - body_err); where it takes more, u_l moves left to where the
    bound is half that and the window is integrated again.  err_est charges
    the body's estimate, the left bound, F1 at x_r times the tail bound, and
    the density's rounding: its exponent adds and cancels terms of about
    ln Gamma(a + 1) + a on a branch of shape a, each rounded to eps of
    itself.  F1 only falls with x, so P >= F1(x_r) (1 - tail): where that
    is within the target of 1, P is 1 with that error, and nothing is
    integrated."""
    sys_e = cfg.floored() if floor_c else cfg
    egg, pointing, rho = sys_e.egg, sys_e.pointing, sys_e.rho
    n, mu1, c_const = sys_e.n_relays, sys_e.mu1, sys_e.c_const
    gth = q.gamma_th
    ln_gc = math.log(gth) + math.log(c_const)

    def first_hop(u):
        # an argument past the largest double is inf, where F1 is 1
        with np.errstate(over="ignore"):
            return ch.rf_snr_cdf(gth + np.exp(ln_gc - u), mu1, n)

    def integrand(u):
        return first_hop(u) * ch._pdf_times_x(u, rho, egg, pointing)

    rounding = _ROUNDING * max(1.0 + a + math.lgamma(a + 1.0) for _, a, _, _ in egg.branches)
    epsrel = (1.0 - _LEFT) * _EPSREL - rounding
    if epsrel <= 0.0:
        raise QuadratureError(f"the optical density's rounding, {rounding:.1e} of P, "
                              f"leaves no room for the target {_EPSREL:.0e}")
    u_l, u_r, left, tail = _bracket(sys_e, gth)
    f1_r = first_hop(u_r)
    if (miss := 1.0 - f1_r + tail) <= _EPSREL:
        return _finalize(1.0, "quadrature", miss, sys_e.egg.c)
    while True:
        body, body_err = adaptive_quad(integrand, u_l, u_r, epsabs=0.0, epsrel=epsrel,
                                       points=_knots(sys_e, gth, u_l))
        share = _LEFT * _EPSREL * (body - body_err)
        # a body that no double resolves has no relative target to meet
        if left <= share or not share > 0.0:
            break
        u_l, _, left, _ = _bracket(sys_e, gth, 0.5 * share)
    err = body_err + left + f1_r * tail + rounding * body
    return _finalize(body, "quadrature", err, sys_e.egg.c)


def _rate(cfg):
    """lambda, the slowest rate in u = ln x at which F2 falls to the left:
    each branch's F2 goes like z^a + z^(xi^2/c) there, with ln z = c u + const,
    so lambda is the least over the branches of min(xi^2, a c)."""
    return min(min(cfg.pointing.xi2, a * c) for _, a, _, c in cfg.egg.branches)


def _knots(cfg, gth, u_l):
    """The first partition's breakpoints on the log axis u = ln x, placed so
    that one K15/G7 sweep meets the target on almost every point.

    The first hop: with y = e^(u_k - u) about the knee u_k = ln(gamma_th C /
    mu1), 1 - F1 is about N e^-y left of it (knots at u_k - 3..0, y = 20 down
    to 1) and F1 about e^(-N (u - u_k)) right of it (knots at u_k + 1/N ..
    16/N).  Each branch (w, a, b, c) is a function of ln z = c (u - ln(b a0
    rho)): a power of z on the left with a correction of order z^a (knots
    at ln z = -1, -2, -4, .., -2048), then the edge e^-z (knots at ln z = 0,
    1, 2, 4; Q(a, e^4) < 1e-18 for a <= 5).  For a > 5 the mass of z^a e^-z
    sits past those, at ln z = ln a, about 1/sqrt(a) wide: knots at ln a +
    t / sqrt(a), t = -8 .. 8.  Left of u_0 (_left_start) F1 is within
    N e^-20 of 1 and F2 falls at least as fast as e^(lambda u) (_rate), so
    the branch knots stop at u_0 - 1/lambda and the knots down to u_l are
    u_0 - t / lambda, t = 2, 6, 11, 17, 24, ..: the panel from t, 4, 5, 6,
    .. wide, carries about e^-t of the mass, and K15/G7 meets its share of
    the target on an exponential of that width that far out."""
    u_k = _knee(cfg, gth)
    knots = [u_k + t for t in (-3.0, -2.0, -1.0, 0.0)]
    knots += [u_k + t / cfg.n_relays for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
    ln_zs = [-2.0 ** k for k in range(12)] + [0.0, 1.0, 2.0, 4.0]
    for _, a, b, c in cfg.egg.branches:
        anchor = math.log(b * cfg.pointing.a0 * cfg.rho)
        bulk = ([math.log(a) + t / math.sqrt(a) for t in (-8, -4, -2, -1, 0, 1, 2, 4, 8)]
                if a > 5.0 else [])
        knots += [anchor + ln_z / c for ln_z in ln_zs + bulk]
    lam, u_0 = _rate(cfg), _left_start(cfg, gth)
    knots = [u for u in knots if u >= u_0 - 1.0 / lam]
    t, k = 2.0, 2
    while u_0 - t / lam > u_l:
        knots.append(u_0 - t / lam)
        t, k = t + k + 2, k + 1
    return knots


def _knee(cfg, gth):
    """u_k = ln(gamma_th C / mu1), where the first hop's CDF turns."""
    return math.log(gth) + math.log(cfg.c_const) - math.log(cfg.mu1)


def _left_start(cfg, gth):
    """u_0, the least of the first hop's knee less 3 and the branches'
    anchors ln(b a0 rho): left of it F1 is within N e^-20 of 1 and z <= 1 on
    every branch."""
    return min([_knee(cfg, gth) - 3.0] + [math.log(b * cfg.pointing.a0 * cfg.rho)
                                          for _, _, b, _ in cfg.egg.branches])


def _ln_left_bound(cfg, u):
    """ln of an upper bound on F2(e^u), where ln z <= 0 on every branch: the
    sum over the branches (w, a, b, c) of w [z^a / Gamma(a + 1) + z^(xi^2/c)
    g(s, z) / Gamma(a)], s = a - xi^2/c, from P(a, z) <= z^a / Gamma(a + 1)
    and Gamma(s, z) <= g(s, z): Gamma(s) for s > 1, else (1 - z^s) / s + 1/e
    (-ln z at s = 0), the integral of t^(s-1) over [z, 1] plus that of e^-t
    over [1, inf) (DLMF 8.10)."""
    xi2, terms = cfg.pointing.xi2, []
    for w, a, b, c in cfg.egg.branches:
        ln_z = c * (u - math.log(b * cfg.pointing.a0 * cfg.rho))
        s = a - xi2 / c
        y = s * ln_z
        if s > 1.0:
            ln_g = math.lgamma(s)
        elif y > 1.0:  # s < 0: (e^y - 1) / -s + 1/e without overflowing e^y
            ln_g = y - math.log(-s) + math.log1p((-s / math.e - 1.0) * math.exp(-y))
        else:
            ln_g = math.log(-ln_z * (math.expm1(y) / y if y else 1.0) + 1.0 / math.e)
        terms += [math.log(w) + a * ln_z - math.lgamma(a + 1.0),
                  math.log(w) + xi2 / c * ln_z + ln_g - math.lgamma(a)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _bracket(cfg, gth, share=None):
    """The log-axis window [u_l, u_r] and its end pieces: (u_l, u_r, a bound
    on F2(x_l), a bound on 1 - F2(x_r)).

    Left of x_l the integral is at most F2(x_l), which _ln_left_bound
    bounds.  u_l is the first point, stepping left from u_0 (_left_start) by
    the bound's excess over `share` in units of 1/lambda (_rate), at least
    one, at which the bound is at most share.  By default share is 1e-4 of
    the target 3e-9 P, with P guessed from above as min(1, bound at u_0) and
    allowed to fall 16 times below that: left of u_0 F1 is within N e^-20
    of 1, so P is at least F2(x_0).  1 - F2 is below the sum of w Q(a, z)
    over the branches (w, a, b, c), with Gamma(a, z) <= z^(a-1) e^-z max(1,
    z / (z - a + 1)) for z > a - 1; each branch takes the least z on a
    ladder up from max(40, a) where that bound is below 1e-18, and x_r is the
    largest x those z give."""
    u_r, tail = -math.inf, 0.0
    for weight, a, b, c in cfg.egg.branches:
        z = max(40.0, a)
        while (q := weight * math.exp((a - 1.0) * math.log(z) - z - math.lgamma(a))
               * max(1.0, z / (z - a + 1.0))) >= _TAIL:
            z *= 2.0 ** 0.125
        u_r = max(u_r, math.log(b * cfg.pointing.a0 * cfg.rho) + math.log(z) / c)
        tail += q
    u_l = _left_start(cfg, gth)
    ln_b = _ln_left_bound(cfg, u_l)
    ln_share = (math.log(share) if share is not None else
                math.log(_LEFT * _EPSREL / 16.0) + min(0.0, ln_b))
    lam = _rate(cfg)
    for _ in range(64):
        if ln_b <= ln_share:
            return u_l, u_r, math.exp(ln_b), tail
        u_l -= max(1.0, ln_b - ln_share) / lam
        ln_b = _ln_left_bound(cfg, u_l)
    raise QuadratureError(f"no left end bounds the optical CDF below {math.exp(ln_share):.3e}")


def flooring_gap_report(cfg: SystemConfig, q: OutageQuery) -> float:
    """|P_out(exact c) - P_out(floor c)| by quadrature, the cost of the
    integer rounding that the closed form requires."""
    exact = outage_quadrature(cfg, q, floor_c=False)
    floored = outage_quadrature(cfg, q, floor_c=True)
    return abs(exact.value - floored.value)


def evaluate(points, method: str, mc: McConfig | None = None) -> list[OutageResult]:
    """One result per (SystemConfig, OutageQuery) of `points`, in order, by
    `method`, one of METHODS (Monte Carlo draws `mc`'s samples; its err_est
    is the standard error).  A typed numerical error of the method (a
    SpecfunError, CapabilityError among them, or a QuadratureError) makes
    that point's value and err_est NaN and its error the error's type and
    message.  elapsed_ms times each point's own call."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    out = []
    for cfg, q in points:
        t0 = time.perf_counter()
        try:
            if method == "monte_carlo":
                est = mc_outage(cfg, q, mc)
                res = OutageResult(est.mean, method, est.std_err, cfg.egg.c)
            else:
                run = outage_closed_form if method == "closed_form" else outage_quadrature
                res = run(cfg, q)
        except (SpecfunError, QuadratureError) as exc:
            c_used = float(math.floor(cfg.egg.c)) if method == "closed_form" else cfg.egg.c
            res = OutageResult(math.nan, method, math.nan, c_used,
                               error={"type": type(exc).__name__, "message": str(exc)})
        out.append(replace(res, elapsed_ms=(time.perf_counter() - t0) * 1e3))
    return out
