"""Per-hop channel models.

First hop: Rayleigh-faded RF downlink from a hovering UAV to N surface buoys
with best-relay selection, so the selected SNR is the maximum of N
exponentials.  Second hop: underwater optical link whose irradiance is the
product of a mixture exponential/generalized-gamma turbulence factor and a
beam-misalignment factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gamma_p, ln_gamma_upper_segments

__all__ = [
    "RfLinkParams",
    "EggParams",
    "PointingParams",
    "UowcLinkParams",
    "WaterPreset",
    "WATER_PRESETS",
    "get_preset",
    "rf_avg_power_gain",
    "rf_avg_snr",
    "rf_snr_pdf",
    "rf_snr_cdf",
    "relay_constant_c",
    "egg_moment",
    "uowc_snr_pdf",
    "uowc_snr_cdf",
]

MAX_RELAYS = 64


@dataclass(frozen=True)
class RfLinkParams:
    """RF hop budget: transmit power, noise power, reference gain, geometry."""

    p1: float
    sigma1_sq: float
    g0: float
    radius_r: float
    height_l: float
    n_relays: int

    def __post_init__(self):
        if self.p1 <= 0 or self.sigma1_sq <= 0 or self.g0 <= 0:
            raise ValueError("p1, sigma1_sq and g0 must be positive")
        if self.radius_r < 0 or self.height_l < 0:
            raise ValueError("geometry lengths must be non-negative")
        if self.radius_r == 0 and self.height_l == 0:
            raise ValueError("degenerate geometry: buoys and UAV coincide")
        object.__setattr__(self, "n_relays", _check_n(self.n_relays))


@dataclass(frozen=True)
class EggParams:
    """Turbulence mixture: weight w on an exponential of scale lam, the rest
    generalized-gamma with shape a, scale b and exponent c."""

    w: float
    lam: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.w, self.lam, self.a, self.b, self.c))):
            raise ValueError("turbulence parameters must be finite")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError(f"mixture weight must lie in [0, 1], got {self.w}")
        if min(self.lam, self.a, self.b, self.c) <= 0:
            raise ValueError("lam, a, b, c must be positive")

    @property
    def branches(self):
        """The mixture's generalized-gamma branches (weight, a, b, c) of
        positive weight: an exponential of scale lam is the one with a = c = 1
        and b = lam."""
        return tuple(br for br in ((self.w, 1.0, self.lam, 1.0),
                                   (1.0 - self.w, self.a, self.b, self.c)) if br[0] > 0.0)


@dataclass(frozen=True)
class PointingParams:
    """Misalignment fading: peak collected fraction a0 and jitter ratio xi."""

    a0: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.a0) and math.isfinite(self.xi)):
            raise ValueError("pointing parameters must be finite")
        if not (0.0 < self.a0 <= 1.0):
            raise ValueError(f"a0 must lie in (0, 1], got {self.a0}")
        if self.xi <= 0:
            raise ValueError("xi must be positive")

    @property
    def xi2(self):
        return self.xi * self.xi


@dataclass(frozen=True)
class UowcLinkParams:
    """Optical hop budget.  n0 is treated as total noise power in watts for
    the configured bandwidth (default 1 Hz)."""

    eta: float
    p2: float
    n0: float
    pr: float
    bandwidth: float = 1.0

    def __post_init__(self):
        if min(self.eta, self.p2, self.n0, self.pr, self.bandwidth) <= 0:
            raise ValueError("all optical-budget fields must be positive")

    @property
    def noise_power(self):
        return self.n0 * self.bandwidth


@dataclass(frozen=True)
class WaterPreset:
    salinity: str
    bubble_level: float
    egg: EggParams


def _presets():
    rows = [
        ("salty", 4.7, 0.2064, 0.3953, 0.5307, 1.2154, 35.7368),
        ("salty", 7.1, 0.4344, 0.4747, 0.3935, 1.4506, 77.0245),
        ("salty", 16.5, 0.4951, 0.1368, 0.0161, 3.2033, 82.1030),
        ("fresh", 4.7, 0.2190, 0.4603, 1.2526, 1.1501, 41.3258),
        ("fresh", 7.1, 0.3489, 0.4771, 0.4319, 1.4531, 74.3650),
        ("fresh", 16.5, 0.5117, 0.1602, 0.0075, 2.9963, 216.8356),
    ]
    reg = {}
    for sal, bl, w, lam, a, b, c in rows:
        key = f"{sal}/{bl}"
        reg[key] = WaterPreset(sal, bl, EggParams(w=w, lam=lam, a=a, b=b, c=c))
    return reg


# Laboratory-fitted turbulence mixtures, keyed "<salinity>/<bubble level>".
WATER_PRESETS = _presets()


def get_preset(key: str) -> WaterPreset:
    try:
        return WATER_PRESETS[key]
    except KeyError:
        known = ", ".join(sorted(WATER_PRESETS))
        raise KeyError(f"unknown water preset {key!r}; expected one of {known}") from None


# ---------------------------------------------------------------------------
# RF hop
# ---------------------------------------------------------------------------


def rf_avg_power_gain(params: RfLinkParams) -> float:
    """Average RF path power gain g1 = g0 / (R^2 + L^2)."""
    return params.g0 / (params.radius_r ** 2 + params.height_l ** 2)


def rf_avg_snr(params: RfLinkParams) -> float:
    """Average per-relay RF SNR mu1 = P1 g1 / sigma1^2."""
    return params.p1 * rf_avg_power_gain(params) / params.sigma1_sq


def rf_snr_pdf(x, mu1: float, n_relays: int):
    """Density of the selected (maximum of N exponential) first-hop SNR."""
    n = _check_rf(mu1, n_relays)
    x = np.asarray(x, dtype=float)
    u = x / mu1
    # n * (1 - e^{-u})^{n-1} * e^{-u} / mu1, the stable product form of the
    # alternating binomial sum
    base = -np.expm1(-u)
    out = n * base ** (n - 1) * np.exp(-u) / mu1
    out = np.where(x < 0, 0.0, out)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def rf_snr_cdf(x, mu1: float, n_relays: int):
    """CDF of the selected first-hop SNR, (1 - e^{-x/mu1})^N."""
    n = _check_rf(mu1, n_relays)
    x = np.asarray(x, dtype=float)
    base = -np.expm1(-x / mu1)
    out = np.where(x < 0, 0.0, base ** n)
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def rf_snr_cdf_sum(x, mu1: float, n_relays: int):
    """Literal alternating-sum form of rf_snr_cdf (identity-check oracle)."""
    n = _check_rf(mu1, n_relays)
    terms = [
        math.comb(n - 1, k) * (-1.0) ** k / (k + 1) * math.exp(-(k + 1) * x / mu1)
        for k in range(n)
    ]
    return 1.0 - n * math.fsum(terms)


def relay_constant_c(mu1: float, n_relays: int) -> float:
    """Fixed-gain relay constant C = 1 + E[selected first-hop SNR] = 1 + mu1 H_N.

    The paper's alternating binomial sum for it is exact in rationals but
    cancels in floating point (C(63, 31) = 9.2e17): at N = 64 it is negative.
    """
    n = _check_rf(mu1, n_relays)
    return 1.0 + mu1 * math.fsum(1.0 / k for k in range(1, n + 1))


def _whole(name: str, value) -> int:
    """`value` as an int; a bool or a value that is not a whole number
    raises ValueError (an integral float such as 3.0 is accepted)."""
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _check_n(n_relays) -> int:
    """The relay count as an int, which must be whole and in range."""
    n = _whole("n_relays", n_relays)
    if not (1 <= n <= MAX_RELAYS):
        raise ValueError(f"n_relays must be in 1..{MAX_RELAYS}")
    return n


def _check_rf(mu1, n_relays) -> int:
    """The relay count as _check_n gives it, once mu1 is positive and finite."""
    if not 0.0 < mu1 < math.inf:
        raise ValueError(f"mu1 must be positive and finite, got {mu1!r}")
    return _check_n(n_relays)


# ---------------------------------------------------------------------------
# optical hop
# ---------------------------------------------------------------------------


def egg_moment(n: int, egg: EggParams, pointing: PointingParams) -> float:
    """n-th moment of the combined irradiance I = I_turb * I_point."""
    if n < 0 or n != int(n):
        raise ValueError("moment order must be a non-negative integer")
    n = int(n)
    xi2 = pointing.xi2
    point = xi2 / (n + xi2)
    try:
        moment = point * (egg.w * (egg.lam * pointing.a0) ** n * math.factorial(n)
                          + (1.0 - egg.w) * (egg.b * pointing.a0) ** n
                          * math.exp(math.lgamma(egg.a + n / egg.c) - math.lgamma(egg.a)))
    except OverflowError:
        moment = math.inf
    if not math.isfinite(moment):
        raise ValueError(f"irradiance moment {n} is beyond the range of a double")
    return moment


def uowc_snr_pdf(x, rho: float, egg: EggParams, pointing: PointingParams):
    """Density of the optical-hop SNR under turbulence plus misalignment."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("optical SNR density requires x > 0")
    flat = x.reshape(-1)
    out = _pdf_times_x(np.log(flat), rho, egg, pointing) / flat
    out = out.reshape(x.shape)
    return float(out) if np.isscalar(x) or x.ndim == 0 else out


def _branch_kernels(ln_x, rho: float, egg: EggParams, pointing: PointingParams):
    """(weight, a, ln z, z^{xi^2/c} Gamma(a - xi^2/c, z) / Gamma(a)) for each
    branch (weight, a, b, c), where z = (x / (b A0 rho))^c; one
    ln_gamma_upper_segments call serves every branch."""
    ln_x = np.asarray(ln_x, dtype=float)
    branches = egg.branches
    ln_zs = [c * (ln_x - math.log(b * pointing.a0 * rho)) for _, _, b, c in branches]
    segments = [(a - pointing.xi2 / c, ln_z, a, pointing.xi2 / c)
                for (_, a, _, c), ln_z in zip(branches, ln_zs)]
    return [(weight, a, ln_z, np.exp(ln_g - math.lgamma(a)))
            for (weight, a, _, _), ln_z, ln_g
            in zip(branches, ln_zs, ln_gamma_upper_segments(segments))]


def _pdf_times_x(ln_x, rho: float, egg: EggParams, pointing: PointingParams):
    """x * pdf(x) evaluated from log-SNR, the natural quadrature integrand:
    xi^2 sum over the branches (weight, a, b, c) of
    weight z^{xi^2/c} Gamma(a - xi^2/c, z) / Gamma(a)."""
    return pointing.xi2 * sum(weight * g for weight, _, _, g
                              in _branch_kernels(ln_x, rho, egg, pointing))


def uowc_snr_cdf(x, rho: float, egg: EggParams, pointing: PointingParams):
    """CDF of the optical-hop SNR; monotone with limits 0 and 1.  The density
    integrated by parts with Gamma(s+1, z) = s Gamma(s, z) + z^s e^-z: the
    sum over the branches (weight, a, b, c) of
    weight [P(a, z) + z^{xi^2/c} Gamma(a - xi^2/c, z) / Gamma(a)]."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("optical SNR CDF requires x > 0")
    out = sum(weight * (gamma_p(a, ln_z) + g) for weight, a, ln_z, g
              in _branch_kernels(np.log(x.reshape(-1)), rho, egg, pointing))
    out = np.clip(out, 0.0, 1.0).reshape(x.shape)
    return float(out) if np.isscalar(x) or x.ndim == 0 else out
