"""Gamma-family helpers, incomplete gamma functions and numerical Meijer
G-function evaluation.

The optical-hop density and CDF reduce to upper incomplete gamma functions
(ln_gamma_upper_scaled, gamma_p).  The G-function instances of the
closed-form outage expression all have real parameters, a positive real
argument, at most two upper parameters, and either up to a few hundred
lower parameters or a few carrying integer scales (Gamma(b - B s), a Fox
H-function).  Within that family the function is evaluated by a residue
(Slater-type) series over the right poles in log space with sign tracking,
coincident poles giving residues polynomial in ln z (the logarithmic case);
when it is ill-conditioned (heavy alternating cancellation), by quadrature
of the defining Mellin-Barnes contour integral, also exposed on its own as
an independent oracle.  Both read one list of kernel factors, where a pair
Gamma(b - s) / Gamma(b + 1 - s) is the rational pole 1 / (b - s).  Where the
contour cannot reach the tolerance either (the far exponential tail),
evaluation raises NonConvergenceError.  The closed form's factors, one per
generalized-gamma branch of the turbulence mixture (the exponential branch
is the one at a = c = 1), have their own evaluator, folded_gg_factor_log:
the residue series, else a trapezoid rule on a real-line integral over the
upper incomplete gamma (at a = c = 1 the cheaper K_1 form), with no contour
on that path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecfunError",
    "GammaDomainError",
    "NonConvergenceError",
    "ContourError",
    "CapabilityError",
    "MeijerGSpec",
    "MellinBarnesResult",
    "MAX_INTEGER_C",
    "REL_TOL",
    "ln_gamma",
    "ln_gamma_complex",
    "ln_abs_gamma_signed",
    "ln_gamma_upper_scaled",
    "gamma_p",
    "meijer_g",
    "meijer_g_log",
    "meijer_g_mellin_barnes",
    "folded_gg_factor_log",
]

# Largest integer generalized-gamma exponent accepted by the closed-form
# outage expression, whose documented limit it is; callers above it fall
# back to quadrature or Monte Carlo.  It also caps the order of a G instance,
# counting a factor of scale B as the B factors it folds.
MAX_INTEGER_C = 120

# Relative tolerance of every G evaluation; the residue series spans at most
# _MAX_TERMS units of s (a ladder Gamma(b - B s) runs B * _MAX_TERMS terms)
# and the contour integral at most _CONTOUR_POINTS trapezoid nodes.
REL_TOL = 1e-10
_MAX_TERMS = 768
_CONTOUR_POINTS = 400_000
# a fallback's value is refused (NonConvergenceError) only above this
# estimate; where G is far below the float range the rounding of ln G alone
# exceeds REL_TOL
_REFUSE_ABOVE = max(1000.0 * REL_TOL, 1e-6)

# The closed form's factor takes a series value only where its estimate is
# within _FACTOR_TOL, else its real-line integral, whose trapezoid rule
# runs to at most _TRAPEZOID_NODES intervals.
_FACTOR_TOL = 1e-12
_TRAPEZOID_NODES = 1 << 16
# the real-line form's candidate window ends, 1/16 to 2^17 from the peak
_WINDOW_ENDS = 2.0 ** (np.arange(337) / 16.0) / 16.0

_EPS = 1.1e-16
_LN2 = math.log(2.0)


class SpecfunError(Exception):
    """Base class for special-function evaluation failures."""


class GammaDomainError(SpecfunError, ValueError):
    """Argument outside the real log-gamma domain (x <= 0)."""


class NonConvergenceError(SpecfunError):
    """Neither the residue series nor its fallback (the contour quadrature,
    or a closed-form factor's real-line integral) reached the tolerance
    within their budgets."""


class ContourError(SpecfunError):
    """No vertical contour separates the two pole families."""


class CapabilityError(SpecfunError):
    """Requested instance is outside the supported family."""


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

# Bernoulli-number coefficients B_{2n} / (2n (2n-1)) of the Stirling series.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_HALF_LOG_TWO_PI = 0.918938533204672741780329736406
_LOG_PI = 1.144729885849400174143427351353
_STIRLING_MIN = 12.0


def _stirling_series(w):
    r2 = 1.0 / (w * w)
    s = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        s = s * r2 + coef
    return (w - 0.5) * np.log(w) - w + _HALF_LOG_TWO_PI + s / w


# Taylor coefficients of ln Gamma(2 + e) about e = 0: 1 - Euler's gamma for
# e, then (-1)^k (zeta(k) - 1) / k for e^k, k = 2..30.  On |e| <= 1/2 the
# k-th term is below 4^-k / k, so the truncated tail is under 1e-19.
_LGAMMA2_TAYLOR = (
    0.42278433509846713,
    0.3224670334241132,
    -0.0673523010531981,
    0.020580808427784546,
    -0.007385551028673986,
    0.0028905103307415234,
    -0.001192753911703261,
    0.0005096695247430425,
    -0.00022315475845357939,
    9.945751278180853e-05,
    -4.492623673813314e-05,
    2.050721277567069e-05,
    -9.439488275268397e-06,
    4.374866789907488e-06,
    -2.039215753801366e-06,
    9.55141213040742e-07,
    -4.492469198764566e-07,
    2.1207184805554665e-07,
    -1.0043224823968099e-07,
    4.7698101693639804e-08,
    -2.2711094608943164e-08,
    1.0838659214896955e-08,
    -5.183475041970047e-09,
    2.4836745438024785e-09,
    -1.1921401405860912e-09,
    5.731367241678862e-10,
    -2.7595228851242334e-10,
    1.330476437424449e-10,
    -6.4229645638381e-11,
    3.1044247747322276e-11,
)


def _lgamma_pos(x):
    """ln Gamma for real x > 0, vectorized.

    Below 12 the argument is written x = k + e with integer k and
    |e| <= 1/2 (exactly, in floating point).  The recurrence links Gamma(x)
    to Gamma(2 + e) by a product of at most ten linear factors, which is
    logged once, and ln Gamma(2 + e) is summed from its Taylor series.  The
    absolute error on 0 < x < 12 stays within about one ulp of the result:
    at most ~3e-15 (near x = 12, where ln Gamma ~ 17), ~1e-17 near the
    zeros at x = 1 and x = 2; libm's lgamma reaches ~6e-15 on the same
    range.  From 12 up, Stirling's series has relative error ~1e-15.  On one
    float nearly all of its cost is array overhead, about a thousand times
    that of math.lgamma, so scalar shape constants come from math.lgamma.
    """
    x = np.array(x, dtype=float, ndmin=1)
    out = np.empty_like(x)
    big = x >= _STIRLING_MIN
    out[big] = _stirling_series(x[big])
    small = ~big
    if small.any():
        xs = x[small]
        k = np.floor(xs + 0.5)
        e = xs - k
        poly = _LGAMMA2_TAYLOR[-1]
        for coef in _LGAMMA2_TAYLOR[-2::-1]:
            poly = poly * e + coef
        # Gamma(x) = Gamma(2 + e) * (x-1)(x-2)...(x-k+2) for k >= 2, and
        # Gamma(2 + e) / x or Gamma(2 + e) / (x (x+1)) for k = 1 or k = 0
        up = k >= 2.0
        j = np.arange(1.0, k.max() - 1.0)
        linear = np.column_stack([np.where(k == 0.0, xs * (xs + 1.0), np.where(up, 1.0, xs)),
                                  np.where(k[:, None] - 2.0 >= j, xs[:, None] - j, 1.0)])
        log_prod = np.log(np.prod(linear, axis=1))
        out[small] = poly * e + np.where(up, log_prod, -log_prod)
    return out


def ln_gamma(x):
    """Natural log of Gamma(x) for real x > 0, the array evaluator.

    Accepts scalars or arrays and rounds a scalar as it rounds the same value
    in an array.  Raises GammaDomainError if any entry is not strictly
    positive (use ln_abs_gamma_signed for negative arguments,
    ln_gamma_complex for complex ones).  The scalar shape constants of the
    incomplete gamma, the irradiance moments and the closed-form prefactor
    come from libm's math.lgamma instead (see _lgamma_pos).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise GammaDomainError(f"ln_gamma requires x > 0, got {x!r}")
    out = _lgamma_pos(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _log_sin_complex(w):
    """log(sin(w)) for complex w, stable for large |Im w|."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    y = w.imag
    big = np.abs(y) > 19.0
    small = ~big
    if small.any():
        out[small] = np.log(np.sin(w[small]))
    if big.any():
        wb = w[big]
        sgn = np.sign(wb.imag)
        # sin w = (e^{iw} - e^{-iw}) / 2i; keep the dominant exponential.
        lead = -1j * sgn * wb - np.log(2j * sgn)
        out[big] = lead + np.log1p(-np.exp(2j * sgn * wb))
    return out


def ln_gamma_complex(z):
    """Principal-ish branch of log Gamma for complex z, vectorized.

    Stirling's series at w + n, n = ceil(12 - Re w) or 0, less the sum of
    ln(w + k), k < n (their product could overflow at large |Im w|); w = 1 - z
    by reflection below Re z = -20.  Branch offsets of 2*pi*i are possible
    after reflection; callers that exponentiate the result (as the contour
    quadrature does) are unaffected.
    """
    x = np.array(z, dtype=complex, ndmin=1)
    refl = x.real < -20.0
    w = np.where(refl, 1.0 - x, x)
    n = np.where(w.real < _STIRLING_MIN, np.ceil(_STIRLING_MIN - w.real), 0.0)
    # the factor nearest zero is w + k at the k nearest -Re w
    if np.any(np.abs(w + np.clip(np.round(-w.real), 0.0, n)) < 1e-12):
        raise GammaDomainError("log-gamma evaluated at a pole")
    steps = n.max(initial=0.0)
    if steps > 100:
        raise GammaDomainError("log-gamma shift did not terminate")
    acc = np.zeros_like(w)
    for k in range(int(steps)):
        acc += np.log(np.where(k < n, w + k, 1.0))
    out = _stirling_series(w + n) - acc
    if refl.any():
        out[refl] = _LOG_PI - _log_sin_complex(np.pi * x[refl]) - out[refl]
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(out[0])
    return out.reshape(np.asarray(z).shape)


def ln_abs_gamma_signed(x):
    """(log|Gamma(x)|, sign) for real non-pole x, vectorized.

    At non-positive integers returns (+inf, 0).
    """
    arr = np.asarray(x, dtype=float)
    w = arr.reshape(-1)
    logabs = np.empty_like(w)
    sign = np.ones_like(w)
    pole = (w <= 0.0) & (w == np.floor(w))
    pos = w > 0.0
    neg = ~pos & ~pole
    # one array log-gamma call: Gamma(x) for x > 0, Gamma(1 - x) for x < 0
    logabs[~pole] = _lgamma_pos(np.where(pos, w, 1.0 - w)[~pole])
    if neg.any():
        xn = w[neg]
        # reflection: |Gamma(x)| = pi / (|sin(pi x)| * Gamma(1 - x)); x less
        # its nearest integer is exact, so sin keeps its relative accuracy
        # near the poles, where mod(x, 2) would round the distance to them
        sinabs = np.abs(np.sin(np.pi * (xn - np.round(xn))))
        logabs[neg] = _LOG_PI - np.log(sinabs) - logabs[neg]
        k = np.floor(xn)
        sign[neg] = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
    if pole.any():
        logabs[pole] = np.inf
        sign[pole] = 0.0
    shape = arr.shape
    return logabs.reshape(shape), sign.reshape(shape)


def _psi01(x):
    """(psi(x), psi'(x)) for a float array x of non-poles.

    psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2 lift x to
    12, where the derivatives of Stirling's series take over (DLMF 5.11.2,
    5.15.8); x < 0 is reflected first (DLMF 5.5.4, 5.15.6).
    """
    neg = x < 0.0
    w = np.where(neg, 1.0 - x, x)
    psi, tri = np.zeros_like(w), np.zeros_like(w)
    low = w < _STIRLING_MIN
    while low.any():
        inv = np.where(low, 1.0 / w, 0.0)
        psi -= inv
        tri += inv * inv
        w = w + low
        low = w < _STIRLING_MIN
    r2 = 1.0 / (w * w)
    s1 = s2 = 0.0
    # _STIRLING[k - 1] = B_2k / (2k (2k - 1))
    for k in range(len(_STIRLING), 0, -1):
        s1 = s1 * r2 + (2 * k - 1) * _STIRLING[k - 1]
        s2 = s2 * r2 + 2 * k * (2 * k - 1) * _STIRLING[k - 1]
    psi += np.log(w) - 0.5 / w - s1 * r2
    tri += (1.0 + 0.5 / w + s2 * r2) / w
    if neg.any():
        t = np.pi * (x[neg] - np.round(x[neg]))
        psi[neg] -= np.pi / np.tan(t)
        tri[neg] = (np.pi / np.sin(t)) ** 2 - tri[neg]
    return psi, tri


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------


def _upper_cf(s, z):
    """ln(z^-s Gamma(s, z)) by Legendre's fraction, bottom-up, two terms deeper
    than forward (modified Lentz) needs at the smallest z, where it is slowest."""
    b = float(z.min(initial=np.inf)) + 1.0 - s
    c, d = 1e300, 1.0 / b
    for depth in range(1, 401):
        an = -depth * (depth - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        # stop at about one ulp (a tighter test may never fire); d = 0 at z = inf
        if abs(c * d - 1.0) < 3e-16 or d == 0.0:
            break
    else:
        raise NonConvergenceError("incomplete-gamma continued fraction did not converge")
    t = np.zeros_like(z)
    for i in range(depth + 2, 0, -1):
        t += z
        t += 2 * i + 1.0 - s
        np.divide(-i * (i - s), t, out=t)
    return -np.log(t + z + (1.0 - s)) - z


def _ln_lower_series(a, ln_z, lg_a):
    """ln P(a, z), lg_a = ln Gamma(a): power series, as long as the largest z needs."""
    z = np.exp(ln_z)
    z_hi, n, term, total = float(z.max(initial=0.0)), 0, 1.0, 1.0
    while term >= 1e-17 * total:
        if n == 400:
            raise NonConvergenceError("incomplete-gamma power series did not converge")
        n += 1
        term = term * z_hi / (a + n)
        total += term
    total = np.ones_like(z)
    for k in range(n, 0, -1):
        total *= z
        total /= a + k
        total += 1.0
    return a * ln_z - z - lg_a - math.log(a) + np.log(total)


def _upper_small_z(s, ln_z):
    """ln(z^-s Gamma(s, z)) for z <= 1.5 and s <= 1/2.

    At s0 = s + n in [-1/2, 1/2] Temme's split, with g = ln Gamma(1+s0)/s0,
    A = s0 (g - ln z), B = max(A, 0) and S = sum_k>=1 (-z)^k / (k! (s0+k)):
    z^-s0 Gamma(s0, z) = e^B [expm1(-|A|) / (-|A|) (g - ln z) - e^-B S].
    It keeps the cancellation of Gamma(s0) against z^s0/s0 inside expm1 and
    never overflows; at s0 = 0 it is E1(z) = -gamma_E - ln z - S.  Then n
    steps of Gamma(s, z) = (Gamma(s+1, z) - z^s e^-z) / s (DLMF 8.8.2).
    S takes the terms the largest z needs (at most 26 for z <= 1.5).
    """
    n = max(0, math.ceil(-s - 0.5))
    s0 = s + n
    z = np.exp(ln_z)
    z_hi, term, terms = float(z.max(initial=0.0)), 1.0, 0
    while abs(term) >= 1e-17:
        terms += 1
        term *= -z_hi / terms
    sigma = np.zeros_like(z)
    for k in range(terms, 0, -1):  # Horner form
        sigma += 1.0 / (s0 + k)
        sigma *= z / -k
    # ln Gamma(1 + s0) = ln Gamma(2 + s0) - log1p(s0), from the Taylor series
    g = _LGAMMA2_TAYLOR[-1]
    for coef in _LGAMMA2_TAYLOR[-2::-1]:
        g = g * s0 + coef
    g -= math.log1p(s0) / s0 if s0 else 1.0
    A = s0 * (g - ln_z)
    mag = np.maximum(np.abs(A), 1e-300)
    B = np.maximum(A, 0.0)
    ln_s = B + np.log(-np.expm1(-mag) / mag * (g - ln_z) - np.exp(-B) * sigma)
    for j in range(1, n + 1):
        ln_s = np.log1p(-np.exp(ln_z + z + ln_s)) - z - math.log(j - s0)
    return ln_s


def _incomplete_args(s, ln_z):
    """Float shape, float arrays ln_z and z, and the mask z > max(1.5, s + 1)."""
    s = float(s)
    if not math.isfinite(s):
        raise GammaDomainError(f"incomplete gamma requires a finite shape, got {s!r}")
    ln_z = np.asarray(ln_z, dtype=float)
    if np.isnan(ln_z).any():
        raise ValueError("incomplete gamma: ln_z contains NaN")
    with np.errstate(over="ignore"):
        z = np.exp(ln_z)
    return s, ln_z, z, z > max(1.5, s + 1.0)


def ln_gamma_upper_scaled(s, ln_z, a=0.0, p=None):
    """ln(z^(a-s) Gamma(s, z)) for one real shape s, z = exp(ln_z) > 0 and
    a caller's power a, by default 0: the scaled function ln(z^-s Gamma(s, z)).

    The power z^-s is taken out so that a caller multiplying by z^a adds
    a ln z to a log of moderate size instead of cancelling two large ones;
    the evaluator adds it itself.  Where Gamma(s, z) is Gamma(s) (1 - P(s,
    z)), s > 1/2 below the fraction, its own power is z^0, and a caller that
    knows p = a - s better than s = a - p rounded passes it: the value is
    then p ln z + ln(Gamma(s) (1 - P(s, z))), with no s ln z round trip.
    Legendre continued fraction above z = max(1.5, s + 1), at the depth the
    smallest z needs; below it Gamma(s) (1 - P(s, z)) for s > 1/2, else
    _upper_small_z, series as long as the largest z needs (Gil, Segura &
    Temme, SIAM J. Sci. Comput. 34 (2012); DLMF 8.7-8.9).  z beyond the float
    range gives -inf, and z = 0 at a = 0 the limit: -ln(-s) for s < 0, else
    +inf.  A non-finite s raises GammaDomainError, a NaN ln_z ValueError.
    """
    s, ln_z, z, cf = _incomplete_args(s, ln_z)
    out = np.full_like(z, -math.log(-s) if s < 0.0 else np.inf)  # at z = 0
    if cf.any():
        out[cf] = _upper_cf(s, z[cf])
    series = ~cf & (ln_z > -np.inf)
    scaled = slice(None)  # the elements that hold ln(z^-s Gamma(s, z))
    if series.any():
        lz = ln_z[series]
        if s > 0.5:
            lg = math.lgamma(s)
            head = lg + np.log1p(-np.exp(_ln_lower_series(s, lz, lg)))
            if p is None:
                out[series] = head - s * lz
            else:
                out[series] = head + p * lz
                scaled = ~series
        else:
            out[series] = _upper_small_z(s, lz)
    if a:
        out[scaled] += a * ln_z[scaled]
    return out


def gamma_p(a, ln_z):
    """Regularized lower incomplete gamma P(a, z), one real shape a > 0; any
    other shape raises GammaDomainError.  At a = 1 it is 1 - e^-z."""
    a, ln_z, z, cf = _incomplete_args(a, ln_z)
    if a <= 0.0:
        raise GammaDomainError(f"gamma_p requires a > 0, got {a!r}")
    if a == 1.0:
        return -np.expm1(-z)
    lg = math.lgamma(a)
    out = np.empty_like(z)
    if cf.any():
        out[cf] = -np.expm1(_upper_cf(a, z[cf]) + a * ln_z[cf] - lg)
    if not cf.all():
        out[~cf] = np.exp(_ln_lower_series(a, ln_z[~cf], lg))
    return out


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeijerGSpec:
    """Order/parameter bundle of a G^{m,n}_{p,q} instance.

    a and b are the upper and lower parameter lists; the first m entries of b
    and the first n entries of a generate the pole ladders used by the
    residue series.  scales gives each of b[:m] an integer B_j >= 1, so that
    its kernel factor is Gamma(b_j - B_j s) (a Fox H-function; Mathai, Saxena
    & Haubold, The H-Function, ch. 1); empty means all 1, the plain G.
    """

    m: int
    n: int
    a: tuple
    b: tuple
    scales: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if not all(math.isfinite(v) for v in self.a + self.b):
            raise ValueError("non-finite G-function parameter")
        if not (0 <= self.m <= self.q and 0 <= self.n <= self.p):
            raise ValueError(f"invalid orders m={self.m}, n={self.n} "
                             f"for p={self.p}, q={self.q}")
        if self.p > 2 or self.n > 1:
            raise CapabilityError(
                "instance outside the supported family (need p <= 2, n <= 1)")
        if self.p >= self.q:
            raise CapabilityError("supported family requires p < q")
        if self.m == 0:
            raise CapabilityError("need at least one right pole ladder (m >= 1)")
        scales = tuple(self.scales) or (1,) * self.m
        if (len(scales) != self.m or any(B != int(B) or B < 1 for B in scales)
                or (self.n and max(scales) > 1)):
            raise CapabilityError(
                "scales must be m integers >= 1 on b[:m], and all 1 when n > 0")
        if self.q - self.m + sum(scales) > MAX_INTEGER_C + 99:
            raise CapabilityError("order outside the supported family")
        object.__setattr__(self, "scales", tuple(int(B) for B in scales))

    @property
    def p(self):
        return len(self.a)

    @property
    def q(self):
        return len(self.b)

    @functools.cached_property
    def _excess(self):
        """The order excess, at least 1, and sum(B ln B) of reduced."""
        mu = sum(self.scales) + self.q - self.m - self.p
        return max(1, mu), sum(B * math.log(B) for B in self.scales)

    def reduced(self, ln_z):
        """(mu, ln_z'): the order excess sum(B) - p of the kernel, at least 1,
        and ln_z less sum(B ln B), the argument at which the kernel's growth
        and decay match those of a plain G with q - p = mu."""
        mu, shift = self._excess
        return mu, ln_z - shift


@dataclass(frozen=True)
class MellinBarnesResult:
    value: float
    err_est: float


def _kernel_factors(spec: MeijerGSpec):
    """The Mellin kernel of spec as factors (alpha, beta, power, gamma):
    Gamma(alpha + beta s) ** power if gamma, else (alpha + beta s) ** power,
    right ladders Gamma(b_j - B_j s) first.  A pair Gamma(b_j - s) /
    Gamma(b_j + 1 - s) is its exact ratio 1 / (b_j - s): one simple pole, and
    one log in place of two log-gammas whose large values would cancel."""
    a, b, m, n, B = spec.a, spec.b, spec.m, spec.n, spec.scales
    pair = {}
    for l in range(n, spec.p):
        pair[l] = next((j for j in range(m) if B[j] == 1 and j not in pair.values()
                        and abs(a[l] - 1.0 - b[j]) <= 4.0 * _EPS * abs(a[l])), None)
    return ([(b[j], -B[j], 1, True) for j in range(m) if j not in pair.values()]
            + [(1.0 - a[l], 1, 1, True) for l in range(n)]
            + [(1.0 - b[j], 1, -1, True) for j in range(m, spec.q)]
            + [(a[l], -1, -1, True) if j is None else (b[j], -1, -1, False)
               for l, j in pair.items()])


class _SeriesTable:
    """z-independent residue-series coefficients for one (spec, kmax).

    Ladder Gamma(b - B s) of _kernel_factors has poles at s = (b + k) / B and
    runs B * kmax terms, so that every ladder spans the same kmax units of s
    (_series_attempt sizes kmax to the argument); a
    rational factor 1 / (b - s) has one, at s = b.  A pole where r numerator
    factors and r' denominator gammas have one has order r - r', is kept on
    the first factor that holds it, and is null at order <= 0.  Its residue
    is c z^s P(ln z), P the coefficient of e^-1 in K(s + e) z^e / c in powers
    of ln z: the columns of poly (polyabs: the moduli summed into each), by
    power series in e (Luke, The Special Functions and Their Approximations,
    vol. 1, 5.2)."""

    __slots__ = ("s", "logc", "sign", "logsize", "poly", "polyabs", "tail_idx",
                 "degenerate")

    def __init__(self, spec: MeijerGSpec, kmax: int):
        factors = _kernel_factors(spec)
        # the factors with right poles, and how many of them each one runs
        runs = {f: -beta * kmax if gamma else 1
                for f, (_, beta, power, gamma) in enumerate(factors)
                if power > 0 and beta < 0 or not gamma}
        sizes = list(runs.values())
        # each pole's ladder (its factor), b_h, B_h and k
        ladder = np.repeat(list(runs), sizes)
        b_h = np.repeat([factors[h][0] for h in runs], sizes)
        B_h = np.repeat([-factors[h][1] for h in runs], sizes)
        k = np.concatenate([np.arange(n, dtype=float) for n in sizes])
        self.s = s = (b_h + k) / B_h
        # the contour runs clockwise round the right poles
        sign, order = -np.ones_like(s), np.zeros_like(s)
        keep = np.ones(s.shape, dtype=bool)
        self.degenerate = False
        terms = []
        for f, (alpha, beta, power, gamma) in enumerate(factors):
            # the factor's poles meet the ladder's exactly when this gap is
            # an integer, up to the rounding of its two products
            gap = B_h * alpha + beta * b_h
            meet = np.abs(gap - np.round(gap)) <= 8.0 * _EPS * (
                1.0 + np.abs(B_h * alpha) + np.abs(beta * b_h))
            x = np.where(meet, (np.round(gap) + beta * k) / B_h, alpha + beta * s)
            # Gamma(-n + beta e) = (-1)^n / (n! beta e) (1 + O(e)), and a
            # rational factor is (beta e)^power at its zero
            pole = meet & ((x <= 0.0) & (x == np.floor(x)) if gamma else x == 0.0)
            if gamma:
                la, sg = ln_abs_gamma_signed(np.where(pole, 1.0 - x, x))
                la = np.where(pole, -la - math.log(abs(beta)), la)
                sg = np.where(pole, np.where(np.mod(x, 2.0) == 0.0, 1.0, -1.0)
                              * math.copysign(1.0, beta), sg)
            else:
                v = np.where(pole, beta, x)
                la, sg = np.log(np.abs(v)), np.sign(v)
            order = order + (power if gamma else -power) * pole
            sign = sign * sg
            if f in runs:  # an earlier factor's pole, if it runs that far
                keep &= ~(pole & (-x < runs[f]) & (ladder > f))
            # a left pole on a right one: no contour separates them
            self.degenerate |= bool(gamma and power > 0 and beta > 0 and pole.any())
            terms.append((x, pole, power * la, np.abs(la)))

        order = np.where(keep, order, 0.0)
        self.logc = np.where(order > 0.0, sum(t[2] for t in terms), -np.inf)
        self.sign, self.logsize = sign, sum(t[3] for t in terms)
        poly = np.tile([1.0, 0.0, 0.0], (s.size, 1))
        polyabs = poly.copy()
        multi = order >= 2.0
        if multi.any():
            # log of the regular part: sum of beta psi(x) e + beta^2 psi'(x)
            # e^2 / 2, where at a gamma's pole x = -n psi(n + 1) and
            # pi^2 / 3 - psi'(n + 1) replace psi and psi', and a rational
            # factor has 1 / x and -1 / x^2, and nothing at its pole
            t1s, t2s = [], []
            for (_, beta, power, gamma), (x, pole, _, _) in zip(factors, terms):
                xm, pm = x[multi], pole[multi]
                if gamma:
                    g1, tri = _psi01(np.where(pm, 1.0 - xm, xm))
                    g2 = np.where(pm, np.pi ** 2 / 3.0 - tri, tri)
                else:
                    g1 = np.divide(1.0, xm, out=np.zeros_like(xm), where=~pm)
                    g2 = -g1 * g1
                t1s.append(beta * power * g1)
                t2s.append(0.5 * (beta * beta * power) * g2)
            d1, d2 = sum(t1s), sum(t2s)
            d1abs, d2abs = sum(map(np.abs, t1s)), sum(map(np.abs, t2s))
            # e^(r-1) coefficient of exp((d1 + ln z) e + d2 e^2)
            r3 = order[multi] == 3.0
            for cols, u1, u2 in ((poly, d1, d2), (polyabs, d1abs, d2abs)):
                cols[multi] = np.column_stack([np.where(r3, 0.5 * u1 * u1 + u2, u1),
                                               np.where(r3, u1, 1.0), 0.5 * r3])
        # beyond order 3 the expansion would need higher polygammas
        self.degenerate |= bool(np.any(order > 3.0))
        r = int(order.max(initial=1.0))
        self.poly, self.polyabs = poly[:, :r], polyabs[:, :r]
        # index of the last k of each ladder (they precede the rational
        # factors' poles), for truncation checks
        self.tail_idx = np.cumsum([n for f, n in runs.items() if factors[f][3]], dtype=int) - 1


@functools.lru_cache(maxsize=512)
def _series_table(spec: MeijerGSpec, kmax: int):
    return _SeriesTable(spec, kmax)


def _series_eval(tab: _SeriesTable, ln_z):
    """(sign, log_abs, rounding, tail_ok) of the residue series at each ln_z
    of a 1-D array, a list with one row of terms each: rounding bounds the
    relative error of the sum, which is the series' whole error only where
    tail_ok says its dropped terms are negligible."""
    sz = tab.s * ln_z[:, None]
    ll = tab.logc + sz
    L = ll.max(axis=1)
    peaks = L.tolist()
    if not all(map(math.isfinite, peaks)):
        # every term vanishes: an exact zero; a NaN or +inf term: no estimate at all
        return [_series_eval(tab, ln_z[i:i + 1])[0] if math.isfinite(peak) else
                (0.0, -np.inf, 0.0 if peak == -np.inf else np.inf, True)
                for i, peak in enumerate(peaks)]
    w = np.exp(ll - L[:, None])
    vals, absvals, tail, excess = tab.sign * w, w, ll[:, tab.tail_idx], 0.0
    if tab.poly.shape[1] > 1:  # the terms' P(ln z), at multiple poles
        lz, poly, polyabs = ln_z[:, None], tab.poly[:, 0], tab.polyabs[:, 0]
        for j in range(1, tab.poly.shape[1]):
            poly = poly + tab.poly[:, j] * lz ** j
            polyabs = polyabs + tab.polyabs[:, j] * np.abs(lz) ** j
        vals = vals * poly
        absvals, tail = np.abs(vals), tail + np.log(polyabs[:, tab.tail_idx])
        excess = w * (polyabs - np.abs(poly))
    # rounding carried by each term is ~eps * (sum of |log factors|),
    # including the argument power, plus the cancellation inside P(ln z)
    wlog = (tab.logsize + np.abs(sz)) * absvals + excess
    # fsum reads only the terms above 1e-30 of the row's sum of moduli: the n
    # others add less than n 1e-30 of it, and an accepted sum (its rounding
    # estimate within REL_TOL) is at least 8 eps / REL_TOL of it, so they
    # cannot move its rounding but at a tie
    sums = absvals.sum(axis=1)
    keep = absvals > 1e-30 * sums[:, None]
    kept, ends = vals[keep].tolist(), np.cumsum(keep.sum(axis=1)).tolist()
    out = []
    for i, (peak, sum_abs, wl, tail_row) in enumerate(zip(
            peaks, sums.tolist(), wlog.sum(axis=1).tolist(), tail.tolist())):
        total = math.fsum(kept[ends[i - 1] if i else 0:ends[i]])
        tail_ok = max(tail_row, default=-np.inf) < peak - 42.0
        mag = abs(total)
        out.append((0.0, -np.inf, np.inf, tail_ok) if total == 0.0 else
                   (math.copysign(1.0, total), peak + math.log(mag),
                    _EPS * (wl / mag + 8.0 * (sum_abs / mag)), tail_ok))
    return out


def _series_attempt(spec, ln_z, tol=REL_TOL):
    """(sign, log_abs, rel_err) of the residue series, with adaptive term
    count, or None where it cannot reach tol: a list, one per ln_z of a 1-D
    array, or one result for a float.  The arguments that reach one table
    are summed in one _series_eval pass."""
    ln_zs = np.array(ln_z, dtype=float, ndmin=1)
    out, todo = [None] * ln_zs.size, {}
    d, ln_zrs = spec.reduced(ln_zs)
    for i, ln_zr in enumerate(ln_zrs.tolist()):
        # alternating-term cancellation grows like exp(d * z^(1/d)), and the
        # rounding estimate has never come out below eps times that (by a
        # factor e^0.9 or more, on every table of the closed-form sweeps and
        # of check_specfun); skip the series, before building a table, where
        # that alone exceeds tol
        loss = d * math.exp(min(ln_zr / d, 30.0))
        if loss > math.log(tol / _EPS):
            continue
        # a plain G needs guess units of s to pass its terms' peak; the
        # kernel of order d decays about d times faster past it, so kmax is
        # the least power of two (at least 2) with kmax * d >= guess.  Powers
        # of two let calls at nearby arguments share a table.
        peak = math.exp(min(ln_zr / d, 12.0)) if ln_zr > 0 else 0.0
        guess = int(24.0 + 2.5 * peak + 8.0 * math.sqrt(peak + 1.0))
        kmax = min(_MAX_TERMS, 1 << max(1, (-(-guess // d) - 1).bit_length()))
        todo.setdefault(kmax, []).append(i)
    while todo:  # the shortest table first, so that a doubled argument joins the next
        kmax = min(todo)
        idx = todo.pop(kmax)
        tab = _series_table(spec, kmax)
        if tab.degenerate:
            continue
        for i, (sign, logabs, rounding, tail_ok) in zip(idx, _series_eval(tab, ln_zs[idx])):
            # a longer table has never brought a rounding estimate back under
            # tol: refuse it as soon as it is over, tail test passed or not
            if rounding > tol or (not tail_ok and kmax >= _MAX_TERMS):
                continue
            if tail_ok:
                out[i] = sign, logabs, rounding
            else:
                todo.setdefault(min(_MAX_TERMS, kmax * 2), []).append(i)
    return out if np.ndim(ln_z) else out[0]


# ---------------------------------------------------------------------------
# Mellin-Barnes contour quadrature
# ---------------------------------------------------------------------------


def _mb_log_kernel(spec: MeijerGSpec, s):
    """(log of the Mellin kernel, a bound on its rounding / eps) at complex s
    (array), summed over the factors of _kernel_factors."""
    out, size = np.zeros_like(s, dtype=complex), np.zeros(s.shape)
    for alpha, beta, power, gamma in _kernel_factors(spec):
        x = alpha + beta * s
        lg = ln_gamma_complex(x) if gamma else np.log(x)
        out += power * lg
        # ln_gamma_complex adds up at most r logs of modulus below about
        # ln r + pi, and Stirling's (x - 1/2) ln x - x, about as large again
        r = np.abs(x) + 13.0
        size += 3.0 * r * (np.log(r) + np.pi) if gamma else np.abs(lg)
    return out, size


def _mb_sigma(spec: MeijerGSpec, ln_z: float):
    """Pick the contour abscissa by minimizing the t=0 integrand size."""
    a, b, m, n = spec.a, spec.b, spec.m, spec.n
    hi = min(bj / B for bj, B in zip(b, spec.scales))
    lo = max(a[:n]) - 1.0 if n else None
    # keep every candidate a relative 1e-7 inside the window: an abscissa
    # within an ulp of lo or hi sits on a pole of the kernel
    margin_hi = 1e-7 * (1.0 + abs(hi)) + 1e-12
    if lo is not None:
        margin_lo = 1e-7 * (1.0 + abs(lo)) + 1e-12
        width = hi - lo - margin_lo - margin_hi
        if width <= 0.0:
            raise ContourError(
                f"no separating contour: max(a)-1={lo:.6g} is not below "
                f"min(b)={hi:.6g} by the pole margins")
    d, ln_zr = spec.reduced(ln_z)
    # reach past the large-argument saddle at depth ~ exp(ln_z / d)
    span = (40.0 + 4.0 * abs(ln_zr) / d + 0.05 * sum(abs(v) for v in b)
            + 1.3 * d * math.exp(min(ln_zr / d, 14.0)))
    if lo is None:
        cand = hi - np.geomspace(margin_hi, span, 200)
    else:
        cand = np.concatenate([
            hi - np.geomspace(margin_hi, min(span, width + margin_hi), 200),
            lo + np.geomspace(margin_lo, width + margin_lo, 100)])
    phi = np.real(_mb_log_kernel(spec, cand.astype(complex))[0]) + cand * ln_z
    return float(cand[np.argmin(phi)])


def _mb_eval(spec: MeijerGSpec, ln_z: float):
    """Trapezoid quadrature of the contour integral along Re(s)=sigma.

    Returns (sign, log_abs, rel_err_est).  The error estimate combines node
    doubling with the conditioning of the oscillatory sum and the rounding
    of each node's log-integrand.
    """
    # |Gamma(alpha + beta s)| falls like exp(-|beta| pi |t| / 2) along Re(s) = sigma
    kappa = math.pi / 2.0 * sum(abs(beta) * power for _, beta, power, gamma
                                in _kernel_factors(spec) if gamma)
    if kappa <= 0.0:
        raise ContourError("contour integrand does not decay for this instance")
    sigma = _mb_sigma(spec, ln_z)
    scale = float(np.real(_mb_log_kernel(spec, np.array([sigma + 0j]))[0])[0]
                  + sigma * ln_z)

    def integrand(t):
        """Integrand values and the size of their logs' rounding / eps."""
        s = sigma + 1j * t
        lg, size = _mb_log_kernel(spec, s)
        return np.exp(lg + s * ln_z - scale), size + np.abs(s * ln_z) + abs(scale)

    # truncation: kernel decays like exp(-kappa * t) with algebraic factors;
    # a scaled Gamma(b - B s) counts as the B unit-scale factors its Gauss
    # multiplication splits into, whose b add up to b + (B - 1) / 2
    excess = sum(spec.b) + sum(B - 1 for B in spec.scales) / 2.0 - sum(spec.a)
    T = (55.0 + 0.5 * abs(excess)) / kappa + 2.0
    while True:
        # the integrand is scaled to modulus 1 at t = 0
        ftail = np.abs(integrand(np.array([T, 1.25 * T]))[0])
        if max(ftail) < 1e-20 or T > 1e7:
            break
        T *= 1.6

    nodes = max(64, int(T * (2.0 + 0.8 * abs(spec.reduced(ln_z)[1])) / 4.0))
    nodes = min(nodes, _CONTOUR_POINTS // 8)
    prev = prev_absum = None
    # nodes start at most _CONTOUR_POINTS / 8 and double until they reach
    # _CONTOUR_POINTS, where the loop returns
    while True:
        t = np.linspace(0.0, T, nodes + 1)
        f, size = integrand(t)
        h = T / nodes
        ssum = 0.5 * f[0].real + float(np.sum(f[1:].real))
        absum = 0.5 * abs(f[0].real) + float(np.sum(np.abs(f[1:].real)))
        val = ssum * h / math.pi
        if prev is not None:
            diff = abs(val - prev)
            cond = (prev_absum + absum * h / math.pi) / max(abs(val), 1e-300)
            wlog = 0.5 * abs(f[0]) * size[0] + float(np.sum(np.abs(f[1:]) * size[1:]))
            wlog *= h / math.pi / max(abs(val), 1e-300)
            rel = diff / max(abs(val), 1e-300) + _EPS * (cond + wlog)
            if diff <= 0.25 * REL_TOL * abs(val) or nodes >= _CONTOUR_POINTS:
                if abs(val) == 0.0:
                    return 0.0, -np.inf, rel
                return (math.copysign(1.0, val),
                        scale + math.log(abs(val)),
                        rel)
        prev = val
        prev_absum = absum * h / math.pi
        nodes *= 2


# ---------------------------------------------------------------------------
# the closed form's factor: residue series, else a real-line integral
# ---------------------------------------------------------------------------


def _trapezoid_log(log_f, lo, hi, n):
    """Arrays (ln I, bound on its relative error) of the integrals I of
    exp(log_f) over [lo, hi], by the trapezoid rule on n and 2n intervals,
    then 4n, 8n, ...; lo, hi and n hold one entry per integral.

    log_f maps nodes, and the index of each one's integral, to the
    log-integrand and a bound on its rounding / eps.  Each call of log_f
    takes the nodes of all the integrals still open: the first serves the
    rules on n and 2n intervals; each later one adds the midpoints of the
    last rule's intervals.  An integral's step halves until two rules agree
    within 1e-14 plus the rounding of their log-sum; for an integrand
    analytic in a strip about the axis the error of a rule is then far below
    that of the one before.  The bound is the difference of those two rules
    plus that rounding; the caller adds the rounding of its log.  Raises
    NonConvergenceError past _TRAPEZOID_NODES intervals, before the first
    call of log_f when some 2n is already past it.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = 2 * np.asarray(n, dtype=np.int64)
    if n.max(initial=0) > _TRAPEZOID_NODES:
        raise NonConvergenceError("real-line trapezoid rule: window too wide for its step")
    h = (hi - lo) / n

    def sweep(live, count, odd):  # log_f at lo + h j, j < count, or j = 1, 3, .. if odd
        which = np.repeat(live, count)
        starts = np.cumsum(count) - count
        j = np.arange(which.size) - np.repeat(starts, count)
        if odd:
            j = 2 * j + 1
        ell, size = log_f(lo[which] + h[which] * j, which)
        return ell, size, which, starts, j

    ell, size, which, starts, j = sweep(np.arange(lo.size), n + 1, False)
    top = np.maximum.reduceat(ell, starts)
    w = np.exp(ell - top[which])
    w[np.concatenate([starts, starts + n])] *= 0.5  # each rule's two ends
    total, wsize = np.add.reduceat(w, starts), np.add.reduceat(w * size, starts)
    # the rule on the even nodes
    prev = 2.0 * h * np.add.reduceat(np.where(j % 2 == 0, w, 0.0), starts)
    while True:
        cur = h * total
        # each term's rounding and that of the pairwise sum
        rnd = _EPS * (wsize / total + np.log2(n))
        diff = np.abs(cur - prev) / cur
        # an integral that has converged keeps its state, and so its result
        live = np.flatnonzero(~(diff <= 1e-14 + rnd))
        if not live.size:
            return top + np.log(cur), diff + rnd
        if 2 * n[live].max() > _TRAPEZOID_NODES:
            raise NonConvergenceError("real-line trapezoid rule did not converge")
        prev[live] = cur[live]
        h[live] *= 0.5
        ell, size, which, starts, _ = sweep(live, n[live], True)
        # rescale what is summed to each integral's new largest term
        peak = np.maximum.reduceat(ell, starts)
        r = np.exp(np.minimum(top[live] - peak, 0.0))
        top[live] = np.maximum(top[live], peak)
        w = np.exp(ell - top[which])
        total[live] = total[live] * r + np.add.reduceat(w, starts)
        wsize[live] = wsize[live] * r + np.add.reduceat(w * size, starts)
        prev[live] *= r
        n[live] *= 2


def _exp_factor_integral(xi2: float, ln_z):
    """Arrays (ln G1, relative error bound) of the folded factor at a = c = 1,
    G1 = G^{3,0}_{1,3}(z | xi2 + 1; 1, xi2, 0), at each ln_z of a 1-D array,
    from its real-line K_1 form, with L(s, ln x) = ln(x^-s Gamma(s, x)) and
    x0 = 2 sqrt(z):

        G1(z) = 4 sqrt(z) int_0^inf cosh u exp L(1 - 2 xi2, ln(x0 cosh u)) du,

    from K_1(x) = int_0^inf exp(-x cosh u) cosh u du (DLMF 10.32.8) and the
    Mellin convolution of the kernel's gamma factors.  The integrand is even
    in u.  Gamma(s, x) <= x^(s-1) e^-x for s <= 1 bounds it by e^-x / x0,
    so the rule, which ends where x = x0 + 50, drops less than
    e^-x / (x0^2 sinh u) there.  The integrals share one _trapezoid_log.
    """
    s = 1.0 - 2.0 * xi2
    ln_x0 = _LN2 + 0.5 * ln_z
    x0 = np.exp(ln_x0)
    x_end = x0 + 50.0
    r = x0 / x_end
    u_end = np.log(x_end) - ln_x0 + np.log1p(np.sqrt(1.0 - r * r))  # acosh(x_end / x0)

    def log_f(u, which):
        ln_cosh = u + np.log1p(np.exp(-2.0 * u)) - _LN2
        ln_x = ln_x0[which] + ln_cosh
        lg = ln_gamma_upper_scaled(s, ln_x)
        # |dL / d ln x| <= x + 1 + 2|s| scales the rounding of ln x
        size = (ln_cosh + np.abs(lg)
                + (np.exp(ln_x) + 1.0 + 2.0 * abs(s)) * (np.abs(ln_x0[which]) + 2.0 * ln_cosh))
        return ln_cosh + lg, size

    ln_i, rel = _trapezoid_log(log_f, np.zeros_like(u_end), u_end, np.full(u_end.shape, 16))
    ln_tail = -x_end - ln_x0 - np.log(x_end) - 0.5 * np.log1p(-r * r)
    ln_g = 2.0 * _LN2 + 0.5 * ln_z + ln_i
    return ln_g, rel + np.exp(ln_tail - ln_i) + _EPS * np.abs(ln_g)


def _gg_factor_integral(a: float, xi2: float, c: float, ln_z):
    """Arrays (ln G2, relative error bound) of the folded generalized-gamma
    factor G2 = H^{3,0}_{1,3}(z | (xi2/c + 1, 1); (a, 1), (xi2/c, 1), (0, c))
    at each ln_z of a 1-D array, from its real-line form, with L(s, ln x) =
    ln(x^-s Gamma(s, x)), for real a, xi2, c > 0:

        G2(z) = int exp(a v - e^v + L(-xi2, (ln z - v) / c)) dv over the real line.

    With x = exp((ln z - v) / c), x^xi2 Gamma(-xi2, x) lies between
    e^-x / (x + 1 + xi2) and min(1 / xi2, e^-x / x).  The first gives a
    concave lower bound of the log-integrand, whose largest value on the
    bracket of the integrand's peak sets the reference level; the second
    bounds the two dropped tails, Gamma(a, e^V) / xi2 right of V and
    c z^a Gamma(-ac - 1, x(V)) left of it.  The window [lo, hi] ends where
    those bounds, with Gamma(s, y) <= y^(s-1) e^-y max(1, y / (y + 1 - s)),
    fall e^-45 below the reference level.

    The trapezoid rule runs on the mapped axis v = v_ref + h sinh t, h the
    peak's width, whose steps grow like |v - v_ref| in the slowly decaying
    tails; the map moves the nodes, not the window or its tail bounds.  The
    first rule's step puts its error at 1e-14, the agreement _trapezoid_log
    asks for, on the strip where the mapped integrand stays below its peak.
    The integrals share one _trapezoid_log.
    """
    # the log-integrand rises left of ln a and falls right of
    # ln(a + (x(ln a) + 1) / c), where e^v outgrows its slope
    v_a = math.log(a)
    v_b = [math.log(a + (math.exp((lz - v_a) / c) + 1.0) / c) for lz in ln_z.tolist()]
    v = np.arange(65.0) * ((np.array(v_b) - v_a) / 64.0)[:, None] + v_a  # np.linspace's steps
    v[:, -1] = v_b
    x = np.exp((ln_z[:, None] - v) / c)
    lower = a * v - np.exp(v) - x - np.log(x + 1.0 + xi2)
    rows = np.arange(ln_z.size)
    k = np.argmax(lower, axis=1)
    v_ref, x_ref, ref = v[rows, k], x[rows, k], lower[rows, k]
    # the nearest of _WINDOW_ENDS right and left of v_ref where each tail
    # bound is below limit: every 16th end, then the 16 up to the first of
    # those that passes; each bound falls away from v_ref, and e^709 in place
    # of a larger exponential keeps it a bound
    v_col, z_col, limit = v_ref[:, None], ln_z[:, None], ref[:, None] - 45.0

    def ln_tails(d_hi, d_lo):
        right, left = v_col + d_hi, v_col - d_lo
        y, ln_xl = np.exp(np.minimum(right, 709.0)), (z_col - left) / c
        ln_r = (a - 1.0) * right - y - math.log(xi2)
        if a > 1.0:  # else y / (y - a + 1) <= 1
            ln_r += np.log(np.maximum(1.0, y / (y - a + 1.0)))
        return np.array([ln_r, math.log(c) + a * left - 2.0 * ln_xl
                         - np.exp(np.minimum(ln_xl, 709.0))])

    coarse = _WINDOW_ENDS[::16]
    ok = ln_tails(coarse, coarse) <= limit
    if not ok.any(axis=2).all():
        raise NonConvergenceError("folded factor: no window bounds its tails")
    k = np.maximum(16 * ok.argmax(axis=2)[..., None] - np.arange(15, -1, -1), 0)
    ln_b = ln_tails(*_WINDOW_ENDS[k])
    pick = np.arange(2)[:, None], rows, (ln_b <= limit).argmax(axis=2)
    (d_hi, d_lo), (ln_r, ln_l) = _WINDOW_ENDS[k[pick]], ln_b[pick]
    lo, hi = v_ref - d_lo, v_ref + d_hi

    def log_f(t, which):
        hw, lz = h[which], ln_z[which]
        jac = hw * np.cosh(t)
        v = v_ref[which] + hw * np.sinh(t)
        ln_x = (lz - v) / c
        ev = np.exp(v)
        lg = ln_gamma_upper_scaled(-xi2, ln_x)
        ln_jac = np.log(jac)
        # the rounding of v / eps, its own and that of t through sinh;
        # |dL / d ln x| <= x + 1 scales the rounding of ln x
        dv = np.abs(v) + np.abs(t) * jac
        size = (a * dv + ev * (1.0 + dv) + np.abs(lg) + np.abs(ln_jac)
                + (np.exp(ln_x) + 1.0) * 2.0 * (np.abs(lz) + dv) / c)
        return a * v - ev + lg + ln_jac, size

    # At t + iy, Im v = h cosh t sin y, and the integrand's exp(-e^v) and
    # e^-x grow by exp(e^v (1 - cos Im v)) and exp(x (1 - cos(Im v / c))).
    # The strip |Im t| < y (sin y <= y) keeps that growth, at each end of the
    # window, within the integrand's fall there from the peak: ref less its
    # upper bound a v - e^v + min(-ln xi2, -x - ln x), and at least 45.  On
    # the strip the rule's error is about 2 e^(-2 pi y / step) of the integral.
    def room(lz, ref, v_end, ln_w):  # the widest angle, at most pi/2, at e^ln_w
        ln_x = (lz - v_end) / c
        fall = max(45.0, ref - a * v_end + math.exp(v_end)
                   + max(math.log(xi2), math.exp(min(ln_x, 700.0)) + ln_x))
        # 1 - cos angle = 2 sin(angle / 2)^2 <= fall e^-ln_w, kept above e^-700
        ratio = math.exp(max(-700.0, min(0.0, math.log(fall) - ln_w)))
        return 2.0 * math.asin(math.sqrt(0.5 * ratio))

    h, t_lo, t_hi, n = [], [], [], []
    for lz, rf, vr, xr, l, u in zip(*(q.tolist() for q in (ln_z, ref, v_ref, x_ref, lo, hi))):
        # the map's scale: at most the peak's width, from the lower bound's curvature
        hw = min(0.5, 1.0 / math.sqrt(math.exp(vr) + xr / c ** 2 * (
            1.0 + (1.0 + xi2) / (xr + 1.0 + xi2) ** 2)))
        h.append(hw)
        strip = min(room(lz, rf, u, u) / math.hypot(hw, u - vr),
                    c * room(lz, rf, l, (lz - l) / c) / math.hypot(hw, vr - l))
        t_lo.append(math.asinh((l - vr) / hw))
        t_hi.append(math.asinh((u - vr) / hw))
        step = 2.0 * math.pi * strip / math.log(2e14)
        n.append(math.ceil((t_hi[-1] - t_lo[-1]) / step))
    h = np.array(h)
    ln_i, rel = _trapezoid_log(log_f, t_lo, t_hi, n)
    tails = np.exp(ln_r - ln_i) + np.exp(ln_l - ln_i)
    return ln_i, rel + tails + _EPS * np.abs(ln_i)


@functools.lru_cache(maxsize=512)
def _folded_spec(a: float, xi2: float, c: int):
    """The H-function spec of folded_gg_factor_log, built once per branch."""
    return MeijerGSpec(m=3, n=0, a=(xi2 / c + 1.0,), b=(a, xi2 / c, 0.0),
                       scales=(1, 1, c))


def folded_gg_factor_log(a: float, xi2: float, c: int, ln_z):
    """(ln G, relative error bound) of the closed form's factor of one
    generalized-gamma branch at z = exp(ln_z), for shape a > 0, xi2 > 0 and
    integer exponent c >= 1: arrays, one entry per ln_z of a 1-D array, or
    floats for a float, which is a batch of one.  The expression's
    G^{c+2,0}_{1,c+2}(y | xi2/c + 1; a, xi2/c, 0, 1/c, .., (c-1)/c) has its c
    factors folded by the Gauss multiplication formula, prod_j Gamma(j/c - s)
    = (2 pi)^((c-1)/2) c^(1/2) c^(c s) Gamma(-c s): the constant cancels the
    expression's c^(-1/2) (2 pi)^((1-c)/2), and c^(c s) moves the argument
    to z = c^c y.  G is the H-function that is left, Gamma(a - s)
    Gamma(-c s) / (xi2/c - s).  At a = c = 1 it is the exponential branch's
    G^{3,0}_{1,3}(z | xi2 + 1; 1, xi2, 0), the same spec and series table.

    The residue series where its estimate is within _FACTOR_TOL, else the
    real-line integral: _exp_factor_integral (the K_1 form) at a = c = 1,
    _gg_factor_integral otherwise.  The arguments that reach one series
    table are summed in one pass, and those the series refuses are
    integrated in one sweep of the integrand.  A real-line estimate above
    _REFUSE_ABOVE raises NonConvergenceError.
    """
    ln_zs = np.array(ln_z, dtype=float, ndmin=1)
    if not all(map(math.isfinite, ln_zs.tolist())):
        raise ValueError("log-argument must be finite")
    got = _series_attempt(_folded_spec(a, xi2, c), ln_zs, _FACTOR_TOL)
    refused = [i for i, served in enumerate(got) if served is None]
    if refused:
        ln_i, rel_i = (_exp_factor_integral(xi2, ln_zs[refused]) if a == 1 and c == 1
                       else _gg_factor_integral(a, xi2, c, ln_zs[refused]))
        worst = float(rel_i.max())
        if worst > _REFUSE_ABOVE:
            raise NonConvergenceError(
                f"real-line form reached rel err ~{worst:.2e} > tolerance {_REFUSE_ABOVE:.2e}")
        for i, ln_g, rel in zip(refused, ln_i.tolist(), rel_i.tolist()):
            got[i] = (1.0, ln_g, rel)  # the factor is positive
    if np.ndim(ln_z) == 0:
        return got[0][1:]
    return np.array([served[1] for served in got]), np.array([served[2] for served in got])


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def meijer_g_log(spec: MeijerGSpec, ln_z: float):
    """(sign, log|G|) at argument exp(ln_z), to relative tolerance REL_TOL.

    The generic evaluator: residue series first, coincident poles included;
    contour quadrature when the series is cancellation limited.  Raises
    NonConvergenceError when the contour cannot reach the tolerance either,
    as in the far exponential tail.  The closed-form outage does not come
    here: its factors have their own evaluator (folded_gg_factor_log),
    series then real-line integral, so the contour is only an oracle for
    them.
    """
    ln_z = float(ln_z)
    if not math.isfinite(ln_z):
        raise ValueError("log-argument must be finite")
    got = _series_attempt(spec, ln_z)
    if got is not None:
        return got[0], got[1]
    sign, logabs, rel = _mb_eval(spec, ln_z)
    if rel > _REFUSE_ABOVE:
        raise NonConvergenceError(
            f"G evaluation reached rel err ~{rel:.2e} > tolerance {_REFUSE_ABOVE:.2e}")
    return sign, logabs


def meijer_g(spec: MeijerGSpec, z: float) -> float:
    """G^{m,n}_{p,q}(z | a; b) for real z > 0."""
    if not (z > 0.0) or not math.isfinite(z):
        raise ValueError(f"argument must be positive and finite, got {z!r}")
    sign, logabs = meijer_g_log(spec, math.log(z))
    if logabs == -np.inf:
        return 0.0
    return sign * math.exp(logabs)


def meijer_g_mellin_barnes(spec: MeijerGSpec, z: float) -> MellinBarnesResult:
    """Independent contour-quadrature evaluation of G at real z > 0.

    Cross-check oracle for meijer_g; never preferred on the hot path.
    The error estimate counts node doubling and the rounding of the sum.
    """
    if not (z > 0.0) or not math.isfinite(z):
        raise ValueError(f"argument must be positive and finite, got {z!r}")
    sign, logabs, rel = _mb_eval(spec, math.log(z))
    value = 0.0 if logabs == -np.inf else sign * math.exp(logabs)
    return MellinBarnesResult(value=value, err_est=abs(value) * rel)
