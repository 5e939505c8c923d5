"""Gamma-family helpers, incomplete gamma functions and numerical Meijer
G-function evaluation.

The optical-hop density and CDF reduce to upper incomplete gamma functions
(ln_gamma_upper_scaled, gamma_p).  The G-function instances of the
closed-form outage expression all have real parameters, a positive real
argument, at most two upper parameters and lower-parameter counts up to a
few hundred.  Within that family the function is evaluated by a residue
(Slater-type) series over the right pole ladders, computed entirely in log
space with sign tracking.  When the series is ill-conditioned (heavy
alternating cancellation, near-coincident pole ladders) evaluation switches
to direct quadrature of the defining Mellin-Barnes contour integral, which
is also exposed on its own as an independent cross-check oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecfunError",
    "GammaDomainError",
    "NonConvergenceError",
    "DegenerateParameterError",
    "ContourError",
    "CapabilityError",
    "MeijerGSpec",
    "EvalOptions",
    "MellinBarnesResult",
    "MAX_INTEGER_C",
    "ln_gamma",
    "ln_gamma_complex",
    "ln_abs_gamma_signed",
    "ln_gamma_upper_scaled",
    "gamma_p",
    "meijer_g",
    "meijer_g_log",
    "meijer_g_mellin_barnes",
]

# Largest integer generalized-gamma exponent accepted by the huge-order
# G instances of the closed-form outage expression.  Above this the series
# coefficients lose too many digits to log-space cancellation and callers
# are expected to fall back to quadrature or Monte Carlo.
MAX_INTEGER_C = 120

_EPS = 1.1e-16


class SpecfunError(Exception):
    """Base class for special-function evaluation failures."""


class GammaDomainError(SpecfunError, ValueError):
    """Argument outside the real log-gamma domain (x <= 0)."""


class NonConvergenceError(SpecfunError):
    """Neither the residue series nor the contour quadrature reached the
    requested tolerance within the configured budgets."""


class DegenerateParameterError(SpecfunError):
    """Pole ladders remain coincident even after perturbation."""


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
    range.  From 12 up, Stirling's series has relative error ~1e-15.
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
        prod = np.where(k == 0.0, xs * (xs + 1.0), np.where(up, 1.0, xs))
        for j in range(1, int(k.max()) - 1):
            prod = np.where(k - 2.0 >= j, prod * (xs - j), prod)
        log_prod = np.log(prod)
        out[small] = poly * e + np.where(up, log_prod, -log_prod)
    return out


def ln_gamma(x):
    """Natural log of Gamma(x) for real x > 0.

    Accepts scalars or arrays.  Raises GammaDomainError if any entry is
    not strictly positive (use ln_abs_gamma_signed for negative arguments,
    ln_gamma_complex for complex ones).
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

    Branch offsets of 2*pi*i are possible after reflection; callers that
    exponentiate the result (as the contour quadrature does) are unaffected.
    """
    w = np.array(z, dtype=complex, copy=True, ndmin=1)
    out = np.empty_like(w)
    refl = w.real < -20.0
    if refl.any():
        zr = w[refl]
        out[refl] = _LOG_PI - _log_sin_complex(np.pi * zr) - _ln_gamma_c_shift(1.0 - zr)
    rest = ~refl
    if rest.any():
        out[rest] = _ln_gamma_c_shift(w[rest])
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(out[0])
    return out.reshape(np.asarray(z).shape)


def _ln_gamma_c_shift(w):
    w = np.array(w, dtype=complex, copy=True)
    acc = np.zeros_like(w)
    mask = w.real < _STIRLING_MIN
    guard = 0
    while mask.any():
        bad = np.abs(w[mask]) < 1e-12
        if bad.any():
            raise GammaDomainError("log-gamma evaluated at a pole")
        acc[mask] += np.log(w[mask])
        w[mask] += 1.0
        mask = w.real < _STIRLING_MIN
        guard += 1
        if guard > 100:
            raise GammaDomainError("log-gamma shift did not terminate")
    return _stirling_series(w) - acc


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
    if pos.any():
        logabs[pos] = _lgamma_pos(w[pos])
    if neg.any():
        xn = w[neg]
        # reflection: |Gamma(x)| = pi / (|sin(pi x)| * Gamma(1 - x))
        r = np.mod(xn, 2.0)
        sinabs = np.abs(np.sin(np.pi * r))
        logabs[neg] = _LOG_PI - np.log(sinabs) - _lgamma_pos(1.0 - xn)
        k = np.floor(xn)
        sign[neg] = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
    if pole.any():
        logabs[pole] = np.inf
        sign[pole] = 0.0
    shape = arr.shape
    return logabs.reshape(shape), sign.reshape(shape)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------


def _upper_cf(s, z):
    """ln(z^-s Gamma(s, z)) by the Legendre continued fraction (modified Lentz)."""
    out = np.full_like(z, -np.inf)
    idx = np.nonzero(np.isfinite(z))[0]
    s, z = s[idx], z[idx]
    b = z + 1.0 - s
    c = np.full_like(b, 1e300)
    d = h = 1.0 / b
    for i in range(1, 401):
        an = -i * (i - s)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * (c * d)
        # stop at about one ulp: a tighter test may never fire
        done = np.abs(c * d - 1.0) < 3e-16
        if done.any():
            out[idx[done]] = np.log(h[done]) - z[done]
            idx, s, z, b, c, d, h = (v[~done] for v in (idx, s, z, b, c, d, h))
        if idx.size == 0:
            return out
    raise NonConvergenceError("incomplete-gamma continued fraction did not converge")


def _ln_lower_series(a, ln_z, lg_a):
    """ln P(a, z) by its power series, given lg_a = ln Gamma(a)."""
    z = np.exp(ln_z)
    term = total = np.ones_like(z)
    for k in range(1, 401):
        term = term * z / (a + k)
        total = total + term
        if np.all(term < 1e-17 * total):
            return a * ln_z - z - lg_a - np.log(a) + np.log(total)
    raise NonConvergenceError("incomplete-gamma power series did not converge")


def _upper_small_z(s, ln_z):
    """ln(z^-s Gamma(s, z)) for z <= 1.5 and s <= 1/2.

    At s0 = s + n in [-1/2, 1/2] Temme's split, with g = ln Gamma(1+s0)/s0,
    A = s0 (g - ln z), B = max(A, 0) and S = sum_k>=1 (-z)^k / (k! (s0+k)):
    z^-s0 Gamma(s0, z) = e^B [expm1(-|A|) / (-|A|) (g - ln z) - e^-B S].
    It keeps the cancellation of Gamma(s0) against z^s0/s0 inside expm1 and
    never overflows; at s0 = 0 it is E1(z) = -gamma_E - ln z - S.  Then n
    steps of Gamma(s, z) = (Gamma(s+1, z) - z^s e^-z) / s (DLMF 8.8.2).
    """
    n = np.maximum(0.0, np.ceil(-s - 0.5))
    s0 = s + n
    z = np.exp(ln_z)
    term = np.ones_like(z)
    sigma = np.zeros_like(z)
    for k in range(1, 40):  # z <= 1.5: the terms fall below 1e-17 by k = 26
        term = term * (-z / k)
        sigma += term / (s0 + k)
        if np.max(np.abs(term), initial=0.0) < 1e-17:
            break
    # ln Gamma(1 + s0) = ln Gamma(2 + s0) - log1p(s0), from the Taylor series
    g = _LGAMMA2_TAYLOR[-1]
    for coef in _LGAMMA2_TAYLOR[-2::-1]:
        g = g * s0 + coef
    g = g - np.where(s0 == 0.0, 1.0, np.log1p(s0) / np.where(s0 == 0.0, 1.0, s0))
    A = s0 * (g - ln_z)
    mag = np.maximum(np.abs(A), 1e-300)
    B = np.maximum(A, 0.0)
    ln_s = B + np.log(-np.expm1(-mag) / mag * (g - ln_z) - np.exp(-B) * sigma)
    for j in range(1, int(n.max(initial=0.0)) + 1):
        step = n >= j
        t = np.exp(ln_z[step] + z[step] + ln_s[step])
        ln_s[step] = np.log1p(-t) - z[step] - np.log(j - s0[step])
    return ln_s


def _incomplete_args(s, ln_z):
    """Broadcast shape, flat (s, ln_z, z) and the mask z > max(1.5, s + 1)."""
    s, ln_z = np.broadcast_arrays(np.asarray(s, dtype=float),
                                  np.asarray(ln_z, dtype=float))
    shape, s, ln_z = s.shape, s.ravel(), ln_z.ravel()
    with np.errstate(over="ignore"):
        z = np.exp(ln_z)
    return shape, s, ln_z, z, z > np.maximum(1.5, s + 1.0)


def ln_gamma_upper_scaled(s, ln_z):
    """ln(z^-s Gamma(s, z)) for real s and z = exp(ln_z) > 0, vectorized.

    The power factor is taken out so that a caller multiplying by z^p adds
    p * ln_z to a log of moderate size instead of cancelling two large ones.
    Legendre continued fraction above z = max(1.5, s + 1), below it
    Gamma(s) (1 - P(s, z)) for s > 1/2, else _upper_small_z (Gil, Segura &
    Temme, SIAM J. Sci. Comput. 34 (2012); DLMF 8.7-8.9).  z beyond the
    float range gives -inf.
    """
    shape, s, ln_z, z, cf = _incomplete_args(s, ln_z)
    out = np.empty_like(z)
    out[cf] = _upper_cf(s[cf], z[cf])
    ser = ~cf & (s > 0.5)
    sv, lz = s[ser], ln_z[ser]
    lg = _lgamma_pos(sv)
    out[ser] = lg + np.log1p(-np.exp(_ln_lower_series(sv, lz, lg))) - sv * lz
    small = ~cf & ~ser
    out[small] = _upper_small_z(s[small], ln_z[small])
    return out.reshape(shape)


def gamma_p(a, ln_z):
    """Regularized lower incomplete gamma P(a, z) for a > 0, z = exp(ln_z)."""
    shape, a, ln_z, z, cf = _incomplete_args(a, ln_z)
    if np.any(a <= 0.0):
        raise GammaDomainError("gamma_p requires a > 0")
    out = np.empty_like(z)
    lg = _lgamma_pos(a)
    out[cf] = -np.expm1(_upper_cf(a[cf], z[cf]) + a[cf] * ln_z[cf] - lg[cf])
    out[~cf] = np.exp(_ln_lower_series(a[~cf], ln_z[~cf], lg[~cf]))
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeijerGSpec:
    """Order/parameter bundle of a G^{m,n}_{p,q} instance.

    a and b are the upper and lower parameter lists; the first m entries of b
    and the first n entries of a generate the pole ladders used by the
    residue series.
    """

    m: int
    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if not all(math.isfinite(v) for v in self.a + self.b):
            raise ValueError("non-finite G-function parameter")
        if not (0 <= self.m <= self.q and 0 <= self.n <= self.p):
            raise ValueError(f"invalid orders m={self.m}, n={self.n} "
                             f"for p={self.p}, q={self.q}")
        if self.p > 2 or self.n > 1 or self.q > MAX_INTEGER_C + 99:
            raise CapabilityError(
                "instance outside the supported family (need p <= 2, n <= 1)")
        if self.p >= self.q:
            raise CapabilityError("supported family requires p < q")
        if self.m == 0:
            raise CapabilityError("need at least one right pole ladder (m >= 1)")

    @property
    def p(self):
        return len(self.a)

    @property
    def q(self):
        return len(self.b)


@dataclass(frozen=True)
class EvalOptions:
    """Accuracy/budget knobs for G-function evaluation."""

    rel_tol: float = 1e-10
    max_terms: int = 768
    contour_points: int = 400_000
    pole_perturb_eps: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 8:
            raise ValueError("max_terms too small")
        if self.contour_points < 256:
            raise ValueError("contour_points too small")
        if not (0.0 < self.pole_perturb_eps < 1e-2):
            raise ValueError("pole_perturb_eps out of range")


DEFAULT_OPTIONS = EvalOptions()


@dataclass(frozen=True)
class MellinBarnesResult:
    value: float
    err_est: float


def _nearest_int_dist(x):
    return abs(x - round(x))


def _separate_ladders(spec: MeijerGSpec, eps: float):
    """Perturb parameters so that residue poles are simple.

    Right ladders collide when two of b[:m] differ by an integer; a numerator
    gamma of the series hits a pole when a[:n] exceeds some b[:m] by a
    positive integer.  Offending parameters are shifted by multiples of eps.
    Returns (a, b, perturbed).
    """
    a = list(spec.a)
    b = list(spec.b)
    perturbed = False
    for _ in range(6):
        clean = True
        for j in range(1, spec.m):
            for i in range(j):
                if _nearest_int_dist(b[j] - b[i]) < 0.5 * eps:
                    b[j] -= eps
                    perturbed = True
                    clean = False
        for l in range(spec.n):
            for h in range(spec.m):
                d = a[l] - b[h]
                if d > 0.5 and _nearest_int_dist(d) < 0.5 * eps:
                    a[l] += eps
                    perturbed = True
                    clean = False
        if clean:
            break
    else:
        raise DegenerateParameterError(
            "pole ladders still coincident after perturbation")
    return tuple(a), tuple(b), perturbed


class _SeriesTable:
    """z-independent residue-series coefficients for one (spec, kmax)."""

    __slots__ = ("s", "logc", "sign", "logsize", "tail_idx", "degenerate")

    def __init__(self, m, n, a, b, kmax):
        q = len(b)
        p = len(a)
        ladders = []
        for h in range(m):
            k = np.arange(kmax, dtype=float)
            s = b[h] + k
            logc = -_lgamma_pos(k + 1.0)
            sign = np.where(np.mod(np.arange(kmax), 2) == 0, 1.0, -1.0)
            logsize = np.abs(logc)
            for j in range(m):
                if j == h:
                    continue
                la, sg = ln_abs_gamma_signed(b[j] - s)
                logc = logc + la
                sign = sign * sg
                logsize = logsize + np.abs(la)
            for l in range(n):
                la, sg = ln_abs_gamma_signed(1.0 - a[l] + s)
                logc = logc + la
                sign = sign * sg
                logsize = logsize + np.abs(la)
            for j in range(m, q):
                la, sg = ln_abs_gamma_signed(1.0 - b[j] + s)
                logc = logc - la
                sign = sign * sg
                logsize = logsize + np.abs(np.where(np.isfinite(la), la, 0.0))
            for l in range(n, p):
                la, sg = ln_abs_gamma_signed(a[l] - s)
                logc = logc - la
                sign = sign * sg
                logsize = logsize + np.abs(np.where(np.isfinite(la), la, 0.0))
            ladders.append((s, logc, sign, logsize))
        self.s = np.concatenate([t[0] for t in ladders])
        self.logc = np.concatenate([t[1] for t in ladders])
        self.sign = np.concatenate([t[2] for t in ladders])
        self.logsize = np.concatenate([t[3] for t in ladders])
        # index of the last k of each ladder, for truncation checks
        self.tail_idx = np.array([(h + 1) * kmax - 1 for h in range(m)])
        # +inf coefficient with non-zero sign means a numerator pole survived
        self.degenerate = bool(
            np.any(np.isposinf(self.logc) & (self.sign != 0.0)))
        # denominator poles null the term
        zero = self.sign == 0.0
        if zero.any():
            self.logc = np.where(zero, -np.inf, self.logc)


_TABLE_CACHE: dict = {}
_TABLE_LOCK = threading.Lock()


def _series_table(m, n, a, b, kmax):
    key = (m, n, a, b, kmax)
    with _TABLE_LOCK:
        tab = _TABLE_CACHE.get(key)
    if tab is not None:
        return tab
    tab = _SeriesTable(m, n, a, b, kmax)
    with _TABLE_LOCK:
        if len(_TABLE_CACHE) > 512:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[key] = tab
    return tab


def _series_eval(tab: _SeriesTable, ln_z: float):
    """Evaluate the residue series at log-argument ln_z.

    Returns (sign, log_abs, rel_err_est, tail_ok).
    """
    ll = tab.logc + tab.s * ln_z
    L = np.max(ll)
    if not np.isfinite(L):
        return 0.0, -np.inf, 0.0, True
    vals = tab.sign * np.exp(ll - L)
    total = math.fsum(vals.tolist())
    sum_abs = float(np.sum(np.abs(vals)))
    tail_max = float(np.max(ll[tab.tail_idx]))
    tail_ok = tail_max < L - 42.0
    if total == 0.0:
        return 0.0, -np.inf, np.inf, tail_ok
    cancel = sum_abs / abs(total)
    # rounding carried by each term is ~eps * (sum of |log factors|),
    # including the argument power
    wlog = float(np.sum((tab.logsize + np.abs(tab.s * ln_z)) * np.abs(vals)))
    wlog /= abs(total)
    rel_err = _EPS * (wlog + 8.0 * cancel)
    if not tail_ok:
        rel_err += math.exp(tail_max - L) / abs(total) * len(tab.tail_idx)
    return math.copysign(1.0, total), L + math.log(abs(total)), rel_err, tail_ok


def _kmax_guess(spec: MeijerGSpec, ln_z: float):
    d = max(1, spec.q - spec.p)
    peak = math.exp(min(ln_z / d, 12.0)) if ln_z > 0 else 0.0
    return int(min(4096.0, 24.0 + 2.5 * peak + 8.0 * math.sqrt(peak + 1.0)))


def _series_attempt(spec, ln_z, opts):
    """Residue-series evaluation with adaptive term count.

    Returns (sign, log_abs, rel_err) or None when the series cannot reach
    opts.rel_tol.
    """
    try:
        a, b, perturbed = _separate_ladders(spec, opts.pole_perturb_eps)
    except DegenerateParameterError:
        return None
    # alternating-term cancellation grows like exp(d * z^(1/d)); skip the
    # series outright when that alone would eat the tolerance
    d = max(1, spec.q - spec.p)
    loss = d * math.exp(min(ln_z / d, 30.0))
    if loss > -0.8 * math.log(opts.rel_tol):
        return None
    kmax = min(opts.max_terms, max(48, _kmax_guess(spec, ln_z)))
    while True:
        tab = _series_table(spec.m, spec.n, a, b, kmax)
        if tab.degenerate:
            return None
        sign, logabs, rel_err, tail_ok = _series_eval(tab, ln_z)
        if perturbed:
            # parameter-shift bias is first order in the perturbation
            rel_err += 64.0 * opts.pole_perturb_eps
        if tail_ok and rel_err <= opts.rel_tol:
            return sign, logabs, rel_err
        if not tail_ok and kmax < opts.max_terms:
            kmax = min(opts.max_terms, kmax * 2)
            continue
        return None


# ---------------------------------------------------------------------------
# Mellin-Barnes contour quadrature
# ---------------------------------------------------------------------------


def _mb_log_kernel(a, b, m, n, s):
    """log of the Mellin kernel at complex s (array)."""
    q = len(b)
    p = len(a)
    out = np.zeros_like(s, dtype=complex)
    for j in range(m):
        out += ln_gamma_complex(b[j] - s)
    for l in range(n):
        out += ln_gamma_complex(1.0 - a[l] + s)
    for j in range(m, q):
        out -= ln_gamma_complex(1.0 - b[j] + s)
    for l in range(n, p):
        out -= ln_gamma_complex(a[l] - s)
    return out


def _mb_decay_rate(spec: MeijerGSpec):
    return (2 * spec.m + 2 * spec.n - spec.p - spec.q) * math.pi / 2.0


def _mb_sigma(spec: MeijerGSpec, ln_z: float):
    """Pick the contour abscissa by minimizing the t=0 integrand size."""
    a, b, m, n = spec.a, spec.b, spec.m, spec.n
    hi = min(b[:m])
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
    d = max(1, spec.q - spec.p)
    # reach past the large-argument saddle at depth ~ exp(ln_z / d)
    span = (40.0 + 4.0 * abs(ln_z) / d + 0.05 * sum(abs(v) for v in b)
            + 1.3 * d * math.exp(min(ln_z / d, 14.0)))
    if lo is None:
        cand = hi - np.geomspace(margin_hi, span, 200)
    else:
        cand = np.concatenate([
            hi - np.geomspace(margin_hi, min(span, width + margin_hi), 200),
            lo + np.geomspace(margin_lo, width + margin_lo, 100)])
    phi = np.real(_mb_log_kernel(a, b, m, n, cand.astype(complex))) + cand * ln_z
    return float(cand[np.argmin(phi)])


def _mb_eval(spec: MeijerGSpec, ln_z: float, opts: EvalOptions):
    """Trapezoid quadrature of the contour integral along Re(s)=sigma.

    Returns (sign, log_abs, rel_err_est).  The error estimate combines node
    doubling with the conditioning of the oscillatory sum.
    """
    a, b, m, n = spec.a, spec.b, spec.m, spec.n
    kappa = _mb_decay_rate(spec)
    if kappa <= 0.0:
        raise ContourError("contour integrand does not decay for this instance")
    sigma = _mb_sigma(spec, ln_z)
    scale = float(np.real(_mb_log_kernel(a, b, m, n, np.array([sigma + 0j])))[0]
                  + sigma * ln_z)

    def integrand(t):
        s = sigma + 1j * t
        lg = _mb_log_kernel(a, b, m, n, s) + s * ln_z - scale
        return np.exp(lg)

    # truncation: kernel decays like exp(-kappa * t) with algebraic factors
    T = (55.0 + 0.5 * abs(sum(b) - sum(a))) / kappa + 2.0
    f0 = integrand(np.array([0.0]))[0].real
    while True:
        ftail = np.abs(integrand(np.array([T, 1.25 * T])))
        if max(ftail) < 1e-20 * max(1.0, abs(f0)) or T > 1e7:
            break
        T *= 1.6

    nodes = max(64, int(T * (2.0 + 0.8 * abs(ln_z)) / 4.0))
    nodes = min(nodes, opts.contour_points // 8)
    prev = None
    prev_absum = None
    while True:
        t = np.linspace(0.0, T, nodes + 1)
        f = integrand(t)
        h = T / nodes
        ssum = 0.5 * f[0].real + float(np.sum(f[1:].real))
        absum = 0.5 * abs(f[0].real) + float(np.sum(np.abs(f[1:].real)))
        val = ssum * h / math.pi
        if prev is not None:
            diff = abs(val - prev)
            cond = (prev_absum + absum) / max(abs(val), 1e-300)
            rel = diff / max(abs(val), 1e-300) + _EPS * cond
            if diff <= 0.25 * opts.rel_tol * abs(val) or nodes >= opts.contour_points:
                if abs(val) == 0.0:
                    return 0.0, -np.inf, rel
                return (math.copysign(1.0, val),
                        scale + math.log(abs(val)),
                        rel)
        prev = val
        prev_absum = absum * h / math.pi
        absum *= h / math.pi
        nodes *= 2
        if nodes > 4 * opts.contour_points:
            raise NonConvergenceError(
                f"contour quadrature did not stabilize within {opts.contour_points} nodes")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def meijer_g_log(spec: MeijerGSpec, ln_z: float, opts: EvalOptions = DEFAULT_OPTIONS):
    """(sign, log|G|) at argument exp(ln_z), to relative tolerance opts.rel_tol.

    Residue series first; contour quadrature when the series is cancellation
    limited or its ladders are degenerate.
    """
    ln_z = float(ln_z)
    if not math.isfinite(ln_z):
        raise ValueError("log-argument must be finite")
    got = _series_attempt(spec, ln_z, opts)
    if got is not None:
        return got[0], got[1]
    asym = _asymptotic_log(spec, ln_z)
    if asym is not None:
        return 1.0, asym
    left = _left_expansion(spec, ln_z, opts)
    if left is not None:
        return left
    sign, logabs, rel = _mb_eval(spec, ln_z, opts)
    if rel > max(1000.0 * opts.rel_tol, 1e-6) and logabs > -300.0:
        raise NonConvergenceError(
            f"G evaluation reached rel err ~{rel:.2e} > tolerance {opts.rel_tol:.2e}")
    return sign, logabs


def _asymptotic_log(spec: MeijerGSpec, ln_z: float):
    """Leading saddle-point term of log G^{q,0}_{p,q}(z) for huge z.

    Only used in the far exponential tail (d z^{1/d} >= 400, value below
    ~e^-400 before power prefactors) where the ~1/z^{1/d} relative error of
    the single-term expansion is inconsequential.
    """
    if spec.n != 0 or spec.m != spec.q:
        return None
    d = spec.q - spec.p
    r = math.exp(min(ln_z / d, 500.0))
    if d * r < 400.0:
        return None
    theta = (math.fsum(spec.b) - math.fsum(spec.a) + 0.5 * (1.0 - d)) / d
    return (0.5 * (d - 1) * math.log(2.0 * math.pi) - 0.5 * math.log(d)
            + theta * ln_z - d * r)


def _left_expansion(spec: MeijerGSpec, ln_z: float, opts: EvalOptions):
    """Residue expansion over the left pole family, valid for huge z.

    For n >= 1 and p < q the large-argument behavior is the algebraic series
    over the poles of the Gamma(1 - a_l + s) factors plus a remainder that is
    exponentially small in z^{1/(q-p)}.  Returns (sign, log_abs) or None when
    the regime does not apply.
    """
    if spec.n == 0:
        return None
    d = spec.q - spec.p
    if d * math.exp(min(ln_z / d, 500.0)) < 60.0:
        return None
    m, n, a, b, p, q = spec.m, spec.n, spec.a, spec.b, spec.p, spec.q

    def one_term(l, k):
        """(sign, log|term|) of the residue at s = a_l - 1 - k, or None for a
        vanishing term; raises StopIteration on a numerator pole."""
        s0 = a[l] - 1.0 - k
        lg = -float(_lgamma_pos(np.array([k + 1.0]))[0]) + s0 * ln_z
        sg = 1.0 if k % 2 == 0 else -1.0
        for j in range(m):
            la, s_ = ln_abs_gamma_signed(b[j] - s0)
            if not np.isfinite(la):
                raise StopIteration
            lg += float(la)
            sg *= float(s_)
        for l2 in range(n):
            if l2 == l:
                continue
            la, s_ = ln_abs_gamma_signed(1.0 - a[l2] + s0)
            if not np.isfinite(la):
                raise StopIteration
            lg += float(la)
            sg *= float(s_)
        for arg in ([1.0 - b[j] + s0 for j in range(m, q)]
                    + [a[l2] - s0 for l2 in range(n, p)]):
            la, s_ = ln_abs_gamma_signed(arg)
            if not np.isfinite(la) or s_ == 0.0:
                return None
            lg -= float(la)
            sg *= float(s_)
        return sg, lg

    terms = []
    prev_mag = None
    empty_levels = 0
    try:
        for k in range(64):
            level = []
            for l in range(n):
                t = one_term(l, k)
                if t is not None:
                    level.append(t)
            if not level:
                empty_levels += 1
                if empty_levels >= 2:
                    break
                continue
            empty_levels = 0
            mag = max(t[1] for t in level)
            if prev_mag is not None and mag > prev_mag:
                return None  # not in the decaying asymptotic regime
            prev_mag = mag
            terms.extend(level)
            top = max(t[1] for t in terms)
            if mag < top + math.log(opts.rel_tol) - 8.0:
                break
    except StopIteration:
        return None
    if not terms:
        return None
    top = max(t[1] for t in terms)
    total = math.fsum(sg * math.exp(lg - top) for sg, lg in terms)
    if total == 0.0:
        return None
    return math.copysign(1.0, total), top + math.log(abs(total))


def meijer_g(spec: MeijerGSpec, z: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """G^{m,n}_{p,q}(z | a; b) for real z > 0."""
    if not (z > 0.0) or not math.isfinite(z):
        raise ValueError(f"argument must be positive and finite, got {z!r}")
    sign, logabs = meijer_g_log(spec, math.log(z), opts)
    if logabs == -np.inf:
        return 0.0
    return sign * math.exp(logabs)


def meijer_g_mellin_barnes(spec: MeijerGSpec, z: float,
                           opts: EvalOptions = DEFAULT_OPTIONS) -> MellinBarnesResult:
    """Independent contour-quadrature evaluation of G at real z > 0.

    Cross-check oracle for meijer_g; never preferred on the hot path.
    The error estimate comes from node-count doubling.
    """
    if not (z > 0.0) or not math.isfinite(z):
        raise ValueError(f"argument must be positive and finite, got {z!r}")
    sign, logabs, rel = _mb_eval(spec, math.log(z), opts)
    value = 0.0 if logabs == -np.inf else sign * math.exp(logabs)
    return MellinBarnesResult(value=value, err_est=abs(value) * rel)
