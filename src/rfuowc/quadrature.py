"""Adaptive Gauss-Kronrod quadrature over a finite interval.

The integrand is called on whole node arrays, one call per refinement sweep,
which keeps its special-function evaluations batched.  A panel's error
estimate is |K15 - G7|, QUADPACK's 15-point Kronrod rule less its embedded
7-point Gauss rule (Piessens et al., 1983), and at least 1e-15 |K15|.  Each
sweep bisects every panel whose estimate is above a quarter of its share of
the target (the target over the panel count) until the estimates sum to
within it; none starts at 4096 panels, so a partition ends below 8192: the
vectorized adaptive strategy of Shampine (J. Comput. Appl. Math. 211, 2008).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "adaptive_quad"]


class QuadratureError(Exception):
    pass


# QUADPACK's qk15 constants to 33 digits, for the nodes x >= 0 in
# decreasing order: Kronrod nodes and weights, then the weights of the
# embedded 7-point Gauss rule on every other node.  Fewer than the 17 digits
# a double holds would leave each panel's rule ~1e-15 off, as large as the
# error floor in _panels.
_XK_DIGITS = (
    "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
    "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245", "0",
)
_WK_DIGITS = (
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714",
)
_WG_DIGITS = (
    "0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
    "0.381830050505118944950369775488975", "0.417959183673469387755102040816327",
)


def _mirror(digits, sign=1.0):
    """The values on [-1, 1] in increasing node order."""
    half = np.array([float(v) for v in digits])
    return np.concatenate([sign * half[:-1], half[::-1]])


_XK = _mirror(_XK_DIGITS, -1.0)
_WK = _mirror(_WK_DIGITS)
_WG = np.zeros(15)  # zero on the Kronrod-only nodes
_WG[1::2] = _mirror(_WG_DIGITS)
_WKG = _WK - _WG  # K15 - G7 in one product

# panel budget of one integral
_MAX_PANELS = 4096


def _panels(f, lo, hi):
    """Evaluate K15/G7 on a batch of panels; returns (integrals, errors)."""
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = f(nodes.reshape(-1)).reshape(nodes.shape)
    ik = half * (vals @ _WK)
    # not sharpened: an estimate that trusts K15 far beyond G7 falls below the
    # real error on a panel where the two rules agree by chance
    err = np.maximum(np.abs(half * (vals @ _WKG)), np.abs(ik) * 1e-15)
    return ik, err


def adaptive_quad(f, a: float, b: float, epsabs: float = 1e-12,
                  epsrel: float = 1e-9, points=None):
    """Integrate f over [a, b] with vectorized adaptive bisection.

    points seeds extra initial breakpoints (values outside (a, b) are
    dropped).  Returns (integral, error_estimate).
    """
    if not (b > a):
        raise ValueError("need b > a")
    knots = [a, b]
    if points is not None:
        knots.extend(p for p in points if a < p < b)
    knots = sorted(set(knots))
    lo = np.array(knots[:-1])
    hi = np.array(knots[1:])
    vals, errs = _panels(f, lo, hi)
    while True:
        total = math.fsum(vals.tolist())
        toterr = math.fsum(errs.tolist())
        if not (math.isfinite(total) and math.isfinite(toterr)):
            raise QuadratureError(
                f"non-finite quadrature estimate {total!r} (error {toterr!r})")
        target = max(epsabs, epsrel * abs(total))
        if toterr <= target:
            return total, toterr
        if lo.size >= _MAX_PANELS:
            raise QuadratureError(
                f"quadrature error {toterr:.3e} above target {target:.3e} "
                f"after {lo.size} panels")
        # toterr > target, so the worst panel is above target / lo.size: the
        # split is never empty
        split = errs > 0.25 * target / lo.size
        mid = 0.5 * (lo[split] + hi[split])
        l2 = np.concatenate([lo[split], mid])
        h2 = np.concatenate([mid, hi[split]])
        v2, e2 = _panels(f, l2, h2)
        lo, hi = np.concatenate([lo[~split], l2]), np.concatenate([hi[~split], h2])
        vals, errs = np.concatenate([vals[~split], v2]), np.concatenate([errs[~split], e2])
