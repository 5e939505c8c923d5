"""Regenerate the outage reference values the benchmark checks against.

    python3 perfbench/reference.py [--jobs N]

Run from the repository root.  Every point any workload lists gets

    P_out = integral over x of F1(gamma_th (1 + C/x)) f2(x) dx,
    F1(t) = (1 - exp(-t/mu1))^N,

evaluated in mpmath at 20 digits from the incomplete-gamma form of the
optical density, which uses no rfuowc G-function:

    exponential branch  x f = xi^2 z^(xi^2) Gamma(1 - xi^2, z),     z = x/(lam A0 rho)
    GG branch           x f = xi^2/Gamma(a) z^(xi^2/c) Gamma(a - xi^2/c, z),
                                                                z = (x/(b A0 rho))^c

weighted w and 1 - w.  rho, C and mu1 come from the scenario's own moment
formulas, with c rounded down as in every workload.  Below x_l, where
1 - F1 < N e^-60, the integral is replaced by the optical CDF F2(x_l), whose
closed form follows from the density by parts:

    exponential branch  z^(xi^2) Gamma(1 - xi^2, z) + 1 - e^-z
    GG branch           (z^(xi^2/c) Gamma(a - xi^2/c, z) + gamma(a, z)) / Gamma(a)

The rest is Gauss-Legendre on ln x with knots at both branch scales, the
F1 knee and the steep GG edge (width 1/c).  Only the fitted preset
parameters are read from rfuowc.  Results go to perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import POINTINGS, Point, all_points  # noqa: E402

OUT = os.path.join(HERE, "reference.json")
DPS = 20
F1_CUT = 60  # below x_l the first-hop CDF is 1 to within N e^-60


def _egg_params(preset: str):
    from rfuowc.channels import get_preset  # fitted constants only
    egg = get_preset(preset).egg
    return egg.w, egg.lam, egg.a, egg.b, egg.c


def outage_reference(point: Point, egg_params) -> tuple[mp.mpf, mp.mpf]:
    """(P_out, quadrature error estimate) of one floored-c scenario."""
    mp.mp.dps = DPS
    w, lam, a, b, c = (mp.mpf(v) for v in egg_params)
    c = mp.floor(c)
    a0, xi = (mp.mpf(v) for v in POINTINGS[point.pointing])
    xi2 = xi * xi
    n = point.n_relays
    mu1 = mp.mpf(point.mu1)
    gth = mp.mpf(point.gamma_th)

    def moment(k):
        turb = (w * (lam * a0) ** k * mp.factorial(k)
                + (1 - w) * (b * a0) ** k * mp.gamma(a + k / c) / mp.gamma(a))
        return turb * xi2 / (k + xi2)

    # direct-SNR scenario with uowc_scale = mu1: C = 1 + mu1 H_N and
    # rho = mu1 E[I^2] / E[I]^2
    c_const = 1 + mu1 * mp.fsum(mp.mpf(1) / j for j in range(1, n + 1))
    rho = mu1 * moment(2) / moment(1) ** 2
    s1 = lam * a0 * rho
    s2 = b * a0 * rho
    beta = xi2 / c
    gamma_a = mp.gamma(a)

    def x_pdf(x):
        z1 = x / s1
        z2 = (x / s2) ** c
        return (w * xi2 * z1 ** xi2 * mp.gammainc(1 - xi2, z1)
                + (1 - w) * xi2 / gamma_a * z2 ** beta * mp.gammainc(a - beta, z2))

    def cdf(x):
        z1 = x / s1
        z2 = (x / s2) ** c
        return (w * (z1 ** xi2 * mp.gammainc(1 - xi2, z1) - mp.expm1(-z1))
                + (1 - w) / gamma_a * (z2 ** beta * mp.gammainc(a - beta, z2)
                                       + mp.gammainc(a, 0, z2)))

    def integrand(u):
        x = mp.exp(u)
        f1 = (-mp.expm1(-gth * (1 + c_const / x) / mu1)) ** n
        return f1 * x_pdf(x)

    if not F1_CUT * mu1 > gth:
        raise ValueError(f"{point.key}: threshold too large for the F1 cut")
    x_l = gth * c_const / (F1_CUT * mu1 - gth)
    u_l = mp.log(x_l)
    u1, u2 = mp.log(s1), mp.log(s2)
    # both branches are below e^-80 past these
    u_hi = max(u1 + mp.log(80), u2 + mp.log(80) / c)
    knee = mp.log(gth * c_const / mu1)
    knots = ([u1 + k for k in (-8, -4, -2, -1, 0, 1, 2, 3)]
             + [u2 + k / c for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4)]
             + [u2 + k for k in (-8, -4, -2, 2)]
             + [knee - 2, knee, knee + 2])
    pts = [u_l] + sorted(k for k in knots if u_l < k < u_hi) + [u_hi]
    body, err = mp.quad(integrand, pts, error=True, method="gauss-legendre")
    return cdf(x_l) + body, err


def _job(args):
    point, egg_params = args
    t0 = time.perf_counter()
    value, err = outage_reference(point, egg_params)
    return point.key, {
        "p_out": float(value),
        "p_out_digits": mp.nstr(value, DPS),
        "quad_err": float(err),
        "seconds": round(time.perf_counter() - t0, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args(argv)

    points = all_points()
    work = [(p, _egg_params(p.preset)) for p in points]
    print(f"{len(work)} points to compute", file=sys.stderr)
    table = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, args.jobs)) as pool:
        for key, row in pool.imap_unordered(_job, work):
            table[key] = row
            print(f"{key}: {row['p_out_digits']} ({row['seconds']} s)",
                  file=sys.stderr)
    doc = {
        "method": "mpmath mixing integral, incomplete-gamma optical density",
        "mpmath": mp.__version__,
        "dps": DPS,
        "values": {p.key: table[p.key] for p in points},
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
