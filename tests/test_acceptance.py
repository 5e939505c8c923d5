"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The Monte Carlo legs use 1e7 samples, so the full module takes a
few minutes; everything is deterministic except for nothing (seeds are
pinned).
"""

import ast
import math

import pytest

from rfuowc import validation as V
from rfuowc.channels import egg_moment, get_preset
from rfuowc.mc import McConfig, mc_outage
from rfuowc.quadrature import QuadratureError
from rfuowc.specfun import CapabilityError
from rfuowc.system import OutageQuery, outage_closed_form, outage_quadrature

MC_SAMPLES = 10_000_000
SEED = 424242


def _report(num, title, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {title}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_three_way_agreement():
    results = V.check_three_way(n_samples=MC_SAMPLES, seed=SEED)
    _report(1, "three-way outage agreement (closed/quad rel 1e-6, MC 3 sigma)",
            all(r.ok for r in results), "; ".join(f"{r.name} {r.detail}" for r in results))
    assert results[-1].name.startswith("agreement on 72 grid points")


def test_criterion_1_an_error_of_a_method_fails_the_check(monkeypatch):
    # quadrature raises at the subset's salty/7.1 point (floored c = 77)
    def quadrature(cfg, q):
        if cfg.egg.c == 77.0:
            raise QuadratureError("quadrature produced 2.0, outside the clamp window")
        return outage_quadrature(cfg, q)

    monkeypatch.setattr("rfuowc.system.outage_quadrature", quadrature)
    results = V.check_three_way(n_samples=20_000, seed=5, subset=6)
    assert [r.line() for r in results if not r.ok] == [
        "FAIL  three-way: quadrature at ('salty/7.1', 'strong', 100.0, 10.0)  "
        "(QuadratureError: quadrature produced 2.0, outside the clamp window)",
        results[-1].line()]
    assert results[-1].name.startswith("agreement on 6 grid points")


def test_criterion_1_fast_subset_covers_the_grid(monkeypatch):
    # quadrature raises everywhere, so each subset point names itself in a FAIL row
    def quadrature(cfg, q):
        raise QuadratureError("probe")

    monkeypatch.setattr("rfuowc.system.outage_quadrature", quadrature)
    results = V.check_three_way(n_samples=1_000, seed=5, subset=6)
    labels = [ast.literal_eval(r.name.removeprefix("quadrature at ")) for r in results[:-1]]
    assert len(labels) == 6
    keys, pointings, mu1s, gths = (set(column) for column in zip(*labels))
    assert keys == set(V.PRESET_KEYS)
    assert pointings == {"weak", "strong"}
    assert mu1s == set(V.GRID_MU1)
    assert gths == set(V.GRID_GAMMA_TH)


def test_criterion_1_cap_exclusion_is_exercised():
    # the c = 216.8 preset must raise on the closed form yet pass quad-vs-MC
    cfg = V.grid_config("fresh/16.5", V.WEAK_POINTING, 100.0)
    with pytest.raises(CapabilityError):
        outage_closed_form(cfg, OutageQuery(10.0))


def test_criterion_2_moment_oracle():
    results = V.check_moments(n_samples=MC_SAMPLES, seed=SEED + 1)
    summary = results[-1]
    _report(2, "irradiance moment oracle (n=1,2, all presets, both pointing "
               "presets, 3 sigma)", all(r.ok for r in results), summary.detail)
    for key in V.PRESET_KEYS:
        assert egg_moment(0, get_preset(key).egg, V.WEAK_POINTING) == 1.0


def test_criterion_3_rf_identities():
    results = V.check_rf_identities()
    ok = all(r.ok for r in results)
    _report(3, "first-hop statistics identities (1e-12)", ok,
            "; ".join(r.detail for r in results))


def test_criterion_4_distribution_normalization():
    results = V.check_normalization()
    rf_norm = V.check_rf_identities()[-1]
    ok = all(r.ok for r in results) and rf_norm.ok
    _report(4, "pdf normalization and CDF limits (1e-6)", ok,
            results[-1].detail + "; " + rf_norm.detail)


def test_criterion_5_special_function_identities():
    results = V.check_specfun(n_random=100, seed=SEED + 2)
    ok = all(r.ok for r in results)
    _report(5, "G-function identities and series-vs-contour oracle", ok,
            "; ".join(r.detail for r in results if r.detail))


def test_criterion_6_qualitative_trends():
    results = V.check_trends(mc_samples=1_000_000, seed=SEED + 3)
    ok = all(r.ok for r in results)
    detail = "; ".join(f"({chr(ord('a') + i)}) {r.name}: "
                       f"{'ok' if r.ok else 'FAIL'} {r.detail}"
                       for i, r in enumerate(results))
    _report(6, "qualitative trends", ok, detail)


def test_criterion_7_flooring_gap_report():
    results = V.check_flooring()
    ok = all(r.ok for r in results)
    _report(7, "exponent-rounding gap report (finite for every preset)", ok,
            results[0].detail)


def test_supplementary_distributional_validation():
    # sampling distribution matches the analytic law (KS at the 1% level)
    results = V.check_distribution(n_samples=1_000_000)
    assert all(r.ok for r in results), results[-1].detail


def test_supplementary_mc_convention_cross_check():
    # one grid point re-run with the exact (unfloored) exponent against
    # exact-c quadrature, closing the convention-matching loop
    cfg = V.grid_config("salty/4.7", V.STRONG_POINTING, 100.0)
    q = OutageQuery(10.0)
    ref = outage_quadrature(cfg, q).value
    est = mc_outage(cfg, q, McConfig(n_samples=MC_SAMPLES, seed=SEED + 4))
    sigma = max(est.std_err, math.sqrt(ref * (1 - ref) / est.n))
    assert abs(est.mean - ref) <= 3.0 * sigma
