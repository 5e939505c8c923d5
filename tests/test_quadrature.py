import math

import numpy as np
import pytest

from rfuowc import quadrature
from rfuowc.quadrature import QuadratureError, adaptive_quad


@pytest.mark.parametrize("bad", (np.nan, np.inf), ids=("nan", "inf"))
def test_non_finite_estimate_raises(bad):
    # a non-finite total or error is a failure, never a result
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
        adaptive_quad(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0)


@pytest.mark.parametrize("nodes,weights,degree,tol", (
    (slice(None), quadrature._WK_DIGITS, 22, 1e-26),  # Kronrod 15 points
    (slice(1, None, 2), quadrature._WG_DIGITS, 13, 1e-32),  # Gauss 7 points
), ids=("kronrod", "gauss"))
def test_rule_digits_integrate_polynomials_exactly(nodes, weights, degree, tol):
    # exactness to this degree determines both rules, nodes and weights
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in quadrature._XK_DIGITS[nodes]]
        w = [mpmath.mpf(v) for v in weights]
        for k in range(0, degree + 1, 2):
            # the nodes are symmetric, so odd powers integrate to 0 exactly
            got = w[-1] * (k == 0) + 2 * mpmath.fsum(
                wi * xi ** k for wi, xi in zip(w[:-1], x[:-1]))
            assert abs(got - mpmath.mpf(2) / (k + 1)) < tol, k


@pytest.mark.parametrize("f,exact", (
    (np.exp, math.e - 1.0),
    (np.cos, math.sin(1.0)),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 4.0),
), ids=("exp", "cos", "arctan"))
def test_error_estimate_bounds_the_error(f, exact):
    value, err = adaptive_quad(f, 0.0, 1.0)
    assert abs(value - exact) <= err


def _count_sweeps(monkeypatch):
    """Count _panels calls: one per refinement sweep, plus the first."""
    sweeps = []
    real = quadrature._panels
    monkeypatch.setattr(quadrature, "_panels",
                        lambda f, lo, hi: sweeps.append(len(lo)) or real(f, lo, hi))
    return sweeps


def test_unreachable_target_stops_at_the_panel_budget(monkeypatch):
    # every panel stays above a zero target, so each sweep bisects them all:
    # 1, 2, 4, .. 4096 panels in 13 sweeps
    sweeps = _count_sweeps(monkeypatch)
    with pytest.raises(QuadratureError, match="after 4096 panels"):
        adaptive_quad(np.exp, 0.0, 1.0, epsabs=0.0, epsrel=0.0)
    assert sweeps == [2 ** k for k in range(13)]


def test_each_sweep_splits_every_panel_above_its_share(monkeypatch):
    # a square-root kink at 0.3: the panels round it are split sweep after
    # sweep, the smooth ones are not.  Both counts follow from the panel
    # estimate, |K15 - G7|
    sweeps = _count_sweeps(monkeypatch)
    nodes = []

    def f(x):
        nodes.append(x.size)
        return np.sqrt(np.abs(x - 0.3))

    value, err = adaptive_quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    assert len(sweeps) == 27
    assert sum(nodes) == 1545
    assert abs(value - 2.0 / 3.0 * (0.3 ** 1.5 + 0.7 ** 1.5)) <= err


def test_the_last_sweep_may_pass_the_panel_budget():
    # 3000 seeded panels are below the budget, so one more sweep runs, and it
    # splits all of them
    with pytest.raises(QuadratureError, match="after 6000 panels"):
        adaptive_quad(np.exp, 0.0, 1.0, epsabs=0.0, epsrel=0.0,
                      points=np.linspace(0.0, 1.0, 3001))
