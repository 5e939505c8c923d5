import numpy as np
import pytest

from rfuowc.quadrature import QuadratureError, adaptive_quad


@pytest.mark.parametrize("bad", (np.nan, np.inf), ids=("nan", "inf"))
def test_non_finite_estimate_raises(bad):
    # a non-finite total or error is a failure, never a result
    with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
        adaptive_quad(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0)
