"""Tests for loss values, negative gradients, and population ray quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from oracles import loss_value, ray_derivative, ray_objective, softplus
from sgdstop.losses import LossKind, factor_array, factor_function

BOTH = [LossKind.LOGISTIC, LossKind.HINGE]


def test_loss_values_at_reference_margins():
    assert loss_value(LossKind.LOGISTIC, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert loss_value(LossKind.HINGE, 0.0) == 1.0
    assert loss_value(LossKind.HINGE, 1.0) == 0.0
    assert loss_value(LossKind.HINGE, 2.0) == 0.0
    assert loss_value(LossKind.HINGE, -3.0) == 4.0


def test_loss_values_extreme_margins_stay_finite():
    assert loss_value(LossKind.LOGISTIC, 1000.0) == pytest.approx(0.0, abs=1e-300)
    assert loss_value(LossKind.LOGISTIC, -1000.0) == pytest.approx(1000.0, rel=1e-12)
    assert math.isfinite(loss_value(LossKind.HINGE, -1e308))


def test_softplus_matches_naive_in_safe_range():
    for x in np.linspace(-30.0, 30.0, 121):
        assert softplus(float(x)) == pytest.approx(math.log(1.0 + math.exp(x)), rel=1e-13)


@given(st.sampled_from(BOTH), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_loss_convex_and_nonincreasing(kind, m1, m2, lam):
    mid = lam * m1 + (1.0 - lam) * m2
    lhs = loss_value(kind, mid)
    rhs = lam * loss_value(kind, m1) + (1.0 - lam) * loss_value(kind, m2)
    assert lhs <= rhs + 1e-9
    lo, hi = sorted((m1, m2))
    assert loss_value(kind, hi) <= loss_value(kind, lo) + 1e-12


def test_factor_function_range_and_hinge_kink():
    for m in (-10.0, -1.0, 0.0, 0.5, 3.0, 50.0):
        s = factor_function(LossKind.LOGISTIC)(m)
        assert 0.0 < s < 1.0
    assert factor_function(LossKind.LOGISTIC)(0.0) == 0.5
    assert factor_function(LossKind.LOGISTIC)(800.0) == pytest.approx(0.0, abs=1e-300)
    assert factor_function(LossKind.LOGISTIC)(-800.0) == 1.0
    # boundary margin 1 is inclusive for the hinge
    assert factor_function(LossKind.HINGE)(1.0) == 1.0
    assert factor_function(LossKind.HINGE)(1.0 + 1e-12) == 0.0
    assert factor_function(LossKind.HINGE)(0.0) == 1.0


def test_factor_array_is_factor_function_on_each_margin():
    margins = np.array([-800.0, -10.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, 3.0, 50.0, 800.0])
    for kind in BOTH:
        scalar = factor_function(kind)
        got = factor_array(kind, margins)
        assert got.dtype == np.float64 and got.shape == margins.shape
        np.testing.assert_allclose(got, [scalar(float(m)) for m in margins], rtol=1e-15, atol=0)
    with pytest.raises(TypeError, match="unknown loss kind"):
        factor_array("hinge", margins)


def test_factor_function_matches_finite_difference():
    rng = np.random.default_rng(7)
    for kind in BOTH:
        for _ in range(20):
            xi = rng.normal(size=4)
            theta = rng.normal(size=4)
            m = float(xi @ theta)
            if kind is LossKind.HINGE and abs(m - 1.0) < 1e-3:
                continue  # kink: one-sided derivative only
            h = 1e-6
            num = -(loss_value(kind, float(xi @ (theta + h * xi))) -
                    loss_value(kind, float(xi @ (theta - h * xi)))) / (2.0 * h)
            got = factor_function(kind)(m) * xi
            # gradient is along xi; compare the scalar coefficient
            want = num / float(xi @ xi)
            assert got == pytest.approx(want * xi, rel=2e-5, abs=2e-7)


def _quad_ray(kind, rho, mu_norm, sigma):
    """Independent oracle: adaptive quadrature of the margin integral."""
    mean, sd = mu_norm * mu_norm, sigma * mu_norm

    def integrand(z):
        pdf = math.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
        return loss_value(kind, rho * z) * pdf

    pts = [1.0 / rho] if (kind is LossKind.HINGE and rho != 0.0) else []
    val, _ = quad(integrand, mean - 12.0 * sd, mean + 12.0 * sd, points=pts, limit=200)
    return val


@pytest.mark.parametrize("kind", BOTH)
@pytest.mark.parametrize("rho", [0.1, 0.7, 2.0, 5.0])
def test_ray_objective_matches_adaptive_quadrature(kind, rho):
    # hinge uses closed-form partial moments; logistic uses the default
    # 128-node rule, good to ~1e-6 relative on the sharpest cases here
    rel = 1e-9 if kind is LossKind.HINGE else 1e-6
    for mu_norm, sigma in [(1.0, 0.5), (1.0, 1.0), (2.0, 0.3)]:
        got = ray_objective(kind, rho, mu_norm, sigma)
        want = _quad_ray(kind, rho, mu_norm, sigma)
        assert got == pytest.approx(want, rel=rel, abs=1e-12)


def test_ray_objective_finer_rule_converges():
    from oracles import gauss_hermite_rule

    want = _quad_ray(LossKind.LOGISTIC, 5.0, 1.0, 1.0)
    coarse = ray_objective(LossKind.LOGISTIC, 5.0, 1.0, 1.0)
    fine = ray_objective(LossKind.LOGISTIC, 5.0, 1.0, 1.0, rule=gauss_hermite_rule(320))
    assert abs(fine - want) < abs(coarse - want)
    assert fine == pytest.approx(want, rel=1e-9)
    # orders past the overflow point are rejected rather than returning nan
    with pytest.raises(ValueError):
        gauss_hermite_rule(400)


def test_ray_objective_negative_rho_hinge():
    got = ray_objective(LossKind.HINGE, -0.5, 1.0, 1.0)
    want = _quad_ray(LossKind.HINGE, -0.5, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-9)
    assert got > 1.0  # walking against the mean is worse than staying at zero


def test_ray_objective_hinge_at_zero_is_unit_loss():
    assert ray_objective(LossKind.HINGE, 0.0, 1.3, 0.7) == 1.0


def test_ray_objective_zero_sigma():
    # degenerate margin distribution: point mass at mu_norm^2
    for kind in BOTH:
        got = ray_objective(kind, 0.8, 1.5, 0.0)
        assert got == pytest.approx(loss_value(kind, 0.8 * 1.5 * 1.5), rel=1e-12)


@pytest.mark.parametrize("kind", BOTH)
def test_ray_derivative_matches_finite_difference(kind):
    for mu_norm, sigma, rho in [(1.0, 0.5, 0.6), (1.0, 1.0, 1.4), (2.0, 0.3, 0.4), (1.0, 2.0, 0.9)]:
        h = 1e-6 * rho
        num = (ray_objective(kind, rho + h, mu_norm, sigma) -
               ray_objective(kind, rho - h, mu_norm, sigma)) / (2.0 * h)
        assert ray_derivative(kind, rho, mu_norm, sigma) == pytest.approx(num, rel=1e-6, abs=1e-9)


def test_ray_derivative_hinge_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        ray_derivative(LossKind.HINGE, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ray_derivative(LossKind.HINGE, -1.0, 1.0, 1.0)


def test_ray_objective_convex_in_rho():
    grid = np.linspace(0.05, 6.0, 60)
    for kind in BOTH:
        vals = [ray_objective(kind, float(r), 1.0, 1.0) for r in grid]
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-10)


def test_model_validation():
    with pytest.raises(ValueError):
        ray_objective(LossKind.LOGISTIC, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ray_objective(LossKind.LOGISTIC, 1.0, 1.0, -0.5)
