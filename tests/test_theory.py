"""Tests for the exact Gaussian-model quantities and regime constants."""

import math
import warnings

import numpy as np
import pytest

from oracles import gauss_hermite_rule, high_regime_max_step, ray_derivative, ray_objective
from sgdstop.losses import LossKind
from sgdstop import theory
from sgdstop.numerics import RngState, std_normal_cdf
from sgdstop.theory import (
    LOW_NOISE_RATIO,
    GaussianFoldedModel,
    MARGIN_THRESHOLD,
    Regime,
    angle_bound,
    classifier_accuracy,
    drift_value,
    low_regime_expected_T_bound,
    minimizer_rho_star,
    optimal_accuracy,
    regime_of,
    regime_set,
    target_set_contains,
    termination_probability,
)

BOTH = [LossKind.LOGISTIC, LossKind.HINGE]

# Reference values from high-precision root finding, cross-checked against a
# direct argmin of the population ray objective.
HINGE_RHO_STAR_1_1 = 1.4339607461568380
# Frozen outputs of the closed-form stopping-time bound at
# mu_norm = 1, sigma = 0.1, alpha = 0.1.
T_BOUND_LOGISTIC = 6384502.0
T_BOUND_HINGE = 6709454.8


def _e1(d, scale=1.0):
    mu = np.zeros(d)
    mu[0] = scale
    return mu


def test_model_validation():
    with pytest.raises(ValueError):
        GaussianFoldedModel(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        GaussianFoldedModel(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(ValueError):
        GaussianFoldedModel(np.array([1.0]), -0.1)
    with pytest.raises(ValueError):
        GaussianFoldedModel(np.array([[1.0]]), 1.0)
    m = GaussianFoldedModel(_e1(4, 2.0), 0.5)
    assert m.d == 4 and m.mu_norm == 2.0


def test_logistic_minimizer_closed_form():
    for mu_norm in (0.5, 1.0, 1.7):
        for sigma in (0.2, 1.0, 3.0):
            assert minimizer_rho_star(LossKind.LOGISTIC, mu_norm, sigma) == pytest.approx(
                2.0 / sigma**2, rel=1e-15
            )
    with pytest.raises(ValueError):
        minimizer_rho_star(LossKind.LOGISTIC, 1.0, 0.0)


def test_hinge_minimizer_frozen_fixture():
    assert minimizer_rho_star(LossKind.HINGE, 1.0, 1.0) == pytest.approx(
        HINGE_RHO_STAR_1_1, abs=1e-12
    )


def _scipy_log_ndtr():
    log_ndtr = pytest.importorskip("scipy.special").log_ndtr
    return lambda w: float(log_ndtr(w))


def test_log_ndtr_matches_scipy():
    ref = _scipy_log_ndtr()
    # both branch points (-30, -1) lie on the grid
    for w in np.linspace(-60.0, 5.0, 13001):
        assert theory._log_ndtr(float(w)) == pytest.approx(ref(float(w)), rel=1e-14, abs=0.0)
    # far right, Phi^c(w) ~ exp(-w^2/2) turns the rounding of w/sqrt(2) into
    # a relative error up to ~w^2 eps in both implementations (each is ~1e-13
    # from a 60-digit reference at w = 30), and past w ~ 37.5 the value is
    # subnormal
    for w in np.linspace(5.0, 40.0, 3501):
        got, want = theory._log_ndtr(float(w)), ref(float(w))
        assert abs(got - want) <= 1e-13 * abs(want) + 1e-300, w
    assert theory._log_ndtr(-math.inf) == -math.inf
    assert theory._log_ndtr(math.inf) == 0.0


def test_hinge_minimizer_is_bit_equal_to_scipy_bisection(monkeypatch):
    """Swapping scipy's log_ndtr back in leaves rho_star's bytes alone where
    rho_star reaches an output: the hinge high-noise regime."""
    ref = _scipy_log_ndtr()
    grid = [(float(m), float(s)) for m in np.linspace(0.05, 20.0, 60)
            for s in np.linspace(0.05, 20.0, 60) if m / s <= 5.0]
    grid += [(1.0, 1.0 / float(r)) for r in np.geomspace(1e-6, 5.0, 2000)]
    ours = [minimizer_rho_star(LossKind.HINGE, m, s) for m, s in grid]
    monkeypatch.setattr(theory, "_log_ndtr", ref)
    high = 0
    for (m, s), rho in zip(grid, ours):
        want = minimizer_rho_star(LossKind.HINGE, m, s)
        if s > LOW_NOISE_RATIO[LossKind.HINGE] * m:
            high += 1
            assert rho == want, (m, s)
        else:
            # low regime: a last-ulp difference of log Phi below w = -1 can
            # flip one late bisection step (a few of these ~5,200 points)
            assert rho == pytest.approx(want, rel=1e-11), (m, s)
    assert high > 3000


def test_hinge_bracket_check_fails_where_the_scipy_bisection_does(monkeypatch):
    ref = _scipy_log_ndtr()
    # resolvable ratios, and ratios or scales whose terms overflow; between
    # |mu|/sigma ~ 1e4 and ~1e154 both bracket checks read rounding noise
    cases = [(1.0, 1.0 / float(r)) for r in np.geomspace(1e-9, 1e3, 200)]
    cases += [(1.0, 1e-160), (1.0, 1e-300), (1e-300, 1e300), (1.0, math.inf)]

    def fails(m, s):
        try:
            minimizer_rho_star(LossKind.HINGE, m, s)
        except ArithmeticError:
            return True
        return False

    ours = [fails(m, s) for m, s in cases]
    monkeypatch.setattr(theory, "_log_ndtr", ref)
    assert ours == [fails(m, s) for m, s in cases]
    assert ours.count(True) == 4


def test_hinge_bisection_ends_where_doubles_are_coarser_than_its_tolerance(monkeypatch):
    # near -|mu|/sigma = -1e4 adjacent doubles lie more than 1e-12 apart
    calls = 0
    log_ndtr = theory._log_ndtr

    def counted(w):
        nonlocal calls
        calls += 1
        assert calls < 10_000, "the bisection does not end"
        return log_ndtr(w)

    monkeypatch.setattr(theory, "_log_ndtr", counted)
    for ratio in (1e4, 3e4, 1e5, 1e6, 1e8):
        calls = 0
        try:
            assert math.isfinite(minimizer_rho_star(LossKind.HINGE, 1.0, 1.0 / ratio))
        except ArithmeticError:
            pass


@pytest.mark.parametrize("kind", BOTH)
def test_minimizer_zeroes_ray_derivative(kind):
    for mu_norm, sigma in [(1.0, 0.25), (1.0, 0.5), (1.0, 1.0), (1.0, 2.0), (1.5, 0.7)]:
        rho = minimizer_rho_star(kind, mu_norm, sigma)
        assert rho > 0.0
        assert abs(ray_derivative(kind, rho, mu_norm, sigma)) <= 1e-8 * mu_norm**2


@pytest.mark.parametrize("kind", BOTH)
def test_minimizer_is_grid_argmin(kind):
    # near rho* the objective varies by ~1e-12 per cell at the flattest
    # setting, so the grid needs a finer quadrature rule than the default
    rule = gauss_hermite_rule(256)
    for ratio in (0.25, 0.5, 1.0, 2.0):
        mu_norm, sigma = 1.0, ratio
        rho = minimizer_rho_star(kind, mu_norm, sigma)
        step = 1e-4 * rho
        grid = rho + step * np.arange(-50, 51)
        vals = [ray_objective(kind, float(r), mu_norm, sigma, rule=rule) for r in grid]
        # argmin of the sampled objective must be within one cell of rho
        assert abs(grid[int(np.argmin(vals))] - rho) <= step + 1e-15


def test_classifier_accuracy_closed_form():
    model = GaussianFoldedModel(_e1(5), 0.5)
    for lam in (0.1, 1.0, 7.0):
        assert classifier_accuracy(lam * model.mu, model) == pytest.approx(
            std_normal_cdf(1.0 / 0.5), rel=1e-15
        )
    # orthogonal directions are coin flips
    v = np.zeros(5)
    v[2] = 3.0
    assert classifier_accuracy(v, model) == 0.5
    # pointing against the mean is as bad as pointing along it is good
    assert classifier_accuracy(-model.mu, model) == pytest.approx(
        1.0 - optimal_accuracy(model), rel=1e-12
    )


def test_classifier_accuracy_scale_invariant():
    model = GaussianFoldedModel(np.array([0.6, -0.8, 0.0]), 1.3)
    rng = RngState(41).generator()
    for _ in range(50):
        theta = rng.normal(size=3)
        a = classifier_accuracy(theta, model)
        assert classifier_accuracy(2.5 * theta, model) == pytest.approx(a, rel=1e-12)
        assert 0.0 <= a <= 1.0


def test_classifier_accuracy_when_the_norm_overflows():
    # |theta| past about 1.3e154 overflows the sum of squares; the accuracy
    # is scale-free, so it must read as for the unscaled direction
    model = GaussianFoldedModel(_e1(3), 0.5)
    direction = np.array([1.0, 0.3, -0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classifier_accuracy(1e300 * direction, model)
    assert got == pytest.approx(classifier_accuracy(direction, model), rel=1e-15)
    assert got == pytest.approx(0.9700, abs=5e-5)
    assert classifier_accuracy(-1e300 * direction, model) == pytest.approx(1.0 - got, rel=1e-12)


def test_classifier_accuracy_when_the_norm_or_the_spread_underflows():
    # a subnormal theta is still a direction, and sigma |theta| below the
    # smallest double leaves only the sign of the mean margin
    model = GaussianFoldedModel(_e1(3), 0.5)
    direction = np.array([1.0, 0.3, -0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1e-310 keeps about 13 digits of the direction
        assert classifier_accuracy(1e-310 * direction, model) == pytest.approx(
            classifier_accuracy(direction, model), rel=1e-12
        )
        tiny = GaussianFoldedModel(_e1(3), 5e-324)
        assert classifier_accuracy(0.1 * direction, tiny) == 1.0
        assert classifier_accuracy(-0.1 * direction, tiny) == 0.0
        assert classifier_accuracy(np.array([0.0, 0.1, 0.0]), tiny) == 0.5


def test_classifier_accuracy_never_beats_optimal():
    model = GaussianFoldedModel(np.array([1.0, 0.5, -0.25, 2.0]), 0.8)
    best = optimal_accuracy(model)
    rng = RngState(42).generator()
    for _ in range(1000):
        theta = rng.normal(size=4)
        assert classifier_accuracy(theta, model) <= best + 1e-12
    assert best == pytest.approx(std_normal_cdf(model.mu_norm / model.sigma), rel=1e-15)


def test_classifier_accuracy_matches_monte_carlo():
    model = GaussianFoldedModel(np.array([0.8, -0.3]), 0.9)
    theta = np.array([1.0, 0.4])
    n = 200_000
    g = RngState(43).generator()
    xis = model.mu + model.sigma * g.standard_normal((n, 2))
    emp = float(np.mean(xis @ theta > 0.0))
    want = classifier_accuracy(theta, model)
    assert abs(emp - want) < 4.0 * math.sqrt(want * (1.0 - want) / n)


def test_classifier_accuracy_rejects_zero_theta():
    model = GaussianFoldedModel(_e1(3), 1.0)
    with pytest.raises(ValueError):
        classifier_accuracy(np.zeros(3), model)


def test_termination_probability_closed_form():
    model = GaussianFoldedModel(_e1(2), 0.7)
    # zero classifier can never fire the margin test
    assert termination_probability(np.zeros(2), model) == 0.0
    # at mean margin exactly at the threshold the firing chance is one half
    theta = _e1(2, 1.0 / model.mu_norm**2)
    assert float(model.mu @ theta) == pytest.approx(MARGIN_THRESHOLD)
    assert termination_probability(theta, model) == pytest.approx(0.5, rel=1e-12)


def test_termination_probability_matches_monte_carlo():
    model = GaussianFoldedModel(np.array([1.2, 0.1]), 0.6)
    theta = np.array([1.5, -0.7])
    n = 200_000
    g = RngState(44).generator()
    xis = model.mu + model.sigma * g.standard_normal((n, 2))
    emp = float(np.mean(xis @ theta >= MARGIN_THRESHOLD))
    want = termination_probability(theta, model)
    assert abs(emp - want) < 4.0 * math.sqrt(want * (1.0 - want) / n)


def test_termination_probability_at_least_half_on_target():
    # classifiers whose mean margin clears the threshold fire with p >= 1/2
    rng = RngState(45).generator()
    model = GaussianFoldedModel(np.array([1.0, 0.4, -0.2]), 1.1)
    found = 0
    while found < 1000:
        theta = rng.normal(size=3) * rng.choice([0.5, 2.0, 10.0])
        if float(model.mu @ theta) < MARGIN_THRESHOLD:
            continue
        found += 1
        assert termination_probability(theta, model) >= 0.5


@pytest.mark.parametrize(
    "kind,ratio", [(LossKind.LOGISTIC, 0.33), (LossKind.HINGE, 1.25)]
)
def test_regime_boundary_inclusive(kind, ratio):
    mu = _e1(2, 2.0)
    assert regime_of(kind, GaussianFoldedModel(mu, ratio * 2.0)) is Regime.LOW
    assert regime_of(kind, GaussianFoldedModel(mu, ratio * 2.0 + 1e-9)) is Regime.HIGH
    assert regime_of(kind, GaussianFoldedModel(mu, 0.0)) is Regime.LOW


def test_regime_set_values():
    model = GaussianFoldedModel(_e1(3), 0.1)
    p_log = regime_set(LossKind.LOGISTIC, model, 0.1)
    assert (p_log.kind, p_log.alpha, p_log.model) == (LossKind.LOGISTIC, 0.1, model)
    assert p_log.b == pytest.approx(0.1, rel=1e-15)
    assert p_log.M == pytest.approx(501.0 + 640.0 * 0.1, rel=1e-15)
    assert LOW_NOISE_RATIO[p_log.kind] == 0.33
    # the low regime solves for no ray minimizer: its set reads only M and b
    assert (p_log.regime, p_log.rho_star, p_log.c_prime) == (Regime.LOW, None, None)
    p_h = regime_set(LossKind.HINGE, model, 0.1)
    assert p_h.M == pytest.approx(501.0 + 782.0 * 0.1, rel=1e-15)
    assert LOW_NOISE_RATIO[p_h.kind] == 1.25
    assert (p_h.regime, p_h.rho_star, p_h.c_prime) == (Regime.LOW, None, None)
    noisy = GaussianFoldedModel(_e1(3), 2.0)
    h_log, h_h = regime_set(LossKind.LOGISTIC, noisy, 0.1), regime_set(LossKind.HINGE, noisy, 0.1)
    assert (h_log.regime, h_log.rho_star, h_log.c_prime) == (Regime.HIGH, 0.5, 436.0)
    assert h_h.rho_star == minimizer_rho_star(LossKind.HINGE, 1.0, 2.0)
    assert h_h.c_prime == pytest.approx(8.0 + 10.0 * h_h.rho_star * 4.0, rel=1e-12)


def test_regime_set_alpha_edge_cases():
    model = GaussianFoldedModel(_e1(2), 0.2)
    assert regime_set(LossKind.LOGISTIC, model, 0.0).b == 0.0
    with pytest.raises(ValueError):
        regime_set(LossKind.LOGISTIC, model, -0.1)
    # the low-regime drift witness (M - mu . theta)^2 must be a finite double
    with pytest.raises(OverflowError, match="M\\^2"):
        regime_set(LossKind.LOGISTIC, model, 1e300)
    # the high regime has no M^2 in its witness
    assert regime_set(LossKind.LOGISTIC, GaussianFoldedModel(_e1(2), 2.0), 1e300).b == 1e300


def test_low_target_set_margin_threshold():
    model = GaussianFoldedModel(_e1(4, 2.0), 0.1)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    assert rset.regime is Regime.LOW
    inside = _e1(4, 0.5)  # mu . theta = 1 exactly: boundary is included
    assert target_set_contains(rset, inside)
    assert not target_set_contains(rset, _e1(4, 0.5 - 1e-12))
    assert not target_set_contains(rset, np.zeros(4))
    with pytest.raises(ValueError):
        target_set_contains(rset, np.zeros(3))


def test_high_target_set_geometry():
    model = GaussianFoldedModel(_e1(3), 2.0)
    rset = regime_set(LossKind.LOGISTIC, model, 0.01)
    assert rset.regime is Regime.HIGH
    rho_star = rset.rho_star
    perp = np.zeros(3)
    perp[1] = 1.0
    assert target_set_contains(rset, rho_star * model.mu)
    # radial band is strict: half rho_star off the center is outside
    assert not target_set_contains(rset, 0.5 * rho_star * model.mu)
    assert not target_set_contains(rset, 1.5 * rho_star * model.mu)
    assert target_set_contains(rset, (1.49 * rho_star) * model.mu)
    # orthogonal cap is inclusive at sigma |perp| = c_prime
    cap = rset.c_prime / model.sigma
    assert target_set_contains(rset, rho_star * model.mu + cap * perp)
    assert not target_set_contains(rset, rho_star * model.mu + (cap * 1.0001) * perp)


@pytest.mark.parametrize("kind", BOTH)
def test_high_target_set_fires_with_the_papers_delta(kind):
    # the paper's high-noise firing bound, which only the module docstring
    # keeps: delta = Phi^c((2/rho_star - |mu|^2)/(sigma |mu|)) / 2
    model = GaussianFoldedModel(_e1(3), 2.0)
    rset = regime_set(kind, model, 0.05)
    assert rset.regime is Regime.HIGH
    rho_star, cap = rset.rho_star, rset.c_prime / model.sigma
    delta = (1.0 - std_normal_cdf((2.0 / rho_star - 1.0) / model.sigma)) / 2.0
    assert 0.0 < delta <= 0.5
    for rho in (0.51 * rho_star, rho_star, 1.49 * rho_star):
        for perp in (0.0, 0.5 * cap, cap):
            theta = np.array([rho, perp, 0.0])
            assert target_set_contains(rset, theta)
            assert termination_probability(theta, model) >= delta


def test_drift_value_shapes():
    model = GaussianFoldedModel(_e1(2), 0.1)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    theta = _e1(2, 0.3)
    want = (rset.M - 0.3) ** 2
    assert drift_value(rset, theta) == pytest.approx(want, rel=1e-12)

    model_h = GaussianFoldedModel(_e1(2), 2.0)
    rset_h = regime_set(LossKind.LOGISTIC, model_h, 0.05)
    rho_star = rset_h.rho_star
    assert drift_value(rset_h, rho_star * model_h.mu) == pytest.approx(0.0, abs=1e-18)
    off = rho_star * model_h.mu + np.array([0.0, 2.0])
    assert drift_value(rset_h, off) == pytest.approx(4.0 / (2.0 * 0.05), rel=1e-12)


def test_low_regime_expected_T_bound_frozen():
    model = GaussianFoldedModel(_e1(10), 0.1)
    assert low_regime_expected_T_bound(LossKind.LOGISTIC, model, 0.1) == pytest.approx(
        T_BOUND_LOGISTIC, rel=1e-6
    )
    assert low_regime_expected_T_bound(LossKind.HINGE, model, 0.1) == pytest.approx(
        T_BOUND_HINGE, rel=1e-6
    )


def test_low_regime_expected_T_bound_guards():
    high = GaussianFoldedModel(_e1(2), 2.0)
    with pytest.raises(ValueError):
        low_regime_expected_T_bound(LossKind.LOGISTIC, high, 0.1)
    low = GaussianFoldedModel(_e1(2), 0.1)
    with pytest.raises(ValueError):
        low_regime_expected_T_bound(LossKind.LOGISTIC, low, 0.0)
    with pytest.raises(ValueError):
        low_regime_expected_T_bound(LossKind.HINGE, GaussianFoldedModel(_e1(2), 0.0), 0.1)


def test_high_regime_max_step_fixture():
    # mu_norm 1, sigma 2, d 10: mu2 / (sigma^2 (mu2 + d sigma^2)) = 1/164
    assert high_regime_max_step(1.0, 2.0, 10) == pytest.approx(1.0 / 164.0, rel=1e-15)
    assert high_regime_max_step(1.0, 2.0, 10, scale=0.5) == pytest.approx(0.5 / 164.0, rel=1e-15)
    with pytest.raises(ValueError):
        high_regime_max_step(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        high_regime_max_step(1.0, 2.0, 10, scale=0.0)


def test_angle_bound_constant():
    assert angle_bound(1.0, 1.0, 1.0) == pytest.approx(0.7978845608028654, abs=1e-15)
    assert angle_bound(0.3, 0.05, 40.0) == pytest.approx(
        0.3 * 0.05 * math.sqrt(2.0 / math.pi) * 40.0, rel=1e-15
    )
    with pytest.raises(ValueError):
        angle_bound(-1.0, 0.1, 5.0)
