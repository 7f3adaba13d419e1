"""Tests for the Monte-Carlo estimators behind the bound checks."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import drift_estimates, drift_samples, standard_normals
from sgdstop import data, verify
from sgdstop.data import FOLD_ELEMENTS
from sgdstop.losses import LossKind, factor_array
from sgdstop.numerics import RngState
from sgdstop.sgd import SgdConfig, StopRule
from sgdstop.theory import (
    GaussianFoldedModel,
    Regime,
    low_regime_expected_T_bound,
    regime_set,
)
from sgdstop.verify import (
    TrialStats,
    check_drift_inequality,
    estimate_angle_deviation,
    estimate_expected_T,
    estimate_hitting_time,
    make_drift_probes,
)


def _model(d=6, sigma=0.1, scale=1.0):
    mu = np.zeros(d)
    mu[0] = scale
    return GaussianFoldedModel(mu, sigma)


def test_expected_T_deterministic_and_positive():
    model = _model()
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1)
    a = estimate_expected_T(model, cfg, 40, RngState(3))
    b = estimate_expected_T(model, cfg, 40, RngState(3))
    assert a == b
    assert a.n_censored == 0
    assert a.mean > 0 and a.stderr > 0
    # a different seed gives a different (but nearby) estimate
    c = estimate_expected_T(model, cfg, 40, RngState(4))
    assert c.mean != a.mean
    assert abs(c.mean - a.mean) < 10.0 * (a.stderr + c.stderr)


def test_expected_T_respects_bound():
    model = _model(d=10)
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1)
    stats = estimate_expected_T(model, cfg, 100, RngState(5))
    assert stats.n_censored == 0
    assert stats.mean <= low_regime_expected_T_bound(LossKind.LOGISTIC, model, 0.1)


def test_expected_T_censoring_counted():
    model = _model(sigma=0.5)
    cfg = SgdConfig(LossKind.LOGISTIC, 0.001, max_iter=5)
    stats = estimate_expected_T(model, cfg, 30, RngState(6))
    assert stats.n_censored == 30  # alpha too small to fire within 5 steps
    assert math.isnan(stats.mean) and math.isnan(stats.stderr)


def test_expected_T_input_validation():
    with pytest.raises(ValueError):
        estimate_expected_T(_model(), SgdConfig(LossKind.LOGISTIC, 0.1), 0, RngState(1))


def test_extra_sample_rule_uses_independent_check_stream():
    model = _model()
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1, rule=StopRule.extra_sample())
    stats = estimate_expected_T(model, cfg, 50, RngState(7))
    assert stats.n_censored == 0
    assert stats.mean > 0


def test_angle_deviation_validation():
    model = _model(d=4)
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1)
    bad_norm = np.array([0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_angle_deviation(model, cfg, bad_norm, 5, RngState(1))
    not_ortho = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        estimate_angle_deviation(model, cfg, not_ortho, 5, RngState(1))
    with pytest.raises(ValueError):
        estimate_angle_deviation(model, cfg, np.zeros(3), 5, RngState(1))


def test_angle_deviation_stats_share_trials():
    model = _model(d=4, sigma=0.3)
    cfg = SgdConfig(LossKind.LOGISTIC, 0.05)
    v = np.array([0.0, 1.0, 0.0, 0.0])
    dev, times = estimate_angle_deviation(model, cfg, v, 60, RngState(8))
    assert dev.n_censored == times.n_censored == 0
    assert dev.mean >= 0.0
    assert times.mean > 0.0
    # same trials as the plain stopping-time estimator on the same streams
    alone = estimate_expected_T(model, cfg, 60, RngState(8))
    assert times == alone


def test_hitting_time_basic():
    model = _model(d=4)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    stats = estimate_hitting_time(np.zeros(4), rset, 1_000_000, 50, RngState(9))
    assert stats.n_censored == 0
    assert stats.mean >= 1.0
    # the drift argument caps the mean hit time by V(theta_0) / b
    v0 = (rset.M - 0.0) ** 2
    assert stats.mean <= v0 / rset.b + 4.0 * stats.stderr


@pytest.mark.parametrize("loss, sigma, alpha, max_iter", [
    (LossKind.LOGISTIC, 0.1, 0.1, 1_000_000),
    (LossKind.HINGE, 2.0, 0.05, 1_000_000),
    (LossKind.LOGISTIC, 0.1, 0.1, 27),  # some trials censored
])
def test_hitting_time_matches_per_step_reference(loss, sigma, alpha, max_iter):
    # the engine's target rule gives exactly the hit indices of stepping
    # sgd_step by hand and testing the set after every update
    from oracles import sgd_step
    from sgdstop.data import folded_gaussian_stream
    from sgdstop.theory import target_set_contains

    model = _model(d=5, sigma=sigma)
    rset = regime_set(loss, model, alpha)
    rng = RngState(21)
    times = []
    for i in range(12):
        sampler = folded_gaussian_stream(model.mu, model.sigma, rng.substream(i).substream(0))
        theta = np.zeros(5)
        for k in range(1, max_iter + 1):
            theta = sgd_step(theta, next(sampler), loss, alpha)
            if target_set_contains(rset, theta):
                times.append(k)
                break
    stats = estimate_hitting_time(np.zeros(5), rset, max_iter, 12, rng)
    assert stats.n_censored == 12 - len(times)
    if times:
        assert stats.mean == float(np.mean(np.asarray(times, dtype=float)))


def test_hitting_time_rejects_start_inside():
    model = _model(d=4)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    inside = np.zeros(4)
    inside[0] = 2.0  # mu . theta = 2 >= 1
    with pytest.raises(ValueError):
        estimate_hitting_time(inside, rset, 1_000_000, 5, RngState(1))


def test_hitting_time_censors_when_step_too_small():
    model = _model(d=4)
    rset = regime_set(LossKind.LOGISTIC, model, 1e-7)
    stats = estimate_hitting_time(np.zeros(4), rset, 10, 10, RngState(10))
    assert stats.n_censored == 10


def test_make_drift_probes_geometry():
    model = _model(d=8, scale=2.0)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    dots = [-5.0, 0.0, 0.9]
    probes = list(make_drift_probes(rset, dots, RngState(11)))
    assert len(probes) == 3
    for t, theta in zip(dots, probes):
        assert float(model.mu @ theta) == pytest.approx(t, abs=1e-10)
        perp = theta - (float(model.mu @ theta) / model.mu_norm**2) * model.mu
        assert float(np.linalg.norm(perp)) == pytest.approx(1.0, rel=1e-12)
    # determinism
    again = make_drift_probes(rset, dots, RngState(11))
    for a, b in zip(probes, again):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [7, 8, 101])
def test_make_drift_probes_read_the_normals_a_generator_draws_in_turn(d):
    # probe k's d normals are the pairs of uniforms 2mk + i and 2mk + m + i,
    # m = ceil(d / 2): call k of standard_normals on the stream's generator;
    # at d 101 the 24 probes span two of normal_rounds' groups of 20 rounds
    model = _model(d=d, scale=2.0)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    dots = [-5.0 + 0.25 * k for k in range(24)]
    gen, mu2 = RngState(11).generator(), model.mu_norm**2
    for t, theta in zip(dots, make_drift_probes(rset, dots, RngState(11))):
        g = standard_normals(gen, d)
        g -= (float(g @ model.mu) / mu2) * model.mu
        expected = (t / mu2) * model.mu + (1.0 / float(np.linalg.norm(g))) * g
        assert theta.tobytes() == expected.tobytes()


def test_make_drift_probes_rejects_inside_target():
    model = _model(d=4)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    with pytest.raises(ValueError):
        list(make_drift_probes(rset, [2.0], RngState(1)))  # mu . theta = 2 is inside


def test_drift_inequality_passes_in_low_regime():
    model = _model(d=10)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    probes = make_drift_probes(rset, [-5.0, 0.0, 0.9], RngState(12).substream(0))
    checks = check_drift_inequality(rset, probes, 4000, RngState(12).substream(1))
    assert len(checks) == 3
    for c in checks:
        assert c.passed
        assert c.decrement == pytest.approx(0.1, rel=1e-15)
        assert c.estimate < -c.decrement
        assert c.stderr > 0


def test_drift_inequality_zero_step_control_fails():
    # alpha = 0 makes the drift exactly 0, which must not pass the strict test
    model = _model(d=10)
    rset = regime_set(LossKind.LOGISTIC, model, 0.0)
    probes = make_drift_probes(rset, [0.0, 0.9], RngState(13).substream(0))
    checks = check_drift_inequality(rset, probes, 2000, RngState(13).substream(1))
    for c in checks:
        assert c.estimate == 0.0 and c.stderr == 0.0
        assert not c.passed


def test_drift_inequality_guards():
    high = GaussianFoldedModel(np.array([1.0, 0.0]), 2.0)
    rset_high = regime_set(LossKind.LOGISTIC, high, 0.01)
    assert rset_high.regime is Regime.HIGH
    with pytest.raises(ValueError):
        check_drift_inequality(rset_high, [], 100, RngState(1))

    model = _model(d=4)
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    inside = np.zeros(4)
    inside[0] = 3.0
    with pytest.raises(ValueError):
        check_drift_inequality(rset, [inside], 100, RngState(1))
    with pytest.raises(ValueError):
        check_drift_inequality(rset, [], 1, RngState(1))


def test_drift_inequality_hinge_matches_per_sample_recompute():
    # the vectorized row V must agree with literally stepping each sample
    from oracles import sgd_step
    from sgdstop.theory import drift_value
    from sgdstop.data import folded_gaussian_stream

    model = _model(d=5)
    rset = regime_set(LossKind.HINGE, model, 0.1)
    probes = list(make_drift_probes(rset, [0.5], RngState(14).substream(0)))
    n = 500
    checks = check_drift_inequality(rset, probes, n, RngState(14).substream(1))
    theta = probes[0]
    xis = drift_samples(rset, n, RngState(14).substream(1).substream(0))
    v0 = drift_value(rset, theta)
    dvs = [
        drift_value(rset, sgd_step(theta, xi, LossKind.HINGE, 0.1)) - v0
        for xi in xis
    ]
    assert checks[0].estimate == pytest.approx(float(np.mean(dvs)), rel=1e-12)


@pytest.mark.parametrize("kind, d, sigma, n_mc, fold", [
    (LossKind.HINGE, 7, 1.2, 19_999, FOLD_ELEMENTS),  # pieces of 9,360, 9,360 and 1,279 rows
    (LossKind.HINGE, 10, 1.2, 20_000, FOLD_ELEMENTS),
    (LossKind.LOGISTIC, 3, 0.1, 2, FOLD_ELEMENTS),
    (LossKind.LOGISTIC, 5, 0.1, 3_003, FOLD_ELEMENTS),
    # d > FOLD_ELEMENTS / 4: pieces of 4 rows, and a lone last row joins the piece before it
    (LossKind.LOGISTIC, FOLD_ELEMENTS // 4 + 3, 0.1, 9, FOLD_ELEMENTS),
    (LossKind.LOGISTIC, 5, 0.1, 17, 40),  # pieces of 8 and 9 rows
    (LossKind.HINGE, 3, 1.2, 27, 40),  # pieces of 12, 12 and 3 rows
    (LossKind.HINGE, 5, 1.2, 1_001, 11),  # pieces of 4 rows at d > fold / 4
])
def test_drift_inequality_in_pieces_gives_the_whole_array_bytes(monkeypatch, kind, d, sigma, n_mc, fold):
    # the margins too: a last-bit change in one rarely reaches the estimate,
    # as it is lost in M - mu . theta_1
    monkeypatch.setattr(data, "FOLD_ELEMENTS", fold)
    margins = []

    def recorded(kind, m):
        margins.append(m.copy())
        return factor_array(kind, m)

    monkeypatch.setattr(verify, "factor_array", recorded)
    rset = regime_set(kind, _model(d=d, sigma=sigma), 0.1)
    probes = list(make_drift_probes(rset, [-5.0, 0.0, 0.9], RngState(d).substream(0)))
    rng = RngState(d).substream(1)
    checks = check_drift_inequality(rset, probes, n_mc, rng)
    for j, theta in enumerate(probes):
        assert margins[j].tobytes() == (drift_samples(rset, n_mc, rng.substream(j)) @ theta).tobytes()
    got = [(c.estimate, c.stderr) for c in checks]
    assert np.array(got).tobytes() == np.array(drift_estimates(rset, probes, n_mc, rng)).tobytes()


def test_drift_inequality_memory_does_not_grow_with_n_mc_times_d():
    # 3 probes of 20,000 samples at d = 10: the 200,000 normals of a probe
    # drawn at once peaked at 5.4 MB; pieces of at most FOLD_ELEMENTS
    # doubles, their uniforms and the n_mc-long arrays peak at 1.5 MB
    rset = regime_set(LossKind.HINGE, _model(d=10, sigma=1.2), 0.1)
    probes = make_drift_probes(rset, [-5.0, 0.0, 0.9], RngState(16).substream(0))
    tracemalloc.start()
    try:
        check_drift_inequality(rset, probes, 20_000, RngState(16).substream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("estimator", ["expected_T", "angle_deviation", "hitting_time"])
def test_estimator_memory_does_not_grow_with_trials(estimator):
    # at d = 4,000 a stopped run's theta is 32 KB; keeping every run's theta
    # put the peak at 40 trials 1.1 MB above the peak at 5
    d = 4_000
    model = _model(d=d)
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=10_000, rule=StopRule.extra_sample())
    v = np.zeros(d)
    v[1] = 1.0
    rset = regime_set(LossKind.LOGISTIC, model, 0.1)
    estimate = {
        "expected_T": lambda n: estimate_expected_T(model, cfg, n, RngState(3)),
        "angle_deviation": lambda n: estimate_angle_deviation(model, cfg, v, n, RngState(3)),
        "hitting_time": lambda n: estimate_hitting_time(np.zeros(d), rset, 10_000, n, RngState(3)),
    }[estimator]
    peaks = []
    for n in (5, 40):
        tracemalloc.start()
        try:
            estimate(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < d * 8, peaks


def test_trial_stats_single_trial_has_nan_stderr():
    model = _model()
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1)
    stats = estimate_expected_T(model, cfg, 1, RngState(15))
    assert isinstance(stats, TrialStats)
    assert math.isnan(stats.stderr)
