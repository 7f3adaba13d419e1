"""Tests for the SGD engine and the three stopping rules."""

import itertools
import math

import numpy as np
import pytest

from sgdstop.data import folded_gaussian_stream
from sgdstop.losses import LossKind
from sgdstop.numerics import RngState
from sgdstop.sgd import (
    RunResult,
    SgdConfig,
    StopKind,
    StopReason,
    StopRule,
    continue_run,
    run,
    run_extra_sample,
    run_svs,
    run_zero_overhead,
    sgd_step,
)

E1 = np.array([1.0])

# Noise-free logistic run from zero with alpha = 1, mu = e1: the margin
# sequence is m_{k+1} = m_k + sigmoid(-m_k), crossing the threshold after
# exactly three updates.
NOISEFREE_MARGINS = [0.5, 0.8775406687981454, 1.171228340649733]


def _const_stream(vec, n=None):
    it = itertools.repeat(np.asarray(vec, dtype=float))
    return it if n is None else itertools.islice(it, n)


def test_sgd_step_basics():
    theta = np.array([0.0, 0.0])
    xi = np.array([2.0, 0.0])
    out = sgd_step(theta, xi, LossKind.HINGE, 0.25)
    assert np.array_equal(out, np.array([0.5, 0.0]))
    assert np.array_equal(theta, np.zeros(2))  # input untouched
    with pytest.raises(ValueError):
        sgd_step(theta, np.zeros(3), LossKind.HINGE, 0.1)


def test_noise_free_zero_overhead_fixture():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    res = run_zero_overhead(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.FIRED
    assert not res.censored
    assert res.iterations == 3
    assert res.samples_consumed == 3  # firing draw not charged
    assert float(res.theta[0]) == pytest.approx(NOISEFREE_MARGINS[-1], rel=1e-15)


def test_noise_free_margin_trajectory():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, max_iter=3, rule=StopRule.none())
    theta = np.zeros(1)
    for want in NOISEFREE_MARGINS:
        theta = sgd_step(theta, E1, LossKind.LOGISTIC, 1.0)
        assert float(theta[0]) == pytest.approx(want, rel=1e-15)
    res = run_zero_overhead(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.CENSORED
    assert float(res.theta[0]) == pytest.approx(NOISEFREE_MARGINS[-1], rel=1e-15)


def test_noise_free_extra_sample_fixture():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample())
    res = run_extra_sample(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.FIRED
    assert res.iterations == 3
    assert res.samples_consumed == 7  # 2k + 1: check draws are charged
    assert float(res.theta[0]) == pytest.approx(NOISEFREE_MARGINS[-1], rel=1e-15)


def test_extra_sample_same_theta_as_zero_overhead_noise_free():
    base = run_zero_overhead(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0))
    extra = run_extra_sample(
        _const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample())
    )
    assert np.array_equal(base.theta, extra.theta)


def test_extra_sample_dedicated_check_stream():
    # with a separate check stream the update stream is consumed only for
    # updates, so the same run fires identically but draws bookkeeping holds
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample())
    res = run_extra_sample(_const_stream(E1), cfg, check_sampler=_const_stream(E1))
    assert res.iterations == 3
    assert res.samples_consumed == 7


def test_zero_step_freezes_iterate():
    cfg = SgdConfig(LossKind.LOGISTIC, 0.0, max_iter=10, rule=StopRule.none())
    res = run_zero_overhead(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.CENSORED
    assert res.iterations == 10
    assert np.array_equal(res.theta, np.zeros(1))


def test_zero_overhead_cannot_fire_from_zero_without_updates():
    # theta_0 = 0 has margin 0 < 1, so at least one update always happens
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    res = run_zero_overhead(_const_stream(np.array([50.0])), cfg)
    assert res.iterations >= 1


def test_theta0_is_respected_and_copied():
    theta0 = np.array([5.0])
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    res = run_zero_overhead(_const_stream(E1), cfg, theta0=theta0)
    # margin 5 >= 1 fires immediately with zero iterations
    assert res.iterations == 0 and res.samples_consumed == 0
    assert np.array_equal(res.theta, theta0)
    assert res.theta is not theta0


def test_empty_sampler_rejected():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    with pytest.raises(ValueError):
        run_zero_overhead(iter([]), cfg)
    with pytest.raises(ValueError):
        run_extra_sample(iter([]), SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample()))
    with pytest.raises(ValueError):
        run_svs(iter([]), SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.small_validation(2)))


def test_exhausted_stream_is_censored():
    cfg = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100)
    res = run_zero_overhead(_const_stream(E1, 5), cfg)
    assert res.stop_reason is StopReason.EXHAUSTED
    assert res.censored
    assert res.iterations == 5 and res.samples_consumed == 5

    cfg_x = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100, rule=StopRule.extra_sample())
    res_x = run_extra_sample(_const_stream(E1, 5), cfg_x)
    assert res_x.stop_reason is StopReason.EXHAUSTED
    assert res_x.samples_consumed == 5  # reports draws actually made


def test_max_iter_censoring():
    cfg = SgdConfig(LossKind.LOGISTIC, 1e-6, max_iter=3)
    res = run_zero_overhead(_const_stream(E1), cfg)
    assert res.censored and res.stop_reason is StopReason.CENSORED
    assert res.iterations == 3


def test_rule_config_mismatch_rejected():
    zo = SgdConfig(LossKind.LOGISTIC, 0.1)                                 # zero_overhead
    es = SgdConfig(LossKind.LOGISTIC, 0.1, rule=StopRule.extra_sample())
    sv = SgdConfig(LossKind.LOGISTIC, 0.1, rule=StopRule.small_validation(2))
    with pytest.raises(ValueError):
        run_zero_overhead(_const_stream(E1), es)
    with pytest.raises(ValueError):
        run_extra_sample(_const_stream(E1), zo)
    with pytest.raises(ValueError):
        run_svs(_const_stream(E1), zo)


def test_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(LossKind.LOGISTIC, -0.1)
    with pytest.raises(ValueError):
        SgdConfig(LossKind.LOGISTIC, math.inf)
    with pytest.raises(ValueError):
        SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=-1)
    with pytest.raises(ValueError):
        StopRule.small_validation(0)
    with pytest.raises(ValueError):
        StopRule.small_validation(2, period=0)


def test_svs_defaults_and_period():
    rule = StopRule.small_validation(4)
    assert rule.p == 4 and rule.period == 8
    assert StopRule.small_validation(4, period=3).period == 3


def test_svs_zero_step_plateaus_at_first_check():
    # alpha = 0: validation fraction stays at its baseline (margin 0 counts
    # incorrect), so the first check already fails to improve
    cfg = SgdConfig(LossKind.LOGISTIC, 0.0, rule=StopRule.small_validation(1))
    res = run_svs(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.PLATEAU
    assert res.iterations == 2  # one period
    assert res.samples_consumed == 3  # period + p validation draws


def test_svs_noise_free_progress_then_plateau():
    # fraction goes 0 -> 1 at the first check, then cannot increase further
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.small_validation(1))
    res = run_svs(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.PLATEAU
    assert res.iterations == 4
    assert res.samples_consumed == 5


def test_svs_iteration_cap_across_seeds():
    mu = np.zeros(5)
    mu[0] = 1.0
    for seed in range(30):
        for p in (1, 4, 16):
            rule = StopRule.small_validation(p)
            cfg = SgdConfig(LossKind.LOGISTIC, 0.05, max_iter=10**6, rule=rule)
            stream = folded_gaussian_stream(mu, 2.0, RngState(seed))
            res = run_svs(stream, cfg)
            assert res.stop_reason is StopReason.PLATEAU
            # fraction takes at most p + 1 distinct increasing values
            assert res.iterations <= (p + 1) * rule.period
            assert res.samples_consumed == res.iterations + p


def test_gated_stop_dominates_plain_pathwise():
    mu = np.zeros(4)
    mu[0] = 1.0
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=10**6)
    inside = lambda theta: float(mu @ theta) >= 1.0 + 0.5  # stricter gate
    for seed in range(25):
        plain = run_zero_overhead(folded_gaussian_stream(mu, 0.4, RngState(seed)), cfg)
        gated = run_zero_overhead(
            folded_gaussian_stream(mu, 0.4, RngState(seed)), cfg, gate=inside
        )
        assert gated.iterations >= plain.iterations
        # trivial gate replays the plain run exactly
        same = run_zero_overhead(
            folded_gaussian_stream(mu, 0.4, RngState(seed)), cfg, gate=lambda t: True
        )
        assert same.iterations == plain.iterations
        assert np.array_equal(same.theta, plain.theta)


def test_low_regime_runs_never_censor():
    mu = np.zeros(10)
    mu[0] = 1.0
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=10**6)
    for seed in range(100):
        res = run_zero_overhead(folded_gaussian_stream(mu, 0.1, RngState(seed)), cfg)
        assert res.stop_reason is StopReason.FIRED
        assert not res.censored


def test_run_dispatcher_routes_by_rule():
    for rule, reason in [
        (StopRule.zero_overhead(), StopReason.FIRED),
        (StopRule.extra_sample(), StopReason.FIRED),
        (StopRule.small_validation(1), StopReason.PLATEAU),
        (StopRule.none(), StopReason.CENSORED),
    ]:
        cfg = SgdConfig(LossKind.LOGISTIC, 1.0, max_iter=50, rule=rule)
        res = run(_const_stream(E1), cfg)
        assert isinstance(res, RunResult)
        assert res.stop_reason is reason


def test_trace_rows_and_stride():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, max_iter=3, rule=StopRule.none(), record_trace=True)
    res = run_zero_overhead(_const_stream(E1), cfg, trace_probe=E1)
    assert res.trace is not None
    ks = [k for k, _, _ in res.trace]
    assert ks == [1, 2, 3]  # max_iter <= 1000 traces every iteration
    margins = [m for _, m, _ in res.trace]
    assert margins == pytest.approx(NOISEFREE_MARGINS, rel=1e-15)
    aligns = [a for _, _, a in res.trace]
    assert aligns == pytest.approx([1.0, 1.0, 1.0], rel=1e-15)

    big = SgdConfig(LossKind.LOGISTIC, 0.0, max_iter=5000, rule=StopRule.none(), record_trace=True)
    res_big = run_zero_overhead(_const_stream(E1), big, trace_probe=E1)
    ks_big = [k for k, _, _ in res_big.trace]
    assert all(k % 5 == 0 for k in ks_big)  # stride = ceil(5000 / 1000)

    with pytest.raises(ValueError):
        run_zero_overhead(_const_stream(E1), cfg)  # trace without probe
    assert run_zero_overhead(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0)).trace is None


def test_continue_run_accumulates():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    base = run_zero_overhead(_const_stream(E1), cfg)
    ext = continue_run(base, _const_stream(E1), cfg, 5)
    assert ext.iterations == base.iterations + 5
    assert ext.samples_consumed == base.samples_consumed + 5
    assert ext.stop_reason is base.stop_reason
    assert float(ext.theta[0]) > float(base.theta[0])
    # base result is untouched
    assert base.iterations == 3

    frozen = continue_run(base, _const_stream(E1), SgdConfig(LossKind.LOGISTIC, 0.0), 4)
    assert np.array_equal(frozen.theta, base.theta)
    assert frozen.iterations == base.iterations + 4


def test_continue_run_edge_cases():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    base = run_zero_overhead(_const_stream(E1), cfg)
    assert continue_run(base, _const_stream(E1), cfg, 0).iterations == base.iterations
    with pytest.raises(ValueError):
        continue_run(base, _const_stream(E1), cfg, -1)
    short = continue_run(base, _const_stream(E1, 2), cfg, 10)
    assert short.stop_reason is StopReason.EXHAUSTED
    assert short.censored
    assert short.iterations == base.iterations + 2


def test_stop_rule_kinds_exposed():
    assert StopRule.zero_overhead().kind is StopKind.ZERO_OVERHEAD
    assert StopRule.extra_sample().kind is StopKind.EXTRA_SAMPLE
    assert StopRule.none().kind is StopKind.NONE


# ---------------------------------------------------------------------------
# non-finite samples

NAN2 = np.array([math.nan, 1.0])
INF2 = np.array([math.inf, 0.0])


def _poisoned(bad, clean=4):
    """``clean`` copies of e1 in two dimensions, then one bad sample, then e1 again."""
    good = np.array([0.2, 0.1])
    return itertools.chain(itertools.repeat(good, clean), [bad], itertools.repeat(good))


@pytest.mark.parametrize("bad", [NAN2, INF2])
def test_zero_overhead_diverges_on_non_finite_sample(bad):
    res = run_zero_overhead(_poisoned(bad), SgdConfig(LossKind.LOGISTIC, 0.5, max_iter=100))
    assert res.stop_reason is StopReason.DIVERGED
    assert res.censored
    assert res.iterations == 4
    assert res.samples_consumed == 5  # the four updates plus the bad draw
    assert np.all(np.isfinite(res.theta))


@pytest.mark.parametrize("bad", [NAN2, INF2])
def test_extra_sample_diverges_on_non_finite_sample(bad):
    cfg = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100, rule=StopRule.extra_sample())
    # draws alternate check, update, check, ...: the fifth draw is the
    # check after two updates
    res = run_extra_sample(_poisoned(bad), cfg)
    assert res.stop_reason is StopReason.DIVERGED
    assert (res.iterations, res.samples_consumed) == (2, 5)
    assert np.all(np.isfinite(res.theta))
    # the fourth draw is the second update sample
    res = run_extra_sample(_poisoned(bad, clean=3), cfg)
    assert res.stop_reason is StopReason.DIVERGED
    assert (res.iterations, res.samples_consumed) == (1, 4)
    assert np.all(np.isfinite(res.theta))


@pytest.mark.parametrize("bad", [NAN2, INF2])
def test_svs_diverges_on_non_finite_sample(bad):
    cfg = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100, rule=StopRule.small_validation(2))
    res = run_svs(_poisoned(bad), cfg)  # two validation draws, two updates, then bad
    assert res.stop_reason is StopReason.DIVERGED
    assert (res.iterations, res.samples_consumed) == (2, 5)
    assert np.all(np.isfinite(res.theta))


@pytest.mark.parametrize("bad", [NAN2, INF2])
def test_continue_run_diverges_on_non_finite_sample(bad):
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    base = run_zero_overhead(_const_stream(E1), cfg)
    good = np.array([1.0])
    stream = itertools.chain([good, good], [bad[:1]], itertools.repeat(good))
    ext = continue_run(base, stream, cfg, 10)
    assert ext.stop_reason is StopReason.DIVERGED
    assert ext.censored
    assert ext.iterations == base.iterations + 2
    assert ext.samples_consumed == base.samples_consumed + 3
    assert np.all(np.isfinite(ext.theta))


def test_diverged_iterate_overflow():
    # finite samples, but a step so large the iterate overflows to inf:
    # the next margin is non-finite and the run stops instead of going NaN
    cfg = SgdConfig(LossKind.HINGE, 1e300, max_iter=100, rule=StopRule.none())
    with np.errstate(over="ignore"):
        res = run_zero_overhead(_const_stream([1e10, -1e10]), cfg)
    assert res.stop_reason is StopReason.DIVERGED
    assert res.iterations == 1
