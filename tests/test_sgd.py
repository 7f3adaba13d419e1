"""Tests for the SGD engine and its stopping rules."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import sgd_step
from sgdstop import sgd
from sgdstop.data import folded_gaussian_stream
from sgdstop.losses import LossKind
from sgdstop.numerics import RngState
from sgdstop.sgd import (
    RunResult,
    SgdConfig,
    StopKind,
    StopReason,
    StopRule,
    run,
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
    res = run(_const_stream(E1), cfg)
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
    res = run(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.CENSORED
    assert float(res.theta[0]) == pytest.approx(NOISEFREE_MARGINS[-1], rel=1e-15)


def test_noise_free_extra_sample_fixture():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample())
    res = run(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.FIRED
    assert res.iterations == 3
    assert res.samples_consumed == 7  # 2k + 1: check draws are charged
    assert float(res.theta[0]) == pytest.approx(NOISEFREE_MARGINS[-1], rel=1e-15)


def test_extra_sample_same_theta_as_zero_overhead_noise_free():
    base = run(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0))
    extra = run(
        _const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample())
    )
    assert np.array_equal(base.theta, extra.theta)


def test_extra_sample_dedicated_check_stream():
    # with a separate check stream the update stream is consumed only for
    # updates, so the same run fires identically but draws bookkeeping holds
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample())
    res = run(_const_stream(E1), cfg, check_sampler=_const_stream(E1))
    assert res.iterations == 3
    assert res.samples_consumed == 7


def test_zero_step_freezes_iterate():
    cfg = SgdConfig(LossKind.LOGISTIC, 0.0, max_iter=10, rule=StopRule.none())
    res = run(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.CENSORED
    assert res.iterations == 10
    assert np.array_equal(res.theta, np.zeros(1))


def test_zero_overhead_cannot_fire_from_zero_without_updates():
    # theta_0 = 0 has margin 0 < 1, so at least one update always happens
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    res = run(_const_stream(np.array([50.0])), cfg)
    assert res.iterations >= 1


def test_theta0_is_respected_and_copied():
    theta0 = np.array([5.0])
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    res = run(_const_stream(E1), cfg, theta0=theta0)
    # margin 5 >= 1 fires immediately with zero iterations
    assert res.iterations == 0 and res.samples_consumed == 0
    assert np.array_equal(res.theta, theta0)
    assert res.theta is not theta0


@pytest.mark.parametrize("rule", [StopRule.zero_overhead(), StopRule.extra_sample()])
def test_margin_exactly_at_threshold_fires(rule):
    res = run(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0, rule=rule), theta0=E1)
    assert res.stop_reason is StopReason.FIRED
    assert res.iterations == 0


def test_empty_sampler_rejected():
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0)
    with pytest.raises(ValueError):
        run(iter([]), cfg)
    with pytest.raises(ValueError):
        run(iter([]), SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.extra_sample()))
    with pytest.raises(ValueError):
        run(iter([]), SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.small_validation(2)))


def test_exhausted_stream_is_censored():
    cfg = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100)
    res = run(_const_stream(E1, 5), cfg)
    assert res.stop_reason is StopReason.EXHAUSTED
    assert res.censored
    assert res.iterations == 5 and res.samples_consumed == 5

    cfg_x = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100, rule=StopRule.extra_sample())
    res_x = run(_const_stream(E1, 5), cfg_x)
    assert res_x.stop_reason is StopReason.EXHAUSTED
    assert res_x.samples_consumed == 5  # reports draws actually made


def test_max_iter_censoring():
    cfg = SgdConfig(LossKind.LOGISTIC, 1e-6, max_iter=3)
    res = run(_const_stream(E1), cfg)
    assert res.censored and res.stop_reason is StopReason.CENSORED
    assert res.iterations == 3


def test_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(LossKind.LOGISTIC, -0.1)
    with pytest.raises(ValueError):
        SgdConfig(LossKind.LOGISTIC, math.inf)
    with pytest.raises(ValueError):
        SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=-1)
    with pytest.raises(ValueError):
        StopRule.small_validation(0)


def test_svs_defaults_and_period():
    rule = StopRule.small_validation(4)
    assert rule.p == 4 and rule.period == 8
    # the period is derived from p, so a raw rule cannot carry another one
    assert StopRule(StopKind.SMALL_VALIDATION, p=3).period == 6


def test_extra_sample_overhead_counts_only_the_checks_drawn():
    # alpha = 0 never fires, so the stream ends on a check (4 rows: two
    # updates, two checks) or on an update row (5 rows: two updates, three checks)
    cfg = SgdConfig(LossKind.LOGISTIC, 0.0, rule=StopRule.extra_sample())
    for n, checks in ((4, 2), (5, 3)):
        res = run(_const_stream(E1, n), cfg)
        assert res.stop_reason is StopReason.EXHAUSTED
        assert (res.iterations, res.samples_consumed, res.overhead) == (2, n, checks)


def test_svs_zero_step_plateaus_at_first_check():
    # alpha = 0: validation fraction stays at its baseline (margin 0 counts
    # incorrect), so the first check already fails to improve
    cfg = SgdConfig(LossKind.LOGISTIC, 0.0, rule=StopRule.small_validation(1))
    res = run(_const_stream(E1), cfg)
    assert res.stop_reason is StopReason.PLATEAU
    assert res.iterations == 2  # one period
    assert res.samples_consumed == 3  # period + p validation draws


def test_svs_noise_free_progress_then_plateau():
    # fraction goes 0 -> 1 at the first check, then cannot increase further
    cfg = SgdConfig(LossKind.LOGISTIC, 1.0, rule=StopRule.small_validation(1))
    res = run(_const_stream(E1), cfg)
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
            res = run(stream, cfg)
            assert res.stop_reason is StopReason.PLATEAU
            # fraction takes at most p + 1 distinct increasing values
            assert res.iterations <= (p + 1) * rule.period
            assert res.samples_consumed == res.iterations + p


def test_low_regime_runs_never_censor():
    mu = np.zeros(10)
    mu[0] = 1.0
    cfg = SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=10**6)
    for seed in range(100):
        res = run(folded_gaussian_stream(mu, 0.1, RngState(seed)), cfg)
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


def _plain(alpha, extra):
    """The config that continues a stopped run: ``extra`` plain updates."""
    return SgdConfig(LossKind.LOGISTIC, alpha, max_iter=extra, rule=StopRule.none())


def test_run_from_theta0_accumulates():
    # a stopped run continues as a rule-none run from its iterate
    base = run(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0))
    ext = run(_const_stream(E1), _plain(1.0, 5), theta0=base.theta)
    assert (ext.iterations, ext.samples_consumed) == (5, 5)
    assert ext.stop_reason is StopReason.CENSORED  # every extra update applied
    assert float(ext.theta[0]) > float(base.theta[0])
    # base result is untouched
    assert base.iterations == 3
    assert float(base.theta[0]) == pytest.approx(NOISEFREE_MARGINS[-1], rel=1e-15)

    frozen = run(_const_stream(E1), _plain(0.0, 4), theta0=base.theta)
    assert np.array_equal(frozen.theta, base.theta)
    assert frozen.iterations == 4


def test_run_from_theta0_edge_cases():
    base = run(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0))
    zero = run(_const_stream(E1), _plain(1.0, 0), theta0=base.theta)
    assert (zero.iterations, zero.samples_consumed) == (0, 0)
    assert zero.theta.tobytes() == base.theta.tobytes()
    with pytest.raises(ValueError):
        _plain(1.0, -1)
    short = run(_const_stream(E1, 2), _plain(1.0, 10), theta0=base.theta)
    assert short.stop_reason is StopReason.EXHAUSTED
    assert short.censored
    assert (short.iterations, short.samples_consumed) == (2, 2)


def test_stop_rule_kinds_exposed():
    assert StopRule.zero_overhead().kind is StopKind.ZERO_OVERHEAD
    assert StopRule.extra_sample().kind is StopKind.EXTRA_SAMPLE
    assert StopRule.none().kind is StopKind.NONE
    assert StopRule.target(bool).kind is StopKind.TARGET


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
    res = run(_poisoned(bad), SgdConfig(LossKind.LOGISTIC, 0.5, max_iter=100))
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
    res = run(_poisoned(bad), cfg)
    assert res.stop_reason is StopReason.DIVERGED
    assert (res.iterations, res.samples_consumed) == (2, 5)
    assert np.all(np.isfinite(res.theta))
    # the fourth draw is the second update sample
    res = run(_poisoned(bad, clean=3), cfg)
    assert res.stop_reason is StopReason.DIVERGED
    assert (res.iterations, res.samples_consumed) == (1, 4)
    assert np.all(np.isfinite(res.theta))


@pytest.mark.parametrize("bad", [NAN2, INF2])
def test_svs_diverges_on_non_finite_sample(bad):
    cfg = SgdConfig(LossKind.LOGISTIC, 0.01, max_iter=100, rule=StopRule.small_validation(2))
    res = run(_poisoned(bad), cfg)  # two validation draws, two updates, then bad
    assert res.stop_reason is StopReason.DIVERGED
    assert (res.iterations, res.samples_consumed) == (2, 5)
    assert np.all(np.isfinite(res.theta))


@pytest.mark.parametrize("bad", [NAN2, INF2])
def test_run_from_theta0_diverges_on_non_finite_sample(bad):
    base = run(_const_stream(E1), SgdConfig(LossKind.LOGISTIC, 1.0))
    good = np.array([1.0])
    stream = itertools.chain([good, good], [bad[:1]], itertools.repeat(good))
    ext = run(stream, _plain(1.0, 10), theta0=base.theta)
    assert ext.stop_reason is StopReason.DIVERGED
    assert ext.censored
    assert (ext.iterations, ext.samples_consumed) == (2, 3)  # two updates, then the bad draw
    assert np.all(np.isfinite(ext.theta))


def test_diverged_iterate_overflow():
    # finite samples, but a step so large the iterate overflows to inf:
    # the next margin is non-finite and the run stops instead of going NaN
    cfg = SgdConfig(LossKind.HINGE, 1e300, max_iter=100, rule=StopRule.none())
    with np.errstate(over="ignore"):
        res = run(_const_stream([1e10, -1e10]), cfg)
    assert res.stop_reason is StopReason.DIVERGED
    assert res.iterations == 1


# ---------------------------------------------------------------------------
# what the update loop reports: its draws, which run prices


class _Counter:
    """Iterator over a list of rows, then exhausted, that counts the rows pulled."""

    def __init__(self, rows):
        self.rows = iter(rows)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.rows)
        self.pulled += 1
        return row


ONE = np.array([1.0])
NAN1 = np.array([math.nan])
MANY = [ONE] * 10
ZO, ES, NONE = StopRule.zero_overhead(), StopRule.extra_sample(), StopRule.none()
SVS, TARGET = StopRule.small_validation(1), StopRule.target(lambda t: float(t.sum()) >= 1.0)

# rule, update rows, check rows, alpha, limit, then the expected reason, k, and
# whether the last row drawn ended the run (a zero-overhead firing or a
# non-finite margin), so that the loop drew k + 1 rows.  On a stream of ones
# at alpha 1 the margins run 0, 0.5, 0.88, 1.17 (NOISEFREE_MARGINS).
LOOP_CASES = [
    (ZO, MANY, None, 1.0, 100, StopReason.FIRED, 3, True),
    (ZO, [ONE, ONE, NAN1], None, 0.01, 100, StopReason.DIVERGED, 2, True),
    (ZO, [ONE, ONE], None, 0.0, 100, StopReason.EXHAUSTED, 2, False),
    (ZO, MANY, None, 0.0, 3, StopReason.CENSORED, 3, False),
    (ES, MANY, MANY, 1.0, 100, StopReason.FIRED, 3, False),
    (ES, MANY, [ONE, NAN1], 0.01, 100, StopReason.DIVERGED, 1, False),
    (ES, [ONE, NAN1], MANY, 0.01, 100, StopReason.DIVERGED, 1, True),
    (ES, [ONE], MANY, 0.0, 100, StopReason.EXHAUSTED, 1, False),
    (ES, MANY, MANY, 0.0, 2, StopReason.CENSORED, 2, False),
    (SVS, MANY, None, 1.0, 100, StopReason.PLATEAU, 4, False),
    (SVS, [ONE, NAN1], None, 0.01, 100, StopReason.DIVERGED, 1, True),
    (SVS, [ONE], None, 0.0, 100, StopReason.EXHAUSTED, 1, False),
    (SVS, MANY, None, 0.0, 1, StopReason.CENSORED, 1, False),
    (TARGET, MANY, None, 1.0, 100, StopReason.FIRED, 3, False),
    (TARGET, [ONE, NAN1], None, 0.01, 100, StopReason.DIVERGED, 1, True),
    (TARGET, [ONE, ONE], None, 0.0, 100, StopReason.EXHAUSTED, 2, False),
    (TARGET, MANY, None, 0.0, 2, StopReason.CENSORED, 2, False),
    (NONE, MANY, None, 1.0, 3, StopReason.CENSORED, 3, False),
    (NONE, [ONE, NAN1], None, 0.01, 100, StopReason.DIVERGED, 1, True),
    (NONE, [ONE, ONE], None, 1.0, 100, StopReason.EXHAUSTED, 2, False),
]


@pytest.mark.parametrize("rule, rows, check_rows, alpha, limit, reason, k, row_ended", LOOP_CASES)
def test_loop_reports_k_second_and_the_rows_it_drew(
    rule, rows, check_rows, alpha, limit, reason, k, row_ended
):
    sampler = _Counter(rows)
    checks = None if check_rows is None else _Counter(check_rows)
    val = np.stack([ONE]) if rule.kind is StopKind.SMALL_VALIDATION else None
    theta = np.zeros(1)
    with np.errstate(invalid="ignore"):
        out = sgd._loop(sampler, theta, LossKind.LOGISTIC, alpha, limit, rule, checks, val)
    assert len(out) == 5 and out[0] is theta
    _, updates, drawn, checked, got = out
    assert (got, updates) == (reason, k)
    # k counts the updates: theta is the first k rows folded through sgd_step
    expected = _iterates(np.zeros(1), rows[:k], LossKind.LOGISTIC, alpha)[-1]
    assert theta.tobytes() == expected.tobytes()
    assert drawn == sampler.pulled == k + row_ended
    assert checked == (0 if checks is None else checks.pulled)


# ---------------------------------------------------------------------------
# engine properties on random streams, against an sgd_step reference

# a few exact values make margins land exactly on the threshold and on 0
FINITE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-1.0, 0.0, 0.5, 1.0]
)


def _sum_at_least(c):
    """A target rule whose set is {theta : sum of its coordinates >= c}."""
    return StopRule.target(lambda theta: float(theta.sum()) >= c)


RULES = st.one_of(
    st.just(StopRule.zero_overhead()),
    st.just(StopRule.extra_sample()),
    st.just(StopRule.none()),
    st.builds(StopRule.small_validation, st.integers(1, 4)),
    st.builds(_sum_at_least, FINITE),
)


class _Recorder:
    """Iterator over a finite list of rows that logs, in ``log``, each row it
    hands out; two recorders may share one log."""

    def __init__(self, rows, log):
        self.rows = rows
        self.log = log
        self.drawn = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.drawn == len(self.rows):
            raise StopIteration
        row = self.rows[self.drawn]
        self.drawn += 1
        self.log.append(row)
        return row


@st.composite
def _rows(draw, d, max_rows=30):
    """Up to ``max_rows`` finite rows of dimension d, maybe one with a NaN or
    infinite entry."""
    n = draw(st.integers(0, max_rows))
    block = draw(arrays(float, (n, d), elements=FINITE))
    if n and draw(st.booleans()):
        block[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    return list(block)


def _iterates(theta, rows, kind, alpha):
    """theta_0, ..., theta_n from folding sgd_step over the n rows."""
    out = [np.array(theta, dtype=float)]
    for xi in rows:
        out.append(sgd_step(out[-1], xi, kind, alpha))
    return out


def _finite(row):
    return bool(np.all(np.isfinite(row)))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_run_accounting_and_iterate_match_sgd_step(data):
    d = data.draw(st.integers(1, 4), label="d")
    rule = data.draw(RULES, label="rule")
    rows = data.draw(_rows(d), label="rows")
    dedicated = rule.kind is StopKind.EXTRA_SAMPLE and data.draw(st.booleans())
    check_rows = data.draw(_rows(d), label="check_rows") if dedicated else None
    kind = data.draw(st.sampled_from(LossKind))
    alpha = data.draw(st.floats(0.0, 2.0))
    max_iter = data.draw(st.integers(0, 40), label="max_iter")
    theta0 = data.draw(st.none() | arrays(float, d, elements=FINITE), label="theta0")
    cfg = SgdConfig(kind, alpha, max_iter=max_iter, rule=rule)
    log = []
    sampler = _Recorder(rows, log)
    checks = _Recorder(check_rows, log) if dedicated else None
    p = rule.p or 0

    if rule.kind is StopKind.SMALL_VALIDATION:
        too_short = len(rows) < p
    elif rule.kind is StopKind.EXTRA_SAMPLE:
        too_short = not (check_rows if dedicated else rows)
    else:
        too_short = theta0 is None and not rows
    if too_short:
        with pytest.raises(ValueError):
            run(sampler, cfg, check_sampler=checks, theta0=theta0)
        return

    res = run(sampler, cfg, check_sampler=checks, theta0=theta0)
    k, reason = res.iterations, res.stop_reason
    drawn = len(log)
    assert 0 <= k <= max_iter
    assert res.censored == (reason not in (StopReason.FIRED, StopReason.PLATEAU))

    # with max_iter 0 a zero-overhead, plain or target run draws a row only to size theta
    sizing_only = rule.kind not in (StopKind.SMALL_VALIDATION, StopKind.EXTRA_SAMPLE) and (
        theta0 is None and max_iter == 0
    )
    # rows the rule used for updates and for stop tests, in draw order
    if rule.kind is StopKind.SMALL_VALIDATION:
        updates, tested = rows[p : p + k], rows[p:sampler.drawn]
    elif rule.kind is StopKind.EXTRA_SAMPLE and not dedicated:
        updates, tested = rows[1 : 2 * k : 2], log
    else:
        updates, tested = rows[:k], [] if sizing_only else log
    thetas = _iterates(np.zeros(d) if theta0 is None else theta0, updates, kind, alpha)
    assert res.theta.tobytes() == thetas[-1].tobytes()
    if theta0 is not None:
        assert res.theta is not theta0

    # no stop test passed before the one that stopped the run
    if rule.kind is StopKind.ZERO_OVERHEAD:
        assert all(float(xi @ t) < 1.0 for xi, t in zip(updates, thetas))
    elif rule.kind is StopKind.EXTRA_SAMPLE:
        check_seq = check_rows if dedicated else rows[0::2]
        assert all(float(c @ t) < 1.0 for c, t in zip(check_seq[:k], thetas))
    elif rule.kind is StopKind.SMALL_VALIDATION:
        val = np.stack(rows[:p])
        # a non-finite row or an overflowing iterate gives inf or NaN margins, as in the run
        with np.errstate(invalid="ignore", over="ignore"):
            fracs = [np.mean(val @ thetas[i] > 0.0) for i in range(0, k + 1, 2 * p)]
        passed = fracs[:-1] if reason is StopReason.PLATEAU else fracs
        assert all(a < b for a, b in zip(passed, passed[1:]))
    elif rule.kind is StopKind.TARGET:
        # theta_0 is never tested; theta_1 .. theta_k are, and only theta_k
        # may lie inside, exactly when the run fired
        hits = [rule.inside(t) for t in thetas[1:]]
        assert not any(hits[:-1])
        if hits:
            assert hits[-1] == (reason is StopReason.FIRED)

    # every non-finite row drawn for an update or a check diverges the run at once
    assert all(_finite(row) for row in tested[:-1])
    if tested and not _finite(tested[-1]):
        assert reason is StopReason.DIVERGED

    if reason in (StopReason.EXHAUSTED, StopReason.DIVERGED):
        assert res.samples_consumed == drawn
    elif rule.kind is StopKind.EXTRA_SAMPLE:
        assert res.samples_consumed == 2 * k + 1 == drawn
    elif rule.kind is StopKind.SMALL_VALIDATION:
        assert res.samples_consumed == k + p == drawn
    else:
        # the firing draw, and a draw that only sized theta, are not charged
        assert res.samples_consumed == k
        fired_on_draw = reason is StopReason.FIRED and rule.kind is StopKind.ZERO_OVERHEAD
        assert drawn == k + (fired_on_draw or sizing_only)

    # the stop test's margin evaluations, whatever the reason: each check
    # drawn (interleaved checks are the even draws), or p per validation check
    if rule.kind is StopKind.EXTRA_SAMPLE:
        assert res.overhead == (checks.drawn if dedicated else len(log[0::2]))
    elif rule.kind is StopKind.SMALL_VALIDATION:
        assert res.overhead == p * len(range(0, k + 1, 2 * p))
    else:
        assert res.overhead == 0

    if reason is StopReason.CENSORED:
        assert k == max_iter
    elif reason is StopReason.EXHAUSTED:
        assert sampler.drawn == len(rows) or (dedicated and checks.drawn == len(check_rows))
    elif reason is StopReason.DIVERGED:
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(float(log[-1] @ res.theta))
    elif reason is StopReason.FIRED and rule.kind is StopKind.TARGET:
        assert k >= 1 and rule.inside(res.theta)
    elif reason is StopReason.FIRED:
        assert rule.kind in (StopKind.ZERO_OVERHEAD, StopKind.EXTRA_SAMPLE)
        assert float(log[-1] @ res.theta) >= 1.0
    else:
        assert reason is StopReason.PLATEAU
        assert rule.kind is StopKind.SMALL_VALIDATION
        assert k % rule.period == 0 and 0 < k <= (p + 1) * rule.period


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 4),
    data=st.data(),
    p=st.integers(1, 5),
    kind=st.sampled_from(LossKind),
    alpha=st.floats(0.0, 2.0),
)
def test_svs_stops_within_cap_on_finite_streams(d, data, p, kind, alpha):
    rows = data.draw(arrays(float, (data.draw(st.integers(1, 12)), d), elements=FINITE))
    rule = StopRule.small_validation(p)
    res = run(itertools.cycle(rows), SgdConfig(kind, alpha, max_iter=10**6, rule=rule))
    assert res.stop_reason is StopReason.PLATEAU
    assert res.iterations <= (p + 1) * rule.period
    assert res.samples_consumed == res.iterations + p


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_from_theta0_is_base_plus_extension(data):
    # a stopped run continued by a rule-none run from its iterate applies
    # exactly the extension's rows to the base iterate, and is charged its draws
    d = data.draw(st.integers(1, 4), label="d")
    kind = data.draw(st.sampled_from(LossKind))
    alpha = data.draw(st.floats(0.0, 2.0))
    cfg = SgdConfig(kind, alpha, max_iter=data.draw(st.integers(0, 20)), rule=data.draw(RULES))
    base_rows = data.draw(arrays(float, (40, d), elements=FINITE), label="base_rows")
    base = run(iter(base_rows), cfg)
    base_theta = base.theta.copy()
    rows = data.draw(_rows(d), label="rows")
    extra = data.draw(st.integers(0, 40), label="extra")
    log = []
    plain = SgdConfig(kind, alpha, max_iter=extra, rule=StopRule.none())
    ext = run(_Recorder(rows, log), plain, theta0=base.theta)

    done = ext.iterations
    assert 0 <= done <= extra
    assert ext.samples_consumed == len(log)
    assert ext.theta.tobytes() == _iterates(base_theta, rows[:done], kind, alpha)[-1].tobytes()
    assert base.theta.tobytes() == base_theta.tobytes()  # the base result is untouched
    if done == extra:
        assert ext.stop_reason is StopReason.CENSORED
        assert len(log) == extra
    else:
        assert ext.censored
        if ext.stop_reason is StopReason.EXHAUSTED:
            assert len(log) == len(rows) == done
        else:
            assert ext.stop_reason is StopReason.DIVERGED
