"""Tests for RNG plumbing, the two Box-Muller paths, normal-CDF helpers, and quadrature."""

import math
import os
import sys
import threading
import time
import warnings
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    QuadratureRule,
    gauss_hermite_expectation,
    gauss_hermite_rule,
    truncated_normal_lower_moment,
)
from sgdstop import numerics
from sgdstop.numerics import (
    SPLIT_PAIRS,
    RngState,
    box_muller,
    box_muller_polar,
    sample_student_t2,
    standard_normals,
    std_normal_cdf,
    std_normal_ccdf,
)

# Reference values computed with 40-digit arbitrary-precision arithmetic.
PHI_AT_1 = 0.8413447460685429
PHI_CCDF_AT_2 = 0.022750131948179207
T2_QUANTILE_09 = 1.8856180831641267
NEG_PHI_DENSITY_0 = -0.3989422804014327


def _series_cdf(x: float) -> float:
    """Independent Phi oracle from the erf Maclaurin series (|x| small)."""
    u = x / math.sqrt(2.0)
    total, term = 0.0, u
    for n in range(1, 200):
        total += term / (2 * n - 1)
        term *= -u * u / n
    return 0.5 + total / math.sqrt(math.pi)


def test_cdf_frozen_values():
    assert std_normal_cdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-16)
    assert std_normal_ccdf(2.0) == pytest.approx(PHI_CCDF_AT_2, abs=1e-16)
    # cross-check the frozen constants against the series oracle
    assert _series_cdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-15)
    assert 1.0 - _series_cdf(2.0) == pytest.approx(PHI_CCDF_AT_2, abs=1e-15)


def test_cdf_ccdf_complement():
    xs = np.concatenate([np.arange(-10.0, 10.01, 0.25), [-37.5, 37.5]])
    for x in xs:
        assert abs(std_normal_cdf(x) + std_normal_ccdf(x) - 1.0) <= 1e-15


def test_cdf_symmetry_and_tails():
    for x in [0.0, 0.3, 1.7, 5.0, 12.0, 30.0]:
        assert std_normal_cdf(-x) == pytest.approx(std_normal_ccdf(x), rel=1e-15)
    # deep tail stays positive and below the Mills-ratio envelope
    for t in [5.0, 10.0, 20.0, 38.0]:
        tail = std_normal_ccdf(t)
        assert 0.0 < tail < math.exp(-0.5 * t * t) / (t * math.sqrt(2.0 * math.pi))
    assert std_normal_cdf(0.0) == 0.5


def test_rng_state_reproducible():
    a = RngState(123, 7).generator().random(8)
    b = RngState(123, 7).generator().random(8)
    assert np.array_equal(a, b)


def test_rng_state_substreams_differ():
    root = RngState(9)
    draws = [root.substream(i).generator().random(4) for i in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(draws[i], draws[j])
    # substream derivation is itself deterministic
    assert root.substream(3) == RngState(9).substream(3)


def test_rng_state_validation():
    with pytest.raises(ValueError):
        RngState(-1)
    with pytest.raises(ValueError):
        RngState(2**64)
    with pytest.raises(ValueError):
        RngState(0).substream(-2)


def test_standard_normals_consumes_even_uniform_count():
    # n draws cost 2*ceil(n/2) uniforms, so a parallel generator that skips
    # that many uniforms must land on the same state.
    for n in (1, 2, 5, 8):
        g1 = RngState(11).generator()
        g2 = RngState(11).generator()
        standard_normals(g1, n)
        g2.random(2 * ((n + 1) // 2))
        assert np.array_equal(g1.random(4), g2.random(4))


def test_standard_normals_moments():
    z = standard_normals(RngState(5).generator(), 100_000)
    assert abs(z.mean()) < 4.0 / math.sqrt(100_000)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / 100_000)
    assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# box_muller: the sines of a large run on a helper thread


def _two_cpus() -> bool:
    affinity = getattr(os, "sched_getaffinity", None)
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2


@contextmanager
def _helper_handoffs():
    """Counts the runs box_muller hands to its helper inside the block."""
    calls = []
    split = numerics._SineHelper.split

    def spy(self, *args):
        calls.append(args[1].size)
        return split(self, *args)

    with mock.patch.object(numerics._SineHelper, "split", spy):
        yield calls


def _inline_box_muller(r, t, out):
    even, odd = out[0::2], out[1::2]
    np.cos(t, out=even)
    even *= r
    np.sin(t, out=odd)
    odd *= r
    return out


@settings(max_examples=40, deadline=None)
@given(
    m=st.one_of(
        st.integers(1, 9),
        st.integers(SPLIT_PAIRS - 3, SPLIT_PAIRS + 3),
        st.integers(SPLIT_PAIRS, 5 * SPLIT_PAIRS),
    ),
    a=st.integers(0, 7),
    tail=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_muller_helper_path_gives_the_inline_bytes(m, a, tail, seed):
    # the layout of data._gaussian_chunks: the m pairs from pair a of a
    # uniforms buffer, their normals written into flat[2a : 2(a + m)]
    uniforms = np.random.default_rng(seed).random((2, a + m + tail))
    uniforms[:, a] = 0.0  # 1 - u = 1: a radius of -0.0
    r, t = box_muller_polar(uniforms[:, a : a + m])
    flat = np.full(2 * (a + m + tail), np.nan)
    expected = _inline_box_muller(r, t, flat.copy()[2 * a : 2 * (a + m)])
    with _helper_handoffs() as handoffs:
        got = box_muller(r, t, flat[2 * a : 2 * (a + m)])
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(flat[: 2 * a]).all() and np.isnan(flat[2 * (a + m) :]).all()
    assert handoffs == ([m] if m >= SPLIT_PAIRS and _two_cpus() else [])


def test_box_muller_helper_error_is_the_inline_error_and_the_next_call_works():
    m = 4 * SPLIT_PAIRS + 1
    r, t = box_muller_polar(np.random.default_rng(3).random((2, m)))
    inline_out, out = np.full(2 * m - 1, np.nan), np.full(2 * m - 1, np.nan)  # one sine short
    with pytest.raises(ValueError) as inline:
        _inline_box_muller(r, t, inline_out)
    with _helper_handoffs() as handoffs, pytest.raises(ValueError) as error:
        box_muller(r, t, out)
    assert str(error.value) == str(inline.value)
    assert out.tobytes() == inline_out.tobytes()  # the cosines were written, as inline
    with _helper_handoffs() as more:
        out = box_muller(r, t, np.empty(2 * m))
    assert out.tobytes() == _inline_box_muller(r, t, np.empty(2 * m)).tobytes()
    assert handoffs == more == ([m] if _two_cpus() else [])


def test_box_muller_helper_keeps_the_callers_floating_point_error_modes():
    # r = inf at t = 0: the cosine half is inf * 1 (no flag), the sine half
    # inf * 0, an invalid operation, which must raise as the inline code does
    m = 4 * SPLIT_PAIRS
    r, t = np.ones(m), np.zeros(m)
    r[5] = np.inf
    with np.errstate(invalid="raise"), _helper_handoffs() as handoffs:
        with pytest.raises(FloatingPointError):
            _inline_box_muller(r, t, np.empty(2 * m))
        with pytest.raises(FloatingPointError):
            box_muller(r, t, np.empty(2 * m))
    with np.errstate(invalid="ignore"), warnings.catch_warnings(), _helper_handoffs() as more:
        warnings.simplefilter("error")  # a warning on the helper would be raised here
        out = box_muller(r, t, np.empty(2 * m))
    assert out[10] == np.inf and np.isnan(out[11])
    assert handoffs == more == ([m] if _two_cpus() else [])


def test_box_muller_keeps_no_run_alive():
    # neither the caller nor the helper holds a run's arrays once it returns
    m = SPLIT_PAIRS
    u = np.random.default_rng(8).random((2, m))
    r, t = box_muller_polar(u)
    out = np.empty(2 * m)
    with _helper_handoffs() as handoffs:
        box_muller(r, t, out)
    runs = [weakref.ref(a) for a in (u, r, t, out)]
    del u, r, t, out
    assert [run() is None for run in runs] == [True] * 4  # u, r, t, out
    assert handoffs == ([m] if _two_cpus() else [])


def test_box_muller_computes_inline_while_another_thread_holds_the_helper():
    m = SPLIT_PAIRS
    r, t = box_muller_polar(np.random.default_rng(4).random((2, m)))
    helper = numerics._sine_helper()
    if helper is None:
        pytest.skip("one usable CPU: box_muller never starts its helper")
    with helper._free:
        out = box_muller(r, t, np.empty(2 * m))
    assert out.tobytes() == _inline_box_muller(r, t, np.empty(2 * m)).tobytes()


class _CutShort:
    """Stands for the helper's ``_done`` lock: a wait on it is cut short by
    KeyboardInterrupt, and the helper's release reaches the real lock."""

    def __init__(self, lock):
        self._lock = lock

    def acquire(self):
        raise KeyboardInterrupt

    def release(self):
        self._lock.release()


def test_box_muller_computes_inline_after_a_wait_cut_short():
    m = SPLIT_PAIRS
    r, t = box_muller_polar(np.random.default_rng(5).random((2, m)))
    expected = _inline_box_muller(r, t, np.empty(2 * m)).tobytes()
    helper = numerics._sine_helper()
    if helper is None:
        pytest.skip("one usable CPU: box_muller never starts its helper")
    done = helper._done
    helper._done = _CutShort(done)
    try:
        with pytest.raises(KeyboardInterrupt):
            box_muller(r, t, np.empty(2 * m))
    finally:
        helper._done = done
    try:
        assert helper._free.locked()  # the helper may still be writing: left claimed
        assert box_muller(r, t, np.empty(2 * m)).tobytes() == expected
    finally:
        assert done.acquire(timeout=10)  # the helper finished the cut-short run
        helper._free.release()
    with _helper_handoffs() as handoffs:
        assert box_muller(r, t, np.empty(2 * m)).tobytes() == expected
    assert handoffs == [m]


def _forked_box_muller_is_inline(r, t) -> bool:
    """box_muller in a forked child returns and gives the inline bytes."""
    expected = _inline_box_muller(r, t, np.empty(2 * r.size)).tobytes()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if box_muller(r, t, np.empty(2 * r.size)).tobytes() == expected else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status) == 0
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("box_muller in a forked child did not return")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_box_muller_in_a_forked_child_gives_the_inline_bytes():
    # the helper thread is not copied into a child, which must start its own
    # or compute inline rather than wait for a thread it does not have
    m = SPLIT_PAIRS
    r, t = box_muller_polar(np.random.default_rng(6).random((2, m)))
    box_muller(r, t, np.empty(2 * m))  # the parent's helper, if any, has run
    assert _forked_box_muller_is_inline(r, t)
    helper = numerics._sine_helper()
    if helper is None:
        return
    holder_has_it, release = threading.Event(), threading.Event()

    def hold():
        with helper._free:
            holder_has_it.set()
            release.wait(60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert holder_has_it.wait(60)
        assert _forked_box_muller_is_inline(r, t)
    finally:
        release.set()
        holder.join(60)


def test_box_muller_from_more_threads_than_cpus_gives_the_inline_bytes():
    # the callers contend for the one helper; a caller that finds it taken
    # computes inline, and every output must still be exact
    m = SPLIT_PAIRS + 7
    runs = [box_muller_polar(np.random.default_rng(seed).random((2, m))) for seed in range(4)]
    expected = [_inline_box_muller(r, t, np.empty(2 * m)).tobytes() for r, t in runs]
    wrong = []

    def work(i):
        r, t = runs[i]
        for _ in range(25):
            if box_muller(r, t, np.empty(2 * m)).tobytes() != expected[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    helpers = [th for th in threading.enumerate() if th.name == "sgdstop-sines"]
    assert len(helpers) == int(_two_cpus())


class _FixedUniforms:
    """Duck-typed generator feeding a scripted uniform stream."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, n):
        out, self._values = self._values[:n], self._values[n:]
        return np.asarray(out, dtype=float)


def test_sample_student_t2_quantile_fixture():
    # u = 1 - 0.1 = 0.9 maps through the inverse CDF to the frozen quantile
    x = sample_student_t2(_FixedUniforms([0.1]), 1)
    assert x[0] == pytest.approx(T2_QUANTILE_09, abs=1e-15)
    # median at u = 0.5
    assert sample_student_t2(_FixedUniforms([0.5]), 1)[0] == pytest.approx(0.0, abs=1e-15)


def test_sample_student_t2_empirical_cdf():
    x = sample_student_t2(RngState(23).generator(), 200_000)
    for q in (-2.0, -0.5, 0.0, 0.5, 2.0):
        expect = 0.5 + q / (2.0 * math.sqrt(2.0 + q * q))
        emp = float(np.mean(x <= q))
        assert abs(emp - expect) < 4.0 * math.sqrt(expect * (1.0 - expect) / 200_000)


def test_gauss_hermite_rule_basics():
    rule = gauss_hermite_rule(64)
    assert isinstance(rule, QuadratureRule)
    assert rule.nodes.shape == rule.weights.shape == (64,)
    assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)


def test_gauss_hermite_polynomial_moments():
    # exact for polynomials: fourth moment of N(m, s^2)
    m, s = 0.7, 1.3
    got = gauss_hermite_expectation(lambda z: z**4, m, s)
    want = m**4 + 6.0 * m**2 * s**2 + 3.0 * s**4
    assert got == pytest.approx(want, rel=1e-12)
    assert gauss_hermite_expectation(lambda z: np.ones_like(z), m, s) == pytest.approx(1.0, rel=1e-14)


def test_gauss_hermite_zero_sigma_collapses():
    assert gauss_hermite_expectation(lambda z: z**2, 2.0, 0.0) == pytest.approx(4.0, rel=1e-12)


def test_gauss_hermite_matches_monte_carlo():
    # smooth and kinked integrands against a large independent sample
    m, s, n = 0.4, 1.1, 1_000_000
    z = m + s * standard_normals(RngState(31).generator(), n)
    for f in (np.abs, lambda t: 1.0 / (1.0 + np.exp(-t)), lambda t: np.maximum(1.0 - t, 0.0)):
        vals = f(z)
        mc, se = vals.mean(), vals.std() / math.sqrt(n)
        assert abs(gauss_hermite_expectation(f, m, s) - mc) < 4.0 * se


def test_truncated_moment_frozen_fixture():
    mass, partial = truncated_normal_lower_moment(0.0, 1.0, 0.0)
    assert mass == pytest.approx(0.5, abs=1e-16)
    assert partial == pytest.approx(NEG_PHI_DENSITY_0, abs=1e-16)


def test_truncated_moment_halves_reconstruct():
    for mean, sigma, cut in [(0.0, 1.0, 0.3), (1.0, 0.5, 1.0), (-2.0, 3.0, 0.0), (0.5, 1.0, -4.0)]:
        m_lo, p_lo = truncated_normal_lower_moment(mean, sigma, cut)
        # complement via symmetry: upper tail of X is lower tail of -X
        m_hi, p_hi = truncated_normal_lower_moment(-mean, sigma, -cut)
        assert m_lo + m_hi == pytest.approx(1.0, abs=1e-12)
        assert p_lo - p_hi == pytest.approx(mean, abs=1e-12)


def test_truncated_moment_degenerate_sigma():
    assert truncated_normal_lower_moment(2.0, 0.0, 3.0) == (1.0, 2.0)
    assert truncated_normal_lower_moment(2.0, 0.0, 1.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        truncated_normal_lower_moment(0.0, -1.0, 0.0)


def test_truncated_moment_zero_partial_identity():
    # at the cut where the partial mean vanishes, the retained mass satisfies
    # mass * exp(z^2 / 2) = sigma / (mean * sqrt(2 pi)) with z = (cut - mean) / sigma
    mean, sigma = 1.0, 1.0
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if truncated_normal_lower_moment(mean, sigma, mid)[1] < 0.0:
            lo = mid
        else:
            hi = mid
    cut = 0.5 * (lo + hi)
    z = (cut - mean) / sigma
    mass = truncated_normal_lower_moment(mean, sigma, cut)[0]
    want = sigma / (mean * math.sqrt(2.0 * math.pi))
    assert mass * math.exp(0.5 * z * z) == pytest.approx(want, abs=1e-10)


@given(st.floats(-6.0, 6.0), st.floats(0.05, 4.0), st.floats(-8.0, 8.0))
@settings(max_examples=120, deadline=None)
def test_truncated_moment_bounds(mean, sigma, cut):
    mass, partial = truncated_normal_lower_moment(mean, sigma, cut)
    assert 0.0 <= mass <= 1.0
    assert math.isfinite(partial)
    # X <= cut on the retained event, so the partial mean is capped by cut * mass
    assert partial <= cut * mass + 1e-12
