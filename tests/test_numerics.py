"""Tests for RNG plumbing, Box-Muller inline and in halves, normal-CDF helpers, and quadrature."""

import gc
import hashlib
import json
import math
import os
import queue
import random
import subprocess
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    QuadratureRule,
    box_muller,
    gauss_hermite_expectation,
    gauss_hermite_rule,
    standard_normals,
    truncated_normal_lower_moment,
)
from sgdstop import numerics
from sgdstop.numerics import (
    GROUP_PAIRS,
    SPLIT_PAIRS,
    RngState,
    normal_rounds,
    normals_at,
    std_normal_cdf,
    std_normal_ccdf,
    student_t2,
    uniforms_at,
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


@pytest.mark.parametrize("seed,stream", [(0, 0), (2**64 - 1, 2**64 - 1), (7, 2**63), (2**64 - 1, 0)])
def test_rng_state_generator_is_philox_keyed_by_the_pair(seed, stream, monkeypatch):
    # the state and draws of Generator(Philox(key=[seed, stream])), and no
    # entropy gathered for them: SystemRandom reads os.urandom through random._urandom
    expected = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))

    def no_entropy(n):
        raise OSError("no entropy here")

    monkeypatch.setattr(os, "urandom", no_entropy)
    monkeypatch.setattr(random, "_urandom", no_entropy)
    gen = RngState(seed, stream).generator()
    assert repr(gen.bit_generator.state) == repr(expected.bit_generator.state)
    assert gen.random(100).tobytes() == expected.random(100).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    counter=st.one_of(st.integers(0, 600), st.integers(0, 2**64 - 1)),
    skip=st.integers(0, 3),
    n=st.integers(0, 13),
    before=st.integers(0, 9),
)
def test_uniforms_at_reads_the_stream_at_a_position(seed, counter, skip, n, before):
    # uniform 4c + k of a stream is draw k of its Philox started at counter
    # c, whatever this thread read of another stream before
    rng = RngState(seed, seed // 3)
    expected = np.random.Generator(
        np.random.Philox(counter=counter, key=np.array([rng.seed, rng.stream], dtype=np.uint64))
    ).random(skip + n)[skip:]
    uniforms_at(RngState(1, 2), before, np.empty(before))
    out = np.full(n, np.nan)
    assert uniforms_at(rng, 4 * counter + skip, out) is out
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("position", [1, 2, 3, 4 * 1000 + 1, 4 * 1000 + 2, 4 * 1000 + 3])
def test_uniforms_at_reads_a_stream_from_inside_a_philox_block(position):
    # the first position % 4 outputs of the block are dropped
    stream = RngState(3).generator().random(position + 9)
    assert uniforms_at(RngState(3), position, np.empty(9)).tobytes() == stream[position:].tobytes()


def test_uniforms_at_reads_streams_in_any_order():
    # one thread's reader serves every stream, at any position, in turn
    streams = {rng: rng.generator().random(40) for rng in (RngState(5, 9), RngState(9, 5), RngState(5, 10))}
    for position, n in [(20, 13), (0, 7), (36, 4), (20, 3), (4, 1)]:
        for rng, stream in streams.items():
            got = uniforms_at(rng, position, np.empty(n))
            assert got.tobytes() == stream[position : position + n].tobytes()


def test_positioned_reads_build_no_stream_generator():
    # neither the caller's reader nor the helper's is built by RngState.generator
    # (which a tracer may rebind), on a thread that has not read before either
    m = SPLIT_PAIRS
    expected = _inline_normals(RngState(12), 64, 4 * m, m).tobytes()
    got = []
    with mock.patch.object(RngState, "generator", side_effect=AssertionError("a stream generator")):
        reader = threading.Thread(target=lambda: got.append(_normals_at(12, m).tobytes()))
        reader.start()
        reader.join(60)
    assert got == [expected]


@contextmanager
def _recorded_reads():
    """The reads of numerics inside the block, each as (position, count)."""
    reads = []

    def recorded(rng, position, out):
        reads.append((position, out.size))
        return uniforms_at(rng, position, out)

    with mock.patch.object(numerics, "uniforms_at", recorded):
        yield reads


def test_normals_at_reads_only_the_uniforms_of_its_pairs():
    # n normals cost 2*ceil(n/2) uniforms, the pairs' two runs and nothing
    # else, so the layout can put the next draw right after them
    with _recorded_reads() as reads:
        for n in (1, 2, 5, 8):
            m, gen = (n + 1) // 2, RngState(11).generator()
            standard_normals(gen, n)  # a first draw of n, then the one read here
            got = normals_at(RngState(11), 2 * m, 3 * m, np.empty(2 * m))[:n]
            assert got.tobytes() == standard_normals(gen, n).tobytes()
    assert reads == [(p, m) for m in (1, 1, 3, 4) for p in (2 * m, 3 * m)]


def test_normals_at_moments():
    z = normals_at(RngState(5), 0, 50_000, np.empty(100_000))
    assert abs(z.mean()) < 4.0 / math.sqrt(100_000)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / 100_000)
    assert np.all(np.isfinite(z))


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.one_of(st.integers(0, 9), st.integers(1, 2 * GROUP_PAIRS + 9)), min_size=1, max_size=4),
    groups=st.integers(0, 2),
    shift=st.integers(-2, 2),
    seed=st.integers(0, 2**64 - 1),
)
@example(sizes=[5, 1], groups=2, shift=88, seed=13)  # the target_delta_odd golden's probes
@example(sizes=[1], groups=1, shift=1, seed=0)  # one round past a group of 1,024
@example(sizes=[2 * GROUP_PAIRS, 1], groups=2, shift=1, seed=1)  # a round over GROUP_PAIRS
@example(sizes=[0, 3, 0], groups=0, shift=2, seed=2)
@example(sizes=[0], groups=1, shift=0, seed=3)
def test_normal_rounds_give_the_bytes_of_repeated_standard_normals(sizes, groups, shift, seed):
    # counts around whole groups: the rounds and their order are those of
    # drawing each size in turn from the stream's generator, and the groups
    # read the rounds' uniforms, contiguous, exactly once
    width = sum((s + 1) // 2 for s in sizes)
    group = max(1, GROUP_PAIRS // max(width, 1))
    count = max(0, groups * group + shift)
    with _recorded_reads() as reads:
        got = list(normal_rounds(RngState(seed, 1), sizes, count))
    ref_gen = RngState(seed, 1).generator()
    expected = [[standard_normals(ref_gen, s) for s in sizes] for _ in range(count)]
    assert len(got) == count
    for round_got, round_expected in zip(got, expected):
        assert len(round_got) == len(sizes)
        for g, e in zip(round_got, round_expected):
            assert g.flags.c_contiguous and g.tobytes() == e.tobytes()
    done = 0
    for position, n in reads:
        assert position == done and n <= max(2 * GROUP_PAIRS, 2 * width)
        done += n
    assert done == 2 * width * count


# ---------------------------------------------------------------------------
# normals_at: a large run in halves, one on a helper thread


def _two_cpus() -> bool:
    affinity = getattr(os, "sched_getaffinity", None)
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2


class _JobSpy:
    """Stands for the helper's job queue: records the pairs of each front half."""

    def __init__(self, jobs, calls):
        self.jobs, self.calls = jobs, calls

    def put(self, job):
        self.calls.append(job[1])
        self.jobs.put(job)


@contextmanager
def _helper_handoffs():
    """The pairs of each front half put on the helper's job queue inside the block."""
    calls, jobs = [], numerics._box_muller_helper()
    with mock.patch.object(numerics, "_helper", None if jobs is None else _JobSpy(jobs, calls)):
        yield calls


def _handed_off(m: int) -> list[int]:
    """The handoffs of one call on m pairs: its front half where two CPUs are usable."""
    return [m // 2 & -4] if m >= SPLIT_PAIRS and _two_cpus() else []


def _inline_normals(rng: RngState, first: int, second: int, m: int) -> np.ndarray:
    """normals_at's pairs from two Philox generators started at their counters."""
    key = np.array([rng.seed, rng.stream], dtype=np.uint64)
    u1 = np.random.Generator(np.random.Philox(counter=first // 4, key=key)).random(m)
    u2 = np.random.Generator(np.random.Philox(counter=second // 4, key=key)).random(m)
    return box_muller(np.stack([u1, u2]))


@contextmanager
def _given_uniforms(pairs: np.ndarray):
    """Inside the block every read of numerics, on any thread, hands out the
    given (2, m) pairs as uniforms 0, 1, ..., 2m - 1 of every stream, so
    normals_at(rng, 0, m, out) transforms them."""
    flat = pairs.reshape(-1)

    def given(rng, position, out):
        out[...] = flat[position : position + out.size]
        return out

    with mock.patch.object(numerics, "uniforms_at", given):
        yield


@settings(max_examples=40, deadline=None)
@given(
    m=st.one_of(
        st.integers(1, 9),
        st.integers(SPLIT_PAIRS - 3, SPLIT_PAIRS + 3),
        st.integers(SPLIT_PAIRS, 5 * SPLIT_PAIRS),
    ),
    a=st.integers(0, 7),
    tail=st.integers(0, 3),
    first=st.integers(0, 2**40),
    gap=st.integers(-(2**20), 2**20),
    seed=st.integers(0, 2**64 - 1),
)
@example(m=SPLIT_PAIRS + 2, a=1, tail=1, first=0, gap=0, seed=0)  # h = 4,096 < m // 2
@example(m=5 * SPLIT_PAIRS + 3, a=0, tail=0, first=2**40, gap=-1, seed=2**64 - 1)  # odd m
def test_normals_at_in_halves_gives_the_inline_bytes(m, a, tail, first, gap, seed):
    # the layout of data._gaussian_chunks: the normals of m pairs written into
    # flat[2a : 2(a + m)], their first and second uniforms read at positions
    # (multiples of 4) before, after or overlapping one another
    rng = RngState(seed, seed // 5)
    first, second = 4 * first, 4 * max(0, first + gap)
    flat = np.full(2 * (a + m + tail), np.nan)
    with _helper_handoffs() as handoffs:
        got = normals_at(rng, first, second, flat[2 * a : 2 * (a + m)])
    assert got.tobytes() == _inline_normals(rng, first, second, m).tobytes()
    assert np.isnan(flat[: 2 * a]).all() and np.isnan(flat[2 * (a + m) :]).all()
    assert handoffs == _handed_off(m)


@pytest.mark.parametrize("n", [1, 2 * SPLIT_PAIRS - 1, 2 * SPLIT_PAIRS + 6, 10 * SPLIT_PAIRS + 5])
def test_normals_at_of_n_normals_in_halves_gives_the_whole_array_bytes(n):
    m = (n + 1) // 2
    with _helper_handoffs() as handoffs:
        got = normals_at(RngState(n), 0, m, np.empty(2 * m))[:n]
    assert got.tobytes() == standard_normals(RngState(n).generator(), n).tobytes()
    assert handoffs == _handed_off(m)


@pytest.mark.parametrize("m", [SPLIT_PAIRS + 1, SPLIT_PAIRS + 2, 3 * SPLIT_PAIRS + 3])
def test_normals_at_from_a_second_run_inside_a_philox_block_gives_standard_normals(m):
    # the drift check's layout: pairs take uniforms 0, 1, ... and m, m + 1,
    # ..., as standard_normals draws them, with m not a multiple of 4
    rng = RngState(m, 5)
    expected = standard_normals(rng.generator(), 2 * m).tobytes()
    with mock.patch.object(numerics, "_helper", None):
        assert normals_at(rng, 0, m, np.empty(2 * m)).tobytes() == expected
    with _helper_handoffs() as handoffs:
        assert normals_at(rng, 0, m, np.empty(2 * m)).tobytes() == expected
    assert handoffs == _handed_off(m)


def test_the_transform_raises_no_floating_point_flag_on_stream_uniforms():
    # every pair of edge uniforms, 128 times over, so both halves hold all of
    # them: no flag is raised inline or on the helper, which is why the
    # helper needs none of its callers' error modes
    edges = [0.0, 2.0**-53, np.nextafter(0.25, 0), 0.25, 0.5, 0.75, np.nextafter(0.75, 1), 1 - 2.0**-53]
    pairs = np.array(np.meshgrid(edges, edges)).reshape(2, -1)
    pairs = np.tile(pairs, SPLIT_PAIRS // pairs.shape[1])
    m, threads, real = pairs.shape[1], [], numerics._pairs

    def raising(u, out):
        threads.append(threading.current_thread().name)
        with np.errstate(all="raise"):
            return real(u, out)

    with np.errstate(all="raise"):
        inline = numerics._pairs(pairs.copy(), np.empty(2 * m))
    with mock.patch.object(numerics, "_pairs", raising), _helper_handoffs() as handoffs, _given_uniforms(pairs):
        got = normals_at(RngState(0), 0, m, np.empty(2 * m))
    assert got.tobytes() == inline.tobytes() == box_muller(pairs).tobytes()
    assert np.finfo(float).tiny < np.abs(got[got != 0]).min() and np.abs(got).max() < 8.58
    assert handoffs == _handed_off(m)
    assert threads.count("sgdstop-box-muller") == len(handoffs)


class _HelperFault(Exception):
    pass


def test_an_error_in_the_helpers_half_is_raised_by_the_caller_and_the_next_call_works():
    m = 4 * SPLIT_PAIRS + 1
    if numerics._box_muller_helper() is None:
        pytest.skip("one usable CPU: no helper computes a half")
    pairs, real = np.random.default_rng(3).random((2, m)), numerics._pairs

    def faulty(u, out):
        if threading.current_thread().name == "sgdstop-box-muller":
            raise _HelperFault(u.shape[1])
        return real(u, out)

    bad = np.empty(2 * m)
    with mock.patch.object(numerics, "_pairs", faulty), _helper_handoffs() as handoffs, _given_uniforms(pairs):
        with pytest.raises(_HelperFault) as error:
            normals_at(RngState(0), 0, m, bad)
    assert error.value.args == (m // 2 & -4,)  # the front half's pairs
    run = weakref.ref(bad)
    del bad, error
    gc.collect()
    assert run() is None  # the helper keeps no failed run alive either
    with _helper_handoffs() as more, _given_uniforms(pairs):
        got = normals_at(RngState(0), 0, m, np.empty(2 * m))
    assert got.tobytes() == box_muller(pairs).tobytes()
    assert handoffs == more == _handed_off(m)


def test_normals_at_keeps_no_run_alive():
    # neither the caller nor the helper holds a run's arrays once it returns:
    # its uniforms, transformed in place, nor its normals
    m, real, runs = SPLIT_PAIRS, numerics._pairs, []

    def recorded(u, out):
        runs.append(weakref.ref(u.base))
        return real(u, out)

    flat = np.empty(2 * m)
    with mock.patch.object(numerics, "_pairs", recorded), _helper_handoffs() as handoffs:
        normals_at(RngState(8), 0, 4 * m, flat)
    runs.append(weakref.ref(flat))
    del flat
    assert len(runs) == len(handoffs) + 2 and [run() is None for run in runs] == [True] * len(runs)
    assert handoffs == _handed_off(m)


def _normals_at(seed: int, m: int) -> np.ndarray:
    return normals_at(RngState(seed), 64, 4 * m, np.empty(2 * m))


class _CutShort:
    """Stands for a call's reply queue: the caller's wait on it is cut short
    by KeyboardInterrupt, and the helper's answer reaches ``answers``."""

    def __init__(self, answers):
        self.answers = answers

    def get(self):
        raise KeyboardInterrupt

    def put(self, error):
        self.answers.put(error)


def test_a_split_right_after_a_wait_cut_short_goes_to_the_helper():
    m = SPLIT_PAIRS
    expected = _inline_normals(RngState(5), 64, 4 * m, m).tobytes()
    if numerics._box_muller_helper() is None:
        pytest.skip("one usable CPU: normals_at never starts its helper")
    answers = queue.SimpleQueue()
    with mock.patch.object(numerics, "queue", SimpleNamespace(SimpleQueue=lambda: _CutShort(answers))):
        with pytest.raises(KeyboardInterrupt):
            _normals_at(5, m)
    # the next split is handed to the helper, queued behind the cut-short one
    with _helper_handoffs() as handoffs:
        assert _normals_at(5, m).tobytes() == expected
    assert handoffs == _handed_off(m)
    assert answers.get(timeout=10) is None  # the late answer went to the cut-short call's reply


def _forked_normals_at_is_inline(m: int) -> bool:
    """normals_at in a forked child returns and gives the inline bytes."""
    expected = _inline_normals(RngState(6), 64, 4 * m, m).tobytes()
    pid = os.fork()
    if pid == 0:
        os._exit(0 if _normals_at(6, m).tobytes() == expected else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status) == 0
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("normals_at in a forked child did not return")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_normals_at_in_a_forked_child_gives_the_inline_bytes():
    # the helper thread is not copied into a child, which must start its own
    # or compute inline rather than wait for a thread it does not have
    m = SPLIT_PAIRS
    _normals_at(6, m)  # the parent's helper, if any, has run
    assert _forked_normals_at_is_inline(m)
    jobs = numerics._box_muller_helper()
    if jobs is None:
        return
    # a child forked while the parent's helper is mid-job starts its own
    busy, release, reply = threading.Event(), threading.Event(), queue.SimpleQueue()
    jobs.put((lambda a, b: busy.set() or release.wait(60), 0, reply))
    try:
        assert busy.wait(60)
        assert _forked_normals_at_is_inline(m)
    finally:
        release.set()
    assert reply.get(timeout=60) is None


def test_normals_at_from_more_threads_than_cpus_gives_the_inline_bytes():
    # the callers queue their front halves on the one helper, whose reader
    # reads each caller's stream in turn, and each waits on its own reply:
    # every output must still be exact
    m = SPLIT_PAIRS + 7
    expected = [_inline_normals(RngState(seed), 64, 4 * m, m).tobytes() for seed in range(4)]
    wrong = []

    def work(seed):
        for _ in range(25):
            got = normals_at(RngState(seed), 64, 4 * m, np.empty(2 * m))
            if got.tobytes() != expected[seed]:
                wrong.append(seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(len(expected))]
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
    helpers = [th for th in threading.enumerate() if th.name == "sgdstop-box-muller"]
    assert len(helpers) == int(_two_cpus())


_FIRST_SPLITS = """
import hashlib, json, sys, threading
import numpy as np
import sgdstop
from sgdstop.numerics import RngState, normals_at

def helpers():
    return sum(th.name == "sgdstop-box-muller" for th in threading.enumerate())

m, outs = int(sys.argv[1]), {}
after_import, ready = helpers(), threading.Barrier(8)

def work(seed):
    out = np.empty(2 * m)
    ready.wait(60)
    outs[seed] = hashlib.sha256(normals_at(RngState(seed), 64, 4 * m, out).tobytes()).hexdigest()

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(seed,), daemon=True) for seed in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(json.dumps([after_import, helpers(), [outs.get(seed) for seed in range(8)]]))
"""


def test_first_splits_racing_in_a_fresh_process_start_one_helper():
    # eight threads make a fresh process's first splits at once: one helper
    # starts on two CPUs and none on one, and none at import
    m = SPLIT_PAIRS
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", _FIRST_SPLITS, str(m)], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    after_import, helpers, digests = json.loads(child.stdout)
    expected = [_inline_normals(RngState(seed), 64, 4 * m, m).tobytes() for seed in range(8)]
    assert (after_import, helpers) == (0, int(_two_cpus()))
    assert digests == [hashlib.sha256(normals).hexdigest() for normals in expected]


def test_student_t2_quantile_fixture():
    # u = 1 - 0.1 = 0.9 maps through the inverse CDF to the frozen quantile
    x = student_t2(np.array([0.1]))
    assert x[0] == pytest.approx(T2_QUANTILE_09, abs=1e-15)
    # median at u = 0.5
    assert student_t2(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)


def test_student_t2_empirical_cdf():
    x = student_t2(uniforms_at(RngState(23), 0, np.empty(200_000)))
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
