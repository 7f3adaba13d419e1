"""Tests for folding, synthetic streams, centering, and the dataset parsers."""

import itertools
import math
import os
import struct
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import box_muller, first_rows, fold, standard_normals
from sgdstop import data, numerics
from sgdstop.data import (
    BLOCK_ROWS,
    MIXTURE_CHUNK_ROWS,
    Block,
    CenteringStats,
    Cifar10Error,
    CsvError,
    IdxBadMagic,
    IdxDimOverflow,
    IdxError,
    IdxTruncated,
    ParseError,
    accuracy_on_set,
    center_and_fold,
    center_and_fold_split,
    effective_step,
    folded_gaussian_stream,
    gaussian_mixture_sampler,
    load_cifar10_batch,
    load_csv_points,
    load_idx,
    make_binary_task,
    student_t2_mixture_sampler,
)
from sgdstop.losses import LossKind
from sgdstop.numerics import RngState, normals_at, uniforms_at
from sgdstop.sgd import SgdConfig, StopReason, run


def _idx_bytes(magic, dims, payload):
    head = struct.pack(">I", magic) + b"".join(struct.pack(">I", d) for d in dims)
    return head + payload


def _rows(blocks):
    """Labeled rows (y, zeta) of a block stream, one at a time."""
    for block in blocks:
        yield from zip(block.y.tolist(), block.zeta)


def _block(y, zeta):
    return Block(np.array(y), np.array(zeta, dtype=float))


# ---------------------------------------------------------------------------
# folding


def test_fold_hand_case():
    off = np.array([1.0, 1.0])
    block = _block([1, 0], [[3.0, 2.0], [3.0, 2.0]])
    out = fold(block, off)
    assert np.array_equal(out[0], np.array([2.0, 1.0]))
    assert np.array_equal(out[1], np.array([-2.0, -1.0]))


@given(
    st.integers(0, 1),
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5),
    st.floats(-10.0, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_fold_sign_matches_classification(y, zeta, shift):
    # a folded margin is positive exactly when the raw point is classified
    # into its own class by the centered rule
    zeta = np.array(zeta)
    offset = np.full_like(zeta, shift)
    theta = np.ones_like(zeta)
    folded_margin = float(fold(_block([y], [zeta]), offset)[0] @ theta)
    raw_side = float((zeta - offset) @ theta)
    correct = raw_side > 0 if y == 1 else raw_side < 0
    assert (folded_margin > 0) == correct


# values that fold to signed zeros (equal to an offset entry) and infinities
_FOLD_SPECIALS = st.sampled_from([0.0, -0.0, 1.5, -2.0])
_FOLD_VALUES = _FOLD_SPECIALS | st.floats(allow_nan=True, allow_infinity=True)


def _same_bits_or_nan(out, ref):
    """Equal bytes wherever ref is not NaN, and NaN exactly where ref is."""
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(out), nan)
    assert np.where(nan, 0.0, out).tobytes() == np.where(nan, 0.0, ref).tobytes()


@given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_fold_and_stream_fold_bit_equal_to_formula(data, d, n):
    # both folds (a held-out set through fold, a stream through
    # center_and_fold) against the literal formula with its integer signs
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    zeta = data.draw(arrays(float, (n, d), elements=_FOLD_VALUES))
    offset = data.draw(
        arrays(float, d, elements=_FOLD_SPECIALS | st.floats(-1e300, 1e300))
    )
    before = zeta.copy()
    # zeta - offset may overflow to an infinity, and inf * 0 is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        ref = (2 * y - 1)[:, None] * (zeta - offset)
        _same_bits_or_nan(fold(Block(y, zeta), offset), ref)
    assert zeta.tobytes() == before.tobytes()  # fold leaves its input alone

    # centering rows whose class means are both ``offset``, so the stream's
    # offset is ``offset`` up to the sign of a zero
    prefix = Block(np.array([0, 1]), np.stack([offset, offset]))
    stats, rows = center_and_fold(iter([prefix, Block(y, zeta)]), n=2)
    assert np.array_equal(stats.offset, offset)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = (2 * y - 1)[:, None] * (zeta - stats.offset)
        _same_bits_or_nan(np.stack(list(rows)), ref)


def test_fold_block_stacks_in_order():
    block = Block(np.array([1, 0]), np.array([[2.0, 0.0], [0.0, 3.0]]))
    out = fold(block, np.zeros(2))
    assert out.shape == (2, 2)
    assert np.array_equal(out[0], [2.0, 0.0])
    assert np.array_equal(out[1], [0.0, -3.0])
    # a new matrix: the block itself is not folded
    assert np.array_equal(block.zeta, [[2.0, 0.0], [0.0, 3.0]])


# ---------------------------------------------------------------------------
# synthetic streams


def test_gaussian_mixture_sampler_deterministic():
    # chunks of 128 rows, two per 256-row block, each a view of its block's
    # one array; two streams of the same state agree chunk for chunk
    mu0, mu1 = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
    a = list(itertools.islice(gaussian_mixture_sampler(mu0, mu1, 0.5, RngState(1)), 3))
    b = list(itertools.islice(gaussian_mixture_sampler(mu0, mu1, 0.5, RngState(1)), 3))
    assert MIXTURE_CHUNK_ROWS * 2 == BLOCK_ROWS
    for x, y in zip(a, b):
        assert x.y.shape == (MIXTURE_CHUNK_ROWS,) and x.zeta.shape == (MIXTURE_CHUNK_ROWS, 2)
        assert np.array_equal(x.y, y.y)
        assert np.array_equal(x.zeta, y.zeta)
    assert a[0].zeta.base is a[1].zeta.base and a[2].zeta.base is not a[0].zeta.base


def _mixture_reference_block(gen, means, sigma):
    ys = (gen.random(BLOCK_ROWS) < 0.5).astype(int)
    d = means.shape[1]
    return ys, means[ys] + sigma * standard_normals(gen, BLOCK_ROWS * d).reshape(BLOCK_ROWS, d)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 40),
    sigma=st.sampled_from([0.0, 0.3]),
    reads=st.lists(st.integers(1, 300), min_size=1, max_size=5),
    seed=st.integers(0, 2**32),
)
@example(d=1, sigma=0.3, reads=[127, 1, 1, 127, 1], seed=0)
@example(d=7, sigma=0.3, reads=[256, 256, 1], seed=1)
@example(d=40, sigma=0.0, reads=[128, 128, 129, 255], seed=2)
# whole-block chunks, read across blocks
@example(d=64, sigma=0.3, reads=[255, 2, 300], seed=3)
@example(d=100, sigma=0.0, reads=[255, 2, 300], seed=4)
@example(d=127, sigma=0.3, reads=[1, 256, 300], seed=5)
def test_gaussian_mixture_sampler_matches_whole_block_reference(d, sigma, reads, seed):
    # rows whose uniforms are read chunk by chunk at their positions equal,
    # bit for bit, whole blocks drawn in turn from one generator of the same
    # state as 256 coins then standard_normals
    means = np.stack([np.linspace(-1.0, 2.0, d), np.linspace(0.5, -0.5, d)])
    means[1, 0] = -0.0  # a signed zero must survive sigma = 0
    ref_gen = RngState(seed).generator()
    stream = gaussian_mixture_sampler(means[0], means[1], sigma, RngState(seed))
    pending = np.empty((0, d)), np.empty(0, dtype=int)
    ref_z, ref_y = np.empty((0, d)), np.empty(0, dtype=int)
    for n in reads:
        while pending[0].shape[0] < n:
            chunk = next(stream)
            pending = np.concatenate([pending[0], chunk.zeta]), np.concatenate([pending[1], chunk.y])
        while ref_z.shape[0] < n:
            ys, z = _mixture_reference_block(ref_gen, means, sigma)
            ref_z, ref_y = np.concatenate([ref_z, z]), np.concatenate([ref_y, ys])
        got_z, got_y = pending[0][:n], pending[1][:n]
        assert np.array_equal(got_y, ref_y[:n])
        assert np.array_equal(got_z.view(np.uint64), ref_z[:n].view(np.uint64))
        pending = pending[0][n:], pending[1][n:]
        ref_z, ref_y = ref_z[n:], ref_y[n:]


@pytest.mark.parametrize(
    "d, rows", [(2, 128), (63, 128), (64, 256), (100, 256), (127, 256), (128, 128), (500, 128)]
)
def test_gaussian_mixture_chunk_rows_reach_the_split(d, rows):
    # a whole block where its pairs reach numerics.SPLIT_PAIRS but 128 rows'
    # do not, 128 rows everywhere else
    chunk = next(gaussian_mixture_sampler(np.zeros(d), np.ones(d), 1.0, RngState(0)))
    assert chunk.y.shape == (rows,) and chunk.zeta.shape == (rows, d)


def test_gaussian_mixture_sampler_draws_a_chunk_and_its_blocks_coins(monkeypatch):
    # d = 3: a block is 256 coins, then 384 first and 384 second uniforms of
    # its pairs; a chunk of 128 rows reads 192 of each, its block's coins once
    draws = _record_draws(monkeypatch)
    stream = gaussian_mixture_sampler(np.zeros(3), np.ones(3), 1.0, RngState(4))
    next(stream)
    assert draws == [(0, 256), (256, 192), (640, 192)]
    next(stream)
    assert draws[3:] == [(448, 192), (832, 192)]
    next(stream)
    assert draws[5:] == [(1024, 256), (1280, 192), (1664, 192)]


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=1, max_size=20,
    )
)
@example(u=[(0.0, 0.0), (0.0, 0.25), (0.5, 0.75)])  # 1 - u = 1: a radius of -0.0
def test_box_muller_matches_reference_formula(u):
    pairs = np.array(u).T.copy()
    u1, u2 = 1.0 - pairs[0], pairs[1]
    r_ref = np.sqrt(-2.0 * np.log(u1))
    expected = np.empty(2 * pairs.shape[1])
    expected[0::2] = r_ref * np.cos(2.0 * np.pi * u2)
    expected[1::2] = r_ref * np.sin(2.0 * np.pi * u2)
    got = numerics._pairs(pairs.copy(), np.empty(expected.size))
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(box_muller(pairs).view(np.uint64), expected.view(np.uint64))


def test_gaussian_mixture_sampler_statistics():
    mu0, mu1 = np.array([-2.0, 1.0]), np.array([2.0, 1.0])
    pts = first_rows(gaussian_mixture_sampler(mu0, mu1, 0.5, RngState(2)), 10_000)
    ys = pts.y
    assert ys.shape == (10_000,)
    assert abs(ys.mean() - 0.5) < 4.0 * 0.5 / math.sqrt(10_000)
    z1 = pts.zeta[ys == 1]
    z0 = pts.zeta[ys == 0]
    se = 0.5 / math.sqrt(min(len(z0), len(z1)))
    assert np.all(np.abs(z1.mean(axis=0) - mu1) < 4.0 * se)
    assert np.all(np.abs(z0.mean(axis=0) - mu0) < 4.0 * se)


def test_gaussian_mixture_sampler_validation():
    with pytest.raises(ValueError):
        next(gaussian_mixture_sampler(np.zeros(2), np.zeros(3), 1.0, RngState(1)))
    with pytest.raises(ValueError):
        next(gaussian_mixture_sampler(np.zeros(2), np.zeros(2), -1.0, RngState(1)))


def test_symmetric_mixture_folds_to_configured_mean():
    # class means -mu and +mu with a zero offset give folded mean exactly mu
    mu = np.array([1.5, -0.5, 0.25])
    xis = fold(first_rows(gaussian_mixture_sampler(-mu, mu, 0.3, RngState(3)), 20_000), np.zeros(3))
    se = 0.3 / math.sqrt(20_000)
    assert np.all(np.abs(xis.mean(axis=0) - mu) < 4.0 * se)


def test_student_t2_mixture_sampler_shape_and_split():
    pts = first_rows(student_t2_mixture_sampler(0.1, 3, RngState(4)), 20_000)
    ys = pts.y
    z = pts.zeta
    assert z.shape == (20_000, 3)
    assert np.all(np.isfinite(z))
    # first coordinate separates by the class shift of +1; t2 is symmetric
    # so class-conditional medians are 0 and 1
    med1 = float(np.median(z[ys == 1, 0]))
    med0 = float(np.median(z[ys == 0, 0]))
    assert abs(med0 - 0.0) < 0.02
    assert abs(med1 - 1.0) < 0.02
    # off-shift coordinates are centered for both classes
    assert abs(float(np.median(z[:, 1]))) < 0.02
    with pytest.raises(ValueError):
        next(student_t2_mixture_sampler(-0.1, 3, RngState(1)))
    with pytest.raises(ValueError):
        next(student_t2_mixture_sampler(0.1, 0, RngState(1)))


def test_student_t2_zero_uniform_is_infinite_and_diverges(monkeypatch):
    # a uniform of exactly 0 is the t2 inverse CDF at 1: an infinite entry,
    # which must stop a run as diverged rather than poison it silently
    def zeros(rng, position, out):
        out[...] = 0.0
        return out

    monkeypatch.setattr(data, "uniforms_at", zeros)
    block = next(student_t2_mixture_sampler(0.1, 2, RngState(0)))
    assert np.all(np.isinf(block.zeta))
    rows = iter(fold(block, np.zeros(2)))
    with np.errstate(invalid="ignore"):  # inf * 0 in the first margin
        res = run(rows, SgdConfig(LossKind.LOGISTIC, 0.1, max_iter=100))
    assert res.stop_reason is StopReason.DIVERGED
    assert res.iterations == 0


def _t2_reference_block(gen, beta, d):
    """A t2 block drawn from a generator in turn: 256 coins, then its 256 d
    entries by the inverse CDF on 1 - u."""
    ys = (gen.random(BLOCK_ROWS) < 0.5).astype(int)
    v = 1.0 - gen.random(BLOCK_ROWS * d)
    zeta = beta * ((2.0 * v - 1.0) / np.sqrt(2.0 * v * (1.0 - v))).reshape(BLOCK_ROWS, d)
    zeta[:, 0] += ys
    return ys, zeta


@settings(max_examples=20, deadline=None)
@given(half_d=st.integers(0, 12), beta=st.sampled_from([0.0, 0.1, 2.5]), seed=st.integers(0, 2**64 - 1))
def test_student_t2_blocks_are_read_where_a_generator_draws_them(half_d, beta, seed):
    # block k's coins are read from uniform k 256 (d + 1) on and its entries
    # right after them, where a generator drawing the blocks in turn has them
    d = 2 * half_d + 1
    gen = RngState(seed).generator()
    stream = student_t2_mixture_sampler(beta, d, RngState(seed))
    for _ in range(3):
        got, (ys, zeta) = next(stream), _t2_reference_block(gen, beta, d)
        assert np.array_equal(got.y, ys)
        assert got.zeta.tobytes() == zeta.tobytes()


def _folded_reference(mu, sigma, rng, n):
    """The first n rows of a folded stream as whole blocks of mu + sigma *
    standard_normals(gen, 256 d), drawn in turn from one generator."""
    gen, d = rng.generator(), mu.shape[0]
    blocks = -(-n // BLOCK_ROWS)
    noise = [standard_normals(gen, BLOCK_ROWS * d).reshape(BLOCK_ROWS, d) for _ in range(blocks)]
    return mu + sigma * np.concatenate(noise)[:n]


def _record_draws(monkeypatch):
    """The positioned draws of the data layer's Gaussian source from now on,
    each recorded as (position, count)."""
    draws = []

    def counted(rng, position, out):
        draws.append((position, out.size))
        return uniforms_at(rng, position, out)

    def counted_pairs(rng, first, second, out):
        draws.extend([(first, out.size // 2), (second, out.size // 2)])
        return normals_at(rng, first, second, out)

    monkeypatch.setattr(data, "uniforms_at", counted)
    monkeypatch.setattr(data, "normals_at", counted_pairs)
    return draws


def test_folded_gaussian_stream_zero_sigma_and_alignment():
    mu = np.array([1.0, -2.0])
    xs = np.stack(list(itertools.islice(folded_gaussian_stream(mu, 0.0, RngState(5)), 300)))
    assert np.array_equal(xs, np.broadcast_to(mu, xs.shape))
    # each block's uniforms sit where the whole-block layout puts them,
    # whatever sigma, so rows past a block boundary match it at every sigma
    for sigma in (0.0, 0.5, 1.0):
        got = np.stack(list(itertools.islice(folded_gaussian_stream(mu, sigma, RngState(5)), 300)))
        ref = _folded_reference(mu, sigma, RngState(5), 300)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_folded_gaussian_stream_draws_only_the_chunks_it_reaches(monkeypatch):
    # d = 10: a 32-row chunk is 160 pairs, whose first uniforms start at the
    # chunk's first pair and whose second uniforms 1,280 (128 d) later
    mu = np.linspace(-1.0, 1.0, 10)
    draws = _record_draws(monkeypatch)
    stream = folded_gaussian_stream(mu, 0.3, RngState(8))
    first = next(stream)
    assert draws == [(0, 160), (1280, 160)]
    assert sum(n for _, n in draws) == 320
    assert np.array_equal(first, _folded_reference(mu, 0.3, RngState(8), 1)[0])
    assert len(list(itertools.islice(stream, 31))) == 31
    assert len(draws) == 2  # the chunk's other 31 rows draw nothing more
    next(stream)
    assert draws[2:] == [(160, 160), (1440, 160)]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 40),
    sigma=st.sampled_from([0.0, 0.3]),
    reads=st.lists(st.integers(1, 300), min_size=1, max_size=5),
    seed=st.integers(0, 2**32),
)
@example(d=1, sigma=0.3, reads=[31, 1, 1, 223, 1], seed=0)
@example(d=7, sigma=0.3, reads=[256, 256, 1], seed=1)
@example(d=40, sigma=0.0, reads=[32, 224, 1, 255, 1], seed=2)
@example(d=2, sigma=0.3, reads=[33, 300, 179], seed=3)
def test_folded_gaussian_stream_matches_whole_block_reference(d, sigma, reads, seed):
    # rows whose uniforms are read chunk by chunk at their positions equal,
    # bit for bit, whole blocks of standard_normals drawn in turn from one
    # generator of the same state
    mu = np.linspace(-1.0, 2.0, d)
    stream = folded_gaussian_stream(mu, sigma, RngState(seed))
    ref = _folded_reference(mu, sigma, RngState(seed), sum(reads))
    consumed = 0
    for n in reads:
        got = np.stack([next(stream) for _ in range(n)])
        assert np.array_equal(got.view(np.uint64), ref[consumed : consumed + n].view(np.uint64))
        consumed += n


def test_folded_gaussian_stream_moments():
    mu = np.array([0.5, 1.0, -1.0])
    xs = np.stack(list(itertools.islice(folded_gaussian_stream(mu, 0.7, RngState(6)), 20_000)))
    se = 0.7 / math.sqrt(20_000)
    assert np.all(np.abs(xs.mean(axis=0) - mu) < 4.0 * se)
    assert np.all(np.abs(xs.std(axis=0) - 0.7) < 4.0 * se)


# ---------------------------------------------------------------------------
# streams read side by side: each thread reads every stream through its own
# Philox reader, keyed per read


def _folded(seed: int, d: int = 3):
    return folded_gaussian_stream(np.linspace(-1.0, 1.0, d), 0.3, RngState(seed))


def _folded_bytes(seed: int, n: int) -> bytes:
    return np.stack(list(itertools.islice(_folded(seed), n))).tobytes()


def _mixture_bytes(stream, n: int) -> bytes:
    chunks = list(itertools.islice(stream, n))
    return b"".join(c.y.tobytes() + c.zeta.tobytes() for c in chunks)


def test_folded_streams_interleaved_row_by_row_give_their_own_bytes():
    # 300 rows cross 32-row chunks and a 256-row block of each stream
    n = 300
    a, b = _folded(1), _folded(2)
    rows = [(next(a), next(b)) for _ in range(n)]
    assert np.stack([x for x, _ in rows]).tobytes() == _folded_bytes(1, n)
    assert np.stack([y for _, y in rows]).tobytes() == _folded_bytes(2, n)


@pytest.mark.parametrize("d, n", [(3, 40), (100, 6)])  # inline chunks; whole blocks in halves
def test_mixture_streams_read_from_two_threads_give_their_own_bytes(d, n):
    def mixture(seed):
        return gaussian_mixture_sampler(np.zeros(d), np.ones(d), 0.5, RngState(seed))

    alone = {seed: _mixture_bytes(mixture(seed), n) for seed in (1, 2)}
    got, start = {}, threading.Barrier(2)

    def work(seed):
        stream = mixture(seed)
        start.wait(60)
        got[seed] = _mixture_bytes(stream, n)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in alone]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert got == alone


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_stream_read_in_a_forked_child_gives_its_own_bytes():
    # the child inherits this thread's reader as the parent left it, mid-stream
    n = 300
    expected = _folded_bytes(7, n), _folded_bytes(8, n)
    parent = _folded(8)
    first = next(parent)
    pid = os.fork()
    if pid == 0:
        rows = [(x, next(parent)) for x in itertools.islice(_folded(7), n - 1)]
        mine = np.stack([x for x, _ in rows]).tobytes() == expected[0][: (n - 1) * 3 * 8]
        inherited = np.stack([first] + [y for _, y in rows]).tobytes() == expected[1]
        os._exit(0 if mine and inherited else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child did not return")


class _Recording:
    """A generator whose permutations are kept, in the order they are drawn."""

    def __init__(self, rng):
        self.gen = rng.generator()
        self.orders = []

    def permutation(self, n):
        self.orders.append(self.gen.permutation(n))
        return self.orders[-1]


def _split_stream(ds, rng, epochs, limit=None, n=2):
    """The feature rows of ``ds`` that a center_and_fold_split stream reads,
    in order: its n_used centering rows (the first places of the permutations
    drawn), then the row of each view it hands out (the first epoch's row at
    the view's place in the buffer), which must be the next place of those
    permutations."""
    gen, out = _Recording(rng), np.empty(ds.zeta.shape)
    stats, rows = center_and_fold_split(ds, gen, n, epochs, out)
    handed = [gen.orders[0][(r.ctypes.data - out.ctypes.data) // out.strides[0]]
              for r in itertools.islice(rows, limit)]
    read = np.concatenate(gen.orders)[: stats.n_used].tolist() + handed
    assert read == np.concatenate(gen.orders)[: len(read)].tolist()
    return [ds.zeta[i] for i in read]


def test_dataset_stream_epoch_accounting():
    ds = Block(np.arange(7) % 2, np.stack([np.arange(7.0), np.ones(7)], axis=1))
    one = _split_stream(ds, RngState(7), 1)
    assert len(one) == 7
    two = _split_stream(ds, RngState(7), 2)
    assert len(two) == 14
    # each epoch is a permutation of the rows
    want = sorted(float(v[0]) for v in ds.zeta)
    assert sorted(float(v[0]) for v in one) == pytest.approx(want)
    assert sorted(float(v[0]) for v in two[7:]) == pytest.approx(want)
    # reshuffled between epochs for this seed
    assert [float(v[0]) for v in two[:7]] != [float(v[0]) for v in two[7:]]


def test_dataset_stream_infinite_when_epochs_none():
    ds = Block(np.array([0, 1]), np.array([[0.0], [1.0]]))
    xs = _split_stream(ds, RngState(8), None, limit=9)
    assert len(xs) == 11


# ---------------------------------------------------------------------------
# centering and effective step


def test_estimate_centering_noise_free_exact():
    blocks = [_block([0, 1, 0, 1], [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [2.0, 2.0]])]
    stats, _ = center_and_fold(iter(blocks), n=4)
    assert isinstance(stats, CenteringStats)
    assert np.array_equal(stats.mean0, [0.0, 0.0])
    assert np.array_equal(stats.mean1, [2.0, 2.0])
    assert np.array_equal(stats.offset, [1.0, 1.0])
    assert stats.sigma2_tilde == 0.0
    assert stats.n_used == 4


def test_estimate_centering_residual_scale():
    # residual second moment estimates sigma^2 d for the Gaussian mixture
    d, sigma = 6, 0.5
    mu = np.zeros(d)
    mu[0] = 1.0
    stream = gaussian_mixture_sampler(-mu, mu, sigma, RngState(9))
    stats, _ = center_and_fold(stream, n=4000)
    assert stats.sigma2_tilde == pytest.approx(sigma * sigma * d, rel=0.1)


def test_estimate_centering_resamples_once_for_missing_class():
    ones = _block([1] * 4, [[float(i)] for i in range(4)])
    mixed = _block([0, 1] * 2, [[10.0], [0.0]] * 2)
    stats, _ = center_and_fold(iter([ones, mixed]), n=4)
    assert stats.n_used == 8
    still_missing = _block([1] * 10, [[float(i)] for i in range(10)])
    with pytest.raises(ValueError):
        center_and_fold(iter([still_missing]), n=4)
    with pytest.raises(ValueError):
        center_and_fold(iter([ones]), n=1)


# ---------------------------------------------------------------------------
# the block pipeline against a per-point reference


def _per_point_reference(rows, n):
    """Centering and folding one row at a time, as a per-sample pipeline
    would: stats from the first n rows (2n if a class is missing), then
    (2y - 1)(zeta - offset) for every later row.  None if a class is absent."""
    batch = rows[:n]
    if {y for y, _ in batch} != {0, 1}:
        batch = rows[: 2 * n]
    if {y for y, _ in batch} != {0, 1}:
        return None
    z = np.stack([zeta for _, zeta in batch])
    y = np.array([label for label, _ in batch])
    mean0 = z[y == 0].mean(axis=0)
    mean1 = z[y == 1].mean(axis=0)
    resid = z - np.where(y[:, None] == 0, mean0, mean1)
    stats = CenteringStats(
        mean0=mean0,
        mean1=mean1,
        offset=0.5 * (mean0 + mean1),
        sigma2_tilde=float(np.mean(np.sum(resid * resid, axis=1))),
        n_used=len(batch),
    )
    folded = [(2 * label - 1) * (zeta - stats.offset) for label, zeta in rows[len(batch):]]
    return stats, folded


def _check_against_reference(make_blocks, n, limit=None, centered=None):
    """Run the block pipeline over ``make_blocks()`` (or ``centered(n)``, a
    pipeline that reads the same rows) and compare it bit for bit with the
    per-point reference over the raw rows of a second, untouched
    ``make_blocks()`` stream: every row after the centering rows (up to
    ``limit``) must be handed out, so a pipeline that stops early fails."""
    raw = list(itertools.islice(_rows(make_blocks()), None if limit is None else 2 * n + limit))
    want = _per_point_reference(raw, n)
    try:
        stats, rows = centered(n) if centered else center_and_fold(make_blocks(), n)
    except ValueError:
        assert want is None
        return
    assert want is not None
    want_stats, want_rows = want
    rows = list(itertools.islice(rows, limit))
    assert stats.n_used == want_stats.n_used
    assert stats.sigma2_tilde == want_stats.sigma2_tilde
    for field in ("mean0", "mean1", "offset"):
        assert getattr(stats, field).tobytes() == getattr(want_stats, field).tobytes()
    assert len(rows) == len(want_rows[:limit])
    for got, ref in zip(rows, want_rows):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@given(
    d=st.integers(1, 4),
    sizes=st.lists(st.integers(1, 300) | st.sampled_from([128, 256]), min_size=1, max_size=6),
    n=st.sampled_from([2, 3, 100, 128, 255, 256, 257, 300, 511, 600]),
    ones_prefix=st.integers(0, 700),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, sizes=[256, 256], n=256, ones_prefix=0, seed=1)  # centering ends a block
@example(d=2, sizes=[256, 256], n=128, ones_prefix=128, seed=1)  # so does the 2n read
@example(d=1, sizes=[2, 3], n=2, ones_prefix=0, seed=4)
@settings(max_examples=60, deadline=None)
def test_center_and_fold_matches_per_point_reference(d, sizes, n, ones_prefix, seed):
    # arbitrary block boundaries, centering that reads below, at and past a
    # block, and a leading run of one class that forces the 2n read (or an
    # error when it covers both reads)
    gen = RngState(seed).generator()
    blocks = []
    start = 0
    for size in sizes:
        y = (gen.random(size) < 0.5).astype(int)
        y[: max(0, ones_prefix - start)] = 1
        blocks.append(Block(y, gen.standard_normal((size, d))))
        start += size
    _check_against_reference(lambda: (Block(b.y.copy(), b.zeta.copy()) for b in blocks), n)


def _epochs_gathered(ds, rng, epochs, divisor=1.0):
    """The labeled rows of shuffled epochs of ``ds``, one gen.permutation per
    epoch, each row gathered and its features divided by ``divisor``."""
    gen = rng.generator()
    for _ in itertools.count() if epochs is None else range(epochs):
        for i in gen.permutation(ds.y.shape[0]).tolist():
            yield Block(ds.y[i : i + 1], ds.zeta[i : i + 1].astype(float) / divisor)


@given(
    d=st.integers(1, 4),
    n_rows=st.integers(2, 700),
    n=st.sampled_from([2, 50, 255, 256, 257, 400]),
    epochs=st.sampled_from([1, 2, None]),
    minority=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, n_rows=300, n=256, epochs=2, minority=150, seed=3)  # centering ends a chunk
@example(d=2, n_rows=300, n=300, epochs=2, minority=150, seed=3)  # so does the epoch
@settings(max_examples=40, deadline=None)
def test_dataset_stream_pipeline_matches_reference_and_keeps_dataset(
    d, n_rows, n, epochs, minority, seed
):
    # a finite dataset that usually ends mid-block, possibly with few rows
    # of one class, against the shuffled epochs gathered row by row; the
    # fold must never touch the dataset's storage
    gen = RngState(seed).generator()
    y = np.ones(n_rows, dtype=int)
    y[: min(minority, n_rows - 1)] = 0
    ds = Block(y, gen.standard_normal((n_rows, d)))
    y_before, zeta_before = ds.y.copy(), ds.zeta.copy()
    out = np.empty(ds.zeta.shape)
    _check_against_reference(
        lambda: _epochs_gathered(ds, RngState(seed, 1), epochs),
        n,
        limit=1000 if epochs is None else None,
        centered=lambda n: center_and_fold_split(ds, RngState(seed, 1).generator(), n, epochs, out),
    )
    assert np.array_equal(ds.y, y_before)
    assert ds.zeta.tobytes() == zeta_before.tobytes()


@pytest.mark.parametrize("divisor", [255.0, 1.0])
@pytest.mark.parametrize("n", [2, 40, 90, 150])
def test_pixel_split_pipeline_matches_reference(monkeypatch, divisor, n):
    # a uint8 split stays uint8: its features are divided (or cast, at 1.0)
    # as they are folded, bit for bit as a float copy divided row by row;
    # centering reads within one epoch, to its end and into the next, and
    # the first epoch folds in 7-row chunks, the last one short
    monkeypatch.setattr(data, "FOLD_ELEMENTS", 35)
    gen = RngState(21).generator()
    y = (gen.random(90) < 0.3).astype(int)
    y[:2] = [0, 1]
    ds = Block(y, gen.integers(0, 256, size=(90, 5)).astype(np.uint8))
    before = ds.zeta.tobytes()
    out = np.empty(ds.zeta.shape)
    _check_against_reference(
        lambda: _epochs_gathered(ds, RngState(22), 3, divisor),
        n,
        centered=lambda n: center_and_fold_split(
            ds, RngState(22).generator(), n, 3, out, divisor
        ),
    )
    assert ds.zeta.dtype == np.uint8 and ds.zeta.tobytes() == before


def test_split_rows_are_read_only_views_of_the_buffer():
    ds = Block(np.array([0, 1, 0, 1]), np.arange(12, dtype=np.uint8).reshape(4, 3))
    out = np.empty((4, 3))
    _, rows = center_and_fold_split(ds, RngState(3).generator(), 2, None, out)
    for row in itertools.islice(rows, 6):
        assert np.shares_memory(row, out)
        with pytest.raises(ValueError):
            row[0] = 1.0
    assert out.flags.writeable  # the next run folds into it again
    for wrong in (np.empty((4, 2)), np.empty((4, 3), dtype=np.float32)):
        with pytest.raises(ValueError):
            center_and_fold_split(ds, RngState(3).generator(), 2, None, wrong)
    with pytest.raises(ValueError):
        center_and_fold_split(ds, RngState(3).generator(), 1, None, out)


def test_split_folds_only_the_chunks_a_run_reaches(monkeypatch):
    monkeypatch.setattr(data, "FOLD_ELEMENTS", 8)  # 4 rows of 2 per chunk
    ds = Block(np.arange(40) % 2, np.ones((40, 2)))
    out = np.full((40, 2), np.nan)
    _, rows = center_and_fold_split(ds, RngState(5).generator(), 2, 1, out)
    assert np.isnan(out).all()  # centering gathers its own rows
    for _ in range(3):  # three rows past the centering rows, all within the first 8
        next(rows)
    assert not np.isnan(out[:8]).any() and np.isnan(out[8:]).all()


def test_split_draws_each_epoch_when_the_last_runs_out():
    ds = Block(np.arange(10) % 2, np.zeros((10, 2)))
    gen = _Recording(RngState(4))
    _, rows = center_and_fold_split(ds, gen, 4, None, np.empty((10, 2)))
    assert len(gen.orders) == 1
    for _ in range(6):  # the rest of epoch 0
        next(rows)
    assert len(gen.orders) == 1
    next(rows)
    assert len(gen.orders) == 2


def test_gaussian_pipeline_matches_reference():
    # the synthetic source across three blocks, centering below, at and past
    # the first block's end
    mu = np.array([1.0, 0.0, -0.5])
    for n in (100, 256, 300):
        _check_against_reference(
            lambda: gaussian_mixture_sampler(-mu, mu, 0.7, RngState(12)), n, limit=700
        )


def test_effective_step():
    assert effective_step(0.1, 4.0) == pytest.approx(0.025, rel=1e-15)
    # degenerate residual floors at 1e-12 instead of dividing by zero
    assert effective_step(1.0, 0.0) == pytest.approx(1e12, rel=1e-12)
    assert effective_step(1.0, 1e-15) == pytest.approx(1e12, rel=1e-12)
    with pytest.raises(ValueError):
        effective_step(0.0, 1.0)
    with pytest.raises(ValueError):
        effective_step(-0.1, 1.0)
    with pytest.raises(ValueError):
        effective_step(0.1, -1.0)
    with pytest.raises(ValueError):
        effective_step(math.nan, 1.0)
    # a finite alpha_tilde over the floor can still overflow the step
    with pytest.raises(OverflowError):
        effective_step(1e300, 0.0)


# ---------------------------------------------------------------------------
# IDX parser


def test_load_idx_vector_roundtrip():
    payload = bytes(range(10))
    raw = _idx_bytes(0x00000801, [10], payload)
    arr = load_idx(raw)
    assert arr.dtype == np.uint8
    assert arr.shape == (10,)
    assert bytes(arr.tobytes()) == payload
    # re-serializing reproduces the input byte-for-byte
    assert _idx_bytes(0x00000801, arr.shape, arr.tobytes()) == raw


def test_load_idx_tensor_roundtrip():
    payload = bytes((i * 7 + 3) % 256 for i in range(2 * 3 * 4))
    raw = _idx_bytes(0x00000803, [2, 3, 4], payload)
    arr = load_idx(raw)
    assert arr.shape == (2, 3, 4)
    assert arr[1, 2, 3] == payload[-1]
    assert _idx_bytes(0x00000803, arr.shape, arr.tobytes()) == raw


def test_load_idx_error_taxonomy():
    with pytest.raises(IdxTruncated):
        load_idx(b"\x00\x00")  # shorter than the magic
    with pytest.raises(IdxBadMagic):
        load_idx(_idx_bytes(0x00000802, [1], b"\x00"))
    with pytest.raises(IdxBadMagic):
        load_idx(b"\xff\xff\xff\xff")
    with pytest.raises(IdxTruncated):
        load_idx(struct.pack(">I", 0x00000803) + struct.pack(">I", 2))  # missing dims
    with pytest.raises(IdxTruncated):
        load_idx(_idx_bytes(0x00000801, [5], b"\x00\x01"))  # short payload
    with pytest.raises(IdxTruncated):
        load_idx(_idx_bytes(0x00000801, [2], b"\x00\x01\x02"))  # trailing bytes
    with pytest.raises(IdxDimOverflow):
        load_idx(_idx_bytes(0x00000803, [1 << 20, 1 << 20, 1 << 20], b""))
    with pytest.raises(TypeError):
        load_idx("not bytes")


def test_idx_error_hierarchy():
    assert issubclass(IdxBadMagic, IdxError)
    assert issubclass(IdxTruncated, IdxError)
    assert issubclass(IdxDimOverflow, IdxError)
    assert issubclass(IdxError, ParseError)
    assert issubclass(Cifar10Error, ParseError)
    assert issubclass(CsvError, ParseError)
    assert issubclass(ParseError, ValueError)


# ---------------------------------------------------------------------------
# CIFAR-10 parser


def _cifar_record(label, fill):
    return bytes([label]) + bytes([fill]) * 3072


def test_load_cifar10_batch_golden():
    raw = _cifar_record(3, 255) + _cifar_record(8, 51)
    labels, pixels = load_cifar10_batch(raw)
    assert labels.tolist() == [3, 8]
    assert pixels.shape == (2, 3072)
    assert labels.dtype == np.uint8 and pixels.dtype == np.uint8
    assert np.all(pixels[0] == 255) and np.all(pixels[1] == 51)


def test_load_cifar10_batch_errors():
    with pytest.raises(Cifar10Error):
        load_cifar10_batch(b"")
    with pytest.raises(Cifar10Error):
        load_cifar10_batch(b"\x00" * 3072)  # one byte short of a record
    with pytest.raises(Cifar10Error):
        load_cifar10_batch(_cifar_record(10, 0))  # label out of range
    with pytest.raises(TypeError):
        load_cifar10_batch([1, 2, 3])


# ---------------------------------------------------------------------------
# CSV parser


def test_load_csv_points_golden():
    text = "x0,x1,label\n1.0,2.5,0\n-3.0,0.5,1\n"
    labels, features = load_csv_points(text)
    assert labels.tolist() == [0, 1]
    assert np.array_equal(features, [[1.0, 2.5], [-3.0, 0.5]])
    assert features.dtype == float


def test_load_csv_points_errors():
    with pytest.raises(CsvError):
        load_csv_points("x0,label\n")  # header only
    with pytest.raises(CsvError):
        load_csv_points("label\n0\n")  # no feature columns
    with pytest.raises(CsvError):
        load_csv_points("x0,label\n1.0\n")  # ragged row
    with pytest.raises(CsvError):
        load_csv_points("x0,label\nfoo,0\n")  # non-numeric feature
    with pytest.raises(CsvError):
        load_csv_points("x0,label\n1.0,bar\n")  # non-numeric label
    with pytest.raises(CsvError):
        load_csv_points("x0,label\nnan,0\n")  # non-finite feature
    with pytest.raises(CsvError):
        load_csv_points("x0,label\ninf,1\n")


# ---------------------------------------------------------------------------
# parser totality (fuzz)


def test_parsers_total_on_random_bytes():
    gen = RngState(10).generator()
    for _ in range(1000):
        n = int(gen.integers(0, 64))
        blob = gen.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        try:
            load_idx(blob)
        except IdxError:
            pass
        try:
            load_cifar10_batch(blob)
        except Cifar10Error:
            pass
        try:
            load_csv_points(blob.decode("latin-1"))
        except CsvError:
            pass


def test_idx_fuzz_near_valid_headers():
    # random corruption of valid headers must still raise typed errors only
    gen = RngState(11).generator()
    base = bytearray(_idx_bytes(0x00000801, [8], bytes(range(8))))
    for _ in range(500):
        blob = bytearray(base)
        for _ in range(int(gen.integers(1, 4))):
            blob[int(gen.integers(0, len(blob)))] = int(gen.integers(0, 256))
        cut = int(gen.integers(0, len(blob) + 1))
        try:
            load_idx(bytes(blob[:cut]))
        except IdxError:
            pass


# ---------------------------------------------------------------------------
# binary tasks and evaluation


def test_make_binary_task_mapping():
    labels = np.array([1, 8, 3, 1], dtype=np.uint8)
    features = np.array([[1], [2], [3], [4]], dtype=np.uint8)
    task = make_binary_task(labels, features, 1, 8)
    assert task.y.shape[0] == 3
    assert task.y.tolist() == [0, 1, 0]  # order preserved, 3 dropped
    assert task.zeta[:, 0].tolist() == [1.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        make_binary_task(labels, features, 1, 1)
    with pytest.raises(ValueError):
        make_binary_task(labels, features, 1, 5)  # class 5 absent


def test_make_binary_task_validation():
    labels = np.array([0, 1], dtype=np.uint8)
    features = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        make_binary_task(labels[:0], features[:0], 0, 1)  # no rows
    with pytest.raises(ValueError):
        make_binary_task(labels, features[:, 0], 0, 1)  # features not (n, d)
    with pytest.raises(ValueError):
        make_binary_task(labels[:, None], features, 0, 1)  # labels not (n,)
    with pytest.raises(ValueError):
        make_binary_task(np.array([0, 1, 1]), features, 0, 1)  # label/row count mismatch
    task = make_binary_task(labels, features, 0, 1)
    assert task.zeta.shape == (2, 4) and task.y.shape[0] == 2
    # the kept rows are a copy in the parsed dtype, converted only when folded
    assert task.zeta.dtype == np.uint8 and task.y.dtype == int
    assert not np.shares_memory(task.zeta, features)
    assert features.dtype == np.uint8  # the input is left as it is


def test_accuracy_on_set():
    # margins of zeta - offset: 1, -1, 0, -2; class 1 is correct above 0 and
    # class 0 below, so a margin of 0 counts incorrect
    block = _block([1, 0, 1, 0], [[2.0, 0.0], [0.0, 3.0], [1.0, 5.0], [-1.0, 0.0]])
    offset, theta = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    classifiers = [(theta, offset), (-theta, offset)]
    assert accuracy_on_set([block], classifiers) == [0.75, 0.0]
    pieces = [Block(block.y[:1], 4.0 * block.zeta[:1]), Block(block.y[1:], 4.0 * block.zeta[1:])]
    assert accuracy_on_set(pieces, classifiers, divisor=4.0) == [0.75, 0.0]
    with pytest.raises(ValueError):
        accuracy_on_set([], classifiers)
    with pytest.raises(ValueError):
        accuracy_on_set([_block([1], [[1.0, 2.0, 3.0]])], classifiers)


# values whose sums cancel, so that a margin's sign follows its summation order
_SCORE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16, 2e16])
_THETA_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e16])


@st.composite
def _scored_sets(draw):
    """Piece sizes (multiples of 4, then any last size), labels, features and
    (theta, offset) classifiers of a held-out set of at least one row."""
    d = draw(st.integers(1, 24))
    sizes = [4 * q for q in draw(st.lists(st.integers(0, 4), max_size=4))]
    sizes.append(draw(st.integers(0 if sum(sizes) else 1, 7)))
    n = sum(sizes)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    zeta = draw(arrays(float, (n, d), elements=_SCORE_VALUES, fill=st.nothing()))
    classifiers = [
        (draw(arrays(float, d, elements=_THETA_VALUES, fill=st.nothing())),
         draw(arrays(float, d, elements=_SCORE_VALUES, fill=st.nothing())))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return sizes, y, zeta, classifiers


@given(case=_scored_sets(), run_rows=st.sampled_from([0, 8, 12, 1 << 16]))
# runs of 4 rows, then a last row whose margin's sign follows the summation
# order (OpenBLAS's Haswell gemv gives 0, its dot product -1), so it must be
# scored in one gemv with the 4 rows before it
@example(
    case=(
        [8, 1],
        np.array([1, 0, 1, 0, 1, 0, 1, 0, 0]),
        np.vstack([np.ones((8, 4)), [[-1e16, 1.0, 1e16, -1.0]]]),
        [(np.ones(4), np.zeros(4))],
    ),
    run_rows=0,
)
@settings(max_examples=200, deadline=None)
def test_accuracy_on_set_bit_equal_to_the_folded_set(case, run_rows):
    # the set in pieces, scored in runs of 4 (run_rows 0) or more rows,
    # against the whole set folded and put through one gemv
    sizes, y, zeta, classifiers = case
    theta, offset = classifiers[0]
    first = np.arange(theta.size) == 0
    classifiers = [
        *classifiers,
        (np.zeros(theta.size), offset),  # every margin 0
        (np.where(first, np.inf, theta), offset),  # margins infinite or NaN
        (np.where(first, np.nan, theta), offset),  # every margin NaN
    ]
    cuts = np.cumsum([0, *sizes])
    pieces = [Block(y[a:b], zeta[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    with mock.patch.object(data, "FOLD_ELEMENTS", run_rows * zeta.shape[1]):
        got = accuracy_on_set(iter(pieces), classifiers)
    # a non-finite theta or a large difference gives inf or NaN margins
    with np.errstate(over="ignore", invalid="ignore"):
        want = [float(np.mean(fold(Block(y, zeta), o) @ theta > 0.0)) for theta, o in classifiers]
    assert got == want
    assert got[-3] == got[-1] == 0.0
