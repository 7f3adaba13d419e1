"""Deterministic random streams, Gaussian sampling, and the normal CDF.

Everything downstream (SGD runs, Monte-Carlo estimators, experiment commands)
draws randomness through :class:`RngState`, a value type holding a 64-bit
``(seed, stream)`` pair.  The pair keys a Philox counter-based generator, so

* the same pair always reproduces the same draw sequence bit-for-bit, on any
  platform, and
* distinct streams derived from one seed are non-overlapping by the Philox
  keying contract (distinct keys select statistically independent sequences).

Every draw that is not a permutation is a positioned read: uniforms_at
reads a stream's uniforms from any position without computing those before
it (past the start of that position's block of 4), as Philox is
counter-based.  It reads through the calling thread's own Philox generator,
built by the thread's first read, and sets that generator's key and
counter before each read, so a stream needs no generator of its own and no
two threads share one.  Each consumer fixes its positions whatever the
values drawn, and documents them: the samplers' blocks in data, the drift
check's probes and samples in verify, the rounds of normal_rounds here.
RngState.generator serves only the two permutations (run-real's epochs and
the CSV split).

Gaussians are produced by the Box-Muller transform applied to uniform doubles
rather than by a rejection method, so every sampling call consumes a fixed,
documented number of uniforms.  That makes draw accounting exact and keeps
parallel streams aligned regardless of the values drawn.  The transform is
defined once, in _pairs: it turns a run's uniforms into radii and angles in
place and writes the normals of its pairs into a given array.  Every step
is elementwise, so uniforms may be read and transformed in pieces, only as
they are needed, and a piece gives the bytes of the whole.  normals_at
reads the uniforms of a run of pair positions with uniforms_at and
transforms them; normal_rounds reads many small rounds at once, in groups
of at most ``GROUP_PAIRS`` pairs (or one round), with the same bytes.

For one 128-row mixture chunk at d = 500 (32,000 pairs) on a 2-CPU x86-64
VM (Python 3.11, numpy 2.4), the medians over 200 calls were: reading both
uniform runs 0.51 ms, the radii and angles 0.15 ms, the cosines 0.73 ms
and the sines 0.70 ms (numpy takes float64 cos and sin through scalar
libm, about 25 ns per element); 2.2 ms inline.  So a run of at least
``SPLIT_PAIRS`` = 8,192 pairs is computed in halves by normals_at: one
helper thread per process (a forked child starts its own), started by the
first such run where at least two CPUs are usable, takes the front half
from its job queue and computes it (its uniforms, read through its own
thread's Philox generator, and every later step, under numpy's default
error modes, as no uniform raises a flag) while the caller computes the
back half and then waits for its own reply, 1.5-1.7 ms for that chunk.
Callers that split at once take the one helper in turn.  The
crossover was measured there as the median time of the split over that of
the inline code, 150 calls each per size and round, in three rounds, with
0.3 ms or 1 ms of SGD-like updates before each call, as a sampler calls it
between chunks: the split loses at 2,048 and 4,096 pairs (0.93-2.46),
breaks even from 5,120 to 8,192 (0.69-1.35), mostly wins at 10,240 and
12,800 (0.62-1.08) and wins from 16,000 on (0.56-0.70).  So the drift
check's pieces (up to 32,768 pairs each: see verify) and the mixture
chunks from d = 64 on split: 128 rows at d >= 128 (32,000 pairs at
d = 500), a whole 256-row block at 64 <= d < 128 (12,800 pairs at
d = 100), where 128 rows would stay below SPLIT_PAIRS.
Mixture chunks below d = 64 and the folded stream's 32-row chunks below
d = 512 stay inline.

The normal CDF is computed from ``erfc``:

    std_normal_cdf(x)  = erfc(-x / sqrt(2)) / 2
    std_normal_ccdf(x) = erfc( x / sqrt(2)) / 2

``erfc`` is accurate to a few ulp (absolute error well below 1e-15) and the
complement form never subtracts nearly-equal quantities, so the upper tail
stays relatively accurate far beyond x = 8 where ``1 - cdf`` would round to
zero.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# numpy loads numpy.random on first use; loading it with this module keeps
# that cost in start-up instead of inside the first command that draws
from numpy.random import Generator, Philox

__all__ = [
    "RngState",
    "uniforms_at",
    "normals_at",
    "normal_rounds",
    "std_normal_cdf",
    "std_normal_ccdf",
    "student_t2",
]

_MASK64 = (1 << 64) - 1
# a run of at least this many pairs is computed in halves, one on a helper
# thread; the module docstring gives the measurement behind it
SPLIT_PAIRS = 8192
# normal_rounds reads at most this many pairs at once (or one round), so a
# group's memory does not grow with the number of rounds
GROUP_PAIRS = 1024
_SQRT2 = math.sqrt(2.0)


def _splitmix64(x: int) -> int:
    """One splitmix64 output step; mixes a 64-bit value into a new one."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngState:
    """Value identifying one random stream: a (seed, stream) pair of u64.

    Draws read the stream by position (uniforms_at, normals_at); a
    consumer that needs a stream of its own derives a child state via
    :meth:`substream`.  Derivation is deterministic: substream
    indices map to well-spread 64-bit stream ids through splitmix64, and the
    Philox key is exactly ``(seed, stream)``.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed <= _MASK64):
            raise ValueError(f"seed must be a u64, got {self.seed}")
        if not (0 <= self.stream <= _MASK64):
            raise ValueError(f"stream must be a u64, got {self.stream}")

    def substream(self, index: int) -> "RngState":
        """Child state for sub-task `index`; same seed, derived stream id."""
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        child = _splitmix64((_splitmix64(self.stream) + index) & _MASK64)
        return RngState(self.seed, child)

    def generator(self) -> np.random.Generator:
        """A mutable draw source for this stream: the state of
        ``Generator(Philox(key=[seed, stream]))``, bit for bit.  It serves
        permutations only (run-real's epochs and the CSV split); every other
        draw is read by position."""
        return Generator(Philox(key=np.array([self.seed, self.stream], dtype=np.uint64)))


class _Reader(threading.local):
    """The calling thread's Philox generator, as (its bit generator, its
    random, the state dict that uniforms_at sets it to, that dict's Philox
    part); a thread's first read builds them.  Built directly, not through
    RngState.generator, so a read on any thread counts no generator."""

    def __init__(self) -> None:
        gen = Generator(Philox())
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.parts = gen.bit_generator, gen.random, state, state["state"]


_reader = _Reader()


def uniforms_at(rng: RngState, position: int, out: np.ndarray) -> np.ndarray:
    """Uniforms ``position``, ``position + 1``, ... of the stream ``rng``, as
    its ``generator().random`` hands them out, written into ``out`` through
    the calling thread's Philox generator, keyed ``(seed, stream)`` for the
    read.  Uniform p is output p % 4 of the block that the key encrypts from
    counter p // 4 + 1 (the counter steps before each block), so a counter
    of p // 4 and an empty buffer read on from p once the first p % 4
    outputs of that block are dropped.
    """
    bits, random, state, philox = _reader.parts
    philox["key"] = rng.seed, rng.stream
    philox["counter"][0] = position >> 2
    bits.state = state
    if position & 3:
        bits.random_raw(position & 3, output=False)
    return random(out=out)


def normals_at(rng: RngState, first: int, second: int, out: np.ndarray) -> np.ndarray:
    """The normals of m = out.size // 2 Box-Muller pairs, written into ``out``:
    pair i takes uniform ``first + i`` and uniform ``second + i`` of the
    stream ``rng`` (read as uniforms_at reads them) and gives
    out[2i] = r cos t and out[2i + 1] = r sin t (see _pairs).

    From ``SPLIT_PAIRS`` pairs on, where the helper runs, the front half of
    h = m // 2 pairs, rounded down to a multiple of 4 so both halves start
    on a Philox block where the run does, is put on the helper's job queue
    with a reply queue of this call's own; this thread computes the back
    half and then waits for the helper's exception or None.  The bytes do
    not depend on it.  A caller whose wait is cut short leaves nothing
    behind: the helper's late answer goes to that call's reply, and calls
    from several threads queue their front halves.
    """
    m = out.size >> 1
    u = np.empty((2, m))

    def half(a: int, b: int) -> None:
        v = u[:, a:b]
        uniforms_at(rng, first + a, v[0])
        uniforms_at(rng, second + a, v[1])
        _pairs(v, out[2 * a : 2 * b])

    jobs = _box_muller_helper() if m >= SPLIT_PAIRS else None
    if jobs is None:
        half(0, m)
        return out
    h, reply = m // 2 & -4, queue.SimpleQueue()
    jobs.put((half, h, reply))
    try:
        half(h, m)
    finally:
        error = reply.get()
    if error is not None:
        raise error
    return out


def _pairs(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Box-Muller on the k pairs of a (2, k) buffer ``u`` of uniforms on
    [0, 1), in place, into the 2k normals of ``out``: row 0 becomes the
    radii r = sqrt(-2 log(1 - u)) (1 - u lies in (0, 1], so the log is
    finite), row 1 the angles t = 2 pi u, then out[2i] = r cos t and
    out[2i + 1] = r sin t.

    Each step is the formula's own IEEE operation in the formula's order,
    elementwise, so any piece of a run gives the bytes of the whole.  On
    uniforms in [0, 1 - 2**-53], as Philox's are, no step raises a
    floating-point flag: r <= 8.58 and no product is subnormal.
    """
    r, t = u[0], u[1]  # indexed: unpacking iterates the array, about 0.8 us more per call
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    even, odd = out[0::2], out[1::2]
    np.cos(t, out=even)
    even *= r
    np.sin(t, out=odd)
    odd *= r
    return out


def _serve(jobs: queue.SimpleQueue) -> None:
    """The helper thread: computes the front half of each job on ``jobs``,
    reading through its own Philox generator, under numpy's default error
    modes (no caller's are relayed: see _pairs), and lets go of the run
    before it answers, so it keeps no run alive while it waits."""
    # this thread's reader is built before its first job: built inside
    # one, it raised peak RSS by 0.2 MB on the d = 500 sweep
    _reader.parts
    while True:
        half, h, reply = jobs.get()
        error = None
        try:
            half(0, h)
        except BaseException as exc:  # raised again by the caller
            error = exc
        del half
        reply.put(error)
        del error, reply  # the error's traceback holds the run


_UNDECIDED = object()  # no split has asked for the helper in this process yet
_helper: queue.SimpleQueue | None | object = _UNDECIDED
_helper_start = threading.Lock()


def _box_muller_helper() -> queue.SimpleQueue | None:
    """The job queue of the process's one helper thread, started by its first
    split; None on one CPU."""
    global _helper
    with _helper_start:
        if _helper is _UNDECIDED:
            affinity = getattr(os, "sched_getaffinity", None)
            cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
            _helper = queue.SimpleQueue() if cpus >= 2 else None
            if _helper is not None:
                threading.Thread(target=_serve, args=(_helper,), name="sgdstop-box-muller", daemon=True).start()
        return _helper


def _forget_helper() -> None:
    """A forked child has no helper thread, and its copy of the start lock
    may be held: it decides afresh."""
    global _helper, _helper_start
    _helper, _helper_start = _UNDECIDED, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def normal_rounds(rng: RngState, sizes: Sequence[int], count: int) -> Iterator[tuple[np.ndarray, ...]]:
    """``count`` rounds of one normals vector per size in ``sizes``, round by
    round; each vector is a contiguous row.  Round r reads the 2 w uniforms
    from position 2 w r, w = sum(ceil(s / 2) for s in sizes): for each size
    in turn, the first and then the second uniforms of its ceil(s / 2)
    pairs (the last normal of an odd size is dropped).

    Rounds are read in groups of at most ``GROUP_PAIRS`` pairs (at least one
    round), each with one uniforms_at and one _pairs, as a group's uniforms
    are contiguous: each size's pairs are gathered into the group's run,
    whose transform is elementwise.
    """
    halves = [(s + 1) // 2 for s in sizes]
    width = sum(halves)  # pairs per round
    starts = np.cumsum([0, *halves])
    group = max(1, GROUP_PAIRS // max(width, 1))
    for done in range(0, count, group):
        k = min(group, count - done)
        drawn = uniforms_at(rng, 2 * width * done, np.empty((k, 2 * width)))
        u = np.empty((2, k, width))
        for a, m in zip(starts, halves):
            u[:, :, a : a + m] = drawn[:, 2 * a : 2 * (a + m)].reshape(k, 2, m).transpose(1, 0, 2)
        out = np.empty((k, 2 * width))
        _pairs(u.reshape(2, -1), out.reshape(-1))
        yield from zip(*(out[:, 2 * a : 2 * a + s] for a, s in zip(starts, sizes)))


def student_t2(u: np.ndarray) -> np.ndarray:
    """Student-t draws with 2 degrees of freedom, one per uniform of ``u`` on
    [0, 1), elementwise, by the inverse CDF: for v = 1 - u in (0, 1],

        x = (2v - 1) / sqrt(2 v (1 - v)).

    Heavy-tailed (infinite variance); u = 0.1 maps to 1.88561808..., and
    u = 0 to +inf.
    """
    v = 1.0 - u
    with np.errstate(divide="ignore"):
        return (2.0 * v - 1.0) / np.sqrt(2.0 * v * (1.0 - v))


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z ~ N(0,1), via erfc; absolute error below 1e-15."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_ccdf(x: float) -> float:
    """P(Z > x); computed directly from erfc so the tail never cancels."""
    return 0.5 * math.erfc(x / _SQRT2)
