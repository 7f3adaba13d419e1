"""Deterministic random streams, Gaussian sampling, and the normal CDF.

Everything downstream (SGD runs, Monte-Carlo estimators, experiment commands)
draws randomness through :class:`RngState`, a value type holding a 64-bit
``(seed, stream)`` pair.  The pair keys a Philox counter-based generator, so

* the same pair always reproduces the same draw sequence bit-for-bit, on any
  platform, and
* distinct streams derived from one seed are non-overlapping by the Philox
  keying contract (distinct keys select statistically independent sequences).

Gaussians are produced by the Box-Muller transform applied to uniform doubles
rather than by a rejection method, so every sampling call consumes a fixed,
documented number of uniforms.  That makes draw accounting exact and keeps
parallel streams aligned regardless of the values drawn.  The transform has
two steps, each defined once: box_muller_polar turns a buffer of uniforms
into radii and angles in place, and box_muller writes the normals of any
run of pairs into a given array.  Both are elementwise, so uniforms drawn
up front may be transformed in pieces later, only as they are needed.

The cosines and sines are the largest cost of sampling (20-30 ns per pair
through libm), so box_muller hands the sines of a run of at least
``SPLIT_PAIRS`` = 8,192 pairs to one helper thread, started on first use and
only where at least two CPUs are usable, while the caller takes the
cosines and then waits for the sines.  Waking the helper and waiting for it
cost 100-200 us over half the inline time on a 2-CPU x86-64 VM (Python
3.11, numpy 2.4).  The crossover was measured there as the median time of
the split over that of the inline code, over 300-500 calls per size and
three rounds, with 0.3 ms or 1 ms of SGD-like updates before each call, as
a sampler calls it between chunks: the split loses or breaks even up to
4,096 pairs (0.80-1.66 and 1.01-1.66), breaks even at 5,120 (0.84-0.91 and
0.98-1.30), mostly wins at 6,400 (0.78-0.81 and 0.82-0.98) and wins from
8,192 on (0.73-0.75 and 0.74-0.90; 0.60-0.63 at 32,000).  So the 128-row
mixture chunks at d = 500 (32,000 pairs) and the drift check's draws
split, while those at d = 100 (6,400 pairs) and the folded stream's 32-row
chunks below d = 512 stay inline.

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
import threading
from dataclasses import dataclass

import numpy as np

# numpy loads numpy.random on first use; loading it with this module keeps
# that cost in start-up instead of inside the first command that draws
from numpy.random import Generator, Philox

__all__ = [
    "RngState",
    "std_normal_cdf",
    "std_normal_ccdf",
    "box_muller_polar",
    "box_muller",
    "sample_student_t2",
]

_MASK64 = (1 << 64) - 1
# box_muller takes the sines of a run of at least this many pairs on a helper
# thread; the module docstring gives the measurement behind it
SPLIT_PAIRS = 8192
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

    An ``RngState`` is never shared between concurrent consumers.  Each
    consumer either materializes its own :meth:`generator` or derives child
    states via :meth:`substream`.  Derivation is deterministic: substream
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
        """Materialize the mutable draw source for this stream."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return Generator(Philox(key=key))


def box_muller_polar(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radii and angles of m Box-Muller pairs, in place in a (2, m) array of
    uniforms on [0, 1): row 0 becomes r = sqrt(-2 log(1 - u)) (1 - u lies in
    (0, 1], so the log is finite) and row 1 becomes t = 2 pi u.

    Returns the rows (r, t), views of ``u``.  Each step is the formula's own
    IEEE operation in the formula's order, so the results are bit-equal to it.
    """
    r, t = u
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    return r, t


def box_muller(r: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2m normals from the radii and angles of m pairs, written into ``out``:

        out[2i] = r cos t,  out[2i+1] = r sin t

    cos and sin go straight into ``out``, which is returned.

    A run of at least ``SPLIT_PAIRS`` (8,192) pairs, where at least two CPUs
    are usable, the helper is not busy with another caller's run and ``out``
    shares no memory with ``r`` or ``t``, has its sines taken on one helper
    thread while the caller takes the cosines; numpy releases the GIL inside
    both ufuncs.  Below that, handing the run over costs more than half the
    run saves (see the module docstring).  Each half is the same ufunc on
    the same arrays as the inline code, under the caller's floating-point
    error modes, so the bytes of ``out`` do not depend on which path ran,
    and an exception of the helper's half is raised here.
    """
    even, odd = out[0::2], out[1::2]
    helper = _sine_helper() if t.size >= SPLIT_PAIRS else None
    if helper is not None and not (np.may_share_memory(out, t) or np.may_share_memory(out, r)):
        if helper.split(r, t, even, odd):
            return out
    np.cos(t, out=even)
    even *= r
    np.sin(t, out=odd)
    odd *= r
    return out


class _SineHelper:
    """One daemon thread that writes odd = r sin t for ``box_muller``.

    A caller claims the helper by taking ``_free`` without blocking (if it
    is taken, the caller computes inline), posts the run, releases ``_go``,
    takes the cosines and waits for ``_done``.  The helper computes the
    sines of every run it is handed, under the caller's error modes, and
    lets go of the run's arrays before it releases ``_done``, so it keeps no
    block alive while it waits.  A wait cut short by an exception leaves
    ``_free`` held, since the helper may still be writing: later calls
    compute inline.
    """

    def __init__(self) -> None:
        self._free, self._go, self._done = (threading.Lock() for _ in range(3))
        self._go.acquire()
        self._done.acquire()
        self._run: tuple | None = None  # r, t, odd, the caller's error modes
        self._error: BaseException | None = None
        threading.Thread(target=self._serve, name="sgdstop-sines", daemon=True).start()

    def _serve(self) -> None:
        errmodes = np.geterr()
        while True:
            self._go.acquire()
            r, t, odd, caller_errmodes = self._run
            self._run = None
            try:
                if caller_errmodes != errmodes:
                    errmodes = caller_errmodes
                    np.seterr(**errmodes)
                np.sin(t, out=odd)
                odd *= r
            except BaseException as exc:  # raised again by the caller
                self._error = exc
            del r, t, odd
            self._done.release()

    def split(self, r: np.ndarray, t: np.ndarray, even: np.ndarray, odd: np.ndarray) -> bool:
        """even = r cos t here and odd = r sin t on the helper; False
        (nothing written) if the helper is taken."""
        if not self._free.acquire(blocking=False):
            return False
        self._run = (r, t, odd, np.geterr())
        self._go.release()
        try:
            np.cos(t, out=even)
            even *= r
        finally:
            self._done.acquire()
            error, self._error = self._error, None
            self._free.release()
        if error is not None:
            raise error
        return True


_helper: _SineHelper | None = None
_helper_usable = True  # False once fewer than two usable CPUs were seen
_helper_start = threading.Lock()


def _sine_helper() -> _SineHelper | None:
    """The process's one helper, started on first use; None on one CPU."""
    global _helper, _helper_usable
    if _helper is None and _helper_usable:
        with _helper_start:
            if _helper is None and _helper_usable:
                affinity = getattr(os, "sched_getaffinity", None)
                _helper_usable = (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2
                if _helper_usable:
                    _helper = _SineHelper()
    return _helper


def _forget_helper() -> None:
    """A forked child has no helper thread, and its copy of the start lock
    may be held: it starts afresh."""
    global _helper, _helper_start
    _helper, _helper_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def standard_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n iid N(0,1) doubles via Box-Muller; consumes 2*ceil(n/2) uniforms,
    the m first uniforms of the m pairs, then their m second uniforms."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.empty(0)
    m = (n + 1) // 2
    r, t = box_muller_polar(gen.random((2, m)))
    return box_muller(r, t, np.empty(2 * m))[:n]


def sample_student_t2(gen: np.random.Generator, n: int = 1) -> np.ndarray:
    """n iid Student-t draws with 2 degrees of freedom; one uniform each.

    Inverse-CDF sampling: for u uniform on (0, 1),

        x = (2u - 1) / sqrt(2 u (1 - u)).

    Heavy-tailed (infinite variance); u = 0.9 maps to 1.88561808...
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    u = 1.0 - gen.random(n)  # (0, 1]; u = 1 maps to +inf with probability 0
    with np.errstate(divide="ignore"):
        return (2.0 * u - 1.0) / np.sqrt(2.0 * u * (1.0 - u))


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z ~ N(0,1), via erfc; absolute error below 1e-15."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_ccdf(x: float) -> float:
    """P(Z > x); computed directly from erfc so the tail never cancels."""
    return 0.5 * math.erfc(x / _SQRT2)
