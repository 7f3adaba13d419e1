"""Data generation, folding, centering, and dataset parsers.

Folding: a labeled pair (zeta, y) with y in {0, 1} maps to the single vector
xi = (2y - 1)(zeta - offset).  A homogeneous linear classifier theta then
classifies the original point correctly exactly when xi . theta > 0 (a
margin of exactly 0 counts incorrect), so both classes can be trained and
scored through one folded stream.  Every fold is one primitive,
_fold_rows: subtract the offset from a block of rows, then negate the
class-0 rows in place (no integer multiply; bit-equal to the formula).

Labeled data moves in blocks, Block(y, zeta) with y (rows,) and zeta
(rows, d), the one labeled type from the parsers' binary task to the fold:
the Gaussian mixture hands out chunks of its 256-row blocks (views of one
array per block; 128 rows, or the whole block at 64 <= d < 128), the
Student-t2 mixture 256-row blocks, and make_binary_task one block holding
a whole dataset split in its parsed dtype.  Whoever receives a block owns
it, except a dataset split, which is only read.

Centering follows a fixed protocol (center_and_fold): from the first n rows
of a labeled block stream, estimate the per-class means, set the offset to
their midpoint, and estimate the per-sample noise scale as

    sigma2_tilde = mean_j | zeta_j - mean_{class of j} |^2,

whose expectation is sigma^2 d for isotropic class noise.  One function,
_centering_window, reads those rows for both paths below: whole blocks,
drawn until they hold the first n rows (2n when a class is absent among
them, fewer if the stream ends).  Both paths then fold whole blocks, window
blocks included, skip the n_used centering rows with itertools.islice, and
hold one block at a time past the window.  The folded rows go to the
engine, which owns them, one at a time: itertools.chain hands out the rows
of the folded blocks in C, so no Python frame is resumed per row.  The
step size actually run is then effective_step(alpha_tilde, sigma2_tilde) =
alpha_tilde / sigma2_tilde, which makes one nominal alpha_tilde comparable
across noise scales and datasets.  Held-out sets are never folded:
accuracy_on_set reads one as a stream and counts class-1 margins of zeta -
offset above 0 and class-0 ones below 0, the folded margins above 0.

A dataset split takes the same protocol through center_and_fold_split,
which never copies its rows out as float blocks: the centering rows are
gathered from the first epoch's permutation, then the first epoch's rows
are converted to float (divided by 255 for pixels, else cast) and folded,
in cache-sized chunks as the run reaches them, into one float buffer the
caller reuses from run to run.  The engine is handed read-only views of
the buffer's rows in permutation order, and later epochs find each row
where the first epoch put it.  So a run folds each row of the split at
most once, however many epochs it reads.

Synthetic generators (two-component Gaussian mixture, heavy-tailed
Student-t2 mixture) and binary dataset readers (IDX tensors, CIFAR-10
batches, CSV) all feed the same folding pipeline.  The parsers return
arrays, (labels, features) for the labeled formats, and are total: any byte
string either parses or raises a typed ParseError subclass, never anything
else.

Samplers and streams here are iterators.  Synthetic ones are infinite and
take an RngState, whose (seed, stream) pair fixes every uniform of the
sequence by its position in a documented block layout; a split's stream
shuffles once per epoch with the run's own generator, drawing each
permutation when the last epoch runs out, and simply ends when its epoch
budget does.

Both Gaussian samplers share one source.  Its uniforms are laid out in
256-row blocks: the label coins (for the mixture), then the first and then
the second uniforms of the block's Box-Muller pairs.  Philox is
counter-based, so a chunk (128 or 256 rows for the mixture, see
_mixture_chunk_rows; 32 for the folded stream) reads its own uniforms at
their positions and turns them into normals (numerics.normals_at) when the
consumer reaches it; rows a run never reaches are never drawn.  A stream
holds no generator: each read keys the calling thread's Philox generator
with the stream's (seed, stream) pair (numerics.uniforms_at).  So block k
starts at uniform k 256 (d + 1) in the mixture and k 256 d in the folded
stream, and its pair i (normals 2i and 2i + 1, row-major) takes the
uniforms i and 128 d + i past its coins.  The Student-t2 sampler reads its
blocks whole: block k's 256 coins from uniform k 256 (d + 1) on, then its
256 d entries, one uniform each.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .numerics import SPLIT_PAIRS, RngState, normals_at, student_t2, uniforms_at

__all__ = [
    "BLOCK_ROWS",
    "Block",
    "CenteringStats",
    "ParseError",
    "IdxError",
    "IdxBadMagic",
    "IdxTruncated",
    "IdxDimOverflow",
    "Cifar10Error",
    "CsvError",
    "gaussian_mixture_sampler",
    "student_t2_mixture_sampler",
    "folded_gaussian_stream",
    "center_and_fold",
    "center_and_fold_split",
    "effective_step",
    "load_idx",
    "load_cifar10_batch",
    "load_csv_points",
    "make_binary_task",
    "accuracy_on_set",
]

BLOCK_ROWS = 256  # rows per block in the synthetic streams
# rows per Box-Muller chunk (even, so a chunk starts on a pair): the folded
# stream's Monte-Carlo trials read a few dozen rows, sampler runs thousands
CHUNK_ROWS = 32
MIXTURE_CHUNK_ROWS = 128
# doubles per chunk of a split's fold or of held-out scoring (512 KB), small
# enough to stay in cache between their passes over it
FOLD_ELEMENTS = 1 << 16


def _mixture_chunk_rows(d: int) -> int:
    """Rows per mixture chunk at dimension d: a whole block where its
    Box-Muller pairs reach SPLIT_PAIRS but those of MIXTURE_CHUNK_ROWS rows
    do not (64 <= d < 128), so that the run is computed in halves; else
    MIXTURE_CHUNK_ROWS (at d = 500 smaller chunks only lost time)."""
    if MIXTURE_CHUNK_ROWS * d // 2 < SPLIT_PAIRS <= BLOCK_ROWS * d // 2:
        return BLOCK_ROWS
    return MIXTURE_CHUNK_ROWS


def gemv_run_rows(d: int) -> int:
    """Rows per run where d-column rows are multiplied in runs: a multiple of
    4, as gemv takes rows in fours, at most FOLD_ELEMENTS doubles where d
    allows.  No run may be a lone row, which numpy takes as a dot product."""
    return max(4, FOLD_ELEMENTS // max(1, d) // 4 * 4)


class Block(NamedTuple):
    """Rows of a labeled stream: labels y (rows,) in {0, 1}, features zeta (rows, d)."""

    y: np.ndarray
    zeta: np.ndarray


@dataclass(frozen=True)
class CenteringStats:
    """The midpoint of the per-class means, and the residual scale."""

    offset: np.ndarray
    sigma2_tilde: float
    n_used: int


def _fold_rows(y: np.ndarray, zeta: np.ndarray, offset: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The one fold: out = zeta - offset, then the class-0 rows negated in place.

    ``out`` may be ``zeta`` itself.  Negation is exact and rounding is
    symmetric in sign, so this is bit-equal to (2y - 1)[:, None] * (zeta -
    offset), signed zeros and infinities included; only the sign bit of a
    NaN may differ.
    """
    np.subtract(zeta, offset, out=out)
    np.negative(out, out=out, where=(y == 0)[:, None])
    return out


def gaussian_mixture_sampler(
    mu0: np.ndarray,
    mu1: np.ndarray,
    sigma: float,
    rng: RngState,
) -> Iterator[Block]:
    """Fair two-component Gaussian mixture: y ~ Bernoulli(1/2), zeta ~
    N(mu_y, sigma^2 I_d).

    Draws blocks of 256 rows, each as the 256 label coins first (one uniform
    each, y = 1 iff u < 1/2), then the first and then the second uniforms of
    the 128 d Box-Muller pairs of its 256 d feature normals (the module
    docstring gives the positions); a block's rows are mu_y + sigma times
    its normals, row-major.  Hands out each block in chunks of
    _mixture_chunk_rows(d) rows, views of the block's one array, drawn and
    transformed only when reached.
    """
    mu0 = np.asarray(mu0, dtype=float)
    mu1 = np.asarray(mu1, dtype=float)
    if mu0.shape != mu1.shape or mu0.ndim != 1:
        raise ValueError("mu0 and mu1 must be 1-D vectors of equal dimension")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    means = np.stack([mu0, mu1])
    d = mu0.shape[0]
    chunks = _gaussian_chunks(rng, d, sigma, _mixture_chunk_rows(d), True)
    for ys, rows in chunks:
        rows += means[ys]
        yield Block(ys, rows)


def student_t2_mixture_sampler(beta: float, d: int, rng: RngState) -> Iterator[Block]:
    """Heavy-tailed mixture: entries are beta * (Student-t, 2 dof); class 1
    additionally has 1 added to its first coordinate.

    Block k reads 256 coins from uniform k 256 (d + 1) on and the 256 d
    uniforms of its t2 entries (inverse CDF, numerics.student_t2) right
    after them, row-major, in one read.  A uniform of exactly 0 gives an infinite entry,
    which the engine reports as a diverged run.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    for base in itertools.count(0, BLOCK_ROWS * (d + 1)):
        u = uniforms_at(rng, base, np.empty(BLOCK_ROWS * (d + 1)))
        ys = (u[:BLOCK_ROWS] < 0.5).astype(int)
        block = beta * student_t2(u[BLOCK_ROWS:]).reshape(BLOCK_ROWS, d)
        block[:, 0] += ys
        yield Block(ys, block)


def folded_gaussian_stream(mu: np.ndarray, sigma: float, rng: RngState) -> Iterator[np.ndarray]:
    """Infinite stream of xi ~ N(mu, sigma^2 I_d), already folded.

    Each 256-row block is mu + sigma times its 256 d normals, row-major,
    from the first and then the second uniforms of its 128 d Box-Muller
    pairs (block k from uniform k 256 d on), drawn and transformed 32 rows
    at a time as they are reached, so short runs skip the rest;
    itertools.chain hands the rows out in C.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("mu must be a nonempty 1-D vector")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    chunks = _gaussian_chunks(rng, mu.shape[0], sigma, CHUNK_ROWS, False)
    return itertools.chain.from_iterable(np.add(rows, mu, out=rows) for _, rows in chunks)


def _gaussian_chunks(
    rng: RngState, d: int, sigma: float, chunk_rows: int, coins: bool
) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """The shared source of both Gaussian samplers: (ys, sigma * noise) chunks.

    A 256-row block's uniforms are its 256 label coins if ``coins`` (ys is
    None otherwise), then the first uniforms of its 128 d Box-Muller pairs,
    then their second ones.  A chunk of ``chunk_rows`` rows (even, so it
    starts on a pair) reads only its own uniforms (and its block's coins,
    if first), when it is requested, and writes its normals times sigma
    into a view of the block's one array, which the caller finishes (adds
    the mean to) and owns.
    """
    pairs = BLOCK_ROWS * d // 2
    lead = BLOCK_ROWS if coins else 0
    for base in itertools.count(lead, lead + 2 * pairs):  # where a block's pairs start
        if coins:
            ys = (uniforms_at(rng, base - lead, np.empty(BLOCK_ROWS)) < 0.5).astype(int)
        block = np.empty((BLOCK_ROWS, d))
        flat = block.reshape(-1)
        for row in range(0, BLOCK_ROWS, chunk_rows):
            a = base + row * d // 2
            normals_at(rng, a, a + pairs, flat[row * d : (row + chunk_rows) * d])
            rows = block[row : row + chunk_rows]
            rows *= sigma
            yield (ys[row : row + chunk_rows] if coins else None), rows


def center_and_fold(
    blocks: Iterable[Block], n: int = 100
) -> tuple[CenteringStats, Iterator[np.ndarray]]:
    """Centering protocol on the first n rows, then the folded rest.

    If one class is absent among the first n rows, the next n rows of the
    same stream are read too and the estimate uses all 2n; a class still
    absent then is an error.  sigma2_tilde is the mean squared residual norm
    against the estimated class means (0.0 for degenerate noise-free
    samples; see effective_step for how that is floored).  The window's
    blocks are drawn whole (_centering_window), and no later block is drawn
    before the run reaches it.  The returned iterator folds each block in
    place once, window blocks included, and yields the folded rows from row
    n_used on, so the caller must own the blocks.  Past the window it holds
    one block at a time.
    """
    it = iter(blocks)
    window, stats = _centering_window(it, n)
    # iter(window) lets go of the list once read, where the list itself would
    # keep every window block alive for the whole run
    later = itertools.chain(iter(window), it)
    folded = (_fold_rows(y, zeta, stats.offset, zeta) for y, zeta in later)
    return stats, itertools.islice(itertools.chain.from_iterable(folded), stats.n_used, None)


def center_and_fold_split(
    split: Block,
    gen: np.random.Generator,
    n: int,
    epochs: int | None,
    out: np.ndarray,
    divisor: float = 1.0,
) -> tuple[CenteringStats, Iterator[np.ndarray]]:
    """The centering protocol of center_and_fold on shuffled epochs of a
    dataset split, each row folded at most once, into ``out``.

    Each epoch is one gen.permutation of the split's rows, drawn when the
    previous epoch runs out; ``epochs`` of them (None: without end) make the
    row stream.  Its features are split.zeta / divisor as doubles (a divisor
    of 1.0 is an exact cast), so the stream is bit for bit the one
    center_and_fold would read from blocks of that stream.  The centering
    window (_centering_window) is gathered in whole chunks and dropped.  The
    returned iterator hands out read-only views of the rows of ``out``, a
    float (rows, d) buffer, in stream order from row n_used on: out[j] is
    the row at place j of the first epoch, folded against the offset in
    chunks as the first epoch reaches it, and later epochs find each row at
    its place.  ``split`` is only read; the views are valid until ``out``
    is written again.
    """
    if out.shape != split.zeta.shape or out.dtype != np.float64:
        raise ValueError(f"out {out.dtype} {out.shape} is not a float buffer {split.zeta.shape}")
    size = split.y.shape[0]
    each_epoch = itertools.count() if epochs is None else range(epochs)
    orders = (gen.permutation(size) for _ in each_epoch)
    drawn: list[np.ndarray] = []  # the orders of the epochs the centering reached
    step = max(1, FOLD_ELEMENTS // max(1, split.zeta.shape[1]))

    def gathered() -> Iterator[Block]:
        """The stream's rows as float blocks of ``step`` rows, gathered as reached."""
        for order in orders:
            drawn.append(order)
            for a in range(0, size, step):
                at = order[a : a + step]
                yield Block(split.y[at], np.divide(split.zeta[at], divisor, dtype=float))

    stats = _centering_window(gathered(), n)[1]
    first = drawn[0]
    place = np.empty(size, dtype=np.intp)
    place[first] = np.arange(size)
    raw = np.empty((step, *split.zeta.shape[1:]), split.zeta.dtype)  # reused by every chunk
    rows = out.view()
    rows.flags.writeable = False

    def epochs_of_views() -> Iterator[Iterable[np.ndarray]]:
        for a in range(0, size, step):
            at = first[a : a + step]
            k = at.shape[0]
            # permutation entries are in range, and mode "raise" would buffer the gather
            np.take(split.zeta, at, axis=0, out=raw[:k], mode="clip")
            chunk = out[a : a + k]
            np.divide(raw[:k], divisor, out=chunk, dtype=float)
            _fold_rows(split.y[at], chunk, stats.offset, chunk)
            yield rows[a : a + k]
        for order in itertools.chain(drawn[1:], orders):
            yield map(rows.__getitem__, place[order].tolist())

    views = itertools.chain.from_iterable(epochs_of_views())
    return stats, itertools.islice(views, stats.n_used, None)


def _centering_window(blocks: Iterator[Block], n: int) -> tuple[list[Block], CenteringStats]:
    """The whole blocks that hold a stream's centering rows, drawn as needed,
    and the statistics of those rows: the first n, or the first 2n when a
    class is absent among the first n (fewer if the stream ends).  A class
    absent among them all is an error."""
    if n < 2:
        raise ValueError(f"need n >= 2 centering samples, got {n}")
    window: list[Block] = []
    held = 0
    for want in (n, 2 * n):
        while held < want and (block := next(blocks, None)) is not None:
            window.append(block)
            held += block.y.shape[0]
        y = np.concatenate([b.y for b in window] or [np.empty(0, int)])[:want]
        if (y == 0).any() and (y == 1).any():
            break
    else:
        raise ValueError(f"one class absent among the first {y.shape[0]} centering samples")
    # every block but the last lies inside the window, and the last one ends
    # held - len(y) rows past it
    last = window[-1].zeta
    z = np.concatenate([*(b.zeta for b in window[:-1]), last[: len(last) - (held - len(y))]])
    # data past a double's range gives inf or NaN here, which effective_step rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mean0 = z[y == 0].mean(axis=0)
        mean1 = z[y == 1].mean(axis=0)
        resid = z - np.where(y[:, None] == 0, mean0, mean1)
        sigma2 = float(np.mean(np.sum(resid * resid, axis=1)))
    return window, CenteringStats(0.5 * (mean0 + mean1), sigma2, y.shape[0])


# sigma2_tilde below this is treated as exactly degenerate (noise-free data)
_SIGMA2_FLOOR = 1e-12


def effective_step(alpha_tilde: float, sigma2_tilde: float) -> float:
    """alpha = alpha_tilde / sigma2_tilde, flooring sigma2_tilde at 1e-12.

    The floor keeps noise-free datasets (residual exactly 0) runnable;
    negative or non-finite inputs are rejected.
    """
    if not (alpha_tilde > 0) or not np.isfinite(alpha_tilde):
        raise ValueError(f"alpha_tilde must be positive, got {alpha_tilde}")
    if not (sigma2_tilde >= 0) or not np.isfinite(sigma2_tilde):
        raise ValueError(f"sigma2_tilde must be >= 0, got {sigma2_tilde}")
    alpha = alpha_tilde / max(sigma2_tilde, _SIGMA2_FLOOR)
    if math.isinf(alpha):
        raise OverflowError(f"alpha_tilde / sigma2_tilde overflows at sigma2_tilde {sigma2_tilde}")
    return alpha


# ---------------------------------------------------------------------------
# parsers


class ParseError(ValueError):
    """Base for all dataset parsing failures."""


class IdxError(ParseError):
    """Base for IDX tensor-file failures."""


class IdxBadMagic(IdxError):
    pass


class IdxTruncated(IdxError):
    """Header or payload shorter (or longer) than the dimensions declare."""


class IdxDimOverflow(IdxError):
    """Declared dimensions multiply out to an implausible element count."""


class Cifar10Error(ParseError):
    pass


class CsvError(ParseError):
    pass


_IDX_MAGIC_VECTOR = 0x00000801  # unsigned-byte payload, 1 dimension
_IDX_MAGIC_TENSOR3 = 0x00000803  # unsigned-byte payload, 3 dimensions
_IDX_MAX_ELEMENTS = 1 << 40


def load_idx(data: bytes) -> np.ndarray:
    """Parse an IDX unsigned-byte tensor (big-endian header).

    Accepts the 1-D label form (magic 0x00000801) and the 3-D image form
    (0x00000803); returns a uint8 array of the declared shape.  Total:
    every input either parses or raises an IdxError subclass.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("load_idx expects bytes")
    data = bytes(data)
    if len(data) < 4:
        raise IdxTruncated(f"{len(data)} bytes is too short for a magic number")
    (magic,) = struct.unpack(">I", data[:4])
    if magic == _IDX_MAGIC_VECTOR:
        ndim = 1
    elif magic == _IDX_MAGIC_TENSOR3:
        ndim = 3
    else:
        raise IdxBadMagic(f"magic 0x{magic:08X} is not an unsigned-byte 1-D/3-D file")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxTruncated(
            f"header needs {header_len} bytes for {ndim} dims, got {len(data)}"
        )
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    count = 1
    for dim in dims:
        count *= dim
        if count > _IDX_MAX_ELEMENTS:
            raise IdxDimOverflow(f"dims {dims} exceed {_IDX_MAX_ELEMENTS} elements")
    if len(data) - header_len != count:
        raise IdxTruncated(
            f"dims {dims} declare {count} bytes of payload, got {len(data) - header_len}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header_len).reshape(dims)


_CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes


def load_cifar10_batch(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse one CIFAR-10 binary batch into labels (n,) and pixels (n, 3072).

    Records are 3073 bytes: one label in 0..9, then 3072 pixel bytes kept
    in file order.  Both arrays are uint8 views of ``data``; labels stay
    10-class here, pairing into a binary task is a separate step.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("load_cifar10_batch expects bytes")
    data = bytes(data)
    if len(data) == 0 or len(data) % _CIFAR_RECORD != 0:
        raise Cifar10Error(
            f"batch length {len(data)} is not a positive multiple of {_CIFAR_RECORD}"
        )
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = raw[:, 0]
    bad = labels > 9
    if np.any(bad):
        raise Cifar10Error(
            f"record {int(np.argmax(bad))} has label {int(labels[np.argmax(bad)])} > 9"
        )
    return labels, raw[:, 1:]


def load_csv_points(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a CSV dataset (header row, numeric features, final integer
    label) into labels (n,) and float features (n, d)."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as e:
        raise CsvError(f"malformed CSV: {e}") from None
    if len(rows) < 2:
        raise CsvError("need a header row and at least one data row")
    width = len(rows[0])
    if width < 2:
        raise CsvError("need at least one feature column plus the label column")
    labels, features = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvError(f"row {i} has {len(row)} fields, header has {width}")
        try:
            feats = [float(v) for v in row[:-1]]
            label = int(row[-1])
        except ValueError:
            raise CsvError(f"row {i} has a non-numeric field") from None
        if not all(math.isfinite(v) for v in feats):
            raise CsvError(f"row {i} has a non-finite feature")
        labels.append(label)
        features.append(feats)
    return np.array(labels), np.array(features)


def make_binary_task(
    labels: np.ndarray, features: np.ndarray, class_a: int, class_b: int
) -> Block:
    """Keep the rows labelled class_a (-> 0) or class_b (-> 1), in order.

    ``labels`` is (n,) and ``features`` (n, d) of any numeric dtype, as a
    parser returns them; the kept rows are copied in that dtype (uint8
    pixels stay uint8), to be converted when they are folded.  Both classes
    must be present and distinct.
    """
    labels, features = np.asarray(labels), np.asarray(features)
    if labels.ndim != 1 or features.ndim != 2 or labels.shape[0] != features.shape[0]:
        raise ValueError(f"need labels (n,), features (n, d); got {labels.shape}, {features.shape}")
    if class_a == class_b:
        raise ValueError(f"classes must differ, got {class_a} twice")
    keep = (labels == class_a) | (labels == class_b)
    y = (labels[keep] == class_b).astype(int)
    for label, cls in ((0, class_a), (1, class_b)):
        if not np.any(y == label):
            raise ValueError(f"class {cls} has no samples")
    return Block(y, features[keep])


def accuracy_on_set(
    pieces: Iterable[Block], classifiers: Sequence[tuple[np.ndarray, np.ndarray]],
    divisor: float = 1.0,
) -> list[float]:
    """Held-out accuracy of each (theta, offset), reading the set once, as
    labeled pieces of any sizes with features zeta / divisor as doubles.

    The rows are copied into runs of gemv_run_rows(d) rows and the rest; a
    run waits for the 4 rows after it, which the last run keeps.  Per run
    and classifier, margins of zeta - offset (in one reused buffer) count
    where a class-1 one is > 0 or a class-0 one < 0: the folded margins > 0
    of one gemv over the whole set, bit for bit, as negation is exact and
    gemv rounds symmetrically in sign.
    """
    d = classifiers[0][0].shape[0]
    step = gemv_run_rows(d)
    x, buf = np.empty((step + 4, d)), np.empty((step + 4, d))
    neg = np.empty(step + 4, dtype=bool)  # the class-0 rows of x
    correct, n, fill = [0] * len(classifiers), 0, 0

    def score(k: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (theta, offset) in enumerate(classifiers):
                margins = np.subtract(x[:k], offset, out=buf[:k]) @ theta
                correct[j] += int(np.count_nonzero(np.where(neg[:k], margins < 0, margins > 0)))

    for y, zeta in pieces:
        a = 0
        while a < y.shape[0]:
            if fill == step + 4:  # a full run and the 4 rows after it
                score(step)
                x[:4], neg[:4], fill = x[step:], neg[step:], 4
            k = min(step + 4 - fill, y.shape[0] - a)
            np.divide(zeta[a : a + k], divisor, out=x[fill : fill + k], dtype=float)
            np.equal(y[a : a + k], 0, out=neg[fill : fill + k])
            a, fill, n = a + k, fill + k, n + k
    if n == 0:
        raise ValueError("the held-out set has no rows")
    score(fill)
    return [c / n for c in correct]
