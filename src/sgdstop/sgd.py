"""Constant step-size SGD runs with terminating stopping rules.

The engine consumes folded samples xi (both classes mapped onto one
distribution, so correct classification means xi . theta > 0) from a
*sampler*: any iterator yielding 1-D float vectors of a fixed dimension.
Synthetic samplers are infinite; dataset-backed samplers may signal
exhaustion by ending, which the engine reports as a censored run rather
than an error.

Three stopping rules are implemented.

ExtraSample
    Each iteration draws an independent check sample and stops when its
    margin against the current iterate reaches 1.  Costs one extra draw per
    iteration: 2k + 1 samples for a run stopping at iteration k (one check
    before any update, then update + check per iteration).

ZeroOverhead
    The margin the next update would compute anyway, xi_{k+1} . theta_k, is
    tested against 1 before applying the update; on firing, theta_k is
    returned and the firing sample is not used for an update.  The firing
    draw is not charged to the run -- it is exactly the draw the next
    iteration would have consumed -- so a run stopping at iteration k
    reports k samples.

SmallValidation
    Plain SGD with a held-out validation set of p folded samples, drawn
    from the sampler before iterating.  The fraction of validation margins
    strictly above 0 is recorded at iteration 0 and again every ``period``
    iterations (default 2p); the run stops at the first check whose
    fraction fails to strictly exceed the previous one.  Fractions over p
    points take at most p + 1 distinct values and each surviving check
    strictly increases the fraction, so the rule always stops within
    (p + 1) * period iterations.  Reports iterations + p samples.

A rule of ``NONE`` runs plain SGD for exactly max_iter updates (used by
:func:`continue_run` to extend a terminated run).

A NaN or infinite margin (a non-finite sample, or an overflowed iterate)
ends any run at once as ``DIVERGED``, returning the iterate it was computed
against, instead of running on to max_iter with a NaN theta.

All runs start from theta = 0 unless an explicit ``theta0`` is given, halt
after at most max_iter updates (censored), and never mutate their inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .losses import LossKind, gradient_factor

__all__ = [
    "StopKind",
    "StopRule",
    "StopReason",
    "SgdConfig",
    "RunResult",
    "sgd_step",
    "run",
    "run_extra_sample",
    "run_zero_overhead",
    "run_svs",
    "continue_run",
]

# Margin level the stopping test checks against.
MARGIN_THRESHOLD = 1.0

Sampler = Iterator[np.ndarray]
Gate = Callable[[np.ndarray], bool]


class StopKind(enum.Enum):
    EXTRA_SAMPLE = "extra_sample"
    ZERO_OVERHEAD = "zero_overhead"
    SMALL_VALIDATION = "small_validation"
    NONE = "none"


@dataclass(frozen=True)
class StopRule:
    """Stopping rule selector; use the constructors, not the raw fields."""

    kind: StopKind
    p: int | None = None
    period: int | None = None

    @classmethod
    def extra_sample(cls) -> "StopRule":
        return cls(StopKind.EXTRA_SAMPLE)

    @classmethod
    def zero_overhead(cls) -> "StopRule":
        return cls(StopKind.ZERO_OVERHEAD)

    @classmethod
    def small_validation(cls, p: int, period: int | None = None) -> "StopRule":
        if p < 1:
            raise ValueError(f"validation size p must be >= 1, got {p}")
        if period is None:
            period = 2 * p
        if period < 1:
            raise ValueError(f"check period must be >= 1, got {period}")
        return cls(StopKind.SMALL_VALIDATION, p=p, period=period)

    @classmethod
    def none(cls) -> "StopRule":
        return cls(StopKind.NONE)


class StopReason(enum.Enum):
    FIRED = "fired"            # margin test reached the threshold
    PLATEAU = "plateau"        # validation fraction failed to increase
    CENSORED = "censored"      # max_iter reached
    EXHAUSTED = "exhausted"    # sampler ended before the rule stopped
    DIVERGED = "diverged"      # a margin came out NaN or infinite


@dataclass(frozen=True)
class SgdConfig:
    kind: LossKind
    alpha: float
    max_iter: int = 1_000_000
    rule: StopRule = field(default_factory=StopRule.zero_overhead)
    record_trace: bool = False

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    ``iterations`` counts applied updates, except for SmallValidation where
    it is the iteration index of the stopping check (a multiple of the
    period).  ``samples_consumed`` follows the per-rule accounting above;
    for exhausted and diverged runs it reports the draws actually made.
    ``trace`` holds (iteration, probe margin, cosine alignment with the
    probe) rows when tracing was requested, else None.
    """

    theta: np.ndarray
    iterations: int
    samples_consumed: int
    censored: bool
    stop_reason: StopReason
    trace: list[tuple[int, float, float]] | None = None


def sgd_step(
    theta: np.ndarray, xi: np.ndarray, kind: LossKind, alpha: float
) -> np.ndarray:
    """One update theta + alpha * s(margin) * xi; returns a new vector."""
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if theta.shape != xi.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape}, xi {xi.shape}")
    s = gradient_factor(kind, float(xi @ theta))
    return theta + (alpha * s) * xi


class _Tracer:
    """Records sparse (iteration, probe margin, alignment) rows."""

    def __init__(self, config: SgdConfig, probe: np.ndarray | None):
        self.rows: list[tuple[int, float, float]] | None = None
        if not config.record_trace:
            return
        if probe is None:
            raise ValueError("record_trace requires a trace_probe vector")
        self.probe = np.asarray(probe, dtype=float)
        self.probe_norm = float(np.linalg.norm(self.probe))
        if self.probe_norm == 0.0:
            raise ValueError("trace_probe must be nonzero")
        self.stride = max(1, -(-config.max_iter // 1000))  # ceil div
        self.rows = []

    def record(self, k: int, theta: np.ndarray) -> None:
        if self.rows is None or k % self.stride != 0:
            return
        m = float(self.probe @ theta)
        tn = float(np.linalg.norm(theta))
        align = 0.0 if tn == 0.0 else m / (tn * self.probe_norm)
        self.rows.append((k, m, align))


def _init_theta(sampler: Sampler, theta0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Starting iterate, plus the first draw if one was needed to size it."""
    if theta0 is not None:
        return np.array(theta0, dtype=float), None
    first = next(sampler)
    return np.zeros_like(first, dtype=float), first


def run_zero_overhead(
    sampler: Sampler,
    config: SgdConfig,
    *,
    theta0: np.ndarray | None = None,
    gate: Gate | None = None,
    trace_probe: np.ndarray | None = None,
) -> RunResult:
    """Zero-overhead rule: test xi_{k+1} . theta_k >= 1, no update on firing.

    ``gate``: optional predicate on theta; when given, a firing only stops
    the run if gate(theta) holds, otherwise the sample is used for a normal
    update.  Running the gated and ungated rules on coupled streams leaves
    the iterate path identical up to the ungated stop, so the gated
    stopping time dominates the plain one pathwise.
    """
    if config.rule.kind not in (StopKind.ZERO_OVERHEAD, StopKind.NONE):
        raise ValueError(f"config.rule is {config.rule.kind}, not zero_overhead")
    tracer = _Tracer(config, trace_probe)
    alpha = config.alpha
    kind = config.kind
    testing = config.rule.kind is StopKind.ZERO_OVERHEAD
    try:
        theta, pending = _init_theta(sampler, theta0)
    except StopIteration:
        raise ValueError("sampler yielded no samples") from None
    k = 0
    while k < config.max_iter:
        if pending is not None:
            xi, pending = pending, None
        else:
            try:
                xi = next(sampler)
            except StopIteration:
                return RunResult(theta, k, k, True, StopReason.EXHAUSTED, tracer.rows)
        m = float(xi @ theta)
        if not math.isfinite(m):
            return RunResult(theta, k, k + 1, True, StopReason.DIVERGED, tracer.rows)
        if testing and m >= MARGIN_THRESHOLD and (gate is None or gate(theta)):
            # firing draw is not charged: it is next iteration's sample
            return RunResult(theta, k, k, False, StopReason.FIRED, tracer.rows)
        theta += (alpha * gradient_factor(kind, m)) * xi
        k += 1
        tracer.record(k, theta)
    return RunResult(theta, k, k, True, StopReason.CENSORED, tracer.rows)


def run_extra_sample(
    sampler: Sampler,
    config: SgdConfig,
    *,
    check_sampler: Sampler | None = None,
    theta0: np.ndarray | None = None,
    gate: Gate | None = None,
    trace_probe: np.ndarray | None = None,
) -> RunResult:
    """Extra-sample rule: independent check margin >= 1 stops the run.

    Check samples come from ``check_sampler`` when given (two designated
    streams per run), otherwise they interleave with update draws from the
    one sampler, which for an i.i.d. stream is equivalent in distribution.
    """
    if config.rule.kind is not StopKind.EXTRA_SAMPLE:
        raise ValueError(f"config.rule is {config.rule.kind}, not extra_sample")
    checks = check_sampler if check_sampler is not None else sampler
    tracer = _Tracer(config, trace_probe)
    alpha = config.alpha
    kind = config.kind
    try:
        theta, pending = _init_theta(checks, theta0)
        check = pending if pending is not None else next(checks)
    except StopIteration:
        raise ValueError("sampler yielded no samples") from None
    k = 0
    drawn = 1
    try:
        while True:
            c = float(check @ theta)
            if not math.isfinite(c):
                return RunResult(theta, k, drawn, True, StopReason.DIVERGED, tracer.rows)
            if c >= MARGIN_THRESHOLD and (gate is None or gate(theta)):
                return RunResult(
                    theta, k, 2 * k + 1, False, StopReason.FIRED, tracer.rows
                )
            if k >= config.max_iter:
                return RunResult(
                    theta, k, 2 * k + 1, True, StopReason.CENSORED, tracer.rows
                )
            xi = next(sampler)
            drawn += 1
            m = float(xi @ theta)
            if not math.isfinite(m):
                return RunResult(theta, k, drawn, True, StopReason.DIVERGED, tracer.rows)
            theta += (alpha * gradient_factor(kind, m)) * xi
            k += 1
            tracer.record(k, theta)
            check = next(checks)
            drawn += 1
    except StopIteration:
        return RunResult(theta, k, drawn, True, StopReason.EXHAUSTED, tracer.rows)


def run_svs(
    sampler: Sampler,
    config: SgdConfig,
    *,
    theta0: np.ndarray | None = None,
    trace_probe: np.ndarray | None = None,
) -> RunResult:
    """Small-validation-set rule; see the module docstring for the protocol."""
    rule = config.rule
    if rule.kind is not StopKind.SMALL_VALIDATION:
        raise ValueError(f"config.rule is {rule.kind}, not small_validation")
    assert rule.p is not None and rule.period is not None
    tracer = _Tracer(config, trace_probe)
    try:
        val = np.stack([next(sampler) for _ in range(rule.p)])
    except StopIteration:
        raise ValueError(
            f"sampler ended before yielding the {rule.p} validation samples"
        ) from None
    theta = (
        np.array(theta0, dtype=float)
        if theta0 is not None
        else np.zeros(val.shape[1])
    )
    alpha = config.alpha
    kind = config.kind
    # margin exactly 0 counts incorrect, so theta = 0 scores 0.0
    frac_prev = float(np.mean(val @ theta > 0.0))
    k = 0
    while k < config.max_iter:
        try:
            xi = next(sampler)
        except StopIteration:
            return RunResult(
                theta, k, k + rule.p, True, StopReason.EXHAUSTED, tracer.rows
            )
        m = float(xi @ theta)
        if not math.isfinite(m):
            return RunResult(theta, k, k + 1 + rule.p, True, StopReason.DIVERGED, tracer.rows)
        theta += (alpha * gradient_factor(kind, m)) * xi
        k += 1
        tracer.record(k, theta)
        if k % rule.period == 0:
            frac = float(np.mean(val @ theta > 0.0))
            if frac <= frac_prev:
                return RunResult(
                    theta, k, k + rule.p, False, StopReason.PLATEAU, tracer.rows
                )
            frac_prev = frac
    return RunResult(theta, k, k + rule.p, True, StopReason.CENSORED, tracer.rows)


def run(
    sampler: Sampler,
    config: SgdConfig,
    *,
    check_sampler: Sampler | None = None,
    theta0: np.ndarray | None = None,
    trace_probe: np.ndarray | None = None,
) -> RunResult:
    """Dispatch on config.rule."""
    k = config.rule.kind
    if k is StopKind.EXTRA_SAMPLE:
        return run_extra_sample(
            sampler,
            config,
            check_sampler=check_sampler,
            theta0=theta0,
            trace_probe=trace_probe,
        )
    if k in (StopKind.ZERO_OVERHEAD, StopKind.NONE):
        return run_zero_overhead(
            sampler, config, theta0=theta0, trace_probe=trace_probe
        )
    if k is StopKind.SMALL_VALIDATION:
        return run_svs(sampler, config, theta0=theta0, trace_probe=trace_probe)
    raise TypeError(f"unknown stop rule: {config.rule!r}")


def continue_run(
    result: RunResult,
    sampler: Sampler,
    config: SgdConfig,
    extra_iters: int,
) -> RunResult:
    """Resume plain SGD (no stopping test) from a finished run.

    Applies up to ``extra_iters`` further updates; iterations and samples
    accumulate additively onto the base result.  The base stop_reason is
    kept unless the sampler runs out or a margin is non-finite first.
    """
    if extra_iters < 0:
        raise ValueError(f"extra_iters must be >= 0, got {extra_iters}")
    theta = np.array(result.theta, dtype=float)
    alpha = config.alpha
    kind = config.kind
    done = drawn = 0
    reason = result.stop_reason
    censored = result.censored
    for _ in range(extra_iters):
        try:
            xi = next(sampler)
        except StopIteration:
            reason = StopReason.EXHAUSTED
            censored = True
            break
        drawn += 1
        m = float(xi @ theta)
        if not math.isfinite(m):
            reason = StopReason.DIVERGED
            censored = True
            break
        theta += (alpha * gradient_factor(kind, m)) * xi
        done += 1
    return RunResult(
        theta,
        result.iterations + done,
        result.samples_consumed + drawn,
        censored,
        reason,
        result.trace,
    )
