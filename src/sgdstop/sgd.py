"""Constant step-size SGD runs with terminating stopping rules.

The engine consumes folded samples xi (both classes mapped onto one
distribution, so correct classification means xi . theta > 0) from a
*sampler*: any iterator yielding 1-D float vectors of a fixed dimension.
Synthetic samplers are infinite; dataset-backed samplers may signal
exhaustion by ending, which the engine reports as a censored run rather
than an error.

Every run goes through one update loop.  Each pass draws a sample xi,
computes its margin m = xi . theta_k and applies theta_{k+1} = theta_k +
alpha s(m) xi.  The rules differ only in a small stop test, made either on
that margin before the update or on the iterate at a fixed cadence, and in
how the draws made are charged to the run.

ExtraSample
    An independent check sample is drawn before the first update and after
    each one; the run stops when its margin against the current iterate
    reaches 1.  Costs one extra draw per iteration: 2k + 1 samples for a
    run stopping at iteration k.

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
    strictly above 0 is recorded at iteration 0 and again every period = 2p
    iterations; the run stops at the first check whose fraction fails to
    strictly exceed the previous one.  Fractions over p points take at most
    p + 1 distinct values and each surviving check strictly increases the
    fraction, so the rule always stops within (p + 1) * period iterations.
    Reports iterations + p samples.

Target
    Plain SGD that stops after the first update whose iterate satisfies a
    given predicate (a target set's membership test): the hit index is the
    first k >= 1 with theta_k inside; theta_0 is not tested.  Every draw is
    an update, so a run stopping at iteration k reports k samples.

A run's overhead is the margin evaluations its stop test made beyond plain
SGD: each check drawn (extra-sample), p per validation check (small
validation), none for the other rules.

A rule of ``NONE`` has no stop test and runs plain SGD for exactly max_iter
updates.  A stopped run is continued by a ``NONE`` run from its iterate
(``theta0=result.theta``) on the same sampler; the caller adds the counts.

A NaN or infinite margin (a non-finite sample, or an overflowed iterate)
ends any run at once as ``DIVERGED``, returning the iterate it was computed
against, instead of running on to max_iter with a NaN theta.  Exhausted and
diverged runs are charged the draws actually made.

All runs start from theta = 0 unless an explicit ``theta0`` is given, halt
after at most max_iter updates (censored), and never mutate their inputs.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .losses import MARGIN_THRESHOLD, LossKind, factor_function

__all__ = [
    "StopKind",
    "StopRule",
    "StopReason",
    "SgdConfig",
    "RunResult",
    "run",
]

Sampler = Iterator[np.ndarray]


class StopKind(enum.Enum):
    EXTRA_SAMPLE = "extra_sample"
    ZERO_OVERHEAD = "zero_overhead"
    SMALL_VALIDATION = "small_validation"
    TARGET = "target"
    NONE = "none"


@dataclass(frozen=True)
class StopRule:
    """Stopping rule selector; use the constructors, not the raw fields."""

    kind: StopKind
    p: int | None = None
    inside: Callable[[np.ndarray], bool] | None = None

    @property
    def period(self) -> int:  # updates between two small-validation checks
        return 2 * self.p

    @classmethod
    def extra_sample(cls) -> "StopRule":
        return cls(StopKind.EXTRA_SAMPLE)

    @classmethod
    def zero_overhead(cls) -> "StopRule":
        return cls(StopKind.ZERO_OVERHEAD)

    @classmethod
    def small_validation(cls, p: int) -> "StopRule":
        if p < 1:
            raise ValueError(f"validation size p must be >= 1, got {p}")
        return cls(StopKind.SMALL_VALIDATION, p=p)

    @classmethod
    def target(cls, inside: Callable[[np.ndarray], bool]) -> "StopRule":
        return cls(StopKind.TARGET, inside=inside)

    @classmethod
    def none(cls) -> "StopRule":
        return cls(StopKind.NONE)


class StopReason(enum.Enum):
    FIRED = "fired"            # margin test reached the threshold, or target hit
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

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run.

    ``iterations`` counts applied updates; for a small-validation run that
    plateaued it is the index of the stopping check, a multiple of the
    period.  ``samples_consumed`` is what the rule charges: k for
    zero-overhead and none, 2k + 1 for extra-sample, k + p for small
    validation; exhausted and diverged runs report the draws actually made.
    ``overhead`` is the stop test's margin evaluations: the checks drawn for
    extra-sample, p * (k // 2p + 1) for small validation, 0 otherwise.
    A continued run is a separate ``NONE`` run from ``theta``.
    """

    theta: np.ndarray
    iterations: int
    samples_consumed: int
    stop_reason: StopReason
    overhead: int

    @property
    def censored(self) -> bool:
        """True unless the rule stopped the run (it fired or plateaued)."""
        return self.stop_reason not in (StopReason.FIRED, StopReason.PLATEAU)


def _first(sampler: Sampler) -> np.ndarray:
    try:
        return next(sampler)
    except StopIteration:
        raise ValueError("sampler yielded no samples") from None


def _loop(
    rows: Sampler,
    theta: np.ndarray,
    kind: LossKind,
    alpha: float,
    limit: int,
    rule: StopRule,
    checks: Sampler | None = None,
    val: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int, StopReason, int]:
    """The update loop: up to ``limit`` updates of ``theta``, in place.

    Returns (theta, updates k, samples charged, reason, checks drawn).  The
    charge is the draws made from rows and checks, less a zero-overhead
    firing draw (the next update's sample); small validation's p samples
    are the caller's.
    The stop test follows ``rule``: zero-overhead tests each update margin
    before applying it; extra-sample draws a row from ``checks`` at k = 0
    and after every update; small validation scores ``val`` at k = 0 and
    every rule.period updates; target tests ``rule.inside`` after every
    update.
    """
    fire = MARGIN_THRESHOLD if rule.kind is StopKind.ZERO_OVERHEAD else math.inf
    period = rule.period if val is not None else 1
    inside = rule.inside
    if checks is not None or val is not None:
        next_check = 0
    else:
        next_check = 1 if inside is not None else -1
    prev = -1.0  # below every fraction, so the k = 0 check only sets the baseline
    factor, isfinite, multiply, add = factor_function(kind), math.isfinite, np.multiply, np.add
    step = np.empty_like(theta)
    scale = np.empty(())  # a 0-d array: a float argument is converted on every call
    k = checked = 0
    try:
        while True:
            if k == next_check:
                next_check += period
                if checks is not None:
                    c = next(checks).dot(theta)
                    checked += 1
                    if not isfinite(c):
                        return theta, k, k + checked, StopReason.DIVERGED, checked
                    if c >= MARGIN_THRESHOLD:
                        return theta, k, k + checked, StopReason.FIRED, checked
                elif val is not None:
                    # margin exactly 0 counts incorrect, so theta = 0 scores 0.0
                    frac = float(np.mean(val @ theta > 0.0))
                    if frac <= prev:
                        return theta, k, k, StopReason.PLATEAU, 0
                    prev = frac
                elif inside(theta):
                    return theta, k, k, StopReason.FIRED, 0
            if k >= limit:
                return theta, k, k + checked, StopReason.CENSORED, checked
            xi = next(rows)
            m = float(xi.dot(theta))  # exact; Python floats are cheaper to test and pass
            if not isfinite(m):
                return theta, k, k + checked + 1, StopReason.DIVERGED, checked
            if m >= fire:
                return theta, k, k, StopReason.FIRED, 0
            scale[()] = alpha * factor(m)
            multiply(xi, scale, step)
            add(theta, step, theta)
            k += 1
    except StopIteration:
        return theta, k, k + checked, StopReason.EXHAUSTED, checked


def run(
    sampler: Sampler,
    config: SgdConfig,
    *,
    check_sampler: Sampler | None = None,
    theta0: np.ndarray | None = None,
) -> RunResult:
    """Run config.rule on the sampler; see the module docstring for the rules.

    Extra-sample check samples come from ``check_sampler`` when given (two
    designated streams per run), otherwise they interleave with update
    draws from the one sampler, which for an i.i.d. stream is equivalent in
    distribution.  A sampler too short to size theta, give the first check
    or fill the validation set is a ValueError.
    """
    rule = config.rule
    rows = sampler
    checks = val = first = None
    if rule.kind is StopKind.SMALL_VALIDATION:
        assert rule.p is not None
        try:
            val = np.stack([next(sampler) for _ in range(rule.p)])
        except StopIteration:
            raise ValueError(
                f"sampler ended before yielding the {rule.p} validation samples"
            ) from None
        first = val[0]
    elif rule.kind is StopKind.EXTRA_SAMPLE:
        checks = sampler if check_sampler is None else check_sampler
        first = _first(checks)
        checks = itertools.chain((first,), checks)
    elif theta0 is None:
        first = _first(sampler)
        rows = itertools.chain((first,), sampler)
    theta = (
        np.array(theta0, dtype=float)
        if theta0 is not None
        else np.zeros_like(first, dtype=float)
    )
    # an overflowed iterate or margin ends the run as DIVERGED, so numpy's
    # warnings about it would only repeat the stop reason
    with np.errstate(over="ignore", invalid="ignore"):
        theta, k, charged, reason, checked = _loop(
            rows, theta, config.kind, config.alpha, config.max_iter, rule, checks, val
        )
    if val is not None:  # the p validation draws, and p margins per check
        charged += rule.p
        checked = rule.p * (k // rule.period + 1)
    return RunResult(theta, k, charged, reason, checked)
