"""Monte-Carlo estimators that check the finite-time bounds by simulation.

Each estimator runs many independent trials of the SGD engine on the folded
Gaussian model and reduces them to a :class:`TrialStats` (mean, standard
error, censoring counts).  Trial i draws through ``rng.substream(i)``, with
two designated sub-streams per run where a rule needs an independent check
stream, so a fixed (seed, stream) input reproduces every trial bit-for-bit
and trials never share randomness.

All the comparisons these estimators feed are one-sided: the theory gives
upper bounds, so checks are of the form

    estimate <= bound + (slack in standard errors),

and for the drift decrement the inequality is strict (a step of exactly 0,
as with alpha = 0, must fail).

Censored trials (max_iter reached, or an exhausted sampler) are excluded
from the mean and reported in ``n_censored``; an all-censored estimate is
NaN rather than an error.

One trial run and one drift probe are held at a time: an estimator keeps
only the numbers it reduces of each run, the probes are made one by one,
and the drift check reads its Monte-Carlo samples in pieces of about
``data.FOLD_ELEMENTS`` doubles and keeps two numbers per sample.  So
neither the trial count, the probe count nor ``n_mc * d`` sizes memory,
and the bytes are those of holding every run, probe and sample at once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .losses import factor_array
from .numerics import RngState, normal_rounds, normals_at
from .data import folded_gaussian_stream, gemv_run_rows
from .sgd import RunResult, SgdConfig, StopRule, run
from .theory import GaussianFoldedModel, Regime, RegimeSet, drift_value, target_set_contains

__all__ = [
    "TrialStats",
    "DriftCheck",
    "estimate_expected_T",
    "estimate_angle_deviation",
    "estimate_hitting_time",
    "make_drift_probes",
    "check_drift_inequality",
]


@dataclass(frozen=True)
class TrialStats:
    """Mean and standard error over the uncensored trials of an estimator."""

    mean: float
    stderr: float
    n_censored: int


def _reduce(values: list[float], n_trials: int) -> TrialStats:
    n_censored = n_trials - len(values)
    if not values:
        return TrialStats(math.nan, math.nan, n_censored)
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = (
        float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.nan
    )
    return TrialStats(mean, stderr, n_censored)


def _stopped_runs(
    model: GaussianFoldedModel,
    config: SgdConfig,
    n_trials: int,
    rng: RngState,
    theta0: np.ndarray | None = None,
) -> Iterator[RunResult]:
    """The uncensored runs of ``n_trials`` trials, one at a time.  Trial i
    trains on ``rng.substream(i).substream(0)``; an extra-sample rule checks
    on its ``.substream(1)``, a lazy stream that the other rules never read."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    for i in range(n_trials):
        trial = rng.substream(i)
        sampler = folded_gaussian_stream(model.mu, model.sigma, trial.substream(0))
        check = folded_gaussian_stream(model.mu, model.sigma, trial.substream(1))
        result = run(sampler, config, check_sampler=check, theta0=theta0)
        if not result.censored:
            yield result


def estimate_expected_T(
    model: GaussianFoldedModel, config: SgdConfig, n_trials: int, rng: RngState
) -> TrialStats:
    """Empirical mean stopping time of the configured rule on the model."""
    runs = _stopped_runs(model, config, n_trials, rng)
    return _reduce([float(r.iterations) for r in runs], n_trials)


def estimate_angle_deviation(
    model: GaussianFoldedModel,
    config: SgdConfig,
    v: np.ndarray,
    n_trials: int,
    rng: RngState,
) -> tuple[TrialStats, TrialStats]:
    """(stats of |v . theta_T|, stats of T) over uncensored trials.

    ``v`` must be a unit vector orthogonal to mu: along such directions the
    stopped iterate is a stopped martingale, which is what the deviation
    bound controls.  Both statistics come from the same trials, so their
    standard errors can be propagated into one combined slack.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (model.d,):
        raise ValueError(f"v has shape {v.shape}, expected ({model.d},)")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("v must be a unit vector")
    if abs(float(v @ model.mu)) > 1e-9 * model.mu_norm:
        raise ValueError("v must be orthogonal to mu")
    pairs = [(abs(float(v @ r.theta)), float(r.iterations))
             for r in _stopped_runs(model, config, n_trials, rng)]
    return (
        _reduce([dev for dev, _ in pairs], n_trials),
        _reduce([t for _, t in pairs], n_trials),
    )


def estimate_hitting_time(
    theta0: np.ndarray,
    rset: RegimeSet,
    max_iter: int,
    n_trials: int,
    rng: RngState,
) -> TrialStats:
    """Empirical mean of the first entry time into the target set.

    Plain SGD with the set's loss and step from theta0, which must lie
    outside the set, under the target rule: the hit index is the first
    k >= 1 with theta_k inside.  Runs not entering within max_iter count as
    censored.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if target_set_contains(rset, theta0):
        raise ValueError("theta0 already lies in the target set")
    rule = StopRule.target(functools.partial(target_set_contains, rset))
    config = SgdConfig(rset.kind, rset.alpha, max_iter=max_iter, rule=rule)
    runs = _stopped_runs(rset.model, config, n_trials, rng, theta0)
    return _reduce([float(r.iterations) for r in runs], n_trials)


def make_drift_probes(rset: RegimeSet, mu_dots: list[float], rng: RngState) -> Iterator[np.ndarray]:
    """Probe iterates with prescribed mu . theta and random orthogonal parts,
    made one at a time.

    Each probe is (t / |mu|^2) mu + u with u a random unit vector orthogonal
    to mu, t running over mu_dots.  Probe k's u is drawn from round k of
    normal_rounds(rng, (d,), len(mu_dots)), so the same rng makes the same
    probes again.  Probes must land outside the target set, where the drift
    witness is a finite double; a probe that does not raises ValueError when
    it is reached.
    """
    model = rset.model
    mu2 = model.mu_norm**2
    for t, (g,) in zip(mu_dots, normal_rounds(rng, (model.d,), len(mu_dots))):
        g -= (float(g @ model.mu) / mu2) * model.mu
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            raise ArithmeticError("degenerate orthogonal draw")
        theta = (t / mu2) * model.mu + (1.0 / norm) * g
        if target_set_contains(rset, theta):
            raise ValueError(f"probe with mu.theta = {t} lies inside the target set")
        try:
            drift_value(rset, theta)
        except OverflowError:
            raise ValueError(f"probe with mu.theta = {t} overflows the drift witness") from None
        yield theta


@dataclass(frozen=True)
class DriftCheck:
    """One-step drift estimate at a probe against the guaranteed decrement."""

    estimate: float
    stderr: float
    decrement: float  # guaranteed bound: estimate must fall below -decrement
    passed: bool


def check_drift_inequality(
    rset: RegimeSet,
    probes: Iterable[np.ndarray],
    n_mc: int,
    rng: RngState,
) -> list[DriftCheck]:
    """Monte-Carlo check of E[V(theta_1) - V(theta) | theta] <= -b outside C.

    Only the low-noise regime carries a quantitative decrement b = alpha
    |mu|^2, so high-regime sets are rejected.  The pass condition is strict
    (estimate < -b + 4 stderr): a drift of exactly zero, as produced by
    alpha = 0, must fail.

    Probe j's samples xi = mu + sigma z are the rows of n_mc * d normals z
    of ``rng.substream(j)``: pair i (z[2i] and z[2i + 1]) takes uniforms i
    and M + i, M = ceil(n_mc d / 2), read with normals_at in pieces of
    gemv_run_rows(d) rows (a lone last row joins the piece before it) into
    one reused buffer.  Only their margins xi . theta and mu . xi are kept,
    those of one gemv over all rows, bit for bit; the rest is computed on
    whole arrays, as the pairwise sums of the mean and std depend on length.
    """
    if rset.regime is not Regime.LOW:
        raise ValueError("quantitative drift decrement is only specified for low noise")
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2, got {n_mc}")
    model, alpha, b, d = rset.model, rset.alpha, rset.b, rset.model.d
    step = gemv_run_rows(d)
    second = (n_mc * d + 1) // 2  # the first uniform of the pairs' second run
    buf = np.empty(min(n_mc, step + 1) * d + 1)  # + 1: an odd count's last pair
    margins, mu_xi = np.empty(n_mc), np.empty(n_mc)
    checks = []
    for j, theta in enumerate(probes):
        theta = np.asarray(theta, dtype=float)
        if target_set_contains(rset, theta):
            raise ValueError(f"probe {j} lies inside the target set")
        stream, a = rng.substream(j), 0
        while a < n_mc:
            rows = n_mc - a if n_mc - a <= step + 1 else step
            pair, pairs = a * d // 2, (rows * d + 1) // 2  # a * d is even
            xis = normals_at(stream, pair, second + pair, buf[: 2 * pairs])[: rows * d].reshape(rows, d)
            xis *= model.sigma
            xis += model.mu  # mu + sigma * noise, in place
            np.matmul(xis, theta, out=margins[a : a + rows])
            np.matmul(xis, model.mu, out=mu_xi[a : a + rows])
            a += rows
        # V(theta_1) depends on theta_1 only through mu . theta_1, so the
        # rowwise V uses mu . theta_1 = mu . theta + alpha s (mu . xi)
        # directly; dv = (M - mu . theta_1)^2 - V(theta), in place
        dv = factor_array(rset.kind, margins)
        dv *= alpha
        dv *= mu_xi
        dv += float(model.mu @ theta)
        np.subtract(rset.M, dv, out=dv)
        np.square(dv, out=dv)
        dv -= drift_value(rset, theta)
        est = float(dv.mean())
        se = float(dv.std(ddof=1) / math.sqrt(n_mc))
        checks.append(DriftCheck(est, se, b, bool(est < -b + 4.0 * se)))
    return checks

