"""Exact quantities for the folded Gaussian model and the stopping bounds.

Folding maps a two-class Gaussian problem onto a single distribution: a
labeled pair (zeta, y) with class means mu_0, mu_1 becomes xi = (2y - 1)
(zeta - offset), and with the offset at the midpoint both classes produce
xi ~ N(mu, sigma^2 I_d) where mu = (mu_1 - mu_0)/2.  A linear classifier
theta is correct on a sample exactly when xi . theta > 0, so for this model

    accuracy(theta)  = Phi(mu . theta / (sigma |theta|)),

maximized by any positive multiple of mu at the value Phi(|mu|/sigma).
The stopping test fires on a check sample when its margin reaches 1, which
happens with probability

    Phi((mu . theta - 1) / (sigma |theta|)).

Restricted to the ray theta = rho mu, the population loss has a unique
minimizer rho_star:

    logistic: rho_star = 2 / sigma^2 (independent of |mu|);
    hinge:    rho_star = r / sigma^2 where r solves, with
              w = sigma/(r |mu|) - |mu|/sigma,
              Phi(w) exp(w^2 / 2) = sigma / (|mu| sqrt(2 pi)).

The left side is strictly increasing in w, so the hinge relation is solved
by bisection, carried out on logarithms so extreme |mu|/sigma ratios stay
in range.  log Phi comes from erfc in the body and from the Mills-ratio
asymptotic series in the far left tail (Abramowitz & Stegun 26.2.12).

The expected-stopping-time machinery is organized around regimes and target
sets.  Noise is "low" when sigma <= c |mu| (c = 0.33 logistic, 1.25 hinge)
and "high" otherwise.  Each regime has a target set C that attracts the
iterates and on which the test fires with probability at least delta:

    low:  C = {theta : mu . theta >= 1},            delta = 1/2,
          drift witness V(theta) = (M - mu . theta)^2;
    high: C = {theta : |rho - rho_star| < rho_star/2, sigma |theta_perp| <= c'},
          delta = Phi^c((2/rho_star - |mu|^2)/(sigma |mu|)) / 2,
          drift witness V(theta) = |theta - rho_star mu|^2 / (2 alpha),

where rho = mu . theta / |mu|^2 and theta_perp = theta - rho mu; only the
low regime's delta = 1/2 is checked (verify-bounds' target_delta).  Outside C
the drift witness decreases in expectation by at least b = alpha |mu|^2 per
step, which caps the expected entry time from theta at V(theta)/b and yields
the closed-form expected-stopping-time bound exposed here for the low regime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .losses import MARGIN_THRESHOLD, LossKind
from .numerics import std_normal_cdf, std_normal_ccdf

__all__ = [
    "GaussianFoldedModel",
    "Regime",
    "RegimeSet",
    "LOW_NOISE_RATIO",
    "minimizer_rho_star",
    "classifier_accuracy",
    "optimal_accuracy",
    "termination_probability",
    "regime_of",
    "regime_set",
    "target_set_contains",
    "drift_value",
    "low_regime_expected_T_bound",
    "angle_bound",
]

# Largest sigma/|mu| ratio counted as low noise, per loss.
LOW_NOISE_RATIO = {LossKind.LOGISTIC: 0.33, LossKind.HINGE: 1.25}

_SQRT1_2 = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianFoldedModel:
    """Folded sample distribution N(mu, sigma^2 I_d)."""

    mu: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a nonempty 1-D vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        with np.errstate(over="ignore"):  # an overflowing |mu| is rejected below
            n = float(np.linalg.norm(mu))
        if not 0.0 < n * n < math.inf:  # the bounds divide by |mu|^2
            raise ValueError(f"|mu|^2 must be a positive finite double, got {n * n!r}")
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        object.__setattr__(self, "mu", mu)

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    @property
    def mu_norm(self) -> float:
        return float(np.linalg.norm(self.mu))


class Regime(enum.Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class RegimeSet:
    """The regime of one (loss, model, step) with the constants of its bounds.

    b is the guaranteed one-step expected decrease of the drift witness
    outside the target set; M sets the low-regime witness scale; rho_star
    centres and c_prime bounds the orthogonal component of the high-noise
    target set (both None in the low regime, whose target set, witness and
    bound read only M and b).
    """

    regime: Regime
    model: GaussianFoldedModel
    kind: LossKind
    alpha: float
    b: float
    M: float
    rho_star: float | None
    c_prime: float | None


def minimizer_rho_star(kind: LossKind, mu_norm: float, sigma: float) -> float:
    """Ray coefficient of the population-loss minimizer rho_star mu.

    sigma = 0 is rejected: the separable population problem has no finite
    minimizer on the ray.
    """
    if mu_norm <= 0:
        raise ValueError(f"mu_norm must be positive, got {mu_norm}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if kind is LossKind.LOGISTIC:
        return 2.0 / (sigma * sigma)
    if kind is LossKind.HINGE:
        w = _solve_hinge_w(mu_norm, sigma)
        r = sigma / (mu_norm * (w + mu_norm / sigma))
        return r / (sigma * sigma)
    raise TypeError(f"unknown loss kind: {kind!r}")


def _log_ndtr(w: float) -> float:
    """log Phi(w), relatively accurate on the whole line.

    Above -1, log1p of the complement keeps log Phi(w) ~ -Phi^c(w) accurate
    as w grows; down to -30, erfc(-w/sqrt 2) / 2 is Phi(w) itself, relatively
    accurate deep into the tail.  Below -30 (where erfc heads for underflow)
    log Phi(w) = -w^2/2 - log(-w sqrt(2 pi)) + log S with the asymptotic
    Mills-ratio series S = 1 - 1/w^2 + 3/w^4 - 15/w^6 + ...; nine terms leave
    an error below 1e-20 there.
    """
    if w > -1.0:
        return math.log1p(-0.5 * math.erfc(w * _SQRT1_2))
    if w > -30.0:
        return math.log(0.5 * math.erfc(-w * _SQRT1_2))
    x = 1.0 / (w * w)
    series = 1.0
    for k in range(9, 0, -1):  # Horner form of the series, innermost term first
        series = 1.0 - (2 * k - 1) * x * series
    return -0.5 * w * w - math.log(-w) - _HALF_LOG_2PI + math.log(series)


def _solve_hinge_w(mu_norm: float, sigma: float) -> float:
    """Root of log Phi(w) + w^2/2 = log(sigma / (mu_norm sqrt(2 pi))).

    The left side is strictly increasing (phi(w)/Phi(w) + w > 0 for all w),
    and the root always lies in (-mu_norm/sigma, 40): just above the lower
    endpoint the left side is below the target, and at 40 the w^2/2 term
    dominates any sane right side.  Past |mu|/sigma ~ 1e4 the left side near
    the lower endpoint is rounding noise, so the bracket check may fail; the
    bisection stops once no double lies between its ends.
    """
    ratio = sigma / (mu_norm * math.sqrt(2.0 * math.pi))
    target = math.log(ratio) if ratio > 0.0 else -math.inf  # underflowed: the bracket fails

    def f(w: float) -> float:
        return _log_ndtr(w) + 0.5 * w * w - target

    lo = -mu_norm / sigma + 1e-12
    hi = 40.0
    if not (f(lo) < 0.0 < f(hi)):
        raise ArithmeticError(
            f"hinge minimizer bracket failed for mu_norm={mu_norm}, sigma={sigma}"
        )
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # ends a double apart, wider than 1e-12
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classifier_accuracy(theta: np.ndarray, model: GaussianFoldedModel) -> float:
    """P(xi . theta > 0) for xi ~ N(mu, sigma^2 I); requires theta != 0."""
    theta = np.asarray(theta, dtype=float)
    if not theta.any():
        raise ValueError("classifier accuracy undefined for theta = 0")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(theta))
    if norm == 0.0 or not math.isfinite(norm):
        # the sum of squares underflowed or overflowed; the accuracy does not
        # depend on the scale of theta
        theta = theta / np.max(np.abs(theta))
        norm = float(np.linalg.norm(theta))
    mean_margin = float(model.mu @ theta)
    if model.sigma == 0.0:
        return 1.0 if mean_margin > 0.0 else 0.0
    spread = model.sigma * norm
    if spread == 0.0:  # sigma |theta| underflows: Phi(+-inf), or 1/2 on the boundary
        return 0.5 if mean_margin == 0.0 else float(mean_margin > 0.0)
    return std_normal_cdf(mean_margin / spread)


def optimal_accuracy(model: GaussianFoldedModel) -> float:
    """Best achievable accuracy, attained along mu: Phi(|mu|/sigma)."""
    if model.sigma == 0.0:
        return 1.0
    return std_normal_cdf(model.mu_norm / model.sigma)


def termination_probability(theta: np.ndarray, model: GaussianFoldedModel) -> float:
    """P(xi . theta >= 1) on an independent check sample.

    theta = 0 gives margin 0 with certainty, hence probability 0.
    """
    theta = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(theta))
    mean_margin = float(model.mu @ theta)
    spread = model.sigma * norm
    if spread == 0.0:
        return 1.0 if mean_margin >= MARGIN_THRESHOLD else 0.0
    return std_normal_cdf((mean_margin - MARGIN_THRESHOLD) / spread)


def regime_of(kind: LossKind, model: GaussianFoldedModel) -> Regime:
    """Low noise iff sigma <= c |mu| (boundary counts as low)."""
    if model.sigma <= LOW_NOISE_RATIO[kind] * model.mu_norm:
        return Regime.LOW
    return Regime.HIGH


def regime_set(
    kind: LossKind, model: GaussianFoldedModel, alpha: float
) -> RegimeSet:
    # alpha = 0 is allowed so degenerate configurations can still be probed;
    # the decrement b is then 0 and no quantitative bound holds.
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    mu2 = model.mu_norm**2
    b = alpha * mu2
    if alpha > 0 and b == 0.0:
        raise FloatingPointError(f"alpha |mu|^2 underflows to 0 at alpha = {alpha!r}")
    if kind is LossKind.LOGISTIC:
        M = 501.0 + 640.0 * alpha * mu2
    elif kind is LossKind.HINGE:
        M = 501.0 + 782.0 * alpha * mu2
    else:
        raise TypeError(f"unknown loss kind: {kind!r}")
    regime = regime_of(kind, model)
    if regime is Regime.LOW:
        if not math.isfinite(M * M):
            raise OverflowError(f"the drift witness scale M^2 overflows at alpha |mu|^2 = {b!r}")
        return RegimeSet(regime, model, kind, alpha, b, M, None, None)
    rho_star = minimizer_rho_star(kind, model.mu_norm, model.sigma)
    c_prime = 436.0 if kind is LossKind.LOGISTIC else 8.0 + 10.0 * rho_star * model.sigma**2
    return RegimeSet(regime, model, kind, alpha, b, M, rho_star, c_prime)


def _ray_split(theta: np.ndarray, model: GaussianFoldedModel) -> tuple[float, float]:
    """(rho, |orthogonal part|) of theta = rho mu + theta_perp."""
    theta = np.asarray(theta, dtype=float)
    mu2 = model.mu_norm**2
    rho = float(model.mu @ theta) / mu2
    perp = theta - rho * model.mu
    return rho, float(np.linalg.norm(perp))


def target_set_contains(rset: RegimeSet, theta: np.ndarray) -> bool:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (rset.model.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({rset.model.d},)")
    if rset.regime is Regime.LOW:
        return float(rset.model.mu @ theta) >= MARGIN_THRESHOLD
    rho, perp_norm = _ray_split(theta, rset.model)
    rho_star = rset.rho_star
    return (
        abs(rho - rho_star) < 0.5 * rho_star
        and rset.model.sigma * perp_norm <= rset.c_prime
    )


def drift_value(rset: RegimeSet, theta: np.ndarray) -> float:
    """Drift witness V(theta) for the regime's target set.

    Low regime: (M - mu . theta)^2.  High regime: |theta - rho_star mu|^2
    / (2 alpha).  Nonnegative everywhere; the high-regime witness vanishes
    only at the ray minimizer.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (rset.model.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({rset.model.d},)")
    if rset.regime is Regime.LOW:
        return (rset.M - float(rset.model.mu @ theta)) ** 2
    if rset.alpha <= 0:
        raise ValueError(f"alpha must be positive, got {rset.alpha}")
    diff = theta - rset.rho_star * rset.model.mu
    return float(diff @ diff) / (2.0 * rset.alpha)


def low_regime_expected_T_bound(
    kind: LossKind, model: GaussianFoldedModel, alpha: float
) -> float:
    """Closed-form bound on the expected stopping time in the low regime.

        E[T] <= 2 + (2 M^2 / b) (Phi^c(|mu|/sigma)
                + (alpha sigma^3 / |mu|) exp(-|mu|^2/(2 sigma^2)) / sqrt(2 pi)
                + 1)

    with b = alpha |mu|^2 and the loss-specific M.  Requires the model to
    actually be in the low-noise regime for the chosen loss.
    """
    if regime_of(kind, model) is not Regime.LOW:
        raise ValueError("expected-stopping-time bound only holds in the low regime")
    if model.sigma == 0.0:
        raise ValueError("bound requires sigma > 0")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rset = regime_set(kind, model, alpha)
    t = model.mu_norm / model.sigma
    tail = std_normal_ccdf(t)
    gauss_term = (
        alpha
        * model.sigma**3
        / model.mu_norm
        * math.exp(-0.5 * t * t)
        / math.sqrt(2.0 * math.pi)
    )
    return 2.0 + (2.0 * rset.M**2 / rset.b) * (tail + gauss_term + 1.0)


def angle_bound(sigma: float, alpha: float, expected_T: float) -> float:
    """Bound on E|v . theta_T| for any unit v orthogonal to mu.

        E|v . theta_T| <= sigma alpha sqrt(2/pi) E[T]

    The orthogonal coordinate is a martingale with per-step first absolute
    moment at most sigma alpha sqrt(2/pi), stopped at T.
    """
    if sigma < 0 or alpha < 0:
        raise ValueError("sigma and alpha must be nonnegative")
    if expected_T < 0:
        raise ValueError(f"expected_T must be nonnegative, got {expected_T}")
    return sigma * alpha * math.sqrt(2.0 / math.pi) * expected_T
