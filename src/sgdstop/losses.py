"""Classification losses on the margin, their gradients, and ray restrictions.

A homogeneous linear classifier theta acts on a folded sample xi through the
margin m = xi . theta, and the training losses are functions of that margin
alone:

    logistic: l(m) = log(1 + exp(-m))
    hinge:    l(m) = max(0, 1 - m)

Both are convex and nonincreasing in m.  The SGD update direction for a
sample is the negative gradient of l(xi . theta) in theta, which is a scalar
multiple of xi:

    logistic: xi / (1 + exp(m))
    hinge:    xi        if m <= 1, else 0

The hinge subgradient at the kink m = 1 is taken as -xi (the one-sided choice
that keeps pushing while the margin has not cleared 1); for continuous data
the kink has probability zero.

For the population objective over xi ~ N(mu, sigma^2 I_d) restricted to the
ray theta = rho mu, the margin is a scalar Gaussian z ~ N(|mu|^2, sigma^2
|mu|^2), and the restricted objective E[l(rho z)] reduces to one-dimensional
integrals: Gauss-Hermite quadrature for the logistic loss, closed-form
truncated-normal moments for the hinge.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .numerics import (
    QuadratureRule,
    gauss_hermite_expectation,
    truncated_normal_lower_moment,
)

__all__ = [
    "LossKind",
    "loss_value",
    "gradient_factor",
    "ray_objective",
    "ray_derivative",
]


class LossKind(enum.Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


def softplus(x: float) -> float:
    """log(1 + exp(x)) without overflow: max(x, 0) + log1p(exp(-|x|))."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def loss_value(kind: LossKind, margin: float) -> float:
    """Loss at a given margin; finite for every finite margin."""
    if kind is LossKind.LOGISTIC:
        return softplus(-margin)
    if kind is LossKind.HINGE:
        return max(0.0, 1.0 - margin)
    raise TypeError(f"unknown loss kind: {kind!r}")


def gradient_factor(kind: LossKind, margin: float) -> float:
    """Scalar s(m) with -grad_theta l(xi . theta) = s(m) xi.

    logistic: s(m) = 1 / (1 + exp(m)), evaluated on the stable side so large
    |m| never overflows; hinge: s(m) = 1{m <= 1}.
    """
    if kind is LossKind.LOGISTIC:
        if margin >= 0:
            e = math.exp(-margin)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(margin))
    if kind is LossKind.HINGE:
        return 1.0 if margin <= 1.0 else 0.0
    raise TypeError(f"unknown loss kind: {kind!r}")


def ray_objective(
    kind: LossKind,
    rho: float,
    mu_norm: float,
    sigma: float,
    rule: QuadratureRule | None = None,
) -> float:
    """Population loss at theta = rho mu for xi ~ N(mu, sigma^2 I).

    Only the scalar margin distribution matters: z ~ N(mu_norm^2,
    sigma^2 mu_norm^2) and the value is E[l(rho z)].
    """
    _check_model(mu_norm, sigma)
    mean = mu_norm * mu_norm
    sd = sigma * mu_norm
    if kind is LossKind.LOGISTIC:
        return gauss_hermite_expectation(
            lambda z: _softplus_vec(-rho * z), mean, sd, rule
        )
    if kind is LossKind.HINGE:
        if rho == 0.0:
            return 1.0
        # E[(1 - rho z) 1{rho z <= 1}] via partial moments of z below/above 1/rho.
        b = 1.0 / rho
        mass, partial = truncated_normal_lower_moment(mean, sd, b)
        if rho > 0:
            return mass - rho * partial
        return (1.0 - mass) - rho * (mean - partial)
    raise TypeError(f"unknown loss kind: {kind!r}")


def ray_derivative(
    kind: LossKind,
    rho: float,
    mu_norm: float,
    sigma: float,
    rule: QuadratureRule | None = None,
) -> float:
    """d/drho of ray_objective; vanishes exactly at the ray minimizer.

    logistic: -E[z / (1 + exp(rho z))]; hinge: -E[z 1{z <= 1/rho}], the
    first partial moment of the margin below the kink, defined for rho > 0.
    """
    _check_model(mu_norm, sigma)
    mean = mu_norm * mu_norm
    sd = sigma * mu_norm
    if kind is LossKind.LOGISTIC:
        return gauss_hermite_expectation(
            lambda z: -z * _sigmoid_vec(-rho * z), mean, sd, rule
        )
    if kind is LossKind.HINGE:
        if rho <= 0:
            raise ValueError("hinge ray derivative requires rho > 0")
        _, partial = truncated_normal_lower_moment(mean, sd, 1.0 / rho)
        return -partial
    raise TypeError(f"unknown loss kind: {kind!r}")


def _check_model(mu_norm: float, sigma: float) -> None:
    if mu_norm <= 0:
        raise ValueError(f"mu_norm must be positive, got {mu_norm}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")


def _softplus_vec(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) evaluated on the non-overflowing side of each entry.
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
