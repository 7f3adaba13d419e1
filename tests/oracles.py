"""Independent numerical oracles for the closed forms in ``sgdstop.theory``
and for the SGD engine.

Nothing the package runs needs these; the tests use them to cross-check the
package by other routes.  ``sgd_step`` applies one update on its own, the
reference for the engine's accounting and iterates.  ``fold`` writes a
labeled block folded into a new matrix, and ``first_rows`` gathers the head
of a block stream into one block: the whole-set references for streamed
held-out scoring and for sampler statistics.  ``standard_normals`` draws
normals whole from a generator, through ``box_muller`` on whole arrays: the
reference for every positioned Gaussian read, whose layout puts call k's
uniforms where that generator hands them out.  ``drift_samples`` draws a
drift check's samples all at once, and ``drift_estimates`` reduces them:
the whole-array references for the check's pieces.  Loss values,
Gauss-Hermite quadrature and truncated-normal moments give the population
loss restricted to the ray theta = rho mu, whose minimizer
``theory.minimizer_rho_star`` computes in closed form.

For xi ~ N(mu, sigma^2 I_d) on that ray the margin is a scalar Gaussian
z ~ N(|mu|^2, sigma^2 |mu|^2), and the restricted objective E[l(rho z)]
reduces to one-dimensional integrals: Gauss-Hermite quadrature for the
logistic loss, closed-form truncated-normal moments for the hinge.

Gauss-Hermite quadrature uses the physicists' convention: nodes and weights
integrate against exp(-x^2), weights summing to sqrt(pi).  For f against a
N(mean, sigma^2) density,

    E[f(Z)] = sum_i w_i f(mean + sqrt(2) sigma x_i) / sqrt(pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from sgdstop.data import Block, _fold_rows
from sgdstop.losses import LossKind, factor_array, factor_function
from sgdstop.numerics import RngState, std_normal_cdf
from sgdstop.theory import RegimeSet, drift_value

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# normal density, quadrature, truncated moments


def std_normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights, physicists' convention (sum w = sqrt(pi))."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


def gauss_hermite_rule(order: int = 128) -> QuadratureRule:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    with warnings.catch_warnings():
        # hermgauss overflows to nan weights somewhere above order ~360;
        # surface that as an error instead of a warning plus bad values
        warnings.simplefilter("ignore", RuntimeWarning)
        nodes, weights = hermgauss(order)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ValueError(f"order {order} overflows the weight computation")
    return QuadratureRule(nodes=nodes, weights=weights)


_DEFAULT_RULE = gauss_hermite_rule(128)


def gauss_hermite_expectation(
    f, mean: float, sigma: float, rule: QuadratureRule | None = None
) -> float:
    """E[f(Z)] for Z ~ N(mean, sigma^2) by Gauss-Hermite quadrature.

    ``f`` must accept a numpy array of evaluation points.  Exact for
    polynomials up to degree 2*order - 1; order 128 by default.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if rule is None:
        rule = _DEFAULT_RULE
    pts = mean + _SQRT2 * sigma * rule.nodes
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != rule.nodes.shape:
        raise ValueError("f must map the node array to an equally shaped array")
    return float(rule.weights @ vals) / math.sqrt(math.pi)


def truncated_normal_lower_moment(
    mean: float, sigma: float, b: float
) -> tuple[float, float]:
    """Mass and first partial moment of N(mean, sigma^2) below b.

    Returns (P(X <= b), E[X 1{X <= b}]).  With z = (b - mean)/sigma,

        mass         = Phi(z)
        partial_mean = mean Phi(z) - sigma phi(z)

    The complementary upper pieces are (1 - mass, mean - partial_mean), so
    the two halves always reconstruct (1, mean).  sigma = 0 degenerates to a
    point mass at the mean.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0.0:
        if mean <= b:
            return 1.0, mean
        return 0.0, 0.0
    z = (b - mean) / sigma
    mass = std_normal_cdf(z)
    partial = mean * mass - sigma * std_normal_pdf(z)
    return mass, partial


# ---------------------------------------------------------------------------
# loss values and the population loss on the ray theta = rho mu


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
            lambda z: -z * factor_array(LossKind.LOGISTIC, rho * z), mean, sd, rule
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


# ---------------------------------------------------------------------------
# step-size limit of the high-noise regime


def high_regime_max_step(
    mu_norm: float, sigma: float, d: int, scale: float = 1.0
) -> float:
    """Largest admissible step in the high regime, up to a universal factor.

        alpha <= scale * |mu|^2 / (sigma^2 (|mu|^2 + d sigma^2))

    The universal factor is not pinned down quantitatively, so the caller
    supplies ``scale`` (default 1.0).
    """
    if mu_norm <= 0:
        raise ValueError(f"mu_norm must be positive, got {mu_norm}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    mu2 = mu_norm * mu_norm
    return scale * mu2 / (sigma * sigma * (mu2 + d * sigma * sigma))


# ---------------------------------------------------------------------------
# Gaussians drawn whole


def box_muller(u: np.ndarray) -> np.ndarray:
    """Box-Muller as its formula on whole arrays: the normals of the pairs of
    a (2, m) array of uniforms on [0, 1), r cos t and r sin t interleaved."""
    r, t = np.sqrt(-2.0 * np.log(1.0 - u[0])), 2.0 * np.pi * u[1]
    out = np.empty(2 * r.size)
    out[0::2], out[1::2] = r * np.cos(t), r * np.sin(t)
    return out


def standard_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n normals drawn whole: the m = ceil(n / 2) first uniforms of their
    pairs, then their m second uniforms, drawn from ``gen``, through
    box_muller (the last normal of an odd n dropped).  So calls in turn on
    ``rng.generator()`` read the stream's uniforms in turn, 2m per call."""
    m = (n + 1) // 2
    return box_muller(gen.random((2, m)))[:n]


# ---------------------------------------------------------------------------
# one SGD update, the reference for the engine


def sgd_step(
    theta: np.ndarray, xi: np.ndarray, kind: LossKind, alpha: float
) -> np.ndarray:
    """One update theta + alpha * s(margin) * xi; returns a new vector."""
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if theta.shape != xi.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape}, xi {xi.shape}")
    s = factor_function(kind)(float(xi @ theta))
    return theta + (alpha * s) * xi


def drift_samples(rset: RegimeSet, n_mc: int, rng: RngState) -> np.ndarray:
    """A drift check's n_mc samples xi = mu + sigma z at one probe, drawn at
    once: the rows of ``standard_normals(rng.generator(), n_mc * d)``."""
    model = rset.model
    z = standard_normals(rng.generator(), n_mc * model.d)
    return z.reshape(n_mc, model.d) * model.sigma + model.mu


def drift_estimates(
    rset: RegimeSet, probes: list[np.ndarray], n_mc: int, rng: RngState
) -> list[tuple[float, float]]:
    """(estimate, stderr) of the one-step drift at each probe from all of its
    n_mc samples drawn at once, probe j's by drift_samples from
    ``rng.substream(j)``."""
    model, estimates = rset.model, []
    for j, theta in enumerate(probes):
        xis = drift_samples(rset, n_mc, rng.substream(j))
        s = factor_array(rset.kind, xis @ theta)
        mu_dot_1 = float(model.mu @ theta) + rset.alpha * s * (xis @ model.mu)
        dv = (rset.M - mu_dot_1) ** 2 - drift_value(rset, theta)
        estimates.append((float(dv.mean()), float(dv.std(ddof=1) / math.sqrt(n_mc))))
    return estimates


# ---------------------------------------------------------------------------
# labeled blocks as whole matrices


def fold(labeled: Block, offset: np.ndarray) -> np.ndarray:
    """xi = (2y - 1)(zeta - offset) for every row, as a new (n, d) matrix."""
    return _fold_rows(labeled.y, labeled.zeta, offset, np.empty(labeled.zeta.shape))


def first_rows(blocks, n: int) -> Block:
    """The first n rows of a block stream (fewer if it ends), as one block."""
    ys, zetas, k = [], [], 0
    for y, zeta in blocks:
        ys.append(y)
        zetas.append(zeta)
        k += y.shape[0]
        if k >= n:
            break
    return Block(np.concatenate(ys)[:n], np.concatenate(zetas)[:n])
