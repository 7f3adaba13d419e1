"""Classification losses on the margin and their gradients.

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

Each loss's s(m) is one scalar function of a Python float; gradient_factor
dispatches to it by kind, and the engine binds it once per run through
factor_function.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

__all__ = [
    "LossKind",
    "factor_function",
    "gradient_factor",
]


class LossKind(enum.Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


def _logistic_factor(margin: float) -> float:
    """1 / (1 + exp(m)), evaluated on the stable side so large |m| never overflows."""
    if margin >= 0:
        e = math.exp(-margin)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(margin))


def _hinge_factor(margin: float) -> float:
    """1{m <= 1}."""
    return 1.0 if margin <= 1.0 else 0.0


_FACTORS = {LossKind.LOGISTIC: _logistic_factor, LossKind.HINGE: _hinge_factor}


def factor_function(kind: LossKind) -> Callable[[float], float]:
    """The scalar function m -> s(m) of ``kind``, to bind once per run."""
    try:
        return _FACTORS[kind]
    except (KeyError, TypeError):  # not a LossKind, or not even hashable
        raise TypeError(f"unknown loss kind: {kind!r}") from None


def gradient_factor(kind: LossKind, margin: float) -> float:
    """Scalar s(m) with -grad_theta l(xi . theta) = s(m) xi.

    logistic: s(m) = 1 / (1 + exp(m)), evaluated on the stable side so large
    |m| never overflows; hinge: s(m) = 1{m <= 1}.
    """
    return factor_function(kind)(margin)


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) evaluated on the non-overflowing side of each entry.
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
