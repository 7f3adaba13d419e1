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
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "LossKind",
    "gradient_factor",
]


class LossKind(enum.Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


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


def _sigmoid_vec(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) evaluated on the non-overflowing side of each entry.
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out
