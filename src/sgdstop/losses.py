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

Each loss's s(m) is one scalar function of a Python float, which
factor_function returns by kind; the engine binds it once per run.
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

__all__ = [
    "LossKind",
    "MARGIN_THRESHOLD",
    "factor_function",
    "factor_array",
]

# The unit margin: the hinge's kink, and the level the stop tests check against.
MARGIN_THRESHOLD = 1.0


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
    return 1.0 if margin <= MARGIN_THRESHOLD else 0.0


_FACTORS = {LossKind.LOGISTIC: _logistic_factor, LossKind.HINGE: _hinge_factor}


def factor_function(kind: LossKind) -> Callable[[float], float]:
    """The scalar function m -> s(m) of ``kind``, with -grad_theta l(xi . theta)
    = s(m) xi, to bind once per run."""
    try:
        return _FACTORS[kind]
    except (KeyError, TypeError):  # not a LossKind, or not even hashable
        raise TypeError(f"unknown loss kind: {kind!r}") from None


def factor_array(kind: LossKind, margins: np.ndarray) -> np.ndarray:
    """factor_function(kind) on each entry of an array of margins, as floats;
    the logistic factor is taken on the non-overflowing side of each entry."""
    if factor_function(kind) is _hinge_factor:  # which also rejects an unknown kind
        return (margins <= MARGIN_THRESHOLD).astype(float)
    out, low = np.empty_like(margins, dtype=float), margins <= 0
    out[low] = 1.0 / (1.0 + np.exp(margins[low]))
    e = np.exp(-margins[~low])
    out[~low] = e / (1.0 + e)
    return out
