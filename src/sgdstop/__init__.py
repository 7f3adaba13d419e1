"""Constant step-size SGD for linear classification with terminating stops.

Submodules:

    numerics  deterministic (seed, stream) randomness, Box-Muller
              Gaussians, normal CDF helpers
    losses    logistic/hinge losses and their update directions
    theory    folded Gaussian model: minimizers, accuracies, regimes,
              target sets, drift witnesses, stopping-time and angle bounds
    sgd       the run engine and the stopping rules
    verify    Monte-Carlo estimators checking the bounds by simulation
    data      folding, centering, synthetic mixtures, dataset parsers
    cli       the experiment commands (also exposed as the sgdstop script)
"""

from .losses import LossKind
from .numerics import RngState
from .sgd import RunResult, SgdConfig, StopRule
from .theory import GaussianFoldedModel

__version__ = "0.1.0"

__all__ = [
    "GaussianFoldedModel",
    "LossKind",
    "RngState",
    "RunResult",
    "SgdConfig",
    "StopRule",
    "__version__",
]
