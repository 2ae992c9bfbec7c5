"""Difficulty pacing and adversarial sample reweighting.

The pacing function ramps the difficulty percentile linearly from ``theta0``
at epoch 0 to ``max_difficulty`` at epoch ``ramp_epochs`` and clamps there;
it reads them from the run's TrainConfig.

Reweighting modes, all closed forms over the current per-sample losses:

* ``spl``      : w = 1 for losses strictly below lambda1, else 0.
* ``hard_acl`` : w = 1 inside the open window (lambda2, lambda1), else 0;
  both too-easy and too-hard samples are dropped.
* ``soft_acl`` : w = 1 on [lambda2, lambda1), loss/lambda2 below lambda2
  (easy samples keep a reduced weight), 0 at or above lambda1.
* ``uniform``  : w = 1 everywhere.

``weights_for_mode`` returns the weights as one float64 array, and
``weight_fields`` turns it into a step record's four weight keys.

The admission window opens on an epoch's first-step losses at the median
(lambda1) and 0.95x the minimum (lambda2), then widens every step: lambda1
grows by eta1 > 1 and lambda2 shrinks by eta2 < 1, so the set of admitted
samples only expands for fixed losses. An epoch with no window is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, SizeError
from .util import median

if TYPE_CHECKING:
    from .config import TrainConfig

MODES = ("uniform", "spl", "hard_acl", "soft_acl")


def pacing_difficulty(epoch: int, config: TrainConfig) -> float:
    """Linear ramp theta(t) = min(1, theta0/M + (1 - theta0/M) * t/T) * M,
    where T is ``ramp_epochs``, or ``epochs`` when that is None."""
    if epoch < 0:
        raise SizeError(f"epoch: must be >= 0, got {epoch}")
    ramp = config.epochs if config.ramp_epochs is None else config.ramp_epochs
    start = config.theta0 / config.max_difficulty
    frac = min(1.0, start + (1.0 - start) * epoch / ramp)
    return frac * config.max_difficulty


@dataclass(frozen=True)
class AclThresholds:
    lambda1: float          # upper admission threshold
    lambda2: float          # lower admission threshold

    def __post_init__(self):
        if not self.lambda2 < self.lambda1:
            raise ConfigError(f"thresholds: lambda2 ({self.lambda2}) must be < lambda1 ({self.lambda1})")


def open_window(first_step_losses, mode: str) -> AclThresholds | None:
    """The epoch's admission window: lambda1 = median of the first step's
    losses, lambda2 = 0.95 * their minimum. None, which weighs uniformly, in
    ``uniform`` mode, when lambda2 >= lambda1 (only possible when the
    minimum loss is <= 0), and when lambda2 <= 0 under ``soft_acl``."""
    losses = np.asarray(first_step_losses, dtype=np.float64)
    if losses.size == 0:
        raise SizeError("cannot open an admission window on an empty loss list")
    lambda1, lambda2 = median(losses), float(0.95 * losses.min())
    if mode == "uniform" or lambda2 >= lambda1 or (mode == "soft_acl" and lambda2 <= 0):
        return None
    return AclThresholds(lambda1=lambda1, lambda2=lambda2)


def window_fields(window: AclThresholds | None) -> dict:
    """The ``lambda1``/``lambda2`` fields of a record; None without a window."""
    return {"lambda1": window.lambda1 if window else None,
            "lambda2": window.lambda2 if window else None}


def weight_fields(weights: np.ndarray) -> dict:
    """The weight fields of a step record: the share of positive weights (0
    for none), then the shares of zero, strictly fractional and full ones."""
    n = max(1, weights.size)
    zero, one = (float(np.sum(weights == value)) / n for value in (0.0, 1.0))
    return {"active_fraction": float(np.mean(weights > 0)) if weights.size else 0.0,
            "weight_zero_frac": zero, "weight_fractional_frac": 1.0 - zero - one,
            "weight_one_frac": one}


def decay_thresholds(thresholds: AclThresholds, eta1: float, eta2: float) -> AclThresholds:
    """Widen the admission window one step: lambda1 * eta1, lambda2 * eta2."""
    return AclThresholds(lambda1=thresholds.lambda1 * eta1, lambda2=thresholds.lambda2 * eta2)


def weights_for_mode(mode: str, losses, thresholds: AclThresholds | None) -> np.ndarray:
    """The float64 (n,) closed-form weights of ``mode`` (module docstring)
    over the n losses; every mode but ``uniform`` needs thresholds, and
    ``spl`` reads lambda1."""
    losses = np.asarray(losses, dtype=np.float64)
    if mode == "uniform":
        return np.ones(losses.size)
    if thresholds is None:
        raise ConfigError(f"acl_mode: mode {mode!r} needs thresholds")
    lambda1, lambda2 = thresholds.lambda1, thresholds.lambda2
    if mode == "spl":
        if lambda1 <= 0:
            raise ConfigError("spl threshold: must be positive")
        return (losses < lambda1).astype(np.float64)
    if mode == "hard_acl":
        return ((lambda2 < losses) & (losses < lambda1)).astype(np.float64)
    if mode == "soft_acl":
        if lambda2 <= 0:
            raise ConfigError("thresholds: soft mode needs lambda2 > 0")
        weights = ((lambda2 <= losses) & (losses < lambda1)).astype(np.float64)
        easy = losses < lambda2
        weights[easy] = losses[easy] / lambda2
        return weights
    raise ConfigError(f"acl_mode: unknown mode {mode!r}, expected one of {MODES}")
