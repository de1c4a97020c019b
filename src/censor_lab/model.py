"""Model parameter types.

ModelParams holds the raw drift/volatility pair of the price process,
and ``ModelParams.scaled`` maps horizons to (mu, sigma) = (mu_bar*theta,
sigma_bar*sqrt(theta)); ScaledParams is that view at one theta, which the
censor and profit formulas consume.  Both are immutable and validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _require_positive_finite(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


def _require_nonnegative_finite(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be a nonnegative finite number, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Drift rate per unit time and volatility per sqrt(time)."""

    mu_bar: float
    sigma_bar: float

    def __post_init__(self):
        _require_positive_finite("mu_bar", self.mu_bar)
        _require_positive_finite("sigma_bar", self.sigma_bar)

    @property
    def sigma2_bar(self) -> float:
        return self.sigma_bar * self.sigma_bar

    @classmethod
    def from_variance(cls, mu_bar: float, sigma2_bar: float) -> "ModelParams":
        _require_positive_finite("sigma2_bar", sigma2_bar)
        return cls(mu_bar=mu_bar, sigma_bar=math.sqrt(sigma2_bar))

    @property
    def dispersion(self) -> float:
        """kappa = mu_bar / sigma_bar^2."""
        return self.mu_bar / self.sigma2_bar

    def scaled(self, theta):
        """(mu, sigma) = (mu_bar*theta, sigma_bar*sqrt(theta)) at a float theta, or elementwise."""
        root = np.sqrt(theta) if isinstance(theta, np.ndarray) else math.sqrt(theta)
        return self.mu_bar * theta, self.sigma_bar * root


@dataclass(frozen=True)
class ScaledParams:
    """Horizon-scaled drift and standard deviation.

    The horizon is not kept: every formula takes (mu, sigma) alone.  nu is
    always recomputed from them, never stored, so it can not drift out of sync.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        _require_positive_finite("mu", self.mu)
        _require_positive_finite("sigma", self.sigma)

    @property
    def nu(self) -> float:
        return self.mu - 0.5 * self.sigma * self.sigma

    @classmethod
    def from_horizon(cls, params: ModelParams, theta: float) -> "ScaledParams":
        _require_positive_finite("theta", theta)
        return cls(*params.scaled(theta))
