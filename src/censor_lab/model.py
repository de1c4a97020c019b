"""Model parameter types.

ModelParams holds the raw drift/volatility pair of the price process;
ScaledParams is the horizon-scaled view (mu = mu_bar * theta,
sigma = sigma_bar * sqrt(theta)) that the censor and profit formulas
consume.  Both are immutable and validated on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _require_positive_finite(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


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

    def scaled(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, sigma) over an array of horizons, scaled as ScaledParams.from_horizon."""
        return self.mu_bar * thetas, self.sigma_bar * np.sqrt(thetas)


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
        return cls(mu=params.mu_bar * theta, sigma=params.sigma_bar * math.sqrt(theta))
