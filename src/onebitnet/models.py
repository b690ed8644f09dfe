"""Observation models: marginal decision statistics and one-bit message levels.

Each model describes the distribution of the scalar statistic x computed by
an agent from a single observation, under both states of nature h = 0, 1.
Besides sampling and moments, models expose the log-characteristic function
Phi_{x,h}(t) = log E_h exp(j t x) together with its power-series
coefficients and radius of convergence, which drive the steady-state CDF
inversion. ``normal_cdf`` is the package's one normal CDF,
Phi(x) = erfc(-x/sqrt 2)/2 on ``math.erfc`` (Cody's rational Chebyshev
approximations, Math. Comp. 23, 1969): numpy scales the whole input, one
``map`` applies ``math.erfc`` to it as a list, and the result keeps the
input's shape.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from math import erfc, log, sqrt

import numpy as np


def normal_cdf(x):
    """Phi(x) elementwise, as a float array of x's shape (0-d for a scalar)."""
    z = -np.asarray(x, dtype=float) / sqrt(2.0)
    phi = 0.5 * np.fromiter(map(erfc, z.ravel().tolist()), float, z.size)
    return phi.reshape(z.shape)


class ObservationModel(ABC):
    """Distribution of the marginal statistic under both hypotheses.

    Immutable, as ``steady_state`` keys its table cache on the model
    object: assigning or deleting an attribute raises AttributeError, and
    ``__init__`` sets parameters with ``object.__setattr__``. Sampling takes an externally supplied generator so that
    concurrent trials never share state. The local decision threshold is
    0: x is a log-likelihood ratio, and every closed form (p_d, p_f, the
    analytic CDFs) and the simulator's quantizer are taken at it.
    """

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")

    @abstractmethod
    def mean(self, h: int) -> float: ...

    @abstractmethod
    def variance(self, h: int) -> float: ...

    @abstractmethod
    def sample(self, h: int, rng: np.random.Generator, size=None): ...

    @abstractmethod
    def log_cf(self, t, h: int):
        """Phi_{x,h}(t); accepts real or complex t, vectorized."""

    @abstractmethod
    def phi_coeffs(self, n_max: int, h: int) -> np.ndarray:
        """Coefficients of t**1 .. t**n_max in the power series of log_cf
        around 0."""

    @abstractmethod
    def radius(self, h: int) -> float:
        """Radius of convergence of the log-CF power series (may be inf)."""

    @property
    @abstractmethod
    def p_d(self) -> float:
        """Marginal detection probability P_1(x >= 0)."""

    @property
    @abstractmethod
    def p_f(self) -> float:
        """Marginal false-alarm probability P_0(x >= 0)."""

    def support_lower(self, h: int) -> float:
        """Infimum of the support of x under h (-inf when unbounded)."""
        return -np.inf

    def message_values(self) -> tuple[float, float]:
        """(E_0 x, E_1 x): the two one-bit message levels."""
        return self.mean(0), self.mean(1)


class GaussianModel(ObservationModel):
    """Log-likelihood ratio of a Gaussian shift-in-mean test.

    x ~ N(-rho, 2 rho) under h=0 and N(rho, 2 rho) under h=1, where rho is
    the symmetric Kullback-Leibler divergence between the two observation
    densities. The log-CF is exactly quadratic, so the series coefficients
    vanish beyond n = 2 and the radius is infinite.
    """

    def __init__(self, rho: float):
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        object.__setattr__(self, "rho", float(rho))

    def __repr__(self):
        return f"GaussianModel(rho={self.rho})"

    def mean(self, h):
        return self.rho if h == 1 else -self.rho

    def variance(self, h):
        return 2.0 * self.rho

    def sample(self, h, rng, size=None):
        return rng.normal(self.mean(h), sqrt(2.0 * self.rho), size)

    def log_cf(self, t, h):
        t = np.asarray(t)
        return 1j * t * self.mean(h) - 0.5 * t * t * self.variance(h)

    def phi_coeffs(self, n_max, h):
        out = np.zeros(n_max, dtype=complex)
        out[:2] = (1j * self.mean(h), -self.variance(h) / 2.0)[:n_max]
        return out

    def radius(self, h):
        return np.inf

    @property
    def p_d(self):
        return float(normal_cdf(self.rho / sqrt(2.0 * self.rho)))

    @property
    def p_f(self):
        return float(normal_cdf(-self.rho / sqrt(2.0 * self.rho)))


class ExponentialModel(ObservationModel):
    """Log-likelihood ratio of an exponential rate test.

    Observations are exponential with rate lambda_0 under h=0 and
    lambda_1 < lambda_0 under h=1; only the ratio lambda_e = lambda_0 /
    lambda_1 > 1 matters. The statistic is x = s_h e - log lambda_e with e
    a unit exponential and scale s_0 = 1 - 1/lambda_e, s_1 = lambda_e - 1,
    so x >= -log lambda_e. The log-CF series has finite radius 1/s_h.

    Note: V_1 x = (lambda_e - 1)^2, consistent with the H1 density, the
    closed-form log-CF and its coefficients.
    """

    def __init__(self, lambda_e: float):
        if lambda_e <= 1:
            raise ValueError(f"lambda_e must exceed 1, got {lambda_e}")
        object.__setattr__(self, "lambda_e", float(lambda_e))
        object.__setattr__(self, "_log_lam", log(self.lambda_e))

    def __repr__(self):
        return f"ExponentialModel(lambda_e={self.lambda_e})"

    def _scale(self, h):
        return (self.lambda_e - 1.0) if h == 1 else (1.0 - 1.0 / self.lambda_e)

    def mean(self, h):
        return self._scale(h) - self._log_lam

    def variance(self, h):
        return self._scale(h) ** 2

    def sample(self, h, rng, size=None):
        return rng.exponential(self._scale(h), size) - self._log_lam

    def log_cf(self, t, h):
        t = np.asarray(t, dtype=complex)
        return -1j * t * self._log_lam - np.log(1.0 - 1j * t * self._scale(h))

    def phi_coeffs(self, n_max, h):
        n = np.arange(1, n_max + 1)
        out = (1j * self._scale(h)) ** n / n
        out[0] = 1j * self.mean(h)
        return out

    def radius(self, h):
        return 1.0 / self._scale(h)

    def support_lower(self, h):
        return -self._log_lam

    @property
    def p_d(self):
        return self.lambda_e ** (-1.0 / (self.lambda_e - 1.0))

    @property
    def p_f(self):
        return self.lambda_e ** (-self.lambda_e / (self.lambda_e - 1.0))


def cumulant_check(model: ObservationModel, h: int, n_max: int = 6) -> np.ndarray:
    """Relative residuals between shipped series coefficients and numerical
    derivatives of log_cf at the origin.

    The derivatives are extracted by trapezoid quadrature of the Cauchy
    integral on a circle of radius min(radius/2, 1), which is spectrally
    accurate for the analytic log-CFs handled here.
    """
    if n_max > 6:
        raise ValueError("n_max is limited to 6")
    r = min(model.radius(h) / 2.0, 1.0)
    n_theta = 256
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vals = model.log_cf(r * np.exp(1j * theta), h)
    coeffs = model.phi_coeffs(n_max, h)
    residuals = np.empty(n_max)
    for n in range(1, n_max + 1):
        num = np.mean(vals * np.exp(-1j * n * theta)) / r ** n
        ref = coeffs[n - 1]
        scale = max(abs(ref), 1e-9)
        residuals[n - 1] = abs(num - ref) / scale
    return residuals
