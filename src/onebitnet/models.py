"""Observation models: marginal decision statistics and one-bit message levels.

Each model describes the distribution of the scalar statistic x computed by
an agent from a single observation, under both states of nature h = 0, 1.
Each model samples x as an affine map of a standard variate,
x = shift + scale z (``affine``), z standard normal or standard
exponential (``standard``), so a caller may draw z for several hypotheses
at once and map each block of steps after. Besides sampling and moments,
models expose the log-characteristic function
Phi_{x,h}(t) = log E_h exp(j t x) together with its first
``CUMULANT_ORDER`` (12) cumulants and the radius of its power series, which
drive the steady-state CDF inversion. ``normal_cdf`` is the package's one
normal CDF, Phi(x) = erfc(-x/sqrt 2)/2 on ``math.erfc`` (Cody's rational
Chebyshev approximations, Math. Comp. 23, 1969): numpy scales the whole
input, one ``map`` applies ``math.erfc`` to it as a list, and the result
keeps the input's shape.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from math import erfc, factorial, log, sqrt

import numpy as np

from .network import whole_number

# cumulants kappa_1..kappa_12 a model gives; the geometric sums' tail
# (``continuous.geometric_log_cf``) sums them in closed form
CUMULANT_ORDER = 12


def as_hypothesis(value) -> int:
    """``value`` as the hypothesis 0 or 1 (``network.whole_number``); a
    bool, a fraction or any other number raises a ValueError."""
    h = whole_number(value)
    if h not in (0, 1):
        raise ValueError(f"hypotheses must be 0 or 1, got {value!r}")
    return h


def normal_cdf(x):
    """Phi(x) elementwise, as a float array of x's shape (0-d for a scalar)."""
    z = -np.asarray(x, dtype=float) / sqrt(2.0)
    phi = 0.5 * np.fromiter(map(erfc, z.ravel().tolist()), float, z.size)
    return phi.reshape(z.shape)


class ObservationModel(ABC):
    """Distribution of the marginal statistic under both hypotheses.

    Immutable, as a model may derive fields from its parameters when it is
    built (``ExponentialModel._log_lam`` from ``lambda_e``): assigning or
    deleting an attribute raises AttributeError, and ``__init__`` sets
    parameters with ``object.__setattr__``. Sampling takes an externally
    supplied generator so that concurrent trials never share state. The
    local decision threshold is 0: x is a log-likelihood ratio, and every
    closed form (p_d, p_f, the analytic CDFs) and the simulator's quantizer
    are taken at it.
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
    def standard(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """``out`` (float64, C-contiguous) filled with the standard variates
        z that ``affine`` maps to x, drawn in ``out``'s order; returns out."""

    @abstractmethod
    def affine(self, h: int) -> tuple[float, float]:
        """(scale, shift) with x = shift + scale z under h."""

    def sample(self, h: int, rng: np.random.Generator, size=None):
        """Draws of x under h, shift + scale z, as numpy's own location-scale
        samplers round them; a float when ``size`` is None."""
        scale, shift = self.affine(h)
        x = shift + scale * self.standard(rng, np.empty(() if size is None else size))
        return float(x) if size is None else x

    @abstractmethod
    def log_cf(self, t, h: int):
        """Phi_{x,h}(t); accepts real or complex t, vectorized."""

    @abstractmethod
    def cumulants(self, h: int) -> tuple[float, ...]:
        """kappa_1..kappa_12 of x (``CUMULANT_ORDER``):
        log_cf(t) = sum_r kappa_r (j t)^r / r! + O(t^13)."""

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
    densities. The log-CF is exactly quadratic, so the cumulants vanish
    beyond the second and the radius is infinite.
    """

    def __init__(self, rho: float):
        if not 0 < rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {rho}")
        object.__setattr__(self, "rho", float(rho))

    def __repr__(self):
        return f"GaussianModel(rho={self.rho})"

    def mean(self, h):
        return self.rho if h == 1 else -self.rho

    def variance(self, h):
        return 2.0 * self.rho

    def standard(self, rng, out):
        return rng.standard_normal(out=out)

    def affine(self, h):
        return sqrt(2.0 * self.rho), self.mean(h)

    def log_cf(self, t, h):
        t = np.asarray(t)
        return 1j * t * self.mean(h) - 0.5 * t * t * self.variance(h)

    def cumulants(self, h):
        return (self.mean(h), self.variance(h)) + (0.0,) * (CUMULANT_ORDER - 2)

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
    so x >= -log lambda_e, with cumulants kappa_r = (r-1)! s_h^r for r >= 2.
    The log-CF series has finite radius 1/s_h, the distance to log_cf's
    singularity at t = -j/s_h.

    Note: V_1 x = (lambda_e - 1)^2, consistent with the H1 density, the
    closed-form log-CF and its cumulants.
    """

    def __init__(self, lambda_e: float):
        if not 1 < lambda_e < np.inf:
            raise ValueError(f"lambda_e must exceed 1 and be finite, got {lambda_e}")
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

    def standard(self, rng, out):
        return rng.standard_exponential(out=out)

    def affine(self, h):
        return self._scale(h), -self._log_lam

    def log_cf(self, t, h):
        """-j t log lambda_e - log(1 - j s_h t); at real t in real arithmetic,
        -log1p((s_h t)^2)/2 + j (arctan(s_h t) - t log lambda_e)."""
        t = np.asarray(t)
        if np.iscomplexobj(t):
            return -1j * t * self._log_lam - np.log(1.0 - 1j * t * self._scale(h))
        st = self._scale(h) * t
        return 1j * (np.arctan(st) - t * self._log_lam) - 0.5 * np.log1p(st * st)

    def cumulants(self, h):
        s = self._scale(h)
        return (self.mean(h),) + tuple(factorial(r - 1) * s ** r
                                       for r in range(2, CUMULANT_ORDER + 1))

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


def cumulant_check(model: ObservationModel, h: int, n_max: int = 4) -> np.ndarray:
    """Relative residuals between the shipped cumulants, as the power-series
    coefficients kappa_n j^n / n! of log_cf, and numerical derivatives of
    log_cf at the origin.

    The derivatives are extracted by trapezoid quadrature of the Cauchy
    integral on a circle of radius min(radius/2, 1), which is spectrally
    accurate for the analytic log-CFs handled here.
    """
    if not 1 <= n_max <= CUMULANT_ORDER:
        raise ValueError(f"n_max must be between 1 and {CUMULANT_ORDER}")
    r = min(model.radius(h) / 2.0, 1.0)
    n_theta = 256
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vals = model.log_cf(r * np.exp(1j * theta), h)
    kappa = model.cumulants(h)
    residuals = np.empty(n_max)
    for n in range(1, n_max + 1):
        num = np.mean(vals * np.exp(-1j * n * theta)) / r ** n
        ref = kappa[n - 1] * 1j ** n / factorial(n)
        scale = max(abs(ref), 1e-9)
        residuals[n - 1] = abs(num - ref) / scale
    return residuals
