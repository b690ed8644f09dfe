"""Observation models: marginal decision statistics and one-bit message levels.

Each model describes the distribution of the scalar statistic x computed by
an agent from a single observation, under both states of nature h = 0, 1,
in five closed forms (``ObservationModel``): a standard variate z, normal or
exponential; the map x = shift + scale z, so a caller may draw z for several
hypotheses at once and map each block of steps after; the log-characteristic
function Phi_{x,h}(t) = log E_h exp(j t x) and its first ``CUMULANT_ORDER``
(12) cumulants, which drive the steady-state CDF inversion; and P_h(x >= 0).
The rest derives from these. ``normal_cdf`` is the package's one
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

    A model gives five members, ``standard``, ``affine``, ``log_cf``,
    ``cumulants`` and ``bit_probability``, and two constants of z: the
    infimum of its support ``Z_LOWER`` and the radius of its log-CF series
    ``Z_RADIUS``. Derived from them: ``mean`` and ``variance`` (the first two
    cumulants), ``radius`` (Z_RADIUS / scale), ``support_lower`` (shift +
    scale Z_LOWER), ``p_d`` and ``p_f`` (``bit_probability`` under h = 1, 0)
    and the message levels (the two means).

    Immutable, as a model may derive fields from its parameters when it is
    built (``ExponentialModel._log_lam`` from ``lambda_e``): assigning or
    deleting an attribute raises AttributeError, and ``__init__`` sets
    parameters with ``object.__setattr__``. Sampling takes an externally
    supplied generator so that concurrent trials never share state. The
    local decision threshold is 0: x is a log-likelihood ratio, and every
    closed form and the simulator's quantizer are taken at it. Only
    ``bit_probability`` carries it into the analytic laws, so a quantizer
    threshold other than 0 enters them there.
    """

    Z_LOWER: float
    Z_RADIUS: float

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")

    @abstractmethod
    def standard(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """``out`` (float64, C-contiguous) filled with the standard variates
        z that ``affine`` maps to x, drawn in ``out``'s order; returns out."""

    @abstractmethod
    def affine(self, h: int) -> tuple[float, float]:
        """(scale, shift) with x = shift + scale z under h."""

    @abstractmethod
    def log_cf(self, t, h: int):
        """Phi_{x,h}(t); accepts real or complex t, vectorized."""

    @abstractmethod
    def cumulants(self, h: int) -> tuple[float, ...]:
        """kappa_1..kappa_12 of x (``CUMULANT_ORDER``):
        log_cf(t) = sum_r kappa_r (j t)^r / r! + O(t^13)."""

    @abstractmethod
    def bit_probability(self, h) -> float:
        """P_h(x >= 0), h taken by ``as_hypothesis``."""

    def sample(self, h: int, rng: np.random.Generator, size=None):
        """Draws of x under h, shift + scale z, as numpy's own location-scale
        samplers round them; a float when ``size`` is None."""
        scale, shift = self.affine(h)
        x = shift + scale * self.standard(rng, np.empty(() if size is None else size))
        return float(x) if size is None else x

    def mean(self, h: int) -> float:
        return self.cumulants(h)[0]

    def variance(self, h: int) -> float:
        return self.cumulants(h)[1]

    def radius(self, h: int) -> float:
        """Radius of convergence of the log-CF power series (may be inf)."""
        return self.Z_RADIUS / self.affine(h)[0]

    def support_lower(self, h: int) -> float:
        """Infimum of the support of x under h (-inf when unbounded)."""
        scale, shift = self.affine(h)
        return shift + scale * self.Z_LOWER

    @property
    def p_d(self) -> float:
        """Marginal detection probability P_1(x >= 0)."""
        return self.bit_probability(1)

    @property
    def p_f(self) -> float:
        """Marginal false-alarm probability P_0(x >= 0)."""
        return self.bit_probability(0)

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

    Z_LOWER, Z_RADIUS = -np.inf, np.inf

    def __init__(self, rho: float):
        if not 0 < rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {rho}")
        object.__setattr__(self, "rho", float(rho))

    def __repr__(self):
        return f"GaussianModel(rho={self.rho})"

    def _shift(self, h):
        return self.rho if h == 1 else -self.rho

    def standard(self, rng, out):
        return rng.standard_normal(out=out)

    def affine(self, h):
        return sqrt(2.0 * self.rho), self._shift(h)

    def log_cf(self, t, h):
        t = np.asarray(t)
        return 1j * t * self._shift(h) - 0.5 * t * t * (2.0 * self.rho)

    def cumulants(self, h):
        return (self._shift(h), 2.0 * self.rho) + (0.0,) * (CUMULANT_ORDER - 2)

    def bit_probability(self, h):
        scale, shift = self.affine(as_hypothesis(h))
        return float(normal_cdf(shift / scale))


class ExponentialModel(ObservationModel):
    """Log-likelihood ratio of an exponential rate test.

    Observations are exponential with rate lambda_0 under h=0 and
    lambda_1 < lambda_0 under h=1; only the ratio lambda_e = lambda_0 /
    lambda_1 > 1 matters. The statistic is x = s_h e - log lambda_e with e
    a unit exponential and scale s_0 = 1 - 1/lambda_e, s_1 = lambda_e - 1,
    so x >= -log lambda_e, with cumulants kappa_r = (r-1)! s_h^r for r >= 2,
    computed once when the model is built. The log-CF series has finite
    radius 1/s_h, the distance to log_cf's singularity at t = -j/s_h.

    Note: V_1 x = (lambda_e - 1)^2, consistent with the H1 density, the
    closed-form log-CF and its cumulants.
    """

    Z_LOWER, Z_RADIUS = 0.0, 1.0

    def __init__(self, lambda_e: float):
        if not 1 < lambda_e < np.inf:
            raise ValueError(f"lambda_e must exceed 1 and be finite, got {lambda_e}")
        object.__setattr__(self, "lambda_e", float(lambda_e))
        object.__setattr__(self, "_log_lam", log(self.lambda_e))
        object.__setattr__(self, "_kappa", {
            h: (s - self._log_lam,) + tuple(factorial(r - 1) * s ** r
                                            for r in range(2, CUMULANT_ORDER + 1))
            for h, s in ((0, self._scale(0)), (1, self._scale(1)))})

    def __repr__(self):
        return f"ExponentialModel(lambda_e={self.lambda_e})"

    def _scale(self, h):
        return (self.lambda_e - 1.0) if h == 1 else (1.0 - 1.0 / self.lambda_e)

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
        return self._kappa[h]

    def bit_probability(self, h):
        lam = self.lambda_e
        return lam ** (-(1.0 if as_hypothesis(h) else lam) / (lam - 1.0))
