"""Steady-state distribution of the continuous state component.

The continuous component of a node's steady state is u = a_k mu w, where
w is the geometric sum of the node's own i.i.d. statistics with memory
factor eta = (1-mu) a_k. Its log-characteristic function satisfies the
functional equation Phi_w(t) - Phi_w(eta t) = Phi_x(t) and expands as
Phi_w(t) = sum_n phi_n t^n / (1 - eta^n) inside the radius of Phi_x.

The CDF is recovered by a sine-series inversion

    F_u(u) = 1/2 - (2/pi) sum_{n>=0} Im{exp[Phi_w(t_n) - j (u/(mu a_k)) t_n]} / (2n+1),

with t_n = (2n+1) delta/2. The grid step delta is chosen from tail bounds
so that the aliasing error stays below a prescribed budget eps_prime; the
inner coefficient series is truncated at m_bar with eta^m_bar <= eps'', a
fixed budget (DEFAULT_EPS_DPRIME).

Past the radius of the inner power series, Phi_w is evaluated by
iterating the functional equation Phi_w(t) = Phi_x(t) + Phi_w(eta t) until
the argument falls inside the radius; the outer sum stops once the
residual tail is below the budget.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, log, pi, sqrt

import numpy as np
from scipy.stats import norm

from .models import GaussianModel, ObservationModel
from .network import NodeParams

DEFAULT_EPS_PRIME = 2e-5
DEFAULT_EPS_DPRIME = 2e-5

# power-series arguments are kept below this fraction of the radius when
# evaluating Phi_w by functional-equation folding
_SERIES_ARG_FRACTION = 0.5
_MIN_SERIES_TERMS = 40
_TAIL_BLOCK = 512
_MAX_TERMS = 4_000_000
_SPAN_STDS = 12.0  # half-width of the initial tabulation range, in stds


class InversionError(RuntimeError):
    """Numerical failure while inverting the log-characteristic function."""


class DeltaSelectionError(InversionError):
    """No valid inversion step for the requested point and budget."""


@dataclass(frozen=True)
class ContinuousMoments:
    """Mean, variance, dispersion index and support infimum of u."""

    mean: float
    variance: float
    dispersion: float
    lower: float


def moments(model: ObservationModel, node: NodeParams, h: int) -> ContinuousMoments:
    """Closed-form steady-state moments of u = a_k mu w.

    mean = a_k mu E_h x / (1 - eta), variance = a_k^2 mu^2 V_h x / (1 - eta^2);
    the dispersion index sqrt(V)/|E| shrinks like sqrt((1-eta)/(1+eta)).
    The support of u is bounded below by a_k mu inf(x) / (1 - eta).
    """
    if node.eta >= 1.0:
        raise ValueError("eta must be below 1; use the gaussian-limit mode instead")
    s = node.a_k * node.mu
    mean = s * model.mean(h) / (1.0 - node.eta)
    variance = s * s * model.variance(h) / (1.0 - node.eta ** 2)
    ex = model.mean(h)
    if ex != 0.0:
        dispersion = sqrt(model.variance(h)) / abs(ex) * sqrt(
            (1.0 - node.eta) / (1.0 + node.eta))
    else:
        dispersion = np.inf
    lo = model.support_lower(h)
    lower = s * lo / (1.0 - node.eta) if np.isfinite(lo) else -np.inf
    return ContinuousMoments(mean=mean, variance=variance, dispersion=dispersion,
                             lower=lower)


def phi_w_coefficients(model: ObservationModel, node: NodeParams, h: int,
                       m_bar: int) -> np.ndarray:
    """First m_bar power-series coefficients of Phi_w: phi_n / (1 - eta^n)."""
    if m_bar < 1:
        raise ValueError("m_bar must be at least 1")
    n = np.arange(1, m_bar + 1)
    return model.phi_coeffs(m_bar, h) / (1.0 - node.eta ** n)


def default_m_bar(eta: float, eps_dprime: float) -> int:
    """Inner truncation index from the empirical criterion eta^m <= eps''."""
    return max(1, ceil(log(eps_dprime) / log(eta)))


def select_delta(model: ObservationModel, node: NodeParams, h: int, u: float,
                 eps_prime: float = DEFAULT_EPS_PRIME) -> float:
    """Inversion step delta placing both distribution tails outside the
    aliasing window [u - 2 pi a mu / delta, u + 2 pi a mu / delta].

    The upper tail is bounded by Chebyshev's inequality. The lower tail
    uses the support bound when the statistic is bounded below (the window
    edge is pushed below the support infimum); for two-sided unbounded
    models a symmetric Chebyshev bound is applied instead.
    """
    if eps_prime <= 0:
        raise ValueError("eps_prime must be positive")
    mom = moments(model, node, h)
    amu = node.a_k * node.mu
    spread = sqrt(2.0 * mom.variance / eps_prime)
    den_hi = spread + mom.mean - u
    if den_hi <= 0:
        raise DeltaSelectionError(
            f"evaluation point u={u} is beyond the upper Chebyshev window; "
            "widen eps_prime or use the moment bound directly")
    d_hi = 2.0 * pi * amu / den_hi
    if np.isfinite(mom.lower):
        den_lo = u - mom.lower
    else:
        den_lo = spread - mom.mean + u
    if den_lo <= 0:
        return d_hi
    return min(2.0 * pi * amu / den_lo, d_hi)


def log_cf_w(model: ObservationModel, node: NodeParams, h: int, t) -> np.ndarray:
    """Phi_w evaluated at real t >= 0 of any size.

    Arguments beyond a safe fraction of the radius are folded down with
    Phi_w(t) = Phi_x(t) + Phi_w(eta t); the remaining small argument uses
    the power series with enough terms for budget-level accuracy.
    """
    t_cur = np.array(t, dtype=float, ndmin=1)
    eta = node.eta
    tau = model.radius(h)
    acc = np.zeros(t_cur.shape, dtype=complex)
    if np.isfinite(tau):
        thr = _SERIES_ARG_FRACTION * tau
        while True:
            mask = t_cur > thr
            if not mask.any():
                break
            acc[mask] += model.log_cf(t_cur[mask], h)
            t_cur[mask] *= eta
    m_terms = max(_MIN_SERIES_TERMS, default_m_bar(eta, DEFAULT_EPS_DPRIME))
    m = np.arange(1, m_terms + 1)
    coef = phi_w_coefficients(model, node, h, m_terms)
    acc += (t_cur[:, None] ** m[None, :] * coef[None, :]).sum(axis=1)
    return acc


def cdf_u(u: float, model: ObservationModel, node: NodeParams, h: int,
          eps_prime: float = DEFAULT_EPS_PRIME) -> float:
    """CDF of the steady-state continuous component at u, clamped to [0,1].

    Requires eta in (0,1) and an absolutely continuous limit (true for any
    model whose statistic has a density).
    """
    if not 0.0 < node.eta < 1.0:
        raise ValueError(f"eta must be in (0,1), got {node.eta}")
    mom = moments(model, node, h)
    spread = sqrt(2.0 * mom.variance / eps_prime)
    # Chebyshev tail shortcuts; also the only admissible answer when the
    # window cannot be placed.
    if u >= mom.mean + spread:
        return 1.0
    if u <= (mom.lower if np.isfinite(mom.lower) else mom.mean - spread):
        return 0.0
    delta = select_delta(model, node, h, u, eps_prime)
    total = 0.0
    n0 = 0
    while True:
        # series terms Im{exp[Phi_w(t_n) - j (u/(mu a_k)) t_n]}/(2n+1)
        n = np.arange(n0, n0 + _TAIL_BLOCK)
        t = (2 * n + 1) * (delta / 2.0)
        vals = np.exp(log_cf_w(model, node, h, t)
                      - 1j * (u / (node.mu * node.a_k)) * t)
        if not np.all(np.isfinite(vals)):
            raise InversionError(
                "non-finite term in the inversion series (coefficient overflow "
                "near the radius); reduce delta")
        terms = np.imag(vals) / (2 * n + 1)
        total += terms.sum()
        if np.abs(terms).sum() * (2.0 / pi) < eps_prime / 20.0:
            break
        n0 += _TAIL_BLOCK
        if n0 >= _MAX_TERMS:
            raise InversionError(
                f"inversion series did not settle within {_MAX_TERMS} terms")
    raw = 0.5 - (2.0 / pi) * total
    return float(min(1.0, max(0.0, raw)))


def cdf_u_gaussian_closed(u, model: ObservationModel, node: NodeParams, h: int):
    """Exact CDF for the Gaussian model: the geometric sum of Gaussians is
    Gaussian with the closed-form steady-state moments."""
    if not isinstance(model, GaussianModel):
        raise TypeError("closed form only applies to the Gaussian model")
    mom = moments(model, node, h)
    return norm.cdf(u, loc=mom.mean, scale=sqrt(mom.variance))


@dataclass(frozen=True, eq=False)
class ContinuousCdfTable:
    """Monotone tabulation of F_u with linear interpolation.

    Queries below/above the grid return 0/1; the builder verifies that the
    grid edges already carry negligible tail mass, so out-of-range queries
    are exact to the tabulation budget. ``mean`` and ``variance`` are the
    closed-form moments of u (``moments``), not integrals of the table.
    """

    grid: np.ndarray
    values: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, u):
        return np.interp(np.asarray(u, dtype=float), self.grid, self.values,
                         left=0.0, right=1.0)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


def tabulate_cdf_u(model: ObservationModel, node: NodeParams, h: int,
                   n_points: int = 1501,
                   eps_prime: float = DEFAULT_EPS_PRIME) -> ContinuousCdfTable:
    """Tabulate F_u on a grid, enforce monotonicity, and wrap for reuse.

    The grid spans mean +/- 12 std (cut at the support infimum), widened
    until both edges carry at most 2 eps_prime of tail mass. The Gaussian
    model uses its closed form; every other model uses the series
    inversion, with the step delta re-derived at every grid point.
    Raw values are clamped to [0,1] and made nondecreasing by a
    cumulative-max pass; violations beyond 5 eps_prime raise a diagnostic
    warning.
    """
    if isinstance(model, GaussianModel):
        def cdf(us):
            return np.asarray(cdf_u_gaussian_closed(us, model, node, h))
    else:
        def cdf(us):
            return np.array([cdf_u(u, model, node, h, eps_prime) for u in us])
    mom = moments(model, node, h)
    sd = sqrt(mom.variance)
    lo = max(mom.mean - _SPAN_STDS * sd,
             mom.lower - 2.0 * sd / max(n_points - 1, 1))
    hi = mom.mean + _SPAN_STDS * sd
    for _ in range(6):
        grid = np.linspace(lo, hi, n_points)
        f_lo, f_hi = cdf([lo, hi])
        if f_lo <= 2.0 * eps_prime and f_hi >= 1.0 - 2.0 * eps_prime:
            break
        lo -= 4.0 * sd
        hi += 4.0 * sd
    else:
        warnings.warn("tabulation range extension did not converge",
                      RuntimeWarning)
        grid = np.linspace(lo, hi, n_points)
    raw = cdf(grid)
    drops = np.diff(raw)
    worst = -drops.min() if drops.size else 0.0
    if worst > 5.0 * eps_prime:
        warnings.warn(
            f"tabulated CDF decreases by {worst:.2e} (> 5 eps_prime); "
            "truncation ripple exceeds budget", RuntimeWarning)
    vals = np.minimum(1.0, np.maximum(0.0, np.maximum.accumulate(raw)))
    return ContinuousCdfTable(grid=grid, values=vals, mean=mom.mean,
                              variance=mom.variance)
