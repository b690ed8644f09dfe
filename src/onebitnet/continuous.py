"""Steady-state distribution of the continuous state component.

The continuous component of a node's steady state is u = a_k mu w, where
w is the geometric sum of the node's own i.i.d. statistics with memory
factor eta = (1-mu) a_k. Its log-characteristic function is
Phi_w(t) = sum_{i>=0} Phi_x(eta^i t), so Phi_w(t) - Phi_w(eta t) = Phi_x(t).

The CDF is recovered by a sine-series inversion

    F_u(u) = 1/2 - (2/pi) sum_{n>=0} Im{exp[Phi_w(t_n) - j (u/(mu a_k)) t_n]} / (2n+1),

with t_n = (2n+1) delta/2. The step delta places both tails outside the
aliasing window [u - 2 pi a_k mu / delta, u + 2 pi a_k mu / delta], so that
the aliasing error stays below a prescribed budget eps_prime: the upper
tail is cut at the Chebyshev edge mean + sqrt(2 var / eps_prime), the lower
one at the support infimum, or at the mirrored Chebyshev edge for models
unbounded below. The window shrinks toward both ends of a grid, so one
delta, taken at the grid's two extreme interior points, serves it all.
Phi_w is ``geometric_log_cf``: explicit terms Phi_x(eta^i t) down to a
small fraction of Phi_x's radius, then four cumulants in closed form.

There is one inversion engine, ``cdf_u_grid``: one step delta per uniform
grid, the spectrum w_n = exp(Phi_w(t_n))/(2n+1) built once in blocks until
a block's (2/pi) sum |w_n| is below eps_prime/20 (a rule that holds for
every u, as |exp(-j u' t_n)| = 1), and one chirp-z (Bluestein) sum on
numpy's FFT for all points (Abate & Whitt 1992; Rabiner, Schafer & Rader
1969). ``tabulate_cdf_u`` runs it for every non-Gaussian model; ``cdf_u``
is its one-point call. For the Gaussian model u is normal, and its table
is ``normal_table``: ``models.normal_cdf`` (``math.erfc``) at the
closed-form moments on a 1,501-point grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, pi, sqrt

import numpy as np

from .models import GaussianModel, ObservationModel, normal_cdf
from .network import NodeParams

DEFAULT_EPS_PRIME = 2e-5

# geometric sums' explicit terms stop near this fraction of the radius
_TAIL_ARG = 0.01
_TAIL_BLOCK = 512
_MAX_TERMS = 4_000_000
_SPAN_STDS = 12.0  # half-width of the initial tabulation range, in stds


def _freeze_copy(self, state):
    """``__setstate__`` restoring the read-only flag pickle and deepcopy drop."""
    self.__dict__.update(state)
    self.__post_init__()


class InversionError(RuntimeError):
    """Numerical failure while inverting the log-characteristic function."""


@dataclass(frozen=True)
class ContinuousMoments:
    """Mean, variance and support infimum of u."""

    mean: float
    variance: float
    lower: float


def moments(model: ObservationModel, node: NodeParams, h: int) -> ContinuousMoments:
    """Closed-form steady-state moments of u = a_k mu w.

    mean = a_k mu E_h x / (1 - eta), variance = a_k^2 mu^2 V_h x / (1 - eta^2).
    The support of u is bounded below by a_k mu inf(x) / (1 - eta).
    """
    s = node.a_k * node.mu
    mean = s * model.mean(h) / (1.0 - node.eta)
    variance = s * s * model.variance(h) / (1.0 - node.eta ** 2)
    lo = model.support_lower(h)
    lower = s * lo / (1.0 - node.eta) if np.isfinite(lo) else -np.inf
    return ContinuousMoments(mean=mean, variance=variance, lower=lower)


def geometric_log_cf(log_cf, kappa, radius: float, eta: float, t) -> np.ndarray:
    """sum_{i>=0} log_cf(eta^i t) at real or complex t: explicit terms while
    |eta^i t| >= bar, then the four cumulants kappa summed over i at the last
    s, sum_r kappa_r (j s)^r / (r! (1 - eta^r)), exact for a quartic log_cf.
    That tail's first omitted term grows as |s|^5 / (1 - eta^5), so bar =
    ``_TAIL_ARG`` radius (1 - eta^5)^(1/5) (radius of log_cf's series, may be
    inf) holds it across eta."""
    s = np.array(t, dtype=np.result_type(t, 1.0), ndmin=1)
    bar = _TAIL_ARG * radius * (1.0 - eta ** 5) ** 0.2
    # sorted by decreasing |t|, the arguments still taking terms are a prefix
    key = np.where(np.isfinite(s), -np.abs(s), 0.0).ravel()
    order = np.argsort(key)
    key, x, acc = key[order], s.ravel()[order], np.zeros(s.size, dtype=complex)
    live = s.size
    while live := key[:live].searchsorted(-bar, side="right"):
        acc[:live] += log_cf(x[:live])
        x[:live] *= eta
        bar /= eta
    coef = [k / (factorial(r) * (1.0 - eta ** r)) for r, k in enumerate(kappa, start=1)]
    acc[order] = acc + np.polyval([*coef[::-1], 0.0], 1j * x)
    return acc.reshape(s.shape)


def log_cf_w(model: ObservationModel, node: NodeParams, h: int, t) -> np.ndarray:
    """Phi_w(t) = sum_{i>=0} Phi_x(eta^i t) at real or complex t (``geometric_log_cf``)."""
    return geometric_log_cf(lambda s: model.log_cf(s, h), model.cumulants(h),
                            model.radius(h), node.eta, t)


def _spectrum(model: ObservationModel, node: NodeParams, h: int, delta: float,
              eps_prime: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes t_n = (2n+1) delta/2 and weights w_n = exp(Phi_w(t_n))/(2n+1),
    built in blocks until a block's (2/pi) sum |w_n| is below
    eps_prime/20. Returns (t, w, that last residual)."""
    ts, ws = [], []
    n0 = 0
    while True:
        n = np.arange(n0, n0 + _TAIL_BLOCK)
        t = (2 * n + 1) * (delta / 2.0)
        w = np.exp(log_cf_w(model, node, h, t)) / (2 * n + 1)
        if not np.all(np.isfinite(w)):
            raise InversionError(
                "non-finite term in the inversion series (Phi_w is not "
                "finite at some t_n); reduce delta")
        ts.append(t)
        ws.append(w)
        tail = float(np.abs(w).sum() * (2.0 / pi))
        if tail < eps_prime / 20.0:
            return np.concatenate(ts), np.concatenate(ws), tail
        n0 += _TAIL_BLOCK
        if n0 >= _MAX_TERMS:
            raise InversionError(
                f"inversion series did not settle within {_MAX_TERMS} terms")


def _chirp_z(x: np.ndarray, theta: float, m: int) -> np.ndarray:
    """X_k = sum_n x_n exp(-j theta n k) for k < m (Bluestein).

    With nk = (n^2 + k^2 - (k-n)^2)/2 the sum is a chirp times the linear
    convolution of x_n c_n with conj(c), c_i = exp(-j theta i^2/2), done
    by one zero-padded FFT product.
    """
    n = x.size
    size = 1 << (n + m - 2).bit_length()  # >= n + m - 1: no wrap-around
    i = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * theta * (i * i))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(x * chirp[:n], size) * np.fft.fft(kernel))
    return chirp[:m] * conv[:m]


def cdf_u(u: float, model: ObservationModel, node: NodeParams, h: int,
          eps_prime: float = DEFAULT_EPS_PRIME) -> float:
    """CDF of the steady-state continuous component at u, clamped to [0,1].

    A one-point call of ``cdf_u_grid``, so delta is the one chosen for u.
    Requires an absolutely continuous limit (true for any model whose
    statistic has a density).
    """
    return float(cdf_u_grid(u, u, 1, model, node, h, eps_prime).values[0])


@dataclass(frozen=True, eq=False)
class GridInversion:
    """F_u on ``np.linspace(lo, hi, n_points)``, clamped to [0,1], with how
    it was obtained: the common step ``delta``, the number of series
    ``terms`` and the ``tail`` residual (2/pi) sum |w_n| of the last block
    (nan, 0, 0 when every point is a tail shortcut)."""

    values: np.ndarray
    delta: float
    terms: int
    tail: float


def cdf_u_grid(lo: float, hi: float, n_points: int, model: ObservationModel,
               node: NodeParams, h: int,
               eps_prime: float = DEFAULT_EPS_PRIME) -> GridInversion:
    """F_u on a uniform grid from one step delta and one chirp-z sum.

    Points at or beyond the support infimum (or the lower Chebyshev edge)
    ``bottom`` and the upper Chebyshev edge ``top`` are 0 and 1 without a
    series; these are also the only admissible answers where no aliasing
    window can be placed. For the remaining points u_first..u_last,

        delta = 2 pi mu a_k / max(u_last - bottom, top - u_first)

    puts both edges outside every point's window (a smaller delta only
    widens it); a one-point grid gets that point's own step, and nan when
    the point is a tail shortcut. With u' = u/(mu a_k) and
    theta = delta du/(mu a_k) on the grid u_k = u_0 + k du,

        sum_n w_n exp(-j u_k' t_n)
            = exp(-j theta k/2) sum_n [w_n exp(-j u_0' t_n)] exp(-j theta n k),

    one chirp-z sum over the spectrum built once for that delta.
    """
    if not eps_prime > 0:
        raise ValueError(f"eps_prime must be positive, got {eps_prime}")
    mom = moments(model, node, h)
    spread = sqrt(2.0 * mom.variance / eps_prime)
    bottom = mom.lower if np.isfinite(mom.lower) else mom.mean - spread
    top = mom.mean + spread
    grid = np.linspace(lo, hi, n_points)
    values = (grid >= top).astype(float)
    inside = np.flatnonzero((grid > bottom) & (grid < top))
    if inside.size == 0:
        return GridInversion(values=values, delta=np.nan, terms=0, tail=0.0)
    i0, m = int(inside[0]), inside.size
    u0 = grid[i0]
    scale = node.mu * node.a_k
    delta = min(2.0 * pi * scale / (grid[inside[-1]] - bottom),
                2.0 * pi * scale / (top - u0))
    t, w, tail = _spectrum(model, node, h, delta, eps_prime)
    theta = delta * ((hi - lo) / max(n_points - 1, 1)) / scale
    s = np.exp(-0.5j * theta * np.arange(m)) * _chirp_z(
        w * np.exp(-1j * (u0 / scale) * t), theta, m)
    values[i0:i0 + m] = np.clip(0.5 - (2.0 / pi) * s.imag, 0.0, 1.0)
    return GridInversion(values=values, delta=delta, terms=t.size, tail=tail)


def cdf_u_gaussian_closed(u, model: ObservationModel, node: NodeParams, h: int):
    """Exact CDF for the Gaussian model: the geometric sum of Gaussians is
    Gaussian with the closed-form steady-state moments."""
    if not isinstance(model, GaussianModel):
        raise TypeError("closed form only applies to the Gaussian model")
    mom = moments(model, node, h)
    return normal_cdf((np.asarray(u, dtype=float) - mom.mean) / sqrt(mom.variance))


@dataclass(frozen=True, eq=False)
class ContinuousCdfTable:
    """Monotone tabulation of F_u with linear interpolation.

    Queries below/above the grid return 0/1; both table functions keep the tail
    mass beyond the grid edges negligible, so out-of-range queries are
    exact to the tabulation budget. ``mean`` and ``variance`` are the
    closed-form moments of the tabulated law, not integrals of the table.
    ``delta``, ``terms`` and ``tail`` describe the series inversion (the
    common step, the number of terms and the last block's residual; nan,
    0 and 0 for a ``normal_table``); ``ripple`` is the largest drop
    of the raw values before the cumulative-max pass. ``grid`` and
    ``values`` are read-only views, in copies too: ``build_steady_state``
    shares one table between nodes. Queries read the private writable
    arrays behind them, since ``np.interp`` copies read-only inputs on
    every call; copies and pickles carry each array once.
    """

    grid: np.ndarray
    values: np.ndarray
    mean: float
    variance: float
    delta: float
    terms: int
    tail: float
    ripple: float

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        for name, arr in (("grid", g), ("values", v)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, "_" + name, arr)
            object.__setattr__(self, name, view)

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k not in ("_grid", "_values")}

    __setstate__ = _freeze_copy

    def __call__(self, u):
        return np.interp(np.asarray(u, dtype=float), self._grid, self._values, 0.0, 1.0)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


def _monotone_table(grid, raw, mean: float, variance: float, eps_prime: float,
                    delta: float = np.nan, terms: int = 0,
                    tail: float = 0.0) -> ContinuousCdfTable:
    """Clamp raw F values to [0,1] and make them nondecreasing by a
    cumulative-max pass; the largest drop is kept as ``ripple``, and drops
    beyond 5 eps_prime raise a diagnostic warning."""
    drops = np.diff(raw)
    worst = max(0.0, -drops.min()) if drops.size else 0.0
    if worst > 5.0 * eps_prime:
        warnings.warn(
            f"tabulated CDF decreases by {worst:.2e} (> 5 eps_prime); "
            "truncation ripple exceeds budget", RuntimeWarning)
    vals = np.minimum(1.0, np.maximum(0.0, np.maximum.accumulate(raw)))
    return ContinuousCdfTable(grid=grid, values=vals, mean=mean, variance=variance,
                              delta=delta, terms=terms, tail=tail,
                              ripple=float(worst))


def normal_table(mean: float, variance: float,
                 n_points: int = 1501) -> ContinuousCdfTable:
    """Table of the N(mean, variance) CDF, ``models.normal_cdf``, on
    mean +/- 12 std; each edge carries Phi(-12) ~ 1.8e-33 of tail mass.
    Linear interpolation on it is off by at most (24/(n_points-1))^2/8
    times phi(1) ~ 0.242, i.e. 7.7e-6 at 1,501 points."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    sd = sqrt(variance)
    grid = np.linspace(mean - _SPAN_STDS * sd, mean + _SPAN_STDS * sd, n_points)
    return _monotone_table(grid, normal_cdf((grid - mean) / sd), mean, variance,
                           DEFAULT_EPS_PRIME)


def tabulate_cdf_u(model: ObservationModel, node: NodeParams, h: int,
                   n_points: int = 1501,
                   eps_prime: float = DEFAULT_EPS_PRIME) -> ContinuousCdfTable:
    """Tabulate F_u on a grid, enforce monotonicity, and wrap for reuse.

    The Gaussian model's u is normal: ``normal_table`` at its closed-form
    moments. Every other model evaluates each grid with ``cdf_u_grid``
    (one step delta, one spectrum and one chirp-z sum) on mean +/- 12 std,
    cut at the support infimum and widened until both edges carry at most
    2 eps_prime of tail mass, then takes the same monotone pass.
    """
    mom = moments(model, node, h)
    if isinstance(model, GaussianModel):
        return normal_table(mom.mean, mom.variance, n_points)
    sd = sqrt(mom.variance)
    lo = max(mom.mean - _SPAN_STDS * sd,
             mom.lower - 2.0 * sd / max(n_points - 1, 1))
    hi = mom.mean + _SPAN_STDS * sd
    for _ in range(6):
        inv = cdf_u_grid(lo, hi, n_points, model, node, h, eps_prime)
        if (inv.values[0] <= 2.0 * eps_prime
                and inv.values[-1] >= 1.0 - 2.0 * eps_prime):
            break
        lo -= 4.0 * sd
        hi += 4.0 * sd
    else:
        warnings.warn("tabulation range extension did not converge",
                      RuntimeWarning)
        inv = cdf_u_grid(lo, hi, n_points, model, node, h, eps_prime)
    return _monotone_table(np.linspace(lo, hi, n_points), inv.values, mom.mean,
                           mom.variance, eps_prime, inv.delta, inv.terms, inv.tail)
