"""Steady-state distribution of the continuous state component.

The continuous component of a node's steady state is u = a_k mu w, where
w is the geometric sum of the node's own i.i.d. statistics with memory
factor eta = (1-mu) a_k. Its log-characteristic function is
Phi_w(t) = sum_{i>=0} Phi_x(eta^i t), so Phi_w(t) - Phi_w(eta t) = Phi_x(t).

Phi_w is ``geometric_log_cf``: explicit terms Phi_x(eta^i t) down to a
fraction of Phi_x's radius, then twelve cumulants in closed form.

There is one inversion engine, ``_lattice_cdf``: the Fourier-series method
(Abate & Whitt 1992) on the lattice of a table's own knots. F at every knot
is one inverse FFT of the terms exp(K(-omega_k))/(j 2 pi k), K the
tabulated variable's log-CF, folded mod the period: exact up to the mass
outside one period and the terms left out, which stop once a block's share
of any F is below eps_prime/20. A second log-CF of modulus at most 1 may
multiply the kept terms without entering that rule: ``steady_state``
passes u's term as K and the neighbours' digits as that factor.
``_tabulate`` sets every table's range, 1,501 knots on u's mean +/- 12 std,
widened until both ends are within 2 eps_prime of 0 and 1.
``tabulate_cdf_u`` tabulates u, K(t) = Phi_w(a_k mu t), and ``cdf_u``
shifts its lattice so that a point is a knot: oracles, as is the Gaussian
closed form ``cdf_u_gaussian_closed``. No production path reads u alone,
as the state inverts its own CF.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial, isnan, nan, pi, sqrt

import numpy as np

from .models import GaussianModel, ObservationModel, as_hypothesis, normal_cdf
from .network import NodeParams

DEFAULT_EPS_PRIME = 2e-5

# geometric sums' explicit terms stop near this fraction of the radius
_TAIL_ARG = 0.01
_TAIL_BLOCK = 128
_EVAL_CHUNK = 512
_MAX_TERMS = 4_000_000
_SPAN_STDS = 12.0  # half-width of the initial tabulation range, in stds
_TABLE_POINTS = 1501


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
    The support of u is bounded below by a_k mu inf(x) / (1 - eta). Every
    analytic law of u or of a node state checks its h here or in
    ``steady_state.state_cumulants`` (``models.as_hypothesis``).
    """
    h = as_hypothesis(h)
    s = node.a_k * node.mu
    mean = s * model.mean(h) / (1.0 - node.eta)
    variance = s * s * model.variance(h) / (1.0 - node.eta ** 2)
    lo = model.support_lower(h)
    lower = s * lo / (1.0 - node.eta) if np.isfinite(lo) else -np.inf
    return ContinuousMoments(mean=mean, variance=variance, lower=lower)


def geometric_log_cf(log_cf, kappa, radius: float, eta: float, t) -> np.ndarray:
    """sum_{i>=0} log_cf(eta^i t) at real or complex t: explicit terms while
    |eta^i t| >= bar, then the R cumulants kappa summed over i at the last
    s, sum_r kappa_r (j s)^r / (r! (1 - eta^r)), exact for a log_cf that is
    a polynomial of degree R. That tail's first omitted term grows as
    (|s| / radius)^(R+1) / (1 - eta^(R+1)) (radius of log_cf's series, may
    be inf), so bar = ``_TAIL_ARG``^(5/(R+1)) radius (1 - eta^(R+1))^(1/(R+1))
    holds it across eta and R at ``_TAIL_ARG``^5, the bound of four
    cumulants. Trailing zero cumulants add no tail terms."""
    s = np.array(t, dtype=np.result_type(t, 1.0), ndmin=1)
    first = len(kappa) + 1  # the order of the first omitted tail term
    bar = _TAIL_ARG ** (5 / first) * radius * (1.0 - eta ** first) ** (1 / first)
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
    while coef and coef[-1] == 0.0:
        coef.pop()
    acc[order] = acc + np.polyval([*coef[::-1], 0.0], 1j * x)
    return acc.reshape(s.shape)


def log_cf_w(model: ObservationModel, node: NodeParams, h: int, t) -> np.ndarray:
    """Phi_w(t) = sum_{i>=0} Phi_x(eta^i t) at real or complex t (``geometric_log_cf``)."""
    return geometric_log_cf(lambda s: model.log_cf(s, h), model.cumulants(h),
                            model.radius(h), node.eta, t)


_FFT_ODD_FACTORS = tuple(3 ** j * 5 ** k for j in range(12) for k in range(8))


def _fft_length(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n, j < 12 and k < 8."""
    return min(f << (-(-n // f) - 1).bit_length() for f in _FFT_ODD_FACTORS)


def _u_log_cf(model: ObservationModel, node: NodeParams, h: int):
    """u's log-CF, t -> Phi_w(a_k mu t) (``log_cf_w``)."""
    scale = node.a_k * node.mu
    return lambda t: log_cf_w(model, node, h, scale * t)


def _lattice_cdf(log_cf, lo: float, step: float, n: int, eps_prime: float,
                 factor=None) -> tuple[np.ndarray, float, int, float]:
    """F at the knots lo + i step, i < n, clamped to [0, 1], of the law with
    log-CF log_cf + factor (factor 0 when not given), by the Fourier-series
    method on their lattice (Abate & Whitt 1992).

    The period L step, L = ``_fft_length``(n), starts at c = lo - g step with
    g = (L - n + 1) // 2, so the knots sit mid-period. With
    omega_k = 2 pi k / (L step) and
    b_k = exp(log_cf(-omega_k) + factor(-omega_k) + j omega_k c) / (j 2 pi k),

        F(c + i step) = i/L + sum_{k != 0} b_k (e^{j 2 pi k i/L} - 1),

    exact up to the mass outside [c, c + L step). As b_{-k} is the conjugate
    of b_k, the sum is one irfft of the b_k, k >= 1, folded mod L once k
    reaches L/2. They come in blocks of ``_TAIL_BLOCK`` until a block's
    (2/pi) sum |exp(log_cf)|/k, its largest share of any F, is below
    eps_prime/20. ``factor`` (modulus at most 1) multiplies the kept terms
    only: a factor that dips and rises again, as the digits' CF does at
    eta < 1/2, cannot stop the series in a trough. Returns (F, delta, terms,
    tail): delta = omega_1, the number of terms and the last block's bound.
    """
    if not 0.0 < eps_prime < 1.0:  # the range load_config takes; NaN fails too
        raise ValueError(f"eps_prime must be positive and below 1, got {eps_prime}")
    length = _fft_length(n)
    gap = (length - n + 1) // 2
    omega = 2.0 * pi / (length * step)
    shift = omega * (lo - gap * step)
    kept, terms, tail, stop = [], 0, np.inf, eps_prime / 20.0
    while tail >= stop:
        if terms >= _MAX_TERMS:
            raise InversionError(
                f"inversion series did not settle within {_MAX_TERMS} terms")
        # log_cf takes chunks of _EVAL_CHUNK terms, then doubling, to save
        # calls; one reduction gives a chunk's block bounds, and the series
        # stops at the first block below eps_prime/20
        k = np.arange(terms + 1, min(max(2 * terms, _EVAL_CHUNK), _MAX_TERMS) + 1)
        chunk = np.exp(log_cf(-omega * k))
        if not np.all(np.isfinite(chunk)):
            raise InversionError("non-finite term in the inversion series (the "
                                 "log-CF is not finite at some omega_k)")
        bounds = (np.abs(chunk) / k).reshape(-1, _TAIL_BLOCK).sum(axis=1) * (2.0 / pi)
        last = int((bounds < stop).argmax())
        if bounds[last] >= stop:  # no block below it: keep the whole chunk
            last = bounds.size - 1
        kept.append(chunk[:(last + 1) * _TAIL_BLOCK])
        terms, tail = terms + kept[-1].size, float(bounds[last])
    k = np.arange(1, terms + 1)
    phi = np.concatenate(kept)
    if factor is not None:
        phi *= np.exp(factor(-omega * k))
    coef = phi * np.exp(1j * shift * k) / (2j * pi * k)
    if terms <= (length - 1) // 2:
        # no k reaches L/2, so none folds onto a bin m <= L/2: the terms are
        # the half spectrum
        half = np.zeros(length // 2 + 1, dtype=complex)
        half[1:terms + 1] = coef
    else:
        # bin m of the half spectrum takes B_m + conj(B_{L-m}), B the terms folded mod L
        folded = np.zeros(length * (terms // length + 1), dtype=complex)
        folded[1:terms + 1] = coef
        folded = folded.reshape(-1, length).sum(axis=0)
        folded[1:length // 2 + 1] += folded[:(length - 1) // 2:-1].conj()
        folded[0] *= 2.0
        half = folded[:length // 2 + 1]
    series = np.fft.irfft(half, length)[gap:gap + n]
    values = np.arange(gap, gap + n) / length + length * series - 2.0 * coef.sum().real
    return np.clip(values, 0.0, 1.0), omega, terms, tail


def _table_range(mom: ContinuousMoments) -> tuple[float, float]:
    """A table's first range: mean +/- 12 std of ``mom``, cut 2 std / 1,500
    below the support infimum."""
    sd = sqrt(mom.variance)
    return (max(mom.mean - _SPAN_STDS * sd, mom.lower - 2.0 * sd / (_TABLE_POINTS - 1)),
            mom.mean + _SPAN_STDS * sd)


def _tabulate(log_cf, mom: ContinuousMoments, eps_prime: float, knots=None,
              factor=None) -> tuple[np.ndarray, ...]:
    """``_lattice_cdf`` of log_cf (and ``factor``) on ``_table_range``(mom)
    in 1,500 steps, over knots(step) knots (1,501 when not given). The range
    widens by 4 std a side until F's two ends are within 2 eps_prime of 0
    and 1, six times at most, then warns. Returns (grid, F, delta, terms,
    tail)."""
    lo, hi = _table_range(mom)
    sd, cells = sqrt(mom.variance), _TABLE_POINTS - 1
    for widened in range(7):
        if widened:
            lo, hi = lo - 4.0 * sd, hi + 4.0 * sd
        step = (hi - lo) / cells
        n = _TABLE_POINTS if knots is None else knots(step)
        values, *series = _lattice_cdf(log_cf, lo, step, n, eps_prime, factor)
        if values[0] <= 2.0 * eps_prime and values[-1] >= 1.0 - 2.0 * eps_prime:
            break
    else:
        warnings.warn("tabulation range extension did not converge", RuntimeWarning)
    return (lo + step * np.arange(n), values, *series)


def cdf_u(u: float, model: ObservationModel, node: NodeParams, h: int,
          eps_prime: float = DEFAULT_EPS_PRIME) -> float:
    """CDF of the steady-state continuous component at u, clamped to [0,1].

    ``_lattice_cdf`` on the lattice of u's table (``tabulate_cdf_u``, for
    every model), shifted so that u is a knot; 0 below that range, 1
    above it and NaN at NaN, as the table reads. Requires an absolutely
    continuous limit (true for any model whose statistic has a density).
    """
    table = tabulate_cdf_u(model, node, h, eps_prime=eps_prime)
    (lo, hi), n = table.support, table.grid.size
    if isnan(u):
        return nan
    if not lo <= u <= hi:
        return float(u > hi)
    step = (hi - lo) / (n - 1)
    i = min(int((u - lo) // step), n - 1)
    return float(_lattice_cdf(_u_log_cf(model, node, h), u - i * step, step, n,
                              eps_prime)[0][i])


def cdf_u_gaussian_closed(u, model: ObservationModel, node: NodeParams, h: int):
    """Exact CDF for the Gaussian model: the geometric sum of Gaussians is
    Gaussian with the closed-form steady-state moments."""
    if not isinstance(model, GaussianModel):
        raise TypeError("closed form only applies to the Gaussian model")
    mom = moments(model, node, h)
    return normal_cdf((np.asarray(u, dtype=float) - mom.mean) / sqrt(mom.variance))


@dataclass(frozen=True, eq=False)
class ContinuousCdfTable:
    """Monotone tabulation of a CDF with linear interpolation: u's
    (``tabulate_cdf_u``) or a node state's past its head PMF
    (``steady_state.build_steady_state``).

    Queries below/above the grid return 0/1; ``_tabulate``'s range keeps
    the tail mass beyond the grid edges negligible. ``mean`` and
    ``variance`` are the closed-form moments of the tabulated law, not
    integrals of the table. ``delta``, ``terms`` and ``tail`` describe the
    lattice series (``_lattice_cdf``): the frequency step of the tabulated
    variable's own CF, the number of terms and the last block's residual.
    ``ripple`` is the largest drop of the raw values before the
    cumulative-max pass. ``grid`` and ``values`` are read-only views, in
    copies too, so a table handed to several callers stays as built.
    Queries read the private writable arrays behind them, since
    ``np.interp`` copies read-only inputs on every call; copies and
    pickles carry each array once.
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
                    delta: float, terms: int, tail: float) -> ContinuousCdfTable:
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


def tabulate_cdf_u(model: ObservationModel, node: NodeParams, h: int,
                   eps_prime: float = DEFAULT_EPS_PRIME) -> ContinuousCdfTable:
    """F_u's monotone read-only table: ``_tabulate`` of u's log-CF on its
    1,501 knots, then ``_monotone_table``. No production path
    reads it: the oracles and tests do, and ``cdf_u`` takes its range.
    ``perfbench/spans.py`` traces this function and ``cdf_u`` by name, so
    both stay until the benchmark's tracer follows the state's own series.
    """
    mom = moments(model, node, h)
    grid, values, *series = _tabulate(_u_log_cf(model, node, h), mom, eps_prime)
    return _monotone_table(grid, values, mom.mean, mom.variance, eps_prime, *series)
