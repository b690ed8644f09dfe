"""Full steady-state CDF of a node's decision state.

The steady state is the sum of the continuous component (the node's own
geometrically weighted statistics) and the discrete component (its
neighbors' one-bit messages), so its CDF is the PMF-weighted mixture

    F_y(y) = sum_i nu_i F_u(y - z_i).

Every ``SteadyStateCdf`` has this one shape: a PMF over a continuous
table. F_u depends on the node only through (model, a_k, mu, h), so
``build_steady_state`` tabulates it once per such key, and nodes with the
same self-weight share one read-only table. The table of F_u is exactly 0
below its uniform grid, 1 above it and linear between its knots, so on a
lattice of the table's own step the mixture is one discrete convolution
(linear binning plus FFT: Silverman, AS 176, 1982; Wand, 1994).
``mixture_table`` bins each atom linearly onto that lattice (keeping its
mass and mean), convolves the weights with the table's values in one real
FFT product and returns F_y as one monotone table; ``SteadyStateCdf``
builds it once, on its first query. At the lattice points the table is
the direct sum except where a shifted query lands within one step outside
the continuous grid (at most the mass the grid leaves at its ends);
between them its error is at most a quarter of the table's largest second
difference more (``SteadyStateCdf.table_error``).

The state's closed-form cumulants kappa_1..3 live in one function,
``state_cumulants``: the own statistics and the two-point messages each
add their n-th cumulant, weighted by (mu a_k)^n and c_kl^n, over
1 - eta^n.

When the memory factor eta = (1-mu) a_k approaches one (vanishing step
size AND dominant self-weight), both components degenerate and the
standardized state is asymptotically standard normal instead (Theorem 2).
That limit is the same shape: a point mass at 0 over a
``continuous.normal_table`` at ``limit_moments`` (kappa_1 and
sqrt(kappa_2)), within 7.7e-6 of the exact normal (linear interpolation on
1,501 points). A small step size alone does not produce normality, so
``select_mode`` takes the limit only when eta >= ETA_THRESHOLD and
a_k >= A_THRESHOLD (fixed constants, 0.97 and 0.95). ``gaussian_limit`` is
the plain normal: at finite eta the state keeps a skew
gamma = kappa_3 / kappa_2^1.5, and the plain normal's sup error is then
about |gamma| phi(0) / 6 (the first-order Edgeworth term; see
``validation.limit_skewness``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import sqrt

import numpy as np

from .continuous import (ContinuousCdfTable, DEFAULT_EPS_PRIME, _monotone_table,
                         moments, normal_table, phi_w_coefficients, tabulate_cdf_u)
from .discrete import DEFAULT_EPS_SCALE, DiscretePmf, discrete_component, point_mass
from .models import ObservationModel
from .network import NetworkSpec, NodeParams

MODE_MIXTURE = "mixture"
MODE_GAUSSIAN_LIMIT = "gaussian_limit"

ETA_THRESHOLD = 0.97
A_THRESHOLD = 0.95

# continuous tables kept by ``build_steady_state``: both hypotheses of 16
# (model, a_k, mu) keys
_TABLE_CACHE_SIZE = 32


def state_cumulants(model: ObservationModel, network: NetworkSpec, k: int,
                    h: int, mu: float) -> tuple[float, float, float]:
    """Closed-form mean, variance and third cumulant of node k's state,

        kappa_n = [(mu a_k)^n kappa_n(x) + sum_l c_kl^n kappa_n(xt)] / (1 - eta^n).

    The own part is u's: ``continuous.moments`` for n = 1, 2 and the t^3
    coefficient of Phi_w, kappa_3 = Re(6j phi_w,3), for n = 3. The message
    xt is e_0 + d b with b ~ Bernoulli(p), d = e_1 - e_0 and p = p_d under
    h=1, p_f under h=0, so kappa_1..3(xt) = e_0 + p d, p(1-p) d^2 and
    p(1-p)(1-2p) d^3.
    """
    node = network.node_params(k, mu)
    mom = moments(model, node, h)
    kappa3_w = float(np.real(6j * phi_w_coefficients(model, node, h, 3)[2]))
    own = (mom.mean, mom.variance, (mu * node.a_k) ** 3 * kappa3_w)
    e0, e1 = model.message_values()
    d = e1 - e0
    p = model.p_d if h == 1 else model.p_f
    q = p * (1.0 - p)
    msg = (e0 + p * d, q * d * d, q * (1.0 - 2.0 * p) * d ** 3)
    return tuple(o + float(np.sum(node.c_row ** n)) * m / (1.0 - node.eta ** n)
                 for n, (o, m) in enumerate(zip(own, msg), start=1))


def limit_moments(model: ObservationModel, network: NetworkSpec, k: int,
                  h: int, mu: float) -> tuple[float, float]:
    """Steady-state mean and standard deviation of the node state
    (``state_cumulants``): the centering/scaling of the near-unity-eta
    normal limit."""
    m, s2, _ = state_cumulants(model, network, k, h, mu)
    if s2 <= 0:
        raise ValueError("degenerate steady state: zero variance")
    return m, sqrt(s2)


def select_mode(node: NodeParams) -> str:
    """Choose mixture vs gaussian-limit evaluation.

    The normal limit needs eta -> 1, which requires both a small step size
    and a dominant self-weight; a tiny mu with moderate a_k stays in
    mixture mode.
    """
    if node.eta >= ETA_THRESHOLD and node.a_k >= A_THRESHOLD:
        return MODE_GAUSSIAN_LIMIT
    return MODE_MIXTURE


def mixture_table(pmf: DiscretePmf, cont: ContinuousCdfTable) -> ContinuousCdfTable:
    """F_y(y) = sum_i nu_i F_u(y - z_i) as one monotone table.

    Each atom is binned linearly onto a lattice of ``cont``'s grid step
    (the first atom of each stretch on a lattice point), which keeps its
    mass and mean. Atoms more than a table width (plus three steps) apart
    start a new stretch, and F_y is flat between stretches. The stretches
    lie end to end in one array, each as its lattice points and the n + 1
    points past them (n the continuous table's size); index m of a stretch
    reads y = (its first atom) + grid[0] + (m - its first index) step. One
    FFT product gives sum_j w_j values[m - j] over 0 <= m - j < n, and one
    cumulative sum adds the weights with m - j >= n, where the table
    reads 1 (earlier stretches included).
    """
    grid, vals = cont.grid, cont.values
    n = grid.size
    step = (grid[-1] - grid[0]) / max(n - 1, 1)
    if n < 2 or np.ptp(np.diff(grid)) > 1e-6 * step:
        raise ValueError("the continuous table needs a uniform grid of at least 2 points")
    z, nu = pmf.points, pmf.probs
    opens = np.diff(z, prepend=-np.inf) > grid[-1] - grid[0] + 3 * step
    stretch = np.cumsum(opens) - 1
    first = np.flatnonzero(opens)
    last = np.append(first[1:], z.size) - 1
    spans = np.maximum(np.ceil((z[last] - z[first]) / step), 1).astype(np.int64)
    sizes = spans + n + 2  # the lattice, then n + 1 points past it
    starts = np.cumsum(sizes) - sizes  # index of each stretch's y - step
    total = int(sizes.sum())
    pos = (z - z[first][stretch]) / step
    j = np.minimum(np.floor(pos), spans[stretch] - 1)
    frac = pos - j
    idx = starts[stretch] + 1 + j.astype(np.int64)
    w = (np.bincount(idx, nu * (1.0 - frac), total)
         + np.bincount(idx + 1, nu * frac, total))
    size = 1 << (total + n - 2).bit_length()  # >= total + n - 1: no wrap-around
    raw = np.fft.irfft(np.fft.rfft(w, size) * np.fft.rfft(vals, size), size)[:total]
    raw[n:] += np.cumsum(w)[:total - n]
    offset = np.arange(total) - np.repeat(starts + 1, sizes)
    ys = np.repeat(z[first] + grid[0], sizes) + offset * step
    return _monotone_table(ys, raw, cont.mean + pmf.mean(),
                           cont.variance + pmf.variance(), DEFAULT_EPS_PRIME)


def mixture_cdf(y, pmf: DiscretePmf, cont_cdf: ContinuousCdfTable) -> np.ndarray:
    """sum_i nu_i F_u(y - z_i) at the points y (an array of y's shape, at
    least 1-D), read off ``mixture_table``."""
    return mixture_table(pmf, cont_cdf)(np.atleast_1d(np.asarray(y, dtype=float)))


@dataclass(frozen=True, eq=False)
class SteadyStateCdf:
    """Evaluable CDF of the steady-state node state under one hypothesis:
    the mixture of ``cont`` shifted by each atom of ``pmf``. ``mode`` says
    which law was tabulated (``select_mode``): the paper's mixture, or the
    eta -> 1 limit normal as a point mass at 0 over a normal table.

    A query reads ``table``, the mixture tabulated by ``mixture_table`` on
    the first query and kept (copies and pickles carry it once built);
    ``table_error`` bounds its distance to the direct mixture sum.
    """

    node: int
    h: int
    mode: str
    pmf: DiscretePmf
    cont: ContinuousCdfTable

    @cached_property
    def table(self) -> ContinuousCdfTable:
        return mixture_table(self.pmf, self.cont)

    @property
    def table_error(self) -> float:
        """B = max|second difference of V| / 4 + max(v_0, 1 - v_last), with
        v the continuous table's values and V = (0, v, 1) the values its
        interpolation takes, limits included; the first term is the linear
        interpolation error between lattice points, the second what a
        query within one step outside the grid may miss."""
        v = np.concatenate(([0.0], self.cont.values, [1.0]))
        return float(np.abs(np.diff(v, 2)).max() / 4.0 + max(v[1], 1.0 - v[-2]))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = self.table(y)
        return float(out) if y.ndim == 0 else out

    def mean(self) -> float:
        return self.cont.mean + self.pmf.mean()

    def std(self) -> float:
        return sqrt(self.cont.variance + self.pmf.variance())


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _continuous_table(model: ObservationModel, a_k: float, mu: float, h: int,
                      eps_prime: float) -> ContinuousCdfTable:
    """``tabulate_cdf_u`` for every node with self-weight a_k at step size
    mu: F_u reads the node only through a_k, mu and eta, never its
    neighbours. Models key by identity."""
    node = NodeParams(k=0, a_k=a_k, mu=mu, c_row=np.zeros(1))
    return tabulate_cdf_u(model, node, h, eps_prime=eps_prime)


def build_steady_state(model: ObservationModel, network: NetworkSpec, k: int,
                       h: int, mu: float, *,
                       eps_prime: float = DEFAULT_EPS_PRIME,
                       eps_scale: float = DEFAULT_EPS_SCALE) -> SteadyStateCdf:
    """Construct the analytical steady-state CDF for node k under h.

    The mode is selected from the node's eta and self-weight
    (``select_mode``). In mixture mode the continuous CDF is tabulated
    with aliasing budget ``eps_prime`` once per (model, a_k, mu, h,
    eps_prime) and shared, read-only, by every node with that self-weight
    (``_continuous_table``, up to ``_TABLE_CACHE_SIZE`` tables); a cache
    hit does not repeat ``_monotone_table``'s ripple warning. The
    discrete component's truncation budget is ``eps_scale`` times the
    continuous component's std. In the limit mode the table is the normal
    at ``limit_moments`` and the PMF a point mass at 0.
    """
    node = network.node_params(k, mu)
    mode = select_mode(node)
    if mode == MODE_GAUSSIAN_LIMIT:
        m, s = limit_moments(model, network, k, h, mu)
        return SteadyStateCdf(node=k, h=h, mode=mode, pmf=point_mass(0.0),
                              cont=normal_table(m, s * s))
    pmf = discrete_component(model, network, k, h, mu, eps_scale)
    table = _continuous_table(model, node.a_k, node.mu, h, eps_prime)
    return SteadyStateCdf(node=k, h=h, mode=mode, pmf=pmf, cont=table)


def steady_state_pair(model: ObservationModel, network: NetworkSpec, k: int,
                      mu: float, **kwargs) -> tuple[SteadyStateCdf, SteadyStateCdf]:
    """CDFs under both hypotheses (h=0, h=1) for one node."""
    return (build_steady_state(model, network, k, 0, mu, **kwargs),
            build_steady_state(model, network, k, 1, mu, **kwargs))
