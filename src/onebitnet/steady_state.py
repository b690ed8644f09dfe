"""Full steady-state CDF of a node's decision state.

Under ``one_bit_x`` node k's state is y = u + sum_l c_kl sum_i eta^i m_l,i,
u the geometric sum of its own statistics (``continuous``) and m_l,i the
one-bit messages e_0 + d b, d = e_1 - e_0, b ~ Bernoulli(p_d under h=1,
p_f under h=0). Their characteristic function is the closed-form
product prod_l prod_i (1 - p + p e^{j w c_kl eta^i d}) (Peres, Schlag &
Solomyak, 2000): ``build_steady_state`` multiplies it into the Fourier
transform of u's table, so one inversion gives the whole state's law in
every regime, eta -> 1 included (Abate & Whitt, 1992). Digit levels too
coarse for the table's lattice form an exact head PMF, and every
``SteadyStateCdf`` is that PMF over the folded table. The closed-form
cumulants live in ``state_cumulants``; the paper's star-aggregated
message table (``discrete.discrete_component``) is measured against this
law by ``validation.check_figure_cdfs``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import ceil, pi, sqrt

import numpy as np

from .continuous import (ContinuousCdfTable, DEFAULT_EPS_PRIME, _monotone_table,
                         geometric_log_cf, tabulate_cdf_u)
from .discrete import DiscretePmf, convolve, point_mass
from .models import ObservationModel
from .network import NetworkSpec, NodeParams

# tables of u kept: both hypotheses of 16 (model, a_k, mu) keys
_TABLE_CACHE_SIZE = 32
# digit levels move into the head until the folded table fits in this
_MAX_LATTICE = 1 << 18


def _bit_cumulants(p: float) -> tuple[float, float, float, float]:
    """kappa_1..kappa_4 of a Bernoulli(p) bit."""
    q = 1.0 - p
    return p, p * q, p * q * (q - p), p * q * (1.0 - 6.0 * p * q)


def _bit_log_cf(p: float, x: np.ndarray) -> np.ndarray:
    """log(q + p e^{jx}) at real x in real arithmetic: half the log of
    |q + p e^{jx}|^2 = 1 - 2pq(1 - cos x), plus j times its angle. Its
    power series' radius is at least pi."""
    q, c = 1.0 - p, np.cos(x)
    return (0.5 * np.log1p(2.0 * p * q * (c - 1.0))
            + 1j * np.arctan2(p * np.sin(x), q + p * c))


def state_cumulants(model: ObservationModel, network: NetworkSpec, k: int,
                    h: int, mu: float) -> tuple[float, float, float]:
    """Closed-form mean, variance and third cumulant of node k's state,

        kappa_n = [(mu a_k)^n kappa_n(x) + sum_l c_kl^n kappa_n(xt)] / (1 - eta^n),

    with kappa_n(x) from ``model.cumulants``. The message xt is e_0 + d b
    with b ~ Bernoulli(p), d = e_1 - e_0 and p = p_d under h=1, p_f under
    h=0, so kappa_n(xt) = [n = 1] e_0 + d^n kappa_n(b), the bit's cumulants
    being the ones ``_fold_digits`` folds.
    """
    node = network.node_params(k, mu)
    e0, e1 = model.message_values()
    x = model.cumulants(h)
    b = _bit_cumulants(model.p_d if h == 1 else model.p_f)
    return tuple(((mu * node.a_k) ** n * x[n - 1] + float(np.sum(node.c_row ** n))
                  * ((n == 1) * e0 + (e1 - e0) ** n * b[n - 1])) / (1.0 - node.eta ** n)
                 for n in (1, 2, 3))


def limit_moments(model: ObservationModel, network: NetworkSpec, k: int,
                  h: int, mu: float) -> tuple[float, float]:
    """Steady-state mean and standard deviation of the node state
    (``state_cumulants``): the centering/scaling of the near-unity-eta
    normal limit."""
    m, s2, _ = state_cumulants(model, network, k, h, mu)
    if s2 <= 0:
        raise ValueError("degenerate steady state: zero variance")
    return m, sqrt(s2)


def mixture_table(pmf: DiscretePmf, cont: ContinuousCdfTable) -> ContinuousCdfTable:
    """F_y(y) = sum_i nu_i F_u(y - z_i) as one monotone table (linear
    binning plus FFT: Silverman, AS 176, 1982; Wand, 1994); one atom only
    shifts the table.

    Atoms more than a table width (plus three steps) apart start a new
    stretch, and F_y is flat between stretches. Each stretch bins its atoms
    linearly onto a lattice of ``cont``'s grid step (its first atom on a
    lattice point), which keeps their mass and mean, and covers the lattice
    and the n + 1 points past it (n the continuous table's size). One FFT
    product gives sum_j w_j values[m - j] over 0 <= m - j < n, and a
    cumulative sum adds the weights with m - j >= n, where the table reads
    1, to the earlier stretches' mass; the stretches are joined end to end.
    """
    grid, vals = cont.grid, cont.values
    n = grid.size
    step = (grid[-1] - grid[0]) / max(n - 1, 1)
    if n < 2 or np.ptp(np.diff(grid)) > 1e-6 * step:
        raise ValueError("the continuous table needs a uniform grid of at least 2 points")
    z, nu = pmf.points, pmf.probs
    if z.size == 1:
        return ContinuousCdfTable(grid + z[0], vals, cont.mean + z[0], cont.variance,
                                  cont.delta, cont.terms, cont.tail, cont.ripple)
    opens = np.flatnonzero(np.diff(z) > grid[-1] - grid[0] + 3 * step) + 1
    ys, raws, below = [], [], 0.0  # below: the mass of the earlier stretches
    for zs, ws in zip(np.split(z, opens), np.split(nu, opens)):
        span = max(ceil((zs[-1] - zs[0]) / step), 1)
        size = span + n + 2  # y - step, the lattice, then n + 1 points past it
        pos = (zs - zs[0]) / step
        j = np.minimum(np.floor(pos), span - 1)
        frac, idx = pos - j, 1 + j.astype(np.int64)
        w = np.bincount(idx, ws * (1.0 - frac), size) + np.bincount(idx + 1, ws * frac, size)
        length = _fft_length(size + n - 1)  # no wrap-around
        raw = np.fft.irfft(np.fft.rfft(w, length) * np.fft.rfft(vals, length), length)[:size]
        raw[n:] += np.cumsum(w)[:size - n]
        raws.append(raw + below)
        below += ws.sum()
        ys.append(zs[0] + grid[0] + step * np.arange(-1, size - 1))
    return _monotone_table(np.concatenate(ys), np.concatenate(raws), cont.mean + pmf.mean(),
                           cont.variance + pmf.variance(), DEFAULT_EPS_PRIME)


def mixture_cdf(y, pmf: DiscretePmf, cont_cdf: ContinuousCdfTable) -> np.ndarray:
    """sum_i nu_i F_u(y - z_i) at the points y (an array of y's shape, at
    least 1-D), read off ``mixture_table``."""
    return mixture_table(pmf, cont_cdf)(np.atleast_1d(np.asarray(y, dtype=float)))


@dataclass(frozen=True, eq=False)
class SteadyStateCdf:
    """Evaluable CDF of the steady-state node state under one hypothesis:
    the head ``pmf`` over the folded table ``cont`` (``build_steady_state``).
    A query reads ``table``, ``mixture_table``'s result, built on the first
    query and kept (copies and pickles carry it once built); ``table_error``
    bounds its distance to the direct mixture sum.
    """

    node: int
    h: int
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


def _fft_length(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n."""
    return min(f << (-(-n // f) - 1).bit_length()
               for f in (3 ** j * 5 ** k for j in range(12) for k in range(8)))


def _fold_digits(u: ContinuousCdfTable, w: np.ndarray, n: np.ndarray, p: float,
                 eta: float, eps_prime: float) -> np.ndarray:
    """F of u + sum_g w_g sum_i eta^i B_g,i, B_g,i ~ Binomial(n_g, p), on
    u's lattice from u.grid[0] over the table plus the digits' span.

    The rfft Q of u's cell masses is multiplied below the first bin K with
    (2/pi) sum_{i>=K} |Q_i|/i < eps_prime/20 (``continuous._spectrum``'s
    rule; later bins are dropped) by the digits' closed-form CF
    exp(sum_g n_g sum_i log(q + p e^{-j w_g eta^i omega})), each group's sum
    one ``geometric_log_cf`` of ``_bit_log_cf``; an irfft and a cumulative
    sum give F.
    """
    step = (u.grid[-1] - u.grid[0]) / (u.grid.size - 1)
    size = u.grid.size + 1 + ceil(float(n @ w) / (1.0 - eta) / step)
    length = _fft_length(size)
    spec = np.fft.rfft(np.diff(u.values, prepend=0.0, append=1.0), length)
    tail = np.cumsum(np.abs(spec[:0:-1]) / np.arange(spec.size - 1, 0, -1))[::-1]
    cut = 1 + int(np.argmax(np.append(tail * (2.0 / pi), 0.0) < eps_prime / 20.0))
    omega = 2.0 * pi / (length * step) * np.arange(cut)
    bit, kappa = partial(_bit_log_cf, p), _bit_cumulants(p)
    spec[:cut] *= np.exp(sum(count * geometric_log_cf(bit, kappa, pi, eta, -weight * omega)
                             for weight, count in zip(w, n)))
    spec[cut:] = 0.0
    return np.cumsum(np.fft.irfft(spec, length)[:size])


def build_steady_state(model: ObservationModel, network: NetworkSpec, k: int,
                       h: int, mu: float, *,
                       eps_prime: float = DEFAULT_EPS_PRIME) -> SteadyStateCdf:
    """Construct the analytical steady-state CDF for node k under h.

    Neighbours with equal c_kl form a group g of n_g, whose digit level i
    adds c_g eta^i d Binomial(n_g, p). While the folded table would exceed
    ``_MAX_LATTICE`` points, whole digit levels move into the exact head
    PMF; ``_fold_digits`` folds the rest into F_u (aliasing budget
    ``eps_prime``; one shared read-only table per (model, a_k, mu, h,
    eps_prime), ``_continuous_table``). The folded table's mean and
    variance are ``state_cumulants``' kappa_1 and kappa_2 minus the head's.
    """
    node = network.node_params(k, mu)
    u = _continuous_table(model, node.a_k, node.mu, h, eps_prime)
    e0, e1 = model.message_values()
    p = model.p_d if h == 1 else model.p_f
    c, n = np.unique(node.c_row[node.c_row > 0], return_counts=True)
    w, eta = c * (e1 - e0), node.eta
    step = (u.grid[-1] - u.grid[0]) / (u.grid.size - 1)
    levels = 0
    while u.grid.size + float(n @ w) * eta ** levels / (1.0 - eta) / step > _MAX_LATTICE:
        levels += 1
    head = convolve([DiscretePmf(np.array([0.0, wl * eta ** i]), np.array([1.0 - p, p]))
                     for i in range(levels) for wl in np.repeat(w, n)] or [point_mass(0.0)],
                    merge_tol=0.0)
    values = _fold_digits(u, w * eta ** levels, n, p, eta, eps_prime)
    grid = u.grid[0] + float(n @ c) * e0 / (1.0 - eta) + step * np.arange(values.size)
    kappa1, kappa2, _ = state_cumulants(model, network, k, h, mu)
    cont = _monotone_table(grid, values, kappa1 - head.mean(),
                           kappa2 - head.variance(), eps_prime)
    return SteadyStateCdf(node=k, h=h, pmf=head, cont=cont)


def steady_state_pair(model: ObservationModel, network: NetworkSpec, k: int,
                      mu: float, **kwargs) -> tuple[SteadyStateCdf, SteadyStateCdf]:
    """CDFs under both hypotheses (h=0, h=1) for one node."""
    return (build_steady_state(model, network, k, 0, mu, **kwargs),
            build_steady_state(model, network, k, 1, mu, **kwargs))
