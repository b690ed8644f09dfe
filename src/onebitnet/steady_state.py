"""Full steady-state CDF of a node's decision state.

Under ``one_bit_x`` node k's state is y = u + sum_l c_kl sum_i eta^i m_l,i,
u the geometric sum of its own statistics (``continuous``) and m_l,i the
one-bit messages e_0 + d b, d = e_1 - e_0, b ~ Bernoulli(p_d under h=1,
p_f under h=0). Their characteristic function is the closed-form
product prod_l prod_i (1 - p + p e^{j w c_kl eta^i d}) (Peres, Schlag &
Solomyak, 2000). ``build_steady_state`` inverts the state's log-CF, u's
Phi_w(a_k mu t) plus that product's log, in one lattice Fourier series
(``continuous._lattice_cdf``; Abate & Whitt, 1992), in every regime, eta
-> 1 included. Digit levels too coarse for that lattice form an exact head
PMF, and every ``SteadyStateCdf`` is that PMF over the state's table, read
as the direct sum sum_i nu_i F(y - z_i) (``mixture_cdf``). The closed-form
cumulants live in ``state_cumulants``; the paper's star-aggregated message
table (``discrete.discrete_component``) is measured against this law by
``validation.check_figure_cdfs``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import ceil, comb, pi, sqrt
from operator import mul

import numpy as np

from .continuous import (_TABLE_POINTS, ContinuousCdfTable, DEFAULT_EPS_PRIME,
                         _monotone_table, _table_range, _tabulate, _u_log_cf,
                         geometric_log_cf, moments)
from .discrete import DiscretePmf, convolve, point_mass
from .models import CUMULANT_ORDER, ObservationModel, as_hypothesis
from .network import NetworkSpec

# digit levels move into the head until the state's table fits in this
_MAX_LATTICE = 1 << 18
# row n = 1 .. 12 of the bits' moment recursion: C(n-1, i-1) for i = 1 .. n-1
_PASCAL = tuple(tuple(comb(n - 1, i) for i in range(n - 1))
                for n in range(1, CUMULANT_ORDER + 1))


def _bit_cumulants(p: float) -> tuple[float, ...]:
    """kappa_1..kappa_12 of a Bernoulli(p) bit (``CUMULANT_ORDER``) by the
    moment recursion kappa_n = m_n - sum_{i<n} C(n-1, i-1) kappa_i m_{n-i},
    every raw moment m of a bit being p."""
    kappa = []
    for row in _PASCAL:
        kappa.append(p - p * sum(map(mul, row, kappa)))
    return tuple(kappa)


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
    with b ~ Bernoulli(p), d = e_1 - e_0 and p = P_h(x >= 0)
    (``model.bit_probability``), so kappa_n(xt) = [n = 1] e_0 + d^n kappa_n(b),
    the bit's cumulants being the tail ones of the digits' ``geometric_log_cf``.
    """
    h = as_hypothesis(h)
    node = network.node_params(k, mu)
    e0, e1 = model.message_values()
    x = model.cumulants(h)
    b = _bit_cumulants(model.bit_probability(h))
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


def mixture_cdf(y, pmf: DiscretePmf, cont: ContinuousCdfTable) -> np.ndarray:
    """F(y) = sum_i nu_i F_u(y - z_i) at the points y, clipped to [0, 1]: an
    array of y's shape, at least 1-D. One table query per atom, summed in
    place, so memory stays at one array of y's size; every term is
    nonnegative, so capping the sum at 1 clips it. Most heads are one atom
    of mass 1, whose sum is the query itself, already in [0, 1] for a
    table of ``_monotone_table``, and goes to the table without a copy of
    y; at z = 0, y - z is y itself."""
    if pmf.size == 1 and pmf.probs[0] == 1.0:
        z = pmf.points.item()
        out = cont(np.subtract(y, z) if z else y)
        return out.reshape(1) if out.ndim == 0 else out
    y = np.array(y, dtype=float, copy=None, ndmin=1)
    atoms = zip(pmf.points.tolist(), pmf.probs.tolist())
    z, nu = next(atoms)
    out = nu * cont(y - z)
    for z, nu in atoms:
        out += nu * cont(y - z)
    return np.minimum(out, 1.0, out=out)


@dataclass(frozen=True, eq=False)
class SteadyStateCdf:
    """Evaluable CDF of the steady-state node state under one hypothesis:
    the head ``pmf`` over the state's table ``cont`` (``build_steady_state``),
    each query the direct sum ``mixture_cdf``.
    """

    node: int
    h: int
    pmf: DiscretePmf
    cont: ContinuousCdfTable

    @property
    def table_error(self) -> float:
        """B = max|second difference of V| / 4 + max(v_0, 1 - v_last), with
        v the table's values and V = (0, v, 1) the values its
        interpolation takes, limits included: the first term bounds the
        linear interpolation error between lattice points, the second what
        a query within one step outside the grid may miss. The head's
        weights sum to one, so every query inherits B."""
        v = np.concatenate(([0.0], self.cont.values, [1.0]))
        return float(np.abs(np.diff(v, 2)).max() / 4.0 + max(v[1], 1.0 - v[-2]))

    def __call__(self, y):
        """F(y): a float at a scalar y, else a float array of y's shape."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            return float(mixture_cdf(y.reshape(1), self.pmf, self.cont)[0])
        return mixture_cdf(y, self.pmf, self.cont)

    def mean(self) -> float:
        return self.cont.mean + self.pmf.mean()

    def std(self) -> float:
        return sqrt(self.cont.variance + self.pmf.variance())


def build_steady_state(model: ObservationModel, network: NetworkSpec, k: int,
                       h: int, mu: float, *,
                       eps_prime: float = DEFAULT_EPS_PRIME) -> SteadyStateCdf:
    """Construct the analytical steady-state CDF for node k under h.

    Neighbours with equal c_kl form a group g of n_g, whose digit level i
    adds w_g eta^i Binomial(n_g, p), w_g = c_g d. ``continuous._tabulate``
    inverts u's log-CF shifted by the messages' floor, Phi_w(a_k mu t) +
    j t sum_g n_g c_g e_0 / (1 - eta) (``_u_log_cf``), on u's lattice so
    shifted and run on by one knot and the digits' span. The digits'
    closed-form CF, one ``geometric_log_cf`` of ``_bit_log_cf`` per group,
    multiplies the kept terms. While the table would exceed
    ``_MAX_LATTICE`` knots at the first range's step, whole digit levels
    move into the exact head PMF. The table's mean and variance are
    ``state_cumulants``' kappa_1 and kappa_2 minus the head's. A head too
    large for ``discrete.convolve`` raises a ValueError naming the node, h,
    mu and the levels moved.
    """
    node = network.node_params(k, mu)
    e0, e1 = model.message_values()
    p = model.bit_probability(h)
    c, n = np.unique(node.link_weights, return_counts=True)
    w, eta = c * (e1 - e0), node.eta
    shift, span = float(n @ c) * e0 / (1.0 - eta), float(n @ w) / (1.0 - eta)
    mom = moments(model, node, h)
    mom = replace(mom, mean=mom.mean + shift, lower=mom.lower + shift)
    lo, hi = _table_range(mom)
    levels = 0

    def knots(step: float) -> int:  # reads the final levels when tabulating
        return _TABLE_POINTS + 1 + ceil(span * eta ** levels / step)

    while knots((hi - lo) / (_TABLE_POINTS - 1)) > _MAX_LATTICE:
        levels += 1
    try:
        head = convolve([DiscretePmf(np.array([0.0, wl * eta ** i]), np.array([1.0 - p, p]))
                         for i in range(levels) for wl in np.repeat(w, n)]
                        or [point_mass(0.0)])
    except ValueError as exc:
        raise ValueError(f"node {k}, h = {h}, mu = {mu}: the {levels} digit levels "
                         f"that keep the state's table within _MAX_LATTICE = "
                         f"{_MAX_LATTICE} knots make too large a head ({exc})") from exc
    bit, kappa = partial(_bit_log_cf, p), _bit_cumulants(p)

    def digits(t):
        return sum(count * geometric_log_cf(bit, kappa, pi, eta, weight * eta ** levels * t)
                   for weight, count in zip(w, n))

    own = _u_log_cf(model, node, h)
    grid, values, *series = _tabulate(lambda t: own(t) + 1j * shift * t, mom, eps_prime,
                                      knots, digits)
    kappa1, kappa2, _ = state_cumulants(model, network, k, h, mu)
    cont = _monotone_table(grid, values, kappa1 - head.mean(),
                           kappa2 - head.variance(), eps_prime, *series)
    return SteadyStateCdf(node=k, h=h, pmf=head, cont=cont)


def steady_state_pair(model: ObservationModel, network: NetworkSpec, k: int,
                      mu: float, **kwargs) -> tuple[SteadyStateCdf, SteadyStateCdf]:
    """CDFs under both hypotheses (h=0, h=1) for one node."""
    return (build_steady_state(model, network, k, 0, mu, **kwargs),
            build_steady_state(model, network, k, 1, mu, **kwargs))
