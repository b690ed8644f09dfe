"""Full steady-state CDF of a node's decision state.

The steady state is the sum of the continuous component (the node's own
geometrically weighted statistics) and the discrete component (its
neighbors' one-bit messages), so its CDF is the PMF-weighted mixture

    F_y(y) = sum_i nu_i F_u(y - z_i).

Every ``SteadyStateCdf`` has this one shape: a PMF over a continuous
table. The table of F_u is exactly 0 below its grid and 1 above it; its
live part runs from its last value below 2^-64 to its first exact 1, so
``mixture_cdf`` interpolates atom i only on the band of points with
y - z_i on that part: its cost grows with the atoms in the band, not
points x atoms.

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
from math import sqrt

import numpy as np

from .continuous import (ContinuousCdfTable, DEFAULT_EPS_PRIME, moments,
                         normal_table, phi_w_coefficients, tabulate_cdf_u)
from .discrete import DEFAULT_EPS_SCALE, DiscretePmf, discrete_component, point_mass
from .models import ObservationModel
from .network import NetworkSpec, NodeParams

MODE_MIXTURE = "mixture"
MODE_GAUSSIAN_LIMIT = "gaussian_limit"

ETA_THRESHOLD = 0.97
A_THRESHOLD = 0.95


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


def mixture_cdf(y, pmf: DiscretePmf, cont_cdf: ContinuousCdfTable) -> np.ndarray:
    """Evaluate sum_i nu_i F_u(y - z_i) over each atom's band: y - z_i on the
    table's live part, from its last value below 2^-64 to its first exact 1.
    The band's edges are padded by 8 ulps of the operands, so the terms
    skipped are those below 2^-64 and those exactly 1 (counted whole)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    order = np.argsort(y, axis=None, kind="stable")
    ys = y.ravel()[order]
    z, nu, grid, vals = pmf.points, pmf.probs, cont_cdf.grid, cont_cdf.values
    lo = grid[max(np.searchsorted(vals, 2.0 ** -64) - 1, 0)]
    hi = grid[min(np.searchsorted(vals, 1.0), grid.size - 1)]
    pad = 8 * np.spacing(np.abs(z).max() + np.abs(grid[[0, -1]]).max())
    start = np.searchsorted(ys, z + (lo - pad))
    stop = np.searchsorted(ys, z + (hi + pad), side="right")
    acc = np.cumsum(np.bincount(stop, weights=nu, minlength=ys.size + 1)[:-1])
    for i in np.flatnonzero(stop > start):
        band = slice(start[i], stop[i])
        acc[band] += nu[i] * cont_cdf(ys[band] - z[i])
    acc[np.isnan(ys)] = np.nan
    out = np.empty_like(acc)
    out[order] = acc
    # clip: the weighted sum can exceed 1 by float-accumulation noise
    return np.clip(out, 0.0, 1.0).reshape(y.shape)


@dataclass(frozen=True, eq=False)
class SteadyStateCdf:
    """Evaluable CDF of the steady-state node state under one hypothesis:
    the mixture of ``cont`` shifted by each atom of ``pmf``. ``mode`` says
    which law was tabulated (``select_mode``): the paper's mixture, or the
    eta -> 1 limit normal as a point mass at 0 over a normal table."""

    node: int
    h: int
    mode: str
    pmf: DiscretePmf
    cont: ContinuousCdfTable

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = mixture_cdf(y.ravel(), self.pmf, self.cont)
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    def mean(self) -> float:
        return self.cont.mean + self.pmf.mean()

    def std(self) -> float:
        return sqrt(self.cont.variance + self.pmf.variance())


def build_steady_state(model: ObservationModel, network: NetworkSpec, k: int,
                       h: int, mu: float, *,
                       eps_prime: float = DEFAULT_EPS_PRIME,
                       eps_scale: float = DEFAULT_EPS_SCALE) -> SteadyStateCdf:
    """Construct the analytical steady-state CDF for node k under h.

    The mode is selected from the node's eta and self-weight
    (``select_mode``). In mixture mode the continuous CDF is tabulated
    once, with aliasing budget ``eps_prime``, and reused across all PMF
    shifts; the discrete component's truncation budget is ``eps_scale``
    times the continuous component's std. In the limit mode the table is
    the normal at ``limit_moments`` and the PMF a point mass at 0.
    """
    node = network.node_params(k, mu)
    mode = select_mode(node)
    if mode == MODE_GAUSSIAN_LIMIT:
        m, s = limit_moments(model, network, k, h, mu)
        return SteadyStateCdf(node=k, h=h, mode=mode, pmf=point_mass(0.0),
                              cont=normal_table(m, s * s))
    pmf = discrete_component(model, network, k, h, mu, eps_scale)
    table = tabulate_cdf_u(model, node, h, eps_prime=eps_prime)
    return SteadyStateCdf(node=k, h=h, mode=mode, pmf=pmf, cont=table)


def steady_state_pair(model: ObservationModel, network: NetworkSpec, k: int,
                      mu: float, **kwargs) -> tuple[SteadyStateCdf, SteadyStateCdf]:
    """CDFs under both hypotheses (h=0, h=1) for one node."""
    return (build_steady_state(model, network, k, 0, mu, **kwargs),
            build_steady_state(model, network, k, 1, mu, **kwargs))
