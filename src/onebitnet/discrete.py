"""Discrete state component: exact PMF algebra, then the paper's tables.

``DiscretePmf``, ``point_mass`` and ``convolve`` are exact; ``steady_state``
reads only them, for its head PMF. The rest is the paper's approximation
of each neighbour's series of +/-1 message symbols with memory factor eta,
an asymmetric Bernoulli convolution: the tables truncate it after omega
digits (the rest taking the likely value +1) and keep the patterns with at
most one (first order) or two (second order) unlikely digits, each
discarded pattern's probability folded into the kept pattern that shares
its leading unlikely digits (star aggregation). ``merge_close`` merges
close values, and ``discrete_component`` makes every approximation in
turn. They serve criteria 03-05 (``validation.check_table_oracle`` and
``check_figure_cdfs``) and the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isnan, log, sqrt

import numpy as np

from .continuous import moments
from .models import ObservationModel
from .network import NetworkSpec, NodeParams, _freeze_copy

DEFAULT_EPS_SCALE = 0.1  # the paper's eps_{k,h} = 0.1 std(u)
MAX_CONVOLUTION_POINTS = 10 ** 6

_VALUE_RULES = ("pattern", "class_mean")


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """Finite support {z_i} with probabilities {nu_i}.

    Points are strictly ascending and the probabilities sum to one. Both
    arrays are read-only copies of the caller's, in copies of the PMF too.
    The mean and variance are reduced once, when the PMF is built or
    copied.
    """

    points: np.ndarray  # strictly ascending support
    probs: np.ndarray   # matching probabilities, summing to one

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pr = np.array(self.probs, dtype=float)
        if pts.ndim != 1 or pts.shape != pr.shape or pts.size == 0:
            raise ValueError("points and probs must be matching nonempty 1-D arrays")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(pr))):
            raise ValueError("points and probs must be finite")
        if np.any(pr < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(pr.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {pr.sum()!r}, not 1")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("support points must be strictly ascending")
        pts.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)
        m = float(pts @ pr)
        object.__setattr__(self, "_mean", m)
        object.__setattr__(self, "_variance", float(((pts - m) ** 2) @ pr))

    __setstate__ = _freeze_copy

    @property
    def size(self) -> int:
        return self.points.size

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._variance

    def cdf(self, x):
        """Right-continuous staircase CDF, NaN at a NaN query."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.points, x, side="right")
        out = np.concatenate(([0.0], np.cumsum(self.probs)))[idx]
        return np.where(np.isnan(x), np.nan, out)[()]

    def map_affine(self, slope: float, shift: float) -> "DiscretePmf":
        """The PMF of shift + slope Z; at slope 0 only a single point maps."""
        pts = shift + slope * self.points
        pr = self.probs
        if slope < 0:
            pts, pr = pts[::-1], pr[::-1]
        return DiscretePmf(points=pts, probs=pr)


def point_mass(value: float) -> DiscretePmf:
    return DiscretePmf(points=np.array([value]), probs=np.array([1.0]))


def _finalize(points, probs):
    """The PMF of nonempty ``points`` and ``probs``, raveled: sorted stably
    and exactly coincident values combined."""
    points = np.asarray(points, dtype=float).ravel()
    order = np.argsort(points, kind="stable")
    points, probs = points[order], np.asarray(probs, dtype=float).ravel()[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(points) > 0)))
    return DiscretePmf(points=points[starts], probs=np.add.reduceat(probs, starts))


def convolve(pmfs) -> DiscretePmf:
    """Exact pairwise convolution. Each step takes the outer sum of the
    running PMF and the next input, sorts it stably and adds the
    probabilities of equal values. A step with more than
    MAX_CONVOLUTION_POINTS candidate points raises."""
    pmfs = list(pmfs)
    if not pmfs:
        raise ValueError("need at least one PMF")
    acc = pmfs[0]
    for nxt in pmfs[1:]:
        if acc.size * nxt.size > MAX_CONVOLUTION_POINTS:
            raise ValueError(f"convolution support would exceed the cap of "
                             f"{MAX_CONVOLUTION_POINTS} points: this step makes "
                             f"{acc.size * nxt.size}")
        acc = _finalize(acc.points[:, None] + nxt.points[None, :],
                        acc.probs[:, None] * nxt.probs[None, :])
    return acc


@dataclass(frozen=True)
class BernoulliApproxSpec:
    """Parameters of the normalized truncated-digit approximation.

    p is the probability of the likely symbol +1 (the marginal detection
    probability under h=1, one minus the false-alarm probability under
    h=0); omega is the truncation length.
    """

    p: float
    eta: float
    omega: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0,1), got {self.eta}")
        if self.omega < 1:
            raise ValueError("omega must be a positive integer")


def omega_k(model: ObservationModel, node: NodeParams, h: int,
            eps_kh: float) -> int:
    """Truncation length making the state-scale truncation error <= eps_kh.

    omega = ceil( log[(E1x - E0x) / (eps (1 - eta))] / log(1/eta) ), at
    least 1. Increasing eta at fixed eps never decreases omega.
    """
    if eps_kh <= 0:
        raise ValueError("eps_kh must be positive")
    e0, e1 = model.message_values()
    arg = (e1 - e0) / (eps_kh * (1.0 - node.eta))
    if arg <= 1.0:
        return 1
    return max(1, ceil(log(arg) / log(1.0 / node.eta)))


def table_first_order(spec: BernoulliApproxSpec) -> DiscretePmf:
    """Normalized PMF keeping patterns with at most one unlikely digit.

    Support (ascending): 1 - 2 eta^i (1-eta) for i = 0..omega-1, then 1;
    probabilities (1-p) p^i and p^omega. The aggregation classes are
    "first minus at digit i+1", so the probabilities telescope to one
    exactly; each class is represented by its printed pattern value.
    """
    p, eta, omega = spec.p, spec.eta, spec.omega
    i = np.arange(omega)
    vals = 1.0 - 2.0 * eta ** i * (1.0 - eta)
    points = np.append(vals, 1.0)
    probs = np.append((1.0 - p) * p ** i, p ** omega)
    return _finalize(points, probs)


def table_second_order(spec: BernoulliApproxSpec,
                       value_rule: str = "pattern") -> DiscretePmf:
    """Normalized PMF keeping patterns with at most two unlikely digits.

    Rows: pairs (i < j) of minus positions with value
    1 - 2 eta^i (1-eta) - 2 eta^j (1-eta) and star-aggregated probability
    (1-p)^2 p^(j-1); single-minus rows with exact probability
    (1-p) p^(omega-1); the all-plus row with p^omega: at most
    1 + omega + omega(omega-1)/2 points, as equal values combine. Rows are
    sorted, since the tabulated order is ascending only for eta below
    (sqrt(5)-1)/2.
    """
    if value_rule not in _VALUE_RULES:
        raise ValueError(f"value_rule must be one of {_VALUE_RULES}")
    p, eta, omega = spec.p, spec.eta, spec.omega
    q = 1.0 - p
    points = []
    probs = []
    for i in range(omega):
        base = 1.0 - 2.0 * eta ** i * (1.0 - eta)
        for j in range(i + 1, omega):
            v = base - 2.0 * eta ** j * (1.0 - eta)
            if value_rule == "class_mean":
                v -= 2.0 * q * (eta ** (j + 1) - eta ** omega)
            points.append(v)
            probs.append(q * q * p ** (j - 1))
        points.append(base)
        probs.append(q * p ** (omega - 1))
    points.append(1.0)
    probs.append(p ** omega)
    return _finalize(np.array(points), np.array(probs))


def merge_close(pmf: DiscretePmf, tol: float) -> DiscretePmf:
    """Aggregate support points closer together than tol > 0.

    One pass left to right grows clusters bounded in diameter by tol: a
    point opens a new cluster, as its anchor, once it is tol or further
    from the current anchor. Each cluster collapses to its
    probability-weighted mean, so every value moves by less than tol and
    the PMF mean is kept; bounding the diameter, rather than chaining,
    keeps densely spaced supports from collapsing into a single point.
    Clusters made solely of zero-probability points drop out. At tol <= 0,
    or on a single point, the PMF is returned as it is; at tol = inf it
    collapses to one point, and a NaN tol raises.
    """
    if isnan(tol):
        raise ValueError("merge tolerance is NaN")
    if tol <= 0 or pmf.size == 1:
        return pmf
    vals = pmf.points.tolist()
    starts, anchor = [0], vals[0]
    for i, x in enumerate(vals):
        if x - anchor >= tol:
            starts.append(i)
            anchor = x
    mass = np.add.reduceat(pmf.probs, starts)
    weighted = np.add.reduceat(pmf.points * pmf.probs, starts)
    keep = mass > 0
    return DiscretePmf(points=weighted[keep] / mass[keep], probs=mass[keep])


def discrete_component(model: ObservationModel, network: NetworkSpec, k: int,
                       h: int, mu: float) -> DiscretePmf:
    """The paper's PMF of the steady-state discrete component of node k,
    whose neighbours are the positive-weight entries of its row.

    omega follows from eps_{k,h} = DEFAULT_EPS_SCALE * std(u). The
    second-order table with class-mean values, which keep the mean exact,
    is merged at 2 eta^omega; under h=0 it is built with p = 1 - p_f and
    flipped in the map. Neighbour l maps z to c_kl/(1-eta) *
    [(E1x + E0x)/2 +/- (E1x - E0x)/2 * z] and merges at the state tolerance
    (E1x - E0x) eta^omega / (1-eta), as does every step of the pairwise
    convolution. A node with no neighbour gets a point mass at 0. A
    convolution too large for MAX_CONVOLUTION_POINTS raises a ValueError
    naming the node, h, mu, omega and the tolerance derived from omega.
    """
    node = network.node_params(k, mu)
    weights = node.link_weights
    if not weights.size:
        return point_mass(0.0)
    eps_kh = DEFAULT_EPS_SCALE * sqrt(moments(model, node, h).variance)
    omega = omega_k(model, node, h, eps_kh)
    p, eta = model.bit_probability(h), node.eta
    spec = BernoulliApproxSpec(p=p if h == 1 else 1.0 - p, eta=eta, omega=omega)
    table = merge_close(table_second_order(spec, "class_mean"), 2.0 * eta ** omega)
    e0, e1 = model.message_values()
    state_tol = (e1 - e0) * eta ** omega / (1.0 - eta)
    components = []
    for c in weights.tolist():
        scale = c / (1.0 - eta)
        slope = scale * (e1 - e0) / 2.0
        components.append(merge_close(table.map_affine(slope if h == 1 else -slope,
                                                       scale * (e1 + e0) / 2.0),
                                      state_tol))
    acc = components[0]
    try:
        for nxt in components[1:]:
            acc = merge_close(convolve([acc, nxt]), state_tol)
    except ValueError as exc:
        raise ValueError(f"node {k}, h = {h}, mu = {mu}: omega = {omega} digits, merged "
                         f"at the tolerance {state_tol:.6g} derived from omega, make a "
                         f"convolution support of more than {MAX_CONVOLUTION_POINTS} "
                         f"points") from exc
    return acc
