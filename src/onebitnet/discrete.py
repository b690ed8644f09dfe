"""Discrete state component: PMFs of truncated one-bit message sums.

Each neighbor contributes a geometric series of normalized +/-1 message
symbols with memory factor eta, i.e. an asymmetric Bernoulli convolution.
The paper approximates it by truncating the series after omega digits
(assuming the remaining digits take the likely value +1) and compressing
the 2^omega digit patterns to the patterns with at most one (first order)
or two (second order) unlikely digits; every discarded pattern's
probability is folded into the retained pattern that shares its leading
unlikely digits (star aggregation). Affine mapping to the state scale and
cross-neighbor convolution with value merging yield the PMF of the full
discrete component; ``discrete_component`` uses the second-order table
with class-mean values.

``steady_state`` reads only ``DiscretePmf``, ``point_mass`` and exact
``convolve`` (merge_tol = 0), for its head PMF. The star tables,
``merge_close`` and ``discrete_component`` serve the acceptance criteria
03-05 (``validation.check_table_oracle`` and ``check_figure_cdfs``) and
the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, sqrt

import numpy as np

from .continuous import _freeze_copy, moments
from .models import ObservationModel
from .network import NetworkSpec, NodeParams

DEFAULT_EPS_SCALE = 0.1  # the paper's eps_{k,h} = 0.1 std(u)
MAX_CONVOLUTION_POINTS = 10 ** 6

_VALUE_RULES = ("pattern", "class_mean")


@dataclass(frozen=True, eq=False)
class DiscretePmf:
    """Finite support {z_i} with probabilities {nu_i}.

    Points are strictly ascending and the probabilities sum to one.
    Merging at ``merge_tol`` (0 when never merged) moved no original value
    by ``merge_tol`` or more and kept the mean; neighbouring points may
    still lie closer than it, as each cluster collapses to its weighted
    mean. Both arrays are read-only copies of the caller's, in copies of
    the PMF too.
    """

    points: np.ndarray      # strictly ascending support
    probs: np.ndarray       # matching probabilities, summing to one
    merge_tol: float = 0.0  # aggregation resolution: no original value was
                            # displaced by this much or more (0: never merged)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pr = np.array(self.probs, dtype=float)
        if pts.ndim != 1 or pts.shape != pr.shape or pts.size == 0:
            raise ValueError("points and probs must be matching nonempty 1-D arrays")
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

    __setstate__ = _freeze_copy

    @property
    def size(self) -> int:
        return self.points.size

    def mean(self) -> float:
        return float(self.points @ self.probs)

    def variance(self) -> float:
        m = self.mean()
        return float(((self.points - m) ** 2) @ self.probs)

    def cdf(self, x):
        """Right-continuous staircase CDF."""
        idx = np.searchsorted(self.points, np.asarray(x, dtype=float), side="right")
        return np.concatenate(([0.0], np.cumsum(self.probs)))[idx]

    def map_affine(self, slope: float, shift: float) -> "DiscretePmf":
        if slope == 0:
            return point_mass(shift)
        pts = shift + slope * self.points
        pr = self.probs
        if slope < 0:
            pts, pr = pts[::-1], pr[::-1]
        return DiscretePmf(points=pts, probs=pr, merge_tol=abs(slope) * self.merge_tol)


def point_mass(value: float) -> DiscretePmf:
    return DiscretePmf(points=np.array([value]), probs=np.array([1.0]))


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


def _finalize(points, probs):
    """Sort ascending and combine exactly coincident values."""
    points = np.asarray(points, dtype=float)
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(points, kind="stable")
    return _combine_sorted(points[order], probs[order])


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


def table_second_order(spec: BernoulliApproxSpec, value_rule: str = "pattern",
                       merge: bool = True) -> DiscretePmf:
    """Normalized PMF keeping patterns with at most two unlikely digits.

    Rows: pairs (i < j) of minus positions with value
    1 - 2 eta^i (1-eta) - 2 eta^j (1-eta) and star-aggregated probability
    (1-p)^2 p^(j-1); single-minus rows with exact probability
    (1-p) p^(omega-1); the all-plus row with p^omega. Support size before
    merging is 1 + omega + omega(omega-1)/2; values closer than
    2 eta^omega are then merged (probability-weighted mean) unless
    ``merge=False``. Rows are sorted, since the tabulated order is
    ascending only for eta below (sqrt(5)-1)/2.
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
    pmf = _finalize(np.array(points), np.array(probs))
    if not merge:
        return pmf
    return merge_close(pmf, 2.0 * eta ** omega)


def merge_close(pmf: DiscretePmf, tol: float) -> DiscretePmf:
    """Aggregate support points closer together than tol > 0.

    One pass left to right grows clusters bounded in diameter by tol: a
    point opens a new cluster, as its anchor, once it is tol or further
    from the current anchor. Each cluster collapses to its
    probability-weighted mean, so every value moves by less than tol and
    the PMF mean is kept; bounding the diameter, rather than chaining,
    keeps densely spaced supports from collapsing into a single point.
    Clusters made solely of zero-probability points drop out. At tol <= 0,
    or on a single point, the PMF is returned as it is.
    """
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
    return DiscretePmf(points=weighted[keep] / mass[keep], probs=mass[keep],
                       merge_tol=tol)


def neighbor_component_pmf(zhat: DiscretePmf, model: ObservationModel,
                           node: NodeParams, ell: int, h: int) -> DiscretePmf:
    """Map a normalized neighbor PMF to the state scale.

    z maps to c_kl/(1-eta) * [ (E1x + E0x)/2 + (E1x - E0x)/2 * z ]; the
    normalized endpoints -1/+1 land on c_kl E0x/(1-eta) and
    c_kl E1x/(1-eta).
    """
    if ell == node.k:
        raise ValueError("ell must be a neighbor, not the node itself")
    c = float(node.c_row[ell])
    if c <= 0:
        raise ValueError(f"node {node.k} has no link weight toward {ell}")
    e0, e1 = model.message_values()
    scale = c / (1.0 - node.eta)
    return zhat.map_affine(slope=scale * (e1 - e0) / 2.0,
                           shift=scale * (e1 + e0) / 2.0)


def convolve(pmfs, merge_tol: float) -> DiscretePmf:
    """Pairwise convolution with value merging after every step.

    Each input is first merged at merge_tol (``merge_close``), which bounds
    intermediate support sizes. Each step takes the outer sum of the
    running PMF and the next input, sorts it stably, adds the
    probabilities of equal values and merges the result at merge_tol; at
    merge_tol = 0 merging is a no-op and the convolution is exact. A step
    with more than MAX_CONVOLUTION_POINTS candidate points raises.
    """
    pmfs = [merge_close(p, merge_tol) for p in pmfs]
    if not pmfs:
        raise ValueError("need at least one PMF")
    acc = pmfs[0]
    for nxt in pmfs[1:]:
        if acc.size * nxt.size > MAX_CONVOLUTION_POINTS:
            advice = "; increase the merge tolerance" if merge_tol > 0 else ""
            raise ValueError(f"convolution support would exceed "
                             f"{MAX_CONVOLUTION_POINTS} points{advice}")
        pts = (acc.points[:, None] + nxt.points[None, :]).ravel()
        pr = (acc.probs[:, None] * nxt.probs[None, :]).ravel()
        order = np.argsort(pts, kind="stable")
        acc = merge_close(_combine_sorted(pts[order], pr[order]), merge_tol)
    return acc


def _combine_sorted(points, probs):
    """Collapse exactly equal support points (sorted input)."""
    if points.size == 0:
        raise ValueError("empty support")
    new = np.concatenate(([True], np.diff(points) > 0))
    starts = np.flatnonzero(new)
    mass = np.add.reduceat(probs, starts)
    return DiscretePmf(points=points[starts], probs=mass)


def discrete_component(model: ObservationModel, network: NetworkSpec, k: int,
                       h: int, mu: float) -> DiscretePmf:
    """End-to-end PMF of the steady-state discrete component of node k.

    Pipeline: truncation length from the error budget
    eps_{k,h} = DEFAULT_EPS_SCALE * std(u) -> second-order table with class-mean
    values, which keep the PMF mean exact (under h=0 the table is built on
    the sign-flipped variable with p = 1 - p_f and then negated) ->
    per-neighbor affine map -> convolution across neighbors with
    state-scale merging.

    A node whose only neighbor is itself contributes nothing: the result
    is a point mass at 0.
    """
    node = network.node_params(k, mu)
    neighbors = sorted(set(network.neighbors[k]) - {k})
    if not neighbors:
        return point_mass(0.0)
    eps_kh = DEFAULT_EPS_SCALE * sqrt(moments(model, node, h).variance)
    omega = omega_k(model, node, h, eps_kh)
    p = model.p_d if h == 1 else 1.0 - model.p_f
    spec = BernoulliApproxSpec(p=p, eta=node.eta, omega=omega)
    table = table_second_order(spec, "class_mean")
    if h == 0:
        table = table.map_affine(slope=-1.0, shift=0.0)
    e0, e1 = model.message_values()
    state_tol = (e1 - e0) * node.eta ** omega / (1.0 - node.eta)
    components = [neighbor_component_pmf(table, model, node, ell, h)
                  for ell in neighbors]
    return convolve(components, merge_tol=state_tol)
