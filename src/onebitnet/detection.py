"""System-level detection metrics: P_f, P_d, threshold calibration, ROC.

The steady-state test compares the node state against a threshold gamma;
P_f = 1 - F_0(gamma) and P_d = 1 - F_1(gamma) follow directly from the
steady-state CDFs. Sweeping gamma traces the ROC. Mixture CDFs have
plateaus, so the ROC may be non-concave and an exact false-alarm target is
not always attainable; deterministic thresholds only, no randomization.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .continuous import DEFAULT_EPS_PRIME
from .simulate import EmpiricalCdf

DEFAULT_GRID_POINTS = 241
DEFAULT_SPAN_STDS = 6.0
_MONOTONE_SLACK = 1e-9
# default_gamma_grid's thresholds per head atom, in stds of the state's table
_ATOM_OFFSETS = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
_ATOM_OFFSETS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Operating points (P_f, P_d) with their generating thresholds."""

    gammas: np.ndarray
    pf: np.ndarray
    pd: np.ndarray
    node: int | None = None
    source: str = "analytical"

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        pf = np.asarray(self.pf, dtype=float)
        pd = np.asarray(self.pd, dtype=float)
        if not (g.shape == pf.shape == pd.shape) or g.ndim != 1:
            raise ValueError("gammas, pf, pd must be matching 1-D arrays")
        # one reduction per invariant, each written so that NaN fails it
        if not (g[1:] > g[:-1]).all():
            raise ValueError("thresholds must be strictly increasing")
        for name, arr in (("pf", pf), ("pd", pd)):
            if arr.size and not (arr.min() >= -1e-12 and arr.max() <= 1 + 1e-12):
                raise ValueError(f"{name} outside [0,1]")
            if (arr[1:] - arr[:-1] > _MONOTONE_SLACK).any():
                raise ValueError(f"{name} must be nonincreasing in gamma")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "pf", np.minimum(np.maximum(pf, 0.0), 1.0))
        object.__setattr__(self, "pd", np.minimum(np.maximum(pd, 0.0), 1.0))

    def pd_at_pf(self, pf_query) -> np.ndarray:
        """Upper-envelope detection probability at given false-alarm levels.

        Where the false-alarm probability plateaus (a flat CDF), several
        thresholds share one P_f; the largest attainable P_d is reported.
        An empty curve has no operating point and raises a ValueError.
        """
        if not self.pf.size:
            raise ValueError("the ROC curve is empty: no operating point to read")
        pf_query = np.asarray(pf_query, dtype=float)
        order = np.argsort(self.pf, kind="stable")
        pf_sorted = self.pf[order]
        pd_sorted = np.maximum.accumulate(self.pd[order])
        uniq, idx = np.unique(pf_sorted[::-1], return_index=True)
        # keep the max pd per unique pf
        pd_max = pd_sorted[::-1][idx]
        return np.interp(pf_query, uniq, pd_max)


def pf_pd(cdf0, cdf1, gamma: float) -> tuple[float, float]:
    """(P_f, P_d) of the threshold test at gamma."""
    return 1.0 - float(cdf0(gamma)), 1.0 - float(cdf1(gamma))


def threshold_for_pf(cdf0, target_pf: float, gammas) -> tuple[float, float]:
    """Smallest grid threshold whose false-alarm rate is at most target,
    in whatever order the grid lists its thresholds.

    Returns (gamma_star, achieved_pf); with jumpy CDFs the achieved value
    can undershoot the target, so both are reported. Raises when no
    threshold meets the target (grid too narrow) or the grid is empty.
    """
    if not 0.0 < target_pf < 1.0:
        raise ValueError("target_pf must be in (0,1)")
    gammas = np.asarray(gammas, dtype=float)
    if not gammas.size:
        raise ValueError("threshold_for_pf needs at least one threshold")
    pf = 1.0 - np.asarray(cdf0(gammas), dtype=float)
    ok = np.nonzero(pf <= target_pf)[0]
    if ok.size == 0:
        raise ValueError(
            f"false-alarm target {target_pf} unreachable on the grid "
            f"(min achievable {pf.min():.4g}); extend the threshold grid")
    i = ok[np.argmin(gammas[ok])]
    return float(gammas[i]), float(pf[i])


def roc(cdf0, cdf1, gammas, node: int | None = None) -> RocCurve:
    """Sweep thresholds over a grid and collect (P_f, P_d) pairs."""
    gammas = np.asarray(gammas, dtype=float)
    pf = 1.0 - np.asarray(cdf0(gammas), dtype=float)
    pd = 1.0 - np.asarray(cdf1(gammas), dtype=float)
    return RocCurve(gammas=gammas, pf=pf, pd=pd, node=node)


def empirical_roc(samples0, samples1, gammas, node: int | None = None) -> RocCurve:
    """ROC estimated from terminal-state ensembles under both hypotheses:
    one minus each ensemble's ``EmpiricalCdf`` at the thresholds. An empty
    ensemble raises a ValueError."""
    gammas = np.asarray(gammas, dtype=float)
    n0, n1 = np.size(samples0), np.size(samples1)
    if not (n0 and n1):
        raise ValueError(f"empirical_roc needs samples under both hypotheses, "
                         f"got {n0} under h0 and {n1} under h1")
    pf, pd = (1.0 - EmpiricalCdf(s)(gammas) for s in (samples0, samples1))
    return RocCurve(gammas=gammas, pf=pf, pd=pd, node=node, source="empirical")


def _extend_tails(cdf, lo: float, hi: float, s: float, eps: float) -> tuple[float, float]:
    """``lo`` and ``hi`` moved out by s at a time, at most 40 times, until
    the tail beyond each is at most eps. Both sides' 41 candidates, built by
    the same repeated ``lo -= s`` and ``hi += s``, are one query; each side
    takes its first candidate that meets its rule, else its 41st."""
    ends = np.full((2, 41), s)
    ends[:, 0] = lo, hi
    np.subtract.accumulate(ends[0], out=ends[0])
    np.add.accumulate(ends[1], out=ends[1])
    f = cdf(ends)
    f[:, -1] = -np.inf, np.inf  # each side's 41st candidate meets its rule
    return ends[0, np.argmax(f[0] <= eps)], ends[1, np.argmax(f[1] >= 1.0 - eps)]


def default_gamma_grid(cdf0, cdf1, points: int = DEFAULT_GRID_POINTS,
                       span_stds: float = DEFAULT_SPAN_STDS,
                       eps: float = DEFAULT_EPS_PRIME) -> np.ndarray:
    """Threshold grid covering both ``SteadyStateCdf`` distributions.

    Union of uniform grids over mean +/- span stds per hypothesis plus five
    thresholds per atom of each CDF's head ``pmf``: the atom shifted by its
    ``cont`` table's mean, and -4, -2, 2 and 4 of that table's stds around
    it, where the atom's share of the CDF rises. The range is extended until
    both tails are below eps (``_extend_tails``); one query tells whether
    mean +/- span stds already meets that, as it nearly always does.
    """
    pieces = []
    for cdf in (cdf0, cdf1):
        m, s = cdf.mean(), cdf.std()
        lo, hi = m - span_stds * s, m + span_stds * s
        f_lo, f_hi = cdf(np.array([lo, hi])).tolist()
        if f_lo > eps or f_hi < 1.0 - eps:
            lo, hi = _extend_tails(cdf, lo, hi, s, eps)
        pieces.append(np.linspace(lo, hi, points))
        offs = _ATOM_OFFSETS * max(sqrt(cdf.cont.variance), 1e-12)
        pieces.append((cdf.pmf.points[:, None] + cdf.cont.mean + offs[None, :]).ravel())
    # np.unique's sort and neighbour test, without the numpy.ma it imports
    grid = np.sort(np.concatenate(pieces))
    keep = np.ones(grid.size, dtype=bool)
    keep[1:] = grid[1:] != grid[:-1]
    return grid[keep]
