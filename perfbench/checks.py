"""Correctness checks on the program's outputs, made apart from ``onebitnet``.

Each check takes plain arrays and returns ``Check`` records; none imports
the program. Each statistical comparison is made at ``ALPHA`` = 1% / 10,000
and a run makes fewer than 100 of them, so a correct program fails one in
100 runs with probability below 1% (a Bonferroni bound, which holds however
the comparisons depend on each other).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from statistics import NormalDist

import numpy as np

ALPHA = 0.01 / 10_000
# Dvoretzky-Kiefer-Wolfowitz-Massart: P(sqrt(n) D > c) <= 2 exp(-2 c^2); the
# two-sample statistic uses n m / (n + m) in place of n (asymptotically)
KS_C = sqrt(-log(ALPHA / 2.0) / 2.0)
Z = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)

# Method error allowed on top of sampling noise when an analytic CDF is
# compared with reference draws: criterion 05's 0.02 (the program's own
# bound at mu = 0.1). Exponential node 9 under h = 1 reads 0.015 at a = 0.5.
CDF_SLACK = 0.02
# Analytic mean and std against the closed forms, in units of the closed-form
# std. The class-mean rule keeps the discrete mean exact; the rest is the
# 1,501-point continuous table and merging (worst seen: 0.0083 and 0.0037).
MOMENT_SLACK = 0.02
MONOTONE_SLACK = 1e-12
REACTION_FRACTION = 0.9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def line(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.value:.6g} (limit {self.limit:.6g})"


def _le(name: str, value: float, limit: float) -> Check:
    return Check(name, bool(value <= limit), float(value), float(limit))


def bracket_indices(n: int, stride: int) -> np.ndarray:
    """Every ``stride``-th of n sorted draws, first and last included."""
    return np.unique(np.append(np.arange(0, n, stride), n - 1))


def ks_upper(cdf_at: np.ndarray, idx: np.ndarray, n: int) -> float:
    """Upper bound on the KS distance between a CDF F and the empirical CDF
    of n sorted draws x_1..x_n, from F at the draws ``idx`` (0-based, as
    ``bracket_indices`` gives them). F is nondecreasing, so a draw between
    two evaluated ones, x_a < x_i <= x_b, has F(x_a) <= F(x_i) <= F(x_b) and
    both |i/n - F(x_i)| and |F(x_i) - (i-1)/n| are bounded by the ends; the
    bound exceeds the exact distance by about 2 stride/n."""
    f = np.asarray(cdf_at, dtype=float)
    pos = np.asarray(idx) + 1  # 1-based ranks
    exact = max(np.max(pos / n - f), np.max(f - (pos - 1) / n))
    between = max(np.max(pos[1:] / n - f[:-1]), np.max(f[1:] - pos[:-1] / n))
    return float(max(exact, between))


def ks_two_sample(x, y) -> float:
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    fx = np.searchsorted(x, both, side="right") / x.size
    fy = np.searchsorted(y, both, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_limit(n: int, m: int | None = None) -> float:
    if m is None:
        return KS_C / sqrt(n)
    return KS_C * sqrt((n + m) / (n * m))


def check_cdf(name, table_values, cdf_at, idx, n, mean, std, ref_mean, ref_std):
    """An analytic CDF: monotone in [0, 1] on its table, KS-close to n
    sorted reference draws (``cdf_at`` holds it at the draws ``idx``), and
    with the closed-form mean and std."""
    v = np.asarray(table_values, dtype=float)
    out_of_range = max(0.0, -float(v.min()), float(v.max()) - 1.0)
    drop = max(0.0, -float(np.diff(v).min()))
    return [
        _le(f"{name}/in_unit_interval", out_of_range, 0.0),
        _le(f"{name}/monotone", drop, MONOTONE_SLACK),
        _le(f"{name}/ks_reference", ks_upper(cdf_at, idx, n), ks_limit(n) + CDF_SLACK),
        _le(f"{name}/mean", abs(mean - ref_mean) / ref_std, MOMENT_SLACK),
        _le(f"{name}/std", abs(std / ref_std - 1.0), MOMENT_SLACK),
    ]


def check_roc(name, gammas, pf, pd, draws0, draws1):
    """An analytic ROC against the empirical ROC of the reference draws at
    the same thresholds: each rate is one minus a CDF, so it inherits the
    CDF's KS bound."""
    s0, s1 = np.sort(draws0), np.sort(draws1)
    pf_ref = 1.0 - np.searchsorted(s0, gammas, side="right") / s0.size
    pd_ref = 1.0 - np.searchsorted(s1, gammas, side="right") / s1.size
    return [
        _le(f"{name}/pf", float(np.max(np.abs(pf - pf_ref))), ks_limit(s0.size) + CDF_SLACK),
        _le(f"{name}/pd", float(np.max(np.abs(pd - pd_ref))), ks_limit(s1.size) + CDF_SLACK),
    ]


def check_sample(name, sample, draws, ref_mean, ref_var):
    """A simulated sample against the reference draws (two-sample KS) and
    against the closed-form mean and variance (normal-approximation tests,
    the variance's standard error taken from the sample's fourth moment)."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    dev = x - x.mean()
    m4 = float(np.mean(dev ** 4))
    var = float(np.mean(dev ** 2))
    return [
        _le(f"{name}/ks_reference", ks_two_sample(x, draws), ks_limit(n, np.size(draws))),
        _le(f"{name}/mean_z", abs(x.mean() - ref_mean) / sqrt(ref_var / n), Z),
        _le(f"{name}/var_z", abs(var - ref_var) / sqrt(max(m4 - var * var, 1e-300) / n), Z),
    ]


def check_same(name, a, b):
    """Bit-for-bit equality, e.g. of trials re-run with another chunking."""
    a, b = np.asarray(a), np.asarray(b)
    same = a.shape == b.shape and np.array_equal(a, b)
    return [Check(f"{name}/bit_identical", same, 0.0 if same else 1.0, 0.0)]


def reaction_time(traj, switch, end):
    """Steps after ``switch`` (1-based, inclusive) until the trace first
    crosses 90% of the way from the pre-switch level to the post-switch
    level; levels are means over the last quarter of each segment, at most
    200 steps. Written apart from ``onebitnet.reaction_time``."""
    traj = np.asarray(traj, dtype=float)
    w = max(1, min(200, (end - switch + 1) // 4))
    pre = traj[max(0, switch - 1 - w):switch - 1].mean()
    post = traj[end - w:end].mean()
    frac = (traj[switch - 1:end] - pre) / (post - pre)
    hits = np.flatnonzero(frac >= REACTION_FRACTION)
    return int(hits[0]) + 1 if hits.size else np.inf


def check_trajectories(trajectories: dict, reported: dict, switches, n_steps,
                       levels=None, level_sd=None):
    """Reaction times of the three schemes: recomputed here, equal to the
    program's, and ordered as the paper states (one_bit_x faster than
    quantized_state at each switch and no slower than unquantized).

    ``levels`` maps each segment end step to the closed-form mean of
    one_bit_x there; ``level_sd`` is the std of the mean over the trials.
    """
    bounds = list(switches[1:]) + [n_steps + 1]
    rt = {s: [reaction_time(t, sw, nxt - 1) for sw, nxt in zip(switches, bounds)]
          for s, t in trajectories.items()}
    out = []
    for s in trajectories:
        same = list(rt[s]) == [int(v) for v in reported[s]]
        out.append(Check(f"reaction/{s}/matches_program", same, 0.0 if same else 1.0, 0.0))
    one, qs, uq = rt["one_bit_x"], rt["quantized_state"], rt["unquantized"]
    for i, sw in enumerate(switches):
        out.append(_le(f"reaction/switch{sw}/one_bit_x_minus_quantized_state",
                       one[i] - qs[i], -1))
        out.append(_le(f"reaction/switch{sw}/one_bit_x_minus_unquantized",
                       one[i] - uq[i], 0))
    for step, level in (levels or {}).items():
        value = trajectories["one_bit_x"][step - 1]
        out.append(_le(f"trajectory/one_bit_x_level_step{step}_z",
                       abs(value - level) / level_sd[step], Z))
    return out
