"""Independent cross-checks: brute-force oracles and a pass/fail suite.

The oracles here deliberately avoid the production code paths: digit
patterns are enumerated exhaustively, the recursions are written out as
their closed-form expansions, and distributions are compared through
Kolmogorov-Smirnov distances. ``iterate_scheme`` drives the production
update kernel (``simulate.make_step``), so the closed-form expansions
check the step that ``run`` uses, and the Gaussian series check runs the
lattice Fourier series behind every table (``continuous._lattice_cdf``) on
u's log-CF against the closed form. The paper's star-table PMF is mixed
over u's table (``tabulate_cdf_u``) and held to the exact law that
``build_steady_state`` inverts from the state's own CF. The Theorem-2 check
compares against the limit normal plus its first-order Edgeworth term,
whose skew comes from closed-form cumulants. The check suite mirrors the
package's acceptance criteria and backs the ``validate`` CLI subcommand.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import pi, sqrt

import numpy as np

from .continuous import (DEFAULT_EPS_PRIME, _lattice_cdf, _u_log_cf,
                         cdf_u_gaussian_closed, moments, tabulate_cdf_u)
from .detection import RocCurve, default_gamma_grid, empirical_roc, roc
from .discrete import (BernoulliApproxSpec, DiscretePmf, discrete_component,
                       table_first_order, table_second_order)
from .models import ExponentialModel, GaussianModel, normal_cdf
from .network import NetworkSpec, build_uniform_matrix, neighbor_sets_from_edges, \
    offdiag_square_sum, reference_topology
from .simulate import (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED, SimConfig,
                       hypothesis_ensembles, ks_distance, make_step,
                       reaction_time, run)
from .steady_state import (build_steady_state, limit_moments, mixture_cdf,
                           state_cumulants, steady_state_pair)


# ---------------------------------------------------------------------------
# brute-force pattern oracles
# ---------------------------------------------------------------------------

def enumerate_truncated_pmf(p: float, eta: float, omega: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact distribution of the truncated digit sum.

    Enumerates all 2^omega sign patterns b in {+1,-1}^omega of the variable
    (1-eta) sum_i eta^(i-1) b_i + eta^omega, with P(b_i = +1) = p.
    """
    w = (1.0 - eta) * eta ** np.arange(omega)
    vals = np.empty(2 ** omega)
    probs = np.empty(2 ** omega)
    for idx, bits in enumerate(product((1.0, -1.0), repeat=omega)):
        b = np.array(bits)
        vals[idx] = w @ b + eta ** omega
        n_plus = int(np.sum(b > 0))
        probs[idx] = p ** n_plus * (1.0 - p) ** (omega - n_plus)
    order = np.argsort(vals, kind="stable")
    return vals[order], probs[order]


def aggregate_patterns(p: float, eta: float, omega: int, order: str) -> tuple[np.ndarray, np.ndarray]:
    """Star-aggregation applied to the exhaustive pattern enumeration.

    Every pattern is mapped to the representative that keeps its first one
    (``order='first'``) or two (``order='second'``) unlikely digits and
    assumes the likely digit everywhere after; probabilities accumulate per
    representative value. Agrees with the printed tables by construction
    of the aggregation rule.
    """
    w = (1.0 - eta) * eta ** np.arange(omega)
    buckets: dict[tuple, float] = {}
    rep_value: dict[tuple, float] = {}
    for bits in product((1.0, -1.0), repeat=omega):
        b = np.array(bits)
        minus = np.nonzero(b < 0)[0]
        keep = 1 if order == "first" else 2
        key = tuple(minus[:keep])
        if key not in rep_value:
            rep = np.ones(omega)
            rep[list(key)] = -1.0
            rep_value[key] = float(w @ rep + eta ** omega)
        n_plus = int(np.sum(b > 0))
        buckets[key] = buckets.get(key, 0.0) + p ** n_plus * (1.0 - p) ** (omega - n_plus)
    vals = np.array([rep_value[k] for k in buckets])
    probs = np.array([buckets[k] for k in buckets])
    o = np.argsort(vals, kind="stable")
    return vals[o], probs[o]


# ---------------------------------------------------------------------------
# closed-form recursion oracles
# ---------------------------------------------------------------------------

def explicit_one_bit_state(network: NetworkSpec, model, mu: float, k: int,
                           x: np.ndarray, y0: np.ndarray) -> float:
    """Direct expansion of the one-bit recursion after n steps.

    y_k(n) = eta^n y_k(0) + mu a_k sum_i eta^(i-1) x_k(n-i+1)
             + sum_i sum_l eta^(i-1) c_kl xt_l(n-i+1),

    evaluated on the provided draws x of shape (n, S).
    """
    n, S = x.shape
    a_k = network.self_weight(k)
    eta = (1.0 - mu) * a_k
    c_row = network.A[k].copy()
    c_row[k] = 0.0
    e0, e1 = model.message_values()
    msg = np.where(x >= 0.0, e1, e0)
    i = np.arange(1, n + 1)
    weights = eta ** (i - 1.0)
    own = mu * a_k * float(weights @ x[::-1][:, k])
    nbr = float(weights @ (msg[::-1] @ c_row))
    return eta ** n * float(y0[k]) + own + nbr


def unquantized_matrix_state(network: NetworkSpec, mu: float, x: np.ndarray,
                             y0: np.ndarray) -> np.ndarray:
    """Matrix closed form of classical diffusion after n steps.

    y_n = (1-mu)^n A^n y_0 + mu sum_i (1-mu)^i A^(i+1) x_{n-i}.
    """
    n, S = x.shape
    A = network.A
    acc = np.linalg.matrix_power(A, n) @ y0 * (1.0 - mu) ** n
    Ai = A.copy()
    for i in range(n):
        acc = acc + mu * (1.0 - mu) ** i * (Ai @ x[n - 1 - i])
        Ai = Ai @ A
    return acc


def iterate_scheme(network: NetworkSpec, model, mu: float, scheme: str,
                   x: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Step the production kernel of the chosen scheme over the provided
    draws x of shape (n, S), n steps of one trial, starting from y0: the
    state after the last step."""
    step = make_step(network, model, mu, scheme)
    tile = np.asarray(x, dtype=float)[:, None]
    return step(np.asarray(y0, dtype=float), tile)[-1, 0]


# ---------------------------------------------------------------------------
# check suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    statistic: float
    tolerance: float
    detail: str = ""
    noise: float | None = None  # KS checks: 95% noise floor at the draw count

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        noise = "" if self.noise is None else f"noise={self.noise:.4g} "
        return (f"[{status}] {self.name}: stat={self.statistic:.6g} "
                f"tol={self.tolerance:.6g} {noise}{self.detail}".rstrip())


# KS distance quantile: with n draws from the reference law, the distance
# stays below _KS_95 / sqrt(n) with probability ~0.95
_KS_95 = 1.358


def _result(name, stat, tol, detail="", larger_is_fail=True, ks_draws=None):
    ok = stat <= tol if larger_is_fail else stat >= tol
    noise = None if ks_draws is None else _KS_95 / sqrt(ks_draws)
    return CheckResult(name=name, passed=bool(ok), statistic=float(stat),
                       tolerance=float(tol), detail=detail, noise=noise)


def check_marginal_probabilities() -> list[CheckResult]:
    g = GaussianModel(1.0)
    e = ExponentialModel(5.0)
    return [
        _result("marginal/gaussian_pd", abs(g.p_d - 0.760), 0.005,
                f"p_d={g.p_d:.4f}"),
        _result("marginal/gaussian_symmetry", abs(g.p_d - (1 - g.p_f)), 1e-12),
        _result("marginal/exponential_1mpf", abs((1 - e.p_f) - 0.866), 0.005,
                f"1-p_f={1 - e.p_f:.4f}"),
        _result("marginal/exponential_pd", abs(e.p_d - 0.669), 0.005,
                f"p_d={e.p_d:.4f}"),
    ]


def check_gaussian_series(quick: bool = False) -> list[CheckResult]:
    model = GaussianModel(1.0)
    worst = 0.0
    a_values = (0.25,) if quick else (0.1, 0.25, 0.5)
    for a in a_values:
        net = build_uniform_matrix(reference_topology(), a)
        node = net.node_params(3, 0.1)
        for h in (0, 1):
            mom = moments(model, node, h)
            sd = sqrt(mom.variance)
            lo, n = mom.mean - 5 * sd, 21 if quick else 101
            # the lattice series behind every table, on u's log-CF
            series = _lattice_cdf(_u_log_cf(model, node, h), lo, 10 * sd / (n - 1), n,
                                  DEFAULT_EPS_PRIME)[0]
            closed = cdf_u_gaussian_closed(np.linspace(lo, lo + 10 * sd, n), model,
                                           node, h)
            worst = max(worst, float(np.max(np.abs(series - closed))))
    return [_result("continuous/gaussian_series_vs_closed", worst, 1e-4)]


def check_table_oracle(quick: bool = False) -> list[CheckResult]:
    omegas = range(1, 9 if quick else 13)
    worst_first = worst_second = 0.0
    worst_bound = 0.0
    for omega in omegas:
        for p in (0.67, 0.76, 0.87, 0.9):
            for eta in (0.09, 0.225, 0.45):
                spec = BernoulliApproxSpec(p=p, eta=eta, omega=omega)
                for order in ("first", "second"):
                    if order == "first":
                        got = table_first_order(spec)
                    else:
                        got = table_second_order(spec, merge=False)
                    ref_v, ref_p = aggregate_patterns(p, eta, omega, order)
                    err = _pmf_mismatch(got, ref_v, ref_p)
                    if order == "first":
                        worst_first = max(worst_first, err)
                    else:
                        worst_second = max(worst_second, err)
                # truncation bound: zhat - z in [0, 2 eta^omega] pathwise
                worst_bound = max(worst_bound, _truncation_violation(eta, omega))
    return [
        _result("discrete/table_first_vs_enumeration", worst_first, 1e-14),
        _result("discrete/table_second_vs_enumeration", worst_second, 1e-14),
        _result("discrete/truncation_bound_violation", worst_bound, 1e-12),
    ]


def _pmf_mismatch(pmf: DiscretePmf, ref_vals, ref_probs) -> float:
    if pmf.size != len(ref_vals):
        return np.inf
    return float(max(np.max(np.abs(pmf.points - ref_vals)),
                     np.max(np.abs(pmf.probs - ref_probs))))


def _truncation_violation(eta: float, omega: int) -> float:
    """Pathwise check of 0 <= zhat - z <= 2 eta^omega over all patterns and
    the extremal tail continuations."""
    w = (1.0 - eta) * eta ** np.arange(omega)
    bound = 2.0 * eta ** omega
    worst = 0.0
    for bits in product((1.0, -1.0), repeat=omega):
        b = np.array(bits)
        prefix = float(w @ b)
        zhat = prefix + eta ** omega
        z_hi = prefix + eta ** omega   # all-plus tail
        z_lo = prefix - eta ** omega   # all-minus tail
        for z in (z_hi, z_lo):
            diff = zhat - z
            worst = max(worst, -diff, diff - bound)
    return worst


def check_closed_form_recursions(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n_configs = 10 if quick else 100
    worst_one_bit = worst_unquantized = 0.0
    for _ in range(n_configs):
        S = int(rng.integers(3, 8))
        extra = [(int(i), int(j)) for i in range(S) for j in range(i + 1, S)
                 if rng.random() < 0.5]
        ring = [(i, (i + 1) % S) for i in range(S)]
        neighbors = neighbor_sets_from_edges(S, ring + extra)
        a = rng.uniform(0.1, 0.9, S)
        net = build_uniform_matrix(neighbors, a)
        mu = float(rng.uniform(0.02, 0.4))
        model = GaussianModel(float(rng.uniform(0.3, 3.0))) if rng.random() < 0.5 \
            else ExponentialModel(float(rng.uniform(1.5, 8.0)))
        n = int(rng.integers(1, 25))
        h = int(rng.integers(0, 2))
        x = model.sample(h, rng, (n, S))
        y0 = rng.normal(0.0, 1.0, S)
        y_iter = iterate_scheme(net, model, mu, ONE_BIT_X, x, y0)
        for k in range(S):
            ref = explicit_one_bit_state(net, model, mu, k, x, y0)
            worst_one_bit = max(worst_one_bit, abs(y_iter[k] - ref))
        y_iter_u = iterate_scheme(net, model, mu, UNQUANTIZED, x, y0)
        ref_u = unquantized_matrix_state(net, mu, x, y0)
        worst_unquantized = max(worst_unquantized, float(np.max(np.abs(y_iter_u - ref_u))))
    return [
        _result("simulate/one_bit_vs_explicit_form", worst_one_bit, 1e-12),
        _result("simulate/unquantized_vs_matrix_form", worst_unquantized, 1e-12),
    ]


def check_matrix_invariants(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_row = worst_bound = 0.0
    specs = [build_uniform_matrix(reference_topology(), a) for a in (0.1, 0.25, 0.5, 0.9)]
    for _ in range(20):
        S = int(rng.integers(2, 12))
        ring = [(i, (i + 1) % S) for i in range(S)]
        extra = [(int(i), int(j)) for i in range(S) for j in range(i + 1, S)
                 if rng.random() < 0.3]
        specs.append(build_uniform_matrix(neighbor_sets_from_edges(S, ring + extra),
                                          rng.uniform(0.05, 1.0, S)))
    for spec in specs:
        S = spec.size
        for k in range(S):
            row_err = abs(spec.A[k].sum() - 1.0)
            worst_row = max(worst_row, row_err)
            a_k = spec.self_weight(k)
            ssq = offdiag_square_sum(spec, k)
            lo = (1.0 - a_k) ** 2 / (S - 1) if S > 1 else 0.0
            hi = (1.0 - a_k)
            worst_bound = max(worst_bound, lo - ssq, ssq - hi)
    return [
        _result("network/row_sums", worst_row, 1e-12),
        _result("network/offdiag_square_sum_bounds", worst_bound, 1e-12),
    ]


def check_figure_cdfs(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    """Analytical steady-state CDFs vs Monte Carlo, at the benchmark
    settings (both models, nodes 3 and 9, three self-weights, both
    hypotheses), and the paper's star table over F_u against each CDF."""
    trials = 10 ** 3 if quick else 10 ** 4
    # tolerance = KS noise quantile at the trial count plus approximation slack
    tol = 0.07 if quick else 0.02
    combos_a = (0.25,) if quick else (0.1, 0.25, 0.5)
    models = [GaussianModel(1.0), ExponentialModel(5.0)]
    if quick:
        models = models[:1]
    results = []
    for model in models:
        for a in combos_a:
            net = build_uniform_matrix(reference_topology(), a)
            terminal = hypothesis_ensembles(net, model, 0.1, 100, trials, seed)
            for h in (0, 1):
                for k in (3, 9):
                    cdf = build_steady_state(model, net, k, h, 0.1)
                    tag = f"{model.__class__.__name__}_a{a}_h{h}_node{k}"
                    ks = ks_distance(terminal[h][:, k], cdf)
                    results.append(_result(
                        f"steady_state/ks_{tag}", ks, tol,
                        f"trials={trials} table_error={cdf.table_error:.2g}",
                        ks_draws=trials))
                    pmf = discrete_component(model, net, k, h, 0.1)
                    u = tabulate_cdf_u(model, net.node_params(k, 0.1), h)
                    # the exact law's knots and a u-step lattice over the paper's PMF
                    step = (u.grid[-1] - u.grid[0]) / (u.grid.size - 1)
                    lattice = pmf.points[0] + u.grid[0] + step * np.arange(
                        -1, (pmf.points[-1] - pmf.points[0]) / step + u.grid.size + 1)
                    knots = np.concatenate([(cdf.pmf.points[:, None] + cdf.cont.grid).ravel(),
                                            lattice])
                    results.append(_result(f"steady_state/paper_sup_{tag}", np.max(np.abs(
                        mixture_cdf(knots, pmf, u) - cdf(knots))), 0.02,
                        "sup|F_paper - F| at the knots"))
    return results


def limit_skewness(model, network: NetworkSpec, k: int, h: int, mu: float) -> float:
    """Standardised skew gamma = kappa_3 / kappa_2^1.5 of the node-k steady
    state (``state_cumulants``); it vanishes as eta -> 1."""
    _, kappa2, kappa3 = state_cumulants(model, network, k, h, mu)
    return kappa3 / kappa2 ** 1.5


def edgeworth_cdf(gamma: float):
    """Standard normal CDF plus its first-order Edgeworth term,
    F(z) = Phi(z) - (gamma/6)(z^2-1)phi(z), clipped to [0, 1]."""
    def cdf(z):
        z = np.asarray(z, dtype=float)
        pdf = np.exp(-0.5 * z * z) / sqrt(2.0 * pi)
        return np.clip(normal_cdf(z) - gamma / 6.0 * (z * z - 1.0) * pdf, 0.0, 1.0)
    return cdf


def check_theorem2(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    """Theorem-2 regime: normality needs eta -> 1, small mu is not enough.

    At mu = 0.01, a = 0.99 (eta = 0.9801), n = 1000 steps, the
    standardised node-3 state is compared with the limit normal plus its
    leading finite-eta term, the first-order Edgeworth law built from the
    closed-form skew (``limit_skewness``); that term vanishes as eta -> 1.
    Each line also reports the KS distance to the plain normal, the gap
    |gamma| phi(0)/6 the skew alone predicts, and the 95% KS noise floor.

    The guard runs mu = 0.001, a = 0.5 and requires the leaf node 9 to stay
    away from the plain normal: its single neighbour leaves an asymmetric
    Bernoulli convolution in the state. The hub, node 3, is reported
    alongside; its five neighbours already make the discrete part nearly
    normal, so it does not test the claim.
    """
    trials = 2000 if quick else 10 ** 4
    n = 1000
    results = []
    for model in (GaussianModel(1.0), ExponentialModel(5.0)):
        net = build_uniform_matrix(reference_topology(), 0.99)
        terminal = hypothesis_ensembles(net, model, 0.01, n, trials, seed)
        for h in (0, 1):
            m, s = limit_moments(model, net, 3, h, 0.01)
            z = (terminal[h][:, 3] - m) / s
            gamma = limit_skewness(model, net, 3, h, 0.01)
            ks = ks_distance(z, edgeworth_cdf(gamma))
            plain = ks_distance(z, normal_cdf)
            gap = abs(gamma) / sqrt(2.0 * pi) / 6.0
            detail = (f"n={n} trials={trials} ks_plain_normal={plain:.4f} "
                      f"predicted_gap={gap:.4f}")
            results.append(_result(
                f"limit/normality_{model.__class__.__name__}_h{h}", ks,
                0.035 if quick else 0.02, detail, ks_draws=trials))
        if quick:
            break
    # small step size alone must NOT give normality
    net = build_uniform_matrix(reference_topology(), 0.5)
    model = GaussianModel(1.0)
    cfg = SimConfig(network=net, model=model, mu=0.001, n_iters=200,
                    trials=trials, schedule=((1, 1),), seed=seed)
    ens = run(cfg)
    ks = {}
    for k in (3, 9):
        m, s = limit_moments(model, net, k, 1, 0.001)
        ks[k] = ks_distance((ens.terminal_states[:, k] - m) / s, normal_cdf)
    results.append(_result(
        "limit/non_normality_guard", ks[9], 0.05,
        f"node=9 small mu, moderate a; node3_ks={ks[3]:.4f}",
        larger_is_fail=False, ks_draws=trials))
    return results


def check_roc(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    trials = 10 ** 3 if quick else 10 ** 4
    tol = 0.08 if quick else 0.03
    results = []
    combos = [(GaussianModel(0.1), 0.25)] if quick else [
        (GaussianModel(rho), a) for rho in (0.1, 0.5) for a in (0.1, 0.25)
    ] + [(ExponentialModel(lam), a) for lam in (5.0, 8.0) for a in (0.1, 0.25)]
    curves: dict[tuple, RocCurve] = {}
    for model, a in combos:
        net = build_uniform_matrix(reference_topology(), a)
        terminal = hypothesis_ensembles(net, model, 0.1, 100, trials, seed)
        for k in (3, 9):
            cdf0, cdf1 = steady_state_pair(model, net, k, 0.1)
            grid = default_gamma_grid(cdf0, cdf1)
            ana = roc(cdf0, cdf1, grid, node=k)
            emp = empirical_roc(terminal[0][:, k], terminal[1][:, k], grid,
                                node=k)
            worst = float(max(np.max(np.abs(ana.pd - emp.pd)),
                              np.max(np.abs(ana.pf - emp.pf))))
            label = f"{model!r}_a{a}_node{k}"
            results.append(_result(f"roc/match_{label}", worst, tol,
                                   f"trials={trials}"))
            curves[(repr(model), a, k)] = ana
    if not quick:
        margin = 0.01
        pf_grid = np.linspace(0.02, 0.98, 49)
        worst_rho = 0.0
        for a in (0.1, 0.25):
            for k in (3, 9):
                hi = curves[(repr(GaussianModel(0.5)), a, k)]
                lo = curves[(repr(GaussianModel(0.1)), a, k)]
                worst_rho = max(worst_rho, float(np.max(
                    lo.pd_at_pf(pf_grid) - hi.pd_at_pf(pf_grid))))
        results.append(_result("roc/dominance_rho", worst_rho, margin))
        worst_node = 0.0
        for (mrepr, a, k), curve in curves.items():
            if k != 3:
                continue
            other = curves.get((mrepr, a, 9))
            if other is None:
                continue
            worst_node = max(worst_node, float(np.max(
                other.pd_at_pf(pf_grid) - curve.pd_at_pf(pf_grid))))
        results.append(_result("roc/dominance_node3_over_node9", worst_node, margin))
    return results


def check_adaptivity(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    model = GaussianModel(2.0)
    net = build_uniform_matrix(reference_topology(), 0.75)
    trials = 30 if quick else 100
    schedule = ((1, 0), (1001, 1), (2001, 0))
    times = {}
    for scheme in (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED):
        cfg = SimConfig(network=net, model=model, mu=0.1, n_iters=3000,
                        trials=trials, scheme=scheme, schedule=schedule,
                        seed=seed)
        ens = run(cfg, trajectory_nodes=(3,))
        traj = ens.trajectories[3]
        times[scheme] = (reaction_time(traj, 1001, post_end=2000),
                         reaction_time(traj, 2001))
    ok_qs = all(times[ONE_BIT_X][i] < times[QUANTIZED_STATE][i] for i in (0, 1))
    ok_uq = all(times[ONE_BIT_X][i] <= times[UNQUANTIZED][i] for i in (0, 1))
    detail = f"one_bit={times[ONE_BIT_X]} quantized_state={times[QUANTIZED_STATE]} unquantized={times[UNQUANTIZED]}"
    return [
        CheckResult("adaptivity/one_bit_faster_than_quantized_state",
                    ok_qs, 0.0, 0.0, detail),
        CheckResult("adaptivity/one_bit_not_slower_than_unquantized",
                    ok_uq, 0.0, 0.0, detail),
    ]


def check_mixture_invariants(seed: int = 0) -> list[CheckResult]:
    results = []
    worst_pmf = worst_mono = worst_mean = 0.0
    for model in (GaussianModel(1.0), ExponentialModel(5.0)):
        for a in (0.1, 0.5):
            net = build_uniform_matrix(reference_topology(), a)
            for (k, h) in ((3, 0), (9, 1)):
                cdf = build_steady_state(model, net, k, h, 0.1)
                worst_pmf = max(worst_pmf, abs(cdf.pmf.probs.sum() - 1.0))
                m, s = cdf.mean(), cdf.std()
                ys = np.linspace(m - 6 * s, m + 6 * s, 501)
                vals = cdf(ys)
                worst_mono = max(worst_mono, float(np.max(np.maximum(0, -np.diff(vals)))))
                # the mean read off F alone (Stieltjes sum of y dF on a grid
                # widened until F < 1e-6 and F > 1 - 1e-6 at its ends) against
                # kappa_1, which cdf.mean() is by construction
                lo, hi = m - 6 * s, m + 6 * s
                while cdf(lo) >= 1e-6 or cdf(hi) <= 1.0 - 1e-6:
                    lo, hi = lo - (hi - lo), hi + (hi - lo)
                ys = np.linspace(lo, hi, 20001)
                integrated = float(0.5 * (ys[:-1] + ys[1:]) @ np.diff(cdf(ys)))
                expected = state_cumulants(model, net, k, h, 0.1)[0]
                scale = max(abs(expected), 1e-9)
                worst_mean = max(worst_mean, abs(integrated - expected) / scale)
    results.append(_result("steady_state/pmf_total_probability", worst_pmf, 1e-10))
    results.append(_result("steady_state/cdf_monotone", worst_mono, 1e-12))
    results.append(_result("steady_state/mixture_mean_additivity", worst_mean, 0.01))
    return results


def run_checks(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    """Full invariant/oracle suite (used by the CLI ``validate`` command)."""
    results = []
    results += check_marginal_probabilities()
    results += check_matrix_invariants(seed)
    results += check_gaussian_series(quick)
    results += check_table_oracle(quick)
    results += check_closed_form_recursions(quick, seed)
    results += check_mixture_invariants(seed)
    results += check_figure_cdfs(quick, seed)
    results += check_theorem2(quick, seed)
    results += check_roc(quick, seed)
    results += check_adaptivity(quick, seed)
    return results
