"""Acceptance suite: one test per criterion, one printed line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; the same checks back the ``onebitnet validate`` CLI command. All
tolerances are pinned here and in onebitnet.validation; Monte Carlo checks
use the fixed master seed 0.
"""
import numpy as np
import pytest

from onebitnet import validation as val

SEED = 0


def _report(results):
    for res in results:
        print(res.line())
    bad = [r for r in results if not r.passed]
    assert not bad, "failed checks:\n" + "\n".join(r.line() for r in bad)


def test_criterion_01_marginal_probabilities():
    """Analytical p_d / p_f of both shipped models at the benchmark settings."""
    _report(val.check_marginal_probabilities())


def test_criterion_02_gaussian_series_exactness():
    """The lattice Fourier series that tabulates u for non-Gaussian models,
    run on the Gaussian model, equals the closed-form normal CDF within 1e-4
    at its knots over mean +/- 5 std for mu = 0.1 and a in {0.1, 0.25, 0.5}."""
    _report(val.check_gaussian_series(quick=False))


def test_criterion_03_and_04_table_oracle_and_truncation_bound():
    """Brute-force enumeration of all 2^omega digit patterns reproduces both
    aggregation tables to 1e-14, and the truncation error stays inside
    [0, 2 eta^omega] pathwise, for omega <= 12, p in {0.67, 0.76, 0.87, 0.9},
    eta in {0.09, 0.225, 0.45}."""
    _report(val.check_table_oracle(quick=False))


def test_criterion_05_figure_level_cdf_reproduction():
    """KS distance between the exact steady-state law and a 1e4-trial,
    100-step simulation is at most 0.02 for both models, nodes 3 and 9,
    a in {0.1, 0.25, 0.5}, and both hypotheses; the paper's second-order
    star table over F_u stays within 0.02 of that law at the knots."""
    _report(val.check_figure_cdfs(quick=False, seed=SEED))


def test_criterion_06_gaussian_limit_regime():
    """mu = 0.01, a = 0.99, n = 1000: standardized node-3 terminal states
    match the limit normal plus its leading finite-eta (first-order
    Edgeworth) term, built from the closed-form skew, within KS 0.02 for
    both models and hypotheses; and a small step size alone (mu = 0.001,
    a = 0.5) leaves the leaf node 9 away from normality (KS > 0.05)."""
    _report(val.check_theorem2(quick=False, seed=SEED))


def test_criterion_07_roc_consistency_and_orderings():
    """Analytical vs empirical ROC within 0.03 at matched thresholds over
    the benchmark parameter sweeps, and the dominance orderings hold
    (larger divergence wins; the hub node beats the leaf node) with a 0.01
    margin."""
    _report(val.check_roc(quick=False, seed=SEED))


def test_criterion_08_adaptivity_ordering():
    """Reaction times over the switching schedule: fresh-statistic one-bit
    messaging beats the quantized-state variant at both switches and is not
    slower than unquantized diffusion."""
    _report(val.check_adaptivity(quick=False, seed=SEED))


def test_criterion_09_closed_form_oracle_equality():
    """Recursive stepping equals the explicit expansions to 1e-12 on 100
    random configurations (both the one-bit and the unquantized scheme)."""
    _report(val.check_closed_form_recursions(quick=False, seed=SEED))


def test_criterion_10_invariant_suite():
    """PMFs sum to one within 1e-10; steady-state CDFs are monotone in
    [0,1]; off-diagonal square sums respect their bounds on every
    constructed matrix; mixture means are additive within 1%."""
    _report(val.check_matrix_invariants(seed=SEED)
            + val.check_mixture_invariants(seed=SEED))
