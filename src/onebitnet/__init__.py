"""Distributed binary detection over adaptive networks with one-bit messaging.

Library layout:

* ``network``      - agent graphs and combination matrices
* ``models``       - observation models (Gaussian / exponential LLR),
                     each sampled as an affine map of a standard variate,
                     and their one-bit message levels
* ``continuous``   - steady-state CDF of the continuous state component: a
                     lattice Fourier series of its log-characteristic function
* ``discrete``     - PMFs and their convolution, exact for the state's
                     head; the paper's star-aggregated message tables and
                     ``merge_close`` serve criteria 03-05 and the tests
* ``steady_state`` - exact CDF of the full state: one lattice series of
                     the continuous component's log-CF times the
                     messages' closed-form CF
* ``simulate``     - the tile kernel of the diffusion recursions (with the
                     one-bit quantizer), which steps a tile of draws at
                     once, and the Monte Carlo engine: each trial draws
                     its standard variates in one call per tile, and each
                     tile segment takes one affine map. Its blocks follow
                     from the run's shape: a large run splits them evenly
                     with one forked child, and the output is the same
                     either way
* ``detection``    - P_f/P_d, threshold calibration, ROC curves
* ``validation``   - brute-force oracles and the pass/fail check suite
* ``cli``          - experiment driver (cdf / roc / adapt / validate)
"""

from .continuous import (ContinuousCdfTable, ContinuousMoments, cdf_u,
                         cdf_u_gaussian_closed, moments, tabulate_cdf_u)
from .detection import RocCurve, default_gamma_grid, empirical_roc, pf_pd, \
    roc, threshold_for_pf
from .discrete import (BernoulliApproxSpec, DiscretePmf, convolve,
                       discrete_component, merge_close, neighbor_component_pmf,
                       omega_k, table_first_order, table_second_order)
from .models import (ExponentialModel, GaussianModel, ObservationModel,
                     cumulant_check)
from .network import (NetworkSpec, NodeParams, build_uniform_matrix,
                      from_matrix, neighbor_sets_from_edges, offdiag_square_sum,
                      reference_topology)
from .simulate import (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED, EmpiricalCdf,
                       SimConfig, TrialEnsemble, empirical_cdf, ks_distance,
                       make_step, reaction_time, run)
from .steady_state import (SteadyStateCdf, build_steady_state, limit_moments,
                           mixture_cdf, state_cumulants, steady_state_pair)

__version__ = "0.1.0"

__all__ = [
    "BernoulliApproxSpec", "ContinuousCdfTable", "ContinuousMoments",
    "DiscretePmf", "EmpiricalCdf", "ExponentialModel", "GaussianModel",
    "NetworkSpec", "NodeParams", "ONE_BIT_X", "ObservationModel",
    "QUANTIZED_STATE", "RocCurve", "SimConfig", "SteadyStateCdf",
    "TrialEnsemble", "UNQUANTIZED", "build_steady_state",
    "build_uniform_matrix", "cdf_u", "cdf_u_gaussian_closed",
    "convolve", "cumulant_check", "default_gamma_grid", "discrete_component",
    "empirical_cdf", "empirical_roc", "from_matrix",
    "ks_distance", "limit_moments", "make_step", "merge_close", "mixture_cdf",
    "moments", "neighbor_component_pmf", "neighbor_sets_from_edges",
    "offdiag_square_sum", "omega_k", "pf_pd", "reaction_time",
    "reference_topology", "roc", "run",
    "state_cumulants", "steady_state_pair", "table_first_order",
    "table_second_order", "tabulate_cdf_u", "threshold_for_pf",
]
