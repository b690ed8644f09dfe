"""Distributed binary detection over adaptive networks with one-bit messaging.

Library layout:

* ``network``      - agent graphs and combination matrices
* ``models``       - observation models (Gaussian / exponential LLR),
                     each sampled as an affine map of a standard variate,
                     and their one-bit message levels
* ``continuous``   - steady-state CDF of the continuous state component: a
                     lattice Fourier series of its log-characteristic
                     function; ``tabulate_cdf_u`` and ``cdf_u`` serve the
                     checks and the tests
* ``discrete``     - exact PMF algebra (``DiscretePmf``, ``point_mass``,
                     ``convolve``) for the state's head, then the paper's
                     star-aggregated message tables, ``merge_close`` and
                     ``discrete_component``, which makes every one of the
                     paper's approximations, for criteria 03-05 and the
                     tests
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

The names that serve only the checks and the tests are imported from their
own modules, not from the package.
"""

from .continuous import (ContinuousCdfTable, ContinuousMoments,
                         cdf_u_gaussian_closed, moments)
from .detection import RocCurve, default_gamma_grid, empirical_roc, pf_pd, \
    roc, threshold_for_pf
from .discrete import DiscretePmf, convolve
from .models import ExponentialModel, GaussianModel, ObservationModel
from .network import (NetworkSpec, NodeParams, build_uniform_matrix,
                      from_matrix, neighbor_sets_from_edges, offdiag_square_sum,
                      reference_topology)
from .simulate import (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED, EmpiricalCdf,
                       SimConfig, TrialEnsemble, ks_distance,
                       make_step, reaction_time, run)
from .steady_state import (SteadyStateCdf, build_steady_state, limit_moments,
                           mixture_cdf, state_cumulants, steady_state_pair)

__version__ = "0.1.0"

__all__ = [
    "ContinuousCdfTable", "ContinuousMoments",
    "DiscretePmf", "EmpiricalCdf", "ExponentialModel", "GaussianModel",
    "NetworkSpec", "NodeParams", "ONE_BIT_X", "ObservationModel",
    "QUANTIZED_STATE", "RocCurve", "SimConfig", "SteadyStateCdf",
    "TrialEnsemble", "UNQUANTIZED", "build_steady_state",
    "build_uniform_matrix", "cdf_u_gaussian_closed",
    "convolve", "default_gamma_grid", "empirical_roc", "from_matrix",
    "ks_distance", "limit_moments", "make_step", "mixture_cdf",
    "moments", "neighbor_sets_from_edges",
    "offdiag_square_sum", "pf_pd", "reaction_time",
    "reference_topology", "roc", "run",
    "state_cumulants", "steady_state_pair", "threshold_for_pf",
]
