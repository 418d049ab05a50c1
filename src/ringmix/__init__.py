"""Ring-topology mixing matrices, randomized gossip consensus, and
decentralized SGD simulation with a simulated wall clock."""

import types

from .config import ConfigError, ExperimentConfig, echo_config, parse_config
from .harness import (
    BoundsReport,
    CellResult,
    SweepResult,
    cell_seed,
    run_sweep,
    verify_bounds,
)
from .mixing import (
    StochasticityReport,
    apply_mixing,
    build_ring_matrix,
    build_uniform_matrix,
    conjugate_by_permutation,
    permutation_for_step,
    sample_permutation,
    verify_doubly_stochastic,
)
from .objectives import (
    LogisticObjective,
    QuadraticObjective,
    gradient_check,
    logistic_oracle,
    quadratic_oracle,
)
from .simulation import (
    CostModel,
    RunConfig,
    RunResult,
    SimState,
    Strategy,
    TraceRecord,
    consensus_distance,
    initial_state,
    mixing_rho,
    run_training,
)
from .spectral import (
    ConsensusCurve,
    SpectralReport,
    fixed_consensus_curve,
    fixed_mixing_consensus_bound,
    monte_carlo_consensus,
    randomized_consensus_bound,
    randomized_frobenius_expectation,
    second_eigenvalue_ring,
    spectral_rho,
)

__version__ = "0.1.0"
# Each public name is written once, in the imports above (which also bind the submodules).
__all__ = sorted(n for n, v in vars().items()
                 if not (n.startswith("_") or isinstance(v, types.ModuleType))) + ["__version__"]
