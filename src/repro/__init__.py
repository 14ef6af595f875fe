"""repro — stochastic steepest-descent optimization of multi-objective
mobile sensor coverage.

A full reproduction of Ma, Yau, Yip, Rao, Chen, *Stochastic
Steepest-Descent Optimization of Multiple-Objective Mobile Sensor
Coverage* (ICDCS 2010): a mobile sensor's visits to points of interest are
scheduled by an ergodic Markov chain whose transition probabilities are
optimized — in the space of *all* transition matrices — for a tunable
tradeoff between coverage-time accuracy, exposure time, energy use, and
schedule entropy.

Quickstart::

    from repro import (CostWeights, CoverageCost, optimize_perturbed,
                       paper_topology, simulate_schedule)

    topology = paper_topology(1)
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
    result = optimize_perturbed(cost, seed=0)
    sim = simulate_schedule(topology, result.matrix, transitions=20_000,
                            seed=1)
    print(result.summary())
    print(sim.coverage_shares)
"""

from repro.core import (
    OPTIMIZER_REGISTRY,
    TERM_REGISTRY,
    AdaptiveOptions,
    BasicDescentOptions,
    ChainState,
    CostBreakdown,
    CostSum,
    CostTerm,
    CostWeights,
    CoverageCost,
    IterationRecord,
    KCoverageShortfallTerm,
    MirrorOptions,
    MultiRayBatch,
    MultiStartResult,
    OptimizationResult,
    OptimizerOptions,
    OptimizerSpec,
    PeriodicityTerm,
    PerturbedOptions,
    ScaledTerm,
    SearchOptions,
    TermBatch,
    TermSpec,
    WorstExposureTerm,
    build_term,
    coerce_options,
    damped_baseline_matrix,
    dirichlet_matrix,
    normalize_extra_terms,
    optimize,
    optimize_adaptive,
    optimize_basic,
    optimize_mirror,
    optimize_multistart,
    optimize_perturbed,
    paper_random_matrix,
    uniform_matrix,
)
from repro.exec import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    using_executor,
)
from repro.markov import MarkovChain
from repro.simulation import (
    SIMULATOR_REGISTRY,
    SimulationOptions,
    SimulationResult,
    SimulatorSpec,
    TeamOptions,
    simulate,
    simulate_schedule,
)
from repro.topology import (
    PAPER_TOPOLOGY_IDS,
    SCALABLE_FAMILIES,
    PoI,
    Topology,
    city_grid_topology,
    grid_topology,
    line_topology,
    paper_topology,
    random_topology,
    ring_of_grids_topology,
    scalable_topology,
)
from repro.baselines import (
    max_entropy_matrix,
    metropolis_hastings_matrix,
    nearest_neighbor_matrix,
    proportional_matrix,
    uniform_policy_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ChainState",
    "CostBreakdown",
    "CostWeights",
    "CoverageCost",
    "IterationRecord",
    "OptimizationResult",
    "BasicDescentOptions",
    "AdaptiveOptions",
    "PerturbedOptions",
    "optimize_basic",
    "optimize_adaptive",
    "optimize_perturbed",
    "optimize_mirror",
    "MirrorOptions",
    "uniform_matrix",
    "paper_random_matrix",
    "dirichlet_matrix",
    "damped_baseline_matrix",
    "MultiStartResult",
    "optimize_multistart",
    "MultiRayBatch",
    # façade
    "optimize",
    "OptimizerSpec",
    "OPTIMIZER_REGISTRY",
    "OptimizerOptions",
    "SearchOptions",
    "coerce_options",
    # cost-term registry
    "CostTerm",
    "TermBatch",
    "TermSpec",
    "TERM_REGISTRY",
    "CostSum",
    "ScaledTerm",
    "build_term",
    "normalize_extra_terms",
    "WorstExposureTerm",
    "KCoverageShortfallTerm",
    "PeriodicityTerm",
    # exec
    "BACKENDS",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "using_executor",
    # markov
    "MarkovChain",
    # topology
    "PoI",
    "Topology",
    "grid_topology",
    "line_topology",
    "paper_topology",
    "random_topology",
    "city_grid_topology",
    "ring_of_grids_topology",
    "scalable_topology",
    "PAPER_TOPOLOGY_IDS",
    "SCALABLE_FAMILIES",
    # simulation
    "SimulationOptions",
    "SimulationResult",
    "simulate_schedule",
    # simulation façade
    "simulate",
    "SimulatorSpec",
    "SIMULATOR_REGISTRY",
    "TeamOptions",
    # baselines
    "metropolis_hastings_matrix",
    "max_entropy_matrix",
    "uniform_policy_matrix",
    "proportional_matrix",
    "nearest_neighbor_matrix",
]
