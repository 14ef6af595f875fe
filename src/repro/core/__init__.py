"""Core library: the paper's steepest-descent coverage optimizer.

The pieces map one-to-one onto the paper's sections:

* :mod:`repro.core.state` — per-iterate cache of ``(P, pi, Z, R)``.
* :mod:`repro.core.terms` — objective terms (coverage deviation, exposure,
  energy, entropy, plus plugin terms) with analytic partials w.r.t.
  ``(pi, Z, P)`` behind the :class:`~repro.core.terms.CostTerm` protocol.
* :mod:`repro.core.registry` — the :data:`~repro.core.registry.TERM_REGISTRY`
  of composable cost terms and the weighted
  :class:`~repro.core.registry.CostSum` composer.
* :mod:`repro.core.penalty` — the log-barrier of Eq. (9).
* :mod:`repro.core.cost` — the assembled cost ``U_eps`` and the paper's
  reporting metrics ``Delta C`` (Eq. 12) and ``E-bar`` (Eq. 13).
* :mod:`repro.core.gradient` — the total derivative ``[D_P U]`` (Eq. 10)
  and its row-sum-zero projection (Eq. 11).
* :mod:`repro.core.perturbed` — algorithm variants V1-V4 (Section V),
  all driven by one descent walk.
"""

from repro.core.state import ChainState
from repro.core.terms import (
    CostTerm,
    KCoverageShortfallTerm,
    PeriodicityTerm,
    TermBatch,
    WorstExposureTerm,
)
from repro.core.registry import (
    TERM_REGISTRY,
    CostSum,
    ScaledTerm,
    TermSpec,
    build_term,
    normalize_extra_terms,
)
from repro.core.cost import (
    LINALG_MODES,
    CostBreakdown,
    CostWeights,
    CoverageCost,
    MultiRayBatch,
    RayBatch,
    resolve_linalg,
)
from repro.core.options import (
    OptimizerOptions,
    SearchOptions,
    coerce_options,
)
from repro.core.initializers import (
    damped_baseline_matrix,
    dirichlet_matrix,
    paper_random_matrix,
    uniform_matrix,
)
from repro.core.result import IterationRecord, OptimizationResult
from repro.core.perturbed import (
    AdaptiveOptions,
    BasicDescentOptions,
    PerturbedOptions,
    optimize_adaptive,
    optimize_basic,
    optimize_perturbed,
)
from repro.core.mirror import MirrorOptions, optimize_mirror
from repro.core.multistart import (
    MultiStartResult,
    default_start_portfolio,
    optimize_multistart,
)
from repro.core.api import OPTIMIZER_REGISTRY, OptimizerSpec, optimize

__all__ = [
    "ChainState",
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
    "CostBreakdown",
    "CostWeights",
    "CoverageCost",
    "RayBatch",
    "MultiRayBatch",
    "LINALG_MODES",
    "resolve_linalg",
    "OptimizerOptions",
    "SearchOptions",
    "coerce_options",
    "optimize",
    "OptimizerSpec",
    "OPTIMIZER_REGISTRY",
    "uniform_matrix",
    "paper_random_matrix",
    "dirichlet_matrix",
    "damped_baseline_matrix",
    "MultiStartResult",
    "default_start_portfolio",
    "optimize_multistart",
    "IterationRecord",
    "OptimizationResult",
    "BasicDescentOptions",
    "optimize_basic",
    "AdaptiveOptions",
    "optimize_adaptive",
    "PerturbedOptions",
    "optimize_perturbed",
    "MirrorOptions",
    "optimize_mirror",
]
