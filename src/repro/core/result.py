"""Result records for the optimization variants.

Each optimizer returns an :class:`OptimizationResult` holding the final
matrix and a per-iteration history, which the experiment harness consumes
to regenerate the paper's iteration-trace figures (Figs. 3-5, 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.utils.perf import OptimizerPerf


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of a descent run.

    ``step`` is the step size actually taken (0 for a rejected proposal),
    ``accepted`` distinguishes annealing rejections in the perturbed
    variant, and ``gradient_norm`` is a Frobenius norm at the iterate
    *before* the step: of the raw gradient ``[D_P U]`` (before noise)
    for the perturbed variant, of the projected descent direction for
    the basic and adaptive variants.
    """

    iteration: int
    u_eps: float
    u: float
    delta_c: float
    e_bar: float
    step: float
    gradient_norm: float
    accepted: bool = True


@dataclass
class OptimizationResult:
    """Outcome of one optimization run."""

    matrix: np.ndarray
    u_eps: float
    u: float
    delta_c: float
    e_bar: float
    iterations: int
    converged: bool
    stop_reason: str
    history: List[IterationRecord] = field(default_factory=list)
    best_matrix: Optional[np.ndarray] = None
    best_u_eps: Optional[float] = None
    checkpoints: List[tuple] = field(default_factory=list)
    #: Hot-path counters for this run (factorizations, reused states,
    #: batched solves); ``None`` for optimizers that do not collect them.
    perf: Optional[OptimizerPerf] = None

    def __post_init__(self) -> None:
        if self.best_matrix is None:
            self.best_matrix = self.matrix
        if self.best_u_eps is None:
            self.best_u_eps = self.u_eps

    def checkpoint_iterations(self) -> List[int]:
        """Iteration indices at which matrices were checkpointed."""
        return [iteration for iteration, _ in self.checkpoints]

    def cost_trace(self) -> np.ndarray:
        """Per-iteration ``U_eps`` values (the y-axis of Figs. 3-5)."""
        return np.array([record.u_eps for record in self.history])

    def u_trace(self) -> np.ndarray:
        """Per-iteration un-penalized ``U`` values."""
        return np.array([record.u for record in self.history])

    def delta_c_trace(self) -> np.ndarray:
        """Per-iteration ``Delta C`` values (Figs. 6-8, panel a)."""
        return np.array([record.delta_c for record in self.history])

    def e_bar_trace(self) -> np.ndarray:
        """Per-iteration ``E-bar`` values (Figs. 6-8, panel b)."""
        return np.array([record.e_bar for record in self.history])

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"U_eps={self.u_eps:.6g} U={self.u:.6g} "
            f"dC={self.delta_c:.6g} E={self.e_bar:.6g} "
            f"iters={self.iterations} converged={self.converged} "
            f"({self.stop_reason})"
        )
