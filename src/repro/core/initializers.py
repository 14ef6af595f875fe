"""Initial transition matrices for the descent variants V1 and V2.

Every initializer accepts an optional boolean ``support`` mask (sparse
topologies restrict feasible transitions to an adjacency pattern): the
unrestricted matrix is built exactly as before — same RNG draw count and
order, so seeded runs stay reproducible — then masked to the support and
row-renormalized.  ``support=None`` is bit-identical to the historical
behavior.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, as_generator, paper_random_rows


def _apply_support(matrix: np.ndarray, support) -> np.ndarray:
    """Mask ``matrix`` to a feasible-transition pattern and renormalize."""
    if support is None:
        return matrix
    support = np.asarray(support, dtype=bool)
    if support.shape != matrix.shape:
        raise ValueError(
            f"support shape {support.shape} != matrix shape {matrix.shape}"
        )
    masked = np.where(support, matrix, 0.0)
    sums = masked.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        raise ValueError(
            "support mask removed all probability from some row"
        )
    return masked / sums


def uniform_matrix(size: int, support=None) -> np.ndarray:
    """V1's initial matrix: every ``p_ij = 1/M`` (Section V).

    The uniform chain is trivially ergodic and lies at the center of the
    feasible polytope, far from every barrier.  With a ``support`` mask
    the mass spreads uniformly over each row's feasible legs instead.
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    return _apply_support(np.full((size, size), 1.0 / size), support)


def paper_random_matrix(
    size: int, seed: RandomState = None, support=None
) -> np.ndarray:
    """V2's random initial matrix (Section V).

    Each row uses the paper's recipe: entry ``j < M-1`` takes
    ``rand * rem / M`` of the probability remaining in the row; the last
    column absorbs the remainder, so rows sum to one exactly and every
    entry is strictly positive (hence the chain is ergodic).
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    matrix = paper_random_rows(size, size, as_generator(seed))
    return _apply_support(matrix, support)


def damped_baseline_matrix(
    target_shares: np.ndarray, delta: float, support=None
) -> np.ndarray:
    """Interpolation between staying put and the proportional baseline.

    ``P = (1 - delta) I + delta * ones phi^T`` — with probability
    ``delta`` the sensor draws its next PoI i.i.d. from the target
    allocation ``phi`` (lottery-scheduling style); otherwise it stays.
    The stationary distribution is exactly ``phi`` for every ``delta``,
    while ``delta`` controls how much the sensor moves: small ``delta``
    trades exposure time for coverage accuracy (travel time vanishes).

    A grid over ``delta`` makes an effective structured multi-start set:
    it seeds the optimizer in the slow-moving basins that random
    initializations (which start near the simplex center) practically
    never reach.  Requires strictly positive ``phi`` for ergodicity.
    """
    phi = np.asarray(target_shares, dtype=float)
    if phi.ndim != 1 or phi.shape[0] < 2:
        raise ValueError("target_shares must be 1-D with length >= 2")
    if np.any(phi <= 0):
        raise ValueError(
            "all target shares must be positive for an ergodic chain"
        )
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    size = phi.shape[0]
    matrix = (1.0 - delta) * np.eye(size) + delta * np.tile(phi, (size, 1))
    return _apply_support(matrix, support)


def dirichlet_matrix(
    size: int,
    concentration: float = 1.0,
    floor: float = 0.0,
    seed: RandomState = None,
) -> np.ndarray:
    """Random matrix with i.i.d. Dirichlet rows (uniform on the simplex).

    Unlike the paper's V2 recipe — which biases probability mass toward the
    last column — Dirichlet rows are exchangeable across columns.  ``floor``
    bounds entries away from zero.  Used by robustness tests and ablations.
    """
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    if not 0.0 <= floor < 1.0 / size:
        raise ValueError(
            f"floor must lie in [0, 1/size), got {floor}"
        )
    if concentration <= 0:
        raise ValueError(
            f"concentration must be > 0, got {concentration}"
        )
    rng = as_generator(seed)
    rows = rng.dirichlet(np.full(size, concentration), size=size)
    if floor > 0.0:
        rows = floor + (1.0 - size * floor) * rows
    return rows
