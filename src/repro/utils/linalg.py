"""Shared numerical helpers on stochastic matrices and simplex geometry."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_square


def cumulative_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise cumulative distribution of a row-stochastic matrix.

    Returns a fresh array whose rows are the running sums of ``matrix``'s
    rows with the last column forced to exactly ``1.0`` — rows summing to
    ``1 - 1e-16`` would otherwise let an inverse-CDF draw of ``u`` very
    close to 1 fall off the end.  Every inverse-CDF sampler in the
    library (``markov.sampling``, the simulation engines, the team
    simulator) goes through this helper so they agree bit for bit.
    """
    cumulative = np.cumsum(np.asarray(matrix, dtype=float), axis=1)
    cumulative[:, -1] = 1.0
    return cumulative


def is_row_stochastic(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return whether every row of ``matrix`` is a probability distribution."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if not np.all(np.isfinite(matrix)):
        return False
    if np.any(matrix < -atol):
        return False
    return bool(np.allclose(matrix.sum(axis=1), 1.0, atol=atol))


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Rescale each row of a non-negative matrix to sum to one."""
    matrix = np.asarray(matrix, dtype=float)
    if np.any(matrix < 0):
        raise ValueError("row_normalize requires non-negative entries")
    sums = matrix.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("row_normalize requires every row sum to be > 0")
    return matrix / sums


def project_row_sum_zero(
    matrix: np.ndarray, support: np.ndarray = None
) -> np.ndarray:
    """Orthogonally project onto the subspace of row-sum-zero matrices.

    This is Eq. (11) of the paper: ``Pi_ij = U_ij - mean_k(U_ik)``.  Updating
    a row-stochastic matrix along a row-sum-zero direction preserves its row
    sums exactly, which is how the descent iteration stays on the simplex.

    With a boolean ``support`` mask (sparse topologies restrict feasible
    transitions to an adjacency pattern), the projection is onto
    row-sum-zero matrices *vanishing off the support*: the row mean is
    taken over supported entries only and unsupported entries are zeroed,
    so descent directions never move probability onto infeasible legs.
    """
    matrix = check_square("matrix", matrix)
    if support is None:
        return matrix - matrix.mean(axis=1, keepdims=True)
    support = np.asarray(support, dtype=bool)
    if support.shape != matrix.shape:
        raise ValueError(
            f"support shape {support.shape} != matrix shape {matrix.shape}"
        )
    counts = support.sum(axis=1, keepdims=True)
    if np.any(counts == 0):
        raise ValueError("support has an all-empty row")
    means = (matrix * support).sum(axis=1, keepdims=True) / counts
    return np.where(support, matrix - means, 0.0)


def scatter_flat(
    flat: np.ndarray, values: np.ndarray, size: int
) -> np.ndarray:
    """The ``(size, size)`` matrix holding ``values`` at ``flat``, else 0.

    A reduction over it (row sums, a total) sees the same numbers in the
    same places as a dense matrix that vanishes off ``flat``, so numpy
    sums them in the same pairwise order and returns the dense result
    bit for bit; a sum over the gathered ``values`` would associate them
    differently.
    """
    out = np.zeros(size * size)
    out[flat] = values
    return out.reshape(size, size)


#: Most entries :func:`frobenius_norm` sums with one ``dot``: OpenBLAS
#: splits a longer ``ddot`` across its threads, and the split changes
#: the order, hence the rounding, of the sum.
NORM_CHUNK = 10_000


def sum_of_squares(array: np.ndarray) -> float:
    """``x.dot(x)`` over the flattened array, the same for any BLAS
    thread count.

    A BLAS ``ddot`` that OpenBLAS runs on several threads for long
    vectors rounds differently per thread count.  Here the squares are
    summed one chunk of at most :data:`NORM_CHUNK` entries at a time, in
    order, so the result does not depend on the thread count; an array
    of up to that many entries gets exactly one ``ddot``.
    """
    flat = np.ravel(np.asarray(array, dtype=float), order="K")
    total = 0.0
    for start in range(0, flat.size, NORM_CHUNK):
        part = flat[start:start + NORM_CHUNK]
        total += part.dot(part)
    return total


def frobenius_norm(array: np.ndarray) -> float:
    """``np.linalg.norm(array)``, the same for any BLAS thread count.

    ``np.linalg.norm`` is ``sqrt(x.dot(x))``; here the squares go
    through :func:`sum_of_squares`, so an array of up to
    :data:`NORM_CHUNK` entries gets exactly ``np.linalg.norm``'s
    arithmetic.
    """
    return float(np.sqrt(sum_of_squares(array)))


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Return ``||actual - expected|| / max(1, ||expected||)`` (Frobenius)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.linalg.norm(expected)))
    return float(np.linalg.norm(actual - expected)) / scale


def clip_to_open_interval(
    matrix: np.ndarray, margin: float = 1e-12
) -> np.ndarray:
    """Clip entries into ``(0, 1)`` by ``margin`` without renormalizing.

    Used only as a numerical guard before evaluating logarithmic barrier
    terms; the optimizer itself maintains feasibility through its step-size
    bounds.
    """
    if not 0.0 < margin < 0.5:
        raise ValueError(f"margin must lie in (0, 0.5), got {margin}")
    return np.clip(np.asarray(matrix, dtype=float), margin, 1.0 - margin)


def spectral_gap(matrix: np.ndarray) -> float:
    """Return ``1 - |lambda_2|`` for a stochastic matrix.

    The spectral gap controls the chain's mixing speed; it is exposed for
    diagnostics and is used by tests to pick well-conditioned examples.
    """
    matrix = check_square("matrix", matrix)
    eigenvalues = np.linalg.eigvals(matrix)
    moduli = np.sort(np.abs(eigenvalues))[::-1]
    if moduli.size < 2:
        return 1.0
    if abs(moduli[0] - 1.0) > 1e-6:
        raise ValueError(
            "matrix does not look stochastic: leading eigenvalue "
            f"modulus {moduli[0]}"
        )
    return float(1.0 - moduli[1])


def max_feasible_step(
    matrix: np.ndarray,
    direction: np.ndarray,
    lower: float = 0.0,
    upper: float = 1.0,
) -> float:
    """Largest ``t >= 0`` with ``lower <= matrix + t*direction <= upper``.

    Returns ``inf`` when the direction never violates the bounds.  This
    implements the feasibility bounding used by the adaptive line search
    (Section V, variant V3) to keep every ``p_ij`` inside ``[0, 1]``.
    """
    matrix = np.asarray(matrix, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if matrix.shape != direction.shape:
        raise ValueError(
            f"shape mismatch: {matrix.shape} vs {direction.shape}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        # Entries moving down hit ``lower``; entries moving up hit ``upper``.
        to_lower = np.where(direction < 0, (lower - matrix) / direction, np.inf)
        to_upper = np.where(direction > 0, (upper - matrix) / direction, np.inf)
    bound = float(min(to_lower.min(initial=np.inf), to_upper.min(initial=np.inf)))
    if not np.isfinite(bound):
        return np.inf
    return max(bound, 0.0)
