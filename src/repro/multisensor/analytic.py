"""Independence approximations for team coverage and exposure.

Sensors following independent Markov schedules produce, at each PoI,
independent ON/OFF (in-range/out-of-range) processes.  Two standard
approximations follow, both validated against the exact team simulator in
the test suite:

* **Coverage (exact under independence).**  The long-run fraction of time
  at least one of ``K`` independent stationary processes is ON is

      ``1 - prod_k (1 - c_k)``

  where ``c_k`` is sensor ``k``'s individual coverage fraction.  For
  stationary independent processes this is an identity, so the
  approximation error comes only from residual dependence through the
  shared clock (none) and finite horizons.

* **Exposure (hazard-rate approximation).**  Model sensor ``k``'s OFF
  segments at a PoI as memoryless with mean ``m_k``; while a team gap is
  open every sensor is OFF, and the gap closes when the first sensor
  turns ON, with total hazard ``sum_k 1/m_k``.  The mean team gap is then

      ``1 / sum_k (1/m_k)``

  — the harmonic composition of the individual exposure means.  Real OFF
  segments are not exponential (travel times are bounded), so this is a
  guide, typically within tens of percent; the tests enforce a 2x band.
"""

from __future__ import annotations

import numpy as np


def team_coverage_approximation(per_sensor_shares) -> np.ndarray:
    """Union coverage of independent sensors: ``1 - prod(1 - c_k)``.

    ``per_sensor_shares`` has shape ``(K, M)`` (or ``(M,)`` for one
    sensor): each row is one sensor's per-PoI coverage fractions.
    """
    shares = np.atleast_2d(np.asarray(per_sensor_shares, dtype=float))
    if np.any(shares < 0) or np.any(shares > 1):
        raise ValueError("coverage shares must lie in [0, 1]")
    return 1.0 - np.prod(1.0 - shares, axis=0)


def team_exposure_approximation(per_sensor_exposures) -> np.ndarray:
    """Mean team exposure gap: harmonic composition ``1 / sum(1/m_k)``.

    ``per_sensor_exposures`` has shape ``(K, M)``: each row is one
    sensor's per-PoI mean exposure segment (same time unit in = same
    unit out).  Entries must be positive; ``inf`` is allowed for a
    sensor that never covers a PoI (it simply drops out of the sum).
    """
    exposures = np.atleast_2d(
        np.asarray(per_sensor_exposures, dtype=float)
    )
    if np.any(exposures <= 0):
        raise ValueError("exposure means must be > 0")
    with np.errstate(divide="ignore"):
        rates = np.where(np.isfinite(exposures), 1.0 / exposures, 0.0)
    total = rates.sum(axis=0)
    result = np.full(exposures.shape[1], np.inf)
    positive = total > 0
    result[positive] = 1.0 / total[positive]
    return result


def check_team_result(result, tol: float = 1e-9) -> None:
    """Cross-check a simulated team result for internal consistency.

    Verifies the inequalities every exact union measurement must satisfy,
    independent of which simulator produced it:

    * every coverage fraction (union and per-sensor) lies in ``[0, 1]``;
    * the union covers at least the best individual sensor and at most
      the sum of the individuals (Bonferroni bounds);
    * completed exposure gaps fit in the uncovered part of the window:
      ``exposure_mean * exposure_counts <= (1 - coverage) * horizon``;
    * ``exposure_mean`` is ``nan`` exactly where ``exposure_counts`` is
      zero, and per-sensor transition counts are positive.

    Raises ``ValueError`` naming the first violated property.  Used by
    the oracle matrix and re-run on every ``bench_team.py`` cell, so a
    kernel regression cannot slip through as the engine and its oracle
    agreeing on a wrong answer.
    """
    shares = np.asarray(result.coverage_shares, dtype=float)
    per_sensor = np.atleast_2d(
        np.asarray(result.per_sensor_shares, dtype=float)
    )
    counts = np.asarray(result.exposure_counts)
    means = np.asarray(result.exposure_mean, dtype=float)

    def _fail(message: str) -> None:
        raise ValueError(f"inconsistent team result: {message}")

    if np.any(shares < -tol) or np.any(shares > 1.0 + tol):
        _fail("union coverage shares outside [0, 1]")
    if np.any(per_sensor < -tol) or np.any(per_sensor > 1.0 + tol):
        _fail("per-sensor coverage shares outside [0, 1]")
    if np.any(shares < per_sensor.max(axis=0) - tol):
        _fail("union coverage below the best individual sensor")
    if np.any(shares > per_sensor.sum(axis=0) + tol):
        _fail("union coverage above the sum of individual sensors")
    gap_time = np.where(counts > 0, np.nan_to_num(means) * counts, 0.0)
    uncovered = (1.0 - shares) * result.horizon
    if np.any(gap_time > uncovered + tol * result.horizon):
        _fail("completed exposure gaps exceed the uncovered time")
    if np.any(np.isnan(means) != (counts == 0)):
        _fail("exposure_mean is nan iff exposure_counts is zero")
    if np.any(np.asarray(result.transitions) < 1):
        _fail("every sensor must take at least one transition")


def sensors_needed_for_coverage(
    single_share: float, target_share: float
) -> int:
    """Smallest homogeneous team size reaching ``target_share`` coverage.

    Solves ``1 - (1 - c)^K >= target`` for integer ``K`` — the standard
    sizing question ("how many mules do we need for 99% watch
    coverage?").
    """
    if not 0.0 < single_share < 1.0:
        raise ValueError(
            f"single_share must lie in (0, 1), got {single_share}"
        )
    if not 0.0 < target_share < 1.0:
        raise ValueError(
            f"target_share must lie in (0, 1), got {target_share}"
        )
    if target_share <= single_share:
        return 1
    count = np.log(1.0 - target_share) / np.log(1.0 - single_share)
    return int(np.ceil(count - 1e-12))
