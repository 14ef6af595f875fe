"""Random-number-generator plumbing.

All stochastic components in the library accept a ``seed`` argument that can
be ``None``, an integer, or a :class:`numpy.random.Generator`.  This module
centralizes the conversion so every experiment is reproducible end to end and
independent runs can be given statistically independent streams.
"""

from __future__ import annotations

import json
from typing import Sequence, Union

import numpy as np

#: Anything acceptable as a seed throughout the library.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` gives a fresh nondeterministic generator; an ``int`` or
    :class:`~numpy.random.SeedSequence` gives a deterministic one; an
    existing generator is passed through unchanged (shared state).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: RandomState, count: int) -> list:
    """Return ``count`` statistically independent generators.

    Independent runs of a randomized algorithm (e.g. the 200 runs behind
    Table III) must not share a stream, otherwise their results are
    correlated.  ``SeedSequence.spawn`` provides the independence guarantee.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a child sequence from the generator so the caller's stream
        # is perturbed only once regardless of ``count``.
        sequence = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derive_seed(seed: RandomState, index: int) -> int:
    """Return a deterministic integer seed derived from ``(seed, index)``.

    Useful when a sub-component requires a plain integer (e.g. to log it in
    a result record) rather than a generator.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "derive_seed requires a reproducible seed (None, int, or "
            "SeedSequence), not a live Generator"
        )
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    children: Sequence[np.random.SeedSequence] = root.spawn(index + 1)
    state = children[index].generate_state(1, dtype=np.uint64)
    return int(state[0] % (2**63))


def generator_state(generator: np.random.Generator) -> dict:
    """JSON-plain snapshot of a generator's exact stream position.

    The returned dict (bit-generator name plus its ``.state`` payload,
    which numpy exposes as plain ints and lists) round-trips through
    :func:`generator_from_state` to a generator that continues the
    stream bit-identically — the property the service's mid-run job
    checkpoints rely on (:mod:`repro.service`).
    """
    state = generator.bit_generator.state

    def _plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.integer):
            return int(value)
        raise TypeError(f"non-JSON value in RNG state: {value!r}")

    return json.loads(json.dumps(state, default=_plain))


def generator_from_state(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot."""
    name = state.get("bit_generator")
    try:
        bit_generator_class = getattr(np.random, name)
    except (TypeError, AttributeError):
        raise ValueError(
            f"unknown bit generator {name!r} in RNG snapshot"
        ) from None
    bit_generator = bit_generator_class()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def random_simplex_row(
    size: int, rng: np.random.Generator, floor: float = 0.0
) -> np.ndarray:
    """Sample one probability row of length ``size``.

    Uses a flat Dirichlet (uniform on the simplex).  ``floor`` optionally
    bounds every entry away from zero, which keeps randomly initialized
    transition matrices ergodic.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if not 0.0 <= floor < 1.0 / size:
        raise ValueError(
            f"floor must lie in [0, 1/size)={1.0 / size:.4g}, got {floor}"
        )
    row = rng.dirichlet(np.ones(size))
    if floor > 0.0:
        row = floor + (1.0 - size * floor) * row
    return row


def paper_random_row(size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a probability row using the paper's V2 recipe.

    Section V, variant V2: each entry except the last is set to
    ``rand * rem / M`` where ``rand ~ U(0, 1)`` and ``rem`` is the
    probability remaining in the row; the last entry absorbs the remainder.
    The construction guarantees strictly positive entries, hence ergodicity
    of the resulting chain.
    """
    return paper_random_rows(1, size, rng)[0]


def paper_random_rows(
    count: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` :func:`paper_random_row` rows from one uniform draw.

    The column recurrence runs over all rows at once; the rows and the
    generator's end state equal ``count`` row-by-row calls bit for bit.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    draws = rng.uniform(size=(count, size - 1))
    rows = np.empty((count, size))
    remaining = np.ones(count)
    for column in range(size - 1):
        rows[:, column] = draws[:, column] * remaining / size
        remaining -= rows[:, column]
    rows[:, size - 1] = remaining
    return rows
