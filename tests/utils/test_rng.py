"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    as_generator,
    derive_seed,
    paper_random_row,
    paper_random_rows,
    random_simplex_row,
    spawn_generators,
)


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_ints_differ(self):
        assert not np.array_equal(
            as_generator(1).random(5), as_generator(2).random(5)
        )

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(3)
        a = as_generator(seq).random(3)
        b = as_generator(np.random.SeedSequence(3)).random(3)
        np.testing.assert_array_equal(a, b)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_generators(0, -1)

    def test_streams_are_independent(self):
        streams = spawn_generators(42, 3)
        draws = [g.random(4).tolist() for g in streams]
        assert draws[0] != draws[1] != draws[2]

    def test_deterministic_from_int_seed(self):
        a = [g.random() for g in spawn_generators(9, 3)]
        b = [g.random() for g in spawn_generators(9, 3)]
        assert a == b

    def test_generator_seed_supported(self):
        gens = spawn_generators(np.random.default_rng(0), 2)
        assert len(gens) == 2


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)

    def test_distinct_indices(self):
        assert derive_seed(5, 0) != derive_seed(5, 1)

    def test_rejects_generator(self):
        with pytest.raises(TypeError, match="reproducible"):
            derive_seed(np.random.default_rng(0), 0)

    def test_range(self):
        value = derive_seed(123, 7)
        assert 0 <= value < 2**63


class TestSimplexRows:
    def test_random_simplex_row_sums_to_one(self, rng):
        row = random_simplex_row(6, rng)
        assert row.shape == (6,)
        assert row.sum() == pytest.approx(1.0)
        assert np.all(row >= 0)

    def test_floor_respected(self, rng):
        row = random_simplex_row(4, rng, floor=0.05)
        assert row.min() >= 0.05
        assert row.sum() == pytest.approx(1.0)

    def test_bad_floor_rejected(self, rng):
        with pytest.raises(ValueError, match="floor"):
            random_simplex_row(4, rng, floor=0.5)

    def test_bad_size_rejected(self, rng):
        with pytest.raises(ValueError, match="size"):
            random_simplex_row(0, rng)

    def test_paper_row_sums_to_one(self, rng):
        for _ in range(20):
            row = paper_random_row(5, rng)
            assert row.sum() == pytest.approx(1.0)

    def test_paper_row_strictly_positive(self, rng):
        for _ in range(20):
            assert paper_random_row(4, rng).min() > 0

    def test_paper_rows_match_row_by_row_reference(self):
        """One draw for all rows equals ``size`` scalar-draw rows: same
        bits, and the generator ends in the same state."""
        size = 64
        reference_rng = np.random.default_rng(11)
        expected = np.empty((size, size))
        for row in expected:
            remaining = 1.0
            for column in range(size - 1):
                row[column] = reference_rng.uniform() * remaining / size
                remaining -= row[column]
            row[size - 1] = remaining
        rng = np.random.default_rng(11)
        assert paper_random_rows(size, size, rng).tobytes() == (
            expected.tobytes()
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_paper_row_bad_size(self, rng):
        with pytest.raises(ValueError, match="size"):
            paper_random_row(0, rng)
