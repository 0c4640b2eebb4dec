"""Unit tests for the scalar entropy layer, partitions and limit estimation."""

import math

import numpy as np
import pytest

from szwalk import (Partition, ProbVector, ValidationError, cycle_walk, entropy_rate, eta,
                    limit_estimate)

from helpers import random_prob_vector

LN2 = math.log(2.0)


class TestEta:
    def test_zero(self):
        assert eta(0.0) == 0.0

    def test_one(self):
        assert eta(1.0) == 0.0

    def test_half(self):
        assert eta(0.5) == pytest.approx(LN2 / 2, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            eta(-1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="nan"):
            eta(math.nan)


class TestProbVector:
    def test_uniform(self):
        p = ProbVector.uniform(4)
        assert np.allclose(p.entries, 0.25)

    def test_point_mass(self):
        p = ProbVector.point_mass(2, 5)
        assert p[2] == 1.0 and p.entries.sum() == 1.0

    def test_tiny_negative_clipped(self):
        p = ProbVector([1.0 + 1e-14, -1e-14], tol=1e-12)
        assert p[1] == 0.0

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            ProbVector([0.5, 0.4])

    def test_entry_above_one_rejected(self):
        with pytest.raises(ValidationError):
            ProbVector([1.5, -0.5])


class TestPartition:
    @pytest.mark.parametrize("blocks", [[[0.2], [1], [2]], [["0"], [1], [2]],
                                        [[False], [True], [2]], [[0.0], [1], [2]]])
    def test_non_integer_outcomes_rejected(self, blocks):
        with pytest.raises(ValidationError, match="must be integers"):
            Partition(blocks)

    def test_numpy_integer_outcomes_accepted(self):
        p = Partition([np.array([1, 0]), [np.int64(2)]])
        assert p == Partition([[0, 1], [2]])
        assert all(type(i) is int for b in p.blocks for i in b)

    @pytest.mark.parametrize("size", [2.7, 3.0, True, "3"])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(ValidationError, match="size must be an integer"):
            Partition([[0], [1], [2]], size=size)

    def test_numpy_integer_size_accepted(self):
        assert Partition([[0], [1], [2]], size=np.int64(3)).size == 3

    def test_overlapping_blocks_rejected(self):
        # A loop rather than parameters, so the test keeps its name.
        for blocks in ([[0, 1], [1, 2]], [[0, 0], [1]]):  # across blocks, within one
            with pytest.raises(ValidationError, match="repeats an outcome"):
                Partition(blocks)

    def test_gap_rejected(self):
        with pytest.raises(ValidationError):
            Partition([[0], [2]])

    def test_partition_without_blocks_rejected(self):
        # A loop rather than parameters, so the test keeps one name.
        for size in (None, 0, 3):
            with pytest.raises(ValidationError, match="at least one block"):
                Partition([], size=size)

    def test_blocks_sorted_by_smallest_member(self):
        p = Partition([[3, 2], [1, 0]], labels=["hi", "lo"])
        assert p.blocks == ((0, 1), (2, 3))
        assert p.labels == ("lo", "hi")


class TestLimitEstimate:
    def test_constant_sequence(self):
        rep = limit_estimate([2.5] * 6, tol=1e-9, window=3)
        assert rep.converged and rep.converged_value == 2.5
        assert rep.steps_used == 6

    def test_geometric_sequence_converges_at_25_terms(self):
        seq = [1 + (-0.5) ** n for n in range(25)]
        short = limit_estimate(seq[:24], tol=1e-6, window=3)
        assert not short.converged and short.converged_value is None
        rep = limit_estimate(seq, tol=1e-6, window=3)
        assert rep.converged
        assert rep.converged_value == pytest.approx(1.0, abs=1e-6)

    def test_unbounded_sequence_fails(self):
        rep = limit_estimate([n * n for n in range(10)], tol=1e-6, window=3)
        assert not rep.converged

    def test_cesaro_matches_running_means(self):
        seq = [1.0, 2.0, 3.0, 4.0]
        rep = limit_estimate(seq, tol=1e-9, window=2)
        means = [np.mean(seq[:k + 1]) for k in range(4)]
        assert np.allclose(rep.cesaro_sequence, means, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            limit_estimate([], tol=1e-6, window=3)
        with pytest.raises(ValidationError):
            limit_estimate([1.0], tol=0.0, window=3)
        with pytest.raises(ValidationError):
            limit_estimate([1.0], tol=1e-6, window=0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            limit_estimate([1.0, 1.0, 1.0, 1.0], tol=math.nan, window=3)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, -1e-6, True, "1e-6", None])
    def test_tolerance_must_be_a_finite_positive_real(self, tol):
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            limit_estimate([1.0, 5.0, 9.0], tol=tol, window=2)

    def test_infinite_tolerance_rejected_through_entropy_rate(self):
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            entropy_rate(cycle_walk(3), ProbVector.uniform(3), n_max=4, tol=math.inf)

    def test_numpy_real_tolerance_accepted(self):
        assert limit_estimate([1.0] * 4, tol=np.float64(1e-6), window=3).converged
        assert limit_estimate([1.0] * 4, tol=1, window=3).converged

    @pytest.mark.parametrize("window", [math.nan, 2.5, True])
    def test_non_integer_window_rejected(self, window):
        with pytest.raises(ValidationError, match="window must be an integer"):
            limit_estimate([1.0, 1.0, 1.0, 1.0], tol=1e-6, window=window)

    @pytest.mark.parametrize("window", [math.nan, 2.5])
    def test_non_integer_window_rejected_through_entropy_rate(self, window):
        P = cycle_walk(3)
        with pytest.raises(ValidationError, match="window must be an integer"):
            entropy_rate(P, ProbVector.uniform(3), n_max=4, tol=1e-9, window=window)

    def test_numpy_integer_window_accepted(self):
        assert limit_estimate([1.0] * 4, tol=1e-6, window=np.int64(3)).converged


class TestProperties:
    def test_entropy_bounded_by_log_length(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_prob_vector(rng, int(rng.integers(2, 12)))
            assert sum(eta(x) for x in p.entries) <= math.log(len(p)) + 1e-12

    def test_eta_subadditive(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            parts = rng.random(int(rng.integers(2, 8)))
            parts = parts / parts.sum() * rng.uniform(0.1, 1.0)
            assert eta(parts.sum()) <= sum(eta(x) for x in parts) + 1e-12

    def test_cesaro_sequence_tracks_direct_limit(self):
        # Sequences with a known limit: Cesaro means must approach it too.
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.uniform(-2, 2)
            r = rng.uniform(-0.9, 0.9)
            seq = [a + r ** n for n in range(1, 2000)]
            rep = limit_estimate(seq, tol=1e-12, window=3)
            assert abs(rep.cesaro_sequence[-1] - a) < 0.02
            assert abs(rep.cesaro_sequence[-1] - a) < abs(rep.cesaro_sequence[10] - a) + 1e-12
