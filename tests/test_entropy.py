"""Unit tests for the scalar entropy layer and partition algebra."""

import math

import numpy as np
import pytest

from szwalk import (JointDistribution, Partition, ProbVector, ValidationError,
                    conditional_entropy, entropy, eta, is_coarser, join, joint_entropy,
                    limit_estimate)

from helpers import random_joint, random_partition, random_prob_vector, coarsen

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


class TestEntropy:
    def test_point_mass(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_four(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-14)

    def test_half_quarter_quarter(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * LN2, abs=1e-14)

    def test_invalid_vector(self):
        with pytest.raises(ValidationError):
            entropy([0.7, 0.7])


class TestConditionalEntropy:
    def test_diagonal_joint_is_zero(self):
        j = JointDistribution({(i, i): 0.25 for i in range(4)})
        assert conditional_entropy(j) == 0.0

    def test_product_joint_gives_marginal_entropy(self):
        p = [0.2, 0.3, 0.5]
        q = [0.6, 0.4]
        j = JointDistribution({(c, d): p[c] * q[d] for c in range(3) for d in range(2)})
        assert conditional_entropy(j) == pytest.approx(entropy(p), abs=1e-12)

    def test_hand_oracle_joint(self):
        # Direct evaluation of sum_D mu(D) sum_C eta(mu(C|D)):
        # mu(D=0)=3/4 with conditional [2/3,1/3], mu(D=1)=1/4 deterministic.
        j = JointDistribution({(0, 0): 0.5, (1, 0): 0.25, (1, 1): 0.25})
        assert conditional_entropy(j) == pytest.approx(0.4773856262211096, abs=1e-13)

    def test_needs_length_two(self):
        with pytest.raises(ValidationError):
            conditional_entropy(JointDistribution({(0, 0, 0): 1.0}))

    def test_invalid_joint_rejected(self):
        with pytest.raises(ValidationError):
            JointDistribution({(0, 0): 0.5, (1, 1): 0.2})


class TestJointDistribution:
    def test_mixed_key_lengths_rejected(self):
        with pytest.raises(ValidationError):
            JointDistribution({(0,): 0.5, (0, 1): 0.5})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            JointDistribution({(0, 0): 1.2, (1, 1): -0.2})

    def test_marginal(self):
        j = JointDistribution({(0, 0): 0.5, (1, 0): 0.25, (1, 1): 0.25})
        assert np.allclose(j.marginal(1).entries, [0.75, 0.25])


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

    def test_join_idempotent(self):
        c = Partition([[0, 1], [2, 3]])
        assert join([c, c]) == c

    def test_join_complementary_splits_is_atomic(self):
        c = Partition([[0, 1], [2, 3]])
        d = Partition([[0, 2], [1, 3]])
        assert join([c, d]) == Partition.atomic(4)

    def test_join_with_coarser_returns_finer(self):
        c = Partition([[0], [1], [2, 3]])
        d = Partition([[0, 1], [2, 3]])
        assert is_coarser(d, c)
        assert join([d, c]) == c

    def test_join_mismatched_ranges(self):
        with pytest.raises(ValidationError):
            join([Partition.atomic(3), Partition.atomic(4)])

    def test_is_coarser_two_block_vs_atomic(self):
        assert is_coarser(Partition([[0, 1], [2, 3]]), Partition.atomic(4))

    def test_atomic_not_coarser_than_two_block(self):
        assert not is_coarser(Partition.atomic(4), Partition([[0, 1], [2, 3]]))

    def test_is_coarser_reflexive(self):
        c = Partition([[0, 2], [1, 3]])
        assert is_coarser(c, c)

    def test_is_coarser_mismatched_ranges(self):
        with pytest.raises(ValidationError):
            is_coarser(Partition.atomic(3), Partition.atomic(4))

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValidationError):
            Partition([[0, 1], [1, 2]])

    def test_gap_rejected(self):
        with pytest.raises(ValidationError):
            Partition([[0], [2]])

    def test_blocks_sorted_by_smallest_member(self):
        p = Partition([[3, 2], [1, 0]], labels=["hi", "lo"])
        assert p.blocks == ((0, 1), (2, 3))
        assert p.labels == ("lo", "hi")

    def test_join_labels_concatenated(self):
        c = Partition([[0, 1], [2, 3]], labels=["a", "b"])
        d = Partition([[0, 2], [1, 3]], labels=["x", "y"])
        assert set(join([c, d]).labels) == {"a&x", "a&y", "b&x", "b&y"}


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


class TestProperties:
    def test_chain_rule_random_joints(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            lhs = joint_entropy(j)
            rhs = entropy(j.marginal(1)) + conditional_entropy(j)
            assert abs(lhs - rhs) < 1e-10

    def test_conditioning_on_finer_partition_cannot_increase_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(4, 10))
            mu = random_prob_vector(rng, n)
            c = random_partition(rng, n, int(rng.integers(2, n)))
            d = random_partition(rng, n, int(rng.integers(2, n)))
            b = coarsen(rng, d)

            def cond(cc, dd):
                support = {}
                for ci, cb in enumerate(cc.blocks):
                    for di, db in enumerate(dd.blocks):
                        w = sum(mu[o] for o in set(cb) & set(db))
                        if w > 0:
                            support[(ci, di)] = w
                return conditional_entropy(JointDistribution(support))

            assert cond(c, d) <= cond(c, b) + 1e-12

    def test_entropy_bounded_by_log_length(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_prob_vector(rng, int(rng.integers(2, 12)))
            assert entropy(p) <= math.log(len(p)) + 1e-12

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
