"""Unit tests for the classical Markov baselines."""

import math

import numpy as np
import pytest

from szwalk import (ProbVector, TransitionMatrix, ValidationError, classical, cycle_walk,
                    entropy_rate, eta, markov_entropy, matrix_power, stationary_distribution)

from helpers import process_joint_entropy, svd_cesaro_projector

LN2 = math.log(2.0)
# Column-stochastic: 0 -> 1 (0.3) or 2 (0.7), 1 -> 3, 2 -> 3, 3 -> 0.
PERIOD_THREE = [[0.0, 0.0, 0.0, 1.0],
                [0.3, 0.0, 0.0, 0.0],
                [0.7, 0.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 0.0]]


def test_column_entropies_skip_zero_entries(monkeypatch):
    """eta runs once per nonzero transition probability; a zero would add an exact +0.0."""
    calls = []

    def counting_eta(x):
        calls.append(x)
        return eta(x)

    monkeypatch.setattr(classical, "eta", counting_eta)
    P = matrix_power(cycle_walk(5), 2)  # three nonzero entries per column
    assert markov_entropy(P, ProbVector.uniform(5)) == pytest.approx(1.5 * LN2, abs=1e-15)
    assert len(calls) == np.count_nonzero(P.entries) == 15
    assert min(calls) > 0


class TestCycleWalk:
    def test_n3_columns(self):
        P = cycle_walk(3)
        for v in range(3):
            col = P.entries[:, v]
            assert col[(v + 1) % 3] == 0.5 and col[(v - 1) % 3] == 0.5
            assert col.sum() == 1.0

    def test_n5_column_sums(self):
        assert np.allclose(cycle_walk(5).entries.sum(axis=0), 1.0, atol=1e-15)

    def test_n4_even_allowed(self):
        P = cycle_walk(4)
        assert P.entries[1, 0] == 0.5 and P.entries[3, 0] == 0.5

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            cycle_walk(2)


class TestMatrixPower:
    def test_cycle_squared_pattern(self):
        P2 = matrix_power(cycle_walk(5), 2)
        for v in range(5):
            assert P2.entries[v, v] == pytest.approx(0.5, abs=1e-15)
            assert P2.entries[(v + 2) % 5, v] == pytest.approx(0.25, abs=1e-15)
            assert P2.entries[(v - 2) % 5, v] == pytest.approx(0.25, abs=1e-15)

    def test_first_power_is_identity_operation(self):
        P = cycle_walk(5)
        assert np.array_equal(matrix_power(P, 1).entries, P.entries)

    def test_permutation_power_stays_permutation(self):
        P = TransitionMatrix(np.roll(np.eye(4), 1, axis=0))
        P2 = matrix_power(P, 2)
        assert set(np.unique(P2.entries)) == {0.0, 1.0}

    def test_zero_power_rejected(self):
        with pytest.raises(ValidationError):
            matrix_power(cycle_walk(3), 0)


class TestStationaryDistribution:
    def test_cycle_is_uniform(self):
        mu = stationary_distribution(cycle_walk(5))
        assert np.allclose(mu.entries, 0.2, atol=1e-12)

    def test_identity_returns_uniform_start(self):
        mu = stationary_distribution(TransitionMatrix(np.eye(3)))
        assert np.allclose(mu.entries, 1 / 3, atol=1e-15)

    def test_two_state_swap(self):
        # p_{0,1} = p_{1,0} = 1: hand-solved fixed point is (1/2, 1/2).
        mu = stationary_distribution(TransitionMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(mu.entries, 0.5, atol=1e-12)

    def test_periodic_path_chain_is_its_cesaro_limit(self):
        # Walk on the path 0-1-2: period 2, so the uniform start oscillates; the
        # average of its iterates tends to the fixed point (1/4,1/2,1/4).
        P = TransitionMatrix([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
        mu = stationary_distribution(P)
        assert np.allclose(mu.entries, [0.25, 0.5, 0.25], atol=1e-10)

    def test_period_three_chain(self):
        # 0 -> 1|2 (0.3/0.7), 1 -> 3, 2 -> 3, 3 -> 0: period 3 and not doubly stochastic.
        mu = stationary_distribution(TransitionMatrix(PERIOD_THREE))
        assert np.allclose(mu.entries, [1 / 3, 1 / 10, 7 / 30, 1 / 3], rtol=0, atol=1e-12)

    def test_reducible_chain_keeps_the_mass_of_each_class(self):
        # The period-3 chain beside a closed 2-state class: the Cesàro limit from uniform
        # keeps 4/6 of the mass in the first class and 2/6 in the second.
        P = np.zeros((6, 6))
        P[:4, :4] = PERIOD_THREE
        P[4:, 4:] = [[0.2, 0.6], [0.8, 0.4]]
        mu = stationary_distribution(TransitionMatrix(P))
        expected = np.concatenate([4 / 6 * np.array([1 / 3, 1 / 10, 7 / 30, 1 / 3]),
                                   2 / 6 * np.array([3 / 7, 4 / 7])])
        assert np.allclose(mu.entries, expected, rtol=0, atol=1e-12)

    def test_stationarity_residual_on_random_chains(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            P = TransitionMatrix(np.array([w / w.sum() for w in rng.random((n, n)).T + 1e-3]).T)
            mu = stationary_distribution(P)
            assert np.abs(P.entries @ mu.entries - mu.entries).max() < 1e-10


def _reducible_chain(rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """A row-stochastic m (m[s, t] the probability that s moves to t) in shuffled state order,
    and its closed classes: two dense aperiodic ones, one of period 3 and a fixed state, fed by
    transient states that also move among themselves."""
    sizes = [int(rng.integers(1, 4)) for _ in range(3)]  # the period-3 class's three groups
    a, b, k = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
    n = a + b + sum(sizes) + 1 + k
    m = np.zeros((n, n))
    m[:a, :a] = rng.random((a, a)) + 0.05
    m[a:a + b, a:a + b] = rng.random((b, b)) + 0.05
    starts = np.cumsum([a + b, *sizes])
    groups = [np.arange(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
    for g, h in zip(groups, groups[1:] + groups[:1]):
        m[g[:, None], h] = rng.random((len(g), len(h))) + 0.05
    m[n - k - 1, n - k - 1] = 1.0
    m[n - k:] = rng.random((k, n)) * (rng.random((k, n)) < 0.6)
    m[n - k:, 0] += 0.05  # every transient state leaks into the first class
    m /= m.sum(axis=1, keepdims=True)
    classes = [np.arange(a), np.arange(a, a + b), np.concatenate(groups), np.array([n - k - 1])]
    order = rng.permutation(n)
    position = np.argsort(order)
    return m[order][:, order], [np.sort(position[c]) for c in classes]


class TestCesaroLimit:
    """`cesaro_limit` against the SVD projector of m - 1 (`helpers.svd_cesaro_projector`)."""

    def test_matches_the_svd_projector_on_random_reducible_chains(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m, classes = _reducible_chain(rng)
            w = rng.random(len(m))
            w /= w.sum()
            limit = classical.cesaro_limit(m, w)
            assert np.abs(limit - w @ svd_cesaro_projector(m)).max() <= 1e-12
            kept = np.concatenate(classes)
            assert np.all(np.delete(limit, kept) == 0.0)
            assert limit[kept].sum() == pytest.approx(1.0, abs=1e-12)

    def test_a_transient_state_whose_row_is_empty_loses_its_mass(self):
        # State 1's children were all pruned: it lies on no cycle, so it is transient, and
        # the mass that reaches it is gone, as in the exact limit.
        m = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        w = np.array([0.2, 0.3, 0.5])
        limit = classical.cesaro_limit(m, w)
        assert np.abs(limit - w @ svd_cesaro_projector(m)).max() <= 1e-15
        assert limit.tolist() == [0.0, 0.0, 0.5]

    def test_a_chain_with_no_closed_class_keeps_nothing(self):
        # Every child of state 0 was pruned and state 1 leads only there: no state recurs.
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert classical.cesaro_limit(m, np.array([0.5, 0.5])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("loss", [1e-13, 1e-3])
    def test_a_closed_class_whose_rows_lose_mass_keeps_it(self, loss):
        """Pruned children leave a closed class's rows short of 1. The exact Cesàro limit of
        such a class is 0 (its mass decays like (1 - loss)ⁿ), and the SVD oracle agrees once the
        loss exceeds its tolerance. `cesaro_limit` keeps the mass that reaches the class and
        returns what its rows lose to the class's first state: for a pruning loss at round-off
        level both give the same limit, and for any loss it is the stationary vector of the
        class with the loss put back on that state."""
        m = np.array([[0.0, 0.5, 0.5, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.3, 0.0, 0.7],
                      [0.0, 0.6, 0.4, 0.0]])
        m[2, 3] -= loss
        m[3, 2] -= loss
        w = np.array([0.4, 0.1, 0.2, 0.3])
        limit = classical.cesaro_limit(m, w)
        restored = m.copy()
        restored[1:, 1] += 1.0 - restored[1:].sum(axis=1)
        assert np.abs(limit - classical.cesaro_limit(restored, w)).max() <= 1e-15
        assert limit[0] == 0.0 and limit.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.abs(limit @ restored - limit).max() <= 1e-15
        oracle = w @ svd_cesaro_projector(m)
        if loss < 1e-9:
            assert np.abs(limit - oracle).max() <= 1e-12
        else:
            assert np.abs(oracle).max() <= 1e-12


class TestMarkovEntropy:
    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_cycle_entropy(self, N):
        P = cycle_walk(N)
        assert markov_entropy(P, ProbVector.uniform(N)) == pytest.approx(LN2, abs=1e-14)

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_cycle_squared_entropy(self, N):
        P2 = matrix_power(cycle_walk(N), 2)
        assert markov_entropy(P2, ProbVector.uniform(N)) == pytest.approx(1.5 * LN2, abs=1e-14)

    def test_permutation_entropy_zero(self):
        P = TransitionMatrix(np.roll(np.eye(4), 1, axis=0))
        assert markov_entropy(P, ProbVector.uniform(4)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            markov_entropy(cycle_walk(3), ProbVector.uniform(4))

    def test_nonlinearity_witness(self):
        P = cycle_walk(5)
        mu = ProbVector.uniform(5)
        h1 = markov_entropy(P, mu)
        h2 = markov_entropy(matrix_power(P, 2), mu)
        assert abs(h2 - 2 * h1) > 0.25


class TestEntropyRate:
    def test_uniform_start_is_constant(self):
        rep = entropy_rate(cycle_walk(5), ProbVector.uniform(5), n_max=8, tol=1e-9)
        assert all(a == pytest.approx(LN2, abs=1e-14) for a in rep.direct_sequence)
        assert rep.converged and rep.converged_value == pytest.approx(LN2, abs=1e-14)

    def test_point_mass_start_converges(self):
        rep = entropy_rate(cycle_walk(5), ProbVector.point_mass(0, 5), n_max=60, tol=1e-10)
        assert rep.converged
        assert rep.converged_value == pytest.approx(LN2, abs=1e-9)

    def test_identity_chain_rate_zero(self):
        rep = entropy_rate(TransitionMatrix(np.eye(4)), ProbVector.uniform(4),
                           n_max=5, tol=1e-12)
        assert rep.converged and rep.converged_value == 0.0


class TestProcessJointEntropy:
    def test_depth_zero_is_initial_entropy(self):
        got = process_joint_entropy(cycle_walk(5), ProbVector.uniform(5), 0)
        assert got == pytest.approx(math.log(5), abs=1e-14)

    def test_one_step_adds_ln2(self):
        # 10 equally weighted paths of mass 1/10 each.
        got = process_joint_entropy(cycle_walk(5), ProbVector.uniform(5), 1)
        assert got == pytest.approx(math.log(5) + LN2, abs=1e-13)

    def test_deterministic_chain_has_zero_entropy(self):
        P = TransitionMatrix(np.roll(np.eye(4), 1, axis=0))
        got = process_joint_entropy(P, ProbVector.point_mass(2, 4), 6)
        assert got == 0.0

    def test_matches_entropy_chain_rule_on_cycle(self):
        # H(X_0..X_n) = H(X_0) + n*ln2 for the uniform cycle.
        for n in range(4):
            got = process_joint_entropy(cycle_walk(5), ProbVector.uniform(5), n)
            assert got == pytest.approx(math.log(5) + n * LN2, abs=1e-12)


class TestCesaroConsistency:
    def test_joint_average_equals_chain_rule_sum(self):
        # H(X_0..X_n)/(n+1) = (H(X_0) + sum of the first n conditional
        # entropies)/(n+1): the enumeration and the rate sequence agree exactly.
        for P, mu0 in [(cycle_walk(5), ProbVector.uniform(5)),
                       (cycle_walk(3), ProbVector.point_mass(0, 3))]:
            rep = entropy_rate(P, mu0, n_max=8, tol=1e-12)
            h0 = sum(eta(x) for x in mu0.entries)
            for n in range(9):
                avg = process_joint_entropy(P, mu0, n) / (n + 1)
                expected = (h0 + sum(rep.direct_sequence[:n])) / (n + 1)
                assert avg == pytest.approx(expected, abs=1e-10)

    def test_joint_entropy_rate_matches_conditional_rate(self):
        # Both estimators approach the same limit on mixing 3-5 state chains.
        rng = np.random.default_rng(31)
        cases = []
        for size, depth in ((3, 10), (4, 9), (5, 8)):
            w = rng.random((size, size)) + 0.2
            cases.append((TransitionMatrix(w / w.sum(axis=0)), depth))
        for P, depth in cases:
            mu0 = ProbVector.uniform(P.size)
            rep = entropy_rate(P, mu0, n_max=depth, tol=1e-12)
            gaps = []
            for n in (2, depth):
                avg = process_joint_entropy(P, mu0, n) / (n + 1)
                gaps.append(abs(avg - rep.direct_sequence[n]))
            assert gaps[-1] < 0.05
            assert gaps[-1] < gaps[0] + 1e-12


P5, MU5 = cycle_walk(5), ProbVector.uniform(5)
# Counts follow the number rule: an integer (numpy's too), never a bool, a float or NaN.
NON_INTEGER_COUNTS = {
    "entropy_rate n_max=2.5": lambda: entropy_rate(P5, MU5, n_max=2.5, tol=1e-9),
    "entropy_rate n_max=3.0": lambda: entropy_rate(P5, MU5, n_max=3.0, tol=1e-9),
    "entropy_rate n_max=nan": lambda: entropy_rate(P5, MU5, n_max=math.nan, tol=1e-9),
    "matrix_power m=True": lambda: matrix_power(P5, True),
    "matrix_power m=2.0": lambda: matrix_power(P5, 2.0),
    "cycle_walk N=5.0": lambda: cycle_walk(5.0),
    "cycle_walk N=nan": lambda: cycle_walk(math.nan),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("case", NON_INTEGER_COUNTS)
    def test_non_integer_count_rejected(self, case):
        with pytest.raises(ValidationError, match="integer"):
            NON_INTEGER_COUNTS[case]()

    def test_numpy_integers_accepted(self):
        assert matrix_power(P5, np.int64(2)).size == 5
