"""Unit tests for shift permutations and coined walks."""

import math

import numpy as np
import pytest

from szwalk import (NumericError, Partition, ProbVector, ResourceLimitError, ShiftPermutation,
                    ValidationError, coined_walk, hadamard_coin, hadamard_walk, integer_shift,
                    maximally_mixed, unitary_power)
from szwalk.walks import (MAX_DIM, basis_index, coin_vertex_instrument, coin_vertex_labels,
                          hadamard_eigenstate, position_instrument, vertex_partition)

from helpers import eigencheck, random_unitary

SQRT2 = math.sqrt(2.0)


class TestHadamardCoin:
    def test_involution(self):
        h = hadamard_coin()
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)

    def test_fixed_direction(self):
        # h maps (1+sqrt2, 1) to itself: the coin part of the walk eigenvector.
        h = hadamard_coin()
        v = np.array([1 + SQRT2, 1.0])
        assert np.allclose(h @ v, v, atol=1e-14)

    def test_columns_orthonormal(self):
        h = hadamard_coin()
        assert np.allclose(h.conj().T @ h, np.eye(2), atol=1e-15)


class TestIntegerShift:
    def test_right_mover_wraps(self):
        s = integer_shift(3)
        assert s.sigma[basis_index(0, 2, 3)] == basis_index(0, 0, 3)

    def test_left_mover_wraps(self):
        s = integer_shift(5)
        assert s.sigma[basis_index(1, 0, 5)] == basis_index(1, 4, 5)

    def test_too_small(self):
        with pytest.raises(ValidationError):
            integer_shift(1)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            ShiftPermutation((0, 0, 1, 2), coin_count=2, vertex_count=2)

    @pytest.mark.parametrize("sigma, coin_count, vertex_count, field", [
        ((0, 1.0, 2, 3), 2, 2, "sigma"),  # once a raw IndexError in `coined_walk`
        ((False, True, 2, 3), 2, 2, "sigma"),  # once "assembled walk not unitary"
        ((0, 1, 2, 3), 2.0, 2, "coin_count"),  # once a raw TypeError
        ((0, 1), True, 2, "coin_count"),
        ((0, 1), 2, True, "vertex_count"),
        ((0, 1, 2, 3), 2, np.float64(2.0), "vertex_count"),
        ((), 0, 2, "coin_count"),
        ((), 2, 0, "vertex_count")])
    def test_number_rule(self, sigma, coin_count, vertex_count, field):
        """Every sigma entry and both counts are integers (a bool is not one), the counts >= 1;
        anything else is a `ValidationError` naming the field."""
        with pytest.raises(ValidationError, match=f"^{field} "):
            ShiftPermutation(sigma, coin_count, vertex_count)

    def test_valid_permutations_are_unchanged(self):
        shift = ShiftPermutation((1, 0, 3, 2), coin_count=2, vertex_count=2)
        assert shift.sigma == (1, 0, 3, 2) and shift.dim == 4
        entries = tuple(np.int64(e) for e in (1, 0, 3, 2))
        numpy_ints = ShiftPermutation(entries, np.int64(2), np.int32(2))
        assert numpy_ints.sigma is entries and np.array_equal(numpy_ints.operator(),
                                                              shift.operator())
        assert coined_walk(shift, [np.eye(2)] * 2).unitary.shape == (4, 4)
        assert integer_shift(3).sigma == (1, 2, 0, 5, 3, 4)


class TestCoinedWalk:
    def test_identity_coins_give_permutation(self):
        shift = integer_shift(4)
        walk = coined_walk(shift, [np.eye(2)] * 4)
        assert np.allclose(walk.unitary, shift.operator(), atol=1e-15)
        assert walk.space_homogeneous

    def test_hadamard_walk_unitary_structure(self):
        N = 5
        walk = hadamard_walk(N)
        h = hadamard_coin()
        coin_layer = np.kron(h, np.eye(N))
        assert np.allclose(walk.unitary, integer_shift(N).operator() @ coin_layer, atol=1e-15)

    def test_mixed_coins_not_homogeneous(self):
        shift = integer_shift(3)
        coins = [np.eye(2), hadamard_coin(), np.eye(2)]
        walk = coined_walk(shift, coins)
        assert not walk.space_homogeneous

    def test_non_unitary_coin_rejected(self):
        with pytest.raises(ValidationError, match="not unitary"):
            coined_walk(integer_shift(3), [np.eye(2) * 0.5] * 3)

    def test_the_first_non_unitary_coin_is_named(self):
        coins = [np.eye(2), np.eye(2) * 0.5, 2 * hadamard_coin(), np.eye(2)]
        with pytest.raises(ValidationError, match=r"^coin at vertex 1 not unitary: residual 7\.5"):
            coined_walk(integer_shift(4), coins)

    def test_coin_layer_puts_each_coin_on_its_vertex(self):
        rng = np.random.default_rng(4)
        coins = [random_unitary(rng, 2) for _ in range(3)]
        expected = np.zeros((6, 6), dtype=complex)
        for v, c in enumerate(coins):
            expected[np.ix_([v, 3 + v], [v, 3 + v])] = c
        walk = coined_walk(integer_shift(3), coins)
        assert np.array_equal(walk.unitary, integer_shift(3).operator() @ expected)

    def test_wrong_coin_count_rejected(self):
        with pytest.raises(ValidationError):
            coined_walk(integer_shift(3), [np.eye(2)] * 2)


class TestHadamardWalkAction:
    def test_transition_amplitudes(self):
        # U|c,v> = (|R,v+1> + (-1)^{delta_cL} |L,v-1>)/sqrt2
        N = 5
        U = hadamard_walk(N).unitary
        for c in (0, 1):
            for v in range(N):
                col = U[:, basis_index(c, v, N)]
                expected = np.zeros(2 * N, dtype=complex)
                expected[basis_index(0, (v + 1) % N, N)] = 1 / SQRT2
                expected[basis_index(1, (v - 1) % N, N)] = (-1) ** c / SQRT2
                assert np.allclose(col, expected, atol=1e-15)

    def test_transition_probabilities_half(self):
        N = 5
        U = hadamard_walk(N).unitary
        for c in (0, 1):
            for v in range(N):
                amp = U[basis_index(0, (v + 1) % N, N), basis_index(c, v, N)]
                assert abs(amp) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_usquared_on_coin_sums(self):
        # U^2 |R+L, v> = |L,v> + |R,v+2>  and  U^2 |L-R, v> = |L,v-2> - |R,v>
        N = 5
        U = hadamard_walk(N).unitary
        U2 = U @ U
        for v in range(N):
            plus = np.zeros(2 * N, dtype=complex)
            plus[basis_index(0, v, N)] = 1.0
            plus[basis_index(1, v, N)] = 1.0
            got = U2 @ plus
            expected = np.zeros(2 * N, dtype=complex)
            expected[basis_index(1, v, N)] = 1.0
            expected[basis_index(0, (v + 2) % N, N)] = 1.0
            assert np.allclose(got, expected, atol=1e-14)

            minus = np.zeros(2 * N, dtype=complex)
            minus[basis_index(1, v, N)] = 1.0
            minus[basis_index(0, v, N)] = -1.0
            got = U2 @ minus
            expected = np.zeros(2 * N, dtype=complex)
            expected[basis_index(1, (v - 2) % N, N)] = 1.0
            expected[basis_index(0, v, N)] = -1.0
            assert np.allclose(got, expected, atol=1e-14)


class TestUnitaryPower:
    def test_first_power(self):
        walk = hadamard_walk(3)
        assert np.allclose(unitary_power(walk, 1), walk.unitary, atol=1e-15)

    def test_squared_transition_pattern(self):
        # |<e|U^2|c,v>|^2 = 1/4 on (R,v), (L,v), (R,v+2), (L,v-2); 0 elsewhere.
        N = 5
        walk = hadamard_walk(N)
        U2 = unitary_power(walk, 2)
        probs = np.abs(U2) ** 2
        for c in (0, 1):
            for v in range(N):
                col = probs[:, basis_index(c, v, N)]
                hits = {basis_index(0, v, N), basis_index(1, v, N),
                        basis_index(0, (v + 2) % N, N), basis_index(1, (v - 2) % N, N)}
                for e in range(2 * N):
                    expected = 0.25 if e in hits else 0.0
                    assert col[e] == pytest.approx(expected, abs=1e-14)

    def test_permutation_walk_power_is_identity(self):
        walk = coined_walk(integer_shift(4), [np.eye(2)] * 4)
        assert np.allclose(unitary_power(walk, 4), np.eye(8), atol=1e-14)

    def test_zero_power_rejected(self):
        with pytest.raises(ValidationError):
            unitary_power(hadamard_walk(3), 0)


class TestEigencheck:
    def test_walk_eigenvector_has_unit_eigenvalue(self):
        for N in (3, 5, 9):
            rho = hadamard_eigenstate(N).matrix
            # A pure state's columns are multiples of its vector: take the largest one.
            vec = rho[:, int(np.argmax(np.real(np.diagonal(rho))))]
            lam = eigencheck(hadamard_walk(N).unitary, vec)
            assert lam == pytest.approx(1.0, abs=1e-12)

    def test_identity_always_returns_one(self):
        assert eigencheck(np.eye(4), [0.3, 0.1, -0.5, 1.0]) == pytest.approx(1.0)

    def test_non_eigenvector_rejected(self):
        e0 = np.zeros(10)
        e0[0] = 1.0
        with pytest.raises(NumericError, match="residual"):
            eigencheck(hadamard_walk(5).unitary, e0)


class TestWalkMeasurementSetups:
    def test_vertex_partition_blocks(self):
        p = vertex_partition(3)
        assert p.blocks == ((0, 3), (1, 4), (2, 5))
        assert p.labels == ("v0", "v1", "v2")

    def test_coin_vertex_labels(self):
        assert coin_vertex_labels(3) == ("R0", "R1", "R2", "L0", "L1", "L2")

    def test_eigenstate_really_is_eigenvector(self):
        N = 7
        rho = hadamard_eigenstate(N)
        U = hadamard_walk(N).unitary
        assert np.abs(U @ rho.matrix @ U.conj().T - rho.matrix).max() < 1e-12


class TestWalkProperties:
    def test_unitarity_of_random_walks(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            N = int(rng.integers(2, 6))
            sigma = tuple(int(x) for x in rng.permutation(2 * N))
            shift = ShiftPermutation(sigma, coin_count=2, vertex_count=N)
            coins = [random_unitary(rng, 2) for _ in range(N)]
            walk = coined_walk(shift, coins)
            assert np.abs(walk.unitary.conj().T @ walk.unitary - np.eye(2 * N)).max() < 1e-10

    def test_probability_columns_sum_to_one(self):
        walk = hadamard_walk(5)
        for m in (1, 2, 3, 4):
            probs = np.abs(unitary_power(walk, m)) ** 2
            assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("build, count", [
    (integer_shift, True), (integer_shift, 3.0), (integer_shift, float("nan")),
    (hadamard_walk, 2.5), (hadamard_walk, True), (hadamard_walk, "5"),
    (lambda m: unitary_power(hadamard_walk(3), m), True),
    (lambda m: unitary_power(hadamard_walk(3), m), 2.0),
    (coin_vertex_instrument, True), (coin_vertex_instrument, 2.5),
    (position_instrument, float("nan")), (position_instrument, 0),
    (vertex_partition, 3.0), (hadamard_eigenstate, True), (maximally_mixed, 4.0),
    (ProbVector.uniform, True), (ProbVector.uniform, float("nan")),
    (lambda i: ProbVector.point_mass(i, 2), True), (lambda n: ProbVector.point_mass(0, n), 2.0),
    (Partition.atomic, True), (Partition.atomic, 1.5),
])
def test_counts_follow_the_number_rule(build, count):
    """A count is an integer (numpy integers too) in range: a bool, float, NaN or str raises
    ValidationError instead of passing as 1, ending in a TypeError, or being truncated."""
    with pytest.raises(ValidationError, match="integer|outside range"):
        build(count)


def test_numpy_integer_counts_accepted():
    assert hadamard_walk(np.int64(3)).dim == 6
    assert unitary_power(hadamard_walk(3), np.int32(2)).shape == (6, 6)
    assert ProbVector.point_mass(np.int64(1), np.int64(2)).entries.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("N", [pytest.param(10**30, id="N=1e30"), MAX_DIM // 2 + 1])
@pytest.mark.parametrize("build", [hadamard_walk, position_instrument, coin_vertex_instrument,
                                   vertex_partition, hadamard_eigenstate])
def test_cycle_walk_over_the_dimension_budget_raises(build, N):
    """2N over MAX_DIM raises before anything is allocated: no OverflowError or numpy error."""
    with pytest.raises(ResourceLimitError, match="over the dimension budget of 256"):
        build(N)
