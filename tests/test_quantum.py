"""Unit tests for density states and measurement instruments."""

import math

import numpy as np
import pytest

from szwalk import (DensityState, Instrument, ValidationError, apply_instrument,
                    coherent_instrument, cylinder_probability, general_instrument,
                    hadamard_walk, lvn_instrument, maximally_mixed, outcome_pmf, pure_state)
from szwalk.quantum import min_eigenvalue, orthonormal_columns, shared_zero
from szwalk.walks import coin_vertex_instrument, hadamard_eigenstate, position_instrument

from helpers import (dense_apply, dense_coherent, dense_kraus_tree_family, dense_position,
                     dense_supports, ix_apply, ix_outcome_probs, random_coherent, random_density,
                     random_general, random_lvn, random_unitary)

SQRT2 = math.sqrt(2.0)


def block_lvn(rng) -> Instrument:
    """Rank-2 and rank-1 projections on coordinates {0,1,2} and on {3,4,5} of C^6, from
    random bases: orthogonal pairs that share a support, and pairs with disjoint ones."""
    projections = []
    for first in (0, 3):
        basis = np.zeros((6, 3), dtype=complex)
        basis[first:first + 3] = random_unitary(rng, 3)
        for cols in ([0, 1], [2]):
            projections.append(basis[:, cols] @ basis[:, cols].conj().T)
    return lvn_instrument(projections)


def explicit_kraus_family(rng) -> Instrument:
    """K0 on {0,1,2} and K1 on {1,2,3} of C^5 (partial, overlapping supports), completed by a
    diagonal K2 on the whole space."""
    k0 = np.zeros((5, 5), dtype=complex)
    k1 = np.zeros((5, 5), dtype=complex)
    k0[:3, :3] = 0.6 * random_unitary(rng, 3)
    k1[1:4, 1:4] = 0.5 * random_unitary(rng, 3)
    rest = np.eye(5) - k0.conj().T @ k0 - k1.conj().T @ k1
    return general_instrument([k0, k1, np.diag(np.sqrt(np.real(np.diagonal(rest))))])


class TestMakeDensity:
    def test_maximally_mixed_is_valid(self):
        rho = DensityState(np.eye(3) / 3)
        assert rho.dim == 3

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityState([[0.5, 1.0], [0.0, 0.5]])

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityState(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            DensityState([[1.5, 0.0], [0.0, -0.5]])


class TestStateConstructors:
    def test_maximally_mixed_two(self):
        assert np.allclose(maximally_mixed(2).matrix, np.diag([0.5, 0.5]))

    def test_maximally_mixed_dim_one(self):
        assert np.allclose(maximally_mixed(1).matrix, [[1.0]])

    def test_maximally_mixed_bad_dim(self):
        with pytest.raises(ValidationError):
            maximally_mixed(0)

    def test_pure_state_basis_vector(self):
        rho = pure_state([1.0, 0.0, 0.0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_pure_state_scaling_invariant(self):
        v = np.array([0.3 + 0.1j, -0.7, 0.2j])
        assert np.allclose(pure_state(v).matrix, pure_state(2.0 * v).matrix, atol=1e-14)

    def test_pure_state_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            pure_state([0.0, 0.0])

    def test_hadamard_eigenstate_diagonal(self):
        # <R,v|rho|R,v> = (3+2sqrt2)/(N(4+2sqrt2)), <L,v|rho|L,v> = 1/(N(4+2sqrt2))
        N = 5
        rho = hadamard_eigenstate(N)
        diag = np.real(np.diagonal(rho.matrix))
        expected_r = (3 + 2 * SQRT2) / (N * (4 + 2 * SQRT2))
        expected_l = 1 / (N * (4 + 2 * SQRT2))
        assert np.allclose(diag[:N], expected_r, atol=1e-14)
        assert np.allclose(diag[N:], expected_l, atol=1e-14)


class TestInstrumentConstructors:
    def test_lvn_keeps_projections_and_default_labels(self):
        projections = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        t = lvn_instrument(projections)
        assert t.outcome_labels == ("0", "1")
        assert all(np.array_equal(b, p) and b.dtype == complex
                   for b, p in zip(t.kraus, projections))

    def test_position_projections_are_rank_two_lvn(self):
        t = position_instrument(5)
        assert t.outcome_labels == ("v0", "v1", "v2", "v3", "v4")
        assert all(np.real(np.trace(p)) == pytest.approx(2.0) for p in t.kraus)

    def test_overlapping_projections_rejected(self):
        plus = np.full((2, 2), 0.5)
        with pytest.raises(ValidationError):
            lvn_instrument([np.diag([1.0, 0.0]), plus])

    def test_near_orthogonal_projections_fail_on_their_overlap(self):
        """A complete family of projections whose one overlapping pair passes completeness to
        COMPLETENESS_TOL but not the overlap check; the pairs with disjoint supports before it
        are skipped, and it is still reported."""
        d = 1.25e-10  # |<a|b>| = sin d; at π/8 the overlap reads 1.21× the completeness residual
        a = [math.cos(math.pi / 8 + d / 2), math.sin(math.pi / 8 + d / 2)]
        b = [-math.sin(math.pi / 8 - d / 2), math.cos(math.pi / 8 - d / 2)]
        near = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
        near[0][2:, 2:] = np.outer(a, a)
        near[1][2:, 2:] = np.outer(b, b)
        with pytest.raises(ValidationError,
                           match=r"^projections 1 and 2 overlap: max \|P_iP_j\| = 1\.067e-10$"):
            lvn_instrument([np.diag([1.0, 1.0, 0.0, 0.0]), *near])

    def test_projections_with_disjoint_or_shared_supports_accepted(self):
        assert position_instrument(7).n_outcomes == 7  # pairwise disjoint supports
        t = block_lvn(np.random.default_rng(5))  # orthogonal pairs on one shared support
        assert [flat.size for flat, _, _ in t.supports] == [9, 9, 9, 9]

    def test_non_projection_kraus_rejected_for_lvn(self):
        scaled = np.eye(2) / SQRT2
        with pytest.raises(ValidationError, match="not a projection"):
            lvn_instrument([scaled, scaled])

    def test_incomplete_family_rejected(self):
        with pytest.raises(ValidationError, match="completeness"):
            lvn_instrument([np.diag([1.0, 0.0])])

    def test_coherent_computational_basis(self):
        t = coherent_instrument(list(np.eye(4, dtype=complex)))
        assert t.n_outcomes == 4 and t.dim == 4
        assert all(np.array_equal(b, np.diag(np.eye(4)[i])) for i, b in enumerate(t.kraus))

    def test_coherent_hadamard_basis(self):
        t = coherent_instrument([[1 / SQRT2, 1 / SQRT2], [1 / SQRT2, -1 / SQRT2]])
        assert np.allclose(t.kraus[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert np.allclose(t.kraus[1], [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_coherent_repeated_vector_rejected(self):
        v = [1.0, 0.0]
        with pytest.raises(ValidationError, match="orthonormal"):
            coherent_instrument([v, v])

    def test_nan_basis_rejected(self):
        with pytest.raises(ValidationError, match="orthonormal"):
            orthonormal_columns([[math.nan, 0.0], [0.0, 1.0]], 2)

    def test_general_family_only_needs_completeness(self):
        u1 = np.eye(2, dtype=complex)
        u2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = general_instrument([u1 / SQRT2, u2 / SQRT2], labels=["a", "b"])
        assert t.n_outcomes == 2 and t.outcome_labels == ("a", "b")
        assert np.array_equal(t.kraus[1], u2 / SQRT2)

    def test_instrument_defaults_labels(self):
        t = Instrument(2, [(None, np.eye(2))])
        assert t.outcome_labels == ("0",) and isinstance(t.kraus, tuple)

    @pytest.mark.parametrize("kraus, labels, match", [
        ([], None, "at least one"),
        ([np.eye(2), np.zeros((3, 3))], None, "mismatched"),
        ([np.eye(2)], ["a", "b"], "2 labels for 1 outcomes"),
        ([np.eye(2) / SQRT2], None, "completeness"),
    ])
    def test_instrument_rejects(self, kraus, labels, match):
        with pytest.raises(ValidationError, match=match):
            general_instrument(kraus, labels)

    def test_coherent_instrument_without_vectors_rejected(self):
        with pytest.raises(ValidationError, match="at least one basis vector"):
            coherent_instrument([])


def assert_matches_dense(t: Instrument, dense: list) -> None:
    """`t.supports` equals, byte for byte, what the old scan of the dense operators gave;
    `t.kraus` gives those operators back, and `support_index` the scan's union."""
    expected = dense_supports(dense)
    assert len(t.supports) == len(expected) == len(t.kraus)
    for (flat, b, bh), (flat0, b0, bh0) in zip(t.supports, expected):
        assert flat.dtype == flat0.dtype and flat.tobytes() == flat0.tobytes()
        assert b.flags.c_contiguous and bh.flags.c_contiguous
        assert b.shape == b0.shape and bits(b) == bits(b0) and bits(bh) == bits(bh0)
    assert all(np.array_equal(k, d) for k, d in zip(t.kraus, dense))
    n = t.n_outcomes
    for outcomes in ([0], [n - 1, 0], list(range(0, n, 2)), range(n)):
        union = sum(np.abs(dense[i]) for i in outcomes) != 0
        s = np.flatnonzero(union.any(axis=0) | union.any(axis=1))
        index = t.support_index(outcomes)  # the whole space included
        assert index.dtype == np.intp
        assert index.tobytes() == (s[:, None] * t.dim + s).ravel().tobytes()


class TestBlocksMatchTheDenseConstruction:
    """The constructors make their blocks without dense operators, and a dense family becomes
    blocks in `general_instrument`: either way the blocks are those the dense construction
    gave, bit for bit."""

    @pytest.mark.parametrize("N", [3, 5, 25])
    def test_walk_instruments(self, N):
        assert_matches_dense(position_instrument(N), dense_position(N))
        assert_matches_dense(coin_vertex_instrument(N), dense_coherent(np.eye(2 * N)))

    def test_coherent_on_a_random_dense_basis(self):
        basis = list(random_unitary(np.random.default_rng(31), 6).T)
        assert np.array_equal(coherent_instrument(basis).supports[0][0], np.arange(36))
        assert_matches_dense(coherent_instrument(basis), dense_coherent(basis))

    def test_coherent_on_a_sparse_basis(self):
        """Vectors of 2×2 rotations on {0,3} and {1,2}, and one basis vector: partial supports."""
        rng = np.random.default_rng(37)
        basis = np.zeros((5, 5), dtype=complex)
        basis[4, 4] = 1.0
        for pair in ([0, 3], [1, 2]):
            basis[np.array(pair)[:, None], pair] = random_unitary(rng, 2)
        t = coherent_instrument(list(basis))
        assert [flat.size for flat, _, _ in t.supports] == [4, 4, 4, 4, 1]
        assert_matches_dense(t, dense_coherent(list(basis)))

    def test_lvn_from_dense_projections(self):
        rng = np.random.default_rng(41)
        for dense in (dense_position(4), block_lvn(rng).kraus, random_lvn(rng, 6, 3).kraus):
            assert_matches_dense(lvn_instrument(dense), dense)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_general_on_a_kraus_tree_family(self, seed):
        dense = dense_kraus_tree_family(np.random.default_rng(seed), 8)
        assert_matches_dense(general_instrument(dense), dense)
        dense = explicit_kraus_family(np.random.default_rng(seed)).kraus
        assert_matches_dense(general_instrument(dense), dense)

    def test_lvn_checks_an_instrument_of_blocks(self):
        blocks = [([0, 2], np.eye(2)), ([1], [[1.0]])]
        assert lvn_instrument(Instrument(3, blocks, ["a", "b"])).outcome_labels == ("a", "b")
        shared = [([0, 1], np.full((2, 2), 0.5)), ([0, 1], [[0.5, -0.5], [-0.5, 0.5]]),
                  ([2], [[1.0]])]  # |+><+| and |-><-| multiply on {0, 1}
        assert lvn_instrument(Instrument(3, shared)).n_outcomes == 3
        scaled = [([0, 1], np.eye(2) / SQRT2), ([0, 1], np.eye(2) / SQRT2), ([2], [[1.0]])]
        with pytest.raises(ValidationError, match=r"^outcome 0: not a projection \(\|B-B†\|=0"):
            lvn_instrument(Instrument(3, scaled))

    def test_every_support_is_an_int_array(self):
        """Each constructor holds every support, the whole space included, as an integer
        ndarray; `support` and `support_index` give integer ndarrays too."""
        rng = np.random.default_rng(43)
        families = [Instrument(2, [(None, np.eye(2))]), Instrument(3, [(range(3), np.eye(3))]),
                    general_instrument([np.eye(3)]),
                    general_instrument([np.eye(2), np.zeros((2, 2))]),
                    lvn_instrument(dense_position(3)), coherent_instrument(list(np.eye(4))),
                    random_coherent(rng, 4), position_instrument(3), coin_vertex_instrument(3)]
        for t in families:
            indices = [flat for flat, _, _ in t.supports]
            indices += [t.support(i) for i in range(t.n_outcomes)]
            indices += [t.support_index(outcomes) for outcomes in ([0], range(t.n_outcomes), [])]
            for index in indices:
                assert isinstance(index, np.ndarray) and index.dtype.kind == "i"
        assert np.array_equal(families[0].supports[0][0], np.arange(4))

    def test_one_outcome_support_index_is_a_copy_of_the_held_index(self):
        """A one-outcome set gives the flat index its outcome holds, as a fresh array: writing
        into it leaves the instrument's supports as they were. A larger set gives the union's
        index."""
        t = position_instrument(3)
        index = t.support_index([1])
        assert index is not t.supports[1][0] and np.array_equal(index, t.supports[1][0])
        assert index.tolist() == [1 * 6 + 1, 1 * 6 + 4, 4 * 6 + 1, 4 * 6 + 4]
        held = [flat.copy() for flat, _, _ in t.supports]
        t.support_index([0])[0] = 35
        index[:] = 0
        assert all(np.array_equal(flat, h) for (flat, _, _), h in zip(t.supports, held))
        s = [0, 1, 3, 4]
        assert t.support_index([1, 0]).tolist() == [i * 6 + j for i in s for j in s]

    def test_marks_are_the_union_of_the_supports(self):
        """Row j of `marks` marks the union of `support(i)` over the j-th set, for sets of every
        size and supports of every size, the whole space and the empty one included; an empty
        set marks nothing, and no sets give no rows."""
        rng = np.random.default_rng(47)
        families = [position_instrument(4), coin_vertex_instrument(3), block_lvn(rng),
                    random_lvn(rng, 6, 3), random_general(rng, 5, 2),
                    general_instrument([np.eye(2), np.zeros((2, 2))]),
                    Instrument(4, [([0, 3], np.eye(2)), ([1], [[1.0]]), ([2], [[1.0]])])]
        for t in families:
            n = t.n_outcomes
            sets = [[], [0], [n - 1, 0], list(range(0, n, 2)), range(n), [n - 1]]
            marks = t.marks(sets)
            assert marks.dtype == bool and marks.shape == (len(sets), t.dim)
            for row, outcomes in zip(marks, sets):
                union = {s for i in outcomes for s in t.support(i).tolist()}
                assert row.tolist() == [j in union for j in range(t.dim)]
            assert not marks[0].any()
            assert t.marks([]).shape == (0, t.dim)

    def test_zero_operator_has_an_empty_block(self):
        t = general_instrument([np.eye(2), np.zeros((2, 2))])
        flat, b, bh = t.supports[1]
        assert flat.size == 0 and b.shape == bh.shape == (0, 0)
        assert np.array_equal(t.kraus[1], np.zeros((2, 2)))
        assert lvn_instrument([np.eye(2), np.zeros((2, 2))]).n_outcomes == 2
        assert np.array_equal(apply_instrument(t, [1], np.eye(2) / 2), np.zeros((2, 2)))

    @pytest.mark.parametrize("support, block", [
        ([1, 0], np.eye(2)),  # not increasing
        ([0, 0], np.eye(2)),  # repeated
        ([0, 3], np.eye(2)),  # outside range(3)
        ([-1, 0], np.eye(2)),
        ([0.0, 1.0], np.eye(2)),  # not integers
        ([0, 1], np.eye(3)),  # block of the wrong shape
        ([[0, 1]], np.eye(2)),
        ([0, 1], [[1.0, math.nan], [0.0, 1.0]]),
    ])
    def test_instrument_rejects_a_bad_block(self, support, block):
        with pytest.raises(ValidationError, match="^outcome 0: need increasing S in range"):
            Instrument(3, [(support, block), ([2], [[1.0]])])

    def test_the_first_failing_outcome_is_named_across_support_sizes(self):
        """Outcomes are checked in one stack per support size, the sizes in order of first
        appearance; each message still names the first outcome that fails."""
        nan_block = [[1.0, math.nan], [0.0, 1.0]]
        for blocks, first in (
                ([([0], [[1.0]]), ([1, 2], nan_block), ([5], [[1.0]])], 1),  # 2 fails first
                ([([0], [[1.0]]), ([1, 2], nan_block), ([3], np.eye(2))], 1),  # 2: bad shape
                ([([0], np.eye(2)), ([1], [[math.nan]])], 0)):
            with pytest.raises(ValidationError, match=f"^outcome {first}: need increasing S"):
                Instrument(4, blocks)
        half = [[1 / SQRT2]]
        blocks = [([0], [[1.0]]), ([1, 2], np.eye(2) / SQRT2), ([1, 2], np.eye(2) / SQRT2),
                  ([3], half), ([3], half)]  # outcomes 1 to 4 are not projections
        with pytest.raises(ValidationError, match=r"^outcome 1: not a projection"):
            lvn_instrument(Instrument(4, blocks))

    def test_instrument_rejects_a_bad_dimension(self):
        for dim in (0, 2.0, True):
            with pytest.raises(ValidationError, match="instrument dimension"):
                Instrument(dim, [(None, np.eye(2))])


class TestApplyInstrument:
    def test_full_outcome_set_preserves_trace(self):
        t = position_instrument(3)
        rho = random_density(np.random.default_rng(1), 6)
        out = apply_instrument(t, range(t.n_outcomes), rho.matrix)
        assert np.real(np.trace(out)) == pytest.approx(1.0, abs=1e-12)

    def test_single_outcome_on_mixed_state(self):
        N = 4
        t = coin_vertex_instrument(N)
        out = apply_instrument(t, [3], maximally_mixed(2 * N).matrix)
        expected = np.zeros((2 * N, 2 * N))
        expected[3, 3] = 1 / (2 * N)
        assert np.allclose(out, expected, atol=1e-14)

    def test_empty_outcome_set_gives_zero(self):
        t = coin_vertex_instrument(3)
        out = apply_instrument(t, [], maximally_mixed(6).matrix)
        assert np.abs(out).max() == 0.0

    def test_out_of_range_outcome(self):
        t = coin_vertex_instrument(2)
        for outcomes in ([4], [-1], [1.7], ["1"], [True], [np.float64(2.0)], [1, 1], [0, 2, 0]):
            with pytest.raises(ValidationError, match="outcome"):
                apply_instrument(t, outcomes, maximally_mixed(4).matrix)

    @pytest.mark.parametrize("i", [-1, 3, True, 1.0, np.float64(0.0), "0", None])
    def test_one_outcome_rule(self, i):
        """`support`, `support_index` and `apply_instrument` reject the same outcome indices
        with the same error: a negative index does not count from the end, and a bool is not
        an outcome."""
        t = position_instrument(3)
        calls = (lambda: t.support(i), lambda: t.support_index([0, i]),
                 lambda: t.marks([[0], [0, i]]),
                 lambda: apply_instrument(t, [i], maximally_mixed(6).matrix))
        for call in calls:
            with pytest.raises(ValidationError, match=r"^outcome set .*: index .* "
                                                      r"(is not an integer|outside range)"):
                call()
        assert np.array_equal(t.support(np.int64(2)), t.support(2))

    def test_integer_outcome_sets(self):
        t = position_instrument(3)
        rho = random_density(np.random.default_rng(2), 6).matrix
        expected = bits(apply_instrument(t, [0, 2], rho))
        for outcomes in ([np.int64(0), 2], range(0, 3, 2), np.array([0, 2]), (0, np.int32(2))):
            assert bits(apply_instrument(t, outcomes, rho)) == expected
        assert apply_instrument(t, np.array([], dtype=int), rho) is shared_zero(6)

    @pytest.mark.parametrize("make", [
        lambda rng: position_instrument(5),
        lambda rng: coin_vertex_instrument(5),
        lambda rng: random_lvn(rng, 8, 3),
    ])
    def test_projections_match_dense_products_bitwise(self, make):
        rng = np.random.default_rng(11)
        t = make(rng)
        rho = random_density(rng, t.dim).matrix
        for outcomes in ([0], [1, 0], range(t.n_outcomes)):
            assert np.array_equal(apply_instrument(t, outcomes, rho), dense_apply(t, outcomes, rho))

    def test_kraus_families_match_dense_products(self):
        rng = np.random.default_rng(12)
        # B0 has a zero row and column 0, so its support leaves index 0 out; B1 completes it.
        b0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b0[0, :] = b0[:, 0] = 0.0
        b0 *= 0.9 / np.linalg.norm(b0, 2)
        vals, vecs = np.linalg.eigh(np.eye(4) - b0.conj().T @ b0)
        b1 = random_unitary(rng, 4) @ vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T
        families = [general_instrument([b0, b1])] + [random_general(rng, 5, 3) for _ in range(3)]
        assert families[0].supports[0][1].shape == (3, 3)
        for t in families:
            rho = random_density(rng, t.dim).matrix
            for outcomes in ([0], [1], range(t.n_outcomes)):
                assert np.allclose(apply_instrument(t, outcomes, rho),
                                   dense_apply(t, outcomes, rho), rtol=0.0, atol=1e-15)


    def test_whole_space_terms_in_one_set_match_dense_products(self):
        """A whole-space outcome beside others is gathered and scattered by its full index,
        as any other term is, and matches the dense products."""
        rng = np.random.default_rng(15)
        dense = random_general(rng, 6, 2)
        assert all(b.shape == (6, 6) for _, b, _ in dense.supports)
        b0 = np.zeros((6, 6), dtype=complex)
        b0[1:4, 1:4] = 0.6 * random_unitary(rng, 3)
        vals, vecs = np.linalg.eigh(np.eye(6) - b0.conj().T @ b0)
        mixed = general_instrument([b0, vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T])
        assert [b.shape for _, b, _ in mixed.supports] == [(3, 3), (6, 6)]
        for t in (dense, mixed):
            rho = random_density(rng, 6).matrix
            for op in (rho, rho.T):  # rho.T is not contiguous: `ravel` copies it
                for outcomes in ([0, 1], (1, 0), range(2)):
                    assert np.allclose(apply_instrument(t, outcomes, op),
                                       dense_apply(t, outcomes, op), rtol=0.0, atol=1e-15)


def bits(m: np.ndarray) -> bytes:
    """The bytes of a complex array: tells -0.0 from +0.0 and keeps NaN payloads."""
    return np.ascontiguousarray(m, dtype=complex).tobytes()


KERNEL_INSTRUMENTS = {
    "position": lambda rng: position_instrument(5),
    "coin-vertex": lambda rng: coin_vertex_instrument(5),
    "random-coherent": lambda rng: random_coherent(rng, 6),
    "block-lvn": block_lvn,
    "random-lvn": lambda rng: random_lvn(rng, 6, 3),
    "explicit-kraus": explicit_kraus_family,
    "whole-space": lambda rng: random_general(rng, 5, 3),
}


def kernel_states(rng, t: Instrument) -> dict:
    """A random rho, one that is exactly zero on outcome 0's support block, and one whose
    zeros there are -0.0."""
    rho = random_density(rng, t.dim).matrix
    flat = t.supports[0][0]
    on_block = np.zeros(t.dim * t.dim, dtype=bool)
    on_block[flat] = True
    on_block = on_block.reshape(t.dim, t.dim)
    return {"random": rho, "zero-block": np.where(on_block, 0.0, rho),
            "minus-zero": np.where(on_block, -0.0, rho)}


class TestFlatIndexKernel:
    """`apply_instrument` gathers and scatters by flat index and skips exactly-zero blocks:
    bit for bit what the `np.ix_` formulation with a dense buffer gives."""

    @pytest.mark.parametrize("name", KERNEL_INSTRUMENTS)
    def test_matches_the_ix_kernel_bitwise(self, name):
        """Each outcome set as a list and as a tuple: a one-outcome tuple is the engine's form,
        which takes the kernel's lean path."""
        rng = np.random.default_rng(17)
        t = KERNEL_INSTRUMENTS[name](rng)
        n = t.n_outcomes
        outcome_sets = [[i] for i in range(n)] + [[0, 1], [1, 0], [n - 1, 0], list(range(n)), []]
        if name == "coin-vertex":
            outcome_sets += [[v, v + 5] for v in range(5)]  # vertex blocks
        for rho in kernel_states(rng, t).values():
            for outcomes in outcome_sets:
                expected = bits(ix_apply(t, outcomes, rho))
                for form in (list, tuple):
                    assert bits(apply_instrument(t, form(outcomes), rho)) == expected

    @pytest.mark.parametrize("name", ["position", "whole-space"])
    def test_the_tuple_form_rejects_what_the_list_form_rejects(self, name):
        """A one-outcome tuple is checked as the list: rho's shape first, then the index's type
        and range, each with the same `ValidationError` (the message names the set as given)."""
        t = KERNEL_INSTRUMENTS[name](np.random.default_rng(41))
        n, rho = t.n_outcomes, random_density(np.random.default_rng(43), t.dim).matrix
        cases = [(i, rho) for i in (True, -1, n, 1.0, np.float64(0.0), "0", None)]
        cases += [(0, rho[:-1]), (0, rho[:, :, None]), (0, rho[0]), (True, rho[:-1])]
        for i, op in cases:
            messages = []
            for outcomes in ([i], (i,)):
                with pytest.raises(ValidationError) as caught:
                    apply_instrument(t, outcomes, op)
                messages.append(str(caught.value).replace(repr(outcomes), "<set>"))
            assert messages[0] == messages[1]
            assert messages[0].startswith("state of shape" if op is not rho else "outcome set")

    def test_minus_zero_never_reaches_the_buffer(self):
        """B_S rho[S,S] B_S† holds a -0.0 here; added into the +0 buffer it reads +0.0."""
        t = position_instrument(4)
        rho = np.full((8, 8), -0.0 - 0.0j)
        rho[1, 1] = -1.0 - 1.0j
        flat, b, bh = t.supports[1]
        product = b.dot(rho.take(flat).reshape(b.shape)).dot(bh).view(np.float64)
        assert np.signbit(product[product == 0.0]).any()
        for outcomes in ([1], [0, 1, 2, 3]):
            out = apply_instrument(t, outcomes, rho)
            parts = out.view(np.float64)
            assert not np.signbit(parts[parts == 0.0]).any()
            assert bits(out) == bits(ix_apply(t, outcomes, rho))

    @pytest.mark.parametrize("name", ["position", "block-lvn", "explicit-kraus"])
    def test_nan_in_a_support_block_reaches_the_child(self, name):
        t = KERNEL_INSTRUMENTS[name](np.random.default_rng(19))
        flat = t.supports[0][0]
        rho = np.zeros((t.dim, t.dim), dtype=complex)
        rho.flat[flat[0]] = np.nan  # the block is otherwise exactly zero
        for outcomes in ([0], list(range(t.n_outcomes))):
            assert np.isnan(apply_instrument(t, outcomes, rho)).any()
            assert np.isnan(ix_apply(t, outcomes, rho)).any()

    @pytest.mark.parametrize("name", KERNEL_INSTRUMENTS)
    def test_outcome_pmf_matches_the_ix_blocks_bitwise(self, name):
        rng = np.random.default_rng(23)
        t = KERNEL_INSTRUMENTS[name](rng)
        for state in (random_density(rng, t.dim), maximally_mixed(t.dim)):
            expected = np.clip(ix_outcome_probs(t, state), 0.0, None)
            assert outcome_pmf(t, state).entries.tobytes() == expected.tobytes()


class TestSharedZero:
    """A call whose terms are all skipped returns `shared_zero(dim)`: one read-only +0 operator
    per dimension, the same object whatever the instrument and the outcome set."""

    def test_one_object_per_dimension(self):
        zero = shared_zero(10)
        rho = np.zeros((10, 10), dtype=complex)
        for t in (position_instrument(5), coin_vertex_instrument(5),
                  lvn_instrument(dense_position(5))):
            for outcomes in ([0], [1, 0], list(range(t.n_outcomes)), []):
                assert apply_instrument(t, outcomes, rho) is zero
        other = apply_instrument(position_instrument(4), [0], np.zeros((8, 8)))
        assert other is shared_zero(8) and other is not zero and other.shape == (8, 8)
        assert shared_zero(np.int64(10)) is zero

    def test_read_only_and_all_plus_zero(self):
        zero = shared_zero(6)
        assert zero.dtype == complex and zero.shape == (6, 6)
        assert bits(zero) == bytes(zero.nbytes)
        with pytest.raises(ValueError):
            zero[0, 0] = 1.0
        with pytest.raises(ValueError):
            np.add(zero, 1.0, out=zero)
        assert bits(zero) == bytes(zero.nbytes)

    @pytest.mark.parametrize("name", KERNEL_INSTRUMENTS)
    def test_returned_for_the_empty_set_and_for_zero_blocks(self, name):
        rng = np.random.default_rng(31)
        t = KERNEL_INSTRUMENTS[name](rng)
        zero = shared_zero(t.dim)
        states = kernel_states(rng, t)
        assert apply_instrument(t, [], states["random"]) is zero
        for state in ("zero-block", "minus-zero"):
            out = apply_instrument(t, [0], states[state])
            if t.supports[0][1].shape[0] == t.dim:  # one outcome, whole space: its own product
                assert out is not zero and out.flags.writeable
            else:
                assert out is zero

    @pytest.mark.parametrize("name", ["position", "block-lvn", "explicit-kraus"])
    def test_not_returned_for_a_nan_in_a_support_block(self, name):
        t = KERNEL_INSTRUMENTS[name](np.random.default_rng(19))
        rho = np.zeros((t.dim, t.dim), dtype=complex)
        rho.flat[t.supports[0][0][0]] = np.nan  # the block is otherwise exactly zero
        for outcomes in ([0], list(range(t.n_outcomes))):
            out = apply_instrument(t, outcomes, rho)
            assert out is not shared_zero(t.dim) and np.isnan(out).any()

    def test_not_returned_on_the_whole_space_single_outcome_path(self):
        t = random_general(np.random.default_rng(37), 5, 3)
        rho = np.zeros((5, 5), dtype=complex)
        out = apply_instrument(t, [1], rho)
        assert out is not shared_zero(5) and out.flags.writeable and not out.any()
        assert apply_instrument(t, [0, 1, 2], rho) is shared_zero(5)  # every term skipped

    @pytest.mark.parametrize("unitary, blocks", [(None, [[0], [1]]),
                                                 (hadamard_walk(5).unitary, [[0], [2]])])
    def test_impossible_cylinder_has_probability_plus_zero(self, unitary, blocks):
        p = cylinder_probability(unitary, position_instrument(5), maximally_mixed(10), blocks)
        assert p == 0.0 and not math.copysign(1.0, p) < 0


class TestOutcomePmf:
    def test_coherent_on_mixed_is_uniform(self):
        N = 5
        pmf = outcome_pmf(coin_vertex_instrument(N), maximally_mixed(2 * N))
        assert np.allclose(pmf.entries, 1 / (2 * N), atol=1e-14)

    def test_coherent_on_eigenstate(self):
        N = 5
        pmf = outcome_pmf(coin_vertex_instrument(N), hadamard_eigenstate(N))
        expected_r = (3 + 2 * SQRT2) / (N * (4 + 2 * SQRT2))
        assert np.allclose(pmf.entries[:N], expected_r, atol=1e-14)
        assert np.allclose(pmf.entries[N:], 1 / (N * (4 + 2 * SQRT2)), atol=1e-14)

    def test_rank2_on_mixed_uniform_over_vertices(self):
        # tr(P_v rho P_v) = 2/(2N) = 1/N for the maximally mixed state.
        N = 5
        pmf = outcome_pmf(position_instrument(N), maximally_mixed(2 * N))
        assert np.allclose(pmf.entries, 1 / N, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            outcome_pmf(coin_vertex_instrument(3), maximally_mixed(4))


class TestChannelProperties:
    def test_trace_preserved_for_random_instruments(self):
        rng = np.random.default_rng(41)
        for i in range(30):
            dim = int(rng.integers(2, 7))
            t = [random_coherent, lambda r, d: random_lvn(r, d, max(2, d // 2)),
                 lambda r, d: random_general(r, d, 3)][i % 3](rng, dim)
            rho = random_density(rng, dim)
            out = apply_instrument(t, range(t.n_outcomes), rho.matrix)
            assert abs(np.real(np.trace(out)) - 1.0) < 1e-10

    def test_kraus_images_positive(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            t = random_general(rng, dim, 2)
            rho = random_density(rng, dim)
            for i in range(t.n_outcomes):
                image = apply_instrument(t, [i], rho.matrix)
                assert min_eigenvalue(image) >= -1e-9

    def test_lvn_channel_idempotent(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            dim = int(rng.integers(3, 7))
            t = random_lvn(rng, dim, 2)
            rho = random_density(rng, dim)
            for i in range(t.n_outcomes):
                once = apply_instrument(t, [i], rho.matrix)
                twice = apply_instrument(t, [i], once)
                assert np.abs(twice - once).max() < 1e-10

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            t = random_general(rng, dim, 3)
            pmf = outcome_pmf(t, random_density(rng, dim))
            assert abs(pmf.entries.sum() - 1.0) < 1e-10

    def test_general_kraus_from_unitary_columns(self):
        rng = np.random.default_rng(59)
        u = random_unitary(rng, 4)
        t = coherent_instrument(list(u.T))
        rho = random_density(rng, 4)
        pmf = outcome_pmf(t, rho)
        expected = [float(np.real(np.vdot(col, rho.matrix @ col))) for col in u.T]
        assert np.allclose(pmf.entries, expected, atol=1e-12)
