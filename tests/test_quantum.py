"""Unit tests for density states and measurement instruments."""

import math

import numpy as np
import pytest

from szwalk import (DensityState, Instrument, ValidationError, apply_instrument,
                    coherent_instrument, general_instrument, lvn_instrument, maximally_mixed,
                    outcome_pmf, pure_state)
from szwalk.quantum import min_eigenvalue
from szwalk.walks import coin_vertex_instrument, hadamard_eigenstate, position_instrument

from helpers import random_coherent, random_density, random_general, random_lvn, random_unitary

SQRT2 = math.sqrt(2.0)


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

    def test_general_family_only_needs_completeness(self):
        u1 = np.eye(2, dtype=complex)
        u2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        t = general_instrument([u1 / SQRT2, u2 / SQRT2], labels=["a", "b"])
        assert t.n_outcomes == 2 and t.outcome_labels == ("a", "b")
        assert np.array_equal(t.kraus[1], u2 / SQRT2)

    def test_instrument_defaults_labels(self):
        t = Instrument([np.eye(2)])
        assert t.outcome_labels == ("0",) and isinstance(t.kraus, tuple)

    @pytest.mark.parametrize("kraus, labels, match", [
        ([], None, "at least one"),
        ([np.eye(2), np.zeros((3, 3))], None, "mismatched"),
        ([np.eye(2)], ["a", "b"], "2 labels for 1 outcomes"),
        ([np.eye(2) / SQRT2], None, "completeness"),
    ])
    def test_instrument_rejects(self, kraus, labels, match):
        with pytest.raises(ValidationError, match=match):
            Instrument(kraus, labels)

    def test_coherent_instrument_without_vectors_rejected(self):
        with pytest.raises(ValidationError, match="at least one basis vector"):
            coherent_instrument([])


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
        with pytest.raises(ValidationError):
            apply_instrument(t, [4], maximally_mixed(4).matrix)


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
