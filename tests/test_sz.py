"""Unit tests for the SZ trajectory engine and its classical reductions."""

import gc
import math
import weakref

import numpy as np
import pytest

from szwalk import (AccuracyError, Partition, ResourceLimitError, RunOptions,
                    UnsupportedConfigurationError, ValidationError, apply_instrument,
                    coherent_instrument, cs_transition_matrix, cylinder_probability,
                    dynamical_entropy, entropy_rate, general_instrument, hadamard_walk,
                    lvn_instrument, markov_reduction, maximally_mixed, measurement_entropy, sz,
                    sz_entropy_run, unitary_power)
from szwalk.quantum import min_eigenvalue
from szwalk.walks import (basis_index, coin_vertex_instrument, hadamard_eigenstate,
                          position_instrument, vertex_partition)

from helpers import (conditional_sequence_from_levels, cylinder_level_joints, random_density,
                     random_general, random_lvn, random_unitary)

LN2 = math.log(2.0)


def _atomic_for(instrument):
    return Partition.atomic(instrument.n_outcomes, labels=instrument.outcome_labels)


class TestCylinderProbability:
    def test_full_outcome_set_is_normalized(self):
        N = 4
        t = coin_vertex_instrument(N)
        rho = maximally_mixed(2 * N)
        full = list(range(2 * N))
        got = cylinder_probability(hadamard_walk(N).unitary, t, rho, [full])
        assert got == pytest.approx(1.0, abs=1e-14)
        got = cylinder_probability(hadamard_walk(N).unitary, t, rho, [full] * 4)
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_vertex_block_sequences_follow_cycle_walk(self):
        # mu(C_{v_0},...,C_{v_n}) = (1/N) prod (delta_{v_k,v_{k-1}+1}+delta_{v_k,v_{k-1}-1})/2
        N = 5
        t = coin_vertex_instrument(N)
        rho = maximally_mixed(2 * N)
        U = hadamard_walk(N).unitary
        part = vertex_partition(N)
        for seq in [(0, 1, 2), (0, 1, 0), (0, 4, 3), (2, 3, 4, 0)]:
            blocks = [part.blocks[v] for v in seq]
            expected = 1.0 / N
            for prev, cur in zip(seq, seq[1:]):
                expected *= 0.5 * ((cur == (prev + 1) % N) + (cur == (prev - 1) % N))
            assert cylinder_probability(U, t, rho, blocks) == pytest.approx(expected, abs=1e-13)
        assert cylinder_probability(U, t, rho,
                                    [part.blocks[0], part.blocks[2]]) == pytest.approx(0.0)

    def test_constant_vertex_sequence_under_squared_walk(self):
        # Repeated measurement at one vertex halves the mass per step:
        # mu(v,...,v) with n+1 entries is 1/(2^n N).
        N = 5
        t = position_instrument(N)
        rho = maximally_mixed(2 * N)
        U2 = unitary_power(hadamard_walk(N), 2)
        for n in range(5):
            blocks = [[1]] * (n + 1)  # the rank-2 instrument's outcomes are vertices
            got = cylinder_probability(U2, t, rho, blocks)
            assert got == pytest.approx(1.0 / (2 ** n * N), abs=1e-13)

    def test_empty_sequence_rejected(self):
        t = coin_vertex_instrument(3)
        with pytest.raises(ValidationError):
            cylinder_probability(None, t, maximally_mixed(6), [])


class TestCSTransitionMatrix:
    def test_hadamard_walk_pattern(self):
        # |<e|U|f>|^2 = (1/2) delta_{u, v-(-1)^{delta_cL}}
        N = 5
        U = hadamard_walk(N).unitary
        P = cs_transition_matrix(U, list(np.eye(2 * N, dtype=complex)))
        for c in (0, 1):
            for v in range(N):
                col = P.entries[:, basis_index(c, v, N)]
                assert col[basis_index(0, (v + 1) % N, N)] == pytest.approx(0.5, abs=1e-14)
                assert col[basis_index(1, (v - 1) % N, N)] == pytest.approx(0.5, abs=1e-14)
                assert col.sum() == pytest.approx(1.0, abs=1e-14)

    def test_identity_gives_identity(self):
        P = cs_transition_matrix(np.eye(4), list(np.eye(4, dtype=complex)))
        assert np.allclose(P.entries, np.eye(4), atol=1e-14)

    def test_squared_walk_quarters(self):
        N = 5
        U2 = unitary_power(hadamard_walk(N), 2)
        P = cs_transition_matrix(U2, list(np.eye(2 * N, dtype=complex)))
        col = P.entries[:, basis_index(0, 0, N)]
        assert sorted(x for x in col if x > 1e-12) == pytest.approx([0.25] * 4, abs=1e-13)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValidationError, match="orthonormal"):
            cs_transition_matrix(np.eye(2), [[1.0, 0.0], [1.0, 0.0]])


class TestRunOptions:
    @pytest.mark.parametrize("field, value", [
        ("merge_tol", 0.0), ("tol", -1e-7), ("tol", float("nan")), ("prune_eps", -1e-14),
        ("n_max", -3), ("min_steps", -1), ("branch_budget", 0), ("window", 1),
        ("window", 2.9), ("n_max", True), ("tol", True), ("merge", "false"),
        ("classify", "no"), ("strict", 1), ("branch_budget", None),
    ])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"'{field}'"):
            RunOptions(**{field: value})

    def test_int_accepted_for_float_fields(self):
        assert RunOptions(tol=1, prune_eps=0, window=2).tol == 1


class TestSZEntropyRun:
    def test_eigenstate_atomic_run_is_ln2(self):
        N = 5
        run = sz_entropy_run(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                             hadamard_eigenstate(N),
                             _atomic_for(coin_vertex_instrument(N)),
                             RunOptions(n_max=8, min_steps=8))
        for a in run.report.direct_sequence[1:]:
            assert a == pytest.approx(LN2, abs=1e-12)
        assert run.report.converged

    def test_identity_dynamics_lvn_gives_zero(self):
        N = 4
        run = sz_entropy_run(None, position_instrument(N), maximally_mixed(2 * N),
                             Partition.atomic(N), RunOptions(n_max=6, min_steps=6))
        assert run.report.direct_sequence[1:] == (0.0,) * 6

    def test_branch_invariants(self):
        N = 5
        run = sz_entropy_run(unitary_power(hadamard_walk(N), 2), position_instrument(N),
                             maximally_mixed(2 * N), Partition.atomic(N),
                             RunOptions(n_max=6, min_steps=6))
        for branch in run.branches:
            op = branch.conditional_op
            assert abs(float(np.real(np.trace(op))) - branch.weight) < 1e-10
            assert min_eigenvalue(op) > -1e-9

    def test_normalization_at_every_depth(self):
        N = 5
        rho = random_density(np.random.default_rng(3), 2 * N)
        for depth in (1, 3, 5, 8):
            run = sz_entropy_run(hadamard_walk(N).unitary, coin_vertex_instrument(N), rho,
                                 vertex_partition(N), RunOptions(n_max=depth, min_steps=depth))
            total = sum(b.weight for b in run.branches) + run.pruned_mass
            assert abs(total - 1.0) < 1e-8

    def test_branch_budget_enforced(self):
        N = 5
        with pytest.raises(ResourceLimitError, match="budget"):
            sz_entropy_run(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                           maximally_mixed(2 * N), vertex_partition(N),
                           RunOptions(n_max=8, merge=False, branch_budget=10))

    def test_aggressive_pruning_warns_and_strict_raises(self):
        N = 3
        args = (hadamard_walk(N).unitary, coin_vertex_instrument(N), maximally_mixed(2 * N),
                vertex_partition(N))
        with pytest.warns(UserWarning, match="pruned mass"):
            run = sz_entropy_run(*args, RunOptions(n_max=3, prune_eps=0.5))
        assert run.pruned_mass == pytest.approx(1.0)
        with pytest.raises(AccuracyError, match="pruned mass"):
            sz_entropy_run(*args, RunOptions(n_max=3, prune_eps=0.5, strict=True))

    def test_partition_must_match_outcome_count(self):
        N = 3
        with pytest.raises(ValidationError):
            sz_entropy_run(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                           maximally_mixed(2 * N), Partition.atomic(N))


@pytest.fixture(scope="module")
def run():
    N = 5
    return sz_entropy_run(unitary_power(hadamard_walk(N), 2), position_instrument(N),
                          maximally_mixed(2 * N), Partition.atomic(N),
                          RunOptions(n_max=14, min_steps=14, classify=True))


class TestRankTwoSquaredRun:
    """The squared walk with the rank-2 position instrument: class dynamics."""

    def test_constant_class_mass_halves(self, run):
        for rec in run.records:
            assert rec.classes.constant == pytest.approx(2.0 ** -rec.depth, abs=1e-12)

    def test_class_recursions(self, run):
        cls = [rec.classes for rec in run.records]
        for n in range(1, len(cls)):
            e_expected = cls[n - 1].odd + 0.5 * (cls[n - 1].even + cls[n - 1].constant)
            o_expected = 0.5 * cls[n - 1].even
            assert cls[n].even == pytest.approx(e_expected, abs=1e-10)
            assert cls[n].odd == pytest.approx(o_expected, abs=1e-10)

    def test_conditional_entropy_matches_class_mixture(self, run):
        # The next conditional entropy mixes over the parent classes:
        # a_{n+1} = (e_n + c_n) * (3/2) ln2 + o_n * ln2
        for prev, rec in zip(run.records, run.records[1:]):
            expected = ((prev.classes.even + prev.classes.constant) * 1.5 * LN2
                        + prev.classes.odd * LN2)
            assert rec.a_n == pytest.approx(expected, abs=1e-10)

    def test_branch_child_distributions_are_the_two_cases(self, run):
        # Odd-class branches split {1/2,1/2}; even/constant split {1/2,1/4,1/4}.
        N = 5
        t = position_instrument(N)
        part = Partition.atomic(N)
        U2 = unitary_power(hadamard_walk(N), 2)
        for branch in run.branches:
            evolved = U2 @ branch.conditional_op @ U2.conj().T
            ws = []
            for block in part.blocks:
                w = float(np.real(np.trace(apply_instrument(t, block, evolved))))
                if w > 1e-13:
                    ws.append(w / branch.weight)
            ws = sorted(ws)
            if branch.stats.constant or branch.stats.parity == 0:
                assert ws == pytest.approx([0.25, 0.25, 0.5], abs=1e-10)
            else:
                assert ws == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_unmerged_classes_match_merged(self, run):
        N = 5
        args = (unitary_power(hadamard_walk(N), 2), position_instrument(N),
                maximally_mixed(2 * N), Partition.atomic(N))
        unmerged = sz_entropy_run(*args, RunOptions(n_max=6, min_steps=6, merge=False,
                                                    classify=True))
        assert len(unmerged.records) == 7
        for rec, ref in zip(unmerged.records, run.records):
            assert rec.classes.constant == pytest.approx(ref.classes.constant, abs=1e-12)
            assert rec.classes.even == pytest.approx(ref.classes.even, abs=1e-12)
            assert rec.classes.odd == pytest.approx(ref.classes.odd, abs=1e-12)
        # Depth 6 again, from every block history: constant, or else odd or
        # even by the parity of (length of its terminal constant run - 1).
        masses = {"constant": 0.0, "even": 0.0, "odd": 0.0}
        for seq, w in cylinder_level_joints(*args, 6)[6].items():
            tail = 1
            while tail < len(seq) and seq[-tail - 1] == seq[-1]:
                tail += 1
            key = "constant" if tail == len(seq) else ("odd" if tail % 2 == 0 else "even")
            masses[key] += w
        ref = run.records[6].classes
        assert masses["constant"] == pytest.approx(ref.constant, abs=1e-12)
        assert masses["even"] == pytest.approx(ref.even, abs=1e-12)
        assert masses["odd"] == pytest.approx(ref.odd, abs=1e-12)

    def test_depth_zero_is_all_constant(self, run):
        rec = run.records[0]
        assert rec.classes.constant == pytest.approx(1.0, abs=1e-14)
        assert rec.classes.even == 0.0 and rec.classes.odd == 0.0


class TestMergeExactness:
    def test_merge_on_off_agree_on_hadamard_cases(self):
        N = 3
        rho = maximally_mixed(2 * N)
        scenarios = [
            (hadamard_walk(N).unitary, coin_vertex_instrument(N), vertex_partition(N)),
            (unitary_power(hadamard_walk(N), 2), position_instrument(N), Partition.atomic(N)),
        ]
        for u, t, part in scenarios:
            on = sz_entropy_run(u, t, rho, part, RunOptions(n_max=7, min_steps=7))
            off = sz_entropy_run(u, t, rho, part, RunOptions(n_max=7, min_steps=7, merge=False))
            assert len(on.branches) < len(off.branches)
            for a, b in zip(on.report.direct_sequence, off.report.direct_sequence):
                assert a == pytest.approx(b, abs=1e-10)

    def test_engine_matches_bruteforce_enumeration(self):
        # Fresh cylinder-probability recomputation per sequence, chain-ruled
        # into a_n, must match the incremental engine.
        rng = np.random.default_rng(67)
        N = 3
        u = hadamard_walk(N).unitary
        t = coin_vertex_instrument(N)
        rho = random_density(rng, 2 * N)
        part = vertex_partition(N)
        run = sz_entropy_run(u, t, rho, part, RunOptions(n_max=5, min_steps=5))
        oracle = conditional_sequence_from_levels(cylinder_level_joints(u, t, rho, part, 5))
        assert len(oracle) == len(run.report.direct_sequence)
        for a, b in zip(run.report.direct_sequence, oracle):
            assert a == pytest.approx(b, abs=1e-10)


class TestMeasurementEntropy:
    def test_coherent_instrument_zero(self):
        N = 5
        rep = measurement_entropy(coin_vertex_instrument(N), maximally_mixed(2 * N),
                                  vertex_partition(N), RunOptions(n_max=6, min_steps=6))
        assert rep.direct_sequence[1:] == (0.0,) * 6
        assert rep.converged and rep.converged_value == 0.0

    def test_rank2_instrument_zero_for_any_state(self):
        N = 5
        rng = np.random.default_rng(71)
        for rho in (maximally_mixed(2 * N), hadamard_eigenstate(N), random_density(rng, 2 * N)):
            rep = measurement_entropy(position_instrument(N), rho, Partition.atomic(N),
                                      RunOptions(n_max=5, min_steps=5))
            assert rep.direct_sequence[1:] == (0.0,) * 5

    def test_random_lvn_instrument_nearly_zero(self):
        # Non-diagonal projections leave only floating-point crumbs.
        rng = np.random.default_rng(73)
        t = random_lvn(rng, 6, 3)
        rep = measurement_entropy(t, random_density(rng, 6), Partition.atomic(3),
                                  RunOptions(n_max=5, min_steps=5))
        assert all(abs(a) < 1e-12 for a in rep.direct_sequence[1:])

    def test_general_instrument_positive_and_matches_oracle(self):
        # Two unitary Kraus operators weighted 1/2: genuinely noisy measurement.
        rng = np.random.default_rng(79)
        dim = 4
        w = random_unitary(rng, dim)
        t = general_instrument([np.eye(dim) / math.sqrt(2), w / math.sqrt(2)])
        rho = random_density(rng, dim)
        part = Partition.atomic(2)
        rep = measurement_entropy(t, rho, part, RunOptions(n_max=6, min_steps=6))
        assert all(a >= 0.0 for a in rep.direct_sequence)
        assert rep.direct_sequence[3] > 0.1  # genuinely random outcomes
        oracle = conditional_sequence_from_levels(cylinder_level_joints(None, t, rho, part, 6))
        for a, b in zip(rep.direct_sequence, oracle):
            assert a == pytest.approx(b, abs=1e-10)


class TestDynamicalEntropy:
    def test_walk_with_vertex_blocks_gives_ln2(self):
        N = 5
        report = dynamical_entropy(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                                   maximally_mixed(2 * N), vertex_partition(N),
                                   RunOptions(n_max=10))
        assert report.dynamical_entropy == pytest.approx(LN2, abs=1e-10)

    def test_squared_walk_with_vertex_blocks(self):
        N = 5
        report = dynamical_entropy(unitary_power(hadamard_walk(N), 2),
                                   coin_vertex_instrument(N), maximally_mixed(2 * N),
                                   vertex_partition(N), RunOptions(n_max=10))
        assert report.dynamical_entropy == pytest.approx(1.5 * LN2, abs=1e-10)

    def test_walk_with_rank2_instrument(self):
        N = 5
        report = dynamical_entropy(hadamard_walk(N).unitary, position_instrument(N),
                                   maximally_mixed(2 * N), Partition.atomic(N),
                                   RunOptions(n_max=5, min_steps=5))
        assert report.dynamical_entropy == pytest.approx(LN2, abs=1e-9)

    def test_reports_carry_depth_records(self):
        N = 3
        opts = RunOptions(n_max=4)
        report = dynamical_entropy(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                                   maximally_mixed(2 * N), vertex_partition(N), opts)
        assert [rec.depth for rec in report.records] == list(range(len(report.records)))
        assert tuple(rec.a_n for rec in report.records) == report.sz_entropy.direct_sequence
        assert (report.dynamical_entropy
                == report.sz_entropy.converged_value
                - report.measurement_entropy.converged_value)

    def test_one_tree_resident_at_a_time(self, monkeypatch):
        # Each run holds its last branch list; none may outlive its report
        # while the next tree grows.
        runs, alive_at_start = [], []
        real_run = sz.sz_entropy_run

        def tracked_run(*args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(r() is not None for r in runs))
            run = real_run(*args, **kwargs)
            runs.append(weakref.ref(run))
            return run

        monkeypatch.setattr(sz, "sz_entropy_run", tracked_run)
        N = 3
        dynamical_entropy(unitary_power(hadamard_walk(N), 2), position_instrument(N),
                          maximally_mixed(2 * N), Partition.atomic(N), RunOptions(n_max=6))
        assert alive_at_start == [0, 0]


class TestMarkovReduction:
    def test_eigenstate_distribution_not_invariant_but_maps_to_uniform(self):
        N = 5
        red = markov_reduction(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                               hadamard_eigenstate(N))
        mu0 = red.initial_distribution.entries
        image = red.transition_matrix.entries @ mu0
        assert np.abs(image - 1.0 / (2 * N)).max() < 1e-12
        assert np.abs(mu0 - image).max() > 0.01

    def test_mixed_state_is_invariant(self):
        N = 5
        red = markov_reduction(hadamard_walk(N).unitary, coin_vertex_instrument(N),
                               maximally_mixed(2 * N))
        mu0 = red.initial_distribution.entries
        assert np.allclose(mu0, 1.0 / (2 * N), atol=1e-14)
        assert np.abs(red.transition_matrix.entries @ mu0 - mu0).max() < 1e-13

    def test_identity_dynamics_rate_zero(self):
        N = 3
        red = markov_reduction(np.eye(2 * N), coin_vertex_instrument(N), maximally_mixed(2 * N))
        assert np.allclose(red.transition_matrix.entries, np.eye(2 * N), atol=1e-14)
        rep = entropy_rate(red.transition_matrix, red.initial_distribution, n_max=4, tol=1e-10)
        assert rep.converged and rep.converged_value == 0.0

    def test_rank_one_projections_from_any_constructor(self):
        N = 3
        u = hadamard_walk(N).unitary
        rho = random_density(np.random.default_rng(5), 2 * N)
        basis = list(random_unitary(np.random.default_rng(6), 2 * N).T)
        coherent = coherent_instrument(basis)
        expected = markov_reduction(u, coherent, rho)
        for t in (lvn_instrument(coherent.kraus), general_instrument(coherent.kraus)):
            red = markov_reduction(u, t, rho)
            assert np.array_equal(red.transition_matrix.entries,
                                  expected.transition_matrix.entries)
            assert np.array_equal(red.initial_distribution.entries,
                                  expected.initial_distribution.entries)

    @pytest.mark.parametrize("make", [
        lambda: random_general(np.random.default_rng(7), 4, 4),
        # complete, but the second operator has a zero diagonal, so no vector is read off it
        lambda: general_instrument([np.diag([1.0, 0.0]), [[0.0, 1.0], [0.0, 0.0]]]),
    ])
    def test_non_projective_family_unsupported(self, make):
        t = make()
        with pytest.raises(UnsupportedConfigurationError, match="rank-1 projections"):
            markov_reduction(random_unitary(np.random.default_rng(8), t.dim), t,
                             maximally_mixed(t.dim))

    def test_requires_coherent_instrument(self):
        N = 3
        with pytest.raises(UnsupportedConfigurationError):
            markov_reduction(hadamard_walk(N).unitary, position_instrument(N),
                             maximally_mixed(2 * N))

    def test_reduction_rate_matches_engine(self):
        # The classical fast path and the trajectory engine agree on the
        # atomic-partition coherent run for a generic state.
        N = 3
        rng = np.random.default_rng(83)
        rho = random_density(rng, 2 * N)
        u = hadamard_walk(N).unitary
        t = coin_vertex_instrument(N)
        red = markov_reduction(u, t, rho)
        rate = entropy_rate(red.transition_matrix, red.initial_distribution,
                            n_max=8, tol=1e-12)
        run = sz_entropy_run(u, t, rho, _atomic_for(t), RunOptions(n_max=8, min_steps=8))
        # engine a_n = rate direct_sequence shifted by one (a_0 is H(X_0))
        for k in range(8):
            assert run.report.direct_sequence[k + 1] == pytest.approx(
                rate.direct_sequence[k], abs=1e-10)
