"""Unit tests for the SZ trajectory engine and its classical reductions."""

import gc
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from szwalk import (AccuracyError, DensityState, Partition, ResourceLimitError, RunOptions,
                    UnsupportedConfigurationError, ValidationError, apply_instrument,
                    classical, coherent_instrument, cylinder_probability,
                    dynamical_entropy, entropy_rate, general_instrument, hadamard_walk,
                    lvn_instrument, markov_reduction, maximally_mixed, measurement_entropy, sz,
                    sz_entropy_run, unitary_power)
from szwalk.entropy import eta
from szwalk.quantum import index_support, min_eigenvalue, shared_zero
from szwalk.walks import (basis_index, coin_vertex_instrument, coined_walk, hadamard_eigenstate,
                          integer_shift, position_instrument, vertex_partition)

from helpers import (conditional_sequence_from_levels, cylinder_level_joints, dense_apply,
                     random_coherent, random_density, random_general, random_lvn,
                     random_unitary)

LN2 = math.log(2.0)


def _atomic_for(instrument):
    return Partition.atomic(instrument.n_outcomes, labels=instrument.outcome_labels)


def _layout(t, part):
    """(each block's flat P×P index laid out k×k, S's marks in range(dim)), as
    `sz_entropy_run` lays out its branches."""
    return sz._layout(t.dim, [t.support_index(block) for block in part.blocks])


def _squares(t, part):
    """Each block's flat P×P index laid out k×k, as `sz_entropy_run` passes it on."""
    return _layout(t, part)[0]


def _scattered(branch, t, part):
    """The dim×dim operator of a live branch: its block put back on its block's P×P."""
    op = np.zeros(t.dim * t.dim, dtype=complex)
    op[_squares(t, part)[branch.block].ravel()] = branch.conditional_op.ravel()
    return op.reshape(t.dim, t.dim)


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

    @pytest.mark.parametrize("blocks", [[[0.7]], [[0, 0]], [[0], []], [[True]], [[3]],
                                        [[-1]], [[0], [np.float64(1.0)]]])
    def test_malformed_outcome_sets_rejected(self, blocks):
        # Each block is a non-empty set of distinct integer outcomes in range(3): [[0.7]] was
        # read as outcome 0, and [[0, 0]] counted outcome 0 twice (2/3 instead of 1/3).
        t = position_instrument(3)
        with pytest.raises(ValidationError, match="outcome set"):
            cylinder_probability(hadamard_walk(3).unitary, t, maximally_mixed(6), blocks)

    def test_numpy_integer_outcomes_accepted(self):
        t = position_instrument(3)
        got = cylinder_probability(None, t, maximally_mixed(6), [np.array([0]), (np.int64(1),)])
        assert got == 0.0
        assert cylinder_probability(None, t, maximally_mixed(6), [[0]]) == pytest.approx(1 / 3)


def _cs_transition_matrix(u, N):
    """|<a_i|U|a_j>|^2 over the coin-vertex basis, through `markov_reduction`."""
    return markov_reduction(u, coin_vertex_instrument(N), maximally_mixed(2 * N)).transition_matrix


class TestCSTransitionMatrix:
    def test_hadamard_walk_pattern(self):
        # |<e|U|f>|^2 = (1/2) delta_{u, v-(-1)^{delta_cL}}
        N = 5
        P = _cs_transition_matrix(hadamard_walk(N).unitary, N)
        for c in (0, 1):
            for v in range(N):
                col = P.entries[:, basis_index(c, v, N)]
                assert col[basis_index(0, (v + 1) % N, N)] == pytest.approx(0.5, abs=1e-14)
                assert col[basis_index(1, (v - 1) % N, N)] == pytest.approx(0.5, abs=1e-14)
                assert col.sum() == pytest.approx(1.0, abs=1e-14)

    def test_identity_gives_identity(self):
        P = _cs_transition_matrix(np.eye(4), 2)
        assert np.allclose(P.entries, np.eye(4), atol=1e-14)

    def test_squared_walk_quarters(self):
        N = 5
        P = _cs_transition_matrix(unitary_power(hadamard_walk(N), 2), N)
        col = P.entries[:, basis_index(0, 0, N)]
        assert sorted(x for x in col if x > 1e-12) == pytest.approx([0.25] * 4, abs=1e-13)


class TestRunOptions:
    @pytest.mark.parametrize("field, value", [
        ("merge_tol", 0.0), ("tol", -1e-7), ("tol", float("nan")), ("prune_eps", -1e-14),
        ("n_max", -3), ("min_steps", -1), ("branch_budget", 0), ("window", 1),
        ("window", 2.9), ("n_max", True), ("tol", True), ("merge", "false"),
        ("classify", "no"), ("strict", 1), ("branch_budget", None),
        ("merge_tol", float("inf")), ("tol", float("inf")), ("prune_eps", float("inf")),
        ("merge_tol", 1e-20),  # |entry|/merge_tol would overflow the int64 merge keys
    ])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"'{field}'"):
            RunOptions(**{field: value})

    def test_int_accepted_for_float_fields(self):
        assert RunOptions(tol=1, prune_eps=0, window=2).tol == 1

    def test_smallest_merge_tol_keys_exactly(self):
        """At the 1e-18 floor the merge keys stay within int64: rank-2 U², N=5 still merges,
        gives the unmerged a_n, and warns nothing."""
        args = _hadamard_setup(5, 2, "rank2")
        off = sz_entropy_run(*args, RunOptions(n_max=6, min_steps=6, merge=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on = sz_entropy_run(*args, RunOptions(n_max=6, min_steps=6, merge_tol=1e-18))
        assert on.records[-1].branch_count < off.records[-1].branch_count
        assert len(on.report.direct_sequence) == len(off.report.direct_sequence) == 7
        for a, b in zip(on.report.direct_sequence, off.report.direct_sequence):
            assert abs(a - b) <= 1e-12


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

    def test_budget_raises_as_the_first_extra_branch_is_added(self, monkeypatch):
        N, budget = 5, 500
        args = (unitary_power(hadamard_walk(N), 3), position_instrument(N),
                maximally_mixed(2 * N), Partition.atomic(N))
        counts = [r.branch_count for r in
                  sz_entropy_run(*args, RunOptions(n_max=6, min_steps=6)).records]
        over = next(d for d, c in enumerate(counts) if c > budget)
        whole_depth_calls = N * (1 + sum(counts[:over]))  # one call per (parent, block)
        calls = []
        monkeypatch.setattr(sz, "apply_instrument",
                            lambda *a: calls.append(1) or apply_instrument(*a))
        # 30 parents per chunk: the 320 parents of the depth that passes the budget span
        # several chunks (at the default size they fit in two).
        monkeypatch.setattr(sz, "CHUNK_BYTES", 40_000)
        message = f"live branch count {budget + 1} exceeds the budget of {budget}"
        with pytest.raises(ResourceLimitError, match=message):
            sz_entropy_run(*args, RunOptions(branch_budget=budget))
        assert len(calls) < whole_depth_calls
        monkeypatch.setattr(sz, "CHUNK_BYTES", 1)  # one parent per chunk: the same first miss
        with pytest.raises(ResourceLimitError, match=message):
            sz_entropy_run(*args, RunOptions(branch_budget=budget))

    def test_aggressive_pruning_warns_and_strict_raises(self):
        N = 3
        args = (hadamard_walk(N).unitary, coin_vertex_instrument(N), maximally_mixed(2 * N),
                vertex_partition(N))
        with pytest.warns(UserWarning, match="pruned mass"):
            run = sz_entropy_run(*args, RunOptions(n_max=3, prune_eps=0.5))
        assert run.pruned_mass == pytest.approx(1.0)
        assert run.stop_reason == "n_max"  # an empty tree does not count as closed
        with pytest.raises(AccuracyError, match="pruned mass"):
            sz_entropy_run(*args, RunOptions(n_max=3, prune_eps=0.5, strict=True))

    def test_record_cesaro_is_the_report_cesaro(self):
        # One running mean per depth: the `_depth.csv` column and the summary's sequence.
        t = random_general(np.random.default_rng(13), 6, 2)
        run = sz_entropy_run(hadamard_walk(3).unitary, t, maximally_mixed(6), _atomic_for(t),
                             RunOptions(n_max=12, min_steps=12, merge=False))
        assert len(run.records) == 13
        for record in run.records:
            assert record.cesaro == run.report.cesaro_sequence[record.depth]

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
            evolved = U2 @ _scattered(branch, t, part) @ U2.conj().T
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

    @pytest.mark.parametrize("power, make, classify", [
        (2, lambda rng: position_instrument(5), True),
        (1, lambda rng: random_general(rng, 10, 2), False),
    ])
    def test_support_kernel_matches_dense_products(self, monkeypatch, power, make, classify):
        rng = np.random.default_rng(5)
        t = make(rng)
        args = (unitary_power(hadamard_walk(5), power), t, maximally_mixed(10), _atomic_for(t),
                RunOptions(n_max=9, classify=classify))
        support = sz_entropy_run(*args).records
        monkeypatch.setattr(sz, "apply_instrument", dense_apply)
        assert sz_entropy_run(*args).records == support

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


def _hadamard_setup(N, power, kind):
    """Hadamard U^power on the N-cycle, maximally mixed: rank-2 position instrument with
    the atomic partition, or the coin-vertex instrument with vertex blocks."""
    u = unitary_power(hadamard_walk(N), power)
    if kind == "rank2":
        return u, position_instrument(N), maximally_mixed(2 * N), Partition.atomic(N)
    return u, coin_vertex_instrument(N), maximally_mixed(2 * N), vertex_partition(N)


def _predicted_a_n(lift, k):
    """a_{depth+1+k} of a closed run, from its lift."""
    return lift.weights @ np.linalg.matrix_power(lift.transitions, k) @ lift.entropies


CLOSING = {
    "rank2-U": (1, "rank2", LN2),
    "rank2-U2": (2, "rank2", 4.0 / 3.0 * LN2),
    "coin-vertex-U": (1, "coin-vertex", LN2),
    "coin-vertex-U2": (2, "coin-vertex", 1.5 * LN2),
}


class TestClosure:
    """Runs that stop where the merged live states close, against the unclosed tree."""

    @pytest.mark.parametrize("power, kind, expected", CLOSING.values(), ids=CLOSING)
    def test_closed_run_is_a_prefix_of_the_tree_and_its_lift_predicts_the_rest(
            self, power, kind, expected):
        args = _hadamard_setup(5, power, kind)
        closed = sz_entropy_run(*args, RunOptions(n_max=12))
        tree = sz_entropy_run(*args, RunOptions(n_max=12, min_steps=12))
        assert closed.stop_reason == "closed" and closed.depth < 12
        assert closed.records == tree.records[:closed.depth + 1]
        lift = closed.lift
        for k, rec in enumerate(tree.records[closed.depth + 1:]):
            assert _predicted_a_n(lift, k) == pytest.approx(rec.a_n, abs=1e-12)
        assert closed.report.converged
        assert closed.report.converged_value == lift.limit
        assert lift.limit == pytest.approx(expected, abs=1e-12)

    def test_lift_predicts_the_unmerged_tree_on_random_coherent_runs(self):
        # A rank-1 outcome fixes the state, so these close at once whatever U and rho are.
        rng = np.random.default_rng(131)
        for _ in range(10):
            dim = int(rng.integers(3, 6))
            t = random_coherent(rng, dim)
            args = (random_unitary(rng, dim), t, random_density(rng, dim), _atomic_for(t))
            closed = sz_entropy_run(*args, RunOptions(n_max=4))
            tree = sz_entropy_run(*args, RunOptions(n_max=4, min_steps=4, merge=False))
            assert closed.stop_reason == "closed" and closed.depth < 4
            for k, rec in enumerate(tree.records[closed.depth + 1:]):
                assert _predicted_a_n(closed.lift, k) == pytest.approx(rec.a_n, abs=1e-12)

    def test_periodic_chain_gets_its_cesaro_limit(self):
        # Block {0, 1} goes to {2, 3} through a Hadamard, {2, 3} back by a permutation: a
        # period-2 chain. From 0.7 on e0 and 0.3 on e2, a_n alternates 0.7 ln 2, 0.3 ln 2.
        h = 1 / math.sqrt(2)
        u = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [h, h, 0, 0], [h, -h, 0, 0]])
        t = coherent_instrument(list(np.eye(4)))
        rho = DensityState(np.diag([0.7, 0.0, 0.3, 0.0]))
        closed = sz_entropy_run(u, t, rho, _atomic_for(t), RunOptions(n_max=12))
        tree = sz_entropy_run(u, t, rho, _atomic_for(t), RunOptions(n_max=12, min_steps=12))
        assert closed.stop_reason == "closed"
        assert tree.records[-1].a_n == pytest.approx(0.3 * LN2, abs=1e-12)
        assert tree.records[-2].a_n == pytest.approx(0.7 * LN2, abs=1e-12)
        for k, rec in enumerate(tree.records[closed.depth + 1:]):
            assert _predicted_a_n(closed.lift, k) == pytest.approx(rec.a_n, abs=1e-12)
        assert closed.report.converged_value == pytest.approx(0.5 * LN2, abs=1e-12)

    @pytest.mark.parametrize("N", [5, 25])
    def test_rank2_squared_walk_is_exact(self, N):
        report = dynamical_entropy(*_hadamard_setup(N, 2, "rank2"), RunOptions(n_max=25))
        assert report.dynamical_entropy == pytest.approx(4.0 / 3.0 * LN2, abs=1e-12)

    def test_nonlinearity_of_the_rank2_entropy(self):
        h1, h2 = (dynamical_entropy(*_hadamard_setup(5, m, "rank2"),
                                    RunOptions(n_max=25)).dynamical_entropy for m in (1, 2))
        assert h2 - 2.0 * h1 == pytest.approx(-2.0 / 3.0 * LN2, abs=1e-12)

    def test_min_steps_defers_the_stop(self):
        run = sz_entropy_run(*_hadamard_setup(5, 2, "rank2"), RunOptions(n_max=12, min_steps=7))
        assert run.stop_reason == "closed" and run.depth == 7

    def test_identity_dynamics_closes_at_depth_one(self):
        _, t, rho, part = _hadamard_setup(5, 1, "rank2")
        run = sz_entropy_run(None, t, rho, part, RunOptions(n_max=12))
        assert run.stop_reason == "closed" and run.depth == 1
        assert run.report.converged_value == 0.0

    @pytest.mark.parametrize("case", CLOSING)
    def test_merge_off_never_closes(self, case):
        power, kind, _ = CLOSING[case]
        run = sz_entropy_run(*_hadamard_setup(5, power, kind), RunOptions(n_max=6, merge=False))
        assert run.stop_reason in ("converged", "n_max") and run.lift is None

    def test_random_kraus_family_runs_to_n_max(self):
        t = random_general(np.random.default_rng(11), 10, 2)
        run = sz_entropy_run(hadamard_walk(5).unitary, t, maximally_mixed(10), _atomic_for(t),
                             RunOptions(n_max=8))
        assert run.stop_reason == "n_max" and run.depth == 8 and run.lift is None
        assert not run.report.converged

    def test_unresolved_projector_keeps_the_tree_growing(self, monkeypatch):
        monkeypatch.setattr(classical, "PROJECTOR_TOL", -1.0)  # no projector passes the check
        args = _hadamard_setup(5, 2, "rank2")
        run = sz_entropy_run(*args, RunOptions(n_max=25))
        assert run.stop_reason == "converged" and run.lift is None
        assert run.depth == 24

    def test_above_the_state_bound_closure_is_not_tracked(self, monkeypatch):
        monkeypatch.setattr(sz, "LIFT_MAX_STATES", 24)  # rank-2 U^2 at N=5 lives on 25
        run = sz_entropy_run(*_hadamard_setup(5, 2, "rank2"), RunOptions(n_max=25))
        assert run.stop_reason == "converged" and run.depth == 24


def _kernel_case(case):
    """(engine inputs, options) of a classified run that never closes, or of a closing
    run: rank-2 atomic or coherent vertex blocks."""
    if case == "random-kraus":
        t = random_general(np.random.default_rng(11), 10, 2)
        return ((hadamard_walk(5).unitary, t, maximally_mixed(10), _atomic_for(t)),
                RunOptions(n_max=8, classify=True))
    power, kind, _ = CLOSING[case]
    return _hadamard_setup(5, power, kind), RunOptions(n_max=25)


KERNEL_CASES = ["random-kraus", "rank2-U2", "coin-vertex-U2"]


class TestChunkedDepths:
    """Each depth evolves its parents in chunks, around one kernel call per (parent, block)."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_one_kernel_call_per_parent_and_block(self, monkeypatch, case):
        args, opts = _kernel_case(case)
        calls = []
        monkeypatch.setattr(sz, "apply_instrument",
                            lambda *a: calls.append(1) or apply_instrument(*a))
        run = sz_entropy_run(*args, opts)
        assert run.stop_reason == ("n_max" if case == "random-kraus" else "closed")
        parents = 1 + sum(r.branch_count for r in run.records[:run.depth])
        assert len(calls) == len(args[3].blocks) * parents

    def test_a_rank2_chunk_holds_several_parents(self, monkeypatch):
        """Rank-2 U², N = 25: a chunk is sized by the bytes it holds (r×r evolved parents, cut
        children and their diagonals), so `_measure` gets several parents at once. Budgeted
        as dense 50×50 operators, every chunk held one parent."""
        sizes = []
        measure = sz._measure
        monkeypatch.setattr(sz, "_measure", lambda t, blocks, supports, evolved, *rest:
                            sizes.append(len(evolved)) or measure(t, blocks, supports, evolved,
                                                                  *rest))
        run = sz_entropy_run(*_hadamard_setup(25, 2, "rank2"), RunOptions(n_max=25))
        parents = 1 + sum(r.branch_count for r in run.records[:run.depth])
        assert run.stop_reason == "closed" and sum(sizes) == parents > 100
        assert sizes[0] == 1 and max(sizes) > 1 and 2 * len(sizes) < parents

    def test_a_rank2_chunk_at_n49_holds_several_parents(self, monkeypatch):
        """Rank-2 U², N = 49: a chunk reserves a child only for each block a parent reaches
        (3 of the 49), so `_measure` gets several parents at once. Reserving one for every
        block of the partition left one parent per chunk at this size."""
        sizes = []
        measure = sz._measure
        monkeypatch.setattr(sz, "_measure", lambda t, blocks, supports, evolved, *rest:
                            sizes.append(len(evolved)) or measure(t, blocks, supports, evolved,
                                                                  *rest))
        run = sz_entropy_run(*_hadamard_setup(49, 2, "rank2"), RunOptions(n_max=25))
        parents = 1 + sum(r.branch_count for r in run.records[:run.depth])
        assert run.stop_reason == "closed" and sum(sizes) == parents > 200
        assert sizes[0] == 1 and max(sizes) >= 20 and 4 * len(sizes) < parents

    @pytest.mark.parametrize("make", [lambda rng: random_general(rng, 10, 2),
                                      lambda rng: position_instrument(5)])
    @pytest.mark.parametrize("group", [1, 3, 1000])
    def test_batched_weights_and_keys_match_one_child_at_a_time(self, make, group):
        """`_measure` gives (parent, block, child, weight, key) for each child of weight not
        exactly 0.0, in (parent, block) order, bit for bit as each child made alone, however
        the parents are split into chunks of `group` (as `sz_entropy_run` splits them)."""
        rng = np.random.default_rng(8)
        t = make(rng)
        part = _atomic_for(t)
        supports = _squares(t, part)
        evolved = np.stack([random_density(rng, 10).matrix for _ in range(4)])
        evolved[1] = 0.0  # every child of this parent weighs 0.0
        evolved[2] *= 1e-15  # every child of this parent is pruned
        opts = RunOptions(merge_tol=1e-6)
        measured = [(start + s, *rest)
                    for start in range(0, len(evolved), group)
                    for s, *rest in zip(*sz._measure(t, part.blocks, supports,
                                                     evolved[start:start + group], None,
                                                     np.zeros(100, dtype=complex), opts))]
        expected = []
        for s, op in enumerate(evolved):
            for bi, block in enumerate(part.blocks):
                ref = apply_instrument(t, block, op)
                ref_w = max(float(ref.trace().real), 0.0)
                if ref_w != 0.0:
                    expected.append((s, bi, ref, ref_w))
        assert {s for s, *_ in expected} == {0, 2, 3}
        assert [m[:2] for m in measured] == [e[:2] for e in expected]
        for (_, bi, child, w, key), (_, _, ref, ref_w) in zip(measured, expected):
            assert w == ref_w
            if not ref_w > opts.prune_eps:
                assert child is None and key is None
                continue
            # The child is its block on its support, one array of its own.
            assert np.array_equal(child, ref.take(supports[bi])) and child.base is None
            entries = ref.take(supports[bi].ravel())
            scaled = (entries / ref_w).view(np.float64) / opts.merge_tol
            assert key == np.round(scaled).astype(np.int64).tobytes()
        assert any(m[2] is None for m in measured) and any(m[2] is not None for m in measured)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    @pytest.mark.parametrize("chunk_bytes", [1, 40_000])
    def test_chunk_size_leaves_the_run_unchanged(self, monkeypatch, case, chunk_bytes):
        args, opts = _kernel_case(case)
        whole = sz_entropy_run(*args, opts)
        monkeypatch.setattr(sz, "CHUNK_BYTES", chunk_bytes)  # one parent, or a few, per chunk
        chunked = sz_entropy_run(*args, opts)
        assert chunked.records == whole.records
        assert chunked.report == whole.report
        assert chunked.stop_reason == whole.stop_reason
        lifts = [None if run.lift is None else
                 (run.lift.transitions.tobytes(), run.lift.entropies.tobytes(),
                  run.lift.weights.tobytes(), run.lift.limit) for run in (chunked, whole)]
        assert lifts[0] == lifts[1]
        assert (lifts[1] is None) == (case == "random-kraus")
        assert len(chunked.branches) == len(whole.branches)
        for a, b in zip(chunked.branches, whole.branches):
            assert (a.weight, a.block, a.stats) == (b.weight, b.block, b.stats)
            assert np.array_equal(a.conditional_op, b.conditional_op)


def _flat(s, d):
    """The flat S×S index of a support S of a d×d operator, laid out |S|×|S|."""
    return np.array(s)[:, None] * d + np.array(s)


def _dense(op, flat, d):
    """The d×d operator of the block `op` on the flat S×S index `flat`."""
    out = np.zeros(d * d, dtype=complex)
    out[flat.ravel()] = op.ravel()
    return out.reshape(d, d)


def _block_kraus(rng):
    """A non-projective Kraus family on C^6: two outcomes on {0,1,2} and two on {3,4,5}, each
    a random unitary block scaled so that each pair completes its half."""
    kraus = []
    for first, scale in ((0, 0.6), (3, 0.8)):
        for c in (scale, math.sqrt(1.0 - scale ** 2)):
            k = np.zeros((6, 6), dtype=complex)
            k[first:first + 3, first:first + 3] = c * random_unitary(rng, 3)
            kraus.append(k)
    return general_instrument(kraus)


def _evolved(u, supports, blocks, ops):
    """`_evolve` on blocks `ops`, each a random density on the support S of its block, held on
    P as `sz_entropy_run` holds it: the (parents, r, r) stack and each parent's evolved
    operator put back on d×d by its block's flat R×R index."""
    d = u.shape[0]
    squares, marks = sz._layout(d, [flat.ravel() for flat in supports])
    w, wh, pairs, places, _ = sz._columns(u, squares, marks)
    held = []
    for op, b in zip(ops, blocks):
        on = np.flatnonzero(marks[b][squares[b][0] % d])  # S's positions in P
        padded = np.zeros(squares[b].shape, dtype=complex)
        padded[on[:, None], on] = op
        held.append(padded)
    evolved = sz._evolve(held, [pairs[b] for b in blocks], w, wh)
    assert all(evolved.shape[1:] == place.shape for place in places)
    return evolved, np.stack([_dense(op, places[b], d) for op, b in zip(evolved, blocks)])


def _dense_tree(u, t, rho, part, depth, opts):
    """The dense engine's unmerged tree: for each depth 0..depth its evolved dim×dim parents
    (ρ itself at depth 0, U·ρ·U† of each parent after), then the children of the last depth,
    each the kernel's output on its evolved parent, children of weight exactly 0.0 or at most
    `prune_eps` left out, in (parent, block) order."""
    levels, ops = [], [rho.matrix]
    for n in range(depth + 1):
        evolved = ops if n == 0 or u is None else [u @ op @ u.conj().T for op in ops]
        levels.append(evolved)
        ops = [child for op in evolved for block in part.blocks
               if (w := max(float((child := apply_instrument(t, block, op)).trace().real),
                            0.0)) != 0.0 and w > opts.prune_eps]
    return levels + [ops]


class TestSupportEvolution:
    """Each parent is evolved on its block's support S: U[:,S]·ρ[S,S]·U[:,S]†."""

    @pytest.mark.parametrize("sets", [[[2], [1, 6], [0, 3, 5], range(8)],  # sizes 1, 2, 3, all
                                      [[0, 4], [1, 7], [2, 5]],  # one size
                                      [range(8)],  # the whole space
                                      [[2], [1, 6], [0, 3, 5]]])  # sizes 1, 2, 3: padded to 3
    def test_matches_the_dense_product_for_random_unitaries(self, sets):
        """A dense random unitary reaches every row (r = d); a random-coin walk on the 4-cycle
        moves each basis state onto two rows, so a support smaller than the space reaches
        fewer than d rows (r < d)."""
        d = 8
        rng = np.random.default_rng(len(sets))
        walk = coined_walk(integer_shift(4), [random_unitary(rng, 2) for _ in range(4)])
        for u in (random_unitary(rng, d), walk.unitary):
            supports = [_flat(s, d) for s in sets]
            blocks = [int(b) for b in rng.integers(0, len(sets), 9)]
            ops = [random_density(rng, len(sets[b])).matrix for b in blocks]
            dense = [_dense(op, supports[b], d) for op, b in zip(ops, blocks)]
            evolved, scattered = _evolved(u, supports, blocks, ops)
            reached = max(np.count_nonzero(np.abs(u[:, list(s)]).sum(axis=1)) for s in sets)
            assert evolved.shape == (len(ops), reached, reached)
            for op, e in zip(dense, scattered):
                assert np.abs(e - u @ op @ u.conj().T).max() <= 1e-14 * np.linalg.norm(op)
            if any(len(s) == d for s in sets):  # a whole-space block: the dense engine's product
                assert np.array_equal(evolved, u @ np.stack(dense) @ u.conj().T)

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["rank2", "coin-vertex"])
    def test_bitwise_the_dense_product_for_hadamard_powers(self, power, kind):
        """U^power moves a vertex's coin pair onto 2·power rows: each parent evolves to that
        r×r block, bitwise the dense product there, and the dense product is 0 elsewhere."""
        u, t, _, part = _hadamard_setup(5, power, kind)
        supports = _squares(t, part)
        rng = np.random.default_rng(power)
        blocks = [int(b) for b in rng.integers(0, len(supports), 12)]
        ops = [random_density(rng, len(supports[b])).matrix for b in blocks]
        dense = np.stack([_dense(op, supports[b], 10) for op, b in zip(ops, blocks)])
        evolved, scattered = _evolved(u, supports, blocks, ops)
        assert evolved.shape == (len(ops), 2 * power, 2 * power)
        assert np.array_equal(scattered, u @ dense @ u.conj().T)

    @pytest.mark.parametrize("case", ["position", "lvn-atomic", "lvn-whole-space-block"])
    def test_random_coin_walk_matches_the_dense_bruteforce(self, case):
        N = 3
        rng = np.random.default_rng(21)
        walk = coined_walk(integer_shift(N), [random_unitary(rng, 2) for _ in range(N)])
        rho = random_density(rng, 2 * N)
        if case == "position":
            t = position_instrument(N)
            part = Partition.atomic(N)
        else:
            t = random_lvn(np.random.default_rng(3), 2 * N, 4, [[0, 4, 2], [1, 5], [3]])
            part = (Partition.atomic(4) if case == "lvn-atomic"
                    else Partition([[0, 1], [2], [3]], size=4))
        sizes = {math.isqrt(t.support_index(block).size) for block in part.blocks}
        # Several support sizes, and a whole-space block beside partial ones.
        assert sizes == {"position": {2}, "lvn-atomic": {2, 3, 4, 5},
                         "lvn-whole-space-block": {3, 5, 6}}[case]
        run = sz_entropy_run(walk.unitary, t, rho, part, RunOptions(n_max=5, min_steps=5))
        oracle = conditional_sequence_from_levels(
            cylinder_level_joints(walk.unitary, t, rho, part, 5))
        assert len(run.report.direct_sequence) == len(oracle) == 6
        for a, b in zip(run.report.direct_sequence, oracle):
            assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("case", KERNEL_CASES + ["lvn-mixed-sizes"])
    @pytest.mark.parametrize("merge", [True, False])
    def test_every_branch_is_zero_outside_its_block_support(self, case, merge):
        """A branch holds only its block on P, its support S padded to the run's largest support
        size k by the first indices outside S, in increasing order: one k×k array of its own (a
        whole-space branch is the kernel's product itself), +0 outside S's positions in P,
        whose trace is its weight."""
        if case == "lvn-mixed-sizes":
            rng = np.random.default_rng(24)
            walk = coined_walk(integer_shift(3), [random_unitary(rng, 2) for _ in range(3)])
            t = random_lvn(np.random.default_rng(3), 6, 4, [[0, 4, 2], [1, 5], [3]])
            args, opts = (walk.unitary, t, random_density(rng, 6), _atomic_for(t)), RunOptions()
        else:
            args, opts = _kernel_case(case)
        run = sz_entropy_run(*args, replace(opts, n_max=4, merge=merge))
        t, part = args[1], args[3]
        sets = [index_support(t.support_index(block), t.dim).tolist() for block in part.blocks]
        sizes = {len(s) for s in sets}
        assert (sizes == {t.dim}) == (case == "random-kraus")
        assert (sizes == {2, 3, 4, 5}) == (case == "lvn-mixed-sizes")
        k = max(sizes)
        for branch in run.branches:
            s = sets[branch.block]
            p = sorted(s + [i for i in range(t.dim) if i not in s][:k - len(s)])
            off = ~np.isin(p, s)
            op = branch.conditional_op
            assert op.shape == (k, k) and op.base is None and op.flags.c_contiguous
            padding = op[off[:, None] | off[None, :]]
            assert padding.view(np.float64).tobytes() == bytes(16 * padding.size)  # +0
            assert abs(op.trace().real - branch.weight) <= 1e-12 * branch.weight
            assert (branch.stats is None) == (not opts.classify)  # no history unless classified

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["rank2", "coin-vertex"])
    def test_scattered_blocks_are_the_dense_engine_bitwise_for_hadamard_powers(self, power,
                                                                                kind):
        u, t, _, part = _hadamard_setup(5, power, kind)
        rho = random_density(np.random.default_rng(power), 10)
        self._check_against_the_dense_tree(u, t, rho, part, depth=4, tol=0.0)

    @pytest.mark.parametrize("case", ["position", "lvn-atomic", "block-kraus"])
    def test_scattered_blocks_match_the_dense_engine_on_a_random_coin_walk(self, case):
        N = 3
        rng = np.random.default_rng(22)
        walk = coined_walk(integer_shift(N), [random_unitary(rng, 2) for _ in range(N)])
        t = {"position": lambda: position_instrument(N),
             "lvn-atomic": lambda: random_lvn(np.random.default_rng(3), 2 * N, 4,
                                              [[0, 4, 2], [1, 5], [3]]),
             "block-kraus": lambda: _block_kraus(np.random.default_rng(3))}[case]()
        self._check_against_the_dense_tree(walk.unitary, t, random_density(rng, 2 * N),
                                           _atomic_for(t), depth=4, tol=1e-14)

    def test_identity_dynamics_measures_each_parent_as_the_dense_engine_held_it(self):
        """The measurement run scatters each parent's block back to dim×dim, bitwise."""
        t = _block_kraus(np.random.default_rng(4))
        rho = random_density(np.random.default_rng(5), 6)
        self._check_against_the_dense_tree(None, t, rho, _atomic_for(t), depth=4, tol=0.0)

    @pytest.mark.parametrize("case", ["hadamard-U2", "random-coin"])
    def test_every_kernel_input_is_the_dense_evolved_parent(self, monkeypatch, case):
        """A parent evolved onto its rows R is staged in the run's one dim×dim buffer by its
        R×R index and cleared after its children: each kernel input is U·ρ·U† of its dense
        parent, so nothing of an earlier parent with other rows is left in the buffer. Exact
        for the Hadamard walk, within 1e-14·‖ρ‖_F for a random coin."""
        if case == "hadamard-U2":
            u, t, _, part = _hadamard_setup(5, 2, "rank2")
            rho, tol = random_density(np.random.default_rng(9), 10), 0.0
        else:
            N, rng = 6, np.random.default_rng(23)
            u = coined_walk(integer_shift(N), [random_unitary(rng, 2) for _ in range(N)]).unitary
            # Each basis vector lies in one vertex's coin pair: an outcome's support is the
            # coin pairs of its vertices.
            t = random_lvn(np.random.default_rng(4), 2 * N, N, [[v, N + v] for v in range(N)])
            part, rho, tol = _atomic_for(t), random_density(rng, 2 * N), 1e-14
        places = sz._columns(u, *_layout(t, part))[3]
        assert places is not None and places[0].shape[0] < t.dim  # staged: r < dim
        depth = 3
        opts = RunOptions(n_max=depth, min_steps=depth, merge=False)
        parents = [op for level in _dense_tree(u, t, rho, part, depth, opts)[:-1] for op in level]
        inputs = []
        monkeypatch.setattr(sz, "apply_instrument",
                            lambda t, block, op: inputs.append(op.copy()) or
                            apply_instrument(t, block, op))
        sz_entropy_run(u, t, rho, part, opts)
        assert len(inputs) == len(parents) * len(part.blocks)
        # Consecutive parents whose blocks have other rows R share the buffer.
        rows = [frozenset(np.flatnonzero(np.abs(op).sum(axis=0))) for op in parents[1:]]
        assert any(a != b for a, b in zip(rows, rows[1:]))
        for n, op in enumerate(inputs):
            dense = parents[n // len(part.blocks)]
            if tol == 0.0:
                assert np.array_equal(op, dense)
            else:
                assert np.abs(op - dense).max() <= tol * np.linalg.norm(rho.matrix)

    @staticmethod
    def _check_against_the_dense_tree(u, t, rho, part, depth, tol):
        """Each live branch of an unmerged run, put back on its block's S×S, is the operator
        the dense engine held: U·ρ·U† of the whole dim×dim parent, then the kernel, children
        of weight exactly 0.0 or at most `prune_eps` left out, in (parent, block) order. Equal
        within `tol`·‖ρ‖_F, ρ the start state, and bitwise at 0."""
        opts = RunOptions(n_max=depth, min_steps=depth, merge=False)
        ops = _dense_tree(u, t, rho, part, depth, opts)[-1]
        run = sz_entropy_run(u, t, rho, part, opts)
        assert run.depth == depth and len(run.branches) == len(ops) > len(part.blocks)
        for branch, op in zip(run.branches, ops):
            scattered = _scattered(branch, t, part)
            if tol == 0.0:
                assert scattered.tobytes() == op.tobytes()
            else:
                assert np.abs(scattered - op).max() <= tol * np.linalg.norm(rho.matrix)

    def test_one_rank2_run_allocates_no_dense_branches(self):
        """Rank-2 U², N = 25: 125 live branches held as 2×2 blocks, not as 50×50 operators
        (5.8 MiB of them at the peak when each branch was dense)."""
        args = _hadamard_setup(25, 2, "rank2")
        tracemalloc.start()
        try:
            run = sz_entropy_run(*args, RunOptions(n_max=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.stop_reason == "closed" and max(r.branch_count for r in run.records) == 125
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("sets", [[[0, 2, 4], [1, 5], [3]], [[0, 3], [1, 4], [2, 5]], None])
    def test_layout_pads_each_support_in_increasing_order(self, sets):
        """`_layout` lays block b out on P_b, S_b padded to the largest size k by the first
        indices outside it, in increasing order, and marks S_b in range(dim): for mixed sizes,
        for equal sizes (where P_b = S_b) and for whole-space outcomes alike."""
        t = (random_general(np.random.default_rng(5), 6, 2) if sets is None
             else general_instrument([np.diag(np.isin(np.arange(6), s)) for s in sets]))
        part = _atomic_for(t)
        squares, held = _layout(t, part)
        supports = [index_support(t.support_index(block), 6).tolist() for block in part.blocks]
        assert [len(s) for s in supports] == ([6, 6] if sets is None else list(map(len, sets)))
        k = max(map(len, supports))
        for b, s in enumerate(supports):
            p = sorted(s + [i for i in range(6) if i not in s][:k - len(s)])
            assert squares[b].tolist() == [[i * 6 + j for j in p] for i in p]
            assert held[b].tolist() == [i in s for i in range(6)]

    def test_a_whole_space_family_holds_one_unitary(self):
        """32 whole-space outcomes at dimension 64: every block has P = R = all indices, so the
        run builds W, W† and the R×R index once, not once per block (about 5 MiB more)."""
        t = random_general(np.random.default_rng(12), 64, 32)
        args = (hadamard_walk(32).unitary, t, maximally_mixed(64), _atomic_for(t))
        sz_entropy_run(*args, RunOptions(n_max=0))  # first-call caches do not count
        tracemalloc.start()
        try:
            run = sz_entropy_run(*args, RunOptions(n_max=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.branches) == 32 and all(b.conditional_op.shape == (64, 64)
                                               for b in run.branches)
        assert peak < 10 * 2 ** 20

    def test_run_stats_follow_the_parent_block(self):
        root = sz.RunStats(True, 0, None)
        first = root.extend(None, 3)
        assert first == sz.RunStats(True, 0, None)
        assert first.extend(3, 3) == sz.RunStats(True, 1, None)
        assert first.extend(3, 3).extend(3, 1) == sz.RunStats(False, 0, 3)
        assert sz.RunStats(False, 0, 3).extend(1, 1) == sz.RunStats(False, 1, 3)


def _booked_run(monkeypatch, args, opts, fresh_zero: bool):
    """(run, children of weight exactly 0.0, children that were the kernel's shared zero, eta
    calls, children) of one engine run; with `fresh_zero` the kernel's shared zero is swapped
    for a fresh writable zero buffer before the engine sees it."""
    weights, shared, etas = [], [], []

    def kernel(t, outcomes, rho):
        child = apply_instrument(t, outcomes, rho)
        weights.append(max(float(child.trace().real), 0.0))  # as the engine weighs it
        if child is shared_zero(t.dim):
            shared.append(1)
            if fresh_zero:
                child = np.zeros(child.shape, dtype=complex)
        return child

    monkeypatch.setattr(sz, "apply_instrument", kernel)
    monkeypatch.setattr(sz, "eta", lambda x: etas.append(x) or eta(x))
    run = sz_entropy_run(*args, opts)
    return run, weights.count(0.0), len(shared), len(etas), len(weights)


class TestSharedZero:
    """The kernel returns one read-only zero for a child whose terms are all skipped; the
    engine books it by identity, and a fresh zero buffer in its place changes nothing."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    @pytest.mark.parametrize("chunk_bytes", [sz.CHUNK_BYTES, 1])
    def test_the_run_does_not_depend_on_the_shared_zero(self, monkeypatch, case, chunk_bytes):
        args, opts = _kernel_case(case)
        monkeypatch.setattr(sz, "CHUNK_BYTES", chunk_bytes)
        plain, swapped = (_booked_run(monkeypatch, args, opts, fresh_zero)
                          for fresh_zero in (False, True))
        run, zero_children, shared_children, eta_calls, children = plain
        assert swapped[1:] == plain[1:]
        # Children of exactly zero weight are not booked: one eta call per other child.
        assert eta_calls == children - zero_children
        assert zero_children >= shared_children
        if case != "random-kraus":
            assert shared_children > 0
        other = swapped[0]
        assert other.records == run.records
        assert other.report == run.report
        assert (other.depth, other.stop_reason) == (run.depth, run.stop_reason)
        assert len(other.branches) == len(run.branches)
        for a, b in zip(other.branches, run.branches):
            assert (a.weight, a.block, a.stats) == (b.weight, b.block, b.stats)
            assert a.conditional_op.tobytes() == b.conditional_op.tobytes()

    def test_a_nan_weight_still_reaches_eta(self, monkeypatch):
        args, opts = _kernel_case("rank2-U2")
        monkeypatch.setattr(sz, "apply_instrument",
                            lambda t, outcomes, rho: np.full((t.dim, t.dim), np.nan + 0j))
        with pytest.raises(ValidationError, match="eta is undefined"):
            sz_entropy_run(*args, opts)


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
        # a zero operator: its block is empty, so there is no vector to read off
        lambda: general_instrument([np.eye(2), np.zeros((2, 2))]),
    ])
    def test_non_projective_family_unsupported(self, make):
        t = make()
        with pytest.raises(UnsupportedConfigurationError, match="rank-1 projections"):
            markov_reduction(random_unitary(np.random.default_rng(8), t.dim), t,
                             maximally_mixed(t.dim))

    @pytest.mark.parametrize("u, message", [
        (np.eye(4), "dynamics dimension 4 does not match instrument dimension 6"),
        (2 * np.eye(6), "not unitary"),
    ])
    def test_dynamics_checked_like_the_engine(self, u, message):
        with pytest.raises(ValidationError, match=message):
            markov_reduction(u, coin_vertex_instrument(3), maximally_mixed(6))

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
