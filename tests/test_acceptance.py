"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N PASS` line on success; a failing
criterion fails its test with the offending values in the assertion.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from szwalk import (Partition, ProbVector, RunOptions, cycle_walk, cylinder_probability,
                    dynamical_entropy, entropy_rate, eta, markov_entropy, markov_reduction,
                    matrix_power, maximally_mixed, measurement_entropy, outcome_pmf,
                    sz_entropy_run, unitary_power)
from szwalk.cli import paper_check
from szwalk.quantum import apply_instrument
from szwalk.walks import (coin_vertex_instrument, coined_walk, hadamard_eigenstate,
                          hadamard_walk, position_instrument, vertex_partition,
                          ShiftPermutation)

from helpers import (random_coherent, random_density, random_general, random_lvn,
                     random_partition, random_unitary)

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)


def _announce(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def test_criterion_01_classical_cycle_entropies():
    started = time.perf_counter()
    for N in (3, 5, 7):
        P = cycle_walk(N)
        mu = ProbVector.uniform(N)
        assert abs(markov_entropy(P, mu) - LN2) < 1e-12
        assert abs(markov_entropy(matrix_power(P, 2), mu) - 1.5 * LN2) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(1, f"H(P)=ln2 and H(P^2)=1.5*ln2 for N in 3,5,7 ({elapsed:.3f}s)")


def test_criterion_02_coherent_state_hadamard_eigenstate():
    N = 5
    walk = hadamard_walk(N)
    red = markov_reduction(walk.unitary, coin_vertex_instrument(N), hadamard_eigenstate(N))
    mu0 = red.initial_distribution.entries
    P = red.transition_matrix.entries

    expected_r = (3 + 2 * SQRT2) / (N * (4 + 2 * SQRT2))
    expected_l = 1 / (N * (4 + 2 * SQRT2))
    assert np.abs(mu0[:N] - expected_r).max() < 1e-12
    assert np.abs(mu0[N:] - expected_l).max() < 1e-12

    image = P @ mu0
    assert np.abs(image - 1.0 / (2 * N)).max() < 1e-12  # P mu0 is uniform
    assert np.abs(image - mu0).max() > 1e-2  # but mu0 itself is not invariant

    rep = entropy_rate(red.transition_matrix, red.initial_distribution, n_max=5, tol=1e-9)
    assert rep.converged
    assert abs(rep.converged_value - LN2) < 1e-9
    _announce(2, "eigenstate pmf, its non-invariance, and rate ln2 by depth 5")


def test_criterion_03_coarser_partition_runs():
    N = 5
    started = time.perf_counter()
    t = coin_vertex_instrument(N)
    rho = maximally_mixed(2 * N)
    part = vertex_partition(N)
    run1 = sz_entropy_run(hadamard_walk(N).unitary, t, rho, part,
                          RunOptions(n_max=10, min_steps=10))
    worst1 = max(abs(a - LN2) for a in run1.report.direct_sequence[1:11])
    assert worst1 < 1e-10
    run2 = sz_entropy_run(unitary_power(hadamard_walk(N), 2), t, rho, part,
                          RunOptions(n_max=10, min_steps=10))
    worst2 = max(abs(a - 1.5 * LN2) for a in run2.report.direct_sequence[1:11])
    assert worst2 < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _announce(3, f"vertex-block a_n exact for both walk powers "
                 f"(errors {worst1:.1e}, {worst2:.1e}; {elapsed:.3f}s)")


def test_criterion_04_rank2_instrument_entropies():
    N = 5
    started = time.perf_counter()
    t = position_instrument(N)
    rho = maximally_mixed(2 * N)
    part = Partition.atomic(N, labels=t.outcome_labels)

    rep1 = dynamical_entropy(hadamard_walk(N).unitary, t, rho, part,
                             RunOptions(n_max=5, min_steps=5))
    assert rep1.dynamical_entropy is not None
    err1 = abs(rep1.dynamical_entropy - LN2)
    assert err1 < 1e-9

    rep2 = dynamical_entropy(unitary_power(hadamard_walk(N), 2), t, rho, part,
                             RunOptions(n_max=25))
    assert rep2.dynamical_entropy is not None
    assert rep2.sz_entropy.steps_used <= 26  # converged by depth 25
    err2 = abs(rep2.dynamical_entropy - 4.0 / 3.0 * LN2)
    assert err2 < 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(4, f"rank-2 dyn entropies ln2 (err {err1:.1e}) and (4/3)ln2 "
                 f"(err {err2:.1e}; {elapsed:.3f}s)")


def test_criterion_05_class_dynamics():
    N = 5
    run = sz_entropy_run(unitary_power(hadamard_walk(N), 2), position_instrument(N),
                         maximally_mixed(2 * N), Partition.atomic(N),
                         RunOptions(n_max=14, min_steps=14, classify=True))
    classes = [rec.classes for rec in run.records]
    assert len(classes) == 15
    for n, cm in enumerate(classes):
        assert abs(cm.constant - 2.0 ** -n) < 1e-12
    for n in range(1, 15):
        e_pred = classes[n - 1].odd + 0.5 * (classes[n - 1].even + classes[n - 1].constant)
        o_pred = 0.5 * classes[n - 1].even
        assert abs(classes[n].even - e_pred) < 1e-10
        assert abs(classes[n].odd - o_pred) < 1e-10
    gap = abs(classes[14].even - 2.0 / 3.0)
    assert gap < 3e-4
    _announce(5, f"c_n = 2^-n, class recursions, e_14 within {gap:.1e} of 2/3")


def test_criterion_06_zero_measurement_entropy():
    N = 5
    rng = np.random.default_rng(5)
    states = [maximally_mixed(2 * N), hadamard_eigenstate(N), random_density(rng, 2 * N)]
    setups = [(coin_vertex_instrument(N), Partition.atomic(2 * N)),
              (coin_vertex_instrument(N), vertex_partition(N)),
              (position_instrument(N), Partition.atomic(N))]
    for t, part in setups:
        for rho in states:
            rep = measurement_entropy(t, rho, part, RunOptions(n_max=6, min_steps=6))
            assert rep.direct_sequence[1:] == (0.0,) * 6
            assert rep.converged and rep.converged_value == 0.0
    _announce(6, "a_n = 0 exactly (n >= 1) for coherent and rank-2 instruments, 3 states")


def test_criterion_07_nonlinearity_and_bound():
    N = 5
    rho = maximally_mixed(2 * N)
    coherent = coin_vertex_instrument(N)
    rank2 = position_instrument(N)
    cv = vertex_partition(N)
    atomic5 = Partition.atomic(N)

    h1_cv = dynamical_entropy(hadamard_walk(N).unitary, coherent, rho, cv,
                              RunOptions(n_max=10)).dynamical_entropy
    h2_cv = dynamical_entropy(unitary_power(hadamard_walk(N), 2), coherent, rho, cv,
                              RunOptions(n_max=10)).dynamical_entropy
    h1_r2 = dynamical_entropy(hadamard_walk(N).unitary, rank2, rho, atomic5,
                              RunOptions(n_max=10)).dynamical_entropy
    h2_r2 = dynamical_entropy(unitary_power(hadamard_walk(N), 2), rank2, rho, atomic5,
                              RunOptions(n_max=25)).dynamical_entropy

    assert abs(h2_cv - 2 * h1_cv) > 0.25
    assert abs(h2_r2 - 2 * h1_r2) > 0.25
    block_bound = math.log(N) + 1e-12
    for h in (h1_cv, h2_cv, h1_r2, h2_r2):
        assert h <= block_bound
    _announce(7, f"h(U^2) vs 2h(U) gaps {abs(h2_cv - 2 * h1_cv):.3f} and "
                 f"{abs(h2_r2 - 2 * h1_r2):.3f} nats; ln(block-count) bound holds")


def test_criterion_08_oracle_equivalence_exhaustive():
    # The engine-facing cylinder probability versus the coherent-state product
    # formula, over every nonzero atomic outcome sequence of up to 6 steps.
    N = 5
    started = time.perf_counter()
    walk = hadamard_walk(N)
    t = coin_vertex_instrument(N)
    basis = list(np.eye(2 * N, dtype=complex))
    amps2 = np.abs(np.array([[np.vdot(a, walk.unitary @ b) for b in basis]
                             for a in basis])) ** 2
    successors = [[i for i in range(2 * N) if amps2[i, j] > 0.0] for j in range(2 * N)]

    compared = 0
    worst = 0.0
    for rho in (maximally_mixed(2 * N), hadamard_eigenstate(N)):
        mu0 = outcome_pmf(t, rho).entries
        frontier = [((e,), mu0[e]) for e in range(2 * N) if mu0[e] > 0.0]
        for _ in range(7):
            for seq, product in frontier:
                direct = cylinder_probability(walk.unitary, t, rho, [[e] for e in seq])
                diff = abs(direct - product)
                worst = max(worst, diff)
                assert diff < 1e-12
                compared += 1
            if len(frontier[0][0]) == 7:
                break
            frontier = [(seq + (e,), product * amps2[e, seq[-1]])
                        for seq, product in frontier for e in successors[seq[-1]]]
    elapsed = time.perf_counter() - started
    assert compared >= 2 * (2 * N) * (2 ** 7 - 1)  # all lengths 1..7, two states
    assert elapsed < 10.0
    _announce(8, f"{compared} sequences, worst |diff| {worst:.1e} ({elapsed:.2f}s)")


class TestCriterion09PropertySuites:
    INSTANCES = 200

    def test_eta_subadditivity(self):
        rng = np.random.default_rng(107)
        for _ in range(self.INSTANCES):
            parts = rng.random(int(rng.integers(2, 10)))
            parts = parts / parts.sum() * rng.uniform(0.05, 1.0)
            assert eta(parts.sum()) <= sum(eta(x) for x in parts) + 1e-12
        _announce(9, f"eta subadditivity on {self.INSTANCES} random tuples")

    def test_instrument_trace_preservation(self):
        rng = np.random.default_rng(109)
        builders = [random_coherent,
                    lambda r, d: random_lvn(r, d, max(2, d // 2)),
                    lambda r, d: random_general(r, d, int(r.integers(2, 5)))]
        for i in range(self.INSTANCES):
            dim = int(rng.integers(2, 8))
            t = builders[i % 3](rng, dim)
            rho = random_density(rng, dim)
            out = apply_instrument(t, range(t.n_outcomes), rho.matrix)
            assert abs(float(np.real(np.trace(out))) - 1.0) < 1e-10
        _announce(9, f"trace preservation on {self.INSTANCES} random instruments")

    def test_unitarity_of_constructed_walks(self):
        rng = np.random.default_rng(113)
        for _ in range(self.INSTANCES):
            N = int(rng.integers(2, 6))
            sigma = tuple(int(x) for x in rng.permutation(2 * N))
            walk = coined_walk(ShiftPermutation(sigma, coin_count=2, vertex_count=N),
                               [random_unitary(rng, 2) for _ in range(N)])
            res = np.abs(walk.unitary.conj().T @ walk.unitary - np.eye(2 * N)).max()
            assert res < 1e-10
        _announce(9, f"unitarity of {self.INSTANCES} random coined walks")

    def test_merge_on_off_equality(self):
        rng = np.random.default_rng(127)
        builders = [random_coherent,
                    lambda r, d: random_lvn(r, d, 2),
                    lambda r, d: random_general(r, d, 2)]
        for i in range(self.INSTANCES):
            dim = 4
            t = builders[i % 3](rng, dim)
            u = random_unitary(rng, dim)
            rho = random_density(rng, dim)
            if t.n_outcomes == 2:
                part = Partition.atomic(2)
            else:
                part = random_partition(rng, t.n_outcomes, 2)
            depth = 8 if i % 10 else 6
            if i % 10 == 0 and t.n_outcomes >= 3:
                part = random_partition(rng, t.n_outcomes, 3)
            opts_on = RunOptions(n_max=depth, min_steps=depth)
            opts_off = RunOptions(n_max=depth, min_steps=depth, merge=False)
            on = sz_entropy_run(u, t, rho, part, opts_on)
            off = sz_entropy_run(u, t, rho, part, opts_off)
            for a, b in zip(on.report.direct_sequence, off.report.direct_sequence):
                assert abs(a - b) < 1e-10
        _announce(9, f"merge-on/off a_n equality on {self.INSTANCES} random runs")


def test_criterion_10_reference_table_passes():
    started = time.perf_counter()
    status = paper_check()
    elapsed = time.perf_counter() - started
    assert status == 0
    assert elapsed < 60.0
    _announce(10, f"all seven closed-form rows within tolerance ({elapsed:.2f}s)")
