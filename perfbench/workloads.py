"""The three benchmark workloads: inputs, one solve, and an independent check.

Every workload is closed-loop: one process, one solve at a time. `setup`
builds the inputs, `solve` is what the user waits for, and `check` compares
the result with a reference that does not come from the code under test
(closed forms, or brute-force cylinder probabilities), returning the absolute
error in nats or raising `CheckFailed`. Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import product
from pathlib import Path

import numpy as np

from szwalk import classical, cli, quantum, sz, walks
from szwalk.entropy import Partition, eta

LN2 = math.log(2.0)


class CheckFailed(Exception):
    """A result disagrees with its reference; `error` is the distance, if known."""

    def __init__(self, message: str, error: float | None = None):
        super().__init__(message)
        self.error = error


def _within(name: str, value: float | None, expected: float, tol: float) -> float:
    if value is None:
        raise CheckFailed(f"{name}: no converged value")
    err = abs(value - expected)
    if not err <= tol:
        raise CheckFailed(f"{name}: {value!r} is {err:.3e} from {expected!r} (tol {tol:g})", err)
    return err


class Rank2Deep:
    """Hadamard U², N=25, rank-2 position instrument, atomic partition,
    maximally mixed state: a deep, narrow tree whose children mostly merge."""

    uses_seed = False
    N = 25

    def __init__(self, seed: int, workdir: Path):
        pass

    def setup(self):
        walk = walks.hadamard_walk(self.N)
        instrument = walks.position_instrument(self.N)
        return (walks.unitary_power(walk, 2), instrument, quantum.maximally_mixed(walk.dim),
                Partition.atomic(self.N, labels=instrument.outcome_labels))

    def solve(self, inputs):
        return sz.dynamical_entropy(*inputs, sz.RunOptions(n_max=25))

    def check(self, inputs, report) -> float:
        # Paper-check tolerance: the tree stops at depth 24, not at the limit.
        return _within("dynamical entropy", report.dynamical_entropy, 4.0 / 3.0 * LN2, 1e-5)


class CoherentWide:
    """Coin-vertex coherent instruments for N in {25, 35, 49}, reduced to their
    Markov chains, plus one small engine solve (Hadamard U², N=15, vertex
    blocks). Building and validating the instruments dominates."""

    uses_seed = False
    SIZES = (25, 35, 49)
    ENGINE_N = 15

    def __init__(self, seed: int, workdir: Path):
        pass

    def setup(self):
        chains = [(walks.hadamard_walk(n).unitary, walks.coin_vertex_instrument(n),
                   walks.hadamard_eigenstate(n)) for n in self.SIZES]
        n = self.ENGINE_N
        walk = walks.hadamard_walk(n)
        engine = (walks.unitary_power(walk, 2), walks.coin_vertex_instrument(n),
                  quantum.maximally_mixed(walk.dim), walks.vertex_partition(n))
        return chains, engine

    def solve(self, inputs):
        chains, engine = inputs
        rates = []
        for unitary, instrument, state in chains:
            reduction = sz.markov_reduction(unitary, instrument, state)
            P = reduction.transition_matrix
            rate = classical.entropy_rate(P, reduction.initial_distribution, n_max=5, tol=1e-9)
            stationary_h = classical.markov_entropy(P, classical.stationary_distribution(P))
            rates.append((rate.converged_value, stationary_h))
        return rates, sz.dynamical_entropy(*engine, sz.RunOptions(n_max=12))

    def check(self, inputs, result) -> float:
        rates, report = result
        errors = [_within("engine dynamical entropy", report.dynamical_entropy,
                          1.5 * LN2, 1e-9)]
        # Every column of the coin-vertex chain holds two entries 1/2.
        for n, (rate, stationary_h) in zip(self.SIZES, rates):
            errors.append(_within(f"entropy rate N={n}", rate, LN2, 1e-9))
            errors.append(_within(f"stationary entropy N={n}", stationary_h, LN2, 1e-9))
        return max(errors)


class KrausTree:
    """`szwalk run` in process on a generated config: Hadamard N=4 with two
    random non-projective Kraus operators drawn from the seed. Nothing merges,
    so the tree doubles at every depth up to n_max."""

    uses_seed = True
    N = 4
    N_MAX = 14
    CHECKED_DEPTHS = 6

    def __init__(self, seed: int, workdir: Path):
        self.out_dir = workdir / "out"
        self.config_path = workdir / "kraus_tree.json"
        workdir.mkdir(parents=True, exist_ok=True)
        dim = 2 * self.N
        rng = np.random.default_rng(seed)
        # A random isometry V (2d x d) splits into K0, K1 with K0†K0 + K1†K1 = 1.
        q, r = np.linalg.qr(rng.normal(size=(2 * dim, dim))
                            + 1j * rng.normal(size=(2 * dim, dim)))
        v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        self.kraus = [v[:dim], v[dim:]]
        config = {
            "walk": {"kind": "hadamard", "N": self.N},
            "instrument": {"kind": "explicit_kraus",
                           "kraus": [[[[z.real, z.imag] for z in row] for row in k.tolist()]
                                     for k in self.kraus]},
            "state": {"kind": "maximally_mixed"},
            "partition": {"kind": "atomic"},
            "run": {"n_max": self.N_MAX},
        }
        self.config_path.write_text(json.dumps(config))
        self.reference = self._brute_force_a_n()

    def _brute_force_a_n(self) -> list[float]:
        """a_n = H(X_0..X_n) - H(X_0..X_{n-1}) from every cylinder probability,
        with inputs built from the Kraus arrays rather than from the config."""
        walk = walks.hadamard_walk(self.N)
        instrument = quantum.general_instrument(self.kraus)
        state = quantum.maximally_mixed(walk.dim)
        joint = [0.0]
        for n in range(self.CHECKED_DEPTHS):
            joint.append(sum(eta(max(sz.cylinder_probability(walk.unitary, instrument, state,
                                                             seq), 0.0))
                             for seq in product(([0], [1]), repeat=n + 1)))
        return [joint[n + 1] - joint[n] for n in range(self.CHECKED_DEPTHS)]

    def setup(self):
        return cli.load_config(self.config_path)

    def solve(self, inputs):
        return cli.run_config(self.config_path, out_dir=self.out_dir)

    def check(self, inputs, record) -> float:
        with open(record.csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.N_MAX + 1:
            raise CheckFailed(f"depth CSV has {len(rows)} rows, expected {self.N_MAX + 1}")
        summary = json.loads(Path(record.summary_path).read_text())
        if summary["sz"]["converged"] is not False:
            raise CheckFailed("summary reports the run as converged")
        return max(_within(f"a_{n}", float(row["a_n"]), ref, 1e-10)
                   for n, (row, ref) in enumerate(zip(rows, self.reference)))


WORKLOADS = {"rank2_deep": Rank2Deep, "coherent_wide": CoherentWide, "kraus_tree": KrausTree}
