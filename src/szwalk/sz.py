"""SZ entropy of measured quantum dynamics via exact trajectory enumeration.

The engine grows the tree of measurement-outcome block sequences one time
step at a time: every branch carries the unnormalized post-measurement
operator T(A_n)∘Θ∘...∘T(A_0)ρ, whose trace is the branch probability.
The entropy estimate is the conditional-entropy sequence
a_n = H(X_n | X_0..X_{n-1}), whose limit (when it exists) equals the
entropy rate of the outcome process.

Two exact reductions keep the tree small:

* branches landing in the same block whose trace-normalized conditional
  operators agree are merged (the normalized operator determines every
  future conditional distribution, so a_n is unchanged);
* branches below `prune_eps` (numerically zero) are dropped, with their
  mass tracked in `pruned_mass`.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .classical import TransitionMatrix
from .entropy import ConvergenceReport, Partition, ProbVector, eta, limit_estimate
from .errors import (AccuracyError, NumericError, ResourceLimitError,
                     UnsupportedConfigurationError, ValidationError)
from .quantum import (DensityState, Instrument, Operator, as_operator, apply_instrument,
                      orthonormal_columns, outcome_pmf)

NORMALIZATION_TOL = 1e-8
PRUNED_MASS_LIMIT = 1e-6
RANK1_TOL = 1e-8


@dataclass(frozen=True)
class RunOptions:
    """Knobs for the trajectory engine (defaults suit the desk-scale walks).

    Each field must have its default's type (an int is accepted where a float
    is expected, a bool never counts as a number) and lie in the range that
    `__post_init__` checks; anything else raises `ValidationError` naming the field.
    """

    n_max: int = 25
    tol: float = 1e-7
    window: int = 3
    prune_eps: float = 1e-14
    merge_tol: float = 1e-10
    merge: bool = True
    classify: bool = False
    strict: bool = False
    branch_budget: int = 1_000_000
    min_steps: int = 0

    def __post_init__(self):
        for f in fields(self):
            value, wanted = getattr(self, f.name), type(f.default)
            kind = {bool: bool, int: numbers.Integral, float: numbers.Real}[wanted]
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ValidationError(
                    f"option '{f.name}' must be of type {wanted.__name__}, got {value!r}")
        # NaN fails every comparison, so it is rejected here too.
        for name, ok, rule in (("tol", self.tol > 0, "> 0"),
                               ("merge_tol", self.merge_tol > 0, "> 0"),
                               ("prune_eps", self.prune_eps >= 0, ">= 0"),
                               ("n_max", self.n_max >= 0, ">= 0"),
                               ("min_steps", self.min_steps >= 0, ">= 0"),
                               ("branch_budget", self.branch_budget >= 1, ">= 1"),
                               ("window", self.window >= 2, ">= 2")):
            if not ok:
                raise ValidationError(
                    f"option '{name}' must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RunStats:
    """Terminal-run bookkeeping for one branch.

    `constant` marks an all-one-block sequence; `parity` is the length of the
    terminal constant run mod 2; `entry_block` is the block visited just
    before that run started (None while constant).
    """

    constant: bool
    parity: int
    entry_block: int | None

    def extend(self, same_block: bool, previous_block: int | None) -> "RunStats":
        if previous_block is None:
            return RunStats(True, 0, None)
        if same_block:
            return RunStats(self.constant, self.parity ^ 1, self.entry_block)
        return RunStats(False, 0, previous_block)


@dataclass
class TrajectoryBranch:
    """One live node of the trajectory tree (the root has no block yet)."""

    last_block: int | None
    weight: float
    conditional_op: np.ndarray
    stats: RunStats | None = None


@dataclass(frozen=True)
class ClassMasses:
    """Probability mass by terminal-run class: constant / even / odd."""

    constant: float
    even: float
    odd: float


@dataclass(frozen=True)
class DepthRecord:
    depth: int
    a_n: float
    cesaro: float
    branch_count: int
    merged_count: int
    pruned_mass: float
    classes: ClassMasses | None = None


@dataclass
class SZRun:
    """Result of one trajectory-tree run."""

    branches: list[TrajectoryBranch]
    depth: int
    records: list[DepthRecord]
    pruned_mass: float
    report: ConvergenceReport


@dataclass(frozen=True)
class EntropyReport:
    """SZ and measurement entropies, their difference, and the SZ run's depth records."""

    sz_entropy: ConvergenceReport
    measurement_entropy: ConvergenceReport
    dynamical_entropy: float | None
    records: list[DepthRecord]


@dataclass(frozen=True)
class MarkovReduction:
    """Transition matrix and initial pmf of a coherent-state outcome process."""

    transition_matrix: TransitionMatrix
    initial_distribution: ProbVector


def _check_unitary(u, dim: int) -> Operator:
    u = as_operator(u)
    if u.shape[0] != dim:
        raise ValidationError(
            f"dynamics dimension {u.shape[0]} does not match instrument dimension {dim}")
    res = float(np.abs(u.conj().T @ u - np.eye(dim)).max())
    if res > 1e-8:
        raise ValidationError(f"dynamics not unitary: residual {res:.3e}")
    return u


def cylinder_probability(walk_unitary: Operator | None, t: Instrument, rho: DensityState,
                         blocks: Sequence[Sequence[int]]) -> float:
    """Probability of observing the outcome sets `blocks` at times 0..n.

    Computed as tr(T(A_n)∘Θ∘...∘Θ∘T(A_0)ρ) with Θ the conjugation by the
    walk unitary (identity dynamics when `walk_unitary` is None).
    """
    if len(blocks) == 0:
        raise ValidationError("cylinder needs at least one outcome set")
    if rho.dim != t.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    u = None if walk_unitary is None else _check_unitary(walk_unitary, t.dim)
    op = apply_instrument(t, blocks[0], rho.matrix)
    for block in blocks[1:]:
        if u is not None:
            op = u @ op @ u.conj().T
        op = apply_instrument(t, block, op)
    return float(np.real(np.trace(op)))


def cs_transition_matrix(u: Operator, basis: Sequence) -> TransitionMatrix:
    """Markov transition matrix |<a_i|U|a_j>|^2 of a coherent-state measurement."""
    u = as_operator(u)
    A = orthonormal_columns(basis, u.shape[0])
    amps = A.conj().T @ u @ A
    return TransitionMatrix(np.abs(amps) ** 2)


def _fingerprint(op: np.ndarray, weight: float, merge_tol: float) -> bytes:
    # Interleaved (re, im) pairs: two ops share a key iff their real and imaginary parts do.
    return np.round((op / weight).view(np.float64) / merge_tol).astype(np.int64).tobytes()


def _merge_children(children: list[TrajectoryBranch], opts: RunOptions) -> tuple[list[TrajectoryBranch], int]:
    """Deterministically merge same-block children with matching normalized ops."""
    if not opts.merge:
        return children, 0
    buckets: dict[tuple, TrajectoryBranch] = {}
    for child in children:
        key = (child.last_block, _fingerprint(child.conditional_op, child.weight, opts.merge_tol),
               child.stats)
        kept = buckets.get(key)
        if kept is None:
            buckets[key] = child
        else:
            kept.weight += child.weight
            kept.conditional_op = kept.conditional_op + child.conditional_op
    merged = list(buckets.values())
    return merged, len(children) - len(merged)


def _classes_of(branches: list[TrajectoryBranch]) -> ClassMasses:
    c = e = o = 0.0
    for b in branches:
        if b.stats.constant:
            c += b.weight
        elif b.stats.parity == 1:
            o += b.weight
        else:
            e += b.weight
    return ClassMasses(constant=c, even=e, odd=o)


def sz_entropy_run(walk_unitary: Operator | None, t: Instrument, rho: DensityState,
                   partition: Partition, opts: RunOptions | None = None) -> SZRun:
    """Expand the trajectory tree and estimate the SZ entropy of (Θ, T, ρ, C).

    Each step conjugates every branch operator by the walk unitary and splits
    it across the partition blocks; a_n is accumulated from the per-branch
    conditional block distributions. The run stops when `limit_estimate`
    declares convergence of a_n (not before `min_steps`) or at `n_max`.
    """
    opts = opts or RunOptions()
    if partition.size != t.n_outcomes:
        raise ValidationError(
            f"partition covers {partition.size} outcomes, instrument has {t.n_outcomes}")
    if rho.dim != t.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    u = None if walk_unitary is None else _check_unitary(walk_unitary, t.dim)
    udag = None if u is None else u.conj().T

    # Depth 0 measures rho itself: the root is the one parent that is not evolved.
    branches = [TrajectoryBranch(last_block=None, weight=1.0, conditional_op=rho.matrix,
                                 stats=RunStats(True, 0, None) if opts.classify else None)]
    pruned_mass = 0.0
    a_seq: list[float] = []
    records: list[DepthRecord] = []
    for depth in range(opts.n_max + 1):
        children = []
        a_n = 0.0
        for parent in branches:
            evolved = (parent.conditional_op if u is None or depth == 0
                       else u @ parent.conditional_op @ udag)
            for bi, block in enumerate(partition.blocks):
                op = apply_instrument(t, block, evolved)
                w = max(float(op.trace().real), 0.0)
                ratio = min(w / parent.weight, 1.0)
                a_n += parent.weight * eta(ratio)
                if w > opts.prune_eps:
                    children.append(TrajectoryBranch(
                        last_block=bi, weight=w, conditional_op=op,
                        stats=parent.stats.extend(bi == parent.last_block, parent.last_block)
                        if opts.classify else None))
                else:
                    pruned_mass += w
        branches, merged = _merge_children(children, opts)
        if len(branches) > opts.branch_budget:
            raise ResourceLimitError(
                f"live branch count {len(branches)} exceeds the budget of {opts.branch_budget}")
        a_seq.append(max(a_n, 0.0))
        total = sum(b.weight for b in branches) + pruned_mass
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NumericError(
                f"branch mass {total!r} at depth {depth} drifted from 1 by {abs(total - 1.0):.3e}")
        records.append(DepthRecord(
            depth=depth, a_n=a_seq[depth], cesaro=float(np.mean(a_seq)),
            branch_count=len(branches), merged_count=merged, pruned_mass=pruned_mass,
            classes=_classes_of(branches) if opts.classify else None))
        report = limit_estimate(a_seq, tol=opts.tol, window=opts.window)
        if report.converged and depth >= opts.min_steps:
            break

    if pruned_mass > PRUNED_MASS_LIMIT:
        message = (f"pruned mass {pruned_mass:.3e} exceeds {PRUNED_MASS_LIMIT:g}; "
                   "entropies may be inaccurate")
        if opts.strict:
            raise AccuracyError(message)
        warnings.warn(message, stacklevel=2)
    return SZRun(branches=branches, depth=depth, records=records, pruned_mass=pruned_mass,
                 report=report)


def measurement_entropy(t: Instrument, rho: DensityState, partition: Partition,
                        opts: RunOptions | None = None) -> ConvergenceReport:
    """SZ entropy with identity dynamics: randomness due to the instrument alone."""
    return sz_entropy_run(None, t, rho, partition, opts).report


def dynamical_entropy(walk_unitary: Operator, t: Instrument, rho: DensityState,
                      partition: Partition, opts: RunOptions | None = None) -> EntropyReport:
    """Full SZ entropy, measurement entropy, and their difference when defined."""
    opts = opts or RunOptions()
    # Measurement first: it keeps only its report, so one tree is resident at a time.
    meas = measurement_entropy(t, rho, partition, opts)
    run = sz_entropy_run(walk_unitary, t, rho, partition, opts)
    value = None
    if run.report.converged and meas.converged:
        value = run.report.converged_value - meas.converged_value
    return EntropyReport(sz_entropy=run.report, measurement_entropy=meas,
                         dynamical_entropy=value, records=run.records)


def markov_reduction(walk_unitary: Operator, t: Instrument, rho: DensityState) -> MarkovReduction:
    """Classical reduction of a coherent-state run: transition matrix plus initial pmf.

    Only instruments made of rank-1 projections |a_i><a_i| admit this fast
    path; the entropy-rate computation itself is the classical module's job.
    """
    basis = []
    for i, b in enumerate(t.kraus):
        vec = b[:, int(np.argmax(np.abs(np.diagonal(b))))]
        vec = vec / (np.linalg.norm(vec) or 1.0)  # a zero column stays zero and fails below
        res = float(np.abs(b - np.outer(vec, vec.conj())).max())
        if res > RANK1_TOL:
            raise UnsupportedConfigurationError(
                f"Markov reduction needs rank-1 projections: outcome {i} has "
                f"max |B - vv†| = {res:.3e} (tol {RANK1_TOL:g})")
        basis.append(vec)
    P = cs_transition_matrix(walk_unitary, basis)
    mu0 = outcome_pmf(t, rho)
    return MarkovReduction(transition_matrix=P, initial_distribution=mu0)
