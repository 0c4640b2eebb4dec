"""SZ entropy of measured quantum dynamics via exact trajectory enumeration.

The engine grows the tree of measurement-outcome block sequences one time
step at a time: every branch carries the unnormalized post-measurement
operator T(A_n)∘Θ∘...∘T(A_0)ρ, whose trace is the branch probability.
The entropy estimate is the conditional-entropy sequence
a_n = H(X_n | X_0..X_{n-1}), whose limit (when it exists) equals the
entropy rate of the outcome process.

Three exact reductions keep the tree small or end it:

* branches landing in the same block whose trace-normalized conditional
  operators agree are merged (the normalized operator determines every
  future conditional distribution, so a_n is unchanged);
* branches below `prune_eps` (numerically zero) are dropped, with their
  mass tracked in `pruned_mass`;
* when every child of a depth merges into a key of the previous depth's
  live branches, the live set is closed under the dynamics. The merged
  branches are then the states of Blackwell's belief-state chain: with M
  the state-to-state transition matrix, h the per-state entropy of the
  next block and π the children's weights, a_{n+1+k} = π M^k h exactly,
  and the limit of a_n (in the Cesàro sense, which covers periodic
  chains) is π Π h with Π the eigenvalue-1 projector of M. The run stops
  there with that limit.

A depth takes its live parents in fixed chunks sized by the bytes they hold: a chunk's r×r
evolved parents, each child's block and dim-long diagonal, and the dim×dim staging buffer and
the one dense child alive at a time stay near `CHUNK_BYTES`. A parent of block b has children
only in the blocks whose support meets R_b, the rows it is evolved onto (below; S_b under
identity dynamics): any other block's child is the kernel's shared zero, which holds nothing.
So a chunk reserves children for the most blocks one parent reaches, not for every block of the
partition: rank-2 U² reaches 3, and a chunk holds 78 parents at N = 25 and 21 at N = 49. The
budget is checked on each new key, so the children made before it raises stay within one chunk.
A branch carries the block b it was last measured in (None at the root) and is zero outside
S_b×S_b, S_b that block's support. After the root it is one k×k array on P_b, S_b padded to the
run's largest support size k by the first indices outside it, in increasing order. U·ρ·U† is
then zero outside R_b×R_b, R_b the nonzero rows of U[:, S_b] padded to the largest size r the
same way, and a chunk evolves by one stacked product W_b·ρ·W_b†, W_b = U[R_b, P_b]: r·k(k+r)
complex multiply-adds per parent, not 2d³. Each of its matrices is bitwise that product alone,
and for the Hadamard walk and its powers bitwise U·ρ·U† on R_b×R_b; for a generic unitary it
agrees within round-off (the tests ask 1e-14·‖ρ‖) and is the engine's definition of the
evolution. With identity dynamics a parent is its own evolved block on P_b. The kernel
`apply_instrument` runs once per (parent, block) on a dim×dim operator: a smaller parent is
scattered by its flat index into one +0 buffer held for the run, measured there by every block,
and cleared again. That call is the unit a test swaps for its dense oracle and a profile
counts. A child whose terms the kernel skips as exactly zero is its read-only `shared_zero`,
which the engine recognizes by identity and leaves out unweighed. Any other child is cut on
return to its block on P_b by one `take`, after a copy of its diagonal. The chunk's children
are weighed from one stack of those diagonals, so each weight adds as `trace` adds that child;
those of weight exactly 0.0 are left out too (each would add +0 to every sum and is never
kept), and the kept blocks are keyed in one stacked pass. `_measure` hands the chunk back as
parallel lists, and each child's share min(w / parent weight, 1) comes for the whole chunk from
one vector pass, bitwise the scalar division. `eta` stays one scalar call per child: `np.log`
is not `math.log` bit for bit. The bookkeeping then makes one pass in (parent, block) order, so
every sum (a_n, h, pruned mass, merged blocks and weights) adds as when each child is booked
alone. A fresh zero array in place of the kernel's shared one weighs 0.0 too, so the run does
not depend on it. While closure is tracked (merging on, at most `LIFT_MAX_STATES` parents), the
pass also records each kept child's (parent position, key, ratio) and each parent's next-block
entropy; after the depth the tree is closed iff every live key is a parent's key.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .classical import TransitionMatrix, cesaro_projector
from .entropy import ConvergenceReport, Partition, ProbVector, eta, limit_estimate
from .errors import (AccuracyError, NumericError, ResourceLimitError,
                     UnsupportedConfigurationError, ValidationError, is_kind, require)
from .quantum import (DensityState, Instrument, Operator, as_operator, apply_instrument,
                      flat_index, identity_residual, orthonormal_columns, outcome_pmf,
                      shared_zero)

NORMALIZATION_TOL = 1e-8
PRUNED_MASS_LIMIT = 1e-6
RANK1_TOL = 1e-8
LIFT_MAX_STATES = 1000  # closure is tracked only while at most this many branches are live
CHUNK_BYTES = 256 * 1024  # bound on the bytes a chunk of parents holds in flight
MERGE_TOL_MIN = 1e-18  # merge keys count merge_tol units of entries |x| <= 1 in int64 (< 2**63)


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
            require(is_kind(value, kind),
                    f"option '{f.name}' must be of type {wanted.__name__}, got {value!r}")
        for name, ok, rule in (("tol", 0 < self.tol < np.inf, "finite and > 0"),
                               ("merge_tol", MERGE_TOL_MIN <= self.merge_tol < np.inf,
                                f"finite and >= {MERGE_TOL_MIN:g}"),
                               ("prune_eps", 0 <= self.prune_eps < np.inf, "finite and >= 0"),
                               ("n_max", self.n_max >= 0, ">= 0"),
                               ("min_steps", self.min_steps >= 0, ">= 0"),
                               ("branch_budget", self.branch_budget >= 1, ">= 1"),
                               ("window", self.window >= 2, ">= 2")):
            require(ok, f"option '{name}' must be {rule}, got {getattr(self, name)!r}")


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

    def extend(self, last: int | None, block: int) -> "RunStats":
        """The stats once `block` follows a branch last measured in `last` (None: the root)."""
        if last is None:
            return RunStats(True, 0, None)
        if block == last:
            return RunStats(self.constant, self.parity ^ 1, self.entry_block)
        return RunStats(False, 0, last)


@dataclass(slots=True)
class TrajectoryBranch:
    """One live node of the trajectory tree: `block` is the block it was last measured in (None
    at the root), so its operator is zero outside S×S, S that block's support. `conditional_op`
    holds the k×k block ρ[P,P], P being S padded to the run's largest support size k by the
    first indices outside S, in increasing order: k×k for every block when support sizes
    differ. The root holds the start state. `stats` only when the run classifies."""

    weight: float
    conditional_op: np.ndarray
    block: int | None = None
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


@dataclass(frozen=True)
class BeliefLift:
    """A closed tree as a finite Markov chain on its merged states.

    State s is the s-th live branch before the closing depth d. `transitions[s, t]` is the
    probability that s moves to state t, `entropies[s]` the entropy of s's next outcome
    block and `weights[t]` the mass on t after depth d, so that
    a_{d+1+k} = weights · transitions^k · entropies. `limit` is the Cesàro limit of a_n.
    """

    transitions: np.ndarray
    entropies: np.ndarray
    weights: np.ndarray
    limit: float


@dataclass
class SZRun:
    """Result of one trajectory-tree run.

    `stop_reason` is "closed" (the live states closed; `lift` holds the chain whose limit is
    the report's value), "converged" (`limit_estimate` accepted a_n) or "n_max". `branches` are
    the live branches of the last depth, each k×k on its padded support: with mixed support
    sizes a small block is held at the largest size (see `TrajectoryBranch`).
    """

    branches: list[TrajectoryBranch]
    depth: int
    records: list[DepthRecord]
    pruned_mass: float
    report: ConvergenceReport
    stop_reason: str
    lift: BeliefLift | None = None


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


def _checked_unitary(walk_unitary: Operator | None, t: Instrument,
                     rho: DensityState) -> Operator | None:
    """`walk_unitary` checked against `t` (None: identity dynamics), after `rho`'s dimension."""
    require(rho.dim == t.dim,
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    if walk_unitary is None:
        return None
    u = as_operator(walk_unitary)
    require(u.shape[0] == t.dim,
            f"dynamics dimension {u.shape[0]} does not match instrument dimension {t.dim}")
    res = identity_residual(u.conj().T @ u)
    require(res <= 1e-8, f"dynamics not unitary: residual {res:.3e}")
    return u


def cylinder_probability(walk_unitary: Operator | None, t: Instrument, rho: DensityState,
                         blocks: Sequence[Sequence[int]]) -> float:
    """Probability of observing the outcome sets `blocks` at times 0..n.

    Computed as tr(T(A_n)∘Θ∘...∘Θ∘T(A_0)ρ) with Θ the conjugation by the
    walk unitary (identity dynamics when `walk_unitary` is None).
    """
    if len(blocks) == 0:
        raise ValidationError("cylinder needs at least one outcome set")
    u = _checked_unitary(walk_unitary, t, rho)
    require(all(len(block) > 0 for block in blocks), "every outcome set must be non-empty")
    op = apply_instrument(t, blocks[0], rho.matrix)
    for block in blocks[1:]:
        if u is not None:
            op = u @ op @ u.conj().T
        op = apply_instrument(t, block, op)
    return float(np.real(np.trace(op)))


def _padded(marks: np.ndarray, size: int) -> np.ndarray:
    """Each row of the bool matrix `marks` as its marked indices, padded to `size` by the first
    unmarked ones and kept in increasing order (a stable sort puts the marked ones first)."""
    return np.sort(np.argsort(~marks, axis=1, kind="stable")[:, :size], axis=1)


def _layout(dim: int, supports: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """(squares, held) for the blocks' flat S×S indices `supports`: `squares[b]` is the flat
    P_b×P_b index laid out k×k, P_b being S_b padded to the largest size k by the first indices
    outside it, in increasing order; `held[b]` marks S_b in range(dim). Where every support has
    size k, P_b = S_b and the pad is skipped: it gives the same P_b, about 20 µs later at dim 10."""
    sizes = [math.isqrt(flat.size) for flat in supports]
    k = max(sizes)
    held = np.zeros((len(sizes), dim), dtype=bool)  # row 0 of S×S is s_0·d + S
    held[np.repeat(np.arange(len(sizes)), sizes),
         np.concatenate([flat[:n] for flat, n in zip(supports, sizes)]) % dim] = True
    if min(sizes) == k:
        return [flat.reshape(k, k) for flat in supports], held
    squares = flat_index(_padded(held, k), dim).reshape(len(sizes), k, k)
    return list(squares), held


def _columns(u: Operator, supports: list[np.ndarray], held: np.ndarray) -> tuple:
    """(W, W†, pairs, places, reached) for `_evolve` and `_measure`, from `_layout`'s P×P
    indices and S marks. `reached[b]` marks R_b, the nonzero rows of U[:, S_b]; each R_b is
    padded to the largest size r as S_b is to P_b (skipped where every R_b has r rows). W
    stacks W_b = U[R_b, P_b] and W† their adjoints once per distinct (R_b, P_b), `pairs[b]`
    block b's position there, so that a branch ρ on P_b evolves to W_b·ρ·W_b†, the r×r block
    of U·ρ·U† on R_b×R_b; `places[b]` is the flat R_b×R_b index laid out r×r. When k = dim, W
    is the one U and each product is bitwise the dense one; when r = dim, nothing is staged."""
    d = u.shape[0]
    sets = np.array([flat[0] for flat in supports]) % d  # row 0 of P×P is p_0·d + P
    inside = held[np.arange(len(sets))[:, None], sets]  # a padding column is not in S_b
    reached = ((u != 0)[:, sets] & inside).any(axis=2).T  # blocks × dim
    counts = reached.sum(axis=1)
    r = int(counts.max())
    rows = np.nonzero(reached)[1].reshape(-1, r) if counts.min() == r else _padded(reached, r)
    keys = np.hstack((rows, sets))  # (R_b, P_b), each row viewed as one opaque item
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()
    found: dict = {}  # (R_b, P_b) → (its position in W, a block with it)
    pairs = [found.setdefault(key, (len(found), b))[0] for b, key in enumerate(keys)]
    chosen = [b for _, b in found.values()]
    w = u[rows[chosen, :, None], sets[chosen, None, :]]
    places = flat_index(rows[chosen], d).reshape(len(chosen), r, -1)
    return (w, np.ascontiguousarray(w.conj().transpose(0, 2, 1)), pairs,
            [places[i] for i in pairs], reached)


def _evolve(ops: list[np.ndarray], pairs: list[int], w: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """The evolved parents of a chunk, stacked in chunk order: parent s, held on P_b, evolves to
    W_b·ρ·W_b† on R_b×R_b, `pairs[s]` its (R_b, P_b) in `w` and `wh` (see `_columns`). One
    stacked product; each of its matrices is bitwise the product of that matrix alone."""
    return w.take(pairs, 0) @ np.array(ops) @ wh.take(pairs, 0)


def _measure(t: Instrument, blocks: Sequence[Sequence[int]], supports: list[np.ndarray],
             evolved: Sequence[np.ndarray], places: Sequence[np.ndarray] | None,
             buffer: np.ndarray, opts: RunOptions) -> tuple[list, list, list, list, list]:
    """Parallel lists (parent positions, blocks, children, weights, merge keys) of the children
    of a chunk whose weight is not exactly 0.0, in (parent, block) order.

    Each child is one `apply_instrument` call on its evolved parent, dim×dim. A parent held
    smaller is first scattered by its flat index `places[s]` into `buffer`, the run's flat
    dim×dim +0 buffer, and cleared again after its children are made. The kernel's
    `shared_zero` is left out by identity. Any other child is cut on return to its k×k block
    on P, one `take` by `supports[block]`, after a copy of its diagonal, so that its dense
    array is freed at once (a child whose P is the whole space stays the kernel's array). The
    children are weighed from one stack of their diagonals (the trace clipped at 0, summed as
    `trace` sums it; a NaN stays). A child at or below `prune_eps` gets child and key None; a
    kept child's key comes from `_merge_keys`.
    """
    zero = shared_zero(t.dim)
    positions, chosen, children, diagonals = [], [], [], []
    stage = buffer.reshape(t.dim, t.dim)
    for s, op in enumerate(evolved):
        staged = op.shape[0] < t.dim
        if staged:
            buffer[places[s]] = op
            op = stage
        for bi, block in enumerate(blocks):
            child = apply_instrument(t, block, op)
            if child is zero:
                continue
            index = supports[bi]
            if index.size == child.size:  # whole space
                diagonals.append(child.diagonal())
            else:
                diagonals.append(child.diagonal().copy())
                child = child.take(index)
            positions.append(s)
            chosen.append(bi)
            children.append(child)
        if staged:
            buffer[places[s]] = 0
    weights = np.maximum(np.array(diagonals).reshape(len(children), t.dim).sum(axis=1).real,
                         0.0).tolist()
    if 0.0 in weights:  # a NaN weight is not 0.0 and stays
        kept = [i for i, w in enumerate(weights) if w != 0.0]
        positions, chosen, children, weights = ([items[i] for i in kept] for items in
                                                (positions, chosen, children, weights))
    eps = opts.prune_eps
    children = [child if w > eps else None for child, w in zip(children, weights)]
    keys = _merge_keys(children, weights, opts.merge_tol) if opts.merge else [None] * len(weights)
    return positions, chosen, children, weights, keys


def _merge_keys(children: list, weights: list[float], merge_tol: float) -> list:
    """The merge key of each child of `children` over its weight (see `_measure`), None where
    the child is None (pruned).

    The key holds the entries of the child's k×k block over its weight, in row-major order, in
    units of `merge_tol` and rounded, as interleaved (re, im) pairs: two children share a key
    iff their real and imaginary parts do. Every kept child has k² entries, so one pass over
    them stacked does the same float operations as on each child alone.
    """
    keys = [None] * len(children)
    index = [i for i, child in enumerate(children) if child is not None]
    if not index:
        return keys
    scaled = (np.array([children[i] for i in index]).reshape(len(index), -1)
              / np.array([weights[i] for i in index])[:, None]).view(float)
    scaled /= merge_tol
    np.rint(scaled, out=scaled)
    # Each child's entries viewed as one opaque item: `tolist` gives its bytes.
    rows = scaled.astype(np.int64).view(np.dtype((np.void, 8 * scaled.shape[1])))
    for i, key in zip(index, rows.ravel().tolist()):
        keys[i] = key
    return keys


def _belief_lift(moves: list[tuple[int, object, float]], entropies: list[float],
                 parents: dict, live: dict) -> BeliefLift | None:
    """The lift of a closed depth (every `live` key is a key of `parents`, which maps it to
    its state), or None where M's eigenvalue-1 projector is not resolved."""
    n = len(entropies)
    m = np.zeros((n, n))
    for s, key, p in moves:
        m[s, parents[key]] = p
    weights = np.zeros(n)
    for key, b in live.items():
        weights[parents[key]] = b.weight
    projector = cesaro_projector(m)
    if projector is None:
        return None
    h = np.array(entropies)
    # π Π h as the next a_n plus the part of π that Π removes: exact already at the limit.
    limit = float(weights @ h + (weights @ projector - weights) @ h)
    return BeliefLift(transitions=m, entropies=h, weights=weights, limit=limit)


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
    declares convergence of a_n, or when the merged live states close (see the module
    docstring), but not before `min_steps`; otherwise at `n_max`.
    """
    opts = opts or RunOptions()
    if partition.size != t.n_outcomes:
        raise ValidationError(
            f"partition covers {partition.size} outcomes, instrument has {t.n_outcomes}")
    u = _checked_unitary(walk_unitary, t, rho)

    # After the root a branch is held on P_b, block b's support padded to the run's largest
    # support size k (see `_layout`); one `take` by supports[b] gives a child's block.
    supports, held = _layout(t.dim, [t.support_index(block) for block in partition.blocks])
    k = supports[0].shape[0]
    places, reached = supports, held  # identity dynamics: a parent stays on its block's P×P
    if u is not None:
        ws, whs, pairs, places, reached = _columns(u, supports, held)
    r = places[0].shape[0]
    buffer = np.zeros(t.dim * t.dim, dtype=complex)

    # Depth 0 measures rho itself: the root is the one parent that is not evolved.
    branches = [TrajectoryBranch(1.0, rho.matrix, None,
                                 RunStats(True, 0, None) if opts.classify else None)]
    blocks = partition.blocks
    # A chunk's evolved parents (r×r each) and its children's blocks and diagonals, plus the
    # staging buffer and the one dense child alive at a time, stay near CHUNK_BYTES. A parent
    # of block b has children only in the blocks whose support meets R_b (the kernel returns
    # its shared zero for the others): children are reserved for the most blocks one reaches.
    fan_out = int(np.count_nonzero(reached.astype(float) @ held.T.astype(float), axis=1).max())
    chunk_size = max(1, (CHUNK_BYTES // np.dtype(complex).itemsize - t.dim * t.dim)
                     // (r * r + fan_out * (k * k + t.dim)))
    pruned_mass = 0.0
    a_seq: list[float] = []
    records: list[DepthRecord] = []
    # Position of each parent by merge key, while closure is tracked; then each kept child's
    # (parent position, key, ratio) and each parent's next-block entropy are recorded.
    parents: dict | None = None
    stop_reason, lift = "n_max", None
    classify, merge, budget = opts.classify, opts.merge, opts.branch_budget  # read per child
    for depth in range(opts.n_max + 1):
        # Children merge as they are made, summed in order of creation into the live branch
        # with their key; without merging every key is new. The budget is checked per new key,
        # so a depth passes it by at most one chunk's children.
        live: dict = {}
        merged = 0
        a_n = 0.0
        moves, entropies = ([], [0.0] * len(branches)) if parents is not None else (None, None)
        for start in range(0, len(branches), chunk_size):
            chunk = branches[start:start + chunk_size]
            branches[start:start + chunk_size] = [None] * len(chunk)  # a spent parent is freed
            ops = [parent.conditional_op for parent in chunk]
            owners = [parent.block for parent in chunk]
            evolved = (ops if depth == 0 or u is None
                       else _evolve(ops, [pairs[b] for b in owners], ws, whs))
            homes = None if depth == 0 else [places[b] for b in owners]
            positions, chosen, children, weights, keys = _measure(t, blocks, supports, evolved,
                                                                  homes, buffer, opts)
            # Each child's share of its parent, for the whole chunk in one vector pass.
            ratios = np.minimum(np.array(weights) / np.array([p.weight for p in chunk])[positions],
                                1.0).tolist()
            for s, bi, op, w, fingerprint, ratio in zip(positions, chosen, children, weights,
                                                         keys, ratios):
                parent = chunk[s]
                e = eta(ratio)
                a_n += parent.weight * e
                if entropies is not None:
                    entropies[start + s] += e
                if op is None:  # pruned
                    pruned_mass += w
                    continue
                stats = parent.stats.extend(parent.block, bi) if classify else None
                key = (bi, fingerprint, stats) if merge else len(live)
                if moves is not None:
                    moves.append((start + s, key, ratio))
                kept = live.get(key)
                if kept is None:
                    live[key] = TrajectoryBranch(w, op, bi, stats)
                    if len(live) > budget:
                        raise ResourceLimitError(f"live branch count {len(live)} exceeds "
                                                 f"the budget of {opts.branch_budget}")
                else:
                    kept.weight += w
                    kept.conditional_op = kept.conditional_op + op
                    merged += 1
        branches = list(live.values())
        a_seq.append(max(a_n, 0.0))
        total = sum(b.weight for b in branches) + pruned_mass
        require(abs(total - 1.0) <= NORMALIZATION_TOL,
                f"branch mass {total!r} at depth {depth} drifted from 1 by {abs(total - 1.0):.3e}",
                NumericError)
        report = limit_estimate(a_seq, tol=opts.tol, window=opts.window)
        records.append(DepthRecord(
            depth=depth, a_n=a_seq[depth], cesaro=report.cesaro_sequence[depth],
            branch_count=len(branches), merged_count=merged, pruned_mass=pruned_mass,
            classes=_classes_of(branches) if opts.classify else None))
        if depth >= opts.min_steps:
            # Closed: every child landed on a parent's key, so the depth is a chain on them.
            if parents is not None and live.keys() <= parents.keys():
                lift = _belief_lift(moves, entropies, parents, live)
            if lift is not None:
                stop_reason = "closed"
                report = replace(report, converged=True, converged_value=lift.limit)
                break
            if report.converged:
                stop_reason = "converged"
                break
        # A tree whose mass was all pruned has no states to close.
        parents = ({key: i for i, key in enumerate(live)}
                   if merge and 0 < len(live) <= LIFT_MAX_STATES else None)

    if pruned_mass > PRUNED_MASS_LIMIT:
        message = (f"pruned mass {pruned_mass:.3e} exceeds {PRUNED_MASS_LIMIT:g}; "
                   "entropies may be inaccurate")
        if opts.strict:
            raise AccuracyError(message)
        warnings.warn(message, stacklevel=2)
    return SZRun(branches=branches, depth=depth, records=records, pruned_mass=pruned_mass,
                 report=report, stop_reason=stop_reason, lift=lift)


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
    """Classical reduction of a coherent-state run: |<a_i|U|a_j>|² plus the initial pmf.

    Only instruments made of rank-1 projections |a_i><a_i| admit this fast path. Each is
    checked and a_i read off on its block B[S,S]: outside S×S both B and vv† are zero. The
    entropy-rate computation itself is the classical module's job.
    """
    u = _checked_unitary(as_operator(walk_unitary), t, rho)  # as_operator rejects None
    A = np.zeros((t.dim, t.n_outcomes), dtype=complex)  # column i: the vector of outcome i
    for i, (_, b, _) in enumerate(t.supports):
        require(b.size > 0, lambda: f"Markov reduction needs rank-1 projections: outcome {i} "
                "is zero", UnsupportedConfigurationError)
        vec = b[:, int(np.argmax(np.abs(np.diagonal(b))))]
        vec = vec / (np.linalg.norm(vec) or 1.0)  # a zero column stays zero and fails below
        res = float(np.abs(b - np.outer(vec, vec.conj())).max())
        require(res <= RANK1_TOL,
                lambda: f"Markov reduction needs rank-1 projections: outcome {i} has "
                f"max |B - vv†| = {res:.3e} (tol {RANK1_TOL:g})", UnsupportedConfigurationError)
        A[t.support(i), i] = vec
    A = orthonormal_columns(A.T, t.dim)
    P = TransitionMatrix(np.abs(A.conj().T @ u @ A) ** 2)
    return MarkovReduction(transition_matrix=P, initial_distribution=outcome_pmf(t, rho))
