"""Scalar entropy functions, partition algebra and convergence estimation.

All entropies are in nats (natural logarithm). Probability vectors are
validated at construction; derived joint distributions get a looser sum
tolerance because their weights accumulate rounding over long products.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

PROB_SUM_TOL = 1e-12  # freshly constructed probability vectors
JOINT_SUM_TOL = 1e-10  # derived joints (accumulated rounding)


def eta(x: float) -> float:
    """Return -x*ln(x) for x > 0 and 0 for x = 0; negative input is an error."""
    if x < 0:
        raise ValidationError(f"eta is undefined for negative input {x!r}")
    if x == 0.0:
        return 0.0
    return -x * math.log(x)


class ProbVector:
    """A finite probability distribution: entries in [0, 1] summing to 1.

    Entries within `tol` of the unit interval are clipped onto it, so tiny
    negative values produced by linear algebra are accepted.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[float], tol: float = PROB_SUM_TOL):
        arr = np.asarray(list(entries) if not isinstance(entries, np.ndarray) else entries,
                         dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("probability vector must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probability vector has non-finite entries")
        if arr.min() < -tol or arr.max() > 1.0 + tol:
            raise ValidationError(
                f"probability entries outside [0,1]: min={arr.min()!r}, max={arr.max()!r}")
        total = float(arr.sum())
        if abs(total - 1.0) > tol:
            raise ValidationError(
                f"probabilities sum to {total!r}, off by {abs(total - 1.0):.3e} (tol {tol:g})")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        self.entries = arr

    @classmethod
    def uniform(cls, n: int) -> "ProbVector":
        if n < 1:
            raise ValidationError(f"uniform distribution needs n >= 1, got {n}")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, n: int) -> "ProbVector":
        if not 0 <= index < n:
            raise ValidationError(f"point mass index {index} outside range({n})")
        arr = np.zeros(n)
        arr[index] = 1.0
        return cls(arr)

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self) -> str:
        return f"ProbVector({self.entries.tolist()!r})"


def entropy(p: ProbVector | Iterable[float]) -> float:
    """Shannon entropy sum(eta(p_i)) of a probability vector, in nats."""
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    return float(sum(eta(x) for x in p.entries))


class Partition:
    """A partition of the outcome indices 0..size-1 into labeled blocks.

    Blocks are stored sorted by smallest member so that identical partitions
    always compare and print identically.
    """

    __slots__ = ("blocks", "labels", "size")

    def __init__(self, blocks: Iterable[Iterable[int]], labels: Sequence[str] | None = None,
                 size: int | None = None):
        blocks = [list(b) for b in blocks]
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral)
               for b in blocks for i in b):
            raise ValidationError(f"partition outcomes must be integers, got blocks {blocks!r}")
        raw = [tuple(sorted(set(int(i) for i in b))) for b in blocks]
        if any(len(b) == 0 for b in raw):
            raise ValidationError("partition blocks must be non-empty")
        if labels is None:
            labels = [str(i) for i in range(len(raw))]
        labels = [str(x) for x in labels]
        if len(labels) != len(raw):
            raise ValidationError(
                f"{len(labels)} labels for {len(raw)} blocks")
        order = sorted(range(len(raw)), key=lambda i: raw[i][0])
        raw = [raw[i] for i in order]
        labels = [labels[i] for i in order]
        flat = [i for b in raw for i in b]
        if len(flat) != len(set(flat)):
            raise ValidationError("partition blocks are not pairwise disjoint")
        n = max(flat) + 1 if size is None else int(size)
        if sorted(flat) != list(range(n)):
            raise ValidationError(
                f"blocks do not cover the outcome range 0..{n - 1}")
        self.blocks = tuple(raw)
        self.labels = tuple(labels)
        self.size = n

    @classmethod
    def atomic(cls, n: int, labels: Sequence[str] | None = None) -> "Partition":
        if n < 1:
            raise ValidationError(f"atomic partition needs n >= 1, got {n}")
        return cls([[i] for i in range(n)], labels=labels, size=n)

    def block_index_of(self, outcome: int) -> int:
        for i, b in enumerate(self.blocks):
            if outcome in b:
                return i
        raise ValidationError(f"outcome {outcome} outside partition range")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Partition)
                and self.size == other.size and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.size, self.blocks))

    def __repr__(self) -> str:
        body = ", ".join(f"{l}:{list(b)}" for l, b in zip(self.labels, self.blocks))
        return f"Partition({body})"


def join(parts: Sequence[Partition]) -> Partition:
    """Join (common refinement) of partitions over the same outcome range.

    The resulting blocks are the non-empty intersections of one block from
    each input; labels are the `&`-joined constituent labels.
    """
    if not parts:
        raise ValidationError("join of an empty partition list")
    size = parts[0].size
    if any(p.size != size for p in parts):
        raise ValidationError("join over mismatched outcome ranges")
    owner = [tuple(p.block_index_of(i) for p in parts) for i in range(size)]
    cells: dict[tuple[int, ...], list[int]] = {}
    for outcome, key in enumerate(owner):
        cells.setdefault(key, []).append(outcome)
    keys = sorted(cells)
    blocks = [cells[k] for k in keys]
    labels = ["&".join(p.labels[k[j]] for j, p in enumerate(parts)) for k in keys]
    return Partition(blocks, labels=labels, size=size)


def is_coarser(d: Partition, c: Partition) -> bool:
    """True iff every block of `d` is a union of blocks of `c`."""
    if d.size != c.size:
        raise ValidationError("partitions cover different outcome ranges")
    owner = {}
    for i, block in enumerate(d.blocks):
        for outcome in block:
            owner[outcome] = i
    return all(len({owner[o] for o in block}) == 1 for block in c.blocks)


class JointDistribution:
    """Joint pmf over fixed-length outcome-index sequences, as a sparse map."""

    __slots__ = ("support", "length")

    def __init__(self, support: Mapping[Sequence[int], float], length: int | None = None,
                 tol: float = JOINT_SUM_TOL):
        items = {tuple(int(i) for i in k): float(w) for k, w in support.items()}
        if not items:
            raise ValidationError("joint distribution has empty support")
        lengths = {len(k) for k in items}
        if len(lengths) != 1:
            raise ValidationError(f"mixed key lengths {sorted(lengths)}")
        n = lengths.pop()
        if length is not None and length != n:
            raise ValidationError(f"declared length {length} but keys have length {n}")
        if any(w < -tol for w in items.values()):
            raise ValidationError("joint distribution has negative weights")
        total = sum(items.values())
        if abs(total - 1.0) > tol:
            raise ValidationError(
                f"joint weights sum to {total!r}, off by {abs(total - 1.0):.3e}")
        self.support = {k: max(w, 0.0) for k, w in items.items()}
        self.length = n

    def marginal(self, axis: int) -> ProbVector:
        """Marginal distribution of one coordinate, dense over 0..max index."""
        if not 0 <= axis < self.length:
            raise ValidationError(f"axis {axis} outside joint of length {self.length}")
        masses: dict[int, float] = {}
        for k, w in self.support.items():
            masses[k[axis]] = masses.get(k[axis], 0.0) + w
        arr = np.zeros(max(masses) + 1)
        for i, w in masses.items():
            arr[i] = w
        return ProbVector(arr, tol=JOINT_SUM_TOL)

    def __repr__(self) -> str:
        return f"JointDistribution(length={self.length}, support={len(self.support)} keys)"


def joint_entropy(joint: JointDistribution) -> float:
    """Entropy of the whole joint distribution: sum(eta(w)) over its support."""
    return float(sum(eta(w) for w in joint.support.values()))


def conditional_entropy(joint: JointDistribution) -> float:
    """Conditional entropy H(C|D) of a length-2 joint over (C-index, D-index).

    Computed as sum_D mu(D) sum_C eta(mu(C|D)); conditioning events with
    mu(D) = 0 contribute exactly 0.
    """
    if joint.length != 2:
        raise ValidationError(
            f"conditional entropy needs a length-2 joint, got length {joint.length}")
    pd: dict[int, float] = {}
    for (_, d), w in joint.support.items():
        pd[d] = pd.get(d, 0.0) + w
    h = 0.0
    for (_, d), w in joint.support.items():
        if pd[d] > 0.0 and w > 0.0:
            h += pd[d] * eta(w / pd[d])
    return h


@dataclass(frozen=True)
class ConvergenceReport:
    """A direct sequence, its Cesaro means, and a successive-difference verdict."""

    direct_sequence: tuple[float, ...]
    cesaro_sequence: tuple[float, ...]
    converged_value: float | None
    converged: bool
    steps_used: int


def limit_estimate(seq: Sequence[float], tol: float, window: int) -> ConvergenceReport:
    """Estimate the limit of `seq` from its tail.

    Convergence is declared when the last `window` successive differences are
    all below `tol`; the reported value is then the final entry. The Cesaro
    (running-mean) sequence is always returned alongside.
    """
    values = [float(x) for x in seq]
    if not values:
        raise ValidationError("limit estimate of an empty sequence")
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    cesaro = np.cumsum(values) / np.arange(1, len(values) + 1)
    diffs = [abs(values[i] - values[i - 1]) for i in range(1, len(values))]
    converged = len(diffs) >= window and all(d < tol for d in diffs[-window:])
    return ConvergenceReport(
        direct_sequence=tuple(values),
        cesaro_sequence=tuple(float(c) for c in cesaro),
        converged_value=values[-1] if converged else None,
        converged=converged,
        steps_used=len(values),
    )
