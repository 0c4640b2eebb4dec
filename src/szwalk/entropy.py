"""Scalar entropy, probability vectors, partitions and convergence estimation.

All entropies are in nats (natural logarithm). Probability vectors are
validated at construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, is_kind, require

PROB_SUM_TOL = 1e-12


def eta(x: float) -> float:
    """Return -x*ln(x) for x > 0 and 0 for x = 0; negative or NaN input is an error."""
    if not x >= 0:  # inline, not `require`: this runs once per child in the engine
        raise ValidationError(f"eta is undefined for input {x!r}")
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
        require(arr.min() >= -tol and arr.max() <= 1.0 + tol,
                f"probability entries outside [0,1]: min={arr.min()!r}, max={arr.max()!r}")
        total = float(arr.sum())
        require(abs(total - 1.0) <= tol,
                f"probabilities sum to {total!r}, off by {abs(total - 1.0):.3e} (tol {tol:g})")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        self.entries = arr

    @classmethod
    def uniform(cls, n: int) -> "ProbVector":
        require(is_kind(n, numbers.Integral) and n >= 1,
                f"uniform distribution needs an integer n >= 1, got {n!r}")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, n: int) -> "ProbVector":
        require(is_kind(index, numbers.Integral) and is_kind(n, numbers.Integral)
                and 0 <= index < n, f"point mass index {index!r} outside range({n!r})")
        arr = np.zeros(n)
        arr[index] = 1.0
        return cls(arr)

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self) -> str:
        return f"ProbVector({self.entries.tolist()!r})"


class Partition:
    """A partition of the outcome indices 0..size-1 into labeled blocks.

    Blocks are stored sorted by smallest member so that identical partitions
    always compare and print identically.
    """

    __slots__ = ("blocks", "labels", "size")

    def __init__(self, blocks: Iterable[Iterable[int]], labels: Sequence[str] | None = None,
                 size: int | None = None):
        blocks = [list(b) for b in blocks]
        require(all(is_kind(i, numbers.Integral) for b in blocks for i in b),
                lambda: f"partition outcomes must be integers, got blocks {blocks!r}")
        require(size is None or is_kind(size, numbers.Integral),
                f"partition size must be an integer, got {size!r}")
        raw = [tuple(sorted(int(i) for i in b)) for b in blocks]
        if not raw:
            raise ValidationError("partition needs at least one block")
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
            raise ValidationError("partition repeats an outcome, within a block or across "
                                  "blocks: blocks must be pairwise disjoint sets")
        n = max(flat) + 1 if size is None else int(size)
        if sorted(flat) != list(range(n)):
            raise ValidationError(
                f"blocks do not cover the outcome range 0..{n - 1}")
        self.blocks = tuple(raw)
        self.labels = tuple(labels)
        self.size = n

    @classmethod
    def atomic(cls, n: int, labels: Sequence[str] | None = None) -> "Partition":
        require(is_kind(n, numbers.Integral) and n >= 1,
                f"atomic partition needs an integer n >= 1, got {n!r}")
        return cls([[i] for i in range(n)], labels=labels, size=n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Partition)
                and self.size == other.size and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.size, self.blocks))

    def __repr__(self) -> str:
        body = ", ".join(f"{l}:{list(b)}" for l, b in zip(self.labels, self.blocks))
        return f"Partition({body})"


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
    all below `tol`, a finite real number > 0 (not a bool); the reported value is
    then the final entry. The Cesaro (running-mean) sequence is always returned
    alongside.
    """
    values = [float(x) for x in seq]
    if not values:
        raise ValidationError("limit estimate of an empty sequence")
    require(is_kind(tol, numbers.Real) and 0 < tol < math.inf,
            f"tolerance must be positive and finite, got {tol!r}")
    require(is_kind(window, numbers.Integral) and window >= 1,
            f"window must be an integer >= 1, got {window!r}")
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
