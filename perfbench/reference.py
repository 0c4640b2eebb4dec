"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the same solve can run 30% faster or slower for minutes at a
time. The worker times this loop just before and just after every solve, in
the same process, and divides the solve's time by it, so that a change in the
host's speed mostly cancels and a change in szwalk does not: nothing here
calls szwalk, and its inputs are fixed.

The loop does the two kinds of work the szwalk engine does: a tree of small
complex matrices built in Python, which doubles at every depth as an unmerged
SZ tree does, and a chain of 50x50 complex products, the size of the
operators of a deep, narrow tree.
"""

from __future__ import annotations

import numpy as np


def _fixed_matrix(n: int, a: float, b: float) -> np.ndarray:
    """A dense complex n x n matrix fixed by (a, b). It is built without
    numpy.random, whose import would add to the worker's memory."""
    i = np.arange(n, dtype=float)
    return np.cos(a * np.outer(i + 1, i + 2)) + 1j * np.sin(b * np.add.outer(i * i, i))


_A50 = _fixed_matrix(50, 0.37, 0.53)
# Two 8x8 "Kraus" matrices, scaled by their Frobenius norm so that repeated
# products stay bounded.
_K = [k / np.sqrt((np.abs(k) ** 2).sum())
      for k in (_fixed_matrix(8, 0.71, 0.29), _fixed_matrix(8, 1.13, 0.61))]
_TREE_DEPTH = 8
_CHAIN = 120


def reference_loop() -> float:
    """Run the fixed reference work once; returns a value so none of it is dead."""
    # A tree of small matrices that doubles at every depth, as in an unmerged SZ tree.
    branches = [np.eye(8, dtype=complex) / 8]
    for _ in range(_TREE_DEPTH):
        branches = [k @ b @ k.conj().T for b in branches for k in _K]
    acc = sum(float(b.trace().real) for b in branches)
    # A chain of products of one 50x50 complex matrix.
    x = _A50
    for _ in range(_CHAIN):
        x = _A50 @ x
        x = x / np.abs(x).max()
    return acc + float(np.trace(x.conj().T @ x).real)
