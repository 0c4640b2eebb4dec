"""Classical baselines: Markov chains, their entropy and entropy rate.

Transition matrices here are **column-stochastic**: `entries[x, y]` is the
probability of moving from source `y` to target `x`, so each column sums
to 1. Most libraries use the row convention; the column convention keeps
p_{x,y} indexing direct.
"""

from __future__ import annotations

import numbers

import numpy as np

from .entropy import ConvergenceReport, ProbVector, eta, limit_estimate
from .errors import ResourceLimitError, ValidationError, is_kind, require
from .walks import MAX_DIM

COLUMN_SUM_TOL = 1e-12


class TransitionMatrix:
    """Column-stochastic transition matrix over states 0..size-1."""

    __slots__ = ("entries", "size")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValidationError(f"transition matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("transition matrix has non-finite entries")
        require(arr.min() >= -COLUMN_SUM_TOL and arr.max() <= 1.0 + COLUMN_SUM_TOL,
                f"transition entries outside [0,1]: min={arr.min()!r}, max={arr.max()!r}")
        colsums = arr.sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
        require(worst <= COLUMN_SUM_TOL,
                f"columns must sum to 1, worst deviation {worst:.3e} (tol {COLUMN_SUM_TOL:g})")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        self.entries = arr
        self.size = arr.shape[0]

    def __repr__(self) -> str:
        return f"TransitionMatrix(size={self.size})"


def cycle_walk(N: int) -> TransitionMatrix:
    """Unbiased random walk on the N-cycle: p_{v+1,v} = p_{v-1,v} = 1/2 (mod N)."""
    require(is_kind(N, numbers.Integral) and N >= 3,
            f"cycle walk needs an integer N >= 3, got {N!r}")
    require(N <= MAX_DIM, f"a cycle walk on N={N} vertices has an N×N transition matrix, over "
            f"the dimension budget of {MAX_DIM}", ResourceLimitError)
    P = np.zeros((N, N))
    for v in range(N):
        P[(v + 1) % N, v] += 0.5
        P[(v - 1) % N, v] += 0.5
    return TransitionMatrix(P)


def matrix_power(P: TransitionMatrix, m: int) -> TransitionMatrix:
    """m-step transition matrix P^m (m >= 1)."""
    require(is_kind(m, numbers.Integral) and m >= 1,
            f"matrix power needs an integer m >= 1, got {m!r}")
    return TransitionMatrix(np.linalg.matrix_power(P.entries, m))


def cesaro_limit(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w·Π, Π = lim (1/n) Σ_{k<n} mᵏ, for m[s, t] the probability that s moves to t.

    Π keeps, in each closed class of m's support graph, the mass that w puts there or sends
    there through the transient states, spread by the class's stationary vector (for a periodic
    class its Cesàro limit). What a closed class's rows lose returns to its first state.
    """
    reach = m > 0  # reach[s, t]: s leads to t in one or more steps; squaring doubles the steps
    for _ in range((len(w) - 1).bit_length()):
        f = reach.astype(np.float32)  # path counts up to n are exact
        reach |= f @ f > 0
    # Recurrent: on a cycle, and reaching only states that reach it back (its closed class).
    recurrent = reach.diagonal() & ~(reach & ~reach.T).any(axis=1)
    t, r = np.flatnonzero(~recurrent), np.flatnonzero(recurrent)
    # The mass of w on each recurrent state once the transient states have emptied.
    mass = w[r] + np.linalg.solve(np.eye(len(t)) - m[t][:, t].T, w[t]) @ m[t][:, r]
    # One stacked solve of x = x·m on them, each class's first row set to its total.
    heads = reach[r].argmax(axis=1)  # each recurrent state's class, by its first state
    a = np.eye(len(r)) - m[r][:, r].T
    first = np.flatnonzero(heads == r)
    a[first] = heads == r[first, None]
    limit = np.zeros_like(w)
    limit[r] = np.linalg.solve(a, np.bincount(heads, mass, minlength=len(w))[r])
    return limit


def stationary_distribution(P: TransitionMatrix) -> ProbVector:
    """The Cesàro limit of Pⁿ·uniform, a distribution mu with P mu = mu, for any period: a
    reducible chain keeps, in each closed class, the mass that the uniform start sends there."""
    return ProbVector(cesaro_limit(P.entries.T, np.full(P.size, 1.0 / P.size)), tol=1e-9)


def _column_entropies(P: TransitionMatrix) -> np.ndarray:
    # Only the nonzero entries: eta(0) adds an exact +0.0, so the sums are unchanged.
    return np.array([sum(eta(x) for x in col[col > 0].tolist()) for col in P.entries.T])


def markov_entropy(P: TransitionMatrix, mu: ProbVector) -> float:
    """Entropy of P under mu: sum_y mu_y sum_x eta(p_{x,y}), in nats."""
    if len(mu) != P.size:
        raise ValidationError(f"distribution of length {len(mu)} for {P.size} states")
    return float(mu.entries @ _column_entropies(P))


def entropy_rate(P: TransitionMatrix, mu0: ProbVector, n_max: int, tol: float,
                 window: int = 3) -> ConvergenceReport:
    """Conditional-entropy sequence of the Markov process started at mu0.

    Entry n is sum_y (P^n mu0)_y sum_x eta(p_{x,y}); the limit (when it
    exists) is the entropy rate.
    """
    if len(mu0) != P.size:
        raise ValidationError(f"distribution of length {len(mu0)} for {P.size} states")
    require(is_kind(n_max, numbers.Integral) and n_max >= 0,
            f"n_max must be an integer >= 0, got {n_max!r}")
    col_h = _column_entropies(P)
    seq = []
    mu = mu0.entries.copy()
    for _ in range(n_max + 1):
        seq.append(float(col_h @ mu))
        mu = P.entries @ mu
    return limit_estimate(seq, tol=tol, window=window)
