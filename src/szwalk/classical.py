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
from .errors import NumericError, ValidationError, is_kind, require

COLUMN_SUM_TOL = 1e-12
# Singular values of m - 1 up to this span m's eigenvalue-1 space, and the projector built on
# it must satisfy mΠ = Πm = Π to this.
PROJECTOR_TOL = 1e-9


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


def cesaro_projector(m: np.ndarray) -> np.ndarray | None:
    """Π = lim (1/n) Σ_{k<n} mᵏ, the projector onto m's eigenvalue-1 space, for any period.

    Π = R (L R)⁻¹ L, with R and L the right and left null spaces of m - 1. None when Π is
    not resolved: it must satisfy mΠ = Πm = Π to PROJECTOR_TOL.
    """
    u, sv, vh = np.linalg.svd(m - np.eye(m.shape[0]))
    null = sv <= PROJECTOR_TOL
    right, left = vh[null].T, u[:, null].T
    projector = right @ np.linalg.pinv(left @ right) @ left
    residual = max(np.abs(m @ projector - projector).max(initial=0.0),
                   np.abs(projector @ m - projector).max(initial=0.0))
    return projector if residual <= PROJECTOR_TOL else None


def stationary_distribution(P: TransitionMatrix) -> ProbVector:
    """The Cesàro limit of Pⁿ·uniform, a distribution mu with P mu = mu, for any period.

    It is Π·uniform with Π from `cesaro_projector`. A reducible chain keeps, in each closed
    class, the mass that the uniform start sends there. Raises NumericError when Π is not
    resolved.
    """
    projector = cesaro_projector(P.entries)
    require(projector is not None, "eigenvalue-1 projector of the chain not resolved to "
            f"{PROJECTOR_TOL:g}", NumericError)
    return ProbVector(projector @ np.full(P.size, 1.0 / P.size), tol=1e-9)


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
