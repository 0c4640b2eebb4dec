"""Finite-dimensional density states and measurement instruments.

Operators are dense complex numpy arrays; dimensions stay small (a few
dozen), so no sparse machinery. An instrument is a finite Kraus family
{B_i} with sum B_i† B_i = 1; the constructors for projective and
coherent-states instruments check their extra structure once, when the
instrument is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .entropy import ProbVector
from .errors import ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9
COMPLETENESS_TOL = 1e-10
PROJECTION_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10

# Operators are plain complex ndarrays throughout.
Operator = np.ndarray


def as_operator(m) -> Operator:
    """Coerce to a square complex matrix with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"operator must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("operator has non-finite entries")
    return arr


def hermiticity_residual(m: Operator) -> float:
    return float(np.abs(m - m.conj().T).max())


def min_eigenvalue(m: Operator) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


class DensityState:
    """A quantum state: Hermitian, unit-trace, positive semidefinite matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = as_operator(matrix)
        res = hermiticity_residual(m)
        if res > HERMITIAN_TOL:
            raise ValidationError(
                f"density matrix not Hermitian: max |A - A†| = {res:.3e} (tol {HERMITIAN_TOL:g})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix trace {tr!r} differs from 1 by {abs(tr - 1.0):.3e}")
        lam = min_eigenvalue(m)
        if lam < PSD_TOL:
            raise ValidationError(
                f"density matrix not positive semidefinite: min eigenvalue {lam:.3e}")
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityState(dim={self.dim})"


def maximally_mixed(dim: int) -> DensityState:
    """identity/dim: the maximally mixed state."""
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    return DensityState(np.eye(dim, dtype=complex) / dim)


def pure_state(v) -> DensityState:
    """|v><v| after normalizing v; proportional vectors give the same state."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValidationError("pure state from the zero vector")
    vec = vec / norm
    return DensityState(np.outer(vec, vec.conj()))


@dataclass(frozen=True)
class Instrument:
    """A complete Kraus family {B_i} (sum B_i† B_i = 1) indexed by labeled outcomes.

    Absent or empty labels default to "0", "1", ...; constructors that promise more structure
    (projections, rank-1 projections) check it themselves.
    """

    kraus: tuple[Operator, ...]
    outcome_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        ops = tuple(as_operator(b) for b in self.kraus)
        if not ops:
            raise ValidationError("instrument needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(b.shape[0] != dim for b in ops):
            raise ValidationError("Kraus operators have mismatched dimensions")
        labels = tuple(str(x) for x in self.outcome_labels or range(len(ops)))
        if len(labels) != len(ops):
            raise ValidationError(f"{len(labels)} labels for {len(ops)} outcomes")
        total = sum(b.conj().T @ b for b in ops)
        res = float(np.abs(total - np.eye(dim)).max())
        if res > COMPLETENESS_TOL:
            raise ValidationError(
                f"Kraus completeness fails: max |sum B†B - 1| = {res:.3e} "
                f"(tol {COMPLETENESS_TOL:g})")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "outcome_labels", labels)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)

    @cached_property
    def supports(self) -> tuple[tuple[tuple, Operator, Operator], ...]:
        """Per outcome, (index of S×S, B[S,S], B[S,S]†) with S = B's nonzero rows ∪ columns.

        A dense B keeps plain `[:, :]` slices, so it enters the same products as B itself.
        """
        out = []
        for b in self.kraus:
            s = np.flatnonzero((b != 0).any(axis=0) | (b != 0).any(axis=1))
            idx = (slice(None), slice(None)) if s.size == self.dim else np.ix_(s, s)
            bs = np.ascontiguousarray(b[idx])
            out.append((idx, bs, np.ascontiguousarray(bs.conj().T)))
        return tuple(out)


def general_instrument(kraus: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Instrument from an arbitrary Kraus family (only completeness checked)."""
    return Instrument(kraus, labels)


def lvn_instrument(projections: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Instrument from pairwise-orthogonal projections summing to the identity."""
    t = Instrument(projections, labels)
    for i, b in enumerate(t.kraus):
        herm = hermiticity_residual(b)
        idem = float(np.abs(b @ b - b).max())
        if herm > PROJECTION_TOL or idem > PROJECTION_TOL:
            raise ValidationError(
                f"outcome {i}: not a projection (|B-B†|={herm:.3e}, |B²-B|={idem:.3e})")
    for i, j in combinations(range(t.n_outcomes), 2):
        res = float(np.abs(t.kraus[i] @ t.kraus[j]).max())
        if res > PROJECTION_TOL:
            raise ValidationError(f"projections {i} and {j} overlap: max |P_iP_j| = {res:.3e}")
    return t


def orthonormal_columns(basis: Sequence, dim: int) -> np.ndarray:
    """The matrix A whose columns are `basis`, checked to be an orthonormal basis of C^dim."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in basis]
    if len(vecs) != dim or any(v.size != dim for v in vecs):
        raise ValidationError(
            f"need {dim} vectors of dimension {dim} for a full orthonormal basis")
    A = np.column_stack(vecs)
    res = float(np.abs(A.conj().T @ A - np.eye(dim)).max())
    if res > ORTHONORMAL_TOL:
        raise ValidationError(
            f"basis not orthonormal: max |A†A - 1| = {res:.3e} (tol {ORTHONORMAL_TOL:g})")
    return A


def coherent_instrument(basis: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Coherent-states instrument |a_i><a_i| from an orthonormal basis.

    Orthonormality to ORTHONORMAL_TOL already bounds |P_iP_j|, |P_i² - P_i| and
    |tr P_i - 1| by the same tolerance, so nothing else is checked.
    """
    basis = list(basis)
    if not basis:
        raise ValidationError("coherent instrument needs at least one basis vector")
    A = orthonormal_columns(basis, np.size(basis[0]))
    return Instrument(tuple(np.outer(a, a.conj()) for a in A.T), labels)


def apply_instrument(t: Instrument, outcomes: Iterable[int], rho: Operator) -> Operator:
    """Unnormalized post-measurement operator sum_{i in E} B_i rho B_i†.

    Each B_i acts on its support S_i only: out[S,S] += B_S rho[S,S] B_S†. The terms left
    out are products with exact zeros. rho is checked for shape only, not re-scanned for
    non-finite entries: it comes from a validated state or the engine's own products.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape != (t.dim, t.dim):
        raise ValidationError(
            f"state of shape {rho.shape} does not match instrument dimension {t.dim}")
    out = np.zeros(rho.shape, dtype=complex)
    for i in outcomes:
        i = int(i)
        if not 0 <= i < t.n_outcomes:
            raise ValidationError(f"outcome index {i} outside range({t.n_outcomes})")
        idx, b, bh = t.supports[i]
        out[idx] += b @ rho[idx] @ bh
    return out


def outcome_pmf(t: Instrument, rho: DensityState) -> ProbVector:
    """Outcome distribution tr(B_i rho B_i†) = <B_i, B_i rho>_F of measuring rho once."""
    if rho.dim != t.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    probs = [float(np.real(np.vdot(b, b @ rho.matrix))) for b in t.kraus]
    return ProbVector(np.clip(probs, 0.0, None), tol=1e-10)
