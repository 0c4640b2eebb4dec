"""Finite-dimensional density states and measurement instruments.

Operators are dense complex numpy arrays; dimensions stay small (a few
dozen), so no sparse machinery. An instrument is a finite Kraus family
{B_i} with sum B_i† B_i = 1; `kind` records how much structure was
verified (general Kraus family, orthogonal projections, or rank-1
orthogonal projections).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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


class InstrumentKind(str, Enum):
    GENERAL = "general"
    LUDERS_VON_NEUMANN = "luders_von_neumann"
    COHERENT_STATES = "coherent_states"


@dataclass(frozen=True)
class Instrument:
    """Kraus family indexed by a discrete outcome set.

    kind=LUDERS_VON_NEUMANN additionally certifies pairwise-orthogonal
    projections; kind=COHERENT_STATES certifies rank-1 projections on top.
    """

    kraus: tuple[Operator, ...]
    outcome_labels: tuple[str, ...]
    kind: InstrumentKind

    def __post_init__(self):
        if not self.kraus:
            raise ValidationError("instrument needs at least one Kraus operator")
        ops = tuple(as_operator(b) for b in self.kraus)
        dim = ops[0].shape[0]
        if any(b.shape[0] != dim for b in ops):
            raise ValidationError("Kraus operators have mismatched dimensions")
        if len(self.outcome_labels) != len(ops):
            raise ValidationError(
                f"{len(self.outcome_labels)} labels for {len(ops)} outcomes")
        total = sum(b.conj().T @ b for b in ops)
        res = float(np.abs(total - np.eye(dim)).max())
        if res > COMPLETENESS_TOL:
            raise ValidationError(
                f"Kraus completeness fails: max |sum B†B - 1| = {res:.3e} "
                f"(tol {COMPLETENESS_TOL:g})")
        if self.kind is not InstrumentKind.GENERAL:
            for i, b in enumerate(ops):
                herm = hermiticity_residual(b)
                idem = float(np.abs(b @ b - b).max())
                if herm > PROJECTION_TOL or idem > PROJECTION_TOL:
                    raise ValidationError(
                        f"outcome {i}: not a projection "
                        f"(|B-B†|={herm:.3e}, |B²-B|={idem:.3e})")
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    res = float(np.abs(ops[i] @ ops[j]).max())
                    if res > PROJECTION_TOL:
                        raise ValidationError(
                            f"projections {i} and {j} overlap: max |P_iP_j| = {res:.3e}")
        if self.kind is InstrumentKind.COHERENT_STATES:
            for i, b in enumerate(ops):
                rank = float(np.real(np.trace(b)))
                if abs(rank - 1.0) > 1e-8:
                    raise ValidationError(
                        f"outcome {i}: projection rank {rank:.6f}, coherent-states "
                        "instruments need rank 1")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "outcome_labels", tuple(str(x) for x in self.outcome_labels))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def general_instrument(kraus: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Instrument from an arbitrary Kraus family (only completeness checked)."""
    ops = tuple(as_operator(b) for b in kraus)
    return Instrument(ops, tuple(labels) if labels else _default_labels(len(ops)),
                      InstrumentKind.GENERAL)


def lvn_instrument(projections: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Instrument from pairwise-orthogonal projections summing to the identity.

    If every projection has rank 1 the result is tagged coherent_states.
    """
    ops = tuple(as_operator(p) for p in projections)
    all_rank1 = all(abs(float(np.real(np.trace(p))) - 1.0) <= 1e-8 for p in ops)
    kind = InstrumentKind.COHERENT_STATES if all_rank1 else InstrumentKind.LUDERS_VON_NEUMANN
    return Instrument(ops, tuple(labels) if labels else _default_labels(len(ops)), kind)


def coherent_instrument(basis: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Coherent-states instrument |a_i><a_i| from an orthonormal basis."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in basis]
    if not vecs:
        raise ValidationError("coherent instrument needs at least one basis vector")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs) or len(vecs) != dim:
        raise ValidationError(
            f"need {dim} vectors of dimension {dim} for a full orthonormal basis")
    A = np.column_stack(vecs)
    res = float(np.abs(A.conj().T @ A - np.eye(dim)).max())
    if res > ORTHONORMAL_TOL:
        raise ValidationError(
            f"basis not orthonormal: max |A†A - 1| = {res:.3e} (tol {ORTHONORMAL_TOL:g})")
    ops = tuple(np.outer(v, v.conj()) for v in vecs)
    return Instrument(ops, tuple(labels) if labels else _default_labels(len(ops)),
                      InstrumentKind.COHERENT_STATES)


def apply_instrument(t: Instrument, outcomes: Iterable[int], rho: Operator) -> Operator:
    """Unnormalized post-measurement operator sum_{i in E} B_i rho B_i†."""
    rho = as_operator(rho)
    if rho.shape[0] != t.dim:
        raise ValidationError(
            f"state dimension {rho.shape[0]} does not match instrument dimension {t.dim}")
    out = np.zeros_like(rho)
    for i in outcomes:
        i = int(i)
        if not 0 <= i < t.n_outcomes:
            raise ValidationError(f"outcome index {i} outside range({t.n_outcomes})")
        b = t.kraus[i]
        out += b @ rho @ b.conj().T
    return out


def outcome_pmf(t: Instrument, rho: DensityState) -> ProbVector:
    """Outcome distribution tr(B_i rho B_i†) of measuring rho once."""
    if rho.dim != t.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    probs = [float(np.real(np.trace(b @ rho.matrix @ b.conj().T))) for b in t.kraus]
    return ProbVector(np.clip(probs, 0.0, None), tol=1e-10)
