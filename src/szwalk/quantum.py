"""Finite-dimensional density states and measurement instruments.

Operators are dense complex numpy arrays; dimensions stay small (a few
dozen), so no sparse machinery. An instrument is a finite Kraus family
{B_i} with sum B_i† B_i = 1; the constructors for projective and
coherent-states instruments check their extra structure once, when the
instrument is built.

Each B_i acts on its support S_i only, the indices of its nonzero rows and
columns. A support is held as one flat index: the row-major positions of
S×S in a dim×dim operator, or None when S is the whole space. The kernel
gathers a block with `take` and scatters its product back by that index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .entropy import ProbVector
from .errors import ValidationError, is_kind, require

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


def identity_residual(gram: np.ndarray) -> float:
    """max |G - 1| of a square G, e.g. a Gram matrix A†A or a completeness sum Σ B†B."""
    return float(np.abs(gram - np.eye(gram.shape[0])).max())


def min_eigenvalue(m: Operator) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


class DensityState:
    """A quantum state: Hermitian, unit-trace, positive semidefinite matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = as_operator(matrix)
        res = hermiticity_residual(m)
        require(res <= HERMITIAN_TOL,
                f"density matrix not Hermitian: max |A - A†| = {res:.3e} (tol {HERMITIAN_TOL:g})")
        tr = complex(np.trace(m))
        require(abs(tr - 1.0) <= TRACE_TOL,
                f"density matrix trace {tr!r} differs from 1 by {abs(tr - 1.0):.3e}")
        lam = min_eigenvalue(m)
        require(lam >= PSD_TOL,
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
    require(is_kind(dim, numbers.Integral) and dim >= 1,
            f"dimension must be an integer >= 1, got {dim!r}")
    return DensityState(np.eye(dim, dtype=complex) / dim)


def pure_state(v) -> DensityState:
    """|v><v| after normalizing v; proportional vectors give the same state."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValidationError("pure state from the zero vector")
    vec = vec / norm
    return DensityState(np.outer(vec, vec.conj()))


def _gather(m: np.ndarray, flat: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """m[S,S] gathered by the flat index of S×S, as a `shape` matrix; m itself when the index
    is None (S the whole space)."""
    return m if flat is None else m.take(flat).reshape(shape)


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
        res = identity_residual(sum(b.conj().T @ b for b in ops))
        require(res <= COMPLETENESS_TOL, f"Kraus completeness fails: max |sum B†B - 1| = "
                f"{res:.3e} (tol {COMPLETENESS_TOL:g})")
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "outcome_labels", labels)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)

    def support_index(self, outcomes: Iterable[int]) -> np.ndarray | None:
        """Row-major positions of S×S in a dim×dim operator, S the union of the outcomes'
        nonzero Kraus rows and columns; None when S is the whole space.

        Every B_i ρ B_i† with i among `outcomes` is exactly zero outside S×S.
        """
        nonzero = np.zeros(self.dim, dtype=bool)
        for i in outcomes:
            b = self.kraus[i] != 0
            nonzero |= b.any(axis=0) | b.any(axis=1)
        s = np.flatnonzero(nonzero)
        return None if s.size == self.dim else (s[:, None] * self.dim + s).ravel()

    @cached_property
    def supports(self) -> tuple[tuple[np.ndarray | None, Operator, Operator], ...]:
        """Per outcome i, (flat index of S×S, B[S,S], B[S,S]†) with the index from
        `support_index([i])`. A dense B has index None and enters the products as itself.
        """
        out = []
        for i, b in enumerate(self.kraus):
            flat = self.support_index([i])
            k = self.dim if flat is None else math.isqrt(flat.size)
            bs = np.ascontiguousarray(_gather(b, flat, (k, k)))
            out.append((flat, bs, np.ascontiguousarray(bs.conj().T)))
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
        require(herm <= PROJECTION_TOL and idem <= PROJECTION_TOL,
                lambda: f"outcome {i}: not a projection (|B-B†|={herm:.3e}, |B²-B|={idem:.3e})")
    on = np.zeros((t.n_outcomes, t.dim), dtype=bool)  # on[i] marks S_i, outcome i's support
    for i, (flat, _, _) in enumerate(t.supports):
        on[i, slice(None) if flat is None else flat // t.dim] = True
    for i, j in combinations(range(t.n_outcomes), 2):
        if on[i] @ on[j]:  # disjoint supports give P_iP_j = 0 exactly
            res = float(np.abs(t.kraus[i] @ t.kraus[j]).max())
            require(res <= PROJECTION_TOL,
                    lambda: f"projections {i} and {j} overlap: max |P_iP_j| = {res:.3e}")
    return t


def orthonormal_columns(basis: Sequence, dim: int) -> np.ndarray:
    """The matrix A whose columns are `basis`, checked to be an orthonormal basis of C^dim."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in basis]
    if len(vecs) != dim or any(v.size != dim for v in vecs):
        raise ValidationError(
            f"need {dim} vectors of dimension {dim} for a full orthonormal basis")
    A = np.column_stack(vecs)
    res = identity_residual(A.conj().T @ A)
    require(res <= ORTHONORMAL_TOL,
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

    Each B_i acts on its support S_i only: the block rho[S,S] is gathered by the flat index
    of S×S (`Instrument.supports`), and B_S rho[S,S] B_S† is added back into a flat +0
    buffer at the same positions. The terms left out are products with exact zeros. A term
    whose gathered block is exactly zero is skipped: B·0·B† adds only ±0, which leaves a sum
    begun at +0 as it is (a NaN or inf entry is nonzero, so it still reaches the result). A
    single outcome whose support is the whole space returns its product B rho B† itself.
    The products are `ndarray.dot`: the same BLAS calls as `@`, without its per-call ufunc
    dispatch. rho is checked for shape only, not re-scanned for non-finite entries: it
    comes from a validated state or the engine's own products.
    """
    rho = np.asarray(rho)
    if rho.shape != (t.dim, t.dim):
        raise ValidationError(
            f"state of shape {rho.shape} does not match instrument dimension {t.dim}")
    supports = t.supports
    terms = []
    for i in outcomes:
        i = int(i)
        if not 0 <= i < len(supports):
            raise ValidationError(f"outcome index {i} outside range({len(supports)})")
        terms.append(supports[i])
    if len(terms) == 1 and terms[0][0] is None:  # one outcome, whole space
        _, b, bh = terms[0]
        return b.dot(rho).dot(bh)
    out = np.zeros(rho.size, dtype=complex)
    for flat, b, bh in terms:
        sub = _gather(rho, flat, b.shape)
        if np.count_nonzero(sub):
            out[slice(None) if flat is None else flat] += b.dot(sub).dot(bh).ravel()
    return out.reshape(rho.shape)


def outcome_pmf(t: Instrument, rho: DensityState) -> ProbVector:
    """Outcome distribution tr(B_i rho B_i†) = <B_S, B_S rho[S,S]>_F, S the support of B_i."""
    if rho.dim != t.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    probs = [float(np.real(np.vdot(b, b @ _gather(rho.matrix, flat, b.shape))))
             for flat, b, _ in t.supports]
    return ProbVector(np.clip(probs, 0.0, None), tol=1e-10)
