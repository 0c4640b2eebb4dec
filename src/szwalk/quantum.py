"""Finite-dimensional density states and measurement instruments.

States and dynamics are dense complex numpy arrays of a few dozen dimensions. An instrument
is a finite Kraus family {B_i} with sum B_i† B_i = 1, held as each B_i's block on its
support S_i: B[S,S], its adjoint and the flat index of S×S (`flat_index`, row-major
positions in a dim×dim operator; the whole space is `arange(dim²)`, an index like any
other). Every check runs on the blocks, once, when the instrument is built, as one stack per
block size; the kernel gathers by that index and scatters back by the same index, and returns
one shared read-only zero (`shared_zero`) for a child whose terms are all exactly zero. Dense
operators are only an input format (`general_instrument`) and a view (`Instrument.kraus`).
"""

from __future__ import annotations

import math
import numbers
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
        res = float(np.abs(m - m.conj().T).max())
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


def flat_index(s: np.ndarray, dim: int) -> np.ndarray:
    """The flat index of S×S: the row-major positions of S×S in a dim×dim operator, taken in
    the order of S. S holds distinct indices in range(dim); a stack of sets (..., |S|) gives a
    stack of indices (..., |S|²)."""
    return (s[..., :, None] * dim + s[..., None, :]).reshape(*s.shape[:-1], -1)


def index_support(flat: np.ndarray, dim: int) -> np.ndarray:
    """S back from `flat_index(S, dim)`: its first |S| entries are s_0·dim + S."""
    return flat[:math.isqrt(flat.size)] % dim


def _outcome(i, n: int, outcomes) -> int:
    """Index i of the outcome set `outcomes` as an int in range(n): no bool, no negative."""
    require(is_kind(i, numbers.Integral),
            lambda: f"outcome set {outcomes!r}: index {i!r} is not an integer")
    require(0 <= i < n, lambda: f"outcome set {outcomes!r}: index {i} outside range({n})")
    return int(i)


_ZEROS: dict[int, Operator] = {}


def shared_zero(dim: int) -> Operator:
    """The read-only +0 dim×dim operator that `apply_instrument` returns when it skips every
    term: one per dimension, made on first use and kept for the life of the process."""
    zero = _ZEROS.get(dim)
    if zero is None:
        zero = _ZEROS[dim] = np.zeros((dim, dim), dtype=complex)
        zero.flags.writeable = False
    return zero


class Instrument:
    """A complete Kraus family {B_i} (sum B_i† B_i = 1) indexed by labeled outcomes.

    Outcome i comes as (S, B[S,S]), S the increasing indices (None: all) outside which B_i is
    zero, and is held as `supports[i]` = (`flat_index(S, dim)`, B[S,S], B[S,S]†), rows of one
    stack per support size, in which the outcomes of that size are checked. Absent or
    empty labels default to "0", "1", ...; constructors that promise more structure
    (projections, rank-1 projections) check it themselves.
    """

    __slots__ = ("dim", "supports", "outcome_labels")

    def __init__(self, dim: int, blocks: Iterable[tuple], labels: Sequence[str] | None = None):
        require(is_kind(dim, numbers.Integral) and dim >= 1,
                f"instrument dimension must be an integer >= 1, got {dim!r}")
        given = [(np.arange(dim) if s is None else np.asarray(s), np.asarray(b, complex))
                 for s, b in blocks]
        if not given:
            raise ValidationError("instrument needs at least one Kraus operator")
        # Outcomes of one support size are checked, conjugated and summed as one stack.
        ok = [s.ndim == 1 and s.dtype.kind in "iu" and b.shape == (s.size, s.size)
              for s, b in given]
        by_size: dict[int, list[int]] = {}
        for i, (s, _) in enumerate(given):
            if ok[i]:
                by_size.setdefault(s.size, []).append(i)
        ok = np.array(ok)
        stacks = []
        for k, index in by_size.items():
            s = np.array([given[i][0] for i in index], np.intp).reshape(len(index), k)
            b = np.array([given[i][1] for i in index]).reshape(len(index), k, k)
            ok[index] = ((s[:, 1:] > s[:, :-1]).all(axis=1) & (s >= 0).all(axis=1)
                         & (s < dim).all(axis=1) & np.isfinite(b).all(axis=(1, 2)))
            stacks.append((index, s, b))
        i = int(np.argmin(ok))  # the first outcome that fails, if any
        require(ok[i], lambda: f"outcome {i}: need increasing S in range({dim}) and a finite "
                f"|S|×|S| block, got S = {given[i][0].tolist()}, {given[i][1].shape}")
        supports = [None] * len(given)
        total = np.zeros(dim * dim, dtype=complex)  # sum B†B, scattered by flat index
        for index, s, b in stacks:
            flat = flat_index(s, dim)
            bh = np.ascontiguousarray(b.conj().transpose(0, 2, 1))
            np.add.at(total, flat.ravel(), (bh @ b).ravel())  # supports may overlap
            for j, i in enumerate(index):
                supports[i] = (flat[j], b[j], bh[j])
        labels = tuple(str(x) for x in labels or range(len(supports)))
        if len(labels) != len(supports):
            raise ValidationError(f"{len(labels)} labels for {len(supports)} outcomes")
        res = identity_residual(total.reshape(dim, dim))
        require(res <= COMPLETENESS_TOL, f"Kraus completeness fails: max |sum B†B - 1| = "
                f"{res:.3e} (tol {COMPLETENESS_TOL:g})")
        self.dim, self.supports, self.outcome_labels = dim, tuple(supports), labels

    @property
    def n_outcomes(self) -> int:
        return len(self.supports)

    @property
    def kraus(self) -> tuple[Operator, ...]:
        """The dense operators B_i, scattered from the blocks on each request: a view for tests,
        oracles and outside callers. The package itself reads `supports`."""
        ops = tuple(np.zeros((self.dim, self.dim), dtype=complex) for _ in self.supports)
        for op, (flat, b, _) in zip(ops, self.supports):
            op.flat[flat] = b
        return ops

    def support(self, i: int) -> np.ndarray:
        """S_i, the increasing indices that outcome i's block acts on; i is an integer in
        range(n_outcomes), as in `apply_instrument`."""
        return index_support(self.supports[_outcome(i, len(self.supports), [i])][0], self.dim)

    def support_index(self, outcomes: Iterable[int]) -> np.ndarray:
        """`flat_index(S, dim)`, S the union of the outcomes' supports: each B_i ρ B_i† is
        exactly zero outside S×S. Built from the outcomes' held indices; the result is a fresh
        array, so writing into it leaves the instrument as it is."""
        n, flats = len(self.supports), []
        for i in outcomes:
            if type(i) is not int or not 0 <= i < n:  # `_outcome` off the path of plain ints
                i = _outcome(i, n, outcomes)
            flats.append(self.supports[i][0])
        if len(flats) == 1:
            return flats[0].copy()
        union = {s for flat in flats for s in index_support(flat, self.dim).tolist()}
        return flat_index(np.array(sorted(union), dtype=np.intp), self.dim)


def general_instrument(kraus: Sequence, labels: Sequence[str] | None = None) -> Instrument:
    """Instrument from dense Kraus operators (only completeness checked): where dense operators
    become blocks, S being the nonzero rows and columns of B."""
    ops = [as_operator(b) for b in kraus]
    if any(b.shape != ops[0].shape for b in ops):
        raise ValidationError("Kraus operators have mismatched dimensions")
    supports = [np.flatnonzero(((b != 0) | (b.T != 0)).any(axis=0)) for b in ops]
    return Instrument(ops[0].shape[0] if ops else 1,  # an empty family fails there
                      [(s, b[s[:, None], s]) for s, b in zip(supports, ops)], labels)


def lvn_instrument(projections: Instrument | Sequence,
                   labels: Sequence[str] | None = None) -> Instrument:
    """Instrument from pairwise-orthogonal projections summing to the identity, given as dense
    matrices (with `labels`) or as an `Instrument`; every check runs on the blocks."""
    t = (projections if isinstance(projections, Instrument)
         else general_instrument(projections, labels))
    on = np.zeros((t.n_outcomes, t.dim), dtype=bool)  # on[i] marks S_i, outcome i's support
    herm, idem = np.zeros(t.n_outcomes), np.zeros(t.n_outcomes)  # |B-B†| and |B²-B|
    by_size: dict[int, list[int]] = {}
    for i, (_, b, _) in enumerate(t.supports):
        by_size.setdefault(b.shape[0], []).append(i)
    for k, index in by_size.items():  # one stack per support size
        flat, b, bh = (np.array([t.supports[i][j] for i in index]) for j in range(3))
        b, bh = b.reshape(len(index), k, k), bh.reshape(len(index), k, k)
        herm[index] = np.abs(b - bh).max(axis=(1, 2), initial=0.0)
        idem[index] = np.abs(b @ b - b).max(axis=(1, 2), initial=0.0)
        on[np.array(index)[:, None], flat[:, :k] % t.dim] = True
    ok = (herm <= PROJECTION_TOL) & (idem <= PROJECTION_TOL)
    i = int(np.argmin(ok))  # the first outcome that fails, if any
    require(ok[i], lambda: f"outcome {i}: not a projection "
            f"(|B-B†|={herm[i]:.3e}, |B²-B|={idem[i]:.3e})")
    # Disjoint supports give P_iP_j = 0 exactly; the others multiply over S_i ∩ S_j only.
    for i, j in zip(*np.nonzero(np.triu(on @ on.T, 1))):
        common = on[i] & on[j]
        res = float(np.abs(t.supports[i][1][:, common[t.support(i)]]
                           @ t.supports[j][1][common[t.support(j)]]).max())
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
    supports = [np.flatnonzero(a) for a in A.T]  # |a><a| acts on the nonzero entries of a
    return Instrument(A.shape[0], [(s, np.outer(a[s], a[s].conj()))
                                   for s, a in zip(supports, A.T)], labels)


def apply_instrument(t: Instrument, outcomes: Iterable[int], rho: Operator) -> Operator:
    """Unnormalized post-measurement operator sum_{i in E} B_i rho B_i†.

    Each B_i acts on its support S_i only: the block rho[S,S] is gathered by the flat index
    of S×S (`Instrument.supports`), and B_S rho[S,S] B_S† is added back into a flat +0
    buffer at the same positions. The terms left out are products with exact zeros. A term
    whose gathered block is exactly zero is skipped: B·0·B† adds only ±0, which leaves a sum
    begun at +0 as it is (a NaN or inf entry is nonzero, so it still reaches the result).
    When every term is skipped, the empty outcome set included, the result is
    `shared_zero(dim)`, the same read-only object on every such call: callers must not
    write into a result. A single outcome whose support is the whole space returns its
    product B rho B† itself. A whole-space term of a larger set is read through `ravel` and
    added by a plain `+=`.
    `outcomes` must be distinct integers (a bool is not one) in range(n_outcomes).
    Every form checks rho's shape first, then each index's type and range (a plain int in
    range without a call to `_outcome`), and raises the same `ValidationError` for the same
    fault; an ndarray rho is used as it is, without `np.asarray`. A one-outcome tuple, as
    the engine passes each partition block, takes the lean path: no term list and no repeat
    check, straight to its one product.
    The products are `ndarray.dot`: the same BLAS calls as `@`, without its per-call ufunc
    dispatch. rho is checked for shape only, not re-scanned for non-finite entries: it
    comes from a validated state or the engine's own products.
    """
    if type(rho) is not np.ndarray:
        rho = np.asarray(rho)
    dim, supports = t.dim, t.supports
    if rho.shape != (dim, dim):
        raise ValidationError(
            f"state of shape {rho.shape} does not match instrument dimension {dim}")
    n = len(supports)
    if type(outcomes) is tuple and len(outcomes) == 1:  # the engine's sets: the lean path
        i = outcomes[0]
        if type(i) is not int or not 0 <= i < n:  # `_outcome` off the path of plain ints
            i = _outcome(i, n, outcomes)
        flat, b, bh = supports[i]
    else:
        terms = []
        for i in outcomes:
            if type(i) is not int or not 0 <= i < n:
                i = _outcome(i, n, outcomes)
            terms.append(supports[i])
        if len(terms) != 1:
            # Each outcome's term is its own tuple, so a repeated outcome repeats an object.
            if len(set(map(id, terms))) < len(terms):
                raise ValidationError(f"outcome set {outcomes!r} repeats an outcome")
            out, entries = None, rho.ravel()
            for flat, b, bh in terms:
                # A whole-space term reads all the entries and is added by a plain `+=`: the
                # same values as the gather and scatter by the full index, without the fancy
                # indexing.
                whole = flat.size == rho.size
                sub = entries if whole else entries[flat]
                if np.count_nonzero(sub):
                    if out is None:
                        out = np.zeros(rho.size, dtype=complex)
                    product = b.dot(sub.reshape(b.shape)).dot(bh).ravel()
                    if whole:
                        out += product
                    else:
                        out[flat] += product
            return shared_zero(dim) if out is None else out.reshape(rho.shape)
        flat, b, bh = terms[0]
    if b.shape[0] == dim:  # whole space
        return b.dot(rho).dot(bh)
    sub = rho.ravel()[flat]  # on a contiguous rho a view, indexed faster than by `take`
    # `nonzero` counts as `count_nonzero` does (-0.0 is zero, a NaN is not), without its
    # Python-level dispatch: this test runs on every call the engine makes.
    if not sub.nonzero()[0].size:
        zero = _ZEROS.get(dim)  # `shared_zero` without a call, once it is made
        return shared_zero(dim) if zero is None else zero
    out = np.zeros(rho.size, dtype=complex)
    out[flat] += b.dot(sub.reshape(b.shape)).dot(bh).ravel()
    return out.reshape(rho.shape)


def outcome_pmf(t: Instrument, rho: DensityState) -> ProbVector:
    """Outcome distribution tr(B_i rho B_i†) = <B_S, B_S rho[S,S]>_F, S the support of B_i."""
    if rho.dim != t.dim:
        raise ValidationError(
            f"state dimension {rho.dim} does not match instrument dimension {t.dim}")
    probs = [float(np.real(np.vdot(b, b @ rho.matrix.take(flat).reshape(b.shape))))
             for flat, b, _ in t.supports]
    return ProbVector(np.clip(probs, 0.0, None), tol=1e-10)
