"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import numpy as np

from szwalk import (DensityState, Instrument, NumericError, Partition, ProbVector,
                    TransitionMatrix, coherent_instrument, cylinder_probability, eta,
                    general_instrument, lvn_instrument)
from szwalk.quantum import orthonormal_columns


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_density(rng: np.random.Generator, dim: int) -> DensityState:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return DensityState(m / np.real(np.trace(m)))


def random_prob_vector(rng: np.random.Generator, n: int) -> ProbVector:
    w = rng.random(n) + 1e-3
    return ProbVector(w / w.sum())


def random_blocks(rng: np.random.Generator, n: int, n_blocks: int) -> list[list[int]]:
    """Split 0..n-1 into n_blocks non-empty groups, uniformly shuffled."""
    idx = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
    return [list(map(int, part)) for part in np.split(idx, cuts)]


def random_partition(rng: np.random.Generator, n: int, n_blocks: int) -> Partition:
    return Partition(random_blocks(rng, n, n_blocks), size=n)


def random_coherent(rng: np.random.Generator, dim: int) -> Instrument:
    return coherent_instrument(list(random_unitary(rng, dim).T))


def random_lvn(rng: np.random.Generator, dim: int, n_outcomes: int,
               coordinates: list[list[int]] | None = None) -> Instrument:
    """Projections onto random groups of a random orthonormal basis. With `coordinates`
    (disjoint index sets covering range(dim)) each basis vector is random within one set,
    so an outcome acts only on the sets its vectors come from: a partial support."""
    if coordinates is None:
        basis = random_unitary(rng, dim).T
    else:
        basis = np.zeros((dim, dim), dtype=complex)
        for c in coordinates:
            basis[np.ix_(c, c)] = random_unitary(rng, len(c)).T
    groups = random_blocks(rng, dim, n_outcomes)
    projections = []
    for group in groups:
        p = np.zeros((dim, dim), dtype=complex)
        for i in group:
            p += np.outer(basis[i], basis[i].conj())
        projections.append(p)
    return lvn_instrument(projections)


def random_general(rng: np.random.Generator, dim: int, n_outcomes: int) -> Instrument:
    gs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
          for _ in range(n_outcomes)]
    total = sum(g.conj().T @ g for g in gs)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return general_instrument([g @ inv_sqrt for g in gs])


def dense_apply(t: Instrument, outcomes, rho: np.ndarray) -> np.ndarray:
    """Sum of B_i rho B_i† over `outcomes` by full dim×dim products: the oracle for
    `apply_instrument`, which multiplies each B_i on its support only."""
    out = np.zeros(rho.shape, dtype=complex)
    for i in outcomes:
        b = t.kraus[int(i)]
        out += b @ rho @ b.conj().T
    return out


def dense_position(N: int) -> list[np.ndarray]:
    """The rank-2 position projections P_v = 1_C ⊗ |v><v| as dense 2N×2N matrices."""
    projections = []
    for v in range(N):
        p = np.zeros((2 * N, 2 * N), dtype=complex)
        p[v, v] = p[N + v, N + v] = 1.0
        projections.append(p)
    return projections


def dense_coherent(basis) -> list[np.ndarray]:
    """The rank-1 projections |a><a| of an orthonormal basis as dense matrices."""
    return [np.outer(a, a.conj()) for a in orthonormal_columns(list(basis), len(basis)).T]


def dense_supports(kraus) -> list[tuple]:
    """Per dense operator B, (flat index of S×S, B[S,S], B[S,S]†) with S its nonzero rows and
    columns, scanned from the dense matrix: the oracle of `Instrument.supports`."""
    out = []
    for b in kraus:
        nonzero = b != 0
        s = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        flat = (s[:, None] * b.shape[0] + s).ravel()
        bs = np.ascontiguousarray(b.take(flat).reshape(s.size, s.size))
        out.append((flat, bs, np.ascontiguousarray(bs.conj().T)))
    return out


def dense_kraus_tree_family(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """Two Kraus operators from a random isometry V (2d×d) split in halves, as the
    `kraus_tree` benchmark draws them."""
    q, r = np.linalg.qr(rng.normal(size=(2 * dim, dim)) + 1j * rng.normal(size=(2 * dim, dim)))
    v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return [v[:dim], v[dim:]]


def ix_supports(t: Instrument) -> list[tuple]:
    """Per outcome, (index of S×S, B[S,S], B[S,S]†) with the support index as an `np.ix_`
    tuple, or plain `[:, :]` slices when S is the whole space."""
    out = []
    for b in t.kraus:
        nonzero = b != 0
        s = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        idx = (slice(None), slice(None)) if s.size == t.dim else np.ix_(s, s)
        bs = np.ascontiguousarray(b[idx])
        out.append((idx, bs, np.ascontiguousarray(bs.conj().T)))
    return out


def ix_apply(t: Instrument, outcomes, rho: np.ndarray) -> np.ndarray:
    """`apply_instrument` written with `np.ix_` support tuples and a dense dim×dim buffer that
    every term is added into: the bit-for-bit oracle of the flat-index kernel."""
    supports = ix_supports(t)
    terms = [supports[int(i)] for i in outcomes]
    if len(terms) == 1 and isinstance(terms[0][0][0], slice):  # one outcome, whole space
        _, b, bh = terms[0]
        return b.dot(rho).dot(bh)
    out = np.zeros(rho.shape, dtype=complex)
    for idx, b, bh in terms:
        out[idx] += b.dot(rho[idx]).dot(bh)
    return out


def ix_outcome_probs(t: Instrument, rho: DensityState) -> list[float]:
    """tr(B_i rho B_i†) per outcome, from the `np.ix_` blocks of `ix_supports`."""
    return [float(np.real(np.vdot(b, b @ rho.matrix[idx]))) for idx, b, _ in ix_supports(t)]


def eigencheck(u: np.ndarray, v) -> complex:
    """Return lambda with u v = lambda v, reading lambda off the largest component.

    Raises NumericError with the residual when v is not an eigenvector.
    """
    vec = np.asarray(v, dtype=complex).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    image = u @ vec
    pivot = int(np.argmax(np.abs(vec)))
    lam = complex(image[pivot] / vec[pivot])
    residual = float(np.abs(image - lam * vec).max())
    if not residual <= 1e-8:
        raise NumericError(f"not an eigenvector: residual {residual:.3e} (tol 1e-08)")
    return lam


def svd_cesaro_projector(m: np.ndarray) -> np.ndarray:
    """Π = lim (1/n) Σ_{k<n} mᵏ as R (L R)⁺ L, R and L the right and left null spaces of m - 1
    from its SVD (singular values up to 1e-9): the oracle for `classical.cesaro_limit`.

    Raises NumericError unless mΠ = Πm = Π to 1e-9.
    """
    u, sv, vh = np.linalg.svd(m - np.eye(m.shape[0]))
    null = sv <= 1e-9
    right, left = vh[null].T, u[:, null].T
    projector = right @ np.linalg.pinv(left @ right) @ left
    residual = max(np.abs(m @ projector - projector).max(initial=0.0),
                   np.abs(projector @ m - projector).max(initial=0.0))
    if not residual <= 1e-9:
        raise NumericError(f"Cesàro projector not resolved: residual {residual:.3e}")
    return projector


def process_joint_entropy(P: TransitionMatrix, mu0: ProbVector, n: int) -> float:
    """H(X_0,...,X_n) of the chain started at mu0, by exact enumeration of its nonzero paths:
    the oracle for `entropy_rate`, whose first n entries sum to it after H(X_0).

    One layer per step: each path is extended by the nonzero entries of its end state's column.
    """
    states = np.flatnonzero(mu0.entries)
    weights = mu0.entries[states]
    for _ in range(n):
        columns = P.entries[:, states]
        paths, states = np.nonzero(columns.T)
        weights = weights[paths] * columns[states, paths]
    weights = weights[weights > 0.0]
    return float(-(weights * np.log(weights)).sum())


def cylinder_level_joints(walk_unitary, t, rho, partition, n_max, eps=1e-15):
    """Brute-force block-sequence joints at depths 0..n_max via cylinder_probability.

    Every probability is recomputed from scratch, independently of the
    trajectory engine's incremental evolution.
    """
    levels = []
    frontier = []
    for bi, block in enumerate(partition.blocks):
        w = cylinder_probability(walk_unitary, t, rho, [block])
        if w > eps:
            frontier.append((bi,))
    levels.append({seq: cylinder_probability(walk_unitary, t, rho,
                                             [partition.blocks[s] for s in seq])
                   for seq in frontier})
    for _ in range(n_max):
        new = []
        for seq in frontier:
            for bi in range(len(partition.blocks)):
                candidate = seq + (bi,)
                w = cylinder_probability(walk_unitary, t, rho,
                                         [partition.blocks[s] for s in candidate])
                if w > eps:
                    new.append(candidate)
        frontier = new
        levels.append({seq: cylinder_probability(walk_unitary, t, rho,
                                                 [partition.blocks[s] for s in seq])
                       for seq in frontier})
    return levels


def conditional_sequence_from_levels(levels) -> list[float]:
    """a_n from brute-force level joints via the chain rule H_n - H_{n-1}."""
    entropies = [sum(eta(w) for w in level.values()) for level in levels]
    return [entropies[0]] + [entropies[k] - entropies[k - 1] for k in range(1, len(entropies))]
