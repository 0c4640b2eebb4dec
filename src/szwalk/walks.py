"""Coined unitary quantum walks on a cycle of vertices.

Basis convention, used everywhere: outcome/basis index = c*N + v for coin
c in {R=0, L=1} and vertex v in 0..N-1 (coin-major). Vertex arithmetic is
mod N with nonnegative remainder.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .entropy import Partition
from .errors import NumericError, ResourceLimitError, ValidationError, is_kind, require
from .quantum import (DensityState, Instrument, Operator, as_operator, coherent_instrument,
                      identity_residual, lvn_instrument, pure_state)

UNITARY_TOL = 1e-10
POWER_UNITARY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-12
# Dimension budget, checked before anything is allocated. Instruments hold only support blocks;
# it bounds the dense dim×dim operators: U, its powers, the states and the engine's branches.
MAX_DIM = 256

COIN_R = 0
COIN_L = 1
COIN_NAMES = "RL"


def basis_index(c: int, v: int, N: int) -> int:
    """Index of |c,v> in the coin-major computational basis."""
    if c not in (COIN_R, COIN_L) or not 0 <= v < N:
        raise ValidationError(f"no basis state (c={c}, v={v}) for N={N}")
    return c * N + v


def basis_label(index: int, N: int) -> str:
    c, v = divmod(index, N)
    return f"{COIN_NAMES[c]}{v}"


@dataclass(frozen=True)
class ShiftPermutation:
    """A permutation sigma of the coin-vertex indices, acting as |e> -> |sigma(e)>."""

    sigma: tuple[int, ...]
    coin_count: int
    vertex_count: int

    def __post_init__(self):
        n = self.coin_count * self.vertex_count
        if len(self.sigma) != n or sorted(self.sigma) != list(range(n)):
            raise ValidationError(
                f"sigma must be a permutation of range({n})")

    @property
    def dim(self) -> int:
        return self.coin_count * self.vertex_count

    def operator(self) -> Operator:
        """The permutation matrix S = sum |sigma(e)><e|."""
        S = np.zeros((self.dim, self.dim), dtype=complex)
        for e, target in enumerate(self.sigma):
            S[target, e] = 1.0
        return S


def hadamard_coin() -> Operator:
    """The 2x2 Hadamard coin (1/sqrt2) [[1,1],[1,-1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def _check_dimension(N: int) -> None:
    require(2 * N <= MAX_DIM, f"a cycle walk on N={N} vertices has dimension {2 * N}, over the "
            f"dimension budget of {MAX_DIM}", ResourceLimitError)


def integer_shift(N: int) -> ShiftPermutation:
    """Coin-preserving shift: (R,n) -> (R,n+1) and (L,n) -> (L,n-1), mod N."""
    require(is_kind(N, numbers.Integral) and N >= 2,
            f"integer shift needs an integer N >= 2, got {N!r}")
    _check_dimension(N)
    sigma = [0] * (2 * N)
    for v in range(N):
        sigma[basis_index(COIN_R, v, N)] = basis_index(COIN_R, (v + 1) % N, N)
        sigma[basis_index(COIN_L, v, N)] = basis_index(COIN_L, (v - 1) % N, N)
    return ShiftPermutation(tuple(sigma), coin_count=2, vertex_count=N)


@dataclass(frozen=True)
class CoinedWalk:
    """The walk unitary U = S (sum_v U_v ⊗ |v><v|) with its building blocks."""

    unitary: Operator
    shift: ShiftPermutation
    coins: tuple[Operator, ...]
    space_homogeneous: bool

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    @property
    def vertex_count(self) -> int:
        return self.shift.vertex_count


def coined_walk(shift: ShiftPermutation, coins) -> CoinedWalk:
    """Assemble and validate a coined walk from its shift and per-vertex coins."""
    coins = tuple(as_operator(c) for c in coins)
    N = shift.vertex_count
    k = shift.coin_count
    if len(coins) != N:
        raise ValidationError(f"need one coin per vertex: got {len(coins)} for {N} vertices")
    for v, c in enumerate(coins):
        if c.shape[0] != k:
            raise ValidationError(f"coin at vertex {v} has dimension {c.shape[0]}, expected {k}")
    stack = np.array(coins).reshape(N, k, k)  # coins[v] = stack[v]
    res = np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(k)).max(axis=(1, 2))
    ok = res <= UNITARY_TOL
    v = int(np.argmin(ok))  # the first vertex that fails, if any
    require(ok[v], lambda: f"coin at vertex {v} not unitary: residual {res[v]:.3e}")
    dim = shift.dim
    coin_layer = np.zeros((dim, dim), dtype=complex)
    # Entry (c1, c2) of the coin at v sits at (c1·N + v, c2·N + v).
    v, c = np.arange(N)[:, None, None], np.arange(k)
    coin_layer[c[:, None] * N + v, c * N + v] = stack
    U = shift.operator() @ coin_layer
    res = identity_residual(U.conj().T @ U)
    require(res <= UNITARY_TOL, f"assembled walk not unitary: residual {res:.3e}", NumericError)
    homogeneous = bool(np.abs(stack - stack[0]).max() <= RECONSTRUCTION_TOL)
    return CoinedWalk(unitary=U, shift=shift, coins=coins, space_homogeneous=homogeneous)


def hadamard_walk(N: int) -> CoinedWalk:
    """The Hadamard walk on the N-cycle: integer shift with Hadamard coins."""
    require(is_kind(N, numbers.Integral) and N >= 2,
            f"Hadamard walk needs an integer N >= 2, got {N!r}")
    return coined_walk(integer_shift(N), (hadamard_coin(),) * N)


def unitary_power(w: CoinedWalk, m: int) -> Operator:
    """U^m by repeated multiplication, with unitarity revalidated."""
    require(is_kind(m, numbers.Integral) and m >= 1,
            f"unitary power needs an integer m >= 1, got {m!r}")
    U = w.unitary
    out = U.copy()
    for _ in range(m - 1):
        out = U @ out
    res = identity_residual(out.conj().T @ out)
    require(res <= POWER_UNITARY_TOL, f"unitarity lost after powering: residual {res:.3e}",
            NumericError)
    return out


# Measurement setups for a cycle walk, in the coin-major basis convention.

def _check_vertex_count(N) -> None:
    require(is_kind(N, numbers.Integral) and N >= 1, f"need an integer N >= 1, got {N!r}")
    _check_dimension(N)


def coin_vertex_labels(N: int) -> tuple[str, ...]:
    return tuple(basis_label(e, N) for e in range(2 * N))


def coin_vertex_instrument(N: int) -> Instrument:
    """Coherent-states instrument over the computational basis |c,v>."""
    _check_vertex_count(N)
    return coherent_instrument(list(np.eye(2 * N, dtype=complex)),
                               labels=coin_vertex_labels(N))


def position_instrument(N: int) -> Instrument:
    """Rank-2 position instrument P_v = 1_C ⊗ |v><v| with one outcome per vertex."""
    _check_vertex_count(N)
    blocks = [(np.array([basis_index(COIN_R, v, N), basis_index(COIN_L, v, N)]),
               np.eye(2, dtype=complex)) for v in range(N)]  # P_v is the identity on {R v, L v}
    return lvn_instrument(Instrument(2 * N, blocks, labels=[f"v{v}" for v in range(N)]))


def vertex_partition(N: int) -> Partition:
    """Partition of the coin-vertex outcomes grouping both coins per vertex."""
    _check_vertex_count(N)
    blocks = [[basis_index(COIN_R, v, N), basis_index(COIN_L, v, N)] for v in range(N)]
    return Partition(blocks, labels=[f"v{v}" for v in range(N)], size=2 * N)


def hadamard_eigenstate(N: int) -> DensityState:
    """Pure state from the walk eigenvector ((1+sqrt2)|R> + |L>) ⊗ sum_v |v>."""
    _check_vertex_count(N)
    vec = np.zeros(2 * N, dtype=complex)
    for v in range(N):
        vec[basis_index(COIN_R, v, N)] = 1.0 + math.sqrt(2.0)
        vec[basis_index(COIN_L, v, N)] = 1.0
    return pure_state(vec)
