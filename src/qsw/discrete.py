"""Discrete-time walks: Markov chains and their completely positive maps.

A column-stochastic matrix S steps a probability vector as p' = S p. The
corresponding quantum map uses one Kraus operator per nonzero entry,
C_(a,b) = sqrt(S[a, b]) |a><b|, so completeness reduces to the column sums
of S and the map restricted to diagonal states is exactly the Markov
chain. No coin register is involved.

A Kraus set is held as a jump-operator set, the triplets of its nonzero
entries. The map rho -> sum_k C_k rho C_k^dag is the jump part of a
dissipator, so it is applied through the real-coordinate matrix that
qsw.evolution._assemble builds for one, with G = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .evolution import DensityMatrix, _assemble, from_coordinates, to_coordinates
from .graph import Graph, _check_indices, _square_matrix
from .operators import CUSTOM, JumpOperatorSet, _jump_term


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic matrix: entries >= 0, every column sums to 1 (1e-12)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _square_matrix("stochastic matrix", self.entries, float)
        if arr.min() < 0:
            raise ValueError(f"negative entry {arr.min()}")
        col_dev = np.abs(arr.sum(axis=0) - 1.0).max()
        if col_dev > 1e-12:
            raise ValueError(f"column sums deviate from 1 by {col_dev:.3e}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class KrausSet:
    """Operators C_k with sum_k C_k^dag C_k = I within 1e-10, held as the triplets of their nonzero entries."""

    operator_set: JumpOperatorSet

    def __post_init__(self):
        deviation = abs(self.operator_set.sparse_overlap_sum() - scipy.sparse.identity(self.dim)).max()
        if deviation > 1e-10:
            raise ValueError(f"completeness violated: max deviation {deviation:.3e}")
        # The map on the real coordinates of qsw.evolution, built once per set.
        object.__setattr__(self, "_map", _assemble(scipy.sparse.csr_matrix((self.dim, self.dim)), self.operator_set))

    @classmethod
    def from_dense(cls, dim: int, operators) -> "KrausSet":
        """The set of the given dim x dim matrices; the first non-finite entry is named."""
        ops = [_square_matrix(f"Kraus operator {k}", op, complex) for k, op in enumerate(operators)]
        return cls(JumpOperatorSet.from_dense(dim, ops, CUSTOM))

    @property
    def dim(self) -> int:
        return self.operator_set.dim

    @property
    def operators(self) -> tuple:
        """The operators as dense dim x dim matrices, built on demand for checks only."""
        return self.operator_set.operators


def lazy_walk_matrix(g: Graph, hold: float) -> StochasticMatrix:
    """Hop to a uniformly random neighbor with weight (1 - hold), stay with hold.

    An isolated vertex has nowhere to hop, so it requires hold = 1.
    """
    if not 0.0 <= hold <= 1.0:
        raise ValueError(f"hold must lie in [0, 1], got {hold}")
    rows, cols = np.nonzero(g.weight_matrix())
    degree = np.bincount(cols, minlength=g.n_vertices)
    if hold != 1.0 and not degree.all():
        raise ValueError(f"vertex {np.argmin(degree)} is isolated; only hold=1 is stochastic")
    arr = hold * np.eye(g.n_vertices)
    arr[rows, cols] = (1.0 - hold) / degree[cols]
    return StochasticMatrix(arr)


def kraus_from_stochastic(s: StochasticMatrix) -> KrausSet:
    """One operator sqrt(S[a, b]) |a><b| per nonzero entry of S."""
    rows, cols = np.nonzero(s.entries)
    return KrausSet(JumpOperatorSet(s.dim, rows.size, np.arange(rows.size), rows, cols, np.sqrt(s.entries[rows, cols]), CUSTOM))


def apply_map(ks: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """rho' = sum_k C_k rho C_k^dag, validated as a state before returning."""
    if rho.dim != ks.dim:
        raise ValueError(f"state dim {rho.dim} does not match map dim {ks.dim}")
    out = from_coordinates(ks._map @ to_coordinates(rho.entries), ks.dim)
    return DensityMatrix(out, herm_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-9)


def map_tensor_element(ks: KrausSet, a: int, alpha: int, b: int, beta: int) -> complex:
    """Transition tensor of the map: sum_k <a|C_k|b> conj(<alpha|C_k|beta>)."""
    a, alpha, b, beta = _check_indices(range(ks.dim), a=a, alpha=alpha, b=b, beta=beta)
    return _jump_term(ks.operator_set, a, b, alpha, beta)


def iterate_map(ks: KrausSet, rho0: DensityMatrix, steps: int) -> DensityMatrix:
    """Apply the map steps times; state invariants are checked every step."""
    if not (isinstance(steps, (int, np.integer)) and steps >= 0):
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    state = rho0
    for _ in range(steps):
        state = apply_map(ks, state)
    return state
