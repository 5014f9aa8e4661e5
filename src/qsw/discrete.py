"""Discrete-time walks: Markov chains and their completely positive maps.

A column-stochastic matrix S steps a probability vector as p' = S p. The
corresponding quantum map uses one Kraus operator per nonzero entry,
C_(a,b) = sqrt(S[a, b]) |a><b|, so completeness reduces to the column sums
of S and the map restricted to diagonal states is exactly the Markov
chain. No coin register is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import DensityMatrix
from .graph import Graph, _square_matrix


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
    """Operators C_k with sum_k C_k^dag C_k = I within 1e-10."""

    dim: int
    operators: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        ops = []
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for k, op in enumerate(self.operators):
            arr = _square_matrix(f"Kraus operator {k}", op, complex)
            if arr.shape != (self.dim, self.dim):
                raise ValueError(f"operator shape {arr.shape} does not match dim {self.dim}")
            ops.append(arr)
            total += arr.conj().T @ arr
        completeness_dev = np.abs(total - np.eye(self.dim)).max()
        if completeness_dev > 1e-10:
            raise ValueError(f"completeness violated: max deviation {completeness_dev:.3e}")
        object.__setattr__(self, "operators", tuple(ops))


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
    rows, cols = np.nonzero(s.entries > 0)
    ops = np.zeros((rows.size, s.dim, s.dim), dtype=complex)
    ops[np.arange(rows.size), rows, cols] = np.sqrt(s.entries[rows, cols])
    return KrausSet(s.dim, tuple(ops))


def apply_map(ks: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """rho' = sum_k C_k rho C_k^dag, validated as a state before returning."""
    if rho.dim != ks.dim:
        raise ValueError(f"state dim {rho.dim} does not match map dim {ks.dim}")
    out = np.zeros((ks.dim, ks.dim), dtype=complex)
    for op in ks.operators:
        out += op @ rho.entries @ op.conj().T
    return DensityMatrix(out, herm_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-9)


def map_tensor_element(ks: KrausSet, a: int, alpha: int, b: int, beta: int) -> complex:
    """Transition tensor of the map: sum_k <a|C_k|b> conj(<alpha|C_k|beta>)."""
    for name, idx in (("a", a), ("alpha", alpha), ("b", b), ("beta", beta)):
        if not 0 <= idx < ks.dim:
            raise IndexError(f"index {name}={idx} out of range for dim {ks.dim}")
    value = 0.0 + 0.0j
    for op in ks.operators:
        value += op[a, b] * np.conj(op[alpha, beta])
    return complex(value)


def iterate_map(ks: KrausSet, rho0: DensityMatrix, steps: int) -> DensityMatrix:
    """Apply the map steps times; state invariants are checked every step."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    state = rho0
    for _ in range(steps):
        state = apply_map(ks, state)
    return state
