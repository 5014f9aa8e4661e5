"""Continuous-time propagation of density matrices.

The generator interpolates between coherent and dissipative motion with a
single mixing parameter omega in [0, 1]:

    d(rho)/dt = -(1 - omega) i [H, rho]
              + omega sum_k ( L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho} )

omega = 0 is the purely Hamiltonian walk, omega = 1 the purely dissipative
one. build_liouvillian realizes this as a dim^2 x dim^2 CSR sparse matrix
acting on column-stacked states (entry rho[a, alpha] sits at index
a + dim * alpha), assembled by one sparse product for every regime and size.

The generator is linear and time-independent, so propagation is the action
of its exponential, exp(t L) vec(rho0), computed by
scipy.sparse.linalg.expm_multiply (Al-Mohy and Higham, SIAM J. Sci. Comput.
33, 2011) at every size. When L and vec(rho0) are both real (every omega = 1
walk with real jump operators, started from a real state) the action runs
in real arithmetic; otherwise in complex. A time grid is a forward chain of
such steps, each starting from the state the previous one reached (see
qsw.cli), so its cost grows with the largest time, not the sum of times.

Propagation never renormalizes. If a propagated state drifts past the
trace, Hermiticity or positivity budgets the solver raises
StateInvariantError with the measured drifts, because silent repair would
hide defects in the generator it was handed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .operators import Hamiltonian, JumpOperatorSet

TRACE_BUDGET = 1e-9
HERMITICITY_BUDGET = 1e-10
EIGENVALUE_FLOOR = -1e-9


class PropagationError(RuntimeError):
    """Base class for solver failures."""


class StateInvariantError(PropagationError):
    """A propagated state violated trace, Hermiticity or positivity budgets."""

    def __init__(self, message: str, trace_drift: float, hermiticity_drift: float, min_eigenvalue: float):
        super().__init__(
            f"{message} (trace drift {trace_drift:.3e}, "
            f"hermiticity drift {hermiticity_drift:.3e}, "
            f"min eigenvalue {min_eigenvalue:.3e})"
        )
        self.trace_drift = trace_drift
        self.hermiticity_drift = hermiticity_drift
        self.min_eigenvalue = min_eigenvalue


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    Invariants are enforced at construction: Hermiticity within herm_tol,
    trace within trace_tol of 1, minimum eigenvalue at least eig_floor.
    The defaults suit exactly-constructed states; the propagator builds
    its outputs with the (looser) solver budgets.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, *, herm_tol: float = 1e-12, trace_tol: float = 1e-12, eig_floor: float = -1e-9):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {arr.shape}")
        herm_dev = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
        if herm_dev > herm_tol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e} > {herm_tol:.1e}")
        trace_dev = abs(arr.trace() - 1.0)
        if trace_dev > trace_tol:
            raise ValueError(f"trace deviates from 1 by {trace_dev:.3e} > {trace_tol:.1e}")
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
        if min_eig < eig_floor:
            raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e} < {eig_floor:.1e}")
        arr.setflags(write=False)
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def _prechecked(cls, arr: np.ndarray) -> "DensityMatrix":
        """Wrap arr without copying or checking; the caller has checked its invariants."""
        state = cls.__new__(cls)
        arr.setflags(write=False)
        state.entries = arr
        return state

    @classmethod
    def basis(cls, dim: int, index: int) -> "DensityMatrix":
        """The pure state concentrated on one basis vertex."""
        if not 0 <= index < dim:
            raise IndexError(f"index {index} out of range for dim {dim}")
        arr = np.zeros((dim, dim), dtype=complex)
        arr[index, index] = 1.0
        return cls(arr)

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Outer product of a state vector, which must be normalized to 1e-10."""
        psi = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {norm} is not 1 within 1e-10")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def from_populations(cls, p) -> "DensityMatrix":
        """Diagonal state from a probability vector (sum within 1e-9 of 1)."""
        vec = np.asarray(p, dtype=float).ravel()
        if vec.size == 0:
            raise ValueError("empty probability vector")
        if vec.min() < -1e-12:
            raise ValueError(f"negative probability {vec.min()}")
        total = vec.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1 within 1e-9")
        return cls(np.diag(vec / total).astype(complex))


@dataclass(frozen=True)
class Liouvillian:
    """Superoperator matrix (CSR) on column-stacked states, plus its sources."""

    dim: int
    omega: float
    matrix: object
    hamiltonian: Hamiltonian
    jump_operators: JumpOperatorSet


@dataclass(frozen=True)
class PropagationInfo:
    method: str
    steps: int
    trace_drift: float
    hermiticity_drift: float
    min_eigenvalue: float


def vectorize_state(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a dim x dim matrix: entry (a, alpha) -> index a + dim * alpha."""
    return np.asarray(matrix, dtype=complex).flatten(order="F")


def unvectorize_state(vector: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vector, dtype=complex).reshape((dim, dim), order="F")


def _state_entries(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def lindblad_rhs(h: Hamiltonian, ls: JumpOperatorSet, omega: float, rho) -> np.ndarray:
    """d(rho)/dt evaluated directly on matrices, no vectorization involved."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    if h.dim != ls.dim:
        raise ValueError(f"dimension mismatch: H is {h.dim}, operators are {ls.dim}")
    r = _state_entries(rho)
    if r.shape != (h.dim, h.dim):
        raise ValueError(f"state shape {r.shape} does not match dim {h.dim}")
    he = h.entries
    out = -(1.0 - omega) * 1j * (he @ r - r @ he)
    if omega > 0.0:
        for op in ls.operators:
            k = op.conj().T @ op
            out += omega * (op @ r @ op.conj().T - 0.5 * (k @ r + r @ k))
    return out


def _realign(mat: scipy.sparse.csr_matrix, dim: int) -> scipy.sparse.csr_matrix:
    """Move entry ((a, b), (alpha, beta)) of mat to (a + dim * alpha, b + dim * beta).

    Rows and columns of mat are pairs flattened row-major (a * dim + b).
    The move is a bijection, so no entries collide. mat is consumed: its
    index array is overwritten in place to keep the peak memory down.
    """
    coo = mat.tocoo(copy=False)
    rows, cols = coo.row, coo.col
    ket_cols = rows % dim
    rows //= dim
    bra_cols = cols % dim
    cols //= dim
    cols *= dim
    rows += cols
    bra_cols *= dim
    ket_cols += bra_cols
    del bra_cols
    return scipy.sparse.csr_matrix((coo.data, (rows, ket_cols)), shape=mat.shape)


def build_liouvillian(h: Hamiltonian, ls: JumpOperatorSet, omega: float) -> Liouvillian:
    """Assemble the CSR superoperator matrix for the interpolated generator.

    Under column stacking, X rho Y becomes kron(Y.T, X) acting on vec(rho).
    With the effective generator G = -i (1 - omega) H - (omega / 2) K,
    K = sum_k L_k^dag L_k, the matrix is

        L = kron(I, G) + kron(conj(G), I) + omega R(V V^dag),

    where column k of V is L_k flattened row-major (entry (a, b) at index
    a * dim + b) and the realignment R moves entry ((a, b), (alpha, beta))
    to (a + dim * alpha, b + dim * beta). K is S^dag S for the matrix S
    that stacks the operators' nonzeros. Because R(vec(G) vec(I)^dag) is
    kron(I, G) and R(vec(I) vec(G)^dag) is kron(conj(G), I), all three
    terms come out of one sparse product

        L = R([V, vec(G), vec(I)] [omega V, vec(I), vec(G)]^dag),

    which sums coinciding entries as it goes. Every regime and every size
    takes this one path.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    if h.dim != ls.dim:
        raise ValueError(f"dimension mismatch: H is {h.dim}, operators are {ls.dim}")
    dim = h.dim
    ops = ls.operators if omega > 0.0 else ()
    # Operator number, row-major index a * dim + b and value of every nonzero.
    positions = [np.flatnonzero(op != 0) for op in ops]
    number = np.repeat(np.arange(len(ops)), [p.size for p in positions])
    index = np.concatenate([np.zeros(0, dtype=np.intp), *positions])
    values = np.concatenate([np.zeros(0, dtype=complex), *(op.ravel()[p] for op, p in zip(ops, positions))])
    if not np.isfinite(values).all():
        raise ValueError(f"jump operator {int(number[~np.isfinite(values)][0])} has non-finite entries")

    gen = scipy.sparse.csr_matrix(h.entries) * (-1j * (1.0 - omega))
    if values.size:
        stacked = scipy.sparse.csr_matrix(
            (values, (number * dim + index // dim, index % dim)), shape=(len(ops) * dim, dim)
        )
        gen = gen - (0.5 * omega) * (stacked.conj().T @ stacked)
    gen = gen.tocoo()

    g_col, i_col = len(ops), len(ops) + 1
    rows = np.concatenate([index, gen.row.astype(np.intp) * dim + gen.col, np.arange(dim) * (dim + 1)])
    cols = np.concatenate([number, np.full(gen.nnz, g_col), np.full(dim, i_col)])
    swapped = np.concatenate([number, np.full(gen.nnz, i_col), np.full(dim, g_col)])
    shape = (dim * dim, len(ops) + 2)
    left = scipy.sparse.csr_matrix((np.concatenate([values, gen.data, np.ones(dim)]), (rows, cols)), shape=shape)
    right = scipy.sparse.csr_matrix((np.concatenate([omega * values, gen.data, np.ones(dim)]), (rows, swapped)), shape=shape)
    mat = _realign(left @ right.conj().T, dim)
    return Liouvillian(dim, float(omega), mat, h, ls)


def _state_diagnostics(arr: np.ndarray) -> tuple[float, float, float]:
    trace_drift = float(abs(arr.trace() - 1.0))
    herm_drift = float(np.abs(arr - arr.conj().T).max())
    min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
    return trace_drift, herm_drift, min_eig


def _check_budgets(arr: np.ndarray, context: str) -> tuple[float, float, float]:
    trace_drift, herm_drift, min_eig = _state_diagnostics(arr)
    if trace_drift > TRACE_BUDGET or herm_drift > HERMITICITY_BUDGET or min_eig < EIGENVALUE_FLOOR:
        raise StateInvariantError(context, trace_drift, herm_drift, min_eig)
    return trace_drift, herm_drift, min_eig


def _is_real(a) -> bool:
    """True when a (ndarray or sparse matrix) has no nonzero imaginary part."""
    data = a.data if scipy.sparse.issparse(a) else a
    return not np.iscomplexobj(data) or not data.imag.any()


def propagate_detailed(rho0: DensityMatrix, liouvillian: Liouvillian, t: float) -> tuple[DensityMatrix, PropagationInfo]:
    """Evolve rho0 for time t by the action of exp(t L); report diagnostics.

    A zero t returns rho0 itself, with method "identity" and 0 steps.
    Otherwise the one expm_multiply call runs in real arithmetic when both
    L and vec(rho0) are real, and in complex arithmetic when either is not
    (a real matrix never meets a complex vector, which would upcast the
    matrix on every product). The returned state is complex either way.

    The final state must stay within the trace, Hermiticity and positivity
    budgets or the call raises StateInvariantError rather than returning a
    repaired state.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if rho0.dim != liouvillian.dim:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {liouvillian.dim}")

    if t == 0:
        info = PropagationInfo("identity", 0, *_state_diagnostics(rho0.entries))
        return rho0, info

    matrix, vec = liouvillian.matrix, vectorize_state(rho0.entries)
    if _is_real(matrix) and _is_real(vec):
        matrix, vec = matrix.real, vec.real
    vec_t = expm_multiply(matrix * t, vec)
    arr = unvectorize_state(vec_t, liouvillian.dim)
    # The budgets are the DensityMatrix checks at the solver tolerances, so
    # the state is checked once, here.
    trace_drift, herm_drift, min_eig = _check_budgets(arr, f"state propagated by t={t} violated budgets")
    return DensityMatrix._prechecked(arr), PropagationInfo("matrix-exponential", 1, trace_drift, herm_drift, min_eig)


def propagate(rho0: DensityMatrix, liouvillian: Liouvillian, t: float) -> DensityMatrix:
    state, _ = propagate_detailed(rho0, liouvillian, t)
    return state


@dataclass(frozen=True)
class PopulationReport:
    values: np.ndarray
    clamped_indices: tuple
    min_raw_value: float

    @property
    def clamped(self) -> bool:
        return bool(self.clamped_indices)


def populations_detailed(rho: DensityMatrix) -> PopulationReport:
    """Diagonal of the state, with tiny negatives (above -1e-9) clamped to 0.

    Clamping is reported, never hidden; anything below -1e-9 would have
    failed the state's own positivity check already.
    """
    raw = np.real(np.diag(_state_entries(rho))).copy()
    clamped = tuple(int(i) for i in np.nonzero(raw < 0.0)[0])
    min_raw = float(raw.min()) if raw.size else 0.0
    raw[raw < 0.0] = 0.0
    raw.setflags(write=False)
    return PopulationReport(raw, clamped, min_raw)


def populations(rho: DensityMatrix) -> np.ndarray:
    return populations_detailed(rho).values


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries."""
    arr = _state_entries(rho)
    return float(np.abs(arr).sum() - np.abs(np.diag(arr)).sum())
