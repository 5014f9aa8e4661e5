"""Continuous-time propagation of density matrices.

The generator interpolates between coherent and dissipative motion with a
single mixing parameter omega in [0, 1]:

    d(rho)/dt = -(1 - omega) i [H, rho]
              + omega sum_k ( L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho} )

omega = 0 is the purely Hamiltonian walk, omega = 1 the purely dissipative
one. Like every Lindblad generator it maps Hermitian matrices to Hermitian
matrices, so it acts on the dim^2 real coordinates of a Hermitian state in
an orthonormal basis: rho[a, a], sqrt(2) Re rho[a, alpha] and
sqrt(2) Im rho[a, alpha] for a < alpha (coordinate_basis). The sqrt(2)
makes the basis orthonormal, so the coordinate change is unitary.
build_liouvillian assembles the generator in these coordinates as one
real dim^2 x dim^2 CSR matrix, by one sparse product for every regime and
size; column_stacked_superoperator rebuilds the complex matrix on
column-stacked states for checks that need it.

The generator is linear and time-independent, so propagation is the action
of its exponential, exp(t L) x0, computed in real arithmetic by
scipy.sparse.linalg.expm_multiply (Al-Mohy and Higham, SIAM J. Sci. Comput.
33, 2011) for every regime, omega, start state and size. A time grid is a
forward chain of such steps, each starting from the state the previous one
reached (see qsw.cli), so its cost grows with the largest time, not the
sum of times.

Propagation never renormalizes. If a propagated state drifts past the
trace, Hermiticity or positivity budgets the solver raises
StateInvariantError with the measured drifts, because silent repair would
hide defects in the generator it was handed. A state mapped back from real
coordinates is Hermitian by construction, so its Hermiticity drift reads 0;
the check stays, as it costs one pass over the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .operators import Hamiltonian, JumpOperatorSet

TRACE_BUDGET = 1e-9
HERMITICITY_BUDGET = 1e-10
EIGENVALUE_FLOOR = -1e-9
# The smallest normal float; expm_multiply's scaling breaks down below it.
MIN_POSITIVE_TIME = float(np.finfo(float).tiny)


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


def _require_finite(name: str, arr: np.ndarray) -> None:
    """Every tolerance check is False on nan, so non-finite input must be refused first."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(bad[0].tolist())
        raise ValueError(f"{name} {index[0] if len(index) == 1 else index} is not finite: {arr[index]}")


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
        _require_finite("density matrix entry", arr)
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
        _require_finite("amplitude", psi)
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
        _require_finite("probability", vec)
        if vec.min() < -1e-12:
            raise ValueError(f"negative probability {vec.min()}")
        total = vec.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1 within 1e-9")
        return cls(np.diag(vec / total).astype(complex))


@dataclass(frozen=True)
class Liouvillian:
    """The generator as a real CSR matrix on the coordinates of coordinate_basis, plus its sources.

    column_stacked_superoperator rebuilds the complex form from it.
    """

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


def _realign(left: scipy.sparse.csr_matrix, right_dag: scipy.sparse.csr_matrix, dim: int) -> scipy.sparse.csr_matrix:
    """The real-coordinate superoperator from the complex product left right_dag.

    Entry ((a, b), (alpha, beta)) of the product is the entry c of the
    complex superoperator in row rho[a, alpha] and column rho[b, beta] (its
    rows and columns are pairs flattened row-major, a * dim + b). A
    Lindblad generator maps Hermitian states to Hermitian states, so the
    rows with a > alpha are conjugates of the rows with a <= alpha and are
    dropped. The term c rho[b, beta] is rewritten in the coordinates of
    coordinate_basis: rho[b, beta] is x_bb on the diagonal and
    (x_re +- i x_im) / sqrt(2) off it, with + above the diagonal and -
    below, where it is the conjugate of the upper pair. Its real part goes
    to the row's real coordinate and its imaginary part to the row's
    imaginary one, scaled by sqrt(2) off the diagonal; on a diagonal row
    the imaginary parts cancel between conjugate columns and are dropped.
    A column and its conjugate land on the same coordinates: grouping the
    kept entries by (row pair, column pair) makes them neighbours, and
    their terms are summed before the CSR matrix is built, so it is built
    from exactly its nonzeros. Each temporary is freed as soon as it is
    used (the product first), which keeps the peak memory below that of
    propagation.
    """
    n2 = dim * dim
    coo = (left @ right_dag).tocoo(copy=False)
    a, b = np.divmod(coo.row, dim)
    alpha, beta = np.divmod(coo.col, dim)
    keep = np.flatnonzero(a <= alpha)
    c = coo.data[keep]
    del coo
    a, b, alpha, beta = a[keep], b[keep], alpha[keep], beta[keep]
    del keep
    # Column 2 * (index of the pair {b, beta}) + 1 when b > beta: a column
    # and its conjugate become neighbours in one row, the upper one first.
    row = a + dim * alpha
    col = np.minimum(b, beta) + dim * np.maximum(b, beta)
    col *= 2
    col += b > beta
    del a, b, alpha, beta
    # The CSR constructor sorts each row by column (no entry repeats).
    grouped = scipy.sparse.csr_matrix((c, (row, col)), shape=(n2, 2 * n2))
    del row, col, c
    row = np.repeat(np.arange(n2, dtype=grouped.indices.dtype), np.diff(grouped.indptr))
    col, c = grouped.indices, grouped.data
    del grouped
    lower = (col & 1).astype(bool)
    col >>= 1
    starts = np.ones(col.size, dtype=bool)
    starts[1:] = (col[1:] != col[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(starts)
    # The sum over a column and its conjugate, and the same sum with the lower one negated.
    total = np.add.reduceat(c, starts)
    np.negative(c, out=c, where=lower)
    signed = np.add.reduceat(c, starts)
    row, col = row[starts], col[starts]
    del c, lower, starts
    row_hi, row_lo = np.divmod(row, dim)
    col_hi, col_lo = np.divmod(col, dim)
    row_off, col_off = row_lo != row_hi, col_lo != col_hi
    weight = np.array([np.sqrt(0.5), 1.0, np.sqrt(2.0)])[row_off.view(np.int8) - col_off.view(np.int8) + 1]
    total *= weight
    signed *= weight
    del weight
    row_im, col_im = row_hi + dim * row_lo, col_hi + dim * col_lo
    del row_hi, row_lo, col_hi, col_lo
    # (real row, real column) takes Re total, (real, imaginary) -Im signed,
    # (imaginary, real) Im total and (imaginary, imaginary) Re signed; a
    # diagonal pair has no imaginary coordinate.
    blocks = (
        (row, col, total.real, None),
        (row, col_im, -signed.imag, col_off),
        (row_im, col, total.imag, row_off),
        (row_im, col_im, signed.real, row_off & col_off),
    )
    rows, cols, values = [], [], []
    for block_rows, block_cols, block_values, mask in blocks:
        take = block_values != 0.0
        if mask is not None:
            take &= mask
        rows.append(block_rows[take])
        cols.append(block_cols[take])
        values.append(block_values[take])
    del blocks, row, col, row_im, col_im, total, signed
    return scipy.sparse.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=(n2, n2))


def _pair_indices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked indices of the diagonal pairs, the pairs a < alpha, and their transposes."""
    first, second = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), first + dim * second, second + dim * first


def to_coordinates(entries: np.ndarray) -> np.ndarray:
    """The real coordinates of a Hermitian matrix (see coordinate_basis), float64."""
    diag, upper, lower = _pair_indices(entries.shape[0])
    vec = vectorize_state(entries)
    coords = np.empty(vec.size)
    coords[diag] = vec[diag].real
    # x = T^dag vec(rho), which reads the Hermitian part of a matrix that is Hermitian only to rounding.
    coords[upper] = (vec[upper] + vec[lower]).real * np.sqrt(0.5)
    coords[lower] = (vec[upper] - vec[lower]).imag * np.sqrt(0.5)
    return coords


def from_coordinates(coords: np.ndarray, dim: int) -> np.ndarray:
    """The complex dim x dim matrix with real coordinates coords; Hermitian by construction."""
    diag, upper, lower = _pair_indices(dim)
    vec = np.empty(dim * dim, dtype=complex)
    vec[diag] = coords[diag]
    vec[upper] = (coords[upper] + 1j * coords[lower]) * np.sqrt(0.5)
    vec[lower] = vec[upper].conj()
    return unvectorize_state(vec, dim)


def coordinate_basis(dim: int) -> scipy.sparse.csr_matrix:
    """The unitary T with vec(rho) = T x for the real coordinates x of a Hermitian rho.

    Coordinates are indexed like column-stacked entries: x[a + dim * a] is
    rho[a, a], and for a < alpha x[a + dim * alpha] is sqrt(2) Re rho[a, alpha]
    and x[alpha + dim * a] is sqrt(2) Im rho[a, alpha]. They are the
    coefficients of rho in an orthonormal basis of the Hermitian matrices,
    so T is unitary and x = T^dag vec(rho) for Hermitian rho.
    """
    diag, upper, lower = _pair_indices(dim)
    half = np.full(upper.size, np.sqrt(0.5))
    rows = np.concatenate([diag, upper, upper, lower, lower])
    cols = np.concatenate([diag, upper, lower, upper, lower])
    values = np.concatenate([np.ones(dim), half, 1j * half, half, -1j * half])
    return scipy.sparse.csr_matrix((values, (rows, cols)), shape=(dim * dim, dim * dim))


def column_stacked_superoperator(matrix) -> scipy.sparse.csr_matrix:
    """The complex superoperator L = T R T^dag on column-stacked states.

    R is a real-coordinate matrix such as Liouvillian.matrix, which holds
    the generator in the coordinates of coordinate_basis only. The rebuild
    is linear in R and is for checks that compare it with a complex form
    (the axiom audit and tests); propagation never needs it.
    """
    basis = coordinate_basis(math.isqrt(matrix.shape[0]))
    return (basis @ matrix @ basis.conj().T).tocsr()


def build_liouvillian(h: Hamiltonian, ls: JumpOperatorSet, omega: float) -> Liouvillian:
    """Assemble the interpolated generator as a real CSR matrix in the coordinates of coordinate_basis.

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

    which sums coinciding entries as it goes. The realignment also moves
    each entry into the real coordinates (see _realign), so the complex
    matrix is never stored: the real matrix is R = T^dag L T for the
    unitary T of coordinate_basis. Every regime and every size takes this
    one path.
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
    # The right factor is built already conjugated and transposed.
    right_dag = scipy.sparse.csr_matrix(
        (np.concatenate([omega * values, gen.data, np.ones(dim)]).conj(), (swapped, rows)), shape=shape[::-1]
    )
    mat = _realign(left, right_dag, dim)
    return Liouvillian(dim, float(omega), mat, h, ls)


def _state_diagnostics(arr: np.ndarray) -> tuple[float, float, float]:
    trace_drift = float(abs(arr.trace() - 1.0))
    herm_drift = float(np.abs(arr - arr.conj().T).max())
    if np.isfinite(arr).all():
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
    else:
        # LAPACK fails to converge on non-finite input; the drifts already show it.
        min_eig = float("nan")
    return trace_drift, herm_drift, min_eig


def _check_budgets(arr: np.ndarray, context: str) -> tuple[float, float, float]:
    trace_drift, herm_drift, min_eig = _state_diagnostics(arr)
    # Written so that a nan drift is a violation.
    if not (trace_drift <= TRACE_BUDGET and herm_drift <= HERMITICITY_BUDGET and min_eig >= EIGENVALUE_FLOOR):
        raise StateInvariantError(context, trace_drift, herm_drift, min_eig)
    return trace_drift, herm_drift, min_eig


def propagate_detailed(rho0: DensityMatrix, liouvillian: Liouvillian, t: float) -> tuple[DensityMatrix, PropagationInfo]:
    """Evolve rho0 for time t by the action of exp(t L); report diagnostics.

    A zero t returns rho0 itself, with method "identity" and 0 steps.
    Otherwise rho0 is mapped to its real coordinates (to_coordinates), the
    one expm_multiply call runs on float64 operands, and the result is
    mapped back to a complex state, Hermitian by construction.

    The final state must stay within the trace, Hermiticity and positivity
    budgets or the call raises StateInvariantError rather than returning a
    repaired state.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if 0 < t < MIN_POSITIVE_TIME:
        # expm_multiply divides by quantities that underflow to 0 at subnormal t.
        raise ValueError(f"t must be 0 or at least {MIN_POSITIVE_TIME}, got {t}")
    if rho0.dim != liouvillian.dim:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {liouvillian.dim}")

    if t == 0:
        info = PropagationInfo("identity", 0, *_state_diagnostics(rho0.entries))
        return rho0, info

    coords = expm_multiply(liouvillian.matrix * t, to_coordinates(rho0.entries))
    arr = from_coordinates(coords, liouvillian.dim)
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
