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
build_liouvillian assembles the generator in these coordinates as a
real dim^2 x dim^2 CSR matrix, the omega-weighted sum of two omega-free
parts that each take one sparse product for every regime and size;
column_stacked_superoperator rebuilds the complex matrix on
column-stacked states for checks that need it.

The generator is linear and time-independent, so propagation is the action
of its exponential, exp(t R) x0, computed in real arithmetic by Algorithm
3.2 of Al-Mohy and Higham (SIAM J. Sci. Comput. 33, 2011) for every
regime, omega, start state and size (_expm_action). The algorithm works on
the shifted matrix A = R - mu I, mu = tr(R) / n, and picks its Taylor
degree m and step count s from the exact 1-norm of A alone. Neither A nor
its norm depends on t (||tA||_1 is t ||A||_1), so they are computed once
per Liouvillian and reused by every step. A step whose m s, the number of
products with A, would pass _MAX_PRODUCTS is refused before the first
product is made. A time grid is a forward chain of such steps, each
starting from the state the previous one reached (see qsw.cli). Each step
pays its own Taylor series, so a chain costs more than one step to its
largest time: line:101 qsw-global at omega 0.5 makes 192 products over
t = 0, 0.5, ..., 5 against 103 for t = 5 alone.

At omega = 0 the kernel runs on state vectors, the paper's quantum walk
limit. The equation of motion is -i[H, rho], so a pure state stays pure,
rho(t) = psi(t) psi(t)^dag, and a QuantumWalk holds -i H' as a real
2 dim x 2 dim matrix on (Re psi, Im psi), with H' = H - (tr H / dim) I.
A state built pure records its amplitudes (DensityMatrix.amplitudes), and
propagate_detailed propagates those instead of the dim^2 coordinates;
the state it returns records psi(t), so a time grid stays on amplitudes.

At omega = 1 the kernel runs on the invariant block of the start state
alone: the coordinates reachable from its support along R's nonzero
pattern, which exp(tR) never leaves. This is the paper's classical limit
made visible: with edge-local operators a vertex start state stays on the
dim populations, where R is the classical generator, and with real
operators it stays on the dim (dim + 1) / 2 real coordinates. A generator
with a coherent part (omega < 1) is not searched: on every graph measured
its start states reached every coordinate, and the search alone would
cost up to a quarter of the kernel.

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
from functools import cached_property

import numpy as np
import scipy.sparse

from .graph import _check_indices, _require_finite, _square_matrix
from .operators import Hamiltonian, JumpOperatorSet, _require_same_dim, empty_jump_operators

TRACE_BUDGET = 1e-9
HERMITICITY_BUDGET = 1e-10
EIGENVALUE_FLOOR = -1e-9
# The smallest normal float. A subnormal t has fewer significant bits, and
# so would the t-scaled norms and Taylor coefficients the kernel computes
# from it; such a t is refused rather than propagated.
MIN_POSITIVE_TIME = float(np.finfo(float).tiny)

# Parameters of Al-Mohy and Higham, "Computing the action of the matrix
# exponential, with an application to exponential integrators", SIAM J.
# Sci. Comput. 33 (2011) 488-511, at double precision: the tolerance and
# the largest Taylor degree.
_TOL = 2.0**-53
_M_MAX = 55
# theta_m: the largest ||tA||_1 / s for which the degree-m Taylor
# polynomial of exp(tA / s) meets the tolerance 2^-53. Degrees 1-30 from
# Higham and Al-Mohy, "Computing matrix functions", Acta Numerica 19
# (2010), Table A.3; degrees 35-55 from Al-Mohy and Higham (2011), Table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# The most products with A that one step of the kernel may make. The
# largest step of the benchmark workloads may make 7645 (m = 55, s = 139);
# a step past the bound would run for minutes or longer, so it is refused
# before it starts.
_MAX_PRODUCTS = 10**6


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


def _state_diagnostics(arr: np.ndarray) -> tuple[float, float, float]:
    """Trace drift, Hermiticity drift and minimum eigenvalue of a square arr."""
    trace_drift = float(abs(arr.trace() - 1.0))
    herm_drift = float(np.abs(arr - arr.conj().T).max())
    if np.isfinite(arr).all():
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
    else:
        # LAPACK fails to converge on non-finite input; the drifts already show it.
        min_eig = float("nan")
    return trace_drift, herm_drift, min_eig


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    Invariants are enforced at construction: Hermiticity within herm_tol,
    trace within trace_tol of 1, minimum eigenvalue at least eig_floor.
    The defaults suit exactly-constructed states; the propagator builds
    its outputs with the (looser) solver budgets.

    amplitudes is a read-only state vector psi with entries psi psi^dag,
    recorded for a state built pure: by basis, by pure, or by propagation
    with a QuantumWalk. Every other state has None, even one whose entries
    happen to be pure; the record is never derived from the entries.
    """

    __slots__ = ("entries", "amplitudes")

    def __init__(self, entries, *, herm_tol: float = 1e-12, trace_tol: float = 1e-12, eig_floor: float = -1e-9):
        arr = _square_matrix("density matrix", entries, complex)
        trace_dev, herm_dev, min_eig = _state_diagnostics(arr)
        if herm_dev > herm_tol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e} > {herm_tol:.1e}")
        if trace_dev > trace_tol:
            raise ValueError(f"trace deviates from 1 by {trace_dev:.3e} > {trace_tol:.1e}")
        if min_eig < eig_floor:
            raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e} < {eig_floor:.1e}")
        self.entries = arr
        self.amplitudes = None

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def _prechecked(cls, arr: np.ndarray, amplitudes: np.ndarray | None = None) -> "DensityMatrix":
        """Wrap arr, and the amplitudes that give it if any, without copying or checking; the caller has checked both."""
        state = cls.__new__(cls)
        arr.setflags(write=False)
        state.entries = arr
        state.amplitudes = None
        return state if amplitudes is None else state._record(amplitudes)

    def _record(self, psi: np.ndarray) -> "DensityMatrix":
        """Record psi, which the caller has checked gives this state's entries, as its amplitudes."""
        psi.setflags(write=False)
        self.amplitudes = psi
        return self

    @classmethod
    def basis(cls, dim: int, index: int) -> "DensityMatrix":
        """The pure state concentrated on one basis vertex."""
        (index,) = _check_indices(range(dim), vertex=index)
        arr = np.zeros((dim, dim), dtype=complex)
        arr[index, index] = 1.0
        psi = np.zeros(dim, dtype=complex)
        psi[index] = 1.0
        return cls(arr)._record(psi)

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Outer product of a state vector, which must be normalized to 1e-10."""
        psi = np.asarray(amplitudes, dtype=complex).ravel()
        _require_finite("amplitude", psi)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {norm} is not 1 within 1e-10")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))._record(psi)

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
    """The generator as a real CSR matrix on the coordinates of coordinate_basis.

    column_stacked_superoperator rebuilds the complex form from it. The
    propagation kernel's t-independent set-up is made on the first
    propagation and kept with the Liouvillian for every later one.
    dissipative_only marks the dissipative part R_D alone, as
    build_liouvillian makes it at omega = 1; only such a generator is
    searched for the invariant block a start state reaches, and that
    block too is kept for every later propagation. The block is exact for
    any generator; the mark only says where the search is worth its cost.
    """

    dim: int
    matrix: object
    dissipative_only: bool = False

    def __post_init__(self):
        _require_real_csr(self.matrix, self.dim * self.dim, f"a Liouvillian of dim {self.dim}")

    @cached_property
    def _shifted(self) -> "_ShiftedGenerator":
        return _ShiftedGenerator(self.matrix)

    @cached_property
    def _blocks(self) -> list:
        """The reached sets searched so far: (member mask, _InvariantBlock, or None where every coordinate is reached)."""
        return []

    def _block(self, support: np.ndarray) -> "_InvariantBlock | None":
        """The invariant block of the coordinates reachable from support; None if that is every coordinate.

        A reached set is closed under R, so it also holds every support
        that a state starting in it reaches: the set found for the first
        step of a time grid serves every later step without a search.
        """
        for member, block in self._blocks:
            if member[support].all():
                return block
        member = _reached(self.matrix, support)
        index = np.flatnonzero(member)
        block = None if index.size == member.size else _InvariantBlock(index, self.matrix[index][:, index])
        self._blocks.append((member, block))
        return block


def _require_real_csr(m, n: int, owner: str) -> None:
    """A matrix of another shape or kind would fail deep in the kernel, or pass as a budget violation."""
    if not (scipy.sparse.issparse(m) and m.format == "csr" and m.dtype == np.float64 and m.shape == (n, n)):
        found = f"{type(m).__name__} of dtype {getattr(m, 'dtype', None)} and shape {np.shape(m)}"
        raise ValueError(f"{owner} needs a float64 CSR matrix of shape ({n}, {n}), got {found}")


@dataclass(frozen=True)
class QuantumWalk:
    """The omega = 0 generator on state vectors: -i H' as a real CSR matrix on (Re psi, Im psi).

    At omega = 0 the equation of motion is -i[H, rho], and a pure state
    stays pure: rho(t) = psi(t) psi(t)^dag with psi(t) = exp(-iHt) psi(0).
    The matrix is [[Im H', Re H'], [-Re H', Im H']], 2 dim x 2 dim, for
    H' = H - (tr H / dim) I. The shift multiplies psi(t) by a global phase,
    which psi psi^dag drops, and it lowers the 1-norm that sizes the
    kernel's steps. propagate_detailed runs the kernel on the amplitudes
    a state records (DensityMatrix.amplitudes), not on its dim^2 coordinates.
    """

    dim: int
    matrix: object

    def __post_init__(self):
        _require_real_csr(self.matrix, 2 * self.dim, f"a QuantumWalk of dim {self.dim}")

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian) -> "QuantumWalk":
        shifted = h.entries.copy()
        shifted[np.diag_indices(h.dim)] -= shifted.trace().real / h.dim
        re, im = shifted.real, shifted.imag
        return cls(h.dim, scipy.sparse.csr_matrix(np.block([[im, re], [-re, im]])))

    @cached_property
    def _shifted(self) -> "_ShiftedGenerator":
        return _ShiftedGenerator(self.matrix)


@dataclass(frozen=True)
class _InvariantBlock:
    """The principal submatrix of a generator R on a coordinate set that R never leaves, and that set.

    No column of R in the set has a nonzero row outside it, so exp(tR)
    maps a vector supported on the set to one supported on it, where it
    equals exp(t R_BB) applied to the vector's entries in the set. The
    block has its own shift and 1-norm (_ShiftedGenerator), so the kernel
    sizes its steps from R_BB alone.
    """

    index: np.ndarray
    matrix: object

    @cached_property
    def _shifted(self) -> "_ShiftedGenerator":
        return _ShiftedGenerator(self.matrix)


def _reached(matrix: scipy.sparse.csr_matrix, support: np.ndarray) -> np.ndarray:
    """A mask of the coordinates reachable from support along the nonzero pattern of R.

    A forward search over the columns of R, one level per pass: the rows
    of the frontier's columns that are not yet reached form the next
    frontier. The set it returns contains support and is closed under R.
    """
    csc = matrix.tocsc()
    indptr, indices = csc.indptr, csc.indices
    member = np.zeros(matrix.shape[0], dtype=bool)
    member[support] = True
    frontier = support
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # The positions of every entry in the frontier's columns, one column after another.
        ends = np.cumsum(counts)
        rows = indices[np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)]
        frontier = np.unique(rows[~member[rows]])
        member[frontier] = True
    return member


@dataclass(frozen=True)
class PropagationInfo:
    """How a state was propagated; steps counts the sparse matrix-vector products the kernel made."""

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


def _require_omega(omega: float) -> None:
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")


def lindblad_rhs(h: Hamiltonian, ls: JumpOperatorSet, omega: float, rho) -> np.ndarray:
    """d(rho)/dt evaluated directly on matrices, no vectorization involved."""
    _require_omega(omega)
    _require_same_dim(h, ls)
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
    dropped. In the coordinates of coordinate_basis rho[b, beta] is x_bb on
    the diagonal and (x_re +- i x_im) / sqrt(2) off it, + above the
    diagonal and - below. So a column and its conjugate act through their
    sum on the real coordinate and their difference, upper minus lower, on
    the imaginary one. They share the pair index min(b, beta) + dim *
    max(b, beta), and the CSR constructor sums entries that share a
    position: built once it gives the sums, and built again at the same
    positions with the lower entries negated it gives the differences,
    entry for entry. A sum has at most two addends, so its value does not
    depend on the constructor's order. Real parts go to the row's real
    coordinate and imaginary parts to its imaginary one, scaled by sqrt(2)
    off the diagonal; a diagonal row has no imaginary coordinate.
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
    row, col = a + dim * alpha, np.minimum(b, beta) + dim * np.maximum(b, beta)
    total = scipy.sparse.csr_matrix((c, (row, col)), shape=(n2, n2)).tocoo()
    c[b > beta] *= -1.0
    signed = scipy.sparse.csr_matrix((c, (row, col)), shape=(n2, n2)).data
    del a, b, alpha, beta, c
    row, col, total = total.row, total.col, total.data
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


def _assemble(gen: scipy.sparse.spmatrix, ls: JumpOperatorSet) -> scipy.sparse.csr_matrix:
    """The real-coordinate matrix of rho -> G rho + rho G^dag + sum_k L_k rho L_k^dag.

    Under column stacking, X rho Y becomes kron(Y.T, X) acting on vec(rho),
    so the complex matrix is

        L = kron(I, G) + kron(conj(G), I) + R(V V^dag),

    where column k of V is L_k flattened row-major (entry (a, b) at index
    a * dim + b), one column for each operator of ls (none for the empty set),
    and the realignment R moves entry ((a, b), (alpha, beta)) to
    (a + dim * alpha, b + dim * beta). As R(vec(G) vec(I)^dag) is
    kron(I, G) and R(vec(I) vec(G)^dag) is kron(conj(G), I), all three
    terms come out of one sparse product

        L = R([V, vec(G), vec(I)] [V, vec(I), vec(G)]^dag),

    which sums coinciding entries as it goes. The realignment also moves
    each entry into the real coordinates (see _realign), so the complex
    matrix is never stored: the real matrix is R = T^dag L T for the
    unitary T of coordinate_basis.
    """
    dim = gen.shape[0]
    gen = gen.tocoo()
    count = ls.count
    g_col, i_col = count, count + 1
    rows = np.concatenate([ls.rows * dim + ls.cols, gen.row.astype(np.intp) * dim + gen.col, np.arange(dim) * (dim + 1)])
    cols = np.concatenate([ls.number, np.full(gen.nnz, g_col), np.full(dim, i_col)])
    values = np.concatenate([ls.values, gen.data, np.ones(dim)])
    # vec(G) and vec(I) trade columns between the factors; the jump columns keep theirs.
    swapped = np.where(cols < count, cols, g_col + i_col - cols)
    shape = (dim * dim, count + 2)
    left = scipy.sparse.csr_matrix((values, (rows, cols)), shape=shape)
    # The right factor is built already conjugated and transposed.
    right_dag = scipy.sparse.csr_matrix((values.conj(), (swapped, rows)), shape=shape[::-1])
    return _realign(left, right_dag, dim)


def combine_parts(coherent: Liouvillian | None, dissipative: Liouvillian | None, omega: float) -> Liouvillian:
    """The generator at omega, (1 - omega) R_QW + omega R_D, from its two omega-free parts.

    coherent is R_QW and dissipative is R_D, as build_liouvillian returns
    them at omega = 0 and omega = 1. At either end the one part with
    nonzero weight is returned itself, and the other may be None.
    """
    _require_omega(omega)
    if omega == 0.0:
        return coherent
    if omega == 1.0:
        return dissipative
    return Liouvillian(coherent.dim, (1.0 - omega) * coherent.matrix + omega * dissipative.matrix)


def build_liouvillian(h: Hamiltonian, ls: JumpOperatorSet, omega: float) -> Liouvillian:
    """Assemble the interpolated generator as a real CSR matrix in the coordinates of coordinate_basis.

    The generator is affine in omega, R(omega) = (1 - omega) R_QW +
    omega R_D. Its two parts are assembled without omega by one sparse
    product each (see _assemble): the quantum walk R_QW, the commutator
    -i[H, .], from G = -i H and no jump operators, and the dissipator R_D
    from G = -K / 2, K = sum_k L_k^dag L_k, and every operator of ls.
    combine_parts weighs them; a part of zero weight is never built. Every
    regime and every size takes this one path.
    """
    _require_omega(omega)
    _require_same_dim(h, ls)
    dim = h.dim
    coherent = dissipative = None
    if omega < 1.0:
        coherent = Liouvillian(dim, _assemble(scipy.sparse.csr_matrix(h.entries) * -1j, empty_jump_operators(dim)))
    if omega > 0.0:
        dissipative = Liouvillian(dim, _assemble(-0.5 * ls.sparse_overlap_sum(), ls), dissipative_only=True)
    return combine_parts(coherent, dissipative, omega)


def _check_budgets(arr: np.ndarray, context: str) -> tuple[float, float, float]:
    trace_drift, herm_drift, min_eig = _state_diagnostics(arr)
    # Written so that a nan drift is a violation.
    if not (trace_drift <= TRACE_BUDGET and herm_drift <= HERMITICITY_BUDGET and min_eig >= EIGENVALUE_FLOOR):
        raise StateInvariantError(context, trace_drift, herm_drift, min_eig)
    return trace_drift, herm_drift, min_eig


class _ShiftedGenerator:
    """A = R - mu I for a real CSR generator R and mu = tr(R) / n, with the exact 1-norm that sizes exp(tA).

    Nothing here depends on t, so it is computed once per Liouvillian. A
    Hamiltonian generator has mu = 0, and A is then R itself.
    """

    def __init__(self, matrix: scipy.sparse.csr_matrix):
        n = matrix.shape[0]
        self.mu = float(matrix.trace()) / n
        self.matrix = matrix - self.mu * scipy.sparse.identity(n, format="csr") if self.mu else matrix
        self.onenorm = float(np.bincount(self.matrix.indices, weights=np.abs(self.matrix.data), minlength=n).max())


def _taylor_parameters(gen: _ShiftedGenerator, t: float) -> tuple[int, int]:
    """Taylor degree m and step count s for exp(tA), from the exact 1-norm of A.

    s = ceil(t ||A||_1 / theta_m) steps of degree m meet the tolerance, as
    ||A^p||_1^(1/p) <= ||A||_1 bounds the tail of every series (Al-Mohy
    and Higham (2011), equation (3.11)). The pair minimizes the cost m s,
    the number of products with A; ties go to the lowest m. A step that
    would make more than _MAX_PRODUCTS products is refused.
    """
    norm = t * gen.onenorm
    if norm == 0.0:
        return 0, 1
    # m / theta_m is least at m = 55, so every degree needs at least this
    # many products. Written so that an inf or nan count is refused.
    products = norm * _M_MAX / _THETA[_M_MAX]
    if not products <= _MAX_PRODUCTS:
        raise ValueError(
            f"t = {t!r} is too long for one step of exp(tA): it needs at least {products:.3g} products with A, "
            f"with ||A||_1 = {gen.onenorm!r}, and the bound is {_MAX_PRODUCTS}"
        )
    m, s = min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()), key=lambda ms: ms[0] * ms[1])
    return m, max(s, 1)


def _inf_norm(v: np.ndarray) -> float:
    return max(v.max(), -v.min())


def _expm_action(liouvillian: Liouvillian, x: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """exp(t R) x for the real generator R of liouvillian, and the number of products with A made.

    liouvillian is a Liouvillian, or the _InvariantBlock of one, whose R
    is the principal submatrix on the block and x the block's entries, or
    a QuantumWalk, whose R acts on the real and imaginary parts of a state
    vector.

    Algorithm 3.2 of Al-Mohy and Higham (2011): with A = R - mu I,
    exp(tR) x = (e^(t mu / s) T_m(tA / s))^s x, where T_m is the degree-m
    Taylor polynomial, summed term by term and cut short once two
    successive terms are below the tolerance relative to the sum. A and
    its norm are made once per Liouvillian; each term scales its vector
    in place, and no matrix is copied per step.
    """
    gen = liouvillian._shifted
    m, s = _taylor_parameters(gen, t)
    eta = math.exp(t * gen.mu / s)
    f = np.array(x, dtype=float)
    matvecs = 0
    for _ in range(s):
        b = f
        c1 = f_norm = _inf_norm(f)
        for j in range(m):
            b = gen.matrix @ b
            matvecs += 1
            # Two roundings per entry rather than one shared rounded
            # coefficient, whose error would repeat in each of the s steps.
            b *= t
            b /= s * (j + 1)
            c2 = _inf_norm(b)
            f += b
            # ||f||_inf is at most the old norm plus c2; the exact norm is
            # needed only when that bound lets the test pass.
            f_norm += c2
            if c1 + c2 <= _TOL * f_norm:
                f_norm = _inf_norm(f)
                if c1 + c2 <= _TOL * f_norm:
                    break
            c1 = c2
        f *= eta
    return f, matvecs


def propagate_detailed(
    rho0: DensityMatrix, liouvillian: Liouvillian | QuantumWalk, t: float
) -> tuple[DensityMatrix, PropagationInfo]:
    """Evolve rho0 for time t by the action of exp(t L); report diagnostics.

    A zero t returns rho0 itself, with method "identity" and 0 steps.
    Otherwise rho0 is mapped to its real coordinates (to_coordinates),
    _expm_action computes exp(t R) on them in float64, and the result is
    mapped back to a complex state, Hermitian by construction. For a
    dissipative_only generator the kernel runs on the invariant block of
    rho0's coordinates (Liouvillian._block), if that is not every
    coordinate, and the result is scattered back into all of them. For a
    QuantumWalk the kernel runs on (Re psi, Im psi) of rho0's amplitudes
    psi, and the state returned is psi(t) psi(t)^dag, with psi(t) as its
    amplitudes; a state that records no amplitudes is refused. The info's
    steps is the number of sparse matrix-vector products the kernel made.
    The call is deterministic and draws no random numbers.

    The final state must stay within the trace, Hermiticity and positivity
    budgets or the call raises StateInvariantError rather than returning a
    repaired state.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if 0 < t < MIN_POSITIVE_TIME:
        raise ValueError(f"t must be 0 or at least {MIN_POSITIVE_TIME}, got {t}")
    if rho0.dim != liouvillian.dim:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {liouvillian.dim}")
    on_amplitudes = isinstance(liouvillian, QuantumWalk)
    if on_amplitudes and rho0.amplitudes is None:
        raise ValueError(
            "a QuantumWalk propagates state vectors, and this state records no amplitudes: "
            "build it with DensityMatrix.basis or DensityMatrix.pure, or propagate it with the Liouvillian at omega = 0"
        )

    if t == 0:
        info = PropagationInfo("identity", 0, *_state_diagnostics(rho0.entries))
        return rho0, info

    dim, psi = liouvillian.dim, None
    if on_amplitudes:
        psi = rho0.amplitudes
        x, matvecs = _expm_action(liouvillian, np.concatenate([psi.real, psi.imag]), t)
        psi = x[:dim] + 1j * x[dim:]
        arr = np.outer(psi, psi.conj())
    else:
        coords = to_coordinates(rho0.entries)
        block = liouvillian._block(np.flatnonzero(coords)) if liouvillian.dissipative_only else None
        if block is None:
            coords, matvecs = _expm_action(liouvillian, coords, t)
        else:
            inside, matvecs = _expm_action(block, coords[block.index], t)
            coords = np.zeros_like(coords)
            coords[block.index] = inside
        arr = from_coordinates(coords, dim)
    # The budgets are the DensityMatrix checks at the solver tolerances, so
    # the state is checked once, here.
    trace_drift, herm_drift, min_eig = _check_budgets(arr, f"state propagated by t={t} violated budgets")
    return DensityMatrix._prechecked(arr, psi), PropagationInfo("matrix-exponential", matvecs, trace_drift, herm_drift, min_eig)


def propagate(rho0: DensityMatrix, liouvillian: Liouvillian | QuantumWalk, t: float) -> DensityMatrix:
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
