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
largest time: line:101 qsw-global at omega 0.5 makes 200 products over
t = 0, 0.5, ..., 5 against 108 for t = 5 alone.

Four generators hand the kernel a real vector, each through its _route:
a _ShiftedGenerator, the real vector the start state maps to, and the map
from the result back to a state in one form, so propagate_detailed takes
one path for every generator, and each reads the form it writes: a
Liouvillian the dim^2 coordinates of the start state's entries, a
QuantumWalk its dim amplitudes, a ClassicalWalk its dim populations, and
an EigenbasisWalk the coherences of the start state in H's eigenbasis,
mapped back to entries.

At omega = 0 the route runs on state vectors, the paper's quantum walk
limit. The equation of motion is -i[H, rho], so a pure state stays pure,
rho(t) = psi(t) psi(t)^dag, and a QuantumWalk holds -i H' as a real
2 dim x 2 dim matrix on (Re psi, Im psi), with H' = H - (tr H / dim) I.
A state built pure records its amplitudes (DensityMatrix.amplitudes), and
the walk's route takes those instead of the dim^2 coordinates; the state
it maps back records psi(t), so a time grid stays on amplitudes.

At omega = 1 the route runs on populations, the paper's classical random
walk limit, for every set whose operators each have at most one nonzero
per row and per column (edge-local operators, the empty set, and such
custom sets). Such a set maps a diagonal state to a diagonal state, and
K = sum_k L_k^dag L_k is diagonal, so the dim populations are closed
under R_D. A ClassicalWalk holds R_D on them, the rate matrix W, built
from the jump triplets alone, K's diagonal included, in O(nnz) and with
no dim^2 matrix: W equals R_D's principal submatrix on the populations
bit for bit. A state
built diagonal records its populations (DensityMatrix.populations), and
the walk's route takes those; the state it maps back records p(t).

For a set of one jump operator equal to H (qsw-global with its full
operator, or a custom set that spells out H), the dissipator is
-1/2 [H, [H, rho]], and in H's eigenbasis every entry of the state moves
alone: the populations there stay put, and the coherence of eigenvalues
lambda_i and lambda_j rotates at (1 - omega) Delta and decays at
(omega / 2) Delta^2, Delta = lambda_i - lambda_j. An EigenbasisWalk,
made once per command from eigh(H), hands the kernel one 2 x 2 block per
coherence that moves, so no dim^2 x dim^2 matrix is assembled or
searched at any omega in (0, 1]. Its products with the eigenvectors are
summed by np.einsum, which calls no BLAS, so its states do not depend on
the BLAS thread count; eigh's eigenvectors still do at large dim.

A Liouvillian at omega = 1 (dissipative_only) runs on the invariant block
of the start state alone: the coordinates reachable from its support
along R's nonzero pattern, which exp(tR) never leaves, and maps back to
entries. With real operators a vertex start state stays on the
dim (dim + 1) / 2 real coordinates. A generator with a coherent part
(omega < 1) is not searched: on every graph measured its start states
reached every coordinate, and the search alone would cost up to a
quarter of the kernel.

Propagation never renormalizes. If a propagated state drifts past the
trace, Hermiticity or positivity budgets the solver raises
StateInvariantError with the measured drifts, because silent repair would
hide defects in the generator it was handed. Each state is checked in the
form its route made, whose spectrum the form fixes: psi psi^dag has the
eigenvalues ||psi||^2 and 0, and diag(p) the eigenvalues p, and both are
Hermitian by construction. So neither builds its dim x dim entries or
calls LAPACK; only a state mapped back from coordinates is checked on its
entries, with eigvalsh. Its Hermiticity drift reads 0 too, as from_coordinates
builds a Hermitian matrix, and so does the EigenbasisWalk's map back, and
the check stays, as it costs one pass. A
state with a non-finite value in its form violates every budget, and its
drifts read nan.

The coordinate routes are bounded before they are built: _assemble
refuses a product of more than _MAX_BUILD_ENTRIES entries with a
ValueError, before it allocates anything of that size, and
EigenbasisWalk.from_hamiltonian refuses a dim past _MAX_EIGENBASIS_DIM
before eigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
# largest step of the benchmark workloads may make 6655 (m = 55, s = 121,
# the eigenbasis walk of line:61 qsw-global at omega 1 and t = 200);
# a step past the bound would run for minutes or longer, so it is refused
# before it starts.
_MAX_PRODUCTS = 10**6
# The most entries the sparse product of one _assemble may form before it
# sums them: sum_k nnz(L_k)^2 for the jump part and 2 dim nnz(G) for G and
# its conjugate. A build's tracemalloc peak measured 29-40 bytes per such
# entry (29 for R_D of line:201 qsw-global, whose 762799 entries peak at
# 22.4 MB; 40 for R_QW of line:201), so the bound caps a build's peak near
# 1 GB. The largest build of the benchmark workloads, R_QW of the seeded
# 48-vertex crw sweep, forms 23040 entries.
_MAX_BUILD_ENTRIES = 25 * 10**6
# The largest dim the EigenbasisWalk decomposes. Its route holds dim^2
# coordinates and the dim x dim eigenvectors, entries and products, and a
# qsw-global command on it peaked at 201 bytes per dim^2 under tracemalloc
# (8.2 MB at line:201, 129 MB at line:801, the graph's dense layer
# included), so the bound caps a command near 1 GB. Its eigh and products
# take O(dim^3) time.
_MAX_EIGENBASIS_DIM = 2200


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


# The diagnostics of a state with a non-finite value in its form: inf - inf
# and inf * conj(inf) are nan and warn, and LAPACK fails to converge on such
# input, so none is computed, and a nan drift violates every budget.
_NON_FINITE = (float("nan"),) * 3


def _state_diagnostics(arr: np.ndarray) -> tuple[float, float, float]:
    """Trace drift, Hermiticity drift and minimum eigenvalue of a square arr; all nan if an entry is not finite."""
    if not np.isfinite(arr).all():
        return _NON_FINITE
    trace_drift = float(abs(arr.trace() - 1.0))
    herm_drift = float(np.abs(arr - arr.conj().T).max())
    min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
    return trace_drift, herm_drift, min_eig


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    Invariants are enforced at construction: Hermiticity within herm_tol,
    trace within trace_tol of 1, minimum eigenvalue at least eig_floor.
    The defaults suit exactly-constructed states; the propagator checks
    its outputs against the (looser) solver budgets.

    A state records the form its maker knew, and every check and readout
    reads that form:
      - amplitudes, a read-only state vector psi with entries psi psi^dag,
        for a state built pure: by basis, by pure, or by propagation with
        a QuantumWalk;
      - populations, a read-only probability vector p with entries
        diag(p), for a state built diagonal: by basis, by from_populations,
        or by propagation with a ClassicalWalk.
    A basis state records both. A state built from its entries, or mapped
    back from coordinates, records neither (both are None), even one whose
    entries happen to be pure or diagonal; a form is never derived from
    the entries. entries, the read-only dim x dim matrix, is built from the
    form on first read and kept.
    """

    __slots__ = ("_entries", "amplitudes", "populations")

    def __init__(self, entries, *, herm_tol: float = 1e-12, trace_tol: float = 1e-12, eig_floor: float = -1e-9):
        arr = _square_matrix("density matrix", entries, complex)
        trace_dev, herm_dev, min_eig = _state_diagnostics(arr)
        if herm_dev > herm_tol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e} > {herm_tol:.1e}")
        if trace_dev > trace_tol:
            raise ValueError(f"trace deviates from 1 by {trace_dev:.3e} > {trace_tol:.1e}")
        if min_eig < eig_floor:
            raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e} < {eig_floor:.1e}")
        self._entries = arr
        self.amplitudes = self.populations = None

    @property
    def entries(self) -> np.ndarray:
        """The read-only dim x dim matrix, built from the recorded form on first read and kept."""
        if self._entries is None:
            if self.populations is not None:
                arr = np.diag(self.populations).astype(complex)
            else:
                arr = np.outer(self.amplitudes, self.amplitudes.conj())
            arr.setflags(write=False)
            self._entries = arr
        return self._entries

    @property
    def dim(self) -> int:
        return next(form for form in (self.populations, self.amplitudes, self._entries) if form is not None).shape[0]

    @classmethod
    def _unchecked(cls, entries=None, *, amplitudes=None, populations=None) -> "DensityMatrix":
        """A state of the forms given, made read-only but neither copied nor checked; the caller checks it."""
        state = cls.__new__(cls)
        for form in (entries, amplitudes, populations):
            if form is not None:
                form.setflags(write=False)
        state._entries, state.amplitudes, state.populations = entries, amplitudes, populations
        return state

    @classmethod
    def basis(cls, dim: int, index: int) -> "DensityMatrix":
        """The pure state concentrated on one basis vertex, recorded as amplitudes and populations; a one-hot vector needs no check."""
        (index,) = _check_indices(range(dim), vertex=index)
        p = np.zeros(dim)
        p[index] = 1.0
        return cls._unchecked(amplitudes=p.astype(complex), populations=p)

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Outer product of a state vector, which must be normalized to 1e-10; divided by its norm, it drifts by ulps and needs no re-check."""
        psi = np.asarray(amplitudes, dtype=complex).ravel()
        _require_finite("amplitude", psi)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {norm} is not 1 within 1e-10")
        return cls._unchecked(amplitudes=psi / norm)

    @classmethod
    def from_populations(cls, p) -> "DensityMatrix":
        """Diagonal state from a probability vector (sum within 1e-9 of 1); divided by its sum, it drifts by ulps and needs no re-check."""
        vec = np.asarray(p, dtype=float).ravel()
        if vec.size == 0:
            raise ValueError("empty probability vector")
        _require_finite("probability", vec)
        if vec.min() < -1e-12:
            raise ValueError(f"negative probability {vec.min()}")
        total = vec.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1 within 1e-9")
        return cls._unchecked(populations=vec / total)


def _diagnostics(rho) -> tuple[float, float, float]:
    """Trace drift, Hermiticity drift and minimum eigenvalue of a state, read from the form it records, or of a square array.

    diag(p) has the eigenvalues p, and psi psi^dag has ||psi||^2 and, at
    dim above 1, 0; both are Hermitian by construction. Each trace is summed
    in complex order, as arr.trace() sums the entries, so the drift is the
    one the entries give bit for bit. A nan or inf in a form gives nan drifts.
    """
    p, psi = _forms(rho)
    form = p if p is not None else psi
    if form is None:
        return _state_diagnostics(_state_entries(rho))
    if not np.isfinite(form).all():
        return _NON_FINITE
    if p is not None:
        return float(abs(p.astype(complex).sum() - 1.0)), 0.0, float(p.min())
    norm2 = (psi * psi.conj()).sum()
    return float(abs(norm2 - 1.0)), 0.0, float(norm2.real) if psi.size == 1 else 0.0


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
    It reads every start state from its entries and maps back to entries;
    a set that keeps populations closed propagates them with a ClassicalWalk,
    and a set of one operator equal to H with an EigenbasisWalk.
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
        """The reached sets searched so far: (member mask, (index of the block, its _ShiftedGenerator)), with (slice(None), None) for every coordinate."""
        return []

    def _route(self, rho0: DensityMatrix):
        """The route's name, the kernel's _ShiftedGenerator, rho0's vector on it, and the map from the kernel's result back to an unchecked state.

        The vector is the real coordinates of rho0's entries, whatever form
        it records (diag(p) gives those of p bit for bit); for a
        dissipative_only generator, only those in the invariant block that
        rho0's support reaches. No column of R
        in the block has a nonzero row outside it, so exp(tR) keeps the
        vector there and equals exp(t R_BB) on its entries, with R_BB's own
        shift and 1-norm. A reached set is closed under R, so the set found
        for the first step of a time grid serves every later step without a
        search. Every route maps back to the entries.
        """
        n = self.dim
        coords = to_coordinates(rho0.entries)
        index, gen = slice(None), None
        if self.dissipative_only:
            support = np.flatnonzero(coords)
            found = [block for member, block in self._blocks if member[support].all()]
            if found:
                index, gen = found[0]
            else:
                member = _reached(self.matrix, support)
                if not member.all():
                    index = np.flatnonzero(member)
                    gen = _ShiftedGenerator(self.matrix[index][:, index])
                self._blocks.append((member, (index, gen)))

        def back(x: np.ndarray) -> DensityMatrix:
            full = np.zeros(n * n)
            full[index] = x
            return DensityMatrix._unchecked(from_coordinates(full, n))

        # The whole matrix is shifted only when the kernel runs on all of it.
        if gen is None:
            return "coordinates", self._shifted, coords, back
        return "invariant-block", gen, coords[index], back


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
    kernel's steps. Its _route hands the kernel the amplitudes a state
    records (DensityMatrix.amplitudes), not the state's dim^2 coordinates.
    """

    dim: int
    matrix: object

    def __post_init__(self):
        _require_real_csr(self.matrix, 2 * self.dim, f"a QuantumWalk of dim {self.dim}")

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian) -> "QuantumWalk":
        shifted = h.entries.copy()
        shifted[np.diag_indices(h.dim)] -= shifted.trace().real / h.dim
        shifted = scipy.sparse.csr_matrix(shifted)
        re, im = shifted.real, shifted.imag
        re.eliminate_zeros()
        im.eliminate_zeros()
        return cls(h.dim, scipy.sparse.bmat([[im, re], [-re, im]], format="csr"))

    @cached_property
    def _shifted(self) -> "_ShiftedGenerator":
        return _ShiftedGenerator(self.matrix)

    def _route(self, rho0: DensityMatrix):
        """The route's name, the kernel's _ShiftedGenerator, (Re psi, Im psi) of rho0's amplitudes psi, and the map back to an unchecked state of amplitudes psi(t)."""
        psi = rho0.amplitudes
        if psi is None:
            raise ValueError(
                "a QuantumWalk propagates state vectors, and this state records no amplitudes: "
                "build it with DensityMatrix.basis or DensityMatrix.pure, or propagate it with the Liouvillian at omega = 0"
            )

        def back(x: np.ndarray) -> DensityMatrix:
            return DensityMatrix._unchecked(amplitudes=x[: self.dim] + 1j * x[self.dim :])

        return "amplitudes", self._shifted, np.concatenate([psi.real, psi.imag]), back


def _shared_line(ls: JumpOperatorSet) -> tuple[int, str, int] | None:
    """The first (operator, "row" or "column", index) where an operator of ls has two nonzeros, or None if none has."""
    for name, index in (("row", ls.rows), ("column", ls.cols)):
        _, first, counts = np.unique(ls.number * ls.dim + index, return_index=True, return_counts=True)
        if (counts > 1).any():
            j = first[np.argmax(counts > 1)]
            return int(ls.number[j]), name, int(index[j])
    return None


@dataclass(frozen=True)
class ClassicalWalk:
    """The omega = 1 generator on populations: the rate matrix W as a real CSR matrix.

    For a set whose operators each have at most one nonzero per row and
    per column, L_k diag(p) L_k^dag is diagonal and so is K, so R_D maps
    populations to populations: dp_a/dt = sum_b W[a, b] p_b with
    W[a, b] = sum_k |L_k[a, b]|^2 off the diagonal and
    W[b, b] = sum_k |L_k[b, b]|^2 - K[b, b]. This is the paper's classical
    random walk; with edge-local operators W is the classical generator.
    Its _route hands the kernel the populations a state records
    (DensityMatrix.populations), not the state's dim^2 coordinates.
    """

    dim: int
    matrix: object

    def __post_init__(self):
        _require_real_csr(self.matrix, self.dim, f"a ClassicalWalk of dim {self.dim}")

    @staticmethod
    def applies_to(ls: JumpOperatorSet) -> bool:
        """Whether every operator of ls has at most one nonzero per row and per column, so that it keeps populations closed."""
        return _shared_line(ls) is None

    @classmethod
    def from_jump_operators(cls, ls: JumpOperatorSet) -> "ClassicalWalk":
        """W from the triplets of ls alone, equal to R_D's block on the populations bit for bit.

        R_D (see _assemble) sums each population entry of its product in
        column order: the jump operators in operator order, then G, then
        G's conjugate, with G = -K / 2. So W[a, b] sums |L_k[a, b]|^2 in
        operator order, the order of the triplets, and the diagonal then
        adds G[b, b] twice, one addition after the other. K[b, b] sums
        |L_k[a, b]|^2 in (k, a) order, the order sparse_overlap_sum sums
        it in, which is again the order of the triplets. Each |v|^2 is
        Re(v conj(v)) as the sparse products form it, v.real^2 + v.imag^2
        with no fused multiply-add. Exact zeros are dropped, as R_D drops
        them. A set with two nonzeros in one row or one column of an
        operator is refused.
        """
        shared = _shared_line(ls)
        if shared is not None:
            k, name, index = shared
            raise ValueError(
                f"jump operator {k} has two nonzeros in {name} {index}, so the set does not keep populations closed: "
                "propagate it with build_liouvillian at omega = 1"
            )
        n = ls.dim
        squares = np.square(ls.values.real) + np.square(ls.values.imag)
        positions, inverse = np.unique(ls.rows * n + ls.cols, return_inverse=True)
        # bincount adds each bin's weights in the order of the triplets.
        rates = np.bincount(inverse, weights=squares, minlength=positions.size)
        rows, cols = np.divmod(positions, n)
        on_diagonal = rows == cols
        diagonal = np.zeros(n)
        diagonal[rows[on_diagonal]] = rates[on_diagonal]
        g = -0.5 * np.bincount(ls.cols, weights=squares, minlength=n)
        diagonal = diagonal + g + g
        off = ~on_diagonal
        rows = np.concatenate([rows[off], np.arange(n)])
        cols = np.concatenate([cols[off], np.arange(n)])
        matrix = scipy.sparse.csr_matrix((np.concatenate([rates[off], diagonal]), (rows, cols)), shape=(n, n))
        matrix.eliminate_zeros()
        return cls(n, matrix)

    @cached_property
    def _shifted(self) -> "_ShiftedGenerator":
        return _ShiftedGenerator(self.matrix)

    def _route(self, rho0: DensityMatrix):
        """The route's name, the kernel's _ShiftedGenerator, rho0's populations p, and the map back to an unchecked state of populations p(t)."""
        p = rho0.populations
        if p is None:
            raise ValueError(
                "a ClassicalWalk propagates populations, and this state records none: "
                "build it with DensityMatrix.basis or DensityMatrix.from_populations, or propagate it with the Liouvillian at omega = 1"
            )

        def back(x: np.ndarray) -> DensityMatrix:
            return DensityMatrix._unchecked(populations=x)

        return "populations", self._shifted, p, back


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed by np.einsum, which calls no BLAS, so its bits do not depend on the BLAS thread count."""
    return np.einsum("ij,jk->ik", a, b)


def _rotated(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ x @ right by _product; a complex x between real factors goes as its real and imaginary parts, the latter only if nonzero."""
    if np.iscomplexobj(x) and not np.iscomplexobj(left):
        real = _rotated(left, x.real, right)
        return real + 1j * _rotated(left, x.imag, right) if x.imag.any() else real.astype(complex)
    return _product(_product(left, x), right)


@dataclass(frozen=True)
class EigenbasisWalk:
    """The generator at omega of a set whose one jump operator is H, on the eigenbasis coordinates of the state.

    With L = H and H = U diag(lambda) U^dag, the dissipator is
    -1/2 [H, [H, rho]], so in H's eigenbasis every entry of
    rho~ = U^dag rho U evolves alone:

        d rho~[i, j] / dt = (-i nu - gamma) rho~[i, j],
        nu = (1 - omega) Delta, gamma = (omega / 2) Delta^2, Delta = lambda_i - lambda_j.

    The populations rho~[i, i] and every coherence with Delta = 0 stay
    put; every other coherence rotates at nu and decays at gamma. The
    kernel's matrix holds one 2 x 2 block [[-gamma, nu], [-nu, -gamma]]
    on (Re, Im) of each coherence i < j that moves. The decomposition is
    made once (from_hamiltonian) and shared by the walk at every omega
    (at), and the walk keeps the eigenbasis coordinates of the state it
    made last, so the next step of a time grid starts from them with no
    transform. Every product with U is a _product, so the route's states
    do not depend on the BLAS thread count, though eigh's eigenvectors do
    at large dim.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    omega: float

    def __post_init__(self):
        _require_omega(self.omega)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @staticmethod
    def applies_to(h: Hamiltonian, ls: JumpOperatorSet) -> bool:
        """Whether ls is one operator equal to H entry for entry."""
        if ls.count != 1 or ls.dim != h.dim:
            return False
        rows, cols = np.nonzero(h.entries)
        return (
            np.array_equal(ls.rows, rows)
            and np.array_equal(ls.cols, cols)
            and np.array_equal(ls.values, h.entries[rows, cols])
        )

    @classmethod
    def from_hamiltonian(cls, h: Hamiltonian, omega: float = 1.0) -> "EigenbasisWalk":
        """The walk at omega (the dissipator alone by default) from eigh of H, of its real part when H is real.

        A dim past _MAX_EIGENBASIS_DIM is refused before eigh allocates.
        """
        if h.dim > _MAX_EIGENBASIS_DIM:
            raise ValueError(
                f"the eigenbasis route at dim {h.dim} would hold {h.dim**2} coordinates and decompose H, "
                f"and the bound is dim {_MAX_EIGENBASIS_DIM}"
            )
        entries = h.entries.real if not h.entries.imag.any() else h.entries
        eigenvalues, eigenvectors = np.linalg.eigh(entries)
        for arr in (eigenvalues, eigenvectors):
            arr.setflags(write=False)
        return cls(eigenvalues, eigenvectors, omega)

    def at(self, omega: float) -> "EigenbasisWalk":
        """The walk at another omega, sharing this one's decomposition."""
        return EigenbasisWalk(self.eigenvalues, self.eigenvectors, omega)

    @cached_property
    def _moving(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs i < j in np.triu_indices order, and the mask of those whose coherence moves (Delta != 0)."""
        first, second = np.triu_indices(self.dim, 1)
        return first, second, self.eigenvalues[first] != self.eigenvalues[second]

    @cached_property
    def _shifted(self) -> "_ShiftedGenerator":
        """The 2 x 2 blocks of the moving coherences as a CSR matrix; a non-finite rate is refused, naming its pair."""
        first, second, moving = self._moving
        i, j = first[moving], second[moving]
        with np.errstate(over="ignore", invalid="ignore"):
            delta = self.eigenvalues[i] - self.eigenvalues[j]
            nu = (1.0 - self.omega) * delta
            gamma = 0.5 * self.omega * np.square(delta)
        bad = ~(np.isfinite(nu) & np.isfinite(gamma))
        if bad.any():
            k = np.argmax(bad)
            raise ValueError(
                f"the coherence of eigenvectors {i[k]} and {j[k]} of H has a rate that is not finite at omega = {self.omega!r}: "
                f"Delta = {float(delta[k])!r}, rotation (1 - omega) Delta = {float(nu[k])!r}, "
                f"decay (omega / 2) Delta^2 = {float(gamma[k])!r}"
            )
        if not i.size:
            # Nothing moves (dim 1, or H a multiple of I): the kernel gets one
            # zero coordinate, which it keeps, and the map back ignores.
            return _ShiftedGenerator(scipy.sparse.csr_matrix((1, 1)))
        values = np.stack([-gamma, nu, -nu, -gamma], axis=1).ravel()
        cols = (2 * np.arange(i.size)[:, None] + np.array([0, 1, 0, 1])).ravel()
        matrix = scipy.sparse.csr_matrix((values, cols, np.arange(0, 4 * i.size + 1, 2)), shape=(2 * i.size, 2 * i.size))
        matrix.eliminate_zeros()
        return _ShiftedGenerator(matrix)

    @cached_property
    def _last(self) -> list:
        """[the state this walk made last, its eigenbasis populations, its coherences over every pair i < j], or empty."""
        return []

    def _coordinates(self, rho0: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
        """The populations and the coherences over every pair i < j of U^dag rho0 U, read from the amplitudes if rho0 records them."""
        if self._last and self._last[0] is rho0:
            return self._last[1], self._last[2]
        u = self.eigenvectors
        first, second, _ = self._moving
        if rho0.amplitudes is not None:
            phi = np.einsum("ji,j->i", u.conj(), rho0.amplitudes)
            return (phi * phi.conj()).real, phi[first] * phi[second].conj()
        tilde = _rotated(u.conj().T, rho0.entries, u)
        return tilde.diagonal().real.copy(), tilde[first, second]

    def _route(self, rho0: DensityMatrix):
        """The route's name, the kernel's _ShiftedGenerator, (Re, Im) of the moving coherences of U^dag rho0 U, and the map back to entries.

        The map back fills U^dag rho(t) U from the kernel's result, the
        unmoved coherences and the populations, and rotates it back with U.
        The entries are made Hermitian as (C + C^dag) / 2, and the walk
        keeps the eigenbasis coordinates for a next step from this state.
        """
        diagonal, coherences = self._coordinates(rho0)
        first, second, moving = self._moving
        size = 2 * np.count_nonzero(moving)
        # One zero coordinate when nothing moves (see _shifted).
        x = np.zeros(max(size, 1))
        x[0:size:2], x[1:size:2] = coherences[moving].real, coherences[moving].imag
        u = self.eigenvectors

        def back(x: np.ndarray) -> DensityMatrix:
            moved = coherences.copy()
            moved[moving] = x[0:size:2] + 1j * x[1:size:2]
            tilde = np.diag(diagonal.astype(complex))
            tilde[first, second] = moved
            tilde[second, first] = moved.conj()
            entries = _rotated(u, tilde, u.conj().T)
            state = DensityMatrix._unchecked((entries + entries.conj().T) / 2.0)
            self._last[:] = [state, diagonal, moved]
            return state

        return "eigenbasis", self._shifted, x, back


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
    """How a state was propagated; steps counts the sparse matrix-vector products the kernel made.

    route names the vector the kernel ran on: amplitudes, populations,
    eigenbasis, invariant-block or coordinates, or identity for a
    zero-length step, which runs no kernel. rows is the row count of the matrix the kernel
    multiplied, 0 for identity. method, read from route, is identity or
    matrix-exponential, the one kernel every other route runs.
    """

    steps: int
    trace_drift: float
    hermiticity_drift: float
    min_eigenvalue: float
    route: str
    rows: int

    @property
    def method(self) -> str:
        return "identity" if self.route == "identity" else "matrix-exponential"


def vectorize_state(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a dim x dim matrix: entry (a, alpha) -> index a + dim * alpha."""
    return np.asarray(matrix, dtype=complex).flatten(order="F")


def unvectorize_state(vector: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vector, dtype=complex).reshape((dim, dim), order="F")


def _state_entries(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def _forms(rho) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The populations and the amplitudes rho records; None for each it does not record, and for an array."""
    if isinstance(rho, DensityMatrix):
        return rho.populations, rho.amplitudes
    return None, None


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


# Kept for the last dim: each coordinate map of a command asks for the same
# dim, and np.triu_indices costs half of to_coordinates at dim 61.
@lru_cache(maxsize=1)
def _pair_indices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-stacked indices of the diagonal pairs, the pairs a < alpha, and their transposes; read-only, as they are shared."""
    first, second = np.triu_indices(dim, 1)
    indices = np.arange(dim) * (dim + 1), first + dim * second, second + dim * first
    for arr in indices:
        arr.setflags(write=False)
    return indices


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

    A product of more than _MAX_BUILD_ENTRIES entries is refused with a
    ValueError, counted from the triplets and nnz(G) before anything of
    that size is allocated.
    """
    dim = gen.shape[0]
    entries = int(np.square(np.bincount(ls.number, minlength=ls.count)).sum()) + 2 * dim * gen.nnz
    if entries > _MAX_BUILD_ENTRIES:
        raise ValueError(
            f"the superoperator build at dim {dim} would form {entries} product entries "
            f"(sum_k nnz(L_k)^2 + 2 dim nnz(G)), and the bound is {_MAX_BUILD_ENTRIES}"
        )
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


def _check_budgets(rho, context: str) -> tuple[float, float, float]:
    """The _diagnostics of a state or square array, which must lie within the solver budgets."""
    trace_drift, herm_drift, min_eig = _diagnostics(rho)
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


def _expm_action(gen: _ShiftedGenerator, x: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """exp(t R) x for the real generator R that gen shifts, and the number of products with A made.

    R and x are what a generator's _route hands the kernel: a Liouvillian's
    coordinates or its invariant block, a QuantumWalk's (Re psi, Im psi),
    a ClassicalWalk's populations, or an EigenbasisWalk's moving coherences.

    Algorithm 3.2 of Al-Mohy and Higham (2011): with A = R - mu I,
    exp(tR) x = (e^(t mu / s) T_m(tA / s))^s x, where T_m is the degree-m
    Taylor polynomial, summed term by term and cut short once two
    successive terms are below the tolerance relative to the sum. A and
    its norm are made once per Liouvillian; each term scales its vector
    in place, and no matrix is copied per step.
    """
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
    rho0: DensityMatrix, liouvillian: Liouvillian | QuantumWalk | ClassicalWalk | EigenbasisWalk, t: float
) -> tuple[DensityMatrix, PropagationInfo]:
    """Evolve rho0 for time t by the action of exp(t L); report diagnostics.

    The generator's _route maps rho0 to the real vector the kernel
    multiplies: a Liouvillian's real coordinates of rho0 (at most its
    invariant block for a dissipative_only one), a QuantumWalk's
    (Re psi, Im psi) of rho0's amplitudes psi, a ClassicalWalk's
    populations p of rho0, or an EigenbasisWalk's coherences of rho0 in
    H's eigenbasis; the first two walks refuse a state that records no
    such form. The route is taken before the t = 0 shortcut, so that refusal
    does not depend on t. A zero t returns rho0 itself, with method and
    route "identity" and 0 steps. Otherwise _expm_action computes
    exp(t R) on the vector in float64, and the route maps the result back
    to a state in its own form: psi(t) as amplitudes, p(t) as
    populations, and coordinates and coherences as the state's entries,
    Hermitian by construction. The info's steps is the
    number of sparse matrix-vector products the kernel made, route names
    the route and rows the size of the matrix it multiplied. The call is
    deterministic and draws no random numbers.

    The final state must stay within the trace, Hermiticity and positivity
    budgets, checked in its form (see _diagnostics), or the call raises
    StateInvariantError rather than returning a repaired state.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if 0 < t < MIN_POSITIVE_TIME:
        raise ValueError(f"t must be 0 or at least {MIN_POSITIVE_TIME}, got {t}")
    if rho0.dim != liouvillian.dim:
        raise ValueError(f"state dim {rho0.dim} does not match generator dim {liouvillian.dim}")
    route, gen, x, back = liouvillian._route(rho0)

    if t == 0:
        return rho0, _identity_info(rho0)

    x, matvecs = _expm_action(gen, x, t)
    state = back(x)
    # The budgets are the DensityMatrix checks at the solver tolerances, so
    # the state is checked once, here, in the form its route made.
    diagnostics = _check_budgets(state, f"state propagated by t={t} violated budgets")
    return state, PropagationInfo(matvecs, *diagnostics, route, gen.matrix.shape[0])


def _identity_info(rho0: DensityMatrix) -> PropagationInfo:
    """The info of a zero-length step from rho0, which makes no product and returns rho0 itself."""
    return PropagationInfo(0, *_diagnostics(rho0), "identity", 0)


def propagate(rho0: DensityMatrix, liouvillian: Liouvillian | QuantumWalk | ClassicalWalk | EigenbasisWalk, t: float) -> DensityMatrix:
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
    """Diagonal of the state, read from the form it records, with tiny negatives (above -1e-9) clamped to 0.

    From amplitudes the diagonal is (psi * psi.conj()).real, bit for bit
    the diagonal of psi psi^dag. Clamping is reported, never hidden;
    anything below -1e-9 would have failed the state's own positivity
    check already.
    """
    p, psi = _forms(rho)
    if p is not None:
        raw = p.copy()
    elif psi is not None:
        raw = (psi * psi.conj()).real
    else:
        raw = np.real(np.diag(_state_entries(rho))).copy()
    clamped = tuple(int(i) for i in np.nonzero(raw < 0.0)[0])
    min_raw = float(raw.min()) if raw.size else 0.0
    raw[raw < 0.0] = 0.0
    raw.setflags(write=False)
    return PopulationReport(raw, clamped, min_raw)


def populations(rho: DensityMatrix) -> np.ndarray:
    return populations_detailed(rho).values


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of the magnitudes of all off-diagonal entries, read from the form the state records; never negative.

    It is 0 for populations, and (sum_a |psi_a|)^2 - sum_a |psi_a|^2 for
    amplitudes. The difference of sums is clamped at 0, where rounding
    would take a state without coherence below it.
    """
    p, psi = _forms(rho)
    if p is not None:
        return 0.0
    if psi is not None:
        magnitudes = np.abs(psi)
        value = magnitudes.sum() ** 2 - np.square(magnitudes).sum()
    else:
        arr = _state_entries(rho)
        value = np.abs(arr).sum() - np.abs(np.diag(arr)).sum()
    return max(float(value), 0.0)
