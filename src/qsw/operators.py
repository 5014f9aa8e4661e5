"""Hamiltonians, jump-operator sets, and the transition-rate tensor.

The walk regimes differ only in their operator content, all of it derived
from the classical generator M (a JumpOperatorSet keeps nonzeros only):

- Hamiltonian H[a, b] = M[a, b] (coherent hopping),
- edge-local jump operators, one per ordered vertex pair with a rate,
- a single global jump operator equal to M entrywise,
- the empty set (purely Hamiltonian walk).

tensor_element evaluates one element of the master equation's transition
tensor

    T[(a, alpha), (b, beta)] = delta_(alpha beta) <a|(-iH - K/2)|b>
                             + delta_(a b) <beta|(iH - K/2)|alpha>
                             + sum_k <a|L_k|b><beta|L_k^dag|alpha>

with K = sum_k L_k^dag L_k and the Hamiltonian terms applied exactly once.
axiom_rate evaluates the six closed-form rates a graph-constrained walk
generator exhibits on vertex neighborhoods. audit_axioms builds the whole
tensor by one contraction over the stacked operators, cross-checks the
axiom formulas against it on every neighborhood, checks locality with
adjacency masks, and checks the tensor against the superoperator the
evolution module builds for propagation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .graph import GeneratorMatrix, Graph, _square_matrix

EDGE_LOCAL = "edge-local"
GLOBAL = "global"
EMPTY = "empty"
CUSTOM = "custom"


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian dim x dim matrix, units 1/time (hbar = 1)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _square_matrix("Hamiltonian", self.entries, complex)
        if np.abs(arr - arr.conj().T).max() > 1e-14:
            raise ValueError("Hamiltonian must be Hermitian")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class JumpOperatorSet:
    """count jump operators with a regime tag, held as the triplets of their nonzero entries.

    Entry j is values[j] at (rows[j], cols[j]) of operator number[j]; the
    read-only arrays are sorted by (number, row, column) and hold no zeros,
    and an all-zero operator still counts. regime_tag is "edge-local",
    "global" or "empty" for the built-in constructions, or "custom".
    """

    dim: int
    count: int
    number: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    regime_tag: str

    def __post_init__(self):
        if self.dim < 1 or self.count < 0:
            raise ValueError(f"need a positive dim and a nonnegative count, got {self.dim} and {self.count}")
        if self.regime_tag not in (EDGE_LOCAL, GLOBAL, EMPTY, CUSTOM):
            raise ValueError(f"unknown regime tag {self.regime_tag!r}")
        number, rows, cols = (np.asarray(x) for x in (self.number, self.rows, self.cols))
        values = np.asarray(self.values, dtype=complex)
        integers = all(x.dtype.kind in "iu" or x.size == 0 for x in (number, rows, cols))
        if not (integers and values.ndim == 1 and number.shape == rows.shape == cols.shape == values.shape):
            found = [f"{x.dtype}{list(x.shape)}" for x in (number, rows, cols, values)]
            raise ValueError(f"need integer number, rows, cols and values, 1-d and of one length; got {found}")
        # Checked before the cast to intp, which would wrap an index of 2^63 or more to a negative one.
        outside = (number < 0) | (number >= self.count) | (rows < 0) | (rows >= self.dim) | (cols < 0) | (cols >= self.dim)
        if outside.any():
            j = np.argmax(outside)
            raise ValueError(f"jump operator {number[j]}: entry ({rows[j]}, {cols[j]}) is out of range")
        number, rows, cols = (x.astype(np.intp) for x in (number, rows, cols))
        non_finite = ~np.isfinite(values)
        if non_finite.any():
            # Every tolerance comparison is False on nan, so an audit would pass.
            j = np.argmax(non_finite)
            raise ValueError(f"jump operator {number[j]} has non-finite entries: ({rows[j]}, {cols[j]}) is {values[j]}")
        key = (number * self.dim + rows) * self.dim + cols
        _, order, repeats = np.unique(key, return_index=True, return_counts=True)
        if (repeats > 1).any():
            j = order[np.argmax(repeats > 1)]
            raise ValueError(f"jump operator {number[j]}: entry ({rows[j]}, {cols[j]}) is given twice")
        order = order[values[order] != 0]
        for name, arr in (("number", number), ("rows", rows), ("cols", cols), ("values", values)):
            object.__setattr__(self, name, arr[order])
            getattr(self, name).setflags(write=False)

    @classmethod
    def from_dense(cls, dim: int, operators, regime_tag: str) -> "JumpOperatorSet":
        """The set of the given dim x dim matrices, held as their nonzero entries."""
        ops = [np.asarray(op, dtype=complex) for op in operators]
        if any(op.shape != (dim, dim) for op in ops):
            raise ValueError(f"operators must be {dim} x {dim}, got shapes {[op.shape for op in ops]}")
        stack = np.array(ops, dtype=complex).reshape(len(ops), dim, dim)
        number, rows, cols = np.nonzero(stack)
        return cls(dim, len(ops), number, rows, cols, stack[number, rows, cols], regime_tag)

    @property
    def operators(self) -> tuple:
        """The operators as dense dim x dim matrices, built on demand for the dense routes only."""
        return tuple(self.stacked())

    def stacked(self) -> np.ndarray:
        """The operators as one (count, dim, dim) array scattered from the triplets."""
        stack = np.zeros((self.count, self.dim, self.dim), dtype=complex)
        stack[self.number, self.rows, self.cols] = self.values
        return stack

    def overlap_sum(self) -> np.ndarray:
        """K = sum_k L_k^dag L_k (zero matrix for the empty set)."""
        stack = self.stacked()
        return np.einsum("kab,kac->bc", stack.conj(), stack)


def hamiltonian_from_generator(m: GeneratorMatrix) -> Hamiltonian:
    """H with H[a, b] = M[a, b]; requires M symmetric to 1e-12."""
    a = m.entries
    if a.size and np.abs(a - a.T).max() > 1e-12:
        raise ValueError("generator is not symmetric; cannot form a Hermitian Hamiltonian")
    return Hamiltonian((a + a.T) / 2.0)


def edge_jump_operators(m: GeneratorMatrix, amplitude: str = "sqrt") -> JumpOperatorSet:
    """One single-entry operator per ordered pair (a, b) with M[a, b] != 0, a != b.

    amplitude="sqrt" (default) sets the entry to sqrt(M[a, b]) so the
    dissipator's population-transfer rate is exactly the classical rate;
    amplitude="literal" uses M[a, b] itself, which matches only at rate 1.
    """
    if amplitude not in ("sqrt", "literal"):
        raise ValueError(f"amplitude must be 'sqrt' or 'literal', got {amplitude!r}")
    rows, cols = np.nonzero(m.entries)
    rows, cols = rows[rows != cols], cols[rows != cols]
    rates = m.entries[rows, cols]
    if amplitude == "sqrt":
        negative = np.flatnonzero(rates < 0)
        if negative.size:
            raise ValueError(f"negative off-diagonal rate at ({rows[negative[0]]}, {cols[negative[0]]})")
        rates = np.sqrt(rates)
    return JumpOperatorSet(m.dim, rates.size, np.arange(rates.size), rows, cols, rates, EDGE_LOCAL)


def global_jump_operator(m: GeneratorMatrix, parts: str = "full") -> JumpOperatorSet:
    """Single operator equal to M entrywise.

    parts="full" (default) keeps the diagonal; parts="offdiagonal" zeroes it.
    """
    if parts not in ("full", "offdiagonal"):
        raise ValueError(f"parts must be 'full' or 'offdiagonal', got {parts!r}")
    rows, cols = np.nonzero(m.entries)
    if parts == "offdiagonal":
        rows, cols = rows[rows != cols], cols[rows != cols]
    return JumpOperatorSet(m.dim, 1, np.zeros(rows.size, dtype=np.intp), rows, cols, m.entries[rows, cols], GLOBAL)


def empty_jump_operators(dim: int) -> JumpOperatorSet:
    """The empty set: evolution is then purely Hamiltonian."""
    return JumpOperatorSet(dim, 0, (), (), (), (), EMPTY)


@dataclass(frozen=True)
class TensorElement:
    """One element of a transition tensor: indices and complex value (1/time)."""

    a: int
    alpha: int
    b: int
    beta: int
    value: complex


def _check_index(name: str, value: int, dim: int) -> int:
    value = int(value)
    if not 0 <= value < dim:
        raise IndexError(f"index {name}={value} out of range for dim {dim}")
    return value


def _tensor_value(h_entries, ops, overlap, a, alpha, b, beta) -> complex:
    value = 0.0 + 0.0j
    if alpha == beta:
        value += -1j * h_entries[a, b] - 0.5 * overlap[a, b]
    if a == b:
        value += 1j * h_entries[beta, alpha] - 0.5 * overlap[beta, alpha]
    for op in ops:
        value += op[a, b] * np.conj(op[alpha, beta])
    return complex(value)


def _require_same_dim(h: Hamiltonian, ls: JumpOperatorSet) -> None:
    if h.dim != ls.dim:
        raise ValueError(f"dimension mismatch: H is {h.dim}, operators are {ls.dim}")


def tensor_element(h: Hamiltonian, ls: JumpOperatorSet, a: int, alpha: int, b: int, beta: int) -> TensorElement:
    """The transition tensor element T[(a, alpha), (b, beta)].

    Gives d(rho_{a alpha})/dt = sum_{b beta} T rho_{b beta} at omega = 1 in
    the dissipative part and full weight on the Hamiltonian part, i.e. the
    unweighted generator whose interpolated version the evolution module
    exponentiates. Hamiltonian terms enter once, not once per operator.
    """
    _require_same_dim(h, ls)
    a = _check_index("a", a, h.dim)
    alpha = _check_index("alpha", alpha, h.dim)
    b = _check_index("b", b, h.dim)
    beta = _check_index("beta", beta, h.dim)
    value = _tensor_value(h.entries, ls.operators, ls.overlap_sum(), a, alpha, b, beta)
    return TensorElement(a, alpha, b, beta, value)


def _axiom_value(h_entries, stacked, overlap, axiom, m, n, l) -> complex:
    """Closed-form rate of one axiom; stacked is the (k, dim, dim) operator array."""
    if axiom == 1:
        return complex(stacked[:, m, m] @ np.conj(stacked[:, m, m]) - overlap[m, m])
    if axiom == 2:
        return complex(stacked[:, n, m] @ np.conj(stacked[:, n, m]))
    if axiom == 3:
        jump = stacked[:, m, m] @ np.conj(stacked[:, n, m])
        return complex(jump + 1j * h_entries[m, n] - 0.5 * overlap[m, n])
    if axiom == 4:
        jump = stacked[:, m, m] @ np.conj(stacked[:, n, n])
        return complex(
            jump
            - 1j * h_entries[m, m]
            + 1j * h_entries[n, n]
            - 0.5 * overlap[m, m]
            - 0.5 * overlap[n, n]
        )
    if axiom == 5:
        jump = stacked[:, l, m] @ np.conj(stacked[:, n, n])
        return complex(jump - 1j * h_entries[l, m] - 0.5 * overlap[l, m])
    # axiom 6
    return complex(stacked[:, l, m] @ np.conj(stacked[:, n, m]))


def axiom_canonical_indices(axiom: int, m: int, n: int | None, l: int | None) -> tuple[int, int, int, int]:
    """The (a, alpha, b, beta) tensor tuple each axiom formula describes."""
    if axiom == 1:
        return (m, m, m, m)
    if axiom == 2:
        return (n, n, m, m)
    if axiom == 3:
        return (m, n, m, m)
    if axiom == 4:
        return (m, n, m, n)
    if axiom == 5:
        return (l, n, m, n)
    return (l, n, m, m)


def axiom_rate(h: Hamiltonian, ls: JumpOperatorSet, axiom: int, m: int, n: int | None = None, l: int | None = None) -> TensorElement:
    """Closed-form rate for one of the six neighborhood transition axioms.

    1: population m self-rate          T[(m,m),(m,m)]
    2: population transfer m -> n      T[(n,n),(m,m)]
    3: population m -> coherence (m,n) T[(m,n),(m,m)]
    4: coherence (m,n) self-rate       T[(m,n),(m,n)]
    5: coherence (m,n) -> (l,n)        T[(l,n),(m,n)]
    6: population m -> coherence (l,n) T[(l,n),(m,m)]

    Axioms 2-4 need n, axioms 5-6 need l and n, all pairwise distinct from
    m. Conjugate elements follow by Hermiticity of the tensor and are not
    enumerated separately.
    """
    _require_same_dim(h, ls)
    if axiom not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"axiom must be 1..6, got {axiom}")
    m = _check_index("m", m, h.dim)
    if axiom >= 2:
        if n is None:
            raise ValueError(f"axiom {axiom} requires n")
        n = _check_index("n", n, h.dim)
        if n == m:
            raise ValueError("m and n must be distinct")
    if axiom >= 5:
        if l is None:
            raise ValueError(f"axiom {axiom} requires l")
        l = _check_index("l", l, h.dim)
        if l == m or l == n:
            raise ValueError("l, m, n must be pairwise distinct")
    value = _axiom_value(h.entries, ls.stacked(), ls.overlap_sum(), axiom, m, n, l)
    return TensorElement(*axiom_canonical_indices(axiom, m, n, l), value)


@dataclass(frozen=True)
class AuditFailure:
    kind: str
    indices: tuple
    deviation: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AxiomAuditReport:
    """Outcome of cross-checking the axiom formulas against the tensor.

    max_formula_deviation covers the axiom-vs-tensor comparisons over all
    vertex neighborhoods (conjugate tuples included). Non-adjacent
    population-transfer elements must vanish identically in every regime;
    full move-locality (every index motion follows an edge) is a theorem
    only for the edge-local and empty sets, and is checked there.
    max_superoperator_deviation is the largest entrywise difference
    between the tensor and the propagator's superoperator L_H + L_D,
    rebuilt in complex column-stacked form.
    """

    regime: str
    dim: int
    tol: float
    tuples_evaluated: int
    comparisons: int
    max_formula_deviation: float
    max_hermiticity_deviation: float
    max_superoperator_deviation: float
    max_nonadjacent_transfer: float
    move_locality_checked: bool
    max_nonlocal_element: float
    axiom6_max_abs: float
    axiom6_nonzero: tuple
    failures: tuple
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _transition_tensor(h_entries: np.ndarray, stacked: np.ndarray, overlap: np.ndarray) -> np.ndarray:
    """The whole tensor T[a, alpha, b, beta] from the (k, dim, dim) operator stack.

    The jump part sum_k L_k[a, b] conj(L_k[alpha, beta]) is one contraction;
    the two delta terms are added on the alpha == beta and a == b slices.
    """
    tensor = np.einsum("kab,kcd->acbd", stacked, stacked.conj())
    diag = np.arange(h_entries.shape[0])
    # tensor[:, i, :, i] is indexed [i, a, b]; tensor[i, :, i, :] is [i, alpha, beta].
    tensor[:, diag, :, diag] += -1j * h_entries - 0.5 * overlap
    tensor[diag, :, diag, :] += (1j * h_entries - 0.5 * overlap).T
    return tensor


def audit_axioms(h: Hamiltonian, ls: JumpOperatorSet, g: Graph, tol: float = 1e-10) -> AxiomAuditReport:
    """Verify the axiom formulas against the full transition tensor.

    Builds every tensor element of the graph (dim^4 tuples) with one
    contraction over the stacked operators, then checks:

    - each axiom formula equals its tensor element on every applicable
      neighborhood tuple, and the conjugate tuple equals the conjugate;
    - the tensor is Hermitian as a map: T(a,alpha,b,beta) agrees with
      conj(T(alpha,a,beta,b)) everywhere;
    - the tensor, permuted to column-stacked order, equals L_H + L_D,
      twice the generator build_liouvillian assembles for propagation at
      omega = 1/2 (rebuilt from its real coordinates by
      column_stacked_superoperator);
    - population transfer between non-adjacent vertices is exactly zero;
    - for the edge-local and empty sets, any element that moves an index
      off an edge is exactly zero (the global set provably spills to
      distance two through its L^dag L term, so it is exempt);
    - axiom 6 activity is reported with its nonzero tuples.

    The locality checks are boolean masks over the tensor built from the
    adjacency matrix; their failures are listed in lexicographic index order.
    tol must be finite and nonnegative.
    """
    # evolution imports this module, so the production build is imported here.
    from .evolution import build_liouvillian, column_stacked_superoperator

    if not (np.isfinite(tol) and tol >= 0):
        # A nan tolerance fails no comparison, and a negative one fails exact agreement.
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    dim = g.n_vertices
    if h.dim != dim or ls.dim != dim:
        raise ValueError("Hamiltonian, operators and graph dimensions must agree")
    adjacency = g.weight_matrix() != 0
    h_entries = h.entries
    stacked = ls.stacked()
    overlap = ls.overlap_sum()
    tensor = _transition_tensor(h_entries, stacked, overlap)

    failures = []
    comparisons = 0
    max_formula_dev = 0.0

    def compare(axiom, m, n, l):
        nonlocal comparisons, max_formula_dev
        indices = axiom_canonical_indices(axiom, m, n, l)
        formula = _axiom_value(h_entries, stacked, overlap, axiom, m, n, l)
        for idx, expected in (
            (indices, formula),
            ((indices[1], indices[0], indices[3], indices[2]), np.conj(formula)),
        ):
            dev = abs(tensor[idx] - expected)
            comparisons += 1
            max_formula_dev = max(max_formula_dev, dev)
            if dev > tol:
                failures.append(AuditFailure(f"axiom-{axiom}", idx, dev))
        return formula

    axiom6_max = 0.0
    axiom6_nonzero = []
    for m in range(dim):
        compare(1, m, None, None)
        neighbors = g.neighbors(m)
        for n in neighbors:
            compare(2, m, n, None)
            compare(3, m, n, None)
            compare(4, m, n, None)
            for l in neighbors:
                if l == n:
                    continue
                compare(5, m, n, l)
                strength = abs(compare(6, m, n, l))
                axiom6_max = max(axiom6_max, strength)
                if strength > tol:
                    axiom6_nonzero.append((l, n, m, strength))

    herm_dev = float(np.abs(tensor - np.conj(tensor.transpose(1, 0, 3, 2))).max())
    if herm_dev > tol:
        failures.append(AuditFailure("hermiticity", (), herm_dev))

    # Column stacking puts rho[a, alpha] at a + dim * alpha, so the tensor
    # maps onto the superoperator after swapping each index pair. The
    # generator at omega = 1/2 is (L_H + L_D) / 2, and doubling it is exact.
    superop = column_stacked_superoperator(2.0 * build_liouvillian(h, ls, 0.5).matrix)
    permuted = tensor.transpose(1, 0, 3, 2).reshape(dim * dim, dim * dim)
    superop_dev = float(np.abs(permuted - superop.toarray()).max())
    if superop_dev > tol:
        failures.append(AuditFailure("superoperator", (), superop_dev))

    off = ~adjacency & ~np.eye(dim, dtype=bool)
    transfer = np.abs(np.einsum("aabb->ab", tensor))
    max_transfer = float(transfer.max(where=off, initial=0.0))
    for a, b in np.argwhere(off & (transfer != 0.0)).tolist():
        failures.append(AuditFailure("non-adjacent-transfer", (a, a, b, b), float(transfer[a, b])))

    move_locality = ls.regime_tag in (EDGE_LOCAL, EMPTY)
    max_nonlocal = 0.0
    if move_locality:
        moves_off_edge = off[:, None, :, None] | off[None, :, None, :]
        magnitude = np.abs(tensor)
        max_nonlocal = float(magnitude.max(where=moves_off_edge, initial=0.0))
        for idx in map(tuple, np.argwhere(moves_off_edge & (magnitude != 0.0)).tolist()):
            failures.append(AuditFailure("nonlocal-element", idx, float(magnitude[idx])))

    return AxiomAuditReport(
        regime=ls.regime_tag,
        dim=dim,
        tol=float(tol),
        tuples_evaluated=dim**4,
        comparisons=comparisons,
        max_formula_deviation=max_formula_dev,
        max_hermiticity_deviation=herm_dev,
        max_superoperator_deviation=superop_dev,
        max_nonadjacent_transfer=max_transfer,
        move_locality_checked=move_locality,
        max_nonlocal_element=max_nonlocal,
        axiom6_max_abs=axiom6_max,
        axiom6_nonzero=tuple(axiom6_nonzero),
        failures=tuple(failures),
        passed=not failures,
    )
