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
generator exhibits on vertex neighborhoods. Both read the jump terms and K
from the triplets of the set. audit_axioms builds the whole tensor, its
jump part as one sparse product of the triplets, cross-checks the axiom
formulas, evaluated on the dense operator stack, against it on every
neighborhood, checks locality with adjacency masks, and checks the tensor
against the superoperator the evolution module builds for propagation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
import scipy.sparse

from .graph import GeneratorMatrix, Graph, _check_indices, _square_matrix

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
        # Index sequences stay exact Python ints, which numpy would round to float64 when
        # -1 and 2^63 share one; the range check below refuses either, naming its entry.
        indices = (self.number, self.rows, self.cols)
        number, rows, cols = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in indices)
        values = np.asarray(self.values, dtype=complex)
        integers = all(
            x.dtype.kind in "iu" or all(type(v) is int or isinstance(v, np.integer) for v in x.flat) for x in (number, rows, cols)
        )
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
        # The diagonal of K = sum_k L_k^dag L_k; finite entries can still overflow it.
        with np.errstate(over="ignore"):
            k_diagonal = np.bincount(cols, weights=np.abs(values) ** 2, minlength=self.dim)
        if not np.isfinite(k_diagonal).all():
            b = np.argmax(~np.isfinite(k_diagonal))
            raise ValueError(f"K = sum_k L_k^dag L_k overflows: sum_k sum_c |L_k[c, {b}]|^2 of column {b} is not finite")
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

    def sparse_overlap_sum(self) -> scipy.sparse.csr_matrix:
        """K = sum_k L_k^dag L_k as S^dag S, the sparse S stacking the operators in dim-row blocks; no dense stack is made."""
        stacked = scipy.sparse.csr_matrix((self.values, (self.number * self.dim + self.rows, self.cols)), shape=(self.count * self.dim, self.dim))
        return stacked.conj().T @ stacked


def hamiltonian_from_generator(m: GeneratorMatrix) -> Hamiltonian:
    """H with H[a, b] = M[a, b]; requires M symmetric to 1e-12."""
    a = m.entries
    if np.abs(a - a.T).max() > 1e-12:
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


def _jump_term(ls: JumpOperatorSet, a: int, b: int, c: int, d: int) -> complex:
    """sum_k L_k[a, b] conj(L_k[c, d]) from the triplets of ls.

    An operator has at most one entry at each position, so the two are matched by operator number.
    """
    first, second = ((ls.rows == row) & (ls.cols == col) for row, col in ((a, b), (c, d)))
    _, i, j = np.intersect1d(ls.number[first], ls.number[second], assume_unique=True, return_indices=True)
    return complex(np.sum(ls.values[first][i] * ls.values[second][j].conj()))


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
    a, alpha, b, beta = _check_indices(range(h.dim), a=a, alpha=alpha, b=b, beta=beta)
    value, he, overlap = _jump_term(ls, a, b, alpha, beta), h.entries, ls.sparse_overlap_sum()
    if alpha == beta:
        value += -1j * he[a, b] - 0.5 * overlap[a, b]
    if a == b:
        value += 1j * he[beta, alpha] - 0.5 * overlap[beta, alpha]
    return TensorElement(a, alpha, b, beta, complex(value))


# How many vertices each axiom's neighborhood holds: m alone, an edge (m, n), or a wedge (m, n, l).
_NEIGHBORHOOD_SIZE = {1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 6: 3}


def _axiom(h_entries, jump, overlap, axiom, m, n=None, l=None):
    """One axiom's tensor tuple (a, alpha, b, beta) and closed-form rate, at scalar indices or at index arrays.

    jump(a, b, c, d) is sum_k L_k[a, b] conj(L_k[c, d]) at those indices, and overlap is K.
    The rates are the paper's closed forms, resolved by hand and not read off the tensor rule.
    """
    if axiom == 1:  # population m self-rate
        return (m, m, m, m), jump(m, m, m, m) - overlap[m, m]
    if axiom == 2:  # population transfer m -> n
        return (n, n, m, m), jump(n, m, n, m)
    if axiom == 3:  # population m -> coherence (m, n)
        return (m, n, m, m), jump(m, m, n, m) + 1j * h_entries[m, n] - 0.5 * overlap[m, n]
    if axiom == 4:  # coherence (m, n) self-rate
        return (m, n, m, n), jump(m, m, n, n) - 1j * h_entries[m, m] + 1j * h_entries[n, n] - 0.5 * overlap[m, m] - 0.5 * overlap[n, n]
    if axiom == 5:  # coherence (m, n) -> (l, n)
        return (l, n, m, n), jump(l, m, n, n) - 1j * h_entries[l, m] - 0.5 * overlap[l, m]
    return (l, n, m, m), jump(l, m, n, m)  # axiom 6: population m -> coherence (l, n)


def axiom_rate(h: Hamiltonian, ls: JumpOperatorSet, axiom: int, m: int, n: int | None = None, l: int | None = None) -> TensorElement:
    """Closed-form rate of one of the six neighborhood transition axioms (see _axiom), at its tensor tuple.

    Axiom 1 reads the vertex m, axioms 2-4 the edge (m, n) and axioms 5-6 the wedge (m, n, l); those indices
    are required and pairwise distinct, and the others are ignored. Conjugate elements follow by
    Hermiticity of the tensor and are not enumerated separately.
    """
    _require_same_dim(h, ls)
    if axiom not in _NEIGHBORHOOD_SIZE:
        raise ValueError(f"axiom must be 1..6, got {axiom}")
    names = ("m", "n", "l")[: _NEIGHBORHOOD_SIZE[axiom]]
    indices = []
    for name, value in zip(names, (m, n, l)):
        if value is None:
            raise ValueError(f"axiom {axiom} requires {name}")
        (value,) = _check_indices(range(h.dim), **{name: value})
        if value in indices:
            raise ValueError(f"{name} = {value} repeats {names[indices.index(value)]}; {', '.join(names)} must be pairwise distinct")
        indices.append(value)
    element, rate = _axiom(h.entries, partial(_jump_term, ls), ls.sparse_overlap_sum(), axiom, *indices)
    return TensorElement(*element, complex(rate))


@dataclass(frozen=True)
class AuditFailure:
    kind: str
    indices: tuple
    deviation: float


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


def _transition_tensor(h_entries: np.ndarray, ls: JumpOperatorSet, overlap: np.ndarray) -> np.ndarray:
    """The whole tensor T[a, alpha, b, beta] from the triplets of ls and the dense K.

    The jump part sum_k L_k[a, b] conj(L_k[alpha, beta]) is one sparse product
    V V^dag, where column k of the (dim^2, count) matrix V is L_k flattened by
    rows; the two delta terms are added on the alpha == beta and a == b slices.
    """
    dim = ls.dim
    flat = scipy.sparse.csr_matrix((ls.values, (ls.rows * dim + ls.cols, ls.number)), shape=(dim * dim, ls.count))
    tensor = (flat @ flat.conj().T).toarray().reshape((dim,) * 4).transpose(0, 2, 1, 3)
    diag = np.arange(dim)
    # tensor[:, i, :, i] is indexed [i, a, b]; tensor[i, :, i, :] is [i, alpha, beta].
    tensor[:, diag, :, diag] += -1j * h_entries - 0.5 * overlap
    tensor[diag, :, diag, :] += (1j * h_entries - 0.5 * overlap).T
    return tensor


def audit_axioms(h: Hamiltonian, ls: JumpOperatorSet, g: Graph, tol: float = 1e-10) -> AxiomAuditReport:
    """Verify the axiom formulas against the full transition tensor.

    Builds every tensor element of the graph (dim^4 tuples), its jump part
    as one sparse product of the triplets, then checks:

    - each axiom formula, read from the dense operator stack, equals its
      tensor element on every applicable neighborhood tuple, and the
      conjugate tuple equals the conjugate;
    - the tensor is Hermitian as a map: T(a,alpha,b,beta) agrees with
      conj(T(alpha,a,beta,b)) everywhere;
    - the tensor, permuted to column-stacked order, equals L_H + L_D, the
      sum of the two parts build_liouvillian assembles for propagation at
      omega = 0 and omega = 1 (rebuilt from its real coordinates by
      column_stacked_superoperator);
    - population transfer between non-adjacent vertices is exactly zero;
    - for the edge-local and empty sets, any element that moves an index
      off an edge is exactly zero (the global set provably spills to
      distance two through its L^dag L term, so it is exempt);
    - axiom 6 activity is reported with its nonzero tuples.

    Every check reads the adjacency matrix. The axiom formulas are evaluated
    at once over the vertices, ordered edges and wedges it gives, and their
    failures are listed axiom by axiom: the canonical tuples, then their
    conjugates, each in lexicographic (m, n, l) order. The locality checks
    are boolean masks over the tensor; their failures are listed in
    lexicographic index order. A nan deviation fails its check, and a set
    whose K overflows is refused when it is built. tol must be finite and
    nonnegative.
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
    overlap = ls.sparse_overlap_sum().toarray()
    tensor = _transition_tensor(h_entries, ls, overlap)
    stacked = ls.stacked()

    def jump(a, b, c, d):
        return (stacked[:, a, b] * np.conj(stacked[:, c, d])).sum(axis=0)

    # The neighborhoods of each size, in lexicographic order: the vertices m, the ordered
    # edges (m, n), and the wedges (m, n, l) of distinct neighbors n, l of m.
    distinct = ~np.eye(dim, dtype=bool)
    neighborhoods = {1: (np.arange(dim),), 2: np.nonzero(adjacency), 3: np.nonzero(adjacency[:, :, None] & adjacency[:, None, :] & distinct)}
    rows = {axiom: _axiom(h_entries, jump, overlap, axiom, *neighborhoods[size]) for axiom, size in _NEIGHBORHOOD_SIZE.items()}
    failures = []
    deviations = []
    for axiom, ((a, alpha, b, beta), formula) in rows.items():
        # The canonical tuples, then their conjugates (alpha, a, beta, b).
        idx = tuple(np.concatenate(pair) for pair in ((a, alpha), (alpha, a), (b, beta), (beta, b)))
        dev = np.abs(tensor[idx] - np.concatenate([formula, np.conj(formula)]))
        deviations.append(dev)
        # Written so that a nan deviation fails.
        bad = np.flatnonzero(~(dev <= tol))
        failures += [AuditFailure(f"axiom-{axiom}", tuple(int(i[j]) for i in idx), float(dev[j])) for j in bad]
    formula_dev = np.concatenate(deviations)
    # Axiom 6's own tuples (l, n, m, m) and rates.
    (a, alpha, b, _), rate = rows[6]
    strength = np.abs(rate)
    axiom6_nonzero = [(int(a[j]), int(alpha[j]), int(b[j]), float(strength[j])) for j in np.flatnonzero(strength > tol)]

    herm_dev = float(np.abs(tensor - np.conj(tensor.transpose(1, 0, 3, 2))).max())
    if not herm_dev <= tol:
        failures.append(AuditFailure("hermiticity", (), herm_dev))

    # Column stacking puts rho[a, alpha] at a + dim * alpha, so the tensor
    # maps onto the superoperator after swapping each index pair.
    superop = column_stacked_superoperator(build_liouvillian(h, ls, 0.0).matrix + build_liouvillian(h, ls, 1.0).matrix)
    permuted = tensor.transpose(1, 0, 3, 2).reshape(dim * dim, dim * dim)
    superop_dev = float(np.abs(permuted - superop.toarray()).max())
    if not superop_dev <= tol:
        failures.append(AuditFailure("superoperator", (), superop_dev))

    off = ~adjacency & distinct
    # rho[a, a] sits at a * (dim + 1) in column-stacked order, so this is |T[a, a, b, b]|.
    transfer = np.abs(permuted[:: dim + 1, :: dim + 1])
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
        comparisons=formula_dev.size,
        max_formula_deviation=float(formula_dev.max(initial=0.0)),
        max_hermiticity_deviation=herm_dev,
        max_superoperator_deviation=superop_dev,
        max_nonadjacent_transfer=max_transfer,
        move_locality_checked=move_locality,
        max_nonlocal_element=max_nonlocal,
        axiom6_max_abs=float(strength.max(initial=0.0)),
        axiom6_nonzero=tuple(axiom6_nonzero),
        failures=tuple(failures),
        passed=not failures,
    )
