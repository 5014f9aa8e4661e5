"""Graph representation and the classical generator matrix.

A walk scenario starts from an undirected weighted graph. The classical
generator M is the negative weighted graph Laplacian: off-diagonal entries
hold hop rates gamma_uv and each diagonal entry is minus the total rate out
of that vertex, so every column of M sums to zero and exp(M t) maps
probability vectors to probability vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on vertices 0..n_vertices-1.

    Edges are stored as canonical (u, v) pairs with u < v, sorted, with a
    parallel tuple of finite, strictly positive rates (units: 1/time).
    Instances are immutable and safe to share across threads.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights must have equal length")
        canonical = []
        seen = set()
        for (u, v), w in zip(self.edges, self.weights):
            u, v = int(u), int(v)
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            w = float(w)
            if not (w > 0 and np.isfinite(w)):
                raise ValueError(f"edge {pair} has weight {w}; weights must be finite and positive")
            canonical.append((pair, w))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(pair for pair, _ in canonical))
        object.__setattr__(self, "weights", tuple(w for _, w in canonical))

    def weight_matrix(self) -> np.ndarray:
        """Symmetric matrix W with W[u, v] = gamma_uv on edges, else 0."""
        w = np.zeros((self.n_vertices, self.n_vertices))
        for (u, v), rate in zip(self.edges, self.weights):
            w[u, v] = w[v, u] = rate
        return w

    def degree(self, v: int) -> int:
        return sum(1 for (a, b) in self.edges if v in (a, b))

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(sorted(out))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in set(self.edges)


@dataclass(frozen=True)
class LineIndexMap:
    """Maps signed line positions -k..+k to storage indices 0..n_sites-1."""

    n_sites: int

    @property
    def half_width(self) -> int:
        return (self.n_sites - 1) // 2

    @property
    def center(self) -> int:
        """Storage index of position 0."""
        return self.half_width

    @property
    def positions(self) -> np.ndarray:
        """Signed position of each storage index, in storage order."""
        k = self.half_width
        return np.arange(-k, k + 1)

    def index_of(self, position: int) -> int:
        k = self.half_width
        if not -k <= position <= k:
            raise IndexError(f"position {position} outside [-{k}, {k}]")
        return position + k

    def position_of(self, index: int) -> int:
        if not 0 <= index < self.n_sites:
            raise IndexError(f"storage index {index} out of range")
        return index - self.half_width


def build_line(n_sites: int, gamma: float) -> tuple[Graph, LineIndexMap]:
    """Path graph of n_sites vertices with uniform hop rate gamma.

    n_sites must be odd and >= 3 so the walker origin (signed position 0)
    sits at the middle storage index. Returns the graph together with the
    signed-position index map.
    """
    if n_sites < 3 or n_sites % 2 == 0:
        raise ValueError(f"n_sites must be odd and >= 3, got {n_sites}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    edges = tuple((j, j + 1) for j in range(n_sites - 1))
    return Graph(n_sites, edges, (float(gamma),) * (n_sites - 1)), LineIndexMap(n_sites)


def from_edge_list(n_vertices: int, edges) -> Graph:
    """Build a Graph from (u, v, weight) triples; weight may be omitted (:= 1).

    Duplicate pairs in either order, self-loops, out-of-range indices and
    nonpositive or non-finite weights are rejected.
    """
    pairs, weights = [], []
    for item in edges:
        if len(item) == 2:
            u, v = item
            w = 1.0
        else:
            u, v, w = item
        pairs.append((u, v))
        weights.append(w)
    return Graph(n_vertices, tuple(pairs), tuple(weights))


def _require_finite(name: str, arr: np.ndarray) -> None:
    """Every tolerance check is False on nan, so non-finite input must be refused first."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(bad[0].tolist())
        raise ValueError(f"{name} {index[0] if len(index) == 1 else index} is not finite: {arr[index]}")


def _square_matrix(name: str, entries, dtype) -> np.ndarray:
    """entries as a new read-only square array of dtype; non-finite entries are refused, naming the first."""
    arr = np.array(entries, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    _require_finite(f"{name} entry", arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GeneratorMatrix:
    """Real square generator matrix M, indexed M[a, b] = rate into a from b.

    The constructor only checks shape, realness and finiteness (a nan
    entry would pass every tolerance check); whether the entries actually
    form a valid stochastic generator is validate_generator's job, so that
    invalid candidates can be inspected rather than rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _square_matrix("generator", self.entries, float))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def classical_generator(g: Graph) -> GeneratorMatrix:
    """Generator of the classical walk: M = -(weighted graph Laplacian).

    Off-diagonal M[a, b] = gamma_ab for edges, diagonal M[a, a] = -(sum of
    rates incident to a); every column sums to zero.
    """
    m = g.weight_matrix()
    m -= np.diag(m.sum(axis=0))
    return GeneratorMatrix(m)


@dataclass(frozen=True)
class GeneratorReport:
    """Result of validate_generator. passed is the overall verdict."""

    max_column_sum_deviation: float
    most_negative_off_diagonal: float
    sparsity_matches: bool | None
    tol: float
    passed: bool


def validate_generator(m: GeneratorMatrix, tol: float = 1e-12, graph: Graph | None = None) -> GeneratorReport:
    """Check the stochastic-generator invariants of M.

    Reports the worst column-sum deviation and the most negative
    off-diagonal entry; when a reference graph is supplied, also checks
    that the off-diagonal sparsity pattern equals the adjacency pattern.
    """
    a = m.entries
    col_dev = float(np.abs(a.sum(axis=0)).max()) if a.size else 0.0
    off = a - np.diag(np.diag(a))
    most_negative = float(off.min()) if a.size else 0.0
    sparsity = None
    if graph is not None:
        if graph.n_vertices != m.dim:
            raise ValueError("reference graph dimension does not match generator")
        adjacency = graph.weight_matrix() != 0
        sparsity = bool(np.array_equal(off != 0, adjacency))
    passed = col_dev <= tol and most_negative >= -tol and sparsity is not False
    return GeneratorReport(col_dev, most_negative, sparsity, float(tol), passed)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First significant line is the header `vertices N`; each following line
    is `u v weight` (weight optional, default 1). `#` starts a comment,
    full-line or trailing; blank lines are skipped.
    """
    n_vertices = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n_vertices is None:
            if fields[0] != "vertices" or len(fields) != 2:
                raise ValueError(f"line {lineno}: expected header 'vertices N'")
            try:
                n_vertices = int(fields[1])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count {fields[1]!r} is not an integer") from None
            continue
        if len(fields) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [weight]', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: could not parse edge {line!r}") from None
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for {n_vertices} vertices")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        if not (w > 0 and np.isfinite(w)):
            raise ValueError(f"line {lineno}: edge weight must be finite and positive, got {w}")
        triples.append((u, v, w))
    if n_vertices is None:
        raise ValueError("edge list has no 'vertices N' header")
    try:
        return from_edge_list(n_vertices, triples)
    except ValueError as exc:
        raise ValueError(f"invalid edge list: {exc}") from None


def read_edge_list(path) -> Graph:
    """Read a graph from an edge-list file (format of parse_edge_list)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
