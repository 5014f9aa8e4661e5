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

# The most vertices a graph may have. The dense n x n layer of a command
# (Graph.weight_matrix, M, H and the QuantumWalk's shifted copy of H) is
# its largest below the superoperator build: qw on line:501, line:1001
# and line:2001 peaked at 64 bytes per vertex^2 under tracemalloc (16.2,
# 64.4 and 256.6 MB), so the bound caps that layer near 1 GB. line:201,
# the largest graph of the benchmark workloads, peaks at 2.7 MB.
_MAX_VERTICES = 4000


def _check_vertex_count(n_vertices: int) -> None:
    """Refuse more than _MAX_VERTICES vertices, before anything of size n or n^2 is built."""
    if n_vertices > _MAX_VERTICES:
        raise ValueError(f"graph of {n_vertices} vertices is past the bound of {_MAX_VERTICES} vertices")


def _add_edge(edges: dict, n_vertices: int, u, v, w) -> None:
    """Add the edge {u, v} of weight w to edges, keyed by its pair (min, max): the one rule every edge passes."""
    if not (0 <= u < n_vertices and 0 <= v < n_vertices):
        raise ValueError(f"edge ({u}, {v}) out of range for {n_vertices} vertices")
    if u != int(u) or v != int(v):
        raise ValueError(f"edge ({u}, {v}): vertices must be integers")
    u, v = int(u), int(v)
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    pair = (min(u, v), max(u, v))
    if pair in edges:
        raise ValueError(f"duplicate edge {pair}")
    w = float(w)
    if not (w > 0 and np.isfinite(w)):
        raise ValueError(f"edge weight must be finite and positive, got {w} on {pair}")
    edges[pair] = w


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
        _check_vertex_count(self.n_vertices)
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights must have equal length")
        canonical = {}
        for (u, v), w in zip(self.edges, self.weights):
            _add_edge(canonical, self.n_vertices, u, v, w)
        pairs = sorted(canonical)
        object.__setattr__(self, "edges", tuple(pairs))
        object.__setattr__(self, "weights", tuple(canonical[pair] for pair in pairs))

    def weight_matrix(self) -> np.ndarray:
        """Symmetric matrix W with W[u, v] = gamma_uv on edges, else 0."""
        w = np.zeros((self.n_vertices, self.n_vertices))
        for (u, v), rate in zip(self.edges, self.weights):
            w[u, v] = w[v, u] = rate
        return w

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(sorted(out))


@dataclass(frozen=True)
class LineIndexMap:
    """Maps signed line positions -k..+k to storage indices 0..n_sites-1.

    n_sites must be an odd integer >= 3, so that the walker origin (signed
    position 0) sits at the middle storage index.
    """

    n_sites: int

    def __post_init__(self):
        n = self.n_sites
        if not (isinstance(n, (int, np.integer)) and n >= 3 and n % 2 == 1):
            raise ValueError(f"n_sites must be odd and >= 3, got {n}")

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
        (position,) = _check_indices(range(-k, k + 1), position=position)
        return position + k

    def position_of(self, index: int) -> int:
        (index,) = _check_indices(range(self.n_sites), index=index)
        return index - self.half_width


def build_line(n_sites: int, gamma: float) -> tuple[Graph, LineIndexMap]:
    """Path graph of n_sites vertices with uniform hop rate gamma.

    Returns the graph together with the signed-position index map, which
    holds the rule on n_sites.
    """
    line = LineIndexMap(n_sites)
    _check_vertex_count(n_sites)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    edges = tuple((j, j + 1) for j in range(n_sites - 1))
    return Graph(n_sites, edges, (float(gamma),) * (n_sites - 1)), line


def from_edge_list(n_vertices: int, edges) -> Graph:
    """Build a Graph from (u, v, weight) triples; weight may be omitted (:= 1).

    Duplicate pairs in either order, self-loops, out-of-range or fractional indices and
    nonpositive or non-finite weights are rejected.
    """
    triples = [(*item, 1.0) if len(item) == 2 else item for item in edges]
    return Graph(n_vertices, tuple((u, v) for u, v, _ in triples), tuple(w for _, _, w in triples))


def _require_finite(name: str, arr: np.ndarray) -> None:
    """Every tolerance check is False on nan, so non-finite input must be refused first."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(bad[0].tolist())
        raise ValueError(f"{name} {index[0] if len(index) == 1 else index} is not finite: {arr[index]}")


def _check_indices(valid: range, **indices) -> tuple:
    """The named indices as ints, in order; the first that is not an integer in valid is refused, by name."""
    for name, value in indices.items():
        if not (valid.start <= value < valid.stop and value == int(value)):
            raise IndexError(f"index {name}={value} is not an integer in [{valid.start}, {valid.stop})")
    return tuple(int(value) for value in indices.values())


def _square_matrix(name: str, entries, dtype) -> np.ndarray:
    """entries as a new read-only, nonempty square array of dtype; non-finite entries are refused, naming the first."""
    arr = np.array(entries, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {arr.shape}")
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
    col_dev = float(np.abs(a.sum(axis=0)).max())
    off = a - np.diag(np.diag(a))
    most_negative = float(off.min())
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
    weights = {}
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
            if n_vertices < 1:
                raise ValueError(f"line {lineno}: vertex count must be at least 1, got {n_vertices}")
            if n_vertices > _MAX_VERTICES:
                raise ValueError(f"line {lineno}: vertex count {n_vertices} is past the bound of {_MAX_VERTICES} vertices")
            continue
        if len(fields) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [weight]', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: could not parse edge {line!r}") from None
        try:
            _add_edge(weights, n_vertices, u, v, w)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n_vertices is None:
        raise ValueError("edge list has no 'vertices N' header")
    return Graph(n_vertices, tuple(weights), tuple(weights.values()))


def read_edge_list(path) -> Graph:
    """Read a graph from an edge-list file (format of parse_edge_list)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
