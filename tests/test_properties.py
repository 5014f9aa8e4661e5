"""Property tests of CLI time grids and of the graph input boundary.

For time grids, Hypothesis draws a connected weighted graph (2-8 vertices), a built-in
regime with its option, a start vertex, omega in [0, 1] (both endpoints
always in play, so the real and the complex arithmetic routes both run)
and a short, unordered time grid. Every state the grid's forward chain
reaches must meet the three state budgets, and every point must agree
with propagating from the start state directly.

At omega = 0 it draws complex Hermitian Hamiltonians (dim 2-8), a basis
or complex pure start and a sorted chain of times up to 10: every state
the QuantumWalk reaches on the start's amplitudes must agree within 1e-12
with the commutator's on the dim^2 coordinates.

At omega = 1 it draws sets that keep populations closed (dim 1-8): single
entries and partial permutations with complex weights, diagonal entries,
operators that share positions, all-zero operators and the empty set. The
ClassicalWalk's rate matrix must equal R_D's principal submatrix on the
populations exactly, a vertex start state propagated on it must agree
within 1e-14 with the Liouvillian on all dim^2 coordinates, and a set
with two nonzeros in one row or one column of an operator is refused.

For the forms a state records, it draws amplitudes or populations (dim
1-12, trace within 1e-6 of 1, populations down to about -3e-8) and basis
states: the trace drift, Hermiticity drift and smallest eigenvalue read
from the form must agree within 1e-14 with those of the dense entries,
on the same side of the eigenvalue floor; the populations must equal the
entries' diagonal bit for bit; and coherence_l1 must be nonnegative on
the form and on the entries, and agree between them within 1e-12. Every
state that pure and from_populations make from amplitudes or populations
they accept (norm or sum at their tolerance's edge, populations down to
-5e-13) must meet DensityMatrix's construction tolerances.

For graphs, it draws vertex counts, edge sets and positive finite weights
(subnormal ones included): an edge list written with repr weights parses
back to the same graph, a junk line anywhere after the header is refused
with a ValueError that names its line, and a Graph does not depend on the
order or orientation of its input edges.

For jump-operator sets, it draws small complex custom sets (zeros and
all-zero operators included) and hands their entries to the triplet
constructor in a random order with explicit zeros mixed in: the stored
triplets must round-trip through from_dense, stacked() must rebuild the
drawn matrices, and sparse_overlap_sum() must equal the explicit sum of L^dag L.
"""

import string

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qsw.cli as cli
from qsw.evolution import (
    EIGENVALUE_FLOOR,
    HERMITICITY_BUDGET,
    MIN_POSITIVE_TIME,
    TRACE_BUDGET,
    ClassicalWalk,
    DensityMatrix,
    Liouvillian,
    QuantumWalk,
    _diagnostics,
    _expm_action,
    _state_diagnostics,
    build_liouvillian,
    coherence_l1,
    from_coordinates,
    populations,
    populations_detailed,
    propagate_detailed,
    to_coordinates,
)
from qsw.graph import Graph, classical_generator, from_edge_list, parse_edge_list
from qsw.operators import Hamiltonian, JumpOperatorSet, empty_jump_operators, hamiltonian_from_generator


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 8))
    # A random spanning tree (vertex i hangs off an earlier vertex) plus any extra pairs.
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= draw(st.sets(st.sampled_from(pairs)))
    weights = draw(st.lists(st.floats(0.5, 2.0), min_size=len(edges), max_size=len(edges)))
    return from_edge_list(n, [(u, v, w) for (u, v), w in zip(sorted(edges), weights)])


regimes = st.one_of(
    st.tuples(st.just("crw"), st.sampled_from(["sqrt", "literal"]), st.just("full")),
    st.tuples(st.just("qw"), st.just("sqrt"), st.just("full")),
    st.tuples(st.just("qsw-global"), st.just("sqrt"), st.sampled_from(["full", "offdiagonal"])),
)
omegas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _no_subnormal_steps(ts) -> bool:
    return not any(0 < step < MIN_POSITIVE_TIME for step in np.diff(sorted(ts)))


# Subnormal times and grid steps are refused (see test_cli); the grid draws only valid ones.
time_grids = st.lists(st.floats(0.0, 2.0, allow_subnormal=False), min_size=2, max_size=4).filter(_no_subnormal_steps)


def _within_budgets(arr: np.ndarray) -> bool:
    hermitian = (arr + arr.conj().T) / 2.0
    return (
        abs(arr.trace() - 1.0) <= TRACE_BUDGET
        and np.abs(arr - arr.conj().T).max() <= HERMITICITY_BUDGET
        and np.linalg.eigvalsh(hermitian).min() >= EIGENVALUE_FLOOR
    )


@settings(deadline=None, max_examples=60)
@given(graph=connected_graphs(), regime=regimes, omega=omegas, ts=time_grids, data=st.data())
def test_time_grid_keeps_budgets_and_matches_per_point_propagation(graph, regime, omega, ts, data):
    name, amplitude, global_l = regime
    origin = data.draw(st.integers(0, graph.n_vertices - 1))
    src = cli.GraphSource("random", graph, None, None)
    args = SimpleNamespace(regime=name, amplitude_convention=amplitude, global_l=global_l, jump_file=None, origin=origin)

    reached = []

    def recording_propagate(rho0, liou, t):
        state, info = propagate_detailed(rho0, liou, t)
        reached.append(state.entries)
        return state, info

    with mock.patch.object(cli, "propagate_detailed", recording_propagate):
        _, results = cli._run_grid(src, args, [omega], ts)
    # A grid whose times are all 0 builds no generator and propagates nothing.
    assert len(reached) == (len(ts) if max(ts) > 0.0 else 0)
    assert all(_within_budgets(arr) for arr in reached)

    h, ls = cli._build_operators(src, args)
    liou = build_liouvillian(h, ls, omega)
    rho0 = DensityMatrix.basis(graph.n_vertices, origin)
    assert [r["t"] for r in results] == ts
    for r in results:
        state, _ = propagate_detailed(rho0, liou, r["t"])
        assert np.abs(np.array(r["populations"]) - populations(state)).max() <= 1e-12
        assert abs(r["coherence_l1"] - coherence_l1(state)) <= 1e-12


@st.composite
def complex_custom_sets(draw, dim):
    """One to three operators of dim x dim, each with a few complex entries of magnitude at most 1."""
    count = draw(st.integers(1, 3))
    entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    operators = np.zeros((count, dim, dim), dtype=complex)
    for op in operators:
        for (a, b), value in draw(st.dictionaries(cells, entry, min_size=1, max_size=4)).items():
            op[a, b] = value
    return JumpOperatorSet.from_dense(dim, operators, "custom")


@settings(deadline=None, max_examples=60)
@given(graph=connected_graphs(), regime=st.one_of(regimes, st.just(("qsw-custom", "sqrt", "full"))), data=st.data())
def test_invariant_block_matches_the_full_kernel_at_omega_1(graph, regime, data):
    # At omega 1 the kernel multiplies only the coordinates the start state
    # reaches, with the block's own shift and norm; the full kernel must agree.
    n = graph.n_vertices
    name, amplitude, global_l = regime
    if name == "qsw-custom":
        h = hamiltonian_from_generator(classical_generator(graph))
        ls = data.draw(complex_custom_sets(n))
    else:
        args = SimpleNamespace(regime=name, amplitude_convention=amplitude, global_l=global_l, jump_file=None)
        h, ls = cli._build_operators(cli.GraphSource("random", graph, None, None), args)
    # A vertex, or a superposition of two with a complex phase, which starts on imaginary coordinates too.
    first, second = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    amplitudes = np.zeros(n, dtype=complex)
    amplitudes[first] += 1.0
    amplitudes[second] += np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi)))
    rho0 = DensityMatrix.pure(amplitudes / np.linalg.norm(amplitudes))
    t = data.draw(st.floats(1e-3, 2.0))

    liou = build_liouvillian(h, ls, 1.0)
    state, _ = propagate_detailed(rho0, liou, t)
    full, _ = _expm_action(liou._shifted, to_coordinates(rho0.entries), t)
    assert np.abs(state.entries - from_coordinates(full, n)).max() <= 1e-14


@st.composite
def population_closed_operators(draw):
    """dim and 0-4 operators of dim x dim with at most one nonzero per row and per column.

    Each is a single entry, a partial permutation (a fixed point is a
    diagonal entry), all zero, or the pattern of an earlier operator with
    new weights, so operators share positions. Weights are complex, of
    magnitude at most 1.
    """
    dim = draw(st.integers(1, 8))
    weight = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    vertex = st.integers(0, dim - 1)
    operators = []
    for _ in range(draw(st.integers(0, 4))):
        op = np.zeros((dim, dim), dtype=complex)
        kind = draw(st.sampled_from(["single", "partial-permutation", "zero", "repeat"] if operators else ["single", "partial-permutation", "zero"]))
        if kind == "single":
            op[draw(vertex), draw(vertex)] = draw(weight)
        elif kind == "partial-permutation":
            for b, a in enumerate(draw(st.permutations(range(dim)))):
                if draw(st.booleans()):
                    op[a, b] = draw(weight)
        elif kind == "repeat":
            for a, b in np.argwhere(operators[draw(st.integers(0, len(operators) - 1))] != 0):
                op[a, b] = draw(weight)
        operators.append(op)
    return dim, operators


@settings(deadline=None, max_examples=100)
@given(drawn=population_closed_operators(), data=st.data())
def test_classical_walk_is_the_population_block_of_the_dissipator(drawn, data):
    dim, operators = drawn
    ls = JumpOperatorSet.from_dense(dim, operators, "custom")
    walk = ClassicalWalk.from_jump_operators(ls)
    dissipator = build_liouvillian(Hamiltonian(np.zeros((dim, dim))), ls, 1.0).matrix
    populations_index = np.arange(dim) * (dim + 1)
    block = dissipator[populations_index][:, populations_index]
    assert walk.matrix.has_canonical_format and block.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(walk.matrix, name), getattr(block, name)), name

    rho0 = DensityMatrix.basis(dim, data.draw(st.integers(0, dim - 1)))
    t = data.draw(st.floats(1e-3, 2.0))
    by_walk, info = propagate_detailed(rho0, walk, t)
    by_coordinates, _ = propagate_detailed(rho0, Liouvillian(dim, dissipator), t)
    assert (info.route, info.rows) == ("populations", dim)
    assert np.abs(by_walk.entries - by_coordinates.entries).max() <= 1e-14

    # One more operator with two nonzeros in one row or one column is refused, naming it.
    if dim == 1:
        return
    a, b, other = data.draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(0, dim - 2)))
    by_row = data.draw(st.booleans())
    shared = np.zeros((dim, dim), dtype=complex)
    shared[a, b] = 1.0
    if by_row:
        shared[a, other + (other >= b)] = 0.5j
    else:
        shared[other + (other >= a), b] = 0.5j
    bad = JumpOperatorSet.from_dense(dim, [*operators, shared], "custom")
    assert not ClassicalWalk.applies_to(bad)
    line = f"row {a}" if by_row else f"column {b}"
    with pytest.raises(ValueError, match=f"^jump operator {len(operators)} has two nonzeros in {line}, "):
        ClassicalWalk.from_jump_operators(bad)


@st.composite
def hermitian_matrices(draw):
    """A complex Hermitian matrix of dim 2-8, its entries' parts in [-1, 1]."""
    dim = draw(st.integers(2, 8))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim))
    a = np.reshape(parts[: dim * dim], (dim, dim)) + 1j * np.reshape(parts[dim * dim :], (dim, dim))
    return (a + a.conj().T) / 2.0


@settings(deadline=None, max_examples=60)
@given(
    entries=hermitian_matrices(),
    ts=st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=1, max_size=4).map(sorted).filter(_no_subnormal_steps),
    data=st.data(),
)
def test_amplitude_route_matches_the_coordinate_kernel_at_omega_0(entries, ts, data):
    # The walk on dim amplitudes, shifted by tr(H) / dim, against the
    # commutator on dim^2 coordinates, along the same forward chain.
    dim = entries.shape[0]
    h = Hamiltonian(entries)
    if data.draw(st.booleans()):
        rho0 = DensityMatrix.basis(dim, data.draw(st.integers(0, dim - 1)))
    else:
        part = st.floats(-1.0, 1.0)
        psi = np.array(data.draw(st.lists(st.tuples(part, part), min_size=dim, max_size=dim))) @ [1.0, 1j]
        assume(np.linalg.norm(psi) > 0.1)
        rho0 = DensityMatrix.pure(psi / np.linalg.norm(psi))
    walk = QuantumWalk.from_hamiltonian(h)
    liou = build_liouvillian(h, empty_jump_operators(dim), 0.0)
    by_walk = by_coordinates = rho0
    t_prev = 0.0
    for t in ts:
        by_walk, _ = propagate_detailed(by_walk, walk, t - t_prev)
        by_coordinates, _ = propagate_detailed(by_coordinates, liou, t - t_prev)
        t_prev = t
        assert by_walk.amplitudes is not None
        assert np.abs(by_walk.entries - by_coordinates.entries).max() <= 1e-12


@st.composite
def recorded_states(draw):
    """An unchecked state of dim 1-12 that records amplitudes, populations or both (a basis state)."""
    dim = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["amplitudes", "populations", "basis"]))
    if kind == "basis":
        return DensityMatrix.basis(dim, draw(st.integers(0, dim - 1)))
    trace = draw(st.floats(1.0 - 1e-6, 1.0 + 1e-6))
    if kind == "amplitudes":
        part = st.floats(-1.0, 1.0)
        psi = np.array(draw(st.lists(st.tuples(part, part), min_size=dim, max_size=dim))) @ [1.0, 1j]
        assume(np.linalg.norm(psi) > 0.1)
        return DensityMatrix._unchecked(amplitudes=psi * (np.sqrt(trace) / np.linalg.norm(psi)))
    # Entries down to -3e-9 before scaling put the smallest population on either side of the floor.
    p = np.array(draw(st.lists(st.floats(-3e-9, 1.0), min_size=dim, max_size=dim)))
    assume(p.sum() > 0.1)
    return DensityMatrix._unchecked(populations=p * (trace / p.sum()))


@settings(deadline=None, max_examples=200)
@given(state=recorded_states())
def test_a_form_reads_what_its_entries_give(state):
    by_form, by_entries = _diagnostics(state), _state_diagnostics(state.entries)
    assert np.abs(np.subtract(by_form, by_entries)).max() <= 1e-14
    assert (by_form[2] >= EIGENVALUE_FLOOR) == (by_entries[2] >= EIGENVALUE_FLOOR)
    report, dense = populations_detailed(state), populations_detailed(state.entries)
    assert report.values.tobytes() == dense.values.tobytes()
    assert (report.clamped_indices, report.min_raw_value) == (dense.clamped_indices, dense.min_raw_value)
    coherence = coherence_l1(state)
    assert coherence >= 0.0 and coherence_l1(state.entries) >= 0.0
    assert abs(coherence - coherence_l1(state.entries)) <= 1e-12


@st.composite
def maker_inputs(draw):
    """Amplitudes with norm within 1e-10 of 1, or populations down to -5e-13 with sum within 1e-9 of 1 (dim 1-12)."""
    dim = draw(st.integers(1, 12))
    if draw(st.booleans()):
        part = st.floats(-1.0, 1.0)
        psi = np.array(draw(st.lists(st.tuples(part, part), min_size=dim, max_size=dim))) @ [1.0, 1j]
        assume(np.linalg.norm(psi) > 0.1)
        return DensityMatrix.pure, psi * (draw(st.floats(1.0 - 9e-11, 1.0 + 9e-11)) / np.linalg.norm(psi))
    p = np.array(draw(st.lists(st.floats(-5e-13, 1.0), min_size=dim, max_size=dim)))
    assume(p.sum() > 0.6)
    return DensityMatrix.from_populations, p * (draw(st.floats(1.0 - 9e-10, 1.0 + 9e-10)) / p.sum())


@settings(deadline=None, max_examples=200)
@given(drawn=maker_inputs())
def test_the_form_makers_return_states_within_the_construction_tolerances(drawn):
    # pure and from_populations divide by the norm or sum they measured, so
    # they return their form without a second check; this is why none is needed.
    make, form = drawn
    state = make(form)
    trace_drift, herm_drift, min_eig = _diagnostics(state)
    assert trace_drift <= 1e-12 and herm_drift <= 1e-12 and min_eig >= -1e-9
    DensityMatrix(state.entries)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    weights = draw(st.lists(positive, min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple(edges), tuple(weights))


def text_of(g: Graph) -> str:
    lines = [f"vertices {g.n_vertices}"]
    lines += [f"{u} {v} {w!r}" for (u, v), w in zip(g.edges, g.weights)]
    return "\n".join(lines) + "\n"


tokens = st.text(string.ascii_letters + string.digits + "+-._", min_size=1, max_size=6)


def _not_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


def _not_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


def junk_lines(n: int):
    """Edge lines that are invalid on their own in a graph of n vertices."""
    vertex = st.integers(0, n - 1)
    out_of_range = st.one_of(st.integers(n, 10**6), st.integers(-(10**6), -1))
    distinct = st.tuples(vertex, vertex).filter(lambda uv: uv[0] != uv[1])
    bad_weight = st.one_of(
        st.sampled_from(["0", "-0.0", "-1.5", "nan", "inf", "-inf", "1e999"]),
        tokens.filter(_not_float),
    )
    return st.one_of(
        tokens,
        st.lists(tokens, min_size=4, max_size=6).map(" ".join),
        st.tuples(tokens.filter(_not_int), vertex).map(lambda t: f"{t[0]} {t[1]}"),
        st.tuples(vertex, out_of_range, st.booleans()).map(lambda t: f"{t[0]} {t[1]}" if t[2] else f"{t[1]} {t[0]}"),
        vertex.map(lambda u: f"{u} {u}"),
        st.tuples(distinct, bad_weight).map(lambda t: f"{t[0][0]} {t[0][1]} {t[1]}"),
    )


@given(g=graphs())
def test_edge_list_text_round_trips(g):
    # Graph equality compares the weights exactly.
    assert parse_edge_list(text_of(g)) == g


@given(g=graphs(), data=st.data())
def test_junk_line_is_refused_naming_its_line(g, data):
    lines = text_of(g).splitlines()
    position = data.draw(st.integers(1, len(lines)))
    junk = data.draw(junk_lines(g.n_vertices))
    lines.insert(position, junk)
    # Every exception other than ValueError fails the test.
    try:
        parse_edge_list("\n".join(lines))
    except ValueError as exc:
        assert str(exc).startswith(f"line {position + 1}: "), (junk, str(exc))
    else:
        raise AssertionError(f"junk line {junk!r} was accepted")


@given(g=graphs(), data=st.data())
def test_graph_ignores_edge_order_and_orientation(g, data):
    order = data.draw(st.permutations(range(len(g.edges))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    edges = tuple(g.edges[i][::-1] if flip else g.edges[i] for i, flip in zip(order, flips))
    weights = tuple(g.weights[i] for i in order)
    assert Graph(g.n_vertices, edges, weights) == g


@st.composite
def custom_stacks(draw):
    """A (count, dim, dim) complex stack with zero entries and all-zero operators."""
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(0, 4))
    entry = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    flat = draw(st.lists(entry, min_size=count * dim * dim, max_size=count * dim * dim))
    stack = np.array(flat, dtype=complex).reshape(count, dim, dim)
    stack[sorted(draw(st.sets(st.integers(0, count - 1))) if count else [])] = 0.0
    return stack


@given(stack=custom_stacks(), tag=st.sampled_from(["custom", "edge-local", "global", "empty"]), data=st.data())
def test_jump_set_triplets_round_trip_and_rebuild_the_matrices(stack, tag, data):
    count, dim = stack.shape[0], stack.shape[2]
    # Every nonzero entry plus some explicit zeros, in a random order.
    zeros = np.argwhere(stack == 0)
    extra = sorted(data.draw(st.sets(st.integers(0, len(zeros) - 1)))) if len(zeros) else []
    where = np.concatenate([np.argwhere(stack != 0), zeros[extra]])
    where = where[np.array(data.draw(st.permutations(range(len(where)))), dtype=int)]
    ls = JumpOperatorSet(dim, count, *where.T, stack[tuple(where.T)], tag)

    again = JumpOperatorSet.from_dense(dim, ls.operators, tag)
    assert again.count == ls.count == count
    for name in ("number", "rows", "cols", "values"):
        assert np.array_equal(getattr(again, name), getattr(ls, name)), name
    assert np.array_equal(ls.stacked(), stack)
    expected = sum((op.conj().T @ op for op in stack), np.zeros((dim, dim), dtype=complex))
    assert np.abs(ls.sparse_overlap_sum().toarray() - expected).max() <= 1e-13 * (1.0 + np.abs(expected).max())
