"""Property tests of CLI time grids on random connected graphs.

Hypothesis draws a connected weighted graph (2-8 vertices), a built-in
regime with its option, a start vertex, omega in [0, 1] (both endpoints
always in play, so the real and the complex arithmetic routes both run)
and a short, unordered time grid. Every state the grid's forward chain
reaches must meet the three state budgets, and every point must agree
with propagating from the start state directly.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qsw.cli as cli
from qsw.evolution import (
    EIGENVALUE_FLOOR,
    HERMITICITY_BUDGET,
    TRACE_BUDGET,
    DensityMatrix,
    build_liouvillian,
    coherence_l1,
    populations,
    propagate_detailed,
)
from qsw.graph import from_edge_list


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
# A subnormal t only makes scipy's expm_multiply warn about its own scaling; leave it out.
time_grids = st.lists(st.floats(0.0, 2.0, allow_subnormal=False), min_size=2, max_size=4)


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
    assert len(reached) == len(ts)
    assert all(_within_budgets(arr) for arr in reached)

    h, ls = cli._build_operators(src, args)
    liou = build_liouvillian(h, ls, omega)
    rho0 = DensityMatrix.basis(graph.n_vertices, origin)
    assert [r["t"] for r in results] == ts
    for r in results:
        state, _ = propagate_detailed(rho0, liou, r["t"])
        assert np.abs(np.array(r["populations"]) - populations(state)).max() <= 1e-12
        assert abs(r["coherence_l1"] - coherence_l1(state)) <= 1e-12
