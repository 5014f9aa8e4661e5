"""Graph construction, generators, and edge-list parsing."""

import numpy as np
import pytest

import qsw.graph
from qsw.graph import (
    GeneratorMatrix,
    Graph,
    LineIndexMap,
    build_line,
    classical_generator,
    from_edge_list,
    parse_edge_list,
    validate_generator,
)
from qsw.discrete import StochasticMatrix
from qsw.evolution import DensityMatrix
from qsw.operators import Hamiltonian


class TestGraph:
    def test_edges_are_canonicalized(self):
        g = Graph(3, ((2, 1), (1, 0)), (1.0, 1.0))
        assert g.edges == ((0, 1), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),), (1.0,))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)), (1.0, 1.0))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),), (1.0,))

    def test_rejects_fractional_vertex(self):
        # Once truncated silently to the edges (0, 1) and (1, 2).
        with pytest.raises(ValueError, match=r"edge \(0.5, 1.7\): vertices must be integers"):
            from_edge_list(3, [(0.5, 1.7), (1, 2)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1),), (0.0,))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1),), (-2.0,))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="graph needs at least one vertex"):
            Graph(0, (), ())

    def test_rejects_edges_and_weights_of_unequal_length(self):
        with pytest.raises(ValueError, match="edges and weights must have equal length"):
            Graph(3, ((0, 1), (1, 2)), (1.0,))

    def test_rejects_non_finite_weight(self):
        for w in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                Graph(3, ((0, 1),), (w,))
        with pytest.raises(ValueError, match="finite"):
            build_line(5, float("inf"))

    def test_neighbors_and_degree(self):
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.neighbors(2) == (0,)

    def test_weight_matrix(self):
        g = from_edge_list(3, [(0, 1, 2.5), (1, 2)])
        w = g.weight_matrix()
        assert w[0, 1] == w[1, 0] == 2.5
        assert w[1, 2] == w[2, 1] == 1.0
        assert w[0, 2] == 0.0
        assert np.all(np.diag(w) == 0.0)


class TestBuildLine:
    def test_structure_and_index_map(self):
        g, lmap = build_line(7, 1.5)
        assert g.n_vertices == 7
        assert len(g.edges) == 6
        assert all(w == 1.5 for w in g.weights)
        assert lmap.half_width == 3
        assert lmap.center == 3
        assert lmap.index_of(0) == 3
        assert lmap.index_of(-3) == 0
        assert lmap.position_of(6) == 3
        assert list(lmap.positions) == [-3, -2, -1, 0, 1, 2, 3]

    def test_round_trip(self):
        _, lmap = build_line(11, 1.0)
        for pos in range(-5, 6):
            assert lmap.position_of(lmap.index_of(pos)) == pos

    def test_rejects_even_or_small_or_bad_gamma(self):
        with pytest.raises(ValueError):
            build_line(10, 1.0)
        with pytest.raises(ValueError):
            build_line(1, 1.0)
        with pytest.raises(ValueError):
            build_line(5, 0.0)

    @pytest.mark.parametrize("n_sites", [4, 1, 0, -1, 5.0])
    def test_index_map_refuses_all_but_odd_integers_from_3(self, n_sites):
        # LineIndexMap(4) once mapped 4 sites to 3 positions, and LineIndexMap(0) had half width -1.
        with pytest.raises(ValueError, match=rf"^n_sites must be odd and >= 3, got {n_sites}$"):
            LineIndexMap(n_sites)

    def test_index_map_accepts_numpy_integers(self):
        assert list(LineIndexMap(np.int64(3)).positions) == [-1, 0, 1]

    def test_index_out_of_range(self):
        _, lmap = build_line(5, 1.0)
        with pytest.raises(IndexError):
            lmap.index_of(3)
        with pytest.raises(IndexError):
            lmap.position_of(5)
        # A fractional position or index was once shifted, not refused.
        with pytest.raises(IndexError, match=r"index position=0.5 is not an integer in \[-2, 3\)"):
            lmap.index_of(0.5)
        with pytest.raises(IndexError, match=r"index index=1.5 is not an integer in \[0, 5\)"):
            lmap.position_of(1.5)

    def test_integral_values_map_to_ints(self):
        _, lmap = build_line(5, 1.0)
        assert type(lmap.index_of(2.0)) is int and lmap.index_of(2.0) == 4
        assert type(lmap.position_of(np.int64(0))) is int and lmap.position_of(np.int64(0)) == -2


class TestClassicalGenerator:
    def test_three_site_line_matrix(self):
        g, _ = build_line(3, 1.0)
        m = classical_generator(g)
        expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        assert np.array_equal(m.entries, expected)

    def test_columns_sum_to_zero(self):
        g = from_edge_list(5, [(0, 1, 0.3), (1, 2, 2.0), (2, 3), (3, 4, 0.7), (0, 4)])
        m = classical_generator(g)
        assert np.abs(m.entries.sum(axis=0)).max() <= 1e-14

    def test_off_diagonal_equals_weights(self):
        g = from_edge_list(3, [(0, 2, 4.0)])
        m = classical_generator(g)
        assert m.entries[0, 2] == 4.0
        assert m.entries[2, 0] == 4.0
        assert m.entries[1, 1] == 0.0


class TestValidateGenerator:
    def test_valid_generator_passes(self):
        g, _ = build_line(5, 2.0)
        report = validate_generator(classical_generator(g))
        assert report.passed
        assert report.max_column_sum_deviation <= 1e-14
        assert report.most_negative_off_diagonal >= 0.0

    def test_negative_off_diagonal_fails(self):
        report = validate_generator(GeneratorMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]])))
        assert not report.passed
        assert report.most_negative_off_diagonal == -1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_is_refused_at_construction(self, value):
        # Invalid generators are reported, but a non-finite one would pass every tolerance check.
        with pytest.raises(ValueError, match=r"generator entry \(0, 1\) is not finite"):
            GeneratorMatrix(np.array([[-1.0, value], [1.0, 0.0]]))

    @pytest.mark.parametrize(
        "constructor, name",
        [(GeneratorMatrix, "generator"), (Hamiltonian, "Hamiltonian"), (StochasticMatrix, "stochastic matrix"), (DensityMatrix, "density matrix")],
    )
    def test_every_matrix_intake_refuses_the_empty_matrix(self, constructor, name):
        # No walk has a 0 x 0 matrix; numpy's reductions would fail on it with no location.
        with pytest.raises(ValueError, match=rf"{name} must not be empty, got shape \(0, 0\)"):
            constructor(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "constructor, name",
        [(GeneratorMatrix, "generator"), (Hamiltonian, "Hamiltonian"), (StochasticMatrix, "stochastic matrix"), (DensityMatrix, "density matrix")],
    )
    def test_every_matrix_intake_refuses_a_non_square_matrix(self, constructor, name):
        with pytest.raises(ValueError, match=rf"{name} must be square, got shape \(2, 3\)"):
            constructor(np.zeros((2, 3)))

    def test_reference_graph_of_another_size_is_refused(self):
        g, _ = build_line(5, 1.0)
        h, _ = build_line(3, 1.0)
        with pytest.raises(ValueError, match="reference graph dimension does not match generator"):
            validate_generator(classical_generator(g), graph=h)

    def test_column_sum_violation_fails(self):
        report = validate_generator(GeneratorMatrix(np.array([[-1.0, 0.0], [1.0, 0.5]])))
        assert not report.passed
        assert report.max_column_sum_deviation == pytest.approx(0.5)

    def test_sparsity_check_against_graph(self):
        g = from_edge_list(3, [(0, 1)])
        m = classical_generator(g)
        assert validate_generator(m, graph=g).sparsity_matches
        wrong = np.array(m.entries)
        wrong[0, 2] = wrong[2, 0] = 0.5
        wrong[0, 0] -= 0.5
        wrong[2, 2] -= 0.5
        report = validate_generator(GeneratorMatrix(wrong), graph=g)
        assert not report.sparsity_matches
        assert not report.passed


class TestEdgeListParsing:
    def test_full_round_trip(self):
        text = """# walk graph
vertices 4

0 1
1 2 0.5   # weighted edge
2 3
"""
        g = parse_edge_list(text)
        assert g.n_vertices == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.weights[1] == 0.5
        assert g.weights[0] == 1.0

    def test_missing_header(self):
        with pytest.raises(ValueError, match="vertices"):
            parse_edge_list("0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertices four\n0 1\n", "line 1: vertex count 'four' is not an integer"),
            ("# empty\nvertices 0\n", "line 2: vertex count must be at least 1, got 0"),
            ("# no graph\n\n", "edge list has no 'vertices N' header"),
        ],
        ids=["vertex-count", "no-vertices", "no-header"],
    )
    def test_header_errors_are_located(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_edge_list(text)

    def test_zero_weight_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("vertices 3\n0 1\n1 2 0\n")

    def test_infinite_weight_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 3: edge weight must be finite"):
            parse_edge_list("vertices 3\n0 1\n1 2 inf\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("vertices 2\n0 5\n")

    def test_junk_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("vertices 2\nzero one\n")

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match=r"line 3: duplicate edge \(0, 1\)"):
            parse_edge_list("vertices 3\n0 1\n1 0 2.0\n")


class TestVertexBound:
    """Tests lower the bound, so that none builds a large graph, even where the bound is missing."""

    def test_the_bound_admits_its_own_count(self):
        n = qsw.graph._MAX_VERTICES
        assert Graph(n, (), ()).n_vertices == n
        with pytest.raises(ValueError, match=f"graph of {n + 1} vertices is past the bound of {n} vertices"):
            Graph(n + 1, (), ())

    def test_the_largest_workload_graph_is_far_inside(self):
        # The dense layer peaks at 64 bytes per vertex^2: line:201's 2.7 MB is under 1 % of the bound's.
        assert 100 * 201**2 < qsw.graph._MAX_VERTICES**2

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: build_line(100001, 1.0), "graph of 100001 vertices is past the bound of 10 vertices"),
            (lambda: from_edge_list(100001, [(0, 1)]), "graph of 100001 vertices is past the bound of 10 vertices"),
            (lambda: parse_edge_list("# big\nvertices 100001\n0 0\n"), "line 2: vertex count 100001 is past the bound of 10 vertices"),
        ],
        ids=["line", "graph", "edge-list"],
    )
    def test_a_refusal_allocates_nothing_of_size_n(self, monkeypatch, traced_peak, make, message):
        # The edge list is refused at its header, before its self-loop on line 3 is read.
        monkeypatch.setattr(qsw.graph, "_MAX_VERTICES", 10)

        def refused():
            with pytest.raises(ValueError, match=message):
                make()

        _, peak = traced_peak(refused)
        assert peak < 100001


class TestFromEdgeList:
    def test_mixed_pair_and_triple(self):
        g = from_edge_list(3, [(0, 1), (1, 2, 3.0)])
        assert g.weights == (1.0, 3.0)

    def test_bad_tuple_length(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 1, 1.0, 9.0)])
