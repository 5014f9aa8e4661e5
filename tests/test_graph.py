"""Graph construction, generators, and edge-list parsing."""

import numpy as np
import pytest

from qsw.graph import (
    GeneratorMatrix,
    Graph,
    build_line,
    classical_generator,
    from_edge_list,
    parse_edge_list,
    validate_generator,
)


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

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1),), (0.0,))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1),), (-2.0,))

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
        assert g.degree(0) == 3
        assert g.degree(3) == 1

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

    def test_index_out_of_range(self):
        _, lmap = build_line(5, 1.0)
        with pytest.raises(IndexError):
            lmap.index_of(3)
        with pytest.raises(IndexError):
            lmap.position_of(5)


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
        with pytest.raises(ValueError):
            parse_edge_list("vertices 3\n0 1\n1 0 2.0\n")


class TestFromEdgeList:
    def test_mixed_pair_and_triple(self):
        g = from_edge_list(3, [(0, 1), (1, 2, 3.0)])
        assert g.weights == (1.0, 3.0)

    def test_bad_tuple_length(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 1, 1.0, 9.0)])
