"""Jump-operator constructions, the transition tensor, and the axiom audit.

The central cross-check here is dual-route: tensor_element computes rates
from the index formula, while lindblad_rhs computes the same physics by
matrix products. Feeding basis matrices through the latter must reproduce
the former entry by entry.
"""

import dataclasses

import numpy as np
import pytest

import qsw.cli
import qsw.evolution
import qsw.operators
from qsw.evolution import lindblad_rhs
from qsw.graph import GeneratorMatrix, Graph, build_line, classical_generator, from_edge_list
from qsw.operators import (
    EDGE_LOCAL,
    GLOBAL,
    Hamiltonian,
    JumpOperatorSet,
    _transition_tensor,
    audit_axioms,
    axiom_rate,
    edge_jump_operators,
    empty_jump_operators,
    global_jump_operator,
    hamiltonian_from_generator,
    tensor_element,
)


def line_setup(n_sites, gamma=1.0):
    g, _ = build_line(n_sites, gamma)
    m = classical_generator(g)
    return g, m, hamiltonian_from_generator(m)


def all_regimes(m):
    return {
        "edge-local": edge_jump_operators(m),
        "global": global_jump_operator(m),
        "empty": empty_jump_operators(m.dim),
    }


class TestHamiltonian:
    def test_from_generator(self):
        _, m, h = line_setup(3)
        assert np.array_equal(h.entries, m.entries.astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Hamiltonian([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_asymmetric_generator(self):
        m = GeneratorMatrix(np.array([[-1.0, 0.5], [1.0, -0.5]]))
        with pytest.raises(ValueError):
            hamiltonian_from_generator(m)

    def test_entries_read_only(self):
        _, _, h = line_setup(3)
        with pytest.raises(ValueError):
            h.entries[0, 0] = 9.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, value):
        entries = np.zeros((3, 3))
        entries[1, 2] = entries[2, 1] = value
        with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
            Hamiltonian(entries)


class TestJumpOperatorConstructions:
    def test_edge_local_sqrt_amplitudes(self):
        g = from_edge_list(2, [(0, 1, 4.0)])
        ls = edge_jump_operators(classical_generator(g))
        assert ls.regime_tag == "edge-local"
        assert len(ls.operators) == 2
        entries = sorted((int(op.argmax() // 2), int(op.argmax() % 2)) for op in ls.operators)
        assert entries == [(0, 1), (1, 0)]
        for op in ls.operators:
            assert np.abs(op).max() == pytest.approx(2.0)

    def test_edge_local_literal_amplitudes(self):
        g = from_edge_list(2, [(0, 1, 4.0)])
        ls = edge_jump_operators(classical_generator(g), amplitude="literal")
        for op in ls.operators:
            assert np.abs(op).max() == pytest.approx(4.0)

    def test_sqrt_rejects_negative_rate(self):
        m = GeneratorMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(ValueError):
            edge_jump_operators(m)
        edge_jump_operators(m, amplitude="literal")

    def test_unknown_amplitude(self):
        _, m, _ = line_setup(3)
        with pytest.raises(ValueError):
            edge_jump_operators(m, amplitude="modulus")

    def test_global_full_keeps_diagonal(self):
        _, m, _ = line_setup(3)
        ls = global_jump_operator(m)
        assert ls.regime_tag == "global"
        assert len(ls.operators) == 1
        assert np.array_equal(ls.operators[0], m.entries.astype(complex))

    def test_unknown_parts(self):
        _, m, _ = line_setup(3)
        with pytest.raises(ValueError, match=r"parts must be 'full' or 'offdiagonal', got 'diagonal'"):
            global_jump_operator(m, parts="diagonal")

    def test_global_offdiagonal_zeroes_diagonal(self):
        _, m, _ = line_setup(3)
        ls = global_jump_operator(m, parts="offdiagonal")
        op = ls.operators[0]
        assert np.all(np.diag(op) == 0.0)
        assert op[0, 1] == m.entries[0, 1]

    def test_empty_set(self):
        ls = empty_jump_operators(4)
        assert ls.regime_tag == "empty"
        assert ls.operators == ()
        assert np.array_equal(ls.sparse_overlap_sum().toarray(), np.zeros((4, 4)))

    def test_regime_tag_validation(self):
        with pytest.raises(ValueError):
            JumpOperatorSet.from_dense(2, (), "bespoke")

    def test_operator_shape_validation(self):
        with pytest.raises(ValueError):
            JumpOperatorSet.from_dense(2, (np.zeros((3, 3)),), "custom")

    def test_caller_arrays_stay_writeable_and_frozen_ones_are_shared(self):
        op = np.zeros((2, 2), dtype=complex)
        op[1, 0] = 2.0
        ls = JumpOperatorSet.from_dense(2, (op,), "custom")
        h_entries = np.zeros((2, 2), dtype=complex)
        h = Hamiltonian(h_entries)
        values = np.array([3.0 + 0j])
        raw = JumpOperatorSet(2, 1, np.array([0]), np.array([0]), np.array([1]), values, "custom")
        assert op.flags.writeable and h_entries.flags.writeable and values.flags.writeable
        op[0, 1] = 1.0
        h_entries[0, 0] = 1.0
        values[0] = 4.0
        assert ls.operators[0][0, 1] == 0.0 and h.entries[0, 0] == 0.0 and raw.values[0] == 3.0
        # The stored triplets are read-only, so a set cannot change after its checks.
        for stored in (ls, raw, edge_jump_operators(line_setup(3)[1])):
            for arr in (stored.number, stored.rows, stored.cols, stored.values):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0


def dense_reference_sets(m):
    """The built-in sets as the per-pair dense loop built them before triplet storage, via from_dense."""
    a = m.entries
    sets = {}
    for amplitude in ("sqrt", "literal"):
        ops = []
        for row in range(m.dim):
            for col in range(m.dim):
                if row == col or a[row, col] == 0.0:
                    continue
                op = np.zeros((m.dim, m.dim), dtype=complex)
                op[row, col] = np.sqrt(a[row, col]) if amplitude == "sqrt" else a[row, col]
                ops.append(op)
        sets[("edge", amplitude)] = (JumpOperatorSet.from_dense(m.dim, ops, EDGE_LOCAL), edge_jump_operators(m, amplitude))
    for parts in ("full", "offdiagonal"):
        op = np.array(a, dtype=complex)
        if parts == "offdiagonal":
            np.fill_diagonal(op, 0.0)
        sets[("global", parts)] = (JumpOperatorSet.from_dense(m.dim, (op,), GLOBAL), global_jump_operator(m, parts))
    return sets


def triplets(ls):
    return ls.count, ls.number, ls.rows, ls.cols, ls.values


class TestTripletStorage:
    @pytest.mark.parametrize(
        "count, number, rows, cols, values, message",
        [
            (1, [0], [0], [3], [1.0], r"jump operator 0: entry \(0, 3\) is out of range"),
            (1, [0], [-1], [0], [1.0], r"jump operator 0: entry \(-1, 0\) is out of range"),
            (2, [0, 2], [0, 1], [1, 0], [1.0, 1.0], r"jump operator 2: entry \(1, 0\) is out of range"),
            (1, [0, 0], [0, 1], [1], [1.0, 1.0], "of one length"),
            (1, [0], [0], [1], [[1.0]], "of one length"),
            (1, [0.0], [0], [1], [1.0], "need integer number, rows, cols"),
            (2, [1, 0, 1], [0, 1, 0], [1, 2, 1], [1.0, 2.0, 0.0], r"jump operator 1: entry \(0, 1\) is given twice"),
            (2, [0, 1], [0, 2], [1, 0], [1.0, np.nan], r"jump operator 1 has non-finite entries: \(2, 0\)"),
            (1, [0], [1], [1], [complex(np.inf, 0.0)], r"jump operator 0 has non-finite entries: \(1, 1\)"),
            (2, [0, 1], [0, 2], [1, 1], [1e200, 1.0], r"K = sum_k L_k\^dag L_k overflows: .* of column 1 is not finite"),
            (-1, [], [], [], [], "nonnegative count"),
        ],
        ids=["column", "negative-row", "operator-number", "lengths", "values-2d", "float-index", "repeat", "nan", "inf", "overlap-overflow", "count"],
    )
    def test_constructor_refuses_bad_triplets_naming_the_entry(self, count, number, rows, cols, values, message):
        with pytest.raises(ValueError, match=message):
            JumpOperatorSet(3, count, number, rows, cols, values, "custom")

    def test_keeps_nonzeros_sorted_and_counts_all_zero_operators(self):
        ls = JumpOperatorSet(3, 4, [2, 0, 2, 1], [1, 2, 0, 0], [0, 1, 2, 0], [5.0, 1j, 2.0, 0.0], "custom")
        assert ls.count == 4
        assert ls.number.tolist() == [0, 2, 2]
        assert ls.rows.tolist() == [2, 0, 1]
        assert ls.cols.tolist() == [1, 2, 0]
        assert ls.values.tolist() == [1j, 2.0, 5.0]
        stack = ls.stacked()
        assert stack.shape == (4, 3, 3)
        assert not stack[1].any() and not stack[3].any()
        assert len(ls.operators) == 4

    @pytest.mark.parametrize("graph", ["line:7", "random"])
    def test_built_in_sets_match_the_dense_per_pair_reference(self, graph):
        if graph == "line:7":
            _, m, h = line_setup(7)
        else:
            rng = np.random.default_rng(77)
            edges = [(u, v, float(rng.uniform(0.3, 2.5))) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.5]
            m = classical_generator(from_edge_list(8, edges))
            h = hamiltonian_from_generator(m)
        for name, (reference, built) in dense_reference_sets(m).items():
            for expected, actual in zip(triplets(reference), triplets(built)):
                assert np.array_equal(expected, actual), name
            for omega in (0.0, 0.5, 1.0):
                old = qsw.evolution.build_liouvillian(h, reference, omega).matrix
                new = qsw.evolution.build_liouvillian(h, built, omega).matrix
                assert old.shape == new.shape and (old != new).nnz == 0, (name, omega)

    def test_explicit_zero_entry_adds_no_superoperator_entries(self):
        _, m, h = line_setup(5)
        rng = np.random.default_rng(3)
        values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bare = JumpOperatorSet(5, 2, [0, 0, 1, 1], [0, 1, 3, 4], [1, 2, 2, 3], values, "custom")
        padded = JumpOperatorSet(5, 2, [0, 0, 1, 1, 1], [0, 1, 3, 4, 2], [1, 2, 2, 3, 2], [*values, 0.0], "custom")
        for omega in (0.5, 1.0):
            a = qsw.evolution.build_liouvillian(h, bare, omega).matrix
            b = qsw.evolution.build_liouvillian(h, padded, omega).matrix
            assert a.nnz == b.nnz and (a != b).nnz == 0

    def test_production_path_never_densifies_the_set(self, monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("the production path must read the triplets, not a dense stack")

        _, m, h = line_setup(7)
        regimes = {**all_regimes(m), "custom": JumpOperatorSet(7, 2, [0, 1], [0, 3], [1, 2], [1.0, 0.5j], "custom")}
        monkeypatch.setattr(JumpOperatorSet, "stacked", refuse)
        for ls in regimes.values():
            for omega in (0.0, 0.5, 1.0):
                assert qsw.evolution.build_liouvillian(h, ls, omega).matrix.shape == (49, 49)
        argv = ["sweep", "--graph", "line:21:1", "--regime", "crw", "--omega", "0:1:3", "--output", str(tmp_path / "sweep.csv")]
        assert qsw.cli.main(argv) == 0


class TestTensorElement:
    def test_matches_rhs_on_basis_matrices(self):
        # Dual route: the tensor at full weight on both parts equals twice
        # the rhs at the midpoint mixing value, applied to basis matrices.
        g, m, h = line_setup(3)
        for ls in all_regimes(m).values():
            for b in range(3):
                for beta in range(3):
                    basis = np.zeros((3, 3), dtype=complex)
                    basis[b, beta] = 1.0
                    rhs = 2.0 * lindblad_rhs(h, ls, 0.5, basis)
                    for a in range(3):
                        for alpha in range(3):
                            elem = tensor_element(h, ls, a, alpha, b, beta)
                            assert elem.value == pytest.approx(rhs[a, alpha], abs=1e-12)

    def test_trace_preservation_columns(self):
        g, m, h = line_setup(5)
        for ls in all_regimes(m).values():
            for b in range(5):
                for beta in range(5):
                    total = sum(tensor_element(h, ls, a, a, b, beta).value for a in range(5))
                    assert abs(total) <= 1e-12

    def test_hermiticity_relation(self):
        g, m, h = line_setup(3)
        for ls in all_regimes(m).values():
            for idx in np.ndindex(3, 3, 3, 3):
                a, alpha, b, beta = (int(i) for i in idx)
                forward = tensor_element(h, ls, a, alpha, b, beta).value
                mirrored = tensor_element(h, ls, alpha, a, beta, b).value
                assert forward == pytest.approx(np.conj(mirrored), abs=1e-14)

    def test_empty_regime_has_no_population_transfer(self):
        _, m, h = line_setup(5)
        ls = empty_jump_operators(5)
        for a in range(5):
            for b in range(5):
                if a != b:
                    assert tensor_element(h, ls, a, a, b, b).value == 0.0

    def test_index_and_dimension_errors(self):
        _, m, h = line_setup(3)
        ls = edge_jump_operators(m)
        with pytest.raises(IndexError):
            tensor_element(h, ls, 3, 0, 0, 0)
        with pytest.raises(IndexError):
            tensor_element(h, ls, 0, 0, 0, -1)
        # A fractional index was once truncated to the element at its integer part.
        with pytest.raises(IndexError, match=r"index a=0.5 is not an integer in \[0, 3\)"):
            tensor_element(h, ls, 0.5, 0, 0, 0)
        with pytest.raises(IndexError, match=r"index m=1.9 is not an integer in \[0, 3\)"):
            axiom_rate(h, ls, 2, 1.9, 0.2)
        other = empty_jump_operators(4)
        with pytest.raises(ValueError):
            tensor_element(h, other, 0, 0, 0, 0)

    def test_returns_labeled_element(self):
        _, m, h = line_setup(3)
        elem = tensor_element(h, edge_jump_operators(m), 0, 1, 2, 1)
        assert (elem.a, elem.alpha, elem.b, elem.beta) == (0, 1, 2, 1)
        assert isinstance(elem.value, complex)


def random_custom_set(rng, dim):
    """A random Hermitian H and a dense complex three-operator custom set."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ops = tuple(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(3))
    return Hamiltonian((a + a.conj().T) / 2.0), JumpOperatorSet.from_dense(dim, ops, "custom")


class TestTransitionTensor:
    @staticmethod
    def assert_matches_per_tuple_route(h, ls):
        tensor = _transition_tensor(h.entries, ls, ls.sparse_overlap_sum().toarray())
        assert tensor.shape == (h.dim,) * 4
        for idx in np.ndindex(tensor.shape):
            assert abs(tensor[idx] - tensor_element(h, ls, *idx).value) <= 1e-14, idx

    def test_matches_tensor_element_on_line_for_all_regimes(self):
        _, m, h = line_setup(5)
        for ls in all_regimes(m).values():
            self.assert_matches_per_tuple_route(h, ls)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_matches_tensor_element_for_complex_custom_set(self, dim):
        h, ls = random_custom_set(np.random.default_rng(dim), dim)
        self.assert_matches_per_tuple_route(h, ls)

    @staticmethod
    def assert_equals_einsum_contraction(h, ls):
        # The reference contracts the dense operator stack; the two delta terms are added as in the tensor.
        stacked, overlap = ls.stacked(), ls.sparse_overlap_sum().toarray()
        expected = np.einsum("kab,kcd->acbd", stacked, stacked.conj())
        diag = np.arange(h.dim)
        expected[:, diag, :, diag] += -1j * h.entries - 0.5 * overlap
        expected[diag, :, diag, :] += (1j * h.entries - 0.5 * overlap).T
        assert np.array_equal(_transition_tensor(h.entries, ls, overlap), expected), ls.regime_tag

    @pytest.mark.parametrize("n_sites", [5, 9])
    def test_sparse_product_equals_einsum_for_built_in_regimes(self, n_sites):
        _, m, h = line_setup(n_sites, gamma=1.7)
        for ls in (*all_regimes(m).values(), edge_jump_operators(m, "literal"), global_jump_operator(m, "offdiagonal")):
            self.assert_equals_einsum_contraction(h, ls)

    @pytest.mark.parametrize("dim", [4, 5, 6, 7])
    def test_sparse_product_equals_einsum_for_overlapping_custom_sets(self, dim):
        # Several operators share most positions, so most jump entries sum several products.
        rng = np.random.default_rng(1000 + dim)
        h, dense = random_custom_set(rng, dim)
        self.assert_equals_einsum_contraction(h, dense)
        for count in (2, 5):
            shape = (count, dim, dim)
            ops = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (rng.random(shape) < 0.6)
            self.assert_equals_einsum_contraction(h, JumpOperatorSet.from_dense(dim, [*ops, np.zeros((dim, dim))], "custom"))


class TestAxiomRate:
    def test_scalar_readers_build_no_dense_stack(self, traced_peak):
        # line:151 crw has 300 jump operators, whose dense (count, dim, dim) stack alone is 109 MB.
        _, m, h = line_setup(151)
        ls = edge_jump_operators(m)
        rate, rate_peak = traced_peak(lambda: axiom_rate(h, ls, 2, 75, 76))
        element, element_peak = traced_peak(lambda: tensor_element(h, ls, 75, 75, 76, 76))
        assert rate.value == pytest.approx(1.0) and element.value == pytest.approx(1.0)
        assert rate_peak < 2 * 2**20 and element_peak < 2 * 2**20, (rate_peak, element_peak)

    def test_each_axiom_matches_tensor_at_canonical_tuple(self):
        _, m, h = line_setup(5)
        for ls in all_regimes(m).values():
            for axiom, (mm, nn, ll) in [
                (1, (2, None, None)),
                (2, (2, 1, None)),
                (3, (2, 3, None)),
                (4, (2, 1, None)),
                (5, (2, 1, 3)),
                (6, (2, 3, 1)),
            ]:
                rate = axiom_rate(h, ls, axiom, mm, n=nn, l=ll)
                direct = tensor_element(h, ls, rate.a, rate.alpha, rate.b, rate.beta)
                assert rate.value == pytest.approx(direct.value, abs=1e-14)

    def test_population_transfer_is_classical_rate(self):
        _, m, h = line_setup(5, gamma=1.7)
        ls = edge_jump_operators(m)
        rate = axiom_rate(h, ls, 2, m=2, n=3)
        assert rate.value == pytest.approx(1.7, abs=1e-14)

    def test_hamiltonian_part_vanishes_without_h(self):
        g, m, _ = line_setup(3)
        h0 = Hamiltonian(np.zeros((3, 3)))
        h1 = hamiltonian_from_generator(m)
        ls = edge_jump_operators(m)
        # With the coherent part removed, axioms 3 and 5 lose their i<m|H|n>
        # pieces entirely (edge-local overlaps are diagonal), and axiom 4
        # loses only its imaginary part.
        assert axiom_rate(h0, ls, 3, 0, n=1).value == 0.0
        assert axiom_rate(h1, ls, 3, 0, n=1).value == pytest.approx(1j * h1.entries[0, 1], abs=1e-14)
        four_quiet = axiom_rate(h0, ls, 4, 0, n=1).value
        four_full = axiom_rate(h1, ls, 4, 0, n=1).value
        assert four_quiet.imag == 0.0
        assert four_full.real == pytest.approx(four_quiet.real, abs=1e-14)
        assert four_full.imag == pytest.approx(-h1.entries[0, 0].real + h1.entries[1, 1].real, abs=1e-14)

    def test_qw_regime_axioms_1_2_6_all_zero(self):
        _, m, h = line_setup(5)
        ls = empty_jump_operators(5)
        for mm in range(5):
            assert axiom_rate(h, ls, 1, mm).value == 0.0
            for nn in range(5):
                if nn == mm:
                    continue
                assert axiom_rate(h, ls, 2, mm, n=nn).value == 0.0
                for ll in range(5):
                    if ll in (mm, nn):
                        continue
                    assert axiom_rate(h, ls, 6, mm, n=nn, l=ll).value == 0.0

    def test_validation(self):
        _, m, h = line_setup(3)
        ls = edge_jump_operators(m)
        with pytest.raises(ValueError):
            axiom_rate(h, ls, 7, 0, n=1)
        with pytest.raises(ValueError):
            axiom_rate(h, ls, 2, 1, n=1)
        with pytest.raises(ValueError):
            axiom_rate(h, ls, 3, 0)
        with pytest.raises(ValueError):
            axiom_rate(h, ls, 5, 0, n=1)
        with pytest.raises(ValueError):
            axiom_rate(h, ls, 5, 0, n=1, l=1)
        with pytest.raises(IndexError):
            axiom_rate(h, ls, 2, 0, n=5)

    @pytest.mark.parametrize(
        "axiom, indices, error, message",
        [
            (1, {"m": None}, ValueError, r"^axiom 1 requires m$"),
            (4, {"m": 0}, ValueError, r"^axiom 4 requires n$"),
            (6, {"m": 0, "n": 1}, ValueError, r"^axiom 6 requires l$"),
            (5, {"m": 0, "n": 1, "l": 3}, IndexError, r"^index l=3 is not an integer in \[0, 3\)$"),
            (2, {"m": 2, "n": 2}, ValueError, r"^n = 2 repeats m; m, n must be pairwise distinct$"),
            (5, {"m": 0, "n": 1, "l": 1}, ValueError, r"^l = 1 repeats n; m, n, l must be pairwise distinct$"),
        ],
        ids=["missing-m", "missing-n", "missing-l", "l-out-of-range", "n-repeats-m", "l-repeats-n"],
    )
    def test_refusals_name_the_index(self, axiom, indices, error, message):
        # Each axiom reads m alone, an edge (m, n) or a wedge (m, n, l), and only those indices.
        _, m, h = line_setup(3)
        with pytest.raises(error, match=message):
            axiom_rate(h, edge_jump_operators(m), axiom, **indices)

    def test_reads_only_the_indices_of_its_neighborhood(self):
        _, m, h = line_setup(3)
        ls = edge_jump_operators(m)
        assert axiom_rate(h, ls, 1, 0, n=0, l=7) == axiom_rate(h, ls, 1, 0)
        assert axiom_rate(h, ls, 4, 0, n=1, l=0) == axiom_rate(h, ls, 4, 0, n=1)


class TestAuditAxioms:
    def test_passes_on_line_for_all_regimes(self):
        g, m, h = line_setup(5)
        for tag, ls in all_regimes(m).items():
            report = audit_axioms(h, ls, g)
            assert report.passed, f"{tag}: {report.failures[:3]}"
            assert report.tuples_evaluated == 625
            assert report.max_formula_deviation <= 1e-10
            assert report.max_hermiticity_deviation <= 1e-10
            assert report.max_superoperator_deviation <= 1e-10
            assert report.max_nonadjacent_transfer == 0.0

    def test_axiom6_activity_by_regime(self):
        g, m, h = line_setup(5)
        regimes = all_regimes(m)
        assert audit_axioms(h, regimes["edge-local"], g).axiom6_max_abs == 0.0
        assert audit_axioms(h, regimes["empty"], g).axiom6_max_abs == 0.0
        glob = audit_axioms(h, regimes["global"], g)
        assert glob.axiom6_max_abs > 0.0
        assert glob.axiom6_nonzero

    def test_move_locality_checked_only_where_it_holds(self):
        g, m, h = line_setup(5)
        regimes = all_regimes(m)
        assert audit_axioms(h, regimes["edge-local"], g).move_locality_checked
        assert audit_axioms(h, regimes["edge-local"], g).max_nonlocal_element == 0.0
        assert audit_axioms(h, regimes["empty"], g).move_locality_checked
        assert not audit_axioms(h, regimes["global"], g).move_locality_checked

    def test_catches_operator_that_jumps_off_graph(self):
        g, m, h = line_setup(3)
        rogue = np.zeros((3, 3), dtype=complex)
        rogue[0, 2] = 1.0
        ls = JumpOperatorSet.from_dense(3, (rogue,), "custom")
        report = audit_axioms(h, ls, g)
        assert not report.passed
        kinds = {f.kind for f in report.failures}
        assert "non-adjacent-transfer" in kinds
        offending = [f for f in report.failures if f.kind == "non-adjacent-transfer"]
        assert (0, 0, 2, 2) in [f.indices for f in offending]

    def test_rogue_edge_local_operator_lists_nonlocal_elements_in_order(self):
        # Tagged edge-local, so the move-locality mask runs; (0, 2) is not
        # an edge of the 3-site line, (2, 1) is.
        g, m, h = line_setup(3)
        rogue = np.zeros((3, 3), dtype=complex)
        rogue[0, 2] = 1.0
        rogue[2, 1] = 0.5 - 0.25j
        report = audit_axioms(h, JumpOperatorSet.from_dense(3, (rogue,), EDGE_LOCAL), g)
        assert not report.passed
        assert report.move_locality_checked
        listed = [(f.kind, f.indices, f.deviation) for f in report.failures]
        cross = abs(0.5 - 0.25j)
        assert listed == [
            ("non-adjacent-transfer", (0, 0, 2, 2), 1.0),
            ("nonlocal-element", (0, 0, 2, 2), 1.0),
            ("nonlocal-element", (0, 2, 2, 1), pytest.approx(cross, abs=1e-15)),
            ("nonlocal-element", (2, 0, 1, 2), pytest.approx(cross, abs=1e-15)),
        ]
        assert report.max_nonlocal_element == 1.0
        assert all(type(i) is int for f in report.failures for i in f.indices)

    def test_checks_the_production_superoperator(self, monkeypatch):
        g, m, h = line_setup(5)
        ls = edge_jump_operators(m)
        assert audit_axioms(h, ls, g).max_superoperator_deviation <= 1e-14
        build = qsw.evolution.build_liouvillian

        def skewed_build(h, ls, omega):
            liou = build(h, ls, omega)
            return dataclasses.replace(liou, matrix=liou.matrix * (1.0 + 1e-6))

        monkeypatch.setattr(qsw.evolution, "build_liouvillian", skewed_build)
        report = audit_axioms(h, ls, g)
        assert not report.passed
        assert [f.kind for f in report.failures] == ["superoperator"]
        assert report.max_superoperator_deviation > 1e-7
        assert report.failures[0].deviation == report.max_superoperator_deviation

    def test_does_not_evaluate_the_tensor_tuple_by_tuple(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit must build the tensor in one contraction")

        monkeypatch.setattr(qsw.operators, "_jump_term", refuse)
        # The neighborhoods come from the adjacency matrix, not a walk over each vertex's neighbors.
        monkeypatch.setattr(Graph, "neighbors", refuse)
        g, m, h = line_setup(5)
        for ls in all_regimes(m).values():
            assert audit_axioms(h, ls, g).passed

    def test_axiom_failures_are_listed_axiom_by_axiom(self, monkeypatch):
        # Each axiom's canonical tuples, then their conjugates, each in lexicographic (m, n, l) order.
        original = qsw.operators._axiom

        def shifted(h, jump, overlap, axiom, *indices):
            element, rate = original(h, jump, overlap, axiom, *indices)
            return element, rate + (1j if axiom in (1, 3) else 0.0)

        monkeypatch.setattr(qsw.operators, "_axiom", shifted)
        g, m, h = line_setup(3)
        report = audit_axioms(h, edge_jump_operators(m), g)
        assert [(f.kind, f.indices) for f in report.failures] == [
            *[("axiom-1", (v, v, v, v)) for v in (0, 1, 2, 0, 1, 2)],
            *[("axiom-3", idx) for idx in ((0, 1, 0, 0), (1, 0, 1, 1), (1, 2, 1, 1), (2, 1, 2, 2))],
            *[("axiom-3", idx) for idx in ((1, 0, 0, 0), (0, 1, 1, 1), (2, 1, 1, 1), (1, 2, 2, 2))],
        ]
        assert all(f.deviation == pytest.approx(1.0) for f in report.failures)
        assert report.comparisons == 2 * (3 + 3 * 4 + 2 * 2)

    def test_passes_on_criterion_7_random_graphs(self):
        # Criterion 7's 50 seeded graphs (2-12 vertices, possibly
        # disconnected), drawn with its draw sequence so the graphs are the same.
        from test_acceptance import _random_density, _random_graph

        rng = np.random.default_rng(20250819)
        for _ in range(50):
            g = _random_graph(rng)
            rng.uniform(0.0, 1.0)
            _random_density(rng, g.n_vertices)
            m = classical_generator(g)
            h = hamiltonian_from_generator(m)
            for tag, ls in all_regimes(m).items():
                report = audit_axioms(h, ls, g)
                assert report.passed, f"{tag} on {g.n_vertices} vertices: {report.failures[:3]}"
                assert report.tuples_evaluated == g.n_vertices**4

    def test_report_serializes_to_json_types(self):
        import json

        g, m, h = line_setup(5)
        report = audit_axioms(h, global_jump_operator(m), g)
        text = json.dumps(report.to_dict())
        assert "axiom6_nonzero" in text
        assert "max_superoperator_deviation" in text

    def test_dimension_mismatch(self):
        g, m, h = line_setup(5)
        with pytest.raises(ValueError):
            audit_axioms(h, empty_jump_operators(4), g)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # A nan tolerance passed every audit; a negative one failed exact agreement.
        g, m, h = line_setup(3)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            audit_axioms(h, edge_jump_operators(m), g, tol=tol)

    def test_rejects_non_finite_operator_instead_of_passing(self):
        # Every tolerance comparison is False on nan, so a nan entry once
        # produced passed: True with nan deviations and no failures. Such a
        # set can no longer be built, by either way in.
        _, m, _ = line_setup(3)
        rogue = np.zeros((3, 3), dtype=complex)
        rogue[0, 1] = np.nan
        with pytest.raises(ValueError, match="jump operator 1 has non-finite entries"):
            JumpOperatorSet.from_dense(3, (edge_jump_operators(m).operators[0], rogue), "custom")
        with pytest.raises(ValueError, match="jump operator 1 has non-finite entries"):
            JumpOperatorSet(3, 2, [0, 1], [0, 0], [1, 1], [1.0, complex(0.0, np.inf)], "custom")
