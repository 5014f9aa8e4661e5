"""States, the interpolated superoperator, and propagation."""

import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import qsw.evolution
from qsw.evolution import (
    ClassicalWalk,
    DensityMatrix,
    EigenbasisWalk,
    Liouvillian,
    EIGENVALUE_FLOOR,
    StateInvariantError,
    MIN_POSITIVE_TIME,
    QuantumWalk,
    build_liouvillian,
    coherence_l1,
    column_stacked_superoperator,
    combine_parts,
    coordinate_basis,
    from_coordinates,
    lindblad_rhs,
    populations,
    populations_detailed,
    propagate,
    propagate_detailed,
    to_coordinates,
    unvectorize_state,
    vectorize_state,
)
from qsw.evolution import _MAX_PRODUCTS, _check_budgets, _expm_action, _taylor_parameters
from qsw.graph import build_line, classical_generator, from_edge_list
from qsw.operators import (
    Hamiltonian,
    JumpOperatorSet,
    edge_jump_operators,
    empty_jump_operators,
    global_jump_operator,
    hamiltonian_from_generator,
)
from qsw.oracles import (
    LineWalkSpec,
    classical_master_solve,
    crw_line_analytic,
    schrodinger_solve,
)


def line_setup(n_sites, gamma=1.0):
    g, lmap = build_line(n_sites, gamma)
    m = classical_generator(g)
    return g, lmap, m, hamiltonian_from_generator(m)


def kron_parts(h, ls):
    """The commutator and dissipator of the column-stacked superoperator, from the explicit kron formula."""
    dim = h.dim
    ident = np.eye(dim, dtype=complex)
    he = h.entries
    commutator = np.kron(ident, he) - np.kron(he.T, ident)
    k = np.zeros((dim, dim), dtype=complex)
    dissipator = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in ls.operators:
        k += op.conj().T @ op
        dissipator += np.kron(op.conj(), op)
    dissipator -= 0.5 * np.kron(ident, k) + 0.5 * np.kron(k.T, ident)
    return commutator, dissipator


def random_state(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace())


class TestDensityMatrix:
    def test_basis(self):
        rho = DensityMatrix.basis(3, 1)
        assert rho.entries[1, 1] == 1.0
        assert rho.entries.sum() == 1.0

    def test_basis_makes_no_eigenvalue_decomposition(self, monkeypatch):
        # A one-hot matrix is Hermitian with trace 1 and eigenvalues 0 and 1 exactly.
        def refuse(_):
            raise AssertionError("a basis state needs no eigenvalues")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rho = DensityMatrix.basis(151, 75)
        assert rho.entries.dtype == np.complex128
        assert np.flatnonzero(rho.entries).tolist() == [75 * 151 + 75] and rho.entries[75, 75] == 1.0

    @pytest.mark.parametrize(
        "make, amplitudes, populations, entries",
        [
            (lambda: DensityMatrix.basis(3, 1), [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], np.diag([0.0, 1.0, 0.0])),
            (lambda: DensityMatrix.pure([0.6, 0.8j]), [0.6, 0.8j], None, [[0.36, -0.48j], [0.48j, 0.64]]),
            (lambda: DensityMatrix.from_populations([0.25, 0.75]), None, [0.25, 0.75], np.diag([0.25, 0.75])),
        ],
        ids=["basis", "pure", "from-populations"],
    )
    def test_form_constructors_record_their_form_and_build_entries_on_first_read(self, monkeypatch, make, amplitudes, populations, entries):
        # Each constructor checks the form it makes, whose spectrum it knows, without LAPACK.
        def refuse(_):
            raise AssertionError("a state built from its form needs no eigenvalues")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        state = make()
        for name, expected in (("amplitudes", amplitudes), ("populations", populations)):
            form = getattr(state, name)
            if expected is None:
                assert form is None
            else:
                assert np.array_equal(form, expected) and not form.flags.writeable
        assert state._entries is None
        assert np.allclose(state.entries, entries, rtol=0.0, atol=1e-15)
        assert state.entries is state.entries and not state.entries.flags.writeable
        assert state.dim == len(entries)

    def test_basis_index_error(self):
        with pytest.raises(IndexError):
            DensityMatrix.basis(3, 3)
        # A fractional vertex once failed inside numpy's indexing, unlocated.
        with pytest.raises(IndexError, match=r"index vertex=1.5 is not an integer in \[0, 3\)"):
            DensityMatrix.basis(3, 1.5)

    def test_pure_plus_state(self):
        rho = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))

    def test_pure_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DensityMatrix.pure(np.array([1.0, 1.0]))

    def test_from_populations(self):
        rho = DensityMatrix.from_populations([0.25, 0.75])
        assert np.allclose(np.diag(rho.entries), [0.25, 0.75])
        with pytest.raises(ValueError):
            DensityMatrix.from_populations([0.7, 0.7])
        with pytest.raises(ValueError):
            DensityMatrix.from_populations([1.5, -0.5])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_tolerance_knobs(self):
        drifted = np.diag([0.5 + 3e-10, 0.5])
        with pytest.raises(ValueError):
            DensityMatrix(drifted)
        DensityMatrix(drifted, trace_tol=1e-9)

    def test_entries_read_only(self):
        rho = DensityMatrix.basis(2, 0)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    # Every tolerance check is False on nan, so these once built states
    # that failed only inside LAPACK when propagated.
    def test_rejects_non_finite_entries(self):
        entries = np.eye(2) / 2.0
        entries[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"density matrix entry \(1, 0\) is not finite"):
            DensityMatrix(entries)
        with pytest.raises(ValueError, match=r"density matrix entry \(0, 0\) is not finite"):
            DensityMatrix(np.full((2, 2), np.nan))

    def test_from_populations_rejects_non_finite(self):
        with pytest.raises(ValueError, match="probability 0 is not finite"):
            DensityMatrix.from_populations([np.nan, 0, 0, 0, 1])

    def test_pure_rejects_non_finite(self):
        with pytest.raises(ValueError, match="amplitude 0 is not finite"):
            DensityMatrix.pure([np.nan, 1])

    def test_from_populations_rejects_empty_vector(self):
        with pytest.raises(ValueError, match="empty probability vector"):
            DensityMatrix.from_populations([])


class TestRealCoordinates:
    def test_round_trip_and_basis(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 6):
            rho = random_state(rng, dim).entries
            coords = to_coordinates(rho)
            assert coords.dtype == np.float64
            # Orthonormal coordinates keep the Hilbert-Schmidt norm.
            assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(rho), rel=1e-14)
            back = from_coordinates(coords, dim)
            assert np.array_equal(back, back.conj().T)
            assert np.abs(back - rho).max() <= 1e-15
            basis = coordinate_basis(dim).toarray()
            assert np.abs(basis.conj().T @ basis - np.eye(dim * dim)).max() <= 1e-15
            assert np.abs(basis @ coords - vectorize_state(rho)).max() <= 1e-15


class TestLindbladRhs:
    def test_omega_zero_is_pure_commutator(self):
        _, _, m, h = line_setup(5)
        ls = edge_jump_operators(m)
        rng = np.random.default_rng(7)
        rho = random_state(rng, 5)
        expected = -1j * (h.entries @ rho.entries - rho.entries @ h.entries)
        assert np.allclose(lindblad_rhs(h, ls, 0.0, rho), expected, atol=1e-15)

    def test_omega_one_empty_set_is_static(self):
        _, _, m, h = line_setup(3)
        ls = empty_jump_operators(3)
        rho = DensityMatrix.basis(3, 1)
        assert np.array_equal(lindblad_rhs(h, ls, 1.0, rho), np.zeros((3, 3)))

    def test_two_vertex_dissipative_rate(self):
        g = from_edge_list(2, [(0, 1)])
        m = classical_generator(g)
        h = hamiltonian_from_generator(m)
        ls = edge_jump_operators(m)
        out = lindblad_rhs(h, ls, 1.0, DensityMatrix.basis(2, 0))
        assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-15)

    def test_output_hermitian_traceless(self):
        _, _, m, h = line_setup(5)
        rng = np.random.default_rng(11)
        for ls in (edge_jump_operators(m), global_jump_operator(m)):
            for omega in (0.0, 0.3, 1.0):
                out = lindblad_rhs(h, ls, omega, random_state(rng, 5))
                assert np.abs(out - out.conj().T).max() <= 1e-12
                assert abs(out.trace()) <= 1e-12

    def test_omega_range(self):
        _, _, m, h = line_setup(3)
        ls = edge_jump_operators(m)
        rho = DensityMatrix.basis(3, 0)
        with pytest.raises(ValueError):
            lindblad_rhs(h, ls, 1.2, rho)
        with pytest.raises(ValueError):
            lindblad_rhs(h, ls, -0.1, rho)

    def test_state_of_another_dim_is_refused(self):
        _, _, m, h = line_setup(3)
        with pytest.raises(ValueError, match=r"state shape \(2, 2\) does not match dim 3"):
            lindblad_rhs(h, edge_jump_operators(m), 0.5, DensityMatrix.basis(2, 0))


class TestBuildLiouvillian:
    @pytest.mark.parametrize(
        "matrix, found",
        [
            (scipy.sparse.csr_matrix(-np.eye(16)), r"csr_matrix of dtype float64 and shape \(16, 16\)"),
            (scipy.sparse.csr_matrix(-np.eye(10)), r"csr_matrix of dtype float64 and shape \(10, 10\)"),
            (-np.eye(9), r"ndarray of dtype float64 and shape \(9, 9\)"),
        ],
        ids=["dim-4", "side-10", "dense"],
    )
    def test_matrix_that_does_not_fit_dim_is_refused(self, matrix, found):
        # Once accepted, then reported as a solver failure by the trace budget, or an AttributeError in the kernel.
        with pytest.raises(ValueError, match=rf"^a Liouvillian of dim 3 needs a float64 CSR matrix of shape \(9, 9\), got {found}$"):
            Liouvillian(3, matrix)

    def test_commutator_spectrum(self):
        h = Hamiltonian([[0.0, 1.0], [1.0, 0.0]])
        liou = build_liouvillian(h, empty_jump_operators(2), 0.0)
        eigs = np.linalg.eigvals(liou.matrix.toarray())
        eigs = eigs[np.argsort(eigs.imag)]
        assert np.allclose(eigs, [-2j, 0.0, 0.0, 2j], atol=1e-12)

    def test_empty_set_full_mixing_is_zero(self):
        _, _, m, h = line_setup(3)
        liou = build_liouvillian(h, empty_jump_operators(3), 1.0)
        assert np.abs(liou.matrix).max() == 0.0

    def test_trace_preserving_left_null_vector(self):
        _, _, m, h = line_setup(5)
        # The trace is the sum of the diagonal coordinates.
        vec_identity = to_coordinates(np.eye(5, dtype=complex))
        for ls in (edge_jump_operators(m), global_jump_operator(m), empty_jump_operators(5)):
            for omega in (0.0, 0.4, 1.0):
                liou = build_liouvillian(h, ls, omega)
                residual = vec_identity.conj() @ liou.matrix
                assert np.abs(residual).max() <= 1e-10

    def test_matches_explicit_kron_formula(self):
        rng = np.random.default_rng(41)
        for dim in (2, 7, 31, 33):
            g = from_edge_list(dim, [(i, i + 1) for i in range(dim - 1)])
            m = classical_generator(g)
            h = hamiltonian_from_generator(m)
            custom = []
            for _ in range(3):
                op = np.zeros((dim, dim), dtype=complex)
                for _ in range(4):
                    op[rng.integers(dim), rng.integers(dim)] += rng.standard_normal() + 1j * rng.standard_normal()
                custom.append(op)
            sets = (
                edge_jump_operators(m),
                global_jump_operator(m),
                empty_jump_operators(dim),
                JumpOperatorSet.from_dense(dim, custom, "custom"),
            )
            for ls in sets:
                commutator, dissipator = kron_parts(h, ls)
                scale = max(1.0, np.abs(dissipator).max())
                for omega in (0.0, 0.3, 0.6, 1.0):
                    liou = build_liouvillian(h, ls, omega)
                    assert (liou.matrix.format, liou.matrix.dtype) == ("csr", np.float64)
                    built = column_stacked_superoperator(liou.matrix)
                    expected = -(1.0 - omega) * 1j * commutator + omega * dissipator
                    assert np.abs(built.toarray() - expected).max() <= 1e-14 * scale, (dim, ls.regime_tag, omega)

    def test_stores_exactly_the_nonzeros_of_the_real_coordinate_matrix(self):
        # Re(T^dag L T) from the explicit kron formula pins both the values and
        # the sparsity pattern; the dense route leaves ~1e-16 residue where
        # conjugate columns cancel, hence the threshold.
        rng = np.random.default_rng(83)
        line, _ = build_line(7, 1.0)
        extra = {(0, 3), (1, 6), (2, 7), (4, 7), (0, 5)}
        weighted = from_edge_list(8, [(u, v, rng.uniform(0.5, 2.0)) for u, v in sorted({(i, i + 1) for i in range(7)} | extra)])
        for g in (line, weighted):
            dim = g.n_vertices
            m = classical_generator(g)
            h = hamiltonian_from_generator(m)
            custom = np.zeros((2, dim, dim), dtype=complex)
            for k, a, b in [(0, 0, 0), (0, 1, 3), (0, 6, 2), (1, 2, 2), (1, 5, 1), (1, 4, 6)]:
                custom[k, a, b] = rng.standard_normal() + 1j * rng.standard_normal()
            sets = (
                edge_jump_operators(m, "sqrt"),
                edge_jump_operators(m, "literal"),
                global_jump_operator(m, "full"),
                global_jump_operator(m, "offdiagonal"),
                empty_jump_operators(dim),
                JumpOperatorSet.from_dense(dim, custom, "custom"),
            )
            basis = coordinate_basis(dim).toarray()
            for ls in sets:
                commutator, dissipator = kron_parts(h, ls)
                for omega in (0.0, 0.5, 1.0):
                    matrix = build_liouvillian(h, ls, omega).matrix
                    ref = (basis.conj().T @ (-(1.0 - omega) * 1j * commutator + omega * dissipator) @ basis).real
                    scale = max(1.0, np.abs(ref).max())
                    case = (dim, ls.regime_tag, ls.count, omega)
                    assert matrix.has_canonical_format, case
                    assert np.all(matrix.data != 0.0), case
                    np.testing.assert_array_equal(matrix.toarray() != 0.0, np.abs(ref) > 1e-13 * scale, err_msg=str(case))
                    assert np.abs(matrix.toarray() - ref).max() <= 1e-14 * scale, case

    def test_dense_and_sparse_agree(self):
        _, _, m, h = line_setup(33)
        ls = edge_jump_operators(m)
        sparse = column_stacked_superoperator(build_liouvillian(h, ls, 0.6).matrix).toarray()

        ident = np.eye(33, dtype=complex)
        he = h.entries
        dense = -0.4j * (np.kron(ident, he) - np.kron(he.T, ident))
        for op in ls.operators:
            k = op.conj().T @ op
            dense += 0.6 * (np.kron(op.conj(), op) - 0.5 * np.kron(ident, k) - 0.5 * np.kron(k.T, ident))
        assert np.abs(sparse - dense).max() <= 1e-13

    def test_matches_rhs_on_random_states(self):
        rng = np.random.default_rng(23)
        _, _, m, h = line_setup(5)
        for ls in (edge_jump_operators(m), global_jump_operator(m)):
            for omega in (0.0, 0.5, 1.0):
                superop = column_stacked_superoperator(build_liouvillian(h, ls, omega).matrix)
                for _ in range(10):
                    rho = random_state(rng, 5)
                    via_matrix = unvectorize_state(superop @ vectorize_state(rho.entries), 5)
                    direct = lindblad_rhs(h, ls, omega, rho)
                    assert np.abs(via_matrix - direct).max() <= 1e-12 * 25

    def test_omega_validation(self):
        _, _, m, h = line_setup(3)
        with pytest.raises(ValueError):
            build_liouvillian(h, edge_jump_operators(m), 1.01)

    @pytest.mark.parametrize("omega, products", [(0.0, 1), (0.5, 2), (1.0, 1)])
    def test_builds_only_the_parts_omega_weighs(self, monkeypatch, omega, products):
        _, _, m, h = line_setup(5)
        assembled = []
        assemble = qsw.evolution._assemble

        def counting_assemble(*args):
            assembled.append(args)
            return assemble(*args)

        monkeypatch.setattr(qsw.evolution, "_assemble", counting_assemble)
        build_liouvillian(h, edge_jump_operators(m), omega)
        assert len(assembled) == products

    def test_combination_of_the_two_parts(self):
        _, _, m, h = line_setup(5)
        ls = global_jump_operator(m)
        coherent, dissipative = build_liouvillian(h, ls, 0.0), build_liouvillian(h, ls, 1.0)
        assert combine_parts(coherent, None, 0.0) is coherent
        assert combine_parts(None, dissipative, 1.0) is dissipative
        mixed = combine_parts(coherent, dissipative, 0.25)
        expected = 0.75 * coherent.matrix.toarray() + 0.25 * dissipative.matrix.toarray()
        assert np.array_equal(mixed.matrix.toarray(), expected)
        assert np.array_equal(build_liouvillian(h, ls, 0.25).matrix.toarray(), expected)
        with pytest.raises(ValueError, match=r"omega must lie in \[0, 1\], got -0.5"):
            combine_parts(coherent, dissipative, -0.5)


class TestPropagate:
    def test_t_zero_identity(self):
        _, _, m, h = line_setup(5)
        liou = build_liouvillian(h, edge_jump_operators(m), 1.0)
        rho0 = DensityMatrix.basis(5, 2)
        state, info = propagate_detailed(rho0, liou, 0.0)
        assert state is rho0
        assert info.steps == 0

    def test_negative_time_rejected(self):
        _, _, m, h = line_setup(3)
        liou = build_liouvillian(h, edge_jump_operators(m), 1.0)
        with pytest.raises(ValueError):
            propagate(DensityMatrix.basis(3, 0), liou, -1.0)

    @pytest.mark.parametrize("t", [5e-324, MIN_POSITIVE_TIME / 2])
    def test_subnormal_time_rejected(self, t):
        # scipy's expm_multiply warned "invalid value encountered in scalar divide" at t = 5e-324.
        _, _, m, h = line_setup(5)
        liou = build_liouvillian(h, empty_jump_operators(5), 0.0)
        with pytest.raises(ValueError, match="t must be 0 or at least"):
            propagate(DensityMatrix.basis(5, 2), liou, t)
        _, info = propagate_detailed(DensityMatrix.basis(5, 2), liou, MIN_POSITIVE_TIME)
        assert info.trace_drift <= 1e-15

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        # nan slipped past the t < 0 check into the solver.
        _, _, m, h = line_setup(3)
        liou = build_liouvillian(h, edge_jump_operators(m), 1.0)
        with pytest.raises(ValueError, match="t must be finite"):
            propagate(DensityMatrix.basis(3, 0), liou, t)

    def test_dimension_mismatch(self):
        _, _, m, h = line_setup(3)
        liou = build_liouvillian(h, edge_jump_operators(m), 1.0)
        with pytest.raises(ValueError):
            propagate(DensityMatrix.basis(4, 0), liou, 1.0)

    def test_semigroup_property(self):
        _, _, m, h = line_setup(7)
        liou = build_liouvillian(h, edge_jump_operators(m), 0.35)
        rho0 = DensityMatrix.basis(7, 3)
        two_hops = propagate(propagate(rho0, liou, 1.0), liou, 1.5)
        one_hop = propagate(rho0, liou, 2.5)
        assert np.abs(two_hops.entries - one_hop.entries).max() <= 1e-8

    def test_matches_dense_matrix_exponential(self, matvecs):
        _, _, m, h = line_setup(21)
        liou = build_liouvillian(h, edge_jump_operators(m), 0.7)
        rho0 = DensityMatrix.basis(21, 10)
        state, info = propagate_detailed(rho0, liou, 3.0)
        assert len(matvecs) > 0
        assert (info.method, info.steps) == ("matrix-exponential", len(matvecs))
        dense = scipy.linalg.expm(column_stacked_superoperator(liou.matrix).toarray() * 3.0) @ vectorize_state(rho0.entries)
        assert np.abs(state.entries - unvectorize_state(dense, 21)).max() <= 1e-10

    def test_pure_quantum_walk_above_dimension_64_stays_positive(self):
        # Dimension 101 once went to an adaptive Runge-Kutta integrator,
        # whose state at t=5 fell to a minimum eigenvalue of -2.3e-9.
        _, lmap, m, h = line_setup(101)
        liou = build_liouvillian(h, empty_jump_operators(101), 0.0)
        _, info = propagate_detailed(DensityMatrix.basis(101, lmap.center), liou, 5.0)
        assert info.method == "matrix-exponential"
        assert info.min_eigenvalue >= EIGENVALUE_FLOOR

    def test_pure_hamiltonian_matches_schrodinger_oracle(self):
        _, lmap, m, h = line_setup(21)
        liou = build_liouvillian(h, empty_jump_operators(21), 0.0)
        rho0 = DensityMatrix.basis(21, lmap.center)
        state = propagate(rho0, liou, 2.0)
        psi0 = np.zeros(21, dtype=complex)
        psi0[lmap.center] = 1.0
        psi = schrodinger_solve(h, psi0, 2.0)
        assert np.abs(state.entries - np.outer(psi, psi.conj())).max() <= 1e-8

    def test_dissipative_keeps_diagonal_closed_and_matches_classical(self):
        _, lmap, m, h = line_setup(15)
        liou = build_liouvillian(h, edge_jump_operators(m), 1.0)
        rho0 = DensityMatrix.basis(15, lmap.center)
        state = propagate(rho0, liou, 4.0)
        assert coherence_l1(state) <= 1e-10
        p0 = np.zeros(15)
        p0[lmap.center] = 1.0
        classical = classical_master_solve(m, p0, 4.0)
        assert np.abs(populations(state) - classical).max() <= 1e-8

    def test_invariant_violation_aborts_with_diagnostics(self):
        # A generator with no trace-preserving structure must be refused at
        # the output gate, not silently normalized away.
        rogue = Liouvillian(3, scipy.sparse.csr_matrix(np.eye(9)))
        with pytest.raises(StateInvariantError) as excinfo:
            propagate(DensityMatrix.basis(3, 0), rogue, 1.0)
        assert excinfo.value.trace_drift > 1e-9
        assert isinstance(excinfo.value.min_eigenvalue, float)

    @pytest.mark.parametrize(
        "make, growth",
        [
            (lambda: Liouvillian(3, scipy.sparse.csr_matrix(np.eye(9)), dissipative_only=True), np.e),
            (lambda: QuantumWalk(3, scipy.sparse.csr_matrix(np.eye(6))), np.e**2),
            (lambda: ClassicalWalk(3, scipy.sparse.csr_matrix(np.eye(3))), np.e),
        ],
        ids=["invariant-block", "walk", "classical-walk"],
    )
    def test_every_route_aborts_with_diagnostics(self, make, growth):
        # exp(t I) grows the one coordinate the block holds, the walk's
        # amplitude or the classical walk's population by e^t, so the trace
        # grows by e, e^2 or e at t = 1.
        with pytest.raises(StateInvariantError) as excinfo:
            propagate(DensityMatrix.basis(3, 0), make(), 1.0)
        assert excinfo.value.trace_drift == pytest.approx(growth - 1.0, rel=1e-15)
        assert excinfo.value.hermiticity_drift == 0.0
        assert excinfo.value.min_eigenvalue == 0.0

    @pytest.mark.parametrize(
        "make, route",
        [
            (lambda: ClassicalWalk(2, scipy.sparse.csr_matrix(([1.0, -1.0], ([0, 1], [0, 0])), shape=(2, 2))), "populations"),
            (lambda: Liouvillian(2, scipy.sparse.csr_matrix(([1.0], ([2], [0])), shape=(4, 4)), dissipative_only=True), "invariant-block"),
        ],
        ids=["populations", "invariant-block"],
    )
    def test_a_block_that_leaves_the_positive_cone_aborts_with_its_smallest_eigenvalue(self, make, route):
        # The classical walk's rates drive p[1] to 1 - e at t = 1 with the
        # trace kept; on the coordinates (0, 2) the block's rates grow
        # Re rho[0, 1] to 1 / sqrt 2, so the smallest eigenvalue is (1 - sqrt 3) / 2.
        liou = make()
        rho0 = DensityMatrix.basis(2, 0)
        name, gen, x0, back = liou._route(rho0)
        x, _ = _expm_action(gen, x0, 1.0)
        expected = back(x)
        assert name == route and (expected.populations is None) == (route == "invariant-block")
        with pytest.raises(StateInvariantError) as excinfo:
            propagate(rho0, liou, 1.0)
        if route == "populations":
            assert excinfo.value.min_eigenvalue == expected.populations.min() == pytest.approx(1.0 - np.e, rel=1e-14)
        else:
            assert excinfo.value.min_eigenvalue == pytest.approx((1.0 - np.sqrt(3.0)) / 2.0, rel=1e-14)
        assert excinfo.value.trace_drift <= 1e-15
        assert excinfo.value.hermiticity_drift == 0.0

    @pytest.mark.parametrize(
        "omega, make_ls",
        [(0.5, edge_jump_operators), (1.0, edge_jump_operators), (1.0, global_jump_operator)],
        ids=["crw-0.5", "crw-dissipative-only", "global-dissipative-only"],
    )
    def test_the_liouvillian_reads_a_populations_state_as_its_entries(self, omega, make_ls):
        # The Liouvillian maps every start state from its entries: a state
        # that records several nonzero populations runs bit for bit as the
        # same state built from diag(p), on the invariant block at omega = 1.
        _, _, m, h = line_setup(9)
        liou = build_liouvillian(h, make_ls(m), omega)
        assert liou.dissipative_only == (omega == 1.0)
        by_populations = DensityMatrix.from_populations(np.arange(1.0, 10.0) / 45.0)
        by_entries = DensityMatrix(np.diag(by_populations.populations))
        for t in (0.5, 2.0):
            state, info = propagate_detailed(by_populations, liou, t)
            expected, expected_info = propagate_detailed(by_entries, liou, t)
            assert state.entries.tobytes() == expected.entries.tobytes() and info == expected_info

    def test_block_route_leaves_the_full_matrix_unshifted(self):
        # Shifting R_D copies all of it, which the block route never multiplies.
        _, lmap, m, h = line_setup(21)
        liou = build_liouvillian(h, edge_jump_operators(m), 1.0)
        for t in (0.0, 1.0):
            propagate_detailed(DensityMatrix.basis(21, lmap.center), liou, t)
        assert "_shifted" not in vars(liou)

    def test_result_does_not_depend_on_the_global_rng(self):
        # The kernel draws no random numbers, so the state is the same under
        # every seed and the caller's stream goes on untouched.
        _, lmap, m, h = line_setup(9, gamma=2.0)
        liou = build_liouvillian(h, global_jump_operator(m, "offdiagonal"), 2.0 / 3.0)
        rho0 = DensityMatrix.basis(9, lmap.center)
        states = []
        for seed in (0, 1):
            np.random.seed(seed)
            next_draw = np.random.random()
            np.random.seed(seed)
            states.append(propagate(rho0, liou, 5.0).entries.tobytes())
            # The caller's stream goes on where it was.
            assert np.random.random() == next_draw
        assert states[0] == states[1]

    def test_non_finite_state_violates_budgets(self):
        # A nan drift compares False with every budget, so it once passed them.
        with pytest.raises(StateInvariantError) as excinfo:
            _check_budgets(np.full((2, 2), np.nan, dtype=complex), "nan state")
        assert np.isnan(excinfo.value.trace_drift)
        assert np.isnan(excinfo.value.min_eigenvalue)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["amplitudes", "populations", "entries"])
    def test_non_finite_form_violates_budgets(self, form, value):
        # inf * conj(inf) and inf - inf are nan and warn, and the suite turns
        # warnings into errors; a state with a non-finite value in its form,
        # the entries of the coordinate route included, reads nan drifts,
        # which violate every budget.
        if form == "entries":
            state = DensityMatrix._unchecked(np.array([[value, 0.0], [0.0, 0.0]], dtype=complex))
        else:
            state = DensityMatrix._unchecked(**{form: np.array([value, 0.0], dtype=complex if form == "amplitudes" else float)})
        with pytest.raises(StateInvariantError) as excinfo:
            _check_budgets(state, "non-finite form")
        assert np.isnan([excinfo.value.trace_drift, excinfo.value.hermiticity_drift, excinfo.value.min_eigenvalue]).all()


class TestQuantumWalk:
    """At omega = 0 a pure state is propagated on its dim amplitudes, not its dim^2 coordinates."""

    @pytest.mark.parametrize(
        "make, psi",
        [
            (lambda: DensityMatrix.basis(3, 1), [0.0, 1.0, 0.0]),
            (lambda: DensityMatrix.pure([0.6, 0.8j]), [0.6, 0.8j]),
        ],
        ids=["basis", "pure"],
    )
    def test_pure_states_record_their_amplitudes(self, make, psi):
        state = make()
        assert state.amplitudes.dtype == np.complex128
        assert np.array_equal(state.amplitudes, psi)
        assert np.array_equal(np.outer(state.amplitudes, state.amplitudes.conj()), state.entries)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "make",
        [lambda: DensityMatrix(np.diag([1.0, 0.0])), lambda: DensityMatrix.from_populations([1.0, 0.0])],
        ids=["entries", "from-populations"],
    )
    def test_states_built_from_entries_record_none(self, make):
        # Both are pure, but the record is never derived from the entries.
        assert make().amplitudes is None

    def test_matrix_is_the_real_form_of_the_shifted_hamiltonian(self):
        h = Hamiltonian(np.array([[3.0, 1.0 - 2.0j], [1.0 + 2.0j, 1.0]]))
        # H' = H - 2 I; rows act on (Re psi, Im psi) as d/dt psi = -i H' psi.
        expected = np.array([[0.0, -2.0, 1.0, 1.0], [2.0, 0.0, 1.0, -1.0], [-1.0, -1.0, 0.0, -2.0], [-1.0, 1.0, 2.0, 0.0]])
        walk = QuantumWalk.from_hamiltonian(h)
        assert walk.dim == 2
        assert np.array_equal(walk.matrix.toarray(), expected)
        assert walk.matrix.nnz == 12

    @pytest.mark.parametrize("density", [1.0, 0.1], ids=["dense", "sparse"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 17, 61, 101])
    def test_matrix_matches_the_dense_block_construction(self, dim, density):
        # The sparse blocks must store what the dense 2 dim x 2 dim np.block
        # stores: the same entries, in the same order, and no zeros.
        rng = np.random.default_rng(dim)
        parts = rng.standard_normal((2, dim, dim)) * (rng.random((2, dim, dim)) < density)
        h = Hamiltonian((parts[0] + 1j * parts[1] + (parts[0] + 1j * parts[1]).conj().T) / 2.0)
        shifted = h.entries.copy()
        shifted[np.diag_indices(dim)] -= shifted.trace().real / dim
        re, im = shifted.real, shifted.imag
        reference = scipy.sparse.csr_matrix(np.block([[im, re], [-re, im]]))
        walk = QuantumWalk.from_hamiltonian(h)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(walk.matrix, name), getattr(reference, name)), name
        if density < 1.0:
            assert reference.nnz < (2 * dim) ** 2 / 2

    @pytest.mark.parametrize(
        "matrix, found",
        [
            (scipy.sparse.csr_matrix((3, 3)), "csr_matrix of dtype float64 and shape (3, 3)"),
            (scipy.sparse.csr_matrix((4, 4), dtype=complex), "csr_matrix of dtype complex128 and shape (4, 4)"),
        ],
        ids=["shape", "dtype"],
    )
    def test_matrix_that_does_not_fit_dim_is_refused(self, matrix, found):
        with pytest.raises(ValueError, match=rf"a QuantumWalk of dim 2 needs a float64 CSR matrix of shape \(4, 4\), got {re.escape(found)}"):
            QuantumWalk(2, matrix)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize(
        "make", [lambda: DensityMatrix(np.eye(5) / 5.0), lambda: DensityMatrix.from_populations([0, 0, 1, 0, 0])]
    )
    def test_a_state_without_amplitudes_is_refused(self, make, t):
        _, _, _, h = line_setup(5)
        with pytest.raises(ValueError, match="a QuantumWalk propagates state vectors, and this state records no amplitudes"):
            propagate_detailed(make(), QuantumWalk.from_hamiltonian(h), t)

    def test_zero_t_returns_the_state_itself(self, matvecs):
        _, lmap, _, h = line_setup(5)
        rho0 = DensityMatrix.basis(5, lmap.center)
        state, info = propagate_detailed(rho0, QuantumWalk.from_hamiltonian(h), 0.0)
        assert state is rho0
        assert (info.method, info.steps, matvecs) == ("identity", 0, [])

    def test_chain_matches_schrodinger_oracle_on_2_dim_operands(self, matvecs):
        _, lmap, _, h = line_setup(21)
        walk = QuantumWalk.from_hamiltonian(h)
        psi0 = np.zeros(21, dtype=complex)
        psi0[lmap.center] = 1.0
        state = DensityMatrix.basis(21, lmap.center)
        steps = 0
        for t in (1.0, 2.0):
            state, info = propagate_detailed(state, walk, 1.0)
            steps += info.steps
            psi = schrodinger_solve(h, psi0, t)
            assert np.abs(state.entries - np.outer(psi, psi.conj())).max() <= 1e-12
            assert np.array_equal(state.entries, np.outer(state.amplitudes, state.amplitudes.conj()))
        assert info.method == "matrix-exponential"
        assert steps == len(matvecs) > 0 and set(matvecs) == {(42, 42)}

    def test_shift_lowers_the_products_below_the_coordinate_route(self):
        _, lmap, _, h = line_setup(61)
        rho0 = DensityMatrix.basis(61, lmap.center)
        _, walk_info = propagate_detailed(rho0, QuantumWalk.from_hamiltonian(h), 5.0)
        _, liou_info = propagate_detailed(rho0, build_liouvillian(h, empty_jump_operators(61), 0.0), 5.0)
        assert (walk_info.steps, liou_info.steps) == (74, 125)


class TestClassicalWalk:
    """At omega = 1 a set that keeps populations closed is propagated on the dim populations, not the dim^2 coordinates."""

    @pytest.mark.parametrize("amplitude", ["sqrt", "literal"])
    def test_edge_local_rates_are_the_population_block_of_the_dissipator(self, amplitude):
        _, _, m, h = line_setup(9, gamma=2.0)
        ls = edge_jump_operators(m, amplitude)
        walk = ClassicalWalk.from_jump_operators(ls)
        populations_index = np.arange(9) * 10
        block = build_liouvillian(h, ls, 1.0).matrix[populations_index][:, populations_index]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(walk.matrix, name), getattr(block, name)), name
        # sqrt amplitudes give the classical generator, literal ones its rates squared.
        off = np.where(np.eye(9, dtype=bool), 0.0, m.entries)
        rates = off if amplitude == "sqrt" else off**2
        expected = rates - np.diag(rates.sum(axis=0))
        assert np.abs(walk.matrix.toarray() - expected).max() <= 1e-14

    def test_the_empty_set_has_no_rates(self, matvecs):
        walk = ClassicalWalk.from_jump_operators(empty_jump_operators(5))
        assert (walk.dim, walk.matrix.shape, walk.matrix.nnz) == (5, (5, 5), 0)
        state, info = propagate_detailed(DensityMatrix.basis(5, 2), walk, 3.0)
        assert np.array_equal(state.populations, [0.0, 0.0, 1.0, 0.0, 0.0])
        assert (info.route, info.rows, info.steps, matvecs) == ("populations", 5, 0, [])

    def test_chain_matches_the_classical_oracle_on_dim_operands(self, matvecs):
        _, lmap, m, _ = line_setup(21)
        walk = ClassicalWalk.from_jump_operators(edge_jump_operators(m))
        p0 = np.zeros(21)
        p0[lmap.center] = 1.0
        state = DensityMatrix.basis(21, lmap.center)
        steps = 0
        for t in (1.0, 2.0):
            state, info = propagate_detailed(state, walk, 1.0)
            steps += info.steps
            assert state.amplitudes is None and state.populations is not None
            assert np.abs(state.populations - classical_master_solve(m, p0, t)).max() <= 1e-12
            assert (info.route, info.rows, info.hermiticity_drift) == ("populations", 21, 0.0)
        assert steps == len(matvecs) > 0 and set(matvecs) == {(21, 21)}

    @pytest.mark.parametrize(
        "operators, line",
        [([[(0, 1), (0, 2)]], "operator 0 has two nonzeros in row 0"), ([[(1, 1)], [(0, 2), (1, 2)]], "operator 1 has two nonzeros in column 2")],
        ids=["row", "column"],
    )
    def test_a_set_that_mixes_populations_with_coherences_is_refused(self, operators, line):
        # Two nonzeros in one column of L map a population to a coherence; two in one row make K non-diagonal.
        number, rows, cols = zip(*[(k, a, b) for k, entries in enumerate(operators) for a, b in entries])
        ls = JumpOperatorSet(3, len(operators), number, rows, cols, [1.0] * len(rows), "custom")
        assert not ClassicalWalk.applies_to(ls)
        with pytest.raises(ValueError, match=f"^jump {line}, so the set does not keep populations closed"):
            ClassicalWalk.from_jump_operators(ls)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize(
        "make", [lambda: DensityMatrix(np.eye(5) / 5.0), lambda: DensityMatrix.pure(np.full(5, np.sqrt(0.2)))], ids=["entries", "pure"]
    )
    def test_a_state_without_populations_is_refused(self, make, t):
        _, _, m, _ = line_setup(5)
        with pytest.raises(ValueError, match="a ClassicalWalk propagates populations, and this state records none"):
            propagate_detailed(make(), ClassicalWalk.from_jump_operators(edge_jump_operators(m)), t)

    def test_matrix_that_does_not_fit_dim_is_refused(self):
        with pytest.raises(ValueError, match=r"a ClassicalWalk of dim 2 needs a float64 CSR matrix of shape \(2, 2\), got csr_matrix"):
            ClassicalWalk(2, scipy.sparse.csr_matrix((4, 4)))


def eigenbasis_graphs():
    """Graphs whose H has repeated eigenvalues (star, cycle, complete) and a seeded weighted one that has none."""
    rng = np.random.default_rng(7)
    weighted = [(u, v, rng.uniform(0.5, 2.0)) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.5 or v == u + 1]
    return {
        "star": from_edge_list(7, [(0, v) for v in range(1, 7)]),
        "cycle": from_edge_list(8, [(v, (v + 1) % 8) for v in range(8)]),
        "complete": from_edge_list(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
        "weighted": from_edge_list(7, weighted),
    }


class TestEigenbasisWalk:
    """A set whose one jump operator is H propagates in H's eigenbasis, where each coherence rotates and dephases alone."""

    @pytest.mark.parametrize("omega", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["star", "cycle", "complete", "weighted"])
    def test_matches_the_liouvillian_of_the_global_operator(self, name, omega):
        m = classical_generator(eigenbasis_graphs()[name])
        h, ls = hamiltonian_from_generator(m), global_jump_operator(m)
        assert EigenbasisWalk.applies_to(h, ls)
        walk, liou = EigenbasisWalk.from_hamiltonian(h, omega), build_liouvillian(h, ls, omega)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        # Amplitudes and entries take two ways into the eigenbasis.
        for rho0 in (DensityMatrix.basis(m.dim, 1), DensityMatrix.pure(psi / np.linalg.norm(psi)), random_state(rng, m.dim)):
            state = rho0
            # A chain of steps, each from the state the walk made last, against one step to each time.
            for t_prev, t in ((0.0, 0.7), (0.7, 50.0)):
                state, info = propagate_detailed(state, walk, t - t_prev)
                expected, _ = propagate_detailed(rho0, liou, t)
                assert np.abs(state.entries - expected.entries).max() <= 1e-12
                assert info.route == "eigenbasis"
                assert state.amplitudes is None and state.populations is None


    @pytest.mark.parametrize(
        "make, applies",
        [
            (lambda m: global_jump_operator(m, "full"), True),
            (lambda m: JumpOperatorSet.from_dense(m.dim, [m.entries], "custom"), True),
            (lambda m: global_jump_operator(m, "offdiagonal"), False),
            (lambda m: edge_jump_operators(m), False),
            (lambda m: empty_jump_operators(m.dim), False),
            (lambda m: JumpOperatorSet.from_dense(m.dim, [m.entries + np.diag(np.arange(m.dim) == 2)], "custom"), False),
            (lambda m: JumpOperatorSet.from_dense(m.dim, [m.entries, m.entries], "custom"), False),
        ],
        ids=["qsw-global-full", "custom-equal-to-h", "offdiagonal", "crw", "qw", "custom-differs-from-h", "custom-h-twice"],
    )
    def test_applies_to_one_operator_equal_to_h_alone(self, make, applies):
        _, _, m, h = line_setup(5, gamma=1.5)
        assert EigenbasisWalk.applies_to(h, make(m)) is applies

    def test_the_matrix_holds_one_block_per_moving_coherence(self):
        _, _, _, h = line_setup(5)
        walk = EigenbasisWalk.from_hamiltonian(h, 0.25)
        # The line's generator has 5 distinct eigenvalues, so all 10 coherences move.
        matrix = walk._shifted.matrix + walk._shifted.mu * scipy.sparse.identity(20)
        first, second = np.triu_indices(5, 1)
        delta = walk.eigenvalues[first] - walk.eigenvalues[second]
        nu, gamma = 0.75 * delta, 0.125 * delta**2
        expected = scipy.sparse.block_diag([[[-g, n], [-n, -g]] for n, g in zip(nu, gamma)])
        assert np.abs(matrix.toarray() - expected.toarray()).max() <= 1e-15
        assert np.array_equal(walk.at(0.5).eigenvectors, walk.eigenvectors) and walk.at(0.5).omega == 0.5

    def test_a_hamiltonian_with_one_eigenvalue_keeps_every_state(self, matvecs):
        # Nothing moves: the kernel multiplies no matrix, and the map back returns the start state's entries.
        graph = from_edge_list(3, [])
        m = classical_generator(graph)
        h, ls = hamiltonian_from_generator(m), global_jump_operator(m)
        assert EigenbasisWalk.applies_to(h, ls)
        arr = random_state(np.random.default_rng(1), 3).entries
        rho0 = DensityMatrix((arr + arr.conj().T) / 2.0)
        state, info = propagate_detailed(rho0, EigenbasisWalk.from_hamiltonian(h, 0.5), 4.0)
        assert np.array_equal(state.entries, rho0.entries)
        assert (info.route, info.rows, info.steps, matvecs) == ("eigenbasis", 1, 0, [])

    def test_a_grid_step_starts_from_the_coordinates_the_walk_kept(self, monkeypatch):
        # The map back makes four real products with U (two for each of Re and Im);
        # a step from the state the walk made last makes none into the eigenbasis.
        products = []
        product = qsw.evolution._product

        def counting_product(a, b):
            products.append(a.shape)
            return product(a, b)

        monkeypatch.setattr(qsw.evolution, "_product", counting_product)
        _, lmap, m, h = line_setup(9)
        walk = EigenbasisWalk.from_hamiltonian(h, 0.5)
        state = DensityMatrix.basis(9, lmap.center)
        for _ in range(3):
            state, _ = propagate_detailed(state, walk, 0.5)
        assert len(products) == 3 * 4
        # A state the walk did not make last is mapped in from its entries: four more.
        propagate_detailed(DensityMatrix(state.entries), walk, 0.5)
        assert len(products) == 4 * 4 + 4

    def test_a_dim_past_the_bound_is_refused_before_eigh(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigh ran")

        _, _, _, h = line_setup(9)
        monkeypatch.setattr(qsw.evolution, "_MAX_EIGENBASIS_DIM", 8)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        with pytest.raises(ValueError, match=r"^the eigenbasis route at dim 9 would hold 81 coordinates and decompose H, and the bound is dim 8$"):
            EigenbasisWalk.from_hamiltonian(h)

    def test_a_rate_past_the_largest_float_is_refused_naming_its_coherence(self):
        # K = H^2 is finite here (its largest entry 6 r^2 = 1.5e308), but Delta^2 = 9 r^2 is not.
        _, _, _, h = line_setup(3, gamma=5e153)
        walk = EigenbasisWalk.from_hamiltonian(h, 0.5)
        message = "the coherence of eigenvectors 0 and 2 of H has a rate that is not finite at omega = 0.5: Delta = -1.5e+154"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, rotation"):
            propagate_detailed(DensityMatrix.basis(3, 1), walk, 1.0)


class TestBuildBound:
    """A build whose product would pass _MAX_BUILD_ENTRIES is refused before it allocates."""

    def test_the_largest_workload_build_sits_inside_the_bound(self, monkeypatch, traced_peak):
        # R_D of line:201 qsw-global forms 361201 jump and 401598 G entries,
        # more than 30 times below the bound. It was the workloads' largest
        # build until qsw-global ran in the eigenbasis, which builds none.
        _, _, m, h = line_setup(201)
        ls = global_jump_operator(m)
        assert 762799 * 30 < qsw.evolution._MAX_BUILD_ENTRIES
        monkeypatch.setattr(qsw.evolution, "_MAX_BUILD_ENTRIES", 762798)
        message = "the superoperator build at dim 201 would form 762799 product entries (sum_k nnz(L_k)^2 + 2 dim nnz(G)), and the bound is 762798"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_liouvillian(h, ls, 1.0)
        # The refusal allocates nothing of the size of the 40401 coordinates' product.
        _, peak = traced_peak(lambda: pytest.raises(ValueError, build_liouvillian, h, ls, 1.0))
        assert peak < 40401 * 16
        monkeypatch.setattr(qsw.evolution, "_MAX_BUILD_ENTRIES", 762799)
        assert build_liouvillian(h, ls, 1.0).matrix.shape == (40401, 40401)

    def test_each_part_is_counted_from_its_own_factors(self, monkeypatch):
        # R_QW of line:5 has G = -iH with 13 nonzeros and no operator: 2 * 5 * 13 entries.
        _, _, m, h = line_setup(5)
        monkeypatch.setattr(qsw.evolution, "_MAX_BUILD_ENTRIES", 129)
        with pytest.raises(ValueError, match="at dim 5 would form 130 product entries"):
            build_liouvillian(h, edge_jump_operators(m), 0.0)
        # R_D: 8 single-entry operators and a diagonal K: 8 + 2 * 5 * 5 entries.
        monkeypatch.setattr(qsw.evolution, "_MAX_BUILD_ENTRIES", 57)
        with pytest.raises(ValueError, match="at dim 5 would form 58 product entries"):
            build_liouvillian(h, edge_jump_operators(m), 1.0)


class TestRealRoute:
    def test_every_generator_propagates_on_float64_operands(self, monkeypatch):
        # Every regime, omega and start state takes the one real route.
        _, lmap, m, h = line_setup(7)
        rng = np.random.default_rng(61)
        custom = []
        for _ in range(2):
            op = np.zeros((7, 7), dtype=complex)
            for _ in range(5):
                op[rng.integers(7), rng.integers(7)] += rng.standard_normal() + 1j * rng.standard_normal()
            custom.append(op)
        sets = (
            edge_jump_operators(m),
            global_jump_operator(m),
            empty_jump_operators(7),
            JumpOperatorSet.from_dense(7, custom, "custom"),
        )
        starts = (DensityMatrix.basis(7, lmap.center), DensityMatrix.pure(np.exp(0.3j * np.arange(7)) / np.sqrt(7)))
        assert np.abs(starts[1].entries.imag).max() > 0.1
        operands = []

        kernel = qsw.evolution._expm_action

        def recording_expm_action(liouvillian, x, t):
            operands.append((liouvillian.matrix.dtype, x.dtype))
            return kernel(liouvillian, x, t)

        monkeypatch.setattr(qsw.evolution, "_expm_action", recording_expm_action)
        for ls in sets:
            for omega in (0.0, 0.5, 1.0):
                liou = build_liouvillian(h, ls, omega)
                dense = scipy.linalg.expm(column_stacked_superoperator(liou.matrix).toarray() * 2.0)
                for rho0 in starts:
                    operands.clear()
                    state, info = propagate_detailed(rho0, liou, 2.0)
                    assert operands == [(np.float64, np.float64)]
                    assert state.entries.dtype == np.complex128
                    assert info.method == "matrix-exponential"
                    reference = unvectorize_state(dense @ vectorize_state(rho0.entries), 7)
                    assert np.abs(state.entries - reference).max() <= 1e-13, (ls.regime_tag, omega)


class TestArithmeticRoute:
    """Generators and states that were once sent to complex arithmetic now run in real arithmetic too."""

    @pytest.mark.parametrize(
        "omega, complex_state",
        [(1.0, False), (0.5, False), (1.0, True)],
        ids=["real", "complex-generator", "complex-state"],
    )
    def test_operand_dtypes_and_agreement_with_complex_route(self, monkeypatch, omega, complex_state):
        _, lmap, m, h = line_setup(9)
        liou = build_liouvillian(h, edge_jump_operators(m), omega)
        if complex_state:
            rho0 = DensityMatrix.pure(np.exp(0.3j * np.arange(9)) / 3.0)
            assert np.abs(rho0.entries.imag).max() > 0.1
        else:
            rho0 = DensityMatrix.basis(9, lmap.center)
        operands = []

        kernel = qsw.evolution._expm_action

        def recording_expm_action(liouvillian, x, t):
            operands.append((liouvillian.matrix.dtype, x.dtype))
            return kernel(liouvillian, x, t)

        monkeypatch.setattr(qsw.evolution, "_expm_action", recording_expm_action)
        state, info = propagate_detailed(rho0, liou, 2.0)
        assert operands == [(np.float64, np.float64)]
        assert state.entries.dtype == np.complex128
        assert info.method == "matrix-exponential"
        reference = scipy.sparse.linalg.expm_multiply(
            column_stacked_superoperator(liou.matrix) * 2.0, vectorize_state(rho0.entries).astype(complex)
        )
        assert np.abs(state.entries - unvectorize_state(reference, 9)).max() <= 1e-13


def line9_generator(regime, omega):
    _, lmap, m, h = line_setup(9)
    ls = {"qw": empty_jump_operators(9), "crw": edge_jump_operators(m), "qsw-global": global_jump_operator(m)}[regime]
    return build_liouvillian(h, ls, omega), to_coordinates(DensityMatrix.basis(9, lmap.center).entries)


class TestExpmAction:
    """The in-repo kernel against scipy's expm_multiply, the independent reference."""

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("regime", ["qw", "crw", "qsw-global"])
    def test_matches_scipy_where_the_1_norm_picks_the_parameters(self, regime, omega):
        liou, x = line9_generator(regime, omega)
        coords, _ = _expm_action(liou._shifted, x, 2.0)
        assert np.abs(coords - scipy.sparse.linalg.expm_multiply(liou.matrix * 2.0, x)).max() <= 1e-13

    @pytest.mark.parametrize("omega", [0.5, 1.0])
    def test_matches_scipy_where_norms_of_powers_are_estimated(self, omega):
        # Past ||tA||_1 = 63.36 scipy sizes its steps from estimates of
        # ||A^p||_1 and the kernel from ||A||_1 alone; both meet 2^-53.
        liou, x = line9_generator("qsw-global", omega)
        assert 200.0 * liou._shifted.onenorm > 63.36
        coords, _ = _expm_action(liou._shifted, x, 200.0)
        assert np.abs(coords - scipy.sparse.linalg.expm_multiply(liou.matrix * 200.0, x)).max() <= 1e-13

    def test_long_coherent_walk_matches_schrodinger_oracle(self):
        # At omega 0 and t = 200 the Taylor sums cancel large terms, so two
        # correct kernels differ by rounding: here the kernel is 2.8e-13 and
        # scipy's expm_multiply 5.4e-13 from the oracle's state.
        _, lmap, m, h = line_setup(9)
        liou, x = line9_generator("qsw-global", 0.0)
        psi0 = np.zeros(9, dtype=complex)
        psi0[lmap.center] = 1.0
        psi = schrodinger_solve(h, psi0, 200.0)
        exact = to_coordinates(np.outer(psi, psi.conj()))
        coords, _ = _expm_action(liou._shifted, x, 200.0)
        assert np.abs(coords - exact).max() <= 1e-12

    def test_small_norm_propagation_leaves_the_global_rng_alone(self, monkeypatch):
        # Neither a short step nor a long one (t ||A||_1 = 200 ||A||_1 > 63.36) touches np.random.
        def refuse():
            raise AssertionError("sizing exp(tA) needs no random draws")

        monkeypatch.setattr(np.random, "get_state", refuse)
        for regime, omega, t in (("crw", 0.5, 2.0), ("qsw-global", 1.0, 200.0)):
            liou, _ = line9_generator(regime, omega)
            _, info = propagate_detailed(DensityMatrix.basis(9, 4), liou, t)
            assert info.steps > 0

    def test_overflowing_norms_of_powers_are_refused(self):
        # On line:3:1e40 ||A^8||_1 and ||A^9||_1 overflow a float, and the
        # step would make about 1e41 products; the product bound refuses it
        # before any is made. pytest turns a leaked RuntimeWarning into a failure.
        g, _ = build_line(3, 1e40)
        m = classical_generator(g)
        gen = build_liouvillian(hamiltonian_from_generator(m), edge_jump_operators(m), 1.0)._shifted
        message = (
            r"t = 1.0 is too long for one step of exp\(tA\): it needs at least 1.48e\+41 products with A, "
            rf"with \|\|A\|\|_1 = 2.66\d*e\+40, and the bound is {_MAX_PRODUCTS}"
        )
        with pytest.raises(ValueError, match=message):
            _taylor_parameters(gen, 1.0)
        # The longest pinned step, 75 900 products, is not refused.
        _, _, m, h = line_setup(61)
        long_step = _taylor_parameters(build_liouvillian(h, global_jump_operator(m), 1.0)._shifted, 2000.0)
        assert long_step == (55, 1380) and 55 * 1380 <= _MAX_PRODUCTS


# (m, s) of the kernel on line:61 at t = 1e-3, 1, 5, 200 and 2000, then at
# the two adjacent floats that put t ||A||_1 just below and just above 63.36,
# past which Al-Mohy and Higham's fragment 3.1 would estimate ||A^p||_1.
# The exact 1-norm sizes both, so the pair does not jump there. qw at
# omega = 1 has no generator, so no 1-norm to straddle.
TAYLOR_PARAMETERS = {
    ("qw", 0.0): [(6, 1), (40, 1), (50, 3), (55, 98), (55, 976), (13.12228565597965, (55, 7)), (13.122285655979654, (55, 7))],
    ("qw", 0.5): [(6, 1), (25, 1), (45, 2), (55, 49), (55, 488), (26.2445713119593, (55, 7)), (26.24457131195931, (55, 7))],
    ("qw", 1.0): [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1)],
    ("crw", 0.0): [(6, 1), (40, 1), (50, 3), (55, 98), (55, 976), (13.12228565597965, (55, 7)), (13.122285655979654, (55, 7))],
    ("crw", 0.5): [(6, 1), (27, 1), (45, 2), (55, 54), (55, 535), (23.929117966661124, (55, 7)), (23.92911796666113, (55, 7))],
    ("crw", 1.0): [(5, 1), (24, 1), (40, 2), (55, 42), (55, 411), (31.16903225806451, (55, 7)), (31.16903225806452, (55, 7))],
    ("qsw-global", 0.0): [(6, 1), (40, 1), (50, 3), (55, 98), (55, 976), (13.12228565597965, (55, 7)), (13.122285655979654, (55, 7))],
    ("qsw-global", 0.5): [(6, 1), (40, 1), (55, 3), (55, 110), (55, 1094), (11.701368980415726, (55, 7)), (11.70136898041573, (55, 7))],
    ("qsw-global", 1.0): [(6, 1), (45, 1), (55, 4), (55, 138), (55, 1380), (9.277396657863797, (55, 7)), (9.2773966578638, (55, 7))],
}


@pytest.mark.parametrize("regime, omega", list(TAYLOR_PARAMETERS))
def test_taylor_parameters_are_pinned(regime, omega):
    _, _, m, h = line_setup(61)
    ls = {"qw": empty_jump_operators(61), "crw": edge_jump_operators(m), "qsw-global": global_jump_operator(m)}[regime]
    gen = build_liouvillian(h, ls, omega)._shifted
    expected = TAYLOR_PARAMETERS[regime, omega]
    for t, pair in zip((1e-3, 1.0, 5.0, 200.0, 2000.0), expected):
        assert _taylor_parameters(gen, t) == pair
    for t, pair in expected[5:]:
        assert _taylor_parameters(gen, t) == pair


class TestStateReadouts:
    def test_populations_of_basis_state(self):
        assert populations(DensityMatrix.basis(4, 1)).tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_populations_of_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert np.allclose(populations(rho), 0.25)

    def test_populations_clamp_tiny_negatives_with_flag(self):
        rho = DensityMatrix(np.diag([1.0 + 2e-10, -2e-10]), trace_tol=1e-9, eig_floor=-1e-9)
        report = populations_detailed(rho)
        assert report.clamped
        assert report.clamped_indices == (1,)
        assert report.values[1] == 0.0
        assert report.min_raw_value == pytest.approx(-2e-10)
        clean = populations_detailed(DensityMatrix.basis(2, 0))
        assert not clean.clamped

    def test_coherence_l1(self):
        assert coherence_l1(DensityMatrix.basis(3, 0)) == 0.0
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        assert coherence_l1(plus) == pytest.approx(1.0, abs=1e-15)
        mixed = DensityMatrix(np.eye(5) / 5.0)
        assert coherence_l1(mixed) == 0.0
