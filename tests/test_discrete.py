"""Discrete-time stochastic matrices and their Kraus realizations."""

import numpy as np
import pytest

from qsw.discrete import (
    KrausSet,
    StochasticMatrix,
    apply_map,
    iterate_map,
    kraus_from_stochastic,
    lazy_walk_matrix,
    map_tensor_element,
)
from qsw.evolution import DensityMatrix
from qsw.graph import build_line, from_edge_list
from qsw.operators import JumpOperatorSet


def random_stochastic(rng, dim):
    arr = rng.random((dim, dim)) + 0.05
    arr /= arr.sum(axis=0)
    return StochasticMatrix(arr)


class TestStochasticMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[1.2, 0.0], [-0.2, 1.0]]))

    def test_rejects_bad_column_sums(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_accepts_valid(self):
        s = StochasticMatrix(np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert s.dim == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, value):
        # The sign and column-sum comparisons are False on nan, so it would pass them.
        with pytest.raises(ValueError, match=r"stochastic matrix entry \(1, 0\) is not finite"):
            StochasticMatrix(np.array([[1.0, 0.0], [value, 1.0]]))


class TestLazyWalkMatrix:
    def test_two_vertex_hop(self):
        g = from_edge_list(2, [(0, 1)])
        s = lazy_walk_matrix(g, hold=0.0)
        assert np.array_equal(s.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_two_vertex_frozen(self):
        g = from_edge_list(2, [(0, 1)])
        s = lazy_walk_matrix(g, hold=1.0)
        assert np.array_equal(s.entries, np.eye(2))

    def test_three_site_center_column(self):
        g, _ = build_line(3, 1.0)
        s = lazy_walk_matrix(g, hold=0.0)
        assert s.entries[:, 1].tolist() == [0.5, 0.0, 0.5]

    def test_isolated_vertex_requires_full_hold(self):
        g = from_edge_list(3, [(0, 1)])
        with pytest.raises(ValueError):
            lazy_walk_matrix(g, hold=0.25)
        s = lazy_walk_matrix(g, hold=1.0)
        assert s.entries[2, 2] == 1.0

    def test_hold_range(self):
        g = from_edge_list(2, [(0, 1)])
        with pytest.raises(ValueError):
            lazy_walk_matrix(g, hold=1.5)


class TestKrausConstruction:
    def test_swap_matrix_gives_two_dyads(self):
        ks = kraus_from_stochastic(StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert len(ks.operators) == 2
        supports = sorted(tuple(np.argwhere(op != 0)[0]) for op in ks.operators)
        assert supports == [(0, 1), (1, 0)]

    def test_identity_matrix_gives_projectors(self):
        ks = kraus_from_stochastic(StochasticMatrix(np.eye(3)))
        assert len(ks.operators) == 3
        total = sum(ks.operators)
        assert np.array_equal(total, np.eye(3))

    def test_lazy_center_amplitudes(self):
        g, _ = build_line(3, 1.0)
        ks = kraus_from_stochastic(lazy_walk_matrix(g, hold=0.0))
        amplitudes = {tuple(np.argwhere(op != 0)[0]): op[op != 0][0] for op in ks.operators}
        assert amplitudes[(0, 1)] == pytest.approx(np.sqrt(0.5))
        assert amplitudes[(2, 1)] == pytest.approx(np.sqrt(0.5))

    def test_completeness_enforced(self):
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            KrausSet.from_dense(2, (bad,))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_operator_entry(self, value):
        bad = np.eye(2, dtype=complex)
        bad[1, 1] = value
        with pytest.raises(ValueError, match=r"Kraus operator 1 entry \(1, 1\) is not finite"):
            KrausSet.from_dense(2, (np.zeros((2, 2)), bad))

    def test_completeness_for_random_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            ks = kraus_from_stochastic(random_stochastic(rng, dim))
            total = sum(op.conj().T @ op for op in ks.operators)
            assert np.abs(total - np.eye(dim)).max() <= 1e-10


class TestApplyMap:
    def test_identity_set_preserves_state(self):
        ks = KrausSet.from_dense(2, (np.eye(2, dtype=complex),))
        rho = DensityMatrix.pure(np.array([0.6, 0.8]))
        out = apply_map(ks, rho)
        assert np.allclose(out.entries, rho.entries, atol=1e-15)

    def test_diagonal_states_follow_markov_chain(self):
        rng = np.random.default_rng(42)
        s = random_stochastic(rng, 5)
        ks = kraus_from_stochastic(s)
        p = rng.random(5)
        p /= p.sum()
        out = apply_map(ks, DensityMatrix.from_populations(p))
        assert np.abs(np.diag(out.entries).real - s.entries @ p).max() <= 1e-12
        assert np.abs(out.entries - np.diag(np.diag(out.entries))).max() <= 1e-15

    def test_unitary_swap_permutes_coherences(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ks = KrausSet.from_dense(2, (swap,))
        rho = DensityMatrix(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        out = apply_map(ks, rho)
        assert out.entries[0, 0] == pytest.approx(0.3)
        assert out.entries[0, 1] == pytest.approx(0.2 - 0.1j)
        assert abs(out.entries.trace() - 1.0) <= 1e-12

    def test_classical_swap_destroys_coherences(self):
        ks = kraus_from_stochastic(StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        out = apply_map(ks, plus)
        assert np.allclose(out.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_dimension_mismatch(self):
        ks = KrausSet.from_dense(2, (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError):
            apply_map(ks, DensityMatrix.basis(3, 0))

    def test_matches_explicit_operator_sum(self):
        rng = np.random.default_rng(45)
        for dim in range(2, 7):
            for count in (1, 2, 5):
                # The stacked blocks of an isometry satisfy sum_k C_k^dag C_k = I.
                gauss = rng.standard_normal((count * dim, dim)) + 1j * rng.standard_normal((count * dim, dim))
                ops = np.linalg.qr(gauss)[0].reshape(count, dim, dim)
                ks = KrausSet.from_dense(dim, ops)
                a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T))
                explicit = sum(op @ rho.entries @ op.conj().T for op in ops)
                assert np.abs(apply_map(ks, rho).entries - explicit).max() <= 1e-13

    def test_line_walk_holds_no_dense_operators(self, monkeypatch, traced_peak):
        # 301 dense 101 x 101 operators would hold 49 MB.
        def refuse(self):
            raise AssertionError("a Kraus set must not be scattered into a dense stack")

        monkeypatch.setattr(JumpOperatorSet, "stacked", refuse)
        g, _ = build_line(101, 1.0)
        s = lazy_walk_matrix(g, hold=0.5)

        def walk():
            ks = kraus_from_stochastic(s)
            return iterate_map(ks, DensityMatrix.basis(101, 50), 5), map_tensor_element(ks, 49, 49, 50, 50)

        (out, element), peak = traced_peak(walk)
        assert peak < 5e6
        assert element == pytest.approx(0.25)
        expected = np.linalg.matrix_power(s.entries, 5)[:, 50]
        assert np.abs(np.diag(out.entries).real - expected).max() <= 1e-12


class TestMapTensorElement:
    def test_identity_set_elements(self):
        ks = KrausSet.from_dense(3, (np.eye(3, dtype=complex),))
        assert map_tensor_element(ks, 1, 1, 1, 1) == 1.0
        assert map_tensor_element(ks, 0, 0, 2, 2) == 0.0

    def test_swap_population_transfer(self):
        ks = kraus_from_stochastic(StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert map_tensor_element(ks, 0, 0, 1, 1) == 1.0

    def test_index_bounds(self):
        ks = KrausSet.from_dense(2, (np.eye(2, dtype=complex),))
        with pytest.raises(IndexError):
            map_tensor_element(ks, 2, 0, 0, 0)
        with pytest.raises(IndexError, match=r"index alpha=0.5 is not an integer"):
            map_tensor_element(ks, 0, 0.5, 0, 0)

    def test_entrywise_tensor_equals_apply_map(self):
        rng = np.random.default_rng(43)
        s = random_stochastic(rng, 4)
        ks = kraus_from_stochastic(s)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho = DensityMatrix(rho / rho.trace())
        direct = apply_map(ks, rho).entries
        rebuilt = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                rebuilt[i, j] = sum(
                    map_tensor_element(ks, i, j, b, beta) * rho.entries[b, beta]
                    for b in range(4)
                    for beta in range(4)
                )
        assert np.abs(rebuilt - direct).max() <= 1e-12


class TestIterateMap:
    def test_zero_steps(self):
        ks = KrausSet.from_dense(2, (np.eye(2, dtype=complex),))
        rho = DensityMatrix.basis(2, 1)
        assert iterate_map(ks, rho, 0) is rho

    def test_ten_steps_match_chain_power(self):
        rng = np.random.default_rng(44)
        s = random_stochastic(rng, 6)
        ks = kraus_from_stochastic(s)
        p0 = rng.random(6)
        p0 /= p0.sum()
        out = iterate_map(ks, DensityMatrix.from_populations(p0), 10)
        expected = np.linalg.matrix_power(s.entries, 10) @ p0
        assert np.abs(np.diag(out.entries).real - expected).max() <= 1e-10

    def test_full_hold_is_stationary(self):
        g, _ = build_line(3, 1.0)
        ks = kraus_from_stochastic(lazy_walk_matrix(g, hold=1.0))
        rho = DensityMatrix.from_populations([0.2, 0.3, 0.5])
        out = iterate_map(ks, rho, 7)
        assert np.allclose(out.entries, rho.entries, atol=1e-14)

    def test_negative_steps(self):
        ks = KrausSet.from_dense(2, (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError):
            iterate_map(ks, DensityMatrix.basis(2, 0), -1)

    @pytest.mark.parametrize("steps", [2.5, 2.0, "2"])
    def test_non_integer_steps(self, steps):
        ks = KrausSet.from_dense(2, (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError, match=f"steps must be a nonnegative integer, got {steps!r}"):
            iterate_map(ks, DensityMatrix.basis(2, 0), steps)
