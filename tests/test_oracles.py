"""Checks on the analytic reference solutions.

The Bessel sequences in qsw.oracles come from downward recurrence. Here
they are compared against two implementations that share no code with
them: a direct power series (small arguments only, the series cancels
catastrophically for large x) and trapezoid quadrature of the standard
integral representations, which converges exponentially for periodic
integrands.
"""

import math

import numpy as np
import pytest

from qsw.graph import GeneratorMatrix, classical_generator, from_edge_list
from qsw.operators import Hamiltonian
from qsw.oracles import (
    _MAX_X,
    LineWalkSpec,
    bessel_j_sequence,
    classical_master_solve,
    crw_line_analytic,
    qw_line_analytic,
    scaled_bessel_i_sequence,
    schrodinger_solve,
    total_variation,
)

CRW_CENTER_61_G1_T5 = 0.12783333716342861
QW_CENTER_61_G1_T5 = 0.06048440023626909


def series_bessel_j(n, x):
    """Power series for J_n(x); accurate only while x is modest."""
    term = (x / 2.0) ** n / math.factorial(n)
    total = term
    for m in range(1, 60):
        term *= -((x / 2.0) ** 2) / (m * (n + m))
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-300):
            break
    return total


def series_scaled_bessel_i(n, x):
    """Power series for e^-x I_n(x); same caveat on x."""
    term = (x / 2.0) ** n / math.factorial(n)
    total = term
    for m in range(1, 80):
        term *= (x / 2.0) ** 2 / (m * (n + m))
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-300):
            break
    return total * math.exp(-x)


def integral_bessel_j(n, x, points=4096):
    theta = np.arange(points) * (2.0 * np.pi / points)
    return float(np.mean(np.cos(n * theta - x * np.sin(theta))))


def integral_scaled_bessel_i(n, x, points=4096):
    theta = np.arange(points) * (2.0 * np.pi / points)
    return float(np.mean(np.exp(x * (np.cos(theta) - 1.0)) * np.cos(n * theta)))


class TestBesselSequences:
    @pytest.mark.parametrize("x", [0.05, 0.7, 2.0, 6.5, 10.0])
    def test_j_matches_series(self, x):
        seq = bessel_j_sequence(40, x)
        for n in range(41):
            assert seq[n] == pytest.approx(series_bessel_j(n, x), abs=1e-11)

    @pytest.mark.parametrize("x", [0.05, 0.7, 2.0, 6.5, 10.0])
    def test_scaled_i_matches_series(self, x):
        seq = scaled_bessel_i_sequence(40, x)
        for n in range(41):
            assert seq[n] == pytest.approx(series_scaled_bessel_i(n, x), abs=1e-11)

    @pytest.mark.parametrize("x", [0.5, 7.0, 10.0, 25.0, 40.0])
    def test_j_matches_integral_to_high_order(self, x):
        seq = bessel_j_sequence(100, x)
        worst = max(abs(seq[n] - integral_bessel_j(n, x)) for n in range(101))
        assert worst <= 1e-10

    @pytest.mark.parametrize("x", [0.5, 7.0, 10.0, 25.0, 40.0])
    def test_scaled_i_matches_integral_to_high_order(self, x):
        seq = scaled_bessel_i_sequence(100, x)
        worst = max(abs(seq[n] - integral_scaled_bessel_i(n, x)) for n in range(101))
        assert worst <= 1e-10

    def test_j_defining_recurrence(self):
        x = 13.7
        seq = bessel_j_sequence(60, x)
        for n in range(1, 59):
            assert seq[n - 1] + seq[n + 1] == pytest.approx(2 * n / x * seq[n], abs=1e-12)

    def test_scaled_i_defining_recurrence(self):
        x = 9.3
        seq = scaled_bessel_i_sequence(60, x)
        for n in range(1, 59):
            assert seq[n - 1] - seq[n + 1] == pytest.approx(2 * n / x * seq[n], abs=1e-12)

    def test_zero_argument(self):
        assert bessel_j_sequence(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert scaled_bessel_i_sequence(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("x", [1e-60, 1e-100, 1e-300, 5e-324])
    def test_tiny_argument_is_the_leading_term(self, x):
        # Below x of about 1e-56 one step of the recurrence once overflowed and both sequences read NaN.
        leading = [(x / 2.0) ** n / math.factorial(n) for n in range(31)]
        for sequence in (bessel_j_sequence, scaled_bessel_i_sequence):
            assert np.abs(sequence(30, x) - leading).max() <= 1e-15

    @pytest.mark.parametrize("n_max, x, message", [(-1, 1.0, "n_max must be nonnegative"), (3, -1.0, "x must be nonnegative")])
    def test_refuses_negative_order_or_argument(self, n_max, x, message):
        for sequence in (bessel_j_sequence, scaled_bessel_i_sequence):
            with pytest.raises(ValueError, match=message):
                sequence(n_max, x)

    def test_argument_past_the_bound_is_refused_before_any_allocation(self, traced_peak):
        # The recurrence once allocated 8 bytes per unit of x whatever the window: about 8 GB near t = 5e8.
        x = math.nextafter(_MAX_X, math.inf)
        for sequence in (bessel_j_sequence, scaled_bessel_i_sequence):

            def call():
                with pytest.raises(ValueError, match=rf"^Bessel argument x = {x!r} \(2 gamma t on a line\) is past 200000;"):
                    sequence(3, x)

            _, peak = traced_peak(call)
            assert peak < 8 * _MAX_X / 100
        for oracle in (crw_line_analytic, qw_line_analytic):
            with pytest.raises(ValueError, match=r"Bessel argument x = 2000000000.0 "):
                oracle(LineWalkSpec(5, 1.0, 1e9))

    def test_j_squares_sum_to_one(self):
        seq = bessel_j_sequence(80, 10.0)
        total = seq[0] ** 2 + 2.0 * np.sum(seq[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestLineDistributions:
    def test_crw_center_frozen_value(self):
        dist = crw_line_analytic(LineWalkSpec(61, 1.0, 5.0))
        center = dist.probabilities[30]
        assert center == pytest.approx(CRW_CENTER_61_G1_T5, abs=1e-13)
        assert center == pytest.approx(integral_scaled_bessel_i(0, 10.0), abs=1e-13)

    def test_qw_center_frozen_value(self):
        dist = qw_line_analytic(LineWalkSpec(61, 1.0, 5.0))
        center = dist.probabilities[30]
        assert center == pytest.approx(QW_CENTER_61_G1_T5, abs=1e-13)
        assert center == pytest.approx(integral_bessel_j(0, 10.0) ** 2, abs=1e-13)

    def test_t_zero_is_delta(self):
        for build in (crw_line_analytic, qw_line_analytic):
            dist = build(LineWalkSpec(11, 2.0, 0.0))
            expected = np.zeros(11)
            expected[5] = 1.0
            assert np.array_equal(dist.probabilities, expected)

    def test_symmetry(self):
        for build in (crw_line_analytic, qw_line_analytic):
            dist = build(LineWalkSpec(41, 1.0, 3.0))
            assert np.allclose(dist.probabilities, dist.probabilities[::-1], atol=1e-15)

    @pytest.mark.parametrize("gamma,t", [(1.0, 5.0), (0.5, 2.0), (2.0, 3.0)])
    def test_normalization_over_wide_window(self, gamma, t):
        n = 2 * (math.ceil(2 * gamma * t) + 40) + 1
        for build in (crw_line_analytic, qw_line_analytic):
            dist = build(LineWalkSpec(n, gamma, t))
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-8)
            assert abs(dist.tail_mass) <= 1e-8

    @pytest.mark.parametrize("gamma,t", [(1.0, 5.0), (0.5, 2.0), (2.0, 3.0)])
    def test_variances(self, gamma, t):
        n = 2 * (math.ceil(2 * gamma * t) + 40) + 1
        positions = np.arange(n) - (n - 1) // 2

        crw = crw_line_analytic(LineWalkSpec(n, gamma, t)).probabilities
        var_crw = float(crw @ positions**2) - float(crw @ positions) ** 2
        assert var_crw == pytest.approx(2 * gamma * t, abs=1e-6)

        qw = qw_line_analytic(LineWalkSpec(n, gamma, t)).probabilities
        var_qw = float(qw @ positions**2) - float(qw @ positions) ** 2
        assert var_qw == pytest.approx(2 * (gamma * t) ** 2, abs=1e-6)

    def test_walk_spec_validation(self):
        with pytest.raises(ValueError):
            LineWalkSpec(10, 1.0, 1.0)
        with pytest.raises(ValueError):
            LineWalkSpec(11, 0.0, 1.0)
        with pytest.raises(ValueError):
            LineWalkSpec(11, 1.0, -0.5)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"gamma must be finite and positive, got {value}"):
                LineWalkSpec(11, value, 1.0)
            with pytest.raises(ValueError, match=f"t must be finite and nonnegative, got {value}"):
                LineWalkSpec(11, 1.0, value)

    def test_walk_spec_refuses_fractional_sites_at_construction(self):
        # It once failed later, inside crw_line_analytic, with numpy's unlocated TypeError.
        with pytest.raises(ValueError, match=r"^n_sites must be odd and >= 3, got 5.0$"):
            LineWalkSpec(5.0, 1.0, 1.0)


class TestClassicalMasterSolve:
    def test_t_zero_returns_p0(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        m = classical_generator(g)
        p0 = np.array([0.2, 0.5, 0.3])
        assert np.allclose(classical_master_solve(m, p0, 0.0), p0, atol=1e-15)

    def test_two_vertex_equilibration(self):
        g = from_edge_list(2, [(0, 1)])
        m = classical_generator(g)
        out = classical_master_solve(m, np.array([1.0, 0.0]), 20.0)
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_three_site_center_near_analytic_at_short_time(self):
        # The infinite-line formula can approximate a 3-site line only while
        # the walker has barely touched the ends: the center is adjacent to
        # both boundaries, and by t=1 the finite-size gap has grown to 0.058.
        g = from_edge_list(3, [(0, 1), (1, 2)])
        m = classical_generator(g)
        p0 = np.array([0.0, 1.0, 0.0])

        out_short = classical_master_solve(m, p0, 0.1)
        analytic_short = crw_line_analytic(LineWalkSpec(3, 1.0, 0.1))
        assert out_short[1] == pytest.approx(analytic_short.probabilities[1], abs=1e-3)

        out_late = classical_master_solve(m, p0, 1.0)
        analytic_late = crw_line_analytic(LineWalkSpec(3, 1.0, 1.0))
        assert abs(out_late[1] - analytic_late.probabilities[1]) == pytest.approx(0.058, abs=0.001)

    def test_random_graphs_stay_stochastic(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            if not edges:
                edges = [(0, 1)]
            weighted = [(u, v, float(rng.uniform(0.2, 3.0))) for u, v in edges]
            m = classical_generator(from_edge_list(n, weighted))
            p0 = rng.random(n)
            p0 /= p0.sum()
            out = classical_master_solve(m, p0, float(rng.uniform(0.1, 8.0)))
            assert out.min() >= -1e-12
            assert out.sum() == pytest.approx(1.0, abs=1e-10)

    def test_input_validation(self):
        g = from_edge_list(2, [(0, 1)])
        m = classical_generator(g)
        with pytest.raises(ValueError):
            classical_master_solve(m, np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            classical_master_solve(m, np.array([0.7, 0.7]), 1.0)
        with pytest.raises(ValueError):
            classical_master_solve(m, np.array([1.0, 0.0]), -1.0)
        with pytest.raises(ValueError, match="generator must be symmetric for the eigendecomposition route"):
            classical_master_solve(GeneratorMatrix([[-1.0, 2.0], [1.0, -2.0]]), np.array([1.0, 0.0]), 1.0)
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"t must be finite and nonnegative, got {t}"):
                classical_master_solve(m, np.array([1.0, 0.0]), t)


class TestSchrodingerSolve:
    def test_t_zero(self):
        h = Hamiltonian([[0.0, 1.0], [1.0, 0.0]])
        psi0 = np.array([1.0, 0.0], dtype=complex)
        assert np.allclose(schrodinger_solve(h, psi0, 0.0), psi0, atol=1e-15)

    def test_rabi_flop(self):
        h = Hamiltonian([[0.0, 1.0], [1.0, 0.0]])
        psi = schrodinger_solve(h, np.array([1.0, 0.0], dtype=complex), np.pi / 2)
        assert np.allclose(psi, [0.0, -1.0j], atol=1e-12)

    def test_line_walk_matches_analytic(self):
        n = 61
        g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
        h = Hamiltonian(classical_generator(g).entries)
        psi0 = np.zeros(n, dtype=complex)
        psi0[30] = 1.0
        psi = schrodinger_solve(h, psi0, 5.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        analytic = qw_line_analytic(LineWalkSpec(n, 1.0, 5.0)).probabilities
        interior = slice(10, 51)
        assert np.abs(np.abs(psi[interior]) ** 2 - analytic[interior]).max() <= 1e-6

    def test_norm_validation(self):
        h = Hamiltonian([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            schrodinger_solve(h, np.array([1.0, 1.0], dtype=complex), 1.0)
        with pytest.raises(ValueError, match=r"psi0 has shape \(3,\), expected \(2,\)"):
            schrodinger_solve(h, np.array([1.0, 0.0, 0.0], dtype=complex), 1.0)
        for t in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
                schrodinger_solve(h, np.array([1.0, 0.0], dtype=complex), t)


class TestTotalVariation:
    def test_identical(self):
        p = np.array([0.3, 0.7])
        assert total_variation(p, p) == 0.0

    def test_disjoint_deltas(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_uniform_vs_delta(self):
        assert total_variation(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))
