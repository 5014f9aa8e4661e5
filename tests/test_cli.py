"""End-to-end checks of the command line interface.

Commands run in-process through main(argv) with --output pointed at temp
files; exit codes and emitted documents are asserted directly.
"""

import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import qsw.cli as cli
import qsw.evolution
import qsw.graph
import qsw.operators
from qsw.evolution import (
    DensityMatrix,
    EigenbasisWalk,
    PropagationError,
    QuantumWalk,
    build_liouvillian,
    coherence_l1,
    populations,
    propagate_detailed,
)
from qsw.graph import build_line, classical_generator
from qsw.operators import edge_jump_operators, empty_jump_operators, global_jump_operator, hamiltonian_from_generator
from qsw.oracles import LineWalkSpec, crw_line_analytic


def run(tmp_path, *argv, name="out"):
    """Run the CLI writing to a temp file; returns (exit code, text or None)."""
    target = tmp_path / name
    rc = cli.main([*argv, "--output", str(target)])
    text = target.read_text() if target.exists() else None
    return rc, text


class TestSimulate:
    def test_t_zero_is_delta_at_origin(self, tmp_path):
        rc, text = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "qw", "--t", "0")
        assert rc == 0
        doc = json.loads(text)
        assert set(doc) == {"config_echo", "results", "version"}
        result = doc["results"][0]
        assert result["populations"] == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert result["validation"]["solver_steps"] == 0
        assert set(result["validation"]) == {"trace_drift", "min_eigenvalue", "solver_steps"}

    def test_crw_small_line_matches_oracle_center(self, tmp_path):
        rc, text = run(tmp_path, "simulate", "--graph", "line:31:1", "--regime", "crw", "--t", "2")
        assert rc == 0
        doc = json.loads(text)
        pops = np.array(doc["results"][0]["populations"])
        oracle = crw_line_analytic(LineWalkSpec(31, 1.0, 2.0)).probabilities
        assert np.abs(pops - oracle).max() <= 1e-6
        assert pops.sum() == pytest.approx(1.0, abs=1e-8)

    def test_origin_offset_on_line(self, tmp_path):
        rc, text = run(tmp_path, "simulate", "--graph", "line:7:1", "--regime", "qw", "--t", "0", "--origin", "-2")
        assert rc == 0
        doc = json.loads(text)
        assert doc["results"][0]["populations"][1] == 1.0
        assert doc["config_echo"]["origin"] == -2
        assert doc["config_echo"]["origin_index"] == 1

    def test_origin_out_of_range(self, tmp_path):
        rc, _ = run(tmp_path, "simulate", "--graph", "line:7:1", "--regime", "qw", "--origin", "9")
        assert rc == 2

    def test_csv_and_json_contain_identical_numbers(self, tmp_path):
        args = ["simulate", "--graph", "line:9:1", "--regime", "qsw-global", "--omega", "0.7", "--t", "1.5"]
        rc_json, text_json = run(tmp_path, *args, "--format", "json", name="a.json")
        rc_csv, text_csv = run(tmp_path, *args, "--format", "csv", name="a.csv")
        assert rc_json == 0 and rc_csv == 0
        pops = json.loads(text_json)["results"][0]["populations"]
        rows = text_csv.strip().splitlines()
        assert rows[0] == "omega,t,position,population"
        csv_values = [float(row.split(",")[3]) for row in rows[1:]]
        assert csv_values == pops

    def test_time_grid(self, tmp_path):
        rc, text = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "crw", "--t", "0:2:3")
        assert rc == 0
        doc = json.loads(text)
        assert [r["t"] for r in doc["results"]] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "argv, builds, omegas, ts",
        [
            (("simulate", "--regime", "crw", "--omega", "0:1:2", "--t", "0:2:3"), [], [0.0, 1.0], [0.0, 1.0, 2.0]),
            (("sweep", "--regime", "crw", "--omega", "0:1:11", "--t", "1"), [0.0, 1.0], np.linspace(0, 1, 11).tolist(), [1.0]),
            (("simulate", "--regime", "crw", "--omega", "0.5", "--t", "1"), [0.0, 1.0], [0.5], [1.0]),
            (("simulate", "--regime", "crw", "--omega", "1", "--t", "1"), [], [1.0], [1.0]),
            (("simulate", "--regime", "qw", "--t", "1"), [], [0.0], [1.0]),
        ],
        ids=["time-grid", "sweep", "interior", "dissipative", "qw-default"],
    )
    def test_time_grid_builds_once_per_omega(self, tmp_path, monkeypatch, argv, builds, omegas, ts):
        # Each omega-free part is built once per command, and only if some omega weighs it;
        # omega = 0 propagates the walk on amplitudes and crw at omega = 1 the classical walk on
        # populations, so both parts are built only for an interior omega.
        built = []

        def counting_build(h, ls, omega):
            built.append(omega)
            return build_liouvillian(h, ls, omega)

        monkeypatch.setattr(cli, "build_liouvillian", counting_build)
        rc, text = run(tmp_path, *argv, "--graph", "line:5:1", "--format", "json")
        assert rc == 0
        assert built == builds
        results = json.loads(text)["results"]
        assert [(r["omega"], r["t"]) for r in results] == [(w, t) for w in omegas for t in ts]

    @pytest.mark.parametrize(
        "regime, builds",
        [("qw", ["walk", 0.0, 1.0]), ("crw", ["walk", 0.0, 1.0]), ("qsw-global", ["eigenbasis", "walk"])],
        ids=["qw", "crw", "qsw-global"],
    )
    def test_zero_times_build_no_generator(self, tmp_path, monkeypatch, regime, builds):
        # Every point is the start state, so neither part nor a walk is built;
        # the records equal the t = 0 records of a grid that builds them.
        # qsw-global's omega 0.5 and 1 take the eigenbasis walk, and build no part.
        built = []
        walk, eigenbasis = QuantumWalk.from_hamiltonian, EigenbasisWalk.from_hamiltonian

        def counting_build(h, ls, omega):
            built.append(omega)
            return build_liouvillian(h, ls, omega)

        def counting_walk(h):
            built.append("walk")
            return walk(h)

        def counting_eigenbasis(h):
            built.append("eigenbasis")
            return eigenbasis(h)

        monkeypatch.setattr(cli, "build_liouvillian", counting_build)
        monkeypatch.setattr(QuantumWalk, "from_hamiltonian", staticmethod(counting_walk))
        monkeypatch.setattr(EigenbasisWalk, "from_hamiltonian", staticmethod(counting_eigenbasis))
        argv = ("simulate", "--graph", "line:5:1", "--regime", regime, "--omega", "0:1:3", "--origin", "1")
        rc, still = run(tmp_path, *argv, "--t", "0:0:2", name="still")
        assert (rc, built) == (0, [])
        rc, moving = run(tmp_path, *argv, "--t", "0:1:2", name="moving")
        assert (rc, built) == (0, builds)
        forced = [json.dumps(r) for r in json.loads(moving)["results"] if r["t"] == 0.0]
        assert [json.dumps(r) for r in json.loads(still)["results"]] == [entry for entry in forced for _ in range(2)]

    @pytest.mark.parametrize("sites", [61, 151])
    def test_crw_at_omega_1_reports_no_coherence(self, tmp_path, sites):
        # The state stays on its populations; the dense sum of magnitudes read -1.1e-16 here.
        rc, text = run(tmp_path, "simulate", "--graph", f"line:{sites}:1", "--regime", "crw", "--omega", "1", "--t", "5")
        assert rc == 0
        assert json.loads(text)["results"][0]["coherence_l1"] == 0.0
        assert '"coherence_l1": 0.0,' in text

    def test_known_spectra_are_checked_without_lapack(self, tmp_path, monkeypatch):
        # The walk's states are psi psi^dag and the classical walk's diag(p); only
        # a state on the coordinates needs eigvalsh.
        class LapackCalled(Exception):
            pass

        def refuse(_):
            raise LapackCalled

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert run(tmp_path, "simulate", "--graph", "line:61:1", "--regime", "qw", "--t", "0:5:11")[0] == 0
        assert run(tmp_path, "simulate", "--graph", "line:151:1", "--regime", "crw", "--omega", "1", "--t", "5")[0] == 0
        with pytest.raises(LapackCalled):
            run(tmp_path, "simulate", "--graph", "line:9:1", "--regime", "crw", "--omega", "0.5", "--t", "1")

    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--graph", "line:21:1", "--regime", "qw", "--t", "0:2:3"), ("compare", "--graph", "line:21:1", "--regime", "qw")],
        ids=["simulate", "compare"],
    )
    def test_qw_assembles_no_coordinate_matrix(self, tmp_path, monkeypatch, argv):
        # omega = 0 propagates amplitudes; the dim^2 x dim^2 commutator is never assembled.
        def refuse(gen, ls):
            raise AssertionError("_assemble called")

        monkeypatch.setattr(qsw.evolution, "_assemble", refuse)
        rc, text = run(tmp_path, *argv)
        assert rc == 0 and text is not None

    @pytest.mark.parametrize("regime", ["qw", "crw"])
    def test_omega_1_of_a_population_closed_set_builds_and_searches_no_coordinate_matrix(self, tmp_path, monkeypatch, matvecs, regime):
        # The classical walk is made from the jump triplets: no R_D is assembled, and none is searched.
        def refuse(*args):
            raise AssertionError("a dim^2 generator was built or searched")

        monkeypatch.setattr(cli, "build_liouvillian", refuse)
        monkeypatch.setattr(qsw.evolution, "_reached", refuse)
        rc, text = run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", regime, "--omega", "1", "--t", "0:2:3")
        assert rc == 0
        assert set(matvecs) <= {(21, 21)}
        # The empty set's rate matrix is zero, so the qw walk makes no product.
        steps = [r["validation"]["solver_steps"] for r in json.loads(text)["results"]]
        assert sum(steps) == len(matvecs) and (steps[1] > 0) == (regime == "crw")

    def test_a_build_past_the_bound_exits_2_and_the_classical_walk_needs_none(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qsw.evolution, "_MAX_BUILD_ENTRIES", 0)
        argv = ("simulate", "--graph", "line:5:1", "--regime", "crw", "--t", "1")
        assert run(tmp_path, *argv, "--omega", "1")[0] == 0
        rc, text = run(tmp_path, *argv, "--omega", "0.5", name="interior")
        assert (rc, text) == (2, None)
        # R_QW is built first: G = -iH has 13 nonzeros on line:5.
        message = "the superoperator build at dim 5 would form 130 product entries (sum_k nnz(L_k)^2 + 2 dim nnz(G)), and the bound is 0"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_only_a_route_that_reads_h_builds_it(self, tmp_path, monkeypatch):
        # The classical walk never reads H; the quantum walk and both parts do.
        argvs = [("simulate", "--graph", "line:21:1", "--regime", regime, "--omega", "1", "--t", "0:2:3") for regime in ("crw", "qw")]
        expected = [run(tmp_path, *argv) for argv in argvs]

        def refuse(m):
            raise AssertionError("H was built")

        monkeypatch.setattr(cli, "hamiltonian_from_generator", refuse)
        assert [run(tmp_path, *argv) for argv in argvs] == expected
        assert all(rc == 0 for rc, _ in expected)
        with pytest.raises(AssertionError, match="H was built"):
            run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", "crw", "--omega", "0.5", "--t", "1")

    def test_parts_no_later_omega_weighs_are_released_before_propagation(self, tmp_path, monkeypatch):
        parts = []
        alive = []

        def recording_build(h, ls, omega):
            liou = build_liouvillian(h, ls, omega)
            parts.append((omega, weakref.ref(liou)))
            return liou

        def recording_propagate(state, liou, t):
            alive.append([omega for omega, ref in parts if ref() is not None and ref() is not liou])
            return propagate_detailed(state, liou, t)

        monkeypatch.setattr(cli, "build_liouvillian", recording_build)
        monkeypatch.setattr(cli, "propagate_detailed", recording_propagate)
        rc, _ = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "crw", "--omega", "0.5", "--t", "1")
        assert (rc, alive) == (0, [[]])
        alive.clear()
        rc, _ = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:3", "--t", "1")
        # At omega 0 the walk propagates while both parts wait for omega 0.5, the last omega
        # that weighs either; omega 1 propagates the classical walk with both let go.
        assert (rc, alive) == (0, [[0.0, 1.0], [], []])

    @pytest.mark.parametrize("grid", ["0:5:11", "5:0:11", "1:3:5"], ids=["ascending", "descending", "offset"])
    @pytest.mark.parametrize("regime", ["qw", "crw", "qsw-global"])
    def test_time_grid_matches_per_point_propagation(self, tmp_path, matvecs, regime, grid):
        rc, text = run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", regime, "--omega", "0.5", "--t", grid)
        assert rc == 0
        results = json.loads(text)["results"]
        start, stop, count = grid.split(":")
        assert [r["t"] for r in results] == [float(t) for t in np.linspace(float(start), float(stop), int(count))]

        g, lmap = build_line(21, 1.0)
        m = classical_generator(g)
        ls = {"qw": empty_jump_operators(21), "crw": edge_jump_operators(m), "qsw-global": global_jump_operator(m)}[regime]
        liou = build_liouvillian(hamiltonian_from_generator(m), ls, 0.5)
        # The records count the products of the chain's steps, so together
        # they count every product the command made.
        steps = [r["validation"]["solver_steps"] for r in results]
        assert sum(steps) == len(matvecs)
        assert [s == 0 for s in steps] == [r["t"] == 0.0 for r in results]
        rho0 = DensityMatrix.basis(21, lmap.center)
        for r in results:
            state, _ = propagate_detailed(rho0, liou, r["t"])
            assert np.abs(np.array(r["populations"]) - populations(state)).max() <= 1e-12
            assert r["coherence_l1"] == pytest.approx(coherence_l1(state), abs=1e-12)

    def test_time_grid_is_one_forward_chain(self, tmp_path, monkeypatch, matvecs):
        calls = []

        def recording_propagate(rho0, liou, t):
            before = len(matvecs)
            state, info = propagate_detailed(rho0, liou, t)
            calls.append((rho0, t, state, len(matvecs) - before))
            return state, info

        monkeypatch.setattr(cli, "propagate_detailed", recording_propagate)
        rc, text = run(tmp_path, "simulate", "--graph", "line:11:1", "--regime", "crw", "--omega", "0.5", "--t", "0:5:11")
        assert rc == 0
        assert sum(t for _, t, _, _ in calls) == pytest.approx(5.0, abs=1e-12)
        assert np.array_equal(calls[0][0].entries, DensityMatrix.basis(11, 5).entries)
        for (_, _, previous, _), (start, _, _, _) in zip(calls, calls[1:]):
            assert start is previous
        steps = [r["validation"]["solver_steps"] for r in json.loads(text)["results"]]
        assert steps == [products for _, _, _, products in calls]
        assert steps[0] == 0 and min(steps[1:]) > 0

    def test_repeated_time_is_an_identity_step(self, tmp_path, matvecs):
        rc, text = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "crw", "--t", "2:2:2")
        assert rc == 0
        first, second = json.loads(text)["results"]
        assert len(matvecs) > 0
        assert (first["validation"]["solver_steps"], second["validation"]["solver_steps"]) == (len(matvecs), 0)
        assert first["populations"] == second["populations"]

    def test_bad_graph_spec(self, tmp_path):
        rc, _ = run(tmp_path, "simulate", "--graph", "line:banana", "--regime", "qw")
        assert rc == 2

    def test_pure_quantum_walk_on_line_101_succeeds(self, tmp_path, matvecs):
        rc, text = run(tmp_path, "simulate", "--graph", "line:101:1", "--regime", "qw", "--t", "5")
        assert rc == 0
        validation = json.loads(text)["results"][0]["validation"]
        assert validation["min_eigenvalue"] >= -1e-9
        assert validation["solver_steps"] == len(matvecs) > 0

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (("--regime", "qw", "--t", "0:5:11"), 250),
            (("--regime", "qsw-global", "--omega", "1", "--t", "200"), 3900),
        ],
        ids=["qw-grid", "qsw-global-long-t"],
    )
    def test_matvec_budget(self, tmp_path, matvecs, argv, budget):
        # The Taylor degree and step count set the cost; a slip in choosing
        # them would multiply the products without changing any result.
        # matvecs counts every product with a sparse matrix, so sizing the
        # steps counts too: the long-t command makes 3547 products with the
        # diagonal matrix on the 3660 eigenbasis coordinates of the 1830
        # coherences, which move, each on the 1830 that start nonzero.
        # The Liouvillian made 3786 on the 1891 real coordinates its start
        # state reaches, 3891 on all 3721, and sizing the steps from
        # estimates of ||A^p||_1 made 3951 (3599 in the kernel and 352 in
        # the estimates).
        rc, text = run(tmp_path, "simulate", "--graph", "line:61:1", *argv)
        assert rc == 0
        steps = sum(r["validation"]["solver_steps"] for r in json.loads(text)["results"])
        assert steps == len(matvecs) <= budget

    def test_solver_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise PropagationError("synthetic integrator breakdown")

        monkeypatch.setattr(cli, "propagate_detailed", explode)
        rc, _ = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "crw", "--t", "1")
        assert rc == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--t", "nan"),
            ("simulate", "--t", "inf"),
            ("simulate", "--t", "0:inf:3"),
            ("sweep", "--omega", "0:1:3", "--t", "nan"),
            ("compare", "--t", "inf"),
        ],
        ids=["nan", "inf", "infinite-grid-end", "sweep-nan", "compare-inf"],
    )
    def test_non_finite_t_is_located_config_error(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a non-finite t must be rejected before any build")

        monkeypatch.setattr(cli, "build_liouvillian", refuse)
        command, *flags = argv
        rc, text = run(tmp_path, command, "--graph", "line:5:1", "--regime", "crw", *flags)
        assert rc == 2
        assert text is None
        assert f"error: --t must be finite, got {flags[-1]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--t=-0.5"),
            ("simulate", "--t=1:-1:3"),
            ("simulate", "--t=-1:1:3"),
            ("sweep", "--omega", "0:1:3", "--t=-2"),
            ("compare", "--t=-1e-3"),
        ],
        ids=["negative", "negative-grid-end", "negative-grid-start", "sweep", "compare"],
    )
    def test_negative_t_is_located_config_error(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a negative t must be rejected before any build")

        monkeypatch.setattr(cli, "build_liouvillian", refuse)
        command, *flags = argv
        rc, text = run(tmp_path, command, "--graph", "line:5:1", "--regime", "crw", *flags)
        assert rc == 2
        assert text is None
        assert f"error: --t must be nonnegative, got {flags[-1][4:]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--t", "5e-324"), ("simulate", "--t", "0:1e-310:2"), ("compare", "--t", "1e-310")],
        ids=["smallest", "grid-end", "compare"],
    )
    def test_subnormal_t_is_located_config_error(self, tmp_path, capsys, argv):
        # scipy's expm_multiply warned "invalid value encountered in scalar divide"
        # at t = 5e-324; the suite turns warnings into errors (pyproject.toml).
        command, *flags = argv
        rc, text = run(tmp_path, command, "--graph", "line:5:1", "--regime", "qw", *flags)
        assert rc == 2
        assert text is None
        assert f"error: --t must be 0 or at least 2.2250738585072014e-308, got {flags[-1]!r}" in capsys.readouterr().err

    def test_subnormal_grid_step_is_located_config_error(self, tmp_path, capsys):
        rc, text = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "qw", "--t", "3e-308:4e-308:3")
        assert rc == 2
        assert text is None
        assert "error: --t grid steps must be 0 or at least 2.2250738585072014e-308, got '3e-308:4e-308:3'" in capsys.readouterr().err

    def test_smallest_normal_t_runs(self, tmp_path):
        rc, text = run(tmp_path, "simulate", "--graph", "line:5:1", "--regime", "qw", "--t", "2.2250738585072014e-308")
        assert rc == 0
        assert json.loads(text)["results"][0]["populations"] == [0.0, 0.0, 1.0, 0.0, 0.0]


class TestInvariantBlock:
    """At omega 1 the kernel multiplies only the coordinates the start state reaches."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """A list that grows by one entry per search for an invariant block."""
        calls = []
        search = qsw.evolution._reached

        def counting_search(matrix, support):
            calls.append(matrix.shape)
            return search(matrix, support)

        monkeypatch.setattr(qsw.evolution, "_reached", counting_search)
        return calls

    @pytest.fixture
    def routes(self, monkeypatch):
        """A list that grows by (route, rows) of each PropagationInfo the CLI receives."""
        calls = []

        def recording_propagate(rho0, liou, t):
            state, info = propagate_detailed(rho0, liou, t)
            calls.append((info.route, info.rows))
            return state, info

        monkeypatch.setattr(cli, "propagate_detailed", recording_propagate)
        return calls

    def test_crw_at_omega_1_propagates_the_populations_alone(self, tmp_path, matvecs, searches, routes):
        # The classical walk runs on the 151 populations, with no search of the dim^2 coordinates.
        rc, text = run(tmp_path, "simulate", "--graph", "line:151:1", "--regime", "crw", "--omega", "1")
        assert rc == 0
        assert json.loads(text)["results"][0]["validation"]["solver_steps"] == len(matvecs) > 0
        assert set(matvecs) == {(151, 151)}
        assert searches == []
        assert routes == [("populations", 151)]

    @pytest.mark.parametrize(
        "argv, shape, route",
        [(("--regime", "crw", "--omega", "0.5"), (21**2, 21**2), "coordinates"), (("--regime", "qw"), (2 * 21, 2 * 21), "amplitudes")],
        ids=["interior-omega", "qw"],
    )
    def test_a_generator_with_a_coherent_part_is_not_searched(self, tmp_path, matvecs, searches, routes, argv, shape, route):
        # qw runs on the real and imaginary parts of the 21 amplitudes, never on the coordinates.
        rc, _ = run(tmp_path, "simulate", "--graph", "line:21:1", *argv, "--t", "0:2:3")
        assert rc == 0
        assert len(matvecs) > 0 and set(matvecs) == {shape}
        assert searches == []
        assert routes == [("identity", 0)] + [(route, shape[0])] * 2

    def test_a_coordinate_grid_maps_its_start_state_in_once(self, tmp_path, monkeypatch):
        # Each later point continues from the kernel's vector of the state
        # before it; the entries of that state were once read back in at every point.
        calls = []
        to_coordinates = qsw.evolution.to_coordinates

        def counting(entries):
            calls.append(entries.shape)
            return to_coordinates(entries)

        monkeypatch.setattr(qsw.evolution, "to_coordinates", counting)
        rc, _ = run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", "crw", "--omega", "0.5", "--t", "0:2:3")
        assert rc == 0
        assert calls == [(21, 21)]

    @pytest.mark.parametrize(
        "regime, block, route, search_count",
        [(("crw",), 21, "populations", 0), (("qsw-global", "--global-l", "offdiagonal"), 121, "invariant-block", 1)],
        ids=["crw-21", "qsw-global-offdiagonal-121"],
    )
    def test_a_time_grid_at_omega_1_searches_once(self, tmp_path, matvecs, searches, routes, regime, block, route, search_count):
        # The offdiagonal operator keeps a vertex start state on the 121 real coordinates of
        # its parity block, found by one search; crw propagates the classical walk on the
        # populations with none.
        rc, text = run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", *regime, "--omega", "1", "--t", "0:5:11")
        assert rc == 0
        assert sum(r["validation"]["solver_steps"] for r in json.loads(text)["results"]) == len(matvecs) > 0
        assert set(matvecs) == {(block, block)}
        assert len(searches) == search_count
        assert routes == [("identity", 0)] + [(route, block)] * 10

    def test_a_start_that_reaches_every_coordinate_runs_on_the_full_matrix(self, matvecs, searches):
        g, _ = build_line(7, 1.0)
        m = classical_generator(g)
        liou = build_liouvillian(hamiltonian_from_generator(m), edge_jump_operators(m), 1.0)
        state = DensityMatrix.pure(np.exp(0.3j * np.arange(7)) / np.sqrt(7))
        for _ in range(2):
            state, info = propagate_detailed(state, liou, 1.0)
            assert (info.route, info.rows) == ("coordinates", 49)
        assert len(matvecs) > 0 and set(matvecs) == {(49, 49)}
        assert len(searches) == 1


class TestEigenbasisRoute:
    """qsw-global with the full operator propagates in H's eigenbasis at every omega in (0, 1]."""

    @pytest.mark.parametrize("omega", ["0.5", "1"])
    def test_qsw_global_builds_no_part_and_searches_nothing(self, tmp_path, monkeypatch, matvecs, omega):
        routes = []

        def refuse(*args):
            raise AssertionError("a dim^2 part was built or searched")

        def recording_propagate(rho0, liou, t):
            state, info = propagate_detailed(rho0, liou, t)
            routes.append((info.route, info.rows))
            return state, info

        monkeypatch.setattr(cli, "build_liouvillian", refuse)
        monkeypatch.setattr(qsw.evolution, "_assemble", refuse)
        monkeypatch.setattr(qsw.evolution, "_reached", refuse)
        monkeypatch.setattr(cli, "propagate_detailed", recording_propagate)
        rc, text = run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", "qsw-global", "--omega", omega, "--t", "0:2:3")
        assert rc == 0
        # Each of the 210 coherences moves, on its real and imaginary parts.
        # At omega 1 A is diagonal, and the kernel multiplies only the 210
        # real parts, the imaginary ones of a vertex start being 0.
        rows = 420 if omega == "0.5" else 210
        assert routes == [("identity", 0)] + [("eigenbasis", rows)] * 2
        assert sum(r["validation"]["solver_steps"] for r in json.loads(text)["results"]) == len(matvecs) > 0
        assert set(matvecs) == {(rows, rows)}

    def test_the_route_loads_no_scipy_linalg(self, tmp_path):
        # eigh is numpy's, so the route adds nothing to a command's set-up.
        argv = ["simulate", "--graph", "line:21:1", "--regime", "qsw-global", "--omega", "0.5", "--output", str(tmp_path / "out")]
        probe = f"import sys, qsw.cli; rc = qsw.cli.main({argv!r}); print(rc, [m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0 []"

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # Every field but min_eigenvalue, which LAPACK's eigvalsh computes, agrees
        # byte for byte at 1 and 2 OpenBLAS threads over a grid whose steps map
        # back with _product (eigh's eigenvectors still do at dim 301).
        argv = ["simulate", "--graph", "line:301:1", "--regime", "qsw-global", "--omega", "0.5", "--t", "0:1:3"]
        texts = []
        for threads in ("1", "2"):
            target = tmp_path / f"threads{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "qsw.cli", *argv, "--output", str(target)], env=env, check=True)
            texts.append([line for line in target.read_text().splitlines() if '"min_eigenvalue"' not in line])
        assert texts[0] == texts[1]
        assert len(texts[0]) > 301

    @pytest.mark.parametrize(
        "graph, message",
        [
            (
                # Each entry of K = H^2 is finite (6 r^2 = 1.5e308 at most), but tr K = 10 r^2 is not.
                "line:3:5e153",
                "K = sum_k L_k^dag L_k has a diagonal that sums to inf, up to 1.5e+308 in column 1, "
                "and dim 3 times the sum is past the float range",
            ),
            ("line:3:1e200", "K = sum_k L_k^dag L_k overflows: sum_k sum_c |L_k[c, 0]|^2 of column 0 is not finite"),
        ],
        ids=["rate", "k"],
    )
    def test_a_non_finite_rate_is_a_located_config_error(self, tmp_path, capsys, graph, message):
        # The suite turns a RuntimeWarning into an error, so none is raised on the way.
        rc, text = run(tmp_path, "simulate", "--graph", graph, "--regime", "qsw-global", "--omega", "0.5", "--t", "1")
        assert (rc, text) == (2, None)
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_a_dim_past_the_bound_exits_2_before_eigh(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qsw.evolution, "_MAX_EIGENBASIS_DIM", 21)
        rc, _ = run(tmp_path, "simulate", "--graph", "line:21:1", "--regime", "qsw-global", "--omega", "0.5", "--t", "1")
        assert rc == 0

        def refuse(*args):
            raise AssertionError("eigh ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rc, text = run(tmp_path, "simulate", "--graph", "line:23:1", "--regime", "qsw-global", "--omega", "0.5", "--t", "1", name="past")
        assert (rc, text) == (2, None)
        assert "error: the eigenbasis route at dim 23 would hold 529 coordinates and decompose H, and the bound is dim 21\n" in capsys.readouterr().err


class TestSweep:
    def test_endpoints_and_shape(self, tmp_path):
        rc, text = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:3", "--t", "1")
        assert rc == 0
        rows = text.strip().splitlines()
        assert rows[0] == "omega,position,population"
        assert len(rows) == 1 + 3 * 5
        omegas = sorted({float(r.split(",")[0]) for r in rows[1:]})
        assert omegas == [0.0, 0.5, 1.0]
        positions = [int(r.split(",")[1]) for r in rows[1:6]]
        assert positions == [-2, -1, 0, 1, 2]

    def test_single_count_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:1")
        assert rc == 2

    def test_scalar_omega_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0.5")
        assert rc == 2

    def test_missing_omega_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "crw")
        assert rc == 2

    def test_time_grid_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:3", "--t", "1:2:2")
        assert rc == 2

    def test_json_format(self, tmp_path):
        rc, text = run(tmp_path, "sweep", "--graph", "line:5:1", "--regime", "qw", "--omega", "0:1:2", "--t", "1", "--format", "json")
        assert rc == 0
        doc = json.loads(text)
        assert len(doc["results"]) == 2


class TestAudit:
    def test_global_regime_passes_with_axiom6_activity(self, tmp_path):
        rc, text = run(tmp_path, "audit", "--graph", "line:5:1", "--regime", "qsw-global")
        assert rc == 0
        report = json.loads(text)["report"]
        assert report["passed"]
        assert report["tuples_evaluated"] == 625
        assert report["axiom6_nonzero"]

    def test_crw_regime_passes_with_axiom6_silent(self, tmp_path):
        rc, text = run(tmp_path, "audit", "--graph", "line:5:1", "--regime", "crw")
        assert rc == 0
        report = json.loads(text)["report"]
        assert report["passed"]
        assert report["axiom6_nonzero"] == []
        assert report["axiom6_max_abs"] == 0.0
        assert report["max_superoperator_deviation"] <= 1e-10

    def test_rogue_custom_operators_fail_audit(self, tmp_path):
        jump_file = tmp_path / "rogue.json"
        jump_file.write_text(json.dumps([[[0, 2, 1.0, 0.0]]]))
        rc, text = run(
            tmp_path,
            "audit", "--graph", "line:3:1", "--regime", "qsw-custom", "--jump-file", str(jump_file),
            name="report.json",
        )
        assert rc == 1
        report = json.loads(text)["report"]
        assert not report["passed"]
        assert any(f["kind"] == "non-adjacent-transfer" for f in report["failures"])

    @pytest.mark.parametrize(
        "name, shift, kind",
        [("_axiom", 1j, "axiom-1"), ("_transition_tensor", 1j, "hermiticity"), ("_transition_tensor", np.nan, "hermiticity")],
        ids=["_axiom-axiom-1", "_transition_tensor-hermiticity", "_transition_tensor-nan"],
    )
    def test_forced_failure_kind_is_reported_with_exit_1(self, tmp_path, monkeypatch, name, shift, kind):
        # Neither check fails on a built-in regime, so each is forced by shifting what it compares,
        # by i or by nan; a nan deviation once passed every check it reached. _axiom returns
        # an axiom's tuple with its rate, and only the rate is shifted.
        original = getattr(qsw.operators, name)

        def shifted(*args):
            if name == "_axiom":
                element, rate = original(*args)
                return element, rate + shift
            return original(*args) + shift

        monkeypatch.setattr(qsw.operators, name, shifted)
        rc, text = run(tmp_path, "audit", "--graph", "line:3:1", "--regime", "crw", name="report.json")
        assert rc == 1
        report = json.loads(text)["report"]
        assert not report["passed"]
        assert kind in {f["kind"] for f in report["failures"]}

    def test_custom_without_jump_file(self, tmp_path):
        rc, _ = run(tmp_path, "audit", "--graph", "line:3:1", "--regime", "qsw-custom")
        assert rc == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_located_config_error(self, tmp_path, capsys, tol):
        # --tol nan once passed every audit, and --tol -1 failed exact agreement.
        rc, text = run(tmp_path, "audit", "--graph", "line:3:1", "--regime", "crw", f"--tol={tol}")
        assert rc == 2
        assert text is None
        assert f"error: --tol must be finite and nonnegative, got {tol!r}" in capsys.readouterr().err

    def test_zero_tol_is_accepted(self, tmp_path):
        # Zero is a valid tolerance. Only the superoperator check can then
        # fail, on the rounding of the rebuild from real coordinates.
        rc, text = run(tmp_path, "audit", "--graph", "line:3:1", "--regime", "crw", "--tol", "0")
        doc = json.loads(text)
        assert doc["config_echo"]["tol"] == 0.0
        assert {f["kind"] for f in doc["report"]["failures"]} <= {"superoperator"}
        assert doc["report"]["max_superoperator_deviation"] <= 1e-15


class TestEdgeListInput:
    def test_simulate_from_file(self, tmp_path):
        graph_file = tmp_path / "square.edges"
        graph_file.write_text("vertices 4\n0 1\n1 2\n2 3\n3 0\n")
        rc, text = run(tmp_path, "simulate", "--graph", str(graph_file), "--regime", "crw", "--t", "1")
        assert rc == 0
        doc = json.loads(text)
        assert doc["config_echo"]["positions"] == [0, 1, 2, 3]
        assert sum(doc["results"][0]["populations"]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_line_is_config_error(self, tmp_path):
        graph_file = tmp_path / "bad.edges"
        graph_file.write_text("vertices 3\n0 1\n1 2 0\n")
        rc, _ = run(tmp_path, "simulate", "--graph", str(graph_file), "--regime", "crw")
        assert rc == 2

    def test_infinite_weight_is_located_config_error(self, tmp_path, capsys):
        graph_file = tmp_path / "inf.edges"
        graph_file.write_text("vertices 3\n0 1\n1 2 inf\n")
        rc, _ = run(tmp_path, "simulate", "--graph", str(graph_file), "--regime", "crw")
        assert rc == 2
        assert "line 3: edge weight must be finite" in capsys.readouterr().err

    def test_origin_out_of_range_is_located_config_error(self, tmp_path, capsys):
        graph_file = tmp_path / "square.edges"
        graph_file.write_text("vertices 4\n0 1\n1 2\n2 3\n3 0\n")
        rc, _ = run(tmp_path, "simulate", "--graph", str(graph_file), "--regime", "crw", "--origin", "4")
        assert rc == 2
        assert "error: origin index 4 out of range for 4 vertices" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path):
        rc, _ = run(tmp_path, "simulate", "--graph", str(tmp_path / "absent.edges"), "--regime", "crw")
        assert rc == 2


@pytest.mark.parametrize("source, message", [("line:501:1", "graph of 501 vertices"), ("file", "line 1: vertex count 501")], ids=["line", "edge-list"])
def test_a_graph_past_the_vertex_bound_exits_2_before_its_dense_layer(tmp_path, capsys, monkeypatch, traced_peak, source, message):
    # The bound is lowered, so that the command stays small even where the bound is missing.
    monkeypatch.setattr(qsw.graph, "_MAX_VERTICES", 100)
    if source == "file":
        source = tmp_path / "path.edges"
        source.write_text("vertices 501\n" + "".join(f"{a} {a + 1}\n" for a in range(500)))
    (rc, text), peak = traced_peak(lambda: run(tmp_path, "simulate", "--graph", str(source), "--regime", "qw", "--t", "1"))
    assert (rc, text) == (2, None)
    assert capsys.readouterr().err == f"error: {message} is past the bound of 100 vertices\n"
    # Any n x n array of the dense layer takes at least 8 n^2 bytes.
    assert peak < 8 * 501**2


class TestCompare:
    def test_crw_regime_is_close_to_its_oracle(self, tmp_path):
        rc, text = run(tmp_path, "compare", "--graph", "line:61:1", "--regime", "crw", "--t", "5")
        assert rc == 0
        comparison = json.loads(text)["comparison"]
        assert comparison["tv_vs_crw"] <= 1e-6
        assert comparison["tv_vs_qw"] >= 0.1
        assert comparison["variance_sim"] == pytest.approx(10.0, rel=0.01)

    def test_qw_regime_is_close_to_its_oracle(self, tmp_path):
        rc, text = run(tmp_path, "compare", "--graph", "line:61:1", "--regime", "qw", "--t", "5")
        assert rc == 0
        comparison = json.loads(text)["comparison"]
        assert comparison["tv_vs_qw"] <= 1e-6
        assert comparison["variance_sim"] == pytest.approx(50.0, rel=0.01)

    def test_non_line_graph_rejected(self, tmp_path):
        graph_file = tmp_path / "tri.edges"
        graph_file.write_text("vertices 3\n0 1\n1 2\n2 0\n")
        rc, _ = run(tmp_path, "compare", "--graph", str(graph_file), "--regime", "crw")
        assert rc == 2

    def test_grid_rejected(self, tmp_path):
        rc, _ = run(tmp_path, "compare", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:3")
        assert rc == 2

    def test_origin_flag_refused(self, tmp_path, capsys):
        # The oracles start at position 0; a shifted start once gave tv_vs_crw 0.884 with exit 0.
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "compare", "--graph", "line:61:1", "--regime", "crw", "--omega", "1", "--t", "5", "--origin", "10")
        assert exc.value.code == 2
        assert "unrecognized arguments: --origin 10" in capsys.readouterr().err

    def test_long_time_past_the_oracle_bound_is_refused(self, tmp_path, capsys):
        # qw at omega = 1 has no generator, so the product bound admits any t; the oracles'
        # recurrence once then allocated 8 bytes per unit of 2 gamma t.
        rc, text = run(tmp_path, "compare", "--graph", "line:5:1", "--regime", "qw", "--omega", "1", "--t", "1e9")
        assert rc == 2
        assert text is None
        assert "Bessel argument x = 2000000000.0 (2 gamma t on a line) is past 200000" in capsys.readouterr().err

    def test_tiny_time_gives_finite_fields(self, tmp_path):
        # At t = 1e-100 the oracles' recurrence once overflowed and every oracle field read NaN.
        rc, text = run(tmp_path, "compare", "--graph", "line:5:1", "--regime", "crw", "--t", "1e-100")
        assert rc == 0
        comparison = json.loads(text)["comparison"]
        assert all(np.isfinite(value) for value in comparison.values())
        assert comparison["tv_vs_crw"] <= 1e-150

    def test_csv_table(self, tmp_path):
        rc, text = run(tmp_path, "compare", "--graph", "line:21:1", "--regime", "qsw-global", "--t", "2", "--format", "csv")
        assert rc == 0
        rows = text.strip().splitlines()
        assert rows[0] == "metric,value"
        metrics = {row.split(",")[0] for row in rows[1:]}
        assert {"tv_vs_crw", "tv_vs_qw", "variance_sim"} <= metrics


class TestCustomRegime:
    def test_custom_operators_reproduce_edge_local_run(self, tmp_path):
        # Hand-written dyads sqrt(gamma)|a><b| per directed edge are exactly
        # the edge-local construction, so the runs must agree bit for bit.
        ops = [
            [[0, 1, 1.0, 0.0]],
            [[1, 0, 1.0, 0.0]],
            [[1, 2, 1.0, 0.0]],
            [[2, 1, 1.0, 0.0]],
        ]
        jump_file = tmp_path / "edge.json"
        jump_file.write_text(json.dumps(ops))
        rc_custom, text_custom = run(
            tmp_path,
            "simulate", "--graph", "line:3:1", "--regime", "qsw-custom",
            "--jump-file", str(jump_file), "--omega", "1", "--t", "2",
            name="custom.json",
        )
        rc_crw, text_crw = run(
            tmp_path,
            "simulate", "--graph", "line:3:1", "--regime", "crw", "--omega", "1", "--t", "2",
            name="crw.json",
        )
        assert rc_custom == 0 and rc_crw == 0
        custom_pops = json.loads(text_custom)["results"][0]["populations"]
        crw_pops = json.loads(text_crw)["results"][0]["populations"]
        assert custom_pops == crw_pops

    def test_malformed_jump_file(self, tmp_path):
        jump_file = tmp_path / "bad.json"
        jump_file.write_text(json.dumps([[[0, 9, 1.0, 0.0]]]))
        rc, _ = run(tmp_path, "simulate", "--graph", "line:3:1", "--regime", "qsw-custom", "--jump-file", str(jump_file))
        assert rc == 2

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[[0, 1, 1.0, 0.0]], [[1, 0, "nan", 0.0]]], "operator 1: entry [1, 0, 'nan', 0.0] is not finite"),
            ([[[0, 1, 1.0, 0.0]], [[1, 0, 1.0, float("inf")]]], "operator 1: entry [1, 0, 1.0, inf] is not finite"),
            ([[[0, 1.7, 1, 0]]], "operator 0: indices must be integers"),
            ([[[0, 1, "one", 0]]], "operator 0: entries must be numbers"),
            ([[[1, 0, 1.0, 0.0]], [[0, 1, 1.0, 0.0], [2, 1, 1.0, 0.0], [0, 1, 0.0, 2.0]]], "operator 1: entry (0, 1) is given twice"),
            ([[[0, 1, 1.0, 0.0]], [[0, 3, 1.0, 0.0]]], "jump operator 1: entry (0, 3) is out of range"),
            ([[[0, 2**63, 1.0, 0.0]]], "jump operator 0: entry (0, 9223372036854775808) is out of range"),
            ([[[0, 1e30, 1.0, 0.0]]], "jump operator 0: entry (0, 1000000000000000019884624838656) is out of range"),
            ([[[-1, 0, 1.0, 0.0], [2**63, 1, 1.0, 0.0]]], "jump operator 0: entry (-1, 0) is out of range"),
            ({"operators": []}, "jump-operator file must hold a list of operators"),
            ([{"0": [0, 1, 1.0, 0.0]}], "operator 0 must be a list of [row, col, re, im] entries"),
            ([[[0, 1, 1.0]]], "operator 0: entries must be [row, col, re, im], got [0, 1, 1.0]"),
        ],
        ids=[
            "nan", "inf", "fractional-index", "non-number", "repeated-entry", "index-range", "index-past-int64",
            "index-past-uint64", "negative-and-past-int64", "not-a-list", "operator-not-a-list", "entry-not-four",
        ],
    )
    def test_bad_jump_entries_are_located_config_errors(self, tmp_path, capsys, entries, message):
        jump_file = tmp_path / "bad.json"
        jump_file.write_text(json.dumps(entries))
        rc, _ = run(tmp_path, "simulate", "--graph", "line:3:1", "--regime", "qsw-custom", "--jump-file", str(jump_file))
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read jump-operator file"), ("[[[0, 1", "is not valid JSON")],
        ids=["missing", "not-json"],
    )
    def test_unreadable_jump_file_is_config_error(self, tmp_path, capsys, text, message):
        jump_file = tmp_path / "ops.json"
        if text is not None:
            jump_file.write_text(text)
        rc, _ = run(tmp_path, "simulate", "--graph", "line:3:1", "--regime", "qsw-custom", "--jump-file", str(jump_file))
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--graph", "line:5:1", "--regime", "qw", "--t", "0:5"), "t grid must be start:stop:count, got '0:5'"),
        (("simulate", "--graph", "line:5:1", "--regime", "qw", "--t", "0:5:many"), "cannot parse t grid '0:5:many'"),
        (("simulate", "--graph", "line:5:1", "--regime", "crw", "--omega", "half"), "cannot parse omega value 'half'"),
        (("audit", "--graph", "line:3:1", "--regime", "crw", "--tol", "tiny"), "cannot parse --tol value 'tiny'"),
        (("simulate", "--graph", "line:five:1", "--regime", "qw"), "cannot parse 'line:five:1': invalid literal for int()"),
        (
            ("audit", "--graph", "line:3:1e200", "--regime", "qsw-global"),
            "K = sum_k L_k^dag L_k overflows: sum_k sum_c |L_k[c, 0]|^2 of column 0 is not finite",
        ),
        (
            ("simulate", "--graph", "line:3:1", "--regime", "crw", "--t", "1e308"),
            "t = 1e+308 is too long for one step of exp(tA): it needs at least inf products with A, "
            "with ||A||_1 = 2.666666666666667, and the bound is 1000000",
        ),
        (
            # A is the block of the 3 populations the start state reaches; on
            # all 9 coordinates ||A||_1 read 2.6666666666666668e+300. Both are 8e300 / 3.
            ("simulate", "--graph", "line:3:1e300", "--regime", "crw", "--t", "1"),
            "t = 1.0 is too long for one step of exp(tA): it needs at least 1.48e+301 products with A, "
            "with ||A||_1 = 2.6666666666666662e+300, and the bound is 1000000",
        ),
        (("sweep", "--graph", "line:3:1", "--regime", "crw", "--omega", "0:2:3"), "--omega must lie in [0, 1], got '0:2:3'"),
        (("simulate", "--graph", "line:3:1", "--regime", "crw", "--omega", "-0.5"), "--omega must lie in [0, 1], got '-0.5'"),
        (
            ("simulate", "--graph", "line:3:1e40", "--regime", "crw", "--t", "1"),
            "t = 1.0 is too long for one step of exp(tA): it needs at least 1.48e+41 products with A, "
            "with ||A||_1 = 2.6666666666666664e+40, and the bound is 1000000",
        ),
        (
            # A is the walk's -i H' on the 6 real parts of 3 amplitudes; on the
            # 9 coordinates ||A||_1 read 4.82842712474619e+40.
            ("simulate", "--graph", "line:3:1e40", "--regime", "qw", "--t", "1"),
            "t = 1.0 is too long for one step of exp(tA): it needs at least 1.48e+41 products with A, "
            "with ||A||_1 = 2.6666666666666664e+40, and the bound is 1000000",
        ),
        (
            ("simulate", "--graph", "line:3:1e20", "--regime", "qw", "--t", "1"),
            "t = 1.0 is too long for one step of exp(tA): it needs at least 1.48e+21 products with A, "
            "with ||A||_1 = 2.666666666666667e+20, and the bound is 1000000",
        ),
        # Each of these three once warned in a numpy sum before its exit 2: the
        # Laplacian's column sum, H's a + a.T and the rate matrix's trace.
        (
            ("simulate", "--graph", "line:3:1e308", "--regime", "crw", "--t", "1"),
            "edge weights on 3 vertices sum to inf, up to 1e+308 on (0, 1), and 2 n times the sum is past the float range",
        ),
        (
            ("simulate", "--graph", "line:3:5e307", "--regime", "qw", "--t", "1"),
            "edge weights on 3 vertices sum to 1e+308, up to 5e+307 on (0, 1), and 2 n times the sum is past the float range",
        ),
        (
            ("simulate", "--graph", "line:3:5e307", "--regime", "crw", "--omega", "1", "--t", "1"),
            "edge weights on 3 vertices sum to 1e+308, up to 5e+307 on (0, 1), and 2 n times the sum is past the float range",
        ),
    ],
    ids=["grid-fields", "grid-count", "omega-value", "tol-value", "line-spec", "overlap-overflow", "long-t", "large-norm"]
    + ["omega-grid-range", "omega-value-range", "power-norm-overflow-crw", "power-norm-overflow-qw", "runaway-t"]
    + ["float-range-crw", "float-range-qw", "float-range-crw-omega-1"],
)
def test_unparseable_flag_is_located_config_error(tmp_path, capsys, argv, message):
    rc, text = run(tmp_path, *argv)
    assert rc == 2
    assert text is None
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("omega", ["1", "0.5"])
def test_a_quadratic_rate_past_the_float_range_is_refused_with_its_jump_set(tmp_path, capsys, omega):
    # Each entry of K is finite (2e306 at most), but 21 tr K = 8.4e308 is not; the
    # trace of R_D once overflowed with a numpy warning before the step bound's exit 2.
    argv = ("simulate", "--graph", "line:21:1e153", "--regime", "qsw-global", "--global-l", "offdiagonal", "--omega", omega)
    rc, text = run(tmp_path, *argv, "--t", "1")
    assert (rc, text) == (2, None)
    message = "K = sum_k L_k^dag L_k has a diagonal that sums to 4.000000000000001e+307, up to 2e+306 in column 1, "
    assert f"error: {message}and dim 21 times the sum is past the float range\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--graph", "line:3:1", "--regime", "crw", "--t", "0:1:1000000000000"), "t grid count must be at most 100000, got 1000000000000"),
        (
            ("sweep", "--graph", "line:3:1", "--regime", "crw", "--omega", "0:1:1000000000000", "--t", "1"),
            "omega grid count must be at most 100000, got 1000000000000",
        ),
    ],
    ids=["t", "omega"],
)
def test_oversized_grid_is_refused_before_it_is_built(tmp_path, capsys, argv, message):
    # np.linspace raised a MemoryError for 7.28 TiB out of main: a traceback and exit 1, the audit-failure code.
    rc, text = run(tmp_path, *argv)
    assert (rc, text) == (2, None)
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("bound, rc", [(8, 2), (9, 0)])
def test_omegas_times_times_is_bounded(tmp_path, capsys, monkeypatch, bound, rc):
    # Each grid has 3 points, under the bound; the 9 (omega, t) points they make are refused past it.
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", bound)
    argv = ("simulate", "--graph", "line:3:1", "--regime", "crw", "--omega", "0:1:3", "--t", "0:1:3")
    assert run(tmp_path, *argv)[0] == rc
    err = capsys.readouterr().err
    assert err == ("" if rc == 0 else f"error: 3 omegas x 3 times make 9 grid points, and the bound is {bound}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--graph", "line:5:1", "--regime", "qw", "--t", "1"),
        ("sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:3", "--t", "1"),
        ("audit", "--graph", "line:5:1", "--regime", "crw"),
        ("compare", "--graph", "line:5:1", "--regime", "crw", "--t", "1"),
    ],
    ids=["simulate", "sweep", "audit", "compare"],
)
def test_unwritable_output_is_config_error(tmp_path, capsys, argv):
    # open() raised FileNotFoundError out of main: a traceback and exit 1, the audit-failure code.
    rc, text = run(tmp_path, *argv, name="missing/out")
    assert (rc, text) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file")
    assert "Traceback" not in err


def test_repeated_main_calls_do_not_share_values(tmp_path):
    # The parser is built once per process; each call must still parse from its own defaults.
    argv = ("simulate", "--graph", "line:5:1", "--regime", "crw", "--omega", "0.5", "--t", "2", "--origin", "1")
    rc, text = run(tmp_path, *argv, "--format", "csv", name="a")
    assert rc == 0 and text.startswith("omega,t,position,population\n0.5,2.0,")
    rc, text = run(tmp_path, "sweep", "--graph", "line:3:1", "--regime", "qw", "--omega", "0:1:2", name="b")
    assert rc == 0 and text.startswith("omega,position,population\n0.0,")
    rc, text = run(tmp_path, "simulate", "--graph", "line:3:1", "--regime", "qw", name="c")
    assert rc == 0
    echo = json.loads(text)["config_echo"]
    assert (echo["omega"], echo["t"], echo["origin"]) == ([0.0], [5.0], 0)
    assert cli.build_parser() is cli.build_parser()


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate would add about a quarter of a second to every
    # command's start-up.
    probe = "import sys, qsw.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_scipy_sparse_linalg():
    # qsw computes the exponential action and sizes its steps itself;
    # scipy.sparse.linalg and the scipy.linalg it loads would add about
    # 80 ms to every command's start-up.
    probe = "import sys, qsw.cli; print([m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_long_t_does_not_load_scipy_sparse_linalg(tmp_path):
    # A step with t ||A||_1 far past 63.36 is sized from ||A||_1 alone, so
    # no command loads scipy.sparse.linalg and its 10 MB of memory.
    argv = ["simulate", "--graph", "line:61:1", "--regime", "qsw-global", "--omega", "1", "--t", "200"]
    probe = (
        "import sys, qsw.cli; "
        f"rc = qsw.cli.main({argv + ['--output', str(tmp_path / 'out')]!r}); "
        "print(rc, 'scipy.sparse.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 False"


def test_the_benchmark_tracer_still_wraps_what_the_cli_calls(tmp_path):
    # perfbench/tracing.py wraps names of qsw.cli by getattr; a rename or a call
    # moved out of qsw.cli would break its traced runs or hide their counts.
    spec = importlib.util.spec_from_file_location("tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [name for name in tracing.LAYERS if not hasattr(cli, name)] == []
    argv = ("sweep", "--graph", "line:5:1", "--regime", "crw", "--omega", "0:1:3", "--t", "1", "--format", "json")
    with tracing.traced(cli, tracing.Tracer()) as tracer:
        rc, text = run(tmp_path, *argv)
    assert rc == 0
    # omega 0.5 weighs both parts, R_QW and R_D.
    assert tracer.counts["evolution.build_calls"] >= 2
    assert tracer.counts["evolution.solver_steps"] == sum(r["validation"]["solver_steps"] for r in json.loads(text)["results"])
