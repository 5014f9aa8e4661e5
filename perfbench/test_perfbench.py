"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from check import check_command
from qsw.graph import parse_edge_list
from run import PROBE_REFERENCE_S, unit_of, wall_at_reference
from worker import Runner
from workloads import Command, random_connected_graph

ROOT = Path(__file__).resolve().parent.parent


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _cli_output(tmp_path: Path, argv: tuple[str, ...]) -> Command:
    cmd = Command(argv, tmp_path / "out.txt")
    runner = Runner([cmd])
    runner.run_pass()
    assert runner.failed == 0, runner.failures
    return cmd


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(kind)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert unit_of(name) == unit
        assert any(line.startswith(f"verify {name} ") and line.endswith(f" {unit}") for line in lines), name


def test_wall_at_reference_scales_out_the_host_speed():
    # Two commands over three passes, as (probe seconds, command seconds);
    # the second pass ran on a host at half speed.
    ref = PROBE_REFERENCE_S
    passes = [[(ref, 1.0), (ref, 0.5)], [(2 * ref, 2.0), (2 * ref, 1.0)], [(ref, 1.2), (ref / 2, 0.25)]]
    assert wall_at_reference(passes) == pytest.approx(1.0 + 0.5)
    slower_host = [[(3 * probe, 3 * elapsed) for probe, elapsed in p] for p in passes]
    assert wall_at_reference(slower_host) == pytest.approx(1.0 + 0.5)


def test_known_solver_failure_is_counted(tmp_path):
    runner = Runner([Command(("simulate", "--graph", "line:101:1", "--regime", "qw", "--t", "5"), tmp_path / "out.txt")])
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.wrong) == (1, 1, 0)
    assert "exit code 3" in next(iter(runner.failures.values()))


def test_nonzero_exit_fails_the_check(tmp_path):
    cmd = _cli_output(tmp_path, ("simulate", "--graph", "line:21:1", "--regime", "crw", "--omega", "1", "--t", "0.5"))
    assert check_command(cmd, 0) is None
    assert check_command(cmd, 3) == "exit code 3"


def test_corrupted_population_vector_fails_the_check(tmp_path):
    cmd = _cli_output(tmp_path, ("simulate", "--graph", "line:21:1", "--regime", "crw", "--omega", "1", "--t", "0.5"))
    original = cmd.output.read_text()

    doc = json.loads(original)
    doc["results"][0]["populations"][0] += 1e-6
    cmd.output.write_text(json.dumps(doc))
    assert "sum to" in check_command(cmd, 0)

    # Swapping two sites keeps the sum and the signs; only the closed form catches it.
    doc = json.loads(original)
    pops = doc["results"][0]["populations"]
    pops[9], pops[10] = pops[10], pops[9]
    cmd.output.write_text(json.dumps(doc))
    assert "total variation" in check_command(cmd, 0)


def test_corrupted_csv_population_fails_the_check(tmp_path):
    cmd = _cli_output(tmp_path, ("sweep", "--graph", "line:21:1", "--regime", "crw", "--omega", "0:1:3", "--t", "0.5"))
    assert check_command(cmd, 0) is None
    lines = cmd.output.read_text().splitlines()
    omega, position, _ = lines[1].split(",")
    lines[1] = f"{omega},{position},-0.25"
    cmd.output.write_text("\n".join(lines) + "\n")
    assert "outside" in check_command(cmd, 0)


def test_failed_audit_report_fails_the_check(tmp_path):
    cmd = _cli_output(tmp_path, ("audit", "--graph", "line:5:1", "--regime", "crw"))
    assert check_command(cmd, 0) is None
    doc = json.loads(cmd.output.read_text())
    doc["report"]["passed"] = False
    cmd.output.write_text(json.dumps(doc))
    assert check_command(cmd, 0) is not None


def test_random_graph_is_seeded_connected_and_sized():
    text = random_connected_graph(random.Random(7), 48, 96)
    assert text == random_connected_graph(random.Random(7), 48, 96)
    assert text != random_connected_graph(random.Random(8), 48, 96)
    graph = parse_edge_list(text)
    assert graph.n_vertices == 48 and len(graph.edges) == 96
    assert all(0.5 <= w <= 2.0 for w in graph.weights)
    seen, queue = {0}, deque([0])
    while queue:
        for v in graph.neighbors(queue.popleft()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    assert len(seen) == 48
