"""The README's library quickstart runs as written, its route table matches the CLI, and its marked figures are the CLI's."""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import qsw.cli as cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# The Solvers section's table: omega | jump set | route | generator | example, one row per route.
ROUTE_TABLE = re.compile(r"^\| omega \| jump set \| route \| generator \| example \|\n\|[-|]+\|\n((?:\|.*\|\n)+)", re.M)
# A figure marker beside a deterministic figure: the command that produces it and the figure.
FIGURE = re.compile(r"<!-- figure: (.+?) \| solver_steps = (\d+) -->")


def test_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    # The quickstart's last line prints the occupation of position 0.
    assert 0.0 < float(capsys.readouterr().out.split()[-1]) < 1.0


def route_rows() -> list[tuple[str, str]]:
    """(route, example argv) of each row of the README's route table."""
    table = ROUTE_TABLE.search(README.read_text(encoding="utf-8"))
    assert table, "README has no route table"
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in table.group(1).splitlines()]
    return [(route, example) for _, _, route, _, example in rows]


def recorded_routes(monkeypatch) -> set:
    """The set PropagationInfo.route of every propagation the CLI makes from here on is added to."""
    routes = set()
    propagate = cli.propagate_detailed

    def recording(state, liou, t):
        result = propagate(state, liou, t)
        routes.add(result[1].route)
        return result

    monkeypatch.setattr(cli, "propagate_detailed", recording)
    return routes


def test_each_route_table_example_takes_its_route(tmp_path, monkeypatch):
    rows = route_rows()
    assert [route for route, _ in rows] == ["amplitudes", "populations", "eigenbasis", "invariant-block", "coordinates"]
    routes = recorded_routes(monkeypatch)
    for route, example in rows:
        routes.clear()
        assert cli.main([*shlex.split(example), "--output", str(tmp_path / "out")]) == 0, example
        assert routes == {route}, example


def test_the_output_gate_takes_every_route(tmp_path, monkeypatch):
    # tools/compare_outputs.py compares its commands' outputs between two trees; they must cover every row.
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    path = list(sys.path)
    routes = recorded_routes(monkeypatch)
    compare_outputs.run_commands(tmp_path)
    assert routes - {"identity"} == {route for route, _ in route_rows()}
    # run_commands reads perfbench's workloads from perfbench/ and takes it off the path again.
    assert sys.path == path


def test_each_marked_figure_is_the_commands_solver_steps(tmp_path):
    # A marked figure is the sum of solver_steps over the command's points, so a grid's counts its chain.
    figures = FIGURE.findall(README.read_text(encoding="utf-8"))
    assert len(figures) >= 7
    for command, figure in figures:
        output = tmp_path / "figure.json"
        assert cli.main([*shlex.split(command), "--output", str(output)]) == 0, command
        results = json.loads(output.read_text())["results"]
        assert sum(r["validation"]["solver_steps"] for r in results) == int(figure), command
