"""Output checks for the benchmark's qsw commands.

A command passes when it exits 0 and its output file holds:

- for simulate and sweep, one population vector per grid point, each of
  the graph's size, nonnegative and summing to 1 within 1e-9; at crw
  omega=1 and qw omega=0 points on a line, total variation at most 1e-6
  from the Bessel closed form wherever that form's tail mass beyond the
  line is below 1e-9 (shorter lines are exempt, their walk hits the ends);
- for audit, a report with `passed: true`;
- for compare, finite distances, within 1e-6 of the closed form that
  matches the regime under the same tail-mass condition.

Only populations and report fields are read, never the `validation` block.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

from qsw.oracles import LineWalkSpec, crw_line_analytic, qw_line_analytic

POPULATION_SUM_TOL = 1e-9
ORACLE_TV_TOL = 1e-6
ORACLE_TAIL_TOL = 1e-9


def check_command(cmd, exit_code: int) -> str | None:
    """Return why the command failed, or None when it passed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc_text = cmd.output.read_text()
    except OSError as exc:
        return f"no output: {exc}"
    try:
        if cmd.subcommand == "audit":
            return _check_audit(json.loads(doc_text))
        if cmd.subcommand == "compare":
            return _check_compare(cmd, json.loads(doc_text))
        return _check_points(cmd, doc_text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, count = text.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
    return [float(text)]


def _line(graph: str) -> tuple[int, float] | None:
    if graph.startswith("line:"):
        _, n_sites, gamma = graph.split(":")
        return int(n_sites), float(gamma)
    return None


def _graph_dim(graph: str) -> int:
    line = _line(graph)
    if line is not None:
        return line[0]
    with open(graph) as fh:
        header = fh.readline().split()
    return int(header[1])


@functools.lru_cache(maxsize=64)
def _oracle(regime: str, n_sites: int, gamma: float, t: float) -> tuple[np.ndarray, float]:
    spec = LineWalkSpec(n_sites, gamma, t)
    dist = crw_line_analytic(spec) if regime == "crw" else qw_line_analytic(spec)
    return dist.probabilities, dist.tail_mass


def _has_oracle(regime: str, omega: float) -> bool:
    return (regime == "crw" and omega == 1.0) or (regime == "qw" and omega == 0.0)


def _read_points(cmd, text: str) -> list[tuple[float, float, list[int] | None, list[float]]]:
    """(omega, t, positions, populations) per grid point; JSON has no positions."""
    default_format = "csv" if cmd.subcommand == "sweep" else "json"
    if cmd.flag("--format", default_format) == "json":
        results = json.loads(text)["results"]
        return [(r["omega"], r["t"], None, r["populations"]) for r in results]
    points: dict[tuple[float, float], tuple[list[int], list[float]]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        t = float(row["t"]) if "t" in row else float(cmd.flag("--t"))
        positions, pops = points.setdefault((float(row["omega"]), t), ([], []))
        positions.append(int(row["position"]))
        pops.append(float(row["population"]))
    return [(omega, t, positions, pops) for (omega, t), (positions, pops) in points.items()]


def _check_points(cmd, text: str) -> str | None:
    graph, regime = cmd.flag("--graph"), cmd.flag("--regime")
    dim = _graph_dim(graph)
    line = _line(graph)
    omegas = _grid(cmd.flag("--omega", "0" if regime == "qw" else "1"))
    ts = _grid(cmd.flag("--t", "5"))
    points = _read_points(cmd, text)
    if len(points) != len(omegas) * len(ts):
        return f"{len(points)} grid points, expected {len(omegas) * len(ts)}"
    for omega, t, positions, pops in points:
        p = np.asarray(pops, dtype=float)
        where = f"omega={omega} t={t}"
        if p.shape != (dim,):
            return f"{where}: {p.size} populations for {dim} vertices"
        if not np.all(np.isfinite(p)) or p.min() < 0.0:
            return f"{where}: population outside [0, inf)"
        if abs(p.sum() - 1.0) > POPULATION_SUM_TOL:
            return f"{where}: populations sum to {p.sum()!r}"
        if line is None or not _has_oracle(regime, omega):
            continue
        expected, tail = _oracle(regime, line[0], line[1], t)
        if tail >= ORACLE_TAIL_TOL:
            continue
        # Oracle vectors run over positions -k..k, as line storage (JSON) does.
        if positions is not None:
            p = p[np.argsort(positions)]
        tv = 0.5 * float(np.abs(p - expected).sum())
        if tv > ORACLE_TV_TOL:
            return f"{where}: total variation {tv:.3e} from the {regime} closed form"
    return None


def _check_audit(doc: dict) -> str | None:
    if doc["report"]["passed"] is not True:
        return "audit reported passed != true"
    return None


def _check_compare(cmd, doc: dict) -> str | None:
    comparison = doc["comparison"]
    if not all(math.isfinite(v) for v in comparison.values()):
        return "non-finite comparison field"
    regime = cmd.flag("--regime")
    omega = float(cmd.flag("--omega", "0" if regime == "qw" else "1"))
    if not _has_oracle(regime, omega):
        return None
    key = "crw" if regime == "crw" else "qw"
    if comparison[f"{key}_tail_mass"] < ORACLE_TAIL_TOL and comparison[f"tv_vs_{key}"] > ORACLE_TV_TOL:
        return f"total variation {comparison[f'tv_vs_{key}']:.3e} from the {key} closed form"
    return None
