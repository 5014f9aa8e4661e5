"""The benchmark's workloads: seeded input graphs and the qsw commands run on them.

Each workload is a fixed list of `qsw` CLI commands. Only the flags
`--graph --regime --omega --t --format --output` are used, and the sizes
straddle both size switches of the solver (dense superoperator below
dimension 32, adaptive RK45 above 64).

- sweep: superoperator assembly dominates (many crw operators, omega sweeps).
- propagate: one or zero jump operators, long or gridded t, so propagation
  dominates. `line:101:1 qw` exits 3 (positivity violation under RK45); it
  is a known defect and is kept in so that it is counted, not hidden.
- verify: the exhaustive axiom audit dominates, plus oracle comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep", "propagate", "verify")

SWEEP_GRAPH_VERTICES = 48
SWEEP_GRAPH_EDGES = 96
VERIFY_GRAPH_VERTICES = 9
VERIFY_GRAPH_EDGES = 18


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `output` is the file its result is written to."""

    argv: tuple[str, ...]
    output: Path

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def flag(self, name: str, default: str | None = None) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    def full_argv(self) -> list[str]:
        return [*self.argv, "--output", str(self.output)]


def random_connected_graph(rng: random.Random, n_vertices: int, n_edges: int) -> str:
    """Edge-list text of a connected graph with weights drawn from U[0.5, 2].

    A random spanning tree makes it connected; the remaining edges are
    distinct vertex pairs drawn uniformly from those not yet used.
    """
    order = list(range(n_vertices))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n_vertices)}
    while len(edges) < n_edges:
        u, v = rng.sample(range(n_vertices), 2)
        edges.add((min(u, v), max(u, v)))
    lines = [f"vertices {n_vertices}"]
    lines += [f"{u} {v} {rng.uniform(0.5, 2.0)!r}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def write_graph(work_dir: Path, name: str, rng: random.Random, n_vertices: int, n_edges: int) -> str:
    path = work_dir / name
    path.write_text(random_connected_graph(rng, n_vertices, n_edges))
    return str(path)


def commands(workload: str, seed: int, work_dir: Path) -> list[Command]:
    """Write the workload's seeded inputs into work_dir and return its commands."""
    rng = random.Random(seed)
    if workload == "sweep":
        g48 = write_graph(work_dir, "sweep48.edges", rng, SWEEP_GRAPH_VERTICES, SWEEP_GRAPH_EDGES)
        argvs = [
            ("sweep", "--graph", "line:61:1", "--regime", "crw", "--omega", "0:1:11", "--t", "5"),
            ("sweep", "--graph", "line:21:1", "--regime", "crw", "--omega", "0:1:3", "--t", "5"),
            ("sweep", "--graph", g48, "--regime", "crw", "--omega", "0:1:3", "--t", "5"),
            ("simulate", "--graph", "line:151:1", "--regime", "crw", "--omega", "1", "--t", "5"),
        ]
    elif workload == "propagate":
        argvs = [
            ("simulate", "--graph", "line:101:1", "--regime", "qsw-global", "--omega", "0.5", "--t", "0:5:11"),
            ("simulate", "--graph", "line:201:1", "--regime", "qsw-global", "--omega", "0.5", "--t", "5"),
            ("simulate", "--graph", "line:61:1", "--regime", "qw", "--t", "0:5:11", "--format", "csv"),
            ("simulate", "--graph", "line:61:1", "--regime", "qsw-global", "--omega", "1", "--t", "200"),
            ("simulate", "--graph", "line:101:1", "--regime", "qw", "--t", "5"),
        ]
    elif workload == "verify":
        g9 = write_graph(work_dir, "verify9.edges", rng, VERIFY_GRAPH_VERTICES, VERIFY_GRAPH_EDGES)
        argvs = [
            ("audit", "--graph", "line:9:1", "--regime", "crw"),
            ("audit", "--graph", "line:13:1", "--regime", "crw"),
            ("audit", "--graph", "line:17:1", "--regime", "crw"),
            ("audit", "--graph", "line:13:1", "--regime", "qsw-global"),
            ("audit", "--graph", g9, "--regime", "crw"),
            ("compare", "--graph", "line:61:1", "--regime", "crw", "--omega", "1", "--t", "5"),
            ("compare", "--graph", "line:61:1", "--regime", "qw", "--t", "5"),
            ("compare", "--graph", "line:61:1", "--regime", "qsw-global", "--omega", "1", "--t", "5"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [Command(argv, work_dir / f"out{i}.txt") for i, argv in enumerate(argvs)]
