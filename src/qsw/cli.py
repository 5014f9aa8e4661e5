"""Command line interface.

Subcommands:

    qsw simulate   propagate one scenario, emit populations per grid point
    qsw sweep      omega sweep in long CSV (or JSON) form
    qsw audit      cross-check the axiom formulas against the full tensor
    qsw compare    total-variation distances against the line-walk oracles

Graphs come either from the built-in family `line:<sites>:<gamma>` or from
an edge-list file (see qsw.graph.parse_edge_list). Regimes pick the jump
operators: crw uses edge-local operators, qw uses none, qsw-global the
single generator-shaped operator, qsw-custom a user-supplied JSON file.
The mixing parameter omega lies in [0, 1] and defaults to 0 for qw and 1
otherwise.

Exit codes: 0 success, 1 audit failure, 2 configuration error, 3 solver
failure. Output is deterministic: fixed key order, floats rendered with
repr so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .evolution import (
    MIN_POSITIVE_TIME,
    ClassicalWalk,
    DensityMatrix,
    EigenbasisWalk,
    PropagationError,
    QuantumWalk,
    _identity_info,
    build_liouvillian,
    coherence_l1,
    combine_parts,
    populations,
    propagate_detailed,
)
from .graph import GeneratorMatrix, Graph, LineIndexMap, build_line, classical_generator, read_edge_list
from .operators import (
    CUSTOM,
    Hamiltonian,
    JumpOperatorSet,
    audit_axioms,
    edge_jump_operators,
    empty_jump_operators,
    global_jump_operator,
    hamiltonian_from_generator,
)
from .oracles import LineWalkSpec, crw_line_analytic, qw_line_analytic, total_variation

REGIMES = ("crw", "qw", "qsw-global", "qsw-custom")
# The most points a grid may have, and the most (omega, t) points one
# command may propagate. A grid far past it would fail to allocate in
# np.linspace, or fill memory with results before the last point; the
# largest grid of the benchmark workloads has 11.
_MAX_GRID_POINTS = 10**5


@dataclass(frozen=True)
class GraphSource:
    source: str
    graph: Graph
    line_map: LineIndexMap | None
    gamma: float | None


def _require_finite_flag(name: str, text: str, *values: float) -> None:
    """nan and inf would otherwise fail only deep inside the solver."""
    if not np.isfinite(values).all():
        raise ValueError(f"--{name} must be finite, got {text!r}")


def _parse_values(text: str, name: str) -> tuple[list[float], bool]:
    """A bare finite float, or a start:stop:count grid with finite ends. Returns (values, was_grid)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name} grid must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"cannot parse {name} grid {text!r}: {exc}") from None
        if count < 2:
            raise ValueError(f"{name} grid count must be at least 2, got {count}")
        if count > _MAX_GRID_POINTS:
            raise ValueError(f"{name} grid count must be at most {_MAX_GRID_POINTS}, got {count}")
        _require_finite_flag(name, text, start, stop)
        return [float(v) for v in np.linspace(start, stop, count)], True
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse {name} value {text!r}: {exc}") from None
    _require_finite_flag(name, text, value)
    return [value], False


def _parse_times(text: str) -> tuple[list[float], bool]:
    """--t values: _parse_values, plus every time nonnegative, and no time or grid step subnormal."""
    ts, was_grid = _parse_values(text, "t")
    if min(ts) < 0:
        raise ValueError(f"--t must be nonnegative, got {text!r}")
    if any(0 < t < MIN_POSITIVE_TIME for t in ts):
        raise ValueError(f"--t must be 0 or at least {MIN_POSITIVE_TIME}, got {text!r}")
    # A grid is propagated as a chain of steps between its sorted times.
    if any(0 < step < MIN_POSITIVE_TIME for step in np.diff(sorted(ts))):
        raise ValueError(f"--t grid steps must be 0 or at least {MIN_POSITIVE_TIME}, got {text!r}")
    return ts, was_grid


def _parse_omegas(args) -> tuple[list[float], bool]:
    """--omega values: _parse_values, plus every omega in [0, 1]; without the flag, the regime's default."""
    if not args.omega:
        return [_default_omega(args.regime)], False
    omegas, was_grid = _parse_values(args.omega, "omega")
    if not all(0.0 <= w <= 1.0 for w in omegas):
        raise ValueError(f"--omega must lie in [0, 1], got {args.omega!r}")
    return omegas, was_grid


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse --tol value {text!r}: {exc}") from None
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be finite and nonnegative, got {text!r}")
    return tol


def _load_graph(source: str) -> GraphSource:
    if source.startswith("line:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise ValueError(f"line graph spec must be line:<sites>:<gamma>, got {source!r}")
        try:
            n_sites = int(parts[1])
            gamma = float(parts[2])
        except ValueError as exc:
            raise ValueError(f"cannot parse {source!r}: {exc}") from None
        graph, line_map = build_line(n_sites, gamma)
        return GraphSource(source, graph, line_map, gamma)
    try:
        graph = read_edge_list(source)
    except OSError as exc:
        raise ValueError(f"cannot read graph file {source!r}: {exc}") from None
    return GraphSource(source, graph, None, None)


def _load_jump_file(path: str, dim: int) -> JumpOperatorSet:
    """JSON file: a list of operators, each a list of [row, col, re, im] entries, none given twice."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read jump-operator file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"jump-operator file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError("jump-operator file must hold a list of operators")
    triplets = []
    for op_index, entries in enumerate(raw):
        if not isinstance(entries, list):
            raise ValueError(f"operator {op_index} must be a list of [row, col, re, im] entries")
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 4:
                raise ValueError(f"operator {op_index}: entries must be [row, col, re, im], got {entry!r}")
            try:
                row, col, re_part, im_part = [float(x) for x in entry]
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"operator {op_index}: entries must be numbers, got {entry!r}") from None
            if not np.isfinite([row, col, re_part, im_part]).all():
                raise ValueError(f"operator {op_index}: entry {entry!r} is not finite")
            if not (row.is_integer() and col.is_integer()):
                raise ValueError(f"operator {op_index}: indices must be integers, got {entry!r}")
            triplets.append((op_index, int(row), int(col), re_part + 1j * im_part))
    number, rows, cols, values = zip(*triplets) if triplets else ((),) * 4
    return JumpOperatorSet(dim, len(raw), number, rows, cols, values, CUSTOM)


def _jump_operators(args, m: GeneratorMatrix) -> JumpOperatorSet:
    """The regime's jump operators on the graph whose classical generator is m."""
    regime = args.regime
    if regime == "crw":
        return edge_jump_operators(m, args.amplitude_convention)
    if regime == "qw":
        return empty_jump_operators(m.dim)
    if regime == "qsw-global":
        return global_jump_operator(m, args.global_l)
    if not args.jump_file:
        raise ValueError("regime qsw-custom requires --jump-file")
    return _load_jump_file(args.jump_file, m.dim)


def _build_operators(src: GraphSource, args) -> tuple[Hamiltonian, JumpOperatorSet]:
    m = classical_generator(src.graph)
    return hamiltonian_from_generator(m), _jump_operators(args, m)


def _resolve_origin(src: GraphSource, origin: int | None) -> tuple[int, int]:
    """Returns (label, storage index). Line graphs label by signed position."""
    dim = src.graph.n_vertices
    label = 0 if origin is None else origin
    if src.line_map is not None:
        half = src.line_map.half_width
        if not -half <= label <= half:
            raise ValueError(f"origin position {label} outside the line (|position| <= {half})")
        return label, src.line_map.index_of(label)
    if not 0 <= label < dim:
        raise ValueError(f"origin index {label} out of range for {dim} vertices")
    return label, label


def _position_labels(src: GraphSource) -> list[int]:
    if src.line_map is not None:
        return [int(p) for p in src.line_map.positions]
    return list(range(src.graph.n_vertices))


def _config_echo(src: GraphSource, args, omegas, ts, origin_label, origin_index) -> dict:
    echo = {
        "graph": src.source,
        "regime": args.regime,
        "omega": [float(w) for w in omegas],
        "t": [float(t) for t in ts],
        "origin": origin_label,
        "origin_index": origin_index,
        "amplitude_convention": args.amplitude_convention,
        "global_l": args.global_l,
        "positions": _position_labels(src),
    }
    if args.regime == "qsw-custom":
        echo["jump_file"] = args.jump_file
    return echo


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {output!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _run_grid(src: GraphSource, args, omegas, ts) -> tuple[dict, list[dict]]:
    """Propagate every (omega, t) point; results come in omega-major, grid order.

    An omega = 0 point propagates the start state's dim amplitudes with
    the QuantumWalk made from H. An omega = 1 point of a set that keeps
    populations closed (ClassicalWalk.applies_to: crw, qw, and such custom
    sets) propagates its dim populations with the ClassicalWalk made from
    the jump triplets. Every other point of a set of one operator equal to
    H (EigenbasisWalk.applies_to: qsw-global with its full operator, and a
    custom set that spells out H) propagates the start state's coherences
    in H's eigenbasis, with the walk at its omega from one eigh of H per
    command. Every other omega propagates the dim^2 real
    coordinates with its Liouvillian. Its two omega-free parts, R_QW and
    R_D (R at omega = 0 and at omega = 1), are built once each, and only
    if an omega that uses them weighs them: R_QW only for an omega inside
    (0, 1), and R_D for such an omega, or at omega = 1 for a set that does
    not keep populations closed. So crw --omega 1 and --omega 0:1:2 build
    neither, and qsw-global builds neither at any omega. combine_parts
    makes the generator of every interior omega from them, and a part
    that no later omega weighs is let go before the state propagates. H
    is built only for a route that reads it, so crw and qw at --omega 1
    build none. For each omega the times are
    visited in ascending order as one forward chain: each point steps on
    from the state the previous one reached. Each step pays its own Taylor
    series, so a chain costs more products than its largest time alone;
    line:101 qsw-global at omega 0.5 makes 200 products over --t 0:5:11
    against 108 for --t 5. A zero-length step (t = 0, or a repeated time) reports method
    identity with 0 steps. A command whose times are all 0 builds no
    generator: every point is the start state.
    """
    points = len(omegas) * len(ts)
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"{len(omegas)} omegas x {len(ts)} times make {points} grid points, and the bound is {_MAX_GRID_POINTS}")
    m = classical_generator(src.graph)
    ls = _jump_operators(args, m)
    origin_label, origin_index = _resolve_origin(src, args.origin)
    rho0 = DensityMatrix.basis(src.graph.n_vertices, origin_index)
    ascending = sorted(range(len(ts)), key=ts.__getitem__)

    def record(omega, t, state, info):
        return {
            "omega": float(omega),
            "t": float(t),
            "populations": [float(p) for p in populations(state)],
            "coherence_l1": float(coherence_l1(state)),
            "validation": {
                "trace_drift": float(info.trace_drift),
                "min_eigenvalue": float(info.min_eigenvalue),
                "solver_steps": int(info.steps),
            },
        }

    echo = _config_echo(src, args, omegas, ts, origin_label, origin_index)
    if max(ts) == 0.0:
        info = _identity_info(rho0)
        return echo, [record(omega, t, rho0, info) for omega in omegas for t in ts]

    walks = {}
    if 1.0 in omegas and ClassicalWalk.applies_to(ls):
        walks[1.0] = ClassicalWalk.from_jump_operators(ls)
    # H is read by every other route, never by the classical walk.
    h = hamiltonian_from_generator(m) if any(w not in walks for w in omegas) else None
    eigenbasis = None
    if any(w > 0.0 and w not in walks for w in omegas) and EigenbasisWalk.applies_to(h, ls):
        eigenbasis = EigenbasisWalk.from_hamiltonian(h)
    if 0.0 in omegas:
        walks[0.0] = QuantumWalk.from_hamiltonian(h)
    # The omegas the parts serve, and the last that weighs each part, -1 if none does.
    parted = [] if eigenbasis is not None else [k for k, w in enumerate(omegas) if w not in walks]
    last_coherent = max((k for k in parted if omegas[k] < 1.0), default=-1)
    last_dissipative = max(parted, default=-1)
    coherent = build_liouvillian(h, ls, 0.0) if last_coherent >= 0 else None
    dissipative = build_liouvillian(h, ls, 1.0) if last_dissipative >= 0 else None
    results = []
    for k, omega in enumerate(omegas):
        if omega in walks:
            liou = walks[omega]
        elif eigenbasis is not None:
            liou = eigenbasis.at(omega)
        else:
            liou = combine_parts(coherent, dissipative, omega)
        if k == last_coherent:
            coherent = None
        if k == last_dissipative:
            dissipative = None
        points = [None] * len(ts)
        state, t_prev = rho0, 0.0
        for i in ascending:
            state, info = propagate_detailed(state, liou, ts[i] - t_prev)
            t_prev = ts[i]
            points[i] = record(omega, ts[i], state, info)
        results.extend(points)
    return echo, results


def _json_document(echo: dict, key: str, payload) -> str:
    """The JSON document of every subcommand: its config echo, its payload under key, and the version."""
    doc = {"config_echo": echo, key: payload, "version": __version__}
    return json.dumps(doc, indent=2) + "\n"


def _csv_rows(results: list[dict], labels: list[int], with_t: bool) -> str:
    lines = ["omega,t,position,population" if with_t else "omega,position,population"]
    for entry in results:
        for label, value in zip(labels, entry["populations"]):
            if with_t:
                lines.append(f"{entry['omega']!r},{entry['t']!r},{label},{value!r}")
            else:
                lines.append(f"{entry['omega']!r},{label},{value!r}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    src = _load_graph(args.graph)
    omegas, _ = _parse_omegas(args)
    ts, _ = _parse_times(args.t)
    echo, results = _run_grid(src, args, omegas, ts)
    if args.format == "json":
        _emit(_json_document(echo, "results", results), args.output)
    else:
        _emit(_csv_rows(results, _position_labels(src), with_t=True), args.output)
    return 0


def cmd_sweep(args) -> int:
    src = _load_graph(args.graph)
    omegas, was_grid = _parse_omegas(args)
    if not was_grid:
        raise ValueError("sweep requires an omega grid start:stop:count")
    ts, t_was_grid = _parse_times(args.t)
    if t_was_grid:
        raise ValueError("sweep varies omega only; --t must be a single value")
    echo, results = _run_grid(src, args, omegas, ts)
    if args.format == "json":
        _emit(_json_document(echo, "results", results), args.output)
    else:
        _emit(_csv_rows(results, _position_labels(src), with_t=False), args.output)
    return 0


def cmd_audit(args) -> int:
    tol = _parse_tol(args.tol)
    src = _load_graph(args.graph)
    h, ls = _build_operators(src, args)
    report = audit_axioms(h, ls, src.graph, tol=tol)
    echo = {
        "graph": src.source,
        "regime": args.regime,
        "tol": tol,
        "amplitude_convention": args.amplitude_convention,
        "global_l": args.global_l,
    }
    if args.regime == "qsw-custom":
        echo["jump_file"] = args.jump_file
    _emit(_json_document(echo, "report", report.to_dict()), args.output)
    if not report.passed:
        first = report.failures[0]
        print(
            f"audit failed: {first.kind} at indices {tuple(first.indices)} deviates by {first.deviation:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _distribution_variance(probs, labels) -> float:
    p = np.asarray(probs, dtype=float)
    x = np.asarray(labels, dtype=float)
    mean = float(p @ x)
    return float(p @ (x * x) - mean * mean)


def cmd_compare(args) -> int:
    src = _load_graph(args.graph)
    if src.line_map is None:
        raise ValueError("compare needs a line graph; the analytic oracles cover no other family")
    omegas, omega_grid = _parse_omegas(args)
    ts, t_grid = _parse_times(args.t)
    if omega_grid or t_grid:
        raise ValueError("compare takes single omega and t values, not grids")
    echo, results = _run_grid(src, args, omegas, ts)
    entry = results[0]
    labels = _position_labels(src)
    sim = np.asarray(entry["populations"])

    spec = LineWalkSpec(src.graph.n_vertices, src.gamma, ts[0])
    crw = crw_line_analytic(spec)
    qw = qw_line_analytic(spec)
    comparison = {
        "tv_vs_crw": float(total_variation(sim, crw.probabilities)),
        "tv_vs_qw": float(total_variation(sim, qw.probabilities)),
        "variance_sim": _distribution_variance(sim, labels),
        "variance_crw": _distribution_variance(crw.probabilities, crw.positions),
        "variance_qw": _distribution_variance(qw.probabilities, qw.positions),
        "crw_tail_mass": float(crw.tail_mass),
        "qw_tail_mass": float(qw.tail_mass),
    }
    if args.format == "json":
        _emit(_json_document(echo, "comparison", comparison), args.output)
    else:
        lines = ["metric,value"]
        for key, value in comparison.items():
            lines.append(f"{key},{value!r}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _default_omega(regime: str) -> float:
    return 0.0 if regime == "qw" else 1.0


def _add_common(parser: argparse.ArgumentParser, with_origin: bool) -> None:
    parser.add_argument("--graph", required=True, help="line:<sites>:<gamma> or an edge-list file path")
    parser.add_argument("--regime", required=True, choices=REGIMES)
    parser.add_argument("--output", default=None, help="write here instead of stdout")
    parser.add_argument(
        "--amplitude-convention",
        choices=("sqrt", "literal"),
        default="sqrt",
        help="edge-local operator amplitude: sqrt of the rate (default) or the rate itself",
    )
    parser.add_argument(
        "--global-l",
        choices=("full", "offdiagonal"),
        default="full",
        help="global operator: generator entrywise (default) or with the diagonal zeroed",
    )
    parser.add_argument("--jump-file", default=None, help="JSON jump operators for regime qsw-custom")
    if with_origin:
        parser.add_argument("--origin", type=int, default=None, help="start vertex: signed position on lines, index otherwise")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsw", description="Quantum stochastic walk simulator")
    parser.add_argument("--version", action="version", version=f"qsw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="propagate one scenario")
    _add_common(p_sim, with_origin=True)
    p_sim.add_argument("--omega", default=None, help="mixing parameter, or grid start:stop:count")
    p_sim.add_argument("--t", default="5", help="evolution time, or grid start:stop:count")
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="omega sweep")
    _add_common(p_sweep, with_origin=True)
    p_sweep.add_argument("--omega", default=None, help="grid start:stop:count (required)")
    p_sweep.add_argument("--t", default="5", help="evolution time (single value)")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="axiom formulas vs the full tensor")
    _add_common(p_audit, with_origin=False)
    p_audit.add_argument("--tol", default="1e-10", help="finite, nonnegative deviation allowed in every check")
    p_audit.set_defaults(func=cmd_audit)

    p_cmp = sub.add_parser("compare", help="distances from the line-walk oracles")
    _add_common(p_cmp, with_origin=False)
    p_cmp.add_argument("--omega", default=None, help="mixing parameter (single value)")
    p_cmp.add_argument("--t", default="5", help="evolution time (single value)")
    p_cmp.add_argument("--format", choices=("json", "csv"), default="json")
    # The oracles start at position 0, so compare takes no --origin; _run_grid reads the attribute.
    p_cmp.set_defaults(func=cmd_compare, origin=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropagationError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
