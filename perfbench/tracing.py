"""Spans and counters recorded from outside qsw, around the calls qsw.cli makes.

`traced(cli, tracer)` replaces each public function in LAYERS at the name
`qsw.cli` calls it by with a wrapper that records a span (id, parent id,
name, start, end) and the counters named in COUNTERS, then puts the
originals back. The benchmark opens one root span per command, so a
layer's self time is its spans' durations minus their children's, and
`cli.self` is what the command spent outside every wrapped call
(argument parsing, config echo, JSON/CSV rendering).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import scipy.sparse

# Function name in qsw.cli -> layer (module.part); metrics are "<layer>_s".
LAYERS = {
    "build_line": "graph.self",
    "read_edge_list": "graph.self",
    "classical_generator": "graph.self",
    "hamiltonian_from_generator": "operators.hamiltonian",
    "edge_jump_operators": "operators.jumps",
    "global_jump_operator": "operators.jumps",
    "empty_jump_operators": "operators.jumps",
    "audit_axioms": "operators.audit",
    "build_liouvillian": "evolution.build",
    "propagate_detailed": "evolution.propagate",
    "populations": "evolution.readout",
    "coherence_l1": "evolution.readout",
    "crw_line_analytic": "oracles.self",
    "qw_line_analytic": "oracles.self",
    "total_variation": "oracles.self",
}
CLI_LAYER = "cli.self"
LAYER_NAMES = (*dict.fromkeys(LAYERS.values()), CLI_LAYER)

COUNTERS = (
    "evolution.build_calls",
    "evolution.superop_nnz",
    "evolution.solver_steps",
    "evolution.rk_points",
    "evolution.failures",
    "operators.jump_count",
    "operators.jump_bytes",
    "operators.audit_tuples",
)


def _count_build(counts: Counter, liou) -> None:
    counts["evolution.build_calls"] += 1
    # A dense superoperator stores every one of its dim^4 entries.
    counts["evolution.superop_nnz"] += liou.matrix.nnz if scipy.sparse.issparse(liou.matrix) else liou.matrix.size


def _count_propagate(counts: Counter, result) -> None:
    _, info = result
    counts["evolution.solver_steps"] += info.steps
    counts["evolution.rk_points"] += info.method == "adaptive-rk"


def _count_jumps(counts: Counter, ls) -> None:
    counts["operators.jump_count"] += len(ls.operators)
    counts["operators.jump_bytes"] += sum(op.nbytes for op in ls.operators)


def _count_audit(counts: Counter, report) -> None:
    counts["operators.audit_tuples"] += report.tuples_evaluated


_COUNT_RESULT = {
    "build_liouvillian": _count_build,
    "propagate_detailed": _count_propagate,
    "edge_jump_operators": _count_jumps,
    "global_jump_operator": _count_jumps,
    "empty_jump_operators": _count_jumps,
    "audit_axioms": _count_audit,
}


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def self_times(self) -> dict[str, float]:
        """Total self time per layer over every recorded span."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        for span_id, _, name, start, end in self.spans:
            totals[LAYERS.get(name, CLI_LAYER)] += (end - start) - child_time[span_id]
        return totals


def _wrap(tracer: Tracer, name: str, fn):
    count = _COUNT_RESULT.get(name)

    def traced_call(*args, **kwargs):
        try:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        except Exception:
            if name == "propagate_detailed":
                tracer.counts["evolution.failures"] += 1
            raise
        if count is not None:
            count(tracer.counts, result)
        return result

    return traced_call


@contextlib.contextmanager
def traced(cli_module, tracer: Tracer):
    """Route qsw.cli's calls in LAYERS through tracer while the block runs."""
    originals = {name: getattr(cli_module, name) for name in LAYERS}
    try:
        for name, fn in originals.items():
            setattr(cli_module, name, _wrap(tracer, name, fn))
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(cli_module, name, fn)
