"""Compare the outputs of the benchmark's commands between two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs every command that perfbench/workloads.py lists (all workloads,
seed 0), plus the audits those leave out, once per checkout: qw, crw with
literal amplitudes, qsw-global without the diagonal, and a qsw-custom set
whose operators overlap at every position they touch. So the axiom rows
are compared under every operator set the CLI builds. Each point of a
command takes one route (see qsw.cli._run_grid), and the commands cover
all of them:

- omega = 0 runs the QuantumWalk on amplitudes: the qw workloads, the
  omega 0 points of the sweeps, and a long qw chain to t = 200, where
  t ||H||_1 is large and the Taylor sums cancel large terms.
- omega = 1 of crw and qw runs the ClassicalWalk on populations: the
  crw workloads at omega 1, qw at omega 1, a crw sweep whose only omegas
  are its two limits, and a crw time grid on a seeded graph of two
  components, where the walk runs on the populations of both.
- omega in (0, 1] of qsw-global with its full operator, which equals H,
  runs the EigenbasisWalk: the qsw-global workloads, a qsw-global sweep
  on line:21, and a qsw-global time grid on a seeded graph of two equal
  weighted paths, whose spectrum is degenerate.
- omega = 1 of qsw-global without the diagonal runs the Liouvillian's
  invariant block, its parity block of 121 of 441 coordinates on line:21.
- Every other interior omega runs the Liouvillian on all coordinates:
  the crw sweeps.

Each checkout runs in a fresh interpreter that imports qsw from its src/.
BLAS threads are left as the caller set them, so run it under
OPENBLAS_NUM_THREADS=1 and =2 to compare both.

For each command it prints "identical" when the output file, the exit
code and stderr agree byte for byte. Otherwise, when only numbers differ,
it prints the largest absolute difference of each field that differs: a
JSON key path, with list positions written [], or a CSV column. Fields of
floats come first and integer counters such as solver_steps after them,
so a changed step count does not hide a move in the populations. The
work directory, which the outputs echo in graph paths, is replaced by
<work> first. Exits 0 when every command is identical, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
# A JSON or CSV number, or a float spelled out.
NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|NaN|Infinity|nan|inf))")


def custom_audit(work_dir: Path) -> tuple:
    """An audit of three seeded complex operators on line:9, each nonzero on every edge and diagonal position."""
    rng = random.Random(SEED)
    positions = [(a, b) for a in range(9) for b in range(9) if abs(a - b) <= 1]
    operators = [[[a, b, rng.uniform(-1, 1), rng.uniform(-1, 1)] for a, b in positions] for _ in range(3)]
    jump_file = work_dir / "overlapping.json"
    jump_file.write_text(json.dumps(operators))
    return ("audit", "--graph", "line:9:1", "--regime", "qsw-custom", "--jump-file", str(jump_file))


# The audits of the operator sets that no workload audits, on line:9 at hop rate 2.
AUDITS = [
    ("--regime", "qw"),
    ("--regime", "crw", "--amplitude-convention", "literal"),
    ("--regime", "qsw-global", "--global-l", "offdiagonal"),
]


# A long omega = 0 chain on line:61 at hop rate 1, omega = 1 without a coherent
# part, the eigenbasis walk over a time grid and an omega sweep, and the
# Liouvillian's invariant block as the parity block, 121 of 441 coordinates.
CHAINS = [
    ("simulate", "--graph", "line:61:1", "--regime", "qw", "--t", "0:200:5"),
    ("simulate", "--graph", "line:61:1", "--regime", "qw", "--omega", "1", "--t", "5"),
    ("sweep", "--graph", "line:21:1", "--regime", "crw", "--omega", "0:1:2", "--t", "5"),
    ("simulate", "--graph", "line:21:1", "--regime", "qsw-global", "--omega", "1", "--t", "0:3:4"),
    ("simulate", "--graph", "line:21:1", "--regime", "qsw-global", "--global-l", "offdiagonal", "--omega", "1", "--t", "5"),
    ("sweep", "--graph", "line:21:1", "--regime", "qsw-global", "--omega", "0:1:5", "--t", "2"),
]


def two_components(work_dir: Path) -> tuple:
    """crw at omega 1 over a time grid on a seeded graph of two paths, 7 and 5 vertices long, with weights in [0.5, 2]."""
    rng = random.Random(SEED)
    edges = [(a, a + 1) for a in range(6)] + [(a, a + 1) for a in range(7, 11)]
    lines = ["vertices 12"] + [f"{u} {v} {rng.uniform(0.5, 2.0)!r}" for u, v in edges]
    graph = work_dir / "two_components.edges"
    graph.write_text("\n".join(lines) + "\n")
    return ("simulate", "--graph", str(graph), "--regime", "crw", "--omega", "1", "--t", "0:3:4")


def degenerate_pair(work_dir: Path) -> tuple:
    """qsw-global at omega 0.5 over a time grid on a seeded graph of two equal paths of 5 vertices, weights in [0.5, 2]: each eigenvalue of H is there twice."""
    rng = random.Random(SEED)
    weights = [rng.uniform(0.5, 2.0) for _ in range(4)]
    lines = ["vertices 10"] + [f"{first + a} {first + a + 1} {w!r}" for first in (0, 5) for a, w in enumerate(weights)]
    graph = work_dir / "degenerate_pair.edges"
    graph.write_text("\n".join(lines) + "\n")
    return ("simulate", "--graph", str(graph), "--regime", "qsw-global", "--omega", "0.5", "--t", "0:3:4", "--origin", "1")


def run_commands(work_dir: Path) -> list:
    """Run every command with qsw.cli.main in this process: (argv, exit code, stderr, output text) each."""
    import qsw.cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, commands

    argvs = [command.argv for workload in WORKLOADS for command in commands(workload, SEED, work_dir)]
    argvs += [("audit", "--graph", "line:9:2", *options) for options in AUDITS]
    argvs += CHAINS
    results = []
    for i, argv in enumerate([*argvs, custom_audit(work_dir), two_components(work_dir), degenerate_pair(work_dir)]):
        output = work_dir / f"compare{i}.out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = qsw.cli.main([*argv, "--output", str(output)])
        text = output.read_text() if output.exists() else ""
        results.append([list(argv), code, stderr.getvalue(), text])
    return results


def run_checkout(checkout: Path) -> list:
    """The commands' results from a fresh interpreter importing qsw from checkout/src, work directory masked."""
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="qsw-compare-") as work:
        code = "import json, sys, qsw; from pathlib import Path; "
        code += f"assert Path(qsw.__file__).resolve().is_relative_to({str(src)!r}), qsw.__file__; "
        code += f"sys.path.insert(0, {str(ROOT / 'tools')!r}); import compare_outputs; "
        code += "print(json.dumps(compare_outputs.run_commands(Path(sys.argv[1]))))"
        proc = subprocess.run([sys.executable, "-c", code, work], env=env, capture_output=True, text=True, check=True, cwd=work)
        masked = proc.stdout.splitlines()[-1].replace(work, "<work>")
    return json.loads(masked)


def _csv_number(cell: str) -> int | float | None:
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def numbered_fields(text: str) -> list:
    """(field, number) for each number of a JSON document, or of a CSV table under its header, in order."""
    try:
        document = json.loads(text)
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
        cells = [(name, _csv_number(cell)) for row in rows[1:] for name, cell in zip(rows[0], row)]
        return [(name, number) for name, number in cells if number is not None]
    found = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found.append((path, node))

    walk(document, "")
    return found


def field_differences(first: str, second: str) -> dict | None:
    """{field: (largest absolute difference, every number an integer)} over the fields that differ; None if the text around the numbers differs."""
    a, b = NUMBER.split(first), NUMBER.split(second)
    fields_a, fields_b = numbered_fields(first), numbered_fields(second)
    if len(a) != len(b) or a[0::2] != b[0::2] or [f for f, _ in fields_a] != [f for f, _ in fields_b]:
        return None
    counters = {}
    largest = {}
    for (field, x), (_, y) in zip(fields_a, fields_b):
        counters[field] = counters.get(field, True) and isinstance(x, int) and isinstance(y, int)
        if x != y and not (math.isnan(x) and math.isnan(y)):
            largest[field] = max(largest.get(field, 0.0), abs(x - y))
    return {field: (difference, counters[field]) for field, difference in largest.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (run_checkout(Path(path)) for path in args)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}")
    all_identical = True
    for (cmd, code_a, err_a, out_a), (_, code_b, err_b, out_b) in zip(first, second):
        label = " ".join(cmd)
        if (code_a, err_a, out_a) == (code_b, err_b, out_b):
            print(f"identical  {label}")
            continue
        all_identical = False
        if (code_a, err_a) != (code_b, err_b):
            print(f"exit code or stderr differ ({code_a} vs {code_b})  {label}")
            continue
        differences = field_differences(out_a, out_b)
        if differences is None:
            print(f"text differs  {label}")
            continue
        print(f"numbers differ  {label}")
        for counters in (False, True):
            for field, (difference, counter) in differences.items():
                if counter == counters:
                    shown = f"counter {field}: max abs difference {difference}" if counter else f"field {field}: max abs difference {difference:.3e}"
                    print(f"    {shown}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
