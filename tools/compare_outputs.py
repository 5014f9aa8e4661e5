"""Compare the outputs of the benchmark's commands between two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs every command that perfbench/workloads.py lists (all workloads,
seed 0), plus the audits those leave out, once per checkout: qw, crw with
literal amplitudes, qsw-global without the diagonal, and a qsw-custom set
whose operators overlap at every position they touch. So the axiom rows
are compared under every operator set the CLI builds. It also runs a long
qw chain to t = 200, so the omega = 0 walk is compared where t ||H||_1 is
large and its Taylor sums cancel large terms. Each checkout runs
in a fresh interpreter that imports qsw from its src/. BLAS threads are left as the caller set
them, so run it under OPENBLAS_NUM_THREADS=1 and =2 to compare both.

For each command it prints "identical" when the output file, the exit
code and stderr agree byte for byte, or else the largest absolute
difference between the numbers of the two outputs. The work directory,
which the outputs echo in graph paths, is replaced by <work> first. Exits
0 when every command is identical, 1 otherwise.
"""

from __future__ import annotations

import contextlib
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


# A long omega = 0 chain on line:61 at hop rate 1.
CHAINS = [("simulate", "--graph", "line:61:1", "--regime", "qw", "--t", "0:200:5")]


def run_commands(work_dir: Path) -> list:
    """Run every command with qsw.cli.main in this process: (argv, exit code, stderr, output text) each."""
    import qsw.cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, commands

    argvs = [command.argv for workload in WORKLOADS for command in commands(workload, SEED, work_dir)]
    argvs += [("audit", "--graph", "line:9:2", *options) for options in AUDITS]
    argvs += CHAINS
    results = []
    for i, argv in enumerate([*argvs, custom_audit(work_dir)]):
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


def largest_difference(first: str, second: str) -> float | None:
    """The largest absolute difference between corresponding numbers, or None if the text around them differs."""
    a, b = NUMBER.split(first), NUMBER.split(second)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return None
    largest = 0.0
    for x, y in zip(a[1::2], b[1::2]):
        x, y = float(x.replace("Infinity", "inf")), float(y.replace("Infinity", "inf"))
        if x != y and not (math.isnan(x) and math.isnan(y)):
            largest = max(largest, abs(x - y))
    return largest


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
        difference = largest_difference(out_a, out_b)
        shown = "text differs" if difference is None else f"max abs difference {difference:.3e}"
        print(f"{shown}  {label}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
