"""Workload process: runs one workload's qsw commands in this one process.

run.py starts it with BLAS pinned to one thread and PYTHONPATH set to the
checkout's src/, and reads the JSON object it prints as its last line.
Each command is a call to `qsw.cli.main` with its output sent to a file,
which is checked after the call's timer stops, and is preceded by the
host-speed probe (see `probe`), timed on its own. One warm-up pass, checked
but not timed, lets lazy imports and first-call set-up finish. The peak
resident memory is read right after it, so it covers each command run
once; later passes are left out because the allocator keeps freed heap
resident, by an amount that differs from run to run. Timed passes then
repeat while the next one is expected to end within --seconds. With
--trace 1, untraced and traced passes alternate, so their difference is
the tracing overhead.

Set-up is sampled between passes, at most once per SETUP_SAMPLE_EVERY_S:
a fresh interpreter imports qsw.cli (with `-X importtime` under
--trace 1), right after a probe. Spreading the samples over the run, rather than taking
them back to back, keeps one slow spell of a shared host from setting
all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse

import qsw
import qsw.cli
from check import check_command
from tracing import COUNTERS, Tracer, traced
from workloads import WORKLOADS, commands

SETUP_SAMPLE_EVERY_S = 7.5
IMPORTTIME_PACKAGES = ("numpy", "scipy", "qsw")

# The host-speed probe: fixed work of the two kinds qsw's commands are
# made of, a pure-Python loop over a dict and PROBE_PRODUCTS products of
# a fixed sparse matrix, of the superoperator dimension of line:101, with
# a vector. It is timed right before each command (see run.py, which
# divides by it). The shared host slows one kind or the other at
# different times, so the probe holds both, each about half its time.
PROBE_LOOPS = 85_000
PROBE_DIM = 101 * 101
PROBE_ROW_NNZ = 12
PROBE_PRODUCTS = 120


def _probe_operands():
    """A seeded matrix with PROBE_ROW_NNZ random entries per row, and a vector."""
    rng = np.random.default_rng(1)
    rows = np.repeat(np.arange(PROBE_DIM), PROBE_ROW_NNZ)
    cols = rng.integers(0, PROBE_DIM, size=rows.size)
    values = rng.random(rows.size) / PROBE_ROW_NNZ
    matrix = scipy.sparse.csr_array((values, (rows, cols)), shape=(PROBE_DIM, PROBE_DIM))
    return matrix, rng.random(PROBE_DIM)


_PROBE_MATRIX, _PROBE_VECTOR = _probe_operands()


def probe() -> float:
    """Seconds the host takes for the probe's fixed work."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        counts[i % 997] = counts.get(i % 997, 0) + i * i
    vector = _PROBE_VECTOR
    for _ in range(PROBE_PRODUCTS):
        vector = _PROBE_MATRIX @ vector
    return time.perf_counter() - start


def _invoke(argv: list[str]) -> int:
    try:
        return qsw.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


class Runner:
    """Runs passes over a workload's commands and tallies their failures."""

    def __init__(self, cmds):
        self.cmds = cmds
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exited 0 but failed an output check
        self.failures: dict[str, str] = {}

    def run_pass(self, tracer: Tracer | None = None) -> list[tuple[float, float]]:
        """(probe seconds, seconds inside qsw.cli.main) per command over one pass."""
        return [(probe(), self._run(cmd, tracer)) for cmd in self.cmds]

    def _run(self, cmd, tracer: Tracer | None) -> float:
        cmd.output.unlink(missing_ok=True)
        err = io.StringIO()
        span = tracer.span(f"cli.{cmd.subcommand}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            with span:
                exit_code = _invoke(cmd.full_argv())
            elapsed = time.perf_counter() - start
        reason = check_command(cmd, exit_code)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += exit_code == 0
            self.failures.setdefault(" ".join(cmd.argv), f"{reason}; stderr: {err.getvalue().strip()}")
        return elapsed


def fresh_import(importtime: bool) -> tuple[float, dict[str, float]]:
    """Wall time of a fresh interpreter that imports qsw.cli and exits.

    With importtime, also the self import time of each package in
    IMPORTTIME_PACKAGES, summed over its modules, in seconds.
    """
    flags = ["-X", "importtime"] if importtime else []
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import qsw.cli"], capture_output=True, text=True, check=True, timeout=60)
    elapsed = time.perf_counter() - start
    if not importtime:
        return elapsed, {}
    split = dict.fromkeys(IMPORTTIME_PACKAGES, 0.0)
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in split:
            split[package] += int(fields[0]) / 1e6
    return elapsed, split


def host_notes() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(qsw.__file__).resolve().parent.parent != src.resolve():
        print(f"qsw was imported from {qsw.__file__}, not from {src}", file=sys.stderr)
        return 2

    runner = Runner(commands(args.workload, args.seed, args.work_dir))
    runner.run_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = Tracer()
    passes: list[list[tuple[float, float]]] = []
    traced_passes: list[list[tuple[float, float]]] = []
    setup: list[tuple[float, float]] = []
    import_splits: list[dict[str, float]] = []
    start = time.perf_counter()
    next_setup = start
    last_cycle = 0.0
    # Stop before a cycle that would end past --seconds, so a run lasts
    # about --seconds after its warm-up pass whatever the workload.
    while not passes or time.perf_counter() - start + last_cycle <= args.seconds:
        if time.perf_counter() >= next_setup:
            probe_s = probe()
            elapsed, split = fresh_import(bool(args.trace))
            setup.append((probe_s, elapsed))
            import_splits.append(split)
            next_setup += SETUP_SAMPLE_EVERY_S
        cycle_start = time.perf_counter()
        passes.append(runner.run_pass())
        if args.trace:
            with traced(qsw.cli, tracer):
                traced_passes.append(runner.run_pass(tracer))
        last_cycle = time.perf_counter() - cycle_start

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong": runner.wrong,
        "failures": runner.failures,
        "passes": passes,
        "setup": setup,
        "peak_rss_mb": peak_rss_mb,
        "host": host_notes(),
    }
    if args.trace:
        n = len(traced_passes)
        result["traced_passes"] = traced_passes
        result["import_splits"] = import_splits
        result["layers"] = {layer: total / n for layer, total in tracer.self_times().items()}
        result["counts"] = {name: tracer.counts[name] / n for name in COUNTERS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
