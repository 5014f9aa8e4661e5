"""Benchmark of the qsw command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload sweep|propagate|verify|all]
                             [--seed N] [--seconds S] [--trace 0|1]

It times the package in the checkout's src/ (never an installed copy).
Each workload (see workloads.py) runs in one worker process with BLAS
pinned to one thread, which calls `qsw.cli.main` directly and checks every
output (see check.py and worker.py). It prints host notes (with the
unscaled median pass and set-up times and the probe's median), then each
metric as `<workload> <name> <value> <unit>`, and last one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. `failed`
counts commands that exited non-zero or failed their check; `correct` is
false when a command exited 0 with output that failed its check.

--trace 0 reports the end-to-end metrics:
    wall_ref_s   median time of one untraced pass over the commands, at
                 a reference host speed: each command's time is scaled
                 by PROBE_REFERENCE_S over the time of a fixed probe (a
                 Python loop and sparse products) run right before it.
                 The shared host the benchmark was written on drifts
                 between slow and fast states, up to 1.8x apart, for
                 seconds to minutes at a time; the probe slows with it,
                 so the scaled time keeps the program's cost and drops
                 most of the host's.
    setup_s      median time for a fresh interpreter to `import qsw.cli`,
                 scaled in the same way by a probe run right before it
    peak_rss_mb  peak resident memory of the worker over its first pass
    ok_frac      share of the commands attempted that exited 0 and
                 passed their check (failed_frac = 1 - ok_frac; reported
                 this way round because a metric may never read 0)
--trace 1 reports the per-layer metrics from a separate run (see
tracing.py): self time per layer and counters per traced pass, the
`python -X importtime` split of set-up by package, and the tracing
overhead (traced minus untraced pass time, from interleaved passes).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

BLAS_THREADS = "1"
# About the probe's median time (see worker.probe) on the 2-vCPU Xeon
# host the benchmark was written on, whose probe read 0.027-0.067 s;
# wall_ref_s and setup_s are in seconds at that speed.
PROBE_REFERENCE_S = 0.040
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MB", "ok_frac": "fraction", "operators.jump_bytes": "bytes"}.get(metric, "count")


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a worker process and return the JSON it printed."""
    # A fixed hash seed keeps dict and set order, and with it the
    # allocator's layout and the peak memory, the same from run to run.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    work_dir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--work-dir", str(work_dir),
    ]
    try:
        # On timeout subprocess.run kills the worker and waits for it.
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker did not finish within {WORKER_TIMEOUT_S:.0f} s") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # fails, and stays, while another run uses it
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference(samples) -> float:
    """Median of (probe seconds, seconds) samples, each scaled to the reference speed."""
    return statistics.median(elapsed * PROBE_REFERENCE_S / probe for probe, elapsed in samples)


def wall_at_reference(passes: list[list[list[float]]]) -> float:
    """Time of one pass at the reference speed: each command's median, summed."""
    return sum(at_reference(samples) for samples in zip(*passes))


def pass_walls(passes: list[list[list[float]]]) -> list[float]:
    return [sum(elapsed for _, elapsed in p) for p in passes]


def metrics_of(worker: dict, trace: bool) -> dict[str, float]:
    if not trace:
        return {
            "wall_ref_s": wall_at_reference(worker["passes"]),
            "setup_s": at_reference(worker["setup"]),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_frac": 1.0 - worker["failed"] / worker["attempted"],
        }
    traced_wall = statistics.fmean(pass_walls(worker["traced_passes"]))
    splits = worker["import_splits"]
    return {
        **{f"{layer}_s": value for layer, value in worker["layers"].items()},
        **worker["counts"],
        **{f"setup.{pkg}_s": statistics.median(s[pkg] for s in splits) for pkg in splits[0]},
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.fmean(pass_walls(worker["passes"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsw" / "__init__.py").is_file():
        print(f"error: no qsw package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            worker = run_worker(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: workload {workload}: {exc}", file=sys.stderr)
            return 1
        passes = worker["passes"]
        notes = dict(
            worker["host"], workload=workload, seed=args.seed, passes=len(passes),
            wall_unscaled_s=statistics.median(pass_walls(passes)),
            setup_unscaled_s=statistics.median(elapsed for _, elapsed in worker["setup"]),
            probe_s=statistics.median(probe for p in passes for probe, _ in p),
        )
        print("host " + json.dumps(notes))
        for command, reason in worker["failures"].items():
            print(f"failed: {command}: {reason}")
        values = metrics_of(worker, bool(args.trace))
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
        for name, metric in metrics.items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
        result = {"correct": worker["wrong"] == 0, "attempted": worker["attempted"], "failed": worker["failed"], "metrics": metrics}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
