"""Command line of the end-to-end benchmark.

``--workload W`` runs one workload in this process (the form the
benchmark driver uses; the last line of output is its JSON result).
Without it, every workload runs in a subprocess of its own, untraced
and then traced, and ``--record`` appends the medians to the trajectory.
``--compare A B`` reads the trajectory back.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from typing import Optional

from . import history
from .workloads import BY_NAME, WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1986)
    parser.add_argument(
        "--seconds", type=float,
        help="measure until this many seconds were timed "
        "(default: the workload's fixed round count)",
    )
    parser.add_argument("--rounds", type=int, help="measure exactly this many rounds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="1: traced run, per-layer metrics; 0: end-to-end metrics "
        "(default: 0 for one workload, both for all)",
    )
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: repeats, each on seed+i")
    parser.add_argument("--record", action="store_true",
                        help="all-workloads mode: append to history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two history records (index or commit)")
    return parser


def run_one(
    name: str, seed: int, trace: bool,
    rounds: Optional[int], seconds: Optional[float],
) -> int:
    # Imported here: only a run needs the system under test on the path.
    from . import runner

    bench = runner.Bench(BY_NAME[name], seed, trace)
    bench.setup()
    # Set-up garbage must not be collected inside a timed round, and the
    # loaded heap must not be re-walked by every full collection.
    gc.collect()
    gc.freeze()
    bench.measure(rounds, seconds)
    result = bench.result()
    if trace:
        print(f"# trace: {bench.write_trace()}")
    else:
        print(f"# {name}.visible_tail_ms is p{runner.TAIL_PCT} "
              f"of {bench.attempted} rounds")
    print(f"# times are at reference speed; this run's median slowdown "
          f"was {bench.slowdown():.3f}")
    for metric, reading in result["metrics"].items():
        print(f"{name}.{metric} {reading['value']:.6g} {reading['unit']}")
    print(f"{name}.failed_share "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result))
    return 0


def run_all(seed: int, runs: int, trace: Optional[int], record: bool) -> int:
    modes = (0, 1) if trace is None else (trace,)
    per_run: "dict[str, list[dict[str, float]]]" = {}
    status = 0
    for index in range(runs):
        for workload in WORKLOADS:
            for mode in modes:
                command = [
                    sys.executable, "-m", "benchmarks.e2e",
                    "--workload", workload.name,
                    "--seed", str(seed + index), "--trace", str(mode),
                ]
                if mode:
                    # A third of the fixed rounds, half of them traced.
                    command += ["--rounds", str(max(8, workload.rounds // 3))]
                child = subprocess.run(
                    command, cwd=history.REPO_ROOT, stdout=subprocess.PIPE,
                    text=True, check=False,
                )
                lines = child.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if child.returncode:
                    status = 1
                    if lines:
                        print(lines[-1], flush=True)
                    continue
                result = json.loads(lines[-1])
                if not result["correct"]:
                    status = 1
                if not mode:
                    metrics = result["metrics"]
                    per_run.setdefault(workload.name, []).append(
                        {name: reading["value"] for name, reading in metrics.items()}
                    )
    if record and per_run:
        entry = history.record(seed, per_run)
        print(f"# recorded {entry['commit']} ({entry['runs']} runs) "
              f"in {history.HISTORY}")
    return status


def main(argv: "Optional[list[str]]" = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return history.compare(*args.compare)
    if args.workload:
        return run_one(
            args.workload, args.seed, bool(args.trace), args.rounds, args.seconds
        )
    return run_all(args.seed, args.runs, args.trace, args.record)
