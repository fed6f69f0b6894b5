"""The trajectory: one appended JSON line per recorded run, and compare.

``history.jsonl`` is append-only.  Each record keeps, per workload and
end-to-end metric, the median, quartiles and extremes over the record's
runs, so two records can be compared against the bounds fixed in
``BENCHMARK.json`` and a spread wider than the bound reads as
*unresolved* instead of as *unchanged*.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
HISTORY = os.path.join(HERE, "history.jsonl")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: "list[float]") -> "dict[str, float]":
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
    }


def record(seed: int, runs: "dict[str, list[dict[str, float]]]") -> dict:
    """Append one record; ``runs[workload]`` is one metric dict per run."""
    entry = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "runs": max(len(per_run) for per_run in runs.values()),
        "workloads": {
            workload: {
                metric: summarize([run[metric] for run in per_run])
                for metric in per_run[0]
            }
            for workload, per_run in runs.items()
        },
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def _select(records: "list[dict]", key: str) -> dict:
    """A record by line index (negative from the end) or commit prefix."""
    try:
        return records[int(key)]
    except ValueError:
        matches = [r for r in records if r["commit"].startswith(key)]
        if not matches:
            raise SystemExit(f"no record for commit {key!r}") from None
        return matches[-1]
    except IndexError:
        raise SystemExit(f"no record at index {key}") from None


def verdict(old: dict, new: dict, better: str, bound: float) -> "tuple[float, str]":
    """Signed worsening as a share of the old median, and what it means."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new["median"] - old["median"]) / old["median"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (old, new)
    )
    # Every run of one side beats every run of the other.
    separated = new["max"] < old["min"] or new["min"] > old["max"]
    if spread > bound and not separated:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSED"
    return worse, "ok"


def compare(old_key: str, new_key: str) -> int:
    """Print per-metric deltas of two records against the bounds."""
    with open(HISTORY, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    old, new = _select(records, old_key), _select(records, new_key)
    metrics = load_contract()["end_to_end"]
    print(f"{old['commit']} ({old['runs']} runs) -> "
          f"{new['commit']} ({new['runs']} runs)")
    regressed = 0
    for workload, new_metrics in new["workloads"].items():
        old_metrics = old["workloads"].get(workload)
        if old_metrics is None:
            continue
        for metric in metrics:
            name = metric["name"]
            if name not in old_metrics or name not in new_metrics:
                continue
            worse, word = verdict(
                old_metrics[name], new_metrics[name],
                metric["better"], metric["bound"],
            )
            regressed += word == "REGRESSED"
            print(
                f"{workload}.{name:<22} "
                f"{old_metrics[name]['median']:>12.4f} -> "
                f"{new_metrics[name]['median']:>12.4f} {metric['unit']:<4} "
                f"worse by {worse:+7.2%} (bound {metric['bound']:.0%})  {word}"
            )
    return 1 if regressed else 0
