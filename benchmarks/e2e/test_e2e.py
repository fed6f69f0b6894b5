"""Self-test of the end-to-end benchmark at N = 2000 and 3 rounds.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from benchmarks.e2e import history

sys.path.insert(0, os.path.join(history.REPO_ROOT, "src"))

from benchmarks.e2e import cli, runner, trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

SMALL = {w.name: dataclasses.replace(w, rows=2000) for w in WORKLOADS}
ROUNDS = 3


def test_corrupted_receiver_fails_rounds():
    bench = runner.Bench(SMALL["sparse_uniform"], seed=7)
    bench.setup()
    bench.site.corrupt_receiver("solo")
    bench.measure(rounds=ROUNDS)
    assert bench.attempted == ROUNDS
    assert bench.failed > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_for_a_seed_and_differ_across_seeds(name):
    first = runner.run(SMALL[name], seed=5, rounds=ROUNDS)
    again = runner.run(SMALL[name], seed=5, rounds=ROUNDS)
    other = runner.run(SMALL[name], seed=6, rounds=ROUNDS)
    assert first.failed == again.failed == other.failed == 0
    assert first.counts == again.counts
    assert first.counts != other.counts
    bytes_per_op = [
        bench.end_to_end()["wire_bytes_per_op"][0] for bench in (first, again, other)
    ]
    assert bytes_per_op[0] == bytes_per_op[1] != bytes_per_op[2]


@pytest.mark.parametrize("name", ["churn_fanout", "online_writers"])
def test_trace_self_times_partition_the_root_span(name, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "RESULTS_DIR", str(tmp_path))
    bench = runner.run(SMALL[name], seed=5, trace=True, rounds=4)
    with open(bench.write_trace(), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    roots = {s["refresh"]: s["busy"] for s in spans if s["parent"] is None}
    assert len(roots) == 2  # rounds alternate: half are traced
    for refresh, per_name in trace.self_times(spans).items():
        assert all(own >= -1e-9 for own in per_name.values()), per_name
        assert sum(per_name.values()) == pytest.approx(roots[refresh], rel=1e-9)
    layers = bench.per_layer()
    parts = sum(
        layers[key][0]
        for key in (
            "differential.scan_self_ms", "wire.encode_self_ms",
            "wire.decode_self_ms", "snapshot.stage_self_ms",
            "snapshot.commit_self_ms",
        )
    )
    assert parts == pytest.approx(layers["manager.refresh_ms"][0], rel=0.01)


def test_names_match_the_contract(capsys, monkeypatch, tmp_path):
    contract = history.load_contract()
    assert [w["name"] for w in contract["workloads"]] == [w.name for w in WORKLOADS]
    assert contract["paths"] == ["benchmarks/e2e"]
    monkeypatch.setattr(cli, "BY_NAME", SMALL)
    monkeypatch.setattr(runner, "RESULTS_DIR", str(tmp_path))
    for mode, key in (("0", "end_to_end"), ("1", "per_layer")):
        assert cli.main(
            ["--workload", "hot_clustered", "--rounds", "3", "--trace", mode]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] == 3
        declared = {m["name"]: m["unit"] for m in contract[key]}
        measured = {n: r["unit"] for n, r in result["metrics"].items()}
        assert measured == declared
        printed = {
            line.split()[0] for line in lines[:-1] if not line.startswith("#")
        }
        assert printed == {f"hot_clustered.{n}" for n in declared} | {
            "hot_clustered.failed_share"
        }
