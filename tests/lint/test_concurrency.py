"""L6 concurrency pass + L502 stale suppressions: fixtures, regression
on the real tree, guard-deletion sensitivity, CLI flags, and the timing
budget that keeps the whole-program pass in tier-1.
"""

import ast
import json
import os
import subprocess
import sys
import time

from repro.lint import lint_paths, lint_sources, load_source
from repro.lint.engine import SourceFile, collect_sources

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def fixture(name, logical):
    return load_source(os.path.join(FIXTURES, name), logical=logical)


def fired(violations):
    return [(v.rule, v.line) for v in violations]


class TestLocksetConsistency:
    def test_unguarded_multi_root_mutations_fire(self):
        violations = lint_sources(
            [fixture("conc_lockset.py", "storage/rogue.py")]
        )
        assert fired(violations) == [("L601", 31), ("L601", 32)]

    def test_justified_suppression_holds_and_is_not_stale(self):
        violations = lint_sources(
            [fixture("conc_lockset.py", "storage/rogue.py")]
        )
        # pin_waived's mutation is suppressed — and because L601 really
        # fires there, the suppression is live (no L502 either).
        assert all(v.line not in (37,) for v in violations)
        assert all(v.rule != "L502" for v in violations)


class TestLockOrderCycles:
    def test_cross_function_cycle_fires_where_l401_cannot(self):
        violations = lint_sources([fixture("conc_order.py", "txn/rogue.py")])
        # No single function inverts the order, so per-site L401 is
        # silent; the global graph still has table -> row -> table.
        assert fired(violations) == [("L602", 17), ("L602", 27)]

    def test_chunk_hook_reacquisition_edges(self):
        violations = lint_sources([fixture("conc_chunk.py", "core/rogue.py")])
        assert fired(violations) == [("L602", 17), ("L602", 22)]
        assert "buffer_mutex" in violations[0].message
        assert "table" in violations[0].message


class TestThreadEscape:
    def test_locked_publication_is_still_an_escape(self):
        violations = lint_sources([fixture("conc_escape.py", "core/rogue.py")])
        # The store happens under the registry lock (no L601) — the
        # escape of worker-local state is the defect.
        assert fired(violations) == [("L603", 28)]
        assert "RefreshCursor" in violations[0].message


class TestStaleSuppressions:
    def test_dead_named_and_blanket_suppressions_fire(self):
        violations = lint_sources([fixture("stale.py", "core/checks.py")])
        assert fired(violations) == [("L502", 5), ("L502", 14)]

    def test_filtered_runs_do_not_judge_unrun_rules(self):
        violations = lint_sources(
            [fixture("stale.py", "core/checks.py")], rules=["L6"]
        )
        assert violations == []

    def test_docstring_mention_is_not_a_suppression(self):
        text = (
            '"""Mentions # replint: ignore[L501] in prose only."""\n'
            "def f(flag):\n"
            "    assert flag\n"
        )
        source = SourceFile("doc.py", "core/doc.py", text, ast.parse(text))
        violations = lint_sources([source])
        assert fired(violations) == [("L501", 3)]


def _degraded_tree(logical, old, new):
    """The real src tree with ``old`` -> ``new`` applied to one module."""
    sources = collect_sources([SRC])
    out = []
    replaced = False
    for source in sources:
        if source.logical == logical:
            assert old in source.text, f"{old!r} not found in {logical}"
            text = source.text.replace(old, new)
            out.append(
                SourceFile(source.path, source.logical, text, ast.parse(text))
            )
            replaced = True
        else:
            out.append(source)
    assert replaced, logical
    return out


class TestRealTree:
    def test_src_is_l6xx_clean(self):
        assert lint_paths([SRC], rules=["L6"]) == []

    def test_src_has_no_stale_suppressions(self):
        assert [v for v in lint_paths([SRC]) if v.rule == "L502"] == []

    def test_deleting_registry_guard_fires_l601(self):
        violations = lint_sources(
            _degraded_tree("core/registry.py", "with self._lock:", "if True:"),
            rules=["L601"],
        )
        assert any(
            v.rule == "L601" and v.path.endswith("core/registry.py")
            for v in violations
        )

    def test_deleting_buffer_guard_fires_l601(self):
        violations = lint_sources(
            _degraded_tree("storage/buffer.py", "with self._mutex:", "if True:"),
            rules=["L601"],
        )
        assert any(
            v.rule == "L601" and v.path.endswith("storage/buffer.py")
            for v in violations
        )

    def test_whole_program_pass_meets_timing_budget(self):
        started = time.monotonic()
        lint_paths([SRC], rules=["L6"])
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"concurrency pass took {elapsed:.2f}s"


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_list_rules(self):
        result = _cli("--list-rules")
        assert result.returncode == 0
        for rule in ("L101", "L502", "L601", "L602", "L603"):
            assert rule in result.stdout

    def test_list_rules_filtered_json(self):
        result = _cli("--list-rules", "--rules", "L6", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert sorted(payload["rules"]) == ["L601", "L602", "L603"]

    def test_rules_filter_clean_tree_exit_zero(self):
        result = _cli("src", "--rules", "L6")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_rules_filter_dirty_fixture_exit_one(self):
        result = _cli(
            os.path.join("tests", "lint", "fixtures", "conc_chunk.py"),
            "--rules",
            "L6",
        )
        assert result.returncode == 1
        assert "L602" in result.stdout

    def test_json_output_and_budget_pass(self):
        result = _cli("src", "--rules", "L6", "--json", "--budget", "10")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["count"] == 0
        assert payload["violations"] == []
        assert payload["over_budget"] is False
        assert payload["elapsed_seconds"] < 10

    def test_budget_overrun_fails_even_when_clean(self):
        result = _cli("src", "--rules", "L6", "--budget", "0.000001")
        assert result.returncode == 1
        assert "over the" in result.stderr
