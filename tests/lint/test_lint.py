"""replint: each checker fires its exact rule IDs on seeded fixtures."""

import ast
import json
import os
import subprocess
import sys

from repro.lint import RULES, lint_paths, lint_sources, load_source
from repro.lint.engine import SourceFile, logical_path

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def fixture(name, logical):
    return load_source(os.path.join(FIXTURES, name), logical=logical)


def fired(violations):
    return [(v.rule, v.line) for v in violations]


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


class TestMutationDiscipline:
    def test_rogue_writes_fire_exact_rules_and_lines(self):
        # The refresh cursor decides what to send; only the pass repairs.
        for logical in ("core/rogue.py", "core/cursor.py"):
            violations = lint_sources([fixture("mutation.py", logical)])
            assert fired(violations) == [
                ("L101", 5),
                ("L102", 9),
                ("L102", 10),
                ("L103", 14),
                # The heap primitive under set_annotations is held to the
                # same whitelist: an out-of-band tail overwrite is L101 too.
                ("L101", 22),
                # So is the pass's route: a page read with its repairs.
                ("L101", 26),
            ], logical

    def test_whitelisted_module_is_clean(self):
        for logical in ("core/fixup.py", "core/scanpass.py", "core/eager.py"):
            violations = lint_sources([fixture("mutation.py", logical)])
            assert [v.rule for v in violations if v.rule == "L101"] == []


class TestPageViews:
    def test_views_and_pins_fire_outside_the_heap_layer(self):
        for logical in ("core/rogue.py", "core/scanpass.py", "table.py"):
            violations = lint_sources([fixture("pageview.py", logical)])
            assert fired(violations) == [
                ("L104", 8),
                ("L104", 9),
                ("L104", 10),
            ], logical

    def test_the_sanitizer_may_pin_but_builds_no_view(self):
        violations = lint_sources([fixture("pageview.py", "sanitize.py")])
        assert fired(violations) == [("L104", 8), ("L104", 9)]

    def test_the_heap_layer_is_exempt(self):
        for logical in ("storage/heap.py", "storage/page.py"):
            violations = lint_sources([fixture("pageview.py", logical)])
            assert fired(violations) == [], logical


class TestDeterminism:
    # The wall-clock rules stop at the deterministic modules; the
    # one-thread rule (L204) holds in every module under src/repro.
    THREAD_IMPORTS = [("L204", 26), ("L204", 27), ("L204", 28), ("L204", 29)]

    def test_wall_clock_datetime_and_random_fire(self):
        violations = lint_sources([fixture("clock.py", "core/jitter.py")])
        assert fired(violations) == [
            ("L201", 6),
            ("L201", 10),
            ("L202", 14),
            ("L203", 18),
        ] + self.THREAD_IMPORTS

    def test_clock_module_is_exempt(self):
        violations = lint_sources([fixture("clock.py", "txn/clock.py")])
        assert fired(violations) == self.THREAD_IMPORTS

    def test_non_deterministic_dirs_are_exempt(self):
        violations = lint_sources([fixture("clock.py", "workload/gen.py")])
        assert fired(violations) == self.THREAD_IMPORTS


class TestBatchPath:
    def test_per_field_calls_fire_in_batch_modules(self):
        violations = lint_sources(
            [fixture("batchpath.py", "net/wirebatch.py")]
        )
        assert fired(violations) == [
            ("L305", 6),
            ("L305", 7),
            ("L305", 8),
            ("L305", 9),
            ("L305", 10),
        ]

    def test_storage_batch_is_also_designated(self):
        violations = lint_sources(
            [fixture("batchpath.py", "storage/batch.py")]
        )
        assert [v.rule for v in violations] == ["L305"] * 5

    def test_other_modules_are_exempt(self):
        violations = lint_sources([fixture("batchpath.py", "net/wire.py")])
        # L305 does not apply outside batch modules — which makes the
        # fixture's cold-fallback suppression itself stale (L502).
        assert fired(violations) == [("L502", 15)]


class TestScanPath:
    def test_interpreter_calls_fire_on_the_scan_path(self):
        for logical in ("storage/batch.py", "core/scanpass.py", "core/cursor.py"):
            violations = lint_sources([fixture("scanpath.py", logical)])
            assert fired(violations) == [("L306", 5), ("L306", 9)], logical

    def test_the_oracle_and_the_sanitizer_are_exempt(self):
        for logical in ("core/per_row.py", "sanitize.py"):
            violations = lint_sources([fixture("scanpath.py", logical)])
            assert fired(violations) == [], logical


class TestReferenceImport:
    PRODUCTION = (
        "core/scanpass.py",
        "core/cursor.py",
        "core/differential.py",
        "core/group.py",
        "core/manager.py",
    )

    def test_every_form_of_the_import_fires_in_production_modules(self):
        for logical in self.PRODUCTION:
            violations = lint_sources([fixture("refimport.py", logical)])
            assert fired(violations) == [
                ("L307", 3),
                ("L307", 4),
                ("L307", 5),
                ("L307", 6),
                ("L307", 7),
            ], logical

    def test_the_reference_and_its_tests_are_exempt(self):
        for logical in ("core/per_row.py", "core/fixup.py", "sanitize.py"):
            violations = lint_sources([fixture("refimport.py", logical)])
            assert fired(violations) == [], logical


class TestLockOrder:
    def test_inversion_and_unknown_level(self):
        violations = lint_sources([fixture("locks.py", "txn/rogue.py")])
        assert fired(violations) == [("L401", 6), ("L402", 10)]

    def test_per_site_rules_alone_match_the_old_behavior(self):
        violations = lint_sources(
            [fixture("locks.py", "txn/rogue.py")], rules=["L40"]
        )
        assert fired(violations) == [("L401", 6), ("L402", 10)]


class TestRegistryIsolation:
    def test_manager_references_fire_in_registry_modules(self):
        for logical in ("core/registry.py", "core/cohort.py"):
            violations = lint_sources([fixture("registryiso.py", logical)])
            assert fired(violations) == [
                ("L404", 2),
                ("L404", 3),
                ("L404", 7),
                ("L404", 8),
                ("L404", 9),
            ], logical

    def test_other_modules_are_exempt(self):
        violations = lint_sources(
            [fixture("registryiso.py", "core/manager.py")]
        )
        assert [v.rule for v in violations] == []


class TestBareAssert:
    def test_assert_fires_and_suppressions_hold(self):
        violations = lint_sources([fixture("asserts.py", "core/checks.py")])
        assert fired(violations) == [("L501", 5)]


class TestExecOwners:
    def test_exec_fires_and_no_comment_waives_it(self):
        violations = lint_sources([fixture("execs.py", "core/rogue.py")])
        assert fired(violations) == [("L503", 6), ("L503", 11), ("L503", 15)]

    def test_the_two_plan_renderers_are_exempt(self):
        for logical in ("net/wirebatch.py", "relation/row.py"):
            violations = lint_sources([fixture("execs.py", logical)])
            # Exempt, so the fixture's own waiver has nothing to waive.
            assert fired(violations) == [("L502", 11)], logical


class TestEngine:
    def test_logical_path_anchors_at_repro(self):
        assert logical_path("src/repro/core/fixup.py") == "core/fixup.py"
        assert logical_path("/a/b/repro/table.py") == "table.py"
        assert logical_path("elsewhere/module.py") == "module.py"

    def test_every_rule_id_is_documented(self):
        assert set(RULES) == {
            "L101", "L102", "L103", "L104",
            "L201", "L202", "L203", "L204",
            "L305", "L306", "L307",
            "L401", "L402", "L404",
            "L501", "L502", "L503",
        }

    def test_clean_tree_has_no_violations(self):
        assert lint_paths([SRC]) == []

    def test_cli_exit_codes(self):
        clean = _cli("src")
        assert clean.returncode == 0, clean.stdout + clean.stderr
        dirty = _cli(FIXTURES)
        assert dirty.returncode == 1
        assert "L501" in dirty.stdout


class TestStaleSuppressions:
    def test_dead_named_and_blanket_suppressions_fire(self):
        violations = lint_sources([fixture("stale.py", "core/checks.py")])
        assert fired(violations) == [("L502", 5), ("L502", 14)]

    def test_filtered_runs_do_not_judge_unrun_rules(self):
        violations = lint_sources(
            [fixture("stale.py", "core/checks.py")], rules=["L4"]
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


class TestRealTree:
    def test_src_has_no_stale_suppressions(self):
        assert [v for v in lint_paths([SRC]) if v.rule == "L502"] == []


class TestCli:
    def test_list_rules(self):
        result = _cli("--list-rules")
        assert result.returncode == 0
        for rule in ("L101", "L204", "L404", "L502"):
            assert rule in result.stdout
        assert "L60" not in result.stdout

    def test_list_rules_filtered_json(self):
        result = _cli("--list-rules", "--rules", "L2", "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert sorted(payload["rules"]) == ["L201", "L202", "L203", "L204"]

    def test_rules_filter_clean_tree_exit_zero(self):
        result = _cli("src", "--rules", "L2")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_rules_filter_dirty_fixture_exit_one(self):
        result = _cli(
            os.path.join("tests", "lint", "fixtures", "clock.py"),
            "--rules",
            "L204",
        )
        assert result.returncode == 1
        assert "L204" in result.stdout
        assert "L501" not in result.stdout and "L502" not in result.stdout

    def test_json_output(self):
        result = _cli("src", "--rules", "L2", "--json")
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload == {"violations": [], "count": 0}
