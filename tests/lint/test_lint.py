"""replint: each checker fires its exact rule IDs on seeded fixtures."""

import os
import subprocess
import sys

from repro.lint import RULES, lint_paths, lint_sources, load_source
from repro.lint.engine import logical_path

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def fixture(name, logical):
    return load_source(os.path.join(FIXTURES, name), logical=logical)


def fired(violations):
    return [(v.rule, v.line) for v in violations]


class TestMutationDiscipline:
    def test_rogue_writes_fire_exact_rules_and_lines(self):
        violations = lint_sources([fixture("mutation.py", "core/rogue.py")])
        assert fired(violations) == [
            ("L101", 5),
            ("L102", 9),
            ("L102", 10),
            ("L103", 14),
            # The heap primitive under set_annotations is held to the
            # same whitelist: an out-of-band tail overwrite is L101 too.
            ("L101", 22),
        ]

    def test_whitelisted_module_is_clean(self):
        violations = lint_sources([fixture("mutation.py", "core/fixup.py")])
        assert [v.rule for v in violations if v.rule == "L101"] == []


class TestDeterminism:
    def test_wall_clock_datetime_and_random_fire(self):
        violations = lint_sources([fixture("clock.py", "core/jitter.py")])
        assert fired(violations) == [
            ("L201", 6),
            ("L201", 10),
            ("L202", 14),
            ("L203", 18),
        ]

    def test_clock_module_is_exempt(self):
        violations = lint_sources([fixture("clock.py", "txn/clock.py")])
        assert violations == []

    def test_non_deterministic_dirs_are_exempt(self):
        violations = lint_sources([fixture("clock.py", "workload/gen.py")])
        assert violations == []


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


class TestLockOrder:
    def test_inversion_and_unknown_level(self):
        violations = lint_sources([fixture("locks.py", "txn/rogue.py")])
        # The inverted pair (row -> table, line 6) against the correct
        # pair (table -> row, line 15) also forms a global acquisition
        # cycle, so the whole-program L602 fires at both edges.
        assert fired(violations) == [
            ("L401", 6),
            ("L602", 6),
            ("L402", 10),
            ("L602", 15),
        ]

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


class TestEngine:
    def test_logical_path_anchors_at_repro(self):
        assert logical_path("src/repro/core/fixup.py") == "core/fixup.py"
        assert logical_path("/a/b/repro/table.py") == "table.py"
        assert logical_path("elsewhere/module.py") == "module.py"

    def test_every_rule_id_is_documented(self):
        assert set(RULES) == {
            "L101", "L102", "L103",
            "L201", "L202", "L203",
            "L305",
            "L401", "L402", "L404",
            "L501", "L502",
            "L601", "L602", "L603",
        }

    def test_clean_tree_has_no_violations(self):
        assert lint_paths([os.path.join(REPO_ROOT, "src")]) == []

    def test_cli_exit_codes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        clean = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        dirty = subprocess.run(
            [sys.executable, "-m", "repro.lint", FIXTURES],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1
        assert "L501" in dirty.stdout
