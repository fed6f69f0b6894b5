"""The replint rule catalogue: repo-specific invariants as AST checks.

Each rule guards an invariant of the paper's refresh protocol that the
type system cannot express (see ``docs/invariants.md`` for the paper
sections behind them):

**L1 — annotation/summary mutation discipline**
    ``L101``  ``set_annotations`` — or the heap primitives under it,
              ``write_annotations``, ``fix_batch`` and ``stamp_named``
              — called outside the fix-up machinery.
    ``L102``  :class:`~repro.storage.summary.PageSummary` change state
              mutated outside ``storage/summary.py``.
    ``L103``  Page-summary write hooks invoked outside the heap layer.
    ``L104``  A page view built (``SlottedPage(...)``) or a heap page
              pinned (``._pin(...)``) outside the heap layer,
              ``storage/heap.py`` and ``storage/page.py``: the heap holds
              each page's free space and moves it on every write, which
              is exact only while no one else writes a page's layout.
              The sanitizer's read-only pins are the one exemption.

**L2 — determinism of the refresh core**
    ``L201``  Wall-clock read (``time.time`` & friends) outside the
              designated time base ``txn/clock.py``.
    ``L202``  ``datetime.now``/``utcnow``/``today`` in a deterministic
              module.
    ``L203``  Unseeded ``random`` use in a deterministic module.
    ``L204``  ``threading`` / ``_thread`` / ``concurrent.futures`` /
              ``multiprocessing`` imported anywhere under ``src/repro``:
              a ``Database`` and everything reached from it belongs to
              one thread, so no module carries a mutex and none may
              start a second thread: ``src/`` is single-threaded.

**L3 — wire codec (batch hot path)**
    Message-vs-codec parity needs no rule: each message class declares
    its ``TAG`` and ``LAYOUT`` once, ``net/wire.py`` builds its tables
    from those declarations at import (refusing a missing or duplicate
    tag) and interprets them, and
    ``tests/net/test_wire.py::TestEveryRegisteredMessage`` round-trips
    every registered class through both codecs.

    ``L305``  Per-field codec call (``write_uvarint``, ``_encode_value``,
              bare ``struct.pack``/``unpack`` …) inside a designated
              batch-path module: those modules promise whole-frame
              cursor work; per-field calls there are the slow path
              leaking back in.  Cold fallbacks carry an explicit
              ``# replint: ignore[L305]``.
    ``L306``  A restriction called as a function (``cursor.restriction(row)``,
              ``restriction(values)``) on the scan path —
              ``storage/batch.py``, ``core/scanpass.py``,
              ``core/cursor.py``: that is the interpreter, one closure
              walk per record; the scan asks the restriction's rendered
              qualifier through ``PageBatch.qualifying``.  The per-row
              reference (``core/per_row.py``) and the sanitizer are the
              interpreter's callers by design, and outside the rule.
    ``L307``  The per-row reference (``repro.core.per_row``) imported by
              a production refresh module — ``core/scanpass.py``,
              ``core/cursor.py``, ``core/differential.py``,
              ``core/group.py``, ``core/manager.py``.  The refresh has
              one serving path; the reference is what the tests compare
              it against, and a production import of it is a second
              path on the way back in.

**L4 — lock and layering discipline**
    ``L401``  Locks acquired against the global table-before-row order.
    ``L402``  Lock resource uses an unknown hierarchy level.
    ``L404``  Registry/cohort code (``core/registry.py``,
              ``core/cohort.py``) references manager or scheduler
              internals.  The registry is a pure scheduling data
              structure: it hands out names and takes back outcomes.  A
              registry that called into the manager could fire a refresh
              from the middle of one of its own operations — the
              re-entrancy argument assumes the dependency points one way
              only.

**L5 — runtime hygiene of library code**
    ``L501``  ``assert`` statement in library code (stripped under
              ``python -O``; raise a :mod:`repro.errors` exception).
    ``L502``  A ``# replint: ignore[...]`` suppression whose rule no
              longer fires on that line (stale suppressions rot into
              lies; this one is emitted by the engine itself).
    ``L503``  The builtin ``exec`` called outside the two plan renderers
              (``net/wirebatch.py``, ``relation/row.py``).  Generated
              code is a technique with two owners, each rendering from a
              declarative plan and audited against a generic walk; it is
              not a habit.  A suppression comment does not waive it.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence

from repro.lint.engine import SourceFile, Violation

#: The calls that write the hidden annotation fields: the fix-up
#: primitive, the in-place heap overwrite it is built on, and the two
#: heap routines a refresh pass reads a page through and repairs it
#: with.
ANNOTATION_WRITES = {
    "set_annotations",
    "write_annotations",
    "fix_batch",
    "stamp_named",
}

#: Modules allowed to write the hidden annotation fields: the table
#: (``set_annotations`` itself), the eager maintenance hook and the
#: Figure-7 fix-up passes — the standalone one, a refresh pass's and the
#: per-row reference's.
ANNOTATION_WRITERS = {
    "table.py",
    "core/eager.py",
    "core/fixup.py",
    "core/scanpass.py",
    "core/per_row.py",
}

#: The only module that may mutate PageSummary change state directly.
SUMMARY_STATE_OWNER = {"storage/summary.py"}

#: Modules allowed to call the page-summary write hooks.
SUMMARY_HOOK_CALLERS = {"storage/heap.py", "storage/summary.py", "table.py"}

#: The heap layer: the only modules that build page views or pin a
#: heap's pages (L104), so every layout write keeps the heap's free
#: spaces exact.
PAGE_VIEW_OWNERS = {"storage/heap.py", "storage/page.py"}

#: Read-only pins outside the heap layer: the sanitizer's audits.
PAGE_PIN_READERS = {"sanitize.py"}

#: PageSummary fields whose mutation is change-tracking state.
SUMMARY_STATE_FIELDS = {
    "max_ts",
    "null_slots",
    "structural_changed_at",
    "freed_slots",
    "freed_since",
    "page_version",
    "first_live_slot",
    "last_live_slot",
}

#: The page-summary maintenance entry points (heap write hooks).
SUMMARY_HOOKS = {
    "note_insert",
    "note_update",
    "note_tails",
    "note_stamps",
    "note_delete",
    "attach_summaries",
}

#: Module prefixes whose behaviour must be a function of the site clock.
DETERMINISTIC_PREFIXES = ("core/", "net/", "storage/", "txn/")

#: The designated wall-time module; everything else reads the site clock.
CLOCK_MODULES = {"txn/clock.py"}

#: Wall-clock reads the determinism rule rejects.
WALL_CLOCK_CALLS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}

DATETIME_NOW_CALLS = {"now", "utcnow", "today"}

#: Modules that start, or synchronise with, a second thread of control
#: (L204 applies to every module, not only the deterministic ones).
THREAD_MODULE_PREFIXES = (
    "threading.",
    "_thread.",
    "concurrent.futures.",
    "multiprocessing.",
)

#: Lock hierarchy: a level may only be acquired before strictly deeper
#: levels within one function body.
LOCK_LEVELS = {"table": 0, "row": 1}

#: The registry layer (L404): pure scheduling state — it must not reach
#: back into the orchestration layer above.
REGISTRY_ISOLATED_MODULES = {"core/registry.py", "core/cohort.py"}

#: The orchestration modules registry code must not import.
REGISTRY_FORBIDDEN_IMPORTS = {"repro.core.manager", "repro.core.scheduler"}

#: Orchestration names registry code must not reference.
REGISTRY_FORBIDDEN_NAMES = {
    "SnapshotManager",
    "RefreshScheduler",
    "ScheduleEntry",
    "Snapshot",
    "FleetDrainResult",
}

#: The plan renderers: the only modules that may run generated source.
EXEC_OWNERS = {"net/wirebatch.py", "relation/row.py"}

RULES = {
    "L101": "annotation write outside the annotation-writer whitelist",
    "L102": "PageSummary change state mutated outside storage/summary.py",
    "L103": "page-summary write hook called outside the heap layer",
    "L104": "page view built or heap page pinned outside the heap layer",
    "L201": "wall-clock read outside txn/clock.py in a deterministic module",
    "L202": "datetime.now/utcnow/today in a deterministic module",
    "L203": "unseeded random use in a deterministic module",
    "L204": "thread or process machinery imported into single-threaded src/",
    "L305": "per-field codec call inside a designated batch-path module",
    "L306": "restriction interpreted per record on the scan path",
    "L307": "per-row reference imported by a production refresh module",
    "L401": "lock acquired against the global table-before-row order",
    "L402": "lock resource with an unknown hierarchy level",
    "L404": "registry/cohort module references manager/scheduler internals",
    "L501": "bare assert in library code (stripped under python -O)",
    "L502": "replint suppression whose rule no longer fires on that line",
    "L503": "builtin exec called outside the two plan renderers",
}


class Checker:
    """Base: ``check`` runs once per source file."""

    rules: "Sequence[str]" = ()

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        raise NotImplementedError


def _is_deterministic_module(logical: str) -> bool:
    return logical.startswith(DETERMINISTIC_PREFIXES)


class MutationDisciplineChecker(Checker):
    """L1: annotation, page-summary and page-layout writes stay in their
    owners."""

    rules = ("L101", "L102", "L103", "L104")

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        logical = source.logical
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and logical not in PAGE_VIEW_OWNERS:
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "SlottedPage" or (
                    name == "_pin"
                    and isinstance(func, ast.Attribute)
                    and logical not in PAGE_PIN_READERS
                ):
                    yield Violation(
                        "L104",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        f"{name}() outside {sorted(PAGE_VIEW_OWNERS)}: the "
                        "heap holds each page's free space, exact only "
                        "while every layout write goes through it",
                    )
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                if attr in ANNOTATION_WRITES and logical not in ANNOTATION_WRITERS:
                    yield Violation(
                        "L101",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        f"{attr} may only be called from "
                        f"{sorted(ANNOTATION_WRITERS)} (TimeStamp/PrevAddr "
                        "are owned by the fix-up machinery)",
                    )
                elif attr in SUMMARY_HOOKS and logical not in SUMMARY_HOOK_CALLERS:
                    yield Violation(
                        "L103",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        f"page-summary hook {attr}() may only be called from "
                        f"{sorted(SUMMARY_HOOK_CALLERS)}",
                    )
                elif (
                    attr in ("add", "discard", "remove", "clear", "update")
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "null_slots"
                    and logical not in SUMMARY_STATE_OWNER
                ):
                    yield Violation(
                        "L102",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        "null_slots may only be mutated inside "
                        "storage/summary.py",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if logical in SUMMARY_STATE_OWNER:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in SUMMARY_STATE_FIELDS
                        and not (
                            isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        )
                    ):
                        yield Violation(
                            "L102",
                            source.path,
                            node.lineno,
                            node.col_offset,
                            f"PageSummary.{target.attr} may only be mutated "
                            "inside storage/summary.py",
                        )


def _imports_threads(node: ast.AST) -> bool:
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return False
    module = getattr(node, "module", None)
    prefix = f"{module}." if module else ""
    return any(
        f"{prefix}{alias.name}.".startswith(THREAD_MODULE_PREFIXES)
        for alias in node.names
    )


class DeterminismChecker(Checker):
    """L2: core/net/storage/txn are functions of the site clock, and all
    of ``src/repro`` runs on one thread."""

    rules = ("L201", "L202", "L203", "L204")

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        logical = source.logical
        clocked = _is_deterministic_module(logical) and logical not in CLOCK_MODULES
        for node in ast.walk(source.tree):
            if _imports_threads(node):
                yield Violation(
                    "L204",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    "src/ is single-threaded",
                )
            if not clocked:
                continue
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in WALL_CLOCK_CALLS:
                            yield Violation(
                                "L201",
                                source.path,
                                node.lineno,
                                node.col_offset,
                                f"wall-clock import time.{alias.name}; read "
                                "the site clock (txn/clock.py) instead",
                            )
                elif node.module == "random":
                    yield Violation(
                        "L203",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        "random import in a deterministic module; derive "
                        "jitter from the site clock (see net/retry.py)",
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                base = node.func.value
                attr = node.func.attr
                if isinstance(base, ast.Name):
                    if base.id == "time" and attr in WALL_CLOCK_CALLS:
                        yield Violation(
                            "L201",
                            source.path,
                            node.lineno,
                            node.col_offset,
                            f"wall-clock call time.{attr}(); read the site "
                            "clock (txn/clock.py) instead",
                        )
                    elif (
                        base.id in ("datetime", "date")
                        and attr in DATETIME_NOW_CALLS
                    ):
                        yield Violation(
                            "L202",
                            source.path,
                            node.lineno,
                            node.col_offset,
                            f"{base.id}.{attr}() in a deterministic module; "
                            "read the site clock (txn/clock.py) instead",
                        )
                    elif base.id == "random":
                        if attr != "Random" or not (node.args or node.keywords):
                            yield Violation(
                                "L203",
                                source.path,
                                node.lineno,
                                node.col_offset,
                                f"unseeded random.{attr}() in a deterministic "
                                "module; derive jitter from the site clock",
                            )
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr in ("datetime", "date")
                    and attr in DATETIME_NOW_CALLS
                ):
                    yield Violation(
                        "L202",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        f"datetime.{base.attr}.{attr}() in a deterministic "
                        "module; read the site clock (txn/clock.py) instead",
                    )


#: Modules that promise whole-frame/whole-page cursor work: their hot
#: paths must not fall back to per-field codec calls.
BATCH_PATH_MODULES = {"net/wirebatch.py", "storage/batch.py"}

#: Per-field codec entry points banned inside batch-path modules.
PER_FIELD_CODEC_CALLS = {
    "write_uvarint",
    "write_svarint",
    "read_uvarint",
    "read_svarint",
    "_encode_value",
    "_decode_value",
}

#: ``struct`` module calls that encode/decode one field at a time when
#: written without a precompiled ``Struct`` (whole-directory unpacks
#: through a precompiled ``Struct`` object are the idiom; bare
#: ``struct.pack(...)`` per field is the slow path).
PER_FIELD_STRUCT_CALLS = {"pack", "pack_into", "unpack", "unpack_from"}


class BatchPathChecker(Checker):
    """L305: batch-path modules stay vectorized.

    ``net/wirebatch.py`` and ``storage/batch.py`` exist to replace
    per-field encode/decode calls with one flat cursor per frame (or
    one directory walk per page).  A per-field call creeping back into
    them silently reverts the hot path to per-message speed, which no
    byte-identity test can catch — only a throughput regression would.
    Deliberate cold fallbacks (exotic column types) carry
    ``# replint: ignore[L305]``.
    """

    rules = ("L305",)

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        if source.logical not in BATCH_PATH_MODULES:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in PER_FIELD_CODEC_CALLS:
                yield Violation(
                    "L305",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"per-field codec call {name}() in a batch-path module; "
                    "use the flat-cursor fast path (or mark a deliberate "
                    "cold fallback with replint: ignore[L305])",
                )
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "struct"
                and func.attr in PER_FIELD_STRUCT_CALLS
            ):
                yield Violation(
                    "L305",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"bare struct.{func.attr}() in a batch-path module; "
                    "precompile a Struct for the whole span instead",
                )


#: The scan path: modules that must qualify records through a
#: restriction's rendered qualifier, never its interpreter.
SCAN_PATH_MODULES = {"storage/batch.py", "core/scanpass.py", "core/cursor.py"}


class ScanPathChecker(Checker):
    """L306: the scan path does not call a restriction's interpreter.

    ``Restriction.__call__`` walks the compiled closure tree over one
    decoded row; the scan qualifies a page's records with one call of
    the rendered qualifier (``PageBatch.qualifying``).  A call of
    ``<anything>.restriction(...)`` or of a name ``restriction`` in a
    scan-path module is the interpreter creeping back in, which no
    stream-identity test can catch — only a slower visit would.
    """

    rules = ("L306",)

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        if source.logical not in SCAN_PATH_MODULES:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "restriction") or (
                isinstance(func, ast.Attribute) and func.attr == "restriction"
            ):
                yield Violation(
                    "L306",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    "restriction interpreted on the scan path; qualify "
                    "through PageBatch.qualifying (the rendered qualifier)",
                )


#: The production refresh: modules that may not import the per-row
#: reference.
PRODUCTION_REFRESH_MODULES = {
    "core/scanpass.py",
    "core/cursor.py",
    "core/differential.py",
    "core/group.py",
    "core/manager.py",
}

#: The per-row reference.
REFERENCE_MODULE = "repro.core.per_row"


class ReferenceImportChecker(Checker):
    """L307: the production refresh does not import the per-row reference.

    Every page a refresh reads is served from a columnar batch;
    ``core/per_row.py`` keeps the paper's loop entry by entry only so the
    tests have something to compare that path against.  An import of it
    from a production refresh module — absolute, relative, or of the
    module from its package — is how a second serving path would come
    back, which no stream-identity test can catch.
    """

    rules = ("L307",)

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        if source.logical not in PRODUCTION_REFRESH_MODULES:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = _absolute(source.logical, node)
                modules = [module] + [
                    f"{module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(
                module == REFERENCE_MODULE
                or module.startswith(REFERENCE_MODULE + ".")
                for module in modules
            ):
                yield Violation(
                    "L307",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    "the per-row reference imported by a production refresh "
                    "module; it exists for the tests to compare against",
                )


def _absolute(logical: str, node: ast.ImportFrom) -> str:
    """The dotted module an ``import from`` names, a relative one
    resolved against the package of ``logical`` (a path under repro/)."""
    if not node.level:
        return node.module or ""
    parts = ["repro"] + logical.split("/")[:-1]
    base = parts[: len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


class LockOrderChecker(Checker):
    """L4: within any function, locks are acquired in hierarchy order."""

    rules = ("L401", "L402")

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node)

    def _check_function(
        self, source: SourceFile, func: ast.AST
    ) -> "Iterator[Violation]":
        deepest = -1
        for node in _walk_shallow(func):
            level = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "locking")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Tuple)
                and node.args[1].elts
                and isinstance(node.args[1].elts[0], ast.Constant)
                and isinstance(node.args[1].elts[0].value, str)
            ):
                resource = node.args[1].elts[0].value
                level = LOCK_LEVELS.get(resource)
                if level is None:
                    yield Violation(
                        "L402",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        f"unknown lock level {resource!r}; the global order "
                        f"knows {sorted(LOCK_LEVELS)}",
                    )
                    continue
                if level < deepest:
                    yield Violation(
                        "L401",
                        source.path,
                        node.lineno,
                        node.col_offset,
                        f"{resource!r} lock acquired after a deeper level; "
                        "the global order is table before row",
                    )
                deepest = max(deepest, level)


def _walk_shallow(func: ast.AST) -> "Iterator[ast.AST]":
    """Walk a function body in source order, skipping nested functions."""
    stack = list(reversed(getattr(func, "body", [])))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        children = list(ast.iter_child_nodes(node))
        stack.extend(reversed(children))


class RegistryIsolationChecker(Checker):
    """L404: registry/cohort modules stay below the orchestration layer.

    The registry is a pure scheduling data structure: drivers feed it
    observed operations, take cohorts out of it, and report outcomes
    back.  It never calls out, so a driver that re-enters it — a
    transaction committed from inside a scheduler-fired refresh comes
    back through the commit hook into ``observe`` — finds it between
    two complete operations.  If registry or cohort code called into the
    manager or scheduler it could fire a refresh from the middle of one
    of its own operations, and the commit hook would re-enter a
    half-updated registry.  Enforced statically — "no import of, and no
    name from, these modules" — because the failure it prevents needs an
    interleaving no test reliably reproduces.
    """

    rules = ("L404",)
    rationale = (
        "the registry hands out names and takes back outcomes; "
        "manager and scheduler internals are off-limits"
    )

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        if source.logical not in REGISTRY_ISOLATED_MODULES:
            return
        for node in ast.walk(source.tree):
            found: "List[str]" = []
            if isinstance(node, ast.Import):
                found = [
                    f"imports {alias.name}"
                    for alias in node.names
                    if alias.name in REGISTRY_FORBIDDEN_IMPORTS
                ]
            elif isinstance(node, ast.ImportFrom):
                if node.module in REGISTRY_FORBIDDEN_IMPORTS:
                    found = [f"imports from {node.module}"]
            elif isinstance(node, ast.Name):
                if node.id in REGISTRY_FORBIDDEN_NAMES:
                    found = [f"references {node.id}"]
            elif isinstance(node, ast.Attribute):
                if node.attr in REGISTRY_FORBIDDEN_NAMES:
                    found = [f"references .{node.attr}"]
            for what in found:
                yield Violation(
                    "L404",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    f"registry module {what}; {self.rationale}",
                )


class BareAssertChecker(Checker):
    """L5: runtime checks must survive ``python -O``."""

    rules = ("L501",)

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assert):
                yield Violation(
                    "L501",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    "assert is stripped under python -O; raise a "
                    "repro.errors exception for runtime checks",
                )


class ExecChecker(Checker):
    """L5: generated code stays with the modules that own a plan."""

    rules = ("L503",)

    def check(self, source: SourceFile) -> "Iterator[Violation]":
        if source.logical in EXEC_OWNERS:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "exec") or (
                isinstance(func, ast.Attribute)
                and func.attr == "exec"
                and isinstance(func.value, ast.Name)
                and func.value.id == "builtins"
            ):
                yield Violation(
                    "L503",
                    source.path,
                    node.lineno,
                    node.col_offset,
                    "exec outside the plan renderers ("
                    + ", ".join(sorted(EXEC_OWNERS))
                    + "); render from a declared plan there or write the code out",
                )


ALL_CHECKERS: "List[Checker]" = [
    MutationDisciplineChecker(),
    DeterminismChecker(),
    BatchPathChecker(),
    ScanPathChecker(),
    ReferenceImportChecker(),
    LockOrderChecker(),
    RegistryIsolationChecker(),
    BareAssertChecker(),
    ExecChecker(),
]
