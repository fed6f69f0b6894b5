"""The replint engine: file collection, suppression, and checker driving.

A :class:`SourceFile` pairs a parsed AST with the file's *logical path* —
its location relative to the ``repro`` package root (``core/fixup.py``,
``table.py``) — because every repo-specific rule is scoped by module, not
by filesystem layout.  Tests lint fixture files by loading them with an
explicit logical path, so a fixture in ``tests/lint/fixtures`` can be
checked as if it lived in ``core/``.

Suppression: a line ending in ``# replint: ignore[L501]`` (or a
comma-separated rule list, or no bracket to ignore every rule) is exempt
from the named rules on that line.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)


class Violation:
    """One rule firing at one source location."""

    __slots__ = ("rule", "path", "line", "col", "message")

    def __init__(
        self, rule: str, path: str, line: int, col: int, message: str
    ) -> None:
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def __repr__(self) -> str:
        return f"Violation({self.format()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Violation):
            return NotImplemented
        return (
            self.rule == other.rule
            and self.path == other.path
            and self.line == other.line
            and self.col == other.col
            and self.message == other.message
        )

    def __hash__(self) -> int:
        return hash((self.rule, self.path, self.line, self.col))


#: Rules no comment waives: their exceptions are the modules they name.
UNWAIVABLE = frozenset({"L503"})


class SourceFile:
    """One parsed source file plus its logical (package-relative) path."""

    __slots__ = ("path", "logical", "text", "tree", "suppressions")

    def __init__(
        self, path: str, logical: str, text: str, tree: ast.Module
    ) -> None:
        self.path = path
        self.logical = logical
        self.text = text
        self.tree = tree
        #: line -> set of suppressed rule ids (empty set = all rules).
        self.suppressions: "Dict[int, Set[str]]" = _parse_suppressions(text)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None or rule in UNWAIVABLE:
            return False
        return not rules or rule in rules

    def __repr__(self) -> str:
        return f"SourceFile({self.logical})"


def _parse_suppressions(text: str) -> "Dict[int, Set[str]]":
    """Suppression directives, from *comment tokens only*.

    Tokenizing (rather than regex-scanning raw lines) keeps a docstring
    that merely mentions ``# replint: ignore[...]`` from acting — or,
    under L502, being reported — as a real suppression.  Falls back to
    the line scan if tokenization fails (the engine also lints files
    that may not parse).
    """
    out: "Dict[int, Set[str]]" = {}

    def record(lineno: int, fragment: str) -> None:
        match = _SUPPRESS_RE.search(fragment)
        if match is None:
            return
        spec = match.group("rules")
        if spec is None:
            out[lineno] = set()
        else:
            out[lineno] = {
                rule.strip() for rule in spec.split(",") if rule.strip()
            }

    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                record(token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        out.clear()
        for lineno, line in enumerate(text.splitlines(), start=1):
            record(lineno, line)
    return out


def logical_path(path: str, package_root: Optional[str] = None) -> str:
    """The module-relative path rules are scoped by.

    With ``package_root`` given, the path is taken relative to it.
    Otherwise the last ``repro`` directory component anchors the logical
    path (``src/repro/core/fixup.py`` -> ``core/fixup.py``); files
    outside any ``repro`` directory keep their basename.
    """
    normalized = path.replace(os.sep, "/")
    if package_root is not None:
        root = package_root.replace(os.sep, "/").rstrip("/")
        relative = os.path.relpath(normalized, root)
        return relative.replace(os.sep, "/")
    parts = normalized.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return parts[-1]


def load_source(
    path: str,
    logical: Optional[str] = None,
    package_root: Optional[str] = None,
) -> SourceFile:
    """Read and parse one file (raises ``SyntaxError`` on bad source)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    tree = ast.parse(text, filename=path)
    if logical is None:
        logical = logical_path(path, package_root)
    return SourceFile(path, logical, text, tree)


def collect_sources(
    paths: "Sequence[str]", package_root: Optional[str] = None
) -> "List[SourceFile]":
    """Every ``.py`` file under ``paths``, parsed, in sorted order."""
    files: "List[str]" = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name for name in dirnames if name != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        else:
            files.append(path)
    return [load_source(path, package_root=package_root) for path in files]


def _rule_matches(rule: str, prefixes: "Optional[Sequence[str]]") -> bool:
    if prefixes is None:
        return True
    return any(rule.startswith(prefix) for prefix in prefixes)


def _stale_suppressions(
    sources: "Sequence[SourceFile]",
    raw: "Sequence[Violation]",
    rules: "Optional[Sequence[str]]",
) -> "List[Violation]":
    """L502: suppression comments whose rules no longer fire.

    Judged against the *raw* (pre-suppression) findings, so a working
    suppression is never stale.  On a rule-filtered run only named
    rules that were actually active are judged; bare ``ignore``
    comments (which waive every rule) are judged only on full runs.
    An L502 can itself be waived only by naming ``L502`` explicitly —
    a bare ``ignore`` must not hide the report about itself.
    """
    fired: "Dict[tuple, Set[str]]" = {}
    for violation in raw:
        fired.setdefault((violation.path, violation.line), set()).add(
            violation.rule
        )
    out: "List[Violation]" = []
    for source in sources:
        for line, named in sorted(source.suppressions.items()):
            active = fired.get((source.path, line), set())
            if named:
                if "L502" in named:
                    continue
                judged = {
                    rule for rule in named if _rule_matches(rule, rules)
                }
                if not judged or judged & active:
                    continue
                listed = ", ".join(sorted(judged))
                message = (
                    f"stale suppression: {listed} no longer fires on "
                    f"this line"
                )
            else:
                if rules is not None or active:
                    continue
                message = (
                    "stale suppression: no rule fires on this line"
                )
            out.append(Violation("L502", source.path, line, 0, message))
    return out


def lint_sources(
    sources: "Sequence[SourceFile]",
    checkers: Optional[Iterable] = None,
    rules: "Optional[Sequence[str]]" = None,
) -> "List[Violation]":
    """Run checkers over ``sources``; suppressed findings dropped.

    ``rules`` is an optional list of rule-id prefixes (``["L2"]``,
    ``["L401", "L5"]``): only checkers owning a matching rule run, and
    only matching findings are reported.
    """
    if checkers is None:
        from repro.lint.checkers import ALL_CHECKERS

        checkers = ALL_CHECKERS
    if rules is not None:
        checkers = [
            checker
            for checker in checkers
            if any(_rule_matches(rule, rules) for rule in checker.rules)
        ]
    raw: "List[Violation]" = []
    kept: "List[Violation]" = []
    for checker in checkers:
        for source in sources:
            for violation in checker.check(source):
                if not _rule_matches(violation.rule, rules):
                    continue
                raw.append(violation)
                if not source.suppressed(violation.rule, violation.line):
                    kept.append(violation)
    if _rule_matches("L502", rules):
        kept.extend(_stale_suppressions(sources, raw, rules))
    kept.sort(key=lambda violation: (violation.path, violation.line, violation.rule))
    return kept


def lint_paths(
    paths: "Sequence[str]",
    package_root: Optional[str] = None,
    rules: "Optional[Sequence[str]]" = None,
) -> "List[Violation]":
    """Collect, parse, and lint every ``.py`` file under ``paths``."""
    return lint_sources(
        collect_sources(paths, package_root=package_root), rules=rules
    )
