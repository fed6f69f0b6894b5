"""CLI driver: ``python -m repro.lint [paths...]`` (default ``src``).

Flags:

``--rules PREFIX[,PREFIX...]``
    Only run rules matching the given id prefixes (repeatable), e.g.
    ``--rules L2,L401``.
``--list-rules``
    Print the rule catalogue and exit.
``--json``
    Machine-readable output: a JSON object with ``violations`` and
    ``count``.

Exit codes: 0 clean, 1 violations, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.checkers import RULES
from repro.lint.engine import lint_paths


def _parse_args(argv: "Sequence[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="replint: repo-specific invariant checks",
    )
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="PREFIX[,PREFIX...]",
        help="only run rules matching these id prefixes (e.g. L2, L401)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit machine-readable JSON instead of one line per finding",
    )
    return parser.parse_args(list(argv))


def _rule_prefixes(specs: "Optional[Sequence[str]]") -> "Optional[List[str]]":
    if specs is None:
        return None
    prefixes = [
        part.strip()
        for spec in specs
        for part in spec.split(",")
        if part.strip()
    ]
    return prefixes or None


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    rules = _rule_prefixes(args.rules)
    if args.list_rules:
        selected = {
            rule: text
            for rule, text in sorted(RULES.items())
            if rules is None or any(rule.startswith(p) for p in rules)
        }
        if args.as_json:
            print(json.dumps({"rules": selected}, indent=2))
        else:
            for rule, text in selected.items():
                print(f"{rule}  {text}")
        return 0
    try:
        violations = lint_paths(args.paths, rules=rules)
    except (OSError, SyntaxError) as exc:
        print(f"replint: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(
            json.dumps(
                {
                    "violations": [
                        {
                            "rule": v.rule,
                            "path": v.path,
                            "line": v.line,
                            "col": v.col,
                            "message": v.message,
                        }
                        for v in violations
                    ],
                    "count": len(violations),
                },
                indent=2,
            )
        )
    else:
        for violation in violations:
            print(violation.format())
    if violations:
        if not args.as_json:
            print(
                f"replint: {len(violations)} violation(s)", file=sys.stderr
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
