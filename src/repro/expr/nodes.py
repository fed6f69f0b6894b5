"""Expression AST with SQL three-valued logic and a compile step.

Every node implements:

- ``eval(row, schema)`` — interpret directly (handy for tests/REPL);
- ``compile(schema)`` — return a closure ``fn(values) -> True|False|None``
  with column positions resolved once.  ``None`` is SQL UNKNOWN.  This
  is the definition of every node's meaning;
- ``fragment(scope)`` — the same function as Python source
  (:class:`Fragment`), which :meth:`repro.expr.predicate.Restriction.qualifier`
  renders into one loop over a page's records;
- ``columns()`` — the set of referenced column names (used by the
  snapshot compiler to verify a restriction only touches base columns);
- ``sql()`` — round-trippable text form.

Truth tables follow SQL: ``UNKNOWN AND FALSE = FALSE``,
``UNKNOWN OR TRUE = TRUE``, ``NOT UNKNOWN = UNKNOWN``; any comparison or
arithmetic over NULL yields UNKNOWN/NULL.
"""

from __future__ import annotations

import re
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import EvaluationError
from repro.relation.schema import Schema
from repro.relation.types import NULL

Value = Any
Tri = Optional[bool]
Compiled = Callable[[Sequence[Value]], Tri]


class Expr:
    """Abstract expression node."""

    def eval(self, row: Sequence[Value], schema: Schema) -> Value:
        """Interpret against a row (NULL-in, NULL-out)."""
        return self.compile(schema)(row)

    def compile(self, schema: Schema) -> Compiled:
        raise NotImplementedError

    def fragment(self, scope: "Scope") -> "Fragment":
        """This node's :meth:`compile` as source; a kind that renders none
        leaves the whole restriction to the interpreter."""
        raise NotImplementedError

    def columns(self) -> "set[str]":
        raise NotImplementedError

    def sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sql()})"


class Literal(Expr):
    """A constant: number, string, boolean, or NULL."""

    def __init__(self, value: Value) -> None:
        self.value = value

    def compile(self, schema: Schema) -> Compiled:
        value = self.value
        return lambda row: value

    def fragment(self, scope: "Scope") -> "Fragment":
        value = self.value
        if value is NULL:
            return Fragment((), "_NULL", None, ("_NULL",))
        if value is None:
            return Fragment((), "None", None, ("None",))
        if isinstance(value, bool):
            return Fragment((), repr(value), bool)
        kind = type(value) if type(value) in _KINDS else None
        return Fragment((), scope.constant(value), kind)

    def columns(self) -> "set[str]":
        return set()

    def sql(self) -> str:
        if self.value is NULL:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


class ColumnRef(Expr):
    """A reference to a named column of the bound schema."""

    def __init__(self, name: str) -> None:
        self.name = name

    def compile(self, schema: Schema) -> Compiled:
        try:
            position = schema.position(self.name)
        except Exception:
            raise EvaluationError(
                f"unknown column {self.name!r}; schema has {schema.names}"
            ) from None
        return lambda row: row[position]

    def fragment(self, scope: "Scope") -> "Fragment":
        return scope.column(self.name)

    def columns(self) -> "set[str]":
        return {self.name}

    def sql(self) -> str:
        return self.name


_COMPARATORS: "dict[str, Callable[[Value, Value], bool]]" = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _comparable(a: Value, b: Value) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return type(a) is type(b)


# Each node's meaning on its evaluated operands, shared by the
# interpreter's closures and the rendered source (``fragment``).


def _incomparable(a: Value, op: str, b: Value) -> NoReturn:
    raise EvaluationError(f"cannot compare {a!r} {op} {b!r} (incompatible types)")


def _compare_values(op: str, a: Value, b: Value) -> Tri:
    """:class:`Comparison` on two evaluated operands."""
    if a is NULL or b is NULL or a is None or b is None:
        return None
    if not _comparable(a, b):
        _incomparable(a, op, b)
    return _COMPARATORS[op](a, b)


def _arithmetic_values(op: str, a: Value, b: Value) -> Value:
    """:class:`BinaryOp` on two evaluated operands, neither NULL."""
    try:
        return _ARITH[op](a, b)
    except (TypeError, ZeroDivisionError) as exc:
        raise EvaluationError(f"{a!r} {op} {b!r}: {exc}") from None


def _negate_value(value: Value) -> Value:
    """:class:`UnaryMinus` on an evaluated operand, not NULL."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"cannot negate {value!r}")
    return -value


def _like_value(regex: "re.Pattern[str]", negated: bool, value: Value) -> bool:
    """:class:`Like` on an evaluated operand, not NULL."""
    if not isinstance(value, str):
        raise EvaluationError(f"LIKE needs a string, got {value!r}")
    matched = regex.fullmatch(value) is not None
    return not matched if negated else matched


class Comparison(Expr):
    """``left OP right`` with NULL-propagating semantics."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARATORS:
            raise EvaluationError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self, schema: Schema) -> Compiled:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        op = self.op

        def run(row: Sequence[Value]) -> Tri:
            return _compare_values(op, left(row), right(row))

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        left, right = self.left.fragment(scope), self.right.fragment(scope)
        if left.kind is None or right.kind is None:
            lines, (a, b) = scope.operands((left, right), (False, False))
            code = f"_compare({self.op!r}, {a}, {b})"
            return Fragment(lines, code, None, ("None",))
        # Both evaluated before a NULL test decides: either may raise.
        nullable = bool(left.nulls or right.nulls)
        lines, (a, b) = scope.operands((left, right), (nullable, nullable))
        if _comparable_kinds(left.kind, right.kind):
            value = f"{a} {_PYTHON_COMPARATORS[self.op]} {b}"
        else:
            value = f"_incomparable({a}, {self.op!r}, {b})"
        nulls = _null_tests(a, left.nulls) + _null_tests(b, right.nulls)
        return _unless(lines, nulls, "None", value, bool)

    def columns(self) -> "set[str]":
        return self.left.columns() | self.right.columns()

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


_ARITH: "dict[str, Callable[[Value, Value], Value]]" = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


class BinaryOp(Expr):
    """Arithmetic (``+ - * / %``); string ``+`` concatenates."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH:
            raise EvaluationError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self, schema: Schema) -> Compiled:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        op = self.op

        def run(row: Sequence[Value]) -> Value:
            a = left(row)
            b = right(row)
            if a is NULL or b is NULL or a is None or b is None:
                return NULL
            return _arithmetic_values(op, a, b)

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        left, right = self.left.fragment(scope), self.right.fragment(scope)
        nullable = bool(left.nulls or right.nulls)
        lines, (a, b) = scope.operands((left, right), (nullable, nullable))
        kind = _arithmetic_kind(self.op, left.kind, right.kind)
        if kind is not None and self.op in "+-*":
            # Raises neither TypeError nor ZeroDivisionError here.
            value = f"{a} {self.op} {b}"
        else:
            value = f"_arithmetic({self.op!r}, {a}, {b})"
        nulls = _null_tests(a, left.nulls) + _null_tests(b, right.nulls)
        return _unless(lines, nulls, "_NULL", value, kind)

    def columns(self) -> "set[str]":
        return self.left.columns() | self.right.columns()

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class UnaryMinus(Expr):
    """Numeric negation."""

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def compile(self, schema: Schema) -> Compiled:
        inner = self.operand.compile(schema)

        def run(row: Sequence[Value]) -> Value:
            value = inner(row)
            if value is NULL or value is None:
                return NULL
            return _negate_value(value)

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        operand = self.operand.fragment(scope)
        lines, (v,) = scope.operands((operand,), (bool(operand.nulls),))
        if operand.kind is int or operand.kind is float:
            value, kind = f"-{v}", operand.kind
        else:
            value, kind = f"_negate({v})", None
        return _unless(lines, _null_tests(v, operand.nulls), "_NULL", value, kind)

    def columns(self) -> "set[str]":
        return self.operand.columns()

    def sql(self) -> str:
        return f"-{self.operand.sql()}"


class And(Expr):
    """SQL AND (UNKNOWN-aware, short-circuiting on FALSE)."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def compile(self, schema: Schema) -> Compiled:
        left = self.left.compile(schema)
        right = self.right.compile(schema)

        def run(row: Sequence[Value]) -> Tri:
            a = left(row)
            if a is False:
                return False
            b = right(row)
            if b is False:
                return False
            if a is None or a is NULL or b is None or b is NULL:
                return None
            return bool(a) and bool(b)

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        return _connective(scope, self.left, self.right, False)

    def columns(self) -> "set[str]":
        return self.left.columns() | self.right.columns()

    def sql(self) -> str:
        return f"({self.left.sql()} AND {self.right.sql()})"


class Or(Expr):
    """SQL OR (UNKNOWN-aware, short-circuiting on TRUE)."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def compile(self, schema: Schema) -> Compiled:
        left = self.left.compile(schema)
        right = self.right.compile(schema)

        def run(row: Sequence[Value]) -> Tri:
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            if a is None or a is NULL or b is None or b is NULL:
                return None
            return bool(a) or bool(b)

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        return _connective(scope, self.left, self.right, True)

    def columns(self) -> "set[str]":
        return self.left.columns() | self.right.columns()

    def sql(self) -> str:
        return f"({self.left.sql()} OR {self.right.sql()})"


class Not(Expr):
    """SQL NOT: NOT UNKNOWN = UNKNOWN."""

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def compile(self, schema: Schema) -> Compiled:
        inner = self.operand.compile(schema)

        def run(row: Sequence[Value]) -> Tri:
            value = inner(row)
            if value is None or value is NULL:
                return None
            return not value

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        operand = self.operand.fragment(scope)
        lines, (v,) = scope.operands((operand,), (bool(operand.nulls),))
        nulls = _null_tests(v, operand.nulls)
        return _unless(lines, nulls, "None", f"not {v}", bool)

    def columns(self) -> "set[str]":
        return self.operand.columns()

    def sql(self) -> str:
        return f"(NOT {self.operand.sql()})"


class IsNull(Expr):
    """``expr IS [NOT] NULL`` — never UNKNOWN."""

    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def compile(self, schema: Schema) -> Compiled:
        inner = self.operand.compile(schema)
        negated = self.negated

        def run(row: Sequence[Value]) -> Tri:
            value = inner(row)
            is_null = value is NULL or value is None
            return not is_null if negated else is_null

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        operand = self.operand.fragment(scope)
        # Bound even when never NULL: evaluating it may raise.
        lines, (v,) = scope.operands((operand,), (True,))
        is_null = " or ".join(_null_tests(v, operand.nulls)) or "False"
        code = f"(not ({is_null}))" if self.negated else f"({is_null})"
        return Fragment(lines, code, bool)

    def columns(self) -> "set[str]":
        return self.operand.columns()

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.sql()} {suffix}"


class Between(Expr):
    """``expr BETWEEN lo AND hi`` (inclusive, NULL-propagating)."""

    def __init__(self, operand: Expr, lo: Expr, hi: Expr) -> None:
        self.operand = operand
        self.lo = lo
        self.hi = hi

    def compile(self, schema: Schema) -> Compiled:
        inner = self.operand.compile(schema)
        lo = self.lo.compile(schema)
        hi = self.hi.compile(schema)

        def run(row: Sequence[Value]) -> Tri:
            value = inner(row)
            a = lo(row)
            b = hi(row)
            if value is NULL or a is NULL or b is NULL:
                return None
            if value is None or a is None or b is None:
                return None
            return a <= value <= b

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        parts = (
            self.operand.fragment(scope),
            self.lo.fragment(scope),
            self.hi.fragment(scope),
        )
        # All three bound: the value reads them lo, operand, hi.
        lines, (v, a, b) = scope.operands(parts, (True, True, True))
        nulls = [
            test
            for name, part in zip((v, a, b), parts)
            for test in _null_tests(name, part.nulls)
        ]
        kind = bool if all(part.kind is not None for part in parts) else None
        return _unless(lines, nulls, "None", f"{a} <= {v} <= {b}", kind)

    def columns(self) -> "set[str]":
        return self.operand.columns() | self.lo.columns() | self.hi.columns()

    def sql(self) -> str:
        return f"{self.operand.sql()} BETWEEN {self.lo.sql()} AND {self.hi.sql()}"


class InList(Expr):
    """``expr [NOT] IN (literal, ...)`` with SQL NULL semantics."""

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated

    def compile(self, schema: Schema) -> Compiled:
        inner = self.operand.compile(schema)
        item_fns = [item.compile(schema) for item in self.items]
        negated = self.negated

        def run(row: Sequence[Value]) -> Tri:
            value = inner(row)
            if value is NULL or value is None:
                return None
            saw_null = False
            found = False
            for fn in item_fns:
                candidate = fn(row)
                if candidate is NULL or candidate is None:
                    saw_null = True
                elif _comparable(value, candidate) and value == candidate:
                    found = True
                    break
            if found:
                return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        operand = self.operand.fragment(scope)
        items = [item.fragment(scope) for item in self.items]
        lines, (v,) = scope.operands((operand,), (True,))
        found, missing = ("False", "True") if self.negated else ("True", "False")
        result = scope.temp()
        saw_null = scope.temp()
        # Built from the last item back: each item is evaluated only when
        # none before it matched, as the interpreter's loop breaks.
        body = [f"{result} = None if {saw_null} else {missing}"]
        for item in reversed(items):
            item_lines, (c,) = scope.operands((item,), (True,))
            nulls = _null_tests(c, item.nulls)
            if operand.kind is None or item.kind is None:
                match = f"_comparable({v}, {c}) and {v} == {c}"
            elif _comparable_kinds(operand.kind, item.kind):
                match = f"{v} == {c}"
            else:
                match = ""
            if nulls:
                body = [f"if {' or '.join(nulls)}:", f"    {saw_null} = True", *body]
                if match:
                    match = f"not ({' or '.join(nulls)}) and {match}"
            if match:
                body = [
                    f"if {match}:", f"    {result} = {found}", "else:", *_indent(body)
                ]
            body = [*item_lines, *body]
        body = [f"{saw_null} = False", *body]
        tests = _null_tests(v, operand.nulls)
        if tests:
            test = " or ".join(tests)
            body = [f"if {test}:", f"    {result} = None", "else:", *_indent(body)]
        return Fragment((*lines, *body), result, bool, ("None",))

    def columns(self) -> "set[str]":
        cols = self.operand.columns()
        for item in self.items:
            cols |= item.columns()
        return cols

    def sql(self) -> str:
        inner = ", ".join(item.sql() for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"{self.operand.sql()} {keyword} ({inner})"


class Like(Expr):
    """``expr [NOT] LIKE pattern`` with ``%``/``_`` wildcards."""

    def __init__(self, operand: Expr, pattern: str, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = re.compile(_like_to_regex(pattern), re.DOTALL)

    def compile(self, schema: Schema) -> Compiled:
        inner = self.operand.compile(schema)
        regex = self._regex
        negated = self.negated

        def run(row: Sequence[Value]) -> Tri:
            value = inner(row)
            if value is NULL or value is None:
                return None
            return _like_value(regex, negated, value)

        return run

    def fragment(self, scope: "Scope") -> "Fragment":
        operand = self.operand.fragment(scope)
        lines, (v,) = scope.operands((operand,), (bool(operand.nulls),))
        regex = scope.constant(self._regex)
        if operand.kind is str:
            value = f"{regex}.fullmatch({v}) is {'' if self.negated else 'not '}None"
        else:
            value = f"_like({regex}, {self.negated}, {v})"
        return _unless(lines, _null_tests(v, operand.nulls), "None", value, bool)

    def columns(self) -> "set[str]":
        return self.operand.columns()

    def sql(self) -> str:
        escaped = self.pattern.replace("'", "''")
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand.sql()} {keyword} '{escaped}'"


def _like_to_regex(pattern: str) -> str:
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return "".join(parts)


# --------------------------------------------------------------------------
# Rendering
#
# ``fragment`` restates ``compile`` as Python source, so that a restriction
# can be rendered into one function over a page's records
# (:meth:`repro.expr.predicate.Restriction.qualifier`) instead of walking
# a closure tree per record.  Each node evaluates its operands in the
# interpreter's order, short-circuits where it does, and raises what it
# raises: where a check can fail, it calls the value functions the
# interpreter's closures call.
# What the source knows statically — the class of a column's or a
# literal's value, whether it may be NULL — only removes checks that
# could not fail.

#: The classes a fragment may know its values by: a value of any other
#: class (or of a class not known until run time) goes to the helpers.
_KINDS = (bool, int, float, str)

_PYTHON_COMPARATORS = {
    "=": "==",
    "<>": "!=",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


class Fragment(NamedTuple):
    """A node's value as Python source.

    ``lines`` are statements to run first — the operands' evaluation, in
    the interpreter's order — after which the expression ``code`` is the
    value.  ``kind`` is the class of every non-null value when it is one
    of :data:`_KINDS` (``None``: not known), and ``nulls`` the spellings
    of SQL NULL the value may take (``_NULL``, ``None``).
    """

    lines: Tuple[str, ...]
    code: str
    kind: Optional[type] = None
    nulls: Tuple[str, ...] = ()


class Scope:
    """What a rendering binds names to: each column to a local of the
    rendered function (``c<position>``, unpacked off the record by
    :func:`repro.relation.row.render_qualifier`), constants and helpers
    to :attr:`namespace`, and fresh temporaries."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.namespace: Dict[str, Any] = dict(_HELPERS)
        self._names = 0

    def column(self, name: str) -> Fragment:
        position = self.schema.position(name)  # a Restriction checked it
        column = self.schema.columns[position]
        piece = column.ctype.plan_piece()
        kind = piece.exact if piece is not None and piece.exact in _KINDS else None
        nullable = column.nullable or column.ctype.inline_null
        return Fragment((), f"c{position}", kind, ("_NULL",) if nullable else ())

    def temp(self) -> str:
        self._names += 1
        return f"_t{self._names}"

    def constant(self, value: Value) -> str:
        self._names += 1
        name = f"_k{self._names}"
        self.namespace[name] = value
        return name

    def operands(
        self, fragments: "Sequence[Fragment]", reuse: "Sequence[bool]"
    ) -> "Tuple[Tuple[str, ...], List[str]]":
        """Evaluate ``fragments`` in order: the lines to run, and an
        expression for each value.  A value is bound to a temporary when
        the caller reads it more than once (``reuse``), or when a later
        operand has lines to run first — inlined after them, it would be
        evaluated out of order."""
        lines: "List[str]" = []
        codes: "List[str]" = []
        for index, fragment in enumerate(fragments):
            lines += fragment.lines
            code = fragment.code
            later = any(after.lines for after in fragments[index + 1 :])
            if (reuse[index] or later) and not code.isidentifier():
                name = self.temp()
                lines.append(f"{name} = {code}")
                code = name
            codes.append(code)
        return tuple(lines), codes


def _comparable_kinds(a: type, b: type) -> bool:
    """:func:`_comparable` of a value of kind ``a`` and one of kind ``b``."""
    if a is bool or b is bool:
        return a is b
    if a in (int, float) and b in (int, float):
        return True
    return a is b


def _arithmetic_kind(
    op: str, a: Optional[type], b: Optional[type]
) -> Optional[type]:
    """The kind of ``a op b`` when it cannot raise TypeError, else ``None``."""
    numbers = (bool, int, float)
    if a in numbers and b in numbers:
        return float if op == "/" or float in (a, b) else int
    if a is str and b is str and op == "+":
        return str
    return None


def _null_tests(name: str, nulls: "Sequence[str]") -> "List[str]":
    return [f"{name} is {null}" for null in nulls]


def _indent(lines: "Sequence[str]") -> "List[str]":
    return ["    " + line for line in lines]


def _unless(
    lines: "Sequence[str]",
    tests: "Sequence[str]",
    null: str,
    value: str,
    kind: Optional[type],
) -> Fragment:
    """``null`` where one of ``tests`` holds, else ``value``."""
    if not tests:
        return Fragment(tuple(lines), f"({value})", kind)
    return Fragment(
        tuple(lines), f"({null} if {' or '.join(tests)} else {value})", kind, (null,)
    )


def _connective(
    scope: Scope, left_expr: Expr, right_expr: Expr, stop: bool
) -> Fragment:
    """AND (``stop`` False) or OR (``stop`` True): ``stop`` on either
    side decides, the right side evaluated only when the left did not."""
    left, right = left_expr.fragment(scope), right_expr.fragment(scope)
    word = "or" if stop else "and"
    both = left.kind is bool and right.kind is bool
    if both and not left.nulls and not right.nulls and not right.lines:
        return Fragment(left.lines, f"({left.code} {word} {right.code})", bool)
    lines, (a,) = scope.operands((left,), (True,))
    right_lines, (b,) = scope.operands((right,), (True,))
    result = scope.temp()
    nulls = _null_tests(a, left.nulls) + _null_tests(b, right.nulls)
    final = repr(not stop) if both else f"bool({a}) {word} bool({b})"
    body = [*right_lines, f"if {b} is {stop}:", f"    {result} = {stop}"]
    if nulls:
        body += [f"elif {' or '.join(nulls)}:", f"    {result} = None"]
    body += ["else:", f"    {result} = {final}"]
    lines += (
        f"if {a} is {stop}:", f"    {result} = {stop}", "else:", *_indent(body)
    )
    return Fragment(lines, result, bool, ("None",) if nulls else ())


_HELPERS: "Dict[str, Any]" = {
    "_NULL": NULL,
    "_comparable": _comparable,
    "_compare": _compare_values,
    "_incomparable": _incomparable,
    "_arithmetic": _arithmetic_values,
    "_negate": _negate_value,
    "_like": _like_value,
}


# --------------------------------------------------------------------------
# Canonicalization
#
# Two predicates that differ only in conjunct order, negated-literal
# spelling, or `!=` vs `<>` select the same rows under SQL three-valued
# logic (AND/OR are commutative and idempotent over {TRUE, FALSE,
# UNKNOWN}).  `canonicalize` rewrites an AST into one representative of
# that equivalence class so the parse memo and the cohort signature both
# key on meaning rather than spelling.  The only observable difference a
# reorder can make is *which* evaluation error fires first when two
# conjuncts would both raise — acceptable for a restriction, which is
# required to be total over its base schema.

_MIRRORED_COMPARISONS = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def canonicalize(expr: Expr) -> Expr:
    """Return a canonical equivalent of ``expr``.

    - ``-5`` (UnaryMinus over a numeric literal) folds to the literal ``-5``;
    - ``!=`` normalizes to ``<>``;
    - ``5 < v`` flips to ``v > 5`` (literal operands move to the right);
    - AND/OR chains flatten, dedupe, and sort by canonical text;
    - IN lists dedupe and sort by canonical text.
    """
    if isinstance(expr, UnaryMinus):
        operand = canonicalize(expr.operand)
        if (
            isinstance(operand, Literal)
            and isinstance(operand.value, (int, float))
            and not isinstance(operand.value, bool)
        ):
            return Literal(-operand.value)
        return UnaryMinus(operand)
    if isinstance(expr, Comparison):
        op = "<>" if expr.op == "!=" else expr.op
        left = canonicalize(expr.left)
        right = canonicalize(expr.right)
        if isinstance(left, Literal) and not isinstance(right, Literal):
            left, right = right, left
            op = _MIRRORED_COMPARISONS[op]
        return Comparison(op, left, right)
    if isinstance(expr, (And, Or)):
        kind = type(expr)
        terms = [canonicalize(term) for term in _flatten(expr, kind)]
        unique: "dict[str, Expr]" = {}
        for term in terms:
            unique.setdefault(term.sql(), term)
        ordered = [unique[text] for text in sorted(unique)]
        rebuilt = ordered[0]
        for term in ordered[1:]:
            rebuilt = kind(rebuilt, term)
        return rebuilt
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, canonicalize(expr.left), canonicalize(expr.right))
    if isinstance(expr, Not):
        return Not(canonicalize(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(canonicalize(expr.operand), expr.negated)
    if isinstance(expr, Between):
        return Between(
            canonicalize(expr.operand), canonicalize(expr.lo), canonicalize(expr.hi)
        )
    if isinstance(expr, InList):
        items = [canonicalize(item) for item in expr.items]
        unique_items: "dict[str, Expr]" = {}
        for item in items:
            unique_items.setdefault(item.sql(), item)
        ordered_items = [unique_items[text] for text in sorted(unique_items)]
        return InList(canonicalize(expr.operand), ordered_items, expr.negated)
    if isinstance(expr, Like):
        return Like(canonicalize(expr.operand), expr.pattern, expr.negated)
    return expr


def _flatten(expr: Expr, kind: type) -> "list[Expr]":
    if isinstance(expr, kind):
        # And/Or expose .left/.right; mypy can't see that through `kind`.
        left = expr.left  # type: ignore[attr-defined]
        right = expr.right  # type: ignore[attr-defined]
        return _flatten(left, kind) + _flatten(right, kind)
    return [expr]


def signature_text(expr: Expr) -> str:
    """Render ``expr`` with every constant masked as ``?``.

    Two restrictions share a signature exactly when they have the same
    canonical structure over the same columns — the property cohort
    clustering keys on: ``v > 10`` and ``v > 500`` can ride one scan pass
    with a shared decode footprint, while ``name LIKE 'a%'`` cannot.
    Call on a *canonicalized* AST; the masking itself does not reorder.
    """
    if isinstance(expr, Literal):
        return "?"
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Comparison):
        return f"{signature_text(expr.left)} {expr.op} {signature_text(expr.right)}"
    if isinstance(expr, BinaryOp):
        return f"({signature_text(expr.left)} {expr.op} {signature_text(expr.right)})"
    if isinstance(expr, UnaryMinus):
        return f"-{signature_text(expr.operand)}"
    if isinstance(expr, And):
        return f"({signature_text(expr.left)} AND {signature_text(expr.right)})"
    if isinstance(expr, Or):
        return f"({signature_text(expr.left)} OR {signature_text(expr.right)})"
    if isinstance(expr, Not):
        return f"(NOT {signature_text(expr.operand)})"
    if isinstance(expr, IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{signature_text(expr.operand)} {suffix}"
    if isinstance(expr, Between):
        return f"{signature_text(expr.operand)} BETWEEN ? AND ?"
    if isinstance(expr, InList):
        keyword = "NOT IN" if expr.negated else "IN"
        return f"{signature_text(expr.operand)} {keyword} (?)"
    if isinstance(expr, Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return f"{signature_text(expr.operand)} {keyword} ?"
    raise EvaluationError(f"cannot build a signature for {expr!r}")
