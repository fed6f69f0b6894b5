"""The statement layer: a Session that executes SQL text.

R* exposes snapshots through statements — "the compilation must be done
during the execution of the CREATE SNAPSHOT statement and the execution
is in response to a REFRESH SNAPSHOT statement" — so this library does
too.  A :class:`Session` wraps one database (and its snapshot manager)
and executes:

- ``CREATE TABLE name (col type [NULL | NOT NULL], ...)``
- ``CREATE INDEX ON table (column)``
- ``INSERT INTO table VALUES (...), (...)``
- ``UPDATE table SET col = expr, ... [WHERE predicate]``
- ``DELETE FROM table [WHERE predicate]``
- ``SELECT ...`` (full grammar in :mod:`repro.query.parser`)
- ``CREATE SNAPSHOT name AS SELECT cols FROM table [WHERE predicate]``
  ``[REFRESH DIFFERENTIAL | FULL | IDEAL | LOG | AUTO] [AT site]``
- ``REFRESH SNAPSHOT name``
- ``DROP SNAPSHOT name`` / ``DROP TABLE name``

Statement results: SELECT returns a
:class:`~repro.query.executor.QueryResult`; REFRESH SNAPSHOT returns the
:class:`~repro.core.cursor.RefreshResult`; DML returns the number
of affected rows; DDL returns the created object.

``AT site`` places the snapshot in another database registered via
:meth:`Session.attach_site` — the multi-site story in one statement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.catalog.compiler import RefreshMethod
from repro.core.manager import SnapshotManager
from repro.database import Database
from repro.errors import ParseError
from repro.expr.lexer import Token, tokenize
from repro.expr.nodes import Expr
from repro.expr.parser import parse_expression
from repro.query import run_select
from repro.query.indexes import SecondaryIndex
from repro.relation.schema import Column
from repro.relation.types import NULL


class Session:
    """One site's SQL entry point."""

    def __init__(
        self, db: Optional[Database] = None, manager: Optional[SnapshotManager] = None
    ) -> None:
        self.db = db if db is not None else Database("session")
        self.manager = (
            manager if manager is not None else SnapshotManager(self.db)
        )
        self._sites: "Dict[str, Database]" = {}

    def attach_site(self, name: str, db: Database) -> None:
        """Register a remote site usable in ``CREATE SNAPSHOT ... AT name``."""
        self._sites[name] = db

    def execute(self, sql: str) -> Any:
        """Parse and execute one statement."""
        tokens = tokenize(sql)
        head = _word(tokens[0])
        if head == "SELECT":
            return run_select(self.db, sql)
        if head == "CREATE":
            second = _word(tokens[1])
            if second == "TABLE":
                return self._create_table(sql, tokens)
            if second == "SNAPSHOT":
                return self._create_snapshot(sql, tokens)
            if second == "INDEX":
                return self._create_index(sql, tokens)
            raise ParseError(f"unknown CREATE statement in {sql!r}")
        if head == "INSERT":
            return self._insert(sql, tokens)
        if head == "UPDATE":
            return self._update(sql, tokens)
        if head == "DELETE":
            return self._delete(sql, tokens)
        if head == "REFRESH":
            return self._refresh(sql, tokens)
        if head == "DROP":
            return self._drop(sql, tokens)
        raise ParseError(f"unknown statement: {sql!r}")

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _expect_ident(tokens: "List[Token]", index: int, sql: str) -> str:
        if tokens[index].kind != "IDENT":
            raise ParseError(
                f"expected a name at offset {tokens[index].offset} in {sql!r}"
            )
        return str(tokens[index].value)

    @staticmethod
    def _expect_op(tokens: "List[Token]", index: int, op: str, sql: str) -> None:
        token = tokens[index]
        if token.kind != "OP" or token.value != op:
            raise ParseError(
                f"expected {op!r} at offset {token.offset} in {sql!r}"
            )

    # -- CREATE TABLE -----------------------------------------------------------

    def _create_table(self, sql: str, tokens: "List[Token]"):
        name = self._expect_ident(tokens, 2, sql)
        self._expect_op(tokens, 3, "(", sql)
        columns: "list[Column]" = []
        index = 4
        while True:
            col_name = self._expect_ident(tokens, index, sql)
            col_type = self._expect_ident(tokens, index + 1, sql).lower()
            index += 2
            nullable = False
            if tokens[index].kind == "NULL":
                nullable = True
                index += 1
            elif tokens[index].kind == "NOT":
                if _word_or_kind(tokens[index + 1]) != "NULL":
                    raise ParseError(f"expected NOT NULL in {sql!r}")
                index += 2
            columns.append(Column(col_name, col_type, nullable=nullable))
            if tokens[index].kind == "OP" and tokens[index].value == ",":
                index += 1
                continue
            self._expect_op(tokens, index, ")", sql)
            break
        from repro.relation.schema import Schema

        return self.db.create_table(name, Schema(columns))

    # -- CREATE INDEX ------------------------------------------------------------

    def _create_index(self, sql: str, tokens: "List[Token]"):
        if _word(tokens[2]) != "ON":
            raise ParseError(f"expected CREATE INDEX ON in {sql!r}")
        table_name = self._expect_ident(tokens, 3, sql)
        self._expect_op(tokens, 4, "(", sql)
        column = self._expect_ident(tokens, 5, sql)
        self._expect_op(tokens, 6, ")", sql)
        from repro.query.plan import resolve_source

        table = resolve_source(self.db, table_name)
        return SecondaryIndex(table, column)

    # -- INSERT ---------------------------------------------------------------------

    def _insert(self, sql: str, tokens: "List[Token]") -> int:
        if _word(tokens[1]) != "INTO":
            raise ParseError(f"expected INSERT INTO in {sql!r}")
        name = self._expect_ident(tokens, 2, sql)
        if _word(tokens[3]) != "VALUES":
            raise ParseError(f"expected VALUES in {sql!r}")
        table = self.db.table(name)
        index = 4
        inserted = 0
        while index < len(tokens) - 1:
            self._expect_op(tokens, index, "(", sql)
            index += 1
            values = []
            while True:
                value, index = _literal(tokens, index, sql)
                values.append(value)
                if tokens[index].kind == "OP" and tokens[index].value == ",":
                    index += 1
                    continue
                self._expect_op(tokens, index, ")", sql)
                index += 1
                break
            table.insert(values)
            inserted += 1
            if (
                index < len(tokens) - 1
                and tokens[index].kind == "OP"
                and tokens[index].value == ","
            ):
                index += 1
                continue
            break
        if tokens[index].kind != "EOF":
            raise ParseError(f"trailing input in {sql!r}")
        return inserted

    # -- UPDATE / DELETE ---------------------------------------------------------------

    def _split_where(self, sql: str, tokens: "List[Token]"):
        """(index_of_WHERE or None, parsed predicate or None)."""
        depth = 0
        for index, token in enumerate(tokens):
            if token.kind == "OP" and token.value == "(":
                depth += 1
            elif token.kind == "OP" and token.value == ")":
                depth -= 1
            elif depth == 0 and _word(token) == "WHERE":
                where_text = sql[tokens[index + 1].offset :]
                if not where_text.strip():
                    raise ParseError(f"empty WHERE in {sql!r}")
                return index, parse_expression(where_text)
        return None, None

    def _matching_rids(self, table, predicate: Optional[Expr]):
        if predicate is None:
            return [rid for rid, _ in table.scan()]
        compiled = predicate.compile(table.schema)
        return [
            rid
            for rid, row in table.scan(visible=False)
            if compiled(row.values) is True
        ]

    def _update(self, sql: str, tokens: "List[Token]") -> int:
        name = self._expect_ident(tokens, 1, sql)
        if _word(tokens[2]) != "SET":
            raise ParseError(f"expected SET in {sql!r}")
        where_index, predicate = self._split_where(sql, tokens)
        end = where_index if where_index is not None else len(tokens) - 1
        # Parse "col = expr, col = expr" from tokens[3:end] by slicing
        # the source text between commas at depth 0.
        assignments: "list[tuple[str, Expr]]" = []
        chunk_start = 3
        depth = 0
        boundaries = []
        for index in range(3, end):
            token = tokens[index]
            if token.kind == "OP" and token.value == "(":
                depth += 1
            elif token.kind == "OP" and token.value == ")":
                depth -= 1
            elif token.kind == "OP" and token.value == "," and depth == 0:
                boundaries.append(index)
        for stop in boundaries + [end]:
            col = self._expect_ident(tokens, chunk_start, sql)
            self._expect_op(tokens, chunk_start + 1, "=", sql)
            expr_start = tokens[chunk_start + 2].offset
            expr_end = tokens[stop].offset if stop < len(tokens) - 1 else len(sql)
            assignments.append(
                (col, parse_expression(sql[expr_start:expr_end].strip()))
            )
            chunk_start = stop + 1
        table = self.db.table(name)
        compiled = [
            (col, expr.compile(table.schema)) for col, expr in assignments
        ]
        affected = 0
        for rid in self._matching_rids(table, predicate):
            row = table.read(rid, visible=False)
            changes = {}
            for col, fn in compiled:
                value = fn(row.values)
                changes[col] = NULL if value is None else value
            table.update(rid, changes)
            affected += 1
        return affected

    def _delete(self, sql: str, tokens: "List[Token]") -> int:
        if _word(tokens[1]) != "FROM":
            raise ParseError(f"expected DELETE FROM in {sql!r}")
        name = self._expect_ident(tokens, 2, sql)
        _, predicate = self._split_where(sql, tokens)
        table = self.db.table(name)
        doomed = self._matching_rids(table, predicate)
        for rid in doomed:
            table.delete(rid)
        return len(doomed)

    # -- snapshot DDL ------------------------------------------------------------------

    def _create_snapshot(self, sql: str, tokens: "List[Token]"):
        """CREATE SNAPSHOT name AS SELECT ... [REFRESH method] [AT site]."""
        name = self._expect_ident(tokens, 2, sql)
        if _word(tokens[3]) != "AS":
            raise ParseError(f"expected AS in {sql!r}")
        # Peel trailing [AT site] and [REFRESH method] off the token list.
        end = len(tokens) - 1  # EOF
        target_db = None
        method: "RefreshMethod | str" = RefreshMethod.AUTO
        if end >= 2 and _word(tokens[end - 2]) == "AT":
            site = self._expect_ident(tokens, end - 1, sql)
            if site not in self._sites:
                raise ParseError(f"unknown site {site!r}; attach_site() it first")
            target_db = self._sites[site]
            end -= 2
        if end >= 2 and _word(tokens[end - 2]) == "REFRESH":
            method_word = self._expect_ident(tokens, end - 1, sql).lower()
            try:
                method = RefreshMethod(method_word)
            except ValueError:
                raise ParseError(
                    f"unknown refresh method {method_word!r} in {sql!r}"
                ) from None
            end -= 2
        select_text = sql[tokens[4].offset : tokens[end].offset if end < len(tokens) - 1 else len(sql)]
        from repro.query.parser import parse_select

        statement = parse_select(select_text)
        if statement.has_aggregates or statement.group_by or statement.order_by:
            raise ParseError(
                "snapshot definitions are restriction+projection only "
                "(no aggregates, grouping, or ordering)"
            )
        columns = None
        if not statement.is_star:
            columns = []
            for item in statement.items or []:
                expr_cols = sorted(item.expr.columns()) if item.expr else []
                if item.is_aggregate or len(expr_cols) != 1 or item.expr.sql() != expr_cols[0]:
                    raise ParseError(
                        "snapshot select list must be plain column names"
                    )
                columns.append(expr_cols[0])
        where = statement.where.sql() if statement.where is not None else None
        return self.manager.create_snapshot(
            name,
            statement.table,
            where=where,
            columns=columns,
            method=method,
            target_db=target_db,
        )

    def _refresh(self, sql: str, tokens: "List[Token]"):
        if _word(tokens[1]) != "SNAPSHOT":
            raise ParseError(f"expected REFRESH SNAPSHOT in {sql!r}")
        name = self._expect_ident(tokens, 2, sql)
        return self.manager.refresh(name)

    def _drop(self, sql: str, tokens: "List[Token]"):
        kind = _word(tokens[1])
        name = self._expect_ident(tokens, 2, sql)
        if kind == "SNAPSHOT":
            self.manager.drop_snapshot(name)
            return None
        if kind == "TABLE":
            self.db.drop_table(name)
            return None
        raise ParseError(f"unknown DROP statement in {sql!r}")


def _word(token: Token) -> Optional[str]:
    if token.kind == "IDENT":
        return str(token.value).upper()
    return None


def _word_or_kind(token: Token) -> Optional[str]:
    word = _word(token)
    if word is not None:
        return word
    return token.kind


def _literal(tokens: "List[Token]", index: int, sql: str):
    """Parse one literal (number/string/NULL/negative number)."""
    token = tokens[index]
    if token.kind == "NUMBER" or token.kind == "STRING":
        return token.value, index + 1
    if token.kind == "NULL":
        return NULL, index + 1
    if token.kind == "OP" and token.value == "-" and tokens[index + 1].kind == "NUMBER":
        return -tokens[index + 1].value, index + 2
    raise ParseError(
        f"expected a literal at offset {token.offset} in {sql!r}"
    )
