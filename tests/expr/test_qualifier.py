"""Restriction.qualifier: the rendered form, its reads and its fallbacks.

``tests/properties/test_qualifier_props.py`` holds the qualifier to the
interpreter on random ASTs; these cases pin which read a layout takes
and what is left to the interpreter.
"""

import pytest

from repro.expr.nodes import BinaryOp, ColumnRef, Comparison, Expr, InList, Literal
from repro.expr import predicate
from repro.expr.predicate import Restriction
from repro.relation import row as row_module
from repro.relation.row import Row, encode_row
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL

#: A21's layout: the probed column behind a variable-width one.
SCHEMA = Schema(
    [
        Column("id", "int"),
        Column("name", "string"),
        Column("branch", "int", nullable=True),
        Column("v", "int"),
    ]
)


def bodies(*rows):
    return [encode_row(SCHEMA, Row(values)) for values in rows]


@pytest.fixture
def walks(monkeypatch):
    """Count the records that take ``decode_fields``: a rendered
    qualifier's fallback, or the interpreter's decode."""
    calls = []
    decode_fields = row_module.decode_fields

    def counted(schema, data, positions):
        calls.append(positions)
        return decode_fields(schema, data, positions)

    monkeypatch.setattr(row_module, "decode_fields", counted)
    monkeypatch.setattr(predicate, "decode_fields", counted)
    return calls


class TestReads:
    def test_columns_behind_a_string_are_read_from_the_end(self, walks):
        restriction = Restriction.parse("branch < 4 AND v > 1", SCHEMA)
        records = bodies([1, "a", 3, 2], [2, "bb", 5, 2], [3, "", 1, 0])
        assert list(restriction.qualifier(SCHEMA)(records, range(3))) == [0]
        assert walks == []

    def test_columns_before_a_string_are_read_from_the_start(self, walks):
        restriction = Restriction.parse("id = 2", SCHEMA)
        records = bodies([1, "a", 3, 2], [2, "bb", 5, 2])
        assert list(restriction.qualifier(SCHEMA)(records, range(2))) == [1]
        assert walks == []

    def test_a_bitmap_null_takes_decode_fields(self, walks):
        restriction = Restriction.parse("branch IS NULL", SCHEMA)
        records = bodies([1, "a", NULL, 2], [2, "bb", 5, 2])
        assert list(restriction.qualifier(SCHEMA)(records, range(2))) == [0]
        assert walks == [(2,)]

    def test_a_string_both_ways_takes_decode_fields(self, walks):
        restriction = Restriction.parse("id < v AND name = 'a'", SCHEMA)
        records = bodies([1, "a", 3, 2], [2, "a", 5, 2])
        assert list(restriction.qualifier(SCHEMA)(records, range(2))) == [0]
        assert walks == [(0, 1, 3), (0, 1, 3)]

    def test_rendered_once_per_schema(self):
        restriction = Restriction.parse("v > 1", SCHEMA)
        annotated = SCHEMA.with_columns(
            [
                Column("$PREVADDR$", "rid", nullable=True, hidden=True),
                Column("$TIMESTAMP$", "timestamp", nullable=True, hidden=True),
            ]
        )
        first = restriction.qualifier(SCHEMA)
        assert restriction.qualifier(SCHEMA) is first
        # An equal schema (another table's) has the same layout.
        assert restriction.qualifier(Schema(list(SCHEMA.columns))) is first
        assert restriction.qualifier(annotated) is not first


class _Unrendered(ColumnRef):
    """A node kind that renders no fragment (its interpreter is a column
    reference's)."""

    fragment = Expr.fragment


class TestInterpreterFallback:
    def test_a_node_without_a_fragment_is_interpreted(self, walks):
        expr = Comparison("<", _Unrendered("v"), Literal(3))
        restriction = Restriction(expr, SCHEMA)
        records = bodies([1, "a", 3, 2], [2, "bb", 5, 3], [3, "", 1, 1])
        assert list(restriction.qualifier(SCHEMA)(records, range(3))) == [0, 2]
        assert walks == [(3,), (3,), (3,)]  # the interpreter's decode

    def test_source_too_deep_to_compile_is_interpreted(self, walks):
        # Each computed IN item nests the next one level deeper, past
        # what Python's tokenizer indents.
        items = [BinaryOp("+", ColumnRef("v"), Literal(k)) for k in range(1, 121)]
        expr = InList(ColumnRef("branch"), items)
        restriction = Restriction(expr, SCHEMA)
        records = bodies([1, "a", 3, 2], [2, "bb", 5, 500])
        assert list(restriction.qualifier(SCHEMA)(records, range(2))) == [0]
        # Rendered, both records would be read with one Struct each.
        assert walks == [(2, 3), (2, 3)]

    def test_errors_raise_as_the_interpreter_raises(self):
        restriction = Restriction(
            Comparison("<", ColumnRef("name"), Literal(3)), SCHEMA
        )
        records = bodies([1, "a", 3, 2])
        with pytest.raises(Exception) as rendered:
            restriction.qualifier(SCHEMA)(records, [0])
        with pytest.raises(Exception) as interpreted:
            restriction(Row([1, "a", 3, 2]))
        assert type(rendered.value) is type(interpreted.value)
        assert str(rendered.value) == str(interpreted.value)
