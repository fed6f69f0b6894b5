"""Schemas: construction, lookup, validation, hidden columns."""

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, IntType


@pytest.fixture
def schema():
    return Schema.of(("name", "string"), ("salary", "int"), ("dept", "string", True))


class TestConstruction:
    def test_of_builds_columns(self, schema):
        assert schema.names == ("name", "salary", "dept")
        assert schema.column("salary").ctype == IntType()

    def test_nullable_flag_from_spec(self, schema):
        assert schema.column("dept").nullable
        assert not schema.column("name").nullable

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", "int"), ("a", "int"))

    def test_rejects_empty_column_name(self):
        with pytest.raises(SchemaError):
            Column("", "int")

    def test_column_type_by_name_string(self):
        column = Column("x", "float")
        assert column.ctype.name == "float"


class TestAccess:
    def test_position(self, schema):
        assert schema.position("salary") == 1

    def test_position_missing(self, schema):
        with pytest.raises(SchemaError):
            schema.position("bonus")

    def test_contains(self, schema):
        assert "name" in schema
        assert "bonus" not in schema

    def test_iteration_order(self, schema):
        assert [c.name for c in schema] == ["name", "salary", "dept"]

    def test_len(self, schema):
        assert len(schema) == 3

    def test_equality(self, schema):
        other = Schema.of(
            ("name", "string"), ("salary", "int"), ("dept", "string", True)
        )
        assert schema == other
        assert hash(schema) == hash(other)

    def test_hash_is_computed_once_and_no_part_of_equality(self, schema):
        other = Schema.of(
            ("name", "string"), ("salary", "int"), ("dept", "string", True)
        )
        assert hash(schema) == schema._hash == hash(tuple(schema))
        # Derived schemas hash their own columns, not their source's.
        assert hash(schema.with_columns([Column("bonus", "int")])) != hash(schema)
        assert hash(schema.visible()) == hash(other)
        # The cached value rides along; equality still reads the columns.
        other._hash = ~other._hash
        assert schema == other and hash(schema) != hash(other)
        assert {schema: 1}[Schema(list(schema))] == 1


class TestValidation:
    def test_accepts_valid_row(self, schema):
        schema.validate(["Laura", 6, "db"])

    def test_accepts_null_in_nullable(self, schema):
        schema.validate(["Laura", 6, NULL])

    def test_rejects_null_in_non_nullable(self, schema):
        with pytest.raises(SchemaError):
            schema.validate([NULL, 6, "db"])

    def test_rejects_arity_mismatch(self, schema):
        with pytest.raises(SchemaError):
            schema.validate(["Laura", 6])

    def test_rejects_type_mismatch(self, schema):
        with pytest.raises(TypeMismatchError):
            schema.validate(["Laura", "six", "db"])


class TestDerivedSchemas:
    def test_project(self, schema):
        projected = schema.project(["salary", "name"])
        assert projected.names == ("salary", "name")

    def test_visible_strips_hidden(self, schema):
        extended = schema.with_columns(
            [Column("$X$", "timestamp", nullable=True, hidden=True)]
        )
        assert extended.visible().names == schema.names
        assert extended.hidden_names() == ("$X$",)

    def test_with_columns_appends(self, schema):
        extended = schema.with_columns([Column("extra", "int")])
        assert extended.names[-1] == "extra"
        assert len(extended) == 4

    def test_with_columns_rejects_duplicate(self, schema):
        with pytest.raises(SchemaError):
            schema.with_columns([Column("name", "int")])
