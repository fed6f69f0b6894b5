"""Row values and byte encodings."""

import pytest

from repro.errors import SchemaError
from repro.relation.row import Row, decode_row, encode_row, encoded_size
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid


@pytest.fixture
def schema():
    return Schema.of(("name", "string"), ("salary", "int"), ("dept", "string", True))


@pytest.fixture
def annotated_schema(schema):
    return schema.with_columns(
        [
            Column("$PREVADDR$", "rid", nullable=True, hidden=True),
            Column("$TIMESTAMP$", "timestamp", nullable=True, hidden=True),
        ]
    )


class TestRowValue:
    def test_sequence_protocol(self):
        row = Row(["a", 1])
        assert len(row) == 2
        assert list(row) == ["a", 1]
        assert row[1] == 1

    def test_equality_with_tuple(self):
        assert Row(["a", 1]) == ("a", 1)
        assert Row(["a", 1]) == Row(["a", 1])

    def test_hashable(self):
        assert hash(Row(["a", 1])) == hash(Row(["a", 1]))

    def test_get_by_name(self, schema):
        row = Row(["Laura", 6, NULL])
        assert row.get(schema, "salary") == 6

    def test_replace(self, schema):
        row = Row(["Laura", 6, NULL])
        updated = row.replace(schema, salary=7)
        assert updated.values == ("Laura", 7, NULL)
        assert row.values == ("Laura", 6, NULL)  # original untouched

    def test_project(self, schema):
        row = Row(["Laura", 6, "db"])
        assert row.project(schema, ["dept", "name"]).values == ("db", "Laura")


class TestEncoding:
    def test_roundtrip(self, schema):
        row = Row(["Laura", 6, "db"])
        assert decode_row(schema, encode_row(schema, row)) == row

    def test_roundtrip_with_null(self, schema):
        row = Row(["Laura", 6, NULL])
        decoded = decode_row(schema, encode_row(schema, row))
        assert decoded[2] is NULL

    def test_null_shrinks_encoding(self, schema):
        full = encoded_size(schema, Row(["Laura", 6, "engineering"]))
        with_null = encoded_size(schema, Row(["Laura", 6, NULL]))
        assert with_null < full

    def test_validates_before_encoding(self, schema):
        with pytest.raises(SchemaError):
            encode_row(schema, Row(["Laura", 6]))

    def test_rejects_truncated_image(self, schema):
        with pytest.raises(SchemaError):
            decode_row(schema, b"")

    def test_inline_null_keeps_size_constant(self, annotated_schema):
        base = ("Laura", 6, "db")
        with_nulls = encode_row(annotated_schema, Row(base + (NULL, NULL)))
        with_values = encode_row(
            annotated_schema, Row(base + (Rid(0, 1), 430))
        )
        assert len(with_nulls) == len(with_values)

    def test_annotated_roundtrip(self, annotated_schema):
        row = Row(("Laura", 6, NULL, Rid(2, 5), 430))
        decoded = decode_row(annotated_schema, encode_row(annotated_schema, row))
        assert decoded.values == ("Laura", 6, NULL, Rid(2, 5), 430)

    def test_many_columns_bitmap(self):
        # More than 8 columns exercises the multi-byte NULL bitmap.
        schema = Schema.of(*[(f"c{i}", "int", True) for i in range(12)])
        values = [i if i % 3 else NULL for i in range(12)]
        decoded = decode_row(schema, encode_row(schema, Row(values)))
        assert [v if v is not NULL else NULL for v in decoded.values] == values


#: Everything ``Schema.validate`` rejects, one violation a row (the
#: schema is ``annotated_schema`` below: string, int, nullable string,
#: then the two inline-NULL annotation columns, and a float).
INVALID_ROWS = {
    "too few values": ("Laura", 6, "db", NULL, NULL),
    "too many values": ("Laura", 6, "db", NULL, NULL, 1.0, 9),
    "NULL in a non-nullable column": ("Laura", NULL, "db", NULL, NULL, 1.0),
    "NULL in a non-nullable first column": (NULL, 6, "db", NULL, NULL, 1.0),
    "str for int": ("Laura", "6", "db", NULL, NULL, 1.0),
    "bool for int": ("Laura", True, "db", NULL, NULL, 1.0),
    "float for int": ("Laura", 6.0, "db", NULL, NULL, 1.0),
    "int above 64 bits": ("Laura", 2**63, "db", NULL, NULL, 1.0),
    "int below 64 bits": ("Laura", -(2**63) - 1, "db", NULL, NULL, 1.0),
    "int for string": (7, 6, "db", NULL, NULL, 1.0),
    "bytes for string": ("Laura", 6, b"db", NULL, NULL, 1.0),
    "over-long string": ("x" * 65536, 6, "db", NULL, NULL, 1.0),
    "over-long once encoded": ("\u00e9" * 32768, 6, "db", NULL, NULL, 1.0),
    "tuple for rid": ("Laura", 6, "db", (0, 1), NULL, 1.0),
    "negative timestamp": ("Laura", 6, "db", NULL, -1, 1.0),
    "bool for timestamp": ("Laura", 6, "db", NULL, True, 1.0),
    "str for float": ("Laura", 6, "db", NULL, NULL, "1.0"),
    "bool for float": ("Laura", 6, "db", NULL, NULL, False),
    "Python None": ("Laura", None, "db", NULL, NULL, 1.0),
}


class TestOneWalkValidation:
    """``encode_row`` checks as it encodes: same rejections, same types."""

    @pytest.fixture
    def wide(self, annotated_schema):
        return annotated_schema.with_columns([Column("ratio", "float")])

    @pytest.mark.parametrize("case", sorted(INVALID_ROWS))
    def test_rejects_what_validate_rejects_with_the_same_type(self, wide, case):
        values = INVALID_ROWS[case]
        with pytest.raises(SchemaError) as expected:
            wide.validate(values)
        for encode in (encode_row, encoded_size):
            with pytest.raises(SchemaError) as raised:
                encode(wide, Row(values))
            assert type(raised.value) is type(expected.value), case
            assert str(raised.value) == str(expected.value)

    def test_accepts_what_validate_accepts(self, wide):
        for values in (
            ("", -(2**63), NULL, NULL, NULL, 3),
            ("x" * 65535, 2**63 - 1, "", Rid(1, 2), 0, -0.5),
        ):
            wide.validate(values)
            assert decode_row(wide, encode_row(wide, Row(values))).values == values

    @pytest.mark.parametrize("case", ["NULL in a non-nullable column", "bool for int"])
    def test_a_rejected_row_writes_nothing(self, db, case):
        table = db.create_table(
            "t", [("name", "string"), ("salary", "int")], annotations="lazy"
        )
        rid = table.insert(["Laura", 6])
        before = (list(table.heap.scan()), table.heap.writes.total)
        name, salary = INVALID_ROWS[case][:2]
        with pytest.raises(SchemaError):
            table.insert([name, salary])
        with pytest.raises(SchemaError):
            table.system_update(rid, {"salary": salary})
        with pytest.raises(SchemaError):
            table.system_insert({"name": name, "salary": salary})
        assert (list(table.heap.scan()), table.heap.writes.total) == before
