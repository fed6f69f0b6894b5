"""Row values and byte encodings."""

import pytest

import repro.relation.row as row_module
from repro.errors import SchemaError, TypeMismatchError
from repro.relation.row import (
    Row,
    decode_row,
    encode_row,
    encoded_size,
    walk_decode,
    walk_encode,
)
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, ColumnType
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
            table.system_update_values(rid, [salary], [1])
        with pytest.raises(SchemaError):
            table.system_insert_values([name, salary])
        assert (list(table.heap.scan()), table.heap.writes.total) == before


def _annotations():
    return [
        Column("$PREVADDR$", "rid", nullable=True, hidden=True),
        Column("$TIMESTAMP$", "timestamp", nullable=True, hidden=True),
    ]


#: The end-to-end benchmark's base table (``benchmarks/e2e/gen.py``) …
BASE_SCHEMA = Schema.of(
    ("id", "int"), ("name", "string"), ("balance", "int"), ("branch", "int"),
    ("v", "int"),
).with_columns(_annotations())
#: … and what a snapshot of it stores: the value columns, a non-nullable
#: ``$BASEADDR$``, and the receiver's own lazy annotations.
STORAGE_SCHEMA = Schema.of(
    ("id", "int"), ("balance", "int"), ("v", "int")
).with_columns(
    [Column("$BASEADDR$", "rid", nullable=False, hidden=True)] + _annotations()
)


class FlagType(ColumnType):
    """A type that declares no plan piece: one byte, ``0`` or ``1``."""

    name = "flag"
    tag = 99
    fixed_size = 1

    def validate(self, value):
        if value is not True and value is not False:
            raise TypeMismatchError(f"expected a flag, got {value!r}")

    def encode(self, value):
        return b"\x01" if value else b"\x00"

    def decode(self, data, offset):
        return data[offset] == 1, offset + 1


@pytest.fixture
def no_walk(monkeypatch):
    """Make reaching the generic walk an error."""

    def reached(schema, _):
        raise AssertionError(f"the walk was reached for {schema!r}")

    monkeypatch.setattr(row_module, "walk_encode", reached)
    monkeypatch.setattr(row_module, "walk_decode", reached)


class TestRenderedPlan:
    """``encode_row`` / ``decode_row`` run a plan rendered per schema; the
    walk is the definition and the path of every row the plan declines."""

    VALID = [
        (BASE_SCHEMA, (7, "name-0000007", 250_000, 41, 3, NULL, NULL)),
        (BASE_SCHEMA, (7, "", -(2**63), 0, 2**63 - 1, Rid(3, 9), 77)),
        (BASE_SCHEMA, (7, "é" * 20, 1, 2, 3, Rid.BEGIN, 0)),
        (STORAGE_SCHEMA, (7, 250_000, 3, Rid(12, 40), NULL, NULL)),
        (STORAGE_SCHEMA, (7, 250_000, 3, Rid(12, 40), Rid(0, 1), 5)),
    ]

    @pytest.mark.parametrize("schema, values", VALID)
    def test_a_valid_row_does_not_reach_the_walk(self, schema, values, no_walk):
        image = walk_encode(schema, values)  # the definition, called directly
        assert walk_decode(schema, image).values == values
        assert encode_row(schema, Row(values)) == image
        assert encoded_size(schema, Row(values)) == len(image)
        assert decode_row(schema, image).values == values

    def test_what_the_plan_declines_reaches_the_walk(self, monkeypatch):
        calls = []
        walk = walk_encode
        monkeypatch.setattr(
            row_module, "walk_encode", lambda s, v: calls.append(v) or walk(s, v)
        )
        declined = [
            (7, "n", 1, 2, True, NULL, NULL),  # bool for int
            (7, "n", 1, 2, 2**63, NULL, NULL),  # 65 bits
            (7, "x" * 65536, 1, 2, 3, NULL, NULL),
            (7, "n", 1, 2, 3, NULL, -1),
            (7, "n", 1, 2, 3, NULL),
        ]
        for values in declined:
            with pytest.raises(SchemaError):
                encode_row(BASE_SCHEMA, Row(values))
        assert calls == declined
        # The storage schema's $BASEADDR$ is an inline-NULL type in a
        # column that is not nullable: NULL there is an error, not a sentinel.
        with pytest.raises(SchemaError, match="not nullable"):
            encode_row(STORAGE_SCHEMA, Row((7, 1, 3, NULL, NULL, NULL)))

    def test_a_bitmap_null_takes_the_walk_both_ways(self, schema, monkeypatch):
        row = Row(("Laura", 6, NULL))
        image = encode_row(schema, row)
        assert image[0] == 0b100
        calls = []
        walk = walk_decode
        monkeypatch.setattr(
            row_module, "walk_decode", lambda s, d: calls.append(d) or walk(s, d)
        )
        assert decode_row(schema, image) == row
        assert calls == [image]

    def test_a_type_that_declares_nothing_round_trips_through_the_walk(
        self, monkeypatch
    ):
        flagged = Schema(
            [Column("id", "int"), Column("on", FlagType()), Column("name", "string")]
        )
        calls = []
        for name in ("walk_encode", "walk_decode"):
            walk = getattr(row_module, name)
            monkeypatch.setattr(
                row_module,
                name,
                lambda s, x, walk=walk: calls.append(1) or walk(s, x),
            )
        image = encode_row(flagged, Row((7, True, "n")))
        assert image == b"\x00" + (7).to_bytes(8, "little") + b"\x01\x01\x00n"
        assert decode_row(flagged, image).values == (7, True, "n")
        assert len(calls) == 2
        with pytest.raises(TypeMismatchError, match="expected a flag"):
            encode_row(flagged, Row((7, 1, "n")))

    def test_equal_schemas_stay_equal_whether_or_not_rendered(self):
        def build():
            return Schema.of(("name", "string"), ("salary", "int")).with_columns(
                _annotations()
            )

        rendered, fresh = build(), build()
        before = hash(rendered)
        encode_row(rendered, Row(("Laura", 6, NULL, NULL)))
        assert rendered.codec is not None and fresh.codec is None
        assert rendered == fresh and hash(rendered) == hash(fresh) == before
        assert {rendered: 1}[fresh] == 1
        both = encode_row(fresh, Row(("Laura", 6, NULL, NULL)))
        assert both == encode_row(rendered, Row(("Laura", 6, NULL, NULL)))

    def test_sixty_four_fixed_columns_are_one_struct(self, no_walk):
        wide = Schema.of(*[(f"c{i}", "int") for i in range(64)])
        values = tuple(range(-32, 32))
        image = encode_row(wide, Row(values))
        assert len(image) == 8 + 64 * 8 and image[:8] == bytes(8)
        assert decode_row(wide, image).values == values
        plan = wide.codec[0].__globals__
        assert [name for name in plan if name.startswith("_pack")] == ["_pack0"]

    def test_strings_only(self, no_walk):
        words = Schema.of(("a", "string"), ("b", "string"), ("c", "string"))
        values = ("", "né", "x" * 65535)
        image = encode_row(words, Row(values))
        assert image[:5] == b"\x00\x00\x00\x03\x00"
        assert decode_row(words, image).values == values

    def test_the_plan_names_its_schema(self):
        encode_row(BASE_SCHEMA, Row(self.VALID[0][1]))
        code = BASE_SCHEMA.codec[0].__code__
        assert code.co_filename == f"<row codec {BASE_SCHEMA!r}>"
