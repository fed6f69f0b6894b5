"""Row encoding round trips for arbitrary schemas and values, and the
rendered plan against the walk that defines the layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.relation.row import (
    Row,
    decode_row,
    encode_row,
    encoded_size,
    patch_plan,
    walk_decode,
    walk_encode,
)
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, FloatType, IntType, StringType
from repro.storage.rid import Rid

KINDS = ("int", "float", "string", "rid", "timestamp")


class IntSubclass(int):
    pass


class RidSubclass(Rid):
    __slots__ = ()


#: What no column's fast path may take as its own: each either reaches
#: the walk and is encoded there (an int in a float column), or raises
#: there what it always raised.
ODD_VALUES = (
    True,
    IntSubclass(3),
    RidSubclass(1, 2),
    2**63,
    2**63 - 1,
    -(2**63),
    -(2**63) - 1,
    -1,
    7,
    1.5,
    "x" * 65536,
    "é" * 32768,
    "\ud800",  # a lone surrogate: not UTF-8 encodable
    None,
    NULL,
    b"db",
    (0, 1),
    Rid(0, 1),
    Rid(2**31, 0),  # a page number "i" cannot hold
)


def _valid_value(draw, kind):
    if kind == "int":
        return draw(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    if kind == "float":
        return draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    if kind == "string":
        return draw(st.text(max_size=40))
    if kind == "rid":
        return Rid(
            draw(st.integers(min_value=0, max_value=2**31 - 1)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)),
        )
    return draw(st.integers(min_value=0, max_value=2**63 - 1))


@st.composite
def schema_and_row(draw):
    """A schema over all five types, nullable or not, with or without the
    two trailing annotation columns, and a row that is valid under it."""
    column_count = draw(st.integers(min_value=1, max_value=12))
    columns = []
    for index in range(column_count):
        kind = draw(st.sampled_from(KINDS))
        columns.append(Column(f"c{index}", kind, nullable=draw(st.booleans())))
    if draw(st.booleans()):
        columns.append(Column("$PREVADDR$", "rid", nullable=True, hidden=True))
        columns.append(Column("$TIMESTAMP$", "timestamp", nullable=True, hidden=True))
    values = [
        NULL
        if column.nullable and draw(st.booleans())
        else _valid_value(draw, column.ctype.name)
        for column in columns
    ]
    return Schema(columns), Row(values)


@st.composite
def schema_and_any_row(draw):
    """:func:`schema_and_row`, the row then spoiled about half the time:
    odd values planted in it, or its arity changed."""
    schema, row = draw(schema_and_row())
    values = list(row.values)
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 5)))):
        position = draw(st.integers(min_value=0, max_value=len(values) - 1))
        values[position] = draw(st.sampled_from(ODD_VALUES))
    arity = draw(st.sampled_from((0, 0, 0, 0, 0, -1, 1)))
    if arity < 0:
        values.pop()
    elif arity > 0:
        values.append(draw(st.sampled_from(ODD_VALUES)))
    return schema, Row(values)


def outcome(function, *args):
    """What a call did: its result, or the exception's type and message."""
    try:
        return function(*args)
    except Exception as error:
        return type(error), str(error)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=schema_and_row())
    def test_encode_decode_identity(self, data):
        schema, row = data
        decoded = decode_row(schema, encode_row(schema, row))
        assert len(decoded) == len(row)
        for original, recovered in zip(row, decoded):
            if original is NULL:
                assert recovered is NULL
            else:
                assert recovered == original

    @settings(max_examples=80, deadline=None)
    @given(data=schema_and_row())
    def test_encoding_deterministic(self, data):
        schema, row = data
        assert encode_row(schema, row) == encode_row(schema, row)


class TestPlanEqualsWalk:
    """The public functions run a schema's rendered plan where the row
    allows; :func:`walk_encode` / :func:`walk_decode` are the layout's
    definition.  Same bytes, same rows, same errors, for any input."""

    @settings(max_examples=400, deadline=None)
    @given(data=schema_and_any_row())
    def test_encode_agrees_on_any_row_valid_or_not(self, data):
        schema, row = data
        expected = outcome(walk_encode, schema, row.values)
        assert outcome(encode_row, schema, row) == expected
        if isinstance(expected, bytes):
            assert encoded_size(schema, row) == len(expected)
        else:
            assert outcome(encoded_size, schema, row) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=schema_and_row())
    def test_decode_agrees_on_every_image_and_every_truncation(self, data):
        schema, row = data
        image = encode_row(schema, row)
        # repr too: 1, 1.0 and True are equal and not the same value.
        assert repr(decode_row(schema, image)) == repr(walk_decode(schema, image))
        for length in range(len(image)):
            cut = image[:length]
            expected = outcome(walk_decode, schema, cut)
            raised = outcome(decode_row, schema, cut)
            if isinstance(expected, Row):  # a string cut short still decodes
                assert repr(raised) == repr(expected)
            else:
                assert raised[0] is expected[0], (length, raised, expected)


@st.composite
def update_of(draw):
    """A valid stored record and an update of some of its columns, often
    those of its tail: each new value valid, NULL, or odd."""
    schema, row = draw(schema_and_row())
    count = len(schema)
    low = draw(st.sampled_from((0, count // 2, max(count - 3, 0))))
    positions = draw(
        st.lists(
            st.integers(min_value=low, max_value=count - 1),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    values = []
    for position in positions:
        column = schema.columns[position]
        pick = draw(st.integers(min_value=0, max_value=3))
        if pick == 0:
            values.append(draw(st.sampled_from(ODD_VALUES)))
        elif pick == 1:
            values.append(NULL)
        else:
            values.append(_valid_value(draw, column.ctype.name))
    return schema, encode_row(schema, row), tuple(positions), values


def overlay(schema, stored, positions, values):
    """The definition of an update: decode, replace, encode."""
    new = list(decode_row(schema, stored).values)
    for position, value in zip(positions, values):
        new[position] = value
    return encode_row(schema, Row(new))


class TestPatchEqualsOverlay:
    """An update's compiled patch writes the bytes — or raises the error
    type and text — that decoding, replacing and encoding give, and
    leaves to them exactly the records and values it cannot splice."""

    @settings(max_examples=400, deadline=None)
    @given(data=update_of())
    def test_the_patch_is_the_overlay_where_it_applies(self, data):
        schema, stored, positions, values = data
        columns = schema.columns
        suffix = len(columns)
        while suffix and columns[suffix - 1].ctype.fixed_size is not None:
            suffix -= 1
        plan = patch_plan(schema, positions)
        assert (plan is None) == (min(positions) < suffix)
        if plan is None:
            return
        assert patch_plan(schema, positions) is plan  # cached
        got = outcome(plan, stored, values)
        bitmap = stored[: (len(columns) + 7) // 8]
        deferred = any(bitmap) or any(
            value is NULL and not (column.nullable and column.ctype.inline_null)
            for column, value in zip((columns[p] for p in positions), values)
        )
        if got is None:
            assert deferred
        else:  # bytes, or an error raised before any deferring value
            assert got == outcome(overlay, schema, stored, positions, values)
            assert not (deferred and isinstance(got, bytes))

    def test_empty_duplicate_or_foreign_positions_take_the_overlay(self):
        schema = Schema([Column("a", "int"), Column("b", "int")])
        assert patch_plan(schema, ()) is None
        assert patch_plan(schema, (1, 1)) is None
        assert patch_plan(schema, (2,)) is None
        assert patch_plan(schema, (-1,)) is None

    def test_an_update_that_changes_nothing_keeps_the_record(self):
        db = Database()
        table = db.create_table("t", [("a", "int"), ("b", "int")])
        rid = table.insert([1, 2])
        stored = table.heap.read(rid)
        assert table.update(rid, {}) == rid
        assert table.heap.read(rid) == stored

    def test_a_count_of_values_other_than_the_positions_takes_the_overlay(self):
        schema = Schema([Column("a", "int"), Column("b", "int")])
        stored = encode_row(schema, Row([1, 2]))
        plan = patch_plan(schema, (0, 1))
        assert plan(stored, [5, 6]) == encode_row(schema, Row([5, 6]))
        assert plan(stored, [5]) is None
        assert plan(stored, [5, 6, 7]) is None
        assert plan(stored[:-1], [5, 6]) is None  # shorter than the suffix


columns_for_updates = [
    ("id", "int"),
    ("name", "string"),
    ("f", "float"),
    ("n", "int", True),
    ("v", "int"),
]
update_scripts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=39),
        st.dictionaries(
            st.sampled_from(["name", "f", "n", "v"]),
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.floats(allow_nan=False, width=64),
                st.text(max_size=12),
                st.just(NULL),
                st.sampled_from(ODD_VALUES),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    max_size=40,
)


class TestTableUpdates:
    @pytest.mark.parametrize("annotations", [None, "lazy"])
    @settings(max_examples=40, deadline=None)
    @given(script=update_scripts)
    def test_an_update_stores_what_the_overlay_gives(self, annotations, script):
        """Through ``Table.update``: the record written (or the error
        raised) is the decode/encode overlay's, with ``TimeStamp`` NULL
        on a lazy table."""
        db = Database(page_size=512, buffer_capacity=4)
        table = db.create_table("t", columns_for_updates, annotations=annotations)
        schema = table.schema
        rids = [table.insert([i, "r" * (i % 5), i / 2, i, -i]) for i in range(40)]
        for pick, changes in script:
            rid = rids[pick]
            stored = table.heap.read(rid)
            positions = [schema.position(name) for name in changes]
            values = list(changes.values())
            if annotations:
                positions.append(len(schema) - 1)
                values.append(NULL)
            expected = outcome(overlay, schema, stored, positions, values)
            got = outcome(table.update, rid, changes)
            if isinstance(expected, bytes):
                rids[pick] = got
                assert table.heap.read(got) == expected
            else:
                assert got == expected
                assert table.heap.read(rid) == stored


class TestTypeRegistry:
    def test_every_concrete_type_has_distinct_tag(self):
        tags = [t.tag for t in (IntType(), FloatType(), StringType())]
        assert len(set(tags)) == len(tags)
