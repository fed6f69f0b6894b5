"""Row encoding round trips for arbitrary schemas and values, and the
rendered plan against the walk that defines the layout."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relation.row import (
    Row,
    decode_row,
    encode_row,
    encoded_size,
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


class TestTypeRegistry:
    def test_every_concrete_type_has_distinct_tag(self):
        tags = [t.tag for t in (IntType(), FloatType(), StringType())]
        assert len(set(tags)) == len(tags)
