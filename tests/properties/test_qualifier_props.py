"""Qualifier ≡ interpreter: the rendered qualifier is the interpreter's
compiled form.

``Restriction.qualifier(schema)`` renders every node's fragment into one
loop over stored records; ``Restriction.__call__`` walks the closure tree
``compile()`` built over one decoded row.  For random ASTs over every
node kind (NULL literals included), over schemas whose layouts take each
read the renderer has — from the record's end, from its start, and
``decode_fields`` (a string before or among the probed columns) — and
rows with bitmap NULLs, the two give the same verdict on every record
and raise the same error where the interpreter raises.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr.nodes import (
    And,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    UnaryMinus,
)
from repro.expr.predicate import Restriction
from repro.relation.row import Row, decode_row, encode_row
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.table import annotation_columns

SCHEMAS = (
    # A string before the probed columns: they are read from the end.
    Schema(
        [
            Column("name", "string"),
            Column("i", "int"),
            Column("f", "float"),
            Column("j", "int", nullable=True),
        ]
    ),
    # Fixed-width columns first, nullable strings after: read from the
    # start, or decode_fields where the strings are wanted.
    Schema(
        [
            Column("i", "int"),
            Column("f", "float", nullable=True),
            Column("s", "string", nullable=True),
            Column("t", "string"),
        ]
    ),
    # A string between int columns: neither way reads past it.
    Schema(
        [
            Column("i", "int", nullable=True),
            Column("s", "string"),
            Column("j", "int"),
        ]
    ),
)

#: Small magnitudes keep string repetition (``s * i``) small; the ends
#: of the i64 range exercise the struct reads.
INTS = st.one_of(
    st.integers(min_value=-64, max_value=64),
    st.sampled_from([-(2**63), 2**63 - 1]),
)
FLOATS = st.floats(width=64)
STRINGS = st.text(alphabet="ab%_é", max_size=4)


def column_values(column):
    kind = column.ctype.name
    values = {"int": INTS, "float": FLOATS, "string": STRINGS}[kind]
    if column.nullable:
        return st.one_of(st.just(NULL), values)
    return values


@st.composite
def expressions(draw, schema, depth=3):
    names = schema.names
    leaf = st.one_of(
        st.sampled_from(names).map(ColumnRef),
        st.one_of(
            st.just(NULL),
            st.booleans(),
            st.integers(min_value=-64, max_value=64),
            st.floats(allow_nan=False, width=64),
            STRINGS,
        ).map(Literal),
    )
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(leaf)
    sub = expressions(schema, depth - 1)
    kind = draw(
        st.sampled_from(
            [
                "cmp", "arith", "neg", "and", "or", "not",
                "isnull", "between", "in", "like",
            ]
        )
    )
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="]))
        return Comparison(op, draw(sub), draw(sub))
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        return BinaryOp(op, draw(sub), draw(sub))
    if kind == "neg":
        return UnaryMinus(draw(sub))
    if kind == "and":
        return And(draw(sub), draw(sub))
    if kind == "or":
        return Or(draw(sub), draw(sub))
    if kind == "not":
        return Not(draw(sub))
    if kind == "isnull":
        return IsNull(draw(sub), draw(st.booleans()))
    if kind == "between":
        return Between(draw(sub), draw(sub), draw(sub))
    if kind == "in":
        items = draw(st.lists(sub, min_size=1, max_size=4))
        return InList(draw(sub), items, draw(st.booleans()))
    pattern = draw(st.text(alphabet="ab%_", max_size=4))
    return Like(draw(sub), pattern, draw(st.booleans()))


@st.composite
def cases(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    expr = draw(expressions(schema))
    rows = draw(
        st.lists(
            st.tuples(*[column_values(column) for column in schema.columns]),
            min_size=1,
            max_size=6,
        )
    )
    # Asked of the table's records, the annotations appended after.
    annotated = draw(st.booleans())
    return schema, expr, rows, annotated


def outcome(call):
    try:
        return ("value", call())
    except Exception as error:  # the interpreter's, type and text
        return ("error", type(error), str(error))


def same_row(left, right):
    """Equal rows, NaN equal to NaN (a float column may hold one)."""
    return all(
        a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))
        for a, b in zip(left, right)
    )


class TestQualifierIsTheInterpreter:
    @settings(max_examples=400, deadline=None)
    @given(case=cases())
    def test_same_verdict_and_same_error_on_every_record(self, case):
        schema, expr, rows, annotated = case
        restriction = Restriction(expr, schema)
        stored = schema
        if annotated:
            stored = Schema([*schema.columns, *annotation_columns()])
            tails = [(Rid(3, 7), 42), (NULL, NULL)]
            rows = [(*row, *tails[index % 2]) for index, row in enumerate(rows)]
        bodies = [encode_row(stored, Row(row)) for row in rows]
        qualifier = restriction.qualifier(stored)
        expected = []
        for index, body in enumerate(bodies):
            decoded = decode_row(stored, body)
            assert same_row(decoded.values, rows[index])
            want = outcome(lambda: restriction(decoded))
            got = outcome(lambda: list(qualifier(bodies, [index])))
            if want[0] == "value":
                assert got == ("value", [index] if want[1] else []), expr.sql()
                if want[1]:
                    expected.append(index)
            else:
                assert got == want, expr.sql()
                return
        assert list(qualifier(bodies, range(len(bodies)))) == expected
