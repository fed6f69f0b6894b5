"""Row values and their byte encoding.

A :class:`Row` is an immutable sequence of Python values matching a
:class:`~repro.relation.schema.Schema`.  The byte encoding is a NULL
bitmap followed by each non-NULL column's type-specific encoding; the same
bytes are stored in slotted pages and charged against the simulated
network channel, so storage sizes and message sizes agree by construction.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.errors import SchemaError
from repro.relation.schema import Schema
from repro.relation.types import NULL


class Row:
    """An immutable tuple of column values tied to no particular schema.

    Rows are plain value containers: equality and hashing are structural.
    Use :meth:`replace` to derive an updated row and ``row["name"]`` /
    ``row[idx]`` via :meth:`get` with a schema for named access.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[Any]) -> None:
        self._values: "tuple[Any, ...]" = tuple(values)

    @property
    def values(self) -> "tuple[Any, ...]":
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, index: int) -> Any:
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"Row{self._values!r}"

    def get(self, schema: Schema, name: str) -> Any:
        """Return the value of column ``name`` under ``schema``."""
        return self._values[schema.position(name)]

    def replace(self, schema: Schema, **updates: Any) -> "Row":
        """Return a copy with the named columns replaced."""
        values = list(self._values)
        for name, value in updates.items():
            values[schema.position(name)] = value
        return Row(values)

    def project(self, schema: Schema, names: Sequence[str]) -> "Row":
        """Return a row holding only the named columns, in order."""
        return Row(self._values[schema.position(name)] for name in names)


def _bitmap_size(column_count: int) -> int:
    return (column_count + 7) // 8


def encode_row(schema: Schema, row: Row) -> bytes:
    """Serialize ``row`` under ``schema``, validating it on the way.

    Layout: ``ceil(ncols/8)`` bytes of NULL bitmap (bit i set means column
    i is NULL) followed by the concatenated encodings of non-NULL values
    in schema order.  One walk makes the checks of
    :meth:`~repro.relation.schema.Schema.validate` and encodes each
    value as it passes; the first failing column raises as it would there.
    """
    columns = schema.columns
    values = row.values
    if len(values) != len(columns):
        raise SchemaError(f"expected {len(columns)} values, got {len(values)}")
    bitmap = 0
    parts = [b""]  # the bitmap's place
    for position, column in enumerate(columns):
        value = values[position]
        if value is not NULL:
            parts.append(column.ctype.checked_encode(value))
        elif not column.nullable:
            raise SchemaError(f"column {column.name!r} is not nullable")
        elif column.ctype.inline_null:
            parts.append(column.ctype.encode(value))
        else:
            bitmap |= 1 << position
    parts[0] = bitmap.to_bytes(_bitmap_size(len(columns)), "little")
    return b"".join(parts)


def decode_row(schema: Schema, data: bytes) -> Row:
    """Inverse of :func:`encode_row`."""
    bitmap_size = _bitmap_size(len(schema))
    if len(data) < bitmap_size:
        raise SchemaError("row image shorter than its NULL bitmap")
    values = []
    offset = bitmap_size
    for position, column in enumerate(schema):
        if data[position // 8] & (1 << (position % 8)):
            values.append(NULL)
        else:
            value, offset = column.ctype.decode(data, offset)
            values.append(value)
    return Row(values)


def encoded_size(schema: Schema, row: Row) -> int:
    """Size in bytes of the encoding of ``row`` (used for traffic accounting).

    :func:`encode_row`'s one walk costs what validating the row and then
    adding up its columns' sizes did, so the size is read off the bytes.
    """
    return len(encode_row(schema, row))


def encoded_fields_size(
    schema: Schema, positions: Sequence[int], values: Sequence[Any]
) -> int:
    """Encoded size of a *partial* row: the columns at ``positions`` only.

    The layout mirrors :func:`encode_row` restricted to the named
    columns — ``ceil(len(positions)/8)`` bytes of NULL bitmap over the
    selected columns, then each non-NULL value's encoding.  This is the
    value payload the per-column update-delta message charges on the
    wire: only the changed columns cross the link.
    """
    total = _bitmap_size(len(positions))
    for position, value in zip(positions, values):
        ctype = schema.columns[position].ctype
        if value is NULL and not ctype.inline_null:
            continue
        total += ctype.encoded_size(value)
    return total


def decode_fields(
    schema: Schema, data: bytes, positions: Sequence[int]
) -> "tuple[Any, ...]":
    """Decode only the columns at ``positions``, in the order given.

    The refresh scan needs the trailing ``$PREVADDR$``/``$TIMESTAMP$``
    annotations (and the restriction's columns) of every entry but the
    full row only for entries it actually transmits; decoding just those
    fields is what makes the scan cheap on unchanged data.

    Columns in the record's *fixed-width suffix* (every column at or
    after them is fixed-size) are decoded backward from the end of the
    record without touching anything else — the annotation columns, which
    are always appended last, hit this path in O(1).  Remaining columns
    are found with a forward walk that skips over unneeded values (via
    their length prefixes) instead of materializing them.
    """
    columns = schema.columns
    count = len(columns)
    bitmap_size = _bitmap_size(count)
    if len(data) < bitmap_size:
        raise SchemaError("row image shorter than its NULL bitmap")
    wanted = set(positions)
    found: "dict[int, Any]" = {}

    # Backward pass over the fixed-width suffix.
    end = len(data)
    for position in range(count - 1, -1, -1):
        if not wanted:
            break
        column = columns[position]
        ctype = column.ctype
        if not ctype.inline_null and data[position // 8] & (1 << (position % 8)):
            if position in wanted:
                found[position] = NULL
                wanted.discard(position)
            continue  # bitmap NULL occupies no body bytes
        size = ctype.fixed_size
        if size is None:
            break  # variable-width: cannot locate anything before it from the end
        end -= size
        if position in wanted:
            found[position], _ = ctype.decode(data, end)
            wanted.discard(position)

    # Forward walk for whatever the suffix pass could not reach.
    if wanted:
        limit = max(wanted)
        offset = bitmap_size
        for position in range(limit + 1):
            column = columns[position]
            ctype = column.ctype
            if not ctype.inline_null and data[position // 8] & (1 << (position % 8)):
                if position in wanted:
                    found[position] = NULL
                continue
            if position in wanted:
                found[position], offset = ctype.decode(data, offset)
            else:
                offset = ctype.skip(data, offset)
    return tuple(found[position] for position in positions)
