"""Row values and their byte encoding.

A :class:`Row` is an immutable sequence of Python values matching a
:class:`~repro.relation.schema.Schema`.  The byte encoding is a NULL
bitmap followed by each non-NULL column's type-specific encoding; the same
bytes are stored in slotted pages and charged against the simulated
network channel, so storage sizes and message sizes agree by construction.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relation.schema import Schema
from repro.relation.types import NULL, PlanPiece


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
    in schema order.  :func:`walk_encode` is the definition; a row with
    no bitmap NULL whose every value is exactly its column's class is
    packed by the schema's rendered plan (:func:`_render`) instead, to
    the same bytes, and any other row is handed to the walk.
    """
    codec = schema.codec or _render(schema)
    return codec[0](row._values)


def decode_row(schema: Schema, data: bytes) -> Row:
    """Inverse of :func:`encode_row`: the plan where the NULL bitmap is
    all zero, :func:`walk_decode` otherwise."""
    codec = schema.codec or _render(schema)
    return codec[1](data)


def walk_encode(schema: Schema, values: "tuple[Any, ...]") -> bytes:
    """The record layout, column by column: definition and error path.

    One walk makes the checks of
    :meth:`~repro.relation.schema.Schema.validate` and encodes each
    value as it passes; the first failing column raises as it would there.
    """
    columns = schema.columns
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


def walk_decode(schema: Schema, data: bytes) -> Row:
    """Inverse of :func:`walk_encode`."""
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


#: What one schema's ``(encode, decode)`` pair looks like to callers.
Codec = Tuple[Callable[[Tuple[Any, ...]], bytes], Callable[[bytes], Row]]

_PLAN_SOURCE = """\
def encode(values):
    try:
        {names} = values
        if {guards}:
{blobs}
            return {packed}
    except (ValueError, _struct_error):
        pass
    return _row.walk_encode(_schema, values)

def decode(data):
    if data[:{bitmap_size}] == {no_nulls!r}:
        try:
{unpacking}
            return _Row(({values}))
        except _struct_error:
            pass
    return _row.walk_decode(_schema, data)
"""

_WALK_ONLY_SOURCE = """\
def encode(values):
    return _row.walk_encode(_schema, values)

def decode(data):
    return _row.walk_decode(_schema, data)
"""


def _render(schema: Schema) -> Codec:
    """Render ``schema``'s straight-line ``(encode, decode)`` and cache it
    on the schema (which is immutable, so a plan never goes stale).

    The source is built from what each column's type declares
    (:class:`~repro.relation.types.PlanPiece`) and compiled once, the way
    :mod:`repro.net.wirebatch` builds its decoders.  The record is cut
    into *runs*: the zero bitmap and every fixed-width field up to and
    including the next variable-width value's length prefix are one
    ``struct.Struct``; the value's bytes lie between two runs.  Whatever
    the fast path does not take — wrong arity, a bitmap NULL, a value not
    exactly of its column's class, a ``struct.error`` (an integer or a
    length out of range), a truncated image — goes to the walk, which
    encodes it or raises.  The walk is looked up on this module at call
    time, and nothing but the row decides which path runs.
    """
    namespace: "dict[str, Any]" = {
        "_row": sys.modules[__name__],
        "_schema": schema,
        "_Row": Row,
        "_NULL": NULL,
        "_struct_error": struct.error,
    }
    code = compile(_plan_source(schema, namespace), f"<row codec {schema!r}>", "exec")
    exec(code, namespace)  # noqa: S102 — source rendered from the types' pieces
    codec: Codec = (namespace["encode"], namespace["decode"])
    schema.codec = codec
    return codec


def _plan_source(schema: Schema, namespace: "dict[str, Any]") -> str:
    """Fill :data:`_PLAN_SOURCE` for ``schema``, adding the classes and the
    runs' ``Struct`` methods it names to ``namespace``; a type that
    declares no piece leaves the whole schema to the walk."""
    bitmap_size = _bitmap_size(len(schema))
    guards: "list[str]" = []  # encode: what the fast path asks of each value
    blobs: "list[str]" = []  # encode: binds each variable-width value's bytes
    packed: "list[str]" = []  # encode: the record's parts, runs and blobs
    unpacking: "list[str]" = []  # decode: statements binding fields and blobs
    values: "list[str]" = []  # decode: one expression per column
    # The open run: its struct codes, pack arguments and field names,
    # and where it starts, as ``dynamic + static``.
    codes = f"{bitmap_size}x"
    args: "list[str]" = []
    fields: "list[str]" = []
    static, dynamic = 0, ""

    def offset() -> str:
        if dynamic and static:
            return f"{dynamic} + {static}"
        return dynamic or str(static)

    def close_run() -> None:
        nonlocal codes, args, fields, static
        if fields:
            run, n = struct.Struct("<" + codes), len(unpacking)
            namespace[f"_pack{n}"] = run.pack
            namespace[f"_unpack{n}"] = run.unpack_from
            unpacking.append(f"{', '.join(fields)}, = _unpack{n}(data, {offset()})")
            packed.append(f"_pack{n}({', '.join(args)})")
            static += run.size
        codes, args, fields = "", [], []

    for i, column in enumerate(schema.columns):
        piece = column.ctype.plan_piece()
        if piece is None:
            return _WALK_ONLY_SOURCE
        v, b, cls = f"v{i}", f"b{i}", f"_class{i}"
        namespace[cls] = piece.exact
        f = [f"f{i}_{k}" for k in range(len(piece.codes))]
        guard = f"{v}.__class__ is {cls}"
        if piece.guard:
            guard += " and " + piece.guard.format(v=v)
        codes += piece.codes
        fields += f
        if piece.blob:
            blobs.append(f"{b} = {piece.pack[0].format(v=v)}")
            args.append(f"len({b})")
            close_run()
            unpacking.append(f"e{i} = {offset()} + {f[0]}")
            unpacking.append(f"{b} = data[{offset()}:e{i}]")
            packed.append(b)
            static, dynamic = 0, f"e{i}"
            value = piece.unpack.format(b=b)
        else:
            fills = [expression.format(v=v) for expression in piece.pack]
            value = _field_value(piece, f, cls)
            if piece.null is not None and column.nullable:
                guard = f"({v} is _NULL or {guard})"
                fills = [
                    f"{null} if {v} is _NULL else {fill}"
                    for null, fill in zip(piece.null, fills)
                ]
            args += fills
        guards.append(guard)
        values.append(value)
    close_run()

    def block(statements: "list[str]", depth: int) -> str:
        return "\n".join(" " * 4 * depth + statement for statement in statements)

    return _PLAN_SOURCE.format(
        names=", ".join(f"v{i}" for i in range(len(schema))) + ",",
        guards=" and ".join(guards),
        blobs=block(blobs, 3),
        packed=" + ".join(packed),
        bitmap_size=bitmap_size,
        no_nulls=bytes(bitmap_size),
        unpacking=block(unpacking, 3),
        values=", ".join(values) + ",",
    )


def _field_value(piece: PlanPiece, fields: "Sequence[str]", cls: str) -> str:
    """The value a fixed-width piece's unpacked ``fields`` hold: an
    inline NULL is a stored sentinel, told by its first field."""
    value = piece.unpack.format(f=fields, cls=cls)
    if piece.null is not None:
        value = f"_NULL if {fields[0]} == {piece.null[0]} else {value}"
    return value


#: What a rendered qualifier looks like to callers: the indices, among
#: those given, of the records that satisfy its restriction, ascending
#: as given.
Qualifier = Callable[[Sequence[bytes], Iterable[int]], "array[int]"]

_QUALIFIER_SOURCE = """\
def qualifying(bodies, indices):
    out = _array("I")
    append = out.append
    for i in indices:
        data = bodies[i]
{read}
{lines}
        if {test}:
            append(i)
    return out
"""


def render_qualifier(
    schema: Schema,
    positions: "Sequence[int]",
    lines: "Sequence[str]",
    test: str,
    namespace: "dict[str, Any]",
) -> Qualifier:
    """Render a restriction as one loop over stored records.

    Each record's columns at ``positions`` (ascending) are bound to the
    locals ``c<position>``; then ``lines`` run and the record qualifies
    where the expression ``test`` holds.  Both are the restriction's
    source (:meth:`repro.expr.nodes.Expr.fragment`), naming what it needs
    in ``namespace``.  The columns are unpacked with one ``Struct`` built
    from the types' :class:`~repro.relation.types.PlanPiece`\\ s: from the
    record's end when every column from the first wanted one on is
    fixed-width, else from its start when every column up to the last
    wanted one is.  A record with a bitmap NULL (which shifts what
    follows it), a layout neither way allows, or an image the read
    refuses takes :func:`decode_fields`, looked up on this module at call
    time.
    """
    namespace.update(
        _row=sys.modules[__name__],
        _schema=schema,
        _array=array,
        _struct_error=struct.error,
        _NULL=NULL,
    )
    source = _QUALIFIER_SOURCE.format(
        read=_indented(_qualifier_read(schema, positions, namespace), 2),
        lines=_indented(lines, 2),
        test=test,
    )
    code = compile(source, f"<qualifier {test}>", "exec")
    exec(code, namespace)  # noqa: S102 — source rendered from the types' pieces
    qualifying: Qualifier = namespace["qualifying"]
    return qualifying


def _indented(lines: "Sequence[str]", depth: int) -> str:
    return "\n".join(" " * 4 * depth + line for line in lines)


def _qualifier_read(
    schema: Schema, positions: "Sequence[int]", namespace: "dict[str, Any]"
) -> "List[str]":
    """Statements binding ``c<position>`` for each of ``positions`` off
    the record ``data``."""
    if not positions:
        return []
    names = ", ".join(f"c{position}" for position in positions)
    walk = f"{names}, = _row.decode_fields(_schema, data, {tuple(positions)!r})"
    bitmap_size = _bitmap_size(len(schema))
    from_end = range(positions[0], len(schema))
    from_start = range(positions[-1] + 1)
    unpack = _fixed_read(
        schema, from_end, positions, namespace, "", "len(data) - {size}"
    ) or _fixed_read(
        schema, from_start, positions, namespace, f"{bitmap_size}x", "0"
    )
    if unpack is None:
        return [walk]
    return [
        f"if data[:{bitmap_size}] == {bytes(bitmap_size)!r}:",
        "    try:",
        *["        " + line for line in unpack],
        "    except _struct_error:",
        f"        {walk}",
        "else:",
        f"    {walk}",
    ]


def _fixed_read(
    schema: Schema,
    span: "Iterable[int]",
    positions: "Sequence[int]",
    namespace: "dict[str, Any]",
    codes: str,
    offset: str,
) -> "Optional[List[str]]":
    """One ``Struct`` read of ``positions`` over the columns in ``span``
    (pad bytes over the unwanted ones), starting at ``offset`` — a format
    string over the struct's ``size`` — after the struct codes ``codes``;
    ``None`` when a column in ``span`` is variable-width or a wanted one
    declares no fixed-width piece."""
    wanted = set(positions)
    fields: "List[str]" = []
    values: "List[str]" = []
    for position in span:
        ctype = schema.columns[position].ctype
        if position not in wanted:
            if ctype.fixed_size is None:
                return None
            codes += f"{ctype.fixed_size}x"
            continue
        piece = ctype.plan_piece()
        if piece is None or piece.blob:
            return None
        codes += piece.codes
        if piece.unpack == "{f[0]}" and piece.null is None and len(piece.codes) == 1:
            fields.append(f"c{position}")
            continue
        f = [f"f{position}_{k}" for k in range(len(piece.codes))]
        fields += f
        cls = f"_class{position}"
        namespace[cls] = piece.exact
        values.append(f"c{position} = {_field_value(piece, f, cls)}")
    run = struct.Struct("<" + codes)
    namespace["_read"] = run.unpack_from
    start = offset.format(size=run.size)
    return [f"{', '.join(fields)}, = _read(data, {start})", *values]


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
