"""Column types and NULL semantics.

The paper's batch-maintenance scheme leans on the DBMS supporting NULL
fields ("Let us assume that the DBMS supports the notion of NULL fields in
table entries"), so NULL handling is first-class here: :data:`NULL` is a
distinct singleton rather than Python ``None``, which keeps "column is SQL
NULL" separate from "value absent" in internal plumbing.

Each concrete :class:`ColumnType` knows how to validate a Python value and
how to encode/decode it to bytes.  Encodings are length-prefixed where
needed so rows survive round trips through slotted pages and the simulated
network channel, and so message byte counts are honest.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, NamedTuple

from repro.errors import SchemaError, TypeMismatchError


class NullValue:
    """Singleton marker for SQL NULL.

    Use the module-level :data:`NULL` instance; constructing more is
    prevented so identity comparison (``value is NULL``) is always safe.
    """

    _instance = None

    def __new__(cls) -> "NullValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self) -> "tuple[type, tuple]":
        # Keep the singleton property through pickling.
        return (NullValue, ())


NULL = NullValue()


class PlanPiece(NamedTuple):
    """A type's share of a schema's rendered record codec, as data.

    :func:`repro.relation.row.encode_row` and ``decode_row`` run source
    rendered once per schema from these declarations; the renderer
    names no type.  ``pack``, ``unpack`` and ``guard`` are Python
    expressions with ``str.format`` fields: ``{v}`` is the value,
    ``{f[0]}``, ``{f[1]}``… the unpacked fields and ``{cls}`` the class
    ``exact``.  The fast path takes a value only if
    ``v.__class__ is exact`` and ``guard`` holds; every other value goes
    to the generic walk, which encodes it or raises.

    A ``blob`` piece is variable-width: ``pack[0]`` gives the value's
    bytes, the one field in ``codes`` is their length prefix, and
    ``unpack`` is over ``{b}``, the stored bytes.
    """

    #: One little-endian ``struct`` code character per stored field.
    codes: str
    exact: type
    #: Per field, the argument for ``Struct.pack``.
    pack: "tuple[str, ...]"
    unpack: str
    #: A check on ``{v}`` the struct codes leave open, if any.
    guard: str = ""
    #: Inline-NULL types: the field values that stand for NULL; a stored
    #: NULL is told by the first.
    null: "tuple[int, ...] | None" = None
    blob: bool = False


class ColumnType:
    """Abstract column type: validation plus byte encoding.

    Subclasses set :attr:`name` and :attr:`tag` (a single byte used in the
    wire format) and implement :meth:`validate`, :meth:`encode`, and
    :meth:`decode`.

    Types with :attr:`inline_null` set encode NULL *inside* their own
    fixed-width representation (via a sentinel) instead of through the
    row's NULL bitmap.  The differential-refresh annotation columns use
    this so that flipping an annotation between NULL and a real value
    never changes the record size — which is what lets the fix-up pass
    update records strictly in place.
    """

    name: str = "abstract"
    tag: int = 0
    inline_null: bool = False
    #: Encoded size in bytes when every value of the type occupies the
    #: same space, else ``None``.  Fixed-size columns can be located in a
    #: record image without decoding their neighbours, which is what lets
    #: :func:`repro.relation.row.decode_fields` read the trailing
    #: annotation fields of a record in O(1).
    fixed_size: "int | None" = None
    #: ``struct`` format code when a stored value *is* one little-endian
    #: ``struct`` field that needs no post-processing (so inline-NULL
    #: sentinel types have none), else ``None``.  Lets a batch probe
    #: read several such columns with one precompiled ``Struct``.
    struct_code: "str | None" = None

    def validate(self, value: Any) -> None:
        """Raise :class:`TypeMismatchError` unless ``value`` fits this type."""
        raise NotImplementedError

    def encode(self, value: Any) -> bytes:
        """Serialize a (validated, non-NULL) value to bytes."""
        raise NotImplementedError

    def checked_encode(self, value: Any) -> bytes:
        """:meth:`validate` then :meth:`encode`, as one call.

        A type whose checks already produce the bytes (or that a row
        holds many of) keeps its checks here and derives
        :meth:`validate` from this, so they exist once.
        """
        self.validate(value)
        return self.encode(value)

    def decode(self, data: bytes, offset: int) -> "tuple[Any, int]":
        """Deserialize one value starting at ``offset``.

        Returns ``(value, next_offset)``.
        """
        raise NotImplementedError

    def skip(self, data: bytes, offset: int) -> int:
        """Return the offset just past the value starting at ``offset``.

        Cheaper than :meth:`decode` for variable-width types that can
        read their length prefix without materializing the value.
        """
        if self.fixed_size is not None:
            return offset + self.fixed_size
        return self.decode(data, offset)[1]

    def encoded_size(self, value: Any) -> int:
        """Byte length of :meth:`encode` without materializing the bytes.

        Byte accounting (message sizes, per-column update deltas) asks
        for sizes far more often than it ships bytes; fixed-width types
        answer in O(1) and variable-width types compute from the value.
        The row-codec property test pins ``encoded_size`` to the length
        of the actual encoding for every type.
        """
        if self.fixed_size is not None:
            return self.fixed_size
        return len(self.encode(value))

    def plan_piece(self) -> "PlanPiece | None":
        """This type's share of a rendered record codec, or ``None``.

        A schema holding a type that declares nothing is encoded and
        decoded by the generic walk alone.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class IntType(ColumnType):
    """64-bit signed integer column."""

    name = "int"
    tag = 1
    fixed_size = 8
    struct_code = "q"
    _packer = struct.Struct("<q")

    def validate(self, value: Any) -> None:
        self.checked_encode(value)

    def encode(self, value: Any) -> bytes:
        return self._packer.pack(value)

    def checked_encode(self, value: Any) -> bytes:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"expected int, got {value!r}")
        if not (-(2**63) <= value < 2**63):
            raise TypeMismatchError(f"int out of 64-bit range: {value!r}")
        return self._packer.pack(value)

    def decode(self, data: bytes, offset: int) -> "tuple[int, int]":
        (value,) = self._packer.unpack_from(data, offset)
        return value, offset + self._packer.size

    def plan_piece(self) -> PlanPiece:
        return PlanPiece("q", int, ("{v}",), "{f[0]}")  # "q" range-checks


class FloatType(ColumnType):
    """IEEE-754 double column."""

    name = "float"
    tag = 2
    fixed_size = 8
    struct_code = "d"
    _packer = struct.Struct("<d")

    def validate(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"expected float, got {value!r}")

    def encode(self, value: Any) -> bytes:
        return self._packer.pack(float(value))

    def decode(self, data: bytes, offset: int) -> "tuple[float, int]":
        (value,) = self._packer.unpack_from(data, offset)
        return value, offset + self._packer.size

    def plan_piece(self) -> PlanPiece:
        return PlanPiece("d", float, ("{v}",), "{f[0]}")  # an int takes the walk


class StringType(ColumnType):
    """UTF-8 string column, length-prefixed with a 16-bit count."""

    name = "string"
    tag = 3
    _length = struct.Struct("<H")
    MAX_BYTES = 0xFFFF

    def validate(self, value: Any) -> None:
        self.checked_encode(value)

    def encode(self, value: Any) -> bytes:
        raw = value.encode("utf-8")
        return self._length.pack(len(raw)) + raw

    def checked_encode(self, value: Any) -> bytes:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected str, got {value!r}")
        raw = value.encode("utf-8")  # once: measured, then stored
        if len(raw) > self.MAX_BYTES:
            raise TypeMismatchError("string exceeds 65535 encoded bytes")
        return self._length.pack(len(raw)) + raw

    def decode(self, data: bytes, offset: int) -> "tuple[str, int]":
        (length,) = self._length.unpack_from(data, offset)
        start = offset + self._length.size
        end = start + length
        return data[start:end].decode("utf-8"), end

    def skip(self, data: bytes, offset: int) -> int:
        (length,) = self._length.unpack_from(data, offset)
        return offset + self._length.size + length

    def encoded_size(self, value: Any) -> int:
        return self._length.size + len(value.encode("utf-8"))

    def plan_piece(self) -> PlanPiece:
        # "H" refuses a length above MAX_BYTES.
        return PlanPiece("H", str, ("{v}.encode()",), "{b}.decode()", blob=True)


@lru_cache(maxsize=None)
def _rid_class() -> type:
    """:class:`~repro.storage.rid.Rid`, imported on first use and once.

    ``repro.storage`` imports this package while it initialises, so the
    import cannot sit at module level; it is not repeated per value.
    """
    from repro.storage.rid import Rid

    return Rid


class RidType(ColumnType):
    """A record address (:class:`~repro.storage.rid.Rid`) column.

    Fixed 8-byte encoding; NULL is the sentinel page number ``-2**31``.
    Used for the hidden ``$PREVADDR$`` annotation column.
    """

    name = "rid"
    tag = 4
    inline_null = True
    fixed_size = 8
    _packer = struct.Struct("<iI")
    _NULL_PAGE = -(2**31)

    def validate(self, value: Any) -> None:
        if not isinstance(value, _rid_class()):
            raise TypeMismatchError(f"expected Rid, got {value!r}")

    def encode(self, value: Any) -> bytes:
        if value is NULL:
            return self._packer.pack(self._NULL_PAGE, 0)
        return self._packer.pack(value.page_no, value.slot_no)

    def decode(self, data: bytes, offset: int) -> "tuple[Any, int]":
        page_no, slot_no = self._packer.unpack_from(data, offset)
        end = offset + self._packer.size
        if page_no == self._NULL_PAGE:
            return NULL, end
        return _rid_class()(page_no, slot_no), end

    def plan_piece(self) -> PlanPiece:
        return PlanPiece(
            "iI",
            _rid_class(),
            ("{v}.page_no", "{v}.slot_no"),
            "{cls}({f[0]}, {f[1]})",
            null=(self._NULL_PAGE, 0),
        )


class TimestampType(ColumnType):
    """A refresh timestamp column (non-negative 63-bit logical time).

    Fixed 8-byte encoding; NULL is the sentinel ``-2**63``.  Used for the
    hidden ``$TIMESTAMP$`` annotation column.
    """

    name = "timestamp"
    tag = 5
    inline_null = True
    fixed_size = 8
    _packer = struct.Struct("<q")
    _NULL_SENTINEL = -(2**63)

    def validate(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"expected int timestamp, got {value!r}")
        if not (0 <= value < 2**63):
            raise TypeMismatchError(f"timestamp out of range: {value!r}")

    def encode(self, value: Any) -> bytes:
        if value is NULL:
            return self._packer.pack(self._NULL_SENTINEL)
        return self._packer.pack(value)

    def decode(self, data: bytes, offset: int) -> "tuple[Any, int]":
        (value,) = self._packer.unpack_from(data, offset)
        end = offset + self._packer.size
        if value == self._NULL_SENTINEL:
            return NULL, end
        return value, end

    def plan_piece(self) -> PlanPiece:
        # "q" bounds it above; below zero lies the sentinel's half.
        return PlanPiece(
            "q", int, ("{v}",), "{f[0]}", guard="{v} >= 0", null=(self._NULL_SENTINEL,)
        )


_ALL_TYPES = (IntType, FloatType, StringType, RidType, TimestampType)
_TYPES_BY_NAME = {cls.name: cls for cls in _ALL_TYPES}
_TYPES_BY_TAG = {cls.tag: cls for cls in _ALL_TYPES}


def type_for_name(name: str) -> ColumnType:
    """Look up a column type by its catalog name (``int``/``float``/``string``)."""
    try:
        return _TYPES_BY_NAME[name]()
    except KeyError:
        raise SchemaError(f"unknown column type name: {name!r}") from None


def type_for_tag(tag: int) -> ColumnType:
    """Look up a column type by its single-byte wire tag."""
    try:
        return _TYPES_BY_TAG[tag]()
    except KeyError:
        raise SchemaError(f"unknown column type tag: {tag!r}") from None
