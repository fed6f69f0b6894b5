"""Schemas: ordered, named, typed columns with hidden-column support.

The paper's R* implementation adds "funny"-named extra fields
(``PrevAddr``/``TimeStamp``) to a base table when the first differential
snapshot is created; they live in the catalog next to user fields but are
hidden from user-level queries.  :class:`Schema` models that directly with
a per-column ``hidden`` flag and helpers to derive the visible sub-schema.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relation.types import NULL, ColumnType, type_for_name

if TYPE_CHECKING:
    from repro.relation.row import Codec


class Column:
    """One column: a name, a type, nullability, and a hidden flag."""

    __slots__ = ("name", "ctype", "nullable", "hidden")

    def __init__(
        self,
        name: str,
        ctype: "ColumnType | str",
        nullable: bool = False,
        hidden: bool = False,
    ) -> None:
        if not name:
            raise SchemaError("column name must be non-empty")
        if isinstance(ctype, str):
            ctype = type_for_name(ctype)
        self.name = name
        self.ctype = ctype
        self.nullable = nullable
        self.hidden = hidden

    def __repr__(self) -> str:
        flags = []
        if self.nullable:
            flags.append("nullable")
        if self.hidden:
            flags.append("hidden")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"Column({self.name!r}, {self.ctype.name}{suffix})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.ctype == other.ctype
            and self.nullable == other.nullable
            and self.hidden == other.hidden
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ctype, self.nullable, self.hidden))


class Schema:
    """An ordered collection of uniquely named columns.

    Supports:

    - positional and by-name column access,
    - validation of value sequences (including NULL checks),
    - projection to a sub-schema,
    - ``visible()`` to strip hidden (annotation) columns,
    - ``with_columns()`` to append columns, used when differential-refresh
      annotations are bolted onto an existing base table.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: "tuple[Column, ...]" = tuple(columns)
        if not self._columns:
            raise SchemaError("schema must have at least one column")
        self._index: "dict[str, int]" = {}
        for position, column in enumerate(self._columns):
            if column.name in self._index:
                raise SchemaError(f"duplicate column name: {column.name!r}")
            self._index[column.name] = position
        # Schemas are immutable and key hot memos (the batch's suffix
        # probes, the restriction parse cache): hash the columns once.
        self._hash = hash(self._columns)
        #: The rendered record codec, once ``relation.row`` has used it.
        self.codec: "Codec | None" = None

    @classmethod
    def of(cls, *specs: "tuple[str, str] | tuple[str, str, bool]") -> "Schema":
        """Build a schema from terse ``(name, typename[, nullable])`` tuples.

        >>> Schema.of(("name", "string"), ("salary", "int"))
        Schema(name: string, salary: int)
        """
        columns = []
        for spec in specs:
            if len(spec) == 2:
                name, typename = spec
                columns.append(Column(name, typename))
            else:
                name, typename, nullable = spec
                columns.append(Column(name, typename, nullable=nullable))
        return cls(columns)

    @property
    def columns(self) -> "tuple[Column, ...]":
        return self._columns

    @property
    def names(self) -> "tuple[str, ...]":
        return tuple(column.name for column in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}: {c.ctype.name}" for c in self._columns)
        return f"Schema({inner})"

    def position(self, name: str) -> int:
        """Return the position of ``name``, raising :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def column(self, name: str) -> Column:
        return self._columns[self.position(name)]

    def validate(self, values: Sequence[Any]) -> None:
        """Check a value sequence against this schema.

        Raises :class:`SchemaError` on arity mismatch and
        :class:`TypeMismatchError` (a subclass) on type/NULL violations.
        """
        if len(values) != len(self._columns):
            raise SchemaError(
                f"expected {len(self._columns)} values, got {len(values)}"
            )
        for column, value in zip(self._columns, values):
            if value is NULL:
                if not column.nullable:
                    raise SchemaError(f"column {column.name!r} is not nullable")
            else:
                column.ctype.validate(value)

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema containing only ``names``, in the given order."""
        return Schema(self.column(name) for name in names)

    def visible(self) -> "Schema":
        """Return the schema without hidden (annotation) columns."""
        return Schema(column for column in self._columns if not column.hidden)

    def hidden_names(self) -> "tuple[str, ...]":
        return tuple(c.name for c in self._columns if c.hidden)

    def with_columns(self, columns: Iterable[Column]) -> "Schema":
        """Return a new schema with ``columns`` appended (R*-style ALTER ADD)."""
        return Schema(self._columns + tuple(columns))
