"""Restriction (SnapRestrict) and Projection (SnapProject) objects.

A :class:`Restriction` pairs a parsed predicate with a schema and a
compiled evaluator; calling it on a row answers "does this entry qualify
for the snapshot?".  SQL semantics apply: rows whose predicate evaluates
to UNKNOWN do **not** qualify.  Its :meth:`Restriction.qualifier` asks
the same of stored records, many at a time, from source rendered once.

A :class:`Projection` is an ordered subset of visible columns; it derives
the snapshot's value schema and extracts the projected values from base
rows.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Iterable, Optional, Sequence

from repro.errors import EvaluationError, SchemaError
from repro.expr.nodes import Expr, Literal, Scope, canonicalize, signature_text
from repro.expr.parser import parse_expression
from repro.relation.row import Qualifier, Row, decode_fields, render_qualifier
from repro.relation.schema import Schema


class Restriction:
    """A compiled predicate over a base-table schema.

    Restrictions are immutable once built, so :meth:`parse` memoizes
    the compiled form per ``(text, schema)``: a hot refresh loop (or a
    snapshot fleet sharing predicate text) re-lexes and re-compiles
    nothing — it gets the same compiled object back.
    """

    #: Compiled-restriction memo: (text, schema) -> Restriction.
    _parse_cache: "dict[tuple[str, Schema], Restriction]" = {}
    _parse_cache_limit = 512
    #: Cache hits (observable from tests and benchmarks).
    parse_cache_hits = 0

    def __init__(self, expr: Expr, schema: Schema) -> None:
        unknown = expr.columns() - set(schema.names)
        if unknown:
            raise EvaluationError(
                f"restriction references unknown columns: {sorted(unknown)}"
            )
        hidden = expr.columns() & set(schema.hidden_names())
        if hidden:
            raise EvaluationError(
                f"restriction may not reference hidden columns: {sorted(hidden)}"
            )
        # Canonicalize before compiling: reordered conjuncts and
        # normalized constants collapse to one representative, so the
        # parse memo, the page-cache keys (all derived from `.text`),
        # and the cohort signature agree on predicate identity.
        expr = canonicalize(expr)
        self.expr = expr
        self.schema = schema
        self._compiled = expr.compile(schema)
        #: Positions of the columns the predicate reads, ascending: all
        #: a caller need decode of an entry to evaluate it.
        self.positions: "tuple[int, ...]" = tuple(
            sorted(schema.position(name) for name in expr.columns())
        )
        # The round-tripped canonical predicate text, serialized once:
        # refresh paths key page caches by it on every call.
        self._text = expr.sql()
        # The '?'-masked structural form: same canonical shape over the
        # same columns, constants elided.  Cohort clustering keys on it.
        self._signature = signature_text(expr)
        self._qualifier: "Optional[tuple[Schema, Qualifier]]" = None

    @classmethod
    def parse(cls, text: str, schema: Schema) -> "Restriction":
        """Parse and compile ``text`` (e.g. ``"salary < 10"``), memoized.

        The memo is keyed twice: on the raw spelling (fast path for the
        common case of repeated identical text) and on the canonical
        text, so ``"a = 1 AND b = 2"`` and ``"b = 2 AND a = 1"`` share
        one compiled object — the same identity the cohort key sees.
        """
        key = (text, schema)
        cached = cls._parse_cache.get(key)
        if cached is not None:
            cls.parse_cache_hits += 1
            return cached
        restriction = cls(parse_expression(text), schema)
        canonical_key = (restriction.text, schema)
        existing = cls._parse_cache.get(canonical_key)
        if existing is not None:
            # Another spelling of the same predicate already
            # compiled; alias this spelling to the shared object.
            cls.parse_cache_hits += 1
            restriction = existing
        if len(cls._parse_cache) >= cls._parse_cache_limit:
            cls._parse_cache.clear()
        cls._parse_cache[canonical_key] = restriction
        if key != canonical_key:
            cls._parse_cache[key] = restriction
        return restriction

    @classmethod
    def clear_parse_cache(cls) -> None:
        cls._parse_cache.clear()
        cls.parse_cache_hits = 0

    @classmethod
    def true(cls, schema: Schema) -> "Restriction":
        """The unrestricted snapshot (every entry qualifies)."""
        return cls(Literal(True), schema)

    def __call__(self, row: "Row | Sequence[object]") -> bool:
        """True iff the row qualifies (UNKNOWN counts as not qualifying)."""
        values = row.values if isinstance(row, Row) else row
        return self._compiled(values) is True

    def qualifier(self, schema: Schema) -> Qualifier:
        """``qualifier(bodies, indices)``: the indices among ``indices``
        whose stored record (``bodies[index]``, encoded under ``schema``
        — this restriction's, or one that extends it, such as the table's
        once annotations are appended) satisfies the restriction, as an
        ``array``.

        The restriction's compiled form: each node's
        :meth:`~repro.expr.nodes.Expr.fragment` rendered, with the read
        of its columns, into one function
        (:func:`~repro.relation.row.render_qualifier`) the first time it
        is asked for, and kept for the last ``schema`` asked (equal
        schemas share a layout, so tables with equal schemas share it).
        It answers what :meth:`__call__` answers of the decoded row, and
        raises what it raises.  A node kind that renders no fragment, or
        source Python will not compile (nesting too deep), leaves the
        restriction to the interpreter.
        """
        cached = self._qualifier
        if cached is None or (cached[0] is not schema and cached[0] != schema):
            cached = self._qualifier = (schema, self._render(schema))
        return cached[1]

    def _render(self, schema: Schema) -> Qualifier:
        positions = tuple(sorted(schema.position(name) for name in self.expr.columns()))
        interpreted = partial(self._interpreted, schema, positions)
        scope = Scope(schema)
        try:
            fragment = self.expr.fragment(scope)
        except NotImplementedError:
            return interpreted
        test = fragment.code
        if fragment.kind is not bool or fragment.nulls:
            test = f"{test} is True"
        try:
            return render_qualifier(
                schema, positions, fragment.lines, test, scope.namespace
            )
        except SyntaxError:  # nested past what Python's parser takes
            return interpreted

    def _interpreted(
        self,
        schema: Schema,
        positions: "tuple[int, ...]",
        bodies: "Sequence[bytes]",
        indices: "Iterable[int]",
    ) -> "array[int]":
        """:meth:`qualifier` by the interpreter, on the decoded columns."""
        sparse: "list[object]" = [None] * len(schema)
        satisfying = array("I")
        for index in indices:
            values = decode_fields(schema, bodies[index], positions)
            for position, value in zip(positions, values):
                sparse[position] = value
            if self._compiled(sparse) is True:
                satisfying.append(index)
        return satisfying

    @property
    def text(self) -> str:
        return self._text

    @property
    def signature(self) -> str:
        """Canonical structure with constants masked (cohort key part)."""
        return self._signature

    def __repr__(self) -> str:
        return f"Restriction({self.text})"


class Projection:
    """An ordered subset of a schema's visible columns."""

    def __init__(self, schema: Schema, names: Optional[Sequence[str]] = None):
        visible = schema.visible().names
        if names is None:
            names = visible
        for name in names:
            if name not in schema:
                raise SchemaError(f"projection names unknown column {name!r}")
            if schema.column(name).hidden:
                raise SchemaError(f"projection may not include hidden {name!r}")
        if len(set(names)) != len(tuple(names)):
            raise SchemaError("projection has duplicate columns")
        self.base_schema = schema
        self.names: "tuple[str, ...]" = tuple(names)
        self.schema = schema.project(self.names)
        self._positions = tuple(schema.position(name) for name in self.names)

    def __call__(self, row: "Row | Sequence[object]") -> Row:
        """Extract the projected values from a base row."""
        values = row.values if isinstance(row, Row) else tuple(row)
        return Row(tuple(values[p] for p in self._positions))

    @property
    def is_identity(self) -> bool:
        """True when this projection keeps all visible columns in order."""
        return self.names == self.base_schema.visible().names

    def __repr__(self) -> str:
        return f"Projection({', '.join(self.names)})"
