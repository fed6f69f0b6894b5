"""The user-facing base table: rows, transactions, and annotations.

A :class:`Table` wraps a heap file with schema-aware, transactional
operations.  It also owns the paper's *annotation* machinery — the hidden
``$PREVADDR$`` and ``$TIMESTAMP$`` fields — in one of three modes:

``none``
    Plain table; no snapshot support beyond full refresh.

``lazy`` (the paper's final design)
    Inserts leave both fields NULL, updates NULL the timestamp, deletes
    just delete.  A fix-up pass at refresh time repairs the fields; base
    operations pay (almost) nothing for snapshot support.

``eager`` (the paper's intermediate design)
    The lazy rules plus a hook, :class:`~repro.core.eager.EagerChain`,
    that maintains the successor's ``PrevAddr``/``TimeStamp`` on every
    insert and delete and stamps the current time on every update.
    Costlier per operation — this is the variant whose "serious impact
    on operations" motivated batch maintenance — but refresh needs no
    fix-up.

Every write goes through one storage routine per operation:
:meth:`~Table.insert_record`, :meth:`~Table.rewrite_record`,
:meth:`~Table.delete_record` and :meth:`~Table.relocate_record`.  Each
does the heap write, tells the secondary indexes and calls the eager
hook, and nothing else.  Callers add what differs: user operations lock,
log and count; the receiver's system operations build their record under
the lazy rule and count; transaction undo and bulk load call them as is.

The annotation fields use inline-NULL fixed-width encodings, so flipping
them never changes a record's size and the fix-up pass can always update
in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from repro.errors import CatalogError, LockTimeoutError, PageFullError, SchemaError
from repro.relation.row import Row, decode_row, encode_row, patch_plan
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, RidType, TimestampType
from repro.storage.heap import HeapFile
from repro.storage.rid import Rid
from repro.storage.summary import PageSummaryMap
from repro.txn.locks import LockMode
from repro.txn.transactions import Transaction, TxnStatus, UndoInterface
from repro.txn.wal import LogRecordType

if TYPE_CHECKING:
    from repro.core.eager import EagerChain

# Read on every write, bound once (see txn/transactions.py).
_ACTIVE = TxnStatus.ACTIVE
_IX, _X = LockMode.IX, LockMode.X
_INSERT, _DELETE = LogRecordType.INSERT, LogRecordType.DELETE
_UPDATE = LogRecordType.UPDATE

#: "Funny" names for the annotation fields, per the R* implementation.
PREVADDR = "$PREVADDR$"
TIMESTAMP = "$TIMESTAMP$"

ANNOTATION_MODES = ("none", "lazy", "eager")

#: An annotation tail as an insert leaves it: NULL, NULL.
_NULL_TAIL = RidType().encode(NULL) + TimestampType().encode(NULL)


def annotation_columns() -> "tuple[Column, Column]":
    """The two hidden columns differential refresh adds to a base table."""
    return (
        Column(PREVADDR, RidType(), nullable=True, hidden=True),
        Column(TIMESTAMP, TimestampType(), nullable=True, hidden=True),
    )


class TableStats:
    """Operation counters used by the refresh cost model."""

    __slots__ = ("inserts", "updates", "deletes")

    def __init__(self) -> None:
        self.inserts = 0
        self.updates = 0
        self.deletes = 0

    @property
    def modifications(self) -> int:
        return self.inserts + self.updates + self.deletes

    def __repr__(self) -> str:
        return (
            f"TableStats(inserts={self.inserts}, updates={self.updates}, "
            f"deletes={self.deletes})"
        )


class Table(UndoInterface):
    """A named, schema'd, transactional table over a heap file."""

    def __init__(self, db: Any, name: str, schema: Schema, heap: HeapFile) -> None:
        if PREVADDR in schema or TIMESTAMP in schema:
            raise SchemaError(
                "user schemas may not use the reserved annotation names"
            )
        self.db = db
        self.name = name
        self.schema = schema  # full schema, including hidden columns if any
        #: The schema without hidden columns, rebuilt where ``schema`` is set.
        self.visible_schema = schema.visible()
        self.heap = heap
        self.annotation_mode = "none"
        self.stats = TableStats()
        #: Eager maintenance, called by every storage routine; ``None``
        #: unless the table is eager.
        self.eager: Optional[EagerChain] = None
        # Secondary indexes (repro.query.indexes); notified on mutation.
        self._indexes: "list[Any]" = []

    # -- schema views ---------------------------------------------------------

    @property
    def has_annotations(self) -> bool:
        return self.annotation_mode != "none"

    @property
    def row_count(self) -> int:
        return self.heap.record_count

    def __repr__(self) -> str:
        return (
            f"Table({self.name}, rows={self.row_count}, "
            f"annotations={self.annotation_mode})"
        )

    # -- secondary-index plumbing -------------------------------------------------

    def attach_index(self, index: Any) -> None:
        """Register a secondary index for mutation notifications."""
        self._indexes.append(index)

    def detach_index(self, index: Any) -> None:
        self._indexes.remove(index)

    @property
    def indexes(self) -> "tuple[Any, ...]":
        return tuple(self._indexes)

    def index_on(self, column: str) -> Optional[Any]:
        """The attached index over ``column``, if any (planner hook)."""
        for index in self._indexes:
            if index.column == column:
                return index
        return None

    # -- annotations -----------------------------------------------------------

    def enable_annotations(self, mode: str = "lazy") -> None:
        """Add the hidden fields and start maintaining them in ``mode``.

        Existing rows are rewritten with NULL annotations (R* adds the
        fields "without accessing all the entries"; we must rewrite
        because our row encoding is positional, but semantically the
        result is identical: old rows read as NULL/NULL).  Rows that no
        longer fit their page relocate — harmless, since no differential
        snapshot can exist before its base table is annotated.

        In eager mode every existing row is stamped with the current
        time and chained via ``PrevAddr``, as if just inserted.
        """
        if mode not in ("lazy", "eager"):
            raise CatalogError(f"unknown annotation mode: {mode!r}")
        if self.annotation_mode != "none":
            if self.annotation_mode == mode:
                return
            raise CatalogError(
                f"table {self.name!r} already annotated "
                f"({self.annotation_mode!r}); cannot switch to {mode!r}"
            )
        old_schema = self.schema
        new_schema = old_schema.with_columns(annotation_columns())
        # The rewrite's rows are in two schemas, so secondary indexes hear
        # nothing of it; they rebuild below (rows may have relocated).
        indexes, self._indexes = self._indexes, []
        self._rewrite_for_annotations(old_schema, new_schema)
        self._indexes = indexes
        self.schema = new_schema
        self.visible_schema = new_schema.visible()
        # THE annotation layout, taken as given below the table layer:
        # the two columns were appended just above and both types are
        # fixed 8-byte inline-NULL encodings, so every record ends in
        # PrevAddr then TimeStamp.  Repairs overwrite that tail in place
        # (HeapFile.write_annotations), batches and summaries read it
        # with one struct (ANNOTATION_TAIL), _overlay and the eager hook
        # slice it.
        self.annotation_mode = mode
        # Page summaries read the annotation tail, so they can only
        # exist from this point on; rebuild covers pre-existing rows.
        self.heap.attach_summaries(PageSummaryMap(self.db.clock.read))
        if mode == "eager":
            from repro.core.eager import EagerChain  # repro.core imports us

            self.eager = EagerChain(self.heap, self.db.clock)
        for index in indexes:
            index.rebuild()

    def _rewrite_for_annotations(self, old_schema: Schema, new_schema: Schema) -> None:
        outgrown = []
        for rid, body in list(self.heap.scan()):
            row = decode_row(old_schema, body)
            new_body = encode_row(new_schema, Row(row.values + (NULL, NULL)))
            try:
                self.rewrite_record(rid, lambda stored: new_body)
            except PageFullError:
                outgrown.append((rid, body, new_body))
        for rid, body, new_body in outgrown:
            self.relocate_record(rid, body, new_body)

    def annotations(self, rid: Rid) -> "tuple[Any, Any]":
        """Return ``(PrevAddr, TimeStamp)`` for the row at ``rid``."""
        self._require_annotations()
        prev, ts = decode_row(self.schema, self.heap.read(rid)).values[-2:]
        return prev, ts

    def set_annotations(self, rid: Rid, **fields: Any) -> None:
        """Directly overwrite annotation fields (fix-up primitive).

        Accepts ``prev`` and/or ``ts``; writes in place without logging —
        annotation repair is maintenance, not a user update, and must not
        itself look like a base-table modification.  The rest of the
        record is neither read nor rewritten.
        """
        self._require_annotations()
        unknown = set(fields) - {"prev", "ts"}
        if unknown:
            raise SchemaError(f"unknown annotation fields: {sorted(unknown)}")
        prev_column, ts_column = self.schema.columns[-2:]
        self.heap.write_annotations(
            rid,
            prev_column.ctype.encode(fields["prev"]) if "prev" in fields else None,
            ts_column.ctype.encode(fields["ts"]) if "ts" in fields else None,
        )

    def _require_annotations(self) -> None:
        if not self.has_annotations:
            raise CatalogError(f"table {self.name!r} has no annotations")

    # -- encode/decode helpers -------------------------------------------------

    def _full_row(self, visible_values: Sequence[Any]) -> Row:
        """The row of ``visible_values``, NULL-annotated if annotated."""
        visible = self.visible_schema
        if len(visible_values) != len(visible):
            raise SchemaError(
                f"expected {len(visible)} values, got {len(visible_values)}"
            )
        if self.has_annotations:
            return Row((*visible_values, NULL, NULL))
        return Row(tuple(visible_values))

    def _overlay(
        self,
        stored: bytes,
        values: "Sequence[Any]",
        positions: "Optional[Sequence[int]]",
    ) -> bytes:
        """The record ``stored`` with ``values[i]`` in column
        ``positions[i]`` (``positions=None``: ``values`` is every column
        but the annotations, in schema order), under the lazy update
        rule: ``PrevAddr`` as stored, ``TimeStamp`` NULL.  ``encode_row``
        validates, so a rejected row raises here, before any write.
        """
        annotated = self.has_annotations
        schema = self.schema
        if positions is None:
            if not annotated:
                return encode_row(schema, Row(values))
            fresh = encode_row(schema, Row([*values, NULL, NULL]))
            return fresh[:-16] + stored[-16:-8] + fresh[-8:]
        # The compiled plan of what follows, where it applies: the
        # changed fixed-width columns (and the NULL TimeStamp) spliced in.
        if annotated:
            key, given = (*positions, len(schema) - 1), (*values, NULL)
        else:
            key, given = tuple(positions), values
        patch = patch_plan(schema, key)
        if patch is not None:
            body = patch(stored, given)
            if body is not None:
                return body
        new = list(self._decode(stored).values)
        for position, value in zip(positions, values):
            new[position] = value
        if annotated:
            new[-1] = NULL
        return encode_row(schema, Row(new))

    def _as_inserted(self, body: bytes) -> bytes:
        """``body`` with the annotations an insert leaves (what a
        relocation stores)."""
        return body[:-16] + _NULL_TAIL if self.has_annotations else body

    def _decode(self, body: bytes) -> Row:
        return decode_row(self.schema, body)

    def _visible(self, row: Row) -> Row:
        if self.has_annotations:
            return Row(row.values[: len(self.visible_schema)])
        return row

    # -- storage routines --------------------------------------------------------

    # One per operation.  Each does the heap write, tells the secondary
    # indexes and calls the eager hook, and nothing else: locks, the log,
    # counters and how the record is built are the callers'.

    def insert_record(self, body: bytes, rid: Optional[Rid] = None) -> Rid:
        """Store ``body`` at the lowest address that holds it, or at the
        free address ``rid``; return its address."""
        if rid is None:
            rid = self.heap.insert(body)
        else:
            self.heap.insert_at(rid, body)
        if self._indexes:
            values = self._decode(body).values
            for index in self._indexes:
                index.on_insert(rid, values)
        if self.eager is not None:
            self.eager.inserted(rid)
        return rid

    def rewrite_record(
        self, rid: Rid, decide: "Callable[[bytes], Optional[bytes]]"
    ) -> Optional[bytes]:
        """Replace the record at ``rid`` by ``decide(stored)`` under one
        pin of its page (``None``: write nothing); return what was written.

        Raises :class:`~repro.errors.PageFullError`, having written
        nothing, when the new record outgrows the page: the caller then
        moves it (:meth:`relocate_record`).
        """
        eager, stored = self.eager, b""
        if eager is None and not self._indexes:
            # Nothing to stamp or tell: straight to the heap, sparing a
            # user update the wrapper's closure and call (EXPERIMENTS A21).
            return self.heap.rewrite(rid, decide)

        def write(before: bytes) -> Optional[bytes]:
            nonlocal stored
            stored = before
            body = decide(before)
            if body is None or eager is None:
                return body
            return eager.stamped(before, body)

        body = self.heap.rewrite(rid, write)
        if body is not None and self._indexes:
            old, new = self._decode(stored).values, self._decode(body).values
            for index in self._indexes:
                index.on_update(rid, old, rid, new)
        return body

    def delete_record(self, rid: Rid, before: Optional[bytes] = None) -> None:
        """Free the address ``rid``; ``before`` is its record, if the
        caller has read it."""
        if before is None and (self._indexes or self.eager is not None):
            before = self.heap.read(rid)
        self.heap.delete(rid)
        if self._indexes:
            values = self._decode(before).values
            for index in self._indexes:
                index.on_delete(rid, values)
        if self.eager is not None:
            self.eager.deleted(rid, before)

    def relocate_record(self, rid: Rid, before: bytes, body: bytes) -> Rid:
        """Move a record that outgrew its page: delete ``before`` from
        ``rid`` and insert ``body`` where it fits; return the new address.
        The pair reads exactly like a real delete and insert."""
        self.delete_record(rid, before)
        return self.insert_record(body)

    # -- transactional operations ----------------------------------------------

    def _resolve_txn(self, txn: Optional[Transaction]):
        """Return ``(txn, own)``, ``own`` the transaction begun here, if any."""
        if txn is not None:
            txn._require_active()
            return txn, None
        own = self.db.txns.begin()
        return own, own

    def _finish(self, own, error: Optional[BaseException]) -> None:
        if own is not None and own.status is _ACTIVE:
            if error is None:
                self.db.txns.commit(own)
            else:
                self.db.txns.abort(own)

    def _lock_for_write(self, txn: Transaction, rid: Rid) -> None:
        self.db.locks.acquire(txn.owner, ("table", self.name), _IX)
        self.db.locks.acquire(txn.owner, ("row", self.name, rid), _X)

    def _claim(self, txn: Transaction, rid: Rid) -> None:
        """X-lock the address a record was just stored at (under the
        table's IX lock); a slot a transaction's delete still holds is
        given back."""
        try:
            self.db.locks.acquire(txn.owner, ("row", self.name, rid), _X)
        except LockTimeoutError:
            self.delete_record(rid)
            raise

    def insert(
        self, values: Sequence[Any], txn: Optional[Transaction] = None
    ) -> Rid:
        """Insert a row (visible values only); return its address.

        Lazy mode leaves annotations NULL/NULL — "Insert operations will
        set the PrevAddr and TimeStamp fields to NULL and insert the
        entry into some empty address of the base table."  The log holds
        the record as inserted; an eager table's hook then stamps it.
        """
        txn, own = self._resolve_txn(txn)
        try:
            body = encode_row(self.schema, self._full_row(values))
            self.db.locks.acquire(txn.owner, ("table", self.name), _IX)
            rid = self.insert_record(body)
            self._claim(txn, rid)
            self.db.txns.record_operation(txn, _INSERT, self.name, rid, None, body)
            self.stats.inserts += 1
        except BaseException as exc:
            self._finish(own, exc)
            raise
        self._finish(own, None)
        return rid

    def update(
        self,
        rid: Rid,
        changes: "dict[str, Any]",
        txn: Optional[Transaction] = None,
    ) -> Rid:
        """Update visible columns of the row at ``rid``; return its address.

        Lazy mode NULLs the timestamp ("Update operations will simply set
        the TimeStamp field to NULL"); eager mode stamps the current
        time.  If the grown record no longer fits its page the update
        degrades to delete+insert (new address) — the annotation scheme
        handles that pair exactly like a real delete and insert.
        """
        schema = self.schema
        positions = []
        for name in changes:
            positions.append(schema.position(name))
            if schema.columns[positions[-1]].hidden:
                raise SchemaError(f"cannot update hidden column {name!r}")
        values = changes.values()
        txn, own = self._resolve_txn(txn)
        before = after = b""

        def decide(stored: bytes) -> bytes:
            nonlocal before, after
            before = stored
            after = self._overlay(stored, values, positions)
            return after

        try:
            self._lock_for_write(txn, rid)
            try:
                body = self.rewrite_record(rid, decide)
                self.db.txns.record_operation(
                    txn, _UPDATE, self.name, rid, before, body
                )
            except PageFullError:
                fresh = self._as_inserted(after)
                new_rid = self.relocate_record(rid, before, fresh)
                self.db.txns.record_operation(
                    txn, _DELETE, self.name, rid, before, None
                )
                self._claim(txn, new_rid)
                self.db.txns.record_operation(
                    txn, _INSERT, self.name, new_rid, None, fresh
                )
                rid = new_rid
            self.stats.updates += 1
        except BaseException as exc:
            self._finish(own, exc)
            raise
        self._finish(own, None)
        return rid

    def delete(self, rid: Rid, txn: Optional[Transaction] = None) -> None:
        """Delete the row at ``rid``.

        Lazy mode: "Delete operations on the base table will be
        unaffected by the snapshots — the base table entry is simply
        deleted."
        """
        txn, own = self._resolve_txn(txn)
        try:
            self._lock_for_write(txn, rid)
            before = self.heap.read(rid)
            self.delete_record(rid, before)
            self.db.txns.record_operation(txn, _DELETE, self.name, rid, before, None)
            self.stats.deletes += 1
        except BaseException as exc:
            self._finish(own, exc)
            raise
        self._finish(own, None)

    # -- system operations --------------------------------------------------------

    # The paper's R* implementation needed "special runtime routines ...
    # to implement the differential refresh algorithm" because the
    # algorithm manipulates entry addresses and hidden fields below the
    # query-language level.  These are those routines: they accept
    # hidden non-annotation columns (e.g. the snapshot's $BASEADDR$),
    # maintain lazy annotations exactly like user operations, but skip
    # the WAL and lock manager — they are internal maintenance, not user
    # transactions.

    def _refuse_eager(self, operation: str) -> None:
        """Receiver writes and bulk loads serve lazy and plain tables; an
        eager table is written by transactions."""
        if self.eager is not None:
            raise CatalogError(f"{operation} is not supported on eager tables")

    def system_insert_values(self, values: Sequence[Any]) -> Rid:
        """Insert a row given every non-annotation column's value (hidden
        ones included) in schema order; annotations start NULL."""
        self._refuse_eager("system operations")
        row = Row((*values, NULL, NULL) if self.has_annotations else values)
        rid = self.insert_record(encode_row(self.schema, row))
        self.stats.inserts += 1
        return rid

    def system_update_values(
        self,
        rid: Rid,
        values: Sequence[Any],
        positions: "Optional[Sequence[int]]" = None,
    ) -> Optional[Rid]:
        """Set non-annotation columns of the row at ``rid`` under one pin
        of its page: ``values[i]`` goes to column ``positions[i]``, or
        ``values`` is every such column in schema order.

        Returns ``None``, having written nothing, when the row already
        holds these values: a non-change leaves no NULL-``TimeStamp``
        breadcrumb for a cascaded snapshot to chase.  Otherwise returns
        the row's address (a new one when the grown record relocated).
        """
        self._refuse_eager("system operations")
        cut = -16 if self.has_annotations else None  # where annotations start
        before = after = b""

        def decide(stored: bytes) -> Optional[bytes]:
            nonlocal before, after
            before = stored
            after = self._overlay(stored, values, positions)
            return None if after[:cut] == stored[:cut] else after

        try:
            if self.rewrite_record(rid, decide) is None:
                return None
        except PageFullError:
            rid = self.relocate_record(rid, before, self._as_inserted(after))
        self.stats.updates += 1
        return rid

    def system_delete(self, rid: Rid) -> None:
        """Delete a row without logging ("delete just deletes")."""
        self.delete_record(rid)
        self.stats.deletes += 1

    # -- bulk loading ------------------------------------------------------------

    def bulk_load(self, rows: "Sequence[Sequence[Any]]") -> "list[Rid]":
        """Insert many rows without logging or locking (initial loads).

        Bypasses the WAL and lock manager the way a utility load would;
        annotations (if lazy) are NULL/NULL, exactly as if freshly
        inserted.
        """
        self._refuse_eager("bulk_load")
        rids = []
        for values in rows:
            body = encode_row(self.schema, self._full_row(values))
            rids.append(self.insert_record(body))
            self.stats.inserts += 1
        return rids

    def truncate(self) -> int:
        """Delete every row (no logging); keeps schema and storage.

        Rows are removed through the delete routine, so page summaries,
        indexes and an eager chain stay maintained.
        """
        removed = 0
        for rid in list(self.heap.scan_rids()):
            self.system_delete(rid)
            removed += 1
        return removed

    # -- reads -------------------------------------------------------------------

    def read(self, rid: Rid, visible: bool = True) -> Row:
        """Return the row at ``rid`` (hidden columns stripped by default)."""
        row = self._decode(self.heap.read(rid))
        return self._visible(row) if visible else row

    def exists(self, rid: Rid) -> bool:
        return self.heap.exists(rid)

    def scan(self, visible: bool = True) -> "Iterator[tuple[Rid, Row]]":
        """Yield ``(rid, row)`` in address order."""
        for rid, body in self.heap.scan():
            row = self._decode(body)
            yield rid, (self._visible(row) if visible else row)

    def scan_full(self) -> "Iterator[tuple[Rid, Row]]":
        """Address-order scan including hidden columns (refresh uses this)."""
        return self.scan(visible=False)

    def estimate_selectivity(self, predicate, sample: int = 256) -> float:
        """Fraction of (up to ``sample``) sampled rows satisfying ``predicate``.

        Samples every ``ceil(total/sample)``-th row across the *whole*
        live address range rather than the first ``sample`` rows: tables
        are often clustered in address order (loads, monotone keys), and
        a prefix sample then wildly over- or under-estimates.  Skipped
        rows are never decoded.
        """
        total = self.row_count
        if total == 0:
            return 0.0
        stride = max(1, -(-total // sample))
        seen = 0
        hits = 0
        for index, (_, body) in enumerate(self.heap.scan()):
            if index % stride:
                continue
            row = self._visible(self._decode(body))
            seen += 1
            if predicate(row):
                hits += 1
            if seen >= sample:
                break
        return hits / seen if seen else 0.0
