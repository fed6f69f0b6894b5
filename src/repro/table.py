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
    Inserts and deletes maintain the successor's ``PrevAddr``/
    ``TimeStamp`` immediately; updates stamp the current time.  Costlier
    per operation — this is the variant whose "serious impact on
    operations" motivated batch maintenance — but refresh needs no
    fix-up.

The annotation fields use inline-NULL fixed-width encodings, so flipping
them never changes a record's size and the fix-up pass can always update
in place.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.errors import (
    CatalogError,
    InternalError,
    LockTimeoutError,
    PageFullError,
    SchemaError,
)
from repro.relation.row import Row, decode_row, encode_row
from repro.relation.schema import Column, Schema
from repro.relation.types import NULL, RidType, TimestampType
from repro.storage.btree import BPlusTree
from repro.storage.heap import HeapFile
from repro.storage.rid import Rid
from repro.storage.summary import PageSummaryMap
from repro.txn.locks import LockMode
from repro.txn.transactions import Transaction, TxnStatus, UndoInterface
from repro.txn.wal import LogRecordType

# Read on every write, bound once (see txn/transactions.py).
_ACTIVE = TxnStatus.ACTIVE
_IX, _X = LockMode.IX, LockMode.X

#: "Funny" names for the annotation fields, per the R* implementation.
PREVADDR = "$PREVADDR$"
TIMESTAMP = "$TIMESTAMP$"

ANNOTATION_MODES = ("none", "lazy", "eager")


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
        # Live-address index; maintained only in eager mode, where insert
        # and delete must find the successor entry.
        self._live: Optional[BPlusTree] = None
        self._prev_pos: Optional[int] = None
        self._ts_pos: Optional[int] = None
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

    def _notify_insert(self, rid: Rid, values: "tuple") -> None:
        for index in self._indexes:
            index.on_insert(rid, values)

    def _notify_delete(self, rid: Rid, values: "tuple") -> None:
        for index in self._indexes:
            index.on_delete(rid, values)

    def _notify_update(
        self, old_rid: Rid, old_values: "tuple", new_rid: Rid, new_values: "tuple"
    ) -> None:
        for index in self._indexes:
            index.on_update(old_rid, old_values, new_rid, new_values)

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
        time and chained via ``PrevAddr``, as if just bulk-loaded.
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
        self._rewrite_for_annotations(old_schema, new_schema, mode)
        self.schema = new_schema
        self.visible_schema = new_schema.visible()
        self._prev_pos = new_schema.position(PREVADDR)
        self._ts_pos = new_schema.position(TIMESTAMP)
        # THE annotation layout, taken as given below the table layer:
        # the two columns were appended just above and both types are
        # fixed 8-byte inline-NULL encodings, so every record ends in
        # PrevAddr then TimeStamp.  Repairs overwrite that tail in place
        # (HeapFile.write_annotations), batches and summaries read it
        # with one struct (ANNOTATION_TAIL), system_update_values slices it.
        self.annotation_mode = mode
        # Page summaries read the annotation tail, so they can only
        # exist from this point on; rebuild covers pre-existing rows.
        self.heap.attach_summaries(PageSummaryMap(self.db.clock.read))
        if mode == "eager":
            self._live = BPlusTree(order=64)
            self._chain_all()
        # The rewrite may have relocated rows; secondary indexes rebuild.
        for index in self._indexes:
            index.rebuild()

    def _rewrite_for_annotations(
        self, old_schema: Schema, new_schema: Schema, mode: str
    ) -> None:
        relocations = []
        for rid, body in list(self.heap.scan()):
            row = decode_row(old_schema, body)
            extended = Row(row.values + (NULL, NULL))
            new_body = encode_row(new_schema, extended)
            try:
                self.heap.update(rid, new_body)
            except PageFullError:
                relocations.append((rid, new_body))
        for rid, new_body in relocations:
            self.heap.delete(rid)
            self.heap.insert(new_body)

    def _chain_all(self) -> None:
        """Stamp and chain every row (eager-mode bootstrap)."""
        live = self._require_live()
        now = self.db.clock.tick()
        prev = Rid.BEGIN
        for rid, body in self.heap.scan():
            row = decode_row(self.schema, body)
            stamped = row.replace(self.schema, **{PREVADDR: prev, TIMESTAMP: now})
            self.heap.update(rid, encode_row(self.schema, stamped))
            live.insert(rid.key(), rid)
            prev = rid

    def annotations(self, rid: Rid) -> "tuple[Any, Any]":
        """Return ``(PrevAddr, TimeStamp)`` for the row at ``rid``."""
        self._require_annotations()
        row = decode_row(self.schema, self.heap.read(rid))
        return row[self._prev_pos], row[self._ts_pos]

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

    def _require_live(self) -> BPlusTree:
        if self._live is None:
            raise InternalError(
                f"table {self.name!r}: eager-mode maintenance invoked "
                "without a live-address index"
            )
        return self._live

    # -- encode/decode helpers -------------------------------------------------

    def _full_row(self, visible_values: Sequence[Any], prev: Any, ts: Any) -> Row:
        visible = self.visible_schema
        if len(visible_values) != len(visible):
            raise SchemaError(
                f"expected {len(visible)} values, got {len(visible_values)}"
            )
        if self.has_annotations:
            return Row(tuple(visible_values) + (prev, ts))
        return Row(tuple(visible_values))

    def _decode(self, body: bytes) -> Row:
        return decode_row(self.schema, body)

    def _visible(self, row: Row) -> Row:
        if self.has_annotations:
            return Row(row.values[: len(self.visible_schema)])
        return row

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

    def _locked_insert(self, txn: Transaction, body: bytes) -> Rid:
        """Heap-insert ``body`` under the table IX lock and X-lock its
        address; a slot a transaction's delete still holds is given back."""
        self.db.locks.acquire(txn.owner, ("table", self.name), _IX)
        rid = self.heap.insert(body)
        try:
            self.db.locks.acquire(txn.owner, ("row", self.name, rid), _X)
        except LockTimeoutError:
            self.heap.delete(rid)
            raise
        return rid

    def insert(
        self, values: Sequence[Any], txn: Optional[Transaction] = None
    ) -> Rid:
        """Insert a row (visible values only); return its address.

        Lazy mode leaves annotations NULL/NULL — "Insert operations will
        set the PrevAddr and TimeStamp fields to NULL and insert the
        entry into some empty address of the base table."
        """
        txn, own = self._resolve_txn(txn)
        try:
            if self.annotation_mode == "eager":
                rid = self._eager_insert(values, txn)
            else:
                row = self._full_row(values, NULL, NULL)
                body = encode_row(self.schema, row)
                rid = self._locked_insert(txn, body)
                self.db.txns.record_operation(
                    txn, LogRecordType.INSERT, self.name, rid, None, body
                )
                self._notify_insert(rid, row.values)
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
        txn, own = self._resolve_txn(txn)
        before = old_values = new_row = None

        def decide(stored: bytes) -> bytes:
            # encode_row validates: a rejected row raises before any write.
            nonlocal before, old_values, new_row
            before = stored
            old_values = self._decode(stored).values
            values = list(old_values)
            for position, value in zip(positions, changes.values()):
                values[position] = value
            if self.annotation_mode == "lazy":
                values[self._ts_pos] = NULL
            elif self.annotation_mode == "eager":
                values[self._ts_pos] = self.db.clock.tick()
            new_row = Row(values)
            return encode_row(schema, new_row)

        try:
            self._lock_for_write(txn, rid)
            try:
                body = self.heap.rewrite(rid, decide)
                self.db.txns.record_operation(
                    txn, LogRecordType.UPDATE, self.name, rid, before, body
                )
                self._notify_update(rid, old_values, rid, new_row.values)
                result = rid
            except PageFullError:
                result = self._relocating_update(txn, rid, before, new_row)
            self.stats.updates += 1
        except BaseException as exc:
            self._finish(own, exc)
            raise
        self._finish(own, None)
        return result

    def _relocating_update(
        self, txn: Transaction, rid: Rid, before: bytes, new_row: Row
    ) -> Rid:
        """Delete+insert fallback when an updated record outgrows its page."""
        if self.annotation_mode == "eager":
            self._eager_delete_maintenance(txn, rid)
        self.heap.delete(rid)
        if self._live is not None:
            self._live.delete(rid.key())
        self.db.txns.record_operation(
            txn, LogRecordType.DELETE, self.name, rid, before, None
        )
        if self._indexes:
            self._notify_delete(rid, self._decode(before).values)
        if self.annotation_mode == "eager":
            visible_count = len(self.visible_schema)
            return self._eager_insert(new_row.values[:visible_count], txn)
        if self.annotation_mode == "lazy":
            new_row = new_row.replace(
                self.schema, **{PREVADDR: NULL, TIMESTAMP: NULL}
            )
        body = encode_row(self.schema, new_row)
        new_rid = self._locked_insert(txn, body)
        self.db.txns.record_operation(
            txn, LogRecordType.INSERT, self.name, new_rid, None, body
        )
        self._notify_insert(new_rid, new_row.values)
        return new_rid

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
            if self.annotation_mode == "eager":
                self._eager_delete_maintenance(txn, rid)
            self.heap.delete(rid)
            if self._live is not None:
                self._live.delete(rid.key())
            self.db.txns.record_operation(
                txn, LogRecordType.DELETE, self.name, rid, before, None
            )
            if self._indexes:
                self._notify_delete(rid, self._decode(before).values)
            self.stats.deletes += 1
        except BaseException as exc:
            self._finish(own, exc)
            raise
        self._finish(own, None)

    # -- eager-mode maintenance -------------------------------------------------

    def _successor(self, rid: Rid) -> Optional[Rid]:
        for _, value in self._require_live().range(lo=rid.key(), include_lo=False):
            return value
        return None

    def _predecessor(self, rid: Rid) -> Optional[Rid]:
        item = self._require_live().floor_item(rid.key())
        return item[1] if item is not None else None

    def _eager_insert(self, values: Sequence[Any], txn: Transaction) -> Rid:
        """Insert with immediate PrevAddr/TimeStamp maintenance.

        "When an entry is inserted, the PrevAddr of the new entry must be
        set to the value of the PrevAddr from the next entry in the base
        table, and the PrevAddr in the next entry must be set to the
        address of the new entry."
        """
        live = self._require_live()
        now = self.db.clock.tick()
        # Insert with placeholder annotations, then fix once the address
        # is known (the heap chooses placement).
        row = self._full_row(values, NULL, now)
        body = encode_row(self.schema, row)
        rid = self._locked_insert(txn, body)
        successor = self._successor(rid)
        if successor is not None:
            succ_prev, _ = self.annotations(successor)
            self.set_annotations(rid, prev=succ_prev)
            self.set_annotations(successor, prev=rid)
        else:
            predecessor = self._predecessor(rid)
            self.set_annotations(
                rid, prev=predecessor if predecessor is not None else Rid.BEGIN
            )
        live.insert(rid.key(), rid)
        final = self.heap.read(rid)
        self.db.txns.record_operation(
            txn, LogRecordType.INSERT, self.name, rid, None, final
        )
        self._notify_insert(rid, self._decode(final).values)
        return rid

    def _eager_delete_maintenance(self, txn: Transaction, rid: Rid) -> None:
        """Propagate a delete to the successor's annotations.

        "When an entry is deleted, the PrevAddr and TimeStamp fields of
        the succeeding base table entry must be updated with the PrevAddr
        from the deleted entry and the current time."
        """
        prev, _ = self.annotations(rid)
        successor = self._successor(rid)
        if successor is not None:
            self.set_annotations(successor, prev=prev, ts=self.db.clock.tick())

    # -- system operations --------------------------------------------------------

    # The paper's R* implementation needed "special runtime routines ...
    # to implement the differential refresh algorithm" because the
    # algorithm manipulates entry addresses and hidden fields below the
    # query-language level.  These are those routines: they accept
    # hidden non-annotation columns (e.g. the snapshot's $BASEADDR$),
    # maintain lazy annotations exactly like user operations, but skip
    # the WAL and lock manager — they are internal maintenance, not user
    # transactions.

    def system_insert(self, values_by_name: "dict[str, Any]") -> Rid:
        """Insert a row given per-column values (hidden columns allowed)."""
        # The annotations, when present, are the schema's last two columns
        # and the record's last two 8-byte fields (see enable_annotations).
        columns = self.schema.columns[: -2 if self.has_annotations else None]
        return self.system_insert_values(
            [values_by_name[column.name] for column in columns]
        )

    def system_insert_values(self, values: Sequence[Any]) -> Rid:
        """:meth:`system_insert` given every non-annotation column's
        value in schema order."""
        if self.annotation_mode == "eager":
            raise CatalogError("system operations require none/lazy mode")
        row = Row((*values, NULL, NULL) if self.has_annotations else values)
        rid = self.heap.insert(encode_row(self.schema, row))
        if self._live is not None:
            self._live.insert(rid.key(), rid)
        self._notify_insert(rid, row.values)
        self.stats.inserts += 1
        return rid

    def system_update(
        self, rid: Rid, changes: "dict[str, Any]"
    ) -> Optional[Rid]:
        """:meth:`system_update_values` with the columns named."""
        if PREVADDR in changes or TIMESTAMP in changes:
            raise SchemaError("use set_annotations for annotation fields")
        positions = [self.schema.position(name) for name in changes]
        return self.system_update_values(rid, list(changes.values()), positions)

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
        if self.annotation_mode == "eager":
            raise CatalogError("system operations require none/lazy mode")
        annotated = self.has_annotations
        old_values = row = fresh = None

        def decide(before: bytes) -> Optional[bytes]:
            nonlocal old_values, row, fresh
            if positions is not None or self._indexes:
                old_values = self._decode(before).values
            if positions is None:  # every column is given: nothing to decode
                new = list(values)
            else:
                new = list(old_values[:-2] if annotated else old_values)
                for position, value in zip(positions, values):
                    new[position] = value
            row = Row(new + [NULL, NULL] if annotated else new)
            fresh = encode_row(self.schema, row)
            if not annotated:
                return None if fresh == before else fresh
            # Compare what precedes the annotations, then apply the lazy
            # update rule: PrevAddr stays as stored, TimeStamp goes NULL.
            if fresh[:-16] == before[:-16]:
                return None
            return fresh[:-16] + before[-16:-8] + fresh[-8:]

        try:
            if self.heap.rewrite(rid, decide) is None:
                return None
        except PageFullError:  # relocate: a delete plus a fresh insert
            self.stats.updates += 1
            self.heap.delete(rid)
            new_rid = self.heap.insert(fresh)
            if self._indexes:
                self._notify_delete(rid, old_values)
                self._notify_insert(new_rid, row.values)
            return new_rid
        self.stats.updates += 1
        if self._indexes:
            self._notify_update(rid, old_values, rid, row.values)
        return rid

    def system_delete(self, rid: Rid) -> None:
        """Delete a row without logging ("delete just deletes")."""
        values = None
        if self._indexes:
            values = self._decode(self.heap.read(rid)).values
        self.heap.delete(rid)
        if self._live is not None:
            self._live.delete(rid.key())
        if values is not None:
            self._notify_delete(rid, values)
        self.stats.deletes += 1

    # -- bulk loading ------------------------------------------------------------

    def bulk_load(self, rows: "Sequence[Sequence[Any]]") -> "list[Rid]":
        """Insert many rows without logging or locking (initial loads).

        Bypasses the WAL and lock manager the way a utility load would;
        annotations (if lazy) are NULL/NULL, exactly as if freshly
        inserted.  Not supported in eager mode, where every insert must
        maintain its successor.
        """
        if self.annotation_mode == "eager":
            raise CatalogError("bulk_load is not supported on eager tables")
        rids = []
        for values in rows:
            if self.has_annotations:
                row = self._full_row(values, NULL, NULL)
            else:
                row = self._full_row(values, None, None)
            rid = self.heap.insert(encode_row(self.schema, row))
            self._notify_insert(rid, row.values)
            rids.append(rid)
            self.stats.inserts += 1
        return rids

    def truncate(self) -> int:
        """Delete every row (no logging); keeps schema, storage and caches
        honest.

        Rows are removed through the heap (so page summaries and the
        live index stay maintained) and every cached columnar batch for
        the table's pages is evicted from the buffer pool — the entries
        are definitionally stale after a truncate, and leaving them in
        the bounded batch cache just squats LRU slots until unrelated
        traffic pushes them out.
        """
        removed = 0
        for rid in list(self.heap.scan_rids()):
            self.system_delete(rid)
            removed += 1
        self.heap.pool.discard_batches(self.heap.physical_pages())
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

    # -- raw undo interface ---------------------------------------------------

    def raw_insert_at(self, rid: Rid, record: bytes) -> None:
        self.heap.insert_at(rid, record)
        if self._live is not None:
            self._live.insert(rid.key(), rid)
        if self._indexes:
            self._notify_insert(rid, self._decode(record).values)

    def raw_update(self, rid: Rid, record: bytes) -> None:
        old_values = None
        if self._indexes:
            old_values = self._decode(self.heap.read(rid)).values
        self.heap.update(rid, record)
        if old_values is not None:
            self._notify_update(rid, old_values, rid, self._decode(record).values)

    def raw_delete(self, rid: Rid) -> None:
        values = None
        if self._indexes:
            values = self._decode(self.heap.read(rid)).values
        self.heap.delete(rid)
        if self._live is not None:
            self._live.delete(rid.key())
        if values is not None:
            self._notify_delete(rid, values)
