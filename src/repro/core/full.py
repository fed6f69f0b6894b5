"""Full refresh: clear the snapshot and retransmit every qualified entry.

"The simplest method is to transmit the (restricted & projected) base
table to the snapshot each time the snapshot is refreshed.  The snapshot
is first cleared and then the received data is inserted into the
snapshot.  This method has the advantage of minimal impact on normal
base table operations.  Unless a significant portion of the base table
has been updated since the last refresh of the snapshot, this simple
method will transmit, delete, and insert many unchanged entries."

Works over any table — annotations are not required, which is why the
R* compiler falls back to it for snapshots the differential algorithm
cannot handle.

When a secondary index covers a comparison in the restriction, the
refresher applies it: "when an efficient method for applying the
snapshot restriction is available (e.g., an index), the base table
sequential scan may be more costly than simply re-populating the
snapshot by executing the snapshot query."  ``result.scanned`` then
counts only the entries the index produced, which is what makes full
refresh beat differential for very selective snapshots (benchmark A8).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.core.cursor import RefreshResult, Send
from repro.core.messages import (
    ClearMessage,
    FullRowMessage,
    RefreshMessage,
    SnapTimeMessage,
)
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import Row, encode_row
from repro.storage.rid import Rid
from repro.table import Table


class FullRefresher:
    """Re-evaluates the snapshot query and replaces the snapshot contents."""

    def __init__(self, table: Table, use_indexes: bool = True) -> None:
        self.table = table
        self.use_indexes = use_indexes
        #: Set after each refresh: the index used, or None (diagnostics).
        self.last_access_path: Optional[Any] = None

    def _candidates(
        self, restriction: Restriction
    ) -> "Iterator[Tuple[Rid, Row]]":
        """Entries to test: an index range when one applies, else a scan."""
        self.last_access_path = None
        if self.use_indexes and self.table.indexes:
            from repro.query.plan import _bounds_for, _conjuncts, _sargable

            for conjunct in _conjuncts(restriction.expr):
                sarg = _sargable(conjunct)
                if sarg is None:
                    continue
                column, op, value = sarg
                index = self.table.index_on(column)
                if index is None:
                    continue
                self.last_access_path = index
                lo, hi, include_lo, include_hi = _bounds_for(op, value)

                def via_index() -> "Iterator[Tuple[Rid, Row]]":
                    for rid in index.lookup_range(lo, hi, include_lo, include_hi):
                        yield rid, self.table.read(rid, visible=False)

                return via_index()
        return self.table.scan_full()

    def refresh(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
    ) -> RefreshResult:
        """Transmit clear + all qualified entries + the new SnapTime.

        ``snap_time`` is accepted (and ignored) so all refreshers share
        one call signature.
        """
        del snap_time  # full refresh never looks at history
        table = self.table
        value_schema = projection.schema
        result = RefreshResult()
        pool_stats = table.heap.pool.stats
        hits_before = pool_stats.hits
        misses_before = pool_stats.misses

        def transmit(message: RefreshMessage) -> None:
            result.messages_sent += 1
            result.bytes_sent += message.wire_size()
            if message.counts_as_entry:
                result.entries_sent += 1
            send(message)

        transmit(ClearMessage())
        qualified = []
        pages_touched: "set[int]" = set()
        for rid, row in self._candidates(restriction):
            result.scanned += 1
            result.rows_decoded += 1
            pages_touched.add(rid.page_no)
            if restriction(row):
                result.qualified += 1
                qualified.append((rid, row))
        # A sequential scan reads every page; an index path only the
        # pages its matches live on.  Never any skips — full refresh has
        # no change information to skip with.
        if self.last_access_path is None:
            result.pages_scanned = table.heap.page_count
        else:
            result.pages_scanned = len(pages_touched)
        # Ship in address order regardless of access path (an index
        # range yields value order; the receiver does not care, but
        # deterministic output order keeps tests and diffs stable).
        qualified.sort(key=lambda pair: pair[0].key())
        for rid, row in qualified:
            projected = projection(row)
            value_bytes = len(encode_row(value_schema, projected))
            transmit(FullRowMessage(rid, projected.values, value_bytes))
        new_time = table.db.clock.tick()
        transmit(SnapTimeMessage(new_time))
        result.new_snap_time = new_time
        result.buffer_hits = pool_stats.hits - hits_before
        result.buffer_misses = pool_stats.misses - misses_before
        return result
