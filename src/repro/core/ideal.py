"""The *ideal* refresh algorithm — the paper's lower bound.

"The ideal algorithm transmits only actual base table changes to the
(restricted) snapshot and only the most recent change to each entry
(since refresh).  The ideal algorithm uses old and new values of changed
entries to insure that changes to unqualified entries are not
transmitted."

Realizing it requires remembering, per snapshot, the qualified projected
image as of the last refresh (the "old values") — state proportional to
the snapshot size held at the base site, which is exactly why the paper
treats it as a yardstick rather than a practical algorithm.  Here it is
implemented honestly: a shadow map diffed against the current scan,
transmitting exactly the net upserts and deletes.
"""

from __future__ import annotations

from repro.core.cursor import RefreshResult, Send
from repro.core.messages import (
    DeleteMessage,
    RefreshMessage,
    SnapTimeMessage,
    UpsertMessage,
)
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import Row, encode_row
from repro.storage.rid import Rid
from repro.table import Table


class IdealRefresher:
    """Net-change refresh via a per-snapshot shadow of qualified entries."""

    def __init__(self, table: Table) -> None:
        self.table = table
        #: base address -> projected values at last refresh.
        self._shadow: "dict[Rid, tuple]" = {}

    @property
    def shadow_size(self) -> int:
        """Entries of base-site state this algorithm must retain."""
        return len(self._shadow)

    def refresh(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
    ) -> RefreshResult:
        """Transmit exactly the net changes relevant to the snapshot."""
        del snap_time  # the shadow *is* the refresh point
        table = self.table
        value_schema = projection.schema
        result = RefreshResult()

        def transmit(message: RefreshMessage) -> None:
            result.messages_sent += 1
            result.bytes_sent += message.wire_size()
            if message.counts_as_entry:
                result.entries_sent += 1
            send(message)

        current: "dict[Rid, tuple]" = {}
        for rid, row in table.scan_full():
            result.scanned += 1
            if restriction(row):
                result.qualified += 1
                current[rid] = projection(row).values

        for rid, values in current.items():
            old = self._shadow.get(rid)
            if old != values:
                value_bytes = len(encode_row(value_schema, Row(values)))
                transmit(UpsertMessage(rid, values, value_bytes))
        for rid in self._shadow:
            if rid not in current:
                transmit(DeleteMessage(rid))

        new_time = table.db.clock.tick()
        transmit(SnapTimeMessage(new_time))
        result.new_snap_time = new_time
        self._shadow = current
        return result
