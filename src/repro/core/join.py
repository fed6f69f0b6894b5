"""Full refresh of join-defined snapshots.

"In general, snapshot refresh requires evaluating the query defining the
snapshot and replacing the contents of the snapshot with the results of
the query evaluation ... When the snapshot is derived from several
tables, the snapshot query must, in general, be re-evaluated."

A :class:`JoinFullRefresher` re-evaluates a restricted equi-join on each
refresh: hash-build over the right table, probe from the (restricted)
left scan, and transmit every result row after a clear.  Result rows
have no single base address, so they are shipped under synthetic
addresses — a fresh dense sequence per refresh, which is sound because
full refresh replaces the snapshot wholesale.
"""

from __future__ import annotations

from typing import Dict, List

from repro.catalog.compiler import JoinPlan
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


class JoinFullRefresher:
    """Re-evaluates ``σ(left) ⋈ right`` and replaces the snapshot."""

    def __init__(self, table: Table, join_plan: JoinPlan) -> None:
        self.table = table
        self.join_plan = join_plan

    def refresh(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
    ) -> RefreshResult:
        del snap_time  # full re-evaluation never looks at history
        plan = self.join_plan
        result = RefreshResult()

        def transmit(message: RefreshMessage) -> None:
            result.messages_sent += 1
            result.bytes_sent += message.wire_size()
            if message.counts_as_entry:
                result.entries_sent += 1
            send(message)

        # Build side: right-table rows hashed on the join column.
        build: "Dict[object, List[tuple]]" = {}
        for _, row in plan.right_table.scan_full():
            key = row[plan.right_position]
            projected = plan.right_projection(row).values
            build.setdefault(key, []).append(projected)

        transmit(ClearMessage())
        counter = 0
        for _, row in self.table.scan_full():
            result.scanned += 1
            if not restriction(row):
                continue
            matches = build.get(row[plan.left_position])
            if not matches:
                continue
            result.qualified += 1
            left_values = projection(row).values
            for right_values in matches:
                combined = left_values + right_values
                value_bytes = len(
                    encode_row(plan.value_schema, Row(combined))
                )
                transmit(FullRowMessage(Rid(0, counter), combined, value_bytes))
                counter += 1
        new_time = self.table.db.clock.tick()
        transmit(SnapTimeMessage(new_time))
        result.new_snap_time = new_time
        return result
