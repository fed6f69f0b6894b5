"""The per-row reference: the paper's loop entry by entry, kept only for
the tests to compare the one serving path, the columnar batch
(:mod:`~repro.core.scanpass`), against; no production module imports it
(replint L307).  :class:`RowPass` serves each page it reads whole through
:func:`serve_rows` — Figure 7 on each entry, then Figure 3 for every
cursor (:func:`observe`) — and never visits."""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from repro import sanitize
from repro.core.cursor import RefreshCursor, RefreshResult, each_live
from repro.core.differential import DifferentialRefresher, ScanPlan, drive
from repro.core.group import GroupRefresher
from repro.core.messages import DeleteRangeMessage
from repro.core.scanpass import ROWS, PageOutcome, Reading, _ScanPass
from repro.errors import RefreshMethodError
from repro.relation.row import Row, decode_fields, decode_row
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.storage.summary import PageQualInfo, PageSummary
from repro.table import PREVADDR, TIMESTAMP, Table


class _LazyEntry:
    """One scanned heap entry, fully decoded at most once however many
    cursors of a group pass transmit it."""

    __slots__ = ("_schema", "body", "_row")

    def __init__(self, schema: Schema, body: bytes) -> None:
        self._schema = schema
        self.body = body
        self._row: "Optional[Row]" = None

    def row(self) -> Row:
        if self._row is None:
            self._row = decode_row(self._schema, self.body)
        return self._row


def observe(
    cursor: RefreshCursor,
    rid: Rid,
    entry: _LazyEntry,
    sparse: "list[object]",
    orig_ts: object,
    pure_insert: bool,
    anomaly: bool,
) -> None:
    """Apply one scanned entry to ``cursor``'s refresh state.

    ``orig_ts`` is the entry's timestamp *before* any fix-up stamp
    this pass wrote, so the decision matches a solo run exactly:
    the faithful transmit condition is ``ts > SnapTime or Deletion``,
    with fix-up folded in as "the value changed" (insert/update,
    per-cursor) or "a deletion was detected just before this entry"
    (anomaly stamp, a property of the scan shared by every cursor).
    """
    result = cursor.result
    result.scanned += 1
    result.entries_evaluated += 1
    if pure_insert or orig_ts is NULL:
        value_changed = True
    else:
        value_changed = orig_ts > cursor.snap_time
    if cursor.restriction(sparse):
        result.qualified += 1
        cursor.page_quals.append(rid.slot_no)
        if value_changed or anomaly or cursor.deletion:
            if cursor.optimize_deletes and not value_changed:
                # Entry itself unchanged; only the preceding region
                # needs clearing.
                cursor.transmit(DeleteRangeMessage(cursor.last_qual, rid))
                cursor._carry_value(rid)
            else:
                projected = cursor.projection(entry.row())
                cursor.transmit(cursor._value_message(rid, projected))
                if cursor._staged_values is not None:
                    cursor._staged_values.setdefault(rid.page_no, {})[
                        rid
                    ] = projected.values
        else:
            cursor._carry_value(rid)
        cursor.last_qual = rid
        cursor.deletion = False
    else:
        if value_changed or anomaly:
            # "Updated entry ==> may have qualified before".
            cursor.deletion = True


def serve_rows(
    scan: _ScanPass, page_no: int, scanning: "Sequence[RefreshCursor]"
) -> object:
    """Serve one page entry by entry: the paper's loop, verbatim.

    One ``decode_fields`` probe per entry covers the annotations plus
    the union of the cursors' restriction columns; the full row is
    decoded only when some cursor transmits it.  Returns the first
    entry's ``PrevAddr`` as the scan leaves it (``None``: empty page).
    """
    table = scan.table
    schema = scan.schema
    fixup = scan.fixup
    prev_pos = schema.position(PREVADDR)
    ts_pos = schema.position(TIMESTAMP)
    wanted = {prev_pos, ts_pos}
    for cursor in scanning:
        wanted.update(cursor.restriction.positions)
        cursor.page_quals = array("H")
    probe_positions = tuple(sorted(wanted))
    probe_prev = probe_positions.index(prev_pos)
    probe_ts = probe_positions.index(ts_pos)
    width = len(schema)
    stats = scan.stats
    fixup_time = scan.fixup_time
    boundary = scan.boundary
    expect_prev = Rid(*boundary.expect)
    last_addr = Rid(*boundary.last)
    page_first_prev: object = None
    first_on_page = True

    for slot_no, body in scan.heap.page_entries(page_no):
        rid = Rid(page_no, slot_no)
        stats.scanned += 1
        stats.rows_decoded += 1
        probed = decode_fields(schema, body, probe_positions)
        prev = probed[probe_prev]
        ts = probed[probe_ts]
        orig_ts = ts
        final_prev = prev
        pure_insert = False
        anomaly = False
        if fixup:
            if prev is NULL:
                # Inserted since the last fix-up.
                pure_insert = True
                final_prev = last_addr
                table.set_annotations(rid, prev=last_addr, ts=fixup_time)
                stats.fixup_writes += 1
            else:
                new_prev: "Optional[Rid]" = None
                stamp = False
                if ts is NULL:
                    # Updated since the last fix-up.
                    stamp = True
                if prev != expect_prev:
                    # Deletion(s) detected before this entry.
                    new_prev = last_addr
                    stamp = True
                    anomaly = True
                    stats.deletions_detected += 1
                elif prev != last_addr:
                    # Insertions (only) before this entry.
                    new_prev = last_addr
                if new_prev is not None or stamp:
                    fields: "dict[str, object]" = {}
                    if new_prev is not None:
                        fields["prev"] = new_prev
                        final_prev = new_prev
                    if stamp:
                        fields["ts"] = fixup_time
                    table.set_annotations(rid, **fields)
                    stats.fixup_writes += 1
                expect_prev = rid
        else:
            if ts is NULL:
                raise RefreshMethodError(
                    f"entry {rid} has a NULL timestamp but fix-up "
                    f"is disabled; run base_fixup first or use a "
                    f"lazy table"
                )
        last_addr = rid
        if first_on_page:
            page_first_prev = final_prev
            first_on_page = False

        # Decode once, decide per cursor (Figure 3 per snapshot).
        sparse: "list[object]" = [None] * width
        for position, value in zip(probe_positions, probed):
            sparse[position] = value
        entry = _LazyEntry(schema, body)
        each_live(
            scanning,
            lambda cursor: observe(
                cursor, rid, entry, sparse, orig_ts, pure_insert, anomaly
            ),
        )

    boundary.expect = expect_prev.key()
    boundary.last = last_addr.key()
    return page_first_prev


class RowPass(_ScanPass):
    """A pass that reads every page a cursor has work on whole, entry by
    entry (:func:`serve_rows`): it never visits."""

    __slots__ = ()

    def _settled(
        self, cursor: RefreshCursor, info: PageQualInfo, summary: PageSummary
    ) -> bool:
        named = summary.null_slots or summary.freed_slots
        return not (named or cursor.deletion) and super()._settled(
            cursor, info, summary
        )

    def _cross(
        self, cursors: "Sequence[RefreshCursor]", start: int, end: int
    ) -> int:
        # A carried Deletion flag is answered by a whole read.
        if any(cursor.deletion for cursor in cursors if not cursor.failed):
            return start
        return super()._cross(cursors, start, end)

    def _whole(self, page_no: int, reading: Reading) -> PageOutcome:
        first_prev = serve_rows(self, page_no, list(reading))
        self.stats.pages_scanned += 1
        for cursor in reading:
            cursor.result.pages_scanned += 1
        self._record(page_no, reading, first_prev)
        if self.audit:
            held = [(c, entry) for c, entry in reading.items() if entry is not None]
            sanitize.check_value_mirror(self.table, page_no, held)
        return ROWS


def run_row_scan(
    table: Table,
    cursors: "Sequence[RefreshCursor]",
    fixup: Optional[bool] = None,
    plan: Optional[ScanPlan] = None,
) -> RefreshResult:
    """:func:`~repro.core.differential.run_refresh_scan` on a
    :class:`RowPass`."""
    return drive(RowPass(table, cursors, fixup), cursors, plan)


class RowRefresher(DifferentialRefresher):
    """A solo refresher on the per-row reference pass."""

    _scan = staticmethod(run_row_scan)


class RowGroupRefresher(GroupRefresher):
    """A shared-scan refresher on the per-row reference pass."""

    _scan = staticmethod(run_row_scan)
