"""The differential snapshot refresh algorithm (combined fix-up + scan).

This is the paper's final form: one address-order scan of the base table
that simultaneously

1. repairs the lazy annotations (Figure 7's ``BaseFixup``), and
2. decides what to transmit (Figure 3's ``BaseRefresh``):

   - a *qualified* entry is transmitted when its timestamp is newer than
     the snapshot's ``SnapTime`` **or** deletions/changes were detected
     among the unqualified entries since the previous qualified entry
     (the ``Deletion`` flag);
   - an *unqualified* entry with a fresh timestamp sets the ``Deletion``
     flag, because it "may have qualified before" its modification;
   - the final ``EndOfScan`` message covers deletions at the end of the
     table, and the new ``SnapTime`` is sent last.

Over an eagerly annotated table the same scan runs with fix-up disabled,
which is exactly Figure 3 (:func:`base_refresh`).

The scan itself goes beyond the paper in two cost dimensions (changing
no transmitted byte) and one arming rule (which only *omits* messages):

*Partial decode.*  Each scanned entry is probed for just its annotations
and the restriction's columns — per entry with
:func:`~repro.relation.row.decode_fields`, or per page as the columns of
a :class:`~repro.storage.batch.PageBatch` (``batch_mode``); the full row
is decoded only when the entry is actually transmitted.

*Page skipping* (``use_page_summaries``).  A page whose
:class:`~repro.storage.summary.PageSummary` proves nothing changed since
``snap_time`` outside the slots it names (``null_slots``) is
*fast-forwarded*: skipped unread when it names none, else visited for
just those slots (``batch_mode``).  The receiver (Figure 4) deletes
everything in ``(prev_qual, addr)`` when an entry arrives, so the scan
must know the page's qualified addresses to carry ``LastQual`` across,
and that no ``PrevAddr`` anomaly hides there: both come from a
per-snapshot cache of :class:`~repro.storage.summary.PageQualInfo`, and
on any doubt the scan reads that one page whole.

*Address mirror* (``batch_mode``).  That cache changes only when the
receiver commits (a pass stages its records, as the value cache does)
and every path that publishes to the snapshot — scan, visit, online
repair, resync — writes it, so its ``qual_slots`` are the addresses the
snapshot holds.  A cursor therefore has two behaviours, whichever way
the page was read (``docs/invariants.md``).  *With an entry for the
page* an entry not newer than ``SnapTime`` qualifies iff the entry
names its slot: the restriction runs on the newer ones only, the
``Deletion`` flag arms at exactly the held slots that no longer
qualify, and Figure 3 walks those events — the paper's stream less
Figure 9's superfluous messages, at a cost proportional to what changed
for this snapshot.  *Without one*, and on the per-row path, the paper's
rule runs over every entry: the baseline and the oracle.

Two optimizations the paper invites the reader to discover are flags
(off by default so the baseline matches the paper; argued in
``docs/algorithm.md``, measured by the A1 ablation benchmark):

``optimize_deletes``
    A qualified entry transmitted *only* because of the ``Deletion``
    flag (the snapshot already holds its current value) goes as a small
    :class:`~repro.core.messages.DeleteRangeMessage` instead — same
    message count, far fewer bytes.

``suppress_pure_inserts``
    An unqualified *newly inserted* entry (NULL ``PrevAddr``) does not
    arm the flag: any deletion it might mask (e.g. address reuse) is
    independently detected as a ``PrevAddr`` anomaly at the next
    non-inserted entry.  Subsumed where the mirror applies.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional, Sequence

from repro import sanitize
from repro.core.messages import (
    DeleteMessage,
    DeleteRangeMessage,
    EndOfScanMessage,
    EntryMessage,
    RefreshMessage,
    SnapTimeMessage,
    UpdateDeltaMessage,
    UpsertMessage,
)
from repro.errors import ChannelError, RefreshMethodError
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import (
    Row,
    decode_fields,
    decode_row,
    encoded_fields_size,
    encoded_size,
)
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.batch import PREV_NULL_PAGE, TS_NULL, PageBatch
from repro.storage.rid import Rid
from repro.storage.summary import PageQualInfo, PageSummary, PageSummaryMap
from repro.table import PREVADDR, TIMESTAMP, Table
from repro.txn.clock import WatermarkBracket

Send = Callable[[RefreshMessage], None]

#: Effective timestamp of an entry found with a NULL annotation: newer
#: than every ``SnapTime`` (the largest value the i64 column holds).
TS_INFINITY = 2**63 - 1


class ValueCache:
    """Per-snapshot mirror of the values previously transmitted.

    Keyed page → ``{rid: projected values}``, this is what lets the
    refresher send :class:`~repro.core.messages.UpdateDeltaMessage`\\ s
    (only the changed columns) instead of whole rows: a cache hit means
    the receiver still holds exactly these values for the address, so a
    column diff against them merges correctly at the other end.

    The cache is **staged per refresh and committed only once the
    receiver's epoch commit is confirmed**, or a later delta would
    merge against values the receiver never applied: the
    :class:`~repro.core.manager.SnapshotManager` drives
    :meth:`commit`/:meth:`abort` from the epoch outcome; direct
    refresher use with an internal cache commits after the scan.
    """

    __slots__ = ("pages", "staged")

    def __init__(self) -> None:
        #: Committed mirror: page_no -> {rid: projected values tuple}.
        self.pages: "dict[int, dict[Rid, tuple]]" = {}
        self.staged: "Optional[dict[int, dict[Rid, tuple]]]" = None

    def lookup(self, rid: Rid) -> "Optional[tuple]":
        page = self.pages.get(rid.page_no)
        return page.get(rid) if page is not None else None

    def page(self, page_no: int) -> "Optional[dict[Rid, tuple]]":
        return self.pages.get(page_no)

    def stage(self, pages: "dict[int, dict[Rid, tuple]]") -> None:
        self.staged = pages

    def commit(self) -> bool:
        """Adopt the staged mirror (the refresh's epoch committed)."""
        if self.staged is None:
            return False
        self.pages = self.staged
        self.staged = None
        return True

    def abort(self) -> None:
        """Drop the staged mirror (the refresh's epoch was rolled back)."""
        self.staged = None

    def __len__(self) -> int:
        return sum(len(page) for page in self.pages.values())


def adopt_holdings(
    cache: "dict[int, PageQualInfo]",
    held: "dict[int, dict[Rid, tuple]]",
    page_count: int,
) -> None:
    """A repairing resync left the snapshot holding exactly ``held``: every
    entry's ``qual_slots`` follow (its layout fields stand), and a page
    never recorded gets a *holdings-only* entry (no version) — it may
    arm the ``Deletion`` flag but never fast-forwards."""
    for page_no in range(page_count):
        slots = array("H", [rid.slot_no for rid in held.get(page_no, ())])
        info = cache.setdefault(page_no, PageQualInfo(None, None, slots, None))
        info.qual_slots = slots


class RefreshResult:
    """Counters from one refresh execution.

    For a solo refresh every field describes that one scan.  For a
    refresh served by a shared group pass (``group_cursors > 1``) the
    per-snapshot fields — traffic, ``scanned``, ``entries_evaluated``,
    ``pages_scanned``, ``pages_skipped`` / ``pages_fast_forwarded`` —
    describe this snapshot's share, while the pass-level scan costs
    (:data:`PASS_FIELDS`) were paid once for the whole group and read
    the same on every member's result: take them once per pass, never
    sum them over the members.
    """

    __slots__ = (
        "new_snap_time",
        "scanned",
        "qualified",
        "entries_sent",
        "messages_sent",
        "bytes_sent",
        "fixup_writes",
        "deletions_detected",
        "pages_scanned",
        "pages_skipped",
        "rows_decoded",
        "buffer_hits",
        "buffer_misses",
        "attempts",
        "retry_wait",
        "group_cursors",
        "entries_evaluated",
        "pages_fast_forwarded",
        "pages_batch_decoded",
        "batches_reused",
        "rows_materialized",
        "chunks_scanned",
        "interleaved_writes",
        "pages_repaired",
    )

    def __init__(self) -> None:
        self.new_snap_time = 0
        self.scanned = 0
        self.qualified = 0
        self.entries_sent = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.fixup_writes = 0
        self.deletions_detected = 0
        self.pages_scanned = 0
        self.pages_skipped = 0
        #: Records this pass read from page bytes: per-row probes, every
        #: entry of each :class:`~repro.storage.batch.PageBatch` it had
        #: to extract (scan and repair alike; a reused one reads
        #: nothing), the changed slots of a visited page plus any
        #: unchanged qualifier a Deletion flag forced out.
        self.rows_decoded = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        #: Set by the manager's retry driver: attempts, backoff waited.
        self.attempts = 1
        self.retry_wait = 0.0
        #: Cursors served by the pass that produced this result.
        self.group_cursors = 1
        #: Entries this snapshot's cursor ran its restriction on: those
        #: newer than its ``SnapTime`` where it crosses a page from a
        #: committed :class:`PageQualInfo` (visited or read whole),
        #: every entry of a page it holds no record of, every entry on
        #: the per-row path.
        self.entries_evaluated = 0
        #: Pages this snapshot's cursor fast-forwarded from its
        #: :class:`~repro.storage.summary.PageQualInfo` cache instead of
        #: having them read whole: those it skipped (``pages_skipped``)
        #: plus those it visited (counted in ``pages_scanned``).
        self.pages_fast_forwarded = 0
        #: Pages served from a columnar batch, whole or a visit's partial.
        self.pages_batch_decoded = 0
        #: Of the batch-served pages, how many reused the pool's cached
        #: :class:`~repro.storage.batch.PageBatch` (same page version).
        self.batches_reused = 0
        #: Full rows decoded from a batch: only entries transmitted or
        #: repaired, each once however many cursors sent it.
        self.rows_materialized = 0
        #: Watermark-bracketed chunks a scan under a :class:`ScanPlan`
        #: ran (0 = one uninterrupted lock hold).
        self.chunks_scanned = 0
        #: Committed writes observed while the scan had the table lock
        #: released at a chunk boundary.
        self.interleaved_writes = 0
        #: Already-scanned pages repaired under the final lock hold of a
        #: chunked scan — fixed up, their net difference published — for
        #: a write after their chunk's high watermark.
        self.pages_repaired = 0

    @property
    def buffer_hit_rate(self) -> float:
        """Buffer-pool hit rate over this refresh's page accesses."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"RefreshResult(time={self.new_snap_time}, scanned={self.scanned}, "
            f"qualified={self.qualified}, entries={self.entries_sent}, "
            f"bytes={self.bytes_sent}, fixup_writes={self.fixup_writes}, "
            f"pages={self.pages_scanned}+{self.pages_skipped}skip, "
            f"decoded={self.rows_decoded}, "
            f"hit_rate={self.buffer_hit_rate:.2f})"
        )


#: Costs of the pass, paid once however many cursors rode it:
#: :func:`run_refresh_scan` copies them from the pass result onto every
#: cursor's own result, so a per-snapshot result reports the work of the
#: pass that served it whether it rode alone or in a group.
PASS_FIELDS = (
    "rows_decoded",
    "fixup_writes",
    "deletions_detected",
    "buffer_hits",
    "buffer_misses",
    "group_cursors",
    "pages_batch_decoded",
    "batches_reused",
    "rows_materialized",
    "chunks_scanned",
    "interleaved_writes",
    "pages_repaired",
)

#: Per-cursor counters the pass result totals over its cursors.
CURSOR_TOTAL_FIELDS = (
    "qualified",
    "entries_sent",
    "messages_sent",
    "bytes_sent",
    "entries_evaluated",
    "pages_fast_forwarded",
)


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


def _unread(slot_no: int) -> Row:
    """``row_at`` of a page crossed unread: it has no event to send."""
    raise RefreshMethodError(f"a skipped page was to transmit slot {slot_no}")


class RefreshCursor:
    """Per-snapshot refresh state riding an address-order scan.

    The cursor owns everything Figure 3 keeps per snapshot — the
    ``SnapTime`` it refreshes from, ``LastQual``, the pending
    ``Deletion`` flag, the compiled restriction/projection, the output
    channel — plus the per-snapshot :class:`PageQualInfo` cache that
    lets it fast-forward over pages proven unchanged since *its*
    ``SnapTime`` and, mirroring what the snapshot holds, pay on any
    page only for what changed (:meth:`cross`).  The scan itself
    (fix-up, partial decode) is shared: :func:`run_refresh_scan` drives
    any number of cursors over one pass and each cursor's stream is
    byte-identical to a solo :class:`DifferentialRefresher` run from
    the same ``SnapTime`` and cache.
    """

    __slots__ = (
        "snap_time",
        "restriction",
        "projection",
        "send",
        "cache",
        "value_cache",
        "optimize_deletes",
        "suppress_pure_inserts",
        "name",
        "value_schema",
        "last_qual",
        "deletion",
        "result",
        "failed",
        "error",
        "page_quals",
        "_staged_values",
        "staged_pages",
    )

    def __init__(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        optimize_deletes: bool = False,
        suppress_pure_inserts: bool = False,
        name: Optional[str] = None,
        value_cache: "Optional[ValueCache]" = None,
    ) -> None:
        self.snap_time = snap_time
        self.restriction = restriction
        self.projection = projection
        self.send = send
        #: Per-snapshot page-qualification cache as of the last
        #: *committed* refresh, so ``qual_slots`` are the addresses the
        #: snapshot holds; ``None``: no skipping, the paper's rule.
        self.cache = cache
        #: This pass's records; :meth:`commit_pages` merges them into
        #: :attr:`cache` once the receiver has the stream.
        self.staged_pages: "dict[int, PageQualInfo]" = {}
        #: Per-snapshot mirror of previously transmitted values; when
        #: set, retransmissions of changed entries become per-column
        #: :class:`UpdateDeltaMessage`\ s on cache hits.
        self.value_cache = value_cache
        self.optimize_deletes = optimize_deletes
        self.suppress_pure_inserts = suppress_pure_inserts
        self.name = name
        self.value_schema = projection.schema
        self.last_qual = Rid.BEGIN
        #: Figure 3's pending ``Deletion`` flag.
        self.deletion = False
        self.result = RefreshResult()
        #: Set when this cursor's channel failed mid-pass; the scan
        #: continues for the other cursors.
        self.failed = False
        self.error: Optional[BaseException] = None
        #: Qualifying slots of the page being scanned, ascending.
        self.page_quals: "array[int]" = array("H")
        #: Next refresh's value mirror, built as the scan walks.
        self._staged_values: "Optional[dict[int, dict[Rid, tuple]]]" = (
            {} if value_cache is not None else None
        )

    def transmit(self, message: RefreshMessage) -> None:
        self.result.messages_sent += 1
        self.result.bytes_sent += message.wire_size()
        if message.counts_as_entry:
            self.result.entries_sent += 1
        self.send(message)

    def fail(self, error: BaseException) -> None:
        self.failed = True
        self.error = error

    # -- page lifecycle ------------------------------------------------------

    def begin_page(self) -> None:
        self.result.pages_scanned += 1
        self.page_quals = array("H")

    def record_page(
        self,
        page_no: int,
        page_version: int,
        first_prev: Optional[Rid],
        last_live: Optional[Rid],
    ) -> None:
        """Stage this page's qualification layout for future skips."""
        self.staged_pages[page_no] = PageQualInfo(
            page_version, first_prev, self.page_quals, last_live
        )

    def commit_pages(self) -> None:
        """The receiver applied this pass's stream: adopt what it staged."""
        if self.cache is not None:
            self.cache.update(self.staged_pages)

    def must_visit(self, info: PageQualInfo, changed: object) -> bool:
        """Whether crossing a page from ``info`` takes reading some of it:
        slots ``changed``, or a pending Deletion flag meets a qualifier."""
        return bool(changed or (self.deletion and info.qual_slots))

    def fast_forward(self, page_no: int, info: PageQualInfo) -> None:
        """Skip a page nothing on which concerns this cursor, in O(1)."""
        self.result.pages_fast_forwarded += 1
        self.result.pages_skipped += 1
        self.result.qualified += len(info.qual_slots)
        self._send_events(page_no, info.qual_slots, (), (), _unread)

    def visit(
        self,
        page_no: int,
        info: PageQualInfo,
        delta: "Optional[PageBatch]",
        row_at: "Callable[[int], Row]",
    ) -> "array[int]":
        """Cross a page of which only ``delta`` was read: the partial
        batch of the slots that changed since ``info`` was recorded,
        already stamped (``None``: a pending ``Deletion`` flag brought
        the cursor).  ``row_at`` also reads a qualifier the flag forces."""
        changed = range(delta.count) if delta is not None else ()
        self.result.pages_fast_forwarded += 1
        self.result.pages_scanned += 1
        self.result.scanned += len(changed)
        return self.cross(page_no, info, delta, changed, None, row_at)

    def cross(
        self,
        page_no: int,
        info: PageQualInfo,
        batch: "Optional[PageBatch]",
        changed: "Sequence[int]",
        live: "Optional[frozenset[int]]",
        row_at: "Callable[[int], Row]",
    ) -> "array[int]":
        """Cross a page from ``info``, this cursor's committed entry.

        Its ``qual_slots`` are the addresses the snapshot holds here,
        and an entry that has not changed for this snapshot qualifies
        iff it is among them (``docs/invariants.md``): no predicate, no
        walk.  ``changed`` indexes the entries of ``batch`` that did
        (effective timestamp newer than ``SnapTime``; every record of a
        visit's partial batch) and the restriction runs on those alone.
        ``live`` are the page's live slots when ``batch`` is the whole
        page — a held slot it lacks was deleted — and ``None`` when every
        slot the entry names is known to be there still.  What moved goes
        to :meth:`_send_events`; a skip is the case where nothing did.
        Returns the page's qualifying slots as they stand.
        """
        quals = info.qual_slots
        send: "Collection[int]" = ()
        gone: "Collection[int]" = ()
        if changed or not (live is None or live.issuperset(quals)):
            held = set(quals)
            now = held if live is None else held & live
            if batch is not None and changed:
                slots = batch.slots
                self.result.entries_evaluated += len(changed)
                hits = batch.qualifying(self.restriction, changed)
                send = {slots[index] for index in hits}
                now = now.difference([slots[index] for index in changed])
                now.update(send)
            gone = held - now
            quals = array("H", sorted(now))
        self.result.qualified += len(quals)
        self._send_events(page_no, quals, send, gone, row_at)
        return quals

    # -- the Figure-3 transmit decision --------------------------------------

    def observe(
        self,
        rid: Rid,
        entry: _LazyEntry,
        sparse: "list[object]",
        orig_ts: object,
        pure_insert: bool,
        anomaly: bool,
    ) -> None:
        """Apply one scanned entry to this cursor's refresh state.

        ``orig_ts`` is the entry's timestamp *before* any fix-up stamp
        this pass wrote, so the decision matches a solo run exactly:
        the faithful transmit condition is ``ts > SnapTime or Deletion``,
        with fix-up folded in as "the value changed" (insert/update,
        per-cursor) or "a deletion was detected just before this entry"
        (anomaly stamp, a property of the scan shared by every cursor).
        """
        result = self.result
        result.scanned += 1
        result.entries_evaluated += 1
        if pure_insert or orig_ts is NULL:
            value_changed = True
        else:
            value_changed = orig_ts > self.snap_time
        if self.restriction(sparse):
            result.qualified += 1
            self.page_quals.append(rid.slot_no)
            if value_changed or anomaly or self.deletion:
                if self.optimize_deletes and not value_changed:
                    # Entry itself unchanged; only the preceding region
                    # needs clearing.
                    self.transmit(DeleteRangeMessage(self.last_qual, rid))
                    self._carry_value(rid)
                else:
                    projected = self.projection(entry.row())
                    self.transmit(self._value_message(rid, projected))
                    if self._staged_values is not None:
                        self._staged_values.setdefault(rid.page_no, {})[
                            rid
                        ] = projected.values
            else:
                self._carry_value(rid)
            self.last_qual = rid
            self.deletion = False
        else:
            if value_changed or anomaly:
                if not (self.suppress_pure_inserts and pure_insert):
                    # "Updated entry ==> may have qualified before".
                    self.deletion = True

    def serve_batch(
        self,
        batch: PageBatch,
        changed: "Sequence[int]",
        pure_inserts: "Sequence[int]" = (),
        anomalies: "Sequence[int]" = (),
    ) -> None:
        """Apply one page's columnar batch to this cursor.

        ``changed`` indexes the entries whose value changed for this
        snapshot: effective timestamp — the entry's own, or
        :data:`TS_INFINITY` when it was found with a NULL annotation
        (inserted or updated since the last fix-up) — newer than
        ``SnapTime``.  With a committed entry for the page the cursor
        crosses from it (:meth:`cross`).  Without one, the paper's rule:
        :meth:`observe` for every live entry in slot order, its inputs
        handed over as columns — ``pure_inserts`` and ``anomalies`` are
        the slots the fix-up found newly inserted (NULL ``PrevAddr``) or
        preceded by a detected deletion, qualification comes from the
        batch's memoized index over the whole page, and full rows are
        materialized only for entries actually transmitted.
        """
        result = self.result
        result.scanned += batch.count
        page_no = batch.page_no
        info = self.cache.get(page_no) if self.cache else None
        if info is not None:
            self.page_quals = self.cross(
                page_no, info, batch, changed, batch.live, batch.row_at
            )
            return
        result.entries_evaluated += batch.count
        slots = batch.slots
        quals = array(
            "H", [slots[index] for index in batch.qualifying(self.restriction)]
        )
        self.page_quals = quals
        result.qualified += len(quals)
        # A pure insert matters only to a cursor that suppresses them.
        suppressed = pure_inserts if self.suppress_pure_inserts else ()
        # ``still``: no address left the snapshot here, for all it knows.
        still = not anomalies and not suppressed
        if still and not quals:
            # Unqualified-but-changed entries still arm the Deletion
            # flag ("may have qualified before") for the next page.
            if changed:
                self.deletion = True
            return
        if still and not changed and not self.deletion:
            # Nothing on the page is newer than SnapTime and no deletion
            # is pending: every qualified entry is carried unchanged and
            # the flag cannot arm mid-page.
            if self._staged_values is not None:
                for slot_no in quals:
                    self._carry_value(Rid(page_no, slot_no))
            self.last_qual = Rid(page_no, quals[-1])
            return
        newer = {slots[index] for index in changed}
        arming = newer.difference(suppressed).union(anomalies)
        self._decide(page_no, set(quals), newer, batch.row_at, arming, anomalies)

    def _decide(
        self,
        page_no: int,
        now: "set[int]",
        changed: "set[int]",
        row_at: "Callable[[int], Row]",
        arming: "Iterable[int]",
        anomalies: "Sequence[int]",
    ) -> None:
        """Figure 3's transmit decision over one page, keyed by slot,
        for a cursor that holds no record of it: the paper's rule.

        Only two kinds of entry can move the cursor: the qualifiers
        (``now``), and entries not among them that arm the ``Deletion``
        flag — ``arming``: changed for this snapshot ("may have
        qualified before") unless a suppressed pure insert, or preceded
        by a detected deletion (``anomalies``).  ``row_at`` is called
        only for entries transmitted.
        """
        for slot_no in sorted(now.union(arming)):
            if slot_no not in now:
                self.deletion = True
                continue
            if slot_no in anomalies:
                # The deletion was detected just before this entry: the
                # flag is armed whatever the entry's own timestamp.
                self.deletion = True
            rid = Rid(page_no, slot_no)
            if slot_no in changed or self.deletion:
                if self.optimize_deletes and slot_no not in changed:
                    self.transmit(DeleteRangeMessage(self.last_qual, rid))
                    self._carry_value(rid)
                else:
                    projected = self.projection(row_at(slot_no))
                    self.transmit(self._value_message(rid, projected))
                    if self._staged_values is not None:
                        self._staged_values.setdefault(page_no, {})[
                            rid
                        ] = projected.values
            else:
                self._carry_value(rid)
            self.last_qual = rid
            self.deletion = False

    def _send_events(
        self,
        page_no: int,
        quals: "Sequence[int]",
        send: "Collection[int]",
        gone: "Collection[int]",
        row_at: "Callable[[int], Row]",
    ) -> None:
        """Figure 3 over the events of one page, for a cursor that knows
        what the snapshot held there: the mirror's rule.

        ``quals`` are the page's qualifying slots, ascending; ``send``
        those whose value changed for this snapshot or that are new to
        it; ``gone`` the held slots that no longer qualify — exactly
        where the ``Deletion`` flag arms, instead of at every changed
        non-qualifier that "may have qualified before".  Only ``send``
        and the first qualifier after each ``gone`` slot (or after a flag
        carried in) are transmitted, each with its predecessor in
        ``quals`` as ``prev_qual``; the receiver keeps every other one
        and its mirrored values are carried in bulk.  The stream is the
        paper's with messages omitted, never altered.
        """
        forced = [quals[0]] if self.deletion and quals else []
        for slot_no in gone:
            after = bisect_right(quals, slot_no)
            if after < len(quals):
                forced.append(quals[after])
        events = sorted({*send, *forced}) if send or forced else ()
        staged = self._staged_values
        if staged is not None:
            page_values = self.value_cache.page(page_no)
            if page_values and (events or gone):
                # A page dict of this pass's own (an abort must leave the
                # committed one be), less the rows that left, for what is sent.
                kept = set(quals)
                page_values = {
                    rid: old for rid, old in page_values.items() if rid.slot_no in kept
                }
            if page_values:
                # Untouched, the committed dict is shared, never written.
                staged[page_no] = page_values
        for slot_no in events:
            before = bisect_left(quals, slot_no)
            if before:
                self.last_qual = Rid(page_no, quals[before - 1])
            rid = Rid(page_no, slot_no)
            if self.optimize_deletes and slot_no not in send:
                # Entry itself unchanged: clear the region before it.
                self.transmit(DeleteRangeMessage(self.last_qual, rid))
                continue
            projected = self.projection(row_at(slot_no))
            self.transmit(self._value_message(rid, projected))
            if staged is not None:
                staged.setdefault(page_no, {})[rid] = projected.values
        if quals:
            self.last_qual = Rid(page_no, quals[-1])
            self.deletion = bool(gone) and max(gone) > quals[-1]
        elif gone:
            self.deletion = True

    def _value_message(self, rid: Rid, projected: Row) -> RefreshMessage:
        """Full entry, or a per-column delta when the mirror allows it.

        A delta is only sent when it is *strictly* smaller than the full
        entry payload — a row whose every column changed would otherwise
        pay the column bitmap for nothing.
        """
        values = projected.values
        value_bytes = encoded_size(self.value_schema, projected)
        if self.value_cache is not None:
            old = self.value_cache.lookup(rid)
            if old is not None and len(old) == len(values):
                positions = [
                    index
                    for index, value in enumerate(values)
                    if not (value is old[index] or value == old[index])
                ]
                mask = 0
                for index in positions:
                    mask |= 1 << index
                delta_bytes = encoded_fields_size(
                    self.value_schema,
                    positions,
                    [values[index] for index in positions],
                )
                mask_bytes = max(1, (mask.bit_length() + 7) // 8)
                if mask_bytes + delta_bytes < value_bytes:
                    return UpdateDeltaMessage(
                        rid,
                        self.last_qual,
                        mask,
                        tuple(values[index] for index in positions),
                        delta_bytes,
                    )
        return EntryMessage(rid, self.last_qual, values, value_bytes)

    def _carry_value(self, rid: Rid) -> None:
        """A qualified entry the receiver keeps unchanged: mirror it on."""
        if self._staged_values is None:
            return
        old = self.value_cache.lookup(rid)
        if old is not None:
            self._staged_values.setdefault(rid.page_no, {})[rid] = old

    def end_scan(self) -> None:
        """``EndOfScan``: covers deletions at the end of the base table."""
        self.transmit(EndOfScanMessage(self.last_qual))

    def page_info(self, page_no: int) -> "Optional[PageQualInfo]":
        """This pass's record of the page, else the committed one: what
        the snapshot holds there once the stream so far has applied."""
        info = self.staged_pages.get(page_no)
        if info is None and self.cache is not None:
            info = self.cache.get(page_no)
        return info

    def repair_page(
        self,
        page_no: int,
        info: "Optional[PageQualInfo]",
        changed: "Sequence[int]",
        batch: PageBatch,
    ) -> "array[int]":
        """Publish what writers did to a page after the scan read it.

        Sent between :meth:`end_scan` and :meth:`finish`, hence as point
        messages: no ``prev_qual``, no ``Deletion`` flag to carry.
        ``changed`` are the slots written since, emptied ones included.
        With ``info`` — see :meth:`page_info` — the page is crossed as
        :meth:`cross` crosses it: ``batch`` is the partial one of the
        changed slots, the restriction runs on those records only, the
        ones that qualify are upserted, ``held - now`` deleted, and a
        held unchanged qualifier costs nothing.  Without one (no page
        cache) the paper-rule oracle: ``batch`` is the whole page, the
        receiver's image of it is wiped (the open-interval delete
        excludes both endpoints, so slot 0 gets its own delete) and
        every qualifier upserted back.  Either way the committed page
        equals the base restriction at commit time and the staged value
        mirror follows.  Returns the page's qualifying slots.
        """
        held: "Sequence[int]" = info.qual_slots if info is not None else ()
        kept = set(held).difference(changed)
        slots = batch.slots
        publish = batch.qualifying(self.restriction)
        now = kept.union(slots[index] for index in publish)
        if info is None:
            self.transmit(
                DeleteRangeMessage(Rid(page_no, 0), Rid(page_no + 1, 0))
            )
            self.transmit(DeleteMessage(Rid(page_no, 0)))
        for slot_no in held:
            if slot_no not in now:
                self.transmit(DeleteMessage(Rid(page_no, slot_no)))
        page_values: "dict[Rid, tuple]" = {}
        if self._staged_values is not None:
            # A page dict of this pass's own: a skipped page shares the
            # committed one, which no path may write to.
            staged = self._staged_values.get(page_no, {})
            page_values = {
                rid: values
                for rid, values in staged.items()
                if rid.slot_no in kept
            }
        for index in publish:
            rid = Rid(page_no, slots[index])
            projected = self.projection(batch.row(index))
            value_bytes = encoded_size(self.value_schema, projected)
            self.transmit(UpsertMessage(rid, projected.values, value_bytes))
            page_values[rid] = projected.values
        if self._staged_values is not None:
            if page_values:
                self._staged_values[page_no] = page_values
            else:
                self._staged_values.pop(page_no, None)
        return array("H", sorted(now))

    def finish(self, new_time: int) -> None:
        """The new ``SnapTime``, sent last; stages the value mirror."""
        self.transmit(SnapTimeMessage(new_time))
        self.result.new_snap_time = new_time
        if self.value_cache is not None:
            self.value_cache.stage(self._staged_values)

    def __repr__(self) -> str:
        return (
            f"RefreshCursor({self.name or '?'}, snap_time={self.snap_time}, "
            f"restrict={self.restriction.text}, "
            f"{'failed' if self.failed else 'live'})"
        )


class _ScanPass:
    """The shared machinery of one combined fix-up + refresh pass.

    Owns the per-pass scan state — the fix-up's ``ExpectPrev`` /
    ``last_addr``, the probe layout, the pass-level counters, the
    fix-up timestamp — so :func:`run_refresh_scan` can drive the page
    loop one chunk at a time: ``scan_pages`` serves a half-open page
    range and leaves the state positioned for the next; one call over
    ``[0, page_count)`` is the paper's uninterrupted scan.
    """

    __slots__ = (
        "table",
        "schema",
        "heap",
        "summaries",
        "fixup",
        "batch_mode",
        "probe_positions",
        "probe_prev",
        "probe_ts",
        "width",
        "stats",
        "fixup_time",
        "expect_prev",
        "last_addr",
        "_hits_before",
        "_misses_before",
    )

    def __init__(
        self,
        table: Table,
        cursors: "Sequence[RefreshCursor]",
        fixup: Optional[bool],
        use_page_summaries: bool,
        batch_mode: bool,
    ) -> None:
        if fixup is None:
            fixup = table.annotation_mode == "lazy"
        self.table = table
        self.fixup = fixup
        schema = table.schema
        self.schema = schema
        self.batch_mode = batch_mode
        prev_pos = schema.position(PREVADDR)
        ts_pos = schema.position(TIMESTAMP)

        self.heap = table.heap
        self.summaries = self.heap.summaries if use_page_summaries else None

        # One decode_fields probe per entry covers the annotations plus
        # the union of every cursor's restriction columns; the full row
        # is decoded only when some cursor actually transmits.
        wanted = {prev_pos, ts_pos}
        for cursor in cursors:
            wanted.update(cursor.restriction.positions)
        self.probe_positions = tuple(sorted(wanted))
        self.probe_prev = self.probe_positions.index(prev_pos)
        self.probe_ts = self.probe_positions.index(ts_pos)
        self.width = len(schema)

        self.stats = RefreshResult()
        self.stats.group_cursors = len(cursors)
        pool_stats = self.heap.pool.stats
        self._hits_before = pool_stats.hits
        self._misses_before = pool_stats.misses
        self.fixup_time = table.db.clock.tick()
        self.expect_prev = Rid.BEGIN
        self.last_addr = Rid.BEGIN

    def scan_pages(
        self, cursors: "Sequence[RefreshCursor]", start: int, stop: int
    ) -> int:
        """Serve every cursor over heap pages ``[start, stop)``.

        Returns the first page not served: ``stop``, or earlier when
        every output has failed and nothing is left to serve.
        """
        summaries = self.summaries
        stats = self.stats

        for page_no in range(start, stop):
            live = [cursor for cursor in cursors if not cursor.failed]
            if not live:
                return page_no

            summary = summaries.get(page_no) if summaries is not None else None
            scanning: "list[RefreshCursor]" = []
            forwarding: "list[tuple[RefreshCursor, PageQualInfo]]" = []
            work = bool(summary is not None and summary.null_slots)
            for cursor in live:
                info = (
                    self._cached_info(cursor, summary)
                    if summary is not None
                    else None
                )
                if info is None:
                    scanning.append(cursor)
                else:
                    forwarding.append((cursor, info))
                    work = work or cursor.deletion
            if scanning:
                # Someone reads the whole page: whoever has work on it —
                # changed slots, or a pending Deletion flag one of its
                # qualifiers must answer — rides that scan, so a page is
                # stamped once, for all.  The rest skip it.
                for cursor, info in forwarding:
                    if cursor.must_visit(info, summary.null_slots):
                        scanning.append(cursor)
                    else:
                        cursor.fast_forward(page_no, info)
            elif work:
                if self._fast_forward(page_no, summary, forwarding):
                    continue
                scanning = live  # a changed slot is an insert: Figure 7's job
            else:
                # Nothing changed, nothing pending: the page is never read.
                for cursor, info in forwarding:
                    cursor.fast_forward(page_no, info)
                stats.pages_skipped += 1
                self._advance(info.last_live)
                continue

            stats.pages_scanned += 1
            for cursor in scanning:
                cursor.begin_page()
            if self.batch_mode:
                first_prev, last_live = self._serve_batch(page_no, scanning)
            else:
                first_prev, last_live = self._serve_rows(page_no, scanning)

            if summaries is not None:
                # Version read after any fix-up write above, so the
                # entry describes the page bytes as this scan left them
                # (staged: a cursor that failed on the page never commits).
                version = summaries.get_or_create(page_no).page_version
                for cursor in scanning:
                    if cursor.cache is not None:
                        cursor.record_page(
                            page_no, version, first_prev, last_live
                        )
        return stop

    def _cached_info(
        self, cursor: RefreshCursor, summary: PageSummary
    ) -> "Optional[PageQualInfo]":
        """The cursor's cached layout of the page, if it may fast-forward.

        Nothing outside the summary's ``null_slots`` may have changed
        after the cursor's ``SnapTime``.  With none named the cached
        version must still be the page's; with some, it moved by
        definition and the summary alone is the proof ("summary
        completeness", ``docs/invariants.md``).  Work on the page —
        changed slots, a ``Deletion`` flag carried in — takes a visit,
        which the per-row oracle and a scan without fix-up never do.
        """
        info = cursor.cache.get(summary.page_no) if cursor.cache else None
        work = bool(summary.null_slots or cursor.deletion)
        if (
            info is not None
            and info.page_version is not None  # holdings only: no layout
            and summary.settled(cursor.snap_time)
            and (not work or (self.batch_mode and self.fixup))
            and (summary.null_slots or info.page_version == summary.page_version)
            # At the boundary the scan state must look exactly like it
            # did when the cache was filled: a trailing pure insert
            # (last_addr != expect_prev) would need this page's first
            # PrevAddr repointed, and a first_prev mismatch is precisely
            # a deletion anomaly hiding on this page.
            and (
                not self.fixup
                or self.last_addr == self.expect_prev
                and info.first_prev in (None, self.expect_prev)
            )
        ):
            return info
        return None

    def _fast_forward(
        self,
        page_no: int,
        summary: PageSummary,
        forwarding: "Sequence[tuple[RefreshCursor, PageQualInfo]]",
    ) -> bool:
        """Advance every live cursor across a page from its cached layout.

        Reads only what it must: the slots the summary says changed (one
        pin, a partial batch) and any unchanged qualifier a ``Deletion``
        flag retransmits; a page with neither is skipped unpinned.  A
        changed slot must be a plain update — ``PrevAddr`` set,
        ``TimeStamp`` NULL, the page's first ``PrevAddr`` still the
        boundary's — so that all Figure 7 does is stamp it: the ts-only
        write of :meth:`_fix_up`, done before any cursor is served.
        Anything else returns False *having written nothing*, and the
        page takes the batch scan.
        """
        stats = self.stats
        heap = self.heap
        changed = sorted(summary.null_slots)
        delta: "Optional[PageBatch]" = None
        if changed:
            delta, _ = heap.page_batch(page_no, self.schema, only=changed)
            stats.rows_decoded += delta.count  # read, whatever comes of it
            if not self._only_updates(delta, changed):
                return False
            self._stamp(page_no, changed)
            stats.scanned += delta.count
        forced: "dict[int, Row]" = {}

        def row_at(slot_no: int) -> Row:
            if delta is not None and slot_no in changed:
                return delta.row_at(slot_no)
            if slot_no not in forced:
                body = heap.read(Rid(page_no, slot_no))
                forced[slot_no] = decode_row(self.schema, body)
            return forced[slot_no]

        visited = False
        for cursor, info in forwarding:
            if not cursor.must_visit(info, changed):
                cursor.fast_forward(page_no, info)
                continue
            visited = True
            try:
                quals = cursor.visit(page_no, info, delta, row_at)
            except ChannelError as error:
                cursor.fail(error)
                continue
            if delta is not None:
                # The page as the stamps left it: same layout, new
                # version, this cursor's qualifiers patched.
                cursor.staged_pages[page_no] = PageQualInfo(
                    summary.page_version, info.first_prev, quals, info.last_live
                )
        if visited:
            stats.pages_scanned += 1
            stats.pages_batch_decoded += 1
            stats.rows_decoded += len(forced)
            stats.rows_materialized += len(forced)
        else:
            stats.pages_skipped += 1
        if delta is not None:
            stats.rows_materialized += delta.materializations
            if sanitize.enabled():
                sanitize.check_changed_slot_visit(
                    self.table,
                    page_no,
                    delta,
                    [c for c, _ in forwarding if not c.failed],
                )
        self._advance(forwarding[0][1].last_live)
        return True

    def _only_updates(self, delta: PageBatch, changed: "Sequence[int]") -> bool:
        """Whether all Figure 7 has to do on a page is stamp ``delta``,
        the partial batch of its ``changed`` slots: each still there and
        a plain update (``PrevAddr`` set, ``TimeStamp`` NULL), no insert
        pending before the page and its first ``PrevAddr`` the
        boundary's.  An insert, a delete or another pass's stamp among
        them fails it."""
        return (
            delta.count == len(changed)
            and PREV_NULL_PAGE not in delta.prev_pages
            and delta.ts.count(TS_NULL) == delta.count
            and self.last_addr == self.expect_prev == delta.first_prev
        )

    def _stamp(self, page_no: int, slots: "Sequence[int]") -> None:
        """The ts-only write of :meth:`_fix_up`, for plain updates."""
        for slot_no in slots:
            self.table.set_annotations(Rid(page_no, slot_no), ts=self.fixup_time)
        self.stats.fixup_writes += len(slots)

    def _advance(self, last_live: Optional[Rid]) -> None:
        """Cross a page nobody scanned: it needs no (further) fix-up, so
        the shared fix-up state moves exactly as a scan would leave it."""
        if last_live is not None:
            self.last_addr = self.expect_prev = last_live

    def _serve_batch(
        self, page_no: int, scanning: "Sequence[RefreshCursor]"
    ) -> "tuple[object, Optional[Rid]]":
        """Serve one page from its columnar :class:`PageBatch`.

        Returns the first entry's ``PrevAddr`` as the scan leaves it and
        the last live address (both ``None`` on an empty page).  Fix-up
        runs over the batch's annotation columns *before* any cursor is
        served, so a channel failure mid-page never leaves the page half
        repaired.
        """
        stats = self.stats
        batch, reused = self.heap.page_batch(page_no, self.schema)
        stats.pages_batch_decoded += 1
        if reused:
            stats.batches_reused += 1
        else:
            stats.rows_decoded += batch.count
        stats.scanned += batch.count

        eff_ts: "Sequence[int]" = batch.ts
        max_ts = batch.max_live_ts
        pure_inserts: "Sequence[int]" = ()
        anomalies: "Sequence[int]" = ()
        first_prev = batch.first_prev
        last = batch.last_rid()
        if not self.fixup:
            if batch.has_nulls:
                if TS_NULL in batch.ts:
                    rid = Rid(page_no, batch.slots[batch.ts.index(TS_NULL)])
                    raise RefreshMethodError(
                        f"entry {rid} has a NULL timestamp but fix-up "
                        f"is disabled; run base_fixup first or use a "
                        f"lazy table"
                    )
                max_ts = max(batch.ts)
            if last is not None:
                self.last_addr = last
        elif not batch.count or (
            not batch.has_nulls
            and batch.chain_ok
            and self.last_addr == self.expect_prev
            and first_prev == self.expect_prev
        ):
            # The batch proves the scan writes nothing here and detects
            # no anomaly: the no-flags case.
            if last is not None:
                self.last_addr = last
                self.expect_prev = last
        else:
            eff_ts, pure_inserts, anomalies, first_prev = self._fix_up(batch)
            max_ts = max(eff_ts)

        decodes_before = batch.materializations
        # Per SnapTime riding the pass: the entries newer than it.
        newer: "dict[int, Sequence[int]]" = {}
        for cursor in scanning:
            if cursor.failed:
                continue
            since = cursor.snap_time
            if since not in newer:
                newer[since] = [
                    index for index, ts in enumerate(eff_ts) if ts > since
                ] if max_ts > since else ()
            try:
                cursor.serve_batch(batch, newer[since], pure_inserts, anomalies)
            except ChannelError as error:
                cursor.fail(error)
        stats.rows_materialized += batch.materializations - decodes_before
        if sanitize.enabled():
            sanitize.check_whole_page_read(self.table, batch, scanning)
        return first_prev, last

    def _fix_up(
        self, batch: PageBatch
    ) -> "tuple[array[int], list[int], list[int], Rid]":
        """Figure 7 over one page's annotation columns.

        Walks ``prev_pages/prev_slots/ts`` with exactly the per-row
        loop's decisions and writes only the records that need it.
        Returns the effective-timestamp column (NULL stamp or pure
        insert ⇒ :data:`TS_INFINITY`), the pure-insert and anomaly
        slots, and the first entry's ``PrevAddr`` as repaired; the
        page is known to hold at least one entry (an empty page is
        write-free).
        """
        table = self.table
        stats = self.stats
        fixup_time = self.fixup_time
        page_no = batch.page_no
        slots = batch.slots
        prev_pages = batch.prev_pages
        prev_slots = batch.prev_slots
        eff_ts = array("q", batch.ts)
        pure_inserts: "list[int]" = []
        anomalies: "list[int]" = []
        # ExpectPrev / last_addr as plain (page, slot) pairs: an address
        # object is only built for the few records that get written.
        expect = self.expect_prev.key()
        last = self.last_addr.key()
        first_prev = self.last_addr
        for index in range(batch.count):
            prev = (prev_pages[index], prev_slots[index])
            here = (page_no, slots[index])
            if prev[0] == PREV_NULL_PAGE:
                # Inserted since the last fix-up.
                pure_inserts.append(here[1])
                eff_ts[index] = TS_INFINITY
                table.set_annotations(
                    Rid(*here), prev=Rid(*last), ts=fixup_time
                )
                stats.fixup_writes += 1
            else:
                fields: "dict[str, object]" = {}
                if eff_ts[index] == TS_NULL:
                    # Updated since the last fix-up.
                    eff_ts[index] = TS_INFINITY
                    fields["ts"] = fixup_time
                if prev != expect:
                    # Deletion(s) detected before this entry.
                    fields["prev"] = Rid(*last)
                    fields["ts"] = fixup_time
                    anomalies.append(here[1])
                    stats.deletions_detected += 1
                elif prev != last:
                    # Insertions (only) before this entry.
                    fields["prev"] = Rid(*last)
                if fields:
                    table.set_annotations(Rid(*here), **fields)
                    stats.fixup_writes += 1
                if not index and "prev" not in fields:
                    first_prev = Rid(*prev)
                expect = here
            last = here
        self.expect_prev = Rid(*expect)
        self.last_addr = Rid(*last)
        return eff_ts, pure_inserts, anomalies, first_prev

    def _serve_rows(
        self, page_no: int, scanning: "Sequence[RefreshCursor]"
    ) -> "tuple[object, Optional[Rid]]":
        """Serve one page entry by entry: the paper's loop, verbatim.

        The ``batch_mode=False`` baseline and the oracle the
        batch-vs-row properties compare :meth:`_serve_batch` against.
        Returns what :meth:`_serve_batch` returns.
        """
        table = self.table
        schema = self.schema
        fixup = self.fixup
        probe_positions = self.probe_positions
        probe_prev = self.probe_prev
        probe_ts = self.probe_ts
        width = self.width
        stats = self.stats
        fixup_time = self.fixup_time
        expect_prev = self.expect_prev
        last_addr = self.last_addr
        page_first_prev: object = None
        page_last_live: "Optional[Rid]" = None
        first_on_page = True

        for slot_no, body in self.heap.page_entries(page_no):
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
            page_last_live = rid

            # Decode once, decide per cursor (Figure 3 per snapshot).
            sparse: "list[object]" = [None] * width
            for position, value in zip(probe_positions, probed):
                sparse[position] = value
            entry = _LazyEntry(schema, body)
            for cursor in scanning:
                if cursor.failed:
                    continue
                try:
                    cursor.observe(
                        rid, entry, sparse, orig_ts, pure_insert, anomaly
                    )
                except ChannelError as error:
                    cursor.fail(error)

        self.expect_prev = expect_prev
        self.last_addr = last_addr
        return page_first_prev, page_last_live

    def repair_pages(
        self,
        cursors: "Sequence[RefreshCursor]",
        dirty: "dict[int, list[int]]",
    ) -> None:
        """Under the final lock hold: bring the pages writers touched
        after their chunk — ``dirty``, page → slots written since — to
        the state a scan at this moment leaves, in the base table and
        in every live cursor's stream.

        Per page, ascending.  *Figure 7 first*, before any cursor is
        served: the boundary state is that of the last live entry
        before the page (every earlier page is chained by now) or, when
        no live entry separates it from the previous dirty page, what
        that page's fix-up left; a page that took only plain updates is
        stamped from the partial batch of its changed slots
        (:meth:`_fast_forward`'s test), any other is extracted whole
        and handed to :meth:`_fix_up`; either way the walk goes one
        entry further, to the page's successor (:meth:`_close_chain`).
        *Then each cursor publishes* the page's net difference
        (:meth:`RefreshCursor.repair_page`) and re-records it in full,
        so the next refresh skips it.  A table scanned without fix-up
        takes that second step only.
        """
        heap = self.heap
        stats = self.stats
        summaries = heap.summaries
        if summaries is None:  # annotations attach them; batches need them
            raise RefreshMethodError("page repair needs the heap's summaries")
        # As in scan_pages: page records are kept, so can be believed,
        # only by a pass that runs with summaries.
        keeping = [
            cursor
            for cursor in cursors
            if self.summaries is not None and cursor.cache is not None
        ]
        carried = False
        for page_no in sorted(dirty):
            changed = dirty[page_no]
            summary = summaries.get_or_create(page_no)
            delta, _ = heap.page_batch(page_no, self.schema, only=changed)
            stats.rows_decoded += delta.count
            first_prev = delta.first_prev
            whole: "Optional[PageBatch]" = None
            if self.fixup:
                if not carried:
                    self._advance(self._live_before(summaries, page_no))
                if self._only_updates(delta, changed):
                    self._stamp(page_no, changed)
                    self._advance(summary.last_live_rid)
                else:
                    whole = self._extract(page_no)
                    if whole.count:
                        *_, first_prev = self._fix_up(whole)
                carried = self._close_chain(summaries, page_no, dirty, keeping)
            for cursor in cursors:
                if cursor.failed:
                    continue
                info = cursor.page_info(page_no) if cursor in keeping else None
                batch = delta
                if info is None:
                    if whole is None:
                        whole = self._extract(page_no)
                    batch = whole
                decodes_before = batch.materializations
                try:
                    quals = cursor.repair_page(page_no, info, changed, batch)
                except ChannelError as error:
                    cursor.fail(error)
                    continue
                finally:
                    stats.rows_materialized += (
                        batch.materializations - decodes_before
                    )
                if cursor in keeping:
                    # The page as the repair left it, bytes and stream.
                    cursor.staged_pages[page_no] = PageQualInfo(
                        summary.page_version,
                        first_prev,
                        quals,
                        summary.last_live_rid,
                    )
            if sanitize.enabled():
                sanitize.check_changed_slot_visit(
                    self.table,
                    page_no,
                    delta,
                    [cursor for cursor in keeping if not cursor.failed],
                    "an online repair",
                    self.fixup,
                )

    def _extract(self, page_no: int) -> PageBatch:
        """The whole page's batch, charged as read unless the pool had it."""
        batch, reused = self.heap.page_batch(page_no, self.schema)
        if not reused:
            self.stats.rows_decoded += batch.count
        return batch

    @staticmethod
    def _live_before(summaries: PageSummaryMap, page_no: int) -> Rid:
        """The last live address below ``page_no``, off the heap's page
        summaries: O(1) but for empty pages in between."""
        for earlier in range(page_no - 1, -1, -1):
            summary = summaries.get(earlier)
            last = summary.last_live_rid if summary is not None else None
            if last is not None:
                return last
        return Rid.BEGIN

    def _close_chain(
        self,
        summaries: PageSummaryMap,
        page_no: int,
        dirty: "dict[int, list[int]]",
        keeping: "Sequence[RefreshCursor]",
    ) -> bool:
        """Take Figure 7 one entry past a repaired page.

        An insert or a delete at the tail of a page is recorded on its
        *successor* — the next live entry, wherever it is — so the
        repair is not closed until that entry has been through
        :meth:`_fix_up` with the state the page left.  That holds for a
        page that only took updates too: a chunk that set out from a
        boundary state a window had made stale wrote it into exactly
        this entry, and a sibling's fix-up in between can make the
        cause read as a plain update.  On a dirty page the entry will
        go through: returns True, and that page's fix-up starts from
        the carried state.  On a clean page just that record is read
        and fixed, and if that wrote, the record each cursor in
        ``keeping`` has of the page moves to the new version and first
        ``PrevAddr`` (the page still skips at the next refresh).
        """
        for later in range(page_no + 1, self.heap.page_count):
            summary = summaries.get(later)
            if summary is not None and summary.first_live_slot is not None:
                break
        else:
            return False
        if later in dirty:
            return True
        version = summary.page_version
        successor, _ = self.heap.page_batch(
            later, self.schema, only=[summary.first_live_slot]
        )
        self.stats.rows_decoded += successor.count
        *_, first_prev = self._fix_up(successor)
        if summary.page_version != version:
            for cursor in keeping:
                info = cursor.page_info(later)
                if info is not None and info.page_version == version:
                    cursor.staged_pages[later] = PageQualInfo(
                        summary.page_version,
                        first_prev,
                        info.qual_slots,
                        info.last_live,
                    )
        return False

    def seal(
        self, cursors: "Sequence[RefreshCursor]", completed: bool
    ) -> RefreshResult:
        """Finalize the pass result, merge it into every cursor's own:
        per-cursor traffic (:data:`CURSOR_TOTAL_FIELDS`) is totalled
        onto the pass result, the costs paid once per pass
        (:data:`PASS_FIELDS`) are copied onto each cursor's.
        ``completed`` says the pass reached the heap's end, so the
        sanitizer may hold the whole table to the fix-up postcondition.
        """
        stats = self.stats
        stats.new_snap_time = self.fixup_time
        pool_stats = self.heap.pool.stats
        stats.buffer_hits = pool_stats.hits - self._hits_before
        stats.buffer_misses = pool_stats.misses - self._misses_before
        if completed and sanitize.enabled():
            sanitize.check_after_refresh_scan(self.table, self.fixup)
        for cursor in cursors:
            result = cursor.result
            for field in CURSOR_TOTAL_FIELDS:
                setattr(
                    stats, field, getattr(stats, field) + getattr(result, field)
                )
            for field in PASS_FIELDS:
                setattr(result, field, getattr(stats, field))
        return stats


@dataclass(frozen=True)
class ScanPlan:
    """Where a refresh scan hands the table lock back to writers.

    The scan runs ``chunk_pages`` heap pages per lock hold.  At each
    chunk boundary the driver calls ``release()``, then
    ``on_chunk_boundary(next_chunk)`` — where writers commit: the scan
    is the one thread of control and this is the point at which it
    yields — then ``acquire()``.  The caller holds the lock when it
    calls :func:`run_refresh_scan` and again when the call returns; a
    caller that manages no lock (a test) leaves the two hooks unset.
    """

    chunk_pages: int = 4
    on_chunk_boundary: "Optional[Callable[[int], None]]" = None
    acquire: "Optional[Callable[[], None]]" = None
    release: "Optional[Callable[[], None]]" = None

    def __post_init__(self) -> None:
        if self.chunk_pages < 1:
            raise RefreshMethodError("chunk_pages must be at least 1")


def run_refresh_scan(
    table: Table,
    cursors: "Sequence[RefreshCursor]",
    fixup: Optional[bool] = None,
    use_page_summaries: bool = False,
    batch_mode: bool = False,
    plan: Optional[ScanPlan] = None,
) -> RefreshResult:
    """One combined fix-up + refresh pass serving every cursor.

    The returned :class:`RefreshResult` holds the *pass-level* counters:
    pages and rows were read once no matter how many cursors rode along,
    fix-up was applied to the base table exactly once, and each entry
    was partial-decoded at most once for the whole pass.  Per-cursor
    traffic lands on each cursor's own ``result``, which also receives a
    copy of the pass-level costs.

    **Three outcomes per page** (``use_page_summaries``;
    :meth:`_ScanPass.scan_pages`).  If every live cursor holds a cached
    layout it may fast-forward from (:meth:`_ScanPass._cached_info`),
    the page is *skipped* — never pinned — when no slot changed and no
    pending ``Deletion`` flag meets a qualifier, else *visited*: only
    the changed slots are read and stamped
    (:meth:`_ScanPass._fast_forward`).  Otherwise it is *scanned* once
    for everyone with work on it — with ``batch_mode`` from its columnar
    :class:`~repro.storage.batch.PageBatch`, Figure 7 first
    (:meth:`_ScanPass._serve_batch`), else entry by entry, the paper's
    loop and the oracle the batch-vs-row properties compare against —
    and a cursor for which it is clean still skips.

    However the page was read, a cursor does one of two things with it
    (the module docstring's *address mirror*): :meth:`RefreshCursor.cross`
    from a committed record of the page, else the paper's rule.

    A :class:`~repro.errors.ChannelError` on one cursor's output marks
    that cursor failed (``cursor.error``) and the pass continues for the
    rest; a caller with a single cursor re-raises it.  The caller holds
    the table-level lock.

    **Chunks.**  Without a ``plan`` the whole heap is one chunk scanned
    under the caller's lock — the paper's scan.  With a
    :class:`ScanPlan` the same loop is the DBLog "virtual cuts"
    construction (``docs/algorithm.md``): each chunk is bracketed by
    low/high readings of a monotone write watermark (a
    :class:`~repro.txn.clock.WatermarkBracket` over the heap
    write-observer's sequence number) and the lock is released between
    chunks.  A slot whose last write sequence exceeds its page's
    *scanned* watermark — recorded after the chunk, so the scan's own
    fix-up writes never count — was modified after the scan read it.
    Under the final lock hold, between each cursor's ``EndOfScan`` and
    its new ``SnapTime``, :meth:`_ScanPass.repair_pages` brings those
    pages to what a scan at that moment leaves, in the base table and
    in every stream; with no interleaved writes the emitted stream is
    byte-for-byte the one-chunk scan's.

    *Pass time* (``docs/invariants.md``).  A stamp carries the time of
    the lock hold it is written under: after a window in which anything
    was written the pass takes a fresh ``FixupTime``, so a sibling
    refreshed inside the window still sees as new whatever the pass
    stamps afterwards.  The new ``SnapTime`` is the last hold's time,
    and the caller sends ``RefreshCommit`` under the hold it gets back.
    """
    heap = table.heap
    # The write watermark: one monotone sequence number per physical
    # record write, with the latest sequence seen per page and slot.
    seq = 0
    last_write_seq: "dict[int, dict[int, int]]" = {}
    scanned_seq: "dict[int, int]" = {}

    def watch(kind: str, rid: Rid) -> None:
        nonlocal seq
        seq += 1
        last_write_seq.setdefault(rid.page_no, {})[rid.slot_no] = seq

    unsubscribe: "Optional[Callable[[], None]]" = None
    if plan is not None:
        acquire, release = plan.acquire, plan.release
        # Subscribed with the caller's lock already held: nothing that
        # can fail stands between here and the ``finally`` below.
        unsubscribe = heap.observe_writes(watch)
    try:
        scan = _ScanPass(table, cursors, fixup, use_page_summaries, batch_mode)
        stats = scan.stats
        next_page = 0
        # The bound is re-read under the lock: pages appended by
        # interleaved inserts extend the scan instead of escaping it.
        while next_page < heap.page_count and not all(
            cursor.failed for cursor in cursors
        ):
            stop = heap.page_count
            if plan is not None:
                if next_page:
                    # A chunk boundary: writers get the lock.
                    if release is not None:
                        release()
                    low = seq
                    try:
                        if plan.on_chunk_boundary is not None:
                            plan.on_chunk_boundary(stats.chunks_scanned)
                    finally:
                        if acquire is not None:
                            acquire()
                    if seq > low:
                        # Pass time: a stamp carries the time of the
                        # lock hold it is written under, later than any
                        # SnapTime a sibling took inside the window.
                        stats.interleaved_writes += seq - low
                        scan.fixup_time = table.db.clock.tick()
                stop = min(next_page + plan.chunk_pages, heap.page_count)
            bracket = WatermarkBracket(stats.chunks_scanned, seq)
            reached = scan.scan_pages(cursors, next_page, stop)
            bracket.close(seq)
            if plan is not None:
                for page_no in range(next_page, stop):
                    # Recorded after the chunk: the chunk's own fix-up
                    # writes fall at or below the high watermark and are
                    # covered, not interleaved.
                    scanned_seq[page_no] = bracket.high
                stats.chunks_scanned += 1
            next_page = reached

        # The interleave buffer: per page, the slots written after its
        # chunk's high watermark (deletes included — an emptied slot
        # still leaves the receiver's image of it stale).
        dirty: "dict[int, list[int]]" = {}
        for page_no, slots in last_write_seq.items():
            scanned = scanned_seq.get(page_no, 0)
            changed = [s for s, written in slots.items() if written > scanned]
            if changed:
                dirty[page_no] = sorted(changed)
        stats.pages_repaired = len(dirty)

        def each_live(step: "Callable[[RefreshCursor], None]") -> None:
            for cursor in cursors:
                if cursor.failed:
                    continue
                try:
                    step(cursor)
                except ChannelError as error:
                    cursor.fail(error)

        # Short of the heap's end every output has failed; having reached
        # it the pass owes the table its fix-up, live outputs or not.
        completed = next_page >= heap.page_count
        each_live(RefreshCursor.end_scan)
        if dirty and completed:
            scan.repair_pages(cursors, dirty)
        each_live(lambda cursor: cursor.finish(scan.fixup_time))
        return scan.seal(cursors, completed)
    finally:
        if unsubscribe is not None:
            unsubscribe()


class DifferentialRefresher:
    """Executes differential refreshes of one base table.

    Stateless between calls except for the page-qualification cache: all
    per-snapshot state (``SnapTime``) lives with the snapshot, all change
    state lives in the base table's annotations — which is what lets any
    number of snapshots share one set of annotations.  Every option
    defaults off, so a directly constructed refresher is the paper's
    full-scan baseline; the manager turns them on.
    """

    def __init__(
        self,
        table: Table,
        optimize_deletes: bool = False,
        suppress_pure_inserts: bool = False,
        use_page_summaries: bool = False,
        delta_updates: bool = False,
        batch_mode: bool = False,
    ) -> None:
        if not table.has_annotations:
            raise RefreshMethodError(
                f"differential refresh requires annotations on {table.name!r}"
            )
        self.table = table
        self.optimize_deletes = optimize_deletes
        self.suppress_pure_inserts = suppress_pure_inserts
        self.use_page_summaries = use_page_summaries
        #: Send per-column UpdateDeltaMessages on value-cache hits.
        self.delta_updates = delta_updates
        #: Serve scanned pages (fix-up included) from columnar batches.
        self.batch_mode = batch_mode
        # Fallback caches for callers that do not thread per-snapshot
        # caches through `refresh(cache=..., value_cache=...)`; valid
        # only for one restriction (i.e. one snapshot) at a time.
        self._page_cache: "dict[int, PageQualInfo]" = {}
        self._value_cache = ValueCache()
        self._cache_restriction: Optional[str] = None

    def refresh(
        self,
        snap_time: int,
        restriction: Restriction,
        projection: Projection,
        send: Send,
        fixup: Optional[bool] = None,
        cache: "Optional[dict[int, PageQualInfo]]" = None,
        value_cache: "Optional[ValueCache]" = None,
        plan: Optional[ScanPlan] = None,
    ) -> RefreshResult:
        """One combined fix-up + refresh scan: a group pass of one cursor.

        ``fixup`` defaults by annotation mode: lazy tables repair as they
        scan; eager tables trust their annotations (pure Figure 3).
        ``cache`` is the per-snapshot page-qualification cache (the
        manager passes the snapshot's own); with summaries enabled and
        none given, a refresher-local one keyed by the restriction text
        is used.  ``value_cache`` (with ``delta_updates``) is the
        per-snapshot transmitted-values mirror; a caller that passes one
        commits or aborts it from the epoch outcome, the internal
        fallback is committed here, right after the synchronous scan.
        ``plan`` makes the scan writer-concurrent (:class:`ScanPlan`).
        The caller holds the table-level lock.
        """
        if self.use_page_summaries and cache is None or (
            self.delta_updates and value_cache is None
        ):
            if self._cache_restriction != restriction.text:
                self._page_cache.clear()
                self._value_cache = ValueCache()
                self._cache_restriction = restriction.text
        if self.use_page_summaries and cache is None:
            cache = self._page_cache
        own_value_cache = False
        if self.delta_updates and value_cache is None:
            value_cache = self._value_cache
            own_value_cache = True

        cursor = RefreshCursor(
            snap_time,
            restriction,
            projection,
            send,
            cache=cache,
            optimize_deletes=self.optimize_deletes,
            suppress_pure_inserts=self.suppress_pure_inserts,
            value_cache=value_cache if self.delta_updates else None,
        )
        run_refresh_scan(
            self.table,
            (cursor,),
            fixup=fixup,
            use_page_summaries=self.use_page_summaries,
            batch_mode=self.batch_mode,
            plan=plan,
        )
        if cursor.error is not None:
            raise cursor.error
        cursor.commit_pages()  # the synchronous stream completed
        if own_value_cache:
            value_cache.commit()
        return cursor.result


def base_refresh(
    table: Table,
    snap_time: int,
    restriction: Restriction,
    projection: Projection,
    send: Send,
) -> RefreshResult:
    """Figure 3's ``BaseRefresh``: refresh without fix-up.

    For eagerly maintained tables, or lazy tables immediately after a
    standalone :func:`~repro.core.fixup.base_fixup` pass.
    """
    return DifferentialRefresher(table).refresh(
        snap_time, restriction, projection, send, fixup=False
    )
