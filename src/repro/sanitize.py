"""Runtime invariant sanitizer — ``REPRO_SANITIZE=1`` mode.

The static rules in :mod:`repro.lint` catch code that *could* break the
refresh protocol; this module catches state that *did*.  When the
``REPRO_SANITIZE`` environment variable is set (to anything but ``0``),
hooks in the refresh path validate, after the fact, the invariants the
paper's algorithm depends on:

- **annotation chain** — after a fix-up scan, every live entry's
  ``PrevAddr`` names the immediately preceding live entry, so the empty
  regions between consecutive entries tile the address space without
  overlap and every entry carries a timestamp (Figures 2 and 7);
- **page-summary dominance** — each page's ``max_ts`` bounds every
  timestamp on the page and ``null_slots`` covers every NULL
  annotation, so a summary can never justify skipping a changed page;
- **changed-slot visits** — a page the scan fast-forwarded reading only
  the slots its summary named is, read whole, exactly what the scan
  recorded of it (summary completeness); likewise a page an online
  pass repaired reading only the slots its write observer named, and a
  page read whole on which a cursor evaluated only the entries newer
  than its ``SnapTime`` and took the rest from its address mirror.
  Qualification is recomputed with the interpreter
  (``Restriction.__call__``) on decoded rows, never with the rendered
  qualifier the scan ran;
- **value-mirror keys** — after a page was crossed from a record, the
  value mirror's dict of the page holds addresses the snapshot holds
  there only: the committed dict among the record's ``qual_slots``, the
  pass's among the slots the cursor left qualifying (what lets a cross
  drop just the gone addresses from a copy);
- **exact free space** — every leaf of a heap's free-space map is its
  page's free bytes and every node above the larger of its children,
  so first-fit placement picks the page a walk over the pages would;
- **log completeness** — every page a run crosses unread, because the
  page write log names no write to it since the cursors' marks, is one
  the per-page test would have skipped;
- **seal** — after a page cache commits, no page the write log names
  after its mark keeps a record at the page's current version: a
  write that landed between the seal and the commit left the next
  pass a page to read;
- **epoch isolation** — between ``RefreshBegin`` and the matching
  commit, nothing staged may reach the visible snapshot contents;
- **storage ↔ index** — after a commit, every row it addressed holds in
  its hidden ``$BASEADDR$`` the address the index maps to it, and the
  storage table holds as many rows as the index (a row an arrival took
  from a departed entry must carry the new address);
- **value-cache mirroring** — after a committed refresh, and after an
  aborted one, every value the sender's cache remembers transmitting
  is exactly what the receiver holds for that address (the
  precondition of every ``UpdateDeltaMessage``);
- **address-set mirroring** — at the same points and after a repairing
  resync, the sender's page cache names, page by page, exactly the
  addresses the receiver holds (what arms the ``Deletion`` flag).

Every check raises :class:`~repro.errors.SanitizerError` on violation.
The rule every clause follows: **it reads only, and it leaves the
buffer pool's counters, residency and LRU order as it found them.**
A clause that reads a heap does so inside :func:`_pool_guard`, which
saves the pool's state (:meth:`~repro.storage.buffer.BufferPool.save_state`)
and puts it back after the reads (``restore_state``): the counters, the
frames resident before, in their order, with their dirty flags, and
none the reads admitted.  So a run with the sanitizer on evicts,
misses and hits exactly what the plain run does, and benchmarks and
tests that assert on pool statistics behave identically.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Collection, Iterator, Optional, Sequence, Tuple

from repro.errors import SanitizerError
from repro.relation.row import decode_fields, decode_row
from repro.relation.types import NULL
from repro.storage.rid import Rid


def enabled() -> bool:
    """Whether sanitizer checks are active (``REPRO_SANITIZE`` set)."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


@contextmanager
def _pool_guard(heap: Any) -> Iterator[None]:
    """Leave ``heap``'s buffer pool as it was around a sanitizer read."""
    state = heap.pool.save_state()
    try:
        yield
    finally:
        heap.pool.restore_state(state)


def check_annotation_chain(table: Any, pages: Optional[int] = None) -> None:
    """After fix-up: ``PrevAddr`` intervals tile the address space.

    Walking the table in address order, each live entry's ``PrevAddr``
    must equal the address of the previous live entry (``Rid.BEGIN`` for
    the first), and every timestamp must be set — the postcondition of
    Figure 7 that the Figure-3 transmit decision assumes.  ``pages``
    bounds the walk to the heap pages below it: the prefix an online
    pass has scanned and, after each window, repaired.
    """
    if not table.has_annotations:
        return
    if pages is None:
        pages = table.heap.page_count
    with _pool_guard(table.heap):
        expected = Rid.BEGIN
        entries = (
            entry
            for page_no in range(pages)
            for entry in _page_annotations(table, page_no)
        )
        for rid, prev, ts in entries:
            if ts is NULL:
                raise SanitizerError(
                    f"table {table.name!r}: entry {rid} has a NULL "
                    "timestamp after fix-up"
                )
            if prev != expected:
                raise SanitizerError(
                    f"table {table.name!r}: entry {rid} has PrevAddr "
                    f"{prev}, expected {expected}; the empty-region chain "
                    "does not tile the address space"
                )
            expected = rid


def check_page_summaries(table: Any) -> None:
    """Summaries dominate their pages: ``max_ts`` bounds every row.

    A summary whose ``max_ts`` is below some row's timestamp, or whose
    ``null_slots`` misses a NULL annotation, could justify skipping a
    page that changed — a wrong refresh, not just a slow one.
    """
    summaries = table.heap.summaries
    if summaries is None:
        return
    with _pool_guard(table.heap):
        heap = table.heap
        for page_no in range(heap.page_count):
            summary = summaries.get(page_no)
            if summary is None:
                continue
            for rid, prev, ts in _page_annotations(table, page_no):
                if prev is NULL or ts is NULL:
                    if rid.slot_no not in summary.null_slots:
                        raise SanitizerError(
                            f"table {table.name!r}: entry {rid} has NULL "
                            "annotations but is not in the summary's "
                            "null_slots; the page could be wrongly skipped"
                        )
                elif ts > summary.max_ts:
                    raise SanitizerError(
                        f"table {table.name!r}: entry {rid} has timestamp "
                        f"{ts} above the page summary's max_ts "
                        f"{summary.max_ts}; the page could be wrongly "
                        "skipped"
                    )


def check_free_map(heap: Any) -> None:
    """The free-space map is exact, so first fit is.

    Every leaf of ``heap.free_map`` that stands for a page is that page's
    ``contiguous_free() + reclaimable()``, every leaf past the last page
    is ``-1``, and every node above is the larger of its children.  A
    leaf below its page's room sends an insert past the lowest page that
    holds it — another address, so another stream — and one above it
    pins a page that cannot take the record.
    """
    fsm = heap.free_map
    tree, capacity = fsm.tree, fsm.capacity
    if fsm.pages != heap.page_count or len(tree) != 2 * capacity:
        raise SanitizerError(
            f"heap {heap.name!r}: free-space map of {fsm.pages} pages in "
            f"{len(tree)} nodes for {heap.page_count} pages"
        )
    with _pool_guard(heap):
        for page_no in range(heap.page_count):
            page = heap._pin(page_no)
            try:
                free = page.contiguous_free() + page.reclaimable()
            finally:
                heap._unpin(page_no, dirty=False)
            if tree[capacity + page_no] != free:
                raise SanitizerError(
                    f"heap {heap.name!r}: free-space map holds "
                    f"{tree[capacity + page_no]} bytes for page {page_no}, "
                    f"which has {free}; first fit would pass it or pick it "
                    "wrongly"
                )
    if any(leaf != -1 for leaf in tree[capacity + heap.page_count :]):
        raise SanitizerError(
            f"heap {heap.name!r}: free-space map has room past its last page"
        )
    for node in range(capacity - 1, 0, -1):
        if tree[node] != max(tree[2 * node], tree[2 * node + 1]):
            raise SanitizerError(
                f"heap {heap.name!r}: free-space map node {node} holds "
                f"{tree[node]}, not the larger of its children"
            )


def _page_annotations(
    table: Any, page_no: int
) -> "Iterator[Tuple[Rid, Any, Any]]":
    from repro.table import PREVADDR, TIMESTAMP

    positions = (
        table.schema.position(PREVADDR),
        table.schema.position(TIMESTAMP),
    )
    for slot_no, body in table.heap.page_entries(page_no):
        prev, ts = decode_fields(table.schema, body, positions)
        yield Rid(page_no, slot_no), prev, ts


def check_after_refresh_scan(table: Any, fixup_ran: bool) -> None:
    """Post-scan validation hook for :func:`run_refresh_scan`.

    The chain must hold once a fix-up pass completed, and on an eager
    table always: its hook keeps the chain on every write, undo
    included.  Summary dominance and an exact free-space map must hold
    at all times.
    """
    if fixup_ran or table.eager is not None:
        check_annotation_chain(table)
    check_page_summaries(table)
    check_free_map(table.heap)
    check_buffer_bounds(table.heap.pool)


def check_changed_slot_visit(
    table: Any,
    page_no: int,
    crossed: "Sequence[Tuple[Any, Any]]",
    named: "Collection[int]",
    what: str = "a changed-slot visit",
    fixup_ran: bool = True,
) -> None:
    """After a changed-slot visit: the page is as a full scan leaves it.

    The visit read and stamped only the slots the summary named and
    their successors, and trusted the rest to be as cached ("summary
    completeness").  ``crossed`` pairs each visiting cursor with the
    record it crossed the page from; ``named`` are the slots the visit
    was told were emptied.  Every slot such a record holds or ends at
    that is empty now must be among ``named`` — a delete that did not
    name its slot was trusted away — and the page's freed set must be
    empty again.  The whole page must show what the batch path
    establishes: no NULL annotation, an intact chain, and the first
    ``PrevAddr`` and qualifying slots each visiting cursor just
    recorded.

    The online repair (``what``) is held to the same: it trusted the
    write observer's slots (``named``) as the visit trusts the
    summary's, and what each cursor re-recorded must be a full
    evaluation of the repaired page.  Without fix-up (``fixup_ran``
    False) the annotations are the writers' to keep and only the
    records are checked.
    """
    from repro.storage.batch import extract_page_batch

    heap = table.heap
    physical = heap.physical_pages()[page_no]
    with _pool_guard(heap):
        frame = heap.pool.pin(physical)
        try:
            batch = extract_page_batch(page_no, frame, table.schema)
        finally:
            heap.pool.unpin(physical)
    where = f"table {table.name!r} page {page_no}: {what}"
    live = batch.live
    for _, info in crossed:
        if info is None:
            continue
        ends = [info.last_live.slot_no] if info.last_live is not None else []
        unnamed = sorted(
            {*info.qual_slots, *ends}.difference(live).difference(named)
        )
        if unnamed:
            raise SanitizerError(
                f"{where} trusted slots {unnamed} of its record, which are "
                f"empty now but were not named: a delete did not name its slot"
            )
    freed = heap.summaries.get(page_no).freed_slots
    if freed:
        raise SanitizerError(
            f"{where} left freed slots {sorted(freed)} named after Figure 7 "
            "passed the page"
        )
    if fixup_ran and (batch.has_nulls or not batch.chain_ok):
        raise SanitizerError(
            f"{where} left NULL annotations or a broken PrevAddr chain"
        )
    for cursor, _ in crossed:
        info = cursor.staged_pages[page_no]
        quals = _interpreted_quals(table.schema, batch, cursor.restriction)
        if info.first_prev != batch.first_prev or list(info.qual_slots) != quals:
            raise SanitizerError(
                f"{where} recorded first PrevAddr {info.first_prev} and "
                f"qualifying slots {list(info.qual_slots)}; the page holds "
                f"{batch.first_prev} and {quals}"
            )


def check_crossed_run(
    table: Any,
    cursors: "Sequence[Any]",
    start: int,
    stop: int,
    expect: Optional[Rid],
) -> None:
    """Before a run of pages ``[start, stop)`` is crossed unread: each
    page passes, for every cursor, the test that would have skipped it
    one by one ("log completeness").

    The cursor's committed record must exist at the page's current
    version, the summary must name no changed or freed slot and be
    settled for the cursor's ``SnapTime``, and — with fix-up, ``expect``
    being the pass's ``ExpectPrev`` — each live page's first
    ``PrevAddr`` must continue the chain from the last live page before
    it.  A write the
    page write log missed fails the first of these.
    """
    summaries = table.heap.summaries
    for page_no in range(start, stop):
        summary = summaries.get(page_no)
        info = None
        for cursor in cursors:
            info = cursor.cache.get(page_no)
            why = None
            if info is None or summary is None:
                why = "no committed record or summary of it"
            elif info.page_version != summary.page_version:
                why = (
                    f"record version {info.page_version}, page version "
                    f"{summary.page_version}"
                )
            elif summary.null_slots or summary.freed_slots:
                why = (
                    f"changed slots {sorted(summary.null_slots)}, freed "
                    f"slots {sorted(summary.freed_slots)}"
                )
            elif not summary.settled(cursor.snap_time):
                why = f"changed after SnapTime {cursor.snap_time}"
            elif (
                expect is not None
                and info.last_live is not None
                and info.first_prev != expect
            ):
                why = f"first PrevAddr {info.first_prev}, expected {expect}"
            if why is not None:
                raise SanitizerError(
                    f"table {table.name!r} page {page_no}: {cursor!r} crossed "
                    f"it in a run of unwritten pages, but it was not skippable "
                    f"({why}); the page write log missed a write"
                )
        if expect is not None and info is not None and info.last_live is not None:
            expect = info.last_live


def check_sealed_mark(cache: Any) -> None:
    """Every page the write log names after ``cache.mark`` has moved
    past its record in ``cache`` ("seal").

    A differential pass releases the table lock at its seal, before the
    epoch commits its records with that mark; a write in between must
    bump the page's version, or :meth:`~repro.core.scanpass._ScanPass._settled`
    could take the record for current.  Holdings-only records (no
    version) and an unknown mark say nothing.
    """
    mark = cache.mark
    if mark is None:
        return
    log = mark.log
    for page_no in log.changed_since(mark.position) or ():
        info = cache.get(page_no)
        summary = log.get(page_no)
        if (
            info is not None
            and summary is not None
            and info.page_version == summary.page_version
        ):
            raise SanitizerError(
                f"page {page_no} was written after the sealed mark (log "
                f"position {mark.position}) but its committed record is at "
                f"its current version {summary.page_version}; a write after "
                f"the seal skipped the version bump"
            )


def check_whole_page_read(
    table: Any, batch: Any, cursors: "Sequence[Any]"
) -> None:
    """After a page was served from its whole batch: what each cursor
    took to qualify is what the restriction says of every entry.

    A cursor holding a committed entry for the page evaluates only the
    entries newer than its ``SnapTime`` and takes the rest from the
    entry ("an entry that has not changed qualifies iff the mirror
    holds its address").  ``batch`` is the one the scan holds, so the
    check reads no page, and decodes its rows without memoizing them.
    """
    for cursor in cursors:
        if cursor.failed:
            continue
        quals = _interpreted_quals(table.schema, batch, cursor.restriction)
        if list(cursor.page_quals) != quals:
            raise SanitizerError(
                f"table {table.name!r} page {batch.page_no}: {cursor!r} "
                f"crossed the page from its address mirror to qualifying "
                f"slots {list(cursor.page_quals)}; the page holds {quals}"
            )


def _interpreted_quals(schema: Any, batch: Any, restriction: Any) -> "list[int]":
    """The slots of ``batch`` whose decoded row the interpreter qualifies:
    the definition the scan's rendered qualifier is held to."""
    return [
        slot_no
        for slot_no, body in zip(batch.slots, batch.bodies)
        if restriction(decode_row(schema, body))
    ]


def check_value_mirror(
    table: Any, page_no: int, crossed: "Sequence[Tuple[Any, Any]]"
) -> None:
    """After a page was crossed from records: each cursor's value mirror
    holds, for the page, only addresses its snapshot holds there.

    The committed dict's keys must be among the committed record's
    ``qual_slots`` — a cross copies that dict less the gone addresses,
    which leaves no stray only while this holds — and the dict the pass
    staged among the slots the cursor left qualifying
    (``page_quals``).  ``crossed`` pairs each cursor with the record
    it crossed the page from.
    """
    for cursor, info in crossed:
        if info is None or cursor.failed or cursor.value_cache is None:
            continue
        record = cursor.cache.get(page_no) if cursor.cache is not None else None
        committed = record.qual_slots if record is not None else ()
        staged = (cursor._staged_values or {}).get(page_no)
        for what, values, held in (
            ("committed", cursor.value_cache.page(page_no), committed),
            ("staged", staged, cursor.page_quals),
        ):
            stray = sorted(
                rid.slot_no for rid in values or () if rid.slot_no not in set(held)
            )
            if stray:
                raise SanitizerError(
                    f"table {table.name!r} page {page_no}: {cursor!r}'s {what} "
                    f"value mirror holds slots {stray}, which the snapshot does "
                    f"not hold there ({list(held)}); a mirror dict kept a gone "
                    f"address"
                )


# -- snapshot epoch isolation -------------------------------------------------


def visible_fingerprint(snapshot: Any) -> "Tuple[int, int, int, int, int]":
    """A cheap digest of the snapshot's *visible* state.

    Every storage write the receiver performs bumps an ``applied_*``
    counter (a cleared table's rows count as deletes), so an unchanged
    fingerprint across an open epoch means nothing staged leaked.  A
    skipped no-op upsert bumps none of them — it wrote nothing, so
    nothing visible moved.
    """
    return (
        len(snapshot),
        snapshot.snap_time,
        snapshot.applied_upserts,
        snapshot.applied_deletes,
        snapshot.applied_merges,
    )


def check_epoch_isolation(snapshot: Any) -> None:
    """While an epoch is open, visible contents must not have moved."""
    baseline = getattr(snapshot, "_sanitize_baseline", None)
    if baseline is None or not snapshot.epoch_open:
        return
    current = visible_fingerprint(snapshot)
    if current != baseline:
        raise SanitizerError(
            f"snapshot {snapshot.name!r}: visible state moved from "
            f"{baseline} to {current} while epoch "
            f"{snapshot._epoch.epoch} is still staging; a staged message "
            "leaked into visible reads"
        )


def check_storage_index(snapshot: Any, messages: "Sequence[Any]") -> None:
    """After a commit, storage agrees with the BaseAddr index.

    Every row the commit addressed that the index still maps holds, in
    its hidden ``$BASEADDR$``, the address the index maps to it, and
    storage holds no row the index does not.  The contents oracles read
    addresses from the index, so only this sees a rewritten row that
    kept another entry's BaseAddr — what a cascade over the storage
    table would read.  Only the addressed rows are read, not the table.
    """
    index, storage = snapshot._index, snapshot.storage
    position = len(snapshot.value_schema)
    with _pool_guard(storage.heap):
        for message in messages:
            addr = getattr(message, "addr", None)
            heap_rid = index.get(addr.key()) if addr is not None else None
            if heap_rid is None:
                continue
            stored = storage.read(heap_rid, visible=False).values[position]
            if stored != addr:
                raise SanitizerError(
                    f"snapshot {snapshot.name!r}: the index maps {addr} to "
                    f"storage row {heap_rid}, whose $BASEADDR$ is {stored}; "
                    f"storage and the BaseAddr index disagree"
                )
    if storage.row_count != len(index):
        raise SanitizerError(
            f"snapshot {snapshot.name!r}: storage holds {storage.row_count} "
            f"rows but the BaseAddr index {len(index)}; storage and the "
            f"BaseAddr index disagree"
        )


# -- sender value-cache mirroring ---------------------------------------------


def check_value_cache(cache: Any, snapshot: Any) -> None:
    """Every cached (address, values) pair matches the receiver exactly.

    The sender only emits an ``UpdateDeltaMessage`` for addresses its
    :class:`~repro.core.cursor.ValueCache` remembers transmitting;
    if the mirror disagrees with the receiver, the merged row at the
    other end would be silently wrong.
    """
    with _pool_guard(snapshot.storage.heap):
        for page_values in cache.pages.values():
            for rid, values in page_values.items():
                row = snapshot.lookup(rid)
                if row is None:
                    raise SanitizerError(
                        f"snapshot {snapshot.name!r}: value cache remembers "
                        f"{rid} but the receiver holds no such entry"
                    )
                if tuple(row.values) != tuple(values):
                    raise SanitizerError(
                        f"snapshot {snapshot.name!r}: value cache remembers "
                        f"{values!r} for {rid} but the receiver holds "
                        f"{tuple(row.values)!r}; the mirror diverged"
                    )


# -- sender address-set mirroring ---------------------------------------------


def check_address_mirror(cache: Any, snapshot: Any) -> None:
    """Every cached page's ``qual_slots`` are the addresses held there.

    The ``Deletion`` flag is armed from the committed page cache: a
    slot it lacks is a delete never sent, and an address on a page it
    does not know falls to the paper's rule behind pages that left it.
    """
    held: "dict[int, set[int]]" = {}
    for addr in snapshot.base_addrs():
        held.setdefault(addr.page_no, set()).add(addr.slot_no)
    cached = {p: set(i.qual_slots) for p, i in cache.items() if i.qual_slots}
    if cached != held:
        pages = sorted(p for p in {*cached, *held} if cached.get(p) != held.get(p))
        raise SanitizerError(
            f"snapshot {snapshot.name!r}: the page cache and the receiver "
            f"disagree on the addresses held on pages {pages}; the address "
            f"mirror diverged"
        )


# -- buffer-pool cache bounds -------------------------------------------------


def check_buffer_bounds(pool: Any) -> None:
    """The frame LRU respects the configured frame capacity.

    Eviction bounds it, but a retention bug (dropped tables whose frames
    were never evicted) would inflate it silently — the pool keeps
    "working" while holding storage nobody can ever hit again.
    """
    capacity = pool.capacity
    if len(pool) > capacity:
        raise SanitizerError(
            f"buffer pool holds {len(pool)} frames over its capacity "
            f"of {capacity}; eviction is leaking frames"
        )


# -- anti-entropy convergence -------------------------------------------------


def check_anti_entropy(
    table: Any, restriction: Any, projection: Any, snapshot: Any
) -> None:
    """After a resync, the receiver equals the restriction of the base.

    The whole point of the hash-bisection protocol is that repairing
    only mismatched leaves still converges the *entire* snapshot; a
    digest collision or a slicing bug would leave silent drift exactly
    where the protocol claims to have proven agreement.
    """
    with _pool_guard(table.heap):
        expected = {}
        for rid, row in table.scan_full():
            if restriction(list(row.values)):
                expected[rid] = tuple(projection(row).values)
    with _pool_guard(snapshot.storage.heap):
        actual = {
            addr: tuple(values) for addr, values in snapshot.as_map().items()
        }
    if actual == expected:
        return
    missing = sorted(set(expected) - set(actual))
    surplus = sorted(set(actual) - set(expected))
    stale = sorted(
        addr
        for addr in set(actual) & set(expected)
        if actual[addr] != expected[addr]
    )
    raise SanitizerError(
        f"snapshot {snapshot.name!r} diverges from its base restriction "
        f"after anti-entropy: {len(missing)} missing, {len(surplus)} "
        f"surplus, {len(stale)} stale (first: "
        f"{(missing or surplus or stale)[:3]})"
    )
