"""Page-summary skipping in the differential refresher.

The dangerous part of skipping a page is the receiver contract: every
EntryMessage's ``(prev_qual, addr)`` range deletes snapshot rows, so a
wrong skip silently wipes out good data, and a missed ``PrevAddr``
anomaly silently keeps deleted data.  These tests drive exactly those
boundaries.
"""

import copy
from unittest import mock

import pytest

from repro import sanitize
from repro.core.differential import DifferentialRefresher
from repro.core.manager import SnapshotManager
from repro.core.messages import (
    DeleteMessage,
    DeleteRangeMessage,
    EndOfScanMessage,
    EntryMessage,
    SnapTimeMessage,
)
from repro.core.per_row import RowRefresher
from repro.core.scanpass import PageOutcome, _ScanPass
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import ChannelError
from repro.expr.predicate import Projection, Restriction
from repro.net.faults import FaultyLink
from repro.relation.row import encoded_size
from repro.relation.types import NULL
from repro.storage.heap import HeapFile
from repro.storage.summary import PageMirror

from tests.properties.test_wire_props import assert_mirror_subsequence


def build(db, rows=12, pad=900):
    """A lazy table spanning several pages (~4 rows per 4 KiB page)."""
    table = db.create_table(
        "t", [("v", "int"), ("pad", "string")], annotations="lazy"
    )
    rids = table.bulk_load([[i, "x" * pad] for i in range(rows)])
    assert table.heap.page_count >= 3
    return table, rids


class Mirrored:
    """One snapshot's refresher and the page mirror it keeps."""

    def __init__(self, refresher):
        self.refresher = refresher
        self.cache = PageMirror()

    def refresh(self, *args):
        return self.refresher.refresh(*args, cache=self.cache)


def refresh_into(refresher, snapshot, snap_time, restriction, projection):
    messages = []

    def deliver(message):
        messages.append(repr(message))
        snapshot.apply(message)

    result = refresher.refresh(snap_time, restriction, projection, deliver)
    return result, messages


def truth_map(table, cutoff):
    return {
        rid: row.values
        for rid, row in table.scan(visible=True)
        if row.values[0] < cutoff
    }


@pytest.fixture
def setup(db):
    table, rids = build(db)
    restriction = Restriction.parse("v < 100", table.schema)
    projection = Projection(table.schema)
    snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
    refresher = Mirrored(DifferentialRefresher(table))
    result, _ = refresh_into(refresher, snapshot, 0, restriction, projection)
    return table, rids, restriction, projection, snapshot, refresher, result


class TestQuiescentSkip:
    def test_second_refresh_skips_every_page(self, setup):
        table, _, restriction, projection, snapshot, refresher, first = setup
        assert first.pages_scanned == table.heap.page_count
        second, _ = refresh_into(
            refresher, snapshot, first.new_snap_time, restriction, projection
        )
        assert second.pages_skipped == table.heap.page_count
        assert second.pages_scanned == 0
        assert second.scanned == 0
        assert second.rows_decoded == 0
        assert second.entries_sent == 0
        assert snapshot.as_map() == truth_map(table, 100)

    def test_skipped_pages_are_never_pinned(self, setup):
        table, _, restriction, projection, snapshot, refresher, first = setup
        stats = table.heap.pool.stats
        pins_before = stats.hits + stats.misses
        second, _ = refresh_into(
            refresher, snapshot, first.new_snap_time, restriction, projection
        )
        assert second.pages_skipped == table.heap.page_count
        # No buffer traffic at all: clean pages are decided on summaries
        # alone, without touching the pool.
        assert stats.hits + stats.misses == pins_before
        assert second.buffer_hits == 0 and second.buffer_misses == 0

    def test_repr_surfaces_pages_and_hit_rate(self, setup):
        *_, first = setup
        text = repr(first)
        assert "hit_rate=" in text
        assert "skip" in text


class TestDirtyPageGranularity:
    def test_single_update_scans_one_page(self, setup):
        table, rids, restriction, projection, snapshot, refresher, first = setup
        table.update(rids[0], {"v": 50})
        second, _ = refresh_into(
            refresher, snapshot, first.new_snap_time, restriction, projection
        )
        assert second.pages_scanned == 1
        assert second.pages_skipped == table.heap.page_count - 1
        assert second.entries_sent >= 1
        assert snapshot.as_map() == truth_map(table, 100)

    def test_cross_page_delete_detected(self, setup):
        """Deleting page 0's last entry leaves the anomaly on page 1.

        Page 1's bytes are untouched (its version still matches the
        cache), so only the first_prev boundary check can catch that its
        first entry's PrevAddr now dangles at a dead address.
        """
        table, rids, restriction, projection, snapshot, refresher, first = setup
        by_page = {}
        for rid in rids:
            by_page.setdefault(rid.page_no, []).append(rid)
        victim = by_page[0][-1]
        table.delete(victim)
        second, _ = refresh_into(
            refresher, snapshot, first.new_snap_time, restriction, projection
        )
        assert second.deletions_detected == 1
        # Page 0 (structural) and page 1 (anomaly) scanned; the rest skip.
        assert second.pages_scanned == 2
        assert second.pages_skipped == table.heap.page_count - 2
        assert snapshot.as_map() == truth_map(table, 100)
        assert victim not in snapshot.as_map()

    def test_pending_deletion_flag_forces_next_page_scan(self, setup):
        """An unqualified change at a page's end taints the next page.

        The entry that must carry the deletion range lives on page 1,
        which is byte-identical to its cache entry — skipping it would
        lose the range and leave the now-unqualified row in the snapshot
        forever.
        """
        table, rids, restriction, projection, snapshot, refresher, first = setup
        by_page = {}
        for rid in rids:
            by_page.setdefault(rid.page_no, []).append(rid)
        victim = by_page[0][-1]
        table.update(victim, {"v": 1000})  # was qualified, now is not
        second, _ = refresh_into(
            refresher, snapshot, first.new_snap_time, restriction, projection
        )
        assert second.pages_scanned == 2
        assert second.pages_skipped == table.heap.page_count - 2
        assert second.entries_sent >= 1
        assert victim not in snapshot.as_map()
        assert snapshot.as_map() == truth_map(table, 100)


class TestBaselineEquivalence:
    def script(self, table, rids):
        table.update(rids[1], {"v": 60})
        table.delete(rids[5])
        table.insert([7, "y" * 900])
        table.update(rids[9], {"v": 500})

    def run_mode(self, use_summaries, refreshes=3):
        db = Database("equiv", buffer_capacity=16)
        table, rids = build(db)
        restriction = Restriction.parse("v < 100", table.schema)
        projection = Projection(table.schema)
        snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
        # The reference: on the batch path the page mirror is also the
        # address mirror, whose arming rule leaves messages out.
        refresher = RowRefresher(table)
        if use_summaries:
            refresher = Mirrored(refresher)
        snap_time = 0
        streams = []
        result, messages = refresh_into(
            refresher, snapshot, snap_time, restriction, projection
        )
        streams.append(messages)
        snap_time = result.new_snap_time
        self.script(table, rids)
        for _ in range(refreshes):
            result, messages = refresh_into(
                refresher, snapshot, snap_time, restriction, projection
            )
            streams.append(messages)
            snap_time = result.new_snap_time
        return streams, snapshot.as_map(), truth_map(table, 100)

    def test_streams_identical_with_and_without_summaries(self):
        streams_on, map_on, truth_on = self.run_mode(True)
        streams_off, map_off, truth_off = self.run_mode(False)
        assert streams_on == streams_off
        assert map_on == map_off == truth_on == truth_off


# -- changed-slot visits -------------------------------------------------------
#
# On the batch path a page whose summary names the slots that changed —
# and proves the rest unchanged — is fast-forwarded from the cached
# layout, reading only those slots.  Every case runs in a visiting
# (batch) world and on the per-row reference and requires the same heap bytes and the same
# snapshot; the visiting world arms its Deletion flag from its page cache,
# so its stream is the oracle's with superfluous messages left out.


class _World:
    """A lazy table with one snapshot behind a summaries-on refresher."""

    def __init__(self, batch, cutoff=100):
        self.db = Database("hq")
        self.table, self.rids = build(self.db)
        self.pages = {}
        for rid in self.rids:
            self.pages.setdefault(rid.page_no, []).append(rid)
        self.restriction = Restriction.parse(
            f"v < {cutoff}", self.table.schema
        )
        self.projection = Projection(self.table.schema)
        self.cutoff = cutoff
        self.batch = batch
        self._new_snapshot("remote")

    def _new_snapshot(self, site):
        self.snapshot = SnapshotTable(
            Database(site), "s", self.projection.schema
        )
        refresher = DifferentialRefresher if self.batch else RowRefresher
        self.refresher = refresher(self.table)
        self.cache = PageMirror()
        self.snap_time = 0
        self.streams = []

    def sibling(self):
        """A second snapshot of the same table: its own refresher (hence
        page cache), receiver, SnapTime and streams."""
        other = copy.copy(self)
        other._new_snapshot("remote2")
        return other

    def refresh(self):
        held = self.snapshot.as_map()
        messages = []

        def deliver(message):
            messages.append(message)
            self.snapshot.apply(message)

        result = self.refresher.refresh(
            self.snap_time, self.restriction, self.projection, deliver, cache=self.cache
        )
        self.snap_time = result.new_snap_time
        self.streams.append((held, messages))
        assert self.snapshot.as_map() == truth_map(self.table, self.cutoff)
        return result

    def page_size(self, page_no):
        return len(self.table.heap.page_entries(page_no))


def twin(script, cutoff=100):
    """Run ``script(world)`` in the visiting world and the per-row oracle;
    return the visiting world's return value."""
    visiting, oracle = _World(True, cutoff), _World(False, cutoff)
    outcome = script(visiting)
    script(oracle)
    assert len(visiting.streams) == len(oracle.streams)
    for (held, sent), (_, paper) in zip(visiting.streams, oracle.streams):
        assert_mirror_subsequence(sent, paper, held)
    assert list(visiting.table.heap.scan()) == list(oracle.table.heap.scan())
    return outcome


class TestFlagOnlyVisit:
    """A page visited for a carried ``Deletion`` flag alone: its first
    qualifier is held unchanged, so it goes as a range delete, unread."""

    @staticmethod
    def _leave_page_zero(w):
        w.refresh()
        # Page 0's last row leaves the snapshot: the flag it arms meets
        # no qualifier there and is carried onto page 1.
        w.table.update(w.pages[0][-1], {"v": 1000})

    def test_reads_no_record_and_sends_one_range_delete(self):
        w = _World(True)
        self._leave_page_zero(w)
        served = {}
        reads = []
        serve, heap_read = _ScanPass.page, HeapFile.read

        def page(scan, page_no, cursors, changed=None):
            decoded, read = scan.stats.rows_decoded, len(reads)
            outcome = serve(scan, page_no, cursors, changed)
            decoded = scan.stats.rows_decoded - decoded
            served[page_no] = (outcome, decoded, len(reads) - read)
            return outcome

        def read(heap, rid, *args, **kwargs):
            reads.append(rid)
            return heap_read(heap, rid, *args, **kwargs)

        with mock.patch.object(_ScanPass, "page", page), mock.patch.object(
            HeapFile, "read", read
        ):
            w.refresh()
        assert served[1] == (PageOutcome.VISITED, 0, 0)
        _, sent = w.streams[-1]
        assert [type(m) for m in sent] == [
            DeleteRangeMessage, EndOfScanMessage, SnapTimeMessage
        ]
        assert (sent[0].lo, sent[0].hi) == (w.pages[0][-2], w.pages[1][0])

    def test_the_receiver_is_left_as_the_entry_form_left_it(self):
        w, old = _World(True), _World(True)
        for world in (w, old):
            self._leave_page_zero(world)
        w.refresh()
        schema = old.projection.schema

        def as_entry(message):
            """The re-send the range delete replaced."""
            if not isinstance(message, DeleteRangeMessage):
                return message
            projected = old.projection(old.table.read(message.hi))
            return EntryMessage(
                message.hi,
                message.lo,
                projected.values,
                encoded_size(schema, projected),
            )

        result = old.refresher.refresh(
            old.snap_time,
            old.restriction,
            old.projection,
            lambda message: old.snapshot.apply(as_entry(message)),
            cache=old.cache,
        )
        assert result.entries_sent == 1
        for snapshot in (w.snapshot, old.snapshot):
            assert snapshot.as_map() == truth_map(w.table, w.cutoff)
        assert list(w.snapshot.storage.heap.scan()) == list(
            old.snapshot.storage.heap.scan()
        )
        counters = ("applied_upserts", "applied_deletes", "applied_merges")
        assert [getattr(w.snapshot, name) for name in counters] == [
            getattr(old.snapshot, name) for name in counters
        ]


class TestChangedSlotVisit:
    def test_one_update_reads_one_record_not_the_page(self):
        def script(w):
            w.refresh()
            w.table.update(w.rids[1], {"v": 50})
            result = w.refresh()
            _, ts = w.table.annotations(w.rids[1])
            assert ts == result.new_snap_time
            return w, result

        w, result = twin(script)
        page_count = w.table.heap.page_count
        assert result.rows_decoded == 1
        # Read one record, ran the restriction on one record.
        assert result.scanned == result.entries_evaluated == 1
        assert result.fixup_writes == 1 and result.entries_sent == 1
        assert result.pages_scanned == result.pages_batch_decoded == 1
        # Fast-forwarded across every page, the one it read included.
        assert result.pages_fast_forwarded == page_count
        assert result.pages_skipped == page_count - 1
        # The page's cached layout was re-recorded: a quiet refresh
        # skips it without a pin.
        quiet = w.refresh()
        assert quiet.pages_skipped == page_count and quiet.rows_decoded == 0

    def test_a_visit_pins_its_page_once(self, monkeypatch):
        w = _World(True)
        w.refresh()
        changed = w.pages[1][:3]
        for rid in changed:
            w.table.update(rid, {"v": 50})
        stats = w.table.heap.pool.stats
        pins = {}
        stamp, serve = HeapFile.stamp_named, _ScanPass.page

        def stamping(heap, page_no, *args):
            before = stats.hits + stats.misses
            batch = stamp(heap, page_no, *args)
            pins[page_no] = (batch is not None, stats.hits + stats.misses - before)
            return batch

        def counting(scan, page_no, cursors, changed=None):
            pins[page_no] = "served one by one"
            return serve(scan, page_no, cursors, changed)

        monkeypatch.setattr(HeapFile, "stamp_named", stamping)
        monkeypatch.setattr(_ScanPass, "page", counting)
        result = w.refresh()
        assert result.fixup_writes == len(changed)
        # The read and its three stamps share one pin (one per stamp on
        # top of the read's would be four), in the run loop; the
        # unwritten pages are crossed in runs, never served one by one,
        # and take none.
        assert pins == {1: (True, 1)}
        assert result.buffer_hits + result.buffer_misses == 1

    def test_an_insert_among_the_changed_slots_is_chained(self):
        def script(w):
            w.refresh()
            victim = w.pages[1][2]
            w.table.delete(victim)
            w.refresh()  # settled again: the free slot is just a hole
            w.table.update(w.pages[1][0], {"v": 50})
            assert w.table.insert([7, "y" * 900]) == victim
            events = []
            heap = w.table.heap
            original = heap.fix_batch

            def fix_batch(page_no, schema, fix=None, only=None):
                events.append(("partial" if only else "full", page_no))
                return original(page_no, schema, fix, only)

            heap.fix_batch = fix_batch
            unsubscribe = heap.observe_writes(
                lambda kind, rid: events.append((kind, rid.page_no))
            )
            try:
                result = w.refresh()
            finally:
                unsubscribe()
                del heap.fix_batch
            return w, result, events

        w, result, events = twin(script)
        # The two NULL slots and the insert's successor, in one partial
        # read: the update stamped, the insert chained to its live
        # predecessor, the successor repointed at it — what the page
        # read whole writes, in the same pin.
        assert events == [("partial", 1)] + [("update", 1)] * 3
        assert result.fixup_writes == 3 and result.deletions_detected == 0
        assert result.rows_decoded == 3
        assert result.entries_evaluated == 2
        assert result.pages_fast_forwarded > result.pages_skipped

    def test_a_delete_on_the_page_is_visited(self):
        def script(w):
            w.refresh()
            w.table.update(w.pages[1][0], {"v": 50})
            w.table.delete(w.pages[1][2])
            return w, w.refresh()

        w, result = twin(script)
        # The summary names the freed slot: the visit reads the update
        # and the freed slot's successor, where the anomaly is.
        assert result.deletions_detected == 1 and result.fixup_writes == 2
        assert result.rows_decoded == 2
        assert result.pages_fast_forwarded > result.pages_skipped
        assert w.table.heap.summaries.get(1).freed_slots == set()

    def test_a_first_entry_delete_is_found_at_its_successor(self):
        def script(w):
            w.refresh()
            w.table.delete(w.pages[1][0])
            return w, w.refresh()

        w, result = twin(script)
        assert result.deletions_detected == 1 and result.fixup_writes == 1
        assert result.rows_decoded == 1  # the new first entry
        assert result.pages_scanned == 1
        assert result.pages_skipped == w.table.heap.page_count - 1
        first_prev = w.cache[1].first_prev
        assert first_prev == w.pages[0][-1]

    def test_a_tail_delete_reads_nothing_on_its_page(self):
        def script(w):
            w.refresh()
            w.table.delete(w.pages[1][-1])
            return w, w.refresh()

        w, result = twin(script)
        # Page 1 is visited for the freed slot alone: no successor on
        # it.  The anomaly is page 2's first entry, whose PrevAddr the
        # boundary test finds stale: that page is read whole.
        assert result.deletions_detected == 1 and result.fixup_writes == 1
        assert result.rows_decoded == w.page_size(2)
        assert result.pages_scanned == 2

    def test_a_tail_insert_is_chained_and_repoints_the_next_page(self):
        def script(w):
            w.refresh()
            hole = w.pages[1][-1]
            w.table.delete(hole)
            w.refresh()
            assert w.table.insert([7, "y" * 900]) == hole
            result = w.refresh()
            assert w.table.annotations(w.pages[2][0])[0] == hole
            return w, result

        w, result = twin(script)
        # The insert is read and chained; page 2's first entry, which
        # Figure 7 repoints at it, is on a page read whole.
        assert result.fixup_writes == 2 and result.deletions_detected == 0
        assert result.rows_decoded == 1 + w.page_size(2)
        assert result.pages_scanned == 2

    def test_a_slot_freed_and_reused_in_one_interval(self):
        def script(w):
            w.refresh()
            victim = w.pages[1][1]
            w.table.delete(victim)
            assert w.table.insert([7, "y" * 900]) == victim
            return w, w.refresh()

        w, result = twin(script)
        # The insert hides the delete in its slot; the successor still
        # names the old record, so it carries the anomaly.
        assert result.deletions_detected == 1 and result.fixup_writes == 2
        assert result.rows_decoded == 2
        assert result.pages_fast_forwarded > result.pages_skipped

    def test_an_insert_next_to_a_delete(self):
        def script(w):
            w.refresh()
            page = w.pages[1]
            w.table.delete(page[2])
            w.refresh()
            assert w.table.insert([7, "y" * 900]) == page[2]
            w.table.delete(page[1])
            return w, w.refresh()

        w, result = twin(script)
        # Slot 1 freed, slot 2 inserted: the insert chains to slot 0 and
        # slot 3, whose PrevAddr still names slot 1, is the anomaly.
        assert result.deletions_detected == 1 and result.fixup_writes == 2
        assert result.rows_decoded == 2
        assert result.pages_fast_forwarded > result.pages_skipped

    def test_a_lagging_cursor_after_a_tail_delete_was_cleared_reads_whole(self):
        def script(w):
            other = w.sibling()
            w.refresh()
            other.refresh()
            w.table.delete(w.pages[1][-1])
            other.refresh()  # visits page 1, empties its freed set
            summary = w.table.heap.summaries.get(1)
            assert not summary.freed_slots and summary.max_ts <= w.snap_time
            w.table.update(w.pages[1][0], {"v": 50})
            result = w.refresh()
            w.streams.extend(other.streams)
            return w, result

        w, result = twin(script)
        # Page 1's max_ts did not move (the anomaly was stamped on page
        # 2, which is read whole for that stamp), but the set was
        # emptied after this cursor's SnapTime: it cannot name the
        # delete, so the page is read whole too.
        assert result.rows_decoded == w.page_size(1) + w.page_size(2)
        assert result.pages_fast_forwarded == result.pages_skipped
        # The update, and page 2's first qualifier for the deleted row.
        assert result.entries_sent == 2

    def test_an_undone_delete_reads_the_page_whole(self):
        def script(w):
            w.refresh()
            txn = w.db.txns.begin()
            w.table.delete(w.pages[1][1], txn=txn)
            txn.abort()
            w.table.update(w.pages[1][0], {"v": 50})
            return w, w.refresh()

        w, result = twin(script)
        # The undo re-insert is a structural change the set cannot name.
        assert result.rows_decoded == w.page_size(1)
        assert result.pages_fast_forwarded == result.pages_skipped
        assert result.fixup_writes == 1 and result.deletions_detected == 0

    def test_another_snapshots_earlier_fix_up_falls_back(self):
        def script(w):
            other = w.sibling()
            w.refresh()
            other.refresh()
            w.table.update(w.rids[1], {"v": 50})
            first = other.refresh()  # visits, stamps above w's SnapTime
            second = w.refresh()
            w.streams.extend(other.streams)
            return w, first, second

        w, first, second = twin(script)
        assert first.rows_decoded == 1 and first.fixup_writes == 1
        # max_ts > SnapTime: the page is not settled for this snapshot.
        assert second.fixup_writes == 0 and second.entries_sent == 1
        assert second.rows_decoded == w.page_size(0)
        assert second.pages_fast_forwarded == second.pages_skipped

    def test_first_prevaddr_repointed_under_the_cache_falls_back(self):
        """Another snapshot's pass repoints page 2's first entry at a
        trailing insert on page 1 (a write that stamps nothing), the
        insert is deleted again, and page 2 takes an update.  This
        snapshot's cached ``first_prev`` equals ``ExpectPrev`` once
        more, but the page itself says otherwise: only reading the
        first ``PrevAddr`` off the page finds the anomaly."""

        def script(w):
            other = w.sibling()
            hole = w.pages[1][-1]
            w.table.delete(hole)
            w.refresh()
            other.refresh()
            assert w.table.insert([7, "y" * 900]) == hole
            other.refresh()  # chains the insert, repoints page 2's first
            first_of_next = w.pages[2][0]
            assert w.table.annotations(first_of_next)[0] == hole
            w.table.delete(hole)
            w.table.update(w.pages[2][1], {"v": 50})
            result = w.refresh()
            assert w.table.annotations(first_of_next)[0] == w.pages[1][-2]
            w.streams.extend(other.streams)
            return w, result

        w, result = twin(script)
        assert result.deletions_detected == 1
        assert result.fixup_writes == 2  # the stamp and the anomaly repair
        assert result.pages_fast_forwarded == result.pages_skipped

    def test_unqualified_last_entry_arms_the_flag_into_the_next_page(self):
        def script(w):
            w.refresh()
            victim = w.pages[0][-1]
            w.table.update(victim, {"v": 1000})  # was qualified, is not
            result = w.refresh()
            assert victim not in w.snapshot.as_map()
            return w, result

        w, result = twin(script)
        # Page 0: the changed record.  Page 1 is clean, but its first
        # qualifier carries the deletion range, as a range delete: page 1
        # is visited and nothing on it is read.
        assert result.rows_decoded == 1 and result.fixup_writes == 1
        assert result.pages_scanned == result.pages_batch_decoded == 2
        assert result.entries_sent == 1
        assert result.pages_skipped == w.table.heap.page_count - 2

    @pytest.mark.parametrize("batch", [False, True])
    def test_channel_failure_mid_visit_leaves_the_page_fully_stamped(self, batch):
        w = _World(batch)
        w.refresh()
        changed = [w.pages[1][0], w.pages[1][2], w.pages[2][1]]
        for rid in changed:
            w.table.update(rid, {"v": 50})

        def dying(message):
            raise ChannelError("link down")

        with pytest.raises(ChannelError):
            w.refresher.refresh(
                w.snap_time, w.restriction, w.projection, dying, cache=w.cache
            )
        # The stream died on page 1's first changed entry; the page's
        # fix-up had already run to its last changed slot — and the
        # scan went no further.
        stamps = [w.table.annotations(rid)[1] for rid in changed]
        assert stamps[0] == stamps[1] and stamps[0] is not NULL
        assert stamps[2] is NULL
        w.refresh()  # a clean retry converges (checked against the truth)

    def test_aborted_refresh_after_a_visit_retries_through_the_batch_path(self):
        db = Database("hq")
        table = db.create_table("t", [("v", "int"), ("pad", "string")])
        table.bulk_load([[i, "x" * 900] for i in range(12)])
        link = FaultyLink()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s",
            "t",
            where="v < 100",
            method="differential",
            channel=link,
            delta_updates=True,
        )
        rids = list(table.heap.scan_rids())
        table.update(rids[1], {"v": 50})
        table.update(rids[9], {"v": 60})
        # Begin, page 0's delta (its visit done, its record stamped),
        # then the second delta dies: the epoch aborts.
        link.fail_at(2)
        with pytest.raises(ChannelError):
            snap.refresh()
        # Both visits had stamped their record before serving it.
        assert table.annotations(rids[1])[1] is not NULL
        assert table.annotations(rids[9])[1] is not NULL
        # SnapTime and the value mirror are where they were: the visit
        # staged its values, it did not patch the committed page dicts.
        sanitize.check_value_cache(snap.value_mirror, snap.table)
        assert snap.value_mirror.lookup(rids[1]) == (1, "x" * 900)
        # The torn attempt's stamps are newer than SnapTime, so the retry
        # reads both pages whole and resends both rows as deltas.
        result = snap.refresh()
        assert result.pages_fast_forwarded == result.pages_skipped
        assert result.pages_scanned == 2 and result.entries_sent == 2
        assert result.fixup_writes == 0 and result.bytes_sent < 900
        truth = {rid: row.values for rid, row in table.scan(visible=True)}
        assert snap.as_map() == truth
        sanitize.check_value_cache(snap.value_mirror, snap.table)
        assert snap.refresh().entries_sent == 0

    def test_interleaved_write_to_a_visited_page_is_repaired_then_skipped(self):
        db = Database("hq", buffer_capacity=64)
        table = db.create_table("t", [("v", "int"), ("pad", "string")])
        table.bulk_load([[i, "x" * 900] for i in range(12)])
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "t", where="v < 100", method="differential"
        )
        rids = list(table.heap.scan_rids())

        def truth():
            return {
                rid: row.values
                for rid, row in table.scan(visible=True)
                if row.values[0] < 100
            }

        table.update(rids[1], {"v": 50})

        def writer(chunk):
            if chunk == 1:  # page 0 was visited in chunk 0
                table.update(rids[2], {"v": 70})

        online = manager.refresh_online(
            "s", chunk_pages=1, on_chunk_boundary=writer
        )
        assert online.interleaved_writes == 1 and online.pages_repaired == 1
        # The visit stamped one record, the repair the other — at the
        # time of the hold each ran under — and published just that row.
        assert online.fixup_writes == 2 and online.entries_sent == 2
        assert table.annotations(rids[2])[1] == online.new_snap_time
        assert table.annotations(rids[1])[1] < online.new_snap_time
        assert snap.as_map() == truth()
        # The repair re-recorded page 0 as it left it: nothing is NULL,
        # nothing is newer than SnapTime, so the next refresh skips it.
        following = manager.refresh("s")
        assert following.pages_scanned == 0 and following.rows_decoded == 0
        assert following.fixup_writes == 0 and following.entries_sent == 0
        assert snap.as_map() == truth()


# -- whole-page reads from the address mirror -----------------------------------
#
# A page that took an insert or a delete is read whole, but a cursor that
# holds a committed entry for it still pays only for what changed: an
# entry not newer than SnapTime qualifies iff the entry names its slot
# (``docs/invariants.md``, address-set mirroring), so the restriction
# runs on the newer ones alone.  ``entries_evaluated`` counts them.


def managed(rows=12, **snapshot_kwargs):
    """``rows`` rows, ~4 a page, one ``v < 100`` snapshot behind a manager."""
    db = Database("hq")
    table = db.create_table("t", [("v", "int"), ("pad", "string")])
    table.bulk_load([[i, "x" * 900] for i in range(rows)])
    manager = SnapshotManager(db)
    snap = manager.create_snapshot(
        "s", "t", where="v < 100", method="differential", **snapshot_kwargs
    )
    return db, table, manager, snap, list(table.heap.scan_rids())


class TestWholePageFromTheMirror:
    def test_delete_reused_slot_and_update_cost_the_changed_entries(self):
        def script(w):
            w.refresh()
            page = w.pages[1]
            w.table.delete(page[1])
            assert w.table.insert([7, "y" * 900]) == page[1]  # the hole
            w.table.delete(page[3])
            w.table.update(page[2], {"v": 50})
            result = w.refresh()
            assert page[3] not in w.snapshot.as_map()
            return w, result

        w, result = twin(script)
        # Page 1 is visited: the reused slot arrives with a NULL
        # PrevAddr, the update with a NULL TimeStamp: two entries newer
        # than SnapTime, two evaluations, and the only records read
        # there (the update is the reused slot's successor).  The row
        # that stayed deleted is a freed held slot: no predicate, and
        # the next page's first qualifier — stamped for the anomaly on
        # a page its boundary test reads whole, yet unchanged — answers
        # the flag unevaluated.
        assert result.pages_fast_forwarded == result.pages_skipped + 1
        assert result.rows_decoded == 2 + w.page_size(2)
        assert result.entries_evaluated == 2
        assert result.entries_sent == 3
        assert result.deletions_detected == 2  # behind the reused slot too
        quiet = w.refresh()
        assert quiet.entries_sent == 0 and quiet.entries_evaluated == 0

    def test_holdings_only_entry_serves_a_page_read_whole(self):
        db, table, manager, snap, rids = managed()
        # The sender loses its page cache; a repairing resync hands it
        # back as holdings-only entries: addresses held, no layout.
        snap.page_mirror.clear()
        snap.table._apply_now([DeleteMessage(rids[6])])
        assert manager.resync_snapshot("s").leaves_repaired == 1
        assert all(info.page_version is None for info in snap.page_mirror.values())
        table.update(rids[5], {"v": 50})
        table.delete(rids[6])
        result = snap.refresh()
        # Such an entry never fast-forwards, so every page is read whole;
        # its qual_slots are all a crossing reads.
        assert result.pages_scanned == table.heap.page_count
        assert result.scanned == table.row_count
        assert result.entries_evaluated == 1
        assert result.entries_sent == 2  # the update; rids[7], flag-forced
        assert snap.as_map() == truth_map(table, 100)
        assert all(info.page_version is not None for info in snap.page_mirror.values())
        assert snap.refresh().entries_sent == 0

    def test_aborted_delete_leaves_the_row_held_and_unsent(self):
        db, table, manager, snap, rids = managed()
        before = table.annotations(rids[5])
        txn = db.txns.begin()
        table.delete(rids[5], txn=txn)
        txn.abort()
        # The undo put the record back in its slot, stamps and all.
        assert table.annotations(rids[5]) == before
        result = snap.refresh()
        assert result.pages_scanned == 1  # the delete marked the page
        assert result.scanned == result.rows_decoded == 4
        assert result.entries_evaluated == 0
        assert result.entries_sent == 0 and result.fixup_writes == 0
        assert snap.as_map() == truth_map(table, 100)


# -- runs of unwritten pages ---------------------------------------------------
#
# A cursor whose page cache carries a write-log mark has only the pages
# written since it served one by one (``_ScanPass.page``); every run of
# pages between them is crossed in one step, stopping early only where
# the pass's own state asks for a page: a boundary the cached first
# ``PrevAddr`` does not continue, or a carried ``Deletion`` flag that
# meets a qualifier.  A cache without a mark walks every page.


@pytest.fixture
def served(monkeypatch):
    """The pages each refresh serves: through ``_ScanPass.page``, or
    stamped in the run loop (``HeapFile.stamp_named``)."""
    calls = []
    serve, stamp = _ScanPass.page, HeapFile.stamp_named

    def counting(scan, page_no, cursors, changed=None):
        calls.append(page_no)
        return serve(scan, page_no, cursors, changed)

    def stamping(heap, page_no, *args):
        batch = stamp(heap, page_no, *args)
        if batch is not None:
            calls.append(page_no)
        return batch

    monkeypatch.setattr(_ScanPass, "page", counting)
    monkeypatch.setattr(HeapFile, "stamp_named", stamping)
    return calls


def pages_of(rids):
    by_page = {}
    for rid in rids:
        by_page.setdefault(rid.page_no, []).append(rid)
    return by_page


class TestWriteLogRuns:
    def test_a_quiet_refresh_serves_no_page(self, served):
        db, table, manager, snap, rids = managed(40)
        served.clear()
        result = snap.refresh()
        assert served == []
        pages = table.heap.page_count
        assert result.pages_skipped == result.pages_fast_forwarded == pages
        assert result.qualified == len(snap.as_map()) == 40
        assert result.entries_sent == result.rows_decoded == 0

    def test_updates_on_k_pages_serve_those_k(self, served):
        db, table, manager, snap, rids = managed(40)
        by_page = pages_of(rids)
        written = [1, 4, 7]
        for page_no in written:
            table.update(by_page[page_no][1], {"v": 50 + page_no})
        served.clear()
        result = snap.refresh()
        assert served == written
        assert result.pages_scanned == len(written)
        assert result.pages_skipped == table.heap.page_count - len(written)
        assert snap.as_map() == truth_map(table, 100)
        served.clear()
        assert snap.refresh().pages_skipped == table.heap.page_count
        assert served == []

    def test_a_carried_deletion_flag_stops_the_run_at_its_qualifier(
        self, served
    ):
        db, table, manager, snap, rids = managed(40)
        victim = pages_of(rids)[3][-1]
        table.update(victim, {"v": 1000})  # was qualified, is not
        served.clear()
        result = snap.refresh()
        # Page 4 is unwritten, but its first qualifier answers the flag.
        assert served == [3, 4]
        assert result.pages_scanned == 2 and result.entries_sent == 1
        assert victim not in snap.as_map()

    def test_a_broken_boundary_stops_the_run_at_its_page(self, served):
        db, table, manager, snap, rids = managed(40)
        table.delete(pages_of(rids)[5][-1])
        served.clear()
        result = snap.refresh()
        # Page 6's first PrevAddr names the deleted entry: the boundary
        # test sends it down the batch path, which finds the anomaly.
        assert served == [5, 6]
        assert result.deletions_detected == 1
        assert snap.as_map() == truth_map(table, 100)

    def test_a_repairing_resync_makes_the_next_refresh_walk_every_page(
        self, served
    ):
        db, table, manager, snap, rids = managed(40)
        snap.table._apply_now([DeleteMessage(rids[6])])
        assert manager.resync_snapshot("s").leaves_repaired == 1
        assert snap.page_mirror.mark is None
        served.clear()
        snap.refresh()
        assert served == list(range(table.heap.page_count))
        served.clear()
        snap.refresh()
        assert served == []

    def test_annotations_enabled_on_a_loaded_table_walk_every_page(
        self, served
    ):
        db = Database("hq")
        table = db.create_table("t", [("v", "int"), ("pad", "string")])
        table.bulk_load([[i, "x" * 900] for i in range(40)])
        table.enable_annotations("lazy")
        snap = SnapshotManager(db).create_snapshot(
            "s", "t", where="v < 100", method="differential"
        )
        pages = list(range(table.heap.page_count))
        assert served == pages  # a fresh cache has no mark
        served.clear()
        snap.refresh()
        assert served == []
        # Rebuilt summaries restart their versions: the log cannot tell
        # what changed since a mark taken before, so every page is served.
        table.heap.summaries.rebuild(table.heap)
        served.clear()
        snap.refresh()
        assert served == pages
        assert snap.as_map() == truth_map(table, 100)
