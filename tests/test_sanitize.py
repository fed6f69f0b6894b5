"""REPRO_SANITIZE=1: injected invariant breaks are caught at runtime."""

import random
import re

import pytest

from repro import sanitize
from repro.core.manager import SnapshotManager
from repro.core.messages import (
    DeleteMessage,
    RefreshBeginMessage,
    RefreshCommitMessage,
    UpsertMessage,
)
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import SanitizerError
from repro.relation.schema import Column, Schema
from repro.relation.types import IntType, StringType
from repro.storage.heap import FreeSpaceMap
from repro.storage.rid import Rid


@pytest.fixture(autouse=True)
def sanitizer_on(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def build(n=40):
    db = Database()
    schema = Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType(), nullable=True),
            Column("v", IntType()),
        ]
    )
    table = db.create_table("items", schema, annotations="lazy")
    rids = [table.insert([i, f"name-{i:04d}", i % 7]) for i in range(n)]
    return db, table, rids


def pool_picture(pool):
    """What an observer sees of a buffer pool: every counter, then the
    resident pages in LRU order with their dirty flags."""
    stats = pool.stats
    counts = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
    return counts, [(no, frame.dirty) for no, frame in pool._frames.items()]


def undo_a_delete(table, rid):
    """Delete ``rid`` and abort: the undo puts the record back in its
    slot, a structural change the page's freed set cannot name, so the
    next refresh reads the page whole."""
    txn = table.db.txns.begin()
    table.delete(rid, txn=txn)
    txn.abort()


class TestEnabledGate:
    def test_env_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()


class TestCleanRuns:
    def test_refresh_cycle_passes_under_sanitizer(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        for i in range(10, 20):
            table.update(rids[i], {"v": 1})
        table.delete(rids[25])
        snap.refresh()
        assert len(snap.table) == sum(
            1 for _, row in table.scan(visible=True) if row.values[2] < 5
        )

    def test_checks_leave_buffer_stats_untouched(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        stats = table.heap.pool.stats
        before = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
        sanitize.check_annotation_chain(table)
        sanitize.check_page_summaries(table)
        after = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
        assert after == before


class TestPoolNeutral:
    """Every clause reads only and leaves the pool as it found it, so a
    table several times the pool's capacity refreshes through the same
    hits, misses, evictions and resident frames with the sanitizer on."""

    def _play(self):
        rng = random.Random(7)
        db = Database(page_size=512, buffer_capacity=8)
        table = db.create_table(
            "items", [("id", "int"), ("v", "int")], annotations="lazy"
        )
        rids = [table.insert([i, i % 7]) for i in range(600)]
        assert table.heap.page_count >= 4 * db.pool.capacity
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5", delta_updates=True)
        pictures = [pool_picture(db.pool)]
        for round_no in range(6):
            for rid in rng.sample(rids, 12):
                table.update(rid, {"v": rng.randrange(7)})
            doomed = rids.pop(rng.randrange(len(rids)))
            table.delete(doomed)
            rids.append(table.insert([1000 + round_no, rng.randrange(7)]))
            if round_no % 3 == 2:

                def writer(chunk):
                    if chunk == 3:
                        table.update(rids[0], {"v": rng.randrange(7)})

                manager.refresh_online("s", chunk_pages=4, on_chunk_boundary=writer)
            else:
                manager.refresh("s")
            pictures.append(pool_picture(db.pool))
        manager.resync_snapshot("s")
        pictures.append(pool_picture(db.pool))
        return pictures

    def test_sanitized_refreshes_leave_the_pool_as_plain_ones_do(
        self, monkeypatch
    ):
        sanitized = self._play()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        plain = self._play()
        assert plain[-1][0][2] > 0  # the refreshes evicted
        assert sanitized == plain


class TestAnnotationChain:
    def test_torn_chain_is_caught(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        # The initial refresh ran fix-up, so the chain is whole; now
        # tear it (entry 3 must point at entry 2, not entry 0).
        table.set_annotations(rids[3], prev=rids[0])
        with pytest.raises(SanitizerError, match="does not tile"):
            sanitize.check_annotation_chain(table)

    def test_a_torn_eager_chain_fails_the_next_refresh(self):
        db = Database()
        table = db.create_table("e", [("v", "int")], annotations="eager")
        rids = [table.insert([i]) for i in range(20)]
        snap = SnapshotManager(db).create_snapshot(
            "s", "e", where="v < 5", method="differential"
        )
        # No fix-up runs on an eager table: the chain is its hook's, kept
        # on every write (undo too), so every pass is held to it.
        table.set_annotations(rids[3], prev=rids[0])
        with pytest.raises(SanitizerError, match="does not tile"):
            snap.refresh()

    def test_missing_timestamp_is_caught(self):
        from repro.relation.types import NULL

        db, table, rids = build()
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        table.set_annotations(rids[3], ts=NULL)
        with pytest.raises(SanitizerError, match="NULL timestamp"):
            sanitize.check_annotation_chain(table)


class TestPageSummaries:
    def test_corrupt_max_ts_fails_the_next_refresh(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        for i in range(5):
            table.update(rids[i], {"v": 1})
        snap.refresh()
        # A summary claiming "nothing newer than 0" would let the scan
        # skip a page whose rows are newer — the refresh must notice.
        summary = table.heap.summaries.get(0)
        assert summary is not None
        summary.max_ts = 0
        with pytest.raises(SanitizerError, match="wrongly skipped"):
            snap.refresh()


class TestFreeMap:
    def test_a_delete_the_map_missed_fails_the_next_refresh(self, monkeypatch):
        db, table, rids = build(400)
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        heap = table.heap
        assert heap.free_map.capacity >= 4
        sanitize.check_free_map(heap)
        with monkeypatch.context() as patch:  # the bytes free, the leaf not
            patch.setattr(FreeSpaceMap, "add", lambda fsm, page, delta: None)
            table.delete(rids[150])
        with pytest.raises(
            SanitizerError, match=f"for page {rids[150].page_no}, which has"
        ):
            snap.refresh()

    def test_a_node_below_its_children_is_caught(self):
        db, table, rids = build(400)
        SnapshotManager(db).create_snapshot("s", "items", where="v < 5")
        table.delete(rids[10])  # page 0 has the most room of its pair
        fsm = table.heap.free_map
        parent = (fsm.capacity + 0) // 2
        fsm.tree[parent] = fsm[1]
        with pytest.raises(SanitizerError, match=f"node {parent} holds"):
            sanitize.check_free_map(table.heap)


class TestWriteLog:
    def test_a_write_the_log_missed_fails_the_next_refresh(self, monkeypatch):
        db, table, rids = build(200)
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        assert table.heap.page_count >= 2
        summaries = table.heap.summaries

        def unlogged(page_no):  # the page's version moves, the log's not
            summary = summaries.get_or_create(page_no)
            summary.page_version += 1
            return summary

        with monkeypatch.context() as patch:
            patch.setattr(summaries, "_written", unlogged)
            table.update(rids[-1], {"v": 1})
        page_no = rids[-1].page_no
        with pytest.raises(
            SanitizerError, match=f"page {page_no}: .* in a run of unwritten"
        ):
            snap.refresh()


class TestEpochIsolation:
    def _snapshot(self):
        db = Database()
        schema = Schema(
            [Column("name", StringType()), Column("v", IntType())]
        )
        return SnapshotTable(db, "s", schema)

    def test_staged_leak_is_caught_on_read(self):
        snap = self._snapshot()
        snap.apply(RefreshBeginMessage(1))
        # Simulate a staging bug: a message reaches visible storage
        # while the epoch is still open.
        snap._apply_now([UpsertMessage(Rid(0, 0), ("leak", 1), 8)])
        with pytest.raises(SanitizerError, match="leaked"):
            snap.rows()

    def test_staged_leak_is_caught_at_commit(self):
        snap = self._snapshot()
        snap.apply(RefreshBeginMessage(1))
        snap._apply_now([UpsertMessage(Rid(0, 0), ("leak", 1), 8)])
        with pytest.raises(SanitizerError, match="leaked"):
            snap.apply(RefreshCommitMessage(1, 0))

    def test_clean_epoch_commits_and_reads(self):
        snap = self._snapshot()
        snap.apply(RefreshBeginMessage(1))
        message = UpsertMessage(Rid(0, 0), ("ok", 1), 8)
        snap.apply(message)
        assert snap.rows() == []  # staged, not visible
        snap.apply(RefreshCommitMessage(1, 1))
        assert [row.values for row in snap.rows()] == [("ok", 1)]


class TestStorageIndex:
    """After a commit, each row it wrote carries the BaseAddr the index
    maps to it, and storage holds exactly the index's rows."""

    def _paired(self):
        """A snapshot and a commit where address 3 takes 2's row."""
        schema = Schema([Column("name", StringType()), Column("v", IntType())])
        snap = SnapshotTable(Database(), "s", schema)
        for slot in (1, 2):
            snap._upsert(Rid(0, slot), (f"r{slot}", slot))
        stage = [
            DeleteMessage(Rid(0, 2)),
            UpsertMessage(Rid(0, 3), ("r3", 3), 8),
        ]
        return snap, stage

    def _commit(self, snap, stage):
        snap.apply(RefreshBeginMessage(1))
        for message in stage:
            snap.apply(message)
        snap.apply(RefreshCommitMessage(1, len(stage)))

    def _keep_baseaddr(self, monkeypatch, snap):
        """The bug: a rewrite keeps the stored ``$BASEADDR$``."""
        storage = snap.storage
        rewrite = storage.system_update_values

        def kept(rid, values, positions=None):
            stored = storage.read(rid, visible=False).values[2]
            return rewrite(rid, (*values[:-1], stored), positions)

        monkeypatch.setattr(storage, "system_update_values", kept)

    def test_a_paired_commit_passes(self):
        snap, stage = self._paired()
        self._commit(snap, stage)
        assert snap.storage.heap.writes.inserts == 2  # the preload's
        assert snap.as_map() == {Rid(0, 1): ("r1", 1), Rid(0, 3): ("r3", 3)}

    def test_a_taken_row_that_keeps_the_old_baseaddr_is_caught(
        self, monkeypatch
    ):
        snap, stage = self._paired()
        self._keep_baseaddr(monkeypatch, snap)
        with pytest.raises(SanitizerError, match=r"\$BASEADDR\$ is Rid\(0, 2\)"):
            self._commit(snap, stage)
        # Caught by that clause alone: without it the commit passes and
        # every contents oracle (they read addresses from the index) agrees.
        snap, stage = self._paired()
        self._keep_baseaddr(monkeypatch, snap)
        monkeypatch.setattr(sanitize, "check_storage_index", lambda *a: None)
        self._commit(snap, stage)
        assert snap.as_map() == {Rid(0, 1): ("r1", 1), Rid(0, 3): ("r3", 3)}
        assert [row.values[2] for _, row in snap.storage.scan_full()] == [
            Rid(0, 1), Rid(0, 2)
        ]

    def test_an_orphan_row_is_caught(self, monkeypatch):
        snap, _ = self._paired()
        # The bug: the flush forgets to delete what left.
        monkeypatch.setattr(snap.storage, "system_delete", lambda rid: None)
        with pytest.raises(SanitizerError, match="storage holds 2 rows but"):
            self._commit(snap, [DeleteMessage(Rid(0, 2))])


class TestValueCacheMirror:
    def test_diverged_mirror_fails_the_next_refresh(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v >= 0", delta_updates=True
        )
        assert len(snap.value_cache) > 0
        page_values = snap.value_cache.pages[rids[0].page_no]
        page_values[rids[0]] = ("corrupt", "corrupt", -1)
        with pytest.raises(SanitizerError, match="mirror"):
            snap.refresh()

    def test_direct_check_spots_a_phantom_entry(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        doomed = next(
            rid for rid in rids if snap.table.lookup(rid) is not None
        )
        snap.table._apply_now([DeleteMessage(doomed)])
        with pytest.raises(SanitizerError, match="no such entry"):
            sanitize.check_value_cache(snap.value_cache, snap.table)


class TestAddressMirror:
    """The page cache names the addresses the snapshot holds."""

    def _mirrored(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        return table, rids, manager, snap

    def test_forged_slot_fails_the_next_refresh(self):
        table, rids, manager, snap = self._mirrored()
        info = snap.page_cache[0]
        unheld = next(
            rid.slot_no
            for rid in rids
            if rid.page_no == 0 and snap.table.lookup(rid) is None
        )
        info.qual_slots.append(unheld)  # a row the receiver never got
        with pytest.raises(SanitizerError, match="address mirror"):
            snap.refresh()

    def test_an_address_on_an_unknown_page_is_caught(self):
        table, rids, manager, snap = self._mirrored()
        del snap.page_cache[snap.table.base_addrs()[-1].page_no]
        with pytest.raises(SanitizerError, match="address mirror"):
            sanitize.check_address_mirror(snap.page_cache, snap.table)

    def test_aborted_attempt_leaves_the_committed_mirror(self):
        from repro.errors import ChannelError
        from repro.net.faults import FaultyLink

        db, table, rids = build()
        link = FaultyLink()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", channel=link
        )
        before = {
            page_no: (info.page_version, list(info.qual_slots))
            for page_no, info in snap.page_cache.items()
        }
        moved = next(rid for rid in rids if snap.table.lookup(rid) is None)
        table.update(moved, {"v": 1})  # now qualifies: staged into its page
        link.fail_at(1)
        with pytest.raises(ChannelError):
            snap.refresh()  # _abort_attempt audits the mirror itself
        assert before == {
            page_no: (info.page_version, list(info.qual_slots))
            for page_no, info in snap.page_cache.items()
        }
        link.clear_faults()
        snap.refresh()
        assert moved.slot_no in snap.page_cache[moved.page_no].qual_slots

    def test_repairing_resync_is_audited(self):
        table, rids, manager, snap = self._mirrored()
        table.insert([99, "late", 1])
        assert manager.resync_snapshot("s").leaves_repaired
        sanitize.check_address_mirror(snap.page_cache, snap.table)


class TestChangedSlotVisit:
    """The visit trusts the summary for every slot it does not read."""

    def _visited(self):
        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        return db, table, rids, snap

    def test_clean_visit_passes_and_is_observation_neutral(self, monkeypatch):
        observed = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_SANITIZE", flag)
            db, table, rids, snap = self._visited()
            table.update(rids[3], {"v": 1})
            result = snap.refresh()
            assert result.pages_fast_forwarded > result.pages_skipped
            observed.append(
                (
                    result.rows_decoded,
                    result.buffer_hits,
                    result.buffer_misses,
                    pool_picture(table.heap.pool),
                )
            )
        assert observed[0] == observed[1]
        assert observed[0][0] == 1

    def test_unmarked_change_outside_null_slots_is_caught(self):
        from repro.relation.row import encode_row

        db, table, rids, snap = self._visited()
        # A write that leaves no mark: the row stops qualifying, but its
        # annotations stay set, so the summary does not name its slot.
        row = table.read(rids[2], visible=False)
        forged = row.replace(table.schema, v=6)
        table.heap.update(rids[2], encode_row(table.schema, forged))
        table.update(rids[3], {"v": 1})  # same page: it gets a visit
        with pytest.raises(SanitizerError, match="qualifying slots"):
            snap.refresh()

    def test_a_delete_that_names_no_slot_is_caught(self):
        db, table, rids = build(41)
        snap = SnapshotManager(db).create_snapshot("s", "items", where="v < 5")
        summaries = table.heap.summaries
        note_delete = summaries.note_delete

        def unnamed(rid, page):  # the bug: the freed set misses the slot
            note_delete(rid, page)
            summary = summaries.get(rid.page_no)
            summary.freed_slots = summary.freed_slots - {rid.slot_no}

        summaries.note_delete = unnamed
        # The page's last row, which does not qualify: its successor is
        # past the heap's end and no qualifier moves, so the page's
        # chain and layout come out right — only the record's last live
        # slot, empty now, shows what the visit was not told.
        assert rids[40].slot_no == rids[39].slot_no + 1
        table.delete(rids[40])
        table.update(rids[3], {"v": 1})  # same page: it gets a visit
        with pytest.raises(SanitizerError, match="did not name its slot"):
            snap.refresh()

    def test_freed_set_left_named_after_a_visit_is_caught(self):
        db, table, rids, snap = self._visited()
        # The bug: Figure 7 passes the page and the set stays named.
        table.heap.summaries.chained = lambda page_no, at: None
        table.delete(rids[3])
        with pytest.raises(SanitizerError, match="left freed slots"):
            snap.refresh()


class TestQualifierAndValueMirror:
    """The sanitizer holds the scan's rendered qualifier to the
    interpreter, and the value mirror to the addresses held."""

    def _visited(self):
        db, table, rids = build()
        for rid in rids[5::7]:  # no row on the boundary v = 5
            table.update(rid, {"v": 6})
        manager = SnapshotManager(db)
        snap = manager.create_snapshot(
            "s", "items", where="v < 5", delta_updates=True
        )
        return table, rids, snap

    def test_a_qualifier_rendered_with_le_for_lt_is_caught(self, monkeypatch):
        from repro.expr import nodes
        from repro.expr.predicate import Restriction

        def render_afresh():
            for restriction in Restriction._parse_cache.values():
                restriction._qualifier = None

        table, rids, snap = self._visited()
        # The bug: "<" renders as "<=", in qualifiers rendered from now on
        # (and none rendered under it outlives the test).
        monkeypatch.setitem(nodes._PYTHON_COMPARATORS, "<", "<=")
        render_afresh()
        try:
            # The one row on the boundary, which only "<=" takes: a
            # sanitizer asking the same qualifier would agree with the visit.
            table.update(rids[3], {"v": 5})
            with pytest.raises(SanitizerError) as caught:
                snap.refresh()
        finally:
            render_afresh()
        message = str(caught.value)
        assert "a changed-slot visit recorded" in message
        assert "value mirror" not in message

    def test_a_mirror_dict_that_keeps_a_gone_address_is_caught(self, monkeypatch):
        from repro.core import cursor

        table, rids, snap = self._visited()
        # The bug: the pass's copy of the page dict keeps every address.
        monkeypatch.setattr(
            cursor, "without", lambda values, page_no, gone: dict(values)
        )
        table.update(rids[2], {"v": 6})  # held, and stops qualifying: gone
        with pytest.raises(SanitizerError) as caught:
            snap.refresh()
        error = caught.value
        while error.__context__ is not None:
            error = error.__context__
        message = str(error)
        assert "staged value mirror holds slots [2]" in message
        assert "kept a gone address" in message


class TestMirrorCrossing:
    """A cursor crossing a page from its committed entry evaluates the
    entries newer than its SnapTime and trusts the entry for the rest."""

    def _forged(self):
        from array import array

        db, table, rids = build()
        manager = SnapshotManager(db)
        snap = manager.create_snapshot("s", "items", where="v < 5")
        info = snap.page_cache[0]
        unheld = next(
            rid.slot_no
            for rid in rids
            if rid.page_no == 0 and snap.table.lookup(rid) is None
        )
        # A live, unchanged row that does not qualify, named as held.
        info.qual_slots = array("H", sorted([*info.qual_slots, unheld]))
        return table, rids, snap

    @staticmethod
    def _first_error(snap):
        """The error the scan died of (the manager's abort audits the
        forged mirror too, and raises on top of it)."""
        with pytest.raises(SanitizerError) as caught:
            snap.refresh()
        error = caught.value
        while error.__context__ is not None:
            error = error.__context__
        assert isinstance(error, SanitizerError)
        return str(error)

    def test_forged_slot_is_caught_on_a_visit(self):
        table, rids, snap = self._forged()
        table.update(rids[3], {"v": 1})
        assert "a changed-slot visit" in self._first_error(snap)

    def test_forged_slot_is_caught_on_a_page_read_whole(self):
        table, rids, snap = self._forged()
        table.delete(rids[3])
        undo_a_delete(table, rids[9])  # a structural change: no visit
        assert "crossed the page" in self._first_error(snap)

    def test_clean_whole_page_read_passes_and_is_observation_neutral(
        self, monkeypatch
    ):
        observed = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_SANITIZE", flag)
            db, table, rids = build()
            snap = SnapshotManager(db).create_snapshot(
                "s", "items", where="v < 5"
            )
            table.delete(rids[3])
            table.update(rids[8], {"v": 6})
            undo_a_delete(table, rids[9])  # a structural change: no visit
            result = snap.refresh()
            assert result.pages_fast_forwarded == result.pages_skipped
            observed.append(
                (
                    result.rows_decoded,
                    result.entries_evaluated,
                    result.entries_sent,
                    result.buffer_hits,
                    result.buffer_misses,
                    pool_picture(table.heap.pool),
                )
            )
        assert observed[0] == observed[1]
        assert observed[0][:2] == (39, 1)


class TestOnlineRepair:
    """The repair trusts the write observer for every slot it does not
    read; what it re-records must be the whole repaired page."""

    def _world(self):
        db = Database(page_size=512)
        table = db.create_table(
            "items", [("id", "int"), ("v", "int")], annotations="lazy"
        )
        rids = [table.insert([i, i % 7]) for i in range(60)]
        assert table.heap.page_count >= 4
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        return table, rids, manager

    def test_clean_repair_passes_and_is_observation_neutral(self, monkeypatch):
        observed = []
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_SANITIZE", flag)
            table, rids, manager = self._world()

            def writer(chunk, table=table, rids=rids):
                if chunk == 2:  # page 0 is behind the scan
                    table.update(rids[3], {"v": 1})
                    table.delete(rids[5])
                    table.insert([99, 2])  # first-fit: rids[5]'s slot

            result = manager.refresh_online(
                "s", chunk_pages=1, on_chunk_boundary=writer
            )
            assert result.pages_repaired == 1
            observed.append(
                (
                    result.rows_decoded,
                    result.fixup_writes,
                    result.buffer_hits,
                    result.buffer_misses,
                    pool_picture(table.heap.pool),
                )
            )
        assert observed[0] == observed[1]

    def test_write_the_observer_missed_is_caught(self):
        from repro.relation.row import encode_row

        table, rids, manager = self._world()
        heap = table.heap

        def writer(chunk):
            if chunk == 2:
                table.update(rids[3], {"v": 1})  # page 0 gets repaired
                # A second write there that nobody is told about: the
                # row stops qualifying, the repair never reads it.
                observers, heap._write_observers = heap._write_observers, []
                row = table.read(rids[2], visible=False)
                forged = row.replace(table.schema, v=6)
                heap.update(rids[2], encode_row(table.schema, forged))
                heap._write_observers = observers

        with pytest.raises(SanitizerError, match="an online repair"):
            manager.refresh_online("s", chunk_pages=1, on_chunk_boundary=writer)

    def test_repair_left_open_is_caught_in_its_own_hold(self, monkeypatch):
        """Repair closure holds per hold: a window's repair that leaves
        the scanned prefix's chain torn is caught before the next chunk,
        not at the end of the pass."""
        from repro.core.scanpass import _ScanPass

        table, rids, manager = self._world()
        tail = max(rid for rid in rids if rid.page_no == 0)
        head = rids[rids.index(tail) + 1]
        windows = []

        def writer(chunk):
            windows.append(chunk)
            if chunk == 3:  # page 1, tail's successor, is behind the scan
                table.delete(tail)

        # The break: the successor's PrevAddr is never repointed.
        monkeypatch.setattr(_ScanPass, "_close_chain", lambda *args: False)
        torn = re.escape(f"entry {head} has PrevAddr {tail}")
        with pytest.raises(SanitizerError, match=torn):
            manager.refresh_online("s", chunk_pages=1, on_chunk_boundary=writer)
        assert windows == [1, 2, 3] < list(range(1, table.heap.page_count))


class TestSeal:
    """A write between the seal and the commit must unsettle its page:
    the mirror's records and mark commit after the lock is released."""

    def _world(self):
        db = Database(page_size=512)
        table = db.create_table(
            "items", [("id", "int"), ("v", "int")], annotations="lazy"
        )
        rids = [table.insert([i, i % 7]) for i in range(60)]
        assert table.heap.page_count >= 4
        manager = SnapshotManager(db)
        manager.create_snapshot("s", "items", where="v < 5")
        return table, rids, manager

    def test_a_post_seal_write_passes(self):
        table, rids, manager = self._world()

        def writer(chunk):
            if chunk == table.heap.page_count:  # the window after the seal
                table.update(rids[3], {"v": 6})

        manager.refresh_online("s", chunk_pages=1, on_chunk_boundary=writer)
        assert rids[3] in manager.snapshot("s").as_map()  # the cut: v = 3
        manager.refresh("s")
        assert rids[3] not in manager.snapshot("s").as_map()
        assert manager.refresh("s").entries_sent == 0

    def test_a_post_seal_write_that_skips_the_version_bump_is_caught(
        self, monkeypatch
    ):
        table, rids, manager = self._world()
        summaries = table.heap.summaries
        bump = summaries._written

        def unbumped(page_no):  # logged, but the version stands still
            summary = bump(page_no)
            summary.page_version -= 1
            return summary

        def writer(chunk):
            if chunk == table.heap.page_count:  # the window after the seal
                with monkeypatch.context() as patch:
                    patch.setattr(summaries, "_written", unbumped)
                    table.update(rids[3], {"v": 6})

        page_no = rids[3].page_no
        with pytest.raises(
            SanitizerError, match=f"page {page_no} was written after the sealed"
        ):
            manager.refresh_online("s", chunk_pages=1, on_chunk_boundary=writer)
