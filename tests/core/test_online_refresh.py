"""Writer-concurrent (chunked watermark) refresh through the manager.

The contract under test: ``refresh_online`` commits receiver state
identical to what a quiescent ``refresh`` of the base table *as of the
seal* — the end of the last chunk, the pass's new ``SnapTime`` — would
produce, no matter what committed writes interleave at chunk
boundaries; a write in the window after the seal reaches the snapshot
on the next refresh, and the one after that has nothing to do.  With
no interleaving, the emitted stream is byte-for-byte the monolithic
scan's.
"""

import pytest

from repro import sanitize
from repro.core import manager as manager_module
from repro.core.manager import SnapshotManager
from repro.core.messages import (
    DeleteMessage,
    EndOfScanMessage,
    RefreshCommitMessage,
    SnapTimeMessage,
    UpsertMessage,
)
from repro.core.per_row import run_row_scan
from repro.database import Database
from repro.errors import ChannelError, RefreshMethodError, SnapshotError
from repro.relation.types import NULL


def build(n_rows=2000, **manager_kwargs):
    db = Database("hq", buffer_capacity=64)
    table = db.create_table("emp", [("name", "string"), ("salary", "int")])
    table.bulk_load([[f"e{i}", i % 20] for i in range(n_rows)])
    manager = SnapshotManager(db, **manager_kwargs)
    snap = manager.create_snapshot(
        "low", "emp", where="salary < 10", method="differential"
    )
    manager.refresh("low")
    return db, table, manager, snap


def truth(table):
    return {
        rid: (row[0], row[1])
        for rid, row in table.scan()
        if row[1] < 10
    }


def contents(snap):
    return {
        addr: tuple(values)[:2]
        for addr, values in snap.table.as_map().items()
    }


def sealing(table, writer):
    """``writer`` as a boundary hook that first records ``truth(table)``:
    the last record is the base as of the seal, the pass's cut."""
    seals = []

    def hook(chunk):
        seals.append(truth(table))
        writer(chunk)

    return hook, seals


def assert_cut_at_seal(manager, snap, table, seals, name="low"):
    """The snapshot is the base as of the seal; one refresh later it is
    the base now, and a further refresh has nothing to do."""
    assert contents(snap) == seals[-1]
    manager.refresh(name)
    assert contents(snap) == truth(table)
    assert_settled(manager, name)


class TestQuiescent:
    def test_matches_truth(self):
        db, table, manager, snap = build()
        rids = list(table.heap.scan_rids())
        table.update(rids[3], {"salary": 5})
        table.delete(rids[7])
        table.insert(["n1", 2])
        result = manager.refresh_online("low", chunk_pages=2)
        assert result.chunks_scanned > 1
        assert result.interleaved_writes == 0
        assert result.pages_repaired == 0
        assert contents(snap) == truth(table)

    def test_stream_identical_to_monolithic(self):
        """Same history in two worlds: chunked == monolithic, byte-wise."""
        streams = {}
        for mode in ("chunked", "monolithic"):
            db, table, manager, snap = build(n_rows=600)
            rids = list(table.heap.scan_rids())
            table.update(rids[5], {"salary": 1})
            table.delete(rids[50])
            captured = capture(snap)
            if mode == "chunked":
                manager.refresh_online("low", chunk_pages=1)
            else:
                manager.refresh("low")
            streams[mode] = captured
        chunked, monolithic = streams["chunked"], streams["monolithic"]
        assert len(chunked) > 4  # Begin, an entry or two, EndOfScan, ...
        assert [repr(m) for m in chunked] == [repr(m) for m in monolithic]
        assert sum(m.wire_size() for m in chunked) == sum(
            m.wire_size() for m in monolithic
        )


class TestRacingWriter:
    def test_boundary_writes_are_merged(self):
        db, table, manager, snap = build()
        counter = [0]

        def writer(chunk):
            table.insert([f"w{counter[0]}", 3])
            counter[0] += 1
            rids = list(table.heap.scan_rids())
            table.update(rids[0], {"salary": (counter[0] * 7) % 20})
            table.delete(rids[len(rids) // 2])

        hook, seals = sealing(table, writer)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=hook
        )
        assert counter[0] > 0  # the writer actually ran
        assert result.interleaved_writes > 0
        assert seals[-1] != truth(table)  # it wrote after the seal too
        assert_cut_at_seal(manager, snap, table, seals)

    def test_lock_released_at_boundaries(self):
        db, table, manager, snap = build()
        windows = []

        def writer(chunk):
            # At a boundary the refresh must genuinely hold no lock on
            # the base table, or a real writer could never commit here.
            holders = db.locks.holders(("table", "emp"))
            windows.append(chunk)
            assert not any(
                owner == ("refresh", "low") for owner, _ in holders
            )

        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=writer)
        assert windows

    def test_repaired_pages_counted(self):
        db, table, manager, snap = build()
        scanned_rids = list(table.heap.scan_rids())

        def writer(chunk):
            # Dirty a page the scan has already passed.
            table.update(scanned_rids[0], {"salary": chunk % 20})

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired >= 1
        assert contents(snap) == truth(table)

    def test_repairs_decode_only_qualifiers_once_for_all_cursors(
        self, monkeypatch
    ):
        """Repair rows come from the page's batch, shared by the pass."""
        import repro.storage.batch as batch_module
        from repro.core.cursor import RefreshCursor
        from repro.core.differential import ScanPlan
        from repro.core.group import GroupRefresher
        from repro.core.messages import EntryMessage, UpsertMessage
        from repro.expr.predicate import Projection, Restriction

        db = Database("hq")
        table = db.create_table(
            "emp", [("name", "string"), ("salary", "int")], annotations="lazy"
        )
        table.bulk_load([[f"e{i}", i % 20] for i in range(900)])
        assert table.heap.page_count >= 4
        scanned_rids = list(table.heap.scan_rids())
        projection = Projection(table.schema)
        sents = [[], [], []]
        cursors = [
            RefreshCursor(
                0,
                Restriction.parse(where, table.schema),
                projection,
                sents[index].append,
                name=f"s{index}",
            )
            for index, where in enumerate(
                ("salary < 10", "salary < 10", "salary >= 18")
            )
        ]

        def writer(chunk):
            if chunk == 1:  # dirty page 0, which every cursor has passed
                table.update(scanned_rids[0], {"salary": 3})

        decodes = []
        original = batch_module.decode_row

        def counting(schema, body):
            decodes.append(body)
            return original(schema, body)

        monkeypatch.setattr(batch_module, "decode_row", counting)

        outcome = GroupRefresher(table).refresh_group(
            cursors, plan=ScanPlan(1, writer)
        )
        assert not outcome.errors
        assert outcome.pass_result.pages_repaired == 1
        upserts = [
            [m for m in sent if isinstance(m, UpsertMessage)] for sent in sents
        ]
        assert upserts[0] and upserts[2]
        assert [repr(m) for m in upserts[0]] == [repr(m) for m in upserts[1]]
        repaired = {m.addr for sent in upserts for m in sent}
        # The scan decodes a full row once per transmitted entry, off
        # the page's batch: one per qualifier of any cursor.  The repair
        # adds one decode per *distinct* repaired row — not one per row
        # of the dirty page per cursor.
        transmitted = {
            m.addr
            for sent in sents
            for m in sent
            if isinstance(m, EntryMessage)
        }
        assert len(decodes) == len(transmitted) + len(repaired)

    def test_followup_refresh_heals_interleaved_annotations(self):
        """Interleaved inserts are chained and stamped by the pass that
        publishes them; the next pass heals only the insert made after
        the seal, and the one after that finds nothing left."""
        db, table, manager, snap = build()

        def writer(chunk):
            table.insert([f"late{chunk}", 4])

        hook, seals = sealing(table, writer)
        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=hook)
        assert contents(snap) == seals[-1]
        healed = manager.refresh("low")
        assert healed.entries_sent == 1  # the insert after the seal
        assert contents(snap) == truth(table)
        sanitize.check_annotation_chain(table)  # no NULL, no torn chain
        table.update(list(table.heap.scan_rids())[1], {"salary": 2})
        result = manager.refresh("low")
        assert result.fixup_writes == 1 and result.entries_sent == 1
        assert contents(snap) == truth(table)

    def test_inserts_extending_heap_are_scanned(self):
        db, table, manager, snap = build(n_rows=300)

        def writer(chunk):
            for i in range(40):  # enough to append fresh pages
                table.insert([f"grow{chunk}-{i}", 1])

        hook, seals = sealing(table, writer)
        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=hook)
        assert_cut_at_seal(manager, snap, table, seals)


@pytest.fixture(params=["mirrored", "no-summaries", "per-row"])
def config(request, monkeypatch):
    """Manager kwargs: the defaults, and the two paper-rule twins — no
    page cache to mirror the snapshot's addresses, or the manager's
    passes run on the per-row reference (``core/per_row.py``) — where
    Figure 3's own arming rule runs."""
    if request.param == "per-row":
        monkeypatch.setattr(manager_module, "run_refresh_scan", run_row_scan)
    if request.param == "no-summaries":
        return {"use_page_summaries": False}
    return {}


class TestRepairPublishes:
    """What a repair publishes, a later refresh must be able to retract.

    ``repair_page`` upserts rows the scan never chained: an insert it
    publishes has a NULL ``PrevAddr``, so no successor ever pointed at
    it and Figure 7 sees no anomaly when it goes.  The cursor's page
    cache records the repaired page's addresses, and the next refresh
    arms its ``Deletion`` flag from that.
    """

    def test_repaired_insert_deleted_before_the_next_refresh(self, config):
        db, table, manager, snap = build(**config)
        rids = list(table.heap.scan_rids())
        table.delete(rids[5])
        manager.refresh("low")
        late = []

        def writer(chunk):
            if chunk == 2:  # first-fit: into the hole on page 0, scanned
                late.append(table.insert(["late", 3]))

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert late == [rids[5]] and result.pages_repaired == 1
        assert contents(snap) == truth(table)
        table.delete(late[0])
        manager.refresh("low")
        assert late[0] not in contents(snap)
        assert contents(snap) == truth(table)

    def test_repaired_qualifier_updated_out_before_the_next_refresh(
        self, config
    ):
        """The mirror's own hazard: the row did not qualify when its
        chunk was scanned, an in-window update made it qualify (the
        repair published it), a later update takes it out again.  Only
        the repair knows the snapshot ever held it."""
        db, table, manager, snap = build(**config)
        rids = list(table.heap.scan_rids())
        victim = rids[15]  # salary 15: not in the snapshot
        assert victim.page_no == 0 and victim not in contents(snap)

        def writer(chunk):
            if chunk == 2:
                table.update(victim, {"salary": 3})

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired == 1 and victim in contents(snap)
        table.update(victim, {"salary": 15})
        manager.refresh("low")
        assert victim not in contents(snap)
        assert contents(snap) == truth(table)
        assert manager.refresh("low").entries_sent == 0


def capture(snap, lose=()):
    """Record every message the snapshot's channel delivers; the link
    goes down on one of a type in ``lose`` instead."""
    captured = []
    receive = snap.table.receiver()

    def deliver(message):
        if isinstance(message, lose):
            raise ChannelError("link down")
        captured.append(message)
        receive(message)

    snap.channel.detach()
    snap.channel.attach(deliver)
    return captured


def repair_section(messages):
    """The messages an online pass sent between EndOfScan and SnapTime."""
    kinds = [type(m) for m in messages]
    start = kinds.index(EndOfScanMessage) + 1
    return messages[start : kinds.index(SnapTimeMessage, start)]


def assert_settled(manager, name="low"):
    """A plain refresh straight after the pass has nothing to do."""
    result = manager.refresh(name)
    assert result.entries_sent == 0 and result.fixup_writes == 0
    assert result.deletions_detected == 0
    if manager.use_page_summaries:
        assert result.pages_scanned == 0
    return result


class TestPassTime:
    """A pass's ``FixupTime`` is good for one lock hold, not for the pass."""

    def test_sibling_refreshed_in_a_window_sees_a_later_windows_write(
        self, config
    ):
        """``b`` takes its SnapTime inside one of ``a``'s windows; a row
        written in a later window and stamped by ``a`` must carry a time
        after it, or ``b`` never sees the write."""
        db = Database("hq", buffer_capacity=64)
        table = db.create_table("emp", [("name", "string"), ("salary", "int")])
        table.bulk_load([[f"e{i}", i % 20] for i in range(600)])
        manager = SnapshotManager(db, **config)
        snaps = {
            name: manager.create_snapshot(
                name, "emp", where="salary < 10", method="differential"
            )
            for name in ("a", "b")
        }
        rids = list(table.heap.scan_rids())
        victim = next(
            rid
            for rid in reversed(rids)
            if table.read(rid)[1] == 5
        )
        assert victim.page_no == table.heap.page_count - 1 > 2

        def hook(chunk):
            if chunk == 1:
                manager.refresh("b")
            elif chunk == 2:  # its page is not scanned yet
                table.update(victim, {"salary": 7})

        online = manager.refresh_online(
            "a", chunk_pages=1, on_chunk_boundary=hook
        )
        assert contents(snaps["a"]) == truth(table)
        # The stamp is the last hold's time, which is a's new SnapTime
        # and later than the SnapTime b took in the first window.
        assert table.annotations(victim)[1] == online.new_snap_time
        assert online.new_snap_time > snaps["b"].snap_time
        result = manager.refresh("b")
        assert result.entries_sent == 1
        assert contents(snaps["b"])[victim] == (table.read(victim)[0], 7)
        assert contents(snaps["b"]) == truth(table)
        assert_settled(manager, "a")

    def test_a_window_without_a_write_does_not_move_the_time(self):
        db, table, manager, snap = build(n_rows=600)
        before = db.clock.read()
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=lambda chunk: None
        )
        assert result.chunks_scanned > 2
        # One tick for the epoch, one for the pass: none per window.
        assert db.clock.read() == before + 2 == result.new_snap_time


class TestRepairPerHold:
    """A lock hold repairs what the window before it wrote, before the
    next chunk: the hold a writer waits for never holds the whole pass's
    repairs."""

    def test_each_window_is_repaired_by_the_next_hold(self, config):
        """The window after the seal writes too: the next refresh's."""
        db, table, manager, snap = build(**config)
        rids = list(table.heap.scan_rids())
        first_on = {}
        for rid in rids:
            first_on.setdefault(rid.page_no, rid)
        written = []  # (page, window, rid), one per window
        stamps = []

        def writer(chunk):
            if written:
                # The page the last window wrote was repaired when the
                # hold after it began: no NULL left, the row stamped.
                page_no, _, rid = written[-1]
                assert not table.heap.summaries.get(page_no).null_slots
                stamp = table.annotations(rid)[1]
                assert stamp is not NULL and stamp > snap.snap_time
                # Each hold stamps with its own, later time.
                assert not stamps or stamp > stamps[-1]
                stamps.append(stamp)
            page_no = (chunk - 1) // 2  # scanned, and written twice
            rid = first_on[page_no]
            table.update(rid, {"salary": chunk % 10})
            written.append((page_no, chunk, rid))

        hook, seals = sealing(table, writer)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=hook
        )
        # The last call is the window after the seal: its write is not
        # this pass's to repair.
        assert written[-1][1] == result.chunks_scanned
        pairs = {(page_no, window) for page_no, window, _ in written[:-1]}
        assert len(pairs) == len(written) - 1 > 4
        assert result.pages_repaired == len(pairs)
        assert len({page_no for page_no, _ in pairs}) < len(pairs)
        # The last boundary's repair ran under the hold the pass ends in.
        assert stamps[-1] == result.new_snap_time
        assert_cut_at_seal(manager, snap, table, seals)

    def test_a_successor_recorded_as_chained_is_not_read(self, monkeypatch):
        """Closing the repair of a page that took a plain update reads
        nothing of the clean page after it: the pass's record of that
        page shows its first entry chained to the repaired page."""
        db, table, manager, snap = build()
        rids = list(table.heap.scan_rids())
        heap = table.heap
        original, stamp = heap.fix_batch, heap.stamp_named
        reads = []

        def watching(page_no, schema, fix=None, only=None):
            reads.append(page_no)
            return original(page_no, schema, fix, only)

        def stamping(page_no, *args):
            reads.append(page_no)
            return stamp(page_no, *args)

        def writer(chunk):
            if chunk == 3:
                table.update(rids[0], {"salary": 4})
                reads.clear()

        monkeypatch.setattr(heap, "fix_batch", watching)
        monkeypatch.setattr(heap, "stamp_named", stamping)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired == 1
        assert reads[0] == 0 and not {1, 2} & set(reads)
        assert contents(snap) == truth(table)
        assert_settled(manager)


class TestRepairClosure:
    """Figure 7 holds after every completed pass (``docs/invariants.md``,
    "Repair closure"): an insert or a delete at the tail of a page is
    recorded on its successor, wherever that is."""

    @staticmethod
    def tail_of(rids, page_no):
        return max(rid for rid in rids if rid.page_no == page_no)

    def test_tail_insert_followed_by_a_clean_page(self, config):
        db, table, manager, snap = build(n_rows=600, **config)
        rids = list(table.heap.scan_rids())
        tail = self.tail_of(rids, 0)
        table.delete(tail)
        manager.refresh("low")
        late = []

        def writer(chunk):
            if chunk == 2:  # first-fit: the hole at the tail of page 0
                late.append(table.insert(["z", 3]))

        sent = capture(snap)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert late == [tail] and result.pages_repaired == 1
        # The insert is chained to its predecessor and page 1's first
        # entry to the insert: a repoint, not a deletion.
        assert result.deletions_detected == 0 and result.fixup_writes == 2
        sanitize.check_annotation_chain(table)
        assert table.annotations(rids[rids.index(tail) + 1])[0] == tail
        assert contents(snap) == truth(table)
        if manager.use_page_summaries:
            (upsert,) = repair_section(sent)
            assert isinstance(upsert, UpsertMessage)
            assert (upsert.addr, tuple(upsert.values)) == (tail, ("z", 3))
        assert_settled(manager)

    def test_delete_of_a_pages_last_entry(self, config):
        db, table, manager, snap = build(n_rows=600, **config)
        rids = list(table.heap.scan_rids())
        tail = self.tail_of(rids, 0)
        table.update(tail, {"salary": 1})
        manager.refresh("low")
        assert tail in contents(snap)

        def writer(chunk):
            if chunk == 2:
                table.delete(tail)

        sent = capture(snap)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired == 1
        # The anomaly is recorded on page 1's first entry, by this pass.
        assert result.deletions_detected == 1 and result.fixup_writes == 1
        sanitize.check_annotation_chain(table)
        assert contents(snap) == truth(table)
        if manager.use_page_summaries:
            assert [repr(m) for m in repair_section(sent)] == [
                repr(DeleteMessage(tail))
            ]
        assert_settled(manager)

    def test_adjacent_dirty_pages_with_a_tail_insert_on_the_first(
        self, config
    ):
        """The second page's fix-up starts from the state the first
        left (``ExpectPrev`` != ``LastAddr``): recomputed, the insert's
        successor would read as a deletion."""
        db, table, manager, snap = build(n_rows=600, **config)
        rids = list(table.heap.scan_rids())
        tail = self.tail_of(rids, 0)
        head = rids[rids.index(tail) + 1]
        assert head.page_no == 1
        table.delete(tail)
        manager.refresh("low")

        def writer(chunk):
            if chunk == 3:
                assert table.insert(["z", 3]) == tail
                table.update(head, {"salary": 2})

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired == 2
        assert result.deletions_detected == 0 and result.fixup_writes == 2
        sanitize.check_annotation_chain(table)
        assert table.annotations(head)[0] == tail
        assert contents(snap) == truth(table)
        assert_settled(manager)

    def test_dirty_page_emptied_in_a_window(self, config):
        db, table, manager, snap = build(n_rows=600, **config)
        rids = list(table.heap.scan_rids())
        doomed = [rid for rid in rids if rid.page_no == 1]
        held = [rid for rid in doomed if rid in contents(snap)]
        assert held

        def writer(chunk):
            if chunk == 3:
                for rid in doomed:
                    table.delete(rid)

        sent = capture(snap)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired == 1
        assert result.deletions_detected == 1  # on page 2's first entry
        sanitize.check_annotation_chain(table)
        assert contents(snap) == truth(table)
        if manager.use_page_summaries:
            # Deleted point by point, and re-recorded as holding nothing.
            assert [repr(m) for m in repair_section(sent)] == [
                repr(DeleteMessage(rid)) for rid in held
            ]
            entry = manager.snapshot("low").page_mirror[1]
            assert not entry.qual_slots and entry.last_live is None
        assert_settled(manager)

    def test_sibling_fixup_makes_a_tail_insert_read_as_an_update(
        self, config
    ):
        """A sibling refreshed in the window chains the tail insert and
        repoints its successor.  The next chunk sets out from the state
        the window's repair left, so it finds the successor chained to
        the insert — no false deletion, no write — where a chunk setting
        out from the boundary state of before the window pointed it
        back.  Updated in the next window, the insert is a plain update
        to that window's repair — which must still go one entry past the
        page."""
        db, table, manager, snap = build(n_rows=600, **config)
        sibling = manager.create_snapshot(
            "b", "emp", where="salary < 10", method="differential"
        )
        rids = list(table.heap.scan_rids())
        tail = self.tail_of(rids, 0)
        head = rids[rids.index(tail) + 1]
        table.delete(tail)
        manager.refresh("low")
        manager.refresh("b")

        def writer(chunk):
            if chunk == 1:
                assert table.insert(["z", 3]) == tail
                manager.refresh("b")
                assert table.annotations(head)[0] == tail
            elif chunk == 2:
                table.update(tail, {"salary": 4})

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        # Page 0 is repaired in both windows that wrote it.
        assert result.pages_repaired == 2
        # The tail's stamp, once: nothing read the head as a deletion.
        assert result.deletions_detected == 0 and result.fixup_writes == 1
        sanitize.check_annotation_chain(table)
        assert table.annotations(head)[0] == tail
        assert contents(snap) == truth(table)
        assert_settled(manager)
        # The sibling took its SnapTime in the first window: it owes
        # only the tail's own update, the head was never restamped.
        assert manager.refresh("b").entries_sent == 1
        assert contents(sibling) == truth(table)

    def test_output_lost_at_end_of_scan_still_chains_the_table(self):
        """A pass that reached the heap's end owes the table its fix-up
        whether or not an output is left to publish to."""
        db, table, manager, snap = build(n_rows=600)
        rids = list(table.heap.scan_rids())

        def writer(chunk):
            if chunk == 2:
                table.update(rids[0], {"salary": 3})
                table.delete(self.tail_of(rids, 0))

        capture(snap, lose=EndOfScanMessage)
        with pytest.raises(ChannelError):
            manager.refresh_online(
                "low", chunk_pages=1, on_chunk_boundary=writer
            )
        sanitize.check_annotation_chain(table)
        capture(snap)  # the link is back
        assert manager.refresh("low").fixup_writes == 0
        assert contents(snap) == truth(table)


def after_the_seal(table, write):
    """A boundary hook for ``chunk_pages=1`` that runs ``write`` only in
    the window after the seal: the call that passes ``chunks_scanned``,
    one past the last boundary, here the heap's page count."""
    calls = []

    def hook(chunk):
        calls.append(chunk)
        if chunk == table.heap.page_count:
            write()

    return hook, calls


class TestSeal:
    """The lock covers the scan, not the link: it is released once every
    stream is sealed, and delivery and the commits run outside it.  A
    write in the window after the seal is the next refresh's."""

    def test_the_last_call_is_the_window_after_the_seal(self):
        db, table, manager, snap = build(n_rows=600)
        calls = []
        holders = []

        def hook(chunk):
            calls.append(chunk)
            holders.append(db.locks.holders(("table", "emp")))

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=hook
        )
        assert calls == list(range(1, result.chunks_scanned + 1))
        assert not any(holders)

    @pytest.mark.parametrize("mode", ["solo", "group", "online"])
    def test_the_commit_runs_with_the_lock_released(self, mode):
        db, table, manager, snap = build(n_rows=600)
        manager.create_snapshot(
            "high", "emp", where="salary >= 10", method="differential"
        )
        table.update(list(table.heap.scan_rids())[3], {"salary": 1})
        at_commit = []
        receive = snap.table.receiver()

        def deliver(message):
            if isinstance(message, RefreshCommitMessage):
                at_commit.append(db.locks.holders(("table", "emp")))
            receive(message)

        snap.channel.detach()
        snap.channel.attach(deliver)
        if mode == "solo":
            manager.refresh("low")
        elif mode == "group":
            assert not manager.refresh_many(["low", "high"]).errors
        else:
            manager.refresh_online("low", chunk_pages=1)
        assert at_commit == [{}]
        assert contents(snap) == truth(table)

    def test_an_insert_that_extends_the_heap(self):
        db, table, manager, snap = build(n_rows=300)
        pages = table.heap.page_count
        grown = []

        def write():
            for i in range(60):
                grown.append(table.insert([f"grow{i}", 1]))

        hook, calls = after_the_seal(table, write)
        sealed = truth(table)
        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=hook
        )
        assert calls[-1] == result.chunks_scanned == pages
        assert table.heap.page_count > pages
        assert contents(snap) == sealed
        assert not set(grown) & set(contents(snap))
        assert manager.refresh("low").entries_sent == len(grown)
        assert contents(snap) == truth(table)
        assert_settled(manager)

    def test_a_delete_of_a_row_the_stream_just_sent(self):
        db, table, manager, snap = build(n_rows=600)
        victim = list(table.heap.scan_rids())[25]
        table.update(victim, {"salary": 2})
        name = table.read(victim)[0]
        hook, _ = after_the_seal(table, lambda: table.delete(victim))
        sent = capture(snap)
        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=hook)
        assert victim in {getattr(m, "addr", None) for m in sent}
        assert contents(snap)[victim] == (name, 2)
        assert not table.exists(victim)
        result = manager.refresh("low")
        assert result.deletions_detected == 1
        assert victim not in contents(snap)
        assert contents(snap) == truth(table)
        assert_settled(manager)

    def test_an_update_that_flips_qualification(self):
        db, table, manager, snap = build(n_rows=600)
        held = contents(snap)
        rids = list(table.heap.scan_rids())
        leaving = next(rid for rid in rids if rid in held)
        joining = next(rid for rid in rids if rid not in held)

        def write():
            table.update(leaving, {"salary": 13})
            table.update(joining, {"salary": 5})

        hook, _ = after_the_seal(table, write)
        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=hook)
        assert leaving in contents(snap) and joining not in contents(snap)
        manager.refresh("low")
        assert leaving not in contents(snap) and joining in contents(snap)
        assert contents(snap) == truth(table)
        assert_settled(manager)

    def test_a_link_failing_at_refresh_commit_after_a_post_seal_write(self):
        db, table, manager, snap = build(n_rows=600)
        rids = list(table.heap.scan_rids())
        table.update(rids[40], {"salary": 1})
        before = contents(snap)
        cache = dict(snap.page_mirror)
        mark = snap.page_mirror.mark
        snap_time = snap.snap_time
        hook, _ = after_the_seal(table, lambda: table.update(rids[3], {"salary": 14}))
        capture(snap, lose=RefreshCommitMessage)
        with pytest.raises(ChannelError):
            manager.refresh_online(
                "low", chunk_pages=1, on_chunk_boundary=hook
            )
        # The epoch aborted: neither its mirror nor its mark committed.
        assert contents(snap) == before
        assert snap.page_mirror.mark == mark and dict(snap.page_mirror) == cache
        assert snap.snap_time == snap_time
        capture(snap)  # the link is back
        manager.refresh("low")
        assert contents(snap) == truth(table)
        assert_settled(manager)

    def test_a_write_after_the_seal_is_at_or_past_the_refresh_lsn(self):
        db, table, manager, snap = build(n_rows=600)
        lsns = []

        def write():
            lsns.append(db.wal.next_lsn)
            table.update(list(table.heap.scan_rids())[3], {"salary": 7})

        hook, _ = after_the_seal(table, write)
        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=hook)
        assert lsns and lsns[0] >= snap.info.last_refresh_lsn
        assert db.wal.next_lsn > snap.info.last_refresh_lsn


class TestValidation:
    def test_chunk_pages_must_be_positive(self):
        db, table, manager, snap = build(n_rows=100)
        with pytest.raises(RefreshMethodError, match="chunk_pages"):
            manager.refresh_online("low", chunk_pages=0)

    def test_requires_differential_method(self):
        db = Database("hq")
        table = db.create_table("t", [("v", "int")])
        table.bulk_load([[i] for i in range(20)])
        manager = SnapshotManager(db)
        manager.create_snapshot("f", "t", method="full")
        with pytest.raises(SnapshotError, match="differential"):
            manager.refresh_online("f")

    def test_lock_not_leaked_on_error(self):
        db, table, manager, snap = build(n_rows=600)

        def boom(chunk):
            raise RuntimeError("writer exploded")

        with pytest.raises(RuntimeError):
            manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=boom)
        # The refresh's lock must be gone; conflicts raise immediately in
        # this lock manager, so a fresh refresh succeeding proves it.
        manager.refresh("low")
        assert contents(snap) == truth(table)
