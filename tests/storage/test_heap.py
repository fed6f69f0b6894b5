"""Heap files: placement policy, ordered scans, address reuse."""

import contextlib
import math
import struct

import pytest

from repro import sanitize
from repro.core.fixup import base_fixup
from repro.database import Database
from repro.errors import PageFullError, RecordNotFoundError, StorageError
from repro.relation.types import RidType, TimestampType
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pager import InMemoryPager
from repro.storage.rid import Rid


@pytest.fixture
def heap():
    pool = BufferPool(InMemoryPager(page_size=256), capacity=8)
    return HeapFile(pool, name="t")


class TestInsertRead:
    def test_roundtrip(self, heap):
        rid = heap.insert(b"record")
        assert heap.read(rid) == b"record"
        assert heap.exists(rid)
        assert heap.record_count == 1

    def test_grows_pages(self, heap):
        for i in range(50):
            heap.insert(bytes([i]) * 40)
        assert heap.page_count > 1
        assert heap.record_count == 50

    def test_read_missing_raises(self, heap):
        rid = heap.insert(b"x")
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)

    def test_unknown_policy_rejected(self, heap):
        with pytest.raises(StorageError):
            HeapFile(heap._pool, insert_policy="random")


class TestPlacement:
    def test_first_fit_reuses_lowest_address(self, heap):
        rids = [heap.insert(bytes([i]) * 30) for i in range(20)]
        heap.delete(rids[2])
        heap.delete(rids[10])
        reused = heap.insert(b"z" * 30)
        assert reused == rids[2]  # lowest freed address wins

    def test_append_policy_goes_to_end(self):
        pool = BufferPool(InMemoryPager(page_size=256), capacity=8)
        heap = HeapFile(pool, insert_policy="append")
        rids = [heap.insert(bytes([i]) * 30) for i in range(10)]
        heap.delete(rids[0])
        appended = heap.insert(b"z" * 30)
        assert appended > rids[-1] or appended.page_no >= rids[-1].page_no

    def test_insert_at_restores_address(self, heap):
        rid = heap.insert(b"victim")
        heap.delete(rid)
        heap.insert_at(rid, b"restored")
        assert heap.read(rid) == b"restored"

    def test_insert_at_occupied_raises(self, heap):
        rid = heap.insert(b"x")
        with pytest.raises(PageFullError):
            heap.insert_at(rid, b"y")


class TestLoadCost:
    """A load grows with rows × log pages, not rows × pages: counted in
    the free-space map's nodes read, so no clock is involved."""

    @staticmethod
    def _nodes_per_insert(rows):
        db = Database("load")
        table = db.create_table("t", [("id", "int"), ("v", "int")], annotations="lazy")
        table.bulk_load([[i, i % 7] for i in range(rows)])
        heap = table.heap
        return heap.free_map.examined / rows, heap.page_count

    def test_nodes_read_per_insert_grow_with_log_pages(self):
        small, small_pages = self._nodes_per_insert(20_000)
        large, large_pages = self._nodes_per_insert(40_000)
        assert large_pages > 1.9 * small_pages > 300
        # ``first`` reads at most one node a level up and one down; the
        # walk it replaced read about half the pages an insert
        # (≈ 90 at 20k rows, ≈ 180 at 40k).
        for nodes, pages in ((small, small_pages), (large, large_pages)):
            assert nodes <= 2 * math.ceil(math.log2(pages)) + 1, (nodes, pages)
        assert large - small <= 2 + 0.5, (small, large)


class TestScan:
    def test_scan_in_address_order(self, heap):
        import random

        rng = random.Random(0)
        rids = [heap.insert(bytes([i % 250]) * 20) for i in range(60)]
        for rid in rng.sample(rids, 20):
            heap.delete(rid)
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == sorted(scanned, key=lambda r: r.key())
        assert len(scanned) == 40

    def test_scan_yields_bodies(self, heap):
        heap.insert(b"a")
        heap.insert(b"b")
        assert [body for _, body in heap.scan()] == [b"a", b"b"]

    def test_scan_allows_updates_to_yielded_records(self, heap):
        rids = [heap.insert(bytes([i]) * 10) for i in range(30)]
        seen = []
        for rid, body in heap.scan():
            heap.update(rid, b"U" * 10)  # same size, in place
            seen.append(rid)
        assert seen == rids
        assert all(heap.read(rid) == b"U" * 10 for rid in rids)

    def test_last_rid(self, heap):
        assert heap.last_rid() is None
        rids = [heap.insert(bytes([i]) * 10) for i in range(10)]
        assert heap.last_rid() == rids[-1]
        heap.delete(rids[-1])
        assert heap.last_rid() == rids[-2]

    def test_scan_rids(self, heap):
        rids = [heap.insert(b"x") for _ in range(3)]
        assert list(heap.scan_rids()) == rids


class TestUpdate:
    def test_update_in_place(self, heap):
        rid = heap.insert(b"aaaa")
        heap.update(rid, b"bbbb")
        assert heap.read(rid) == b"bbbb"

    def test_update_overflow_raises(self, heap):
        rid = heap.insert(b"a")
        with pytest.raises(PageFullError):
            heap.update(rid, b"x" * 500)
        assert heap.read(rid) == b"a"


class TestFreeHint:
    """``free_map`` tracks ``contiguous_free() + reclaimable()``."""

    @staticmethod
    def _assert_hint_exact(heap):
        for page_no in range(heap.page_count):
            page = heap._pin(page_no)
            try:
                expected = page.contiguous_free() + page.reclaimable()
            finally:
                heap._unpin(page_no, dirty=False)
            assert heap.free_map[page_no] == expected, page_no
        sanitize.check_free_map(heap)

    def test_exact_after_same_length_shrinking_and_growing_updates(self, heap):
        rids = [heap.insert(bytes([65 + i]) * 20) for i in range(16)]
        assert heap.page_count > 1
        self._assert_hint_exact(heap)
        for step, rid in enumerate(rids):
            if step % 3 == 0:
                heap.update(rid, b"s" * 20)  # same length: layout untouched
            elif step % 3 == 1:
                heap.update(rid, b"k" * 7)  # shrink: leaves a hole
            else:
                heap.update(rid, b"g" * 31)  # grow: fresh space, may compact
            self._assert_hint_exact(heap)
        heap.delete(rids[2])
        heap.update(rids[3], b"z" * 20)
        self._assert_hint_exact(heap)

    def test_same_length_update_skips_the_directory_walk(self, heap, monkeypatch):
        from repro.storage.page import SlottedPage

        rids = [heap.insert(b"a" * 20) for _ in range(5)]
        walks = []
        original = SlottedPage.reclaimable

        def counting(page):
            walks.append(1)
            return original(page)

        monkeypatch.setattr(SlottedPage, "reclaimable", counting)
        for rid in rids:
            heap.update(rid, b"b" * 20)
        assert not walks
        heap.update(rids[0], b"c" * 5)
        assert walks

    def test_page_update_reports_layout_change(self):
        from repro.storage.page import SlottedPage

        page = SlottedPage.empty(256)
        slot = page.insert(b"a" * 10)
        assert page.update(slot, b"b" * 10) is False
        assert page.update(slot, b"c" * 4) is True
        assert page.update(slot, b"d" * 30) is True
        assert page.read(slot) == b"d" * 30


class TestWriteCounters:
    def test_counts_by_kind(self, heap):
        rid = heap.insert(b"a")
        heap.update(rid, b"b")
        heap.delete(rid)
        heap.insert_at(rid, b"c")
        assert heap.writes.inserts == 2
        assert heap.writes.updates == 1
        assert heap.writes.deletes == 1
        assert heap.writes.total == 4

    def test_failed_update_not_counted(self, heap):
        rid = heap.insert(b"a")
        heap.writes.reset()
        with pytest.raises(PageFullError):
            heap.update(rid, b"x" * 500)
        assert heap.writes.updates == 0

    def test_reset(self, heap):
        heap.insert(b"a")
        heap.writes.reset()
        assert heap.writes.total == 0

    def test_compactions_counted_only_when_no_gap_holds_the_record(self, heap):
        rids = [heap.insert(bytes([i]) * 30) for i in range(14)]  # two full pages
        assert heap.page_count == 2 and heap.writes.compactions == 0
        heap.delete(rids[2])
        heap.delete(rids[4])
        assert heap.insert(b"h" * 30) == rids[2]  # the hole holds it
        assert heap.writes.compactions == 0
        heap.delete(rids[2])
        assert heap.insert(b"w" * 50) == rids[2]  # two 30-byte holes do not
        assert heap.writes.compactions == 1
        heap.delete(rids[8])
        heap.update(rids[11], b"u" * 45)  # a grown record, same rule
        assert heap.writes.compactions == 2
        assert heap.writes.total == 14 + 4 + 2 + 1  # not a record write
        assert "compactions=2" in repr(heap.writes)
        heap.writes.reset()
        assert heap.writes.compactions == 0

    def test_rewrite_is_one_pin_and_a_skip_leaves_the_frame_clean(self, heap):
        rid = heap.insert(b"stored")
        pool = heap.pool
        pool.flush_all()
        pins = pool.stats.hits + pool.stats.misses
        writebacks = pool.stats.writebacks
        seen = []
        assert heap.rewrite(rid, lambda before: seen.append(before)) is None
        assert seen == [b"stored"]
        assert pool.stats.hits + pool.stats.misses == pins + 1
        pool.flush_all()
        assert pool.stats.writebacks == writebacks and heap.writes.updates == 0
        assert heap.rewrite(rid, lambda before: before + b"!") == b"stored!"
        assert pool.stats.hits + pool.stats.misses == pins + 2
        assert heap.read(rid) == b"stored!" and heap.writes.updates == 1


def _annotated_twin(name):
    """One lazy table, one page: eight rows fixed up, four of them
    updated since (a NULL ``TimeStamp`` each)."""
    table = Database(name).create_table(
        "t", [("v", "int"), ("pad", "string")], annotations="lazy"
    )
    table.bulk_load([[i, "x" * 40] for i in range(8)])
    base_fixup(table)
    for rid in list(table.heap.scan_rids())[2:6]:
        table.update(rid, {"v": 99})
    assert table.heap.page_count == 1
    return table


def _page_image(heap):
    physical = heap.physical_pages()[0]
    image = bytes(heap.pool.pin(physical))
    heap.pool.unpin(physical)
    return image


def _summary_state(heap):
    summary = heap.summaries.get(0)
    return summary.page_version, set(summary.null_slots), summary.max_ts


class TestFixBatch:
    """``fix_batch`` reads a page and writes the annotation repairs its
    caller decides under one pin: the same bytes, summary, observer
    events and counts as one ``write_annotations`` per record."""

    prev, ts = RidType().encode(Rid(0, 7)), TimestampType().encode(4242)
    # ts only on a stamped entry and on a NULL one, prev only (its NULL
    # stays), both — in slot order, as Figure 7 decides them.
    writes = [(1, None, ts), (2, None, ts), (3, prev, None), (5, prev, ts)]

    def test_one_fused_call_equals_the_per_record_writes(self):
        per_record, fused = _annotated_twin("a"), _annotated_twin("b")
        assert _page_image(per_record.heap) == _page_image(fused.heap)
        events = {}
        for table in (per_record, fused):
            seen = events[table.db.name] = []
            table.heap.observe_writes(
                lambda kind, rid, seen=seen: seen.append((kind, rid))
            )
        before = fused.heap.page_entries(0)
        for slot_no, prev, ts in self.writes:
            per_record.heap.write_annotations(Rid(0, slot_no), prev, ts)
        stats = fused.heap.pool.stats
        pins = stats.hits + stats.misses
        batch = fused.heap.fix_batch(0, fused.schema, lambda batch: self.writes)
        assert stats.hits + stats.misses == pins + 1
        # The batch shows the page as it was read, before the writes.
        assert list(zip(batch.slots, batch.bodies)) == before
        assert _page_image(per_record.heap) == _page_image(fused.heap)
        assert _summary_state(per_record.heap) == _summary_state(fused.heap)
        assert _summary_state(fused.heap)[1] == {3, 4}
        assert events["a"] == events["b"] == [
            ("update", Rid(0, slot_no)) for slot_no, _, _ in self.writes
        ]
        assert per_record.heap.writes.updates == fused.heap.writes.updates

    @pytest.mark.parametrize(
        "refuse", [lambda batch: None, lambda batch: [], lambda batch: 1 / 0]
    )
    def test_a_refusal_leaves_the_frame_clean(self, refuse):
        table = _annotated_twin("r")
        heap, pool = table.heap, table.heap.pool
        pool.flush_all()
        writebacks, state = pool.stats.writebacks, _summary_state(heap)
        updates = heap.writes.updates
        with contextlib.suppress(ZeroDivisionError):
            heap.fix_batch(0, table.schema, refuse)
        pool.flush_all()
        assert pool.stats.writebacks == writebacks and not pool.pinned_pages()
        assert _summary_state(heap) == state and heap.writes.updates == updates

    def test_a_record_too_short_for_annotations_is_refused_unread(self):
        table = _annotated_twin("s")
        heap = table.heap
        physical = heap.physical_pages()[0]
        frame = heap.pool.pin(physical)
        # Lie about slot 0's length: too short for the 16-byte tail
        # plus a bitmap byte.
        offset, _ = struct.unpack_from("<HH", frame, 12)
        struct.pack_into("<HH", frame, 12, offset, 16)
        heap.pool.unpin(physical, dirty=True)
        called = []
        with pytest.raises(StorageError):
            heap.fix_batch(0, table.schema, lambda batch: called.append(batch))
        assert called == [] and not heap.pool.pinned_pages()
