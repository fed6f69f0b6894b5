"""Slotted pages: insert/read/update/delete, compaction, slot reuse."""

import pytest

from repro.errors import PageFormatError, PageFullError, RecordNotFoundError
from repro.storage.page import HEADER_SIZE, SLOT_SIZE, FreeSpace, SlottedPage


@pytest.fixture
def page():
    return SlottedPage.empty(512)


class TestBasicOperations:
    def test_insert_and_read(self, page):
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert page.live_count == 1

    def test_sequential_slots(self, page):
        slots = [page.insert(bytes([i])) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_read_empty_slot_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.read(0)

    def test_read_out_of_range_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.read(99)

    def test_delete_frees_slot(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        assert not page.is_live(slot)
        assert page.live_count == 0

    def test_delete_empty_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.delete(0)

    def test_records_iterates_live_in_slot_order(self, page):
        page.insert(b"a")
        b = page.insert(b"b")
        page.insert(b"c")
        page.delete(b)
        assert list(page.records()) == [(0, b"a"), (2, b"c")]


class TestSlotReuse:
    def test_lowest_free_slot_reused(self, page):
        slots = [page.insert(bytes([i])) for i in range(4)]
        page.delete(slots[1])
        page.delete(slots[3])
        assert page.insert(b"new") == 1
        assert page.insert(b"new2") == 3

    def test_explicit_slot_insert(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        page.insert(b"y", slot_no=slot)
        assert page.read(slot) == b"y"

    def test_explicit_slot_occupied_raises(self, page):
        slot = page.insert(b"x")
        with pytest.raises(PageFullError):
            page.insert(b"y", slot_no=slot)

    def test_explicit_slot_extends_directory(self, page):
        page.insert(b"z", slot_no=3)
        assert page.slot_count == 4
        assert page.read(3) == b"z"
        assert not page.is_live(0)


class TestUpdate:
    def test_update_same_size_in_place(self, page):
        slot = page.insert(b"aaaa")
        page.update(slot, b"bbbb")
        assert page.read(slot) == b"bbbb"

    def test_update_shrink(self, page):
        slot = page.insert(b"aaaaaaaa")
        page.update(slot, b"bb")
        assert page.read(slot) == b"bb"

    def test_update_grow(self, page):
        slot = page.insert(b"aa")
        page.update(slot, b"b" * 50)
        assert page.read(slot) == b"b" * 50

    def test_update_grow_beyond_capacity_raises_and_restores(self, page):
        slot = page.insert(b"aa")
        with pytest.raises(PageFullError):
            page.update(slot, b"x" * 1000)
        assert page.read(slot) == b"aa"  # original still intact

    def test_update_empty_slot_raises(self, page):
        with pytest.raises(RecordNotFoundError):
            page.update(0, b"x")


class TestSpaceManagement:
    def test_page_full_raises(self, page):
        with pytest.raises(PageFullError):
            page.insert(b"x" * 1000)

    def test_compaction_reclaims_holes(self, page):
        usable = 512 - HEADER_SIZE
        chunk = b"x" * 60
        slots = []
        while page.free_for_insert(len(chunk), reuse_slot=False):
            slots.append(page.insert(chunk))
        # Free every other record, then insert something larger than any
        # single contiguous hole: compaction must make it fit.
        for slot in slots[::2]:
            page.delete(slot)
        big = b"y" * 100
        assert page.reclaimable() > 0
        new_slot = page.insert(big)
        assert page.read(new_slot) == big
        assert usable > 0

    def test_fill_and_drain_repeatedly(self, page):
        for round_no in range(5):
            slots = []
            body = bytes([round_no]) * 40
            while page.free_for_insert(len(body), reuse_slot=page.lowest_free_slot() is not None):
                slots.append(page.insert(body))
            for slot in slots:
                assert page.read(slot) == body
                page.delete(slot)
        assert page.live_count == 0


def _fill(page, length):
    """Insert ``length``-byte records until none fits; return the slots."""
    slots = []
    while page.free_for_insert(length, reuse_slot=False):
        slots.append(page.insert(bytes([len(slots)]) * length))
    return slots


def _layout(page):
    return {slot: page._slot(slot) for slot in range(page.slot_count)}


class TestPlacement:
    """Frontier, else the first hole that fits, else compact."""

    def test_hole_of_a_middle_delete_takes_the_next_insert(self, page):
        slots = _fill(page, 40)
        assert page.contiguous_free() < 40
        victim = slots[len(slots) // 2]
        hole = page._slot(victim)
        before = _layout(page)
        frontier = page.contiguous_free()
        page.delete(victim)
        assert page.insert(b"n" * 33) == victim
        assert page.compactions == 0
        after = _layout(page)
        offset, length = after.pop(victim)
        del before[victim]
        assert after == before  # nobody else moved
        assert length == 33
        assert hole[0] <= offset and offset + 33 <= hole[0] + hole[1]
        assert page.contiguous_free() == frontier  # free_data_offset stood
        assert page.read(victim) == b"n" * 33

    def test_record_longer_than_any_gap_compacts_once(self, page):
        slots = _fill(page, 40)
        for slot in slots[1::3]:
            page.delete(slot)
        survivors = dict(page.records())
        big = b"B" * 70  # no single 40-byte hole holds it; together they do
        assert page.contiguous_free() < len(big) <= page.reclaimable()
        slot = page.insert(big)
        assert page.compactions == 1
        assert slot == slots[1]
        survivors[slot] = big
        assert dict(page.records()) == survivors

    def test_hole_at_the_frontier_is_a_gap(self, page):
        slots = _fill(page, 40)
        lowest = min(slots, key=lambda slot: page._slot(slot)[0])
        hole = page._slot(lowest)
        page.delete(lowest)  # the body at free_data_offset itself
        assert page.insert(b"f" * 40) == lowest
        assert page.compactions == 0
        assert page._slot(lowest) == hole

    def test_growing_update_takes_a_hole_before_compacting(self, page):
        slots = _fill(page, 40)
        page.delete(slots[3])
        page.update(slots[5], b"s" * 10)  # shrink: a 30-byte hole behind it
        others = {s: page._slot(s) for s in slots if s not in (slots[3], slots[5])}
        assert page.update(slots[5], b"g" * 38) is True  # its own hole is too small
        assert page.compactions == 0
        assert {s: page._slot(s) for s in others} == others
        assert page.read(slots[5]) == b"g" * 38
        with pytest.raises(PageFullError):
            page.update(slots[5], b"h" * 400)
        assert page.read(slots[5]) == b"g" * 38  # a refused grow changes nothing

    def test_compact_after_holes_were_partly_refilled(self, page):
        slots = _fill(page, 40)
        for slot in slots[::2]:
            page.delete(slot)
        page.insert(b"p" * 25)
        page.insert(b"q" * 40)
        model = dict(page.records())
        free = page.contiguous_free() + page.reclaimable()
        page.compact()
        assert dict(page.records()) == model
        assert page.reclaimable() == 0
        assert page.contiguous_free() == free
        assert page.compactions == 1

    @pytest.mark.parametrize("empty_slot_first", [False, True])
    def test_an_empty_body_sharing_an_offset_hides_no_bytes(self, empty_slot_first):
        # ``a`` and a zero-length body start at one offset, the empty one
        # in a lower or a higher slot than ``a``; the 30-byte hole behind
        # ``a`` then cannot take 40 bytes, which must re-pack instead of
        # landing on ``a``.
        page = SlottedPage.empty(256)
        spare = page.insert(b"")  # at the page end: no hole when deleted
        behind = page.insert(b"b" * 30)
        a = page.insert(b"a" * 20)
        if empty_slot_first:
            page.delete(spare)
        empty = page.insert(b"")
        assert page._slot(empty)[0] == page._slot(a)[0]
        assert (empty < a) == empty_slot_first
        while page.contiguous_free() >= 50:
            page.insert(b"f" * 36)
        page.delete(behind)
        records = dict(page.records())
        room = page.contiguous_free()
        assert room < 40 <= room + page.reclaimable()
        records[page.insert(b"n" * 40)] = b"n" * 40
        assert page.compactions == 1
        assert dict(page.records()) == records


class TestFormat:
    def test_bad_magic_rejected(self):
        with pytest.raises(PageFormatError):
            SlottedPage(bytearray(512))

    def test_view_semantics(self):
        buf = bytearray(512)
        page = SlottedPage(buf, initialize=True)
        page.insert(b"shared")
        # A second view over the same buffer sees the record.
        view = SlottedPage(buf)
        assert view.read(0) == b"shared"

    def test_slot_size_constant(self):
        assert SLOT_SIZE == 4


class TestHeldSpace:
    """A view that holds its page's free space moves it on every write
    exactly as reading the image afresh would find it."""

    def test_a_zero_length_body_splits_the_gaps_either_side(self):
        page = SlottedPage.empty(256)
        c = page.insert(b"c" * 20)  # [236, 256)
        z1 = page.insert(b"")  # at 236
        b = page.insert(b"b" * 20)  # [216, 236)
        z2 = page.insert(b"")  # at 216
        d = page.insert(b"d" * 20)  # [196, 216)
        assert page.holes() == 0  # reads the space, which is held now
        for slot in (c, d, b):
            page.delete(slot)
            assert page.space == FreeSpace(page)
        assert page.space.gaps == [(196, 216), (216, 236), (236, 256)]
        page.delete(z1)
        assert page.space.gaps == [(196, 216), (216, 256)]
        page.delete(z2)
        assert page.space.gaps == [(196, 256)]
        assert page.space == FreeSpace(page)

    def test_a_shrink_to_nothing_frees_its_bytes_past_its_boundary(self):
        page = SlottedPage.empty(256)
        a = page.insert(b"a" * 20)  # [236, 256)
        b = page.insert(b"b" * 20)  # [216, 236)
        assert page.holes() == 0
        page.delete(a)
        page.update(b, b"")  # a zero-length body at 216, freeing [216, 236)
        assert page.space.gaps == [(216, 256)]
        assert page.space.zeros == [216]
        assert page.space == FreeSpace(page)
