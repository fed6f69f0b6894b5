"""Heap-file properties: model equivalence and scan ordering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.database import Database
from repro.errors import PageFullError
from repro.storage.buffer import BufferPool
from repro.storage.heap import FreeSpaceMap, HeapFile
from repro.storage.page import SLOT_SIZE
from repro.storage.pager import InMemoryPager
from repro.storage.rid import Rid
from tests.storage.test_heap import TestFreeHint as _UnitFreeHint

assert_hint_exact = _UnitFreeHint._assert_hint_exact

scripts = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=10_000),
        st.binary(min_size=1, max_size=60),
    ),
    max_size=150,
)


def fresh_heap(policy="first_fit", capacity=8, page_size=512):
    return HeapFile(
        BufferPool(InMemoryPager(page_size=page_size), capacity=capacity),
        insert_policy=policy,
    )


class Rereading(dict):
    """Page spaces a heap never keeps: every write pins its page without
    one, and the view reads it from the image if a placement asks — the
    space rebuilt on every call."""

    def __setitem__(self, page_no, space):
        pass


def images(heap):
    """Every page of ``heap`` as bytes, in address order."""
    pages = []
    for page_no in range(heap.page_count):
        page = heap._pin(page_no)
        try:
            pages.append(bytes(page.buffer))
        finally:
            heap._unpin(page_no, dirty=False)
    return pages


def outcome(call, *args):
    """What a write did: its result, or that the page was full."""
    try:
        return call(*args)
    except PageFullError:
        return "full"


def walk(free, need, start):
    """The linear first-fit walk the free-space map replaced: the
    lowest page at or after ``start`` with ``need`` free bytes."""
    return next(
        (page for page in range(start, len(free)) if free[page] >= need), None
    )


def page_free(heap):
    """Each page's free bytes, counted from its image."""
    free = []
    for page_no in range(heap.page_count):
        page = heap._pin(page_no)
        try:
            free.append(page.contiguous_free() + page.reclaimable())
        finally:
            heap._unpin(page_no, dirty=False)
    return free


class TestAgainstModel:
    @settings(max_examples=60, deadline=None)
    @given(script=scripts)
    def test_matches_dict(self, script):
        heap = fresh_heap()
        model = {}
        for op, pick, body in script:
            live = sorted(model, key=lambda r: r.key())
            if op == "insert":
                rid = heap.insert(body)
                assert rid not in model
                model[rid] = body
            elif op == "delete" and live:
                rid = live[pick % len(live)]
                heap.delete(rid)
                del model[rid]
            elif op == "update" and live:
                rid = live[pick % len(live)]
                try:
                    heap.update(rid, body)
                    model[rid] = body
                except Exception:
                    pass  # oversized update: table layer handles this
        assert dict(heap.scan()) == model
        assert heap.record_count == len(model)

    @settings(max_examples=60, deadline=None)
    @given(script=scripts)
    def test_scan_strictly_increasing(self, script):
        heap = fresh_heap()
        live = []
        for op, pick, body in script:
            if op == "insert":
                live.append(heap.insert(body))
            elif op == "delete" and live:
                heap.delete(live.pop(pick % len(live)))
        rids = [rid for rid, _ in heap.scan()]
        assert all(a < b for a, b in zip(rids, rids[1:]))

    @settings(max_examples=40, deadline=None)
    @given(script=scripts)
    def test_first_fit_reuses_lowest(self, script):
        """A fresh insert never lands above an existing free address
        that could hold it (single-size records make this exact)."""
        heap = fresh_heap()
        body = b"x" * 20
        live = []
        freed = []
        for op, pick, _ in script:
            if op == "insert":
                rid = heap.insert(body)
                if freed:
                    lowest_free = min(freed, key=lambda r: r.key())
                    assert rid <= lowest_free
                    if rid in freed:
                        freed.remove(rid)
                live.append(rid)
            elif op == "delete" and live:
                victim = live.pop(pick % len(live))
                heap.delete(victim)
                freed.append(victim)


    @settings(max_examples=60, deadline=None)
    @given(script=scripts, policy=st.sampled_from(["first_fit", "append"]))
    def test_first_is_the_walk(self, script, policy):
        """After every op, ``free_map.first(need, start)`` names the page
        the walk over the pages' free bytes names, for every need that
        splits the pages and the start of either policy; an insert lands
        there, or on a new page when there is none."""
        heap = fresh_heap(policy)
        live = []
        for op, pick, body in script:
            if op == "insert":
                pages = heap.page_count
                start = 0 if policy == "first_fit" else max(pages - 1, 0)
                expected = walk(page_free(heap), len(body) + SLOT_SIZE, start)
                rid = heap.insert(body)
                assert rid.page_no == (pages if expected is None else expected)
                live.append(rid)
            elif op == "delete" and live:
                heap.delete(live.pop(pick % len(live)))
            elif op == "update" and live:
                try:
                    heap.update(live[pick % len(live)], body)
                except PageFullError:
                    pass
            free = page_free(heap)
            for need in set(free) | {0, 1 << 16}:
                for start in {0, len(free) // 2, max(len(free) - 1, 0)}:
                    found = heap.free_map.first(need, start)
                    assert found == walk(free, need, start), (need, start)


class TestFreeSpaceMap:
    @settings(max_examples=100, deadline=None)
    @given(
        initial=st.lists(st.integers(0, 50), max_size=40),
        ops=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 1000), st.integers(0, 50)
            ),
            max_size=60,
        ),
    )
    def test_any_sizes_against_the_walk(self, initial, ops):
        """Built whole or grown a page at a time, at every size (odd
        ends included), the tree answers what the walk over its leaves
        answers, and each node is the larger of its children."""
        fsm = FreeSpaceMap(initial)
        model = list(initial)
        for grow, pick, value in ops:
            if grow or not model:
                fsm.append(value)
                model.append(value)
            else:
                fsm.add(pick % len(model), value - fsm[pick % len(model)])
                model[pick % len(model)] = value
            assert [fsm[page] for page in range(len(model))] == model
            assert FreeSpaceMap(model).tree == fsm.tree
            for need in range(0, 52, 3):
                for start in range(len(model) + 1):
                    assert fsm.first(need, start) == walk(model, need, start)


class TestFreeHint:
    """The per-page hint is maintained arithmetically, never recounted."""

    @settings(max_examples=80, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update", "insert_at"]),
                st.integers(min_value=0, max_value=10_000),
                st.binary(min_size=1, max_size=120),
            ),
            max_size=150,
        )
    )
    def test_hint_is_exact_after_every_op(self, script):
        heap = fresh_heap()
        live, freed = [], []
        for op, pick, body in script:
            try:
                if op == "insert":
                    rid = heap.insert(body)
                    live.append(rid)
                    if rid in freed:
                        freed.remove(rid)
                elif op == "delete" and live:
                    freed.append(live.pop(pick % len(live)))
                    heap.delete(freed[-1])
                elif op == "update" and live:
                    heap.update(live[pick % len(live)], body)
                elif op == "insert_at" and freed:
                    # Undo's restore; may raise when the page filled up
                    # since, possibly after growing the slot directory.
                    rid = freed[pick % len(freed)]
                    heap.insert_at(rid, body)
                    freed.remove(rid)
                    live.append(rid)
            except PageFullError:
                pass
            assert_hint_exact(heap)
        assert sorted(rid for rid, _ in heap.scan()) == sorted(live)


#: Mostly a few sizes, so that a hole often fits exactly or just not,
#: and often zero-length records: the boundaries between gaps.
held_sizes = st.one_of(
    st.sampled_from([0, 0, 12, 20, 21, 33]), st.integers(min_value=0, max_value=70)
)


class TestHeldSpace:
    """A heap that holds each page's free space places every record
    where one that reads the space afresh on every call does."""

    @settings(max_examples=120, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "insert", "delete", "delete", "update", "insert_at"]
                ),
                st.integers(min_value=0, max_value=10_000),
                held_sizes,
            ),
            max_size=150,
        )
    )
    def test_heap_twin_is_byte_identical(self, script):
        # Four frames for a growing heap of small pages: pages are
        # evicted and read back, and the held spaces outlive their frames.
        held, twin = (fresh_heap(capacity=4, page_size=256) for _ in range(2))
        twin.spaces = Rereading()
        heaps = (held, twin)
        live, freed = [], []
        for step, (op, pick, length) in enumerate(script):
            body = bytes([step % 251]) * length
            if op == "insert":
                rid, twin_rid = (heap.insert(body) for heap in heaps)
                assert rid == twin_rid
                live.append(rid)
            elif op == "delete" and live:
                rid = live.pop(pick % len(live))
                for heap in heaps:
                    heap.delete(rid)
                freed.append(rid)
            elif op == "update" and live:  # grows, shrinks, same length
                rid = live[pick % len(live)]
                done = {outcome(heap.update, rid, body) for heap in heaps}
                assert len(done) == 1
            elif op == "insert_at" and held.page_count:
                if pick % 2 and freed:  # undo's restore of a freed address
                    rid = freed[pick % len(freed)]
                else:  # past the directory's end, which grows to reach it
                    page_no = pick % held.page_count
                    page = held._pin(page_no)
                    slot_count = page.slot_count
                    held._unpin(page_no, dirty=False)
                    rid = Rid(page_no, slot_count + pick % 3)
                if rid in live:
                    continue
                done = {outcome(heap.insert_at, rid, body) for heap in heaps}
                assert len(done) == 1
                if done == {None}:
                    live.append(rid)
            assert images(held) == images(twin), (step, op)
            sanitize.check_free_map(held)
        assert sorted(rid for rid, _ in held.scan()) == sorted(live)

    @settings(max_examples=40, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "insert", "delete", "update", "abort", "truncate"]
                ),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=80,
        )
    )
    def test_table_twin_is_byte_identical(self, script):
        """The same at the table: names of every length grow and shrink
        rows, an aborted transaction's undo restores them (its delete
        through ``insert_at``) and a truncate empties every page."""
        tables = []
        for _ in range(2):
            db = Database(page_size=512, buffer_capacity=4)
            tables.append(
                db.create_table(
                    "t", [("id", "int"), ("name", "string")], annotations="lazy"
                )
            )
        held, twin = tables
        twin.heap.spaces = Rereading()
        rids = [
            [table.insert([i, "n" * (i % 30)]) for i in range(40)] for table in tables
        ]
        assert rids[0] == rids[1]
        live = rids[0]
        for step, (op, pick, length) in enumerate(script):
            name = chr(97 + step % 26) * length
            if op == "insert":
                rid, twin_rid = (table.insert([step, name]) for table in tables)
                assert rid == twin_rid
                live.append(rid)
            elif op == "delete" and live:
                rid = live.pop(pick % len(live))
                for table in tables:
                    table.delete(rid)
            elif op == "update" and live:
                at = pick % len(live)
                moved = {table.update(live[at], {"name": name}) for table in tables}
                assert len(moved) == 1
                live[at] = moved.pop()
            elif op == "abort" and live:
                # A delete, an insert into what it freed and an update,
                # all undone.
                victim, other = live[pick % len(live)], live[(pick + 1) % len(live)]
                for table in tables:
                    txn = table.db.txns.begin()
                    table.delete(victim, txn=txn)
                    table.insert([-step, name], txn=txn)
                    if other != victim:
                        table.update(other, {"name": name + "x"}, txn=txn)
                    txn.abort()
            elif op == "truncate" and pick % 4 == 0:
                for table in tables:
                    table.truncate()
                live = []
            assert images(held.heap) == images(twin.heap), (step, op)
        sanitize.check_free_map(held.heap)
