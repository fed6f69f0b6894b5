"""Heap-file properties: model equivalence and scan ordering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pager import InMemoryPager
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


def fresh_heap():
    return HeapFile(BufferPool(InMemoryPager(page_size=512), capacity=8))


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
