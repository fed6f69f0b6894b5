"""Slotted page checked against a dict model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError
from repro.storage.page import HEADER_SIZE, SLOT_SIZE, FreeSpace, SlottedPage

bodies = st.binary(min_size=0, max_size=80)
scripts = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=40),
        bodies,
    ),
    max_size=120,
)


class TestAgainstModel:
    @settings(max_examples=80, deadline=None)
    @given(script=scripts)
    def test_matches_dict(self, script):
        page = SlottedPage.empty(1024)
        model = {}
        for op, pick, body in script:
            live = sorted(model)
            if op == "insert":
                try:
                    slot = page.insert(body)
                except PageFullError:
                    continue
                # First-fit slot reuse: the model must agree on which
                # slot was chosen.
                free_slots = [
                    s for s in range(page.slot_count) if s not in model and s != slot
                ]
                assert all(slot <= s for s in free_slots if s < page.slot_count)
                model[slot] = body
            elif op == "delete" and live:
                slot = live[pick % len(live)]
                page.delete(slot)
                del model[slot]
            elif op == "update" and live:
                slot = live[pick % len(live)]
                try:
                    page.update(slot, body)
                except PageFullError:
                    continue
                model[slot] = body
        assert dict(page.records()) == model
        assert page.live_count == len(model)

    @settings(max_examples=40, deadline=None)
    @given(script=scripts)
    def test_compaction_preserves_contents(self, script):
        page = SlottedPage.empty(1024)
        model = {}
        for op, pick, body in script:
            live = sorted(model)
            if op == "insert":
                try:
                    model[page.insert(body)] = body
                except PageFullError:
                    pass
            elif op == "delete" and live:
                slot = live[pick % len(live)]
                page.delete(slot)
                del model[slot]
        page.compact()
        assert dict(page.records()) == model
        assert page.reclaimable() == 0


def check_layout(page, model):
    """Every live record reads back, no two bodies overlap, none reaches
    into the directory, and the free bytes are what arithmetic says."""
    size = len(page.buffer)
    directory_end = HEADER_SIZE + SLOT_SIZE * page.slot_count
    extents = []
    for slot in range(page.slot_count):
        offset, length = page._slot(slot)
        if slot in model:
            assert page.read(slot) == model[slot]
            assert directory_end <= offset and offset + length <= size
            if length:
                extents.append((offset, offset + length))
        else:
            assert (offset, length) == (0, 0)
    extents.sort()
    assert all(a[1] <= b[0] for a, b in zip(extents, extents[1:])), extents
    live_bytes = sum(len(body) for body in model.values())
    assert page.contiguous_free() >= 0
    assert (
        page.contiguous_free() + page.reclaimable()
        == size - directory_end - live_bytes
    )
    assert page.live_count == len(model)


def expected_at(page, length, slot=None):
    """Where a body of ``length`` goes: below the frontier when it fits
    there (less a new directory entry when ``slot`` is None and none is
    free), else into the first gap between live bodies, in ``(offset,
    length)`` order, that holds it once ``slot`` gave up its own; or
    ``None`` when no single gap does and the page is re-packed."""
    new_entry = SLOT_SIZE if slot is None and page.lowest_free_slot() is None else 0
    room = page.contiguous_free() - new_entry
    frontier = HEADER_SIZE + SLOT_SIZE * page.slot_count + page.contiguous_free()
    if room >= length:
        return frontier - length
    if room < 0:
        return None
    bodies = sorted(
        page._slot(s) for s in range(page.slot_count) if page.is_live(s) and s != slot
    )
    start = frontier
    for offset, body_length in bodies + [(len(page.buffer), 0)]:
        if offset - start >= length:
            return offset - length
        start = offset + body_length
    return None


class TestPlacement:
    """Where a body lies never decides which slot it gets or whether it fits."""

    # Mostly a few sizes, so that a hole often fits exactly or just not.
    sizes = st.one_of(
        st.sampled_from([12, 20, 21, 33]), st.integers(min_value=0, max_value=70)
    )

    scripts = dict(
        fill=st.lists(sizes, max_size=16),
        script=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "delete", "update", "insert_at", "churn", "churn"]
                ),
                st.integers(min_value=0, max_value=60),
                sizes,
            ),
            max_size=120,
        ),
    )

    @settings(max_examples=200, deadline=None)
    @given(**scripts)
    def test_layout_against_model(self, fill, script):
        """One view for the whole script: it reads the page's free space
        once and moves it on every write, and after every step the space
        it holds is the one read afresh from the image."""
        self._play(fill, script, reread=False)

    @settings(max_examples=200, deadline=None)
    @given(**scripts)
    def test_a_space_read_every_call_places_alike(self, fill, script):
        self._play(fill, script, reread=True)

    def _play(self, fill, script, reread):
        # A small page, loaded first: placement is decided on full pages.
        page = SlottedPage.empty(256)
        pending = [("insert", 0, length) for length in fill] + script
        pending.reverse()
        model = {}
        step = 0
        while pending:
            op, pick, length = pending.pop()
            step += 1
            body = bytes([step % 251]) * length
            live = sorted(model)
            if op == "churn" and live:
                # A delete, then an insert one byte shorter than, as long
                # as, or one byte longer than the hole it left.
                hole = len(model[live[pick % len(live)]])
                pending.append(("insert", 0, max(0, hole + length % 3 - 1)))
                pending.append(("delete", pick, 0))
                continue
            if reread:
                page.space = None
            slot_count = page.slot_count
            free = page.contiguous_free() + page.reclaimable()
            image = bytes(page.buffer)  # a refused record leaves no trace
            free_slots = [s for s in range(slot_count) if s not in model]
            if op == "insert":
                # The parent's rule: the lowest free slot, else a new one.
                expect = free_slots[0] if free_slots else slot_count
                need = length + (0 if free_slots else SLOT_SIZE)
                at = expected_at(page, length)
                repack = page.compactions + (at is None)
                try:
                    slot = page.insert(body)
                except PageFullError:
                    assert need > free and page.buffer == image
                else:
                    assert need <= free and slot == expect
                    assert page.compactions == repack
                    assert at is None or page._slot(slot) == (at, length)
                    model[slot] = body
            elif op == "insert_at":
                # A freed slot (undo's restore) or, on odd picks, any
                # address: beyond the directory, which then grows.
                slot = pick
                if free_slots and pick % 2 == 0:
                    slot = free_slots[pick % len(free_slots)]
                if slot in model:
                    continue
                need = length + SLOT_SIZE * max(0, slot + 1 - slot_count)
                try:
                    assert page.insert(body, slot) == slot
                except PageFullError:
                    assert need > free and page.buffer == image
                else:
                    assert need <= free
                    model[slot] = body
            elif op == "delete" and live:
                slot = live[pick % len(live)]
                assert page.delete(slot) == len(model.pop(slot))
            elif op == "update" and live:  # grows, shrinks and same length
                slot = live[pick % len(live)]
                grows = length > len(model[slot])
                at = expected_at(page, length, slot) if grows else page._slot(slot)[0]
                repack = page.compactions + (at is None)
                try:
                    changed = page.update(slot, body)
                except PageFullError:
                    assert length > free + len(model[slot])
                    assert page.buffer == image
                else:
                    assert length <= free + len(model[slot])
                    assert changed == (length != len(model[slot]))
                    assert page.compactions == repack
                    assert at is None or page._slot(slot) == (at, length)
                    model[slot] = body
            check_layout(page, model)
            if page.space is not None:
                assert page.space == FreeSpace(page), (op, step)
        assert dict(page.records()) == model
        bounds = page.live_bounds()
        assert bounds == ((min(model), max(model)) if model else None)
        assert page.lowest_free_slot() == next(
            (s for s in range(page.slot_count) if s not in model), None
        )
