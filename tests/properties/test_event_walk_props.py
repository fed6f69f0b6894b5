"""The mirror's event walk against the straight-line Figure-3 loop.

Where a cursor knows the slots its snapshot holds on a page,
``RefreshCursor._send_events`` visits only the page's *events* — the
qualifiers that changed or are new, and the first qualifier after each
held slot that left (or after a ``Deletion`` flag carried in) — finding
each message's ``prev_qual`` by bisection and carrying every other
qualifier's mirrored values in bulk.  The loop it replaced walked every
qualifier and every leaver in slot order; it is kept here as the
reference, a forced qualifier (held, unchanged) always a range delete as
in the walk.  Both are driven over the same random page and must
produce the same messages (class, ``addr``, ``prev_qual``, values or
mask), leave the same ``LastQual`` and ``Deletion`` flag, and stage the
same value-mirror page: this pins bytes, not contents.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cursor import RefreshCursor, ValueCache
from repro.core.messages import DeleteRangeMessage
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import Row
from repro.relation.schema import Schema
from repro.storage.rid import Rid

SCHEMA = Schema.of(("id", "int"), ("v", "int"), ("w", "int"))
PAGE = 7
SLOTS = st.integers(min_value=0, max_value=15)


def reference_decide(cursor, page_no, now, changed, row_at, held):
    """``RefreshCursor._decide`` as it stood with ``held`` known: one
    iteration per qualifier and per leaver, one ``_carry_value`` call
    per unchanged qualifier.  A qualifier the flag forces out is held
    unchanged, so it always goes as a range delete and is never read."""
    arming = held - now
    changed = changed | (now - held)
    for slot_no in sorted(now.union(arming)):
        if slot_no not in now:
            cursor.deletion = True
            continue
        rid = Rid(page_no, slot_no)
        if slot_no in changed or cursor.deletion:
            if slot_no not in changed:
                cursor.transmit(DeleteRangeMessage(cursor.last_qual, rid))
                cursor._carry_value(rid)
            else:
                projected = cursor.projection(row_at(slot_no))
                cursor.transmit(cursor._value_message(rid, projected))
                if cursor._staged_values is not None:
                    cursor._staged_values.setdefault(page_no, {})[
                        rid
                    ] = projected.values
        else:
            cursor._carry_value(rid)
        cursor.last_qual = rid
        cursor.deletion = False


def event_walk(cursor, page_no, now, changed, row_at, held):
    """The inputs ``RefreshCursor.cross`` derives, from the same sets."""
    cursor._send_events(
        page_no,
        sorted(now),
        (changed & now) | (now - held),
        held - now,
        row_at,
    )


def describe(message):
    fields = {name: getattr(message, name) for name in type(message).__slots__}
    return type(message).__name__, fields


@st.composite
def pages(draw):
    held = draw(st.sets(SLOTS))
    now = draw(st.sets(SLOTS))
    # Changed entries that do not qualify are no event; keep some in.
    changed = draw(st.sets(SLOTS))
    # Current rows, and what the value mirror remembers of the held ones
    # (some missing, some equal, some differing in one column or all).
    rows = {
        slot: draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        for slot in sorted(now)
    }
    mirrored = {}
    for slot in sorted(held):
        if draw(st.booleans()):
            mirrored[slot] = rows.get(slot) if draw(st.booleans()) else None
            if mirrored[slot] is None:
                mirrored[slot] = draw(
                    st.tuples(st.integers(0, 3), st.integers(0, 3))
                )
    return {
        "held": held,
        "now": now,
        "changed": changed,
        "rows": rows,
        "mirrored": mirrored,
        "deletion": draw(st.booleans()),
        "last_qual": draw(st.sampled_from([Rid.BEGIN, Rid(3, 2), Rid(6, 9)])),
        "value_cache": draw(st.booleans()),
    }


def run(decide, page):
    sent = []
    value_cache = None
    if page["value_cache"]:
        value_cache = ValueCache()
        value_cache.pages[PAGE] = {
            Rid(PAGE, slot): (slot, *values)
            for slot, values in page["mirrored"].items()
        }
        # A neighbouring page's mirror must come through untouched.
        value_cache.pages[PAGE + 1] = {Rid(PAGE + 1, 0): (0, 0, 0)}
    cursor = RefreshCursor(
        10,
        Restriction.true(SCHEMA),
        Projection(SCHEMA),
        sent.append,
        value_cache=value_cache,
    )
    cursor.deletion = page["deletion"]
    cursor.last_qual = page["last_qual"]
    fetched = []

    def row_at(slot_no):
        fetched.append(slot_no)
        return Row((slot_no, *page["rows"][slot_no]))

    decide(
        cursor, PAGE, set(page["now"]), set(page["changed"]), row_at,
        set(page["held"]),
    )
    return {
        "messages": [describe(message) for message in sent],
        "fetched": fetched,
        "last_qual": cursor.last_qual,
        "deletion": cursor.deletion,
        "staged": cursor._staged_values,
        "counters": (
            cursor.result.messages_sent,
            cursor.result.entries_sent,
            cursor.result.bytes_sent,
        ),
        "committed": value_cache.pages if value_cache is not None else None,
    }


class TestEventWalk:
    @settings(max_examples=600, deadline=None)
    @given(page=pages())
    def test_event_walk_is_the_straight_line_loop(self, page):
        expected = run(reference_decide, page)
        assert run(event_walk, page) == expected
        # And the committed mirror is never written to, whoever walked.
        if expected["committed"] is not None:
            assert expected["committed"][PAGE] == {
                Rid(PAGE, slot): (slot, *values)
                for slot, values in page["mirrored"].items()
            }

    @settings(max_examples=200, deadline=None)
    @given(
        held=st.sets(SLOTS),
        deletion=st.booleans(),
        value_cache=st.booleans(),
    )
    def test_nothing_changed_is_the_zero_event_case(
        self, held, deletion, value_cache
    ):
        """A skip, and a page read whole on which nothing is newer than
        ``SnapTime``: no message unless a flag was carried in, and the
        committed value-mirror page rides along as the object it is."""
        page = {
            "held": held, "now": held, "changed": set(),
            "rows": {slot: (1, 1) for slot in held},
            "mirrored": {slot: (1, 1) for slot in held},
            "deletion": deletion, "last_qual": Rid(3, 2),
            "value_cache": value_cache,
        }
        outcome = run(event_walk, page)
        assert outcome == run(reference_decide, page)
        assert len(outcome["messages"]) == (1 if deletion and held else 0)
        if value_cache and held and not outcome["messages"]:
            assert outcome["staged"][PAGE] is outcome["committed"][PAGE]
