"""``RefreshCursor.cross`` of a page not read whole: O(changed).

The cursor copies the committed ``qual_slots`` and bisects each changed
or freed slot in or out of the copy; the committed array is the address
mirror's and must come out of the cross untouched.  Each case below
crosses page 0 of a table whose rows qualify iff ``v < 5``, from a
record holding the slots that qualified when it was written.
"""

from array import array

from repro.core.cursor import RefreshCursor
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import decode_row
from repro.storage.rid import Rid
from repro.storage.summary import PageQualInfo

ROWS = 40


def setup():
    db = Database("cross")
    # Eager: every record is chained, so a partial read holds just the
    # slots asked for.
    table = db.create_table("t", [("id", "int"), ("v", "int")], annotations="eager")
    rids = [table.insert([i, i % 10]) for i in range(ROWS)]
    held = array("H", [rid.slot_no for rid in rids if rid.slot_no % 10 < 5])
    restriction = Restriction.parse("v < 5", table.schema)
    return table, held, restriction


def cross(table, held, restriction, changed_slots, freed=()):
    """Cross page 0 for a fresh cursor from a record holding ``held``;
    return the cursor, the committed record and what it sent."""
    sent = []
    cursor = RefreshCursor(
        0, restriction, Projection(table.schema.visible()), sent.append
    )
    info = PageQualInfo(1, Rid.BEGIN, held, None)
    batch = table.heap.fix_batch(0, table.schema, only=changed_slots)

    def row_at(slot_no):  # a forced qualifier is read on its own, as the scan does
        return decode_row(table.schema, table.heap.read(Rid(0, slot_no)))

    cursor.cross(0, info, batch, range(batch.count), None, row_at, freed)
    return cursor, info, sent


def sent_slots(sent):
    return [message.addr.slot_no for message in sent]


class TestCrossInOrderOfChanged:
    def test_a_changed_slot_that_starts_to_qualify(self):
        table, held, restriction = setup()
        table.update(Rid(0, 7), {"v": 1})
        cursor, info, sent = cross(table, held, restriction, [7])
        assert list(cursor.page_quals) == sorted([*held, 7])
        assert sent_slots(sent) == [7]
        assert cursor.result.entries_evaluated == 1

    def test_a_changed_slot_that_stops_qualifying(self):
        table, held, restriction = setup()
        table.update(Rid(0, 2), {"v": 8})
        cursor, info, sent = cross(table, held, restriction, [2])
        assert list(cursor.page_quals) == [slot for slot in held if slot != 2]
        # Gone: the first qualifier after it carries the deletion.
        assert sent_slots(sent) == [3]

    def test_a_held_slot_that_was_freed(self):
        table, held, restriction = setup()
        table.delete(Rid(0, 12))
        cursor, info, sent = cross(table, held, restriction, [], freed={12})
        assert list(cursor.page_quals) == [slot for slot in held if slot != 12]
        assert sent_slots(sent) == [13]
        assert cursor.result.entries_evaluated == 0

    def test_a_changed_slot_neither_held_nor_qualifying(self):
        table, held, restriction = setup()
        table.update(Rid(0, 6), {"v": 9})
        cursor, info, sent = cross(table, held, restriction, [6])
        assert list(cursor.page_quals) == list(held)
        assert sent == []
        assert not cursor.deletion

    def test_the_committed_record_is_never_written(self):
        table, held, restriction = setup()
        before = array("H", held)
        table.update(Rid(0, 7), {"v": 1})
        table.update(Rid(0, 2), {"v": 8})
        table.delete(Rid(0, 12))
        cursor, info, sent = cross(table, held, restriction, [2, 7], freed={12})
        assert info.qual_slots is held and held == before
        assert cursor.page_quals is not held
        assert list(cursor.page_quals) == sorted(
            {*held, 7}.difference({2, 12})
        )
        assert sent_slots(sent) == [3, 7, 13]
