"""Insert-only gaps under the manager's defaults: a pure insert forces
nothing out.

Figure 3 arms its ``Deletion`` flag at every unqualified entry that
changed ("may have qualified before"), a newly inserted one included, so
the paper's rule re-sends the next qualifier after an insert-only gap.
The manager's snapshots keep an address mirror: on a page they hold a
record of, the flag arms only where a held address left, and an insert
takes none away.  A page new to the mirror lies past every recorded page
(the heap grows at its end), so whatever flag a pure insert arms there
meets no held qualifier, only ``EndOfScan``.

So across a gap of inserts alone — into freed slots of recorded pages
and onto pages new to the mirror, some stamped in between by a sibling
snapshot's refresh — the stream is the minimal one: one value message
per inserted row that qualifies, no range delete, no delete, and the
receiver equals restriction∘projection of the base table.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.manager import SnapshotManager
from repro.core.messages import (
    DeleteMessage,
    DeleteRangeMessage,
    EntryMessage,
    UpdateDeltaMessage,
    UpsertMessage,
)
from repro.database import Database

#: 512-byte pages hold 15 of the ``(v, w, PrevAddr, TimeStamp)`` records,
#: so a gap of up to 40 inserts spills onto pages new to the mirror.
PAGE_SIZE = 512

VALUE_MESSAGES = (EntryMessage, UpdateDeltaMessage, UpsertMessage)

#: Drawn uniformly (small integers would mostly qualify), so gaps take
#: unqualified inserts between held qualifiers.
VALUES = st.sampled_from(range(5, 100, 10))


@st.composite
def scripts(draw):
    return {
        "mode": draw(st.sampled_from(["lazy", "eager"])),
        "cutoff": draw(st.sampled_from([30, 50, 70])),
        "seed": draw(st.lists(VALUES, min_size=5, max_size=45)),
        # Writes before the first measured gap, mostly deletes, so freed
        # slots wait in recorded pages for the gap's (first-fit) inserts.
        "prelude": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "update"] + ["delete"] * 4),
                    st.integers(0, 10_000),
                    VALUES,
                ),
                min_size=2,
                max_size=20,
            )
        ),
        # Each gap: inserts, one in eight after a sibling's refresh (its
        # fix-up stamps the inserts so far: no longer pure for ours).
        "gaps": draw(
            st.lists(
                st.lists(
                    st.tuples(VALUES, st.integers(0, 7)),
                    min_size=1,
                    max_size=40,
                ),
                min_size=1,
                max_size=4,
            )
        ),
    }


class _World:
    def __init__(self, script):
        self.db = Database("insert-gap", page_size=PAGE_SIZE)
        self.table = self.db.create_table(
            "t", [("v", "int"), ("w", "int")], annotations=script["mode"]
        )
        self.live = [self.table.insert([v, i]) for i, v in enumerate(script["seed"])]
        self.cutoff = script["cutoff"]
        manager = SnapshotManager(self.db)
        # Named, not AUTO: on a seed where few rows qualify the cost model
        # picks FULL, whose stream re-sends everything and stamps nothing.
        self.snap = manager.create_snapshot(
            "s",
            "t",
            where=f"v < {self.cutoff}",
            method="differential",
            wire_format=True,
        )
        self.sibling = manager.create_snapshot(
            "sib", "t", where="v >= 50", method="differential"
        )
        self.stream = []
        receive = self.snap.table.receiver()

        def deliver(message):
            self.stream.append(message)
            receive(message)

        self.snap.channel.detach()
        self.snap.channel.attach(deliver)

    def write(self, kind, index, value):
        if kind == "insert" or not self.live:
            self.live.append(self.table.insert([value, -1]))
        elif kind == "update":
            self.table.update(self.live[index % len(self.live)], {"v": value})
        else:
            self.table.delete(self.live.pop(index % len(self.live)))

    def truth(self):
        return {
            rid: tuple(row.values)
            for rid, row in self.table.scan(visible=True)
            if row.values[0] < self.cutoff
        }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=scripts())
def test_an_insert_only_gap_sends_only_the_qualifying_inserts(script):
    world = _World(script)
    for kind, index, value in script["prelude"]:
        world.write(kind, index, value)
    world.snap.refresh()
    world.sibling.refresh()
    assert world.snap.as_map() == world.truth()
    for gap in script["gaps"]:
        inserted = []
        for value, sibling in gap:
            if not sibling:
                world.sibling.refresh()
            inserted.append(world.table.insert([value, -1]))
        world.stream.clear()
        world.snap.refresh()
        assert world.snap.as_map() == world.truth()
        assert not [
            m for m in world.stream if isinstance(m, (DeleteRangeMessage, DeleteMessage))
        ]
        sent = [m.addr for m in world.stream if isinstance(m, VALUE_MESSAGES)]
        wanted = [
            rid
            for rid in sorted(inserted)
            if world.table.read(rid).values[0] < world.cutoff
        ]
        assert sent == wanted
