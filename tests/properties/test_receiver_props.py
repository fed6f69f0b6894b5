"""Receiver property: an epoch's net-change commit equals the replay.

Two twin receivers start from the same contents, each with a cascaded
snapshot defined over its storage.  A random stage is built against the
*oracle* twin, which applies every message as it is drawn, outside any
epoch — the paper's sequential Figure-4 receiver.  The other twin gets
the same messages (some delivered twice) inside one epoch.  After the
commit both must show the same contents, SnapTime and size, and their
cascaded snapshots must agree too.

Half the drawn ops move an entry (one address leaves, another arrives),
so most epochs pair a departure with an arrival; values come in lengths
from a byte to most of a page, so a row an arrival takes must sometimes
grow or move.  Storage must agree with the BaseAddr index on both twins,
and the committed twin must leave a breadcrumb exactly where it changed
something: a changed entry carries a NULL TimeStamp, an entry the replay
never saw change keeps its heap address and every byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as msg
from repro.core.manager import SnapshotManager
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.relation.schema import Schema
from repro.relation.types import NULL
from repro.storage.rid import Rid

SCHEMA = Schema.of(("v", "int"), ("s", "string"))
PAGES, SLOTS = 3, 5
ADDRS = [Rid(page, slot) for page in range(PAGES) for slot in range(SLOTS)]

addrs = st.sampled_from(ADDRS)
# A tiny value domain, so an upsert often re-sends what is stored; its
# lengths run from a byte to over a third of a page.
rows = st.tuples(
    st.integers(0, 2), st.sampled_from(["a", "b", "c" * 300, "d" * 1500])
)
lower_bounds = st.one_of(st.just(Rid.BEGIN), addrs)

ops = st.one_of(
    st.tuples(st.just("entry"), addrs, lower_bounds, rows),
    st.tuples(st.just("delta"), st.integers(0, 99), lower_bounds,
              st.integers(0, 3), rows),
    st.tuples(st.just("end_of_scan"), lower_bounds),
    st.tuples(st.just("delete_range"), lower_bounds,
              st.one_of(st.none(), addrs)),
    st.tuples(st.just("delete"), addrs),
    st.tuples(st.just("upsert"), addrs, rows),
    st.tuples(st.just("full_row"), addrs, rows),
    st.tuples(st.just("clear")),
    st.tuples(st.just("snap_time"), st.integers(0, 3)),
    # refresh_online's repair block: wipe one page, upsert it back.
    st.tuples(st.just("repair"), st.integers(0, PAGES - 1),
              st.dictionaries(st.integers(0, SLOTS - 1), rows)),
)
# A held address leaves and another arrives: what the commit pairs.
moves = st.tuples(st.just("move"), st.integers(0, 99), st.integers(0, 99), rows)
# Half moves (one_of would flatten ``ops`` and draw a move 1 time in 11).
steps = st.booleans().flatmap(lambda move: moves if move else ops)


def build(initial):
    """A receiver preloaded with ``initial`` plus its cascaded snapshot."""
    site = Database("site")
    snap = SnapshotTable(site, "s", SCHEMA)
    for addr, values in initial.items():
        snap._upsert(addr, values)
    down = SnapshotManager(site).create_snapshot(
        "down", "s", where="v < 2", method="differential",
        target_db=Database("leaf"),
    )
    return snap, down


def messages_for(op, oracle, time):
    """The refresh messages of one drawn op (deltas and moves pick live
    addresses, a move's arrival a free one)."""
    kind = op[0]
    if kind == "entry":
        return [msg.EntryMessage(op[1], op[2], op[3], 10)]
    if kind == "delta":
        live = oracle.base_addrs()
        if not live:
            return []
        _, pick, prev, mask, values = op
        changed = tuple(values[i] for i in range(2) if mask >> i & 1)
        return [msg.UpdateDeltaMessage(live[pick % len(live)], prev, mask,
                                       changed, 4)]
    if kind == "end_of_scan":
        return [msg.EndOfScanMessage(op[1])]
    if kind == "delete_range":
        return [msg.DeleteRangeMessage(op[1], op[2])]
    if kind == "delete":
        return [msg.DeleteMessage(op[1])]
    if kind == "upsert":
        return [msg.UpsertMessage(op[1], op[2], 10)]
    if kind == "full_row":
        return [msg.FullRowMessage(op[1], op[2], 10)]
    if kind == "clear":
        return [msg.ClearMessage()]
    if kind == "move":
        live = oracle.base_addrs()
        free = [addr for addr in ADDRS if addr not in live] or ADDRS
        _, leaves, arrives, values = op
        gone = [msg.DeleteMessage(live[leaves % len(live)])] if live else []
        return gone + [msg.UpsertMessage(free[arrives % len(free)], values, 10)]
    if kind == "snap_time":
        return [msg.SnapTimeMessage(time + op[1])]
    _, page, slots = op
    return [
        msg.DeleteRangeMessage(Rid(page, 0), Rid(page + 1, 0)),
        msg.DeleteMessage(Rid(page, 0)),
    ] + [
        msg.UpsertMessage(Rid(page, slot), values, 10)
        for slot, values in sorted(slots.items())
    ]


def timestamps(snap):
    """``{base address: stored TimeStamp}`` straight from storage."""
    baseaddr = len(SCHEMA)
    return {
        row.values[baseaddr]: row.values[-1]
        for _, row in snap.storage.scan_full()
    }


def assert_storage_matches_index(snap):
    """Each indexed row holds its address in ``$BASEADDR$``; no orphans."""
    baseaddr = len(SCHEMA)
    for key, heap_rid in snap._index.items():
        stored = snap.storage.read(heap_rid, visible=False).values[baseaddr]
        assert stored == Rid(*key), (key, heap_rid)
    assert snap.storage.row_count == len(snap)
    assert not snap._doomed


class TestNetChangeCommit:
    @settings(max_examples=120, deadline=None)
    @given(
        initial=st.dictionaries(addrs, rows, max_size=len(ADDRS)),
        script=st.lists(
            st.tuples(steps, st.booleans()), max_size=25
        ),
    )
    def test_commit_equals_per_message_replay(self, initial, script):
        oracle, oracle_down = build(initial)
        twin, twin_down = build(initial)
        before = twin.as_map()
        heap_rids = dict(twin._index.items())
        image = dict(twin.storage.heap.scan())

        twin.apply(msg.RefreshBeginMessage(1))
        staged = 0
        moved = set()  # addresses the replay ever showed other than before
        for op, duplicate in script:
            for message in messages_for(op, oracle, oracle.snap_time):
                oracle.apply(message)
                twin.apply(message)
                if duplicate:
                    twin.apply(message)  # a faulty link delivered it twice
                staged += 1
                moved.update(
                    addr for addr, values in oracle.as_map().items()
                    if before.get(addr) != values
                )
        assert twin.as_map() == before  # nothing visible before the commit
        twin.apply(msg.RefreshCommitMessage(1, staged))

        after = twin.as_map()
        assert after == oracle.as_map()
        assert twin.snap_time == oracle.snap_time
        assert len(twin) == len(oracle)
        for snap in (twin, oracle):
            assert_storage_matches_index(snap)
        # New and changed rows carry the NULL-TimeStamp breadcrumb the
        # cascaded fix-up looks for; a row the replay never saw change
        # (absent for a while, then revived with its values, included)
        # is neither moved nor written.
        stamps = timestamps(twin)
        for addr, values in after.items():
            if before.get(addr) != values:
                assert stamps[addr] is NULL, addr
            elif addr not in moved:
                heap_rid = heap_rids[addr.key()]
                assert twin._index.get(addr.key()) == heap_rid, addr
                assert bytes(twin.storage.heap.read(heap_rid)) == bytes(
                    image[heap_rid]
                ), addr

        oracle_down.refresh()
        twin_down.refresh()
        expected = sorted(v for v in twin.as_map().values() if v[0] < 2)
        # Keyed by storage address, which a revived row keeps and a
        # re-inserted one need not: compare contents, not addresses.
        assert sorted(twin_down.as_map().values()) == expected
        assert sorted(oracle_down.as_map().values()) == expected
