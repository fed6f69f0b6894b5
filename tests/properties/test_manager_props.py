"""The whole manager surface against one oracle: random scripts.

Every other property pins one pair of modes; this one mixes them.  A
script of writes (insert, update, delete, empty a page) is interleaved
with every way the :class:`~repro.core.manager.SnapshotManager`
publishes rows to a snapshot — ``refresh`` (some attempts killed at
message *k* and retried), ``refresh_online`` with writes landing at
chunk boundaries (repairs) and in the window between its seal and its
commit, and now and then another snapshot refreshed there,
``refresh_many`` (a failing member retried solo) and
``resync_snapshot`` — over four snapshots of one multi-page
table that differ in restriction, transport and options.  After every
publish the snapshot equals restriction∘projection of the base table
(an online pass's: as of its seal, and one refresh later as of now),
and once everything is quiet a further refresh sends no entries.

Each script runs twice: as the manager runs it, where a snapshot's page
cache carries a write-log mark and the refresh crosses the pages written
since in runs, and with every mark forced unknown, where each page is
served one by one.  The two must move the same units over every link,
report the same counters and leave the same base heap
(``docs/invariants.md``, "Log completeness").

This is the family that sized the address mirror
(``docs/invariants.md``, "Address-set mirroring"): the ``Deletion``
flag is armed from what the sender believes the snapshot holds, so
every publisher must tell the page cache what it left behind and no
aborted attempt may.  A script that loses track shows up here as a
stale row the paper's rule would have re-sent over.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.core.cursor import RefreshResult
from repro.core.manager import SnapshotManager
from repro.core.scanpass import _ScanPass
from repro.database import Database
from repro.net.faults import FaultyLink
from repro.net.retry import RetryPolicy

#: 512-byte pages hold 15 of the 33-byte ``(v, w, PrevAddr, TimeStamp)``
#: records: 20-120 rows span 2-8 pages.
PAGE_SIZE = 512

#: name, restriction, its Python twin, ``create_snapshot`` options.
SNAPSHOTS = (
    ("low", "v < 50", lambda v: v < 50, {}),
    (
        "high",
        "v >= 30",
        lambda v: v >= 30,
        {"delta_updates": True, "wire_format": True},
    ),
    ("all", None, lambda v: True, {"wire_format": True}),
    ("tiny", "v < 10", lambda v: v < 10, {"optimize_deletes": False}),
)

RETRY = RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0)

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "update", "update", "delete", "delete_page"] * 2
            + ["refresh", "refresh", "online", "many", "resync"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=10_000),
    ),
    # Long on purpose: the divergences this family finds take a delete,
    # a refresh, a publish outside the scan, a write to the published
    # row and another refresh, in that order (22 of 1,000 scripts at the
    # commit before the address mirror, none of 3,000 after; with lists
    # of at most 40 steps it found none of 1,000 at either).
    min_size=40,
    max_size=80,
)


class _World:
    def __init__(self, rows: int) -> None:
        self.db = Database("prop-manager", page_size=PAGE_SIZE)
        self.table = self.db.create_table(
            "t", [("v", "int"), ("w", "int")], annotations="lazy"
        )
        self.live = [
            self.table.insert([(i * 37) % 100, i]) for i in range(rows)
        ]
        assert self.table.heap.page_count >= 2
        self.manager = SnapshotManager(self.db)
        #: Every RefreshResult's counters, in order.
        self.results = []
        self.links = {}
        for name, where, _, options in SNAPSHOTS:
            self.links[name] = FaultyLink(name)
            self.manager.create_snapshot(
                name,
                "t",
                where=where,
                method="differential",
                channel=self.links[name],
                **options,
            )
        self.check(name for name, *_ in SNAPSHOTS)

    def check(self, names, rows=None) -> None:
        """Each named snapshot is restriction∘projection of the base, or
        of ``rows``, the base as it was."""
        if rows is None:
            rows = list(self.table.scan(visible=True))
        for name in names:
            qualifies = next(s[2] for s in SNAPSHOTS if s[0] == name)
            want = {rid: row.values for rid, row in rows if qualifies(row[0])}
            assert self.manager.snapshot(name).as_map() == want, name

    def covered(self, result, pages=None) -> None:
        """Every page of the pass — the heap's, or ``pages`` — took
        exactly one outcome for the snapshot: skipped, or read (whole,
        visited) once."""
        if pages is None:
            pages = self.table.heap.page_count
        assert result.pages_scanned + result.pages_skipped == pages
        self.results.append([getattr(result, f) for f in RefreshResult.__slots__])

    def pick(self, a: int) -> int:
        """A live row: half the time one of the four newest, so a row a
        repair or resync just published is soon written again."""
        size = len(self.live)
        return size - 1 - a % min(size, 4) if a % 2 else a % size

    def write(self, op: str, a: int, b: int, c: int) -> None:
        table, live = self.table, self.live
        if op == "insert":
            live.append(table.insert([b, c]))
        elif op == "update" and live:
            # 40 % redraw the restriction column, the rest leave every
            # snapshot's membership alone.
            changes = {"v": b} if c % 10 < 4 else {"w": c}
            table.update(live[self.pick(a)], changes)
        elif op == "delete" and live:
            table.delete(live.pop(self.pick(a)))
        elif op == "delete_page":
            page_no = a % table.heap.page_count
            for rid in [rid for rid in live if rid.page_no == page_no]:
                table.delete(rid)
                live.remove(rid)

    def step(self, op: str, a: int, b: int, c: int) -> None:
        manager = self.manager
        name = SNAPSHOTS[a % len(SNAPSHOTS)][0]
        if op == "refresh":
            if c % 10 < 3:  # killed at transmission k, retried
                self.links[name].fail_at(b % 12)
            self.covered(manager.refresh(name, retry=RETRY))
            self.links[name].clear_faults()
            self.check([name])
        elif op == "online":
            rng = random.Random(c)
            sibling = SNAPSHOTS[(a + 1 + b % 3) % len(SNAPSHOTS)][0]
            # The base and its page count as each window opened: the
            # last, as of the seal.
            sealed = []

            def writer(chunk: int) -> None:
                table = self.table
                sealed.append(
                    (list(table.scan(visible=True)), table.heap.page_count)
                )
                for _ in range(2):
                    self.write(
                        rng.choice(["insert", "update", "update", "delete"]),
                        rng.randrange(10_000),
                        rng.randrange(100),
                        rng.randrange(10_000),
                    )
                if rng.random() < 0.3:  # another snapshot's pass, in here
                    manager.refresh(sibling)
                    self.check([sibling])

            online = manager.refresh_online(
                name, chunk_pages=1 + b % 2, on_chunk_boundary=writer
            )
            rows, pages = sealed[-1]
            self.covered(online, pages)
            self.check([name], rows)
            # The writes after the seal are the next refresh's.
            self.covered(manager.refresh(name))
            self.check([name])
            # Repair closure and pass time: the table is chained, and
            # what the passes published they do not publish again.
            sanitize.check_annotation_chain(self.table)
            again = manager.refresh(name)
            self.covered(again)
            assert again.entries_sent == 0 and again.fixup_writes == 0
        elif op == "many":
            names = [
                s[0] for i, s in enumerate(SNAPSHOTS) if (a % 15 + 1) >> i & 1
            ]
            if c % 2:  # one member's link dies mid-pass: retried solo
                self.links[names[b % len(names)]].fail_at(c % 5)
            outcome = manager.refresh_many(names, retry=RETRY)
            for link in self.links.values():
                link.clear_faults()
            assert not outcome.errors
            for result in outcome.values():
                self.covered(result)
            self.check(names)
        elif op == "resync":
            manager.resync_snapshot(name)
            self.check([name])
        else:
            self.write(op, a, b, c)

    def settle(self) -> None:
        names = [name for name, *_ in SNAPSHOTS]
        assert not self.manager.refresh_all().errors
        self.check(names)
        quiet = self.manager.refresh_all()
        assert not quiet.errors
        for name in names:
            assert quiet[name].entries_sent == 0, name
            self.covered(quiet[name])
        self.check(names)


def play(rows, script):
    """Run ``script``; return every unit each link moved, every result's
    counters and the final base heap."""
    units = []
    transmit = FaultyLink._transmit

    def recording(link, unit):
        units.append((link.name, repr(unit)))
        return transmit(link, unit)

    with mock.patch.object(FaultyLink, "_transmit", recording):
        world = _World(rows)
        for step in script:
            world.step(*step)
        world.settle()
    return units, world.results, list(world.table.heap.scan())


class TestManagerScripts:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(rows=st.integers(min_value=20, max_value=120), script=steps)
    def test_every_publish_matches_the_oracle(self, rows, script):
        marked = play(rows, script)
        with mock.patch.object(_ScanPass, "_oldest_mark", lambda *_: None):
            walked = play(rows, script)
        assert marked == walked
