"""Columnar batch pipeline properties: the fast paths change no byte
the receiver needs.

Two families of invariants pin the batch hot path introduced for the
A17 experiment:

1. **Codec parity** — ``encode_frame``/``decode_frame`` (one flat
   cursor per frame, schema-specialized generated decoder) are
   byte-identical to the per-message reference paths for arbitrary
   message mixes, compression on and off.

2. **Scan parity** — the refresh, built directly as
   ``DifferentialRefresher(table)`` / ``GroupRefresher(table)``, serves
   every page it reads whole from a batch and emits exactly the message
   stream of the per-row reference (``core/per_row.py``) from the same
   ``SnapTime``: same types, same addresses, same values, same modeled
   sizes — for arbitrary workloads over a multi-page table (emptied
   pages and address reuse included), lazy and eager annotations,
   solo and group passes, delete optimization and per-column deltas on
   and off — **wherever both worlds run the
   paper's arming rule** (no page cache: summaries off).  With
   summaries on the batch world's page cache is its mirror of the
   snapshot's addresses and arms the ``Deletion`` flag from it, so its
   stream is the per-row world's with Figure 9's superfluous messages
   *left out* and each forced re-send of a held value a range delete
   (:func:`assert_mirror_subsequence`), every omission an address whose
   value the receiver already held, and both receivers equal to
   restriction∘projection of the base table.  The batch path also does
   the Figure-7 fix-up on written pages, so after every refresh the
   two base tables must hold byte-identical heap records (annotations
   included) and report the same ``fixup_writes``/
   ``deletions_detected`` — the rule decides what to send, never what
   to write.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cursor import RefreshCursor, ValueCache
from repro.core.differential import DifferentialRefresher
from repro.core.group import GroupRefresher
from repro.core.per_row import RowGroupRefresher, RowRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import ChannelError
from repro.expr.predicate import Projection, Restriction
from repro.net.wire import WireCodec
from repro.relation.types import NULL
from repro.storage.rid import Rid
from repro.storage.summary import PageMirror

from tests.properties.test_wire_props import (
    _STREAM_SCHEMA,
    assert_mirror_subsequence,
    assert_streams_identical,
    message_strategy,
)

PREDICATES = ("v < 50", "v >= 20")

#: 256-byte pages hold 8 of the 25-byte ``(v, PrevAddr, TimeStamp)``
#: records, so the 36 seed rows span 5 pages and every script crosses
#: page boundaries.
PAGE_SIZE = 256
ROWS_PER_PAGE = 8
SEED_ROWS = 36

#: ``delete_page`` empties one whole page (its addresses are reused by
#: later first-fit inserts); the rest is the wire properties' workload.
workload = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "update",
                "delete",
                "delete_page",
                "refresh",
                "refresh_all",
            ]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=40,
)


class TestBatchCodecParity:
    @settings(max_examples=100, deadline=None)
    @given(
        stream=st.lists(message_strategy(), min_size=0, max_size=40),
        compress=st.booleans(),
        base_time=st.integers(0, 2**40),
    )
    def test_batch_paths_byte_identical_to_reference(
        self, stream, compress, base_time
    ):
        codec = WireCodec(
            _STREAM_SCHEMA, compress=compress, base_time=base_time
        )
        batch = codec.encode_frame(stream)
        reference = codec.encode_frame_per_message(stream)
        assert batch.data == reference.data
        assert batch.modeled_size == reference.modeled_size
        assert_streams_identical(codec.decode_frame(batch), stream)
        assert_streams_identical(
            codec.decode_frame_per_message(reference), stream
        )


# -- scan parity --------------------------------------------------------------


class _ScanWorld:
    """One replayable world: a base table refreshed by raw scan passes.

    Streams are captured as message-object lists per snapshot, so the
    batch/row comparison sees every transmitted field — not just final
    snapshot state — and replayed into one receiver per snapshot;
    ``fixups`` records each pass's ``(fixup_writes,
    deletions_detected)``.
    """

    def __init__(
        self,
        batch,
        summaries,
        mode,
        group,
        delta,
        opt,
        pad=False,
    ):
        self.db = Database("prop-batch", page_size=PAGE_SIZE)
        #: ``pad`` puts a variable-width column before ``v`` so that an
        #: update can outgrow its page (``grow``); ``v`` stays in the
        #: record's fixed-width suffix either way.
        self.pad = pad
        columns = [("pad", "string")] if pad else []
        self.table = self.db.create_table(
            "t", columns + [("v", "int")], annotations=mode
        )
        self.live = [
            self.table.insert(self._row((v * 7) % 100))
            for v in range(SEED_ROWS)
        ]
        assert self.table.heap.page_count >= 4
        self.summaries = summaries
        #: The production refreshers, or the per-row reference's.
        self.batch = batch
        #: A batch world with a page cache arms ``Deletion`` from it.
        self.mirrored = batch and summaries
        self.group = group
        self.delta = delta
        if batch:
            self.refresher = DifferentialRefresher(self.table, optimize_deletes=opt)
            self.group_refresher = GroupRefresher(self.table)
        else:
            self.refresher = RowRefresher(self.table, optimize_deletes=opt)
            self.group_refresher = RowGroupRefresher(self.table)
        self.opt = opt
        self.snap_times = [0 for _ in PREDICATES]
        self.caches = [{} for _ in PREDICATES] if summaries else None
        self.value_caches = (
            [ValueCache() for _ in PREDICATES] if delta else None
        )
        self.streams = [[] for _ in PREDICATES]
        self.receivers = [
            SnapshotTable(
                Database(f"site{index}"),
                f"s{index}",
                Projection(self.table.schema).schema,
            )
            for index in range(len(PREDICATES))
        ]
        #: The last refreshing step, per snapshot it served: what the
        #: receiver held before it, and the messages sent.
        self.last = {}
        self.fixups = []
        #: Passes on which some cursor fast-forwarded a page it also had
        #: to read: a changed-slot visit.
        self.visits = 0

    def _row(self, value):
        return ["", value] if self.pad else [value]

    def _note(self, result):
        self.visits += result.pages_fast_forwarded > result.pages_skipped

    def _served(self, result):
        """Every page the batch path reads is a batch (the reference's
        never are), and without a page cache it reads them all."""
        if not self.batch:
            assert result.pages_batch_decoded == 0
        else:
            assert result.pages_batch_decoded == result.pages_scanned
            assert self.summaries or result.pages_scanned > 0

    def _restriction(self, index):
        return Restriction.parse(PREDICATES[index], self.table.schema)

    def heap_image(self):
        """Every stored record, byte for byte, annotations included."""
        return list(self.table.heap.scan())

    def truth(self, index):
        """Restriction∘projection of the base table, as it stands."""
        restriction = self._restriction(index)
        return {
            rid: row.values
            for rid, row in self.table.scan(visible=True)
            if restriction(row)
        }

    def _deliver(self, index, sent):
        receiver = self.receivers[index]
        self.last[index] = (receiver.as_map(), sent)
        for message in sent:
            receiver.apply(message)
        self.streams[index].extend(sent)

    def refresh_one(self, index):
        sent = []
        result = self.refresher.refresh(
            self.snap_times[index],
            self._restriction(index),
            Projection(self.table.schema),
            sent.append,
            cache=self.caches[index] if self.summaries else None,
            value_cache=self.value_caches[index] if self.delta else None,
        )
        self._note(result)
        self._served(result)
        if self.delta:
            self.value_caches[index].commit()
        self.snap_times[index] = result.new_snap_time
        self._deliver(index, sent)
        self.fixups.append((result.fixup_writes, result.deletions_detected))

    def refresh_all(self):
        if not self.group:
            for index in range(len(PREDICATES)):
                self.refresh_one(index)
            return
        sents = [[] for _ in PREDICATES]
        cursors = [
            RefreshCursor(
                self.snap_times[index],
                self._restriction(index),
                Projection(self.table.schema),
                sents[index].append,
                cache=self.caches[index] if self.summaries else None,
                optimize_deletes=self.opt,
                name=f"s{index}",
                value_cache=(
                    self.value_caches[index] if self.delta else None
                ),
            )
            for index in range(len(PREDICATES))
        ]
        outcome = self.group_refresher.refresh_group(cursors)
        assert not outcome.errors
        stats = outcome.pass_result
        self._served(stats)
        self.fixups.append((stats.fixup_writes, stats.deletions_detected))
        for index, cursor in enumerate(cursors):
            if self.delta:
                self.value_caches[index].commit()
            self.snap_times[index] = cursor.result.new_snap_time
            self._deliver(index, sents[index])
            self._note(cursor.result)

    def apply(self, step):
        """One script step; True when it refreshed."""
        op, index, value = step
        if op == "insert":
            self.live.append(self.table.insert(self._row(value)))
        elif op == "update" and self.live:
            self.table.update(
                self.live[index % len(self.live)], {"v": value}
            )
        elif op == "abort" and self.live:
            # Undo restores the record byte for byte, version bumped.
            txn = self.db.txns.begin()
            rid = self.live[index % len(self.live)]
            self.table.update(rid, {"v": value}, txn=txn)
            txn.abort()
        elif op == "undelete" and self.live:
            # Undo re-inserts the record in its slot: a structural change
            # the page's freed set cannot name.
            txn = self.db.txns.begin()
            self.table.delete(self.live[index % len(self.live)], txn=txn)
            txn.abort()
        elif op == "grow" and self.live:
            # Outgrows a full page: delete here, insert elsewhere.
            at = index % len(self.live)
            self.live[at] = self.table.update(
                self.live[at], {"pad": "x" * (60 + value)}
            )
        elif op == "delete" and self.live:
            self.table.delete(self.live.pop(index % len(self.live)))
        elif op == "delete_page":
            page_no = index % self.table.heap.page_count
            for rid in [r for r in self.live if r.page_no == page_no]:
                self.table.delete(rid)
                self.live.remove(rid)
        elif op == "refresh":
            self.last = {}
            self.refresh_one(index % len(PREDICATES))
            return True
        elif op == "refresh_all":
            self.last = {}
            self.refresh_all()
            return True
        return False


def assert_worlds_agree(row, batch):
    """Same base-table bytes, same fix-up work, same snapshots — and the
    same streams so far, byte for byte, unless ``batch`` alone holds an
    address mirror: then its last refresh is the paper's (``row``'s)
    with only superfluous messages left out."""
    assert batch.heap_image() == row.heap_image()
    assert batch.fixups == row.fixups
    assert not row.mirrored
    for index in range(len(PREDICATES)):
        if not batch.mirrored:
            assert_streams_identical(batch.streams[index], row.streams[index])
        elif index in batch.last:
            held, sent = batch.last[index]
            assert_mirror_subsequence(sent, row.last[index][1], held)
        contents = batch.receivers[index].as_map()
        assert contents == row.receivers[index].as_map()
        if index in batch.last:
            assert contents == batch.truth(index)


def run_scan_worlds(
    script, summaries, mode, group, delta=False, opt=False
):
    row = _ScanWorld(False, summaries, mode, group, delta, opt)
    batch = _ScanWorld(True, summaries, mode, group, delta, opt)
    for step in list(script) + [("refresh_all", 0, 0)]:
        refreshed = row.apply(step)
        batch.apply(step)
        if refreshed:
            assert_worlds_agree(row, batch)
    return row, batch


class TestScanParity:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_solo_lazy_summaries_on(self, script):
        run_scan_worlds(script, summaries=True, mode="lazy", group=False)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_solo_eager_summaries_off_optimized(self, script):
        run_scan_worlds(
            script, summaries=False, mode="eager", group=False, opt=True
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_group_lazy_summaries_on_delta(self, script):
        run_scan_worlds(
            script, summaries=True, mode="lazy", group=True, delta=True
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload)
    def test_group_eager_summaries_off(self, script):
        run_scan_worlds(script, summaries=False, mode="eager", group=True)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload, group=st.booleans(), opt=st.booleans())
    def test_eager_summaries_on_mirrored(self, script, group, opt):
        """Eager annotations never visit, but the batch world's page
        cache still arms its flag: every scanned page is mirrored."""
        run_scan_worlds(
            script, summaries=True, mode="eager", group=group, opt=opt
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=workload, group=st.booleans(), opt=st.booleans())
    def test_lazy_summaries_off(self, script, group, opt):
        run_scan_worlds(
            script, summaries=False, mode="lazy", group=group, opt=opt
        )


#: At least 60 % in-place updates (13 of 20), so most written pages
#: carry nothing else and the batch world serves them as changed-slot
#: visits; ``abort`` and ``grow`` are the two writes that move a page's
#: version without leaving a plain NULL-TimeStamp update behind.
update_heavy = st.lists(
    st.tuples(
        st.sampled_from(
            ["update"] * 13
            + ["abort", "grow", "insert", "delete"]
            + ["refresh", "refresh", "refresh_all"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=50,
)

#: Every script opens the same way: both cursors record every page, one
#: row is updated, and cursor 0 refreshes alone — a visit, whose stamp
#: is then newer than cursor 1's ``SnapTime``.
VISIT_PROLOGUE = [("refresh_all", 0, 0), ("update", 3, 7), ("refresh", 0, 0)]


#: Inserts, deletes (single, a whole page, undone) and updates in equal
#: measure, so most written pages take an insert or a delete.
structural = st.lists(
    st.tuples(
        st.sampled_from(
            ["update"] * 4
            + ["insert"] * 4
            + ["delete"] * 4
            + ["delete_page", "undelete", "abort", "grow"]
            + ["refresh", "refresh", "refresh_all"]
        ),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=50,
)


def unnamed(world):
    """Have ``world``'s page summaries name no insert or delete: each is
    recorded as a structural change the freed set cannot name (as an
    undo re-insert is), so a page that took one is read whole."""
    summaries = world.table.heap.summaries
    note_insert, note_delete = summaries.note_insert, summaries.note_delete

    def insert(rid, body, structural=False):
        note_insert(rid, body, structural=True)

    def delete(rid, page):
        note_delete(rid, page)
        summary = summaries.get(rid.page_no)
        summary.freed_since = max(
            summary.freed_since, summary.structural_changed_at
        )

    summaries.note_insert = insert
    summaries.note_delete = delete


class TestChangedSlotVisits:
    """Update-heavy scripts: the visit writes what the scan writes.

    Three worlds run each script — batch with summaries (the one that
    visits, and whose page cache arms the ``Deletion`` flag), per-row
    with summaries, per-row without.  After every refresh all three
    agree on heap bytes, fix-up counts and snapshot contents; the two
    per-row worlds (the paper's rule both) on every stream byte; and
    the visiting world's stream is theirs with superfluous messages
    left out (:func:`assert_mirror_subsequence`).
    """

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=update_heavy,
        group=st.booleans(),
        delta=st.booleans(),
        opt=st.booleans(),
    )
    def test_visits_agree_with_both_per_row_worlds(
        self, script, group, delta, opt
    ):
        flags = ("lazy", group, delta, opt, True)
        visiting = _ScanWorld(True, True, *flags)
        oracles = [_ScanWorld(False, True, *flags), _ScanWorld(False, False, *flags)]
        for step in VISIT_PROLOGUE + list(script) + [("refresh_all", 0, 0)]:
            refreshed = visiting.apply(step)
            for oracle in oracles:
                oracle.apply(step)
                if refreshed:
                    assert_worlds_agree(oracle, visiting)
            if refreshed:  # no cache consulted on either side: identical
                assert_worlds_agree(*oracles)
        assert visiting.visits > 0
        assert not any(oracle.visits for oracle in oracles)


    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=structural,
        group=st.booleans(),
        delta=st.booleans(),
        opt=st.booleans(),
    )
    def test_inserts_and_deletes_visit_as_the_page_read_whole(
        self, script, group, delta, opt
    ):
        """Insert/delete/update scripts: a visit of a page that took
        inserts and deletes writes and sends exactly what reading it
        whole does.  The whole-read world is the visiting one with
        nothing named: its summaries record every insert and delete as
        a change the freed set cannot name."""
        flags = ("lazy", group, delta, opt, True)
        visiting = _ScanWorld(True, True, *flags)
        whole = _ScanWorld(True, True, *flags)
        unnamed(whole)
        oracle = _ScanWorld(False, False, *flags)
        for step in VISIT_PROLOGUE + list(script) + [("refresh_all", 0, 0)]:
            refreshed = visiting.apply(step)
            whole.apply(step)
            oracle.apply(step)
            if refreshed:
                assert visiting.heap_image() == whole.heap_image()
                assert visiting.fixups == whole.fixups
                for index in range(len(PREDICATES)):
                    assert_streams_identical(
                        visiting.streams[index], whole.streams[index]
                    )
                assert_worlds_agree(oracle, visiting)
        assert visiting.visits > 0


#: Restrictions of the clustered-run worlds, one per cursor.
RUN_PREDICATES = ("v < 50", "v >= 20", "v < 80")
#: 48 seed rows fill six 256-byte pages of eight.
RUN_ROWS = 48


class _RunWorld:
    """A table of six full pages and up to three snapshots with page
    mirrors (and write-log marks), refreshed by group passes: the
    production pass (``how="loop"``), the same with the heap routine
    declining every page, so each is read whole (``"whole"``), or the
    per-row reference (``"rows"``).  Records which pages the run loop
    stamped."""

    def __init__(self, how, cursors, delta):
        self.db = Database(f"run-{how}", page_size=PAGE_SIZE)
        self.table = self.db.create_table("t", [("v", "int")], annotations="lazy")
        self.rids = [self.table.insert([(v * 7) % 100]) for v in range(RUN_ROWS)]
        assert self.table.heap.page_count == RUN_ROWS // ROWS_PER_PAGE
        self.stamped = []
        heap, stamp = self.table.heap, self.table.heap.stamp_named

        def stamping(page_no, *args):
            batch = stamp(page_no, *args) if how == "loop" else None
            if batch is not None:
                self.stamped.append(page_no)
            return batch

        heap.stamp_named = stamping
        refresher = RowGroupRefresher if how == "rows" else GroupRefresher
        self.refresher = refresher(self.table)
        self.count = cursors
        self.snap_times = [0] * cursors
        self.caches = [PageMirror() for _ in range(cursors)]
        self.values = [ValueCache() for _ in range(cursors)] if delta else None
        schema = Projection(self.table.schema).schema
        self.receivers = [
            SnapshotTable(Database(f"r{index}"), f"s{index}", schema)
            for index in range(cursors)
        ]
        #: Per refresh: which snapshots it served, what each receiver
        #: held before it, and what each was sent.
        self.refreshes = []

    def refresh(self, indices):
        sents = {index: [] for index in indices}
        cursors = [
            RefreshCursor(
                self.snap_times[index],
                Restriction.parse(RUN_PREDICATES[index], self.table.schema),
                Projection(self.table.schema),
                sents[index].append,
                cache=self.caches[index],
                optimize_deletes=True,
                name=f"s{index}",
                value_cache=self.values[index] if self.values else None,
            )
            for index in indices
        ]
        outcome = self.refresher.refresh_group(cursors)
        assert not outcome.errors
        held = {}
        for index, cursor in zip(indices, cursors):
            if self.values:
                self.values[index].commit()
            self.snap_times[index] = cursor.result.new_snap_time
            held[index] = self.receivers[index].as_map()
            for message in sents[index]:
                self.receivers[index].apply(message)
        self.refreshes.append((held, sents, outcome.pass_result))

    def records(self):
        return [
            {
                page_no: (
                    info.page_version,
                    info.first_prev,
                    list(info.qual_slots),
                    info.last_live,
                )
                for page_no, info in cache.items()
            }
            for cache in self.caches
        ]

    def summaries(self):
        summaries = self.table.heap.summaries
        return [
            [getattr(summary, name) for name in type(summary).__slots__]
            for summary in map(summaries.get, range(self.table.heap.page_count))
        ]


class TestStampedRuns:
    """Clustered updates in place — five or more on each of three
    consecutive pages — are a run the loop serves (``_visit_run``),
    stamping each page through the heap routine, with 1–3 cursors at
    distinct SnapTimes riding one pass.  What it leaves equals the
    same pass with every page read whole, byte for byte — stream,
    stamps, page records, summaries — and the per-row reference's but
    for Figure 9's superfluous messages; a delete just before the run
    has the run's first page read whole, and the loop takes up after."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        first=st.integers(min_value=1, max_value=3),
        picks=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=ROWS_PER_PAGE - 1),
                min_size=5,
                max_size=ROWS_PER_PAGE,
                unique=True,
            ),
            min_size=3,
            max_size=3,
        ),
        values=st.lists(
            st.integers(min_value=0, max_value=99),
            min_size=3 * ROWS_PER_PAGE,
            max_size=3 * ROWS_PER_PAGE,
        ),
        cursors=st.integers(min_value=1, max_value=len(RUN_PREDICATES)),
        dirty=st.booleans(),
        delta=st.booleans(),
    )
    def test_a_run_is_one_loop_and_leaves_what_whole_reads_leave(
        self, first, picks, values, cursors, delta, dirty
    ):
        worlds = [_RunWorld(how, cursors, delta) for how in ("loop", "whole", "rows")]
        loop, whole, rows = worlds
        for world in worlds:
            world.refresh(range(cursors))
            # Stagger the SnapTimes, writing page 0: snapshot 0 newest.
            for later in range(1, cursors):
                world.table.update(world.rids[later], {"v": later})
                world.refresh(range(cursors - later))
            if dirty:  # the last row before the run leaves
                world.table.delete(world.rids[first * ROWS_PER_PAGE - 1])
            for offset, slots in enumerate(picks):
                page_no = first + offset
                for slot_no in slots:
                    at = page_no * ROWS_PER_PAGE + slot_no
                    value = values[offset * ROWS_PER_PAGE + slot_no]
                    world.table.update(world.rids[at], {"v": value})
            world.stamped.clear()
            world.refresh(range(cursors))
        assert len(set(loop.snap_times[:cursors])) == 1
        run = range(first + dirty, first + 3)
        assert loop.stamped == list(run) and whole.stamped == []
        images = [list(world.table.heap.scan()) for world in worlds]
        assert images[0] == images[1] == images[2]
        assert loop.records() == whole.records() == rows.records()
        assert loop.summaries() == whole.summaries() == rows.summaries()
        for (held, sent, result), (_, same, other), (_, paper, reference) in zip(
            loop.refreshes, whole.refreshes, rows.refreshes
        ):
            assert (result.fixup_writes, result.deletions_detected) == (
                other.fixup_writes,
                other.deletions_detected,
            ) == (reference.fixup_writes, reference.deletions_detected)
            for index in sent:
                assert_streams_identical(sent[index], same[index])
                assert_mirror_subsequence(sent[index], paper[index], held[index])
        for index in range(cursors):
            restriction = Restriction.parse(RUN_PREDICATES[index], loop.table.schema)
            truth = {
                rid: row.values
                for rid, row in loop.table.scan(visible=True)
                if restriction(row)
            }
            for world in worlds:
                assert world.receivers[index].as_map() == truth


# -- written pages: the fix-up cases the batch path must get right ------------


def _page_rids(world, page_no):
    return [rid for rid in world.live if rid.page_no == page_no]


def _both():
    """A per-row and a batch world: lazy, summaries on, solo refreshes.

    Summaries on makes the batch world the mirrored one: what these
    cases pin is the fix-up (heap bytes, write counts), which the arming
    rule never touches, and that its stream is the per-row world's with
    nothing but superfluous messages missing."""
    return [
        _ScanWorld(batch, True, "lazy", False, False, False)
        for batch in (False, True)
    ]


class TestWrittenPages:
    """Deterministic boundary cases of fix-up on the batch's columns."""

    def test_every_scanned_page_is_batch_served(self):
        row, batch = _both()
        for world in (row, batch):
            world.refresh_one(0)
            world.table.update(world.live[3], {"v": 1})
            world.live.append(world.table.insert([2]))
        row_result = row.refresher.refresh(
            row.snap_times[0], row._restriction(0),
            Projection(row.table.schema), lambda message: None,
        )
        batch_result = batch.refresher.refresh(
            batch.snap_times[0], batch._restriction(0),
            Projection(batch.table.schema), lambda message: None,
        )
        assert row_result.pages_batch_decoded == 0
        assert batch_result.pages_scanned > 0
        assert batch_result.pages_batch_decoded == batch_result.pages_scanned
        assert batch_result.fixup_writes == row_result.fixup_writes == 2

    def test_trailing_pure_insert_repoints_next_pages_first_entry(self):
        row, batch = _both()
        for world in (row, batch):
            world.refresh_all()
            # Free the last slot of page 1, then reuse it: the insert is
            # the last entry of page 1 and page 2's first entry (whose
            # PrevAddr named the deleted record's predecessor chain)
            # must be repointed at it.
            victim = _page_rids(world, 1)[-1]
            world.table.delete(victim)
            world.live.remove(victim)
            world.refresh_all()
            reused = world.table.insert([5])
            assert reused == victim
            world.live.append(reused)
            world.refresh_all()
            first_of_next = min(
                _page_rids(world, 2), key=lambda rid: rid.slot_no
            )
            prev, ts = world.table.annotations(first_of_next)
            assert prev == reused and ts is not NULL
        assert_worlds_agree(row, batch)
        # The repoint is a write without a stamp: no anomaly detected.
        assert batch.fixups[-2:] == [(2, 0), (0, 0)]

    def test_anomaly_on_a_pages_first_entry(self):
        row, batch = _both()
        for world in (row, batch):
            world.refresh_all()
            victim = _page_rids(world, 1)[-1]
            world.table.delete(victim)
            world.live.remove(victim)
            world.refresh_all()
            first_of_next = min(
                _page_rids(world, 2), key=lambda rid: rid.slot_no
            )
            prev, _ = world.table.annotations(first_of_next)
            assert prev == _page_rids(world, 1)[-1]
        assert_worlds_agree(row, batch)
        assert batch.fixups[-2:] == [(1, 1), (0, 0)]

    def test_emptied_page_between_two_written_pages(self):
        row, batch = _both()
        for world in (row, batch):
            world.refresh_all()
            world.apply(("delete_page", 2, 0))
            assert not _page_rids(world, 2)
            world.table.update(_page_rids(world, 1)[0], {"v": 60})
            world.table.update(_page_rids(world, 3)[-1], {"v": 10})
            world.refresh_all()
            first_after = min(
                _page_rids(world, 3), key=lambda rid: rid.slot_no
            )
            prev, _ = world.table.annotations(first_after)
            assert prev == _page_rids(world, 1)[-1]
        assert_worlds_agree(row, batch)
        # Two stamps plus the anomaly repair at page 3's first entry.
        assert batch.fixups[-2:] == [(3, 1), (0, 0)]

    def test_three_cursors_one_fast_forwards_what_the_others_scan(self):
        """Different ``SnapTime``s on one pass.

        A page that needs a fix-up write is never skippable for anyone
        (NULL annotations or a boundary mismatch both veto the skip), so
        the mix is: the fresh cursor fast-forwards the pages the stale
        ones are served from the batch, and all three ride the fix-up of
        the page written since.
        """
        passes = []
        images = []
        for batch in (False, True):
            world = _ScanWorld(batch, True, "lazy", True, False, False)
            table = world.table
            schema = table.schema
            predicates = ("v < 50", "v >= 20", "v < 90")
            caches = [{} for _ in predicates]
            snap_times = [0, 0, 0]
            receivers = [
                SnapshotTable(
                    Database(f"three{index}"),
                    f"s{index}",
                    Projection(schema).schema,
                )
                for index in range(len(predicates))
            ]
            #: One ``(snapshot, held before, sent)`` per cursor per pass.
            served = []

            def refresh(indices):
                sents = [[] for _ in indices]
                group = [
                    RefreshCursor(
                        snap_times[index],
                        Restriction.parse(predicates[index], schema),
                        Projection(schema),
                        sent.append,
                        cache=caches[index],
                        name=f"s{index}",
                    )
                    for index, sent in zip(indices, sents)
                ]
                outcome = world.group_refresher.refresh_group(group)
                assert not outcome.errors
                for index, cursor, sent in zip(indices, group, sents):
                    snap_times[index] = cursor.result.new_snap_time
                    served.append((index, receivers[index].as_map(), sent))
                    for message in sent:
                        receivers[index].apply(message)
                return outcome, group

            refresh([0, 1, 2])
            table.update(_page_rids(world, 1)[2], {"v": 33})
            refresh([0])  # cursor 0 is now fresh for every page
            table.update(_page_rids(world, 3)[1], {"v": 44})
            outcome, group = refresh([0, 1, 2])
            fresh, stale_a, stale_b = (cursor.result for cursor in group)
            assert fresh.pages_fast_forwarded > stale_a.pages_fast_forwarded
            assert stale_a.pages_scanned == stale_b.pages_scanned >= 2
            assert fresh.pages_scanned == 1
            assert outcome.pass_result.fixup_writes == 1
            if batch:
                stats = outcome.pass_result
                assert stats.pages_batch_decoded == stats.pages_scanned
            passes.append(served)
            images.append(
                (world.heap_image(), [r.as_map() for r in receivers])
            )
        assert images[0] == images[1]
        # The batch cursors hold a page cache, so theirs is the paper's
        # stream with only superfluous messages left out.
        for (index, _, paper), (same, held, sent) in zip(*passes):
            assert index == same
            assert_mirror_subsequence(sent, paper, held)

    @pytest.mark.parametrize("batch", [False, True])
    def test_channel_failure_mid_page_still_completes_its_fix_up(self, batch):
        world = _ScanWorld(batch, False, "lazy", False, False, False)
        reference = _ScanWorld(False, False, "lazy", False, False, False)
        budget = [3]

        def dying(message):
            if not budget[0]:
                raise ChannelError("link down")
            budget[0] -= 1

        with pytest.raises(ChannelError):
            world.refresher.refresh(
                0, world._restriction(0), Projection(world.table.schema), dying
            )
        # The stream died on page 0 (every seed row is a NULL-annotated
        # insert, and > 3 of its 8 rows qualify), yet the page's fix-up
        # ran to its last entry — and no further.
        for rid in world.live:
            prev, ts = world.table.annotations(rid)
            if rid.page_no == 0:
                assert prev is not NULL and ts is not NULL
            else:
                assert prev is NULL and ts is NULL
        assert world.table.annotations(Rid(0, 0))[0] == Rid.BEGIN
        # A clean retry leaves exactly the annotations an undisturbed
        # per-row refresh leaves (only the stamp values differ in time).
        world.refresh_one(0)
        reference.refresh_one(0)
        for rid in world.live:
            prev, ts = world.table.annotations(rid)
            assert prev == reference.table.annotations(rid)[0]
            assert ts is not NULL
