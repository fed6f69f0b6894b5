"""Writer-concurrent chunked refresh: the convergence property.

Two invariants of :func:`~repro.core.differential.run_refresh_scan`
under a :class:`~repro.core.differential.ScanPlan`:

1. **Quiescent byte-identity** — with no writer at the boundaries, the
   chunked scan's output stream is byte-for-byte the monolithic scan's,
   for ANY base history, page summaries on or off, the batch path or
   the per-row reference, solo or group.
2. **Racing-writer convergence** — with ANY committed writes applied at
   ANY chunk boundaries and in the window after the seal
   (:meth:`~repro.core.differential.ScanPlan.after_seal`), the committed
   receiver state equals the restriction of the base table AS OF THE
   SEAL (what a quiescent refresh after the last boundary's writes
   would produce), across the same configurations; one plain refresh
   later it equals the restriction of the final base table.  *Nothing
   is sent twice*: a plain refresh after that sends no entry and writes
   no annotation.  *The repair section is minimal*: where the cursor
   mirrors the snapshot's addresses, every message between
   ``EndOfScan`` and ``SnapTime`` is a point upsert or delete of an
   address a writer wrote, in a window, on a page the scan had already
   passed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cursor import RefreshCursor
from repro.core.differential import DifferentialRefresher, ScanPlan
from repro.core.group import GroupRefresher
from repro.core.messages import (
    DeleteMessage,
    EndOfScanMessage,
    SnapTimeMessage,
    UpsertMessage,
)
from repro.core.per_row import RowRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import PageFullError
from repro.expr.predicate import Projection, Restriction
from repro.relation.row import Row, encode_row
from repro.relation.types import NULL
from repro.storage.rid import Rid

PREDICATE = "v < 50"
GROUP_PREDICATES = ("v < 50", "v >= 20")

#: 512-byte pages hold 17 of the 25-byte ``(v, PrevAddr, TimeStamp)``
#: records: the 67 starting rows span 4 pages, so a scan in chunks of
#: 1-3 pages has boundaries for writers to land at.
PAGE_SIZE = 512


def _scripts(kinds):
    """Scripts of mutations: (op, target index, value)."""
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=40,
    )


mutations = _scripts(["insert", "update", "delete"])
#: What writers do in a window: the same, or ``tail`` — delete the last
#: live row of the last page scanned, or insert one just past it: the
#: writes a chunk setting out from a stale boundary state misread.
window_mutations = _scripts(["insert", "update", "delete", "tail"])


class _World:
    def __init__(self, name: str, summaries: bool, batch: bool) -> None:
        self.db = Database(name, page_size=PAGE_SIZE)
        self.table = self.db.create_table(
            "t", [("v", "int")], annotations="lazy"
        )
        self.summaries = summaries
        self.batch = batch
        self.projection = Projection(self.table.schema)
        self.restriction = Restriction.parse(PREDICATE, self.table.schema)
        refresher = DifferentialRefresher if batch else RowRefresher
        self.refresher = refresher(self.table)
        self.cache: dict = {}
        self.snap_time = 0
        self.receiver = SnapshotTable(
            Database(name + "-site"), "s", self.projection.schema
        )
        self.live = [self.table.insert([v]) for v in range(0, 200, 3)]
        assert self.table.heap.page_count >= 4

    def apply_op(self, op):
        """Apply one mutation; returns the address it wrote, if any."""
        kind, index, value = op
        rid = None
        if kind == "insert":
            rid = self.table.insert([value])
            self.live.append(rid)
        elif kind == "update" and self.live:
            rid = self.live[index % len(self.live)]
            self.table.update(rid, {"v": value})
        elif kind == "delete" and self.live:
            rid = self.live.pop(index % len(self.live))
            self.table.delete(rid)
        return rid

    def write_tail(self, page_no: int, value: int):
        """Delete the last live row of ``page_no`` (``value`` even) or
        insert one at the slot after it; returns the address written."""
        on_page = [rid for rid in self.live if rid.page_no == page_no]
        tail = max(on_page, default=None)
        if value % 2 == 0 and tail is not None:
            self.live.remove(tail)
            self.table.delete(tail)
            return tail
        rid = Rid(page_no, tail.slot_no + 1 if tail is not None else 0)
        body = encode_row(self.table.schema, Row([value, NULL, NULL]))
        try:
            self.table.insert_record(body, rid)
        except PageFullError:
            return None
        self.live.append(rid)
        return rid

    def refresh(self, chunked: bool, boundary=None, chunk_pages: int = 1):
        messages: "list[object]" = []

        def deliver(message) -> None:
            messages.append(message)
            self.receiver.apply(message)

        result = self.refresher.refresh(
            self.snap_time,
            self.restriction,
            self.projection,
            deliver,
            cache=self.cache if self.summaries else None,
            plan=ScanPlan(chunk_pages, boundary) if chunked else None,
        )
        self.snap_time = result.new_snap_time
        return messages, result

    def truth(self) -> dict:
        return {
            rid: row.values
            for rid, row in self.table.scan(visible=True)
            if self.restriction(row)
        }


def _configs():
    return [(False, False), (True, False), (False, True), (True, True)]


class TestQuiescentByteIdentity:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=mutations, chunk_pages=st.integers(1, 3))
    def test_chunked_stream_equals_monolithic(self, script, chunk_pages):
        for summaries, batch in _configs():
            chunked = _World("prop-oc", summaries, batch)
            for op in script:
                chunked.apply_op(op)
            chunked_stream, result = chunked.refresh(
                True, chunk_pages=chunk_pages
            )
            assert result.interleaved_writes == 0
            assert result.pages_repaired == 0

            mono = _World("prop-om", summaries, batch)
            for op in script:
                mono.apply_op(op)
            mono_stream, _ = mono.refresh(False)

            assert [repr(m) for m in chunked_stream] == [
                repr(m) for m in mono_stream
            ], f"streams diverged (summaries={summaries}, batch={batch})"
            assert sum(m.wire_size() for m in chunked_stream) == sum(
                m.wire_size() for m in mono_stream
            )
            assert chunked.receiver.as_map() == chunked.truth()


class TestRacingWriterConvergence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        prefix=mutations,
        interleaved=window_mutations,
        chunk_pages=st.integers(1, 2),
    )
    def test_converges_to_final_base(self, prefix, interleaved, chunk_pages):
        for summaries, batch in _configs():
            world = _World("prop-or", summaries, batch)
            for op in prefix:
                world.apply_op(op)
            world.refresh(False)  # an initial population pass
            for op in prefix[::2]:
                world.apply_op(op)
            queue = list(interleaved)
            behind: set = set()  # written on a page the scan had passed
            sealed: list = []  # the base as each window opened

            def writer(
                chunk, world=world, queue=queue, behind=behind, sealed=sealed
            ) -> None:
                # A committed writer burst at every chunk boundary, and
                # in the window after the seal (the scan's end).
                sealed.append(world.truth())
                front = min(chunk * chunk_pages, world.table.heap.page_count)
                for op in queue[:3]:
                    if op[0] == "tail":
                        rid = world.write_tail(front - 1, op[2])
                    else:
                        rid = world.apply_op(op)
                    if rid is not None and rid.page_no < front:
                        behind.add(rid)
                del queue[:3]

            stream, _ = world.refresh(
                True, boundary=writer, chunk_pages=chunk_pages
            )
            config = f"(summaries={summaries}, batch={batch})"
            assert world.receiver.as_map() == sealed[-1], (
                f"diverged {config}"
            )
            # A pass that runs without summaries keeps no page records,
            # its repair included: later scans would not maintain them.
            assert summaries or not world.cache, f"recorded {config}"
            if summaries:
                kinds = [type(message) for message in stream]
                repairs = stream[
                    kinds.index(EndOfScanMessage) + 1 : kinds.index(
                        SnapTimeMessage
                    )
                ]
                assert all(
                    isinstance(message, (UpsertMessage, DeleteMessage))
                    and message.addr in behind
                    for message in repairs
                ), f"superfluous repair {config}: {repairs} vs {behind}"

            # The writes after the seal are the next refresh's.
            world.refresh(False)
            assert world.receiver.as_map() == world.truth(), (
                f"missed a write after the seal {config}"
            )
            # Nothing is sent twice: what the passes published they also
            # chained and stamped, at a time no later than their SnapTime.
            _, again = world.refresh(False)
            assert again.entries_sent == 0, f"sent twice {config}"
            assert again.fixup_writes == 0, f"left unstamped {config}"

            # The next (quiescent) refresh must also be exact: the
            # chunked pass may not corrupt annotations or caches.
            for op in queue[:5]:
                world.apply_op(op)
            world.refresh(False)
            assert world.receiver.as_map() == world.truth()


class TestGroupChunked:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(prefix=mutations, interleaved=mutations)
    def test_group_pass_converges_every_cursor(self, prefix, interleaved):
        db = Database("prop-og", page_size=PAGE_SIZE)
        table = db.create_table("t", [("v", "int")], annotations="lazy")
        projection = Projection(table.schema)
        restrictions = [
            Restriction.parse(p, table.schema) for p in GROUP_PREDICATES
        ]
        receivers = [
            SnapshotTable(Database(f"site{i}"), f"s{i}", projection.schema)
            for i in range(len(restrictions))
        ]
        live = [table.insert([v]) for v in range(0, 200, 3)]

        def apply_op(op) -> None:
            kind, index, value = op
            if kind == "insert":
                live.append(table.insert([value]))
            elif kind == "update" and live:
                table.update(live[index % len(live)], {"v": value})
            elif kind == "delete" and live:
                table.delete(live.pop(index % len(live)))

        for op in prefix:
            apply_op(op)

        cursors = []
        for i, restriction in enumerate(restrictions):

            def deliver(message, i=i) -> None:
                receivers[i].apply(message)

            cursors.append(
                RefreshCursor(0, restriction, projection, deliver, name=str(i))
            )
        queue = list(interleaved)
        sealed: list = []  # the base as each window opened

        def writer(chunk) -> None:
            sealed.append(list(table.scan(visible=True)))
            for op in queue[:3]:
                apply_op(op)
            del queue[:3]

        def assert_published(rows) -> None:
            for i, restriction in enumerate(restrictions):
                want = {rid: row.values for rid, row in rows if restriction(row)}
                assert receivers[i].as_map() == want, f"cursor {i} diverged"

        def plain_pass(last):
            """A pass without a plan from the SnapTimes ``last`` left."""
            outcome = GroupRefresher(table).refresh_group(
                [
                    RefreshCursor(
                        last.per_snapshot[str(i)].new_snap_time,
                        restriction,
                        projection,
                        receivers[i].apply,
                        name=str(i),
                    )
                    for i, restriction in enumerate(restrictions)
                ]
            )
            assert not outcome.errors
            return outcome

        outcome = GroupRefresher(table).refresh_group(
            cursors, plan=ScanPlan(1, writer)
        )
        assert not outcome.errors
        # The pass's cut is the seal; the next pass publishes the rest.
        assert_published(sealed[-1])
        caught_up = plain_pass(outcome)
        assert_published(list(table.scan(visible=True)))

        # Nothing is sent twice: a plain pass from the new SnapTimes.
        again = plain_pass(caught_up)
        assert again.pass_result.fixup_writes == 0
        assert again.pass_result.entries_sent == 0
