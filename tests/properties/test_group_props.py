"""Shared-scan group refresh: the byte-identity property.

The invariant that makes :class:`~repro.core.group.GroupRefresher` safe
to ship: for ANY base-table history and ANY set of snapshots with
different predicates and staleness, every per-snapshot output stream of
one shared pass is **byte-identical** to a solo
:class:`~repro.core.differential.DifferentialRefresher` run at the same
``SnapTime`` — messages and wire bytes, page summaries on and off,
fix-up lazy and eager.  Both sides always run the *same* arming rule:
the per-row reference (``core/per_row.py``) everywhere (the paper's
rule, no cache consulted for it), or the production batch path with
page caches on both (the address mirror's rule on both), so nothing
here compares a mirror-holding world with a paper-rule one and every
comparison is byte for byte.

The check replays the same deterministic history twice: once ending in
a group pass, and once per snapshot ending in that snapshot's solo
refresh.  Interleaved solo refreshes of individual snapshots during the
history spread the fleet's ``SnapTime``s apart, which is exactly the
regime partial page skipping has to survive (a page skippable for the
fresh cursors but not the stale one).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cursor import RefreshCursor
from repro.core.differential import DifferentialRefresher
from repro.core.group import GroupRefresher
from repro.core.per_row import RowGroupRefresher, RowRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction

PREDICATES = ("v < 20", "v < 50", "v >= 50", "v < 80", "v >= 10")

# Each element: (op, index, value); `refresh` solo-refreshes snapshot
# `index % fleet_size`, giving every snapshot its own staleness.
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "refresh"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=50,
)


class _Fleet:
    """One replayable world: a base table plus N snapshot cursors."""

    def __init__(
        self, mode: str, summaries: bool, fleet_size: int, batch: bool = False
    ) -> None:
        self.db = Database("prop-group")
        self.table = self.db.create_table(
            "t", [("v", "int")], annotations=mode
        )
        self.summaries = summaries
        self.batch = batch
        self.projection = Projection(self.table.schema)
        self.restrictions = [
            Restriction.parse(PREDICATES[i], self.table.schema)
            for i in range(fleet_size)
        ]
        solo = DifferentialRefresher if batch else RowRefresher
        self.refreshers = [solo(self.table) for _ in range(fleet_size)]
        self.caches: "list[dict]" = [{} for _ in range(fleet_size)]
        self.snap_times = [0] * fleet_size
        self.receivers = [
            SnapshotTable(Database("remote"), f"s{i}", self.projection.schema)
            for i in range(fleet_size)
        ]
        self.live = [self.table.insert([v]) for v in range(0, 100, 7)]

    def solo_refresh(self, index: int) -> "list[object]":
        messages: "list[object]" = []

        def deliver(message) -> None:
            messages.append(message)
            self.receivers[index].apply(message)

        result = self.refreshers[index].refresh(
            self.snap_times[index],
            self.restrictions[index],
            self.projection,
            deliver,
            cache=self.caches[index] if self.summaries else None,
        )
        self.snap_times[index] = result.new_snap_time
        return messages

    def replay(self, script, fleet_size: int) -> None:
        for op, index, value in script:
            if op == "insert":
                self.live.append(self.table.insert([value]))
            elif op == "update" and self.live:
                self.table.update(
                    self.live[index % len(self.live)], {"v": value}
                )
            elif op == "delete" and self.live:
                self.table.delete(self.live.pop(index % len(self.live)))
            elif op == "refresh":
                self.solo_refresh(index % fleet_size)

    def group_refresh(self):
        streams: "list[list[object]]" = [[] for _ in self.restrictions]
        cursors = []
        for i in range(len(self.restrictions)):

            def deliver(message, i=i) -> None:
                streams[i].append(message)
                self.receivers[i].apply(message)

            cursors.append(
                RefreshCursor(
                    self.snap_times[i],
                    self.restrictions[i],
                    self.projection,
                    deliver,
                    cache=self.caches[i] if self.summaries else None,
                    name=str(i),
                )
            )
        group = GroupRefresher if self.batch else RowGroupRefresher
        outcome = group(self.table).refresh_group(cursors)
        assert not outcome.errors
        for i in range(len(self.restrictions)):
            self.snap_times[i] = outcome.per_snapshot[str(i)].new_snap_time
        return streams, outcome

    def truth(self, index: int) -> dict:
        restriction = self.restrictions[index]
        return {
            rid: row.values
            for rid, row in self.table.scan(visible=True)
            if restriction(row)
        }


def run_fleet(
    script, mode: str, summaries: bool, fleet_size: int, batch: bool = False
) -> None:
    # World A: history, then ONE shared pass over the whole fleet.
    grouped = _Fleet(mode, summaries, fleet_size, batch)
    grouped.replay(script, fleet_size)
    group_streams, outcome = grouped.group_refresh()
    assert outcome.pass_result.group_cursors == fleet_size

    for i in range(fleet_size):
        # World B_i: the identical history, then a solo refresh of
        # snapshot i alone — same base state, same clock, so the solo
        # stream is what snapshot i would have received independently.
        solo = _Fleet(mode, summaries, fleet_size, batch)
        solo.replay(script, fleet_size)
        solo_stream = solo.solo_refresh(i)

        assert [repr(m) for m in group_streams[i]] == [
            repr(m) for m in solo_stream
        ], (
            f"snapshot {i} stream diverged "
            f"(mode={mode}, summaries={summaries}, batch={batch})"
        )
        assert sum(m.wire_size() for m in group_streams[i]) == sum(
            m.wire_size() for m in solo_stream
        )
        # And the applied contents equal re-evaluating the query.
        assert grouped.receivers[i].as_map() == grouped.truth(i)
        assert solo.receivers[i].as_map() == solo.truth(i)


class TestGroupByteIdentity:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 5))
    def test_lazy_summaries_on(self, script, fleet_size):
        run_fleet(script, "lazy", True, fleet_size)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 5))
    def test_lazy_summaries_on_mirrored_both_sides(self, script, fleet_size):
        """The batch path and page caches in both worlds: the group pass
        arms each cursor's flag from its own mirror exactly as its solo
        pass would."""
        run_fleet(script, "lazy", True, fleet_size, batch=True)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 5))
    def test_lazy_summaries_off(self, script, fleet_size):
        run_fleet(script, "lazy", False, fleet_size)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 4))
    def test_eager_summaries_on(self, script, fleet_size):
        run_fleet(script, "eager", True, fleet_size)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 4))
    def test_eager_summaries_off(self, script, fleet_size):
        run_fleet(script, "eager", False, fleet_size)


class TestGroupSharedCosts:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations)
    def test_decode_once(self, script):
        """The pass decodes each entry once however many cursors ride."""
        fleet = _Fleet("lazy", False, 4)
        fleet.replay(script, 4)
        _, outcome = fleet.group_refresh()
        stats = outcome.pass_result
        # 4 cursors, no summaries, so no cursor holds a record of any
        # page: every decoded entry is evaluated for each cursor (the
        # paper's rule), and never decoded again.
        assert stats.entries_evaluated == 4 * stats.rows_decoded
        assert stats.scanned == stats.rows_decoded

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations)
    def test_quiet_group_repeat_sends_nothing(self, script):
        """A second group pass with no activity ships zero entries."""
        fleet = _Fleet("lazy", True, 3)
        fleet.replay(script, 3)
        fleet.group_refresh()
        streams, outcome = fleet.group_refresh()
        for i, result in outcome.per_snapshot.items():
            assert result.entries_sent == 0, i
        assert outcome.pass_result.fixup_writes == 0
