"""Cohort refresh: the fleet-scale byte-identity property.

The registry clusters due snapshots into cohorts
(:func:`~repro.core.cohort.cluster_due`) and a drained cohort rides one
shared-scan pass.  The invariant that makes cohort scheduling safe:
for ANY base-table history, every member of a drained cohort receives a
stream **byte-identical** to a solo
:class:`~repro.core.differential.DifferentialRefresher` run at the same
``SnapTime`` — across page summaries on/off and the columnar batch
path.  Clustering and draining decide only *which* members ride
*together*; never what any of them is sent.  The solo twin is the
per-row reference (``core/per_row.py``).  (One configuration compares
two arming rules rather than two schedules: a batch cohort pass *with*
page caches arms the ``Deletion`` flag from what each snapshot holds,
while the solo per-row twin runs the paper's rule — so there the
cohort stream is the solo one with superfluous messages left out, and
the snapshots are equal.)

Same twin-world shape as ``test_group_props``: replay one deterministic
history twice, end world A with ``next_cohort`` + a cohort pass and each
world B_i with member i's solo refresh.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cursor import RefreshCursor
from repro.core.group import GroupRefresher
from repro.core.per_row import RowGroupRefresher, RowRefresher
from repro.core.registry import SnapshotRegistry
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction

from tests.properties.test_wire_props import assert_mirror_subsequence

# Includes pairs that canonicalize to the same cohort signature
# ("v < 20" / "20 > v"), so clustering actually merges members.
PREDICATES = ("v < 20", "20 > v", "v >= 50", "v < 80 AND v >= 10")

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "refresh"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=40,
)


class _FleetWorld:
    """One replayable world: base table, N snapshots, a registry."""

    def __init__(self, summaries: bool, fleet_size: int) -> None:
        self.db = Database("prop-fleet")
        self.table = self.db.create_table("t", [("v", "int")], annotations="lazy")
        self.summaries = summaries
        self.projection = Projection(self.table.schema)
        self.restrictions = [
            Restriction.parse(PREDICATES[i % len(PREDICATES)], self.table.schema)
            for i in range(fleet_size)
        ]
        self.caches: "list[dict]" = [{} for _ in range(fleet_size)]
        self.snap_times = [0] * fleet_size
        self.receivers = [
            SnapshotTable(Database("remote"), f"s{i}", self.projection.schema)
            for i in range(fleet_size)
        ]
        self.registry = SnapshotRegistry(cohort_size=fleet_size)
        for i in range(fleet_size):
            self.registry.register(
                str(i), "t", every_ops=1, restriction=self.restrictions[i]
            )
        self.live = [self.table.insert([v]) for v in range(0, 100, 7)]
        self.registry.observe("t", len(self.live))

    def solo_refresh(self, index: int) -> "list[object]":
        messages: "list[object]" = []

        def deliver(message) -> None:
            messages.append(message)
            self.receivers[index].apply(message)

        result = RowRefresher(self.table).refresh(
            self.snap_times[index],
            self.restrictions[index],
            self.projection,
            deliver,
            cache=self.caches[index] if self.summaries else None,
        )
        self.snap_times[index] = result.new_snap_time
        self.registry.mark_refreshed(str(index), shipped=result.entries_sent)
        return messages

    def replay(self, script, fleet_size: int) -> None:
        for op, index, value in script:
            if op == "insert":
                self.live.append(self.table.insert([value]))
                self.registry.observe("t", 1)
            elif op == "update" and self.live:
                self.table.update(self.live[index % len(self.live)], {"v": value})
                self.registry.observe("t", 1)
            elif op == "delete" and self.live:
                self.table.delete(self.live.pop(index % len(self.live)))
                self.registry.observe("t", 1)
            elif op == "refresh":
                self.solo_refresh(index % fleet_size)

    def cohort_refresh(self, cohort, batch: bool):
        members = [int(name) for name in cohort.members]
        streams: "dict[int, list[object]]" = {i: [] for i in members}
        cursors = []
        for i in members:

            def deliver(message, i=i) -> None:
                streams[i].append(message)
                self.receivers[i].apply(message)

            cursors.append(
                RefreshCursor(
                    self.snap_times[i],
                    self.restrictions[i],
                    self.projection,
                    deliver,
                    cache=self.caches[i],
                    name=str(i),
                )
            )
        group = GroupRefresher if batch else RowGroupRefresher
        outcome = group(self.table).refresh_group(cursors)
        assert not outcome.errors
        for i in members:
            result = outcome.per_snapshot[str(i)]
            self.snap_times[i] = result.new_snap_time
            self.registry.mark_refreshed(str(i), shipped=result.entries_sent)
        return streams, outcome

    def truth(self, index: int) -> dict:
        restriction = self.restrictions[index]
        return {
            rid: row.values
            for rid, row in self.table.scan(visible=True)
            if restriction(row)
        }


def run_cohorts(script, summaries: bool, batch: bool, fleet_size: int):
    # World A: history, then take ONE cohort from the registry and ride
    # it on one shared pass.  (Only the first cohort is byte-compared:
    # its pass happens at the same clock position as world B's solo
    # refresh; later cohorts advance the clock past the twin worlds.)
    world = _FleetWorld(summaries, fleet_size)
    world.replay(script, fleet_size)
    cohort = world.registry.next_cohort()
    if cohort is None:
        return
    # Cohort invariants: one base table, members taken exactly once.
    assert cohort.key.base_table == "t"
    assert len(set(cohort.members)) == len(cohort.members)
    held = [receiver.as_map() for receiver in world.receivers]
    cohort_streams, _ = world.cohort_refresh(cohort, batch)

    for i in sorted(cohort_streams):
        # World B_i: identical history, then member i refreshed solo by
        # the per-row reference.
        solo = _FleetWorld(summaries, fleet_size)
        solo.replay(script, fleet_size)
        solo_stream = solo.solo_refresh(i)

        if summaries and batch:
            # The cohort pass holds address mirrors; the solo twin
            # (per-row) is the paper's rule.
            assert_mirror_subsequence(cohort_streams[i], solo_stream, held[i])
        else:
            assert [repr(m) for m in cohort_streams[i]] == [
                repr(m) for m in solo_stream
            ], f"member {i} diverged (summaries={summaries}, batch={batch})"
            assert sum(m.wire_size() for m in cohort_streams[i]) == sum(
                m.wire_size() for m in solo_stream
            )
        assert world.receivers[i].as_map() == world.truth(i)
        assert solo.receivers[i].as_map() == solo.truth(i)
        assert world.receivers[i].as_map() == solo.receivers[i].as_map()

    # And the loop drains: every due member is eventually served.
    while True:
        cohort = world.registry.next_cohort()
        if cohort is None:
            break
        world.cohort_refresh(cohort, batch)
    assert world.registry.due() == []


class TestCohortByteIdentity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 4))
    def test_summaries_on(self, script, fleet_size):
        run_cohorts(script, True, False, fleet_size)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 4))
    def test_batch_path(self, script, fleet_size):
        run_cohorts(script, False, True, fleet_size)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, fleet_size=st.integers(2, 4))
    def test_batch_summaries(self, script, fleet_size):
        run_cohorts(script, True, True, fleet_size)


class TestCanonicalSignaturesCluster:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations)
    def test_equivalent_predicates_share_a_cohort(self, script):
        """"v < 20" and "20 > v" canonicalize to one signature, so when
        both are due at the same band the registry takes them as ONE
        cohort (one shared pass instead of two)."""
        world = _FleetWorld(False, 2)
        world.replay(script, 2)
        assert (
            world.restrictions[0].signature == world.restrictions[1].signature
        )
        due = {r.name for r in world.registry.due("t")}
        if due == {"0", "1"}:
            bands = {world.registry.record(n).band for n in due}
            if len(bands) == 1:
                cohort = world.registry.next_cohort()
                assert sorted(cohort.members) == ["0", "1"]
                world.cohort_refresh(cohort, False)
