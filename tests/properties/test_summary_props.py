"""Page-summary skipping must be invisible in the refresh stream.

Extension of the central invariant: after ANY op sequence interleaved
with refreshes, a refresher with page summaries enabled must produce the
*byte-identical* message stream of the full-scan baseline — not just an
equivalent snapshot — and both must equal re-evaluating the defining
query.  Byte-identity is the strong form: it proves skipping never
changes ``prev_qual`` ranges, fix-up stamps, or transmission order.

The two runs execute the same script on two separate databases (their
logical clocks advance identically), so every message repr — addresses,
timestamps, ranges — must match exactly.  Both run the per-row
reference (``core/per_row.py``), where a page cache is consulted for
skips alone; on the batch path it is also the address mirror, whose
arming rule leaves superfluous messages out (``test_batch_props``).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.per_row import RowRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.storage.summary import PageMirror

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "refresh"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=60,
)


def run_script(script, use_summaries, mode="lazy", cutoff=50, **flags):
    """Execute one script; return (streams, snapshot map, truth map)."""
    db = Database("prop")
    table = db.create_table("t", [("v", "int")], annotations=mode)
    restriction = Restriction.parse(f"v < {cutoff}", table.schema)
    projection = Projection(table.schema)
    snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
    refresher = RowRefresher(table, **flags)
    cache = PageMirror() if use_summaries else None
    snap_time = 0
    live = []
    for value in (5, 15, 25, 35, 45, 55, 65, 75, 85, 95):
        live.append(table.insert([value]))
    streams = []

    def refresh():
        nonlocal snap_time
        messages = []

        def deliver(message):
            messages.append(repr(message))
            snapshot.apply(message)

        result = refresher.refresh(
            snap_time, restriction, projection, deliver, cache=cache
        )
        snap_time = result.new_snap_time
        streams.append(messages)

    for op, index, value in script:
        if op == "insert":
            live.append(table.insert([value]))
        elif op == "update" and live:
            table.update(live[index % len(live)], {"v": value})
        elif op == "delete" and live:
            table.delete(live.pop(index % len(live)))
        elif op == "refresh":
            refresh()
    refresh()
    refresh()  # a quiescent pass: maximal skip opportunity
    truth = {
        rid: row.values
        for rid, row in table.scan(visible=True)
        if row.values[0] < cutoff
    }
    return streams, snapshot.as_map(), truth


def assert_equivalent(script, mode="lazy", cutoff=50, **flags):
    streams_on, map_on, truth_on = run_script(
        script, True, mode=mode, cutoff=cutoff, **flags
    )
    streams_off, map_off, truth_off = run_script(
        script, False, mode=mode, cutoff=cutoff, **flags
    )
    assert streams_on == streams_off
    assert map_on == truth_on
    assert map_off == truth_off
    assert map_on == map_off


class TestSummaryTransparency:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations)
    def test_lazy_mode(self, script):
        assert_equivalent(script)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations)
    def test_eager_mode(self, script):
        assert_equivalent(script, mode="eager")

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations)
    def test_optimized_variants(self, script):
        assert_equivalent(script, optimize_deletes=True)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=operations, cutoff=st.sampled_from([0, 1, 50, 99, 100]))
    def test_extreme_selectivities(self, script, cutoff):
        assert_equivalent(script, cutoff=cutoff)
