"""Writer-concurrent (chunked watermark) refresh through the manager.

The contract under test: ``refresh_online`` commits receiver state
identical to what a quiescent ``refresh`` of the *final* base table
would produce, no matter what committed writes interleave at chunk
boundaries — and with no interleaving, the emitted stream is
byte-for-byte the monolithic scan's.
"""

import pytest

from repro.core.manager import SnapshotManager
from repro.database import Database
from repro.errors import RefreshMethodError, SnapshotError


def build(n_rows=2000, **manager_kwargs):
    db = Database("hq", buffer_capacity=64)
    table = db.create_table("emp", [("name", "string"), ("salary", "int")])
    table.bulk_load([[f"e{i}", i % 20] for i in range(n_rows)])
    manager = SnapshotManager(db, **manager_kwargs)
    snap = manager.create_snapshot(
        "low", "emp", where="salary < 10", method="differential"
    )
    manager.refresh("low")
    return db, table, manager, snap


def truth(table):
    return {
        rid: (row[0], row[1])
        for rid, row in table.scan()
        if row[1] < 10
    }


def contents(snap):
    return {
        addr: tuple(values)[:2]
        for addr, values in snap.table.as_map().items()
    }


class TestQuiescent:
    def test_matches_truth(self):
        db, table, manager, snap = build()
        rids = list(table.heap.scan_rids())
        table.update(rids[3], {"salary": 5})
        table.delete(rids[7])
        table.insert(["n1", 2])
        result = manager.refresh_online("low", chunk_pages=2)
        assert result.chunks_scanned > 1
        assert result.interleaved_writes == 0
        assert result.pages_repaired == 0
        assert contents(snap) == truth(table)

    def test_stream_identical_to_monolithic(self):
        """Same history in two worlds: chunked == monolithic, byte-wise."""
        streams = {}
        for mode in ("chunked", "monolithic"):
            db, table, manager, snap = build(n_rows=600)
            rids = list(table.heap.scan_rids())
            table.update(rids[5], {"salary": 1})
            table.delete(rids[50])
            captured = []
            original = snap.table.apply

            def apply(message, _captured=captured, _original=original):
                _captured.append(message)
                _original(message)

            snap.table.apply = apply
            if mode == "chunked":
                manager.refresh_online("low", chunk_pages=1)
            else:
                manager.refresh("low")
            streams[mode] = captured
        chunked, monolithic = streams["chunked"], streams["monolithic"]
        assert [repr(m) for m in chunked] == [repr(m) for m in monolithic]
        assert sum(m.wire_size() for m in chunked) == sum(
            m.wire_size() for m in monolithic
        )


class TestRacingWriter:
    def test_boundary_writes_are_merged(self):
        db, table, manager, snap = build()
        counter = [0]

        def writer(chunk):
            table.insert([f"w{counter[0]}", 3])
            counter[0] += 1
            rids = list(table.heap.scan_rids())
            table.update(rids[0], {"salary": (counter[0] * 7) % 20})
            table.delete(rids[len(rids) // 2])

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert counter[0] > 0  # the writer actually ran
        assert result.interleaved_writes > 0
        assert contents(snap) == truth(table)

    def test_lock_released_at_boundaries(self):
        db, table, manager, snap = build()
        windows = []

        def writer(chunk):
            # At a boundary the refresh must genuinely hold no lock on
            # the base table, or a real writer could never commit here.
            holders = db.locks.holders(("table", "emp"))
            windows.append(chunk)
            assert not any(
                owner == ("refresh", "low") for owner, _ in holders
            )

        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=writer)
        assert windows

    def test_repaired_pages_counted(self):
        db, table, manager, snap = build()
        scanned_rids = list(table.heap.scan_rids())

        def writer(chunk):
            # Dirty a page the scan has already passed.
            table.update(scanned_rids[0], {"salary": chunk % 20})

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired >= 1
        assert contents(snap) == truth(table)

    def test_repairs_decode_only_qualifiers_once_for_all_cursors(
        self, monkeypatch
    ):
        """Repair rows come from the page's batch, shared by the pass."""
        import repro.core.differential as differential
        import repro.storage.batch as batch_module
        from repro.core.differential import RefreshCursor, ScanPlan
        from repro.core.group import GroupRefresher
        from repro.core.messages import EntryMessage, UpsertMessage
        from repro.expr.predicate import Projection, Restriction

        db = Database("hq")
        table = db.create_table(
            "emp", [("name", "string"), ("salary", "int")], annotations="lazy"
        )
        table.bulk_load([[f"e{i}", i % 20] for i in range(900)])
        assert table.heap.page_count >= 4
        scanned_rids = list(table.heap.scan_rids())
        projection = Projection(table.schema)
        sents = [[], [], []]
        cursors = [
            RefreshCursor(
                0,
                Restriction.parse(where, table.schema),
                projection,
                sents[index].append,
                name=f"s{index}",
            )
            for index, where in enumerate(
                ("salary < 10", "salary < 10", "salary >= 18")
            )
        ]

        def writer(chunk):
            if chunk == 1:  # dirty page 0, which every cursor has passed
                table.update(scanned_rids[0], {"salary": 3})

        decodes = []
        for module in (differential, batch_module):
            original = module.decode_row

            def counting(schema, body, _original=original):
                decodes.append(body)
                return _original(schema, body)

            monkeypatch.setattr(module, "decode_row", counting)

        outcome = GroupRefresher(table).refresh_group(
            cursors, plan=ScanPlan(1, writer)
        )
        assert not outcome.errors
        assert outcome.pass_result.pages_repaired == 1
        upserts = [
            [m for m in sent if isinstance(m, UpsertMessage)] for sent in sents
        ]
        assert upserts[0] and upserts[2]
        assert [repr(m) for m in upserts[0]] == [repr(m) for m in upserts[1]]
        repaired = {m.addr for sent in upserts for m in sent}
        # The scan itself runs per row here (batch_mode off) and decodes
        # a full row per transmitted entry: one per qualifier of any
        # cursor.  The repair adds one decode per *distinct* repaired
        # row — not one per row of the dirty page per cursor.
        transmitted = {
            m.addr
            for sent in sents
            for m in sent
            if isinstance(m, EntryMessage)
        }
        assert len(decodes) == len(transmitted) + len(repaired)

    def test_followup_refresh_heals_interleaved_annotations(self):
        """Interleaved inserts leave NULL annotations; the next pass fixes."""
        db, table, manager, snap = build()

        def writer(chunk):
            table.insert([f"late{chunk}", 4])

        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=writer)
        assert contents(snap) == truth(table)
        table.update(list(table.heap.scan_rids())[1], {"salary": 2})
        manager.refresh("low")
        assert contents(snap) == truth(table)

    def test_inserts_extending_heap_are_scanned(self):
        db, table, manager, snap = build(n_rows=300)

        def writer(chunk):
            for i in range(40):  # enough to append fresh pages
                table.insert([f"grow{chunk}-{i}", 1])

        manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=writer)
        assert contents(snap) == truth(table)


#: Configurations where Figure 3's own arming rule still runs — no page
#: cache to mirror the snapshot's addresses, or the per-row scan — and a
#: row published outside the scan (by the online repair here, by a resync
#: in ``test_antientropy.py``) can therefore not be taken back.
PAPER_RULE = pytest.mark.xfail(
    strict=True,
    reason="a publish outside the scan leaves an un-anchored insert; "
    "without the address mirror its later delete is undetectable "
    "(ROADMAP 1: the repair should run Figure 7 on what it publishes)",
)


def configs(*paper_rule_marks):
    """Manager kwargs: the defaults, and the two paper-rule twins."""
    return [
        pytest.param({}, id="mirrored"),
        pytest.param(
            {"use_page_summaries": False},
            id="no-summaries",
            marks=paper_rule_marks,
        ),
        pytest.param(
            {"batch_mode": False}, id="per-row", marks=paper_rule_marks
        ),
    ]


class TestRepairPublishes:
    """What a repair publishes, a later refresh must be able to retract.

    ``repair_page`` upserts rows the scan never chained: an insert it
    publishes has a NULL ``PrevAddr``, so no successor ever pointed at
    it and Figure 7 sees no anomaly when it goes.  The cursor's page
    cache records the repaired page's addresses, and the next refresh
    arms its ``Deletion`` flag from that.
    """

    @pytest.mark.parametrize("config", configs(PAPER_RULE))
    def test_repaired_insert_deleted_before_the_next_refresh(self, config):
        db, table, manager, snap = build(**config)
        rids = list(table.heap.scan_rids())
        table.delete(rids[5])
        manager.refresh("low")
        late = []

        def writer(chunk):
            if chunk == 2:  # first-fit: into the hole on page 0, scanned
                late.append(table.insert(["late", 3]))

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert late == [rids[5]] and result.pages_repaired == 1
        assert contents(snap) == truth(table)
        table.delete(late[0])
        manager.refresh("low")
        assert late[0] not in contents(snap)
        assert contents(snap) == truth(table)

    @pytest.mark.parametrize("config", configs())
    def test_repaired_qualifier_updated_out_before_the_next_refresh(
        self, config
    ):
        """The mirror's own hazard: the row did not qualify when its
        chunk was scanned, an in-window update made it qualify (the
        repair published it), a later update takes it out again.  Only
        the repair knows the snapshot ever held it."""
        db, table, manager, snap = build(**config)
        rids = list(table.heap.scan_rids())
        victim = rids[15]  # salary 15: not in the snapshot
        assert victim.page_no == 0 and victim not in contents(snap)

        def writer(chunk):
            if chunk == 2:
                table.update(victim, {"salary": 3})

        result = manager.refresh_online(
            "low", chunk_pages=1, on_chunk_boundary=writer
        )
        assert result.pages_repaired == 1 and victim in contents(snap)
        table.update(victim, {"salary": 15})
        manager.refresh("low")
        assert victim not in contents(snap)
        assert contents(snap) == truth(table)
        assert manager.refresh("low").entries_sent == 0


class TestValidation:
    def test_chunk_pages_must_be_positive(self):
        db, table, manager, snap = build(n_rows=100)
        with pytest.raises(RefreshMethodError, match="chunk_pages"):
            manager.refresh_online("low", chunk_pages=0)

    def test_requires_differential_method(self):
        db = Database("hq")
        table = db.create_table("t", [("v", "int")])
        table.bulk_load([[i] for i in range(20)])
        manager = SnapshotManager(db)
        manager.create_snapshot("f", "t", method="full")
        with pytest.raises(SnapshotError, match="differential"):
            manager.refresh_online("f")

    def test_lock_not_leaked_on_error(self):
        db, table, manager, snap = build(n_rows=600)

        def boom(chunk):
            raise RuntimeError("writer exploded")

        with pytest.raises(RuntimeError):
            manager.refresh_online("low", chunk_pages=1, on_chunk_boundary=boom)
        # The refresh's lock must be gone; conflicts raise immediately in
        # this lock manager, so a fresh refresh succeeding proves it.
        manager.refresh("low")
        assert contents(snap) == truth(table)
