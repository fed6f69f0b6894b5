"""A17 — columnar batch hot path: batch codec and batch scan vs per-row.

PR 6 rewrites the two inner loops that dominated profiles: the wire
codec decodes a whole frame through one generated flat-cursor pass
(``net/wirebatch.py``) instead of one ``_decode_one`` call per message,
and the refresh scan serves pages from a columnar
:class:`~repro.storage.batch.PageBatch` instead of decoding a
``_LazyEntry`` per record.  Both rewrites are pinned byte-identical to
the per-row reference paths by hypothesis properties; this bench
measures what the identity tests cannot — that the batch paths are
actually *faster*:

- **codec**: encode/decode throughput of ``encode_frame``/``decode_frame``
  against the reference ``encode_frame_per_message``/
  ``decode_frame_per_message`` over the A16 synthetic entry stream
  (same machine, same process, so the ratio is hardware-independent);
- **scan**: refresh rows/s of the batch path against the per-row
  reference (``core/per_row.py``) over a
  clustered-update workload on an eager-annotated table with page
  summaries off, asserting the message streams agree round for round.
  Each page is read whole in both modes, so the ratio is extraction
  and the columnar Figure-3 test against per-record decoding;
- **written pages**: the same comparison where it used to be lost — a
  *lazy* table with 1 % uniform churn between refreshes and page
  summaries on, so every page the scan reads carries NULL annotations
  and needs the Figure-7 fix-up.  Since PR 14 the fix-up runs on the
  batch's annotation columns, so these pages are batch-served too.
  The churn is *structural* — each round deletes rows, inserts rows
  (first-fit, so into the holes) and updates their neighbours —
  because since PR 17 a page that took nothing but in-place updates
  never reaches the fix-up walk: it is a changed-slot visit (the cell
  below times those), and neither does a page whose only structural
  changes are deletes and inserts its summary names.  So
  each round also undoes a delete (a transaction deletes the updated
  neighbour and aborts): the undo puts the record back in its slot,
  which the page summary cannot name, and the page is read whole.
  The cell asserts that most pages it timed did take the batch
  fix-up.  With summaries on the batch refresher's page
  cache is also its mirror of the snapshot's addresses, so the two
  streams are no longer equal: the batch world's is, round for round,
  the per-row world's with Figure 9's superfluous entries left out
  (asserted, with equal snapshots and equal fix-up writes), and the
  ratio includes what not sending them saves;
- **visited pages**: the changed-slot visit those churn rounds steer
  around.  Every page of a lazy table takes one or two in-place
  updates between refreshes, so every page is visited: the summary
  names its changed slots and the visit reads, qualifies and crosses
  those alone.  The same rounds are run in a twin world whose records
  of the written pages lose their version before each refresh
  (holdings-only), so the pass reads each of them whole and crosses it
  from the same record — same stream (asserted, round for round), same
  fix-up writes, every record decoded.  The ratio is what a visit saves
  over reading its page whole; a visit that went back to reading its
  page would lose it.

The acceptance ratios are ≥5x codec decode, ≥3x scan throughput on
write-free pages, ≥1.5x on written pages and ≥1.8x for visits over
whole reads (the last three enforced at every size, the CI smoke
included).
Absolute numbers land in ``BENCH_refresh.json`` under
``batch_hot_path`` together with a regression floor (half the fastest
recorded decode rate: a slower run never lowers it); when the section
already exists, the current run must beat the recorded floor — CI smoke-runs this file so a revert to
per-message decode speed fails the build even though every
byte-identity test would still pass.

Runs as a pytest benchmark and as a plain script; ``BATCH_N`` overrides
the scan table size (the codec stream stays at 20k messages so the
recorded throughput is comparable across runs).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

if __package__ in (None, ""):  # script mode: `python benchmarks/bench_batch.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.differential import DifferentialRefresher
from repro.core.messages import EntryMessage
from repro.core.per_row import RowRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.net.wire import WireCodec
from repro.relation.row import Row, encode_row
from repro.relation.schema import Column, Schema
from repro.relation.types import IntType, StringType
from repro.storage.rid import Rid
from repro.storage.summary import PageQualInfo

from benchmarks._util import REPO_ROOT, emit, emit_json

N = int(os.environ.get("BATCH_N", "12000"))
#: Messages per codec timing run — fixed so recorded msgs/s compare
#: across runs; frames match A16's batching factor.
CODEC_MESSAGES = 20_000
FRAME_SIZE = 64
REPEATS = 15
#: Clustered update activity between timed refresh rounds.
SCAN_ROUNDS = 4
SCAN_FRACTION = 0.01
SEED = 1986
#: Written-pages cell: rounds of 1 % uniform insert/update/delete churn,
#: and the floor the batch path must hold over the per-row path at
#: every size.
WRITTEN_ROUNDS = 8
WRITTEN_FLOOR = 1.5
#: Visited-pages cell: rounds of one or two in-place updates on every
#: page, and the floor a visit must hold over reading the same page
#: whole (measured 2.35–2.47x at BATCH_N=2000 and 2.73–2.77x at 12,000
#: on a 2-core container; the floor leaves a quarter for load).
VISIT_ROUNDS = 8
VISIT_FLOOR = 1.8
#: Scan cell: the floor the batch scan must hold over the per-row scan
#: at every size, each page read whole in both modes.
SCAN_FLOOR = 3

#: PR-4 recorded wire decode rate (BENCH_refresh.json at the time the
#: issue was filed) — the "~122k msgs/s" the ≥5x target is quoted
#: against.  Kept as a constant because re-running bench_wire now
#: overwrites that section with post-batch numbers.
PR4_DECODE_MSGS_PER_S = 122_059.9


def _schema() -> Schema:
    # The A16 accounts-style row, reused so codec numbers line up.
    return Schema(
        [
            Column("id", IntType(), nullable=False),
            Column("name", StringType()),
            Column("balance", IntType()),
            Column("branch", IntType()),
            Column("v", IntType()),
        ]
    )


def _best_interleaved(fns, repeats: int = REPEATS) -> "list[float]":
    """Best-of-N wall time per function, rounds interleaved.

    The minimum is the least noisy estimator, and interleaving the
    candidates round-robin means a slow system window (this runs in
    shared containers) penalizes all of them alike — the *ratios* stay
    honest even when absolute numbers wobble.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            begin = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - begin)
    return [max(value, 1e-9) for value in best]


def _ratchet(recorded: "float | None", rate: float) -> int:
    """The decode floor to record: half of ``rate``, never below the
    floor already ``recorded``."""
    return int(max(recorded or 0, rate / 2))


def _codec_throughput(
    n_messages: int = CODEC_MESSAGES, recorded: "float | None" = None
) -> dict:
    """Batch vs per-message codec rates over the A16 entry stream;
    ``recorded`` is the floor the last runs left."""
    schema = _schema()
    codec = WireCodec(schema)
    messages = []
    prev = Rid.BEGIN
    for i in range(n_messages):
        rid = Rid(i // 40, i % 40)
        values = (i, f"name-{i:05d}", i * 100, i % 13, i % 97)
        value_bytes = len(encode_row(schema, Row(values)))
        messages.append(EntryMessage(rid, prev, values, value_bytes))
        prev = rid
    chunks = [
        messages[i : i + FRAME_SIZE]
        for i in range(0, len(messages), FRAME_SIZE)
    ]

    frames = [codec.encode_frame(chunk) for chunk in chunks]
    reference = [codec.encode_frame_per_message(chunk) for chunk in chunks]
    for batch_frame, ref_frame in zip(frames, reference):
        assert batch_frame.data == ref_frame.data, (
            "batch encoder diverged from the per-message reference"
        )
    assert [repr(m) for m in codec.decode_frame(frames[0])] == [
        repr(m) for m in codec.decode_frame_per_message(frames[0])
    ]

    # Discarding loops, as in A16's `_throughput`: a comprehension would
    # keep every decoded message alive and time the GC, not the codec.
    def encode_all() -> None:
        for chunk in chunks:
            codec.encode_frame(chunk)

    def encode_ref_all() -> None:
        for chunk in chunks:
            codec.encode_frame_per_message(chunk)

    def decode_all() -> None:
        for frame in frames:
            codec.decode_frame(frame)

    def decode_ref_all() -> None:
        for frame in frames:
            codec.decode_frame_per_message(frame)

    encode_batch_s, encode_ref_s, decode_batch_s, decode_ref_s = (
        _best_interleaved([encode_all, encode_ref_all, decode_all, decode_ref_all])
    )

    payload = sum(frame.wire_size() for frame in frames)
    decode_rate = n_messages / decode_batch_s
    return {
        "messages": n_messages,
        "frame_size": FRAME_SIZE,
        "encoded_bytes": payload,
        "encode_msgs_per_s": n_messages / encode_batch_s,
        "encode_ref_msgs_per_s": n_messages / encode_ref_s,
        "encode_speedup": encode_ref_s / encode_batch_s,
        "decode_msgs_per_s": decode_rate,
        "decode_ref_msgs_per_s": n_messages / decode_ref_s,
        "decode_speedup": decode_ref_s / decode_batch_s,
        "decode_mb_per_s": payload / decode_batch_s / 1e6,
        "pr4_decode_msgs_per_s": PR4_DECODE_MSGS_PER_S,
        "vs_pr4": decode_rate / PR4_DECODE_MSGS_PER_S,
        # Regression floor for CI: half the rate absorbs
        # machine-to-machine variance while still catching a fall back
        # to per-message speed (a ~6x drop).  It only ratchets up, so a
        # run on a slow or busy machine cannot lower it.
        "floor_decode_msgs_per_s": _ratchet(recorded, decode_rate),
    }


def _scan_mode(n: int, refresher_class: type):
    """Refresh rounds over a clustered-update workload, one scan path.

    Eager annotations keep every page free of NULL annotation fields,
    so on the batch path every page is write-free; summaries stay off
    for the *skip* logic so each refresh really walks all n rows — the
    quantity being measured is scan cost per row, not pages avoided
    (that is A13's subject).
    """
    db = Database("bench", buffer_capacity=1024)
    table = db.create_table("t", _schema(), annotations="eager")
    rids = [
        table.insert([i, f"name-{i:05d}", i * 100, i % 13, i % 97])
        for i in range(n)
    ]
    restriction = Restriction.parse("v < 1000000000", table.schema)
    projection = Projection(table.schema)
    refresher = refresher_class(table)
    first = refresher.refresh(0, restriction, projection, lambda m: None)
    snap_time = first.new_snap_time

    rng = random.Random(SEED)
    count = max(1, int(n * SCAN_FRACTION))
    elapsed = 0.0
    streams = []
    result = first
    for _ in range(SCAN_ROUNDS):
        start = rng.randrange(0, n - count + 1)
        for rid in rids[start : start + count]:
            table.update(rid, {"v": rng.randrange(1_000_000)})
        messages: list = []
        begin = time.perf_counter()
        result = refresher.refresh(
            snap_time, restriction, projection, messages.append
        )
        elapsed += time.perf_counter() - begin
        snap_time = result.new_snap_time
        streams.append([repr(m) for m in messages])
    return elapsed, result, streams


def _scan_throughput(n: int) -> dict:
    t_row, r_row, s_row = _scan_mode(n, RowRefresher)
    t_batch, r_batch, s_batch = _scan_mode(n, DifferentialRefresher)
    # Same seed, same updates: the refresh streams must agree per round.
    assert s_batch == s_row, "batch stream diverged from the per-row reference"
    rows_scanned = SCAN_ROUNDS * n
    return {
        "n": n,
        "rounds": SCAN_ROUNDS,
        "fraction": SCAN_FRACTION,
        "seconds_row": t_row,
        "seconds_batch": t_batch,
        "rows_per_sec_row": rows_scanned / t_row,
        "rows_per_sec_batch": rows_scanned / t_batch,
        "speedup": t_row / t_batch if t_batch else float("inf"),
        "floor_speedup": SCAN_FLOOR,
        # Last-round counters: on the batch path every page is batch-served,
        # each one extracted whole (summaries are off).
        "pages_scanned": r_batch.pages_scanned,
        "pages_batch_decoded": r_batch.pages_batch_decoded,
        "rows_materialized": r_batch.rows_materialized,
        "rows_decoded_row": r_row.rows_decoded,
        "rows_decoded_batch": r_batch.rows_decoded,
    }


class _WrittenWorld:
    """A lazy table refreshed after rounds of uniform churn, one mode.

    Page summaries are on, so clean pages are skipped in both modes and
    what is timed is the written page: extraction, fix-up, predicate,
    transmit decision.  The restriction column lies in the record's
    fixed-width suffix (as in A21's workloads), which is what the
    compiled probe needs.
    """

    def __init__(self, n: int, refresher_class: type) -> None:
        db = Database("bench", buffer_capacity=1024)
        self.table = db.create_table("t", _schema(), annotations="lazy")
        self.rids = self.table.bulk_load(
            [[i, f"name-{i:05d}", i * 100, i % 13, i % 97] for i in range(n)]
        )
        self.restriction = Restriction.parse("branch < 4", self.table.schema)
        self.projection = Projection(self.table.schema)
        # Both worlds send a qualifier the Deletion flag forces out as a
        # range delete, as the mirror always does.
        self.refresher = refresher_class(self.table, optimize_deletes=True)
        self.cache: dict = {}
        self.rng = random.Random(SEED)
        self.snap_time = 0
        self.elapsed = 0.0
        self.rows = self.pages = self.batch_pages = self.fixup_writes = 0
        self.visited_pages = 0
        self.next_id = n
        self.streams: list = []
        #: Every message sent, replayed into a receiver after the timing.
        self.sent: list = []
        self.refresh(timed=False)

    def refresh(self, timed: bool = True) -> None:
        messages: list = []
        begin = time.perf_counter()
        result = self.refresher.refresh(
            self.snap_time,
            self.restriction,
            self.projection,
            messages.append,
            cache=self.cache,
        )
        spent = time.perf_counter() - begin
        self.snap_time = result.new_snap_time
        if timed:
            self.elapsed += spent
            self.rows += result.scanned
            self.pages += result.pages_scanned
            self.batch_pages += result.pages_batch_decoded
            # Solo: fast-forwarded but not skipped = changed-slot visit.
            self.visited_pages += (
                result.pages_fast_forwarded - result.pages_skipped
            )
            self.fixup_writes += result.fixup_writes
            self.streams.append([repr(m) for m in messages])
        self.sent.extend(messages)

    def snapshot(self) -> dict:
        """What a receiver holds after everything this world sent."""
        receiver = SnapshotTable(Database("site"), "s", self.projection.schema)
        for message in self.sent:
            receiver.apply(message)
        return receiver.as_map()

    def round(self) -> None:
        rng, rids = self.rng, self.rids
        for _ in range(max(1, int(len(rids) * SCAN_FRACTION / 3))):
            # A delete, an insert (first-fit: into the hole just made)
            # and an update of the neighbouring row, so the page that
            # takes the update also carries a structural change; then
            # an undone delete of that row, which the page's summary
            # cannot name, so the page is read whole, not visited.
            at = rng.randrange(1, len(rids))
            self.table.delete(rids[at])
            i = self.next_id
            self.next_id += 1
            rids[at] = self.table.insert(
                [i, f"name-{i:05d}", i * 100, i % 13, i % 97]
            )
            self.table.update(rids[at - 1], {"v": rng.randrange(1_000_000)})
            txn = self.table.db.txns.begin()
            self.table.delete(rids[at - 1], txn=txn)
            txn.abort()
        self.refresh()


def _written_throughput(n: int) -> dict:
    row = _WrittenWorld(n, RowRefresher)
    batch = _WrittenWorld(n, DifferentialRefresher)
    # Rounds interleaved, so a slow system window penalizes both modes.
    for _ in range(WRITTEN_ROUNDS):
        row.round()
        batch.round()
    # The batch world arms its Deletion flag from its page cache: its
    # stream is the per-row world's (the paper's rule, forced qualifiers
    # as range deletes) with messages left out, never altered, and the
    # snapshots come out the same.
    for sent, paper in zip(batch.streams, row.streams):
        rest = iter(paper)
        assert all(message in rest for message in sent), (
            "batch-mode stream is not a subsequence of the per-row stream "
            "on written pages"
        )
    assert batch.snapshot() == row.snapshot() == {
        rid: r.values
        for rid, r in batch.table.scan(visible=True)
        if batch.restriction(r)
    }
    assert batch.fixup_writes == row.fixup_writes
    return {
        "n": n,
        "rounds": WRITTEN_ROUNDS,
        "fraction": SCAN_FRACTION,
        "pages_scanned": batch.pages,
        "pages_batch_decoded": batch.batch_pages,
        "pages_visited": batch.visited_pages,
        "fixup_writes": batch.fixup_writes,
        "messages_row": sum(len(stream) for stream in row.streams),
        "messages_batch": sum(len(stream) for stream in batch.streams),
        "seconds_row": row.elapsed,
        "seconds_batch": batch.elapsed,
        "rows_per_sec_row": row.rows / row.elapsed,
        "rows_per_sec_batch": batch.rows / batch.elapsed,
        "speedup": row.elapsed / batch.elapsed,
        "floor_speedup": WRITTEN_FLOOR,
    }


class _VisitWorld:
    """A lazy table refreshed after one or two in-place updates on every
    page: each page visited, or (``whole``) read whole from the same
    record, its version dropped so the summary cannot vouch for it."""

    def __init__(self, n: int, whole: bool) -> None:
        db = Database("bench", buffer_capacity=1024)
        self.table = db.create_table("t", _schema(), annotations="lazy")
        rids = self.table.bulk_load(
            [[i, f"name-{i:05d}", i * 100, i % 13, i % 97] for i in range(n)]
        )
        self.pages: "dict[int, list[Rid]]" = {}
        for rid in rids:
            self.pages.setdefault(rid.page_no, []).append(rid)
        self.restriction = Restriction.parse("branch < 4", self.table.schema)
        self.projection = Projection(self.table.schema)
        self.refresher = DifferentialRefresher(self.table)
        self.whole = whole
        self.cache: dict = {}
        self.rng = random.Random(SEED)
        self.snap_time = 0
        self.elapsed = 0.0
        self.scanned = self.visited = self.rows_decoded = self.fixup_writes = 0
        self.streams: list = []
        self.refresh(timed=False)

    def refresh(self, timed: bool = True) -> None:
        messages: list = []
        begin = time.perf_counter()
        result = self.refresher.refresh(
            self.snap_time,
            self.restriction,
            self.projection,
            messages.append,
            cache=self.cache,
        )
        spent = time.perf_counter() - begin
        self.snap_time = result.new_snap_time
        if timed:
            self.elapsed += spent
            self.scanned += result.pages_scanned
            self.visited += result.pages_fast_forwarded - result.pages_skipped
            self.rows_decoded += result.rows_decoded
            self.fixup_writes += result.fixup_writes
            self.streams.append([repr(m) for m in messages])

    def round(self) -> None:
        rng = self.rng
        for rids in self.pages.values():
            for rid in rng.sample(rids, rng.choice((1, 2))):
                self.table.update(
                    rid, {"branch": rng.randrange(13), "v": rng.randrange(1_000_000)}
                )
        if self.whole:
            for page_no in self.pages:
                held = self.cache[page_no].qual_slots
                self.cache[page_no] = PageQualInfo(None, None, held, None)
        self.refresh()


def _visit_throughput(n: int) -> dict:
    visit, whole = _VisitWorld(n, False), _VisitWorld(n, True)
    # Rounds interleaved, so a slow system window penalizes both worlds.
    for _ in range(VISIT_ROUNDS):
        visit.round()
        whole.round()
    assert visit.streams == whole.streams, "a visit's stream is not a whole read's"
    assert visit.fixup_writes == whole.fixup_writes
    return {
        "n": n,
        "rounds": VISIT_ROUNDS,
        "pages_scanned": visit.scanned,
        "pages_visited": visit.visited,
        "pages_visited_whole": whole.visited,
        "rows_decoded_visit": visit.rows_decoded,
        "rows_decoded_whole": whole.rows_decoded,
        "fixup_writes": visit.fixup_writes,
        "seconds_visit": visit.elapsed,
        "seconds_whole": whole.elapsed,
        "pages_per_sec_visit": visit.scanned / visit.elapsed,
        "pages_per_sec_whole": whole.scanned / whole.elapsed,
        "speedup": whole.elapsed / visit.elapsed,
        "floor_speedup": VISIT_FLOOR,
    }


def _recorded_floor() -> "float | None":
    """The decode floor recorded by the last full run, if any."""
    path = os.path.join(REPO_ROOT, "BENCH_refresh.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    section = data.get("batch_hot_path")
    if not isinstance(section, dict):
        return None
    throughput = section.get("throughput", {})
    floor = throughput.get("floor_decode_msgs_per_s")
    return float(floor) if floor else None


def _check(
    throughput: dict,
    scan: dict,
    written: dict,
    visited: dict,
    n: int,
    floor: "float | None",
) -> None:
    # Machine-independent guard: the generated decoder must stay well
    # clear of per-message speed.  (The per-message reference itself got
    # ~30% faster in this PR from the shared varint tables, so the
    # same-session ratio understates the gain over the PR-4 decoder.)
    assert throughput["decode_speedup"] >= 4, (
        f"batch decode only {throughput['decode_speedup']:.1f}x the "
        f"per-message reference (floor 4x)"
    )
    assert throughput["encode_speedup"] >= 1, throughput["encode_speedup"]
    if floor is not None:
        assert throughput["decode_msgs_per_s"] >= floor, (
            f"decode throughput {throughput['decode_msgs_per_s']:,.0f} "
            f"msgs/s fell below the recorded floor {floor:,.0f}"
        )
    if n >= 8_000:
        # Absolute sanity bound on full-size runs.  The acceptance
        # number (>= 5x the PR-4 recorded 122k msgs/s) is the *recorded*
        # best-of-N in BENCH_refresh.json; a hard 5x here would flake
        # with container load, so the in-run bound allows for a heavily
        # loaded machine while still catching a real regression to
        # per-message speed.
        assert throughput["vs_pr4"] >= 3, (
            f"decode {throughput['decode_msgs_per_s']:,.0f} msgs/s is only "
            f"{throughput['vs_pr4']:.1f}x the PR-4 baseline (sanity bound 3x)"
        )
    assert scan["pages_batch_decoded"] > 0, scan
    # Both paths read every record: summaries are off, and the pool
    # caches frames, not batches.
    assert scan["rows_decoded_batch"] == scan["rows_decoded_row"], scan
    # Write-free pages read whole: the batch scan's floor, at every size.
    assert scan["speedup"] >= SCAN_FLOOR, (
        f"batch scan only {scan['speedup']:.1f}x row mode "
        f"(floor {SCAN_FLOOR}x)"
    )
    # Written pages: all of them batch-served, and faster at every size
    # (this is the floor the BATCH_N=2000 CI smoke enforces).
    assert written["pages_batch_decoded"] == written["pages_scanned"] > 0, (
        written
    )
    assert written["fixup_writes"] > 0, written
    # ... and most of them through the fix-up walk this cell is about,
    # not the changed-slot visit that update-only pages take.
    assert 2 * written["pages_visited"] < written["pages_scanned"], written
    assert written["speedup"] >= WRITTEN_FLOOR, (
        f"written pages: batch only {written['speedup']:.2f}x the per-row "
        f"path (floor {WRITTEN_FLOOR}x)"
    )
    # Visited pages: every page written is visited in one world and read
    # whole in the other, and the visit wins at every size.
    assert visited["pages_visited"] == visited["pages_scanned"] > 0, visited
    assert visited["pages_visited_whole"] == 0, visited
    assert visited["rows_decoded_visit"] < visited["rows_decoded_whole"], visited
    assert visited["speedup"] >= VISIT_FLOOR, (
        f"visited pages: a visit only {visited['speedup']:.2f}x reading the "
        f"page whole (floor {VISIT_FLOOR}x)"
    )


def run(n: int = N):
    floor = _recorded_floor()
    throughput = _codec_throughput(recorded=floor)
    scan = _scan_throughput(n)
    written = _written_throughput(n)
    visited = _visit_throughput(n)
    emit(
        "batch_hot_path",
        f"A17: batch vs per-row hot paths (codec {CODEC_MESSAGES} msgs, "
        f"scan N={n} x {SCAN_ROUNDS} rounds)",
        ["path", "per-row/msg", "batch", "speedup"],
        [
            [
                "codec encode msgs/s",
                f"{throughput['encode_ref_msgs_per_s']:,.0f}",
                f"{throughput['encode_msgs_per_s']:,.0f}",
                f"{throughput['encode_speedup']:.1f}x",
            ],
            [
                "codec decode msgs/s",
                f"{throughput['decode_ref_msgs_per_s']:,.0f}",
                f"{throughput['decode_msgs_per_s']:,.0f}",
                f"{throughput['decode_speedup']:.1f}x",
            ],
            [
                "scan rows/s",
                f"{scan['rows_per_sec_row']:,.0f}",
                f"{scan['rows_per_sec_batch']:,.0f}",
                f"{scan['speedup']:.1f}x",
            ],
            [
                "written pages rows/s",
                f"{written['rows_per_sec_row']:,.0f}",
                f"{written['rows_per_sec_batch']:,.0f}",
                f"{written['speedup']:.1f}x",
            ],
            [
                "visited pages/s (whole read | visit)",
                f"{visited['pages_per_sec_whole']:,.0f}",
                f"{visited['pages_per_sec_visit']:,.0f}",
                f"{visited['speedup']:.1f}x",
            ],
        ],
    )
    print(
        f"decode {throughput['decode_msgs_per_s']:,.0f} msgs/s "
        f"({throughput['decode_mb_per_s']:.1f} MB/s), "
        f"{throughput['vs_pr4']:.1f}x the PR-4 recorded rate; "
        f"scan {scan['pages_batch_decoded']} pages batch-served, "
        f"{scan['rows_materialized']} rows materialized"
    )
    sections = {
        "throughput": throughput,
        "scan": scan,
        "written": written,
        "visited": visited,
    }
    emit_json("batch_hot_path", sections)
    _check(throughput, scan, written, visited, n, floor)
    return sections


def test_batch_hot_path():
    run(N)


if __name__ == "__main__":
    run(N)
