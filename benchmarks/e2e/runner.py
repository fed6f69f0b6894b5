"""The closed loop: write a round, refresh, time it, check it.

One writer, one refresher, one thread.  A round commits its ops through
``Table.insert/update/delete``, then calls the workload's refresh entry
point; commit -> visible is the time from the round's last commit to
that call returning with the receiver's epoch committed.  The oracle
(restriction and projection applied in plain Python to one
``Table.scan``) runs outside every timed region.
"""

from __future__ import annotations

import os
import resource
import statistics
from collections import Counter
from time import perf_counter
from typing import Optional

from .adapter import ReproError, Site
from .calibrate import speed
from .gen import BRANCH_POSITION, COLUMNS, DELETE, INSERT, UPDATE, Op, OpGenerator
from .trace import LAYERS, Tracer
from .workloads import GROUP, ONLINE, Workload

WARMUP_ROUNDS = 3
#: Rows per ``bulk_load`` call, so that the machine's speed is sampled
#: every second or so of the load instead of once around all of it.
LOAD_CHUNK = 10_000
#: ``visible_tail_ms`` percentile.  With the fixed round counts at least
#: ten samples lie beyond it on every workload.
TAIL_PCT = 75
#: ``peak_rss_mb`` is read after this measured round, which every run
#: completes: a faster program fits more rounds into ``--seconds``, and
#: the memory those extra rounds add must not read as a regression.
RSS_ROUND = 8
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("visible_p50_ms", "ms"),
    ("visible_tail_ms", "ms"),
    ("writer_stall_p50_ms", "ms"),
    ("write_us_per_op", "us"),
    ("propagate_ops_per_s", "1/s"),
    ("wire_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
)


def percentile(values: "list[float]", pct: int) -> float:
    """Nearest-rank percentile: ``100 - pct`` percent of samples lie beyond."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, len(ordered) * pct // 100)]


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _share(hits: float, misses: float) -> float:
    return _ratio(hits, hits + misses)


class Bench:
    """One workload, one seed: :meth:`setup`, :meth:`measure`, :meth:`result`."""

    def __init__(self, workload: Workload, seed: int, trace: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.setup_seconds = 0.0
        self._peak_rss = 0.0
        self._unchecked = 0
        self._op_seconds = {INSERT: 0.0, UPDATE: 0.0, DELETE: 0.0}
        self._op_counts = {INSERT: 0, UPDATE: 0, DELETE: 0}
        #: Per successful round: seconds inside the Table calls, and the
        #: whole round (writes + refresh).
        self._write: "list[float]" = []
        self._round_seconds: "list[float]" = []
        self._visible: "list[float]" = []
        self._visible_traced: "list[float]" = []
        self._stall: "list[float]" = []
        self._hold: "list[float]" = []
        #: Per round, the machine's slowdown around the refresh.
        self._slowdown: "list[float]" = []
        #: Layer counters summed over the rounds that count: every round
        #: of an untraced run, the traced rounds of a traced one.
        self.counts: "Counter[str]" = Counter()
        self._counted_ops = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Bulk-load, define and populate the snapshots, run the warm-up."""
        workload = self.workload
        # Each phase's seconds, divided by the machine's speed around it.
        laps = [(perf_counter(), speed())]
        self._gen = OpGenerator(self.seed, workload.rows, workload.mix)
        self.site = Site(COLUMNS, self.tracer)
        rows = self._gen.initial_rows()
        rids: list = []
        for at in range(0, len(rows), LOAD_CHUNK):
            rids += self.site.load(rows[at : at + LOAD_CHUNK])
            laps.append((perf_counter(), speed()))
        del rows  # 100k lists must not sit under the populate's peak RSS
        self._rid_of = dict(enumerate(rids))
        for spec in workload.snapshots:
            self.site.create_snapshot(
                spec.name,
                f"branch < {spec.q}",
                spec.columns,
                spec.compress,
                spec.delta_updates,
            )
        self.site.populate()
        laps.append((perf_counter(), speed()))
        for _ in range(WARMUP_ROUNDS):
            self._round(record=False, traced=False)
        laps.append((perf_counter(), speed()))
        self.setup_seconds = sum(
            (end - start) / ((slow + slower) / 2)
            for (start, slow), (end, slower) in zip(laps, laps[1:])
        )
        for kind in self._op_counts:
            self._op_seconds[kind] = 0.0
            self._op_counts[kind] = 0
        if not self.check():
            raise RuntimeError(f"{workload.name}: snapshot wrong after set-up")

    # -- the measured phase --------------------------------------------------

    def measure(
        self, rounds: Optional[int] = None, seconds: Optional[float] = None
    ) -> None:
        """Run ``rounds`` rounds, or rounds until ``seconds`` were timed."""
        if seconds is None and rounds is None:
            rounds = self.workload.rounds
        done = 0
        timed = 0.0
        while (rounds is None or done < rounds) and (
            seconds is None or timed < seconds
        ):
            # A traced run alternates, so that tracing overhead is read
            # from the same process, state and minute.
            traced = self.tracer is not None and done % 2 == 1
            timed += self._round(record=True, traced=traced)
            done += 1
            if done == RSS_ROUND:
                self._peak_rss = _max_rss_mb()
            if self._unchecked >= self.workload.check_every:
                self._settle()
        self._settle()
        if done < RSS_ROUND:
            self._peak_rss = _max_rss_mb()

    def _settle(self) -> None:
        """Oracle check; a mismatch fails every round since the last pass."""
        if self._unchecked and not self.check():
            self.failed += self._unchecked
        self._unchecked = 0

    def _apply(self, ops: "list[Op]") -> float:
        """Commit ``ops``; returns the time spent inside the Table calls."""
        site = self.site
        rid_of = self._rid_of
        spent = 0.0
        for kind, key, payload in ops:
            if kind == UPDATE:
                rid = rid_of[key]
                start = perf_counter()
                rid_of[key] = site.update(rid, payload)
                took = perf_counter() - start
            elif kind == INSERT:
                start = perf_counter()
                rid_of[key] = site.insert(payload)
                took = perf_counter() - start
            else:
                rid = rid_of.pop(key)
                start = perf_counter()
                site.delete(rid)
                took = perf_counter() - start
            self._op_seconds[kind] += took
            self._op_counts[kind] += 1
            spent += took
        return spent

    def _round(self, record: bool, traced: bool) -> float:
        """One round; returns its timed seconds (writes + refresh)."""
        workload = self.workload
        site = self.site
        ops = self._gen.round(workload.ops_per_round)
        inject: "list[Op]" = []
        if workload.mode == ONLINE:
            half = len(ops) // 2
            ops, inject = ops[:half], ops[half:]
        before = site.counters()
        slow_before = speed()
        write = self._apply(ops)
        slow_between = speed()

        # Writer windows inside refresh_online: [enter, exit] pairs.
        windows: "list[float]" = []
        per_window = 0
        if inject:
            per_window = -(-len(inject) // max(1, site.chunk_boundaries()))

        def on_chunk_boundary(_chunk: int) -> None:
            nonlocal inject
            windows.append(perf_counter())
            batch, inject = inject[:per_window], inject[per_window:]
            self._apply(batch)
            windows.append(perf_counter())

        error = None
        counts: "dict[str, int]" = {}
        if traced:
            self.tracer.begin_refresh()
        start = perf_counter()
        try:
            if workload.mode == ONLINE:
                counts = site.refresh_online(on_chunk_boundary)
            elif workload.mode == GROUP:
                counts = site.refresh_group()
            else:
                counts = site.refresh_solo()
        except ReproError as raised:
            error = raised
        end = perf_counter()
        injected = sum(windows[1::2]) - sum(windows[0::2])
        if traced:
            self.tracer.end_refresh(injected, len(windows) // 2)
        # Ops the scan left no window for still commit in this round.
        injected_late = injected + self._apply(inject)
        slow_after = speed()

        # The writer can run only inside a window: the longest stretch
        # between windows (or the whole call) is its stall.
        marks = [start, *windows, end]
        stall = max(marks[i + 1] - marks[i] for i in range(0, len(marks), 2))
        visible = end - start - injected
        timed = write + injected_late + visible
        if not record:
            if error is not None:
                raise error
            return timed
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"round {self.attempted} failed: {error!r}", flush=True)
            return timed
        # From here on, seconds at the reference speed (see calibrate.py).
        slow_write = (slow_before + slow_between) / 2
        slow_refresh = (slow_between + slow_after) / 2
        write = write / slow_write + injected_late / slow_refresh
        visible /= slow_refresh
        self._unchecked += 1
        self._slowdown.append(slow_refresh)
        self._write.append(write)
        self._round_seconds.append(write + visible)
        (self._visible_traced if traced else self._visible).append(visible)
        self._stall.append(stall / slow_refresh)
        self._hold.append((marks[-1] - marks[-2]) / slow_refresh)
        if traced or self.tracer is None:
            self.counts.update(counts)
            self.counts.update(site.counters())
            self.counts.subtract(before)
            self._counted_ops += workload.ops_per_round
        return timed

    # -- oracle --------------------------------------------------------------

    def check(self) -> bool:
        """Every snapshot == restriction∘projection of one ``Table.scan``.

        Base table and snapshots are both read in address order and
        compared row by row, so the oracle holds no copy of either.
        """
        specs = self.workload.snapshots
        names = [name for name, _kind in COLUMNS]
        picks = [
            None if spec.columns is None
            else [names.index(column) for column in spec.columns]
            for spec in specs
        ]
        stored = [iter(self.site.snapshot_rows(spec.name)) for spec in specs]
        try:
            for rid, values in self.site.base_rows():
                branch = values[BRANCH_POSITION]
                for spec, pick, rows in zip(specs, picks, stored):
                    if branch < spec.q:
                        expected = (
                            values if pick is None
                            else tuple(values[position] for position in pick)
                        )
                        if next(rows, None) != (rid, expected):
                            return False
            return all(next(rows, None) is None for rows in stored)
        except ReproError:
            return False

    # -- results -------------------------------------------------------------

    def result(self) -> dict:
        """The run as the driver's JSON object (metrics by mode)."""
        metrics = self.per_layer() if self.tracer is not None else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def end_to_end(self) -> "dict[str, tuple[float, str]]":
        visible = self._visible
        ops = self.workload.ops_per_round
        values = {
            "setup_s": self.setup_seconds,
            "visible_p50_ms": statistics.median(visible) * 1e3,
            "visible_tail_ms": percentile(visible, TAIL_PCT) * 1e3,
            "writer_stall_p50_ms": statistics.median(self._stall) * 1e3,
            "write_us_per_op": statistics.median(self._write) / ops * 1e6,
            "propagate_ops_per_s": ops / statistics.median(self._round_seconds),
            "wire_bytes_per_op": _ratio(self.counts["bytes"], self._counted_ops),
            "peak_rss_mb": self._peak_rss,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def per_layer(self) -> "dict[str, tuple[float, str]]":
        tracer = self.tracer
        c = self.counts
        rounds = max(1, tracer.refreshes)
        self_ms = {
            layer: tracer.self_seconds[layer] / rounds * 1e3 for layer in LAYERS
        }
        out: "dict[str, tuple[float, str]]" = {}

        def count(layer: str, *names: str) -> None:
            for name in names:
                out[f"{layer}.{name}"] = (c[name], "count")

        for kind in (INSERT, UPDATE, DELETE):
            out[f"table.{kind}_us"] = (
                _ratio(self._op_seconds[kind], self._op_counts[kind]) * 1e6, "us")
        out["table.ops"] = (sum(self._op_counts.values()), "count")

        out["differential.scan_self_ms"] = (self_ms["scan"], "ms")
        count(
            "differential",
            "pages_scanned", "pages_skipped", "pages_batch_decoded",
            "batches_reused", "rows_decoded", "rows_materialized",
            "entries_evaluated", "fixup_writes", "entries_sent",
            "chunks_scanned", "interleaved_writes", "pages_repaired",
        )
        out["differential.skip_ratio"] = (
            _share(c["pages_skipped"], c["pages_scanned"]), "ratio")
        out["differential.batch_ratio"] = (
            _ratio(c["pages_batch_decoded"], c["pages_scanned"]), "ratio")
        out["differential.entries_per_op"] = (
            _ratio(c["entries_sent"], self._counted_ops), "ratio")
        out["differential.repair_hold_ms"] = (
            statistics.median(self._hold) * 1e3, "ms")

        out["buffer.base_hit_rate"] = (
            _share(c["base_hits"], c["base_misses"]), "ratio")
        count("buffer", "base_evictions")
        out["buffer.batch_hit_rate"] = (
            _share(c["batch_hits"], c["batch_misses"]), "ratio")
        out["buffer.remote_hit_rate"] = (
            _share(c["remote_hits"], c["remote_misses"]), "ratio")

        out["wire.encode_self_ms"] = (self_ms["encode"], "ms")
        out["wire.decode_self_ms"] = (self_ms["decode"], "ms")
        count("wire", "frames")
        out["wire.bytes"] = (c["bytes"], "B")
        out["wire.modeled_bytes"] = (c["modeled_bytes"], "B")
        out["wire.compression_ratio"] = (
            _ratio(c["modeled_bytes"], c["bytes"]), "ratio")
        out["wire.msgs_per_frame"] = (_ratio(tracer.messages, c["frames"]), "ratio")

        out["snapshot.stage_self_ms"] = (self_ms["stage"], "ms")
        out["snapshot.commit_self_ms"] = (self_ms["commit"], "ms")
        count("snapshot", "applied_upserts", "applied_deletes", "applied_merges")
        out["snapshot.apply_us_per_msg"] = (
            _ratio(
                tracer.self_seconds["commit"],
                c["applied_upserts"] + c["applied_deletes"],
            ) * 1e6, "us")

        out["manager.refresh_ms"] = (tracer.refresh_seconds / rounds * 1e3, "ms")
        out["group.cursors"] = (_ratio(c["cursors"], rounds), "count")
        count("group", "pass_pages_scanned")
        out["trace.overhead_ratio"] = (
            _ratio(statistics.median(self._visible_traced),
                   statistics.median(self._visible)), "ratio")
        out["trace.spans"] = (len(tracer.spans), "count")
        return out

    def slowdown(self) -> float:
        """Median slowdown the rounds were corrected for (1.0 = reference)."""
        return statistics.median(self._slowdown)

    def write_trace(self) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"trace-{self.workload.name}.jsonl")
        self.tracer.write(path)
        return path


def run(
    workload: Workload,
    seed: int,
    trace: bool = False,
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
) -> Bench:
    bench = Bench(workload, seed, trace)
    bench.setup()
    bench.measure(rounds, seconds)
    return bench
