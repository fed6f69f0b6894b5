"""CREATE / REFRESH / DROP SNAPSHOT orchestration.

The :class:`SnapshotManager` plays the role of R*'s high-level snapshot
control: CREATE SNAPSHOT compiles the definition (eligibility analysis,
restriction/projection binding, method selection — see
:mod:`repro.catalog.compiler`), materializes the snapshot table at its
site, wires a channel between the sites, and stores everything in the
catalog; REFRESH SNAPSHOT executes the stored plan under a table-level
lock; DROP SNAPSHOT cleans up.

Multiple snapshots on one base table share its annotations — creating a
second differential snapshot adds no new fields, and each refresh's
fix-up work benefits every other snapshot (the paper's amortization
claim, measured by the A6 benchmark).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro import sanitize
from repro.catalog.catalog import SnapshotInfo
from repro.catalog.compiler import (
    JoinSpec,
    RefreshMethod,
    SnapshotDefinition,
    compile_snapshot,
)
from repro.core.costmodel import CostModel
from repro.core.cursor import (
    RefreshCursor,
    RefreshResult,
    ValueCache,
    adopt_holdings,
)
from repro.core.differential import (
    DifferentialRefresher,
    ScanPlan,
    run_refresh_scan,
)
from repro.core.fixup import base_fixup
from repro.core.full import FullRefresher
from repro.core.ideal import IdealRefresher
from repro.core.logbased import LogRefresher
from repro.core.messages import RefreshBeginMessage, RefreshCommitMessage
from repro.core.registry import SnapshotRegistry
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.errors import (
    ChannelError,
    EpochError,
    LinkDownError,
    RetryExhaustedError,
    SnapshotError,
)
from repro.expr.predicate import Projection, Restriction
from repro.net.blocking import BlockingChannel
from repro.net.channel import Channel
from repro.net.retry import RetryPolicy
from repro.relation.row import Row
from repro.storage.summary import PageMirror
from repro.txn.locks import LockMode

#: Failures a retried refresh can recover from: the link died mid-stream,
#: or the receiver detected a torn/lossy epoch and rolled it back.
RETRYABLE_ERRORS = (LinkDownError, EpochError)

#: Failures ``refresh_all``/``refresh_many`` isolate per snapshot instead
#: of aborting the whole batch — the scheduler's skip-don't-crash set.
ISOLATED_ERRORS = (ChannelError, RetryExhaustedError)


class RefreshAllResult(dict):
    """Partial-result map of a multi-snapshot refresh.

    Behaves as ``{name: RefreshResult}`` for every snapshot that
    refreshed (insertion order follows the catalog), with the snapshots
    that failed recorded in :attr:`errors` instead of aborting the
    batch — one dead link must not starve every other snapshot.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Failed snapshots: name -> the error that stopped them.
        self.errors: "dict[str, BaseException]" = {}

    @property
    def failed(self) -> "list[str]":
        return list(self.errors)

    def __repr__(self) -> str:
        return (
            f"RefreshAllResult(ok={list(self)}, failed={self.failed})"
        )


class FleetDrainResult:
    """Outcome of one drain over a registry's due queue."""

    __slots__ = ("cohorts", "refreshed", "errors")

    def __init__(self) -> None:
        #: Cohorts refreshed (each one shared-scan pass).
        self.cohorts = 0
        #: Snapshots successfully refreshed.
        self.refreshed = 0
        #: Per-snapshot isolated failures (name -> error), requeued as due.
        self.errors: "dict[str, BaseException]" = {}

    def __repr__(self) -> str:
        return (
            f"FleetDrainResult(cohorts={self.cohorts}, "
            f"refreshed={self.refreshed}, failed={list(self.errors)})"
        )


class Snapshot:
    """A live snapshot handle: catalog info + refresher + channel + table."""

    def __init__(
        self,
        manager: "SnapshotManager",
        info: SnapshotInfo,
        refresher: Any,
        channel: Any,
    ) -> None:
        self._manager = manager
        self.info = info
        self.refresher = refresher
        self.channel = channel
        #: Page-qualification cache (page_no -> PageQualInfo), if kept:
        #: lets the pass fast-forward over clean pages and — the sender's
        #: mirror of the addresses the snapshot holds — arm ``Deletion``
        #: only where one was lost.  Merged in when an epoch commits.
        self.page_mirror: Optional[PageMirror] = None
        #: Mirror of transmitted values, if kept: per-column update
        #: deltas.  Committed only once the receiver's commit is confirmed.
        self.value_mirror: Optional[ValueCache] = None
        #: Failed attempts that were retried (across all refreshes).
        self.retries = 0

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def method(self) -> RefreshMethod:
        return self.info.plan.method

    @property
    def table(self) -> SnapshotTable:
        return self.info.snapshot_table

    @property
    def snap_time(self) -> int:
        return self.info.snap_time

    @property
    def restriction(self) -> Restriction:
        """The compiled restriction from the stored plan.

        Compiled once at CREATE SNAPSHOT (and memoized by
        :meth:`~repro.expr.predicate.Restriction.parse`); hot refresh
        loops evaluate this object and never re-lex the predicate text.
        """
        return self.info.plan.restriction

    @property
    def projection(self) -> Projection:
        """The compiled projection from the stored plan."""
        return self.info.plan.projection

    def refresh(self) -> RefreshResult:
        """Bring this snapshot up to the current base-table state."""
        return self._manager.refresh(self.name)

    def rows(self) -> "list[Row]":
        """Current snapshot contents (ordered by base address)."""
        return self.info.snapshot_table.rows()

    def as_map(self) -> dict:
        return self.info.snapshot_table.as_map()

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.name}, {self.method.value}, "
            f"rows={len(self.info.snapshot_table)})"
        )


class _Epoch:
    """One snapshot's open refresh epoch: its number and a counting send."""

    __slots__ = ("handle", "number", "sent")

    def __init__(self, handle: Snapshot, number: int) -> None:
        self.handle = handle
        self.number = number
        #: Stream messages sent so far; ``RefreshCommit`` carries the
        #: total so the receiver detects a lossy link.
        self.sent = 0

    def send(self, message: Any) -> None:
        self.handle.channel.send(message)
        self.sent += 1


class SnapshotManager:
    """Snapshot DDL and refresh execution for one base database."""

    def __init__(
        self,
        db: Database,
        cost_model: Optional[CostModel] = None,
        use_page_summaries: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.db = db
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: Give each differential snapshot created here a page mirror
        #: (skips, visits, ``Deletion`` armed from the addresses it
        #: holds); False reproduces the paper's full-scan baseline.
        self.use_page_summaries = use_page_summaries
        #: When set, every refresh retries link/epoch failures under this
        #: policy instead of raising them (overridable per call).
        self.retry_policy = retry_policy
        self._handles: "dict[str, Snapshot]" = {}

    # -- CREATE SNAPSHOT ------------------------------------------------------

    def create_snapshot(
        self,
        name: str,
        base_table: str,
        where: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
        method: Union[RefreshMethod, str] = RefreshMethod.AUTO,
        target_db: Optional[Database] = None,
        channel: Optional[Channel] = None,
        block_size: Optional[int] = None,
        expected_update_fraction: float = 0.1,
        optimize_deletes: bool = True,
        initial_refresh: bool = True,
        join: Optional[JoinSpec] = None,
        wire_format: bool = False,
        compress: bool = False,
        frame_messages: int = 64,
        frame_bytes: Optional[int] = None,
        delta_updates: bool = False,
    ) -> Snapshot:
        """Compile, materialize, and (by default) initially populate.

        ``method="auto"`` resolves via the cost model using the table's
        current size, a sampled selectivity estimate, and
        ``expected_update_fraction`` (the anticipated update activity
        between refreshes) — the paper's "the appropriate refresh method
        can be selected" when the snapshot is defined.

        ``base_table`` may also name a snapshot materialized at this
        manager's site: "snapshots can serve as base tables for other
        snapshots".  The cascade refreshes against the snapshot's
        storage table, whose lazy annotations the receiver maintains.

        ``wire_format=True`` ships the refresh stream as real encoded
        bytes: a :class:`~repro.net.wire.WireCodec` (optionally with
        per-frame deflate via ``compress``) encodes messages into binary
        frames — batched by ``frame_messages``/``frame_bytes`` on a plain
        channel, or riding ``block_size`` when blocking is requested —
        and the channel's ``stats.bytes`` then count measured frame
        bytes, with the fixed-width model kept on ``stats.modeled_bytes``.
        ``delta_updates=True`` (differential method only) additionally
        sends per-column :class:`~repro.core.messages.UpdateDeltaMessage`
        deltas whenever the snapshot's value cache knows the previously
        transmitted row.
        """
        from repro.core.snapshot import STORAGE_PREFIX

        if (
            not self.db.catalog.has_table(base_table)
            and self.db.catalog.has_table(STORAGE_PREFIX + base_table)
        ):
            base_table = STORAGE_PREFIX + base_table
        table = self.db.table(base_table)
        definition = SnapshotDefinition(
            name, base_table, where, columns, method, join=join
        )
        right_table = (
            self.db.table(join.right_table) if join is not None else None
        )
        plan = compile_snapshot(definition, table, right_table=right_table)

        if plan.method is RefreshMethod.AUTO:
            from repro.query.plan import restriction_has_index

            selectivity = table.estimate_selectivity(plan.restriction)
            plan.method = self.cost_model.choose(
                max(table.row_count, 1),
                selectivity,
                expected_update_fraction,
                has_index=restriction_has_index(table, plan.restriction),
            )

        if plan.join_plan is not None:
            from repro.core.join import JoinFullRefresher

            refresher = JoinFullRefresher(table, plan.join_plan)
        elif plan.method is RefreshMethod.DIFFERENTIAL:
            if table.annotation_mode == "none":
                # R*: "the extra fields are added automatically to the
                # base table when the first snapshot using differential
                # refresh is created."
                table.enable_annotations("lazy")
            refresher: Any = DifferentialRefresher(
                table, optimize_deletes=optimize_deletes
            )
        elif plan.method is RefreshMethod.FULL:
            refresher = FullRefresher(table)
        elif plan.method is RefreshMethod.IDEAL:
            refresher = IdealRefresher(table)
        elif plan.method is RefreshMethod.LOG:
            refresher = LogRefresher(table)
        else:  # pragma: no cover - AUTO resolved above
            raise SnapshotError(f"unresolvable method {plan.method!r}")

        if delta_updates and not isinstance(refresher, DifferentialRefresher):
            raise SnapshotError(
                f"snapshot {name!r}: delta_updates requires the "
                f"differential refresh method (got {plan.method.value})"
            )

        site = target_db if target_db is not None else self.db
        # Managed snapshots always refresh inside epochs, so a stream
        # whose RefreshBegin was lost must fail loudly, not tear.
        snapshot_table = SnapshotTable(
            site, name, plan.value_schema, require_epochs=True
        )
        if channel is None:
            channel = Channel(name=f"{base_table}->{name}")
        codec = None
        if wire_format:
            from repro.net.wire import WireCodec

            codec = WireCodec(plan.value_schema, compress=compress)
        send_channel: Any = channel
        if block_size is not None:
            send_channel = BlockingChannel(
                channel, block_size=block_size, codec=codec
            )
            send_channel.attach(snapshot_table.receiver())
        else:
            if codec is not None:
                channel.enable_wire(
                    codec,
                    flush_messages=frame_messages,
                    flush_bytes=frame_bytes,
                )
            channel.attach(snapshot_table.receiver())

        info = SnapshotInfo(name, base_table, plan, snapshot_table)
        self.db.catalog.add_snapshot(info)
        handle = Snapshot(self, info, refresher, send_channel)
        if isinstance(refresher, DifferentialRefresher) and self.use_page_summaries:
            handle.page_mirror = PageMirror()
        if delta_updates:
            handle.value_mirror = ValueCache()
        self._handles[name] = handle

        if plan.method is RefreshMethod.LOG:
            # The log cannot reconstruct pre-existing contents (and may
            # not even contain them, e.g. after a bulk load): populate
            # once in full, then track the log from here.
            self._execute(handle, FullRefresher(table))
        elif initial_refresh:
            self.refresh(name)
        return handle

    # -- REFRESH SNAPSHOT --------------------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        try:
            return self._handles[name]
        except KeyError:
            raise SnapshotError(f"no such snapshot: {name!r}") from None

    def refresh(
        self, name: str, retry: Optional[RetryPolicy] = None
    ) -> RefreshResult:
        """Execute the stored refresh plan under a base-table lock.

        With a retry policy (per call, or the manager default), link and
        epoch failures abort the attempt — the receiver rolls its epoch
        back, so the snapshot stays at the old ``SnapTime`` — then the
        scan restarts after a backoff from that same unchanged
        ``SnapTime``.  The per-snapshot page-summary cache survives the
        failed attempt, so the retry fast-forwards over every page the
        first pass already proved clean.  Exhausting the policy raises
        :class:`~repro.errors.RetryExhaustedError`.
        """
        handle = self.snapshot(name)
        policy = retry if retry is not None else self.retry_policy
        if policy is None:
            return self._refresh_once(handle)
        attempts = 0
        waited = 0.0
        while True:
            attempts += 1
            try:
                result = self._refresh_once(handle)
            except RETRYABLE_ERRORS as error:
                if attempts >= policy.max_attempts:
                    raise RetryExhaustedError(
                        f"refresh of {name!r} failed after {attempts} "
                        f"attempts: {error}"
                    ) from error
                delay = policy.delay(attempts, self.db.clock.read())
                if policy.budget is not None:
                    remaining = policy.budget - waited
                    if remaining <= 0.0:
                        raise RetryExhaustedError(
                            f"refresh of {name!r} exhausted its retry budget "
                            f"({policy.budget}) after {attempts} attempts"
                        ) from error
                    # The last backoff is clamped to what is left of the
                    # budget instead of overshooting it: the budget is a
                    # cap on total waiting, not a per-delay admission test.
                    delay = min(delay, remaining)
                waited += policy.pause(delay)
                handle.retries += 1
                continue
            result.attempts = attempts
            result.retry_wait = waited
            return result

    def _refresh_once(self, handle: Snapshot) -> RefreshResult:
        """One attempt at the stored plan, by the method it names."""
        if isinstance(handle.refresher, DifferentialRefresher):
            return self._solo_pass(handle)
        return self._execute(handle, handle.refresher)

    def _execute(self, handle: Snapshot, refresher: Any) -> RefreshResult:
        """One epoch of a full, ideal, log or join refresh."""
        info = handle.info
        plan = info.plan
        owner = ("refresh", info.name)
        resource = ("table", info.base_table)
        with self.db.locks.locking(owner, resource, LockMode.X):
            try:
                epoch = self._begin_epoch(handle)
                args = (
                    info.snap_time,
                    plan.restriction,
                    plan.projection,
                    epoch.send,
                )
                if isinstance(refresher, LogRefresher):
                    result = refresher.refresh(
                        *args, from_lsn=info.last_refresh_lsn
                    )
                else:
                    result = refresher.refresh(*args)
                self._commit_epoch(
                    epoch, result.new_snap_time, self.db.wal.next_lsn
                )
            except Exception:
                self._abort_attempt(handle)
                raise
        return result

    # -- epochs ----------------------------------------------------------------

    def _begin_epoch(self, handle: Snapshot) -> _Epoch:
        """Open a receiver epoch; the caller already holds the table lock."""
        epoch = _Epoch(handle, self.db.clock.tick())
        handle.channel.send(RefreshBeginMessage(epoch.number))
        return epoch

    def _commit_epoch(
        self,
        epoch: _Epoch,
        new_snap_time: int,
        lsn: int,
        cursor: Optional[RefreshCursor] = None,
    ) -> None:
        """Send ``RefreshCommit`` and verify the receiver applied it.

        Raises on any doubt; the caller rolls back with
        :meth:`_abort_attempt`.  ``new_snap_time`` and ``lsn`` (the
        log's next LSN) name the cut the stream was taken at: writes
        committed since, a differential pass's after its seal included,
        are the next refresh's.  ``cursor`` is the differential pass's,
        whose staged page records commit with the epoch.
        """
        handle = epoch.handle
        info = handle.info
        handle.channel.send(RefreshCommitMessage(epoch.number, epoch.sent))
        handle.channel.flush()
        if info.snapshot_table.last_committed_epoch != epoch.number:
            # The stream "arrived" without error but the commit never
            # applied — a lossy link swallowed it.
            raise EpochError(
                f"snapshot {info.name!r}: epoch {epoch.number} was never "
                f"committed at the receiver (stream lost in transit)"
            )
        # The receiver applied the epoch: the values and the addresses
        # we staged this attempt are now truly its contents.
        if handle.value_mirror is not None:
            handle.value_mirror.commit()
        if cursor is not None:
            cursor.commit_pages()
        if sanitize.enabled():
            self._check_mirrors(handle)
        info.last_refresh_lsn = lsn
        info.snap_time = new_snap_time
        info.refresh_count += 1
        self._truncate_log(lsn)

    def _truncate_log(self, lsn: int) -> None:
        """Drop the base log below what a refresh still reads: the least
        ``last_refresh_lsn`` of the database's log-method snapshots, else
        ``lsn``, the cut a refresh just committed at.  Only log-method
        refresh reads the log (undo keeps each transaction's records)."""
        for info in self.db.catalog.snapshots():
            if info.plan.method is RefreshMethod.LOG:
                lsn = min(lsn, info.last_refresh_lsn)
        self.db.wal.truncate_before(lsn)

    def _abort_attempt(self, handle: Snapshot) -> None:
        """Roll back a failed refresh attempt on both sides of the link.

        Sender side: a blocking or wire-encoded channel may hold a
        partial frame of the torn stream — shipping that tail at the
        start of the next refresh would violate the receiver's ordering,
        so drop it — and the value cache's stage must be discarded (the
        receiver never applied those values, so believing them would
        send deltas against rows the other side does not have; the
        pass's staged page records die with its cursor likewise).
        Receiver side: discard the staged epoch (the site-local analog
        of the receiver noticing the connection died; a retried
        refresh's own RefreshBegin would do the same).
        """
        handle.channel.abort()
        if handle.value_mirror is not None:
            handle.value_mirror.abort()
        handle.info.snapshot_table.abort_epoch()
        if sanitize.enabled():  # both mirrors are still what the receiver has
            self._check_mirrors(handle)

    @staticmethod
    def _check_mirrors(handle: Snapshot) -> None:
        """Sanitizer: the sender's two mirrors describe the receiver, and
        no page written since the mirror's mark passes for settled."""
        if handle.value_mirror is not None:
            sanitize.check_value_cache(handle.value_mirror, handle.table)
        if handle.page_mirror is not None:
            sanitize.check_address_mirror(handle.page_mirror, handle.table)
            sanitize.check_sealed_mark(handle.page_mirror)

    # -- the differential pass -------------------------------------------------

    def _run_pass(
        self,
        handles: "list[Snapshot]",
        chunk_pages: Optional[int] = None,
        on_chunk_boundary: "Optional[Callable[[int], None]]" = None,
    ) -> "tuple[dict[str, RefreshResult], dict[str, BaseException]]":
        """One differential pass over snapshots of one base table.

        Every differential refresh is this routine: take the table lock,
        open one epoch per snapshot, build one cursor per epoch, run the
        scan driver, release the lock at the seal, then commit and
        verify each epoch.  Each snapshot keeps its own epoch, so a
        channel failure anywhere between its RefreshBegin and its
        verified commit aborts only that snapshot — the pass completes
        for the others and the failure is returned in the error map.
        ``chunk_pages`` makes the pass writer-concurrent: the lock is
        released between chunks, and ``on_chunk_boundary`` runs once
        more after the seal (:meth:`ScanPlan.after_seal`).

        The lock comes first in every mode, so a conflicting writer
        costs nothing on the channel: no Begin to roll back, no write
        observer to unhook.  It covers the scan, not the link: once the
        scan returns, every live stream up to its ``EndOfScan``, its
        queued repairs and its staged mark are sealed at the new
        ``SnapTime`` (``docs/invariants.md``, "Seal"), so delivery of
        the last frames, ``RefreshCommit``, the receiver's commit and
        the mirrors' commit run with writers let in.
        """
        base_table = handles[0].info.base_table
        if len(handles) == 1:
            owner: "tuple[str, str]" = ("refresh", handles[0].name)
        else:
            owner = ("refresh-group", base_table)
        resource = ("table", base_table)
        locks = self.db.locks
        held = False

        def acquire() -> None:
            nonlocal held
            if not held:
                locks.acquire(owner, resource, LockMode.X)
                held = True

        def release() -> None:
            nonlocal held
            if held:
                locks.release(owner, resource)
                held = False

        plan = None
        if chunk_pages is not None:
            plan = ScanPlan(chunk_pages, on_chunk_boundary, acquire, release)
        results: "dict[str, RefreshResult]" = {}
        errors: "dict[str, BaseException]" = {}
        acquire()
        try:
            epochs: "list[_Epoch]" = []
            cursors: "list[RefreshCursor]" = []
            try:
                for handle in handles:
                    try:
                        epoch = self._begin_epoch(handle)
                    except ChannelError as error:
                        self._abort_attempt(handle)
                        errors[handle.name] = error
                        continue
                    refresher = handle.refresher
                    epochs.append(epoch)
                    cursors.append(
                        RefreshCursor(
                            handle.info.snap_time,
                            handle.restriction,
                            handle.projection,
                            epoch.send,
                            cache=handle.page_mirror,
                            optimize_deletes=refresher.optimize_deletes,
                            name=handle.name,
                            value_cache=handle.value_mirror,
                        )
                    )
                if not cursors:
                    return results, errors
                sealed = run_refresh_scan(
                    self.db.table(base_table), cursors, plan=plan
                )
                # The seal: each epoch's contents are its (repaired)
                # stream, a cut at its new SnapTime and at this LSN.
                lsn = self.db.wal.next_lsn
                release()
                if plan is not None:
                    plan.after_seal(sealed.chunks_scanned)
            except Exception:
                for handle in handles:
                    self._abort_attempt(handle)
                raise
            for epoch, cursor in zip(epochs, cursors):
                error = cursor.error
                if error is None:
                    try:
                        self._commit_epoch(
                            epoch, cursor.result.new_snap_time, lsn, cursor
                        )
                    except ChannelError as commit_error:
                        error = commit_error
                if error is None:
                    results[epoch.handle.name] = cursor.result
                else:
                    self._abort_attempt(epoch.handle)
                    errors[epoch.handle.name] = error
        finally:
            release()
        return results, errors

    def _solo_pass(
        self,
        handle: Snapshot,
        chunk_pages: Optional[int] = None,
        on_chunk_boundary: "Optional[Callable[[int], None]]" = None,
    ) -> RefreshResult:
        """A pass of one: the snapshot's error is raised, not returned."""
        results, errors = self._run_pass(
            [handle], chunk_pages, on_chunk_boundary
        )
        for error in errors.values():
            raise error
        return results[handle.name]

    def refresh_online(
        self,
        name: str,
        chunk_pages: int = 4,
        on_chunk_boundary: "Optional[Callable[[int], None]]" = None,
    ) -> RefreshResult:
        """Refresh a differential snapshot without locking out writers.

        The scan runs in watermark-bracketed chunks of ``chunk_pages``
        heap pages; between chunks the base-table X lock is released and
        ``on_chunk_boundary(chunks)`` runs — the deterministic
        simulation's stand-in for concurrent writer commits — with
        ``chunks`` the chunks scanned so far.  Writes landing in those
        windows are detected by the heap's write watermark and merged
        into the stream (see
        :func:`~repro.core.differential.run_refresh_scan`).  The lock is
        released for good at the seal, when the last chunk's stream is
        built, and ``on_chunk_boundary(result.chunks_scanned)`` runs once
        more there, before the epoch commits.  So once this returns the
        snapshot equals the base table as of the seal, its new
        ``SnapTime``; a write in that last window reaches it on the next
        refresh.
        """
        handle = self.snapshot(name)
        if not isinstance(handle.refresher, DifferentialRefresher):
            raise SnapshotError(
                f"snapshot {name!r} uses {handle.method.value!r} refresh; "
                f"online (chunked) refresh requires the differential method"
            )
        return self._solo_pass(handle, chunk_pages, on_chunk_boundary)

    # -- anti-entropy --------------------------------------------------------

    def verify_snapshot(self, name: str) -> "tuple[bool, Any]":
        """Root-hash comparison of a snapshot against its base restriction.

        One :class:`~repro.core.messages.SegmentHashRequestMessage` /
        response exchange over the whole address space: a match proves
        (to digest strength) the snapshot equals the current restriction
        of its base; a mismatch reports drift without locating it.
        Returns ``(in_sync, stats)``.
        """
        from repro.core.antientropy import AntiEntropySession

        handle = self.snapshot(name)
        info = handle.info
        owner = ("antientropy", info.name)
        resource = ("table", info.base_table)
        with self.db.locks.locking(owner, resource, LockMode.S):
            session = AntiEntropySession(
                self.db.table(info.base_table),
                handle.restriction,
                handle.projection,
                info.snapshot_table,
            )
            in_sync = session.verify()
        return in_sync, session.stats

    def resync_snapshot(self, name: str, leaf_pages: int = 1) -> Any:
        """Hash-bisection repair of a drifted snapshot.

        Bisects the address space down to ``leaf_pages``-wide segments,
        repairing only mismatched leaves over the snapshot's channel —
        the minimal-traffic alternative to re-running a full refresh
        when the receiver drifted outside the protocol (restored backup,
        lost epoch, operator surgery).  The snapshot's ``SnapTime`` is
        deliberately left unchanged: repair restores state, it performs
        no change scan.  Returns the session's stats.
        """
        from repro.core.antientropy import AntiEntropySession

        handle = self.snapshot(name)
        info = handle.info
        owner = ("antientropy", info.name)
        resource = ("table", info.base_table)
        with self.db.locks.locking(owner, resource, LockMode.X):
            def ship(message: Any) -> None:
                handle.channel.send(message)

            table = self.db.table(info.base_table)
            if table.annotation_mode == "lazy":
                # A resync chains what it publishes: a row shipped with
                # a NULL PrevAddr could leave again unseen by Figure 7.
                base_fixup(table)
            session = AntiEntropySession(
                table,
                handle.restriction,
                handle.projection,
                info.snapshot_table,
                send=ship,
                leaf_pages=leaf_pages,
            )
            stats = session.resync()
            handle.channel.flush()
            if stats.leaves_repaired:
                # Repairs rewrote receiver rows.  After a converged
                # resync the receiver equals the sender's restriction
                # everywhere, so the session's full mirror is exact and
                # both sender-side mirrors adopt it: else later column
                # deltas would merge against rows the receiver no longer
                # holds, and a row published here and gone before the
                # next refresh would never be taken back.
                pages = session.repaired_pages()
                if handle.value_mirror is not None:
                    handle.value_mirror.pages = pages
                    handle.value_mirror.staged = None
                if handle.page_mirror is not None:
                    adopt_holdings(
                        handle.page_mirror, pages, table.heap.page_count
                    )
            if sanitize.enabled():
                self._check_mirrors(handle)
                sanitize.check_anti_entropy(
                    table,
                    handle.restriction,
                    handle.projection,
                    info.snapshot_table,
                )
        return stats

    # -- group refresh -----------------------------------------------------------

    def refresh_many(
        self,
        names: "Sequence[str]",
        retry: Optional[RetryPolicy] = None,
        group: bool = True,
    ) -> RefreshAllResult:
        """Refresh several snapshots, coalescing shared-scan groups.

        Differential snapshots of the same base table ride **one**
        address-order pass (the shared-scan group refresh); every other
        snapshot — and any group of one — refreshes solo.  Failures are
        isolated per snapshot: a dead link or exhausted retry budget is
        recorded in the result's ``errors`` map and the batch continues.
        With a retry policy (per call, or the manager default), a
        snapshot that failed its group pass retries solo under that
        policy — or simply joins the next group pass, since its
        ``SnapTime`` and page cache are exactly where the failed attempt
        left them.
        """
        ordered = [self.snapshot(name) for name in names]
        policy = retry if retry is not None else self.retry_policy
        done: "dict[str, RefreshResult]" = {}
        failed: "dict[str, BaseException]" = {}

        solo: "list[Snapshot]" = []
        by_base: "dict[str, list[Snapshot]]" = {}
        for handle in ordered:
            if group and isinstance(handle.refresher, DifferentialRefresher):
                by_base.setdefault(handle.info.base_table, []).append(handle)
            else:
                solo.append(handle)
        for base, handles in list(by_base.items()):
            if len(handles) == 1:
                solo.append(handles[0])
                del by_base[base]

        def retry_solo(name: str, error: BaseException) -> None:
            if policy is None:
                failed[name] = error
                return
            try:
                done[name] = self.refresh(name, retry=policy)
            except ISOLATED_ERRORS as retry_error:
                failed[name] = retry_error

        for base, handles in by_base.items():
            results, errors = self._run_pass(handles)
            done.update(results)
            for name, error in errors.items():
                retry_solo(name, error)
        for handle in solo:
            try:
                done[handle.name] = self.refresh(handle.name, retry=retry)
            except ISOLATED_ERRORS as error:
                failed[handle.name] = error

        out = RefreshAllResult()
        for handle in ordered:
            if handle.name in done:
                out[handle.name] = done[handle.name]
            elif handle.name in failed:
                out.errors[handle.name] = failed[handle.name]
        return out

    def refresh_all(
        self,
        base_table: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        group: bool = True,
    ) -> RefreshAllResult:
        """Refresh every snapshot (optionally: of one base table).

        Differential snapshots sharing a base table are served by one
        shared-scan pass (``group=False`` restores independent scans);
        per-snapshot failures are recorded in the returned map's
        ``errors`` instead of aborting the remaining snapshots.
        """
        names = [info.name for info in self.db.catalog.snapshots(base_table)]
        return self.refresh_many(names, retry=retry, group=group)

    # -- FLEET DRAIN ---------------------------------------------------------------

    def drain_registry(
        self,
        registry: SnapshotRegistry,
        retry: Optional[RetryPolicy] = None,
    ) -> "FleetDrainResult":
        """Refresh every due snapshot of ``registry``, a cohort a pass.

        Loops until :meth:`SnapshotRegistry.next_cohort` finds nothing
        due: each cohort rides one :meth:`refresh_many` call (its
        members share a base table, so one shared-scan pass), and each
        member is marked refreshed or failed.  A drain offers every due
        member once: failures are marked only after the loop, so a
        member whose link stays down is due again for the *next* drain
        instead of being retaken by this one until the link returns.  An
        unexpected error from a pass marks that cohort's members failed
        too, then propagates.
        """
        drain = FleetDrainResult()
        try:
            while (cohort := registry.next_cohort()) is not None:
                try:
                    outcomes = self.refresh_many(cohort.members, retry=retry)
                except BaseException as error:
                    drain.errors.update(dict.fromkeys(cohort.members, error))
                    raise
                for name, result in outcomes.items():
                    registry.mark_refreshed(name, result.entries_sent)
                drain.refreshed += len(outcomes)
                drain.cohorts += 1
                drain.errors.update(outcomes.errors)
        finally:
            for name, error in drain.errors.items():
                registry.mark_failed(name, error)
        return drain

    # -- DROP SNAPSHOT --------------------------------------------------------------

    def drop_snapshot(self, name: str) -> None:
        """Remove the snapshot: catalog entry, channel, and its storage.

        The receiver's hidden storage table (``$SNAP$<name>``) is
        dropped too, which discards its buffered frames and cached
        batches — before this, a dropped snapshot leaked its pages in
        the receiver site's buffer pool forever.
        """
        handle = self.snapshot(name)
        self.db.catalog.drop_snapshot(name)
        del self._handles[name]
        channel = handle.channel
        inner = channel.inner if isinstance(channel, BlockingChannel) else channel
        inner.detach()
        snapshot_table = handle.info.snapshot_table
        site = snapshot_table.db
        storage_name = snapshot_table.storage.name
        if site.has_table(storage_name):
            site.drop_table(storage_name)

    def snapshots(self) -> "list[Snapshot]":
        return list(self._handles.values())
