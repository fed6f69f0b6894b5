"""Shared-scan group refresh: one base-table pass serves N snapshots.

The paper's refresh is a single sequential scan of the base table; with
a fleet of snapshots per base table, running that scan once *per
snapshot* costs N scans, N fix-up passes, and N rounds of decoding the
same entries.  A :class:`GroupRefresher` amortizes the pass: every
pending snapshot contributes a :class:`~repro.core.cursor.RefreshCursor`
(its ``SnapTime``, ``LastQual``, ``Deletion`` flag, compiled restriction,
and output channel) and one address-order scan serves them all —

- Figure 7 fix-up is applied to the base table exactly once per pass,
  regardless of fan-out; the annotations are shared state, so repairing
  them for one reader repairs them for every reader;
- each entry is partial-decoded once over the **union** of all
  restrictions' columns, then evaluated per cursor on that one decode
  (full-row decode happens at most once per entry, shared between
  transmitting cursors);
- page-summary skipping generalizes per snapshot: a page skippable for
  a *subset* of cursors fast-forwards only those cursors from their
  :class:`~repro.storage.summary.PageQualInfo` caches while the scan
  proceeds for the rest, so one stale snapshot does not drag every
  fresh one back to a full scan;
- a :class:`~repro.errors.ChannelError` on one cursor's output fails
  only that cursor; the pass completes for the others.

The invariant that makes this safe: **every per-snapshot output stream
is byte-identical to a solo**
:class:`~repro.core.differential.DifferentialRefresher` **run at the
same ``SnapTime``** (asserted by the group-refresh hypothesis property,
page summaries on and off, fix-up lazy and eager).  The skip decision
uses exactly the solo conditions — per-cursor content staleness plus
the shared fix-up state at the page boundary — so a cursor
fast-forwards precisely when its own solo run would have skipped, and
a validly skipped page is provably one the shared fix-up will not
touch.

The :class:`~repro.core.manager.SnapshotManager` runs the same driver
(:func:`~repro.core.differential.run_refresh_scan`) for every
differential refresh — ``refresh`` is a pass of one cursor,
``refresh_all``/``refresh_many`` a pass of N with per-snapshot epochs,
so a failed cursor aborts only its own epoch — and the scheduler's
coalescing window batches almost-due snapshots onto one pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cursor import RefreshCursor, RefreshResult
from repro.core.differential import ScanPlan, run_refresh_scan
from repro.errors import RefreshMethodError
from repro.table import Table


class GroupRefreshResult:
    """Outcome of one shared-scan pass over a group of cursors.

    ``per_snapshot`` maps cursor name to its own
    :class:`~repro.core.cursor.RefreshResult` (traffic counters,
    pages it scanned or fast-forwarded); ``errors`` maps failed cursors
    to the channel error that killed them.  ``pass_result`` carries the
    pass-level costs paid once for the whole group — pages read, rows
    decoded, fix-up writes — plus totals of the per-cursor counters.
    """

    def __init__(self) -> None:
        self.pass_result = RefreshResult()
        self.per_snapshot: "dict[str, RefreshResult]" = {}
        self.errors: "dict[str, BaseException]" = {}
        #: Spread between the oldest and newest SnapTime riding the pass
        #: (0 for a solo pass).  Cohort clustering bounds this by banding
        #: staleness: a tight spread means the riders skip and decode
        #: nearly the same page set, which is what makes sharing cheap.
        self.snap_time_spread = 0

    @property
    def cursors_served(self) -> int:
        """Cursors whose stream completed (failed ones excluded)."""
        return len(self.per_snapshot)

    @property
    def decode_savings(self) -> float:
        """Restriction evaluations per entry decoded.

        A pass decodes an entry once however many cursors ride it.  On
        a first refresh (or without page summaries) every cursor
        evaluates every entry, so the ratio is the number of cursors:
        the fan-out amortization.  Afterwards a cursor evaluates only
        the entries newer than its ``SnapTime``, and the ratio falls
        below that — below 1.0 where pages are read whole for a few
        changed entries.
        """
        if self.pass_result.rows_decoded == 0:
            return 0.0
        return (
            self.pass_result.entries_evaluated / self.pass_result.rows_decoded
        )

    def __repr__(self) -> str:
        return (
            f"GroupRefreshResult(cursors={self.cursors_served}, "
            f"failed={len(self.errors)}, "
            f"pages={self.pass_result.pages_scanned}"
            f"+{self.pass_result.pages_skipped}skip, "
            f"decoded={self.pass_result.rows_decoded}, "
            f"evaluated={self.pass_result.entries_evaluated})"
        )


class GroupRefresher:
    """Executes shared-scan refreshes of one base table.

    Stateless between calls: all per-snapshot state arrives on the
    cursors, all change state lives in the base table's annotations.
    The pass keeps page summaries iff some cursor holds a page cache;
    a cursor without one never skips (which is how a group mixes
    summary-on and summary-off snapshots without changing any stream).
    """

    #: The scan each pass runs (the per-row reference's subclass runs
    #: its own).
    _scan = staticmethod(run_refresh_scan)

    def __init__(self, table: Table) -> None:
        if not table.has_annotations:
            raise RefreshMethodError(
                f"group differential refresh requires annotations on "
                f"{table.name!r}"
            )
        self.table = table

    def refresh_group(
        self,
        cursors: "Sequence[RefreshCursor]",
        fixup: Optional[bool] = None,
        plan: Optional[ScanPlan] = None,
    ) -> GroupRefreshResult:
        """One combined fix-up + refresh pass serving every cursor.

        Channel failures are isolated per cursor: the failed cursor is
        reported under ``errors`` (its epoch is the caller's to abort)
        and the pass keeps serving the rest.  ``plan`` makes the pass
        writer-concurrent (see
        :class:`~repro.core.differential.ScanPlan`; its window after the
        seal runs before the page records commit).  The caller is
        responsible for holding the table-level lock.
        """
        outcome = GroupRefreshResult()
        if not cursors:
            return outcome
        outcome.pass_result = self._scan(self.table, cursors, fixup=fixup, plan=plan)
        if plan is not None:
            plan.after_seal(outcome.pass_result.chunks_scanned)
        snap_times = [cursor.snap_time for cursor in cursors]
        outcome.snap_time_spread = max(snap_times) - min(snap_times)
        for index, cursor in enumerate(cursors):
            name = cursor.name if cursor.name is not None else str(index)
            if cursor.error is not None:
                outcome.errors[name] = cursor.error
            else:
                cursor.commit_pages()  # its synchronous stream completed
                outcome.per_snapshot[name] = cursor.result
        return outcome
