"""The snapshot table and its refresh-message receiver (Figure 4).

A :class:`SnapshotTable` is "a read-only table whose contents are
extracted from other tables": it stores the projected values plus a
hidden ``$BASEADDR$`` column ("the entries in the snapshot table are
extended to include a field containing the address of the corresponding
entry in the base table"), and keeps a B+tree index on BaseAddr — "a
snapshot index on BaseAddr will accelerate snapshot refresh processing".

The receiver implements the paper's apply rules:

- ``EntryMessage(addr, prev, value)`` — delete every entry with BaseAddr
  in the open interval ``(prev, addr)``, then update the entry at
  ``addr`` if present, else insert it;
- ``UpdateDeltaMessage(addr, prev, mask, values)`` — same interval
  delete, then merge just the masked columns into the entry at ``addr``
  (which the sender's value cache guarantees exists — a miss is a
  protocol violation, not a quiet insert);
- ``EndOfScanMessage(last_qual)`` — delete every entry beyond
  ``last_qual`` (covers deletions at the end of the base table);
- ``SnapTimeMessage(t)`` — adopt ``t`` as the snapshot's new SnapTime;
- plus the baseline message kinds (clear/full-row/upsert/delete/range).

**Refresh epochs.**  A ``RefreshBeginMessage`` opens an *epoch*: every
subsequent message is staged instead of applied, and the matching
``RefreshCommitMessage`` applies the whole stage atomically.  What the
stage alone decides is checked before the first storage write — the
commit's message count must match what was staged (a lossy link is
detected, not committed), every kind must be known and ``SnapTime`` may
not go backward — and a failed check aborts the epoch with the previous
one still visible.  A new Begin, or :meth:`SnapshotTable.abort_epoch`,
discards a torn stage, so an interrupted refresh can simply be retried;
duplicate deliveries of one message object within an epoch are ignored.
Messages *outside* any epoch apply immediately (ASAP push propagation,
standalone receivers) unless the table was built with
``require_epochs=True`` — as the :class:`~repro.core.manager.SnapshotManager`
does — which makes them a hard :class:`~repro.errors.EpochError`, so a
dropped Begin cannot silently tear the snapshot.

**Net change.**  A commit writes what changed, not what was sent.
Deletes leave the BaseAddr index at once but reach storage only when the
commit ends, so an upsert of an address deleted earlier in the stage (a
repaired page is wiped and re-sent whole) rewrites the row where it lies;
an upsert whose values the stored row already holds — most entries are
re-sent only because the gap before them moved — writes nothing; and an
address that arrives while another leaves takes the departed entry's
row, one rewrite where a delete and an insert were.  Revival comes
first: a row whose address the stage upserts is never given away, so a
re-sent row keeps its heap address and bytes.  Where a snapshot row lies
in storage is the receiver's choice; the BaseAddr index is the truth.
Visible contents equal the message-by-message replay, which is the same
routine run on one message at a time.

Storage is a real :class:`~repro.table.Table` (named ``$SNAP$<name>`` in
the site's catalog) with **lazy annotations**, so the paper's "snapshots
can serve as base tables for other snapshots" works: a cascaded
differential snapshot can be defined directly over
:attr:`SnapshotTable.storage`, and the receiver's upserts and deletes
leave exactly the NULL-annotation breadcrumbs the downstream fix-up
expects.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from repro import sanitize
from repro.core import messages as msg
from repro.errors import EpochError, SnapshotError
from repro.relation.row import Row
from repro.relation.schema import Column, Schema
from repro.relation.types import RidType
from repro.storage.btree import BPlusTree
from repro.storage.rid import Rid

#: Hidden column holding the base-table address of each snapshot entry.
BASEADDR = "$BASEADDR$"

#: Catalog-name prefix for snapshot storage tables.
STORAGE_PREFIX = "$SNAP$"


#: Kinds that store a whole row at their address: what may revive a
#: doomed row (a delta never does).
_UPSERT_TAGS = frozenset(
    (msg.EntryMessage.TAG, msg.UpsertMessage.TAG, msg.FullRowMessage.TAG)
)


class _Epoch:
    """One open refresh epoch: its id and the staged message stream."""

    __slots__ = ("epoch", "staged", "seen")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.staged: "list[Any]" = []
        # Identities of staged (live) objects: duplicate deliveries of
        # the same message within the epoch are ignored.
        self.seen: "set[int]" = set()


class SnapshotTable:
    """Materialized snapshot contents at (typically) a remote site."""

    def __init__(
        self,
        db: Any,
        name: str,
        value_schema: Schema,
        require_epochs: bool = False,
    ) -> None:
        if BASEADDR in value_schema:
            raise SnapshotError(
                "snapshot value schema may not use the reserved BaseAddr name"
            )
        self.db = db
        self.name = name
        self.value_schema = value_schema
        stored_schema = value_schema.with_columns(
            [Column(BASEADDR, RidType(), nullable=False, hidden=True)]
        )
        #: The real table holding the snapshot rows.  Lazily annotated,
        #: so this snapshot can be the base table of another snapshot.
        self.storage = db.create_table(
            STORAGE_PREFIX + name, stored_schema, annotations="lazy"
        )
        self.schema = self.storage.schema
        # BaseAddr (as a sortable key) -> snapshot-heap RID.
        self._index = BPlusTree(order=64)
        #: Base-table time this snapshot reflects (0 = never refreshed).
        self.snap_time = 0
        #: Storage writes performed: rows written, rows deleted, and how
        #: many of the written rows merged an UpdateDeltaMessage.
        self.applied_upserts = 0
        self.applied_deletes = 0
        self.applied_merges = 0
        #: Upserts and deltas whose values the stored row already held.
        self.skipped_upserts = 0
        # BaseAddr key -> heap RID of entries deleted from the index but
        # not yet from storage (see _flush_doomed).
        self._doomed: "dict[Any, Rid]" = {}
        # The messages being applied, and — built by the first arrival
        # that meets a doomed row (_spare_key) — the keys they upsert
        # and the doomed keys outside them, most recently doomed last.
        self._stage: "list[Any]" = []
        self._revivable: "Optional[set[Any]]" = None
        self._spare: "list[Any]" = []
        #: When True, refresh data arriving outside an epoch is an error.
        self.require_epochs = require_epochs
        self._epoch: "Optional[_Epoch]" = None
        #: Epoch id of the last committed refresh (0 = none yet).
        self.last_committed_epoch = 0
        self.committed_epochs = 0
        #: Epochs discarded without committing (torn or lossy streams).
        self.aborted_epochs = 0
        #: Sanitizer baseline: the visible-state fingerprint taken when
        #: the open epoch began (``None`` when no epoch is being watched).
        self._sanitize_baseline: "Optional[tuple]" = None

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"SnapshotTable({self.name}, rows={len(self)}, time={self.snap_time})"

    # -- storage helpers ------------------------------------------------------

    def _upsert(
        self, base_addr: Rid, values: Tuple, positions: "Optional[list[int]]" = None
    ) -> None:
        """Make the entry at ``base_addr`` hold ``values``; write only if
        that changes it.

        With ``positions`` (an :class:`~repro.core.messages.UpdateDeltaMessage`)
        just those columns are overlaid.  The sender emits a delta only
        when its value cache says this address was transmitted before,
        so the entry must exist (one doomed earlier in the commit does
        not): a miss means the two sides' caches diverged, and applying
        the delta would fabricate NULLs for the unsent columns.
        """
        self._put(base_addr, self._index.get(base_addr.key()), values, positions)

    def _put(
        self,
        base_addr: Rid,
        heap_rid: Optional[Rid],
        values: Tuple,
        positions: "Optional[list[int]]" = None,
    ) -> None:
        """:meth:`_upsert`, the entry's heap RID (``None``: no entry)
        already looked up.

        An address with no entry gets back its own row if the commit
        doomed one (revived: same heap RID, rewritten only if its values
        moved).  Otherwise it *arrives*: it takes the row of an entry
        that left in this commit (:meth:`_spare_key`) and is written
        there by one rewrite — counted as that entry's delete and its
        own upsert — or, with none to take, is inserted.
        """
        key = base_addr.key()
        if positions is not None:
            if heap_rid is None:
                raise SnapshotError(
                    f"snapshot {self.name!r}: update delta for {base_addr} "
                    f"but no entry exists; sender value cache out of sync"
                )
        else:
            values = (*values, base_addr)  # the stored row: BaseAddr is last
            if heap_rid is None:
                heap_rid = self._doomed.pop(key, None)
                if heap_rid is None:
                    self._arrive(key, values)
                    return
                self._index.insert(key, heap_rid)  # revived: same heap RID
        new_rid = None
        if values:
            new_rid = self.storage.system_update_values(heap_rid, values, positions)
        if new_rid is None:
            self.skipped_upserts += 1
            return
        if new_rid != heap_rid:  # relocated on page overflow
            self._index.insert(key, new_rid)
        self.applied_upserts += 1
        self.applied_merges += positions is not None

    def _arrive(self, key: Any, values: Tuple) -> None:
        """Store the row ``values`` of an address with no row: in a
        departed entry's row if the commit has one to give, else in a
        new one."""
        spare = self._spare_key()
        if spare is None:
            heap_rid = self.storage.system_insert_values(values)
        else:
            old_rid = self._doomed[spare]
            # Never a no-op (the BaseAddr differs); a relocation moves it.
            heap_rid = self.storage.system_update_values(old_rid, values) or old_rid
            del self._doomed[spare]  # only once written: else flushed
            self.applied_deletes += 1  # the departed entry left
        self._index.insert(key, heap_rid)
        self.applied_upserts += 1

    def _spare_key(self) -> Any:
        """The key of the most recently doomed entry whose address the
        stage does not upsert, taken off the spare stack; ``None`` if
        there is none.

        Revival comes first: a doomed row an upsert of the stage may
        still claim is never given away.  The stage's upserted keys are
        gathered by the first arrival that meets a doomed row, so a
        commit that does not pair (a populate dooms nothing) pays
        nothing for them.
        """
        if not self._doomed:
            return None
        if self._revivable is None:
            revivable = self._revivable = {
                message.addr.key()
                for message in self._stage
                if message.TAG in _UPSERT_TAGS
            }
            self._spare = [k for k in self._doomed if k not in revivable]
        return self._spare.pop() if self._spare else None

    def _condemn(self, removed: "Iterable[Tuple[Any, Rid]]") -> None:
        """Add the index's ``(key, heap RID)`` pairs ``removed`` to the
        doomed rows, and to the spare stack once :meth:`_spare_key` has
        built it."""
        revivable = self._revivable
        if revivable is None:
            self._doomed.update(removed)
            return
        for key, heap_rid in removed:
            self._doomed[key] = heap_rid
            if key not in revivable:
                self._spare.append(key)

    def _doom(self, lo: Rid, hi: Optional[Rid], closed: bool = False) -> None:
        """Delete entries with ``lo < BaseAddr < hi`` (``hi=None``:
        unbounded; ``closed``: ends included) from the index; the rows
        stay in storage, revivable, until :meth:`_flush_doomed`."""
        hi_key = hi.key() if hi is not None else None
        self._condemn(self._index.delete_range(lo.key(), hi_key, closed, closed))

    def _doom_before(self, prev_qual: Rid, addr: Rid) -> Optional[Rid]:
        """Doom the entries strictly between ``prev_qual`` and ``addr``
        (:meth:`_doom`); return ``addr``'s heap RID, if it has an entry:
        one index descent for both when nothing lies between."""
        heap_rid: Optional[Rid]
        removed, heap_rid = self._index.delete_between(
            prev_qual.key(), addr.key()
        )
        if removed:
            self._condemn(removed)
        return heap_rid

    def _flush_doomed(self) -> None:
        """Delete from storage every doomed entry no upsert revived or
        arrival took, and forget the stage."""
        for heap_rid in self._doomed.values():
            self.storage.system_delete(heap_rid)
        self.applied_deletes += len(self._doomed)
        self._doomed.clear()
        self._stage, self._revivable, self._spare = [], None, []

    # -- receiver --------------------------------------------------------------

    def apply(self, message: Any) -> None:
        """Receive one refresh message (Figure 4 semantics, epoch-guarded).

        Inside an open epoch, data messages stage; ``RefreshBegin`` and
        ``RefreshCommit`` drive the epoch state machine.  Outside any
        epoch, data applies immediately unless ``require_epochs``.
        """
        if isinstance(message, msg.RefreshBeginMessage):
            if self._epoch is not None:
                if self._epoch.epoch == message.epoch:
                    return  # duplicate delivery of the Begin itself
                # A new refresh attempt supersedes a torn stream.
                self.abort_epoch()
            self._epoch = _Epoch(message.epoch)
            if sanitize.enabled():
                self._sanitize_baseline = sanitize.visible_fingerprint(self)
            return
        if isinstance(message, msg.RefreshCommitMessage):
            self._commit_epoch(message)
            return
        if self._epoch is not None:
            if id(message) in self._epoch.seen:
                return  # duplicate delivery within the epoch
            self._epoch.seen.add(id(message))
            self._epoch.staged.append(message)
            return
        if self.require_epochs:
            raise EpochError(
                f"snapshot {self.name!r}: refresh message outside an epoch "
                f"({message!r}); the RefreshBegin was lost"
            )
        self._apply_now([message])

    def _commit_epoch(self, message: "msg.RefreshCommitMessage") -> None:
        if self._epoch is None:
            if message.epoch == self.last_committed_epoch:
                return  # duplicate delivery of an already-applied commit
            raise EpochError(
                f"snapshot {self.name!r}: commit for epoch {message.epoch} "
                f"but none is open"
            )
        if message.epoch != self._epoch.epoch:
            self.abort_epoch()
            raise EpochError(
                f"snapshot {self.name!r}: commit for epoch {message.epoch} "
                f"does not match the open epoch"
            )
        staged = self._epoch.staged
        if message.count != len(staged):
            self.abort_epoch()
            raise EpochError(
                f"snapshot {self.name!r}: epoch {message.epoch} committed "
                f"{message.count} messages but {len(staged)} arrived; "
                f"stream was lossy — rolled back"
            )
        if sanitize.enabled():
            # Nothing may have reached visible state while staging.
            sanitize.check_epoch_isolation(self)
        # Closed either way — and the stage's dedupe set is freed before
        # storage grows (it was 3 % of peak RSS on a 100k-row populate).
        self._epoch = None
        self._sanitize_baseline = None
        try:
            self._apply_now(staged)
        except Exception:
            # Failed validation wrote nothing; a protocol break found
            # mid-way (a delta miss) is torn.  Neither is a commit.
            self.aborted_epochs += 1
            raise
        self.last_committed_epoch = message.epoch
        self.committed_epochs += 1

    def abort_epoch(self) -> bool:
        """Discard the open epoch's staged messages, if any.

        The snapshot is untouched — staging means nothing was applied.
        Returns whether an epoch was actually open.  Called by the
        sender's failure path (the site-local analog of a receiver
        noticing the connection died); a retried refresh's own
        ``RefreshBegin`` has the same effect.
        """
        if self._epoch is None:
            return False
        self._epoch = None
        self._sanitize_baseline = None
        self.aborted_epochs += 1
        return True

    @property
    def epoch_open(self) -> bool:
        return self._epoch is not None

    @property
    def staged_messages(self) -> int:
        """Messages staged in the open epoch (0 when none is open)."""
        return len(self._epoch.staged) if self._epoch is not None else 0

    def _apply_now(self, messages: "list[Any]") -> None:
        """Apply ``messages`` to storage as one net change (Figure 4).

        What the messages alone decide — their kinds, SnapTime never
        going backward — is checked before the first write.  Deletes
        are deferred (:meth:`_doom`) so a later upsert of the same
        address rewrites the row where it lies and an arriving address
        takes a departed one's row (:meth:`_put`); what is left is
        flushed once at the end.  A list of one message is the paper's
        sequential receiver.
        """
        time = self.snap_time
        for message in messages:
            tag = getattr(message, "TAG", None)
            if tag not in self._APPLY:
                raise SnapshotError(f"unknown refresh message: {message!r}")
            if tag == msg.SnapTimeMessage.TAG:
                if message.time < time:
                    raise SnapshotError(
                        f"snapshot time went backward: {message.time} < {time}"
                    )
                time = message.time
        self._stage = messages
        try:
            for message in messages:
                self._APPLY[message.TAG](self, message)
        finally:
            self._flush_doomed()
        if sanitize.enabled():
            sanitize.check_storage_index(self, messages)
            sanitize.check_free_map(self.storage.heap)

    def _on_entry(self, message: "msg.EntryMessage") -> None:
        addr = message.addr
        heap_rid = self._doom_before(message.prev_qual, addr)
        self._put(addr, heap_rid, message.values)

    def _on_delta(self, message: "msg.UpdateDeltaMessage") -> None:
        addr = message.addr
        heap_rid = self._doom_before(message.prev_qual, addr)
        self._put(addr, heap_rid, message.values, message.positions())

    def _on_end_of_scan(self, message: "msg.EndOfScanMessage") -> None:
        self._doom(message.last_qual, None)

    def _on_snap_time(self, message: "msg.SnapTimeMessage") -> None:
        self.snap_time = message.time

    def _on_delete_range(self, message: "msg.DeleteRangeMessage") -> None:
        self._doom(message.lo, message.hi)

    def _on_upsert(self, message: Any) -> None:  # Upsert and FullRow
        self._upsert(message.addr, message.values)

    def _on_delete(self, message: "msg.DeleteMessage") -> None:
        self._doom(message.addr, message.addr, closed=True)

    def _on_clear(self, message: "msg.ClearMessage") -> None:
        self._condemn(self._index.items())
        self._index = BPlusTree(order=64)

    #: The one dispatch: wire ``TAG`` -> apply rule.
    _APPLY: "dict[int, Callable[[SnapshotTable, Any], None]]" = {
        msg.EntryMessage.TAG: _on_entry,
        msg.UpdateDeltaMessage.TAG: _on_delta,
        msg.EndOfScanMessage.TAG: _on_end_of_scan,
        msg.SnapTimeMessage.TAG: _on_snap_time,
        msg.DeleteRangeMessage.TAG: _on_delete_range,
        msg.UpsertMessage.TAG: _on_upsert,
        msg.FullRowMessage.TAG: _on_upsert,
        msg.DeleteMessage.TAG: _on_delete,
        msg.ClearMessage.TAG: _on_clear,
    }

    def receiver(self) -> "Callable[[Any], None]":
        """A callback suitable for :meth:`repro.net.channel.Channel.attach`."""
        return self.apply

    # -- reads -------------------------------------------------------------------

    def _visible_row(self, heap_rid: Rid) -> Row:
        full = self.storage.read(heap_rid, visible=False)
        return Row(full.values[: len(self.value_schema)])

    def rows(self) -> "list[Row]":
        """Visible snapshot rows, ordered by base address."""
        if sanitize.enabled():
            sanitize.check_epoch_isolation(self)
        return [self._visible_row(rid) for _, rid in self._index.items()]

    def entries(self) -> "Iterator[tuple[Rid, Row]]":
        """Yield ``(base_addr, visible_row)`` ordered by base address."""
        if sanitize.enabled():
            sanitize.check_epoch_isolation(self)
        for key, heap_rid in self._index.items():
            yield Rid(*key), self._visible_row(heap_rid)

    def as_map(self) -> "dict[Rid, tuple]":
        """``{base_addr: visible values}`` — the canonical comparison form."""
        return {addr: row.values for addr, row in self.entries()}

    def base_addrs(self) -> "list[Rid]":
        return [Rid(*key) for key, _ in self._index.items()]

    def lookup(self, base_addr: Rid) -> Optional[Row]:
        """The visible row for ``base_addr``, or ``None``."""
        if sanitize.enabled():
            sanitize.check_epoch_isolation(self)
        heap_rid = self._index.get(base_addr.key())
        if heap_rid is None:
            return None
        return self._visible_row(heap_rid)
