"""Stage 3: eager annotation maintenance, a hook on the table's writes.

"When an entry is inserted, the PrevAddr of the new entry must be set to
the value of the PrevAddr from the next entry in the base table, and the
PrevAddr in the next entry must be set to the address of the new entry.
When an entry is deleted, the PrevAddr and TimeStamp fields of the
succeeding base table entry must be updated with the PrevAddr from the
deleted entry and the current time."  An update stamps the current time.

This is the multi-entry maintenance the paper's final design takes out
of the base-table operations (Figure 7, :mod:`repro.core.fixup`).  Here
it is one object, :class:`EagerChain`, that
``Table.enable_annotations("eager")`` installs as the table's ``eager``
hook.  Every storage routine of the table calls it after its heap write,
so a write and the undo of one alike keep the chain, and a Figure-3
refresh needs no fix-up.
"""

from __future__ import annotations

from typing import Optional

from repro.relation.types import RidType, TimestampType
from repro.storage.btree import BPlusTree
from repro.storage.heap import HeapFile
from repro.storage.rid import Rid
from repro.txn.clock import LogicalClock

_encode_prev = RidType().encode
_encode_ts = TimestampType().encode


class EagerChain:
    """Keeps every live entry's ``PrevAddr`` naming its live predecessor,
    and its ``TimeStamp`` the time it last changed, as each write lands.

    Annotated records end in ``PrevAddr`` then ``TimeStamp``, 8 bytes
    each (``Table.enable_annotations``), so the chain is kept by tail
    overwrites; nothing is decoded.
    """

    def __init__(self, heap: HeapFile, clock: LogicalClock) -> None:
        self.heap = heap
        self.clock = clock
        #: The live addresses, for the successor and predecessor lookups.
        self.live = BPlusTree(order=64)
        self._chain_all()

    def _chain_all(self) -> None:
        """Stamp every row now and chain it, as if just inserted in order."""
        now = _encode_ts(self.clock.tick())
        prev = Rid.BEGIN
        for rid in self.heap.scan_rids():
            self.heap.write_annotations(rid, _encode_prev(prev), now)
            self.live.insert(rid.key(), rid)
            prev = rid

    def _successor(self, rid: Rid) -> Optional[Rid]:
        after = self.live.range(lo=rid.key(), include_lo=False)
        successor: Optional[Rid] = next((value for _, value in after), None)
        return successor

    def _predecessor(self, rid: Rid) -> Optional[Rid]:
        item = self.live.floor_item(rid.key())
        predecessor: Optional[Rid] = None if item is None else item[1]
        return predecessor

    def inserted(self, rid: Rid) -> None:
        """Chain in the record just stored at ``rid`` and stamp it now."""
        now = _encode_ts(self.clock.tick())
        successor = self._successor(rid)
        if successor is None:
            predecessor = self._predecessor(rid)
            prev = Rid.BEGIN if predecessor is None else predecessor
            self.heap.write_annotations(rid, _encode_prev(prev), now)
        else:
            self.heap.write_annotations(
                rid, self.heap.read(successor)[-16:-8], now
            )
            self.heap.write_annotations(successor, _encode_prev(rid), None)
        self.live.insert(rid.key(), rid)

    def deleted(self, rid: Rid, before: bytes) -> None:
        """Hand the record just deleted from ``rid`` (``before``) on to its
        successor: its ``PrevAddr``, and the time now."""
        self.live.delete(rid.key())
        successor = self._successor(rid)
        if successor is not None:
            self.heap.write_annotations(
                successor, before[-16:-8], _encode_ts(self.clock.tick())
            )

    def stamped(self, stored: bytes, body: bytes) -> bytes:
        """``body``, about to replace ``stored``, with the stored
        ``PrevAddr`` and the time now: the chain is the hook's, so a
        rewrite — an undo's before-image too — keeps it."""
        return body[:-16] + stored[-16:-8] + _encode_ts(self.clock.tick())
