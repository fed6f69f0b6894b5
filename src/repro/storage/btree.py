"""An in-memory B+tree with range scans and range deletes.

The snapshot receiver (Figure 4 of the paper) must, for each refresh
message ``(Addr, PrevAddr, Value)``, delete every snapshot entry whose
``BaseAddr`` lies in the open interval ``(PrevAddr, Addr)`` and then
upsert at ``Addr``.  That demands an *ordered* index on ``BaseAddr``; the
paper itself notes "a snapshot index on BaseAddr will accelerate snapshot
refresh processing".  This module provides that index.

Keys may be any mutually comparable values (the snapshot uses
``Rid.key()`` tuples); values are arbitrary payloads.  Duplicate keys are
not allowed — inserting an existing key replaces its value, as an index
over unique addresses requires.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Optional, Sequence

from repro.errors import StorageError


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: "list[Any]" = []
        self.values: "list[Any]" = []
        self.next: "Optional[_Leaf]" = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest.
        self.keys: "list[Any]" = []
        self.children: "list[Any]" = []


class BPlusTree:
    """Ordered map: insert/get/delete, ordered iteration, range scan/delete."""

    def __init__(self, order: int = 32) -> None:
        if order < 4:
            raise StorageError("B+tree order must be at least 4")
        self._order = order  # max children of an internal / max leaf entries
        self._min = order // 2
        self._root: "Any" = _Leaf()
        self._count = 0
        self._last_insert_was_new = False

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Any) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    # -- lookup ------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def _seek(self, lo: Any, include_lo: bool) -> "tuple[_Leaf, int]":
        """The leaf, and the position in it, where keys from ``lo`` on
        start (``lo=None``: the first leaf); the position may be its end."""
        if lo is None:
            leaf = self._root
            while isinstance(leaf, _Internal):
                leaf = leaf.children[0]
            return leaf, 0
        leaf = self._find_leaf(lo)
        return leaf, (bisect_left if include_lo else bisect_right)(leaf.keys, lo)

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def floor_item(self, key: Any) -> "Optional[tuple[Any, Any]]":
        """The largest ``(k, v)`` with ``k < key``, or ``None``.

        The eager-annotation table uses this to find an address's
        predecessor in O(log n).
        """
        node = self._root
        best_subtree = None
        while isinstance(node, _Internal):
            child_index = bisect_left(node.keys, key)
            if child_index > 0:
                best_subtree = node.children[child_index - 1]
            node = node.children[child_index]
        index = bisect_left(node.keys, key)
        if index > 0:
            return node.keys[index - 1], node.values[index - 1]
        if best_subtree is None:
            return None
        leaf = best_subtree
        while isinstance(leaf, _Internal):
            leaf = leaf.children[-1]
        if not leaf.keys:
            return None
        return leaf.keys[-1], leaf.values[-1]

    def min_key(self) -> Any:
        """Smallest key, or ``None`` when empty."""
        if not self._count:
            return None
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> Any:
        """Largest key, or ``None`` when empty."""
        if not self._count:
            return None
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1]

    # -- insert --------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> bool:
        """Insert or replace; return True when the key was new."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
        return self._last_insert_was_new

    def _insert(self, node: Any, key: Any, value: Any):
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                self._last_insert_was_new = False
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._count += 1
            self._last_insert_was_new = True
            if len(node.keys) <= self._order:
                return None
            return self._split_leaf(node)
        child_index = bisect_right(node.keys, key)
        split = self._insert(node.children[child_index], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(child_index, sep)
        node.children.insert(child_index + 1, right)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Leaf):
        mid = len(node.keys) // 2
        right = _Leaf()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- delete --------------------------------------------------------------

    def delete(self, key: Any) -> bool:
        """Remove ``key``; return True when it was present."""
        return self._remove(key, 1)

    def _remove(self, key: Any, count: int) -> bool:
        """Remove ``key`` and the ``count - 1`` keys after it in its leaf."""
        removed = self._delete(self._root, key, count)
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return removed

    def _delete(self, node: Any, key: Any, count: int) -> bool:
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                del node.keys[index : index + count]
                del node.values[index : index + count]
                self._count -= count
                return True
            return False
        child_index = bisect_right(node.keys, key)
        child = node.children[child_index]
        removed = self._delete(child, key, count)
        if removed:
            self._rebalance(node, child_index)
        return removed

    def _node_size(self, node: Any) -> int:
        return len(node.keys) if isinstance(node, _Leaf) else len(node.children)

    def _rebalance(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        if self._node_size(child) >= self._min:
            return
        left = parent.children[child_index - 1] if child_index > 0 else None
        right = (
            parent.children[child_index + 1]
            if child_index + 1 < len(parent.children)
            else None
        )
        # A range cut can leave a leaf many keys short: borrow until it
        # is whole or neither sibling can spare one, then merge.
        while self._node_size(child) < self._min:
            if left is not None and self._node_size(left) > self._min:
                self._borrow_from_left(parent, child_index, left, child)
            elif right is not None and self._node_size(right) > self._min:
                self._borrow_from_right(parent, child_index, child, right)
            else:
                if left is not None:
                    self._merge(parent, child_index - 1, left, child)
                elif right is not None:
                    self._merge(parent, child_index, child, right)
                return

    def _borrow_from_left(
        self, parent: _Internal, child_index: int, left: Any, child: Any
    ) -> None:
        if isinstance(child, _Leaf):
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[child_index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, parent: _Internal, child_index: int, child: Any, right: Any
    ) -> None:
        if isinstance(child, _Leaf):
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            child.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(
        self, parent: _Internal, left_index: int, left: Any, right: Any
    ) -> None:
        if isinstance(left, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # -- scans ---------------------------------------------------------------

    def items(self) -> "Iterator[tuple[Any, Any]]":
        """Yield all ``(key, value)`` pairs in key order."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        while node is not None:
            yield from zip(list(node.keys), list(node.values))
            node = node.next

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = False,
    ) -> "Iterator[tuple[Any, Any]]":
        """Yield pairs with ``lo <(=) key <(=) hi`` in key order.

        ``None`` bounds are open-ended.  Defaults give the half-open
        interval ``[lo, hi)``.
        """
        node: "Optional[_Leaf]"
        node, index = self._seek(lo, include_lo)
        while node is not None:
            keys = list(node.keys)
            values = list(node.values)
            for position in range(index, len(keys)):
                key = keys[position]
                if hi is not None:
                    if include_hi:
                        if key > hi:
                            return
                    elif key >= hi:
                        return
                yield key, values[position]
            node = node.next
            index = 0

    def delete_range(
        self,
        lo: Any = None,
        hi: Any = None,
        include_lo: bool = True,
        include_hi: bool = False,
    ) -> "list[tuple[Any, Any]]":
        """Delete every key in the interval; return the removed pairs.

        This is the operation behind the receiver's "delete all snapshot
        entries with BaseAddr in the transmitted empty region".  An
        empty interval — nearly every message's — is one descent and a
        bisect; otherwise each leaf's share of the interval is cut out
        and the path to that leaf rebalanced once.
        """
        removed: "list[tuple[Any, Any]]" = []
        while True:
            leaf, start = self._seek(lo, include_lo)
            if start == len(leaf.keys):  # the first key past lo is next door
                leaf, start = leaf.next, 0
                if leaf is None:
                    return removed
            keys = leaf.keys
            if hi is None:
                stop = len(keys)
            else:
                stop = (bisect_right if include_hi else bisect_left)(keys, hi, start)
            if stop == start:
                return removed
            removed.extend(zip(keys[start:stop], leaf.values[start:stop]))
            ends_here = stop < len(keys)
            self._remove(keys[start], stop - start)
            if ends_here:
                return removed

    def delete_between(
        self, lo: Any, hi: Any
    ) -> "tuple[Sequence[tuple[Any, Any]], Any]":
        """Delete the keys ``lo < key < hi``; return the removed pairs
        and ``hi``'s value (``None`` when absent).

        What ``delete_range(lo, hi, False, False)`` and ``get(hi)``
        return, in one descent when the interval is empty — as it is
        for nearly every message the snapshot receiver applies: the
        first key after ``lo`` is ``hi`` or lies beyond it.
        """
        if lo < hi:
            leaf: "Optional[_Leaf]" = self._find_leaf(lo)
            index = bisect_right(leaf.keys, lo)
            if index == len(leaf.keys):  # the first key past lo is next door
                leaf, index = leaf.next, 0
            if leaf is None:
                return (), None
            key = leaf.keys[index]
            if key >= hi:
                return (), leaf.values[index] if key == hi else None
        return self.delete_range(lo, hi, False, False), self.get(hi)

    def check_invariants(self) -> None:
        """Assert structural invariants (tests call this after mutations)."""
        count = self._walk_check(self._root, is_root=True)
        if count != self._count:
            raise AssertionError(
                f"count mismatch: walked {count}, tracked {self._count}"
            )
        keys = [key for key, _ in self.items()]
        if keys != sorted(keys):
            raise AssertionError("leaf chain out of order")
        if len(set(keys)) != len(keys):
            raise AssertionError("duplicate keys in leaf chain")

    def _walk_check(self, node: Any, is_root: bool) -> int:
        if isinstance(node, _Leaf):
            if not is_root and len(node.keys) < self._min:
                raise AssertionError("leaf underflow")
            if len(node.keys) > self._order:
                raise AssertionError("leaf overflow")
            return len(node.keys)
        if not is_root and len(node.children) < self._min:
            raise AssertionError("internal underflow")
        if len(node.children) > self._order:
            raise AssertionError("internal overflow")
        if len(node.children) != len(node.keys) + 1:
            raise AssertionError("internal arity mismatch")
        total = 0
        for index, child in enumerate(node.children):
            total += self._walk_check(child, is_root=False)
            if index < len(node.keys):
                child_max = self._subtree_max(child)
                if child_max is not None and child_max >= node.keys[index]:
                    raise AssertionError("separator key violated")
        return total

    def _subtree_max(self, node: Any) -> Any:
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1] if node.keys else None


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()

__all__ = ["BPlusTree"]
