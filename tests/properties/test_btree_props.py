"""B+tree checked against a dict model under arbitrary operation scripts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BPlusTree

keys = st.integers(min_value=0, max_value=200)
scripts = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), keys), max_size=300
)


class TestAgainstModel:
    @settings(max_examples=80, deadline=None)
    @given(script=scripts, order=st.sampled_from([4, 5, 8, 32]))
    def test_matches_dict(self, script, order):
        tree = BPlusTree(order=order)
        model = {}
        for op, key in script:
            if op == "insert":
                tree.insert(key, key * 3)
                model[key] = key * 3
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        tree.check_invariants()
        assert dict(tree.items()) == model
        assert len(tree) == len(model)
        if model:
            assert tree.min_key() == min(model)
            assert tree.max_key() == max(model)

    @settings(max_examples=60, deadline=None)
    @given(
        script=scripts,
        lo=keys,
        hi=keys,
        include_lo=st.booleans(),
        include_hi=st.booleans(),
    )
    def test_range_matches_model(self, script, lo, hi, include_lo, include_hi):
        tree = BPlusTree(order=5)
        model = {}
        for op, key in script:
            if op == "insert":
                tree.insert(key, key)
                model[key] = key
            else:
                tree.delete(key)
                model.pop(key, None)

        def in_bounds(key):
            if include_lo:
                if key < lo:
                    return False
            elif key <= lo:
                return False
            if include_hi:
                if key > hi:
                    return False
            elif key >= hi:
                return False
            return True

        got = [k for k, _ in tree.range(lo, hi, include_lo, include_hi)]
        assert got == sorted(k for k in model if in_bounds(k))

    @settings(max_examples=60, deadline=None)
    @given(script=scripts, probe=keys)
    def test_floor_matches_model(self, script, probe):
        tree = BPlusTree(order=4)
        model = set()
        for op, key in script:
            if op == "insert":
                tree.insert(key, key)
                model.add(key)
            else:
                tree.delete(key)
                model.discard(key)
        below = [k for k in model if k < probe]
        expected = (max(below), max(below)) if below else None
        assert tree.floor_item(probe) == expected

    @settings(max_examples=40, deadline=None)
    @given(script=scripts, lo=keys, hi=keys)
    def test_delete_range_matches_model(self, script, lo, hi):
        tree = BPlusTree(order=4)
        model = {}
        for op, key in script:
            if op == "insert":
                tree.insert(key, key)
                model[key] = key
            else:
                tree.delete(key)
                model.pop(key, None)
        removed = tree.delete_range(lo, hi, include_lo=False, include_hi=False)
        tree.check_invariants()
        expected_removed = sorted(k for k in model if lo < k < hi)
        assert [k for k, _ in removed] == expected_removed
        survivors = {k: v for k, v in model.items() if not (lo < k < hi)}
        assert dict(tree.items()) == survivors


def leaf_edges(tree):
    """First and last key of every leaf, in key order."""
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    edges = []
    while node is not None:
        if node.keys:
            edges += [node.keys[0], node.keys[-1]]
        node = node.next
    return edges


class TestDeleteRange:
    """Against the sorted-list model: bounds on leaf boundaries, every
    include flag, empty, single-leaf and multi-leaf intervals."""

    @settings(max_examples=150, deadline=None)
    @given(
        present=st.sets(st.integers(min_value=0, max_value=400), max_size=250),
        order=st.sampled_from([4, 5, 8, 64]),
        cuts=st.lists(
            st.tuples(
                st.sampled_from(["edge", "edge", "key", "none"]),
                st.integers(min_value=0, max_value=1000),
                st.sampled_from(["edge", "key", "none"]),
                st.integers(min_value=0, max_value=80),  # interval width
                st.booleans(),
                st.booleans(),
                st.booleans(),  # refill what was cut before the next one
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_matches_sorted_list(self, present, order, cuts):
        tree = BPlusTree(order=order)
        for key in sorted(present, key=lambda k: k * 7919 % 401):
            tree.insert(key, -key)
        model = sorted(present)
        for lo_kind, pick, hi_kind, width, include_lo, include_hi, refill in cuts:
            edges = leaf_edges(tree)
            lo = None
            if lo_kind == "edge" and edges:
                lo = edges[pick % len(edges)]
            elif lo_kind == "key":
                lo = pick % 401
            hi = None
            if hi_kind == "edge" and edges:
                above = [edge for edge in edges if lo is None or edge >= lo]
                hi = above[min(width // 8, len(above) - 1)] if above else lo
            elif hi_kind == "key":
                hi = (0 if lo is None else lo) + width
            doomed = [
                key
                for key in model
                if (lo is None or key > lo or (include_lo and key == lo))
                and (hi is None or key < hi or (include_hi and key == hi))
            ]
            removed = tree.delete_range(lo, hi, include_lo, include_hi)
            assert removed == [(key, -key) for key in doomed]
            model = [key for key in model if key not in set(doomed)]
            tree.check_invariants()
            assert [key for key, _ in tree.items()] == model
            assert len(tree) == len(model)
            if refill:
                for key in doomed:
                    tree.insert(key, -key)
                model = sorted(model + doomed)
                tree.check_invariants()
