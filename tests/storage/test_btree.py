"""B+tree: ordered map semantics, range operations, structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.btree import BPlusTree


@pytest.fixture
def tree():
    return BPlusTree(order=4)  # tiny order forces deep trees quickly


class TestBasics:
    def test_insert_get(self, tree):
        assert tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert len(tree) == 1

    def test_insert_replace(self, tree):
        tree.insert(5, "a")
        assert not tree.insert(5, "b")  # not new
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_get_default(self, tree):
        assert tree.get(9, default="missing") == "missing"

    def test_contains(self, tree):
        tree.insert(1, "x")
        assert 1 in tree
        assert 2 not in tree

    def test_delete(self, tree):
        tree.insert(1, "x")
        assert tree.delete(1)
        assert not tree.delete(1)
        assert len(tree) == 0

    def test_min_max(self, tree):
        assert tree.min_key() is None
        for key in (5, 1, 9, 3):
            tree.insert(key, key)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_order_validation(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)


class TestSplitsAndMerges:
    def test_many_inserts_stay_sorted(self, tree):
        keys = list(range(200))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 2)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_delete_everything(self, tree):
        for key in range(100):
            tree.insert(key, key)
        for key in range(100):
            assert tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_alternating_workload(self, tree):
        rng = random.Random(42)
        reference = {}
        for _ in range(2000):
            key = rng.randrange(300)
            if rng.random() < 0.6:
                tree.insert(key, key)
                reference[key] = key
            else:
                tree.delete(key)
                reference.pop(key, None)
        tree.check_invariants()
        assert dict(tree.items()) == reference


class TestRange:
    @pytest.fixture
    def populated(self, tree):
        for key in range(0, 100, 2):  # evens 0..98
            tree.insert(key, key)
        return tree

    def test_half_open_default(self, populated):
        keys = [k for k, _ in populated.range(10, 20)]
        assert keys == [10, 12, 14, 16, 18]

    def test_inclusive_hi(self, populated):
        keys = [k for k, _ in populated.range(10, 20, include_hi=True)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_exclusive_lo(self, populated):
        keys = [k for k, _ in populated.range(10, 20, include_lo=False)]
        assert keys == [12, 14, 16, 18]

    def test_open_ended(self, populated):
        assert [k for k, _ in populated.range(lo=94)] == [94, 96, 98]
        assert [k for k, _ in populated.range(hi=6)] == [0, 2, 4]

    def test_bounds_between_keys(self, populated):
        keys = [k for k, _ in populated.range(9, 15)]
        assert keys == [10, 12, 14]

    def test_delete_range_open_interval(self, populated):
        removed = populated.delete_range(10, 20, include_lo=False, include_hi=False)
        assert [k for k, _ in removed] == [12, 14, 16, 18]
        populated.check_invariants()
        assert 10 in populated and 20 in populated

    def test_floor_item(self, populated):
        assert populated.floor_item(11) == (10, 10)
        assert populated.floor_item(10) == (8, 8)  # strict
        assert populated.floor_item(0) is None
        assert populated.floor_item(1000) == (98, 98)

    def test_floor_item_deep_tree(self):
        tree = BPlusTree(order=4)
        for key in range(1000):
            tree.insert(key, key)
        for probe in (1, 63, 64, 65, 500, 999):
            assert tree.floor_item(probe) == (probe - 1, probe - 1)


def _twin(keys, order=4):
    trees = []
    for _ in range(2):
        tree = BPlusTree(order=order)
        for key in keys:
            tree.insert(key, f"v{key}")
        trees.append(tree)
    return trees


def _assert_between_equals_range_then_get(keys, lo, hi, order=4):
    """``delete_between(lo, hi)`` == ``delete_range(lo, hi, False,
    False)`` then ``get(hi)``: the same pairs, value and tree."""
    fused, split = _twin(keys, order)
    removed, value = fused.delete_between(lo, hi)
    expected = split.delete_range(lo, hi, False, False)
    assert list(removed) == expected
    assert value == split.get(hi)
    assert list(fused.items()) == list(split.items())
    fused.check_invariants()


class TestDeleteBetween:
    """The receiver's one descent per message: cut ``(lo, hi)`` and read
    ``hi`` -- the same as the two calls it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.sets(st.integers(0, 200), max_size=120),
        lo=st.integers(-5, 205),
        hi=st.integers(-5, 205),
        order=st.sampled_from([4, 5, 8]),
    )
    def test_equals_delete_range_then_get(self, keys, lo, hi, order):
        _assert_between_equals_range_then_get(sorted(keys), lo, hi, order)

    def test_hi_at_or_below_lo_still_reads_hi(self):
        keys = list(range(0, 100, 2))
        for lo, hi in ((40, 40), (40, 10), (41, 10), (98, 0)):
            _assert_between_equals_range_then_get(keys, lo, hi)
        fused, _ = _twin(keys)
        removed, value = fused.delete_between(40, 10)
        assert (list(removed), value) == ([], "v10")

    def test_absent_lo(self):
        keys = list(range(0, 100, 2))
        _assert_between_equals_range_then_get(keys, 11, 12)  # empty, hi held
        _assert_between_equals_range_then_get(keys, 11, 13)  # empty, hi absent
        _assert_between_equals_range_then_get(keys, 11, 17)  # cuts 12..16
        _assert_between_equals_range_then_get(keys, -1, 0)
        _assert_between_equals_range_then_get(keys, 99, 200)  # past the end

    def test_successor_in_the_next_leaf(self):
        keys = list(range(0, 100, 2))
        fused, _ = _twin(keys)
        leaf = fused._find_leaf(0)
        last, first_next = leaf.keys[-1], leaf.next.keys[0]
        removed, value = fused.delete_between(last, first_next)
        assert (list(removed), value) == ([], f"v{first_next}")
        _assert_between_equals_range_then_get(keys, last, first_next)
        _assert_between_equals_range_then_get(keys, last, first_next + 1)
        _assert_between_equals_range_then_get(keys, last + 1, first_next)

    def test_cut_across_leaves(self):
        keys = list(range(0, 100, 2))
        fused, _ = _twin(keys)
        assert fused._find_leaf(10) is not fused._find_leaf(60)
        removed, value = fused.delete_between(10, 60)
        assert [key for key, _ in removed] == list(range(12, 60, 2))
        assert value == "v60"
        _assert_between_equals_range_then_get(keys, 10, 60)
        _assert_between_equals_range_then_get(keys, 9, 61)

    def test_empty_tree(self):
        removed, value = BPlusTree(order=4).delete_between(1, 5)
        assert (list(removed), value) == ([], None)


class TestTupleKeys:
    def test_rid_like_keys(self, tree):
        keys = [(p, s) for p in range(10) for s in range(10)]
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        in_range = [k for k, _ in tree.range((2, 5), (4, 1), include_lo=False)]
        expected = sorted(k for k in keys if (2, 5) < k < (4, 1))
        assert in_range == expected
