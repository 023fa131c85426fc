"""OrderStatisticTree: the blocked sequence behind the update path."""

from __future__ import annotations

import random
from itertools import accumulate, islice

import pytest

from repro.core.orderindex import BLOCK_SIZE, OrderStatisticTree

#: Churn shapes, as (initial items, longest run, steps): short runs
#: from empty, and runs long enough that every program crosses many
#: block boundaries, splits and merges whatever BLOCK_SIZE is.
SHORT_RUNS = (0, 4, 400)
MANY_BLOCKS = (10 * BLOCK_SIZE, 4 * BLOCK_SIZE, 100)


def run_length(rng, max_run):
    """Half the runs short, half up to ``max_run``: splices inside one
    block and splices across blocks, at every document size."""
    return rng.randint(1, rng.choice((4, max_run)))


def assert_agrees(tree, oracle, rng, weights=None):
    """Compare ``tree`` with the list it models.

    Reads start at every position, so at every block start whatever
    the block layout.  ``weights`` marks a weight-only tree, whose
    prefix sums are checked everywhere; otherwise ranks are sampled.
    """
    assert list(tree) == oracle
    assert len(tree) == len(oracle)
    for position in range(len(oracle) + 1):
        window = oracle[position : position + 2]
        assert tree[position : position + 2] == window
        assert list(islice(tree.iter_from(position), 2)) == window
    if weights is not None:
        prefix = [0, *accumulate(weights)]
        assert tree.total_weight() == prefix[-1]
        for position, expected in enumerate(prefix):
            assert tree.prefix_weight(position) == expected
    for i in rng.sample(range(len(oracle)), min(5, len(oracle))):
        assert tree[i] is oracle[i]
        if weights is None:
            assert tree.position(oracle[i]) == i


class TestConstruction:
    def test_empty(self):
        tree = OrderStatisticTree()
        assert len(tree) == 0
        assert list(tree) == []
        assert not tree
        assert tree.total_weight() == 0

    def test_bulk_build_preserves_order(self):
        items = list(range(100))
        tree = OrderStatisticTree(items)
        assert list(tree) == items
        assert len(tree) == 100

    def test_bulk_build_with_weights(self):
        tree = OrderStatisticTree(["a", "b", "c"], weights=[5, 7, 11])
        assert tree.total_weight() == 23
        assert tree.prefix_weight(0) == 0
        assert tree.prefix_weight(1) == 5
        assert tree.prefix_weight(2) == 12
        assert tree.prefix_weight(3) == 23

    def test_weights_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OrderStatisticTree(["a", "b"], weights=[1])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            OrderStatisticTree(["a"], weights=[-1])


class TestAccess:
    def test_getitem_and_negative(self):
        tree = OrderStatisticTree("abcdef")
        assert tree[0] == "a"
        assert tree[5] == "f"
        assert tree[-1] == "f"
        assert tree[-6] == "a"

    def test_getitem_out_of_range(self):
        tree = OrderStatisticTree("abc")
        with pytest.raises(IndexError):
            tree[3]
        with pytest.raises(IndexError):
            tree[-4]

    def test_slices(self):
        tree = OrderStatisticTree(range(10))
        assert tree[2:5] == [2, 3, 4]
        assert tree[:3] == [0, 1, 2]
        assert tree[7:] == [7, 8, 9]
        assert tree[::2] == [0, 2, 4, 6, 8]
        assert tree[::-1] == list(range(10))[::-1]

    def test_iter_from(self):
        tree = OrderStatisticTree(range(20))
        assert list(tree.iter_from(15)) == [15, 16, 17, 18, 19]
        assert list(tree.iter_from(20)) == []


class TestIdentity:
    @pytest.mark.parametrize(
        "count",
        [
            pytest.param(2, id="2"),
            pytest.param(10 * BLOCK_SIZE, id="many-blocks"),
        ],
    )
    def test_position_tracks_identity_not_equality(self, count):
        # Equal-but-distinct lists: position must distinguish them, also
        # once splices have split and merged their blocks.
        items = [[1] for _ in range(count)]
        tree = OrderStatisticTree(items, track_identity=True)
        assert [tree.position(item) for item in items] == list(range(count))
        middle = count // 2
        run = [[1] for _ in range(count)]
        tree.insert_run(middle, run)
        items[middle:middle] = run
        tree.delete_run(middle // 2, count)
        del items[middle // 2 : middle // 2 + count]
        assert [tree.position(item) for item in items] == list(range(count))
        assert items[0] in tree
        assert run[0] not in tree

    def test_position_missing_item_raises(self):
        tree = OrderStatisticTree(["a"], track_identity=True)
        with pytest.raises(ValueError):
            tree.position("missing")

    def test_index_alias(self):
        tree = OrderStatisticTree(["a", "b"], track_identity=True)
        assert tree.index("b") == 1

    def test_contains_requires_tracking(self):
        tree = OrderStatisticTree(["a"])
        with pytest.raises(TypeError):
            "a" in tree

    def test_deleted_item_forgotten(self):
        items = [object() for _ in range(5)]
        tree = OrderStatisticTree(items, track_identity=True)
        tree.delete_run(1, 2)
        assert items[1] not in tree
        assert tree.position(items[3]) == 1


class TestMutation:
    def test_insert_run_middle(self):
        tree = OrderStatisticTree([0, 1, 2, 3])
        tree.insert_run(2, ["x", "y"])
        assert list(tree) == [0, 1, "x", "y", 2, 3]

    def test_insert_run_with_weights_shifts_offsets(self):
        tree = OrderStatisticTree([10, 10], weights=[10, 10])
        tree.insert_run(1, [3], weights=[3])
        assert tree.prefix_weight(2) == 13
        assert tree.total_weight() == 23

    def test_insert_position_out_of_range(self):
        tree = OrderStatisticTree([1])
        with pytest.raises(IndexError):
            tree.insert_run(5, ["x"])

    def test_delete_run_returns_removed(self):
        tree = OrderStatisticTree("abcdef")
        removed = tree.delete_run(1, 3)
        assert removed == ["b", "c", "d"]
        assert list(tree) == ["a", "e", "f"]

    def test_delete_run_out_of_range(self):
        tree = OrderStatisticTree("abc")
        with pytest.raises(IndexError):
            tree.delete_run(1, 5)


class TestModelBasedChurn:
    """The order index must agree with a plain list under random churn:
    the order index and the naive ``list``/``list.index`` oracle stay
    interchangeable through arbitrary insert/delete/reposition programs,
    down to empty and back.
    """

    @pytest.mark.parametrize(
        "seed, shape",
        [pytest.param(seed, SHORT_RUNS, id=str(seed)) for seed in range(5)]
        + [pytest.param(5, MANY_BLOCKS, id="many-blocks")],
    )
    def test_agrees_with_list_oracle(self, seed, shape):
        initial, max_run, steps = shape
        rng = random.Random(seed)
        oracle: list[object] = [object() for _ in range(initial)]
        tree = OrderStatisticTree(oracle, track_identity=True)
        for step in range(steps):
            action = rng.random()
            if action < 0.5 or not oracle:
                position = rng.randint(0, len(oracle))
                run = [object() for _ in range(run_length(rng, max_run))]
                oracle[position:position] = run
                tree.insert_run(position, run)
            elif action < 0.8:
                position = rng.randrange(len(oracle))
                count = min(run_length(rng, max_run), len(oracle) - position)
                expected = oracle[position : position + count]
                del oracle[position : position + count]
                assert tree.delete_run(position, count) == expected
            else:
                # Move: delete a run, reinsert elsewhere (the engine's
                # move_before decomposition).
                position = rng.randrange(len(oracle))
                moved = oracle.pop(position)
                tree.delete_run(position, 1)
                destination = rng.randint(0, len(oracle))
                oracle.insert(destination, moved)
                tree.insert_run(destination, [moved])
            if step % 20 == 0:
                assert_agrees(tree, oracle, rng)
        assert_agrees(tree, oracle, rng)
        while oracle:
            position = rng.randrange(len(oracle))
            count = min(run_length(rng, max_run), len(oracle) - position)
            expected = oracle[position : position + count]
            del oracle[position : position + count]
            assert tree.delete_run(position, count) == expected
        assert_agrees(tree, oracle, rng)
        while len(oracle) < initial + max_run:
            position = rng.randint(0, len(oracle))
            run = [object() for _ in range(run_length(rng, max_run))]
            oracle[position:position] = run
            tree.insert_run(position, run)
        assert_agrees(tree, oracle, rng)

    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param(SHORT_RUNS, id="short-runs"),
            pytest.param(MANY_BLOCKS, id="many-blocks"),
        ],
    )
    def test_weighted_churn_prefix_sums(self, shape):
        initial, max_run, steps = shape
        rng = random.Random(99)
        sizes = [rng.randint(0, 50) for _ in range(initial)]
        tree = OrderStatisticTree(sizes, weights=sizes)
        for step in range(steps):
            if rng.random() < 0.6 or not sizes:
                position = rng.randint(0, len(sizes))
                length = run_length(rng, max_run)
                run = [rng.randint(0, 50) for _ in range(length)]
                sizes[position:position] = run
                tree.insert_run(position, run, weights=run)
            else:
                position = rng.randrange(len(sizes))
                count = min(run_length(rng, max_run), len(sizes) - position)
                expected = sizes[position : position + count]
                del sizes[position : position + count]
                assert tree.delete_run(position, count) == expected
            if step % 20 == 0:
                assert_agrees(tree, sizes, rng, weights=sizes)
        assert_agrees(tree, sizes, rng, weights=sizes)
        tree.delete_run(0, len(sizes))
        assert_agrees(tree, [], rng, weights=[])
        sizes = [rng.randint(0, 50) for _ in range(initial + max_run)]
        tree.insert_run(0, sizes, weights=sizes)
        assert_agrees(tree, sizes, rng, weights=sizes)
