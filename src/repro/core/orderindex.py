"""Dynamic order-statistic sequences for the update hot path.

The update engine needs three queries that a plain Python list answers
only in O(N): *where* in document order a node sits (``list.index``),
*splice* a run of nodes in or out at a position, and *prefix sums* over
per-record byte sizes (the page store's offset map).  The paper takes
these for granted — CDBS makes the *labels* cheap to update, and the
surrounding bookkeeping must not re-introduce a linear term, or measured
"update time" scales with document size for reasons the paper never had.

:class:`OrderStatisticTree` answers all three with a two-level blocked
sequence, the aB-tree layout of "Dynamic Succincter" with fat leaves so
that CPython's list primitives do the splicing:

* the elements live in Python lists ("blocks") of at most
  :data:`BLOCK_SIZE` entries, each with a parallel list of integer
  *weights*, so a splice is one list splice inside one block and runs
  in C;
* a Fenwick tree over the blocks' element counts and weight sums finds
  the block holding a position, and the count and weight before it, in
  O(log(N/B)).  A splice inside a block updates it in place; only a
  block split or merge rebuilds it, in O(N/B);
* with ``track_identity=True`` an ``id(item) -> block`` map gives the
  rank of an item: the block's prefix count plus the item's offset in
  its block, found by a C-level scan of at most B entries.

Builds and splits leave blocks half full and a block that falls below a
quarter merges into its neighbours, so every query and K-item splice
costs O(log(N/B) + B + K) with no randomness: the same edits always
build the same blocks.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Iterable, Iterator

__all__ = ["BLOCK_SIZE", "OrderStatisticTree"]

#: B, the most entries one block holds.
BLOCK_SIZE = 512
_HALF = BLOCK_SIZE // 2
_QUARTER = BLOCK_SIZE // 4


class OrderStatisticTree:
    """A positional sequence with rank, select, splice and weight-prefix
    queries in O(log(N/B) + B), B being :data:`BLOCK_SIZE`.

    Args:
        items: initial elements, in sequence order (bulk-built in O(N)).
        weights: optional per-item integer weights (defaults to 1 each);
            :meth:`prefix_weight` sums them by position.
        track_identity: keep an ``id(item) -> block`` map so
            :meth:`position` / ``in`` work; requires every item to be a
            distinct live object (document nodes are; small interned
            ints are *not*, so weight-only clients leave this off).
    """

    def __init__(
        self,
        items: Iterable[Any] = (),
        *,
        weights: Iterable[int] | None = None,
        track_identity: bool = False,
    ) -> None:
        self._track = track_identity
        self._where: dict[int, list[Any]] = {}
        self._blocks: list[list[Any]] = []
        self._weights: list[list[int]] = []
        self._sums: list[int] = []
        items, weights = self._checked_run(items, weights)
        self._len = len(items)
        self._reblock(0, 0, items, weights)
        if self._track and len(self._where) != self._len:
            raise ValueError("items must be distinct objects")

    @staticmethod
    def _checked_run(
        items: Iterable[Any], weights: Iterable[int] | None
    ) -> tuple[list[Any], list[int]]:
        items = list(items)
        if weights is None:
            return items, [1] * len(items)
        weights = list(weights)
        if len(weights) != len(items):
            raise ValueError("items and weights differ in length")
        if weights and min(weights) < 0:
            raise ValueError(f"weight must be non-negative, got {min(weights)}")
        return items, weights

    # -- the block directory -----------------------------------------------

    def _reblock(
        self, lo: int, hi: int, items: list[Any], weights: list[int]
    ) -> None:
        """Replace blocks ``[lo, hi)`` by ``items`` cut into blocks of
        B/2 to B entries (one smaller block when there are fewer), then
        rebuild the directory.  The only place the block layout changes.
        """
        parts = max(1, len(items) // _HALF)
        cuts = [len(items) * part // parts for part in range(parts + 1)]
        blocks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
        self._blocks[lo:hi] = blocks
        self._weights[lo:hi] = [weights[a:b] for a, b in zip(cuts, cuts[1:])]
        self._sums[lo:hi] = map(sum, self._weights[lo : lo + parts])
        if self._track:
            where = self._where
            for block in blocks:
                where.update(dict.fromkeys(map(id, block), block))
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the Fenwick directory over the blocks — O(N/B)."""
        count = len(self._blocks)
        counts = [0, *map(len, self._blocks)]
        sums = [0, *self._sums]
        for child in range(1, count + 1):
            parent = child + (child & -child)
            if parent <= count:
                counts[parent] += counts[child]
                sums[parent] += sums[child]
        self._tree_counts, self._tree_sums = counts, sums
        self._top = 1 << (count.bit_length() - 1)  # largest power of 2 <= count
        if self._track:
            self._block_index = {
                id(block): index for index, block in enumerate(self._blocks)
            }

    def _bump(self, index: int, items: int, weight: int) -> None:
        """Record a splice of ``items`` entries / ``weight`` in one block."""
        self._sums[index] += weight
        counts, sums = self._tree_counts, self._tree_sums
        count = len(self._blocks)
        node = index + 1
        while node <= count:
            counts[node] += items
            sums[node] += weight
            node += node & -node

    def _seek(self, position: int) -> tuple[int, int, int]:
        """``(block, offset, weight before the block)`` of ``position``.

        A Fenwick descent for the last block boundary at or before
        ``position``.  Every block but a lone one is non-empty, so for
        ``position < len(self)`` the block holds the position;
        ``position == len(self)`` gives one past the last block, with
        the total weight.
        """
        counts, sums = self._tree_counts, self._tree_sums
        count = len(self._blocks)
        index = weight = 0
        step = self._top
        while step:
            probe = index + step
            if probe <= count and counts[probe] <= position:
                index = probe
                position -= counts[probe]
                weight += sums[probe]
            step >>= 1
        return index, position, weight

    # -- size and membership -----------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __contains__(self, item: Any) -> bool:
        if not self._track:
            raise TypeError(
                "membership requires track_identity=True at construction"
            )
        return id(item) in self._where

    def total_weight(self) -> int:
        """Sum of every element's weight (total bytes for a size map)."""
        return self._seek(self._len)[2]

    # -- rank / select -----------------------------------------------------

    def position(self, item: Any) -> int:
        """Rank of ``item`` in the sequence — O(log(N/B) + B), no search
        outside the item's block.

        Raises :class:`ValueError` (matching ``list.index``) when the
        item is not in the sequence.
        """
        if not self._track:
            raise TypeError(
                "position() requires track_identity=True at construction"
            )
        block = self._where.get(id(item))
        if block is None:
            raise ValueError("item is not in the sequence")
        offset = block.index(item)
        if block[offset] is not item:
            # list.index compares with ==: an equal but distinct entry
            # came first.  Rank is by identity.
            offset = next(i for i, entry in enumerate(block) if entry is item)
        counts = self._tree_counts
        node = self._block_index[id(block)]
        while node:
            offset += counts[node]
            node &= node - 1
        return offset

    def index(self, item: Any) -> int:
        """Alias of :meth:`position` (list-compatible spelling)."""
        return self.position(item)

    def __getitem__(self, key: int | slice) -> Any:
        if isinstance(key, slice):
            start, stop, step = key.indices(self._len)
            if step == 1:
                return list(islice(self.iter_from(start), max(0, stop - start)))
            return [self[i] for i in range(start, stop, step)]
        position = key
        if position < 0:
            position += self._len
        if not 0 <= position < self._len:
            raise IndexError(
                f"position {key} out of range for {self._len} items"
            )
        index, offset, _ = self._seek(position)
        return self._blocks[index][offset]

    # -- iteration ---------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return chain.from_iterable(self._blocks)

    def iter_from(self, position: int) -> Iterator[Any]:
        """Iterate items starting at ``position`` — O(log(N/B)) to
        locate, then list iteration in C."""
        if not 0 <= position <= self._len:
            raise IndexError(f"position {position} out of range 0..{self._len}")
        if position == self._len:
            return iter(())
        index, offset, _ = self._seek(position)
        return chain(
            islice(self._blocks[index], offset, None),
            chain.from_iterable(islice(self._blocks, index + 1, None)),
        )

    # -- mutation ----------------------------------------------------------

    def insert_run(
        self,
        position: int,
        items: Iterable[Any],
        weights: Iterable[int] | None = None,
    ) -> None:
        """Insert ``items`` so the first lands at ``position``.

        One list splice into the block holding ``position``; the block
        splits when it outgrows B.
        """
        if not 0 <= position <= self._len:
            raise IndexError(f"position {position} out of range 0..{self._len}")
        items, weights = self._checked_run(items, weights)
        if not items:
            return
        if self._track:
            ids = set(map(id, items))
            if len(ids) < len(items) or not self._where.keys().isdisjoint(ids):
                raise ValueError("item is already in the sequence")
        if position == self._len:
            index = len(self._blocks) - 1
            offset = len(self._blocks[index])
        else:
            index, offset, _ = self._seek(position)
        block = self._blocks[index]
        block[offset:offset] = items
        self._weights[index][offset:offset] = weights
        self._len += len(items)
        if self._track:
            self._where.update(dict.fromkeys(ids, block))
        if len(block) > BLOCK_SIZE:
            self._reblock(index, index + 1, block, self._weights[index])
        else:
            self._bump(index, len(items), sum(weights))

    def delete_run(self, position: int, count: int) -> list[Any]:
        """Remove ``count`` items starting at ``position``; returns them.

        A run inside one block that leaves it at least a quarter full is
        one list splice.  Otherwise the blocks the run touches and one
        neighbour on each side are joined, cut and re-blocked.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if not 0 <= position <= self._len or position + count > self._len:
            raise IndexError(
                f"range [{position}, {position + count}) exceeds "
                f"{self._len} items"
            )
        if not count:
            return []
        index, offset, _ = self._seek(position)
        block, weights = self._blocks[index], self._weights[index]
        end = offset + count
        if end <= len(block) and (
            len(block) - count >= _QUARTER or len(self._blocks) == 1
        ):
            removed = block[offset:end]
            weight = sum(weights[offset:end])
            del block[offset:end], weights[offset:end]
            self._bump(index, -count, -weight)
        else:
            last = self._seek(position + count - 1)[0]
            lo, hi = max(index - 1, 0), min(last + 2, len(self._blocks))
            offset += sum(map(len, self._blocks[lo:index]))
            end = offset + count
            block = list(chain.from_iterable(self._blocks[lo:hi]))
            weights = list(chain.from_iterable(self._weights[lo:hi]))
            removed = block[offset:end]
            del block[offset:end], weights[offset:end]
            self._reblock(lo, hi, block, weights)
        self._len -= count
        if self._track:
            where = self._where
            for item in removed:
                del where[id(item)]
        return removed

    # -- weight prefix sums ------------------------------------------------

    def prefix_weight(self, position: int) -> int:
        """Sum of the weights of the first ``position`` items.

        With record sizes as weights this is the byte offset of record
        ``position``; ``prefix_weight(len(self))`` is the total size.
        """
        if not 0 <= position <= self._len:
            raise IndexError(f"position {position} out of range 0..{self._len}")
        index, offset, weight = self._seek(position)
        if offset:
            weight += sum(islice(self._weights[index], offset))
        return weight

    def __repr__(self) -> str:
        return (
            f"<OrderStatisticTree {len(self)} items, "
            f"weight {self.total_weight()}>"
        )
