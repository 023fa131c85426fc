"""A paged storage simulator with explicit I/O accounting.

Figure 7 of the paper measures *total* update time — "processing time +
I/O time" — and observes that for intermittent updates the I/O term
dominates, compressing the visible gap between OrdPath, Float-point and
CDBS (Section 7.3's closing remark).  To reproduce that decomposition on
a simulator we model label storage as fixed-size pages and charge a
calibratable cost per page read and write.

The model is deliberately simple (sequential record layout, write-through
caching) because the experiment only needs the page-touch *counts* to be
faithful: a dynamic insert touches the one page holding the neighbourhood
of the new label, while a re-label of K nodes dirties every page across K
contiguous records.

Record byte offsets live in an :class:`~repro.core.orderindex.OrderStatisticTree`
keyed by record ordinal with record sizes as weights, so a splice —
which shifts every later ordinal — is one list splice inside one block
instead of the rebuild-the-whole-prefix-sum-array it used to cost, and
an offset lookup is a weight prefix over whole blocks plus a sum inside
one.  That keeps the simulator's own bookkeeping off the update path it
is supposed to be measuring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.orderindex import OrderStatisticTree
from repro.errors import TransientFault
from repro.faults import DEFAULT_RETRY_POLICY, FAULTS, RetryPolicy
from repro.obs import OBS

__all__ = ["IOCostModel", "PageCounter", "PageStore", "BufferPool"]

DEFAULT_PAGE_BYTES = 4096


@dataclass(frozen=True)
class IOCostModel:
    """Seconds charged per page operation.

    Defaults approximate the paper's 2005-era commodity disk: ~8 ms per
    random page read or write (seek + rotational delay dominate at 4 KiB).
    """

    read_seconds: float = 0.008
    write_seconds: float = 0.008

    def cost(self, reads: int, writes: int) -> float:
        return reads * self.read_seconds + writes * self.write_seconds


@dataclass
class PageCounter:
    """Tallies of page operations."""

    reads: int = 0
    writes: int = 0

    def merge(self, other: "PageCounter") -> "PageCounter":
        return PageCounter(self.reads + other.reads, self.writes + other.writes)


class PageStore:
    """Pages of fixed size holding variable-size records in sequence.

    Records (labels) are addressed by ordinal; the store maintains the
    byte offset of each record so it can answer "which pages does record
    range [i, j) occupy?".  All mutation paths count page reads (the
    page must be fetched to modify it) and writes.

    Args:
        page_bytes: page size of the simulated device.
        buffer_pool: optional shared LRU pool fronting reads.
        namespace: distinguishes this store's pages in a *shared*
            buffer pool.  Two stores both number pages from 0, so
            without a namespace their page 0s alias and every cross-file
            read counts as a bogus cache hit.
    """

    def __init__(
        self,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        *,
        buffer_pool: "BufferPool | None" = None,
        namespace: str = "",
        retry: RetryPolicy | None = None,
    ) -> None:
        if page_bytes <= 0:
            raise ValueError(f"page size must be positive, got {page_bytes}")
        self.page_bytes = page_bytes
        self.counter = PageCounter()
        self.buffer_pool = buffer_pool
        self.namespace = namespace
        self.retry = DEFAULT_RETRY_POLICY if retry is None else retry
        #: Modeled seconds spent in retry backoff (never slept — RPR006).
        #: Monotone like the fault/retry counters: it records attempted
        #: work, so rollback deliberately leaves it alone.
        self.retry_backoff_seconds = 0.0
        #: Duck-typed transaction hook, bound by
        #: :class:`repro.updates.txn.Transaction` via the owning
        #: :meth:`LabelStore.bind_undo`; ``None`` means log-free.
        self.undo_log: Any = None
        self._records = OrderStatisticTree()  # weights = record sizes

    # -- layout ------------------------------------------------------------

    def load_records(self, sizes_bytes: list[int]) -> None:
        """Lay out records sequentially; counts the initial bulk write."""
        for size in sizes_bytes:
            if size < 0:
                raise ValueError(f"record size must be non-negative: {size}")
        log = self.undo_log
        if log is not None:
            old_records = self._records
            counters_undo = self._counters_undo()

            def undo_load() -> None:
                self._records = old_records
                counters_undo()

            log.record(undo_load)
        self._records = OrderStatisticTree(sizes_bytes, weights=sizes_bytes)
        pages = self.page_count()
        self.counter.writes += pages
        self._write_pages(pages)
        if OBS.enabled:
            OBS.charge("pager.pages_written", pages)

    def record_count(self) -> int:
        return len(self._records)

    def record_sizes(self) -> list[int]:
        """Every record's byte size in storage order.

        The integrity verifier recomputes offsets from these and checks
        they agree with :meth:`total_bytes`; callers must treat the list
        as a copy.
        """
        return list(self._records)

    def total_bytes(self) -> int:
        return self._records.total_weight()

    def page_count(self) -> int:
        total = self.total_bytes()
        return -(-total // self.page_bytes) if total else 0

    def _offset(self, record: int) -> int:
        """Byte offset where record ``record`` begins — O(log(N/B) + B)."""
        return self._records.prefix_weight(record)

    def pages_of_range(self, first_record: int, last_record: int) -> int:
        """Distinct pages occupied by records ``[first, last]`` inclusive."""
        return len(self._page_span(first_record, last_record))

    # -- mutation accounting ---------------------------------------------------

    def _page_span(self, first_record: int, last_record: int) -> range:
        if self.record_count() == 0:
            return range(0)
        first_record = max(0, min(first_record, self.record_count() - 1))
        last_record = max(first_record, min(last_record, self.record_count() - 1))
        first_byte = self._offset(first_record)
        first_page = first_byte // self.page_bytes
        end_byte = max(self._offset(last_record + 1) - 1, first_byte)
        return range(first_page, end_byte // self.page_bytes + 1)

    def _pool_key(self, page_id: int) -> tuple[str, int]:
        return (self.namespace, page_id)

    def _counters_undo(self) -> Callable[[], None]:
        """A closure restoring the counters (and pool) to right now.

        The buffer pool snapshot is bounded by the pool's capacity, so
        the capture stays O(cache pages), not O(document).
        """
        reads, writes = self.counter.reads, self.counter.writes
        pool = self.buffer_pool
        pool_state = None if pool is None else pool.state_snapshot()

        def undo() -> None:
            self.counter.reads = reads
            self.counter.writes = writes
            if pool_state is not None:
                pool.restore(pool_state)

        return undo

    def _write_pages(self, pages: int) -> None:
        """The page-write fault point: every write path funnels through here.

        With nothing armed this is one attribute check.  A
        :class:`TransientFault` is retried up to the policy bound,
        accumulating *modeled* backoff seconds (never slept — RPR006);
        a persistent fault propagates to the enclosing transaction on
        the first raise.
        """
        if not FAULTS.enabled:
            return
        attempt = 1
        while True:
            try:
                FAULTS.hit("pager.page_write", count=pages)
                return
            except TransientFault:
                if attempt >= self.retry.max_attempts:
                    raise
                self.retry_backoff_seconds += self.retry.backoff_seconds(
                    attempt
                )
                attempt += 1
                OBS.inc("retry.attempts")

    def charge_reads(self, pages: int) -> None:
        """Count ``pages`` pure page reads (no write, no pool traffic).

        The undoable replacement for callers reaching into
        ``counter.reads`` directly (e.g. the label store's SC-page
        accounting), so a rollback reconciles these too.
        """
        if pages <= 0:
            return
        log = self.undo_log
        if log is not None:
            log.record(self._counters_undo())
        self.counter.reads += pages
        if OBS.enabled:
            OBS.charge("pager.pages_read", pages)

    def touch_range(self, first_record: int, last_record: int) -> int:
        """Read-modify-write the pages covering a record range.

        With a buffer pool attached, reads that hit the pool are free;
        writes always reach storage (write-through).
        """
        span = self._page_span(first_record, last_record)
        pages = len(span)
        log = self.undo_log
        if log is not None:
            log.record(self._counters_undo())
        if self.buffer_pool is None:
            reads = pages
        else:
            reads = 0
            for page_id in span:
                if not self.buffer_pool.access(self._pool_key(page_id)):
                    reads += 1
        self.counter.reads += reads
        self.counter.writes += pages
        # Fault point last: a fault here leaves the counters and pool
        # already mutated, which is exactly what the undo must unwind.
        self._write_pages(pages)
        if OBS.enabled:
            OBS.charge("pager.pages_read", reads)
            OBS.charge("pager.pages_written", pages)
        return pages

    def splice(
        self, position: int, new_sizes: list[int], removed: int = 0
    ) -> int:
        """Insert/remove records at ``position``; returns pages touched.

        Models a slotted-page layout: the insertion lands in the page(s)
        already holding that neighbourhood (splitting locally when the
        records outgrow them), so a *dynamic* label insert costs one or
        two page I/Os — while a re-label storm, driven through
        :meth:`touch_range`, pays for every page its records span.  This
        is the asymmetry behind Figure 7.

        Every page past the ones this splice rewrites now holds shifted
        records, so those pool entries are dropped: a later
        :meth:`touch_range` over them must re-read, not count phantom
        hits on contents that moved.
        """
        if not 0 <= position <= self.record_count():
            raise ValueError(
                f"position {position} out of range 0..{self.record_count()}"
            )
        if removed < 0 or position + removed > self.record_count():
            raise ValueError("removed range exceeds the stored records")
        for size in new_sizes:
            if size < 0:
                raise ValueError(f"record size must be non-negative: {size}")
        anchor_page = self._offset(position) // self.page_bytes
        log = self.undo_log
        if log is not None and (new_sizes or removed):
            # Items ARE the record sizes, so slicing the index before the
            # delete captures everything the inverse splice needs.
            removed_sizes = (
                list(self._records[position : position + removed])
                if removed
                else []
            )
            counters_undo = self._counters_undo()

            def undo_splice() -> None:
                if new_sizes:
                    self._records.delete_run(position, len(new_sizes))
                if removed_sizes:
                    self._records.insert_run(
                        position, removed_sizes, weights=removed_sizes
                    )
                counters_undo()

            log.record(undo_splice)
        if removed:
            self._records.delete_run(position, removed)
        if new_sizes:
            self._records.insert_run(position, new_sizes, weights=new_sizes)
        if not new_sizes and not removed:
            return 0
        # Local cost: the page holding the neighbourhood plus any pages
        # the new records themselves span.
        new_bytes = sum(new_sizes)
        pages = 1 + new_bytes // self.page_bytes
        dropped = 0
        if self.buffer_pool is None:
            reads = pages
        else:
            reads = 0
            for page_id in range(anchor_page, anchor_page + pages):
                if not self.buffer_pool.access(self._pool_key(page_id)):
                    reads += 1
            # The rewritten pages went through the pool (their frames
            # now match storage); everything after them shifted.
            dropped = self.buffer_pool.invalidate_from(
                self.namespace, anchor_page + pages
            )
        self.counter.reads += reads
        self.counter.writes += pages
        # Fault point after the offset splice and pool invalidation so an
        # injected write failure exercises the full inverse.
        self._write_pages(pages)
        if OBS.enabled:
            OBS.charge("pager.pages_read", reads)
            OBS.charge("pager.pages_written", pages)
            OBS.charge("pager.pages_invalidated", dropped)
        return pages

    def overwrite(self, record: int) -> int:
        """Rewrite one record in place (same size); returns pages touched."""
        return self.touch_range(record, record)


class BufferPool:
    """An LRU page cache with hit/miss accounting.

    Purely optional: experiments reproduce the paper's cold-cache
    behaviour without one, but a real deployment fronts the label file
    with a buffer pool, and the update workloads' locality (skew!) makes
    its hit ratio interesting.  Write-through: writes always reach the
    page store; reads that hit the pool cost nothing.

    Page keys are opaque hashables.  :class:`PageStore` keys its pages
    as ``(namespace, page_id)`` tuples so several stores can share one
    pool without their page numbers aliasing.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._pages: dict[object, None] = {}  # insertion-ordered LRU

    def access(self, page_id: object) -> bool:
        """Touch a page; returns True on a cache hit."""
        if page_id in self._pages:
            self._pages.pop(page_id)
            self._pages[page_id] = None
            self.hits += 1
            if OBS.enabled:
                OBS.charge("pager.pool_hits", 1)
            return True
        self.misses += 1
        if OBS.enabled:
            OBS.charge("pager.pool_misses", 1)
        self._pages[page_id] = None
        if len(self._pages) > self.capacity:
            self._pages.pop(next(iter(self._pages)))
        return False

    def invalidate(self, page_id: object) -> None:
        self._pages.pop(page_id, None)

    def state_snapshot(self) -> tuple[dict, int, int]:
        """Copy of the LRU contents (with order) and the hit/miss tallies."""
        return (dict(self._pages), self.hits, self.misses)

    def restore(self, state: tuple[dict, int, int]) -> None:
        """Return the pool to a :meth:`state_snapshot` capture."""
        pages, hits, misses = state
        self._pages = dict(pages)
        self.hits = hits
        self.misses = misses

    def invalidate_from(self, namespace: str, first_page: int) -> int:
        """Drop every cached page of ``namespace`` numbered >= ``first_page``.

        Called after a splice shifts records: those frames describe
        pre-shift contents, and counting hits on them inflates the hit
        ratio with reads the device never saw.  Returns pages dropped.
        Keys that are not ``(namespace, page_id)`` tuples (e.g. pages
        cached directly by tests) are left alone.
        """
        stale = [
            key
            for key in self._pages
            if isinstance(key, tuple)
            and len(key) == 2
            and key[0] == namespace
            and key[1] >= first_page
        ]
        for key in stale:
            del self._pages[key]
        return len(stale)

    def clear(self) -> None:
        self._pages.clear()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
