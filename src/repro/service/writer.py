"""The per-document writer: one thread, one commit queue, group commit.

Every mutation of a served document flows through exactly one
:class:`DocumentWriter`.  Client threads :meth:`~DocumentWriter.submit`
an update spec and receive a future; the writer thread drains the queue
in batches and applies each batch inside
:meth:`~repro.updates.UpdateEngine.commit_group` — the engine's one
commit path, which a standalone op takes as a group of one — so the
whole batch shares a single WAL ``flush`` + ``os.fsync``, and the due
checkpoint runs only after the acks.  The acknowledgement protocol is
the durability contract:

* a future resolves (with its LSN and receipts) **only after** the
  batch fsync returned — an acked commit is on disk, always;
* a crash before or during the batch fsync loses the staged records —
  every commit in that batch is *unacked*, its future fails with
  :class:`~repro.errors.ServiceCrashed`, and recovery rebuilds exactly
  the acked prefix;
* a request that fails on its own (bad position, rolled-back
  transaction) fails *only its own* future — the rest of the batch
  commits normally, because each op is still its own transaction.

After each batch the writer publishes a fresh
:class:`~repro.labeling.LabelView` by one reference assignment; read
endpoints follow :attr:`DocumentWriter.view` and therefore never
observe an in-flight batch (and never block the writer).

**Self-healing (ISSUE 9).**  The writer is a small state machine::

    serving --(batch dies half-flushed)--> crashed
    crashed --(submit / recover())------> recovering
    recovering --(wal.recover() ok)-----> serving     [generation += 1]
    recovering --(crash during heal)----> crashed     [healable again]
    any --(close())---------------------> closing -> closed

A crash quarantines the document (memory may be ahead of the log); the
next :meth:`submit` — or an explicit :meth:`recover` — rebuilds the
exact durable prefix from the WAL directory, republishes a fresh view,
and bumps :attr:`generation` so waiters failed by the dead generation
are distinguishable from acks minted by the healed one.  Recovery runs
under one lock, so concurrent submits against a crashed document elect
exactly one healer; the rest block briefly and land on the healed
writer.

**Idempotent retries.**  An op may carry a ``request_id``: it is logged
in the commit's WAL frame header and remembered in a bounded dedup
table (rebuilt from the log during recovery).  A retry of an already
acked ``request_id`` returns the original ack — flagged
``deduplicated`` — instead of applying twice, which is what makes
"timeout, then retry" a safe client policy across crashes.

**Deadlines and backpressure.**  An op may carry a ``deadline`` (queue
-wait budget in seconds, measured against the writer's injectable
``clock``); an op that waited longer fails with
:class:`~repro.errors.DeadlineExceeded` *without being applied*.  The
commit queue itself is bounded: a submit against a full queue is
refused with :class:`~repro.errors.ServiceOverloaded` carrying a
modeled ``retry_after`` hint — backpressure instead of collapse.

:meth:`DocumentWriter.apply_batch` is deliberately callable without the
thread: the crash matrix and the deterministic tests drive the same
batch/ack/publish code path synchronously.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceeded,
    ServiceCrashed,
    ServiceError,
    ServiceOverloaded,
    UpdateAborted,
)
from repro.faults import FAULTS
from repro.labeling.snapshot import LabelView, capture
from repro.obs import OBS
from repro.updates.engine import UpdateEngine, UpdateResult
from repro.wal import WalManager
from repro.wal import recover as wal_recover
from repro.xmltree import parse_fragment

__all__ = ["UpdateRequest", "DocumentWriter", "UPDATE_KINDS"]

UPDATE_KINDS = (
    "insert_child",
    "insert_before",
    "insert_after",
    "delete",
    "move_before",
)

_SHUTDOWN = object()
"""Queue sentinel: drain what is ahead of it, then stop the thread."""

#: Longest accepted ``request_id`` — bounds WAL header growth per frame.
_MAX_REQUEST_ID_CHARS = 200


@dataclass
class UpdateRequest:
    """One queued update: the client-facing spec plus its ack future.

    ``deadline`` is the queue-wait budget in seconds (``None`` = wait
    forever) and ``enqueued_at`` the writer-clock timestamp
    :meth:`DocumentWriter.submit` stamped; requests built directly (the
    crash matrix, deterministic tests) leave both ``None`` and are
    never expired.
    """

    op: dict
    future: Future = field(default_factory=Future)
    deadline: "float | None" = None
    enqueued_at: "float | None" = None


@dataclass
class _Outcome:
    """What one request in a batch resolved to (exactly one is set).

    ``dedup_rid`` marks a request whose ``request_id`` was already
    acked — at ack time it resolves to the *original* ack instead of a
    result; it consumed no transaction and no WAL receipt.
    """

    request: UpdateRequest
    error: "BaseException | None" = None
    result: "UpdateResult | None" = None
    rid: "str | None" = None
    dedup_rid: "str | None" = None


class DocumentWriter:
    """Single-writer commit queue with group commit for one document.

    Args:
        engine: the document's update engine.  Batches run under
            :meth:`UpdateEngine.commit_group` either way; without a WAL
            the batching still serializes writers and publishes
            snapshots, there is just nothing to fsync (and nothing to
            recover from — a crash without a WAL is permanent).
        max_batch: the most queued requests one batch may coalesce.
            ``1`` disables group commit (one fsync per commit — the
            bench's baseline mode).
        max_queue: commit-queue bound; a submit against a full queue is
            refused with :class:`ServiceOverloaded`.  ``None`` disables
            the bound, ``0`` refuses every submit (drain-only mode).
        dedup_capacity: how many acked ``request_id`` entries the
            retry-dedup table retains (FIFO eviction).
        auto_recover: heal a crashed document on the next submit instead
            of refusing it (requires a WAL).
        clock: seconds-returning callable used for deadline accounting;
            defaults to ``time.time``.  Tests inject a manual clock so
            expiry is deterministic (the clock is bookkeeping for
            *timestamps*, never a performance measurement — RPR006).
    """

    def __init__(
        self,
        engine: UpdateEngine,
        *,
        max_batch: int = 32,
        max_queue: "int | None" = 256,
        dedup_capacity: int = 1024,
        auto_recover: bool = True,
        clock=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0 (or None for unbounded)")
        if dedup_capacity < 1:
            raise ValueError("dedup_capacity must be >= 1")
        self.engine = engine
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.dedup_capacity = dedup_capacity
        self.auto_recover = auto_recover
        self.clock = time.time if clock is None else clock
        self.status = "serving"
        self.crash_cause: BaseException | None = None
        #: Bumped on every successful recovery.  Futures failed by a
        #: crash belong to the generation that died; acks minted after
        #: the heal belong to the new one.
        self.generation = 0
        self.commits_acked = 0
        self.requests_failed = 0
        self.batches = 0
        self.fsyncs = 0
        self.recoveries = 0
        self.retries_deduped = 0
        self.rejected_overload = 0
        self.deadlines_expired = 0
        if engine.wal is not None:
            self.acked_version = engine.wal.next_lsn - 1
        else:
            self.acked_version = 0
        #: The published committed read view; replaced (never mutated)
        #: at each batch boundary.  Readers copy the reference once and
        #: work with a consistent version for as long as they hold it.
        self.view: LabelView = capture(engine.labeled, self.acked_version)
        self._queue: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None
        #: Serializes crash -> recovering -> serving transitions (and
        #: quarantine's queue drain) so concurrent submits against a
        #: crashed document elect exactly one healer.
        self._heal_lock = threading.Lock()
        self._dedup_lock = threading.Lock()
        self._dedup: "OrderedDict[str, dict]" = OrderedDict()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DocumentWriter":
        """Launch the writer thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-writer", daemon=True
            )
            self._thread.start()
        return self

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting updates, drain the queue, join the thread.

        Always lands in ``closed`` — including from ``crashed`` (the
        cause stays in :attr:`crash_cause` for post-mortems).  Requests
        still queued behind a dead writer thread are failed with a
        clean :class:`ServiceError`, never left hanging.
        """
        with self._heal_lock:
            if self.status in ("serving", "recovering"):
                self.status = "closing"
        self._queue.put(_SHUTDOWN)
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        # A crashed writer's thread exited without draining; anything
        # still queued would otherwise hang its waiter forever.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if pending is _SHUTDOWN or pending.future.done():
                continue
            pending.future.set_exception(
                ServiceError(
                    "document writer closed before this update was applied"
                )
            )
            self.requests_failed += 1
        with self._heal_lock:
            self.status = "closed"

    # -- recovery ----------------------------------------------------------

    def recover(self) -> dict:
        """Heal a crashed document in place: ``crashed -> recovering ->
        serving``.

        Runs :func:`repro.wal.recover` over the document's WAL
        directory, swaps in a fresh engine + WAL manager over the same
        lineage (LSNs resume after the last durable record), republishes
        the committed :class:`LabelView`, rebuilds the retry-dedup table
        from the log's ``request_id`` headers, and bumps
        :attr:`generation`.  Nothing is replayed twice — replay skips
        records at or below the checkpoint watermark, exactly as a
        process restart would.

        Serialized by the heal lock: under concurrent submits exactly
        one caller heals; the rest observe ``serving`` and return.  A
        failure *during* recovery (including an injected crash at the
        ``service.recover`` site) puts the writer back in ``crashed``,
        healable by the next attempt.

        Returns a summary dict (``healed`` is False when there was
        nothing to do).  Raises :class:`ServiceError` when the writer
        is closing/closed or has no WAL to recover from.
        """
        with self._heal_lock:
            if self.status == "serving":
                return {
                    "healed": False,
                    "status": self.status,
                    "generation": self.generation,
                }
            if self.status in ("closing", "closed"):
                raise ServiceError(
                    f"document writer is {self.status}; cannot recover"
                )
            engine = self.engine
            if engine.wal is None:
                raise ServiceError(
                    "document has no WAL (durability off); a crashed "
                    "in-memory document cannot be recovered"
                )
            self.status = "recovering"
            try:
                if FAULTS.enabled:
                    FAULTS.hit("service.recover")
                report = wal_recover(engine.wal.directory)
                old_wal = engine.wal
                wal = WalManager(
                    old_wal.directory,
                    report.labeled,
                    io_model=old_wal.io_model,
                    checkpoint_every_commits=old_wal.checkpoint_every_commits,
                    checkpoint_every_bytes=old_wal.checkpoint_every_bytes,
                    page_bytes=old_wal.page_bytes,
                )
                healed = UpdateEngine(
                    report.labeled,
                    with_storage=engine.store is not None,
                    durability="wal",
                    wal=wal,
                )
            except BaseException as error:
                self.status = "crashed"
                self.crash_cause = error
                raise
            self.engine = healed
            self.acked_version = wal.next_lsn - 1
            self.view = capture(healed.labeled, self.acked_version)
            self._rebuild_dedup(report)
            self.crash_cause = None
            self.generation += 1
            self.recoveries += 1
            restart = self._thread is not None
            if restart:
                # The old generation's thread returned when its batch
                # died; the healed writer needs a fresh one.
                self._thread = None
            self.status = "serving"
        if OBS.enabled:
            OBS.inc("service.recoveries")
        if restart:
            self.start()
        return {
            "healed": True,
            "status": "serving",
            "generation": self.generation,
            "watermark": report.watermark,
            "last_lsn": report.last_lsn,
            "replayed": report.replayed,
            "skipped": report.skipped,
            "dedup_entries": len(self._dedup),
        }

    # -- the client side ---------------------------------------------------

    def submit(self, op: dict) -> Future:
        """Enqueue one update spec; returns the future its ack resolves.

        On a crashed document this first heals in place (when
        ``auto_recover`` is on and a WAL exists) — the self-healing
        entry point.  A ``request_id`` already acked returns the
        original ack immediately; a full queue raises
        :class:`ServiceOverloaded` without enqueueing anything.
        """
        request_id, deadline = self._validate_envelope(op)
        self._ensure_accepting()
        if request_id is not None:
            original = self._dedup_lookup(request_id)
            if original is not None:
                return self._deduped_future(original)
        if self.max_queue is not None:
            depth = self._queue.qsize()
            if depth >= self.max_queue:
                self.rejected_overload += 1
                if OBS.enabled:
                    OBS.inc("service.rejected_overload")
                hint = self.retry_after_hint()
                raise ServiceOverloaded(
                    f"commit queue is full ({depth} >= {self.max_queue} "
                    f"queued updates); retry after ~{hint}s",
                    retry_after=hint,
                )
        request = UpdateRequest(
            op=op, deadline=deadline, enqueued_at=self.clock()
        )
        self._queue.put(request)
        return request.future

    def retry_after_hint(self) -> float:
        """Modeled seconds until the current queue should have drained.

        One batch costs roughly one fsync; the fsync cost comes from
        the WAL's :class:`~repro.storage.pager.IOCostModel` (modeled,
        never measured), so the hint is deterministic.
        """
        depth = self._queue.qsize()
        batches_ahead = max(1, -(-depth // self.max_batch))
        wal = self.engine.wal
        per_batch = wal.io_model.cost(0, 1) if wal is not None else 0.001
        return round(batches_ahead * per_batch, 4)

    @property
    def queue_depth(self) -> int:
        """Approximate commit-queue depth (the backpressure signal)."""
        return self._queue.qsize()

    @property
    def dedup_entries(self) -> int:
        with self._dedup_lock:
            return len(self._dedup)

    @property
    def amortized_fsyncs_per_commit(self) -> float:
        """Commit-path fsyncs divided by acked commits (the headline)."""
        if not self.commits_acked:
            return 0.0
        return self.fsyncs / self.commits_acked

    def _validate_envelope(self, op):
        """Extract + validate the service-level envelope keys of a spec."""
        if not isinstance(op, dict):
            return None, None  # _apply rejects it with the full message
        request_id = op.get("request_id")
        if request_id is not None and (
            not isinstance(request_id, str)
            or not request_id
            or len(request_id) > _MAX_REQUEST_ID_CHARS
        ):
            raise ServiceError(
                f"'request_id' must be a non-empty string of at most "
                f"{_MAX_REQUEST_ID_CHARS} characters"
            )
        deadline = op.get("deadline")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or deadline <= 0
        ):
            raise ServiceError(
                "'deadline' must be a positive number of seconds"
            )
        return request_id, deadline

    def _ensure_accepting(self) -> None:
        status = self.status
        if status == "serving":
            return
        if status in ("crashed", "recovering"):
            if self.auto_recover and self.engine.wal is not None:
                # recover() serializes on the heal lock: exactly one
                # submitter heals, the rest block until it is done.
                self.recover()
                if self.status == "serving":
                    return
            cause = self.crash_cause
            raise ServiceCrashed(
                f"document writer is crashed (generation "
                f"{self.generation}"
                + (f", cause {cause!r}" if cause is not None else "")
                + "); recover the document to resume — the durable "
                "(acked) prefix is intact"
            )
        raise ServiceError(
            f"document writer is {status}; not accepting updates"
        )

    def _deduped_future(self, original_ack: dict) -> Future:
        self.retries_deduped += 1
        if OBS.enabled:
            OBS.inc("service.retries_deduped")
        future: Future = Future()
        ack = dict(original_ack)
        ack["deduplicated"] = True
        future.set_result(ack)
        return future

    # -- the retry-dedup table ---------------------------------------------

    def _dedup_lookup(self, request_id: str) -> "dict | None":
        with self._dedup_lock:
            return self._dedup.get(request_id)

    def _dedup_record(self, request_id: str, ack: dict) -> None:
        with self._dedup_lock:
            self._dedup[request_id] = ack
            self._dedup.move_to_end(request_id)
            while len(self._dedup) > self.dedup_capacity:
                self._dedup.popitem(last=False)

    def _rebuild_dedup(self, report) -> None:
        """Reconstruct the dedup table from the recovered log's headers.

        The rebuild discipline (RPR011): the table is derived state —
        any mutation that is not undo-registered must be recoverable by
        rebuilding from the durable log, which is exactly what this
        does.  Recovered entries carry reduced acks (the original batch
        context is gone), flagged ``recovered``.
        """
        entries = list(report.request_ids)[-self.dedup_capacity :]
        with self._dedup_lock:
            self._dedup = OrderedDict(
                (
                    rid,
                    {
                        "lsn": lsn,
                        "version": lsn,
                        "recovered": True,
                    },
                )
                for rid, lsn in entries
            )

    # -- the writer side ---------------------------------------------------

    def _run(self) -> None:
        while True:
            entry = self._queue.get()
            stop = entry is _SHUTDOWN
            requests = [] if stop else [entry]
            while len(requests) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    stop = True
                else:
                    requests.append(extra)
            if requests:
                try:
                    self.apply_batch(requests)
                except BaseException:
                    # apply_batch already quarantined the document and
                    # failed every outstanding future; the thread's only
                    # remaining job is to stop driving the engine.
                    return
            if stop:
                return

    def apply_batch(self, requests: "list[UpdateRequest]") -> None:
        """Apply one batch: N transactions, one fsync, then the acks.

        Synchronous on purpose — the thread loop, the crash matrix and
        the deterministic tests all run batches through here.  Any
        failure that is not a per-request error (a simulated crash at a
        WAL site, an unexpected bug) quarantines the document: memory
        can be ahead of the log once a batch dies half-flushed, so no
        further writes are accepted and every waiter is told the truth
        (:class:`ServiceCrashed` — "consult recovery, not me").
        """
        engine = self.engine
        outcomes: list[_Outcome] = []
        try:
            with engine.commit_group() as group:
                self._apply_requests(requests, outcomes)
        except BaseException as error:
            self._quarantine(error, requests)
            raise
        try:
            self._acknowledge(outcomes, group.receipts, group.batch)
            # Only now, after the acks: a checkpoint truncates the log,
            # and the log must retain every request_id frame whose ack
            # hasn't gone out yet (they rebuild the dedup table if we
            # die first).
            engine.maybe_checkpoint()
        except BaseException as error:
            # A crash between the batch fsync and the acks (e.g. the
            # service.dedup fault site) leaves the batch durable but
            # *unacked*: recovery includes it and retried request_ids
            # dedup.  A crash in the checkpoint lands even later — after
            # the acks — so clients saw their results; either way the
            # document quarantines and heals in place.
            self._quarantine(error, requests)
            raise

    def _apply_requests(self, requests, outcomes) -> None:
        engine = self.engine
        batch_rids: set[str] = set()
        for request in requests:
            op = request.op
            rid = op.get("request_id") if isinstance(op, dict) else None
            if rid is not None and (
                rid in batch_rids or self._dedup_lookup(rid) is not None
            ):
                # Queued duplicate (or a duplicate earlier in this very
                # batch): resolve to the original ack at ack time, do
                # not re-apply.
                outcomes.append(_Outcome(request, dedup_rid=rid))
                continue
            expired = self._deadline_error(request)
            if expired is not None:
                outcomes.append(_Outcome(request, error=expired))
                continue
            # Tag (or clear) the idempotency key the next commit's WAL
            # record will carry.
            engine.stage_request_id(rid)
            try:
                result = self._apply(op)
            except (ServiceError, UpdateAborted, ValueError) as error:
                # This request's own failure: nothing of it was staged
                # (staging is a transaction's last step), the rest of
                # the batch is unaffected.
                outcomes.append(_Outcome(request, error=error))
            else:
                outcomes.append(_Outcome(request, result=result, rid=rid))
                if rid is not None:
                    batch_rids.add(rid)

    def _deadline_error(self, request) -> "DeadlineExceeded | None":
        if request.deadline is None or request.enqueued_at is None:
            return None
        waited = self.clock() - request.enqueued_at
        if waited <= request.deadline:
            return None
        self.deadlines_expired += 1
        if OBS.enabled:
            OBS.inc("service.deadlines_expired")
        return DeadlineExceeded(
            f"update waited {waited:.3f}s in the commit queue, past its "
            f"{request.deadline}s deadline; it was not applied"
        )

    def _apply(self, op) -> UpdateResult:
        """Resolve one update spec against the *current* document state.

        Positions are document-order indexes interpreted at apply time,
        i.e. after every earlier update in the submission order — the
        service's documented addressing contract.
        """
        if not isinstance(op, dict):
            raise ServiceError(f"update spec must be an object, got {op!r}")
        kind = op.get("kind")
        if kind not in UPDATE_KINDS:
            raise ServiceError(
                f"unknown update kind {kind!r}; expected one of {UPDATE_KINDS}"
            )
        engine = self.engine
        order = engine.labeled.nodes_in_order

        def node_at(key: str):
            position = op.get(key)
            if isinstance(position, bool) or not isinstance(position, int):
                raise ServiceError(
                    f"op {kind!r} needs an integer {key!r} position, "
                    f"got {position!r}"
                )
            if not 0 <= position < len(order):
                raise ServiceError(
                    f"{key}={position} is outside the current "
                    f"{len(order)}-node document"
                )
            return order[position]

        if kind == "delete":
            return engine.delete(node_at("target"))
        if kind == "move_before":
            return engine.move_before(node_at("node"), node_at("target"))
        xml = op.get("xml")
        if not isinstance(xml, str) or not xml:
            raise ServiceError(f"op {kind!r} needs a non-empty 'xml' string")
        subtree = parse_fragment(xml, keep_whitespace=True)
        if kind == "insert_before":
            return engine.insert_before(node_at("target"), subtree)
        if kind == "insert_after":
            return engine.insert_after(node_at("target"), subtree)
        index = op.get("index")
        if index is not None and (
            isinstance(index, bool) or not isinstance(index, int)
        ):
            raise ServiceError(f"op {kind!r} index must be an integer or null")
        return engine.insert_child(node_at("parent"), subtree, index)

    def _acknowledge(self, outcomes, receipts, batch) -> None:
        """Publish the new committed view, then resolve every future.

        Ordering matters: the version/view are visible before any
        waiter wakes, so a client that re-reads right after its ack
        always sees (at least) its own commit.  Dedup recording happens
        at resolution time, in outcome order, so a duplicate later in
        the same batch finds its original's ack already in the table.
        """
        engine = self.engine
        committed = sum(
            1
            for outcome in outcomes
            if outcome.error is None and outcome.dedup_rid is None
        )
        if committed and FAULTS.enabled:
            # The service.dedup crash site: the batch fsync returned but
            # nothing below ran — durable, unacked, dedup not recorded.
            FAULTS.hit("service.dedup")
        deduped = sum(1 for o in outcomes if o.dedup_rid is not None)
        if engine.wal is not None:
            version = engine.wal.next_lsn - 1
        else:
            version = self.acked_version + committed
        fsyncs = 1 if batch is not None else 0
        self.commits_acked += committed
        self.requests_failed += sum(
            1 for outcome in outcomes if outcome.error is not None
        )
        self.retries_deduped += deduped
        self.batches += 1
        self.fsyncs += fsyncs
        self.acked_version = version
        self.view = capture(engine.labeled, version)
        if OBS.enabled:
            OBS.inc("service.batches")
            OBS.inc("service.commits_acked", committed)
            if deduped:
                OBS.inc("service.retries_deduped", deduped)
        receipt_iter = iter(receipts)
        for outcome in outcomes:
            request = outcome.request
            if outcome.error is not None:
                request.future.set_exception(outcome.error)
                continue
            if outcome.dedup_rid is not None:
                original = self._dedup_lookup(outcome.dedup_rid)
                if original is None:
                    # Evicted between apply and ack (tiny capacity +
                    # a rid-heavy batch): the apply was skipped, so the
                    # honest answer is a reduced duplicate ack.
                    original = {"lsn": None, "version": version}
                ack = dict(original)
                ack["deduplicated"] = True
                request.future.set_result(ack)
                continue
            receipt = next(receipt_iter, None)
            stats = outcome.result.stats
            ack = {
                "lsn": None if receipt is None else receipt.lsn,
                "version": version,
                "generation": self.generation,
                "batch_commits": committed,
                "batch_fsyncs": fsyncs,
                "inserted_nodes": stats.inserted_nodes,
                "deleted_nodes": stats.deleted_nodes,
                "relabeled_nodes": stats.relabeled_nodes,
                "processing_seconds": outcome.result.processing_seconds,
                "io_seconds": outcome.result.io_seconds,
            }
            if outcome.rid is not None:
                self._dedup_record(outcome.rid, dict(ack))
            request.future.set_result(ack)

    def _quarantine(self, error, requests) -> None:
        """Mark the document failed and tell every waiter the truth."""
        with self._heal_lock:
            self.status = "crashed"
            self.crash_cause = error
            failed = list(requests)
            while True:
                try:
                    pending = self._queue.get_nowait()
                except queue.Empty:
                    break
                if pending is not _SHUTDOWN:
                    failed.append(pending)
            generation = self.generation
        for request in failed:
            if request.future.done():
                continue
            request.future.set_exception(
                ServiceCrashed(
                    f"writer (generation {generation}) died before this "
                    f"commit was acknowledged ({error!r}); the durable "
                    f"(acked) prefix is intact — recover the document "
                    f"and retry, with a request_id to stay idempotent"
                )
            )
            self.requests_failed += 1
