"""The update engine: structural edits with full cost accounting.

Ties together a labeled document, its scheme and (optionally) a label
store, so one call — e.g. :meth:`UpdateEngine.insert_before` — yields
the complete Figure 7 decomposition: the scheme's re-label/SC counts
(Table 4), measured processing seconds, and modelled I/O seconds.

All timing flows through :mod:`repro.obs` spans (rule RPR006).  Each
operation runs inside an ``update.op`` span tagged with its kind, so
every cost the scheme, the order index and the page store charge while
it runs is attributed to that operation in ``OBS.ledger.by_op``.  With
the registry enabled, :attr:`UpdateResult.costs` carries the ledger
delta for the individual update — the per-op view of the same numbers
``UpdateStats`` aggregates — and the engine cross-charges the stats
fields as ``engine.*`` units so ledger and hand-maintained counters can
be reconciled in tests.

Every commit is a group commit.  :meth:`UpdateEngine.commit_group` runs
N ops, each its own transaction that stages one WAL redo record as its
last step, behind a single flush + fsync at the block's close.  A
standalone op is a group of one: it opens its own group, so its record
takes the same stage/flush path and its result carries that flush's
cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.labeling.base import LabeledDocument, UpdateStats
from repro.obs import OBS
from repro.storage.labelstore import LabelStore
from repro.storage.pager import IOCostModel
from repro.updates.txn import Transaction
from repro.wal import BatchReceipt, CommitReceipt, WalManager
from repro.xmltree.node import Node
from repro.xmltree.serializer import serialize

__all__ = ["UpdateResult", "UpdateEngine", "GroupCommitScope"]

DURABILITY_MODES = ("off", "wal")


@dataclass(frozen=True)
class UpdateResult:
    """Everything one structural update cost.

    ``costs`` is the obs-ledger delta attributed to this update (unit
    name -> amount); it is ``None`` when the registry was disabled.
    """

    stats: UpdateStats
    processing_seconds: float
    io_seconds: float
    pages_touched: int
    costs: dict[str, int] | None = field(default=None, compare=False)

    @property
    def total_seconds(self) -> float:
        """Figure 7's metric: processing + I/O."""
        return self.processing_seconds + self.io_seconds


class GroupCommitScope:
    """What one :meth:`UpdateEngine.commit_group` block committed.

    ``receipts`` holds one entry per transaction committed inside the
    group, in commit order — a :class:`~repro.wal.CommitReceipt` (no
    fsync charge; the batch pays it), or ``None`` for an op that staged
    nothing; without a WAL it stays empty.  ``batch`` is filled at block
    exit, after the single coalesced fsync returned (``None`` when the
    group staged nothing); until then nothing in the group may be
    acknowledged as durable.
    """

    __slots__ = ("receipts", "batch")

    def __init__(self) -> None:
        self.receipts: list[CommitReceipt | None] = []
        self.batch: BatchReceipt | None = None

    @property
    def commits(self) -> int:
        """Transactions that actually logged a record."""
        return sum(1 for receipt in self.receipts if receipt is not None)


class UpdateEngine:
    """Runs inserts/deletes against one labeled document.

    Args:
        labeled: the scheme-labeled document to update.
        with_storage: model page I/O via a :class:`LabelStore` (Figure 7
            needs it; pure-processing experiments can turn it off).
        io_model: per-page costs for the store.
        cache_pages: optionally front the store with an LRU buffer pool
            of that many pages (reads that hit it are free).
        durability: ``"off"`` (default — in-memory atomicity only, zero
            WAL overhead) or ``"wal"`` — every committed operation is
            appended to a write-ahead log and fsync'd before the call
            (or its :meth:`commit_group`) returns;
            :func:`repro.wal.recover` rebuilds the state after a crash.
            A standalone op's fsync cost lands in
            ``UpdateResult.io_seconds`` and its ``wal.*`` units in
            ``UpdateResult.costs``.
        wal_dir: the log directory (required for ``durability="wal"``
            unless ``wal`` is given); reopening an existing directory
            resumes its LSN lineage.
        wal: a pre-built :class:`repro.wal.WalManager` (overrides
            ``wal_dir``), for tests that tune the checkpoint policy.
        wal_checkpoint_commits / wal_checkpoint_bytes: the K/B
            checkpoint policy when the engine builds the manager itself.
    """

    def __init__(
        self,
        labeled: LabeledDocument,
        *,
        with_storage: bool = True,
        io_model: IOCostModel | None = None,
        cache_pages: int | None = None,
        durability: str = "off",
        wal_dir=None,
        wal: WalManager | None = None,
        wal_checkpoint_commits: int = 64,
        wal_checkpoint_bytes: int = 256 * 1024,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        self.labeled = labeled
        self.scheme = labeled.scheme
        self.store = (
            LabelStore(labeled, io_model=io_model, cache_pages=cache_pages)
            if with_storage
            else None
        )
        self.durability = durability
        if durability == "wal":
            if wal is None:
                if wal_dir is None:
                    raise ValueError(
                        "durability='wal' needs wal_dir= or a wal= manager"
                    )
                wal = WalManager(
                    wal_dir,
                    labeled,
                    io_model=io_model,
                    checkpoint_every_commits=wal_checkpoint_commits,
                    checkpoint_every_bytes=wal_checkpoint_bytes,
                )
            self.wal: WalManager | None = wal
        else:
            self.wal = None
        self._wal_pending: list[dict] = []
        self._pending_request_id: str | None = None
        self.totals = UpdateStats()
        self._txn_depth = 0
        self._group: GroupCommitScope | None = None

    # -- transactions --------------------------------------------------------

    @contextmanager
    def _atomic(self, op: str) -> Iterator[GroupCommitScope | None]:
        """Run one public operation as a transaction; yields its group.

        Nested calls (``move_before`` runs ``delete`` + ``insert_before``)
        join the outermost transaction rather than opening their own, so
        a failure in the second half unwinds the first half too; they
        yield ``None``.  Any failure inside the body surfaces as
        :class:`~repro.errors.UpdateAborted` after the undo log, the
        ledger and ``self.totals`` are back to their pre-op state.

        The transaction's last step stages the op's redo record (built
        from the sub-ops the body put in ``_wal_pending``) in the open
        commit group, so a staging failure aborts the op like any other.
        A standalone op is a group of one: the group's close flushes the
        record, and a due checkpoint runs after that, where its failure
        can no longer un-commit the op.
        """
        if self._txn_depth:
            yield None
            return
        if self._group is None:
            with self.commit_group() as group, self._atomic(op):
                yield group
            self.maybe_checkpoint()
            return
        self._txn_depth += 1
        totals_before = self.totals
        try:
            with Transaction(op, self.labeled, self.store):
                yield self._group
                self._stage(op)
        except BaseException:
            # UpdateStats is replaced (merge returns a new instance),
            # never mutated, so the captured reference is a snapshot.
            self._wal_pending.clear()
            self._pending_request_id = None
            self.totals = totals_before
            raise
        finally:
            self._txn_depth -= 1

    @contextmanager
    def commit_group(self) -> Iterator[GroupCommitScope]:
        """Coalesce the ops in this block into one WAL fsync (group commit).

        Each op still runs as its own atomic transaction (an abort rolls
        back that op alone and stages nothing), but its record only
        reaches the volatile WAL buffer — the single ``flush`` +
        ``os.fsync`` happens once, at block exit.  Only after that
        returns is *any* op in the group durable, which is why the
        caller must acknowledge the group's commits strictly after the
        block, using the yielded scope's receipts.  Without a WAL the
        block still groups the ops and collects nothing.

        The block never checkpoints; the caller runs
        :meth:`maybe_checkpoint` once its acknowledgements are out.  The
        service's writer needs that ordering because a checkpoint
        *truncates the log* — running it before the acks could destroy
        the ``request_id`` frames of a durable-but-unacked batch,
        exactly the frames crash recovery rebuilds the retry-dedup table
        from.

        If the block body — or the batch fsync itself — raises, the
        staged records are lost and the error propagates unwrapped: the
        in-memory document may be ahead of the log, so the WAL refuses
        further commits until the directory is recovered (the service
        quarantines the document and heals it from disk, which holds
        exactly the acknowledged prefix).
        """
        if self._group is not None:
            raise RuntimeError("a commit group is already open")
        group = GroupCommitScope()
        self._group = group
        try:
            yield group
            if self.wal is not None:
                group.batch = self.wal.end_batch()
        except BaseException:
            if self.wal is not None:
                self.wal.abandon_batch()
            raise
        finally:
            self._group = None

    def maybe_checkpoint(self) -> None:
        """Checkpoint the WAL if its K-commits / B-bytes policy is due."""
        if self.wal is not None:
            self.wal.maybe_checkpoint()

    def stage_request_id(self, request_id: "str | None") -> None:
        """Tag the *next* committed operation's WAL record with a client
        idempotency key.

        Consumed (and cleared) by the next operation's commit; cleared
        without effect if that operation aborts or stages nothing.  The
        service's writer sets this right before each queued op so a
        retried ``request_id`` can be matched against the durable log
        after a crash.
        """
        self._pending_request_id = request_id

    def _stage(self, op: str) -> None:
        """The transaction's last step: stage the op's redo record."""
        subops, self._wal_pending = self._wal_pending, []
        request_id, self._pending_request_id = self._pending_request_id, None
        if self.wal is not None:
            self._group.receipts.append(
                self.wal.commit(op, subops, request_id=request_id)
                if subops
                else None
            )

    @staticmethod
    def _with_wal_costs(
        result: UpdateResult, group: GroupCommitScope | None
    ) -> UpdateResult:
        """``result`` plus the WAL costs of the op that produced it.

        That is the record the op staged and, for a standalone op whose
        group of one has flushed by now, the batch's fsync.  A nested op
        (``group`` is ``None``) or one that logged nothing adds nothing.
        """
        receipt = group.receipts[-1] if group and group.receipts else None
        if receipt is None:
            return result
        charges, io_seconds = receipt.charges, result.io_seconds
        if group.batch is not None:
            io_seconds += group.batch.io_seconds
            charges = {**charges, **group.batch.charges}
        costs = result.costs
        if costs is not None:
            costs = dict(costs)
            for unit, amount in charges.items():
                costs[unit] = costs.get(unit, 0) + amount
        return replace(result, io_seconds=io_seconds, costs=costs)

    def _stage_insert(self, parent: Node, index: int, roots: list[Node]) -> None:
        """Record one insert/insert_run sub-op for the pending WAL record.

        Called after the scheme succeeded, so the fresh labels exist and
        ``parent``'s document-order position is final (its new
        descendants sort after it, so the position equals the pre-op
        one replay will see).
        """
        self._wal_pending.append(
            {
                "kind": "insert" if len(roots) == 1 else "insert_run",
                "parent": self.labeled.position_of(parent),
                "index": index,
                "xml": [serialize(root) for root in roots],
                "labels": self.wal.encode_subtree_labels(self.labeled, roots),
            }
        )

    # -- public operations ---------------------------------------------------

    def insert_before(self, target: Node, subtree_root: Node) -> UpdateResult:
        """Insert ``subtree_root`` as the sibling immediately before ``target``."""
        parent = target.parent
        if parent is None:
            raise ValueError("cannot insert a sibling of the document root")
        return self._insert(parent, parent.index_of_child(target), subtree_root)

    def insert_after(self, target: Node, subtree_root: Node) -> UpdateResult:
        """Insert ``subtree_root`` as the sibling immediately after ``target``."""
        parent = target.parent
        if parent is None:
            raise ValueError("cannot insert a sibling of the document root")
        return self._insert(
            parent, parent.index_of_child(target) + 1, subtree_root
        )

    def insert_child(
        self, parent: Node, subtree_root: Node, index: int | None = None
    ) -> UpdateResult:
        """Insert ``subtree_root`` under ``parent`` (at ``index``, default last)."""
        position = len(parent.children) if index is None else index
        return self._insert(parent, position, subtree_root)

    def insert_run_before(
        self, target: Node, subtree_roots: list[Node]
    ) -> UpdateResult:
        """Insert several siblings immediately before ``target``.

        Dynamic schemes batch the whole run into one balanced gap
        assignment, so K siblings grow codes by O(log K) bits instead of
        the O(K) a chained-insert loop would cause.
        """
        parent = target.parent
        if parent is None:
            raise ValueError("cannot insert siblings of the document root")
        if not subtree_roots:
            # Nothing to insert: no scheme work, no storage charge.  The
            # scheme's insert_run would otherwise still be invoked and
            # the store billed a phantom splice at position 0.
            return UpdateResult(
                stats=UpdateStats(),
                processing_seconds=0.0,
                io_seconds=0.0,
                pages_touched=0,
            )
        index = parent.index_of_child(target)
        with self._atomic("insert_run") as group, OBS.span(
            "update.op", op="insert_run"
        ):
            before = OBS.ledger.totals_snapshot() if OBS.enabled else None
            with OBS.span("update.insert_run") as timing:
                stats = self.scheme.insert_run(
                    self.labeled, parent, index, subtree_roots
                )
            position = self.labeled.position_of(subtree_roots[0])
            if self.wal is not None:
                self._stage_insert(parent, index, subtree_roots)
            result = self._account(stats, position, timing.seconds, before)
        return self._with_wal_costs(result, group)

    def move_before(self, node: Node, target: Node) -> UpdateResult:
        """Relocate ``node`` (with its subtree) to just before ``target``.

        Expressed as delete + insert, which is how order-preserving
        labeling schemes process moves: the subtree's labels are minted
        afresh at the destination gap.  The ledger sees the two halves
        under their own op kinds; ``costs`` spans both.
        """
        if node is target or node.is_ancestor_of(target):
            raise ValueError("cannot move a node before itself or its descendant")
        before = OBS.ledger.totals_snapshot() if OBS.enabled else None
        with self._atomic("move_before") as group:
            # Both halves share the outer transaction: if the re-insert
            # fails, the deletion is unwound with it and the subtree is
            # back at its source, labels and pages included.  Their
            # staged sub-ops likewise land in one WAL record, replayed
            # sequentially (positions were captured per half, so the
            # insert half's are valid in the post-delete state).
            deletion = self.delete(node)
            insertion = self.insert_before(target, node)
            result = UpdateResult(
                stats=deletion.stats.merge(insertion.stats),
                processing_seconds=(
                    deletion.processing_seconds + insertion.processing_seconds
                ),
                io_seconds=deletion.io_seconds + insertion.io_seconds,
                pages_touched=deletion.pages_touched + insertion.pages_touched,
                costs=self._costs_since(before),
            )
        return self._with_wal_costs(result, group)

    def delete(self, node: Node) -> UpdateResult:
        """Delete ``node`` and its subtree."""
        with self._atomic("delete") as group, OBS.span(
            "update.op", op="delete"
        ):
            before = OBS.ledger.totals_snapshot() if OBS.enabled else None
            position = self.labeled.position_of(node)
            with OBS.span("update.delete") as timing:
                stats = self.scheme.delete_subtree(self.labeled, node)
            if self.wal is not None:
                # The pre-delete document-order position: at replay time
                # the record applies to exactly this state.
                self._wal_pending.append({"kind": "delete", "root": position})
            result = self._account(stats, position, timing.seconds, before)
        return self._with_wal_costs(result, group)

    # -- internals ---------------------------------------------------------------

    def _insert(
        self, parent: Node, index: int, subtree_root: Node
    ) -> UpdateResult:
        with self._atomic("insert") as group, OBS.span(
            "update.op", op="insert"
        ):
            before = OBS.ledger.totals_snapshot() if OBS.enabled else None
            with OBS.span("update.insert") as timing:
                stats = self.scheme.insert_subtree(
                    self.labeled, parent, index, subtree_root
                )
            position = self.labeled.position_of(subtree_root)
            if self.wal is not None:
                self._stage_insert(parent, index, [subtree_root])
            result = self._account(stats, position, timing.seconds, before)
        return self._with_wal_costs(result, group)

    def _account(
        self,
        stats: UpdateStats,
        position: int,
        processing: float,
        before: dict[str, int] | None,
    ) -> UpdateResult:
        pages, io_seconds = (
            self.store.apply_update(stats, position)
            if self.store is not None
            else (0, 0.0)
        )
        self.totals = self.totals.merge(stats)
        if OBS.enabled:
            OBS.charge("engine.nodes_inserted", stats.inserted_nodes)
            OBS.charge("engine.nodes_deleted", stats.deleted_nodes)
            OBS.charge("engine.nodes_relabeled", stats.relabeled_nodes)
            OBS.charge("engine.sc_groups_recomputed", stats.sc_recomputed)
            OBS.charge("engine.labels_written", stats.labels_written)
            OBS.charge("engine.pages_touched", pages)
            OBS.observe("update.processing_seconds", processing)
            OBS.observe("update.io_seconds", io_seconds)
        return UpdateResult(
            stats=stats,
            processing_seconds=processing,
            io_seconds=io_seconds,
            pages_touched=pages,
            costs=self._costs_since(before),
        )

    @staticmethod
    def _costs_since(before: dict[str, int] | None) -> dict[str, int] | None:
        """Ledger-totals delta since ``before`` (None when disabled)."""
        if before is None or not OBS.enabled:
            return None
        after = OBS.ledger.totals
        return {
            unit: after[unit] - before.get(unit, 0)
            for unit in after
            if after[unit] != before.get(unit, 0)
        }
