"""Common machinery for XML labeling schemes (Section 2 of the paper).

A *labeling scheme* assigns every node a label such that the
ancestor-descendant, parent-child, sibling and document-order
relationships can be decided from labels alone — the core operation of
XPath/XQuery processing the paper opens with.  Three families are
implemented, mirroring the paper's Section 2 taxonomy:

* **containment** (`start,end,level`, Zhang et al.) —
  :mod:`repro.labeling.containment`;
* **prefix** (Dewey-style paths, Tatarinov / O'Neil / Cohen et al.) —
  :mod:`repro.labeling.prefix`;
* **prime** (Wu et al.) — :mod:`repro.labeling.prime`.

Each scheme also implements the paper's *update* contract: inserting a
subtree either succeeds dynamically (CDBS/QED/OrdPath/float-point) or
triggers a re-label whose node count the scheme reports — the quantity
Table 4 tabulates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.core.orderindex import OrderStatisticTree
from repro.errors import UnsupportedOperationError
from repro.faults import FAULTS
from repro.xmltree.document import Document
from repro.xmltree.node import Node, NodeKind

__all__ = ["UpdateStats", "LabeledDocument", "LabelingScheme", "compact_labels"]

_MISSING = object()
"""Sentinel distinguishing "no label recorded" from a ``None`` label."""


@dataclass
class UpdateStats:
    """Accounting for one structural update, in the paper's vocabulary.

    Attributes:
        inserted_nodes: nodes added by the update (labels created).
        deleted_nodes: nodes removed by the update.
        relabeled_nodes: *existing* nodes whose labels had to change —
            the Table 4 metric.  Zero for a successful dynamic insert.
        sc_recomputed: Prime only — SC values recomputed (Table 4 counts
            these instead of re-labels for Prime).
        labels_written: total labels persisted (new + re-written); this
            drives the I/O cost model of Figure 7.
        neighbor_bits_modified: bits changed on the *neighbor-derived*
            new label (V-CDBS edits 1 bit of the neighbor's tail, QED 2
            — the Section 7.4 distinction).
    """

    inserted_nodes: int = 0
    deleted_nodes: int = 0
    relabeled_nodes: int = 0
    sc_recomputed: int = 0
    labels_written: int = 0
    neighbor_bits_modified: int = 0

    def merge(self, other: "UpdateStats") -> "UpdateStats":
        return UpdateStats(
            inserted_nodes=self.inserted_nodes + other.inserted_nodes,
            deleted_nodes=self.deleted_nodes + other.deleted_nodes,
            relabeled_nodes=self.relabeled_nodes + other.relabeled_nodes,
            sc_recomputed=self.sc_recomputed + other.sc_recomputed,
            labels_written=self.labels_written + other.labels_written,
            neighbor_bits_modified=(
                self.neighbor_bits_modified + other.neighbor_bits_modified
            ),
        )


class LabeledDocument:
    """A document plus one scheme's labels for every node.

    Labels are keyed by node identity (``id(node)``) because nodes are
    mutable tree objects.  The class also maintains the document-order
    index and a tag index for the query engine; schemes update all
    three in their insert/delete hooks.

    ``nodes_in_order`` is an :class:`OrderStatisticTree`, not a list: it
    iterates, indexes and slices like one, but answers *rank* queries
    (:meth:`position_of`) and positional splices within one block of
    at most B nodes, keeping the update path free of linear scans.
    """

    def __init__(self, document: Document, scheme: "LabelingScheme") -> None:
        self.document = document
        self.scheme = scheme
        self.labels: dict[int, Any] = {}
        self.nodes_in_order = OrderStatisticTree(track_identity=True)
        self.tag_index: dict[str, list[Node]] = {}
        self.extra: dict[str, Any] = {}
        self._tag_bytes_cache: dict[str | None, int] = {}
        #: Duck-typed transaction hook: :class:`repro.updates.txn.Transaction`
        #: binds its undo log here so every mutation below records its
        #: inverse.  ``None`` (the default) keeps mutations log-free, and
        #: keeps this layer from importing ``updates`` (RPR004).
        self.undo_log: Any = None

    # -- label access ------------------------------------------------------

    def label_of(self, node: Node) -> Any:
        return self.labels[id(node)]

    def set_label(self, node: Node, label: Any) -> None:
        if FAULTS.enabled:
            FAULTS.hit("label.write")
        log = self.undo_log
        if log is not None:
            labels = self.labels
            node_id = id(node)
            previous = labels.get(node_id, _MISSING)
            if previous is _MISSING:
                log.record(partial(labels.pop, node_id, None))
            else:
                log.record(partial(labels.__setitem__, node_id, previous))
        self.labels[id(node)] = label

    def total_label_bits(self) -> int:
        """Sum of storage bits over all labels (Figure 5's metric)."""
        bits = self.scheme.label_bits
        return sum(bits(label) for label in self.labels.values())

    def node_count(self) -> int:
        return len(self.nodes_in_order)

    def position_of(self, node: Node) -> int:
        """Document-order position of ``node`` — its block's prefix
        count plus its offset in the block; no scan of the document.

        The update engine's replacement for the seed's list-index scan,
        which re-walked the whole document on every structural update.
        """
        return self.nodes_in_order.position(node)

    def parent_of(self, node: Node) -> Node | None:
        """``node``'s parent in the live tree (a read view answers this
        from its frozen parents instead)."""
        return node.parent

    # -- structural splices (undo-aware tree edits) -------------------------

    def splice_in(self, parent: Node, index: int, child: Node) -> Node:
        """Attach ``child`` at ``parent.children[index]``; inverse: detach.

        Schemes route tree attachment through this (rather than calling
        ``parent.insert_child`` directly) so a transaction can unwind
        the splice on failure.
        """
        parent.insert_child(index, child)
        log = self.undo_log
        if log is not None:
            log.record(child.detach)
        return child

    def splice_out(self, node: Node) -> Node:
        """Detach ``node`` from its parent; inverse: re-attach in place."""
        log = self.undo_log
        if log is not None:
            parent = node.parent
            if parent is not None:
                index = parent.index_of_child(node)
                log.record(partial(parent.insert_child, index, node))
        node.detach()
        return node

    def _restore_order_state(
        self,
        nodes_in_order: OrderStatisticTree,
        tag_index: dict[str, list[Node]],
        tag_bytes_cache: dict[str | None, int],
    ) -> None:
        """Undo hook for :meth:`rebuild_order`: swap the old indexes back."""
        self.nodes_in_order = nodes_in_order
        self.tag_index = tag_index
        self._tag_bytes_cache = tag_bytes_cache

    # -- index maintenance ---------------------------------------------------

    def rebuild_order(self) -> None:
        """Recompute document order and the tag index from the tree."""
        log = self.undo_log
        if log is not None:
            # The rebuild replaces the index objects rather than mutating
            # them, so the inverse is an O(1) reference swap.
            log.record(
                partial(
                    self._restore_order_state,
                    self.nodes_in_order,
                    self.tag_index,
                    self._tag_bytes_cache,
                )
            )
        self.nodes_in_order = OrderStatisticTree(
            self.document.pre_order(), track_identity=True
        )
        self.tag_index = {}
        self._tag_bytes_cache: dict[str | None, int] = {}
        for node in self.nodes_in_order:
            if node.kind is NodeKind.ELEMENT:
                self.tag_index.setdefault(node.name, []).append(node)

    def tag_label_bytes(self, tag: str | None) -> int:
        """Total stored label bytes of the elements a node test scans.

        ``None`` is the wildcard (every element).  A query that touches a
        tag's node list reads that many label bytes off storage — the
        size-driven component of the paper's Figure 6 response times.
        """
        cache = getattr(self, "_tag_bytes_cache", None)
        if cache is None:
            cache = self._tag_bytes_cache = {}
        if tag in cache:
            return cache[tag]
        if tag is None:
            nodes = [
                node
                for node in self.nodes_in_order
                if node.kind is NodeKind.ELEMENT
            ]
        else:
            nodes = self.tag_index.get(tag, [])
        bits = self.scheme.label_bits
        total = sum(-(-bits(self.labels[id(node)]) // 8) for node in nodes)
        # Copy-on-write fill: the memo is *replaced wholesale*, never
        # filled in place.  A concurrent snapshot reader holding the old
        # reference keeps a complete (if smaller) map, a transaction
        # rollback's reference-swap undo restores exactly the dict it
        # captured, and the memo stays strictly per-document state —
        # two documents labeled concurrently cannot see each other's
        # sizes because nothing here outlives ``self``.
        self._tag_bytes_cache = {**cache, tag: total}
        return total

    def register_subtree(self, subtree_root: Node) -> list[Node]:
        """Splice a freshly inserted subtree into order and tag indexes.

        Returns the subtree's nodes in document order (the caller labels
        them).  The insertion position in the global order list is found
        from the tree itself, so the list stays sorted by document order.
        """
        new_nodes = list(subtree_root.pre_order())
        log = self.undo_log
        if log is not None:
            old_cache = self._tag_bytes_cache

            def undo_register() -> None:
                for node in new_nodes:
                    if node.kind is NodeKind.ELEMENT:
                        bucket = self.tag_index.get(node.name)
                        if bucket:
                            self._bucket_discard(bucket, node)
                start = self.nodes_in_order.position(subtree_root)
                self.nodes_in_order.delete_run(start, len(new_nodes))
                self._tag_bytes_cache = old_cache

            log.record(undo_register)
        self._tag_bytes_cache = {}
        position = self._order_position(subtree_root)
        self.nodes_in_order.insert_run(position, new_nodes)
        for node in new_nodes:
            if node.kind is NodeKind.ELEMENT:
                siblings = self.tag_index.setdefault(node.name, [])
                siblings.insert(self._tag_position(node, siblings), node)
        return new_nodes

    def unregister_subtree(self, subtree_root: Node) -> list[Node]:
        """Remove a subtree's nodes from order/tag indexes and labels.

        A subtree is contiguous in document order, so the order index
        drops it as one positional run — a list splice inside one block
        when the run fits — instead of the full-list rebuild this used
        to cost.  Tag buckets are pruned by binary search *before* the
        order/labels are touched (the search keys need them).
        """
        removed = list(subtree_root.pre_order())
        log = self.undo_log
        if log is not None:
            # Captured *before* the mutation: the labels about to be
            # dropped and the order-index position of the run.  At
            # rollback time every later mutation has already been
            # unwound, so re-inserting the run at the same position and
            # restoring the saved labels reproduces the pre-call state.
            saved_labels = [
                (node, self.labels.get(id(node), _MISSING)) for node in removed
            ]
            saved_position = self.nodes_in_order.position(subtree_root)
            old_cache = self._tag_bytes_cache

            def undo_unregister() -> None:
                for node, label in saved_labels:
                    if label is not _MISSING:
                        self.labels[id(node)] = label
                self.nodes_in_order.insert_run(saved_position, removed)
                for node in removed:
                    if node.kind is NodeKind.ELEMENT:
                        bucket = self.tag_index.setdefault(node.name, [])
                        bucket.insert(self._tag_position(node, bucket), node)
                self._tag_bytes_cache = old_cache

            log.record(undo_unregister)
        self._tag_bytes_cache = {}
        position = self.nodes_in_order.position(subtree_root)
        for node in removed:
            if node.kind is NodeKind.ELEMENT:
                bucket = self.tag_index.get(node.name)
                if bucket:
                    self._bucket_discard(bucket, node)
        dropped = self.nodes_in_order.delete_run(position, len(removed))
        if any(a is not b for a, b in zip(dropped, removed)):
            raise RuntimeError(
                "order index out of sync with the tree: the removed run "
                "does not match the subtree's pre-order"
            )
        for node in removed:
            self.labels.pop(id(node), None)
        return removed

    def _bucket_discard(self, bucket: list[Node], node: Node) -> None:
        """Drop ``node`` from one tag bucket — O(log B) bisect, not a
        full rebuild.  Falls back to an identity scan if the bucket's
        ordering is ever out of step with the search keys."""
        index = self._tag_position(node, bucket)
        if index < len(bucket) and bucket[index] is node:
            del bucket[index]
            return
        for fallback, candidate in enumerate(bucket):
            if candidate is node:
                del bucket[fallback]
                return

    def _order_position(self, subtree_root: Node) -> int:
        """Index in ``nodes_in_order`` where the subtree now begins.

        The node preceding the subtree in document order is either the
        deepest last descendant of its previous sibling, or its parent.
        """
        parent = subtree_root.parent
        if parent is None:
            return 0
        position = parent.index_of_child(subtree_root)
        if position == 0:
            predecessor = parent
        else:
            predecessor = parent.children[position - 1]
            while predecessor.children:
                predecessor = predecessor.children[-1]
        return self.nodes_in_order.position(predecessor) + 1

    def _tag_position(self, node: Node, bucket: list[Node]) -> int:
        """Binary search the tag bucket by document order."""
        key = self.scheme.order_key
        try:
            target_key = key(self.label_of(node))
            lo, hi = 0, len(bucket)
            while lo < hi:
                mid = (lo + hi) // 2
                if key(self.label_of(bucket[mid])) < target_key:
                    lo = mid + 1
                else:
                    hi = mid
            return lo
        except (KeyError, ValueError):
            # The node is not fully labeled yet (e.g. Prime assigns SC
            # groups only after registration); fall back to ranks in the
            # already-updated global order index — one rank query per
            # bisection step instead of materialising an O(N) position
            # map per call.
            rank = self.nodes_in_order.position
            target = rank(node)
            lo, hi = 0, len(bucket)
            while lo < hi:
                mid = (lo + hi) // 2
                if rank(bucket[mid]) < target:
                    lo = mid + 1
                else:
                    hi = mid
            return lo


class LabelingScheme(ABC):
    """Interface every labeling scheme implements.

    Attributes:
        name: display name matching the paper's figures (e.g.
            ``"V-CDBS-Containment"``).
        family: ``"containment"``, ``"prefix"`` or ``"prime"``.
        dynamic: whether gap insertion normally succeeds without
            re-labeling existing nodes.
    """

    name: str = "abstract"
    family: str = "abstract"
    dynamic: bool = False

    # -- labeling ------------------------------------------------------------

    @abstractmethod
    def label_document(self, document: Document) -> LabeledDocument:
        """Assign labels to every node of ``document``."""

    @abstractmethod
    def label_bits(self, label: Any) -> int:
        """Storage bits of one label (Figure 5's metric)."""

    # -- relationship predicates (label-only, Section 1) ----------------------

    @abstractmethod
    def is_ancestor(self, ancestor_label: Any, descendant_label: Any) -> bool:
        """Strict ancestor test from labels alone."""

    @abstractmethod
    def is_parent(self, parent_label: Any, child_label: Any) -> bool:
        """Parent test from labels alone."""

    def is_sibling(self, first_label: Any, second_label: Any) -> bool:
        """Sibling test from labels alone (not all families support it)."""
        raise UnsupportedOperationError(
            f"{self.name} cannot decide siblinghood from labels alone"
        )

    @abstractmethod
    def order_key(self, label: Any) -> Any:
        """A sortable key realising document order."""

    def level_of(self, label: Any) -> int:
        """Depth in levels, when the label records it."""
        raise UnsupportedOperationError(
            f"{self.name} labels do not record the level"
        )

    # -- updates ---------------------------------------------------------------

    @abstractmethod
    def insert_subtree(
        self,
        labeled: LabeledDocument,
        parent: Node,
        index: int,
        subtree_root: Node,
    ) -> UpdateStats:
        """Insert ``subtree_root`` as ``parent.children[index]`` and label it.

        Dynamic schemes label the new nodes without touching existing
        labels; schemes that cannot re-label the affected region and
        report the count (the Table 4 metric).
        """

    def insert_run(
        self,
        labeled: LabeledDocument,
        parent: Node,
        index: int,
        subtree_roots: list[Node],
    ) -> UpdateStats:
        """Insert several sibling subtrees at one position.

        The default chains :meth:`insert_subtree`; dynamic schemes
        override it with balanced batch assignment so a K-sibling run
        grows codes by O(log K) bits instead of O(K) (the same argument
        as Algorithm 2's bisection).
        """
        stats = UpdateStats()
        for offset, subtree_root in enumerate(subtree_roots):
            stats = stats.merge(
                self.insert_subtree(labeled, parent, index + offset, subtree_root)
            )
        return stats

    def delete_subtree(
        self, labeled: LabeledDocument, subtree_root: Node
    ) -> UpdateStats:
        """Delete a subtree.

        Deletion never perturbs relative order (Section 5.2.1), so the
        default implementation just detaches the subtree and drops its
        labels; Prime overrides it because SC values embed positions.
        """
        removed = labeled.unregister_subtree(subtree_root)
        labeled.splice_out(subtree_root)
        return UpdateStats(deleted_nodes=len(removed))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def compact_labels(labeled: LabeledDocument) -> int:
    """Re-bulk-encode every label in place (the store's "vacuum").

    Heavy churn — especially skew — leaves dynamic labels longer than a
    fresh Algorithm-2 bulk encoding would be.  Section 5.2.2's analysis
    applies to the *initial* encoding; this helper restores it, at the
    cost of touching every label (a deliberate, offline re-label).
    Returns the number of labels whose stored form changed.
    """
    scheme = labeled.scheme
    before = {
        node_id: scheme.label_bits(label)
        for node_id, label in labeled.labels.items()
    }
    document = labeled.document
    fresh = scheme.label_document(document)
    labeled.labels = fresh.labels
    labeled.nodes_in_order = fresh.nodes_in_order
    labeled.tag_index = fresh.tag_index
    labeled.extra = fresh.extra
    labeled._tag_bytes_cache = {}
    changed = 0
    for node in labeled.nodes_in_order:
        if before.get(id(node)) != scheme.label_bits(labeled.label_of(node)):
            changed += 1
    return changed
