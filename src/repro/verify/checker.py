"""The invariant checks behind :func:`verify_integrity`.

Each check re-derives one property from the primary structures instead
of trusting cached state:

* **tree-order** — the order index holds exactly the document's
  pre-order, node for node (by identity), and answers rank queries
  consistently with its own iteration order.
* **labels** — every node has a label, no label is orphaned, and the
  scheme's ``order_key`` is *strictly* increasing along document order
  (the paper's Section 3 requirement: labels alone decide order).
* **sc-groups** — for Prime: groups chunk the document in fives, each
  member's ``SC mod self_label`` recovers its 1-based in-group order,
  and every label points at the group that actually contains it.
* **storage** — the page store holds one record per node, every record
  size is non-negative, and the sizes sum to the store's byte total
  (the offset index's weight invariant); the SC file holds one record
  per group.

Checks report :class:`Violation` values rather than raising so a single
pass describes *everything* wrong — the shape chaos tests and the CLI
both want.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.labeling.base import LabeledDocument
from repro.labeling.prime import GROUP_SIZE
from repro.xmltree.node import Node

__all__ = ["Violation", "verify_integrity", "violation_dicts"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable code plus a human-readable detail."""

    code: str
    message: str


def violation_dicts(violations: list[Violation]) -> list[dict[str, str]]:
    """Violations as JSON-ready dicts — the one shared shape.

    The ``--json`` CLI flag, the chaos matrix and the crash matrix all
    emit this; keeping it here stops each harness from re-deriving the
    serialization by hand.
    """
    return [
        {"code": violation.code, "message": violation.message}
        for violation in violations
    ]


def _describe(node: Node) -> str:
    return f"<{node.name}>" if node.name else node.kind.value


def _check_tree_order(labeled: LabeledDocument, out: list[Violation]) -> None:
    indexed = list(labeled.nodes_in_order)
    in_tree = list(labeled.document.pre_order())
    if len(indexed) != len(in_tree):
        out.append(
            Violation(
                "tree-order.size",
                f"order index holds {len(indexed)} nodes, the tree "
                f"has {len(in_tree)}",
            )
        )
        return
    for position, (a, b) in enumerate(zip(indexed, in_tree)):
        if a is not b:
            out.append(
                Violation(
                    "tree-order.sequence",
                    f"order index position {position} holds "
                    f"{_describe(a)} but pre-order visits {_describe(b)}",
                )
            )
            return
    for position, node in enumerate(indexed):
        if labeled.nodes_in_order.position(node) != position:
            out.append(
                Violation(
                    "tree-order.rank",
                    f"rank query for {_describe(node)} disagrees with "
                    f"its iteration position {position}",
                )
            )
            return


def _check_labels(labeled: LabeledDocument, out: list[Violation]) -> None:
    node_ids = set()
    for node in labeled.nodes_in_order:
        node_ids.add(id(node))
        if id(node) not in labeled.labels:
            out.append(
                Violation(
                    "labels.missing", f"{_describe(node)} has no label"
                )
            )
    orphans = len(set(labeled.labels) - node_ids)
    if orphans:
        out.append(
            Violation(
                "labels.orphaned",
                f"{orphans} labels belong to no node in the document",
            )
        )
    # Strict lexicographic order along the document (Section 3: order is
    # decidable from labels alone, so equal or inverted keys are data
    # corruption, not a tie).
    key = labeled.scheme.order_key
    previous: Any = None
    previous_node: Node | None = None
    for node in labeled.nodes_in_order:
        label = labeled.labels.get(id(node))
        if label is None:
            continue
        try:
            current = key(label)
        except Exception as error:
            out.append(
                Violation(
                    "labels.unkeyable",
                    f"order_key failed for {_describe(node)}: {error!r}",
                )
            )
            return
        if previous_node is not None and not previous < current:
            out.append(
                Violation(
                    "labels.order",
                    f"label of {_describe(node)} is not strictly "
                    f"greater than its predecessor "
                    f"{_describe(previous_node)}",
                )
            )
            return
        previous, previous_node = current, node


def _check_sc_groups(labeled: LabeledDocument, out: list[Violation]) -> None:
    groups = labeled.extra.get("sc_groups")
    if not groups:
        return
    nodes = list(labeled.nodes_in_order)
    expected_groups = -(-len(nodes) // GROUP_SIZE) if nodes else 0
    if len(groups) != expected_groups:
        out.append(
            Violation(
                "sc.group-count",
                f"{len(groups)} SC groups for {len(nodes)} nodes "
                f"(expected {expected_groups})",
            )
        )
        return
    for chunk_index, group in enumerate(groups):
        if group.index != chunk_index:
            out.append(
                Violation(
                    "sc.group-index",
                    f"group at position {chunk_index} records index "
                    f"{group.index}",
                )
            )
            return
        members = nodes[
            chunk_index * GROUP_SIZE : (chunk_index + 1) * GROUP_SIZE
        ]
        for rank, node in enumerate(members, start=1):
            label = labeled.labels.get(id(node))
            if label is None:
                continue  # already reported by the labels check
            if label.group is not group:
                out.append(
                    Violation(
                        "sc.membership",
                        f"{_describe(node)} points at group "
                        f"{getattr(label.group, 'index', None)} but sits "
                        f"in group {chunk_index}",
                    )
                )
                return
            if group.sc % label.self_label != rank:
                out.append(
                    Violation(
                        "sc.order",
                        f"SC of group {chunk_index} recovers order "
                        f"{group.sc % label.self_label} for "
                        f"{_describe(node)}, expected {rank}",
                    )
                )
                return


def _check_storage(
    labeled: LabeledDocument, store: Any, out: list[Violation]
) -> None:
    sizes = store.pages.record_sizes()
    if len(sizes) != labeled.node_count():
        out.append(
            Violation(
                "storage.record-count",
                f"label file holds {len(sizes)} records for "
                f"{labeled.node_count()} nodes",
            )
        )
    negative = sum(1 for size in sizes if size < 0)
    if negative:
        out.append(
            Violation(
                "storage.record-size",
                f"{negative} records have negative sizes",
            )
        )
    if sum(sizes) != store.pages.total_bytes():
        out.append(
            Violation(
                "storage.offsets",
                f"record sizes sum to {sum(sizes)} bytes but the "
                f"offset index totals {store.pages.total_bytes()}",
            )
        )
    groups = labeled.extra.get("sc_groups") or []
    sc_records = store.sc_pages.record_count()
    if groups and sc_records not in (0, len(groups)):
        # 0 is legal transiently: the SC file is (re)loaded lazily on
        # the first SC-recomputing update after construction.
        out.append(
            Violation(
                "storage.sc-records",
                f"SC file holds {sc_records} records for "
                f"{len(groups)} groups",
            )
        )


def verify_integrity(
    labeled: LabeledDocument, store: Any = None
) -> list[Violation]:
    """Check every cross-structure invariant; returns the violations.

    An empty list means the document, its indexes and (when given) its
    label store are mutually consistent.  ``store`` is the update
    engine's :class:`~repro.storage.labelstore.LabelStore`, or ``None``
    to skip the storage checks.
    """
    out: list[Violation] = []
    _check_tree_order(labeled, out)
    _check_labels(labeled, out)
    _check_sc_groups(labeled, out)
    if store is not None:
        _check_storage(labeled, store, out)
    return out
