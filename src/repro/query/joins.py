"""Structural joins: axis evaluation strategies per labeling family.

The query engine decides every structural relationship *from labels*
(the paper's premise: label comparisons are the core query operation),
but how efficiently an axis can be joined depends on the family:

* **prefix** labels support O(1) hash joins — a child's parent label is
  its own label minus the last component;
* **containment** labels support the classic stack-based sort-merge
  structural join (both inputs in document order);
* **prime** labels only support divisibility probing — every candidate
  is tested against context products with big-integer ``mod``, which is
  precisely why Figure 6 shows Prime's response times towering over the
  rest.
"""

from __future__ import annotations

from typing import Any

from repro.core.bitstring import compare_many
from repro.labeling.base import LabeledDocument
from repro.xmltree.node import Node

__all__ = [
    "join_child",
    "join_descendant",
    "join_ancestor",
    "parent_key",
]


def parent_key(labeled: LabeledDocument, node: Node) -> Any:
    """A hashable key identifying ``node``'s parent, from its label.

    Used to group step results for positional predicates.  The prefix
    and prime families derive it from the label; containment labels do
    not encode parent identity, so the document's parent pointer stands
    in (as a real system's level stack would) — a read view's frozen
    one, so the key holds as of the view's version.
    """
    scheme = labeled.scheme
    label = labeled.label_of(node)
    if scheme.family == "prefix":
        return label[:-1] if label else None
    if scheme.family == "prime":
        return label.product // label.self_label
    return id(labeled.parent_of(node))


# ---------------------------------------------------------------------------
# child / descendant / ancestor joins
# ---------------------------------------------------------------------------

def join_child(
    labeled: LabeledDocument, contexts: list[Node], candidates: list[Node]
) -> list[Node]:
    """Candidates whose parent is in ``contexts`` (both in doc order)."""
    scheme = labeled.scheme
    if not contexts or not candidates:
        return []
    if scheme.family == "prefix":
        context_labels = {labeled.label_of(node) for node in contexts}
        return [
            node
            for node in candidates
            if (label := labeled.label_of(node))
            and label[:-1] in context_labels
        ]
    if scheme.family == "prime":
        products = {labeled.label_of(node).product for node in contexts}
        out = []
        for node in candidates:
            label = labeled.label_of(node)
            if label.product // label.self_label in products:
                out.append(node)
        return out
    return _containment_join(labeled, contexts, candidates, parent_only=True)


def join_descendant(
    labeled: LabeledDocument, contexts: list[Node], candidates: list[Node]
) -> list[Node]:
    """Candidates with a strict ancestor in ``contexts``."""
    scheme = labeled.scheme
    if not contexts or not candidates:
        return []
    if scheme.family == "prefix":
        context_labels = {labeled.label_of(node) for node in contexts}
        out = []
        for node in candidates:
            label = labeled.label_of(node)
            if any(
                label[:length] in context_labels for length in range(len(label))
            ):
                out.append(node)
        return out
    if scheme.family == "prime":
        # Divisibility probing: big-int mod per (candidate, context) pair
        # until a hit — Prime's documented query-time weakness.
        context_labels = [labeled.label_of(node) for node in contexts]
        out = []
        for node in candidates:
            label = labeled.label_of(node)
            for ctx in context_labels:
                if (
                    label.product != ctx.product
                    and label.product % ctx.product == 0
                ):
                    out.append(node)
                    break
        return out
    return _containment_join(labeled, contexts, candidates, parent_only=False)


def join_ancestor(
    labeled: LabeledDocument, contexts: list[Node], candidates: list[Node]
) -> list[Node]:
    """Candidates that are strict ancestors of some context node."""
    scheme = labeled.scheme
    if not contexts or not candidates:
        return []
    if scheme.family == "prefix":
        # Collect every proper prefix of every context label.
        wanted: set = set()
        for node in contexts:
            label = labeled.label_of(node)
            for length in range(len(label)):
                wanted.add(label[:length])
        return [
            node for node in candidates if labeled.label_of(node) in wanted
        ]
    is_ancestor = scheme.is_ancestor
    context_labels = [labeled.label_of(node) for node in contexts]
    return [
        node
        for node in candidates
        if any(
            is_ancestor(labeled.label_of(node), ctx) for ctx in context_labels
        )
    ]


def _containment_join(
    labeled: LabeledDocument,
    contexts: list[Node],
    candidates: list[Node],
    *,
    parent_only: bool,
) -> list[Node]:
    """Stack-based sort-merge join on containment intervals.

    Both inputs must be in document order (``start`` order).  The stack
    holds the context intervals currently enclosing the scan point;
    nesting makes their levels strictly increasing, so the parent test
    inspects at most one stack entry per level.
    """
    scheme = labeled.scheme
    if len(contexts) == 1 and not parent_only:
        # Single-context descendant join (the common shape of an XPath
        # step from one node): containment nesting is strict, so the
        # candidates inside the context interval are exactly those whose
        # start code partitions strictly between the context's start and
        # end — two batch probes instead of a per-candidate stack walk.
        ctx_label = labeled.label_of(contexts[0])
        if getattr(ctx_label.start, "is_bitstring_like", False):
            starts = [labeled.label_of(node).start for node in candidates]
            after_start = compare_many(starts, ctx_label.start)
            before_end = compare_many(starts, ctx_label.end)
            return [
                node
                for node, lo, hi in zip(candidates, after_start, before_end)
                if lo > 0 and hi < 0
            ]
    key = scheme.order_key
    out: list[Node] = []
    stack: list[Any] = []  # open context labels
    context_index = 0
    for node in candidates:
        label = labeled.label_of(node)
        start = key(label)
        # Open every context that starts before this candidate.
        while context_index < len(contexts):
            ctx_label = labeled.label_of(contexts[context_index])
            if key(ctx_label) < start:
                while stack and not scheme.is_ancestor(stack[-1], ctx_label):
                    stack.pop()
                stack.append(ctx_label)
                context_index += 1
            else:
                break
        # Close contexts that ended before this candidate.
        while stack and not scheme.is_ancestor(stack[-1], label):
            stack.pop()
        if not stack:
            continue
        if not parent_only:
            out.append(node)
        elif any(
            ctx.level == label.level - 1 for ctx in reversed(stack)
        ):
            out.append(node)
    return out
