"""Label-driven evaluation of the Table 3 query fragment.

:class:`QueryEngine` evaluates a parsed :class:`~repro.query.ast.Path`
against one labeled document.  Every structural decision — parenthood,
ancestry, siblinghood, document order — is made through the labeling
scheme's predicates, so response times directly reflect each scheme's
label-comparison costs (the quantity Figure 6 compares).
:class:`CollectionQueryEngine` runs the same query over a whole dataset
(the paper's scaled D5).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.labeling.base import LabeledDocument, LabelingScheme
from repro.obs import OBS
from repro.query.ast import ExistsPredicate, Path, PositionPredicate, Step
from repro.query.joins import join_ancestor, join_child, join_descendant, parent_key
from repro.query.xpath import parse_query
from repro.xmltree.node import Node, NodeKind

__all__ = ["QueryEngine", "CollectionQueryEngine"]

_DOCUMENT = object()
"""Sentinel context: the virtual document node above the root."""


class QueryEngine:
    """Evaluates queries over one :class:`LabeledDocument`."""

    def __init__(self, labeled: LabeledDocument) -> None:
        self.labeled = labeled
        self.scheme: LabelingScheme = labeled.scheme
        self.scan_bytes = 0

    # -- public API ---------------------------------------------------------

    def evaluate(self, query: "str | Path") -> list[Node]:
        """All matching element nodes, in document order.

        Side effect: :attr:`scan_bytes` records the label bytes the
        evaluation read off storage (every step scans its node test's
        label list) — the size-driven term of Figure 6's response times.
        """
        path = parse_query(query) if isinstance(query, str) else query
        self.scan_bytes = 0
        with OBS.span("query.evaluate", op="query"):
            context: Any = _DOCUMENT
            for step in path.steps:
                context = self._apply_step(context, step)
                if not context:
                    context = []
                    break
            if OBS.enabled:
                OBS.charge("query.evaluations", 1)
                OBS.charge("query.scan_bytes", self.scan_bytes)
        return context

    def count(self, query: "str | Path") -> int:
        return len(self.evaluate(query))

    # -- step machinery ---------------------------------------------------------

    def _candidates(self, step: Step) -> list[Node]:
        if step.attribute:
            return [
                node
                for node in self.labeled.nodes_in_order
                if node.kind is NodeKind.ATTRIBUTE
                and (step.test is None or node.name == step.test)
            ]
        if step.test is not None:
            return self.labeled.tag_index.get(step.test, [])
        return [
            node
            for node in self.labeled.nodes_in_order
            if node.kind is NodeKind.ELEMENT
        ]

    def _scan_candidates(self, step: Step, candidates: list[Node]) -> None:
        if step.attribute:
            bits = self.scheme.label_bits
            self.scan_bytes += sum(
                -(-bits(self.labeled.label_of(node)) // 8)
                for node in candidates
            )
            return
        self.scan_bytes += self.labeled.tag_label_bytes(step.test)

    def _apply_step(self, context: Any, step: Step) -> list[Node]:
        candidates = self._candidates(step)
        self._scan_candidates(step, candidates)
        if OBS.enabled:
            OBS.charge("query.candidates_scanned", len(candidates))
        if context is _DOCUMENT:
            result = self._initial_step(step, candidates)
        else:
            result = self._axis(context, step, candidates)
        for predicate in step.predicates:
            result = self._filter(result, predicate)
            if not result:
                break
        return result

    def _initial_step(self, step: Step, candidates: list[Node]) -> list[Node]:
        root = self.labeled.document.root
        if step.axis == "child":
            matches = step.test is None or root.name == step.test
            return [root] if matches else []
        if step.axis == "descendant":
            return list(candidates)  # every element, root included
        raise ValueError(
            f"axis {step.axis!r} cannot start an absolute path"
        )

    def _axis(
        self, context: list[Node], step: Step, candidates: list[Node]
    ) -> list[Node]:
        if step.axis == "child":
            return join_child(self.labeled, context, candidates)
        if step.axis == "descendant":
            return join_descendant(self.labeled, context, candidates)
        if step.axis == "ancestor":
            return join_ancestor(self.labeled, context, candidates)
        if step.axis == "parent":
            # Parent navigation follows the document's parent pointer
            # (a read view's frozen one, as of its version); the node
            # test still filters.
            allowed = {id(node) for node in candidates}
            out: list[Node] = []
            seen: set[int] = set()
            parent_of = self.labeled.parent_of
            for ctx in context:
                parent = parent_of(ctx)
                if (
                    parent is not None
                    and id(parent) in allowed
                    and id(parent) not in seen
                ):
                    seen.add(id(parent))
                    out.append(parent)
            return self._sorted(out)
        if step.axis == "self":
            if step.test is None:
                return list(context)
            return [node for node in context if node.name == step.test]
        if step.axis in ("preceding-sibling", "following-sibling"):
            return self._sibling_axis(context, candidates, step.axis)
        if step.axis == "following":
            return self._following_axis(context, candidates)
        raise ValueError(f"unsupported axis {step.axis!r}")

    def _sibling_axis(
        self, context: list[Node], candidates: list[Node], axis: str
    ) -> list[Node]:
        labeled = self.labeled
        scheme = self.scheme
        out_ids: set[int] = set()
        out: list[Node] = []
        for ctx in context:
            ctx_label = labeled.label_of(ctx)
            ctx_key = scheme.order_key(ctx_label)
            ctx_parent = parent_key(labeled, ctx)
            for node in candidates:
                if node is ctx or id(node) in out_ids:
                    continue
                if parent_key(labeled, node) != ctx_parent:
                    continue
                node_key = scheme.order_key(labeled.label_of(node))
                if axis == "preceding-sibling":
                    keep = node_key < ctx_key
                else:
                    keep = node_key > ctx_key
                if keep:
                    out_ids.add(id(node))
                    out.append(node)
        return self._sorted(out)

    def _following_axis(
        self, context: list[Node], candidates: list[Node]
    ) -> list[Node]:
        """Nodes after every context node in document order, minus its
        own descendants (the XPath ``following`` axis)."""
        labeled = self.labeled
        scheme = self.scheme
        if not context:
            return []
        # The earliest context dominates: following(ctx set) is the union,
        # and anything following the earliest non-containing position
        # qualifies; evaluate per context and union for correctness.
        out_ids: set[int] = set()
        out: list[Node] = []
        context_labels = [labeled.label_of(ctx) for ctx in context]
        if scheme.family == "containment":
            ends = [label.end_key for label in context_labels]
            for node in candidates:
                label = labeled.label_of(node)
                start = scheme.order_key(label)
                for end in ends:
                    if start > end:
                        if id(node) not in out_ids:
                            out_ids.add(id(node))
                            out.append(node)
                        break
            return self._sorted(out)
        for node in candidates:
            label = labeled.label_of(node)
            node_key = scheme.order_key(label)
            for ctx_label in context_labels:
                if node_key > scheme.order_key(ctx_label) and not (
                    scheme.is_ancestor(ctx_label, label)
                ):
                    if id(node) not in out_ids:
                        out_ids.add(id(node))
                        out.append(node)
                    break
        return self._sorted(out)

    # -- predicates -----------------------------------------------------------

    def _filter(self, nodes: list[Node], predicate) -> list[Node]:
        if isinstance(predicate, PositionPredicate):
            return self._positional(nodes, predicate.position)
        if isinstance(predicate, ExistsPredicate):
            return [
                node
                for node in nodes
                if self._exists(node, predicate.path)
            ]
        raise TypeError(f"unknown predicate {predicate!r}")

    def _positional(self, nodes: list[Node], position: int) -> list[Node]:
        """Keep the ``position``-th node within each same-parent group.

        ``nodes`` arrives in document order, so a running per-parent
        counter realises XPath's positional semantics.
        """
        seen: dict[Any, int] = {}
        out = []
        for node in nodes:
            group = parent_key(self.labeled, node)
            seen[group] = seen.get(group, 0) + 1
            if seen[group] == position:
                out.append(node)
        return out

    def _exists(self, node: Node, path: Path) -> bool:
        context: list[Node] = [node]
        for step in path.steps:
            context = self._apply_step(context, step)
            if not context:
                return False
        return True

    # -- ordering ---------------------------------------------------------------

    def _sorted(self, nodes: list[Node]) -> list[Node]:
        labeled = self.labeled
        key = self.scheme.order_key
        return sorted(nodes, key=lambda node: key(labeled.label_of(node)))


class CollectionQueryEngine:
    """Runs one query across many labeled documents (a dataset)."""

    def __init__(self, labeled_documents: Iterable[LabeledDocument]) -> None:
        self.engines = [QueryEngine(labeled) for labeled in labeled_documents]
        self.scan_bytes = 0

    def evaluate(self, query: "str | Path") -> list[Node]:
        path = parse_query(query) if isinstance(query, str) else query
        self.scan_bytes = 0
        out: list[Node] = []
        for engine in self.engines:
            out.extend(engine.evaluate(path))
            self.scan_bytes += engine.scan_bytes
        return out

    def count(self, query: "str | Path") -> int:
        return len(self.evaluate(query))
