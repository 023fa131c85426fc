"""Versioned, immutable read views over a labeled document (MVCC reads).

The concurrent document service serves every read endpoint from a
:class:`LabelView` — a frozen copy of the *committed* label state taken
at a version boundary — while the single writer keeps mutating the live
:class:`~repro.labeling.base.LabeledDocument`.  Publication is one
reference assignment (atomic under the GIL), so readers never block the
writer and the writer never blocks readers: a reader that grabbed
version ``v`` keeps a consistent view of ``v`` for as long as it holds
the object, no matter how many batches commit meanwhile.

What is copied and what is shared
---------------------------------

The view copies the *label-driven* state: the label map, the document
order (as a flat tuple — views never splice), the tag index, and each
entry's parent (a tuple aligned with the order).  It copies no text.
The :class:`~repro.xmltree.node.Node` objects themselves are shared
with the live tree; a view reads only what no update mutates — each
node's ``kind``, ``name`` and ``value`` — and never the live
``parent``/``children`` pointers.  Ancestry, order and siblinghood are
decided from the view's own labels through the scheme's predicates;
the parent axis (and the parent key of containment labels, which do not
encode their parent) comes from the frozen parents through
:meth:`LabelView.parent_of`.  So every answer is the answer as of the
view's version, however the writer has moved, deleted or inserted
nodes since.

The scheme object is shared too: its predicates are pure functions of
the labels they are given.  (Scheme *codec* state advances as the writer
relabels, but already-minted label objects are immutable values.)

What capture costs
------------------

:func:`capture` makes four O(N) pointer copies (labels, order, tag
index, parents) and no text work; the writer pays it once per committed
batch, before the batch's acks.  Everything else is built on the first
read that needs it and memoized on the view with one reference
assignment, so concurrent readers never see a half-built value (two
racing readers may both build it; they build the same thing):

* :meth:`LabelView.serialize` builds the text from the frozen order and
  parents — byte-identical to ``serialize_document`` of the live
  document at the view's version — on its first call;
* :meth:`LabelView.position_of` builds the node-to-position map on its
  first call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterator

from repro.labeling.base import LabeledDocument
from repro.xmltree.document import Document
from repro.xmltree.node import Node, NodeKind
from repro.xmltree.serializer import serialize_document

__all__ = ["LabelView", "capture"]


class LabelView:
    """A frozen, queryable snapshot of one committed document version.

    Duck-compatible with the slice of :class:`LabeledDocument` the query
    engine reads (``scheme``, ``document``, ``labels``,
    ``nodes_in_order``, ``tag_index``, :meth:`label_of`,
    :meth:`parent_of`, :meth:`tag_label_bytes`), so ``QueryEngine(view)``
    evaluates Table 3 queries against the snapshot without special
    cases.  ``parents[i]`` is the parent of ``nodes_in_order[i]`` at
    this version (``None`` for the root).  The view holds no text: the
    first :meth:`serialize` builds it, and the first
    :meth:`position_of` builds the position map.  Never mutated after
    construction except for those memos, each set by one reference
    assignment; the tag-byte memo is maintained by whole-dict
    replacement, so concurrent readers only ever observe a complete
    value.
    """

    __slots__ = (
        "version",
        "scheme",
        "document",
        "labels",
        "nodes_in_order",
        "tag_index",
        "parents",
        "_xml",
        "_positions",
        "_tag_bytes",
    )

    def __init__(
        self,
        *,
        version: int,
        scheme: Any,
        document: Document,
        labels: dict[int, Any],
        nodes_in_order: tuple[Node, ...],
        tag_index: dict[str, tuple[Node, ...]],
        parents: tuple[Node | None, ...],
    ) -> None:
        self.version = version
        self.scheme = scheme
        self.document = document
        self.labels = labels
        self.nodes_in_order = nodes_in_order
        self.tag_index = tag_index
        self.parents = parents
        self._xml: str | None = None
        self._positions: dict[int, int] | None = None
        self._tag_bytes: dict[str | None, int] = {}

    # -- label access ------------------------------------------------------

    def label_of(self, node: Node) -> Any:
        return self.labels[id(node)]

    def node_count(self) -> int:
        return len(self.nodes_in_order)

    def __len__(self) -> int:
        return len(self.nodes_in_order)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes_in_order)

    def node_at(self, position: int) -> Node:
        """The node at a document-order position of *this* version."""
        if not 0 <= position < len(self.nodes_in_order):
            raise IndexError(
                f"position {position} outside this "
                f"{len(self.nodes_in_order)}-node snapshot"
            )
        return self.nodes_in_order[position]

    def position_of(self, node: Node) -> int:
        """Document-order position at this version (O(1) after warm-up)."""
        positions = self._positions
        if positions is None:
            positions = {
                id(entry): index
                for index, entry in enumerate(self.nodes_in_order)
            }
            self._positions = positions
        return positions[id(node)]

    def parent_of(self, node: Node) -> Node | None:
        """``node``'s parent at this version, whatever the writer did since."""
        return self.parents[self.position_of(node)]

    def total_label_bits(self) -> int:
        bits = self.scheme.label_bits
        return sum(bits(label) for label in self.labels.values())

    def tag_label_bytes(self, tag: str | None) -> int:
        """Label bytes a node test scans, computed from snapshot labels.

        Same copy-on-write fill discipline as the live document's memo:
        the map is replaced wholesale, never filled in place, so a
        reader racing the fill sees either the old or the new complete
        map.
        """
        table = self._tag_bytes
        if tag in table:
            return table[tag]
        if tag is None:
            nodes: tuple[Node, ...] | list[Node] = [
                node
                for node in self.nodes_in_order
                if node.kind is NodeKind.ELEMENT
            ]
        else:
            nodes = self.tag_index.get(tag, ())
        bits = self.scheme.label_bits
        total = sum(-(-bits(self.labels[id(node)]) // 8) for node in nodes)
        self._tag_bytes = {**table, tag: total}
        return total

    def serialize(self) -> str:
        """The document text as of this version, built on the first call.

        Walks the frozen order and parents only, so the bytes are those
        ``serialize_document`` gave the live document at this version.
        Every later call returns the same string object.
        """
        text = self._xml
        if text is None:
            # Nodes hash by identity.  The root lands under ``None``,
            # which the walk never asks for.
            children: defaultdict[Node | None, list[Node]] = defaultdict(list)
            for node, parent in zip(self.nodes_in_order, self.parents):
                children[parent].append(node)
            # The walk starts at ``document.root``, which no update replaces.
            text = serialize_document(
                self.document, children_of=lambda node: children.get(node, ())
            )
            self._xml = text
        return text

    def __repr__(self) -> str:
        return (
            f"<LabelView v{self.version} {self.scheme.name!r} "
            f"{len(self.nodes_in_order)} nodes>"
        )


def capture(labeled: LabeledDocument, version: int) -> LabelView:
    """Freeze the committed state of ``labeled`` as a :class:`LabelView`.

    Must be called from the document's writer (or any point where no
    mutation is in flight): the copies below iterate live structures.
    The service calls it at batch boundaries, after the batch fsync.
    Pointer copies only; the text is built on the view's first
    :meth:`LabelView.serialize`.
    """
    order = tuple(labeled.nodes_in_order)
    return LabelView(
        version=version,
        scheme=labeled.scheme,
        document=labeled.document,
        labels=dict(labeled.labels),
        nodes_in_order=order,
        tag_index={
            tag: tuple(nodes) for tag, nodes in labeled.tag_index.items()
        },
        parents=tuple(node.parent for node in order),
    )
