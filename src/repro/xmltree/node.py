"""The ordered XML tree model (Section 1 of the paper).

With the tree model, "data objects, e.g. elements, attributes, text
data, etc., are modeled as the nodes of a tree, and relationships are
modeled as the edges".  We follow that model literally: elements,
attributes and text are all :class:`Node` instances, and *document
order* is the pre-order sequence with an element's attributes preceding
its child elements/text (the convention used by the XPath data model and
by the labeling literature, so attribute nodes receive labels too).

The tree is mutable — the whole point of the paper is updating it — but
nodes never move between parents; updates are expressed as subtree
insertion and deletion through :class:`~repro.updates.engine.UpdateEngine`.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, Optional

__all__ = ["NodeKind", "Node", "merge_adjacent_text", "NOT_XML_CHAR"]

# Any character outside XML 1.0's ``Char`` production: a C0 control
# other than tab, newline and carriage return, a lone surrogate, U+FFFE
# or U+FFFF.  No XML text can carry one (a surrogate cannot even be
# written as UTF-8), so neither a node's value nor the parser accepts
# it: a bundle's load or a log's replay never meets one.
NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class NodeKind(Enum):
    """The node categories of the XML tree model."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"


class Node:
    """One node of an ordered XML tree.

    Args:
        kind: the node category.
        name: element tag or attribute name; ``"#text"``/``"#comment"``
            for text and comment nodes.
        value: attribute value or text content; ``None`` for elements.
            Only characters XML allows (see :data:`NOT_XML_CHAR`).

    Raises:
        ValueError: when ``value`` does not suit ``kind`` or holds a
            character XML does not allow.
    """

    __slots__ = ("kind", "name", "value", "parent", "children", "_index_hint")

    def __init__(
        self,
        kind: NodeKind,
        name: str,
        value: Optional[str] = None,
    ) -> None:
        if kind is NodeKind.ELEMENT and value is not None:
            raise ValueError("element nodes carry no value")
        if kind in (NodeKind.ATTRIBUTE, NodeKind.TEXT) and value is None:
            raise ValueError(f"{kind.value} nodes require a value")
        if value is not None:
            illegal = NOT_XML_CHAR.search(value)
            if illegal is not None:
                raise ValueError(
                    f"character U+{ord(illegal[0]):04X} is not allowed in XML"
                )
        self.kind = kind
        self.name = name
        self.value = value
        self.parent: Optional[Node] = None
        self.children: list[Node] = []
        self._index_hint = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def element(cls, tag: str) -> "Node":
        return cls(NodeKind.ELEMENT, tag)

    @classmethod
    def attribute(cls, name: str, value: str) -> "Node":
        return cls(NodeKind.ATTRIBUTE, name, value)

    @classmethod
    def text(cls, content: str) -> "Node":
        return cls(NodeKind.TEXT, "#text", content)

    @classmethod
    def comment(cls, content: str) -> "Node":
        return cls(NodeKind.COMMENT, "#comment", content)

    @classmethod
    def _appended(
        cls,
        parent: Optional["Node"],
        kind: NodeKind,
        name: str,
        value: Optional[str] = None,
    ) -> "Node":
        """Unvalidated constructor for the parser's hot path.

        A new last child of ``parent`` (a root if ``None``); callers
        guarantee what the public constructors and :meth:`insert_child`
        check.  (Building through those made ``parse_document`` about
        1.5x slower: it checks its whole input once instead.)
        """
        node = object.__new__(cls)
        node.kind = kind
        node.name = name
        node.value = value
        node.parent = parent
        node.children = []
        if parent is None:
            node._index_hint = 0
        else:
            siblings = parent.children
            node._index_hint = len(siblings)
            siblings.append(node)
        return node

    # -- structure edits ---------------------------------------------------

    def append_child(self, child: "Node") -> "Node":
        """Attach ``child`` as the last child; returns ``child``."""
        return self.insert_child(len(self.children), child)

    def insert_child(self, index: int, child: "Node") -> "Node":
        """Attach ``child`` at position ``index``; returns ``child``.

        Only element nodes have children; attribute/text nodes are
        always leaves.
        """
        if self.kind is not NodeKind.ELEMENT:
            raise ValueError(f"{self.kind.value} nodes cannot have children")
        if child.parent is not None:
            raise ValueError("node is already attached to a parent")
        if child is self:
            raise ValueError("a node cannot be its own child")
        self.children.insert(index, child)
        child.parent = self
        child._index_hint = index
        return child

    def detach(self) -> "Node":
        """Remove this node (and its subtree) from its parent; returns self."""
        if self.parent is not None:
            del self.parent.children[self.parent.index_of_child(self)]
            self.parent = None
        return self

    # -- navigation --------------------------------------------------------

    def index_of_child(self, child: "Node") -> int:
        """Position of ``child`` among this node's children — O(1) amortised.

        Every child carries a cached position hint, set on attachment and
        refreshed on lookup.  A structural edit shifts the true position
        of each later sibling by one, so after K edits the hint is at
        most K away: the expanding ring scan around it re-finds the
        child in O(1 + drift), which amortises to constant time when
        edits and lookups interleave (the update-engine pattern) instead
        of the O(fan-out) scan ``list.index`` pays every call.
        """
        children = self.children
        count = len(children)
        if count == 0:
            raise ValueError("node is not a child of this element")
        hint = child._index_hint
        center = hint if 0 <= hint < count else count - 1
        if children[center] is child:
            child._index_hint = center
            return center
        for distance in range(1, count):
            high = center + distance
            if high < count and children[high] is child:
                child._index_hint = high
                return high
            low = center - distance
            if low >= 0 and children[low] is child:
                child._index_hint = low
                return low
            if low < 0 and high >= count:
                break
        raise ValueError("node is not a child of this element")

    @property
    def index_in_parent(self) -> int:
        """Position among the parent's children (0-based)."""
        if self.parent is None:
            raise ValueError("root node has no parent")
        return self.parent.index_of_child(self)

    @property
    def depth(self) -> int:
        """Edges from the root (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def ancestors(self) -> Iterator["Node"]:
        """Strict ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def is_ancestor_of(self, other: "Node") -> bool:
        """True iff ``self`` is a *strict* ancestor of ``other``."""
        return any(ancestor is self for ancestor in other.ancestors())

    def pre_order(self) -> Iterator["Node"]:
        """This node and every descendant, in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["Node"]:
        """Every strict descendant, in document order."""
        nodes = self.pre_order()
        next(nodes)
        return nodes

    def subtree_size(self) -> int:
        """Number of nodes in this subtree, including self."""
        return sum(1 for _ in self.pre_order())

    def element_children(self) -> list["Node"]:
        """Only the ELEMENT children, in order."""
        return [c for c in self.children if c.kind is NodeKind.ELEMENT]

    def attributes(self) -> dict[str, str]:
        """Attribute children as a name → value mapping."""
        return {
            c.name: c.value  # type: ignore[misc]
            for c in self.children
            if c.kind is NodeKind.ATTRIBUTE
        }

    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        return "".join(
            node.value or ""
            for node in self.pre_order()
            if node.kind is NodeKind.TEXT
        )

    def following_siblings(self) -> Iterator["Node"]:
        """Siblings after this node, in document order."""
        if self.parent is None:
            return
        found = False
        for sibling in self.parent.children:
            if found:
                yield sibling
            elif sibling is self:
                found = True

    def preceding_siblings(self) -> Iterator["Node"]:
        """Siblings before this node, in *reverse* document order."""
        if self.parent is None:
            return
        earlier: list[Node] = []
        for sibling in self.parent.children:
            if sibling is self:
                break
            earlier.append(sibling)
        yield from reversed(earlier)

    def __repr__(self) -> str:
        if self.kind is NodeKind.ELEMENT:
            return f"<Node element {self.name!r} ({len(self.children)} children)>"
        return f"<Node {self.kind.value} {self.name!r}={self.value!r}>"


def merge_adjacent_text(root: Node) -> int:
    """Merge runs of adjacent text children throughout a subtree.

    The XML serialization cannot distinguish two adjacent text nodes from
    one — the serialized form always reparses as a single text node — so
    callers that need serialize/parse round-trip fidelity normalize with
    this first.  Returns the number of text nodes removed.
    """
    removed = 0
    for node in root.pre_order():
        if not node.children:
            continue
        merged: list[Node] = []
        for child in node.children:
            if (
                merged
                and child.kind is NodeKind.TEXT
                and merged[-1].kind is NodeKind.TEXT
            ):
                merged[-1].value = (merged[-1].value or "") + (child.value or "")
                child.parent = None
                removed += 1
            else:
                merged.append(child)
        node.children[:] = merged
    return removed
