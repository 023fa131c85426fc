"""Serialize :class:`~repro.xmltree.node.Node` trees back to XML text.

The serializer escapes the five predefined entities and emits either a
compact single-line form (the default — safe for round-tripping, since
no whitespace is invented) or an indented pretty form for human eyes.
Adjacent text siblings are written with an empty comment ``<!---->``
between them, so a re-parse yields the same number of text nodes.

The walker asks ``children_of(node)`` for each element's children. The
default reads the live ``node.children``; a read view passes its own
frozen child lists, so it renders the tree as of its version with the
same code and the same bytes.
"""

from __future__ import annotations

from io import StringIO
from operator import attrgetter
from typing import Callable, Sequence

from repro.xmltree.document import Document
from repro.xmltree.node import Node, NodeKind

__all__ = ["serialize", "serialize_document", "escape_text", "escape_attribute"]

ChildrenOf = Callable[[Node], Sequence[Node]]

_live_children: ChildrenOf = attrgetter("children")


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return escape_text(value).replace('"', "&quot;")


def _write_node(
    node: Node, out: StringIO, indent: int, step: str, children_of: ChildrenOf
) -> bool:
    """Write ``node``; returns True when it was a text node."""
    pad = step * indent if step else ""
    newline = "\n" if step else ""
    if node.kind is NodeKind.TEXT:
        out.write(f"{pad}{escape_text(node.value or '')}{newline}")
        return True
    if node.kind is NodeKind.COMMENT:
        out.write(f"{pad}<!--{node.value or ''}-->{newline}")
        return False
    if node.kind is NodeKind.ATTRIBUTE:
        raise ValueError(
            "attribute nodes are serialized inside their element's start tag"
        )

    children = children_of(node)
    attributes = [
        child for child in children if child.kind is NodeKind.ATTRIBUTE
    ]
    content = [
        child for child in children if child.kind is not NodeKind.ATTRIBUTE
    ]
    out.write(f"{pad}<{node.name}")
    for attribute in attributes:
        out.write(
            f' {attribute.name}="{escape_attribute(attribute.value or "")}"'
        )
    if not content:
        out.write(f"/>{newline}")
        return False
    out.write(">")
    # Mixed or text-only content is kept inline even in pretty mode, so
    # pretty-printing never injects whitespace into character data.
    inline = any(child.kind is NodeKind.TEXT for child in content)
    if step and not inline:
        out.write("\n")
        for child in content:
            _write_node(child, out, indent + 1, step, children_of)
        out.write(f"{pad}</{node.name}>{newline}")
    else:
        after_text = False
        for child in content:
            if after_text and child.kind is NodeKind.TEXT:
                # Adjacent text siblings (a delete can leave them) would
                # re-parse as one run; the parser drops this comment but
                # keeps the two runs apart.
                out.write("<!---->")
            after_text = _write_node(child, out, 0, "", children_of)
        out.write(f"</{node.name}>{newline}")
    return False


def serialize(
    node: Node,
    *,
    pretty: bool = False,
    indent: str = "  ",
    children_of: ChildrenOf = _live_children,
) -> str:
    """Render one element subtree as XML text."""
    out = StringIO()
    _write_node(node, out, 0, indent if pretty else "", children_of)
    return out.getvalue().rstrip("\n") if pretty else out.getvalue()


def serialize_document(
    document: Document,
    *,
    pretty: bool = False,
    indent: str = "  ",
    children_of: ChildrenOf = _live_children,
) -> str:
    """Render a document, including the XML declaration."""
    body = serialize(
        document.root, pretty=pretty, indent=indent, children_of=children_of
    )
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{body}'
