"""Serialize :class:`~repro.xmltree.node.Node` trees back to XML text.

The serializer escapes the five predefined entities and emits either a
compact single-line form (the default — safe for round-tripping, since
no whitespace is invented) or an indented pretty form for human eyes.
Adjacent text siblings are written with an empty comment ``<!---->``
between them, so a re-parse yields the same number of text nodes.

The compact walk appends every piece to one list and joins it once,
and escapes only the values that hold a character to escape; it is
the kernel of every checkpoint bundle and of a read view's first
``xml`` read.  The walker asks ``children_of(node)`` for each
element's children.  The default reads the live ``node.children``; a
read view passes its own frozen child lists, so it renders the tree as
of its version with the same code and the same bytes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

from repro.xmltree.document import Document
from repro.xmltree.node import Node, NodeKind

__all__ = ["serialize", "serialize_document", "escape_text", "escape_attribute"]

ChildrenOf = Callable[[Node], Sequence[Node]]

_live_children: ChildrenOf = attrgetter("children")

_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE = NodeKind.ATTRIBUTE
_TEXT = NodeKind.TEXT
_COMMENT = NodeKind.COMMENT


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    if "&" in value or "<" in value or ">" in value:
        return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    value = escape_text(value)
    return value.replace('"', "&quot;") if '"' in value else value


def _attribute(node: Node) -> str:
    return f' {node.name}="{escape_attribute(node.value or "")}"'


def _compact_walker(
    append: Callable[[str], None], children_of: ChildrenOf
) -> Callable[[Node], None]:
    """A function writing an element and its subtree, compactly."""

    def element(node: Node) -> None:
        children = children_of(node)
        start = f"<{node.name}"
        content = False
        for child in children:
            if child.kind is _ATTRIBUTE:
                start += _attribute(child)
            else:
                content = True
        if not content:
            append(start + "/>")
            return
        append(start + ">")
        after_text = False
        for child in children:
            kind = child.kind
            if kind is _ELEMENT:
                element(child)
            elif kind is _TEXT:
                if after_text:
                    # Adjacent text siblings (a delete can leave them)
                    # would re-parse as one run; the parser drops this
                    # comment but keeps the two runs apart.
                    append("<!---->")
                append(escape_text(child.value or ""))
            elif kind is _COMMENT:
                append(f"<!--{child.value or ''}-->")
            else:
                continue
            after_text = kind is _TEXT
        append(f"</{node.name}>")

    return element


def _write_pretty(node, append, pad, step, children_of, element) -> None:
    if node.kind is _COMMENT:
        append(f"{pad}<!--{node.value or ''}-->\n")
        return
    children = children_of(node)
    content = [child for child in children if child.kind is not _ATTRIBUTE]
    # Mixed or text-only content is kept inline, so pretty-printing
    # never injects whitespace into character data.
    if not content or any(child.kind is _TEXT for child in content):
        append(pad)
        element(node)
        append("\n")
        return
    start = "".join(_attribute(c) for c in children if c.kind is _ATTRIBUTE)
    append(f"{pad}<{node.name}{start}>\n")
    for child in content:
        _write_pretty(child, append, pad + step, step, children_of, element)
    append(f"{pad}</{node.name}>\n")


def serialize(
    node: Node,
    *,
    pretty: bool = False,
    indent: str = "  ",
    children_of: ChildrenOf = _live_children,
) -> str:
    """Render one element subtree as XML text."""
    if node.kind is _ATTRIBUTE:
        raise ValueError(
            "attribute nodes are serialized inside their element's start tag"
        )
    out: list[str] = []
    element = _compact_walker(out.append, children_of)
    if node.kind is _TEXT:
        out.append(escape_text(node.value or ""))
    elif node.kind is _COMMENT:
        out.append(f"<!--{node.value or ''}-->")
    elif pretty and indent:
        _write_pretty(node, out.append, "", indent, children_of, element)
    else:
        element(node)
    text = "".join(out)
    return text.rstrip("\n") if pretty else text


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
