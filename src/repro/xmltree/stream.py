"""Streaming XML: pull-based parse events and single-pass loading.

Bulk-loading a labeled store does not need a materialized tree first:
:func:`iterparse` is the parser's own token scan yielding *pull*
events instead of building nodes, and this module rebuilds documents
from such events.  The event stream is also the natural seam for
progress reporting and for cutting off oversized inputs — both
demonstrated by ``max_events``.

Events are ``(kind, value)`` tuples in document order:

==============  ==========================================
``("start", tag)``             element opened
``("attribute", (name, val))`` attribute of the open element
``("text", content)``          character data
``("comment", content)``       comment (only when kept)
``("end", tag)``               element closed
==============  ==========================================
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import XMLParseError
from repro.xmltree.document import Document
from repro.xmltree.node import Node
from repro.xmltree.parser import Event, iterparse

__all__ = ["iterparse", "build_from_events", "parse_document_streaming"]


def build_from_events(events: Iterable[Event], name: str = "document") -> Document:
    """Assemble a document from a parse-event stream."""
    root: Node | None = None
    stack: list[Node] = []
    for kind, value in events:
        if kind == "start":
            element = Node.element(value)  # type: ignore[arg-type]
            if stack:
                stack[-1].append_child(element)
            elif root is None:
                root = element
            else:
                raise XMLParseError("multiple root elements in stream", 0)
            stack.append(element)
        elif kind == "end":
            if not stack or stack[-1].name != value:
                raise XMLParseError(f"unbalanced end event {value!r}", 0)
            stack.pop()
        elif kind == "attribute":
            if not stack:
                raise XMLParseError("attribute event outside an element", 0)
            attr_name, attr_value = value  # type: ignore[misc]
            stack[-1].append_child(Node.attribute(attr_name, attr_value))
        elif kind == "text":
            if not stack:
                raise XMLParseError("text event outside an element", 0)
            stack[-1].append_child(Node.text(value))  # type: ignore[arg-type]
        elif kind == "comment":
            if not stack:
                raise XMLParseError("comment event outside an element", 0)
            stack[-1].append_child(Node.comment(value))  # type: ignore[arg-type]
        else:
            raise XMLParseError(f"unknown event kind {kind!r}", 0)
    if root is None:
        raise XMLParseError("empty event stream", 0)
    if stack:
        raise XMLParseError(f"unclosed element <{stack[-1].name}>", 0)
    return Document(root, name=name)


def parse_document_streaming(
    text: str,
    name: str = "document",
    *,
    keep_whitespace: bool = False,
    keep_comments: bool = False,
    max_events: int | None = None,
) -> Document:
    """Event-stream equivalent of :func:`repro.xmltree.parse_document`."""
    return build_from_events(
        iterparse(
            text,
            keep_whitespace=keep_whitespace,
            keep_comments=keep_comments,
            max_events=max_events,
        ),
        name=name,
    )
