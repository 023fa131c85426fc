"""A small, self-contained XML parser.

The reproduction avoids external XML machinery: this parser covers the
XML subset the paper's corpora use — elements, attributes, character
data, CDATA sections, comments, processing instructions and an
(ignored) DOCTYPE — and produces the :class:`~repro.xmltree.node.Node`
tree that the labeling schemes consume.  Namespace prefixes are kept
verbatim as part of names.

Two compiled regexes do the lexing.  ``_TOKEN`` matches a piece of
markup inside the root element (a start tag without attributes, or
just the ``<name`` of one with them, an end tag, a comment, a CDATA
section or a processing instruction) with the character data after
it; ``_IN_TAG`` matches the rest of a start tag, one attribute or the
tag's end at a time.  A loop of
``match`` calls walks the input, and an explicit stack of open tags
checks the nesting.  The one scan serves :func:`parse_document`,
:func:`parse_fragment` (every insert and every WAL replay) and
:func:`iterparse`; it either builds nodes or yields events.  Where no
match fits, the error is diagnosed at that offset, so
:class:`~repro.errors.XMLParseError` carries the offset where a
left-to-right reading first fails.

Only the characters of XML 1.0's ``Char`` production are accepted,
literally or as character references: a C0 control is no XML text, and
a lone surrogate would parse but could never be written as UTF-8 again.
:class:`~repro.xmltree.node.Node` applies the same rule to values built
in code, so no saved bundle or logged insert holds what this parser
would refuse on load or replay.

By default whitespace-only text between elements is dropped (it is
formatting, not data, and would distort the node counts the experiments
are calibrated against); pass ``keep_whitespace=True`` to retain it.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XMLParseError
from repro.xmltree.document import Document
from repro.xmltree.node import NOT_XML_CHAR, Node, NodeKind

__all__ = ["parse_document", "parse_fragment", "iterparse"]

Event = tuple[str, object]

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_BLANK = r"[ \t\r\n]"

# The end of a start tag ("/" when empty) and the character data after
# it, up to the next markup.
_TAG_END = rf"{_BLANK}*(/?)>([^<]*)"
# One token: a piece of markup with the character data after it.
# Groups: 1 a start tag's name, 2-3 its end when no attribute comes
# first (else its attributes and its end are matched by ``_IN_TAG``);
# 4 an end tag's name; 5 a comment's body; 6 a CDATA section's body;
# none for a processing instruction; 7 the character data.
_TOKEN = re.compile(
    rf"""<({_NAME})(?:{_TAG_END})?
      | (?: </({_NAME}){_BLANK}*>
          | <!--(.*?)-->
          | <!\[CDATA\[(.*?)\]\]>
          | <\?.*?\?>
        )([^<]*)""",
    re.DOTALL | re.VERBOSE,
)
# What follows a start tag's name or attribute: the tag's end (groups
# 1-2, as in ``_TOKEN``) or one more attribute (groups 3-4: name and
# quoted value).  The blank the first attribute needs after the tag's
# name is implied: the name's match is greedy.
_IN_TAG = re.compile(
    rf"""{_TAG_END}
      | {_BLANK}*({_NAME}){_BLANK}*={_BLANK}*("[^"]*"|'[^']*')""",
    re.VERBOSE,
)
# How far a broken attribute gets: its name, "=" and opening quote.
_ATTRIBUTE_START = re.compile(rf"({_NAME}){_BLANK}*(?:(=){_BLANK}*([\"'])?)?")
_NAME_AT = re.compile(_NAME)
_BLANKS = re.compile(f"{_BLANK}*")
_DOCTYPE_MARKS = re.compile(r"[\[\]>]")

_UNTERMINATED = (
    ("<!--", "comment"),
    ("<![CDATA[", "CDATA section"),
    ("<?", "processing instruction"),
)

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_REFERENCE = re.compile(r"&([^;]*)(;?)")

_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE = NodeKind.ATTRIBUTE
_TEXT = NodeKind.TEXT
_COMMENT = NodeKind.COMMENT
# The nodes a parse builds are fresh and well-formed by construction,
# so they skip the checks of the public constructors (sibling module).
_appended = Node._appended  # noqa: SLF001


def _decode_entities(raw: str, position: int) -> str:
    """``raw`` with its entity and character references resolved.

    ``position`` is the offset of ``raw`` in the input, so an error
    carries the offset of the reference at fault.
    """

    def resolve(reference: re.Match) -> str:
        entity, closed = reference.groups()
        if not closed:
            raise XMLParseError(
                "unterminated entity reference", position + reference.start()
            )
        if entity in _ENTITIES:
            return _ENTITIES[entity]
        if not entity.startswith("#"):
            raise XMLParseError(
                f"unknown entity &{entity};", position + reference.start()
            )
        try:
            if entity[1:2] in ("x", "X"):
                code = int(entity[2:], 16)
            else:
                code = int(entity[1:])
        except ValueError:
            code = -1
        if not 0 <= code <= 0x10FFFF or NOT_XML_CHAR.match(chr(code)):
            raise XMLParseError(
                f"bad character reference &{entity};", position + reference.start()
            )
        return chr(code)

    return _REFERENCE.sub(resolve, raw)


def _markup_error(text: str, pos: int, tags: list[str]) -> XMLParseError:
    """What is wrong at ``text[pos]``, where no token matched.

    That is the end of the input, or a ``<`` that opens neither a start
    tag nor a well-formed end tag, comment, CDATA section or PI;
    ``tags`` are the open elements.
    """
    if pos == len(text):
        return XMLParseError(f"unclosed element <{tags[-1]}>", pos)
    if text.startswith("</", pos):
        name = _NAME_AT.match(text, pos + 2)
        if name is None:
            return XMLParseError("expected a name", pos + 2)
        if name[0] != tags[-1]:
            return XMLParseError(
                f"mismatched closing tag </{name[0]}> for <{tags[-1]}>", pos + 2
            )
        return XMLParseError("expected '>'", _BLANKS.match(text, name.end()).end())
    for opener, construct in _UNTERMINATED:
        if text.startswith(opener, pos):
            return XMLParseError(f"unterminated {construct}", pos + len(opener))
    return XMLParseError("expected a name", pos + 1)


def _attribute_error(text: str, pos: int, seen) -> XMLParseError:
    """What is wrong at ``text[pos]``, where a start tag neither ends
    nor has another attribute; ``seen`` are its attributes' names."""
    pos = _BLANKS.match(text, pos).end()
    if pos == len(text) or text[pos] == "/":
        return XMLParseError("expected '>'", pos)
    attribute = _ATTRIBUTE_START.match(text, pos)
    if attribute is None:
        return XMLParseError("expected a name", pos)
    if attribute[1] in seen:
        return XMLParseError(f"duplicate attribute {attribute[1]!r}", pos)
    if attribute[2] is None:
        message = "expected '='"
    elif attribute[3] is None:
        message = "attribute value must be quoted"
    else:
        message = "unterminated attribute value"
    return XMLParseError(message, attribute.end())


def _skip_misc(text: str, pos: int) -> int:
    """Skip the whitespace, comments, PIs and DOCTYPEs around the root."""
    while True:
        pos = _BLANKS.match(text, pos).end()
        if text.startswith("<?", pos):
            end = text.find("?>", pos + 2)
            if end < 0:
                raise XMLParseError("unterminated processing instruction", pos + 2)
            pos = end + 2
        elif text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end < 0:
                raise XMLParseError("unterminated comment", pos + 4)
            pos = end + 3
        elif text.startswith("<!DOCTYPE", pos):
            depth = 0
            for mark in _DOCTYPE_MARKS.finditer(text, pos):
                if mark[0] == "[":
                    depth += 1
                elif mark[0] == "]":
                    depth -= 1
                elif depth <= 0:
                    pos = mark.end()
                    break
            else:
                raise XMLParseError("unterminated DOCTYPE", len(text))
        else:
            return pos


def _scan(
    text: str, keep_whitespace: bool, keep_comments: bool, whole: bool, tree: bool
):
    """The scan behind every entry point: a generator over one element.

    Skips what may precede the root, scans the root element and, for a
    ``whole`` document, checks that only comments, PIs, DOCTYPEs and
    whitespace follow it.  With ``tree`` set it yields nothing: it
    builds the nodes and returns ``(root, end)``.  Otherwise it yields
    ``(kind, value, offset)`` events — ``offset`` is where the scan
    stands after the event — and returns ``(None, end)``.  ``end`` is
    the offset just past the root element.
    """
    pos = _skip_misc(text, 0)
    if not text.startswith("<", pos):
        raise XMLParseError(
            "document has no root element" if whole else "expected an element",
            pos,
        )
    if _NAME_AT.match(text, pos + 1) is None:
        # Only a start tag may open the root (so ``tags`` is never
        # empty below until the root closes).
        raise XMLParseError("expected a name", pos + 1)
    length = len(text)
    token_at, in_tag_at = _TOKEN.match, _IN_TAG.match
    tags: list[str] = []  # the open elements, innermost last
    parent = root = None  # the innermost open element, when building
    while True:
        token = token_at(text, pos)
        if token is None:
            raise _markup_error(text, pos, tags)
        tag = token[1]
        if tag is not None:
            if tree:
                element = _appended(parent, _ELEMENT, tag)
            else:
                yield "start", tag, token.end(1)
            if token[3] is None:  # attributes come first, or a broken tag
                pos = token.end(1)
                seen = ()  # the tag's attribute names so far
                while True:
                    token = in_tag_at(text, pos)
                    if token is None:
                        raise _attribute_error(text, pos, seen)
                    name = token[3]
                    if name is None:
                        break
                    if name in seen:
                        raise XMLParseError(
                            f"duplicate attribute {name!r}", token.start(3)
                        )
                    if not seen:
                        seen = set()
                    seen.add(name)
                    value = token[4][1:-1]
                    if "&" in value:
                        value = _decode_entities(value, token.start(4) + 1)
                    pos = token.end()
                    if tree:
                        _appended(element, _ATTRIBUTE, name, value)
                    else:
                        yield "attribute", (name, value), pos
                empty, data = token[1], token[2]
            else:
                empty, data = token[2], token[3]
            if empty:
                data_at = token.end() - len(data)  # just past the tag
                if not tree:
                    yield "end", tag, data_at
                if not tags:
                    root = element if tree else None
                    end = data_at
                    break
            else:
                tags.append(tag)
                if tree:
                    parent = element
        else:
            data = token[7]
            tag = token[4]
            if tag is not None:
                if tag != tags[-1]:
                    raise XMLParseError(
                        f"mismatched closing tag </{tag}> for <{tags[-1]}>",
                        token.start(4),
                    )
                tags.pop()
                if not tree:
                    yield "end", tag, token.start(7)
                if not tags:
                    root = parent
                    end = token.start(7)
                    break
                if tree:
                    parent = parent.parent
            elif token[5] is not None:
                if keep_comments:
                    if tree:
                        _appended(parent, _COMMENT, "#comment", token[5])
                    else:
                        yield "comment", token[5], token.start(7)
            elif token[6] is not None:
                if tree:
                    _appended(parent, _TEXT, "#text", token[6])
                else:
                    yield "text", token[6], token.start(7)
        pos = token.end()
        if data:
            if pos == length:
                raise XMLParseError(
                    f"unclosed element <{tags[-1]}>", pos - len(data)
                )
            if "&" in data:
                data = _decode_entities(data, pos - len(data))
            if keep_whitespace or data.strip():
                if tree:
                    _appended(parent, _TEXT, "#text", data)
                else:
                    yield "text", data, pos
    if whole:
        rest = _skip_misc(text, end)
        if rest < length:
            raise XMLParseError("content after the root element", rest)
    return root, end


def _check_characters(text: str, end: int) -> None:
    """Refuse the first character of ``text[:end]`` XML does not allow."""
    illegal = NOT_XML_CHAR.search(text, 0, end)
    if illegal is not None:
        raise XMLParseError(
            f"character U+{ord(illegal[0]):04X} is not allowed in XML",
            illegal.start(),
        )


def _parse_tree(
    text: str, keep_whitespace: bool, keep_comments: bool, whole: bool
) -> Node:
    scan = _scan(text, keep_whitespace, keep_comments, whole, True)
    try:
        next(scan)
    except StopIteration as finished:
        root, end = finished.value
    else:
        raise AssertionError("a tree scan yields no events")
    # A fragment reads nothing past its element.
    _check_characters(text, len(text) if whole else end)
    return root


def parse_fragment(
    text: str, *, keep_whitespace: bool = False, keep_comments: bool = False
) -> Node:
    """Parse a single element (with subtree) from ``text``.

    Comments, PIs and a DOCTYPE may precede the element; nothing after
    it is read.
    """
    return _parse_tree(text, keep_whitespace, keep_comments, whole=False)


def parse_document(
    text: str,
    name: str = "document",
    *,
    keep_whitespace: bool = False,
    keep_comments: bool = False,
) -> Document:
    """Parse a complete XML document into a :class:`Document`.

    Raises:
        XMLParseError: on malformed input, with the offset of the
            problem.
    """
    root = _parse_tree(text, keep_whitespace, keep_comments, whole=True)
    return Document(root, name=name)


def iterparse(
    text: str,
    *,
    keep_whitespace: bool = False,
    keep_comments: bool = False,
    max_events: int | None = None,
) -> Iterator[Event]:
    """Yield the parse events of one XML document, as it is scanned.

    Events are ``(kind, value)`` tuples in document order:
    ``("start", tag)``, ``("attribute", (name, value))``,
    ``("text", content)``, ``("comment", content)`` (only when kept)
    and ``("end", tag)``.  A malformed document yields the events
    before the fault, then raises :class:`XMLParseError`; one holding a
    character XML does not allow raises before its first event.

    ``max_events`` guards against unboundedly large inputs: the stream
    raises :class:`XMLParseError` when exceeded, before more memory is
    committed.
    """
    _check_characters(text, len(text))
    emitted = 0
    for kind, value, offset in _scan(
        text, keep_whitespace, keep_comments, True, False
    ):
        emitted += 1
        if max_events is not None and emitted > max_events:
            raise XMLParseError(f"event budget of {max_events} exceeded", offset)
        yield kind, value
