"""The hand-written XML parser."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xmltree.node import NodeKind
from repro.xmltree.parser import parse_document, parse_fragment
from repro.xmltree.stream import iterparse, parse_document_streaming


class TestHappyPath:
    def test_minimal(self):
        doc = parse_document("<root/>")
        assert doc.root.name == "root"
        assert doc.root.children == []

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert doc.root.children[0].children[0].name == "c"

    def test_text_content(self):
        doc = parse_document("<a>hello</a>")
        assert doc.root.children[0].value == "hello"

    def test_mixed_content(self):
        doc = parse_document("<a>x<b/>y</a>")
        kinds = [c.kind for c in doc.root.children]
        assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]

    def test_attributes(self):
        doc = parse_document('<a id="1" name="two"/>')
        assert doc.root.attributes() == {"id": "1", "name": "two"}

    def test_single_quoted_attribute(self):
        doc = parse_document("<a id='x'/>")
        assert doc.root.attributes() == {"id": "x"}

    def test_attributes_precede_children_in_order(self):
        doc = parse_document('<a id="1"><b/></a>')
        assert [c.kind for c in doc.root.children] == [
            NodeKind.ATTRIBUTE,
            NodeKind.ELEMENT,
        ]

    def test_xml_declaration_skipped(self):
        doc = parse_document('<?xml version="1.0"?><root/>')
        assert doc.root.name == "root"

    def test_doctype_skipped(self):
        doc = parse_document("<!DOCTYPE play [ <!ELEMENT a (b)> ]><root/>")
        assert doc.root.name == "root"

    def test_comments_dropped_by_default(self):
        doc = parse_document("<a><!-- note --><b/></a>")
        assert [c.name for c in doc.root.children] == ["b"]

    def test_comments_kept_on_request(self):
        doc = parse_document("<a><!-- note --></a>", keep_comments=True)
        assert doc.root.children[0].kind is NodeKind.COMMENT
        assert doc.root.children[0].value == " note "

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<raw> & text]]></a>")
        assert doc.root.children[0].value == "<raw> & text"

    def test_processing_instruction_inside_skipped(self):
        doc = parse_document("<a><?php echo ?><b/></a>")
        assert [c.name for c in doc.root.children] == ["b"]

    def test_whitespace_dropped_by_default(self):
        doc = parse_document("<a>\n  <b/>\n</a>")
        assert [c.kind for c in doc.root.children] == [NodeKind.ELEMENT]

    def test_whitespace_kept_on_request(self):
        doc = parse_document("<a>\n<b/></a>", keep_whitespace=True)
        assert doc.root.children[0].kind is NodeKind.TEXT

    def test_namespaced_names_kept_verbatim(self):
        doc = parse_document('<ns:a xmlns:ns="u"><ns:b/></ns:a>')
        assert doc.root.name == "ns:a"
        assert "xmlns:ns" in doc.root.attributes()

    def test_document_name(self):
        assert parse_document("<a/>", name="file1").name == "file1"


class TestEntities:
    def test_predefined(self):
        doc = parse_document("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.children[0].value == "<>&'\""

    def test_decimal_reference(self):
        assert parse_document("<a>&#65;</a>").root.children[0].value == "A"

    def test_hex_reference(self):
        assert parse_document("<a>&#x41;</a>").root.children[0].value == "A"

    def test_in_attribute(self):
        doc = parse_document('<a t="&amp;&#66;"/>')
        assert doc.root.attributes()["t"] == "&B"

    def test_unknown_entity(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&nope;</a>")

    def test_unterminated_entity(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&amp</a>")

    def test_bad_char_reference(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&#xZZ;</a>")


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "just text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a",
            "<a b=c/>",
            '<a b="1" b="2"/>',
            "<a/><b/>",
            "<a><!-- unterminated </a>",
            "<a><![CDATA[open</a>",
            "<!DOCTYPE unterminated <a/>",
            "<1tag/>",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XMLParseError):
            parse_document(text)

    def test_error_carries_position(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<a></b>")
        assert info.value.position > 0


class TestFragment:
    def test_fragment(self):
        node = parse_fragment("<x><y/></x>")
        assert node.name == "x"
        assert node.parent is None

    def test_fragment_requires_element(self):
        with pytest.raises(XMLParseError):
            parse_fragment("plain text")


# -- the parser's contract ------------------------------------------------
#
# Every malformed input below, with the offset the hand-written
# recursive-descent parser reported for it.  Messages may change between
# parser implementations; offsets may not.  ``after_root`` marks inputs
# whose only fault follows the root element: ``parse_fragment`` reads a
# single element and ignores what follows it, so it accepts those.
_MALFORMED = [
    # The original rejection cases.
    ("", 0, False),
    ("just text", 0, False),
    ("<a>", 3, False),
    ("<a></b>", 5, False),
    ("<a><b></a></b>", 8, False),
    ("<a", 2, False),
    ("<a b=c/>", 5, False),
    ('<a b="1" b="2"/>', 9, False),
    ("<a/><b/>", 4, True),
    ("<a><!-- unterminated </a>", 7, False),
    ("<a><![CDATA[open</a>", 12, False),
    ("<!DOCTYPE unterminated <a/>", 27, False),
    ("<1tag/>", 1, False),
    # Entity and character-reference errors, in text and attributes.
    ("<a>&nope;</a>", 3, False),
    ("<a>&amp</a>", 3, False),
    ("<a>&#xZZ;</a>", 3, False),
    ("<a>&#;</a>", 3, False),
    ("<a>&#x;</a>", 3, False),
    ("<a>&#-1;</a>", 3, False),
    ("<a>x &#x110000; y</a>", 5, False),
    ('<a t="x&bad;"/>', 7, False),
    ('<a t="&amp"/>', 6, False),
    # Unterminated comment, CDATA, PI and DOCTYPE, in and around the root.
    ("<!-- x", 4, False),
    ("<?xml ", 2, False),
    ("<a><?pi </a>", 5, False),
    ("<!DOCTYPE a [ <!ELEMENT a> <a/>", 31, False),
    ("<a/><!-- tail", 8, True),
    ("<a/><?pi", 6, True),
    # Spacing and punctuation inside tags.
    ("<>", 1, False),
    ("<a/ >", 2, False),
    ("<a b>", 4, False),
    ("<a b=>", 5, False),
    ('<a ="1"/>', 3, False),
    ('<ab="1"/>', 3, False),
    ("<a b='1>", 6, False),
    ('<a b="1>', 6, False),
    ("<a>< b/></a>", 4, False),
    ("<a><!DOCTYPE x></a>", 4, False),
    ("<![CDATA[x]]><a/>", 1, False),
    # Content outside the root.
    ("  x", 2, False),
    ("<a/>x", 4, True),
    ("<a/> <b/>", 5, True),
    ("<a/>&amp;", 4, True),
    ("<a/>]]>", 4, True),
    # Closing tags: mismatched, malformed, missing.
    ("<a><b></c></a>", 8, False),
    ("</a>", 1, False),
    ("<a></ a>", 5, False),
    ("<a></a x>", 7, False),
    ("<a>x", 3, False),
    ("<a>&bad", 3, False),
    ("<a><b>text", 6, False),
]

# Forms the parser accepts although a strict XML parser would not, and
# edge cases of what becomes a node: ``(text, pre-order of the root as
# (kind, name, value))`` with default options.
_ACCEPTED = [
    ('<a b="1"c="2"/>', [("element", "a", None), ("attribute", "b", "1"),
                         ("attribute", "c", "2")]),
    ("<a></a >", [("element", "a", None)]),
    ("<a\tb='1'\n/>", [("element", "a", None), ("attribute", "b", "1")]),
    ('<a b="<>"/>', [("element", "a", None), ("attribute", "b", "<>")]),
    ("<a>]]></a>", [("element", "a", None), ("text", "#text", "]]>")]),
    ("<a>x>y</a>", [("element", "a", None), ("text", "#text", "x>y")]),
    ("<a/><!DOCTYPE x>", [("element", "a", None)]),
    ("<a><![CDATA[]]></a>", [("element", "a", None), ("text", "#text", "")]),
    ("<a><![CDATA[ ]]></a>", [("element", "a", None), ("text", "#text", " ")]),
    ("<a>&#32;</a>", [("element", "a", None)]),
    ("<a>\xa0</a>", [("element", "a", None)]),  # Unicode blanks are blank
    ("<a>x<![CDATA[y]]>z</a>", [("element", "a", None), ("text", "#text", "x"),
                                ("text", "#text", "y"), ("text", "#text", "z")]),
    ("<a>x<!---->y</a>", [("element", "a", None), ("text", "#text", "x"),
                          ("text", "#text", "y")]),
]


def _preorder(node):
    return [(n.kind.value, n.name, n.value) for n in node.pre_order()]


def _shape(node):
    """A node's whole subtree as nested tuples, parent links checked."""
    for child in node.children:
        assert child.parent is node
    return (
        node.kind.value,
        node.name,
        node.value,
        tuple(_shape(child) for child in node.children),
    )


class TestContract:
    @pytest.mark.parametrize("text,position,after_root", _MALFORMED)
    def test_document_error_offset(self, text, position, after_root):
        with pytest.raises(XMLParseError) as info:
            parse_document(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text,position,after_root", _MALFORMED)
    def test_stream_error_offset(self, text, position, after_root):
        with pytest.raises(XMLParseError) as info:
            list(iterparse(text))
        assert info.value.position == position

    @pytest.mark.parametrize("text,position,after_root", _MALFORMED)
    def test_fragment_error_offset(self, text, position, after_root):
        if after_root:
            assert parse_fragment(text).name == "a"
            return
        with pytest.raises(XMLParseError) as info:
            parse_fragment(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text,expected", _ACCEPTED)
    def test_accepted_forms(self, text, expected):
        assert _preorder(parse_document(text).root) == expected
        assert _preorder(parse_fragment(text)) == expected
        assert _preorder(parse_document_streaming(text).root) == expected

    @pytest.mark.parametrize(
        "budget,position", enumerate([8, 14, 17, 20, 24, 32, 45, 49], 1)
    )
    def test_event_budget_offset(self, budget, position):
        # The offset is where the scan stands after the event that
        # overran the budget: past a start tag's name, an attribute's
        # closing quote, or the whole of any other construct.
        text = '<r a="1" b="2"><x>hi</x><!--c--><![CDATA[d]]></r>'
        events = []
        with pytest.raises(XMLParseError) as info:
            for event in iterparse(text, keep_comments=True, max_events=budget):
                events.append(event)
        assert info.value.position == position
        assert len(events) == budget


# -- round trips over random documents -----------------------------------

_NAME_START = "abcXYZ_:"
_NAME_REST = _NAME_START + "09.-"
_CHARS = "ab z<>&\"';#\t\n\ré中\U0001f600"
_BLANKS = " \t\r\n"
_NAMED = {"<": "&lt;", ">": "&gt;", "&": "&amp;", '"': "&quot;", "'": "&apos;"}


def _escape(rnd, value, quote=None):
    """``value`` as character data, each character spelled at random."""
    out = []
    for char in value:
        forced = char in "<&" or char == quote
        spelling = rnd.randrange(4 if forced else 5)
        if spelling == 0 and char in _NAMED:
            out.append(_NAMED[char])
        elif spelling == 1:
            out.append(f"&#{ord(char)};")
        elif spelling == 2:
            out.append(f"&#x{ord(char):X};")
        elif spelling == 3:
            out.append(f"&#x{ord(char):x};")
        elif forced:
            out.append(_NAMED[char])
        else:
            out.append(char)
    return "".join(out)


def _name(rnd):
    return rnd.choice(_NAME_START) + "".join(
        rnd.choice(_NAME_REST) for _ in range(rnd.randrange(4))
    )


def _string(rnd, alphabet, low, high):
    return "".join(rnd.choice(alphabet) for _ in range(rnd.randint(low, high)))


def _element(rnd, depth, out):
    """Render one random element into ``out``; returns its model.

    The model is ``("element", name, attributes, content)``; content
    items are ``("text", value)``, ``("cdata", value)`` or
    ``("comment", body)``, and ``<!---->`` is rendered (and modelled as
    an empty comment) between two runs of character data.
    """
    name = _name(rnd)
    out.append(f"<{name}")
    attributes = []
    for attribute in {_name(rnd) for _ in range(rnd.randrange(3))}:
        value = _string(rnd, _CHARS, 0, 6)
        quote = rnd.choice("\"'")
        out.append(
            _string(rnd, _BLANKS, 1, 2) + attribute + _string(rnd, _BLANKS, 0, 1)
            + "=" + _string(rnd, _BLANKS, 0, 1)
            + quote + _escape(rnd, value, quote) + quote
        )
        attributes.append((attribute, value))
    out.append(_string(rnd, _BLANKS, 0, 1))
    content = []
    count = rnd.randrange(5) if depth > 0 else rnd.randrange(2)
    if count == 0 and rnd.random() < 0.5:
        out.append("/>")
        return ("element", name, attributes, content)
    out.append(">")
    last_was_data = False
    for _ in range(count):
        kind = rnd.choice(("text", "blank", "cdata", "comment", "pi", "element"))
        if kind in ("text", "blank"):
            if last_was_data:
                out.append("<!---->")
                content.append(("comment", ""))
            if kind == "text":
                value = _string(rnd, _CHARS, 1, 8)
            else:
                value = _string(rnd, _BLANKS, 1, 3)
            out.append(_escape(rnd, value))
            content.append(("text", value))
            last_was_data = True
            continue
        last_was_data = False
        if kind == "cdata":
            value = _string(rnd, _CHARS + "]", 0, 6).replace("]]>", "")
            out.append(f"<![CDATA[{value}]]>")
            content.append(("cdata", value))
        elif kind == "comment":
            body = _string(rnd, "ab <&>'\"\n", 0, 6)
            out.append(f"<!--{body}-->")
            content.append(("comment", body))
        elif kind == "pi":
            out.append(f"<?{_name(rnd)} {_string(rnd, 'ab <&>', 0, 5)}?>")
        else:
            content.append(_element(rnd, depth - 1, out))
    out.append(f"</{name}" + _string(rnd, _BLANKS, 0, 1) + ">")
    return ("element", name, attributes, content)


def _misc(rnd, out):
    for _ in range(rnd.randrange(3)):
        out.append(
            rnd.choice(
                [
                    _string(rnd, _BLANKS, 1, 3),
                    "<!-- misc & <stuff> -->",
                    "<?target some data?>",
                ]
            )
        )


@st.composite
def _documents(draw):
    """A random document's text and the model of its root element."""
    rnd = draw(st.randoms(use_true_random=False))
    out = []
    if rnd.random() < 0.5:
        out.append('<?xml version="1.0" encoding="UTF-8"?>')
    _misc(rnd, out)
    if rnd.random() < 0.3:
        out.append("<!DOCTYPE r [ <!ELEMENT r ANY> <!ATTLIST r a CDATA #IMPLIED> ]>")
        _misc(rnd, out)
    model = _element(rnd, 3, out)
    _misc(rnd, out)
    return "".join(out), model


def _expected(model, keep_whitespace, keep_comments):
    """The tree shape the parser must build for ``model``."""
    _, name, attributes, content = model
    children = [("attribute", key, value, ()) for key, value in attributes]
    for item in content:
        if item[0] == "element":
            children.append(_expected(item, keep_whitespace, keep_comments))
        elif item[0] == "cdata":
            children.append(("text", "#text", item[1], ()))
        elif item[0] == "comment":
            if keep_comments:
                children.append(("comment", "#comment", item[1], ()))
        elif keep_whitespace or item[1].strip():
            children.append(("text", "#text", item[1], ()))
    return ("element", name, None, tuple(children))


class TestRoundTripProperty:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_documents())
    def test_three_entry_points_build_the_modelled_tree(self, case):
        text, model = case
        for keep_whitespace in (False, True):
            for keep_comments in (False, True):
                options = dict(
                    keep_whitespace=keep_whitespace, keep_comments=keep_comments
                )
                expected = _expected(model, keep_whitespace, keep_comments)
                assert _shape(parse_document(text, **options).root) == expected
                assert _shape(parse_fragment(text, **options)) == expected
                streamed = parse_document_streaming(text, **options)
                assert _shape(streamed.root) == expected


class TestCharacters:
    """Only XML 1.0 ``Char``: what could never be written as UTF-8 again
    (a lone surrogate) or is no character data (a C0 control) is refused,
    written literally or as a reference, at its offset."""

    @pytest.mark.parametrize(
        "text,position",
        [
            ("<a>&#xD800;</a>", 3),
            ("<a>&#xdc00;</a>", 3),
            ("<a>&#0;</a>", 3),
            ("<a>x&#x1F;</a>", 4),
            ("<a>&#xFFFE;</a>", 3),
            ("<a>&#65535;</a>", 3),
            ('<a t="&#xD800;"/>', 6),
            ("<a t='ok' u='&#8;'/>", 13),
            ("<a>\ud800</a>", 3),
            ("<a>x\x01</a>", 4),
            ("<a>\ufffe</a>", 3),
            ("<a b='\x00'/>", 6),
            ("<a><!--\x07--></a>", 7),
            ("<a><![CDATA[\x1f]]></a>", 12),
            ("<?pi \x02?><a/>", 5),
            ("<a/>\x0b", 4),
        ],
    )
    def test_refused_at_its_offset(self, text, position):
        for parse in (parse_document, lambda t: list(iterparse(t))):
            with pytest.raises(XMLParseError) as info:
                parse(text)
            assert info.value.position == position

    def test_every_char_production_range_is_accepted(self):
        text = (
            "<a t='&#x9;&#xA;&#xD;'>\t\n\r &#x20;\ud7ff&#xD7FF;"
            "\ue000&#xE000;\ufffd&#xFFFD;\U00010000&#x10000;"
            "\U0010ffff&#x10FFFF;</a>"
        )
        root = parse_document(text, keep_whitespace=True).root
        assert root.attributes() == {"t": "\t\n\r"}
        assert root.children[1].value == (
            "\t\n\r  \ud7ff\ud7ff\ue000\ue000\ufffd\ufffd"
            "\U00010000\U00010000\U0010ffff\U0010ffff"
        )
        root.children[1].value.encode("utf-8")

    def test_fragment_reads_nothing_past_its_element(self):
        assert parse_fragment("<a/>\x00").name == "a"
        with pytest.raises(XMLParseError) as info:
            parse_fragment("<a>&#0;</a>")
        assert info.value.position == 3
