"""Serializer and parse/serialize round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree import (
    Document,
    Node,
    ShapeSpec,
    generate_element_tree,
    merge_adjacent_text,
    parse_document,
    serialize,
    serialize_document,
)
from repro.xmltree.node import NodeKind
from repro.xmltree.serializer import escape_attribute, escape_text


def trees_equal(a: Node, b: Node) -> bool:
    if (a.kind, a.name, a.value) != (b.kind, b.name, b.value):
        return False
    if len(a.children) != len(b.children):
        return False
    return all(trees_equal(x, y) for x, y in zip(a.children, b.children))


class TestEscaping:
    def test_text(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute(self):
        assert escape_attribute('say "hi" & go') == "say &quot;hi&quot; &amp; go"


class TestSerialize:
    def test_empty_element(self):
        assert serialize(Node.element("a")) == "<a/>"

    def test_text_child(self):
        root = Node.element("a")
        root.append_child(Node.text("hi"))
        assert serialize(root) == "<a>hi</a>"

    def test_attributes_in_start_tag(self):
        root = Node.element("a")
        root.append_child(Node.attribute("id", "1"))
        root.append_child(Node.element("b"))
        assert serialize(root) == '<a id="1"><b/></a>'

    def test_comment(self):
        root = Node.element("a")
        root.append_child(Node.comment(" note "))
        assert serialize(root) == "<a><!-- note --></a>"

    def test_attribute_node_directly_rejected(self):
        with pytest.raises(ValueError):
            serialize(Node.attribute("id", "1"))

    def test_pretty_indents_elements(self):
        root = Node.element("a")
        root.append_child(Node.element("b"))
        assert serialize(root, pretty=True) == "<a>\n  <b/>\n</a>"

    def test_pretty_keeps_text_inline(self):
        root = Node.element("a")
        child = root.append_child(Node.element("b"))
        child.append_child(Node.text("hi"))
        assert "<b>hi</b>" in serialize(root, pretty=True)

    def test_document_declaration(self):
        doc = Document(Node.element("a"))
        assert serialize_document(doc).startswith("<?xml version=")


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_documents_roundtrip(self, seed):
        rng = random.Random(seed)
        spec = ShapeSpec(tags=("a", "b", "c"), max_depth=6, subtree_range=(2, 8))
        original = Document(generate_element_tree("root", 150, spec, rng))
        # XML cannot represent adjacent text siblings distinctly;
        # normalize before demanding a faithful round-trip.
        merge_adjacent_text(original.root)
        text = serialize_document(original)
        parsed = parse_document(text, keep_whitespace=True)
        assert trees_equal(original.root, parsed.root)

    def test_merge_adjacent_text(self):
        root = Node.element("a")
        root.append_child(Node.text("x"))
        root.append_child(Node.text("y"))
        root.append_child(Node.element("b"))
        root.append_child(Node.text("z"))
        removed = merge_adjacent_text(root)
        assert removed == 1
        assert [c.value for c in root.children] == ["xy", None, "z"]

    def test_adjacent_text_siblings_stay_apart(self):
        root = Node.element("a")
        root.append_child(Node.text("x"))
        root.append_child(Node.text("y"))
        root.append_child(Node.element("b"))
        root.append_child(Node.text("z"))
        text = serialize(root)
        assert text == "<a>x<!---->y<b/>z</a>"
        reparsed = parse_document(text, keep_whitespace=True)
        assert trees_equal(root, reparsed.root)

    def test_pretty_roundtrip_without_text_distortion(self):
        original = parse_document("<a><b>keep me</b><c/></a>")
        pretty = serialize(original.root, pretty=True)
        reparsed = parse_document(pretty)
        assert trees_equal(original.root, reparsed.root)

    @settings(max_examples=40)
    @given(
        st.text(
            alphabet=st.characters(
                min_codepoint=32, max_codepoint=0x2FF, exclude_characters="\r"
            ),
            max_size=40,
        )
    )
    def test_arbitrary_text_roundtrips(self, content):
        root = Node.element("a")
        root.append_child(Node.attribute("t", content))
        if content:
            root.append_child(Node.text(content))
        reparsed = parse_document(serialize(root), keep_whitespace=True)
        assert reparsed.root.attributes()["t"] == content
        if content:
            assert reparsed.root.children[1].value == content
