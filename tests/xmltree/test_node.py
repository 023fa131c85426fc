"""The ordered tree model."""

from __future__ import annotations

import pytest

from repro.xmltree.node import Node, NodeKind


@pytest.fixture()
def small_tree() -> Node:
    root = Node.element("root")
    first = root.append_child(Node.element("a"))
    first.append_child(Node.text("hello"))
    second = root.append_child(Node.element("b"))
    second.append_child(Node.attribute("id", "x"))
    second.append_child(Node.element("c"))
    return root


class TestConstruction:
    def test_element(self):
        node = Node.element("tag")
        assert node.kind is NodeKind.ELEMENT
        assert node.name == "tag"
        assert node.value is None

    def test_attribute(self):
        node = Node.attribute("id", "7")
        assert node.kind is NodeKind.ATTRIBUTE
        assert (node.name, node.value) == ("id", "7")

    def test_text(self):
        node = Node.text("body")
        assert node.kind is NodeKind.TEXT
        assert node.value == "body"

    def test_comment(self):
        assert Node.comment("note").kind is NodeKind.COMMENT

    def test_element_with_value_rejected(self):
        with pytest.raises(ValueError):
            Node(NodeKind.ELEMENT, "tag", "value")

    def test_attribute_without_value_rejected(self):
        with pytest.raises(ValueError):
            Node(NodeKind.ATTRIBUTE, "id", None)

    def test_text_without_value_rejected(self):
        with pytest.raises(ValueError):
            Node(NodeKind.TEXT, "#text", None)

    @pytest.mark.parametrize(
        "character", ["\x00", "\x01", "\x1f", "\ud800", "\udfff", "\uffff"]
    )
    @pytest.mark.parametrize(
        "build",
        [Node.text, Node.comment, lambda value: Node.attribute("t", value)],
        ids=["text", "comment", "attribute"],
    )
    def test_character_xml_does_not_allow_rejected(self, build, character):
        # No parser could read such a value back from a bundle or a log.
        with pytest.raises(ValueError, match="not allowed in XML"):
            build(f"ok{character}")

    def test_parser_constructor_sets_every_slot(self):
        # The parser's unvalidated constructor must keep up with the
        # slots the public one sets.
        parent = Node.element("p")
        parent.append_child(Node.element("a"))
        node = Node._appended(parent, NodeKind.TEXT, "#text", "x")
        assert all(hasattr(node, slot) for slot in Node.__slots__)
        assert parent.children == [parent.children[0], node]
        assert node.parent is parent and node._index_hint == 1
        root = Node._appended(None, NodeKind.ELEMENT, "r")
        assert all(hasattr(root, slot) for slot in Node.__slots__)
        assert root.parent is None and root.children == []

    def test_every_char_production_range_accepted(self):
        value = "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
        assert Node.text(value).value == value


class TestStructureEdits:
    def test_append_sets_parent(self, small_tree):
        child = small_tree.append_child(Node.element("z"))
        assert child.parent is small_tree
        assert small_tree.children[-1] is child

    def test_insert_at_index(self, small_tree):
        child = small_tree.insert_child(1, Node.element("mid"))
        assert small_tree.children[1] is child

    def test_insert_under_text_rejected(self):
        with pytest.raises(ValueError):
            Node.text("x").append_child(Node.element("a"))

    def test_double_attach_rejected(self, small_tree):
        child = small_tree.children[0]
        with pytest.raises(ValueError):
            small_tree.append_child(child)

    def test_self_attach_rejected(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.append_child(small_tree)

    def test_detach(self, small_tree):
        child = small_tree.children[0]
        child.detach()
        assert child.parent is None
        assert child not in small_tree.children

    def test_detach_root_noop(self, small_tree):
        assert small_tree.detach() is small_tree


class TestNavigation:
    def test_index_in_parent(self, small_tree):
        assert small_tree.children[1].index_in_parent == 1

    def test_index_of_root_rejected(self, small_tree):
        with pytest.raises(ValueError):
            _ = small_tree.index_in_parent

    def test_depth(self, small_tree):
        assert small_tree.depth == 0
        assert small_tree.children[0].depth == 1
        assert small_tree.children[0].children[0].depth == 2

    def test_ancestors(self, small_tree):
        leaf = small_tree.children[1].children[1]
        assert [a.name for a in leaf.ancestors()] == ["b", "root"]

    def test_is_ancestor_of(self, small_tree):
        leaf = small_tree.children[1].children[1]
        assert small_tree.is_ancestor_of(leaf)
        assert not leaf.is_ancestor_of(small_tree)
        assert not small_tree.is_ancestor_of(small_tree)

    def test_pre_order_is_document_order(self, small_tree):
        names = [n.name for n in small_tree.pre_order()]
        assert names == ["root", "a", "#text", "b", "id", "c"]

    def test_descendants_excludes_self(self, small_tree):
        assert small_tree not in list(small_tree.descendants())
        assert len(list(small_tree.descendants())) == 5

    def test_subtree_size(self, small_tree):
        assert small_tree.subtree_size() == 6
        assert small_tree.children[1].subtree_size() == 3

    def test_element_children(self, small_tree):
        assert [c.name for c in small_tree.children[1].element_children()] == ["c"]

    def test_attributes(self, small_tree):
        assert small_tree.children[1].attributes() == {"id": "x"}

    def test_text_content(self, small_tree):
        assert small_tree.text_content() == "hello"

    def test_following_siblings(self, small_tree):
        first = small_tree.children[0]
        assert [s.name for s in first.following_siblings()] == ["b"]
        assert list(small_tree.following_siblings()) == []

    def test_preceding_siblings_reverse_order(self):
        root = Node.element("r")
        names = ["a", "b", "c", "d"]
        for name in names:
            root.append_child(Node.element(name))
        last = root.children[-1]
        assert [s.name for s in last.preceding_siblings()] == ["c", "b", "a"]

    def test_repr(self, small_tree):
        assert "root" in repr(small_tree)
        assert "text" in repr(Node.text("x"))


class TestIndexOfChild:
    """The hint-cached child lookup that replaced children.index()."""

    def test_matches_enumeration(self):
        root = Node.element("r")
        children = [root.append_child(Node.element(f"c{i}")) for i in range(8)]
        for expected, child in enumerate(children):
            assert root.index_of_child(child) == expected
            assert child.index_in_parent == expected

    def test_hint_repaired_after_front_insert(self):
        root = Node.element("r")
        last = root.append_child(Node.element("last"))
        assert root.index_of_child(last) == 0
        for i in range(5):
            root.insert_child(0, Node.element(f"front{i}"))
        # `last` still carries a stale hint of 0; the ring scan repairs it.
        assert root.index_of_child(last) == 5
        assert root.index_of_child(last) == 5  # hint now fresh

    def test_hint_survives_out_of_band_list_mutation(self):
        # generator._make_leaf and merge_adjacent_text edit .children
        # directly; lookups must still succeed afterwards.
        root = Node.element("r")
        kids = [root.append_child(Node.element(f"c{i}")) for i in range(6)]
        root.children.reverse()
        for child in kids:
            assert root.children[root.index_of_child(child)] is child

    def test_detach_uses_identity(self):
        root = Node.element("r")
        a = root.append_child(Node.element("x"))
        b = root.append_child(Node.element("x"))  # equal-looking sibling
        a.detach()
        assert root.children == [b]
        assert root.index_of_child(b) == 0

    def test_non_child_raises(self):
        root = Node.element("r")
        root.append_child(Node.element("a"))
        stranger = Node.element("a")
        with pytest.raises(ValueError):
            root.index_of_child(stranger)

    def test_empty_parent_raises(self):
        with pytest.raises(ValueError):
            Node.element("r").index_of_child(Node.element("a"))
