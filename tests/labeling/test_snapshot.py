"""LabelView: immutable committed snapshots the read path serves.

The MVCC half of the service contract: ``capture()`` freezes the label
map, document order, tag index and parents (no text); subsequent engine
mutations must be invisible through the captured view, the text a view
builds on its first read must be the text of its version, and the query
engine must run against a view exactly as it runs against the live
``LabeledDocument``.
"""

from __future__ import annotations

import random

import pytest

from repro.labeling import LabelView, make_scheme
from repro.labeling import snapshot
from repro.labeling.snapshot import capture
from repro.query import QueryEngine, evaluate_reference
from repro.updates import UpdateEngine
from repro.xmltree import Node, NodeKind, parse_document, parse_fragment
from repro.xmltree.serializer import serialize_document

SCHEME = "QED-Prefix"
XML = "<root><a><b/></a><a/><c>text</c></root>"


@pytest.fixture
def engine():
    labeled = make_scheme(SCHEME).label_document(parse_document(XML))
    return UpdateEngine(labeled, with_storage=True)


def test_capture_freezes_counts_and_labels(engine):
    view = capture(engine.labeled, version=7)
    assert view.version == 7
    before_count = view.node_count()
    before_labels = [view.label_of(node) for node in view]
    engine.insert_child(engine.labeled.document.root, Node.element("new"))
    engine.insert_child(engine.labeled.document.root, Node.element("new"))
    assert view.node_count() == before_count
    assert [view.label_of(node) for node in view] == before_labels
    assert engine.labeled.nodes_in_order[0] is view.node_at(0)


def test_serialize_returns_the_captured_bytes(engine):
    view = capture(engine.labeled, version=1)
    frozen = view.serialize()
    engine.delete(engine.labeled.document.root.children[0])
    assert view.serialize() == frozen
    assert "<b/>" in frozen


def test_tag_index_is_frozen(engine):
    view = capture(engine.labeled, version=1)
    assert len(view.tag_index["a"]) == 2
    engine.insert_child(engine.labeled.document.root, Node.element("a"))
    assert len(view.tag_index["a"]) == 2
    assert len(engine.labeled.tag_index["a"]) == 3


def test_query_engine_matches_live_results(engine):
    live = QueryEngine(engine.labeled).evaluate("//a")
    view = capture(engine.labeled, version=1)
    snapshot_results = QueryEngine(view).evaluate("//a")
    assert snapshot_results == live
    # Mutate: the live engine sees the new node, the view does not.
    engine.insert_child(engine.labeled.document.root, Node.element("a"))
    assert len(QueryEngine(engine.labeled).evaluate("//a")) == 3
    assert len(QueryEngine(view).evaluate("//a")) == 2


def test_position_round_trip(engine):
    view = capture(engine.labeled, version=1)
    for position in range(view.node_count()):
        assert view.position_of(view.node_at(position)) == position


def test_tag_label_bytes_matches_live_and_is_cow(engine):
    view = capture(engine.labeled, version=1)
    assert view.tag_label_bytes("a") == engine.labeled.tag_label_bytes("a")
    first_map = view._tag_bytes
    view.tag_label_bytes(None)
    # Copy-on-write: the fill replaced the map, never mutated it.
    assert view._tag_bytes is not first_map
    assert "a" in first_map and None not in first_map


def test_view_exported_from_labeling_package():
    assert LabelView.__name__ == "LabelView"


def test_total_label_bits_frozen(engine):
    view = capture(engine.labeled, version=1)
    before = view.total_label_bits()
    engine.insert_child(engine.labeled.document.root, Node.element("z"))
    assert view.total_label_bits() == before
    assert engine.labeled.total_label_bits() > before


def test_capture_defers_serialization_to_the_first_read(engine, monkeypatch):
    calls = []
    real = snapshot.serialize_document

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(snapshot, "serialize_document", counting)
    view = capture(engine.labeled, version=1)
    assert calls == []
    first = view.serialize()
    assert len(calls) == 1
    assert view.serialize() is first
    assert len(calls) == 1


# -- the lazy text against the text taken at capture ---------------------

CHURN_SCHEMES = ("V-CDBS-Containment", "QED-Prefix", "Prime")
CHURN_XML = (
    '<root id="r"><!--note--><p class="x">one<b>bold</b>two</p>'
    '<p>three<i k="1">it</i>four<u lang="en">five</u>six</p><q/>'
    "<r><s>x</s>y<s/></r></root>"
)


def _fragment(rng: random.Random, serial: int) -> Node:
    return parse_fragment(
        f'<n{serial} k="v{serial}" t="{rng.randrange(9)}">'
        f"t{serial}<m a=\"&amp;{serial}\"/>u{serial}</n{serial}>"
    )


def _churn_op(engine: UpdateEngine, rng: random.Random, serial: int) -> None:
    """One random insert, delete or move on the live document."""
    root = engine.labeled.document.root
    nodes = list(engine.labeled.nodes_in_order)
    elements = [node for node in nodes if node.kind is NodeKind.ELEMENT]
    others = [node for node in nodes if node is not root]
    kind = rng.choice(("insert", "insert", "delete", "move"))
    if kind == "delete" and len(others) > 12:
        engine.delete(rng.choice(others))
        return
    if kind == "move":
        node = rng.choice([node for node in elements if node is not root])
        targets = [
            target
            for target in others
            if target is not node and not node.is_ancestor_of(target)
        ]
        if targets:
            engine.move_before(node, rng.choice(targets))
            return
    parent = rng.choice(elements)
    # Any index, attributes included: the serializer must still write
    # every attribute into the start tag.
    index = rng.randrange(len(parent.children) + 1)
    engine.insert_child(parent, _fragment(rng, serial), index)


@pytest.mark.parametrize("scheme", CHURN_SCHEMES)
@pytest.mark.parametrize("seed", range(4))
def test_lazy_text_matches_the_text_at_capture(scheme, seed):
    """Views serialized only after the churn read as they did when taken."""
    document = parse_document(CHURN_XML, keep_comments=True)
    engine = UpdateEngine(make_scheme(scheme).label_document(document))
    rng = random.Random(f"{scheme}-{seed}")
    views = [(capture(engine.labeled, 0), serialize_document(document))]
    # The element between two text runs goes first, so adjacent text
    # siblings (written with a ``<!---->`` between them) are in play.
    engine.delete(engine.labeled.tag_index["b"][0])
    views.append((capture(engine.labeled, 1), serialize_document(document)))
    for serial in range(2, 40):
        _churn_op(engine, rng, serial)
        views.append(
            (capture(engine.labeled, serial), serialize_document(document))
        )
    for view, expected in views:
        assert view.serialize() == expected, f"v{view.version}"
    assert "one<!---->two" in views[1][1]
    assert len({expected for _, expected in views}) > 20


# -- the isolation hole: parent axes as of the view's version ------------

HOLE_XML = (
    "<play><act><scene><speech><line>a</line></speech>"
    "<speech><line>b</line></speech></scene></act></play>"
)
HOLE_QUERIES = (
    "//line/parent::speech",
    "//speech/line[1]",
    "//speech/line",
    "//scene/speech[2]",
    "//speech[line]",
)


def _positions(nodes, position_of) -> list[tuple[int, str]]:
    return [(position_of(node), node.name) for node in nodes]


@pytest.mark.parametrize("scheme", CHURN_SCHEMES)
def test_pinned_view_answers_parent_axes_as_of_its_version(scheme):
    labeled = make_scheme(scheme).label_document(parse_document(HOLE_XML))
    engine = UpdateEngine(labeled)
    view = capture(labeled, version=1)
    first_speech, second_speech = labeled.tag_index["speech"]
    line_a, line_b = labeled.tag_index["line"]
    engine.move_before(line_b, line_a)
    # The live tree moved line b under the first speech; the view not.
    assert line_b.parent is first_speech
    assert view.parent_of(line_b) is second_speech
    assert view.parent_of(view.node_at(0)) is None
    assert labeled.parent_of(line_b) is first_speech

    pinned = parse_document(view.serialize())
    pinned_positions = pinned.document_positions()
    for query in HOLE_QUERIES:
        got = QueryEngine(view).evaluate(query)
        want = evaluate_reference(pinned, query)
        assert _positions(got, view.position_of) == _positions(
            want, lambda node: pinned_positions[id(node)] - 1
        ), query
    assert len(QueryEngine(view).evaluate("//line/parent::speech")) == 2
    assert len(QueryEngine(view).evaluate("//speech/line[1]")) == 2
