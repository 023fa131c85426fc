"""XmlStore: the integrated front door."""

from __future__ import annotations

import pytest

from repro.store import StoreError, XmlStore
from repro.xmltree import Document, Node


@pytest.fixture()
def store() -> XmlStore:
    s = XmlStore(scheme="V-CDBS-Containment")
    s.add_document("<play><act><scene/></act><act/></play>", name="p1")
    s.add_document("<play><act/></play>", name="p2")
    return s


class TestDocuments:
    def test_add_and_list(self, store):
        assert store.document_names() == ["p1", "p2"]
        assert len(store) == 2
        assert list(store) == ["p1", "p2"]

    def test_duplicate_name_rejected(self, store):
        with pytest.raises(StoreError):
            store.add_document("<x/>", name="p1")

    def test_unknown_document(self, store):
        with pytest.raises(StoreError):
            store.document("nope")

    def test_remove(self, store):
        store.remove_document("p2")
        assert store.document_names() == ["p1"]

    def test_add_prebuilt_document(self):
        from repro.xmltree import parse_document

        s = XmlStore()
        s.add_document(parse_document("<r/>", name="mine"))
        assert s.document_names() == ["mine"]


class TestQueries:
    def test_query_across_store(self, store):
        assert store.count("/play/act") == 3

    def test_query_single_document(self, store):
        assert store.count("/play/act", document="p1") == 2
        assert store.count("/play/act", document="p2") == 1

    def test_query_unknown_document(self, store):
        with pytest.raises(StoreError):
            store.query("/play", document="zzz")


class TestUpdates:
    def test_insert_child(self, store):
        result = store.insert_xml(
            "/play/act/scene", "<speech><line>hi</line></speech>"
        )
        assert result.stats.inserted_nodes == 3
        assert store.count("//speech/line") == 1
        assert store.totals.relabeled_nodes == 0

    def test_insert_before_and_after(self, store):
        acts = store.query("/play/act", document="p1")
        store.insert_xml(acts[0], "<prologue/>", position="before")
        store.insert_xml(acts[-1], "<epilogue/>", position="after")
        names = [c.name for c in store.document("p1").root.children]
        assert names == ["prologue", "act", "act", "epilogue"]

    def test_insert_bad_position(self, store):
        with pytest.raises(StoreError):
            store.insert_xml("/play/act[1]", "<x/>", position="inside")

    def test_target_query_must_be_unique(self, store):
        with pytest.raises(StoreError):
            store.insert_xml("/play/act", "<x/>")  # 3 matches
        with pytest.raises(StoreError):
            store.insert_xml("//nothing", "<x/>")

    def test_delete(self, store):
        store.delete("/play/act/scene")
        assert store.count("//scene") == 0
        assert store.totals.deleted_nodes == 1

    def test_move(self, store):
        acts = store.query("/play/act", document="p1")
        store.move(acts[1], before=acts[0])
        first = store.document("p1").root.children[0]
        assert not first.children  # the empty act moved to the front

    def test_move_across_documents_rejected(self, store):
        act_p1 = store.query("/play/act", document="p1")[0]
        act_p2 = store.query("/play/act", document="p2")[0]
        with pytest.raises(StoreError):
            store.move(act_p2, before=act_p1)

    def test_foreign_node_rejected(self, store):
        with pytest.raises(StoreError):
            store.delete(Node.element("alien"))

    def test_updates_visible_in_export(self, store):
        store.insert_xml("/play/act/scene", "<speech/>")
        assert "<speech/>" in store.export_xml("p1")


class TestStats:
    def test_stats(self, store):
        stats = store.stats()
        assert stats["documents"] == 2
        assert stats["nodes"] == 6
        assert stats["scheme"] == "V-CDBS-Containment"
        assert stats["label_bits"] > 0

    def test_static_scheme_counts_relabels(self):
        s = XmlStore(scheme="V-Binary-Containment")
        s.add_document("<r><a/><b/></r>", name="d")
        s.insert_xml("/r/a", "<n/>", position="before")
        assert s.stats()["relabeled_nodes"] > 0


class TestPersistence:
    def test_save_load_roundtrip(self, store, tmp_path):
        store.insert_xml("/play/act/scene", "<speech><line>x</line></speech>")
        store.save(tmp_path / "bundles")
        reloaded = XmlStore.load(tmp_path / "bundles")
        assert sorted(reloaded.document_names()) == ["p1", "p2"]
        assert reloaded.scheme_name == "V-CDBS-Containment"
        assert reloaded.count("//speech/line") == 1
        # Reloaded stores keep absorbing updates without re-labels.
        reloaded.insert_xml("//speech", "<line>y</line>")
        assert reloaded.totals.relabeled_nodes == 0

    def test_code_built_values_survive_save_and_load(self, tmp_path):
        # Whatever a node accepts (here each end of XML's Char ranges)
        # the bundle's parser reads back.
        value = "x\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
        root = Node.element("r")
        root.append_child(Node.attribute("t", value))
        root.append_child(Node.text(value))
        store = XmlStore(scheme="V-CDBS-Containment")
        store.add_document(Document(root), name="d")
        store.save(tmp_path)
        reloaded = XmlStore.load(tmp_path)
        assert reloaded.export_xml("d") == store.export_xml("d")
        assert reloaded.document("d").root.children[1].value == value

    def test_load_empty_directory(self, tmp_path):
        with pytest.raises(StoreError):
            XmlStore.load(tmp_path)

    def test_load_mixed_schemes_rejected(self, tmp_path):
        first = XmlStore(scheme="V-CDBS-Containment")
        first.add_document("<r/>", name="a")
        first.save(tmp_path)
        second = XmlStore(scheme="QED-Prefix")
        second.add_document("<r/>", name="b")
        second.save(tmp_path)
        with pytest.raises(StoreError):
            XmlStore.load(tmp_path)

    @pytest.mark.parametrize(
        "scheme", ["QED-Prefix", "Prime", "F-CDBS-Containment"]
    )
    def test_other_schemes_roundtrip(self, scheme, tmp_path):
        s = XmlStore(scheme=scheme)
        s.add_document("<r><a>x</a><b/></r>", name="doc")
        s.save(tmp_path)
        reloaded = XmlStore.load(tmp_path)
        assert reloaded.count("/r/a") == 1
