"""Label bundle persistence: save/load round-trips."""

from __future__ import annotations

import pytest

from repro.labeling import make_scheme, scheme_names
from repro.query import QueryEngine, evaluate_reference
from repro.storage import LabelFileError, load_labeled, save_labeled
from repro.updates import UpdateEngine
from repro.xmltree import Node, merge_adjacent_text, parse_document

from tests.conftest import make_small_document


def make_labeled(scheme_name, seed=41, size=140):
    document = make_small_document(seed=seed, size=size)
    merge_adjacent_text(document.root)
    return make_scheme(scheme_name).label_document(document)


class TestRoundTrip:
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_queries_identical_after_reload(self, scheme_name, tmp_path):
        labeled = make_labeled(scheme_name)
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        reloaded = load_labeled(path)
        assert reloaded.scheme.name == scheme_name
        assert reloaded.node_count() == labeled.node_count()
        for query in ("/root/a", "//b", "//a/b", "//c[1]", "/root/*"):
            original = [
                n.text_content()
                for n in QueryEngine(labeled).evaluate(query)
            ]
            restored = [
                n.text_content()
                for n in QueryEngine(reloaded).evaluate(query)
            ]
            assert original == restored, query

    def test_reloaded_document_still_updatable(self, tmp_path):
        labeled = make_labeled("V-CDBS-Containment")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        reloaded = load_labeled(path)
        engine = UpdateEngine(reloaded, with_storage=False)
        result = engine.insert_child(reloaded.document.root, Node.element("new"), 0)
        assert result.stats.relabeled_nodes == 0
        keys = [
            reloaded.scheme.order_key(reloaded.label_of(n))
            for n in reloaded.nodes_in_order
        ]
        assert keys == sorted(keys)

    def test_reloaded_prime_supports_order_and_updates(self, tmp_path):
        labeled = make_labeled("Prime")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        reloaded = load_labeled(path)
        keys = [
            reloaded.scheme.order_key(reloaded.label_of(n))
            for n in reloaded.nodes_in_order
        ]
        assert keys == sorted(keys)
        engine = UpdateEngine(reloaded, with_storage=False)
        new = Node.element("fresh")
        engine.insert_child(reloaded.document.root, new, 0)
        # The new prime must not collide with any persisted one.
        selfs = [label.self_label for label in reloaded.labels.values()]
        assert len(set(selfs)) == len(selfs)

    def test_reload_agrees_with_reference_evaluator(self, tmp_path):
        labeled = make_labeled("QED-Containment")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        reloaded = load_labeled(path)
        expected = [
            n.text_content()
            for n in evaluate_reference(reloaded.document, "//b")
        ]
        got = [
            n.text_content() for n in QueryEngine(reloaded).evaluate("//b")
        ]
        assert got == expected


class TestFormatV2:
    def test_bundles_are_written_as_v2(self, tmp_path):
        labeled = make_labeled("V-CDBS-Containment")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        assert path.read_bytes().startswith(b"RPRO-LABELS-2\n")

    def test_v1_bundles_still_load(self, tmp_path):
        labeled = make_labeled("V-CDBS-Containment")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        # rewrite the bundle as v1: old magic, no checksum field
        magic, scheme, config, sizes, payload = path.read_bytes().split(
            b"\n", 4
        )
        xml_size, label_size, _ = sizes.split()
        path.write_bytes(
            b"RPRO-LABELS-1\n"
            + scheme
            + b"\n"
            + config
            + b"\n"
            + xml_size
            + b" "
            + label_size
            + b"\n"
            + payload
        )
        reloaded = load_labeled(path)
        assert reloaded.node_count() == labeled.node_count()

    def test_flipped_payload_byte_is_caught_by_checksum(self, tmp_path):
        labeled = make_labeled("V-CDBS-Containment")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # corrupt the label stream, sizes unchanged
        path.write_bytes(bytes(data))
        with pytest.raises(LabelFileError, match="checksum"):
            load_labeled(path)

    def test_bad_checksum_field(self, tmp_path):
        labeled = make_labeled("V-CDBS-Containment")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        magic, scheme, config, sizes, payload = path.read_bytes().split(
            b"\n", 4
        )
        xml_size, label_size, _ = sizes.split()
        path.write_bytes(
            b"\n".join(
                (magic, scheme, config, xml_size + b" " + label_size + b" 1")
            )
            + b"\n"
            + payload
        )
        with pytest.raises(LabelFileError, match="checksum"):
            load_labeled(path)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rpro"
        path.write_bytes(b"NOT A BUNDLE")
        with pytest.raises(LabelFileError):
            load_labeled(path)

    def test_truncated_payload(self, tmp_path):
        labeled = make_labeled("QED-Prefix")
        path = tmp_path / "doc.rpro"
        save_labeled(labeled, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(LabelFileError):
            load_labeled(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "doc.rpro"
        path.write_bytes(b"RPRO-LABELS-1\nonly-one-line")
        with pytest.raises(LabelFileError):
            load_labeled(path)

    def test_v1_header_with_checksum_field_is_malformed(self, tmp_path):
        path = tmp_path / "doc.rpro"
        path.write_bytes(b"RPRO-LABELS-1\nPrime\n{}\n1 1 0\n<a")
        with pytest.raises(LabelFileError, match="header"):
            load_labeled(path)

    def test_unknown_scheme(self, tmp_path):
        path = tmp_path / "doc.rpro"
        path.write_bytes(
            b"RPRO-LABELS-1\nNo-Such-Scheme\n{}\n1 1\n<a"
        )
        with pytest.raises(LabelFileError, match="scheme"):
            load_labeled(path)

    def test_malformed_config_json(self, tmp_path):
        path = tmp_path / "doc.rpro"
        path.write_bytes(b"RPRO-LABELS-1\nPrime\nnot json\n1 1\n<a")
        with pytest.raises(LabelFileError, match="config"):
            load_labeled(path)

    def test_undecodable_payload(self, tmp_path):
        body = b"\xff\xfe\x00\x01"
        path = tmp_path / "doc.rpro"
        path.write_bytes(
            b"RPRO-LABELS-1\nPrime\n{}\n%d 0\n" % len(body) + body
        )
        with pytest.raises(LabelFileError, match="payload"):
            load_labeled(path)


def _golden_document():
    """A fixed document with attributes, entities and mixed content."""
    parts = [
        "<play title=\"Q &amp; A\" lang='en' "
        'note="&quot;x&quot; &lt;y&gt; &#233; &#x2014;">'
    ]
    for act in range(3):
        parts.append(f'<act n="{act + 1}">Act {act + 1} &amp; prologue')
        for scene in range(3):
            parts.append(f"<scene n='{scene}' where=\"Elsinore &#x2014; {scene}\">")
            for line in range(3):
                parts.append(
                    f"<line>Who&apos;s there? &lt;{act}.{scene}.{line}&gt;"
                    f"<em>now</em> &amp; then</line>"
                )
            parts.append("</scene>between scenes")
        parts.append("</act>")
    parts.append("<![CDATA[raw <cdata> & text]]></play>")
    return parse_document("".join(parts))


def _churn(labeled, seed=7):
    """Seeded inserts and deletes, then a run of inserts at one gap.

    Deleting an element between two text nodes leaves them adjacent, and
    the run of 24 inserts at the root's first slot mints codes past
    V-CDBS's analytical length field, so the stream escapes lengths.
    """
    import random

    from repro.xmltree import parse_fragment

    rng = random.Random(seed)
    engine = UpdateEngine(labeled, with_storage=False)
    root = labeled.document.root
    for step in range(30):
        elements = [n for n in root.pre_order() if n.kind.value == "element"]
        if step % 3 == 2 and len(elements) > 1:
            engine.delete(rng.choice(elements[1:]))
            continue
        parent = rng.choice(elements)
        fragment = parse_fragment(
            f'<new k="{step} &amp; &quot;{step}&quot;">text &lt;{step}&gt;'
            f"<leaf/>tail</new>"
        )
        slot = rng.randint(0, len(parent.element_children()))
        engine.insert_child(parent, fragment, slot)
    for _ in range(24):
        engine.insert_child(root, Node.element("n"), 0)
    return labeled


# SHA-256 of the whole ``save_labeled`` file (header, XML, labels) for
# every scheme: on ``_golden_document()``, and on it after ``_churn``.
# Recorded with the recursive-descent parser, the StringIO serializer
# and the per-field label writer; every later kernel must reproduce
# them byte for byte.
_GOLDEN_BUNDLES = {
    "Prime": "5855c0b4ba66cdca8353b72306ca72f8974a25e4dcce28f228f4bd6be501ba07",
    "DeweyID(UTF8)-Prefix": "f0df5dafa05f23a3968b25a41f2b0f61ec21b1a7dd9056f70f0935017a4d8bd8",
    "Binary-String-Prefix": "44b00e0f2d814665f78dabac4c7eb43e15f16358f3eab90087f59982d3badfeb",
    "OrdPath1-Prefix": "c585ec16038cf3362b8162a12a4244f11c49dcf7aa854c6b09383b50ae34e73d",
    "OrdPath2-Prefix": "d1c6fd7ad891bfcc95ca82b54ff6c675445e30e434353894c48e4352edcda130",
    "CDBS(UTF8)-Prefix": "d8612948a6d44292dd9a6a68a0d42a298da5953b49ad6d099efd1b95ff883367",
    "QED-Prefix": "3cc0d475f9a682e4ee236a9d0adb1c8bb439157459688db3c1ae5e2be86ff385",
    "Float-point-Containment": "b562f5fb98bf143dcfbaa04de769ea920837c3370df6dd0bbeed9e747527db55",
    "V-Binary-Containment": "b463fae0425c72bbae5eb89726cb14195adefd77993945c021c8c306e8f4bafc",
    "F-Binary-Containment": "4765df42ff6bdae126c8ccf7e6d238e500a78ec6150669735fa138fb40c0de60",
    "V-CDBS-Containment": "4db473b330c6d7cf9eb8ae3cc48833d3aa1c9b1bc23838d41bce8d333b8a6913",
    "F-CDBS-Containment": "bbeb7ef9ccc3fba374dec91b0821b1f172bf6e71d5e2da3850f6d5a951763f36",
    "QED-Containment": "02e5a8ed790eba976568e54aa25b2d169ba0ed31e53deff19ca439bc0cf02722",
    "Gapped-Containment": "d13f73f93046140a8689aaa66ead9c0365f909f14bb465fef341e024e30b1225",
    "Adaptive-CDBS-Containment": "e20da0ac839ed858c4f26c52d322c1829a4ae3087d07b657cf6aa486d74fa4c7",
}
_GOLDEN_CHURNED_BUNDLES = {
    "Prime": "db5cb493c2868fd7992713bbbb19a8a82de1846e9bd2060d4f26ccba49824503",
    "DeweyID(UTF8)-Prefix": "948e17c3c58fddcfe96d5e81a56231591dfa782485a88af58463e34fd35b14b0",
    "Binary-String-Prefix": "1d5fcaa0e3c1a6078e40e7a7f3f9d9e630fa693353edfc0acde909ad877221a5",
    "OrdPath1-Prefix": "c6bd6732146e95c7f45c2d674cfb8e382dde049477dca4605126b8d43e602f60",
    "OrdPath2-Prefix": "504c32257681ee98bc0979f17b23c8af2d53146ad0c493b17d9ea9955d2a850e",
    "CDBS(UTF8)-Prefix": "5bee6f1d9c741355f09f2dd348b405ca28cc1fb7db590c6463b03bd65ad0b920",
    "QED-Prefix": "f8bfdf71b2a03b9087b21794b03ffab1dd23f3884c495300cd51e71f6acae88e",
    "Float-point-Containment": "bb2c839c4a62c551252efcac285a80738c33bbe51dca29312dc8e6e4045ba4e4",
    "V-Binary-Containment": "8e4806623583842192123151ea2ff9ac334324daa3c27182bcf79352b04c232d",
    "F-Binary-Containment": "65cbb3504793d7768c49763749f2b0de8fa10a701e79dcdaedc51ec98060ad79",
    "V-CDBS-Containment": "4b7eb462c71311bb0e85be179132e95a0cb3c5bfcadb5eaaff40e5607ab02aa7",
    "F-CDBS-Containment": "2a97b8f391e2a0c93ab5c2ea7daeab0567be9935f0ecf105322397506e99275d",
    "QED-Containment": "79cc6ce7ff65a480ec2bb433fd20234c3c2c1300f4b3a9207037ad517f6a46dd",
    "Gapped-Containment": "369f3ac142908dae5c0a38e38d62e7111a2625e0c345367057fab83c48dc2692",
    "Adaptive-CDBS-Containment": "466ba04add0991eb3e48791ddc9b7aa364516e9d2df1b533d735deb1c22f090c",
}


class TestGoldenBundles:
    @staticmethod
    def _digest(labeled, tmp_path):
        import hashlib

        path = tmp_path / "golden.rpro"
        save_labeled(labeled, path)
        reloaded = load_labeled(path)
        assert reloaded.node_count() == labeled.node_count()
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_bundle_digest(self, scheme_name, tmp_path):
        labeled = make_scheme(scheme_name).label_document(_golden_document())
        digest = self._digest(labeled, tmp_path)
        assert digest == _GOLDEN_BUNDLES[scheme_name]

    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_churned_bundle_digest(self, scheme_name, tmp_path):
        scheme = make_scheme(scheme_name)
        labeled = _churn(scheme.label_document(_golden_document()))
        if scheme_name == "V-CDBS-Containment":
            escape = (1 << scheme.codec.field_bits) - 1
            longest = max(
                len(labeled.label_of(n).start) for n in labeled.nodes_in_order
            )
            assert longest - 1 >= escape
        digest = self._digest(labeled, tmp_path)
        assert digest == _GOLDEN_CHURNED_BUNDLES[scheme_name]
