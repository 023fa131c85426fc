"""Bit-exact label stream encoding/decoding."""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstring import BitString
from repro.datasets.shakespeare import build_play
from repro.errors import InvalidCodeError
from repro.labeling import make_scheme, scheme_names
from repro.storage.encoding import (
    BitReader,
    BitWriter,
    EncodingError,
    decode_labels,
    decode_ordpath_component,
    decode_utf8_varint,
    encode_labels,
    encode_ordpath_component,
    encode_utf8_varint,
    make_label_codec,
)

from tests.conftest import make_small_document


def _reference_stream(fields) -> bytes:
    """The oracle writer: one big integer, MSB-first, zero-padded."""
    value = bits = 0
    for field, width in fields:
        value = (value << width) | field
        bits += width
    padding = -bits % 8
    return (value << padding).to_bytes((bits + padding) // 8, "big")


# (value, width) fields with widths 0-200: a few dozen of them cross
# many 64-bit accumulator flushes, at every bit alignment.
_FIELDS = st.lists(
    st.integers(0, 200).flatmap(
        lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
    ),
    max_size=80,
)


class TestBitIO:
    def test_empty(self):
        writer = BitWriter()
        assert writer.to_bytes() == b""
        assert writer.bit_length() == 0

    def test_roundtrip_values(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b0001, 4)
        writer.write(1, 1)
        data = writer.to_bytes()
        assert len(data) == 1
        reader = BitReader(data)
        assert reader.read(3) == 0b101
        assert reader.read(4) == 0b0001
        assert reader.read(1) == 1

    def test_write_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    def test_read_past_end(self):
        reader = BitReader(b"\x00")
        reader.read(8)
        with pytest.raises(EncodingError):
            reader.read(1)

    def test_bitstring_io(self):
        writer = BitWriter()
        writer.write_bitstring(BitString.from_str("01101"))
        reader = BitReader(writer.to_bytes())
        assert reader.read_bitstring(5).to01() == "01101"

    @settings(max_examples=60)
    @given(_FIELDS)
    def test_property_roundtrip(self, fields):
        writer = BitWriter()
        written = 0
        for value, width in fields:
            writer.write(value, width)
            written += width
            assert writer.bit_length() == written
        data = writer.to_bytes()
        assert data == _reference_stream(fields)

        reader = BitReader(data)
        total = len(data) * 8
        consumed = 0
        for value, width in fields:
            assert reader.read(width) == value
            consumed += width
            assert reader.position == consumed
            assert reader.remaining() == total - consumed
        left = total - consumed
        with pytest.raises(
            EncodingError,
            match=f"truncated: needed {left + 1} bits at offset {consumed}, have {left}$",
        ):
            reader.read(left + 1)  # one bit past the end
        assert (reader.position, reader.remaining()) == (consumed, left)
        assert reader.read(left) == 0  # the padding is zeros

    def test_cost_is_linear_in_the_stream(self):
        """Guards against a quadratic codec: 8x the fields may cost at
        most 20x the time.  A per-field cost of O(width) gives about 8x;
        re-shifting the whole stream for each field gives about 60x at
        these sizes.  Only the ratio is checked, never an absolute time."""
        rng = random.Random(16)
        widths = (1, 2, 3, 8, 13, 16, 32, 57)

        def make_fields(count):
            return [
                (rng.getrandbits(width), width)
                for width in (rng.choice(widths) for _ in range(count))
            ]

        def best_of_3(fields):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                writer = BitWriter()
                for value, width in fields:
                    writer.write(value, width)
                reader = BitReader(writer.to_bytes())
                for _, width in fields:
                    reader.read(width)
                best = min(best, time.perf_counter() - start)
            return best

        small, large = make_fields(5_000), make_fields(40_000)
        ratio = best_of_3(large) / best_of_3(small)
        assert ratio < 20, f"8x the fields cost {ratio:.1f}x the time"


class TestUtf8Varint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 2047, 2048, 65535, 10**7])
    def test_roundtrip(self, value):
        writer = BitWriter()
        encode_utf8_varint(writer, value)
        assert decode_utf8_varint(BitReader(writer.to_bytes())) == value

    def test_frame_sizes_match_accounting(self):
        from repro.labeling.prefix import utf8_bits

        for value in (1, 127, 128, 2047, 2048, 70000):
            writer = BitWriter()
            encode_utf8_varint(writer, value)
            assert writer.bit_length() == utf8_bits(max(1, value.bit_length()))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_utf8_varint(BitWriter(), -1)

    def test_too_large_rejected(self):
        with pytest.raises(InvalidCodeError):
            encode_utf8_varint(BitWriter(), 1 << 40)

    def test_malformed_lead_byte(self):
        with pytest.raises(EncodingError):
            decode_utf8_varint(BitReader(b"\x80\x80"))  # bare continuation

    def test_malformed_continuation(self):
        with pytest.raises(EncodingError):
            decode_utf8_varint(BitReader(b"\xc2\x00"))  # '00' marker

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_property_roundtrip(self, value):
        writer = BitWriter()
        encode_utf8_varint(writer, value)
        assert decode_utf8_varint(BitReader(writer.to_bytes())) == value


class TestOrdPathComponent:
    @pytest.mark.parametrize(
        "value", [0, 1, 7, 8, 23, 24, 87, 343, 4439, 69975, 10**6, -1, -8, -344, -70000]
    )
    def test_roundtrip(self, value):
        writer = BitWriter()
        encode_ordpath_component(writer, value)
        assert decode_ordpath_component(BitReader(writer.to_bytes())) == value

    def test_bits_match_accounting(self):
        from repro.labeling.prefix import ordpath_li_oi_bits

        for value in (1, 20, 100, 5000, -5, -300):
            writer = BitWriter()
            encode_ordpath_component(writer, value)
            assert writer.bit_length() == ordpath_li_oi_bits(value)

    def test_out_of_range(self):
        with pytest.raises(InvalidCodeError):
            encode_ordpath_component(BitWriter(), 1 << 70)

    @settings(max_examples=60)
    @given(st.integers(min_value=-60_000, max_value=1_000_000))
    def test_property_roundtrip(self, value):
        writer = BitWriter()
        encode_ordpath_component(writer, value)
        assert decode_ordpath_component(BitReader(writer.to_bytes())) == value


def _labels_equal(scheme, original, decoded) -> bool:
    if scheme.family == "containment":
        key = scheme.codec.key
        return all(
            (key(a.start), key(a.end), a.level)
            == (key(b.start), key(b.end), b.level)
            for a, b in zip(original, decoded)
        )
    if scheme.family == "prime":
        return all(
            (a.product, a.self_label) == (b.product, b.self_label)
            for a, b in zip(original, decoded)
        )
    return original == decoded


# SHA-256 of ``encode_labels`` for every scheme on
# ``build_play("play", 600, seed=1601)``, and for V-CDBS after 24 inserts
# at one gap (codes past the analytical length field, so the 16-bit
# escape is on the wire).  The digests were computed with the
# whole-stream big-int BitWriter that the byte-buffered writer replaced;
# they pin the stream format, which that rewrite must not change.
_GOLDEN_STREAMS = {
    "Prime": "c2adf17331c80827a27dbd9f5aedba19b46b6d8242a5062297450df2ca54f02a",
    "DeweyID(UTF8)-Prefix": "b4ba875fb8630efc8d912a482ad0f9577d83aad669f54dc6f601d4e00f2b8aa7",
    "Binary-String-Prefix": "08b450fd0b6eebfb264d26511fa76763f030905bddc4f94e3bc90fabf7fa01a4",
    "OrdPath1-Prefix": "7c3e5ef5f4d68fceb02483c025651408d47f19c0eabfddfe5d70bb75f0cae136",
    "OrdPath2-Prefix": "7c3e5ef5f4d68fceb02483c025651408d47f19c0eabfddfe5d70bb75f0cae136",
    "CDBS(UTF8)-Prefix": "0dc8bc025ae74a231e6b080901558d4000d18fc90d0e83f1d62775286a6fba9d",
    "QED-Prefix": "8f3e210c00f67f4cbb4a5bb13190e5e1360d4769b6e8e9b6084cd671c87a43e8",
    "Float-point-Containment": "71eb386273198820f8448aa8cb39fcaa3183e89d8dc0be6c0c961426acaa648a",
    "V-Binary-Containment": "066348a8ed4cdb2d05b8535befb87a722f49e30d8c5b92934db2ecab963edaa6",
    "F-Binary-Containment": "2659e35f44a885b22019f41fe3b0a7e832a7d6d1baba8a1e4920b7f2f4a6ec0c",
    "V-CDBS-Containment": "746625071973cc1c9576aaf7778261a939b6157d963fbd9f79bde04adab32baf",
    "F-CDBS-Containment": "0c98f503790e371f79496695e80bdd9e440ad9799c9768f6f91117af222aef63",
    "QED-Containment": "2afb16c9f0c09e52cafc2cc15dabf9b006f485e6890ad6bcc60a999b1f41ecdf",
    "Gapped-Containment": "e95bfbfd9773791adcbe3805bec620a085002823529afd4c8a8a580b67ecd6a7",
    "Adaptive-CDBS-Containment": "746625071973cc1c9576aaf7778261a939b6157d963fbd9f79bde04adab32baf",
}
_GOLDEN_VCDBS_ESCAPED = "7f4a352a6322dd54e863232aff4aa4133a83460f1ad80b49582972316b018b03"


def _assert_golden(scheme, labeled, digest) -> None:
    blob = encode_labels(labeled)
    assert hashlib.sha256(blob).hexdigest() == digest
    original = [labeled.label_of(n) for n in labeled.nodes_in_order]
    assert _labels_equal(scheme, original, decode_labels(scheme, blob))


class TestGoldenStreams:
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_stream_digest(self, scheme_name):
        scheme = make_scheme(scheme_name)
        labeled = scheme.label_document(build_play("play", 600, seed=1601))
        _assert_golden(scheme, labeled, _GOLDEN_STREAMS[scheme_name])

    def test_vcdbs_length_escape_digest(self):
        from repro.updates import UpdateEngine
        from repro.xmltree import Node

        document = build_play("play", 600, seed=1601)
        scheme = make_scheme("V-CDBS-Containment")
        labeled = scheme.label_document(document)
        engine = UpdateEngine(labeled, with_storage=False)
        for _ in range(24):
            engine.insert_child(document.root, Node.element("n"), 0)
        escape = (1 << scheme.codec.field_bits) - 1
        longest = max(len(labeled.label_of(n).start) for n in labeled.nodes_in_order)
        assert longest - 1 >= escape  # the stream carries escaped lengths
        _assert_golden(scheme, labeled, _GOLDEN_VCDBS_ESCAPED)


class TestLabelStreams:
    @pytest.mark.parametrize("scheme_name", scheme_names())
    def test_roundtrip_every_scheme(self, scheme_name):
        document = make_small_document(seed=21, size=150)
        scheme = make_scheme(scheme_name)
        labeled = scheme.label_document(document)
        blob = encode_labels(labeled)
        decoded = decode_labels(scheme, blob)
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        assert len(decoded) == len(original)
        assert _labels_equal(scheme, original, decoded)

    @pytest.mark.parametrize(
        "scheme_name",
        [
            "V-Binary-Containment",
            "F-Binary-Containment",
            "V-CDBS-Containment",
            "F-CDBS-Containment",
            "QED-Containment",
            "Float-point-Containment",
        ],
    )
    def test_containment_stream_matches_size_accounting(self, scheme_name):
        """Figure 5's bit counts equal the real encoded stream size
        (modulo the 32-bit count header and byte padding)."""
        document = make_small_document(seed=23, size=120)
        scheme = make_scheme(scheme_name)
        labeled = scheme.label_document(document)
        blob = encode_labels(labeled)
        encoded_bits = len(blob) * 8 - 32
        accounted = labeled.total_label_bits()
        assert 0 <= encoded_bits - accounted < 8  # only byte padding

    def test_roundtrip_after_updates(self):
        from repro.updates import UpdateEngine
        from repro.xmltree import Node

        document = make_small_document(seed=29, size=100)
        scheme = make_scheme("V-CDBS-Containment")
        labeled = scheme.label_document(document)
        engine = UpdateEngine(labeled, with_storage=False)
        for index in (0, 1, 2):
            engine.insert_child(document.root, Node.element("n"), index)
        blob = encode_labels(labeled)
        decoded = decode_labels(scheme, blob)
        original = [labeled.label_of(n) for n in labeled.nodes_in_order]
        assert _labels_equal(scheme, original, decoded)

    def test_truncated_stream_rejected(self):
        document = make_small_document(seed=31, size=60)
        scheme = make_scheme("QED-Containment")
        labeled = scheme.label_document(document)
        blob = encode_labels(labeled)
        with pytest.raises(EncodingError):
            decode_labels(scheme, blob[: len(blob) // 2])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            make_label_codec(object())
