"""Bit-exact label encoding: labels as the bytes a real store would hold.

The rest of the library *accounts* label sizes in bits (Figure 5); this
module actually produces and parses the bit streams, so the accounting
can be validated against real encoded bytes and labeled documents can
be persisted and reloaded.  One :class:`LabelStreamCodec` exists per
scheme flavour:

* containment — per value: the codec-specific framing below, then an
  8-bit level;
* prefix — the per-component framings (UTF-8 varints for DeweyID,
  Li/Oi for OrdPath, frame-padded CDBS codes, separator-terminated QED,
  self-delimiting binary strings);
* prime — length-prefixed big-integer product and self label.

Value framings:

=============  =====================================================
V-Binary       fixed-width length field + value bits
F-Binary       fixed-width value
gapped int     same as V-Binary
float-point    IEEE-754 single, 32 bits
V-CDBS         fixed-width length field + code bits
F-CDBS         fixed-width code (right-padded with 0s)
QED            2-bit symbols, terminated by a ``00`` separator symbol
UTF-8 varint   RFC 2279 framing generalised past 6 bytes
CDBS-in-UTF-8  code bits left-aligned in a UTF-8 frame; the decoder
               strips the right padding, which is unambiguous because
               every CDBS code ends with ``1``
Li/Oi          the ORDPATH bucket table of
               :data:`repro.labeling.prefix.ORDPATH_BUCKETS`
=============  =====================================================
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.core.bitstring import BitString
from repro.errors import InvalidCodeError, ReproError
from repro.labeling.base import LabeledDocument
from repro.labeling.containment import ContainmentLabel, ContainmentScheme
from repro.labeling.prefix import ORDPATH_BUCKETS, PrefixScheme
from repro.labeling.prime import PrimeLabel, PrimeScheme

__all__ = [
    "BitWriter",
    "BitReader",
    "encode_utf8_varint",
    "decode_utf8_varint",
    "encode_ordpath_component",
    "decode_ordpath_component",
    "LabelStreamCodec",
    "make_label_codec",
    "encode_labels",
    "decode_labels",
]


class EncodingError(ReproError):
    """A label stream is malformed or truncated."""


# ---------------------------------------------------------------------------
# Bit-level I/O
# ---------------------------------------------------------------------------

class BitWriter:
    """Accumulates bits MSB-first and renders zero-padded bytes.

    Fields collect in a small integer accumulator that spills its whole
    bytes into a ``bytearray`` once it holds 64 bits or more, so a field
    costs O(its width) whatever the length of the stream.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pending = 0
        self._pending_bits = 0

    def write(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value.bit_length() > width:
            raise ValueError(f"{value} does not fit in {width} bits")
        pending = (self._pending << width) | value
        bits = self._pending_bits + width
        if bits >= 64:
            keep = bits & 7
            self._buffer += (pending >> keep).to_bytes(bits >> 3, "big")
            pending &= (1 << keep) - 1
            bits = keep
        self._pending = pending
        self._pending_bits = bits

    def write_bitstring(self, code: BitString) -> None:
        self.write(code.value, len(code))

    def write_bits_text(self, text: str) -> None:
        if text:
            self.write_bitstring(BitString.from_str(text))

    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._pending_bits

    def to_bytes(self) -> bytes:
        padding = -self._pending_bits % 8
        tail = (self._pending << padding).to_bytes(
            (self._pending_bits + padding) // 8, "big"
        )
        return b"".join((self._buffer, tail))


class BitReader:
    """Reads MSB-first bits from bytes.

    Each ``read`` converts only the bytes its field spans and shifts and
    masks that window, so a field costs O(its width) whatever the length
    of the stream — the decoding mirror of :class:`BitWriter`, and the
    hot path of WAL frame and checkpoint-bundle label decoding.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._total_bits = len(data) * 8
        self._position = 0

    @property
    def position(self) -> int:
        return self._position

    def remaining(self) -> int:
        return self._total_bits - self._position

    def read(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        position = self._position
        if self._total_bits - position < width:
            raise EncodingError(
                f"label stream truncated: needed {width} bits at offset "
                f"{position}, have {self._total_bits - position}"
            )
        end = position + width
        self._position = end
        last = (end + 7) >> 3
        window = int.from_bytes(self._data[position >> 3:last], "big")
        return (window >> ((last << 3) - end)) & ((1 << width) - 1)

    def read_bitstring(self, width: int) -> BitString:
        return BitString(self.read(width), width)


# ---------------------------------------------------------------------------
# Value framings
# ---------------------------------------------------------------------------

def _utf8_frame_capacity(extra_bytes: int) -> int:
    """Payload bits of a frame with ``extra_bytes`` continuation bytes."""
    return 7 if extra_bytes == 0 else 11 + 5 * (extra_bytes - 1)


def _utf8_frame_for(payload_bits: int) -> int:
    """Smallest frame (as continuation-byte count) fitting the payload."""
    extra = 0
    while _utf8_frame_capacity(extra) < payload_bits:
        extra += 1
    return extra


def _write_utf8_frame(writer: BitWriter, payload: int, extra_bytes: int) -> None:
    capacity = _utf8_frame_capacity(extra_bytes)
    if extra_bytes == 0:
        writer.write(0, 1)
        writer.write(payload, 7)
        return
    # Lead byte: (extra_bytes+1) ones, a zero, then the high payload bits.
    lead_payload_bits = 8 - (extra_bytes + 2)
    writer.write((1 << (extra_bytes + 1)) - 1, extra_bytes + 1)
    writer.write(0, 1)
    shift = capacity - lead_payload_bits
    writer.write(payload >> shift, lead_payload_bits)
    for index in range(extra_bytes):
        shift -= 6
        writer.write(0b10, 2)
        writer.write((payload >> max(shift, 0)) & 0x3F, 6)


def encode_utf8_varint(writer: BitWriter, value: int) -> None:
    """Encode a non-negative integer in (generalised) UTF-8 framing."""
    if value < 0:
        raise ValueError(f"UTF-8 varints are non-negative, got {value}")
    payload_bits = max(1, value.bit_length())
    extra = _utf8_frame_for(payload_bits)
    # Frames beyond 6 continuation bytes follow the same lead-byte
    # pattern; 8+ ones would overflow the lead byte, so cap the value.
    if extra + 2 > 8:
        raise InvalidCodeError(
            f"value {value} too large for UTF-8 framing ({payload_bits} bits)"
        )
    _write_utf8_frame(writer, value, extra)


def decode_utf8_varint(reader: BitReader) -> int:
    """Decode one UTF-8-framed integer."""
    first = reader.read(1)
    if first == 0:
        return reader.read(7)
    ones = 1
    while reader.read(1) == 1:
        ones += 1
    extra = ones - 1  # lead byte holds (extra + 1) ones then a zero
    if extra == 0 or extra + 2 > 8:
        raise EncodingError("malformed UTF-8 lead byte in label stream")
    lead_payload_bits = 8 - (extra + 2)
    value = reader.read(lead_payload_bits)
    for _ in range(extra):
        marker = reader.read(2)
        if marker != 0b10:
            raise EncodingError("malformed UTF-8 continuation byte")
        value = (value << 6) | reader.read(6)
    return value


def _encode_cdbs_in_utf8(writer: BitWriter, code: BitString) -> None:
    """A CDBS code left-aligned in the smallest UTF-8 frame."""
    if not code.ends_with_one():
        raise InvalidCodeError(
            f"CDBS component {code.to01()!r} must end with '1'"
        )
    extra = _utf8_frame_for(len(code))
    capacity = _utf8_frame_capacity(extra)
    _write_utf8_frame(writer, code.pad_right(capacity).value, extra)


def _decode_cdbs_in_utf8(reader: BitReader) -> BitString:
    # Re-read the frame as a varint, then recover the alignment: the
    # original code occupies the frame's high bits and ends with '1',
    # so stripping trailing zeros of the full-capacity view is exact.
    start = reader.position
    value = decode_utf8_varint(reader)
    frame_bits = reader.position - start
    extra = frame_bits // 8 - 1
    capacity = _utf8_frame_capacity(extra)
    code = BitString(value, capacity).strip_trailing_zeros()
    if not code:
        raise EncodingError("empty CDBS component in label stream")
    return code


def encode_ordpath_component(writer: BitWriter, value: int) -> None:
    """Encode one careted-ordinal component with the Li/Oi table."""
    for low, high, li, oi in ORDPATH_BUCKETS:
        if low <= value <= high:
            writer.write_bits_text(li)
            writer.write(value - low, oi)
            return
    raise InvalidCodeError(f"ordinal component {value} outside Li/Oi buckets")


_ORDPATH_BY_PREFIX = {li: (low, oi) for low, _, li, oi in ORDPATH_BUCKETS}
_ORDPATH_LONGEST_LI = max(len(li) for li in _ORDPATH_BY_PREFIX)


def decode_ordpath_component(reader: BitReader) -> int:
    prefix = ""
    while len(prefix) <= _ORDPATH_LONGEST_LI:
        prefix += str(reader.read(1))
        if prefix in _ORDPATH_BY_PREFIX:
            low, oi = _ORDPATH_BY_PREFIX[prefix]
            return low + reader.read(oi)
    raise EncodingError(f"unknown OrdPath Li prefix {prefix!r}")


_QED_SYMBOLS = {"1": 0b01, "2": 0b10, "3": 0b11}
_QED_REVERSE = {v: k for k, v in _QED_SYMBOLS.items()}


def _encode_qed(writer: BitWriter, code: str) -> None:
    for symbol in code:
        writer.write(_QED_SYMBOLS[symbol], 2)
    writer.write(0b00, 2)  # the separator symbol


def _decode_qed(reader: BitReader) -> str:
    symbols: list[str] = []
    while True:
        raw = reader.read(2)
        if raw == 0b00:
            return "".join(symbols)
        symbols.append(_QED_REVERSE[raw])


def _encode_varbytes_int(writer: BitWriter, value: int) -> None:
    """Length-prefixed big integer: 8-bit byte count, then the bytes."""
    raw = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    if len(raw) >= 1 << 8:
        raise InvalidCodeError("integer too large for the label stream")
    writer.write(len(raw), 8)
    for byte in raw:
        writer.write(byte, 8)


def _decode_varbytes_int(reader: BitReader) -> int:
    length = reader.read(8)
    value = 0
    for _ in range(length):
        value = (value << 8) | reader.read(8)
    return value


# ---------------------------------------------------------------------------
# Scheme-level codecs
# ---------------------------------------------------------------------------

class LabelStreamCodec:
    """Encodes/decodes one scheme's labels to/from a bit stream."""

    def __init__(
        self,
        write_label: Callable[[BitWriter, Any], None],
        read_label: Callable[[BitReader], Any],
    ) -> None:
        self._write_label = write_label
        self._read_label = read_label

    def encode(self, labels: list[Any]) -> bytes:
        writer = BitWriter()
        writer.write(len(labels), 32)
        for label in labels:
            self._write_label(writer, label)
        return writer.to_bytes()

    def decode(self, data: bytes) -> list[Any]:
        reader = BitReader(data)
        count = reader.read(32)
        return [self._read_label(reader) for _ in range(count)]


def _containment_codec(scheme: ContainmentScheme) -> LabelStreamCodec:
    codec = scheme.codec
    name = codec.name

    if name in ("v-binary", "gapped-integer"):
        field = codec._field_bits  # noqa: SLF001 - sibling module
        max_value_bits = (1 << field) - 1

        def write_value(writer: BitWriter, value: int) -> None:
            width = value.bit_length()
            if width > max_value_bits:
                raise InvalidCodeError(
                    f"value {value} exceeds the {field}-bit length field"
                )
            writer.write(width, field)
            writer.write(value, width)

        def read_value(reader: BitReader) -> int:
            return reader.read(reader.read(field))

    elif name == "f-binary":
        width = codec._width  # noqa: SLF001

        def write_value(writer: BitWriter, value: int) -> None:
            writer.write(value, width)

        def read_value(reader: BitReader) -> int:
            return reader.read(width)

    elif name == "float-point":
        import numpy as np  # only this codec needs it; keep it off other imports

        def write_value(writer: BitWriter, value) -> None:
            (packed,) = struct.unpack(">I", struct.pack(">f", float(value)))
            writer.write(packed, 32)

        def read_value(reader: BitReader):
            (value,) = struct.unpack(">f", struct.pack(">I", reader.read(32)))
            return np.float32(value)

    elif name == "v-cdbs":
        # The length prefix stores ``len - 1`` in the *analytical* field
        # of Example 4.2 (codes are never empty), so a bulk-encoded
        # document streams in exactly ``total_label_bits()`` bits — the
        # figure the paper's Figure 5 accounting reports.  Dynamic
        # inserts legally mint codes longer than the analytical field
        # describes (up to ``VCDBSCodec.max_code_bits``, byte-aligned
        # >= 8 bits), and a WAL record or post-churn bundle must carry
        # them: the all-ones prefix escapes to an explicit 16-bit
        # length.  Bulk lengths peak at ``2**field - 1``, below the
        # escape, so static streams never pay for the slack; both sides
        # derive ``field`` from persisted codec state, so encode and
        # decode agree across a save/load cycle.
        field = codec._field_bits  # noqa: SLF001
        escape = (1 << field) - 1

        def write_value(writer: BitWriter, value: BitString) -> None:
            length = len(value)
            if length < 1:
                raise InvalidCodeError("V-CDBS codes are never empty")
            if length - 1 < escape:
                writer.write(length - 1, field)
            elif length >= (1 << 16):
                raise InvalidCodeError(
                    f"{length}-bit code exceeds the escaped length field"
                )
            else:
                writer.write(escape, field)
                writer.write(length, 16)
            writer.write_bitstring(value)

        def read_value(reader: BitReader) -> BitString:
            prefix = reader.read(field)
            length = reader.read(16) if prefix == escape else prefix + 1
            return reader.read_bitstring(length)

    elif name == "f-cdbs":
        width = codec.width

        def write_value(writer: BitWriter, value: BitString) -> None:
            writer.write_bitstring(value)

        def read_value(reader: BitReader) -> BitString:
            return reader.read_bitstring(width)

    elif name == "qed":
        write_value = _encode_qed
        read_value = _decode_qed

    else:
        raise KeyError(f"no stream framing for containment codec {name!r}")

    def write_label(writer: BitWriter, label: ContainmentLabel) -> None:
        write_value(writer, label.start)
        write_value(writer, label.end)
        if not 0 <= label.level < 256:
            raise InvalidCodeError(f"level {label.level} exceeds one byte")
        writer.write(label.level, 8)

    def read_label(reader: BitReader) -> ContainmentLabel:
        start = read_value(reader)
        end = read_value(reader)
        level = reader.read(8)
        label = ContainmentLabel(start, end, level)
        label.start_key = codec.key(start)
        label.end_key = codec.key(end)
        return label

    return LabelStreamCodec(write_label, read_label)


def _prefix_codec(scheme: PrefixScheme) -> LabelStreamCodec:
    name = scheme.policy.name

    if name == "dewey-utf8":

        def write_component(writer: BitWriter, component: int) -> None:
            encode_utf8_varint(writer, component)

        def read_component(reader: BitReader) -> int:
            return decode_utf8_varint(reader)

    elif name == "ordpath":
        # Careted ordinals are self-delimiting: even components are
        # caret glue, the first odd component ends the ordinal (exactly
        # how ORDPATH's decoder determines prefix levels).
        def write_component(writer: BitWriter, component: tuple) -> None:
            for value in component:
                encode_ordpath_component(writer, value)

        def read_component(reader: BitReader) -> tuple:
            values: list[int] = []
            while True:
                value = decode_ordpath_component(reader)
                values.append(value)
                if value % 2 != 0:
                    return tuple(values)

    elif name == "binary-string":

        def write_component(writer: BitWriter, component: str) -> None:
            writer.write_bits_text(component)

        def read_component(reader: BitReader) -> str:
            symbols = []
            while True:
                bit = reader.read(1)
                symbols.append(str(bit))
                if bit == 0:
                    return "".join(symbols)

    elif name == "cdbs":
        write_component = _encode_cdbs_in_utf8
        read_component = _decode_cdbs_in_utf8

    elif name == "qed":
        write_component = _encode_qed
        read_component = _decode_qed

    else:
        raise KeyError(f"no stream framing for prefix policy {name!r}")

    def write_label(writer: BitWriter, label: tuple) -> None:
        if len(label) >= 256:
            raise InvalidCodeError("label depth exceeds 255 levels")
        writer.write(len(label), 8)
        for component in label:
            write_component(writer, component)

    def read_label(reader: BitReader) -> tuple:
        depth = reader.read(8)
        return tuple(read_component(reader) for _ in range(depth))

    return LabelStreamCodec(write_label, read_label)


def _prime_codec(scheme: PrimeScheme) -> LabelStreamCodec:
    def write_label(writer: BitWriter, label: PrimeLabel) -> None:
        _encode_varbytes_int(writer, label.product)
        _encode_varbytes_int(writer, label.self_label)

    def read_label(reader: BitReader) -> PrimeLabel:
        product = _decode_varbytes_int(reader)
        self_label = _decode_varbytes_int(reader)
        return PrimeLabel(product, self_label)

    return LabelStreamCodec(write_label, read_label)


def make_label_codec(scheme) -> LabelStreamCodec:
    """The stream codec matching a labeling scheme instance."""
    if isinstance(scheme, ContainmentScheme):
        return _containment_codec(scheme)
    if isinstance(scheme, PrefixScheme):
        return _prefix_codec(scheme)
    if isinstance(scheme, PrimeScheme):
        return _prime_codec(scheme)
    raise KeyError(f"no stream codec for scheme {scheme!r}")


def encode_labels(labeled: LabeledDocument) -> bytes:
    """Serialize a labeled document's labels, in document order."""
    codec = make_label_codec(labeled.scheme)
    labels = [labeled.label_of(node) for node in labeled.nodes_in_order]
    return codec.encode(labels)


def decode_labels(scheme, data: bytes) -> list[Any]:
    """Parse a label stream produced by :func:`encode_labels`.

    The scheme must be configured as at encode time (same widths), i.e.
    typically the instance that produced the labels or a fresh one that
    has bulk-labeled an equal-sized document.

    Note for Prime: decoded labels carry no SC group (order metadata
    lives in the separate SC file), so they support ancestor/parent
    tests but not order keys until regrouped.
    """
    return make_label_codec(scheme).decode(data)
