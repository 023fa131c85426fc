"""Interval codecs: the value types behind containment labeling.

A containment label is ``(start, end, level)`` (Zhang et al., Section
2.1).  The paper's Property 5.1 insight is that the *value domain* of
``start``/``end`` is pluggable: consecutive integers (V/F-Binary),
float-point values (Amagasa et al.), CDBS binary strings, or QED
quaternary strings.  An :class:`IntervalCodec` captures that domain:
bulk generation of ``count`` ordered values, insertion of fresh values
into a gap (or a :class:`~repro.errors.RelabelRequired` signal), storage
size accounting, and a sort key.

The codecs deliberately reproduce each approach's failure mode:

* integer codecs always require re-labeling on insertion (no gaps);
* the float codec bisects in 32-bit precision and raises
  :class:`PrecisionExhausted` after ~20 skewed insertions — the paper's
  "at most 18 nodes can be inserted at a fixed place" observation;
* V-CDBS raises :class:`LengthFieldOverflow` once a code outgrows its
  fixed-width length field (Section 6); F-CDBS overflows its global
  width the same way;
* QED never raises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.core import bitstring as _bitstring
from repro.core.bitstring import BitString
from repro.core.cdbs import vcdbs_encode
from repro.core.middle import assign_middle_binary_string
from repro.core.qed import assign_middle_quaternary, qed_encode, qed_stored_bits
from repro.errors import PrecisionExhausted, RelabelRequired

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntervalCodec",
    "VBinaryCodec",
    "FBinaryCodec",
    "GappedIntegerCodec",
    "FloatPointCodec",
    "VCDBSCodec",
    "FCDBSCodec",
    "QEDCodec",
]


class IntervalCodec(ABC):
    """Value domain for containment ``start``/``end`` values."""

    name: str = "abstract"
    dynamic: bool = False

    @abstractmethod
    def bulk(self, count: int) -> list[Any]:
        """``count`` ordered values for an initial labeling pass."""

    @abstractmethod
    def between(self, left: Any, right: Any) -> Any:
        """A fresh value in the open gap ``(left, right)``.

        ``None`` endpoints mean the gap is unbounded on that side.
        Raises :class:`RelabelRequired` (or a subclass) when the domain
        cannot supply one.
        """

    def between_run(self, left: Any, right: Any, count: int) -> list[Any]:
        """``count`` fresh ordered values in the gap ``(left, right)``.

        Balanced bisection (midpoint first, then both halves — the visit
        order of Algorithm 2), so dynamic codes grow O(log count) bits
        instead of the O(count) a left-to-right chain would cost.  The
        default runs one :meth:`between` call per value; codecs with a
        batch kernel override it wholesale.  Any
        :class:`~repro.errors.RelabelRequired` propagates.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        values: list[Any] = [None] * count

        def value_at(position: int) -> Any:
            if position == 0:
                return left
            if position == count + 1:
                return right
            return values[position - 1]

        stack: list[tuple[int, int]] = [(0, count + 1)]
        while stack:
            lo, hi = stack.pop()
            if lo + 1 >= hi:
                continue
            mid = (lo + hi + 1) // 2
            values[mid - 1] = self.between(value_at(lo), value_at(hi))
            stack.append((lo, mid))
            stack.append((mid, hi))
        return values

    @abstractmethod
    def bits(self, value: Any) -> int:
        """Storage bits of one value."""

    def key(self, value: Any) -> Any:
        """Sort key; defaults to the value itself."""
        return value

    def tail_bits_modified(self) -> int:
        """Bits of the neighbor value edited to mint an inserted value.

        Section 7.4: V-CDBS modifies 1 bit, QED 2 bits; numeric codecs
        rewrite whole values (their full width).
        """
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class VBinaryCodec(IntervalCodec):
    """Consecutive integers stored as variable-length binary (V-Binary).

    Each stored value carries a fixed-width length field sized for the
    initial population (Example 4.2 of the paper).
    """

    name = "v-binary"
    dynamic = False

    def __init__(self) -> None:
        self._field_bits = 1

    def bulk(self, count: int) -> list[int]:
        self._field_bits = max(1, count.bit_length().bit_length())
        return list(range(1, count + 1))

    def between(self, left: int | None, right: int | None) -> int:
        left_value = 0 if left is None else left
        if right is None:
            return left_value + 1
        if right - left_value >= 2:
            return (left_value + right + 1) // 2
        raise RelabelRequired(
            f"no integer exists strictly between {left_value} and {right}"
        )

    def bits(self, value: int) -> int:
        return value.bit_length() + self._field_bits

    def tail_bits_modified(self) -> int:
        return max(1, self._field_bits)


class FBinaryCodec(VBinaryCodec):
    """Consecutive integers stored at a fixed width (F-Binary).

    The width is byte-aligned, as an implementation storing fixed-size
    label fields would lay them out; F-CDBS uses the same alignment so
    the paper's "F-CDBS has the same label size as F-Binary" holds
    bit-for-bit.
    """

    name = "f-binary"
    dynamic = False

    def __init__(self) -> None:
        super().__init__()
        self._width = 8

    def bulk(self, count: int) -> list[int]:
        self._width = 8 * -(-max(1, count.bit_length()) // 8)
        self._field_bits = 0
        return list(range(1, count + 1))

    def bits(self, value: int) -> int:
        return self._width

    def tail_bits_modified(self) -> int:
        return self._width


class GappedIntegerCodec(IntervalCodec):
    """Integers with reserved gaps (Li & Moon, the paper's [11]).

    Section 2.1: "This problem may be alleviated if the interval size is
    increased with some values unused. However, large interval size
    wastes a lot of numbers which causes the increase of storage, while
    small interval size is easy to lead to re-labeling."  This codec
    makes that trade-off concrete: initial values are ``gap, 2·gap, …``,
    insertion bisects the remaining integer gap, and a full gap raises
    :class:`RelabelRequired`.  Experiment E11 sweeps ``gap`` to chart
    storage vs. re-label frequency against CDBS (which needs no gaps at
    all).
    """

    name = "gapped-integer"
    dynamic = True

    def __init__(self, gap: int = 16) -> None:
        if gap < 1:
            raise ValueError(f"gap must be positive, got {gap}")
        self.gap = gap
        self._field_bits = 1

    def bulk(self, count: int) -> list[int]:
        top = count * self.gap
        self._field_bits = max(1, top.bit_length().bit_length())
        return list(range(self.gap, top + 1, self.gap))

    def between(self, left: int | None, right: int | None) -> int:
        left_value = 0 if left is None else left
        if right is None:
            return left_value + self.gap
        if right - left_value >= 2:
            return (left_value + right + 1) // 2
        raise RelabelRequired(
            f"integer gap between {left_value} and {right} exhausted "
            f"(initial spacing {self.gap})"
        )

    def bits(self, value: int) -> int:
        return value.bit_length() + self._field_bits

    def tail_bits_modified(self) -> int:
        return max(1, self._field_bits)


class FloatPointCodec(IntervalCodec):
    """Float-point values à la QRS (Amagasa et al., reference [2]).

    Initial values are consecutive integers held in IEEE-754 *single*
    precision; insertion takes the midpoint.  Because the mantissa is
    finite, repeated insertion at one spot exhausts the gap quickly —
    the paper notes ~18 insertions for integer-seeded labels — raising
    :class:`PrecisionExhausted`, upon which the containment scheme
    re-labels.
    """

    name = "float-point"
    dynamic = True

    def bulk(self, count: int) -> list[np.float32]:
        import numpy as np  # only this codec needs it; keep it off other imports

        return [np.float32(i) for i in range(1, count + 1)]

    def between(
        self, left: np.float32 | None, right: np.float32 | None
    ) -> np.float32:
        import numpy as np

        left_value = np.float32(0.0) if left is None else left
        if right is None:
            return np.float32(left_value + np.float32(1.0))
        middle = np.float32(
            (np.float64(left_value) + np.float64(right)) / 2.0
        )
        if middle <= left_value or middle >= right:
            raise PrecisionExhausted(float(left_value), float(right))
        return middle

    def bits(self, value: np.float32) -> int:
        return 32

    def key(self, value: np.float32) -> float:
        return float(value)

    def tail_bits_modified(self) -> int:
        return 32


class VCDBSCodec(IntervalCodec):
    """V-CDBS binary strings (the paper's Section 4 encoding).

    Size accounting uses the paper's analytical length field of
    ``ceil(log2(ceil(log2 N) + 1))`` bits per code (Example 4.2), which
    keeps V-CDBS exactly as compact as V-Binary.  The *overflow*
    capacity, however, follows a practical byte-aligned length field
    (at least 8 bits, i.e. codes up to 255 bits): Table 4 observes no
    overflow for single insertions into a 6636-node document, which only
    holds with that slack; a tighter ``field_bits`` can be injected to
    study Section 6's overflow behaviour directly (experiment E8).
    Codes longer than the capacity raise :class:`LengthFieldOverflow`.
    """

    name = "v-cdbs"
    dynamic = True

    def __init__(self, *, field_bits: int | None = None) -> None:
        self._configured_field_bits = field_bits
        self._field_bits = field_bits if field_bits is not None else 1

    @property
    def field_bits(self) -> int:
        return self._field_bits

    @property
    def max_code_bits(self) -> int:
        if self._configured_field_bits is not None:
            return (1 << self._configured_field_bits) - 1
        return (1 << max(8, self._field_bits)) - 1

    def bulk(self, count: int) -> list[BitString]:
        if self._configured_field_bits is None:
            self._field_bits = max(1, count.bit_length().bit_length())
        return vcdbs_encode(count)

    def between(
        self, left: BitString | None, right: BitString | None
    ) -> BitString:
        from repro.core.bitstring import EMPTY
        from repro.errors import LengthFieldOverflow

        code = assign_middle_binary_string(
            EMPTY if left is None else left,
            EMPTY if right is None else right,
        )
        if len(code) > self.max_code_bits:
            raise LengthFieldOverflow(len(code), self.max_code_bits)
        return code

    def between_run(
        self, left: BitString | None, right: BitString | None, count: int
    ) -> list[BitString]:
        from repro.core.bitstring import EMPTY

        # A replaced `between` (instance monkeypatch or subclass
        # override) must keep governing run minting, so only the
        # pristine method takes the batch kernel.
        if "between" in self.__dict__ or type(self).between is not VCDBSCodec.between:
            return IntervalCodec.between_run(self, left, right, count)
        # The packed batch kernel: same bisection visit order, fault-site
        # hits, ledger charges, and first-overflow semantics as the
        # equivalent chain of `between` calls, minus the per-call object
        # churn.
        return _bitstring.encode_run(
            count,
            EMPTY if left is None else left,
            EMPTY if right is None else right,
            max_code_bits=self.max_code_bits,
        )

    def bits(self, value: BitString) -> int:
        return len(value) + self._field_bits

    def key(self, value: BitString) -> str:
        # The '0'/'1' text compares at C speed and realises exactly the
        # lexicographical order — the paper's "directly compare labels
        # from left to right".
        return value.to01()

    def tail_bits_modified(self) -> int:
        # Case (1) of Algorithm 1 appends a single "1" to the neighbor's
        # code; case (2) rewrites one bit into two.  Either way one bit
        # of the neighbor label is what the new label differs by.
        return 1


class FCDBSCodec(IntervalCodec):
    """F-CDBS: V-CDBS codes right-padded to a single global width.

    The width is byte-aligned, matching :class:`FBinaryCodec` (so the
    two report identical Figure 5 sizes) and leaving the slack that lets
    Table 4's single insertions land without overflow.  Insertion strips
    trailing zeros, applies Algorithm 1, and re-pads; when the middle
    code no longer fits the global width the codec raises
    :class:`LengthFieldOverflow` and the scheme re-labels at a wider
    width.
    """

    name = "f-cdbs"
    dynamic = True

    def __init__(self) -> None:
        self._width = 8

    @property
    def width(self) -> int:
        return self._width

    def bulk(self, count: int) -> list[BitString]:
        self._width = 8 * -(-max(1, count.bit_length()) // 8)
        return [code.pad_right(self._width) for code in vcdbs_encode(count)]

    def between(
        self, left: BitString | None, right: BitString | None
    ) -> BitString:
        from repro.core.bitstring import EMPTY
        from repro.errors import LengthFieldOverflow

        left_code = EMPTY if left is None else left.strip_trailing_zeros()
        right_code = EMPTY if right is None else right.strip_trailing_zeros()
        code = assign_middle_binary_string(left_code, right_code)
        if len(code) > self._width:
            raise LengthFieldOverflow(len(code), self._width)
        return code.pad_right(self._width)

    def between_run(
        self, left: BitString | None, right: BitString | None, count: int
    ) -> list[BitString]:
        from repro.core.bitstring import EMPTY

        if "between" in self.__dict__ or type(self).between is not FCDBSCodec.between:
            return IntervalCodec.between_run(self, left, right, count)
        # Stripping the endpoints once is equivalent to the sequential
        # chain stripping per call: every minted code ends with "1", so
        # strip(pad(code)) == code and the bisection sees the same
        # unpadded gap throughout.  Ledger charges count unpadded bits,
        # exactly as `between` does.
        width = self._width
        codes = _bitstring.encode_run(
            count,
            EMPTY if left is None else left.strip_trailing_zeros(),
            EMPTY if right is None else right.strip_trailing_zeros(),
            max_code_bits=width,
        )
        return [code.pad_right(width) for code in codes]

    def bits(self, value: BitString) -> int:
        return self._width

    def key(self, value: BitString) -> str:
        return value.to01()

    def tail_bits_modified(self) -> int:
        return 1


class QEDCodec(IntervalCodec):
    """QED quaternary strings (Section 6) — never re-labels."""

    name = "qed"
    dynamic = True

    def bulk(self, count: int) -> list[str]:
        return qed_encode(count)

    def between(self, left: str | None, right: str | None) -> str:
        return assign_middle_quaternary(left or "", right or "")

    def bits(self, value: str) -> int:
        return qed_stored_bits(value)

    def tail_bits_modified(self) -> int:
        # QED edits the final quaternary symbol — two bits (Section 7.4).
        return 2
