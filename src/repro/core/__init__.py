"""Core encodings: the paper's primary contribution.

* :mod:`repro.core.bitstring` — lexicographically ordered binary strings
  (Definition 3.1).
* :mod:`repro.core.middle` — Algorithm 1, ``AssignMiddleBinaryString``
  (Theorem 3.1, Corollary 3.3).
* :mod:`repro.core.cdbs` — Algorithm 2, the V-CDBS / F-CDBS encodings
  (Section 4) plus the V-Binary / F-Binary baselines.
* :mod:`repro.core.qed` — the quaternary QED encoding (Section 6), which
  completely avoids re-labeling.
* :mod:`repro.core.sizes` — the Section 4.2 size analysis.
* :mod:`repro.core.orderkeys` — Property 5.1 as a reusable order-key API.
* :mod:`repro.core.orderindex` — the blocked order-statistic sequence
  (document-order ranks, positional splices, weight prefix sums)
  backing the update hot path.
"""

from repro.core.bitstring import EMPTY, BitString
from repro.core.cdbs import (
    fbinary_encode,
    fcdbs_encode,
    max_code_bits,
    vbinary_encode,
    vcdbs_encode,
    vcdbs_position,
)
from repro.core.middle import (
    assign_middle_binary_string,
    assign_middle_pair,
    assign_middle_run,
)
from repro.core.orderindex import OrderStatisticTree
from repro.core.orderkeys import OrderKey, OrderKeyFactory
from repro.core.qed import (
    assign_middle_quaternary,
    assign_quaternary_pair,
    qed_code_bits,
    qed_encode,
    qed_stored_bits,
    validate_qed_code,
)

__all__ = [
    "BitString",
    "EMPTY",
    "assign_middle_binary_string",
    "assign_middle_pair",
    "assign_middle_run",
    "vcdbs_encode",
    "fcdbs_encode",
    "vbinary_encode",
    "fbinary_encode",
    "vcdbs_position",
    "max_code_bits",
    "assign_middle_quaternary",
    "assign_quaternary_pair",
    "qed_encode",
    "qed_code_bits",
    "qed_stored_bits",
    "validate_qed_code",
    "OrderKey",
    "OrderKeyFactory",
    "OrderStatisticTree",
]
