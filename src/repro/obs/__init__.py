"""repro.obs — zero-dependency observability for the repro codebase.

Three pieces (ISSUE 3 tentpole):

* metrics — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  in a process-local :class:`Registry`;
* spans — ``with OBS.span("update.insert", op="insert"): ...`` nested
  timing with tag propagation; all wall-clock timing in ``src/`` flows
  through spans (enforced by analysis rule RPR006);
* :class:`CostLedger` — the paper's cost units (labels compared,
  middle-string bits, pages read/written, nodes re-labeled, SC groups
  re-solved) attributed to the operation that incurred them via the
  active span's ``op`` tag.

``OBS`` is the module-level registry every instrumented module uses.
It starts **disabled**; hot paths pay one attribute check per hook
(see :func:`no_overhead_when_disabled`, verified by
``python -m repro.obs overhead``).  Enable around a region of interest
with ``with OBS.capture(): ...`` and read ``OBS.snapshot()`` after.

Layering: ``obs`` sits below ``core`` — it may import only
``repro.errors`` (currently: nothing but the stdlib).
"""

from repro.obs.ledger import COST_UNITS, UNATTRIBUTED, CostLedger
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.registry import (
    DISABLED_SAFE_HOOKS,
    Registry,
    Span,
    no_overhead_when_disabled,
)

__all__ = [
    "OBS",
    "Registry",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "CostLedger",
    "COST_UNITS",
    "UNATTRIBUTED",
    "DISABLED_SAFE_HOOKS",
    "no_overhead_when_disabled",
]

#: The process-local registry all instrumented modules share.  Never
#: rebind this name — call ``OBS.reset()`` for isolation instead, so
#: modules that imported it keep observing the same object.
OBS = Registry("default")
