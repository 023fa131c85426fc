"""The concurrent document service: many clients, many documents.

ROADMAP item 1.  One process serves N documents to M clients with the
durability and atomicity guarantees the lower layers already prove, by
composing three mechanisms:

* **Single writer per document** — every update is enqueued on the
  document's commit queue and applied by its one writer thread
  (:mod:`repro.service.writer`); the pure engine/labeling core never
  sees concurrent mutation.
* **Group commit** — the writer drains the queue in batches through
  :meth:`repro.updates.UpdateEngine.commit_group`, coalescing the
  batch's WAL records into a single ``flush`` + ``os.fsync`` and
  acknowledging each commit only after that batch fsync returned.
  Amortized ``wal.fsyncs/commit`` drops below 1 as soon as clients
  overlap — the dominant durability cost in ``BENCH_updates.json``
  amortized away.
* **MVCC snapshot reads** — after each batch the writer publishes a
  :class:`repro.labeling.LabelView` (one atomic reference swap);
  every read endpoint serves the last *committed* version and never
  blocks on, or observes, an in-flight batch.

Layering (modeled on an api/backend/core split): the stdlib HTTP front
end (:mod:`repro.service.http`) parses and routes only, delegating to
:class:`DocumentService` (:mod:`repro.service.core`), which owns the
registry of per-document handles and is equally usable in-process (the
throughput bench drives it directly).  See ``DESIGN.md`` §11 and
``docs/ROBUSTNESS.md`` for the ack/durability contract and the crash
matrix extension (``make crash`` kills the writer mid-batch).

``make_server`` and ``serve`` are resolved on first use, so an
in-process user never loads the HTTP stack (``http.server``, ``ssl``,
``email`` and the rest).
"""

from repro.service.core import DocumentService, ServiceConfig
from repro.service.registry import DocumentHandle, DocumentRegistry
from repro.service.writer import DocumentWriter, UpdateRequest

__all__ = [
    "DocumentService",
    "ServiceConfig",
    "DocumentHandle",
    "DocumentRegistry",
    "DocumentWriter",
    "UpdateRequest",
    "make_server",
    "serve",
]


def __getattr__(name: str):
    if name in ("make_server", "serve"):
        from repro.service import http

        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
