"""Per-layer metrics of a traced run, computed from the tracer's records.

Every ``*_ms`` / ``*_us`` metric is the *self* time of the named calls
(their duration minus the traced calls under them) in wall time, and
its ``_cpu`` twin is the same in CPU time of the calling thread.  Three
exceptions are inclusive, because their own frame does almost nothing
and the cost sits in what they call: ``wal.checkpoint_ms_*`` (the whole
checkpoint), ``wal.recover_load_ms`` (loading the newest bundle) and
``wal.recover_replay_ms`` (recovery minus that load).

Which calls count (``setup``, ``warm`` and ``timed`` are the phases of a
traced round; the untraced rounds record nothing):

* write-path metrics — calls on writer threads during the ``timed``
  phases;
* read-path metrics (``service.relationship``, ``snapshot.position_of``,
  ``query.*``) — calls on the client thread during ``timed`` and the
  ``final`` reads that every run makes;
* checkpoint and label-encoding metrics — ``setup`` (the checkpoint
  ``create_document`` writes) and ``timed``;
* ``parse_document`` / ``label_document`` — ``setup`` and ``restart``;
  ``decode_labels`` and ``wal.recover_*`` — ``restart``.

``BENCHMARK.json`` lists the metrics a traced run reports; :func:`compute`
gives every one of them except ``host.probe_ms``, which the harness
measures.
"""

from __future__ import annotations

import statistics

__all__ = ["compute", "split"]

WRITER = "repro-writer"

# Span tuple fields (see Tracer._span).
_NAME, _THREAD, _PHASE, _START, _END, _SELF, _SELF_CPU, _CPU, _PARENT = range(1, 10)
_INFO = 11

_READ_PHASES = ("timed", "final")


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _select(spans, name, phases, writer=None):
    """Spans of ``name`` in ``phases``; ``writer`` filters by thread kind."""
    return [
        span
        for span in spans
        if span[_NAME] == name
        and span[_PHASE] in phases
        and (writer is None or (span[_THREAD] == WRITER) == writer)
    ]


def _busy(tracer) -> float:
    """Writer busy seconds in the traced ``timed`` phases, all writers."""
    return sum(
        end - start
        for _, phase, start, end in tracer.busy_intervals
        if phase == "timed"
    )


def _self_times(out, key, spans, scale) -> None:
    """``key`` and ``key_cpu``: median self time of ``spans``."""
    out[key] = _p50([span[_SELF] for span in spans]) * scale
    out[key + "_cpu"] = _p50([span[_SELF_CPU] for span in spans]) * scale


def compute(tracer, *, rounds, overhead_ratio, disk_bytes, xml_bytes) -> dict:
    """Every per-layer metric of one traced run but ``host.probe_ms``.

    ``rounds`` describes each traced round: its ``timed_span``, its
    ``writers`` (``id`` -> document), its client's ``updates`` records
    and its ``writer_delta``.  ``overhead_ratio`` is the traced rounds'
    time over the untraced rounds' time for the same work.
    """
    spans = tracer.spans
    out: dict[str, float] = {}

    def writer_spans(name):
        return _select(spans, name, ("timed",), writer=True)

    acked = [
        record
        for traced in rounds
        for record in traced["updates"]
        if record[3] is not None
    ]

    # repro.service
    batches = writer_spans("service.apply_batch")
    waits = []
    for traced in rounds:
        # Versions start again in every round; the round's timed span and
        # writers tell its batches apart.
        start, end = traced["timed_span"]
        batch_start = {
            (traced["writers"].get(span[_INFO]["writer"]), span[_INFO]["version"]): span[
                _START
            ]
            for span in batches
            if start <= span[_START] <= end
        }
        for record in traced["updates"]:
            if record[3] is None:
                continue
            key = (record[0], record[3]["version"])
            if key in batch_start:
                waits.append(batch_start[key] - record[1])
    out["service.queue_wait_ms_p50"] = _p50(waits) * 1e3
    out["service.batch_size_mean"] = _mean([span[_INFO]["requests"] for span in batches])
    _self_times(out, "service.batch_self_ms_p50", batches, 1e3)
    _self_times(
        out,
        "service.relationship_us_p50",
        _select(spans, "service.relationship", _READ_PHASES, writer=False),
        1e6,
    )

    # repro.labeling.snapshot
    captures = writer_spans("snapshot.capture")
    _self_times(out, "snapshot.capture_ms_p50", captures, 1e3)
    busy = _busy(tracer)
    capture_wall = sum(span[_END] - span[_START] for span in captures)
    out["snapshot.capture_share"] = capture_wall / busy if busy else 0.0
    aggregates = tracer.aggregates()
    position_of = [
        totals
        for (name, phase, thread), totals in aggregates.items()
        if name == "snapshot.position_of" and phase in _READ_PHASES
    ]
    out["snapshot.position_of_ms_total"] = sum(t[1] for t in position_of) * 1e3
    out["snapshot.position_of_ms_total_cpu"] = sum(t[2] for t in position_of) * 1e3

    # repro.xmltree
    _self_times(
        out, "xmltree.serialize_ms_p50", writer_spans("xmltree.serialize_document"), 1e3
    )
    _self_times(
        out, "xmltree.parse_fragment_us_p50", writer_spans("xmltree.parse_fragment"), 1e6
    )
    _self_times(
        out,
        "xmltree.parse_document_ms",
        _select(spans, "xmltree.parse_document", ("setup", "restart")),
        1e3,
    )

    # repro.updates
    for kind in ("insert", "delete", "move"):
        _self_times(out, f"updates.{kind}_us_p50", writer_spans(f"updates.{kind}"), 1e6)
    _self_times(
        out, "updates.txn_commit_us_p50", writer_spans("updates.txn_commit"), 1e6
    )

    # repro.labeling
    for kind in ("insert", "delete"):
        _self_times(
            out, f"labeling.{kind}_us_p50", writer_spans(f"labeling.{kind}"), 1e6
        )
    out["labeling.relabeled_nodes"] = sum(
        record[3]["relabeled_nodes"] for record in acked
    )
    _self_times(
        out,
        "labeling.label_document_ms",
        _select(spans, "labeling.label_document", ("setup", "restart")),
        1e3,
    )

    # repro.core.orderindex
    order_calls = [
        totals
        for (name, phase, thread), totals in aggregates.items()
        if name.startswith("orderindex.") and phase == "timed" and thread == WRITER
    ]
    count = len(acked) or 1
    out["orderindex.calls_per_update"] = sum(t[0] for t in order_calls) / count
    out["orderindex.us_per_update"] = sum(t[1] for t in order_calls) / count * 1e6
    out["orderindex.us_per_update_cpu"] = sum(t[2] for t in order_calls) / count * 1e6

    # repro.storage
    _self_times(
        out, "storage.apply_update_us_p50", writer_spans("storage.apply_update"), 1e6
    )
    out["storage.modeled_io_s"] = sum(record[3]["io_seconds"] for record in acked)
    _self_times(
        out,
        "storage.encode_labels_ms_p50",
        _select(spans, "storage.encode_labels", ("setup", "timed")),
        1e3,
    )
    _self_times(
        out,
        "storage.decode_labels_ms",
        _select(spans, "storage.decode_labels", ("restart",)),
        1e3,
    )

    # repro.wal
    commits = writer_spans("wal.commit")
    _self_times(out, "wal.commit_us_p50", commits, 1e6)
    _self_times(out, "wal.fsync_ms_p50", writer_spans("wal.end_batch"), 1e3)
    fsyncs = sum(traced["writer_delta"]["fsyncs"] for traced in rounds)
    commits_acked = sum(traced["writer_delta"]["commits"] for traced in rounds)
    out["wal.fsyncs_per_commit"] = fsyncs / commits_acked if commits_acked else 0.0
    out["wal.bytes_per_commit"] = _mean(
        [span[_INFO]["frame_bytes"] for span in commits if "frame_bytes" in span[_INFO]]
    )
    out["wal.checkpoints"] = len(writer_spans("wal.checkpoint"))
    checkpoints = _select(spans, "wal.checkpoint", ("setup", "timed"))
    durations = [span[_END] - span[_START] for span in checkpoints]
    out["wal.checkpoint_ms_p50"] = _p50(durations) * 1e3
    out["wal.checkpoint_ms_p50_cpu"] = _p50([span[_CPU] for span in checkpoints]) * 1e3
    out["wal.checkpoint_ms_max"] = max(durations, default=0.0) * 1e3
    out["wal.checkpoint_bytes"] = _mean(
        [
            span[_INFO]["bundle_bytes"]
            for span in checkpoints
            if "bundle_bytes" in span[_INFO]
        ]
    )
    out["wal.disk_bytes_per_xml_byte"] = disk_bytes / xml_bytes if xml_bytes else 0.0
    recovers = _select(spans, "wal.recover", ("restart",))
    loads = {
        span[_PARENT]: span for span in _select(spans, "storage.load_labeled", ("restart",))
    }
    load_wall, load_cpu, replay_wall, replay_cpu = [], [], [], []
    for span in recovers:
        load = loads.get(span[0])
        if load is None:
            continue
        load_wall.append(load[_END] - load[_START])
        load_cpu.append(load[_CPU])
        replay_wall.append((span[_END] - span[_START]) - (load[_END] - load[_START]))
        replay_cpu.append(span[_CPU] - load[_CPU])
    out["wal.recover_load_ms"] = _p50(load_wall) * 1e3
    out["wal.recover_load_ms_cpu"] = _p50(load_cpu) * 1e3
    out["wal.recover_replay_ms"] = _p50(replay_wall) * 1e3
    out["wal.recover_replay_ms_cpu"] = _p50(replay_cpu) * 1e3

    # repro.query
    from repro.query import TABLE3_QUERIES

    evaluations = _select(spans, "query.evaluate", _READ_PHASES, writer=False)
    for query_id, query in TABLE3_QUERIES.items():
        matching = [span for span in evaluations if span[_INFO]["query"] == query]
        _self_times(out, f"query.{query_id}_ms_p50", matching, 1e3)
    out["query.scan_bytes_mean"] = _mean(
        [span[_INFO]["scan_bytes"] for span in evaluations if "scan_bytes" in span[_INFO]]
    )

    # the trace itself
    unattributed = split(tracer)["writer"]["unattributed"]
    out["trace.unattributed_share"] = unattributed / busy if busy else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def split(tracer) -> dict:
    """Self time per layer in the traced rounds' ``timed`` phases, by thread kind.

    Returns ``{"writer": {layer: seconds}, "client": {layer: seconds},
    "writer_busy_s": seconds}``; a layer is the span name up to its
    first dot (``xmltree.serialize_document`` -> ``xmltree``).  Writer
    busy time minus the writer's layers is ``unattributed``.
    """
    totals = {"writer": {}, "client": {}}
    for span in tracer.spans:
        if span[_PHASE] != "timed":
            continue
        side = totals["writer" if span[_THREAD] == WRITER else "client"]
        layer = span[_NAME].split(".", 1)[0]
        side[layer] = side.get(layer, 0.0) + span[_SELF]
    for (name, phase, thread), (_, wall, _) in tracer.aggregates().items():
        if phase != "timed":
            continue
        side = totals["writer" if thread == WRITER else "client"]
        layer = name.split(".", 1)[0]
        side[layer] = side.get(layer, 0.0) + wall
    busy = _busy(tracer)
    totals["writer"]["unattributed"] = busy - sum(totals["writer"].values())
    totals["writer_busy_s"] = busy
    return totals
