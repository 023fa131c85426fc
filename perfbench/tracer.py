"""Span tracing from outside the program: wrap each layer's entry points.

The traced run replaces each public entry point named in
:data:`SPAN_POINTS` and :data:`LEAF_POINTS` *where its caller looks it
up* (a class attribute, or the module global the calling module
imported), records how long each call took, and puts every original
back on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes.

Two kinds of call are recorded:

* a **span** (name, thread, start, end, parent span, batch, and a few
  public return values) for every call of a :data:`SPAN_POINTS` entry;
* an **aggregate** (count, wall, CPU) per name, thread and phase for the
  :data:`LEAF_POINTS` entries, which fire thousands of times per batch
  (the order index) or once per query match (``position_of``); keeping
  a record per call would cost more memory than the document.

Both kinds subtract their own time from their parent's, so every
layer's *self* time is its duration minus the time of the traced calls
made under it, in wall time (``time.perf_counter``) and in CPU time of
the calling thread (``time.thread_time``).  Wall minus CPU is the time
the call waited on I/O or the GIL.

The writer's commit queue is swapped for :class:`TimedQueue`, which
records when each writer thread blocks waiting for work.  A writer is
busy from the moment a blocking ``get`` returns until it calls the next
one; busy time minus the self times of the traced calls on that thread
is the time no traced layer accounts for.
"""

from __future__ import annotations

import functools
import itertools
import json
import queue
import threading
import time
import types

__all__ = ["Tracer", "TimedQueue", "SPAN_POINTS", "LEAF_POINTS"]

_now = time.perf_counter
_cpu = time.thread_time

#: (module, class or None, attribute, span name).
SPAN_POINTS = (
    ("repro.service.writer", "DocumentWriter", "apply_batch", "service.apply_batch"),
    ("repro.service.writer", None, "capture", "snapshot.capture"),
    ("repro.service.writer", None, "parse_fragment", "xmltree.parse_fragment"),
    ("repro.service.writer", None, "wal_recover", "wal.recover"),
    ("repro.service.registry", None, "parse_document", "xmltree.parse_document"),
    ("repro.labeling.snapshot", None, "serialize_document", "xmltree.serialize_document"),
    ("repro.updates.engine", "UpdateEngine", "insert_before", "updates.insert"),
    ("repro.updates.engine", "UpdateEngine", "insert_after", "updates.insert"),
    ("repro.updates.engine", "UpdateEngine", "insert_child", "updates.insert"),
    ("repro.updates.engine", "UpdateEngine", "delete", "updates.delete"),
    ("repro.updates.engine", "UpdateEngine", "move_before", "updates.move"),
    ("repro.updates.txn", "Transaction", "__exit__", "updates.txn_commit"),
    ("repro.storage.labelstore", "LabelStore", "apply_update", "storage.apply_update"),
    ("repro.storage.labelfile", None, "encode_labels", "storage.encode_labels"),
    ("repro.storage.labelfile", None, "decode_labels", "storage.decode_labels"),
    ("repro.storage.labelfile", None, "parse_document", "xmltree.parse_document"),
    ("repro.storage.labelfile", None, "serialize_document", "xmltree.serialize_document"),
    ("repro.wal.writer", None, "save_labeled", "storage.save_labeled"),
    ("repro.wal.recovery", None, "load_labeled", "storage.load_labeled"),
    ("repro.wal.recovery", None, "parse_fragment", "xmltree.parse_fragment"),
    ("repro.wal.writer", "WalManager", "commit", "wal.commit"),
    ("repro.wal.writer", "WalManager", "end_batch", "wal.end_batch"),
    ("repro.wal.writer", "WalManager", "checkpoint", "wal.checkpoint"),
    ("repro.wal", None, "recover", "wal.recover"),
    ("repro.query.evaluator", "QueryEngine", "evaluate", "query.evaluate"),
)

#: Entry points recorded as per-thread aggregates only.
LEAF_POINTS = (
    ("repro.core.orderindex", "OrderStatisticTree", "position", "orderindex.position"),
    ("repro.core.orderindex", "OrderStatisticTree", "insert_run", "orderindex.insert_run"),
    ("repro.core.orderindex", "OrderStatisticTree", "delete_run", "orderindex.delete_run"),
    ("repro.core.orderindex", "OrderStatisticTree", "__getitem__", "orderindex.getitem"),
    ("repro.labeling.snapshot", "LabelView", "position_of", "snapshot.position_of"),
)

#: Scheme methods, wrapped on the concrete class of each scheme in use.
SCHEME_POINTS = (
    ("insert_subtree", "labeling.insert"),
    ("delete_subtree", "labeling.delete"),
    ("label_document", "labeling.label_document"),
)


def _writer_thread() -> bool:
    return threading.current_thread().name == "repro-writer"


class TimedQueue(queue.Queue):
    """The writer's commit queue, recording when writer threads wait.

    Installed before documents are created (each writer builds its
    queue once, at construction) and left in place for the writer's
    life; it only reads the clock around blocking ``get`` calls.
    """

    tracer: "Tracer | None" = None

    def get(self, block=True, timeout=None):
        tracer = self.tracer
        if not block or tracer is None or not _writer_thread():
            return super().get(block, timeout)
        tracer.writer_idle_begins()
        try:
            return super().get(block, timeout)
        finally:
            tracer.writer_idle_ends()


class _Frame:
    __slots__ = ("span_id", "child_wall", "child_cpu", "batch")

    def __init__(self, span_id, batch):
        self.span_id = span_id
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.batch = batch


class Tracer:
    """Installs the wrappers and keeps every record in memory."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggregates: list[dict] = []
        self._busy: list[tuple] = []
        self._patches: list[tuple] = []
        self._queue_patch = None

    # -- per-thread state --------------------------------------------------

    def _stack(self) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.aggregate = {}
            local.name = threading.current_thread().name
            self._aggregates.append((local.name, local.aggregate))
        return stack

    def writer_idle_begins(self) -> None:
        local = self._local
        started = getattr(local, "busy_since", None)
        if started is not None:
            self._busy.append((threading.get_ident(), local.busy_phase, started, _now()))
            local.busy_since = None

    def writer_idle_ends(self) -> None:
        self._local.busy_since = _now()
        self._local.busy_phase = self.phase

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, function, extra=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            if name == "service.apply_batch":
                batch = span_id
            else:
                batch = None if parent is None else parent.batch
            frame = _Frame(span_id, batch)
            stack.append(frame)
            phase = tracer.phase
            result = _FAILED
            start_cpu = _cpu()
            start = _now()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = _now()
                end_cpu = _cpu()
                stack.pop()
                wall = end - start
                cpu = end_cpu - start_cpu
                if parent is not None:
                    parent.child_wall += wall
                    parent.child_cpu += cpu
                info = None
                if extra is not None:
                    info = extra(args, result)
                tracer.spans.append(
                    (
                        span_id,
                        name,
                        tracer._local.name,
                        phase,
                        start,
                        end,
                        wall - frame.child_wall,
                        cpu - frame.child_cpu,
                        cpu,
                        None if parent is None else parent.span_id,
                        batch,
                        info,
                    )
                )

        return traced

    def wrap(self, name, function):
        """Trace calls the benchmark itself makes (client-side spans)."""
        return self._span(name, function, _EXTRAS.get(name))

    def _leaf(self, name, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            start_cpu = _cpu()
            start = _now()
            try:
                return function(*args, **kwargs)
            finally:
                wall = _now() - start
                cpu = _cpu() - start_cpu
                if stack:
                    stack[-1].child_wall += wall
                    stack[-1].child_cpu += cpu
                key = (name, tracer.phase)
                entry = tracer._local.aggregate.get(key)
                if entry is None:
                    entry = tracer._local.aggregate[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += wall
                entry[2] += cpu

        return traced

    # -- install / uninstall ----------------------------------------------

    def install_queue(self) -> None:
        """Give writers built from now on a :class:`TimedQueue`."""
        import repro.service.writer as writer_module

        bound = type("TimedQueue", (TimedQueue,), {"tracer": self})
        shim = types.SimpleNamespace(Queue=bound, Empty=queue.Empty)
        self._queue_patch = (writer_module, writer_module.queue)
        writer_module.queue = shim

    def uninstall_queue(self) -> None:
        if self._queue_patch is not None:
            module, original = self._queue_patch
            module.queue = original
            self._queue_patch = None

    def install(self, scheme_names) -> None:
        """Wrap every entry point and start recording."""
        import importlib

        from repro.labeling import make_scheme

        for module_name, class_name, attribute, name in SPAN_POINTS + LEAF_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            leaf = (module_name, class_name, attribute, name) in LEAF_POINTS
            self._patch(owner, attribute, name, leaf)
        for scheme_name in scheme_names:
            owner = type(make_scheme(scheme_name))
            for attribute, name in SCHEME_POINTS:
                self._patch(owner, attribute, name, False)
        self.enabled = True

    def _patch(self, owner, attribute, name, leaf) -> None:
        if any(o is owner and a == attribute for o, a, _ in self._patches):
            return
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        if leaf:
            wrapper = self._leaf(name, original)
        else:
            wrapper = self._span(name, original, _EXTRAS.get(name))
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original if had_own else None))

    def uninstall(self) -> None:
        """Put every original back (in reverse order of wrapping)."""
        self.enabled = False
        for owner, attribute, original in reversed(self._patches):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def aggregates(self) -> "dict[tuple, list]":
        """Leaf totals keyed by (name, phase, thread name)."""
        merged: dict[tuple, list] = {}
        for thread, table in self._aggregates:
            for (name, phase), (count, wall, cpu) in table.items():
                entry = merged.setdefault((name, phase, thread), [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += wall
                entry[2] += cpu
        return merged

    @property
    def busy_intervals(self) -> "list[tuple]":
        """(thread id, phase, start, end) of every writer busy stretch."""
        return list(self._busy)

    def write(self, path) -> None:
        """Write every span and aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                (span_id, name, thread, phase, start, end, self_wall, self_cpu,
                 cpu, parent, batch, extra) = span
                out.write(json.dumps({
                    "type": "span", "id": span_id, "name": name,
                    "thread": thread, "phase": phase, "start": start,
                    "end": end, "self_s": self_wall, "self_cpu_s": self_cpu,
                    "cpu_s": cpu, "parent": parent, "batch": batch,
                    "extra": extra,
                }) + "\n")
            for (name, phase, kind), (count, wall, cpu) in sorted(
                self.aggregates().items()
            ):
                out.write(json.dumps({
                    "type": "aggregate", "name": name, "phase": phase,
                    "thread": kind, "count": count, "self_s": wall,
                    "self_cpu_s": cpu,
                }) + "\n")
            for thread, phase, start, end in self._busy:
                out.write(json.dumps({
                    "type": "writer_busy", "thread": thread,
                    "phase": phase, "start": start, "end": end,
                }) + "\n")


_FAILED = object()


def _apply_batch_extra(args, result):
    writer, requests = args[0], args[1]
    return {
        "writer": id(writer),
        "requests": len(requests),
        "version": writer.acked_version,
    }


def _query_extra(args, result):
    query = args[1]
    info = {"query": query if isinstance(query, str) else repr(query)}
    if result is not _FAILED:
        info["matches"] = len(result)
        info["scan_bytes"] = args[0].scan_bytes
    return info


def _commit_extra(args, result):
    return {} if result is _FAILED else {"frame_bytes": result.frame_bytes}


def _checkpoint_extra(args, result):
    return {} if result is _FAILED else {"bundle_bytes": result.bundle_bytes}


#: Span names whose records keep arguments or public return values.
_EXTRAS = {
    "service.apply_batch": _apply_batch_extra,
    "query.evaluate": _query_extra,
    "wal.commit": _commit_extra,
    "wal.checkpoint": _checkpoint_extra,
}
