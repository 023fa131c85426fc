"""The serving process: one DocumentService driven by one client thread.

``run.py`` starts this as a child process so that the process measured
here holds only the service and the client; the shadow documents that
produced the inputs, and the checks against them, live in the parent.
Usage (as ``run.py`` calls it)::

    python3 perfbench/serve.py <work_dir>

reads ``<work_dir>/inputs.json`` and ``<work_dir>/ops.json`` (each
document's op stream, sized to one round) and writes
``<work_dir>/outputs.json``.

A run is a series of identical **rounds**, played until their timed
phases add up to ``seconds`` (traced rounds included), and at least
:data:`MIN_ROUNDS` of them.
Each round:

1. **setup** — a fresh service over a fresh WAL root, and
   ``create_document`` for every document: one ``setup_s`` sample;
2. **warm** — the round's first ``warmup_requests`` requests, not timed;
3. **timed** — its next ``round_requests`` requests of the workload's
   closed loop.

Every round replays the same op streams and the same reads on fresh
documents, so every round does the same work: how many checkpoints fall
in a round, and how long the labels grow, do not depend on how fast the
host ran.  The end-to-end metrics are medians over the rounds.  A traced
run alternates untraced and traced rounds, so the untraced ones measure
the same work without the wrappers: the tracing overhead.

After the last round, on its service:

4. **final** — read back every document's last acked view: its XML, the
   Table 3 queries and label-only relationship checks (the parent
   compares them with the expected document);
5. **restart** — close the service, check integrity, and run
   ``repro.wal.recover`` on every WAL directory.

Every timing is scaled to a reference host speed by :class:`SpeedProbe`
(see its docstring); the raw wall times go to ``outputs.json`` as well.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bootstrap import import_program  # noqa: E402

import_program()

import repro.wal  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.faults import FAULTS  # noqa: E402
from repro.obs import OBS  # noqa: E402
from repro.query import TABLE3_QUERIES  # noqa: E402
from repro.service import DocumentService, ServiceConfig  # noqa: E402
from repro.verify import verify_integrity  # noqa: E402
from repro.xmltree import serialize_document  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

_now = time.perf_counter

#: Longest a client waits for one ack before the run fails.
ACK_TIMEOUT_S = 60.0
#: Label-only relationship checks per document in the final reads.
FINAL_RELATIONSHIPS = 64
#: Fewest rounds in a run, however short ``seconds`` is: a traced run
#: needs an untraced round besides its first (see ``_overhead_ratio``)
#: and a traced one.
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 3
#: Pause between two probes of the host's speed.
PROBE_PERIOD_S = 0.01
#: CPU time of one probe on the reference host: about its mean on the
#: 2-vCPU virtual machine (Intel Xeon, Python 3.11) the README's figures
#: come from.  Scaled timings read as if the host always ran at that
#: speed.
PROBE_REFERENCE_S = 300e-6
#: How much more the program slows down than the probe: across rounds of
#: identical work, a round's time grew as the probe's time to the power
#: 1.2-1.5 (1.21 on ``pipeline``, 1.49 on ``browse``, 1.44 on ``edit``).
PROBE_EXPONENT = 1.4


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class _ProbeNode:
    __slots__ = ("next", "value")


class SpeedProbe:
    """How fast this CPU runs Python, sampled all through the run.

    The host's CPU drifts: the same loop takes 1.5x as long at some
    moments as at others, switching within a second, and the share of
    slow moments drifts over minutes.  CPU time drifts with wall time, so
    this is the processor running slower, not time stolen from the
    process.  A thread of this process (so on the same CPU as the
    service) runs a fixed piece of work every :data:`PROBE_PERIOD_S` and
    records its CPU time (``time.thread_time``, so time spent waiting
    for the GIL does not count).  :meth:`scale` turns the probes of a
    stretch of the run into the factor that maps its wall times to the
    reference host speed.

    The work mixes the three kinds the program spends its time on, in
    about equal shares, and shares no code with it: interpreter
    arithmetic, pointer chasing through a few MB of small objects (tree
    walks), and shifting a 256 KB integer (label encoding).  Memory-bound
    work slows down more than arithmetic when the host is slow, so the
    mix tracks the program better than any one kind, and the program
    still slows down more than the mix: hence :data:`PROBE_EXPONENT`.
    The probe takes about 3% of the CPU and 5 MB of memory.
    """

    #: Iterations of the arithmetic loop, steps of the pointer chase,
    #: nodes it chases through, and bits of the shifted integer.
    ARITHMETIC = 1_000
    CHASE_STEPS = 250
    CHASE_NODES = 60_000
    BIG_BITS = 256 * 1024 * 8

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-probe")
        nodes = [_ProbeNode() for _ in range(self.CHASE_NODES)]
        order = list(range(self.CHASE_NODES))
        random.Random(self.CHASE_NODES).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
            nodes[here].value = here
        self._node = nodes[0]
        self._big = (1 << self.BIG_BITS) - 12345

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        node = self._node
        while not self._stop.wait(PROBE_PERIOD_S):
            start = _now()
            cpu = time.thread_time()
            total = 0
            for value in range(self.ARITHMETIC):
                total += value * value % 7
            for _ in range(self.CHASE_STEPS):
                node = node.next
                total += node.value
            total += ((self._big << 13) | 5).bit_length()
            self.seconds.append(time.thread_time() - cpu)
            self.starts.append(start)

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time in ``[start, end]``,
        to the power :data:`PROBE_EXPONENT`.

        Wall times of that stretch times this factor are what the
        reference host would have taken.  A stretch shorter than two
        probe periods is widened to the probes around it.
        """
        count = len(self.starts)
        low = bisect.bisect_left(self.starts, start, 0, count)
        high = bisect.bisect_right(self.starts, end, 0, count)
        if high - low < 2:
            low, high = max(0, low - 2), min(count, high + 2)
        samples = self.seconds[low:high]
        if not samples:
            raise RuntimeError("the speed probe recorded nothing")
        return (PROBE_REFERENCE_S / statistics.fmean(samples)) ** PROBE_EXPONENT


def _stamp(record, future) -> None:
    record[2] = _now()


class Client:
    """The one generator thread: submits the op streams and issues reads.

    Update latency is submit-to-ack: the submit time is taken just
    before ``submit`` and the ack time by a done-callback, which runs in
    the writer thread the moment the ack future resolves.  Every round
    gets a new client with the same seed, so it makes the same requests.
    """

    def __init__(self, service, inputs, ops, tracer) -> None:
        self.service = service
        self.ops = ops
        self.docs = list(ops)
        self.min_nodes = inputs["min_nodes"]
        self.group = inputs["group"]
        self.reads_per_update = inputs["reads_per_update"]
        self.read_kinds = inputs["read_kinds"]
        self.reads_issued = 0
        self.rng = random.Random(inputs["seed"] * 7919 + 17)
        self.next_op = {doc: 0 for doc in self.docs}
        self.writers = {doc: service.registry.get(doc).writer for doc in self.docs}
        self.last_read_version = {doc: 0 for doc in self.docs}
        #: Failures over the whole round, warm-up included.
        self.failures = 0
        self.version_violations = 0
        self.update_order: list[str] = []
        self.reset()
        if tracer is not None:
            self.relationship = tracer.wrap("service.relationship", service.relationship)
            self.query = tracer.wrap("service.query", service.query)
        else:
            self.relationship = service.relationship
            self.query = service.query

    def reset(self) -> None:
        """Start a fresh measurement window."""
        #: [doc, submit time, ack time, ack or None, failed]
        self.updates: list[list] = []
        self.read_seconds: list[float] = []
        self.read_failures = 0

    # -- requests ------------------------------------------------------------

    def submit(self, doc):
        index = self.next_op[doc]
        if index >= len(self.ops[doc]):
            raise RuntimeError(f"{doc}: the op stream is shorter than a round")
        self.next_op[doc] = index + 1
        record = [doc, _now(), None, None, False]
        future = self.service.submit(doc, self.ops[doc][index])
        future.add_done_callback(functools.partial(_stamp, record))
        self.updates.append(record)
        return record, future

    def settle(self, pending) -> None:
        record, future = pending
        try:
            record[3] = future.result(ACK_TIMEOUT_S)
        except ReproError:
            record[4] = True
            self.failures += 1

    def read(self, doc) -> None:
        """One read, of the next kind in the workload's cycle.

        ``relationship`` is a label-only check of two positions; ``Qn``
        is that Table 3 query, then a relationship check of its first
        match against another node.
        """
        rng = self.rng
        kind = self.read_kinds[self.reads_issued % len(self.read_kinds)]
        self.reads_issued += 1
        bound = self.min_nodes[doc]
        try:
            start = _now()
            if kind == "relationship":
                first = rng.randrange(bound)
            else:
                response = self.query(doc, TABLE3_QUERIES[kind])
                self._check_version(doc, response["version"])
                matches = response["matches"]
                first = matches[0]["position"] % bound if matches else rng.randrange(bound)
            response = self.relationship(doc, first, rng.randrange(bound))
            self.read_seconds.append(_now() - start)
        except ReproError:
            self.read_failures += 1
            self.failures += 1
            return
        self._check_version(doc, response["version"])

    def next_update_doc(self) -> str:
        """A random document, each one once in every len(docs) updates."""
        if not self.update_order:
            self.update_order = list(self.docs)
            self.rng.shuffle(self.update_order)
        return self.update_order.pop()

    def _check_version(self, doc, version) -> None:
        # A read serves a committed version: never above the acked one,
        # never older than a version this client already read or acked.
        if not self.last_read_version[doc] <= version <= self.writers[doc].acked_version:
            self.version_violations += 1
        self.last_read_version[doc] = version

    def acked(self, pending) -> None:
        """Settle one update; the writer published its version first."""
        self.settle(pending)
        record = pending[0]
        if record[3] is not None:
            doc = record[0]
            self.last_read_version[doc] = max(
                self.last_read_version[doc], record[3]["version"]
            )

    # -- loops -------------------------------------------------------------

    def run(self, requests: int) -> None:
        """Drive the workload for ``requests`` requests.

        With a ``group``, a request is an update: the client sends
        ``group`` updates together (as a pipelined request does), waits
        for all their acks, then makes ``reads_per_update`` reads for
        each.  Without one, every (reads_per_update + 1)-th request is
        an update to a random document whose ack nobody waits for, and
        the rest are reads, which visit the documents in turn, so every
        document gets every read kind equally often.
        """
        if self.group == 0:
            pending = []
            cycle = self.reads_per_update + 1
            docs = len(self.docs)
            for count in range(1, requests + 1):
                if count % cycle:
                    self.read(self.docs[self.reads_issued // len(self.read_kinds) % docs])
                else:
                    pending.append(self.submit(self.next_update_doc()))
            for item in pending:
                self.acked(item)
            return
        doc = self.docs[0]
        budget = requests
        while budget:
            group = [self.submit(doc) for _ in range(min(self.group, budget))]
            budget -= len(group)
            for pending in group:
                self.acked(pending)
            for _ in range(self.reads_per_update * len(group)):
                self.read(doc)

    # -- what the round measured --------------------------------------------

    def update_seconds(self) -> "list[float]":
        return [
            record[2] - record[1]
            for record in self.updates
            if record[3] is not None and record[2] is not None
        ]


def _writer_totals(service, docs) -> dict:
    writers = [service.registry.get(doc).writer for doc in docs]
    return {
        "commits": sum(writer.commits_acked for writer in writers),
        "fsyncs": sum(writer.fsyncs for writer in writers),
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts, on a single CPU.

    The GIL runs one Python thread at a time, so the service cannot use
    a second CPU for Python work anyway.  Unpinned, the client and the
    writer threads hand the GIL to each other across CPUs, and on a
    2-vCPU virtual machine (Intel Xeon, Python 3.11) that handoff slowed
    down for minutes at a time: ``browse``'s update latency read about
    40 ms in one stretch of runs and about 70 ms in the next, with the
    same host speed.  Pinned, it stayed at about 40 ms.  Pinned, the
    speed probe also runs on the CPU it measures.  Threads inherit the
    affinity of the thread that starts them, so this runs first.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """High-water resident set of this process (``VmHWM``), in MB.

    Not ``getrusage``: Linux carries ``ru_maxrss`` across ``exec``, so a
    spawned child would report at least its parent's peak, while
    ``VmHWM`` belongs to the address space this program runs in.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


class Round:
    """One round: fresh documents, warm-up, then the timed requests."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.service = None
        self.client = None
        self.wal_root: "Path | None" = None

    def play(self, inputs, docs, ops, work_dir: Path, probe, tracer) -> dict:
        scheme = inputs["scheme"]
        if self.traced:
            tracer.install([scheme])
        if tracer is not None:
            tracer.phase = "setup" if self.traced else "untraced"
        self.wal_root = work_dir / f"wal-{self.index}"
        self.service = DocumentService(ServiceConfig(root_dir=str(self.wal_root)))
        start = _now()
        for doc in docs:
            self.service.create_document(doc["xml"], scheme, doc_id=doc["id"])
        setup_end = _now()
        if self.traced:
            tracer.phase = "warm"
        client = self.client = Client(
            self.service, inputs, ops, tracer if self.traced else None
        )
        client.run(inputs["warmup_requests"])
        client.reset()
        if self.traced:
            tracer.phase = "timed"
        before = _writer_totals(self.service, client.docs)
        timed_start = _now()
        client.run(inputs["round_requests"])
        timed_end = _now()
        after = _writer_totals(self.service, client.docs)
        if self.traced:
            tracer.uninstall()
            tracer.phase = "between"
        views = {doc: self.service.snapshot(doc) for doc in client.docs}
        return {
            "index": self.index,
            "traced": self.traced,
            "setup_s": setup_end - start,
            "setup_scale": probe.scale(start, setup_end),
            "seconds": timed_end - timed_start,
            "scale": probe.scale(timed_start, timed_end),
            "timed_span": [timed_start, timed_end],
            "update_seconds": client.update_seconds(),
            "read_seconds": client.read_seconds,
            "updates": len(client.updates),
            "updates_failed": sum(1 for record in client.updates if record[4]),
            "reads": len(client.read_seconds) + client.read_failures,
            "reads_failed": client.read_failures,
            "failures": client.failures,
            "version_violations": client.version_violations,
            "applied": dict(client.next_op),
            "versions": {doc: view.version for doc, view in views.items()},
            "commits_acked": {
                doc: client.writers[doc].commits_acked for doc in client.docs
            },
            "xml_sha256": {
                doc: hashlib.sha256(view.serialize().encode("utf-8")).hexdigest()
                for doc, view in views.items()
            },
            "writer_delta": {key: after[key] - before[key] for key in after},
        }

    def discard(self) -> None:
        """Close the service and delete its WAL root."""
        self.service.close()
        self.service = self.client = None
        shutil.rmtree(self.wal_root)
        gc.collect()


def summarize(rounds) -> dict:
    """End-to-end metrics of the untraced rounds, scaled, plus raw twins.

    Each timing is the median over rounds of that round's figure: its
    own median latency or its request rate.  ``read_p99_ms`` pools the
    scaled reads of every round, so that it has enough samples beyond
    it.  ``raw`` holds the same figures without the host scaling.
    """
    measured = [item for item in rounds if not item["traced"]]

    def figures(scaled: bool) -> dict:
        def factor(item):
            return item["scale"] if scaled else 1.0

        pooled_reads = [
            seconds * factor(item)
            for item in measured
            for seconds in item["read_seconds"]
        ]
        pooled_updates = [
            seconds * factor(item)
            for item in measured
            for seconds in item["update_seconds"]
        ]
        per_round = {
            "setup_s": [
                item["setup_s"] * (item["setup_scale"] if scaled else 1.0)
                for item in measured
            ],
            "update_p50_ms": [
                percentile(item["update_seconds"], 0.5) * factor(item) * 1e3
                for item in measured
            ],
            "updates_per_s": [
                len(item["update_seconds"]) / (item["seconds"] * factor(item))
                for item in measured
            ],
            "read_p50_ms": [
                percentile(item["read_seconds"], 0.5) * factor(item) * 1e3
                for item in measured
            ],
            "reads_per_s": [
                len(item["read_seconds"]) / (item["seconds"] * factor(item))
                for item in measured
            ],
        }
        out = {name: statistics.median(values) for name, values in per_round.items()}
        out["read_p99_ms"] = percentile(pooled_reads, 0.99) * 1e3
        out["update_p99_ms"] = percentile(pooled_updates, 0.99) * 1e3
        return out

    return {
        **figures(scaled=True),
        "raw": figures(scaled=False),
        "rounds": len(measured),
        "updates_acked": sum(len(item["update_seconds"]) for item in measured),
        "reads": sum(len(item["read_seconds"]) for item in measured),
    }


def final_reads(service, client, docs) -> dict:
    """What the parent checks against the expected documents."""
    rng = random.Random(client.rng.random())
    out = {}
    for doc in docs:
        view = service.snapshot(doc)
        queries = {}
        for query_id, query in TABLE3_QUERIES.items():
            response = client.query(doc, query)
            if response["version"] != view.version:
                raise RuntimeError(f"{doc}: the view moved after the run ended")
            queries[query_id] = [
                [match["position"], match["tag"]] for match in response["matches"]
            ]
        relationships = []
        count = view.node_count()
        for _ in range(FINAL_RELATIONSHIPS):
            first, second = rng.randrange(count), rng.randrange(count)
            response = client.relationship(doc, first, second)
            relationships.append(
                {
                    key: response[key]
                    for key in (
                        "ancestor", "descendant", "parent", "child",
                        "sibling", "level_first", "level_second",
                    )
                }
                | {"first": first, "second": second}
            )
        out[doc] = {
            "version": view.version,
            "xml": view.serialize(),
            "queries": queries,
            "relationships": relationships,
            "stats": service.stats(doc),
        }
    return out


def restart(service, wal_root: Path, docs) -> dict:
    """Close, check integrity, then recover every WAL directory once."""
    service.close()
    violations = {}
    for doc in docs:
        engine = service.registry.get(doc).engine
        violations[doc] = len(verify_integrity(engine.labeled, engine.store))
    disk_bytes = sum(
        path.stat().st_size for path in wal_root.rglob("*") if path.is_file()
    )
    start = _now()
    reports = [repro.wal.recover(wal_root / doc) for doc in docs]
    seconds = _now() - start
    return {
        "violations": violations,
        "disk_bytes": disk_bytes,
        "seconds": seconds,
        "recovered_xml": {
            doc: serialize_document(report.labeled.document)
            for doc, report in zip(docs, reports)
        },
    }


def serve(inputs, ops, work_dir: Path, probe) -> dict:
    """Play the rounds, then read back and restart the last one."""
    traced = bool(inputs["trace"])
    docs = inputs.pop("docs")
    doc_ids = [doc["id"] for doc in docs]
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install_queue()
    rounds, traced_rounds = [], []
    timed_total = 0.0
    while True:
        # A traced run alternates untraced and traced rounds.
        current = Round(len(rounds), traced and len(rounds) % 2 == 1)
        played = current.play(inputs, docs, ops, work_dir, probe, tracer)
        rounds.append(played)
        if current.traced:
            traced_rounds.append(
                {
                    "timed_span": played["timed_span"],
                    "writers": {
                        id(writer): doc for doc, writer in current.client.writers.items()
                    },
                    "updates": current.client.updates,
                    "writer_delta": played["writer_delta"],
                }
            )
        timed_total += played["seconds"]
        if (
            len(rounds) >= (MIN_TRACED_ROUNDS if traced else MIN_ROUNDS)
            and timed_total >= inputs["seconds"]
        ):
            break
        current.discard()
    del docs

    if tracer is not None:
        tracer.install([inputs["scheme"]])
        tracer.phase = "final"
    client = current.client
    finals = final_reads(current.service, client, doc_ids)
    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.phase = "restart"
    restarted = restart(current.service, current.wal_root, doc_ids)

    outputs = {
        "rounds": [
            {
                key: value
                for key, value in played.items()
                if key not in ("update_seconds", "read_seconds", "timed_span")
            }
            for played in rounds
        ],
        "summary": summarize(rounds),
        "final": finals,
        "restart": restarted,
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.uninstall_queue()
        xml_bytes = sum(len(finals[doc]["xml"].encode("utf-8")) for doc in doc_ids)
        outputs["layers"] = layers.compute(
            tracer,
            rounds=traced_rounds,
            overhead_ratio=_overhead_ratio(rounds),
            disk_bytes=restarted["disk_bytes"],
            xml_bytes=xml_bytes,
        )
        outputs["split"] = layers.split(tracer)
        tracer.write(inputs["trace_path"])
    return outputs


def _overhead_ratio(rounds) -> float:
    """Scaled time of a traced round over that of an untraced one.

    Rounds do the same work, so the ratio is the tracer's cost alone.
    The first round is left out: in a traced run it runs up to 1.3x
    slower than the untraced rounds after it, before any wrapper is in
    place.
    """

    def mean_time(traced: bool) -> float:
        return statistics.fmean(
            item["seconds"] * item["scale"]
            for item in rounds[1:]
            if item["traced"] == traced
        )

    return mean_time(True) / mean_time(False)


def main(argv) -> int:
    pin_to_one_cpu()
    work_dir = Path(argv[1])
    inputs = json.loads((work_dir / "inputs.json").read_text(encoding="utf-8"))
    ops = json.loads((work_dir / "ops.json").read_text(encoding="utf-8"))
    if OBS.enabled or FAULTS.enabled:
        raise RuntimeError("repro.obs and repro.faults must stay disabled")
    with SpeedProbe() as probe:
        outputs = serve(inputs, ops, work_dir, probe)
    (work_dir / "outputs.json").write_text(json.dumps(outputs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
