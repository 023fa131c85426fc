"""Acked-prefix semantics through the service stack, deterministically.

The crash matrix sweeps every WAL site at scale; these tests pin the
two interesting outcomes at test speed by driving ``apply_batch``
synchronously on a registry-served document:

* a crash *before* the batch fsync (``wal.fsync``) loses the whole
  batch — recovery is exactly the previously acked prefix;
* a crash *after* commit, inside the deferred checkpoint
  (``wal.checkpoint_write`` or ``wal.checkpoint_truncate``), keeps the
  batch — it was durable, and acked, before the crash point — whether
  a commit count or the default byte rule made the checkpoint due.

Either way the service's promise holds: **an acked commit is never
lost**, and a quarantined document refuses writes while its stats tell
clients the truth.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceCrashed, SimulatedCrash, XMLParseError
from repro.faults import FAULTS, FaultPlan
from repro.service import DocumentRegistry, UpdateRequest
from repro.verify import verify_integrity
from repro.wal import recover
from repro.wal.writer import checkpoint_files

from tests.wal.walutil import logical_state


@pytest.fixture(autouse=True)
def disarm():
    yield
    FAULTS.disarm()


@pytest.fixture
def handle(tmp_path):
    registry = DocumentRegistry(str(tmp_path), max_batch=8)
    served = registry.create(
        "<root><a/></root>", "QED-Prefix", start_writer=False
    )
    yield served
    registry.close(timeout=5.0)


def batch(tags):
    return [
        UpdateRequest(
            op={"kind": "insert_child", "parent": 0, "xml": f"<{tag}/>"}
        )
        for tag in tags
    ]


def test_crash_before_fsync_loses_exactly_the_unacked_batch(handle):
    writer = handle.writer
    acked = batch(["first", "second"])
    writer.apply_batch(acked)
    for request in acked:
        assert request.future.result(timeout=0)["version"] == 2
    acked_state = logical_state(handle.engine.labeled)

    doomed = batch(["third", "fourth"])
    with FAULTS.armed(FaultPlan.crash("wal.fsync", at=1)):
        with pytest.raises(SimulatedCrash):
            writer.apply_batch(doomed)
    for request in doomed:
        with pytest.raises(ServiceCrashed):
            request.future.result(timeout=0)

    # The quarantined handle is honest with clients (auto-recover off:
    # the self-healing path has its own suite in test_recovery.py)...
    assert handle.stats()["status"] == "crashed"
    writer.auto_recover = False
    with pytest.raises(ServiceCrashed, match="crashed"):
        writer.submit({"kind": "delete", "target": 1})
    # ...and recovery rebuilds exactly the acked prefix: batch 1 is
    # there in full, batch 2 left no trace.
    report = recover(handle.wal_dir)
    assert logical_state(report.labeled) == acked_state
    assert verify_integrity(report.labeled) == []


@pytest.mark.parametrize(
    "site", ["wal.checkpoint_write", "wal.checkpoint_truncate"]
)
@pytest.mark.parametrize("due_by", ["commit_count", "byte_rule"])
def test_crash_in_deferred_checkpoint_keeps_the_durable_batch(
    handle, monkeypatch, due_by, site
):
    writer = handle.writer
    wal = handle.engine.wal
    # Make the deferred checkpoint due with this one batch: either an
    # explicit K of 1, or the default rule (the log reaches the newest
    # bundle's size) with its floor lowered and a record larger than
    # the seed's bundle.
    if due_by == "commit_count":
        wal.checkpoint_every_commits = 1
        survivors = batch(["kept"])
    else:
        monkeypatch.setattr("repro.wal.writer.CHECKPOINT_MIN_LOG_BYTES", 1)
        filler = "x" * (2 * wal.bundle_bytes)
        survivors = [
            UpdateRequest(
                op={
                    "kind": "insert_child",
                    "parent": 0,
                    "xml": f"<kept>{filler}</kept>",
                }
            )
        ]
    policy = (wal.checkpoint_every_commits, wal.checkpoint_every_bytes)
    # The writer runs the checkpoint strictly after its acks (a
    # checkpoint truncates the log, and the log must retain unacked
    # request_id frames), so the crash fires after the client already
    # heard back — the commit is on disk AND acked; recovery must
    # include it.
    with FAULTS.armed(FaultPlan.crash(site, at=1)):
        with pytest.raises(SimulatedCrash):
            writer.apply_batch(survivors)
    assert survivors[0].future.result(timeout=0)["batch_commits"] == 1
    assert writer.status == "crashed"
    acked_state = logical_state(handle.engine.labeled)
    report = recover(handle.wal_dir)
    assert logical_state(report.labeled) == acked_state
    names = [
        node.name
        for node in report.labeled.nodes_in_order
        if node.name is not None
    ]
    assert "kept" in names
    assert verify_integrity(report.labeled) == []

    # Healing in place carries the policy over and reads the newest
    # bundle's size from disk.
    assert writer.recover()["healed"]
    healed = handle.engine.wal
    assert healed is not wal
    assert (
        healed.checkpoint_every_commits,
        healed.checkpoint_every_bytes,
    ) == policy
    newest = checkpoint_files(handle.wal_dir)[0][1]
    assert healed.bundle_bytes == newest.stat().st_size
    assert logical_state(handle.engine.labeled) == acked_state


@pytest.mark.parametrize(
    "xml", ["<b>&#xDC00;</b>", "<b>\udc00</b>", "<b t='&#0;'/>", "<b>\x01</b>"]
)
def test_insert_of_a_character_xml_forbids_is_refused(handle, monkeypatch, xml):
    # An acked lone surrogate made every later checkpoint fail to encode
    # the document as UTF-8 while its record stayed in the log, so each
    # batch crashed the writer again; a C0 control is no XML text either.
    monkeypatch.setattr("repro.wal.writer.CHECKPOINT_MIN_LOG_BYTES", 1)
    writer = handle.writer
    wal = handle.engine.wal
    before = logical_state(handle.engine.labeled)
    refused = UpdateRequest(op={"kind": "insert_child", "parent": 0, "xml": xml})
    writer.apply_batch([refused])
    with pytest.raises(XMLParseError, match="not allowed|bad character"):
        refused.future.result(timeout=0)
    assert writer.commits_acked == 0
    assert wal.next_lsn == 1  # nothing of it reached the log
    assert logical_state(handle.engine.labeled) == before

    # The next batch is acked and its deferred checkpoint (due: the log
    # outgrows the seed's bundle) runs without quarantining anything.
    filler = "x" * (2 * wal.bundle_bytes)
    kept = UpdateRequest(
        op={"kind": "insert_child", "parent": 0, "xml": f"<kept>{filler}</kept>"}
    )
    writer.apply_batch([kept])
    assert kept.future.result(timeout=0)["version"] == 1
    assert writer.status == "serving"
    assert writer.recoveries == 0
    assert checkpoint_files(handle.wal_dir)[0][0] == 1
    assert wal.bytes_since_checkpoint == 0
    report = recover(handle.wal_dir)
    assert logical_state(report.labeled) == logical_state(handle.engine.labeled)


def test_create_with_a_character_xml_forbids_is_a_parse_error(tmp_path):
    registry = DocumentRegistry(str(tmp_path))
    try:
        with pytest.raises(XMLParseError) as info:
            registry.create("<a>&#xD800;</a>", "V-CDBS-Containment")
        assert info.value.position == 3
        assert registry.ids() == []
    finally:
        registry.close(timeout=5.0)
