"""Group commit at the WAL layer: stage/flush protocol, receipts, loss.

Every commit is a group commit: :meth:`WalManager.commit` only stages a
frame, :meth:`WalManager.end_batch` is the one flush + fsync, and lost
staged frames make the manager refuse further work until the directory
is recovered.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    PersistentFault,
    ReproError,
    SimulatedCrash,
    UpdateAborted,
)
from repro.faults import FAULTS, FaultPlan
from repro.obs import OBS
from repro.wal import WalError, decode_frames, recover
from repro.wal.writer import LOG_NAME, checkpoint_files
from repro.xmltree import Node

from tests.wal.walutil import build_wal_engine, logical_state

SCHEME = "V-CDBS-Containment"


@pytest.fixture(autouse=True)
def clean_slate():
    OBS.reset()
    OBS.enabled = False
    yield
    FAULTS.disarm()
    OBS.reset()
    OBS.enabled = False


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` call made while the test runs, in order.

    Building an engine writes the initial checkpoint (atomic writes
    fsync too), so tests clear the list once their engine exists.
    """
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


def log_bytes(engine):
    return (engine.wal.directory / LOG_NAME).read_bytes()


def insert(engine, tag="x"):
    return engine.insert_child(engine.labeled.document.root, Node.element(tag))


def stage(wal, count=1):
    return [wal.commit("probe", [{"kind": "noop"}]) for _ in range(count)]


class TestBatchProtocol:
    def test_commits_stay_volatile_until_end_batch(self, tmp_path, fsyncs):
        engine = build_wal_engine(SCHEME, tmp_path)
        fsyncs.clear()
        wal = engine.wal
        stage(wal, 2)
        # Nothing on disk yet: the frames sit in the volatile buffer.
        assert log_bytes(engine) == b""
        assert fsyncs == []
        receipt = wal.end_batch()
        assert len(fsyncs) == 1
        assert receipt.commits == 2
        assert receipt.charges == {
            "wal.fsyncs": 1,
            "wal.batches": 1,
            "wal.batch_commits": 2,
        }
        assert (receipt.first_lsn, receipt.last_lsn) == (1, 2)
        assert receipt.frame_bytes == len(log_bytes(engine))
        records = decode_frames(log_bytes(engine))
        assert [record.lsn for record in records] == [1, 2]

    def test_batch_lsn_range_follows_the_staged_frames(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        wal = engine.wal
        stage(wal, 2)
        wal.end_batch()
        stage(wal, 3)
        receipt = wal.end_batch()
        assert (receipt.first_lsn, receipt.last_lsn) == (3, 5)
        assert receipt.commits == 3
        assert [r.lsn for r in decode_frames(log_bytes(engine))] == [
            1, 2, 3, 4, 5,
        ]

    def test_batched_commit_receipts_carry_no_fsync_charge(
        self, tmp_path, fsyncs
    ):
        engine = build_wal_engine(SCHEME, tmp_path)
        fsyncs.clear()
        (receipt,) = stage(engine.wal)
        assert receipt.charges == {
            "wal.records_appended": 1,
            "wal.bytes_appended": receipt.frame_bytes,
        }
        assert fsyncs == []
        engine.wal.end_batch()

    def test_empty_batch_skips_the_fsync(self, tmp_path, fsyncs):
        engine = build_wal_engine(SCHEME, tmp_path)
        fsyncs.clear()
        assert engine.wal.end_batch() is None
        assert fsyncs == []

    def test_checkpoint_inside_open_batch_rejected(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        stage(engine.wal)
        # A bundle here would cover records that are still volatile.
        with pytest.raises(WalError, match="frames staged"):
            engine.wal.checkpoint()
        engine.wal.end_batch()
        engine.wal.checkpoint()
        assert checkpoint_files(tmp_path)[0][0] == 1

    def test_abandon_batch_flushes_nothing(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        before = logical_state(engine.labeled)
        stage(engine.wal)
        engine.wal.abandon_batch()
        assert log_bytes(engine) == b""
        # Recovery sees only the pre-batch state: the abandoned records
        # were never durable (and never acknowledged).
        report = recover(tmp_path)
        assert logical_state(report.labeled) == before

    def test_abandon_without_batch_is_a_noop(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        engine.wal.abandon_batch()
        # Nothing was staged, so nothing was lost: still usable.
        insert(engine)
        assert [r.lsn for r in decode_frames(log_bytes(engine))] == [1]


class TestLostFrames:
    """Lost staged frames: dropped, and every later write refused."""

    def test_failed_standalone_flush_is_never_replayed(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        insert(engine, "acked")
        before = logical_state(engine.labeled)
        with FAULTS.armed(FaultPlan.single("wal.fsync", at=1)):
            with pytest.raises(ReproError) as failed:
                insert(engine, "unflushed")
        # The lost frame must never reach disk under a later commit's
        # LSN, so every later write is refused until recovery.
        with pytest.raises(UpdateAborted) as refused:
            insert(engine, "refused")
        assert isinstance(refused.value.__cause__, WalError)
        with pytest.raises(WalError, match="recover"):
            engine.wal.end_batch()
        with pytest.raises(WalError, match="recover"):
            engine.wal.checkpoint()
        assert [r.lsn for r in decode_frames(log_bytes(engine))] == [1]
        assert logical_state(recover(tmp_path).labeled) == before
        # The flush's own error, not UpdateAborted: the op is applied in
        # memory but neither durable nor acknowledged.
        assert isinstance(failed.value, PersistentFault)

    def test_abandoned_group_frame_never_reaches_disk(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        before = logical_state(engine.labeled)
        with pytest.raises(RuntimeError, match="boom"):
            with engine.commit_group():
                insert(engine, "staged")
                raise RuntimeError("boom")
        with pytest.raises(UpdateAborted) as refused:
            insert(engine, "refused")
        assert isinstance(refused.value.__cause__, WalError)
        assert log_bytes(engine) == b""
        assert logical_state(recover(tmp_path).labeled) == before

    def test_abort_before_staging_keeps_the_manager_usable(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        with FAULTS.armed(FaultPlan.single("wal.append", at=1)):
            with pytest.raises(UpdateAborted):
                insert(engine, "aborted")
        insert(engine, "kept")
        records = decode_frames(log_bytes(engine))
        assert [r.lsn for r in records] == [1]
        assert logical_state(recover(tmp_path).labeled) == logical_state(
            engine.labeled
        )


class TestCrashMidBatch:
    def test_crash_at_batch_fsync_loses_the_whole_batch(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        insert(engine, "acked")
        acked = logical_state(engine.labeled)
        with FAULTS.armed(FaultPlan.crash("wal.fsync", at=1)):
            with pytest.raises(SimulatedCrash):
                with engine.commit_group():
                    insert(engine, "staged1")
                    insert(engine, "staged2")
        # The contract: no commit of the batch was acked, so losing all
        # of them is allowed — and the previously acked commit survives.
        report = recover(tmp_path)
        assert logical_state(report.labeled) == acked

    def test_crash_mid_batch_append_loses_earlier_batch_commits(
        self, tmp_path
    ):
        engine = build_wal_engine(SCHEME, tmp_path)
        insert(engine, "acked")
        acked = logical_state(engine.labeled)
        with pytest.raises(SimulatedCrash):
            with engine.commit_group():
                insert(engine, "staged")
                with FAULTS.armed(FaultPlan.crash("wal.append", at=1)):
                    insert(engine, "crashing")
        report = recover(tmp_path)
        assert logical_state(report.labeled) == acked
