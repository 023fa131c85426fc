"""WalManager: logging protocol, checkpoint policy, reopen, costs."""

from __future__ import annotations

import pytest

from repro.errors import SimulatedCrash, UpdateAborted
from repro.faults import FAULTS, FaultPlan
from repro.labeling import make_scheme
from repro.obs import OBS
from repro.updates import UpdateEngine, apply_churn_op, churn_script
from repro.wal import WalManager, decode_frames, recover
from repro.wal.writer import (
    CHECKPOINT_MIN_LOG_BYTES,
    LOG_NAME,
    checkpoint_files,
)
from repro.xmltree import Node

from tests.wal.walutil import build_wal_engine, logical_state, seed_document

SCHEME = "V-CDBS-Containment"


@pytest.fixture(autouse=True)
def clean_slate():
    OBS.reset()
    OBS.enabled = False
    yield
    FAULTS.disarm()
    OBS.reset()
    OBS.enabled = False


def log_bytes(engine):
    return (engine.wal.directory / LOG_NAME).read_bytes()


def default_policy_engine(wal_dir):
    """An engine whose manager runs the default checkpoint policy."""
    labeled = make_scheme(SCHEME).label_document(seed_document())
    return UpdateEngine(
        labeled, with_storage=True, durability="wal", wal_dir=wal_dir
    )


class TestFreshDirectory:
    def test_initial_checkpoint_and_empty_log(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        bundles = checkpoint_files(tmp_path)
        assert [watermark for watermark, _ in bundles] == [0]
        assert log_bytes(engine) == b""
        assert engine.wal.next_lsn == 1

    def test_wal_dir_required(self):
        labeled = make_scheme(SCHEME).label_document(seed_document())
        with pytest.raises(ValueError, match="wal_dir"):
            UpdateEngine(labeled, durability="wal")

    def test_unknown_durability_mode_rejected(self):
        labeled = make_scheme(SCHEME).label_document(seed_document())
        with pytest.raises(ValueError, match="durability"):
            UpdateEngine(labeled, durability="paranoid")


class TestCommitLogging:
    def test_each_commit_appends_one_frame(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        engine.insert_child(root, Node.element("x"))
        engine.insert_child(root, Node.element("y"))
        records = decode_frames(log_bytes(engine))
        assert [record.lsn for record in records] == [1, 2]
        assert {record.op for record in records} == {"insert"}
        assert all(record.scheme == SCHEME for record in records)
        assert all(record.label_bytes() > 0 for record in records)

    def test_move_logs_one_record_with_two_subops(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        node, target = Node.element("m"), Node.element("t")
        engine.insert_child(root, node)
        engine.insert_child(root, target)
        engine.move_before(node, target)
        records = decode_frames(log_bytes(engine))
        assert len(records) == 3
        assert records[-1].op == "move_before"
        assert [subop["kind"] for subop in records[-1].subops] == [
            "delete",
            "insert",
        ]

    def test_aborted_op_logs_nothing(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        engine.insert_child(root, Node.element("x"))
        before = log_bytes(engine)
        lsn_before = engine.wal.next_lsn
        with pytest.raises(UpdateAborted):
            with FAULTS.armed(FaultPlan.single("pager.page_write", at=1)):
                engine.insert_child(root, Node.element("y"))
        assert log_bytes(engine) == before
        assert engine.wal.next_lsn == lsn_before


class TestCheckpointPolicy:
    def test_commit_threshold_truncates_and_prunes(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path, checkpoint_commits=3)
        root = engine.labeled.document.root
        for index in range(3):
            engine.insert_child(root, Node.element(f"c{index}"))
        bundles = checkpoint_files(tmp_path)
        assert [watermark for watermark, _ in bundles] == [3]
        assert log_bytes(engine) == b""  # truncated at the checkpoint
        # the watermark-0 bundle was pruned, and LSNs keep counting
        engine.insert_child(root, Node.element("after"))
        assert decode_frames(log_bytes(engine))[0].lsn == 4

    def test_byte_threshold_also_triggers(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path, checkpoint_bytes=1)
        root = engine.labeled.document.root
        engine.insert_child(root, Node.element("x"))
        assert checkpoint_files(tmp_path)[0][0] == 1
        assert log_bytes(engine) == b""

    def test_bad_policy_rejected(self, tmp_path):
        labeled = make_scheme(SCHEME).label_document(seed_document())
        with pytest.raises(ValueError):
            WalManager(tmp_path, labeled, checkpoint_every_commits=0)
        with pytest.raises(ValueError):
            WalManager(tmp_path / "b", labeled, checkpoint_every_bytes=0)

    def test_default_policy_waits_for_the_log_floor(self, tmp_path):
        """A small document checkpoints once, when the log crosses the
        floor, and not at any commit count on the way there."""
        OBS.enabled = True  # for each op's frame size in its costs
        engine = default_policy_engine(tmp_path)
        wal = engine.wal
        assert wal.checkpoint_every_commits is None
        assert wal.checkpoint_every_bytes is None
        assert wal.bundle_bytes < CHECKPOINT_MIN_LOG_BYTES
        root = engine.labeled.document.root
        commits = 0
        while checkpoint_files(tmp_path)[0][0] == 0:
            logged = wal.bytes_since_checkpoint
            assert logged < CHECKPOINT_MIN_LOG_BYTES
            node = Node.element(f"b{commits}")
            node.append_child(Node.text("x" * 2000))
            result = engine.insert_child(root, node)
            commits += 1
        assert commits > 64  # the retired commit trigger would fire here
        assert [w for w, _ in checkpoint_files(tmp_path)] == [commits]
        # The last commit's frame took the log across the floor, and its
        # checkpoint emptied the log.
        frame = result.costs["wal.bytes_appended"]
        assert logged + frame >= CHECKPOINT_MIN_LOG_BYTES
        assert log_bytes(engine) == b""
        for index in range(8):
            engine.insert_child(root, Node.element(f"after{index}"))
        assert [w for w, _ in checkpoint_files(tmp_path)] == [commits]

    def test_byte_rule_fires_at_the_newest_bundle_size(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.wal.writer.CHECKPOINT_MIN_LOG_BYTES", 1)
        engine = default_policy_engine(tmp_path)
        wal = engine.wal
        root = engine.labeled.document.root
        receipts = []
        for index in range(40):
            with engine.commit_group():
                engine.insert_child(root, Node.element(f"n{index}"))
            logged, limit = wal.bytes_since_checkpoint, wal.bundle_bytes
            receipt = wal.maybe_checkpoint()
            assert (receipt is not None) == (logged >= limit)
            if receipt is not None:
                receipts.append(receipt)
                assert wal.bundle_bytes == receipt.bundle_bytes
                assert receipt.path.stat().st_size == receipt.bundle_bytes
        assert len(receipts) >= 3
        # The document grew, so each bundle sets a higher bar.
        sizes = [receipt.bundle_bytes for receipt in receipts]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_reopen_takes_bundle_bytes_from_the_newest_bundle(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        for index in range(20):
            engine.insert_child(root, Node.element(f"n{index}"))
        # A crash before the truncate leaves the old bundle beside the
        # new, larger one.
        with FAULTS.armed(FaultPlan.crash("wal.checkpoint_truncate", at=1)):
            with pytest.raises(SimulatedCrash):
                engine.wal.checkpoint()
        (_, newest), (_, oldest) = checkpoint_files(tmp_path)
        assert newest.stat().st_size > oldest.stat().st_size

        reopened = WalManager(tmp_path, recover(tmp_path).labeled)
        assert reopened.bundle_bytes == newest.stat().st_size

    def test_bundle_bytes_stay_within_logged_bytes_plus_one_bundle(
        self, tmp_path, monkeypatch
    ):
        """Checkpoint writes follow the log: every bundle but the newest
        was paid for by at least as many logged bytes."""
        monkeypatch.setattr("repro.wal.writer.CHECKPOINT_MIN_LOG_BYTES", 1)
        engine = default_policy_engine(tmp_path)
        wal = engine.wal
        written, logged, checkpoints = wal.bundle_bytes, 0, 0
        script = churn_script(120, 5)
        for start in range(0, len(script), 4):
            with engine.commit_group() as group:
                for op in script[start : start + 4]:
                    apply_churn_op(engine, op)
            if group.batch is not None:
                logged += group.batch.frame_bytes
            receipt = wal.maybe_checkpoint()
            if receipt is not None:
                written += receipt.bundle_bytes
                checkpoints += 1
        assert checkpoints >= 3
        assert written <= logged + wal.bundle_bytes


class TestReopen:
    def test_reopen_resumes_lsn_lineage(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        engine.insert_child(root, Node.element("x"))
        engine.insert_child(root, Node.element("y"))

        recovered = recover(tmp_path).labeled
        resumed = UpdateEngine(
            recovered, with_storage=True, durability="wal", wal_dir=tmp_path
        )
        assert resumed.wal.next_lsn == 3
        resumed.insert_child(recovered.document.root, Node.element("z"))
        assert [r.lsn for r in decode_frames(log_bytes(resumed))] == [1, 2, 3]

    def test_reopen_truncates_a_torn_tail(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        engine.insert_child(root, Node.element("x"))
        engine.insert_child(root, Node.element("y"))
        log_path = tmp_path / LOG_NAME
        whole = log_path.read_bytes()
        log_path.write_bytes(whole[:-7])  # torn final frame

        recovered = recover(tmp_path).labeled
        resumed = UpdateEngine(
            recovered, with_storage=True, durability="wal", wal_dir=tmp_path
        )
        records = decode_frames(log_path.read_bytes())
        assert [r.lsn for r in records] == [1]  # tail gone for good
        assert resumed.wal.next_lsn == 2


class TestCosts:
    def test_wal_units_and_io_land_in_the_result(self, tmp_path):
        OBS.reset()
        OBS.enabled = True
        engine = build_wal_engine(SCHEME, tmp_path)
        result = engine.insert_child(
            engine.labeled.document.root, Node.element("x")
        )
        assert result.costs is not None
        assert result.costs["wal.records_appended"] == 1
        assert result.costs["wal.fsyncs"] == 1
        assert result.costs["wal.bytes_appended"] > 0
        # A standalone op is a group commit of one.
        assert result.costs["wal.batches"] == 1
        assert result.costs["wal.batch_commits"] == 1
        assert result.io_seconds > 0
        # ledger agrees with the per-op delta
        assert OBS.ledger.totals["wal.records_appended"] == 1

    def test_durability_off_charges_no_wal_units(self, tmp_path):
        OBS.reset()
        OBS.enabled = True
        labeled = make_scheme(SCHEME).label_document(seed_document())
        engine = UpdateEngine(labeled, with_storage=True)  # durability="off"
        result = engine.insert_child(
            labeled.document.root, Node.element("x")
        )
        assert engine.wal is None
        assert not any(unit.startswith("wal.") for unit in result.costs)
        assert not any(unit.startswith("wal.") for unit in OBS.ledger.totals)


class TestDurableFootprint:
    def test_record_bytes_are_a_sliver_of_the_bundle(self, tmp_path):
        """ISSUE 5 acceptance: per-insert WAL bytes <= 5% of a checkpoint.

        The paper's Section 4 point, restated in durability terms: a
        CDBS insert mints labels only for the new nodes, so the redo
        record is tiny next to re-snapshotting the document.
        """
        OBS.reset()
        OBS.enabled = True
        engine = build_wal_engine(SCHEME, tmp_path, elements=1000, seed=3)
        root = engine.labeled.document.root
        frame_sizes = []
        for index in range(20):
            result = engine.insert_child(root, Node.element(f"n{index}"))
            frame_sizes.append(result.costs["wal.bytes_appended"])
        bundle_bytes = engine.wal.checkpoint().bundle_bytes
        median = sorted(frame_sizes)[len(frame_sizes) // 2]
        assert median <= 0.05 * bundle_bytes


class TestChurnEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        ["V-CDBS-Containment", "F-CDBS-Containment", "CDBS(UTF8)-Prefix"],
    )
    def test_wal_mode_does_not_change_update_semantics(self, scheme, tmp_path):
        """durability="wal" is observationally pure w.r.t. the document."""
        script = churn_script(16, 11)
        plain_labeled = make_scheme(scheme).label_document(seed_document())
        plain = UpdateEngine(plain_labeled, with_storage=True)
        walled = build_wal_engine(scheme, tmp_path, checkpoint_commits=5)
        for op in script:
            apply_churn_op(plain, op)
            apply_churn_op(walled, op)
        assert logical_state(plain.labeled) == logical_state(walled.labeled)
