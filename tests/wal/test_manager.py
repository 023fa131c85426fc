"""WalManager: logging protocol, checkpoint policy, reopen, costs."""

from __future__ import annotations

import pytest

from repro.errors import UpdateAborted
from repro.faults import FAULTS, FaultPlan
from repro.labeling import make_scheme
from repro.obs import OBS
from repro.updates import UpdateEngine, apply_churn_op, churn_script
from repro.wal import WalManager, decode_frames, recover
from repro.wal.writer import LOG_NAME, checkpoint_files
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
