"""UpdateEngine.commit_group: one fsync per batch, per-op isolation.

A standalone op is a group of one, so it takes the same stage/flush
path as the service writer's batches — down to the bytes on disk.
"""

from __future__ import annotations

import pytest

from repro.errors import UpdateAborted
from repro.faults import FAULTS, FaultPlan
from repro.labeling import make_scheme
from repro.obs import OBS
from repro.service.writer import DocumentWriter, UpdateRequest
from repro.updates import UpdateEngine, apply_churn_op, churn_script
from repro.wal import decode_frames, recover
from repro.wal.writer import LOG_NAME, checkpoint_files
from repro.xmltree import Node, serialize

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


def insert(engine, tag="x"):
    return engine.insert_child(engine.labeled.document.root, Node.element(tag))


class TestGroupCommit:
    def test_n_commits_one_fsync(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        with engine.commit_group() as group:
            insert(engine, "a")
            insert(engine, "b")
            insert(engine, "c")
            # Mid-group: everything volatile, nothing durable yet.
            assert log_bytes(engine) == b""
        assert group.commits == 3
        assert len(group.receipts) == 3
        assert group.batch is not None
        assert group.batch.commits == 3
        assert group.batch.charges["wal.fsyncs"] == 1
        assert [record.lsn for record in decode_frames(log_bytes(engine))] == [
            receipt.lsn for receipt in group.receipts
        ]

    def test_receipts_carry_no_per_commit_fsync(self, tmp_path):
        OBS.enabled = True
        engine = build_wal_engine(SCHEME, tmp_path)
        with engine.commit_group() as group:
            result = insert(engine)
        (receipt,) = group.receipts
        assert "wal.fsyncs" not in receipt.charges
        # Inside a caller's group the op's result carries its staged
        # record only; the fsync is the batch's.
        assert result.costs["wal.records_appended"] == 1
        assert "wal.fsyncs" not in result.costs

    def test_aborted_op_inside_group_is_isolated(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        root = engine.labeled.document.root
        with engine.commit_group() as group:
            insert(engine, "good")
            with pytest.raises(UpdateAborted):
                with FAULTS.armed(FaultPlan.single("label.write", at=1)):
                    insert(engine, "bad")
            insert(engine, "also-good")
        # The abort rolled back before its record was staged: the batch
        # holds exactly the two successful transactions.
        assert group.commits == 2
        assert group.batch.commits == 2
        tags = [child.name for child in root.children]
        assert "bad" not in tags
        report = recover(tmp_path)
        assert logical_state(report.labeled) == logical_state(engine.labeled)

    def test_exception_abandons_batch_without_flush(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        before = logical_state(engine.labeled)
        with pytest.raises(RuntimeError, match="boom"):
            with engine.commit_group():
                insert(engine, "staged")
                raise RuntimeError("boom")
        assert log_bytes(engine) == b""
        assert logical_state(recover(tmp_path).labeled) == before

    def test_empty_group_commits_nothing(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        with engine.commit_group() as group:
            pass
        assert group.commits == 0
        assert group.batch is None
        assert log_bytes(engine) == b""

    def test_nested_group_rejected(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path)
        with engine.commit_group():
            with pytest.raises(RuntimeError, match="already open"):
                with engine.commit_group():
                    pass

    def test_group_works_without_wal(self):
        labeled = make_scheme(SCHEME).label_document(seed_document())
        engine = UpdateEngine(labeled, with_storage=True)
        with engine.commit_group() as group:
            insert(engine, "a")
            insert(engine, "b")
        assert group.receipts == []
        assert group.batch is None
        assert [child.name for child in labeled.document.root.children][
            -2:
        ] == ["a", "b"]


class TestDeferredCheckpoint:
    def test_no_checkpoint_fires_inside_the_group(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path, checkpoint_commits=2)
        with engine.commit_group():
            for tag in ("a", "b", "c", "d"):
                insert(engine, tag)
            # Threshold long passed, but a checkpoint here would cover
            # volatile records; it must wait for the batch fsync.
            assert engine.wal.commits_since_checkpoint == 4
        # The group never checkpoints, not even at its close: the
        # caller runs the due checkpoint once its acks are out.
        assert engine.wal.commits_since_checkpoint == 4
        assert [mark for mark, _ in checkpoint_files(tmp_path)] == [0]
        engine.maybe_checkpoint()
        assert engine.wal.commits_since_checkpoint == 0
        assert [mark for mark, _ in checkpoint_files(tmp_path)] == [4]

    def test_group_end_checkpoint_recovers_cleanly(self, tmp_path):
        engine = build_wal_engine(SCHEME, tmp_path, checkpoint_commits=2)
        with engine.commit_group():
            insert(engine, "a")
            insert(engine, "b")
            insert(engine, "c")
        engine.maybe_checkpoint()
        report = recover(tmp_path)
        assert report.watermark == 3
        assert logical_state(report.labeled) == logical_state(engine.labeled)


class _SpecRecorder:
    """Stands in for the engine: turns one churn op into a writer spec."""

    def __init__(self, labeled):
        self.labeled = labeled

    def insert_child(self, parent, subtree, index):
        return {
            "kind": "insert_child",
            "parent": self.labeled.position_of(parent),
            "index": index,
            "xml": serialize(subtree),
        }

    def delete(self, node):
        return {"kind": "delete", "target": self.labeled.position_of(node)}

    def move_before(self, node, target):
        return {
            "kind": "move_before",
            "node": self.labeled.position_of(node),
            "target": self.labeled.position_of(target),
        }


class TestOnePath:
    def test_standalone_ops_and_one_op_batches_write_identical_files(
        self, tmp_path
    ):
        script = churn_script(40, 11)
        standalone = build_wal_engine(
            SCHEME, tmp_path / "standalone", checkpoint_commits=7
        )
        for op in script:
            apply_churn_op(standalone, op)

        writer = DocumentWriter(
            build_wal_engine(SCHEME, tmp_path / "batched", checkpoint_commits=7)
        )
        for op in script:
            spec = apply_churn_op(_SpecRecorder(writer.engine.labeled), op)
            if spec is not None:
                request = UpdateRequest(op=spec)
                writer.apply_batch([request])
                request.future.result(timeout=0)

        def files(directory):
            return {
                path.name: path.read_bytes()
                for path in sorted(directory.iterdir())
            }

        written = files(tmp_path / "standalone")
        # Both paths checkpointed past the initial bundle and left a
        # log suffix behind it.
        assert checkpoint_files(tmp_path / "standalone")[0][0] > 0
        assert decode_frames(written[LOG_NAME])
        assert written == files(tmp_path / "batched")
