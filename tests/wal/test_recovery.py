"""recover(): checkpoint + replay equals the live engine, torn tails heal."""

from __future__ import annotations

import pytest

from repro.faults import FAULTS
from repro.labeling import make_scheme
from repro.obs import OBS
from repro.updates import UpdateEngine, apply_churn_op, churn_script
from repro.verify import verify_integrity
from repro.wal import FRAME_HEADER_BYTES, WalError, recover, scan_frames
from repro.wal.writer import LOG_NAME, checkpoint_files
from repro.xmltree import Node, NodeKind, parse_document

from tests.wal.walutil import build_wal_engine, logical_state

SCHEMES = [
    "V-CDBS-Containment",
    "F-CDBS-Containment",
    "CDBS(UTF8)-Prefix",
]


@pytest.fixture(autouse=True)
def clean_slate():
    OBS.reset()
    OBS.enabled = False
    yield
    FAULTS.disarm()
    OBS.reset()
    OBS.enabled = False


def run_churn(engine, ops=20, seed=7):
    for op in churn_script(ops, seed):
        apply_churn_op(engine, op)


class TestRecoverEqualsLiveState:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_full_churn_with_checkpoints(self, scheme, tmp_path):
        engine = build_wal_engine(scheme, tmp_path, checkpoint_commits=5)
        run_churn(engine)
        report = recover(tmp_path)
        assert logical_state(report.labeled) == logical_state(engine.labeled)
        assert verify_integrity(report.labeled) == []
        assert not report.tail_truncated
        assert report.last_lsn == engine.wal.next_lsn - 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_replay_only_no_intermediate_checkpoint(self, scheme, tmp_path):
        engine = build_wal_engine(scheme, tmp_path)  # thresholds never hit
        run_churn(engine)
        report = recover(tmp_path)
        assert report.watermark == 0
        assert report.skipped == 0
        assert report.replayed == engine.wal.next_lsn - 1
        assert logical_state(report.labeled) == logical_state(engine.labeled)

    def test_recover_is_idempotent(self, tmp_path):
        engine = build_wal_engine(SCHEMES[0], tmp_path)
        run_churn(engine, ops=10)
        first = recover(tmp_path)
        second = recover(tmp_path)
        assert logical_state(first.labeled) == logical_state(second.labeled)
        assert (first.replayed, first.skipped) == (
            second.replayed,
            second.skipped,
        )


def mixed_content_engine(scheme, wal_dir, xml):
    """A WAL engine over ``xml`` (whitespace and text kept)."""
    labeled = make_scheme(scheme).label_document(
        parse_document(xml, keep_whitespace=True)
    )
    return UpdateEngine(
        labeled, with_storage=True, durability="wal", wal_dir=wal_dir
    )


def element(engine, tag):
    return next(
        node
        for node in engine.labeled.nodes_in_order
        if node.kind is NodeKind.ELEMENT and node.name == tag
    )


class TestAdjacentText:
    """Deleting what stood between two text runs leaves them adjacent;
    the bundle and the log must keep them apart."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_checkpoint_keeps_adjacent_text_nodes(self, scheme, tmp_path):
        engine = mixed_content_engine(
            scheme, tmp_path, "<r><a>t1<b/>t2</a><z/></r>"
        )
        engine.delete(element(engine, "b"))
        engine.wal.checkpoint()
        report = recover(tmp_path)
        assert report.watermark == 1
        assert len(report.labeled.nodes_in_order) == len(
            engine.labeled.nodes_in_order
        )
        assert logical_state(report.labeled) == logical_state(engine.labeled)
        assert verify_integrity(report.labeled) == []

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_moved_adjacent_text_replays_from_the_log(
        self, scheme, tmp_path
    ):
        engine = mixed_content_engine(
            scheme, tmp_path, "<r><a>t1<b/>t2</a><z/><y/></r>"
        )
        engine.delete(element(engine, "b"))
        engine.move_before(element(engine, "a"), element(engine, "y"))
        report = recover(tmp_path)
        assert (report.watermark, report.replayed) == (0, 2)
        assert logical_state(report.labeled) == logical_state(engine.labeled)
        assert verify_integrity(report.labeled) == []


class TestCodeBuiltValues:
    """Whatever a node built in code may hold (here each end of XML's
    Char ranges) is logged, replayed and checkpointed."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_insert_replays_and_checkpoints(self, scheme, tmp_path):
        value = "x\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"
        engine = mixed_content_engine(scheme, tmp_path, "<r><a/></r>")
        subtree = Node.element("x")
        subtree.append_child(Node.attribute("t", value))
        subtree.append_child(Node.text(value))
        engine.insert_child(element(engine, "a"), subtree)
        report = recover(tmp_path)
        assert (report.watermark, report.replayed) == (0, 1)
        assert logical_state(report.labeled) == logical_state(engine.labeled)
        engine.wal.checkpoint()
        report = recover(tmp_path)
        assert (report.watermark, report.replayed) == (1, 0)
        assert logical_state(report.labeled) == logical_state(engine.labeled)


class TestTornTail:
    def test_torn_tail_recovers_the_valid_prefix(self, tmp_path):
        engine = build_wal_engine(SCHEMES[0], tmp_path)
        root = engine.labeled.document.root
        for index in range(4):
            engine.insert_child(root, Node.element(f"n{index}"))
        log_path = tmp_path / LOG_NAME
        whole = log_path.read_bytes()

        # oracle for the 3-commit prefix: recover from a log truncated
        # cleanly at the third frame boundary
        payloads, _ = scan_frames(whole)
        three = sum(
            len(p) + FRAME_HEADER_BYTES for p in payloads[:3]
        )
        log_path.write_bytes(whole[:three])
        prefix_state = logical_state(recover(tmp_path).labeled)

        # now the torn version: the 4th frame is half-written
        log_path.write_bytes(whole[:-9])
        report = recover(tmp_path)
        assert report.tail_truncated
        assert report.tail_reason == "torn frame body"
        assert report.replayed == 3
        assert logical_state(report.labeled) == prefix_state
        assert verify_integrity(report.labeled) == []

    def test_mid_log_corruption_bounds_replay(self, tmp_path):
        engine = build_wal_engine(SCHEMES[0], tmp_path)
        root = engine.labeled.document.root
        for index in range(3):
            engine.insert_child(root, Node.element(f"n{index}"))
        log_path = tmp_path / LOG_NAME
        data = bytearray(log_path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip a byte in the middle frame
        log_path.write_bytes(bytes(data))
        report = recover(tmp_path)  # must not raise
        assert report.tail_truncated
        assert report.replayed < 3
        assert verify_integrity(report.labeled) == []


class TestCheckpointLineage:
    def test_no_checkpoint_raises(self, tmp_path):
        with pytest.raises(WalError, match="no checkpoint"):
            recover(tmp_path)

    def test_every_bundle_dead_refuses(self, tmp_path):
        """With no loadable base state, recovery refuses rather than
        replaying the log onto a wrong document."""
        engine = build_wal_engine(SCHEMES[0], tmp_path, checkpoint_commits=4)
        run_churn(engine, ops=12)
        bundles = checkpoint_files(tmp_path)
        assert len(bundles) == 1
        bundles[0][1].write_bytes(b"RPRO-LABELS-2\ngarbage")
        with pytest.raises(WalError, match="no checkpoint bundle is loadable"):
            recover(tmp_path)

    def test_fallback_to_previous_bundle_plus_log(self, tmp_path):
        """Newest bundle corrupt, previous bundle + full log survive."""
        engine = build_wal_engine(SCHEMES[0], tmp_path)
        run_churn(engine, ops=10)
        live = logical_state(engine.labeled)
        # write a newer bundle by hand, then corrupt it; the original
        # ckpt-0 bundle and the full log still reconstruct everything
        watermark = engine.wal.next_lsn - 1
        bogus = tmp_path / f"ckpt-{watermark:016d}.labels"
        bogus.write_bytes(b"not a bundle")
        report = recover(tmp_path)
        assert report.checkpoint_path.name.endswith("0.labels")
        assert report.watermark == 0
        assert logical_state(report.labeled) == live
