"""The WAL manager: commit logging, fsync modeling, and checkpointing.

:class:`WalManager` owns one log directory::

    <dir>/wal.log                    the redo log (frames, append-only)
    <dir>/ckpt-<watermark>.labels    labelfile-v2 checkpoint bundles

Durability protocol (single writer, redo-only):

* **Group commit, always.**  :meth:`commit` only *stages* a frame in a
  volatile in-process buffer (site ``wal.append``); the staged buffer
  is the open batch.  :meth:`end_batch` is the one flush: it appends
  the whole buffer to ``wal.log`` with ``flush`` + ``os.fsync`` (site
  ``wal.fsync``).  A standalone engine op is a batch of one, the
  service's writer batches N ops; either way nothing staged is durable,
  or may be acknowledged, before ``end_batch`` returns, and only then
  is the fsync charged to the ledger.
* **Lost frames poison the manager.**  When staged frames are lost — a
  flush fails (a simulated crash at ``wal.fsync`` included), or a batch
  is abandoned with frames staged — the manager drops them and refuses
  every later :meth:`commit`, :meth:`end_batch` and :meth:`checkpoint`
  with :class:`~repro.wal.frames.WalError`.  The in-memory document may
  now be ahead of the log, so the only way forward is
  :func:`repro.wal.recover` over the directory (the service's
  quarantine-and-heal).
* **Checkpoint.**  Once the log holds as many bytes as the newest
  bundle, and at least :data:`CHECKPOINT_MIN_LOG_BYTES`
  (:meth:`maybe_checkpoint`, run by the caller *after* the batch's
  flush), the manager writes a full bundle at the current watermark
  (site ``wal.checkpoint_write``; the write itself is atomic via
  :func:`repro.storage.atomicio.atomic_write_bytes`), then truncates the
  log (site ``wal.checkpoint_truncate``, also an atomic replace) and
  unlinks older bundles.  A crash between the two leaves the new bundle
  *and* the full log: recovery skips records at or below the bundle's
  watermark — the idempotency path.  The rule keeps both durable costs
  in proportion to the log: the bundle bytes written never exceed the
  logged bytes plus the newest bundle, and replay reads at most about
  one bundle's worth of log (DESIGN.md §9).
* **Reopen.**  Constructing a manager over an existing directory scans
  the log tolerantly, physically truncates a torn tail, and resumes LSN
  assignment after the highest durable record.

Costs: each fsync is modeled as sequential page writes through the
same :class:`~repro.storage.pager.IOCostModel` the page store uses and
lands on the :class:`BatchReceipt` (a standalone op's
``UpdateResult.io_seconds``/``costs`` carry its batch of one);
checkpoints charge the ledger directly (they amortize across commits
and belong to no single update).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults import FAULTS
from repro.obs import OBS
from repro.storage.atomicio import atomic_write_bytes
from repro.storage.encoding import make_label_codec
from repro.storage.labelfile import save_labeled
from repro.storage.pager import DEFAULT_PAGE_BYTES, IOCostModel
from repro.wal.frames import (
    WalError,
    WalRecord,
    decode_record,
    encode_frame,
    encode_record,
    scan_frames,
)

__all__ = [
    "WalManager",
    "CommitReceipt",
    "CheckpointReceipt",
    "BatchReceipt",
    "LOG_NAME",
    "CHECKPOINT_MIN_LOG_BYTES",
    "checkpoint_files",
    "checkpoint_watermark",
]

LOG_NAME = "wal.log"
_CKPT_RE = re.compile(r"^ckpt-(\d+)\.labels$")

# The default policy checkpoints once the log is as large as the newest
# bundle, but never below this many log bytes: a small document's bundle
# is a few hundred bytes, and without a floor it would checkpoint (four
# fsyncs) every couple of commits.
CHECKPOINT_MIN_LOG_BYTES = 256 * 1024


def checkpoint_files(directory: "str | Path") -> list[tuple[int, Path]]:
    """All checkpoint bundles in ``directory``, newest watermark first.

    Tolerant of edge states a crash (or an operator) can leave behind:
    a missing directory scans as empty, and entries whose *name* matches
    the bundle pattern but which are not regular files (a directory, a
    dangling symlink) are skipped — recovery and pruning must never
    trip over them.
    """
    found = []
    try:
        entries = list(Path(directory).iterdir())
    except FileNotFoundError:
        return []
    for path in entries:
        match = _CKPT_RE.match(path.name)
        if match and path.is_file():
            found.append((int(match.group(1)), path))
    found.sort(key=lambda entry: entry[0], reverse=True)
    return found


def checkpoint_watermark(path: "str | Path") -> int:
    """The LSN watermark encoded in a checkpoint bundle's file name."""
    match = _CKPT_RE.match(Path(path).name)
    if match is None:
        raise WalError(f"{path}: not a checkpoint bundle name")
    return int(match.group(1))


@dataclass(frozen=True)
class CommitReceipt:
    """One staged commit: its LSN and frame (the fsync is the batch's)."""

    lsn: int
    frame_bytes: int
    charges: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BatchReceipt:
    """One group-commit batch: N coalesced commits behind a single fsync
    (N = 1 for a standalone engine op).

    ``io_seconds`` is the cost of the one shared fsync; dividing it (and
    the single ``wal.fsyncs`` unit in ``charges``) by ``commits`` gives
    the amortized per-commit durability cost the service reports.
    """

    first_lsn: int
    last_lsn: int
    commits: int
    frame_bytes: int
    io_seconds: float
    charges: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckpointReceipt:
    """One completed checkpoint: the new bundle and what it cost."""

    path: Path
    watermark: int
    bundle_bytes: int
    io_seconds: float
    charges: dict[str, int] = field(default_factory=dict)


class WalManager:
    """Append-only redo logging + checkpointing for one labeled document.

    Args:
        directory: the log directory (created if missing).  A fresh
            directory gets an initial checkpoint at watermark 0 so
            recovery always has a base state.
        labeled: the live document; checkpoints snapshot it, commits
            record labels minted by its scheme.
        io_model: per-page costs for fsync/checkpoint modeling
            (defaults to the page store's 8 ms/page).
        checkpoint_every_commits / checkpoint_every_bytes: explicit
            K/B thresholds.  By default (both ``None``) a checkpoint is
            due once the log holds ``max(CHECKPOINT_MIN_LOG_BYTES,
            bundle_bytes)`` bytes.  A K checkpoints after K commits as
            well; a B replaces that byte rule with a fixed B.
        page_bytes: page size used to convert byte counts to modeled
            page writes.

    ``bundle_bytes`` is the size of the newest bundle: the one this
    manager last wrote, or on reopen the newest one on disk.
    """

    def __init__(
        self,
        directory: "str | Path",
        labeled,
        *,
        io_model: IOCostModel | None = None,
        checkpoint_every_commits: int | None = None,
        checkpoint_every_bytes: int | None = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> None:
        for name, limit in (
            ("checkpoint_every_commits", checkpoint_every_commits),
            ("checkpoint_every_bytes", checkpoint_every_bytes),
        ):
            if limit is not None and limit < 1:
                raise ValueError(f"{name} must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.labeled = labeled
        self.io_model = io_model or IOCostModel()
        self.checkpoint_every_commits = checkpoint_every_commits
        self.checkpoint_every_bytes = checkpoint_every_bytes
        self.page_bytes = page_bytes
        self.log_path = self.directory / LOG_NAME
        self._buffer = bytearray()  # the open batch; volatile
        self._lost: str | None = None  # why staged frames were dropped
        self.next_lsn = 1
        self._durable_lsn = 0  # the last LSN the log holds
        self.commits_since_checkpoint = 0
        self.bytes_since_checkpoint = 0
        self.bundle_bytes = 0
        self._sweep_stray_temp_files()
        if checkpoint_files(self.directory):
            self._reopen()
        else:
            # Writes the bundle at watermark 0 and the (empty) log.
            self.checkpoint()

    def _sweep_stray_temp_files(self) -> None:
        """Remove ``*.tmp`` leftovers of a crashed ``atomic_write_bytes``.

        The atomic-replace recipe guarantees a ``.tmp`` sibling is never
        a valid artifact (the ``os.replace`` happened or it did not), so
        a stray one is pure garbage — but left in place it confuses
        directory listings and operators, and a *directory* squatting on
        a bundle-like name must simply be ignored (``checkpoint_files``
        skips non-regular entries).
        """
        try:
            entries = list(self.directory.iterdir())
        except FileNotFoundError:
            return
        for path in entries:
            if path.name.endswith(".tmp") and path.is_file():
                try:
                    path.unlink()
                except OSError:
                    # Best-effort: a locked stray file is still inert.
                    continue

    # -- logging -----------------------------------------------------------

    def encode_subtree_labels(self, labeled, roots) -> bytes:
        """The bit-exact byte image of every label under ``roots``.

        This is the record's "delta" payload: for a CDBS insert it is
        exactly the freshly-minted labels (existing labels are untouched
        — the paper's Section 4 claim), so its size is the durable
        footprint DESIGN.md §9 measures.
        """
        labels = [
            labeled.label_of(node)
            for root in roots
            for node in root.pre_order()
        ]
        # Built per call, not cached: a relabel fallback can widen the
        # scheme codec's length field mid-run, and the stream framing
        # must track the state the labels were minted under.
        return make_label_codec(labeled.scheme).encode(labels)

    def commit(
        self,
        op: str,
        subops: list[dict],
        request_id: "str | None" = None,
    ) -> CommitReceipt:
        """Stage one committed transaction's record; returns its receipt.

        The frame only reaches the volatile buffer: it is durable once
        the :meth:`end_batch` that flushes it returns, and the caller
        must not acknowledge the commit before then.  Raises whatever
        the armed fault plan injects at ``wal.append`` (before the frame
        is staged, so nothing of it survives), and :class:`WalError`
        once staged frames were lost.
        """
        self._check_usable()
        record = WalRecord(
            lsn=self.next_lsn,
            op=op,
            scheme=self.labeled.scheme.name,
            subops=tuple(subops),
            request_id=request_id,
        )
        frame = encode_frame(encode_record(record))
        if FAULTS.enabled:
            FAULTS.hit("wal.append")
        self._buffer += frame
        self.next_lsn += 1
        self.commits_since_checkpoint += 1
        self.bytes_since_checkpoint += len(frame)
        charges = {
            "wal.records_appended": 1,
            "wal.bytes_appended": len(frame),
        }
        if OBS.enabled:
            with OBS.span("wal.commit", op=op):
                for unit, amount in charges.items():
                    OBS.charge(unit, amount)
        return CommitReceipt(
            lsn=record.lsn, frame_bytes=len(frame), charges=charges
        )

    def end_batch(self) -> BatchReceipt | None:
        """Flush every staged frame with one fsync; returns the receipt.

        Returns ``None`` when nothing is staged (no fsync is issued for
        an empty batch).  If the flush raises — whatever the armed fault
        plan injects at ``wal.fsync`` included — the staged frames are
        lost and the manager refuses further work (:meth:`commit`).
        """
        self._check_usable()
        if not self._buffer:
            return None
        first_lsn = self._durable_lsn + 1
        frame_bytes = len(self._buffer)
        try:
            if FAULTS.enabled:
                FAULTS.hit("wal.fsync")
            self._flush()
        except BaseException as error:
            self._lose_staged(f"the batch flush failed: {error!r}")
            raise
        self._durable_lsn = self.next_lsn - 1
        commits = self._durable_lsn - first_lsn + 1
        charges = {
            "wal.fsyncs": 1,
            "wal.batches": 1,
            "wal.batch_commits": commits,
        }
        if OBS.enabled:
            with OBS.span("wal.batch", op="batch"):
                for unit, amount in charges.items():
                    OBS.charge(unit, amount)
        return BatchReceipt(
            first_lsn=first_lsn,
            last_lsn=self._durable_lsn,
            commits=commits,
            frame_bytes=frame_bytes,
            io_seconds=self.io_model.cost(0, self._pages_for(frame_bytes)),
            charges=charges,
        )

    def abandon_batch(self) -> None:
        """Give up on the staged frames (a caller's batch failed).

        With frames staged they are lost and the manager refuses further
        work; with none staged this is a no-op and the manager stays
        usable (an op that aborted before staging changed nothing).
        """
        if self._buffer:
            self._lose_staged("a batch was abandoned with frames staged")

    def _lose_staged(self, reason: str) -> None:
        self._buffer.clear()
        self._lost = reason

    def _check_usable(self) -> None:
        if self._lost is not None:
            raise WalError(
                f"staged WAL frames were lost ({self._lost}); the document "
                f"may be ahead of {self.directory} — recover the directory "
                f"before committing again"
            )

    def _flush(self) -> None:
        """Move the volatile buffer to the durable log (append + fsync)."""
        with open(self.log_path, "ab") as handle:
            handle.write(bytes(self._buffer))
            handle.flush()
            os.fsync(handle.fileno())
        self._buffer.clear()

    def _pages_for(self, byte_count: int) -> int:
        return max(1, -(-byte_count // self.page_bytes))

    # -- checkpointing -----------------------------------------------------

    def maybe_checkpoint(self) -> CheckpointReceipt | None:
        """Checkpoint if the policy says it is due.

        By default that is once the log holds as many bytes as the
        newest bundle, and at least :data:`CHECKPOINT_MIN_LOG_BYTES`.
        An explicit B replaces that byte threshold; an explicit K makes
        K commits due as well.
        """
        byte_limit = self.checkpoint_every_bytes
        if byte_limit is None:
            byte_limit = max(CHECKPOINT_MIN_LOG_BYTES, self.bundle_bytes)
        commit_limit = self.checkpoint_every_commits
        if self.bytes_since_checkpoint < byte_limit and (
            commit_limit is None
            or self.commits_since_checkpoint < commit_limit
        ):
            return None
        return self.checkpoint()

    def checkpoint(self) -> CheckpointReceipt:
        """Write a bundle at the current watermark, then truncate the log.

        Ordering is the safety argument: the bundle lands (atomically)
        *before* the log shrinks, so a crash at either fault site
        leaves a recoverable pair — old bundle + full log, or new
        bundle + full log (recovery skips the already-covered prefix).
        """
        self._check_usable()
        if self._buffer:
            raise WalError(
                "cannot checkpoint with frames staged: the watermark "
                "would cover records that are not yet durable — "
                "end_batch() first"
            )
        watermark = self.next_lsn - 1
        if FAULTS.enabled:
            FAULTS.hit("wal.checkpoint_write")
        path = self.directory / f"ckpt-{watermark:016d}.labels"
        bundle_bytes = save_labeled(self.labeled, path)
        if FAULTS.enabled:
            FAULTS.hit("wal.checkpoint_truncate")
        atomic_write_bytes(self.log_path, b"")
        for old_watermark, old_path in checkpoint_files(self.directory):
            if old_watermark < watermark:
                old_path.unlink()
        self.commits_since_checkpoint = 0
        self.bytes_since_checkpoint = 0
        self.bundle_bytes = bundle_bytes
        pages = self._pages_for(bundle_bytes) + 1  # bundle + log truncate
        io_seconds = self.io_model.cost(0, pages)
        charges = {
            "wal.checkpoints": 1,
            "wal.checkpoint_bytes": bundle_bytes,
        }
        if OBS.enabled:
            for unit, amount in charges.items():
                OBS.charge(unit, amount)
        return CheckpointReceipt(
            path=path,
            watermark=watermark,
            bundle_bytes=bundle_bytes,
            io_seconds=io_seconds,
            charges=charges,
        )

    # -- reopen ------------------------------------------------------------

    def _reopen(self) -> None:
        """Resume over an existing directory: fix the tail, continue LSNs."""
        watermark, newest = checkpoint_files(self.directory)[0]
        self.bundle_bytes = newest.stat().st_size
        data = self.log_path.read_bytes() if self.log_path.exists() else b""
        payloads, tail = scan_frames(data)
        if not tail.clean:
            # Drop the torn tail for good: later appends must not
            # resurrect garbage between two valid frames.
            atomic_write_bytes(self.log_path, data[: tail.valid_bytes])
            if OBS.enabled:
                OBS.inc("wal.tails_truncated")
        last_lsn = watermark
        if payloads:
            # Frames are appended in LSN order; the last one wins.
            try:
                last_lsn = max(last_lsn, decode_record(payloads[-1]).lsn)
            except WalError:
                # CRC-valid but undecodable: treat like a torn tail.
                pass
        self.next_lsn = last_lsn + 1
        self._durable_lsn = last_lsn
        self.commits_since_checkpoint = max(0, last_lsn - watermark)
        self.bytes_since_checkpoint = (
            self.log_path.stat().st_size if self.log_path.exists() else 0
        )
