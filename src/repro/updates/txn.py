"""Undo-log transactions: every engine op commits fully or not at all.

A structural update touches many structures — the tree, the label map,
the document-order index, the tag index, the page store, its buffer
pool, and the cost ledger.  A failure between any two of those writes
(a :class:`~repro.errors.RelabelRequired` the fallback cannot absorb, a
storage fault, a plain bug) used to leave them mutually inconsistent.

:class:`Transaction` fixes that with a classic undo log: while one is
open, every mutation site records a closure that inverts it, and on
failure the log replays those closures in strict reverse order, then
restores the obs ledger, so the observable state is byte-identical to
the pre-operation snapshot.  The caller sees a single
:class:`~repro.errors.UpdateAborted` chaining the original error.

Durability is not the transaction's business: the engine stages an
op's WAL record as the last step of the transaction body, and the fsync
happens when the op's commit group closes, after the transaction.

Layering: labeling and storage never import this module.  They carry a
duck-typed ``undo_log`` attribute (``None`` by default) that
:class:`Transaction` binds on entry and clears on exit — the same
pattern :mod:`repro.obs` uses to stay a leaf.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import RollbackError, SimulatedCrash, UpdateAborted
from repro.obs import OBS

__all__ = ["UndoLog", "Transaction"]


class UndoLog:
    """An ordered list of inverse operations, replayed LIFO on rollback."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[Callable[[], Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, undo: Callable[[], Any]) -> None:
        """Append one inverse operation (a no-argument closure)."""
        self._entries.append(undo)

    def rollback(self) -> int:
        """Run every recorded inverse, newest first; returns the count.

        An inverse that raises is a bug in the undo log itself, not a
        recoverable condition: the remaining entries are dropped and a
        :class:`RollbackError` chains the failure so the caller knows
        the state may be inconsistent.
        """
        undone = 0
        while self._entries:
            undo = self._entries.pop()
            try:
                undo()
            except BaseException as exc:
                self._entries.clear()
                raise RollbackError(
                    f"undo entry {undo!r} failed after {undone} entries "
                    f"were already unwound"
                ) from exc
            undone += 1
        return undone


class Transaction:
    """Context manager making one engine operation atomic.

    On entry it snapshots the ledger and binds a fresh :class:`UndoLog`
    to the labeled document (and the label store, when present).  A
    clean exit discards the log — commit is free.  An exceptional exit
    unwinds the log, restores the ledger (erasing any costs the aborted
    half charged, including any paid *during* rollback),
    counts ``txn.rollbacks``, and re-raises as :class:`UpdateAborted`.

    Control-flow exceptions outside ``Exception`` (``KeyboardInterrupt``
    and friends) still trigger the rollback but propagate unwrapped, as
    does :class:`~repro.errors.SimulatedCrash` — a crash is the process
    dying, not a recoverable abort, so wrapping it in ``UpdateAborted``
    would invite a retry that cannot help.
    """

    def __init__(self, op: str, labeled: Any, store: Any = None) -> None:
        self.op = op
        self.labeled = labeled
        self.store = store
        self.log = UndoLog()
        self._ledger_state: dict | None = None

    def __enter__(self) -> "Transaction":
        self._ledger_state = (
            OBS.ledger.state_snapshot() if OBS.enabled else None
        )
        self.labeled.undo_log = self.log
        if self.store is not None:
            self.store.bind_undo(self.log)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Unbind before rolling back: the inverses mutate raw state and
        # must not be re-recorded by the instrumented mutation sites.
        self.labeled.undo_log = None
        if self.store is not None:
            self.store.bind_undo(None)
        if exc is None:
            return False
        self.log.rollback()
        if self._ledger_state is not None:
            OBS.ledger.restore(self._ledger_state)
        OBS.inc("txn.rollbacks")
        if isinstance(exc, Exception) and not isinstance(exc, SimulatedCrash):
            raise UpdateAborted(self.op, exc) from exc
        # A simulated crash is the "process" dying: the in-memory state
        # is rolled back (the survivor is whatever reached disk) and the
        # crash propagates raw, like any non-Exception control flow.
        return False
