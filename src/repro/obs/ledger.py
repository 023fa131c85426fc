"""Cost ledger: paper cost units attributed to the operation paying them.

The paper's experiments (Section 7) measure updates in *cost units* —
labels compared, middle-string bits generated, pages touched, nodes
re-labeled — not just wall-clock time.  :class:`CostLedger` is the
single place those units accumulate.  Each charge lands twice: in a
global ``totals`` map and in a ``by_op`` map keyed by the operation
that was active when the cost was incurred (the ``op`` tag of the
innermost span; see :mod:`repro.obs.registry`).

``COST_UNITS`` is the catalogue of every unit the instrumented code
charges, with its unit-of-measure and the paper cost it reproduces.
Docs and the CLI render it; the ledger itself accepts any unit name so
experiments can add ad-hoc units without registration ceremony.
"""

from __future__ import annotations

__all__ = ["CostLedger", "COST_UNITS", "UNATTRIBUTED"]

UNATTRIBUTED = "(unattributed)"

# unit name -> (unit of measure, paper cost it reproduces)
COST_UNITS: dict[str, tuple[str, str]] = {
    "labels.compared": (
        "comparisons",
        "ancestor/parent label decisions (Sec. 3 query predicates)",
    ),
    "labeling.labels_assigned": (
        "labels",
        "fresh labels written by an insertion (Sec. 5 dynamic formulae)",
    ),
    "labeling.nodes_relabeled": (
        "nodes",
        "existing nodes whose label changed (the paper's headline cost)",
    ),
    "labeling.relabel_events": (
        "events",
        "update ops that triggered any relabeling (Table 4 storms)",
    ),
    "middle.codes_assigned": (
        "codes",
        "CDBS middle binary strings generated (Sec. 4.1 Algorithm 1)",
    ),
    "middle.bits_generated": (
        "bits",
        "total size of generated middle strings (Sec. 4.2 Theorem 2)",
    ),
    "pager.pages_read": (
        "pages",
        "label-store pages fetched (Sec. 7 I/O experiments)",
    ),
    "pager.pages_written": (
        "pages",
        "label-store pages written back",
    ),
    "pager.pages_invalidated": (
        "pages",
        "buffered pages dropped when a splice shifted offsets",
    ),
    "pager.pool_hits": (
        "accesses",
        "buffer-pool hits (reads served without I/O)",
    ),
    "pager.pool_misses": (
        "accesses",
        "buffer-pool misses (reads that paid a page fetch)",
    ),
    "prime.sc_groups_recomputed": (
        "groups",
        "CRT simultaneous-congruence groups re-solved (prime scheme)",
    ),
    "query.evaluations": ("queries", "path queries evaluated"),
    "query.candidates_scanned": (
        "nodes",
        "candidate nodes examined by structural-join steps",
    ),
    "query.scan_bytes": (
        "bytes",
        "label bytes scanned while evaluating a query",
    ),
    "engine.nodes_inserted": (
        "nodes",
        "UpdateStats.inserted_nodes, ledger-side",
    ),
    "engine.nodes_deleted": ("nodes", "UpdateStats.deleted_nodes, ledger-side"),
    "engine.nodes_relabeled": (
        "nodes",
        "UpdateStats.relabeled_nodes, ledger-side",
    ),
    "engine.sc_groups_recomputed": (
        "groups",
        "UpdateStats.sc_recomputed, ledger-side",
    ),
    "engine.labels_written": (
        "labels",
        "UpdateStats.labels_written, ledger-side",
    ),
    "engine.pages_touched": (
        "pages",
        "pages the storage model charged for one update",
    ),
    "wal.records_appended": (
        "records",
        "redo records durably logged (one per committed transaction)",
    ),
    "wal.bytes_appended": (
        "bytes",
        "framed WAL bytes fsync'd — the durable footprint of updates "
        "(Sec. 4.2: proportional to the label delta, not the document)",
    ),
    "wal.fsyncs": (
        "fsyncs",
        "explicit durability barriers (one per group commit; a "
        "standalone op is a group of one)",
    ),
    "wal.batches": (
        "batches",
        "group commits flushed to the log",
    ),
    "wal.batch_commits": (
        "records",
        "redo records the flushed group commits carried",
    ),
    "wal.checkpoints": (
        "checkpoints",
        "labelfile-v2 bundles written by the K-commits/B-bytes policy",
    ),
    "wal.checkpoint_bytes": (
        "bytes",
        "total size of checkpoint bundles written",
    ),
}


class CostLedger:
    """Accumulates integer cost units, globally and per operation."""

    __slots__ = ("totals", "by_op")

    def __init__(self) -> None:
        self.totals: dict[str, int] = {}
        self.by_op: dict[str, dict[str, int]] = {}

    def add(self, op: str, unit: str, amount: int) -> None:
        if amount < 0:
            raise ValueError(
                f"ledger unit {unit!r} cannot be charged a negative "
                f"amount ({amount})"
            )
        if amount == 0:
            return
        self.totals[unit] = self.totals.get(unit, 0) + amount
        bucket = self.by_op.get(op)
        if bucket is None:
            bucket = {}
            self.by_op[op] = bucket
        bucket[unit] = bucket.get(unit, 0) + amount

    def total(self, unit: str) -> int:
        return self.totals.get(unit, 0)

    def op_total(self, op: str, unit: str) -> int:
        return self.by_op.get(op, {}).get(unit, 0)

    def totals_snapshot(self) -> dict[str, int]:
        """Cheap copy of the totals map, for before/after cost deltas."""
        return dict(self.totals)

    def state_snapshot(self) -> dict:
        """Full copy of totals *and* per-op attribution.

        Taken by :class:`repro.updates.txn.Transaction` at begin so a
        rollback can return the ledger — not just the document — to the
        exact pre-operation state via :meth:`restore`.
        """
        return {
            "totals": dict(self.totals),
            "by_op": {op: dict(units) for op, units in self.by_op.items()},
        }

    def restore(self, state: dict) -> None:
        """Reset the ledger to a :meth:`state_snapshot` capture."""
        self.totals = dict(state["totals"])
        self.by_op = {op: dict(units) for op, units in state["by_op"].items()}

    def clear(self) -> None:
        self.totals.clear()
        self.by_op.clear()

    def snapshot(self) -> dict:
        return {
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
            "by_op": {
                op: {k: units[k] for k in sorted(units)}
                for op, units in sorted(self.by_op.items())
            },
        }
