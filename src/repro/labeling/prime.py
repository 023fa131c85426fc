"""The Prime labeling scheme (Wu, Lee & Hsu, ICDE 2004 — Section 2.3).

Each node carries a unique prime *self label*; its full label is the
product of its parent's label and its self label, so

* ``u`` is an ancestor of ``v``  iff ``label(v) mod label(u) = 0``;
* ``u`` is the parent of ``v``   iff ``label(v) / self(v) = label(u)``.

Document order is *not* in the labels: it lives in **SC values**
(simultaneous congruences, Chinese Remainder Theorem), one per group of
five consecutive nodes in document order: ``SC mod self(node) = order``.
When an insertion shifts document order, Prime re-labels nothing but
must re-derive the SC value of every group from the first disturbed one
onwards — the big-integer CRT work the paper measures to be ~191× more
expensive than even full re-labeling (Figure 7).

Two deliberate, documented deviations that keep the arithmetic sound:

* primes start at 11 (2/3/5/7 are skipped), so a group-local order in
  ``1..5`` is always recoverable as ``SC mod prime`` — the global order
  key is the pair ``(group index, local order)``;
* the root receives a prime too (Wu labels it 1), keeping every node
  uniform in the group machinery.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice

from repro.faults import FAULTS
from repro.labeling.base import LabeledDocument, LabelingScheme, UpdateStats
from repro.obs import OBS
from repro.xmltree.document import Document
from repro.xmltree.node import Node

__all__ = ["first_primes", "crt", "PrimeLabel", "ScGroup", "PrimeScheme", "prime_scheme"]

GROUP_SIZE = 5
"""Nodes per SC value — "Prime uses each SC value for every five nodes"
(Section 7.3)."""

_MIN_PRIME = 11


def first_primes(count: int, *, minimum: int = _MIN_PRIME) -> list[int]:
    """The first ``count`` primes that are >= ``minimum``.

    A numpy sieve sized by the Rosser bound keeps this fast enough for
    the 370k-node D6 corpus.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return []
    import numpy as np  # only Prime needs it; keep it off other imports

    # Upper bound for the (count + small slack)-th prime.
    need = count + 8  # slack for the primes below `minimum` we discard
    if need < 6:
        bound = 20
    else:
        bound = int(need * (math.log(need) + math.log(math.log(need)))) + 10
    while True:
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for value in range(2, int(bound**0.5) + 1):
            if sieve[value]:
                sieve[value * value :: value] = False
        primes = np.flatnonzero(sieve)
        primes = primes[primes >= minimum]
        if len(primes) >= count:
            return [int(p) for p in primes[:count]]
        bound *= 2


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve ``x ≡ residues[i] (mod moduli[i])`` for pairwise-coprime moduli.

    The incremental construction is the textbook one (Anderson & Bell,
    the paper's reference [3]); the result is the canonical solution in
    ``[0, prod(moduli))``.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli differ in length")
    solution, modulus = 0, 1
    for residue, m in zip(residues, moduli):
        step = ((residue - solution) * pow(modulus, -1, m)) % m
        solution += modulus * step
        modulus *= m
    return solution


class ScGroup:
    """One SC value covering up to five consecutive nodes."""

    __slots__ = ("index", "primes", "sc")

    def __init__(self, index: int, primes: list[int], orders: list[int]) -> None:
        self.index = index
        self.primes = primes
        self.sc = crt(orders, primes)

    def local_order(self, prime: int) -> int:
        """Recover the 1-based in-group position of a member node."""
        return self.sc % prime


class PrimeLabel:
    """``(product, self prime)`` plus the node's current SC group."""

    __slots__ = ("product", "self_label", "group")

    def __init__(self, product: int, self_label: int) -> None:
        self.product = product
        self.self_label = self_label
        self.group: ScGroup | None = None

    def __repr__(self) -> str:
        return f"PrimeLabel({self.product}, self={self.self_label})"


class PrimeScheme(LabelingScheme):
    """Prime labeling with CRT-maintained document order."""

    name = "Prime"
    family = "prime"
    # Prime is "dynamic" in the sense of Table 4 (no label rewritten),
    # but every order-shifting update recomputes SC values.
    dynamic = True

    # -- labeling ------------------------------------------------------------

    def label_document(self, document: Document) -> LabeledDocument:
        labeled = LabeledDocument(document, self)
        labeled.rebuild_order()
        count = len(labeled.nodes_in_order)
        primes = iter(first_primes(count))
        for node in labeled.nodes_in_order:
            prime = next(primes)
            if node.parent is None:
                product = prime
            else:
                product = labeled.label_of(node.parent).product * prime
            labeled.set_label(node, PrimeLabel(product, prime))
        labeled.extra["next_prime_floor"] = (
            labeled.label_of(labeled.nodes_in_order[-1]).self_label + 1
            if count
            else _MIN_PRIME
        )
        self._rebuild_groups(labeled, from_group=0)
        return labeled

    def _rebuild_groups(self, labeled: LabeledDocument, from_group: int) -> int:
        """Recompute SC groups from ``from_group`` on; returns the count.

        One ordered walk from the first disturbed position — O(log N) to
        locate it, then linear in the *suffix* (the CRT work the paper
        charges Prime for), never in the whole document.
        """
        groups: list[ScGroup] = labeled.extra.setdefault("sc_groups", [])
        log = labeled.undo_log
        saved_label_groups: list[tuple[PrimeLabel, ScGroup | None]] | None
        if log is not None:
            # The closure is recorded up front but keeps filling as the
            # walk overwrites each label's group, so a fault mid-suffix
            # still unwinds exactly the labels touched so far.
            saved_tail = groups[from_group:]
            saved_label_groups = []

            def undo_groups() -> None:
                del groups[from_group:]
                groups.extend(saved_tail)
                for label, old_group in reversed(saved_label_groups):
                    label.group = old_group

            log.record(undo_groups)
        else:
            saved_label_groups = None
        del groups[from_group:]
        nodes = labeled.nodes_in_order
        start = min(from_group * GROUP_SIZE, len(nodes))
        suffix = nodes.iter_from(start)
        rebuilt = 0
        while True:
            members = list(islice(suffix, GROUP_SIZE))
            if not members:
                break
            if FAULTS.enabled:
                # SC recomputation is Prime's relabel analogue: each
                # group re-solved is one step.
                FAULTS.hit("relabel.step")
            labels = [labeled.label_of(node) for node in members]
            group = ScGroup(
                index=len(groups),
                primes=[label.self_label for label in labels],
                orders=list(range(1, len(members) + 1)),
            )
            for label in labels:
                if saved_label_groups is not None:
                    saved_label_groups.append((label, label.group))
                label.group = group
            groups.append(group)
            rebuilt += 1
        if OBS.enabled and rebuilt:
            OBS.charge("prime.sc_groups_recomputed", rebuilt)
        return rebuilt

    def label_bits(self, label: PrimeLabel) -> int:
        """Product plus self-label bits — the Figure 5 "very large" sizes."""
        return label.product.bit_length() + label.self_label.bit_length()

    # -- predicates ------------------------------------------------------------

    def is_ancestor(self, ancestor_label: PrimeLabel, descendant_label: PrimeLabel) -> bool:
        if OBS.enabled:
            OBS.charge("labels.compared", 1)
        return (
            descendant_label.product != ancestor_label.product
            and descendant_label.product % ancestor_label.product == 0
        )

    def is_parent(self, parent_label: PrimeLabel, child_label: PrimeLabel) -> bool:
        if OBS.enabled:
            OBS.charge("labels.compared", 1)
        return (
            child_label.product // child_label.self_label
            == parent_label.product
        )

    def order_key(self, label: PrimeLabel) -> tuple[int, int]:
        group = label.group
        if group is None:
            raise ValueError("label has no SC group; document not labeled")
        return (group.index, group.sc % label.self_label)

    # -- updates -----------------------------------------------------------------

    def _take_primes(self, labeled: LabeledDocument, count: int) -> list[int]:
        floor = labeled.extra.get("next_prime_floor", _MIN_PRIME)
        log = labeled.undo_log
        if log is not None:
            log.record(
                partial(labeled.extra.__setitem__, "next_prime_floor", floor)
            )
        primes = first_primes(count, minimum=floor)
        labeled.extra["next_prime_floor"] = primes[-1] + 1 if primes else floor
        return primes

    def insert_subtree(
        self,
        labeled: LabeledDocument,
        parent: Node,
        index: int,
        subtree_root: Node,
    ) -> UpdateStats:
        if id(parent) not in labeled.labels:
            raise ValueError("parent does not belong to the labeled document")
        index = max(0, min(index, len(parent.children)))
        labeled.splice_in(parent, index, subtree_root)
        new_nodes = list(subtree_root.pre_order())
        primes = iter(self._take_primes(labeled, len(new_nodes)))
        for node in new_nodes:
            prime = next(primes)
            product = labeled.label_of(node.parent).product * prime
            labeled.set_label(node, PrimeLabel(product, prime))
        labeled.register_subtree(subtree_root)
        # Every node from the subtree's position onward changed document
        # order; re-derive the SC value of each group that covers any of
        # them (groups are fixed chunks of five in document order).
        position = labeled.position_of(subtree_root)
        recomputed = self._rebuild_groups(
            labeled, from_group=position // GROUP_SIZE
        )
        if OBS.enabled:
            OBS.charge("labeling.labels_assigned", len(new_nodes))
        return UpdateStats(
            inserted_nodes=len(new_nodes),
            labels_written=len(new_nodes),
            sc_recomputed=recomputed,
        )

    def delete_subtree(
        self, labeled: LabeledDocument, subtree_root: Node
    ) -> UpdateStats:
        position = labeled.position_of(subtree_root)
        removed = labeled.unregister_subtree(subtree_root)
        labeled.splice_out(subtree_root)
        recomputed = self._rebuild_groups(
            labeled, from_group=position // GROUP_SIZE
        )
        return UpdateStats(
            deleted_nodes=len(removed), sc_recomputed=recomputed
        )


def prime_scheme() -> PrimeScheme:
    """Factory mirroring the other scheme constructors."""
    return PrimeScheme()
