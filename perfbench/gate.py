"""The correctness gate: what the serving process saw vs. the expected state.

For every document of the run:

* the last acked view of every round serializes to the shadow's expected
  XML, where the expectation is the op stream's applied prefix replayed
  on a fresh shadow (rounds repeat the same requests, so they share it);
* its version equals the number of acked commits, so no acked write is
  missing from the view;

and on the last round's service:

* ``repro.verify.verify_integrity`` found nothing;
* ``repro.wal.recover`` of its WAL directory serializes to the same XML,
  so every acked write survives a restart;
* Table 3 queries Q1–Q6 on the view match
  ``repro.query.reference.evaluate_reference`` on the expected document,
  and label-only relationship answers match its tree;

and over every round no request failed and no read saw a version
above the acked one (or below one the client had already seen).
"""

from __future__ import annotations

import hashlib

from repro.query import TABLE3_QUERIES, evaluate_reference
from repro.xmltree import parse_document

from workloads import document_xml, replay_ops

__all__ = ["check"]


def _depth(node) -> int:
    depth = 0
    while node.parent is not None:
        node = node.parent
        depth += 1
    return depth


def _relationship_failures(doc_id, expected, answers) -> "list[str]":
    nodes = list(expected.pre_order())
    failures = []
    for answer in answers:
        first, second = nodes[answer["first"]], nodes[answer["second"]]
        truth = {
            "ancestor": first.is_ancestor_of(second),
            "descendant": second.is_ancestor_of(first),
            "parent": second.parent is first,
            "child": first.parent is second,
        }
        if first is not second:
            truth["sibling"] = (
                first.parent is not None and first.parent is second.parent
            )
        for key, value in truth.items():
            if answer[key] is not None and answer[key] != value:
                failures.append(
                    f"{doc_id}: relationship({answer['first']}, {answer['second']})"
                    f" says {key}={answer[key]}, the document says {value}"
                )
        levels = (answer["level_first"], answer["level_second"])
        if None not in levels and levels[0] - levels[1] != _depth(first) - _depth(second):
            failures.append(
                f"{doc_id}: relationship({answer['first']}, {answer['second']})"
                f" level difference {levels[0] - levels[1]}, the document says "
                f"{_depth(first) - _depth(second)}"
            )
    return failures


def check(documents, ops, outputs, *, drop_expected_op=None) -> "list[str]":
    """Every mismatch found, as readable lines (empty when correct)."""
    failures: list[str] = []
    rounds = outputs["rounds"]
    for played in rounds:
        label = f"round {played['index']}"
        if played["failures"]:
            failures.append(f"{label}: {played['failures']} requests failed")
        if played["version_violations"]:
            failures.append(
                f"{label}: {played['version_violations']} reads saw a version above "
                f"the acked one or below one already seen"
            )
    restart = outputs["restart"]
    for doc_id, document in documents.items():
        applied = rounds[-1]["applied"][doc_id]
        final = outputs["final"][doc_id]
        expected_ops = list(ops[doc_id][:applied])
        if drop_expected_op is not None and expected_ops:
            del expected_ops[min(drop_expected_op, len(expected_ops) - 1)]
        if final["version"] != applied or final["stats"]["commits_acked"] != applied:
            failures.append(
                f"{doc_id}: {applied} updates acked, but the view is at version "
                f"{final['version']} after {final['stats']['commits_acked']} commits"
            )
        try:
            expected_xml = document_xml(replay_ops(document, expected_ops))
        except (IndexError, ValueError) as error:
            failures.append(f"{doc_id}: the expected stream does not apply: {error}")
            continue
        # Every round applies the same requests to fresh documents, so
        # every round must end at the same state.
        digest = hashlib.sha256(expected_xml.encode("utf-8")).hexdigest()
        for played in rounds:
            label = f"{doc_id}, round {played['index']}"
            counts = (
                played["applied"][doc_id],
                played["versions"][doc_id],
                played["commits_acked"][doc_id],
            )
            if counts != (applied, applied, applied):
                failures.append(
                    f"{label}: applied, view version and acked commits are {counts}, "
                    f"not {applied} as in the last round"
                )
            if played["xml_sha256"][doc_id] != digest:
                failures.append(f"{label}: the last acked view differs from the expected XML")
        if final["xml"] != expected_xml:
            failures.append(f"{doc_id}: the last acked view differs from the expected XML")
        if restart["recovered_xml"][doc_id] != expected_xml:
            failures.append(f"{doc_id}: recovery differs from the expected XML")
        if restart["violations"][doc_id]:
            failures.append(
                f"{doc_id}: verify_integrity found {restart['violations'][doc_id]} violations"
            )
        expected = parse_document(expected_xml)
        order = {id(node): index for index, node in enumerate(expected.pre_order())}
        for query_id, query in TABLE3_QUERIES.items():
            reference = [
                [order[id(node)], node.name] for node in evaluate_reference(expected, query)
            ]
            if final["queries"][query_id] != reference:
                failures.append(
                    f"{doc_id}: {query_id} returned {len(final['queries'][query_id])} "
                    f"matches, the reference {len(reference)} (or other nodes)"
                )
        failures += _relationship_failures(doc_id, expected, final["relationships"])
    return failures
