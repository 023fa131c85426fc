"""A dynamic XML editor session: the paper's motivating workload.

Simulates an editor working on a Shakespeare-sized play while the
document stays labeled and queryable: scene insertions, speech edits,
deletions — comparing what each labeling scheme pays per edit.  This is
Section 7.3/7.4 of the paper as a user-facing scenario.

Run:  python examples/dynamic_editor.py
"""

from repro.datasets import build_hamlet
from repro.labeling import make_scheme
from repro.obs import OBS
from repro.query import QueryEngine
from repro.updates import UpdateEngine
from repro.xmltree import Node


def make_speech(speaker: str, lines: list[str]) -> Node:
    speech = Node.element("speech")
    speech.append_child(Node.element("speaker")).append_child(Node.text(speaker))
    for line in lines:
        speech.append_child(Node.element("line")).append_child(Node.text(line))
    return speech


def editing_session(scheme_name: str) -> None:
    document = build_hamlet()
    scheme = make_scheme(scheme_name)
    labeled = scheme.label_document(document)
    engine = UpdateEngine(labeled, with_storage=True)
    queries = QueryEngine(labeled)

    print(f"\n=== editing with {scheme_name} ===")
    # Observability on for the session: every edit's cost units land in
    # the ledger, attributed to the op (insert/delete) that paid them.
    with OBS.capture(), OBS.span("editor.session") as session:
        # 1. The editor drafts a new speech at the top of act 3, scene 1.
        scene = queries.evaluate("/play/act[3]/scene[1]")[0]
        draft = make_speech(
            "HAMLET", ["To be, or not to be, that is the question"]
        )
        first = engine.insert_child(scene, draft, index=1)

        # 2. Revises it: adds a follow-up speech right after.
        follow = make_speech(
            "HAMLET", ["Whether 'tis nobler in the mind to suffer"]
        )
        engine.insert_after(draft, follow)

        # 3. Deletes a stage direction somewhere later.
        stagedirs = queries.evaluate("/play/act[4]//stagedir")
        if stagedirs:
            engine.delete(stagedirs[0])

        # 4. Inserts 25 rapid-fire line edits at the same spot (skew!).
        for i in range(25):
            engine.insert_child(
                draft, Node.element("line"), index=len(draft.children)
            )

    totals = engine.totals
    ledger = OBS.ledger
    print(
        f"  28 edits in {session.seconds * 1000:.1f} ms wall "
        f"(modelled I/O included per-op)"
    )
    print(
        f"  nodes inserted={totals.inserted_nodes} deleted={totals.deleted_nodes} "
        f"re-labeled={totals.relabeled_nodes} sc-recomputed={totals.sc_recomputed}"
    )
    print(
        f"  ledger: {ledger.total('middle.bits_generated')} middle bits, "
        f"{ledger.total('labeling.labels_assigned')} labels assigned, "
        f"{ledger.total('pager.pages_written')} pages written "
        f"({ledger.op_total('insert', 'pager.pages_written')} of those "
        f"page writes from inserts)"
    )
    # The document is still fully queryable, in order.
    speeches = queries.evaluate("/play/act[3]/scene[1]/speech")
    speakers = [s.children[0].text_content() for s in speeches[:3]]
    print(f"  act 3 scene 1 now opens with speeches by: {speakers}")


def main() -> None:
    for scheme_name in (
        "V-CDBS-Containment",  # the paper's scheme: zero re-labels
        "QED-Prefix",          # dynamic, overflow-free
        "V-Binary-Containment",  # the baseline that re-labels thousands
        "Prime",               # re-labels nothing but recomputes SC values
    ):
        editing_session(scheme_name)


if __name__ == "__main__":
    main()
