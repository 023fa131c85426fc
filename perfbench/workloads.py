"""Workload inputs: documents, the seeded op streams, and the expected state.

Everything here runs in the harness process, never in the serving
process: the shadow documents that make every positional op valid (and
that give the expected final state) must not count toward the serving
process's memory or time.

The shadow is a deliberately plain tree (:class:`ShadowNode`) with
subtree sizes, its own document-order arithmetic and its own serializer;
it shares no code with the labeled documents it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.datasets import build_d5, build_hamlet, build_play
from repro.xmltree import Document, NodeKind

__all__ = [
    "WORKLOADS",
    "Workload",
    "ShadowNode",
    "shadow_from_document",
    "serialize_shadow",
    "document_xml",
    "generate_ops",
    "replay_ops",
]

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'

#: Mix of the write-only editing stream: (op name, weight).  Speech
#: inserts and deletes carry equal weight, and so do line inserts and
#: deletes, so documents keep their size over a run.
OP_MIX = (
    ("insert_speech_before", 0.10),
    ("insert_speech_after", 0.10),
    ("delete_speech", 0.20),
    ("insert_line", 0.20),
    ("delete_line", 0.20),
    ("move_speech", 0.20),
)

#: One relationship check and the six Table 3 queries.  Seven kinds, so
#: the median read falls inside one kind's cluster, not between two.
REFRESH_READS = ("relationship", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6")

_SPEAKERS = ("HAMLET", "OPHELIA", "HORATIO", "LAERTES", "GERTRUDE", "CLAUDIUS")
_WORDS = (
    "the rest is silence and the readiness is all there is nothing "
    "either good or bad but thinking makes it so brevity soul of wit"
).split()


@dataclass(frozen=True)
class Workload:
    """One named traffic mix; the README records why each exists."""

    name: str
    scheme: str
    #: Updates the client sends together (pipelined) before it waits
    #: for their acks; ``0`` submits single updates without waiting.
    group: int
    #: Reads issued per update (after its group's acks when ``group`` is
    #: set).
    reads_per_update: int
    #: Reads cycle through these: ``"relationship"`` is a label-only
    #: check of two positions, ``"Q1"``..``"Q6"`` a Table 3 query and
    #: then a relationship check of its first match.
    read_kinds: "tuple[str, ...]"
    #: Client requests of a round made before its timing starts.
    warmup_requests: int
    #: Timed client requests of a round: updates when ``group`` is
    #: set, reads and updates together when it is not.
    round_requests: int
    #: Builds the (doc id, document) pairs.  The corpus is fixed; the
    #: seed only drives the ops and the reads.
    documents: "Callable[[], list[tuple[str, Document]]]"


def _hamlet() -> "list[tuple[str, Document]]":
    return [("hamlet", build_hamlet())]


def _play() -> "list[tuple[str, Document]]":
    return [("play", build_play("play", 10_000, seed=1601))]


def _d5() -> "list[tuple[str, Document]]":
    collection = build_d5(total_nodes=40_000, files=8)
    return [
        (f"d5-{index}", document)
        for index, document in enumerate(collection.documents)
    ]


WORKLOADS = {
    "edit": Workload(
        name="edit",
        scheme="V-CDBS-Containment",
        group=1,
        reads_per_update=1,
        read_kinds=REFRESH_READS,
        warmup_requests=8,
        round_requests=112,
        documents=_hamlet,
    ),
    "pipeline": Workload(
        name="pipeline",
        scheme="V-CDBS-Containment",
        group=16,
        # Four reads per update give read_p99_ms ~100 samples beyond it.
        reads_per_update=4,
        read_kinds=("relationship",),
        warmup_requests=16,
        round_requests=224,
        documents=_play,
    ),
    "browse": Workload(
        name="browse",
        scheme="QED-Prefix",
        group=0,
        reads_per_update=10,
        read_kinds=REFRESH_READS,
        warmup_requests=60,
        round_requests=1100,
        documents=_d5,
    ),
}


# -- the shadow tree ----------------------------------------------------------


class ShadowNode:
    """An element (``tag`` set) or a text node (``text`` set)."""

    __slots__ = ("tag", "text", "children", "parent", "size")

    def __init__(self, tag: "str | None" = None, text: "str | None" = None):
        self.tag = tag
        self.text = text
        self.children: list[ShadowNode] = []
        self.parent: ShadowNode | None = None
        self.size = 1

    def append(self, child: "ShadowNode") -> "ShadowNode":
        """Attach a finished subtree (sizes of ancestors are not updated)."""
        child.parent = self
        self.children.append(child)
        self.size += child.size
        return child


def shadow_from_document(document: Document) -> ShadowNode:
    """Copy a dataset document into a fresh shadow tree."""

    def copy(node) -> ShadowNode:
        if node.kind is NodeKind.TEXT:
            return ShadowNode(text=node.value or "")
        if node.kind is not NodeKind.ELEMENT:
            raise ValueError(f"unexpected {node.kind} node in a dataset")
        element = ShadowNode(tag=node.name)
        for child in node.children:
            element.append(copy(child))
        return element

    return copy(document.root)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize_shadow(node: ShadowNode) -> str:
    """Compact XML of one subtree (no invented whitespace)."""
    out: list[str] = []

    def write(current: ShadowNode) -> None:
        if current.tag is None:
            out.append(_escape(current.text or ""))
        elif not current.children:
            out.append(f"<{current.tag}/>")
        else:
            out.append(f"<{current.tag}>")
            for child in current.children:
                write(child)
            out.append(f"</{current.tag}>")

    write(node)
    return "".join(out)


def document_xml(root: ShadowNode) -> str:
    return XML_DECLARATION + serialize_shadow(root)


def position_of(node: ShadowNode) -> int:
    """Pre-order index of ``node``, counting text nodes."""
    position = 0
    while node.parent is not None:
        parent = node.parent
        for sibling in parent.children:
            if sibling is node:
                break
            position += sibling.size
        position += 1
        node = parent
    return position


def node_at(root: ShadowNode, position: int) -> ShadowNode:
    if not 0 <= position < root.size:
        raise IndexError(f"position {position} outside {root.size} nodes")
    node = root
    while position:
        position -= 1
        for child in node.children:
            if position < child.size:
                node = child
                break
            position -= child.size
    return node


def _resize(node: "ShadowNode | None", delta: int) -> None:
    while node is not None:
        node.size += delta
        node = node.parent


def insert(parent: ShadowNode, index: int, subtree: ShadowNode) -> None:
    subtree.parent = parent
    parent.children.insert(index, subtree)
    _resize(parent, subtree.size)


def detach(node: ShadowNode) -> None:
    parent = node.parent
    parent.children.remove(node)
    node.parent = None
    _resize(parent, -node.size)


# -- op generation --------------------------------------------------------------


def _speech(rng: random.Random) -> ShadowNode:
    speech = ShadowNode(tag="speech")
    speaker = ShadowNode(tag="speaker")
    speaker.append(ShadowNode(text=rng.choice(_SPEAKERS)))
    speech.append(speaker)
    for _ in range(rng.randint(2, 8)):
        speech.append(_line(rng))
    return speech


def _line(rng: random.Random) -> ShadowNode:
    line = ShadowNode(tag="line")
    words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(4, 9)))
    line.append(ShadowNode(text=words))
    return line


class _SpeechPool:
    """Every live speech, for uniform O(1) choice and removal."""

    def __init__(self, root: ShadowNode) -> None:
        self.items: list[ShadowNode] = []
        self.index: dict[int, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node.tag == "speech":
                self.add(node)
            stack.extend(reversed(node.children))

    def __len__(self) -> int:
        return len(self.items)

    def add(self, node: ShadowNode) -> None:
        self.index[id(node)] = len(self.items)
        self.items.append(node)

    def remove(self, node: ShadowNode) -> None:
        slot = self.index.pop(id(node))
        last = self.items.pop()
        if last is not node:
            self.items[slot] = last
            self.index[id(last)] = slot

    def choice(self, rng: random.Random) -> ShadowNode:
        return self.items[rng.randrange(len(self.items))]


def generate_ops(
    document: Document, count: int, rng: random.Random
) -> "tuple[list[dict], int]":
    """``count`` valid update specs for one document, plus its minimum size.

    Each op's positions are taken from the shadow just before the op is
    applied to it, so the stream is valid when the service applies it
    in submission order.  The minimum node count over the stream bounds
    the positions a read may name at any version.
    """
    root = shadow_from_document(document)
    pool = _SpeechPool(root)
    floor = len(pool) // 2
    names = [name for name, _ in OP_MIX]
    weights = [weight for _, weight in OP_MIX]
    ops: list[dict] = []
    min_nodes = root.size
    while len(ops) < count:
        kind = rng.choices(names, weights)[0]
        if kind in ("insert_speech_before", "insert_speech_after"):
            target = pool.choice(rng)
            speech = _speech(rng)
            op = {
                "kind": "insert_before" if kind.endswith("before") else "insert_after",
                "target": position_of(target),
                "xml": serialize_shadow(speech),
            }
            parent = target.parent
            index = parent.children.index(target)
            insert(parent, index if kind.endswith("before") else index + 1, speech)
            pool.add(speech)
        elif kind == "delete_speech":
            if len(pool) <= floor:
                continue
            speech = pool.choice(rng)
            op = {"kind": "delete", "target": position_of(speech)}
            detach(speech)
            pool.remove(speech)
        elif kind == "insert_line":
            speech = pool.choice(rng)
            index = rng.randint(1, len(speech.children))
            line = _line(rng)
            op = {
                "kind": "insert_child",
                "parent": position_of(speech),
                "index": index,
                "xml": serialize_shadow(line),
            }
            insert(speech, index, line)
        elif kind == "delete_line":
            speech = pool.choice(rng)
            lines = [c for c in speech.children if c.tag == "line"]
            if len(lines) < 2:
                continue
            line = rng.choice(lines)
            op = {"kind": "delete", "target": position_of(line)}
            detach(line)
        else:
            node = pool.choice(rng)
            target = pool.choice(rng)
            if target is node:
                continue
            op = {
                "kind": "move_before",
                "node": position_of(node),
                "target": position_of(target),
            }
            detach(node)
            parent = target.parent
            insert(parent, parent.children.index(target), node)
        ops.append(op)
        min_nodes = min(min_nodes, root.size)
    return ops, min_nodes


def _parse_fragment(xml: str) -> ShadowNode:
    """Parse the fragments :func:`generate_ops` writes (no attributes)."""
    stack = [ShadowNode(tag="#fragment")]
    pos = 0
    while pos < len(xml):
        if xml.startswith("</", pos):
            pos = xml.index(">", pos) + 1
            finished = stack.pop()
            stack[-1].append(finished)
        elif xml[pos] == "<":
            end = xml.index(">", pos)
            if xml[end - 1] == "/":
                stack[-1].append(ShadowNode(tag=xml[pos + 1 : end - 1]))
            else:
                stack.append(ShadowNode(tag=xml[pos + 1 : end]))
            pos = end + 1
        else:
            end = xml.find("<", pos)
            end = len(xml) if end < 0 else end
            text = xml[pos:end]
            text = text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
            stack[-1].append(ShadowNode(text=text))
            pos = end
    (subtree,) = stack[0].children
    subtree.parent = None
    return subtree


def replay_ops(document: Document, ops: "list[dict]") -> ShadowNode:
    """The expected final state: ``ops`` applied, by position, to a fresh shadow.

    Raises :class:`IndexError` / :class:`ValueError` when a position does
    not exist, which is what a corrupted expected stream produces.
    """
    root = shadow_from_document(document)
    for op in ops:
        kind = op["kind"]
        if kind == "delete":
            detach(node_at(root, op["target"]))
        elif kind == "move_before":
            node = node_at(root, op["node"])
            target = node_at(root, op["target"])
            detach(node)
            insert(target.parent, target.parent.children.index(target), node)
        elif kind == "insert_child":
            parent = node_at(root, op["parent"])
            if not 0 <= op["index"] <= len(parent.children):
                raise IndexError(f"child index {op['index']} outside the parent")
            insert(parent, op["index"], _parse_fragment(op["xml"]))
        else:
            target = node_at(root, op["target"])
            if target.parent is None:
                raise ValueError("cannot insert a sibling of the root")
            index = target.parent.children.index(target)
            if kind == "insert_after":
                index += 1
            insert(target.parent, index, _parse_fragment(op["xml"]))
    return root
