"""Mention-level heterogeneous graph over mention, sentence and document nodes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .corpus import Document, validate_document


class NodeKind(Enum):
    MENTION = "mention"
    SENTENCE = "sentence"
    DOCUMENT = "document"


class EdgeKind(Enum):
    INTRA_ENTITY = "intra-entity"
    INTER_ENTITY = "inter-entity"
    SENTENCE_MENTION = "sentence-mention"
    SENTENCE_DOCUMENT = "sentence-document"


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    # mention nodes: (entity_id, mention_index, sentence_id); sentence nodes: (sentence_id,)
    payload: tuple = ()


@dataclass
class MentionGraph:
    nodes: list[Node]
    edges: dict[EdgeKind, list[tuple[int, int]]]  # undirected, stored with u < v, sorted
    mention_nodes: dict[tuple[int, int], int]  # (entity_id, mention_index) -> node id
    sentence_nodes: list[int]
    document_node: int
    _adjacency: dict[EdgeKind, list[list[int]]] = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def adjacency(self, kind: EdgeKind) -> list[list[int]]:
        """Sorted neighbor lists per node for one edge kind (computed once)."""
        cached = self._adjacency.get(kind)
        if cached is None:
            nbrs: list[list[int]] = [[] for _ in self.nodes]
            for u, v in self.edges[kind]:
                nbrs[u].append(v)
                nbrs[v].append(u)
            cached = [sorted(ns) for ns in nbrs]
            self._adjacency[kind] = cached
        return cached


def build_mention_graph(doc: Document) -> MentionGraph:
    """Apply the four edge rules to a validated document.

    Intra-entity: clique over each entity's mentions. Inter-entity: clique over
    co-sentential mentions of distinct entities. Sentence-mention: sentence to
    each mention it contains. Sentence-document: every sentence to the single
    document node. There are no mention-document edges.
    """
    validate_document(doc)
    nodes: list[Node] = []
    mention_nodes: dict[tuple[int, int], int] = {}
    for ent in doc.entities:
        for mi, m in enumerate(ent.mentions):
            nid = len(nodes)
            mention_nodes[(ent.id, mi)] = nid
            nodes.append(Node(id=nid, kind=NodeKind.MENTION, payload=(ent.id, mi, m.sentence_id)))
    sentence_nodes = []
    for sid in range(len(doc.sentences)):
        nid = len(nodes)
        sentence_nodes.append(nid)
        nodes.append(Node(id=nid, kind=NodeKind.SENTENCE, payload=(sid,)))
    document_node = len(nodes)
    nodes.append(Node(id=document_node, kind=NodeKind.DOCUMENT))

    intra: set[tuple[int, int]] = set()
    inter: set[tuple[int, int]] = set()
    sent_mention: set[tuple[int, int]] = set()
    sent_doc: set[tuple[int, int]] = set()

    for ent in doc.entities:
        ids = [mention_nodes[(ent.id, mi)] for mi in range(len(ent.mentions))]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                intra.add((min(ids[i], ids[j]), max(ids[i], ids[j])))

    by_sentence: dict[int, list[tuple[int, int]]] = {}  # sid -> [(node id, entity id)]
    for ent in doc.entities:
        for mi, m in enumerate(ent.mentions):
            by_sentence.setdefault(m.sentence_id, []).append((mention_nodes[(ent.id, mi)], ent.id))
    for sid, members in by_sentence.items():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                (u, eu), (v, ev) = members[i], members[j]
                if eu != ev:
                    inter.add((min(u, v), max(u, v)))
        for u, _ in members:
            sent_mention.add((min(u, sentence_nodes[sid]), max(u, sentence_nodes[sid])))

    for sid in range(len(doc.sentences)):
        sent_doc.add((sentence_nodes[sid], document_node))

    edges = {
        EdgeKind.INTRA_ENTITY: sorted(intra),
        EdgeKind.INTER_ENTITY: sorted(inter),
        EdgeKind.SENTENCE_MENTION: sorted(sent_mention),
        EdgeKind.SENTENCE_DOCUMENT: sorted(sent_doc),
    }
    return MentionGraph(nodes=nodes, edges=edges, mention_nodes=mention_nodes,
                        sentence_nodes=sentence_nodes, document_node=document_node)


def export_edges(g: MentionGraph) -> str:
    """One `kind<TAB>u<TAB>v` line per edge, grouped by kind."""
    lines = []
    for kind in EdgeKind:
        for u, v in g.edges[kind]:
            lines.append(f"{kind.value}\t{u}\t{v}")
    return "\n".join(lines) + ("\n" if lines else "")
