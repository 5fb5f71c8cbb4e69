"""Mention graph construction against a brute-force four-rule enumerator."""

import numpy as np
import pytest

from docrel.corpus import Document, Entity, Mention
from docrel.graph import EdgeKind, NodeKind, build_mention_graph, export_edges
from gen import random_document


def brute_force_edges(doc, graph):
    """Re-derive all four edge sets from the written rules, independently."""
    mention_info = {}  # node id -> (entity, sentence)
    for (eid, mi), nid in graph.mention_nodes.items():
        mention_info[nid] = (eid, doc.entities[eid].mentions[mi].sentence_id)
    out = {kind: set() for kind in EdgeKind}
    ids = sorted(mention_info)
    for i in ids:
        for j in ids:
            if i >= j:
                continue
            ei, si = mention_info[i]
            ej, sj = mention_info[j]
            if ei == ej:
                out[EdgeKind.INTRA_ENTITY].add((i, j))
            elif si == sj:
                out[EdgeKind.INTER_ENTITY].add((i, j))
    for nid, (eid, sid) in mention_info.items():
        s_node = graph.sentence_nodes[sid]
        out[EdgeKind.SENTENCE_MENTION].add((min(nid, s_node), max(nid, s_node)))
    for s_node in graph.sentence_nodes:
        out[EdgeKind.SENTENCE_DOCUMENT].add((s_node, graph.document_node))
    return out


def example_doc():
    # mentions A1(s1), A2(s2), B1(s1)
    return Document(
        "ex", [["x", "y"], ["z"]],
        [Entity(0, "T", [Mention(0, 0, 1, "A1"), Mention(1, 0, 1, "A2")]),
         Entity(1, "T", [Mention(0, 1, 2, "B1")])],
        [])


def test_spec_example_edge_sets():
    g = build_mention_graph(example_doc())
    a1 = g.mention_nodes[(0, 0)]
    a2 = g.mention_nodes[(0, 1)]
    b1 = g.mention_nodes[(1, 0)]
    s1, s2 = g.sentence_nodes
    d = g.document_node
    assert set(g.edges[EdgeKind.INTRA_ENTITY]) == {(min(a1, a2), max(a1, a2))}
    assert set(g.edges[EdgeKind.INTER_ENTITY]) == {(min(a1, b1), max(a1, b1))}
    assert set(g.edges[EdgeKind.SENTENCE_MENTION]) == {
        (min(a1, s1), max(a1, s1)), (min(b1, s1), max(b1, s1)), (min(a2, s2), max(a2, s2))}
    assert set(g.edges[EdgeKind.SENTENCE_DOCUMENT]) == {(s1, d), (s2, d)}


def test_minimal_graph_counts():
    doc = Document("m", [["x"]], [Entity(0, "T", [Mention(0, 0, 1, "x")])], [])
    g = build_mention_graph(doc)
    counts = {kind: len(edges) for kind, edges in g.edges.items()}
    assert counts == {EdgeKind.INTRA_ENTITY: 0, EdgeKind.INTER_ENTITY: 0,
                      EdgeKind.SENTENCE_MENTION: 1, EdgeKind.SENTENCE_DOCUMENT: 1}
    assert [n.kind for n in g.nodes] == [NodeKind.MENTION, NodeKind.SENTENCE, NodeKind.DOCUMENT]


def test_intra_entity_clique_size():
    k = 5
    doc = Document(
        "clique", [[f"t{i}" for i in range(k)]],
        [Entity(0, "T", [Mention(0, i, i + 1, f"t{i}") for i in range(k)])],
        [])
    g = build_mention_graph(doc)
    assert len(g.edges[EdgeKind.INTRA_ENTITY]) == k * (k - 1) // 2


def test_no_mention_document_edges_and_no_self_edges():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = build_mention_graph(random_document(rng))
        doc_node = g.document_node
        for kind, edges in g.edges.items():
            for u, v in edges:
                assert u != v
                if doc_node in (u, v):
                    assert kind is EdgeKind.SENTENCE_DOCUMENT


def test_matches_brute_force_enumerator_on_random_documents():
    rng = np.random.default_rng(1)
    for _ in range(10):
        doc = random_document(rng)
        g = build_mention_graph(doc)
        expected = brute_force_edges(doc, g)
        for kind in EdgeKind:
            assert set(g.edges[kind]) == expected[kind]


def test_graph_is_deterministic():
    rng = np.random.default_rng(2)
    doc = random_document(rng)
    g1 = build_mention_graph(doc)
    g2 = build_mention_graph(doc)
    assert [(n.id, n.kind, n.payload) for n in g1.nodes] == \
           [(n.id, n.kind, n.payload) for n in g2.nodes]
    assert g1.edges == g2.edges


def test_sentence_document_degree_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = build_mention_graph(random_document(rng))
        for s_node in g.sentence_nodes:
            assert g.adjacency(EdgeKind.SENTENCE_DOCUMENT)[s_node] == [g.document_node]


def test_adjacency_definition_and_oracle():
    doc = example_doc()
    g = build_mention_graph(doc)
    assert g.adjacency(EdgeKind.SENTENCE_DOCUMENT)[g.document_node] == g.sentence_nodes
    # isolated mention in the inter-entity relation
    a2 = g.mention_nodes[(0, 1)]
    assert g.adjacency(EdgeKind.INTER_ENTITY)[a2] == []
    # independent edge-scan oracle on a random graph
    rng = np.random.default_rng(4)
    g = build_mention_graph(random_document(rng))
    for kind in EdgeKind:
        rebuilt = {n.id: set() for n in g.nodes}
        for u, v in g.edges[kind]:
            rebuilt[u].add(v)
            rebuilt[v].add(u)
        for n in g.nodes:
            assert g.adjacency(kind)[n.id] == sorted(rebuilt[n.id])


def test_export_edge_list_format():
    g = build_mention_graph(example_doc())
    lines = export_edges(g).strip().splitlines()
    assert len(lines) == sum(len(e) for e in g.edges.values())
    kind, u, v = lines[0].split("\t")
    assert kind == "intra-entity" and int(u) < int(v)
