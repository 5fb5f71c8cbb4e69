"""R-GCN propagation, entity pooling and evidence selection against oracles."""

import dataclasses

import numpy as np
import pytest

from docrel import autodiff as ad
from docrel.autodiff import Tensor
from docrel.corpus import Document, Entity, Mention, build_vocabulary
from docrel.errors import ContractError, NotFoundError, ShapeError
from docrel.graph import EdgeKind, build_mention_graph
from docrel.inter import (RgcnParams, aggregation_matrices, evidence_weights, inter_pair_rep,
                          node_final_rep, propagate, rgcn_layer)
from docrel.model import prepare_document
from docrel.optim import Parameter
from gen import random_document


def identity_layer(width):
    return {kind: Parameter(f"w.{kind.value}", np.eye(width)) for kind in EdgeKind}


def zero_graph(n_nodes):
    """Adjacency-free aggregation: every kind contributes only the self term."""
    return {kind: np.eye(n_nodes) for kind in EdgeKind}


def test_isolated_node_identity_weights():
    agg = {EdgeKind.INTRA_ENTITY: np.eye(1)}
    layer = {EdgeKind.INTRA_ENTITY: Parameter("w", np.eye(2))}
    h = Tensor(np.array([[1.0, -2.0]]))
    out = None
    # restrict to a single edge kind by building the sum manually
    msg = ad.linear(h, layer[EdgeKind.INTRA_ENTITY].tensor)
    out = ad.relu(ad.matmul(ad.constant(agg[EdgeKind.INTRA_ENTITY]), msg))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0]])


def test_two_identical_neighbors_normalize_to_mean():
    # node 0 has neighbors 1 and 2 (same vectors), zero self content
    doc = Document(
        "n", [["a", "b", "c"]],
        [Entity(0, "T", [Mention(0, 0, 1, "a")]),
         Entity(1, "T", [Mention(0, 1, 2, "b")]),
         Entity(2, "T", [Mention(0, 2, 3, "c")])],
        [])
    g = build_mention_graph(doc)
    agg = aggregation_matrices(g)
    v = np.array([3.0, -1.0])
    h = np.zeros((g.n_nodes, 2))
    h[1] = v
    h[2] = v
    # inter-entity edges connect 0-1, 0-2, 1-2; c_0 = 2
    A = agg[EdgeKind.INTER_ENTITY]
    np.testing.assert_allclose(A[0, [1, 2]], [0.5, 0.5])
    np.testing.assert_allclose(A[0, 0], 0.5)
    out = A @ h
    np.testing.assert_allclose(out[0], v)  # (v + v + 0) / 2


def test_rgcn_layer_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        doc = random_document(rng, max_sentences=3, max_entities=4, max_mentions=6)
        g = build_mention_graph(doc)
        agg = aggregation_matrices(g)
        width = 3
        layer = {kind: Parameter(f"w.{kind.value}", rng.normal(size=(width, width)))
                 for kind in EdgeKind}
        h = rng.normal(size=(g.n_nodes, width))
        out = rgcn_layer(Tensor(h), agg, layer)

        expected = np.zeros_like(h)
        for u in range(g.n_nodes):
            total = np.zeros(width)
            for kind in EdgeKind:
                nbrs = g.adjacency(kind)[u]
                c = max(1, len(nbrs))
                for v in list(nbrs) + [u]:
                    total += layer[kind].data @ h[v] / c
            expected[u] = np.maximum(total, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-9)


def test_zero_edge_graph_reduces_to_self_terms():
    rng = np.random.default_rng(1)
    width = 3
    layer = {kind: Parameter(f"w.{kind.value}", rng.normal(size=(width, width)))
             for kind in EdgeKind}
    h = rng.normal(size=(4, width))
    out = rgcn_layer(Tensor(h), zero_graph(4), layer)
    total = sum(layer[kind].data @ h.T for kind in EdgeKind).T
    np.testing.assert_allclose(out.data, np.maximum(total, 0.0), atol=1e-12)


def test_propagate_produces_n_plus_one_states():
    rng = np.random.default_rng(2)
    params = RgcnParams.create(rng, width=3, n_layers=3)
    assert params.n_layers == 3
    assert params.w_u.data.shape == (3, 12)
    h0 = Tensor(rng.normal(size=(4, 3)))
    states = propagate(h0, zero_graph(4), params)
    assert len(states) == 4
    assert states[0] is h0


def test_node_final_rep_zero_and_projection():
    rng = np.random.default_rng(3)
    states = [Tensor(rng.normal(size=(3, 2))) for _ in range(3)]
    w_zero = Parameter("wu", np.zeros((2, 6)))
    np.testing.assert_array_equal(node_final_rep(states, w_zero).data, np.zeros((3, 2)))
    block = np.zeros((2, 6))
    block[:, :2] = np.eye(2)  # select h^(0)
    w_sel = Parameter("wu", block)
    np.testing.assert_allclose(node_final_rep(states, w_sel).data,
                               np.maximum(states[0].data, 0.0), atol=1e-12)


def test_node_final_rep_width_mismatch():
    states = [Tensor(np.zeros((2, 2)))] * 2
    with pytest.raises(ShapeError):
        node_final_rep(states, Parameter("wu", np.zeros((2, 6))))


def test_entity_means_mean_and_identity():
    doc = Document(
        "e", [["a", "b"], ["c"]],
        [Entity(0, "T", [Mention(0, 0, 1, "a"), Mention(1, 0, 1, "c")]),
         Entity(1, "T", [Mention(0, 1, 2, "b")])],
        [])
    feats = prepare_document(doc, build_vocabulary([doc]))
    node = feats.graph.mention_nodes
    m = np.full((feats.graph.n_nodes, 2), 100.0)  # sentence and document rows must not count
    m[node[(0, 0)]], m[node[(0, 1)]], m[node[(1, 0)]] = [2.0, 0.0], [0.0, 2.0], [5.0, 5.0]
    entities = feats.entity_means @ m
    np.testing.assert_allclose(entities[0], [1.0, 1.0])
    np.testing.assert_array_equal(entities[1], [5.0, 5.0])


def test_entity_means_match_loop_sum_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        doc = random_document(rng, max_sentences=3, max_entities=4, max_mentions=8)
        # the facts' relation ids need not fit a one-document vocabulary; the means ignore them
        doc = dataclasses.replace(doc, facts=[])
        feats = prepare_document(doc, build_vocabulary([doc]))
        m = rng.normal(size=(feats.graph.n_nodes, 3))
        for e in doc.entities:
            ids = [nid for (eid, _), nid in feats.graph.mention_nodes.items() if eid == e.id]
            acc = np.zeros(3)
            for i in ids:
                acc += m[i]
            np.testing.assert_allclose((feats.entity_means @ m)[e.id], acc / len(ids), atol=1e-12)


def one_pair(head, tail):
    """Entity matrix and id arrays of the single pair (head, tail)."""
    return Tensor(np.stack([head, tail])), np.array([0]), np.array([1])


def test_evidence_zero_weights_uniform():
    m = Tensor(np.ones((3, 2)))
    w = Tensor(np.zeros((1, 6)))
    scores, alpha = evidence_weights(*one_pair(np.ones(2), np.ones(2)), m, w)
    np.testing.assert_allclose(scores.data, [[0.5, 0.5, 0.5]])
    np.testing.assert_allclose(alpha.data, np.full((1, 3), 1 / 3), atol=1e-9)


def test_evidence_concentrates_on_high_score():
    # drive one sentence's logit up, others down
    m = Tensor(np.array([[10.0, 10.0], [-10.0, -10.0], [-10.0, -10.0]]))
    w = Tensor(np.concatenate([np.zeros(4), np.ones(2)]).reshape(1, 6))
    _, alpha = evidence_weights(*one_pair(np.zeros(2), np.zeros(2)), m, w)
    assert alpha.data[0, 0] > 0.99
    assert abs(alpha.data.sum() - 1.0) < 1e-6


def test_evidence_matches_normalization_oracle():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 3))
    head, tail = rng.normal(size=3), rng.normal(size=3)
    w = rng.normal(size=(1, 9))
    scores, alpha = evidence_weights(*one_pair(head, tail), Tensor(m), Tensor(w))
    expected = 1 / (1 + np.exp(-np.array(
        [w[0] @ np.concatenate([head, tail, m[k]]) for k in range(4)])))
    np.testing.assert_allclose(scores.data[0], expected, atol=1e-12)
    np.testing.assert_allclose(alpha.data[0], expected / (1e-12 + expected.sum()), atol=1e-9)


def test_evidence_weight_shape_check():
    with pytest.raises(ShapeError):
        evidence_weights(*one_pair(np.zeros(2), np.zeros(2)),
                         Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 4))))


def test_inter_rep_uniform_alpha_over_identical_rows():
    v = np.array([1.5, -0.5])
    m = Tensor(np.stack([v, v, v]))
    w = Tensor(np.zeros((1, 6)))
    rep = inter_pair_rep(*one_pair(np.zeros(2), np.ones(2)), m, w)
    np.testing.assert_allclose(rep.vectors.data[0, 4:], v, atol=1e-9)


def test_inter_rep_one_hot_selection():
    m_rows = np.array([[-4.0, 4.0], [7.0, -3.0], [-4.0, 4.0]])
    # logits: sentence 1 large positive, sentences 0 and 2 large negative
    w = Tensor(np.concatenate([np.zeros(4), np.array([5.0, -5.0])]).reshape(1, 6))
    rep = inter_pair_rep(*one_pair(np.zeros(2), np.zeros(2)), Tensor(m_rows), w)
    np.testing.assert_allclose(rep.vectors.data[0, 4:], m_rows[1], rtol=1e-3)


def test_inter_rep_composition_oracle():
    rng = np.random.default_rng(6)
    head, tail = rng.normal(size=3), rng.normal(size=3)
    m = rng.normal(size=(4, 3))
    w = rng.normal(size=(1, 9))
    rep = inter_pair_rep(*one_pair(head, tail), Tensor(m), Tensor(w))
    scores = 1 / (1 + np.exp(-np.array(
        [w[0] @ np.concatenate([head, tail, m[k]]) for k in range(4)])))
    alpha = scores / (1e-12 + scores.sum())
    np.testing.assert_allclose(rep.vectors.data[0],
                               np.concatenate([head, tail, alpha @ m]), atol=1e-9)
    np.testing.assert_allclose(rep.context.data[0], alpha @ m, atol=1e-9)
    np.testing.assert_allclose(rep.alpha[0], alpha, atol=1e-9)


def test_batched_rows_equal_single_pair_calls():
    # repeated heads and tails share entity rows
    rng = np.random.default_rng(12)
    entities = rng.normal(size=(4, 3))
    heads, tails = np.array([0, 0, 2, 3, 1]), np.array([1, 3, 0, 0, 3])
    m = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(1, 9)))
    batch = inter_pair_rep(Tensor(entities), heads, tails, m, w)
    assert batch.vectors.shape == (5, 9) and batch.alpha.shape == batch.scores.shape == (5, 4)
    for i in range(5):
        one = inter_pair_rep(*one_pair(entities[heads[i]], entities[tails[i]]), m, w)
        np.testing.assert_allclose(batch.vectors.data[i], one.vectors.data[0], atol=1e-12)
        np.testing.assert_allclose(batch.scores[i], one.scores[0], atol=1e-12)
        np.testing.assert_allclose(batch.alpha[i], one.alpha[0], atol=1e-12)


def test_context_is_convex_combination():
    # hull bound holds up to the alpha deficiency left by the 1e-12 normalizer floor
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.normal(size=(int(rng.integers(1, 6)), 3))
        head, tail = rng.normal(size=3), rng.normal(size=3)
        w = rng.normal(size=(1, 9))
        rep = inter_pair_rep(*one_pair(head, tail), Tensor(m), Tensor(w))
        c = rep.vectors.data[0, 6:]
        slack = (1.0 - rep.alpha.sum()) * np.abs(m).max() + 1e-9
        assert np.all(c >= m.min(axis=0) - slack)
        assert np.all(c <= m.max(axis=0) + slack)


def test_node_order_permutation_leaves_final_reps_unchanged():
    rng = np.random.default_rng(8)
    doc = random_document(rng, max_sentences=3, max_entities=4, max_mentions=6)
    g = build_mention_graph(doc)
    width = 3
    params = RgcnParams.create(np.random.default_rng(9), width, 2)
    h0 = rng.normal(size=(g.n_nodes, width))
    agg = aggregation_matrices(g)
    m_direct = node_final_rep(propagate(Tensor(h0), agg, params), params.w_u).data

    # permute node identities, rebuild aggregation from permuted edge lists
    perm = rng.permutation(g.n_nodes)
    inv = np.argsort(perm)
    agg_p = {kind: A[np.ix_(perm, perm)] for kind, A in agg.items()}
    m_perm = node_final_rep(propagate(Tensor(h0[perm]), agg_p, params), params.w_u).data
    np.testing.assert_allclose(m_perm[inv], m_direct, atol=1e-9)


def sampled_pairs(rng, n_entities, size):
    """(heads, tails) of a sorted random subset of the ordered pairs of n entities."""
    pairs = np.array([(h, t) for h in range(n_entities) for t in range(n_entities) if h != t])
    return pairs[np.sort(rng.permutation(len(pairs))[:size])].T


def pair_linear_inputs(rng, with_context, n_entities=4, d=3, out=5, size=7):
    heads, tails = sampled_pairs(rng, n_entities, size)
    entities = Tensor(rng.normal(size=(n_entities, d)), requires_grad=True)
    context = Tensor(rng.normal(size=(size, d)), requires_grad=True) if with_context else None
    w = Tensor(rng.normal(size=(out, (3 if with_context else 2) * d)), requires_grad=True)
    return entities, heads, tails, context, w


def dense_pair_linear(entities, heads, tails, context, w):
    parts = [ad.take_rows(entities, heads), ad.take_rows(entities, tails)]
    return ad.linear(ad.concat(parts + ([] if context is None else [context]), axis=-1), w)


@pytest.mark.parametrize("with_context", [True, False], ids=["context", "no_context"])
def test_pair_linear_finite_differences(with_context):
    rng = np.random.default_rng(21)
    entities, heads, tails, context, w = pair_linear_inputs(rng, with_context)
    # 7 of the 12 pairs of 4 entities: heads and tails repeat
    assert len(set(heads)) < len(heads) and len(set(tails)) < len(tails)
    weights = ad.constant(rng.normal(size=(len(heads), w.shape[0])))
    leaves = [entities, w] + ([context] if with_context else [])
    err, checked, skipped = ad.check_gradients(
        lambda: ad.tsum(ad.mul(ad.pair_linear(entities, heads, tails, context, w), weights)),
        leaves)
    assert checked == sum(t.size for t in leaves) and skipped == 0
    assert err < 1e-6, err


def values_and_gradients(fn, leaves, weights):
    with ad.Tape():
        out = fn()
        ad.backward(ad.tsum(ad.mul(out, weights)))
        grads = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    return out.data, grads


@pytest.mark.parametrize("with_context", [True, False], ids=["context", "no_context"])
def test_pair_linear_equals_dense_linear(with_context):
    rng = np.random.default_rng(22)
    for n_entities, size in ((2, 2), (5, 20), (6, 11)):
        entities, heads, tails, context, w = pair_linear_inputs(
            rng, with_context, n_entities=n_entities, d=4, out=6, size=size)
        weights = ad.constant(rng.normal(size=(size, 6)))
        leaves = [entities, w] + ([context] if with_context else [])
        args = (entities, heads, tails, context, w)
        got, grads = values_and_gradients(lambda: ad.pair_linear(*args), leaves, weights)
        want, grads_d = values_and_gradients(lambda: dense_pair_linear(*args), leaves, weights)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for a, b in zip(grads, grads_d):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_pair_linear_without_context_ignores_further_weight_columns():
    rng = np.random.default_rng(23)
    entities, heads, tails, _, w = pair_linear_inputs(rng, True)
    weights = ad.constant(rng.normal(size=(len(heads), w.shape[0])))
    got, (_, d_w) = values_and_gradients(
        lambda: ad.pair_linear(entities, heads, tails, None, w), [entities, w], weights)
    first = Tensor(w.data[:, :6])
    np.testing.assert_allclose(got, dense_pair_linear(entities, heads, tails, None, first).data,
                               rtol=0, atol=1e-12)
    assert d_w[:, :6].any() and not d_w[:, 6:].any()


def test_pair_linear_rejects_bad_shapes_and_ids():
    entities, ids = Tensor(np.zeros((3, 2))), np.array([0, 1])
    with pytest.raises(ShapeError):
        ad.pair_linear(entities, ids, ids, Tensor(np.zeros((2, 2))), Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        ad.pair_linear(entities, ids, ids, Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 6))))
    with pytest.raises(ShapeError):
        ad.pair_linear(entities, ids, ids, None, Tensor(np.zeros((4, 3))))
    with pytest.raises(ShapeError):
        ad.pair_linear(entities, ids, ids[:1], None, Tensor(np.zeros((4, 4))))
    with pytest.raises(NotFoundError):
        ad.pair_linear(entities, np.array([0, 3]), ids, None, Tensor(np.zeros((4, 4))))


def widened_inputs(rng, context_kind, n_plain, n_entities=4, d=3, out=5, size=7, n_sentences=3):
    """pair_linear arguments for `size` pair rows among size + n_plain rows, with a
    context of rows ("rows"), of sentence weights ("sentences") or none (None),
    and their leaves. Without plain rows, plain and rows are None."""
    heads, tails = sampled_pairs(rng, n_entities, size)
    entities = Tensor(rng.normal(size=(n_entities, d)), requires_grad=True)
    leaves = [entities]
    context = None
    if context_kind == "rows":
        context = Tensor(rng.normal(size=(size, d)), requires_grad=True)
        leaves.append(context)
    elif context_kind == "sentences":
        weights = rng.random((size, n_sentences))
        context = (Tensor(weights / weights.sum(axis=1, keepdims=True), requires_grad=True),
                   Tensor(rng.normal(size=(n_sentences, d)), requires_grad=True))
        leaves.extend(context)
    w = Tensor(rng.normal(size=(out, 3 * d)), requires_grad=True)
    leaves.append(w)
    plain = rows = None
    if n_plain:
        n = size + n_plain
        rows = np.sort(rng.permutation(n)[:size])
        plain = Tensor(rng.normal(size=(n, 3 * d)), requires_grad=True)
        leaves.append(plain)
    return (entities, heads, tails, context, w, plain, rows), leaves


def dense_widened(entities, heads, tails, context, w, plain, rows):
    """The widened pair_linear by rows: concatenated pair rows, zeros for a missing
    context, and the plain rows through linear, placed by place_rows."""
    if isinstance(context, tuple):
        context = ad.matmul(*context)
    elif context is None:
        context = ad.constant(np.zeros((len(heads), w.shape[1] - 2 * entities.shape[1])))
    pairs = dense_pair_linear(entities, heads, tails, context, w)
    if plain is None:
        return pairs
    other = np.setdiff1d(np.arange(plain.shape[0]), rows)
    return ad.place_rows([pairs, ad.linear(ad.take_rows(plain, other), w)], [rows, other])


WIDENED = [("sentences", 0), ("sentences", 3), ("rows", 3), (None, 3)]


@pytest.mark.parametrize("context_kind,n_plain", WIDENED,
                         ids=[f"{k}-{n}plain" for k, n in WIDENED])
def test_widened_pair_linear_finite_differences(context_kind, n_plain):
    rng = np.random.default_rng(24)
    args, leaves = widened_inputs(rng, context_kind, n_plain)
    weights = ad.constant(rng.normal(size=(len(args[1]) + n_plain, args[4].shape[0])))
    err, checked, skipped = ad.check_gradients(
        lambda: ad.tsum(ad.mul(ad.pair_linear(*args[:5], plain=args[5], rows=args[6]),
                               weights)), leaves)
    assert checked == sum(t.size for t in leaves) and skipped == 0
    assert err < 1e-6, err


@pytest.mark.parametrize("context_kind,n_plain", WIDENED,
                         ids=[f"{k}-{n}plain" for k, n in WIDENED])
def test_widened_pair_linear_equals_dense_rows(context_kind, n_plain):
    rng = np.random.default_rng(25)
    for n_entities, size in ((2, 2), (5, 20), (6, 11)):
        args, leaves = widened_inputs(rng, context_kind, n_plain, n_entities=n_entities,
                                      d=4, out=6, size=size, n_sentences=5)
        weights = ad.constant(rng.normal(size=(size + n_plain, 6)))
        got, grads = values_and_gradients(
            lambda: ad.pair_linear(*args[:5], plain=args[5], rows=args[6]), leaves, weights)
        want, grads_d = values_and_gradients(lambda: dense_widened(*args), leaves, weights)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for a, b in zip(grads, grads_d):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_widened_pair_linear_rejects_bad_rows_and_widths():
    rng = np.random.default_rng(26)
    (entities, heads, tails, context, w, plain, rows), _ = widened_inputs(rng, "sentences", 3)
    with pytest.raises(ContractError):
        ad.pair_linear(entities, heads, tails, context, w, plain=plain, rows=np.zeros_like(rows))
    with pytest.raises(ContractError):
        ad.pair_linear(entities, heads, tails, context, w, plain=plain, rows=rows + 3)
    with pytest.raises(ShapeError):
        ad.pair_linear(entities, heads, tails, context, w, plain=Tensor(plain.data[:, 1:]),
                       rows=rows)
    alpha, sentences = context
    with pytest.raises(ShapeError):
        ad.pair_linear(entities, heads, tails, (alpha, Tensor(sentences.data[1:])), w)


def node_loop_aggregation(g):
    """The per-node loop that `aggregation_matrices` replaced."""
    n = g.n_nodes
    out = {}
    for kind in EdgeKind:
        adj = g.adjacency(kind)
        A = np.zeros((n, n))
        for u in range(n):
            c = max(1, len(adj[u]))
            A[u, adj[u]] = 1.0 / c
            A[u, u] += 1.0 / c
        out[kind] = A
    return out


def test_aggregation_matrices_equal_the_node_loop_bitwise():
    docs = [Document("n", [["a", "b", "c"]],
                     [Entity(i, "T", [Mention(0, i, i + 1, w)]) for i, w in enumerate("abc")],
                     []),
            Document("lone", [["a"]], [Entity(0, "T", [Mention(0, 0, 1, "a")])], [])]
    for seed, max_mentions in ((0, 6), (3, 6), (4, 8)):
        rng = np.random.default_rng(seed)
        docs += [random_document(rng, max_sentences=3, max_entities=4, max_mentions=max_mentions)
                 for _ in range(5)]
    for doc in docs:
        g = build_mention_graph(doc)
        got, want = aggregation_matrices(g), node_loop_aggregation(g)
        assert list(got) == list(want)
        for kind in EdgeKind:
            assert got[kind].dtype == want[kind].dtype and got[kind].shape == want[kind].shape
            assert got[kind].tobytes() == want[kind].tobytes(), (doc.title, kind)
