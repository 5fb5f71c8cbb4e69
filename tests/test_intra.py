"""Intra-sentential representations: span means, attention, top-K mixing."""

import numpy as np
import pytest

from docrel.autodiff import Tensor
from docrel.corpus import Document, Entity, Mention
from docrel.errors import ContractError, ShapeError
from docrel.intra import (context_attention, intra_instances, intra_pair_rep, span_means,
                          topk_context)


def enc_of(rows):
    """A sentence's (n, d) word-state tensor."""
    return Tensor(np.asarray(rows, dtype=float))


def span_mean(rows, span):
    """Mean of rows[s:t] through the span-averaging matrix."""
    rows = np.asarray(rows, dtype=float)
    return (span_means([span], len(rows)) @ rows)[0]


def test_single_token_span_is_identity():
    np.testing.assert_array_equal(span_mean([[1.0, 2.0], [3.0, 4.0]], (1, 2)), [3.0, 4.0])


def test_two_row_mean():
    np.testing.assert_allclose(span_mean([[1.0, 0.0], [0.0, 1.0]], (0, 2)), [0.5, 0.5])


def test_span_mean_matches_loop_sum_oracle():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(7, 4))
    s, t = 2, 6
    acc = np.zeros(4)
    for k in range(s, t):
        acc += rows[k]
    np.testing.assert_allclose(span_mean(rows, (s, t)), acc / (t - s), atol=1e-12)


def test_empty_span_rejected():
    with pytest.raises(ContractError):
        span_mean([[1.0, 2.0]], (1, 1))


def test_zero_weight_attention_is_uniform():
    enc = enc_of(np.ones((4, 3)))
    w = Tensor(np.zeros((3, 6)))
    head = tail = Tensor(np.ones(3))
    scores, alpha = context_attention(head, tail, enc, w)
    np.testing.assert_array_equal(scores.data, np.zeros(4))
    np.testing.assert_allclose(alpha.data, np.full(4, 0.25))


def test_attention_concentrates_with_scale():
    rng = np.random.default_rng(1)
    enc = enc_of(rng.normal(size=(3, 2)))
    head, tail = Tensor(rng.normal(size=2)), Tensor(rng.normal(size=2))
    w = Tensor(rng.normal(size=(2, 4)))
    _, alpha1 = context_attention(head, tail, enc, w)
    _, alpha10 = context_attention(head, tail, enc, Tensor(w.data * 10.0))
    top = int(np.argmax(alpha1.data))
    assert alpha10.data[top] > alpha1.data[top]
    assert np.argmax(alpha10.data) == top  # softmax preserves ordering


def test_attention_matches_reference_softmax_oracle():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(5, 3))
    enc = enc_of(g)
    head, tail = rng.normal(size=3), rng.normal(size=3)
    w = rng.normal(size=(3, 6))
    scores, alpha = context_attention(Tensor(head), Tensor(tail), enc, Tensor(w))
    expected_scores = np.maximum(g @ (w @ np.concatenate([head, tail])), 0.0)
    e = np.exp(expected_scores - expected_scores.max())
    np.testing.assert_allclose(scores.data, expected_scores, atol=1e-12)
    np.testing.assert_allclose(alpha.data, e / e.sum(), atol=1e-9)


def test_attention_width_mismatch():
    enc = enc_of(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        context_attention(Tensor(np.ones(3)), Tensor(np.ones(3)), enc, Tensor(np.zeros((3, 5))))


def test_topk_hand_arithmetic():
    # g1=[1,0], g2=[0,1], alpha=(0.5,0.5), K=1: tie -> lowest index
    enc = enc_of([[1.0, 0.0], [0.0, 1.0]])
    alpha = Tensor(np.array([0.5, 0.5]))
    c, idx = topk_context(enc, alpha, k=1, beta=0.9)
    np.testing.assert_array_equal(idx, [0])
    np.testing.assert_allclose(c.data, [0.95, 0.05], atol=1e-15)


def test_topk_equals_closed_form_at_k_equal_n():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 3))
    raw = rng.random(4)
    alpha_values = raw / raw.sum()
    enc = enc_of(g)
    c, idx = topk_context(enc, Tensor(alpha_values), k=4, beta=0.9)
    expected = 0.9 * g.mean(axis=0) + 0.1 * (alpha_values @ g)
    np.testing.assert_allclose(c.data, expected, atol=1e-12)
    np.testing.assert_array_equal(idx, [0, 1, 2, 3])


def test_topk_degrades_when_k_exceeds_n():
    enc = enc_of(np.ones((2, 2)))
    c, idx = topk_context(enc, Tensor(np.array([0.6, 0.4])), k=10, beta=0.5)
    assert len(idx) == 2


def test_batched_attention_rows_equal_single_instance_calls():
    rng = np.random.default_rng(11)
    enc = enc_of(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(3, 6)))
    heads, tails = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    scores, alpha = context_attention(Tensor(heads), Tensor(tails), enc, w)
    c, idx = topk_context(enc, alpha, k=2, beta=0.8)
    assert scores.shape == alpha.shape == (4, 5) and c.shape == (4, 3) and idx.shape == (4, 2)
    for i in range(4):
        s_i, a_i = context_attention(Tensor(heads[i]), Tensor(tails[i]), enc, w)
        c_i, idx_i = topk_context(enc, a_i, k=2, beta=0.8)
        np.testing.assert_allclose(scores.data[i], s_i.data, atol=1e-12)
        np.testing.assert_allclose(alpha.data[i], a_i.data, atol=1e-12)
        np.testing.assert_allclose(c.data[i], c_i.data, atol=1e-12)
        np.testing.assert_array_equal(idx[i], idx_i)


def intra_doc():
    return Document(
        "intra", [["h0", "f", "t0", "f2"], ["h1", "t1", "pad"], ["junk", "junk2"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h0"), Mention(1, 0, 1, "h1")]),
         Entity(1, "B", [Mention(0, 2, 3, "t0"), Mention(1, 1, 2, "t1")])],
        [])


def encode_all(doc, rng, d=4):
    return [enc_of(rng.normal(size=(len(s), d))) for s in doc.sentences]


def table_of(doc, pairs):
    """The co-occurrence instances of (head, tail) pairs."""
    rows = np.full((len(doc.entities),) * 2, -1)
    rows[tuple(np.array(pairs).T)] = np.arange(len(pairs))
    return intra_instances(doc, rows)


def stacked(encs):
    """Per-sentence state tensors as the document's (T, d) states and sentence offsets."""
    offsets = np.cumsum([0] + [e.shape[0] for e in encs])
    return Tensor(np.concatenate([e.data for e in encs])), offsets


def pair_route(doc, pair, encs, w, **kw):
    """The intra route over the co-occurrence instances of one (head, tail) pair."""
    return intra_pair_rep(table_of(doc, [pair]), *stacked(encs), w, **kw)


def test_intra_single_instance_is_plain_concat():
    doc = Document(
        "one", [["h", "x", "t"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h")]), Entity(1, "B", [Mention(0, 2, 3, "t")])],
        [])
    rng = np.random.default_rng(4)
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = (0, 1)
    rep = pair_route(doc, pair, encs, w, k=2, beta=0.9)
    e_h = encs[0].data[0]
    e_t = encs[0].data[2]
    np.testing.assert_allclose(rep.vectors.data[0, :4], e_h, atol=1e-12)
    np.testing.assert_allclose(rep.vectors.data[0, 4:8], e_t, atol=1e-12)
    assert rep.vectors.shape == (1, 12)
    assert rep.instances.pair.size == 1


def test_intra_mean_of_identical_sentences_collapses():
    doc = Document(
        "twin", [["h", "x", "t"], ["h", "x", "t"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h"), Mention(1, 0, 1, "h")]),
         Entity(1, "B", [Mention(0, 2, 3, "t"), Mention(1, 2, 3, "t")])],
        [])
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3, 4))
    encs = [enc_of(rows.copy()), enc_of(rows.copy())]
    w = Tensor(rng.normal(size=(4, 8)))
    pair = (0, 1)
    rep = pair_route(doc, pair, encs, w, k=2, beta=0.9)
    first_only = Document("first", doc.sentences[:1],
                          [Entity(e.id, e.type, e.mentions[:1]) for e in doc.entities], [])
    single = pair_route(first_only, (0, 1), encs[:1], w, k=2, beta=0.9)
    np.testing.assert_allclose(rep.vectors.data, single.vectors.data, atol=1e-12)
    assert rep.instances.pair.size == 2


def test_intra_instance_enumeration_oracle():
    # 2 head mentions x 1 tail mention in one sentence -> mean of 2 instance vectors
    doc = Document(
        "multi", [["h", "h2", "t", "pad"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h"), Mention(0, 1, 2, "h2")]),
         Entity(1, "B", [Mention(0, 2, 3, "t")])],
        [])
    rng = np.random.default_rng(6)
    encs = encode_all(doc, rng)
    w_values = rng.normal(size=(4, 8))
    pair = (0, 1)
    rep = pair_route(doc, pair, encs, Tensor(w_values), k=2, beta=0.9)

    # explicit enumeration with plain numpy
    g = encs[0].data
    vectors = []
    for hm in ((0, 1), (1, 2)):
        e_h = g[hm[0]:hm[1]].mean(axis=0)
        e_t = g[2:3].mean(axis=0)
        scores = np.maximum(g @ (w_values @ np.concatenate([e_h, e_t])), 0.0)
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        order = np.lexsort((np.arange(4), -alpha))
        idx = np.sort(order[:2])
        c = 0.9 * g[idx].mean(axis=0) + 0.1 * (alpha @ g)
        vectors.append(np.concatenate([e_h, e_t, c]))
    np.testing.assert_allclose(rep.vectors.data[0], np.mean(vectors, axis=0), atol=1e-9)
    assert rep.instances.pair.size == 2
    assert rep.topk.shape == (2, 2) and (rep.topk >= 0).all()


def test_intra_alpha_sums_to_one_and_topk_cardinality():
    rng = np.random.default_rng(7)
    doc = intra_doc()
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = (0, 1)
    rep = pair_route(doc, pair, encs, w, k=2, beta=0.9)
    for sid, alpha, topk in zip(rep.instances.sentence, rep.alpha, rep.topk):
        assert abs(alpha.sum() - 1.0) < 1e-6
        assert (topk >= 0).sum() == min(2, len(doc.sentences[sid]))


def test_intra_locality_under_edits_to_other_sentences():
    rng = np.random.default_rng(8)
    doc = intra_doc()
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = (0, 1)
    before = pair_route(doc, pair, encs, w, k=2, beta=0.9).vectors.data.copy()
    # arbitrary edits to the non-co-occurred sentence 2
    encs[2] = enc_of(rng.normal(size=(2, 4)) * 100.0)
    after = pair_route(doc, pair, encs, w, k=2, beta=0.9).vectors.data
    assert np.abs(before - after).max() <= 1e-12


def test_nested_averaging_weights_sentences_equally():
    # sentence 0 has 2 instances, sentence 1 has 1: flat weights them 1/3 each,
    # nested gives each sentence 1/2
    doc = Document(
        "nest", [["h", "h2", "t"], ["h3", "t2"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h"), Mention(0, 1, 2, "h2"), Mention(1, 0, 1, "h3")]),
         Entity(1, "B", [Mention(0, 2, 3, "t"), Mention(1, 1, 2, "t2")])],
        [])
    rng = np.random.default_rng(10)
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = (0, 1)

    def instance_vectors(sid, mention_pairs):
        g = encs[sid].data
        out = []
        for (hs, he), (ts, te) in mention_pairs:
            e_h = g[hs:he].mean(axis=0)
            e_t = g[ts:te].mean(axis=0)
            scores = np.maximum(g @ (w.data @ np.concatenate([e_h, e_t])), 0.0)
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            order = np.lexsort((np.arange(len(g)), -alpha))
            idx = np.sort(order[:2])
            c = 0.9 * g[idx].mean(axis=0) + 0.1 * (alpha @ g)
            out.append(np.concatenate([e_h, e_t, c]))
        return out

    s0 = instance_vectors(0, [((0, 1), (2, 3)), ((1, 2), (2, 3))])
    s1 = instance_vectors(1, [((0, 1), (1, 2))])
    flat = pair_route(doc, pair, encs, w, k=2, beta=0.9, average="flat").vectors.data[0]
    nested = pair_route(doc, pair, encs, w, k=2, beta=0.9, average="nested").vectors.data[0]
    np.testing.assert_allclose(flat, np.mean(s0 + s1, axis=0), atol=1e-9)
    np.testing.assert_allclose(nested, (np.mean(s0, axis=0) + np.mean(s1, axis=0)) / 2, atol=1e-9)
    assert not np.allclose(flat, nested)


def test_intra_requires_co_occurrence():
    doc = Document(
        "apart", [["h", "x"], ["t", "y"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h")]), Entity(1, "B", [Mention(1, 0, 1, "t")])],
        [])
    rng = np.random.default_rng(9)
    encs = encode_all(doc, rng)
    w = Tensor(np.zeros((4, 8)))
    with pytest.raises(ContractError):
        pair_route(doc, (0, 1), encs, w, k=2, beta=0.9)
    # an intra pair selected next to one without instances
    table = table_of(intra_doc(), [(0, 1), (1, 0)])
    with pytest.raises(ContractError):
        intra_pair_rep(table.select([0, 2]), *stacked(encode_all(intra_doc(), rng)), w,
                       k=2, beta=0.9)


def test_instance_table_order_and_selection():
    doc = intra_doc()
    table = table_of(doc, [(0, 1), (1, 0)])
    # pair by pair, then by sentence; spans are sentence-level, padded to the longest sentence
    np.testing.assert_array_equal(table.pair, [0, 0, 1, 1])
    np.testing.assert_array_equal(table.sentence, [0, 1, 0, 1])
    np.testing.assert_array_equal(table.head_means, span_means([(0, 1), (0, 1), (2, 3), (1, 2)], 4))
    np.testing.assert_array_equal(table.tail_means, span_means([(2, 3), (1, 2), (0, 1), (0, 1)], 4))
    picked = table.select([1, 0, 1])
    assert picked.n_pairs == 3
    np.testing.assert_array_equal(picked.pair, [0, 0, 1, 1, 2, 2])
    for name in ("sentence", "head_means", "tail_means"):
        np.testing.assert_array_equal(getattr(picked, name),
                                      getattr(table, name)[[2, 3, 0, 1, 2, 3]])
