"""Intra-sentential representations: span means, attention, top-K mixing."""

import numpy as np
import pytest

from docrel.autodiff import Tensor
from docrel.corpus import Document, Entity, EntityPair, Mention, PairKind
from docrel.errors import ContractError, ShapeError
from docrel.intra import context_attention, intra_pair_rep, mention_span_rep, topk_context


def enc_of(rows):
    """A sentence's (n, d) word-state tensor."""
    return Tensor(np.asarray(rows, dtype=float))


def test_single_token_span_is_identity():
    enc = enc_of([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(mention_span_rep(enc, (1, 2)).data, [3.0, 4.0])


def test_two_row_mean():
    enc = enc_of([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(mention_span_rep(enc, (0, 2)).data, [0.5, 0.5])


def test_span_mean_matches_loop_sum_oracle():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(7, 4))
    enc = enc_of(rows)
    s, t = 2, 6
    acc = np.zeros(4)
    for k in range(s, t):
        acc += rows[k]
    np.testing.assert_allclose(mention_span_rep(enc, (s, t)).data, acc / (t - s), atol=1e-12)


def test_empty_span_rejected():
    enc = enc_of([[1.0, 2.0]])
    with pytest.raises(ContractError):
        mention_span_rep(enc, (1, 1))


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


def intra_doc():
    return Document(
        "intra", [["h0", "f", "t0", "f2"], ["h1", "t1", "pad"], ["junk", "junk2"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h0"), Mention(1, 0, 1, "h1")]),
         Entity(1, "B", [Mention(0, 2, 3, "t0"), Mention(1, 1, 2, "t1")])],
        [])


def encode_all(doc, rng, d=4):
    return [enc_of(rng.normal(size=(len(s), d))) for s in doc.sentences]


def test_intra_single_instance_is_plain_concat():
    doc = Document(
        "one", [["h", "x", "t"]],
        [Entity(0, "A", [Mention(0, 0, 1, "h")]), Entity(1, "B", [Mention(0, 2, 3, "t")])],
        [])
    rng = np.random.default_rng(4)
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = EntityPair(0, 1, PairKind.INTRA, [0])
    rep = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9)
    e_h = encs[0].data[0]
    e_t = encs[0].data[2]
    np.testing.assert_allclose(rep.vector.data[:4], e_h, atol=1e-12)
    np.testing.assert_allclose(rep.vector.data[4:8], e_t, atol=1e-12)
    assert rep.vector.shape == (12,)
    assert len(rep.provenance) == 1


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
    pair = EntityPair(0, 1, PairKind.INTRA, [0, 1])
    rep = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9)
    single = intra_pair_rep(EntityPair(0, 1, PairKind.INTRA, [0]), doc, encs, w, k=2, beta=0.9)
    np.testing.assert_allclose(rep.vector.data, single.vector.data, atol=1e-12)
    assert len(rep.provenance) == 2


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
    pair = EntityPair(0, 1, PairKind.INTRA, [0])
    rep = intra_pair_rep(pair, doc, encs, Tensor(w_values), k=2, beta=0.9)

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
    np.testing.assert_allclose(rep.vector.data, np.mean(vectors, axis=0), atol=1e-9)
    assert len(rep.provenance) == 2
    assert all(len(ctx.topk) == 2 for ctx in rep.provenance)


def test_intra_alpha_sums_to_one_and_topk_cardinality():
    rng = np.random.default_rng(7)
    doc = intra_doc()
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = EntityPair(0, 1, PairKind.INTRA, [0, 1])
    rep = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9)
    for ctx in rep.provenance:
        assert abs(ctx.alpha.sum() - 1.0) < 1e-6
        assert len(ctx.topk) == min(2, len(doc.sentences[ctx.sentence_id]))


def test_intra_locality_under_edits_to_other_sentences():
    rng = np.random.default_rng(8)
    doc = intra_doc()
    encs = encode_all(doc, rng)
    w = Tensor(rng.normal(size=(4, 8)))
    pair = EntityPair(0, 1, PairKind.INTRA, [0, 1])
    before = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9).vector.data.copy()
    # arbitrary edits to the non-co-occurred sentence 2
    encs[2] = enc_of(rng.normal(size=(2, 4)) * 100.0)
    after = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9).vector.data
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
    pair = EntityPair(0, 1, PairKind.INTRA, [0, 1])

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
    flat = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9, average="flat")
    nested = intra_pair_rep(pair, doc, encs, w, k=2, beta=0.9, average="nested")
    np.testing.assert_allclose(flat.vector.data, np.mean(s0 + s1, axis=0), atol=1e-9)
    np.testing.assert_allclose(
        nested.vector.data, (np.mean(s0, axis=0) + np.mean(s1, axis=0)) / 2, atol=1e-9)
    assert not np.allclose(flat.vector.data, nested.vector.data)


def test_intra_requires_co_occurrence():
    doc = intra_doc()
    rng = np.random.default_rng(9)
    encs = encode_all(doc, rng)
    w = Tensor(np.zeros((4, 8)))
    ghost = EntityPair(0, 1, PairKind.INTRA, [2])  # no mentions in sentence 2
    with pytest.raises(ContractError):
        intra_pair_rep(ghost, doc, encs, w, k=2, beta=0.9)
    with pytest.raises(ContractError):
        intra_pair_rep(EntityPair(0, 1, PairKind.INTER, []), doc, encs, w, k=2, beta=0.9)
