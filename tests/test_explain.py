"""Explanation records: top-K words, evidence weights, replayable reasoning."""

import numpy as np
import pytest

from docrel.config import TrainingConfig
from docrel.corpus import PairKind, build_vocabulary
from docrel.errors import NotFoundError
from docrel.explain import explain_pair, render_explanation
from docrel.model import RelationModel, prepare_document
from gen import rule_corpus


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(31)
    docs = rule_corpus(rng, 2)
    vocab = build_vocabulary(docs)
    cfg = TrainingConfig(word_dim=6, type_dim=2, coref_dim=2, hidden_size=4, gcn_dim=8,
                         gcn_layers=1, topk=4, classifier_hidden=6, dropout=0.0, seed=3)
    model = RelationModel(cfg, vocab)
    feats = [prepare_document(d, vocab) for d in docs]
    return docs, vocab, model, feats


def intra_pair_of(feats):
    return next((p.head, p.tail) for p in feats.pairs if p.kind is PairKind.INTRA)


def inter_pair_of(feats):
    return next((p.head, p.tail) for p in feats.pairs if p.kind is PairKind.INTER)


def test_intra_record_highlights_k_words(world):
    docs, vocab, model, feats = world
    h, t = intra_pair_of(feats[0])
    record = explain_pair(model, feats[0], h, t)
    assert record.kind is PairKind.INTRA
    assert record.intra_contexts
    for ctx in record.intra_contexts:
        n_words = len(docs[0].sentences[ctx.sentence_id])
        assert len(ctx.top_words) == min(4, n_words)
        for w in ctx.top_words:
            assert w.token == docs[0].sentences[ctx.sentence_id][w.token_index]


def test_inter_record_untrained_evidence_is_near_uniform(world):
    docs, vocab, model, feats = world
    h, t = inter_pair_of(feats[0])
    record = explain_pair(model, feats[0], h, t)
    assert record.kind is PairKind.INTER
    weights = np.array([ev.weight for ev in record.evidence])
    assert len(weights) == len(docs[0].sentences)
    assert abs(weights.sum() - 1.0) < 1e-6
    # untrained scores hover near 0.5, so no sentence should dominate
    assert weights.max() < 0.6


def test_gamma_sums_to_one_and_replays_forward(world):
    docs, vocab, model, feats = world
    h, t = intra_pair_of(feats[0])
    record = explain_pair(model, feats[0], h, t)
    gammas = np.array([c.gamma for c in record.chains])
    assert abs(gammas.sum() - 1.0) < 1e-6
    # recompose r_new from the stored gamma row and pre-reasoning pool
    recomposed = record.gamma_row @ record.pool_before
    np.testing.assert_allclose(recomposed, record.rep_after, atol=1e-9)


def test_chains_are_chain_shaped(world):
    docs, vocab, model, feats = world
    h, t = inter_pair_of(feats[0])
    record = explain_pair(model, feats[0], h, t)
    for view in record.chains:
        if view.is_self:
            assert (view.head, view.tail) == (h, t)
        else:
            shares_head = view.head == h and view.tail != t
            shares_tail = view.tail == t and view.head != h
            assert shares_head or shares_tail


def test_unknown_pair_raises(world):
    docs, vocab, model, feats = world
    with pytest.raises(NotFoundError):
        explain_pair(model, feats[0], 0, 99)


@pytest.mark.parametrize("pair", ["negative", "self", "past_the_last"])
def test_pair_outside_the_table_raises(world, pair):
    docs, vocab, model, feats = world
    n = len(docs[0].entities)
    head, tail = {"negative": (-1, 0), "self": (0, 0), "past_the_last": (0, n)}[pair]
    with pytest.raises(NotFoundError):
        explain_pair(model, feats[0], head, tail)


def test_render_is_textual_and_complete(world):
    docs, vocab, model, feats = world
    h, t = intra_pair_of(feats[0])
    record = explain_pair(model, feats[0], h, t)
    text = render_explanation(record, vocab)
    assert f"head={h} tail={t}" in text
    assert "top word" in text
    assert "reasoning attention" in text


def test_probabilities_and_decisions_consistent(world):
    docs, vocab, model, feats = world
    h, t = intra_pair_of(feats[0])
    record = explain_pair(model, feats[0], h, t, threshold=0.0)
    assert record.decisions == list(range(vocab.n_relations))
    record_high = explain_pair(model, feats[0], h, t, threshold=1.1)
    assert record_high.decisions == []
