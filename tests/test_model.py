"""Classifier head, BCE loss, full forward assembly and the ablation flags."""

import threading

import numpy as np
import pytest

from docrel import autodiff as ad
from docrel import model as model_mod
from docrel.autodiff import Tape, Tensor, backward
from docrel.config import TrainingConfig
from docrel.corpus import Document, PairKind, RelationFact, build_vocabulary
from docrel.errors import ContractError, ShapeError, ValidationError
from docrel.model import (ClassifierParams, RelationModel, bce_loss, prepare_document,
                          relation_probabilities)
from docrel.optim import Parameter
from gen import rule_corpus, random_document


def toy_config(**overrides):
    base = dict(word_dim=6, type_dim=2, coref_dim=2, hidden_size=4, gcn_dim=8,
                gcn_layers=2, topk=2, classifier_hidden=6, dropout=0.0, seed=5)
    base.update(overrides)
    return TrainingConfig(**base)


def toy_classifier(rep_width=6, hidden=4, n_rel=3, seed=0):
    rng = np.random.default_rng(seed)
    return ClassifierParams.create(rng, rep_width, hidden, n_rel)


def test_zero_params_give_one_half_everywhere():
    params = toy_classifier()
    for p in params.parameters():
        p.tensor.data[...] = 0.0
    probs = relation_probabilities(Tensor(np.ones(6)), params)
    np.testing.assert_allclose(probs.data, np.full(3, 0.5))


def test_large_negative_bias_saturates_towards_zero():
    params = toy_classifier()
    base = relation_probabilities(Tensor(np.ones(6)), params).data
    params.b2.tensor.data[...] = -30.0
    low = relation_probabilities(Tensor(np.ones(6)), params).data
    assert np.all(low < base)
    assert np.all(low < 1e-8)


def test_probabilities_match_direct_two_layer_oracle():
    rng = np.random.default_rng(1)
    params = toy_classifier(seed=1)
    rep = rng.normal(size=6)
    probs = relation_probabilities(Tensor(rep), params).data
    hidden = np.maximum(params.w2.data @ rep + params.b1.data, 0.0)
    logits = params.w1.data @ hidden + params.b2.data
    np.testing.assert_allclose(probs, 1 / (1 + np.exp(-logits)), atol=1e-9)


def test_probabilities_shape_check():
    with pytest.raises(ShapeError):
        relation_probabilities(Tensor(np.ones(5)), toy_classifier())


def test_bce_single_positive_at_half_is_ln2():
    probs = Tensor(np.array([[0.5]]))
    loss = bce_loss(probs, np.array([[1.0]]))
    assert float(loss.data) == pytest.approx(np.log(2.0))


def test_bce_perfect_predictions_vanish():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = bce_loss(probs, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_bce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(2)
    probs = rng.uniform(0.01, 0.99, size=(4, 3))
    y = (rng.random((4, 3)) < 0.3).astype(float)
    total = 0.0
    for i in range(4):
        for j in range(3):
            p = probs[i, j]
            total -= y[i, j] * np.log(p) + (1 - y[i, j]) * np.log(1 - p)
    loss = bce_loss(Tensor(probs), y)
    assert float(loss.data) == pytest.approx(total, abs=1e-9)
    mean_loss = bce_loss(Tensor(probs), y, reduction="mean")
    assert float(mean_loss.data) == pytest.approx(total / 12, abs=1e-9)


def test_bce_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs = rng.uniform(0, 1, size=(3, 2))
        y = (rng.random((3, 2)) < 0.5).astype(float)
        assert float(bce_loss(Tensor(probs), y).data) >= 0.0


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    rng = np.random.default_rng(7)
    docs = rule_corpus(rng, 3)
    vocab = build_vocabulary(docs)
    return docs, vocab


def test_forward_shapes_and_kinds(small_world):
    docs, vocab = small_world
    model = RelationModel(toy_config(), vocab)
    feats = prepare_document(docs[0], vocab)
    out = model.forward(feats)
    n_pairs = len(feats.pairs)
    assert out.probs.shape == (n_pairs, vocab.n_relations)
    assert out.reps_post.shape == (n_pairs, 3 * 8)
    assert np.all(out.probs.data >= 0) and np.all(out.probs.data <= 1)
    assert out.reps_pre.shape == (n_pairs, 3 * 8)
    # intra pairs take the first rows of the route blocks, inter pairs the rest
    routed_intra = out.block_row < out.intra.vectors.shape[0]
    np.testing.assert_array_equal(routed_intra, [p.kind is PairKind.INTRA for p in feats.pairs])
    np.testing.assert_array_equal(out.rows, np.arange(n_pairs))
    assert out.inter.vectors.shape[0] == n_pairs - routed_intra.sum()
    np.testing.assert_array_equal(np.sort(out.block_row), np.arange(n_pairs))


def test_projection_created_only_when_widths_differ(small_world):
    docs, vocab = small_world
    # encoder width 2*4 equals gcn_dim 8: no projection parameter
    assert RelationModel(toy_config(), vocab).projection is None
    model_neq = RelationModel(toy_config(gcn_dim=6), vocab)
    assert model_neq.projection is not None
    assert model_neq.projection.data.shape == (6, 8)
    assert model_neq.forward(prepare_document(docs[0], vocab)).reps_post.shape[1] == 18


def test_gold_matrix_multilabel(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    y = feats.gold
    assert y.shape == (len(feats.pairs), vocab.n_relations)
    gold = {(f.head, f.tail, f.relation) for f in docs[0].facts}
    for i, p in enumerate(feats.pairs):
        for r in range(vocab.n_relations):
            assert y[i, r] == ((p.head, p.tail, r) in gold)


def test_pair_rows_table_inverts_the_pair_arrays(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    n = len(docs[0].entities)
    assert feats.pair_rows.shape == (n, n)
    np.testing.assert_array_equal(np.diag(feats.pair_rows), np.full(n, -1))
    np.testing.assert_array_equal(feats.pair_rows[feats.heads, feats.tails],
                                  np.arange(len(feats.pairs)))
    assert [(p.head, p.tail) for p in feats.pairs] == list(zip(feats.heads, feats.tails))


def test_relation_id_outside_the_vocabulary_is_rejected(small_world):
    docs, vocab = small_world
    doc = docs[0]
    bad = Document(doc.title, doc.sentences, doc.entities,
                   [RelationFact(0, 1, vocab.n_relations, "unknown", [])])
    with pytest.raises(ValidationError):
        prepare_document(bad, vocab)


def test_forward_takes_a_row_subset(small_world):
    docs, vocab = small_world
    model = RelationModel(toy_config(), vocab)
    feats = prepare_document(docs[0], vocab)
    rows = np.array([1, 4, 5])
    out = model.forward(feats, rows)
    np.testing.assert_array_equal(out.rows, rows)
    assert out.probs.shape == (3, vocab.n_relations)
    for bad in (np.array([], dtype=np.int64), np.array([-1]), np.array([len(feats.pairs)])):
        with pytest.raises(ContractError):
            model.forward(feats, bad)


def test_forward_rejects_a_duplicate_row(small_world):
    # chain reasoning groups pairs by head and tail, so a repeated pair would
    # silently change the attention over the others
    docs, vocab = small_world
    model = RelationModel(toy_config(), vocab)
    feats = prepare_document(docs[0], vocab)
    model.forward(feats, np.array([0, 1, 2]))
    with pytest.raises(ContractError, match="distinct"):
        model.forward(feats, np.array([0, 0, 1, 2]))


def test_no_reasoning_flag_bypasses_update(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    model = RelationModel(toy_config(no_reasoning=True), vocab)
    out = model.forward(feats)
    assert out.gamma is None
    np.testing.assert_array_equal(out.reps_post.data, out.reps_pre.data)


def test_no_context_zeroes_last_third(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    model = RelationModel(toy_config(no_context=True, no_reasoning=True), vocab)
    out = model.forward(feats)
    width = model.config.model_width
    tail = out.reps_post.data[:, 2 * width:]
    np.testing.assert_array_equal(tail, np.zeros_like(tail))
    head = out.reps_post.data[:, :2 * width]
    assert np.abs(head).max() > 0


def test_inter4intra_routes_all_pairs_through_graph(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    model = RelationModel(toy_config(inter4intra=True), vocab)
    out = model.forward(feats)
    assert out.intra is None
    assert out.inter.alpha.shape == (len(feats.pairs), len(docs[0].sentences))
    # metric routing is untouched
    assert any(p.kind is PairKind.INTRA for p in feats.pairs)


def test_forward_deterministic_without_dropout(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    model = RelationModel(toy_config(), vocab)
    a = model.forward(feats).probs.data
    b = model.forward(feats).probs.data
    assert a.tobytes() == b.tobytes()


def test_state_roundtrip_preserves_forward(small_world):
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    model = RelationModel(toy_config(), vocab)
    probs = model.forward(feats).probs.data.copy()
    state = model.state_arrays()
    other = RelationModel(toy_config(seed=99), vocab)
    assert other.forward(feats).probs.data.tobytes() != probs.tobytes()
    other.load_state(state)
    assert other.forward(feats).probs.data.tobytes() == probs.tobytes()


def test_parameter_names_are_unique(small_world):
    _, vocab = small_world
    model = RelationModel(toy_config(), vocab)
    names = [p.name for p in model.parameters()]
    assert len(names) == len(set(names))


def test_node_initialization_contract(small_world):
    # mention nodes: mean of document-level token vectors over the mention span;
    # sentence nodes: sentence summaries; document node: document summary
    docs, vocab = small_world
    feats = prepare_document(docs[0], vocab)
    model = RelationModel(toy_config(), vocab)
    rng = np.random.default_rng(0)
    m_tokens = docs[0].n_tokens
    width = model.config.model_width
    g_doc = rng.normal(size=(m_tokens, width))
    summaries = rng.normal(size=(len(docs[0].sentences), width))
    d_doc = rng.normal(size=(1, width))
    h0 = model.initial_node_states(feats, Tensor(g_doc), Tensor(summaries), Tensor(d_doc)).data
    n_mentions = len(feats.graph.mention_nodes)
    offsets = docs[0].sentence_offsets()
    for node in feats.graph.nodes[:n_mentions]:
        eid, mi, sid = node.payload
        m = docs[0].entities[eid].mentions[mi]
        s, t = offsets[sid] + m.start, offsets[sid] + m.end
        np.testing.assert_allclose(h0[node.id], g_doc[s:t].mean(axis=0), atol=1e-12)
    for sid, node_id in enumerate(feats.graph.sentence_nodes):
        np.testing.assert_array_equal(h0[node_id], summaries[sid])
    np.testing.assert_array_equal(h0[feats.graph.document_node], d_doc[0])
    assert h0.shape == (n_mentions + len(docs[0].sentences) + 1, width)


def test_mention_means_line_up_with_document_spans(small_world):
    rng = np.random.default_rng(11)
    doc = random_document(rng, max_sentences=4, max_entities=4, max_mentions=7)
    vocab = build_vocabulary([doc])
    feats = prepare_document(doc, vocab)
    offsets = doc.sentence_offsets()
    for node in feats.graph.nodes[:len(feats.graph.mention_nodes)]:
        eid, mi, sid = node.payload
        m = doc.entities[eid].mentions[mi]
        row = np.zeros(doc.n_tokens)
        row[offsets[sid] + m.start:offsets[sid] + m.end] = 1.0 / (m.end - m.start)
        np.testing.assert_array_equal(feats.mention_means[node.id], row)


def test_forward_on_another_thread_stays_off_an_open_tape(small_world):
    docs, vocab = small_world
    model = RelationModel(toy_config(), vocab)
    feats = prepare_document(docs[0], vocab)
    seen = []
    with Tape() as tape:
        loss = model.document_loss(feats)
        recorded = len(tape)
        worker = threading.Thread(target=lambda: seen.append(model.forward(feats).probs))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(tape) == recorded and loss.tape is tape
    assert len(seen) == 1 and seen[0].tape is None


FACTORED_CONFIGS = {
    "one_layer": {},
    "two_layers": {"reasoning_layers": 2},
    "no_reasoning": {"no_reasoning": True},
    "no_context": {"no_context": True},
    "inter4intra": {"inter4intra": True},
}


@pytest.mark.parametrize("name", list(FACTORED_CONFIGS))
def test_factored_classifier_matches_the_classifier_on_reps_post(small_world, monkeypatch,
                                                                 name):
    """The forward mixes W2 products through the last reasoning layer and never forms
    reps_post; the classifier on the reps_post it reports gives the same probabilities."""
    docs, vocab = small_world
    model = RelationModel(toy_config(**FACTORED_CONFIGS[name]), vocab)
    widths = []
    update = model_mod.reasoning_update

    def recording(*args):
        result = update(*args)
        widths.append(result[0].shape[1])
        return result

    monkeypatch.setattr(model_mod, "reasoning_update", recording)
    rep_width, hidden = 3 * model.config.model_width, model.config.classifier_width
    for doc in docs:
        feats = prepare_document(doc, vocab)
        for rows in (None, np.arange(0, len(feats.pairs), 2)):
            widths.clear()
            out = model.forward(feats, rows)
            # every layer but the last mixes 3d-wide rows; the last mixes W2 products
            layers = 0 if model.config.no_reasoning else model.config.reasoning_layers
            assert widths == [rep_width] * (layers - 1) + [hidden] * (layers > 0)
            assert out.reps_post.shape == out.pool_input.shape == (len(out.rows), rep_width)
            want = relation_probabilities(out.reps_post, model.classifier).data
            np.testing.assert_allclose(out.probs.data, want, rtol=0, atol=1e-12)


def test_one_gradient_contribution_to_each_pair_row_weight(small_world, monkeypatch):
    """Over a pool of intra and inter rows, one backward writes reason.att's and
    cls.w2's gradient once each, never a second full-size array added to the first."""
    docs, vocab = small_world
    model = RelationModel(toy_config(), vocab)
    feats = prepare_document(docs[0], vocab)
    assert {p.kind for p in feats.pairs} == {PairKind.INTRA, PairKind.INTER}
    watched = {id(model.w_att.tensor): "reason.att", id(model.classifier.w2.tensor): "cls.w2"}
    seen = []
    accum, adopt = ad._accum, ad._adopt

    def count(original):
        def wrapper(t, g):
            if id(t) in watched:
                seen.append(watched[id(t)])
            return original(t, g)
        return wrapper

    monkeypatch.setattr(ad, "_accum", count(accum))
    monkeypatch.setattr(ad, "_adopt", count(adopt))
    with Tape():
        backward(model.document_loss(feats))
    assert sorted(seen) == ["cls.w2", "reason.att"]
