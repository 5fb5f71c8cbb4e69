"""Whole-document pair routes against the per-pair oracle, and a tape that does
not grow with the number of pairs."""

import numpy as np
import pytest

import pair_oracle
from docrel import autodiff as ad
from docrel.autodiff import Tape, backward
from docrel.config import TrainingConfig, derive_rng
from docrel.corpus import Document, Entity, Mention, PairKind, RelationFact, build_vocabulary
from docrel.explain import explain_pair
from docrel.model import DropoutState, RelationModel, prepare_document
from gen import random_document, rule_corpus

ATOL = 1e-12


def crafted_document():
    """Multi-mention entities, multi-token spans, a pair co-occurring in two
    sentences, several instances in one sentence, sentences shorter than K."""
    sents = [["a0", "x", "a1", "a1b", "b0", "c0", "y"],
             ["a2", "b1", "b1b"],
             ["d0", "d0b", "z", "e0", "w"],
             ["b2", "v"],
             ["q", "f0", "r", "c1"]]
    ents = [Entity(0, "PER", [Mention(0, 0, 1, "a0"), Mention(0, 2, 4, "a1"),
                              Mention(1, 0, 1, "a2")]),
            Entity(1, "LOC", [Mention(0, 4, 5, "b0"), Mention(1, 1, 3, "b1"),
                              Mention(3, 0, 1, "b2")]),
            Entity(2, "ORG", [Mention(0, 5, 6, "c0"), Mention(4, 3, 4, "c1")]),
            Entity(3, "PER", [Mention(2, 0, 2, "d0")]),
            Entity(4, "LOC", [Mention(2, 3, 4, "e0")]),
            Entity(5, "ORG", [Mention(4, 1, 2, "f0")])]
    facts = [RelationFact(0, 1, 0, "r0", [0]), RelationFact(3, 4, 1, "r1", [2]),
             RelationFact(0, 5, 2, "r2", []), RelationFact(2, 1, 0, "r0", [])]
    return Document("crafted", sents, ents, facts)


def documents():
    rng = np.random.default_rng(17)
    docs = [crafted_document()]
    docs += [random_document(rng, title=f"rand{i}", max_sentences=4, max_entities=5,
                             max_mentions=9, min_sentences=2) for i in range(3)]
    docs += rule_corpus(rng, 2)
    return [d for d in docs if len(d.entities) > 1]


CONFIGS = {
    "flat": {},
    "nested": {"intra_average": "nested"},
    "topk_at_or_above_length": {"topk": 7},
    "inter4intra": {"inter4intra": True},
    "no_context": {"no_context": True},
    "no_reasoning": {"no_reasoning": True},
    "projection_and_two_layers": {"gcn_dim": 6, "reasoning_layers": 2},
}


def make_model(vocab, **overrides):
    cfg = dict(word_dim=6, type_dim=2, coref_dim=2, hidden_size=4, gcn_dim=8, gcn_layers=2,
               topk=2, beta=0.7, classifier_hidden=6, dropout=0.2, seed=9)
    cfg.update(overrides)
    return RelationModel(TrainingConfig(**cfg), vocab)


@pytest.fixture(scope="module")
def world():
    docs = documents()
    vocab = build_vocabulary(docs)
    return docs, vocab, [prepare_document(d, vocab) for d in docs]


def frozen_dropout(model):
    return DropoutState(model.config.dropout, derive_rng(model.config.seed, "oracle-dropout"),
                        frozen=True)


def gradients(loss_fn, model):
    with Tape():
        loss = loss_fn()
        backward(loss)
        grads = {p.name: None if p.grad is None else p.grad.copy() for p in model.parameters()}
    for p in model.parameters():
        p.zero_grad()
    return float(loss.data), grads


def sampled_rows(feats, seed):
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(len(feats.pairs))[:max(2, len(feats.pairs) // 3)])


def assert_matches_the_oracle(model, feats, rows):
    """Values, gamma, loss and every gradient against the per-pair oracle, at ATOL."""
    dropout = frozen_dropout(model)
    got = model.forward(feats, rows, dropout)
    want = pair_oracle.forward(model, feats, rows, dropout)
    assert got.reps_pre.shape == (len(want.pairs), 3 * model.config.model_width)
    np.testing.assert_allclose(got.reps_pre.data,
                               np.stack([r.vector.data for r in want.reps_pre]),
                               rtol=0, atol=ATOL)
    np.testing.assert_allclose(got.reps_post.data, want.reps_post.data, rtol=0, atol=ATOL)
    np.testing.assert_allclose(got.probs.data, want.probs.data, rtol=0, atol=ATOL)
    assert (got.gamma is None) == (want.gamma is None)
    if want.gamma is not None:
        np.testing.assert_allclose(pair_oracle.dense_gamma(got.groups, got.gamma), want.gamma,
                                   rtol=0, atol=ATOL)

    loss, grads = gradients(lambda: model.document_loss(feats, rows, dropout), model)
    loss_ref, grads_ref = gradients(
        lambda: pair_oracle.document_loss(model, feats, rows, dropout), model)
    assert loss == pytest.approx(loss_ref, abs=ATOL)
    for pname, g_ref in grads_ref.items():
        if g_ref is None:
            assert grads[pname] is None or not grads[pname].any(), pname
        else:
            np.testing.assert_allclose(grads[pname], g_ref, rtol=0, atol=ATOL, err_msg=pname)
    return got


@pytest.mark.parametrize("name", list(CONFIGS))
@pytest.mark.parametrize("subset", [False, True], ids=["all_pairs", "sampled_pairs"])
def test_routes_match_the_per_pair_oracle(world, name, subset):
    docs, vocab, features = world
    model = make_model(vocab, **CONFIGS[name])
    for seed, feats in enumerate(features):
        assert_matches_the_oracle(model, feats, sampled_rows(feats, seed) if subset else None)


def one_route_documents():
    """A document whose pairs are all inter (every entity in its own sentence) and
    one whose pairs are all intra (every entity in one sentence)."""
    inter = Document("only_inter", [["a", "x"], ["y", "b", "b2"], ["c", "z"], ["w"]],
                     [Entity(0, "PER", [Mention(0, 0, 1, "a")]),
                      Entity(1, "LOC", [Mention(1, 1, 3, "b")]),
                      Entity(2, "ORG", [Mention(2, 0, 1, "c"), Mention(3, 0, 1, "w")])],
                     [RelationFact(0, 1, 0, "r0", [0, 1]), RelationFact(2, 0, 1, "r1", [])])
    intra = Document("only_intra", [["a", "x", "b", "c", "y"], ["z", "a2"]],
                     [Entity(0, "PER", [Mention(0, 0, 1, "a"), Mention(1, 1, 2, "a2")]),
                      Entity(1, "LOC", [Mention(0, 2, 3, "b")]),
                      Entity(2, "ORG", [Mention(0, 3, 4, "c")])],
                     [RelationFact(0, 1, 0, "r0", [0]), RelationFact(1, 2, 1, "r1", [0])])
    return [inter, intra]


@pytest.mark.parametrize("name", ["flat", "inter4intra", "no_context",
                                  "projection_and_two_layers"])
def test_one_route_documents_match_the_per_pair_oracle(name):
    docs = one_route_documents()
    vocab = build_vocabulary(docs)
    model = make_model(vocab, **CONFIGS[name])
    for doc in docs:
        feats = prepare_document(doc, vocab)
        kinds = {p.kind for p in feats.pairs}
        assert kinds == ({PairKind.INTER} if doc.title == "only_inter" else {PairKind.INTRA})
        for rows in (None, np.array([0, 2, 3])):
            got = assert_matches_the_oracle(model, feats, rows)
            assert (got.intra is None) == (kinds == {PairKind.INTER} or model.config.inter4intra)
            assert (got.inter is None) == (kinds == {PairKind.INTRA}
                                           and not model.config.inter4intra)


def test_the_oracle_stays_dense(world, monkeypatch):
    """The oracle multiplies every pair's whole row; it never forms a product per entity."""
    docs, vocab, features = world
    model = make_model(vocab)

    def refuse(*args):
        raise AssertionError("the oracle called pair_linear")
    monkeypatch.setattr(ad, "pair_linear", refuse)
    for feats in features:
        pair_oracle.document_loss(model, feats, dropout=frozen_dropout(model))
    with pytest.raises(AssertionError, match="pair_linear"):
        model.forward(features[0])


def intra_views(record):
    return [(c.sentence_id, c.head_text, c.tail_text,
             [(h.sentence_id, h.token_index, h.token) for h in c.top_words])
            for c in record.intra_contexts]


def intra_alphas(record):
    return [h.alpha for c in record.intra_contexts for h in c.top_words]


def evidence(record):
    return np.array([(e.sentence_id, e.score, e.weight) for e in record.evidence]).reshape(-1, 3)


def assert_records_match(got, want):
    assert (got.title, got.head, got.tail, got.kind, got.decisions) == \
        (want.title, want.head, want.tail, want.kind, want.decisions)
    for field in ("probabilities", "rep_before", "rep_after", "pool_before", "gamma_row"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=0, atol=ATOL, err_msg=field)
    if want.candidate_ids is not None:
        np.testing.assert_array_equal(got.candidate_ids, want.candidate_ids)
    assert intra_views(got) == intra_views(want)
    np.testing.assert_allclose(intra_alphas(got), intra_alphas(want), rtol=0, atol=ATOL)
    np.testing.assert_allclose(evidence(got), evidence(want), rtol=0, atol=ATOL)
    # near-equal gammas may sort either way, so chains compare by pair
    key = lambda v: (v.head, v.tail, v.is_self)  # noqa: E731
    assert sorted(map(key, got.chains)) == sorted(map(key, want.chains))
    np.testing.assert_allclose([v.gamma for v in sorted(got.chains, key=key)],
                               [v.gamma for v in sorted(want.chains, key=key)], rtol=0, atol=ATOL)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_explanations_match_the_per_pair_oracle(world, name):
    docs, vocab, features = world
    model = make_model(vocab, dropout=0.0, **CONFIGS[name])
    seen = set()
    for feats in features:
        for p in feats.pairs:
            got = explain_pair(model, feats, p.head, p.tail)
            assert_records_match(got, pair_oracle.explain_pair(model, feats, p.head, p.tail))
            seen.add((p.kind, bool(got.intra_contexts), bool(got.evidence)))
    if name == "inter4intra":
        assert seen == {(PairKind.INTRA, False, True), (PairKind.INTER, False, True)}
    else:
        assert seen == {(PairKind.INTRA, True, False), (PairKind.INTER, False, True)}


def test_crafted_document_covers_the_instance_cases(world):
    feats = prepare_document(crafted_document(), world[1])
    inst = feats.instances
    per_pair = np.bincount(inst.pair, minlength=len(feats.pairs))
    ab = feats.pair_rows[0, 1]
    # (a0, b0), (a1, b0) in sentence 0 and (a2, b1) in sentence 1
    assert per_pair[ab] == 3
    assert set(inst.sentence[inst.pair == ab]) == {0, 1}
    is_intra = np.array([p.kind is PairKind.INTRA for p in feats.pairs])
    assert per_pair[~is_intra].sum() == 0
    assert (per_pair[is_intra] > 0).all()
    assert min(len(s) for s in crafted_document().sentences) < CONFIGS[
        "topk_at_or_above_length"]["topk"] <= max(len(s) for s in crafted_document().sentences)


def tape_length(model, feats):
    with Tape() as tape:
        model.document_loss(feats)
        return len(tape)


def test_tape_length_does_not_grow_with_pairs():
    sents = [["a", "x", "b", "y", "c"], ["d", "z", "e"], ["f", "g", "h", "i"]]
    small = Document("small", sents,
                     [Entity(0, "PER", [Mention(0, 0, 1, "a")]),
                      Entity(1, "LOC", [Mention(0, 2, 3, "b")]),
                      Entity(2, "ORG", [Mention(1, 0, 1, "d")])],
                     [RelationFact(0, 1, 0, "r0", [])])
    # more entities, mentions and pairs; sentence 0 still hosts every intra instance
    big = Document("big", sents,
                   [Entity(0, "PER", [Mention(0, 0, 1, "a"), Mention(1, 2, 3, "e")]),
                    Entity(1, "LOC", [Mention(0, 2, 3, "b"), Mention(0, 3, 4, "y")]),
                    Entity(2, "ORG", [Mention(0, 4, 5, "c")]),
                    Entity(3, "PER", [Mention(2, 0, 1, "f"), Mention(2, 2, 4, "h")]),
                    Entity(4, "LOC", [Mention(0, 1, 2, "x")])],
                   [RelationFact(0, 1, 0, "r0", []), RelationFact(3, 2, 0, "r0", [])])
    vocab = build_vocabulary([small, big])
    model = make_model(vocab, dropout=0.0)
    f_small, f_big = prepare_document(small, vocab), prepare_document(big, vocab)
    hosts = [set(f.instances.sentence.tolist()) for f in (f_small, f_big)]
    assert hosts[0] == hosts[1] == {0}
    assert len(f_big.pairs) > len(f_small.pairs)
    assert f_big.instances.pair.size > f_small.instances.pair.size
    assert tape_length(model, f_big) == tape_length(model, f_small)
