"""Threshold calibration, training determinism, divergence diagnostics."""

import gc
import json

import numpy as np
import pytest

from docrel.autodiff import Tensor
from docrel.config import TrainingConfig
from docrel.corpus import build_vocabulary
from docrel.errors import ContractError, TrainingDiverged
from docrel.evaluation import write_predictions
from docrel.model import prepare_document
from docrel.training import (EpochStats, PredictionSet, PredRecord, calibrate_threshold,
                             predict_documents, train_model)
from gen import gold_instance_set, rule_corpus


def sweep_oracle(scores, gold):
    """Exhaustive threshold sweep over candidates, ties resolved to the larger."""
    candidates = sorted(set(scores)) + [max(scores) + 1.0]
    best_f1, best_theta = -1.0, None
    for theta in candidates:
        pred = scores >= theta
        tp = int((pred & gold).sum())
        p = tp / pred.sum() if pred.sum() else 0.0
        r = tp / gold.sum() if gold.sum() else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) else 0.0
        if f1 > best_f1 or (f1 == best_f1 and theta > best_theta):
            best_f1, best_theta = f1, theta
    return best_theta


def test_calibrate_separable_case():
    theta = calibrate_threshold(np.array([0.9, 0.1]), np.array([True, False]))
    assert theta == pytest.approx(0.9)


def test_calibrate_all_wrong_predicts_nothing():
    theta = calibrate_threshold(np.array([0.8, 0.6]), np.array([False, False]))
    assert theta > 0.8


def test_calibrate_matches_exhaustive_sweep_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        scores = np.round(rng.random(n), 3)
        gold = rng.random(n) < 0.4
        assert calibrate_threshold(scores, gold) == pytest.approx(sweep_oracle(scores, gold))


def per_position_calibration(scores, gold):
    """Walk every sorted position, skipping all but the last of each tie run."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    tp = np.cumsum(gold[order])
    f1 = 2.0 * tp / (np.arange(1, scores.size + 1) + gold.sum())
    best_theta, best_f1 = float(s_sorted[0]) + 1.0, 0.0
    for i in range(scores.size):
        if i + 1 < scores.size and s_sorted[i + 1] == s_sorted[i]:
            continue
        theta = float(s_sorted[i])
        if f1[i] > best_f1 or (f1[i] == best_f1 and theta > best_theta):
            best_f1, best_theta = float(f1[i]), theta
    return best_theta


def test_calibrate_matches_per_position_loop_on_tied_scores():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.random(n), 1)
        gold = rng.random(n) < rng.random()
        assert calibrate_threshold(scores, gold) == per_position_calibration(scores, gold)


def test_calibrate_empty_falls_back_with_warning():
    warnings = []
    theta = calibrate_threshold(np.array([]), np.array([], dtype=bool),
                                default=0.5, warn=warnings.append)
    assert theta == 0.5 and warnings


def small_corpus():
    rng = np.random.default_rng(20)
    return rule_corpus(rng, 4)


def tiny_config(**overrides):
    base = dict(word_dim=6, type_dim=2, coref_dim=2, hidden_size=4, gcn_dim=8,
                gcn_layers=1, topk=2, classifier_hidden=6, dropout=0.2,
                batch_size=2, learning_rate=0.01, epochs=2, eval_every=1, seed=9)
    base.update(overrides)
    return TrainingConfig(**base)


def test_zero_epochs_returns_initialization():
    docs = small_corpus()
    cfg = tiny_config(epochs=0)
    result = train_model(docs, cfg, log=lambda m: None)
    vocab = result.vocab
    from docrel.model import RelationModel
    fresh = RelationModel(cfg, vocab)
    for name, arr in fresh.state_arrays().items():
        assert result.best_state[name].tobytes() == arr.tobytes()
    assert result.history == []


def test_zero_epochs_with_dev_returns_initialization():
    docs = small_corpus()
    cfg = tiny_config(epochs=0)
    result = train_model(docs[:3], cfg, dev_docs=docs[3:], log=lambda m: None)
    from docrel.model import RelationModel
    fresh = RelationModel(cfg, result.vocab)
    assert set(result.best_state) == set(fresh.state_arrays())
    for name, arr in fresh.state_arrays().items():
        assert result.best_state[name].tobytes() == arr.tobytes()
    assert result.history == [] and result.best_f1 is None


def test_training_is_bitwise_deterministic():
    docs = small_corpus()
    r1 = train_model(docs, tiny_config(), log=lambda m: None)
    r2 = train_model(docs, tiny_config(), log=lambda m: None)
    assert set(r1.best_state) == set(r2.best_state)
    for name in r1.best_state:
        assert r1.best_state[name].tobytes() == r2.best_state[name].tobytes()
    assert [(s.epoch, s.loss) for s in r1.history] == [(s.epoch, s.loss) for s in r2.history]


def test_training_with_dev_tracks_best():
    docs = small_corpus()
    result = train_model(docs[:3], tiny_config(epochs=3), dev_docs=docs[3:],
                         log=lambda m: None)
    assert result.best_f1 is not None
    assert any(s.dev_f1 is not None for s in result.history)
    assert 0.0 <= result.threshold <= 2.0


def test_empty_corpus_rejected():
    with pytest.raises(ContractError):
        train_model([], tiny_config(), log=lambda m: None)


def test_divergence_diagnostics_carry_context():
    err = TrainingDiverged("bad loss", epoch=3, batch=1, max_abs_grad=12.5)
    assert err.epoch == 3 and err.batch == 1 and err.max_abs_grad == 12.5


def test_non_finite_loss_aborts_with_diagnostics(monkeypatch):
    from docrel import autodiff as ad
    from docrel.model import RelationModel

    def poisoned_loss(self, feats, pairs, dropout=None):
        return ad.Tensor(np.nan)

    monkeypatch.setattr(RelationModel, "document_loss", poisoned_loss)
    with pytest.raises(TrainingDiverged) as exc:
        train_model(small_corpus(), tiny_config(), log=lambda m: None)
    assert exc.value.epoch == 1
    assert exc.value.batch == 0


def test_non_finite_gradient_aborts_before_the_step(monkeypatch):
    from docrel import training

    spy = {}

    class SpyAdamW(training.AdamW):
        def __init__(self, params, **kwargs):
            super().__init__(params, **kwargs)
            spy["params"] = self.params

    real_backward = training.backward

    def poisoned_backward(loss):
        real_backward(loss)
        victim = [p for p in spy["params"] if p.grad is not None][-1]
        victim.tensor.grad.flat[0] = np.nan
        spy["victim"] = victim.name

    monkeypatch.setattr(training, "AdamW", SpyAdamW)
    monkeypatch.setattr(training, "backward", poisoned_backward)
    with pytest.raises(TrainingDiverged) as exc:
        train_model(small_corpus(), tiny_config(), log=lambda m: None)
    err = exc.value
    assert (err.epoch, err.batch) == (1, 0)
    assert err.parameter == spy["victim"] and spy["victim"] in str(err)
    assert np.isfinite(err.max_abs_grad) and err.max_abs_grad > 0.0
    assert all(np.isfinite(p.data).all() for p in spy["params"])


def test_loss_decreases_on_small_corpus():
    docs = small_corpus()
    result = train_model(docs, tiny_config(epochs=12, dropout=0.0), log=lambda m: None)
    losses = [s.loss for s in result.history]
    assert losses[-1] < losses[0]


def test_predict_documents_covers_full_pair_set():
    docs = small_corpus()
    result = train_model(docs, tiny_config(epochs=1), log=lambda m: None)
    feats = [prepare_document(d, result.vocab) for d in docs]
    preds = predict_documents(result.model, feats)
    expected = sum(len(f.pairs) for f in feats) * result.vocab.n_relations
    assert len(preds.records) == expected
    assert all(0.0 <= r.score <= 1.0 for r in preds.records)


def per_record_predictions(model, features):
    """One PredRecord per (pair, relation), document by document: the reference row order."""
    recs = []
    for feats in features:
        out = model.forward(feats)
        probs = out.probs.data
        for i, p in enumerate(feats.pairs[j] for j in out.rows):
            for r in range(probs.shape[1]):
                recs.append(PredRecord(feats.doc.title, p.head, p.tail, r, float(probs[i, r])))
    return recs


def per_record_prediction_file(records, threshold, vocab):
    """The prediction file text, built by indexing every record by its key."""
    id2label = {rid: label for label, rid in vocab.rel2id.items()}
    decided = {(r.title, r.head, r.tail, r.relation) for r in records if r.score >= threshold}
    by_score = {(r.title, r.head, r.tail, r.relation): r.score for r in records}
    rows = [{"title": title, "h_idx": h, "t_idx": t, "r": id2label[r],
             "score": by_score[(title, h, t, r)]}
            for (title, h, t, r) in sorted(decided)]
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


def test_prediction_arrays_match_per_record_oracle(tmp_path):
    docs = small_corpus()
    result = train_model(docs, tiny_config(epochs=1), log=lambda m: None)
    feats = [prepare_document(d, result.vocab) for d in docs]
    expected = per_record_predictions(result.model, feats)
    threshold = sorted(r.score for r in expected)[-10]
    preds = predict_documents(result.model, feats, threshold=threshold)
    assert isinstance(preds.scores, np.ndarray) and preds.scores.shape == (len(expected),)
    got = preds.records
    assert got == expected
    assert (np.array([r.score for r in got]).tobytes()
            == np.array([r.score for r in expected]).tobytes())
    decided = {(r.title, r.head, r.tail, r.relation) for r in expected if r.score >= threshold}
    assert preds.decided() == decided and len(decided) >= 10
    path = tmp_path / "predictions.json"
    write_predictions(path, preds, result.vocab)
    assert path.read_text(encoding="utf-8") == per_record_prediction_file(
        expected, threshold, result.vocab)


def test_predict_documents_of_no_documents_is_empty():
    docs = small_corpus()
    result = train_model(docs, tiny_config(epochs=0), log=lambda m: None)
    preds = predict_documents(result.model, [], threshold=0.5)
    assert preds.records == [] and preds.decided() == set()


def test_prediction_set_decision_rules():
    recs = [PredRecord("d", 0, 1, 0, 0.9), PredRecord("d", 0, 1, 1, 0.2)]
    assert PredictionSet.from_records(recs, threshold=0.5).decided() == {("d", 0, 1, 0)}
    assert PredictionSet.from_records(recs, threshold=None).decided() == {("d", 0, 1, 0),
                                                                          ("d", 0, 1, 1)}
    assert gold_instance_set(small_corpus())  # nonempty sanity


def test_train_model_leaves_no_tensor_for_the_cyclic_collector():
    saved_garbage, flags, enabled = list(gc.garbage), gc.get_debug(), gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = train_model(small_corpus(), tiny_config(), log=lambda m: None)
        del result
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sum(isinstance(o, Tensor) for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved_garbage
        if enabled:
            gc.enable()
    assert leaked == 0


def test_documents_without_training_rows_are_logged_by_reason():
    from docrel.corpus import Document, Entity, Mention
    good = small_corpus()[0]
    lone = Document("lone", [["a", "b"]], [Entity(0, "PER", [Mention(0, 0, 1, "a")])], [])
    factless = Document("factless", [["a", "x", "b"]],
                        [Entity(0, "PER", [Mention(0, 0, 1, "a")]),
                         Entity(1, "LOC", [Mention(0, 2, 3, "b")])], [])
    assert good.facts
    lines = []
    train_model([good, lone, factless], tiny_config(epochs=2), log=lines.append)
    skipped = [line for line in lines if "no training rows" in line]
    assert skipped == ["train_model: 2 of 3 documents give no training rows: "
                       "1 without an entity pair ('lone'), 1 without a gold fact ('factless')"]

    lines.clear()
    train_model([good], tiny_config(epochs=1), log=lines.append)
    assert not any("no training rows" in line for line in lines)
