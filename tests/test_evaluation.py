"""Metric suite against an independent set-operation scorer."""

import numpy as np
import pytest

from docrel.corpus import (Document, Entity, Mention, PairKind, RelationFact,
                           build_vocabulary, enumerate_entity_pairs)
from docrel.errors import ContractError
from docrel.evaluation import (compute_f1_suite, enumerate_two_hop, infer_f1,
                               read_predictions, train_fact_names, two_hop_pair_frame,
                               write_predictions)
from docrel.training import PredictionSet, PredRecord
from gen import random_document


def two_sentence_doc(title="doc"):
    return Document(
        title, [["a", "b", "c"], ["d", "e"]],
        [Entity(0, "T", [Mention(0, 0, 1, "a")]),
         Entity(1, "T", [Mention(0, 2, 3, "c")]),
         Entity(2, "T", [Mention(1, 0, 1, "d")])],
        [RelationFact(0, 1, 0, "r0", []), RelationFact(0, 2, 1, "r1", []),
         RelationFact(1, 2, 0, "r0", []), RelationFact(0, 2, 0, "r0", [])])


def preds_from(triples, threshold=0.5, score=0.9):
    return PredictionSet.from_records(
        [PredRecord(t, h, tl, r, score) for (t, h, tl, r) in triples], threshold=threshold)


def test_worked_example_two_thirds_half():
    # 3 predictions, 2 correct, 4 gold
    doc = two_sentence_doc()
    preds = preds_from([
        ("doc", 0, 1, 0),   # correct
        ("doc", 1, 2, 0),   # correct
        ("doc", 2, 0, 1),   # wrong
    ])
    report = compute_f1_suite(preds, [doc])
    assert report.overall.precision == pytest.approx(2 / 3)
    assert report.overall.recall == pytest.approx(1 / 2)
    assert report.overall.f1 == pytest.approx(4 / 7)
    assert (report.overall.tp, report.overall.fp, report.overall.fn) == (2, 1, 2)


def test_no_predictions_all_zero():
    doc = two_sentence_doc()
    report = compute_f1_suite(preds_from([]), [doc])
    assert report.overall.precision == 0.0
    assert report.overall.recall == 0.0
    assert report.overall.f1 == 0.0


def test_unknown_pair_is_contract_error():
    doc = two_sentence_doc()
    with pytest.raises(ContractError):
        compute_f1_suite(preds_from([("doc", 0, 9, 0)]), [doc])


def test_ign_filter_hand_recount():
    doc = two_sentence_doc()
    # training fact matching (a, c, r0) by surface: prediction and gold both lose (0,1,0)
    train_doc = Document(
        "train", [["a", "x", "c"]],
        [Entity(0, "T", [Mention(0, 0, 1, "a")]), Entity(1, "T", [Mention(0, 2, 3, "c")])],
        [RelationFact(0, 1, 0, "r0", [])])
    preds = preds_from([("doc", 0, 1, 0), ("doc", 1, 2, 0)])
    report = compute_f1_suite(preds, [doc], train_docs=[train_doc])
    # overall: tp=2, fp=0, fn=2; ign drops (0,1,0) from both sides: tp=1, fn=2
    assert (report.overall.tp, report.overall.fp, report.overall.fn) == (2, 0, 2)
    assert (report.ign.tp, report.ign.fp, report.ign.fn) == (1, 0, 2)


def test_ign_gold_is_subset_of_overall_gold():
    rng = np.random.default_rng(0)
    docs = [random_document(rng, title=f"d{i}") for i in range(5)]
    train = [random_document(rng, title=f"t{i}") for i in range(3)]
    preds = preds_from([], threshold=0.5)
    r = compute_f1_suite(preds, docs, train_docs=train)
    assert r.ign.fn <= r.overall.fn


def test_intra_inter_slices_partition_overall():
    doc = two_sentence_doc()
    preds = preds_from([("doc", 0, 1, 0), ("doc", 0, 2, 1), ("doc", 2, 1, 0)])
    report = compute_f1_suite(preds, [doc])
    assert report.intra.tp + report.inter.tp == report.overall.tp
    assert report.intra.fp + report.inter.fp == report.overall.fp
    assert report.intra.fn + report.inter.fn == report.overall.fn


def test_two_hop_triangle():
    facts = [RelationFact(0, 1, 0, "a", []), RelationFact(1, 2, 1, "b", []),
             RelationFact(0, 2, 2, "c", [])]
    assert enumerate_two_hop(facts) == {(0, 2, 2)}


def test_two_hop_open_chain_is_empty():
    facts = [RelationFact(0, 1, 0, "a", []), RelationFact(1, 2, 1, "b", [])]
    assert enumerate_two_hop(facts) == set()
    assert two_hop_pair_frame(facts) == {(0, 2)}


def test_two_hop_never_self_composes():
    facts = [RelationFact(0, 1, 0, "a", []), RelationFact(1, 0, 0, "a", [])]
    assert enumerate_two_hop(facts) == set()
    assert (0, 0) not in two_hop_pair_frame(facts)


def test_infer_perfect_triangle_scores_one():
    doc = two_sentence_doc()
    # gold two-hop instances: (0,2,*) via 0->1->2
    preds = preds_from([("doc", 0, 2, 0), ("doc", 0, 2, 1)])
    report = compute_f1_suite(preds, [doc])
    assert report.infer is not None
    assert report.infer.f1 == pytest.approx(1.0)


def test_infer_excludes_out_of_frame_predictions_from_precision():
    doc = two_sentence_doc()
    preds = preds_from([("doc", 0, 2, 0), ("doc", 0, 2, 1), ("doc", 1, 2, 0)])
    report = compute_f1_suite(preds, [doc])
    # (1,2,0) is outside the two-hop frame: ignored by the infer slice entirely
    assert report.infer.tp == 2 and report.infer.fp == 0
    assert report.infer.recall == pytest.approx(1.0)


def test_empty_two_hop_corpus_is_flagged():
    doc = Document(
        "flat", [["a", "b"]],
        [Entity(0, "T", [Mention(0, 0, 1, "a")]), Entity(1, "T", [Mention(0, 1, 2, "b")])],
        [RelationFact(0, 1, 0, "r0", [])])
    report = compute_f1_suite(preds_from([]), [doc])
    assert any("two-hop" in n for n in report.notes)


def brute_force_suite(decided, docs, train_names):
    """Independent scorer: plain set arithmetic per slice."""
    gold = {(d.title, f.head, f.tail, f.relation) for d in docs for f in d.facts}
    kinds = {}
    for d in docs:
        for p in enumerate_entity_pairs(d):
            kinds[(d.title, p.head, p.tail)] = p.kind
    surfaces = {}
    for d in docs:
        for e in d.entities:
            surfaces[(d.title, e.id)] = {m.surface for m in e.mentions}

    def keep_ign(inst):
        t, h, tl, r = inst
        return not any((hs, ts, r) in train_names
                       for hs in surfaces[(t, h)] for ts in surfaces[(t, tl)])

    def score(p_set, g_set):
        tp = len(p_set & g_set)
        return tp, len(p_set) - tp, len(g_set) - tp

    out = {"overall": score(decided, gold)}
    out["ign"] = score({p for p in decided if keep_ign(p)}, {g for g in gold if keep_ign(g)})
    for name, kind in (("intra", PairKind.INTRA), ("inter", PairKind.INTER)):
        out[name] = score({p for p in decided if kinds[p[:3]] is kind},
                          {g for g in gold if kinds[g[:3]] is kind})
    frames = {}
    for d in docs:
        pairs = {(f.head, f.tail) for f in d.facts}
        frames[d.title] = {(h, t) for (h, k) in pairs for (k2, t) in pairs
                           if k == k2 and h != t}
    def framed(inst):
        return (inst[1], inst[2]) in frames[inst[0]]
    out["infer"] = score({p for p in decided if framed(p)}, {g for g in gold if framed(g)})
    return out


def test_suite_matches_independent_scorer_on_random_fixtures():
    rng = np.random.default_rng(42)
    for trial in range(25):
        docs = [random_document(rng, title=f"d{trial}-{i}", fact_prob=0.4) for i in range(3)]
        train = [random_document(rng, title=f"t{trial}-{i}", fact_prob=0.4) for i in range(2)]
        train_names = train_fact_names(train)
        # random predictions over real pairs
        decided = set()
        records = []
        for d in docs:
            for p in enumerate_entity_pairs(d):
                for r in range(4):
                    score = float(rng.random())
                    records.append(PredRecord(d.title, p.head, p.tail, r, score))
                    if score >= 0.7:
                        decided.add((d.title, p.head, p.tail, r))
        preds = PredictionSet.from_records(records, threshold=0.7)
        report = compute_f1_suite(preds, docs, train_names=train_names)
        expected = brute_force_suite(decided, docs, train_names)
        got = {
            "overall": (report.overall.tp, report.overall.fp, report.overall.fn),
            "ign": (report.ign.tp, report.ign.fp, report.ign.fn),
            "intra": (report.intra.tp, report.intra.fp, report.intra.fn),
            "inter": (report.inter.tp, report.inter.fp, report.inter.fn),
            "infer": (report.infer.tp, report.infer.fp, report.infer.fn),
        }
        assert got == expected, f"trial {trial}"


def test_report_renders_and_serializes():
    doc = two_sentence_doc()
    report = compute_f1_suite(preds_from([("doc", 0, 1, 0)]), [doc])
    text = report.render()
    assert "overall" in text and "infer" in text
    blob = report.as_dict()
    assert blob["overall"]["tp"] == 1


def test_prediction_file_roundtrip(tmp_path):
    doc = two_sentence_doc()
    vocab = build_vocabulary([doc])
    preds = PredictionSet.from_records([
        PredRecord("doc", 0, 1, vocab.rel2id["r0"], 0.75),
        PredRecord("doc", 0, 2, vocab.rel2id["r1"], 0.25),
    ], threshold=0.5)
    path = tmp_path / "pred.json"
    write_predictions(path, preds, vocab)
    loaded = read_predictions(path, vocab)
    assert loaded.threshold is None
    assert loaded.decided() == {("doc", 0, 1, vocab.rel2id["r0"])}
    again = tmp_path / "pred2.json"
    write_predictions(again, preds, vocab)
    assert path.read_bytes() == again.read_bytes()
