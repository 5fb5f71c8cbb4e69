"""Corpus loading, vocabulary, featurization and pair routing against oracles."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel.corpus import (Document, Entity, Mention, PairKind, RelationFact,
                           build_vocabulary, enumerate_entity_pairs, featurize_document,
                           load_docred, sample_training_pairs, NONE_LABEL)
from docrel.errors import ConfigError, ContractError, DocrelError, ParseError, ValidationError
from docrel.model import prepare_document
from gen import docred_json, random_document

FIXTURE = [
    {
        "title": "alpha",
        "sents": [["Anna", "moved", "to", "Berlin"], ["She", "likes", "Berlin"]],
        "vertexSet": [
            [{"name": "Anna", "sent_id": 0, "pos": [0, 1], "type": "PER"},
             {"name": "She", "sent_id": 1, "pos": [0, 1], "type": "PER"}],
            [{"name": "Berlin", "sent_id": 0, "pos": [3, 4], "type": "LOC"},
             {"name": "Berlin", "sent_id": 1, "pos": [2, 3], "type": "LOC"}],
        ],
        "labels": [{"h": 0, "t": 1, "r": "moved_to", "evidence": [0]}],
    },
    {
        "title": "beta",
        "sents": [["Acme", "hired", "Bob"]],
        "vertexSet": [
            [{"name": "Acme", "sent_id": 0, "pos": [0, 1], "type": "ORG"}],
            [{"name": "Bob", "sent_id": 0, "pos": [2, 3], "type": "PER"}],
        ],
        "labels": [{"h": 0, "t": 1, "r": "hired"}],
    },
]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(FIXTURE), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_docred_mention_census(corpus_file):
    docs = load_docred(corpus_file)
    assert len(docs) == 2
    # hand-enumerated census of the fixture above
    assert [sum(len(e.mentions) for e in d.entities) for d in docs] == [4, 2]
    assert docs[0].entities[0].type == "PER"
    assert docs[0].facts[0].evidence == [0]
    assert docs[0].facts[0].label == "moved_to"


def test_load_docred_empty_array(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    assert load_docred(path) == []


def test_load_docred_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[{", encoding="utf-8")
    with pytest.raises(ParseError):
        load_docred(path)


def test_load_docred_bad_span_names_title(tmp_path):
    record = dict(FIXTURE[1])
    record["vertexSet"] = [[{"name": "X", "sent_id": 0, "pos": [2, 9], "type": "ORG"}]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    with pytest.raises(ValidationError, match="beta"):
        load_docred(path)


def test_load_docred_relation_ids_sorted_and_stable(corpus_file):
    docs = load_docred(corpus_file)
    # labels assigned ids in sorted order: hired=0, moved_to=1
    assert docs[0].facts[0].relation == 1
    assert docs[1].facts[0].relation == 0


def test_load_docred_with_vocab_rejects_unknown_relation(corpus_file, tmp_path):
    docs = load_docred(corpus_file)
    vocab = build_vocabulary(docs[:1])  # only moved_to
    other = tmp_path / "dev.json"
    other.write_text(json.dumps([FIXTURE[1]]), encoding="utf-8")
    with pytest.raises(ValidationError):
        load_docred(other, vocab=vocab)


@pytest.mark.parametrize("labels", [["r"], 3, [{"h": 0, "t": 1, "r": "hired"}, None], {"r": "x"}])
def test_load_docred_labels_must_be_a_list_of_objects(tmp_path, labels):
    record = dict(FIXTURE[1], labels=labels)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    vocab = build_vocabulary(load_docred_from(FIXTURE))
    for v in (None, vocab):
        with pytest.raises(ParseError, match="labels"):
            load_docred(path, vocab=v)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)


def mutate(node, data):
    """Drop, retype or replace one field somewhere below `node`, in place."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and data.draw(st.booleans()):
            node = node[key]
            continue
        action = data.draw(st.sampled_from(["drop", "retype", "replace"]))
        if action == "drop":
            del node[key]
        elif action == "retype":
            value = node[key]
            node[key] = data.draw(st.sampled_from(
                [str(value), [value], {"v": value}, len(str(value)), None, float("inf")]))
        else:
            node[key] = data.draw(JSON_VALUES)
        return


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_docred_lets_only_docrel_errors_out(fuzz_dir, data):
    records = copy.deepcopy(FIXTURE)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(records, data)
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    for vocab in (None, build_vocabulary(load_docred_from(FIXTURE))):
        try:
            load_docred(path, vocab=vocab)
        except DocrelError:
            pass


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_min_freq_threshold():
    doc = Document("t", [["a", "a", "b"]], [Entity(0, "X", [Mention(0, 0, 1, "a")])], [])
    vocab = build_vocabulary([doc], min_freq=2)
    assert vocab.word_id("a") != vocab.unk_id
    assert vocab.word_id("b") == vocab.unk_id


def test_vocab_size_matches_independent_token_scan():
    rng = np.random.default_rng(5)
    docs = [random_document(rng, title=f"d{i}") for i in range(8)]
    vocab = build_vocabulary(docs)
    distinct = {tok for d in docs for s in d.sentences for tok in s}
    assert vocab.n_words == len(distinct) + 2  # pad + unk


def test_vocab_none_type_is_row_zero():
    docs = load_docred_from(FIXTURE)
    vocab = build_vocabulary(docs)
    assert vocab.type2id[NONE_LABEL] == 0
    assert set(vocab.type2id) == {NONE_LABEL, "LOC", "ORG", "PER"}
    assert vocab.n_coref == 3  # max 2 entities per doc + none row


def load_docred_from(records):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "x.json"
        p.write_text(json.dumps(records), encoding="utf-8")
        return load_docred(p)


def test_build_vocabulary_requires_documents():
    with pytest.raises(ContractError):
        build_vocabulary([])


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

def test_featurize_inside_and_outside_mentions():
    docs = load_docred_from(FIXTURE)
    vocab = build_vocabulary(docs)
    feats = featurize_document(docs[0], vocab)
    anna = feats[0][0]
    assert anna[0] == vocab.word_id("Anna")
    assert anna[1] == vocab.type2id["PER"]
    assert anna[2] == 1  # entity 0 -> coref row 1; row 0 is the none id
    berlin = feats[0][3]
    assert berlin[1] == vocab.type2id["LOC"] and berlin[2] == 2
    outside = feats[0][1]
    assert outside[1] == 0 and outside[2] == 0


def test_featurize_matches_per_token_rule_oracle():
    rng = np.random.default_rng(11)
    docs = [random_document(rng, title=f"d{i}") for i in range(6)]
    vocab = build_vocabulary(docs)
    for doc in docs:
        feats = featurize_document(doc, vocab)
        for sid, sent in enumerate(doc.sentences):
            for t, tok in enumerate(sent):
                owner = None
                for e in doc.entities:
                    for m in e.mentions:
                        if m.sentence_id == sid and m.start <= t < m.end:
                            owner = e
                expect_type = vocab.type2id[owner.type] if owner else 0
                expect_coref = min(owner.id + 1, vocab.n_coref - 1) if owner else 0
                assert feats[sid][t, 0] == vocab.word_id(tok)
                assert feats[sid][t, 1] == expect_type
                assert feats[sid][t, 2] == expect_coref


def test_featurize_is_pure():
    docs = load_docred_from(FIXTURE)
    vocab = build_vocabulary(docs)
    a = featurize_document(docs[0], vocab)
    b = featurize_document(docs[0], vocab)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def overlap_doc():
    return Document(
        "olap", [["x", "y", "z"]],
        [Entity(0, "A", [Mention(0, 0, 2, "x y")]), Entity(1, "B", [Mention(0, 1, 3, "y z")])],
        [])


def test_overlapping_mentions_rejected_by_default():
    doc = overlap_doc()
    vocab = build_vocabulary([doc])
    with pytest.raises(ValidationError, match="olap"):
        featurize_document(doc, vocab)


def test_overlap_first_wins_assigns_earliest_start():
    doc = overlap_doc()
    vocab = build_vocabulary([doc])
    feats = featurize_document(doc, vocab, allow_overlap="first-wins")
    # token 1 contested; entity 0 starts earlier and wins
    assert feats[0][1, 2] == 1
    assert feats[0][2, 2] == 2  # token 2 only claimed by entity 1


# ---------------------------------------------------------------------------
# pair enumeration and sampling
# ---------------------------------------------------------------------------

def pair_doc():
    # entities: A mentions in s1, s2; B in s1; C in s3 (spec-style example)
    return Document(
        "pairs", [["a0", "b0"], ["a1"], ["c0"]],
        [Entity(0, "T", [Mention(0, 0, 1, "a0"), Mention(1, 0, 1, "a1")]),
         Entity(1, "T", [Mention(0, 1, 2, "b0")]),
         Entity(2, "T", [Mention(2, 0, 1, "c0")])],
        [])


def test_enumerate_pairs_example_routing():
    pairs = {(p.head, p.tail): p for p in enumerate_entity_pairs(pair_doc())}
    assert pairs[(0, 1)].kind is PairKind.INTRA
    assert pairs[(1, 0)].kind is PairKind.INTRA
    for key in ((0, 2), (2, 0), (1, 2), (2, 1)):
        assert pairs[key].kind is PairKind.INTER


def test_single_entity_document_has_no_pairs():
    doc = Document("one", [["x"]], [Entity(0, "T", [Mention(0, 0, 1, "x")])], [])
    assert enumerate_entity_pairs(doc) == []


def test_pair_count_is_n_times_n_minus_one():
    rng = np.random.default_rng(3)
    doc = random_document(rng, max_entities=4, max_sentences=3)
    n = len(doc.entities)
    assert len(enumerate_entity_pairs(doc)) == n * (n - 1)


def test_pair_routing_symmetry_and_brute_force_intra_count():
    rng = np.random.default_rng(12)
    for _ in range(25):
        doc = random_document(rng)
        pairs = {(p.head, p.tail): p.kind for p in enumerate_entity_pairs(doc)}
        for (h, t), kind in pairs.items():
            assert pairs[(t, h)] == kind
        # brute force double loop over mention sentence ids
        brute = 0
        for h in doc.entities:
            for t in doc.entities:
                if h.id == t.id:
                    continue
                share = any(mh.sentence_id == mt.sentence_id
                            for mh in h.mentions for mt in t.mentions)
                brute += share
        assert sum(k is PairKind.INTRA for k in pairs.values()) == brute


def test_sampling_counts_and_determinism():
    positive = np.repeat([True, False], [10, 100])
    sampled = sample_training_pairs(positive, 0.25, np.random.default_rng(5))
    assert positive[sampled].sum() == 10
    assert (~positive[sampled]).sum() == 40
    assert np.all(np.diff(sampled) > 0)

    again = sample_training_pairs(positive, 0.25, np.random.default_rng(5))
    np.testing.assert_array_equal(again, sampled)


def test_sampling_caps_at_available_negatives():
    positive = np.array([True, True, False, False, False])
    sampled = sample_training_pairs(positive, 1.0, np.random.default_rng(0))
    assert len(sampled) == 4  # 2 positives + 2 of 3 negatives (positives/ratio = 2)


def test_sampling_ratio_one_keeps_everything_when_scarce():
    positive = np.repeat([True, False], [5, 3])
    sampled = sample_training_pairs(positive, 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(sampled, np.arange(8))


def test_sampling_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        sample_training_pairs(np.zeros(0, dtype=bool), 0.0, np.random.default_rng(0))


def list_sampler(pairs, facts, ratio, rng):
    """The pair-list sampler that the row sampler replaced: keep every pair with
    a fact and draw negatives by their position among the negatives."""
    gold_pairs = {(f.head, f.tail) for f in facts}
    keep = np.zeros(len(pairs), dtype=bool)
    negatives = []
    n_pos = 0
    for i, p in enumerate(pairs):
        if (p.head, p.tail) in gold_pairs:
            keep[i] = True
            n_pos += 1
        else:
            negatives.append(i)
    want = min(len(negatives), int(round(n_pos / ratio)))
    if want and negatives:
        for j in rng.choice(len(negatives), size=want, replace=False):
            keep[negatives[j]] = True
    return [p for i, p in enumerate(pairs) if keep[i]]


def test_row_sampler_draws_the_pairs_of_the_list_sampler():
    rng = np.random.default_rng(21)
    docs = [random_document(rng, title=f"s{i}", max_entities=8, max_mentions=12)
            for i in range(8)]
    vocab = build_vocabulary(docs)
    assert {f.relation for d in docs for f in d.facts} <= set(vocab.rel2id.values())
    compared = 0
    for di, doc in enumerate(docs):
        feats = prepare_document(doc, vocab)
        for ratio in (0.25, 0.5, 1.0):
            got_rng, want_rng = np.random.default_rng(di), np.random.default_rng(di)
            got = sample_training_pairs(feats.gold.any(axis=1), ratio, got_rng)
            want = list_sampler(feats.pairs, doc.facts, ratio, want_rng)
            np.testing.assert_array_equal(got, [feats.pair_rows[p.head, p.tail] for p in want])
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            compared += len(want)
    assert compared > 50


def test_docred_json_helper_roundtrips():
    rng = np.random.default_rng(9)
    docs = [random_document(rng, title=f"d{i}") for i in range(3)]
    rendered = docred_json(docs)
    reloaded = load_docred_from(rendered)
    assert [d.title for d in reloaded] == [d.title for d in docs]
    assert [len(d.entities) for d in reloaded] == [len(d.entities) for d in docs]
    assert [len(d.facts) for d in reloaded] == [len(d.facts) for d in docs]
